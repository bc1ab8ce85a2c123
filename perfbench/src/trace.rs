//! In-memory spans of a traced run, written out when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the trace epoch; `parent`
/// is the id of the enclosing span (ids start at 1, 0 means none); `req`
/// identifies the client operation (0 for phase spans).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

pub struct Trace {
    pub epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            req: 0,
        });
        self.spans.len() as u32
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end = now;
    }

    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    /// One line per span: `id parent name req start_ns end_ns`, tab-separated.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.name,
                s.req,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}
