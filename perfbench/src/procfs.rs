//! Process facts read from `/proc/self`: per-thread CPU time by thread
//! name, thread count and peak resident set size.

use std::collections::HashMap;
use std::fs;

/// Thread names as the library sets them. The kernel keeps the first 15
/// bytes of a name, so matching is by that prefix.
pub const MAINTENANCE_THREAD: &str = "sf-tree-maintenance";
pub const WAL_WRITER_THREAD: &str = "sf-wal-writer";

/// Clock ticks per second of `/proc/*/stat` times (the Linux USER_HZ).
const TICKS_PER_S: u64 = 100;

/// CPU time of every live thread: tid -> (name, nanoseconds).
pub type ThreadCpu = HashMap<u64, (String, u64)>;

fn thread_cpu_ns(tid: &str) -> Option<u64> {
    // schedstat has nanosecond resolution; stat only clock ticks.
    if let Ok(s) = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    // Fields after the parenthesised name: state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 1_000_000_000 / TICKS_PER_S)
}

pub fn threads() -> ThreadCpu {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let tid = entry.file_name().to_string_lossy().into_owned();
        let Ok(id) = tid.parse::<u64>() else { continue };
        let name = fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
            .map(|s| s.trim_end().to_string())
            .unwrap_or_default();
        if let Some(ns) = thread_cpu_ns(&tid) {
            out.insert(id, (name, ns));
        }
    }
    out
}

fn matches(name: &str, wanted: &str) -> bool {
    name == &wanted[..wanted.len().min(15)]
}

/// Live threads whose name is `wanted`.
pub fn count_named(snapshot: &ThreadCpu, wanted: &str) -> usize {
    snapshot
        .values()
        .filter(|(n, _)| matches(n, wanted))
        .count()
}

/// CPU seconds threads named `wanted` used between two snapshots, counting
/// only threads alive at both.
pub fn cpu_s_between(before: &ThreadCpu, after: &ThreadCpu, wanted: &str) -> f64 {
    let ns: u64 = after
        .iter()
        .filter(|(_, (name, _))| matches(name, wanted))
        .filter_map(|(tid, (_, ns))| before.get(tid).map(|(_, b)| ns.saturating_sub(*b)))
        .sum();
    ns as f64 / 1e9
}

/// Number of live threads of this process.
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident set size (VmRSS) in MiB.
pub fn rss_mb() -> Option<f64> {
    status_kib("VmRSS:").map(|kib| kib as f64 / 1024.0)
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib as f64 / 1024.0)
}
