//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a header, one line per metric, and as the last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Run it from the
//! repository root (logs and trace files go under `.perfbench/`).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use perfbench::bench::{self, RunOpts};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
    let args = Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if let Some(extra) = map
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown argument {extra}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// The checked-out commit when `.git` is present.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Hermetic: the library reads SF_* knobs; the benchmark measures its
    // defaults only.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SF_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }
    let Some(w) = bench::workloads()
        .into_iter()
        .find(|w| w.name == args.workload)
    else {
        let names: Vec<_> = bench::workloads().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (known: {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let root = std::env::current_dir().expect("current directory");
    let work_dir = root.join(".perfbench");
    let ops = w.ops_per_client(args.seconds);
    let mut opts = RunOpts::new(args.seed, ops, work_dir.clone());
    opts.trace = args.trace;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} clients={} \
         ops_per_client={ops} commit={}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        perfbench::gen::CLIENTS,
        git_commit(&root).unwrap_or_else(|| "unknown".into()),
    );
    let outcome = match bench::run(&w, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    let _ = std::fs::remove_dir(work_dir.join("wal"));
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for e in &outcome.check_errors {
        println!("CHECK FAILED: {e}");
    }
    let ops_failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "ops: attempted={} failed={} ops_failed_frac={ops_failed_frac}",
        outcome.attempted, outcome.failed
    );
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        let mut line = format!("metric {} = {} {}", m.name, m.value, m.unit);
        if let Some(n) = m.samples {
            line += &format!(" samples={n}");
        }
        if let Some((q, v)) = m.deepest {
            let pct = format!("{:.3}", q * 100.0);
            let pct = pct.trim_end_matches('0').trim_end_matches('.');
            line += &format!(" deepest=p{pct}:{v:.3}us");
        }
        println!("{line}");
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
