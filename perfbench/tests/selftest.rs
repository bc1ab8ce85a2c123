//! Self-tests of the benchmark: the oracle passes on the real program at a
//! tiny scale, catches a planted fault, and the thread-CPU reader finds the
//! library's background threads by name.

use std::path::PathBuf;

use perfbench::bench::{self, RunOpts, Workload};
use perfbench::procfs;
use perfbench::sys::{Rung, System};

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{name}"))
}

/// The named workload at a size that runs in well under a second.
fn tiny(name: &str) -> Workload {
    let mut w = bench::workloads()
        .into_iter()
        .find(|w| w.name == name)
        .expect("known workload");
    w.keys = 256;
    w.range = 512;
    w.trace_ops = 600;
    w.ladder_ops = 200;
    w
}

fn tiny_opts(name: &str, seed: u64, ops: u64) -> RunOpts {
    let mut opts = RunOpts::new(seed, ops, work_dir(name));
    opts.trials = 2;
    opts.max_cycle = 500;
    opts
}

#[test]
fn every_workload_passes_its_oracle_at_tiny_scale() {
    for w in bench::workloads() {
        let w = tiny(w.name);
        let opts = tiny_opts(w.name, 11, 1500);
        let out = bench::run(&w, &opts).expect("run");
        assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.notes);
        assert!(
            out.check_errors.is_empty(),
            "{}: {:?}",
            w.name,
            out.check_errors
        );
        assert_eq!(out.attempted, 3000, "two trials of 750 ops per client");
        let names: Vec<_> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        for class in ["read", "write"] {
            for q in ["p50", "p99"] {
                let name = format!("{class}_{q}_us");
                assert!(names.contains(&name.as_str()), "{}: no {name}", w.name);
            }
        }
        // `peak_rss_mb` is a difference of process-wide counters, and the
        // tests share one process: another test may have set the peak.
        for m in out
            .metrics
            .iter()
            .filter(|m| m.samples != Some(0) && m.name != "peak_rss_mb")
        {
            assert!(m.value > 0.0, "{}: {} = {}", w.name, m.name, m.value);
        }
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let expected = [
        "stm.commits_per_op",
        "stm.aborts_per_op",
        "stm.abort_frac.read_validation",
        "stm.abort_frac.lock_conflict",
        "stm.abort_frac.combiner",
        "stm.abort_frac.scan_validation",
        "stm.combined_frac",
        "stm.reads_per_op",
        "tree.depth_mean",
        "tree.height",
        "tree.hot_key_depth",
        "maint.cpu_share",
        "maint.passes_per_s",
        "maint.useful_frac",
        "maint.pass_p99_ms",
        "shard.cross_move_frac",
        "proc.threads",
        "wal.records_per_fsync",
        "wal.fsyncs_per_write",
        "wal.bytes_per_user_byte",
        "wal.sync_wait_p50_us",
        "wal.fsync_p99_us",
        "wal.writer_cpu_share",
        "wal.reopen_s",
        "wal.replay_records_per_s",
        "op.move_p50_us",
        "op.move_p99_us",
        "op.scan_p50_us",
        "op.scan_p99_us",
        "ladder.seq.ns_per_op",
        "ladder.nrtree.ns_per_op",
        "ladder.sftree-opt.ns_per_op",
        "ladder.sftree-opt-sharded4.ns_per_op",
        "ladder.sftree-opt-sharded4-wal.ns_per_op",
        "bench.trace_overhead_frac",
    ];
    // Moves occur on `durable-move` only, so only it reports their figures.
    let move_metrics = ["shard.cross_move_frac", "op.move_p50_us", "op.move_p99_us"];
    for name in ["point-small", "durable-move"] {
        let expected: Vec<&str> = if name == "durable-move" {
            expected.to_vec()
        } else {
            expected
                .into_iter()
                .filter(|m| !move_metrics.contains(m))
                .collect()
        };
        let w = tiny(name);
        let mut opts = tiny_opts(&format!("{name}-traced"), 5, 600);
        opts.trace = true;
        let out = bench::run(&w, &opts).expect("traced run");
        assert_eq!(out.failed, 0, "{name}: {:?}", out.notes);
        assert!(
            out.check_errors.is_empty(),
            "{name}: {:?}",
            out.check_errors
        );
        let got: Vec<_> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, expected, "{name}");
        let value = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(value("tree.height") > 0.0);
        assert!(value("stm.commits_per_op") > 0.0);
        // Both workloads replay their stream on the durable ladder rung.
        assert!(value("wal.records_per_fsync") > 0.0);
        assert!(value("wal.reopen_s") > 0.0);
        // Pass durations come from the library's own maintenance threads,
        // on the single tree and on the shards alike.
        assert!(value("maint.pass_p99_ms") > 0.0);
        if name == "durable-move" {
            assert!(value("shard.cross_move_frac") > 0.0);
        }
    }
}

#[test]
fn planted_fault_is_reported_as_failed_ops() {
    let w = tiny("point-small");
    let mut opts = tiny_opts("fault", 3, 20_000);
    // One trial, so each session sees well over 1000 inserts.
    opts.trials = 1;
    opts.fault_every = Some(1000);
    let out = bench::run(&w, &opts).expect("run");
    assert!(out.failed > 0, "dropped inserts went unnoticed");
    assert!(!out.correct());
    let frac = out.failed as f64 / out.attempted as f64;
    assert!(frac > 0.0 && frac < 0.5, "ops_failed_frac = {frac}");
}

#[test]
fn thread_cpu_reader_finds_background_threads_by_name() {
    let dir = work_dir("threads");
    let durable = System::build(Rung::SfOptSharded4Wal, &dir).expect("durable system");
    let tree = System::build(Rung::SfOpt, &dir).expect("tree");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let threads = procfs::threads();
    assert!(procfs::count_named(&threads, procfs::MAINTENANCE_THREAD) >= 5);
    assert!(procfs::count_named(&threads, procfs::WAL_WRITER_THREAD) >= 4);
    std::thread::sleep(std::time::Duration::from_millis(50));
    let later = procfs::threads();
    assert!(procfs::cpu_s_between(&threads, &later, procfs::MAINTENANCE_THREAD) > 0.0);
    drop((durable, tree));
}
