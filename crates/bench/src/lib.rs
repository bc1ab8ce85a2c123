//! # sf-bench — harnesses that regenerate the paper's tables and figures
//!
//! Each binary in `src/bin/` prints the rows/series of one exhibit of the
//! paper's evaluation (Table 1, Figures 3-6); the criterion benches in
//! `benches/` measure the underlying per-operation costs. See
//! `EXPERIMENTS.md` at the repository root for the mapping and for the
//! paper-vs-measured discussion.
//!
//! The harnesses resolve structures by name through the
//! [`sf_workloads::backend`] registry, so every harness can drive every
//! backend — including the sharded trees (`sftree-opt-sharded<N>`).
//!
//! All harnesses are parameterized through environment variables so they can
//! be scaled from a quick laptop run to a long, paper-sized run:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `SF_THREADS` | space-separated thread counts | `1 2 4 8` |
//! | `SF_DURATION_MS` | measured phase per cell (ms) | `300` |
//! | `SF_SIZE` | initial tree size | `4096` (2^12) |
//! | `SF_VACATION_TX` | vacation transactions (1× scale) | `32768` |
//! | `SF_STRUCTURES` | comma/space-separated structure names | per-harness |
//! | `SF_JSON` | `1` → one JSON line per workload result | off |
//! | `SF_SEED` | workload key-stream seed (deterministic streams) | `0x5eed5eed` |
//! | `SF_SCAN_PCT` | percent of operations that are range scans | `0` |
//! | `SF_SCAN_WIDTH` | keys spanned by one range scan | `100` |
//! | `SF_ZIPF_THETA` | Zipf θ for point-operation keys (unset = uniform) | off |
//! | `SF_HOTSPOT` | hot-rotation benefit ratio (`1` → default 2.0; `0` = off) | off |
//! | `SF_HOT_DECAY` | maintenance passes between counter halvings (`0` = off) | `0` |
//! | `SF_HOT_SAMPLE` | access-sampling rate (record 1 in N traversals) | `64` |
//! | `SF_WAL` | `1` → wrap every backend in the durability (WAL) layer | off |
//! | `SF_WAL_DIR` | base directory for write-ahead logs | `$TMPDIR/sf-wal-<pid>` |
//! | `SF_WAL_GROUP` | records per group-commit fsync batch (`0` = buffered) | `128` |
//! | `SF_WAL_CKPT` | records between automatic checkpoints (`0` = manual) | `0` |
//! | `SF_WAL_RING` | submission-ring capacity (records) | `1024` |
//! | `SF_WAL_CKPT_MS` | time-based checkpoint trigger (ms, `0` = off) | off |
//! | `SF_OBS_SAMPLE` | latency sampling: record 1 in N operations (`0` = off) | `32` |
//! | `SF_OBS_TRACE` | flight recorder: `1` → 4096-event rings, `N` → N-event | off |
//! | `SF_OBS_TRACE_DUMP` | `1` → dump the flight trace to stderr after each cell | off |
//! | `SF_STATS_EVERY_MS` | Prometheus-text emitter period to stderr (`0` = off) | off |
//!
//! Every harness's JSON line carries the WAL counters of its measured phase
//! (`wal_records`, `wal_bytes`, `wal_batches`, `wal_writer_batches`,
//! `wal_max_ring_depth`, `wal_checkpoints`, `wal_replayed` — all zero for
//! non-durable backends) plus the STM's abort-cause taxonomy (`abort_*`,
//! summing exactly to `aborts`; `abort_combiner` and `combined_commits` are
//! retired fields that always read 0), and the sampled
//! latency distributions (`lat_*`, nanoseconds; zero when sampling is
//! disabled or no event of that kind occurred), and the dedicated
//! `recovery` binary measures replay throughput against log length. It also carries the hot-key summary taken quiescently after the
//! run (`hot_rotations`, `hot_avg_depth`, `hot_key_depth` — zeros for
//! structures without access sampling). The `baseline` binary sweeps the
//! fig3/fig5b/fig7/zipf shapes over the flagship backends and writes the
//! checked-in `BENCH_baseline.json` trajectory file (see EXPERIMENTS.md,
//! "Perf trajectory"), and the `zipf` binary sweeps skew θ over the
//! hotspot-enabled trees against the rotation-free `ziptree` control.

#![warn(missing_docs)]

use std::time::Duration;

use sf_stm::StmConfig;
use sf_workloads::{populate_and_run_backend, Backend, RunLength, WorkloadConfig, WorkloadResult};

/// Read a space-separated list of thread counts from `SF_THREADS`.
pub fn thread_counts() -> Vec<usize> {
    std::env::var("SF_THREADS")
        .ok()
        .map(|s| {
            s.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// Measured-phase duration per benchmark cell (`SF_DURATION_MS`).
pub fn cell_duration() -> Duration {
    Duration::from_millis(
        std::env::var("SF_DURATION_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(300),
    )
}

/// Initial tree size (`SF_SIZE`).
pub fn initial_size() -> usize {
    std::env::var("SF_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 12)
}

/// Vacation transaction count at 1× scale (`SF_VACATION_TX`).
pub fn vacation_transactions() -> u64 {
    std::env::var("SF_VACATION_TX")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 15)
}

/// Workload seed (`SF_SEED`): every thread's key stream derives
/// deterministically from it, so two runs with the same seed (and the same
/// thread count) replay the same operation sequences.
pub fn workload_seed() -> u64 {
    std::env::var("SF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_5eed)
}

/// Range-scan share of operations (`SF_SCAN_PCT`, in percent).
pub fn scan_pct() -> f64 {
    std::env::var("SF_SCAN_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0)
}

/// True when `SF_SCAN_PCT` was set explicitly (used by `fig7` to decide
/// between a sweep and a single configured point).
pub fn scan_pct_overridden() -> bool {
    std::env::var("SF_SCAN_PCT").is_ok()
}

/// Zipfian skew θ for point-operation keys (`SF_ZIPF_THETA`); unset or
/// unparsable means uniform keys.
pub fn zipf_theta() -> Option<f64> {
    std::env::var("SF_ZIPF_THETA")
        .ok()
        .and_then(|s| s.parse().ok())
}

/// Range-scan width in keys (`SF_SCAN_WIDTH`).
pub fn scan_width() -> u64 {
    std::env::var("SF_SCAN_WIDTH")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}

/// The structures a harness should drive: `SF_STRUCTURES` (comma- or
/// whitespace-separated registry names), falling back to the harness's
/// `defaults`.
pub fn structures(defaults: &[&str]) -> Vec<String> {
    std::env::var("SF_STRUCTURES")
        .ok()
        .map(|s| sf_workloads::parse_structure_list(&s))
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| defaults.iter().map(|s| s.to_string()).collect())
}

/// True when `SF_JSON=1` asks for machine-readable output.
pub fn json_enabled() -> bool {
    std::env::var("SF_JSON").is_ok_and(|v| v == "1")
}

/// Run one micro-benchmark cell: resolve `name` through the backend
/// registry, populate, run the measured phase, and tear down (backends with
/// maintenance threads stop them when the backend drops here).
///
/// # Panics
/// Panics with the registry's name listing when `name` is unknown — harness
/// binaries surface that directly to the terminal.
pub fn run_structure(name: &str, stm_config: StmConfig, config: &WorkloadConfig) -> WorkloadResult {
    observability_init();
    let backend = Backend::build(name, stm_config).unwrap_or_else(|error| panic!("{error}"));
    let result = populate_and_run_backend(&backend, config);
    if std::env::var("SF_OBS_TRACE_DUMP").is_ok_and(|v| v == "1") {
        sf_obs::FlightRecorder::global().dump_to_stderr();
    }
    result
}

/// One-time per-process observability wiring for the harnesses: dump the
/// flight trace on panic, and start the `SF_STATS_EVERY_MS` Prometheus-text
/// emitter when asked. Idempotent.
pub fn observability_init() {
    use std::sync::Once;
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        sf_obs::FlightRecorder::install_panic_hook();
        sf_obs::MetricsRegistry::ensure_emitter_from_env();
    });
}

/// Workload configuration shared by the figure harnesses: the paper shape,
/// scaled by the environment (`SF_SIZE`, `SF_DURATION_MS`), seeded from
/// `SF_SEED`, with the scan family applied from `SF_SCAN_PCT` /
/// `SF_SCAN_WIDTH` (so *every* harness can mix range scans in).
pub fn base_config(threads: usize, update_ratio: f64) -> WorkloadConfig {
    WorkloadConfig::paper_default()
        .with_size(initial_size())
        .with_threads(threads)
        .with_update_ratio(update_ratio)
        .with_seed(workload_seed())
        .with_scan_ratio(scan_pct() / 100.0)
        .with_scan_width(scan_width())
        .with_zipf_theta(zipf_theta())
        .with_run(RunLength::Timed(cell_duration()))
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builder for the harness-specific `extra` fields of a JSON line — the one
/// place that knows how to encode them, instead of each binary hand-rolling
/// a `format!` of escaped fragments.
///
/// ```
/// use sf_bench::ExtraJson;
/// let extra = ExtraJson::figure("fig7").num("scan_pct", 10).build();
/// assert_eq!(extra, "\"figure\":\"fig7\",\"scan_pct\":10");
/// ```
#[derive(Debug, Default, Clone)]
pub struct ExtraJson {
    parts: Vec<String>,
}

impl ExtraJson {
    /// Start from the conventional leading `"figure":"<name>"` field every
    /// figure harness tags its rows with.
    pub fn figure(name: &str) -> ExtraJson {
        ExtraJson::default().text("figure", name)
    }

    /// Append a string-valued field (escaped).
    pub fn text(mut self, key: &str, value: &str) -> ExtraJson {
        self.parts.push(format!(
            "\"{}\":\"{}\"",
            json_escape(key),
            json_escape(value)
        ));
        self
    }

    /// Append a numeric field, rendered with `Display` (integers and floats
    /// both serialize as valid JSON numbers).
    pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> ExtraJson {
        self.parts
            .push(format!("\"{}\":{}", json_escape(key), value));
        self
    }

    /// The comma-joined fragment [`result_json`] splices into its line.
    pub fn build(&self) -> String {
        self.parts.join(",")
    }
}

/// One machine-readable line for a [`WorkloadResult`] (the `BENCH_*.json`
/// trajectory format). `label` is the harness's row label; `extra` carries
/// harness-specific fields (e.g. `"figure":"fig3"`), already JSON-encoded.
pub fn result_json(label: &str, result: &WorkloadResult, extra: &str) -> String {
    let mut line = format!(
        concat!(
            "{{\"label\":\"{}\",\"structure\":\"{}\",\"threads\":{},\"seed\":{},",
            "\"total_ops\":{},\"elapsed_us\":{},\"throughput_ops_per_us\":{:.6},",
            "\"effective_updates\":{},\"attempted_updates\":{},\"effective_moves\":{},",
            "\"successful_lookups\":{},\"scans\":{},\"scanned_entries\":{},",
            "\"commits\":{},\"combined_commits\":{},\"aborts\":{},\"abort_ratio\":{:.6},",
            "\"abort_read_validation\":{},\"abort_lock_conflict\":{},",
            "\"abort_combiner\":{},\"abort_explicit\":{},\"abort_scan_validation\":{},",
            "\"explicit_aborts\":{},",
            "\"tx_reads\":{},\"tx_ureads\":{},\"tx_writes\":{},\"elastic_cuts\":{},",
            "\"max_reads_per_op\":{},\"max_read_set\":{},\"max_write_set\":{},",
            "\"scan_commits\":{},\"scan_aborts\":{},\"max_scan_read_set\":{},",
            "\"wal_records\":{},\"wal_bytes\":{},\"wal_batches\":{},",
            "\"wal_writer_batches\":{},\"wal_max_ring_depth\":{},",
            "\"wal_checkpoints\":{},\"wal_replayed\":{},",
            "\"wal_move_intents\":{},\"wal_moves_resolved\":{},",
            "\"hot_rotations\":{},\"hot_avg_depth\":{:.3},\"hot_key_depth\":{},",
            "\"lat_samples\":{},\"lat_op_p50_ns\":{},\"lat_op_p99_ns\":{},\"lat_op_max_ns\":{},",
            "\"lat_contains_p99_ns\":{},\"lat_insert_p99_ns\":{},\"lat_delete_p99_ns\":{},",
            "\"lat_move_p99_ns\":{},\"lat_scan_p99_ns\":{},",
            "\"lat_wal_sync_p99_ns\":{},\"lat_wal_fsync_p99_ns\":{},",
            "\"lat_maint_pass_p99_ns\":{},\"lat_maint_pass_work_p99\":{}"
        ),
        json_escape(label),
        json_escape(&result.structure),
        result.threads,
        result.seed,
        result.total_ops,
        result.elapsed.as_micros(),
        result.ops_per_microsecond(),
        result.effective_updates,
        result.attempted_updates,
        result.effective_moves,
        result.successful_lookups,
        result.scans,
        result.scanned_entries,
        result.stm.commits,
        result.stm.combined_commits,
        result.stm.aborts,
        result.abort_ratio(),
        result.stm.abort_read_validation,
        result.stm.abort_lock_conflict,
        result.stm.abort_combiner,
        result.stm.abort_explicit,
        result.stm.abort_scan_validation,
        result.stm.explicit_aborts,
        result.stm.tx_reads,
        result.stm.tx_ureads,
        result.stm.tx_writes,
        result.stm.elastic_cuts,
        result.stm.max_reads_per_op,
        result.stm.max_read_set,
        result.stm.max_write_set,
        result.stm.scan_commits,
        result.stm.scan_aborts,
        result.stm.max_scan_read_set,
        result.wal.records,
        result.wal.bytes,
        result.wal.batches,
        result.wal.writer_batches,
        result.wal.max_ring_depth,
        result.wal.checkpoints,
        result.wal.replayed,
        result.wal.move_intents,
        result.wal.moves_resolved,
        result.hot.hot_rotations,
        result.hot.avg_depth,
        result.hot.hottest_depth,
        result.lat.op.count(),
        result.lat.op.p50(),
        result.lat.op.p99(),
        result.lat.op.max,
        result.lat.per_op[0].p99(),
        result.lat.per_op[1].p99(),
        result.lat.per_op[2].p99(),
        result.lat.per_op[3].p99(),
        result.lat.per_op[4].p99(),
        result.lat.wal_sync.p99(),
        result.lat.wal_fsync.p99(),
        result.lat.maint_pass.p99(),
        result.lat.maint_pass_work.p99(),
    );
    if !extra.is_empty() {
        line.push(',');
        line.push_str(extra);
    }
    line.push('}');
    line
}

/// Print the JSON line for a result when `SF_JSON=1`.
pub fn emit_json(label: &str, result: &WorkloadResult, extra: &str) {
    if json_enabled() {
        println!("{}", result_json(label, result, extra));
    }
}

/// Pretty-print a throughput row (and its JSON line when `SF_JSON=1`).
pub fn print_row(label: &str, threads: usize, result: &WorkloadResult) {
    println!(
        "{label:<22} threads={threads:<3} throughput={:>8.3} ops/us  effective-updates={:<8} aborts/commit={:>6.3} max-reads/op={}",
        result.ops_per_microsecond(),
        result.effective_updates,
        result.stm.aborts as f64 / result.stm.commits.max(1) as f64,
        result.stm.max_reads_per_op,
    );
    emit_json(label, result, "");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        assert!(!thread_counts().is_empty());
        assert!(cell_duration() >= Duration::from_millis(1));
        assert!(initial_size() >= 2);
        assert!(vacation_transactions() >= 1);
        assert!(scan_width() >= 1);
        assert_eq!(structures(&["rbtree", "sftree"]), vec!["rbtree", "sftree"]);
        // base_config plumbs the seed and scan knobs through.
        let config = base_config(2, 0.1);
        assert_eq!(config.seed, workload_seed());
        assert_eq!(config.scan_ratio, scan_pct() / 100.0);
        assert_eq!(config.scan_width, scan_width());
        assert_eq!(config.zipf_theta, zipf_theta());
    }

    #[test]
    fn run_structure_executes_every_default_backend() {
        let config = WorkloadConfig::smoke_test().with_threads(1);
        for name in [
            "rbtree",
            "avl",
            "nrtree",
            "sftree",
            "sftree-opt",
            "sftree-opt-hot",
            "sftree-opt-sharded2",
            "ziptree",
        ] {
            let result = run_structure(name, StmConfig::ctl(), &config);
            assert!(result.total_ops > 0, "{name} produced no ops");
        }
    }

    #[test]
    #[should_panic(expected = "unknown structure")]
    fn run_structure_rejects_unknown_names() {
        let config = WorkloadConfig::smoke_test().with_threads(1);
        let _ = run_structure("definitely-not-a-tree", StmConfig::ctl(), &config);
    }

    #[test]
    fn result_json_is_well_formed_and_complete() {
        let config = WorkloadConfig::smoke_test().with_threads(1);
        let result = run_structure("sftree-opt", StmConfig::ctl(), &config);
        let line = result_json("row-\"1\"", &result, "\"figure\":\"test\"");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"label\":\"row-\\\"1\\\"\""));
        assert!(line.contains("\"structure\":\"OptSFtree\""));
        assert!(
            line.contains("\"total_ops\":300"),
            "one thread x 300 ops: {line}"
        );
        assert!(line.contains("\"figure\":\"test\""));
        assert!(line.contains("\"seed\":42"), "smoke-test seed: {line}");
        assert!(line.contains("\"scans\":"));
        assert!(line.contains("\"scan_commits\":"));
        assert!(line.contains("\"combined_commits\":"));
        assert!(line.contains("\"wal_records\":"));
        assert!(line.contains("\"wal_writer_batches\":"));
        assert!(line.contains("\"wal_max_ring_depth\":"));
        assert!(line.contains("\"wal_checkpoints\":"));
        assert!(line.contains("\"wal_move_intents\":"));
        assert!(line.contains("\"wal_moves_resolved\":"));
        assert!(line.contains("\"hot_rotations\":"));
        assert!(line.contains("\"hot_avg_depth\":"));
        assert!(line.contains("\"hot_key_depth\":"));
        // The abort-cause taxonomy and latency families ride on every line.
        for field in [
            "\"abort_read_validation\":",
            "\"abort_lock_conflict\":",
            "\"abort_combiner\":",
            "\"abort_explicit\":",
            "\"abort_scan_validation\":",
            "\"explicit_aborts\":",
            "\"lat_samples\":",
            "\"lat_op_p50_ns\":",
            "\"lat_op_p99_ns\":",
            "\"lat_op_max_ns\":",
            "\"lat_contains_p99_ns\":",
            "\"lat_insert_p99_ns\":",
            "\"lat_delete_p99_ns\":",
            "\"lat_move_p99_ns\":",
            "\"lat_scan_p99_ns\":",
            "\"lat_wal_sync_p99_ns\":",
            "\"lat_wal_fsync_p99_ns\":",
            "\"lat_maint_pass_p99_ns\":",
            "\"lat_maint_pass_work_p99\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
        // Balanced quotes => even count; cheap smoke check of JSON shape.
        assert_eq!(line.matches('"').count() % 2, 0);
    }

    #[test]
    fn abort_causes_sum_to_aborts_in_the_json_line() {
        let config = WorkloadConfig::smoke_test().with_threads(2);
        let result = run_structure("sftree-opt", StmConfig::ctl(), &config);
        let causes = result.stm.abort_read_validation
            + result.stm.abort_lock_conflict
            + result.stm.abort_explicit
            + result.stm.abort_scan_validation;
        assert_eq!(
            causes, result.stm.aborts,
            "abort-cause taxonomy must partition the abort total"
        );
    }

    #[test]
    fn extra_json_builder_matches_the_hand_rolled_fragments() {
        assert_eq!(ExtraJson::figure("fig5a").build(), "\"figure\":\"fig5a\"");
        assert_eq!(
            ExtraJson::figure("zipf").num("theta", 0.8).build(),
            "\"figure\":\"zipf\",\"theta\":0.8"
        );
        assert_eq!(
            ExtraJson::figure("baseline")
                .text("backend", "a\"b")
                .build(),
            "\"figure\":\"baseline\",\"backend\":\"a\\\"b\""
        );
        assert_eq!(ExtraJson::default().build(), "");
    }
}
