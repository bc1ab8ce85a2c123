//! Cross-layer observability invariants under real 4-thread contention:
//! the abort-cause taxonomy must partition the abort total exactly, and the
//! sampled latency histograms must capture the measured phase, on both
//! speculation-friendly tree variants.

use sf_stm::StmConfig;
use sf_workloads::{populate_and_run_backend, Backend, RunLength, WorkloadConfig};

/// A small, update-heavy, scan-mixing shape that reliably produces
/// conflicts at 4 threads while staying fast enough for CI.
fn contended_config() -> WorkloadConfig {
    WorkloadConfig::paper_default()
        .with_size(128)
        .with_threads(4)
        .with_update_ratio(0.5)
        .with_move_ratio(0.1)
        .with_scan_ratio(0.05)
        .with_scan_width(32)
        .with_seed(7)
        .with_run(RunLength::Ops(5_000))
}

fn run_contended(name: &str) -> sf_workloads::WorkloadResult {
    let backend = Backend::build(name, StmConfig::ctl()).unwrap();
    populate_and_run_backend(&backend, &contended_config())
}

#[test]
fn abort_causes_partition_the_abort_total_on_both_sf_trees() {
    for name in ["sftree", "sftree-opt"] {
        let result = run_contended(name);
        let stm = &result.stm;
        let causes = stm.abort_read_validation
            + stm.abort_lock_conflict
            + stm.abort_explicit
            + stm.abort_scan_validation;
        assert_eq!(
            causes,
            stm.aborts,
            "{name}: cause counters must sum exactly to the abort total \
             (read_validation={} lock_conflict={} explicit={} \
             scan_validation={} aborts={})",
            stm.abort_read_validation,
            stm.abort_lock_conflict,
            stm.abort_explicit,
            stm.abort_scan_validation,
            stm.aborts,
        );
        // This shape contends hard enough that the taxonomy is non-trivial:
        // a zero abort total would make the partition check vacuous.
        assert!(stm.aborts > 0, "{name}: expected conflicts at 4 threads");
        // The legacy aggregate views stay consistent with the taxonomy.
        assert_eq!(stm.abort_scan_validation, stm.scan_aborts, "{name}");
        assert!(stm.abort_explicit <= stm.explicit_aborts, "{name}");
    }
}

#[test]
fn latency_histograms_capture_the_measured_phase() {
    for name in ["sftree", "sftree-opt"] {
        let result = run_contended(name);
        let lat = &result.lat;
        // 4 threads x 5000 ops at the default 1-in-32 sampling leaves
        // hundreds of samples; any nonzero rate must record something.
        assert!(
            lat.op.count() > 0,
            "{name}: sampled op histogram is empty over 20k operations"
        );
        assert!(lat.op.p99() > 0, "{name}: p99 of a nonempty histogram");
        assert!(
            lat.op.p50() <= lat.op.p99() && lat.op.p99() <= lat.op.max.max(lat.op.p99()),
            "{name}: percentiles are ordered"
        );
        // The merged view is exactly the sum of the per-kind views.
        let per_kind: u64 = lat.per_op.iter().map(|h| h.count()).sum();
        assert_eq!(lat.op.count(), per_kind, "{name}: merged == sum of kinds");
        // contains dominates this mix, so its histogram must have samples.
        assert!(
            lat.per_op[0].count() > 0,
            "{name}: contains-op histogram is empty"
        );
    }
}
