//! Transaction statistics.
//!
//! The paper's Table 1 reports the *maximum number of transactional reads per
//! operation*, counting the reads performed by every aborted attempt in
//! addition to the read set of the committing attempt. Figures 3-6 report
//! throughput, and §5.5 reports rotation counts. The counters here provide
//! all the raw material: per-thread atomic counters aggregated into a
//! [`StatsSnapshot`] by the harness.
//!
//! Every field is declared once in the [`define_stats!`] table with an
//! explicit **kind** — `counter` (adds under [`StatsSnapshot::merge`]) or
//! `max` (a high-water mark that takes the maximum) — and the struct,
//! aggregation, merge, and reset code are all generated from that single
//! list, so a new field cannot silently get the wrong merge semantics.
//!
//! Aborts are classified into a *cause taxonomy* (the `abort_*` counters)
//! with the invariant that the causes **partition** `aborts`: their sum is
//! exactly the total. The partition is by transaction kind first — every
//! read-only scan abort is `abort_scan_validation` — then by
//! [`AbortReason`]: version/validation failures are `abort_read_validation`,
//! lock-acquisition failures are `abort_lock_conflict`, and user-requested
//! retries are `abort_explicit`. `abort_combiner` (like `combined_commits`)
//! is a retired field that always reads 0.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::config::TxKind;
use crate::error::AbortReason;

/// Per-field merge: counters add, high-water marks take the max.
macro_rules! stat_merge_one {
    (counter, $self:ident, $other:ident, $field:ident) => {
        $self.$field += $other.$field;
    };
    (max, $self:ident, $other:ident, $field:ident) => {
        $self.$field = $self.$field.max($other.$field);
    };
}

/// Per-field aggregation of one thread's atomics into a snapshot.
macro_rules! stat_accumulate_one {
    (counter, $snap:ident, $thread:ident, $field:ident) => {
        $snap.$field += $thread.$field.load(Ordering::Relaxed);
    };
    (max, $snap:ident, $thread:ident, $field:ident) => {
        $snap.$field = $snap.$field.max($thread.$field.load(Ordering::Relaxed));
    };
}

/// Declare every statistic once: `kind field: "doc"`. Generates
/// [`ThreadStats`], [`StatsSnapshot`], the aggregation loop, `merge`, and
/// `reset` so the kind (counter vs max) is applied consistently everywhere.
macro_rules! define_stats {
    ($( $kind:ident $field:ident : $doc:expr, )*) => {
        /// Per-thread transaction counters. All counters are cumulative
        /// since the last reset.
        #[derive(Debug, Default)]
        pub struct ThreadStats {
            $( #[doc = $doc] pub $field: AtomicU64, )*
        }

        impl ThreadStats {
            fn reset(&self) {
                $( self.$field.store(0, Ordering::Relaxed); )*
            }
        }

        /// Aggregated, immutable view of the counters of every registered
        /// thread.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( #[doc = $doc] pub $field: u64, )*
        }

        impl StatsSnapshot {
            /// Fold another snapshot into this one: counters add up,
            /// high-water marks take the maximum. Used to aggregate
            /// statistics across several STM instances (e.g. the per-shard
            /// instances of a sharded map).
            pub fn merge(&mut self, other: &StatsSnapshot) {
                $( stat_merge_one!($kind, self, other, $field); )*
            }
        }

        impl StatsRegistry {
            pub(crate) fn snapshot(&self) -> StatsSnapshot {
                let threads = self.threads.lock();
                let mut s = StatsSnapshot::default();
                for t in threads.iter() {
                    $( stat_accumulate_one!($kind, s, t, $field); )*
                }
                s
            }
        }
    };
}

define_stats! {
    counter commits:
        "Committed transactions.",
    counter combined_commits:
        "Retired: always 0. Counted commits of the removed flat-combining \
         commit path; kept because perfbench and the `BENCH_baseline.json` \
         schema read it.",
    counter aborts:
        "Aborted attempts (all causes; the `abort_*` cause counters \
         partition this total).",
    counter explicit_aborts:
        "Aborts requested explicitly by user code (legacy counter: counts \
         explicit aborts of every transaction kind).",
    counter abort_read_validation:
        "Aborts of updating transactions whose read set failed validation \
         (stale read version or commit-time validation failure).",
    counter abort_lock_conflict:
        "Aborts of updating transactions that lost a version-lock race \
         (read/write/commit-time lock acquisition failure).",
    counter abort_combiner:
        "Retired: always 0. Counted conflicts of the removed flat-combining \
         commit path; kept because perfbench and the `BENCH_baseline.json` \
         schema read it.",
    counter abort_explicit:
        "Aborts of updating transactions requested explicitly by user code.",
    counter abort_scan_validation:
        "Aborts of read-only scan transactions (any cause: the scan could \
         not serialize against concurrent updates).",
    counter tx_reads:
        "Transactional reads (read-set tracked).",
    counter tx_ureads:
        "Unit reads (not tracked in the read set).",
    counter tx_writes:
        "Transactional writes.",
    counter elastic_cuts:
        "Elastic cuts performed (E-STM style read-set truncation).",
    max max_reads_per_op:
        "Maximum transactional reads accumulated by one operation across \
         all of its attempts (the quantity of Table 1).",
    max max_read_set:
        "Maximum read-set size observed at commit.",
    max max_write_set:
        "Maximum write-set size observed at commit.",
    counter scan_commits:
        "Committed read-only scan transactions ([`crate::TxKind::ReadOnly`]).",
    counter scan_aborts:
        "Aborted read-only scan attempts.",
    max max_scan_read_set:
        "Maximum read-set size observed at the commit of a scan transaction \
         (how much of the structure one ordered scan had to protect).",
}

impl ThreadStats {
    pub(crate) fn record_scan_commit(&self, read_set: usize) {
        self.scan_commits.fetch_add(1, Ordering::Relaxed);
        self.max_scan_read_set
            .fetch_max(read_set as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_max_reads_per_op(&self, reads: u64) {
        self.max_reads_per_op.fetch_max(reads, Ordering::Relaxed);
    }

    pub(crate) fn record_commit(&self, read_set: usize, write_set: usize) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.max_read_set
            .fetch_max(read_set as u64, Ordering::Relaxed);
        self.max_write_set
            .fetch_max(write_set as u64, Ordering::Relaxed);
    }

    /// Account one aborted attempt: the total, the legacy scan/explicit
    /// counters, and exactly one cause counter (so the causes always sum to
    /// `aborts`).
    pub(crate) fn record_abort(&self, kind: TxKind, reason: AbortReason) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
        if kind == TxKind::ReadOnly {
            self.scan_aborts.fetch_add(1, Ordering::Relaxed);
        }
        if reason == AbortReason::Explicit {
            self.explicit_aborts.fetch_add(1, Ordering::Relaxed);
        }
        let cause = if kind == TxKind::ReadOnly {
            &self.abort_scan_validation
        } else {
            match reason {
                AbortReason::ReadVersion | AbortReason::CommitValidation => {
                    &self.abort_read_validation
                }
                AbortReason::ReadLocked | AbortReason::WriteLocked | AbortReason::CommitLocked => {
                    &self.abort_lock_conflict
                }
                AbortReason::Explicit => &self.abort_explicit,
            }
        };
        cause.fetch_add(1, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Ratio of aborted attempts to total attempts, in `[0, 1]`.
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Sum of the per-cause abort counters. Invariant: equals
    /// [`StatsSnapshot::aborts`] — the taxonomy partitions the total.
    pub fn abort_causes_total(&self) -> u64 {
        self.abort_read_validation
            + self.abort_lock_conflict
            + self.abort_explicit
            + self.abort_scan_validation
    }
}

/// Registry of the per-thread counters created by [`crate::Stm::register`].
#[derive(Debug, Default)]
pub(crate) struct StatsRegistry {
    threads: Mutex<Vec<Arc<ThreadStats>>>,
}

impl StatsRegistry {
    pub(crate) fn register(&self) -> Arc<ThreadStats> {
        let stats = Arc::new(ThreadStats::default());
        self.threads.lock().push(Arc::clone(&stats));
        stats
    }

    pub(crate) fn reset(&self) {
        for t in self.threads.lock().iter() {
            t.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums_and_maxes() {
        let reg = StatsRegistry::default();
        let a = reg.register();
        let b = reg.register();
        a.commits.store(3, Ordering::Relaxed);
        b.commits.store(4, Ordering::Relaxed);
        a.aborts.store(1, Ordering::Relaxed);
        a.max_reads_per_op.store(10, Ordering::Relaxed);
        b.max_reads_per_op.store(25, Ordering::Relaxed);
        let s = reg.snapshot();
        assert_eq!(s.commits, 7);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.max_reads_per_op, 25);
        assert!((s.abort_ratio() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_counters() {
        let reg = StatsRegistry::default();
        let a = reg.register();
        a.commits.store(3, Ordering::Relaxed);
        a.abort_lock_conflict.store(2, Ordering::Relaxed);
        reg.reset();
        assert_eq!(reg.snapshot().commits, 0);
        assert_eq!(reg.snapshot().abort_lock_conflict, 0);
    }

    #[test]
    fn empty_snapshot_has_zero_abort_ratio() {
        assert_eq!(StatsSnapshot::default().abort_ratio(), 0.0);
    }

    #[test]
    fn record_commit_tracks_max_sets() {
        let t = ThreadStats::default();
        t.record_commit(5, 2);
        t.record_commit(3, 7);
        assert_eq!(t.max_read_set.load(Ordering::Relaxed), 5);
        assert_eq!(t.max_write_set.load(Ordering::Relaxed), 7);
        assert_eq!(t.commits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn record_abort_partitions_the_total_across_causes() {
        let t = ThreadStats::default();
        // One abort of every (kind, reason) shape the runtime can produce.
        t.record_abort(TxKind::Normal, AbortReason::ReadVersion);
        t.record_abort(TxKind::Normal, AbortReason::CommitValidation);
        t.record_abort(TxKind::Elastic, AbortReason::ReadLocked);
        t.record_abort(TxKind::Normal, AbortReason::WriteLocked);
        t.record_abort(TxKind::Normal, AbortReason::CommitLocked);
        t.record_abort(TxKind::Normal, AbortReason::Explicit);
        t.record_abort(TxKind::ReadOnly, AbortReason::ReadVersion);
        t.record_abort(TxKind::ReadOnly, AbortReason::Explicit);
        let reg = StatsRegistry::default();
        let arc = reg.register();
        // Copy the hand-built counters into a registered thread so we can
        // snapshot them.
        for (dst, src) in [
            (&arc.aborts, &t.aborts),
            (&arc.explicit_aborts, &t.explicit_aborts),
            (&arc.scan_aborts, &t.scan_aborts),
            (&arc.abort_read_validation, &t.abort_read_validation),
            (&arc.abort_lock_conflict, &t.abort_lock_conflict),
            (&arc.abort_combiner, &t.abort_combiner),
            (&arc.abort_explicit, &t.abort_explicit),
            (&arc.abort_scan_validation, &t.abort_scan_validation),
        ] {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        let s = reg.snapshot();
        assert_eq!(s.aborts, 8);
        assert_eq!(s.abort_causes_total(), s.aborts, "causes partition aborts");
        assert_eq!(s.abort_read_validation, 2);
        assert_eq!(s.abort_lock_conflict, 3);
        assert_eq!(s.abort_combiner, 0, "retired cause never counts");
        assert_eq!(s.abort_explicit, 1);
        assert_eq!(s.abort_scan_validation, 2, "read-only aborts by kind");
        assert_eq!(s.explicit_aborts, 2, "legacy counter keeps both kinds");
        assert_eq!(s.scan_aborts, 2);
    }

    #[test]
    fn merge_applies_counter_and_max_semantics_per_field() {
        let mut a = StatsSnapshot {
            commits: 3,
            aborts: 1,
            abort_lock_conflict: 1,
            max_reads_per_op: 10,
            max_scan_read_set: 4,
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            commits: 4,
            aborts: 2,
            abort_lock_conflict: 2,
            max_reads_per_op: 7,
            max_scan_read_set: 9,
            ..StatsSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.commits, 7);
        assert_eq!(a.aborts, 3);
        assert_eq!(a.abort_lock_conflict, 3);
        assert_eq!(a.max_reads_per_op, 10, "max fields take the maximum");
        assert_eq!(a.max_scan_read_set, 9);
    }
}
