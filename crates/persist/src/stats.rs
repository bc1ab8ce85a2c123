//! WAL counters: per-log instances aggregated into a process-wide view, in
//! the style of [`sf_stm::StatsSnapshot`].
//!
//! Every [`LogStats`] owner (one per durable map, one per shard of a durable
//! sharded map) double-books its counters: into its own instance — so
//! per-shard WAL telemetry is measurable and concurrently running logs (or
//! tests) cannot cross-talk — and into the process-wide aggregate behind
//! [`snapshot`]/[`reset`]/[`WalStats::delta_since`], which the bench
//! binaries snapshot around the measured phase and emit in their `SF_JSON=1`
//! line.
//!
//! Every field is declared once in the [`define_wal_stats!`] table with an
//! explicit **kind** — `counter` (subtracts under
//! [`WalStats::delta_since`]) or `gauge` (a high-water mark: the delta keeps
//! the later snapshot's value) — and the snapshot struct, atomics, delta,
//! and reset code are generated from that one list, so a new field cannot
//! silently get the wrong delta semantics.
//!
//! Each log also carries two latency [`Histogram`]s: the commit path's
//! enqueue-to-durable **sync wait** and the flush path's **fsync duration**
//! (both double-booked into process-wide histograms for the harness).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sf_obs::{Histogram, HistogramSnapshot};

/// Per-field delta: counters subtract (saturating), gauges keep the later
/// snapshot's value.
macro_rules! wal_delta_one {
    (counter, $later:ident, $earlier:ident, $field:ident) => {
        $later.$field.saturating_sub($earlier.$field)
    };
    (gauge, $later:ident, $earlier:ident, $field:ident) => {
        $later.$field
    };
}

/// Declare every WAL statistic once: `kind field: "doc"`. Generates the
/// atomic counter block, the [`WalStats`] snapshot struct, and the
/// delta/reset code with the kind applied consistently.
macro_rules! define_wal_stats {
    ($( $kind:ident $field:ident : $doc:expr, )*) => {
        /// The atomic counters of one log (or of the process-wide
        /// aggregate).
        #[derive(Debug, Default)]
        pub(crate) struct WalCounters {
            $( $field: AtomicU64, )*
        }

        impl WalCounters {
            const fn new() -> Self {
                WalCounters { $( $field: AtomicU64::new(0), )* }
            }

            fn snapshot(&self) -> WalStats {
                WalStats { $( $field: self.$field.load(Ordering::Relaxed), )* }
            }

            fn reset(&self) {
                $( self.$field.store(0, Ordering::Relaxed); )*
            }
        }

        /// Immutable view of a log's (or the process-wide) WAL counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct WalStats {
            $( #[doc = $doc] pub $field: u64, )*
        }

        impl WalStats {
            /// Counter-wise difference against an earlier snapshot
            /// (saturating, so a concurrent [`reset`] cannot underflow).
            /// Gauge fields keep the later snapshot's high-water mark.
            pub fn delta_since(&self, earlier: &WalStats) -> WalStats {
                WalStats {
                    $( $field: wal_delta_one!($kind, self, earlier, $field), )*
                }
            }
        }
    };
}

define_wal_stats! {
    counter records:
        "Redo records appended to the log.",
    counter bytes:
        "Bytes written to the log segment (frames, excluding checkpoints).",
    counter batches:
        "Group-commit flush batches (one write syscall + optional sync \
         each), regardless of who flushed them.",
    counter writer_batches:
        "The subset of `batches` flushed by a dedicated writer thread: all \
         of them when `group > 0`, zero in buffered mode.",
    gauge max_ring_depth:
        "High-water mark of the submission ring's depth (records queued \
         behind the writer at an enqueue). A gauge, not a counter: \
         `delta_since` keeps the later snapshot's value.",
    counter checkpoints:
        "Completed checkpoints.",
    counter replayed:
        "Records applied by recovery replays.",
    counter move_intents:
        "Cross-shard move intents durably logged (the two-phase protocol's \
         first fsync).",
    counter moves_resolved:
        "Orphaned move intents the cross-log recovery resolution completed \
         or rolled back.",
}

/// One log's statistics: the counter block plus the two latency histograms.
/// Owned by each `Wal`'s shared state; every `note_*` call double-books into
/// the process-wide aggregate.
#[derive(Debug)]
pub struct LogStats {
    counters: WalCounters,
    /// Commit-path enqueue-to-durable wait (nanoseconds, sampled).
    pub sync_wait: Histogram,
    /// Flush-path write+sync duration (nanoseconds, every batch).
    pub fsync: Histogram,
}

impl Default for LogStats {
    fn default() -> Self {
        LogStats::new()
    }
}

impl LogStats {
    /// A fresh, zeroed instance (const: usable in `static` position).
    pub const fn new() -> Self {
        LogStats {
            counters: WalCounters::new(),
            sync_wait: Histogram::new(),
            fsync: Histogram::new(),
        }
    }

    /// Immutable view of this log's counters.
    pub fn snapshot(&self) -> WalStats {
        self.counters.snapshot()
    }

    /// Reset this log's counters and histograms to zero.
    pub fn reset(&self) {
        self.counters.reset();
        self.sync_wait.reset();
        self.fsync.reset();
    }

    pub(crate) fn note_batch(&self, records: u64, bytes: u64, by_writer_thread: bool) {
        for stats in [self, global()] {
            stats.counters.records.fetch_add(records, Ordering::Relaxed);
            stats.counters.bytes.fetch_add(bytes, Ordering::Relaxed);
            stats.counters.batches.fetch_add(1, Ordering::Relaxed);
            if by_writer_thread {
                stats
                    .counters
                    .writer_batches
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn note_ring_depth(&self, depth: u64) {
        for stats in [self, global()] {
            stats
                .counters
                .max_ring_depth
                .fetch_max(depth, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_checkpoint(&self) {
        for stats in [self, global()] {
            stats.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_fsync(&self, elapsed: Duration) {
        for stats in [self, global()] {
            stats.fsync.record_duration(elapsed);
        }
    }

    pub(crate) fn note_sync_wait(&self, elapsed: Duration) {
        for stats in [self, global()] {
            stats.sync_wait.record_duration(elapsed);
        }
    }
}

static GLOBAL: LogStats = LogStats::new();

/// The process-wide aggregate every log double-books into. Recovery-time
/// work (replay, move resolution) books here directly because it runs
/// before any live log instance exists.
pub fn global() -> &'static LogStats {
    &GLOBAL
}

/// Snapshot the process-wide counters.
pub fn snapshot() -> WalStats {
    GLOBAL.snapshot()
}

/// Snapshot the process-wide sync-wait histogram.
pub fn sync_wait_histogram() -> HistogramSnapshot {
    GLOBAL.sync_wait.snapshot()
}

/// Snapshot the process-wide fsync-duration histogram.
pub fn fsync_histogram() -> HistogramSnapshot {
    GLOBAL.fsync.snapshot()
}

/// Reset the process-wide counters and histograms to zero (between
/// benchmark phases). Per-log instances are unaffected.
pub fn reset() {
    GLOBAL.reset()
}

pub(crate) fn note_replayed(records: u64) {
    GLOBAL
        .counters
        .replayed
        .fetch_add(records, Ordering::Relaxed);
}

pub(crate) fn note_move_intent() {
    GLOBAL.counters.move_intents.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_moves_resolved(moves: u64) {
    GLOBAL
        .counters
        .moves_resolved
        .fetch_add(moves, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_saturating_and_counterwise() {
        let earlier = WalStats {
            records: 5,
            bytes: 100,
            batches: 2,
            writer_batches: 1,
            max_ring_depth: 8,
            checkpoints: 1,
            replayed: 7,
            move_intents: 1,
            moves_resolved: 0,
        };
        let later = WalStats {
            records: 9,
            bytes: 150,
            batches: 3,
            writer_batches: 2,
            max_ring_depth: 5,
            checkpoints: 1,
            replayed: 4, // e.g. a reset raced the later snapshot
            move_intents: 3,
            moves_resolved: 1,
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.records, 4);
        assert_eq!(delta.bytes, 50);
        assert_eq!(delta.batches, 1);
        assert_eq!(delta.writer_batches, 1);
        assert_eq!(delta.max_ring_depth, 5, "gauge keeps the later HWM");
        assert_eq!(delta.checkpoints, 0);
        assert_eq!(delta.replayed, 0, "saturates instead of underflowing");
        assert_eq!(delta.move_intents, 2);
        assert_eq!(delta.moves_resolved, 1);
    }

    #[test]
    fn per_log_notes_double_book_into_the_global_aggregate() {
        let log = LogStats::new();
        let global_before = snapshot();
        log.note_batch(3, 64, true);
        log.note_ring_depth(11);
        log.note_checkpoint();
        log.note_fsync(Duration::from_micros(5));
        let local = log.snapshot();
        assert_eq!(local.records, 3);
        assert_eq!(local.bytes, 64);
        assert_eq!(local.batches, 1);
        assert_eq!(local.writer_batches, 1);
        assert_eq!(local.max_ring_depth, 11);
        assert_eq!(local.checkpoints, 1);
        assert_eq!(log.fsync.snapshot().count(), 1);
        let global_delta = snapshot().delta_since(&global_before);
        assert!(global_delta.records >= 3, "aggregate view saw the batch");
        assert!(global_delta.batches >= 1);
        // A second, concurrent log cannot pollute this log's local view.
        let other = LogStats::new();
        other.note_batch(100, 1000, false);
        assert_eq!(log.snapshot().records, 3, "no cross-talk between logs");
    }
}
