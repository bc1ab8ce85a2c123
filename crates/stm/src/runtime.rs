//! The STM runtime: global state shared by all threads ([`Stm`]) and the
//! per-thread handle that runs transactions ([`ThreadCtx`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::GlobalClock;
use crate::config::{StmConfig, TxKind};
use crate::error::TxResult;
use crate::stats::{StatsRegistry, StatsSnapshot, ThreadStats};
use crate::txn::Transaction;

/// Global transactional-memory instance: the version clock, the configuration
/// and the statistics registry.
///
/// Create one `Stm` per set of data structures that must be mutually atomic,
/// register one [`ThreadCtx`] per application thread, and run operations with
/// [`ThreadCtx::atomically`].
#[derive(Debug)]
pub struct Stm {
    clock: GlobalClock,
    config: StmConfig,
    stats: StatsRegistry,
    next_owner: AtomicU64,
}

impl Stm {
    /// Create an STM instance with the given configuration.
    pub fn new(config: StmConfig) -> Arc<Self> {
        Arc::new(Stm {
            clock: GlobalClock::new(),
            config,
            stats: StatsRegistry::default(),
            next_owner: AtomicU64::new(1),
        })
    }

    /// Create an STM instance with the default (TinySTM-CTL-like)
    /// configuration.
    pub fn default_config() -> Arc<Self> {
        Self::new(StmConfig::default())
    }

    /// Register the calling thread and obtain its transaction handle.
    pub fn register(self: &Arc<Self>) -> ThreadCtx {
        // sf-lint: allow(relaxed-atomic, owner ids need atomicity (uniqueness), not ordering)
        let id = self.next_owner.fetch_add(1, Ordering::Relaxed);
        ThreadCtx {
            stm: Arc::clone(self),
            owner_word: (id << 1) | 1,
            stats: self.stats.register(),
        }
    }

    /// The configuration this instance was created with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// The global version clock (exposed for diagnostics and tests).
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// Aggregate statistics across every registered thread.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset the statistics of every registered thread (used between
    /// benchmark phases, e.g. after the initial tree population).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// Per-thread transaction handle.
///
/// The handle is `Send` so it can be moved into a worker thread, but it is not
/// `Sync`: each thread uses its own context, exactly like the thread-local
/// descriptor of C STMs.
#[derive(Debug)]
pub struct ThreadCtx {
    stm: Arc<Stm>,
    owner_word: u64,
    stats: Arc<ThreadStats>,
}

impl ThreadCtx {
    /// The shared STM instance this context belongs to.
    pub fn stm(&self) -> &Arc<Stm> {
        &self.stm
    }

    /// This thread's statistics counters.
    pub fn thread_stats(&self) -> &ThreadStats {
        &self.stats
    }

    /// Run `body` as an atomic transaction of the configured default kind,
    /// retrying until it commits, and return its result.
    pub fn atomically<'env, R, F>(&'env mut self, body: F) -> R
    where
        F: FnMut(&mut Transaction<'env>) -> TxResult<R>,
    {
        let kind = self.stm.config.default_kind;
        self.atomically_kind(kind, body)
    }

    /// Run `body` as an atomic transaction of the given kind (normal or
    /// elastic), retrying until it commits, and return its result.
    pub fn atomically_kind<'env, R, F>(&'env mut self, kind: TxKind, body: F) -> R
    where
        F: FnMut(&mut Transaction<'env>) -> TxResult<R>,
    {
        ThreadCtx::atomically_versioned_kind(self, kind, body).0
    }

    /// Run `body` as an atomic transaction of the configured default kind and
    /// return its result together with the **commit version** at which the
    /// winning attempt serialized (the write version for updating
    /// transactions, the final read version for read-only ones).
    ///
    /// The same version is passed to every
    /// [`Transaction::on_commit_versioned`] hook of the winning attempt, so
    /// a caller that logs committed operations can correlate its in-hook
    /// records with the value returned here.
    pub fn atomically_versioned<'env, R, F>(&'env mut self, body: F) -> (R, u64)
    where
        F: FnMut(&mut Transaction<'env>) -> TxResult<R>,
    {
        let kind = self.stm.config.default_kind;
        ThreadCtx::atomically_versioned_kind(self, kind, body)
    }

    /// [`ThreadCtx::atomically_versioned`] with an explicit transaction kind.
    pub fn atomically_versioned_kind<'env, R, F>(
        &'env mut self,
        kind: TxKind,
        mut body: F,
    ) -> (R, u64)
    where
        F: FnMut(&mut Transaction<'env>) -> TxResult<R>,
    {
        let config = &self.stm.config;
        let clock = &self.stm.clock;
        let stats = &self.stats;
        let flight = sf_obs::FlightRecorder::global();
        let mut attempt: u32 = 0;
        let mut reads_this_op: u64 = 0;
        loop {
            crate::chk::sched_point(crate::chk::SchedEvent::TxnBegin);
            let mut tx = Transaction::begin(
                clock,
                kind,
                config.acquisition,
                self.owner_word,
                config.elastic_window,
            );
            let outcome = body(&mut tx);
            let committed = match outcome {
                Ok(value) => match tx.commit() {
                    Ok(info) => {
                        stats.record_commit(info.read_set, info.write_set);
                        if kind == TxKind::ReadOnly {
                            stats.record_scan_commit(info.read_set);
                        }
                        Some((value, info.commit_version))
                    }
                    Err(abort) => {
                        stats.record_abort(kind, abort.reason);
                        flight.record(
                            sf_obs::EventKind::TxnRetry,
                            abort.reason.code(),
                            u64::from(attempt) + 1,
                        );
                        None
                    }
                },
                Err(abort) => {
                    tx.rollback();
                    stats.record_abort(kind, abort.reason);
                    flight.record(
                        sf_obs::EventKind::TxnRetry,
                        abort.reason.code(),
                        u64::from(attempt) + 1,
                    );
                    None
                }
            };
            reads_this_op += tx.reads;
            // sf-lint: allow(relaxed-atomic, per-transaction telemetry counters; aggregated for reports only)
            stats.tx_reads.fetch_add(tx.reads, Ordering::Relaxed);
            // sf-lint: allow(relaxed-atomic, per-transaction telemetry counter; aggregated for reports only)
            stats.tx_ureads.fetch_add(tx.ureads, Ordering::Relaxed);
            // sf-lint: allow(relaxed-atomic, per-transaction telemetry counter; aggregated for reports only)
            stats.tx_writes.fetch_add(tx.writes, Ordering::Relaxed);
            // sf-lint: allow(relaxed-atomic, per-transaction telemetry counter; aggregated for reports only)
            stats.elastic_cuts.fetch_add(tx.cuts, Ordering::Relaxed);
            let hooks = if committed.is_some() {
                tx.take_commit_hooks()
            } else {
                tx.take_abort_hooks()
            };
            drop(tx);
            let hook_version = committed.as_ref().map_or(0, |&(_, version)| version);
            for hook in hooks {
                hook(hook_version);
            }
            if let Some((value, version)) = committed {
                stats.record_max_reads_per_op(reads_this_op);
                return (value, version);
            }
            attempt = attempt.saturating_add(1);
            self.backoff(attempt);
        }
    }

    /// Contention backoff: bounded exponential spinning, falling back to
    /// yielding the CPU after repeated aborts (essential when threads
    /// outnumber cores).
    fn backoff(&self, attempt: u32) {
        let config = &self.stm.config;
        if attempt >= config.yield_after_aborts {
            std::thread::yield_now();
            return;
        }
        let spins = (1u32 << attempt.min(16)).min(config.max_backoff_spins);
        for _ in 0..spins {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::TCell;
    use crate::config::StmConfig;

    #[test]
    fn atomically_commits_and_returns_value() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cell = TCell::new(0u64);
        let out = ctx.atomically(|tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)?;
            Ok(v)
        });
        assert_eq!(out, 0);
        assert_eq!(cell.unsync_load(), 1);
        let s = stm.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 0);
    }

    #[test]
    fn counters_accumulate_per_thread() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cell = TCell::new(0u64);
        for _ in 0..10 {
            ctx.atomically(|tx| {
                let v = tx.read(&cell)?;
                tx.write(&cell, v + 1)
            });
        }
        assert_eq!(cell.unsync_load(), 10);
        let s = stm.stats();
        assert_eq!(s.commits, 10);
        assert_eq!(s.tx_reads, 10);
        assert_eq!(s.tx_writes, 10);
        assert!(s.max_reads_per_op >= 1);
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        let stm = Stm::default_config();
        let cell = Arc::new(TCell::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let mut ctx = stm.register();
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        ctx.atomically(|tx| {
                            let v = tx.read(&cell)?;
                            tx.write(&cell, v + 1)
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cell.unsync_load(), 2000, "no increment may be lost");
        let s = stm.stats();
        assert_eq!(s.commits, 2000);
        assert_eq!(s.abort_causes_total(), s.aborts, "causes partition aborts");
    }

    #[test]
    fn combined_commits_preserve_the_counter_invariant_under_contention() {
        // Contended 1-entry write sets under commit-time locking: every commit
        // takes the ordinary lock-and-validate path, none goes through the
        // retired combiner, and no increment is lost.
        let stm = Stm::new(StmConfig::ctl());
        let cell = Arc::new(TCell::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let mut ctx = stm.register();
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        ctx.atomically(|tx| {
                            let v = tx.read(&cell)?;
                            tx.write(&cell, v + 1)
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cell.unsync_load(), 2000, "no increment may be lost");
        let s = stm.stats();
        assert_eq!(s.commits, 2000);
        assert_eq!(s.combined_commits, 0, "retired counter stays 0");
        assert_eq!(s.abort_combiner, 0, "retired cause never counts");
    }

    #[test]
    fn concurrent_transfers_preserve_invariant_under_etl() {
        // Bank-account style invariant check across both acquisition modes.
        for config in [StmConfig::ctl(), StmConfig::etl()] {
            let stm = Stm::new(config);
            let a = Arc::new(TCell::new(1000i64));
            let b = Arc::new(TCell::new(1000i64));
            let threads: Vec<_> = (0..4)
                .map(|i| {
                    let mut ctx = stm.register();
                    let a = Arc::clone(&a);
                    let b = Arc::clone(&b);
                    std::thread::spawn(move || {
                        for j in 0..300 {
                            let amount = ((i * 7 + j) % 11) as i64;
                            ctx.atomically(|tx| {
                                let va = tx.read(&a)?;
                                let vb = tx.read(&b)?;
                                tx.write(&a, va - amount)?;
                                tx.write(&b, vb + amount)?;
                                Ok(())
                            });
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(a.unsync_load() + b.unsync_load(), 2000);
        }
    }

    #[test]
    fn explicit_retry_is_counted() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cell = TCell::new(0u64);
        let mut first = true;
        ctx.atomically(|tx| {
            let v = tx.read(&cell)?;
            if first {
                first = false;
                return tx.retry();
            }
            tx.write(&cell, v + 1)
        });
        let s = stm.stats();
        assert_eq!(s.explicit_aborts, 1);
        assert_eq!(s.commits, 1);
    }

    #[test]
    fn commit_and_abort_hooks_fire_appropriately() {
        use std::cell::Cell;
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cell = TCell::new(0u64);
        let committed_runs = Cell::new(0u32);
        let aborted_runs = Cell::new(0u32);
        let mut first = true;
        ctx.atomically(|tx| {
            tx.on_commit(|| committed_runs.set(committed_runs.get() + 1));
            tx.on_abort(|| aborted_runs.set(aborted_runs.get() + 1));
            let v = tx.read(&cell)?;
            if first {
                first = false;
                return tx.retry();
            }
            tx.write(&cell, v + 1)
        });
        // One aborted attempt (explicit retry) then one committed attempt.
        assert_eq!(aborted_runs.get(), 1);
        assert_eq!(committed_runs.get(), 1);
    }

    #[test]
    fn versioned_commit_reports_the_clock_stamp_to_caller_and_hooks() {
        use std::cell::Cell;
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cell = TCell::new(0u64);
        let hook_version = Cell::new(0u64);
        let ((), v1) = ctx.atomically_versioned(|tx| {
            tx.on_commit_versioned(|wv| hook_version.set(wv));
            tx.write(&cell, 1)
        });
        assert_eq!(v1, 1, "first updating commit draws version 1");
        assert_eq!(hook_version.get(), v1, "hook payload matches the return");
        let ((), v2) = ctx.atomically_versioned(|tx| tx.write(&cell, 2));
        assert!(v2 > v1, "versions are strictly increasing");
        assert_eq!(cell.version(), Some(v2));
    }

    #[test]
    fn versioned_read_only_commit_serializes_at_its_read_version() {
        use crate::config::TxKind;
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cell = TCell::new(7u64);
        ctx.atomically(|tx| tx.write(&cell, 8));
        let (value, version) = ctx.atomically_versioned_kind(TxKind::ReadOnly, |tx| tx.read(&cell));
        assert_eq!(value, 8);
        assert_eq!(
            version,
            stm.clock().now(),
            "a read-only commit serializes at its (final) read version"
        );
    }

    #[test]
    fn versioned_hooks_only_fire_for_the_committing_attempt() {
        use std::cell::Cell;
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cell = TCell::new(0u64);
        let fired = Cell::new(0u32);
        let mut first = true;
        let ((), version) = ctx.atomically_versioned(|tx| {
            tx.on_commit_versioned(|wv| {
                fired.set(fired.get() + 1);
                assert!(wv > 0, "an updating commit always reports version >= 1");
            });
            let v = tx.read(&cell)?;
            if first {
                first = false;
                return tx.retry();
            }
            tx.write(&cell, v + 1)
        });
        assert_eq!(fired.get(), 1, "the aborted attempt's hook must not run");
        assert_eq!(version, 1);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cell = TCell::new(0u64);
        ctx.atomically(|tx| tx.write(&cell, 1));
        assert_eq!(stm.stats().commits, 1);
        stm.reset_stats();
        assert_eq!(stm.stats().commits, 0);
    }

    #[test]
    fn read_only_kind_feeds_the_scan_counters() {
        use crate::config::TxKind;
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cells: Vec<TCell<u64>> = (0..8).map(TCell::new).collect();
        let mut first = true;
        let sum = ctx.atomically_kind(TxKind::ReadOnly, |tx| {
            let mut acc = 0u64;
            for c in &cells {
                acc += tx.read(c)?;
            }
            if first {
                first = false;
                return tx.retry();
            }
            Ok(acc)
        });
        assert_eq!(sum, (0..8).sum::<u64>());
        let s = stm.stats();
        assert_eq!(s.scan_commits, 1);
        assert_eq!(
            s.scan_aborts, 1,
            "the explicit retry counts as a scan abort"
        );
        assert_eq!(s.max_scan_read_set, 8);
        // Scan attempts also show up in the general counters.
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
        // Normal transactions never touch the scan counters.
        ctx.atomically(|tx| tx.read(&cells[0]));
        assert_eq!(stm.stats().scan_commits, 1);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn read_only_kind_forbids_writes() {
        use crate::config::TxKind;
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let cell = TCell::new(0u64);
        ctx.atomically_kind(TxKind::ReadOnly, |tx| tx.write(&cell, 1));
    }

    #[test]
    fn elastic_kind_records_cuts_under_contention() {
        let stm = Stm::new(StmConfig::elastic());
        let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..64).map(TCell::new).collect());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let mut ctx = stm.register();
                let cells = Arc::clone(&cells);
                std::thread::spawn(move || {
                    for i in 0..400usize {
                        let target = (t * 31 + i) % 64;
                        ctx.atomically(|tx| {
                            // Traverse a prefix of the cells, then update one.
                            let mut acc = 0u64;
                            for c in cells.iter().take(target) {
                                acc = acc.wrapping_add(tx.read(c)?);
                            }
                            tx.write(&cells[target], acc % 97)
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = stm.stats();
        assert_eq!(s.commits, 1600);
    }
}
