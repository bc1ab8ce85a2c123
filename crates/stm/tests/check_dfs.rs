//! Bounded-exhaustive interleaving scenarios over the *real* STM commit
//! paths, driven by sf-check's DFS explorer. The controlled threads block
//! at every instrumented `sched_point` (txn begin, version-lock acquire,
//! validate, publish, spin retry) and the explorer enumerates grant orders,
//! so these tests cover commit/commit and commit/read interleavings that a
//! free-running test would only hit by luck.
//!
//! Each scenario builds its STM fresh inside the closure (the explorer
//! re-runs it once per schedule) and asserts its invariant from whichever
//! controlled thread finishes last.

#![cfg(feature = "check")]

use sf_check::sched::{explore, DfsOptions};
use sf_stm::{Stm, StmConfig, TCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn opts() -> DfsOptions {
    DfsOptions {
        max_schedules: 200,
        max_depth: 96,
        step_timeout: Duration::from_secs(5),
        max_spin_grants: 64,
    }
}

/// Two read-modify-write increments through the given configuration must
/// never lose an update, under every explored interleaving of their
/// acquire/validate/publish steps.
fn assert_no_lost_update(config: StmConfig, label: &'static str) {
    let report = explore(&opts(), move |ctx| {
        let stm = Stm::new(config.clone());
        let cell = Arc::new(TCell::new(0u64));
        let done = Arc::new(AtomicUsize::new(0));
        for name in ["inc-a", "inc-b"] {
            let mut h = stm.register();
            let cell = Arc::clone(&cell);
            let done = Arc::clone(&done);
            ctx.spawn(name, move || {
                h.atomically(|tx| {
                    let v = tx.read(&cell)?;
                    tx.write(&cell, v + 1)
                });
                if done.fetch_add(1, Ordering::SeqCst) == 1 {
                    let v = h.atomically(|tx| tx.read(&cell));
                    assert_eq!(v, 2, "lost update under {label}: counter is {v}");
                }
            });
        }
    });
    assert!(
        report.failure.is_none(),
        "{label}: schedule {:?} failed: {}",
        report.failure.as_ref().map(|f| &f.schedule),
        report.failure.as_ref().map_or("", |f| f.message.as_str())
    );
    assert!(report.schedules > 1, "{label}: explorer never branched");
}

/// Commit-time locking (the paper's default configuration): both
/// committers fight over the version-lock CAS directly, and the loser of a
/// lock or validation race aborts and retries.
#[test]
fn ctl_commits_never_lose_updates() {
    assert_no_lost_update(StmConfig::ctl(), "ctl");
}

/// Encounter-time locking: the first transactional write takes the lock,
/// so the explorer interleaves eager lock acquisition with the loser's
/// abort-and-retry spin.
#[test]
fn etl_commits_never_lose_updates() {
    assert_no_lost_update(StmConfig::etl(), "etl");
}

/// A read-only transaction racing a writer must see either the old or the
/// new pair of values, never a torn mix — TL2 validation has to abort the
/// reader caught straddling the publish.
#[test]
fn reader_never_observes_torn_writes() {
    let report = explore(&opts(), |ctx| {
        let stm = Stm::new(StmConfig::ctl());
        let a = Arc::new(TCell::new(0u64));
        let b = Arc::new(TCell::new(0u64));
        {
            let mut h = stm.register();
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            ctx.spawn("writer", move || {
                h.atomically(|tx| {
                    tx.write(&a, 1)?;
                    tx.write(&b, 1)
                });
            });
        }
        {
            let mut h = stm.register();
            ctx.spawn("reader", move || {
                let (va, vb) = h.atomically(|tx| {
                    let va = tx.read(&a)?;
                    let vb = tx.read(&b)?;
                    Ok((va, vb))
                });
                assert_eq!(va, vb, "torn read: a={va} b={vb}");
            });
        }
    });
    assert!(
        report.failure.is_none(),
        "schedule {:?} failed: {}",
        report.failure.as_ref().map(|f| &f.schedule),
        report.failure.as_ref().map_or("", |f| f.message.as_str())
    );
}
