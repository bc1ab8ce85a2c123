//! sf-check scenarios over the durability layer.
//!
//! * A DFS-explored cross-shard `move_entry` racing `checkpoint_sharded`:
//!   at every explored preemption (the `Move` and `Checkpoint` sched
//!   points plus the underlying STM boundaries) the on-disk state must
//!   recover to exactly the in-memory map — a checkpoint that snapshots
//!   mid-move must never persist a state the WAL cannot reconcile.
//! * A history-checked crash drill: a recorded run of inserts, deletes and
//!   cross-shard moves is cut off without a clean shutdown
//!   (`mem::forget`), recovered from disk, and the invocation/response
//!   timeline — including an operation still in flight at the kill point —
//!   must linearize to the recovered state (`check_crash_history`).

#![cfg(feature = "check")]

use sf_check::history::{check_crash_history, Op, Recorder, Ret};
use sf_check::sched::{explore, DfsOptions};
use sf_persist::{
    checkpoint_sharded, recover_sharded, sharded_with, DurableMap, TempDir, WalOptions,
};
use sf_stm::{Stm, StmConfig};
use sf_tree::{OptSpecFriendlyTree, ShardedHandle, ShardedMap, TxMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Map = ShardedMap<DurableMap<OptSpecFriendlyTree>>;

fn wal_opts() -> WalOptions {
    WalOptions {
        group: 8,
        ..WalOptions::default()
    }
}

/// A 2-shard durable map with no background maintenance (the explorer
/// controls every interesting thread; rotations are exercised elsewhere).
fn open_map(base: &Path) -> Map {
    let (map, recovery) = sharded_with(2, base, wal_opts(), |_| {
        (
            Stm::new(StmConfig::ctl()),
            Arc::new(OptSpecFriendlyTree::new()),
            None,
        )
    })
    .expect("open sharded durable map");
    assert!(recovery.entries.is_empty(), "expected a fresh directory");
    map
}

/// Flush every shard's WAL, recover the directory from disk, and require
/// the recovered entries to equal the live in-memory contents.
fn assert_recovers_to_memory(
    map: &Map,
    h: &mut ShardedHandle<DurableMap<OptSpecFriendlyTree>>,
    base: &Path,
) {
    for shard in 0..map.shard_count() {
        map.shard_map(shard).flush().expect("flush shard WAL");
    }
    let recovered = recover_sharded(base, 2).expect("recover").entries;
    let live = map.range_collect(h, 0..=u64::MAX);
    assert_eq!(
        recovered, live,
        "recovered state diverges from the live map"
    );
}

#[test]
fn cross_shard_move_vs_checkpoint_recovers_exactly() {
    let dir = TempDir::new("dfs-move-vs-ckpt");
    let run = AtomicUsize::new(0);
    let opts = DfsOptions {
        max_schedules: 12,
        max_depth: 96,
        step_timeout: Duration::from_secs(2),
        max_spin_grants: 64,
    };
    let report = explore(&opts, |ctx| {
        // Fresh directory per schedule: recovery state must not leak
        // between explored interleavings.
        let base = dir
            .path()
            .join(format!("run-{}", run.fetch_add(1, Ordering::SeqCst)));
        let map = Arc::new(open_map(&base));
        let mut setup = map.register_sharded();
        for k in 1..=8u64 {
            assert!(map.insert(&mut setup, k, 100 + k));
        }
        let from = 3u64;
        let to = (9..32u64)
            .find(|t| map.shard_of(*t) != map.shard_of(from))
            .expect("a key hashing to the other shard");
        let done = Arc::new(AtomicUsize::new(0));
        {
            let map = Arc::clone(&map);
            let mut h = map.register_sharded();
            let done = Arc::clone(&done);
            let base = base.clone();
            ctx.spawn("mover", move || {
                assert!(map.move_entry(&mut h, from, to), "cross-shard move failed");
                assert_eq!(map.get(&mut h, to), Some(100 + from), "moved value lost");
                assert!(!map.contains(&mut h, from), "source key survived the move");
                if done.fetch_add(1, Ordering::SeqCst) == 1 {
                    assert_recovers_to_memory(&map, &mut h, &base);
                }
            });
        }
        {
            let map = Arc::clone(&map);
            let mut h = map.register_sharded();
            let done = Arc::clone(&done);
            let base = base.clone();
            ctx.spawn("checkpoint", move || {
                let reports = checkpoint_sharded(&map, &mut h).expect("checkpoint");
                assert_eq!(reports.len(), 2);
                if done.fetch_add(1, Ordering::SeqCst) == 1 {
                    assert_recovers_to_memory(&map, &mut h, &base);
                }
            });
        }
    });
    assert!(
        report.failure.is_none(),
        "schedule {:?} failed: {}",
        report.failure.as_ref().map(|f| &f.schedule),
        report.failure.as_ref().map_or("", |f| f.message.as_str())
    );
    assert!(report.schedules > 1, "explorer never branched");
}

#[test]
fn crash_drill_history_linearizes_to_recovered_state() {
    let dir = TempDir::new("check-crash-drill");
    let recorder = Arc::new(Recorder::new());
    {
        let map = open_map(dir.path());
        let mut h = map.register_sharded();
        let mut log = recorder.handle();
        for k in 1..=12u64 {
            let p = log.invoke(Op::Insert(k, 1000 + k));
            let ok = map.insert(&mut h, k, 1000 + k);
            log.complete(p, Ret::Bool(ok));
        }
        for k in [2u64, 5, 8] {
            let p = log.invoke(Op::Delete(k));
            let ok = map.delete(&mut h, k);
            log.complete(p, Ret::Bool(ok));
        }
        let from = 3u64;
        let to = (20..52u64)
            .find(|t| map.shard_of(*t) != map.shard_of(from))
            .expect("a key hashing to the other shard");
        let p = log.invoke(Op::Move(from, to));
        let ok = map.move_entry(&mut h, from, to);
        log.complete(p, Ret::Bool(ok));
        // One operation still in flight at the kill point: invoked,
        // executed, never acknowledged. The crash checker may linearize it
        // with any outcome or drop it.
        let _in_flight = log.invoke(Op::Insert(99, 9999));
        map.insert(&mut h, 99, 9999);
        log.finish();
        for shard in 0..map.shard_count() {
            map.shard_map(shard).flush().expect("flush shard WAL");
        }
        // Simulated crash: skip the clean shutdown (which would drain and
        // join the WAL writers) so recovery sees exactly the flushed state.
        std::mem::forget(map);
    }
    let recovered = recover_sharded(dir.path(), 2).expect("recover").entries;
    let events = recorder.take();
    let verdict = check_crash_history(&[], &events, &recovered);
    assert!(
        verdict.ok,
        "crash history is not linearizable against the recovered state: {}",
        verdict.message
    );
    assert!(verdict.ops >= 17, "history lost events: {}", verdict.ops);
}
