//! Hash-partitioned composition of transactional maps.
//!
//! [`ShardedMap`] splits the key space across `N` inner maps ("shards") by
//! hashing each key. Every shard is fully independent: it has its **own STM
//! instance** (so shards never contend on a shared version clock) and — for
//! the speculation-friendly trees — its **own background
//! [`MaintenanceWorker`](crate::maintenance::MaintenanceWorker) thread**.
//! Single-key operations route to one shard and inherit that shard's
//! transactional guarantees unchanged; the scalability win is that `N` shards
//! multiply the commit bandwidth of the global clock and spread rotation work
//! over `N` rotator threads.
//!
//! ## Cross-shard `move`
//!
//! The composed `move` of §5.4 spans two STM domains when its keys hash to
//! different shards, so it cannot run as one transaction. [`ShardedMap`]
//! makes it atomic with a two-phase protocol:
//!
//! 1. take the *move locks* of both shards in global (index) order — moves
//!    touching a common shard serialize (same-shard moves take their single
//!    shard lock too), and the ordering rules out deadlock;
//! 2. read the source value `v`, insert it at the destination (failing if
//!    the destination key is occupied), then **compare-and-delete** the
//!    source ([`TxMap::delete_if`]): the source entry is removed only if it
//!    still holds `v`, so a concurrent delete-then-reinsert of a different
//!    value is never destroyed blindly;
//! 3. if the compare-and-delete fails — a concurrent update consumed or
//!    replaced the source after step 2's read — retract the destination
//!    copy with another compare-and-delete and report failure, which
//!    linearizes the competing update before this move.
//!
//! **Guarantees.** A completed move leaves exactly one copy; a failed move
//! leaves the map as if it never ran; no *committed* concurrent insert or
//! delete is ever silently destroyed (value-checked deletes make the
//! protocol's writes touch only the value it copied). The relaxation
//! relative to a single-STM map is visibility: between steps 2 and 3 a
//! concurrent reader may observe the value at *both* keys, and a concurrent
//! `delete(to)` may consume the in-flight copy (the move then still reports
//! by the compare-and-delete outcome, so the global key/value accounting
//! stays linear — see the conservation tests in `tests/sharded_map.rs`).
//! In-transaction composition ([`TxMapInTx`]) is supported per shard; a
//! cross-shard `tx_move` inside a caller-supplied transaction is rejected
//! because no single transaction can span two STM instances — use the
//! top-level [`TxMap::move_entry`] instead.
//!
//! **Durability.** Steps 2 and 3 are driven through the [`TxMap`] move
//! hooks ([`TxMap::move_source_scope`], [`TxMap::move_peer_scope`],
//! [`TxMap::move_insert`], [`TxMap::move_delete_if`]) with a fresh
//! process-unique move id. On plain in-memory shards the hooks are
//! passthroughs; when the shards are durable (`sf-persist`'s
//! `ShardedMap<DurableMap<_>>` composition), they implement a two-phase
//! intent protocol — a *move intent* is fsynced to the source shard's log
//! before either half commits, both halves are logged stamped with the
//! move id, and recovery joins the two shards' logs to deterministically
//! complete or roll back a move interrupted by a crash. A crash can
//! therefore never surface the in-flight transient (value at both keys or
//! at neither) after recovery, even though concurrent *readers* of the
//! live map may still observe it.
//!
//! ## Range scans: the consistency contract
//!
//! An ordered scan ([`TxMap::range_collect`] / [`TxMap::len`]) cannot run as
//! one transaction either — the range spans every shard (keys are *hashed*
//! across shards, so each shard holds a scattering of the whole key space).
//! Two modes are offered:
//!
//! * **`range_collect` — per-shard-atomic.** Each shard contributes the
//!   in-range entries of one atomic read-only scan transaction on its own
//!   STM, executed shard by shard in index order; the sorted per-shard
//!   results are then k-way merged into one ascending sequence. Every
//!   *entry* observed is a committed value, and all entries from the same
//!   shard belong to one consistent snapshot — but the snapshots of
//!   different shards are taken at different times. Concretely: an update
//!   that lands on a not-yet-scanned shard while an earlier shard is being
//!   scanned may or may not appear, and a cross-shard [`TxMap::move_entry`]
//!   racing the scan may be observed at both keys or at neither (the same
//!   transient visibility the move protocol itself allows).
//! * **[`ShardedMap::range_quiescent`] — exact.** Parks every shard's
//!   rotator thread (via [`ShardedMap::pause_maintenance`]) before scanning,
//!   so no restructuring runs underneath; with no concurrent updaters the
//!   result is exactly the map's contents (the oracle mode used by the
//!   equivalence tests). Under concurrent updates it degrades to the
//!   per-shard-atomic contract above.

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sf_stm::{StatsSnapshot, Stm, StmConfig, ThreadCtx, Transaction, TxResult};

use crate::maintenance::{MaintenanceConfig, MaintenanceHandle, MaintenancePause};
use crate::map::{intern_label, TxMap, TxMapInTx};
use crate::node::{Key, Value};
use crate::optimized::OptSpecFriendlyTree;
use crate::portable::SpecFriendlyTree;

/// Everything one shard needs: the inner map, its private STM instance, and
/// (optionally) a running maintenance thread for it.
pub struct ShardParts<M> {
    /// The shard's STM instance.
    pub stm: Arc<Stm>,
    /// The shard's inner map.
    pub map: Arc<M>,
    /// A background maintenance thread bound to the shard, if the inner map
    /// uses one. Held for the lifetime of the [`ShardedMap`]; dropping the
    /// sharded map stops every shard's maintenance thread.
    pub maintenance: Option<MaintenanceHandle>,
}

struct Shard<M> {
    stm: Arc<Stm>,
    map: Arc<M>,
    /// Serializes cross-shard moves that involve this shard (see the module
    /// docs). Plain single-key operations never touch it. Goes through the
    /// `parking_lot` shim under a stable class name so checked builds run
    /// the pairwise (lo, hi) acquisition order through the inversion
    /// detector.
    move_lock: parking_lot::Mutex<()>,
    /// The shard's rotator thread; paused during quiescent inspection,
    /// stopped on drop.
    maintenance: Option<MaintenanceHandle>,
}

/// A map hash-partitioned over `N` independent inner maps.
///
/// See the [module documentation](self) for the design and the cross-shard
/// `move` protocol.
pub struct ShardedMap<M: TxMap> {
    shards: Vec<Shard<M>>,
    label: &'static str,
}

/// Per-thread handle of a [`ShardedMap`]: one inner handle per shard, each
/// registered with that shard's own STM instance.
pub struct ShardedHandle<M: TxMap> {
    handles: Vec<M::Handle>,
}

impl<M: TxMap> ShardedHandle<M> {
    /// Number of per-shard handles (= the map's shard count).
    pub fn shard_count(&self) -> usize {
        self.handles.len()
    }

    /// The inner handle registered with shard `index`, for operations that
    /// address one shard directly (e.g. a durability layer checkpointing
    /// every shard's inner map in turn).
    pub fn shard_handle_mut(&mut self, index: usize) -> &mut M::Handle {
        &mut self.handles[index]
    }
}

/// The process-wide cross-shard move-id counter, seeded from the wall
/// clock and the pid so two incarnations are unlikely to collide even
/// before [`advance_move_ids`] makes it certain.
fn move_id_counter() -> &'static AtomicU64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    NEXT.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        AtomicU64::new((nanos ^ ((std::process::id() as u64) << 48)) | 1)
    })
}

/// Allocate a cross-shard move id: unique within the process, and unique
/// against everything a recovered log contains once the durable layer has
/// called [`advance_move_ids`] with its recovery's floor.
fn next_move_id() -> u64 {
    // sf-lint: allow(relaxed-atomic, move ids need atomicity (uniqueness), not ordering; durability ordering comes from the WAL records)
    move_id_counter().fetch_add(1, Ordering::Relaxed)
}

/// Raise the move-id counter to at least `floor`. The durable layer calls
/// this after recovery with one past the highest move id found in any
/// shard log, making id reuse across restarts of a log directory
/// *impossible* rather than merely improbable — recovery's cross-log join
/// matches protocol records by id, so a reissued id could mis-join a stale
/// record left by a previous incarnation.
pub fn advance_move_ids(floor: u64) {
    // sf-lint: allow(relaxed-atomic, monotone floor advance; recovery runs single-threaded before mutators start)
    move_id_counter().fetch_max(floor, Ordering::Relaxed);
}

/// K-way merge of per-shard range results. Each input is sorted ascending
/// and the hash partition makes keys unique across shards, so repeatedly
/// taking the smallest head yields the globally sorted sequence (shard
/// counts are small, so a linear head scan beats a heap).
fn merge_sorted(per_shard: Vec<Vec<(Key, Value)>>) -> Vec<(Key, Value)> {
    let total = per_shard.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heads = vec![0usize; per_shard.len()];
    loop {
        let mut best: Option<(usize, Key)> = None;
        for (shard, entries) in per_shard.iter().enumerate() {
            if let Some(&(key, _)) = entries.get(heads[shard]) {
                if best.is_none_or(|(_, best_key)| key < best_key) {
                    best = Some((shard, key));
                }
            }
        }
        match best {
            Some((shard, _)) => {
                out.push(per_shard[shard][heads[shard]]);
                heads[shard] += 1;
            }
            None => return out,
        }
    }
}

impl<M: TxMap> ShardedMap<M> {
    /// Build a sharded map from `shard_count` shards produced by `make_shard`
    /// (called with the shard index).
    pub fn new_with(
        shard_count: usize,
        mut make_shard: impl FnMut(usize) -> ShardParts<M>,
    ) -> Self {
        assert!(shard_count >= 1, "a sharded map needs at least one shard");
        let shards: Vec<Shard<M>> = (0..shard_count)
            .map(|index| {
                let parts = make_shard(index);
                Shard {
                    stm: parts.stm,
                    map: parts.map,
                    move_lock: parking_lot::Mutex::named((), "shard.move_lock"),
                    maintenance: parts.maintenance,
                }
            })
            .collect();
        let label = intern_label(format!("{}-sharded{}", shards[0].map.name(), shard_count));
        ShardedMap { shards, label }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a key routes to (Fibonacci hashing over the key).
    pub fn shard_of(&self, key: Key) -> usize {
        let h = (key ^ (key >> 33)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// The STM instance of shard `index` (e.g. to build a [`Transaction`]
    /// that composes with this shard through [`TxMapInTx`]).
    pub fn shard_stm(&self, index: usize) -> &Arc<Stm> {
        &self.shards[index].stm
    }

    /// The STM instance owning `key`'s shard.
    pub fn stm_for(&self, key: Key) -> &Arc<Stm> {
        self.shard_stm(self.shard_of(key))
    }

    /// The inner map of shard `index`.
    pub fn shard_map(&self, index: usize) -> &Arc<M> {
        &self.shards[index].map
    }

    /// Register a worker thread with every shard. Unlike
    /// [`TxMap::register`], no external [`ThreadCtx`] is needed: each
    /// per-shard handle registers with that shard's own STM.
    pub fn register_sharded(&self) -> ShardedHandle<M> {
        ShardedHandle {
            handles: self
                .shards
                .iter()
                .map(|shard| shard.map.register(shard.stm.register()))
                .collect(),
        }
    }

    /// STM statistics aggregated over every shard (sums of counters, maxima
    /// of high-water marks).
    pub fn stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for shard in &self.shards {
            total.merge(&shard.stm.stats());
        }
        total
    }

    /// Reset the statistics of every shard's STM instance.
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.stm.reset_stats();
        }
    }

    /// Park every shard's rotator thread between passes and wait until all
    /// are parked. While the returned guards live, no restructuring runs on
    /// any shard, so quiescent inspections (counting scans, consistency
    /// checks) observe a stable structure. Maintenance resumes when the
    /// guards drop.
    pub fn pause_maintenance(&self) -> Vec<MaintenancePause<'_>> {
        self.shards
            .iter()
            .filter_map(|shard| shard.maintenance.as_ref().map(|m| m.pause()))
            .collect()
    }

    /// Exact-mode range scan: park every shard's rotator, then collect the
    /// in-range entries shard by shard and k-way merge them. See the
    /// [module docs](self) for the contract relative to the default
    /// per-shard-atomic [`TxMap::range_collect`].
    pub fn range_quiescent(
        &self,
        handle: &mut ShardedHandle<M>,
        range: RangeInclusive<Key>,
    ) -> Vec<(Key, Value)> {
        let _paused = self.pause_maintenance();
        TxMap::range_collect(self, handle, range)
    }
}

impl ShardedMap<OptSpecFriendlyTree> {
    /// A sharded optimized speculation-friendly tree: per shard, one STM
    /// instance built from `stm_config` and one clone-based maintenance
    /// thread.
    pub fn optimized(shard_count: usize, stm_config: StmConfig) -> Self {
        Self::optimized_with(
            shard_count,
            stm_config,
            MaintenanceConfig {
                pass_delay: Duration::from_micros(200),
                ..MaintenanceConfig::default()
            },
        )
    }

    /// Like [`ShardedMap::optimized`] with explicit maintenance tuning.
    pub fn optimized_with(
        shard_count: usize,
        stm_config: StmConfig,
        maintenance_config: MaintenanceConfig,
    ) -> Self {
        Self::new_with(shard_count, |_| {
            let stm = Stm::new(stm_config.clone());
            let map = Arc::new(OptSpecFriendlyTree::new());
            let maintenance =
                map.start_maintenance_with(stm.register(), maintenance_config.clone());
            ShardParts {
                stm,
                map,
                maintenance: Some(maintenance),
            }
        })
    }
}

impl ShardedMap<SpecFriendlyTree> {
    /// A sharded portable speculation-friendly tree: per shard, one STM
    /// instance built from `stm_config` and one classic-rotation maintenance
    /// thread.
    pub fn portable(shard_count: usize, stm_config: StmConfig) -> Self {
        Self::portable_with(
            shard_count,
            stm_config,
            MaintenanceConfig {
                pass_delay: Duration::from_micros(200),
                ..MaintenanceConfig::default()
            },
        )
    }

    /// Like [`ShardedMap::portable`] with explicit maintenance tuning.
    pub fn portable_with(
        shard_count: usize,
        stm_config: StmConfig,
        maintenance_config: MaintenanceConfig,
    ) -> Self {
        Self::new_with(shard_count, |_| {
            let stm = Stm::new(stm_config.clone());
            let map = Arc::new(SpecFriendlyTree::new());
            let maintenance =
                map.start_maintenance_with(stm.register(), maintenance_config.clone());
            ShardParts {
                stm,
                map,
                maintenance: Some(maintenance),
            }
        })
    }
}

impl<M: TxMap> TxMap for ShardedMap<M>
where
    M::Handle: Send,
{
    type Handle = ShardedHandle<M>;

    /// Register a worker thread. The passed context is dropped: a sharded map
    /// owns one STM instance per shard, so per-shard contexts are created
    /// internally (see [`ShardedMap::register_sharded`]).
    fn register(&self, _ctx: ThreadCtx) -> ShardedHandle<M> {
        self.register_sharded()
    }

    fn contains(&self, handle: &mut ShardedHandle<M>, key: Key) -> bool {
        let shard = self.shard_of(key);
        self.shards[shard]
            .map
            .contains(&mut handle.handles[shard], key)
    }

    fn get(&self, handle: &mut ShardedHandle<M>, key: Key) -> Option<Value> {
        let shard = self.shard_of(key);
        self.shards[shard].map.get(&mut handle.handles[shard], key)
    }

    fn insert(&self, handle: &mut ShardedHandle<M>, key: Key, value: Value) -> bool {
        let shard = self.shard_of(key);
        self.shards[shard]
            .map
            .insert(&mut handle.handles[shard], key, value)
    }

    fn delete(&self, handle: &mut ShardedHandle<M>, key: Key) -> bool {
        let shard = self.shard_of(key);
        self.shards[shard]
            .map
            .delete(&mut handle.handles[shard], key)
    }

    fn delete_if(&self, handle: &mut ShardedHandle<M>, key: Key, expected: Value) -> bool {
        let shard = self.shard_of(key);
        self.shards[shard]
            .map
            .delete_if(&mut handle.handles[shard], key, expected)
    }

    fn move_entry(&self, handle: &mut ShardedHandle<M>, from: Key, to: Key) -> bool {
        let (src, dst) = (self.shard_of(from), self.shard_of(to));
        if src == dst {
            // Same shard: the inner map's own atomic move applies. The
            // shard's move lock is still taken so a cross-shard move's
            // rollback can never race a same-shard relocation of the copy it
            // is about to retract.
            let _lock = self.shards[src].move_lock.lock();
            return self.shards[src]
                .map
                .move_entry(&mut handle.handles[src], from, to);
        }

        // Cross-shard: serialize against other moves touching either shard,
        // acquiring the two move locks in index order to rule out deadlock.
        let (lo, hi) = (src.min(dst), src.max(dst));
        crate::chk::sched_point(crate::chk::SchedEvent::Move);
        let _lock_lo = self.shards[lo]
            .move_lock
            // sf-lint: allow(lock-order, same-shard branch above returned; this is the first move lock of the cross-shard pair)
            .lock();
        let _lock_hi = self.shards[hi]
            .move_lock
            // sf-lint: allow(lock-order, second move lock of the pair, taken in ascending shard-index order (lo < hi) to rule out deadlock)
            .lock();

        let (head, tail) = handle.handles.split_at_mut(hi);
        let (handle_lo, handle_hi) = (&mut head[lo], &mut tail[0]);
        let (handle_src, handle_dst) = if src < dst {
            (handle_lo, handle_hi)
        } else {
            (handle_hi, handle_lo)
        };

        let src_map = &self.shards[src].map;
        let dst_map = &self.shards[dst].map;
        let value = match src_map.get(handle_src, from) {
            Some(value) => value,
            None => return false,
        };

        // Two-phase protocol, driven through the move hooks so a durable
        // wrapper can (a) fsync a move intent to the source shard's log
        // before either half commits, (b) stamp both halves with the shared
        // move id, and (c) fence both shards' logs against checkpoint
        // truncation until the resolution marker lands. On plain in-memory
        // maps every hook is a passthrough and this is exactly the old
        // insert / compare-and-delete / rollback sequence.
        let move_id = next_move_id();
        src_map.move_source_scope(move_id, dst, from, to, value, &mut || {
            dst_map.move_peer_scope(move_id, &mut || {
                if !dst_map.move_insert(handle_dst, move_id, to, value) {
                    // Destination occupied: nothing was changed.
                    return false;
                }
                // Compare-and-delete: a concurrent delete+reinsert may have
                // replaced the source with a different value since the read
                // above; deleting blindly would destroy that committed
                // update.
                if !src_map.move_delete_if(handle_src, move_id, from, value) {
                    // The source no longer holds the value that was copied:
                    // undo the destination insert (again value-checked — a
                    // concurrent delete may already have consumed the
                    // transient copy, and a later insert at `to` must not be
                    // destroyed) so the outcome linearizes as "their update
                    // first, this move found no source".
                    dst_map.move_delete_if(handle_dst, move_id, to, value);
                    return false;
                }
                true
            })
        })
    }

    /// Per-shard-atomic range scan (see the [module docs](self)): one atomic
    /// read-only scan per shard, k-way merged. For an exact snapshot at
    /// quiescence use [`ShardedMap::range_quiescent`].
    fn range_collect(
        &self,
        handle: &mut ShardedHandle<M>,
        range: RangeInclusive<Key>,
    ) -> Vec<(Key, Value)> {
        let per_shard: Vec<Vec<(Key, Value)>> = self
            .shards
            .iter()
            .zip(handle.handles.iter_mut())
            .map(|(shard, h)| shard.map.range_collect(h, range.clone()))
            .collect();
        merge_sorted(per_shard)
    }

    /// Per-shard-atomic size: the sum of one atomic scan count per shard.
    fn len(&self, handle: &mut ShardedHandle<M>) -> usize {
        self.shards
            .iter()
            .zip(handle.handles.iter_mut())
            .map(|(shard, h)| shard.map.len(h))
            .sum()
    }

    fn len_quiescent(&self) -> usize {
        // Park every shard's rotator between passes first: the inner
        // counting traversal is only accurate while no restructuring runs.
        let _paused = self.pause_maintenance();
        self.shards
            .iter()
            .map(|shard| shard.map.len_quiescent())
            .sum()
    }

    fn hot_report(&self) -> Option<crate::map::HotReport> {
        // Same quiescence requirement as `len_quiescent`: the per-shard
        // traversals read plain node fields.
        let _paused = self.pause_maintenance();
        let mut merged: Option<crate::map::HotReport> = None;
        for shard in self.shards.iter() {
            if let Some(report) = shard.map.hot_report() {
                match merged.as_mut() {
                    Some(acc) => acc.merge(&report),
                    None => merged = Some(report),
                }
            }
        }
        merged
    }

    fn name(&self) -> &'static str {
        self.label
    }
}

impl<M: TxMap + TxMapInTx> TxMapInTx for ShardedMap<M> {
    /// Compose with the shard owning `key`. The transaction **must** have
    /// been started on that shard's STM instance
    /// ([`ShardedMap::stm_for`]`(key)`); transactions cannot span shards.
    fn tx_get<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<Option<Value>> {
        self.shards[self.shard_of(key)].map.tx_get(tx, key)
    }

    /// See [`ShardedMap::tx_get`] for the single-shard transaction contract.
    fn tx_insert<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        key: Key,
        value: Value,
    ) -> TxResult<bool> {
        self.shards[self.shard_of(key)]
            .map
            .tx_insert(tx, key, value)
    }

    /// See [`ShardedMap::tx_get`] for the single-shard transaction contract.
    fn tx_delete<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<bool> {
        self.shards[self.shard_of(key)].map.tx_delete(tx, key)
    }

    /// In-transaction move, supported only when both keys hash to the same
    /// shard.
    ///
    /// # Panics
    /// Panics when `from` and `to` live on different shards: a single
    /// transaction cannot span two STM instances. Use the top-level
    /// [`TxMap::move_entry`], which runs the two-phase cross-shard protocol.
    fn tx_move<'env>(&'env self, tx: &mut Transaction<'env>, from: Key, to: Key) -> TxResult<bool> {
        let (src, dst) = (self.shard_of(from), self.shard_of(to));
        assert_eq!(
            src, dst,
            "cross-shard tx_move cannot run inside one transaction; \
             use ShardedMap::move_entry"
        );
        self.shards[src].map.tx_move(tx, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sharded(shards: usize) -> ShardedMap<OptSpecFriendlyTree> {
        ShardedMap::optimized(shards, StmConfig::ctl())
    }

    #[test]
    fn routes_every_key_to_a_stable_shard_in_range() {
        let map = sharded(5);
        for key in 0..10_000u64 {
            let shard = map.shard_of(key);
            assert!(shard < 5);
            assert_eq!(shard, map.shard_of(key), "routing must be stable");
        }
    }

    #[test]
    fn shards_are_reasonably_balanced() {
        let map = sharded(8);
        let mut counts = [0usize; 8];
        for key in 0..80_000u64 {
            counts[map.shard_of(key)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (7_000..13_000).contains(&count),
                "shard {shard} got {count} of 80k keys"
            );
        }
    }

    #[test]
    fn basic_map_operations_route_through_shards() {
        let map = sharded(4);
        let mut handle = map.register_sharded();
        for key in 0..512u64 {
            assert!(map.insert(&mut handle, key, key * 10));
            assert!(!map.insert(&mut handle, key, 0));
        }
        assert_eq!(map.len_quiescent(), 512);
        for key in 0..512u64 {
            assert_eq!(map.get(&mut handle, key), Some(key * 10));
        }
        for key in (0..512u64).step_by(2) {
            assert!(map.delete(&mut handle, key));
            assert!(!map.delete(&mut handle, key));
        }
        assert_eq!(map.len_quiescent(), 256);
    }

    #[test]
    fn cross_shard_move_semantics_match_single_map_semantics() {
        let map = sharded(4);
        let mut handle = map.register_sharded();
        // Pick two keys that land on different shards.
        let from = 1u64;
        let to = (2..1000u64)
            .find(|&k| map.shard_of(k) != map.shard_of(from))
            .expect("some key must land on another shard");

        // Source missing.
        assert!(!map.move_entry(&mut handle, from, to));
        // Plain move.
        assert!(map.insert(&mut handle, from, 77));
        assert!(map.move_entry(&mut handle, from, to));
        assert!(!map.contains(&mut handle, from));
        assert_eq!(map.get(&mut handle, to), Some(77));
        // Destination occupied.
        assert!(map.insert(&mut handle, from, 88));
        assert!(!map.move_entry(&mut handle, from, to));
        assert_eq!(map.get(&mut handle, from), Some(88));
        assert_eq!(map.get(&mut handle, to), Some(77));
        // Move onto itself is a membership test.
        assert!(map.move_entry(&mut handle, to, to));
        assert_eq!(map.len_quiescent(), 2);
    }

    #[test]
    fn same_shard_move_delegates_to_the_inner_map() {
        let map = sharded(3);
        let mut handle = map.register_sharded();
        let from = 10u64;
        let to = (11..1000u64)
            .find(|&k| map.shard_of(k) == map.shard_of(from))
            .expect("some key must land on the same shard");
        assert!(map.insert(&mut handle, from, 5));
        assert!(map.move_entry(&mut handle, from, to));
        assert_eq!(map.get(&mut handle, to), Some(5));
        assert!(!map.contains(&mut handle, from));
    }

    #[test]
    fn single_shard_degenerates_to_the_inner_map() {
        let map = sharded(1);
        let mut handle = map.register_sharded();
        assert!(map.insert(&mut handle, 1, 10));
        assert!(map.move_entry(&mut handle, 1, 2));
        assert_eq!(map.get(&mut handle, 2), Some(10));
        assert_eq!(map.len_quiescent(), 1);
    }

    #[test]
    fn name_reflects_inner_map_and_shard_count() {
        assert_eq!(sharded(8).name(), "OptSFtree-sharded8");
        assert_eq!(sharded(2).name(), "OptSFtree-sharded2");
        // Interning returns the same static str for equal labels.
        assert!(std::ptr::eq(sharded(8).name(), sharded(8).name()));
        assert_eq!(
            ShardedMap::portable(2, StmConfig::ctl()).name(),
            "SFtree-sharded2"
        );
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let map = sharded(4);
        let mut handle = map.register_sharded();
        map.reset_stats();
        for key in 0..64u64 {
            map.insert(&mut handle, key, key);
        }
        let stats = map.stats();
        assert!(
            stats.commits >= 64,
            "expected at least one commit per insert, got {}",
            stats.commits
        );
        // Park the shards' rotators: a maintenance commit between the reset
        // and the read would otherwise show up.
        let _parked = map.pause_maintenance();
        map.reset_stats();
        assert_eq!(map.stats().commits, 0);
    }

    #[test]
    fn in_transaction_composition_works_per_shard() {
        let map = sharded(4);
        let mut handle = map.register_sharded();
        map.insert(&mut handle, 3, 30);
        let shard = map.shard_of(3);
        let mut ctx = map.shard_stm(shard).register();
        let (got, inserted) = ctx.atomically(|tx| {
            let got = map.tx_get(tx, 3)?;
            let inserted = map.tx_insert(tx, 3, 99)?;
            Ok((got, inserted))
        });
        assert_eq!(got, Some(30));
        assert!(!inserted);
    }

    #[test]
    #[should_panic(expected = "cross-shard tx_move")]
    fn cross_shard_tx_move_is_rejected() {
        let map = sharded(4);
        let from = 1u64;
        let to = (2..1000u64)
            .find(|&k| map.shard_of(k) != map.shard_of(from))
            .unwrap();
        let mut ctx = map.stm_for(from).register();
        ctx.atomically(|tx| map.tx_move(tx, from, to));
    }

    #[test]
    fn range_collect_merges_shards_in_ascending_order() {
        let map = sharded(4);
        let mut handle = map.register_sharded();
        let keys: Vec<u64> = (0..256u64).map(|i| (i * 37) % 509).collect();
        for &k in &keys {
            map.insert(&mut handle, k, k + 1);
        }
        let mut expected: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k + 1)).collect();
        expected.sort_unstable();
        expected.dedup();
        let full = map.range_collect(&mut handle, 0..=u64::MAX);
        assert_eq!(full, expected);
        // Sub-range.
        let want: Vec<(u64, u64)> = expected
            .iter()
            .copied()
            .filter(|&(k, _)| (100..=200).contains(&k))
            .collect();
        assert_eq!(map.range_collect(&mut handle, 100..=200), want);
        // Transactional len agrees with the quiescent count.
        assert_eq!(TxMap::len(&map, &mut handle), map.len_quiescent());
        // Exact mode agrees while no updates run.
        assert_eq!(map.range_quiescent(&mut handle, 0..=u64::MAX), expected);
    }

    #[test]
    fn merge_sorted_interleaves_unique_sorted_runs() {
        let merged = merge_sorted(vec![
            vec![(1, 10), (5, 50)],
            vec![],
            vec![(2, 20), (3, 30), (9, 90)],
            vec![(4, 40)],
        ]);
        assert_eq!(
            merged,
            vec![(1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (9, 90)]
        );
        assert!(merge_sorted(vec![vec![], vec![]]).is_empty());
    }

    #[test]
    fn sequential_oracle_equivalence_under_mixed_ops() {
        let map = sharded(4);
        let mut handle = map.register_sharded();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4_000 {
            let key = next() % 128;
            match next() % 4 {
                0 => {
                    let value = next() % 1000;
                    let expected =
                        if let std::collections::btree_map::Entry::Vacant(e) = oracle.entry(key) {
                            e.insert(value);
                            true
                        } else {
                            false
                        };
                    assert_eq!(map.insert(&mut handle, key, value), expected);
                }
                1 => {
                    assert_eq!(map.delete(&mut handle, key), oracle.remove(&key).is_some());
                }
                2 => {
                    assert_eq!(map.get(&mut handle, key), oracle.get(&key).copied());
                }
                _ => {
                    let to = next() % 128;
                    let expected = if key == to {
                        oracle.contains_key(&key)
                    } else if oracle.contains_key(&key) && !oracle.contains_key(&to) {
                        let value = oracle.remove(&key).unwrap();
                        oracle.insert(to, value);
                        true
                    } else {
                        false
                    };
                    assert_eq!(map.move_entry(&mut handle, key, to), expected);
                }
            }
        }
        assert_eq!(map.len_quiescent(), oracle.len());
    }
}
