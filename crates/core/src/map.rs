//! Tree-agnostic map abstractions.
//!
//! Every tree in this reproduction (speculation-friendly, optimized
//! speculation-friendly, red-black, AVL, no-restructuring) implements the
//! same two interfaces:
//!
//! * [`TxMap`] — complete operations, each executed as its own transaction.
//!   This is what the synchrobench-style micro-benchmark drives.
//! * [`TxMapInTx`] — *in-transaction* operations that run inside a caller
//!   supplied [`Transaction`]. This is the reusability story of §5.4: the
//!   `move` operation and the vacation application compose several map
//!   operations into one atomic transaction without knowing anything about
//!   the tree's synchronization internals.
//!
//! On top of the point operations, [`TxOrderedMapInTx`] exposes the *ordered*
//! structure of the trees — min/max, successor, and range scans — which is
//! the capability that distinguishes a BST service from a hash map. A single
//! required primitive ([`TxOrderedMapInTx::tx_range_visit`]) yields every
//! derived operation; scans run as [`sf_stm::TxKind::ReadOnly`] transactions
//! at the top level so the STM skips write-set bookkeeping entirely.

use std::collections::HashMap;
use std::ops::{ControlFlow, RangeInclusive};
use std::sync::OnceLock;

use parking_lot::Mutex;

use sf_stm::{ThreadCtx, Transaction, TxResult};

use crate::node::{Key, Value};

/// Intern a backend label so [`TxMap::name`] can hand out `&'static str` for
/// dynamically-built names (sharded compositions, durability decorators).
/// Each distinct label leaks exactly once.
pub fn intern_label(label: String) -> &'static str {
    static CACHE: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::named(HashMap::new(), "map.intern"))
        .lock();
    if let Some(&interned) = cache.get(&label) {
        return interned;
    }
    let leaked: &'static str = Box::leak(label.clone().into_boxed_str());
    cache.insert(label, leaked);
    leaked
}

/// In-transaction map operations: compose freely inside one transaction.
pub trait TxMapInTx: Send + Sync {
    /// Look up `key`, returning its value if present.
    fn tx_get<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<Option<Value>>;

    /// Insert `key -> value`. Returns `true` if the key was absent (the map
    /// changed), `false` if the key was already present.
    fn tx_insert<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        key: Key,
        value: Value,
    ) -> TxResult<bool>;

    /// Delete `key`. Returns `true` if the key was present (the map changed).
    fn tx_delete<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<bool>;

    /// Membership test.
    fn tx_contains<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<bool> {
        Ok(self.tx_get(tx, key)?.is_some())
    }

    /// Delete `key` only when it currently maps to `expected` (a
    /// compare-and-delete). Atomic within the surrounding transaction; used
    /// by the sharded map's cross-shard move protocol so a concurrent
    /// rewrite of the key is never destroyed blindly.
    fn tx_delete_if<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        key: Key,
        expected: Value,
    ) -> TxResult<bool> {
        match self.tx_get(tx, key)? {
            Some(value) if value == expected => self.tx_delete(tx, key),
            _ => Ok(false),
        }
    }

    /// Atomically move the value stored at `from` to `to` (§5.4). Succeeds
    /// only when `from` is present and `to` is absent.
    fn tx_move<'env>(&'env self, tx: &mut Transaction<'env>, from: Key, to: Key) -> TxResult<bool> {
        if from == to {
            return self.tx_contains(tx, from);
        }
        let value = match self.tx_get(tx, from)? {
            Some(v) => v,
            None => return Ok(false),
        };
        if !self.tx_insert(tx, to, value)? {
            return Ok(false);
        }
        let removed = self.tx_delete(tx, from)?;
        if !removed {
            // A doomed attempt can reach this through unit reads; only one
            // whose reads still validate has really lost its source key.
            tx.revalidate()?;
        }
        debug_assert!(removed, "source key vanished inside the same transaction");
        Ok(true)
    }
}

/// Quiescent summary of a structure's hot-key state: how many rotations the
/// maintenance thread performed because access mass dominated, and where the
/// sampled access mass currently sits in the tree. Produced by
/// [`TxMap::hot_report`]; all depths are 1-based node counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HotReport {
    /// Maintenance rotations driven by access-mass dominance.
    pub hot_rotations: u64,
    /// Total sampled access mass over the reachable tree.
    pub sampled_mass: u64,
    /// Mass-weighted average depth of sampled accesses (`0.0` when nothing
    /// was sampled).
    pub avg_depth: f64,
    /// Key of the single hottest node (meaningful when `hottest_mass > 0`).
    pub hottest_key: Key,
    /// Access mass of the hottest node.
    pub hottest_mass: u64,
    /// Depth of the hottest node.
    pub hottest_depth: u64,
}

impl HotReport {
    /// Fold another report in (sharded compositions): rotation counts add,
    /// average depth combines mass-weighted, the hottest node wins by mass.
    pub fn merge(&mut self, other: &HotReport) {
        self.hot_rotations += other.hot_rotations;
        let total = self.sampled_mass + other.sampled_mass;
        if total > 0 {
            self.avg_depth = (self.avg_depth * self.sampled_mass as f64
                + other.avg_depth * other.sampled_mass as f64)
                / total as f64;
        }
        self.sampled_mass = total;
        if other.hottest_mass > self.hottest_mass {
            self.hottest_key = other.hottest_key;
            self.hottest_mass = other.hottest_mass;
            self.hottest_depth = other.hottest_depth;
        }
    }
}

/// Direction of an ordered scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOrder {
    /// Visit keys in ascending order.
    Ascending,
    /// Visit keys in descending order.
    Descending,
}

/// In-transaction *ordered*-map operations: min/max, successor and range
/// scans that compose with point operations inside one transaction.
///
/// Implementations provide a single primitive — [`tx_range_visit`] — that
/// walks the live entries of a key range in order inside the caller's
/// transaction. For the speculation-friendly trees the subtle part is that
/// the walk must *skip logically-deleted nodes*: a deleted key stays
/// physically linked (its `del` flag set) until the background maintenance
/// thread removes it, so the traversal reads each in-range node's deletion
/// flag transactionally and filters the tombstones out of the scan.
///
/// Every derived operation keeps the read set of the underlying transaction,
/// so a committed scan is an atomic snapshot of the visited range.
///
/// [`tx_range_visit`]: TxOrderedMapInTx::tx_range_visit
pub trait TxOrderedMapInTx: TxMapInTx {
    /// Visit the live `(key, value)` entries whose keys fall in `range`, in
    /// `order`, calling `visit` for each until it breaks or the range is
    /// exhausted.
    fn tx_range_visit<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        range: RangeInclusive<Key>,
        order: ScanOrder,
        visit: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> TxResult<()>;

    /// Fold `fold` over the live entries of `range` in ascending key order.
    fn tx_range_fold<'env, A>(
        &'env self,
        tx: &mut Transaction<'env>,
        range: RangeInclusive<Key>,
        init: A,
        mut fold: impl FnMut(A, Key, Value) -> A,
    ) -> TxResult<A> {
        let mut acc = Some(init);
        self.tx_range_visit(tx, range, ScanOrder::Ascending, &mut |key, value| {
            let prev = acc.take().expect("fold accumulator is always present");
            acc = Some(fold(prev, key, value));
            ControlFlow::Continue(())
        })?;
        Ok(acc.expect("fold accumulator is always present"))
    }

    /// Collect the live entries of `range` in ascending key order.
    fn tx_range_collect<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        range: RangeInclusive<Key>,
    ) -> TxResult<Vec<(Key, Value)>> {
        self.tx_range_fold(tx, range, Vec::new(), |mut out, key, value| {
            out.push((key, value));
            out
        })
    }

    /// The smallest live entry, if any.
    fn tx_min<'env>(&'env self, tx: &mut Transaction<'env>) -> TxResult<Option<(Key, Value)>> {
        let mut out = None;
        self.tx_range_visit(tx, 0..=Key::MAX, ScanOrder::Ascending, &mut |key, value| {
            out = Some((key, value));
            ControlFlow::Break(())
        })?;
        Ok(out)
    }

    /// The largest live entry, if any.
    fn tx_max<'env>(&'env self, tx: &mut Transaction<'env>) -> TxResult<Option<(Key, Value)>> {
        let mut out = None;
        self.tx_range_visit(
            tx,
            0..=Key::MAX,
            ScanOrder::Descending,
            &mut |key, value| {
                out = Some((key, value));
                ControlFlow::Break(())
            },
        )?;
        Ok(out)
    }

    /// The smallest live entry with a key strictly greater than `key`.
    fn tx_successor<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        key: Key,
    ) -> TxResult<Option<(Key, Value)>> {
        if key == Key::MAX {
            return Ok(None);
        }
        let mut out = None;
        self.tx_range_visit(
            tx,
            (key + 1)..=Key::MAX,
            ScanOrder::Ascending,
            &mut |key, value| {
                out = Some((key, value));
                ControlFlow::Break(())
            },
        )?;
        Ok(out)
    }

    /// Number of live entries, counted by a full-range scan inside the
    /// caller's transaction.
    fn tx_len<'env>(&'env self, tx: &mut Transaction<'env>) -> TxResult<usize> {
        self.tx_range_fold(tx, 0..=Key::MAX, 0usize, |count, _, _| count + 1)
    }
}

/// Top-level map operations, one transaction per call.
///
/// `Handle` bundles whatever per-thread state the structure needs: at minimum
/// the STM thread context, plus (for the speculation-friendly trees) the
/// activity slot used by the quiescence-based reclamation protocol.
pub trait TxMap: Send + Sync {
    /// Per-thread handle.
    type Handle: Send;

    /// Register a worker thread.
    fn register(&self, ctx: ThreadCtx) -> Self::Handle;

    /// Membership test.
    fn contains(&self, handle: &mut Self::Handle, key: Key) -> bool;

    /// Look up a key's value.
    fn get(&self, handle: &mut Self::Handle, key: Key) -> Option<Value>;

    /// Insert `key -> value`; `true` when the map changed.
    fn insert(&self, handle: &mut Self::Handle, key: Key, value: Value) -> bool;

    /// Delete `key`; `true` when the map changed.
    fn delete(&self, handle: &mut Self::Handle, key: Key) -> bool;

    /// Atomically delete `key` only when it currently maps to `expected`
    /// (compare-and-delete); `true` when the map changed.
    fn delete_if(&self, handle: &mut Self::Handle, key: Key, expected: Value) -> bool;

    /// Atomically move `from` to `to`; `true` when the map changed.
    fn move_entry(&self, handle: &mut Self::Handle, from: Key, to: Key) -> bool;

    // --- Cross-shard move protocol hooks -------------------------------
    //
    // A cross-shard move (see `crate::sharded`) decomposes into an insert
    // on the destination shard and a compare-and-delete on the source
    // shard; these hooks let a layer wrapped around each shard (the
    // `sf-persist` durability decorator) observe the decomposition and
    // make it atomically recoverable: the source scope durably declares
    // the move *before* either half commits, the stamped insert/delete
    // tie each half to the declaration, and both scopes fence the shard's
    // log against checkpoint truncation while the move is in flight. The
    // defaults are passthroughs, so purely in-memory maps pay nothing.

    /// Run `body` — the whole cross-shard completion — in the **source**
    /// shard's move scope. A durable map overrides this to write a move
    /// intent (`move_id`, the destination shard index `peer`, and the
    /// `from`/`to`/`value` triple) to its log before `body` runs and a
    /// resolution marker after it returns.
    fn move_source_scope(
        &self,
        _move_id: u64,
        _peer: usize,
        _from: Key,
        _to: Key,
        _value: Value,
        body: &mut dyn FnMut() -> bool,
    ) -> bool {
        body()
    }

    /// Run `body` — the two stamped halves — in the **destination** shard's
    /// move scope. A durable map overrides this to fence its log against
    /// checkpoint truncation while the move is in flight.
    fn move_peer_scope(&self, _move_id: u64, body: &mut dyn FnMut() -> bool) -> bool {
        body()
    }

    /// The destination half of cross-shard move `move_id`: insert
    /// `key -> value`, stamped so a durable map's log ties the record to
    /// the move's intent. Defaults to [`TxMap::insert`].
    fn move_insert(
        &self,
        handle: &mut Self::Handle,
        _move_id: u64,
        key: Key,
        value: Value,
    ) -> bool {
        self.insert(handle, key, value)
    }

    /// The source half (or rollback retraction) of cross-shard move
    /// `move_id`: compare-and-delete `key` when it still holds `expected`,
    /// stamped like [`TxMap::move_insert`]. Defaults to
    /// [`TxMap::delete_if`].
    fn move_delete_if(
        &self,
        handle: &mut Self::Handle,
        _move_id: u64,
        key: Key,
        expected: Value,
    ) -> bool {
        self.delete_if(handle, key, expected)
    }

    /// Collect the live entries whose keys fall in `range`, in ascending key
    /// order, as one atomic read-only scan transaction
    /// ([`sf_stm::TxKind::ReadOnly`] — no write-set bookkeeping). Structures
    /// composed of several transactional domains (e.g. the sharded map)
    /// relax atomicity to per-domain snapshots; see their documentation.
    fn range_collect(
        &self,
        handle: &mut Self::Handle,
        range: RangeInclusive<Key>,
    ) -> Vec<(Key, Value)>;

    /// Number of live keys, counted by a read-only scan transaction. Unlike
    /// [`TxMap::len_quiescent`] this is safe (and linearizable per
    /// transactional domain) under concurrent updates.
    fn len(&self, handle: &mut Self::Handle) -> usize;

    /// Number of live keys. Only accurate while no concurrent updates run;
    /// used for test oracles and for sizing reports.
    fn len_quiescent(&self) -> usize;

    /// Quiescent hot-key summary ([`HotReport`]): hot rotations performed and
    /// where the sampled access mass sits. Like [`TxMap::len_quiescent`],
    /// only accurate while no concurrent updates or maintenance run.
    /// Structures without access tracking return `None` (the default).
    fn hot_report(&self) -> Option<HotReport> {
        None
    }

    /// Short human-readable name used in benchmark output (e.g. `SFtree`).
    fn name(&self) -> &'static str;
}

/// Maps whose top-level operations can report the **commit version** at which
/// they serialized — the capability a durability layer builds on.
///
/// Every single-STM backend implements this by funnelling the caller's body
/// through the same guard + retry protocol as its built-in point operations
/// ([`sf_stm::ThreadCtx::atomically_versioned`] underneath), so the returned
/// version is the STM clock stamp of the winning attempt and the body's
/// [`Transaction::on_commit_versioned`] hooks observe the identical value.
/// Multi-domain compositions (the sharded map) do **not** implement it — no
/// single transaction spans their shards; they are made durable by wrapping
/// each shard instead (`ShardedMap<DurableMap<M>>`).
pub trait TxMapVersioned: TxMap + TxMapInTx + TxOrderedMapInTx {
    /// Run `body` as one top-level transaction of the map's default kind
    /// (the same kind its own mutating operations use), retrying until it
    /// commits, and return its result together with the commit version.
    ///
    /// The body receives the map itself re-borrowed at the transaction
    /// lifetime so it can call the [`TxMapInTx`] operations; any state it
    /// captures for [`Transaction::on_commit_versioned`] hooks must be
    /// owned (`'static`), because hooks may outlive the body's borrows.
    fn atomically_versioned<R>(
        &self,
        handle: &mut Self::Handle,
        body: impl for<'t> FnMut(&'t Self, &mut Transaction<'t>) -> TxResult<R>,
    ) -> (R, u64);

    /// One atomic full-range snapshot of the live entries, in ascending key
    /// order, together with the version at which the read-only scan
    /// serialized: every commit with a version `<=` the returned one is
    /// reflected in the entries, every commit with a greater version is not.
    /// This is exactly the boundary a checkpoint needs in order to truncate
    /// a commit-ordered log safely.
    fn snapshot_versioned(&self, handle: &mut Self::Handle) -> (Vec<(Key, Value)>, u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use sf_stm::Stm;
    use std::collections::BTreeMap;

    /// A trivial TxMapInTx implementation (single mutex-protected BTreeMap,
    /// ignoring the transaction) to exercise the default method logic.
    struct Oracle(Mutex<BTreeMap<Key, Value>>);

    impl TxMapInTx for Oracle {
        fn tx_get<'env>(
            &'env self,
            _tx: &mut Transaction<'env>,
            key: Key,
        ) -> TxResult<Option<Value>> {
            Ok(self.0.lock().get(&key).copied())
        }
        fn tx_insert<'env>(
            &'env self,
            _tx: &mut Transaction<'env>,
            key: Key,
            value: Value,
        ) -> TxResult<bool> {
            Ok(self.0.lock().insert(key, value).is_none())
        }
        fn tx_delete<'env>(&'env self, _tx: &mut Transaction<'env>, key: Key) -> TxResult<bool> {
            Ok(self.0.lock().remove(&key).is_some())
        }
    }

    #[test]
    fn default_move_semantics() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let oracle = Oracle(Mutex::new(BTreeMap::new()));
        ctx.atomically(|tx| oracle.tx_insert(tx, 1, 10));
        // Successful move.
        assert!(ctx.atomically(|tx| oracle.tx_move(tx, 1, 2)));
        assert_eq!(oracle.0.lock().get(&2), Some(&10));
        assert!(!oracle.0.lock().contains_key(&1));
        // Source missing.
        assert!(!ctx.atomically(|tx| oracle.tx_move(tx, 1, 3)));
        // Destination occupied.
        ctx.atomically(|tx| oracle.tx_insert(tx, 5, 50));
        assert!(!ctx.atomically(|tx| oracle.tx_move(tx, 2, 5)));
        // Move onto itself is a membership test.
        assert!(ctx.atomically(|tx| oracle.tx_move(tx, 2, 2)));
        assert!(!ctx.atomically(|tx| oracle.tx_move(tx, 99, 99)));
    }

    #[test]
    fn default_contains_uses_get() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let oracle = Oracle(Mutex::new(BTreeMap::new()));
        assert!(!ctx.atomically(|tx| oracle.tx_contains(tx, 7)));
        ctx.atomically(|tx| oracle.tx_insert(tx, 7, 70));
        assert!(ctx.atomically(|tx| oracle.tx_contains(tx, 7)));
    }

    impl TxOrderedMapInTx for Oracle {
        fn tx_range_visit<'env>(
            &'env self,
            _tx: &mut Transaction<'env>,
            range: RangeInclusive<Key>,
            order: ScanOrder,
            visit: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
        ) -> TxResult<()> {
            let map = self.0.lock();
            match order {
                ScanOrder::Ascending => {
                    for (&k, &v) in map.range(range) {
                        if visit(k, v).is_break() {
                            break;
                        }
                    }
                }
                ScanOrder::Descending => {
                    for (&k, &v) in map.range(range).rev() {
                        if visit(k, v).is_break() {
                            break;
                        }
                    }
                }
            }
            Ok(())
        }
    }

    #[test]
    fn ordered_defaults_derive_from_the_visit_primitive() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let oracle = Oracle(Mutex::new(BTreeMap::new()));
        assert_eq!(ctx.atomically(|tx| oracle.tx_min(tx)), None);
        assert_eq!(ctx.atomically(|tx| oracle.tx_max(tx)), None);
        assert_eq!(ctx.atomically(|tx| oracle.tx_len(tx)), 0);
        for k in [5u64, 1, 9, 3] {
            ctx.atomically(|tx| oracle.tx_insert(tx, k, k * 10));
        }
        assert_eq!(ctx.atomically(|tx| oracle.tx_min(tx)), Some((1, 10)));
        assert_eq!(ctx.atomically(|tx| oracle.tx_max(tx)), Some((9, 90)));
        assert_eq!(ctx.atomically(|tx| oracle.tx_len(tx)), 4);
        assert_eq!(
            ctx.atomically(|tx| oracle.tx_successor(tx, 3)),
            Some((5, 50))
        );
        assert_eq!(
            ctx.atomically(|tx| oracle.tx_successor(tx, 5)),
            Some((9, 90))
        );
        assert_eq!(ctx.atomically(|tx| oracle.tx_successor(tx, 9)), None);
        assert_eq!(ctx.atomically(|tx| oracle.tx_successor(tx, Key::MAX)), None);
        assert_eq!(
            ctx.atomically(|tx| oracle.tx_range_collect(tx, 2..=5)),
            vec![(3, 30), (5, 50)]
        );
        let sum =
            ctx.atomically(|tx| oracle.tx_range_fold(tx, 0..=Key::MAX, 0u64, |a, _, v| a + v));
        assert_eq!(sum, 10 + 30 + 50 + 90);
        // Empty ranges are handled without visiting anything.
        assert_eq!(
            ctx.atomically(|tx| oracle.tx_range_collect(tx, 6..=8)),
            vec![]
        );
    }
}
