//! Node storage: a chunked, append-only arena with free-list recycling and
//! quiescence-based reclamation.
//!
//! The paper's trees unlink nodes (physical removal, clone-based rotations)
//! while concurrent operations may still be traversing them, and defer
//! reclamation until every operation that could have seen the node has
//! finished (§3.4: the rotator thread snapshots per-thread pending flags and
//! operation counters before recycling). Here each thread's pending flag and
//! counter share one word: a sequence number that the thread bumps when an
//! operation starts and again when it ends, so it is odd exactly while an
//! operation is in flight. Bracketing an operation costs two stores (no
//! read-modify-write) by the word's only writer, and a snapshot reads one
//! word per thread. The safe-Rust equivalent built here:
//!
//! * slots live in fixed-size chunks that are allocated on demand and never
//!   moved or freed while the arena is alive, so `&T` obtained from an id is
//!   valid for the arena's lifetime (no `unsafe` needed — chunks sit behind
//!   `OnceLock`s in a pre-sized vector);
//! * retired slots are *recycled* through a free list rather than returned to
//!   the allocator, and only after the quiescence condition of §3.4 holds.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::queue::SegQueue;
use parking_lot::Mutex;

/// Index of a slot in a [`TxArena`].
///
/// `NodeId::NIL` is the null pointer (the paper's ⊥).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The null id (⊥).
    pub const NIL: NodeId = NodeId(u32::MAX);

    /// True when this id is ⊥.
    #[inline]
    pub fn is_nil(self) -> bool {
        self == NodeId::NIL
    }

    /// Convert to an `Option`, mapping ⊥ to `None`.
    #[inline]
    pub fn as_option(self) -> Option<NodeId> {
        if self.is_nil() {
            None
        } else {
            Some(self)
        }
    }
}

impl sf_stm::TxValue for NodeId {
    #[inline]
    fn encode(self) -> u64 {
        self.0 as u64
    }
    #[inline]
    fn decode(raw: u64) -> Self {
        NodeId(raw as u32)
    }
}

/// Number of slots per chunk.
const CHUNK_SIZE: usize = 1024;
/// Default maximum number of chunks (capacity = `DEFAULT_CHUNKS * CHUNK_SIZE`
/// slots, allocated lazily chunk by chunk).
const DEFAULT_CHUNKS: usize = 8192;

/// Per-thread activity slot used for the quiescence protocol of §3.4: a
/// sequence number bumped once when each abstract operation starts and once
/// when it ends, so it is odd exactly while an operation is in flight. Only
/// the owning [`ActivityHandle`] writes it.
#[derive(Debug, Default)]
pub struct ActivitySlot {
    seq: AtomicU64,
}

/// Handle held by an application thread; brackets abstract operations so the
/// maintenance thread can tell when the nodes it retired are safe to recycle.
/// Not `Clone`: each slot has exactly one writer.
#[derive(Debug)]
pub struct ActivityHandle {
    slot: Arc<ActivitySlot>,
}

impl ActivityHandle {
    /// Mark the start of an abstract operation. The returned guard marks its
    /// completion when dropped.
    pub fn begin(&self) -> OpGuard<'_> {
        // sf-lint: allow(relaxed-atomic, the handle is the slot's only writer, so it reads back its own last store)
        let seq = self.slot.seq.load(Ordering::Relaxed) + 1;
        // SeqCst, like the snapshot's load: either the snapshot sees this
        // operation in flight, or the operation starts after the unlinks
        // that preceded the snapshot.
        self.slot.seq.store(seq, Ordering::SeqCst);
        OpGuard {
            slot: &self.slot,
            seq,
        }
    }
}

/// RAII guard for one in-flight abstract operation.
#[derive(Debug)]
pub struct OpGuard<'a> {
    slot: &'a ActivitySlot,
    /// The odd sequence number stored by [`ActivityHandle::begin`].
    seq: u64,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        // Release pairs with the load in `has_drained`: once the maintenance
        // thread sees the sequence move, every read this operation made of a
        // retired node happens before that node is recycled.
        self.slot.seq.store(self.seq + 1, Ordering::Release);
    }
}

/// Snapshot of every registered thread's activity, taken by the maintenance
/// thread before it starts retiring nodes.
#[derive(Debug)]
pub struct ActivitySnapshot {
    entries: Vec<(Arc<ActivitySlot>, u64)>,
}

impl ActivitySnapshot {
    /// The quiescence condition of §3.4: for every thread, either no
    /// operation was in flight at snapshot time (even sequence) or the
    /// sequence has moved since, which implies the operation that was in
    /// flight when the snapshot was taken has finished.
    pub fn has_drained(&self) -> bool {
        self.entries
            .iter()
            .all(|(slot, snap)| snap & 1 == 0 || slot.seq.load(Ordering::SeqCst) != *snap)
    }
}

/// Chunked, append-only slot arena with free-list recycling.
///
/// `T` is the node type; it must be constructible in a default state because
/// chunks are materialized eagerly when first touched.
#[derive(Debug)]
pub struct TxArena<T> {
    chunks: Vec<OnceLock<Box<[T]>>>,
    next: AtomicU32,
    capacity: u32,
    free: SegQueue<NodeId>,
    recycled: AtomicU64,
    allocated: AtomicU64,
    activity: Mutex<Vec<Arc<ActivitySlot>>>,
}

impl<T: Default> TxArena<T> {
    /// Arena with the default capacity (~8M slots, allocated lazily).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CHUNKS * CHUNK_SIZE)
    }

    /// Arena with capacity for at least `capacity` slots.
    pub fn with_capacity(capacity: usize) -> Self {
        let chunks = capacity.div_ceil(CHUNK_SIZE);
        TxArena {
            chunks: (0..chunks).map(|_| OnceLock::new()).collect(),
            next: AtomicU32::new(0),
            capacity: (chunks * CHUNK_SIZE) as u32,
            free: SegQueue::new(),
            recycled: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
            activity: Mutex::new(Vec::new()),
        }
    }

    fn chunk(&self, chunk_index: usize) -> &[T] {
        self.chunks[chunk_index].get_or_init(|| (0..CHUNK_SIZE).map(|_| T::default()).collect())
    }

    /// Allocate a slot, reusing a recycled one when available.
    ///
    /// # Panics
    /// Panics when the arena capacity is exhausted; size the arena for the
    /// workload (`with_capacity`) — the experiments in this repository stay
    /// far below the default capacity.
    pub fn alloc(&self) -> NodeId {
        // sf-lint: allow(relaxed-atomic, allocation telemetry counter; aggregated for reports only)
        self.allocated.fetch_add(1, Ordering::Relaxed);
        if let Some(id) = self.free.pop() {
            return id;
        }
        // sf-lint: allow(relaxed-atomic, slot ids need atomicity (uniqueness), not ordering; node contents publish through the STM)
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            id < self.capacity,
            "node arena capacity exhausted ({} slots)",
            self.capacity
        );
        // Touch the chunk so the slot exists before the id escapes.
        let _ = self.chunk(id as usize / CHUNK_SIZE);
        NodeId(id)
    }

    /// Access a slot. The id must have been produced by [`TxArena::alloc`] on
    /// this arena.
    #[inline]
    pub fn get(&self, id: NodeId) -> &T {
        debug_assert!(!id.is_nil(), "dereferencing NIL node id");
        let index = id.0 as usize;
        &self.chunk(index / CHUNK_SIZE)[index % CHUNK_SIZE]
    }

    /// Return a slot to the free list. The caller is responsible for making
    /// sure no concurrent operation can still reach the slot (either it was
    /// never published, or the quiescence protocol has drained).
    pub fn recycle(&self, id: NodeId) {
        debug_assert!(!id.is_nil());
        // sf-lint: allow(relaxed-atomic, recycle telemetry counter; aggregated for reports only)
        self.recycled.fetch_add(1, Ordering::Relaxed);
        self.free.push(id);
    }

    /// Number of slots handed out since creation (including reused ones).
    pub fn allocated(&self) -> u64 {
        // sf-lint: allow(relaxed-atomic, telemetry read for reports; staleness is harmless)
        self.allocated.load(Ordering::Relaxed)
    }

    /// Number of slots returned to the free list since creation.
    pub fn recycled(&self) -> u64 {
        // sf-lint: allow(relaxed-atomic, telemetry read for reports; staleness is harmless)
        self.recycled.load(Ordering::Relaxed)
    }

    /// Highest slot index ever handed out (arena footprint).
    pub fn high_water_mark(&self) -> u32 {
        // sf-lint: allow(relaxed-atomic, footprint telemetry read for reports; staleness is harmless)
        self.next.load(Ordering::Relaxed)
    }

    /// Register an application thread for the quiescence protocol.
    pub fn register_activity(&self) -> ActivityHandle {
        let slot = Arc::new(ActivitySlot::default());
        self.activity.lock().push(Arc::clone(&slot));
        ActivityHandle { slot }
    }

    /// Snapshot every registered thread's activity state.
    pub fn activity_snapshot(&self) -> ActivitySnapshot {
        let slots = self.activity.lock();
        ActivitySnapshot {
            entries: slots
                .iter()
                .map(|s| (Arc::clone(s), s.seq.load(Ordering::SeqCst)))
                .collect(),
        }
    }
}

impl<T: Default> Default for TxArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_and_option_conversion() {
        assert!(NodeId::NIL.is_nil());
        assert_eq!(NodeId::NIL.as_option(), None);
        assert_eq!(NodeId(3).as_option(), Some(NodeId(3)));
    }

    #[test]
    fn node_id_txvalue_roundtrip() {
        use sf_stm::TxValue;
        for id in [NodeId(0), NodeId(17), NodeId::NIL] {
            assert_eq!(NodeId::decode(id.encode()), id);
        }
    }

    #[test]
    fn alloc_get_roundtrip() {
        let arena: TxArena<std::sync::atomic::AtomicU64> = TxArena::with_capacity(16);
        let a = arena.alloc();
        let b = arena.alloc();
        assert_ne!(a, b);
        arena.get(a).store(7, Ordering::Relaxed);
        arena.get(b).store(9, Ordering::Relaxed);
        assert_eq!(arena.get(a).load(Ordering::Relaxed), 7);
        assert_eq!(arena.get(b).load(Ordering::Relaxed), 9);
    }

    #[test]
    fn recycle_reuses_slot() {
        let arena: TxArena<u64> = TxArena::with_capacity(CHUNK_SIZE);
        let a = arena.alloc();
        arena.recycle(a);
        let b = arena.alloc();
        assert_eq!(a, b);
        assert_eq!(arena.recycled(), 1);
        assert_eq!(arena.allocated(), 2);
    }

    #[test]
    fn capacity_spans_multiple_chunks() {
        let arena: TxArena<u32> = TxArena::with_capacity(CHUNK_SIZE * 3);
        let mut last = NodeId(0);
        for _ in 0..(CHUNK_SIZE * 2 + 5) {
            last = arena.alloc();
        }
        assert_eq!(last.0 as usize, CHUNK_SIZE * 2 + 4);
        assert_eq!(arena.high_water_mark() as usize, CHUNK_SIZE * 2 + 5);
        let _ = arena.get(last);
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn exhausting_capacity_panics() {
        let arena: TxArena<u8> = TxArena::with_capacity(CHUNK_SIZE);
        for _ in 0..(CHUNK_SIZE + 1) {
            arena.alloc();
        }
    }

    #[test]
    fn concurrent_allocation_yields_unique_ids() {
        let arena: Arc<TxArena<u64>> = Arc::new(TxArena::with_capacity(CHUNK_SIZE * 8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || (0..500).map(|_| arena.alloc()).collect::<Vec<_>>())
            })
            .collect();
        let mut ids: Vec<NodeId> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 2000);
    }

    #[test]
    fn quiescence_drains_when_no_op_pending() {
        let arena: TxArena<u64> = TxArena::with_capacity(16);
        let h = arena.register_activity();
        // No operation in flight: trivially drained.
        assert!(arena.activity_snapshot().has_drained());
        // Operation in flight at snapshot time: not drained until it ends.
        let guard = h.begin();
        let snap = arena.activity_snapshot();
        assert!(!snap.has_drained());
        drop(guard);
        assert!(snap.has_drained());
    }

    #[test]
    fn quiescence_tracks_multiple_threads() {
        let arena: TxArena<u64> = TxArena::with_capacity(16);
        let h1 = arena.register_activity();
        let h2 = arena.register_activity();
        let g1 = h1.begin();
        let snap = arena.activity_snapshot();
        assert!(!snap.has_drained());
        // A later operation by the other thread does not help thread 1.
        drop(h2.begin());
        assert!(!snap.has_drained());
        drop(g1);
        assert!(snap.has_drained());
        // A new operation by thread 1 started after the snapshot also counts
        // as progress (its counter increased), which is safe: the old
        // operation necessarily finished before the new one started.
        let g1b = h1.begin();
        assert!(snap.has_drained());
        drop(g1b);
    }
}
