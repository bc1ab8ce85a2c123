//! The tree node and its transactional fields.
//!
//! One node layout is shared by the portable tree (Algorithm 1) and the
//! optimized tree (Algorithm 2). Fields follow the paper:
//!
//! * `key` — immutable for the lifetime of a node incarnation (slots are
//!   recycled only after quiescence, so a traversal never observes the key of
//!   a slot change under it);
//! * `left` / `right` — transactional child pointers (`NodeId::NIL` is ⊥);
//! * `rem` — physical-removal flag, `No`, `Yes`, or `YesByLeftRotation`
//!   (Algorithm 2, needed by the optimized find to keep traversing through
//!   nodes removed by clone-based rotations);
//! * `value` — the mapped value (the paper's associative-array abstraction);
//! * `del` — logical-deletion flag (the *deleted* flag of §3.2);
//! * `heights` — the node-local estimated heights used by the distributed
//!   rebalancing scheme of Bougé et al. (§3.1): left subtree, right subtree
//!   and local height, packed as three unsigned 21-bit fields into one cell
//!   (see [`Heights`]). Only the maintenance thread reads and writes them,
//!   so they never conflict with abstract transactions, and packing them
//!   adds no conflict either. A height above 2^21 − 1 is stored clamped to
//!   it: only a path of two million nodes reaches that, and the clamp can
//!   only hide an imbalance between two such subtrees until rotations below
//!   them bring their heights under the cap;
//! * `hot` / `hot_sub` — the sampled, decaying access-frequency counter and
//!   its subtree aggregate. Both are **plain relaxed atomics**, never part of
//!   any STM read or write set: recording an access on traversal can neither
//!   abort the recording transaction nor conflict with any other one, which
//!   is what lets the maintenance thread do hot-key restructuring with zero
//!   added mutator aborts.
//!
//! # Layout
//!
//! A node is 128 bytes aligned to 64, so it spans exactly two cache lines.
//! Line 0 holds only what a traversal hop reads — `key`, `left`, `right`
//! and `rem` — so once the tree is balanced each hop of a find costs one
//! cache line. Line 1 holds the rest. Nothing an operation writes on its
//! target node (`value`, `del`) or a sampled traversal bumps (`hot`) sits
//! in line 0, so those writes never invalidate the line that concurrent
//! traversals read on their way through the node; only a structural change
//! (linking a child, a removal or a rotation) writes line 0.

use std::sync::atomic::{AtomicU64, Ordering};

use sf_stm::{TCell, TxValue};

use crate::arena::NodeId;

/// Key type of the associative array implemented by the trees.
pub type Key = u64;
/// Value type of the associative array implemented by the trees.
pub type Value = u64;

/// Sentinel key of the root node: `u64::MAX` plays the paper's ∞, so every
/// real key lives in the root's left subtree and the root itself is never
/// rotated nor removed.
pub const SENTINEL_KEY: Key = u64::MAX;

/// Physical-removal state of a node (the `rem` field of Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemState {
    /// The node is part of the tree.
    Present,
    /// The node has been physically unlinked (by a removal or a right
    /// rotation).
    Removed,
    /// The node has been physically unlinked by a **left** rotation; a
    /// traversal that looks for exactly this node's key must continue towards
    /// the right child to find the clone that replaced it (§3.3).
    RemovedByLeftRotation,
}

impl TxValue for RemState {
    fn encode(self) -> u64 {
        match self {
            RemState::Present => 0,
            RemState::Removed => 1,
            RemState::RemovedByLeftRotation => 2,
        }
    }
    fn decode(raw: u64) -> Self {
        match raw {
            0 => RemState::Present,
            1 => RemState::Removed,
            _ => RemState::RemovedByLeftRotation,
        }
    }
}

impl RemState {
    /// True for both removal variants (`true` and `true by left rot` are
    /// equivalent everywhere except one branch of the optimized find).
    #[inline]
    pub fn is_removed(self) -> bool {
        !matches!(self, RemState::Present)
    }
}

/// Which child of a parent a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The parent's left child (smaller keys).
    Left,
    /// The parent's right child (larger keys).
    Right,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// The side of a parent with key `parent_key` on which `key` belongs.
    pub fn for_key(key: Key, parent_key: Key) -> Side {
        if key < parent_key {
            Side::Left
        } else {
            Side::Right
        }
    }
}

/// Width in bits of each packed [`Heights`] field.
const HEIGHT_BITS: u32 = 21;

/// Largest height a [`Heights`] field holds; larger heights are stored
/// clamped to it.
const MAX_HEIGHT: i32 = (1 << HEIGHT_BITS) - 1;

/// The three node-local height estimates of the distributed rebalancing
/// scheme (§3.1), stored together in one transactional cell as three
/// unsigned 21-bit fields. Only the maintenance thread reads or writes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heights {
    /// Estimated height of the left subtree.
    pub left: i32,
    /// Estimated height of the right subtree.
    pub right: i32,
    /// Expected local height: `1 + max(left, right)`.
    pub local: i32,
}

impl Heights {
    /// The heights of a leaf: two empty subtrees, local height 1.
    pub const LEAF: Heights = Heights {
        left: 0,
        right: 0,
        local: 1,
    };

    /// The estimated height of the subtree on the given side.
    #[inline]
    pub fn side(self, side: Side) -> i32 {
        match side {
            Side::Left => self.left,
            Side::Right => self.right,
        }
    }

    /// A copy with the estimated height of the subtree on `side` set to `h`
    /// (the local height is left as it is).
    #[inline]
    pub fn with_side(self, side: Side, h: i32) -> Heights {
        match side {
            Side::Left => Heights { left: h, ..self },
            Side::Right => Heights { right: h, ..self },
        }
    }

    /// A copy whose local height is `1 + max(left, right)`.
    #[inline]
    pub fn settled(self) -> Heights {
        Heights {
            local: 1 + self.left.max(self.right),
            ..self
        }
    }
}

impl TxValue for Heights {
    fn encode(self) -> u64 {
        let field = |h: i32| h.clamp(0, MAX_HEIGHT) as u64;
        field(self.left) | field(self.right) << HEIGHT_BITS | field(self.local) << (2 * HEIGHT_BITS)
    }
    fn decode(raw: u64) -> Self {
        let field = |shift: u32| ((raw >> shift) & MAX_HEIGHT as u64) as i32;
        Heights {
            left: field(0),
            right: field(HEIGHT_BITS),
            local: field(2 * HEIGHT_BITS),
        }
    }
}

/// A binary-search-tree node with transactional fields, laid out as two
/// cache lines (see the [module docs](self#layout)).
#[derive(Debug)]
#[repr(C, align(64))]
pub struct Node {
    // Line 0: what a traversal hop reads.
    key: AtomicU64,
    /// Left child (keys smaller than `key`), `NodeId::NIL` when absent.
    pub left: TCell<NodeId>,
    /// Right child (keys larger than `key`), `NodeId::NIL` when absent.
    pub right: TCell<NodeId>,
    /// Physical removal flag (§3.3).
    pub rem: TCell<RemState>,
    _line0_pad: [u8; 8],
    // Line 1: everything else.
    /// Mapped value.
    pub value: TCell<Value>,
    /// Logical deletion flag (§3.2).
    pub del: TCell<bool>,
    /// Estimated subtree and local heights (maintenance-only).
    pub heights: TCell<Heights>,
    /// Sampled, decaying access-frequency counter (non-transactional).
    hot: AtomicU64,
    /// Subtree access mass aggregated by the last maintenance pass
    /// (maintenance-only scratch, non-transactional).
    hot_sub: AtomicU64,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            key: AtomicU64::new(0),
            left: TCell::new(NodeId::NIL),
            right: TCell::new(NodeId::NIL),
            rem: TCell::new(RemState::Present),
            _line0_pad: [0; 8],
            value: TCell::new(0),
            del: TCell::new(false),
            heights: TCell::new(Heights::LEAF),
            hot: AtomicU64::new(0),
            hot_sub: AtomicU64::new(0),
        }
    }
}

impl Node {
    /// The node's key. Keys are immutable for the lifetime of a node
    /// incarnation so a plain atomic load is sufficient (the paper's find
    /// reads `curr.k` outside transactional bookkeeping).
    #[inline]
    pub fn key(&self) -> Key {
        self.key.load(Ordering::Acquire)
    }

    /// (Re-)initialize a slot for a fresh node that is **not yet published**:
    /// called right after [`crate::arena::TxArena::alloc`] and before the
    /// transactional write that links the node into the tree, so plain stores
    /// are safe (the release fence of the publishing commit makes them
    /// visible to every reader that can reach the node).
    pub fn init_fresh(&self, key: Key, value: Value) {
        self.key.store(key, Ordering::Release);
        self.value.unsync_store(value);
        self.left.unsync_store(NodeId::NIL);
        self.right.unsync_store(NodeId::NIL);
        self.del.unsync_store(false);
        self.rem.unsync_store(RemState::Present);
        self.heights.unsync_store(Heights::LEAF);
        // sf-lint: allow(relaxed-atomic, hot counter reset at node init; slot reuse is ordered by the arena recycle protocol)
        self.hot.store(0, Ordering::Relaxed);
        // sf-lint: allow(relaxed-atomic, hot counter reset at node init; slot reuse is ordered by the arena recycle protocol)
        self.hot_sub.store(0, Ordering::Relaxed);
    }

    /// Record `weight` sampled accesses to this node. Relaxed add on a plain
    /// atomic: invisible to the STM, so it can never cause an abort.
    #[inline]
    pub fn record_access(&self, weight: u64) {
        crate::chk::benign_access(crate::chk::BenignKind::HotCounter);
        // sf-lint: allow(relaxed-atomic, hot-access mass; the maintenance hot pass reads it as a heuristic, staleness is by design)
        self.hot.fetch_add(weight, Ordering::Relaxed);
    }

    /// The node's own decayed access mass.
    #[inline]
    pub fn access_mass(&self) -> u64 {
        // sf-lint: allow(relaxed-atomic, hot-access mass read; restructuring heuristic tolerates stale values)
        self.hot.load(Ordering::Relaxed)
    }

    /// Halve the access counter (periodic decay so adaptation tracks shifting
    /// workloads). A racing `record_access` may be lost; the counter is a
    /// heuristic, not an invariant.
    #[inline]
    pub fn decay_access_mass(&self) {
        crate::chk::benign_access(crate::chk::BenignKind::HotCounter);
        // sf-lint: allow(relaxed-atomic, lossy decay by design; racing accesses may be dropped or halved either way)
        let mass = self.hot.load(Ordering::Relaxed);
        if mass > 0 {
            // sf-lint: allow(relaxed-atomic, lossy decay by design; racing accesses may be dropped or halved either way)
            self.hot.store(mass >> 1, Ordering::Relaxed);
        }
    }

    /// The subtree access mass stored by the last maintenance aggregation.
    #[inline]
    pub fn subtree_mass(&self) -> u64 {
        // sf-lint: allow(relaxed-atomic, cached subtree mass; advisory input to the hot pass, staleness tolerated)
        self.hot_sub.load(Ordering::Relaxed)
    }

    /// Store the subtree access mass (maintenance thread only).
    #[inline]
    pub fn set_subtree_mass(&self, mass: u64) {
        // sf-lint: allow(relaxed-atomic, cached subtree mass; advisory input to the hot pass, staleness tolerated)
        self.hot_sub.store(mass, Ordering::Relaxed);
    }

    /// The child cell on the given side.
    #[inline]
    pub fn child(&self, side: Side) -> &TCell<NodeId> {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rem_state_roundtrip() {
        for s in [
            RemState::Present,
            RemState::Removed,
            RemState::RemovedByLeftRotation,
        ] {
            assert_eq!(RemState::decode(s.encode()), s);
        }
        assert!(!RemState::Present.is_removed());
        assert!(RemState::Removed.is_removed());
        assert!(RemState::RemovedByLeftRotation.is_removed());
    }

    #[test]
    fn side_helpers() {
        assert_eq!(Side::Left.other(), Side::Right);
        assert_eq!(Side::Right.other(), Side::Left);
        assert_eq!(Side::for_key(3, 10), Side::Left);
        assert_eq!(Side::for_key(30, 10), Side::Right);
        assert_eq!(Side::for_key(10, 10), Side::Right);
    }

    #[test]
    fn init_fresh_resets_every_field() {
        let n = Node::default();
        n.del.unsync_store(true);
        n.rem.unsync_store(RemState::Removed);
        n.left.unsync_store(NodeId(7));
        n.heights.unsync_store(Heights {
            left: 8,
            right: 7,
            local: 9,
        });
        n.record_access(12);
        n.set_subtree_mass(99);
        n.init_fresh(42, 43);
        assert_eq!(n.key(), 42);
        assert_eq!(n.value.unsync_load(), 43);
        assert_eq!(n.left.unsync_load(), NodeId::NIL);
        assert_eq!(n.right.unsync_load(), NodeId::NIL);
        assert!(!n.del.unsync_load());
        assert_eq!(n.rem.unsync_load(), RemState::Present);
        assert_eq!(n.heights.unsync_load(), Heights::LEAF);
        assert_eq!(n.access_mass(), 0);
        assert_eq!(n.subtree_mass(), 0);
    }

    #[test]
    fn access_counter_records_and_decays() {
        let n = Node::default();
        assert_eq!(n.access_mass(), 0);
        n.record_access(64);
        n.record_access(64);
        assert_eq!(n.access_mass(), 128);
        n.decay_access_mass();
        assert_eq!(n.access_mass(), 64);
        n.decay_access_mass();
        n.decay_access_mass();
        assert_eq!(n.access_mass(), 16);
        n.set_subtree_mass(200);
        assert_eq!(n.subtree_mass(), 200);
    }

    #[test]
    fn child_accessors_match_sides() {
        let n = Node::default();
        n.left.unsync_store(NodeId(1));
        n.right.unsync_store(NodeId(2));
        assert_eq!(n.child(Side::Left).unsync_load(), NodeId(1));
        assert_eq!(n.child(Side::Right).unsync_load(), NodeId(2));
        let h = Heights::LEAF
            .with_side(Side::Left, 3)
            .with_side(Side::Right, 4);
        assert_eq!((h.left, h.right, h.local), (3, 4, 1));
        assert_eq!(h.side(Side::Left), 3);
        assert_eq!(h.side(Side::Right), 4);
        assert_eq!(h.settled(), Heights { local: 5, ..h });
    }

    #[test]
    fn heights_roundtrip_and_clamp() {
        for h in [0, 1, 2, 14, 23, 49, MAX_HEIGHT] {
            let packed = Heights {
                left: h,
                right: MAX_HEIGHT - h,
                local: h / 2,
            };
            assert_eq!(Heights::decode(packed.encode()), packed);
        }
        let clamped = Heights {
            left: MAX_HEIGHT + 1,
            right: i32::MAX,
            local: 5,
        };
        assert_eq!(
            Heights::decode(clamped.encode()),
            Heights {
                left: MAX_HEIGHT,
                right: MAX_HEIGHT,
                local: 5,
            }
        );
        assert_eq!(MAX_HEIGHT, (1 << 21) - 1);
    }

    #[test]
    fn node_is_two_cache_lines_with_the_hop_fields_in_the_first() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(size_of::<Node>(), 128);
        assert_eq!(align_of::<Node>(), 64);
        let hop_ends = [
            offset_of!(Node, key) + size_of::<AtomicU64>(),
            offset_of!(Node, left) + size_of::<TCell<NodeId>>(),
            offset_of!(Node, right) + size_of::<TCell<NodeId>>(),
            offset_of!(Node, rem) + size_of::<TCell<RemState>>(),
        ];
        assert!(hop_ends.iter().all(|&end| end <= 64), "{hop_ends:?}");
        // What mutators write per operation stays off the traversal line.
        for offset in [
            offset_of!(Node, value),
            offset_of!(Node, del),
            offset_of!(Node, hot),
        ] {
            assert!(offset >= 64, "mutator-written field at byte {offset}");
        }
    }
}
