//! The background maintenance (rotator) thread — §3.1, §3.2 and §3.4.
//!
//! The maintenance worker runs depth-first traversals of the tree. At every
//! node, each step in its own small transaction and only where it is due, it
//!
//! 1. **propagates** the estimated subtree heights (the packed `left`,
//!    `right` and `local` fields of [`Heights`]) from the children — the
//!    distributed balance information of Bougé et al. Only the maintenance
//!    thread writes heights, so a plain comparison of the node's stored heights with its children's decides
//!    whether a `propagate` transaction is needed at all; a child pointer
//!    that comparison reads stale is caught by the next pass,
//! 2. **physically removes** children that are logically deleted and have at
//!    most one child (the second phase of the decoupled deletion of §3.2),
//! 3. **rotates** children whose estimated heights differ by more than one —
//!    either a classic in-place rotation (Algorithm 1 / the portable tree) or
//!    the clone-based rotation of Figure 2(c) (Algorithm 2 / the optimized
//!    tree). When the pivot leans the other way (its inner subtree is taller
//!    than its outer one) the pivot is rotated outward first: the AVL double
//!    rotation, built from two single-rotation transactions. A single
//!    rotation would only mirror such a zig-zag imbalance, pass after pass.
//!
//! A tree left alone therefore reaches a true fixed point, where a pass
//! opens no transaction.
//!
//! Nodes unlinked by removals and clone-based rotations are *retired* and
//! recycled only once the quiescence condition of §3.4 holds (every abstract
//! operation that was in flight when the pass started has finished).
//!
//! # Pacing
//!
//! The background thread spends time in proportion to the work it finds.
//! After a pass that took `pass_time`, visited `visited` nodes and did
//! `useful` work (rotations, removals and height propagations), it waits
//! `min(8 × pass_time, pass_time × (visited / useful − 1))`, or
//! `8 × pass_time` when nothing was useful, and never less than
//! [`MaintenanceConfig::pass_delay`]. Passes thus run back to back while most
//! nodes need work, and the duty cycle never falls below 1/9 while the tree
//! is quiet. The wait is on a condition variable: stopping or pausing the
//! thread ends it at once. The nodes a pass retired are recycled after the
//! first `pass_delay` of the wait, once the operations in flight at the end
//! of the pass have finished, so a long wait does not hold them back.
//!
//! # Hot-key restructuring
//!
//! When [`MaintenanceConfig::hotspot_ratio`] is nonzero the pass becomes
//! *hotness-weighted*: it aggregates the sampled, decaying per-node access
//! counters (see [`crate::node::Node::record_access`]) into subtree masses
//! bottom-up, and performs splay-/weighted-AVL-style conditional rotations
//! that lift a subtree whose access mass dominates the mass the rotation
//! would push down (`rise > ratio × sink`, with `rise` the pivot plus its
//! outer subtree and `sink` the rotated node plus its other subtree).
//! Symmetrically, plain height rotations that would *sink* dominant mass are
//! deferred until the imbalance exceeds `imbalance_threshold + hot_slack`,
//! so hot-earned skew is not immediately undone — and because the undo
//! condition is the exact negation of the lift condition, the two rules
//! cannot oscillate. Hot rotations reuse the same classic/clone rotation
//! transactions as height balancing, so mutators see no new abort sources.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use sf_obs::{EventKind, FlightRecorder, Histogram, HistogramSnapshot};
use sf_stm::{ThreadCtx, Transaction, TxResult};

use crate::arena::{ActivitySnapshot, NodeId};
use crate::node::{Heights, RemState, Side, SENTINEL_KEY};
use crate::shared::TreeCore;

/// Process-wide histogram of maintenance pass durations (nanoseconds),
/// across every maintenance worker in the process.
pub fn pass_duration_histogram() -> &'static Histogram {
    static PASS_DURATION: Histogram = Histogram::new();
    &PASS_DURATION
}

/// Process-wide histogram of per-pass rotation work (rotations performed by
/// one pass, height- and hotness-driven alike).
pub fn pass_work_histogram() -> &'static Histogram {
    static PASS_WORK: Histogram = Histogram::new();
    &PASS_WORK
}

/// Snapshot of both maintenance histograms: `(pass duration ns, rotations
/// per pass)`. The harness deltas these around its measured phase.
pub fn maintenance_histograms() -> (HistogramSnapshot, HistogramSnapshot) {
    (
        pass_duration_histogram().snapshot(),
        pass_work_histogram().snapshot(),
    )
}

/// Which rotation/removal flavour the worker applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceStyle {
    /// Classic in-place rotations and plain unlinking (Algorithm 1).
    Classic,
    /// Clone-based rotations and parent-redirecting removal (Algorithm 2).
    CloneBased,
}

/// Tuning knobs of the maintenance thread.
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// Imbalance threshold that triggers a rotation: a rotation runs when
    /// `|heights.left - heights.right| > threshold`. The paper (following
    /// AVL-style local balancing) uses 1.
    pub imbalance_threshold: i32,
    /// Floor of the work-proportional wait between consecutive traversals
    /// (see the [module docs](self#pacing)): the background thread waits at
    /// least this long after every pass, however much work the pass found.
    /// `Duration::ZERO` lets fully useful passes run back to back.
    pub pass_delay: Duration,
    /// When `false`, the worker propagates heights and removes deleted nodes
    /// but never rotates (used by the no-restructuring baseline when physical
    /// removal is still wanted).
    pub enable_rotation: bool,
    /// When `false`, the worker never physically removes logically deleted
    /// nodes.
    pub enable_removal: bool,
    /// Dominance ratio of hot-key restructuring (`SF_HOTSPOT`): a hot
    /// rotation runs when the access mass it lifts exceeds `ratio ×` the
    /// mass it sinks. `0.0` (the default) disables hot-key restructuring
    /// entirely; enabled values are treated as at least `1.0`.
    pub hotspot_ratio: f64,
    /// Minimum rising access mass for a hot rotation, so cold noise never
    /// triggers restructuring.
    pub hot_min_mass: u64,
    /// Halve every visited node's access counter once per this many passes
    /// (`SF_HOT_DECAY`); `0` never decays. Decay makes the counters track a
    /// shifting workload instead of its whole history.
    pub hot_decay_passes: u64,
    /// Extra height imbalance tolerated in favour of hot subtrees: hot
    /// rotations may skew a subtree up to `imbalance_threshold + hot_slack`
    /// and height rotations that would sink dominant mass are deferred until
    /// the imbalance exceeds that same bound.
    pub hot_slack: i32,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            imbalance_threshold: 1,
            pass_delay: Duration::from_micros(100),
            enable_rotation: true,
            enable_removal: true,
            hotspot_ratio: 0.0,
            hot_min_mass: 64,
            hot_decay_passes: 0,
            hot_slack: 2,
        }
    }
}

impl MaintenanceConfig {
    /// Whether hot-key restructuring is enabled.
    pub fn hotspot_enabled(&self) -> bool {
        self.hotspot_ratio > 0.0
    }

    /// Apply the `SF_HOTSPOT` / `SF_HOT_DECAY` environment knobs on top of
    /// this configuration. `SF_HOTSPOT` set to a positive number becomes the
    /// dominance ratio (any other non-empty, non-`0` value enables the
    /// default ratio `2.0`); `SF_HOT_DECAY` sets the decay period in passes.
    /// Unset variables leave the configuration untouched, so a blanket
    /// `SF_HOTSPOT=1` turns hot restructuring on for every
    /// speculation-friendly backend a harness builds.
    pub fn with_hotspot_env(mut self) -> Self {
        if let Some(ratio) = hotspot_ratio_from_env() {
            self.hotspot_ratio = ratio;
        }
        if let Some(decay) = parsed_env("SF_HOT_DECAY") {
            self.hot_decay_passes = decay;
        }
        self
    }

    /// Enable hot-key restructuring with its default tuning (dominance ratio
    /// `2.0`, decay every `64` passes) — used by the registry's `-hot`
    /// backend variants. Environment overrides still apply on top.
    pub fn with_hotspot_defaults(mut self) -> Self {
        self.hotspot_ratio = 2.0;
        self.hot_decay_passes = 64;
        self.with_hotspot_env()
    }
}

fn parsed_env<T: std::str::FromStr>(var: &str) -> Option<T> {
    std::env::var(var).ok().and_then(|s| s.trim().parse().ok())
}

/// `SF_HOTSPOT` as a dominance ratio: unset, empty or `0` → `None`;
/// a positive number → that ratio; any other value → the default `2.0`.
fn hotspot_ratio_from_env() -> Option<f64> {
    let raw = std::env::var("SF_HOTSPOT").ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed == "0" {
        return None;
    }
    Some(
        trimmed
            .parse::<f64>()
            .ok()
            .filter(|ratio| *ratio > 0.0)
            .unwrap_or(2.0),
    )
}

/// Summary of one maintenance traversal.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PassReport {
    /// Nodes visited.
    pub visited: u64,
    /// Rotations performed (left + right).
    pub rotations: u64,
    /// Physical removals performed.
    pub removals: u64,
    /// Height propagations that changed stored values.
    pub propagations: u64,
    /// Retired nodes recycled into the free list this pass.
    pub recycled: u64,
    /// Rotations (included in `rotations`) performed because the lifted
    /// subtree's access mass dominated what the rotation pushed down.
    pub hot_rotations: u64,
}

impl PassReport {
    /// Work that changed the tree: rotations, removals and propagations.
    fn useful(&self) -> u64 {
        self.rotations + self.removals + self.propagations
    }
}

/// The wait after a pass that took `pass_time`, visited `visited` nodes and
/// did `useful` work: `pass_time × (visited / useful − 1)`, capped at
/// `8 × pass_time` (also the wait when nothing was useful) and never below
/// `floor`.
fn idle_wait(pass_time: Duration, visited: u64, useful: u64, floor: Duration) -> Duration {
    let cap = pass_time.saturating_mul(8);
    let wait = if useful == 0 {
        cap
    } else {
        let idle_per_busy = (visited as f64 / useful as f64 - 1.0).max(0.0);
        pass_time.mul_f64(idle_per_busy).min(cap)
    };
    wait.max(floor)
}

/// The maintenance worker. Drive it manually with [`MaintenanceWorker::run_pass`]
/// (tests, deterministic experiments) or let it run in the background with
/// [`MaintenanceWorker::spawn`].
#[derive(Debug)]
pub struct MaintenanceWorker {
    core: TreeCore,
    style: MaintenanceStyle,
    config: MaintenanceConfig,
    ctx: ThreadCtx,
    /// Nodes unlinked from the tree but not yet safe to recycle.
    retired: Vec<NodeId>,
    /// Completed passes, driving the access-counter decay cadence.
    passes: u64,
}

impl MaintenanceWorker {
    pub(crate) fn new(
        core: TreeCore,
        style: MaintenanceStyle,
        ctx: ThreadCtx,
        config: MaintenanceConfig,
    ) -> Self {
        MaintenanceWorker {
            core,
            style,
            config,
            ctx,
            retired: Vec::new(),
            passes: 0,
        }
    }

    /// The rotation flavour this worker applies.
    pub fn style(&self) -> MaintenanceStyle {
        self.style
    }

    /// Number of retired nodes awaiting quiescence.
    pub fn retired_backlog(&self) -> usize {
        self.retired.len()
    }

    /// Run one full depth-first traversal: propagate heights, remove deleted
    /// nodes, rotate unbalanced ones, then recycle previously retired nodes
    /// if every operation in flight at the start of the pass has drained.
    pub fn run_pass(&mut self) -> PassReport {
        crate::chk::sched_point(crate::chk::SchedEvent::MaintPass);
        let started = std::time::Instant::now();
        let mut report = PassReport::default();
        let snapshot = self.core.arena.activity_snapshot();
        let retired_before = self.retired.len();
        let decay = self.config.hotspot_enabled()
            && self.config.hot_decay_passes > 0
            && (self.passes + 1).is_multiple_of(self.config.hot_decay_passes);
        self.visit(self.core.root, Side::Left, &mut report, decay);
        self.visit(self.core.root, Side::Right, &mut report, decay);
        report.recycled = self.recycle_retired(&snapshot, retired_before);
        self.passes = self.passes.wrapping_add(1);
        let stats = &self.core.stats;
        // sf-lint: allow(relaxed-atomic, maintenance telemetry counter; aggregated for reports only)
        stats.maintenance_passes.fetch_add(1, Ordering::Relaxed);
        // Passes are rare relative to operations, so both pass histograms
        // record unconditionally (no sampling needed off the hot path).
        pass_duration_histogram().record_duration(started.elapsed());
        pass_work_histogram().record(report.rotations);
        report
    }

    /// Recycle the first `count` retired nodes — all retired before
    /// `snapshot` was taken — if every operation in flight at the snapshot
    /// has finished (§3.4). Returns the number recycled.
    fn recycle_retired(&mut self, snapshot: &ActivitySnapshot, count: usize) -> u64 {
        if !snapshot.has_drained() {
            return 0;
        }
        for id in self.retired.drain(..count) {
            self.core.arena.recycle(id);
        }
        let stats = &self.core.stats;
        // sf-lint: allow(relaxed-atomic, maintenance telemetry counter; aggregated for reports only)
        stats.recycled.fetch_add(count as u64, Ordering::Relaxed);
        count as u64
    }

    /// Keep running passes until nothing changes anymore (no rotation, no
    /// removal, no height update, and no retired node still draining into
    /// the free list). Useful to bring the tree to its fully balanced fixed
    /// point in tests and between benchmark phases.
    pub fn run_until_stable(&mut self, max_passes: usize) -> usize {
        for pass in 0..max_passes {
            let report = self.run_pass();
            if report.useful() == 0 && report.recycled == 0 {
                return pass + 1;
            }
        }
        max_passes
    }

    /// Move the worker to a dedicated background thread that runs passes,
    /// paced by the work they find (see the [module docs](self#pacing)),
    /// until the returned handle is stopped or dropped.
    pub fn spawn(self) -> MaintenanceHandle {
        let control = Arc::new(Control::default());
        let thread_control = Arc::clone(&control);
        let floor = self.config.pass_delay;
        let mut worker = self;
        let join = std::thread::Builder::new()
            .name("sf-tree-maintenance".to_string())
            .stack_size(16 << 20)
            .spawn(move || {
                while thread_control.park_while_paused() {
                    let started = Instant::now();
                    let report = worker.run_pass();
                    let wait = idle_wait(started.elapsed(), report.visited, report.useful(), floor);
                    if wait.is_zero() {
                        std::thread::yield_now();
                        continue;
                    }
                    // The operations in flight now finish long before a long
                    // wait ends: recycle what this pass retired after the
                    // floor, not after the next pass.
                    let snapshot = worker.core.arena.activity_snapshot();
                    let retired = worker.retired.len();
                    thread_control.idle_for(floor);
                    worker.recycle_retired(&snapshot, retired);
                    thread_control.idle_for(wait - floor);
                }
                // Once the thread exits, pausers must never wait on it again.
                thread_control.state.lock().idle = true;
                thread_control.wake.notify_all();
            })
            .expect("failed to spawn maintenance thread");
        MaintenanceHandle {
            control,
            join: Some(join),
        }
    }

    /// Post-order visit of the child of `parent` on `side`.
    fn visit(&mut self, parent: NodeId, side: Side, report: &mut PassReport, decay: bool) {
        let child = self.core.node(parent).child(side).unsync_load();
        if child.is_nil() {
            return;
        }
        report.visited += 1;
        self.visit(child, Side::Left, report, decay);
        self.visit(child, Side::Right, report, decay);
        let (is_sentinel, is_deleted, is_removed) = {
            let node = self.core.node(child);
            (
                node.key() == SENTINEL_KEY,
                node.del.unsync_load(),
                node.rem.unsync_load().is_removed(),
            )
        };
        // Physical removal of a logically deleted child with at most one
        // child of its own (§3.2: nodes with two children are skipped).
        if self.config.enable_removal && is_deleted && !is_removed && !is_sentinel {
            if let Some(removed) = self.remove(parent, side) {
                self.retired.push(removed);
                report.removals += 1;
                // sf-lint: allow(relaxed-atomic, maintenance telemetry counter; aggregated for reports only)
                self.core.stats.removals.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if !self.heights_current(child) && self.propagate(child) {
            report.propagations += 1;
            // sf-lint: allow(relaxed-atomic, maintenance telemetry counter; aggregated for reports only)
            self.core.stats.propagations.fetch_add(1, Ordering::Relaxed);
        }
        let hot = self.config.hotspot_enabled();
        if hot {
            // Aggregate subtree access masses bottom-up. The children were
            // just visited (post-order), so their `hot_sub` values are fresh
            // from this pass.
            let node = self.core.node(child);
            if decay {
                node.decay_access_mass();
            }
            let mass = node.access_mass()
                + self.subtree_mass_of(node.left.unsync_load())
                + self.subtree_mass_of(node.right.unsync_load());
            node.set_subtree_mass(mass);
        }
        if !self.config.enable_rotation || is_sentinel {
            return;
        }
        let balance = {
            let heights = self.core.node(child).heights.unsync_load();
            heights.left - heights.right
        };
        let threshold = self.config.imbalance_threshold;
        if !hot {
            if balance > threshold {
                self.rebalance(parent, side, child, Side::Right, report);
            } else if balance < -threshold {
                self.rebalance(parent, side, child, Side::Left, report);
            }
            return;
        }
        // Hotness-weighted balancing. Beyond the extended threshold, height
        // wins unconditionally (the logarithmic backstop). Within it, lift a
        // mass-dominant subtree; otherwise apply the plain height rule unless
        // the rotation would sink dominant mass — deferred until the skew
        // reaches the extended threshold. The defer condition is the exact
        // negation of the lift condition, so the two rules never oscillate.
        let extended = threshold.saturating_add(self.config.hot_slack.max(0));
        if balance > extended {
            self.rebalance(parent, side, child, Side::Right, report);
        } else if balance < -extended {
            self.rebalance(parent, side, child, Side::Left, report);
        } else if let Some(direction) = self.hot_rotation_direction(child) {
            self.try_rotate(parent, side, direction, report, true);
        } else if balance > threshold && !self.sinks_dominant_mass(child, Side::Right) {
            self.rebalance(parent, side, child, Side::Right, report);
        } else if balance < -threshold && !self.sinks_dominant_mass(child, Side::Left) {
            self.rebalance(parent, side, child, Side::Left, report);
        }
    }

    /// Whether the stored balance fields of `id` already match its children's
    /// stored heights, so propagating would change nothing. Plain loads are
    /// enough: only this thread writes heights, and a child pointer read
    /// stale here is caught by the next pass.
    fn heights_current(&self, id: NodeId) -> bool {
        let node = self.core.node(id);
        let left = self.stored_height(node.left.unsync_load());
        let right = self.stored_height(node.right.unsync_load());
        let heights = node.heights.unsync_load();
        heights.left == left && heights.right == right && heights.local == 1 + left.max(right)
    }

    /// Stored height of the subtree rooted at `id` (`0` for ⊥), read plainly.
    fn stored_height(&self, id: NodeId) -> i32 {
        if id.is_nil() {
            0
        } else {
            self.core.node(id).heights.unsync_load().local
        }
    }

    /// Height-driven rotation of the child of `parent` on `side` in
    /// `direction`. When the pivot leans the other way (its inner subtree is
    /// taller than its outer one), a single rotation would only mirror the
    /// imbalance, so the pivot is first rotated outward: the AVL double
    /// rotation, built from two single-rotation transactions.
    fn rebalance(
        &mut self,
        parent: NodeId,
        side: Side,
        child: NodeId,
        direction: Side,
        report: &mut PassReport,
    ) {
        let heavy_side = direction.other();
        let pivot_id = self.core.node(child).child(heavy_side).unsync_load();
        if !pivot_id.is_nil() {
            let pivot = self.core.node(pivot_id).heights.unsync_load();
            if pivot.side(direction) > pivot.side(heavy_side) {
                self.try_rotate(child, heavy_side, heavy_side, report, false);
            }
        }
        self.try_rotate(parent, side, direction, report, false);
    }

    /// Perform one rotation and account for it.
    fn try_rotate(
        &mut self,
        parent: NodeId,
        side: Side,
        direction: Side,
        report: &mut PassReport,
        hot: bool,
    ) {
        if let Some(retired) = self.rotate(parent, side, direction) {
            if !retired.is_nil() {
                self.retired.push(retired);
            }
            report.rotations += 1;
            let stats = &self.core.stats;
            match direction {
                // sf-lint: allow(relaxed-atomic, rotation telemetry counters; aggregated for reports only)
                Side::Right => stats.right_rotations.fetch_add(1, Ordering::Relaxed),
                // sf-lint: allow(relaxed-atomic, rotation telemetry counter; aggregated for reports only)
                Side::Left => stats.left_rotations.fetch_add(1, Ordering::Relaxed),
            };
            if hot {
                report.hot_rotations += 1;
                // sf-lint: allow(relaxed-atomic, hot-rotation telemetry counter; aggregated for reports only)
                stats.hot_rotations.fetch_add(1, Ordering::Relaxed);
                let key = self.core.node(parent).key();
                FlightRecorder::global().record(EventKind::HotRotation, key, 0);
            }
        }
    }

    /// Subtree access mass of `id` as of the last aggregation (`0` for ⊥).
    fn subtree_mass_of(&self, id: NodeId) -> u64 {
        if id.is_nil() {
            0
        } else {
            self.core.node(id).subtree_mass()
        }
    }

    /// Access masses a rotation of `child` in `direction` would shift, as
    /// `(rise, sink)`: for a right rotation the pivot (left child) and its
    /// outer subtree rise one level while `child` and its right subtree sink
    /// one (mirror for left); the transfer subtree keeps its depth. `None`
    /// when there is no pivot to lift.
    fn rotation_mass_shift(&self, child: NodeId, direction: Side) -> Option<(u64, u64)> {
        let heavy_side = direction.other();
        let node = self.core.node(child);
        let pivot_id = node.child(heavy_side).unsync_load();
        if pivot_id.is_nil() {
            return None;
        }
        let pivot = self.core.node(pivot_id);
        let rise =
            pivot.access_mass() + self.subtree_mass_of(pivot.child(heavy_side).unsync_load());
        let sink =
            node.access_mass() + self.subtree_mass_of(node.child(heavy_side.other()).unsync_load());
        Some((rise, sink))
    }

    /// Direction of a profitable hot rotation at `child`, if any: the rising
    /// mass must dominate the sinking mass by the configured ratio, clear the
    /// noise floor, and leave the local heights within the extended
    /// imbalance bound. At ratio ≥ 1 at most one direction can qualify.
    fn hot_rotation_direction(&self, child: NodeId) -> Option<Side> {
        let ratio = self.config.hotspot_ratio.max(1.0);
        let mut best: Option<(Side, u64)> = None;
        for direction in [Side::Right, Side::Left] {
            if let Some((rise, sink)) = self.rotation_mass_shift(child, direction) {
                if rise >= self.config.hot_min_mass
                    && rise as f64 > ratio * sink as f64
                    && self.rotation_stays_balanced(child, direction)
                {
                    let gain = rise.saturating_sub(sink);
                    if best.is_none_or(|(_, g)| gain > g) {
                        best = Some((direction, gain));
                    }
                }
            }
        }
        best.map(|(direction, _)| direction)
    }

    /// Whether a height rotation of `child` in `direction` would sink access
    /// mass that dominates what it lifts — in which case it is deferred.
    fn sinks_dominant_mass(&self, child: NodeId, direction: Side) -> bool {
        let ratio = self.config.hotspot_ratio.max(1.0);
        match self.rotation_mass_shift(child, direction) {
            Some((rise, sink)) => {
                sink >= self.config.hot_min_mass && sink as f64 > ratio * rise as f64
            }
            None => false,
        }
    }

    /// Predict (from the stored height estimates) whether rotating `child`
    /// in `direction` leaves both modified nodes within the extended
    /// imbalance bound, so the height backstop never undoes a hot rotation.
    fn rotation_stays_balanced(&self, child: NodeId, direction: Side) -> bool {
        let extended = self
            .config
            .imbalance_threshold
            .saturating_add(self.config.hot_slack.max(0));
        let heavy_side = direction.other();
        let node = self.core.node(child);
        let pivot_id = node.child(heavy_side).unsync_load();
        if pivot_id.is_nil() {
            return false;
        }
        let pivot = self.core.node(pivot_id).heights.unsync_load();
        // Post-rotation, `child` keeps the pivot's inner (transfer) subtree
        // plus its own outer subtree, and the pivot adopts `child` next to
        // its outer subtree.
        let transfer_h = pivot.side(heavy_side.other());
        let outer_h = node.heights.unsync_load().side(heavy_side.other());
        let child_after = 1 + transfer_h.max(outer_h);
        let pivot_outer_h = pivot.side(heavy_side);
        (transfer_h - outer_h).abs() <= extended && (pivot_outer_h - child_after).abs() <= extended
    }

    /// Height of a subtree rooted at `id`, read transactionally.
    fn height_of<'env>(
        core: &'env TreeCore,
        tx: &mut Transaction<'env>,
        id: NodeId,
    ) -> TxResult<i32> {
        if id.is_nil() {
            Ok(0)
        } else {
            Ok(tx.read(&core.node(id).heights)?.local)
        }
    }

    /// Recompute and store the balance fields of `id` from its children.
    /// Returns the node's new local height.
    fn update_heights<'env>(
        core: &'env TreeCore,
        tx: &mut Transaction<'env>,
        id: NodeId,
    ) -> TxResult<i32> {
        let node = core.node(id);
        let left = tx.read(&node.left)?;
        let right = tx.read(&node.right)?;
        let lh = Self::height_of(core, tx, left)?;
        let rh = Self::height_of(core, tx, right)?;
        let local = 1 + lh.max(rh);
        let heights = Heights {
            left: lh,
            right: rh,
            local,
        };
        if tx.read(&node.heights)? != heights {
            tx.write(&node.heights, heights)?;
        }
        Ok(local)
    }

    /// One propagate operation (§3.1): refresh the balance fields of a single
    /// node in its own transaction. Returns `true` when something changed.
    fn propagate(&mut self, id: NodeId) -> bool {
        let core = &self.core;
        self.ctx.atomically(|tx| {
            let node = core.node(id);
            let before = tx.read(&node.heights)?;
            Self::update_heights(core, tx, id)?;
            Ok(tx.read(&node.heights)? != before)
        })
    }

    /// One physical removal (§3.2 / Algorithm 2 `remove`): unlink the child of
    /// `parent` on `side` if it is logically deleted and has at most one
    /// child. Returns the unlinked node on success.
    fn remove(&mut self, parent: NodeId, side: Side) -> Option<NodeId> {
        let core = &self.core;
        let style = self.style;
        self.ctx.atomically(|tx| {
            let parent_node = core.node(parent);
            if style == MaintenanceStyle::CloneBased && tx.read(&parent_node.rem)?.is_removed() {
                return Ok(None);
            }
            let n_id = tx.read(parent_node.child(side))?;
            if n_id.is_nil() {
                return Ok(None);
            }
            let n = core.node(n_id);
            if !tx.read(&n.del)? {
                return Ok(None);
            }
            let left = tx.read(&n.left)?;
            let replacement = if !left.is_nil() {
                if !tx.read(&n.right)?.is_nil() {
                    return Ok(None); // two children: skip (§3.2)
                }
                left
            } else {
                tx.read(&n.right)?
            };
            tx.write(parent_node.child(side), replacement)?;
            if style == MaintenanceStyle::CloneBased {
                // Leave an escape path for traversals preempted on `n`.
                tx.write(&n.left, parent)?;
                tx.write(&n.right, parent)?;
                tx.write(&n.rem, RemState::Removed)?;
            }
            // Refresh the parent's balance estimate for this side.
            let h = Self::height_of(core, tx, replacement)?;
            let heights = tx.read(&parent_node.heights)?.with_side(side, h);
            tx.write(&parent_node.heights, heights.settled())?;
            Ok(Some(n_id))
        })
    }

    /// One local rotation: `direction == Right` rotates the (left-heavy)
    /// child of `parent` on `side` to the right, `Left` is the mirror.
    /// Returns `Some(retired)` on success, where `retired` is the node that
    /// left the tree (`NodeId::NIL` for classic in-place rotations).
    fn rotate(&mut self, parent: NodeId, side: Side, direction: Side) -> Option<NodeId> {
        match self.style {
            MaintenanceStyle::Classic => self.rotate_classic(parent, side, direction),
            MaintenanceStyle::CloneBased => self.rotate_clone(parent, side, direction),
        }
    }

    /// Classic in-place rotation (Algorithm 1, Figure 2(b)).
    fn rotate_classic(&mut self, parent: NodeId, side: Side, direction: Side) -> Option<NodeId> {
        let core = &self.core;
        // For a right rotation the pivot is the (heavier) left child; mirror
        // for a left rotation.
        let heavy_side = match direction {
            Side::Right => Side::Left,
            Side::Left => Side::Right,
        };
        let committed = self.ctx.atomically(|tx| {
            let parent_node = core.node(parent);
            let n_id = tx.read(parent_node.child(side))?;
            if n_id.is_nil() {
                return Ok(false);
            }
            let n = core.node(n_id);
            let pivot_id = tx.read(n.child(heavy_side))?;
            if pivot_id.is_nil() {
                return Ok(false);
            }
            let pivot = core.node(pivot_id);
            let transfer = tx.read(pivot.child(heavy_side.other()))?;
            // n adopts the pivot's inner subtree; the pivot adopts n.
            tx.write(n.child(heavy_side), transfer)?;
            tx.write(pivot.child(heavy_side.other()), n_id)?;
            tx.write(parent_node.child(side), pivot_id)?;
            // Refresh balance estimates bottom-up: n first, then the pivot,
            // then the parent's view of this subtree.
            Self::update_heights(core, tx, n_id)?;
            let pivot_h = Self::update_heights(core, tx, pivot_id)?;
            let parent_heights = tx.read(&parent_node.heights)?.with_side(side, pivot_h);
            tx.write(&parent_node.heights, parent_heights)?;
            Ok(true)
        });
        committed.then_some(NodeId::NIL)
    }

    /// Clone-based rotation (Algorithm 2, Figure 2(c)): the rotated node is
    /// replaced by a fresh copy and only its removed flag is written, so
    /// traversals preempted on it keep a consistent path into the tree.
    fn rotate_clone(&mut self, parent: NodeId, side: Side, direction: Side) -> Option<NodeId> {
        let core = &self.core;
        let heavy_side = match direction {
            Side::Right => Side::Left,
            Side::Left => Side::Right,
        };
        let removed_state = match direction {
            Side::Right => RemState::Removed,
            Side::Left => RemState::RemovedByLeftRotation,
        };
        self.ctx.atomically(|tx| {
            let parent_node = core.node(parent);
            if tx.read(&parent_node.rem)?.is_removed() {
                return Ok(None);
            }
            let n_id = tx.read(parent_node.child(side))?;
            if n_id.is_nil() {
                return Ok(None);
            }
            let n = core.node(n_id);
            if tx.read(&n.rem)?.is_removed() {
                return Ok(None);
            }
            let pivot_id = tx.read(n.child(heavy_side))?;
            if pivot_id.is_nil() {
                return Ok(None);
            }
            let pivot = core.node(pivot_id);
            let transfer = tx.read(pivot.child(heavy_side.other()))?;
            let outer = tx.read(n.child(heavy_side.other()))?;
            // Build the clone of n (not yet published).
            let clone_id = core.alloc_fresh(n.key(), tx.read(&n.value)?);
            let clone = core.node(clone_id);
            clone.del.unsync_store(tx.read(&n.del)?);
            clone.child(heavy_side).unsync_store(transfer);
            clone.child(heavy_side.other()).unsync_store(outer);
            let transfer_h = Self::height_of(core, tx, transfer)?;
            let outer_h = Self::height_of(core, tx, outer)?;
            let clone_heights = Heights::LEAF
                .with_side(heavy_side, transfer_h)
                .with_side(heavy_side.other(), outer_h)
                .settled();
            clone.heights.unsync_store(clone_heights);
            // The clone is the same logical node: carry its access heat so
            // hot-key bookkeeping survives clone-based restructuring.
            clone.record_access(n.access_mass());
            let arena = Arc::clone(&core.arena);
            tx.on_abort(move || arena.recycle(clone_id));
            // Publish: the pivot adopts the clone in place of its inner
            // subtree, n is marked removed (children untouched), the parent
            // now points at the pivot.
            tx.write(pivot.child(heavy_side.other()), clone_id)?;
            tx.write(&n.rem, removed_state)?;
            tx.write(parent_node.child(side), pivot_id)?;
            // Refresh the pivot's balance estimate and the parent's view.
            let pivot_heights = tx
                .read(&pivot.heights)?
                .with_side(heavy_side.other(), clone_heights.local)
                .settled();
            tx.write(&pivot.heights, pivot_heights)?;
            let parent_heights = tx
                .read(&parent_node.heights)?
                .with_side(side, pivot_heights.local);
            tx.write(&parent_node.heights, parent_heights)?;
            Ok(Some(n_id))
        })
    }
}

/// Stop and pause coordination between a [`MaintenanceHandle`] and its
/// thread.
#[derive(Debug)]
struct Control {
    state: Mutex<ControlState>,
    /// Signalled on every state change: stop, pause request or release, and
    /// the thread parking.
    wake: Condvar,
}

#[derive(Debug, Default)]
struct ControlState {
    stop: bool,
    /// Number of outstanding [`MaintenancePause`] guards.
    pause_requests: usize,
    /// Set by the thread while it is parked between passes (and permanently
    /// once it exits).
    idle: bool,
}

impl Default for Control {
    fn default() -> Self {
        Control {
            state: Mutex::named(ControlState::default(), "maintenance.control"),
            wake: Condvar::new(),
        }
    }
}

impl Control {
    /// Called by the thread before each pass: park while a pause is
    /// requested. Returns `false` once the thread must stop.
    fn park_while_paused(&self) -> bool {
        let mut state = self.state.lock();
        if state.pause_requests > 0 && !state.stop {
            state.idle = true;
            self.wake.notify_all();
            while state.pause_requests > 0 && !state.stop {
                self.wake.wait(&mut state);
            }
            state.idle = false;
        }
        !state.stop
    }

    /// Wait up to `wait` between passes, returning early on a stop or pause
    /// request.
    fn idle_for(&self, wait: Duration) {
        let deadline = Instant::now() + wait;
        let mut state = self.state.lock();
        while !state.stop && state.pause_requests == 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.wake.wait_for(&mut state, deadline - now);
        }
    }
}

/// Guard returned by [`MaintenanceHandle::pause`]. While it is alive the
/// maintenance thread is parked between passes (no restructuring runs);
/// dropping it resumes maintenance.
#[derive(Debug)]
pub struct MaintenancePause<'a> {
    control: &'a Control,
}

impl Drop for MaintenancePause<'_> {
    fn drop(&mut self) {
        self.control.state.lock().pause_requests -= 1;
        self.control.wake.notify_all();
    }
}

/// Handle of a running background maintenance thread. Stopping (or dropping)
/// the handle terminates the thread.
#[derive(Debug)]
pub struct MaintenanceHandle {
    control: Arc<Control>,
    join: Option<JoinHandle<()>>,
}

impl MaintenanceHandle {
    /// Ask the maintenance thread to stop and wait for it to finish its
    /// current pass. A thread waiting between passes stops at once.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    /// Park the maintenance thread between passes and wait until it is
    /// parked. While the returned guard lives, no restructuring runs, so
    /// quiescent inspections (`len_quiescent`, consistency checks) see a
    /// stable tree. Pauses nest: maintenance resumes when the last guard
    /// drops.
    pub fn pause(&self) -> MaintenancePause<'_> {
        let mut state = self.control.state.lock();
        state.pause_requests += 1;
        self.control.wake.notify_all();
        while !state.idle {
            self.control.wake.wait(&mut state);
        }
        MaintenancePause {
            control: &self.control,
        }
    }

    fn stop_inner(&mut self) {
        self.control.state.lock().stop = true;
        self.control.wake.notify_all();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for MaintenanceHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::TxMap;
    use crate::optimized::OptSpecFriendlyTree;
    use crate::portable::SpecFriendlyTree;
    use sf_stm::Stm;

    #[test]
    fn classic_maintenance_balances_a_chain() {
        let stm = Stm::default_config();
        let tree = SpecFriendlyTree::new();
        let mut h = tree.register(stm.register());
        for k in 0..64u64 {
            tree.insert(&mut h, k, k);
        }
        assert_eq!(tree.inspect().depth(), 64, "inserting in order degenerates");
        let mut worker = tree.maintenance_worker(stm.register());
        worker.run_until_stable(256);
        let depth = tree.inspect().depth();
        assert!(
            depth <= 10,
            "balanced depth should be ~log2(64), got {depth}"
        );
        tree.inspect().check_consistency().unwrap();
        assert_eq!(tree.len_quiescent(), 64);
        assert!(tree.stats().rotations() > 0);
    }

    #[test]
    fn clone_maintenance_balances_a_chain_and_retires_nodes() {
        let stm = Stm::default_config();
        let tree = OptSpecFriendlyTree::new();
        let mut h = tree.register(stm.register());
        for k in 0..64u64 {
            tree.insert(&mut h, k, k);
        }
        let mut worker = tree.maintenance_worker(stm.register());
        worker.run_until_stable(256);
        let depth = tree.inspect().depth();
        assert!(
            depth <= 10,
            "balanced depth should be ~log2(64), got {depth}"
        );
        tree.inspect().check_consistency().unwrap();
        assert_eq!(tree.len_quiescent(), 64);
        // Clone-based rotations retire the replaced nodes; with no concurrent
        // operations they are recycled on the next pass.
        assert!(tree.arena().recycled() > 0);
        assert_eq!(worker.retired_backlog(), 0);
    }

    #[test]
    fn removal_unlinks_logically_deleted_nodes() {
        let stm = Stm::default_config();
        let tree = OptSpecFriendlyTree::new();
        let mut h = tree.register(stm.register());
        for k in 0..32u64 {
            tree.insert(&mut h, k, k);
        }
        for k in (0..32u64).step_by(2) {
            tree.delete(&mut h, k);
        }
        let mut worker = tree.maintenance_worker(stm.register());
        worker.run_until_stable(256);
        // Logically deleted nodes with <= 1 child are physically removed;
        // deleted nodes with two children may legitimately linger (§3.2).
        let reachable = tree.inspect().reachable_nodes();
        assert_eq!(tree.len_quiescent(), 16);
        assert!(
            reachable < 33,
            "expected at least some deleted nodes to be physically removed, {reachable} reachable"
        );
        assert!(tree.stats().removals.load(Ordering::Relaxed) >= 8);
        tree.inspect().check_consistency().unwrap();
    }

    #[test]
    fn background_thread_keeps_tree_balanced_under_load() {
        let stm = Stm::default_config();
        let tree = Arc::new(OptSpecFriendlyTree::new());
        let maintenance = tree.start_maintenance_with(
            stm.register(),
            MaintenanceConfig {
                pass_delay: Duration::from_micros(10),
                ..MaintenanceConfig::default()
            },
        );
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let mut h = tree.register(stm.register());
                std::thread::spawn(move || {
                    for i in 0..400u64 {
                        let k = t * 10_000 + i;
                        tree.insert(&mut h, k, k);
                        if i % 3 == 0 {
                            tree.delete(&mut h, k);
                        }
                        assert_eq!(tree.contains(&mut h, k), i % 3 != 0);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        maintenance.stop();
        tree.inspect().check_consistency().unwrap();
        let expected: usize = 2 * (400 - 400usize.div_ceil(3));
        assert_eq!(tree.len_quiescent(), expected);
    }

    #[test]
    fn quiescence_defers_recycling_while_an_op_is_pending() {
        let stm = Stm::default_config();
        let tree = OptSpecFriendlyTree::new();
        let mut h = tree.register(stm.register());
        for k in 0..16u64 {
            tree.insert(&mut h, k, k);
        }
        tree.delete(&mut h, 3);
        // Simulate a reader stuck in the middle of an operation.
        let stuck = tree.arena().register_activity();
        let guard = stuck.begin();
        let mut worker = tree.maintenance_worker(stm.register());
        worker.run_pass();
        let backlog_while_pending = worker.retired_backlog();
        assert!(backlog_while_pending > 0, "retired nodes must be held back");
        worker.run_pass();
        assert!(worker.retired_backlog() >= backlog_while_pending);
        drop(guard);
        // Once the stuck operation has finished, passes keep retiring nodes
        // (rotations are still balancing the chain) but everything retired
        // before a pass whose snapshot has drained gets recycled; at the
        // fixed point the backlog is empty.
        worker.run_until_stable(256);
        assert_eq!(worker.retired_backlog(), 0, "drained after the op finished");
    }

    #[test]
    fn hot_passes_lift_a_hammered_key_under_both_styles() {
        let hot_config = MaintenanceConfig {
            hotspot_ratio: 2.0,
            hot_min_mass: 16,
            ..MaintenanceConfig::default()
        };
        for optimized in [false, true] {
            let stm = Stm::default_config();
            let (before, after, hot_rotations) = if optimized {
                let tree = OptSpecFriendlyTree::new();
                let mut h = tree.register(stm.register());
                for k in 0..127u64 {
                    tree.insert(&mut h, k, k);
                }
                tree.maintenance_worker(stm.register())
                    .run_until_stable(256);
                let deep = (0..127u64)
                    .max_by_key(|&k| tree.inspect().key_depth(k).unwrap())
                    .unwrap();
                let before = tree.inspect().key_depth(deep).unwrap();
                tree.set_hot_sample(1);
                for _ in 0..4096 {
                    tree.get(&mut h, deep);
                }
                tree.maintenance_worker_with(stm.register(), hot_config.clone())
                    .run_until_stable(256);
                tree.inspect().check_consistency().unwrap();
                assert_eq!(tree.len_quiescent(), 127);
                (
                    before,
                    tree.inspect().key_depth(deep).unwrap(),
                    tree.stats().hot_rotations.load(Ordering::Relaxed),
                )
            } else {
                let tree = SpecFriendlyTree::new();
                let mut h = tree.register(stm.register());
                for k in 0..127u64 {
                    tree.insert(&mut h, k, k);
                }
                tree.maintenance_worker(stm.register())
                    .run_until_stable(256);
                let deep = (0..127u64)
                    .max_by_key(|&k| tree.inspect().key_depth(k).unwrap())
                    .unwrap();
                let before = tree.inspect().key_depth(deep).unwrap();
                tree.set_hot_sample(1);
                for _ in 0..4096 {
                    tree.get(&mut h, deep);
                }
                tree.maintenance_worker_with(stm.register(), hot_config.clone())
                    .run_until_stable(256);
                tree.inspect().check_consistency().unwrap();
                assert_eq!(tree.len_quiescent(), 127);
                (
                    before,
                    tree.inspect().key_depth(deep).unwrap(),
                    tree.stats().hot_rotations.load(Ordering::Relaxed),
                )
            };
            assert!(before >= 5, "127 balanced keys put the deepest at >= 5");
            assert!(
                after < before,
                "hot passes must lift the hammered key (optimized={optimized}): \
                 depth {before} -> {after}"
            );
            assert!(
                hot_rotations > 0,
                "lift must be attributed to hot rotations"
            );
        }
    }

    #[test]
    fn hot_restructuring_with_decay_preserves_entries_and_invariants() {
        for optimized in [false, true] {
            let stm = Stm::default_config();
            let keys: Vec<u64> = (0..200u64).map(|i| (i * 97) % 257).collect();
            let expected: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
            let config = MaintenanceConfig {
                hotspot_ratio: 1.5,
                hot_min_mass: 8,
                hot_decay_passes: 4,
                ..MaintenanceConfig::default()
            };
            let live: Vec<u64> = if optimized {
                let tree = OptSpecFriendlyTree::new();
                let mut h = tree.register(stm.register());
                tree.set_hot_sample(1);
                for &k in &keys {
                    tree.insert(&mut h, k, k + 1);
                }
                // Skewed lookups: a handful of keys take most of the mass.
                for i in 0..8192u64 {
                    tree.get(&mut h, keys[(i % 13) as usize]);
                }
                let mut worker = tree.maintenance_worker_with(stm.register(), config.clone());
                worker.run_until_stable(512);
                tree.inspect().check_consistency().unwrap();
                tree.inspect()
                    .live_entries()
                    .iter()
                    .map(|(k, _)| *k)
                    .collect()
            } else {
                let tree = SpecFriendlyTree::new();
                let mut h = tree.register(stm.register());
                tree.set_hot_sample(1);
                for &k in &keys {
                    tree.insert(&mut h, k, k + 1);
                }
                for i in 0..8192u64 {
                    tree.get(&mut h, keys[(i % 13) as usize]);
                }
                let mut worker = tree.maintenance_worker_with(stm.register(), config.clone());
                worker.run_until_stable(512);
                tree.inspect().check_consistency().unwrap();
                tree.inspect()
                    .live_entries()
                    .iter()
                    .map(|(k, _)| *k)
                    .collect()
            };
            assert_eq!(live, expected.iter().copied().collect::<Vec<_>>());
        }
    }

    #[test]
    fn rotations_preserve_all_entries_under_both_styles() {
        for optimized in [false, true] {
            let stm = Stm::default_config();
            let keys: Vec<u64> = (0..128u64).map(|i| (i * 97) % 131).collect();
            let expected: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
            if optimized {
                let tree = OptSpecFriendlyTree::new();
                let mut h = tree.register(stm.register());
                for &k in &keys {
                    tree.insert(&mut h, k, k + 1);
                }
                let mut worker = tree.maintenance_worker(stm.register());
                worker.run_until_stable(512);
                let live: Vec<u64> = tree
                    .inspect()
                    .live_entries()
                    .iter()
                    .map(|(k, _)| *k)
                    .collect();
                assert_eq!(live, expected.iter().copied().collect::<Vec<_>>());
            } else {
                let tree = SpecFriendlyTree::new();
                let mut h = tree.register(stm.register());
                for &k in &keys {
                    tree.insert(&mut h, k, k + 1);
                }
                let mut worker = tree.maintenance_worker(stm.register());
                worker.run_until_stable(512);
                let live: Vec<u64> = tree
                    .inspect()
                    .live_entries()
                    .iter()
                    .map(|(k, _)| *k)
                    .collect();
                assert_eq!(live, expected.iter().copied().collect::<Vec<_>>());
            }
        }
    }

    /// A worker of `style` over a fresh tree holding `keys`, inserted in the
    /// given order.
    fn worker_over(style: MaintenanceStyle, keys: &[u64]) -> MaintenanceWorker {
        let stm = Stm::default_config();
        match style {
            MaintenanceStyle::Classic => {
                let tree = SpecFriendlyTree::new();
                let mut h = tree.register(stm.register());
                for &k in keys {
                    assert!(tree.insert(&mut h, k, k));
                }
                tree.maintenance_worker(stm.register())
            }
            MaintenanceStyle::CloneBased => {
                let tree = OptSpecFriendlyTree::new();
                let mut h = tree.register(stm.register());
                for &k in keys {
                    assert!(tree.insert(&mut h, k, k));
                }
                tree.maintenance_worker(stm.register())
            }
        }
    }

    /// Check the subtree at `id` bottom-up: every stored height equals the
    /// true height and sibling heights differ by at most one. Returns the
    /// subtree's height.
    fn assert_avl_heights(core: &TreeCore, id: NodeId) -> i32 {
        if id.is_nil() {
            return 0;
        }
        let node = core.node(id);
        let left = assert_avl_heights(core, node.left.unsync_load());
        let right = assert_avl_heights(core, node.right.unsync_load());
        let local = 1 + left.max(right);
        let heights = node.heights.unsync_load();
        assert_eq!(
            (heights.left, heights.right, heights.local),
            (left, right, local),
            "stored heights of key {}",
            node.key()
        );
        assert!(
            (left - right).abs() <= 1,
            "key {} is unbalanced: {left} vs {right}",
            node.key()
        );
        local
    }

    /// Distinct keys in a seeded pseudo-random insertion order.
    fn shuffled_keys(n: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..keys.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            keys.swap(i, (state % (i as u64 + 1)) as usize);
        }
        keys
    }

    /// Run passes to the fixed point and check it is a true one: one more
    /// pass does nothing and the tree is AVL-balanced with exact heights.
    fn assert_reaches_balanced_fixed_point(style: MaintenanceStyle, keys: &[u64]) {
        const CAP: usize = 4096;
        let mut worker = worker_over(style, keys);
        let passes = worker.run_until_stable(CAP);
        assert!(passes < CAP, "{style:?}: no fixed point in {CAP} passes");
        let report = worker.run_pass();
        assert_eq!(
            (report.rotations, report.propagations),
            (0, 0),
            "{style:?}: a pass at the fixed point still works: {report:?}"
        );
        let top = worker.core.node(worker.core.root).left.unsync_load();
        let height = assert_avl_heights(&worker.core, top);
        let bound = 1.4405 * (keys.len() as f64 + 2.0).log2();
        assert!(
            f64::from(height) <= bound,
            "{style:?}: height {height} over the AVL bound {bound:.2}"
        );
    }

    const STYLES: [MaintenanceStyle; 2] = [MaintenanceStyle::Classic, MaintenanceStyle::CloneBased];

    #[test]
    fn random_tree_reaches_a_balanced_fixed_point() {
        for style in STYLES {
            assert_reaches_balanced_fixed_point(style, &shuffled_keys(4096));
        }
    }

    #[test]
    fn sorted_chain_reaches_a_balanced_fixed_point() {
        let keys: Vec<u64> = (0..256).collect();
        for style in STYLES {
            assert_reaches_balanced_fixed_point(style, &keys);
        }
    }

    #[test]
    fn zig_zag_reaches_a_balanced_fixed_point() {
        for style in STYLES {
            assert_reaches_balanced_fixed_point(style, &[3, 1, 2]);
        }
    }

    #[test]
    fn idle_wait_follows_the_useful_share_of_a_pass() {
        let pass = Duration::from_millis(10);
        let floor = Duration::from_micros(100);
        // Every visited node needed work: only the floor.
        assert_eq!(idle_wait(pass, 100, 100, floor), floor);
        assert_eq!(idle_wait(pass, 100, 250, floor), floor);
        // Half the nodes needed work: idle as long as the pass ran.
        assert_eq!(idle_wait(pass, 100, 50, floor), pass);
        // Nothing, or almost nothing, needed work: the 8 × pass cap.
        assert_eq!(idle_wait(pass, 100, 0, floor), pass * 8);
        assert_eq!(idle_wait(pass, 1_000_000, 1, floor), pass * 8);
        assert_eq!(idle_wait(Duration::ZERO, 100, 0, floor), floor);
        // The floor wins over a shorter proportional wait.
        let long_floor = Duration::from_secs(1);
        assert_eq!(idle_wait(pass, 100, 0, long_floor), long_floor);
    }

    #[test]
    fn pause_and_stop_end_the_idle_wait() {
        let stm = Stm::default_config();
        let tree = OptSpecFriendlyTree::new();
        let mut h = tree.register(stm.register());
        for k in 0..16u64 {
            tree.insert(&mut h, k, k);
        }
        let maintenance = tree.start_maintenance_with(
            stm.register(),
            MaintenanceConfig {
                pass_delay: Duration::from_secs(60),
                ..MaintenanceConfig::default()
            },
        );
        // sf-lint: allow(relaxed-atomic, test polls a telemetry counter until the first pass completes)
        let passes = || tree.stats().maintenance_passes.load(Ordering::Relaxed);
        while passes() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The thread now idles for at least 60 s.
        let prompt = Duration::from_secs(10);
        let started = Instant::now();
        let pause = maintenance.pause();
        assert!(started.elapsed() < prompt, "pause waited out the idle wait");
        let parked_at = passes();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(passes(), parked_at, "no pass runs while paused");
        drop(pause);
        let started = Instant::now();
        maintenance.stop();
        assert!(started.elapsed() < prompt, "stop waited out the idle wait");
    }
}
