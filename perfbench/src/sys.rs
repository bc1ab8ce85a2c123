//! The systems under test, built only from the library crates' public
//! constructors, and the per-client sessions that drive them.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sf_baselines::{NoRestructureTree, SeqMap};
use sf_persist::{DurableMap, WalOptions};
use sf_stm::{StatsSnapshot, Stm, StmConfig, ThreadStats};
use sf_tree::{MaintenanceHandle, OptSpecFriendlyTree, SfHandle, ShardedMap, TxMap};

/// The ladder of backends, from the unsynchronised floor to the durable
/// sharded tree. Each rung adds one layer to the one before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// `SeqMap`: a mutex-guarded `BTreeMap`.
    Seq,
    /// The tree without its maintenance thread (adds the STM).
    NrTree,
    /// `OptSpecFriendlyTree` with its maintenance thread.
    SfOpt,
    /// Four `OptSpecFriendlyTree` shards (adds routing and per-shard STMs).
    SfOptSharded4,
    /// `sf_persist::sharded_optimized(4, ..)` with default `WalOptions`.
    SfOptSharded4Wal,
}

pub const LADDER: [Rung; 5] = [
    Rung::Seq,
    Rung::NrTree,
    Rung::SfOpt,
    Rung::SfOptSharded4,
    Rung::SfOptSharded4Wal,
];

pub const SHARDS: usize = 4;

impl Rung {
    /// Name of the traced run's span around this rung's ladder replay.
    pub fn ladder_span(self) -> &'static str {
        match self {
            Rung::Seq => "ladder.seq",
            Rung::NrTree => "ladder.nrtree",
            Rung::SfOpt => "ladder.sftree-opt",
            Rung::SfOptSharded4 => "ladder.sftree-opt-sharded4",
            Rung::SfOptSharded4Wal => "ladder.sftree-opt-sharded4-wal",
        }
    }

    /// The rung's name: its ladder span name without the `ladder.` prefix.
    pub fn name(self) -> &'static str {
        &self.ladder_span()["ladder.".len()..]
    }
}

/// Client-visible STM counters (a subset of `StatsSnapshot`).
#[derive(Clone, Copy, Debug, Default)]
pub struct StmCounts {
    pub commits: u64,
    pub combined_commits: u64,
    pub aborts: u64,
    pub abort_read_validation: u64,
    pub abort_lock_conflict: u64,
    pub abort_combiner: u64,
    pub abort_scan_validation: u64,
    pub reads: u64,
}

impl StmCounts {
    fn of_thread(t: &ThreadStats) -> Self {
        let l = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StmCounts {
            commits: l(&t.commits) + l(&t.scan_commits),
            combined_commits: l(&t.combined_commits),
            aborts: l(&t.aborts),
            abort_read_validation: l(&t.abort_read_validation),
            abort_lock_conflict: l(&t.abort_lock_conflict),
            abort_combiner: l(&t.abort_combiner),
            abort_scan_validation: l(&t.abort_scan_validation),
            reads: l(&t.tx_reads) + l(&t.tx_ureads),
        }
    }

    fn of_snapshot(s: &StatsSnapshot) -> Self {
        StmCounts {
            commits: s.commits + s.scan_commits,
            combined_commits: s.combined_commits,
            aborts: s.aborts,
            abort_read_validation: s.abort_read_validation,
            abort_lock_conflict: s.abort_lock_conflict,
            abort_combiner: s.abort_combiner,
            abort_scan_validation: s.abort_scan_validation,
            reads: s.tx_reads + s.tx_ureads,
        }
    }

    pub fn add(&mut self, o: &StmCounts) {
        self.commits += o.commits;
        self.combined_commits += o.combined_commits;
        self.aborts += o.aborts;
        self.abort_read_validation += o.abort_read_validation;
        self.abort_lock_conflict += o.abort_lock_conflict;
        self.abort_combiner += o.abort_combiner;
        self.abort_scan_validation += o.abort_scan_validation;
        self.reads += o.reads;
    }

    pub fn since(&self, e: &StmCounts) -> StmCounts {
        StmCounts {
            commits: self.commits.saturating_sub(e.commits),
            combined_commits: self.combined_commits.saturating_sub(e.combined_commits),
            aborts: self.aborts.saturating_sub(e.aborts),
            abort_read_validation: self
                .abort_read_validation
                .saturating_sub(e.abort_read_validation),
            abort_lock_conflict: self
                .abort_lock_conflict
                .saturating_sub(e.abort_lock_conflict),
            abort_combiner: self.abort_combiner.saturating_sub(e.abort_combiner),
            abort_scan_validation: self
                .abort_scan_validation
                .saturating_sub(e.abort_scan_validation),
            reads: self.reads.saturating_sub(e.reads),
        }
    }
}

/// Maintenance work summed over a system's trees (`TreeStats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeCounts {
    pub passes: u64,
    pub rotations: u64,
    pub removals: u64,
    pub propagations: u64,
}

impl TreeCounts {
    fn of(tree: &OptSpecFriendlyTree) -> Self {
        let s = tree.stats();
        let l = |a: &AtomicU64| a.load(Ordering::Relaxed);
        TreeCounts {
            passes: l(&s.maintenance_passes),
            rotations: s.rotations(),
            removals: l(&s.removals),
            propagations: l(&s.propagations),
        }
    }

    fn add(&mut self, o: &TreeCounts) {
        self.passes += o.passes;
        self.rotations += o.rotations;
        self.removals += o.removals;
        self.propagations += o.propagations;
    }

    pub fn since(&self, e: &TreeCounts) -> TreeCounts {
        TreeCounts {
            passes: self.passes.saturating_sub(e.passes),
            rotations: self.rotations.saturating_sub(e.rotations),
            removals: self.removals.saturating_sub(e.removals),
            propagations: self.propagations.saturating_sub(e.propagations),
        }
    }

    /// Restructuring that changed something: rotations, removals and
    /// height propagations.
    pub fn useful(&self) -> u64 {
        self.rotations + self.removals + self.propagations
    }
}

/// One client's connection to a system. All calls block until the
/// operation's result is known, as the library's callers do.
pub trait Session: Send {
    fn contains(&mut self, key: u64) -> bool;
    fn insert(&mut self, key: u64, value: u64) -> bool;
    fn delete(&mut self, key: u64) -> bool;
    fn move_entry(&mut self, from: u64, to: u64) -> bool;
    fn scan(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
    /// This client's own STM counters (zero for backends without an STM).
    fn stm_counts(&mut self) -> StmCounts;
}

struct MapSession<M: TxMap> {
    map: Arc<M>,
    handle: M::Handle,
    counts: fn(&mut M::Handle) -> StmCounts,
}

impl<M: TxMap> Session for MapSession<M> {
    fn contains(&mut self, key: u64) -> bool {
        self.map.contains(&mut self.handle, key)
    }
    fn insert(&mut self, key: u64, value: u64) -> bool {
        self.map.insert(&mut self.handle, key, value)
    }
    fn delete(&mut self, key: u64) -> bool {
        self.map.delete(&mut self.handle, key)
    }
    fn move_entry(&mut self, from: u64, to: u64) -> bool {
        self.map.move_entry(&mut self.handle, from, to)
    }
    fn scan(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.map.range_collect(&mut self.handle, lo..=hi)
    }
    fn stm_counts(&mut self) -> StmCounts {
        (self.counts)(&mut self.handle)
    }
}

/// A session that silently drops every `n`-th insert while reporting
/// success: the planted fault the oracle must catch.
pub struct DropEveryNthInsert {
    pub inner: Box<dyn Session>,
    pub n: u64,
    pub seen: u64,
}

impl Session for DropEveryNthInsert {
    fn contains(&mut self, key: u64) -> bool {
        self.inner.contains(key)
    }
    fn insert(&mut self, key: u64, value: u64) -> bool {
        self.seen += 1;
        if self.seen.is_multiple_of(self.n) {
            return true;
        }
        self.inner.insert(key, value)
    }
    fn delete(&mut self, key: u64) -> bool {
        self.inner.delete(key)
    }
    fn move_entry(&mut self, from: u64, to: u64) -> bool {
        self.inner.move_entry(from, to)
    }
    fn scan(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner.scan(lo, hi)
    }
    fn stm_counts(&mut self) -> StmCounts {
        self.inner.stm_counts()
    }
}

fn sf_counts(h: &mut SfHandle) -> StmCounts {
    StmCounts::of_thread(h.ctx_mut().thread_stats())
}

fn no_counts<H>(_: &mut H) -> StmCounts {
    StmCounts::default()
}

fn sharded_counts(h: &mut sf_tree::ShardedHandle<OptSpecFriendlyTree>) -> StmCounts {
    let mut total = StmCounts::default();
    for i in 0..h.shard_count() {
        total.add(&sf_counts(h.shard_handle_mut(i)));
    }
    total
}

fn durable_counts(h: &mut sf_tree::ShardedHandle<DurableMap<OptSpecFriendlyTree>>) -> StmCounts {
    let mut total = StmCounts::default();
    for i in 0..h.shard_count() {
        total.add(&sf_counts(h.shard_handle_mut(i).inner_mut()));
    }
    total
}

/// A fresh directory for one durable system's logs, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn new(root: &Path) -> io::Result<RunDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("wal-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs a closure while a sharded map's maintenance threads are parked.
type PauseFn = Box<dyn Fn(&mut dyn FnMut()) + Send + Sync>;

/// A built backend. Dropping it stops and joins every thread it started
/// (maintenance and WAL writers) once the last session is gone; a durable
/// system then deletes its logs unless [`System::take_dir`] took them.
pub struct System {
    pub rung: Rung,
    // Field order is drop order: everything holding the map goes before
    // the log directory.
    make_session: Box<dyn Fn() -> Box<dyn Session> + Send + Sync>,
    stms: Vec<Arc<Stm>>,
    trees: Vec<Arc<OptSpecFriendlyTree>>,
    shard_of: Option<Box<dyn Fn(u64) -> usize + Send + Sync>>,
    pause: Option<PauseFn>,
    maintenance: Option<MaintenanceHandle>,
    dir: Option<RunDir>,
}

fn session_of<M: TxMap + 'static>(
    map: Arc<M>,
    register: impl Fn(&M) -> M::Handle + Send + Sync + 'static,
    counts: fn(&mut M::Handle) -> StmCounts,
) -> Box<dyn Fn() -> Box<dyn Session> + Send + Sync>
where
    M::Handle: 'static,
{
    Box::new(move || {
        Box::new(MapSession {
            handle: register(&map),
            map: Arc::clone(&map),
            counts,
        })
    })
}

impl System {
    /// Build `rung`; durable rungs log under `wal_root`.
    pub fn build(rung: Rung, wal_root: &Path) -> io::Result<System> {
        let mut stms = Vec::new();
        let mut trees = Vec::new();
        let mut shard_of: Option<Box<dyn Fn(u64) -> usize + Send + Sync>> = None;
        let mut pause: Option<PauseFn> = None;
        let mut maintenance = None;
        let mut dir = None;
        let make_session = match rung {
            Rung::Seq => {
                let stm = Stm::new(StmConfig::default());
                session_of(
                    Arc::new(SeqMap::new()),
                    move |m| m.register(stm.register()),
                    no_counts,
                )
            }
            Rung::NrTree => {
                let stm = Stm::new(StmConfig::default());
                stms.push(Arc::clone(&stm));
                session_of(
                    Arc::new(NoRestructureTree::new()),
                    move |m| TxMap::register(m, stm.register()),
                    sf_counts,
                )
            }
            Rung::SfOpt => {
                let stm = Stm::new(StmConfig::default());
                let tree = Arc::new(OptSpecFriendlyTree::new());
                maintenance = Some(tree.start_maintenance(stm.register()));
                stms.push(Arc::clone(&stm));
                trees.push(Arc::clone(&tree));
                session_of(tree, move |m| TxMap::register(m, stm.register()), sf_counts)
            }
            Rung::SfOptSharded4 => {
                let map = Arc::new(ShardedMap::optimized(SHARDS, StmConfig::default()));
                for i in 0..SHARDS {
                    stms.push(Arc::clone(map.shard_stm(i)));
                    trees.push(Arc::clone(map.shard_map(i)));
                }
                let m = Arc::clone(&map);
                shard_of = Some(Box::new(move |k| m.shard_of(k)));
                let m = Arc::clone(&map);
                pause = Some(Box::new(move |f| {
                    let _parked = m.pause_maintenance();
                    f()
                }));
                session_of(map, ShardedMap::register_sharded, sharded_counts)
            }
            Rung::SfOptSharded4Wal => {
                let run_dir = RunDir::new(wal_root)?;
                let (map, _recovery) = sf_persist::sharded_optimized(
                    SHARDS,
                    StmConfig::default(),
                    run_dir.path(),
                    WalOptions::default(),
                )?;
                dir = Some(run_dir);
                let map = Arc::new(map);
                for i in 0..SHARDS {
                    stms.push(Arc::clone(map.shard_stm(i)));
                    trees.push(Arc::clone(map.shard_map(i).inner()));
                }
                let m = Arc::clone(&map);
                shard_of = Some(Box::new(move |k| m.shard_of(k)));
                let m = Arc::clone(&map);
                pause = Some(Box::new(move |f| {
                    let _parked = m.pause_maintenance();
                    f()
                }));
                session_of(map, ShardedMap::register_sharded, durable_counts)
            }
        };
        Ok(System {
            rung,
            make_session,
            stms,
            trees,
            shard_of,
            pause,
            maintenance,
            dir,
        })
    }

    pub fn session(&self) -> Box<dyn Session> {
        (self.make_session)()
    }

    /// STM counters of every thread, maintenance included.
    pub fn stm_total(&self) -> StmCounts {
        let mut total = StmCounts::default();
        for stm in &self.stms {
            total.add(&StmCounts::of_snapshot(&stm.stats()));
        }
        total
    }

    pub fn tree_counts(&self) -> TreeCounts {
        let mut total = TreeCounts::default();
        for tree in &self.trees {
            total.add(&TreeCounts::of(tree));
        }
        total
    }

    /// Completed maintenance passes of each tree (empty for rungs without
    /// maintenance).
    pub fn passes_per_tree(&self) -> Vec<u64> {
        self.trees
            .iter()
            .map(|t| TreeCounts::of(t).passes)
            .collect()
    }

    pub fn shard_of(&self, key: u64) -> Option<usize> {
        self.shard_of.as_ref().map(|f| f(key))
    }

    /// Run `inspect` over the trees (one per shard) while their maintenance
    /// threads are parked.
    pub fn inspect_quiescent<R>(
        &self,
        inspect: impl FnOnce(&[Arc<OptSpecFriendlyTree>]) -> R,
    ) -> R {
        if let Some(handle) = &self.maintenance {
            // A single tree: park it through its handle.
            let _parked = handle.pause();
            return inspect(&self.trees);
        }
        let mut inspect = Some(inspect);
        let mut out = None;
        let trees = &self.trees;
        let mut run = || out = inspect.take().map(|f| f(trees));
        match &self.pause {
            Some(pause) => pause(&mut run),
            None => run(),
        }
        out.expect("inspection ran")
    }

    /// Keep the log directory alive past this system's drop (to reopen it).
    pub fn take_dir(&mut self) -> Option<RunDir> {
        self.dir.take()
    }
}

/// Reopen a durable system's log directory with the same constructor and
/// return the recovered entries, sorted by key. The reopened map (its
/// maintenance and writer threads) is dropped before returning.
pub fn reopen_entries(dir: &Path) -> io::Result<(Vec<(u64, u64)>, Duration)> {
    let started = Instant::now();
    let (map, recovery) =
        sf_persist::sharded_optimized(SHARDS, StmConfig::default(), dir, WalOptions::default())?;
    let elapsed = started.elapsed();
    drop(map);
    let mut entries = recovery.entries;
    entries.sort_unstable();
    Ok((entries, elapsed))
}
