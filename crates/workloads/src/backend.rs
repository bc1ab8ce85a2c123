//! The backend registry: one place that knows how to build every map
//! implementation in this repository behind a uniform, object-safe driving
//! interface.
//!
//! Historically each benchmark harness hard-coded its own dispatch over the
//! tree types (a `TreeKind` enum in `sf-bench`), which meant new backends —
//! like the sharded tree — had to be wired into every harness by hand. The
//! registry inverts that: harnesses resolve **structure names** to ready-made
//! [`Backend`] instances and drive them through [`MapSession`], so any
//! harness can run any backend, including ones whose construction needs
//! extra machinery (per-shard STM instances, background maintenance
//! threads).
//!
//! ## Names
//!
//! | name | backend |
//! |---|---|
//! | `rbtree` | transaction-encapsulated red-black tree |
//! | `avl` | transaction-encapsulated AVL tree |
//! | `nrtree` | no-restructuring tree |
//! | `seq` | sequential reference map (single global mutex) |
//! | `ziptree` | rotation-free randomized zip tree (rebalance-free control) |
//! | `sftree` | speculation-friendly tree, portable variant |
//! | `sftree-opt` | speculation-friendly tree, optimized variant |
//! | `sftree-sharded<N>` | `N`-shard portable speculation-friendly tree |
//! | `sftree-opt-sharded<N>` | `N`-shard optimized speculation-friendly tree |
//! | `<sftree…>-hot` | any speculation-friendly name with hot-key restructuring on |
//! | `<name>+wal` | any of the above behind the `sf-persist` durability layer |
//!
//! The speculation-friendly backends come with their background maintenance
//! thread already running (one per shard for the sharded variants); dropping
//! the [`Backend`] stops them.
//!
//! ## Hot-key restructuring (`-hot`)
//!
//! Appending `-hot` to a speculation-friendly name (before any `+wal`)
//! enables the maintenance thread's hot-key restructuring with its default
//! tuning (dominance ratio `2.0`, counter decay every `64` passes) and tags
//! the label (`OptSFtree-hot`). The `SF_HOTSPOT` / `SF_HOT_DECAY`
//! environment knobs override the tuning; setting `SF_HOTSPOT` alone is a
//! blanket switch that enables hot restructuring on every
//! speculation-friendly backend without renaming (ignored by backends that
//! have no maintenance thread). `-hot` on a baseline name is an error.
//! The one unsupported combination is an explicit `-hot` on a *sharded*
//! `+wal` name — use the `SF_HOTSPOT` blanket switch there instead.
//!
//! ## Durability (`+wal`)
//!
//! Appending `+wal` to any transactional backend name (everything except
//! `seq`, whose unsynchronized baseline has no commit point to hook) wraps
//! it in [`sf_persist::DurableMap`]: every effective mutation is logged to a
//! commit-ordered write-ahead log and is durable when the operation returns.
//! Setting `SF_WAL=1` applies the wrapper to every requested structure
//! without renaming (`seq` is exempt rather than an error under the blanket
//! switch). Sharded variants get **one log per shard** (`shard-<i>`
//! subdirectories); a cross-shard `move_entry` is made crash-atomic by the
//! two-phase move-intent protocol the durable shards interpose on the
//! sharded map's move hooks — recovery joins the shard logs and completes
//! or rolls back an interrupted move, so a crash never surfaces a
//! duplicated or vanished entry (see `sf_persist` and the durability
//! contract in `EXPERIMENTS.md`). Reopening a sharded log directory with a
//! different shard count fails loudly instead of silently recovering a
//! subset.
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `SF_WAL` | `1` → wrap every built backend in the WAL | unset |
//! | `SF_WAL_DIR` | base directory for the log dirs | `$TMPDIR/sf-wal-<pid>` |
//! | `SF_WAL_GROUP` | records per group-commit fsync batch; `0` = buffered | `128` |
//! | `SF_WAL_CKPT` | records between automatic checkpoints; `0` = manual | `0` |
//!
//! Each build gets a fresh subdirectory `<base>/<name>+wal-<n>` (`n` counts
//! builds in this process), so repeated cells of one bench sweep never
//! recover each other's state. To *deliberately* recover — the service
//! restart story — point [`sf_persist::recover`] (or
//! [`sf_persist::DurableMap::open`]) at an existing directory; that is what
//! the `recovery` bench binary and the CI crash-smoke do.
//!
//! ```
//! use sf_stm::StmConfig;
//! use sf_workloads::backend::Backend;
//! use sf_workloads::{populate_and_run_backend, WorkloadConfig};
//!
//! let backend = Backend::build("sftree-opt-sharded4", StmConfig::ctl()).unwrap();
//! let config = WorkloadConfig::smoke_test();
//! let result = populate_and_run_backend(&backend, &config);
//! assert_eq!(result.structure, "OptSFtree-sharded4");
//! assert!(result.total_ops > 0);
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sf_baselines::{AvlTree, NoRestructureTree, RedBlackTree, SeqMap, ZipTree};
use sf_obs::{MetricSample, MetricsRegistry, SourceGuard};
use sf_persist::{DurableMap, WalOptions};
use sf_stm::{StatsSnapshot, Stm, StmConfig};
use sf_tree::maintenance::{MaintenanceConfig, MaintenanceHandle};
use sf_tree::{OptSpecFriendlyTree, ShardedMap, SpecFriendlyTree, TxMap, TxMapVersioned};
use std::time::Duration;

/// A per-thread driving session over some backend: the object-safe
/// counterpart of [`TxMap`] with the handle folded in.
pub trait MapSession: Send {
    /// Membership test.
    fn contains(&mut self, key: u64) -> bool;
    /// Look up a key's value.
    fn get(&mut self, key: u64) -> Option<u64>;
    /// Insert `key -> value`; `true` when the map changed.
    fn insert(&mut self, key: u64, value: u64) -> bool;
    /// Delete `key`; `true` when the map changed.
    fn delete(&mut self, key: u64) -> bool;
    /// Atomically move `from` to `to`; `true` when the map changed.
    fn move_entry(&mut self, from: u64, to: u64) -> bool;
    /// Ordered range scan: the live entries with keys in `[lo, hi]`,
    /// ascending, as a read-only scan transaction (per-shard-atomic on
    /// sharded backends — see `sf_tree::sharded`).
    fn range_collect(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
    /// Number of live keys, counted by a read-only scan transaction.
    fn len(&mut self) -> usize;
    /// True when the map holds no live keys.
    fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

/// The object-safe face of a runnable backend: create sessions, observe
/// aggregate state and statistics.
trait BackendHarness: Send + Sync {
    fn session(&self) -> Box<dyn MapSession>;
    fn len_quiescent(&self) -> usize;
    fn stats(&self) -> StatsSnapshot;
    fn reset_stats(&self);
    fn hot_report(&self) -> Option<sf_tree::HotReport>;
}

struct TreeSession<M: TxMap + 'static> {
    map: Arc<M>,
    handle: M::Handle,
}

impl<M: TxMap> MapSession for TreeSession<M>
where
    M::Handle: Send,
{
    fn contains(&mut self, key: u64) -> bool {
        self.map.contains(&mut self.handle, key)
    }
    fn get(&mut self, key: u64) -> Option<u64> {
        self.map.get(&mut self.handle, key)
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
    fn range_collect(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.map.range_collect(&mut self.handle, lo..=hi)
    }
    fn len(&mut self) -> usize {
        self.map.len(&mut self.handle)
    }
}

/// Generic harness over any [`TxMap`]: the map, the STM instance(s) whose
/// statistics describe it, and whatever guards keep its background threads
/// alive (dropped with the harness).
struct TreeBackend<M: TxMap + 'static> {
    map: Arc<M>,
    /// All STM instances involved (one, or one per shard). The first one
    /// mints the `ThreadCtx` passed to [`TxMap::register`]; sharded maps
    /// ignore it and register with their per-shard instances internally.
    stms: Vec<Arc<Stm>>,
    /// Background maintenance threads owned by the backend (empty for
    /// baselines and for sharded maps, which manage theirs internally).
    /// Paused during quiescent inspection; stopped when the backend drops.
    maintenance: Vec<MaintenanceHandle>,
}

impl<M: TxMap> BackendHarness for TreeBackend<M>
where
    M::Handle: Send + 'static,
{
    fn session(&self) -> Box<dyn MapSession> {
        Box::new(TreeSession {
            map: Arc::clone(&self.map),
            handle: self.map.register(self.stms[0].register()),
        })
    }

    fn len_quiescent(&self) -> usize {
        // Counting traversals are only accurate while no restructuring runs.
        let _paused: Vec<_> = self.maintenance.iter().map(|m| m.pause()).collect();
        self.map.len_quiescent()
    }

    fn stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for stm in &self.stms {
            total.merge(&stm.stats());
        }
        total
    }

    fn reset_stats(&self) {
        for stm in &self.stms {
            stm.reset_stats();
        }
    }

    fn hot_report(&self) -> Option<sf_tree::HotReport> {
        // The summary traversal reads plain node fields: park the rotator
        // between passes first, like `len_quiescent`.
        let _paused: Vec<_> = self.maintenance.iter().map(|m| m.pause()).collect();
        self.map.hot_report()
    }
}

/// Harness for sharded maps. Sessions register through
/// [`ShardedMap::register_sharded`] — going through [`TxMap::register`]
/// would mint a throwaway `ThreadCtx` on shard 0's STM, permanently
/// appending a dead stats slot to its registry per session. Statistics come
/// from the map's own per-shard aggregation.
struct ShardedBackend<M: TxMap + 'static> {
    map: Arc<ShardedMap<M>>,
}

impl<M: TxMap + 'static> BackendHarness for ShardedBackend<M>
where
    M::Handle: Send + 'static,
{
    fn session(&self) -> Box<dyn MapSession> {
        Box::new(TreeSession {
            map: Arc::clone(&self.map),
            handle: self.map.register_sharded(),
        })
    }

    fn len_quiescent(&self) -> usize {
        TxMap::len_quiescent(self.map.as_ref())
    }

    fn stats(&self) -> StatsSnapshot {
        self.map.stats()
    }

    fn reset_stats(&self) {
        self.map.reset_stats();
    }

    fn hot_report(&self) -> Option<sf_tree::HotReport> {
        // Pauses every shard's maintenance internally.
        TxMap::hot_report(self.map.as_ref())
    }
}

/// Split a comma- and/or whitespace-separated structure list (the
/// `SF_STRUCTURES` format) into names, dropping empty segments.
pub fn parse_structure_list(spec: &str) -> Vec<String> {
    spec.split(|c: char| c == ',' || c.is_whitespace())
        .filter(|name| !name.is_empty())
        .map(str::to_string)
        .collect()
}

/// A ready-to-drive backend built by the registry (or wrapped around caller
/// owned parts via [`Backend::from_parts`]).
pub struct Backend {
    label: String,
    harness: Arc<dyn BackendHarness>,
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backend")
            .field("label", &self.label)
            .finish()
    }
}

/// Error returned by [`Backend::build`] for unrecognized structure names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown structure '{}'; known: {}",
            self.name,
            KNOWN_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownBackend {}

/// The names [`Backend::build`] understands (`<N>` is a shard count; every
/// name but `seq` also accepts a `+wal` suffix).
pub const KNOWN_NAMES: &[&str] = &[
    "rbtree",
    "avl",
    "nrtree",
    "seq",
    "ziptree",
    "sftree",
    "sftree-opt",
    "sftree-sharded<N>",
    "sftree-opt-sharded<N>",
    "<sftree...>-hot",
    "<any-but-seq>+wal",
];

/// `SF_WAL=1` wraps every built backend in the durability layer.
fn wal_env_enabled() -> bool {
    std::env::var("SF_WAL").is_ok_and(|v| v == "1")
}

/// WAL tuning from `SF_WAL_GROUP` / `SF_WAL_CKPT` / `SF_WAL_RING` /
/// `SF_WAL_CKPT_MS`.
fn wal_options_from_env() -> WalOptions {
    fn parsed<T: std::str::FromStr>(var: &str) -> Option<T> {
        std::env::var(var).ok().and_then(|s| s.parse().ok())
    }
    let defaults = WalOptions::default();
    WalOptions {
        group: parsed("SF_WAL_GROUP").unwrap_or(defaults.group),
        auto_checkpoint: parsed("SF_WAL_CKPT").unwrap_or(defaults.auto_checkpoint),
        ring_capacity: parsed::<usize>("SF_WAL_RING")
            .filter(|&n| n > 0)
            .unwrap_or(defaults.ring_capacity),
        checkpoint_interval: match parsed::<u64>("SF_WAL_CKPT_MS") {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => defaults.checkpoint_interval,
        },
    }
}

/// Fresh log directory for one `+wal` build: `SF_WAL_DIR` (default
/// `$TMPDIR/sf-wal-<pid>`) + `/<base>+wal-<n>` with a process-wide build
/// counter, so repeated builds never recover each other's state. The naming
/// is deterministic — the `recovery` harness's crash smoke relies on the
/// first build of this process landing in `<base>+wal-0`.
fn wal_dir_for(base: &str) -> PathBuf {
    static BUILDS: AtomicU64 = AtomicU64::new(0);
    let root = std::env::var_os("SF_WAL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("sf-wal-{}", std::process::id())));
    // sf-lint: allow(relaxed-atomic, per-process build counter for unique WAL dirs; only atomicity matters)
    let n = BUILDS.fetch_add(1, Ordering::Relaxed);
    root.join(format!("{base}+wal-{n}"))
}

/// Maintenance tuning applied to the speculation-friendly backends built by
/// the registry (matching the historical harness setting). `hot` — from an
/// explicit `-hot` name — forces hot-key restructuring on with its default
/// tuning; either way the `SF_HOTSPOT` / `SF_HOT_DECAY` environment knobs
/// apply on top.
fn registry_maintenance_config_hot(hot: bool) -> MaintenanceConfig {
    let base = MaintenanceConfig {
        pass_delay: Duration::from_micros(200),
        ..MaintenanceConfig::default()
    };
    if hot {
        base.with_hotspot_defaults()
    } else {
        base.with_hotspot_env()
    }
}

impl Backend {
    /// Resolve a structure name (see the [module docs](self) for the table)
    /// to a ready-to-drive backend. Speculation-friendly backends start
    /// their maintenance thread(s) here; dropping the returned backend stops
    /// them.
    pub fn build(name: &str, stm_config: StmConfig) -> Result<Backend, UnknownBackend> {
        let name = name.trim();
        let (name, wal) = match name.strip_suffix("+wal") {
            Some(base) => (base.trim_end(), true),
            // Blanket SF_WAL=1 leaves `seq` alone (it has nothing to hook);
            // only an *explicit* `seq+wal` is an error.
            None => (name, wal_env_enabled() && name != "seq"),
        };
        let (name, hot) = match name.strip_suffix("-hot") {
            Some(base) => (base.trim_end(), true),
            None => (name, false),
        };
        if hot && !name.starts_with("sftree") {
            // Only the speculation-friendly trees have a maintenance thread
            // to restructure with.
            return Err(UnknownBackend {
                name: format!("{name}-hot (hot restructuring needs a speculation-friendly tree)"),
            });
        }
        let mut backend = if wal {
            Backend::build_wal(name, hot, stm_config)?
        } else {
            Backend::build_plain(name, hot, stm_config)?
        };
        if hot {
            backend.label.push_str("-hot");
        }
        Ok(backend)
    }

    /// Build a non-durable backend; `hot` forces hot-key restructuring on
    /// for speculation-friendly names.
    fn build_plain(
        name: &str,
        hot: bool,
        stm_config: StmConfig,
    ) -> Result<Backend, UnknownBackend> {
        if let Some(shards) = parse_sharded(name, "sftree-opt-sharded") {
            let map = ShardedMap::optimized_with(
                shards,
                stm_config,
                registry_maintenance_config_hot(hot),
            );
            return Ok(Backend::assemble_sharded(Arc::new(map)));
        }
        if let Some(shards) = parse_sharded(name, "sftree-sharded") {
            let map =
                ShardedMap::portable_with(shards, stm_config, registry_maintenance_config_hot(hot));
            return Ok(Backend::assemble_sharded(Arc::new(map)));
        }
        let stm = Stm::new(stm_config);
        match name {
            "rbtree" => Ok(Backend::assemble(
                Arc::new(RedBlackTree::new()),
                vec![stm],
                Vec::new(),
            )),
            "avl" => Ok(Backend::assemble(
                Arc::new(AvlTree::new()),
                vec![stm],
                Vec::new(),
            )),
            "nrtree" => Ok(Backend::assemble(
                Arc::new(NoRestructureTree::new()),
                vec![stm],
                Vec::new(),
            )),
            "seq" => Ok(Backend::assemble(
                Arc::new(SeqMap::new()),
                vec![stm],
                Vec::new(),
            )),
            "ziptree" => Ok(Backend::assemble(
                Arc::new(ZipTree::new()),
                vec![stm],
                Vec::new(),
            )),
            "sftree" => {
                let map = Arc::new(SpecFriendlyTree::new());
                let maintenance = map
                    .start_maintenance_with(stm.register(), registry_maintenance_config_hot(hot));
                Ok(Backend::assemble(map, vec![stm], vec![maintenance]))
            }
            "sftree-opt" => {
                let map = Arc::new(OptSpecFriendlyTree::new());
                let maintenance = map
                    .start_maintenance_with(stm.register(), registry_maintenance_config_hot(hot));
                Ok(Backend::assemble(map, vec![stm], vec![maintenance]))
            }
            _ => Err(UnknownBackend {
                name: name.to_string(),
            }),
        }
    }

    /// Build the `+wal` (durable) variant of `base`. The log directory and
    /// tuning come from the `SF_WAL_*` environment (see the
    /// [module docs](self)).
    ///
    /// # Panics
    /// Panics when the log directory cannot be created or written —
    /// durability was requested and the environment cannot provide it.
    fn build_wal(base: &str, hot: bool, stm_config: StmConfig) -> Result<Backend, UnknownBackend> {
        let options = wal_options_from_env();
        let dir = wal_dir_for(base);
        let open_failed =
            |error: std::io::Error| -> ! { panic!("opening WAL directory {dir:?}: {error}") };
        if let Some(shards) = parse_sharded(base, "sftree-opt-sharded") {
            if hot {
                return Err(sharded_wal_hot_unsupported(base));
            }
            let (map, _recovery) = sf_persist::sharded_optimized(shards, stm_config, &dir, options)
                .unwrap_or_else(|e| open_failed(e));
            return Ok(Backend::assemble_sharded(Arc::new(map)));
        }
        if let Some(shards) = parse_sharded(base, "sftree-sharded") {
            if hot {
                return Err(sharded_wal_hot_unsupported(base));
            }
            let (map, _recovery) = sf_persist::sharded_portable(shards, stm_config, &dir, options)
                .unwrap_or_else(|e| open_failed(e));
            return Ok(Backend::assemble_sharded(Arc::new(map)));
        }
        let stm = Stm::new(stm_config);
        fn durable<M>(
            map: Arc<M>,
            stm: Arc<Stm>,
            dir: PathBuf,
            options: WalOptions,
            maintenance: Vec<MaintenanceHandle>,
        ) -> Backend
        where
            M: TxMapVersioned + 'static,
            M::Handle: Send + 'static,
        {
            let (map, _recovery) = DurableMap::open(map, &stm, &dir, options)
                .unwrap_or_else(|e| panic!("opening WAL directory {dir:?}: {e}"));
            Backend::assemble(Arc::new(map), vec![stm], maintenance)
        }
        match base {
            "rbtree" => Ok(durable(
                Arc::new(RedBlackTree::new()),
                stm,
                dir,
                options,
                Vec::new(),
            )),
            "avl" => Ok(durable(
                Arc::new(AvlTree::new()),
                stm,
                dir,
                options,
                Vec::new(),
            )),
            "nrtree" => Ok(durable(
                Arc::new(NoRestructureTree::new()),
                stm,
                dir,
                options,
                Vec::new(),
            )),
            "ziptree" => Ok(durable(
                Arc::new(ZipTree::new()),
                stm,
                dir,
                options,
                Vec::new(),
            )),
            "sftree" => {
                let map = Arc::new(SpecFriendlyTree::new());
                let maintenance = map
                    .start_maintenance_with(stm.register(), registry_maintenance_config_hot(hot));
                Ok(durable(map, stm, dir, options, vec![maintenance]))
            }
            "sftree-opt" => {
                let map = Arc::new(OptSpecFriendlyTree::new());
                let maintenance = map
                    .start_maintenance_with(stm.register(), registry_maintenance_config_hot(hot));
                Ok(durable(map, stm, dir, options, vec![maintenance]))
            }
            "seq" => Err(UnknownBackend {
                name: "seq+wal (the sequential baseline has no commit point to log)".to_string(),
            }),
            _ => Err(UnknownBackend {
                name: format!("{base}+wal"),
            }),
        }
    }

    /// Wrap caller-owned parts (an existing map and the STM instance(s) that
    /// describe it) as a backend, without the registry constructing
    /// anything. This is how the generic [`run_workload`] driver funnels
    /// into the same code path as registry-built backends.
    ///
    /// [`run_workload`]: crate::run_workload
    pub fn from_parts<M>(map: Arc<M>, stms: Vec<Arc<Stm>>) -> Backend
    where
        M: TxMap + 'static,
        M::Handle: Send + 'static,
    {
        Backend::assemble(map, stms, Vec::new())
    }

    fn assemble_sharded<M>(map: Arc<ShardedMap<M>>) -> Backend
    where
        M: TxMap + 'static,
        M::Handle: Send + 'static,
    {
        Backend {
            label: map.name().to_string(),
            harness: Arc::new(ShardedBackend { map }),
        }
    }

    fn assemble<M>(map: Arc<M>, stms: Vec<Arc<Stm>>, maintenance: Vec<MaintenanceHandle>) -> Backend
    where
        M: TxMap + 'static,
        M::Handle: Send + 'static,
    {
        assert!(
            !stms.is_empty(),
            "a backend needs at least one STM instance"
        );
        Backend {
            label: map.name().to_string(),
            harness: Arc::new(TreeBackend {
                map,
                stms,
                maintenance,
            }),
        }
    }

    /// The backend's display label (e.g. `OptSFtree-sharded8`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Open a driving session for one worker thread.
    pub fn session(&self) -> Box<dyn MapSession> {
        self.harness.session()
    }

    /// Number of live keys while quiescent.
    pub fn len_quiescent(&self) -> usize {
        self.harness.len_quiescent()
    }

    /// Quiescent hot-key summary (maintenance paused for the traversal);
    /// `None` for backends without access sampling.
    pub fn hot_report(&self) -> Option<sf_tree::HotReport> {
        self.harness.hot_report()
    }

    /// STM statistics aggregated over the backend's STM instance(s).
    pub fn stats(&self) -> StatsSnapshot {
        self.harness.stats()
    }

    /// Reset the statistics of the backend's STM instance(s).
    pub fn reset_stats(&self) {
        self.harness.reset_stats();
    }

    /// Register this backend as a live [`MetricsRegistry`] source: STM
    /// commit/abort counters (with the abort-cause breakdown) labelled by
    /// `structure`, the process-wide WAL counters, and operation / WAL /
    /// maintenance latency p99s. The source stays live — and is picked up by
    /// the `SF_STATS_EVERY_MS` emitter — until the returned guard drops.
    pub fn metrics_source(&self) -> SourceGuard {
        let harness = Arc::clone(&self.harness);
        let structure = self.label.clone();
        MetricsRegistry::global().register(move |out| {
            let stats = harness.stats();
            let labelled = |name, value: u64| {
                MetricSample::new(name, value as f64).label("structure", structure.clone())
            };
            out.push(labelled("sf_stm_commits_total", stats.commits));
            out.push(labelled("sf_stm_aborts_total", stats.aborts));
            for (cause, value) in [
                ("read_validation", stats.abort_read_validation),
                ("lock_conflict", stats.abort_lock_conflict),
                ("explicit", stats.abort_explicit),
                ("scan_validation", stats.abort_scan_validation),
            ] {
                out.push(labelled("sf_stm_aborts_by_cause_total", value).label("cause", cause));
            }
            let wal = sf_persist::stats::snapshot();
            for (name, value) in [
                ("sf_wal_records_total", wal.records),
                ("sf_wal_bytes_total", wal.bytes),
                ("sf_wal_batches_total", wal.batches),
                ("sf_wal_checkpoints_total", wal.checkpoints),
            ] {
                out.push(MetricSample::new(name, value as f64));
            }
            for (i, hist) in crate::latency::op_histograms().iter().enumerate() {
                if hist.count() > 0 {
                    out.push(
                        labelled("sf_op_latency_p99_ns", hist.p99())
                            .label("op", crate::latency::op_label(i)),
                    );
                }
            }
            let fsync = sf_persist::stats::fsync_histogram();
            if fsync.count() > 0 {
                out.push(MetricSample::new("sf_wal_fsync_p99_ns", fsync.p99() as f64));
            }
            let (pass, _work) = sf_tree::maintenance_histograms();
            if pass.count() > 0 {
                out.push(MetricSample::new(
                    "sf_maintenance_pass_p99_ns",
                    pass.p99() as f64,
                ));
            }
        })
    }
}

/// Explicit `-hot` on a sharded `+wal` name: the durable sharded builders
/// own their maintenance tuning, so only the `SF_HOTSPOT` blanket switch
/// reaches them.
fn sharded_wal_hot_unsupported(base: &str) -> UnknownBackend {
    UnknownBackend {
        name: format!("{base}-hot+wal (set SF_HOTSPOT=1 instead for sharded durable backends)"),
    }
}

/// Parse `<prefix><N>` into `N`.
fn parse_sharded(name: &str, prefix: &str) -> Option<usize> {
    let rest = name.strip_prefix(prefix)?;
    let shards: usize = rest.parse().ok()?;
    (shards >= 1).then_some(shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_fixed_name() {
        for (name, label) in [
            ("rbtree", "RBtree"),
            ("avl", "AVLtree"),
            ("nrtree", "NRtree"),
            ("seq", "Sequential"),
            ("sftree", "SFtree"),
            ("sftree-opt", "OptSFtree"),
            ("ziptree", "ZipTree"),
        ] {
            let backend = Backend::build(name, StmConfig::ctl()).unwrap();
            assert_eq!(backend.label(), label, "label for {name}");
            let mut session = backend.session();
            assert!(session.insert(1, 10));
            assert_eq!(session.get(1), Some(10));
            assert!(session.move_entry(1, 2));
            assert!(session.delete(2));
            assert!(!session.contains(2));
        }
    }

    #[test]
    fn builds_sharded_variants_with_the_requested_shard_count() {
        let backend = Backend::build("sftree-opt-sharded4", StmConfig::ctl()).unwrap();
        assert_eq!(backend.label(), "OptSFtree-sharded4");
        let mut session = backend.session();
        for key in 0..128u64 {
            assert!(session.insert(key, key));
        }
        assert_eq!(backend.len_quiescent(), 128);

        let portable = Backend::build("sftree-sharded2", StmConfig::ctl()).unwrap();
        assert_eq!(portable.label(), "SFtree-sharded2");
    }

    #[test]
    fn rejects_unknown_names_with_a_helpful_error() {
        let err = Backend::build("btree-of-dreams", StmConfig::ctl()).unwrap_err();
        assert_eq!(err.name, "btree-of-dreams");
        assert!(err.to_string().contains("sftree-opt-sharded<N>"));
        assert!(Backend::build("sftree-opt-sharded0", StmConfig::ctl()).is_err());
        assert!(Backend::build("sftree-opt-shardedx", StmConfig::ctl()).is_err());
    }

    #[test]
    fn builds_wal_variants_with_durable_labels() {
        // Note: the log directories default under $TMPDIR/sf-wal-<pid>; the
        // per-build counter keeps these cases disjoint from each other and
        // from every other test in this process.
        for (name, label) in [
            ("rbtree+wal", "RBtree+wal"),
            ("sftree-opt+wal", "OptSFtree+wal"),
            ("sftree-opt-sharded2+wal", "OptSFtree+wal-sharded2"),
        ] {
            let backend = Backend::build(name, StmConfig::ctl()).unwrap();
            assert_eq!(backend.label(), label, "label for {name}");
            let mut session = backend.session();
            assert!(session.insert(1, 10));
            assert!(session.move_entry(1, 2));
            assert_eq!(session.get(2), Some(10));
            assert!(session.delete(2));
            assert_eq!(session.len(), 0);
        }
    }

    #[test]
    fn seq_wal_is_rejected_explicitly() {
        let err = Backend::build("seq+wal", StmConfig::ctl()).unwrap_err();
        assert!(err.name.contains("seq+wal"), "{err}");
        // Unknown bases keep their +wal suffix in the error.
        let err = Backend::build("btree+wal", StmConfig::ctl()).unwrap_err();
        assert_eq!(err.name, "btree+wal");
    }

    #[test]
    fn hot_suffix_builds_sf_trees_and_rejects_everything_else() {
        for (name, label) in [
            ("sftree-hot", "SFtree-hot"),
            ("sftree-opt-hot", "OptSFtree-hot"),
            ("sftree-opt-sharded2-hot", "OptSFtree-sharded2-hot"),
            ("sftree-opt-hot+wal", "OptSFtree+wal-hot"),
        ] {
            let backend = Backend::build(name, StmConfig::ctl()).unwrap();
            assert_eq!(backend.label(), label, "label for {name}");
            let mut session = backend.session();
            assert!(session.insert(7, 70));
            assert_eq!(session.get(7), Some(70));
        }
        // Hot restructuring lives in the maintenance thread; backends
        // without one reject the suffix.
        for name in ["rbtree-hot", "avl-hot", "ziptree-hot", "seq-hot"] {
            let err = Backend::build(name, StmConfig::ctl()).unwrap_err();
            assert!(err.to_string().contains("speculation-friendly"), "{err}");
        }
        // Sharded durable backends take SF_HOTSPOT instead of the suffix.
        let err = Backend::build("sftree-opt-sharded2-hot+wal", StmConfig::ctl()).unwrap_err();
        assert!(err.name.contains("SF_HOTSPOT"), "{err}");
    }

    #[test]
    fn hot_backends_surface_a_hot_report_and_plain_baselines_do_not() {
        let backend = Backend::build("sftree-opt-hot", StmConfig::ctl()).unwrap();
        let mut session = backend.session();
        for key in 0..64u64 {
            session.insert(key, key);
        }
        let report = backend.hot_report().expect("SF trees sample accesses");
        assert!(report.sampled_mass < u64::MAX); // shape check: merged fields exist
        assert!(Backend::build("rbtree", StmConfig::ctl())
            .unwrap()
            .hot_report()
            .is_none());
        assert!(Backend::build("ziptree", StmConfig::ctl())
            .unwrap()
            .hot_report()
            .is_none());
    }

    #[test]
    fn stats_reset_and_aggregate_across_sessions() {
        // Built as the registry builds "sftree-opt-sharded2", keeping the map
        // so the shards' maintenance can be parked: a rotator committing
        // between the reset and the read would otherwise show up.
        let map = Arc::new(ShardedMap::optimized_with(
            2,
            StmConfig::ctl(),
            registry_maintenance_config_hot(false),
        ));
        let backend = Backend::assemble_sharded(Arc::clone(&map));
        let mut session = backend.session();
        for key in 0..32u64 {
            session.insert(key, key);
        }
        assert!(backend.stats().commits >= 32);
        let _parked = map.pause_maintenance();
        backend.reset_stats();
        assert_eq!(backend.stats().commits, 0);
    }
}
