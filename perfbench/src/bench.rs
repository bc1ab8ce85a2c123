//! Workloads, the closed-loop phase runner, the oracle checks and the
//! metrics of one benchmark run.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use crate::gen::{
    self, fold_fingerprint, Dist, Kind, Mix, Model, ScanExpect, Shape, Stream, CLIENTS,
    FINGERPRINT_SEED, SCAN_SPAN, UNCHECKED,
};
use crate::hist::Hist;
use crate::procfs;
use crate::sys::{self, DropEveryNthInsert, Rung, Session, StmCounts, System, LADDER};
use crate::trace::{Span, Trace};

/// One named traffic mix on one backend.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub rung: Rung,
    /// Keys present at the start.
    pub keys: u32,
    /// Key space `[0, range)`.
    pub range: u32,
    /// Zipf exponent of key choice; `None` for uniform keys.
    pub zipf: Option<f64>,
    pub mix: Mix,
    /// Aggregate ops/s of both clients on the reference host (2 cores):
    /// sets the per-client operation count for a requested run length.
    pub nominal_ops_per_s: f64,
    /// Per-client operations of the traced phase (one full stream cycle).
    pub trace_ops: u64,
    /// Per-client operations replayed on each ladder rung.
    pub ladder_ops: u64,
    /// Whether the ladder includes the durable rung, whose replay also
    /// yields the `wal.*` metrics. Populating it fsyncs every insert, so it
    /// only runs on the small key sets.
    pub ladder_wal: bool,
}

pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "point-small",
            rung: Rung::SfOpt,
            keys: 1 << 12,
            range: 1 << 13,
            zipf: None,
            mix: Mix {
                contains: 9000,
                update: 1000,
                scan: 0,
                moves: 0,
            },
            nominal_ops_per_s: 1.9e6,
            trace_ops: 1 << 18,
            ladder_ops: 1 << 16,
            ladder_wal: true,
        },
        Workload {
            name: "scan-skew-large",
            rung: Rung::SfOpt,
            keys: 1 << 18,
            range: 1 << 19,
            zipf: Some(0.99),
            mix: Mix {
                contains: 7500,
                update: 2000,
                scan: 500,
                moves: 0,
            },
            nominal_ops_per_s: 3.4e5,
            trace_ops: 1 << 17,
            ladder_ops: 1 << 15,
            ladder_wal: false,
        },
        Workload {
            name: "durable-move",
            rung: Rung::SfOptSharded4Wal,
            keys: 1 << 12,
            range: 1 << 13,
            zipf: None,
            mix: Mix {
                contains: 5000,
                update: 4500,
                scan: 0,
                moves: 500,
            },
            nominal_ops_per_s: 5.5e3,
            trace_ops: 1 << 14,
            ladder_ops: 1 << 12,
            ladder_wal: true,
        },
    ]
}

impl Workload {
    pub fn shape(&self) -> Shape {
        let dist = match self.zipf {
            Some(theta) => Dist::zipf(self.range, theta),
            None => Dist::Uniform,
        };
        Shape {
            keys: self.keys,
            range: self.range,
            mix: self.mix,
            dist,
        }
    }

    /// Per-client operation count for a run of about `seconds`.
    pub fn ops_per_client(&self, seconds: f64) -> u64 {
        ((seconds * self.nominal_ops_per_s / CLIENTS as f64) as u64).max(1)
    }
}

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub ops_per_client: u64,
    /// Independent trials: each sets a system up afresh and runs
    /// `ops_per_client / trials` operations per client on it. Every gated
    /// metric is the median over trials.
    pub trials: usize,
    pub trace: bool,
    /// Where logs and the trace file go (created if missing).
    pub work_dir: PathBuf,
    /// Plant a fault: drop every n-th insert of every client.
    pub fault_every: Option<u64>,
    /// Longest stream cycle per client; bounds memory of long runs.
    pub max_cycle: u64,
}

impl RunOpts {
    pub fn new(seed: u64, ops_per_client: u64, work_dir: PathBuf) -> Self {
        RunOpts {
            seed,
            ops_per_client,
            trials: 10,
            trace: false,
            work_dir,
            fault_every: None,
            max_cycle: 1 << 18,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, for metrics drawn from a latency distribution.
    pub samples: Option<u64>,
    /// The highest percentile with at least ten samples beyond it.
    pub deepest: Option<(f64, f64)>,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations outside single operations (final state, recovery).
    pub check_errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_errors.is_empty()
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
            deepest: None,
        });
    }

    /// p50 and p99 of one latency class: medians over trials, with the
    /// sample count and deepest resolved percentile of all trials pooled.
    fn latency(&mut self, trials: &[PhaseOut], class: usize) {
        let mut pooled = Hist::default();
        for t in trials {
            pooled.merge(&t.hists[class]);
        }
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            let mut per: Vec<f64> = trials
                .iter()
                .filter_map(|t| t.hists[class].quantile(q))
                .collect();
            self.metrics.push(Metric {
                name: format!("{}_{label}_us", CLASSES[class]),
                value: if per.is_empty() {
                    0.0
                } else {
                    median(&mut per) / 1e3
                },
                unit: "us",
                samples: Some(pooled.count()),
                deepest: pooled.deepest_resolved().map(|(q, v)| (q, v / 1e3)),
            });
        }
    }
}

/// Latency classes: `contains`, insert/delete, move, scan.
const CLASSES: [&str; 4] = ["read", "write", "move", "scan"];
/// Classes every workload has; moves and scans occur on one workload each
/// and are reported by the traced run.
const GATED_CLASSES: [usize; 2] = [0, 1];

fn class_of(kind: Kind) -> usize {
    match kind {
        Kind::Contains => 0,
        Kind::Insert | Kind::Delete => 1,
        Kind::Move => 2,
        Kind::Scan => 3,
    }
}

const OP_SPANS: [&str; 5] = [
    "op.contains",
    "op.insert",
    "op.delete",
    "op.move",
    "op.scan",
];

/// What one closed-loop phase measured.
pub struct PhaseOut {
    pub wall_s: f64,
    /// Sum over clients of each client's operations / its own run time.
    pub client_rate: f64,
    /// Threads of the process just after the clients were released.
    pub threads: usize,
    pub ops: u64,
    pub failed: u64,
    pub hists: [Hist; 4],
    pub spans: Vec<Span>,
    pub first_failure: Option<String>,
}

impl PhaseOut {
    /// Sum over clients of each client's operations per second of its own
    /// run time, so a client that finishes early adds no idle tail.
    pub fn throughput(&self) -> f64 {
        self.client_rate
    }
}

fn check_scan(result: &[(u64, u64)], lo: u64, hi: u64, stripe: u32, want: &ScanExpect) -> bool {
    let sorted = result.windows(2).all(|w| w[0].0 < w[1].0);
    let in_range = result.iter().all(|&(k, _)| (lo..=hi).contains(&k));
    let mut own = ScanExpect {
        count: 0,
        fingerprint: FINGERPRINT_SEED,
    };
    for &(k, v) in result {
        if k % CLIENTS as u64 == stripe as u64 {
            own.count += 1;
            own.fingerprint = fold_fingerprint(own.fingerprint, k, v);
        }
    }
    sorted && in_range && own == *want
}

struct ClientOut {
    start: Instant,
    end: Instant,
    failed: u64,
    hists: [Hist; 4],
    spans: Vec<Span>,
    first_failure: Option<String>,
}

fn client_loop(
    client: usize,
    session: &mut dyn Session,
    stream: &Stream,
    count: u64,
    barrier: &Barrier,
    trace: Option<(Instant, u32)>,
) -> ClientOut {
    let stripe = client as u32;
    let mut hists: [Hist; 4] = Default::default();
    let mut spans = Vec::with_capacity(if trace.is_some() { count as usize } else { 0 });
    let mut failed = 0;
    let mut first_failure = None;
    let ops = &stream.ops;
    let mut i = 0;
    barrier.wait();
    let start = Instant::now();
    for n in 0..count {
        let op = ops[i];
        i += 1;
        if i == ops.len() {
            i = 0;
        }
        let (a, b) = (op.a as u64, op.b as u64);
        let t0 = Instant::now();
        let (ok, t1) = match op.kind {
            Kind::Contains => {
                let r = session.contains(a);
                (
                    op.expect == UNCHECKED || r as u8 == op.expect,
                    Instant::now(),
                )
            }
            Kind::Insert => (session.insert(a, b), Instant::now()),
            Kind::Delete => (session.delete(a), Instant::now()),
            Kind::Move => (session.move_entry(a, b), Instant::now()),
            Kind::Scan => {
                let hi = a + SCAN_SPAN as u64 - 1;
                let result = session.scan(a, hi);
                let t1 = Instant::now();
                (
                    check_scan(&result, a, hi, stripe, &stream.scans[op.b as usize]),
                    t1,
                )
            }
        };
        hists[class_of(op.kind)].record((t1 - t0).as_nanos() as u64);
        if let Some((epoch, parent)) = trace {
            spans.push(Span {
                name: OP_SPANS[op.kind as usize],
                start: (t0 - epoch).as_nanos() as u64,
                end: (t1 - epoch).as_nanos() as u64,
                parent,
                req: ((client as u64 + 1) << 40) | n,
            });
        }
        if !ok {
            failed += 1;
            if first_failure.is_none() {
                first_failure = Some(format!("client {client} op {n}: {op:?}"));
            }
        }
    }
    ClientOut {
        start,
        end: Instant::now(),
        failed,
        hists,
        spans,
        first_failure,
    }
}

/// Run `count` operations per client, every client in its own thread,
/// closed loop, all released together.
pub fn run_phase(
    sessions: &mut [Box<dyn Session>],
    streams: &[Stream],
    count: u64,
    trace: Option<(Instant, u32)>,
) -> PhaseOut {
    let barrier = Barrier::new(sessions.len() + 1);
    let mut threads = 0;
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(c, (session, stream))| {
                let barrier = &barrier;
                s.spawn(move || client_loop(c, session.as_mut(), stream, count, barrier, trace))
            })
            .collect();
        barrier.wait();
        threads = procfs::thread_count();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let client_rate = outs
        .iter()
        .map(|o| count as f64 / (o.end - o.start).as_secs_f64())
        .sum();
    let start = outs.iter().map(|o| o.start).min().expect("clients");
    let end = outs.iter().map(|o| o.end).max().expect("clients");
    let mut hists: [Hist; 4] = Default::default();
    let mut spans = Vec::new();
    let mut failed = 0;
    let mut first_failure = None;
    for o in outs {
        for (h, oh) in hists.iter_mut().zip(&o.hists) {
            h.merge(oh);
        }
        failed += o.failed;
        first_failure = first_failure.or(o.first_failure);
        spans.extend(o.spans);
    }
    PhaseOut {
        wall_s: (end - start).as_secs_f64(),
        client_rate,
        threads,
        ops: count * sessions.len() as u64,
        failed,
        hists,
        spans,
        first_failure,
    }
}

/// A built and populated system with one session per client.
struct Ready {
    sys: System,
    sessions: Vec<Box<dyn Session>>,
    /// Build, populate and settle.
    setup_s: f64,
    populate_failed: u64,
}

fn populate(sessions: &mut [Box<dyn Session>], orders: &[Vec<u32>]) -> u64 {
    std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(orders)
            .map(|(session, order)| {
                s.spawn(move || {
                    order
                        .iter()
                        .filter(|&&k| !session.insert(k as u64, gen::initial_value(k) as u64))
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("populate thread panicked"))
            .sum()
    })
}

/// Let each tree's maintenance thread finish two full passes over the
/// freshly populated tree (at most 20 s). The passes never reach a fixed
/// point on their own: rotations continue on a static tree.
fn settle(sys: &System) {
    let start = sys.passes_per_tree();
    let deadline = Instant::now() + std::time::Duration::from_secs(20);
    while Instant::now() < deadline {
        let now = sys.passes_per_tree();
        if now.iter().zip(&start).all(|(n, s)| *n >= s + 2) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

fn build(
    rung: Rung,
    wal_root: &Path,
    fault_every: Option<u64>,
) -> io::Result<(System, Vec<Box<dyn Session>>)> {
    let sys = System::build(rung, wal_root)?;
    let sessions = (0..CLIENTS)
        .map(|_| {
            let s = sys.session();
            match fault_every {
                Some(n) => Box::new(DropEveryNthInsert {
                    inner: s,
                    n,
                    seen: 0,
                }) as Box<dyn Session>,
                None => s,
            }
        })
        .collect();
    Ok((sys, sessions))
}

/// Insert every client's initial keys and wait for maintenance to settle;
/// returns the number of inserts that reported no change.
fn populate_settled(sys: &System, sessions: &mut [Box<dyn Session>], orders: &[Vec<u32>]) -> u64 {
    let failed = populate(sessions, orders);
    settle(sys);
    failed
}

fn set_up(
    rung: Rung,
    orders: &[Vec<u32>],
    wal_root: &Path,
    fault_every: Option<u64>,
) -> io::Result<Ready> {
    let started = Instant::now();
    let (sys, mut sessions) = build(rung, wal_root, fault_every)?;
    let populate_failed = populate_settled(&sys, &mut sessions, orders);
    Ok(Ready {
        sys,
        sessions,
        setup_s: started.elapsed().as_secs_f64(),
        populate_failed,
    })
}

/// Compare a full scan of the live system with the union of the models.
fn verify_full(sessions: &mut [Box<dyn Session>], expected: &[(u64, u64)]) -> Option<String> {
    let actual = sessions[0].scan(0, u64::MAX - 1);
    diff_entries("full scan", &actual, expected)
}

fn diff_entries(what: &str, actual: &[(u64, u64)], expected: &[(u64, u64)]) -> Option<String> {
    if actual == expected {
        return None;
    }
    let first = actual
        .iter()
        .zip(expected)
        .position(|(a, e)| a != e)
        .unwrap_or(actual.len().min(expected.len()));
    Some(format!(
        "{what}: {} entries, expected {}; first difference at index {first}: {:?} vs {:?}",
        actual.len(),
        expected.len(),
        actual.get(first),
        expected.get(first)
    ))
}

fn union(models: &[Model]) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = models.iter().flat_map(|m| m.entries()).collect();
    all.sort_unstable();
    all
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

struct Prepared {
    shape: Shape,
    starts: Vec<Model>,
    orders: Vec<Vec<u32>>,
}

fn prepare(w: &Workload, seed: u64) -> Prepared {
    let shape = w.shape();
    let (starts, orders) = (0..CLIENTS as u32)
        .map(|c| gen::initial(&shape, seed, c))
        .unzip();
    Prepared {
        shape,
        starts,
        orders,
    }
}

fn streams(p: &Prepared, seed: u64, len: u64) -> Vec<Stream> {
    p.starts
        .iter()
        .map(|start| gen::cycle(&p.shape, seed, start, len))
        .collect()
}

/// The gated run: `trials` independent trials, each a fresh set-up, a
/// closed-loop phase and the oracle's end-state checks; every metric but
/// `peak_rss_mb` is the median over trials.
pub fn run(w: &Workload, opts: &RunOpts) -> io::Result<Outcome> {
    if opts.trace {
        return run_traced(w, opts);
    }
    let wal_root = opts.work_dir.join("wal");
    let p = prepare(w, opts.seed);
    let trials = opts.trials.max(1);
    let count = (opts.ops_per_client / trials as u64).max(1);
    let streams = streams(&p, opts.seed, count.min(opts.max_cycle));
    let finals: Vec<Model> = p
        .starts
        .iter()
        .zip(&streams)
        .map(|(start, s)| s.state_after(start, count))
        .collect();
    let expected = union(&finals);
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut phases = Vec::new();
    // The streams, models and key orders are resident by now; the metric
    // is the most the program adds to them at any point of the run.
    let data_rss_mb = procfs::rss_mb().unwrap_or(0.0);
    for _ in 0..trials {
        let Ready {
            mut sys,
            mut sessions,
            setup_s,
            populate_failed,
        } = set_up(w.rung, &p.orders, &wal_root, opts.fault_every)?;
        setup_times.push(setup_s);
        if populate_failed > 0 {
            out.check_errors
                .push(format!("{populate_failed} populate inserts returned false"));
        }
        let phase = run_phase(&mut sessions, &streams, count, None);
        out.attempted += phase.ops;
        out.failed += phase.failed;
        if let Some(f) = &phase.first_failure {
            out.notes.push(format!("first failed op: {f}"));
        }
        let mismatch = sys.inspect_quiescent(|_| verify_full(&mut sessions, &expected));
        out.check_errors.extend(mismatch);
        drop(sessions);
        let dir = sys.take_dir();
        drop(sys);
        if let Some(dir) = dir {
            let (recovered, _) = sys::reopen_entries(dir.path())?;
            out.check_errors
                .extend(diff_entries("recovered log", &recovered, &expected));
        }
        phases.push(phase);
    }

    let peak_rss_mb = procfs::peak_rss_mb().unwrap_or(0.0) - data_rss_mb;
    let mut per: Vec<f64> = phases.iter().map(PhaseOut::throughput).collect();
    out.notes.push(format!(
        "trial throughputs (ops/s): {}",
        per.iter()
            .map(|t| format!("{t:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.metric("throughput_ops_s", median(&mut per), "1/s");
    for class in GATED_CLASSES {
        out.latency(&phases, class);
    }
    for class in [2, 3] {
        let mut pooled = Hist::default();
        for t in &phases {
            pooled.merge(&t.hists[class]);
        }
        if let (Some(p50), Some(p99)) = (pooled.quantile(0.5), pooled.quantile(0.99)) {
            out.notes.push(format!(
                "{} latency (not gated): p50={:.3}us p99={:.3}us samples={}",
                CLASSES[class],
                p50 / 1e3,
                p99 / 1e3,
                pooled.count()
            ));
        }
    }
    out.metric("setup_s", median(&mut setup_times), "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    Ok(out)
}

/// `sf-persist` figures of the durable ladder rung (all 0 without one).
#[derive(Default)]
struct WalFigures {
    records_per_fsync: f64,
    fsyncs_per_write: f64,
    bytes_per_user_byte: f64,
    sync_wait_p50_us: f64,
    fsync_p99_us: f64,
    writer_cpu_share: f64,
    reopen_s: f64,
    replay_records_per_s: f64,
}

/// Operations of each kind in the first `count` operations of every stream.
fn kind_totals(streams: &[Stream], count: u64) -> [u64; 5] {
    streams.iter().fold([0; 5], |acc, s| {
        let k = s.kind_counts(count);
        std::array::from_fn(|i| acc[i] + k[i])
    })
}

/// Snapshot of every counter the per-layer metrics are computed from.
struct Counters {
    at: Instant,
    stm_total: StmCounts,
    stm_clients: StmCounts,
    tree: sys::TreeCounts,
    threads: procfs::ThreadCpu,
}

fn counters(sys: &System, sessions: &mut [Box<dyn Session>]) -> Counters {
    let mut stm_clients = StmCounts::default();
    for s in sessions.iter_mut() {
        stm_clients.add(&s.stm_counts());
    }
    Counters {
        at: Instant::now(),
        stm_total: sys.stm_total(),
        stm_clients,
        tree: sys.tree_counts(),
        threads: procfs::threads(),
    }
}

/// Quiescent tree shape: mean live-key depth, height, and the depth of the
/// node with the most sampled accesses.
fn tree_shape(trees: &[std::sync::Arc<sf_tree::OptSpecFriendlyTree>]) -> (f64, f64, f64) {
    let (mut depth_sum, mut keys, mut height) = (0u64, 0u64, 0usize);
    let mut hot = sf_tree::HotReport::default();
    for tree in trees {
        let inspect = tree.inspect();
        for (key, _) in inspect.live_entries() {
            depth_sum += inspect.key_depth(key).unwrap_or(0) as u64;
            keys += 1;
        }
        height = height.max(inspect.depth());
        hot.merge(&inspect.hot_summary());
    }
    (
        ratio(depth_sum as f64, keys as f64),
        height as f64,
        hot.hottest_depth as f64,
    )
}

/// The traced run: per-layer metrics, computed over a traced phase from
/// counters snapshotted at its boundaries, plus the ladder. It runs one
/// untraced phase before and one after it on the same system to measure
/// tracing overhead.
fn run_traced(w: &Workload, opts: &RunOpts) -> io::Result<Outcome> {
    let wal_root = opts.work_dir.join("wal");
    let p = prepare(w, opts.seed);
    let len = opts.ops_per_client.min(w.trace_ops).max(2);
    let streams_t = streams(&p, opts.seed, len);
    let count = streams_t[0].ops.len() as u64;
    let mut out = Outcome::default();
    let mut trace = Trace::default();
    let epoch = trace.epoch;
    let root = trace.begin("bench", 0);

    let span = trace.begin("setup.build", root);
    let (sys, mut sessions) = build(w.rung, &wal_root, opts.fault_every)?;
    trace.end(span);
    let span = trace.begin("setup.populate", root);
    let populate_failed = populate_settled(&sys, &mut sessions, &p.orders);
    trace.end(span);
    if populate_failed > 0 {
        out.check_errors
            .push(format!("{populate_failed} populate inserts returned false"));
    }

    // Untraced reference phases before and after the traced one, so that
    // drift over the run cancels out of the tracing overhead.
    let reference = trace.begin("run.untraced", root);
    let untraced = run_phase(&mut sessions, &streams_t, count, None);
    trace.end(reference);

    let before = counters(&sys, &mut sessions);
    let (passes_before, _) = sf_tree::maintenance_histograms();
    let traced_id = trace.begin("run.traced", root);
    let traced = run_phase(&mut sessions, &streams_t, count, Some((epoch, traced_id)));
    trace.end(traced_id);
    let after = counters(&sys, &mut sessions);
    let pass_ns = sf_tree::maintenance_histograms()
        .0
        .delta_since(&passes_before);
    let reference = trace.begin("run.untraced", root);
    let untraced_after = run_phase(&mut sessions, &streams_t, count, None);
    trace.end(reference);
    let has_moves = w.mix.moves > 0;
    let move_pairs: Vec<(u64, u64)> = streams_t
        .iter()
        .flat_map(|s| s.ops.iter().filter(|o| o.kind == Kind::Move))
        .map(|o| (o.a as u64, o.b as u64))
        .collect();
    let cross_moves = move_pairs
        .iter()
        .filter(|(a, b)| sys.shard_of(*a) != sys.shard_of(*b))
        .count();
    let phases = [&untraced, &traced, &untraced_after];
    out.attempted = phases.iter().map(|p| p.ops).sum();
    out.failed = phases.iter().map(|p| p.failed).sum();
    for f in phases.iter().filter_map(|p| p.first_failure.as_ref()) {
        out.notes.push(format!("first failed op: {f}"));
    }
    trace.extend(traced.spans.iter().copied());

    // Full cycles leave every stripe in its start state.
    let expected = union(&p.starts);
    let (mismatch, (depth_mean, height, hot_depth)) = sys.inspect_quiescent(|trees| {
        let span = trace.begin("verify.scan", root);
        let mismatch = verify_full(&mut sessions, &expected);
        trace.end(span);
        let span = trace.begin("inspect.tree", root);
        let shape = tree_shape(trees);
        trace.end(span);
        (mismatch, shape)
    });
    out.check_errors.extend(mismatch);

    let teardown = trace.begin("teardown.drop", root);
    drop(sessions);
    drop(sys);
    trace.end(teardown);

    // Ladder: the same generator and seed, replayed on every rung.
    let ladder_len = len.min(w.ladder_ops).max(2);
    let streams_l = streams(&p, opts.seed, ladder_len);
    let ladder_count = streams_l[0].ops.len() as u64;
    let mut ladder = Vec::new();
    let mut wal = WalFigures::default();
    for rung in LADDER {
        if rung == Rung::SfOptSharded4Wal && !w.ladder_wal {
            ladder.push((rung, 0.0));
            continue;
        }
        let span = trace.begin(rung.ladder_span(), root);
        let mut r = set_up(rung, &p.orders, &wal_root, opts.fault_every)?;
        sf_persist::stats::reset();
        let threads_before = procfs::threads();
        let phase = run_phase(&mut r.sessions, &streams_l, ladder_count, None);
        let threads_after = procfs::threads();
        out.attempted += phase.ops;
        out.failed += phase.failed;
        let sessions = &mut r.sessions;
        let mismatch = r
            .sys
            .inspect_quiescent(|_| verify_full(sessions, &expected));
        out.check_errors
            .extend(mismatch.map(|e| format!("{}: {e}", rung.name())));
        let dir = r.sys.take_dir();
        drop(r);
        trace.end(span);
        ladder.push((rung, 1e9 / phase.throughput()));
        if let Some(dir) = dir {
            let stats = sf_persist::stats::snapshot();
            let kinds = kind_totals(&streams_l, ladder_count);
            let writes = kinds[Kind::Insert as usize]
                + kinds[Kind::Delete as usize]
                + kinds[Kind::Move as usize];
            let user_bytes = 16 * kinds[Kind::Insert as usize]
                + 8 * kinds[Kind::Delete as usize]
                + 16 * kinds[Kind::Move as usize];
            wal.records_per_fsync = ratio(stats.records as f64, stats.batches as f64);
            wal.fsyncs_per_write = ratio(stats.batches as f64, writes as f64);
            wal.bytes_per_user_byte = ratio(stats.bytes as f64, user_bytes as f64);
            wal.sync_wait_p50_us = sf_persist::stats::sync_wait_histogram().p50() as f64 / 1e3;
            wal.fsync_p99_us = sf_persist::stats::fsync_histogram().p99() as f64 / 1e3;
            wal.writer_cpu_share = ratio(
                procfs::cpu_s_between(&threads_before, &threads_after, procfs::WAL_WRITER_THREAD),
                phase.wall_s,
            );
            let span = trace.begin("wal.reopen", root);
            let replayed_before = sf_persist::stats::snapshot().replayed;
            let (recovered, elapsed) = sys::reopen_entries(dir.path())?;
            trace.end(span);
            let replayed = sf_persist::stats::snapshot().replayed - replayed_before;
            wal.reopen_s = elapsed.as_secs_f64();
            wal.replay_records_per_s = ratio(replayed as f64, wal.reopen_s);
            out.check_errors
                .extend(diff_entries("recovered log", &recovered, &expected));
        }
    }
    trace.end(root);

    // Per-layer metrics over the traced phase.
    let wall = (after.at - before.at).as_secs_f64();
    let ops = traced.ops as f64;
    let client = after.stm_clients.since(&before.stm_clients);
    let total = after.stm_total.since(&before.stm_total);
    let tree = after.tree.since(&before.tree);
    let maintenance_commits = total.commits.saturating_sub(client.commits);
    let abort = client.aborts as f64;
    out.metric(
        "stm.commits_per_op",
        ratio(client.commits as f64, ops),
        "ratio",
    );
    out.metric("stm.aborts_per_op", ratio(abort, ops), "ratio");
    out.metric(
        "stm.abort_frac.read_validation",
        ratio(client.abort_read_validation as f64, abort),
        "ratio",
    );
    out.metric(
        "stm.abort_frac.lock_conflict",
        ratio(client.abort_lock_conflict as f64, abort),
        "ratio",
    );
    out.metric(
        "stm.abort_frac.combiner",
        ratio(client.abort_combiner as f64, abort),
        "ratio",
    );
    out.metric(
        "stm.abort_frac.scan_validation",
        ratio(client.abort_scan_validation as f64, abort),
        "ratio",
    );
    out.metric(
        "stm.combined_frac",
        ratio(client.combined_commits as f64, client.commits as f64),
        "ratio",
    );
    out.metric("stm.reads_per_op", ratio(client.reads as f64, ops), "count");
    out.metric("tree.depth_mean", depth_mean, "count");
    out.metric("tree.height", height, "count");
    out.metric("tree.hot_key_depth", hot_depth, "count");
    out.metric(
        "maint.cpu_share",
        ratio(
            procfs::cpu_s_between(&before.threads, &after.threads, procfs::MAINTENANCE_THREAD),
            wall,
        ),
        "ratio",
    );
    out.metric("maint.passes_per_s", ratio(tree.passes as f64, wall), "1/s");
    out.metric(
        "maint.useful_frac",
        ratio(tree.useful() as f64, maintenance_commits as f64),
        "ratio",
    );
    out.metric("maint.pass_p99_ms", pass_ns.p99() as f64 / 1e6, "ms");
    if has_moves {
        out.metric(
            "shard.cross_move_frac",
            ratio(cross_moves as f64, move_pairs.len() as f64),
            "ratio",
        );
    }
    out.metric("proc.threads", traced.threads as f64, "count");
    out.metric("wal.records_per_fsync", wal.records_per_fsync, "ratio");
    out.metric("wal.fsyncs_per_write", wal.fsyncs_per_write, "ratio");
    out.metric("wal.bytes_per_user_byte", wal.bytes_per_user_byte, "ratio");
    out.metric("wal.sync_wait_p50_us", wal.sync_wait_p50_us, "us");
    out.metric("wal.fsync_p99_us", wal.fsync_p99_us, "us");
    out.metric("wal.writer_cpu_share", wal.writer_cpu_share, "ratio");
    out.metric("wal.reopen_s", wal.reopen_s, "s");
    out.metric("wal.replay_records_per_s", wal.replay_records_per_s, "1/s");
    // Moves occur on one workload only; their figures are printed there.
    let classes: &[usize] = if has_moves { &[2, 3] } else { &[3] };
    for &class in classes {
        let mut pooled = untraced.hists[class].clone();
        pooled.merge(&untraced_after.hists[class]);
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            out.metric(
                format!("op.{}_{label}_us", CLASSES[class]),
                pooled.quantile(q).unwrap_or(0.0) / 1e3,
                "us",
            );
        }
    }
    for (rung, ns) in ladder {
        out.metric(format!("ladder.{}.ns_per_op", rung.name()), ns, "ns");
    }
    out.metric(
        "bench.trace_overhead_frac",
        1.0 - ratio(
            traced.throughput(),
            (untraced.throughput() + untraced_after.throughput()) / 2.0,
        ),
        "ratio",
    );

    let file = opts.work_dir.join(format!("trace-{}.tsv", w.name));
    trace.write(&file)?;
    out.notes
        .push(format!("spans written to {}", file.display()));
    Ok(out)
}
