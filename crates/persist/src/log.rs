//! The write-ahead log: segment files driven by an asynchronous group-commit
//! writer thread (or, as a fallback, by leader-based group commit).
//!
//! One [`Wal`] owns one directory. Redo records are *enqueued* by commit
//! hooks into a **bounded submission ring** (cheap: a buffer push under a
//! mutex, blocking only when the ring is full — backpressure, never drops)
//! and made durable by a dedicated **writer thread** that drains the ring in
//! batches: it collects up to `group` records, waiting up to the batching
//! *window* (`WalOptions::window`, the `SF_WAL_WINDOW_US` knob) for
//! stragglers, then performs one `write` + one `fsync` and wakes every
//! mutator parked in [`Wal::sync_to`]. A mutator therefore **never executes
//! `write`/`fsync` itself** — the paper's core trick (move the expensive,
//! abort-prone work off the mutator path into a dedicated thread) applied to
//! durability.
//!
//! Two fallback modes remain:
//!
//! * [`WriterMode::Leader`] (`SF_WAL_WRITER=leader`) restores the previous
//!   design: the first [`Wal::sync_to`] waiter becomes the flusher, drains up
//!   to `group` pending records into one `write` + `fsync`, and wakes the
//!   waiters the batch covered — the classic group commit of
//!   `brianshih1/little-key-value-db`'s redo log.
//! * `group == 0` selects **buffered** mode: no writer thread, no per-op
//!   sync; records are written only by checkpoints, [`Wal::flush`], and drop.
//!
//! ## Checkpoint triggers
//!
//! The writer thread also evaluates the **checkpoint triggers**: a size
//! threshold (records since the last checkpoint, `SF_WAL_CKPT`) and a time
//! interval (`SF_WAL_CKPT_MS`). When either fires, the writer invokes the
//! hook installed by [`Wal::set_checkpoint_hook`] (the durable map's
//! checkpoint, guarded by a `try_lock` of its checkpoint lock). A hook that
//! reports "could not run" — e.g. the checkpoint lock is held by an
//! in-flight cross-shard move — leaves the trigger **deferred**: the writer
//! simply retries on its next wakeup, so a purely move-driven workload still
//! checkpoints as soon as the move scope drops the lock.
//!
//! ## Failure (poisoning)
//!
//! The log promises callers durability, so an `fsync`/`write` failure cannot
//! be swallowed: the writer marks the log **poisoned** with the error and
//! wakes everyone. Every parked [`Wal::sync_to`] waiter then panics with the
//! original I/O error (instead of hanging forever), as does any later
//! enqueue; [`Wal::flush`] surfaces it as an `Err`.
//!
//! ## Files
//!
//! * `segment-NNNNNNNN.wal` — numbered log segments of record frames
//!   (see [`crate::record`]). Appends go to the highest segment; a
//!   checkpoint *seals* it (flush + switch to the next index) so the sealed
//!   prefix can be deleted once the checkpoint image is durable.
//! * `checkpoint.ck` — one checksummed frame holding the snapshot version
//!   and the full entry set. Written as `checkpoint.tmp` + fsync + atomic
//!   rename, so a crash mid-checkpoint leaves the previous image intact.
//!
//! ## Ordering
//!
//! Records carry their STM commit version. Within one flush batch the
//! writer sorts by version, so the file order tracks commit order; across
//! batches a preempted committer can still enqueue late. Recovery therefore
//! never trusts file order alone: it sorts the surviving records by version
//! before replay (see [`crate::recovery`]), which makes the log's contract
//! independent of scheduling. The ring itself is FIFO, so a record that was
//! *fsynced* before another was *enqueued* (the cross-shard move protocol's
//! intent-before-halves ordering) is durable strictly first.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use sf_obs::{EventKind, FlightRecorder};
use sf_tree::{Key, Value};

use crate::record::{write_frame, WalRecord};
use crate::stats::LogStats;

/// Name of the durable checkpoint image inside a log directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ck";
/// Scratch name the checkpoint is written under before the atomic rename.
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// Who performs the `write`+`fsync` of a group-commit batch
/// (the `SF_WAL_WRITER` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriterMode {
    /// A dedicated writer thread drains the submission ring; mutators only
    /// enqueue and park. The default.
    #[default]
    Thread,
    /// Leader-based group commit: the first waiter flushes the batch inline
    /// (the pre-writer-thread design, kept as a fallback).
    Leader,
}

/// Tuning of a [`Wal`] (and of the [`crate::DurableMap`] that owns it).
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Maximum records one group-commit batch drains into a single
    /// `write` + `fsync` (the `SF_WAL_GROUP` knob). `0` selects **buffered**
    /// mode: mutations return without waiting for durability and the log is
    /// only written/synced by checkpoints, [`Wal::flush`], and drop — fast,
    /// but a crash loses the buffered tail.
    pub group: usize,
    /// Auto-checkpoint size threshold in records (`SF_WAL_CKPT`): once at
    /// least this many records have been logged since the last checkpoint,
    /// the trigger fires. `0` disables the size trigger.
    pub auto_checkpoint: u64,
    /// Who flushes batches (`SF_WAL_WRITER`): the dedicated writer thread
    /// (default) or the leader-based fallback. Irrelevant in buffered mode.
    pub writer: WriterMode,
    /// Batching window (`SF_WAL_WINDOW_US`): in thread mode, how long the
    /// writer waits for a partial batch to fill up to `group` records before
    /// flushing what it has. Zero flushes immediately (one batch per wakeup).
    pub window: Duration,
    /// Submission-ring capacity (`SF_WAL_RING`): in thread mode, an enqueue
    /// against a full ring blocks until the writer drains space (bounded
    /// memory; records are never dropped).
    pub ring_capacity: usize,
    /// Time-based checkpoint trigger (`SF_WAL_CKPT_MS`): checkpoint when at
    /// least this much time has passed since the last one *and* records have
    /// been logged since. `None` disables the time trigger. Only evaluated
    /// by the writer thread (thread mode).
    pub checkpoint_interval: Option<Duration>,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            group: 128,
            auto_checkpoint: 0,
            writer: WriterMode::Thread,
            window: Duration::from_micros(100),
            ring_capacity: 1024,
            checkpoint_interval: None,
        }
    }
}

/// Records waiting to be flushed, with their assigned sequence numbers.
struct PendingState {
    /// FIFO ring of enqueued-but-not-yet-written records.
    pending: VecDeque<WalRecord>,
    /// Sequence number of the last enqueued record (first record is 1).
    enqueued_seq: u64,
    /// Sequence number through which records are durably on disk.
    durable_seq: u64,
    /// A leader is currently writing a batch (leader mode only).
    flushing: bool,
    /// The writer thread should drain everything promptly (an explicit
    /// flush/rotate is waiting); cleared once `durable_seq` catches up.
    drain_goal: u64,
    /// The Wal is being dropped: the writer drains and exits.
    shutdown: bool,
    /// A write/fsync failed; the durability promise is broken for good.
    /// Waiters panic with this message, `flush` returns it as an error.
    poisoned: Option<String>,
}

/// The current segment file.
struct SegmentState {
    file: File,
    index: u64,
}

/// Trigger-driven checkpoint callback (see [`Wal::set_checkpoint_hook`]):
/// returns `true` when the checkpoint ran (or is no longer needed), `false`
/// when it must stay deferred.
pub type CheckpointHook = Box<dyn FnMut(&WalShared) -> bool + Send>;

/// The state shared between the [`Wal`] façade, its enqueueing mutators, and
/// the writer thread. The thread holds an `Arc<WalShared>` (never the `Wal`
/// itself, so dropping the last `Wal` reference always shuts it down).
pub struct WalShared {
    dir: PathBuf,
    options: WalOptions,
    state: Mutex<PendingState>,
    /// Waiters for durability progress (sync_to / flush).
    flushed: Condvar,
    /// Producers waiting for ring space (thread mode backpressure).
    space: Condvar,
    /// The writer thread waiting for work / drain requests / shutdown.
    work: Condvar,
    segment: Mutex<SegmentState>,
    records_since_checkpoint: AtomicU64,
    last_checkpoint_at: Mutex<Instant>,
    /// Trigger-driven checkpoint hook, installed by the durable map. Returns
    /// `true` when the checkpoint ran (or is no longer needed), `false` when
    /// it must stay deferred (checkpoint lock held by a move in flight).
    checkpoint_hook: Mutex<Option<CheckpointHook>>,
    /// Identity of the writer thread, so re-entrant flushes (a checkpoint
    /// hook rotating the log *from* the writer thread) drain inline instead
    /// of deadlocking on themselves.
    writer_thread: Mutex<Option<ThreadId>>,
    /// Test-only failure injection: the next flush batch fails its fsync.
    #[doc(hidden)]
    pub fail_next_flush: AtomicBool,
    /// This log's own counters and latency histograms (every note
    /// double-books into the process-wide `stats` aggregate).
    stats: LogStats,
}

/// A commit-ordered write-ahead log over one directory. See the
/// [module docs](self).
pub struct Wal {
    shared: Arc<WalShared>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.shared.dir)
            .field("options", &self.shared.options)
            .finish()
    }
}

impl std::fmt::Debug for PendingState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingState")
            .field("pending", &self.pending.len())
            .field("enqueued_seq", &self.enqueued_seq)
            .field("durable_seq", &self.durable_seq)
            .field("flushing", &self.flushing)
            .field("shutdown", &self.shutdown)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// Path of segment `index` inside `dir`.
pub fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:08}.wal"))
}

/// Parse a file name of the `segment-NNNNNNNN.wal` form into its index.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("segment-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

/// Best-effort fsync of a directory (so renames and creations inside it are
/// durable). Ignored on platforms where directories cannot be opened.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

impl WalShared {
    /// The directory this log writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records enqueued since the last completed checkpoint (the
    /// auto-checkpoint size trigger reads this).
    pub fn records_since_checkpoint(&self) -> u64 {
        // sf-lint: allow(relaxed-atomic, checkpoint-trigger heuristic; a stale count defers the checkpoint by at most one record)
        self.records_since_checkpoint.load(Ordering::Relaxed)
    }

    /// This log's own statistics (counters and latency histograms), scoped
    /// to this instance: concurrent logs — other shards, other tests — do
    /// not show up here. The process-wide aggregate stays available through
    /// [`crate::stats::snapshot`].
    pub fn stats(&self) -> &LogStats {
        &self.stats
    }

    fn lock_state(&self) -> MutexGuard<'_, PendingState> {
        self.state.lock()
    }

    fn lock_segment(&self) -> MutexGuard<'_, SegmentState> {
        self.segment.lock()
    }

    fn on_writer_thread(&self) -> bool {
        *self.writer_thread.lock() == Some(std::thread::current().id())
    }

    fn thread_mode(&self) -> bool {
        self.options.group > 0 && self.options.writer == WriterMode::Thread
    }

    /// Enqueue one record and return its sequence number. In thread mode a
    /// full ring blocks until the writer frees space (records are never
    /// dropped).
    ///
    /// # Panics
    /// Panics when the log is poisoned: the caller is about to be promised
    /// durability the log can no longer provide.
    pub fn enqueue(&self, record: WalRecord) -> u64 {
        let mut state = self.lock_state();
        if self.thread_mode() {
            while state.pending.len() >= self.options.ring_capacity
                && state.poisoned.is_none()
                && !state.shutdown
            {
                self.space.wait(&mut state);
            }
        }
        if let Some(reason) = &state.poisoned {
            panic!("WAL poisoned: {reason}");
        }
        state.pending.push_back(record);
        state.enqueued_seq += 1;
        self.records_since_checkpoint
            // sf-lint: allow(relaxed-atomic, checkpoint-trigger counter; readers treat it as a heuristic threshold)
            .fetch_add(1, Ordering::Relaxed);
        self.stats.note_ring_depth(state.pending.len() as u64);
        let seq = state.enqueued_seq;
        drop(state);
        self.work.notify_one();
        seq
    }

    /// Block until every record with a sequence number `<= seq` is durably
    /// on disk. In thread mode the caller parks until the writer thread's
    /// batch covers it; in leader mode the first waiter flushes batches
    /// itself. In buffered mode (`group == 0`) this returns immediately.
    ///
    /// # Panics
    /// Panics when the log is (or becomes) poisoned: the caller was promised
    /// durability and the log cannot provide it, and hanging forever would
    /// hide the failure.
    pub fn sync_to(&self, seq: u64) {
        if self.options.group == 0 {
            return;
        }
        let mut state = self.lock_state();
        loop {
            if let Some(reason) = &state.poisoned {
                panic!("WAL poisoned: {reason}");
            }
            if state.durable_seq >= seq {
                return;
            }
            if self.thread_mode() || state.flushing {
                // Thread mode always parks; in leader mode a follower parks
                // while the current leader runs the batch.
                self.flushed.wait(&mut state);
            } else {
                state = self.flush_batch(state, false);
            }
        }
    }

    /// Write and sync everything currently pending (used by checkpoints,
    /// shutdown, and buffered mode's explicit durability points). Safe to
    /// call from the writer thread itself (a checkpoint hook rotating the
    /// log): the drain then runs inline.
    pub fn flush(&self) -> io::Result<()> {
        if self.thread_mode() && !self.on_writer_thread() {
            let mut state = self.lock_state();
            let goal = state.enqueued_seq;
            state.drain_goal = state.drain_goal.max(goal);
            self.work.notify_one();
            loop {
                if let Some(reason) = &state.poisoned {
                    return Err(io::Error::other(reason.clone()));
                }
                if state.durable_seq >= goal {
                    return Ok(());
                }
                self.flushed.wait(&mut state);
            }
        }
        // Leader / buffered mode, or the writer thread draining inline.
        let mut state = self.lock_state();
        while state.durable_seq < state.enqueued_seq {
            if let Some(reason) = &state.poisoned {
                return Err(io::Error::other(reason.clone()));
            }
            if state.flushing {
                self.flushed.wait(&mut state);
                continue;
            }
            state = self.flush_batch(state, self.on_writer_thread());
        }
        if let Some(reason) = &state.poisoned {
            return Err(io::Error::other(reason.clone()));
        }
        Ok(())
    }

    /// Write one batch (up to `group` records, or all pending when buffered)
    /// with one `write` + one `fsync`, and wake waiters. Consumes and
    /// returns the state lock. On I/O failure the log is poisoned instead of
    /// panicking; callers observe it through their own paths.
    fn flush_batch<'a>(
        &'a self,
        mut state: MutexGuard<'a, PendingState>,
        by_writer_thread: bool,
    ) -> MutexGuard<'a, PendingState> {
        debug_assert!(!state.flushing);
        let take = if self.options.group == 0 {
            state.pending.len()
        } else {
            state.pending.len().min(self.options.group)
        };
        if take == 0 {
            return state;
        }
        state.flushing = true;
        let mut batch: Vec<WalRecord> = state.pending.drain(..take).collect();
        drop(state);

        // Best-effort: make the file order track commit order within the
        // batch (recovery sorts globally anyway, see the module docs).
        batch.sort_by_key(|r| r.version);
        let mut buf = Vec::with_capacity(take * 64);
        for record in &batch {
            record.encode_into(&mut buf);
        }
        let io_started = Instant::now();
        let result: io::Result<()> = (|| {
            // sf-lint: allow(relaxed-atomic, fault-injection flag for crash tests; no ordering contract with real I/O)
            if self.fail_next_flush.swap(false, Ordering::Relaxed) {
                return Err(io::Error::other("injected WAL flush failure"));
            }
            let mut segment = self.lock_segment();
            segment.file.write_all(&buf)?;
            segment.file.sync_data()?;
            Ok(())
        })();
        let io_elapsed = io_started.elapsed();

        let mut state = self.lock_state();
        state.flushing = false;
        match result {
            Ok(()) => {
                self.stats
                    .note_batch(take as u64, buf.len() as u64, by_writer_thread);
                self.stats.note_fsync(io_elapsed);
                FlightRecorder::global().record(
                    EventKind::BatchFlush,
                    take as u64,
                    buf.len() as u64,
                );
                state.durable_seq += take as u64;
            }
            Err(error) => {
                // The records were drained but not written; the promise is
                // broken for every current and future waiter. Poison, and
                // wake everyone so each surfaces the error instead of
                // blocking on the condvar forever.
                state
                    .poisoned
                    .get_or_insert_with(|| format!("WAL write/sync failed: {error}"));
            }
        }
        self.flushed.notify_all();
        self.space.notify_all();
        state
    }

    /// Seal the current segment: flush everything pending into it, then
    /// switch appends to a fresh segment. Returns the sealed segment's
    /// index; every record enqueued before this call is in a segment
    /// `<= sealed`, so a snapshot taken *after* the rotation covers the
    /// sealed prefix entirely.
    pub fn rotate(&self) -> io::Result<u64> {
        // Drain the pending buffer into the old segment first.
        self.flush()?;
        let mut segment = self.lock_segment();
        // Records enqueued after flush() returned but before we took the
        // segment lock are still pending (the writer blocks on the segment
        // lock we now hold) and will land in the *new* segment, which is
        // exactly what the checkpoint protocol needs (their versions may
        // exceed the snapshot version). But the sealed file itself must be
        // fully durable:
        segment.file.sync_data()?;
        let sealed = segment.index;
        let next = sealed + 1;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, next))?;
        sync_dir(&self.dir);
        *segment = SegmentState { file, index: next };
        Ok(sealed)
    }

    /// Durably install a checkpoint image: `(version, entries)` is written
    /// to `checkpoint.tmp`, synced, atomically renamed over
    /// [`CHECKPOINT_FILE`], and every segment with index `<= sealed_through`
    /// is deleted (their records all have versions `<= version` and are
    /// covered by the image).
    pub fn install_checkpoint(
        &self,
        version: u64,
        entries: &[(Key, Value)],
        sealed_through: u64,
    ) -> io::Result<()> {
        crate::chk::sched_point(crate::chk::SchedEvent::Checkpoint);
        let mut payload = Vec::with_capacity(16 + entries.len() * 16);
        payload.extend_from_slice(&version.to_le_bytes());
        payload.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for &(key, value) in entries {
            payload.extend_from_slice(&key.to_le_bytes());
            payload.extend_from_slice(&value.to_le_bytes());
        }
        let mut framed = Vec::with_capacity(payload.len() + 12);
        write_frame(&mut framed, &payload);

        let tmp = self.dir.join(CHECKPOINT_TMP);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&framed)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        sync_dir(&self.dir);

        // The image is durable; the sealed prefix of the log is now garbage.
        for index in (1..=sealed_through).rev() {
            let path = segment_path(&self.dir, index);
            if path.exists() {
                fs::remove_file(path)?;
            } else {
                break;
            }
        }
        // sf-lint: allow(relaxed-atomic, trigger-counter reset; the checkpoint itself is ordered by the wal-state lock)
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        *self.last_checkpoint_at.lock() = Instant::now();
        self.stats.note_checkpoint();
        FlightRecorder::global().record(EventKind::CheckpointDone, entries.len() as u64, version);
        Ok(())
    }

    /// True when either checkpoint trigger (size or time) has fired.
    fn checkpoint_due(&self) -> bool {
        let logged = self.records_since_checkpoint();
        if logged == 0 {
            return false;
        }
        if self.options.auto_checkpoint > 0 && logged >= self.options.auto_checkpoint {
            return true;
        }
        if let Some(interval) = self.options.checkpoint_interval {
            let last = *self.last_checkpoint_at.lock();
            if last.elapsed() >= interval {
                return true;
            }
        }
        false
    }

    /// Run the installed checkpoint hook if a trigger is due. Returns `true`
    /// when the trigger is no longer pending (ran, or nothing to do).
    fn run_checkpoint_hook(&self) -> bool {
        if !self.checkpoint_due() {
            return true;
        }
        FlightRecorder::global().record(
            EventKind::CheckpointTrigger,
            self.records_since_checkpoint(),
            0,
        );
        let mut hook = self.checkpoint_hook.lock();
        let ran = match hook.as_mut() {
            // The hook try-locks the durable map's checkpoint lock; `false`
            // means a move (or an explicit checkpoint) holds it — stay
            // deferred and let the writer retry on its next wakeup.
            Some(hook) => hook(self),
            None => true,
        };
        if !ran {
            FlightRecorder::global().record(
                EventKind::CheckpointDefer,
                self.records_since_checkpoint(),
                0,
            );
        }
        ran
    }

    /// The writer thread's main loop: drain batches honoring the batching
    /// window, evaluate checkpoint triggers between batches, exit on
    /// shutdown after draining the ring.
    fn writer_loop(self: &Arc<Self>) {
        *self.writer_thread.lock() = Some(std::thread::current().id());
        let group = self.options.group;
        let window = self.options.window;
        // How long to sleep when idle: short while a deferred checkpoint is
        // pending (so the trigger retries promptly once the blocking move
        // finishes), long otherwise (shutdown/enqueue wake us anyway).
        let mut checkpoint_deferred = false;
        loop {
            let mut state = self.lock_state();
            if state.poisoned.is_some() {
                // The promise is broken; nothing more to write. Park until
                // shutdown so waiters (already woken) can observe the error.
                if state.shutdown {
                    return;
                }
                self.work.wait_for(&mut state, Duration::from_millis(50));
                if state.shutdown {
                    return;
                }
                continue;
            }
            if state.pending.is_empty() {
                if state.shutdown {
                    return;
                }
                let idle = if checkpoint_deferred {
                    Duration::from_millis(1)
                } else {
                    Duration::from_millis(100)
                };
                self.work.wait_for(&mut state, idle);
                if state.pending.is_empty() {
                    drop(state);
                    checkpoint_deferred = !self.run_checkpoint_hook();
                    continue;
                }
            }
            // Batching window: wait for the batch to fill up to `group`
            // records, but never past the window deadline, and not at all
            // when an explicit drain is waiting or we are shutting down.
            let deadline = Instant::now() + window;
            while state.pending.len() < group
                && state.drain_goal <= state.durable_seq
                && !state.shutdown
                && state.poisoned.is_none()
            {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                self.work.wait_for(&mut state, deadline - now);
            }
            state = self.flush_batch(state, true);
            if state.drain_goal <= state.durable_seq {
                state.drain_goal = 0;
            }
            drop(state);
            checkpoint_deferred = !self.run_checkpoint_hook();
        }
    }
}

impl Wal {
    /// Open (creating if necessary) the log directory and start appending to
    /// a fresh segment with index `start_segment` (which must be above every
    /// existing segment — recovery hands the caller `last_segment + 1`). In
    /// thread mode (the default, `group > 0`) this spawns the dedicated
    /// group-commit writer thread; it is joined when the `Wal` drops.
    pub fn open(
        dir: impl Into<PathBuf>,
        start_segment: u64,
        options: WalOptions,
    ) -> io::Result<Wal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&dir, start_segment))?;
        sync_dir(&dir);
        let shared = Arc::new(WalShared {
            dir,
            options,
            state: Mutex::named(
                PendingState {
                    pending: VecDeque::new(),
                    enqueued_seq: 0,
                    durable_seq: 0,
                    flushing: false,
                    drain_goal: 0,
                    shutdown: false,
                    poisoned: None,
                },
                "wal.state",
            ),
            flushed: Condvar::new(),
            space: Condvar::new(),
            work: Condvar::new(),
            segment: Mutex::named(
                SegmentState {
                    file,
                    index: start_segment,
                },
                "wal.segment",
            ),
            records_since_checkpoint: AtomicU64::new(0),
            last_checkpoint_at: Mutex::named(Instant::now(), "wal.checkpoint_at"),
            checkpoint_hook: Mutex::named(None, "wal.hook"),
            writer_thread: Mutex::named(None, "wal.writer_id"),
            fail_next_flush: AtomicBool::new(false),
            stats: LogStats::new(),
        });
        let writer = if shared.thread_mode() {
            let thread_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("sf-wal-writer".to_string())
                    .spawn(move || thread_shared.writer_loop())
                    .map_err(io::Error::other)?,
            )
        } else {
            None
        };
        Ok(Wal {
            shared,
            writer: Mutex::named(writer, "wal.writer_handle"),
        })
    }

    /// The shared core (enqueue/sync/rotate live there; checkpoint hooks
    /// receive it so they can drive the log without owning the `Wal`).
    pub fn shared(&self) -> &Arc<WalShared> {
        &self.shared
    }

    /// Install the trigger-driven checkpoint hook evaluated by the writer
    /// thread. The hook returns `true` when it ran (or decided nothing is
    /// needed) and `false` when it must stay deferred (e.g. the checkpoint
    /// lock is held by an in-flight cross-shard move).
    pub fn set_checkpoint_hook(&self, hook: CheckpointHook) {
        *self.shared.checkpoint_hook.lock() = Some(hook);
    }

    /// The directory this log writes to.
    pub fn dir(&self) -> &Path {
        self.shared.dir()
    }

    /// Records enqueued since the last completed checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.shared.records_since_checkpoint()
    }

    /// See [`WalShared::stats`].
    pub fn stats(&self) -> &LogStats {
        self.shared.stats()
    }

    /// See [`WalShared::enqueue`].
    pub fn enqueue(&self, record: WalRecord) -> u64 {
        self.shared.enqueue(record)
    }

    /// See [`WalShared::sync_to`].
    pub fn sync_to(&self, seq: u64) {
        self.shared.sync_to(seq)
    }

    /// See [`WalShared::flush`].
    pub fn flush(&self) -> io::Result<()> {
        self.shared.flush()
    }

    /// See [`WalShared::rotate`].
    pub fn rotate(&self) -> io::Result<u64> {
        self.shared.rotate()
    }

    /// See [`WalShared::install_checkpoint`].
    pub fn install_checkpoint(
        &self,
        version: u64,
        entries: &[(Key, Value)],
        sealed_through: u64,
    ) -> io::Result<()> {
        self.shared
            .install_checkpoint(version, entries, sealed_through)
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Clean shutdown: drain the ring, then join the writer thread (crash
        // tests bypass this by never dropping the map). The writer drains
        // everything pending before honoring the shutdown flag.
        let writer = self.writer.lock().take();
        {
            let mut state = self.shared.lock_state();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        if let Some(writer) = writer {
            let _ = writer.join();
        }
        // Leader/buffered mode (or a poisoned writer that exited early with
        // records still pending): persist what we can inline.
        let _ = self.shared.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{scan_segment, WalOp};
    use crate::tempdir::TempDir;

    fn record(version: u64, key: Key) -> WalRecord {
        WalRecord {
            version,
            op: WalOp::Insert {
                key,
                value: key * 10,
            },
        }
    }

    fn options(group: usize, writer: WriterMode) -> WalOptions {
        WalOptions {
            group,
            writer,
            ..WalOptions::default()
        }
    }

    fn both_modes() -> [WriterMode; 2] {
        [WriterMode::Thread, WriterMode::Leader]
    }

    #[test]
    fn enqueue_sync_roundtrip_lands_records_in_the_segment() {
        for mode in both_modes() {
            let dir = TempDir::new("wal-roundtrip");
            let wal = Wal::open(dir.path(), 1, options(4, mode)).unwrap();
            let mut last = 0;
            for i in 1..=10u64 {
                last = wal.enqueue(record(i, i));
            }
            wal.sync_to(last);
            let bytes = fs::read(segment_path(dir.path(), 1)).unwrap();
            let scan = scan_segment(&bytes);
            assert_eq!(scan.records.len(), 10, "{mode:?}");
            assert_eq!(scan.torn_bytes, 0, "{mode:?}");
            assert_eq!(wal.records_since_checkpoint(), 10, "{mode:?}");
        }
    }

    #[test]
    fn batch_order_is_sorted_by_version() {
        for mode in both_modes() {
            let dir = TempDir::new("wal-sort");
            let wal = Wal::open(dir.path(), 1, options(128, mode)).unwrap();
            // Enqueue out of commit order within one batch.
            wal.enqueue(record(3, 3));
            wal.enqueue(record(1, 1));
            let seq = wal.enqueue(record(2, 2));
            wal.sync_to(seq);
            let bytes = fs::read(segment_path(dir.path(), 1)).unwrap();
            let versions: Vec<u64> = scan_segment(&bytes)
                .records
                .iter()
                .map(|r| r.version)
                .collect();
            assert_eq!(versions, vec![1, 2, 3], "{mode:?}");
        }
    }

    #[test]
    fn buffered_mode_defers_writes_until_flush() {
        let dir = TempDir::new("wal-buffered");
        let wal = Wal::open(dir.path(), 1, options(0, WriterMode::Thread)).unwrap();
        let seq = wal.enqueue(record(1, 1));
        wal.sync_to(seq); // no-op in buffered mode
        let bytes = fs::read(segment_path(dir.path(), 1)).unwrap();
        assert!(bytes.is_empty(), "buffered mode must not write per op");
        wal.flush().unwrap();
        let bytes = fs::read(segment_path(dir.path(), 1)).unwrap();
        assert_eq!(scan_segment(&bytes).records.len(), 1);
    }

    #[test]
    fn rotate_seals_and_switches_segments() {
        for mode in both_modes() {
            let dir = TempDir::new("wal-rotate");
            let wal = Wal::open(dir.path(), 1, options(8, mode)).unwrap();
            wal.sync_to(wal.enqueue(record(1, 1)));
            let sealed = wal.rotate().unwrap();
            assert_eq!(sealed, 1, "{mode:?}");
            wal.sync_to(wal.enqueue(record(2, 2)));
            let first = fs::read(segment_path(dir.path(), 1)).unwrap();
            let second = fs::read(segment_path(dir.path(), 2)).unwrap();
            assert_eq!(scan_segment(&first).records.len(), 1, "{mode:?}");
            assert_eq!(scan_segment(&second).records.len(), 1, "{mode:?}");
        }
    }

    #[test]
    fn install_checkpoint_writes_image_and_deletes_sealed_segments() {
        let dir = TempDir::new("wal-ckpt");
        let wal = Wal::open(dir.path(), 1, options(8, WriterMode::Thread)).unwrap();
        wal.sync_to(wal.enqueue(record(1, 1)));
        let sealed = wal.rotate().unwrap();
        wal.install_checkpoint(1, &[(1, 10)], sealed).unwrap();
        assert!(!segment_path(dir.path(), 1).exists(), "sealed deleted");
        assert!(dir.path().join(CHECKPOINT_FILE).exists());
        assert!(!dir.path().join(CHECKPOINT_TMP).exists());
        assert_eq!(wal.records_since_checkpoint(), 0);
    }

    #[test]
    fn group_commit_shares_flushes_across_threads() {
        for mode in both_modes() {
            let dir = TempDir::new("wal-group");
            let wal = Arc::new(Wal::open(dir.path(), 1, options(64, mode)).unwrap());
            let threads: Vec<_> = (0..2u64)
                .map(|t| {
                    let wal = Arc::clone(&wal);
                    std::thread::spawn(move || {
                        for i in 0..50u64 {
                            let seq = wal.enqueue(record(t * 1000 + i + 1, i));
                            wal.sync_to(seq);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let bytes = fs::read(segment_path(dir.path(), 1)).unwrap();
            assert_eq!(scan_segment(&bytes).records.len(), 100, "{mode:?}");
        }
    }

    #[test]
    fn writer_thread_batches_within_the_window() {
        let dir = TempDir::new("wal-window");
        // A generous window: records enqueued together land in one batch.
        let wal = Wal::open(
            dir.path(),
            1,
            WalOptions {
                group: 64,
                window: Duration::from_millis(20),
                ..WalOptions::default()
            },
        )
        .unwrap();
        // This log's own counters: sibling tests' logs write the
        // process-wide aggregate concurrently.
        let before = wal.stats().snapshot();
        let mut last = 0;
        for i in 1..=16u64 {
            last = wal.enqueue(record(i, i));
        }
        wal.sync_to(last);
        let delta = wal.stats().snapshot().delta_since(&before);
        assert_eq!(delta.records, 16);
        assert!(delta.writer_batches >= 1, "writer thread flushed");
        assert!(
            delta.writer_batches < 16,
            "the window must coalesce records into batches, got {} batches",
            delta.writer_batches
        );
        let bytes = fs::read(segment_path(dir.path(), 1)).unwrap();
        assert_eq!(scan_segment(&bytes).records.len(), 16);
    }

    #[test]
    fn full_ring_blocks_enqueue_without_dropping() {
        let dir = TempDir::new("wal-ring");
        // Capacity 4, big group: producers outrun the writer and must block.
        let wal = Arc::new(
            Wal::open(
                dir.path(),
                1,
                WalOptions {
                    group: 8,
                    ring_capacity: 4,
                    window: Duration::from_micros(0),
                    ..WalOptions::default()
                },
            )
            .unwrap(),
        );
        let total = 200u64;
        let threads: Vec<_> = (0..2u64)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for i in 0..total / 2 {
                        last = wal.enqueue(record(t * 1000 + i + 1, i));
                    }
                    wal.sync_to(last);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let bytes = fs::read(segment_path(dir.path(), 1)).unwrap();
        assert_eq!(
            scan_segment(&bytes).records.len() as u64,
            total,
            "backpressure must never drop records"
        );
    }

    #[test]
    fn poisoned_writer_errors_every_parked_waiter_instead_of_hanging() {
        let dir = TempDir::new("wal-poison");
        let wal = Arc::new(
            Wal::open(
                dir.path(),
                1,
                WalOptions {
                    group: 64,
                    window: Duration::from_millis(5),
                    ..WalOptions::default()
                },
            )
            .unwrap(),
        );
        wal.shared().fail_next_flush.store(true, Ordering::Relaxed);
        let waiters: Vec<_> = (0..3u64)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    let seq = wal.enqueue(record(t + 1, t));
                    wal.sync_to(seq); // must panic, not hang
                })
            })
            .collect();
        for w in waiters {
            let outcome = w.join();
            assert!(outcome.is_err(), "a parked waiter must surface the error");
        }
        // Later operations fail fast rather than hanging, too.
        assert!(wal.flush().is_err(), "flush reports the poisoned state");
        let enqueue_attempt =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wal.enqueue(record(99, 99))));
        assert!(enqueue_attempt.is_err(), "enqueue panics once poisoned");
    }

    #[test]
    fn drop_drains_the_ring_and_joins_the_writer() {
        let dir = TempDir::new("wal-shutdown");
        {
            let wal = Wal::open(
                dir.path(),
                1,
                WalOptions {
                    group: 1024,
                    window: Duration::from_millis(200),
                    ..WalOptions::default()
                },
            )
            .unwrap();
            // Enqueue without syncing: the long window means these are most
            // likely still in the ring when the Wal drops.
            for i in 1..=32u64 {
                wal.enqueue(record(i, i));
            }
        }
        let bytes = fs::read(segment_path(dir.path(), 1)).unwrap();
        assert_eq!(
            scan_segment(&bytes).records.len(),
            32,
            "drop must flush the ring before joining the writer"
        );
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(parse_segment_name("segment-00000042.wal"), Some(42));
        assert_eq!(parse_segment_name("segment-x.wal"), None);
        assert_eq!(parse_segment_name("checkpoint.ck"), None);
        let path = segment_path(Path::new("/tmp/x"), 7);
        assert_eq!(
            parse_segment_name(path.file_name().unwrap().to_str().unwrap()),
            Some(7)
        );
    }
}
