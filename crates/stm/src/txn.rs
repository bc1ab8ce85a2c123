//! The transaction descriptor: read set, write set, validation, commit.
//!
//! The protocol is the lazy-snapshot / versioned-lock design of TL2 and
//! TinySTM:
//!
//! * a transaction samples the global clock when it begins (`rv`),
//! * transactional reads are *invisible*: they record `(cell, version)` pairs
//!   and accept any value whose version is `<= rv`, extending `rv` (after
//!   revalidating the read set) when a newer committed value is found,
//! * writes are buffered (write-back); locks are acquired either at commit
//!   time (CTL / lazy acquirement) or at the first write (ETL / eager
//!   acquirement),
//! * commit acquires the missing locks, draws a new version from the global
//!   clock, revalidates the read set if needed, publishes the buffered values
//!   and releases the locks with the new version.
//!
//! Two extensions used by the paper are provided: **unit reads** (`uread`),
//! which return a committed value without recording it in the read set
//! (TinySTM's unit loads, used by the optimized find of Algorithm 2), and
//! **elastic transactions**, which may *cut* their read-set prefix instead of
//! aborting while they have not yet written anything (E-STM).

use crate::cell::{RawCell, RawRead, TCell};
use crate::chk;
use crate::clock::GlobalClock;
use crate::config::{LockAcquisition, TxKind};
use crate::error::{Abort, AbortReason, TxResult};
use crate::value::TxValue;

#[derive(Debug, Clone, Copy)]
struct ReadEntry<'env> {
    cell: &'env RawCell,
    version: u64,
}

#[derive(Debug, Clone, Copy)]
struct WriteEntry<'env> {
    cell: &'env RawCell,
    value: u64,
    /// Previous (unlocked) lock word if this transaction currently holds the
    /// cell lock, so it can be restored on abort.
    prev_lock: Option<u64>,
}

/// Outcome details of a successful commit, consumed by the retry loop for
/// statistics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommitInfo {
    pub read_set: usize,
    pub write_set: usize,
    /// The version at which this attempt serialized: the write version drawn
    /// from the global clock for an updating commit, or the (final, possibly
    /// extended) read version for a commit with an empty write set.
    pub commit_version: u64,
}

/// Deferred action registered by user code, executed by the retry loop after
/// the attempt's fate is known (the analogue of TinySTM's deferred
/// malloc/free used to manage memory allocated inside transactions).
///
/// Commit and abort hooks live in separate lists and only ever run for
/// their own outcome; the `u64` payload is the commit version for commit
/// hooks (see [`Transaction::on_commit_versioned`]) and a meaningless
/// placeholder (`0`) for abort hooks — it is **not** a discriminator, and a
/// read-only commit on a never-ticked clock legitimately reports version 0.
type Hook<'env> = Box<dyn FnOnce(u64) + 'env>;

/// An in-flight transaction attempt.
///
/// Obtained from [`crate::ThreadCtx::atomically`]; user code performs
/// [`Transaction::read`], [`Transaction::write`] and [`Transaction::uread`]
/// calls and propagates [`Abort`] with `?`.
pub struct Transaction<'env> {
    clock: &'env GlobalClock,
    kind: TxKind,
    acquisition: LockAcquisition,
    owner_word: u64,
    rv: u64,
    elastic_window: usize,
    read_set: Vec<ReadEntry<'env>>,
    write_set: Vec<WriteEntry<'env>>,
    commit_hooks: Vec<Hook<'env>>,
    abort_hooks: Vec<Hook<'env>>,
    pub(crate) reads: u64,
    pub(crate) ureads: u64,
    pub(crate) writes: u64,
    pub(crate) cuts: u64,
    finished: bool,
}

impl<'env> Transaction<'env> {
    pub(crate) fn begin(
        clock: &'env GlobalClock,
        kind: TxKind,
        acquisition: LockAcquisition,
        owner_word: u64,
        elastic_window: usize,
    ) -> Self {
        debug_assert_eq!(owner_word & 1, 1, "owner word must be odd (locked bit)");
        Transaction {
            rv: clock.now(),
            clock,
            kind,
            acquisition,
            owner_word,
            elastic_window: elastic_window.max(1),
            read_set: Vec::with_capacity(32),
            write_set: Vec::with_capacity(8),
            commit_hooks: Vec::new(),
            abort_hooks: Vec::new(),
            reads: 0,
            ureads: 0,
            writes: 0,
            cuts: 0,
            finished: false,
        }
    }

    /// The kind (normal or elastic) of this attempt.
    pub fn kind(&self) -> TxKind {
        self.kind
    }

    /// The read version (clock snapshot) of this attempt.
    pub fn read_version(&self) -> u64 {
        self.rv
    }

    /// Number of entries currently in the read set.
    pub fn read_set_len(&self) -> usize {
        self.read_set.len()
    }

    /// Number of entries currently in the write set.
    pub fn write_set_len(&self) -> usize {
        self.write_set.len()
    }

    /// Request an explicit abort and retry of the whole transaction.
    pub fn retry<T>(&self) -> TxResult<T> {
        Err(Abort::explicit())
    }

    /// Check now that nothing this attempt read has changed since, aborting
    /// it (as a read-set validation failure) if something has. Unit reads
    /// are not opaque, so a doomed attempt can observe state its read set
    /// does not; code that asserts an invariant across two traversals calls
    /// this first, so only a still-valid attempt can trip the assertion.
    pub fn revalidate(&self) -> TxResult<()> {
        if self.validate() {
            Ok(())
        } else {
            Err(Abort::new(AbortReason::CommitValidation))
        }
    }

    /// Register an action to run if (and only if) this attempt commits.
    ///
    /// Typical use: freeing memory that the transaction logically deleted —
    /// the free must not happen if the attempt aborts.
    pub fn on_commit(&mut self, action: impl FnOnce() + 'env) {
        self.commit_hooks.push(Box::new(move |_| action()));
    }

    /// Register an action to run if (and only if) this attempt commits,
    /// receiving the **commit version** at which the attempt serialized (the
    /// write version for updating transactions, the final read version for
    /// read-only ones — which is 0 for a read-only commit against a clock
    /// that has never ticked; an updating commit always reports `>= 1`).
    ///
    /// This is the hook a durability layer builds on: the committed logical
    /// operation plus its clock stamp can be published to a log right after
    /// the commit point, so the log's version order equals the STM's commit
    /// order.
    pub fn on_commit_versioned(&mut self, action: impl FnOnce(u64) + 'env) {
        self.commit_hooks.push(Box::new(action));
    }

    /// Register an action to run if this attempt aborts (for any reason).
    ///
    /// Typical use: releasing memory allocated inside the transaction — the
    /// allocation is invisible to other threads until commit, so it can be
    /// recycled immediately when the attempt is abandoned.
    pub fn on_abort(&mut self, action: impl FnOnce() + 'env) {
        self.abort_hooks.push(Box::new(move |_| action()));
    }

    pub(crate) fn take_commit_hooks(&mut self) -> Vec<Hook<'env>> {
        std::mem::take(&mut self.commit_hooks)
    }

    pub(crate) fn take_abort_hooks(&mut self) -> Vec<Hook<'env>> {
        std::mem::take(&mut self.abort_hooks)
    }

    fn lookup_write(&self, addr: usize) -> Option<u64> {
        self.write_set
            .iter()
            .rev()
            .find(|e| e.cell.addr() == addr)
            .map(|e| e.value)
    }

    /// Transactional read: records the location in the read set so commit
    /// revalidation guarantees opacity.
    pub fn read<T: TxValue>(&mut self, cell: &'env TCell<T>) -> TxResult<T> {
        self.reads += 1;
        let raw = cell.raw();
        if let Some(buffered) = self.lookup_write(raw.addr()) {
            return Ok(T::decode(buffered));
        }
        loop {
            match raw.read_consistent() {
                RawRead::Locked { owner_word } => {
                    if owner_word == self.owner_word {
                        // We hold the lock (eager acquirement) but the cell is
                        // not in the write set: this cannot happen because we
                        // only lock cells we write. Abort defensively.
                        return Err(Abort::new(AbortReason::ReadLocked));
                    }
                    return Err(Abort::new(AbortReason::ReadLocked));
                }
                RawRead::Ok { value, version } => {
                    if version <= self.rv {
                        chk::cell_read(raw.addr(), "txn.read");
                        self.read_set.push(ReadEntry { cell: raw, version });
                        return Ok(T::decode(value));
                    }
                    // The location committed after we started: try to bring
                    // the snapshot forward.
                    if self.kind == TxKind::Elastic && self.write_set.is_empty() {
                        if self.elastic_cut() {
                            continue;
                        }
                        return Err(Abort::new(AbortReason::ReadVersion));
                    }
                    if self.extend() {
                        continue;
                    }
                    return Err(Abort::new(AbortReason::ReadVersion));
                }
            }
        }
    }

    /// Unit read (TinySTM unit load): returns the most recent committed value
    /// of the location without recording it in the read set. Spins while the
    /// location is locked by a concurrent commit.
    pub fn uread<T: TxValue>(&mut self, cell: &'env TCell<T>) -> T {
        self.ureads += 1;
        let raw = cell.raw();
        if let Some(buffered) = self.lookup_write(raw.addr()) {
            return T::decode(buffered);
        }
        let mut spins = 0u32;
        loop {
            match raw.read_consistent() {
                RawRead::Ok { value, .. } => {
                    chk::cell_read(raw.addr(), "txn.uread");
                    return T::decode(value);
                }
                RawRead::Locked { owner_word } if owner_word == self.owner_word => {
                    // Locked by us but not buffered: unreachable in practice,
                    // fall back to the raw payload.
                    return T::decode(raw.load_raw());
                }
                RawRead::Locked { .. } => {
                    chk::sched_point(chk::SchedEvent::Spin);
                    spins += 1;
                    if spins > 64 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Transactional write: buffers the value. Under eager acquirement the
    /// cell lock is taken immediately.
    ///
    /// # Panics
    /// Panics when the attempt runs as [`TxKind::ReadOnly`]: scan
    /// transactions promise the runtime they never write, which is what lets
    /// commit skip the whole write-set protocol.
    pub fn write<T: TxValue>(&mut self, cell: &'env TCell<T>, value: T) -> TxResult<()> {
        assert!(
            self.kind != TxKind::ReadOnly,
            "transactional write inside a read-only (scan) transaction"
        );
        self.writes += 1;
        let raw = cell.raw();
        let encoded = value.encode();
        if let Some(entry) = self
            .write_set
            .iter_mut()
            .find(|e| e.cell.addr() == raw.addr())
        {
            entry.value = encoded;
            return Ok(());
        }
        match self.acquisition {
            LockAcquisition::CommitTime => {
                self.write_set.push(WriteEntry {
                    cell: raw,
                    value: encoded,
                    prev_lock: None,
                });
                Ok(())
            }
            LockAcquisition::EncounterTime => {
                chk::sched_point(chk::SchedEvent::Acquire);
                match raw.try_lock(self.owner_word) {
                    Ok(prev) => {
                        chk::cell_locked(raw.addr());
                        let prev_version = prev >> 1;
                        if prev_version > self.rv && !self.extend() {
                            // Release edge first: once the word flips back,
                            // another thread may acquire it immediately.
                            chk::cell_unlocked(raw.addr());
                            raw.unlock_restore(prev);
                            return Err(Abort::new(AbortReason::ReadVersion));
                        }
                        self.write_set.push(WriteEntry {
                            cell: raw,
                            value: encoded,
                            prev_lock: Some(prev),
                        });
                        Ok(())
                    }
                    Err(_) => Err(Abort::new(AbortReason::WriteLocked)),
                }
            }
        }
    }

    /// Validate that every read-set entry is unchanged.
    ///
    /// A location that this transaction itself has locked (because it is also
    /// in the write set) is *not* trusted blindly: another transaction may
    /// have committed to it between our read and our lock acquisition, so the
    /// version captured when the lock was taken must still match the version
    /// recorded by the read. Skipping this check would let a read-then-write
    /// transaction commit against a stale snapshot (e.g. an insert
    /// overwriting a child pointer that a concurrent rotation just updated).
    fn validate(&self) -> bool {
        chk::sched_point(chk::SchedEvent::Validate);
        for entry in &self.read_set {
            let l = entry.cell.lock_word();
            if l & 1 == 1 {
                if l != self.owner_word {
                    return false;
                }
                let owned_version = self
                    .write_set
                    .iter()
                    .find(|w| w.cell.addr() == entry.cell.addr())
                    .and_then(|w| w.prev_lock)
                    .map(|prev| prev >> 1);
                if owned_version != Some(entry.version) {
                    return false;
                }
            } else if (l >> 1) != entry.version {
                return false;
            }
        }
        true
    }

    /// Timestamp extension: re-sample the clock, revalidate, adopt the newer
    /// read version on success.
    fn extend(&mut self) -> bool {
        let new_rv = self.clock.now();
        if self.validate() {
            self.rv = new_rv;
            true
        } else {
            false
        }
    }

    /// Elastic cut: drop the read-set prefix (keeping the trailing window)
    /// after checking the window is still valid, then adopt a fresh read
    /// version. Only legal while nothing has been written.
    fn elastic_cut(&mut self) -> bool {
        debug_assert!(self.write_set.is_empty());
        let new_rv = self.clock.now();
        let keep_from = self.read_set.len().saturating_sub(self.elastic_window);
        for entry in &self.read_set[keep_from..] {
            let l = entry.cell.lock_word();
            if l & 1 == 1 || (l >> 1) != entry.version {
                return false;
            }
        }
        self.read_set.drain(..keep_from);
        self.rv = new_rv;
        self.cuts += 1;
        true
    }

    fn release_held_locks(&mut self) {
        for entry in &mut self.write_set {
            if let Some(prev) = entry.prev_lock.take() {
                // Release edge before the word flips back (see commit).
                chk::cell_unlocked(entry.cell.addr());
                entry.cell.unlock_restore(prev);
            }
        }
    }

    /// One-shot CTL lock pass: `try_lock` every write-set cell, recording the
    /// previous lock words. On the first locked cell, release everything
    /// taken so far and report failure.
    fn acquire_write_locks_once(&mut self) -> bool {
        for i in 0..self.write_set.len() {
            let cell = self.write_set[i].cell;
            chk::sched_point(chk::SchedEvent::Acquire);
            match cell.try_lock(self.owner_word) {
                Ok(prev) => {
                    chk::cell_locked(cell.addr());
                    self.write_set[i].prev_lock = Some(prev);
                }
                Err(_) => {
                    self.release_held_locks();
                    return false;
                }
            }
        }
        true
    }

    /// Attempt to commit. On failure all held locks are released and the
    /// attempt counts as aborted; the caller re-executes the body.
    ///
    /// Commit-time locking acquires every write lock with a single one-shot
    /// `try_lock` pass and aborts on any conflict (TL2's lock → validate →
    /// publish); encounter-time locking already holds them.
    pub(crate) fn commit(&mut self) -> Result<CommitInfo, Abort> {
        debug_assert!(!self.finished);
        let mut info = CommitInfo {
            read_set: self.read_set.len(),
            write_set: self.write_set.len(),
            commit_version: self.rv,
        };
        if self.write_set.is_empty() {
            // Read-only transactions are serialized at their read version.
            self.finished = true;
            return Ok(info);
        }
        if self.acquisition == LockAcquisition::CommitTime && !self.acquire_write_locks_once() {
            self.finished = true;
            return Err(Abort::new(AbortReason::CommitLocked));
        }
        let wv = self.clock.tick();
        info.commit_version = wv;
        // If nobody committed between our snapshot and our tick, the read set
        // cannot have changed (TL2 optimization); otherwise revalidate.
        if wv != self.rv + 1 && !self.validate() {
            self.release_held_locks();
            self.finished = true;
            return Err(Abort::new(AbortReason::CommitValidation));
        }
        chk::sched_point(chk::SchedEvent::Publish);
        for entry in &self.write_set {
            debug_assert!(entry.prev_lock.is_some());
            // Write check + release edge BEFORE the version word goes even:
            // the instant `write_and_unlock` lands, a concurrent reader may
            // validate against the new version and take its acquire edge, so
            // the matching release must already be recorded.
            chk::cell_published(entry.cell.addr(), "txn.commit");
            entry.cell.write_and_unlock(entry.value, wv);
        }
        self.write_set.clear();
        self.finished = true;
        Ok(info)
    }

    /// Abandon the attempt, releasing any held locks.
    pub(crate) fn rollback(&mut self) {
        if self.finished {
            return;
        }
        self.release_held_locks();
        self.write_set.clear();
        self.read_set.clear();
        self.finished = true;
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        // Safety net: never leave cell locks dangling if the attempt is
        // dropped without an explicit commit/rollback (e.g. a panic in the
        // transaction body).
        if !self.finished {
            self.release_held_locks();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LockAcquisition, TxKind};

    fn tx<'env>(clock: &'env GlobalClock, acq: LockAcquisition) -> Transaction<'env> {
        Transaction::begin(clock, TxKind::Normal, acq, (1 << 1) | 1, 2)
    }

    #[test]
    fn read_your_own_write() {
        let clock = GlobalClock::new();
        let cell = TCell::new(1u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        assert_eq!(t.read(&cell).unwrap(), 1);
        t.write(&cell, 5).unwrap();
        assert_eq!(t.read(&cell).unwrap(), 5);
        // The shared value is untouched until commit.
        assert_eq!(cell.unsync_load(), 1);
        t.commit().unwrap();
        assert_eq!(cell.unsync_load(), 5);
    }

    #[test]
    fn commit_bumps_version() {
        let clock = GlobalClock::new();
        let cell = TCell::new(1u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        t.write(&cell, 2).unwrap();
        t.commit().unwrap();
        assert_eq!(cell.version(), Some(1));
        assert_eq!(clock.now(), 1);
    }

    #[test]
    fn read_only_commit_does_not_tick_clock() {
        let clock = GlobalClock::new();
        let cell = TCell::new(1u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        let _ = t.read(&cell).unwrap();
        t.commit().unwrap();
        assert_eq!(clock.now(), 0);
    }

    #[test]
    fn stale_read_extends_when_read_set_untouched() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let b = TCell::new(2u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        assert_eq!(t.read(&a).unwrap(), 1);
        // Concurrent committer updates b only.
        let mut other = tx(&clock, LockAcquisition::CommitTime);
        other.write(&b, 20).unwrap();
        other.commit().unwrap();
        // Reading b sees version 1 > rv 0, extension succeeds because a is
        // unchanged.
        assert_eq!(t.read(&b).unwrap(), 20);
        assert!(t.commit().is_ok());
    }

    #[test]
    fn stale_read_aborts_when_read_set_invalidated() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let b = TCell::new(2u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        assert_eq!(t.read(&a).unwrap(), 1);
        // Concurrent committer updates both a and b.
        let mut other = tx(&clock, LockAcquisition::CommitTime);
        other.write(&a, 10).unwrap();
        other.write(&b, 20).unwrap();
        other.commit().unwrap();
        let err = t.read(&b).unwrap_err();
        assert_eq!(err.reason, AbortReason::ReadVersion);
        t.rollback();
    }

    #[test]
    fn revalidate_aborts_once_a_read_location_changes() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        assert_eq!(t.read(&a).unwrap(), 1);
        assert!(t.revalidate().is_ok());
        let mut other = tx(&clock, LockAcquisition::CommitTime);
        other.write(&a, 10).unwrap();
        other.commit().unwrap();
        let err = t.revalidate().unwrap_err();
        assert_eq!(err.reason, AbortReason::CommitValidation);
        t.rollback();
    }

    #[test]
    fn commit_validation_detects_conflicting_writer() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let b = TCell::new(2u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        assert_eq!(t.read(&a).unwrap(), 1);
        t.write(&b, 22).unwrap();
        // Concurrent committer invalidates a after our read.
        let mut other = tx(&clock, LockAcquisition::CommitTime);
        other.write(&a, 10).unwrap();
        other.commit().unwrap();
        let err = t.commit().unwrap_err();
        assert_eq!(err.reason, AbortReason::CommitValidation);
        // b must not have been published.
        assert_eq!(b.unsync_load(), 2);
        assert_eq!(b.version(), Some(0));
    }

    #[test]
    fn read_then_write_detects_interleaved_commit_under_ctl() {
        // Regression test: T reads A, another transaction commits a new value
        // to A, then T writes A and tries to commit. T's commit acquires A's
        // lock itself, so validation must compare the pre-lock version with
        // the version recorded by the read — not skip the entry — and abort.
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let b = TCell::new(2u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        assert_eq!(t.read(&a).unwrap(), 1);
        // Interleaved committer updates A (and B, so the clock moves and the
        // wv == rv + 1 fast path does not apply).
        let mut other = Transaction::begin(
            &clock,
            TxKind::Normal,
            LockAcquisition::CommitTime,
            (2 << 1) | 1,
            2,
        );
        other.write(&a, 100).unwrap();
        other.write(&b, 200).unwrap();
        other.commit().unwrap();
        // T now blindly overwrites A based on its stale read.
        t.write(&a, 7).unwrap();
        let err = t.commit().unwrap_err();
        assert_eq!(err.reason, AbortReason::CommitValidation);
        assert_eq!(a.unsync_load(), 100, "the stale writer must not win");
    }

    #[test]
    fn etl_write_conflict_aborts_second_writer() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let mut t1 = tx(&clock, LockAcquisition::EncounterTime);
        let mut t2 = tx(&clock, LockAcquisition::EncounterTime);
        t1.write(&a, 10).unwrap();
        let err = t2.write(&a, 20).unwrap_err();
        assert_eq!(err.reason, AbortReason::WriteLocked);
        t2.rollback();
        t1.commit().unwrap();
        assert_eq!(a.unsync_load(), 10);
    }

    #[test]
    fn etl_abort_restores_lock_word() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        // Bump a's version to 3 first.
        for v in [2u64, 3, 4] {
            let mut t = tx(&clock, LockAcquisition::CommitTime);
            t.write(&a, v).unwrap();
            t.commit().unwrap();
        }
        let version_before = a.version().unwrap();
        let mut t = tx(&clock, LockAcquisition::EncounterTime);
        t.write(&a, 99).unwrap();
        t.rollback();
        assert_eq!(a.version(), Some(version_before));
        assert_eq!(a.unsync_load(), 4);
        // The cell is usable again.
        let mut t2 = tx(&clock, LockAcquisition::CommitTime);
        t2.write(&a, 5).unwrap();
        t2.commit().unwrap();
        assert_eq!(a.unsync_load(), 5);
    }

    #[test]
    fn reader_conflicts_with_inflight_locked_cell() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let mut writer = tx(&clock, LockAcquisition::EncounterTime);
        writer.write(&a, 7).unwrap();
        let mut reader = tx(&clock, LockAcquisition::CommitTime);
        let err = reader.read(&a).unwrap_err();
        assert_eq!(err.reason, AbortReason::ReadLocked);
        reader.rollback();
        writer.rollback();
    }

    #[test]
    fn uread_returns_committed_value_without_tracking() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        assert_eq!(t.uread(&a), 1);
        assert_eq!(t.read_set_len(), 0);
        // uread also sees our own buffered write.
        t.write(&a, 3).unwrap();
        assert_eq!(t.uread(&a), 3);
        t.rollback();
    }

    #[test]
    fn elastic_cut_allows_traversal_past_concurrent_commits() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let b = TCell::new(2u64);
        let c = TCell::new(3u64);
        let mut t = Transaction::begin(
            &clock,
            TxKind::Elastic,
            LockAcquisition::CommitTime,
            (1 << 1) | 1,
            1,
        );
        assert_eq!(t.read(&a).unwrap(), 1);
        assert_eq!(t.read(&b).unwrap(), 2);
        // Concurrent commit invalidates a (already left behind by the
        // traversal) and bumps the clock.
        let mut other = tx(&clock, LockAcquisition::CommitTime);
        other.write(&a, 10).unwrap();
        other.commit().unwrap();
        let mut other2 = tx(&clock, LockAcquisition::CommitTime);
        other2.write(&c, 30).unwrap();
        other2.commit().unwrap();
        // A normal transaction would abort here (a changed); the elastic one
        // cuts and continues.
        assert_eq!(t.read(&c).unwrap(), 30);
        assert_eq!(t.cuts, 1);
        assert!(t.commit().is_ok());
    }

    #[test]
    fn elastic_cut_refuses_after_first_write() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let b = TCell::new(2u64);
        let mut t = Transaction::begin(
            &clock,
            TxKind::Elastic,
            LockAcquisition::CommitTime,
            (1 << 1) | 1,
            1,
        );
        assert_eq!(t.read(&a).unwrap(), 1);
        t.write(&a, 5).unwrap();
        let mut other = tx(&clock, LockAcquisition::CommitTime);
        other.write(&a, 10).unwrap();
        other.write(&b, 20).unwrap();
        other.commit().unwrap();
        // With a non-empty write set the elastic transaction behaves like a
        // normal one: the stale read of b aborts (a changed under us).
        assert!(t.read(&b).is_err());
        t.rollback();
    }

    #[test]
    fn drop_without_commit_releases_locks() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        {
            let mut t = tx(&clock, LockAcquisition::EncounterTime);
            t.write(&a, 9).unwrap();
            // dropped without commit/rollback (simulates a panic path)
        }
        // Lock must have been released so others can proceed.
        let mut t2 = tx(&clock, LockAcquisition::CommitTime);
        t2.write(&a, 4).unwrap();
        t2.commit().unwrap();
        assert_eq!(a.unsync_load(), 4);
    }

    #[test]
    fn ctl_commit_lock_conflict_aborts() {
        let clock = GlobalClock::new();
        let a = TCell::new(1u64);
        let mut holder = tx(&clock, LockAcquisition::EncounterTime);
        holder.write(&a, 2).unwrap();
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        t.write(&a, 3).unwrap();
        let err = t.commit().unwrap_err();
        assert_eq!(err.reason, AbortReason::CommitLocked);
        holder.commit().unwrap();
        assert_eq!(a.unsync_load(), 2);
    }

    #[test]
    fn write_write_same_cell_keeps_last_value() {
        let clock = GlobalClock::new();
        let a = TCell::new(0u64);
        let mut t = tx(&clock, LockAcquisition::CommitTime);
        t.write(&a, 1).unwrap();
        t.write(&a, 2).unwrap();
        t.write(&a, 3).unwrap();
        assert_eq!(t.write_set_len(), 1);
        t.commit().unwrap();
        assert_eq!(a.unsync_load(), 3);
    }
}
