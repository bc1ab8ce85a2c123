//! Runtime configuration of the STM.
//!
//! The paper evaluates the speculation-friendly tree on several TM
//! configurations to show the result is independent of the TM algorithm:
//! TinySTM with commit-time locking (CTL, lazy acquirement), TinySTM with
//! encounter-time locking (ETL, eager acquirement), and E-STM (elastic
//! transactions). The same knobs are exposed here.

/// When write locks are acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockAcquisition {
    /// Lazy acquirement: locks are taken at commit time (TinySTM-CTL).
    CommitTime,
    /// Eager acquirement: locks are taken at the first transactional write
    /// to the location (TinySTM-ETL).
    EncounterTime,
}

/// The kind of transaction executed by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// Opaque transaction with a full read set (standard TM interface).
    Normal,
    /// Elastic transaction: while the transaction has not written anything,
    /// a stale read may *cut* the transaction (drop the prefix of the read
    /// set) instead of aborting, as in E-STM.
    Elastic,
    /// Read-only scan transaction: reads behave exactly like [`TxKind::Normal`]
    /// (tracked read set, timestamp extension), but [`crate::Transaction::write`]
    /// is forbidden, so commit never acquires locks or ticks the clock and the
    /// runtime accounts the attempt in the dedicated scan counters of
    /// [`crate::StatsSnapshot`] (`scan_commits`, `scan_aborts`,
    /// `max_scan_read_set`). Used by the ordered-map range scans.
    ReadOnly,
}

/// STM-wide configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmConfig {
    /// Write-lock acquisition policy.
    pub acquisition: LockAcquisition,
    /// Default transaction kind used by [`crate::ThreadCtx::atomically`].
    pub default_kind: TxKind,
    /// Number of trailing read-set entries revalidated when an elastic
    /// transaction cuts itself.
    pub elastic_window: usize,
    /// Upper bound on the exponential backoff spin budget applied after an
    /// abort (in spin-loop iterations).
    pub max_backoff_spins: u32,
    /// Number of consecutive aborts after which the retry loop starts
    /// yielding the CPU between attempts (important on machines with fewer
    /// cores than threads).
    pub yield_after_aborts: u32,
}

impl StmConfig {
    /// TinySTM-CTL-like configuration (lazy acquirement), the default used in
    /// the paper's main experiments (Table 1, Figure 3).
    pub fn ctl() -> Self {
        StmConfig {
            acquisition: LockAcquisition::CommitTime,
            default_kind: TxKind::Normal,
            elastic_window: 2,
            max_backoff_spins: 1 << 12,
            yield_after_aborts: 4,
        }
    }

    /// TinySTM-ETL-like configuration (eager acquirement), used in Figure 4
    /// (right).
    pub fn etl() -> Self {
        StmConfig {
            acquisition: LockAcquisition::EncounterTime,
            ..Self::ctl()
        }
    }

    /// E-STM-like configuration: elastic transactions by default, used in
    /// Figure 4 (left) and Figure 5(a).
    pub fn elastic() -> Self {
        StmConfig {
            default_kind: TxKind::Elastic,
            ..Self::ctl()
        }
    }
}

impl Default for StmConfig {
    fn default() -> Self {
        Self::ctl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_expected_knob() {
        assert_eq!(StmConfig::ctl().acquisition, LockAcquisition::CommitTime);
        assert_eq!(StmConfig::etl().acquisition, LockAcquisition::EncounterTime);
        assert_eq!(StmConfig::elastic().default_kind, TxKind::Elastic);
        assert_eq!(StmConfig::default(), StmConfig::ctl());
    }
}
