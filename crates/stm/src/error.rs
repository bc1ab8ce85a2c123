//! Abort signalling.
//!
//! Transactional reads and writes return `Result<_, Abort>`; user code
//! propagates the abort with `?` and the enclosing
//! [`crate::ThreadCtx::atomically`] retry loop rolls back and re-executes the
//! closure. This mirrors the longjmp-based restart of C STMs while staying in
//! safe Rust control flow.

/// Reason a transaction attempt could not continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A transactional read found the location locked by another transaction.
    ReadLocked,
    /// A transactional read observed a version newer than the read version
    /// and timestamp extension failed.
    ReadVersion,
    /// An encounter-time write could not acquire the cell lock.
    WriteLocked,
    /// Commit-time lock acquisition failed.
    CommitLocked,
    /// Read-set validation at commit failed.
    CommitValidation,
    /// The user requested an explicit abort/retry.
    Explicit,
}

impl AbortReason {
    /// Stable small-integer code for flight-recorder payloads (the trace
    /// event's `a` word; see `sf_obs::EventKind::TxnRetry`).
    pub const fn code(self) -> u64 {
        match self {
            AbortReason::ReadLocked => 1,
            AbortReason::ReadVersion => 2,
            AbortReason::WriteLocked => 3,
            AbortReason::CommitLocked => 4,
            AbortReason::CommitValidation => 5,
            // 6 is retired: it marked conflicts of the removed flat-combining
            // commit path. Never reuse it, so old flight-recorder dumps
            // still decode.
            AbortReason::Explicit => 7,
        }
    }
}

/// The abort token carried through `?` propagation inside a transaction body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort {
    /// Why the attempt was abandoned.
    pub reason: AbortReason,
}

impl Abort {
    /// Construct an abort with the given reason.
    pub const fn new(reason: AbortReason) -> Self {
        Abort { reason }
    }

    /// An abort requested explicitly by user code (e.g. retry on a
    /// precondition that a concurrent transaction must establish).
    pub const fn explicit() -> Self {
        Abort::new(AbortReason::Explicit)
    }
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted: {:?}", self.reason)
    }
}

impl std::error::Error for Abort {}

/// Result alias used throughout transaction bodies.
pub type TxResult<T> = Result<T, Abort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_reason() {
        let a = Abort::new(AbortReason::CommitValidation);
        assert!(a.to_string().contains("CommitValidation"));
    }

    #[test]
    fn explicit_constructor() {
        assert_eq!(Abort::explicit().reason, AbortReason::Explicit);
    }
}
