//! **SF-LOCK-ORDER** — `.lock()` / `.try_lock()` acquisitions must respect
//! the declared partial order.
//!
//! The workspace's blocking locks form a hierarchy (established in PRs 6-8
//! and until now recorded only in comments):
//!
//! | rank | class | where |
//! |------|-------|-------|
//! | 10 | `move_lock` (per-shard) | `crates/core/sharded.rs` |
//! | 20 | `checkpoint_lock` / `hook_lock` | `crates/persist/durable.rs` |
//! | 40 | WAL `state` | `crates/persist/log.rs` |
//! | 50 | WAL `segment` | `crates/persist/log.rs` |
//!
//! The WAL's registration mutexes (`last_checkpoint_at`,
//! `checkpoint_hook`, `writer_thread`, `writer`) are deliberately *not*
//! classified: each guards a single field, is taken for one statement and
//! never across another acquisition, so ranking them only manufactures
//! false inversions under the no-drop-tracking over-approximation.
//!
//! Acquisitions are extracted lexically per function (receiver identifier
//! of the `.lock()`/`.try_lock()` chain) and the held-set is propagated one
//! call level deep within the workspace by callee name. Guards are assumed
//! held to end-of-function (a deliberate over-approximation — there is no
//! drop tracking; waive the rare early-drop site instead). Receivers not
//! named in the table (leaf utility mutexes) are ignored.
//!
//! Findings: acquiring a class while holding one of **equal or higher**
//! rank (inversion / same-class double acquisition — the latter is how a
//! deadlock between two shards would look). Classes sharing a rank are
//! aliases for the *same* underlying mutex (e.g. `hook_lock` is a clone of
//! `checkpoint_lock`), so equal-rank cross-class acquisition is flagged
//! too; `try_lock` of an already-held class is exempt (non-blocking,
//! deadlock-free by construction).

use crate::lexer::LexedFile;
use crate::rules::{is_method_call, receiver_ident};
use crate::{Finding, Workspace};
use std::collections::HashMap;

const CODE: &str = "SF-LOCK-ORDER";
const WAIVER_RULE: &str = "lock-order";

/// (receiver ident, path-substring filter, rank, class label)
const CLASSES: &[(&str, &str, u32, &str)] = &[
    ("move_lock", "", 10, "move_lock"),
    ("checkpoint_lock", "", 20, "checkpoint_lock"),
    ("hook_lock", "", 20, "checkpoint_lock"),
    ("state", "crates/persist/", 40, "wal-state"),
    ("segment", "crates/persist/", 50, "wal-segment"),
];

fn classify(receiver: &str, path: &str) -> Option<(u32, &'static str)> {
    CLASSES
        .iter()
        .find(|(ident, prefix, _, _)| *ident == receiver && path.contains(prefix))
        .map(|&(_, _, rank, label)| (rank, label))
}

#[derive(Debug, Clone)]
struct Acquisition {
    rank: u32,
    class: &'static str,
    line: usize,
    try_lock: bool,
    /// Set when the acquisition is inherited from a callee one level down.
    via_call: Option<String>,
}

pub fn run(ws: &Workspace) -> Vec<Finding> {
    // Pass 1: direct acquisitions per function, keyed by function name for
    // the one-level call propagation. Name collisions across crates merge
    // conservatively (over-approximation is safe: worst case is a finding
    // to waive, never a missed inversion).
    let mut direct: HashMap<String, Vec<Acquisition>> = HashMap::new();
    for file in &ws.files {
        if crate::rules::analysis_internal(&file.path) {
            continue;
        }
        for span in &file.functions {
            let acqs = direct_acquisitions(file, span.body_start, span.body_end);
            if !acqs.is_empty() {
                direct.entry(span.name.clone()).or_default().extend(acqs);
            }
        }
    }

    // Pass 2: replay each function's body in order; at calls to known
    // acquiring functions, fold in the callee's classes; at direct
    // acquisitions, check against the held set.
    let mut findings = Vec::new();
    for file in &ws.files {
        if crate::rules::analysis_internal(&file.path) {
            continue;
        }
        for span in &file.functions {
            check_function(file, span, &direct, &mut findings);
        }
    }
    findings
}

/// Direct `.lock()`/`.try_lock()` acquisitions of classified receivers in
/// `[start, end)`, in lexical order.
fn direct_acquisitions(file: &LexedFile, start: usize, end: usize) -> Vec<Acquisition> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for i in start..end.min(tokens.len()) {
        let try_lock = is_method_call(tokens, i, "try_lock");
        if !try_lock && !is_method_call(tokens, i, "lock") {
            continue;
        }
        let Some(receiver) = receiver_ident(tokens, i) else {
            continue;
        };
        let Some((rank, class)) = classify(receiver, &file.path) else {
            continue;
        };
        out.push(Acquisition {
            rank,
            class,
            line: tokens[i].line,
            try_lock,
            via_call: None,
        });
    }
    out
}

fn check_function(
    file: &LexedFile,
    span: &crate::lexer::FnSpan,
    direct: &HashMap<String, Vec<Acquisition>>,
    findings: &mut Vec<Finding>,
) {
    let tokens = &file.tokens;
    let mut held: Vec<Acquisition> = Vec::new();
    let mut i = span.body_start;
    while i < span.body_end.min(tokens.len()) {
        let line = tokens[i].line;
        if file.in_test_region(line) {
            i += 1;
            continue;
        }
        // Direct acquisition?
        let try_lock = is_method_call(tokens, i, "try_lock");
        if try_lock || is_method_call(tokens, i, "lock") {
            if let Some(receiver) = receiver_ident(tokens, i) {
                if let Some((rank, class)) = classify(receiver, &file.path) {
                    let acq = Acquisition {
                        rank,
                        class,
                        line,
                        try_lock,
                        via_call: None,
                    };
                    report_conflicts(file, span, &held, &acq, findings);
                    held.push(acq);
                }
            }
            i += 1;
            continue;
        }
        // One-level propagation: a plain call `name(...)` or `.name(...)`
        // to a workspace function known to acquire locks. Self-recursion by
        // name is skipped (it would manufacture a same-class double).
        if crate::rules::is_call(tokens, i) && tokens[i].text != span.name {
            if let Some(callee_acqs) = direct.get(&tokens[i].text) {
                for a in callee_acqs {
                    let acq = Acquisition {
                        rank: a.rank,
                        class: a.class,
                        line,
                        try_lock: a.try_lock,
                        via_call: Some(tokens[i].text.clone()),
                    };
                    report_conflicts(file, span, &held, &acq, findings);
                }
                // Callee guards are released on return — not added to held.
            }
        }
        i += 1;
    }
}

fn report_conflicts(
    file: &LexedFile,
    span: &crate::lexer::FnSpan,
    held: &[Acquisition],
    acq: &Acquisition,
    findings: &mut Vec<Finding>,
) {
    for h in held {
        let conflict = h.rank > acq.rank || (h.rank == acq.rank && !acq.try_lock);
        if !conflict {
            continue;
        }
        let how = match &acq.via_call {
            Some(callee) => format!("via call to `{callee}`"),
            None => "directly".to_string(),
        };
        let shape = if h.class == acq.class {
            format!("same-class double acquisition of `{}`", acq.class)
        } else {
            format!(
                "`{}` (rank {}) acquired while holding `{}` (rank {})",
                acq.class, acq.rank, h.class, h.rank
            )
        };
        findings.push(Finding {
            code: CODE,
            path: file.path.clone(),
            line: acq.line,
            anchor: format!("{}:{}", span.name, acq.class),
            message: format!(
                "lock-order violation in `{}`: {shape} {how} (prior acquisition at line {}) — \
                 the declared order is move_lock < checkpoint_lock < wal-state < wal-segment",
                span.name, h.line
            ),
            waived: file.waived(WAIVER_RULE, acq.line),
            baselined: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::Workspace;

    fn findings_for(path: &str, src: &str) -> Vec<crate::Finding> {
        let ws = Workspace::from_sources(&[(path, src)], &[]);
        super::run(&ws)
    }

    #[test]
    fn inversion_fires() {
        let fs = findings_for(
            "crates/persist/src/log.rs",
            "fn f(&self) { let a = self.segment.lock(); let b = self.state.lock(); }",
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("wal-state"));
        assert!(fs[0].message.contains("wal-segment"));
    }

    #[test]
    fn ascending_order_is_clean() {
        let fs = findings_for(
            "crates/persist/src/log.rs",
            "fn f(&self) { let a = self.state.lock(); let b = self.segment.lock(); }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn same_class_double_fires_and_waiver_covers() {
        let waived = findings_for(
            "crates/core/src/sharded.rs",
            "fn mv(&self) { let lo = a.move_lock.lock();\n\
             // sf-lint: allow(lock-order, ascending shard index order rules out deadlock)\n\
             let hi = b.move_lock.lock(); }",
        );
        assert_eq!(waived.len(), 1);
        assert!(waived[0].waived);
        let unwaived = findings_for(
            "crates/core/src/sharded.rs",
            "fn mv(&self) { let lo = a.move_lock.lock(); let hi = b.move_lock.lock(); }",
        );
        assert_eq!(unwaived.len(), 1);
        assert!(!unwaived[0].waived);
        assert!(unwaived[0].message.contains("same-class"));
    }

    #[test]
    fn one_level_call_propagation_sees_callee_locks() {
        let fs = findings_for(
            "crates/persist/src/log.rs",
            "fn callee(&self) { let g = self.state.lock(); }\n\
             fn caller(&self) { let s = self.segment.lock(); callee(); }",
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("via call to `callee`"));
    }

    #[test]
    fn unclassified_receivers_are_ignored() {
        let fs = findings_for(
            "crates/obs/src/registry.rs",
            "fn f(&self) { let a = self.sources.lock(); let b = self.next_id.lock(); }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn try_lock_of_same_rank_is_exempt() {
        let fs = findings_for(
            "crates/persist/src/durable.rs",
            "fn f(&self) { let a = self.checkpoint_lock.lock(); let b = hook_lock.try_lock(); }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }
}
