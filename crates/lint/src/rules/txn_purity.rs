//! **SF-TXN-PURITY** — no side effects inside `atomically*` closures.
//!
//! Transaction bodies re-execute on abort, so any effect that escapes the
//! STM's read/write sets runs an unpredictable number of times: file I/O,
//! blocking lock acquisition, printing, environment access, channel sends.
//! The rule scans the balanced-paren argument region of every
//! `atomically`-prefixed call (`atomically`, `atomically_kind`,
//! `atomically_versioned`, …) for the banned patterns below.
//!
//! Two sanctioned escape hatches are honored:
//! * the argument regions of `on_commit` / `on_commit_versioned` calls are
//!   skipped — those closures run exactly once, post-commit;
//! * the STM crate itself (`crates/stm/`) is allowlisted: the *machinery*
//!   of `atomically` legitimately takes the commit locks.

use crate::lexer::balanced_end;
use crate::rules::{is_call, is_macro, is_method_call, is_path_seg};
use crate::{Finding, Workspace};

const CODE: &str = "SF-TXN-PURITY";
const WAIVER_RULE: &str = "txn-purity";

/// Crates whose sources implement the STM itself.
const ALLOWLIST_PREFIXES: &[&str] = &["crates/stm/"];

/// Methods whose argument region runs once, post-commit — not speculative.
const POST_COMMIT_HOOKS: &[&str] = &["on_commit", "on_commit_versioned"];

const BANNED_METHODS: &[(&str, &str)] = &[
    ("lock", "blocking Mutex/RwLock acquisition"),
    ("try_lock", "Mutex/RwLock acquisition"),
    ("send", "channel send"),
    ("try_send", "channel send"),
    ("recv", "channel receive"),
    ("try_recv", "channel receive"),
    ("write_all", "file write"),
    ("sync_all", "fsync"),
    ("sync_data", "fsync"),
    ("read_to_end", "file read"),
    ("read_to_string", "file read"),
];

const BANNED_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// Path segments that reach the filesystem or the environment.
const BANNED_PATHS: &[(&str, &str, &str)] = &[
    ("std", "env", "std::env access"),
    ("env", "var", "environment read"),
    ("fs", "write", "file write"),
    ("fs", "read", "file read"),
    ("File", "open", "file open"),
    ("File", "create", "file create"),
    ("OpenOptions", "new", "file open"),
];

pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if crate::rules::analysis_internal(&file.path) {
            continue;
        }
        if ALLOWLIST_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        let tokens = &file.tokens;
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if t.text.starts_with("atomically") && is_call(tokens, i) {
                let open = i + 1;
                let end = balanced_end(tokens, open);
                scan_region(file, open + 1, end.saturating_sub(1), &mut findings);
                i = end;
            } else {
                i += 1;
            }
        }
    }
    findings
}

/// Scan `[start, end)` inside an `atomically` argument region, skipping
/// post-commit hook argument regions.
fn scan_region(
    file: &crate::lexer::LexedFile,
    start: usize,
    end: usize,
    findings: &mut Vec<Finding>,
) {
    let tokens = &file.tokens;
    let mut i = start;
    while i < end {
        // Post-commit hook: skip its balanced argument region entirely.
        if POST_COMMIT_HOOKS
            .iter()
            .any(|h| is_method_call(tokens, i, h))
        {
            i = balanced_end(tokens, i + 1);
            continue;
        }
        let line = tokens[i].line;
        if file.in_test_region(line) {
            i += 1;
            continue;
        }
        let mut hit: Option<(String, String)> = None;
        for (m, why) in BANNED_METHODS {
            if is_method_call(tokens, i, m) {
                hit = Some((m.to_string(), why.to_string()));
                break;
            }
        }
        if hit.is_none() {
            for m in BANNED_MACROS {
                if is_macro(tokens, i, m) {
                    hit = Some((m.to_string(), format!("{m}! output")));
                    break;
                }
            }
        }
        if hit.is_none() {
            for (a, b, why) in BANNED_PATHS {
                if is_path_seg(tokens, i, a, b) {
                    hit = Some((format!("{a}::{b}"), why.to_string()));
                    break;
                }
            }
        }
        if let Some((anchor, why)) = hit {
            findings.push(Finding {
                code: CODE,
                path: file.path.clone(),
                line,
                anchor: anchor.clone(),
                message: format!(
                    "{why} (`{anchor}`) inside an `atomically` closure — transaction bodies \
                     re-execute on abort, so this effect can run any number of times; move it \
                     to an `on_commit` hook or outside the transaction"
                ),
                waived: file.waived(WAIVER_RULE, line),
                baselined: false,
            });
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::Workspace;

    fn findings_for(src: &str) -> Vec<crate::Finding> {
        let ws = Workspace::from_sources(&[("crates/core/src/x.rs", src)], &[]);
        super::run(&ws)
    }

    #[test]
    fn println_inside_atomically_fires() {
        let fs = findings_for("fn f(rt: &mut Rt) { rt.atomically(|tx| { println!(\"x\"); }); }");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].anchor, "println");
        assert!(!fs[0].waived);
    }

    #[test]
    fn lock_inside_atomically_versioned_fires() {
        let fs =
            findings_for("fn f() { rt.atomically_versioned(|tx| { self.mu.lock().unwrap(); }); }");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].anchor, "lock");
    }

    #[test]
    fn near_miss_outside_closure_is_clean() {
        let fs = findings_for(
            "fn f() { println!(\"before\"); rt.atomically(|tx| tx.read(v)); mu.lock(); }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn on_commit_region_is_carved_out() {
        let fs = findings_for(
            "fn f() { rt.atomically(|tx| { tx.on_commit_versioned(move |v| { wal.send(v); }); tx.write(x) }); }",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn send_after_hook_still_fires() {
        let fs =
            findings_for("fn f() { rt.atomically(|tx| { tx.on_commit(|| {}); ch.send(1); }); }");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].anchor, "send");
    }

    #[test]
    fn stm_crate_is_allowlisted() {
        let ws = Workspace::from_sources(
            &[(
                "crates/stm/src/runtime.rs",
                "fn f() { rt.atomically(|tx| { slot.lock(); }); }",
            )],
            &[],
        );
        assert!(super::run(&ws).is_empty());
    }

    #[test]
    fn waiver_suppresses_gating() {
        let fs = findings_for(
            "fn f() { rt.atomically(|tx| {\n// sf-lint: allow(txn-purity, debug print kept deliberately)\nprintln!(\"x\");\n}); }",
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].waived);
    }

    #[test]
    fn string_contents_do_not_fire() {
        let fs = findings_for("fn f() { rt.atomically(|tx| tx.note(\"println! .lock()\")); }");
        assert!(fs.is_empty(), "{fs:?}");
    }
}
