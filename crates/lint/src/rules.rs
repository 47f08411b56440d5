//! R3 — lock discipline, a token-stream rule clippy has no equivalent
//! of. It is lexical, scoped to non-test product code, and errs on the
//! side of flagging: a guard it cannot prove dead is assumed live.

use crate::lexer::{TokKind, Token};

/// One R3 finding: a hazard call made while a lock guard is live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Hazard called (`notify_all`, `write_all`, …).
    pub check: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the hazard call.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// R3 runs wherever locks and blocking calls coexist.
pub const SCOPE: [&str; 4] = [
    "crates/wire/src",
    "crates/sim/src",
    "crates/core/src",
    "src",
];

fn skip(t: &Token<'_>) -> bool {
    t.in_test || t.in_attr
}

/// Calls that block or signal: holding a lock guard across any of
/// these is the hazard class R3 exists for (PR 7's `Notifier` bumps
/// outside the write locks for exactly this reason).
const HAZARDS: [&str; 17] = [
    "notify_one",
    "notify_all",
    "bump",
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "wait_past",
    "park",
    "sleep",
    "join",
    "recv",
    "recv_timeout",
    "read_exact",
    "write_all",
    "read_to_end",
    "flush",
];

#[derive(Debug)]
struct Guard {
    name: String,
    depth: i64,
    line: u32,
    /// Temporary guard (un-bound `.lock()` in an expression): dies at
    /// the end of the enclosing statement.
    temp: bool,
}

/// Does `tokens[i..]` start a `.lock()` / `.read()` / `.write()`
/// guard-taking call (empty argument list — `read(buf)`/`write(buf)`
/// are I/O, not lock acquisition)?
fn lock_call_at(tokens: &[Token<'_>], i: usize) -> bool {
    i + 3 < tokens.len()
        && tokens[i].is_punct('.')
        && (tokens[i + 1].is_ident("lock")
            || tokens[i + 1].is_ident("read")
            || tokens[i + 1].is_ident("write"))
        && tokens[i + 2].is_punct('(')
        && tokens[i + 3].is_punct(')')
}

/// From the token *after* a lock call's `()`, is the rest of the
/// statement only poison adapters (`.unwrap()`, `.expect(…)`,
/// `.unwrap_or_else(…)`) up to the terminating `;`? If anything else
/// follows — `.get(…)`, `.len()`, a field access — the binding copies
/// a value out and the temporary guard dies at the `;`, so the `let`
/// does NOT bind a guard.
fn only_poison_adapters_to_semi(tokens: &[Token<'_>], mut k: usize) -> bool {
    while k < tokens.len() {
        if tokens[k].is_punct(';') {
            return true;
        }
        if tokens[k].is_punct('.')
            && k + 2 < tokens.len()
            && (tokens[k + 1].is_ident("unwrap")
                || tokens[k + 1].is_ident("expect")
                || tokens[k + 1].is_ident("unwrap_or_else"))
            && tokens[k + 2].is_punct('(')
        {
            // Skip the adapter's balanced argument list.
            let mut d = 0i64;
            k += 2;
            while k < tokens.len() {
                if tokens[k].is_punct('(') {
                    d += 1;
                } else if tokens[k].is_punct(')') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        } else {
            return false;
        }
    }
    false
}

/// R3 — lock discipline. A `Mutex`/`RwLock` guard binding may not be
/// live across a notify, a blocking wait, or blocking stream I/O in
/// the same scope. A condvar-style wait that *consumes* the guard
/// (`cvar.wait_timeout(guard, …)`) is the one sanctioned pattern and
/// is skipped.
pub fn r3(rel: &str, tokens: &[Token<'_>]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;
    // A `let` statement being scanned: (binding name, binding depth,
    // end-pending) — the guard activates at the statement's `;`.
    let mut pending: Option<(String, i64)> = None;
    // A `match` scrutinee's temporary lives through the whole match
    // block; an `if`/`while` condition's dies at the block's `{`.
    let mut saw_match = false;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if skip(t) {
            i += 1;
            continue;
        }
        if t.is_punct('{') {
            if !saw_match {
                guards.retain(|g| !(g.temp && g.depth == depth));
            }
            saw_match = false;
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            saw_match = false;
            guards.retain(|g| g.depth <= depth);
            if let Some((_, d)) = &pending {
                if *d > depth {
                    pending = None;
                }
            }
        } else if t.is_punct(';') {
            if let Some((name, d)) = pending.take() {
                if d == depth {
                    guards.push(Guard {
                        name,
                        depth,
                        line: t.line,
                        temp: false,
                    });
                } else {
                    pending = Some((name, d));
                }
            }
            guards.retain(|g| !(g.temp && g.depth == depth));
            saw_match = false;
        } else if t.is_ident("match") {
            saw_match = true;
        } else if t.is_ident("let") {
            // Look ahead: does this statement's initializer take a
            // lock? (Scan to the `;` that closes it at this depth.)
            let mut j = i + 1;
            while j < tokens.len() && tokens[j].is_ident("mut") {
                j += 1;
            }
            if j < tokens.len() && tokens[j].kind == TokKind::Ident {
                let name = tokens[j].text.to_string();
                let mut d = 0i64;
                let mut last_lock_close: Option<usize> = None;
                let mut k = j;
                while k < tokens.len() {
                    let u = &tokens[k];
                    if u.is_punct('{') || u.is_punct('(') {
                        d += 1;
                    } else if u.is_punct('}') || u.is_punct(')') {
                        d -= 1;
                    } else if u.is_punct(';') && d <= 0 {
                        break;
                    }
                    if lock_call_at(tokens, k) {
                        last_lock_close = Some(k + 3);
                    }
                    k += 1;
                }
                // The binding holds the guard only when nothing but
                // poison adapters follow the lock call; a chain that
                // continues (`.get(…)…`, `.len()`) copies a value out
                // and drops the guard at the `;`.
                if let Some(close) = last_lock_close {
                    if only_poison_adapters_to_semi(tokens, close + 1) {
                        pending = Some((name, depth));
                    }
                }
            }
        } else if lock_call_at(tokens, i) && pending.is_none() {
            // An un-bound lock in an expression: guard lives to the
            // end of the statement (or loop body, for a `for` header).
            guards.push(Guard {
                name: "<temporary>".to_string(),
                depth,
                line: t.line,
                temp: true,
            });
        } else if t.kind == TokKind::Ident
            && HAZARDS.contains(&t.text)
            && i + 1 < tokens.len()
            && tokens[i + 1].is_punct('(')
            && !guards.is_empty()
        {
            // Collect the argument tokens; a wait that consumes a live
            // guard is the condvar pattern, not a violation.
            let mut d = 0i64;
            let mut k = i + 1;
            let mut consumes_guard = false;
            while k < tokens.len() {
                let u = &tokens[k];
                if u.is_punct('(') {
                    d += 1;
                } else if u.is_punct(')') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                } else if u.kind == TokKind::Ident && guards.iter().any(|g| g.name == u.text) {
                    consumes_guard = true;
                }
                k += 1;
            }
            if !consumes_guard {
                let held: Vec<String> = guards
                    .iter()
                    .map(|g| format!("`{}` (line {})", g.name, g.line))
                    .collect();
                out.push(Violation {
                    check: t.text.to_string(),
                    file: rel.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}(…)` while lock guard(s) {} are live; release the guard first \
                         (notify/wait/IO under a lock stalls every other holder)",
                        t.text,
                        held.join(", ")
                    ),
                });
            }
        } else if t.is_ident("drop")
            && i + 2 < tokens.len()
            && tokens[i + 1].is_punct('(')
            && tokens[i + 2].kind == TokKind::Ident
        {
            let name = tokens[i + 2].text;
            guards.retain(|g| g.name != name);
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Violation> {
        r3("crates/wire/src/x.rs", &lex(src))
    }

    #[test]
    fn r3_flags_io_under_a_guard_and_clears_on_scope_exit() {
        let v = run(
            "fn f(&self) { let mut g = self.state.lock(); g.conn.write_all(b\"x\"); }\n\
             fn ok(&self) { { let g = self.state.lock(); } self.notify_all(); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].check, "write_all");
    }

    #[test]
    fn r3_flags_notify_under_a_live_lock_guard() {
        let v = run(
            "pub fn f(&self) {\n    let g = self.state.lock();\n    self.cond.notify_all();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].check.as_str(), v[0].line), ("notify_all", 3));
    }

    #[test]
    fn r3_condvar_wait_consuming_the_guard_is_sanctioned() {
        let v = run("fn w(&self) { let mut count = self.count.lock(); \
             let r = self.cond.wait_timeout(count, d); }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r3_drop_releases_the_guard() {
        let v = run("fn f(&self) { let g = self.m.lock(); drop(g); self.n.notify_all(); }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r3_write_with_args_is_io_not_a_guard() {
        let v = run("fn f(s: &mut TcpStream) { s.write(buf); s.flush(); }");
        assert!(v.is_empty(), "{v:?}");
    }
}
