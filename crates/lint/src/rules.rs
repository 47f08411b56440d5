//! Token-stream rules: R1 panic-freedom, R2 determinism, R3 lock
//! discipline.
//!
//! Every rule is lexical, scoped to non-test product code, and errs on
//! the side of flagging — a false positive costs one audited
//! `// vpm-lint: allow(...)` with a written reason; a false negative
//! costs a panic or a nondeterministic verdict in production.

use crate::lexer::{TokKind, Token};
use crate::report::Violation;
use std::collections::HashSet;

/// Crates whose non-test code must be panic-free (R1): the wire codec
/// and transports (total on attacker-controlled bytes), the verifier
/// core, and the simulation/verdict plane.
pub const R1_SCOPE: [&str; 3] = ["crates/wire/src", "crates/sim/src", "crates/core/src"];

/// Crates whose non-test code feeds serialized verdicts, wire frames,
/// or golden fixtures (R2): everything except the analyzer itself and
/// the offline dependency shims (stand-ins for external crates, not
/// product code). `benchmark/`, which legitimately reads clocks, is a
/// package of its own outside the workspace and is never walked.
pub const R2_SCOPE: [&str; 9] = [
    "crates/core/src",
    "crates/sim/src",
    "crates/wire/src",
    "crates/hash/src",
    "crates/packet/src",
    "crates/stats/src",
    "crates/trace/src",
    "crates/netsim/src",
    "src/",
];

/// R3 runs wherever locks and blocking calls coexist.
pub const R3_SCOPE: [&str; 4] = [
    "crates/wire/src",
    "crates/sim/src",
    "crates/core/src",
    "src/",
];

/// Is `rel` under any of the given scope prefixes?
pub fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel.starts_with(p))
}

fn skip(t: &Token<'_>) -> bool {
    t.in_test || t.in_attr
}

/// Macros whose expansion aborts: never in product code of the
/// hardened crates.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// R1 — panic-freedom. Flags `.unwrap()`, `.expect(…)`, the abort
/// macros, and slice/array indexing (`x[i]`, `x[a..b]`) in non-test
/// code. Indexing with a full range (`x[..]`) cannot panic and is not
/// flagged.
pub fn r1(rel: &str, tokens: &[Token<'_>]) -> Vec<Violation> {
    let mut out = Vec::new();
    let viol = |check: &str, line: u32, message: String| Violation {
        rule: "R1",
        check: check.to_string(),
        file: rel.to_string(),
        line,
        message,
    };
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if skip(t) {
            continue;
        }
        // `.unwrap()` / `.expect(`
        if t.is_punct('.') && i + 2 < tokens.len() {
            let m = &tokens[i + 1];
            if (m.is_ident("unwrap") || m.is_ident("expect")) && tokens[i + 2].is_punct('(') {
                out.push(viol(
                    m.text,
                    m.line,
                    format!("`.{}(…)` can panic; return a typed error instead", m.text),
                ));
            }
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text)
            && i + 1 < tokens.len()
            && tokens[i + 1].is_punct('!')
        {
            out.push(viol(
                t.text,
                t.line,
                format!("`{}!` aborts; non-test code must refuse, not panic", t.text),
            ));
        }
        // Postfix indexing: `expr[…]` where expr ends in an
        // identifier, `)`, `]`, or `?`.
        if t.is_punct('[') && i > 0 {
            let p = &tokens[i - 1];
            let postfix =
                p.kind == TokKind::Ident || p.is_punct(')') || p.is_punct(']') || p.is_punct('?');
            // `expr[..]` (full-range) never panics.
            let full_range = i + 3 < tokens.len()
                && tokens[i + 1].is_punct('.')
                && tokens[i + 2].is_punct('.')
                && tokens[i + 3].is_punct(']');
            // A `[` directly after a keyword is an array expression
            // (`return [`, `in [`…) or pattern (`let [a, b] =`), not
            // indexing.
            let keyword_before = p.kind == TokKind::Ident
                && matches!(
                    p.text,
                    "return"
                        | "in"
                        | "if"
                        | "else"
                        | "match"
                        | "break"
                        | "mut"
                        | "as"
                        | "dyn"
                        | "let"
                );
            if postfix && !full_range && !keyword_before && !p.in_attr {
                out.push(viol(
                    "index",
                    t.line,
                    "slice/array indexing can panic; prefer `.get(…)` with a typed refusal"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// Methods that iterate a `HashMap`/`HashSet` in hash order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Collect identifiers (bindings and struct fields) declared in this
/// file with a `HashMap`/`HashSet` type, by two lexical patterns:
/// `name: HashMap<…>` (annotations and fields) and
/// `let name = HashMap::new/with_capacity/from…`.
fn hash_typed_names(tokens: &[Token<'_>]) -> HashSet<String> {
    let mut names = HashSet::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        // Test-scope declarations must not poison product-code names:
        // a test-local `let delays = HashSet::new()` would otherwise
        // flag a product loop over an unrelated `delays` array.
        if t.kind != TokKind::Ident || t.in_attr || t.in_test {
            continue;
        }
        // `name :` (single colon) followed by a type mentioning
        // HashMap/HashSet before the annotation ends.
        if i + 2 < tokens.len()
            && tokens[i + 1].is_punct(':')
            && !tokens[i + 2].is_punct(':')
            && (i == 0 || !tokens[i - 1].is_punct(':'))
        {
            let mut angle = 0i32;
            for u in tokens.iter().skip(i + 2).take(40) {
                if u.is_punct('<') {
                    angle += 1;
                } else if u.is_punct('>') {
                    angle -= 1;
                } else if angle == 0
                    && (u.is_punct(';')
                        || u.is_punct('=')
                        || u.is_punct(',')
                        || u.is_punct(')')
                        || u.is_punct('{'))
                {
                    break;
                } else if u.is_ident("HashMap") || u.is_ident("HashSet") {
                    names.insert(t.text.to_string());
                    break;
                }
            }
        }
        // `let name = …HashMap::…` / `let mut name = …HashSet::…`
        if t.is_ident("let") {
            let mut j = i + 1;
            while j < tokens.len() && tokens[j].is_ident("mut") {
                j += 1;
            }
            if j < tokens.len() && tokens[j].kind == TokKind::Ident {
                let name = tokens[j].text;
                for u in tokens.iter().skip(j + 1).take(30) {
                    if u.is_punct(';') {
                        break;
                    }
                    if u.is_ident("HashMap") || u.is_ident("HashSet") {
                        names.insert(name.to_string());
                        break;
                    }
                }
            }
        }
    }
    names
}

/// Walk backwards from the `.` at index `end` over a method-call chain
/// (`a.b.lock().c`) collecting the identifiers in the receiver. Stops
/// at the first token that is not part of a `recv.field.call()` chain,
/// so `for k in m.keys()` yields `["m"]`, not `["m", "in", "for"]`.
fn chain_idents<'a>(tokens: &'a [Token<'a>], end: usize) -> Vec<&'a str> {
    let mut idents = Vec::new();
    let mut i = end; // index of a '.' in the chain
    loop {
        if i == 0 {
            break;
        }
        let mut j = i - 1;
        if tokens[j].is_punct(')') {
            // Skip the call's argument list to its method name.
            let mut depth = 1;
            while j > 0 && depth > 0 {
                j -= 1;
                if tokens[j].is_punct(')') {
                    depth += 1;
                } else if tokens[j].is_punct('(') {
                    depth -= 1;
                }
            }
            if j == 0 {
                break;
            }
            j -= 1;
            if tokens[j].kind == TokKind::Ident {
                idents.push(tokens[j].text);
            } else {
                break;
            }
        } else if tokens[j].kind == TokKind::Ident {
            idents.push(tokens[j].text);
        } else {
            break;
        }
        // The chain continues only through another `.`.
        if j == 0 || !tokens[j - 1].is_punct('.') {
            break;
        }
        i = j - 1;
    }
    idents
}

/// R2 — determinism. Flags wall-clock reads (`Instant::now`,
/// `SystemTime::now`) and `HashMap`/`HashSet` iteration (hash order is
/// seeded per-process: anything it feeds can differ run to run).
pub fn r2(rel: &str, tokens: &[Token<'_>]) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();
    let names = hash_typed_names(tokens);
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if skip(t) {
            continue;
        }
        // `Instant::now` / `SystemTime::now`
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && i + 3 < tokens.len()
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].is_ident("now")
        {
            out.push(Violation {
                rule: "R2",
                check: "clock".to_string(),
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "`{}::now()` reads the wall clock; verdict-feeding paths must be \
                     deterministic (allow with a reason if this only bounds a timeout)",
                    t.text
                ),
            });
        }
        // `map.iter()` and friends, including through `.lock()` /
        // `.read()` chains.
        if t.is_punct('.')
            && i + 2 < tokens.len()
            && tokens[i + 1].kind == TokKind::Ident
            && ITER_METHODS.contains(&tokens[i + 1].text)
            && tokens[i + 2].is_punct('(')
        {
            let chain = chain_idents(tokens, i);
            if chain.iter().any(|id| names.contains(*id)) {
                out.push(Violation {
                    rule: "R2",
                    check: "hash-iter".to_string(),
                    file: rel.to_string(),
                    line: tokens[i + 1].line,
                    message: format!(
                        "`.{}()` on a HashMap/HashSet iterates in per-process hash order; \
                         sort first or use an ordered structure",
                        tokens[i + 1].text
                    ),
                });
            }
        }
        // `for x in &map { … }`
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut saw_in = false;
            while j < tokens.len() && !tokens[j].is_punct('{') && j < i + 30 {
                if tokens[j].is_ident("in") {
                    saw_in = true;
                } else if saw_in
                    && tokens[j].kind == TokKind::Ident
                    && names.contains(tokens[j].text)
                    // Not already caught as `.iter()` etc.
                    && !(j + 1 < tokens.len() && tokens[j + 1].is_punct('.'))
                {
                    out.push(Violation {
                        rule: "R2",
                        check: "hash-iter".to_string(),
                        file: rel.to_string(),
                        line: tokens[j].line,
                        message: "iterating a HashMap/HashSet yields per-process hash order; \
                                  sort first or use an ordered structure"
                            .to_string(),
                    });
                    break;
                }
                j += 1;
            }
        }
    }
    out
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
                    rule: "R3",
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

    fn run(rule: fn(&str, &[Token<'_>]) -> Vec<Violation>, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        rule("crates/wire/src/x.rs", &lexed.tokens)
    }

    #[test]
    fn r1_flags_unwrap_expect_macros_and_indexing() {
        let v = run(
            r1,
            "fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); unreachable!(); c[i]; d[..]; }",
        );
        let checks: Vec<&str> = v.iter().map(|v| v.check.as_str()).collect();
        assert_eq!(
            checks,
            vec!["unwrap", "expect", "panic", "unreachable", "index"]
        );
    }

    #[test]
    fn r1_skips_test_code_and_attrs() {
        let v = run(
            r1,
            "#[cfg(test)] mod tests { fn t() { a.unwrap(); b[i]; panic!(); } }\n\
             #[derive(Debug)] struct S;",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_array_literals_are_not_indexing() {
        let v = run(
            r1,
            "fn f() { let a = [0u8; 4]; let b: [u8; 2] = x; let [c, _] = b; return [1, c]; }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r2_flags_clocks_and_hash_iteration() {
        let v = run(
            r2,
            "fn f(m: HashMap<u32, u32>) { let t = Instant::now(); for k in m.keys() {} }",
        );
        let checks: Vec<&str> = v.iter().map(|v| v.check.as_str()).collect();
        assert_eq!(checks, vec!["clock", "hash-iter"]);
    }

    #[test]
    fn r2_ignores_vec_iteration_and_map_lookups() {
        let v = run(
            r2,
            "fn f(m: HashMap<u32, u32>, v: Vec<u32>) { v.iter(); m.get(&1); m.len(); }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r2_sees_iteration_through_lock_chains() {
        let v = run(
            r2,
            "struct S { subs: HashMap<u64, u32> }\n\
             fn f(s: &S) { for x in s.subs.values() {} }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn r3_flags_io_under_a_guard_and_clears_on_scope_exit() {
        let v = run(
            r3,
            "fn f(&self) { let mut g = self.state.lock(); g.conn.write_all(b\"x\"); }\n\
             fn ok(&self) { { let g = self.state.lock(); } self.notify_all(); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].check, "write_all");
    }

    #[test]
    fn r3_condvar_wait_consuming_the_guard_is_sanctioned() {
        let v = run(
            r3,
            "fn w(&self) { let mut count = self.count.lock(); \
             let r = self.cond.wait_timeout(count, d); }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r3_drop_releases_the_guard() {
        let v = run(
            r3,
            "fn f(&self) { let g = self.m.lock(); drop(g); self.n.notify_all(); }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r3_write_with_args_is_io_not_a_guard() {
        let v = run(r3, "fn f(s: &mut TcpStream) { s.write(buf); s.flush(); }");
        assert!(v.is_empty(), "{v:?}");
    }
}
