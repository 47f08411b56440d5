//! A minimal Rust lexer for `vpm-lint`.
//!
//! This is deliberately *not* a full Rust front end: R3 only needs a
//! token stream with comments and string contents stripped, line
//! numbers, brace-depth scopes, and enough item tracking to tell test
//! code (`#[cfg(test)]` items, `#[test]` functions, `mod tests`) from
//! product code. No crates.io dependency (proc-macro2/syn) could be
//! vendored under the repo's offline shim policy, and none is needed:
//! R3 matches short token sequences, not types.
//!
//! Guarantees R3 relies on:
//!
//! * String/char/byte-string contents (including raw strings) never
//!   produce tokens, so `"wait("` in a message cannot trip R3.
//! * Comments never produce tokens.
//! * Every token carries `in_test` (lexically inside a `#[cfg(test)]`
//!   item, a `#[test]` item, or a `mod tests`/`mod test` block) and
//!   `in_attr` (inside a `#[...]` attribute), so R3 can skip both.

/// Kinds of tokens the analyzer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (the character is the token text).
    Punct,
    /// String literal of any flavor (text is the raw source slice).
    Str,
    /// Character literal.
    Char,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token<'a> {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The source text of the token.
    pub text: &'a str,
    /// 1-based source line.
    pub line: u32,
    /// Lexically inside test-only code.
    pub in_test: bool,
    /// Lexically inside a `#[...]` attribute.
    pub in_attr: bool,
}

impl Token<'_> {
    /// True when the token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.starts_with(c)
    }

    /// True when the token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// Lex `src`. Never fails: unterminated literals are consumed to end
/// of input (the analyzer lints real, compiling Rust; on garbage the
/// worst case is missed diagnostics, never a panic).
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let b = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comments, as in real Rust.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (end, nl) = scan_string(b, i);
                tokens.push(tok(TokKind::Str, &src[i..end], line));
                line += nl;
                i = end;
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` + ident
                // not followed by a closing `'`.
                let (token, end, nl) = scan_quote(src, b, i, line);
                tokens.push(token);
                line += nl;
                i = end;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                // Float part: `.` followed by a digit (so `0..n` stays
                // a range and `x.0` stays a field access).
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
                tokens.push(tok(TokKind::Num, &src[start..i], line));
            }
            _ if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let ident = &src[start..i];
                // Raw/byte string prefixes: `r"`, `r#"`, `b"`, `br#"`…
                if matches!(ident, "r" | "b" | "br" | "rb") && i < b.len() {
                    let mut j = i;
                    let raw = ident != "b";
                    if raw {
                        while j < b.len() && b[j] == b'#' {
                            j += 1;
                        }
                    }
                    if j < b.len() && b[j] == b'"' {
                        let hashes = j - i;
                        let (end, nl) = if raw {
                            scan_raw_string(b, j, hashes)
                        } else {
                            scan_string(b, j)
                        };
                        tokens.push(tok(TokKind::Str, &src[start..end], line));
                        line += nl;
                        i = end;
                        continue;
                    }
                    if ident == "b" && i < b.len() && b[i] == b'\'' {
                        let (token, end, nl) = scan_quote(src, b, i, line);
                        tokens.push(token);
                        line += nl;
                        i = end;
                        continue;
                    }
                }
                tokens.push(tok(TokKind::Ident, ident, line));
            }
            _ => {
                let end = next_char_boundary(src, i);
                tokens.push(tok(TokKind::Punct, &src[i..end], line));
                i = end;
            }
        }
    }

    mark_attrs(&mut tokens);
    mark_test_scopes(&mut tokens);
    tokens
}

fn tok(kind: TokKind, text: &str, line: u32) -> Token<'_> {
    Token {
        kind,
        text,
        line,
        in_test: false,
        in_attr: false,
    }
}

fn next_char_boundary(src: &str, i: usize) -> usize {
    let mut end = i + 1;
    while end < src.len() && !src.is_char_boundary(end) {
        end += 1;
    }
    end
}

/// Scan a `"…"` string starting at the opening quote. Returns the
/// index one past the closing quote and the number of newlines inside.
fn scan_string(b: &[u8], start: usize) -> (usize, u32) {
    let mut i = start + 1;
    let mut nl = 0;
    while i < b.len() {
        match b[i] {
            // A line-continuation escape (`\` at end of line) swallows
            // the newline; it still has to count toward line numbers.
            b'\\' => {
                if i + 1 < b.len() && b[i + 1] == b'\n' {
                    nl += 1;
                }
                i += 2;
            }
            b'"' => return (i + 1, nl),
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (b.len(), nl)
}

/// Scan a raw string whose opening quote is at `start`, delimited by
/// `hashes` `#` characters.
fn scan_raw_string(b: &[u8], start: usize, hashes: usize) -> (usize, u32) {
    let mut i = start + 1;
    let mut nl = 0;
    while i < b.len() {
        if b[i] == b'\n' {
            nl += 1;
        } else if b[i] == b'"'
            && b[i + 1..].len() >= hashes
            && b[i + 1..i + 1 + hashes].iter().all(|&c| c == b'#')
        {
            return (i + 1 + hashes, nl);
        }
        i += 1;
    }
    (b.len(), nl)
}

/// Scan from a `'`: either a lifetime token or a char literal.
fn scan_quote<'a>(src: &'a str, b: &[u8], start: usize, line: u32) -> (Token<'a>, usize, u32) {
    // `b'x'` passes start at the quote already; plain lifetimes arrive
    // here too.
    debug_assert_eq!(b[start], b'\'');
    let mut i = start + 1;
    if i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphabetic()) {
        let mut j = i;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        if j >= b.len() || b[j] != b'\'' {
            // `'a` with no closing quote: lifetime.
            return (tok(TokKind::Lifetime, &src[start..j], line), j, 0);
        }
        // `'a'`: char literal.
        return (tok(TokKind::Char, &src[start..j + 1], line), j + 1, 0);
    }
    // Escaped or punctuation char literal: `'\n'`, `'\''`, `'{'`.
    let mut nl = 0;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return (tok(TokKind::Char, &src[start..i + 1], line), i + 1, nl),
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (tok(TokKind::Char, &src[start..], line), b.len(), nl)
}

/// Mark tokens inside `#[...]` attributes (including nested brackets).
fn mark_attrs(tokens: &mut [Token<'_>]) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#')
            && i + 1 < tokens.len()
            && (tokens[i + 1].is_punct('[')
                || (tokens[i + 1].is_punct('!')
                    && i + 2 < tokens.len()
                    && tokens[i + 2].is_punct('[')))
        {
            let open = if tokens[i + 1].is_punct('[') {
                i + 1
            } else {
                i + 2
            };
            let mut depth = 0usize;
            let mut j = open;
            while j < tokens.len() {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let last = j.min(tokens.len() - 1);
            for t in &mut tokens[i..=last] {
                t.in_attr = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// Does an attribute token slice make the following item test-only?
/// `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]` do; a `test`
/// that appears directly under `not(…)` does not.
fn attr_is_test(tokens: &[Token<'_>]) -> bool {
    for (k, t) in tokens.iter().enumerate() {
        if t.is_ident("test") {
            let negated = k >= 2 && tokens[k - 1].is_punct('(') && tokens[k - 2].is_ident("not");
            if !negated {
                return true;
            }
        }
    }
    false
}

/// Second pass: compute `in_test` for every token.
fn mark_test_scopes(tokens: &mut [Token<'_>]) {
    let mut depth: i64 = 0;
    // Brace depths at which a test region opened; tokens are in test
    // scope while this stack is non-empty.
    let mut test_stack: Vec<i64> = Vec::new();
    // A `#[test]`/`#[cfg(test)]` attribute (or `mod tests` header) was
    // seen and applies to the next `{ … }` block, `…;` item, or
    // comma-terminated field / variant / arm.
    let mut pending = false;
    // Paren/bracket nesting, and its value where `pending` was raised:
    // only a `,` at the attribute's own level ends its item (commas in
    // a generic parameter list are not told apart and end it early —
    // test code judged as product code, the loud direction).
    let mut nest: i64 = 0;
    let mut pending_nest: i64 = 0;
    let mut i = 0;
    while i < tokens.len() {
        // Attributes: scan them as a unit.
        if tokens[i].in_attr && tokens[i].is_punct('#') {
            let mut j = i;
            while j < tokens.len() && tokens[j].in_attr {
                tokens[j].in_test = !test_stack.is_empty();
                j += 1;
            }
            if attr_is_test(&tokens[i..j]) {
                pending = true;
                pending_nest = nest;
            }
            i = j;
            continue;
        }
        let in_test_now;
        if tokens[i].is_punct('{') {
            depth += 1;
            if pending {
                test_stack.push(depth);
                pending = false;
            }
            in_test_now = !test_stack.is_empty();
        } else if tokens[i].is_punct('}') {
            // The closing brace still belongs to the region.
            in_test_now = !test_stack.is_empty();
            if test_stack.last() == Some(&depth) {
                test_stack.pop();
            }
            depth -= 1;
            // An attribute on a block's last, comma-less field.
            pending = false;
        } else if tokens[i].is_punct(';') || (tokens[i].is_punct(',') && nest == pending_nest) {
            in_test_now = !test_stack.is_empty();
            // `#[cfg(test)] mod tests;` / `#[cfg(test)] use …;` /
            // `#[cfg(test)] field: T,`: the attribute applied to a
            // braceless item.
            pending = false;
        } else {
            if tokens[i].is_punct('(') || tokens[i].is_punct('[') {
                nest += 1;
            } else if tokens[i].is_punct(')') || tokens[i].is_punct(']') {
                nest -= 1;
            }
            if tokens[i].is_ident("mod")
                && i + 1 < tokens.len()
                && (tokens[i + 1].is_ident("tests") || tokens[i + 1].is_ident("test"))
            {
                pending = true;
                pending_nest = nest;
            }
            in_test_now = !test_stack.is_empty();
        }
        tokens[i].in_test = in_test_now;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    #[test]
    fn strings_and_comments_produce_no_idents() {
        let src = r##"
            fn f() {
                let s = "panic! unwrap()";
                let r = r#"unreachable!()"#;
                let b = b"todo!()";
                // panic! in a comment
                /* unwrap() in /* nested */ block */
                let c = '{';
                let l: &'static str = s;
            }
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"panic".to_string()), "{ids:?}");
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"todo".to_string()), "{ids:?}");
        assert!(!ids.contains(&"unreachable".to_string()), "{ids:?}");
        assert!(lex(src)
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
    }

    #[test]
    fn cfg_test_module_is_test_scope_and_rest_is_not() {
        let src = r#"
            fn product() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); }
            }
            fn product2() { z.unwrap(); }
        "#;
        let unwraps: Vec<bool> = lex(src)
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true, false]);
    }

    #[test]
    fn cfg_test_on_a_field_does_not_leak_into_the_next_block() {
        let src = r#"
            struct S {
                #[cfg(test)]
                hits: Counter<(u8, u8)>,
                #[cfg(test)]
                last: u8
            }
            impl S {
                fn new() -> S {
                    S {
                        #[cfg(test)]
                        hits: Counter::new(0, 0),
                    }
                }
                fn product(&self) { x.unwrap(); }
                #[cfg(test)]
                fn probe(&self, a: u8, b: u8) { y.unwrap(); }
            }
        "#;
        let unwraps: Vec<bool> = lex(src)
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn cfg_not_test_is_product_scope() {
        let src = r#"
            #[cfg(not(test))]
            fn product() { x.unwrap(); }
        "#;
        let tokens = lex(src);
        let t = tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert!(!t.in_test);
    }

    #[test]
    fn test_fn_attr_marks_only_its_body() {
        let src = r#"
            #[test]
            fn a_test() { x.unwrap(); }
            fn product() { y.unwrap(); }
        "#;
        let unwraps: Vec<bool> = lex(src)
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn numbers_and_ranges_lex_apart() {
        let nums: Vec<&str> = lex("a[0..n]; 1.5f64; x.0;")
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text)
            .collect();
        assert_eq!(nums, vec!["0", "1.5f64", "0"]);
    }
}
