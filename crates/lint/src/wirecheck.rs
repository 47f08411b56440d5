//! R4 — wire-constant drift.
//!
//! The v2 frame layout is declared three times: as constants in
//! `crates/wire/src/codec.rs` (+ the compact record constants in
//! `crates/core/src/receipt.rs`), as the pinned golden fixture
//! `tests/golden/wire_v2.hex`, and as the README's frame diagram. §7.1
//! byte accounting depends on all three agreeing, so R4 cross-checks
//! them on every run:
//!
//! * constants are extracted from source (simple const-expression
//!   evaluation: integers, `+`, `*`, cross-file references, byte
//!   strings) — no hard-coded copies that could themselves rot;
//! * both golden frames are *structurally walked* byte by byte using
//!   those constants — magic, version, flags, section counts, and the
//!   total length must account for every byte;
//! * the compact and precise frames encode the same batch, so every
//!   shared field must agree and every truncated field must be the
//!   documented truncation of its precise counterpart (lo-32 digests,
//!   µs-mod-2²⁴ times);
//! * the README's documented sizes (`16-B header`, `24 B per distinct
//!   path`, `= 7 B`, `22 B`, `36 B`…) must match the constants.

use crate::report::Violation;
use std::collections::HashMap;
use std::path::Path;

/// A const value the mini-evaluator understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstVal {
    /// Integer constant.
    Int(u64),
    /// Byte-string constant (`*b"VPMW"`).
    Bytes(Vec<u8>),
}

/// Extract `const NAME: … = EXPR;` declarations from Rust source and
/// evaluate the subset of expressions the wire constants use.
/// Unresolvable expressions are skipped (R4 then reports the missing
/// name).
pub fn extract_consts(src: &str, env: &mut HashMap<String, u64>) -> HashMap<String, ConstVal> {
    let lexed = crate::lexer::lex(src);
    let toks = &lexed.tokens;
    let mut found: HashMap<String, ConstVal> = HashMap::new();
    // Two passes so later consts can reference earlier ones in any
    // order within the file.
    for _ in 0..2 {
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_ident("const")
                && i + 2 < toks.len()
                && toks[i + 1].kind == crate::lexer::TokKind::Ident
                && toks[i + 2].is_punct(':')
            {
                let name = toks[i + 1].text.to_string();
                // Skip the type to the '=' — the `;` inside an array
                // type (`[u8; 4]`) must not end the scan.
                let mut j = i + 3;
                let mut depth = 0i64;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('[') || t.is_punct('(') || t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct(']') || t.is_punct(')') || t.is_punct('>') {
                        depth -= 1;
                    } else if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
                        break;
                    }
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('=') {
                    let start = j + 1;
                    let mut end = start;
                    while end < toks.len() && !toks[end].is_punct(';') {
                        end += 1;
                    }
                    if let Some(v) = eval(&toks[start..end], env) {
                        if let ConstVal::Int(n) = &v {
                            env.insert(name.clone(), *n);
                        }
                        found.insert(name, v);
                    }
                }
                i = j;
            }
            i += 1;
        }
    }
    found
}

/// Evaluate a flat const expression: `N`, `N + M`, `N * M`,
/// `IDENT + N`, `*b"…"`, `b"…"`, `1 << K`. Left-to-right with `*`
/// before `+` unnecessary here — the wire constants use single
/// operators — so a simple accumulator is enough; parenthesized or
/// mixed expressions are rejected (return `None`).
fn eval(toks: &[crate::lexer::Token<'_>], env: &HashMap<String, u64>) -> Option<ConstVal> {
    use crate::lexer::TokKind;
    // Byte string (possibly behind a deref `*`).
    let strip: &[_] = if !toks.is_empty() && toks[0].is_punct('*') {
        &toks[1..]
    } else {
        toks
    };
    if strip.len() == 1 && strip[0].kind == TokKind::Str {
        return parse_byte_string(strip[0].text).map(ConstVal::Bytes);
    }

    eval_int(toks, env).map(ConstVal::Int)
}

/// Integer sub-evaluator: terms, `+`, `*`, `<<`, parentheses. Splits
/// at the lowest-precedence top-level operator and recurses; anything
/// else returns `None`.
fn eval_int(toks: &[crate::lexer::Token<'_>], env: &HashMap<String, u64>) -> Option<u64> {
    use crate::lexer::TokKind;
    if toks.is_empty() {
        return None;
    }
    // Strip a fully-enclosing paren pair.
    if toks[0].is_punct('(') && toks[toks.len() - 1].is_punct(')') {
        let mut depth = 0i64;
        let mut encloses = true;
        for (k, t) in toks.iter().enumerate() {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 && k != toks.len() - 1 {
                    encloses = false;
                    break;
                }
            }
        }
        if encloses {
            return eval_int(&toks[1..toks.len() - 1], env);
        }
    }
    // Split at a top-level operator, lowest precedence first
    // (`<<`, then `+`, then `*`).
    let mut depth = 0i64;
    let mut split: Option<(usize, usize, u8)> = None; // (start, width, prec)
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        } else if depth == 0 {
            let found = if t.is_punct('<') && toks.get(k + 1).is_some_and(|u| u.is_punct('<')) {
                Some((k, 2, 0u8))
            } else if t.is_punct('+') {
                Some((k, 1, 1))
            } else if t.is_punct('*') && k > 0 {
                Some((k, 1, 2))
            } else {
                None
            };
            if let Some(f) = found {
                if split.is_none_or(|s| f.2 < s.2) {
                    split = Some(f);
                }
            }
        }
    }
    if let Some((k, w, prec)) = split {
        let l = eval_int(&toks[..k], env)?;
        let r = eval_int(&toks[k + w..], env)?;
        return Some(match prec {
            0 => l << r,
            1 => l + r,
            _ => l * r,
        });
    }
    if toks.len() == 1 {
        return match toks[0].kind {
            TokKind::Num => parse_int(toks[0].text),
            TokKind::Ident => env.get(toks[0].text).copied(),
            _ => None,
        };
    }
    None
}

fn parse_int(s: &str) -> Option<u64> {
    let s = s.replace('_', "");
    let s = s
        .trim_end_matches("usize")
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .trim_end_matches("u16")
        .trim_end_matches("u8");
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_byte_string(raw: &str) -> Option<Vec<u8>> {
    let inner = raw.strip_prefix("b\"")?.strip_suffix('"')?;
    // The wire magic is plain ASCII; escapes are out of scope.
    Some(inner.as_bytes().to_vec())
}

/// The wire constants R4 needs, resolved from source.
#[derive(Debug)]
struct WireConsts {
    magic: Vec<u8>,
    version: u64,
    header_bytes: usize,
    path_entry_bytes: usize,
    mac_trailer_bytes: usize,
    pkt_id_bytes: usize,
    time_bytes: usize,
    sample_record_bytes: usize,
    path_ref_bytes: usize,
    pkt_cnt_bytes: usize,
    time_unit_ns: u64,
    time_mod: u64,
}

/// One parsed golden frame, structure only.
#[derive(Debug, PartialEq)]
struct ParsedFrame {
    flags: u8,
    hop: [u8; 2],
    seq: [u8; 8],
    path_table: Vec<Vec<u8>>,
    /// (path_ref, records) per sample receipt.
    samples: Vec<(u32, Vec<(u64, u64)>)>,
    /// (path_ref, id_first, id_last, pkt_cnt, window) per aggregate.
    aggs: Vec<(u32, u64, u64, u64, Vec<u64>)>,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.off + n > self.bytes.len() {
            return Err(format!(
                "frame truncated at byte {} (needed {n} more)",
                self.off
            ));
        }
        let s = &self.bytes[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn le(&mut self, n: usize) -> Result<u64, String> {
        let s = self.take(n)?;
        let mut v = 0u64;
        for (i, b) in s.iter().enumerate() {
            v |= (*b as u64) << (8 * i);
        }
        Ok(v)
    }
}

fn walk_frame(bytes: &[u8], precise: bool, c: &WireConsts) -> Result<ParsedFrame, String> {
    let mut cur = Cursor { bytes, off: 0 };
    let magic = cur.take(c.magic.len())?;
    if magic != c.magic.as_slice() {
        return Err(format!(
            "magic {magic:02x?} does not match the declared MAGIC {:02x?}",
            c.magic
        ));
    }
    let version = cur.le(1)?;
    if version != c.version {
        return Err(format!(
            "version byte {version} does not match declared VERSION {}",
            c.version
        ));
    }
    let flags = cur.le(1)? as u8;
    let expected_profile_bit = u8::from(precise);
    if flags & 0b1 != expected_profile_bit {
        return Err(format!(
            "profile flag bit is {:#04b}, expected bit0={expected_profile_bit}",
            flags
        ));
    }
    if flags & !0b11 != 0 {
        return Err(format!("flags {flags:#010b} set bits v2 does not assign"));
    }
    let hop: [u8; 2] = cur.take(2)?.try_into().map_err(|_| "hop".to_string())?;
    let seq: [u8; 8] = cur.take(8)?.try_into().map_err(|_| "seq".to_string())?;
    if cur.off != c.header_bytes {
        return Err(format!(
            "header fields end at byte {} but HEADER_BYTES is {}",
            cur.off, c.header_bytes
        ));
    }

    let path_count = cur.le(2)? as usize;
    let mut path_table = Vec::with_capacity(path_count);
    for _ in 0..path_count {
        path_table.push(cur.take(c.path_entry_bytes)?.to_vec());
    }

    let (pkt_id_bytes, time_bytes, pkt_cnt_bytes, digest_bytes) = if precise {
        (8usize, 8usize, 8usize, 8usize)
    } else {
        (
            c.pkt_id_bytes,
            c.time_bytes,
            c.pkt_cnt_bytes,
            c.pkt_id_bytes,
        )
    };

    let sample_count = cur.le(4)? as usize;
    let mut dir = Vec::with_capacity(sample_count);
    for _ in 0..sample_count {
        dir.push(cur.le(4)? as usize);
    }
    let mut samples = Vec::with_capacity(sample_count);
    for records in dir {
        let path_ref = cur.le(c.path_ref_bytes)? as u32;
        if path_ref as usize >= path_count {
            return Err(format!("path ref {path_ref} outside table of {path_count}"));
        }
        let mut recs = Vec::with_capacity(records);
        for _ in 0..records {
            let pkt_id = cur.le(pkt_id_bytes)?;
            let time = cur.le(time_bytes)?;
            recs.push((pkt_id, time));
        }
        samples.push((path_ref, recs));
    }

    let agg_count = cur.le(4)? as usize;
    let mut aggs = Vec::with_capacity(agg_count);
    for _ in 0..agg_count {
        let path_ref = cur.le(c.path_ref_bytes)? as u32;
        if path_ref as usize >= path_count {
            return Err(format!(
                "agg path ref {path_ref} outside table of {path_count}"
            ));
        }
        let first = cur.le(pkt_id_bytes)?;
        let last = cur.le(pkt_id_bytes)?;
        let pkt_cnt = cur.le(pkt_cnt_bytes)?;
        let window_len = cur.le(4)? as usize;
        let mut window = Vec::with_capacity(window_len);
        for _ in 0..window_len {
            window.push(cur.le(digest_bytes)?);
        }
        aggs.push((path_ref, first, last, pkt_cnt, window));
    }

    if cur.off != bytes.len() {
        return Err(format!(
            "{} trailing byte(s) the declared layout does not account for",
            bytes.len() - cur.off
        ));
    }
    Ok(ParsedFrame {
        flags,
        hop,
        seq,
        path_table,
        samples,
        aggs,
    })
}

/// Compare the compact frame against the precise frame of the same
/// batch under the documented truncation rules.
fn differential(compact: &ParsedFrame, precise: &ParsedFrame, c: &WireConsts) -> Vec<String> {
    let mut errs = Vec::new();
    if compact.hop != precise.hop || compact.seq != precise.seq {
        errs.push("compact and precise frames disagree on hop/seq".to_string());
    }
    if compact.path_table != precise.path_table {
        errs.push(
            "compact and precise path tables differ (the table is profile-independent)".to_string(),
        );
    }
    if compact.samples.len() != precise.samples.len() || compact.aggs.len() != precise.aggs.len() {
        errs.push("compact and precise frames carry different receipt counts".to_string());
        return errs;
    }
    for (i, (cs, ps)) in compact.samples.iter().zip(&precise.samples).enumerate() {
        if cs.0 != ps.0 || cs.1.len() != ps.1.len() {
            errs.push(format!(
                "sample receipt {i}: path ref or record count differs"
            ));
            continue;
        }
        for (j, (cr, pr)) in cs.1.iter().zip(&ps.1).enumerate() {
            if cr.0 != pr.0 & 0xFFFF_FFFF {
                errs.push(format!(
                    "sample {i}.{j}: compact PktID {:#x} is not lo-32 of precise {:#x}",
                    cr.0, pr.0
                ));
            }
            let want = (pr.1 / c.time_unit_ns) % c.time_mod;
            if cr.1 != want {
                errs.push(format!(
                    "sample {i}.{j}: compact time {} is not µs mod 2²⁴ of precise {} ns",
                    cr.1, pr.1
                ));
            }
        }
    }
    for (i, (ca, pa)) in compact.aggs.iter().zip(&precise.aggs).enumerate() {
        if ca.0 != pa.0 {
            errs.push(format!("aggregate {i}: path ref differs"));
        }
        if ca.1 != pa.1 & 0xFFFF_FFFF || ca.2 != pa.2 & 0xFFFF_FFFF {
            errs.push(format!(
                "aggregate {i}: AggID digests are not lo-32 truncations"
            ));
        }
        if ca.3 != pa.3 {
            errs.push(format!(
                "aggregate {i}: packet counts differ ({} vs {})",
                ca.3, pa.3
            ));
        }
        if ca.4.len() != pa.4.len() {
            errs.push(format!("aggregate {i}: window lengths differ"));
        } else {
            for (j, (cd, pd)) in ca.4.iter().zip(&pa.4).enumerate() {
                if *cd != pd & 0xFFFF_FFFF {
                    errs.push(format!(
                        "aggregate {i} window digest {j} is not a lo-32 truncation"
                    ));
                }
            }
        }
    }
    errs
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// Run R4 against a tree rooted at `root`.
pub fn r4(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    let viol = |file: &str, check: &str, message: String| Violation {
        rule: "R4",
        check: check.to_string(),
        file: file.to_string(),
        line: 1,
        message,
    };

    // 1. Extract the declared constants.
    let mut env: HashMap<String, u64> = HashMap::new();
    let mut all: HashMap<String, ConstVal> = HashMap::new();
    for rel in [
        "crates/hash/src/sha256.rs",
        "crates/hash/src/lib.rs",
        "crates/core/src/receipt.rs",
        "crates/wire/src/codec.rs",
    ] {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => {
                all.extend(extract_consts(&src, &mut env));
            }
            Err(e) => {
                out.push(viol(
                    rel,
                    "missing-source",
                    format!("cannot read {rel}: {e}"),
                ));
            }
        }
    }
    let int = |name: &str| -> Option<u64> {
        match all.get(name) {
            Some(ConstVal::Int(n)) => Some(*n),
            _ => None,
        }
    };
    let needed = [
        "VERSION",
        "HEADER_BYTES",
        "PATH_ENTRY_BYTES",
        "MAC_TRAILER_BYTES",
        "PKT_ID_BYTES",
        "TIME_BYTES",
        "SAMPLE_RECORD_BYTES",
        "PATH_REF_BYTES",
        "PKT_CNT_BYTES",
        "TIME_UNIT_NS",
        "TIME_MOD",
    ];
    let missing: Vec<&str> = needed
        .iter()
        .filter(|n| int(n).is_none())
        .copied()
        .collect();
    let magic = match all.get("MAGIC") {
        Some(ConstVal::Bytes(b)) => b.clone(),
        _ => {
            out.push(viol(
                "crates/wire/src/codec.rs",
                "missing-const",
                "MAGIC byte-string constant not found in source".to_string(),
            ));
            return out;
        }
    };
    if !missing.is_empty() {
        out.push(viol(
            "crates/wire/src/codec.rs",
            "missing-const",
            format!("wire constants not resolvable from source: {missing:?}"),
        ));
        return out;
    }
    let c = WireConsts {
        magic,
        version: int("VERSION").unwrap_or(0),
        header_bytes: int("HEADER_BYTES").unwrap_or(0) as usize,
        path_entry_bytes: int("PATH_ENTRY_BYTES").unwrap_or(0) as usize,
        mac_trailer_bytes: int("MAC_TRAILER_BYTES").unwrap_or(0) as usize,
        pkt_id_bytes: int("PKT_ID_BYTES").unwrap_or(0) as usize,
        time_bytes: int("TIME_BYTES").unwrap_or(0) as usize,
        sample_record_bytes: int("SAMPLE_RECORD_BYTES").unwrap_or(0) as usize,
        path_ref_bytes: int("PATH_REF_BYTES").unwrap_or(0) as usize,
        pkt_cnt_bytes: int("PKT_CNT_BYTES").unwrap_or(0) as usize,
        time_unit_ns: int("TIME_UNIT_NS").unwrap_or(1),
        time_mod: int("TIME_MOD").unwrap_or(1),
    };

    // Internal consistency of the declared constants themselves.
    if c.sample_record_bytes != c.pkt_id_bytes + c.time_bytes {
        out.push(viol(
            "crates/core/src/receipt.rs",
            "const-sum",
            format!(
                "SAMPLE_RECORD_BYTES {} ≠ PKT_ID_BYTES {} + TIME_BYTES {}",
                c.sample_record_bytes, c.pkt_id_bytes, c.time_bytes
            ),
        ));
    }

    // 2. Structurally walk the golden fixture.
    let golden_rel = "tests/golden/wire_v2.hex";
    let golden = match std::fs::read_to_string(root.join(golden_rel)) {
        Ok(g) => g,
        Err(e) => {
            out.push(viol(
                golden_rel,
                "missing-golden",
                format!("cannot read fixture: {e}"),
            ));
            return out;
        }
    };
    let mut frames: HashMap<&str, Vec<u8>> = HashMap::new();
    for line in golden.lines() {
        if let Some((label, hex)) = line.trim().split_once(' ') {
            match hex_decode(hex.trim()) {
                Some(bytes) => {
                    frames.insert(label, bytes);
                }
                None => out.push(viol(
                    golden_rel,
                    "golden-hex",
                    format!("line '{label}' is not valid hex"),
                )),
            }
        }
    }
    let (Some(compact_bytes), Some(precise_bytes)) = (frames.get("compact"), frames.get("precise"))
    else {
        out.push(viol(
            golden_rel,
            "golden-missing-frame",
            "fixture must carry one 'compact' and one 'precise' frame".to_string(),
        ));
        return out;
    };
    let compact = match walk_frame(compact_bytes, false, &c) {
        Ok(f) => Some(f),
        Err(e) => {
            out.push(viol(
                golden_rel,
                "golden-walk",
                format!("compact frame: {e}"),
            ));
            None
        }
    };
    let precise = match walk_frame(precise_bytes, true, &c) {
        Ok(f) => Some(f),
        Err(e) => {
            out.push(viol(
                golden_rel,
                "golden-walk",
                format!("precise frame: {e}"),
            ));
            None
        }
    };

    // 3. Differential: same batch, two profiles.
    if let (Some(compact), Some(precise)) = (&compact, &precise) {
        for e in differential(compact, precise, &c) {
            out.push(viol(golden_rel, "golden-differential", e));
        }
    }

    // 4. README documented sizes.
    let readme_rel = "README.md";
    match std::fs::read_to_string(root.join(readme_rel)) {
        Ok(readme) => {
            let want: [(String, &str); 5] = [
                (format!("{}-B header", c.header_bytes), "header size"),
                (
                    format!("{} B per distinct path", c.path_entry_bytes),
                    "path-table entry size",
                ),
                (
                    format!("= {} B", c.sample_record_bytes),
                    "compact sample record size",
                ),
                (
                    format!(
                        "{} B + {} B per window digest",
                        c.path_ref_bytes + 2 * c.pkt_id_bytes + c.pkt_cnt_bytes + 4,
                        c.pkt_id_bytes
                    ),
                    "compact aggregate receipt size",
                ),
                (format!("{} B:", c.mac_trailer_bytes), "MAC trailer size"),
            ];
            for (needle, what) in &want {
                if !readme.contains(needle.as_str()) {
                    out.push(viol(
                        readme_rel,
                        "readme-drift",
                        format!(
                            "README no longer documents the {what} as '{needle}' — \
                             the declared constants and the README tables drifted apart"
                        ),
                    ));
                }
            }
        }
        Err(e) => out.push(viol(
            readme_rel,
            "missing-readme",
            format!("cannot read README: {e}"),
        )),
    }

    out
}
