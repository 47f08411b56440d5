//! R6 — shim-surface drift.
//!
//! The offline shims under `shims/` impersonate real crates.io crates,
//! so every public item they expose is a compatibility claim: code
//! written against the shim must still compile against the real crate.
//! That makes the shim surface an *audited* set — growing it is a
//! deliberate act, reviewed against the upstream API, not a drive-by
//! edit because some call site wanted one more helper.
//!
//! R6 pins that set. It lexically extracts the public surface of every
//! `shims/*/src/lib.rs` — `pub` items at any nesting depth (including
//! `impl`-block methods), plus `#[macro_export]` macros — and diffs it
//! both ways against `shims/MANIFEST.txt`:
//!
//! * a surface item missing from the manifest is an
//!   **unaudited-addition** (someone widened a shim without updating
//!   the audit record);
//! * a manifest line with no matching item is a **stale-entry** (the
//!   surface shrank, or the manifest was hand-edited wrong).
//!
//! `pub(crate)`/`pub(super)` items are not surface. Non-exported
//! `macro_rules!` helpers are not surface. The manifest is regenerated
//! by the `#[ignore]`d `regenerate_manifest` test in this module:
//!
//! ```text
//! cargo test -p vpm-lint regenerate_manifest -- --ignored
//! ```
//!
//! Entries are a flat `(shim, kind, name)` set — two types in one shim
//! both exposing `fn new` collapse to one line. That coarseness is
//! deliberate: the rule is a tripwire for surface *growth*, not a full
//! API diff, and a flat set keeps the manifest reviewable by eye.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lexer::{self, TokKind};
use crate::report::Violation;

/// Manifest location, relative to the workspace root.
pub const MANIFEST_REL: &str = "shims/MANIFEST.txt";

/// One public item found in a shim.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SurfaceItem {
    /// Shim directory name (`bytes`, `serde`, …).
    pub shim: String,
    /// Item kind keyword (`fn`, `struct`, `trait`, `macro`, `use`, …).
    pub kind: String,
    /// Item name; for `use`, the full re-exported path.
    pub name: String,
    /// 1-based line of the declaration (first occurrence wins).
    pub line: u32,
}

impl SurfaceItem {
    /// The identity R6 diffs on (line numbers are presentation only).
    fn key(&self) -> (String, String, String) {
        (self.shim.clone(), self.kind.clone(), self.name.clone())
    }
}

/// Extract the public surface of one shim's source.
fn surface_of(shim: &str, src: &str) -> Vec<SurfaceItem> {
    let toks = &lexer::lex(src);
    let mut out = Vec::new();
    let mut push = |kind: &str, name: &str, line: u32| {
        out.push(SurfaceItem {
            shim: shim.to_string(),
            kind: kind.to_string(),
            name: name.to_string(),
            line,
        });
    };

    let mut i = 0usize;
    while i < toks.len() {
        // `#[macro_export] macro_rules! name` — exported macros are
        // surface even though they carry no `pub`.
        if toks[i].is_punct('#')
            && matches!(toks.get(i + 1), Some(t) if t.is_punct('['))
            && matches!(toks.get(i + 2), Some(t) if t.is_ident("macro_export"))
        {
            let mut j = i + 3;
            while j < toks.len() && !toks[j].is_ident("macro_rules") {
                j += 1;
            }
            if let Some(name) = toks.get(j + 2).filter(|t| t.kind == TokKind::Ident) {
                push("macro", name.text, name.line);
                i = j + 3;
                continue;
            }
        }

        if !toks[i].is_ident("pub") {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let mut j = i + 1;

        // `pub(crate)` / `pub(super)` / `pub(in …)` are not surface.
        if matches!(toks.get(j), Some(t) if t.is_punct('(')) {
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }

        // Skip modifiers between `pub` and the kind keyword. A bare
        // `pub const NAME` is a constant; `pub const fn NAME` is a fn.
        let mut kind: Option<&str> = None;
        while let Some(t) = toks.get(j) {
            match t.text {
                "unsafe" | "async" | "extern" => j += 1,
                _ if t.kind == TokKind::Str => j += 1, // extern "C"
                "const" => {
                    if matches!(toks.get(j + 1), Some(n) if n.is_ident("fn")) {
                        kind = Some("fn");
                        j += 2;
                    } else {
                        kind = Some("const");
                        j += 1;
                    }
                    break;
                }
                "fn" | "struct" | "enum" | "trait" | "type" | "mod" | "static" | "union"
                | "macro" => {
                    kind = Some(t.text);
                    j += 1;
                    break;
                }
                "use" => {
                    kind = Some("use");
                    j += 1;
                    break;
                }
                _ => break,
            }
        }
        let Some(kind) = kind else {
            i += 1;
            continue;
        };

        if kind == "use" {
            // Record the whole re-export path, tokens joined verbatim
            // up to the `;` — `use serde_derive::{Deserialize,Serialize}`.
            let mut path = String::new();
            while let Some(t) = toks.get(j) {
                if t.is_punct(';') {
                    break;
                }
                path.push_str(t.text);
                j += 1;
            }
            push("use", &path, line);
        } else if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
            push(kind, name.text, name.line);
        }
        i = j + 1;
    }
    out
}

/// Extract the full shim surface of the workspace at `root`, sorted.
/// Read failures become violations rather than aborting the rule.
pub fn surface(root: &Path, violations: &mut Vec<Violation>) -> Vec<SurfaceItem> {
    let viol = |file: String, check: &str, message: String| Violation {
        rule: "R6",
        check: check.to_string(),
        file,
        line: 0,
        message,
    };

    let shims_dir = root.join("shims");
    let mut names: Vec<String> = match std::fs::read_dir(&shims_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect(),
        Err(e) => {
            violations.push(viol(
                "shims".to_string(),
                "shims-dir",
                format!("cannot list shims/: {e}"),
            ));
            return Vec::new();
        }
    };
    names.sort();

    let mut items = Vec::new();
    for shim in &names {
        let rel = format!("shims/{shim}/src/lib.rs");
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => items.extend(surface_of(shim, &src)),
            Err(e) => violations.push(viol(
                rel.clone(),
                "shim-read",
                format!("cannot read {rel}: {e}"),
            )),
        }
    }
    items.sort();
    items
}

/// Render a surface as the manifest file format: a header comment,
/// then one `shim kind name` line per distinct item, sorted.
pub fn render_manifest(items: &[SurfaceItem]) -> String {
    let mut s = String::from(
        "# Audited public surface of the offline shims (vpm-lint rule R6).\n\
         # One line per item: <shim> <kind> <name>. Regenerate after an\n\
         # audited surface change with:\n\
         #   cargo test -p vpm-lint regenerate_manifest -- --ignored\n",
    );
    let keys: BTreeSet<_> = items.iter().map(SurfaceItem::key).collect();
    for (shim, kind, name) in keys {
        s.push_str(&format!("{shim} {kind} {name}\n"));
    }
    s
}

/// Run R6: diff the extracted shim surface against the audited
/// manifest, both directions.
pub fn r6(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    let items = surface(root, &mut violations);

    let manifest_src = match std::fs::read_to_string(root.join(MANIFEST_REL)) {
        Ok(s) => s,
        Err(e) => {
            violations.push(Violation {
                rule: "R6",
                check: "manifest-missing".to_string(),
                file: MANIFEST_REL.to_string(),
                line: 0,
                message: format!(
                    "cannot read {MANIFEST_REL}: {e}; regenerate with \
                     `cargo test -p vpm-lint regenerate_manifest -- --ignored`"
                ),
            });
            return violations;
        }
    };

    let mut audited: BTreeSet<(String, String, String)> = BTreeSet::new();
    for (idx, raw) in manifest_src.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(shim), Some(kind), Some(name)) if !name.is_empty() => {
                audited.insert((shim.to_string(), kind.to_string(), name.to_string()));
            }
            _ => violations.push(Violation {
                rule: "R6",
                check: "manifest-parse".to_string(),
                file: MANIFEST_REL.to_string(),
                line: line_no,
                message: format!("malformed manifest line (want `shim kind name`): {raw:?}"),
            }),
        }
    }

    let surface_keys: BTreeSet<_> = items.iter().map(SurfaceItem::key).collect();

    // Surface → manifest: every public item must be audited.
    let mut reported: BTreeSet<(String, String, String)> = BTreeSet::new();
    for it in &items {
        let key = it.key();
        if !audited.contains(&key) && reported.insert(key) {
            violations.push(Violation {
                rule: "R6",
                check: "unaudited-addition".to_string(),
                file: format!("shims/{}/src/lib.rs", it.shim),
                line: it.line,
                message: format!(
                    "public shim item `{} {}` is not in {MANIFEST_REL}; widening a shim \
                     is an audited change — verify it against the real crate's API, then \
                     regenerate the manifest",
                    it.kind, it.name
                ),
            });
        }
    }

    // Manifest → surface: no line may outlive its item.
    for (shim, kind, name) in audited.difference(&surface_keys) {
        violations.push(Violation {
            rule: "R6",
            check: "stale-entry".to_string(),
            file: MANIFEST_REL.to_string(),
            line: 0,
            message: format!(
                "manifest entry `{shim} {kind} {name}` matches no public item in \
                 shims/{shim}/src/lib.rs; regenerate the manifest"
            ),
        });
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn mini_tree(tag: &str, shims: &[(&str, &str)], manifest: Option<&str>) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vpm_lint_r6_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        for (name, src) in shims {
            fs::create_dir_all(dir.join(format!("shims/{name}/src"))).unwrap();
            fs::write(dir.join(format!("shims/{name}/src/lib.rs")), src).unwrap();
        }
        if let Some(m) = manifest {
            fs::write(dir.join(MANIFEST_REL), m).unwrap();
        }
        dir
    }

    /// The repo root, from this crate's manifest dir (crates/lint).
    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/lint sits two levels under the root")
            .to_path_buf()
    }

    const DEMO: &str = "pub fn visible() {}\n\
         pub(crate) fn hidden() {}\n\
         pub const LIMIT: usize = 4;\n\
         pub const fn both() -> u8 { 0 }\n\
         pub use std::hint::black_box;\n\
         #[macro_export]\nmacro_rules! shout { () => {} }\n\
         macro_rules! private_helper { () => {} }\n\
         pub mod inner { pub struct Deep; }\n";

    #[test]
    fn extraction_sees_pub_items_and_exported_macros_only() {
        let items = surface_of("demo", DEMO);
        let keys: Vec<(String, String)> = items
            .iter()
            .map(|i| (i.kind.clone(), i.name.clone()))
            .collect();
        assert!(keys.contains(&("fn".into(), "visible".into())));
        assert!(keys.contains(&("const".into(), "LIMIT".into())));
        assert!(keys.contains(&("fn".into(), "both".into())), "{keys:?}");
        assert!(keys.contains(&("use".into(), "std::hint::black_box".into())));
        assert!(keys.contains(&("macro".into(), "shout".into())));
        assert!(keys.contains(&("mod".into(), "inner".into())));
        assert!(keys.contains(&("struct".into(), "Deep".into())));
        assert!(!keys.iter().any(|(_, n)| n == "hidden"), "{keys:?}");
        assert!(!keys.iter().any(|(_, n)| n == "private_helper"));
    }

    #[test]
    fn a_matching_manifest_is_clean_both_directions() {
        let dir = mini_tree("clean", &[("demo", DEMO)], None);
        let mut v = Vec::new();
        let items = surface(&dir, &mut v);
        assert!(v.is_empty(), "{v:?}");
        fs::write(dir.join(MANIFEST_REL), render_manifest(&items)).unwrap();
        let viols = r6(&dir);
        assert!(viols.is_empty(), "{viols:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn widening_a_shim_is_an_unaudited_addition() {
        let dir = mini_tree("widen", &[("demo", DEMO)], None);
        let mut v = Vec::new();
        let items = surface(&dir, &mut v);
        fs::write(dir.join(MANIFEST_REL), render_manifest(&items)).unwrap();
        let src = format!("{DEMO}pub fn sneaky_new_helper() {{}}\n");
        fs::write(dir.join("shims/demo/src/lib.rs"), src).unwrap();
        let viols = r6(&dir);
        assert_eq!(viols.len(), 1, "{viols:?}");
        assert_eq!(viols[0].check, "unaudited-addition");
        assert!(viols[0].message.contains("sneaky_new_helper"));
        assert_eq!(viols[0].file, "shims/demo/src/lib.rs");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrinking_the_surface_leaves_a_stale_entry() {
        let dir = mini_tree("shrink", &[("demo", DEMO)], None);
        let mut v = Vec::new();
        let items = surface(&dir, &mut v);
        fs::write(dir.join(MANIFEST_REL), render_manifest(&items)).unwrap();
        fs::write(dir.join("shims/demo/src/lib.rs"), "pub fn visible() {}\n").unwrap();
        let viols = r6(&dir);
        assert!(!viols.is_empty());
        assert!(viols.iter().all(|v| v.check == "stale-entry"), "{viols:?}");
        assert!(viols.iter().any(|v| v.message.contains("LIMIT")));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_manifest_and_a_malformed_line_are_diagnostics() {
        let dir = mini_tree("missing", &[("demo", "pub fn f() {}\n")], None);
        let viols = r6(&dir);
        assert_eq!(viols.len(), 1, "{viols:?}");
        assert_eq!(viols[0].check, "manifest-missing");

        fs::write(dir.join(MANIFEST_REL), "demo fn f\njunkline\n").unwrap();
        let viols = r6(&dir);
        assert_eq!(viols.len(), 1, "{viols:?}");
        assert_eq!(viols[0].check, "manifest-parse");
        assert_eq!(viols[0].line, 2);
        fs::remove_dir_all(&dir).ok();
    }

    /// The committed manifest must match the committed shims exactly.
    #[test]
    fn the_real_manifest_is_in_sync() {
        let viols = r6(&repo_root());
        assert!(viols.is_empty(), "{viols:#?}");
    }

    /// Not a test: rewrites `shims/MANIFEST.txt` from the current
    /// surface. Run after an audited shim change:
    /// `cargo test -p vpm-lint regenerate_manifest -- --ignored`
    #[test]
    #[ignore = "writes shims/MANIFEST.txt; run explicitly to regenerate"]
    fn regenerate_manifest() {
        let root = repo_root();
        let mut v = Vec::new();
        let items = surface(&root, &mut v);
        assert!(v.is_empty(), "{v:?}");
        fs::write(root.join(MANIFEST_REL), render_manifest(&items)).unwrap();
    }
}
