//! `vpm-lint` — the workspace's in-tree invariant analyzer.
//!
//! Two rule families guard invariants neither the type system nor
//! clippy can:
//!
//! * **R3 — lock discipline.** No `Mutex`/`RwLock` guard live across a
//!   notify, blocking wait, or stream I/O in the same scope (the
//!   busy-wait-removal PR's hazard class).
//! * **R6 — shim-surface drift.** The public API of every offline shim
//!   under `shims/` must match the audited manifest
//!   (`shims/MANIFEST.txt`) exactly, both directions — widening a shim
//!   is a reviewed change, not a drive-by edit.
//!
//! The other invariants live where the compiler checks them:
//! panic-freedom and determinism are clippy lints enabled in the crate
//! roots (with the root `clippy.toml` listing the disallowed clock and
//! hash-iteration methods), and the wire constants and the audited
//! error enums are pinned by tier-1 tests (`tests/wire.rs`,
//! `tests/error_variants.rs`). Neither rule here has a suppression
//! mechanism: a violation is fixed, not excused.
//!
//! Dependency-free by design: the lexer in [`lexer`] is a minimal Rust
//! tokenizer, not a parser, which is exactly enough for token-sequence
//! rules and keeps the analyzer inside the repo's offline shim policy.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod shimcheck;
pub mod walk;

pub use report::{Report, Violation};

use std::path::Path;

/// Run both rules over the workspace rooted at `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let files = walk::collect(root, &rules::SCOPE)?;
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for f in &files {
        let src = std::fs::read_to_string(&f.abs).map_err(|e| walk::in_path(&f.abs, e))?;
        report
            .violations
            .extend(rules::r3(&f.rel, &lexer::lex(&src)));
    }
    report.violations.extend(shimcheck::r6(root));
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn mini_tree(tag: &str, lib_src: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vpm_lint_lib_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(dir.join("crates/wire/src")).unwrap();
        fs::write(dir.join("crates/wire/src/lib.rs"), lib_src).unwrap();
        dir
    }

    fn r3_lines(r: &Report) -> Vec<u32> {
        r.violations
            .iter()
            .filter(|v| v.rule == "R3")
            .map(|v| v.line)
            .collect()
    }

    #[test]
    fn violations_report_with_file_and_line() {
        let dir = mini_tree(
            "line",
            "fn ok(&self) { let g = self.m.lock(); drop(g); self.n.notify_all(); }\n\
             fn bad(&self) {\n\
             \tlet g = self.m.lock();\n\
             \tself.n.notify_all();\n\
             }\n",
        );
        let r = run(&dir).unwrap();
        assert_eq!(r3_lines(&r), vec![4], "{:?}", r.violations);
        assert_eq!(r.violations[0].file, "crates/wire/src/lib.rs");
        assert!(!r.ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn test_scope_is_exempt_from_r3() {
        let dir = mini_tree(
            "testscope",
            "#[cfg(test)]\nmod tests {\n\tfn t(&self) { let g = self.m.lock(); self.n.notify_all(); }\n}\n",
        );
        let r = run(&dir).unwrap();
        assert!(r3_lines(&r).is_empty(), "{:?}", r.violations);
        fs::remove_dir_all(&dir).ok();
    }
}
