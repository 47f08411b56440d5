//! `vpm-lint` — R3, the lock-discipline check, and the shim content pin,
//! run as tier-1 tests.
//!
//! No `Mutex`/`RwLock` guard may be live across a notify, a blocking
//! wait, or stream I/O in the same scope (the busy-wait-removal PR's
//! hazard class). Clippy has no equivalent, so this crate keeps a
//! minimal Rust lexer ([`lexer`]) and the token-sequence rule
//! ([`rules`]); the test below runs the rule over every product source
//! file in [`rules::SCOPE`] on each `cargo test`. Nothing in the
//! product depends on this crate. A violation has no suppression: it is
//! fixed.
//!
//! Dependency-free by design: the lexer is a tokenizer, not a parser,
//! which is exactly enough for a token-sequence rule and keeps the
//! check inside the repo's offline shim policy.
//!
//! [`shimcheck`] (test builds only) pins every file under `shims/` to
//! its line in `shims/MANIFEST.txt`, hashed with the in-tree SHA-256
//! (`vpm-hash`, this crate's one dev-dependency).

pub mod lexer;
pub mod rules;
#[cfg(test)]
mod shimcheck;

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn r3(src: &str) -> Vec<rules::Violation> {
        rules::r3("crates/wire/src/lib.rs", &lexer::lex(src))
    }

    fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
        let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.unwrap().path();
            if path.is_dir() {
                rs_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// The gate: R3 holds over every product source file. A scope with
    /// no `.rs` file under it is a stale scope list, not a clean tree.
    #[test]
    fn r3_holds_over_the_product_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut violations = Vec::new();
        for scope in rules::SCOPE {
            let mut files = Vec::new();
            rs_files(&root.join(scope), &mut files);
            assert!(!files.is_empty(), "{scope}: no .rs files to check");
            for file in files {
                let src = fs::read_to_string(&file).unwrap();
                let rel = file.strip_prefix(&root).unwrap().to_string_lossy();
                violations.extend(rules::r3(&rel, &lexer::lex(&src)));
            }
        }
        let report: Vec<String> = violations
            .iter()
            .map(|v| format!("{}:{}: {} [R3/{}]", v.file, v.line, v.message, v.check))
            .collect();
        assert!(report.is_empty(), "\n{}", report.join("\n"));
    }

    #[test]
    fn violations_report_with_file_and_line() {
        let src = "fn ok(&self) { let g = self.m.lock(); drop(g); self.n.notify_all(); }\n\
                   fn bad(&self) {\n\
                   \tlet g = self.m.lock();\n\
                   \tself.n.notify_all();\n\
                   }\n";
        let at: Vec<(String, u32)> = r3(src).into_iter().map(|v| (v.file, v.line)).collect();
        assert_eq!(at, [("crates/wire/src/lib.rs".to_string(), 4)]);
    }

    #[test]
    fn test_scope_is_exempt_from_r3() {
        let src = "#[cfg(test)]\nmod tests {\n\tfn t(&self) { let g = self.m.lock(); self.n.notify_all(); }\n}\n";
        assert!(r3(src).is_empty());
    }
}
