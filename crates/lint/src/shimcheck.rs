//! The shim content pin, run as a tier-1 test.
//!
//! The offline shims under `shims/` stand in for crates.io crates, so
//! every byte of them is a compatibility claim. `shims/MANIFEST.txt`
//! pins them as a `sha256sum` listing: any edit to a shim, a comment or
//! its `Cargo.toml` included, needs a reviewed manifest change (the
//! README's "Static analysis" has the regeneration command). Files are
//! hashed with the in-tree `vpm_hash::sha256`, a dev-dependency, so this
//! module is built for tests only.

use std::collections::BTreeMap;
use std::path::Path;
use vpm_hash::sha256::sha256;

const MANIFEST: &str = "shims/MANIFEST.txt";

type Files = Vec<(String, Vec<u8>)>;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Where the `sha256sum`-format `manifest` and `files` (path from the
/// repository root, contents) disagree; empty when they agree. Every
/// message names the path, and the file's digest when it exists.
fn shim_drift(manifest: &str, files: &[(String, Vec<u8>)]) -> Vec<String> {
    let mut errs = Vec::new();
    let mut listed = BTreeMap::new();
    for (n, line) in manifest.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once("  ") {
            Some((digest, path))
                if digest.len() == 64
                    && digest
                        .bytes()
                        .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) =>
            {
                if listed.insert(path, digest).is_some() {
                    errs.push(format!("{path}: listed twice in {MANIFEST}"));
                }
            }
            _ => errs.push(format!(
                "{MANIFEST}:{}: not `<sha256>  <path>`: {line}",
                n + 1
            )),
        }
    }
    for (path, bytes) in files {
        let digest = hex(&sha256(bytes));
        match listed.remove(path.as_str()) {
            None => errs.push(format!("{path}: sha256 {digest}, not in {MANIFEST}")),
            Some(want) if want != digest => {
                errs.push(format!("{path}: sha256 {digest}, {MANIFEST} has {want}"));
            }
            Some(_) => {}
        }
    }
    for (path, want) in listed {
        errs.push(format!("{path}: in {MANIFEST} ({want}) but not on disk"));
    }
    errs
}

/// Every file under `dir` but the manifest, as (path from `root`, contents).
fn collect(root: &Path, dir: &Path, out: &mut Files) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        if path.is_dir() {
            collect(root, &path, out);
        } else if rel != MANIFEST {
            out.push((rel, std::fs::read(&path).unwrap()));
        }
    }
}

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn shim_files() -> Files {
    let root = repo_root();
    let mut files = Vec::new();
    collect(root, &root.join("shims"), &mut files);
    files.sort();
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A listing of the files as they are, so the seeded drifts below
    /// fail only on the drift they seed, and a real drift fails only
    /// `the_real_manifest_is_in_sync`.
    fn listing(files: &[(String, Vec<u8>)]) -> String {
        files
            .iter()
            .map(|(path, bytes)| format!("{}  {path}\n", hex(&sha256(bytes))))
            .collect()
    }

    fn original(files: &[(String, Vec<u8>)], path: &str) -> Vec<u8> {
        files.iter().find(|f| f.0 == path).unwrap().1.clone()
    }

    /// `files` with `path`'s contents replaced by (or added as) `bytes`.
    fn with(files: &[(String, Vec<u8>)], path: &str, bytes: Vec<u8>) -> Files {
        let mut out: Files = files.iter().filter(|f| f.0 != path).cloned().collect();
        out.push((path.to_string(), bytes));
        out
    }

    fn expect_one(case: &str, errs: Vec<String>, needles: &[&str]) {
        assert_eq!(errs.len(), 1, "{case}: {errs:?}");
        for needle in needles {
            assert!(errs[0].contains(needle), "{case}: {needle} not in {errs:?}");
        }
    }

    const LIB: &str = "shims/rand/src/lib.rs";
    const TOML: &str = "shims/rand/Cargo.toml";

    /// The gate: every file under `shims/` hashes to its manifest line.
    #[test]
    fn the_real_manifest_is_in_sync() {
        let files = shim_files();
        assert!(files.len() >= 10, "{} shim files", files.len());
        let manifest = std::fs::read_to_string(repo_root().join(MANIFEST))
            .unwrap_or_else(|e| panic!("{MANIFEST}: {e}"));
        assert_eq!(shim_drift(&manifest, &files), Vec::<String>::new());
    }

    /// Every file has a line and every line a file, whatever the order
    /// of the lines and with comments between them.
    #[test]
    fn a_matching_manifest_is_clean_both_directions() {
        let files = shim_files();
        let manifest = listing(&files);
        assert_eq!(manifest.lines().count(), files.len());
        assert_eq!(shim_drift(&manifest, &files), Vec::<String>::new());
        let reversed: String = manifest
            .lines()
            .rev()
            .map(|l| format!("# reviewed\n{l}\n"))
            .collect();
        assert_eq!(shim_drift(&reversed, &files), Vec::<String>::new());
    }

    /// A wider shim, a new file and a surface-neutral edit all fail, and
    /// the message names the file and its new digest.
    #[test]
    fn widening_a_shim_is_an_unaudited_addition() {
        let files = shim_files();
        let manifest = listing(&files);
        let appended = |path: &str, tail: &[u8]| [original(&files, path), tail.to_vec()].concat();
        let mut flipped = original(&files, LIB);
        flipped[0] ^= 1;
        let extra = "shims/rand/src/extra.rs";
        let edits = [
            ("new pub fn", LIB, appended(LIB, b"pub fn f() {}\n")),
            ("added file", extra, b"pub fn f() {}\n".to_vec()),
            ("comment-only edit", LIB, appended(LIB, b"// no API\n")),
            ("Cargo.toml edit", TOML, appended(TOML, b"[features]\n")),
            ("one-byte edit", LIB, flipped),
        ];
        for (case, path, bytes) in edits {
            let digest = hex(&sha256(&bytes));
            let seeded = with(&files, path, bytes);
            expect_one(case, shim_drift(&manifest, &seeded), &[path, &digest]);
        }
    }

    /// A deleted or cut-down file, or a line naming a file that never
    /// existed, fails and names the path.
    #[test]
    fn shrinking_the_surface_leaves_a_stale_entry() {
        let files = shim_files();
        let manifest = listing(&files);
        let deleted: Files = files.iter().filter(|f| f.0 != LIB).cloned().collect();
        let errs = shim_drift(&manifest, &deleted);
        expect_one("deleted file", errs, &[LIB, "not on disk"]);

        let mut cut = original(&files, LIB);
        cut.truncate(cut.len() / 2);
        let digest = hex(&sha256(&cut));
        let errs = shim_drift(&manifest, &with(&files, LIB, cut));
        expect_one("truncated file", errs, &[LIB, &digest]);

        let gone = "shims/rand/src/gone.rs";
        let stale = format!("{manifest}{}  {gone}\n", "0".repeat(64));
        let errs = shim_drift(&stale, &files);
        expect_one("line naming a missing file", errs, &[gone, "not on disk"]);
    }

    /// An empty manifest (what a missing one pins) reports every file;
    /// a line that is not `<sha256>  <path>`, or a path listed twice, is
    /// reported with what is wrong with it.
    #[test]
    fn a_missing_manifest_and_a_malformed_line_are_diagnostics() {
        let files = shim_files();
        let errs = shim_drift("", &files);
        assert_eq!(errs.len(), files.len(), "{errs:?}");
        for ((path, _), err) in files.iter().zip(&errs) {
            assert!(err.starts_with(path.as_str()), "{path}: {err}");
            assert!(err.contains("not in"), "{err}");
        }

        let manifest = listing(&files);
        let errs = shim_drift(&format!("{manifest}junk line\n"), &files);
        expect_one("malformed line", errs, &["junk line"]);
        let short = format!("{manifest}{}  {LIB}\n", "0".repeat(63));
        let errs = shim_drift(&short, &files);
        expect_one("short digest", errs, &["not `<sha256>"]);
        let upper = format!("{manifest}{}  {LIB}\n", "A".repeat(64));
        let errs = shim_drift(&upper, &files);
        expect_one("upper-case digest", errs, &["not `<sha256>"]);
        let first = manifest.lines().next().unwrap();
        let twice = format!("{manifest}{first}\n");
        let errs = shim_drift(&twice, &files);
        expect_one("listed twice", errs, &[&files[0].0, "listed twice"]);
    }
}
