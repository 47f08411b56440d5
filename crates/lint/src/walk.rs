//! `.rs` file discovery under the source directories a rule scans.

use std::path::{Path, PathBuf};
use std::{fs, io};

/// One discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Absolute path on disk.
    pub abs: PathBuf,
}

/// Collect every `.rs` file under `root`'s `dirs` (workspace-relative;
/// a missing directory contributes nothing), sorted by path. The lint
/// gate treats an error as a failed run — a tree it cannot enumerate
/// is not a verified tree.
pub fn collect(root: &Path, dirs: &[&str]) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for dir in dirs {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk_dir(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let entries = fs::read_dir(dir).map_err(|e| in_path(dir, e))?;
    for entry in entries {
        let path = entry.map_err(|e| in_path(dir, e))?.path();
        if path.is_dir() {
            walk_dir(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile { rel, abs: path });
        }
    }
    Ok(())
}

/// `e`, naming the path it happened at.
pub fn in_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_rs_files_under_the_given_dirs_only() {
        let dir = std::env::temp_dir().join(format!("vpm_lint_walk_{}", std::process::id()));
        fs::create_dir_all(dir.join("a/src/m")).unwrap();
        fs::create_dir_all(dir.join("b/src")).unwrap();
        for f in [
            "a/src/lib.rs",
            "a/src/m/x.rs",
            "a/src/notes.md",
            "b/src/lib.rs",
        ] {
            fs::write(dir.join(f), "").unwrap();
        }
        let rels: Vec<String> = collect(&dir, &["a/src", "missing"])
            .unwrap()
            .into_iter()
            .map(|f| f.rel)
            .collect();
        assert_eq!(rels, ["a/src/lib.rs", "a/src/m/x.rs"]);
        fs::remove_dir_all(&dir).ok();
    }
}
