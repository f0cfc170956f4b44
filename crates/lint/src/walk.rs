//! Workspace discovery: finds the library `.rs` files to scan.

use crate::passes::{FileClass, SourceFile};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into (fixture corpora contain
/// deliberately-violating sources).
const SKIP_DIRS: &[&str] = &["fixtures", "target", ".git"];

/// Collects every library source file under `root`: `crates/*/src`
/// (bar `crates/bench`, the harness that prints reports and drives
/// scenarios) and the top-level `src/`.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal or file reads.
pub fn discover_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "bench"))
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect(root, &dir.join("src"), &mut files)?;
        }
    }
    collect(root, &root.join("src"), &mut files)?;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Collects the `.rs` files under an explicitly named file or
/// directory.
///
/// # Errors
///
/// Propagates I/O errors; a nonexistent path is an error here (explicit
/// arguments should not silently scan nothing).
pub fn discover_path(root: &Path, arg: &Path) -> io::Result<Vec<SourceFile>> {
    let full = if arg.is_absolute() {
        arg.to_path_buf()
    } else {
        root.join(arg)
    };
    if !full.exists() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no such file or directory: {}", full.display()),
        ));
    }
    let mut files = Vec::new();
    if full.is_file() {
        push_file(root, &full, &mut files)?;
    } else {
        collect(root, &full, &mut files)?;
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Recursively gathers `.rs` files under `dir` (silently skips a
/// missing dir — not every crate has every layout directory).
fn collect(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            push_file(root, &path, out)?;
        }
    }
    Ok(())
}

fn push_file(root: &Path, path: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let text = fs::read_to_string(path)?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned();
    out.push(SourceFile {
        path: rel,
        class: FileClass::Lib,
        text,
    });
    Ok(())
}
