//! `hlf-lint` command-line driver.
//!
//! ```text
//! hlf-lint --workspace                 # scan the workspace's library sources
//! hlf-lint crates/smr/src              # scan one path
//! hlf-lint --root /repo --workspace    # run from elsewhere
//! ```
//!
//! Exit status: 0 when there are no findings, 1 when findings remain,
//! 2 on usage or I/O errors.

// The library's panic, `unsafe` and stdout discipline (DESIGN.md §7);
// an exception is an `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::undocumented_unsafe_blocks,
    clippy::print_stdout,
    clippy::allow_attributes_without_reason
)]

use hlf_lint::walk::{discover_path, discover_workspace};
use hlf_lint::{analyze, SourceFile};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    workspace: bool,
    paths: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: hlf-lint [--root DIR] (--workspace | PATH...)\n\
     \n\
     Runs the invariant passes no toolchain lint covers (lock-order,\n\
     blocking, thread, consttime, codec, metric-name) over the\n\
     workspace's library crates. Panic, unsafe and stdout discipline are\n\
     clippy's: `make lint` runs both."
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        workspace: false,
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.workspace && opts.paths.is_empty() {
        return Err("pass --workspace or at least one path".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("hlf-lint: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut files: Vec<SourceFile> = Vec::new();
    let collected: Result<(), std::io::Error> = (|| {
        if opts.workspace {
            files.extend(discover_workspace(&opts.root)?);
        }
        for p in &opts.paths {
            files.extend(discover_path(&opts.root, p)?);
        }
        Ok(())
    })();
    if let Err(e) = collected {
        eprintln!("hlf-lint: {e}");
        return ExitCode::from(2);
    }

    let report = analyze(&files);
    for f in &report.findings {
        eprintln!("{}", f.render());
    }
    let counts = report.counts();
    let summary: Vec<String> = counts.iter().map(|(p, n)| format!("{p}: {n}")).collect();
    eprintln!(
        "hlf-lint: {} file(s), {} finding(s){}{}, {} suppression(s) honored",
        report.files_scanned,
        report.findings.len(),
        if summary.is_empty() { "" } else { " — " },
        summary.join(", "),
        report.suppressions_used,
    );

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
