//! `hta-lint` CLI: scan the workspace for determinism-contract
//! violations.
//!
//! ```text
//! hta-lint [--root DIR]
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use hta_lint::{scan_workspace, RULES};

fn usage() -> String {
    let mut s = String::from(
        "usage: hta-lint [--root DIR]\n\
         \n\
         Scan the HTA workspace's Rust sources (default root: the current\n\
         directory) for the determinism contracts clippy cannot express.\n\
         \n\
         rules:\n",
    );
    for r in RULES {
        s.push_str(&format!("  {:<32} {}\n", r.id, r.what));
    }
    s
}

fn parse_args() -> Result<PathBuf, String> {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().ok_or("--root needs a value")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args() {
        Ok(root) => root,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (findings, files) = match scan_workspace(&root) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("hta-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    eprintln!("hta-lint: {} finding(s) in {files} file(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
