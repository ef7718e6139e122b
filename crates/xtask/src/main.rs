//! `cargo run -p xtask -- lint [root]` — run the determinism and
//! soundness lint over the workspace. Exits nonzero on any finding,
//! so CI can gate on it.
//!
//! `cargo run -p xtask -- audit-waivers [root]` — print every
//! `lint:allow` waiver in the workspace with its rules and reason.
//! The lint already rejects waivers without a reason; the audit makes
//! the surviving inventory visible in CI logs so reviewers see each
//! escape hatch a change introduces, not just that it was justified.
//!
//! `cargo run -p xtask -- loc [root]` — print the non-test, non-vendor
//! Rust lines of every package (see [`xtask::loc`]) and their total.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = args
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(workspace_root);
            let (files, findings) = xtask::lint_workspace(&root);
            for (rel, f) in &findings {
                println!("{rel}:{}: [{}] {}", f.line, f.rule, f.message);
            }
            if findings.is_empty() {
                println!("xtask lint: {files} files clean");
                ExitCode::SUCCESS
            } else {
                println!("xtask lint: {} finding(s) in {files} files", findings.len());
                ExitCode::FAILURE
            }
        }
        Some("audit-waivers") => {
            let root = args
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(workspace_root);
            let (files, records) = xtask::audit_waivers(&root);
            for (rel, w) in &records {
                let reason = w.reason.as_deref().unwrap_or("<MISSING REASON>");
                println!(
                    "{rel}:{}: lint:allow({}) -- {reason}",
                    w.line,
                    w.rules.join(", ")
                );
            }
            println!(
                "xtask audit-waivers: {} waiver(s) across {files} files",
                records.len()
            );
            ExitCode::SUCCESS
        }
        Some("loc") => {
            let root = args
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(workspace_root);
            let counts = xtask::loc::count_workspace(&root);
            for (name, lines) in &counts {
                println!("{name:<16} {lines:>7}");
            }
            let total: usize = counts.iter().map(|(_, lines)| lines).sum();
            println!("{:<16} {total:>7}", "total");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint | audit-waivers | loc> [workspace-root]");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}
