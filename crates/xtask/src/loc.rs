//! Line counts for `cargo run -p xtask -- loc`: non-test, non-vendor
//! Rust lines per package, so every change can report its net.
//!
//! A package is a directory holding a `Cargo.toml` with a `[package]`
//! name; its lines are those of the `.rs` files under its `src/`. A
//! line counts when it is not blank and not part of a `#[cfg(test)]`
//! item (the attribute line through the item's closing brace or
//! semicolon). Integration tests, benches and examples sit outside
//! `src/`, so they never count; vendored crates are not walked.

use crate::lexer::{self, TokKind};
use std::path::{Path, PathBuf};

/// Directories the package walk never enters: vendored crates, build
/// output, VCS metadata, generated artifacts, and test fixtures.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "out", "fixtures"];

/// Non-blank lines of `src` outside `#[cfg(test)]` items.
pub fn count_source(src: &str) -> usize {
    let toks = lexer::lex(src).toks;
    let mut test_lines: Vec<(u32, u32)> = Vec::new();
    let is = |i: usize, kind: TokKind, text: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == kind && (text.is_empty() || t.text == text))
    };
    let mut i = 0;
    while i < toks.len() {
        let attr = is(i, TokKind::Punct('#'), "")
            && is(i + 1, TokKind::Punct('['), "")
            && is(i + 2, TokKind::Ident, "cfg")
            && is(i + 3, TokKind::Punct('('), "")
            && is(i + 4, TokKind::Ident, "test")
            && is(i + 5, TokKind::Punct(')'), "")
            && is(i + 6, TokKind::Punct(']'), "");
        if !attr {
            i += 1;
            continue;
        }
        // The gated item ends at its first top-level `;` or at the
        // brace closing its first block.
        let start = toks[i].line;
        let mut j = i + 7;
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let end = toks.get(j).map_or(u32::MAX, |t| t.line);
        test_lines.push((start, end));
        i = j + 1;
    }
    src.lines()
        .enumerate()
        .filter(|(k, line)| {
            let n = *k as u32 + 1;
            !line.trim().is_empty() && !test_lines.iter().any(|&(a, b)| (a..=b).contains(&n))
        })
        .count()
}

/// Every package under `root` with its non-test line count, sorted by
/// package name.
pub fn count_workspace(root: &Path) -> Vec<(String, usize)> {
    let mut manifests = Vec::new();
    find_manifests(root, &mut manifests);
    let mut out: Vec<(String, usize)> = manifests
        .iter()
        .filter_map(|dir| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
            let name = package_name(&manifest)?;
            let mut files = Vec::new();
            collect_rs(&dir.join("src"), &mut files);
            let lines = files
                .iter()
                .filter_map(|f| std::fs::read_to_string(f).ok())
                .map(|src| count_source(&src))
                .sum();
            Some((name, lines))
        })
        .collect();
    out.sort();
    out
}

/// The `name` of a manifest's `[package]` table, if it has one.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(value) = line.strip_prefix("name").map(str::trim_start) {
                if let Some(value) = value.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

fn find_manifests(dir: &Path, out: &mut Vec<PathBuf>) {
    if dir.join("Cargo.toml").is_file() {
        out.push(dir.to_path_buf());
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() && !SKIP_DIRS.contains(&name.to_string_lossy().as_ref()) {
            find_manifests(&path, out);
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_fixture_without_its_test_items() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/loc_sample.rs");
        let src = std::fs::read_to_string(path).expect("fixture readable");
        // 7 non-blank lines outside the two `#[cfg(test)]` items.
        assert_eq!(count_source(&src), 7);
    }

    #[test]
    fn reads_package_names() {
        let manifest = "[workspace]\nname = \"no\"\n\n[package]\nname = \"yes\"\nversion = \"1\"\n";
        assert_eq!(package_name(manifest).as_deref(), Some("yes"));
        assert_eq!(package_name("[workspace]\nmembers = []\n"), None);
    }

    #[test]
    fn the_workspace_counts_its_own_crates_but_no_vendored_one() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let counts = count_workspace(&root);
        let names: Vec<&str> = counts.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"lnoc-netsim"), "{names:?}");
        assert!(names.contains(&"xtask"), "{names:?}");
        assert!(
            !names.contains(&"rand"),
            "vendored crates are skipped: {names:?}"
        );
        assert!(counts.iter().all(|&(_, lines)| lines > 0), "{counts:?}");
    }
}
