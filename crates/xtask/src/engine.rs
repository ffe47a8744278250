//! Walks the workspace and runs every rule on every first-party source
//! file.
//!
//! Only `crates/*/src/**/*.rs` is linted: that is where all first-party
//! library and binary code lives. Integration tests, benches, examples
//! and `benchmark/src` are read only as the outside uses that the
//! cross-file `unused-pub` rule looks for; the vendored dependency stubs
//! are out of scope.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules;
use crate::source::SourceFile;
use crate::{concurrency, Diagnostic};

/// Result of a lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
}

/// Result of a focused concurrency pass.
#[derive(Debug)]
pub struct ConcurrencyReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Lock-discipline findings only, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Union of every file's lexical lock-order graph: `(held, acquired)`
    /// edges, including `lint:allow`-audited ones.
    pub graph: BTreeSet<(&'static str, &'static str)>,
}

/// Lints every `crates/*/src/**/*.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let linted = parse_tree(root, &crate_dirs(root, "src")?)?;
    let mut outside_dirs = crate_dirs(root, "tests")?;
    outside_dirs.extend(crate_dirs(root, "benches")?);
    outside_dirs.extend(["tests", "examples", "benchmark/src"].map(|d| root.join(d)));
    let outside = parse_tree(root, &outside_dirs)?;
    let mut diagnostics = Vec::new();
    for file in &linted {
        diagnostics.extend(rules::run_all(file));
    }
    // `unused-pub` is cross-file: an item's uses are every identifier
    // token outside its own crate's `src/`.
    for home in rules::SURFACE_SRC {
        let outside_home = |f: &&SourceFile| !rules::normalize(&f.path).starts_with(home);
        let tokens: HashSet<&str> = linted
            .iter()
            .chain(&outside)
            .filter(outside_home)
            .flat_map(|f| rules::ident_tokens(&f.masked))
            .collect();
        for file in linted.iter().filter(|f| !outside_home(f)) {
            rules::unused_pub(file, &tokens, &mut diagnostics);
        }
    }
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(LintReport {
        files_scanned: linted.len(),
        diagnostics,
    })
}

/// Runs only the lock-discipline rules over the same file set as
/// [`lint_workspace`], and aggregates the lock-order graph.
pub fn concurrency_workspace(root: &Path) -> io::Result<ConcurrencyReport> {
    let files = parse_tree(root, &crate_dirs(root, "src")?)?;
    let mut diagnostics = Vec::new();
    let mut graph = BTreeSet::new();
    for file in &files {
        concurrency::run_rules(file, &mut diagnostics);
        graph.extend(concurrency::lock_order_graph(file));
    }
    diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    diagnostics.dedup();
    Ok(ConcurrencyReport {
        files_scanned: files.len(),
        diagnostics,
        graph,
    })
}

/// `<root>/crates/*/<sub>`, one path per crate directory.
fn crate_dirs(root: &Path, sub: &str) -> io::Result<Vec<PathBuf>> {
    fs::read_dir(root.join("crates"))?
        .map(|entry| Ok(entry?.path().join(sub)))
        .collect()
}

/// Every `.rs` file under `dirs` (a missing directory has none), parsed
/// with its `root`-relative path, in path order.
fn parse_tree(root: &Path, dirs: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for dir in dirs {
        collect_rs_files(dir, &mut paths)?;
    }
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path)?;
            Ok(SourceFile::from_source(
                path.strip_prefix(root).unwrap_or(path),
                &text,
            ))
        })
        .collect()
}

/// Appends every `.rs` file under `dir` (none if `dir` does not exist).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_root(which: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(which)
    }

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .canonicalize()
            .expect("workspace root exists")
    }

    #[test]
    fn seeded_fixture_trips_every_rule() {
        let report = lint_workspace(&fixture_root("bad")).unwrap();
        assert_eq!(report.diagnostics.len(), 18, "{:#?}", report.diagnostics);
        let fired: std::collections::BTreeSet<&str> =
            report.diagnostics.iter().map(|d| d.rule).collect();
        for rule in rules::RULE_IDS {
            assert!(
                fired.contains(rule),
                "rule {rule} did not fire on the fixture; fired: {fired:?}"
            );
        }
        // Diagnostics are machine-readable `path:line: [rule] …`.
        let rendered = report.diagnostics[0].to_string();
        let mut parts = rendered.splitn(3, ':');
        assert!(parts.next().unwrap().ends_with(".rs"));
        assert!(parts.next().unwrap().parse::<usize>().is_ok());
        assert!(parts.next().unwrap().trim_start().starts_with('['));
    }

    #[test]
    fn clean_fixture_is_quiet() {
        let report = lint_workspace(&fixture_root("clean")).unwrap();
        assert!(
            report.diagnostics.is_empty(),
            "clean fixture flagged: {:#?}",
            report.diagnostics
        );
        assert!(report.files_scanned > 0);
    }

    #[test]
    fn real_workspace_concurrency_is_clean_and_graph_is_ordered() {
        let report = concurrency_workspace(&workspace_root()).unwrap();
        assert!(
            report.diagnostics.is_empty(),
            "lock-discipline violations:\n{}",
            report
                .diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // The audited snapshot path is the one shard→global edge; the
        // reverse order must never appear anywhere in the workspace.
        assert!(
            report.graph.contains(&("shard", "global")),
            "{:?}",
            report.graph
        );
        assert!(
            !report.graph.contains(&("global", "shard")),
            "{:?}",
            report.graph
        );
        assert!(report.files_scanned > 30);
    }

    #[test]
    fn real_workspace_is_lint_clean() {
        let report = lint_workspace(&workspace_root()).unwrap();
        assert!(
            report.diagnostics.is_empty(),
            "workspace has lint violations:\n{}",
            report
                .diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.files_scanned > 30);
    }
}
