//! `cargo run -p xtask -- <task>` entry point.
//!
//! Tasks:
//! - `lint [--root <dir>]` — run the workspace lint rules. Exits 0 when
//!   clean, 1 with one `path:line: [rule] message` diagnostic per line
//!   when violations are found, 2 on usage or I/O errors. A per-rule
//!   violation count summary is printed either way.
//! - `concurrency [--root <dir>]` — run only the lock-discipline rules
//!   (`lock-order`, `lock-across-publish`, `raw-lock`, `guard-escape`)
//!   and print the derived lock-order graph. Same exit codes as `lint`.
//! - `bench-floors [--reports <dir>]` — read the `floors` array of every
//!   `reports/BENCH_*.json` and fail when any entry's `value` misses its
//!   `bound` (below a `Floor`, above a `Ceiling`, or null/non-finite).
//!   Zero reports is a failure — a gate that never measures anything must
//!   not pass. Same exit-code convention as `lint`; a report without a
//!   `floors` array exits 2.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::engine::{concurrency_workspace, lint_workspace};
use xtask::floors::check_floors;
use xtask::Diagnostic;

const USAGE: &str = "usage: cargo run -p xtask -- lint [--root <dir>] | concurrency [--root <dir>] | bench-floors [--reports <dir>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("concurrency") => concurrency(&args[1..]),
        Some("bench-floors") => bench_floors(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown task {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("no task given\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parses the one optional `--root <dir>` / `--reports <dir>` argument.
fn parse_dir(args: &[String], flag: &str, default: PathBuf) -> Option<PathBuf> {
    match args {
        [] => Some(default),
        [f, dir] if f == flag => Some(PathBuf::from(dir)),
        _ => None,
    }
}

/// `rule-id: N` counts for every rule that fired, most frequent first.
fn rule_summary(diagnostics: &[Diagnostic]) -> String {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for d in diagnostics {
        match counts.iter_mut().find(|(r, _)| *r == d.rule) {
            Some((_, n)) => *n += 1,
            None => counts.push((d.rule, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    counts
        .iter()
        .map(|(r, n)| format!("{r}: {n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn lint(args: &[String]) -> ExitCode {
    let Some(root) = parse_dir(args, "--root", default_root()) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match lint_workspace(&root) {
        Ok(report) if report.diagnostics.is_empty() => {
            println!("lint: clean ({} files)", report.files_scanned);
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for d in &report.diagnostics {
                println!("{d}");
            }
            eprintln!(
                "lint: {} violation(s) in {} files scanned ({})",
                report.diagnostics.len(),
                report.files_scanned,
                rule_summary(&report.diagnostics)
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lint: cannot scan {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn concurrency(args: &[String]) -> ExitCode {
    let Some(root) = parse_dir(args, "--root", default_root()) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match concurrency_workspace(&root) {
        Ok(report) => {
            println!("lock-order graph (held -> acquired):");
            if report.graph.is_empty() {
                println!("  (no nested acquisitions)");
            }
            for (held, acquired) in &report.graph {
                println!("  {held} -> {acquired}");
            }
            if report.diagnostics.is_empty() {
                println!("concurrency: clean ({} files)", report.files_scanned);
                ExitCode::SUCCESS
            } else {
                for d in &report.diagnostics {
                    println!("{d}");
                }
                eprintln!(
                    "concurrency: {} violation(s) in {} files scanned ({})",
                    report.diagnostics.len(),
                    report.files_scanned,
                    rule_summary(&report.diagnostics)
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("concurrency: cannot scan {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn bench_floors(args: &[String]) -> ExitCode {
    let Some(dir) = parse_dir(args, "--reports", default_root().join("reports")) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match check_floors(&dir) {
        Ok(report) => {
            if report.is_vacuous() {
                eprintln!(
                    "bench-floors: no BENCH_*.json reports under {}; refusing to pass vacuously",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
            for check in &report.checks {
                println!("{check}");
            }
            let violations = report.violations();
            if violations.is_empty() {
                println!(
                    "bench-floors: {} check(s) met in {} report(s)",
                    report.checks.len(),
                    report.files_scanned
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "bench-floors: {} of {} check(s) outside the acceptance bound",
                    violations.len(),
                    report.checks.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench-floors: cannot scan {}: {e}", dir.display());
            ExitCode::from(2)
        }
    }
}

/// The workspace root: xtask lives at `<root>/crates/xtask`.
fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}
