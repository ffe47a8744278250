//! # upskill-bench
//!
//! Experiment binaries and criterion benchmarks that regenerate every
//! table and figure of the paper's evaluation (see DESIGN.md §4 for the
//! experiment index). This library holds the shared plumbing: scale
//! selection, text-table rendering, JSON report output, and the typed
//! report block of the `bench_*` binaries ([`report`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;
pub mod synthetic_eval;

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Experiment scale, selected via the `UPSKILL_SCALE` environment variable
/// (`quick`, `default`, or `paper`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for smoke-testing the harness (seconds).
    Quick,
    /// Scaled-down sizes preserving the paper's shape (minutes).
    Default,
    /// The paper's full sizes where feasible (hours).
    Paper,
}

impl Scale {
    /// Reads `UPSKILL_SCALE` (defaults to [`Scale::Default`]).
    pub fn from_env() -> Self {
        match std::env::var("UPSKILL_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("paper") => Scale::Paper,
            _ => Scale::Default,
        }
    }

    /// Division factor applied to the paper's synthetic sizes.
    pub fn synthetic_factor(self) -> usize {
        match self {
            Scale::Quick => 100,
            Scale::Default => 10,
            Scale::Paper => 1,
        }
    }
}

/// Directory where experiment reports are written: `reports/` under the
/// workspace root (falling back to the current directory), or
/// `target/quick-reports/` at [`Scale::Quick`], so smoke runs never
/// overwrite the committed default-scale reports.
pub fn report_dir() -> PathBuf {
    // The bench binaries are run via `cargo run` from the workspace, where
    // CARGO_MANIFEST_DIR points at crates/bench.
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    match Scale::from_env() {
        Scale::Quick => base.join("target").join("quick-reports"),
        Scale::Default | Scale::Paper => base.join("reports"),
    }
}

/// Serializes a report as pretty JSON as `<name>.json` in [`report_dir`];
/// a failure is printed as a warning.
pub fn write_report<T: Serialize>(name: &str, value: &T) {
    if let Err(e) = try_write_report(name, value) {
        eprintln!("warning: {e}");
    }
}

/// [`write_report`] that returns its failure.
fn try_write_report<T: Serialize>(name: &str, value: &T) -> Result<(), String> {
    let dir = report_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialize report {name}: {e}"))?;
    fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[report] {}", path.display());
    Ok(())
}

/// Minimal fixed-width text-table renderer for experiment output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let n_cols = self.header.len();
        let mut widths = vec![0usize; n_cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float to 3 decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float to 4 decimals for table cells.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Prints an experiment banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults() {
        // Cannot mutate env safely in parallel tests; just exercise the
        // mapping logic.
        assert_eq!(Scale::Quick.synthetic_factor(), 100);
        assert_eq!(Scale::Default.synthetic_factor(), 10);
        assert_eq!(Scale::Paper.synthetic_factor(), 1);
    }

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new(&["model", "score"]);
        t.row(vec!["uniform".into(), "0.1".into()]);
        t.row(vec!["id".into(), "0.25".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines[0].starts_with("model"));
        assert!(lines[2].starts_with("uniform"));
        // All data lines have the score column starting at the same offset.
        let col = lines[2].find("0.1").unwrap();
        assert_eq!(lines[3].find("0.25").unwrap(), col);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f4(0.12345), "0.1235");
    }
}
