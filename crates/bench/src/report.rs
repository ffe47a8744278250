//! The one report block every `bench_*` binary writes, the one rule that
//! turns it into an exit code, and the plumbing the benches share.
//!
//! A bench report is the bench's own JSON body (workload sizes, sweeps,
//! per-domain arms) followed by three typed arrays:
//!
//! - `end_to_end`: what the run measured, each a named value with a unit;
//! - `floors`: the acceptance bounds, each a measured `value` that must be
//!   at least (`"kind": "Floor"`) or at most (`"kind": "Ceiling"`) its
//!   `bound`;
//! - `checks`: the bench's cross-checks against its reference path, each
//!   a named boolean.
//!
//! [`Report::finish`] writes the JSON first and then exits non-zero if
//! any check is false or any bound is missed, so a failing run still
//! leaves its evidence behind. A value or bound that is not finite (a NaN
//! speedup is written as `null`) misses its bound. `xtask bench-floors`
//! re-reads `floors` from the committed reports under the same rule, and
//! `make_summary` renders all three arrays.
//!
//! Bounds bind only at the acceptance scales: at [`Scale::Quick`],
//! [`Report::floor`] and [`Report::ceiling`] record nothing, because
//! smoke-run timings are too noisy to gate on. Checks bind at every scale.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use upskill_core::float_cmp::is_integral;
use upskill_datasets::synthetic::SyntheticConfig;

use crate::{try_write_report, Scale};

/// One measured end-to-end quantity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, unique within its report.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value` (e.g. `s`, `x`, `ops/s`).
    pub unit: String,
}

/// Direction of an acceptance bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoundKind {
    /// The value must be at least the bound.
    Floor,
    /// The value must not exceed the bound.
    Ceiling,
}

/// One acceptance bound with the value it gates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bound {
    /// Bound name, `<bench>.<quantity>`, unique across all reports.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// The bound the value must meet.
    pub bound: f64,
    /// Whether the bound is a floor or a ceiling.
    pub kind: BoundKind,
}

impl Bound {
    /// Whether the value meets the bound; a non-finite value or bound
    /// never does.
    pub fn met(&self) -> bool {
        self.value.is_finite()
            && self.bound.is_finite()
            && match self.kind {
                BoundKind::Floor => self.value >= self.bound,
                BoundKind::Ceiling => self.value <= self.bound,
            }
    }
}

/// One cross-check against a reference path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// Check name, unique within its report.
    pub name: String,
    /// Whether the check held.
    pub passed: bool,
}

/// The typed block of a bench report. Deserializing a report into it
/// ignores the bench's own body and fails if any of the three arrays is
/// missing or malformed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Measured end-to-end quantities.
    pub end_to_end: Vec<Metric>,
    /// Acceptance bounds (empty at quick scale).
    pub floors: Vec<Bound>,
    /// Cross-checks against reference paths.
    pub checks: Vec<Check>,
}

impl Block {
    /// One line per missed bound or failed check; empty when the run
    /// passes.
    pub fn failures(&self) -> Vec<String> {
        let bounds = self.floors.iter().filter(|f| !f.met()).map(|f| {
            format!(
                "{} = {} misses its {:?} {}",
                f.name, f.value, f.kind, f.bound
            )
        });
        let checks = self
            .checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| format!("check {} failed", c.name));
        bounds.chain(checks).collect()
    }
}

/// A bench report under construction: collects the typed block, then
/// [`finish`](Report::finish) writes it next to the bench's body.
#[derive(Debug)]
pub struct Report {
    gated: bool,
    block: Block,
}

impl Report {
    /// An empty report; bounds are recorded only outside
    /// [`Scale::Quick`].
    pub fn new(scale: Scale) -> Self {
        Self {
            gated: scale != Scale::Quick,
            block: Block::default(),
        }
    }

    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) -> &mut Self {
        self.block.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
        self
    }

    /// Records that `value` must be at least `bound`.
    pub fn floor(&mut self, name: &str, value: f64, bound: f64) -> &mut Self {
        self.bound(name, value, bound, BoundKind::Floor)
    }

    /// Records that `value` must not exceed `bound`.
    pub fn ceiling(&mut self, name: &str, value: f64, bound: f64) -> &mut Self {
        self.bound(name, value, bound, BoundKind::Ceiling)
    }

    fn bound(&mut self, name: &str, value: f64, bound: f64, kind: BoundKind) -> &mut Self {
        if self.gated {
            self.block.floors.push(Bound {
                name: name.to_string(),
                value,
                bound,
                kind,
            });
        }
        self
    }

    /// Records a cross-check.
    pub fn check(&mut self, name: &str, passed: bool) -> &mut Self {
        self.block.checks.push(Check {
            name: name.to_string(),
            passed,
        });
        self
    }

    /// Writes `<file>.json` (the body's fields, then the typed block),
    /// prints the block, and exits with status 1 if the write failed, a
    /// check is false or a bound is missed.
    pub fn finish<T: Serialize>(self, file: &str, body: &T) {
        let mut doc = body.to_value();
        let written = match (&mut doc, self.block.to_value()) {
            (Value::Object(fields), Value::Object(block)) => {
                fields.extend(block);
                try_write_report(file, &doc)
            }
            _ => Err(format!("{file}: the report body is not a JSON object")),
        };
        for m in &self.block.end_to_end {
            println!("[metric] {} = {} {}", m.name, fmt_value(m.value), m.unit);
        }
        for f in &self.block.floors {
            let verdict = if f.met() { "ok" } else { "FAIL" };
            println!(
                "[{:?}] {} = {} (bound {}) {verdict}",
                f.kind,
                f.name,
                fmt_value(f.value),
                fmt_value(f.bound)
            );
        }
        for c in &self.block.checks {
            println!("[check] {} = {}", c.name, c.passed);
        }
        let mut failures = self.block.failures();
        if let Err(e) = written {
            failures.push(e);
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("ERROR: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// A value of any magnitude at a readable precision: integers and values
/// of at least 10^4 whole, others to 4 decimals, small ones in scientific
/// notation.
pub fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 1e4 || is_integral(v) {
        format!("{v:.0}")
    } else if a >= 1e-2 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// Median of `samples` (the upper median for an even count); sorts in
/// place.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median of the per-repeat ratios `baseline[i] / optimized[i]`. The two
/// paths run back to back within a repeat, so machine-load drift across
/// the run cancels out of each ratio.
pub fn median_ratio(baseline: &[f64], optimized: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = baseline.iter().zip(optimized).map(|(b, o)| b / o).collect();
    median(&mut ratios)
}

/// High-water-mark resident set size in bytes (`VmHWM` in
/// `/proc/self/status`); NaN off Linux, which misses any bound.
pub fn peak_rss_bytes() -> f64 {
    status_bytes("VmHWM:")
}

/// Current resident set size in bytes (`VmRSS` in `/proc/self/status`);
/// NaN off Linux, which misses any bound.
pub fn rss_bytes() -> f64 {
    status_bytes("VmRSS:")
}

/// A `kB` field of `/proc/self/status` in bytes; NaN when unreadable.
fn status_bytes(field: &str) -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let kb = text.lines().find_map(|l| l.strip_prefix(field))?;
            kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok()
        });
    kb.map_or(f64::NAN, |kb| (kb * 1024) as f64)
}

/// The benches' synthetic workload: `S = 5`, mixed feature kinds, the
/// paper generator's default progression rates.
pub fn synth(n_users: usize, n_items: usize, mean_len: f64, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        n_users,
        n_items,
        n_levels: 5,
        mean_sequence_len: mean_len,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 10,
        seed,
    }
}

/// Sub-buckets per power of two in [`LatencyHist`].
const SUB: usize = 16;

/// Log-scaled latency histogram: 16 sub-buckets per power of two of
/// nanoseconds (worst-case bucket width about 6%), constant memory.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            counts: vec![0; 64 * SUB],
            total: 0,
        }
    }
}

impl LatencyHist {
    /// Records one latency in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let idx = if ns < SUB as u64 {
            ns as usize
        } else {
            let log2 = 63 - ns.leading_zeros() as usize;
            let frac = ((ns >> (log2 - 4)) & 0xF) as usize;
            log2 * SUB + frac
        };
        let last = self.counts.len() - 1;
        self.counts[idx.min(last)] += 1;
        self.total += 1;
    }

    /// Adds `other`'s samples to this histogram.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Upper edge of the bucket holding quantile `q`, in seconds; 0 when
    /// empty.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let ns = if idx < SUB {
                    idx as u64 + 1
                } else {
                    let (log2, frac) = (idx / SUB, (idx % SUB) as u64);
                    (16 + frac + 1) << (log2 - 4)
                };
                return ns as f64 * 1e-9;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missed_bounds_and_false_checks_fail_and_quick_scale_records_no_bounds() {
        let mut r = Report::new(Scale::Default);
        r.floor("x.ok", 2.0, 1.5)
            .floor("x.low", 1.0, 1.5)
            .floor("x.nan", f64::NAN, 1.5)
            .ceiling("x.rss", 2.0, 1.0)
            .check("same", true)
            .check("diverged", false);
        let failures = r.block.failures();
        assert_eq!(failures.len(), 4, "{failures:?}");
        assert!(failures.iter().all(|f| !f.contains("x.ok")));

        let mut quick = Report::new(Scale::Quick);
        quick.floor("x.low", 1.0, 1.5).check("same", true);
        assert!(quick.block.floors.is_empty());
        assert!(quick.block.failures().is_empty());
    }

    #[test]
    fn block_round_trips_and_requires_floors() {
        let mut r = Report::new(Scale::Default);
        r.metric("t", 1.5, "s").ceiling("x.p99", 0.01, 0.05);
        let json = serde_json::to_string(&r.block).unwrap();
        assert!(json.contains(r#""kind":"Ceiling""#));
        assert_eq!(serde_json::from_str::<Block>(&json).unwrap(), r.block);
        assert!(serde_json::from_str::<Block>(r#"{"end_to_end": [], "checks": []}"#).is_err());
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_edges() {
        let mut h = LatencyHist::default();
        for ns in [5, 100, 1_000, 10_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.total(), 4);
        assert!((h.quantile_seconds(0.25) - 6e-9).abs() < 1e-18);
        let p100 = h.quantile_seconds(1.0);
        assert!((10_000e-9..=10_000e-9 * 1.07).contains(&p100));
    }
}
