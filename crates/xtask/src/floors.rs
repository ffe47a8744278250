//! `bench-floors` task: enforce the acceptance bounds recorded in the
//! committed bench reports.
//!
//! Every `reports/BENCH_*.json` carries a top-level `floors` array, written
//! by the bench binaries' one report module. Each entry names a bound and
//! records the measured `value`, the `bound` and its `kind`: `"Floor"`
//! (the value must be at least the bound) or `"Ceiling"` (it must not
//! exceed it).
//!
//! This task reads that array from every report and fails when any value
//! misses its bound, so a regression that slips into a committed report
//! breaks CI even if nobody re-reads the numbers. It fails closed:
//!
//! - a report without a `floors` array, or with an entry lacking a
//!   string `name` or a known `kind`, is an error, not a pass;
//! - a `value` or `bound` that is null, missing or not finite misses its
//!   bound (a NaN measurement is written as `null`);
//! - a directory with no reports at all is vacuous and fails.
//!
//! Like the lint engine, this module is std-only: reports are flat
//! machine-written JSON, and a ~150-line recursive-descent reader keeps
//! xtask building first, fast, and offline.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Direction of an enforceable bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// The measurement must be **at least** the bound.
    Floor,
    /// The measurement must **not exceed** the bound.
    Ceiling,
}

/// One entry of a report's `floors` array.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorCheck {
    /// Report file name (e.g. `BENCH_emission.json`).
    pub file: String,
    /// Bound name (e.g. `emission.assignment_speedup`).
    pub name: String,
    /// Recorded measurement; NaN when null or missing.
    pub value: f64,
    /// Recorded bound; NaN when null or missing.
    pub bound: f64,
    /// Whether the bound is a floor or a ceiling.
    pub kind: BoundKind,
}

impl FloorCheck {
    /// Whether the recorded measurement meets the recorded bound; a
    /// non-finite value or bound never does.
    pub fn passes(&self) -> bool {
        self.value.is_finite()
            && self.bound.is_finite()
            && match self.kind {
                BoundKind::Floor => self.value >= self.bound,
                BoundKind::Ceiling => self.value <= self.bound,
            }
    }
}

impl fmt::Display for FloorCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let relation = match self.kind {
            BoundKind::Floor => "floor",
            BoundKind::Ceiling => "ceiling",
        };
        write!(
            f,
            "{}: {} {} vs {relation} {} [{}]",
            self.file,
            self.name,
            self.value,
            self.bound,
            if self.passes() { "ok" } else { "FAIL" }
        )
    }
}

/// Outcome of scanning a reports directory.
#[derive(Debug, Default)]
pub struct FloorReport {
    /// Every recorded bound, in file order.
    pub checks: Vec<FloorCheck>,
    /// Number of `BENCH_*.json` files parsed.
    pub files_scanned: usize,
}

impl FloorReport {
    /// The checks whose value misses its bound.
    pub fn violations(&self) -> Vec<&FloorCheck> {
        self.checks.iter().filter(|c| !c.passes()).collect()
    }

    /// Whether the scan found no reports at all. A gate run against an
    /// empty (or wrong) directory measured nothing and must fail rather
    /// than pass vacuously.
    pub fn is_vacuous(&self) -> bool {
        self.files_scanned == 0
    }
}

/// Scans `<dir>/BENCH_*.json` and reads every report's `floors` array.
///
/// Returns an error when the directory cannot be read, a report fails to
/// parse, or a report has no well-formed `floors` array — a malformed
/// report is a broken pipeline, not a pass.
pub fn check_floors(dir: &Path) -> io::Result<FloorReport> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();

    let mut report = FloorReport::default();
    for path in files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("<non-utf8>")
            .to_string();
        let text = fs::read_to_string(&path)?;
        let checks = parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| read_floors(&doc, &name))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {e}")))?;
        report.checks.extend(checks);
        report.files_scanned += 1;
    }
    Ok(report)
}

/// Reads the top-level `floors` array of one report.
fn read_floors(doc: &Json, file: &str) -> Result<Vec<FloorCheck>, String> {
    let Some(Json::Arr(entries)) = doc.get("floors") else {
        return Err("no `floors` array".to_string());
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let Some(Json::Str(name)) = entry.get("name") else {
                return Err(format!("floors[{i}]: no string `name`"));
            };
            let kind = match entry.get("kind") {
                Some(Json::Str(k)) if k == "Floor" => BoundKind::Floor,
                Some(Json::Str(k)) if k == "Ceiling" => BoundKind::Ceiling,
                _ => {
                    return Err(format!(
                        "floors[{i}] ({name}): `kind` is not Floor or Ceiling"
                    ))
                }
            };
            let num = |key: &str| match entry.get(key) {
                Some(Json::Num(x)) => *x,
                _ => f64::NAN,
            };
            Ok(FloorCheck {
                file: file.to_string(),
                name: name.clone(),
                value: num("value"),
                bound: num("bound"),
                kind,
            })
        })
        .collect()
}

/// Minimal JSON value tree for report scanning.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, read as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar from the remainder.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("non-UTF-8 string"))?;
                    let ch = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("empty string tail"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes `\uXXXX`; unpaired surrogates become U+FFFD (reports never
    /// contain them — keys and values are machine-written ASCII).
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e1, null, true, "x\nA"], "b": {}}"#).unwrap();
        let Json::Obj(pairs) = &v else {
            panic!("expected object")
        };
        assert_eq!(pairs[0].0, "a");
        let Json::Arr(items) = &pairs[0].1 else {
            panic!("expected array")
        };
        assert_eq!(items.len(), 5);
        assert_eq!(items[2], Json::Null);
        assert_eq!(items[4], Json::Str("x\nA".to_string()));
        assert_eq!(pairs[1].1, Json::Obj(Vec::new()));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"k": 1e}"#).is_err());
    }

    fn floors_of(doc: &str) -> Result<Vec<FloorCheck>, String> {
        read_floors(&parse(doc).unwrap(), "BENCH_x.json")
    }

    #[test]
    fn reads_floors_and_ceilings_from_the_floors_array() {
        let checks = floors_of(
            r#"{
                "scale": "Default", "speedup": 0.1,
                "floors": [
                    {"name": "x.speedup", "value": 2.0, "bound": 1.5, "kind": "Floor"},
                    {"name": "x.rss", "value": 2.0e9, "bound": 1.5e9, "kind": "Ceiling"}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(checks.len(), 2);
        assert_eq!(checks[0].name, "x.speedup");
        assert_eq!(checks[0].kind, BoundKind::Floor);
        assert!(checks[0].passes());
        assert_eq!(checks[1].kind, BoundKind::Ceiling);
        assert!(!checks[1].passes());
        assert!(floors_of(r#"{"floors": []}"#).unwrap().is_empty());
    }

    #[test]
    fn a_report_without_a_floors_array_is_an_error() {
        for doc in [
            r#"{"speedup": 2.0, "acceptance_floor": 1.5}"#,
            r#"{"floors": null}"#,
            r#"{"floors": [{"value": 2.0, "bound": 1.5, "kind": "Floor"}]}"#,
            r#"{"floors": [{"name": "x", "value": 2.0, "bound": 1.5, "kind": "floor"}]}"#,
        ] {
            assert!(floors_of(doc).is_err(), "{doc}");
        }
    }

    #[test]
    fn null_missing_or_non_finite_values_and_bounds_fail() {
        let checks = floors_of(
            r#"{"floors": [
                {"name": "null_value", "value": null, "bound": 1.5, "kind": "Floor"},
                {"name": "null_bound", "value": 2.0, "bound": null, "kind": "Ceiling"},
                {"name": "missing_value", "bound": 1.5, "kind": "Ceiling"},
                {"name": "inf_value", "value": 1e999, "bound": 1.5, "kind": "Floor"},
                {"name": "inf_bound", "value": 2.0, "bound": 1e999, "kind": "Ceiling"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(checks.len(), 5);
        assert!(checks.iter().all(|c| !c.passes()), "{checks:?}");
    }

    #[test]
    fn committed_reports_carry_exactly_the_ten_gates() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
        let report = check_floors(&dir).unwrap();
        let mut gates: Vec<(&str, BoundKind, f64)> = report
            .checks
            .iter()
            .map(|c| (c.name.as_str(), c.kind, c.bound))
            .collect();
        gates.sort_by(|a, b| a.0.cmp(b.0));
        assert_eq!(
            gates,
            [
                ("em_incremental.speedup", BoundKind::Floor, 1.5),
                ("emission.assignment_speedup", BoundKind::Floor, 3.0),
                ("emission.fill_speedup_20k_items", BoundKind::Floor, 3.0),
                (
                    "incremental.refit_heap_bytes",
                    BoundKind::Ceiling,
                    1_048_576.0
                ),
                ("policy.min_domain_speedup", BoundKind::Floor, 1.0),
                ("scale.peak_rss_bytes", BoundKind::Ceiling, 1_610_612_736.0),
                ("scale.throughput_actions_per_s", BoundKind::Floor, 1.0e6),
                ("serve.bytes_per_admitted_user", BoundKind::Ceiling, 180.0),
                ("serve.p99_latency_s", BoundKind::Ceiling, 0.05),
                ("serve.throughput_ops_per_s", BoundKind::Floor, 1.0e5),
            ]
        );
    }

    #[test]
    fn empty_directory_scan_is_vacuous() {
        let dir = std::env::temp_dir().join(format!(
            "xtask-floors-empty-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        // Non-matching files don't count as reports either.
        fs::write(dir.join("EXP_other.json"), "{}").unwrap();

        let report = check_floors(&dir).unwrap();
        assert!(report.is_vacuous());
        assert_eq!(report.files_scanned, 0);
        assert!(report.violations().is_empty());

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scans_reports_directory_end_to_end() {
        let dir = std::env::temp_dir().join(format!(
            "xtask-floors-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let floor = |value: f64| {
            format!(
                r#"{{"floors": [{{"name": "x", "value": {value}, "bound": 2.0, "kind": "Floor"}}]}}"#
            )
        };
        fs::write(dir.join("BENCH_ok.json"), floor(3.0)).unwrap();
        fs::write(dir.join("BENCH_bad.json"), floor(1.0)).unwrap();
        fs::write(dir.join("EXP_other.json"), "not even json").unwrap();

        let report = check_floors(&dir).unwrap();
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.checks.len(), 2);
        let violations = report.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].file, "BENCH_bad.json");

        fs::remove_dir_all(&dir).unwrap();
    }
}
