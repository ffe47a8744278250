//! The lint rules.
//!
//! All rules run on the masked text (see [`crate::source`]), so tokens in
//! strings, chars, and comments never fire. Code under `#[cfg(test)]` is
//! exempt from every rule, and `lint:allow` markers suppress individual
//! findings (the markers themselves are validated by the `lint-marker`
//! rule).

use std::collections::HashSet;
use std::path::Path;

use crate::source::{match_brace, SourceFile};
use crate::Diagnostic;

/// Every valid rule id, for marker validation and documentation.
pub const RULE_IDS: &[&str] = &[
    "core-panic",
    "hot-loop-index",
    "hot-loop-cast",
    "float-eq",
    "config-literal",
    "reference-in-production",
    "raw-spawn",
    "fit-outside-dist",
    "unused-pub",
    "lock-order",
    "lock-across-publish",
    "raw-lock",
    "guard-escape",
    "lint-marker",
];

/// File stems whose loops are "hot": the DP/accumulator kernels where a
/// stray bounds check or silent truncation costs either throughput or
/// correctness. Indexing and narrowing casts are denied inside their
/// loop bodies.
const HOT_FILES: &[&str] = &[
    "assign.rs",
    "emission.rs",
    "incremental.rs",
    "streaming.rs",
    "update.rs",
];

/// Source trees whose non-test code must not panic: the model library and
/// the serving layer, where a rejected input is a typed error.
const PANIC_FREE_SRC: &[&str] = &["crates/core/src/", "crates/serve/src/"];

/// Source trees of the production crates. `reference` oracles are test
/// and bench baselines, so naming them here is a violation; `crates/bench`
/// is left out because its oracles are its speedup denominators.
const PRODUCTION_SRC: &[&str] = &[
    "crates/core/src/",
    "crates/serve/src/",
    "crates/cli/src/",
    "crates/datasets/src/",
    "crates/eval/src/",
    "crates/ffm/src/",
];

/// The home of `upskill_core::parallel::fan_out`, the one place that
/// spawns worker threads without a marker.
const SPAWN_HOME: &str = "crates/core/src/parallel.rs";

/// The home of the feature distributions and their fits, the one place
/// that sets a fitted family's parameters.
const DIST_HOME: &str = "crates/core/src/dist/";

/// Constructors of the fitted families. Their parameters come from the
/// fits under [`DIST_HOME`]; a call elsewhere is a second copy of an MLE.
const DIST_CONSTRUCTORS: &[&str] = &["Gamma::new", "LogNormal::new", "Poisson::new"];

/// Source trees whose `pub` items must each have a use outside their own
/// crate (see [`unused_pub`]).
pub(crate) const SURFACE_SRC: &[&str] = &["crates/core/src/", "crates/serve/src/"];

/// Item keywords whose bare `pub` declarations [`unused_pub`] audits.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Cast targets that can silently truncate the workspace's index/level
/// domains. Widening casts (`as usize`, `as u64`, `as f64`) stay legal.
const TRUNCATING_CASTS: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "i8",
    "i16",
    "i32",
    "SkillLevel",
    "ItemId",
    "UserId",
];

/// Runs every applicable rule on one file.
pub fn run_all(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = file.marker_diags.clone();
    let path = normalize(&file.path);
    let name = file_name(&path);

    if PANIC_FREE_SRC.iter().any(|dir| path.starts_with(dir)) && name != "float_cmp.rs" {
        core_panic(file, &mut out);
    }
    if path.starts_with("crates/core/src/") && HOT_FILES.contains(&name) {
        hot_loops(file, &mut out);
    }
    if name != "float_cmp.rs" {
        float_eq(file, &mut out);
    }
    config_literal(file, &path, &mut out);
    if PRODUCTION_SRC.iter().any(|dir| path.starts_with(dir))
        && path != "crates/core/src/reference.rs"
    {
        reference_in_production(file, &mut out);
        if path != SPAWN_HOME {
            raw_spawn(file, &mut out);
        }
    }
    if PRODUCTION_SRC.iter().any(|dir| path.starts_with(dir)) && !path.starts_with(DIST_HOME) {
        fit_outside_dist(file, &mut out);
    }
    crate::concurrency::run_rules(file, &mut out);
    // Nested loop spans overlap, so a single site can be visited twice.
    out.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    out.dedup();
    out
}

pub(crate) fn normalize(path: &Path) -> String {
    let parts: Vec<String> = path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

pub(crate) fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of every occurrence of `needle` in `hay`.
pub(crate) fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        out.push(from + p);
        from += p + 1;
    }
    out
}

/// Occurrences of `needle` with no identifier byte immediately before it.
pub(crate) fn find_word_starts(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    find_all(hay, needle)
        .into_iter()
        .filter(|&p| p == 0 || !is_ident(bytes[p - 1]))
        .collect()
}

// --- rule: core-panic ---------------------------------------------------

fn core_panic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const TOKENS: &[(&str, bool)] = &[
        // (token, needs word boundary before)
        (".unwrap()", false),
        (".expect(", false),
        ("panic!(", true),
        ("todo!(", true),
        ("unimplemented!(", true),
    ];
    for &(token, bounded) in TOKENS {
        let hits = if bounded {
            find_word_starts(&file.masked, token)
        } else {
            find_all(&file.masked, token)
        };
        for p in hits {
            let shown = token.trim_end_matches('(');
            file.report(
                out,
                p,
                "core-panic",
                format!(
                    "`{shown}` in upskill-core or upskill-serve non-test code; \
                     return a typed error instead"
                ),
            );
        }
    }
}

// --- rules: hot-loop-index / hot-loop-cast ------------------------------

/// Byte ranges of `for`/`while`/`loop` bodies (including nested loops).
fn loop_spans(masked: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    for kw in ["for", "while", "loop"] {
        for start in find_word_starts(masked, kw) {
            let after = start + kw.len();
            if bytes.get(after).copied().is_some_and(is_ident) {
                continue; // e.g. `format`, `looped`
            }
            let mut i = after;
            let (mut paren, mut bracket) = (0i32, 0i32);
            let mut saw_in = false;
            let mut open = None;
            while i < bytes.len() {
                match bytes[i] {
                    b'(' => paren += 1,
                    b')' => paren -= 1,
                    b'[' => bracket += 1,
                    b']' => bracket -= 1,
                    b'{' if paren == 0 && bracket == 0 => {
                        open = Some(i);
                        break;
                    }
                    b';' if paren == 0 && bracket == 0 => break,
                    b'i' if paren == 0
                        && bracket == 0
                        && bytes.get(i + 1) == Some(&b'n')
                        && !is_ident(bytes[i - 1])
                        && !bytes.get(i + 2).copied().is_some_and(is_ident) =>
                    {
                        saw_in = true;
                    }
                    _ => {}
                }
                i += 1;
            }
            let Some(open) = open else { continue };
            if kw == "for" && !saw_in {
                continue; // `impl Trait for Type { … }`, `for<'a>` bounds
            }
            if let Some(end) = match_brace(bytes, open) {
                spans.push(open..end);
            }
        }
    }
    spans
}

fn hot_loops(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let bytes = file.masked.as_bytes();
    for span in loop_spans(&file.masked) {
        // Indexing: `expr[idx]` where the bracket is not a range slice.
        let mut i = span.start;
        while i < span.end {
            if bytes[i] != b'[' {
                i += 1;
                continue;
            }
            let mut before = i;
            while before > 0 && bytes[before - 1].is_ascii_whitespace() {
                before -= 1;
            }
            let indexes = before > 0
                && (is_ident(bytes[before - 1]) || matches!(bytes[before - 1], b')' | b']'));
            if !indexes {
                i += 1;
                continue;
            }
            // Find the matching `]`.
            let (mut depth, mut j) = (0i32, i);
            while j < span.end {
                match bytes[j] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let content = &file.masked[i + 1..j.min(span.end)];
            if !content.contains("..") {
                file.report(
                    out,
                    i,
                    "hot-loop-index",
                    "`[…]` indexing inside a hot loop; iterate or use checked access".to_string(),
                );
            }
            i += 1;
        }
        // Truncating casts.
        for p in find_word_starts(&file.masked[span.clone()], "as ") {
            let abs = span.start + p;
            if abs == 0 || !bytes[abs - 1].is_ascii_whitespace() && bytes[abs - 1] != b'(' {
                continue; // require ` as ` / `(as` shape, not `has `
            }
            let rest = file.masked[abs + 3..span.end].trim_start();
            let ty: String = rest
                .bytes()
                .take_while(|&b| is_ident(b))
                .map(|b| b as char)
                .collect();
            if TRUNCATING_CASTS.contains(&ty.as_str()) {
                file.report(
                    out,
                    abs,
                    "hot-loop-cast",
                    format!("truncating `as {ty}` cast inside a hot loop; use a checked conversion helper"),
                );
            }
        }
    }
}

// --- rule: float-eq -----------------------------------------------------

fn has_float_operand(window: &str) -> bool {
    let b = window.as_bytes();
    for i in 0..b.len().saturating_sub(2) {
        if b[i].is_ascii_digit() && b[i + 1] == b'.' && b[i + 2].is_ascii_digit() {
            return true;
        }
    }
    window.contains("f64::") || window.contains("f32::")
}

fn float_eq(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let mut line_start = 0usize;
    for line in file.masked.split('\n') {
        for op in ["==", "!="] {
            for p in find_all(line, op) {
                let bytes = line.as_bytes();
                if op == "==" && p > 0 && matches!(bytes[p - 1], b'=' | b'!' | b'<' | b'>') {
                    continue;
                }
                if bytes.get(p + 2) == Some(&b'=') {
                    continue;
                }
                let left = {
                    let s = &line[..p];
                    // Delimiters and expression-starting keywords bound the
                    // operand: in `1.0 + if tier == level { … }` the float
                    // belongs to the addition, not the comparison.
                    let cut = [
                        "&&", "||", ";", ",", "(", "{", "}", "if ", "while ", "match ", "return ",
                    ]
                    .iter()
                    .filter_map(|d| s.rfind(d).map(|i| i + d.len()))
                    .max()
                    .unwrap_or(0);
                    &s[cut..]
                };
                let right = {
                    let s = &line[p + 2..];
                    let cut = ["&&", "||", ";", ",", ")", "{"]
                        .iter()
                        .filter_map(|d| s.find(d))
                        .min()
                        .unwrap_or(s.len());
                    &s[..cut]
                };
                if has_float_operand(left) || has_float_operand(right) {
                    file.report(
                        out,
                        line_start + p,
                        "float-eq",
                        format!("float `{op}` comparison; use the approved helpers in float_cmp"),
                    );
                }
            }
        }
        line_start += line.len() + 1;
    }
}

// --- rule: config-literal -----------------------------------------------

fn config_literal(file: &SourceFile, path: &str, out: &mut Vec<Diagnostic>) {
    const CONFIGS: &[(&str, &str)] = &[
        ("ParallelConfig", "crates/core/src/parallel.rs"),
        ("EmConfig", "crates/core/src/em.rs"),
    ];
    let bytes = file.masked.as_bytes();
    for &(ty, home) in CONFIGS {
        if path == home {
            continue; // the type's own module defines the builders
        }
        for p in find_word_starts(&file.masked, ty) {
            let after = p + ty.len();
            if bytes.get(after).copied().is_some_and(is_ident) {
                continue;
            }
            // Next non-whitespace byte must open a struct literal.
            let mut j = after;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) != Some(&b'{') {
                continue;
            }
            // Walk back over a path prefix (`em::EmConfig`), then check the
            // preceding token: type positions (`&T {`, `-> T {`, `impl T`,
            // `for T`, `dyn T`) are not literals.
            let mut k = p;
            loop {
                while k > 0 && bytes[k - 1].is_ascii_whitespace() {
                    k -= 1;
                }
                if k >= 2 && bytes[k - 1] == b':' && bytes[k - 2] == b':' {
                    k -= 2;
                    while k > 0 && is_ident(bytes[k - 1]) {
                        k -= 1;
                    }
                    continue;
                }
                break;
            }
            if k > 0 && bytes[k - 1] == b'&' {
                continue;
            }
            if k >= 2 && bytes[k - 2] == b'-' && bytes[k - 1] == b'>' {
                continue;
            }
            let word_start = {
                let mut w = k;
                while w > 0 && is_ident(bytes[w - 1]) {
                    w -= 1;
                }
                w
            };
            if matches!(&file.masked[word_start..k], "impl" | "for" | "dyn") {
                continue;
            }
            file.report(
                out,
                p,
                "config-literal",
                format!("struct-literal `{ty} {{ … }}`; construct it through its builder methods"),
            );
        }
    }
}

// --- rule: reference-in-production -------------------------------------

fn reference_in_production(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for p in find_word_starts(&file.masked, "reference::") {
        file.report(
            out,
            p,
            "reference-in-production",
            "`reference::` oracle named in production code; reference paths are test and bench baselines only"
                .to_string(),
        );
    }
}

// --- rule: raw-spawn ---------------------------------------------------

fn raw_spawn(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for token in ["thread::scope", "thread::spawn", "thread::Builder"] {
        for p in find_word_starts(&file.masked, token) {
            file.report(
                out,
                p,
                "raw-spawn",
                format!(
                    "`{token}` outside the fan-out; run the work as jobs of \
                     `upskill_core::parallel::fan_out`"
                ),
            );
        }
    }
}

// --- rule: fit-outside-dist ---------------------------------------------

fn fit_outside_dist(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let bytes = file.masked.as_bytes();
    for token in DIST_CONSTRUCTORS {
        for p in find_word_starts(&file.masked, token) {
            if bytes.get(p + token.len()).is_some_and(|&b| is_ident(b)) {
                continue;
            }
            file.report(
                out,
                p,
                "fit-outside-dist",
                format!(
                    "`{token}` outside `{DIST_HOME}`; fit through \
                     `upskill_core::dist::FeatureAccumulator` or the family's own fit"
                ),
            );
        }
    }
}

// --- rule: unused-pub ---------------------------------------------------

/// Every identifier token of a masked text (comments and literals are
/// already blank, so a doc example is not a use).
pub(crate) fn ident_tokens(masked: &str) -> impl Iterator<Item = &str> {
    masked
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// Flags a bare `pub` item in non-test code whose name is not among
/// `outside`, the identifier tokens of every file outside the item's
/// crate. Such an item is crate-private in all but name, and rustc's
/// `dead_code` lint cannot see it. A marker keeps an item `pub` that is
/// named only through a used item's signature; a marker on an item that
/// does have an outside use is flagged too, so the audited set cannot go
/// stale.
pub(crate) fn unused_pub(file: &SourceFile, outside: &HashSet<&str>, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "unused-pub";
    let masked = &file.masked;
    let targets = file.marker_targets(RULE);
    let mut heads = Vec::new();
    for p in find_word_starts(masked, "pub") {
        let rest = &masked[p + 3..];
        if !rest.starts_with(char::is_whitespace) || file.in_test(p) {
            continue; // `pub(crate)`, `public`, or test code
        }
        let mut words = ident_tokens(rest);
        let (mut kw, mut name) = (words.next().unwrap_or(""), words.next());
        if (kw, name) == ("const", Some("fn")) {
            (kw, name) = ("fn", words.next());
        }
        let Some(name) = name.filter(|_| ITEM_KEYWORDS.contains(&kw)) else {
            continue; // a field, `pub use` or `pub mod`
        };
        let line = file.line_of(p);
        // The item's attributes and doc comment (blank once masked) belong
        // to it, so a marker above them covers it.
        let mut first = line;
        while first > 1 && {
            let above = file.line_text(first - 1).trim_start();
            above.is_empty() || above.starts_with("#[")
        } {
            first -= 1;
        }
        let head = first..=line;
        let marked = targets.iter().any(|t| head.contains(t));
        heads.push(head);
        match (outside.contains(name), marked) {
            (false, false) => out.push(file.diagnostic(
                line,
                RULE,
                format!(
                    "`pub {kw} {name}` is named by no file outside its crate; make it \
                     `pub(crate)` or private"
                ),
            )),
            (true, true) => out.push(file.diagnostic(
                line,
                RULE,
                format!("`pub {kw} {name}` has an outside use; remove its `{RULE}` marker"),
            )),
            _ => {}
        }
    }
    for &target in &targets {
        if !heads.iter().any(|head| head.contains(&target)) {
            out.push(file.diagnostic(
                target,
                RULE,
                format!("`{RULE}` marker on a line that declares no bare `pub` item"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(path: &str, text: &str) -> Vec<Diagnostic> {
        run_all(&SourceFile::from_source(Path::new(path), text))
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn core_panic_fires_only_in_core_and_serve_non_test_code() {
        let text = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        for path in ["crates/core/src/model.rs", "crates/serve/src/service.rs"] {
            assert_eq!(rules_of(&run(path, text)), ["core-panic"]);
        }
        assert!(run("crates/cli/src/commands.rs", text).is_empty());
        let test_text = "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) { x.unwrap(); } }\n";
        assert!(run("crates/core/src/model.rs", test_text).is_empty());
        assert!(run("crates/serve/src/service.rs", test_text).is_empty());
    }

    #[test]
    fn core_panic_token_precision() {
        // `.unwrap_or(…)` and `.expect_err(…)` are fine; macros need word
        // boundaries so `dont_panic!(…)` is not a hit.
        let ok =
            "fn f() { let _ = r().unwrap_or(0); let _ = r().expect_err(\"x\"); dont_panic!(1); }\n";
        assert!(run("crates/core/src/model.rs", ok).is_empty());
        let bad = "fn f() { panic!(\"boom\"); }\n";
        assert_eq!(
            rules_of(&run("crates/core/src/model.rs", bad)),
            ["core-panic"]
        );
    }

    #[test]
    fn hot_loop_rules_fire_in_denylisted_files_only() {
        let text = "fn f(v: &[u64]) { for i in 0..v.len() { let _ = v[i]; } }\n";
        assert_eq!(
            rules_of(&run("crates/core/src/assign.rs", text)),
            ["hot-loop-index"]
        );
        // Same code in a non-hot core file: only indexing *outside* loops
        // stays unflagged anywhere, and no hot-loop rule applies here.
        assert!(run("crates/core/src/model.rs", text).is_empty());
        // Outside loops even in hot files: fine.
        let outside = "fn f(v: &[u64]) -> u64 { v[0] }\n";
        assert!(run("crates/core/src/update.rs", outside).is_empty());
    }

    #[test]
    fn hot_loop_allows_slices_and_marked_lines() {
        let slice = "fn f(v: &[u64]) { for c in v { let _ = &v[1..3]; } }\n";
        assert!(run("crates/core/src/emission.rs", slice).is_empty());
        let marked = concat!(
            "fn f(v: &mut [u64]) {\n",
            "    for i in 0..4 {\n",
            "        // lint:allow(hot-loop-index): bit-packed word, proven in range.\n",
            "        v[i] = 0;\n",
            "    }\n",
            "}\n",
        );
        assert!(run("crates/core/src/assign.rs", marked).is_empty());
    }

    #[test]
    fn hot_loop_cast_denylist() {
        let bad = "fn f() { for i in 0..4 { let _ = i as u32; } }\n";
        assert_eq!(
            rules_of(&run("crates/core/src/incremental.rs", bad)),
            ["hot-loop-cast"]
        );
        let widening = "fn f() { for i in 0..4u32 { let _ = i as usize + 0u64 as usize; } }\n";
        assert!(run("crates/core/src/incremental.rs", widening).is_empty());
        let level = "fn f() { for i in 0..4 { let _ = i as SkillLevel; } }\n";
        assert_eq!(
            rules_of(&run("crates/core/src/streaming.rs", level)),
            ["hot-loop-cast"]
        );
    }

    #[test]
    fn float_eq_detects_literals_and_constants() {
        assert_eq!(
            rules_of(&run(
                "crates/eval/src/x.rs",
                "fn f(x: f64) -> bool { x == 0.0 }\n"
            )),
            ["float-eq"]
        );
        assert_eq!(
            rules_of(&run(
                "crates/core/src/x.rs",
                "fn f(x: f64) -> bool { x != f64::NEG_INFINITY }\n"
            )),
            ["float-eq"]
        );
        // Left-hand literals count too.
        assert_eq!(
            rules_of(&run(
                "crates/core/src/x.rs",
                "fn f(x: f64) -> bool { 1.5 == x }\n"
            )),
            ["float-eq"]
        );
    }

    #[test]
    fn float_eq_ignores_ints_and_approved_files() {
        assert!(run(
            "crates/core/src/x.rs",
            "fn f(x: usize) -> bool { x == 0 }\n"
        )
        .is_empty());
        assert!(run(
            "crates/core/src/x.rs",
            "fn f(x: usize) -> bool { x <= 1 && x >= 0 }\n"
        )
        .is_empty());
        // Ranges are not float literals.
        assert!(run("crates/core/src/x.rs", "fn f() { for _ in 0..10 {} }\n").is_empty());
        // The approved helper module may compare floats directly.
        assert!(run(
            "crates/core/src/float_cmp.rs",
            "pub fn is_zero(x: f64) -> bool { x == 0.0 }\n"
        )
        .is_empty());
        assert!(run(
            "crates/eval/src/float_cmp.rs",
            "pub fn is_zero(x: f64) -> bool { x == 0.0 }\n"
        )
        .is_empty());
    }

    #[test]
    fn float_eq_window_is_operand_bounded() {
        // The float literal belongs to the *other* comparison; the integer
        // one must not be flagged.
        let text = "fn f(a: usize, x: f64) -> bool { a == 0 && x < 1.5 }\n";
        assert!(run("crates/core/src/x.rs", text).is_empty());
    }

    #[test]
    fn config_literal_rule() {
        let bad = "fn f() { let c = ParallelConfig { threads: 4 }; }\n";
        assert_eq!(
            rules_of(&run("crates/core/src/train.rs", bad)),
            ["config-literal"]
        );
        // Builders and type positions are fine.
        let ok = concat!(
            "fn a() -> ParallelConfig { ParallelConfig::sequential() }\n",
            "fn b(c: &ParallelConfig) -> &ParallelConfig { c }\n",
            "impl HasConfig for Thing { fn get(&self) -> EmConfig { EmConfig::new(2) } }\n",
        );
        assert!(run("crates/core/src/train.rs", ok).is_empty());
        // The defining modules build the structs literally — allowed.
        assert!(run(
            "crates/core/src/parallel.rs",
            "fn f() -> ParallelConfig { ParallelConfig { threads: 1 } }\n"
        )
        .is_empty());
        assert_eq!(
            rules_of(&run(
                "crates/core/src/streaming.rs",
                "fn f() { let c = em::EmConfig { iters: 3 }; }\n"
            )),
            ["config-literal"]
        );
    }

    #[test]
    fn reference_in_production_rule() {
        let bad = "fn f() { let _ = crate::reference::build_scalar(&m, &d); }\n";
        for path in [
            "crates/core/src/train.rs",
            "crates/serve/src/service.rs",
            "crates/cli/src/commands.rs",
            "crates/datasets/src/synthetic.rs",
            "crates/eval/src/ranking.rs",
            "crates/ffm/src/model.rs",
        ] {
            assert_eq!(rules_of(&run(path, bad)), ["reference-in-production"]);
        }
        let import = "use upskill_core::reference::{assign_all_direct, build_scalar};\n";
        assert_eq!(
            rules_of(&run("crates/cli/src/main.rs", import)),
            ["reference-in-production"]
        );
        // The oracles' own module, the bench crate, tests and docs are fine.
        assert!(run("crates/core/src/reference.rs", bad).is_empty());
        assert!(run("crates/bench/src/bin/bench_emission.rs", import).is_empty());
        let test_only =
            "#[cfg(test)]\nmod tests { fn f() { crate::reference::build_scalar(); } }\n";
        assert!(run("crates/core/src/emission.rs", test_only).is_empty());
        let doc = "/// Oracle: [`crate::reference::build_scalar`].\npub fn f() {}\n";
        assert!(run("crates/core/src/emission.rs", doc).is_empty());
        // Word-bounded: a module that merely ends in `reference` is not it.
        let other = "fn f() { cross_reference::lookup(); }\n";
        assert!(run("crates/core/src/train.rs", other).is_empty());
    }

    #[test]
    fn raw_spawn_rule() {
        for bad in [
            "fn f() { std::thread::scope(|s| { s.spawn(|| ()); }); }\n",
            "fn f() { let _ = thread::spawn(|| ()); }\n",
            "fn f() { let _ = std::thread::Builder::new(); }\n",
        ] {
            for path in [
                "crates/core/src/emission.rs",
                "crates/eval/src/upskilling.rs",
            ] {
                assert_eq!(rules_of(&run(path, bad)), ["raw-spawn"], "{path}: {bad}");
            }
            // The fan-out's home, the bench crate and tests are exempt.
            assert!(run("crates/core/src/parallel.rs", bad).is_empty());
            assert!(run("crates/bench/src/bin/bench_serve.rs", bad).is_empty());
            let test_only = format!("#[cfg(test)]\nmod tests {{ {bad} }}\n");
            assert!(run("crates/core/src/pool.rs", &test_only).is_empty());
        }
        let marked = "// lint:allow(raw-spawn): client lanes, not a work split.\n\
                      fn f() { std::thread::scope(|_| ()); }\n";
        assert!(run("crates/cli/src/commands.rs", marked).is_empty());
        // Word-bounded: neither `available_parallelism` nor a look-alike.
        let ok = "fn f() { let _ = std::thread::available_parallelism(); my_thread::spawn(); }\n";
        assert!(run("crates/cli/src/commands.rs", ok).is_empty());
    }

    #[test]
    fn fit_outside_dist_rule() {
        for bad in [
            "fn f(s: f64, w: f64) -> Result<Poisson> { Poisson::new(s / w) }\n",
            "fn f(k: f64, m: f64) -> Result<Gamma> { crate::dist::Gamma::new(k, m / k) }\n",
            "fn f(v: &[f64]) -> Vec<Result<LogNormal>> { v.iter().map(|&m| LogNormal::new(m, 1.0)).collect() }\n",
            "fn f(r: &[f64]) { let _: Vec<_> = r.iter().copied().map(Poisson::new).collect(); }\n",
        ] {
            for path in [
                "crates/core/src/em.rs",
                "crates/core/src/reference.rs",
                "crates/serve/src/service.rs",
                "crates/datasets/src/synthetic.rs",
            ] {
                assert_eq!(
                    rules_of(&run(path, bad)),
                    ["fit-outside-dist"],
                    "{path}: {bad}"
                );
            }
            // The fits' home, the bench crate and tests are exempt.
            assert!(run("crates/core/src/dist/mod.rs", bad).is_empty());
            assert!(run("crates/core/src/dist/gamma.rs", bad).is_empty());
            assert!(run("crates/bench/src/bin/bench_emission.rs", bad).is_empty());
            let test_only = format!("#[cfg(test)]\nmod tests {{ {bad} }}\n");
            assert!(run("crates/core/src/model.rs", &test_only).is_empty());
        }
        // The families' fits, and look-alike names, are fine.
        let ok = "fn f(s: f64, n: f64) { let _ = Poisson::fit_from_moments(s, n); \
                  let _ = MyGamma::new(1.0); let _ = Poisson::new_table(); }\n";
        assert!(run("crates/core/src/em.rs", ok).is_empty());
    }

    #[test]
    fn unused_pub_rule() {
        let unused = |text: &str, outside: &str| {
            let file = SourceFile::from_source(Path::new("crates/core/src/model.rs"), text);
            let other = SourceFile::from_source(Path::new("tests/use.rs"), outside);
            let mut out = file.marker_diags.clone();
            unused_pub(&file, &ident_tokens(&other.masked).collect(), &mut out);
            out
        };
        let items = concat!(
            "pub fn fit(x: f64) -> Fit { Fit(x) }\n",
            "pub const fn zero() -> u8 { 0 }\n",
            "pub struct Fit(pub f64);\n",
        );
        let lines = |d: Vec<Diagnostic>| d.iter().map(|d| d.line).collect::<Vec<_>>();
        // Flagged with no outside use; a doc or string mention is no use.
        assert_eq!(lines(unused(items, "")), [1, 2, 3]);
        assert_eq!(
            lines(unused(items, "/// fit zero Fit\nlet s = \"fit\";")),
            [1, 2, 3]
        );
        // Clean with an outside use.
        assert!(unused(items, "use core::model::{fit, zero}; let f: Fit;").is_empty());
        // Clean with a marker; a marker on a used item is flagged.
        let marked = concat!(
            "pub fn fit(x: f64) -> Fit { Fit(x) }\n",
            "// lint:allow(unused-pub): returned by `fit`.\n",
            "/// A fit.\n",
            "#[derive(Debug)]\n",
            "pub struct Fit(pub f64);\n",
        );
        assert!(unused(marked, "fit(1.0)").is_empty());
        let stale = unused(marked, "let f: Fit = fit(1.0);");
        assert_eq!(lines(stale.clone()), [5]);
        assert!(stale[0].message.contains("remove its"), "{stale:?}");
        // A marker that covers no bare `pub` item is flagged too.
        let orphan = "// lint:allow(unused-pub): nothing here.\npub(crate) fn f() {}\n";
        assert_eq!(lines(unused(orphan, "")), [2]);
        // `pub(crate)`, `pub use`, `pub mod`, fields and test code are ignored.
        let ignored = concat!(
            "pub(crate) fn f() {}\n",
            "pub use crate::x::Y;\n",
            "pub mod inner;\n",
            "struct S { pub field: u8 }\n",
            "#[cfg(test)]\nmod tests { pub fn helper() {} }\n",
        );
        assert!(unused(ignored, "").is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_never_fire() {
        let text = concat!(
            "fn f() {\n",
            "    let msg = \"call .unwrap() or x == 0.0\";\n",
            "    // commented: panic!(\"x\"); v[i]; x == 1.0\n",
            "    let _ = msg;\n",
            "}\n",
        );
        assert!(run("crates/core/src/assign.rs", text).is_empty());
    }
}
