//! Lexical model of one Rust source file.
//!
//! The lint rules are token-level, so before any rule runs the file is
//! *masked*: string/char-literal contents and comments are blanked out
//! (byte-for-byte, newlines preserved) so that rule tokens inside them
//! can never fire and brace matching is reliable. On top of the masked
//! text we compute line starts, `#[cfg(test)]` item spans, and the
//! `lint:allow` suppression markers found in comments.

use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::Diagnostic;

/// A `lint:allow` marker extracted from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Marker {
    /// `// lint:allow(rule): reason` — suppresses `rule` on the next
    /// non-blank code line (comment-only lines are skipped).
    Line {
        /// Rule being allowed.
        rule: String,
        /// 1-based line the marker sits on.
        line: usize,
    },
    /// `// lint:allow-block(rule): reason`.
    BlockStart {
        /// Rule being allowed.
        rule: String,
        /// 1-based line the marker sits on.
        line: usize,
    },
    /// `// lint:end-allow-block(rule)`.
    BlockEnd {
        /// Rule whose block ends here.
        rule: String,
        /// 1-based line the marker sits on.
        line: usize,
    },
}

/// A parsed, masked source file plus everything the rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Root-relative path, used in diagnostics.
    pub path: PathBuf,
    /// Masked text: literals and comments blanked, offsets preserved.
    pub masked: String,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
    /// Byte ranges of `#[cfg(test)]` items (their `{ … }` bodies).
    test_spans: Vec<Range<usize>>,
    /// Suppression markers found in comments.
    pub markers: Vec<Marker>,
    /// Diagnostics for malformed markers (rule `lint-marker`).
    pub marker_diags: Vec<Diagnostic>,
    /// Per-marker resolved suppressions: (rule, suppressed line).
    suppressed: Vec<(String, usize)>,
}

impl SourceFile {
    /// Parses `text` as the contents of `path` (root-relative).
    pub fn from_source(path: &Path, text: &str) -> Self {
        let (masked, comments) = mask(text);
        let line_starts = line_starts(text);
        let mut file = SourceFile {
            path: path.to_path_buf(),
            masked,
            line_starts,
            test_spans: Vec::new(),
            markers: Vec::new(),
            marker_diags: Vec::new(),
            suppressed: Vec::new(),
        };
        file.test_spans = find_test_spans(&file.masked);
        file.collect_markers(&comments);
        file.resolve_suppressions();
        file
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether `offset` falls inside a `#[cfg(test)]` item body.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_spans.iter().any(|s| s.contains(&offset))
    }

    /// Whether `rule` is suppressed by a marker on `line`.
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressed.iter().any(|(r, l)| r == rule && *l == line)
    }

    /// Emits a diagnostic at `offset` unless tests or markers exempt it.
    pub fn report(
        &self,
        out: &mut Vec<Diagnostic>,
        offset: usize,
        rule: &'static str,
        message: String,
    ) {
        if self.in_test(offset) {
            return;
        }
        let line = self.line_of(offset);
        if !self.is_suppressed(rule, line) {
            out.push(self.diagnostic(line, rule, message));
        }
    }

    /// A diagnostic at `line` of this file, with no exemption applied.
    pub(crate) fn diagnostic(
        &self,
        line: usize,
        rule: &'static str,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            path: self.path.clone(),
            line,
            rule,
            message,
        }
    }

    /// The code lines that `rule`'s single-line markers cover.
    pub(crate) fn marker_targets(&self, rule: &str) -> Vec<usize> {
        self.markers
            .iter()
            .filter_map(|m| match m {
                Marker::Line { rule: r, line } if r == rule => self.next_code_line(*line),
                _ => None,
            })
            .collect()
    }

    fn collect_markers(&mut self, comments: &[(usize, String)]) {
        for (offset, text) in comments {
            // Markers live in plain comments only; doc comments are rendered
            // prose and may legitimately *describe* the marker syntax.
            let is_doc = ["///", "//!", "/**", "/*!"]
                .iter()
                .any(|p| text.starts_with(p));
            if is_doc {
                continue;
            }
            let line = self.line_of(*offset);
            // One comment may be a multi-line block; scan each line of it.
            for (i, comment_line) in text.lines().enumerate() {
                self.collect_markers_on_line(comment_line, line + i);
            }
        }
    }

    fn collect_markers_on_line(&mut self, text: &str, line: usize) {
        let Some(pos) = text.find("lint:") else {
            return;
        };
        let marker = &text[pos..];
        let bad = |msg: &str| Diagnostic {
            path: self.path.clone(),
            line,
            rule: "lint-marker",
            message: msg.to_string(),
        };
        let parse = |rest: &str, needs_reason: bool| -> Result<String, Diagnostic> {
            let Some(rest) = rest.strip_prefix('(') else {
                return Err(bad("malformed marker: expected `(rule-id)`"));
            };
            let Some(close) = rest.find(')') else {
                return Err(bad("malformed marker: unclosed `(`"));
            };
            let rule = &rest[..close];
            if !crate::rules::RULE_IDS.contains(&rule) {
                return Err(bad(&format!("unknown rule id {rule:?} in marker")));
            }
            if needs_reason {
                let after = rest[close + 1..].trim_start();
                let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
                if reason.is_empty() {
                    return Err(bad("marker needs a `: reason` after the rule id"));
                }
            }
            Ok(rule.to_string())
        };
        // Longest prefix first: `allow-block` contains `allow`.
        let result = if let Some(rest) = marker.strip_prefix("lint:end-allow-block") {
            parse(rest, false).map(|rule| Marker::BlockEnd { rule, line })
        } else if let Some(rest) = marker.strip_prefix("lint:allow-block") {
            parse(rest, true).map(|rule| Marker::BlockStart { rule, line })
        } else if let Some(rest) = marker.strip_prefix("lint:allow") {
            parse(rest, true).map(|rule| Marker::Line { rule, line })
        } else {
            // The prefix matched but no verb did — likely a typo such as
            // a misspelled `allow`.
            Err(bad("unrecognized marker verb after the marker prefix"))
        };
        match result {
            Ok(marker) => self.markers.push(marker),
            Err(diag) => self.marker_diags.push(diag),
        }
    }

    fn resolve_suppressions(&mut self) {
        let mut open: Vec<(String, usize)> = Vec::new();
        for marker in self.markers.clone() {
            match marker {
                Marker::Line { rule, line } => {
                    if let Some(target) = self.next_code_line(line) {
                        self.suppressed.push((rule, target));
                    }
                }
                Marker::BlockStart { rule, line } => open.push((rule, line)),
                Marker::BlockEnd { rule, line } => {
                    match open.iter().rposition(|(r, _)| *r == rule) {
                        Some(i) => {
                            let (rule, start) = open.remove(i);
                            for l in start..=line {
                                self.suppressed.push((rule.clone(), l));
                            }
                        }
                        None => self.marker_diags.push(Diagnostic {
                            path: self.path.clone(),
                            line,
                            rule: "lint-marker",
                            message: format!("end-allow-block({rule}) without a matching start"),
                        }),
                    }
                }
            }
        }
        for (rule, line) in open {
            self.marker_diags.push(Diagnostic {
                path: self.path.clone(),
                line,
                rule: "lint-marker",
                message: format!("allow-block({rule}) is never closed"),
            });
        }
    }

    /// First line after `line` with non-blank masked content (skips lines
    /// that were comment-only before masking).
    fn next_code_line(&self, line: usize) -> Option<usize> {
        (line + 1..=self.line_starts.len()).find(|&l| !self.line_text(l).trim().is_empty())
    }

    /// Masked text of a 1-based line.
    pub fn line_text(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(self.masked.len());
        self.masked[start..end].trim_end_matches('\n')
    }
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' && i + 1 < text.len() {
            starts.push(i + 1);
        }
    }
    starts
}

/// Blanks out string/char-literal contents and comments, preserving byte
/// offsets and newlines. Returns the masked text plus the comments (start
/// offset + original text) for marker extraction.
fn mask(text: &str) -> (String, Vec<(usize, String)>) {
    let bytes = text.as_bytes();
    let mut masked = bytes.to_vec();
    let mut comments = Vec::new();
    let blank = |masked: &mut [u8], range: Range<usize>| {
        for b in &mut masked[range] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    let mut i = 0;
    let mut prev_ident = false;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                comments.push((start, text[start..i].to_string()));
                blank(&mut masked, start..i);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                comments.push((start, text[start..i].to_string()));
                blank(&mut masked, start..i);
            }
            b'"' => {
                i = skip_string(bytes, i, &mut masked);
            }
            b'r' | b'b' if !prev_ident => {
                i = skip_prefixed_literal(bytes, i, &mut masked);
            }
            b'\'' => {
                i = skip_char_or_lifetime(text, bytes, i, &mut masked);
            }
            _ => i += 1,
        }
        prev_ident = i > 0
            && i <= bytes.len()
            && matches!(bytes[i - 1], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_');
    }
    (
        String::from_utf8(masked).expect("masking preserves UTF-8"),
        comments,
    )
}

/// Skips a normal `"…"` string starting at `i`, blanking its contents.
fn skip_string(bytes: &[u8], start: usize, masked: &mut [u8]) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    for b in &mut masked[start + 1..i.saturating_sub(1).max(start + 1)] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
    i
}

/// Skips `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, or `b'…'` starting at the
/// prefix byte; falls through (no-op) if it is a plain identifier.
fn skip_prefixed_literal(bytes: &[u8], start: usize, masked: &mut [u8]) -> usize {
    let mut i = start + 1;
    if bytes[start] == b'b' && bytes.get(i) == Some(&b'r') {
        i += 1;
    }
    if bytes[start] == b'b' && bytes.get(i) == Some(&b'\'') {
        // Byte char literal b'x' / b'\n'.
        let mut j = i + 1;
        while j < bytes.len() {
            match bytes[j] {
                b'\\' => j += 2,
                b'\'' => {
                    j += 1;
                    break;
                }
                _ => j += 1,
            }
        }
        for b in &mut masked[i + 1..j.saturating_sub(1).max(i + 1)] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        return j;
    }
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return start + 1; // identifier starting with r/b, not a literal
    }
    if hashes == 0 && bytes[start] != b'r' && bytes.get(start + 1) != Some(&b'r') {
        // b"…" — ordinary escapes apply.
        let end = skip_string(bytes, i, masked);
        return end;
    }
    // Raw string: ends at `"` + hashes `#`s, no escapes.
    let body_start = i + 1;
    let mut j = body_start;
    'scan: while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = 0;
            while k < hashes {
                if bytes.get(j + 1 + k) != Some(&b'#') {
                    j += 1;
                    continue 'scan;
                }
                k += 1;
            }
            for b in &mut masked[body_start..j] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
            return j + 1 + hashes;
        }
        j += 1;
    }
    j
}

/// Distinguishes `'x'` / `'\n'` char literals from `'lifetime` markers.
fn skip_char_or_lifetime(text: &str, bytes: &[u8], start: usize, masked: &mut [u8]) -> usize {
    if bytes.get(start + 1) == Some(&b'\\') {
        // Escaped char literal: scan to the closing quote.
        let mut i = start + 2;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'\'' => {
                    i += 1;
                    for b in &mut masked[start + 1..i - 1] {
                        *b = b' ';
                    }
                    return i;
                }
                _ => i += 1,
            }
        }
        return i;
    }
    // Unescaped: a char literal is exactly `'` + one char + `'`.
    if let Some(c) = text[start + 1..].chars().next() {
        let after = start + 1 + c.len_utf8();
        if bytes.get(after) == Some(&b'\'') {
            for b in &mut masked[start + 1..after] {
                *b = b' ';
            }
            return after + 1;
        }
    }
    start + 1 // lifetime or label: leave as-is
}

/// Byte ranges of the `{ … }` bodies of `#[cfg(test)]` items.
fn find_test_spans(masked: &str) -> Vec<Range<usize>> {
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(pos) = masked[from..].find("#[cfg(test)]") {
        let attr_start = from + pos;
        let mut i = attr_start + "#[cfg(test)]".len();
        // Skip whitespace and any further attributes before the item.
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if bytes.get(i) == Some(&b'#') && bytes.get(i + 1) == Some(&b'[') {
                let mut depth = 0usize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        // The item body is the first `{ … }` before any `;`.
        while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b';' {
            i += 1;
        }
        if bytes.get(i) == Some(&b'{') {
            if let Some(end) = match_brace(bytes, i) {
                spans.push(i..end);
                from = end;
                continue;
            }
        }
        from = attr_start + 1;
    }
    spans
}

/// Offset one past the `}` matching the `{` at `open` (masked text).
pub fn match_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::from_source(Path::new("crates/core/src/assign.rs"), text)
    }

    #[test]
    fn masking_blanks_strings_comments_and_chars() {
        let f = parse(concat!(
            "let s = \"a[0].unwrap()\"; // x[1] trailing\n",
            "let c = 'x'; let lt: &'static str = \"\";\n",
            "/* block [2]\n   still comment */ let after = 1;\n",
            "let r = r#\"raw [3] \"quote\" \"#;\n",
        ));
        assert!(!f.masked.contains("a[0]"), "{}", f.masked);
        assert!(!f.masked.contains("x[1]"), "{}", f.masked);
        assert!(!f.masked.contains("[2]"), "{}", f.masked);
        assert!(!f.masked.contains("[3]"), "{}", f.masked);
        assert!(f.masked.contains("let after = 1;"));
        assert!(f.masked.contains("&'static str"));
        // Offsets preserved: same length, same newline positions.
        assert_eq!(f.masked.len(), f.masked.len());
        assert_eq!(f.line_of(0), 1);
    }

    #[test]
    fn test_spans_cover_cfg_test_modules() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x[0]; }\n}\n";
        let f = parse(text);
        let idx = text.find("x[0]").unwrap();
        assert!(f.in_test(idx));
        assert!(!f.in_test(0));
    }

    #[test]
    fn line_marker_skips_comment_lines() {
        let text = concat!(
            "// lint:allow(hot-loop-index): continued\n",
            "// over two comment lines.\n",
            "a[0] = 1;\n",
        );
        let f = parse(text);
        assert!(f.is_suppressed("hot-loop-index", 3));
        assert!(!f.is_suppressed("hot-loop-index", 2));
        assert!(f.marker_diags.is_empty(), "{:?}", f.marker_diags);
    }

    #[test]
    fn block_markers_must_pair() {
        let ok = parse(
            "// lint:allow-block(float-eq): scoped\nlet a = x == 0.0;\n// lint:end-allow-block(float-eq)\n",
        );
        assert!(ok.marker_diags.is_empty(), "{:?}", ok.marker_diags);
        assert!(ok.is_suppressed("float-eq", 2));

        let unclosed = parse("// lint:allow-block(float-eq): scoped\nlet a = 1;\n");
        assert_eq!(unclosed.marker_diags.len(), 1);
        assert!(unclosed.marker_diags[0].message.contains("never closed"));

        let orphan = parse("// lint:end-allow-block(float-eq)\n");
        assert_eq!(orphan.marker_diags.len(), 1);
        assert!(orphan.marker_diags[0]
            .message
            .contains("without a matching start"));
    }

    #[test]
    fn malformed_markers_are_diagnosed() {
        let unknown = parse("// lint:allow(no-such-rule): whatever\nlet a = 1;\n");
        assert_eq!(unknown.marker_diags.len(), 1);
        assert!(unknown.marker_diags[0].message.contains("unknown rule id"));

        let no_reason = parse("// lint:allow(float-eq)\nlet a = 1;\n");
        assert_eq!(no_reason.marker_diags.len(), 1);
        assert!(no_reason.marker_diags[0].message.contains("reason"));

        let typo = parse("// lint:alow(float-eq): oops\n");
        assert_eq!(typo.marker_diags.len(), 1);
    }
}
