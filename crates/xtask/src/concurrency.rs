//! Lock-discipline rules and the intra-crate lock-order graph.
//!
//! The serving layer's lock protocol (DESIGN.md §15) is short: per-user
//! shard locks order before the one global fitting-state lock, nothing
//! holds a guard across an `EpochCell` publish, every acquisition goes
//! through the poison-recovering helpers, and guards never escape the
//! function that took them. These rules turn that prose into machine
//! checks on the same masked text the base lints use:
//!
//! | rule | requirement |
//! |---|---|
//! | `lock-order` | the global lock is never acquired while a shard guard is lexically live, and vice versa (the audited all-shards snapshot path carries a `lint:allow` marker) |
//! | `lock-across-publish` | no lock guard is lexically live across an `EpochCell::publish` (or a `.swap(…)` on epoch state) |
//! | `raw-lock` | no bare `.lock().unwrap()`-style acquisition; use `upskill_core::sync::lock` or `TracedMutex::lock` |
//! | `guard-escape` | no `MutexGuard`/`TracedGuard` returned from a function or stored in a struct field |
//!
//! Everything here is a *lexical* approximation: guard scopes run from
//! the acquisition to the first `drop(binding)`, else to the end of the
//! binding's block (unbound guards die with their statement), and the
//! analysis never follows calls. That is deliberate — the protocol is
//! designed to be lexically evident, and code this pass cannot follow
//! is code a reviewer cannot follow either.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::rules::{find_all, find_word_starts, is_ident, normalize};
use crate::source::{match_brace, SourceFile};
use crate::Diagnostic;

/// Files allowed to touch raw `std::sync` acquisition APIs: the blessed
/// helper's own module and the `RwLock`-based epoch cell, both of which
/// implement (rather than use) the poison-recovery discipline.
const RAW_LOCK_EXEMPT: &[&str] = &["crates/core/src/sync.rs", "crates/core/src/epoch.rs"];

/// The module that defines the guard types and helpers themselves.
const GUARD_HOME: &str = "crates/core/src/sync.rs";

/// Guard type names that must not appear in escape positions.
const GUARD_TYPES: &[&str] = &[
    "MutexGuard",
    "TracedGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

/// Which protocol lock an acquisition refers to, judged from the
/// statement text around the call site. The serving layer names its
/// locks `shards`/`global`; anything else is unranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// A per-user shard lock (`self.shards[…]`).
    Shard,
    /// The fitting-state lock (`self.global`).
    Global,
    /// Any other mutex (free lists, schedulers, ad-hoc state).
    Other,
}

impl LockClass {
    /// Node label in the lock-order graph.
    pub fn name(self) -> &'static str {
        match self {
            LockClass::Shard => "shard",
            LockClass::Global => "global",
            LockClass::Other => "other",
        }
    }
}

/// One lock acquisition and the lexical range its guard stays live.
#[derive(Debug)]
pub struct LockSite {
    /// Byte offset of the acquisition token in the masked text.
    pub offset: usize,
    /// Protocol classification of the receiver.
    pub class: LockClass,
    /// The `let` binding holding the guard, when there is one.
    pub binding: Option<String>,
    /// Guard liveness: acquisition to the first `drop(binding)`, else to
    /// the end of the binding's block; unbound guards end with their
    /// statement.
    pub scope: Range<usize>,
}

/// Runs every concurrency rule on one file, appending findings to `out`.
/// Suppression (`#[cfg(test)]`, `lint:allow` markers) is applied by
/// [`SourceFile::report`] exactly as for the base rules.
pub fn run_rules(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let path = normalize(&file.path);
    raw_lock(file, &path, out);
    guard_escape(file, &path, out);
    for f in fn_spans(&file.masked) {
        let sites = lock_sites(&file.masked, &f.body);
        lock_order(file, &sites, out);
        lock_across_publish(file, &f.body, &sites, out);
    }
}

/// The lexical lock-order graph of one file: directed edges
/// `(held, acquired)` for every pair where the second lock is taken
/// inside the first guard's live range. Test code is excluded;
/// `lint:allow`-suppressed sites are **not** — the graph documents the
/// allowlisted snapshot path too.
pub fn lock_order_graph(file: &SourceFile) -> BTreeSet<(&'static str, &'static str)> {
    let mut edges = BTreeSet::new();
    for f in fn_spans(&file.masked) {
        let sites = lock_sites(&file.masked, &f.body);
        for held in &sites {
            if file.in_test(held.offset) {
                continue;
            }
            for next in &sites {
                if next.offset > held.offset && held.scope.contains(&next.offset) {
                    edges.insert((held.class.name(), next.class.name()));
                }
            }
        }
    }
    edges
}

// --- rule: lock-order ---------------------------------------------------

fn lock_order(file: &SourceFile, sites: &[LockSite], out: &mut Vec<Diagnostic>) {
    for held in sites {
        for next in sites {
            if next.offset <= held.offset || !held.scope.contains(&next.offset) {
                continue;
            }
            let message = match (held.class, next.class) {
                (LockClass::Shard, LockClass::Global) => {
                    "global lock acquired while a shard guard is live; drop the shard guard \
                     first (the audited all-shards snapshot path carries a lint:allow marker)"
                }
                (LockClass::Global, LockClass::Shard) => {
                    "shard lock acquired while the global guard is live; the protocol order \
                     is shards (ascending) before global"
                }
                _ => continue,
            };
            file.report(out, next.offset, "lock-order", message.to_string());
        }
    }
}

// --- rule: lock-across-publish ------------------------------------------

fn lock_across_publish(
    file: &SourceFile,
    body: &Range<usize>,
    sites: &[LockSite],
    out: &mut Vec<Diagnostic>,
) {
    let text = &file.masked[body.clone()];
    let mut publishes: Vec<usize> = find_all(text, ".publish(");
    publishes.extend(find_all(text, ".swap("));
    for p in publishes {
        let abs = body.start + p;
        for site in sites {
            if site.offset < abs && site.scope.contains(&abs) {
                file.report(
                    out,
                    abs,
                    "lock-across-publish",
                    format!(
                        "epoch publish while a {} lock guard is lexically live; build the new \
                         value, drop the guard, then publish",
                        site.class.name()
                    ),
                );
            }
        }
    }
}

// --- rule: raw-lock -----------------------------------------------------

fn raw_lock(file: &SourceFile, path: &str, out: &mut Vec<Diagnostic>) {
    if RAW_LOCK_EXEMPT.contains(&path) {
        return;
    }
    const TOKENS: &[&str] = &[
        ".lock().unwrap()",
        ".lock().expect(",
        ".lock().unwrap_or_else(",
        ".read().unwrap()",
        ".read().expect(",
        ".read().unwrap_or_else(",
        ".write().unwrap()",
        ".write().expect(",
        ".write().unwrap_or_else(",
    ];
    for &token in TOKENS {
        for p in find_all(&file.masked, token) {
            let shown = token.trim_end_matches('(');
            file.report(
                out,
                p,
                "raw-lock",
                format!(
                    "bare `{shown}` acquisition; go through the poison-recovering \
                     `upskill_core::sync::lock` (or `TracedMutex`)"
                ),
            );
        }
    }
}

// --- rule: guard-escape -------------------------------------------------

fn guard_escape(file: &SourceFile, path: &str, out: &mut Vec<Diagnostic>) {
    if path == GUARD_HOME {
        return;
    }
    let masked = &file.masked;
    // Returned guards: a guard type in a signature's return position.
    for f in fn_spans(masked) {
        let sig = &masked[f.sig.clone()];
        let Some(arrow) = sig.find("->") else {
            continue;
        };
        for &ty in GUARD_TYPES {
            for p in find_word_starts(&sig[arrow..], ty) {
                file.report(
                    out,
                    f.sig.start + arrow + p,
                    "guard-escape",
                    format!("function returns a `{ty}`; lock guards must not escape their acquiring function"),
                );
            }
        }
    }
    // Stored guards: a guard type in a struct body.
    for body in struct_bodies(masked) {
        for &ty in GUARD_TYPES {
            for p in find_word_starts(&masked[body.clone()], ty) {
                file.report(
                    out,
                    body.start + p,
                    "guard-escape",
                    format!("`{ty}` stored in a struct field; a guard must not outlive its acquiring function"),
                );
            }
        }
    }
}

// --- lexical machinery --------------------------------------------------

/// A function item: signature (from the `fn` keyword) plus braced body.
struct FnSpan {
    /// `fn` keyword through the byte before the body `{`.
    sig: Range<usize>,
    /// The body, including both braces.
    body: Range<usize>,
}

/// Every `fn` item with a body, nested ones included.
fn fn_spans(masked: &str) -> Vec<FnSpan> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for start in find_word_starts(masked, "fn") {
        let mut i = start + 2;
        if bytes.get(i).copied().is_some_and(is_ident) {
            continue; // e.g. `fname` — not the keyword
        }
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if !bytes.get(i).copied().is_some_and(is_ident) {
            continue; // `fn(…)` pointer type, not a definition
        }
        // Scan the signature to the body `{`; `;` ends a bodyless decl.
        let (mut paren, mut bracket) = (0i32, 0i32);
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
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        if let Some(end) = match_brace(bytes, open) {
            out.push(FnSpan {
                sig: start..open,
                body: open..end,
            });
        }
    }
    out
}

/// Every lock acquisition in `body`: `.lock()` method calls plus calls
/// to the free poison-recovering helper (`lock(…)`, `sync::lock(…)`).
fn lock_sites(masked: &str, body: &Range<usize>) -> Vec<LockSite> {
    let bytes = masked.as_bytes();
    let text = &masked[body.clone()];
    let mut offsets: Vec<usize> = find_all(text, ".lock()")
        .into_iter()
        .map(|p| body.start + p)
        .collect();
    for p in find_word_starts(text, "lock(") {
        let abs = body.start + p;
        if abs > 0 && bytes[abs - 1] == b'.' {
            continue; // a `.lock(…)` method call with arguments
        }
        if preceding_word(masked, abs) == "fn" {
            continue; // the helper's own definition
        }
        offsets.push(abs);
    }
    offsets.sort_unstable();
    offsets.dedup();
    offsets
        .into_iter()
        .map(|offset| site_at(masked, body, offset))
        .collect()
}

/// Builds the [`LockSite`] for the acquisition token at `offset`.
fn site_at(masked: &str, body: &Range<usize>, offset: usize) -> LockSite {
    let bytes = masked.as_bytes();
    let start = stmt_start(bytes, body, offset);
    let end = stmt_end(bytes, body, offset);
    let class = classify(&masked[start..end]);
    // `let p = self.global.lock().policy;` binds the *projection*, not
    // the guard — the guard is a temporary that dies with the statement.
    let binding = if is_projection(bytes, call_end(masked, offset)) {
        None
    } else {
        binding_of(&masked[start..offset])
    };
    let scope_end = match &binding {
        Some(name) => {
            let block_end = enclosing_block_end(bytes, body, offset);
            drop_site(masked, offset, block_end, name).unwrap_or(block_end)
        }
        None => end,
    };
    LockSite {
        offset,
        class,
        binding,
        scope: offset..scope_end,
    }
}

/// Classifies an acquisition by its surrounding statement text.
fn classify(stmt: &str) -> LockClass {
    if stmt.contains("global") {
        LockClass::Global
    } else if stmt.contains("shard") {
        LockClass::Shard
    } else {
        LockClass::Other
    }
}

/// Walks back from `offset` to the byte after the previous statement
/// boundary (`;`, `{`, or `}`).
fn stmt_start(bytes: &[u8], body: &Range<usize>, offset: usize) -> usize {
    let mut i = offset;
    while i > body.start && !matches!(bytes[i - 1], b';' | b'{' | b'}') {
        i -= 1;
    }
    i
}

/// Walks forward from `offset` to just past the statement's `;`, or to
/// the `}` that closes the enclosing block.
fn stmt_end(bytes: &[u8], body: &Range<usize>, offset: usize) -> usize {
    let mut depth = 0i32;
    let mut i = offset;
    while i < body.end {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => depth -= 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            b';' if depth <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    body.end
}

/// Offset one past the acquisition call: past `.lock()`, or past the
/// helper's closing `)`.
fn call_end(masked: &str, offset: usize) -> usize {
    if masked[offset..].starts_with(".lock()") {
        offset + ".lock()".len()
    } else {
        // Helper form `lock(…)`: the `(` sits at the token's end.
        let open = offset + "lock".len();
        matching_paren(masked.as_bytes(), open).unwrap_or(masked.len())
    }
}

/// Whether the expression continues with a field access (`.ident` not
/// followed by `(`) — the value kept is a projection out of the guard,
/// so the guard itself dies at the end of the statement.
fn is_projection(bytes: &[u8], mut i: usize) -> bool {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if bytes.get(i) != Some(&b'.') {
        return false;
    }
    i += 1;
    let start = i;
    while i < bytes.len() && is_ident(bytes[i]) {
        i += 1;
    }
    i > start && bytes.get(i) != Some(&b'(')
}

/// The identifier a plain `let NAME = …` statement binds; tuple/struct
/// patterns and non-`let` statements yield `None` (unbound guard).
fn binding_of(prefix: &str) -> Option<String> {
    let rest = prefix.trim_start().strip_prefix("let ")?.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .bytes()
        .take_while(|&b| is_ident(b))
        .map(char::from)
        .collect();
    if name.is_empty() || name == "_" {
        None
    } else {
        Some(name)
    }
}

/// Offset of the first `drop(name)` between `from` and `to`, if any.
fn drop_site(masked: &str, from: usize, to: usize, name: &str) -> Option<usize> {
    let window = &masked[from..to];
    let bytes = window.as_bytes();
    for p in find_word_starts(window, "drop") {
        let mut i = p + 4;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if bytes.get(i) != Some(&b'(') {
            continue;
        }
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let ident: String = window[i..]
            .bytes()
            .take_while(|&b| is_ident(b))
            .map(char::from)
            .collect();
        if ident == name {
            return Some(from + p);
        }
    }
    None
}

/// Offset of the `}` closing the innermost block containing `offset`.
fn enclosing_block_end(bytes: &[u8], body: &Range<usize>, offset: usize) -> usize {
    let mut stack = Vec::new();
    let mut i = body.start;
    while i < body.end {
        match bytes[i] {
            b'{' => stack.push(i),
            b'}' => {
                let open = stack.pop().unwrap_or(body.start);
                if open <= offset && offset < i {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    body.end
}

/// The identifier (or keyword) token immediately before `offset`.
fn preceding_word(masked: &str, offset: usize) -> &str {
    let bytes = masked.as_bytes();
    let mut end = offset;
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    &masked[start..end]
}

/// Body ranges of every `struct` with a braced or tuple body.
fn struct_bodies(masked: &str) -> Vec<Range<usize>> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for start in find_word_starts(masked, "struct") {
        let mut i = start + 6;
        if bytes.get(i).copied().is_some_and(is_ident) {
            continue;
        }
        // Scan past name + generics to the body opener. Angle depth is
        // tracked so `Fn(…)` bounds inside generics don't read as a
        // tuple body; `->` is skipped so its `>` doesn't unbalance.
        let (mut paren, mut angle) = (0i32, 0i32);
        let mut opener = None;
        while i < bytes.len() {
            match bytes[i] {
                b'-' if bytes.get(i + 1) == Some(&b'>') => i += 1,
                b'<' => angle += 1,
                b'>' => angle -= 1,
                b'(' if angle == 0 && paren == 0 => {
                    opener = Some((i, b')'));
                    break;
                }
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'{' if angle == 0 && paren == 0 => {
                    opener = Some((i, b'}'));
                    break;
                }
                b';' if angle == 0 && paren == 0 => break, // unit struct
                _ => {}
            }
            i += 1;
        }
        let Some((open, close)) = opener else {
            continue;
        };
        let end = if close == b'}' {
            match_brace(bytes, open)
        } else {
            matching_paren(bytes, open)
        };
        if let Some(end) = end {
            out.push(open..end);
        }
    }
    out
}

/// Offset one past the `)` matching the `(` at `open`.
fn matching_paren(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
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
    use std::path::Path;

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile::from_source(Path::new(path), text)
    }

    fn run(path: &str, text: &str) -> Vec<Diagnostic> {
        let f = file(path, text);
        let mut out = Vec::new();
        run_rules(&f, &mut out);
        out
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn lock_order_catches_global_under_shard_guard() {
        let text = concat!(
            "fn bad(&self) {\n",
            "    let shard = self.shards[0].lock();\n",
            "    let g = self.global.lock();\n",
            "}\n",
        );
        assert_eq!(
            rules_of(&run("crates/serve/src/x.rs", text)),
            ["lock-order"]
        );
        // Dropping the shard guard first is the documented protocol.
        let ok = concat!(
            "fn good(&self) {\n",
            "    let shard = self.shards[0].lock();\n",
            "    drop(shard);\n",
            "    let g = self.global.lock();\n",
            "}\n",
        );
        assert!(run("crates/serve/src/x.rs", ok).is_empty());
    }

    #[test]
    fn lock_order_catches_shard_under_global_guard() {
        let text = concat!(
            "fn bad(&self) {\n",
            "    let g = self.global.lock();\n",
            "    let s = self.shards[1].lock();\n",
            "}\n",
        );
        assert_eq!(
            rules_of(&run("crates/serve/src/x.rs", text)),
            ["lock-order"]
        );
    }

    #[test]
    fn lock_order_marker_allowlists_the_snapshot_path() {
        let text = concat!(
            "fn snapshot(&self) {\n",
            "    let shards: Vec<_> = self.shards.iter().map(|m| m.lock()).collect();\n",
            "    // lint:allow(lock-order): audited stop-the-world snapshot path.\n",
            "    let g = self.global.lock();\n",
            "}\n",
        );
        assert!(run("crates/serve/src/x.rs", text).is_empty());
        // The graph still records the allowlisted edge.
        let graph = lock_order_graph(&file("crates/serve/src/x.rs", text));
        assert!(graph.contains(&("shard", "global")));
    }

    #[test]
    fn unbound_guards_die_with_their_statement() {
        // A temporary guard in a single expression never overlaps the
        // next acquisition.
        let text = concat!(
            "fn ok(&self) -> RefitPolicy {\n",
            "    let p = self.global.lock().policy;\n",
            "    let s = self.shards[0].lock();\n",
            "    p\n",
            "}\n",
        );
        assert!(run("crates/serve/src/x.rs", text).is_empty());
    }

    #[test]
    fn publish_under_guard_is_caught() {
        let text = concat!(
            "fn bad(&self) {\n",
            "    let shard = self.shards[0].lock();\n",
            "    self.epoch.publish(next);\n",
            "}\n",
        );
        assert_eq!(
            rules_of(&run("crates/serve/src/x.rs", text)),
            ["lock-across-publish"]
        );
        let ok = concat!(
            "fn good(&self) {\n",
            "    let shard = self.shards[0].lock();\n",
            "    let next = build(&shard);\n",
            "    drop(shard);\n",
            "    self.epoch.publish(next);\n",
            "}\n",
        );
        assert!(run("crates/serve/src/x.rs", ok).is_empty());
    }

    #[test]
    fn refit_publishes_after_dropping_the_reacquired_guard() {
        // The cut/fit/install refit: the guard taken for the cut is
        // dropped before the fit, and the one re-taken for the install
        // is dropped before the publish.
        let clean = concat!(
            "fn run_refit(&self) -> Result<usize> {\n",
            "    let mut g = self.global.lock();\n",
            "    let cut = g.fit.cut();\n",
            "    drop(g);\n",
            "    let (model, table) = cut.fit(&self.catalog)?;\n",
            "    let mut g = self.global.lock();\n",
            "    g.fit.install(model);\n",
            "    drop(g);\n",
            "    self.epoch.publish(table);\n",
            "    Ok(1)\n",
            "}\n",
        );
        assert!(run("crates/serve/src/x.rs", clean).is_empty());
        // A `&mut Global` parameter hides the caller's guard from this
        // lexical pass, so the refit must take its guards in its own
        // body: then a publish under the re-acquired guard is caught.
        let violation = concat!(
            "fn run_refit(&self) -> Result<usize> {\n",
            "    let mut g = self.global.lock();\n",
            "    let cut = g.fit.cut();\n",
            "    drop(g);\n",
            "    let (model, table) = cut.fit(&self.catalog)?;\n",
            "    let mut g = self.global.lock();\n",
            "    g.fit.install(model);\n",
            "    self.epoch.publish(table);\n",
            "    drop(g);\n",
            "    Ok(1)\n",
            "}\n",
        );
        let diags = run("crates/serve/src/x.rs", violation);
        assert_eq!(rules_of(&diags), ["lock-across-publish"]);
        assert_eq!(diags[0].line, 8, "reported at the publish: {diags:?}");
    }

    #[test]
    fn raw_lock_tokens_fire_outside_the_blessed_modules() {
        let text = "fn f(&self) { let g = self.state.lock().unwrap(); }\n";
        assert_eq!(rules_of(&run("crates/serve/src/x.rs", text)), ["raw-lock"]);
        // The helper module itself implements the recovery.
        assert!(run(
            "crates/core/src/sync.rs",
            "pub fn lock(m: &M) -> G { m.lock().unwrap_or_else(PoisonError::into_inner) }\n"
        )
        .is_empty());
        // The blessed helper call is clean anywhere.
        assert!(run(
            "crates/core/src/pool.rs",
            "fn f(&self) { lock(&self.free).pop(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn guard_escape_flags_returns_and_struct_fields() {
        let ret = "fn leak(&self) -> MutexGuard<'_, u32> { self.m.lock() }\n";
        assert_eq!(
            rules_of(&run("crates/serve/src/x.rs", ret)),
            ["guard-escape"]
        );
        let field = "struct Holder<'a> { g: MutexGuard<'a, u32> }\n";
        assert_eq!(
            rules_of(&run("crates/serve/src/x.rs", field)),
            ["guard-escape"]
        );
        let tuple = "struct Holder<'a>(TracedGuard<'a, u32>);\n";
        assert_eq!(
            rules_of(&run("crates/serve/src/x.rs", tuple)),
            ["guard-escape"]
        );
        // Mentioning a guard type in a local annotation or parameter is
        // not an escape.
        let ok = concat!(
            "struct Fine { n: usize }\n",
            "fn borrow(g: &MutexGuard<'_, u32>) -> u32 { **g }\n",
            "fn local(&self) { let v: Vec<MutexGuard<'_, u32>> = Vec::new(); }\n",
        );
        assert!(run("crates/serve/src/x.rs", ok).is_empty());
    }

    #[test]
    fn real_service_graph_matches_the_documented_order() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../serve/src/service.rs")
            .canonicalize()
            .expect("service.rs exists");
        let text = std::fs::read_to_string(&path).unwrap();
        let f = file("crates/serve/src/service.rs", &text);
        let graph = lock_order_graph(&f);
        // Exactly one edge: shards are held into the global acquisition
        // only on the audited snapshot path. Any new edge is a protocol
        // change and must update this test and DESIGN.md §15.
        let expected: BTreeSet<_> = [("shard", "global")].into_iter().collect();
        assert_eq!(graph, expected, "service.rs lock-order graph changed");
        // And the rules themselves are clean on the real file.
        let mut out = Vec::new();
        run_rules(&f, &mut out);
        assert!(out.is_empty(), "service.rs violations: {out:?}");
    }

    #[test]
    fn sites_classify_by_statement_text() {
        let text = concat!(
            "fn f(&self) {\n",
            "    let s = self.shards[0].lock();\n",
            "    drop(s);\n",
            "    let g = self.global.lock();\n",
            "    drop(g);\n",
            "    let q = lock(&self.queue);\n",
            "}\n",
        );
        let f = file("crates/serve/src/x.rs", text);
        let spans = fn_spans(&f.masked);
        assert_eq!(spans.len(), 1);
        let sites = lock_sites(&f.masked, &spans[0].body);
        let classes: Vec<LockClass> = sites.iter().map(|s| s.class).collect();
        assert_eq!(
            classes,
            [LockClass::Shard, LockClass::Global, LockClass::Other]
        );
        assert_eq!(sites[0].binding.as_deref(), Some("s"));
    }
}
