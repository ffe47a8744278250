//! Workspace automation tasks (`cargo xtask` pattern).
//!
//! Three tasks, all std-only so xtask builds first, fast, and offline:
//!
//! - `lint` — a source-level static analysis pass over every first-party
//!   crate (below).
//! - `concurrency` — the lock-discipline subset of the rules plus the
//!   derived lock-order graph for the serving layer (see
//!   [`concurrency`]).
//! - `bench-floors` — reads the typed `floors` array of every
//!   `reports/BENCH_*.json` and fails when any recorded value misses its
//!   floor or ceiling, so performance acceptance criteria are enforced in
//!   CI, not just printed once (see [`floors`]). A report without a
//!   `floors` array is an error, and a reports directory with zero
//!   reports is a failure, not a vacuous pass.
//!
//! The `lint` task enforces the project's correctness conventions that
//! rustc and clippy cannot express:
//!
//! | rule id              | what it forbids                                          |
//! |----------------------|----------------------------------------------------------|
//! | `core-panic`         | `unwrap`/`expect`/`panic!`/`todo!` in `upskill-core` and `upskill-serve` non-test code |
//! | `hot-loop-index`     | `[idx]` indexing inside DP/accumulator hot loops         |
//! | `hot-loop-cast`      | truncating `as` casts inside those same loops            |
//! | `float-eq`           | `==`/`!=` on floats outside approved comparison helpers  |
//! | `config-literal`     | struct-literal `ParallelConfig`/`EmConfig` outside their builders |
//! | `reference-in-production` | `reference::` oracles named in production crates' non-test code |
//! | `raw-spawn`          | `thread::scope`/`thread::spawn`/`thread::Builder` in production crates outside the fan-out (`parallel.rs`) |
//! | `fit-outside-dist`   | `Gamma::new`/`LogNormal::new`/`Poisson::new` in production crates outside the fits' home (`core/src/dist/`) |
//! | `unused-pub`         | a bare `pub` item of `upskill-core`/`upskill-serve` that no file outside its crate names |
//! | `lock-order`         | global lock acquired while a shard guard is live (or vice versa) |
//! | `lock-across-publish`| a lock guard lexically live across an `EpochCell::publish` |
//! | `raw-lock`           | bare `.lock().unwrap()`-style acquisitions outside the blessed helpers |
//! | `guard-escape`       | `MutexGuard`/`TracedGuard` returned from a function or stored in a struct |
//! | `lint-marker`        | malformed or unmatched `lint:allow` markers              |
//!
//! Intentional exceptions are written in the source as markers:
//!
//! ```text
//! // lint:allow(rule-id): reason          (covers the next code line)
//! // lint:allow-block(rule-id): reason    (covers until the matching end)
//! // lint:end-allow-block(rule-id)
//! ```
//!
//! Diagnostics are machine-readable, one per line:
//! `path:line: [rule-id] message`.

pub mod concurrency;
pub mod engine;
pub mod floors;
pub mod rules;
pub mod source;

use std::fmt;
use std::path::PathBuf;

/// One lint finding, addressable as `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path of the offending file, relative to the lint root.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (see the crate docs table).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}
