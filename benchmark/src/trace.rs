//! In-memory span trace for `--trace 1` runs.
//!
//! A span is one timed call the benchmark made into a layer: its name,
//! start and end (nanoseconds since the run's [`Clock`] origin), its own
//! id, the id of the span that caused it (0 for a root) and the request
//! it belongs to (a round, a trainer iteration, or one client request).
//! Spans stay in per-thread buffers during the run and are written once,
//! as JSON lines, when the run ends.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::hist::Hist;

/// Serving spans longer than this are always kept.
pub const KEEP_OVER_NS: u64 = 1_000_000;
/// Of the shorter serving spans, one request in this many is kept.
pub const SAMPLE_EVERY: u64 = 64;

/// Whether a serving span is kept: every stall, plus a fixed sample.
pub fn keep_serving(duration_ns: u64, request: u64) -> bool {
    duration_ns > KEEP_OVER_NS || request.is_multiple_of(SAMPLE_EVERY)
}

/// The time origin every span of one run is measured from.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.0).as_nanos() as u64
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: u64,
    request: u64,
    thread: u32,
}

/// Span ids, unique across every buffer of the run.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's span buffer.
#[derive(Debug)]
pub struct Spans {
    clock: Clock,
    thread: u32,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty buffer for thread `thread`.
    pub fn new(clock: Clock, thread: u32) -> Self {
        Self {
            clock,
            thread,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose end is not known yet (a parent).
    pub fn id(&self) -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a previously reserved `id`.
    pub fn push_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns: self.clock.ns(start),
            end_ns: self.clock.ns(end),
            id,
            parent,
            request,
            thread: self.thread,
        });
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        let id = self.id();
        self.push_with_id(id, name, start, end, parent, request);
        id
    }

    /// Moves `other`'s spans into this buffer.
    pub fn append(&mut self, other: &mut Spans) {
        self.spans.append(&mut other.spans);
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Writes `spans` and the non-empty buckets of `hists` to `path` as
/// JSON lines, creating parent directories.
pub fn write(path: &Path, spans: &Spans, hists: &[(String, Hist)]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    for s in &spans.spans {
        let _ = writeln!(
            out,
            r#"{{"span":"{}","start_ns":{},"end_ns":{},"id":{},"parent":{},"request":{},"thread":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request, s.thread
        );
    }
    for (name, h) in hists {
        let buckets: Vec<String> = h
            .buckets()
            .map(|(lo, hi, c)| format!("[{lo},{hi},{c}]"))
            .collect();
        let _ = writeln!(
            out,
            r#"{{"histogram":"{name}","unit":"ns","buckets":[{}]}}"#,
            buckets.join(",")
        );
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_across_threads_and_parents_link() {
        let clock = Clock::start();
        let (mut a, mut b) = (Spans::new(clock, 0), Spans::new(clock, 1));
        let t = Instant::now();
        let root = a.id();
        let child = a.push("child", t, t, root, 7);
        a.push_with_id(root, "root", t, t, 0, 7);
        let other = b.push("child", t, t, root, 8);
        assert_ne!(child, other);
        a.append(&mut b);
        assert_eq!((a.len(), b.len()), (3, 0));
        assert!(a.spans.iter().any(|s| s.parent == root && s.thread == 1));
    }

    #[test]
    fn serving_sample_keeps_stalls_and_one_in_sixty_four() {
        assert!(keep_serving(KEEP_OVER_NS + 1, 1));
        assert!(!keep_serving(KEEP_OVER_NS, 1));
        let kept = (0..6_400).filter(|&r| keep_serving(10, r)).count();
        assert_eq!(kept, 100);
    }
}
