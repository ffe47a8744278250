//! One outside-in benchmark for the upskill workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <train-stream|select-s|serve-mixed|learn-loop|all> \
//!     --seed <n> [--seconds <s>] [--trace <0|1>] [--runs <n>]
//! ```
//!
//! Every layer is timed from outside, around calls into the public
//! functions of `upskill-datasets`, `upskill-core`, `upskill-serve` and
//! `upskill-eval`; no library code is instrumented. Load comes from this
//! one process on at most two threads. A run of one workload prints every
//! metric as `<workload> <metric> <value> <unit>`, one `check <workload>
//! <name> <ok|FAIL|digest>` line per correctness gate or output digest
//! (digests let two builds' "same numbers" claims be compared), and as
//! its last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. It exits non-zero when a gate fails or an operation
//! errors. `--workload all` runs each workload in a child process of its
//! own, so `peak_rss_mib` is per workload; `--runs N` runs each workload N
//! times on seeds `seed..seed + N` and prints every metric's median and
//! quartiles. Trace files go to `target/benchmark/`; nothing else is
//! written.
//!
//! # Workloads
//!
//! The seed makes the inputs (stream, corpus, traffic, learners); the
//! same seed gives the same inputs. A run repeats *rounds* until
//! `--seconds` of round time have passed (at least three rounds). A round
//! is a fresh set-up (timed for `setup_s`) followed by a fixed amount of
//! work (timed), so every round of a run does the same work and memory
//! does not grow with run length.
//!
//! - `train-stream`: `train_chunked` (`Recompute` storage,
//!   `ParallelConfig::all(2)`) over a `ChunkedSyntheticSource` of 32,768
//!   users with mean length 100 (~3.3M actions), 50k items, S = 5, chunk
//!   4096, 4 iterations plus the closing pass. Long sequences over a
//!   small catalog: the assignment DP (run twice per action under
//!   `Recompute`) and chunk generation do the work; emission fill and
//!   the M-step are negligible. Set-up is the stream's item table and
//!   length draws.
//! - `select-s`: the paper's Fig. 3 procedure, `sweep_skill_counts` for
//!   S in 2..=8 on a 90/10 split of an in-memory synthetic set of 20k
//!   users with short sequences (mean 10) over a 200k-item catalog. Few
//!   actions per item, so emission fill and `fit_model_incremental`
//!   dominate. Sequential (`train` is), so it is also the single-thread
//!   baseline and the in-memory trainer path.
//! - `serve-mixed`: a `SkillService` resumed from a 50k-user base model
//!   (20k items), 8 shards, `EveryNActions(20000)` with
//!   `RefitTuner(3, 20000, 1e6)` and sequential refits. Two closed-loop
//!   clients over disjoint halves of 1M simulated users send 800k
//!   requests per round: 65% ingest, 25% predict (all four modes, mostly
//!   the O(1) ones) and 10% recommend. Write-heavy: it stresses the shard
//!   and global locks and refit/epoch publish. Refits stay sequential
//!   because a parallel refit puts four runnable threads on two cores and
//!   stalls the clients.
//! - `learn-loop`: the closed recommend → attempt → observe loop of
//!   lesson-sequence recommendation on `bench_policy`'s fixed
//!   `synthetic-sparse` domain (1,000 users, 5,000 items) with its
//!   `UpskillEvalConfig::hybrid(5)` settings and an adaptive service with
//!   `Manual` refits. Two threads drive 50 learners per round (budget 300
//!   attempts, learners drawn from the seed) through a benchmark-side
//!   `LearnerEnv`: each step is `recommend_policy`, then `ingest` on
//!   success or `record_outcome` on failure. Read-heavy: the O(band)
//!   re-rank dominates, bands stay warm and the global lock is rarely
//!   taken — the serving layer used the opposite way to `serve-mixed`.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Each is the median over the run's rounds of the round's value.
//!
//! - `setup_s`: set-up time (inputs, base training, service
//!   construction; gates excluded).
//! - `throughput`: work per second of round time — actions × trainer
//!   passes (training), service requests (`serve-mixed`), learner steps
//!   (`learn-loop`).
//! - `p50_us`, `p99_us`: latency of the round's requests, closed loop,
//!   as the client times the call. A request is one service call on
//!   `serve-mixed` and one learner step (`recommend_policy` plus the
//!   `ingest` or `record_outcome` that follows) on `learn-loop`; a round
//!   holds 800k and ~7.5k of them. A training round is one trainer call,
//!   and a handful of calls has no tail, so on the training workloads
//!   both are the call's time.
//! - `peak_rss_mib`: the process's `VmHWM` at exit, gates included.
//!
//! Failed operations and failed gates are the JSON `failed` count against
//! `attempted`, not a metric: a metric that is normally 0 cannot carry a
//! relative bound. The bounds are the 25% cap (20% for `peak_rss_mib`).
//! On the 2-core VM this benchmark was written on, other tenants move
//! timings between runs: a fixed CPU loop's 10 s medians spread 4–12%,
//! the quartile spread of ten runs reached 17% (`serve-mixed`
//! throughput), and the medians of two sets of ten moved by up to 18%
//! (`train-stream` throughput). A tighter bound would flag that noise as
//! a regression.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run alternates untraced and traced rounds, so
//! `trace.overhead_pct` compares the two medians. Values are per round
//! (per trainer call, per traffic round). `busy_s` is time the layer's
//! calls were running, summed over the threads that made them. A layer a
//! workload does not reach reports 0. Each group names the end-to-end
//! metric it should move:
//!
//! - `datasets.load_chunk.{calls,busy_s}`: a timing `ChunkSource` wrapper
//!   around the real `train_chunked`. Moves `throughput` on
//!   `train-stream`.
//! - Trainer layers, from a replay of the trainer loop through public
//!   functions (`initialize_model[_chunked]`, `EmissionTable::build` /
//!   `refresh_levels`, `assign_items_with_table_ws` /
//!   `assign_all_parallel_with_table`, `StatsGrid` add / build /
//!   `apply_delta` / `merge` / `mark_dirty_from`,
//!   `fit_model_incremental`). The replay covers one `train_chunked` call
//!   on `train-stream`, every candidate of the sweep on `select-s` (plus
//!   `heldout_log_likelihood`), and the base-model training inside set-up
//!   on the serving workloads. Its per-iteration log-likelihood and churn
//!   must equal the real trainer's bit for bit or the run fails. Metrics:
//!   `train.init.busy_s`, `emission.build.{busy_s,cells}`,
//!   `assign.dp.{busy_s,actions,passes_per_action}`,
//!   `incremental.grid.busy_s`, `incremental.fit.{busy_s,dirty_ratio}`,
//!   `train.churn_ratio`, `train.iterations`,
//!   `model_selection.heldout.busy_s`, and `train.unattributed_s` (the
//!   real trainer's median wall time minus the replay's timed calls; it
//!   can go negative when the replay runs slower than the trainer).
//!   `assign.dp.*`, `datasets.*` and `incremental.grid.*` move
//!   `throughput` on `train-stream`, not on `select-s`; `emission.*` and
//!   `incremental.fit.*` move `throughput` on `select-s` and `setup_s`
//!   on the serving workloads, and `serve-mixed` refits reuse
//!   `fit_model_incremental` and `refresh_levels` inside the service.
//! - `serve.<kind>.{calls,busy_s,p50_us,p99_us,failed}` for `ingest`,
//!   `predict.{committed,filtered,smoothed,posterior}`, `recommend`,
//!   `recommend_policy` and `record_outcome`. `serve.predict.*` moves
//!   `p50_us` on `serve-mixed`; `serve.recommend.*` moves `p99_us` on
//!   `serve-mixed`; `serve.recommend_policy.*` moves `throughput`,
//!   `p50_us` and `p99_us` on `learn-loop` and is absent from
//!   `serve-mixed`.
//! - `serve.ingest.publish.{calls,busy_s,max_us}`: ingests during which
//!   the epoch advanced — the refitting ingest and any ingest that waited
//!   on its global lock, i.e. the refit stall seen from outside. Moves
//!   `throughput` on `serve-mixed`; absent on `learn-loop`.
//! - `serve.{recommend,recommend_policy}.cold.{calls,busy_s}`: the first
//!   request per (epoch, level), which pays for the band build; the band
//!   hit ratio is one minus cold calls over calls.
//! - `serve.refits`, `serve.refit_interval_final`,
//!   `serve.pool.{assign,fb}_parked`: the service's `stats()` after the
//!   last traced round.
//! - `client.busy_s` (load generator) and `datasets.learner.busy_s`
//!   (`simulate_learner` outside its environment calls).
//! - `openloop.{p50_us,p99_us,late_pct,late_max_ms}` (`serve-mixed`
//!   only): a diagnostic open-loop phase of 3 s at a fixed 100k
//!   requests/s from two threads on a fresh service, each request timed
//!   from its due time; a request is late when it starts over 100 µs
//!   after it was due. No bound: see below.
//!
//! # Trace format
//!
//! `--trace 1` writes `target/benchmark/trace-<workload>-seed<n>.jsonl`:
//! one line per span, `{"span", "start_ns", "end_ns", "id", "parent",
//! "request", "thread"}` (times from the run's start; spans of one
//! request share `request`, `parent` 0 marks a root), then one line per
//! latency histogram with its non-empty `[lo_ns, hi_ns, count]` buckets.
//! Training keeps every span; serving keeps every span over 1 ms plus
//! one request in 64.
//!
//! # Closed loops hide refit stalls
//!
//! In the closed loop a refit inside one ingest delays only that ingest
//! and an ingest of the other client queued on the global lock: about
//! 50 requests out of 800k, far beyond p99. `serve-mixed` reports a p99
//! of about 3 µs while `serve.ingest.publish.max_us` reads 14–21 ms. An
//! open loop keeps sending while the refit runs; at 100k requests/s its
//! p99 was 7.8–8.5 ms with 6% of requests late. That tail is made of
//! refit stalls and scheduling noise and moves far more than a bound
//! allows, so it is a traced diagnostic, not an end-to-end metric.
//!
//! # Seed-state baseline
//!
//! Ten runs per workload (seeds 500–509, `--seconds 10`) on the 2-core
//! VM this benchmark was written on (`available_parallelism` = 2),
//! median [first quartile, third quartile]. A second set (seeds 600–609)
//! agreed within 12% on every median.
//!
//! | workload | setup_s | throughput (1/s) | p50_us | p99_us | peak_rss_mib |
//! |---|---|---|---|---|---|
//! | train-stream | 0.0113 [0.0105, 0.0125] | 1.60e7 [1.53e7, 1.67e7] | 1.02e6 [0.98e6, 1.07e6] | 1.02e6 [0.98e6, 1.07e6] | 37.7 [36.8, 38.5] |
//! | select-s | 0.0632 [0.0611, 0.0670] | 3.86e6 [3.73e6, 4.08e6] | 1.31e6 [1.23e6, 1.35e6] | 1.31e6 [1.23e6, 1.35e6] | 104 [103, 105] |
//! | serve-mixed | 0.349 [0.335, 0.354] | 8.00e5 [7.80e5, 8.39e5] | 1.10 [1.06, 1.13] | 2.83 [2.78, 2.89] | 335 [327, 343] |
//! | learn-loop | 0.0188 [0.0181, 0.0201] | 5.22e3 [5.12e3, 5.31e3] | 351 [344, 359] | 733 [685, 766] | 20.7 [20.6, 21.1] |

mod hist;
mod learn;
mod serve;
mod trace;
mod train;

use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::Value;

use crate::trace::{Clock, Spans};

/// The benchmark's declaration: workloads, metrics, units and bounds.
/// It is the single list the printed metrics are checked against.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// Client and trainer threads: one process, at most two threads of load.
pub const THREADS: usize = 2;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["train-stream", "select-s", "serve-mixed", "learn-loop"];

/// Input sizes: `Full` is the benchmark, `Tiny` keeps the unit tests
/// fast while running every code path and gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// `full` or `tiny` by size.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub clock: Clock,
}

/// Set-up and round times plus each round's output.
pub struct Rounds<R> {
    pub setup_s: Vec<f64>,
    pub round_s: Vec<f64>,
    pub out: Vec<R>,
}

impl Ctx {
    /// Whether round `i` is traced: odd rounds of a `--trace 1` run.
    pub fn traced(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }

    /// Runs fresh set-up + timed round pairs until `seconds` of round
    /// time have passed and at least three rounds (four, two of each
    /// kind, when tracing) have run.
    pub fn rounds<S, R>(
        &self,
        mut setup: impl FnMut() -> Result<S, String>,
        mut round: impl FnMut(&mut S, usize) -> Result<R, String>,
    ) -> Result<Rounds<R>, String> {
        let min = if self.trace { 4 } else { 3 };
        let mut r = Rounds {
            setup_s: Vec::new(),
            round_s: Vec::new(),
            out: Vec::new(),
        };
        let mut measured = 0.0;
        while r.out.len() < min || measured < self.seconds {
            let t = Instant::now();
            let mut state = setup()?;
            r.setup_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let out = round(&mut state, r.out.len())?;
            let dt = t.elapsed().as_secs_f64();
            measured += dt;
            r.round_s.push(dt);
            r.out.push(out);
        }
        Ok(r)
    }
}

/// Round times of the untraced and of the traced rounds.
pub fn split_traced(ctx: &Ctx, round_s: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, &t) in round_s.iter().enumerate() {
        if ctx.traced(i) {
            &mut traced
        } else {
            &mut plain
        }
        .push(t);
    }
    (plain, traced)
}

/// The tracing overhead: how much longer the median traced round took
/// than the median untraced one, in percent.
pub fn overhead_pct(ctx: &Ctx, round_s: &[f64]) -> f64 {
    let (plain, traced) = split_traced(ctx, round_s);
    (median(&traced) / median(&plain) - 1.0) * 100.0
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default exclusive method) gives them; needs two or more values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// FNV-1a over a stream of words: the output digests `check` lines
/// print, so two builds' "same numbers" claims can be compared.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn word(self, w: u64) -> Self {
        self.bytes(&w.to_le_bytes())
    }

    pub fn float(self, f: f64) -> Self {
        self.word(f.to_bits())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Outcome of one correctness gate or output digest.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    Ok,
    Digest(u64),
    Fail(String),
}

impl Check {
    /// `Ok` when `pass`, else a failure explained by `why`.
    pub fn expect(pass: bool, why: impl FnOnce() -> String) -> Self {
        if pass {
            Check::Ok
        } else {
            Check::Fail(why())
        }
    }
}

/// What one workload run hands back.
pub struct Report {
    pub metrics: Vec<(String, f64)>,
    pub checks: Vec<(&'static str, Check)>,
    /// Operations attempted in measured rounds (trainer calls or
    /// service requests).
    pub attempted: u64,
    /// Of those, operations that returned an error.
    pub failed: u64,
    pub spans: Spans,
    pub hists: Vec<(String, hist::Hist)>,
}

impl Report {
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            metrics: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            spans: Spans::new(ctx.clock, 0),
            hists: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn check(&mut self, name: &'static str, check: Check) {
        self.checks.push((name, check));
    }

    /// The end-to-end metrics every workload shares: the medians of
    /// their per-round values.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        throughput: &[f64],
        p50_us: &[f64],
        p99_us: &[f64],
    ) {
        self.metric("setup_s", median(setup_s));
        self.metric("throughput", median(throughput));
        self.metric("p50_us", median(p50_us));
        self.metric("p99_us", median(p99_us));
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mib needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A declared metric: name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The declared end-to-end and per-layer metrics.
pub fn declared() -> (Vec<Declared>, Vec<Declared>) {
    let v: Value = serde_json::from_str(DECLARATION).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| -> Vec<Declared> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists end_to_end and per_layer")
            .iter()
            .map(|m| Declared {
                name: m.get("name").and_then(Value::as_str).expect("name").into(),
                unit: m.get("unit").and_then(Value::as_str).expect("unit").into(),
            })
            .collect()
    };
    (list("end_to_end"), list("per_layer"))
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = match name {
        "train-stream" => train::stream(ctx)?,
        "select-s" => train::select(ctx)?,
        "serve-mixed" => serve::mixed(ctx)?,
        "learn-loop" => learn::run(ctx)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if !ctx.trace {
        report.metric("peak_rss_mib", peak_rss_mib()?);
    }
    Ok(report)
}

/// The metrics a run must print — every end-to-end metric untraced,
/// every per-layer metric traced — with their units. A per-layer
/// metric the workload's layers never reach is 0; anything else missing
/// or undeclared is an error.
pub fn resolve(report: &Report, trace: bool) -> Result<Vec<(String, f64, String)>, String> {
    let (e2e, layers) = declared();
    let wanted = if trace { layers } else { e2e };
    for (name, _) in &report.metrics {
        if !wanted.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name} is not declared for this run"));
        }
    }
    wanted
        .into_iter()
        .map(|d| {
            let value = report
                .metrics
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|m| m.1);
            match (value, trace) {
                (Some(v), _) if v.is_finite() => Ok((d.name, v, d.unit)),
                (Some(v), _) => Err(format!("metric {} is not finite: {v}", d.name)),
                (None, true) => Ok((d.name, 0.0, d.unit)),
                (None, false) => Err(format!("end-to-end metric {} was not measured", d.name)),
            }
        })
        .collect()
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}": {{"value": {v}, "unit": "{u}"}}"#))
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--runs" => args.runs = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be within 0..=600".into());
    }
    Ok(args)
}

/// One workload in this process: prints its metric and check lines and
/// the JSON line; returns whether every gate passed and nothing failed.
fn run_here(args: &Args) -> bool {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        clock: Clock::start(),
    };
    let w = args.workload.as_str();
    let outcome = run_workload(w, &ctx).and_then(|r| resolve(&r, ctx.trace).map(|m| (r, m)));
    let (report, metrics) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {w}: {e}");
            println!("{}", json_line(false, 1, 1, &[]));
            return false;
        }
    };
    for (name, value, unit) in &metrics {
        println!("{w} {name} {value} {unit}");
    }
    let mut failed_checks = 0u64;
    for (name, check) in &report.checks {
        let shown = match check {
            Check::Ok => "ok".to_string(),
            Check::Digest(d) => format!("{d:016x}"),
            Check::Fail(why) => {
                failed_checks += 1;
                eprintln!("check {w} {name} failed: {why}");
                "FAIL".to_string()
            }
        };
        println!("check {w} {name} {shown}");
    }
    if ctx.trace {
        let path =
            std::path::PathBuf::from(format!("target/benchmark/trace-{w}-seed{}.jsonl", ctx.seed));
        if let Err(e) = trace::write(&path, &report.spans, &report.hists) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("trace: {} spans -> {}", report.spans.len(), path.display());
        }
    }
    let correct = failed_checks == 0 && report.failed == 0;
    println!(
        "{}",
        json_line(
            correct,
            report.attempted + report.checks.len() as u64,
            report.failed + failed_checks,
            &metrics
        )
    );
    correct
}

/// Runs one workload in a child process (so its peak RSS is its own)
/// and returns its parsed JSON line, forwarding its other lines.
fn run_child(args: &Args, workload: &str, seed: u64, forward: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    if forward {
        for l in lines {
            println!("{l}");
        }
    }
    let v: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload} seed {seed}: no result line ({e:?})"))?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    Ok(v)
}

fn metric_values(v: &Value) -> Vec<(String, f64, String)> {
    v.get("metrics")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(k, x)| {
                    let value = x.get("value")?.as_f64()?;
                    let unit = x.get("unit")?.as_str()?.to_string();
                    Some((k.clone(), value, unit))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// `--workload all` and `--runs N`: one child process per workload and
/// run; prints per-metric medians and quartiles when `runs > 1`.
fn run_children(args: &Args) -> bool {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let runs = args.runs.max(1);
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut summary: Vec<(String, f64, String)> = Vec::new();
    for w in workloads {
        let mut per_metric: Vec<(String, Vec<f64>, String)> = Vec::new();
        for r in 0..runs {
            let seed = args.seed + r as u64;
            match run_child(args, w, seed, runs == 1) {
                Ok(v) => {
                    correct &= v.get("correct").and_then(Value::as_bool) == Some(true);
                    attempted += v.get("attempted").and_then(Value::as_u64).unwrap_or(0);
                    failed += v.get("failed").and_then(Value::as_u64).unwrap_or(0);
                    for (name, value, unit) in metric_values(&v) {
                        match per_metric.iter_mut().find(|m| m.0 == name) {
                            Some(m) => m.1.push(value),
                            None => per_metric.push((name, vec![value], unit)),
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    correct = false;
                    failed += 1;
                }
            }
        }
        for (name, values, unit) in per_metric {
            let m = median(&values);
            if values.len() > 1 {
                let [q1, _, q3] = quartiles(&values);
                let spread = if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
                println!("{w} {name} median {m} q1 {q1} q3 {q3} spread {spread:.4} {unit}");
            }
            summary.push((format!("{w}.{name}"), m, unit));
        }
    }
    println!("{}", json_line(correct, attempted.max(1), failed, &summary));
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.workload == "all" || args.runs > 0 {
        run_children(&args)
    } else {
        run_here(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool) -> Ctx {
        Ctx {
            seed: 3,
            seconds: 0.0,
            trace,
            size: Size::Tiny,
            clock: Clock::start(),
        }
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Every workload, tiny, traced and untraced: its gates pass, no
    /// operation fails, and every metric it prints is declared and well
    /// named — and every declared metric is printed by some workload.
    #[test]
    fn tiny_runs_pass_their_gates_and_print_exactly_the_declared_metrics() {
        let (e2e, layers) = declared();
        let mut reached: Vec<String> = Vec::new();
        for w in WORKLOADS {
            for trace in [false, true] {
                let report = run_workload(w, &tiny(trace)).unwrap_or_else(|e| panic!("{w}: {e}"));
                for (name, check) in &report.checks {
                    assert!(!matches!(check, Check::Fail(_)), "{w} {name}: {check:?}");
                }
                assert_eq!(report.failed, 0, "{w}");
                assert!(report.attempted > 0, "{w}");
                let printed = resolve(&report, trace).unwrap_or_else(|e| panic!("{w}: {e}"));
                let want = if trace { &layers } else { &e2e };
                assert_eq!(printed.len(), want.len());
                for (name, value, _) in &printed {
                    assert!(valid_name(name), "{name}");
                    if !trace {
                        assert!(*value > 0.0, "{w} {name} = {value}");
                    }
                }
                reached.extend(report.metrics.iter().map(|(n, _)| n.to_string()));
            }
        }
        for d in e2e.iter().chain(&layers) {
            assert!(
                reached.contains(&d.name),
                "{} is declared but never measured",
                d.name
            );
        }
    }

    #[test]
    fn declaration_is_well_formed() {
        let (e2e, layers) = declared();
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        for d in e2e.iter().chain(&layers) {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
