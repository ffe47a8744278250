//! Serving instrumentation shared by the serving workloads, and the
//! `serve-mixed` workload with its open-loop diagnostic phase.
//!
//! Every service call is timed from the client thread that makes it.
//! Untraced rounds record one latency sample per call; traced rounds
//! additionally keep sampled spans, detect ingests during which the
//! epoch advanced (a refit published) and recommendations that were the
//! first at their (epoch, level), i.e. paid for the band build.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Instant;

use upskill_core::parallel::ParallelConfig;
use upskill_core::rng::SplitMix64;
use upskill_core::streaming::{RefitPolicy, RefitTuner, StreamingSession};
use upskill_core::train::{train, TrainConfig, TrainResult};
use upskill_core::types::{Action, Dataset, ItemId, SkillLevel, UserId};
use upskill_datasets::synthetic::generate;
use upskill_serve::{
    IngestOutcome, PredictMode, ServeConfig, ServeError, ServeStats, SkillService,
};

use crate::hist::Hist;
use crate::trace::{keep_serving, Clock, Spans};
use crate::train::{replay_check, replay_in_memory, synth, train_config, TrainLayers};
use crate::{median, overhead_pct, Check, Ctx, Digest, Report, THREADS};

/// Request kinds, in metric order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Committed,
    Filtered,
    Smoothed,
    Posterior,
    Recommend,
    RecommendPolicy,
    RecordOutcome,
}

const KINDS: [Kind; 8] = [
    Kind::Ingest,
    Kind::Committed,
    Kind::Filtered,
    Kind::Smoothed,
    Kind::Posterior,
    Kind::Recommend,
    Kind::RecommendPolicy,
    Kind::RecordOutcome,
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Committed => "predict.committed",
            Kind::Filtered => "predict.filtered",
            Kind::Smoothed => "predict.smoothed",
            Kind::Posterior => "predict.posterior",
            Kind::Recommend => "recommend",
            Kind::RecommendPolicy => "recommend_policy",
            Kind::RecordOutcome => "record_outcome",
        }
    }

    fn of(mode: PredictMode) -> Self {
        match mode {
            PredictMode::Committed => Kind::Committed,
            PredictMode::Filtered => Kind::Filtered,
            PredictMode::Smoothed => Kind::Smoothed,
            PredictMode::Posterior => Kind::Posterior,
        }
    }
}

/// Which (epoch, level) bands some client has already asked for.
pub type BandsSeen = Mutex<HashSet<(u64, SkillLevel)>>;

/// Per-kind request accounting; one per client thread, merged per round.
pub struct Tally {
    hists: Vec<Hist>,
    busy_ns: [u64; 8],
    failed: [u64; 8],
    /// Requests that returned an error, and service-state mismatches.
    pub errors: u64,
    publish: (u64, u64, u64),
    cold: [(u64, u64); 2],
    /// Client-thread wall time and simulator time.
    wall_ns: u64,
    pub learner_ns: u64,
    /// Service time of whole learner steps (`learn-loop` only).
    pub steps: Hist,
}

impl Default for Tally {
    fn default() -> Self {
        Self {
            hists: vec![Hist::default(); KINDS.len()],
            busy_ns: [0; 8],
            failed: [0; 8],
            errors: 0,
            publish: (0, 0, 0),
            cold: [(0, 0); 2],
            wall_ns: 0,
            learner_ns: 0,
            steps: Hist::default(),
        }
    }
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        for (a, b) in self.hists.iter_mut().zip(&o.hists) {
            a.merge(b);
        }
        for (a, b) in self.busy_ns.iter_mut().zip(o.busy_ns) {
            *a += b;
        }
        for (a, b) in self.failed.iter_mut().zip(o.failed) {
            *a += b;
        }
        self.errors += o.errors;
        self.publish.0 += o.publish.0;
        self.publish.1 += o.publish.1;
        self.publish.2 = self.publish.2.max(o.publish.2);
        for (a, b) in self.cold.iter_mut().zip(o.cold) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.wall_ns += o.wall_ns;
        self.learner_ns += o.learner_ns;
        self.steps.merge(&o.steps);
    }

    /// All requests' latencies in one histogram.
    pub fn all(&self) -> Hist {
        let mut all = Hist::default();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }

    /// Requests made.
    pub fn requests(&self) -> u64 {
        self.hists.iter().map(Hist::count).sum()
    }

    /// The latencies of one request kind.
    pub fn hist(&self, kind: Kind) -> &Hist {
        &self.hists[kind as usize]
    }
}

/// One client thread's instrumentation.
pub struct Lane<'a> {
    pub tally: Tally,
    /// Whether this lane's round is traced (keeps spans, detects publish
    /// stalls and cold bands).
    pub traced: bool,
    bands: &'a BandsSeen,
    seen: HashSet<(u64, SkillLevel)>,
    pub spans: Spans,
    /// Request id of the calls being made (a client request or a
    /// learner step) and the span they belong to.
    pub request: u64,
    pub parent: u64,
    started: Instant,
}

impl<'a> Lane<'a> {
    pub fn new(traced: bool, bands: &'a BandsSeen, clock: Clock, thread: u32) -> Self {
        Self {
            tally: Tally::default(),
            traced,
            bands,
            seen: HashSet::new(),
            spans: Spans::new(clock, thread),
            request: 0,
            parent: 0,
            started: Instant::now(),
        }
    }

    /// Times one call of `kind`.
    pub fn call<T>(
        &mut self,
        kind: Kind,
        f: impl FnOnce() -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let t = Instant::now();
        let r = f();
        self.record(kind, t, Instant::now(), &r);
        r
    }

    /// Accounts one call. An error counts as failed, except an empty
    /// band, which only says the user has nothing left to attempt.
    fn record<T>(
        &mut self,
        kind: Kind,
        t: Instant,
        end: Instant,
        r: &Result<T, ServeError>,
    ) -> u64 {
        let ns = (end - t).as_nanos() as u64;
        let k = kind as usize;
        self.tally.hists[k].record(ns);
        self.tally.busy_ns[k] += ns;
        if matches!(r, Err(e) if !matches!(e, ServeError::EmptyBand { .. })) {
            self.tally.failed[k] += 1;
            self.tally.errors += 1;
        }
        if self.traced && keep_serving(ns, self.request) {
            let name = SPAN_NAMES[k];
            self.spans.push(name, t, end, self.parent, self.request);
        }
        ns
    }

    /// Ingests `action`; on traced rounds, an ingest during which the
    /// epoch advanced counts as a publish stall.
    pub fn ingest(&mut self, svc: &SkillService, action: Action) -> Option<IngestOutcome> {
        let t = Instant::now();
        let r = svc.ingest(action);
        let ns = self.record(Kind::Ingest, t, Instant::now(), &r);
        let o = r.ok()?;
        if self.traced && svc.current_epoch().0 != o.epoch {
            let p = &mut self.tally.publish;
            p.0 += 1;
            p.1 += ns;
            p.2 = p.2.max(ns);
        }
        Some(o)
    }

    /// A recommendation for a user at `level`: on traced rounds, the
    /// first request per (epoch, level) across all clients is cold.
    pub fn recommend<T>(
        &mut self,
        svc: &SkillService,
        kind: Kind,
        level: SkillLevel,
        f: impl FnOnce() -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let cold = self.traced && {
            let key = (svc.current_epoch().0, level);
            self.seen.insert(key)
                && self
                    .bands
                    .lock()
                    .expect("band set lock is never held across a panic")
                    .insert(key)
        };
        let t = Instant::now();
        let r = f();
        let ns = self.record(kind, t, Instant::now(), &r);
        if cold {
            let c = &mut self.tally.cold[usize::from(kind == Kind::RecommendPolicy)];
            c.0 += 1;
            c.1 += ns;
        }
        r
    }

    /// Closes the lane: its wall time since creation.
    pub fn finish(mut self) -> (Tally, Spans) {
        self.tally.wall_ns = self.started.elapsed().as_nanos() as u64;
        (self.tally, self.spans)
    }
}

const SPAN_NAMES: [&str; 8] = [
    "serve.ingest",
    "serve.predict.committed",
    "serve.predict.filtered",
    "serve.predict.smoothed",
    "serve.predict.posterior",
    "serve.recommend",
    "serve.recommend_policy",
    "serve.record_outcome",
];

/// The per-layer serving metrics of the traced rounds, per round.
pub fn report_serving(report: &mut Report, traced: &Tally, rounds: f64, stats: &ServeStats) {
    let per = |x: f64| x / rounds.max(1.0);
    for (k, kind) in KINDS.iter().enumerate() {
        let h = &traced.hists[k];
        let n = kind.name();
        report.metric(format!("serve.{n}.calls"), per(h.count() as f64));
        report.metric(
            format!("serve.{n}.busy_s"),
            per(traced.busy_ns[k] as f64 * 1e-9),
        );
        report.metric(format!("serve.{n}.p50_us"), h.quantile_ns(0.5) * 1e-3);
        report.metric(format!("serve.{n}.p99_us"), h.quantile_ns(0.99) * 1e-3);
        report.metric(format!("serve.{n}.failed"), per(traced.failed[k] as f64));
    }
    let (calls, busy, max) = traced.publish;
    report.metric("serve.ingest.publish.calls", per(calls as f64));
    report.metric("serve.ingest.publish.busy_s", per(busy as f64 * 1e-9));
    report.metric("serve.ingest.publish.max_us", max as f64 * 1e-3);
    for (i, n) in ["recommend", "recommend_policy"].iter().enumerate() {
        let (calls, busy) = traced.cold[i];
        report.metric(format!("serve.{n}.cold.calls"), per(calls as f64));
        report.metric(format!("serve.{n}.cold.busy_s"), per(busy as f64 * 1e-9));
    }
    report.metric("serve.refits", stats.refits as f64);
    if let RefitPolicy::EveryNActions(n) = stats.policy {
        report.metric("serve.refit_interval_final", n as f64);
    }
    report.metric(
        "serve.pool.assign_parked",
        stats.pooled_assign_workspaces as f64,
    );
    report.metric("serve.pool.fb_parked", stats.pooled_fb_workspaces as f64);
    let service_ns: u64 = traced.busy_ns.iter().sum();
    let client = traced.wall_ns as f64 - service_ns as f64 - traced.learner_ns as f64;
    report.metric("client.busy_s", per(client * 1e-9));
    report.metric(
        "datasets.learner.busy_s",
        per(traced.learner_ns as f64 * 1e-9),
    );
}

/// Replays the sequential base-model training of a serving workload's
/// set-up (`real`, which took `real_s`) for the training layers.
pub fn replay_base(
    report: &mut Report,
    data: &Dataset,
    cfg: &TrainConfig,
    real: &TrainResult,
    real_s: f64,
) -> Result<(), String> {
    let mut layers = TrainLayers::default();
    let sequential = ParallelConfig::sequential();
    let (key, _, _) = replay_in_memory(data, cfg, &sequential, &mut layers, &mut report.spans, 0)?;
    report.check("replay_eq_trainer", replay_check(&key, &real.trace));
    layers.report(report, real_s);
    Ok(())
}

/// Open-loop schedule and accounting: request `i` is due `i` intervals
/// after the start; its latency runs from its due time to its end, and
/// it is late when it starts more than [`LATE_NS`] after it was due.
pub struct OpenLoop {
    interval_ns: u64,
    pub latency: Hist,
    late: u64,
    late_max_ns: u64,
}

/// A request that starts this long after its due time is late.
pub const LATE_NS: u64 = 100_000;

impl OpenLoop {
    /// A schedule sending `rate` requests per second.
    pub fn new(rate: f64) -> Self {
        Self {
            interval_ns: (1e9 / rate) as u64,
            latency: Hist::default(),
            late: 0,
            late_max_ns: 0,
        }
    }

    /// Due time of request `i`, in nanoseconds after the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.interval_ns
    }

    /// Accounts one request (all times in nanoseconds after the start).
    pub fn record(&mut self, due_ns: u64, start_ns: u64, end_ns: u64) {
        self.latency.record(end_ns.saturating_sub(due_ns));
        let lateness = start_ns.saturating_sub(due_ns);
        if lateness > LATE_NS {
            self.late += 1;
        }
        self.late_max_ns = self.late_max_ns.max(lateness);
    }

    pub fn merge(&mut self, o: &OpenLoop) {
        self.latency.merge(&o.latency);
        self.late += o.late;
        self.late_max_ns = self.late_max_ns.max(o.late_max_ns);
    }

    /// Share of requests that started late, in percent.
    pub fn late_pct(&self) -> f64 {
        100.0 * self.late as f64 / self.latency.count().max(1) as f64
    }

    pub fn late_max_ms(&self) -> f64 {
        self.late_max_ns as f64 * 1e-6
    }
}

/// One `serve-mixed` request.
enum Op {
    Ingest(Action),
    Predict(UserId, PredictMode),
    Recommend(UserId),
}

/// The mixed traffic of one client over its own user range: 65%
/// ingest (admitting users live), 25% predict over users it has
/// ingested for (mostly the O(1) modes, a tail of DP-backed ones), 10%
/// recommend. Per-user time only moves forward.
struct Traffic {
    rng: SplitMix64,
    lo: UserId,
    span: u64,
    n_items: u64,
    touched: Vec<UserId>,
    /// Committed level per user of the range (0: not ingested yet).
    level: Vec<SkillLevel>,
    clock: i64,
}

impl Traffic {
    fn new(seed: u64, lo: UserId, span: usize, n_items: usize) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            lo,
            span: span as u64,
            n_items: n_items as u64,
            touched: Vec::new(),
            level: vec![0; span],
            clock: 1_000_000_000,
        }
    }

    fn pick_touched(&mut self) -> UserId {
        self.touched[(self.rng.next_u64() % self.touched.len() as u64) as usize]
    }

    fn next(&mut self) -> Op {
        let dice = self.rng.next_u64() % 100;
        if dice < 65 || self.touched.is_empty() {
            let user = self.lo + (self.rng.next_u64() % self.span) as UserId;
            let item = (self.rng.next_u64() % self.n_items) as ItemId;
            self.clock += 1;
            Op::Ingest(Action::new(self.clock, user, item))
        } else if dice < 90 {
            let user = self.pick_touched();
            let mode = match self.rng.next_u64() % 20 {
                0 => PredictMode::Smoothed,
                1 => PredictMode::Posterior,
                n if n % 2 == 0 => PredictMode::Committed,
                _ => PredictMode::Filtered,
            };
            Op::Predict(user, mode)
        } else {
            Op::Recommend(self.pick_touched())
        }
    }

    /// Sends `op` through `lane`, which counts any failure.
    fn send(&mut self, svc: &SkillService, lane: &mut Lane, op: Op) {
        match op {
            Op::Ingest(action) => {
                if let Some(o) = lane.ingest(svc, action) {
                    let slot = &mut self.level[(action.user - self.lo) as usize];
                    if *slot == 0 {
                        self.touched.push(action.user);
                    }
                    *slot = o.level;
                }
            }
            Op::Predict(user, mode) => {
                let _ = lane.call(Kind::of(mode), || svc.predict(user, mode));
            }
            Op::Recommend(user) => {
                let level = self.level[(user - self.lo) as usize];
                let _ = lane.recommend(svc, Kind::Recommend, level, || {
                    svc.recommend(user, Some(10))
                });
            }
        }
    }
}

struct MixedSize {
    base_users: usize,
    items: usize,
    sim_users: usize,
    ops: usize,
    refit_every: usize,
    openloop_s: f64,
    gate_users: usize,
}

/// Simulated users, split into one disjoint range per client.
fn lane_range(size: &MixedSize, lane: usize) -> (UserId, usize) {
    let span = size.sim_users / THREADS;
    ((lane * span) as UserId, span)
}

/// Every round replays the same traffic, so rounds do equal work.
fn lane_seed(seed: u64, lane: usize) -> u64 {
    SplitMix64::new(seed ^ lane as u64).next_u64()
}

struct Base {
    data: Dataset,
    result: TrainResult,
    train_s: f64,
}

fn base(size: &MixedSize, cfg: &TrainConfig, seed: u64) -> Result<Base, String> {
    let data = generate(&synth(size.base_users, size.items, 20.0, seed))
        .map_err(|e| e.to_string())?
        .dataset;
    // Sequential, as the other base trainings: the user-parallel DP sums
    // per-user log-likelihoods in completion order, so a parallel
    // training's trace is not reproducible bit for bit by a replay.
    let t = Instant::now();
    let result = train(&data, cfg).map_err(|e| format!("base train: {e}"))?;
    Ok(Base {
        data,
        result,
        train_s: t.elapsed().as_secs_f64(),
    })
}

fn mixed_service(size: &MixedSize, cfg: &TrainConfig, base: &Base) -> Result<SkillService, String> {
    let tuner = RefitTuner::new(3, size.refit_every, 1_000_000).map_err(|e| e.to_string())?;
    SkillService::resume(
        base.data.clone(),
        &base.result,
        *cfg,
        ParallelConfig::sequential(),
        ServeConfig {
            n_shards: 8,
            policy: RefitPolicy::EveryNActions(size.refit_every),
            tuner: Some(tuner),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("service: {e}"))
}

/// `serve-mixed`: write-heavy closed-loop traffic from two clients.
pub fn mixed(ctx: &Ctx) -> Result<Report, String> {
    let size = ctx.size.pick(
        MixedSize {
            base_users: 50_000,
            items: 20_000,
            sim_users: 1_000_000,
            ops: 800_000,
            refit_every: 20_000,
            openloop_s: 3.0,
            gate_users: 1_500,
        },
        MixedSize {
            base_users: 300,
            items: 300,
            sim_users: 2_000,
            ops: 4_000,
            refit_every: 200,
            openloop_s: 0.05,
            gate_users: 100,
        },
    );
    let cfg = train_config(5, 10, 3);
    let mut report = Report::new(ctx);
    let mut train_s = Vec::new();
    let bands = BandsSeen::default();

    let rounds = ctx.rounds(
        || {
            let b = base(&size, &cfg, ctx.seed)?;
            train_s.push(b.train_s);
            let n_items = b.data.n_items();
            Ok((mixed_service(&size, &cfg, &b)?, n_items))
        },
        |(svc, n_items), i| {
            let traced = ctx.traced(i);
            let (svc, n_items) = (&*svc, &*n_items);
            let lanes: Vec<(Tally, Spans, u64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|l| {
                        let bands = &bands;
                        let size = &size;
                        scope.spawn(move || {
                            let (lo, span) = lane_range(size, l);
                            let mut traffic =
                                Traffic::new(lane_seed(ctx.seed, l), lo, span, *n_items);
                            let mut lane = Lane::new(traced, bands, ctx.clock, l as u32 + 1);
                            let mut ingests = 0u64;
                            for r in 0..(size.ops / THREADS) as u64 {
                                // Unique per request; the span sample
                                // (`request % 64`) takes both lanes alike.
                                lane.request = r * THREADS as u64 + l as u64;
                                let op = traffic.next();
                                ingests += u64::from(matches!(op, Op::Ingest(_)));
                                traffic.send(svc, &mut lane, op);
                            }
                            let (t, s) = lane.finish();
                            (t, s, ingests)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client threads do not panic"))
                    .collect()
            });
            let mut tally = Tally::default();
            let mut ingests = 0;
            for (t, mut s, n) in lanes {
                tally.merge(&t);
                report.spans.append(&mut s);
                ingests += n;
            }
            let stats = svc.stats();
            // Every ingest the clients sent must have landed.
            let landed = ingests - tally.failed[Kind::Ingest as usize];
            tally.errors += landed.abs_diff(stats.total_ingested as u64);
            Ok((tally, stats, ()))
        },
    )?;

    report.attempted = rounds.out.iter().map(|(t, _, _)| t.requests()).sum();
    report.failed = rounds.out.iter().map(|(t, _, _)| t.errors).sum();
    let (check, snapshot) = mixed_gate(&size, &cfg, ctx.seed)?;
    report.check("service_eq_session", check);
    report.check("snapshot", Check::Digest(snapshot));

    if ctx.trace {
        let (traced, n_traced, stats) = merge_traced(ctx, &rounds.out);
        report_serving(&mut report, &traced, n_traced, &stats);
        report.metric("trace.overhead_pct", overhead_pct(ctx, &rounds.round_s));
        let b = base(&size, &cfg, ctx.seed)?;
        replay_base(&mut report, &b.data, &cfg, &b.result, median(&train_s))?;
        let ol = open_loop(
            ctx,
            &size,
            &mixed_service(&size, &cfg, &b)?,
            b.data.n_items(),
        )?;
        report.metric("openloop.p50_us", ol.latency.quantile_ns(0.5) * 1e-3);
        report.metric("openloop.p99_us", ol.latency.quantile_ns(0.99) * 1e-3);
        report.metric("openloop.late_pct", ol.late_pct());
        report.metric("openloop.late_max_ms", ol.late_max_ms());
        report.hists.push(("openloop".into(), ol.latency));
        for (k, kind) in KINDS.iter().enumerate() {
            report
                .hists
                .push((kind.name().into(), traced.hists[k].clone()));
        }
    } else {
        let throughput: Vec<f64> = rounds
            .out
            .iter()
            .zip(&rounds.round_s)
            .map(|((t, _, _), s)| t.requests() as f64 / s)
            .collect();
        let latency_us = |q: f64| -> Vec<f64> {
            rounds
                .out
                .iter()
                .map(|(t, _, _)| t.all().quantile_ns(q) * 1e-3)
                .collect()
        };
        report.end_to_end(
            &rounds.setup_s,
            &throughput,
            &latency_us(0.5),
            &latency_us(0.99),
        );
    }
    Ok(report)
}

/// The traced rounds' tallies merged, with their count and the service
/// stats after the last of them.
pub fn merge_traced<T>(ctx: &Ctx, out: &[(Tally, ServeStats, T)]) -> (Tally, f64, ServeStats) {
    let mut merged = Tally::default();
    let mut n = 0.0;
    let mut stats = None;
    for (i, (t, s, _)) in out.iter().enumerate() {
        if ctx.traced(i) {
            merged.merge(t);
            n += 1.0;
            stats = Some(s.clone());
        }
    }
    (merged, n, stats.expect("traced runs have traced rounds"))
}

/// The diagnostic open-loop phase: two clients at half the total rate
/// each, on a fresh service, for `openloop_s` seconds.
fn open_loop(
    ctx: &Ctx,
    size: &MixedSize,
    svc: &SkillService,
    n_items: usize,
) -> Result<OpenLoop, String> {
    const RATE: f64 = 100_000.0;
    let per_lane = (RATE / THREADS as f64 * size.openloop_s) as u64;
    let bands = BandsSeen::default();
    let lanes: Vec<(OpenLoop, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|l| {
                let bands = &bands;
                scope.spawn(move || {
                    let (lo, span) = lane_range(size, l);
                    let mut traffic = Traffic::new(lane_seed(ctx.seed, l), lo, span, n_items);
                    let mut lane = Lane::new(false, bands, ctx.clock, 0);
                    let mut ol = OpenLoop::new(RATE / THREADS as f64);
                    let start = Instant::now();
                    for i in 0..per_lane {
                        let due = ol.due_ns(i);
                        while (start.elapsed().as_nanos() as u64) < due {
                            std::hint::spin_loop();
                        }
                        let begun = start.elapsed().as_nanos() as u64;
                        let op = traffic.next();
                        traffic.send(svc, &mut lane, op);
                        ol.record(due, begun, start.elapsed().as_nanos() as u64);
                    }
                    (ol, lane.tally.errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop clients do not panic"))
            .collect()
    });
    let mut total = OpenLoop::new(RATE);
    for (ol, errors) in &lanes {
        if *errors > 0 {
            return Err(format!("{errors} open-loop requests failed"));
        }
        total.merge(ol);
    }
    Ok(total)
}

/// The same traffic through a service and a single-owner
/// `StreamingSession` gives byte-identical snapshots. Returns the check
/// and the snapshot's digest.
fn mixed_gate(size: &MixedSize, cfg: &TrainConfig, seed: u64) -> Result<(Check, u64), String> {
    let n_users = size.gate_users;
    let n_items = size.items.min(2_000);
    let data = generate(&synth(n_users, n_items, 20.0, seed ^ 0x9a7e))
        .map_err(|e| e.to_string())?
        .dataset;
    let n_items = data.n_items();
    let result = train(&data, cfg).map_err(|e| format!("gate train: {e}"))?;
    let policy = RefitPolicy::EveryNActions(64);
    let tuner = RefitTuner::new(2, 16, 4096).map_err(|e| e.to_string())?;
    let service = SkillService::resume(
        data.clone(),
        &result,
        *cfg,
        ParallelConfig::sequential(),
        ServeConfig {
            n_shards: 5,
            policy,
            tuner: Some(tuner),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut session =
        StreamingSession::resume(data, &result, *cfg, ParallelConfig::sequential(), policy)
            .map_err(|e| e.to_string())?;
    session.set_tuner(Some(tuner));
    let mut rng = SplitMix64::new(seed);
    let mut clock: i64 = 1_000_000_000;
    for _ in 0..2_000u32 {
        // Half the traffic extends base users, half admits new ids.
        let user = if rng.next_u64().is_multiple_of(2) {
            (rng.next_u64() % n_users as u64) as UserId
        } else {
            (n_users as u64 + rng.next_u64() % 500) as UserId
        };
        let item = (rng.next_u64() % n_items as u64) as ItemId;
        clock += 1;
        let action = Action::new(clock, user, item);
        let a = session.ingest(action).map_err(|e| e.to_string())?;
        let b = service.ingest(action).map_err(|e| e.to_string())?;
        if a != b.level {
            return Ok((Check::Fail(format!("level diverged for user {user}")), 0));
        }
    }
    let ours = service
        .snapshot("gate")
        .and_then(|b| b.to_json().map_err(ServeError::Core))
        .map_err(|e| e.to_string())?;
    let theirs = session
        .snapshot("gate")
        .to_json()
        .map_err(|e| e.to_string())?;
    let digest = Digest::default().bytes(ours.as_bytes()).finish();
    Ok((
        Check::expect(ours == theirs, || {
            "service snapshot differs from the session's".into()
        }),
        digest,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_requests_from_their_due_time() {
        let mut ol = OpenLoop::new(50_000.0); // one request every 20 µs
        assert_eq!(ol.due_ns(3), 60_000);
        // On time: latency is the service time.
        ol.record(0, 0, 2_000);
        // A 5 ms stall delays the next request; it and the one queued
        // behind it are late and pay the wait in their latency.
        ol.record(20_000, 5_000_000, 5_002_000);
        ol.record(40_000, 5_002_000, 5_004_000);
        // Caught up again, within the lateness threshold.
        ol.record(5_020_000, 5_020_000 + LATE_NS, 5_020_000 + LATE_NS + 1_000);
        assert_eq!(ol.latency.count(), 4);
        assert_eq!(ol.late_pct(), 50.0);
        assert!((ol.late_max_ms() - 4.98).abs() < 1e-9);
        assert_eq!(ol.latency.quantile_ns(1.0), 4_982_000.0);
        let mut total = OpenLoop::new(100_000.0);
        total.merge(&ol);
        total.merge(&ol);
        assert_eq!((total.latency.count(), total.late_pct()), (8, 50.0));
    }
}
