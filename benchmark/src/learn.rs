//! The `learn-loop` workload: simulated learners driven through the
//! closed recommend → attempt → observe loop of an adaptive service.
//!
//! The learner model is `upskill_datasets::upskilling::simulate_learner`;
//! the environment it asks for items is this file's [`BenchEnv`], which
//! makes the same service calls as the upskilling evaluation's own
//! environment (so the gate can compare traces bit for bit) but times
//! each one through a serving [`Lane`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use upskill_core::parallel::ParallelConfig;
use upskill_core::policy::PolicyMode;
use upskill_core::streaming::RefitPolicy;
use upskill_core::train::{train, TrainResult};
use upskill_core::types::{Action, Dataset, ItemId, SkillLevel, UserId};
use upskill_datasets::synthetic::{generate, SyntheticConfig};
use upskill_datasets::upskilling::{simulate_learner, LearnerEnv, LearnerTrace};
use upskill_eval::upskilling::{evaluate_upskilling_traced, UpskillEvalConfig, LEARNER_BASE};
use upskill_serve::{ServeConfig, ServeError, SkillService};

use crate::serve::{merge_traced, replay_base, report_serving, BandsSeen, Kind, Lane, Tally};
use crate::trace::{Clock, Spans};
use crate::train::train_config;
use crate::{median, overhead_pct, Check, Ctx, Digest, Report, THREADS};

/// Skill levels of the `synthetic-sparse` domain.
const N_LEVELS: usize = 5;

/// Seed of `bench_policy`'s `synthetic-sparse` domain. The domain is
/// fixed; `--seed` draws the learners.
const DOMAIN_SEED: u64 = 401;

struct LearnSize {
    /// `SyntheticConfig::scaled` factor of the domain (10: 1,000 users
    /// over 5,000 items, as `bench_policy` at default scale).
    domain_factor: usize,
    learners: usize,
    budget: usize,
    gate_learners: usize,
}

/// `UpskillEvalConfig::hybrid` with `bench_policy`'s settings, except
/// that the iteration count is pinned (zero tolerance) so every seed
/// trains the same amount.
fn eval_config(learners: usize, budget: usize, seed: u64) -> UpskillEvalConfig {
    let mut cfg = UpskillEvalConfig::hybrid(N_LEVELS);
    cfg.threads = THREADS;
    cfg.n_learners = learners;
    cfg.learner.max_actions = budget;
    cfg.learner.seed = seed;
    cfg.train = train_config(N_LEVELS, 10, 3);
    cfg
}

/// The adaptive service of the upskilling evaluation: `Manual` refits,
/// so bands stay warm and every learner sees the trained epoch.
fn adaptive_service(
    data: &Dataset,
    result: &TrainResult,
    cfg: &UpskillEvalConfig,
) -> Result<SkillService, String> {
    SkillService::resume(
        data.clone(),
        result,
        cfg.train,
        ParallelConfig::sequential(),
        ServeConfig {
            n_shards: 4,
            policy: RefitPolicy::Manual,
            recommend: cfg.recommend,
            adaptive: Some(cfg.policy),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("service: {e}"))
}

/// A [`LearnerEnv`] over a live service whose every call is timed by a
/// lane: `recommend_policy` proposes, a success is ingested, a failure
/// is recorded as policy evidence.
struct BenchEnv<'a, 'b> {
    svc: &'a SkillService,
    lane: &'a mut Lane<'b>,
    k: usize,
    mode: PolicyMode,
    /// The learner's committed level, from its last ingest.
    level: SkillLevel,
    learner: u64,
    clock: i64,
    error: bool,
    /// Time spent inside these callbacks.
    env_ns: u64,
    /// Time of the current step's `recommend_policy` call.
    step_ns: u64,
}

impl LearnerEnv for BenchEnv<'_, '_> {
    fn next_item(&mut self, user: UserId, step: usize) -> Option<(ItemId, f64)> {
        if self.error {
            return None;
        }
        let t = Instant::now();
        let (svc, k, mode) = (self.svc, self.k, self.mode);
        self.lane.request = (self.learner << 20) | step as u64;
        let recs = self
            .lane
            .recommend(svc, Kind::RecommendPolicy, self.level, || {
                svc.recommend_policy(user, Some(k), mode)
            });
        let next = match recs {
            Ok(recs) => recs.first().map(|r| (r.item, r.difficulty)),
            // A drained band ends the learner's supply; it is not an error.
            Err(ServeError::EmptyBand { .. }) => None,
            Err(_) => {
                self.error = true;
                None
            }
        };
        self.step_ns = t.elapsed().as_nanos() as u64;
        self.env_ns += self.step_ns;
        next
    }

    fn observe(
        &mut self,
        user: UserId,
        _step: usize,
        item: ItemId,
        _difficulty: f64,
        correct: bool,
    ) {
        if self.error {
            return;
        }
        let t = Instant::now();
        let svc = self.svc;
        if correct {
            let time = self.clock;
            self.clock += 1;
            match self.lane.ingest(svc, Action::new(time, user, item)) {
                Some(o) => self.level = o.level,
                None => self.error = true,
            }
        } else if self
            .lane
            .call(Kind::RecordOutcome, || {
                svc.record_outcome(user, item, false)
            })
            .is_err()
        {
            self.error = true;
        }
        let ns = t.elapsed().as_nanos() as u64;
        self.env_ns += ns;
        self.lane.tally.steps.record(self.step_ns + ns);
    }
}

/// One learner, as the evaluation runs it: a bootstrap ingest at time 0
/// admits the user, then the simulated loop.
fn drive_one(
    svc: &SkillService,
    lane: &mut Lane,
    cfg: &UpskillEvalConfig,
    index: usize,
) -> Result<LearnerTrace, String> {
    let user = LEARNER_BASE + index as UserId;
    let span_start = Instant::now();
    let parent = lane.spans.id();
    lane.parent = parent;
    lane.request = (index as u64) << 20;
    let level = lane
        .ingest(svc, Action::new(0, user, cfg.bootstrap_item))
        .ok_or_else(|| format!("bootstrap ingest for learner {index} failed"))?
        .level;
    let mut env = BenchEnv {
        svc,
        lane,
        k: cfg.k,
        mode: cfg.policy.mode,
        level,
        learner: index as u64,
        clock: 1,
        error: false,
        env_ns: 0,
        step_ns: 0,
    };
    let t = Instant::now();
    let trace = simulate_learner(user, cfg.start, cfg.target, &cfg.learner, &mut env)
        .map_err(|e| format!("simulate_learner: {e}"))?;
    let sim_ns = t.elapsed().as_nanos() as u64;
    let (failed, env_ns) = (env.error, env.env_ns);
    lane.tally.learner_ns += sim_ns.saturating_sub(env_ns);
    if lane.traced {
        let end = Instant::now();
        let request = (index as u64) << 20;
        lane.spans
            .push_with_id(parent, "learn.learner", span_start, end, 0, request);
    }
    if failed {
        return Err(format!("learner {index}: a service call failed"));
    }
    Ok(trace)
}

/// Drives `cfg.n_learners` learners from [`THREADS`] threads, each
/// taking the next learner when its last one is done; returns the merged
/// tally, the spans and the traces in learner order. Learner ids are
/// disjoint and refits are manual, so the traces do not depend on which
/// thread ran them.
fn drive(
    svc: &SkillService,
    cfg: &UpskillEvalConfig,
    traced: bool,
    clock: Clock,
) -> (Tally, Spans, Vec<Result<LearnerTrace, String>>) {
    let bands = BandsSeen::default();
    let next = AtomicUsize::new(0);
    let lanes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|l| {
                let (bands, next) = (&bands, &next);
                scope.spawn(move || {
                    let mut lane = Lane::new(traced, bands, clock, l as u32 + 1);
                    let traces: Vec<_> = std::iter::from_fn(|| {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        (i < cfg.n_learners).then(|| (i, drive_one(svc, &mut lane, cfg, i)))
                    })
                    .collect();
                    let (tally, spans) = lane.finish();
                    (tally, spans, traces)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("learner threads do not panic"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut spans = Spans::new(clock, 0);
    let mut traces = Vec::with_capacity(cfg.n_learners);
    for (t, mut s, tr) in lanes {
        tally.merge(&t);
        spans.append(&mut s);
        traces.extend(tr);
    }
    traces.sort_by_key(|(i, _)| *i);
    (tally, spans, traces.into_iter().map(|(_, t)| t).collect())
}

fn digest_traces(traces: &[LearnerTrace]) -> u64 {
    traces
        .iter()
        .fold(Digest::default(), |d, t| d.word(t.digest()))
        .finish()
}

struct Base {
    data: Dataset,
    result: TrainResult,
    train_s: f64,
}

fn base(size: &LearnSize, cfg: &UpskillEvalConfig) -> Result<Base, String> {
    let domain = SyntheticConfig::scaled(size.domain_factor, false, DOMAIN_SEED);
    let data = generate(&domain).map_err(|e| e.to_string())?.dataset;
    let t = Instant::now();
    let result = train(&data, &cfg.train).map_err(|e| format!("base train: {e}"))?;
    Ok(Base {
        data,
        result,
        train_s: t.elapsed().as_secs_f64(),
    })
}

/// `learn-loop`: read-heavy adaptive serving from two learner threads.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let size = ctx.size.pick(
        LearnSize {
            domain_factor: 10,
            learners: 50,
            budget: 300,
            gate_learners: 16,
        },
        LearnSize {
            domain_factor: 100,
            learners: 8,
            budget: 40,
            gate_learners: 4,
        },
    );
    let cfg = eval_config(size.learners, size.budget, ctx.seed);
    let mut report = Report::new(ctx);
    let mut train_s = Vec::new();

    let rounds = ctx.rounds(
        || {
            let b = base(&size, &cfg)?;
            train_s.push(b.train_s);
            adaptive_service(&b.data, &b.result, &cfg)
        },
        |svc, i| {
            let (tally, mut spans, traces) = drive(svc, &cfg, ctx.traced(i), ctx.clock);
            report.spans.append(&mut spans);
            let traces: Vec<LearnerTrace> = traces.into_iter().collect::<Result<_, _>>()?;
            Ok((tally, svc.stats(), digest_traces(&traces)))
        },
    )?;

    report.attempted = rounds.out.iter().map(|(t, _, _)| t.requests()).sum();
    report.failed = rounds.out.iter().map(|(t, _, _)| t.errors).sum();
    let digests: Vec<u64> = rounds.out.iter().map(|(_, _, d)| *d).collect();
    report.check(
        "rounds_agree",
        Check::expect(digests.iter().all(|&d| d == digests[0]), || {
            format!("round digests differ: {digests:x?}")
        }),
    );
    report.check("output", Check::Digest(digests[0]));
    report.check("bench_env_eq_evaluation", gate(&size, ctx)?);

    if ctx.trace {
        let (traced, n_traced, stats) = merge_traced(ctx, &rounds.out);
        report_serving(&mut report, &traced, n_traced, &stats);
        report.metric("trace.overhead_pct", overhead_pct(ctx, &rounds.round_s));
        let b = base(&size, &cfg)?;
        let real_s = median(&train_s);
        replay_base(&mut report, &b.data, &cfg.train, &b.result, real_s)?;
        for (k, name) in [
            (Kind::RecommendPolicy, "recommend_policy"),
            (Kind::Ingest, "ingest"),
        ] {
            report.hists.push((name.into(), traced.hist(k).clone()));
        }
    } else {
        let throughput: Vec<f64> = rounds
            .out
            .iter()
            .zip(&rounds.round_s)
            .map(|((t, _, _), s)| t.steps.count() as f64 / s)
            .collect();
        let latency_us = |q: f64| -> Vec<f64> {
            rounds
                .out
                .iter()
                .map(|(t, _, _)| t.steps.quantile_ns(q) * 1e-3)
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

/// The benchmark's environment reproduces the evaluation's adaptive arm:
/// `gate_learners` learners through [`drive`] give the same traces as
/// `evaluate_upskilling_traced`.
fn gate(size: &LearnSize, ctx: &Ctx) -> Result<Check, String> {
    let cfg = eval_config(size.gate_learners, size.budget, ctx.seed);
    let b = base(size, &cfg)?;
    let (_, _, want) = evaluate_upskilling_traced(&b.data, "gate", &cfg)
        .map_err(|e| format!("evaluation: {e}"))?;
    let svc = adaptive_service(&b.data, &b.result, &cfg)?;
    let (_, _, got) = drive(&svc, &cfg, false, ctx.clock);
    let got: Vec<LearnerTrace> = got.into_iter().collect::<Result<_, _>>()?;
    Ok(Check::expect(got == want, || {
        format!(
            "benchmark traces {:016x} vs evaluation {:016x}",
            digest_traces(&got),
            digest_traces(&want)
        )
    }))
}
