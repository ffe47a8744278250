//! Closed-loop upskilling evaluation: adaptive policy vs static
//! recommendation.
//!
//! The paper's recommendation layer (§VII) is scored offline; this
//! harness scores it **in the loop**: simulated learners (see
//! [`upskill_datasets::upskilling`]) repeatedly ask a live
//! [`SkillService`] what to attempt next, succeed or fail as a function
//! of the recommended item's stretch above their true skill, and
//! advance when stretch work succeeds. Two arms run over the *same*
//! trained model:
//!
//! - **static** — the paper's band recommendation
//!   ([`SkillService::recommend`]): best difficulty-fit/interest blend
//!   at the committed level;
//! - **adaptive** — the policy re-ranking
//!   ([`SkillService::recommend_policy`]): teach/motivate/hybrid
//!   objectives over the same band, driven by the learner's recorded
//!   outcomes (successful attempts are ingested; failures are recorded
//!   via [`SkillService::record_outcome`] and never enter the action
//!   sequence).
//!
//! The headline metric is **actions to reach the target level**
//! (censored at the attempt budget); `speedup` is the ratio of static
//! to adaptive median. Everything is seeded and bitwise deterministic
//! for any `threads` value: learner RNG streams are keyed by `(seed,
//! user)`, learner user ids are disjoint, and the services run
//! [`RefitPolicy::Manual`], so partitioning learners across threads
//! cannot change any trace.

use serde::{Deserialize, Serialize};

use upskill_core::parallel::{fan_out, ParallelConfig};
use upskill_core::policy::{PolicyConfig, PolicyMode};
use upskill_core::recommend::RecommendConfig;
use upskill_core::rng::SplitMix64;
use upskill_core::streaming::RefitPolicy;
use upskill_core::train::{train, TrainConfig};
use upskill_core::types::{Action, Dataset, ItemId, SkillLevel, UserId};
use upskill_datasets::upskilling::{simulate_learner, LearnerConfig, LearnerEnv, LearnerTrace};
use upskill_serve::{ServeConfig, ServeError, SkillService};

/// First simulated learner id — far above any base-dataset user, so
/// learners never collide with trained users.
pub const LEARNER_BASE: UserId = 1_000_000;

/// Configuration of one adaptive-vs-static evaluation run.
#[derive(Debug, Clone)]
pub struct UpskillEvalConfig {
    /// How many fresh learners to simulate per arm.
    pub n_learners: usize,
    /// The level every learner starts from.
    pub start: SkillLevel,
    /// The level learners work toward.
    pub target: SkillLevel,
    /// Result-list length requested per step (the learner attempts the
    /// top item).
    pub k: usize,
    /// Worker threads for the learner population, at most
    /// 1,024, the library's worker-thread bound (any value produces bitwise
    /// identical results).
    pub threads: usize,
    /// The item every learner bootstraps with (one ingest to admit the
    /// user and commit a starting level); pick an easiest-level item.
    pub bootstrap_item: ItemId,
    /// Stochastic learner model.
    pub learner: LearnerConfig,
    /// The adaptive arm's policy.
    pub policy: PolicyConfig,
    /// Band construction shared by both arms.
    pub recommend: RecommendConfig,
    /// Training configuration for the base model.
    pub train: TrainConfig,
}

impl UpskillEvalConfig {
    /// A hybrid-policy evaluation over `n_levels` with sensible
    /// defaults; tune per domain.
    pub fn hybrid(n_levels: usize) -> Self {
        Self {
            n_learners: 40,
            start: 1,
            target: n_levels as SkillLevel,
            k: 3,
            threads: 1,
            bootstrap_item: 0,
            learner: LearnerConfig {
                n_levels,
                ..LearnerConfig::default()
            },
            // Aptitude-forward hybrid: the success-rate-weighted reach
            // term probes upward while its own failures pull it back,
            // so the pick tracks the learner's frontier. A heavy
            // static blend would anchor picks to the committed level
            // and erase exactly that adaptivity.
            policy: PolicyConfig {
                w_aptitude: 0.55,
                w_expected: 0.25,
                w_gap: 0.2,
                static_weight: 0.1,
                ..PolicyConfig::hybrid()
            },
            // A wide band matters: the committed level can overrun the
            // learner's true skill (stretch successes advance it fast),
            // and only a generous lower slack leaves the policy's
            // expected-performance objective room to steer back to
            // difficulties the learner actually lands.
            recommend: RecommendConfig {
                lower_slack: 2.0,
                upper_slack: 2.0,
                ..RecommendConfig::default()
            },
            train: TrainConfig::new(n_levels),
        }
    }
}

/// Aggregate outcome of one arm over the learner population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmReport {
    /// Median actions to reach the target (censored runs count the
    /// full budget).
    pub median_actions: f64,
    /// Mean actions to reach the target (same censoring).
    pub mean_actions: f64,
    /// Learners that reached the target within the budget.
    pub reached: usize,
    /// Learners simulated.
    pub n_learners: usize,
    /// Order-sensitive digest over every learner trace — the bitwise
    /// fingerprint the determinism tests compare across thread counts.
    pub digest: u64,
}

/// Adaptive-vs-static outcome on one domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainReport {
    /// Domain label (e.g. `"synthetic-sparse"`).
    pub name: String,
    /// Items in the domain.
    pub n_items: usize,
    /// Skill levels in the domain.
    pub n_levels: usize,
    /// The target level learners worked toward.
    pub target: SkillLevel,
    /// The adaptive arm's policy mode.
    pub mode: PolicyMode,
    /// The static band-recommendation arm.
    pub static_arm: ArmReport,
    /// The policy re-ranking arm.
    pub adaptive_arm: ArmReport,
    /// `static_arm.median_actions / adaptive_arm.median_actions` —
    /// above 1.0 means the adaptive policy upskills faster.
    pub speedup: f64,
}

/// Which recommendation surface an arm drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Static,
    Adaptive(PolicyMode),
}

/// [`LearnerEnv`] over a live service: recommendations come from the
/// requested arm, successful attempts are ingested as completed
/// actions, failures are recorded as policy evidence (adaptive arm).
struct ServiceEnv<'a> {
    svc: &'a SkillService,
    arm: Arm,
    k: usize,
    clock: i64,
    error: Option<ServeError>,
}

impl ServiceEnv<'_> {
    fn note(&mut self, e: ServeError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }
}

impl LearnerEnv for ServiceEnv<'_> {
    fn next_item(&mut self, user: UserId, _step: usize) -> Option<(ItemId, f64)> {
        if self.error.is_some() {
            return None;
        }
        match self.arm {
            Arm::Static => match self.svc.recommend(user, Some(self.k)) {
                Ok(recs) => recs.first().map(|r| (r.item, r.difficulty)),
                Err(e) => {
                    self.note(e);
                    None
                }
            },
            Arm::Adaptive(mode) => match self.svc.recommend_policy(user, Some(self.k), mode) {
                Ok(recs) => recs.first().map(|r| (r.item, r.difficulty)),
                // A drained band is a legitimate end of supply, not a
                // harness bug.
                Err(ServeError::EmptyBand { .. }) => None,
                Err(e) => {
                    self.note(e);
                    None
                }
            },
        }
    }

    fn observe(
        &mut self,
        user: UserId,
        _step: usize,
        item: ItemId,
        _difficulty: f64,
        correct: bool,
    ) {
        if self.error.is_some() {
            return;
        }
        if correct {
            // A successful attempt is a completed action — the paper's
            // action-sequence semantics; ingest admits it (and, on the
            // adaptive service, auto-records the policy success).
            let t = self.clock;
            self.clock += 1;
            if let Err(e) = self.svc.ingest(Action::new(t, user, item)) {
                self.note(e);
            }
        } else if let Arm::Adaptive(_) = self.arm {
            // Failures never enter the action sequence; they only feed
            // the policy state.
            if let Err(e) = self.svc.record_outcome(user, item, false) {
                self.note(e);
            }
        }
    }
}

/// Runs one arm's learner population against `svc` on the library's
/// fan-out, one job per learner on up to `threads` workers; traces come
/// back in learner order, the first error in learner order winning,
/// whatever the worker count or schedule.
fn run_arm(
    svc: &SkillService,
    arm: Arm,
    cfg: &UpskillEvalConfig,
) -> Result<Vec<LearnerTrace>, ServeError> {
    let n = cfg.n_learners;
    let mut workers = vec![(); cfg.threads.clamp(1, n.max(1))];
    let simulate = |i: usize, _: &mut ()| simulate_one(svc, arm, LEARNER_BASE + i as UserId, cfg);
    let mut traces = Vec::with_capacity(n);
    fan_out(
        n,
        n,
        &mut workers,
        "learner simulation",
        simulate,
        |trace| {
            traces.push(trace);
            Ok(())
        },
    )?;
    Ok(traces)
}

/// One learner's full closed loop: bootstrap ingest, then simulate.
fn simulate_one(
    svc: &SkillService,
    arm: Arm,
    user: UserId,
    cfg: &UpskillEvalConfig,
) -> Result<LearnerTrace, ServeError> {
    let mut env = ServiceEnv {
        svc,
        arm,
        k: cfg.k,
        clock: 1,
        error: None,
    };
    // Admit the learner with one easy completed action, so the service
    // has a committed level to recommend from.
    svc.ingest(Action::new(0, user, cfg.bootstrap_item))?;
    let trace = simulate_learner(user, cfg.start, cfg.target, &cfg.learner, &mut env)
        .map_err(ServeError::Core)?;
    match env.error {
        Some(e) => Err(e),
        None => Ok(trace),
    }
}

/// Collapses a population of traces into an [`ArmReport`].
fn summarize(traces: &[LearnerTrace], budget: usize) -> ArmReport {
    let mut actions: Vec<usize> = traces.iter().map(|t| t.actions_to_target(budget)).collect();
    actions.sort_unstable();
    let n = actions.len();
    let median = if n == 0 {
        0.0
    } else if n % 2 == 1 {
        actions[n / 2] as f64
    } else {
        (actions[n / 2 - 1] + actions[n / 2]) as f64 / 2.0
    };
    let mean = if n == 0 {
        0.0
    } else {
        actions.iter().sum::<usize>() as f64 / n as f64
    };
    let mut digest = SplitMix64::new(0x6576_616c).next_u64();
    for t in traces {
        digest = digest.rotate_left(11) ^ t.digest();
    }
    ArmReport {
        median_actions: median,
        mean_actions: mean,
        reached: traces.iter().filter(|t| t.reached_at.is_some()).count(),
        n_learners: n,
        digest,
    }
}

/// Trains one model on `dataset` and runs both arms' learner
/// populations against fresh services resumed from it.
///
/// Both services pin [`RefitPolicy::Manual`], so the emission table
/// (and every difficulty estimate) stays at the trained epoch for the
/// whole run — the re-ranking layer, not model drift, is what differs
/// between arms.
pub fn evaluate_upskilling(
    dataset: &Dataset,
    name: &str,
    cfg: &UpskillEvalConfig,
) -> Result<DomainReport, ServeError> {
    evaluate_upskilling_traced(dataset, name, cfg).map(|(report, _, _)| report)
}

/// [`evaluate_upskilling`], additionally returning the raw learner
/// traces of both arms (static first) for diagnostics.
pub fn evaluate_upskilling_traced(
    dataset: &Dataset,
    name: &str,
    cfg: &UpskillEvalConfig,
) -> Result<(DomainReport, Vec<LearnerTrace>, Vec<LearnerTrace>), ServeError> {
    if cfg.n_learners == 0 {
        return Err(ServeError::BadRequest {
            what: "n_learners",
            detail: "need at least one simulated learner",
        });
    }
    // Bounded before any spawn; 0 runs on the calling thread, like 1.
    ParallelConfig::all(cfg.threads.max(1)).validate()?;
    let result = train(dataset, &cfg.train)?;
    let serve_static = ServeConfig {
        n_shards: 4,
        policy: RefitPolicy::Manual,
        recommend: cfg.recommend,
        ..ServeConfig::default()
    };
    let serve_adaptive = ServeConfig {
        adaptive: Some(cfg.policy),
        ..serve_static
    };
    let service = |serve: ServeConfig| {
        SkillService::resume(
            dataset.clone(),
            &result,
            cfg.train,
            ParallelConfig::default(),
            serve,
        )
    };
    // One arm's service at a time: each holds its own copy of the
    // dataset, so building both up front doubles the peak.
    let static_traces = run_arm(&service(serve_static)?, Arm::Static, cfg)?;
    let adaptive_traces = run_arm(
        &service(serve_adaptive)?,
        Arm::Adaptive(cfg.policy.mode),
        cfg,
    )?;
    let budget = cfg.learner.max_actions;
    let static_arm = summarize(&static_traces, budget);
    let adaptive_arm = summarize(&adaptive_traces, budget);
    let speedup = if adaptive_arm.median_actions > 0.0 {
        static_arm.median_actions / adaptive_arm.median_actions
    } else {
        1.0
    };
    let report = DomainReport {
        name: name.to_string(),
        n_items: dataset.items().len(),
        n_levels: cfg.train.n_levels,
        target: cfg.target,
        mode: cfg.policy.mode,
        static_arm,
        adaptive_arm,
        speedup,
    };
    Ok((report, static_traces, adaptive_traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use upskill_datasets::synthetic::{generate, SyntheticConfig};

    fn tiny_domain() -> Dataset {
        let config = SyntheticConfig {
            n_users: 60,
            n_items: 60,
            n_levels: 3,
            mean_sequence_len: 30.0,
            p_at_level: 0.5,
            p_advance: 0.1,
            n_categories: 6,
            seed: 11,
        };
        generate(&config).unwrap().dataset
    }

    fn tiny_eval() -> UpskillEvalConfig {
        let mut cfg = UpskillEvalConfig::hybrid(3);
        cfg.n_learners = 6;
        cfg.learner.max_actions = 60;
        cfg.learner.seed = 5;
        cfg.train = TrainConfig::new(3)
            .with_max_iterations(3)
            .with_min_init_actions(10);
        cfg
    }

    #[test]
    fn evaluation_runs_and_reports_both_arms() {
        let dataset = tiny_domain();
        let report = evaluate_upskilling(&dataset, "tiny", &tiny_eval()).unwrap();
        assert_eq!(report.name, "tiny");
        assert_eq!(report.static_arm.n_learners, 6);
        assert_eq!(report.adaptive_arm.n_learners, 6);
        assert!(report.static_arm.median_actions > 0.0);
        assert!(report.speedup.is_finite());
    }

    #[test]
    fn thread_count_does_not_change_any_bit() {
        let dataset = tiny_domain();
        let mut one = tiny_eval();
        one.threads = 1;
        let mut three = tiny_eval();
        three.threads = 3;
        let a = evaluate_upskilling(&dataset, "tiny", &one).unwrap();
        let b = evaluate_upskilling(&dataset, "tiny", &three).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_learners_is_rejected() {
        let dataset = tiny_domain();
        let mut cfg = tiny_eval();
        cfg.n_learners = 0;
        assert!(matches!(
            evaluate_upskilling(&dataset, "tiny", &cfg),
            Err(ServeError::BadRequest {
                what: "n_learners",
                ..
            })
        ));
    }
}
