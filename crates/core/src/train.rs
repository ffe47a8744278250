//! Training loop (paper §IV-B): alternate skill assignment and parameter
//! update from a uniform-segmentation initialization until convergence.
//!
//! Hard assignments make each iteration a coordinate-ascent step on Eq. 3:
//! the assignment step maximizes over `Σ` with `Θ` fixed (globally, via the
//! DP), and the update step maximizes over `Θ` with `Σ` fixed (in closed
//! form per cell). With smoothing `λ > 0` the parameter step is *almost*
//! exact ascent (the smoothed MLE differs infinitesimally from the MLE), so
//! the trainer also accepts an iteration cap and an assignment-stability
//! stopping rule, which is what terminates in practice.
//!
//! Each assignment step reads one shared [`EmissionTable`], so every
//! iteration evaluates each item's emission vector once instead of once
//! per action; after the first iteration only the columns of levels the
//! update refit are recomputed. The update step maintains a persistent
//! [`StatsGrid`] by per-action deltas instead of rescanning the dataset.
//! The from-scratch baseline of both (rebuilt table, full rescan) is
//! [`crate::reference::train_full_rescan`], kept for tests and
//! `bench_incremental` only: it reaches the same assignments about 2×
//! slower after the first iteration (`reports/BENCH_incremental.json`),
//! so it is no runtime option.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::dist::DEFAULT_SMOOTHING;
use crate::em::{EmConfig, EmResult};
use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::incremental::StatsGrid;
use crate::init::initialize_model;
use crate::invariants::InvariantCtx;
use crate::model::SkillModel;
use crate::parallel::{assign_all_parallel, assign_all_parallel_with_table, ParallelConfig};
use crate::transition::TransitionModel;
use crate::types::{Dataset, SkillAssignments, SkillLevel};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of skill levels `S`.
    pub n_levels: usize,
    /// Categorical smoothing pseudo-count `λ` (default 0.01).
    pub lambda: f64,
    /// Minimum sequence length for a user to join the initialization fit
    /// (`N` in the paper; 50 in the experiments).
    pub min_init_actions: usize,
    /// Maximum alternation iterations.
    pub max_iterations: usize,
    /// Stop when the relative log-likelihood improvement drops below this.
    pub tolerance: f64,
}

impl TrainConfig {
    /// Paper defaults for a given skill count: `λ = 0.01`, `N = 50`.
    pub fn new(n_levels: usize) -> Self {
        Self {
            n_levels,
            lambda: DEFAULT_SMOOTHING,
            min_init_actions: 50,
            max_iterations: 100,
            tolerance: 1e-6,
        }
    }

    /// Overrides the initialization threshold.
    pub fn with_min_init_actions(mut self, n: usize) -> Self {
        self.min_init_actions = n;
        self
    }

    /// Overrides the smoothing pseudo-count.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Overrides the iteration cap.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Overrides the convergence tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Validates hyperparameters.
    pub fn validate(&self) -> Result<()> {
        if self.n_levels == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        // `SkillLevel` is a u8: more levels than its range could silently
        // truncate level indices in the DP and grid paths.
        if self.n_levels > SkillLevel::MAX as usize {
            return Err(CoreError::InvalidSkillCount {
                requested: self.n_levels,
            });
        }
        if !self.lambda.is_finite() || self.lambda < 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "training lambda",
                value: self.lambda,
            });
        }
        if self.max_iterations == 0 {
            return Err(CoreError::NoConvergence {
                routine: "training",
                iterations: 0,
            });
        }
        Ok(())
    }
}

/// Log-likelihood and assignment-churn trace of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration number (1-based). When training stops at the iteration
    /// cap, a final entry numbered `max_iterations + 1` records the
    /// closing assignment pass (which has no update step).
    pub iteration: usize,
    /// Objective (Eq. 3) after this iteration's assignment step.
    pub log_likelihood: f64,
    /// Number of actions whose assigned level changed vs. the previous
    /// iteration; `None` on the first iteration (nothing to diff against).
    pub n_changed: Option<usize>,
    /// Wall-clock seconds this iteration took (assignment + statistics
    /// maintenance + parameter update).
    pub seconds: f64,
}

/// Output of [`train`]: the fitted model, final assignments, and the
/// per-iteration trace.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// The trained skill model.
    pub model: SkillModel,
    /// Final hard skill assignments for every action.
    pub assignments: SkillAssignments,
    /// Final objective value.
    pub log_likelihood: f64,
    /// Per-iteration statistics.
    pub trace: Vec<IterationStats>,
    /// Whether the loop stopped by convergence (vs. the iteration cap).
    pub converged: bool,
}

/// Trains a skill model on a dataset (sequential execution).
pub fn train(dataset: &Dataset, config: &TrainConfig) -> Result<TrainResult> {
    train_with_parallelism(dataset, config, &ParallelConfig::sequential())
}

/// Assignment mode of the [`Trainer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainMode {
    /// Hard assignments: alternate the monotone Viterbi DP with
    /// closed-form updates (the paper's trainer; [`train_with_parallelism`]).
    #[default]
    Hard,
    /// Soft assignments: forward–backward EM over the stay/advance lattice
    /// ([`crate::em::train_em_with_parallelism`]), closed with one hard
    /// decode so the result is interchangeable with the hard mode's.
    Em,
}

/// Unified training entry point: one builder covering [`train`],
/// [`train_with_parallelism`], and the EM trainer, with parallelism and
/// hyperparameters set through `with_*` methods.
///
/// ```
/// use upskill_core::parallel::ParallelConfig;
/// use upskill_core::train::Trainer;
/// # use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
/// # use upskill_core::types::{Action, ActionSequence, Dataset};
/// # let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }])?;
/// # let items = vec![vec![FeatureValue::Categorical(0)], vec![FeatureValue::Categorical(1)]];
/// # let sequences: Vec<ActionSequence> = (0..4)
/// #     .map(|u| {
/// #         let actions = (0..8).map(|t| Action::new(t, u, u32::from(t >= 4))).collect();
/// #         ActionSequence::new(u, actions)
/// #     })
/// #     .collect::<Result<_, _>>()?;
/// # let dataset = Dataset::new(schema, items, sequences)?;
/// let result = Trainer::new(2)
///     .with_min_init_actions(4)
///     .with_parallelism(ParallelConfig::all(2))
///     .fit(&dataset)?;
/// assert!(result.assignments.is_monotone());
/// # Ok::<(), upskill_core::error::CoreError>(())
/// ```
///
/// From the returned [`TrainResult`] a live
/// [`StreamingSession`](crate::streaming::StreamingSession) can be resumed
/// — or built in one step with [`Trainer::fit_session`].
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    parallel: ParallelConfig,
    mode: TrainMode,
    /// EM-mode transitions; `None` means uninformative.
    transitions: Option<TransitionModel>,
}

impl Trainer {
    /// A hard-assignment, sequential trainer with paper defaults for `S`
    /// skill levels.
    pub fn new(n_levels: usize) -> Self {
        Self::from_config(TrainConfig::new(n_levels))
    }

    /// Wraps an existing [`TrainConfig`].
    pub fn from_config(config: TrainConfig) -> Self {
        Self {
            config,
            parallel: ParallelConfig::sequential(),
            mode: TrainMode::Hard,
            transitions: None,
        }
    }

    /// Overrides the smoothing pseudo-count `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.config = self.config.with_lambda(lambda);
        self
    }

    /// Overrides the initialization length threshold.
    pub fn with_min_init_actions(mut self, n: usize) -> Self {
        self.config = self.config.with_min_init_actions(n);
        self
    }

    /// Overrides the iteration cap.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.config = self.config.with_max_iterations(n);
        self
    }

    /// Overrides the convergence tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.config = self.config.with_tolerance(tolerance);
        self
    }

    /// Replaces the parallelism configuration wholesale.
    pub fn with_parallelism(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Shorthand for [`ParallelConfig::all`]: every parallel technique on
    /// `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallel = ParallelConfig::all(threads);
        self
    }

    /// Switches to soft-assignment (EM) training with uninformative
    /// transitions.
    pub fn em(mut self) -> Self {
        self.mode = TrainMode::Em;
        self
    }

    /// Switches to EM training with explicit transition probabilities.
    pub fn em_with_transitions(mut self, transitions: TransitionModel) -> Self {
        self.mode = TrainMode::Em;
        self.transitions = Some(transitions);
        self
    }

    /// Switches (back) to hard-assignment training.
    pub fn hard(mut self) -> Self {
        self.mode = TrainMode::Hard;
        self
    }

    /// The effective training hyperparameters.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The effective parallelism configuration.
    pub fn parallel(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// The effective assignment mode.
    pub fn mode(&self) -> TrainMode {
        self.mode
    }

    /// Trains on `dataset` and returns a uniform [`TrainResult`] whatever
    /// the mode.
    ///
    /// In EM mode the evidence trace is exposed through
    /// [`IterationStats::log_likelihood`] (with `n_changed` and `seconds`
    /// unset/zero — EM has no churn notion and is not instrumented
    /// per-iteration), and the soft model is closed with one hard decode
    /// so `assignments` and `log_likelihood` mean the same thing in both
    /// modes.
    pub fn fit(&self, dataset: &Dataset) -> Result<TrainResult> {
        if self.mode == TrainMode::Hard {
            return train_with_parallelism(dataset, &self.config, &self.parallel);
        }
        self.config.validate()?;
        let initial = initialize_model(
            dataset,
            self.config.n_levels,
            self.config.min_init_actions,
            self.config.lambda,
        )?;
        let (em, trace) = self.fit_em(initial, |cfg| {
            crate::em::train_em_with_parallelism(dataset, cfg, &self.parallel)
        })?;
        let (assignments, log_likelihood) =
            assign_all_parallel(&em.model, dataset, &self.parallel)?;
        InvariantCtx::new().check_monotone("em decode", &assignments)?;
        Ok(TrainResult {
            model: em.model,
            assignments,
            log_likelihood,
            trace,
            converged: em.converged,
        })
    }

    /// Trains chunk-at-a-time from any [`crate::chunked::ChunkSource`] —
    /// the out-of-core
    /// entry point ([`crate::chunked`]).
    ///
    /// In hard mode this is [`crate::chunked::train_chunked`]; in EM mode
    /// the chunked initializer feeds
    /// [`crate::chunked::train_em_chunked`] and the soft fit is closed
    /// with one streamed hard decode, mirroring [`Trainer::fit`]'s EM
    /// arm. Hard mode is bitwise identical to the in-memory trainer on
    /// the materialized dataset, EM mode to
    /// [`crate::reference::train_em_full`] plus the same decode, and peak
    /// memory stays bounded by `chunk_size × workers` (plus the
    /// `InMemory` storage's byte per action, if selected).
    pub fn fit_chunked<S: crate::chunked::ChunkSource + ?Sized>(
        &self,
        source: &S,
        storage: crate::chunked::AssignmentStorage,
    ) -> Result<crate::chunked::ChunkedTrainResult> {
        if self.mode == TrainMode::Hard {
            return crate::chunked::train_chunked(source, &self.config, &self.parallel, storage);
        }
        self.config.validate()?;
        let initial = crate::chunked::initialize_model_chunked(
            source,
            self.config.n_levels,
            self.config.min_init_actions,
            self.config.lambda,
        )?;
        let (em, trace) = self.fit_em(initial, |cfg| {
            crate::chunked::train_em_chunked(source, cfg, &self.parallel)
        })?;
        let (level_histogram, log_likelihood) =
            crate::chunked::level_histogram_chunked(source, &em.model, &self.parallel)?;
        Ok(crate::chunked::ChunkedTrainResult {
            model: em.model,
            log_likelihood,
            trace,
            converged: em.converged,
            level_histogram,
            n_users: source.n_users(),
            n_actions: source.n_actions(),
        })
    }

    /// Trains on `dataset` and immediately resumes a live
    /// [`StreamingSession`](crate::streaming::StreamingSession) over it.
    ///
    /// In EM mode the session is a **soft continuation**
    /// ([`StreamingSession::resume_em`](crate::streaming::StreamingSession::resume_em)):
    /// the EM-fitted model is preserved bit for bit and later refits
    /// replay responsibility mass instead of falling back to a
    /// hard-count retrain of the soft fit.
    pub fn fit_session(
        &self,
        dataset: Dataset,
        policy: crate::streaming::RefitPolicy,
    ) -> Result<crate::streaming::StreamingSession> {
        let result = self.fit(&dataset)?;
        match self.mode {
            TrainMode::Hard => crate::streaming::StreamingSession::resume(
                dataset,
                &result,
                self.config,
                self.parallel,
                policy,
            ),
            TrainMode::Em => crate::streaming::StreamingSession::resume_em(
                dataset,
                &result,
                self.em_transitions()?,
                self.config,
                self.parallel,
                policy,
            ),
        }
    }

    /// EM-mode transitions: the configured ones, else uninformative.
    fn em_transitions(&self) -> Result<TransitionModel> {
        match &self.transitions {
            Some(t) => Ok(t.clone()),
            None => TransitionModel::uninformative(self.config.n_levels),
        }
    }

    /// The EM arms' shared core: runs `run` on an [`EmConfig`] seeded
    /// from `initial` with this trainer's transitions and
    /// hyperparameters, and exposes the evidence trace as
    /// [`IterationStats`] (no churn, no per-iteration timing).
    fn fit_em(
        &self,
        initial: SkillModel,
        run: impl FnOnce(&EmConfig) -> Result<EmResult>,
    ) -> Result<(EmResult, Vec<IterationStats>)> {
        let em_cfg = EmConfig::new(initial, self.em_transitions()?)
            .with_lambda(self.config.lambda)
            .with_max_iterations(self.config.max_iterations)
            .with_tolerance(self.config.tolerance);
        let em = run(&em_cfg)?;
        let trace = em
            .evidence_trace
            .iter()
            .enumerate()
            .map(|(i, &ev)| IterationStats {
                iteration: i + 1,
                log_likelihood: ev,
                n_changed: None,
                seconds: 0.0,
            })
            .collect();
        Ok((em, trace))
    }
}

/// Trains a skill model with explicit parallelization flags (§IV-C).
///
/// Every thread count gives bitwise the sequential result: the table
/// fills, the assignment fan-out and the statistics deltas all fold in a
/// fixed order.
pub fn train_with_parallelism(
    dataset: &Dataset,
    config: &TrainConfig,
    parallel: &ParallelConfig,
) -> Result<TrainResult> {
    config.validate()?;
    parallel.validate()?;
    if dataset.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }

    let mut model = initialize_model(
        dataset,
        config.n_levels,
        config.min_init_actions,
        config.lambda,
    )?;
    let mut prev_assignments: Option<SkillAssignments> = None;
    let mut prev_ll = f64::NEG_INFINITY;
    let mut trace = Vec::new();
    // Persistent sufficient statistics: built from scratch on the first
    // iteration, then maintained by per-action deltas wherever the
    // assigned level moved.
    let mut grid: Option<StatsGrid> = None;
    // Persistent emission table: the update step reuses the previous
    // distributions for levels its delta never touched, so only the refit
    // levels' table columns need recomputing.
    let mut table: Option<EmissionTable> = None;
    let mut refit_levels: Vec<bool> = Vec::new();
    let ctx = InvariantCtx::new();

    for iteration in 1..=config.max_iterations {
        let iter_start = Instant::now();
        let (assignments, ll) = assign_step(
            &model,
            dataset,
            parallel,
            &mut table,
            &refit_levels,
            prev_assignments.as_ref(),
            ctx,
        )?;

        // Maintain the statistics and measure churn: the delta
        // application *is* the churn count — no separate diff pass.
        let (stats, n_changed) = match (grid.take(), &prev_assignments) {
            (Some(mut g), Some(prev)) => {
                let n = g.apply_delta_with_config(dataset, prev, &assignments, parallel)?;
                (g, Some(n))
            }
            _ => (
                StatsGrid::build_with_config(dataset, &assignments, config.n_levels, parallel)?,
                None,
            ),
        };
        let g = grid.insert(stats);
        // The incrementally maintained grid must match a from-scratch
        // accumulation of the current assignments (debug builds and
        // `strict-invariants`; see `crate::invariants`).
        ctx.check_grid(g, dataset, &assignments)?;

        let stable = n_changed == Some(0);
        let small_gain = prev_ll.is_finite()
            && (ll - prev_ll).abs() <= config.tolerance * prev_ll.abs().max(1.0);
        // Refit parameters (on convergence: one last time, so Θ is optimal
        // for the final Σ), only the levels the delta touched, reusing the
        // previous model's rows elsewhere; remember which levels those
        // were so the next assignment step refreshes just their
        // emission-table columns.
        refit_levels = g.dirty_levels().to_vec();
        model = g.fit_model_incremental(dataset, config.lambda, parallel, Some(&model))?;
        trace.push(IterationStats {
            iteration,
            log_likelihood: ll,
            n_changed,
            seconds: iter_start.elapsed().as_secs_f64(),
        });
        if stable || small_gain {
            return Ok(TrainResult {
                model,
                assignments,
                log_likelihood: ll,
                trace,
                converged: true,
            });
        }
        prev_assignments = Some(assignments);
        prev_ll = ll;
    }

    // Iteration cap reached; produce a consistent final state and record
    // it in the trace so `log_likelihood` always agrees with
    // `trace.last()`.
    let iter_start = Instant::now();
    let (assignments, ll) = assign_step(
        &model,
        dataset,
        parallel,
        &mut table,
        &refit_levels,
        prev_assignments.as_ref(),
        ctx,
    )?;
    let n_changed = match &prev_assignments {
        Some(prev) => Some(count_changed(prev, &assignments)?),
        None => None,
    };
    trace.push(IterationStats {
        iteration: config.max_iterations + 1,
        log_likelihood: ll,
        n_changed,
        seconds: iter_start.elapsed().as_secs_f64(),
    });
    Ok(TrainResult {
        model,
        assignments,
        log_likelihood: ll,
        trace,
        converged: false,
    })
}

/// Assignment step against the persistent table (refreshed or rebuilt by
/// [`EmissionTable::refresh_or_build`]), with the invariant checks every
/// committed assignment passes.
fn assign_step(
    model: &SkillModel,
    dataset: &Dataset,
    parallel: &ParallelConfig,
    table: &mut Option<EmissionTable>,
    refit_levels: &[bool],
    incumbent: Option<&SkillAssignments>,
    ctx: InvariantCtx,
) -> Result<(SkillAssignments, f64)> {
    let t = EmissionTable::refresh_or_build(table, model, dataset, parallel, refit_levels)?;
    let (assignments, ll) = assign_all_parallel_with_table(t, dataset, parallel)?;
    ctx.check_monotone("training assignment", &assignments)?;
    ctx.check_assign_step_optimal("training assignment step", t, dataset, incumbent, ll)?;
    Ok((assignments, ll))
}

/// Counts actions whose assigned level differs between two assignments.
/// Ragged inputs (different user counts or per-user lengths) are an error,
/// never silently truncated.
pub(crate) fn count_changed(a: &SkillAssignments, b: &SkillAssignments) -> Result<usize> {
    if a.per_user.len() != b.per_user.len() {
        return Err(CoreError::LengthMismatch {
            context: "previous vs next assignments",
            left: a.per_user.len(),
            right: b.per_user.len(),
        });
    }
    let mut total = 0usize;
    for (x, y) in a.per_user.iter().zip(&b.per_user) {
        if x.len() != y.len() {
            return Err(CoreError::LengthMismatch {
                context: "previous vs next assignment lengths",
                left: x.len(),
                right: y.len(),
            });
        }
        total += x.iter().zip(y).filter(|(l, r)| l != r).count();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::types::{Action, ActionSequence};

    /// Dataset where users progress through item categories over time.
    fn progression_dataset(n_users: usize, len: usize, n_cats: u32) -> Dataset {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical {
                cardinality: n_cats,
            },
            FeatureKind::Count,
        ])
        .unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..n_cats)
            .map(|c| {
                vec![
                    FeatureValue::Categorical(c),
                    FeatureValue::Count(1 + 4 * c as u64),
                ]
            })
            .collect();
        let sequences: Vec<ActionSequence> = (0..n_users as u32)
            .map(|u| {
                let actions: Vec<Action> = (0..len)
                    .map(|t| {
                        let cat = (t * n_cats as usize / len) as u32;
                        Action::new(t as i64, u, cat)
                    })
                    .collect();
                ActionSequence::new(u, actions).unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::new(0).validate().is_err());
        assert!(TrainConfig::new(3).with_lambda(-1.0).validate().is_err());
        assert!(TrainConfig::new(3)
            .with_max_iterations(0)
            .validate()
            .is_err());
        assert!(TrainConfig::new(3).validate().is_ok());
    }

    #[test]
    fn empty_dataset_rejected() {
        let schema = FeatureSchema::new(vec![FeatureKind::Count]).unwrap();
        let ds = Dataset::new(schema, vec![], vec![]).unwrap();
        let cfg = TrainConfig::new(2).with_min_init_actions(1);
        assert!(matches!(train(&ds, &cfg), Err(CoreError::EmptyDataset)));
    }

    #[test]
    fn training_converges_on_progression_data() {
        let ds = progression_dataset(10, 12, 3);
        let cfg = TrainConfig::new(3).with_min_init_actions(4);
        let result = train(&ds, &cfg).unwrap();
        assert!(result.converged, "trace: {:?}", result.trace);
        assert!(result.assignments.is_monotone());
        // Learned model should separate the categories by level.
        let easy = vec![FeatureValue::Categorical(0), FeatureValue::Count(1)];
        let hard = vec![FeatureValue::Categorical(2), FeatureValue::Count(9)];
        assert!(
            result.model.item_log_likelihood(&easy, 1) > result.model.item_log_likelihood(&easy, 3)
        );
        assert!(
            result.model.item_log_likelihood(&hard, 3) > result.model.item_log_likelihood(&hard, 1)
        );
    }

    #[test]
    fn objective_is_nondecreasing_across_iterations() {
        let ds = progression_dataset(8, 15, 4);
        let cfg = TrainConfig::new(4).with_min_init_actions(4);
        let result = train(&ds, &cfg).unwrap();
        for w in result.trace.windows(2) {
            assert!(
                w[1].log_likelihood >= w[0].log_likelihood - 1e-6,
                "objective decreased: {:?}",
                result.trace
            );
        }
    }

    #[test]
    fn parallel_training_matches_sequential() {
        let ds = progression_dataset(6, 10, 3);
        let cfg = TrainConfig::new(3).with_min_init_actions(4);
        let seq = train(&ds, &cfg).unwrap();
        for threads in [2, 3, 5] {
            let par = train_with_parallelism(&ds, &cfg, &ParallelConfig::all(threads)).unwrap();
            assert_eq!(seq.model, par.model, "threads={threads}");
            assert_eq!(seq.assignments, par.assignments, "threads={threads}");
            assert_eq!(seq.log_likelihood.to_bits(), par.log_likelihood.to_bits());
            assert_eq!(seq.trace.len(), par.trace.len());
            for (a, b) in seq.trace.iter().zip(&par.trace) {
                assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits());
                assert_eq!(a.n_changed, b.n_changed);
            }
        }
    }

    #[test]
    fn trace_records_every_iteration() {
        let ds = progression_dataset(5, 8, 2);
        let cfg = TrainConfig::new(2).with_min_init_actions(4);
        let result = train(&ds, &cfg).unwrap();
        assert!(!result.trace.is_empty());
        assert_eq!(result.trace[0].iteration, 1);
        assert_eq!(result.trace[0].n_changed, None);
        for (i, stats) in result.trace.iter().enumerate() {
            assert_eq!(stats.iteration, i + 1);
            assert!(stats.n_changed.is_some() || i == 0);
            assert!(stats.seconds >= 0.0);
        }
    }

    #[test]
    fn iteration_cap_exit_records_final_trace_entry() {
        let ds = progression_dataset(6, 10, 3);
        let cfg = TrainConfig::new(3)
            .with_min_init_actions(4)
            .with_max_iterations(1);
        let result = train(&ds, &cfg).unwrap();
        assert!(!result.converged);
        // One capped iteration plus the closing assignment pass.
        assert_eq!(result.trace.len(), 2);
        assert_eq!(result.trace[1].iteration, 2);
        assert!(result.trace[1].n_changed.is_some());
        // The returned objective must agree with the last trace entry.
        let last = result.trace.last().unwrap();
        assert_eq!(result.log_likelihood, last.log_likelihood);
    }

    #[test]
    fn incremental_training_matches_full_rescan_reference() {
        let ds = progression_dataset(8, 14, 4);
        // Converged run and a capped one (closing pass, no final update).
        for max_iterations in [100, 1] {
            let cfg = TrainConfig::new(4)
                .with_min_init_actions(4)
                .with_max_iterations(max_iterations);
            let incremental =
                train_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
            let full = crate::reference::train_full_rescan(&ds, &cfg).unwrap();
            assert_eq!(incremental.assignments, full.assignments);
            assert_eq!(incremental.converged, full.converged);
            assert_eq!(incremental.trace.len(), full.trace.len());
            for (a, b) in incremental.trace.iter().zip(&full.trace) {
                assert_eq!(a.iteration, b.iteration);
                assert_eq!(a.n_changed, b.n_changed);
                let scale = a.log_likelihood.abs().max(1.0);
                assert!((a.log_likelihood - b.log_likelihood).abs() <= 1e-9 * scale);
            }
            let scale = incremental.log_likelihood.abs().max(1.0);
            assert!((incremental.log_likelihood - full.log_likelihood).abs() <= 1e-9 * scale);
        }
    }

    #[test]
    fn single_level_training_is_degenerate_but_valid() {
        let ds = progression_dataset(4, 6, 2);
        let cfg = TrainConfig::new(1).with_min_init_actions(4);
        let result = train(&ds, &cfg).unwrap();
        assert!(result.assignments.iter().all(|(_, _, s)| s == 1));
    }

    #[test]
    fn trainer_hard_mode_matches_free_function() {
        let ds = progression_dataset(6, 12, 3);
        let cfg = TrainConfig::new(3).with_min_init_actions(6);
        let direct = train_with_parallelism(&ds, &cfg, &ParallelConfig::all(2)).unwrap();
        let built = Trainer::from_config(cfg).with_threads(2).fit(&ds).unwrap();
        assert_eq!(direct.assignments, built.assignments);
        assert_eq!(direct.converged, built.converged);
        assert!((direct.log_likelihood - built.log_likelihood).abs() < 1e-12);
    }

    #[test]
    fn trainer_em_mode_yields_uniform_result() {
        let ds = progression_dataset(6, 12, 3);
        let built = Trainer::new(3)
            .with_min_init_actions(6)
            .with_max_iterations(10)
            .em()
            .fit(&ds)
            .unwrap();
        assert!(built.assignments.is_monotone());
        assert_eq!(built.assignments.per_user.len(), 6);
        assert!(!built.trace.is_empty());
        assert!(built.trace.iter().all(|s| s.n_changed.is_none()));
        // The hard decode's path log-likelihood is what's reported.
        let (decoded, ll) =
            assign_all_parallel(&built.model, &ds, &ParallelConfig::sequential()).unwrap();
        assert_eq!(decoded, built.assignments);
        assert!((ll - built.log_likelihood).abs() < 1e-12);
    }

    #[test]
    fn trainer_em_arms_use_configured_transitions() {
        let ds = progression_dataset(6, 12, 3);
        let cfg = TrainConfig::new(3)
            .with_min_init_actions(6)
            .with_max_iterations(6);
        let sticky = TransitionModel::new(vec![0.95, 0.95, 1.0], vec![0.6, 0.3, 0.1]).unwrap();
        let trainer = Trainer::from_config(cfg).em_with_transitions(sticky.clone());
        let chunks = crate::chunked::DatasetChunks::new(&ds, 4).unwrap();
        let chunked = trainer
            .fit_chunked(&chunks, crate::chunked::AssignmentStorage::Recompute)
            .unwrap();
        // The chunked EM arm is the from-scratch loop on the same
        // transitions and hyperparameters.
        let initial = initialize_model(&ds, 3, 6, cfg.lambda).unwrap();
        let em_cfg = EmConfig::new(initial.clone(), sticky)
            .with_lambda(cfg.lambda)
            .with_max_iterations(cfg.max_iterations)
            .with_tolerance(cfg.tolerance);
        let expect = crate::reference::train_em_full(&ds, &em_cfg).unwrap();
        assert_eq!(chunked.model, expect.model);
        let evidence: Vec<f64> = chunked.trace.iter().map(|s| s.log_likelihood).collect();
        assert_eq!(evidence, expect.evidence_trace);
        // The in-memory arm sees the same transitions: its first
        // evidence (before any M-step) matches, and differs from the
        // uninformative default's.
        let fitted = trainer.fit(&ds).unwrap();
        assert_eq!(fitted.trace[0].log_likelihood, expect.evidence_trace[0]);
        let default = Trainer::from_config(cfg).em().fit(&ds).unwrap();
        assert_ne!(default.trace[0].log_likelihood, expect.evidence_trace[0]);
    }

    #[test]
    fn trainer_builders_compose() {
        let t = Trainer::new(4)
            .with_lambda(0.5)
            .with_min_init_actions(7)
            .with_max_iterations(3)
            .with_tolerance(1e-3)
            .with_parallelism(
                ParallelConfig::sequential()
                    .with_users(true)
                    .with_threads(2),
            )
            .em()
            .hard();
        assert_eq!(t.config().n_levels, 4);
        assert!((t.config().lambda - 0.5).abs() < 1e-15);
        assert_eq!(t.config().min_init_actions, 7);
        assert_eq!(t.config().max_iterations, 3);
        assert!((t.config().tolerance - 1e-3).abs() < 1e-15);
        assert!(t.parallel().users);
        assert_eq!(t.mode(), TrainMode::Hard);
    }

    #[test]
    fn trainer_fit_session_resumes_streaming() {
        let ds = progression_dataset(6, 12, 3);
        let session = Trainer::new(3)
            .with_min_init_actions(6)
            .fit_session(ds.clone(), crate::streaming::RefitPolicy::EveryBatch)
            .unwrap();
        assert_eq!(session.n_users(), 6);
        assert_eq!(session.total_ingested(), 0);
        let direct = train(&ds, &TrainConfig::new(3).with_min_init_actions(6)).unwrap();
        assert_eq!(session.assignments(), &direct.assignments);
    }

    #[test]
    fn trainer_fit_session_dispatches_on_mode() {
        let ds = progression_dataset(6, 12, 3);
        let hard = Trainer::new(3)
            .with_min_init_actions(6)
            .fit_session(ds.clone(), crate::streaming::RefitPolicy::Manual)
            .unwrap();
        assert!(!hard.is_em());
        let soft = Trainer::new(3)
            .with_min_init_actions(6)
            .with_max_iterations(10)
            .em()
            .fit_session(ds, crate::streaming::RefitPolicy::Manual)
            .unwrap();
        assert!(soft.is_em());
    }

    #[test]
    fn count_changed_counts_pointwise() {
        let a = SkillAssignments {
            per_user: vec![vec![1, 1, 2], vec![3]],
        };
        let b = SkillAssignments {
            per_user: vec![vec![1, 2, 2], vec![3]],
        };
        assert_eq!(count_changed(&a, &b).unwrap(), 1);
        assert_eq!(count_changed(&a, &a).unwrap(), 0);
    }

    #[test]
    fn count_changed_rejects_ragged_inputs() {
        let a = SkillAssignments {
            per_user: vec![vec![1, 1, 2], vec![3]],
        };
        let fewer_users = SkillAssignments {
            per_user: vec![vec![1, 1, 2]],
        };
        assert!(matches!(
            count_changed(&a, &fewer_users),
            Err(CoreError::LengthMismatch { .. })
        ));
        let short_user = SkillAssignments {
            per_user: vec![vec![1, 1], vec![3]],
        };
        assert!(matches!(
            count_changed(&a, &short_user),
            Err(CoreError::LengthMismatch { .. })
        ));
    }
}
