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
//! There is one iteration loop, [`crate::chunked::train_chunked`]:
//! [`train_with_parallelism`] runs it over the dataset's users, copied
//! once into columnar chunks, and keeps the final levels. Each assignment
//! step reads one shared
//! [`EmissionTable`](crate::emission::EmissionTable), so every iteration
//! evaluates each item's emission vector once instead of once per action;
//! after the first iteration only the columns of levels the update refit
//! are recomputed. The assignment pass moves one integer
//! [`StatsGrid`](crate::incremental::StatsGrid) by the actions whose level
//! changed, and the update step refits only the levels whose counts moved. The
//! from-scratch baseline (rebuilt table, full float rescan) is
//! [`crate::reference::train_full_rescan`], kept for tests and
//! `bench_incremental` only, so it is no runtime option.

use serde::{Deserialize, Serialize};

use crate::chunked::{
    assign_chunked, in_memory_chunk_size, initialize_on_workers, level_histogram_chunked,
    train_chunked_keeping, train_em_chunked, ChunkSource, ChunkedDataset, ChunkedTrainResult,
};
use crate::dist::DEFAULT_SMOOTHING;
use crate::em::{EmConfig, EmResult};
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::parallel::ParallelConfig;
use crate::transition::TransitionModel;
use crate::types::{ActionSequence, Dataset, SkillAssignments, SkillLevel};

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
/// ([`StreamingSession::resume`](crate::streaming::StreamingSession::resume)).
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    parallel: ParallelConfig,
    mode: TrainMode,
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
    /// modes. The EM arm is [`Trainer::fit_chunked`]'s over the dataset's
    /// users copied once into columnar chunks, decoding the assignments
    /// where that counts levels; every chunk size gives the same bits.
    pub fn fit(&self, dataset: &Dataset) -> Result<TrainResult> {
        self.parallel.validate()?;
        if self.mode == TrainMode::Hard {
            return train_with_parallelism(dataset, &self.config, &self.parallel);
        }
        let chunk_size = in_memory_chunk_size(dataset, &self.parallel);
        let chunks = ChunkedDataset::from_dataset(dataset, chunk_size)?;
        let (em, trace) = self.fit_em(&chunks)?;
        let (assignments, log_likelihood) = assign_chunked(&chunks, &em.model, &self.parallel)?;
        Ok(TrainResult {
            model: em.model,
            assignments,
            log_likelihood,
            trace,
            converged: em.converged,
        })
    }

    /// Trains chunk-at-a-time from any [`ChunkSource`] — the out-of-core
    /// entry point ([`crate::chunked`]).
    ///
    /// In hard mode this is [`crate::chunked::train_chunked`]; in EM mode
    /// the chunked initializer feeds [`train_em_chunked`] and the soft fit
    /// is closed with one streamed hard decode that counts actions per
    /// level. Both modes are bitwise identical to [`Trainer::fit`] on the
    /// materialized dataset, and peak memory stays bounded by
    /// `chunk_size × workers` plus the hard trainer's `O(n_users · S)`
    /// breakpoint store.
    pub fn fit_chunked<S: ChunkSource + ?Sized>(&self, source: &S) -> Result<ChunkedTrainResult> {
        self.parallel.validate()?;
        if self.mode == TrainMode::Hard {
            let storage = crate::chunked::AssignmentStorage::default();
            return crate::chunked::train_chunked(source, &self.config, &self.parallel, storage);
        }
        let (em, trace) = self.fit_em(source)?;
        let (level_histogram, log_likelihood) =
            level_histogram_chunked(source, &em.model, &self.parallel)?;
        Ok(ChunkedTrainResult {
            model: em.model,
            log_likelihood,
            trace,
            converged: em.converged,
            level_histogram,
            n_users: source.n_users(),
            n_actions: source.n_actions(),
        })
    }

    /// The EM arms' shared core: the chunk initializer on the configured
    /// workers, then [`train_em_chunked`] with uninformative transitions
    /// and this trainer's hyperparameters, with the evidence trace as
    /// [`IterationStats`] (no churn, no per-iteration timing).
    fn fit_em<S: ChunkSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<(EmResult, Vec<IterationStats>)> {
        let config = &self.config;
        config.validate()?;
        let (n, min, lambda) = (config.n_levels, config.min_init_actions, config.lambda);
        let initial = initialize_on_workers(source, n, min, lambda, &self.parallel)?;
        let em_cfg = EmConfig::new(initial, TransitionModel::uninformative(n)?)
            .with_lambda(lambda)
            .with_max_iterations(config.max_iterations)
            .with_tolerance(config.tolerance);
        let em = train_em_chunked(source, &em_cfg, &self.parallel)?;
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
/// This is [`train_chunked`](crate::chunked::train_chunked) over the
/// dataset copied once into columnar chunks; the assignments are the
/// final pass's breakpoints expanded. Every thread count gives bitwise
/// the sequential result.
pub fn train_with_parallelism(
    dataset: &Dataset,
    config: &TrainConfig,
    parallel: &ParallelConfig,
) -> Result<TrainResult> {
    parallel.validate()?;
    let chunks = ChunkedDataset::from_dataset(dataset, in_memory_chunk_size(dataset, parallel))?;
    let (result, paths) = train_chunked_keeping(&chunks, config, parallel)?;
    let user_lens = dataset.sequences().iter().map(ActionSequence::len);
    Ok(TrainResult {
        model: result.model,
        assignments: SkillAssignments {
            per_user: paths.expand(user_lens)?,
        },
        log_likelihood: result.log_likelihood,
        trace: result.trace,
        converged: result.converged,
    })
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
    fn trainer_rejects_thread_counts_above_the_bound() {
        let ds = progression_dataset(6, 12, 3);
        let over = crate::parallel::MAX_THREADS + 1;
        let trainer = Trainer::new(3).with_min_init_actions(6).with_threads(over);
        let refused = Err(CoreError::InvalidParallelism { threads: over });
        assert_eq!(trainer.fit(&ds).map(|r| r.converged), refused);
        assert_eq!(trainer.em().fit(&ds).map(|r| r.converged), refused);
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
            crate::parallel::assign_all_parallel(&built.model, &ds, &ParallelConfig::sequential())
                .unwrap();
        assert_eq!(decoded, built.assignments);
        assert!((ll - built.log_likelihood).abs() < 1e-12);
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
}
