//! Soft-assignment (EM) training — the comparison point the paper cites
//! when motivating hard assignments (§IV-B: hard assignment was reported to
//! run ~1000× faster than EM with comparable fitting quality).
//!
//! The E-step runs forward–backward over the monotone stay/advance lattice
//! with an explicit [`TransitionModel`], producing per-action posterior
//! marginals `γ(n, s)`; the M-step refits every distribution from
//! *weighted* sufficient statistics. This module exists to let the
//! benchmarks quantify the hard-vs-soft trade-off on the same substrate.
//!
//! ## Responsibility-delta incremental EM
//!
//! The loop mirrors the hard trainer's persistent-histogram
//! optimization: a [`SoftStatsGrid`] carries the per-`(level, item)`
//! responsibility mass across iterations, each E-step applies only the
//! *delta* of posteriors that moved past [`EmConfig::gamma_tolerance`],
//! the M-step replays the grid item-major (`O(S · n_items · F)` weighted
//! pushes instead of `O(|A| · S · F)`) and refits only dirty levels, and
//! one persistent [`EmissionTable`] is column-refreshed instead of
//! rebuilt. The from-scratch accumulation, about 2× slower over a whole
//! training run (`reports/BENCH_em_incremental.json`), survives only as
//! [`crate::reference::train_em_full`]: the measurable baseline for
//! `bench_em_incremental` and the bitwise oracle of
//! [`crate::chunked::train_em_chunked`], which streams the same
//! from-scratch loop because a responsibility grid stores one posterior
//! row per corpus action.

use crate::dist::{Categorical, FeatureDistribution, Gamma, LogNormal, Poisson, DEFAULT_SMOOTHING};
use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::feature::{FeatureKind, FeatureValue, PositiveModel};
use crate::incremental::SoftStatsGrid;
use crate::model::SkillModel;
use crate::parallel::ParallelConfig;
use crate::transition::TransitionModel;
use crate::types::{skill_level_from_index, ActionSequence, Dataset, ItemId, SkillLevel};

/// Default gate for responsibility deltas: posterior rows that move less
/// than this between iterations keep their previous contribution. Small
/// enough that gated error stays far below the trainer's convergence
/// tolerance, large enough to skip actions whose posteriors have settled
/// to machine precision.
pub const DEFAULT_GAMMA_TOLERANCE: f64 = 1e-12;

/// Numerically stable `log(Σ exp(x_i))`.
fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    max + xs.iter().map(|&x| (x - max).exp()).sum::<f64>().ln()
}

/// Posterior skill marginals for one sequence: `gammas[n][s-1]`.
///
/// Evaluates emissions directly. When running forward–backward over many
/// sequences against one model (as [`train_em_with_parallelism`] does
/// every iteration),
/// prefer [`forward_backward_with_table`].
pub fn forward_backward(
    model: &SkillModel,
    transitions: &TransitionModel,
    dataset: &Dataset,
    sequence: &ActionSequence,
) -> Result<(Vec<Vec<f64>>, f64)> {
    let s_max = model.n_levels();
    if transitions.n_levels() != s_max {
        return Err(CoreError::LengthMismatch {
            context: "transitions vs model levels",
            left: transitions.n_levels(),
            right: s_max,
        });
    }
    let n = sequence.len();
    if n == 0 {
        return Ok((Vec::new(), 0.0));
    }
    let emit: Vec<Vec<f64>> = sequence
        .actions()
        .iter()
        .map(|a| model.item_log_likelihoods(dataset.item_features(a.item)))
        .collect();
    forward_backward_rows(s_max, transitions, n, |t| emit[t].as_slice())
}

/// Forward–backward reading emissions from a precomputed [`EmissionTable`].
///
/// Produces exactly the same marginals and evidence as
/// [`forward_backward`] with the model the table was built from, without
/// the per-action `item_log_likelihoods` allocations.
pub fn forward_backward_with_table(
    table: &EmissionTable,
    transitions: &TransitionModel,
    sequence: &ActionSequence,
) -> Result<(Vec<Vec<f64>>, f64)> {
    let s_max = table.n_levels();
    if transitions.n_levels() != s_max {
        return Err(CoreError::LengthMismatch {
            context: "transitions vs model levels",
            left: transitions.n_levels(),
            right: s_max,
        });
    }
    let n = sequence.len();
    if n == 0 {
        return Ok((Vec::new(), 0.0));
    }
    let actions = sequence.actions();
    for action in actions {
        if action.item as usize >= table.n_items() {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: action.item as usize,
                len: table.n_items(),
            });
        }
    }
    forward_backward_rows(s_max, transitions, n, |t| table.row(actions[t].item))
}

/// The forward–backward recursion over abstract emission rows; both the
/// direct and table-backed entry points funnel through this implementation.
fn forward_backward_rows<'a, F>(
    s_max: usize,
    transitions: &TransitionModel,
    n: usize,
    row_of: F,
) -> Result<(Vec<Vec<f64>>, f64)>
where
    F: Fn(usize) -> &'a [f64],
{
    let emit: Vec<&[f64]> = (0..n).map(&row_of).collect();

    // Forward (log alpha).
    let mut alpha = vec![vec![f64::NEG_INFINITY; s_max]; n];
    for s in 0..s_max {
        alpha[0][s] = transitions.log_init((s + 1) as SkillLevel) + emit[0][s];
    }
    for t in 1..n {
        for s in 0..s_max {
            let stay = alpha[t - 1][s] + transitions.log_stay((s + 1) as SkillLevel);
            let up = if s > 0 {
                alpha[t - 1][s - 1] + transitions.log_advance(s as SkillLevel)
            } else {
                f64::NEG_INFINITY
            };
            alpha[t][s] = log_sum_exp(&[stay, up]) + emit[t][s];
        }
    }
    let log_evidence = log_sum_exp(&alpha[n - 1]);
    if !log_evidence.is_finite() {
        return Err(CoreError::DegenerateFit {
            distribution: "forward-backward",
            reason: "zero total probability; enable smoothing",
        });
    }

    // Backward (log beta).
    let mut beta = vec![vec![0.0f64; s_max]; n];
    for t in (0..n - 1).rev() {
        for s in 0..s_max {
            let stay =
                transitions.log_stay((s + 1) as SkillLevel) + emit[t + 1][s] + beta[t + 1][s];
            let up = if s + 1 < s_max {
                transitions.log_advance((s + 1) as SkillLevel)
                    + emit[t + 1][s + 1]
                    + beta[t + 1][s + 1]
            } else {
                f64::NEG_INFINITY
            };
            beta[t][s] = log_sum_exp(&[stay, up]);
        }
    }

    // Marginals.
    let mut gammas = vec![vec![0.0f64; s_max]; n];
    for t in 0..n {
        let mut row: Vec<f64> = (0..s_max).map(|s| alpha[t][s] + beta[t][s]).collect();
        let norm = log_sum_exp(&row);
        for v in row.iter_mut() {
            *v = (*v - norm).exp();
        }
        gammas[t] = row;
    }
    Ok((gammas, log_evidence))
}

/// Reusable flat buffers for table-backed forward–backward.
///
/// The legacy [`forward_backward_with_table`] allocates three
/// `Vec<Vec<f64>>` lattices per sequence per iteration — hundreds of
/// thousands of small allocations per EM pass at the acceptance
/// workload, which dominates the E-step. The incremental path runs the
/// identical recursion (same operation order, bitwise-identical
/// marginals and evidence) through these buffers, resized once and
/// reused across every sequence of every iteration. The per-level
/// transition log-probabilities are hoisted at construction: the
/// transition model stays fixed for a whole EM run.
pub struct FbWorkspace {
    /// Flat `n × s_max` forward lattice (log alpha).
    alpha: Vec<f64>,
    /// Flat `n × s_max` backward lattice (log beta).
    beta: Vec<f64>,
    /// Flat `n × s_max` posterior marginals of the last pass.
    gamma: Vec<f64>,
    /// Hoisted `log P(stay at s+1)` per zero-based level.
    log_stay: Vec<f64>,
    /// Hoisted `log P(advance from s+1)` per zero-based level.
    log_advance: Vec<f64>,
    /// Hoisted `log P(initial level = s+1)` per zero-based level.
    log_init: Vec<f64>,
}

impl FbWorkspace {
    /// Builds a workspace for one transition model, hoisting its
    /// per-level log-probabilities; the DP buffers grow lazily on the
    /// first run and are reused afterwards.
    pub fn new(transitions: &TransitionModel) -> Self {
        let s_max = transitions.n_levels();
        let level = |s: usize| (s + 1) as SkillLevel;
        Self {
            alpha: Vec::new(),
            beta: Vec::new(),
            gamma: Vec::new(),
            log_stay: (0..s_max).map(|s| transitions.log_stay(level(s))).collect(),
            log_advance: (0..s_max)
                .map(|s| transitions.log_advance(level(s)))
                .collect(),
            log_init: (0..s_max).map(|s| transitions.log_init(level(s))).collect(),
        }
    }

    /// Flat posterior marginals of the last [`run`](Self::run) /
    /// [`run_items`](Self::run_items) pass (row-major, `n × s_max`).
    pub fn gamma(&self) -> &[f64] {
        &self.gamma
    }

    /// Runs forward–backward for one sequence, leaving the flat posterior
    /// marginals in `self.gamma` (row-major, `seq.len() × s_max`) and
    /// returning the log evidence. Produces exactly the values of
    /// [`forward_backward_with_table`].
    pub fn run(&mut self, table: &EmissionTable, seq: &ActionSequence) -> Result<f64> {
        let actions = seq.actions();
        self.run_rows(table, actions.len(), |t| actions[t].item)
    }

    /// Item-slice twin of [`run`](Self::run) for columnar chunk storage
    /// (no [`ActionSequence`] wrappers). Identical recursion, identical
    /// operation order: bitwise-equal marginals and evidence for the same
    /// item sequence.
    pub fn run_items(&mut self, table: &EmissionTable, items: &[ItemId]) -> Result<f64> {
        self.run_rows(table, items.len(), |t| items[t])
    }

    /// Shared forward–backward core over `item_at(0..n)`.
    fn run_rows(
        &mut self,
        table: &EmissionTable,
        n: usize,
        item_at: impl Fn(usize) -> ItemId,
    ) -> Result<f64> {
        let s_max = self.log_stay.len();
        if table.n_levels() != s_max {
            return Err(CoreError::LengthMismatch {
                context: "transitions vs model levels",
                left: s_max,
                right: table.n_levels(),
            });
        }
        if n == 0 {
            self.gamma.clear();
            return Ok(0.0);
        }
        for t in 0..n {
            let item = item_at(t) as usize;
            if item >= table.n_items() {
                return Err(CoreError::FeatureIndexOutOfBounds {
                    index: item,
                    len: table.n_items(),
                });
            }
        }
        let cells = n * s_max;
        self.alpha.clear();
        self.alpha.resize(cells, f64::NEG_INFINITY);
        self.beta.clear();
        self.beta.resize(cells, 0.0);
        self.gamma.clear();
        self.gamma.resize(cells, 0.0);

        // Forward (log alpha); same recursion as `forward_backward_rows`.
        let first = table.row(item_at(0));
        for ((a, &li), &e) in self.alpha[..s_max]
            .iter_mut()
            .zip(&self.log_init)
            .zip(first)
        {
            *a = li + e;
        }
        for t in 1..n {
            let emit = table.row(item_at(t));
            let (prev, curr) = self.alpha.split_at_mut(t * s_max);
            let prev = &prev[(t - 1) * s_max..];
            let curr = &mut curr[..s_max];
            for s in 0..s_max {
                let stay = prev[s] + self.log_stay[s];
                let up = if s > 0 {
                    prev[s - 1] + self.log_advance[s - 1]
                } else {
                    f64::NEG_INFINITY
                };
                curr[s] = log_sum_exp(&[stay, up]) + emit[s];
            }
        }
        let log_evidence = log_sum_exp(&self.alpha[(n - 1) * s_max..]);
        if !log_evidence.is_finite() {
            return Err(CoreError::DegenerateFit {
                distribution: "forward-backward",
                reason: "zero total probability; enable smoothing",
            });
        }

        // Backward (log beta).
        for t in (0..n - 1).rev() {
            let emit = table.row(item_at(t + 1));
            let (curr, next) = self.beta.split_at_mut((t + 1) * s_max);
            let curr = &mut curr[t * s_max..];
            let next = &next[..s_max];
            for s in 0..s_max {
                let stay = self.log_stay[s] + emit[s] + next[s];
                let up = if s + 1 < s_max {
                    self.log_advance[s] + emit[s + 1] + next[s + 1]
                } else {
                    f64::NEG_INFINITY
                };
                curr[s] = log_sum_exp(&[stay, up]);
            }
        }

        // Marginals.
        for ((g_row, a_row), b_row) in self
            .gamma
            .chunks_mut(s_max)
            .zip(self.alpha.chunks(s_max))
            .zip(self.beta.chunks(s_max))
        {
            for ((g, &a), &b) in g_row.iter_mut().zip(a_row).zip(b_row) {
                *g = a + b;
            }
            let norm = log_sum_exp(g_row);
            for g in g_row.iter_mut() {
                *g = (*g - norm).exp();
            }
        }
        Ok(log_evidence)
    }
}

/// Weighted per-cell statistics for the M-step (also replayed by
/// [`SoftStatsGrid::fit_model_incremental`]).
pub(crate) enum WeightedAcc {
    Categorical {
        weights: Vec<f64>,
    },
    Count {
        sum: f64,
        weight: f64,
    },
    Positive {
        model: PositiveModel,
        w: f64,
        wx: f64,
        wlnx: f64,
        wlnx2: f64,
    },
}

impl WeightedAcc {
    pub(crate) fn new(kind: FeatureKind) -> Self {
        match kind {
            FeatureKind::Categorical { cardinality } => WeightedAcc::Categorical {
                weights: vec![0.0; cardinality as usize],
            },
            FeatureKind::Count => WeightedAcc::Count {
                sum: 0.0,
                weight: 0.0,
            },
            FeatureKind::Positive { model } => WeightedAcc::Positive {
                model,
                w: 0.0,
                wx: 0.0,
                wlnx: 0.0,
                wlnx2: 0.0,
            },
        }
    }

    pub(crate) fn push(&mut self, value: &FeatureValue, weight: f64) -> Result<()> {
        match (self, value) {
            (WeightedAcc::Categorical { weights }, FeatureValue::Categorical(c)) => {
                let idx = *c as usize;
                if idx >= weights.len() {
                    return Err(CoreError::CategoryOutOfBounds {
                        feature: usize::MAX,
                        value: *c,
                        cardinality: weights.len() as u32,
                    });
                }
                weights[idx] += weight;
                Ok(())
            }
            (WeightedAcc::Count { sum, weight: w }, FeatureValue::Count(k)) => {
                *sum += weight * *k as f64;
                *w += weight;
                Ok(())
            }
            (
                WeightedAcc::Positive {
                    w, wx, wlnx, wlnx2, ..
                },
                FeatureValue::Real(x),
            ) => {
                let lx = x.ln();
                *w += weight;
                *wx += weight * x;
                *wlnx += weight * lx;
                *wlnx2 += weight * lx * lx;
                Ok(())
            }
            _ => Err(CoreError::FeatureKindMismatch {
                feature: usize::MAX,
                expected: "matching",
                got: "mismatched",
            }),
        }
    }

    pub(crate) fn fit(&self, lambda: f64) -> Result<FeatureDistribution> {
        match self {
            WeightedAcc::Categorical { weights } => {
                let total: f64 = weights.iter().sum();
                let denom = total + lambda * weights.len() as f64;
                if denom <= 0.0 {
                    return FeatureDistribution::fallback(FeatureKind::Categorical {
                        cardinality: weights.len() as u32,
                    });
                }
                let probs: Vec<f64> = weights.iter().map(|&w| (w + lambda) / denom).collect();
                Ok(FeatureDistribution::Categorical(Categorical::from_probs(
                    probs,
                )?))
            }
            WeightedAcc::Count { sum, weight } => {
                if *weight <= 0.0 {
                    return FeatureDistribution::fallback(FeatureKind::Count);
                }
                Ok(FeatureDistribution::Poisson(Poisson::new(
                    (sum / weight).max(crate::dist::poisson::MIN_RATE),
                )?))
            }
            WeightedAcc::Positive {
                model,
                w,
                wx,
                wlnx,
                wlnx2,
            } => {
                if *w <= 0.0 {
                    return FeatureDistribution::fallback(FeatureKind::Positive { model: *model });
                }
                match model {
                    PositiveModel::Gamma => {
                        let m = wx / w;
                        let mean_ln = wlnx / w;
                        let s = (m.ln() - mean_ln).max(0.0);
                        if s < 1e-12 {
                            let shape = 1e6;
                            return Ok(FeatureDistribution::Gamma(Gamma::new(shape, m / shape)?));
                        }
                        // Same generalized-Newton iteration as the unweighted fit.
                        let mut k = (3.0 - s + ((s - 3.0).powi(2) + 24.0 * s).sqrt()) / (12.0 * s);
                        for _ in 0..200 {
                            let num = m.ln() - mean_ln + k.ln() - crate::dist::special::digamma(k);
                            let den = k * k * (1.0 / k - crate::dist::special::trigamma(k));
                            let inv = 1.0 / k + num / den;
                            if !inv.is_finite() || inv <= 0.0 {
                                break;
                            }
                            let k_new = 1.0 / inv;
                            let delta = (k_new - k).abs() / k.max(1.0);
                            k = k_new;
                            if delta < 1e-10 {
                                break;
                            }
                        }
                        Ok(FeatureDistribution::Gamma(Gamma::new(k, m / k)?))
                    }
                    PositiveModel::LogNormal => {
                        let mu = wlnx / w;
                        let var = (wlnx2 / w - mu * mu).max(0.0);
                        Ok(FeatureDistribution::LogNormal(LogNormal::new(
                            mu,
                            var.sqrt().max(1e-6),
                        )?))
                    }
                }
            }
        }
    }
}

/// Result of EM training.
#[derive(Debug, Clone)]
pub struct EmResult {
    /// The fitted model.
    pub model: SkillModel,
    /// Per-iteration data log-evidence (non-decreasing up to tolerance).
    pub evidence_trace: Vec<f64>,
    /// Whether the evidence improvement dropped below tolerance.
    pub converged: bool,
}

/// Hyperparameters of the EM trainer, mirroring
/// [`TrainConfig`](crate::train::TrainConfig) so the two trainers share
/// the `(dataset, config, parallel)` calling convention.
///
/// `initial` seeds the parameters (e.g. from
/// [`crate::init::initialize_model`]); `transitions` stays fixed (refitting
/// it is possible but the comparison benches keep the Yang-style
/// uninformative transitions).
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Seed model; its level count defines `S`.
    pub initial: SkillModel,
    /// Fixed stay/advance transition probabilities.
    pub transitions: TransitionModel,
    /// Categorical smoothing pseudo-count `λ` (default 0.01).
    pub lambda: f64,
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Stop when the relative evidence improvement drops below this.
    pub tolerance: f64,
    /// Responsibility-delta gate for the incremental path (default
    /// [`DEFAULT_GAMMA_TOLERANCE`]): an action's posterior row is
    /// reapplied to the [`SoftStatsGrid`] only when some level moved by
    /// more than this. `0.0` applies every change (exact up to summation
    /// order); the from-scratch paths ignore it.
    pub gamma_tolerance: f64,
}

impl EmConfig {
    /// Config with the default smoothing, iteration cap, and tolerance.
    pub fn new(initial: SkillModel, transitions: TransitionModel) -> Self {
        Self {
            initial,
            transitions,
            lambda: DEFAULT_SMOOTHING,
            max_iterations: 100,
            tolerance: 1e-8,
            gamma_tolerance: DEFAULT_GAMMA_TOLERANCE,
        }
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

    /// Overrides the responsibility-delta gate of the incremental path.
    pub fn with_gamma_tolerance(mut self, gamma_tolerance: f64) -> Self {
        self.gamma_tolerance = gamma_tolerance;
        self
    }
}

/// Trains a skill model by EM with soft assignments, with the same
/// `(dataset, config, parallel)` argument order as
/// [`crate::train::train_with_parallelism`] — the responsibility-delta
/// loop of the module docs.
///
/// Parallelism applies to the initial emission-table build (the
/// `users`/`threads` flags). Deltas and replay run sequentially on the
/// calling thread and the parallel build is bitwise identical to the
/// sequential one, so results are identical for any configuration.
/// Relative to [`crate::reference::train_em_full`] the E-step is
/// identical (same forward–backward over the same table values), so the
/// evidence trace differs only through the slightly different models the
/// gated M-step produces — bounded by `gamma_tolerance` per action per
/// level.
pub fn train_em_with_parallelism(
    dataset: &Dataset,
    config: &EmConfig,
    parallel: &ParallelConfig,
) -> Result<EmResult> {
    parallel.validate()?;
    if dataset.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let n_levels = config.initial.n_levels();
    let schema = dataset.schema().clone();
    let mut model = config.initial.clone();
    let mut trace = Vec::new();
    let mut converged = false;

    // One persistent emission table for the whole run; after the first
    // build only the columns of refit (dirty) levels are recomputed.
    let mut table = EmissionTable::build_with_config(&model, dataset, parallel)?;

    let mut grid = SoftStatsGrid::new(
        n_levels,
        dataset.n_items(),
        dataset.n_actions(),
        config.gamma_tolerance,
    )?;
    // Working copy of the current cells: clean levels keep their previous
    // distributions bit for bit without re-reading the model.
    let mut cells: Vec<Vec<FeatureDistribution>> = (0..n_levels)
        .map(|s| {
            model
                .level_row(skill_level_from_index(s))
                .map(<[FeatureDistribution]>::to_vec)
        })
        .collect::<Result<_>>()?;

    // Flat forward–backward buffers reused across every sequence of every
    // iteration, with per-level transition log-probabilities hoisted once
    // for the whole run (the transition model is fixed under this EM).
    let mut workspace = FbWorkspace::new(&config.transitions);

    for _ in 0..config.max_iterations {
        // E-step: forward–backward per sequence, then apply only the
        // responsibility deltas of actions whose posterior moved.
        let mut evidence = 0.0;
        let mut action_idx = 0usize;
        for seq in dataset.sequences() {
            evidence += workspace.run(&table, seq)?;
            for (action, gamma) in seq.actions().iter().zip(workspace.gamma.chunks(n_levels)) {
                grid.update_action(action_idx, action.item, gamma)?;
                action_idx += 1;
            }
        }
        trace.push(evidence);

        // M-step: replay only dirty levels, item-major through the
        // weighted accumulators — O(S_dirty · n_items · F).
        for (row, (s, &is_dirty)) in cells.iter_mut().zip(grid.dirty_levels().iter().enumerate()) {
            if !is_dirty {
                continue;
            }
            let mut accs: Vec<WeightedAcc> = schema
                .kinds()
                .iter()
                .map(|&k| WeightedAcc::new(k))
                .collect();
            for (features, &w) in dataset.items().iter().zip(grid.level_weights(s)) {
                if w <= 0.0 {
                    continue;
                }
                for (acc, value) in accs.iter_mut().zip(features) {
                    acc.push(value, w)?;
                }
            }
            *row = accs
                .iter()
                .map(|a| a.fit(config.lambda))
                .collect::<Result<_>>()?;
        }
        model = SkillModel::new(schema.clone(), n_levels, cells.clone())?;

        // Refresh only the emission columns of refit levels.
        table.refresh_levels(&model, dataset, grid.dirty_levels())?;
        crate::invariants::InvariantCtx::new().check_emission_table(&table)?;
        grid.clear_dirty();

        if trace.len() >= 2 {
            let prev = trace[trace.len() - 2];
            let curr = trace[trace.len() - 1];
            if (curr - prev).abs() <= config.tolerance * prev.abs().max(1.0) {
                converged = true;
                break;
            }
        }
    }
    Ok(EmResult {
        model,
        evidence_trace: trace,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureSchema};
    use crate::init::initialize_model;
    use crate::types::{Action, ActionSequence};

    fn progression_dataset() -> Dataset {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0)],
            vec![FeatureValue::Categorical(1)],
        ];
        let sequences: Vec<ActionSequence> = (0..6u32)
            .map(|u| {
                ActionSequence::new(
                    u,
                    (0..10)
                        .map(|t| Action::new(t, u, u32::from(t >= 5)))
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    #[test]
    fn log_sum_exp_basics() {
        assert!((log_sum_exp(&[0.0, 0.0]) - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(
            log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]),
            f64::NEG_INFINITY
        );
        let big = log_sum_exp(&[1000.0, 1000.0]);
        assert!((big - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn forward_backward_marginals_normalize() {
        let ds = progression_dataset();
        let model = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let (gammas, ev) = forward_backward(&model, &trans, &ds, &ds.sequences()[0]).unwrap();
        assert!(ev.is_finite());
        for row in &gammas {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        // Early actions should lean level 1, late actions level 2.
        assert!(gammas[0][0] > gammas[0][1]);
        assert!(gammas[9][1] > gammas[9][0]);
    }

    #[test]
    fn table_backed_forward_backward_matches_direct() {
        let ds = progression_dataset();
        let model = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let table = EmissionTable::build(&model, &ds);
        for seq in ds.sequences() {
            let (g_direct, ev_direct) = forward_backward(&model, &trans, &ds, seq).unwrap();
            let (g_table, ev_table) = forward_backward_with_table(&table, &trans, seq).unwrap();
            assert_eq!(g_direct, g_table);
            assert_eq!(ev_direct, ev_table);
        }
        // Item ids outside the table are rejected, not read out of bounds.
        let rogue = ActionSequence::new(99, vec![Action::new(0, 99, 77)]).unwrap();
        assert!(forward_backward_with_table(&table, &trans, &rogue).is_err());
    }

    #[test]
    fn em_evidence_is_monotone_without_smoothing() {
        // With λ = 0 the M-step is the exact evidence maximizer, so EM's
        // classic monotonicity guarantee holds. (With λ > 0 the M-step
        // optimizes a regularized objective and tiny decreases are normal.)
        let ds = progression_dataset();
        let initial = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let cfg = EmConfig::new(initial, trans)
            .with_lambda(0.0)
            .with_max_iterations(20)
            .with_tolerance(1e-9);
        let result = train_em_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
        for w in result.evidence_trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "evidence decreased: {:?}",
                result.evidence_trace
            );
        }
    }

    #[test]
    fn em_with_smoothing_converges() {
        let ds = progression_dataset();
        let initial = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let cfg = EmConfig::new(initial, trans)
            .with_max_iterations(50)
            .with_tolerance(1e-9);
        let result = train_em_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
        assert!(result.converged);
        let last = result.evidence_trace.len() - 1;
        let delta = (result.evidence_trace[last] - result.evidence_trace[last - 1]).abs();
        assert!(delta < 1e-6, "trace: {:?}", result.evidence_trace);
    }

    #[test]
    fn em_learns_level_separation() {
        let ds = progression_dataset();
        let initial = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let cfg = EmConfig::new(initial, trans)
            .with_max_iterations(30)
            .with_tolerance(1e-10);
        let result = train_em_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
        let easy = vec![FeatureValue::Categorical(0)];
        let hard = vec![FeatureValue::Categorical(1)];
        assert!(
            result.model.item_log_likelihood(&easy, 1) > result.model.item_log_likelihood(&easy, 2)
        );
        assert!(
            result.model.item_log_likelihood(&hard, 2) > result.model.item_log_likelihood(&hard, 1)
        );
    }

    #[test]
    fn em_and_hard_training_agree_on_clear_data() {
        let ds = progression_dataset();
        let cfg = crate::train::TrainConfig::new(2).with_min_init_actions(5);
        let hard = crate::train::train(&ds, &cfg).unwrap();
        let initial = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let em_cfg = EmConfig::new(initial, trans)
            .with_max_iterations(30)
            .with_tolerance(1e-10);
        let soft = train_em_with_parallelism(&ds, &em_cfg, &ParallelConfig::sequential()).unwrap();
        // Both should agree on which level generates which item.
        for (features, _) in ds.items().iter().zip(0..) {
            let hard_best = (1..=2u8)
                .max_by(|&a, &b| {
                    hard.model
                        .item_log_likelihood(features, a)
                        .partial_cmp(&hard.model.item_log_likelihood(features, b))
                        .unwrap()
                })
                .unwrap();
            let soft_best = (1..=2u8)
                .max_by(|&a, &b| {
                    soft.model
                        .item_log_likelihood(features, a)
                        .partial_cmp(&soft.model.item_log_likelihood(features, b))
                        .unwrap()
                })
                .unwrap();
            assert_eq!(hard_best, soft_best);
        }
    }

    #[test]
    fn em_rejects_empty_dataset() {
        let schema = FeatureSchema::new(vec![FeatureKind::Count]).unwrap();
        let ds = Dataset::new(schema.clone(), vec![], vec![]).unwrap();
        let model = SkillModel::new(
            schema,
            1,
            vec![vec![FeatureDistribution::Poisson(
                Poisson::new(1.0).unwrap(),
            )]],
        )
        .unwrap();
        let trans = TransitionModel::uninformative(1).unwrap();
        let cfg = EmConfig::new(model, trans).with_max_iterations(5);
        assert!(train_em_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).is_err());
    }

    #[test]
    fn parallel_emission_table_is_equivalent() {
        let ds = progression_dataset();
        let initial = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let cfg = EmConfig::new(initial, trans)
            .with_max_iterations(10)
            .with_tolerance(1e-9);
        let seq = train_em_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
        let par = train_em_with_parallelism(&ds, &cfg, &ParallelConfig::all(3)).unwrap();
        assert_eq!(seq.evidence_trace, par.evidence_trace);
    }

    #[test]
    fn incremental_em_matches_full_em() {
        let ds = progression_dataset();
        let initial = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let cfg = EmConfig::new(initial, trans)
            .with_max_iterations(25)
            .with_tolerance(1e-9);
        let incremental =
            train_em_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
        let full = crate::reference::train_em_full(&ds, &cfg).unwrap();
        assert_eq!(incremental.converged, full.converged);
        assert_eq!(
            incremental.evidence_trace.len(),
            full.evidence_trace.len(),
            "incremental {:?} vs full {:?}",
            incremental.evidence_trace,
            full.evidence_trace
        );
        for (a, b) in incremental.evidence_trace.iter().zip(&full.evidence_trace) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "evidence diverged: {a} vs {b}"
            );
        }
        // The fitted models score every item near-identically.
        for (item, features) in ds.items().iter().enumerate() {
            for s in 1..=2u8 {
                let a = incremental.model.item_log_likelihood(features, s);
                let b = full.model.item_log_likelihood(features, s);
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "item {item} level {s}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn incremental_em_with_zero_gate_matches_tightly() {
        let ds = progression_dataset();
        let initial = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let cfg = EmConfig::new(initial, trans)
            .with_max_iterations(15)
            .with_tolerance(1e-9)
            .with_gamma_tolerance(0.0);
        let incremental =
            train_em_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
        let full = crate::reference::train_em_full(&ds, &cfg).unwrap();
        // With a zero gate the weights equal the full sums up to
        // summation order; traces stay within tight relative tolerance.
        for (a, b) in incremental.evidence_trace.iter().zip(&full.evidence_trace) {
            assert!(
                (a - b).abs() <= 1e-11 * b.abs().max(1.0),
                "evidence diverged: {a} vs {b}"
            );
        }
    }
}
