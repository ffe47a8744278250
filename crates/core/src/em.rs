//! Soft-assignment (EM) training — the comparison point the paper cites
//! when motivating hard assignments (§IV-B: hard assignment was reported to
//! run ~1000× faster than EM with comparable fitting quality).
//!
//! The E-step runs forward–backward over the monotone stay/advance lattice
//! with an explicit [`TransitionModel`], producing per-action posterior
//! marginals `γ(n, s)`; the M-step refits every distribution from
//! *weighted* sufficient statistics, through the same
//! [`FeatureAccumulator`](crate::dist::FeatureAccumulator) and fits as the
//! hard trainer. This module exists to let the benchmarks quantify the
//! hard-vs-soft trade-off on the same substrate.
//!
//! ## One EM loop
//!
//! [`crate::chunked::train_em_chunked`] is the EM loop, and
//! [`train_em_with_parallelism`] runs it over the dataset's users copied
//! once into columnar chunks. Each iteration's E-step folds every
//! posterior row into a fresh [`MassGrid`](crate::incremental::MassGrid)
//! (`S × n_items` responsibility mass, never one entry per action) in
//! global action order, and the M-step is the hard trainer's
//! `fit_levels`: it replays each level row through the one accumulator,
//! each item's mass as its weight (`O(S · n_items · F)` pushes instead
//! of `O(|A| · S · F)`). Results are
//! bitwise identical for any chunk size and worker count. The
//! per-action accumulation, about 2× slower over a whole training run
//! (`reports/BENCH_em_incremental.json`), survives only as
//! [`crate::reference::train_em_full`]: the speedup denominator of
//! `bench_em_incremental` and the oracle the EM checks hold the loop to
//! within `1e-9` relative (summing an item's mass before it meets the
//! feature values moves the last bits).

use crate::chunked::{in_memory_chunk_size, train_em_chunked, ChunkedDataset};
use crate::dist::DEFAULT_SMOOTHING;
use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::parallel::ParallelConfig;
use crate::transition::TransitionModel;
use crate::types::{Dataset, ItemId, SkillLevel};

/// Numerically stable `log(Σ exp(x_i))`.
pub(crate) fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    max + xs.iter().map(|&x| (x - max).exp()).sum::<f64>().ln()
}

/// Forward–backward over the monotone stay/advance lattice, reading
/// emissions from an [`EmissionTable`]: the one recursion behind the EM
/// loop and the service's smoothed predictions.
///
/// The alpha, beta and gamma lattices are flat buffers, resized once and
/// reused across every sequence of every iteration. The per-level
/// transition log-probabilities are hoisted at construction: the
/// transition model stays fixed for a whole EM run. The
/// `Vec<Vec<f64>>` recursion it replaced survives as
/// [`crate::reference::forward_backward`], its bitwise oracle (same
/// operation order, identical marginals and evidence).
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

    /// Flat posterior marginals of the last
    /// [`run_items`](Self::run_items) pass (row-major, `n × s_max`).
    pub fn gamma(&self) -> &[f64] {
        &self.gamma
    }

    /// Runs forward–backward over one user's item sequence (a columnar
    /// chunk's slice), leaving the flat posterior marginals in
    /// `self.gamma` (row-major, `items.len() × s_max`) and returning the
    /// log evidence. Produces exactly the values of
    /// [`crate::reference::forward_backward`] on the same items.
    pub fn run_items(&mut self, table: &EmissionTable, items: &[ItemId]) -> Result<f64> {
        let (n, s_max) = (items.len(), self.log_stay.len());
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
        for &item in items {
            let item = item as usize;
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

        // Forward (log alpha).
        let first = table.row(items[0]);
        for ((a, &li), &e) in self.alpha[..s_max]
            .iter_mut()
            .zip(&self.log_init)
            .zip(first)
        {
            *a = li + e;
        }
        for t in 1..n {
            let emit = table.row(items[t]);
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
            let emit = table.row(items[t + 1]);
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
}

/// Trains a skill model by EM with soft assignments, with the same
/// `(dataset, config, parallel)` argument order as
/// [`crate::train::train_with_parallelism`].
///
/// This is [`train_em_chunked`] over the dataset copied once into
/// columnar chunks: workers run forward–backward per chunk (the
/// `users`/`threads` flags), the emission build and the M-step split per
/// `parallel`, and the responsibility mass folds on the calling thread
/// in action order. Every configuration gives bitwise the sequential
/// result.
pub fn train_em_with_parallelism(
    dataset: &Dataset,
    config: &EmConfig,
    parallel: &ParallelConfig,
) -> Result<EmResult> {
    parallel.validate()?;
    let chunks = ChunkedDataset::from_dataset(dataset, in_memory_chunk_size(dataset, parallel))?;
    train_em_chunked(&chunks, config, parallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{FeatureDistribution, Poisson};
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
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

    fn items(seq: &ActionSequence) -> Vec<ItemId> {
        seq.actions().iter().map(|a| a.item).collect()
    }

    #[test]
    fn forward_backward_marginals_normalize() {
        let ds = progression_dataset();
        let model = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let table = EmissionTable::build(&model, &ds);
        let mut ws = FbWorkspace::new(&trans);
        let ev = ws.run_items(&table, &items(&ds.sequences()[0])).unwrap();
        assert!(ev.is_finite());
        let gammas: Vec<&[f64]> = ws.gamma().chunks(2).collect();
        assert_eq!(gammas.len(), 10);
        for row in &gammas {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        // Early actions should lean level 1, late actions level 2.
        assert!(gammas[0][0] > gammas[0][1]);
        assert!(gammas[9][1] > gammas[9][0]);
    }

    #[test]
    fn workspace_forward_backward_matches_reference() {
        let ds = progression_dataset();
        let model = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let table = EmissionTable::build(&model, &ds);
        let mut ws = FbWorkspace::new(&trans);
        for seq in ds.sequences() {
            let (g_ref, ev_ref) = crate::reference::forward_backward(&table, &trans, seq).unwrap();
            let ev_ws = ws.run_items(&table, &items(seq)).unwrap();
            assert_eq!(ev_ws.to_bits(), ev_ref.to_bits());
            let flat_ref: Vec<u64> = g_ref.iter().flatten().map(|g| g.to_bits()).collect();
            let flat_ws: Vec<u64> = ws.gamma().iter().map(|g| g.to_bits()).collect();
            assert_eq!(flat_ws, flat_ref);
        }
        // Item ids outside the table are rejected, not read out of bounds.
        let rogue = ActionSequence::new(99, vec![Action::new(0, 99, 77)]).unwrap();
        assert!(matches!(
            crate::reference::forward_backward(&table, &trans, &rogue),
            Err(CoreError::FeatureIndexOutOfBounds { index: 77, .. })
        ));
        assert!(matches!(
            ws.run_items(&table, &items(&rogue)),
            Err(CoreError::FeatureIndexOutOfBounds { index: 77, .. })
        ));
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
    fn em_matches_full_em() {
        let ds = progression_dataset();
        let initial = initialize_model(&ds, 2, 5, 0.01).unwrap();
        let trans = TransitionModel::uninformative(2).unwrap();
        let cfg = EmConfig::new(initial, trans)
            .with_max_iterations(25)
            .with_tolerance(1e-9);
        let em = train_em_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
        let full = crate::reference::train_em_full(&ds, &cfg).unwrap();
        assert_eq!(em.converged, full.converged);
        assert_eq!(
            em.evidence_trace.len(),
            full.evidence_trace.len(),
            "em {:?} vs full {:?}",
            em.evidence_trace,
            full.evidence_trace
        );
        // The first E-step reads the same table: bitwise.
        assert_eq!(
            em.evidence_trace[0].to_bits(),
            full.evidence_trace[0].to_bits()
        );
        for (a, b) in em.evidence_trace.iter().zip(&full.evidence_trace) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "evidence diverged: {a} vs {b}"
            );
        }
        // The fitted models score every item near-identically.
        for (item, features) in ds.items().iter().enumerate() {
            for s in 1..=2u8 {
                let a = em.model.item_log_likelihood(features, s);
                let b = full.model.item_log_likelihood(features, s);
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "item {item} level {s}: {a} vs {b}"
                );
            }
        }
    }
}
