//! Property-based tests for the incremental training subsystem: a
//! randomly churned [`StatsGrid`] must stay cell-for-cell equal to a
//! from-scratch accumulation, and incremental vs. full training — hard
//! (Viterbi) *and* soft (the responsibility-mass EM loop) — must produce
//! identical results across random schemas, skill counts, and thread
//! counts.

use proptest::prelude::*;
use upskill_core::dist::special::digamma;
use upskill_core::dist::FeatureDistribution;
use upskill_core::em::{train_em_with_parallelism, EmConfig};
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue, PositiveModel};
use upskill_core::incremental::StatsGrid;
use upskill_core::init::initialize_model;
use upskill_core::model::SkillModel;
use upskill_core::parallel::ParallelConfig;
use upskill_core::reference::{train_em_full, train_full_rescan};
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_core::transition::TransitionModel;
use upskill_core::types::{Action, ActionSequence, Dataset, SkillAssignments};

/// Raw item feature draws: (category, count, gamma value, lognormal value).
type ItemDraw = (u32, u64, f64, f64);

/// One action: an item pick plus four raw level draws (one per churn
/// version the grid will be stepped through).
type ActionDraw = (usize, (u8, u8, u8, u8));

const CARDINALITY: u32 = 4;
const N_VERSIONS: usize = 4;
const LAMBDA: f64 = 0.01;

/// Mixed four-feature schema: categorical + count + gamma + log-normal.
fn mixed_schema() -> FeatureSchema {
    FeatureSchema::new(vec![
        FeatureKind::Categorical {
            cardinality: CARDINALITY,
        },
        FeatureKind::Count,
        FeatureKind::Positive {
            model: PositiveModel::Gamma,
        },
        FeatureKind::Positive {
            model: PositiveModel::LogNormal,
        },
    ])
    .unwrap()
}

/// Schema variants for the training test: categorical always present,
/// the other kinds toggled by `mask` bits.
fn masked_schema(mask: u8) -> FeatureSchema {
    let mut kinds = vec![FeatureKind::Categorical {
        cardinality: CARDINALITY,
    }];
    if mask & 1 != 0 {
        kinds.push(FeatureKind::Count);
    }
    if mask & 2 != 0 {
        kinds.push(FeatureKind::Positive {
            model: PositiveModel::Gamma,
        });
    }
    if mask & 4 != 0 {
        kinds.push(FeatureKind::Positive {
            model: PositiveModel::LogNormal,
        });
    }
    FeatureSchema::new(kinds).unwrap()
}

fn item_values(schema: &FeatureSchema, draw: &ItemDraw) -> Vec<FeatureValue> {
    let &(cat, count, real_a, real_b) = draw;
    schema
        .kinds()
        .iter()
        .map(|kind| match kind {
            FeatureKind::Categorical { .. } => FeatureValue::Categorical(cat % CARDINALITY),
            FeatureKind::Count => FeatureValue::Count(count),
            FeatureKind::Positive {
                model: PositiveModel::Gamma,
            } => FeatureValue::Real(real_a),
            FeatureKind::Positive {
                model: PositiveModel::LogNormal,
            } => FeatureValue::Real(real_b),
        })
        .collect()
}

fn build_dataset(
    schema: FeatureSchema,
    item_draws: &[ItemDraw],
    users: &[Vec<ActionDraw>],
) -> Dataset {
    let items: Vec<Vec<FeatureValue>> =
        item_draws.iter().map(|d| item_values(&schema, d)).collect();
    let sequences: Vec<ActionSequence> = users
        .iter()
        .enumerate()
        .map(|(u, picks)| {
            let actions: Vec<Action> = picks
                .iter()
                .enumerate()
                .map(|(t, &(raw, _))| {
                    Action::new(t as i64, u as u32, (raw % item_draws.len()) as u32)
                })
                .collect();
            ActionSequence::new(u as u32, actions).unwrap()
        })
        .collect();
    Dataset::new(schema, items, sequences).unwrap()
}

/// Extracts churn version `v` (0-based) as a full assignment.
fn assignment_version(users: &[Vec<ActionDraw>], v: usize, n_levels: usize) -> SkillAssignments {
    let per_user = users
        .iter()
        .map(|picks| {
            picks
                .iter()
                .map(|&(_, (a, b, c, d))| {
                    let raw = [a, b, c, d][v];
                    (raw as usize % n_levels + 1) as u8
                })
                .collect()
        })
        .collect();
    SkillAssignments { per_user }
}

/// Cell-by-cell fit comparison: exact for the integer-statistic families
/// (categorical, Poisson), a tight tolerance on the continuous ones (the
/// grid replay is item-ordered, the scan action-ordered, so their moment
/// sums differ by ulps only).
///
/// A gamma cell is compared through the two statistics its fit reads: the
/// mean `k·θ`, and the log-moment gap `ln m − mean(ln x)` that the shape
/// solves `ln k − ψ(k) = gap` for. The shape itself is ill-conditioned
/// for near-constant samples (the gap cancels to about `1/(2k)`, so one
/// ulp of `ln m` moves `k` by a relative `~k·ε`), and comparing it
/// directly at `1e-10` fails on such cells.
fn assert_fits_match(
    replayed: &SkillModel,
    scanned: &SkillModel,
    n_levels: usize,
) -> proptest::TestCaseResult {
    for s in 1..=n_levels as u8 {
        for f in 0..replayed.n_features() {
            let log_gap = |k: f64| k.ln() - digamma(k);
            let close = |a: f64, b: f64| {
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() <= 1e-10 * scale
            };
            match (replayed.cell(s, f).unwrap(), scanned.cell(s, f).unwrap()) {
                (FeatureDistribution::Categorical(r), FeatureDistribution::Categorical(c)) => {
                    prop_assert_eq!(r.probs(), c.probs())
                }
                (FeatureDistribution::Poisson(r), FeatureDistribution::Poisson(c)) => {
                    prop_assert_eq!(r.rate().to_bits(), c.rate().to_bits())
                }
                (FeatureDistribution::Gamma(r), FeatureDistribution::Gamma(c)) => prop_assert!(
                    close(r.mean(), c.mean()) && close(log_gap(r.shape()), log_gap(c.shape())),
                    "gamma mismatch: {:?} vs {:?}",
                    r,
                    c
                ),
                (FeatureDistribution::LogNormal(r), FeatureDistribution::LogNormal(c)) => {
                    prop_assert!(
                        close(r.mu(), c.mu()) && close(r.sigma(), c.sigma()),
                        "log-normal mismatch: {:?} vs {:?}",
                        r,
                        c
                    )
                }
                _ => prop_assert!(false, "cell families diverged"),
            }
        }
    }
    Ok(())
}

/// Bit-exact model fingerprint: `{:?}` prints every `f64` in its
/// shortest round-trip form, so equal strings mean equal bits.
fn bits(model: &SkillModel) -> String {
    format!("{model:?}")
}

fn users_strategy(max_users: usize, max_len: usize) -> impl Strategy<Value = Vec<Vec<ActionDraw>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0usize..1000, (0u8..12, 0u8..12, 0u8..12, 0u8..12)),
            1..max_len,
        ),
        1..max_users,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // A grid stepped through a chain of random assignment churns equals
    // the from-scratch build at every step, its fitted cells match
    // `update::fit_model` cell by cell, the parallel delta path matches
    // the sequential one exactly for any thread count, and the
    // dirty-level refit under every update-step split equals a
    // sequential full fit of a fresh build bit for bit.
    #[test]
    fn churned_grid_matches_from_scratch(
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..10),
        users in users_strategy(6, 18),
        n_levels in 2usize..5,
    ) {
        let ds = build_dataset(mixed_schema(), &item_draws, &users);
        let mut current = assignment_version(&users, 0, n_levels);
        let mut grid = StatsGrid::build(&ds, &current, n_levels).unwrap();
        prop_assert_eq!(grid.total_actions() as usize, ds.n_actions());
        let sequential = ParallelConfig::sequential();
        let mut model = grid.fit_model_incremental(&ds, LAMBDA, &sequential, None).unwrap();
        let mut configs = vec![
            sequential,
            sequential.with_skills(true).with_threads(3),
            sequential.with_features(true).with_threads(3),
        ];
        configs.extend((2..=5).map(ParallelConfig::all));

        for v in 1..N_VERSIONS {
            let next = assignment_version(&users, v, n_levels);
            let expected_changed: usize = current
                .per_user
                .iter()
                .flatten()
                .zip(next.per_user.iter().flatten())
                .filter(|(a, b)| a != b)
                .count();

            // The parallel delta path must match the sequential one for
            // any thread count (integer merges are exact).
            for threads in [2usize, 3] {
                let mut par = grid.clone();
                let changed = par
                    .apply_delta_parallel(&ds, &current, &next, threads)
                    .unwrap();
                prop_assert_eq!(changed, expected_changed);
                let mut seq = grid.clone();
                seq.apply_delta(&ds, &current, &next).unwrap();
                prop_assert_eq!(&par, &seq);
            }

            let changed = grid.apply_delta(&ds, &current, &next).unwrap();
            prop_assert_eq!(changed, expected_changed);
            let mut fresh = StatsGrid::build(&ds, &next, n_levels).unwrap();
            prop_assert_eq!(&grid, &fresh);
            grid.cross_check(&ds, &next).unwrap();

            let expect = fresh.fit_model_incremental(&ds, LAMBDA, &sequential, None).unwrap();
            for cfg in &configs {
                let refit = grid
                    .clone()
                    .fit_model_incremental(&ds, LAMBDA, cfg, Some(&model))
                    .unwrap();
                prop_assert!(bits(&refit) == bits(&expect), "refit diverged under {:?}", cfg);
            }
            model = grid.fit_model_incremental(&ds, LAMBDA, &sequential, Some(&model)).unwrap();
            let scanned = upskill_core::update::fit_model(&ds, &next, n_levels, LAMBDA).unwrap();
            assert_fits_match(&model, &scanned, n_levels)?;
            current = next;
        }
    }

    // Incremental training (any thread count) and the full-rescan
    // reference agree — same assignments, churn trace, and objective —
    // across random schemas and skill counts.
    #[test]
    fn incremental_and_full_training_are_identical(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 3..8),
        users in users_strategy(5, 14),
        n_levels in 2usize..4,
        threads in 1usize..4,
    ) {
        let ds = build_dataset(masked_schema(mask), &item_draws, &users);
        let cfg = TrainConfig::new(n_levels)
            .with_min_init_actions(1)
            .with_max_iterations(12);
        let incremental =
            train_with_parallelism(&ds, &cfg, &ParallelConfig::all(threads)).unwrap();
        let full = train_full_rescan(&ds, &cfg).unwrap();

        prop_assert_eq!(&incremental.assignments, &full.assignments);
        prop_assert_eq!(incremental.converged, full.converged);
        prop_assert_eq!(incremental.trace.len(), full.trace.len());
        for (a, b) in incremental.trace.iter().zip(&full.trace) {
            prop_assert_eq!(a.iteration, b.iteration);
            prop_assert_eq!(a.n_changed, b.n_changed);
            let scale = a.log_likelihood.abs().max(1.0);
            prop_assert!(
                (a.log_likelihood - b.log_likelihood).abs() <= 1e-9 * scale,
                "iteration {} ll {} vs {}",
                a.iteration,
                a.log_likelihood,
                b.log_likelihood
            );
        }
        let scale = incremental.log_likelihood.abs().max(1.0);
        prop_assert!(
            (incremental.log_likelihood - full.log_likelihood).abs() <= 1e-9 * scale
        );
    }

    // The EM loop and the from-scratch reference EM agree across random
    // schemas, skill counts, and thread counts:
    //
    // - The first iteration's evidence is **bitwise** equal — both paths
    //   run forward–backward against the identical initial table, so any
    //   deviation here is an E-step bug, not floating-point drift.
    // - Later iterations differ only by M-step summation order (an
    //   item's mass is summed before it meets the feature values, where
    //   the reference pushes action by action), normally ulps. On
    //   adversarial random data an ulp-level difference can briefly push
    //   one trajectory across an M-step branch boundary (e.g. a fit
    //   guard), producing a one-iteration spike that EM's contraction
    //   erases again, so the per-iteration bound is a loose 1e-4 while
    //   the structure (iteration count, convergence flag) must match
    //   exactly and the *final* evidence and models must agree tightly.
    #[test]
    fn incremental_and_full_em_are_identical(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 3..8),
        users in users_strategy(5, 14),
        n_levels in 2usize..4,
        threads in 1usize..4,
    ) {
        let ds = build_dataset(masked_schema(mask), &item_draws, &users);
        let initial = initialize_model(&ds, n_levels, 1, 0.01).unwrap();
        let transitions = TransitionModel::uninformative(n_levels).unwrap();
        let cfg = EmConfig::new(initial, transitions)
            .with_max_iterations(10)
            .with_tolerance(1e-9);
        let incremental = train_em_with_parallelism(&ds, &cfg, &ParallelConfig::all(threads)).unwrap();
        let full = train_em_full(&ds, &cfg).unwrap();

        prop_assert_eq!(incremental.converged, full.converged);
        prop_assert_eq!(
            incremental.evidence_trace.len(),
            full.evidence_trace.len()
        );
        prop_assert!(
            incremental.evidence_trace[0].to_bits() == full.evidence_trace[0].to_bits(),
            "first-iteration evidence not bitwise: {} vs {}",
            incremental.evidence_trace[0], full.evidence_trace[0]
        );
        for (i, (a, b)) in incremental
            .evidence_trace
            .iter()
            .zip(&full.evidence_trace)
            .enumerate()
        {
            let scale = a.abs().max(b.abs()).max(1.0);
            prop_assert!(
                (a - b).abs() <= 1e-4 * scale,
                "iteration {} evidence {} vs {}",
                i, a, b
            );
        }
        let (a, b) = (
            incremental.evidence_trace[incremental.evidence_trace.len() - 1],
            full.evidence_trace[full.evidence_trace.len() - 1],
        );
        let scale = a.abs().max(b.abs()).max(1.0);
        prop_assert!(
            (a - b).abs() <= 1e-9 * scale,
            "final evidence {} vs {}", a, b
        );
        for item in 0..ds.n_items() as u32 {
            let features = ds.item_features(item);
            for s in 1..=n_levels as u8 {
                let a = incremental.model.item_log_likelihood(features, s);
                let b = full.model.item_log_likelihood(features, s);
                let scale = a.abs().max(b.abs()).max(1.0);
                prop_assert!(
                    (a - b).abs() <= 1e-9 * scale,
                    "item {} level {}: {} vs {}",
                    item, s, a, b
                );
            }
        }
    }
}
