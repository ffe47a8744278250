//! Property-based tests for the incremental training subsystem: a
//! randomly churned [`StatsGrid`] must stay cell-for-cell equal to a
//! from-scratch accumulation, and incremental vs. full training — hard
//! (Viterbi) *and* soft (responsibility-delta EM) — must produce
//! identical results across random schemas, skill counts, and thread
//! counts.

use proptest::prelude::*;
use upskill_core::dist::FeatureAccumulator;
use upskill_core::em::{train_em_with_parallelism, EmConfig};
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue, PositiveModel};
use upskill_core::incremental::StatsGrid;
use upskill_core::init::initialize_model;
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

/// Cell-by-cell accumulator comparison: exact for the integer-statistic
/// families, tight relative tolerance for the continuous sums (replay is
/// item-ordered, the scan action-ordered, so they differ by ulps only).
fn assert_accumulators_match(
    replayed: &[Vec<FeatureAccumulator>],
    scanned: &[Vec<FeatureAccumulator>],
) -> proptest::TestCaseResult {
    prop_assert_eq!(replayed.len(), scanned.len());
    for (rrow, srow) in replayed.iter().zip(scanned) {
        prop_assert_eq!(rrow.len(), srow.len());
        for (r, s) in rrow.iter().zip(srow) {
            match (r, s) {
                (
                    FeatureAccumulator::Categorical { counts: rc },
                    FeatureAccumulator::Categorical { counts: sc },
                ) => prop_assert_eq!(rc, sc),
                (
                    FeatureAccumulator::Count { sum: rs, n: rn },
                    FeatureAccumulator::Count { sum: ss, n: sn },
                ) => {
                    // Integer-valued f64 sums are exact in any order.
                    prop_assert_eq!(rs, ss);
                    prop_assert_eq!(rn, sn);
                }
                (
                    FeatureAccumulator::Positive { stats: rs, .. },
                    FeatureAccumulator::Positive { stats: ss, .. },
                ) => {
                    prop_assert_eq!(rs.count(), ss.count());
                    if rs.count() > 0.0 {
                        for (a, b) in [
                            (rs.mean(), ss.mean()),
                            (rs.mean_ln(), ss.mean_ln()),
                            (rs.variance(), ss.variance()),
                            (rs.variance_ln(), ss.variance_ln()),
                        ] {
                            let scale = a.abs().max(b.abs()).max(1.0);
                            prop_assert!(
                                (a - b).abs() <= 1e-10 * scale,
                                "continuous stat mismatch: {} vs {}",
                                a,
                                b
                            );
                        }
                    }
                }
                _ => prop_assert!(false, "accumulator kinds diverged"),
            }
        }
    }
    Ok(())
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
    // the from-scratch build at every step, its replayed accumulators
    // match `update::accumulate` cell by cell, and the parallel delta
    // path matches the sequential one exactly for any thread count.
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
            let fresh = StatsGrid::build(&ds, &next, n_levels).unwrap();
            prop_assert_eq!(&grid, &fresh);
            grid.cross_check(&ds, &next).unwrap();

            let replayed = grid.accumulators(&ds).unwrap();
            let scanned =
                upskill_core::update::accumulate(&ds, &next, n_levels).unwrap();
            assert_accumulators_match(&replayed, &scanned)?;
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

    // Responsibility-delta incremental EM and the from-scratch reference
    // EM agree across random schemas, skill counts, and thread counts, with
    // the default responsibility gate and with the gate disabled:
    //
    // - The first iteration's evidence is **bitwise** equal — both paths
    //   run forward–backward against the identical initial table, so any
    //   deviation here is an E-step bug, not floating-point drift.
    // - Later iterations differ only by M-step summation order
    //   (item-major replay vs. action-major scan), normally ulps. On
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
        let base = ParallelConfig::all(threads);

        for gamma_tolerance in [0.0, 1e-12] {
            let cfg = EmConfig::new(initial.clone(), transitions.clone())
                .with_max_iterations(10)
                .with_tolerance(1e-9)
                .with_gamma_tolerance(gamma_tolerance);
            let incremental = train_em_with_parallelism(&ds, &cfg, &base).unwrap();
            let full = train_em_full(&ds, &cfg).unwrap();

            prop_assert_eq!(incremental.converged, full.converged);
            prop_assert_eq!(
                incremental.evidence_trace.len(),
                full.evidence_trace.len()
            );
            prop_assert!(
                incremental.evidence_trace[0].to_bits()
                    == full.evidence_trace[0].to_bits(),
                "gate {}: first-iteration evidence not bitwise: {} vs {}",
                gamma_tolerance, incremental.evidence_trace[0], full.evidence_trace[0]
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
                    "gate {}: iteration {} evidence {} vs {}",
                    gamma_tolerance, i, a, b
                );
            }
            let (a, b) = (
                incremental.evidence_trace[incremental.evidence_trace.len() - 1],
                full.evidence_trace[full.evidence_trace.len() - 1],
            );
            let scale = a.abs().max(b.abs()).max(1.0);
            prop_assert!(
                (a - b).abs() <= 1e-9 * scale,
                "gate {}: final evidence {} vs {}", gamma_tolerance, a, b
            );
            for item in 0..ds.n_items() as u32 {
                let features = ds.item_features(item);
                for s in 1..=n_levels as u8 {
                    let a = incremental.model.item_log_likelihood(features, s);
                    let b = full.model.item_log_likelihood(features, s);
                    let scale = a.abs().max(b.abs()).max(1.0);
                    prop_assert!(
                        (a - b).abs() <= 1e-9 * scale,
                        "gate {}: item {} level {}: {} vs {}",
                        gamma_tolerance, item, s, a, b
                    );
                }
            }
        }
    }
}
