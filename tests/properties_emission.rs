//! Property-based tests for the shared emission table: across random
//! schemas mixing categorical, count, and continuous (gamma + log-normal)
//! features, the table-backed assignment and difficulty paths must agree
//! with direct per-action evaluation, the columnar and parallel fills
//! must agree with the scalar fill **bitwise**, and the f32 storage must
//! stay within its documented half-ulp rounding bound.

use proptest::prelude::*;
use upskill_core::assign::{assign_items_with_table_ws, assign_sequence, AssignWorkspace};
use upskill_core::difficulty::{generation_difficulty, generation_difficulty_all, SkillPrior};
use upskill_core::dist::{Categorical, FeatureDistribution, Gamma, LogNormal, Poisson};
use upskill_core::emission::{CompactEmissionTable, EmissionTable};
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue, PositiveModel};
use upskill_core::model::SkillModel;
use upskill_core::parallel::{assign_all_parallel_with_table, ParallelConfig};
use upskill_core::reference::{assign_all_direct, build_scalar};
use upskill_core::types::{Action, ActionSequence, Dataset};

/// Per-level parameters for a 4-feature mixed schema:
/// (categorical weights, poisson rate, (gamma shape, scale), (lognormal mu, sigma)).
type LevelParams = (Vec<f64>, f64, (f64, f64), (f64, f64));

/// Raw item feature draws: (category, count, gamma value, lognormal value).
type ItemDraw = (u32, u64, f64, f64);

const CARDINALITY: u32 = 4;

fn mixed_model(params: &[LevelParams]) -> SkillModel {
    let schema = FeatureSchema::new(vec![
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
    .unwrap();
    let cells = params
        .iter()
        .map(|(weights, rate, (shape, scale), (mu, sigma))| {
            let total: f64 = weights.iter().sum();
            let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(probs).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(*rate).unwrap()),
                FeatureDistribution::Gamma(Gamma::new(*shape, *scale).unwrap()),
                FeatureDistribution::LogNormal(LogNormal::new(*mu, *sigma).unwrap()),
            ]
        })
        .collect();
    SkillModel::new(schema, params.len(), cells).unwrap()
}

fn mixed_dataset(item_draws: &[ItemDraw], picks: &[usize]) -> Dataset {
    let schema = FeatureSchema::new(vec![
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
    .unwrap();
    let items: Vec<Vec<FeatureValue>> = item_draws
        .iter()
        .map(|&(cat, count, real_a, real_b)| {
            vec![
                FeatureValue::Categorical(cat % CARDINALITY),
                FeatureValue::Count(count),
                FeatureValue::Real(real_a),
                FeatureValue::Real(real_b),
            ]
        })
        .collect();
    let actions: Vec<Action> = picks
        .iter()
        .enumerate()
        .map(|(t, &raw)| Action::new(t as i64, 0, (raw % item_draws.len()) as u32))
        .collect();
    let seq = ActionSequence::new(0, actions).unwrap();
    Dataset::new(schema, items, vec![seq]).unwrap()
}

fn level_params_strategy(n_levels: usize) -> impl Strategy<Value = Vec<LevelParams>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0.05f64..5.0, CARDINALITY as usize),
            0.2f64..20.0,
            (0.5f64..8.0, 0.2f64..5.0),
            (-1.0f64..2.0, 0.2f64..2.0),
        ),
        n_levels,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_assignment_matches_direct_on_mixed_schemas(
        params in level_params_strategy(3),
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..12),
        picks in proptest::collection::vec(0usize..1000, 1..25),
    ) {
        let model = mixed_model(&params);
        let ds = mixed_dataset(&item_draws, &picks);
        let seq = &ds.sequences()[0];
        let direct = assign_sequence(&model, &ds, seq).unwrap();
        let table = EmissionTable::build(&model, &ds);
        let items: Vec<u32> = seq.actions().iter().map(|a| a.item).collect();
        let cached =
            assign_items_with_table_ws(&table, &items, &mut AssignWorkspace::new()).unwrap();
        prop_assert_eq!(&direct.levels, &cached.levels);
        prop_assert!(
            (direct.log_likelihood - cached.log_likelihood).abs() <= 1e-12,
            "ll {} vs {}", direct.log_likelihood, cached.log_likelihood
        );

        // The dataset-level wrappers agree as well (assignments + objective).
        let (a_direct, ll_direct) = assign_all_direct(&model, &ds).unwrap();
        let (a_cached, ll_cached) =
            assign_all_parallel_with_table(&table, &ds, &ParallelConfig::sequential()).unwrap();
        prop_assert_eq!(a_direct, a_cached);
        prop_assert!((ll_direct - ll_cached).abs() <= 1e-12);
    }

    #[test]
    fn table_rows_are_exact_model_emissions(
        params in level_params_strategy(4),
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 1..10),
    ) {
        let model = mixed_model(&params);
        let ds = mixed_dataset(&item_draws, &[0]);
        let table = EmissionTable::build(&model, &ds);
        prop_assert_eq!(table.n_items(), ds.n_items());
        prop_assert_eq!(table.n_levels(), model.n_levels());
        for item in 0..ds.n_items() {
            let features = ds.item_features(item as u32);
            for s in 1..=model.n_levels() {
                let expected = model.item_log_likelihood(features, s as u8);
                prop_assert_eq!(table.log_likelihood(item as u32, s as u8), expected);
            }
        }
    }

    // The columnar batch-kernel fill and the parallel direct-write fill
    // both reproduce the scalar cell-by-cell fill bit for bit: batch
    // kernels hoist level-constant terms but keep the per-cell operation
    // order, and workers write disjoint slices of the same layout.
    #[test]
    fn columnar_and_parallel_fills_match_scalar_bitwise(
        params in level_params_strategy(4),
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 1..12),
        threads in 2usize..5,
    ) {
        let model = mixed_model(&params);
        let ds = mixed_dataset(&item_draws, &[0]);
        let scalar = build_scalar(&model, &ds);
        let columnar = EmissionTable::build(&model, &ds);
        let parallel = EmissionTable::build_parallel(&model, &ds, threads).unwrap();
        for item in 0..ds.n_items() as u32 {
            for (s, (&reference, (&col, &par))) in scalar
                .row(item)
                .iter()
                .zip(columnar.row(item).iter().zip(parallel.row(item)))
                .enumerate()
            {
                prop_assert!(
                    reference.to_bits() == col.to_bits(),
                    "columnar cell ({}, {}) diverged: {} vs {}",
                    item, s, reference, col
                );
                prop_assert!(
                    reference.to_bits() == par.to_bits(),
                    "parallel cell ({}, {}) diverged: {} vs {}",
                    item, s, reference, par
                );
            }
        }
    }

    // The f32 storage deviates from the f64 table by at most the one
    // documented round-to-nearest step: half an f32 ulp (~6e-8 relative)
    // per cell, with non-finite scores preserved exactly.
    #[test]
    fn compact_table_stays_within_documented_f32_bound(
        params in level_params_strategy(3),
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 1..10),
    ) {
        let model = mixed_model(&params);
        let ds = mixed_dataset(&item_draws, &[0]);
        let full = EmissionTable::build(&model, &ds);
        let compact = CompactEmissionTable::build(&model, &ds);
        // Direct build and rounding an existing table are the same thing.
        prop_assert_eq!(&compact, &CompactEmissionTable::from_table(&full));
        let half_ulp = 0.5 * f32::EPSILON as f64;
        for item in 0..ds.n_items() as u32 {
            for s in 1..=full.n_levels() as u8 {
                let exact = full.log_likelihood(item, s);
                let stored = compact.log_likelihood(item, s);
                if exact.is_finite() {
                    // Relative half-ulp bound; the absolute term covers
                    // scores in the f32 subnormal range around zero.
                    prop_assert!(
                        (stored - exact).abs() <= half_ulp * exact.abs() + 1e-37,
                        "cell ({}, {}): {} stored as {}", item, s, exact, stored
                    );
                } else {
                    prop_assert!(
                        stored.to_bits() == exact.to_bits(),
                        "non-finite cell ({}, {}): {} stored as {}",
                        item, s, exact, stored
                    );
                }
            }
        }
    }

    #[test]
    fn table_difficulty_matches_direct_posterior(
        params in level_params_strategy(3),
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..10),
        picks in proptest::collection::vec(0usize..1000, 1..15),
    ) {
        let model = mixed_model(&params);
        let ds = mixed_dataset(&item_draws, &picks);
        // generation_difficulty_all goes through the shared table; compare
        // against the per-item posterior computed directly from the model.
        let all = generation_difficulty_all(&model, &ds, SkillPrior::Uniform, None).unwrap();
        prop_assert_eq!(all.len(), ds.n_items());
        for (item, &via_table) in all.iter().enumerate() {
            let direct = generation_difficulty(
                &model,
                ds.item_features(item as u32),
                SkillPrior::Uniform,
                None,
            )
            .unwrap();
            prop_assert!(
                (via_table - direct).abs() <= 1e-12,
                "item {}: {} vs {}", item, via_table, direct
            );
            prop_assert!((1.0..=params.len() as f64).contains(&via_table));
        }
    }
}
