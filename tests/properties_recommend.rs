//! Property tests for the recommendation band cache: a prebuilt
//! [`LevelBand`] queried through [`recommend_from_band`] must be
//! *bit-for-bit* the output of the full catalog scan
//! [`recommend_for_level_with_table`] — for random schemas, random
//! emission models, random difficulty vectors, random configs, any
//! exclusion subset, and in particular when an interest-normalization
//! anchor is excluded (the case that forces the band query off its
//! prebuilt ranking onto the rescore fallback).

use proptest::prelude::*;
use upskill_core::dist::{Categorical, FeatureDistribution};
use upskill_core::emission::EmissionTable;
use upskill_core::error::CoreError;
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
use upskill_core::model::SkillModel;
use upskill_core::recommend::{
    build_level_band, recommend_for_level_with_table, recommend_from_band, RecommendConfig,
    Recommendation,
};
use upskill_core::types::{Action, ActionSequence, Dataset, ItemId};

/// Builds a model + dataset + emission table from raw draws: one
/// categorical feature, each item's category drawn freely, each level's
/// emission row an arbitrary (normalized) distribution over categories.
fn table_from_draws(
    categories: &[u32],
    level_weights: &[Vec<f64>],
) -> (EmissionTable, usize, usize) {
    let n_items = categories.len();
    let cardinality = 4u32;
    let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality }]).unwrap();
    let items: Vec<Vec<FeatureValue>> = categories
        .iter()
        .map(|&c| vec![FeatureValue::Categorical(c % cardinality)])
        .collect();
    // The dataset only supplies item features to the table; one short
    // valid sequence keeps the constructor happy.
    let seq = ActionSequence::new(
        0,
        (0..n_items.min(3))
            .map(|t| Action::new(t as i64, 0, t as u32))
            .collect(),
    )
    .unwrap();
    let ds = Dataset::new(schema.clone(), items, vec![seq]).unwrap();
    let cells: Vec<Vec<FeatureDistribution>> = level_weights
        .iter()
        .map(|weights| {
            let sum: f64 = weights.iter().sum();
            let probs: Vec<f64> = weights.iter().map(|w| w / sum).collect();
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(probs).unwrap(),
            )]
        })
        .collect();
    let n_levels = level_weights.len();
    let model = SkillModel::new(schema, n_levels, cells).unwrap();
    (EmissionTable::build(&model, &ds), n_items, n_levels)
}

/// Bitwise equality of two recommendation lists — every float field
/// compared by bits, not by value (`==` would already accept 0.0 vs
/// -0.0; the contract is stronger).
fn assert_bitwise_equal(
    full: &[Recommendation],
    banded: &[Recommendation],
) -> proptest::TestCaseResult {
    prop_assert_eq!(full.len(), banded.len());
    for (a, b) in full.iter().zip(banded) {
        prop_assert_eq!(a.item, b.item);
        prop_assert_eq!(a.difficulty.to_bits(), b.difficulty.to_bits());
        prop_assert_eq!(a.difficulty_fit.to_bits(), b.difficulty_fit.to_bits());
        prop_assert_eq!(a.interest.to_bits(), b.interest.to_bits());
        prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // THE band-cache contract, at every level and under three exclusion
    // regimes: none, a random subset, and a subset that deliberately
    // contains an interest-normalization anchor (band.max_interest_items)
    // so the O(k) walk is forced onto the rescore fallback. All three
    // must reproduce the full scan bit for bit.
    #[test]
    fn band_queries_are_bitwise_identical_to_full_scans(
        categories in proptest::collection::vec(0u32..8, 3..10),
        raw_weights in proptest::collection::vec(
            proptest::collection::vec(0.05f64..10.0, 4), 2..5),
        raw_difficulty in proptest::collection::vec(0.2f64..6.0, 10),
        target_offset in 0.0f64..1.0,
        lower_slack in 0.0f64..3.0,
        upper_slack in 0.2f64..3.0,
        interest_weight in 0.0f64..1.0,
        k in 1usize..6,
        exclude_mask in 0u32..1024,
    ) {
        let (table, n_items, n_levels) = table_from_draws(&categories, &raw_weights);
        let difficulty: Vec<f64> = raw_difficulty[..n_items].to_vec();
        let config = RecommendConfig {
            target_offset,
            lower_slack,
            upper_slack,
            interest_weight,
            k,
        };

        for level in 1..=n_levels as u8 {
            let band = build_level_band(&table, &difficulty, level, &config).unwrap();
            prop_assert_eq!(band.level(), level);
            prop_assert_eq!(band.config(), &config);
            prop_assert_eq!(band.is_empty(), band.ranked().is_empty());
            if !band.is_empty() {
                prop_assert!(!band.max_interest_items().is_empty());
            }

            // Regime 1: no exclusion.
            let none = |_: ItemId| false;
            let full = recommend_for_level_with_table(
                &table, &difficulty, level, &none, &config,
            ).unwrap();
            let banded = recommend_from_band(&band, &none, k).unwrap();
            assert_bitwise_equal(&full, &banded)?;

            // Regime 2: a random exclusion subset.
            let masked = |item: ItemId| exclude_mask & (1 << item) != 0;
            let full = recommend_for_level_with_table(
                &table, &difficulty, level, &masked, &config,
            ).unwrap();
            let banded = recommend_from_band(&band, &masked, k).unwrap();
            assert_bitwise_equal(&full, &banded)?;

            // Regime 3: force the rescore fallback by excluding an
            // interest-normalization anchor — the surviving candidates'
            // interest maximum shifts, so the prebuilt ranking is
            // unusable and the band must rescore from raw candidates.
            if let Some(&anchor) = band.max_interest_items().first() {
                let forced = |item: ItemId| item == anchor || masked(item);
                let full = recommend_for_level_with_table(
                    &table, &difficulty, level, &forced, &config,
                ).unwrap();
                let banded = recommend_from_band(&band, &forced, k).unwrap();
                prop_assert!(banded.iter().all(|r| r.item != anchor));
                assert_bitwise_equal(&full, &banded)?;
            }
        }
    }

    // `k` is a query-time knob: any k against one band must equal the
    // full scan with that k in its config, and k = 0 is rejected by
    // both paths.
    #[test]
    fn query_k_matches_rebuilt_config(
        categories in proptest::collection::vec(0u32..8, 3..8),
        raw_weights in proptest::collection::vec(
            proptest::collection::vec(0.05f64..10.0, 4), 2..4),
        raw_difficulty in proptest::collection::vec(0.2f64..5.0, 8),
        k_build in 1usize..4,
        k_query in 1usize..8,
    ) {
        let (table, n_items, _) = table_from_draws(&categories, &raw_weights);
        let difficulty: Vec<f64> = raw_difficulty[..n_items].to_vec();
        let config = RecommendConfig {
            lower_slack: 2.0,
            upper_slack: 2.0,
            interest_weight: 0.4,
            k: k_build,
            ..RecommendConfig::default()
        };
        let band = build_level_band(&table, &difficulty, 1, &config).unwrap();
        let none = |_: ItemId| false;
        let requeried = RecommendConfig { k: k_query, ..config };
        let full = recommend_for_level_with_table(
            &table, &difficulty, 1, &none, &requeried,
        ).unwrap();
        let banded = recommend_from_band(&band, &none, k_query).unwrap();
        assert_bitwise_equal(&full, &banded)?;
        prop_assert!(banded.len() <= k_query);
        prop_assert!(recommend_from_band(&band, &none, 0).is_err());
    }

    // A level outside `1..=S` has no band: the band build and the full
    // scan both refuse it with the same typed error, whatever `S`.
    #[test]
    fn levels_outside_the_model_are_rejected_by_both_paths(
        categories in proptest::collection::vec(0u32..8, 3..8),
        raw_weights in proptest::collection::vec(
            proptest::collection::vec(0.05f64..10.0, 4), 2..9),
        raw_difficulty in proptest::collection::vec(0.2f64..5.0, 8),
        level in 0u8..=255,
    ) {
        let (table, n_items, n_levels) = table_from_draws(&categories, &raw_weights);
        prop_assume!(level == 0 || usize::from(level) > n_levels);
        let difficulty: Vec<f64> = raw_difficulty[..n_items].to_vec();
        let config = RecommendConfig::default();
        let want = CoreError::InvalidSkillCount { requested: usize::from(level) };
        let band = build_level_band(&table, &difficulty, level, &config);
        prop_assert_eq!(band.unwrap_err(), want.clone());
        let full = recommend_for_level_with_table(&table, &difficulty, level, &|_| false, &config);
        prop_assert_eq!(full.unwrap_err(), want);
    }
}
