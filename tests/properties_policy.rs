//! Property tests for the adaptive re-rank: the bounded per-stratum
//! selection in [`rerank_band`] must return exactly what sorting the
//! whole scored band returns ([`rerank_band_full_sort`]) — for random
//! bands with heavily duplicated difficulties (so equal scores meet at
//! the heap boundary and the item-id tie-break decides), random
//! success/failure histories, every `k` from 1 past the band size, any
//! mix quota, any static blend, every preset, and any exclusion subset
//! up to "exclude everything".

use proptest::prelude::*;
use upskill_core::dist::{Categorical, FeatureDistribution};
use upskill_core::emission::EmissionTable;
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
use upskill_core::model::SkillModel;
use upskill_core::policy::{rerank_band, MixQuota, PolicyConfig, PolicyState};
use upskill_core::recommend::{build_level_band, RecommendConfig};
use upskill_core::reference::rerank_band_full_sort;
use upskill_core::types::{Action, ActionSequence, Dataset, ItemId};

const N_LEVELS: usize = 3;

/// An emission table over items with one categorical feature drawn
/// from only `cardinality` values, so many items share an emission row.
fn table(categories: &[u32], level_weights: &[Vec<f64>]) -> EmissionTable {
    let cardinality = level_weights[0].len() as u32;
    let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality }]).unwrap();
    let items: Vec<Vec<FeatureValue>> = categories
        .iter()
        .map(|&c| vec![FeatureValue::Categorical(c % cardinality)])
        .collect();
    let seq = ActionSequence::new(0, vec![Action::new(0, 0, 0)]).unwrap();
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
    let model = SkillModel::new(schema, N_LEVELS, cells).unwrap();
    EmissionTable::build(&model, &ds)
}

/// The mix quota of `regime`: all zero, summing to one, or a random
/// sub-unit total.
fn quota(regime: u8, (a, b, c): (f64, f64, f64)) -> MixQuota {
    let raw = [a, b, c];
    let [review, practice, challenge] = match regime {
        0 => [0.0; 3],
        1 => {
            let total: f64 = raw.iter().sum();
            raw.map(|r| r / total)
        }
        _ => raw.map(|r| r / 3.0),
    };
    MixQuota {
        practice,
        review,
        challenge,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bounded_rerank_equals_full_sort(
        items in proptest::collection::vec((0u32..2, 0u8..6), 1..48),
        raw_weights in proptest::collection::vec(
            proptest::collection::vec(0.05f64..10.0, 2), N_LEVELS),
        band_level in 1u8..=N_LEVELS as u8,
        committed in 1u8..=N_LEVELS as u8,
        slack in 0.5f64..3.0,
        history in proptest::collection::vec((0u32..48, 0u8..6, 0u8..2), 0..24),
        preset in 0u8..3,
        quota_regime in 0u8..3,
        raw_quota in (0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0),
        static_regime in 0u8..3,
        static_weight in 0.0f64..1.0,
        k_draw in 0usize..64,
        exclude_regime in 0u8..3,
        exclude_mask in 0u64..u64::MAX,
    ) {
        // Six difficulties on a half-step grid: duplicates are the rule.
        let difficulty_of = |d: u8| 0.75 + 0.5 * f64::from(d);
        let categories: Vec<u32> = items.iter().map(|&(c, _)| c).collect();
        let difficulty: Vec<f64> = items.iter().map(|&(_, d)| difficulty_of(d)).collect();
        let table = table(&categories, &raw_weights);
        let band = build_level_band(&table, &difficulty, band_level, &RecommendConfig {
            lower_slack: slack,
            upper_slack: slack,
            ..RecommendConfig::default()
        }).unwrap();

        let base = match preset {
            0 => PolicyConfig::teach(),
            1 => PolicyConfig::motivate(),
            _ => PolicyConfig::hybrid(),
        };
        let config = PolicyConfig {
            mix: quota(quota_regime, raw_quota),
            static_weight: match static_regime {
                0 => 0.0,
                1 => 1.0,
                _ => static_weight,
            },
            ..base
        };
        prop_assert!(config.validate().is_ok());

        let mut state = PolicyState::new(N_LEVELS, &config).unwrap();
        for &(item, d, correct) in &history {
            state.record(item % items.len() as u32, difficulty_of(d), correct == 1);
        }

        let exclude = |item: ItemId| match exclude_regime {
            0 => false,
            1 => exclude_mask & (1u64 << (item % 64)) != 0,
            _ => true,
        };
        let k = 1 + k_draw % (band.len() + 3);
        let bounded = rerank_band(&band, &state, committed, &exclude, &config, k).unwrap();
        let full = rerank_band_full_sort(&band, &state, committed, &exclude, &config, k).unwrap();
        prop_assert_eq!(&bounded, &full);
        prop_assert!(bounded.len() <= k);
        if exclude_regime == 2 {
            prop_assert!(bounded.is_empty());
        }
    }
}
