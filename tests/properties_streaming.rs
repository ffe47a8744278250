//! Property-based tests for the streaming-ingestion subsystem: folding a
//! randomly split suffix of actions into a trained session (under
//! `RefitPolicy::EveryBatch`) must leave the session's model bitwise
//! equal to the closed-form fit of its assignments on the concatenated
//! dataset, for mixed feature schemas and for sequential and parallel
//! execution alike.

use proptest::prelude::*;
use upskill_core::emission::EmissionTable;
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue, PositiveModel};
use upskill_core::incremental::StatsGrid;
use upskill_core::model::SkillModel;
use upskill_core::parallel::ParallelConfig;
use upskill_core::streaming::{RefitPolicy, StreamingSession};
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_core::types::{Action, ActionSequence, Dataset};

/// Raw item feature draws: (category, count, gamma value, lognormal value).
type ItemDraw = (u32, u64, f64, f64);

const CARDINALITY: u32 = 4;

/// Schema variants: categorical always present, the other kinds toggled
/// by `mask` bits (mask 7 = the full mixed schema).
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

fn build_dataset(schema: FeatureSchema, item_draws: &[ItemDraw], users: &[Vec<usize>]) -> Dataset {
    let items: Vec<Vec<FeatureValue>> =
        item_draws.iter().map(|d| item_values(&schema, d)).collect();
    let sequences: Vec<ActionSequence> = users
        .iter()
        .enumerate()
        .map(|(u, picks)| {
            let actions: Vec<Action> = picks
                .iter()
                .enumerate()
                .map(|(t, &raw)| Action::new(t as i64, u as u32, (raw % item_draws.len()) as u32))
                .collect();
            ActionSequence::new(u as u32, actions).unwrap()
        })
        .collect();
    Dataset::new(schema, items, sequences).unwrap()
}

/// Splits each user's sequence in half: the prefixes form the training
/// dataset, the remainders one globally time-ordered streamed batch.
fn split(full: &Dataset) -> (Dataset, Vec<Action>) {
    let items: Vec<_> = (0..full.n_items())
        .map(|i| full.item_features(i as u32).to_vec())
        .collect();
    let mut prefixes = Vec::with_capacity(full.n_users());
    let mut suffix = Vec::new();
    for seq in full.sequences() {
        let cut = seq.actions().len().div_ceil(2);
        prefixes.push(ActionSequence::new(seq.user, seq.actions()[..cut].to_vec()).unwrap());
        suffix.extend_from_slice(&seq.actions()[cut..]);
    }
    // Stable by-time sort keeps each user's internal order.
    suffix.sort_by_key(|a| a.time);
    let prefix_ds = Dataset::new(full.schema().clone(), items, prefixes).unwrap();
    (prefix_ds, suffix)
}

/// Bitwise model equality, observed through the emission log-likelihood
/// of every item × level cell.
fn assert_models_bitwise_equal(
    a: &SkillModel,
    b: &SkillModel,
    ds: &Dataset,
) -> proptest::TestCaseResult {
    let ta = EmissionTable::build(a, ds);
    let tb = EmissionTable::build(b, ds);
    prop_assert_eq!(ta.n_levels(), tb.n_levels());
    for item in 0..ds.n_items() {
        for s in 1..=ta.n_levels() {
            let (x, y) = (
                ta.log_likelihood(item as u32, s as u8),
                tb.log_likelihood(item as u32, s as u8),
            );
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "item {} level {}: {} vs {}",
                item,
                s,
                x,
                y
            );
        }
    }
    Ok(())
}

fn users_strategy(max_users: usize, max_len: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        proptest::collection::vec(0usize..1000, 2..max_len),
        1..max_users,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Under EveryBatch, folding the streamed suffix into a session
    // trained on the prefixes leaves the model bitwise equal to the
    // closed-form fit of the streamed assignments on the full dataset —
    // across schemas, skill counts, and thread counts.
    #[test]
    fn streamed_fold_matches_closed_form_refit(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..8),
        users in users_strategy(5, 12),
        n_levels in 2usize..4,
        threads in 1usize..4,
    ) {
        let full = build_dataset(masked_schema(mask), &item_draws, &users);
        let (prefix_ds, suffix) = split(&full);
        let cfg = TrainConfig::new(n_levels)
            .with_min_init_actions(1)
            .with_max_iterations(8);
        let pc = if threads == 1 {
            ParallelConfig::sequential()
        } else {
            ParallelConfig::all(threads)
        };
        let result = train_with_parallelism(&prefix_ds, &cfg, &pc).unwrap();
        let mut session = StreamingSession::resume(
            prefix_ds, &result, cfg, pc, RefitPolicy::EveryBatch,
        ).unwrap();
        let levels = session.ingest_batch(&suffix).unwrap();

        prop_assert_eq!(levels.len(), suffix.len());
        prop_assert_eq!(session.pending_actions(), 0);
        let grown = session.snapshot("fold");
        prop_assert_eq!(grown.dataset.n_actions(), full.n_actions());
        prop_assert!(grown.assignments.is_monotone());
        prop_assert!(levels.iter().all(|&s| 1 <= s && s as usize <= n_levels));

        let fresh = StatsGrid::build(&grown.dataset, &grown.assignments, n_levels)
            .unwrap()
            .fit_model_incremental(&grown.dataset, cfg.lambda, &ParallelConfig::sequential(), None)
            .unwrap();
        assert_models_bitwise_equal(session.model(), &fresh, &grown.dataset)?;
    }

    // A parallel session must reproduce the sequential session exactly:
    // same committed levels, same assignments, bitwise-equal model.
    #[test]
    fn parallel_session_matches_sequential(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..8),
        users in users_strategy(5, 12),
        n_levels in 2usize..4,
        threads in 2usize..4,
    ) {
        let full = build_dataset(masked_schema(mask), &item_draws, &users);
        let (prefix_ds, suffix) = split(&full);
        let cfg = TrainConfig::new(n_levels)
            .with_min_init_actions(1)
            .with_max_iterations(8);
        let result =
            train_with_parallelism(&prefix_ds, &cfg, &ParallelConfig::sequential()).unwrap();

        let mut seq_session = StreamingSession::resume(
            prefix_ds.clone(),
            &result,
            cfg,
            ParallelConfig::sequential(),
            RefitPolicy::EveryBatch,
        ).unwrap();
        let mut par_session = StreamingSession::resume(
            prefix_ds,
            &result,
            cfg,
            ParallelConfig::all(threads),
            RefitPolicy::EveryBatch,
        ).unwrap();

        let seq_levels = seq_session.ingest_batch(&suffix).unwrap();
        let par_levels = par_session.ingest_batch(&suffix).unwrap();

        prop_assert_eq!(seq_levels, par_levels);
        let grown = seq_session.snapshot("seq");
        prop_assert_eq!(&grown.assignments, &par_session.snapshot("par").assignments);
        assert_models_bitwise_equal(
            seq_session.model(),
            par_session.model(),
            &grown.dataset,
        )?;
    }
}
