//! Property-based tests for the runtime invariant layer: hand-corrupted
//! state — non-monotone assignment paths and serde-tampered model
//! parameters that poison the emission table — must be rejected at the
//! public entry points when invariant checks are compiled in (debug
//! builds and the `strict-invariants` feature).
//!
//! JSON cannot express NaN, so the poison route goes through a legal
//! serde bypass: a gamma cell's `scale` replaced with `-0.0`, which
//! turns `-x / scale` into `+inf` for every positive observation. `+inf`
//! emissions are exactly what [`InvariantCtx::check_emission_table`]
//! exists to catch before a DP consumes them.

use proptest::prelude::*;
use upskill_core::em::{train_em_with_parallelism, EmConfig};
use upskill_core::emission::EmissionTable;
use upskill_core::error::CoreError;
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue, PositiveModel};
use upskill_core::invariants::InvariantCtx;
use upskill_core::parallel::ParallelConfig;
use upskill_core::streaming::{RefitPolicy, StreamingSession};
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_core::transition::TransitionModel;
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

fn users_strategy(max_users: usize, max_len: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        proptest::collection::vec(0usize..1000, 2..max_len),
        1..max_users,
    )
}

/// Replaces every serialized `"scale":<number>` with `"scale":-0.0`.
///
/// `-0.0` is representable in JSON (NaN is not) but still poisons the
/// gamma density: `-x / -0.0` is `+inf` for every `x > 0`.
fn tamper_scale(json: &str) -> String {
    const KEY: &str = "\"scale\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(KEY) {
        let value_start = at + KEY.len();
        let tail = &rest[value_start..];
        let value_len = tail
            .find(|c: char| !matches!(c, '0'..='9' | '+' | '-' | '.' | 'e' | 'E'))
            .unwrap_or(tail.len());
        out.push_str(&rest[..value_start]);
        out.push_str("-0.0");
        rest = &tail[value_len..];
    }
    out.push_str(rest);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Corrupting a trained session's assignments so one user's committed
    // path decreases must be caught both by the invariant check itself
    // and by `StreamingSession::new`, which refuses to seed from a
    // non-monotone path and names the user it found it in.
    #[test]
    fn corrupted_non_monotone_session_is_rejected(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..8),
        users in users_strategy(4, 10),
        n_levels in 2usize..4,
    ) {
        let ds = build_dataset(masked_schema(mask), &item_draws, &users);
        let cfg = TrainConfig::new(n_levels)
            .with_min_init_actions(1)
            .with_max_iterations(6);
        let pc = ParallelConfig::sequential();
        let result = train_with_parallelism(&ds, &cfg, &pc).unwrap();

        let mut corrupted = result.assignments.clone();
        let seq = &mut corrupted.per_user[0];
        prop_assume!(seq.len() >= 2);
        seq[0] = n_levels as u8;
        let last = seq.len() - 1;
        seq[last] = 1;
        prop_assert!(!corrupted.is_monotone());

        if upskill_core::invariants::ENABLED {
            let err = InvariantCtx::new()
                .check_monotone("test-corruption", &corrupted)
                .unwrap_err();
            prop_assert!(
                matches!(err, CoreError::InvariantViolation { .. }),
                "expected InvariantViolation, got {err:?}"
            );
        }

        let rejected = StreamingSession::new(
            ds,
            corrupted,
            cfg,
            pc,
            RefitPolicy::EveryBatch,
        );
        prop_assert!(
            matches!(rejected, Err(CoreError::InvalidLevelPath { user: 0, .. })),
            "non-monotone seed must be rejected at user 0, got {:?}",
            rejected.err()
        );
    }

    // A model whose gamma `scale` was tampered through the serde bypass
    // fills the emission table with `+inf`; both the direct table check
    // and the EM entry point (which builds a table from the caller's
    // initial model before iterating) must reject it.
    #[test]
    fn serde_tampered_model_poisons_table_and_is_rejected(
        mask in 0u8..4,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..6),
        users in users_strategy(4, 8),
        n_levels in 2usize..4,
    ) {
        // Force a gamma column so `"scale"` exists in the serialized form.
        let ds = build_dataset(masked_schema(mask | 2), &item_draws, &users);
        let cfg = TrainConfig::new(n_levels)
            .with_min_init_actions(1)
            .with_max_iterations(4);
        let pc = ParallelConfig::sequential();
        let result = train_with_parallelism(&ds, &cfg, &pc).unwrap();

        let json = serde_json::to_string(&result.model).unwrap();
        let tampered = tamper_scale(&json);
        prop_assert!(tampered.contains("\"scale\":-0.0"), "tamper must hit a gamma cell");
        let bad: upskill_core::model::SkillModel = serde_json::from_str(&tampered).unwrap();

        let table = EmissionTable::build(&bad, &ds);
        let direct = InvariantCtx::new().check_emission_table(&table);
        let em_cfg = EmConfig::new(bad, TransitionModel::uninformative(n_levels).unwrap())
            .with_max_iterations(2);
        let em = train_em_with_parallelism(&ds, &em_cfg, &pc);

        if upskill_core::invariants::ENABLED {
            prop_assert!(
                matches!(direct, Err(CoreError::InvariantViolation { .. })),
                "poisoned table must fail the direct check, got {direct:?}"
            );
            prop_assert!(em.is_err(), "EM from a poisoned initial model must be rejected");
        }
    }
}

/// Deterministic serde-bypass check: a dataset whose JSON was edited to
/// hold a negative `Real` feature deserializes fine (derive `Deserialize`
/// skips the constructor) but fails [`Dataset::validate`].
#[test]
fn dataset_validate_rejects_json_tampered_real_feature() {
    let schema = FeatureSchema::new(vec![
        FeatureKind::Categorical { cardinality: 2 },
        FeatureKind::Positive {
            model: PositiveModel::Gamma,
        },
    ])
    .unwrap();
    let items = vec![
        vec![FeatureValue::Categorical(0), FeatureValue::Real(1.5)],
        vec![FeatureValue::Categorical(1), FeatureValue::Real(2.5)],
    ];
    let sequences =
        vec![ActionSequence::new(0, vec![Action::new(0, 0, 0), Action::new(1, 0, 1)]).unwrap()];
    let ds = Dataset::new(schema, items, sequences).unwrap();
    assert!(ds.validate().is_ok());

    let json = serde_json::to_string(&ds).unwrap();
    let tampered = json.replace("{\"Real\":1.5}", "{\"Real\":-1.5}");
    assert_ne!(json, tampered, "tamper must rewrite the serialized feature");
    let bad: Dataset = serde_json::from_str(&tampered).unwrap();

    let err = bad.validate().unwrap_err();
    assert!(
        matches!(err, CoreError::InvalidFeatureValue { .. }),
        "expected InvalidFeatureValue, got {err:?}"
    );
}
