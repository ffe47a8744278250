//! The item catalog's column store is invisible from outside: a dataset
//! serializes to the same bytes whether or not its columns were built,
//! session bundles keep their JSON, and an invalid value that bypassed
//! `Dataset::new` (a hand-edited file) still fails every fit with the
//! typed error of the row-reading path and scores the same `-inf`.

use upskill_core::chunked::{
    initialize_model_chunked, train_chunked, train_em_chunked, AssignmentStorage, DatasetChunks,
};
use upskill_core::em::EmConfig;
use upskill_core::emission::EmissionTable;
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue, PositiveModel};
use upskill_core::incremental::{MassGrid, StatsGrid};
use upskill_core::model::SkillModel;
use upskill_core::parallel::ParallelConfig;
use upskill_core::reference::{build_scalar, initialize_model_rows};
use upskill_core::streaming::{RefitPolicy, StreamingSession};
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_core::transition::TransitionModel;
use upskill_core::types::{Action, ActionSequence, Dataset, SkillAssignments};
use upskill_core::update::fit_model;
use upskill_serve::{ServeConfig, SkillService};

const S: usize = 3;
const LAMBDA: f64 = 0.01;

fn schema() -> FeatureSchema {
    FeatureSchema::new(vec![
        FeatureKind::Categorical { cardinality: 4 },
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

/// Eight items; six users, each walking the catalog from easy to hard.
fn dataset() -> Dataset {
    let items = (0..8u32)
        .map(|i| {
            vec![
                FeatureValue::Categorical(i % 4),
                FeatureValue::Count(u64::from(i) * 9),
                FeatureValue::Real(0.5 + f64::from(i)),
                FeatureValue::Real(2.0 + f64::from(i) / 4.0),
            ]
        })
        .collect();
    let sequences = (0..6u32)
        .map(|u| {
            let actions = (0..10i64)
                .map(|t| Action::new(t, u, ((t as u32 + u) * 8 / 11) % 8))
                .collect();
            ActionSequence::new(u, actions).unwrap()
        })
        .collect();
    Dataset::new(schema(), items, sequences).unwrap()
}

fn levels(ds: &Dataset) -> SkillAssignments {
    let per_user = ds
        .sequences()
        .iter()
        .map(|seq| {
            (0..seq.len())
                .map(|t| (t * S / seq.len() + 1) as u8)
                .collect()
        })
        .collect();
    SkillAssignments { per_user }
}

/// FNV-1a, to pin JSON without pasting it.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn dataset_json_does_not_depend_on_the_columns() {
    let ds = dataset();
    let cold = serde_json::to_string(&ds).unwrap();
    // Values pinned from the row-only `Dataset` this store replaced.
    assert_eq!(cold.len(), 2532);
    assert_eq!(fnv(&cold), 0xda47_0b81_17ff_6ebc);
    let model = fit_model(&ds, &levels(&ds), S, LAMBDA).unwrap();
    let _ = EmissionTable::build(&model, &ds);
    assert_eq!(serde_json::to_string(&ds).unwrap(), cold);
    let parsed: Dataset = serde_json::from_str(&cold).unwrap();
    assert_eq!(serde_json::to_string(&parsed).unwrap(), cold);
    let _ = EmissionTable::build(&model, &parsed);
    assert_eq!(serde_json::to_string(&parsed).unwrap(), cold);
    let long = ds.subset_users(|s| s.user % 2 == 0).unwrap();
    let rebuilt = Dataset::new(schema(), ds.items().to_vec(), long.sequences().to_vec()).unwrap();
    assert_eq!(
        serde_json::to_string(&long).unwrap(),
        serde_json::to_string(&rebuilt).unwrap()
    );
}

#[test]
fn session_bundle_json_is_unchanged() {
    let ds = dataset();
    let cfg = TrainConfig::new(S)
        .with_min_init_actions(4)
        .with_lambda(LAMBDA)
        .with_max_iterations(5);
    let result = train_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
    let policy = RefitPolicy::EveryNActions(3);
    let service = SkillService::resume(
        ds.clone(),
        &result,
        cfg,
        ParallelConfig::sequential(),
        ServeConfig {
            n_shards: 2,
            policy,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut session =
        StreamingSession::resume(ds, &result, cfg, ParallelConfig::sequential(), policy).unwrap();
    for (t, item) in [(20, 7), (21, 6), (22, 7), (23, 5)] {
        let action = Action::new(t, 1, item);
        session.ingest(action).unwrap();
        service.ingest(action).unwrap();
    }
    let json = service.snapshot("catalog").unwrap().to_json().unwrap();
    assert_eq!(json, session.snapshot("catalog").to_json().unwrap());
    // Pinned from the row-only `Dataset` this store replaced.
    assert_eq!(json.len(), 4500);
    assert_eq!(fnv(&json), 0xed91_6061_8ddb_5bf0);
    let back = upskill_core::bundle::SessionBundle::from_json(&json).unwrap();
    assert_eq!(back.to_json().unwrap(), json);
}

/// `ds` with item 1's feature `f` replaced in its JSON, bypassing
/// `Dataset::new`.
fn corrupted(ds: &Dataset, f: usize, value: FeatureValue) -> Dataset {
    let mut tree = serde_json::to_value(ds).unwrap();
    let serde_json::Value::Object(fields) = &mut tree else {
        panic!("dataset is an object")
    };
    let (_, items) = fields.iter_mut().find(|(k, _)| k == "items").unwrap();
    let serde_json::Value::Array(rows) = items else {
        panic!("items is an array")
    };
    let serde_json::Value::Array(row) = &mut rows[1] else {
        panic!("an item is an array")
    };
    row[f] = serde_json::to_value(&value).unwrap();
    serde_json::from_value(&tree).unwrap()
}

/// Every fit path's outcome on `bad`, as text.
fn fit_outcomes(bad: &Dataset, initial: &SkillModel, with_table: bool) -> Vec<String> {
    let hard = levels(bad);
    let mut grid = StatsGrid::build(bad, &hard, S).unwrap();
    let mut soft = MassGrid::new(S, bad.n_items()).unwrap();
    for action in bad.actions() {
        soft.add(action.item, &[0.5, 0.25, 0.25]).unwrap();
    }
    let chunks = DatasetChunks::new(bad, 4).unwrap();
    let seq = ParallelConfig::sequential();
    // The trainer initializes on its two workers; its error is the
    // one-worker initializer's, the first in (chunk, user, action,
    // feature) order.
    let cfg = TrainConfig::new(S)
        .with_min_init_actions(4)
        .with_lambda(LAMBDA);
    for chunk_size in [1, 4] {
        let chunks = DatasetChunks::new(bad, chunk_size).unwrap();
        let one = initialize_model_chunked(&chunks, S, 4, LAMBDA).err();
        let storage = AssignmentStorage::default();
        let two = train_chunked(&chunks, &cfg, &ParallelConfig::all(2), storage).err();
        assert!(two.is_some(), "chunk size {chunk_size}");
        assert_eq!(two, one, "chunk size {chunk_size}");
    }
    let mut out = vec![
        format!(
            "{:?}",
            grid.fit_model_incremental(bad, LAMBDA, &seq, None).err()
        ),
        format!("{:?}", fit_model(bad, &hard, S, LAMBDA).err()),
        format!(
            "{:?}",
            initialize_model_chunked(&chunks, S, 4, LAMBDA).err()
        ),
        format!("{:?}", initialize_model_rows(bad, S, 4, LAMBDA).err()),
        format!("{:?}", soft.fit_model(bad, LAMBDA, &seq).err()),
    ];
    if with_table {
        let transitions = TransitionModel::new(vec![0.8; S], vec![1.0 / S as f64; S]).unwrap();
        let config = EmConfig::new(initial.clone(), transitions).with_max_iterations(2);
        out.push(format!(
            "{:?}",
            train_em_chunked(&chunks, &config, &seq).err()
        ));
    }
    out
}

fn assert_same_cells(model: &SkillModel, bad: &Dataset) {
    let scalar = build_scalar(model, bad);
    let mut refreshed = build_scalar(model, bad);
    refreshed.refresh_levels(model, bad, &[true; S]).unwrap();
    for table in [
        EmissionTable::build(model, bad),
        EmissionTable::build_parallel(model, bad, 2).unwrap(),
        refreshed,
    ] {
        for item in 0..bad.n_items() as u32 {
            let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(table.row(item)), bits(scalar.row(item)), "item {item}");
        }
    }
    assert!(scalar.row(1).iter().all(|&v| v == f64::NEG_INFINITY));
}

#[test]
fn invalid_values_fail_every_fit_as_the_row_path_does() {
    let ds = dataset();
    let initial = fit_model(&ds, &levels(&ds), S, LAMBDA).unwrap();
    let cases = [
        (2, FeatureValue::Real(-2.0)),
        (0, FeatureValue::Categorical(7)),
        (1, FeatureValue::Real(3.0)),
    ];
    let mut got = Vec::new();
    for (f, value) in cases {
        let bad = corrupted(&ds, f, value);
        // The kind mismatch is loud wherever a table scores it while
        // the invariant layer is on; the fits report it typed.
        let loud = matches!(value, FeatureValue::Real(_)) && f == 1;
        let scored = !(loud && upskill_core::invariants::ENABLED);
        got.push(fit_outcomes(&bad, &initial, scored));
        if scored {
            assert_same_cells(&initial, &bad);
        } else {
            let build = || EmissionTable::build(&initial, &bad);
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).is_err());
        }
    }
    // The errors the row-reading path returned before the column store.
    let gamma = "Some(InvalidProbability { context: \"gamma sample\", value: -2.0 })";
    let category =
        "Some(CategoryOutOfBounds { feature: 18446744073709551615, value: 7, cardinality: 4 })";
    let kind = "Some(FeatureKindMismatch { feature: 18446744073709551615, \
                expected: \"count\", got: \"positive real\" })";
    let init_gamma = "Some(InvalidFeatureValue { feature: 2, value: -2.0, \
                      reason: \"positive real features must be finite and > 0\" })";
    let init_category = "Some(CategoryOutOfBounds { feature: 0, value: 7, cardinality: 4 })";
    let init_kind =
        "Some(FeatureKindMismatch { feature: 1, expected: \"count\", got: \"positive real\" })";
    // The corrupted item scores `-inf` at every level, so no path
    // through it has mass.
    let em = "Some(DegenerateFit { distribution: \"forward-backward\", \
              reason: \"zero total probability; enable smoothing\" })";
    // The soft fit pushes mass through the hard fits' accumulator, so it
    // returns their errors too.
    assert_eq!(got[0], [gamma, gamma, gamma, init_gamma, gamma, em]);
    assert_eq!(
        got[1],
        [category, category, category, init_category, category, em]
    );
    let mut want_kind = vec![kind, kind, kind, init_kind, kind];
    if !upskill_core::invariants::ENABLED {
        want_kind.push(em);
    }
    assert_eq!(got[2], want_kind);
}
