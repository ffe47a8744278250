//! Property-based tests for the serving layer: a [`SkillService`] driven
//! single-threaded must be *bit-for-bit* the state of a single-owner
//! [`StreamingSession`] fed the identical traffic — same committed
//! levels, same filtered estimates, same published emission table, same
//! snapshot JSON — for every shard count, refit policy, and auto-tuner
//! setting; and the shard count itself must be unobservable. A
//! multi-threaded drive over disjoint users under a fixed table must
//! land in the same state as any serialized order of the same actions.

use proptest::prelude::*;
use upskill_core::emission::EmissionTable;
use upskill_core::error::CoreError;
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue, PositiveModel};
use upskill_core::parallel::ParallelConfig;
use upskill_core::recommend::RecommendConfig;
use upskill_core::streaming::{RefitPolicy, RefitTuner, StreamingSession};
use upskill_core::train::{train_with_parallelism, TrainConfig, TrainResult, Trainer};
use upskill_core::types::{Action, ActionSequence, Dataset};
use upskill_serve::{PolicyConfig, PolicyMode, PredictMode, ServeConfig, ServeError, SkillService};

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
/// Some suffix actions are rewritten to brand-new user ids so the
/// admission path is exercised too.
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
    // Every third streamed action becomes a new tenant (ids far above
    // the base population), so the service must admit users mid-stream
    // exactly like the session does.
    for (i, a) in suffix.iter_mut().enumerate() {
        if i % 3 == 2 {
            a.user = 1_000 + (i % 5) as u32;
        }
    }
    let prefix_ds = Dataset::new(full.schema().clone(), items, prefixes).unwrap();
    (prefix_ds, suffix)
}

fn trained(prefix_ds: &Dataset, n_levels: usize) -> (TrainConfig, TrainResult) {
    let cfg = TrainConfig::new(n_levels)
        .with_min_init_actions(1)
        .with_max_iterations(8);
    let result = train_with_parallelism(prefix_ds, &cfg, &ParallelConfig::sequential()).unwrap();
    (cfg, result)
}

/// Every emission cell of the service's published table must carry the
/// same bits as a table built fresh from the session's current model.
fn assert_table_bitwise_equal(
    service: &SkillService,
    session: &StreamingSession,
) -> proptest::TestCaseResult {
    let reference = EmissionTable::build(session.model(), &session.snapshot("table").dataset);
    let (_, epoch) = service.current_epoch();
    let table = epoch.table();
    prop_assert_eq!(table.n_levels(), reference.n_levels());
    prop_assert_eq!(table.n_items(), reference.n_items());
    for item in 0..reference.n_items() {
        for s in 1..=reference.n_levels() {
            let (x, y) = (
                table.log_likelihood(item as u32, s as u8),
                reference.log_likelihood(item as u32, s as u8),
            );
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "item {} level {}: service {} vs session {}",
                item,
                s,
                x,
                y
            );
        }
    }
    Ok(())
}

/// Decodes a drawn `(kind, interval)` pair into a refit policy — the
/// vendored proptest stand-in has no `prop_oneof`/`prop_map`.
fn decode_policy(kind: usize, interval: usize) -> RefitPolicy {
    match kind % 3 {
        0 => RefitPolicy::EveryBatch,
        1 => RefitPolicy::EveryNActions(interval),
        _ => RefitPolicy::Manual,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // THE serving contract: identical traffic, identical state. Drive
    // the same interleaved ingest/refit stream through a service (any
    // shard count, any policy, tuner on or off) and a single-owner
    // session; every committed level, both O(1) estimates, the
    // published emission table, and the full snapshot JSON must match
    // bit for bit.
    #[test]
    fn serve_replay_is_bitwise_identical_to_session(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..8),
        users in proptest::collection::vec(
            proptest::collection::vec(0usize..1000, 2..12), 1..5),
        n_levels in 2usize..4,
        n_shards in 1usize..8,
        policy_kind in 0usize..3,
        interval in 1usize..6,
        with_tuner in 0u8..2,
    ) {
        let policy = decode_policy(policy_kind, interval);
        let with_tuner = with_tuner == 1;
        let full = build_dataset(masked_schema(mask), &item_draws, &users);
        let (prefix_ds, suffix) = split(&full);
        let (cfg, result) = trained(&prefix_ds, n_levels);
        let tuner = with_tuner
            .then(|| RefitTuner::new(1, 1, 32).unwrap());

        let service = SkillService::resume(
            prefix_ds.clone(),
            &result,
            cfg,
            ParallelConfig::sequential(),
            ServeConfig { n_shards, policy, tuner, ..ServeConfig::default() },
        ).unwrap();
        let mut session = StreamingSession::resume(
            prefix_ds, &result, cfg, ParallelConfig::sequential(), policy,
        ).unwrap();
        session.set_tuner(tuner);

        for (i, &action) in suffix.iter().enumerate() {
            let expected = session.ingest(action).unwrap();
            let got = service.ingest(action).unwrap();
            prop_assert_eq!(got.level, expected);
            // Interleave explicit refits so Manual policies exercise
            // the epoch swap too.
            if i % 7 == 6 {
                let a = session.refit().unwrap();
                let b = service.refit().unwrap();
                prop_assert_eq!(a, b);
            }
        }

        for seq in session.snapshot("users").dataset.sequences() {
            let u = seq.user;
            let committed = service.predict(u, PredictMode::Committed).unwrap();
            prop_assert_eq!(Some(committed.level), session.committed_level(u));
            let filtered = service.predict(u, PredictMode::Filtered).unwrap();
            prop_assert_eq!(Some(filtered.level), session.filtered_level(u));
        }
        prop_assert_eq!(service.policy(), session.policy());
        assert_table_bitwise_equal(&service, &session)?;
        prop_assert_eq!(
            service.snapshot("parity").unwrap().to_json().unwrap(),
            session.snapshot("parity").to_json().unwrap()
        );
    }

    // The shard count is an implementation detail: the same traffic
    // through 1 shard and through many must produce byte-identical
    // snapshots.
    #[test]
    fn shard_count_is_unobservable(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..6),
        users in proptest::collection::vec(
            proptest::collection::vec(0usize..1000, 2..10), 1..5),
        n_levels in 2usize..4,
        n_shards in 2usize..9,
        policy_kind in 0usize..3,
        interval in 1usize..6,
    ) {
        let policy = decode_policy(policy_kind, interval);
        let full = build_dataset(masked_schema(mask), &item_draws, &users);
        let (prefix_ds, suffix) = split(&full);
        let (cfg, result) = trained(&prefix_ds, n_levels);
        let make = |shards: usize| SkillService::resume(
            prefix_ds.clone(),
            &result,
            cfg,
            ParallelConfig::sequential(),
            ServeConfig { n_shards: shards, policy, ..ServeConfig::default() },
        ).unwrap();
        let single = make(1);
        let many = make(n_shards);
        for &action in &suffix {
            let a = single.ingest(action).unwrap();
            let b = many.ingest(action).unwrap();
            prop_assert_eq!(a.level, b.level);
        }
        prop_assert_eq!(
            single.snapshot("shards").unwrap().to_json().unwrap(),
            many.snapshot("shards").unwrap().to_json().unwrap()
        );
    }

    // Malformed traffic must be rejected with typed errors and leave the
    // service byte-identical to one that never saw it: inject unknown
    // items and backwards timestamps between valid actions and compare
    // against a session fed only the valid stream.
    #[test]
    fn rejected_requests_leave_no_trace(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 2..6),
        users in proptest::collection::vec(
            proptest::collection::vec(0usize..1000, 2..10), 1..4),
        n_levels in 2usize..4,
        policy_kind in 0usize..3,
        interval in 1usize..6,
    ) {
        let policy = decode_policy(policy_kind, interval);
        let full = build_dataset(masked_schema(mask), &item_draws, &users);
        let (prefix_ds, suffix) = split(&full);
        let (cfg, result) = trained(&prefix_ds, n_levels);
        let n_items = prefix_ds.n_items() as u32;
        let service = SkillService::resume(
            prefix_ds.clone(),
            &result,
            cfg,
            ParallelConfig::sequential(),
            ServeConfig { n_shards: 3, policy, ..ServeConfig::default() },
        ).unwrap();
        let mut session = StreamingSession::resume(
            prefix_ds, &result, cfg, ParallelConfig::sequential(), policy,
        ).unwrap();

        for &action in &suffix {
            // Unknown item: rejected before any state is touched, with
            // the same error by the session and the service.
            let bad_item = Action::new(action.time, action.user, n_items + 7);
            let err = session.ingest(bad_item).unwrap_err();
            prop_assert!(matches!(err, CoreError::FeatureIndexOutOfBounds { .. }));
            prop_assert_eq!(service.ingest(bad_item).unwrap_err(), ServeError::Core(err));
            session.ingest(action).unwrap();
            service.ingest(action).unwrap();
            // Backwards time for a user who now surely has history.
            let stale = Action::new(action.time - 1_000, action.user, action.item);
            let err = session.ingest(stale).unwrap_err();
            prop_assert!(matches!(err, CoreError::UnsortedSequence { .. }));
            prop_assert_eq!(service.ingest(stale).unwrap_err(), ServeError::Core(err));
            // Unknown users can't be read.
            prop_assert!(matches!(
                service.predict(9_999_999, PredictMode::Committed),
                Err(ServeError::UnknownUser { user: 9_999_999 })
            ));
        }
        prop_assert_eq!(
            service.snapshot("clean").unwrap().to_json().unwrap(),
            session.snapshot("clean").to_json().unwrap()
        );
    }
}

/// Adaptive-policy traffic is envelope-checked before any state is
/// touched: every malformed `RecommendPolicy`/`RecordOutcome` shape
/// maps to its typed [`ServeError`] — policy disabled, unknown user,
/// mode mismatch, `k = 0`, empty difficulty band, unknown item — and a
/// service that rejected all of them snapshots byte-identically to one
/// that never saw the traffic.
#[test]
fn policy_requests_are_rejected_with_typed_errors() {
    let draws: Vec<ItemDraw> = (0..5)
        .map(|i| (i as u32, 2 + i as u64, 0.4 + i as f64, 1.2 + i as f64))
        .collect();
    let users: Vec<Vec<usize>> = (0..4)
        .map(|u| (0..12).map(|t| u * 17 + t * 5).collect())
        .collect();
    let full = build_dataset(masked_schema(7), &draws, &users);
    let (prefix_ds, _) = split(&full);
    let (cfg, result) = trained(&prefix_ds, 3);
    let n_items = prefix_ds.n_items() as u32;

    let make = |recommend: RecommendConfig, adaptive: Option<PolicyConfig>| {
        SkillService::resume(
            prefix_ds.clone(),
            &result,
            cfg,
            ParallelConfig::sequential(),
            ServeConfig {
                n_shards: 3,
                policy: RefitPolicy::Manual,
                recommend,
                adaptive,
                ..ServeConfig::default()
            },
        )
        .unwrap()
    };
    // A generous band: every item is a candidate at every level.
    let wide = RecommendConfig {
        lower_slack: 10.0,
        upper_slack: 10.0,
        ..RecommendConfig::default()
    };

    // Policy endpoints on a static-only service: PolicyDisabled from
    // both entry points, before any user/item validation.
    let plain = make(wide, None);
    assert_eq!(
        plain.recommend_policy(0, Some(2), PolicyMode::Hybrid),
        Err(ServeError::PolicyDisabled)
    );
    assert_eq!(
        plain.record_outcome(0, 0, false),
        Err(ServeError::PolicyDisabled)
    );

    let adaptive = make(wide, Some(PolicyConfig::hybrid()));
    let clean = adaptive.snapshot("clean").unwrap().to_json().unwrap();

    // Unknown users cannot be re-ranked or scored.
    assert_eq!(
        adaptive.recommend_policy(777_777, Some(2), PolicyMode::Hybrid),
        Err(ServeError::UnknownUser { user: 777_777 })
    );
    assert_eq!(
        adaptive.record_outcome(777_777, 0, true),
        Err(ServeError::UnknownUser { user: 777_777 })
    );
    // The request's mode must match the configured one.
    for requested in [PolicyMode::Teach, PolicyMode::Motivate] {
        assert_eq!(
            adaptive.recommend_policy(0, Some(2), requested),
            Err(ServeError::PolicyModeMismatch {
                requested,
                configured: PolicyMode::Hybrid,
            })
        );
    }
    // A zero-length result list is a parameter error, not an empty Ok.
    assert!(matches!(
        adaptive.recommend_policy(0, Some(0), PolicyMode::Hybrid),
        Err(ServeError::BadRequest { what: "k", .. })
    ));
    // Outcomes name a real catalog item.
    assert!(matches!(
        adaptive.record_outcome(0, n_items + 3, false),
        Err(ServeError::Core(CoreError::FeatureIndexOutOfBounds { .. }))
    ));
    // None of the rejections left a trace.
    assert_eq!(
        adaptive.snapshot("clean").unwrap().to_json().unwrap(),
        clean
    );
    // The well-formed request on the same service succeeds.
    let recs = adaptive
        .recommend_policy(0, Some(2), PolicyMode::Hybrid)
        .unwrap();
    assert!(!recs.is_empty() && recs.len() <= 2);

    // A razor-thin band with no candidates: the adaptive path refuses
    // with the level in hand (the static path returns an empty list —
    // distinguishing "nothing ranked" from "nothing rankable").
    let narrow = make(
        RecommendConfig {
            target_offset: 0.0,
            lower_slack: 0.0,
            upper_slack: 1e-9,
            ..RecommendConfig::default()
        },
        Some(PolicyConfig::hybrid()),
    );
    assert!(matches!(
        narrow.recommend_policy(0, Some(2), PolicyMode::Hybrid),
        Err(ServeError::EmptyBand { .. })
    ));
    assert_eq!(narrow.recommend(0, Some(2)).unwrap(), vec![]);
}

/// Concurrent ingestion over disjoint users under a fixed table (Manual
/// policy) must land in exactly the serialized state: per-user paths
/// depend only on the table epoch, and the statistics deltas commute.
#[test]
fn concurrent_disjoint_ingest_matches_serialized_replay() {
    use std::sync::Arc;

    let draws: Vec<ItemDraw> = (0..6)
        .map(|i| (i as u32, 3 + i as u64, 0.5 + i as f64, 1.5 + i as f64))
        .collect();
    let users: Vec<Vec<usize>> = (0..8)
        .map(|u| (0..10).map(|t| u * 31 + t * 7).collect())
        .collect();
    let full = build_dataset(masked_schema(7), &draws, &users);
    let (prefix_ds, suffix) = split(&full);
    // Keep this test on the base population: admission order of new
    // users is timing-dependent under concurrency, which is exactly
    // what disjoint-user traffic avoids.
    let suffix: Vec<Action> = suffix.into_iter().filter(|a| a.user < 8).collect();
    let (cfg, result) = trained(&prefix_ds, 3);

    let service = Arc::new(
        SkillService::resume(
            prefix_ds.clone(),
            &result,
            cfg,
            ParallelConfig::sequential(),
            ServeConfig {
                n_shards: 4,
                policy: RefitPolicy::Manual,
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    );
    let mut session = StreamingSession::resume(
        prefix_ds,
        &result,
        cfg,
        ParallelConfig::sequential(),
        RefitPolicy::Manual,
    )
    .unwrap();

    // Four threads, users partitioned by id — per-user order preserved,
    // global interleaving arbitrary.
    let handles: Vec<_> = (0..4u32)
        .map(|lane| {
            let service = Arc::clone(&service);
            let mine: Vec<Action> = suffix
                .iter()
                .copied()
                .filter(|a| a.user % 4 == lane)
                .collect();
            std::thread::spawn(move || {
                for action in mine {
                    service.ingest(action).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    session.ingest_batch(&suffix).unwrap();

    let a = service.refit().unwrap();
    let b = session.refit().unwrap();
    assert_eq!(a, b, "refit touched different levels");
    assert_eq!(
        service.snapshot("concurrent").unwrap().to_json().unwrap(),
        session.snapshot("concurrent").to_json().unwrap(),
        "concurrent disjoint ingestion diverged from serialized replay"
    );
}

/// An EM-trained result streams through the one live path: a session
/// and a service resumed from it refit from its hard decode, and the
/// same traffic (new users, tuned refits, explicit refits) leaves them
/// in byte-identical snapshots.
#[test]
fn em_trained_result_streams_identically_through_session_and_service() {
    let draws: Vec<ItemDraw> = (0..6)
        .map(|i| (i as u32, 3 + i as u64, 0.5 + i as f64, 1.5 + i as f64))
        .collect();
    let users: Vec<Vec<usize>> = (0..8)
        .map(|u| (0..12).map(|t| u * 17 + t * 5).collect())
        .collect();
    let full = build_dataset(masked_schema(7), &draws, &users);
    let (prefix_ds, suffix) = split(&full);
    let trainer = Trainer::new(3)
        .with_min_init_actions(1)
        .with_max_iterations(8)
        .em();
    let result = trainer.fit(&prefix_ds).unwrap();
    let (cfg, pc) = (*trainer.config(), ParallelConfig::sequential());
    let policy = RefitPolicy::EveryNActions(2);
    let tuner = Some(RefitTuner::new(1, 1, 16).unwrap());

    let service = SkillService::resume(
        prefix_ds.clone(),
        &result,
        cfg,
        pc,
        ServeConfig {
            n_shards: 3,
            policy,
            tuner,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut session = StreamingSession::resume(prefix_ds, &result, cfg, pc, policy).unwrap();
    session.set_tuner(tuner);
    assert_eq!(
        service.snapshot("em").unwrap().to_json().unwrap(),
        session.snapshot("em").to_json().unwrap(),
        "resumed states differ before any traffic"
    );

    for (i, &action) in suffix.iter().enumerate() {
        assert_eq!(
            service.ingest(action).unwrap().level,
            session.ingest(action).unwrap()
        );
        if i % 5 == 4 {
            assert_eq!(service.refit().unwrap(), session.refit().unwrap());
        }
    }
    assert!(session.total_ingested() > 0);
    assert_eq!(service.policy(), session.policy());
    assert_eq!(
        service.snapshot("em").unwrap().to_json().unwrap(),
        session.snapshot("em").to_json().unwrap(),
        "an EM-trained service diverged from its session"
    );
}

/// A catalog item whose category is out of range, introduced through
/// serde (which bypasses `Dataset::new`), is rejected by the session and
/// by the service at construction, with the same error: both build their
/// catalog through one item check. No action names the item, so nothing
/// but that check reads its category.
#[test]
fn serde_tampered_catalog_is_rejected_at_construction_by_both_owners() {
    let draws: Vec<ItemDraw> = (0..5)
        .map(|i| (i as u32, 2 + i as u64, 0.5 + i as f64, 1.5 + i as f64))
        .collect();
    // Picks are taken modulo 5: every user acts on items 0..4 only.
    let users: Vec<Vec<usize>> = (0..4)
        .map(|u| (0..8).map(|t| u * 35 + (u + t) % 4).collect())
        .collect();
    let full = build_dataset(masked_schema(7), &draws, &users);
    let (prefix_ds, _) = split(&full);
    let (cfg, result) = trained(&prefix_ds, 3);

    // The last item's category becomes 99.
    let json = serde_json::to_string(&prefix_ds).unwrap();
    let key = "\"Categorical\":";
    let at = json.rfind(key).unwrap() + key.len();
    let digits = json[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    assert!(digits > 0, "the last item's category");
    let tampered = format!("{}99{}", &json[..at], &json[at + digits..]);
    let bad: Dataset = serde_json::from_str(&tampered).unwrap();

    let expected = CoreError::CategoryOutOfBounds {
        feature: 0,
        value: 99,
        cardinality: CARDINALITY,
    };
    let session = StreamingSession::resume(
        bad.clone(),
        &result,
        cfg,
        ParallelConfig::sequential(),
        RefitPolicy::Manual,
    );
    assert_eq!(session.unwrap_err(), expected);
    let service = SkillService::resume(
        bad,
        &result,
        cfg,
        ParallelConfig::sequential(),
        ServeConfig::default(),
    );
    assert_eq!(service.unwrap_err(), ServeError::Core(expected));
}
