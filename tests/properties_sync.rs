//! Deterministic schedule exploration of the serving layer (feature
//! `deterministic-sync`): every explored interleaving of concurrent
//! [`SkillService`] traffic must (a) satisfy the runtime lock-discipline
//! invariants the static `xtask concurrency` pass enforces lexically —
//! shards before global, no lock guard across an epoch publish — and
//! (b) for disjoint-user operations, land bit-for-bit on the state any
//! serialized order produces. Violations carry a `seed=… choices=…`
//! schedule that replays the exact interleaving.
//!
//! The exhaustive two-thread test enumerates the complete interleaving
//! space; the mixed-workload test samples seeded-random schedules, with
//! the budget overridable via `UPSKILL_SYNC_SCHEDULES` (the CI knob for
//! deeper exploration).
#![cfg(feature = "deterministic-sync")]

use std::sync::mpsc;
use std::sync::Arc;

use upskill_core::emission::EmissionTable;
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
use upskill_core::parallel::ParallelConfig;
use upskill_core::recommend::RecommendConfig;
use upskill_core::streaming::RefitPolicy;
use upskill_core::sync::explore::{Explorer, Run};
use upskill_core::sync::{LockId, TracedMutex};
use upskill_core::train::{train, TrainConfig, TrainResult};
use upskill_core::types::{Action, ActionSequence, Dataset};
use upskill_serve::{
    IngestOutcome, PolicyConfig, PolicyMode, PredictMode, ServeConfig, SkillService,
};

/// Small deterministic progression dataset: six users moving from the
/// easy item to the hard one, two skill levels.
fn fixture() -> (Dataset, TrainConfig, TrainResult) {
    let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
    let items = vec![
        vec![FeatureValue::Categorical(0)],
        vec![FeatureValue::Categorical(1)],
    ];
    let sequences: Vec<ActionSequence> = (0..6u32)
        .map(|u| {
            let actions = (0..8)
                .map(|t| Action::new(t, u, u32::from(t >= 4)))
                .collect();
            ActionSequence::new(u, actions).unwrap()
        })
        .collect();
    let dataset = Dataset::new(schema, items, sequences).unwrap();
    let cfg = TrainConfig::new(2).with_min_init_actions(4);
    let result = train(&dataset, &cfg).unwrap();
    (dataset, cfg, result)
}

fn service(
    dataset: &Dataset,
    cfg: TrainConfig,
    result: &TrainResult,
    n_shards: usize,
    policy: RefitPolicy,
) -> Arc<SkillService> {
    Arc::new(
        SkillService::resume(
            dataset.clone(),
            result,
            cfg,
            ParallelConfig::sequential(),
            ServeConfig {
                n_shards,
                policy,
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    )
}

/// An adaptive-policy variant of [`service`]: hybrid policy enabled and
/// a wide difficulty band so policy reads always have candidates.
fn adaptive_service(
    dataset: &Dataset,
    cfg: TrainConfig,
    result: &TrainResult,
    n_shards: usize,
    policy: RefitPolicy,
) -> Arc<SkillService> {
    Arc::new(
        SkillService::resume(
            dataset.clone(),
            result,
            cfg,
            ParallelConfig::sequential(),
            ServeConfig {
                n_shards,
                policy,
                recommend: RecommendConfig {
                    lower_slack: 10.0,
                    upper_slack: 10.0,
                    ..RecommendConfig::default()
                },
                adaptive: Some(PolicyConfig::hybrid()),
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    )
}

/// Two base users whose state lives on different shards, so concurrent
/// per-user traffic contends only where the protocol says it may.
fn distinct_shard_pair(svc: &SkillService, users: &[u32]) -> (u32, u32) {
    for (i, &a) in users.iter().enumerate() {
        for &b in &users[i + 1..] {
            if svc.shard_index(a) != svc.shard_index(b) {
                return (a, b);
            }
        }
    }
    panic!("no distinct-shard user pair among {users:?}");
}

// THE acceptance test: two threads, each one ingest + one committed
// prediction on its own user. Each thread passes 5 schedule points
// (start gate, shard lock, global lock in ingest, global lock in the
// policy check, shard lock in predict), so with distinct shards the
// full interleaving space is C(10,5) = 252 schedules — comfortably
// covering every interleaving of 2 threads with up to 4 critical
// sections each (C(8,4) = 70). Every schedule must end bit-identically
// to the serial reference: same committed levels, same snapshot JSON.
#[test]
fn two_thread_ingest_predict_is_serializable_across_all_interleavings() {
    let (dataset, cfg, result) = fixture();
    let users: Vec<u32> = (0..6).collect();
    let probe = service(&dataset, cfg, &result, 4, RefitPolicy::Manual);
    let (u0, u1) = distinct_shard_pair(&probe, &users);
    let a0 = Action::new(100, u0, 1);
    let a1 = Action::new(100, u1, 0);

    // Serial reference; Manual policy + disjoint users makes the final
    // state order-independent, so one reference covers every schedule.
    let reference = service(&dataset, cfg, &result, 4, RefitPolicy::Manual);
    reference.ingest(a0).unwrap();
    reference.ingest(a1).unwrap();
    let expect0 = reference.predict(u0, PredictMode::Committed).unwrap().level;
    let expect1 = reference.predict(u1, PredictMode::Committed).unwrap().level;
    let expect_json = reference.snapshot("sync").unwrap().to_json().unwrap();

    let exploration = Explorer::exhaustive(4096).explore(|run| {
        let svc = service(&dataset, cfg, &result, 4, RefitPolicy::Manual);
        let (s0, s1) = (Arc::clone(&svc), Arc::clone(&svc));
        run.thread(move || {
            s0.ingest(a0).unwrap();
            let p = s0.predict(u0, PredictMode::Committed).unwrap();
            assert_eq!(p.level, expect0);
        });
        run.thread(move || {
            s1.ingest(a1).unwrap();
            let p = s1.predict(u1, PredictMode::Committed).unwrap();
            assert_eq!(p.level, expect1);
        });
        run.join();
        // Bitwise serialized equivalence, per explored schedule.
        let json = svc.snapshot("sync").unwrap().to_json().unwrap();
        assert_eq!(
            json, expect_json,
            "schedule reached a non-serializable state"
        );
    });

    assert!(
        exploration.exhausted,
        "interleaving tree not fully enumerated"
    );
    assert!(
        exploration.schedules >= 70,
        "expected to cover at least the C(8,4)=70 interleavings, got {}",
        exploration.schedules
    );
    assert!(
        exploration.violations.is_empty(),
        "lock-discipline violations:\n{}",
        exploration
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Each schedule records at least both threads' acquire/release
    // traffic (4 acquisitions + 4 releases + 2 epoch loads per thread).
    assert!(exploration.events >= exploration.schedules * 8);
}

fn inverted_order(run: &mut Run) {
    let global = Arc::new(TracedMutex::new(LockId::Global, 0u64));
    let shard = Arc::new(TracedMutex::new(LockId::Shard(0), 0u64));
    run.thread(move || {
        let g = global.lock();
        let s = shard.lock(); // protocol inversion: shard under global
        drop(s);
        drop(g);
    });
    run.join();
}

// A seeded protocol inversion — the runtime twin of the analyzer's
// `lock-order` rule (the same shape is seeded lexically in
// `crates/xtask/fixtures/bad/crates/serve/src/service.rs`). The harness
// must flag it under the same rule id and hand back a schedule that
// reproduces it exactly.
#[test]
fn inverted_acquisition_is_caught_with_replayable_schedule() {
    let exploration = Explorer::exhaustive(64).explore(inverted_order);
    let v = exploration
        .violations
        .iter()
        .find(|v| v.rule == "lock-order")
        .expect("inverted acquisition not caught");
    // The violation prints its replayable schedule seed.
    let rendered = v.to_string();
    println!("caught: {rendered}");
    assert!(rendered.contains("seed="), "no replay seed in: {rendered}");
    assert!(
        rendered.contains("choices="),
        "no choice trace in: {rendered}"
    );

    let replay = Explorer::exhaustive(1).replay(&v.schedule, inverted_order);
    assert_eq!(replay.schedules, 1);
    assert!(
        replay.violations.iter().any(|r| r.rule == "lock-order"),
        "replayed schedule did not reproduce the violation"
    );
}

// Seeded-random smoke over the full request mix — ingest bursts that
// trigger a refit (cut and install under the global lock, epoch publish
// after it), a pooled-workspace posterior prediction, recommendations,
// and the stop-the-world snapshot — across three threads. CI runs the
// default budget; UPSKILL_SYNC_SCHEDULES=256 (or more) deepens the
// exploration without a code change.
#[test]
fn mixed_workload_random_exploration_is_clean() {
    let (dataset, cfg, result) = fixture();
    let users: Vec<u32> = (0..6).collect();
    let policy = RefitPolicy::EveryNActions(2);
    let probe = service(&dataset, cfg, &result, 3, policy);
    let (u0, u1) = distinct_shard_pair(&probe, &users);
    let budget = Explorer::budget_from_env("UPSKILL_SYNC_SCHEDULES", 24);

    let exploration = Explorer::random(0x5EED_CAFE, budget).explore(|run| {
        let svc = service(&dataset, cfg, &result, 3, policy);
        let (s0, s1, s2) = (Arc::clone(&svc), Arc::clone(&svc), Arc::clone(&svc));
        run.thread(move || {
            s0.ingest(Action::new(100, u0, 1)).unwrap();
            // Second action crosses the EveryNActions(2) threshold: the
            // refit publishes a fresh epoch while holding no lock.
            s0.ingest(Action::new(101, u0, 1)).unwrap();
        });
        run.thread(move || {
            let p = s1.predict(u1, PredictMode::Posterior).unwrap();
            assert!(p.level >= 1);
            let recs = s1.recommend(u1, Some(2)).unwrap();
            assert!(recs.len() <= 2);
        });
        run.thread(move || {
            let bundle = s2.snapshot("mixed").unwrap();
            assert!(!bundle.to_json().unwrap().is_empty());
        });
        run.join();
    });

    assert_eq!(exploration.schedules, budget);
    assert!(
        exploration.violations.is_empty(),
        "lock-discipline violations:\n{}",
        exploration
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(exploration.events > 0);
}

// Adaptive policy reads racing an epoch swap: one thread's ingest burst
// crosses the EveryNActions(2) threshold and publishes a fresh epoch
// while a second thread re-ranks another user's band and a third
// records a failed outcome. A policy read never blocks on the refit, so
// under every explored schedule it must observe exactly one of the two
// epoch states — its output serialized against the swap, byte-equal to
// the pre-refit or post-refit reference — and once the writer joins,
// the service must sit exactly on the post-refit state. The schedules
// budget is the same `UPSKILL_SYNC_SCHEDULES` CI knob as the mixed
// workload above.
#[test]
fn policy_reads_racing_an_epoch_swap_are_serializable() {
    let (dataset, cfg, result) = fixture();
    let users: Vec<u32> = (0..6).collect();
    let policy = RefitPolicy::EveryNActions(2);
    let probe = adaptive_service(&dataset, cfg, &result, 3, policy);
    let (u0, u1) = distinct_shard_pair(&probe, &users);
    let budget = Explorer::budget_from_env("UPSKILL_SYNC_SCHEDULES", 24);

    let ranked_json = |svc: &SkillService| {
        serde_json::to_string(
            &svc.recommend_policy(u1, Some(2), PolicyMode::Hybrid)
                .unwrap(),
        )
        .unwrap()
    };
    // Serial references. `u1` is untouched by the traffic, so its
    // policy ranking depends only on the published epoch: `pre` is the
    // resume-time epoch, `post` the one the writer's second ingest
    // publishes. The recorded outcome lives in `u0`'s policy state and
    // must not leak into `u1`'s ranking.
    let pre = ranked_json(&probe);
    let reference = adaptive_service(&dataset, cfg, &result, 3, policy);
    reference.ingest(Action::new(100, u0, 1)).unwrap();
    reference.ingest(Action::new(101, u0, 1)).unwrap();
    reference.record_outcome(u0, 0, false).unwrap();
    let post = ranked_json(&reference);

    let exploration = Explorer::random(0xCA11_B4CC, budget).explore(|run| {
        let svc = adaptive_service(&dataset, cfg, &result, 3, policy);
        let (s0, s1, s2) = (Arc::clone(&svc), Arc::clone(&svc), Arc::clone(&svc));
        let (pre, post) = (pre.clone(), post.clone());
        run.thread(move || {
            s0.ingest(Action::new(100, u0, 1)).unwrap();
            // Crosses the threshold: refit + epoch publish with no
            // lock held.
            s0.ingest(Action::new(101, u0, 1)).unwrap();
        });
        let post_for_reader = post.clone();
        run.thread(move || {
            let post = post_for_reader;
            let json = serde_json::to_string(
                &s1.recommend_policy(u1, Some(2), PolicyMode::Hybrid)
                    .unwrap(),
            )
            .unwrap();
            assert!(
                json == pre || json == post,
                "policy read saw a state that is neither pre- nor post-refit"
            );
        });
        run.thread(move || {
            // Failure evidence for the *writer's* user: contends on
            // u0's shard and the epoch difficulty, never on u1's rank.
            s2.record_outcome(u0, 0, false).unwrap();
        });
        run.join();
        assert_eq!(
            ranked_json(&svc),
            post,
            "joined state is not the serialized post-refit reference"
        );
    });

    assert_eq!(exploration.schedules, budget);
    assert!(
        exploration.violations.is_empty(),
        "lock-discipline violations:\n{}",
        exploration
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(exploration.events > 0);
}

/// Every serialized order of two writers' ingests (each writer's own
/// order kept): the `C(a + b, a)` interleavings at whole-request
/// granularity.
fn serialized_orders(a: &[Action], b: &[Action]) -> Vec<Vec<Action>> {
    let (Some((&head_a, rest_a)), Some((&head_b, rest_b))) = (a.split_first(), b.split_first())
    else {
        return vec![a.iter().chain(b).copied().collect()];
    };
    let mut out = Vec::new();
    for (head, tails) in [
        (head_a, serialized_orders(rest_a, b)),
        (head_b, serialized_orders(a, rest_b)),
    ] {
        out.extend(
            tails
                .into_iter()
                .map(|tail| std::iter::once(head).chain(tail).collect()),
        );
    }
    out
}

/// A serialized run: each action's `(level, epoch)` answer, and the
/// snapshot at the end.
type Reference = (Vec<(Action, (u8, u64))>, String);

// Refits off the global lock: two writers on distinct shards under
// `EveryNActions(k)`. At k = 2 whichever writer records the second (and
// fourth) action trips a refit; at k = 1 every ingest does, so refits
// overlap and get deferred. A refit cuts the
// statistics under the global lock, fits with no lock held, re-takes
// the lock to install and publishes after dropping it — so the other
// writer's ingests can land between cut and publish, or find the refit
// in flight. Under every explored schedule:
// - the lock discipline holds;
// - epochs never run backwards for a writer, the published epoch count
//   equals `stats().refits`, and the published table is the model's;
// - after join and a final explicit refit, the snapshot resumed through
//   `SessionBundle::resume` fits a model bitwise equal to the service's;
// - a schedule whose every ingest committed at the level and epoch some
//   serialized order gives it (no ingest landed between a cut and its
//   publish) ends byte-identical to that order's snapshot.
#[test]
fn refit_off_the_lock_two_writers_are_serializable_or_catch_up() {
    // One ingest each, every ingest due: small enough to enumerate, and
    // it holds the schedule where the second writer's ingest lands after
    // the first refit's publish but finds it still in flight, so its
    // refit is deferred to the first writer's thread.
    let exhaustive = Explorer::exhaustive(4096);
    let (schedules, matched, exhausted) = explore_two_writers(&exhaustive, 1, 1);
    assert!(exhausted, "interleaving tree not fully enumerated");
    assert!(matched > 0 && schedules > matched);
    // Two ingests each, sampled.
    let budget = Explorer::budget_from_env("UPSKILL_SYNC_SCHEDULES", 24);
    let mut matched = 0;
    for k in [1, 2] {
        let sampled = Explorer::random(0x0FF_10C ^ k as u64, budget);
        let (schedules, serializable, _) = explore_two_writers(&sampled, k, 2);
        assert_eq!(schedules, budget);
        matched += serializable;
    }
    assert!(matched > 0, "no sampled schedule was serializable");
}

/// Explores two writers with `n` ingests each under `EveryNActions(k)`;
/// returns the number of schedules run, how many matched a serialized
/// order, and whether the exploration was exhaustive.
fn explore_two_writers(explorer: &Explorer, k: usize, n: usize) -> (usize, usize, bool) {
    let (dataset, cfg, result) = fixture();
    let users: Vec<u32> = (0..6).collect();
    let policy = RefitPolicy::EveryNActions(k);
    let probe = service(&dataset, cfg, &result, 4, policy);
    let (u0, u1) = distinct_shard_pair(&probe, &users);
    let writers = [
        [Action::new(100, u0, 1), Action::new(101, u0, 1)][..n].to_vec(),
        [Action::new(100, u1, 1), Action::new(101, u1, 0)][..n].to_vec(),
    ];

    let references: Vec<Reference> = serialized_orders(&writers[0], &writers[1])
        .into_iter()
        .map(|order| {
            let svc = service(&dataset, cfg, &result, 4, policy);
            let answers = order
                .iter()
                .map(|&a| {
                    let o = svc.ingest(a).unwrap();
                    (a, (o.level, o.epoch))
                })
                .collect();
            (answers, svc.snapshot("sync").unwrap().to_json().unwrap())
        })
        .collect();

    let mut matched = 0;
    let exploration = explorer.explore(|run| {
        let svc = service(&dataset, cfg, &result, 4, policy);
        let (tx, rx) = mpsc::channel::<(usize, Vec<IngestOutcome>)>();
        for (w, writer) in writers.iter().cloned().enumerate() {
            let (svc, tx) = (Arc::clone(&svc), tx.clone());
            run.thread(move || {
                let outcomes = writer.iter().map(|&a| svc.ingest(a).unwrap()).collect();
                tx.send((w, outcomes)).unwrap();
            });
        }
        drop(tx);
        run.join();
        let mut per_writer: Vec<(usize, Vec<IngestOutcome>)> = rx.iter().collect();
        per_writer.sort_by_key(|(w, _)| *w);
        for (_, outcomes) in &per_writer {
            assert!(
                outcomes.windows(2).all(|p| p[0].epoch <= p[1].epoch),
                "a writer saw epochs run backwards: {outcomes:?}"
            );
        }
        // With nothing in flight, the last publish is the last install:
        // the published table is the current model's.
        let stats = svc.stats();
        let (epoch, published) = svc.current_epoch();
        assert_eq!(epoch, stats.refits);
        let joined = svc.snapshot("sync").unwrap();
        let table = EmissionTable::build(&joined.model, &joined.dataset);
        assert!(
            *published.table() == table,
            "published table is not the model's"
        );

        // No ingest between a cut and its publish: every answer is what
        // some serialized order gives, and so is the whole state.
        let answer_of = |a: Action| {
            let w = usize::from(a.user == u1);
            let i = writers[w].iter().position(|&x| x == a).unwrap();
            let o = &per_writer[w].1[i];
            (o.level, o.epoch)
        };
        let json = joined.to_json().unwrap();
        if let Some((_, expect)) = references
            .iter()
            .find(|(answers, _)| answers.iter().all(|&(a, ans)| answer_of(a) == ans))
        {
            assert_eq!(&json, expect, "serializable schedule diverged");
            matched += 1;
        }

        // Whatever the schedule, a final refit catches the model up with
        // every recorded action: a fresh fit of the snapshot agrees, and
        // so does the published table.
        svc.refit().unwrap();
        let stats = svc.stats();
        assert_eq!(stats.pending_actions, 0);
        let (epoch, published) = svc.current_epoch();
        assert_eq!(epoch, stats.refits);
        let bundle = svc.snapshot("caught up").unwrap();
        let ours = serde_json::to_string(&bundle.model).unwrap();
        let dataset = bundle.dataset.clone();
        let session = bundle.resume().unwrap();
        assert_eq!(serde_json::to_string(session.model()).unwrap(), ours);
        let table = EmissionTable::build(session.model(), &dataset);
        assert!(
            *published.table() == table,
            "published table is not the model's"
        );
    });

    assert!(
        exploration.violations.is_empty(),
        "lock-discipline violations:\n{}",
        exploration
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    (exploration.schedules, matched, exploration.exhausted)
}
