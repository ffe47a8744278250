//! Property-based tests for the out-of-core chunked training subsystem:
//! chunked hard and EM training over a [`DatasetChunks`] stream must be
//! **bitwise identical** to the in-memory sequential trainers across
//! random schemas, skill counts, chunk sizes (including degenerate
//! one-user chunks and a single giant chunk), thread counts, and both
//! assignment storages — and so must in-memory training on any thread
//! count.

use proptest::prelude::*;
use upskill_core::chunked::{
    assign_chunked, train_chunked, train_em_chunked, AssignmentStorage, DatasetChunks,
};
use upskill_core::em::EmConfig;
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue, PositiveModel};
use upskill_core::init::initialize_model;
use upskill_core::parallel::ParallelConfig;
use upskill_core::reference::train_em_full;
use upskill_core::train::{train_with_parallelism, TrainConfig, TrainResult};
use upskill_core::transition::TransitionModel;
use upskill_core::types::{Action, ActionSequence, Dataset};

/// Raw item feature draws: (category, count, gamma value, lognormal value).
type ItemDraw = (u32, u64, f64, f64);

const CARDINALITY: u32 = 4;

/// Schema variants: categorical always present, the other kinds toggled
/// by `mask` bits (same shape as the incremental property suite).
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
        proptest::collection::vec(0usize..1000, 1..max_len),
        1..max_users,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Chunked hard training — every chunk size (one-user chunks, a
    // random mid size, one giant chunk), both assignment storages,
    // sequential and parallel — and in-memory training on the same
    // threads reproduce the in-memory sequential trainer bit for bit:
    // model, objective, trace, and histogram.
    #[test]
    fn chunked_hard_training_matches_in_memory(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 3..8),
        users in users_strategy(6, 14),
        n_levels in 2usize..4,
        mid_chunk in 2usize..7,
        threads in 1usize..4,
    ) {
        let ds = build_dataset(masked_schema(mask), &item_draws, &users);
        let cfg = TrainConfig::new(n_levels)
            .with_min_init_actions(1)
            .with_max_iterations(8);
        let expect =
            train_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
        let expect_hist: Vec<u64> = expect
            .assignments
            .level_histogram(n_levels)
            .iter()
            .map(|&c| c as u64)
            .collect();
        let parallel = ParallelConfig::all(threads);

        let in_memory: TrainResult = train_with_parallelism(&ds, &cfg, &parallel).unwrap();
        prop_assert_eq!(&in_memory.model, &expect.model);
        prop_assert_eq!(&in_memory.assignments, &expect.assignments);
        prop_assert_eq!(in_memory.converged, expect.converged);
        prop_assert_eq!(in_memory.trace.len(), expect.trace.len());
        for (a, b) in in_memory.trace.iter().zip(&expect.trace) {
            prop_assert_eq!(a.n_changed, b.n_changed);
            prop_assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits());
        }

        for chunk_size in [1, mid_chunk, ds.n_users()] {
            let source = DatasetChunks::new(&ds, chunk_size).unwrap();
            for storage in [AssignmentStorage::InMemory, AssignmentStorage::Recompute] {
                let got = train_chunked(&source, &cfg, &parallel, storage).unwrap();
                prop_assert_eq!(&got.model, &expect.model);
                prop_assert!(
                    got.log_likelihood.to_bits() == expect.log_likelihood.to_bits(),
                    "chunk {} {:?}: ll {} vs {}",
                    chunk_size, storage, got.log_likelihood, expect.log_likelihood
                );
                prop_assert_eq!(got.converged, expect.converged);
                prop_assert_eq!(got.trace.len(), expect.trace.len());
                for (a, b) in got.trace.iter().zip(&expect.trace) {
                    prop_assert_eq!(a.iteration, b.iteration);
                    prop_assert_eq!(a.n_changed, b.n_changed);
                    prop_assert_eq!(
                        a.log_likelihood.to_bits(),
                        b.log_likelihood.to_bits()
                    );
                }
                prop_assert_eq!(&got.level_histogram, &expect_hist);
                prop_assert_eq!(got.n_users, ds.n_users());
                prop_assert_eq!(got.n_actions, ds.n_actions());
            }
        }
    }

    // Chunked EM — every chunk size, sequential and parallel waves —
    // reproduces the from-scratch in-memory EM bit for bit: model,
    // evidence trace, and convergence flag.
    #[test]
    fn chunked_em_training_matches_in_memory(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 3..8),
        users in users_strategy(5, 12),
        n_levels in 2usize..4,
        mid_chunk in 2usize..7,
        threads in 1usize..4,
    ) {
        let ds = build_dataset(masked_schema(mask), &item_draws, &users);
        let initial = initialize_model(&ds, n_levels, 1, 0.01).unwrap();
        let transitions = TransitionModel::uninformative(n_levels).unwrap();
        let cfg = EmConfig::new(initial, transitions)
            .with_max_iterations(6)
            .with_tolerance(1e-9);
        // The chunked E-step mirrors the from-scratch (non-incremental)
        // in-memory reference; that is the bitwise baseline.
        let expect = train_em_full(&ds, &cfg).unwrap();
        let parallel = ParallelConfig::all(threads);

        for chunk_size in [1, mid_chunk, ds.n_users()] {
            let source = DatasetChunks::new(&ds, chunk_size).unwrap();
            let got = train_em_chunked(&source, &cfg, &parallel).unwrap();
            prop_assert_eq!(&got.model, &expect.model);
            prop_assert_eq!(got.converged, expect.converged);
            prop_assert_eq!(
                got.evidence_trace.len(),
                expect.evidence_trace.len()
            );
            for (i, (a, b)) in got
                .evidence_trace
                .iter()
                .zip(&expect.evidence_trace)
                .enumerate()
            {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "chunk {}: iteration {} evidence {} vs {}",
                    chunk_size, i, a, b
                );
            }
        }
    }

    // Chunked decode against a trained model reproduces the in-memory
    // per-user assignments and objective exactly.
    #[test]
    fn chunked_decode_matches_in_memory(
        mask in 0u8..8,
        item_draws in proptest::collection::vec(
            (0u32..8, 0u64..20, 0.1f64..10.0, 0.1f64..10.0), 3..8),
        users in users_strategy(6, 14),
        n_levels in 2usize..4,
        chunk_size in 1usize..9,
        threads in 1usize..4,
    ) {
        let ds = build_dataset(masked_schema(mask), &item_draws, &users);
        let cfg = TrainConfig::new(n_levels)
            .with_min_init_actions(1)
            .with_max_iterations(4);
        let expect =
            train_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
        let source = DatasetChunks::new(&ds, chunk_size).unwrap();
        let (assignments, ll) =
            assign_chunked(&source, &expect.model, &ParallelConfig::all(threads)).unwrap();
        prop_assert_eq!(&assignments, &expect.assignments);
        prop_assert_eq!(ll.to_bits(), expect.log_likelihood.to_bits());
    }
}

// The proptest datasets are small enough that one worker usually drains
// the whole user queue before the others start. Here enough users that
// workers really interleave: the objective must still fold in user
// order, so every thread count reproduces the sequential trainer bit for
// bit.
#[test]
fn in_memory_parallel_training_is_bitwise_sequential_under_contention() {
    let item_draws: Vec<ItemDraw> = (0..12u32)
        .map(|i| {
            (
                i,
                u64::from(i % 5) * 3,
                0.5 + f64::from(i),
                9.0 - 0.6 * f64::from(i),
            )
        })
        .collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as usize
    };
    let users: Vec<Vec<usize>> = (0..800)
        .map(|_| {
            let len = 5 + next() % 40;
            (0..len).map(|_| next()).collect()
        })
        .collect();
    let ds = build_dataset(masked_schema(7), &item_draws, &users);
    let cfg = TrainConfig::new(4)
        .with_min_init_actions(1)
        .with_max_iterations(6);
    let expect = train_with_parallelism(&ds, &cfg, &ParallelConfig::sequential()).unwrap();
    for threads in [2, 3, 4] {
        for _ in 0..3 {
            let got = train_with_parallelism(&ds, &cfg, &ParallelConfig::all(threads)).unwrap();
            assert_eq!(got.model, expect.model, "threads={threads}");
            assert_eq!(got.assignments, expect.assignments, "threads={threads}");
            let got_ll: Vec<u64> = got
                .trace
                .iter()
                .map(|s| s.log_likelihood.to_bits())
                .collect();
            let want_ll: Vec<u64> = expect
                .trace
                .iter()
                .map(|s| s.log_likelihood.to_bits())
                .collect();
            assert_eq!(got_ll, want_ll, "threads={threads}");
        }
    }
}
