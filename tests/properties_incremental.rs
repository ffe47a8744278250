//! Property-based tests for the incremental training subsystem: a
//! randomly churned [`StatsGrid`] must stay cell-for-cell equal to a
//! from-scratch accumulation, and incremental vs. full training — hard
//! (Viterbi) *and* soft (the responsibility-mass EM loop) — must produce
//! identical results across random schemas, skill counts, and thread
//! counts.

use proptest::prelude::*;
use upskill_core::dist::special::digamma;
use upskill_core::dist::{Categorical, FeatureDistribution};
use upskill_core::em::{train_em_with_parallelism, EmConfig};
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue, PositiveModel};
use upskill_core::incremental::{MassGrid, StatsGrid};
use upskill_core::init::initialize_model;
use upskill_core::model::SkillModel;
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
const LAMBDA: f64 = 0.01;

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

/// Cell-by-cell fit comparison: exact for the integer-statistic families
/// (categorical, Poisson), a tight tolerance on the continuous ones (the
/// grid replay is item-ordered, the scan action-ordered, so their moment
/// sums differ by ulps only).
///
/// A gamma cell is compared through the two statistics its fit reads: the
/// mean `k·θ`, and the log-moment gap `ln m − mean(ln x)` that the shape
/// solves `ln k − ψ(k) = gap` for. The shape itself is ill-conditioned
/// for near-constant samples (the gap cancels to about `1/(2k)`, so one
/// ulp of `ln m` moves `k` by a relative `~k·ε`), and comparing it
/// directly at `1e-10` fails on such cells.
fn assert_fits_match(
    replayed: &SkillModel,
    scanned: &SkillModel,
    n_levels: usize,
) -> proptest::TestCaseResult {
    for s in 1..=n_levels as u8 {
        for f in 0..replayed.n_features() {
            let log_gap = |k: f64| k.ln() - digamma(k);
            let close = |a: f64, b: f64| {
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() <= 1e-10 * scale
            };
            match (replayed.cell(s, f).unwrap(), scanned.cell(s, f).unwrap()) {
                (FeatureDistribution::Categorical(r), FeatureDistribution::Categorical(c)) => {
                    prop_assert_eq!(r.probs(), c.probs())
                }
                (FeatureDistribution::Poisson(r), FeatureDistribution::Poisson(c)) => {
                    prop_assert_eq!(r.rate().to_bits(), c.rate().to_bits())
                }
                (FeatureDistribution::Gamma(r), FeatureDistribution::Gamma(c)) => prop_assert!(
                    close(r.mean(), c.mean()) && close(log_gap(r.shape()), log_gap(c.shape())),
                    "gamma mismatch: {:?} vs {:?}",
                    r,
                    c
                ),
                (FeatureDistribution::LogNormal(r), FeatureDistribution::LogNormal(c)) => {
                    prop_assert!(
                        close(r.mu(), c.mu()) && close(r.sigma(), c.sigma()),
                        "log-normal mismatch: {:?} vs {:?}",
                        r,
                        c
                    )
                }
                _ => prop_assert!(false, "cell families diverged"),
            }
        }
    }
    Ok(())
}

/// Bit-exact model fingerprint: `{:?}` prints every `f64` in its
/// shortest round-trip form, so equal strings mean equal bits.
fn bits(model: &SkillModel) -> String {
    format!("{model:?}")
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
    // the from-scratch build at every step, its fitted cells match
    // `update::fit_model` cell by cell, the parallel delta path matches
    // the sequential one exactly for any thread count, and the
    // dirty-level refit under every update-step split equals a
    // sequential full fit of a fresh build bit for bit.
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
        let sequential = ParallelConfig::sequential();
        let mut model = grid.fit_model_incremental(&ds, LAMBDA, &sequential, None).unwrap();
        let mut configs = vec![
            sequential,
            sequential.with_skills(true).with_threads(3),
            sequential.with_features(true).with_threads(3),
        ];
        configs.extend((2..=5).map(ParallelConfig::all));

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
                    .apply_delta_with_config(&ds, &current, &next, &ParallelConfig::all(threads))
                    .unwrap();
                prop_assert_eq!(changed, expected_changed);
                let mut seq = grid.clone();
                seq.apply_delta(&ds, &current, &next).unwrap();
                prop_assert_eq!(&par, &seq);
            }

            let changed = grid.apply_delta(&ds, &current, &next).unwrap();
            prop_assert_eq!(changed, expected_changed);
            let mut fresh = StatsGrid::build(&ds, &next, n_levels).unwrap();
            prop_assert_eq!(&grid, &fresh);
            grid.cross_check(&ds, &next).unwrap();

            let expect = fresh.fit_model_incremental(&ds, LAMBDA, &sequential, None).unwrap();
            for cfg in &configs {
                let refit = grid
                    .clone()
                    .fit_model_incremental(&ds, LAMBDA, cfg, Some(&model))
                    .unwrap();
                prop_assert!(bits(&refit) == bits(&expect), "refit diverged under {:?}", cfg);
            }
            model = grid.fit_model_incremental(&ds, LAMBDA, &sequential, Some(&model)).unwrap();
            let scanned = upskill_core::update::fit_model(&ds, &next, n_levels, LAMBDA).unwrap();
            assert_fits_match(&model, &scanned, n_levels)?;
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

    // The EM loop and the from-scratch reference EM agree across random
    // schemas, skill counts, and thread counts:
    //
    // - The first iteration's evidence is **bitwise** equal — both paths
    //   run forward–backward against the identical initial table, so any
    //   deviation here is an E-step bug, not floating-point drift.
    // - Later iterations differ only by M-step summation order (an
    //   item's mass is summed before it meets the feature values, where
    //   the reference pushes action by action), normally ulps. On
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
        let cfg = EmConfig::new(initial, transitions)
            .with_max_iterations(10)
            .with_tolerance(1e-9);
        let incremental = train_em_with_parallelism(&ds, &cfg, &ParallelConfig::all(threads)).unwrap();
        let full = train_em_full(&ds, &cfg).unwrap();

        prop_assert_eq!(incremental.converged, full.converged);
        prop_assert_eq!(
            incremental.evidence_trace.len(),
            full.evidence_trace.len()
        );
        prop_assert!(
            incremental.evidence_trace[0].to_bits() == full.evidence_trace[0].to_bits(),
            "first-iteration evidence not bitwise: {} vs {}",
            incremental.evidence_trace[0], full.evidence_trace[0]
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
                "iteration {} evidence {} vs {}",
                i, a, b
            );
        }
        let (a, b) = (
            incremental.evidence_trace[incremental.evidence_trace.len() - 1],
            full.evidence_trace[full.evidence_trace.len() - 1],
        );
        let scale = a.abs().max(b.abs()).max(1.0);
        prop_assert!(
            (a - b).abs() <= 1e-9 * scale,
            "final evidence {} vs {}", a, b
        );
        for item in 0..ds.n_items() as u32 {
            let features = ds.item_features(item);
            for s in 1..=n_levels as u8 {
                let a = incremental.model.item_log_likelihood(features, s);
                let b = full.model.item_log_likelihood(features, s);
                let scale = a.abs().max(b.abs()).max(1.0);
                prop_assert!(
                    (a - b).abs() <= 1e-9 * scale,
                    "item {} level {}: {} vs {}",
                    item, s, a, b
                );
            }
        }
    }
}

// --- In-place refit ----------------------------------------------------
//
// The trainers refit their one model in place: every refit cell writes
// into the buffers it already holds, and an item-ID column fits straight
// from the grid row. Whatever the buffers held before — another grid's
// fit, another catalog's, or nothing — the refit model must be bitwise
// the fresh fit, and its ID cells the closed form of Eq. 6.

/// How the categorical column of [`id_dataset`] numbers the items.
#[derive(Debug, Clone, Copy)]
enum IdColumn {
    /// Item `i` is category `i` of `n_items`: the item-ID column.
    Identity,
    /// Item `i` is category `n_items − 1 − i`.
    Reversed,
    /// The identity, in a catalog whose item `n_items / 2` lost its
    /// other features (a hand-edited file): a poisoned catalog.
    Poisoned,
    /// Item `i` is category `i` of `n_items + 2`.
    Wider,
}

/// The smoothing constants of the in-place properties: none, the
/// default and heavy.
const LAMBDAS: [f64; 3] = [0.0, 0.01, 1.0];

const ID_COLUMNS: [IdColumn; 4] = [
    IdColumn::Identity,
    IdColumn::Reversed,
    IdColumn::Poisoned,
    IdColumn::Wider,
];

/// `n_items` items of (categorical per `column`, count, gamma), one user
/// walking them.
fn id_dataset(n_items: usize, column: IdColumn) -> Dataset {
    let cardinality = match column {
        IdColumn::Wider => n_items + 2,
        _ => n_items,
    };
    let schema = FeatureSchema::new(vec![
        FeatureKind::Categorical {
            cardinality: cardinality as u32,
        },
        FeatureKind::Count,
        FeatureKind::Positive {
            model: PositiveModel::Gamma,
        },
    ])
    .unwrap();
    let items = (0..n_items)
        .map(|i| {
            let category = match column {
                IdColumn::Reversed => n_items - 1 - i,
                _ => i,
            };
            vec![
                FeatureValue::Categorical(category as u32),
                FeatureValue::Count((i as u64 * 7) % 5),
                FeatureValue::Real(0.5 + i as f64 * 0.75),
            ]
        })
        .collect();
    let walk = (0..n_items)
        .map(|i| Action::new(i as i64, 0, i as u32))
        .collect();
    let ds = Dataset::new(schema, items, vec![ActionSequence::new(0, walk).unwrap()]).unwrap();
    match column {
        IdColumn::Poisoned => truncated(&ds, n_items / 2),
        _ => ds,
    }
}

/// `ds` with item `item`'s row cut to its first feature in the JSON,
/// bypassing `Dataset::new`.
fn truncated(ds: &Dataset, item: usize) -> Dataset {
    let mut tree = serde_json::to_value(ds).unwrap();
    let serde_json::Value::Object(fields) = &mut tree else {
        panic!("dataset is an object")
    };
    let (_, items) = fields.iter_mut().find(|(k, _)| k == "items").unwrap();
    let serde_json::Value::Array(rows) = items else {
        panic!("items is an array")
    };
    let serde_json::Value::Array(row) = &mut rows[item] else {
        panic!("an item is an array")
    };
    row.truncate(1);
    serde_json::from_value(&tree).unwrap()
}

/// Every split shape of the update step: sequential, skills-only,
/// features-only and both, over several thread counts.
fn update_configs() -> Vec<ParallelConfig> {
    let mut configs = vec![ParallelConfig::sequential()];
    for (skills, features) in [(true, false), (false, true), (true, true)] {
        for threads in [2, 3, 6] {
            configs.push(
                ParallelConfig::sequential()
                    .with_skills(skills)
                    .with_features(features)
                    .with_threads(threads),
            );
        }
    }
    configs
}

/// A fit's outcome as text: the model's bits, or the error.
fn outcome(fit: Result<&SkillModel, &upskill_core::error::CoreError>) -> String {
    match fit {
        Ok(model) => bits(model),
        Err(e) => format!("{e:?}"),
    }
}

/// (item pick, level pick, count): `count` actions of one item at one
/// level.
type CountDraw = (usize, usize, u64);

/// A count grid of `draws`, plus `big`'s counts scaled by 2⁵⁰ (so cells
/// reach 7·2⁵⁰, just under 2⁵³, and level totals pass it). Every level
/// is dirty.
fn count_grid(
    n_levels: usize,
    n_items: usize,
    draws: &[CountDraw],
    big: &[CountDraw],
) -> StatsGrid {
    let mut grid = StatsGrid::new(n_levels, n_items).unwrap();
    add_counts(&mut grid, big);
    for _ in 0..50 {
        let copy = grid.clone();
        grid.merge(&copy).unwrap();
    }
    add_counts(&mut grid, draws);
    grid
}

/// Adds `draws`' actions to `grid`, marking their levels dirty.
fn add_counts(grid: &mut StatsGrid, draws: &[CountDraw]) {
    let (n_levels, n_items) = (grid.n_levels(), grid.n_items());
    for &(item, level, count) in draws {
        for _ in 0..count {
            let level = (level % n_levels + 1) as u8;
            grid.add_action((item % n_items) as u32, level).unwrap();
        }
    }
}

/// Models whose buffers a refit must not read: a fit of another grid
/// over the same catalog (same buffer lengths, stale values), a fit
/// over a larger catalog (other lengths) and a model with one more
/// level (another shape, replaced).
fn stale_models(n_levels: usize, n_items: usize, column: IdColumn) -> Vec<SkillModel> {
    let seq = ParallelConfig::sequential();
    let mut out = Vec::new();
    for (levels, items) in [
        (n_levels, n_items),
        (n_levels, n_items + 3),
        (n_levels + 1, n_items),
    ] {
        let ds = id_dataset(items, column);
        let draws: Vec<CountDraw> = (0..items)
            .map(|i| (i * 5 + 1, i, 1 + i as u64 % 3))
            .collect();
        let mut grid = count_grid(levels, items, &draws, &[]);
        out.push(grid.fit_model_incremental(&ds, 0.5, &seq, None).unwrap());
    }
    out
}

/// Checks the ID column's cell at every level of `model` against the
/// closed form of Eq. 6 over `row(s)`: `(λ + c) / (λ·K + total)` and its
/// `ln` per category, summed in category order — the uniform fallback
/// for a level with no count — and against `Categorical::fit_from_counts`.
fn assert_id_cells(
    model: &SkillModel,
    lambda: f64,
    row: impl Fn(usize) -> Vec<f64>,
) -> proptest::TestCaseResult {
    for s in 0..model.n_levels() {
        let FeatureDistribution::Categorical(cell) = model.cell(s as u8 + 1, 0).unwrap() else {
            panic!("the ID cell is categorical")
        };
        let counts = row(s);
        let total = counts.iter().fold(0.0, |t, &c| t + c);
        let k = counts.len() as f64;
        let (lambda, denom) = match total > 0.0 {
            true => (lambda, lambda * k + total),
            false => (1.0, k),
        };
        for (c, &count) in counts.iter().enumerate() {
            let p = (lambda + count) / denom;
            let got = (
                cell.prob(c as u32).to_bits(),
                cell.log_prob(c as u32).to_bits(),
            );
            prop_assert!(
                got == (p.to_bits(), p.ln().to_bits()),
                "level {} category {}",
                s,
                c
            );
        }
        if total > 0.0 {
            let oracle = Categorical::fit_from_counts(&counts, lambda).unwrap();
            prop_assert!(&oracle == cell, "level {}: fit_from_counts differs", s);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The in-place refit of a count grid (`StatsGrid::refit`) equals a
    // fresh `fit_model_incremental(.., None)` bit for bit, whatever the
    // model's buffers held, under every update-step split, for every
    // shape of ID column, for λ ∈ {0, 0.01, 1} and counts across the memo
    // bound and near 2⁵³. So does a dirty-level refit after a churn. An
    // item-ID column's cells are Eq. 6's closed form.
    #[test]
    fn in_place_refit_is_bitwise_a_fresh_fit(
        n_items in 2usize..24,
        n_levels in 2usize..5,
        column in 0usize..4,
        lambda in 0usize..3,
        draws in proptest::collection::vec((0usize..1000, 0usize..8, 1u64..100), 0..30),
        big in proptest::collection::vec((0usize..1000, 0usize..8, 1u64..8), 0..4),
        churn in proptest::collection::vec((0usize..1000, 0usize..8, 1u64..3), 1..5),
    ) {
        let (column, lambda) = (ID_COLUMNS[column], LAMBDAS[lambda]);
        let ds = id_dataset(n_items, column);
        let seq = ParallelConfig::sequential();
        let grid = count_grid(n_levels, n_items, &draws, &big);
        let want = grid.clone().fit_model_incremental(&ds, lambda, &seq, None);
        if let (Ok(model), IdColumn::Identity | IdColumn::Poisoned) = (&want, column) {
            let row = |s: usize| (0..n_items).map(|i| grid.count(s, i) as f64).collect();
            assert_id_cells(model, lambda, row)?;
        }
        let want = outcome(want.as_ref());
        let mut churned = grid.clone();
        add_counts(&mut churned, &churn);
        let want_churned = churned.clone().fit_model_incremental(&ds, lambda, &seq, None);
        let want_churned = outcome(want_churned.as_ref());
        for cfg in update_configs() {
            for mut model in stale_models(n_levels, n_items, column) {
                let mut g = grid.clone();
                let got = outcome(g.refit(&ds, lambda, &cfg, &mut model).map(|()| &model).as_ref().copied());
                prop_assert!(got == want, "{:?} {:?}: {} vs {}", column, cfg, got, want);
                if g.dirty_levels().iter().any(|&d| d) {
                    continue; // the fit failed, as the fresh one did
                }
                // Only the churned levels are dirty now: the refit keeps
                // the others, and must still equal a full fresh fit.
                add_counts(&mut g, &churn);
                let got = outcome(g.refit(&ds, lambda, &cfg, &mut model).map(|()| &model).as_ref().copied());
                prop_assert!(got == want_churned, "churn {:?} {:?}: {} vs {}", column, cfg, got, want_churned);
            }
        }
    }

    // The in-place refit of a responsibility-mass grid
    // (`MassGrid::refit`) equals a fresh `MassGrid::fit_model` bit for
    // bit, whatever the model's buffers held, under every split: whole
    // and fractional masses, and a level whose row is empty (the
    // fallback). An item-ID column's cells are Eq. 6's closed form.
    #[test]
    fn in_place_mass_refit_is_bitwise_a_fresh_fit(
        n_items in 2usize..24,
        n_levels in 2usize..5,
        column in 0usize..4,
        lambda in 0usize..3,
        draws in proptest::collection::vec((0usize..1000, 0usize..8, 0usize..3), 1..30),
        empty_level in 0usize..8,
    ) {
        let (column, lambda) = (ID_COLUMNS[column], LAMBDAS[lambda]);
        let ds = id_dataset(n_items, column);
        let empty_level = empty_level % n_levels;
        let mut mass = MassGrid::new(n_levels, n_items).unwrap();
        // The grid's cells, added in the grid's order.
        let mut rows = vec![vec![0.0f64; n_items]; n_levels];
        for &(item, level, kind) in &draws {
            let item = item % n_items;
            let mut gamma = match kind {
                0 => (0..n_levels).map(|s| f64::from(u8::from(s == level % n_levels))).collect(),
                1 => (0..n_levels).map(|s| (s + 1) as f64 / 7.0 + 0.013 * level as f64).collect(),
                _ => vec![3.0; n_levels],
            };
            gamma[empty_level] = 0.0;
            mass.add(item as u32, &gamma).unwrap();
            for (row, &g) in rows.iter_mut().zip(&gamma) {
                row[item] += g;
            }
        }
        let seq = ParallelConfig::sequential();
        let want = mass.fit_model(&ds, lambda, &seq);
        if let (Ok(model), IdColumn::Identity | IdColumn::Poisoned) = (&want, column) {
            assert_id_cells(model, lambda, |s| rows[s].clone())?;
        }
        let want = outcome(want.as_ref());
        for cfg in update_configs() {
            for mut model in stale_models(n_levels, n_items, column) {
                let got = outcome(mass.refit(&ds, lambda, &cfg, &mut model).map(|()| &model).as_ref().copied());
                prop_assert!(got == want, "{:?} {:?}: {} vs {}", column, cfg, got, want);
            }
        }
    }
}
