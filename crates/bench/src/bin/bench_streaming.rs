//! Streaming-ingestion benchmark — folding a fresh batch of actions into
//! a trained model via `StreamingSession::ingest_batch` + one refit, vs.
//! retraining from scratch on the concatenated dataset.
//!
//! Workload: 500 users × 100 mean actions over 200 items, S=5. Each
//! user's sequence is split 90/10; the model is trained on the 90%
//! prefixes and the remaining 10% of actions (globally time-ordered)
//! arrive as the streamed batch. Retraining re-runs the full coordinate
//! ascent; the session extends each user's monotone path with O(1) work
//! per action, applies exact `+1` histogram deltas, and refits only the
//! dirty skill levels once at the end.
//!
//! The two paths answer the same question differently — retraining may
//! re-segment history, streaming commits its past — so besides the
//! speedup the report records an exactness check (the streamed model must
//! equal the closed-form fit of the streamed assignments bitwise) and the
//! per-action log-likelihood gap between the two solutions.

use serde::Serialize;
use std::time::Instant;
use upskill_bench::report::{median, median_ratio, synth, Report};
use upskill_bench::{banner, Scale, TextTable};
use upskill_core::emission::EmissionTable;
use upskill_core::incremental::StatsGrid;
use upskill_core::parallel::ParallelConfig;
use upskill_core::streaming::{RefitPolicy, StreamingSession};
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_core::types::{Action, ActionSequence, Dataset};
use upskill_datasets::synthetic::generate;

#[derive(Serialize)]
struct Workload {
    scale: String,
    n_users: usize,
    n_items: usize,
    n_levels: usize,
    mean_sequence_len: f64,
    n_actions: usize,
    n_suffix_actions: usize,
    prefix_fraction: f64,
    repeats: usize,
    levels_refit: usize,
}

/// Splits each user's sequence into a 90% prefix dataset and the
/// remaining actions as one globally time-ordered batch.
fn split_prefix(dataset: &Dataset, fraction: f64) -> (Dataset, Vec<Action>) {
    let items: Vec<_> = (0..dataset.n_items())
        .map(|i| dataset.item_features(i as u32).to_vec())
        .collect();
    let mut prefixes = Vec::with_capacity(dataset.n_users());
    let mut suffix = Vec::new();
    for seq in dataset.sequences() {
        let n = seq.actions().len();
        let cut = (((n as f64) * fraction).ceil() as usize).clamp(1, n);
        prefixes
            .push(ActionSequence::new(seq.user, seq.actions()[..cut].to_vec()).expect("prefix"));
        suffix.extend_from_slice(&seq.actions()[cut..]);
    }
    // Stable by-time sort preserves each user's internal order.
    suffix.sort_by_key(|a| a.time);
    let prefix_ds =
        Dataset::new(dataset.schema().clone(), items, prefixes).expect("prefix dataset");
    (prefix_ds, suffix)
}

fn main() {
    let scale = Scale::from_env();
    banner("Streaming ingestion: fold a batch vs retrain from scratch");

    let (n_users, mean_len, min_init, repeats) = match scale {
        Scale::Quick => (50, 30.0, 20, 3),
        _ => (500, 100.0, 30, 9),
    };
    let data = generate(&synth(n_users, 200, mean_len, 9)).expect("generation");
    let train_cfg = TrainConfig::new(5).with_min_init_actions(min_init);
    let pc = ParallelConfig::sequential();
    let (prefix_ds, suffix) = split_prefix(&data.dataset, 0.9);
    eprintln!(
        "workload: {} users, {} items, {} actions ({} streamed), S=5",
        data.dataset.n_users(),
        data.dataset.n_items(),
        data.dataset.n_actions(),
        suffix.len()
    );

    let prefix_result =
        train_with_parallelism(&prefix_ds, &train_cfg, &pc).expect("prefix training");
    let base_session = StreamingSession::resume(
        prefix_ds,
        &prefix_result,
        train_cfg,
        pc,
        RefitPolicy::EveryBatch,
    )
    .expect("session");

    // Correctness pass (untimed): fold once under Manual so the explicit
    // refit reports how many levels were dirty, then check invariants.
    let mut session = base_session.clone();
    session.set_policy(RefitPolicy::Manual);
    session.ingest_batch(&suffix).expect("ingest");
    let levels_refit = session.refit().expect("refit");
    let grown = session.snapshot("bench");
    let monotone = grown.assignments.is_monotone();
    let fresh_model = StatsGrid::build(&grown.dataset, &grown.assignments, 5)
        .expect("grid")
        .fit_model_incremental(
            &grown.dataset,
            train_cfg.lambda,
            &ParallelConfig::sequential(),
            None,
        )
        .expect("fit");
    // Bitwise parameter equality shows itself as emission-table equality.
    let refit_exact = EmissionTable::build(session.model(), &grown.dataset)
        == EmissionTable::build(&fresh_model, &grown.dataset);
    let full_result =
        train_with_parallelism(&data.dataset, &train_cfg, &pc).expect("full retraining");
    let streaming_ll =
        upskill_core::update::log_likelihood(&grown.dataset, &grown.assignments, session.model())
            .expect("log-likelihood");
    let per_action = |ll: f64| ll / data.dataset.n_actions() as f64;

    let mut retrain_s = Vec::with_capacity(repeats);
    let mut fold_s = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        let r = train_with_parallelism(&data.dataset, &train_cfg, &pc).expect("full");
        retrain_s.push(t0.elapsed().as_secs_f64());
        assert!(r.assignments.is_monotone());

        let mut s = base_session.clone();
        let t1 = Instant::now();
        s.ingest_batch(&suffix).expect("fold");
        fold_s.push(t1.elapsed().as_secs_f64());
    }
    let speedup = median_ratio(&retrain_s, &fold_s);
    let retrain_med = median(&mut retrain_s);
    let fold_med = median(&mut fold_s);

    let mut out = TextTable::new(&["Path", "Seconds", "LL / action"]);
    out.row(vec![
        "full retrain (coordinate ascent)".into(),
        format!("{retrain_med:.4}"),
        format!("{:.4}", per_action(full_result.log_likelihood)),
    ]);
    out.row(vec![
        "streaming fold (ingest + refit)".into(),
        format!("{fold_med:.4}"),
        format!("{:.4}", per_action(streaming_ll)),
    ]);
    out.print();

    let mut report = Report::new(scale);
    report
        .metric("full_retrain_s", retrain_med, "s")
        .metric("streaming_fold_s", fold_med, "s")
        .metric("speedup_fold_vs_retrain", speedup, "x")
        .metric(
            "full_ll_per_action",
            per_action(full_result.log_likelihood),
            "nats",
        )
        .metric("streaming_ll_per_action", per_action(streaming_ll), "nats")
        .check("refit_exact", refit_exact)
        .check("assignments_monotone", monotone);
    report.finish(
        "BENCH_streaming",
        &Workload {
            scale: format!("{scale:?}"),
            n_users: data.dataset.n_users(),
            n_items: data.dataset.n_items(),
            n_levels: 5,
            mean_sequence_len: mean_len,
            n_actions: data.dataset.n_actions(),
            n_suffix_actions: suffix.len(),
            prefix_fraction: 0.9,
            repeats,
            levels_refit,
        },
    );
}
