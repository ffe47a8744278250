//! EM benchmark — whole-training wall time of the library's EM loop
//! (`em::train_em_with_parallelism`: the chunk pass folding each
//! iteration's posteriors into a fresh `S × n_items` responsibility-mass
//! grid, refit item-major) vs. the from-scratch EM reference
//! (`reference::train_em_full`), at the acceptance workload: 200 items,
//! 500 users × 100 mean actions, S=5, mixed feature kinds. The report and
//! floor keep their `incremental` names.
//!
//! Both paths run the identical forward–backward E-step; the loop
//! replaces the `O(|A| · S · F)` per-action weighted accumulation of the
//! M-step with `O(|A| · S)` mass additions plus an `O(S · n_items · F)`
//! item-major replay. The report records medians over several runs, the
//! speedup (median of per-repeat ratios) under the
//! `em_incremental.speedup` floor, and a result-equality check: evidence
//! traces within 1e-9 relative per iteration and final models scoring
//! every item within 1e-9 relative (the loop sums responsibility mass
//! per item before it meets the feature values, so bitwise equality is
//! not expected).

use serde::Serialize;
use std::time::Instant;
use upskill_bench::report::{median, median_ratio, synth, Report};
use upskill_bench::{banner, Scale, TextTable};
use upskill_core::em::{train_em_with_parallelism, EmConfig, EmResult};
use upskill_core::init::initialize_model;
use upskill_core::parallel::ParallelConfig;
use upskill_core::reference::train_em_full;
use upskill_core::transition::TransitionModel;
use upskill_core::types::Dataset;
use upskill_datasets::synthetic::generate;

#[derive(Serialize)]
struct Workload {
    scale: String,
    n_users: usize,
    n_items: usize,
    n_levels: usize,
    mean_sequence_len: f64,
    n_actions: usize,
    repeats: usize,
    em_iterations: usize,
    converged: bool,
}

/// Equality of the two EM paths: trace length and convergence exactly,
/// per-iteration evidence and final per-item scores to 1e-9 relative.
fn results_identical(a: &EmResult, b: &EmResult, dataset: &Dataset) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    a.converged == b.converged
        && a.evidence_trace.len() == b.evidence_trace.len()
        && a.evidence_trace
            .iter()
            .zip(&b.evidence_trace)
            .all(|(&x, &y)| close(x, y))
        && dataset.items().iter().all(|features| {
            (1..=a.model.n_levels() as u8).all(|s| {
                close(
                    a.model.item_log_likelihood(features, s),
                    b.model.item_log_likelihood(features, s),
                )
            })
        })
}

fn main() {
    let scale = Scale::from_env();
    banner("EM: responsibility-mass grid vs per-action accumulation");

    let (n_users, mean_len, repeats, max_iters) = match scale {
        Scale::Quick => (50, 30.0, 3, 8),
        _ => (500, 100.0, 5, 12),
    };
    let data = generate(&synth(n_users, 200, mean_len, 9)).expect("generation");
    let initial = initialize_model(&data.dataset, 5, 30, 0.01).expect("init");
    let transitions = TransitionModel::uninformative(5).expect("transitions");
    let em_cfg = EmConfig::new(initial, transitions)
        .with_max_iterations(max_iters)
        .with_tolerance(1e-9);
    let incremental_pc = ParallelConfig::sequential();
    eprintln!(
        "workload: {} users, {} items, {} actions, S=5, {} EM iterations max",
        data.dataset.n_users(),
        data.dataset.n_items(),
        data.dataset.n_actions(),
        max_iters
    );

    // Warm-up plus the result-equality check.
    let incr_result =
        train_em_with_parallelism(&data.dataset, &em_cfg, &incremental_pc).expect("incremental");
    let full_result = train_em_full(&data.dataset, &em_cfg).expect("full");
    let identical = results_identical(&incr_result, &full_result, &data.dataset);
    eprintln!(
        "trained: {} EM iterations, converged={}",
        incr_result.evidence_trace.len(),
        incr_result.converged
    );

    let mut full_total = Vec::with_capacity(repeats);
    let mut incr_total = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        train_em_full(&data.dataset, &em_cfg).expect("full");
        full_total.push(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        train_em_with_parallelism(&data.dataset, &em_cfg, &incremental_pc).expect("incremental");
        incr_total.push(t1.elapsed().as_secs_f64());
    }
    let speedup = median_ratio(&full_total, &incr_total);
    let full_s = median(&mut full_total);
    let incr_s = median(&mut incr_total);

    let mut out = TextTable::new(&["Path", "Train (s)"]);
    out.row(vec![
        "full (from-scratch accumulation)".into(),
        format!("{full_s:.4}"),
    ]);
    out.row(vec![
        "EM loop (responsibility-mass grid)".into(),
        format!("{incr_s:.4}"),
    ]);
    out.print();

    let mut report = Report::new(scale);
    report
        .metric("full_total_s", full_s, "s")
        .metric("incremental_total_s", incr_s, "s")
        .metric("speedup", speedup, "x")
        .floor("em_incremental.speedup", speedup, 1.5)
        .check("results_identical", identical);
    report.finish(
        "BENCH_em_incremental",
        &Workload {
            scale: format!("{scale:?}"),
            n_users: data.dataset.n_users(),
            n_items: data.dataset.n_items(),
            n_levels: 5,
            mean_sequence_len: mean_len,
            n_actions: data.dataset.n_actions(),
            repeats,
            em_iterations: incr_result.evidence_trace.len(),
            converged: incr_result.converged,
        },
    );
}
