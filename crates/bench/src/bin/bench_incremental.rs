//! Incremental-training benchmark — full coordinate-ascent training with
//! the persistent `StatsGrid` delta path vs. the full-rescan reference
//! trainer (`reference::train_full_rescan`), at the acceptance workload:
//! 200 items, 500 users × 100 mean actions, S=5, mixed feature kinds (ID +
//! categorical + gamma + count).
//!
//! The interesting number is the **post-first-iteration** portion: both
//! paths pay the same first iteration (the grid must be built once), but
//! from iteration 2 onward the incremental path applies `O(n_changed)`
//! integer deltas and refits from the `O(S · n_items)` histogram, while
//! the reference re-accumulates all `|A| · F` feature pushes. The
//! per-iteration wall times come from `IterationStats::seconds`, so the
//! split needs no instrumented re-runs. The report records medians over
//! several training runs, the speedups (no floor gates them), and a
//! result-equality check
//! (assignments and churn must agree exactly; objectives to 1e-12
//! relative).

use serde::Serialize;
use std::time::Instant;
use upskill_bench::report::{median, median_ratio, synth, Report};
use upskill_bench::{banner, Scale, TextTable};
use upskill_core::parallel::ParallelConfig;
use upskill_core::reference::train_full_rescan;
use upskill_core::train::{train_with_parallelism, TrainConfig, TrainResult};
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
    iterations: usize,
    converged: bool,
}

/// Seconds spent after the first iteration (where the two paths diverge).
fn post_first_seconds(result: &TrainResult) -> f64 {
    result.trace.iter().skip(1).map(|s| s.seconds).sum()
}

/// Equality of the two training paths: assignments, convergence, and
/// per-iteration churn exactly; objectives to tight relative tolerance
/// (the histogram replay sums continuous moments in item order rather
/// than action order, which can differ by ulps).
fn results_identical(a: &TrainResult, b: &TrainResult) -> bool {
    let ll_close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0);
    a.assignments == b.assignments
        && a.converged == b.converged
        && a.trace.len() == b.trace.len()
        && a.trace.iter().zip(&b.trace).all(|(x, y)| {
            x.iteration == y.iteration
                && x.n_changed == y.n_changed
                && ll_close(x.log_likelihood, y.log_likelihood)
        })
        && ll_close(a.log_likelihood, b.log_likelihood)
}

fn main() {
    let scale = Scale::from_env();
    banner("Incremental training: delta statistics vs full rescan");

    let (n_users, mean_len, repeats) = match scale {
        Scale::Quick => (50, 30.0, 3),
        _ => (500, 100.0, 9),
    };
    let data = generate(&synth(n_users, 200, mean_len, 9)).expect("generation");
    let train_cfg = TrainConfig::new(5).with_min_init_actions(30);
    let incremental_pc = ParallelConfig::sequential();
    eprintln!(
        "workload: {} users, {} items, {} actions, S=5",
        data.dataset.n_users(),
        data.dataset.n_items(),
        data.dataset.n_actions()
    );

    // Warm-up plus result-equality check.
    let incr_result =
        train_with_parallelism(&data.dataset, &train_cfg, &incremental_pc).expect("incremental");
    let full_result = train_full_rescan(&data.dataset, &train_cfg).expect("full");
    let identical = results_identical(&incr_result, &full_result);
    eprintln!(
        "trained: {} iterations, converged={}",
        incr_result.trace.len(),
        incr_result.converged
    );

    let mut full_total = Vec::with_capacity(repeats);
    let mut full_post = Vec::with_capacity(repeats);
    let mut incr_total = Vec::with_capacity(repeats);
    let mut incr_post = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        let r = train_full_rescan(&data.dataset, &train_cfg).expect("full");
        full_total.push(t0.elapsed().as_secs_f64());
        full_post.push(post_first_seconds(&r));

        let t1 = Instant::now();
        let r = train_with_parallelism(&data.dataset, &train_cfg, &incremental_pc)
            .expect("incremental");
        incr_total.push(t1.elapsed().as_secs_f64());
        incr_post.push(post_first_seconds(&r));
    }
    let speedup_total = median_ratio(&full_total, &incr_total);
    let speedup_post = median_ratio(&full_post, &incr_post);
    let full_total_s = median(&mut full_total);
    let full_post_s = median(&mut full_post);
    let incr_total_s = median(&mut incr_total);
    let incr_post_s = median(&mut incr_post);

    let mut out = TextTable::new(&["Path", "Train (s)", "Post-iter-1 (s)"]);
    out.row(vec![
        "full rescan (reference)".into(),
        format!("{full_total_s:.4}"),
        format!("{full_post_s:.4}"),
    ]);
    out.row(vec![
        "incremental (StatsGrid deltas)".into(),
        format!("{incr_total_s:.4}"),
        format!("{incr_post_s:.4}"),
    ]);
    out.print();

    let mut report = Report::new(scale);
    report
        .metric("full_total_s", full_total_s, "s")
        .metric("incremental_total_s", incr_total_s, "s")
        .metric("full_post_first_s", full_post_s, "s")
        .metric("incremental_post_first_s", incr_post_s, "s")
        .metric("speedup_total", speedup_total, "x")
        .metric("speedup_post_first_iteration", speedup_post, "x")
        .check("results_identical", identical);
    report.finish(
        "BENCH_incremental",
        &Workload {
            scale: format!("{scale:?}"),
            n_users: data.dataset.n_users(),
            n_items: data.dataset.n_items(),
            n_levels: 5,
            mean_sequence_len: mean_len,
            n_actions: data.dataset.n_actions(),
            repeats,
            iterations: incr_result.trace.len(),
            converged: incr_result.converged,
        },
    );
}
