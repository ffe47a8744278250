//! Incremental-EM benchmark — whole-training wall time of the
//! responsibility-delta incremental EM path (persistent `SoftStatsGrid`,
//! dirty-level weighted refits, column-refreshed emission table) vs. the
//! from-scratch EM reference (`reference::train_em_full`), at the
//! acceptance workload: 200 items, 500 users × 100 mean actions, S=5,
//! mixed feature kinds.
//!
//! Both paths run the identical forward–backward E-step; the incremental
//! path replaces the `O(|A| · S · F)` per-action weighted accumulation of
//! the M-step with `O(|A| · S)` gated responsibility deltas plus an
//! `O(S_dirty · n_items · F)` item-major replay, and refreshes only dirty
//! emission-table columns instead of rebuilding the table. The report
//! records medians over several runs, the speedup (median of per-repeat
//! ratios), and a result-equality check: evidence traces within 1e-9
//! relative per iteration and final models scoring every item within 1e-9
//! relative (the replay sums responsibility mass in item order rather
//! than action order, so bitwise equality is not expected).

use serde::Serialize;
use std::time::Instant;
use upskill_bench::{banner, write_report, Scale, TextTable};
use upskill_core::em::{train_em_with_parallelism, EmConfig, EmResult};
use upskill_core::init::initialize_model;
use upskill_core::parallel::ParallelConfig;
use upskill_core::reference::train_em_full;
use upskill_core::transition::TransitionModel;
use upskill_core::types::Dataset;
use upskill_datasets::synthetic::{generate, SyntheticConfig};

#[derive(Serialize)]
struct Report {
    scale: String,
    n_users: usize,
    n_items: usize,
    n_levels: usize,
    mean_sequence_len: f64,
    n_actions: usize,
    repeats: usize,
    em_iterations: usize,
    converged: bool,
    full_total_seconds_median: f64,
    incremental_total_seconds_median: f64,
    speedup: f64,
    acceptance_floor: Option<f64>,
    results_identical: bool,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
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
    banner("Incremental EM: responsibility deltas vs from-scratch accumulation");

    let (n_users, mean_len, repeats, max_iters) = match scale {
        Scale::Quick => (50, 30.0, 3, 8),
        _ => (500, 100.0, 5, 12),
    };
    let cfg = SyntheticConfig {
        n_users,
        n_items: 200,
        n_levels: 5,
        mean_sequence_len: mean_len,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 10,
        seed: 9,
    };
    let data = generate(&cfg).expect("generation");
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
    let mut ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        train_em_full(&data.dataset, &em_cfg).expect("full");
        let full_s = t0.elapsed().as_secs_f64();
        full_total.push(full_s);

        let t1 = Instant::now();
        train_em_with_parallelism(&data.dataset, &em_cfg, &incremental_pc).expect("incremental");
        let incr_s = t1.elapsed().as_secs_f64();
        incr_total.push(incr_s);

        // Back-to-back ratio per repeat cancels machine-load drift.
        ratios.push(full_s / incr_s);
    }
    let full_s = median(&mut full_total);
    let incr_s = median(&mut incr_total);
    let speedup = median(&mut ratios);

    let mut out = TextTable::new(&["Path", "Train (s)"]);
    out.row(vec![
        "full (from-scratch accumulation)".into(),
        format!("{full_s:.4}"),
    ]);
    out.row(vec![
        "incremental (responsibility deltas)".into(),
        format!("{incr_s:.4}"),
    ]);
    out.print();
    println!("\nSpeedup (whole training): {speedup:.2}x (acceptance floor: 1.5x)");
    println!("Results identical: {identical}");
    if !identical {
        eprintln!("ERROR: incremental EM diverged from the from-scratch path");
        std::process::exit(1);
    }

    write_report(
        "BENCH_em_incremental",
        &Report {
            scale: format!("{scale:?}"),
            n_users: data.dataset.n_users(),
            n_items: data.dataset.n_items(),
            n_levels: 5,
            mean_sequence_len: mean_len,
            n_actions: data.dataset.n_actions(),
            repeats,
            em_iterations: incr_result.evidence_trace.len(),
            converged: incr_result.converged,
            full_total_seconds_median: full_s,
            incremental_total_seconds_median: incr_s,
            speedup,
            // Enforced by `xtask bench-floors` at the acceptance workload
            // only; quick-scale smoke runs are too noisy to gate on.
            acceptance_floor: if matches!(scale, Scale::Quick) {
                None
            } else {
                Some(1.5)
            },
            results_identical: identical,
        },
    );
}
