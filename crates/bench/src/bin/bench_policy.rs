//! Closed-loop upskilling benchmark — adaptive policy vs the paper's
//! static band recommendation.
//!
//! Runs the `upskill-eval` closed-loop harness over ≥2 synthetic
//! domains (the paper's sparse generator and its dense variant): a
//! population of simulated learners per arm asks a live `SkillService`
//! what to attempt next, succeeds or fails as a function of the
//! recommended stretch, and advances when stretch work lands. The arms
//! share one trained model per domain and differ only in the
//! recommendation surface (static band scoring vs hybrid policy
//! re-ranking).
//!
//! The headline number is the *minimum* over domains of `static median
//! actions-to-target / adaptive median` — above 1.0 means the adaptive
//! policy upskills learners faster on every domain. At default/paper
//! scale it is the `policy.min_domain_speedup` floor; quick scale is the
//! CI smoke and records no floor.
//!
//! Everything is seeded: the report is bitwise identical across runs
//! and thread counts (see `tests/upskilling_eval.rs`).

use serde::Serialize;
use std::time::Instant;
use upskill_bench::report::Report;
use upskill_bench::{banner, Scale, TextTable};
use upskill_core::train::TrainConfig;
use upskill_datasets::synthetic::{generate, SyntheticConfig};
use upskill_eval::upskilling::{evaluate_upskilling, DomainReport, UpskillEvalConfig};

#[derive(Serialize)]
struct Workload {
    scale: String,
    n_learners: usize,
    max_actions: usize,
    threads: usize,
    train_seconds_total: f64,
    eval_seconds_total: f64,
    domains: Vec<DomainReport>,
}

/// One benchmark domain: a synthetic population plus its label.
fn domains(scale: Scale) -> Vec<(String, SyntheticConfig)> {
    let factor = scale.synthetic_factor();
    // Learners never see the generator's logged sequences — the base
    // population only trains the emission model — so the domain knobs
    // that matter here are the item inventory and level structure.
    vec![
        (
            "synthetic-sparse".to_string(),
            SyntheticConfig::scaled(factor, false, 401),
        ),
        (
            "synthetic-dense".to_string(),
            SyntheticConfig::scaled(factor, true, 402),
        ),
    ]
}

fn eval_config(scale: Scale, n_levels: usize, threads: usize) -> UpskillEvalConfig {
    let mut cfg = UpskillEvalConfig::hybrid(n_levels);
    cfg.threads = threads;
    cfg.n_learners = match scale {
        Scale::Quick => 12,
        Scale::Default => 48,
        Scale::Paper => 96,
    };
    cfg.learner.max_actions = match scale {
        Scale::Quick => 150,
        _ => 300,
    };
    cfg.learner.seed = 0xAD_0B;
    cfg.train = TrainConfig::new(n_levels)
        .with_min_init_actions(10)
        .with_max_iterations(3)
        .with_lambda(0.01);
    cfg
}

fn main() {
    let scale = Scale::from_env();
    banner("Closed-loop upskilling: adaptive policy vs static bands");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut reports: Vec<DomainReport> = Vec::new();
    let mut train_seconds = 0.0;
    let mut eval_seconds = 0.0;
    for (name, domain) in domains(scale) {
        let t0 = Instant::now();
        let data = generate(&domain).expect("domain data");
        let cfg = eval_config(scale, domain.n_levels, threads);
        train_seconds += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let report = evaluate_upskilling(&data.dataset, &name, &cfg).expect("evaluation");
        eval_seconds += t1.elapsed().as_secs_f64();
        eprintln!(
            "{name}: static median {:.1} vs adaptive median {:.1} (speedup {:.2}x, reached {}/{} vs {}/{})",
            report.static_arm.median_actions,
            report.adaptive_arm.median_actions,
            report.speedup,
            report.static_arm.reached,
            report.static_arm.n_learners,
            report.adaptive_arm.reached,
            report.adaptive_arm.n_learners,
        );
        reports.push(report);
    }

    let speedup = reports
        .iter()
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);

    let mut table = TextTable::new(&["domain", "static med", "adaptive med", "speedup"]);
    for r in &reports {
        table.row(vec![
            r.name.clone(),
            format!("{:.1}", r.static_arm.median_actions),
            format!("{:.1}", r.adaptive_arm.median_actions),
            format!("{:.2}x", r.speedup),
        ]);
    }
    table.print();
    println!("\nminimum speedup over domains: {speedup:.3}");

    let mut report = Report::new(scale);
    for r in &reports {
        report.metric(&format!("{}.speedup", r.name), r.speedup, "x");
    }
    // The adaptive arm must upskill faster than the static band
    // recommendation on *every* domain.
    report.metric("min_domain_speedup", speedup, "x").floor(
        "policy.min_domain_speedup",
        speedup,
        1.0,
    );
    let cfg = eval_config(scale, 5, threads);
    report.finish(
        "BENCH_policy",
        &Workload {
            scale: format!("{scale:?}"),
            n_learners: cfg.n_learners,
            max_actions: cfg.learner.max_actions,
            threads,
            train_seconds_total: train_seconds,
            eval_seconds_total: eval_seconds,
            domains: reports,
        },
    );
}
