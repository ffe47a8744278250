//! Emission-table microbenchmark, two parts:
//!
//! 1. **Columnar fill sweep** — wall time of one full table build with the
//!    columnar batch kernels ([`EmissionTable::build`]) vs. the scalar
//!    cell-by-cell fill (`reference::build_scalar`), swept over
//!    `n_items ∈ {200, 2_000, 20_000}` (the ROADMAP's 10–100× item-count
//!    target). The two fills must agree **bitwise** at every scale; the
//!    20k-item entry carries the 3× acceptance floor. Each entry also
//!    records the table's storage footprint.
//! 2. **Assignment sweep** (the original benchmark) — one full assignment
//!    pass with per-action emission evaluation vs. the table-backed DP at
//!    the acceptance workload (200 items, 500 users × 100 mean actions,
//!    S=5, mixed feature kinds), with a bitwise result-equality check.

use serde::Serialize;
use std::time::Instant;
use upskill_bench::report::{median, median_ratio, synth, Report};
use upskill_bench::{banner, Scale, TextTable};
use upskill_core::emission::EmissionTable;
use upskill_core::init::initialize_model;
use upskill_core::parallel::{assign_all_parallel_with_table, ParallelConfig};
use upskill_core::reference::{assign_all_direct, build_scalar};
use upskill_datasets::synthetic::generate;

/// One item-count scale of the columnar-vs-scalar fill sweep.
#[derive(Serialize)]
struct FillSweepEntry {
    n_items: usize,
    n_actions: usize,
    scalar_build_seconds_median: f64,
    columnar_build_seconds_median: f64,
    speedup: f64,
    f64_table_bytes: usize,
}

#[derive(Serialize)]
struct Workload {
    scale: String,
    n_users: usize,
    n_levels: usize,
    mean_sequence_len: f64,
    repeats: usize,
    fill_sweep: Vec<FillSweepEntry>,
    assignment: AssignmentEntry,
}

/// The direct-vs-table assignment comparison at the base scale.
#[derive(Serialize)]
struct AssignmentEntry {
    n_items: usize,
    n_actions: usize,
    direct_seconds_median: f64,
    table_seconds_median: f64,
    table_build_seconds_median: f64,
}

/// Bitwise equality of two emission tables over every (item, level) cell.
fn tables_bitwise_equal(a: &EmissionTable, b: &EmissionTable) -> bool {
    a.n_items() == b.n_items()
        && a.n_levels() == b.n_levels()
        && (0..a.n_items() as u32).all(|item| {
            a.row(item)
                .iter()
                .zip(b.row(item))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn main() {
    let scale = Scale::from_env();
    banner("Emission table: columnar fill sweep + assignment comparison");

    let (n_users, mean_len, repeats) = match scale {
        Scale::Quick => (50, 30.0, 3),
        _ => (500, 100.0, 5),
    };

    let mut report = Report::new(scale);

    // Part 1: columnar vs scalar table fill across item counts. Only the
    // 20k-item point carries an acceptance floor; the smaller scales are
    // informational (their builds are microseconds and ratio-noisy).
    let mut fill_sweep = Vec::new();
    let mut fill_table = TextTable::new(&[
        "Items",
        "Scalar build (s)",
        "Columnar build (s)",
        "Speedup",
        "Bitwise",
    ]);
    for &n_items in &[200usize, 2_000, 20_000] {
        let data = generate(&synth(n_users, n_items, mean_len, 9)).expect("generation");
        let model = initialize_model(&data.dataset, 5, 30, 0.01).expect("init");

        // Warm-up plus the bitwise identity check.
        let scalar = build_scalar(&model, &data.dataset);
        let columnar = EmissionTable::build(&model, &data.dataset);
        let identical = tables_bitwise_equal(&scalar, &columnar);
        let f64_bytes = columnar.memory_bytes();

        let mut scalar_times = Vec::with_capacity(repeats);
        let mut columnar_times = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let t0 = Instant::now();
            let t = build_scalar(&model, &data.dataset);
            let scalar_s = t0.elapsed().as_secs_f64();
            scalar_times.push(scalar_s);
            drop(t);

            let t1 = Instant::now();
            let t = EmissionTable::build(&model, &data.dataset);
            let columnar_s = t1.elapsed().as_secs_f64();
            columnar_times.push(columnar_s);
            drop(t);
        }
        let speedup = median_ratio(&scalar_times, &columnar_times);
        let scalar_s = median(&mut scalar_times);
        let columnar_s = median(&mut columnar_times);
        report
            .metric(&format!("fill_speedup_{n_items}_items"), speedup, "x")
            .check(&format!("fill_bitwise_{n_items}_items"), identical);
        if n_items == 20_000 {
            report.floor("emission.fill_speedup_20k_items", speedup, 3.0);
        }

        fill_table.row(vec![
            format!("{n_items}"),
            format!("{scalar_s:.6}"),
            format!("{columnar_s:.6}"),
            format!("{speedup:.2}x"),
            format!("{identical}"),
        ]);
        fill_sweep.push(FillSweepEntry {
            n_items,
            n_actions: data.dataset.n_actions(),
            scalar_build_seconds_median: scalar_s,
            columnar_build_seconds_median: columnar_s,
            speedup,
            f64_table_bytes: f64_bytes,
        });
    }
    fill_table.print();

    // Part 2: the original assignment sweep at the base workload.
    let data = generate(&synth(n_users, 200, mean_len, 9)).expect("generation");
    let model = initialize_model(&data.dataset, 5, 30, 0.01).expect("init");
    eprintln!(
        "assignment workload: {} users, {} items, {} actions, S=5",
        data.dataset.n_users(),
        data.dataset.n_items(),
        data.dataset.n_actions()
    );

    let sequential = ParallelConfig::sequential();
    let direct_result = assign_all_direct(&model, &data.dataset).expect("direct");
    let table = EmissionTable::build(&model, &data.dataset);
    let table_result =
        assign_all_parallel_with_table(&table, &data.dataset, &sequential).expect("table");
    let identical = direct_result == table_result;

    let mut direct_times = Vec::with_capacity(repeats);
    let mut table_times = Vec::with_capacity(repeats);
    let mut build_times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        assign_all_direct(&model, &data.dataset).expect("direct");
        direct_times.push(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        let table = EmissionTable::build(&model, &data.dataset);
        build_times.push(t1.elapsed().as_secs_f64());
        assign_all_parallel_with_table(&table, &data.dataset, &sequential).expect("table");
        table_times.push(t1.elapsed().as_secs_f64());
    }
    let direct_s = median(&mut direct_times);
    let table_s = median(&mut table_times);
    let build_s = median(&mut build_times);
    let speedup = direct_s / table_s;

    let mut out = TextTable::new(&["Path", "Per-sweep (s)"]);
    out.row(vec![
        "direct (per-action emissions)".into(),
        format!("{direct_s:.4}"),
    ]);
    out.row(vec![
        "table (build + cached rows)".into(),
        format!("{table_s:.4}"),
    ]);
    out.row(vec![
        "  of which table build".into(),
        format!("{build_s:.4}"),
    ]);
    out.print();
    report
        .metric("assignment_direct_s", direct_s, "s")
        .metric("assignment_table_s", table_s, "s")
        .metric("assignment_speedup", speedup, "x")
        .floor("emission.assignment_speedup", speedup, 3.0)
        .check("assignment_identical", identical);
    report.finish(
        "BENCH_emission",
        &Workload {
            scale: format!("{scale:?}"),
            n_users: data.dataset.n_users(),
            n_levels: 5,
            mean_sequence_len: mean_len,
            repeats,
            fill_sweep,
            assignment: AssignmentEntry {
                n_items: data.dataset.n_items(),
                n_actions: data.dataset.n_actions(),
                direct_seconds_median: direct_s,
                table_seconds_median: table_s,
                table_build_seconds_median: build_s,
            },
        },
    );
}
