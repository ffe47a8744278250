//! Emission-table microbenchmark, two parts:
//!
//! 1. **Columnar fill sweep** — wall time of one full table build with the
//!    columnar batch kernels ([`EmissionTable::build`]) vs. the scalar
//!    cell-by-cell fill (`reference::build_scalar`), swept over
//!    `n_items ∈ {200, 2_000, 20_000}` (the ROADMAP's 10–100× item-count
//!    target). The two fills must agree **bitwise** at every scale; the
//!    20k-item entry carries the 3× acceptance floor. Each entry also
//!    times the f32 storage build ([`CompactEmissionTable`]) and records
//!    both storage footprints.
//! 2. **Assignment sweep** (the original benchmark) — one full assignment
//!    pass with per-action emission evaluation vs. the table-backed DP at
//!    the acceptance workload (200 items, 500 users × 100 mean actions,
//!    S=5, mixed feature kinds), with a bitwise result-equality check.

use serde::Serialize;
use std::time::Instant;
use upskill_bench::{banner, write_report, Scale, TextTable};
use upskill_core::emission::{CompactEmissionTable, EmissionTable};
use upskill_core::init::initialize_model;
use upskill_core::parallel::{assign_all_parallel_with_table, ParallelConfig};
use upskill_core::reference::{assign_all_direct, build_scalar};
use upskill_datasets::synthetic::{generate, SyntheticConfig};

/// One item-count scale of the columnar-vs-scalar fill sweep. Entries
/// with an `acceptance_floor` are enforced by `xtask bench-floors`.
#[derive(Serialize)]
struct FillSweepEntry {
    n_items: usize,
    n_actions: usize,
    scalar_build_seconds_median: f64,
    columnar_build_seconds_median: f64,
    f32_build_seconds_median: f64,
    speedup: f64,
    acceptance_floor: Option<f64>,
    results_bitwise_identical: bool,
    f64_table_bytes: usize,
    f32_table_bytes: usize,
}

#[derive(Serialize)]
struct Report {
    scale: String,
    n_users: usize,
    n_levels: usize,
    mean_sequence_len: f64,
    repeats: usize,
    fill_sweep: Vec<FillSweepEntry>,
    assignment: AssignmentReport,
}

/// The original direct-vs-table assignment comparison at the base scale.
#[derive(Serialize)]
struct AssignmentReport {
    n_items: usize,
    n_actions: usize,
    direct_seconds_median: f64,
    table_seconds_median: f64,
    table_build_seconds_median: f64,
    speedup: f64,
    acceptance_floor: Option<f64>,
    results_identical: bool,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
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

fn workload(n_users: usize, n_items: usize, mean_len: f64) -> SyntheticConfig {
    SyntheticConfig {
        n_users,
        n_items,
        n_levels: 5,
        mean_sequence_len: mean_len,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 10,
        seed: 9,
    }
}

fn main() {
    let scale = Scale::from_env();
    banner("Emission table: columnar fill sweep + assignment comparison");

    let (n_users, mean_len, repeats) = match scale {
        Scale::Quick => (50, 30.0, 3),
        _ => (500, 100.0, 5),
    };

    // Floors are recorded (and therefore enforced by `xtask bench-floors`)
    // only at the Default/Paper acceptance workload; quick-scale runs are
    // smoke tests whose timings are too noisy to gate on.
    let enforce = !matches!(scale, Scale::Quick);

    // Part 1: columnar vs scalar table fill across item counts. Only the
    // 20k-item point carries an acceptance floor; the smaller scales are
    // informational (their builds are microseconds and ratio-noisy).
    let mut fill_sweep = Vec::new();
    let mut fill_table = TextTable::new(&[
        "Items",
        "Scalar build (s)",
        "Columnar build (s)",
        "f32 build (s)",
        "Speedup",
        "Bitwise",
    ]);
    for &n_items in &[200usize, 2_000, 20_000] {
        let data = generate(&workload(n_users, n_items, mean_len)).expect("generation");
        let model = initialize_model(&data.dataset, 5, 30, 0.01).expect("init");

        // Warm-up plus the bitwise identity check.
        let scalar = build_scalar(&model, &data.dataset);
        let columnar = EmissionTable::build(&model, &data.dataset);
        let identical = tables_bitwise_equal(&scalar, &columnar);
        let compact = CompactEmissionTable::build(&model, &data.dataset);
        let f64_bytes = columnar.memory_bytes();
        let f32_bytes = compact.memory_bytes();

        let mut scalar_times = Vec::with_capacity(repeats);
        let mut columnar_times = Vec::with_capacity(repeats);
        let mut f32_times = Vec::with_capacity(repeats);
        let mut ratios = Vec::with_capacity(repeats);
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

            let t2 = Instant::now();
            let t = CompactEmissionTable::build(&model, &data.dataset);
            f32_times.push(t2.elapsed().as_secs_f64());
            drop(t);

            ratios.push(scalar_s / columnar_s);
        }
        let scalar_s = median(&mut scalar_times);
        let columnar_s = median(&mut columnar_times);
        let f32_s = median(&mut f32_times);
        let speedup = median(&mut ratios);
        let floor = if enforce && n_items == 20_000 {
            Some(3.0)
        } else {
            None
        };

        fill_table.row(vec![
            format!("{n_items}"),
            format!("{scalar_s:.6}"),
            format!("{columnar_s:.6}"),
            format!("{f32_s:.6}"),
            format!("{speedup:.2}x"),
            format!("{identical}"),
        ]);
        if !identical {
            eprintln!(
                "ERROR: columnar fill diverged bitwise from the scalar fill at {n_items} items"
            );
            std::process::exit(1);
        }
        fill_sweep.push(FillSweepEntry {
            n_items,
            n_actions: data.dataset.n_actions(),
            scalar_build_seconds_median: scalar_s,
            columnar_build_seconds_median: columnar_s,
            f32_build_seconds_median: f32_s,
            speedup,
            acceptance_floor: floor,
            results_bitwise_identical: identical,
            f64_table_bytes: f64_bytes,
            f32_table_bytes: f32_bytes,
        });
    }
    fill_table.print();
    let floor_entry = fill_sweep.last().expect("sweep entries");
    println!(
        "\nColumnar fill speedup at 20k items: {:.2}x (acceptance floor: 3x)",
        floor_entry.speedup
    );

    // Part 2: the original assignment sweep at the base workload.
    let data = generate(&workload(n_users, 200, mean_len)).expect("generation");
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
    println!("\nAssignment speedup: {speedup:.1}x (acceptance floor: 3x)");
    println!("Results identical: {identical}");
    if !identical {
        eprintln!("ERROR: table-backed assignment diverged from direct evaluation");
        std::process::exit(1);
    }

    write_report(
        "BENCH_emission",
        &Report {
            scale: format!("{scale:?}"),
            n_users: data.dataset.n_users(),
            n_levels: 5,
            mean_sequence_len: mean_len,
            repeats,
            fill_sweep,
            assignment: AssignmentReport {
                n_items: data.dataset.n_items(),
                n_actions: data.dataset.n_actions(),
                direct_seconds_median: direct_s,
                table_seconds_median: table_s,
                table_build_seconds_median: build_s,
                speedup,
                acceptance_floor: if enforce { Some(3.0) } else { None },
                results_identical: identical,
            },
        },
    );
}
