//! Microbenchmarks for the DP assignment step (Eq. 4) — the dominant cost
//! of training (complexity O(|A_u|·F·S)). Sweeps sequence length and the
//! number of skill levels, and measures the user-parallel variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use upskill_core::assign::assign_sequence;
use upskill_core::emission::EmissionTable;
use upskill_core::init::initialize_model;
use upskill_core::parallel::{assign_all_parallel, assign_all_parallel_with_table, ParallelConfig};
use upskill_core::reference::assign_all_direct;
use upskill_datasets::synthetic::{generate, SyntheticConfig};

fn config(n_users: usize, len: f64, levels: usize) -> SyntheticConfig {
    SyntheticConfig {
        n_users,
        n_items: 500,
        n_levels: levels,
        mean_sequence_len: len,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 10,
        seed: 9,
    }
}

fn bench_sequence_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign_sequence/length");
    for len in [20usize, 50, 100, 200] {
        let data = generate(&config(4, len as f64, 5)).expect("generation");
        let model = initialize_model(&data.dataset, 5, 10, 0.01).expect("init");
        let seq = data
            .dataset
            .sequences()
            .iter()
            .max_by_key(|s| s.len())
            .expect("sequence")
            .clone();
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| assign_sequence(&model, &data.dataset, &seq).expect("assignment"))
        });
    }
    group.finish();
}

fn bench_skill_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign_all/levels");
    for levels in [2usize, 5, 10] {
        let data = generate(&config(50, 50.0, levels)).expect("generation");
        let model = initialize_model(&data.dataset, levels, 30, 0.01).expect("init");
        group.bench_with_input(BenchmarkId::from_parameter(levels), &levels, |b, _| {
            b.iter(|| {
                assign_all_parallel(&model, &data.dataset, &ParallelConfig::sequential())
                    .expect("assignment")
            })
        });
    }
    group.finish();
}

fn bench_parallel_assignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign_all/threads");
    let data = generate(&config(100, 50.0, 5)).expect("generation");
    let model = initialize_model(&data.dataset, 5, 30, 0.01).expect("init");
    for threads in [1usize, 2, 4] {
        let pc = ParallelConfig::sequential()
            .with_users(true)
            .with_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| assign_all_parallel(&model, &data.dataset, &pc).expect("assignment"))
        });
    }
    group.finish();
}

/// Table-backed vs direct assignment at the acceptance workload: 200 items,
/// 500 users × 100 mean actions, S=5, mixed feature kinds. The table turns
/// O(total_actions) emission evaluations into O(n_items) per pass; with
/// ~50k actions over 200 items the direct path re-evaluates each item's
/// distributions ~250× per sweep.
fn bench_emission_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign_all/emission");
    let cfg = SyntheticConfig {
        n_items: 200,
        ..config(500, 100.0, 5)
    };
    let data = generate(&cfg).expect("generation");
    let model = initialize_model(&data.dataset, 5, 30, 0.01).expect("init");
    group.sample_size(10);
    group.bench_function("direct", |b| {
        b.iter(|| assign_all_direct(&model, &data.dataset).expect("assignment"))
    });
    group.bench_function("table", |b| {
        b.iter(|| {
            let table = EmissionTable::build(&model, &data.dataset);
            assign_all_parallel_with_table(&table, &data.dataset, &ParallelConfig::sequential())
                .expect("assignment")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sequence_length, bench_skill_levels, bench_parallel_assignment,
        bench_emission_table
}
criterion_main!(benches);
