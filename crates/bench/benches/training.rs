//! End-to-end training benchmarks backing Table XIII / Fig. 7: full
//! alternating training of the ID vs Multi-faceted models, sequential vs
//! all-parallel, plus the EM-vs-hard-assignment ablation the paper cites
//! (§IV-B: hard assignments were reported ~1000× faster than EM).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use upskill_core::baselines::to_id_dataset;
use upskill_core::em::{train_em_with_parallelism, EmConfig};
use upskill_core::init::initialize_model;
use upskill_core::parallel::ParallelConfig;
use upskill_core::reference::train_full_rescan;
use upskill_core::train::{train, train_with_parallelism, TrainConfig};
use upskill_core::transition::TransitionModel;
use upskill_datasets::synthetic::{generate, SyntheticConfig};

fn data(n_users: usize) -> upskill_datasets::synthetic::SyntheticData {
    generate(&SyntheticConfig {
        n_users,
        n_items: 400,
        n_levels: 5,
        mean_sequence_len: 40.0,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 10,
        seed: 4,
    })
    .expect("generation")
}

fn bench_id_vs_multifaceted(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/model");
    let data = data(60);
    let id_view = to_id_dataset(&data.dataset).expect("projection");
    let cfg = TrainConfig::new(5)
        .with_min_init_actions(30)
        .with_max_iterations(10);
    group.bench_function("ID", |b| {
        b.iter(|| train(&id_view, &cfg).expect("training"))
    });
    group.bench_function("Multi-faceted", |b| {
        b.iter(|| train(&data.dataset, &cfg).expect("training"))
    });
    group.finish();
}

fn bench_parallel_flags(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/parallel");
    let data = data(60);
    let cfg = TrainConfig::new(5)
        .with_min_init_actions(30)
        .with_max_iterations(5);
    for (label, pc) in [
        ("sequential", ParallelConfig::sequential()),
        ("users", ParallelConfig::sequential().with_users(true)),
        ("all@4", ParallelConfig::all(4)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &pc, |b, pc| {
            b.iter(|| train_with_parallelism(&data.dataset, &cfg, pc).expect("training"))
        });
    }
    group.bench_function("full_rescan", |b| {
        b.iter(|| train_full_rescan(&data.dataset, &cfg).expect("training"))
    });
    group.finish();
}

fn bench_hard_vs_em(c: &mut Criterion) {
    let mut group = c.benchmark_group("train/hard_vs_em");
    group.sample_size(10);
    let data = data(30);
    let cfg = TrainConfig::new(5)
        .with_min_init_actions(30)
        .with_max_iterations(5);
    group.bench_function("hard", |b| {
        b.iter(|| train(&data.dataset, &cfg).expect("training"))
    });
    group.bench_function("em", |b| {
        b.iter(|| {
            let initial = initialize_model(&data.dataset, 5, 30, 0.01).expect("initialization");
            let transitions = TransitionModel::uninformative(5).expect("transitions");
            let em_cfg = EmConfig::new(initial, transitions).with_max_iterations(5);
            train_em_with_parallelism(&data.dataset, &em_cfg, &ParallelConfig::sequential())
                .expect("EM")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_id_vs_multifaceted, bench_parallel_flags, bench_hard_vs_em
}
criterion_main!(benches);
