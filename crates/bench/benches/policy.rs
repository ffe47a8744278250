//! Microbenchmark for the adaptive policy re-rank: the bounded
//! per-stratum top-k selection of `rerank_band` against the full sort
//! of the scored band it replaced (`reference::rerank_band_full_sort`),
//! on the level-3 band of the adaptive learner-loop domain
//! (`SyntheticConfig::scaled(10, false, 401)`, 5,000 items, with the
//! `UpskillEvalConfig::hybrid(5)` band and policy settings).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use upskill_core::parallel::ParallelConfig;
use upskill_core::policy::{rerank_band, PolicyState};
use upskill_core::recommend::LevelBand;
use upskill_core::reference::rerank_band_full_sort;
use upskill_core::streaming::RefitPolicy;
use upskill_core::train::{train, TrainConfig};
use upskill_core::types::ItemId;
use upskill_datasets::synthetic::{generate, SyntheticConfig};
use upskill_eval::upskilling::UpskillEvalConfig;
use upskill_serve::{ServeConfig, SkillService};

const N_LEVELS: usize = 5;
const LEVEL: u8 = 3;

fn bench_rerank(c: &mut Criterion) {
    let mut cfg = UpskillEvalConfig::hybrid(N_LEVELS);
    cfg.train = TrainConfig::new(N_LEVELS)
        .with_min_init_actions(10)
        .with_max_iterations(3)
        .with_lambda(0.01);
    let data = generate(&SyntheticConfig::scaled(10, false, 401))
        .expect("generation")
        .dataset;
    let result = train(&data, &cfg.train).expect("training");
    let service = SkillService::resume(
        data,
        &result,
        cfg.train,
        ParallelConfig::sequential(),
        ServeConfig {
            policy: RefitPolicy::Manual,
            recommend: cfg.recommend,
            adaptive: Some(cfg.policy),
            ..ServeConfig::default()
        },
    )
    .expect("service");
    let (_, epoch) = service.current_epoch();
    let band: &LevelBand = epoch.band(LEVEL, &cfg.recommend).expect("band");
    // A learner mid-loop: landed and failed attempts near its level feed
    // the success-rate and failure-gap objectives.
    let mut state = PolicyState::new(N_LEVELS, &cfg.policy).expect("state");
    for (i, r) in band.ranked().iter().take(12).enumerate() {
        state.record(r.item, r.difficulty, i % 3 != 0);
    }
    let none = |_: ItemId| false;

    let mut group = c.benchmark_group(format!("policy/rerank_band/{}_items", band.len()));
    for k in [cfg.k, band.len()] {
        group.bench_with_input(BenchmarkId::new("bounded", k), &k, |b, &k| {
            b.iter(|| rerank_band(band, &state, LEVEL, &none, &cfg.policy, k).expect("rerank"))
        });
        group.bench_with_input(BenchmarkId::new("full_sort", k), &k, |b, &k| {
            b.iter(|| {
                rerank_band_full_sort(band, &state, LEVEL, &none, &cfg.policy, k).expect("rerank")
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_rerank
}
criterion_main!(benches);
