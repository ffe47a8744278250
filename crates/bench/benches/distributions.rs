//! Benchmarks for the distribution layer: log-likelihood scoring (the DP's
//! inner loop) and the per-cell MLE fits of the update step, including the
//! gamma Newton-vs-method-of-moments ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion};
use upskill_core::dist::{Categorical, Gamma, LogNormal, Poisson};

fn samples(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.1 + (i as f64 * 0.7919).sin().abs() * 9.0 + (i % 7) as f64)
        .collect()
}

fn bench_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist/log_likelihood");
    let cat = Categorical::fit_from_counts(&vec![3.0; 1000], 0.01).expect("fit");
    let poi = Poisson::new(6.5).expect("poisson");
    let gam = Gamma::new(3.0, 1.5).expect("gamma");
    let lgn = LogNormal::new(1.0, 0.6).expect("lognormal");
    group.bench_function("categorical", |b| {
        b.iter(|| (0..1000u32).map(|v| cat.log_prob(v % 1000)).sum::<f64>())
    });
    group.bench_function("poisson", |b| {
        b.iter(|| (0..1000u64).map(|k| poi.log_pmf(k % 40)).sum::<f64>())
    });
    group.bench_function("gamma", |b| {
        b.iter(|| (1..1000).map(|x| gam.log_pdf(x as f64 * 0.01)).sum::<f64>())
    });
    group.bench_function("lognormal", |b| {
        b.iter(|| (1..1000).map(|x| lgn.log_pdf(x as f64 * 0.01)).sum::<f64>())
    });
    group.finish();
}

fn bench_fitting(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist/fit");
    let counts: Vec<f64> = (0..5000).map(|i| (i % 13) as f64).collect();
    let xs = samples(5000);
    let ks: Vec<u64> = (0..5000u64).map(|i| i % 23).collect();
    group.bench_function("categorical_5000", |b| {
        b.iter(|| Categorical::fit_from_counts(&counts, 0.01).expect("fit"))
    });
    group.bench_function("poisson_5000", |b| {
        b.iter(|| Poisson::fit(&ks).expect("fit"))
    });
    group.bench_function("gamma_newton_5000", |b| {
        b.iter(|| Gamma::fit(&xs).expect("fit"))
    });
    group.bench_function("gamma_moments_5000", |b| {
        b.iter(|| Gamma::fit_moments(&xs).expect("fit"))
    });
    group.bench_function("lognormal_5000", |b| {
        b.iter(|| LogNormal::fit(&xs).expect("fit"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_scoring, bench_fitting
}
criterion_main!(benches);
