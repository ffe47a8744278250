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
//!
//! A second, catalog-sized case times the M-step alone: a fully dirty
//! S = 5 refit over the `select-s` benchmark's synthetic catalog (200k
//! items drawn, about 120k after compaction). A counting global
//! allocator gives the heap bytes each refit allocates: the trainers'
//! in-place `StatsGrid::refit` (held by the
//! `incremental.refit_heap_bytes` ceiling) and, for comparison,
//! `fit_model_incremental`, which clones the previous model and runs the
//! same in-place refit on the clone.

use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use upskill_bench::report::{median, median_ratio, synth, Report};
use upskill_bench::{banner, Scale, TextTable};
use upskill_core::incremental::StatsGrid;
use upskill_core::parallel::ParallelConfig;
use upskill_core::reference::train_full_rescan;
use upskill_core::train::{train_with_parallelism, TrainConfig, TrainResult};
use upskill_core::types::{Dataset, SkillAssignments};
use upskill_datasets::synthetic::generate;

/// The system allocator, counting the bytes it hands out.
struct Counting;

/// Bytes allocated since the process started (frees are not subtracted;
/// a `realloc` counts its new size).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result; the counter has no effect on the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its output, the heap bytes it allocated and its
/// wall time in seconds.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, f64) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let out = f();
    let seconds = t0.elapsed().as_secs_f64();
    (out, ALLOCATED.load(Ordering::Relaxed) - before, seconds)
}

/// Heap bytes one refit may allocate at the catalog-sized case: the
/// refit writes into the model's buffers, so only per-level scratch
/// (small accumulators and the part lists) is left.
const REFIT_HEAP_CEILING: f64 = 1_048_576.0;

#[derive(Serialize)]
struct CatalogRefit {
    n_users: usize,
    n_items: usize,
    n_levels: usize,
    n_actions: usize,
    repeats: usize,
}

/// Each user's actions split evenly over the five levels, in order.
fn staircase(dataset: &Dataset, n_levels: usize) -> SkillAssignments {
    let per_user = (dataset.sequences().iter())
        .map(|seq| {
            let len = seq.len().max(1);
            (0..seq.len())
                .map(|t| (t * n_levels / len + 1) as u8)
                .collect()
        })
        .collect();
    SkillAssignments { per_user }
}

/// The catalog-sized M-step: median heap bytes and seconds of a fully
/// dirty refit, in place and on a clone of the model, and whether the
/// two fit the same bits.
struct RefitCosts {
    workload: CatalogRefit,
    in_place_bytes: f64,
    in_place_s: f64,
    cloned_bytes: f64,
    cloned_s: f64,
    identical: bool,
}

fn catalog_refit(scale: Scale) -> RefitCosts {
    const S: usize = 5;
    let (n_users, n_items, repeats) = match scale {
        Scale::Quick => (300, 2_000, 3),
        _ => (20_000, 200_000, 9),
    };
    let data = generate(&synth(n_users, n_items, 10.0, 500)).expect("generation");
    let ds = &data.dataset;
    let lambda = TrainConfig::new(S).lambda;
    let seq = ParallelConfig::sequential();
    let mut grid = StatsGrid::build(ds, &staircase(ds, S), S).expect("grid");
    let empty = StatsGrid::new(S, ds.n_items()).expect("empty grid");
    let mut model = grid
        .fit_model_incremental(ds, lambda, &seq, None)
        .expect("first fit");
    let (mut in_place, mut cloned) = (Vec::new(), Vec::new());
    let mut identical = true;
    for _ in 0..repeats {
        // Every level with an action differs from the empty grid.
        grid.mark_dirty_from(&empty).expect("dirty");
        let prev = model.clone();
        let mut cloning = grid.clone();
        let (fit, bytes, s) =
            measured(|| cloning.fit_model_incremental(ds, lambda, &seq, Some(&prev)));
        cloned.push((bytes as f64, s));
        let (refit, bytes, s) = measured(|| grid.refit(ds, lambda, &seq, &mut model));
        in_place.push((bytes as f64, s));
        refit.expect("in-place refit");
        identical &= fit.expect("clone refit") == model;
    }
    let column = |costs: &[(f64, f64)], pick: fn(&(f64, f64)) -> f64| {
        median(&mut costs.iter().map(pick).collect::<Vec<_>>())
    };
    RefitCosts {
        workload: CatalogRefit {
            n_users: ds.n_users(),
            n_items: ds.n_items(),
            n_levels: S,
            n_actions: ds.n_actions(),
            repeats,
        },
        in_place_bytes: column(&in_place, |c| c.0),
        in_place_s: column(&in_place, |c| c.1),
        cloned_bytes: column(&cloned, |c| c.0),
        cloned_s: column(&cloned, |c| c.1),
        identical,
    }
}

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
    catalog_refit: CatalogRefit,
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

    let refit = catalog_refit(scale);
    let mut out = TextTable::new(&["Catalog-sized refit", "Heap (bytes)", "Time (s)"]);
    out.row(vec![
        "clone + in place (fit_model_incremental)".into(),
        format!("{:.0}", refit.cloned_bytes),
        format!("{:.4}", refit.cloned_s),
    ]);
    out.row(vec![
        "in place (StatsGrid::refit)".into(),
        format!("{:.0}", refit.in_place_bytes),
        format!("{:.4}", refit.in_place_s),
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
        .metric("refit_heap_bytes", refit.in_place_bytes, "B")
        .metric("refit_s", refit.in_place_s, "s")
        .metric("clone_refit_heap_bytes", refit.cloned_bytes, "B")
        .metric("clone_refit_s", refit.cloned_s, "s")
        .ceiling(
            "incremental.refit_heap_bytes",
            refit.in_place_bytes,
            REFIT_HEAP_CEILING,
        )
        .check("results_identical", identical)
        .check("refit_matches_clone_refit", refit.identical);
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
            catalog_refit: refit.workload,
        },
    );
}
