//! Serving-layer load benchmark — concurrent mixed traffic at the
//! million-tenant scale.
//!
//! Trains a base model on a synthetic population, moves it behind an
//! `upskill-serve` [`SkillService`], and hammers it from `T` OS threads
//! with a mixed open-loop workload over **disjoint per-thread user
//! ranges** (so per-user time stays monotone without coordination):
//! ingests (admitting most users live), O(1) and DP-backed predictions,
//! and recommendations, under an auto-tuned `EveryNActions` refit policy
//! — so emission-table epochs swap continually underneath the readers.
//!
//! Recorded per op class and overall: throughput plus p50/p95/p99 tail
//! latencies from log-scaled histograms (16 sub-buckets per power of
//! two: ≤ ~6% bucket width, no per-sample storage). At default/paper
//! scale the report carries the `serve.throughput_ops_per_s` floor and
//! the `serve.p99_latency_s` ceiling on the overall p99.
//!
//! Before the load run, a small-scale **bitwise cross-check** replays
//! identical traffic through the service and a single-owner
//! `StreamingSession`: the snapshot JSON must match byte for byte, or
//! the binary exits non-zero.
//!
//! Then, also before the load run, a single-threaded **admission phase**
//! measures what one admitted user costs: on a second service over the
//! same base model (manual refits, so only the per-user records grow),
//! it ingests one action each for `N` new users and reports the growth
//! per user of the resident set (`VmRSS`, which counts allocator
//! rounding and the shard maps' spare buckets) and of the live heap (a
//! counting `#[global_allocator]`, switched on for this phase only). The
//! RSS figure is held by the `serve.bytes_per_admitted_user` ceiling. The
//! report's `peak_rss` covers the whole run, this phase included.
//!
//! Scales: `UPSKILL_SCALE=quick` is the CI smoke (10k users);
//! default/paper drive ≥ 1M simulated users.

use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use upskill_bench::report::{peak_rss_bytes, rss_bytes, synth, LatencyHist, Report};
use upskill_bench::{banner, Scale};
use upskill_core::parallel::ParallelConfig;
use upskill_core::rng::SplitMix64;
use upskill_core::streaming::{RefitPolicy, RefitTuner, StreamingSession};
use upskill_core::train::{train_with_parallelism, TrainConfig, TrainResult};
use upskill_core::types::{Action, Dataset, ItemId, UserId};
use upskill_datasets::synthetic::generate;
use upskill_serve::{PredictMode, ServeConfig, SkillService};

/// The system allocator, counting the bytes live on the heap while
/// [`COUNTING`] is set.
struct Counting;

/// Whether allocations are being counted (only during the admission
/// phase, so the mixed load's threads share no counter).
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Heap bytes allocated minus bytes freed while counting was on.
static LIVE: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result; the counter has no effect on the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes one admitted one-action user may add to the resident set: the
/// live record, its history and scores, and its shard-map bucket.
const BYTES_PER_USER_CEILING: f64 = 180.0;

#[derive(Serialize)]
struct OpLatency {
    ops: u64,
    p50_seconds: f64,
    p95_seconds: f64,
    p99_seconds: f64,
}

impl OpLatency {
    fn from_hist(h: &LatencyHist) -> Self {
        Self {
            ops: h.total(),
            p50_seconds: h.quantile_seconds(0.50),
            p95_seconds: h.quantile_seconds(0.95),
            p99_seconds: h.quantile_seconds(0.99),
        }
    }
}

#[derive(Serialize)]
struct Workload {
    scale: String,
    n_base_users: usize,
    n_simulated_users: usize,
    n_items: usize,
    n_levels: usize,
    threads: usize,
    n_shards: usize,
    ops_total: u64,
    serve_seconds: f64,
    ingest: OpLatency,
    predict: OpLatency,
    recommend: OpLatency,
    refits: u64,
    final_epoch: u64,
    final_refit_interval: Option<usize>,
    users_admitted_live: usize,
    crosscheck_users: usize,
    admission: Admission,
}

/// The single-threaded admission phase: what one new one-action user
/// costs the service.
#[derive(Serialize)]
struct Admission {
    users: usize,
    seconds: f64,
    rss_bytes_per_user: f64,
    heap_bytes_per_user: f64,
}

/// Admits `n_users` new users with one action each, single-threaded, into
/// a fresh manual-refit service over `dataset` and `result`, and measures
/// the growth per user of the resident set and the live heap.
fn admission(
    dataset: Dataset,
    result: &TrainResult,
    train_cfg: TrainConfig,
    first_user: UserId,
    n_users: usize,
) -> Admission {
    let n_items = dataset.n_items() as u64;
    let service = SkillService::resume(
        dataset,
        result,
        train_cfg,
        ParallelConfig::sequential(),
        ServeConfig {
            policy: RefitPolicy::Manual,
            ..ServeConfig::default()
        },
    )
    .expect("admission service");
    let mut rng = SplitMix64::new(7);
    let actions: Vec<Action> = (0..n_users as UserId)
        .map(|u| {
            let item = (rng.next_u64() % n_items) as ItemId;
            Action::new(2_000_000_000, first_user + u, item)
        })
        .collect();
    let rss_before = rss_bytes();
    COUNTING.store(true, Ordering::Relaxed);
    let t0 = Instant::now();
    for &action in &actions {
        service.ingest(action).expect("valid admission");
    }
    let seconds = t0.elapsed().as_secs_f64();
    COUNTING.store(false, Ordering::Relaxed);
    let rss_after = rss_bytes();
    assert_eq!(
        service.stats().n_users,
        n_users + result.assignments.per_user.len()
    );
    Admission {
        users: n_users,
        seconds,
        rss_bytes_per_user: (rss_after - rss_before) / n_users as f64,
        heap_bytes_per_user: LIVE.load(Ordering::Relaxed) as f64 / n_users as f64,
    }
}

/// One thread's slice of the mixed workload over its disjoint user range
/// `[lo, hi)`. Times start far above any base-dataset timestamp and only
/// move forward, so per-user monotonicity holds by construction.
#[allow(clippy::too_many_arguments)]
fn drive(
    service: &SkillService,
    lo: UserId,
    hi: UserId,
    n_items: usize,
    ops: u64,
    seed: u64,
    ingest_hist: &mut LatencyHist,
    predict_hist: &mut LatencyHist,
    recommend_hist: &mut LatencyHist,
) -> usize {
    let mut rng = SplitMix64::new(seed);
    let mut touched: Vec<UserId> = Vec::new();
    let mut seen = vec![false; (hi - lo) as usize];
    let mut clock: i64 = 1_000_000_000;
    let mut admitted = 0usize;
    for _ in 0..ops {
        let dice = rng.next_u64() % 100;
        if dice < 65 || touched.is_empty() {
            // Ingest: mostly-new users early, warming into a mixed
            // population; the service admits unknown users live.
            let user = lo + (rng.next_u64() % (hi - lo) as u64) as UserId;
            let item = (rng.next_u64() % n_items as u64) as ItemId;
            clock += 1;
            let t0 = Instant::now();
            service
                .ingest(Action::new(clock, user, item))
                .expect("valid ingest");
            ingest_hist.record_ns(t0.elapsed().as_nanos() as u64);
            if !seen[(user - lo) as usize] {
                seen[(user - lo) as usize] = true;
                touched.push(user);
                admitted += 1;
            }
        } else if dice < 90 {
            // Predict a user this thread has ingested: mostly the O(1)
            // estimators, a tail of DP-backed reads from the pools.
            let user = touched[(rng.next_u64() % touched.len() as u64) as usize];
            let mode = match rng.next_u64() % 20 {
                0 => PredictMode::Smoothed,
                1 => PredictMode::Posterior,
                n if n % 2 == 0 => PredictMode::Committed,
                _ => PredictMode::Filtered,
            };
            let t0 = Instant::now();
            service.predict(user, mode).expect("known user");
            predict_hist.record_ns(t0.elapsed().as_nanos() as u64);
        } else {
            let user = touched[(rng.next_u64() % touched.len() as u64) as usize];
            let t0 = Instant::now();
            service.recommend(user, Some(10)).expect("known user");
            recommend_hist.record_ns(t0.elapsed().as_nanos() as u64);
        }
    }
    admitted
}

/// Small-scale hard gate: the same traffic through the service and a
/// single-owner session must produce byte-identical snapshots.
fn crosscheck(n_users: usize, n_items: usize) -> bool {
    let cfg = synth(n_users, n_items, 20.0, 23);
    let data = generate(&cfg).expect("crosscheck data");
    let train_cfg = TrainConfig::new(5)
        .with_min_init_actions(10)
        .with_max_iterations(3)
        .with_lambda(0.01);
    let result = train_with_parallelism(&data.dataset, &train_cfg, &ParallelConfig::sequential())
        .expect("crosscheck train");
    let policy = RefitPolicy::EveryNActions(64);
    let tuner = RefitTuner::new(2, 16, 4096).expect("tuner");
    let service = SkillService::resume(
        data.dataset.clone(),
        &result,
        train_cfg,
        ParallelConfig::sequential(),
        ServeConfig {
            n_shards: 5,
            policy,
            tuner: Some(tuner),
            ..ServeConfig::default()
        },
    )
    .expect("service");
    let mut session = StreamingSession::resume(
        data.dataset.clone(),
        &result,
        train_cfg,
        ParallelConfig::sequential(),
        policy,
    )
    .expect("session");
    session.set_tuner(Some(tuner));

    let mut rng = SplitMix64::new(99);
    let mut clock: i64 = 1_000_000_000;
    for _ in 0..2_000u32 {
        // Half the traffic extends base users, half admits new ids.
        let user = if rng.next_u64().is_multiple_of(2) {
            (rng.next_u64() % n_users as u64) as UserId
        } else {
            (n_users as u64 + rng.next_u64() % 500) as UserId
        };
        let item = (rng.next_u64() % n_items as u64) as ItemId;
        clock += 1;
        let action = Action::new(clock, user, item);
        let a = session.ingest(action).expect("session ingest");
        let b = service.ingest(action).expect("service ingest");
        if a != b.level {
            eprintln!("cross-check: level diverged for user {user}");
            return false;
        }
    }
    let ours = service.snapshot("crosscheck").expect("snapshot");
    let theirs = session.snapshot("crosscheck");
    ours.to_json().expect("json") == theirs.to_json().expect("json")
}

fn main() {
    let scale = Scale::from_env();
    banner("Concurrent serving under mixed traffic");

    // quick = the CI smoke; default/paper = the million-tenant
    // acceptance workload.
    let (n_sim_users, n_base_users, n_items, ops_total, n_admitted) = match scale {
        Scale::Quick => (10_000usize, 2_000usize, 2_000usize, 200_000u64, 20_000usize),
        _ => (1_000_000, 50_000, 20_000, 4_000_000, 400_000),
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n_shards = (threads * 4).max(8);
    let train_cfg = TrainConfig::new(5)
        .with_min_init_actions(10)
        .with_max_iterations(3)
        .with_lambda(0.01);

    // Hard gate first: bitwise identity with the single-owner session.
    let crosscheck_users = 1_500;
    let identical = crosscheck(crosscheck_users, n_items.min(2_000));
    eprintln!("cross-check @ {crosscheck_users} users: service == session: {identical}");

    // Base population and model.
    let t0 = Instant::now();
    let base = generate(&synth(n_base_users, n_items, 20.0, 41)).expect("base data");
    let parallel = if threads > 1 {
        ParallelConfig::all(threads)
    } else {
        ParallelConfig::sequential()
    };
    let result = train_with_parallelism(&base.dataset, &train_cfg, &parallel).expect("base train");
    eprintln!(
        "base model ready in {:.1}s: {} users, {} actions",
        t0.elapsed().as_secs_f64(),
        base.dataset.n_users(),
        base.dataset.n_actions()
    );

    // What one admitted user costs, measured alone: new ids above the
    // load's range, on a service dropped before the load starts.
    let admitted_alone = admission(
        base.dataset.clone(),
        &result,
        train_cfg,
        n_sim_users as UserId,
        n_admitted,
    );
    eprintln!(
        "admission of {} one-action users: {:.0} B/user resident, {:.0} B/user heap",
        admitted_alone.users, admitted_alone.rss_bytes_per_user, admitted_alone.heap_bytes_per_user
    );

    // The refit cadence scales with traffic so the epoch swaps keep
    // happening throughout the run, auto-tuned by dirty-level rate. The
    // tuner's floor is the configured cadence: under full mixed load
    // every level stays dirty, so a lower floor would just let the
    // interval halve to it and make the run refit-bound; the tuner's
    // job here is stretching the interval when drift subsides.
    let refit_every = (ops_total / 200).clamp(512, 100_000) as usize;
    let service = Arc::new(
        SkillService::resume(
            base.dataset,
            &result,
            train_cfg,
            parallel,
            ServeConfig {
                n_shards,
                policy: RefitPolicy::EveryNActions(refit_every),
                tuner: Some(RefitTuner::new(3, refit_every, 1_000_000).expect("tuner")),
                ..ServeConfig::default()
            },
        )
        .expect("service"),
    );

    // Mixed load from T threads over disjoint user ranges.
    let span = (n_sim_users / threads).max(1) as UserId;
    let ops_per_thread = ops_total / threads as u64;
    let t1 = Instant::now();
    let lanes: Vec<(LatencyHist, LatencyHist, LatencyHist, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|lane| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let (mut ih, mut ph, mut rh) = Default::default();
                    let lo = lane as UserId * span;
                    let admitted = drive(
                        &service,
                        lo,
                        lo + span,
                        n_items,
                        ops_per_thread,
                        1000 + lane as u64,
                        &mut ih,
                        &mut ph,
                        &mut rh,
                    );
                    (ih, ph, rh, admitted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane"))
            .collect()
    });
    let serve_seconds = t1.elapsed().as_secs_f64();

    let (mut ingest_h, mut predict_h, mut recommend_h) = (
        LatencyHist::default(),
        LatencyHist::default(),
        LatencyHist::default(),
    );
    let mut admitted = 0usize;
    for (ih, ph, rh, a) in &lanes {
        ingest_h.merge(ih);
        predict_h.merge(ph);
        recommend_h.merge(rh);
        admitted += a;
    }
    let mut all = LatencyHist::default();
    all.merge(&ingest_h);
    all.merge(&predict_h);
    all.merge(&recommend_h);

    let stats = service.stats();
    let throughput = all.total() as f64 / serve_seconds.max(1e-9);
    let (p50, p95, p99) = (
        all.quantile_seconds(0.50),
        all.quantile_seconds(0.95),
        all.quantile_seconds(0.99),
    );
    let final_interval = match stats.policy {
        RefitPolicy::EveryNActions(n) => Some(n),
        _ => None,
    };

    let mut report = Report::new(scale);
    // 100k mixed ops/s is ~10x below what a release build sustains here;
    // a 50 ms p99 is ~50x above the observed tail.
    report
        .metric("throughput", throughput, "ops/s")
        .metric("p50", p50 * 1e6, "us")
        .metric("p95", p95 * 1e6, "us")
        .metric("p99", p99 * 1e6, "us")
        .metric("peak_rss", peak_rss_bytes() / (1024.0 * 1024.0), "MiB")
        .metric(
            "bytes_per_admitted_user",
            admitted_alone.rss_bytes_per_user,
            "B",
        )
        .metric(
            "heap_bytes_per_admitted_user",
            admitted_alone.heap_bytes_per_user,
            "B",
        )
        .floor("serve.throughput_ops_per_s", throughput, 1.0e5)
        .ceiling("serve.p99_latency_s", p99, 0.05)
        .ceiling(
            "serve.bytes_per_admitted_user",
            admitted_alone.rss_bytes_per_user,
            BYTES_PER_USER_CEILING,
        )
        .check("service_equals_session", identical);
    report.finish(
        "BENCH_serve",
        &Workload {
            scale: format!("{scale:?}"),
            n_base_users,
            n_simulated_users: n_sim_users,
            n_items,
            n_levels: 5,
            threads,
            n_shards,
            ops_total: all.total(),
            serve_seconds,
            ingest: OpLatency::from_hist(&ingest_h),
            predict: OpLatency::from_hist(&predict_h),
            recommend: OpLatency::from_hist(&recommend_h),
            refits: stats.refits,
            final_epoch: stats.epoch,
            final_refit_interval: final_interval,
            users_admitted_live: admitted,
            crosscheck_users,
            admission: admitted_alone,
        },
    );
}
