//! Out-of-core scale benchmark — the million-user path.
//!
//! Trains the hard coordinate-ascent model over the generate-and-fold
//! synthetic stream (`ChunkedSyntheticSource` + `train_chunked`, which
//! keeps the previous pass's levels as breakpoints) at a scale whose
//! materialized corpus would not fit comfortably in memory, and records:
//!
//! - **throughput** (actions × iterations / wall seconds) under the
//!   `scale.throughput_actions_per_s` floor;
//! - **peak RSS** (`VmHWM`) under the `scale.peak_rss_bytes` ceiling —
//!   the flat-memory claim, set against an estimate of what
//!   materializing the corpus would cost;
//! - a **bitwise cross-check** at a small scale where the in-memory
//!   sequential trainer is feasible: the chunked result must match it
//!   exactly (model, log-likelihood), or the binary exits non-zero.
//!
//! Scales: `UPSKILL_SCALE=quick` runs 10k users (the CI smoke); the
//! default and paper scales run the full 1M users × 100 mean actions.

use serde::Serialize;
use std::time::Instant;
use upskill_bench::report::{peak_rss_bytes, synth, Report};
use upskill_bench::{banner, Scale};
use upskill_core::chunked::{materialize, train_chunked, AssignmentStorage, ChunkSource};
use upskill_core::parallel::ParallelConfig;
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_datasets::chunked::ChunkedSyntheticSource;

#[derive(Serialize)]
struct Workload {
    scale: String,
    n_users: usize,
    n_items: usize,
    n_levels: usize,
    mean_sequence_len: f64,
    chunk_size: usize,
    threads: usize,
    n_actions: usize,
    n_chunks: usize,
    iterations: usize,
    converged: bool,
    log_likelihood: f64,
    /// What the action columns alone would cost if materialized
    /// (time + item per action) — the number the stream never pays.
    materialized_action_bytes_estimate: u64,
    crosscheck_users: usize,
}

fn main() {
    let scale = Scale::from_env();
    banner("Out-of-core chunked training at scale");

    // quick = the CI smoke (10k users, seconds); default/paper = the
    // million-user acceptance workload.
    let (n_users, mean_len, n_items, chunk_size, max_iterations) = match scale {
        Scale::Quick => (10_000, 30.0, 2_500, 1_024, 3),
        _ => (1_000_000, 100.0, 50_000, 4_096, 4),
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let train_cfg = TrainConfig::new(5)
        .with_min_init_actions(30)
        .with_max_iterations(max_iterations)
        .with_lambda(0.01);
    let parallel = if threads > 1 {
        ParallelConfig::all(threads)
    } else {
        ParallelConfig::sequential()
    };

    // Small-scale bitwise cross-check first: same generator family, a
    // size where materializing is cheap. Chunked (parallel)
    // must equal in-memory sequential exactly.
    let crosscheck_users = if scale == Scale::Quick { 1_000 } else { 2_000 };
    let small = synth(crosscheck_users, n_items.min(2_500), 40.0, 17);
    let small_source = ChunkedSyntheticSource::new(&small, 257).expect("small stream");
    let small_data = materialize(&small_source).expect("materialize");
    let expect = train_with_parallelism(&small_data, &train_cfg, &ParallelConfig::sequential())
        .expect("in-memory train");
    let got = train_chunked(
        &small_source,
        &train_cfg,
        &parallel,
        AssignmentStorage::Recompute,
    )
    .expect("chunked train");
    let identical = got.model == expect.model && got.log_likelihood == expect.log_likelihood;
    eprintln!("cross-check @ {crosscheck_users} users: chunked == in-memory: {identical}");

    // The scale run: the corpus exists only as per-chunk buffers.
    let cfg = synth(n_users, n_items, mean_len, 41);
    let t0 = Instant::now();
    let source = ChunkedSyntheticSource::new(&cfg, chunk_size).expect("stream");
    eprintln!(
        "stream ready in {:.1}s: {} users, {} actions, {} chunks of {chunk_size}",
        t0.elapsed().as_secs_f64(),
        source.n_users(),
        source.n_actions(),
        source.n_chunks()
    );
    let t1 = Instant::now();
    let result = train_chunked(&source, &train_cfg, &parallel, AssignmentStorage::Recompute)
        .expect("scale train");
    let train_seconds = t1.elapsed().as_secs_f64();
    let iterations = result.trace.len();
    let throughput = (result.n_actions as f64 * iterations as f64) / train_seconds.max(1e-9);
    let peak = peak_rss_bytes();
    let corpus_bytes = result.n_actions as u64 * 12; // i64 time + u32 item

    let mut report = Report::new(scale);
    // 1M actions/s is ~10x below what a release build sustains here;
    // 1.5 GiB is ~8x below the ~12 GiB a materialized 100M-action corpus
    // (plus training state) would need.
    report
        .metric("train_s", train_seconds, "s")
        .metric("throughput", throughput, "actions/s")
        .metric("peak_rss", peak / (1024.0 * 1024.0), "MiB")
        .floor("scale.throughput_actions_per_s", throughput, 1.0e6)
        .ceiling("scale.peak_rss_bytes", peak, 1_610_612_736.0)
        .check("chunked_equals_in_memory", identical);
    report.finish(
        "BENCH_scale",
        &Workload {
            scale: format!("{scale:?}"),
            n_users: result.n_users,
            n_items,
            n_levels: 5,
            mean_sequence_len: mean_len,
            chunk_size,
            threads,
            n_actions: result.n_actions,
            n_chunks: source.n_chunks(),
            iterations,
            converged: result.converged,
            log_likelihood: result.log_likelihood,
            materialized_action_bytes_estimate: corpus_bytes,
            crosscheck_users,
        },
    );
}
