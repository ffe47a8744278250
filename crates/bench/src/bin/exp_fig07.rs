//! Figure 7 — training time vs number of worker threads (Film), for the
//! ID and Multi-faceted models with all parallelization techniques on.
//!
//! On multicore hardware the Multi-faceted curve drops faster with thread
//! count (it has more per-feature work to parallelize); on this single-core
//! host the curves are flat-to-increasing (thread overhead), which the
//! report records alongside the host core count.

use serde::Serialize;
use std::time::Instant;
use upskill_bench::{banner, write_report, Scale, TextTable};
use upskill_core::baselines::to_id_dataset;
use upskill_core::parallel::ParallelConfig;
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_datasets::film::{generate, FilmConfig, FILM_LEVELS};

#[derive(Serialize)]
struct Report {
    scale: String,
    host_cores: usize,
    series: Vec<Point>,
}

#[derive(Serialize)]
struct Point {
    threads: usize,
    id_seconds: f64,
    multi_seconds: f64,
}

fn main() {
    let scale = Scale::from_env();
    banner("Figure 7: training time vs worker threads (Film)");

    let cfg = match scale {
        Scale::Quick => FilmConfig::test_scale(42),
        _ => FilmConfig::default_scale(42),
    };
    let data = generate(&cfg).expect("film generation");
    let id_view = to_id_dataset(&data.dataset).expect("projection");
    let train_cfg = TrainConfig::new(FILM_LEVELS).with_min_init_actions(50);

    let mut series = Vec::new();
    let mut table = TextTable::new(&["Threads", "ID (s)", "Multi-faceted (s)"]);
    for threads in 1..=5 {
        let pc = ParallelConfig::all(threads);
        eprintln!("  {threads} thread(s) ...");
        let t0 = Instant::now();
        train_with_parallelism(&id_view, &train_cfg, &pc).expect("ID");
        let id_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        train_with_parallelism(&data.dataset, &train_cfg, &pc).expect("multi");
        let multi_secs = t1.elapsed().as_secs_f64();
        table.row(vec![
            threads.to_string(),
            format!("{id_secs:.2}"),
            format!("{multi_secs:.2}"),
        ]);
        series.push(Point {
            threads,
            id_seconds: id_secs,
            multi_seconds: multi_secs,
        });
    }
    table.print();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nHost has {cores} core(s). The paper's Fig. 7 shows both curves \
         decreasing with threads, Multi-faceted benefiting more; with a \
         single core, expect flat/increasing curves dominated by thread \
         overhead — the machinery (not the hardware) is what is reproduced."
    );
    write_report(
        "fig07_threads",
        &Report {
            scale: format!("{scale:?}"),
            host_cores: cores,
            series,
        },
    );
}
