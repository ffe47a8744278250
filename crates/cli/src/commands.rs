//! Subcommand implementations.

use std::fs;

use serde::{Deserialize, Serialize};
use upskill_core::bundle::SessionBundle;
use upskill_core::chunked::{train_chunked, AssignmentStorage, ChunkSource};
use upskill_core::difficulty::{assignment_difficulty_all, generation_difficulty_all, SkillPrior};
use upskill_core::parallel::ParallelConfig;
use upskill_core::recommend::{recommend_for_level, RecommendConfig};
use upskill_core::rng::SplitMix64;
use upskill_core::streaming::{RefitPolicy, RefitTuner, StreamingSession};
use upskill_core::train::{train, TrainConfig};
use upskill_core::types::{Action, Dataset, ItemId, SkillAssignments, UserId};
use upskill_core::SkillModel;
use upskill_datasets::chunked::ChunkedSyntheticSource;
use upskill_datasets::DatasetStats;
use upskill_serve::{PredictMode, ServeConfig, SkillService};

use crate::args::Args;
use crate::error::CliError;

const USAGE: &str = "\
usage: upskill <command> [flags]

commands:
  generate    --domain <synthetic|language|cooking|beer|film> [--seed N]
              [--scale quick|default] --out data.json
  stats       --data data.json
  train       --data data.json [--levels S] [--min-init N] [--lambda L]
              --out model.json [--assignments assignments.json]
              | --chunked --users N [--items M] [--levels S] [--mean-len F]
                [--chunk-size K] [--seed N] [--threads T]
                [--min-init N] [--lambda L] [--max-iterations N]
                --out model.json
  difficulty  --data data.json --model model.json
              [--assignments assignments.json]
              [--method assignment|uniform|empirical] --out difficulty.json
  recommend   --data data.json --model model.json --difficulty difficulty.json
              --level S [--k K]
  evaluate    --data data.json --model model.json --assignments assignments.json
  sweep       --data data.json [--min 2] [--max 8] [--test-frac 0.1] [--seed N]
  ingest      --actions new_actions.json --out model_out.json
              (--session session.json | --data data.json --model model.json
               --assignments assignments.json [--lambda L])
              [--assignments-out a.json] [--data-out d.json]
              [--session-out session_out.json]
  serve-bench [--users N] [--live-users N] [--items M] [--levels S]
              [--ops N] [--threads T] [--shards K] [--refit-every N]
              [--seed N]
  policy-eval --data data.json [--levels S] [--learners N] [--budget N]
              [--threads T] [--seed N] [--min-init N] [--out report.json]
  help        show this message";

/// Dispatches a parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::Usage(format!("no command given\n{USAGE}")));
    };
    let args = Args::parse_with_switches(rest, &["chunked"])?;
    let run = match command.as_str() {
        "generate" => generate,
        "stats" => stats,
        "train" => train_cmd,
        "difficulty" => difficulty,
        "recommend" => recommend,
        "evaluate" => evaluate,
        "sweep" => sweep,
        "ingest" => ingest,
        "serve-bench" => serve_bench,
        "policy-eval" => policy_eval,
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return Ok(());
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other:?}\n{USAGE}"
            )))
        }
    };
    run(&args).map_err(|e| CliError::Command {
        command: command.clone(),
        source: Box::new(e),
    })
}

fn read_json<T: for<'de> Deserialize<'de>>(path: &str) -> Result<T, CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::Io {
        op: "read",
        path: path.to_string(),
        source: e,
    })?;
    serde_json::from_str(&text).map_err(|e| CliError::Parse {
        path: path.to_string(),
        detail: e.to_string(),
    })
}

/// Loads a dataset file and re-checks what deserialization skips: sorted,
/// owner-consistent sequences whose items exist and match the schema.
fn read_dataset(path: &str) -> Result<Dataset, CliError> {
    let dataset: Dataset = read_json(path)?;
    dataset.validate().map_err(|source| CliError::InvalidData {
        path: path.to_string(),
        source,
    })?;
    Ok(dataset)
}

fn write_json<T: Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    let text = serde_json::to_string(value).map_err(|e| CliError::Serialize {
        path: path.to_string(),
        detail: e.to_string(),
    })?;
    fs::write(path, text).map_err(|e| CliError::Io {
        op: "write",
        path: path.to_string(),
        source: e,
    })
}

fn generate(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["domain", "seed", "scale", "out"])?;
    let domain = args.required("domain")?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let quick = matches!(args.optional("scale"), Some("quick"));
    let out = args.required("out")?;
    let dataset: Dataset = match domain {
        "synthetic" => {
            let cfg = if quick {
                upskill_datasets::synthetic::SyntheticConfig::scaled(50, false, seed)
            } else {
                upskill_datasets::synthetic::SyntheticConfig::scaled(10, false, seed)
            };
            upskill_datasets::synthetic::generate(&cfg)?.dataset
        }
        "language" => {
            let cfg = if quick {
                upskill_datasets::language::LanguageConfig::test_scale(seed)
            } else {
                upskill_datasets::language::LanguageConfig::default_scale(seed)
            };
            upskill_datasets::language::generate(&cfg)?.dataset
        }
        "cooking" => {
            let cfg = if quick {
                upskill_datasets::cooking::CookingConfig::test_scale(seed)
            } else {
                upskill_datasets::cooking::CookingConfig::default_scale(seed)
            };
            upskill_datasets::cooking::generate(&cfg)?.dataset
        }
        "beer" => {
            let cfg = if quick {
                upskill_datasets::beer::BeerConfig::test_scale(seed)
            } else {
                upskill_datasets::beer::BeerConfig::default_scale(seed)
            };
            upskill_datasets::beer::generate(&cfg)?.dataset
        }
        "film" => {
            let cfg = if quick {
                upskill_datasets::film::FilmConfig::test_scale(seed)
            } else {
                upskill_datasets::film::FilmConfig::default_scale(seed)
            };
            upskill_datasets::film::generate(&cfg)?.dataset
        }
        other => return Err(CliError::Usage(format!("unknown domain {other:?}"))),
    };
    write_json(out, &dataset)?;
    println!(
        "wrote {out}: {} users, {} items, {} actions",
        dataset.n_users(),
        dataset.n_items(),
        dataset.n_actions()
    );
    Ok(())
}

fn stats(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["data"])?;
    let dataset = read_dataset(args.required("data")?)?;
    let s = DatasetStats::of("dataset", &dataset);
    println!("users:   {}", s.n_users);
    println!("items:   {}", s.n_items);
    println!("actions: {}", s.n_actions);
    println!("actions/user: {:.2}", s.actions_per_user());
    println!("actions/item: {:.2}", s.actions_per_item());
    println!("features: {}", dataset.schema().len());
    for f in 0..dataset.schema().len() {
        println!("  [{f}] {}", dataset.schema().name(f));
    }
    Ok(())
}

fn train_cmd(args: &Args) -> Result<(), CliError> {
    if args.switch("chunked") {
        return train_chunked_cmd(args);
    }
    args.reject_unknown(&["data", "levels", "min-init", "lambda", "out", "assignments"])?;
    let dataset = read_dataset(args.required("data")?)?;
    let levels: usize = args.parse_or("levels", 5)?;
    let min_init: usize = args.parse_or("min-init", 50)?;
    let lambda: f64 = args.parse_or("lambda", 0.01)?;
    let out = args.required("out")?;
    let config = TrainConfig::new(levels)
        .with_min_init_actions(min_init)
        .with_lambda(lambda);
    let result = train(&dataset, &config)?;
    write_json(out, &result.model)?;
    println!(
        "trained {levels}-level model in {} iterations (converged: {}), \
         log-likelihood {:.1}; wrote {out}",
        result.trace.len(),
        result.converged,
        result.log_likelihood
    );
    if let Some(path) = args.optional("assignments") {
        write_json(path, &result.assignments)?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `train --chunked`: out-of-core training over the generate-and-fold
/// synthetic stream — the corpus is never materialized, so `--users`
/// can go to a million and beyond with flat memory.
fn train_chunked_cmd(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "chunked",
        "users",
        "items",
        "levels",
        "mean-len",
        "chunk-size",
        "seed",
        "threads",
        "min-init",
        "lambda",
        "max-iterations",
        "out",
    ])?;
    let users: usize = args
        .required("users")?
        .parse()
        .map_err(|_| CliError::Usage("flag --users: cannot parse".into()))?;
    let levels: usize = args.parse_or("levels", 5)?;
    let items: usize = args.parse_or("items", 5_000)?;
    let mean_len: f64 = args.parse_or("mean-len", 50.0)?;
    let chunk_size: usize = args.parse_or("chunk-size", 4096)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let threads: usize = args.parse_or("threads", 1)?;
    let min_init: usize = args.parse_or("min-init", 50)?;
    let lambda: f64 = args.parse_or("lambda", 0.01)?;
    let out = args.required("out")?;
    let parallel = match threads {
        0 | 1 => ParallelConfig::sequential(),
        _ => ParallelConfig::all(threads),
    };
    parallel.validate()?;
    let synth = upskill_datasets::synthetic::SyntheticConfig {
        n_users: users,
        n_items: items,
        n_levels: levels,
        mean_sequence_len: mean_len,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 10,
        seed,
    };
    let source = ChunkedSyntheticSource::new(&synth, chunk_size)?;
    let mut config = TrainConfig::new(levels)
        .with_min_init_actions(min_init)
        .with_lambda(lambda);
    if args.optional("max-iterations").is_some() {
        config = config.with_max_iterations(args.parse_or("max-iterations", 0)?);
    }
    let result = train_chunked(&source, &config, &parallel, AssignmentStorage::default())?;
    write_json(out, &result.model)?;
    let total: u64 = result.level_histogram.iter().sum();
    println!(
        "chunked-trained {levels}-level model over {} users / {} actions \
         ({} chunks of {chunk_size}) in {} iterations (converged: {}), \
         log-likelihood {:.1}; wrote {out}",
        result.n_users,
        result.n_actions,
        source.n_chunks(),
        result.trace.len(),
        result.converged,
        result.log_likelihood
    );
    println!("actions per level:");
    for (i, &c) in result.level_histogram.iter().enumerate() {
        let frac = c as f64 / total.max(1) as f64;
        let bar = "#".repeat((frac * 50.0).round() as usize);
        println!("  s={}: {:7} ({:5.1}%) {}", i + 1, c, 100.0 * frac, bar);
    }
    Ok(())
}

fn difficulty(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["data", "model", "assignments", "method", "out"])?;
    let dataset = read_dataset(args.required("data")?)?;
    let model: SkillModel = read_json(args.required("model")?)?;
    let method = args.optional("method").unwrap_or("empirical");
    let out = args.required("out")?;
    let assignments: Option<SkillAssignments> = match args.optional("assignments") {
        Some(path) => Some(read_json(path)?),
        None => None,
    };
    let values: Vec<Option<f64>> = match method {
        "assignment" => {
            let a = assignments.as_ref().ok_or_else(|| {
                CliError::Usage("--method assignment requires --assignments".into())
            })?;
            assignment_difficulty_all(&dataset, a)?
        }
        "uniform" => generation_difficulty_all(&model, &dataset, SkillPrior::Uniform, None)?
            .into_iter()
            .map(Some)
            .collect(),
        "empirical" => {
            let a = assignments.as_ref().ok_or_else(|| {
                CliError::Usage("--method empirical requires --assignments".into())
            })?;
            generation_difficulty_all(&model, &dataset, SkillPrior::Empirical, Some(a))?
                .into_iter()
                .map(Some)
                .collect()
        }
        other => return Err(CliError::Usage(format!("unknown method {other:?}"))),
    };
    write_json(out, &values)?;
    let known: Vec<f64> = values.iter().flatten().copied().collect();
    let mean = known.iter().sum::<f64>() / known.len().max(1) as f64;
    println!(
        "wrote {out}: {} items ({} estimable), mean difficulty {:.2}",
        values.len(),
        known.len(),
        mean
    );
    Ok(())
}

fn evaluate(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["data", "model", "assignments"])?;
    let dataset = read_dataset(args.required("data")?)?;
    let model: SkillModel = read_json(args.required("model")?)?;
    let assignments: SkillAssignments = read_json(args.required("assignments")?)?;
    let ll = upskill_core::update::log_likelihood(&dataset, &assignments, &model)?;
    let hist = assignments.level_histogram(model.n_levels());
    let total: usize = hist.iter().sum();
    println!(
        "log-likelihood: {ll:.1} ({:.3} per action)",
        ll / total.max(1) as f64
    );
    println!("actions per level:");
    for (i, &c) in hist.iter().enumerate() {
        let frac = c as f64 / total.max(1) as f64;
        let bar = "#".repeat((frac * 50.0).round() as usize);
        println!("  s={}: {:7} ({:5.1}%) {}", i + 1, c, 100.0 * frac, bar);
    }
    // Per-level mean of every non-categorical feature.
    for f in 0..dataset.schema().len() {
        if let Ok(means) = upskill_core::analysis::level_means(&model, f) {
            println!(
                "feature [{f}] {} mean per level: {:?}",
                dataset.schema().name(f),
                means.iter().map(|m| format!("{m:.2}")).collect::<Vec<_>>()
            );
        }
    }
    Ok(())
}

fn sweep(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["data", "min", "max", "test-frac", "seed", "min-init"])?;
    let dataset = read_dataset(args.required("data")?)?;
    let lo: usize = args.parse_or("min", 2)?;
    let hi: usize = args.parse_or("max", 8)?;
    let frac: f64 = args.parse_or("test-frac", 0.1)?;
    let seed: u64 = args.parse_or("seed", 7)?;
    let min_init: usize = args.parse_or("min-init", 50)?;
    if lo == 0 || hi < lo {
        return Err(CliError::Usage("need 1 <= min <= max".into()));
    }
    let candidates: Vec<usize> = (lo..=hi).collect();
    let base = TrainConfig::new(lo).with_min_init_actions(min_init);
    let sweep = upskill_core::model_selection::sweep_skill_counts(
        &dataset,
        &candidates,
        &base,
        frac,
        seed,
    )?;
    println!("S   held-out LL     per action");
    for c in &sweep {
        println!(
            "{:<3} {:14.1} {:12.4}",
            c.n_levels, c.heldout_ll, c.heldout_ll_per_action
        );
    }
    match upskill_core::model_selection::best_skill_count(&sweep) {
        Some(best) => println!(
            "
selected S = {best}"
        ),
        None => println!(
            "
no candidate evaluated"
        ),
    }
    Ok(())
}

fn ingest(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "session",
        "data",
        "model",
        "assignments",
        "actions",
        "lambda",
        "out",
        "assignments-out",
        "data-out",
        "session-out",
    ])?;
    let actions: Vec<Action> = read_json(args.required("actions")?)?;
    let out = args.required("out")?;

    // Either resume a snapshotted session, or assemble one from a trained
    // model's artifacts (the skill count comes from the model itself).
    let mut session = match args.optional("session") {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| CliError::Io {
                op: "read",
                path: path.to_string(),
                source: e,
            })?;
            SessionBundle::from_json(&text)?.resume()?
        }
        None => {
            let dataset = read_dataset(args.required("data")?)?;
            let model: SkillModel = read_json(args.required("model")?)?;
            let assignments: SkillAssignments = read_json(args.required("assignments")?)?;
            let lambda: f64 = args.parse_or("lambda", 0.01)?;
            let config = TrainConfig::new(model.n_levels()).with_lambda(lambda);
            StreamingSession::new(
                dataset,
                assignments,
                config,
                ParallelConfig::sequential(),
                RefitPolicy::EveryBatch,
            )?
        }
    };

    let levels = session.ingest_batch(&actions)?;
    let bundle = session.snapshot("upskill ingest");
    let ll =
        upskill_core::update::log_likelihood(&bundle.dataset, &bundle.assignments, &bundle.model)?;

    write_json(out, &bundle.model)?;
    println!(
        "ingested {} actions into {} users ({} total); log-likelihood {:.1}; wrote {out}",
        levels.len(),
        session.n_users(),
        bundle.dataset.n_actions(),
        ll
    );
    if let Some(path) = args.optional("assignments-out") {
        write_json(path, &bundle.assignments)?;
        println!("wrote {path}");
    }
    if let Some(path) = args.optional("data-out") {
        write_json(path, &bundle.dataset)?;
        println!("wrote {path}");
    }
    if let Some(path) = args.optional("session-out") {
        let text = bundle.to_json()?;
        fs::write(path, text).map_err(|e| CliError::Io {
            op: "write",
            path: path.to_string(),
            source: e,
        })?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `p`-th percentile (by nearest-rank) of an unsorted latency sample,
/// in seconds.
fn percentile_seconds(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64 / 1e9
}

/// Per-worker latency samples (ingest, predict, recommend), in ns.
type LaneSamples = (Vec<u64>, Vec<u64>, Vec<u64>);

/// `serve-bench`: a scaled-down, in-process twin of the `bench_serve`
/// experiment binary — trains a base model on a synthetic population,
/// puts it behind a concurrent [`SkillService`], and drives a mixed
/// ingest/predict/recommend workload from `--threads` OS threads over
/// disjoint live-user ranges, printing throughput and tail latencies.
fn serve_bench(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "users",
        "live-users",
        "items",
        "levels",
        "ops",
        "threads",
        "shards",
        "refit-every",
        "seed",
    ])?;
    let users: usize = args.parse_or("users", 2_000)?;
    let live_users: usize = args.parse_or("live-users", 5_000)?;
    let items: usize = args.parse_or("items", 2_000)?;
    let levels: usize = args.parse_or("levels", 5)?;
    let ops: u64 = args.parse_or("ops", 100_000u64)?;
    let threads: usize = args.parse_or("threads", 1)?;
    let shards: usize = args.parse_or("shards", 8)?;
    let refit_every: usize = args.parse_or("refit-every", 1_000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    if threads == 0 || live_users < threads {
        return Err(CliError::Usage("need 1 <= threads <= live-users".into()));
    }
    // One client lane per thread: bounded like every worker count.
    ParallelConfig::all(threads).validate()?;
    if refit_every == 0 {
        return Err(CliError::Usage("need refit-every >= 1".into()));
    }

    let synth = upskill_datasets::synthetic::SyntheticConfig {
        n_users: users,
        n_items: items,
        n_levels: levels,
        mean_sequence_len: 20.0,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 10,
        seed,
    };
    let base = upskill_datasets::synthetic::generate(&synth)?;
    let config = TrainConfig::new(levels)
        .with_min_init_actions(10)
        .with_max_iterations(3)
        .with_lambda(0.01);
    let result = train(&base.dataset, &config)?;
    let n_base = base.dataset.n_users();
    // Live traffic may only reference items the trained catalog covers;
    // with sparse synthetic data that can be fewer than `--items`.
    let catalog_items = base.dataset.n_items();
    let service = SkillService::resume(
        base.dataset,
        &result,
        config,
        ParallelConfig::sequential(),
        ServeConfig {
            n_shards: shards,
            policy: RefitPolicy::EveryNActions(refit_every),
            tuner: Some(RefitTuner::new(3, refit_every, 1_000_000)?),
            ..ServeConfig::default()
        },
    )?;
    println!("base model ready: {n_base} users, {catalog_items} items, {levels} levels");

    // Mixed load over disjoint per-thread live-user ranges, all above
    // the base population so per-user time stays monotone without
    // coordination (the base dataset's timestamps are far below 1e9).
    let span = (live_users / threads).max(1) as UserId;
    let ops_per_thread = ops / threads as u64;
    let start = std::time::Instant::now();
    // lint:allow(raw-spawn): concurrent client lanes of the load twin,
    // not a split of one step's work.
    let lanes: Vec<Result<LaneSamples, CliError>> = std::thread::scope(|scope| {
        let service = &service;
        (0..threads)
            .map(|lane| {
                scope.spawn(move || {
                    let lo = n_base as UserId + lane as UserId * span;
                    let hi = lo + span;
                    let mut rng = SplitMix64::new(seed ^ (0xabcd << 16) ^ lane as u64);
                    let mut touched: Vec<UserId> = Vec::new();
                    let mut seen = vec![false; span as usize];
                    let mut clock: i64 = 1_000_000_000;
                    let (mut ih, mut ph, mut rh) = (Vec::new(), Vec::new(), Vec::new());
                    for _ in 0..ops_per_thread {
                        let dice = rng.next_u64() % 100;
                        if dice < 65 || touched.is_empty() {
                            let user = lo + (rng.next_u64() % (hi - lo) as u64) as UserId;
                            let item = (rng.next_u64() % catalog_items as u64) as ItemId;
                            clock += 1;
                            let t0 = std::time::Instant::now();
                            service.ingest(Action::new(clock, user, item))?;
                            ih.push(t0.elapsed().as_nanos() as u64);
                            if !seen[(user - lo) as usize] {
                                seen[(user - lo) as usize] = true;
                                touched.push(user);
                            }
                        } else if dice < 90 {
                            let user = touched[(rng.next_u64() % touched.len() as u64) as usize];
                            let mode = match rng.next_u64() % 20 {
                                0 => PredictMode::Smoothed,
                                1 => PredictMode::Posterior,
                                n if n % 2 == 0 => PredictMode::Committed,
                                _ => PredictMode::Filtered,
                            };
                            let t0 = std::time::Instant::now();
                            service.predict(user, mode)?;
                            ph.push(t0.elapsed().as_nanos() as u64);
                        } else {
                            let user = touched[(rng.next_u64() % touched.len() as u64) as usize];
                            let t0 = std::time::Instant::now();
                            service.recommend(user, Some(10))?;
                            rh.push(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    Ok((ih, ph, rh))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("serve-bench worker panicked"))
            })
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (mut ingest_ns, mut predict_ns, mut recommend_ns) = (Vec::new(), Vec::new(), Vec::new());
    for lane in lanes {
        let (ih, ph, rh) = lane?;
        ingest_ns.extend(ih);
        predict_ns.extend(ph);
        recommend_ns.extend(rh);
    }
    let done = (ingest_ns.len() + predict_ns.len() + recommend_ns.len()) as f64;
    let stats = service.stats();
    println!(
        "ops: {done:.0} in {elapsed:.2}s ({:.0} ops/s)",
        done / elapsed
    );
    for (name, ns) in [
        ("ingest", &mut ingest_ns),
        ("predict", &mut predict_ns),
        ("recommend", &mut recommend_ns),
    ] {
        println!(
            "  {name:<9} {:8} ops  p50 {:7.1}us  p95 {:7.1}us  p99 {:7.1}us",
            ns.len(),
            percentile_seconds(ns, 50.0) * 1e6,
            percentile_seconds(ns, 95.0) * 1e6,
            percentile_seconds(ns, 99.0) * 1e6,
        );
    }
    println!(
        "users: {} ({} admitted live); epoch {} after {} refits; policy {:?}",
        stats.n_users,
        stats.n_users - n_base,
        stats.epoch,
        stats.refits,
        stats.policy,
    );
    Ok(())
}

/// `policy-eval`: the closed-loop upskilling comparison from
/// `upskill-eval` on a user-supplied dataset — trains one model, then
/// races two simulated learner arms (static band recommendation vs the
/// adaptive hybrid policy) to the top level and reports actions-to-
/// target medians plus the adaptive-over-static speedup. A scaled-down,
/// file-driven twin of the `bench_policy` experiment binary.
fn policy_eval(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&[
        "data", "levels", "learners", "budget", "threads", "seed", "min-init", "out",
    ])?;
    let dataset = read_dataset(args.required("data")?)?;
    let levels: usize = args.parse_or("levels", 5)?;
    let learners: usize = args.parse_or("learners", 24)?;
    let budget: usize = args.parse_or("budget", 300)?;
    let threads: usize = args.parse_or("threads", 1)?;
    let seed: u64 = args.parse_or("seed", 7)?;
    let min_init: usize = args.parse_or("min-init", 10)?;

    let mut cfg = upskill_eval::upskilling::UpskillEvalConfig::hybrid(levels);
    cfg.n_learners = learners;
    cfg.threads = threads;
    cfg.learner.max_actions = budget;
    cfg.learner.seed = seed;
    cfg.train = TrainConfig::new(levels)
        .with_min_init_actions(min_init)
        .with_max_iterations(3)
        .with_lambda(0.01);
    let report = upskill_eval::upskilling::evaluate_upskilling(&dataset, "cli", &cfg)
        .map_err(|e| CliError::Usage(format!("policy evaluation failed: {e}")))?;

    println!(
        "{} learners per arm, {budget}-action budget, target level {} ({} items):",
        learners, report.target, report.n_items
    );
    for (label, arm) in [
        ("static", &report.static_arm),
        ("adaptive", &report.adaptive_arm),
    ] {
        println!(
            "  {label:<9} median {:6.1}  mean {:6.1}  reached {}/{}",
            arm.median_actions, arm.mean_actions, arm.reached, arm.n_learners
        );
    }
    println!("adaptive-over-static speedup: {:.2}x", report.speedup);
    if let Some(out) = args.optional("out") {
        write_json(out, &report)?;
        println!("wrote {out}");
    }
    Ok(())
}

fn recommend(args: &Args) -> Result<(), CliError> {
    args.reject_unknown(&["data", "model", "difficulty", "level", "k"])?;
    let dataset = read_dataset(args.required("data")?)?;
    let model: SkillModel = read_json(args.required("model")?)?;
    let difficulty: Vec<Option<f64>> = read_json(args.required("difficulty")?)?;
    let level: u8 = args.parse_or("level", 1)?;
    let k: usize = args.parse_or("k", 10)?;
    let filled: Vec<f64> = difficulty
        .iter()
        .map(|d| d.unwrap_or((1 + model.n_levels()) as f64 / 2.0))
        .collect();
    let config = RecommendConfig {
        k,
        ..RecommendConfig::default()
    };
    let recs = recommend_for_level(&model, &dataset, &filled, level, &|_| false, &config)?;
    if recs.is_empty() {
        println!("no items in the difficulty band for level {level}");
        return Ok(());
    }
    println!(
        "top {} upskilling items for a level-{level} user:",
        recs.len()
    );
    for r in recs {
        println!(
            "  item {:6}  difficulty {:.2}  fit {:.2}  interest {:.2}  score {:.3}",
            r.item, r.difficulty, r.difficulty_fit, r.interest, r.score
        );
    }
    Ok(())
}
