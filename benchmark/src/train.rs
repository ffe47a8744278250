//! The training workloads (`train-stream`, `select-s`) and the trainer
//! replays that break a trainer call down by layer.
//!
//! A replay re-runs a trainer's loop through the same public functions
//! the trainer calls, timing each call. It must reproduce the trainer's
//! per-iteration log-likelihood and churn bit for bit; the traced run
//! fails otherwise, so the breakdown always describes the code that ran.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use upskill_core::assign::{assign_items_with_table_ws, AssignWorkspace};
use upskill_core::chunked::{
    initialize_model_chunked, materialize, train_chunked, AssignmentStorage, ChunkSource,
    DatasetChunk, DatasetChunks,
};
use upskill_core::emission::EmissionTable;
use upskill_core::error::Result as CoreResult;
use upskill_core::incremental::StatsGrid;
use upskill_core::init::initialize_model;
use upskill_core::model::SkillModel;
use upskill_core::model_selection::{heldout_log_likelihood, split_actions, sweep_skill_counts};
use upskill_core::parallel::{assign_all_parallel_with_table, ParallelConfig};
use upskill_core::train::{train, train_with_parallelism, IterationStats, TrainConfig};
use upskill_core::types::{Dataset, SkillAssignments};
use upskill_datasets::chunked::ChunkedSyntheticSource;
use upskill_datasets::synthetic::{generate, SyntheticConfig};

use crate::trace::{Clock, Spans};
use crate::{median, overhead_pct, split_traced, Check, Ctx, Digest, Report, THREADS};

/// The §VI-A generator with the paper's level dynamics.
pub fn synth(n_users: usize, n_items: usize, mean_len: f64, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        n_users,
        n_items,
        n_levels: 5,
        mean_sequence_len: mean_len,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 10,
        seed,
    }
}

/// Trainer settings shared by the workloads. A zero tolerance pins the
/// iteration count, so every seed does the same amount of work.
pub fn train_config(n_levels: usize, min_init: usize, iterations: usize) -> TrainConfig {
    TrainConfig::new(n_levels)
        .with_min_init_actions(min_init)
        .with_max_iterations(iterations)
        .with_lambda(0.01)
        .with_tolerance(0.0)
}

/// Digest of a trainer's observable output.
fn digest_training(model: &SkillModel, ll: f64, trace: &[IterationStats]) -> u64 {
    let json = serde_json::to_string(model).unwrap_or_default();
    let mut d = Digest::default().bytes(json.as_bytes()).float(ll);
    for t in trace {
        d = d
            .word(t.iteration as u64)
            .float(t.log_likelihood)
            .word(t.n_changed.map_or(u64::MAX, |n| n as u64));
    }
    d.finish()
}

/// Per-iteration `(log-likelihood, churn)`: what a replay must match.
type TraceKey = Vec<(u64, Option<usize>)>;

fn trace_key(trace: &[IterationStats]) -> TraceKey {
    trace
        .iter()
        .map(|t| (t.log_likelihood.to_bits(), t.n_changed))
        .collect()
}

/// Per-layer time and work of the replayed trainer calls.
#[derive(Debug, Default)]
pub struct TrainLayers {
    init_s: f64,
    emission_s: f64,
    emission_cells: u64,
    dp_s: f64,
    dp_actions: u64,
    grid_s: f64,
    fit_s: f64,
    fit_dirty: u64,
    fit_levels: u64,
    changed: u64,
    churn_actions: u64,
    iterations: u64,
    /// Actions × trainer iterations: the denominator of passes/action.
    action_iterations: u64,
    heldout_s: f64,
    /// Wall time of the replay's timed calls on the coordinating thread.
    attributed_s: f64,
}

impl TrainLayers {
    /// Times `f` as one call of a layer: its wall time goes to `slot`
    /// and to the attributed total, and it becomes a span.
    fn call<T>(
        &mut self,
        spans: &mut Spans,
        name: &'static str,
        parent: u64,
        request: u64,
        slot: fn(&mut Self) -> &mut f64,
        f: impl FnOnce() -> CoreResult<T>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let out = f().map_err(|e| format!("{name}: {e}"))?;
        let end = Instant::now();
        let dt = (end - t).as_secs_f64();
        *slot(self) += dt;
        self.attributed_s += dt;
        spans.push(name, t, end, parent, request);
        Ok(out)
    }

    /// Reports the layer metrics of one replayed round; `real_s` is the
    /// real round's median wall time, for `train.unattributed_s`.
    pub fn report(&self, report: &mut Report, real_s: f64) {
        report.metric("train.init.busy_s", self.init_s);
        report.metric("emission.build.busy_s", self.emission_s);
        report.metric("emission.build.cells", self.emission_cells as f64);
        report.metric("assign.dp.busy_s", self.dp_s);
        report.metric("assign.dp.actions", self.dp_actions as f64);
        report.metric(
            "assign.dp.passes_per_action",
            self.dp_actions as f64 / self.action_iterations.max(1) as f64,
        );
        report.metric("incremental.grid.busy_s", self.grid_s);
        report.metric("incremental.fit.busy_s", self.fit_s);
        report.metric(
            "incremental.fit.dirty_ratio",
            self.fit_dirty as f64 / self.fit_levels.max(1) as f64,
        );
        report.metric(
            "train.churn_ratio",
            self.changed as f64 / self.churn_actions.max(1) as f64,
        );
        report.metric("train.iterations", self.iterations as f64);
        report.metric("model_selection.heldout.busy_s", self.heldout_s);
        report.metric("train.unattributed_s", real_s - self.attributed_s);
    }
}

/// Convergence rule of both trainers.
fn converged(n_changed: Option<usize>, ll: f64, prev_ll: f64, cfg: &TrainConfig) -> bool {
    n_changed == Some(0)
        || (prev_ll.is_finite() && (ll - prev_ll).abs() <= cfg.tolerance * prev_ll.abs().max(1.0))
}

/// Builds the emission table, or refreshes only the refit levels'
/// columns when the previous update reported them — the trainers' rule.
#[allow(clippy::too_many_arguments)]
fn emission_step(
    layers: &mut TrainLayers,
    spans: &mut Spans,
    iter_span: u64,
    request: u64,
    table: &mut Option<EmissionTable>,
    model: &SkillModel,
    view: &Dataset,
    parallel: &ParallelConfig,
    refit_levels: &[bool],
) -> Result<(), String> {
    let n_levels = model.n_levels();
    let refresh = refit_levels.len() == n_levels && table.is_some();
    let slot: fn(&mut TrainLayers) -> &mut f64 = |l| &mut l.emission_s;
    if refresh {
        let t = table.as_mut().expect("refresh implies a table");
        layers.call(spans, "emission.refresh", iter_span, request, slot, || {
            t.refresh_levels(model, view, refit_levels)
        })?;
        let dirty = refit_levels.iter().filter(|&&d| d).count();
        layers.emission_cells += (dirty * view.n_items()) as u64;
    } else {
        let built = layers.call(spans, "emission.build", iter_span, request, slot, || {
            if parallel.users && parallel.threads > 1 {
                EmissionTable::build_parallel(model, view, parallel.threads)
            } else {
                Ok(EmissionTable::build(model, view))
            }
        })?;
        *table = Some(built);
        layers.emission_cells += (n_levels * view.n_items()) as u64;
    }
    Ok(())
}

/// `fit_model_incremental` after recording how many levels it refits.
#[allow(clippy::too_many_arguments)]
fn fit_step(
    layers: &mut TrainLayers,
    spans: &mut Spans,
    iter_span: u64,
    request: u64,
    grid: &mut StatsGrid,
    view: &Dataset,
    cfg: &TrainConfig,
    parallel: &ParallelConfig,
    model: &SkillModel,
) -> Result<SkillModel, String> {
    layers.fit_dirty += grid.dirty_levels().iter().filter(|&&d| d).count() as u64;
    layers.fit_levels += cfg.n_levels as u64;
    layers.call(
        spans,
        "incremental.fit",
        iter_span,
        request,
        |l| &mut l.fit_s,
        || grid.fit_model_incremental(view, cfg.lambda, parallel, Some(model)),
    )
}

/// One worker of the chunked replay: its buffers and per-layer busy
/// time.
struct Worker {
    chunk: DatasetChunk,
    ws: AssignWorkspace,
    prev_ws: AssignWorkspace,
    grid: Option<StatsGrid>,
    dp_ns: u64,
    dp_actions: u64,
    grid_ns: u64,
    spans: Spans,
}

/// One chunk: load, DP against this iteration's table, grid adds, and
/// the `Recompute` churn count (DP against the previous table).
fn replay_chunk<S: ChunkSource + ?Sized>(
    source: &S,
    table: &EmissionTable,
    prev: Option<&EmissionTable>,
    index: usize,
    w: &mut Worker,
    parent: u64,
    request: u64,
) -> Result<(Vec<f64>, Option<usize>), String> {
    let t0 = Instant::now();
    source
        .load_chunk(index, &mut w.chunk)
        .map_err(|e| format!("load_chunk: {e}"))?;
    let t1 = Instant::now();
    w.spans.push("datasets.load_chunk", t0, t1, parent, request);
    let chunk = &w.chunk;
    let mut lls = Vec::with_capacity(chunk.n_users());
    let mut levels = Vec::with_capacity(chunk.n_actions());
    for u in 0..chunk.n_users() {
        let a = assign_items_with_table_ws(table, chunk.user_items(u), &mut w.ws)
            .map_err(|e| format!("assign: {e}"))?;
        lls.push(a.log_likelihood);
        levels.extend_from_slice(&a.levels);
    }
    let t2 = Instant::now();
    w.spans.push("assign.dp", t1, t2, parent, request);
    w.dp_ns += (t2 - t1).as_nanos() as u64;
    w.dp_actions += chunk.n_actions() as u64;
    if let Some(g) = w.grid.as_mut() {
        for (&item, &level) in chunk.items().iter().zip(&levels) {
            g.add_action(item, level)
                .map_err(|e| format!("grid: {e}"))?;
        }
        let t3 = Instant::now();
        w.spans
            .push("incremental.grid.add", t2, t3, parent, request);
        w.grid_ns += (t3 - t2).as_nanos() as u64;
    }
    let changed = match prev {
        None => None,
        Some(prev) => {
            let t3 = Instant::now();
            let (mut changed, mut offset) = (0usize, 0usize);
            for u in 0..chunk.n_users() {
                let items = chunk.user_items(u);
                let p = assign_items_with_table_ws(prev, items, &mut w.prev_ws)
                    .map_err(|e| format!("assign: {e}"))?;
                changed += p
                    .levels
                    .iter()
                    .zip(&levels[offset..offset + items.len()])
                    .filter(|(a, b)| a != b)
                    .count();
                offset += items.len();
            }
            let t4 = Instant::now();
            w.spans.push("assign.dp.prev", t3, t4, parent, request);
            w.dp_ns += (t4 - t3).as_nanos() as u64;
            w.dp_actions += chunk.n_actions() as u64;
            Some(changed)
        }
    };
    Ok((lls, changed))
}

/// Replays `train_chunked` with `Recompute` storage: waves of workers
/// over chunks, the log-likelihood folded in chunk order, worker grids
/// merged, dirty levels recovered with `mark_dirty_from`.
pub fn replay_chunked<S: ChunkSource + ?Sized>(
    source: &S,
    cfg: &TrainConfig,
    parallel: &ParallelConfig,
    layers: &mut TrainLayers,
    spans: &mut Spans,
    clock: Clock,
    request: u64,
) -> Result<TraceKey, String> {
    let view = source.item_view();
    let (n_levels, n_items) = (cfg.n_levels, view.n_items());
    let root = spans.id();
    let started = Instant::now();
    let mut model = layers.call(
        spans,
        "train.init",
        root,
        request,
        |l| &mut l.init_s,
        || initialize_model_chunked(source, n_levels, cfg.min_init_actions, cfg.lambda),
    )?;
    let n_chunks = source.n_chunks();
    let n_workers = parallel.workers_for_chunks(n_chunks);
    let mut table: Option<EmissionTable> = None;
    let mut prev_table: Option<EmissionTable> = None;
    let mut prev_grid: Option<StatsGrid> = None;
    let mut refit_levels: Vec<bool> = Vec::new();
    let mut prev_ll = f64::NEG_INFINITY;
    let mut key = TraceKey::new();
    for iteration in 1..=cfg.max_iterations + 1 {
        let closing = iteration > cfg.max_iterations;
        let iter_span = spans.id();
        let iter_start = Instant::now();
        emission_step(
            layers,
            spans,
            iter_span,
            request,
            &mut table,
            &model,
            view,
            parallel,
            &refit_levels,
        )?;
        let t = table.as_ref().expect("emission step leaves a table");
        let mut workers: Vec<Worker> = (0..n_workers)
            .map(|w| -> Result<Worker, String> {
                Ok(Worker {
                    chunk: DatasetChunk::new(),
                    ws: AssignWorkspace::new(),
                    prev_ws: AssignWorkspace::new(),
                    grid: if closing {
                        None
                    } else {
                        Some(StatsGrid::new(n_levels, n_items).map_err(|e| e.to_string())?)
                    },
                    dp_ns: 0,
                    dp_actions: 0,
                    grid_ns: 0,
                    spans: Spans::new(clock, w as u32 + 1),
                })
            })
            .collect::<Result<_, String>>()?;
        let pass_start = Instant::now();
        let mut ll = 0.0;
        let mut changed: Option<usize> = None;
        for wave in (0..n_chunks).step_by(n_workers) {
            let len = n_workers.min(n_chunks - wave);
            let prev = prev_table.as_ref();
            let outcomes: Vec<_> = if len == 1 {
                vec![replay_chunk(
                    source,
                    t,
                    prev,
                    wave,
                    &mut workers[0],
                    iter_span,
                    request,
                )]
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = workers[..len]
                        .iter_mut()
                        .enumerate()
                        .map(|(i, w)| {
                            scope.spawn(move || {
                                replay_chunk(source, t, prev, wave + i, w, iter_span, request)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or(Err("replay worker panicked".into())))
                        .collect()
                })
            };
            for outcome in outcomes {
                let (lls, n) = outcome?;
                for x in lls {
                    ll += x;
                }
                if let Some(n) = n {
                    changed = Some(changed.unwrap_or(0) + n);
                }
            }
        }
        let pass_end = Instant::now();
        spans.push("train.pass", pass_start, pass_end, iter_span, request);
        layers.attributed_s += (pass_end - pass_start).as_secs_f64();
        let mut grid: Option<StatsGrid> = None;
        for w in &mut workers {
            layers.dp_s += w.dp_ns as f64 * 1e-9;
            layers.dp_actions += w.dp_actions;
            layers.grid_s += w.grid_ns as f64 * 1e-9;
            spans.append(&mut w.spans);
        }
        layers.iterations += 1;
        layers.action_iterations += source.n_actions() as u64;
        if let Some(n) = changed {
            layers.changed += n as u64;
            layers.churn_actions += source.n_actions() as u64;
        }
        key.push((ll.to_bits(), changed));
        if closing {
            spans.push_with_id(
                iter_span,
                "train.iteration",
                iter_start,
                Instant::now(),
                root,
                request,
            );
            break;
        }
        let partials: Vec<StatsGrid> = workers.into_iter().filter_map(|w| w.grid).collect();
        layers.call(
            spans,
            "incremental.grid.merge",
            iter_span,
            request,
            |l| &mut l.grid_s,
            || {
                for p in partials {
                    match grid.as_mut() {
                        Some(g) => g.merge(&p)?,
                        None => grid = Some(p),
                    }
                }
                if let (Some(g), Some(pg)) = (grid.as_mut(), prev_grid.as_ref()) {
                    g.mark_dirty_from(pg)?;
                }
                Ok(())
            },
        )?;
        let mut grid = grid.ok_or("no chunks to train on")?;
        let done = converged(changed, ll, prev_ll, cfg);
        refit_levels = grid.dirty_levels().to_vec();
        prev_table = table.clone();
        let pristine = grid.clone();
        model = fit_step(
            layers, spans, iter_span, request, &mut grid, view, cfg, parallel, &model,
        )?;
        prev_grid = Some(pristine);
        spans.push_with_id(
            iter_span,
            "train.iteration",
            iter_start,
            Instant::now(),
            root,
            request,
        );
        if done {
            break;
        }
        prev_ll = ll;
    }
    spans.push_with_id(root, "train.replay", started, Instant::now(), 0, request);
    Ok(key)
}

/// Churn between two assignments (the in-memory trainer's closing-pass
/// count).
fn count_changed(a: &SkillAssignments, b: &SkillAssignments) -> usize {
    a.per_user
        .iter()
        .zip(&b.per_user)
        .map(|(x, y)| x.iter().zip(y).filter(|(l, r)| l != r).count())
        .sum()
}

/// Replays `train_with_parallelism` (incremental grid, persistent
/// emission table) and returns its trace key with the final model and
/// assignments.
pub fn replay_in_memory(
    dataset: &Dataset,
    cfg: &TrainConfig,
    parallel: &ParallelConfig,
    layers: &mut TrainLayers,
    spans: &mut Spans,
    request: u64,
) -> Result<(TraceKey, SkillModel, SkillAssignments), String> {
    let n_levels = cfg.n_levels;
    let n_actions = dataset.n_actions() as u64;
    let root = spans.id();
    let started = Instant::now();
    let mut model = layers.call(
        spans,
        "train.init",
        root,
        request,
        |l| &mut l.init_s,
        || initialize_model(dataset, n_levels, cfg.min_init_actions, cfg.lambda),
    )?;
    let mut table: Option<EmissionTable> = None;
    let mut grid: Option<StatsGrid> = None;
    let mut prev: Option<SkillAssignments> = None;
    let mut refit_levels: Vec<bool> = Vec::new();
    let mut prev_ll = f64::NEG_INFINITY;
    let mut key = TraceKey::new();
    for iteration in 1..=cfg.max_iterations + 1 {
        let closing = iteration > cfg.max_iterations;
        let iter_span = spans.id();
        let iter_start = Instant::now();
        emission_step(
            layers,
            spans,
            iter_span,
            request,
            &mut table,
            &model,
            dataset,
            parallel,
            &refit_levels,
        )?;
        let t = table.as_ref().expect("emission step leaves a table");
        let (assignments, ll) = layers.call(
            spans,
            "assign.dp",
            iter_span,
            request,
            |l| &mut l.dp_s,
            || assign_all_parallel_with_table(t, dataset, parallel),
        )?;
        layers.dp_actions += n_actions;
        layers.iterations += 1;
        layers.action_iterations += n_actions;
        let changed = if closing {
            prev.as_ref().map(|p| count_changed(p, &assignments))
        } else {
            layers.call(
                spans,
                "incremental.grid",
                iter_span,
                request,
                |l| &mut l.grid_s,
                || {
                    Ok(match (grid.as_mut(), prev.as_ref()) {
                        (Some(g), Some(p)) => {
                            Some(g.apply_delta_with_config(dataset, p, &assignments, parallel)?)
                        }
                        _ => {
                            grid = Some(StatsGrid::build_with_config(
                                dataset,
                                &assignments,
                                n_levels,
                                parallel,
                            )?);
                            None
                        }
                    })
                },
            )?
        };
        if let Some(n) = changed {
            layers.changed += n as u64;
            layers.churn_actions += n_actions;
        }
        key.push((ll.to_bits(), changed));
        if closing {
            spans.push_with_id(
                iter_span,
                "train.iteration",
                iter_start,
                Instant::now(),
                root,
                request,
            );
            return finish(spans, root, started, request, key, model, assignments);
        }
        let g = grid.as_mut().expect("grid built on the first iteration");
        let done = converged(changed, ll, prev_ll, cfg);
        refit_levels = g.dirty_levels().to_vec();
        model = fit_step(
            layers, spans, iter_span, request, g, dataset, cfg, parallel, &model,
        )?;
        spans.push_with_id(
            iter_span,
            "train.iteration",
            iter_start,
            Instant::now(),
            root,
            request,
        );
        if done {
            return finish(spans, root, started, request, key, model, assignments);
        }
        prev = Some(assignments);
        prev_ll = ll;
    }
    unreachable!("the closing pass returns")
}

fn finish(
    spans: &mut Spans,
    root: u64,
    started: Instant,
    request: u64,
    key: TraceKey,
    model: SkillModel,
    assignments: SkillAssignments,
) -> Result<(TraceKey, SkillModel, SkillAssignments), String> {
    spans.push_with_id(root, "train.replay", started, Instant::now(), 0, request);
    Ok((key, model, assignments))
}

/// Checks a replay against the real trainer's trace.
pub fn replay_check(replay: &TraceKey, real: &[IterationStats]) -> Check {
    Check::expect(*replay == trace_key(real), || {
        format!("replay {replay:?} vs trainer {:?}", trace_key(real))
    })
}

/// A [`ChunkSource`] that times every `load_chunk` the trainer makes.
struct TimedSource<'a, S: ?Sized> {
    inner: &'a S,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    spans: Mutex<Spans>,
    request: u64,
}

impl<S: ChunkSource + ?Sized> ChunkSource for TimedSource<'_, S> {
    fn item_view(&self) -> &Dataset {
        self.inner.item_view()
    }

    fn n_users(&self) -> usize {
        self.inner.n_users()
    }

    fn n_actions(&self) -> usize {
        self.inner.n_actions()
    }

    fn chunk_size(&self) -> usize {
        self.inner.chunk_size()
    }

    fn load_chunk(&self, index: usize, out: &mut DatasetChunk) -> CoreResult<()> {
        let t = Instant::now();
        let r = self.inner.load_chunk(index, out);
        let end = Instant::now();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add((end - t).as_nanos() as u64, Ordering::Relaxed);
        if let Ok(mut spans) = self.spans.lock() {
            spans.push("datasets.load_chunk", t, end, 0, self.request);
        }
        r
    }
}

struct StreamSize {
    users: usize,
    items: usize,
    mean_len: f64,
    chunk: usize,
    iterations: usize,
    gate_users: usize,
}

/// `train-stream`: chunked training with two workers.
pub fn stream(ctx: &Ctx) -> Result<Report, String> {
    let size = ctx.size.pick(
        StreamSize {
            users: 8 * 4096,
            items: 50_000,
            mean_len: 100.0,
            chunk: 4096,
            iterations: 4,
            gate_users: 2_000,
        },
        StreamSize {
            users: 600,
            items: 500,
            mean_len: 30.0,
            chunk: 128,
            iterations: 2,
            gate_users: 200,
        },
    );
    let cfg = train_config(5, 30, size.iterations);
    let parallel = ParallelConfig::all(THREADS);
    let stream_cfg = synth(size.users, size.items, size.mean_len, ctx.seed);
    let mut report = Report::new(ctx);
    let (mut load_calls, mut load_ns) = (0u64, 0u64);

    let rounds = ctx.rounds(
        || ChunkedSyntheticSource::new(&stream_cfg, size.chunk).map_err(|e| e.to_string()),
        |source, i| {
            let result = if ctx.traced(i) {
                let timed = TimedSource {
                    inner: &*source,
                    calls: AtomicU64::new(0),
                    busy_ns: AtomicU64::new(0),
                    spans: Mutex::new(Spans::new(ctx.clock, 100 + i as u32)),
                    request: i as u64,
                };
                let r = train_chunked(&timed, &cfg, &parallel, AssignmentStorage::Recompute);
                load_calls += timed.calls.load(Ordering::Relaxed);
                load_ns += timed.busy_ns.load(Ordering::Relaxed);
                if let Ok(mut s) = timed.spans.into_inner() {
                    report.spans.append(&mut s);
                }
                r
            } else {
                train_chunked(&*source, &cfg, &parallel, AssignmentStorage::Recompute)
            };
            result.map_err(|e| format!("train_chunked: {e}"))
        },
    )?;
    report.attempted = rounds.out.len() as u64;

    let throughput: Vec<f64> = rounds
        .out
        .iter()
        .zip(&rounds.round_s)
        .map(|(r, s)| (r.n_actions * r.trace.len()) as f64 / s)
        .collect();
    let digests: Vec<u64> = rounds
        .out
        .iter()
        .map(|r| digest_training(&r.model, r.log_likelihood, &r.trace))
        .collect();
    report.check(
        "rounds_agree",
        Check::expect(digests.iter().all(|&d| d == digests[0]), || {
            format!("round digests differ: {digests:x?}")
        }),
    );
    report.check("output", Check::Digest(digests[0]));
    report.check(
        "chunked_eq_inmemory",
        stream_gate(&size, &cfg, &parallel, ctx.seed)?,
    );

    if ctx.trace {
        let (plain, traced) = split_traced(ctx, &rounds.round_s);
        let source =
            ChunkedSyntheticSource::new(&stream_cfg, size.chunk).map_err(|e| e.to_string())?;
        let mut layers = TrainLayers::default();
        let key = replay_chunked(
            &source,
            &cfg,
            &parallel,
            &mut layers,
            &mut report.spans,
            ctx.clock,
            0,
        )?;
        report.check(
            "replay_eq_trainer",
            replay_check(&key, &rounds.out[0].trace),
        );
        let traced_rounds = traced.len() as f64;
        layers.report(&mut report, median(&plain));
        report.metric(
            "datasets.load_chunk.calls",
            load_calls as f64 / traced_rounds,
        );
        report.metric(
            "datasets.load_chunk.busy_s",
            load_ns as f64 * 1e-9 / traced_rounds,
        );
        report.metric("trace.overhead_pct", overhead_pct(ctx, &rounds.round_s));
    } else {
        // One trainer call per round: a handful of calls has no tail, so
        // p50 and p99 are both the median call.
        let call_us: Vec<f64> = rounds.round_s.iter().map(|s| s * 1e6).collect();
        report.end_to_end(&rounds.setup_s, &throughput, &call_us, &call_us);
    }
    Ok(report)
}

/// Chunked (two workers, `Recompute`) equals the sequential in-memory
/// trainer on a small materialized stream of the same generator.
fn stream_gate(
    size: &StreamSize,
    cfg: &TrainConfig,
    parallel: &ParallelConfig,
    seed: u64,
) -> Result<Check, String> {
    let small = synth(size.gate_users, size.items.min(2_500), 40.0, seed ^ 0x5eed);
    let source = ChunkedSyntheticSource::new(&small, 257).map_err(|e| e.to_string())?;
    let data = materialize(&source).map_err(|e| e.to_string())?;
    let expect = train_with_parallelism(&data, cfg, &ParallelConfig::sequential())
        .map_err(|e| format!("in-memory train: {e}"))?;
    let got = train_chunked(&source, cfg, parallel, AssignmentStorage::Recompute)
        .map_err(|e| format!("chunked train: {e}"))?;
    Ok(Check::expect(
        got.model == expect.model
            && got.log_likelihood.to_bits() == expect.log_likelihood.to_bits()
            && trace_key(&got.trace) == trace_key(&expect.trace),
        || "chunked training diverged from the in-memory trainer".into(),
    ))
}

/// Candidate skill counts of the Fig. 3 sweep.
const CANDIDATES: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];
/// The candidate the gate trains both ways.
const GATE_S: usize = 5;

struct SelectSize {
    users: usize,
    items: usize,
    iterations: usize,
}

/// `select-s`: the held-out skill-count sweep (sequential).
pub fn select(ctx: &Ctx) -> Result<Report, String> {
    let size = ctx.size.pick(
        SelectSize {
            users: 20_000,
            items: 200_000,
            iterations: 3,
        },
        SelectSize {
            users: 300,
            items: 2_000,
            iterations: 2,
        },
    );
    let base = train_config(GATE_S, 10, size.iterations);
    let data_cfg = synth(size.users, size.items, 10.0, ctx.seed);
    let split_seed = ctx.seed ^ 0x0005_e1ec;
    let mut report = Report::new(ctx);

    let rounds = ctx.rounds(
        || {
            generate(&data_cfg)
                .map(|d| d.dataset)
                .map_err(|e| e.to_string())
        },
        |data, _| {
            sweep_skill_counts(data, &CANDIDATES, &base, 0.1, split_seed)
                .map_err(|e| format!("sweep_skill_counts: {e}"))
        },
    )?;
    report.attempted = rounds.out.len() as u64;

    let data = generate(&data_cfg).map_err(|e| e.to_string())?.dataset;
    let split = split_actions(&data, 0.1, split_seed).map_err(|e| e.to_string())?;
    let n_train = split.train.n_actions();
    let throughput: Vec<f64> = rounds
        .out
        .iter()
        .zip(&rounds.round_s)
        .map(|(c, s)| {
            c.iter()
                .map(|c| n_train * c.train_iterations)
                .sum::<usize>() as f64
                / s
        })
        .collect();
    let digests: Vec<u64> = rounds
        .out
        .iter()
        .map(|cands| {
            cands
                .iter()
                .fold(Digest::default(), |d, c| {
                    d.word(c.n_levels as u64)
                        .float(c.heldout_ll)
                        .word(c.n_scored as u64)
                        .word(c.train_iterations as u64)
                })
                .finish()
        })
        .collect();
    report.check(
        "rounds_agree",
        Check::expect(digests.iter().all(|&d| d == digests[0]), || {
            format!("round digests differ: {digests:x?}")
        }),
    );
    report.check("output", Check::Digest(digests[0]));

    // Gate: the chunked trainer over the split equals `train` for one S.
    let gate_cfg = TrainConfig {
        n_levels: GATE_S,
        ..base
    };
    let real = train(&split.train, &gate_cfg).map_err(|e| format!("train: {e}"))?;
    let chunks = DatasetChunks::new(&split.train, 4096).map_err(|e| e.to_string())?;
    let chunked = train_chunked(
        &chunks,
        &gate_cfg,
        &ParallelConfig::all(THREADS),
        AssignmentStorage::InMemory,
    )
    .map_err(|e| format!("train_chunked: {e}"))?;
    report.check(
        "chunked_eq_train",
        Check::expect(
            chunked.model == real.model
                && chunked.log_likelihood.to_bits() == real.log_likelihood.to_bits()
                && trace_key(&chunked.trace) == trace_key(&real.trace),
            || format!("chunked training diverged from train at S = {GATE_S}"),
        ),
    );

    if ctx.trace {
        let (plain, _) = split_traced(ctx, &rounds.round_s);
        let mut layers = TrainLayers::default();
        let mut heldout_eq = true;
        for (&s, cand) in CANDIDATES.iter().zip(&rounds.out[0]) {
            let cfg = TrainConfig {
                n_levels: s,
                ..base
            };
            let (key, model, assignments) = replay_in_memory(
                &split.train,
                &cfg,
                &ParallelConfig::sequential(),
                &mut layers,
                &mut report.spans,
                s as u64,
            )?;
            if s == GATE_S {
                report.check("replay_eq_trainer", replay_check(&key, &real.trace));
            }
            let (ll, _) = layers.call(
                &mut report.spans,
                "model_selection.heldout",
                0,
                s as u64,
                |l| &mut l.heldout_s,
                || heldout_log_likelihood(&model, &split, &assignments),
            )?;
            heldout_eq &= ll.to_bits() == cand.heldout_ll.to_bits();
        }
        report.check(
            "replay_heldout_eq_sweep",
            Check::expect(heldout_eq, || "replayed held-out likelihoods differ".into()),
        );
        layers.report(&mut report, median(&plain));
        report.metric("trace.overhead_pct", overhead_pct(ctx, &rounds.round_s));
    } else {
        // One trainer call per round: a handful of calls has no tail, so
        // p50 and p99 are both the median call.
        let call_us: Vec<f64> = rounds.round_s.iter().map(|s| s * 1e6).collect();
        report.end_to_end(&rounds.setup_s, &throughput, &call_us, &call_us);
    }
    Ok(report)
}
