//! Parallel training steps (paper §IV-C) and the one worker fan-out
//! they all run on.
//!
//! Three independent parallelization techniques, each toggleable so the
//! efficiency experiments (Table XIII, Fig. 7) can measure them separately:
//!
//! 1. **User-parallel assignment** — sequences are mutually independent, so
//!    the DP of the assignment step fans out across worker threads. The
//!    fan-out is the chunk pass of [`crate::chunked`], which training and
//!    every decode ([`assign_all_parallel_with_table`]) share.
//! 2. **Skill-parallel update** — parameters `θ_f(s)` and `θ_f(s')` are
//!    independent for `s ≠ s'`; workers own disjoint level sets.
//! 3. **Feature-parallel update** — our multi-faceted model additionally
//!    decomposes by feature (not available to the ID baseline); workers own
//!    disjoint feature sets.
//!
//! The update-step partition lives in the one M-step of
//! [`crate::incremental`], which
//! [`StatsGrid::refit`](crate::incremental::StatsGrid::refit),
//! [`MassGrid::refit`](crate::incremental::MassGrid::refit) and the
//! serving cut all run: it splits only the cells being refit, so a refit
//! of one dirty level still spreads its features over the workers.
//! The shared emission table and the incremental statistics are always on:
//! their from-scratch baselines (per-action emissions, full-rescan update)
//! live in [`crate::reference`] as oracles and speedup denominators only.
//! The direct path lost every measurement it was kept for — on a 200k-item
//! catalog with ~9 actions per item it still ran a skill-count sweep about
//! 4× slower than building the table.
//!
//! ## The fan-out
//!
//! [`fan_out`] is the library's one scoped-worker primitive: the chunk
//! pass (training, decodes, initialization, EM), the emission
//! fill, the `StatsGrid` build and delta, the M-step split and the
//! learner harness of `upskill-eval` all run on it. Workers claim
//! numbered jobs as they free up and own only scratch and order-free
//! integer partials; outcomes are applied on the calling thread in job
//! order, so the first error in job order wins and every order-sensitive
//! fold sees the sequential order. Every thread count gives bitwise the
//! sequential result.
//!
//! Each step has one body. One worker runs on the calling thread and
//! spawns nothing, so a step's one-worker form is its fan-out at one
//! worker, not a second loop: [`EmissionTable::build_parallel`] and
//! [`EmissionTable::refresh_levels`] fill the tiles of
//! [`EmissionTable::build`] with one masked tile body, the
//! [`StatsGrid`](crate::incremental::StatsGrid) build and delta are their
//! parallel forms at one worker, and
//! [`initialize_model`](crate::init::initialize_model) is the chunk
//! initializer on one worker. Steps that own state apply nothing until
//! every job has succeeded, so a rejected grid build or delta leaves the
//! grid untouched at every worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::chunked::{decode_chunks, in_memory_chunk_size, DatasetChunks};
use crate::emission::{EmissionRows, EmissionTable};
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::types::{Dataset, SkillAssignments};

/// The most worker threads any configuration may ask for. Thread counts
/// arrive from CLI flags and session bundles, so they are bounded before
/// anything spawns; [`ParallelConfig::validate`] rejects larger counts.
pub(crate) const MAX_THREADS: usize = 1024;

/// Jobs per worker when a step cuts its work into contiguous ranges, so
/// that workers which free up early take more of them: sequence lengths
/// vary widely, and one static range per worker would leave workers idle
/// behind the longest.
pub(crate) const JOBS_PER_WORKER: usize = 8;

/// Which steps run in parallel, and on how many worker threads.
///
/// Prefer the `with_*` builder methods over struct-literal field pokes:
///
/// ```
/// use upskill_core::parallel::ParallelConfig;
/// let cfg = ParallelConfig::sequential().with_users(true).with_threads(4);
/// assert!(cfg.users && cfg.threads == 4);
/// ```
///
/// The fields stay `pub` for one release so existing struct literals keep
/// compiling, but they are considered a legacy surface: new code should go
/// through the builders, which keep working if fields are ever privatized.
/// Bundles written while the config still carried its A/B switches (the
/// shared table, its f32 storage, incremental statistics) still load:
/// serde ignores the extra keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ParallelConfig {
    /// Parallelize the assignment step across users.
    pub users: bool,
    /// Parallelize the update step across skill levels.
    pub skills: bool,
    /// Parallelize the update step across features.
    pub features: bool,
    /// Number of worker threads (`1..=MAX_THREADS`).
    pub threads: usize,
}

impl ParallelConfig {
    /// Fully sequential execution.
    pub fn sequential() -> Self {
        Self {
            users: false,
            skills: false,
            features: false,
            threads: 1,
        }
    }

    /// All three techniques enabled on `threads` workers.
    pub fn all(threads: usize) -> Self {
        Self {
            users: true,
            skills: true,
            features: true,
            threads,
        }
    }

    /// Returns `self` with user-parallel assignment toggled.
    pub fn with_users(mut self, users: bool) -> Self {
        self.users = users;
        self
    }

    /// Returns `self` with skill-parallel updates toggled.
    pub fn with_skills(mut self, skills: bool) -> Self {
        self.skills = skills;
        self
    }

    /// Returns `self` with feature-parallel updates toggled.
    pub fn with_features(mut self, features: bool) -> Self {
        self.features = features;
        self
    }

    /// Returns `self` with the worker-thread count replaced.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the configuration: `threads` must lie in
    /// `1..=MAX_THREADS`.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 || self.threads > MAX_THREADS {
            return Err(CoreError::InvalidParallelism {
                threads: self.threads,
            });
        }
        Ok(())
    }

    /// Whether any update-step parallelism is enabled.
    pub(crate) fn update_parallel(&self) -> bool {
        (self.skills || self.features) && self.threads > 1
    }

    /// Workers for a user-parallel step (the chunk pass, the grid build
    /// and delta, the emission fill): `threads` with user parallelism
    /// on, one otherwise.
    pub(crate) fn user_threads(&self) -> usize {
        match self.users {
            true => self.threads.max(1),
            false => 1,
        }
    }

    /// Worker count for a chunked run over `n_chunks` chunks:
    /// `ParallelConfig::user_threads` clamped to `1..=n_chunks`, as
    /// more workers than chunks would only idle.
    pub fn workers_for_chunks(&self, n_chunks: usize) -> usize {
        self.user_threads().min(n_chunks).max(1)
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Runs `work` on every job `0..n_jobs` on `states.len()` scoped workers,
/// `wave` jobs at a time, and hands the outcomes to `apply` **in job
/// order**, whatever the worker count or schedule.
///
/// Inside a wave each worker claims the next unclaimed job as it frees
/// up (one atomic increment), so no worker idles while jobs remain; the
/// wave bounds how many outcomes wait to be applied. The first error in
/// job order is returned and no later outcome is applied. A panicking
/// job gives [`CoreError::WorkerPanicked`] with `step`, a worker the OS
/// refuses to start [`CoreError::WorkerSpawnFailed`]. One state runs
/// every job on the calling thread; no state, or more than
/// `MAX_THREADS`, is [`CoreError::InvalidParallelism`]. Generic, so
/// the DP's row source is never `dyn`.
pub fn fan_out<W, O, E>(
    n_jobs: usize,
    wave: usize,
    states: &mut [W],
    step: &'static str,
    work: impl Fn(usize, &mut W) -> Result<O, E> + Sync,
    mut apply: impl FnMut(O) -> Result<(), E>,
) -> Result<(), E>
where
    W: Send,
    O: Send,
    E: From<CoreError> + Send,
{
    let panicked = || E::from(CoreError::WorkerPanicked { step });
    if states.is_empty() || states.len() > MAX_THREADS {
        let threads = states.len();
        return Err(CoreError::InvalidParallelism { threads }.into());
    }
    if let [state] = states {
        for index in 0..n_jobs {
            let outcome = catch_unwind(AssertUnwindSafe(|| work(index, state)));
            apply(outcome.unwrap_or_else(|_| Err(panicked()))?)?;
        }
        return Ok(());
    }
    let wave = wave.max(states.len());
    for start in (0..n_jobs).step_by(wave) {
        let end = n_jobs.min(start + wave);
        // Relaxed: the counter only hands out indices; every outcome
        // reaches this thread through its worker's join.
        let next = AtomicUsize::new(start);
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&index| index < end);
        let mut outcomes: Vec<(usize, Result<O, E>)> = std::thread::scope(|scope| {
            let (work, claim) = (&work, &claim);
            let workers: Vec<_> = (states.iter_mut())
                .map(|state| {
                    let run = move || -> Vec<_> {
                        std::iter::from_fn(claim)
                            .map(|i| (i, work(i, state)))
                            .collect()
                    };
                    std::thread::Builder::new().spawn_scoped(scope, run)
                })
                .collect();
            // A lost worker's error is filed under job `start`: no later
            // job of the wave is applied.
            let lost = |error: E| vec![(start, Err(error))];
            (workers.into_iter())
                .flat_map(|worker| match worker {
                    Ok(handle) => handle.join().unwrap_or_else(|_| lost(panicked())),
                    Err(_) => lost(CoreError::WorkerSpawnFailed { step }.into()),
                })
                .collect()
        });
        outcomes.sort_by_key(|&(index, _)| index);
        for (_, outcome) in outcomes {
            apply(outcome?)?;
        }
    }
    Ok(())
}

/// Jobs that own their output, such as disjoint `&mut` windows of one
/// buffer: [`fan_out`]'s claimant of index `i` takes job `i`. Only it
/// ever locks slot `i`, so no worker waits, and no `unsafe` is needed.
pub(crate) struct Owned<J>(Vec<Mutex<Option<J>>>);

impl<J> Owned<J> {
    pub(crate) fn new(jobs: impl IntoIterator<Item = J>) -> Self {
        Self(jobs.into_iter().map(|job| Mutex::new(Some(job))).collect())
    }

    /// Job `index`, which only its claimant takes.
    pub(crate) fn take(&self, index: usize) -> Result<J> {
        let job = self
            .0
            .get(index)
            .and_then(|slot| crate::sync::lock(slot).take());
        let (left, right) = (index, self.0.len());
        job.ok_or(CoreError::LengthMismatch {
            context: "fan-out job index vs jobs",
            left,
            right,
        })
    }
}

/// Items per job when `n` items are cut into [`JOBS_PER_WORKER`]
/// contiguous ranges per worker (at least one item).
pub(crate) fn job_len(n: usize, workers: usize) -> usize {
    n.div_ceil(workers.max(1).saturating_mul(JOBS_PER_WORKER))
        .max(1)
}

/// Assignment step: builds the shared [`EmissionTable`] (item-parallel
/// when user parallelism is on) and runs [`assign_all_parallel_with_table`].
///
/// Returns the per-user assignments (in dataset order) and the total path
/// log-likelihood.
pub fn assign_all_parallel(
    model: &SkillModel,
    dataset: &Dataset,
    config: &ParallelConfig,
) -> Result<(SkillAssignments, f64)> {
    config.validate()?;
    let table = EmissionTable::build_with_config(model, dataset, config)?;
    assign_all_parallel_with_table(&table, dataset, config)
}

/// Assigns every sequence of `dataset` against an emission-row source —
/// an already built table, one carried over from the previous iteration
/// and refreshed via
/// [`EmissionTable::refresh_levels`](crate::emission::EmissionTable::refresh_levels),
/// or any other [`EmissionRows`].
///
/// Runs the trainer's chunk pass ([`crate::chunked`]) over the dataset:
/// with user parallelism on, `threads` workers each take the next
/// unclaimed user chunk as they free up; otherwise the calling thread
/// walks them alone. Path log-likelihoods
/// are summed in user order either way, so the total is bitwise the
/// sequential one for every thread count.
pub fn assign_all_parallel_with_table<R: EmissionRows + Sync + ?Sized>(
    table: &R,
    dataset: &Dataset,
    config: &ParallelConfig,
) -> Result<(SkillAssignments, f64)> {
    config.validate()?;
    if table.n_items() < dataset.n_items() {
        return Err(CoreError::LengthMismatch {
            context: "emission table items vs dataset items",
            left: table.n_items(),
            right: dataset.n_items(),
        });
    }
    let chunks = DatasetChunks::new(dataset, in_memory_chunk_size(dataset, config))?;
    decode_chunks(&chunks, table, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::init::initialize_model;
    use crate::types::{Action, ActionSequence};

    #[test]
    fn workers_for_chunks_clamps_to_chunk_count() {
        let config = ParallelConfig::all(8);
        assert_eq!(config.workers_for_chunks(3), 3);
        assert_eq!(config.workers_for_chunks(8), 8);
        assert_eq!(config.workers_for_chunks(100), 8);
        // Never zero, even for an empty stream.
        assert_eq!(config.workers_for_chunks(0), 1);
        // User-level parallelism off forces a sequential chunk walk.
        let no_users = ParallelConfig::all(8).with_users(false);
        assert_eq!(no_users.workers_for_chunks(100), 1);
        assert_eq!(ParallelConfig::sequential().workers_for_chunks(100), 1);
    }

    fn build_dataset(n_users: usize, len: usize) -> Dataset {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 4 },
            FeatureKind::Count,
        ])
        .unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..4u32)
            .map(|c| {
                vec![
                    FeatureValue::Categorical(c),
                    FeatureValue::Count(2 + c as u64 * 3),
                ]
            })
            .collect();
        let sequences: Vec<ActionSequence> = (0..n_users as u32)
            .map(|u| {
                let actions: Vec<Action> = (0..len)
                    .map(|t| {
                        // Deterministic progression-ish pattern per user.
                        let item = ((t * 4 / len) as u32 + u) % 4;
                        Action::new(t as i64, u, item)
                    })
                    .collect();
                ActionSequence::new(u, actions).unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(ParallelConfig::sequential()
            .with_threads(0)
            .validate()
            .is_err());
        assert!(ParallelConfig::all(4).validate().is_ok());
        assert!(ParallelConfig::all(MAX_THREADS).validate().is_ok());
        let over = MAX_THREADS + 1;
        assert_eq!(
            ParallelConfig::all(over).validate(),
            Err(CoreError::InvalidParallelism { threads: over })
        );
        assert!(!ParallelConfig::sequential().update_parallel());
        assert!(ParallelConfig::all(2).update_parallel());
    }

    #[test]
    fn parallel_assignment_matches_sequential_bitwise() {
        let ds = build_dataset(7, 12);
        let model = initialize_model(&ds, 3, 4, 0.01).unwrap();
        let (seq_a, seq_ll) =
            assign_all_parallel(&model, &ds, &ParallelConfig::sequential()).unwrap();
        for threads in [2, 3, 5] {
            let cfg = ParallelConfig::sequential()
                .with_users(true)
                .with_threads(threads);
            let (par_a, par_ll) = assign_all_parallel(&model, &ds, &cfg).unwrap();
            assert_eq!(seq_a, par_a, "threads={threads}");
            assert_eq!(seq_ll.to_bits(), par_ll.to_bits(), "threads={threads}");
        }
        // The model-direct oracle agrees bit for bit.
        let (direct_a, direct_ll) = crate::reference::assign_all_direct(&model, &ds).unwrap();
        assert_eq!(seq_a, direct_a);
        assert_eq!(seq_ll.to_bits(), direct_ll.to_bits());
    }

    #[test]
    fn old_configs_with_removed_switches_still_deserialize() {
        // Configs serialized while the A/B switches existed (and before
        // `emission_f32` did) must keep loading; the keys are ignored.
        for legacy in [
            r#"{"users":true,"skills":false,"features":false,
                "threads":2,"emission":true,"incremental":true}"#,
            r#"{"users":true,"skills":false,"features":false,"threads":2,
                "emission":false,"emission_f32":true,"incremental":false}"#,
        ] {
            let cfg: ParallelConfig = serde_json::from_str(legacy).unwrap();
            assert_eq!(
                cfg,
                ParallelConfig::sequential()
                    .with_users(true)
                    .with_threads(2)
            );
        }
        let json = serde_json::to_string(&ParallelConfig::all(3)).unwrap();
        assert!(!json.contains("emission") && !json.contains("incremental"));
        let back: ParallelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ParallelConfig::all(3));
    }

    #[test]
    fn parallel_assignment_disabled_flag_falls_through() {
        let ds = build_dataset(3, 8);
        let model = initialize_model(&ds, 2, 4, 0.01).unwrap();
        let cfg = ParallelConfig::sequential().with_threads(4);
        let (a, _) = assign_all_parallel(&model, &ds, &cfg).unwrap();
        assert!(a.is_monotone());
    }

    #[test]
    fn table_narrower_than_dataset_is_rejected() {
        let ds = build_dataset(3, 8);
        let model = initialize_model(&ds, 2, 4, 0.01).unwrap();
        let narrow =
            crate::types::Dataset::new(ds.schema().clone(), ds.items()[..2].to_vec(), Vec::new())
                .unwrap();
        let table = EmissionTable::build(&model, &narrow);
        for cfg in [ParallelConfig::sequential(), ParallelConfig::all(2)] {
            assert!(matches!(
                assign_all_parallel_with_table(&table, &ds, &cfg),
                Err(CoreError::LengthMismatch { .. })
            ));
        }
    }

    #[test]
    fn worker_errors_surface_as_typed_errors() {
        // Every path impossible: each worker's DP fails, and the fan-out
        // reports the typed error whatever the thread count.
        let ds = build_dataset(6, 5);
        let table =
            EmissionTable::from_scores(ds.n_items(), 2, vec![f64::NEG_INFINITY; ds.n_items() * 2]);
        for cfg in [ParallelConfig::sequential(), ParallelConfig::all(3)] {
            assert!(matches!(
                assign_all_parallel_with_table(&table, &ds, &cfg),
                Err(CoreError::DegenerateFit { .. })
            ));
        }
    }

    const WAVES: [usize; 4] = [1, 2, 3, 100];

    #[test]
    fn fan_out_applies_every_job_once_in_job_order() {
        for workers in 1..=4 {
            for wave in WAVES {
                for n_jobs in [0, 1, 5, 13] {
                    let mut runs = vec![0usize; workers];
                    let mut applied = Vec::new();
                    let work = |job: usize, runs: &mut usize| -> Result<usize> {
                        *runs += 1;
                        Ok(job)
                    };
                    fan_out(n_jobs, wave, &mut runs, "test", work, |job| {
                        applied.push(job);
                        Ok(())
                    })
                    .unwrap();
                    let tag = format!("workers={workers} wave={wave} jobs={n_jobs}");
                    assert_eq!(applied, (0..n_jobs).collect::<Vec<_>>(), "{tag}");
                    assert_eq!(runs.iter().sum::<usize>(), n_jobs, "{tag}");
                }
            }
        }
    }

    #[test]
    fn fan_out_returns_the_first_error_in_job_order() {
        for workers in 1..=4 {
            for wave in WAVES {
                let mut states = vec![(); workers];
                let mut applied = Vec::new();
                let work = |job: usize, _: &mut ()| match job {
                    2 | 7 => Err(CoreError::InvalidSkillCount { requested: job }),
                    _ => Ok(job),
                };
                let got = fan_out(10, wave, &mut states, "test", work, |job| {
                    applied.push(job);
                    Ok(())
                });
                let tag = format!("workers={workers} wave={wave}");
                assert_eq!(
                    got,
                    Err(CoreError::InvalidSkillCount { requested: 2 }),
                    "{tag}"
                );
                assert_eq!(applied, [0, 1], "{tag}");
            }
        }
    }

    #[test]
    fn fan_out_turns_a_panicking_job_into_a_typed_error() {
        for workers in 1..=4 {
            for wave in WAVES {
                let mut states = vec![(); workers];
                let work = |job: usize, _: &mut ()| -> Result<()> {
                    assert_ne!(job, 3, "job 3 panics on purpose");
                    Ok(())
                };
                assert_eq!(
                    fan_out(6, wave, &mut states, "exploding step", work, Ok),
                    Err(CoreError::WorkerPanicked {
                        step: "exploding step"
                    }),
                    "workers={workers} wave={wave}"
                );
            }
        }
    }

    #[test]
    fn fan_out_runs_a_lone_worker_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut states = [Vec::new()];
        let work = |_: usize, seen: &mut Vec<_>| -> Result<()> {
            seen.push(std::thread::current().id());
            Ok(())
        };
        fan_out(5, 2, &mut states, "test", work, Ok).unwrap();
        assert_eq!(states[0], vec![caller; 5]);
        // Two workers run off the calling thread.
        let mut states = [Vec::new(), Vec::new()];
        fan_out(5, 2, &mut states, "test", work, Ok).unwrap();
        assert!(states.iter().flatten().all(|&id| id != caller));
    }

    #[test]
    fn fan_out_refuses_unusable_worker_counts_before_spawning() {
        let work = |_: usize, _: &mut ()| -> Result<()> { Ok(()) };
        for workers in [0, MAX_THREADS + 1] {
            let mut states = vec![(); workers];
            assert_eq!(
                fan_out(3, 3, &mut states, "test", work, Ok),
                Err(CoreError::InvalidParallelism { threads: workers })
            );
        }
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let ds = build_dataset(2, 5);
        let model = initialize_model(&ds, 2, 4, 0.01).unwrap();
        let cfg = ParallelConfig::all(64);
        let (a, _) = assign_all_parallel(&model, &ds, &cfg).unwrap();
        assert!(a.is_monotone());
        let (empty, ll) = assign_all_parallel(&model, &build_dataset(0, 5), &cfg).unwrap();
        assert!(empty.per_user.is_empty());
        assert_eq!(ll, 0.0);
    }
}
