//! Parallel training steps (paper §IV-C).
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
//! [`crate::incremental`], which both
//! [`StatsGrid::fit_model_incremental`](crate::incremental::StatsGrid::fit_model_incremental)
//! and
//! [`SoftStatsGrid::fit_model_incremental`](crate::incremental::SoftStatsGrid::fit_model_incremental)
//! run: it splits only the cells being refit, so a refit of one dirty
//! level still spreads its features over the workers.
//! The shared emission table and the incremental statistics are always on:
//! their from-scratch baselines (per-action emissions, full-rescan update)
//! live in [`crate::reference`] as oracles and speedup denominators only.
//! The direct path lost every measurement it was kept for — on a 200k-item
//! catalog with ~9 actions per item it still ran a skill-count sweep about
//! 4× slower than building the table.
//!
//! Workers are plain scoped threads with no shared mutable state, and
//! results are merged on the calling thread in user order, so every
//! thread count gives bitwise the sequential result.

use crate::chunked::{decode_chunks, in_memory_chunk_size, DatasetChunks};
use crate::emission::{EmissionRows, EmissionTable};
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::types::{Dataset, SkillAssignments};

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
    /// Number of worker threads (≥ 1).
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

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(CoreError::InvalidParallelism { threads: 0 });
        }
        Ok(())
    }

    /// Whether any update-step parallelism is enabled.
    pub fn update_parallel(&self) -> bool {
        (self.skills || self.features) && self.threads > 1
    }

    /// Worker count for a chunked run over `n_chunks` chunks: the
    /// configured thread count clamped to the number of chunks, never
    /// below one. A chunk is the unit of work ownership, so spawning
    /// more workers than chunks would only create idle threads — tiny
    /// datasets (or one-giant-chunk configurations) run sequentially.
    /// User-level parallelism off (`users == false`) also clamps to one.
    pub fn workers_for_chunks(&self, n_chunks: usize) -> usize {
        if !self.users {
            return 1;
        }
        self.threads.min(n_chunks).max(1)
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::sequential()
    }
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
