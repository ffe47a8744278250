//! One-stop import for the common surface of `upskill-core`.
//!
//! Pulls in the types needed for the standard workflow — describe items
//! ([`FeatureSchema`]), assemble a [`Dataset`], train with [`train`] or
//! [`train_with_parallelism`] (or [`train_chunked`] when the corpus does
//! not fit in memory), then estimate difficulty ([`SkillPrior`]), track
//! users online ([`OnlineTracker`]), keep folding in fresh actions with a
//! [`StreamingSession`], snapshot it as a [`SessionBundle`], and serve it
//! concurrently (epoch-swapped tables via [`EpochCell`], pooled request
//! workspaces via [`WorkspacePool`], auto-tuned refits via
//! [`RefitTuner`]).
//!
//! ```
//! use upskill_core::prelude::*;
//! ```

pub use crate::assign::AssignWorkspace;
pub use crate::bundle::SessionBundle;
pub use crate::chunked::{
    train_chunked, train_em_chunked, AssignmentStorage, ChunkSource, DatasetChunk, DatasetChunks,
};
pub use crate::difficulty::SkillPrior;
pub use crate::em::{train_em_with_parallelism, EmConfig, FbWorkspace};
pub use crate::emission::EmissionTable;
pub use crate::epoch::EpochCell;
pub use crate::error::{CoreError, Result};
pub use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
pub use crate::incremental::StatsGrid;
pub use crate::model::SkillModel;
pub use crate::online::OnlineTracker;
pub use crate::parallel::ParallelConfig;
pub use crate::policy::{MixQuota, PolicyConfig, PolicyMode, PolicyRecommendation, PolicyState};
pub use crate::pool::WorkspacePool;
pub use crate::recommend::{LevelBand, RecommendConfig, Recommendation};
pub use crate::streaming::{RefitPolicy, RefitTuner, StreamingSession};
pub use crate::train::{train, train_with_parallelism, TrainConfig, TrainResult};
pub use crate::types::{Action, ActionSequence, Dataset, SkillAssignments};
