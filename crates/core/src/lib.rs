//! # upskill-core
//!
//! A faithful Rust implementation of the models from *"Toward
//! Recommendation for Upskilling: Modeling Skill Improvement and Item
//! Difficulty in Action Sequences"* (Umemoto, Milo, Kitsuregawa — ICDE
//! 2020).
//!
//! Given chronologically ordered **action sequences** — triples
//! `(time, user, item)` where items carry multi-faceted features — the crate
//! learns:
//!
//! 1. a **skill improvement model**: a monotone latent progression of each
//!    user's skill level, trained by alternating a Viterbi-style dynamic
//!    program (assignment step) with closed-form per-cell maximum-likelihood
//!    updates ([`train()`]);
//! 2. **item difficulty estimates** on the same `1..=S` scale, via the mean
//!    assigned skill of selecting users or the posterior-expected skill
//!    level under the generative model ([`difficulty`]).
//!
//! ## Quick example
//!
//! ```
//! use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
//! use upskill_core::types::{Action, ActionSequence, Dataset};
//! use upskill_core::train::{train, TrainConfig};
//! use upskill_core::difficulty::{generation_difficulty, SkillPrior};
//!
//! // Two items described by one categorical feature.
//! let schema = FeatureSchema::new(vec![
//!     FeatureKind::Categorical { cardinality: 2 },
//! ])?;
//! let items = vec![
//!     vec![FeatureValue::Categorical(0)], // "easy"
//!     vec![FeatureValue::Categorical(1)], // "hard"
//! ];
//! // Users select the easy item early and the hard item late.
//! let sequences: Vec<ActionSequence> = (0..4)
//!     .map(|u| {
//!         let actions = (0..8)
//!             .map(|t| Action::new(t, u, if t < 4 { 0 } else { 1 }))
//!             .collect();
//!         ActionSequence::new(u, actions)
//!     })
//!     .collect::<Result<_, _>>()?;
//! let dataset = Dataset::new(schema, items, sequences)?;
//!
//! let config = TrainConfig::new(2).with_min_init_actions(4);
//! let result = train(&dataset, &config)?;
//! assert!(result.assignments.is_monotone());
//!
//! let d_hard = generation_difficulty(
//!     &result.model,
//!     dataset.item_features(1),
//!     SkillPrior::Empirical,
//!     Some(&result.assignments),
//! )?;
//! let d_easy = generation_difficulty(
//!     &result.model,
//!     dataset.item_features(0),
//!     SkillPrior::Empirical,
//!     Some(&result.assignments),
//! )?;
//! assert!(d_hard > d_easy);
//! # Ok::<(), upskill_core::error::CoreError>(())
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`types`] | §III | users, items, actions, datasets |
//! | [`feature`] | §III | multi-faceted feature schema |
//! | [`dist`] | §IV-A | categorical/Poisson/gamma/log-normal families |
//! | [`model`] | §IV-A (Eq. 2) | the `S × F` skill model |
//! | [`assign`] | §IV-B (Eq. 4) | monotone DP assignment |
//! | [`emission`] | §IV (Eq. 2) | shared item × skill emission table |
//! | [`update`] | §IV-B (Eq. 5–7) | closed-form parameter updates |
//! | [`init`] | §IV-B | uniform-segmentation initialization |
//! | [`mod@train`] | §IV-B | the alternating trainer |
//! | [`incremental`] | §IV-B | delta sufficient statistics (`StatsGrid`) |
//! | [`chunked`] | §IV-C | out-of-core chunked datasets & sharded training |
//! | [`parallel`] | §IV-C | user/skill/feature parallel steps |
//! | [`difficulty`] | §V | assignment- & generation-based estimators |
//! | [`model_selection`] | §VI-B (Fig. 3) | held-out skill-count selection |
//! | [`predict`] | §VI-E | item-prediction protocol |
//! | [`baselines`] | §VI-D | Uniform & ID (Yang et al.) baselines |
//! | [`analysis`] | §VI-C | dominance scores, per-level summaries |
//! | [`recommend`] | Fig. 1 / §VII | upskilling recommendations & curriculum ladder |
//! | [`policy`] | §VII (AdUp) | adaptive teach/motivate/hybrid re-ranking over bands |
//! | [`online`] | — | O(F·S)-per-action incremental skill tracking |
//! | [`streaming`] | §IV, §VI | live ingestion sessions over a trained model |
//! | [`epoch`] | — | epoch-published snapshots for read-mostly serving state |
//! | [`pool`] | — | reusable workspace pooling across concurrent requests |
//! | [`sync`] | — | lock-discipline primitives + deterministic schedule explorer |
//! | [`forgetting`] | §VII | Ebbinghaus-style skill decay in the DP |
//! | [`transition`] | §VII | probabilistic stay/advance extension |
//! | [`em`] | §IV-B | soft-assignment (EM) trainer for comparison |
//! | [`bundle`] | — | versioned trained-model artifacts (JSON) |
//! | [`diagnostics`] | — | feature informativeness (KL), convergence health |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod assign;
pub mod baselines;
pub mod bundle;
pub mod chunked;
pub mod diagnostics;
pub mod difficulty;
pub mod dist;
pub mod em;
pub mod emission;
pub mod epoch;
pub mod error;
pub mod feature;
pub mod float_cmp;
pub mod forgetting;
pub mod incremental;
pub mod init;
pub mod invariants;
pub mod model;
pub mod model_selection;
pub mod online;
pub mod parallel;
pub mod policy;
pub mod pool;
pub mod predict;
pub mod prelude;
pub mod recommend;
#[doc(hidden)]
pub mod reference;
pub mod rng;
pub mod streaming;
pub mod sync;
pub mod train;
pub mod transition;
pub mod types;
pub mod update;

pub use chunked::{
    assign_chunked, initialize_model_chunked, level_histogram_chunked, materialize, train_chunked,
    train_em_chunked, AssignmentStorage, ChunkSource, ChunkedDataset, ChunkedTrainResult,
    DatasetChunk, DatasetChunks,
};
pub use emission::EmissionTable;
pub use epoch::EpochCell;
pub use error::{CoreError, Result};
pub use invariants::InvariantCtx;
pub use model::SkillModel;
pub use pool::{PoolGuard, WorkspacePool};
pub use streaming::{RefitPolicy, RefitTuner, StreamingSession};
pub use sync::{LockId, TracedGuard, TracedMutex};
pub use train::{train, train_with_parallelism, TrainConfig, TrainResult, Trainer};
pub use types::{Action, ActionSequence, Dataset, SkillAssignments};
