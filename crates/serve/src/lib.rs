//! `upskill-serve`: an in-process, concurrent, multi-tenant serving API
//! over trained upskill models.
//!
//! [`upskill_core::streaming::StreamingSession`] is the single-owner
//! (`&mut self`) continuation of a trained model; this crate is its
//! serving twin for the paper's live deployment (§VI): one
//! [`SkillService`] shared across request threads answers typed
//! [`Request`](api::Request)s — ingest, predict, recommend, snapshot, stats — from many
//! tenants at once, without a network dependency and without giving up
//! the session's exactness guarantees:
//!
//! - **Sharded tenancy** — per-user state is spread over mutex-guarded
//!   shards by a stable user hash, so concurrent users rarely contend.
//! - **Epoch-swapped model** — the emission table (plus derived item
//!   difficulty) is published through an
//!   [`EpochCell`](upskill_core::epoch::EpochCell): reads are lock-free
//!   `Arc` clones, and dirty-level refits build the replacement off to
//!   the side and publish atomically, so predictions never block on
//!   refits (and never observe a half-updated table).
//! - **Pooled workspaces** — the DP scratch buffers behind
//!   smoothed/posterior predictions are reused across requests via
//!   [`WorkspacePool`](upskill_core::pool::WorkspacePool).
//! - **Bitwise equivalence** — driven single-threaded, the service's
//!   levels, model, and snapshots are bit-identical to a
//!   `StreamingSession` fed the same traffic, for every shard count and
//!   refit policy (`tests/properties_serve.rs` enforces this).
//!
//! # Quickstart
//!
//! ```
//! use upskill_core::prelude::*;
//! use upskill_serve::{PredictMode, ServeConfig, SkillService};
//!
//! # fn main() -> Result<(), upskill_serve::ServeError> {
//! // Train offline (see upskill-core), then move the result behind a
//! // service and share it across threads.
//! # let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
//! # let items = vec![
//! #     vec![FeatureValue::Categorical(0)],
//! #     vec![FeatureValue::Categorical(1)],
//! # ];
//! # let sequences: Vec<ActionSequence> = (0..4u32)
//! #     .map(|u| {
//! #         let actions: Vec<Action> =
//! #             (0..8).map(|t| Action::new(t as i64, u, (t / 4) as u32)).collect();
//! #         ActionSequence::new(u, actions).unwrap()
//! #     })
//! #     .collect();
//! # let dataset = Dataset::new(schema, items, sequences).unwrap();
//! # let config = TrainConfig::new(2).with_min_init_actions(2);
//! let result = train(&dataset, &config)?;
//! let service = SkillService::resume(
//!     dataset,
//!     &result,
//!     config,
//!     ParallelConfig::default(),
//!     ServeConfig::default(),
//! )?;
//!
//! // Live traffic: ingest actions (unknown users are admitted), read
//! // estimates, recommend next items.
//! let outcome = service.ingest(Action::new(100, 42, 0))?;
//! let estimate = service.predict(42, PredictMode::Filtered)?;
//! let next = service.recommend(42, Some(3))?;
//! # let _ = (outcome, estimate, next);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod error;
pub mod service;

pub use api::{IngestOutcome, PredictMode, ServeStats};
pub use error::{Result, ServeError};
pub use service::{ServeConfig, SkillService};

// Convenience re-exports: the adaptive policy vocabulary the serving
// API speaks ([`Request::RecommendPolicy`], [`ServeConfig::adaptive`]).
pub use upskill_core::policy::{PolicyConfig, PolicyMode, PolicyRecommendation, PolicyState};
