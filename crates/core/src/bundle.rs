//! Versioned model artifacts: a [`ModelBundle`] packages a trained model
//! with its assignments, training configuration, and provenance metadata
//! into one self-describing JSON document, so models written by one
//! version of the library can be validated (and rejected with a clear
//! error) by another. A [`SessionBundle`] does the same for a live
//! [`StreamingSession`], carrying the dataset so ingestion can continue
//! in a later process.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::parallel::ParallelConfig;
use crate::streaming::{RefitPolicy, StreamingSession};
use crate::train::{TrainConfig, TrainResult};
use crate::types::{Dataset, SkillAssignments};

/// The bundle format version this build writes.
pub const BUNDLE_VERSION: u32 = 1;

/// A self-describing trained-model artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Format version (see [`BUNDLE_VERSION`]).
    pub version: u32,
    /// The trained skill model.
    pub model: SkillModel,
    /// Hard assignments on the training data (optional — large).
    pub assignments: Option<SkillAssignments>,
    /// The configuration used to train.
    pub config: TrainConfig,
    /// Final training log-likelihood.
    pub log_likelihood: f64,
    /// Number of training iterations run.
    pub iterations: usize,
    /// Free-form provenance note (dataset name, seed, …).
    pub note: String,
}

impl ModelBundle {
    /// Packages a training result.
    pub fn from_result(result: &TrainResult, config: TrainConfig, note: &str) -> Self {
        Self {
            version: BUNDLE_VERSION,
            model: result.model.clone(),
            assignments: Some(result.assignments.clone()),
            config,
            log_likelihood: result.log_likelihood,
            iterations: result.trace.len(),
            note: note.to_string(),
        }
    }

    /// Drops the (potentially large) assignments for a compact artifact.
    pub fn without_assignments(mut self) -> Self {
        self.assignments = None;
        self
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|_| CoreError::DegenerateFit {
            distribution: "bundle",
            reason: "serialization failure",
        })
    }

    /// Parses and validates a JSON bundle.
    ///
    /// Rejects future format versions and internally inconsistent bundles
    /// (model/config level mismatch, non-monotone assignments).
    pub fn from_json(json: &str) -> Result<Self> {
        let bundle: ModelBundle =
            serde_json::from_str(json).map_err(|_| CoreError::DegenerateFit {
                distribution: "bundle",
                reason: "malformed JSON or schema mismatch",
            })?;
        bundle.validate()?;
        Ok(bundle)
    }

    /// Internal consistency checks.
    pub fn validate(&self) -> Result<()> {
        if self.version == 0 || self.version > BUNDLE_VERSION {
            return Err(CoreError::NoConvergence {
                routine: "bundle version check",
                iterations: self.version as usize,
            });
        }
        if self.model.n_levels() != self.config.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "bundle model levels vs config",
                left: self.model.n_levels(),
                right: self.config.n_levels,
            });
        }
        if let Some(a) = &self.assignments {
            if !a.is_monotone() {
                return Err(CoreError::UnsortedSequence {
                    user: 0,
                    position: 0,
                });
            }
            let max_level = a.iter().map(|(_, _, s)| s).max().unwrap_or(1) as usize;
            if max_level > self.model.n_levels() {
                return Err(CoreError::InvalidSkillCount {
                    requested: max_level,
                });
            }
        }
        Ok(())
    }
}

/// The session bundle format version this build writes.
pub const SESSION_BUNDLE_VERSION: u32 = 1;

/// A self-describing serialized [`StreamingSession`].
///
/// Unlike [`ModelBundle`], a session bundle carries the full dataset —
/// the session's derived state (statistics grid, emission table, online
/// trackers) is *not* stored; [`SessionBundle::resume`] rebuilds it
/// exactly from the dataset and assignments. A session snapshotted with
/// pending (un-refit) actions therefore comes back freshly refit: the
/// actions themselves are never lost, only the deferral.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionBundle {
    /// Format version (see [`SESSION_BUNDLE_VERSION`]).
    pub version: u32,
    /// The full dataset, including every ingested action.
    pub dataset: Dataset,
    /// The model at snapshot time (provenance; resume refits from data).
    pub model: SkillModel,
    /// Committed monotone assignments over the dataset.
    pub assignments: SkillAssignments,
    /// Training hyperparameters (`S`, `λ`, …).
    pub config: TrainConfig,
    /// Parallelism configuration to resume with.
    pub parallel: ParallelConfig,
    /// Refit policy to resume with.
    pub policy: RefitPolicy,
    /// Free-form provenance note.
    pub note: String,
}

impl SessionBundle {
    /// Serializes to JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|_| CoreError::DegenerateFit {
            distribution: "session bundle",
            reason: "serialization failure",
        })
    }

    /// Parses and validates a JSON session bundle.
    pub fn from_json(json: &str) -> Result<Self> {
        let bundle: SessionBundle =
            serde_json::from_str(json).map_err(|_| CoreError::DegenerateFit {
                distribution: "session bundle",
                reason: "malformed JSON or schema mismatch",
            })?;
        bundle.validate()?;
        Ok(bundle)
    }

    /// Internal consistency checks: version, model/config level agreement,
    /// monotone assignments covering exactly the dataset's users.
    pub fn validate(&self) -> Result<()> {
        if self.version == 0 || self.version > SESSION_BUNDLE_VERSION {
            return Err(CoreError::NoConvergence {
                routine: "session bundle version check",
                iterations: self.version as usize,
            });
        }
        if self.model.n_levels() != self.config.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "session bundle model levels vs config",
                left: self.model.n_levels(),
                right: self.config.n_levels,
            });
        }
        if self.assignments.per_user.len() != self.dataset.n_users() {
            return Err(CoreError::LengthMismatch {
                context: "session bundle assignments vs dataset users",
                left: self.assignments.per_user.len(),
                right: self.dataset.n_users(),
            });
        }
        if !self.assignments.is_monotone() {
            return Err(CoreError::UnsortedSequence {
                user: 0,
                position: 0,
            });
        }
        Ok(())
    }

    /// Reconstructs a live [`StreamingSession`] from this bundle.
    pub fn resume(self) -> Result<StreamingSession> {
        self.validate()?;
        StreamingSession::new(
            self.dataset,
            self.assignments,
            self.config,
            self.parallel,
            self.policy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::train::train;
    use crate::types::{Action, ActionSequence, Dataset};

    fn trained() -> (TrainResult, TrainConfig) {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0)],
            vec![FeatureValue::Categorical(1)],
        ];
        let sequences: Vec<ActionSequence> = (0..4u32)
            .map(|u| {
                ActionSequence::new(
                    u,
                    (0..8)
                        .map(|t| Action::new(t, u, u32::from(t >= 4)))
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let ds = Dataset::new(schema, items, sequences).unwrap();
        let config = TrainConfig::new(2).with_min_init_actions(4);
        (train(&ds, &config).unwrap(), config)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (result, config) = trained();
        let bundle = ModelBundle::from_result(&result, config, "test run");
        let json = bundle.to_json().unwrap();
        let back = ModelBundle::from_json(&json).unwrap();
        assert_eq!(back.version, BUNDLE_VERSION);
        assert_eq!(back.model, result.model);
        assert_eq!(back.assignments.as_ref().unwrap(), &result.assignments);
        assert_eq!(back.note, "test run");
        assert_eq!(back.iterations, result.trace.len());
    }

    #[test]
    fn without_assignments_is_compact_and_valid() {
        let (result, config) = trained();
        let full = ModelBundle::from_result(&result, config, "x");
        let slim = full.clone().without_assignments();
        assert!(slim.to_json().unwrap().len() < full.to_json().unwrap().len());
        assert!(ModelBundle::from_json(&slim.to_json().unwrap()).is_ok());
    }

    #[test]
    fn future_version_rejected() {
        let (result, config) = trained();
        let mut bundle = ModelBundle::from_result(&result, config, "x");
        bundle.version = BUNDLE_VERSION + 1;
        let json = serde_json::to_string(&bundle).unwrap();
        assert!(ModelBundle::from_json(&json).is_err());
    }

    #[test]
    fn inconsistent_levels_rejected() {
        let (result, config) = trained();
        let mut bundle = ModelBundle::from_result(&result, config, "x");
        bundle.config.n_levels = 7;
        assert!(bundle.validate().is_err());
    }

    #[test]
    fn nonmonotone_assignments_rejected() {
        let (result, config) = trained();
        let mut bundle = ModelBundle::from_result(&result, config, "x");
        if let Some(a) = &mut bundle.assignments {
            if let Some(seq) = a.per_user.first_mut() {
                if seq.len() >= 2 {
                    seq[0] = 2;
                    seq[1] = 1;
                }
            }
        }
        assert!(bundle.validate().is_err());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(ModelBundle::from_json("{not json").is_err());
        assert!(ModelBundle::from_json("{\"version\": 1}").is_err());
    }

    fn session_dataset() -> Dataset {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0)],
            vec![FeatureValue::Categorical(1)],
        ];
        let sequences: Vec<ActionSequence> = (0..4u32)
            .map(|u| {
                ActionSequence::new(
                    u,
                    (0..8)
                        .map(|t| Action::new(t, u, u32::from(t >= 4)))
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    #[test]
    fn session_bundle_roundtrip_resumes_identical_session() {
        let ds = session_dataset();
        let config = TrainConfig::new(2).with_min_init_actions(4);
        let result = crate::train::train(&ds, &config).unwrap();
        let mut session = StreamingSession::resume(
            ds,
            &result,
            config,
            ParallelConfig::sequential(),
            RefitPolicy::EveryBatch,
        )
        .unwrap();
        session.ingest(crate::types::Action::new(8, 0, 1)).unwrap();

        let bundle = session.snapshot("resume test");
        let json = bundle.to_json().unwrap();
        let back = SessionBundle::from_json(&json).unwrap();
        assert_eq!(back.note, "resume test");
        let resumed = back.resume().unwrap();
        assert_eq!(resumed.assignments(), session.assignments());
        assert_eq!(resumed.model(), session.model());
        assert_eq!(resumed.dataset().n_actions(), session.dataset().n_actions());
        // Lifetime counters are per-process, not persisted.
        assert_eq!(resumed.total_ingested(), 0);
    }

    #[test]
    fn session_bundle_with_pending_actions_resumes_refit() {
        let ds = session_dataset();
        let config = TrainConfig::new(2).with_min_init_actions(4);
        let result = crate::train::train(&ds, &config).unwrap();
        let mut session = StreamingSession::resume(
            ds,
            &result,
            config,
            ParallelConfig::sequential(),
            RefitPolicy::Manual,
        )
        .unwrap();
        session.ingest(crate::types::Action::new(8, 1, 1)).unwrap();
        assert_eq!(session.pending_actions(), 1);

        let mut resumed = session.snapshot("pending").resume().unwrap();
        // Resume rebuilds from data + assignments: nothing is pending, and
        // the model already reflects the ingested action.
        assert_eq!(resumed.pending_actions(), 0);
        assert_eq!(resumed.refit().unwrap(), 0);
    }

    #[test]
    fn session_bundle_with_removed_parallel_switches_still_loads() {
        let ds = session_dataset();
        let config = TrainConfig::new(2).with_min_init_actions(4);
        let result = crate::train::train(&ds, &config).unwrap();
        let parallel = ParallelConfig::all(2);
        let session =
            StreamingSession::resume(ds, &result, config, parallel, RefitPolicy::EveryBatch)
                .unwrap();
        // A bundle written while `ParallelConfig` still carried the A/B
        // switches: the extra keys are ignored on load.
        let json = session.snapshot("old").to_json().unwrap();
        let old = json.replace(
            r#""parallel":{"#,
            r#""parallel":{"emission":true,"emission_f32":false,"incremental":true,"#,
        );
        assert_ne!(old, json);
        let back = SessionBundle::from_json(&old).unwrap();
        assert_eq!(back.parallel, parallel);
        let resumed = back.resume().unwrap();
        assert_eq!(resumed.assignments(), session.assignments());
        assert_eq!(resumed.model(), session.model());
    }

    #[test]
    fn session_bundle_rejects_inconsistencies() {
        let ds = session_dataset();
        let config = TrainConfig::new(2).with_min_init_actions(4);
        let result = crate::train::train(&ds, &config).unwrap();
        let session = StreamingSession::resume(
            ds,
            &result,
            config,
            ParallelConfig::sequential(),
            RefitPolicy::EveryBatch,
        )
        .unwrap();
        let bundle = session.snapshot("x");

        let mut future = bundle.clone();
        future.version = SESSION_BUNDLE_VERSION + 1;
        assert!(future.validate().is_err());

        let mut wrong_levels = bundle.clone();
        wrong_levels.config.n_levels = 5;
        assert!(wrong_levels.validate().is_err());

        let mut missing_user = bundle.clone();
        missing_user.assignments.per_user.pop();
        assert!(missing_user.validate().is_err());

        let mut nonmonotone = bundle;
        nonmonotone.assignments.per_user[0][0] = 2;
        nonmonotone.assignments.per_user[0][1] = 1;
        assert!(nonmonotone.validate().is_err());
    }
}
