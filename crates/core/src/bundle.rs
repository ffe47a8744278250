//! Versioned session artifacts: a [`SessionBundle`] packages a live
//! [`StreamingSession`] — its dataset, committed assignments, model,
//! configuration and refit policy — into one self-describing JSON
//! document, so ingestion can continue in a later process, and a bundle
//! written by another version of the library is validated (and rejected
//! with a clear error) before anything is rebuilt from it.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::parallel::ParallelConfig;
use crate::streaming::{RefitPolicy, StreamingSession};
use crate::train::TrainConfig;
use crate::types::{Dataset, SkillAssignments};

/// Rejects a format version outside `1..=supported`.
fn check_version(artifact: &'static str, found: u32, supported: u32) -> Result<()> {
    if found == 0 || found > supported {
        return Err(CoreError::UnsupportedVersion {
            artifact,
            found,
            supported,
        });
    }
    Ok(())
}

/// A self-describing serialized [`StreamingSession`].
///
/// The bundle carries the full dataset — the session's derived state
/// (statistics grid, emission table, online trackers) is *not* stored;
/// [`SessionBundle::resume`] rebuilds it exactly from the dataset and
/// assignments. A session snapshotted with
/// pending (un-refit) actions therefore comes back freshly refit: the
/// actions themselves are never lost, only the deferral.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionBundle {
    /// Format version (see [`SessionBundle::VERSION`]).
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
    /// The format version this build writes.
    pub const VERSION: u32 = 1;

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

    /// Internal consistency checks: version, a thread count the live fit
    /// may spawn ([`ParallelConfig::validate`]), a valid dataset (see
    /// [`Dataset::validate`]; serde bypasses its constructor checks),
    /// model/config level agreement, and one monotone path over
    /// `1..=S` per user, one level per action.
    pub fn validate(&self) -> Result<()> {
        check_version("session bundle", self.version, Self::VERSION)?;
        self.parallel.validate()?;
        self.dataset.validate()?;
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
        let paths = self.assignments.per_user.iter();
        for (user, (path, seq)) in paths.zip(self.dataset.sequences()).enumerate() {
            if path.len() != seq.len() {
                return Err(CoreError::PathLengthMismatch {
                    user,
                    levels: path.len(),
                    actions: seq.len(),
                });
            }
        }
        self.assignments.check_paths(self.config.n_levels)
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
    use crate::types::{Action, ActionSequence, Dataset};

    #[test]
    fn malformed_json_rejected() {
        assert!(SessionBundle::from_json("{not json").is_err());
        assert!(SessionBundle::from_json("{\"version\": 1}").is_err());
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
        let (ours, theirs) = (resumed.snapshot("x"), session.snapshot("x"));
        assert_eq!(ours.assignments, theirs.assignments);
        assert_eq!(resumed.model(), session.model());
        assert_eq!(ours.dataset.n_actions(), theirs.dataset.n_actions());
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
        assert_eq!(
            resumed.snapshot("x").assignments,
            session.snapshot("x").assignments
        );
        assert_eq!(resumed.model(), session.model());
    }

    #[test]
    fn session_bundle_with_too_many_threads_is_rejected_before_any_spawn() {
        let ds = session_dataset();
        let config = TrainConfig::new(2).with_min_init_actions(4);
        let result = crate::train::train(&ds, &config).unwrap();
        let session = StreamingSession::resume(
            ds,
            &result,
            config,
            ParallelConfig::sequential(),
            RefitPolicy::Manual,
        )
        .unwrap();
        let json = session.snapshot("t").to_json().unwrap();
        let over = crate::parallel::MAX_THREADS + 1;
        let tampered = json.replace(r#""threads":1"#, &format!(r#""threads":{over}"#));
        assert_ne!(tampered, json);
        assert_eq!(
            SessionBundle::from_json(&tampered).err(),
            Some(CoreError::InvalidParallelism { threads: over })
        );
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
        future.version = SessionBundle::VERSION + 1;
        assert_eq!(
            future.validate(),
            Err(CoreError::UnsupportedVersion {
                artifact: "session bundle",
                found: SessionBundle::VERSION + 1,
                supported: SessionBundle::VERSION,
            })
        );

        let mut wrong_levels = bundle.clone();
        wrong_levels.config.n_levels = 5;
        assert!(wrong_levels.validate().is_err());

        let mut missing_user = bundle.clone();
        missing_user.assignments.per_user.pop();
        assert!(missing_user.validate().is_err());

        // Every path fault names its real user and action, through JSON
        // as `ingest --session` reads it: a level above S = 2, a level of
        // 0, a path one action short, and a drop in user 3's path.
        let invalid = |user, position, level, reason| {
            Err(CoreError::InvalidLevelPath {
                user,
                position,
                level,
                reason,
            })
        };
        let reparse = |edit: &dyn Fn(&mut Vec<Vec<u8>>)| {
            let mut b = bundle.clone();
            edit(&mut b.assignments.per_user);
            SessionBundle::from_json(&b.to_json().unwrap()).map(|_| ())
        };
        assert_eq!(
            reparse(&|p| p[1][5] = 9),
            invalid(1, 5, 9, "is outside 1..=S")
        );
        assert_eq!(
            reparse(&|p| p[2][0] = 0),
            invalid(2, 0, 0, "is outside 1..=S")
        );
        assert_eq!(
            reparse(&|p| {
                p[1].pop();
            }),
            Err(CoreError::PathLengthMismatch {
                user: 1,
                levels: 7,
                actions: 8,
            })
        );
        assert_eq!(
            reparse(&|p| {
                p[3][2] = 2;
                p[3][3] = 1;
            }),
            invalid(3, 3, 1, "is below the level before it")
        );

        // Serde bypasses the dataset's constructor checks: move user 0's
        // first action past the rest of their sequence.
        let json = session.snapshot("x").to_json().unwrap();
        let tampered = json.replacen(r#""time":0"#, r#""time":100"#, 1);
        assert_ne!(tampered, json);
        assert!(matches!(
            SessionBundle::from_json(&tampered),
            Err(CoreError::UnsortedSequence {
                user: 0,
                position: 1
            })
        ));
    }
}
