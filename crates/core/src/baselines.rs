//! Baseline skill models from the paper's evaluation (§VI-D):
//!
//! - **Uniform** — segments each sequence into `S` equal-*length* groups
//!   (by index) and labels the `s`-th group with level `s`. No learning.
//! - **ID** — Yang et al. (2014): the progression model restricted to a
//!   single categorical feature over item IDs. Implemented by projecting
//!   the dataset onto an ID-only schema and running the regular trainer.
//!
//! The projection helpers here also build the `ID+feature` ablations of
//! Table VI.

use crate::error::{CoreError, Result};
use crate::feature::{FeatureSchema, FeatureValue};
use crate::model::SkillModel;
use crate::types::{Dataset, SkillAssignments, SkillLevel};
use crate::update::fit_model;

/// Equal-length (index-based) segmentation of a sequence of length `n` into
/// `n_levels` groups — the Uniform baseline's assignment rule.
pub(crate) fn segment_equal_length(n: usize, n_levels: usize) -> Vec<SkillLevel> {
    (0..n)
        .map(|idx| {
            let level = idx * n_levels / n.max(1);
            (level.min(n_levels - 1) + 1) as SkillLevel
        })
        .collect()
}

/// The Uniform baseline: equal-length segmentation of every sequence, plus
/// a model fit from those fixed assignments (used for item prediction).
pub fn uniform_baseline(
    dataset: &Dataset,
    n_levels: usize,
    lambda: f64,
) -> Result<(SkillAssignments, SkillModel)> {
    if n_levels == 0 {
        return Err(CoreError::InvalidSkillCount { requested: 0 });
    }
    let per_user: Vec<Vec<SkillLevel>> = dataset
        .sequences()
        .iter()
        .map(|s| segment_equal_length(s.len(), n_levels))
        .collect();
    let assignments = SkillAssignments { per_user };
    let model = fit_model(dataset, &assignments, n_levels, lambda)?;
    Ok((assignments, model))
}

/// Projects a dataset onto a subset of its features, optionally prepending
/// the item ID as an extra categorical feature.
///
/// - `project_features(ds, &[], true)` — the **ID** baseline's view.
/// - `project_features(ds, &[2], true)` — an **ID+feature** ablation.
/// - `project_features(ds, &(0..F), false)` — identity (sans ID).
pub fn project_features(dataset: &Dataset, keep: &[usize], include_id: bool) -> Result<Dataset> {
    let schema = dataset.schema();
    for &f in keep {
        if f >= schema.len() {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: f,
                len: schema.len(),
            });
        }
    }
    if keep.is_empty() && !include_id {
        return Err(CoreError::FeatureIndexOutOfBounds { index: 0, len: 0 });
    }
    let mut kinds = Vec::with_capacity(keep.len() + usize::from(include_id));
    let mut names = Vec::with_capacity(kinds.capacity());
    if include_id {
        let id_schema = FeatureSchema::id_only(dataset.n_items() as u32)?;
        kinds.push(id_schema.kind(0)?);
        names.push("item id".to_string());
    }
    for &f in keep {
        kinds.push(schema.kind(f)?);
        names.push(schema.name(f));
    }
    let new_schema = FeatureSchema::with_names(kinds, names)?;
    let items: Vec<Vec<FeatureValue>> = dataset
        .items()
        .iter()
        .enumerate()
        .map(|(id, features)| {
            let mut row = Vec::with_capacity(keep.len() + usize::from(include_id));
            if include_id {
                row.push(FeatureValue::Categorical(id as u32));
            }
            for &f in keep {
                row.push(features[f]);
            }
            row
        })
        .collect();
    Dataset::new(new_schema, items, dataset.sequences().to_vec())
}

/// The ID baseline's dataset view: one categorical feature = the item ID.
pub fn to_id_dataset(dataset: &Dataset) -> Result<Dataset> {
    project_features(dataset, &[], true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureKind;
    use crate::types::{Action, ActionSequence};

    fn sample_dataset() -> Dataset {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 3 },
            FeatureKind::Count,
        ])
        .unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..3u32)
            .map(|c| {
                vec![
                    FeatureValue::Categorical(c),
                    FeatureValue::Count(c as u64 * 2),
                ]
            })
            .collect();
        let seq = ActionSequence::new(
            0,
            (0..6).map(|t| Action::new(t, 0, (t % 3) as u32)).collect(),
        )
        .unwrap();
        Dataset::new(schema, items, vec![seq]).unwrap()
    }

    #[test]
    fn equal_length_segmentation_shapes() {
        assert_eq!(segment_equal_length(6, 3), vec![1, 1, 2, 2, 3, 3]);
        assert_eq!(segment_equal_length(5, 2), vec![1, 1, 1, 2, 2]);
        assert_eq!(segment_equal_length(0, 3), Vec::<SkillLevel>::new());
        assert_eq!(segment_equal_length(1, 4), vec![1]);
        // Monotone and in range for odd shapes.
        for (n, s) in [(7, 3), (10, 4), (3, 5)] {
            let seg = segment_equal_length(n, s);
            assert!(seg.windows(2).all(|w| w[0] <= w[1]));
            assert!(seg.iter().all(|&l| (1..=s as u8).contains(&l)));
        }
    }

    #[test]
    fn uniform_baseline_assignments_are_index_based() {
        let ds = sample_dataset();
        let (assignments, model) = uniform_baseline(&ds, 2, 0.01).unwrap();
        assert_eq!(assignments.per_user[0], vec![1, 1, 1, 2, 2, 2]);
        assert_eq!(model.n_levels(), 2);
        assert!(uniform_baseline(&ds, 0, 0.01).is_err());
    }

    #[test]
    fn id_dataset_has_identity_feature() {
        let ds = sample_dataset();
        let id_ds = to_id_dataset(&ds).unwrap();
        assert_eq!(id_ds.schema().len(), 1);
        assert_eq!(id_ds.n_items(), ds.n_items());
        assert_eq!(id_ds.n_actions(), ds.n_actions());
        for (i, features) in id_ds.items().iter().enumerate() {
            assert_eq!(features[0], FeatureValue::Categorical(i as u32));
        }
    }

    #[test]
    fn projection_keeps_selected_features() {
        let ds = sample_dataset();
        let p = project_features(&ds, &[1], true).unwrap();
        assert_eq!(p.schema().len(), 2);
        assert_eq!(p.schema().name(0), "item id");
        // Item 2: ID=2, count=4.
        assert_eq!(
            p.item_features(2),
            &[FeatureValue::Categorical(2), FeatureValue::Count(4)]
        );
        let no_id = project_features(&ds, &[0, 1], false).unwrap();
        assert_eq!(no_id.item_features(1), ds.item_features(1));
    }

    #[test]
    fn projection_validates_inputs() {
        let ds = sample_dataset();
        assert!(project_features(&ds, &[9], true).is_err());
        assert!(project_features(&ds, &[], false).is_err());
    }
}
