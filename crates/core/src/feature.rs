//! Multi-faceted item features (Section III of the paper).
//!
//! Each item is a tuple `i = (i_1, …, i_F)` of features. The model assigns a
//! per-skill generative distribution to every feature; which distribution is
//! appropriate depends on the feature's *kind*:
//!
//! - [`FeatureKind::Categorical`] — e.g. a recipe category, a beer style, or
//!   the item ID itself; modeled by a smoothed categorical distribution.
//! - [`FeatureKind::Count`] — e.g. number of recipe steps; modeled by a
//!   Poisson distribution.
//! - [`FeatureKind::Positive`] — e.g. alcohol-by-volume; modeled by a gamma
//!   or log-normal distribution, selectable via [`PositiveModel`].

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};

/// Which continuous family models a positive real feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PositiveModel {
    /// Gamma distribution (shape/rate), the paper's default for ABV etc.
    #[default]
    Gamma,
    /// Log-normal distribution, mentioned as an alternative in §IV-A.
    LogNormal,
}

/// The statistical type of one item feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Discrete feature with values in `0..cardinality`.
    Categorical {
        /// Number of distinct categories (`C_f` in the paper).
        cardinality: u32,
    },
    /// Natural-number feature (0, 1, 2, …), Poisson-modeled.
    Count,
    /// Positive real feature, gamma- or log-normal-modeled.
    Positive {
        /// Continuous family to fit for this feature.
        model: PositiveModel,
    },
}

impl FeatureKind {
    /// Short human-readable name for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureKind::Categorical { .. } => "categorical",
            FeatureKind::Count => "count",
            FeatureKind::Positive { .. } => "positive real",
        }
    }
}

/// One observed feature value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FeatureValue {
    /// A category index in `0..cardinality`.
    Categorical(u32),
    /// A non-negative count.
    Count(u64),
    /// A strictly positive real value.
    Real(f64),
}

impl FeatureValue {
    /// Short human-readable name for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureValue::Categorical(_) => "categorical",
            FeatureValue::Count(_) => "count",
            FeatureValue::Real(_) => "positive real",
        }
    }
}

/// The ordered list of feature kinds shared by every item in a dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSchema {
    kinds: Vec<FeatureKind>,
    /// Optional display names, parallel to `kinds` (empty if unnamed).
    names: Vec<String>,
}

impl FeatureSchema {
    /// Creates a schema from feature kinds. Fails if `kinds` is empty or a
    /// categorical feature declares zero categories.
    pub fn new(kinds: Vec<FeatureKind>) -> Result<Self> {
        if kinds.is_empty() {
            return Err(CoreError::FeatureIndexOutOfBounds { index: 0, len: 0 });
        }
        for (i, k) in kinds.iter().enumerate() {
            if let FeatureKind::Categorical { cardinality: 0 } = k {
                return Err(CoreError::CategoryOutOfBounds {
                    feature: i,
                    value: 0,
                    cardinality: 0,
                });
            }
        }
        Ok(Self {
            kinds,
            names: Vec::new(),
        })
    }

    /// Creates a schema with display names for reports and plots.
    pub fn with_names(kinds: Vec<FeatureKind>, names: Vec<String>) -> Result<Self> {
        if kinds.len() != names.len() {
            return Err(CoreError::LengthMismatch {
                context: "schema kinds vs names",
                left: kinds.len(),
                right: names.len(),
            });
        }
        let mut schema = Self::new(kinds)?;
        schema.names = names;
        Ok(schema)
    }

    /// Number of features `F`.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the schema declares no features (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Kind of the `f`-th feature.
    pub fn kind(&self, f: usize) -> Result<FeatureKind> {
        self.kinds
            .get(f)
            .copied()
            .ok_or(CoreError::FeatureIndexOutOfBounds {
                index: f,
                len: self.kinds.len(),
            })
    }

    /// All feature kinds in order.
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Display name of the `f`-th feature, or `"feature <f>"` if unnamed.
    pub fn name(&self, f: usize) -> String {
        self.names
            .get(f)
            .cloned()
            .unwrap_or_else(|| format!("feature {f}"))
    }

    /// Validates that an item's feature tuple conforms to this schema.
    pub(crate) fn validate_item(&self, features: &[FeatureValue]) -> Result<()> {
        if features.len() != self.kinds.len() {
            return Err(CoreError::LengthMismatch {
                context: "item features vs schema",
                left: features.len(),
                right: self.kinds.len(),
            });
        }
        for (f, (value, kind)) in features.iter().zip(&self.kinds).enumerate() {
            match (value, kind) {
                (FeatureValue::Categorical(v), FeatureKind::Categorical { cardinality }) => {
                    if v >= cardinality {
                        return Err(CoreError::CategoryOutOfBounds {
                            feature: f,
                            value: *v,
                            cardinality: *cardinality,
                        });
                    }
                }
                (FeatureValue::Count(_), FeatureKind::Count) => {}
                (FeatureValue::Real(x), FeatureKind::Positive { .. }) => {
                    if !x.is_finite() || *x <= 0.0 {
                        return Err(CoreError::InvalidFeatureValue {
                            feature: f,
                            value: *x,
                            reason: "positive real features must be finite and > 0",
                        });
                    }
                }
                (value, kind) => {
                    return Err(CoreError::FeatureKindMismatch {
                        feature: f,
                        expected: kind.name(),
                        got: value.name(),
                    });
                }
            }
        }
        Ok(())
    }

    /// A schema consisting of a single categorical feature over item IDs —
    /// the representation used by the ID baseline (Yang et al. 2014).
    pub(crate) fn id_only(n_items: u32) -> Result<Self> {
        Self::with_names(
            vec![FeatureKind::Categorical {
                cardinality: n_items,
            }],
            vec!["item id".to_string()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schema_rejected() {
        assert!(FeatureSchema::new(vec![]).is_err());
    }

    #[test]
    fn zero_cardinality_rejected() {
        let err =
            FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 0 }]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::CategoryOutOfBounds { cardinality: 0, .. }
        ));
    }

    #[test]
    fn names_must_match_kinds() {
        let err = FeatureSchema::with_names(vec![FeatureKind::Count], vec!["a".into(), "b".into()])
            .unwrap_err();
        assert!(matches!(err, CoreError::LengthMismatch { .. }));
    }

    #[test]
    fn validate_accepts_conforming_item() {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 4 },
            FeatureKind::Count,
            FeatureKind::Positive {
                model: PositiveModel::Gamma,
            },
        ])
        .unwrap();
        let item = vec![
            FeatureValue::Categorical(3),
            FeatureValue::Count(12),
            FeatureValue::Real(5.5),
        ];
        schema.validate_item(&item).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let schema = FeatureSchema::new(vec![FeatureKind::Count]).unwrap();
        let err = schema.validate_item(&[]).unwrap_err();
        assert!(matches!(err, CoreError::LengthMismatch { .. }));
    }

    #[test]
    fn validate_rejects_out_of_range_category() {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let err = schema
            .validate_item(&[FeatureValue::Categorical(2)])
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::CategoryOutOfBounds { value: 2, .. }
        ));
    }

    #[test]
    fn validate_rejects_kind_mismatch() {
        let schema = FeatureSchema::new(vec![FeatureKind::Count]).unwrap();
        let err = schema
            .validate_item(&[FeatureValue::Real(1.0)])
            .unwrap_err();
        assert!(matches!(err, CoreError::FeatureKindMismatch { .. }));
    }

    #[test]
    fn validate_rejects_nonpositive_real() {
        let schema = FeatureSchema::new(vec![FeatureKind::Positive {
            model: PositiveModel::Gamma,
        }])
        .unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(schema.validate_item(&[FeatureValue::Real(bad)]).is_err());
        }
    }

    #[test]
    fn id_only_schema_shape() {
        let schema = FeatureSchema::id_only(100).unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(schema.name(0), "item id");
        assert!(matches!(
            schema.kind(0).unwrap(),
            FeatureKind::Categorical { cardinality: 100 }
        ));
    }
}
