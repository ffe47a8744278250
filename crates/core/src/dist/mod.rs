//! Generative distributions for item features (§IV-A of the paper).
//!
//! Each (feature, skill level) cell of the model holds one
//! [`FeatureDistribution`]; the [`FeatureAccumulator`] is its streaming
//! counterpart used by the parameter-update step (Eq. 5–7) to collect
//! sufficient statistics per skill level without materializing sample
//! vectors. Its observations carry real weights, so the hard trainers'
//! action counts and EM's responsibility mass run the same fits, and no
//! MLE is written outside this module.

pub mod categorical;
pub mod gamma;
pub mod lognormal;
pub mod poisson;
pub mod special;

use serde::{Deserialize, Serialize};

pub use categorical::{Categorical, DEFAULT_SMOOTHING};
pub use gamma::{Gamma, SufficientStats};
pub use lognormal::LogNormal;
pub use poisson::Poisson;

use crate::catalog::FeatureSlot;
use crate::error::{CoreError, Result};
use crate::feature::{FeatureKind, FeatureValue, PositiveModel};

/// One fitted per-feature, per-skill distribution `P_f(· | θ_f(s))`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureDistribution {
    /// Smoothed categorical over `0..C_f`.
    Categorical(Categorical),
    /// Poisson over counts.
    Poisson(Poisson),
    /// Gamma over positive reals.
    Gamma(Gamma),
    /// Log-normal over positive reals.
    LogNormal(LogNormal),
}

/// Scores a distribution-kind / value-kind mismatch.
///
/// A mismatch always means the model schema and the item data went out of
/// sync upstream of scoring. The silent `-inf` keeps the release contract
/// (a zero-probability DP path, per Eq. 2), but under `debug_assertions`
/// or the `strict-invariants` feature the mismatch fails loudly at the
/// offending site instead of quietly poisoning every downstream DP and
/// posterior.
#[cold]
pub(crate) fn score_kind_mismatch(expected: &'static str, got: &'static str) -> f64 {
    if crate::invariants::ENABLED {
        // lint:allow(core-panic): strict-invariants escalates a silent
        // kind mismatch into a loud failure at the mismatch site.
        panic!("feature kind mismatch: {expected} distribution scored a {got} value");
    }
    f64::NEG_INFINITY
}

impl FeatureDistribution {
    /// Log-likelihood of one observed feature value.
    ///
    /// Returns `-inf` (not an error) for impossible *values* so the DP can
    /// treat them as zero-probability paths. A kind mismatch (e.g. a count
    /// scored by a gamma density) also scores `-inf` in release builds but
    /// raises a debug invariant under `debug_assertions` or the
    /// `strict-invariants` feature — see `score_kind_mismatch`.
    pub fn log_likelihood(&self, value: &FeatureValue) -> f64 {
        match (self, value) {
            (FeatureDistribution::Categorical(d), FeatureValue::Categorical(c)) => d.log_prob(*c),
            (FeatureDistribution::Poisson(d), FeatureValue::Count(k)) => d.log_pmf(*k),
            (FeatureDistribution::Gamma(d), FeatureValue::Real(x)) => d.log_pdf(*x),
            (FeatureDistribution::LogNormal(d), FeatureValue::Real(x)) => d.log_pdf(*x),
            (dist, value) => score_kind_mismatch(dist.kind_name(), value.name()),
        }
    }

    /// Short name of the distribution family, for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FeatureDistribution::Categorical(_) => "categorical",
            FeatureDistribution::Poisson(_) => "poisson",
            FeatureDistribution::Gamma(_) => "gamma",
            FeatureDistribution::LogNormal(_) => "lognormal",
        }
    }

    /// A weakly-informative default distribution for a feature kind, used
    /// when a skill level received no observations in an update step.
    pub fn fallback(kind: FeatureKind) -> Result<Self> {
        match kind {
            FeatureKind::Categorical { cardinality } => Ok(FeatureDistribution::Categorical(
                Categorical::uniform(cardinality)?,
            )),
            FeatureKind::Count => Ok(FeatureDistribution::Poisson(Poisson::new(1.0)?)),
            FeatureKind::Positive {
                model: PositiveModel::Gamma,
            } => Ok(FeatureDistribution::Gamma(Gamma::new(1.0, 1.0)?)),
            FeatureKind::Positive {
                model: PositiveModel::LogNormal,
            } => Ok(FeatureDistribution::LogNormal(LogNormal::new(0.0, 1.0)?)),
        }
    }
}

/// Rejects a weight that is negative or not finite: every accumulator
/// weight is a whole action count or a responsibility mass.
pub(crate) fn check_weight(weight: f64) -> Result<()> {
    if !weight.is_finite() || weight < 0.0 {
        return Err(CoreError::InvalidProbability {
            context: "accumulator weight",
            value: weight,
        });
    }
    Ok(())
}

/// Streaming sufficient statistics for one (feature, skill) cell: the one
/// accumulator behind every M-step.
///
/// Observations carry real weights. The hard trainers push whole action
/// counts, whose sums are exact in any order below 2⁵³; EM pushes
/// responsibility mass. Both then run the same closed-form fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FeatureAccumulator {
    /// Per-category weight sums.
    Categorical {
        /// `weights[c]` = total weight of observations of category `c`.
        weights: Vec<f64>,
        /// Running sum of `weights`, added in push order.
        total: f64,
    },
    /// Weighted sum and total weight for the Poisson mean.
    Count {
        /// Weighted sum of observed counts.
        sum: f64,
        /// Total observation weight.
        n: f64,
    },
    /// Gamma/log-normal sufficient statistics (`Σx`, `Σ ln x`, `Σx²`,
    /// `Σ(ln x)²`, `n`) — O(1) memory, no retained sample vectors.
    Positive {
        /// Which continuous family to fit at the end.
        model: PositiveModel,
        /// Accumulated sums.
        stats: SufficientStats,
    },
}

impl FeatureAccumulator {
    /// Creates an empty accumulator for the given feature kind.
    pub fn new(kind: FeatureKind) -> Self {
        match kind {
            FeatureKind::Categorical { cardinality } => FeatureAccumulator::Categorical {
                weights: vec![0.0; cardinality as usize],
                total: 0.0,
            },
            FeatureKind::Count => FeatureAccumulator::Count { sum: 0.0, n: 0.0 },
            FeatureKind::Positive { model } => FeatureAccumulator::Positive {
                model,
                stats: SufficientStats::default(),
            },
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: &FeatureValue) -> Result<()> {
        self.push_n(value, 1.0)
    }

    /// Adds one observation with a finite non-negative `weight` in O(1).
    ///
    /// A whole `weight` `k` leaves the categorical weights, the count sums
    /// and every `n` in exactly the state `k` repeated [`push`]es would;
    /// continuous sums use one fused `k·x` product per statistic. The
    /// grid fits rely on this to replay an item histogram, or an item's
    /// responsibility mass, without walking every action.
    ///
    /// [`push`]: FeatureAccumulator::push
    pub fn push_n(&mut self, value: &FeatureValue, weight: f64) -> Result<()> {
        match (&mut *self, value) {
            (FeatureAccumulator::Positive { stats, .. }, FeatureValue::Real(x)) => {
                stats.push_n(*x, weight)
            }
            _ => {
                check_weight(weight)?;
                self.push_slot(FeatureSlot::of(value), weight)
            }
        }
    }

    /// [`FeatureAccumulator::push_n`] of one catalog slot: the one
    /// arithmetic body the row path and the column path run. `weight`
    /// must be finite and non-negative (a grid count or mass). A
    /// [`FeatureSlot::Row`] goes through `push_n`, so it returns the row
    /// path's error.
    pub(crate) fn push_slot(&mut self, slot: FeatureSlot<'_>, weight: f64) -> Result<()> {
        match (self, slot) {
            (acc, FeatureSlot::Row(value)) => value.map_or(Ok(()), |v| acc.push_n(v, weight)),
            (FeatureAccumulator::Categorical { weights, total }, FeatureSlot::Categorical(c)) => {
                let cardinality = weights.len() as u32;
                let cell = weights
                    .get_mut(c as usize)
                    .ok_or(CoreError::CategoryOutOfBounds {
                        feature: usize::MAX,
                        value: c,
                        cardinality,
                    })?;
                *cell += weight;
                *total += weight;
                Ok(())
            }
            (FeatureAccumulator::Count { sum, n }, FeatureSlot::Count(k)) => {
                *sum += weight * k;
                *n += weight;
                Ok(())
            }
            (FeatureAccumulator::Positive { stats, .. }, FeatureSlot::Real { x, ln_x }) => {
                stats.push_ln_n(x, ln_x, weight);
                Ok(())
            }
            (acc, slot) => Err(CoreError::FeatureKindMismatch {
                feature: usize::MAX,
                expected: acc.kind_name(),
                got: slot.name(),
            }),
        }
    }

    /// Merges another accumulator of the same variant into this one.
    pub fn merge(&mut self, other: &FeatureAccumulator) -> Result<()> {
        match (self, other) {
            (
                FeatureAccumulator::Categorical { weights, total },
                FeatureAccumulator::Categorical {
                    weights: o,
                    total: ot,
                },
            ) => {
                if weights.len() != o.len() {
                    return Err(CoreError::LengthMismatch {
                        context: "categorical accumulator merge",
                        left: weights.len(),
                        right: o.len(),
                    });
                }
                for (a, b) in weights.iter_mut().zip(o) {
                    *a += b;
                }
                *total += ot;
                Ok(())
            }
            (
                FeatureAccumulator::Count { sum, n },
                FeatureAccumulator::Count { sum: os, n: on },
            ) => {
                *sum += os;
                *n += on;
                Ok(())
            }
            (
                FeatureAccumulator::Positive { stats, .. },
                FeatureAccumulator::Positive { stats: ostats, .. },
            ) => {
                stats.merge(ostats);
                Ok(())
            }
            (a, b) => Err(CoreError::FeatureKindMismatch {
                feature: usize::MAX,
                expected: a.kind_name(),
                got: b.kind_name(),
            }),
        }
    }

    /// Total weight of the accumulated observations.
    pub fn n_observations(&self) -> f64 {
        match self {
            FeatureAccumulator::Categorical { total, .. } => *total,
            FeatureAccumulator::Count { n, .. } => *n,
            FeatureAccumulator::Positive { stats, .. } => stats.count(),
        }
    }

    /// Fits the final distribution (Eq. 6 for categorical with smoothing
    /// `lambda`, Eq. 7 for Poisson, Newton MLE for gamma, closed-form for
    /// log-normal). Falls back to [`FeatureDistribution::fallback`] when the
    /// cell received no observations.
    pub fn fit(&self, lambda: f64) -> Result<FeatureDistribution> {
        let mut fit = FeatureDistribution::Categorical(Categorical::empty());
        self.refit(lambda, &mut fit)?;
        Ok(fit)
    }

    /// [`FeatureAccumulator::fit`] into `cell`: a categorical refits into
    /// the buffers `cell` already holds (see [`refit_categorical`]),
    /// every other family replaces it. On error `cell` keeps what it
    /// held, or an empty categorical where a categorical fit met another
    /// family.
    pub(crate) fn refit(&self, lambda: f64, cell: &mut FeatureDistribution) -> Result<()> {
        *cell = match self {
            FeatureAccumulator::Categorical { weights, total } => {
                return refit_categorical(cell, weights.iter().copied(), *total, lambda);
            }
            _ if crate::float_cmp::is_zero(self.n_observations()) => {
                FeatureDistribution::fallback(self.kind())?
            }
            FeatureAccumulator::Count { sum, n } => {
                FeatureDistribution::Poisson(Poisson::fit_from_moments(*sum, *n)?)
            }
            FeatureAccumulator::Positive {
                model: PositiveModel::Gamma,
                stats,
            } => FeatureDistribution::Gamma(Gamma::fit_from_stats(stats)?),
            FeatureAccumulator::Positive {
                model: PositiveModel::LogNormal,
                stats,
            } => FeatureDistribution::LogNormal(LogNormal::fit_from_stats(stats)?),
        };
        Ok(())
    }

    pub(crate) fn kind(&self) -> FeatureKind {
        match self {
            FeatureAccumulator::Categorical { weights, .. } => FeatureKind::Categorical {
                cardinality: weights.len() as u32,
            },
            FeatureAccumulator::Count { .. } => FeatureKind::Count,
            FeatureAccumulator::Positive { model, .. } => FeatureKind::Positive { model: *model },
        }
    }

    fn kind_name(&self) -> &'static str {
        self.kind().name()
    }
}

/// Refits Eq. 6 into `cell` from checked category `counts` and their
/// `total`, in the buffers of the categorical `cell` holds (any other
/// family is replaced by an empty categorical first). A zero `total` fits
/// the uniform [`FeatureDistribution::fallback`]. The accumulator's cells
/// and the item-ID column's grid rows both fit here.
pub(crate) fn refit_categorical(
    cell: &mut FeatureDistribution,
    counts: impl ExactSizeIterator<Item = f64>,
    total: f64,
    lambda: f64,
) -> Result<()> {
    let empty = FeatureDistribution::Categorical(Categorical::empty());
    let mut fit = match std::mem::replace(cell, empty) {
        FeatureDistribution::Categorical(fit) => fit,
        _ => Categorical::empty(),
    };
    let refit = match crate::float_cmp::is_zero(total) {
        true => fit.refit_uniform(counts.len()),
        false => fit.refit(counts, total, lambda),
    };
    *cell = FeatureDistribution::Categorical(fit);
    refit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_likelihood_dispatches_by_kind() {
        let cat =
            FeatureDistribution::Categorical(Categorical::from_probs(vec![0.25, 0.75]).unwrap());
        assert!((cat.log_likelihood(&FeatureValue::Categorical(1)) - 0.75f64.ln()).abs() < 1e-12);

        let poi = FeatureDistribution::Poisson(Poisson::new(2.0).unwrap());
        assert!(poi.log_likelihood(&FeatureValue::Count(3)).is_finite());

        let gam = FeatureDistribution::Gamma(Gamma::new(2.0, 1.0).unwrap());
        assert!(gam.log_likelihood(&FeatureValue::Real(1.5)).is_finite());
    }

    #[test]
    fn kind_mismatch_fails_loudly_under_debug_invariants() {
        // Release builds (invariants disabled) score a mismatch as `-inf`;
        // tests compile with `debug_assertions`, so the invariant layer is
        // active and the mismatch must fail at the scoring site instead of
        // silently poisoning the DP.
        let mismatches: Vec<(FeatureDistribution, FeatureValue)> = vec![
            (
                FeatureDistribution::Categorical(
                    Categorical::from_probs(vec![0.25, 0.75]).unwrap(),
                ),
                FeatureValue::Count(1),
            ),
            (
                FeatureDistribution::Poisson(Poisson::new(2.0).unwrap()),
                FeatureValue::Real(3.0),
            ),
            (
                FeatureDistribution::Gamma(Gamma::new(2.0, 1.0).unwrap()),
                FeatureValue::Categorical(0),
            ),
            (
                FeatureDistribution::LogNormal(LogNormal::new(0.0, 1.0).unwrap()),
                FeatureValue::Count(2),
            ),
        ];
        for (dist, value) in mismatches {
            if crate::invariants::ENABLED {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    dist.log_likelihood(&value)
                }));
                assert!(outcome.is_err(), "{} should panic", dist.kind_name());
            } else {
                assert_eq!(dist.log_likelihood(&value), f64::NEG_INFINITY);
            }
        }
    }

    #[test]
    fn accumulator_roundtrip_categorical() {
        let mut acc = FeatureAccumulator::new(FeatureKind::Categorical { cardinality: 3 });
        for &c in &[0u32, 0, 1, 2, 2, 2] {
            acc.push(&FeatureValue::Categorical(c)).unwrap();
        }
        assert_eq!(acc.n_observations(), 6.0);
        let FeatureDistribution::Categorical(d) = acc.fit(0.0).unwrap() else {
            panic!("wrong variant")
        };
        assert!((d.prob(0) - 2.0 / 6.0).abs() < 1e-12);
        assert!((d.prob(2) - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_roundtrip_count() {
        let mut acc = FeatureAccumulator::new(FeatureKind::Count);
        for &k in &[2u64, 4, 6] {
            acc.push(&FeatureValue::Count(k)).unwrap();
        }
        let FeatureDistribution::Poisson(d) = acc.fit(0.01).unwrap() else {
            panic!("wrong variant")
        };
        assert!((d.rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_roundtrip_gamma() {
        let mut acc = FeatureAccumulator::new(FeatureKind::Positive {
            model: PositiveModel::Gamma,
        });
        for &x in &[1.0, 2.0, 3.0, 4.0, 2.5, 1.5] {
            acc.push(&FeatureValue::Real(x)).unwrap();
        }
        let FeatureDistribution::Gamma(d) = acc.fit(0.01).unwrap() else {
            panic!("wrong variant")
        };
        assert!((d.mean() - 14.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn accumulator_roundtrip_lognormal() {
        let mut acc = FeatureAccumulator::new(FeatureKind::Positive {
            model: PositiveModel::LogNormal,
        });
        for &x in &[1.0, std::f64::consts::E] {
            acc.push(&FeatureValue::Real(x)).unwrap();
        }
        let FeatureDistribution::LogNormal(d) = acc.fit(0.01).unwrap() else {
            panic!("wrong variant")
        };
        assert!((d.mu() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_falls_back() {
        for kind in [
            FeatureKind::Categorical { cardinality: 4 },
            FeatureKind::Count,
            FeatureKind::Positive {
                model: PositiveModel::Gamma,
            },
            FeatureKind::Positive {
                model: PositiveModel::LogNormal,
            },
        ] {
            let acc = FeatureAccumulator::new(kind);
            let dist = acc.fit(0.01).unwrap();
            // A fallback must score *some* in-kind value finitely.
            let probe = match kind {
                FeatureKind::Categorical { .. } => FeatureValue::Categorical(0),
                FeatureKind::Count => FeatureValue::Count(1),
                FeatureKind::Positive { .. } => FeatureValue::Real(1.0),
            };
            assert!(dist.log_likelihood(&probe).is_finite());
        }
    }

    #[test]
    fn push_rejects_kind_mismatch() {
        let mut acc = FeatureAccumulator::new(FeatureKind::Count);
        assert!(acc.push(&FeatureValue::Real(1.0)).is_err());
    }

    #[test]
    fn push_rejects_out_of_range_category() {
        let mut acc = FeatureAccumulator::new(FeatureKind::Categorical { cardinality: 2 });
        assert!(acc.push(&FeatureValue::Categorical(2)).is_err());
    }

    #[test]
    fn merge_equals_bulk_accumulation() {
        let kind = FeatureKind::Categorical { cardinality: 3 };
        let mut a = FeatureAccumulator::new(kind);
        let mut b = FeatureAccumulator::new(kind);
        a.push(&FeatureValue::Categorical(0)).unwrap();
        b.push(&FeatureValue::Categorical(2)).unwrap();
        b.push(&FeatureValue::Categorical(2)).unwrap();
        a.merge(&b).unwrap();
        let FeatureAccumulator::Categorical { weights, total } = &a else {
            panic!()
        };
        assert_eq!(weights, &vec![1.0, 0.0, 2.0]);
        assert_eq!(total.to_bits(), 3.0f64.to_bits());
    }

    #[test]
    fn merge_rejects_mismatched_variants() {
        let mut a = FeatureAccumulator::new(FeatureKind::Count);
        let b = FeatureAccumulator::new(FeatureKind::Categorical { cardinality: 2 });
        assert!(a.merge(&b).is_err());
    }

    fn probe_values(kind: FeatureKind) -> Vec<FeatureValue> {
        match kind {
            FeatureKind::Categorical { .. } => vec![
                FeatureValue::Categorical(0),
                FeatureValue::Categorical(2),
                FeatureValue::Categorical(2),
            ],
            FeatureKind::Count => vec![
                FeatureValue::Count(1),
                FeatureValue::Count(5),
                FeatureValue::Count(9),
            ],
            FeatureKind::Positive { .. } => vec![
                FeatureValue::Real(0.5),
                FeatureValue::Real(2.0),
                FeatureValue::Real(3.5),
            ],
        }
    }

    fn all_kinds() -> [FeatureKind; 4] {
        [
            FeatureKind::Categorical { cardinality: 3 },
            FeatureKind::Count,
            FeatureKind::Positive {
                model: PositiveModel::Gamma,
            },
            FeatureKind::Positive {
                model: PositiveModel::LogNormal,
            },
        ]
    }

    #[test]
    fn push_n_equals_repeated_push_on_every_variant() {
        for kind in all_kinds() {
            let mut weighted = FeatureAccumulator::new(kind);
            let mut repeated = FeatureAccumulator::new(kind);
            for value in probe_values(kind) {
                weighted.push_n(&value, 3.0).unwrap();
                for _ in 0..3 {
                    repeated.push(&value).unwrap();
                }
            }
            assert_eq!(
                weighted.n_observations(),
                repeated.n_observations(),
                "{kind:?}"
            );
            // Identical statistics ⇒ identical fitted distributions: probe
            // the fit instead of the (partly f64) internal sums.
            let probe = &probe_values(kind)[1];
            let a = weighted.fit(0.01).unwrap().log_likelihood(probe);
            let b = repeated.fit(0.01).unwrap().log_likelihood(probe);
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{kind:?}");
        }
    }

    #[test]
    fn push_n_rejects_negative_and_non_finite_weights() {
        for kind in all_kinds() {
            let value = &probe_values(kind)[0];
            for bad in [-1.0, f64::NAN, f64::INFINITY] {
                let mut acc = FeatureAccumulator::new(kind);
                let got = acc.push_n(value, bad);
                assert!(
                    matches!(
                        got,
                        Err(CoreError::InvalidProbability {
                            context: "accumulator weight",
                            ..
                        })
                    ),
                    "{kind:?} {bad}: {got:?}"
                );
                assert_eq!(acc, FeatureAccumulator::new(kind), "{kind:?} {bad}");
            }
        }
    }
}
