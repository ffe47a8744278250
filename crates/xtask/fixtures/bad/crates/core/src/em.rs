//! Lint fixture: an M-step that sets a family's parameters itself, a
//! second copy of the MLE beside the fits in `dist/`. This file is NOT
//! part of any crate.

fn weighted_poisson(sum: f64, weight: f64) -> Result<FeatureDistribution> {
    Ok(FeatureDistribution::Poisson(Poisson::new(sum / weight)?)) // fit-outside-dist
}

pub fn unused_surface() {} // unused-pub: no file outside the crate names it
