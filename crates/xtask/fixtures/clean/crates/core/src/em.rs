//! Lint fixture: an M-step that fits through the one accumulator, and
//! look-alikes that must not trip `fit-outside-dist`. Docs may name
//! [`Poisson::new`].

fn weighted_poisson(sum: f64, weight: f64) -> Result<FeatureDistribution> {
    // Comments may say Poisson::new(sum / weight) is the closed form.
    let label = "Gamma::new";
    let _ = label;
    let _ = MyLogNormal::new(1.0);
    let _ = Poisson::new_table();
    Ok(FeatureDistribution::Poisson(Poisson::fit_from_moments(sum, weight)?))
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixed_parameters_in_tests() {
        let _ = Gamma::new(2.0, 1.0);
    }
}
