//! Lint fixture: the fits' home sets a family's parameters.

fn fit_from_moments(sum: f64, count: f64) -> Result<Poisson> {
    Poisson::new((sum / count).max(MIN_RATE))
}
