//! Approved exact float comparisons.
//!
//! Raw `==`/`!=` between floats is forbidden by the workspace lint
//! (`xtask lint`, rule `float-eq`) because most call sites actually want a
//! tolerance and bit-exact comparison is a silent bug when they do. The
//! few comparisons that *are* intentionally exact — sentinel checks
//! against `-inf`, zero-count guards, integrality tests — go through the
//! named helpers in this module so the intent is visible and the lint can
//! allowlist one file instead of dozens of sites.
//!
//! Every helper is `#[inline]` and compiles to the same instruction the
//! raw comparison would; there is no cost to routing through them.

/// Exactly `-inf` — the sentinel for a forbidden DP path or an
/// impossible emission. NaN is *not* `-inf` (the comparison is `false`),
/// matching IEEE semantics the DP relies on.
#[inline]
pub fn is_neg_infinity(x: f64) -> bool {
    x == f64::NEG_INFINITY
}

/// Exactly zero (positive or negative zero). Used for count/weight
/// guards where the value is an exact sum of integers or was never
/// touched; a tolerance would mask accumulator corruption.
#[inline]
pub fn is_zero(x: f64) -> bool {
    x == 0.0
}

/// Whether `x` has no fractional part (e.g. `3.0`, `-2.0`). NaN and
/// infinities return `false`.
#[inline]
pub fn is_integral(x: f64) -> bool {
    x.is_finite() && x.fract() == 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_sentinels() {
        assert!(is_neg_infinity(f64::NEG_INFINITY));
        assert!(!is_neg_infinity(f64::INFINITY));
        assert!(!is_neg_infinity(f64::NAN));
        assert!(!is_neg_infinity(-1e308));
    }

    #[test]
    fn zero_and_integrality() {
        assert!(is_zero(0.0));
        assert!(is_zero(-0.0));
        assert!(!is_zero(f64::MIN_POSITIVE));
        assert!(is_integral(3.0));
        assert!(is_integral(-2.0));
        assert!(!is_integral(2.5));
        assert!(!is_integral(f64::NAN));
        assert!(!is_integral(f64::INFINITY));
    }
}
