//! Special mathematical functions needed by the distribution MLEs.
//!
//! Self-contained implementations (no external math crates):
//! - [`ln_gamma`] — Lanczos approximation, ~15 significant digits;
//! - [`digamma`] — recurrence + asymptotic series;
//! - [`trigamma`] — recurrence + asymptotic series;
//! - [`ln_factorial`] — prefix table for small `n`, `ln_gamma` beyond.

use std::sync::OnceLock;

/// Lanczos coefficients for `g = 7`, `n = 9` (Godfrey).
const LANCZOS_G: f64 = 7.0;
#[allow(clippy::excessive_precision)]
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Uses the Lanczos approximation with the reflection formula for small
/// arguments handled implicitly by the shift (`x > 0` only; callers validate).
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Digamma function ψ(x) = d/dx ln Γ(x), for `x > 0`.
///
/// Shifts the argument up with the recurrence ψ(x) = ψ(x+1) − 1/x until
/// `x ≥ 6`, then applies the asymptotic expansion.
pub fn digamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut x = x;
    let mut acc = 0.0;
    while x < 10.0 {
        acc -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic: ψ(x) ≈ ln x − 1/(2x) − Σ B_{2k}/(2k x^{2k})
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))
}

/// Trigamma function ψ′(x), for `x > 0`.
pub fn trigamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "trigamma requires x > 0, got {x}");
    let mut x = x;
    let mut acc = 0.0;
    while x < 10.0 {
        acc += 1.0 / (x * x);
        x += 1.0;
    }
    // Asymptotic: ψ′(x) ≈ 1/x + 1/(2x²) + Σ B_{2k}/x^{2k+1}
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + inv
        * (1.0
            + inv
                * (0.5
                    + inv * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0)))))
}

/// Entries of the [`ln_factorial`] prefix table: `ln n!` for `n < 32`.
const LN_FACT_LEN: usize = 32;

/// `ln n!` for `n < LN_FACT_LEN`, built once on first use. Entry `n` is
/// the running sum `ln 2 + … + ln n` accumulated from `0.0` in that
/// order, so every value is computed at runtime on the platform's `ln`
/// and is bitwise the summation loop's result.
fn ln_fact_table() -> &'static [f64; LN_FACT_LEN] {
    static TABLE: OnceLock<[f64; LN_FACT_LEN]> = OnceLock::new();
    TABLE.get_or_init(fill_ln_fact_table)
}

fn fill_ln_fact_table() -> [f64; LN_FACT_LEN] {
    let mut table = [0.0f64; LN_FACT_LEN];
    let mut acc = 0.0f64;
    for (n, slot) in table.iter_mut().enumerate().skip(2) {
        acc += (n as f64).ln();
        *slot = acc;
    }
    table
}

/// `ln(n!)`: a prefix-table read for `n < 32`, `ln_gamma(n + 1)` beyond.
pub fn ln_factorial(n: u64) -> f64 {
    match usize::try_from(n).ok().and_then(|i| ln_fact_table().get(i)) {
        Some(&v) => v,
        None => ln_gamma(n as f64 + 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64, tol: f64) {
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "got {got}, want {want}"
        );
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(5.0), 24.0f64.ln(), 1e-12);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        assert_close(ln_gamma(10.5), 1_133_278.388_948_904_7f64.ln(), 1e-10);
    }

    #[test]
    fn ln_gamma_recurrence_holds() {
        // ln Γ(x+1) = ln Γ(x) + ln x
        for &x in &[0.1, 0.7, 1.3, 2.9, 7.5, 42.0, 1234.5] {
            assert_close(ln_gamma(x + 1.0), ln_gamma(x) + x.ln(), 1e-11);
        }
    }

    #[test]
    fn digamma_known_values() {
        // ψ(1) = −γ (Euler–Mascheroni)
        const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
        assert_close(digamma(1.0), -EULER_GAMMA, 1e-10);
        // ψ(0.5) = −γ − 2 ln 2
        assert_close(digamma(0.5), -EULER_GAMMA - 2.0 * 2.0f64.ln(), 1e-10);
        // ψ(2) = 1 − γ
        assert_close(digamma(2.0), 1.0 - EULER_GAMMA, 1e-10);
    }

    #[test]
    fn digamma_recurrence_holds() {
        for &x in &[0.2, 0.9, 1.5, 3.3, 10.0, 250.0] {
            assert_close(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
        }
    }

    #[test]
    fn digamma_matches_ln_gamma_derivative() {
        // Central finite difference of ln_gamma should match digamma.
        for &x in &[0.8, 1.5, 4.0, 25.0] {
            let h = 1e-6 * x;
            let numeric = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            assert_close(digamma(x), numeric, 1e-6);
        }
    }

    #[test]
    fn trigamma_known_values() {
        let pi2_6 = std::f64::consts::PI.powi(2) / 6.0;
        assert_close(trigamma(1.0), pi2_6, 1e-10);
        // ψ′(0.5) = π²/2
        assert_close(trigamma(0.5), std::f64::consts::PI.powi(2) / 2.0, 1e-10);
    }

    #[test]
    fn trigamma_recurrence_holds() {
        for &x in &[0.3, 1.1, 2.5, 8.0, 100.0] {
            assert_close(trigamma(x + 1.0), trigamma(x) - 1.0 / (x * x), 1e-10);
        }
    }

    #[test]
    fn trigamma_matches_digamma_derivative() {
        for &x in &[0.8, 2.0, 9.0] {
            let h = 1e-6 * x;
            let numeric = (digamma(x + h) - digamma(x - h)) / (2.0 * h);
            assert_close(trigamma(x), numeric, 1e-5);
        }
    }

    #[test]
    fn ln_factorial_small_and_large() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert_close(ln_factorial(5), 120.0f64.ln(), 1e-12);
        assert_close(ln_factorial(20), 2_432_902_008_176_640_000.0f64.ln(), 1e-12);
        // Cross-check the table/ln_gamma boundary.
        assert_close(ln_factorial(31), ln_gamma(32.0), 1e-12);
        assert_close(ln_factorial(32), ln_gamma(33.0), 1e-12);
        assert_close(ln_factorial(170), ln_gamma(171.0), 1e-12);
    }

    /// The summation loop the prefix table replaced: `ln 2 + … + ln n`
    /// accumulated from `0.0`.
    fn ln_factorial_loop(n: u64) -> f64 {
        let mut acc = 0.0f64;
        for k in 2..=n {
            acc += (k as f64).ln();
        }
        acc
    }

    #[test]
    fn ln_factorial_table_matches_summation_loop_bitwise() {
        for n in 0..LN_FACT_LEN as u64 {
            assert_eq!(
                ln_factorial(n).to_bits(),
                ln_factorial_loop(n).to_bits(),
                "n = {n}"
            );
        }
        assert_eq!(
            ln_factorial(LN_FACT_LEN as u64).to_bits(),
            ln_gamma(LN_FACT_LEN as f64 + 1.0).to_bits()
        );
    }

    #[test]
    fn ln_factorial_concurrent_first_use_agrees() {
        // A fresh lock, so the race below really is the first use; the
        // threads then read the process-wide table as well.
        let fresh: OnceLock<[f64; LN_FACT_LEN]> = OnceLock::new();
        let barrier = std::sync::Barrier::new(4);
        let runs: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let local = fresh.get_or_init(fill_ln_fact_table);
                        let local: Vec<u64> = local.iter().map(|v| v.to_bits()).collect();
                        let global = (0..LN_FACT_LEN as u64)
                            .map(|n| ln_factorial(n).to_bits())
                            .collect();
                        (local, global)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let want: Vec<u64> = (0..LN_FACT_LEN as u64)
            .map(|n| ln_factorial_loop(n).to_bits())
            .collect();
        for (local, global) in &runs {
            assert_eq!(local, &want);
            assert_eq!(global, &want);
        }
    }
}
