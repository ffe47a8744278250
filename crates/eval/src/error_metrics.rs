//! Error measures: RMSE and MAE.

use crate::EvalError;

/// Root mean squared error between predictions and ground truth.
pub fn rmse(pred: &[f64], truth: &[f64]) -> Result<f64, EvalError> {
    Ok(mse(pred, truth)?.sqrt())
}

/// Mean squared error.
pub fn mse(pred: &[f64], truth: &[f64]) -> Result<f64, EvalError> {
    check(pred, truth)?;
    let n = pred.len() as f64;
    Ok(pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum::<f64>()
        / n)
}

/// Mean absolute error.
pub fn mae(pred: &[f64], truth: &[f64]) -> Result<f64, EvalError> {
    check(pred, truth)?;
    let n = pred.len() as f64;
    Ok(pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| (p - t).abs())
        .sum::<f64>()
        / n)
}

fn check(pred: &[f64], truth: &[f64]) -> Result<(), EvalError> {
    if pred.len() != truth.len() {
        return Err(EvalError::LengthMismatch {
            left: pred.len(),
            right: truth.len(),
        });
    }
    if pred.is_empty() {
        return Err(EvalError::TooFewSamples { needed: 1, got: 0 });
    }
    if pred.iter().chain(truth).any(|v| !v.is_finite()) {
        return Err(EvalError::NonFiniteInput);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_known_values() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]).unwrap(), 0.0);
        // errors [1, -1] → mse 1 → rmse 1
        assert!((rmse(&[2.0, 1.0], &[1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        // errors [3, 4] → mse 12.5 → rmse √12.5
        assert!((rmse(&[3.0, 4.0], &[0.0, 0.0]).unwrap() - 12.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mae_known_values() {
        assert!((mae(&[2.0, 0.0], &[0.0, 1.0]).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mae_bounded_by_rmse() {
        let pred = [1.0, 5.0, 2.0, 8.0];
        let truth = [2.0, 2.0, 2.0, 2.0];
        assert!(mae(&pred, &truth).unwrap() <= rmse(&pred, &truth).unwrap() + 1e-12);
    }

    #[test]
    fn error_cases() {
        assert!(rmse(&[], &[]).is_err());
        assert!(rmse(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mae(&[f64::INFINITY], &[0.0]).is_err());
    }
}
