//! The Statistics Manager: the CoV computation that drives the HD
//! (hybrid) replacement policy.
//!
//! §7.1: *"When the HD policy is invoked, it first retrieves the R
//! \[values\] from Statistics Manager and computes its variability by using
//! the (squared) coefficient of variation (CoV). CoV is defined as the
//! ratio of the (square of the) standard deviation over the (square of
//! the) mean of the distribution. When CoV > 1, the associated
//! distribution is deemed of high variability"* — exponential
//! distributions have CoV² = 1; heavy-tailed ones exceed it.

/// Squared coefficient of variation of a sample: `Var(x) / Mean(x)²`.
///
/// Degenerate inputs (empty sample or zero mean — e.g. a cold cache where
/// no entry saved a test yet) return 0.0, which HD maps to "low
/// variability" → PINC, the information-richer scoring.
pub fn squared_cov(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var / (mean * mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cov_degenerate_cases() {
        assert_eq!(squared_cov(&[]), 0.0);
        assert_eq!(squared_cov(&[0.0, 0.0]), 0.0);
        assert_eq!(squared_cov(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn cov_discriminates_variability() {
        // uniform-ish sample: CoV² < 1
        let low = [9.0, 10.0, 11.0, 10.0];
        assert!(squared_cov(&low) < 1.0);
        // heavy-tailed sample: CoV² > 1
        let high = [1.0, 1.0, 1.0, 1.0, 100.0];
        assert!(squared_cov(&high) > 1.0);
    }

    #[test]
    fn cov_matches_hand_computation() {
        // values 2, 4 → mean 3, var 1, cov² = 1/9
        let v = [2.0, 4.0];
        assert!((squared_cov(&v) - 1.0 / 9.0).abs() < 1e-12);
    }
}
