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

/// Squared coefficient of variation of a sample of counts,
/// `Var(x) / Mean(x)²`, as the exact fraction `(n·Σx² − (Σx)², (Σx)²)`.
/// A float quotient rounds at the boundary HD tests: `[2, 1, 0, 3, 3, 0,
/// 0, 0, 3]` has CoV² exactly 1 but reads 1.0000000000000002 in `f64`.
/// Exact while `n · max x` stays below 2^64 (counts below 2^44 in tables
/// of up to 2^20 entries), so that `n·Σx²` fits a `u128`.
///
/// Degenerate inputs (empty sample or zero mean — e.g. a cold cache where
/// no entry saved a test yet) return `(0, 1)`, which HD maps to "low
/// variability" → PINC, the information-richer scoring.
pub fn squared_cov(values: &[u64]) -> (u128, u128) {
    let n = values.len() as u128;
    let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
    let squares: u128 = values.iter().map(|&v| u128::from(v).pow(2)).sum();
    if sum == 0 {
        return (0, 1);
    }
    (n * squares - sum * sum, sum * sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cov_degenerate_cases() {
        assert_eq!(squared_cov(&[]), (0, 1));
        assert_eq!(squared_cov(&[0, 0]), (0, 1));
        assert_eq!(squared_cov(&[5, 5, 5]).0, 0);
    }

    #[test]
    fn cov_discriminates_variability() {
        let above_one = |v: &[u64]| {
            let (num, den) = squared_cov(v);
            num > den
        };
        // uniform-ish sample: CoV² < 1
        assert!(!above_one(&[9, 10, 11, 10]));
        // heavy-tailed sample: CoV² > 1
        assert!(above_one(&[1, 1, 1, 1, 100]));
        // exactly 1, where an `f64` quotient reads a hair above it
        assert_eq!(squared_cov(&[2, 1, 0, 3, 3, 0, 0, 0, 3]), (144, 144));
    }

    #[test]
    fn cov_matches_hand_computation() {
        // values 2, 4 → mean 3, var 1, cov² = 1/9 = 4/36
        assert_eq!(squared_cov(&[2, 4]), (4, 36));
    }
}
