//! Order statistics, the pass estimator, and the answer hash.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// returns them — the pipeline judges spreads with that function, so the
/// calibration table must agree with it digit for digit.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median (0 when there are
/// fewer than two values to spread).
pub fn spread_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    if m % 2 == 1 {
        x[m / 2]
    } else {
        (x[m / 2 - 1] + x[m / 2]) / 2.0
    }
}

/// The second-best of the per-pass values. Interference from the shared
/// sandbox only ever slows a pass down, so the good tail of the passes is
/// the repeatable part; the single best is left out as a possible fluke.
pub fn second_best(per_pass: &[f64], better: Better) -> f64 {
    let mut x = per_pass.to_vec();
    x.sort_by(f64::total_cmp);
    if better == Better::Higher {
        x.reverse();
    }
    x[1.min(x.len() - 1)]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over a stream of u64 words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash of one answer: its length, then its ids in order.
    pub fn of_ids(ids: &[u64]) -> u64 {
        let mut h = Fnv::default();
        h.word(ids.len() as u64);
        for &id in ids {
            h.word(id);
        }
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn second_best_follows_direction() {
        let v = [5.0, 3.0, 9.0, 4.0];
        assert_eq!(second_best(&v, Better::Lower), 4.0);
        assert_eq!(second_best(&v, Better::Higher), 5.0);
        assert_eq!(second_best(&[7.0], Better::Lower), 7.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
    }
}
