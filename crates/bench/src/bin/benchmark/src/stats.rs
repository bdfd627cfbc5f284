//! Pure helpers: order statistics, the percentile rule, the FNV-1a
//! digest and the seeded generator every workload draws from.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Tail percentiles a report may quote, lowest first, each with the
/// share of samples beyond it in thousandths (integers: 100 * 0.1 is
/// not 10 in floating point).
const TAIL_PERCENTILES: [(f64, usize); 5] =
    [(75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The percentile rule: the highest percentile that still has at least
/// ten samples beyond it, or `None` when even p75 does not (fewer than
/// 40 samples) and only the median can be quoted.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rfind(|(_, beyond)| samples * beyond >= 10 * 1000)
        .map(|(p, _)| *p)
}

/// `p` when the sample count supports it, else the highest supported
/// percentile, else the maximum — the tail figure of a latency series.
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    let supported = highest_supported_percentile(values.len()).map_or(100.0, |s| s.min(p));
    percentile(values, supported)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the rule the acceptance check of the benchmark uses.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some([at(1), at(2), at(3)])
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: the only randomness the workload generators use, so the
/// same `--seed` gives the same inputs on every build of the program.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(1024), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_falls_back_to_the_supported_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples support p90, not p99.
        assert_eq!(tail(&v, 99.0), Some(90.0));
        assert_eq!(tail(&v, 75.0), Some(75.0));
        // Too few samples for any tail: the maximum stands in.
        assert_eq!(tail(&v[..5], 99.0), Some(5.0));
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(relative_spread(&v), Some(1.0));
    }

    #[test]
    fn fnv_digest_is_stable() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv::default();
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
        // Incremental feeding equals one-shot feeding.
        let mut split = Fnv::default();
        split.write(b"foo");
        split.write(b"bar");
        assert_eq!(split, h);
    }

    #[test]
    fn splitmix_is_reproducible() {
        let mut a = SplitMix(7);
        let mut b = SplitMix(7);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Reference value of SplitMix64 seeded with 0 (first output).
        assert_eq!(SplitMix(0).next_u64(), 0xe220_a839_7b1d_cdaf);
        assert!((0.0..1.0).contains(&a.unit()));
    }
}
