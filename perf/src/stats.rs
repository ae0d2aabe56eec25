//! Order statistics and the hash behind `sim_fingerprint`.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `pct`-th percentile (nearest rank) of `xs`, or `None` when fewer than
/// ten samples lie beyond it: a p95 needs 200 samples, a p99 needs 1000. A
/// tail read off fewer samples is the rank of one outlier, not a percentile.
pub fn percentile(xs: &[f64], pct: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&pct), "percentile out of range");
    let rank = ((xs.len() as f64 * pct / 100.0).ceil() as usize).max(1);
    if xs.len() < rank + 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Relative difference `|a - b| / max(|a|, |b|)`, 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// SplitMix64: the benchmark's own generator, for arrival gaps and probe
/// permutations. Platform-independent and a pure function of its seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash a simulated time or cycle count. These are differences of a
    /// running f64 clock, so their last bits depend on where in the run the
    /// operation sat; six significant digits are far above that noise and
    /// far below any change to the model.
    pub fn float(&mut self, x: f64) {
        if x == 0.0 || !x.is_finite() {
            self.word(x.to_bits());
            return;
        }
        let exp = x.abs().log10().floor() as i32;
        let mantissa = (x / 10f64.powi(exp - 5)).round() as i64;
        self.word(mantissa as u64);
        self.word(exp as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        assert_eq!(percentile(&xs[..199], 95.0), None);
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
    }

    #[test]
    fn float_hash_ignores_clock_noise_but_not_changes() {
        let h = |x: f64| {
            let mut f = Fnv::new();
            f.float(x);
            f.finish()
        };
        assert_eq!(h(1.603834725e-4), h(1.603834725e-4 * (1.0 + 1e-13)));
        assert_ne!(h(1.603834725e-4), h(1.603834725e-4 * (1.0 + 1e-4)));
        assert_ne!(h(1.0), h(10.0));
    }
}
