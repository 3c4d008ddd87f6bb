//! Exact order statistics over raw samples.
//!
//! The daemons' own latency histogram has power-of-two buckets, so every
//! quantile it reports snaps to 64, 128, 256 µs. The benchmark keeps every
//! sample instead and reads quantiles off the sorted set.

/// The nearest-rank `q`-quantile of `sorted` (ascending): the smallest
/// sample with at least `q · n` samples at or below it. `None` for an
/// empty set.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // Ranks are small positive integers; the float product is exact for
    // every sample count the benchmark can hold.
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice. Sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `sum / count`, or 0 when nothing was counted.
pub fn mean(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// SplitMix64: a tiny, fast, fully specified PRNG. The benchmark's inputs
/// must be a pure function of `--seed`, on every platform and release.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of `seed`; distinct `stream` values give
    /// unrelated sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`, rounded to 1/1024 so the values print short.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + unit * (hi - lo)) * 1024.0).floor() / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_known_set_are_exact() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&samples, 0.50), Some(500));
        assert_eq!(quantile(&samples, 0.90), Some(900));
        assert_eq!(quantile(&samples, 0.99), Some(990));
        assert_eq!(quantile(&samples, 0.999), Some(999));
        assert_eq!(quantile(&samples, 1.0), Some(1000));
        assert_eq!(quantile(&samples, 0.0), Some(1));
        // Values between power-of-two buckets come back as recorded.
        let odd = [70_000, 90_000, 100_000, 130_000, 190_000];
        assert_eq!(quantile(&odd, 0.5), Some(100_000));
        assert_eq!(quantile(&odd, 0.9), Some(190_000));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut other = Rng::new(7, 2);
        assert_eq!(a, b);
        assert_ne!(a[0], other.next_u64());
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            assert!(r.below(5) < 5);
        }
    }
}
