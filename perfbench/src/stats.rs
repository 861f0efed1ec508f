//! Pooled statistics: a log-linear latency histogram, percentiles that
//! are reported only when a real tail lies beyond them, pooled rates and
//! medians.

/// Sub-buckets per power of two: 128 keeps every bucket narrower than
/// 0.8% of its lower edge.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^40 ns (about 18 minutes) share the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 2) as usize) * SUB as usize;

/// Minimum number of samples that must lie beyond a percentile before it
/// is reported: with fewer, the "tail" is a handful of outliers.
const MIN_BEYOND: u64 = 10;

fn index(v: u64) -> usize {
    let v = v.min((1 << MAX_BITS) - 1);
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let octave = (shift + 1) as usize;
    octave * SUB as usize + ((v >> shift) - SUB) as usize
}

/// The half-open value range `[lo, hi)` bucket `idx` counts.
fn bounds(idx: usize) -> (u64, u64) {
    let (octave, m) = (idx as u64 / SUB, idx as u64 % SUB);
    if octave == 0 {
        (m, m + 1)
    } else {
        let shift = octave - 1;
        ((SUB + m) << shift, (SUB + m + 1) << shift)
    }
}

/// A latency histogram in nanoseconds. Recording is one index
/// computation and one increment; histograms of several episodes pool by
/// [`Hist::merge`].
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    /// Count one sample of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q < 1`) in nanoseconds, interpolated
    /// linearly inside its bucket, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie above it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
        // Nearest rank: the sample at 1-based position ceil(q·n).
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        if self.total < rank + MIN_BEYOND {
            return None;
        }
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let (lo, hi) = bounds(idx);
                let within = (rank - below) as f64 - 0.5;
                return Some(lo as f64 + (hi - lo) as f64 * within / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} lies within {} samples", self.total)
    }
}

/// Operations completed over time spent, pooled over episodes: the
/// pooled rate is total operations over total time, not a mean of
/// per-episode rates.
#[derive(Clone, Copy, Default)]
pub struct Rate {
    /// Operations completed.
    pub ops: u64,
    /// Time spent in the timed loops, in nanoseconds.
    pub ns: u64,
}

impl Rate {
    /// Add one episode's operations and loop time.
    pub fn add(&mut self, ops: u64, ns: u64) {
        self.ops += ops;
        self.ns += ns;
    }

    /// Operations per second, or `None` when no time was spent.
    pub fn per_s(&self) -> Option<f64> {
        (self.ns > 0).then(|| self.ops as f64 / (self.ns as f64 * 1e-9))
    }
}

/// Median of `values` (mean of the two middle values for an even count),
/// or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_falls_inside_its_bucket() {
        for v in (0..5000u64).chain([1 << 20, (1 << 20) + 12345, 1 << 39, u64::MAX >> 30]) {
            let (lo, hi) = bounds(index(v));
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            assert!((hi - lo) as f64 <= (lo as f64 / SUB as f64).max(1.0));
        }
    }

    #[test]
    fn percentiles_of_a_uniform_run_are_within_a_bucket() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p90 = h.percentile(0.9).unwrap();
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        assert!((p90 / 900_000.0 - 1.0).abs() < 0.01, "p90 {p90}");
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut h = Hist::default();
        for v in 0..100u64 {
            h.record(v);
        }
        // p90 of 100 samples is the 90th; exactly 10 lie beyond it.
        assert!(h.percentile(0.9).is_some());
        h = Hist::default();
        for v in 0..99u64 {
            h.record(v);
        }
        // 99 samples: p90 is the 90th, only 9 beyond it.
        assert_eq!(h.percentile(0.9), None);
        assert!(h.percentile(0.5).is_some());
        assert_eq!(Hist::default().percentile(0.5), None);
    }

    #[test]
    fn small_values_stay_inside_their_unit_bucket() {
        let mut h = Hist::default();
        for _ in 0..20 {
            h.record(7);
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!((7.0..8.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn merged_histograms_pool_their_samples() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        for v in 0..50u64 {
            a.record(10 + v % 3);
            b.record(1000 + v % 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        // Half the pooled samples are ~10 ns, half ~1000 ns.
        assert!(a.percentile(0.4).unwrap() < 20.0);
        assert!(a.percentile(0.6).unwrap() > 900.0);
    }

    #[test]
    fn pooled_rate_is_total_ops_over_total_time() {
        let mut r = Rate::default();
        // 1000/s for a second, then 333/s for three seconds: 2000 ops in
        // 4 s, not the 667/s mean of the two rates.
        r.add(1000, 1_000_000_000);
        r.add(1000, 3_000_000_000);
        assert_eq!(r.per_s(), Some(500.0));
        assert_eq!(Rate::default().per_s(), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
