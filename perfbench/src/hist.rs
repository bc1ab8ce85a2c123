//! Log-linear latency histogram.
//!
//! Values below 128 get one bucket each; above that every power of two is
//! split into 128 equal sub-buckets, so a bucket is never wider than 1/128
//! (0.78 %) of its lower bound. A percentile is reported as the midpoint of
//! the bucket holding the sample of that rank, which is therefore within
//! 0.4 % of the exact sample.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Samples are clamped to 2^42 ns (about 73 minutes).
const MAX_VALUE: u64 = (1 << 42) - 1;
const BUCKETS: usize = ((42 - SUB_BITS) as usize) * SUB as usize + 2 * SUB as usize;

/// Percentiles the benchmark may report, in increasing order.
pub const PERCENTILES: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

fn index(value: u64) -> usize {
    let v = value.min(MAX_VALUE);
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (shift as usize) * SUB as usize + (v >> shift) as usize
}

/// Midpoint of bucket `idx` (the exact value below 128).
fn midpoint(idx: usize) -> f64 {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return idx as f64;
    }
    let shift = idx / SUB - 1;
    let mantissa = idx - shift * SUB;
    let lower = mantissa << shift;
    lower as f64 + (1u64 << shift) as f64 / 2.0
}

impl Hist {
    pub fn record(&mut self, value: u64) {
        self.counts[index(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Value at quantile `q`: the bucket midpoint of the `ceil(q * n)`-th
    /// smallest sample. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(midpoint(idx).min(self.max as f64));
            }
        }
        Some(self.max as f64)
    }

    /// The highest of [`PERCENTILES`] that leaves at least ten samples
    /// beyond it, with its value. `None` when fewer than 20 samples exist.
    pub fn deepest_resolved(&self) -> Option<(f64, f64)> {
        let n = self.total as f64;
        PERCENTILES
            .iter()
            .copied()
            .rfind(|q| n * (1.0 - q) >= 10.0 - 1e-9)
            .and_then(|q| self.quantile(q).map(|v| (q, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut last = 0;
        for v in [0u64, 1, 127, 128, 129, 255, 256, 257, 1 << 20, MAX_VALUE] {
            let idx = index(v);
            assert!(idx >= last && idx < BUCKETS, "value {v} -> {idx}");
            last = idx;
        }
        for v in [128u64, 1000, 12_345, 999_999, 1 << 30] {
            let mid = midpoint(index(v));
            assert!((mid - v as f64).abs() / v as f64 <= 0.004, "{v} -> {mid}");
        }
    }

    #[test]
    fn quantiles_follow_rank() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.004);
        let (q, _) = h.deepest_resolved().unwrap();
        assert_eq!(q, 0.99);
    }
}
