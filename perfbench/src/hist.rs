//! Fixed-size log-linear latency histogram.
//!
//! The benchmark keeps its own memory constant, so a run's samples go into a
//! histogram allocated once, never into a growing list.  Values are
//! nanoseconds; each power-of-two range is split into 1024 linear buckets, so
//! a bucket is at most 0.1% wide, and a quantile interpolates inside its
//! bucket.  The histogram belongs to the benchmark, not the program, so a
//! change to the program's own sketches cannot move the measurement.

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
/// Ranges above the linear first one: values up to 2^50 ns (about 13 days).
const RANGES: u32 = 50 - SUB_BITS;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; ((RANGES as u64 + 1) * SUB) as usize],
            total: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let shift = (63 - value.leading_zeros()) - SUB_BITS;
        let range = u64::from(shift.min(RANGES - 1)) + 1;
        let offset = (value >> shift).min(2 * SUB - 1) - SUB;
        (range * SUB + offset) as usize
    }

    /// Lower edge and width of bucket `index`, in nanoseconds.
    fn bounds(index: usize) -> (f64, f64) {
        let index = index as u64;
        if index < SUB {
            return (index as f64, 1.0);
        }
        let shift = index / SUB - 1;
        let offset = index % SUB;
        (((SUB + offset) << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record_ns(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
    }

    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside the
    /// bucket holding rank `q · count`.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (below + count) as f64 >= target {
                let (low, width) = Self::bounds(index);
                let fraction = ((target - below as f64) / count as f64).clamp(0.0, 1.0);
                return low + fraction * width;
            }
            below += count;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (low, width) = Self::bounds(last);
        low + width
    }

    /// Samples strictly beyond the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - (q * self.total as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_and_stay_narrow() {
        for value in [
            0u64,
            1,
            1023,
            1024,
            1025,
            4097,
            123_456,
            987_654_321,
            1 << 45,
        ] {
            let index = Histogram::index(value);
            let (low, width) = Histogram::bounds(index);
            assert!(
                low <= value as f64 && (value as f64) < low + width,
                "{value}"
            );
            assert!(width <= 1.0 || width / low <= 1.0 / 1024.0 + 1e-12);
        }
    }

    #[test]
    fn quantiles_track_a_uniform_ramp() {
        let mut hist = Histogram::new();
        for value in 1..=100_000u64 {
            hist.record_ns(value * 1000);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 100_000_000.0;
            let got = hist.quantile_ns(q);
            assert!(
                (got - exact).abs() / exact < 2e-3,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(hist.beyond(0.99), 1000);
        assert_eq!(hist.beyond(0.9), 10_000);
    }
}
