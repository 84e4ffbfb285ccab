//! Traffic sources: how leaf nodes generate data for the hub.

use hidwa_units::{DataRate, DataVolume, TimeSpan};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A traffic generation pattern for one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// A fixed-size frame every fixed period (sensor streaming with local
    /// buffering): e.g. an ECG patch shipping 512 B every second.
    Periodic {
        /// Frame interval.
        period: TimeSpan,
        /// Application bytes per frame.
        frame_bytes: usize,
    },
    /// A continuous stream at a target rate, chunked into frames of the given
    /// size (audio/video): the period is derived from rate and frame size.
    Streaming {
        /// Sustained application data rate.
        rate: DataRate,
        /// Application bytes per frame.
        frame_bytes: usize,
    },
    /// Poisson-like bursts: exponentially distributed gaps with the given
    /// mean, each burst carrying a fixed payload (event-driven sensors).
    Bursty {
        /// Mean time between bursts.
        mean_interval: TimeSpan,
        /// Application bytes per burst.
        burst_bytes: usize,
    },
    /// No traffic (an actuator that only listens).
    Silent,
}

impl TrafficPattern {
    /// Convenience constructor for [`TrafficPattern::Periodic`].
    #[must_use]
    pub fn periodic(period: TimeSpan, frame_bytes: usize) -> Self {
        TrafficPattern::Periodic {
            period,
            frame_bytes,
        }
    }

    /// Convenience constructor for [`TrafficPattern::Streaming`].
    #[must_use]
    pub fn streaming(rate: DataRate, frame_bytes: usize) -> Self {
        TrafficPattern::Streaming { rate, frame_bytes }
    }

    /// Convenience constructor for [`TrafficPattern::Bursty`].
    #[must_use]
    pub fn bursty(mean_interval: TimeSpan, burst_bytes: usize) -> Self {
        TrafficPattern::Bursty {
            mean_interval,
            burst_bytes,
        }
    }

    /// Long-run average application data rate of the pattern.
    #[must_use]
    pub fn average_rate(&self) -> DataRate {
        match *self {
            TrafficPattern::Periodic {
                period,
                frame_bytes,
            } => {
                if period.as_seconds() <= 0.0 {
                    DataRate::ZERO
                } else {
                    DataVolume::from_bytes(frame_bytes as f64) / period
                }
            }
            TrafficPattern::Streaming { rate, .. } => rate,
            TrafficPattern::Bursty {
                mean_interval,
                burst_bytes,
            } => {
                if mean_interval.as_seconds() <= 0.0 {
                    DataRate::ZERO
                } else {
                    DataVolume::from_bytes(burst_bytes as f64) / mean_interval
                }
            }
            TrafficPattern::Silent => DataRate::ZERO,
        }
    }

    /// Bytes carried by one frame of this pattern.
    #[must_use]
    pub fn frame_bytes(&self) -> usize {
        match *self {
            TrafficPattern::Periodic { frame_bytes, .. }
            | TrafficPattern::Streaming { frame_bytes, .. } => frame_bytes,
            TrafficPattern::Bursty { burst_bytes, .. } => burst_bytes,
            TrafficPattern::Silent => 0,
        }
    }

    /// The same pattern with its long-run offered load scaled by `factor`:
    /// periodic and bursty intervals shrink by `factor`, streaming rates grow
    /// by it, frame sizes stay put (so MAC overhead per byte is unchanged and
    /// a scaled fleet stresses the medium, not the framing).  A non-finite or
    /// non-positive factor is ignored — the pattern is returned unchanged —
    /// so degenerate sweep axes stay simulable instead of panicking.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        if !(factor.is_finite() && factor > 0.0) {
            return self.clone();
        }
        match *self {
            TrafficPattern::Periodic {
                period,
                frame_bytes,
            } => TrafficPattern::Periodic {
                period: TimeSpan::from_seconds(period.as_seconds() / factor),
                frame_bytes,
            },
            TrafficPattern::Streaming { rate, frame_bytes } => TrafficPattern::Streaming {
                rate: DataRate::from_bps(rate.as_bps() * factor),
                frame_bytes,
            },
            TrafficPattern::Bursty {
                mean_interval,
                burst_bytes,
            } => TrafficPattern::Bursty {
                mean_interval: TimeSpan::from_seconds(mean_interval.as_seconds() / factor),
                burst_bytes,
            },
            TrafficPattern::Silent => TrafficPattern::Silent,
        }
    }

    /// Time until the next frame after the current one, or `None` for silent
    /// patterns.  Bursty patterns draw from an exponential distribution using
    /// `rng`; deterministic patterns ignore it.
    pub fn next_interval<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<TimeSpan> {
        match *self {
            TrafficPattern::Periodic { period, .. } => Some(period),
            TrafficPattern::Streaming { rate, frame_bytes } => {
                if rate.as_bps() <= 0.0 {
                    None
                } else {
                    Some(DataVolume::from_bytes(frame_bytes as f64) / rate)
                }
            }
            TrafficPattern::Bursty { mean_interval, .. } => {
                let u: f64 = rng.gen_range(1e-9..1.0);
                Some(mean_interval * (-u.ln()))
            }
            TrafficPattern::Silent => None,
        }
    }
}

/// Draws an index in `0..len` by cumulative weight using a **single**
/// uniform sample, so every call consumes exactly one RNG draw regardless of
/// `len` — the reproducibility contract both [`TrafficMix::sample`] and the
/// population layer's archetype draw rely on.
///
/// Weights are read through `weight(i)`; non-finite or negative weights count
/// as zero.  Returns `None` when every weight is zero (the draw is still
/// consumed, keeping downstream draws aligned).  Float rounding that leaves
/// the target at ~0 after the last entry resolves to the last positively
/// weighted index.
pub fn weighted_index<R, F>(rng: &mut R, len: usize, weight: F) -> Option<usize>
where
    R: Rng + ?Sized,
    F: Fn(usize) -> f64,
{
    let clamped = |i: usize| {
        let w = weight(i);
        if w.is_finite() && w > 0.0 {
            w
        } else {
            0.0
        }
    };
    let total: f64 = (0..len).map(clamped).sum();
    let mut target = rng.gen_range(0.0..1.0) * total;
    if total <= 0.0 {
        return None;
    }
    for i in 0..len {
        target -= clamped(i);
        if target < 0.0 {
            return Some(i);
        }
    }
    (0..len).rev().find(|&i| clamped(i) > 0.0)
}

/// A weighted mix of [`TrafficPattern`]s for one leaf class.
///
/// Real populations do not run one traffic shape per sensor: the same IMU
/// wristband streams continuously on one wearer and batches periodically on
/// another.  A `TrafficMix` captures that spread as `(weight, pattern)`
/// entries; the population layer draws one pattern per body with a single
/// uniform sample, so the draw is a pure function of the RNG state (and
/// therefore of the per-body seed).
///
/// # Example
///
/// ```
/// use hidwa_netsim::traffic::{TrafficMix, TrafficPattern};
/// use hidwa_units::{DataRate, TimeSpan};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mix = TrafficMix::new(vec![
///     (3.0, TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 512)),
///     (1.0, TrafficPattern::streaming(DataRate::from_kbps(13.0), 512)),
/// ]);
/// let mut rng = StdRng::seed_from_u64(7);
/// let (index, drawn) = mix.sample(&mut rng);
/// assert_eq!(&mix.entries()[index.unwrap()].1, drawn);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMix {
    /// `(weight, pattern)` entries; weights need not be normalised.
    entries: Vec<(f64, TrafficPattern)>,
}

impl TrafficMix {
    /// Creates a mix from `(weight, pattern)` entries.
    ///
    /// Non-finite or negative weights are clamped to zero.  An empty mix (or
    /// one whose weights are all zero) always samples [`TrafficPattern::Silent`]
    /// — it never panics, so degenerate configurations stay simulable.
    #[must_use]
    pub fn new(entries: Vec<(f64, TrafficPattern)>) -> Self {
        let entries = entries
            .into_iter()
            .map(|(w, p)| (if w.is_finite() && w > 0.0 { w } else { 0.0 }, p))
            .collect();
        Self { entries }
    }

    /// A mix that always yields the one given pattern.
    #[must_use]
    pub fn fixed(pattern: TrafficPattern) -> Self {
        Self {
            entries: vec![(1.0, pattern)],
        }
    }

    /// The `(weight, pattern)` entries of the mix.
    #[must_use]
    pub fn entries(&self) -> &[(f64, TrafficPattern)] {
        &self.entries
    }

    /// Weight-averaged long-run application data rate of the mix — the
    /// expected offered load of a leaf drawn from it.
    #[must_use]
    pub fn expected_rate(&self) -> DataRate {
        let total: f64 = self.entries.iter().map(|(w, _)| w).sum();
        if total <= 0.0 {
            return DataRate::ZERO;
        }
        let bps: f64 = self
            .entries
            .iter()
            .map(|(w, p)| w * p.average_rate().as_bps())
            .sum();
        DataRate::from_bps(bps / total)
    }

    /// The same mix with every pattern scaled by `factor` (see
    /// [`TrafficPattern::scaled`]); weights are untouched, so the **draw**
    /// a body makes from the scaled mix lands on the scaled counterpart of
    /// exactly the pattern it would have drawn unscaled — traffic scaling
    /// never perturbs the deterministic sampling stream.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            entries: self
                .entries
                .iter()
                .map(|(w, p)| (*w, p.scaled(factor)))
                .collect(),
        }
    }

    /// Draws one entry via [`weighted_index`] (one uniform sample per
    /// call): its index and its pattern.  A degenerate mix yields `None`
    /// and [`TrafficPattern::Silent`].
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Option<usize>, &TrafficPattern) {
        static SILENT: TrafficPattern = TrafficPattern::Silent;
        let index = weighted_index(rng, self.entries.len(), |i| self.entries[i].0);
        (index, index.map_or(&SILENT, |i| &self.entries[i].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn periodic_average_rate() {
        let p = TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 500);
        assert!((p.average_rate().as_bps() - 4000.0).abs() < 1e-9);
        assert_eq!(p.frame_bytes(), 500);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.next_interval(&mut rng), Some(TimeSpan::from_seconds(1.0)));
    }

    #[test]
    fn streaming_interval_matches_rate() {
        let s = TrafficPattern::streaming(DataRate::from_kbps(256.0), 1024);
        let mut rng = StdRng::seed_from_u64(1);
        let interval = s.next_interval(&mut rng).unwrap();
        assert!((interval.as_seconds() - 1024.0 * 8.0 / 256_000.0).abs() < 1e-9);
        assert_eq!(s.average_rate(), DataRate::from_kbps(256.0));
        // Zero-rate stream produces nothing.
        let dead = TrafficPattern::streaming(DataRate::ZERO, 1024);
        assert!(dead.next_interval(&mut rng).is_none());
    }

    #[test]
    fn bursty_mean_interval_approximates_configuration() {
        let b = TrafficPattern::bursty(TimeSpan::from_seconds(2.0), 128);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| b.next_interval(&mut rng).unwrap().as_seconds())
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 2.0).abs() < 0.1, "mean interval {mean}");
        assert!((b.average_rate().as_bps() - 512.0).abs() < 1e-9);
    }

    #[test]
    fn silent_pattern_is_silent() {
        let s = TrafficPattern::Silent;
        let mut rng = StdRng::seed_from_u64(1);
        assert!(s.next_interval(&mut rng).is_none());
        assert_eq!(s.average_rate(), DataRate::ZERO);
        assert_eq!(s.frame_bytes(), 0);
    }

    #[test]
    fn degenerate_periods_give_zero_rate() {
        assert_eq!(
            TrafficPattern::periodic(TimeSpan::ZERO, 100).average_rate(),
            DataRate::ZERO
        );
        assert_eq!(
            TrafficPattern::bursty(TimeSpan::ZERO, 100).average_rate(),
            DataRate::ZERO
        );
    }

    #[test]
    fn mix_sampling_tracks_weights() {
        let periodic = TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 512);
        let streaming = TrafficPattern::streaming(DataRate::from_kbps(13.0), 512);
        let mix = TrafficMix::new(vec![(3.0, periodic.clone()), (1.0, streaming.clone())]);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let periodic_draws = (0..n)
            .filter(|_| *mix.sample(&mut rng).1 == periodic)
            .count();
        let fraction = periodic_draws as f64 / f64::from(n);
        assert!((fraction - 0.75).abs() < 0.02, "fraction {fraction}");
        // Expected rate is the weight-blended average.
        let expected = 0.75 * periodic.average_rate().as_bps() + 0.25 * 13_000.0;
        assert!((mix.expected_rate().as_bps() - expected).abs() < 1e-9);
    }

    #[test]
    fn mix_sampling_is_pure_in_the_rng_state() {
        let mix = TrafficMix::new(vec![
            (
                1.0,
                TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 128),
            ),
            (
                1.0,
                TrafficPattern::bursty(TimeSpan::from_seconds(2.0), 256),
            ),
            (1.0, TrafficPattern::Silent),
        ]);
        let draw = |seed| mix.sample(&mut StdRng::seed_from_u64(seed)).1.clone();
        for seed in 0..50 {
            assert_eq!(draw(seed), draw(seed));
        }
    }

    #[test]
    fn degenerate_mixes_sample_silent_and_consume_one_draw() {
        let empty = TrafficMix::new(Vec::new());
        let zeroed = TrafficMix::new(vec![
            (
                0.0,
                TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 64),
            ),
            (f64::NAN, TrafficPattern::Silent),
            (-3.0, TrafficPattern::Silent),
        ]);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(empty.sample(&mut rng), (None, &TrafficPattern::Silent));
        assert_eq!(zeroed.sample(&mut rng), (None, &TrafficPattern::Silent));
        assert_eq!(empty.expected_rate(), DataRate::ZERO);
        // The degenerate sample still consumed exactly one draw: a fresh RNG
        // advanced by one uniform matches the post-sample stream.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let _ = empty.sample(&mut a);
        let _: f64 = b.gen_range(0.0..1.0);
        assert_eq!(a.gen_range(0u64..1000), b.gen_range(0u64..1000));
    }

    #[test]
    fn scaling_multiplies_offered_load_and_keeps_frames() {
        let periodic = TrafficPattern::periodic(TimeSpan::from_seconds(2.0), 512);
        let streaming = TrafficPattern::streaming(DataRate::from_kbps(13.0), 512);
        let bursty = TrafficPattern::bursty(TimeSpan::from_seconds(4.0), 256);
        for pattern in [&periodic, &streaming, &bursty] {
            let scaled = pattern.scaled(2.0);
            assert!(
                (scaled.average_rate().as_bps() - 2.0 * pattern.average_rate().as_bps()).abs()
                    < 1e-9,
                "scaling by 2 must double the offered load of {pattern:?}"
            );
            assert_eq!(scaled.frame_bytes(), pattern.frame_bytes());
        }
        assert_eq!(TrafficPattern::Silent.scaled(3.0), TrafficPattern::Silent);
        // Identity scaling is exact (bit-for-bit), not merely approximate.
        assert_eq!(periodic.scaled(1.0), periodic);
        // Degenerate factors are ignored rather than panicking.
        assert_eq!(periodic.scaled(0.0), periodic);
        assert_eq!(periodic.scaled(-2.0), periodic);
        assert_eq!(periodic.scaled(f64::NAN), periodic);
    }

    #[test]
    fn scaled_mix_preserves_weights_and_draw_alignment() {
        let mix = TrafficMix::new(vec![
            (
                3.0,
                TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 512),
            ),
            (
                1.0,
                TrafficPattern::streaming(DataRate::from_kbps(13.0), 512),
            ),
        ]);
        let scaled = mix.scaled(2.0);
        assert!(
            (scaled.expected_rate().as_bps() - 2.0 * mix.expected_rate().as_bps()).abs() < 1e-9
        );
        // Same RNG state draws the scaled counterpart of the same entry.
        for seed in 0..32 {
            let base_pick = mix.sample(&mut StdRng::seed_from_u64(seed)).1.clone();
            let scaled_pick = scaled.sample(&mut StdRng::seed_from_u64(seed)).1.clone();
            assert_eq!(scaled_pick, base_pick.scaled(2.0), "seed {seed} misaligned");
        }
    }

    #[test]
    fn fixed_mix_always_yields_its_pattern() {
        let pattern = TrafficPattern::streaming(DataRate::from_kbps(256.0), 1024);
        let mix = TrafficMix::fixed(pattern.clone());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), (Some(0), &pattern));
        }
        assert_eq!(mix.expected_rate(), pattern.average_rate());
    }
}
