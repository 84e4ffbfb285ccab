//! The one timing loop the perf-trajectory binaries share.  A row times a
//! call several times and takes the best wall time where it tracks what the
//! code can do on a quiet host, or the median where a lone fast sample
//! would flatter it.  Every result is kept until the samples are dropped,
//! so no result's drop lands inside a later sample's clock.

use std::time::{Duration, Instant};

/// The wall time and result of every call a sampler made, in call order.
/// Each accessor panics if no sample was taken.
#[derive(Debug)]
pub struct Samples<T>(Vec<(Duration, T)>);

impl<T> Samples<T> {
    /// The fastest sample, the earliest one on ties.
    #[must_use]
    pub fn best(&self) -> &(Duration, T) {
        self.0
            .iter()
            .min_by_key(|(wall, _)| *wall)
            .expect("a sample")
    }

    /// The median wall time, the upper of the two middle ones for an even
    /// count.
    #[must_use]
    pub fn median(&self) -> Duration {
        let mut walls: Vec<Duration> = self.0.iter().map(|(wall, _)| *wall).collect();
        walls.sort_unstable();
        walls[walls.len() / 2]
    }

    /// The last call's result.
    #[must_use]
    pub fn last(&self) -> &T {
        &self.0.last().expect("a sample").1
    }

    /// Every call's result, in call order.
    pub fn results(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|(_, result)| result)
    }
}

/// Times `rounds` calls of `call`.
pub fn sample<T>(rounds: usize, mut call: impl FnMut() -> T) -> Samples<T> {
    let [samples] = interleave(rounds, |_| call());
    samples
}

/// Times `rounds` rounds of `call(0)`, …, `call(N - 1)` in turn, so load on
/// a shared host hits every slot alike, and returns each slot's samples.
pub fn interleave<T, const N: usize>(
    rounds: usize,
    mut call: impl FnMut(usize) -> T,
) -> [Samples<T>; N] {
    let mut slots = std::array::from_fn(|_| Samples(Vec::with_capacity(rounds)));
    for _ in 0..rounds {
        for (slot, samples) in slots.iter_mut().enumerate() {
            let start = Instant::now();
            let result = call(slot);
            samples.0.push((start.elapsed(), result));
        }
    }
    slots
}

/// Takes `rounds` samples of a call that must set up before its timed part:
/// `call` clocks that part itself and returns its wall time and result.
pub fn self_timed<T>(rounds: usize, mut call: impl FnMut() -> (Duration, T)) -> Samples<T> {
    Samples((0..rounds).map(|_| call()).collect())
}

/// Median nanoseconds per call of `f`, over `samples` samples of `iters`
/// calls each, after `warmup` untimed calls.
pub fn median_ns_per_call(samples: usize, iters: usize, warmup: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let walls = sample(samples, || {
        for _ in 0..iters {
            f();
        }
    });
    walls.median().as_nanos() as f64 / iters as f64
}
