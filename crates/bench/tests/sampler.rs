//! The shared perf-row sampler: its statistics, its call counts and order,
//! and the result it hands back.

use hidwa_bench::sampler::{interleave, median_ns_per_call, sample, self_timed, Samples};
use std::time::Duration;

/// Samples whose walls are `ms` milliseconds and whose results count
/// the calls from 0.
fn walls(ms: &[u64]) -> Samples<usize> {
    let mut calls = ms.iter().enumerate();
    self_timed(ms.len(), || {
        let (i, &ms) = calls.next().expect("one wall per call");
        (Duration::from_millis(ms), i)
    })
}

#[test]
fn best_and_median_over_odd_and_even_counts() {
    let ms = Duration::from_millis;
    assert_eq!(*walls(&[7, 3, 9]).best(), (ms(3), 1));
    assert_eq!(*walls(&[5, 2, 8, 2]).best(), (ms(2), 1));
    assert_eq!(walls(&[9, 1, 5]).median(), ms(5));
    assert_eq!(walls(&[9, 1, 5, 7, 3]).median(), ms(5));
    assert_eq!(walls(&[9, 1, 5, 7]).median(), ms(7));
    assert_eq!(walls(&[2, 1]).median(), ms(2));
    assert_eq!(walls(&[6]).median(), ms(6));
}

#[test]
fn sample_times_exactly_n_calls_and_keeps_the_last_result() {
    for n in [1, 2, 5] {
        let mut calls = 0;
        let samples = sample(n, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, *samples.last()), (n, n));
        assert!(samples.results().copied().eq(1..=n));
    }
}

#[test]
fn interleaved_calls_alternate_slot_by_slot() {
    let mut order = Vec::new();
    let [first, second] = interleave(3, |slot| {
        order.push(slot);
        order.len()
    });
    assert_eq!(order, [0, 1, 0, 1, 0, 1]);
    assert!(first.results().copied().eq([1, 3, 5]));
    assert!(second.results().copied().eq([2, 4, 6]));
}

#[test]
fn median_ns_per_call_warms_up_then_times_every_call() {
    let mut calls = 0;
    assert!(median_ns_per_call(3, 4, 2, || calls += 1) >= 0.0);
    assert_eq!(calls, 2 + 3 * 4);
}
