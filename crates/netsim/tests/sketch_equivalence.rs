//! Property tests pinning the [`LatencySketch`] error bound against the
//! exact `Vec`-based percentile computation it replaces, both directly on
//! random sample sets and end-to-end through the simulator across periodic,
//! bursty and streaming traffic.

use bytes::BytesMut;
use hidwa_eqs::body::BodySite;
use hidwa_netsim::mac::MacPolicy;
use hidwa_netsim::node::{LinkParams, NodeConfig};
use hidwa_netsim::sim::Simulation;
use hidwa_netsim::sketch::{ExactSum, LatencySketch, RELATIVE_ERROR_BOUND};
use hidwa_netsim::traffic::TrafficPattern;
use hidwa_units::{DataRate, EnergyPerBit, TimeSpan};
use proptest::prelude::*;

/// The exact nearest-rank quantile the pre-refactor engine computed.
fn exact_quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((samples.len() as f64 - 1.0) * q).round() as usize;
    samples[idx.min(samples.len() - 1)]
}

/// The codec bytes of `sketch`: equal bytes are equal counts, limbs,
/// extrema bits and buckets.
fn sketch_bytes(sketch: &LatencySketch) -> Vec<u8> {
    let mut out = BytesMut::new();
    sketch.encode(&mut out);
    out.to_vec()
}

fn sum_bytes(sum: &ExactSum) -> Vec<u8> {
    let mut out = BytesMut::new();
    sum.encode(&mut out);
    out.to_vec()
}

/// `merge_scaled(other, n)` and `add_sum_scaled(other, n)` are bit for bit
/// `n` calls of `merge` / `add_sum`, whatever the two windows: an empty
/// receiver, disjoint and overlapping windows, and one below the
/// receiver's.  `n = 2^20` repeats carry through several limbs; its oracle
/// doubles `other` 20 times by merging it into itself, then merges it once,
/// which associativity makes equal to 2^20 single merges.
#[test]
fn scaled_merges_equal_repeated_merges() {
    let sketch_of = |millis: &[f64]| {
        let mut sketch = LatencySketch::new();
        for &ms in millis {
            sketch.record(TimeSpan::from_millis(ms));
        }
        sketch
    };
    let sum_of = |values: &[f64]| {
        let mut sum = ExactSum::new();
        for &value in values {
            sum.add(value);
        }
        sum
    };
    let receiver = sketch_of(&[4.0, 5.5, 5.5, 9.0]);
    let sketches = [
        (
            "empty receiver",
            LatencySketch::new(),
            sketch_of(&[3.0, 7.0, 7.0]),
        ),
        ("disjoint", receiver.clone(), sketch_of(&[200.0, 350.0])),
        (
            "overlapping",
            receiver.clone(),
            sketch_of(&[5.0, 6.0, 12.0]),
        ),
        ("below", receiver, sketch_of(&[0.01, 0.5])),
    ];
    let receiver = sum_of(&[0.1, 3.0, 1e-300]);
    let sums = [
        (
            "empty receiver",
            ExactSum::new(),
            sum_of(&[1e-3, 0.25, 7.0]),
        ),
        (
            "disjoint",
            receiver.clone(),
            sum_of(&[1e300, f64::MAX / 3.0]),
        ),
        ("overlapping", receiver.clone(), sum_of(&[0.2, 7.5, 1e-300])),
        (
            "below",
            receiver,
            sum_of(&[f64::MIN_POSITIVE / 7.0, 1e-310]),
        ),
    ];
    const DOUBLINGS: u32 = 20;
    for n in [0u64, 1, 2, 1000, 1 << DOUBLINGS] {
        for (name, base, other) in &sketches {
            let mut scaled = base.clone();
            scaled.merge_scaled(other, n);
            let mut repeated = base.clone();
            if n == 1 << DOUBLINGS {
                let mut doubled = other.clone();
                for _ in 0..DOUBLINGS {
                    doubled.merge(&doubled.clone());
                }
                repeated.merge(&doubled);
            } else {
                for _ in 0..n {
                    repeated.merge(other);
                }
            }
            assert_eq!(
                sketch_bytes(&scaled),
                sketch_bytes(&repeated),
                "{name}, n = {n}"
            );
            assert_eq!(scaled.count(), base.count() + n * other.count(), "{name}");
        }
        for (name, base, other) in &sums {
            let mut scaled = base.clone();
            scaled.add_sum_scaled(other, n);
            let mut repeated = base.clone();
            if n == 1 << DOUBLINGS {
                let mut doubled = other.clone();
                for _ in 0..DOUBLINGS {
                    doubled.add_sum(&doubled.clone());
                }
                repeated.add_sum(&doubled);
            } else {
                for _ in 0..n {
                    repeated.add_sum(other);
                }
            }
            assert_eq!(sum_bytes(&scaled), sum_bytes(&repeated), "{name}, n = {n}");
            assert_eq!(scaled.to_f64().to_bits(), repeated.to_f64().to_bits());
        }
    }
}

fn wir_link() -> LinkParams {
    LinkParams::new(
        DataRate::from_mbps(4.0),
        EnergyPerBit::from_pico_joules(100.0),
        TimeSpan::from_micros(100.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary sample sets spanning six decades, every queried quantile
    /// sits in `[exact, exact · (1 + RELATIVE_ERROR_BOUND)]`.
    #[test]
    fn sketch_quantiles_bracket_the_exact_value(
        exponents in prop::collection::vec(-6.0..1.0f64, 1..400),
        q in 0.0..=1.0f64,
    ) {
        let mut samples: Vec<f64> = exponents.iter().map(|e| 10f64.powf(*e)).collect();
        let mut sketch = LatencySketch::new();
        for &s in &samples {
            sketch.record(TimeSpan::from_seconds(s));
        }
        let exact = exact_quantile(&mut samples, q);
        let got = sketch.quantile(q).as_seconds();
        prop_assert!(got >= exact - 1e-15, "quantile {} under-reported: {} < {}", q, got, exact);
        prop_assert!(
            got <= exact * (1.0 + RELATIVE_ERROR_BOUND) + 1e-15,
            "quantile {} over bound: {} vs exact {}", q, got, exact
        );
    }

    /// Mean, min, max and count are tracked exactly regardless of the input
    /// distribution.
    #[test]
    fn sketch_scalars_are_exact(
        samples in prop::collection::vec(1e-6..10.0f64, 1..300),
    ) {
        let mut sketch = LatencySketch::new();
        let mut sum = 0.0;
        for &s in &samples {
            sketch.record(TimeSpan::from_seconds(s));
            sum += s;
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0f64, f64::max);
        prop_assert_eq!(sketch.count(), samples.len() as u64);
        prop_assert_eq!(sketch.min().as_seconds(), min);
        prop_assert_eq!(sketch.max().as_seconds(), max);
        prop_assert!((sketch.mean().as_seconds() - sum / samples.len() as f64).abs() < 1e-12);
    }

    /// End-to-end: the streaming engine's p95 stays within the documented
    /// bound of the reference engine's exact p95 for every traffic shape the
    /// simulator models, while all exact statistics match bit-for-bit.
    #[test]
    fn engines_agree_across_traffic_shapes(
        shape in prop::sample::select(vec![0usize, 1, 2]),
        period_ms in 20.0..200.0f64,
        rate_kbps in 16.0..256.0f64,
        frame_bytes in 64usize..2048,
        seed in 0u64..1000,
    ) {
        let traffic = match shape {
            0 => TrafficPattern::periodic(TimeSpan::from_millis(period_ms), frame_bytes),
            1 => TrafficPattern::bursty(TimeSpan::from_millis(period_ms), frame_bytes),
            _ => TrafficPattern::streaming(DataRate::from_kbps(rate_kbps), frame_bytes),
        };
        let build = |reference: bool| {
            let mut sim = Simulation::new(MacPolicy::Polling)
                .with_seed(seed)
                .with_reference_engine(reference);
            for i in 0..3 {
                sim.add_node(
                    NodeConfig::leaf(format!("n{i}"), BodySite::Wrist, wir_link())
                        .with_traffic(traffic.clone()),
                );
            }
            sim.run(TimeSpan::from_seconds(15.0))
        };
        let reference = build(true);
        let streaming = build(false);
        prop_assert_eq!(reference.events_processed(), streaming.events_processed());
        for (r, s) in reference.node_stats().iter().zip(streaming.node_stats()) {
            prop_assert_eq!(r.generated_frames, s.generated_frames);
            prop_assert_eq!(r.delivered_bytes, s.delivered_bytes);
            prop_assert_eq!(r.radio_energy, s.radio_energy);
            prop_assert_eq!(r.max_latency, s.max_latency);
            prop_assert!(s.p95_latency >= r.p95_latency);
            prop_assert!(
                s.p95_latency.as_seconds()
                    <= r.p95_latency.as_seconds() * (1.0 + RELATIVE_ERROR_BOUND) + 1e-15,
                "p95 {} vs exact {}", s.p95_latency, r.p95_latency
            );
        }
        // Streaming sketches hold exactly one sample per delivered frame;
        // the reference engine keeps its exact path sketch-free.
        for (stats, sketch) in streaming.node_stats().iter().zip(streaming.latency_sketches()) {
            prop_assert_eq!(sketch.count(), stats.delivered_frames as u64);
        }
        prop_assert!(reference.latency_sketches().iter().all(|s| s.count() == 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The struct-of-arrays engine against the exact reference across node
    /// counts on **both sides of the 64-node mask boundary** (single-word
    /// ready mask vs the word-array path) with all three traffic shapes
    /// mixed inside one body: every exact statistic bit-equal, the p95
    /// within the sketch bound.
    #[test]
    fn engines_agree_across_node_counts_and_mixes(
        node_count in prop::sample::select(vec![2usize, 9, 70]),
        period_ms in 20.0..120.0f64,
        rate_kbps in 16.0..128.0f64,
        frame_bytes in 64usize..1024,
        seed in 0u64..500,
    ) {
        let traffic_for = |i: usize| match i % 3 {
            0 => TrafficPattern::periodic(TimeSpan::from_millis(period_ms), frame_bytes),
            1 => TrafficPattern::bursty(TimeSpan::from_millis(period_ms * 1.5), frame_bytes),
            _ => TrafficPattern::streaming(DataRate::from_kbps(rate_kbps), frame_bytes),
        };
        let build = |reference: bool| {
            let mut sim = Simulation::new(MacPolicy::Polling)
                .with_seed(seed)
                .with_reference_engine(reference);
            for i in 0..node_count {
                sim.add_node(
                    NodeConfig::leaf(format!("n{i}"), BodySite::Wrist, wir_link())
                        .with_traffic(traffic_for(i)),
                );
            }
            sim.run(TimeSpan::from_seconds(4.0))
        };
        let reference = build(true);
        let streaming = build(false);
        prop_assert_eq!(reference.events_processed(), streaming.events_processed());
        for (r, s) in reference.node_stats().iter().zip(streaming.node_stats()) {
            prop_assert_eq!(r.generated_frames, s.generated_frames);
            prop_assert_eq!(r.delivered_frames, s.delivered_frames);
            prop_assert_eq!(r.delivered_bytes, s.delivered_bytes);
            prop_assert_eq!(r.backlog_frames, s.backlog_frames);
            prop_assert_eq!(r.radio_energy, s.radio_energy);
            prop_assert_eq!(r.mean_latency, s.mean_latency);
            prop_assert_eq!(r.max_latency, s.max_latency);
            prop_assert!(s.p95_latency >= r.p95_latency);
            prop_assert!(
                s.p95_latency.as_seconds()
                    <= r.p95_latency.as_seconds() * (1.0 + RELATIVE_ERROR_BOUND) + 1e-15,
                "p95 {} vs exact {}", s.p95_latency, r.p95_latency
            );
        }
    }
}
