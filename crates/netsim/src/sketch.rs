//! Streaming latency statistics with a bounded-error percentile sketch.
//!
//! Long-horizon and fleet-scale simulations deliver millions of frames; the
//! exact path (collect every latency in a `Vec`, sort at the end) costs O(n)
//! memory and an O(n log n) finalisation per node.  [`LatencySketch`] replaces
//! it with a fixed-log-bucket histogram: O(1) memory (at most a few thousand
//! `u64` counters), O(1) insertion with no floating-point transcendentals on
//! the hot path, and percentile queries with a *documented, tested* error
//! bound.
//!
//! # Bucketing scheme
//!
//! Positive IEEE-754 doubles sort the same as their bit patterns, and the top
//! bits `(exponent, first SUB_BUCKET_BITS mantissa bits)` partition the
//! positive reals into log-spaced buckets whose relative width is exactly
//! `2^-SUB_BUCKET_BITS`.  With [`SUB_BUCKET_BITS`]` = 6` every bucket spans
//! `[v, v · (1 + 1/64))`, so reporting a bucket's **upper edge** overestimates
//! any value inside it by at most a factor `1 + 1/64` (≈ 1.57 %).
//!
//! # Error bound
//!
//! For any quantile `q`, let `exact` be the value the exact `Vec`-based
//! nearest-rank computation would return.  [`LatencySketch::quantile`]
//! guarantees, for samples within `[`[`MIN_TRACKED`]`, `[`MAX_TRACKED`]`]`
//! seconds:
//!
//! ```text
//! exact ≤ sketch ≤ exact · (1 + RELATIVE_ERROR_BOUND)
//! ```
//!
//! i.e. the sketch never under-reports a percentile and over-reports by at
//! most [`RELATIVE_ERROR_BOUND`] (1/64).  Samples below [`MIN_TRACKED`] (1 ns)
//! are clamped up to it (absolute error ≤ 1 ns — far below anything a
//! body-network MAC produces); samples above [`MAX_TRACKED`] (≈ 31.7 years)
//! are clamped down.  Count, mean, minimum and maximum are tracked exactly.
//! The property tests in `tests/sketch_equivalence.rs` assert the bound
//! against the exact computation across periodic, bursty and streaming
//! traffic shapes.
//!
//! # Example
//!
//! ```
//! use hidwa_netsim::sketch::{LatencySketch, RELATIVE_ERROR_BOUND};
//! use hidwa_units::TimeSpan;
//!
//! let mut sketch = LatencySketch::new();
//! for ms in 1..=1000 {
//!     sketch.record(TimeSpan::from_millis(ms as f64));
//! }
//! let p95 = sketch.quantile(0.95);
//! let exact = TimeSpan::from_millis(950.0);
//! assert!(p95 >= exact);
//! assert!(p95.as_seconds() <= exact.as_seconds() * (1.0 + RELATIVE_ERROR_BOUND));
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hidwa_units::TimeSpan;
use serde::{Deserialize, Serialize};

/// Number of mantissa bits used to subdivide each power-of-two range.
pub const SUB_BUCKET_BITS: u32 = 6;

/// Worst-case relative overestimate of [`LatencySketch::quantile`]:
/// `2^-SUB_BUCKET_BITS = 1/64 ≈ 1.57 %`.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / (1u64 << SUB_BUCKET_BITS) as f64;

/// Smallest latency (seconds) resolved by the log buckets; smaller samples
/// are clamped up to this value.
pub const MIN_TRACKED: f64 = 1.0e-9;

/// Largest latency (seconds) resolved by the log buckets; larger samples are
/// clamped down to this value.
pub const MAX_TRACKED: f64 = 1.0e9;

/// Bits discarded below the `(exponent, sub-bucket)` key.
const KEY_SHIFT: u32 = 52 - SUB_BUCKET_BITS;

fn key_of(seconds: f64) -> u64 {
    seconds.clamp(MIN_TRACKED, MAX_TRACKED).to_bits() >> KEY_SHIFT
}

fn base_key() -> u64 {
    MIN_TRACKED.to_bits() >> KEY_SHIFT
}

/// Index of the nearest-rank `q`-quantile (`q` clamped to `[0, 1]`) in a
/// sorted sample set of `len` elements: `round((len - 1) · q)`.
///
/// This is the single quantile convention of the workspace — the exact
/// reference path, [`LatencySketch::quantile`] and the fleet layer's
/// cross-body quantiles all use it, and the sketch's documented
/// never-under-report bound is stated relative to it.
///
/// # Panics
/// Panics if `len` is zero (an empty sample set has no quantiles).
#[must_use]
pub fn nearest_rank_index(len: usize, q: f64) -> usize {
    assert!(len > 0, "nearest_rank_index: empty sample set");
    let index = ((len as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    index.min(len - 1)
}

/// Number of 64-bit limbs in an [`ExactSum`]: a fixed-point window from
/// `2^-1074` (the smallest subnormal double) up past `2^1088` — every finite
/// nonnegative `f64` plus 64 bits of carry headroom, so even `2^64` additions
/// of `f64::MAX`-scale values cannot overflow the accumulator.
const SUM_LIMBS: usize = 34;

/// Exact, order-independent accumulator for nonnegative finite `f64` sums.
///
/// Floating-point addition is not associative, which is fatal for a merge
/// algebra: a sharded fold that combines partial sums `(a + b) + (c + d)`
/// produces different low bits than the single-stream `((a + b) + c) + d`.
/// `ExactSum` sidesteps the problem by accumulating into a 2176-bit
/// fixed-point integer (34 × 64-bit limbs, least-significant first, LSB
/// weight `2^-1074`): every `f64` is a 53-bit mantissa shifted by its
/// exponent, so each [`add`](Self::add) is an exact integer addition.
/// Addition of integers **is** associative and commutative, which makes any
/// merge tree over [`add_sum`](Self::add_sum) byte-identical to the serial
/// fold — the property the fleet layer's shard/checkpoint determinism
/// contract rests on.
///
/// [`to_f64`](Self::to_f64) rounds the exact value to the nearest `f64`
/// (ties to even), so two accumulators holding the same multiset of samples
/// report bit-identical totals no matter how the samples were grouped.
///
/// Inputs outside the supported domain (negative, NaN, infinite) are treated
/// as zero, mirroring [`LatencySketch::record`]'s sample hygiene.
#[derive(Clone, PartialEq, Eq)]
pub struct ExactSum {
    limbs: [u64; SUM_LIMBS],
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactSum")
            .field("value", &self.to_f64())
            .finish()
    }
}

impl ExactSum {
    /// The empty (zero) sum.
    #[must_use]
    pub fn new() -> Self {
        Self {
            limbs: [0; SUM_LIMBS],
        }
    }

    /// Whether no nonzero value has been accumulated.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&limb| limb == 0)
    }

    /// Adds one `f64` exactly.  Negative, NaN and infinite inputs contribute
    /// zero.
    pub fn add(&mut self, value: f64) {
        if !value.is_finite() || value <= 0.0 {
            return;
        }
        let bits = value.to_bits();
        let exponent = ((bits >> 52) & 0x7FF) as u32;
        let fraction = bits & ((1u64 << 52) - 1);
        // value = mantissa · 2^(bit_position - 1074), mantissa < 2^53.
        let (mantissa, bit_position) = if exponent == 0 {
            (fraction, 0)
        } else {
            (fraction | (1 << 52), exponent - 1)
        };
        let limb = (bit_position / 64) as usize;
        let shift = bit_position % 64;
        let wide = u128::from(mantissa) << shift;
        self.add_limb(limb, wide as u64);
        self.add_limb(limb + 1, (wide >> 64) as u64);
    }

    /// Adds `value` exactly `count` times — bit-identical to calling
    /// [`add`](Self::add) `count` times, in O(1) per 1024 repetitions
    /// instead of O(count).
    ///
    /// The 53-bit mantissa is multiplied by chunks of at most 1024
    /// repetitions, keeping every product below `2^63` so the same two-limb
    /// shifted addition `add` uses stays exact; integer multiplication *is*
    /// repeated integer addition, so the accumulator lands on the identical
    /// limbs.  [`LatencySketch::record_run`] sums through it.
    ///
    /// This and the other scaled operations are always inlined, so a caller
    /// passing a literal `count = 1` compiles to the unscaled update.
    #[inline(always)]
    pub fn add_scaled(&mut self, value: f64, count: u64) {
        if !value.is_finite() || value <= 0.0 || count == 0 {
            return;
        }
        let bits = value.to_bits();
        let exponent = ((bits >> 52) & 0x7FF) as u32;
        let fraction = bits & ((1u64 << 52) - 1);
        let (mantissa, bit_position) = if exponent == 0 {
            (fraction, 0)
        } else {
            (fraction | (1 << 52), exponent - 1)
        };
        let limb = (bit_position / 64) as usize;
        let shift = bit_position % 64;
        let mut remaining = count;
        while remaining > 0 {
            // mantissa < 2^53 and chunk ≤ 2^10, so the product < 2^63 and the
            // shifted value spans at most two limbs — the invariant `add`'s
            // fast path is built on.
            let chunk = remaining.min(1024);
            remaining -= chunk;
            let wide = u128::from(mantissa * chunk) << shift;
            self.add_limb(limb, wide as u64);
            self.add_limb(limb + 1, (wide >> 64) as u64);
        }
    }

    /// Adds another accumulator exactly (limb-wise integer addition) —
    /// associative and commutative by construction.
    #[inline]
    pub fn add_sum(&mut self, other: &ExactSum) {
        self.add_sum_scaled(other, 1);
    }

    /// Adds another accumulator exactly `count` times — bit-identical to
    /// calling [`add_sum`](Self::add_sum) `count` times, in one pass.
    ///
    /// Each limb is a limb-wise `u128` multiply-add: `theirs · count + mine +
    /// carry` is at most `(2^64 − 1)² + 2 · (2^64 − 1) = 2^128 − 1`, so it
    /// never overflows, and integer multiplication is repeated integer
    /// addition.  A limb with nothing to add is skipped, so the pass costs
    /// the few limbs a sum of similar magnitudes spans.  This is how a
    /// fleet fold flushes a counted run of equal bodies.
    #[inline(always)]
    pub fn add_sum_scaled(&mut self, other: &ExactSum, count: u64) {
        let mut carry = 0u128;
        for (mine, &theirs) in self.limbs.iter_mut().zip(&other.limbs) {
            if theirs == 0 && carry == 0 {
                continue;
            }
            let wide = u128::from(theirs) * u128::from(count) + u128::from(*mine) + carry;
            *mine = wide as u64;
            carry = wide >> 64;
        }
        debug_assert!(carry == 0, "ExactSum overflow (beyond 2^64 x f64::MAX)");
    }

    /// Adds `window · 2^-80` exactly: the fixed-point window of
    /// [`LatencySketch::record_windowed`], whose lowest bit sits at bit
    /// `1074 − 80` of the limbs.
    fn add_window(&mut self, window: u128) {
        const POSITION: usize = 1074 - 80;
        let (limb, shift) = (POSITION / 64, POSITION % 64);
        let low = u128::from(window as u64) << shift;
        let high = u128::from((window >> 64) as u64) << shift;
        self.add_limb(limb, low as u64);
        self.add_limb(limb + 1, (low >> 64) as u64);
        self.add_limb(limb + 1, high as u64);
        self.add_limb(limb + 2, (high >> 64) as u64);
    }

    fn add_limb(&mut self, mut index: usize, value: u64) {
        if value == 0 {
            return;
        }
        let (sum, mut carry) = self.limbs[index].overflowing_add(value);
        self.limbs[index] = sum;
        while carry {
            // The 64-bit headroom above the largest finite double makes
            // running off the top limb unreachable for physical workloads;
            // indexing would panic if it ever happened.
            index += 1;
            let (sum, overflow) = self.limbs[index].overflowing_add(1);
            self.limbs[index] = sum;
            carry = overflow;
        }
    }

    /// The accumulated value, rounded to the nearest `f64` (ties to even).
    ///
    /// Deterministic function of the limbs alone: equal sums — however their
    /// samples were grouped across shards or checkpoints — convert to
    /// bit-identical doubles.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        let Some(top_limb) = self.limbs.iter().rposition(|&limb| limb != 0) else {
            return 0.0;
        };
        let top_bit = top_limb * 64 + (63 - self.limbs[top_limb].leading_zeros() as usize);
        if top_bit <= 52 {
            // At most 53 significant bits in the bottom limb: the value
            // N · 2^-1074 is exactly representable (subnormal or the first
            // normal binade), and both conversions below are exact.
            return self.limbs[0] as f64 * pow2(-1074);
        }
        // Round the 53 bits below the MSB with guard + sticky.
        let mut mantissa = self.extract_53(top_bit - 52);
        let round = self.bit(top_bit - 53);
        let sticky = self.any_set_below(top_bit - 53);
        let mut exponent = top_bit as i64 - 52 - 1074;
        if round && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
            if mantissa == 1 << 53 {
                mantissa >>= 1;
                exponent += 1;
            }
        }
        // `mantissa` has its top bit at position 52, so the product is a
        // normal double and both factors are exact: no double rounding.
        mantissa as f64 * pow2(exponent as i32)
    }

    /// Bits `start .. start + 53` as an integer (MSB-aligned mantissa).
    fn extract_53(&self, start: usize) -> u64 {
        let limb = start / 64;
        let offset = start % 64;
        let mut value = self.limbs[limb] >> offset;
        if offset != 0 && limb + 1 < SUM_LIMBS {
            value |= self.limbs[limb + 1] << (64 - offset);
        }
        value & ((1u64 << 53) - 1)
    }

    fn bit(&self, index: usize) -> bool {
        (self.limbs[index / 64] >> (index % 64)) & 1 == 1
    }

    fn any_set_below(&self, index: usize) -> bool {
        let limb = index / 64;
        let offset = index % 64;
        self.limbs[..limb].iter().any(|&l| l != 0)
            || (offset != 0 && self.limbs[limb] & ((1u64 << offset) - 1) != 0)
    }

    /// Serializes the limbs (sparse window encoding: offset, length, then the
    /// nonzero span) into `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        let first = self.limbs.iter().position(|&l| l != 0).unwrap_or(0);
        let last = self
            .limbs
            .iter()
            .rposition(|&l| l != 0)
            .map_or(0, |i| i + 1);
        let span = &self.limbs[first.min(last)..last];
        out.put_u32(first.min(last) as u32);
        out.put_u32(span.len() as u32);
        for &limb in span {
            out.put_u64(limb);
        }
    }

    /// Decodes an accumulator previously written by [`encode`](Self::encode).
    ///
    /// # Errors
    /// [`SketchCodecError::Truncated`] if `input` runs out;
    /// [`SketchCodecError::Corrupt`] if the window is out of range or not in
    /// the canonical (trimmed) form `encode` produces.
    pub fn decode(input: &mut Bytes) -> Result<Self, SketchCodecError> {
        let first = take_u32(input)? as usize;
        let len = take_u32(input)? as usize;
        if first + len > SUM_LIMBS {
            return Err(SketchCodecError::Corrupt("ExactSum window out of range"));
        }
        let mut sum = Self::new();
        for limb in &mut sum.limbs[first..first + len] {
            *limb = take_u64(input)?;
        }
        // Enforce the canonical form `encode` produces (zero sums are
        // `(0, 0)`, nonzero windows end on nonzero limbs) so decode→encode
        // is always byte-identity.
        let canonical = if len == 0 {
            first == 0
        } else {
            sum.limbs[first] != 0 && sum.limbs[first + len - 1] != 0
        };
        if !canonical {
            return Err(SketchCodecError::Corrupt("ExactSum window not trimmed"));
        }
        Ok(sum)
    }
}

/// `2^exponent` as an exact `f64`, for `exponent` in `[-1074, 1023]`.
fn pow2(exponent: i32) -> f64 {
    debug_assert!((-1074..=1023).contains(&exponent));
    if exponent >= -1022 {
        f64::from_bits(((exponent + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (exponent + 1074))
    }
}

/// Why a serialized sketch (or [`ExactSum`]) failed to decode.
///
/// Decoding **never panics**: truncated, bit-flipped or otherwise malformed
/// bytes surface as one of these variants (the fleet checkpoint layer wraps
/// them with its own envelope checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchCodecError {
    /// The input ended before the encoded structure was complete.
    Truncated,
    /// The bytes are structurally complete but violate a sketch invariant.
    Corrupt(&'static str),
}

impl std::fmt::Display for SketchCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "sketch bytes truncated"),
            Self::Corrupt(what) => write!(f, "sketch bytes corrupt: {what}"),
        }
    }
}

impl std::error::Error for SketchCodecError {}

fn take_u32(input: &mut Bytes) -> Result<u32, SketchCodecError> {
    if input.remaining() < 4 {
        return Err(SketchCodecError::Truncated);
    }
    Ok(input.get_u32())
}

fn take_u64(input: &mut Bytes) -> Result<u64, SketchCodecError> {
    if input.remaining() < 8 {
        return Err(SketchCodecError::Truncated);
    }
    Ok(input.get_u64())
}

fn take_f64(input: &mut Bytes) -> Result<f64, SketchCodecError> {
    Ok(f64::from_bits(take_u64(input)?))
}

/// A latency sample as the sketch keeps it: non-finite and negative
/// samples become zero.
#[inline(always)]
fn sample_seconds(seconds: f64) -> f64 {
    if !seconds.is_finite() || seconds < 0.0 {
        return 0.0;
    }
    seconds
}

/// Streaming percentile sketch over latency samples.
///
/// See the [module docs](self) for the bucketing scheme and the error bound.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySketch {
    count: u64,
    /// Exact fixed-point sum of the samples (see [`ExactSum`]): makes the
    /// mean correctly rounded and — crucially — makes [`merge`](Self::merge)
    /// associative, so sharded folds are byte-identical to serial ones.
    sum_seconds: ExactSum,
    min_seconds: f64,
    max_seconds: f64,
    /// Key offset of `buckets[0]` relative to [`base_key()`]; meaningful
    /// only while `buckets` is non-empty.
    first_index: u64,
    /// `buckets[i]` counts samples whose key is `base_key() + first_index +
    /// i`.  The vector spans only the observed key range (first and last
    /// entries are always non-zero), so a body whose latencies cluster
    /// around one magnitude holds a few dozen counters, not the full range
    /// down to [`MIN_TRACKED`] — which is what keeps million-body fleet
    /// summaries cheap.
    buckets: Vec<u64>,
}

impl LatencySketch {
    /// Creates an empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum_seconds: ExactSum::new(),
            min_seconds: f64::INFINITY,
            max_seconds: 0.0,
            first_index: 0,
            buckets: Vec::new(),
        }
    }

    /// Empties the sketch in place: it then equals [`new`](Self::new) but
    /// keeps its bucket buffer, so a reused sketch allocates only when a
    /// run needs a wider window than any before it.
    pub(crate) fn clear(&mut self) {
        self.count = 0;
        self.sum_seconds = ExactSum::new();
        self.min_seconds = f64::INFINITY;
        self.max_seconds = 0.0;
        self.first_index = 0;
        self.buckets.clear();
    }

    /// Records one latency sample.
    ///
    /// Non-finite or negative samples are treated as zero (clamped up to
    /// [`MIN_TRACKED`]); they never occur in simulator output but must not
    /// poison the histogram.
    #[inline]
    pub fn record(&mut self, latency: TimeSpan) {
        let seconds = sample_seconds(latency.as_seconds());
        self.sum_seconds.add(seconds);
        self.count_samples(seconds, 1);
    }

    /// Records `count` identical latency samples in O(1) — bit-identical to
    /// calling [`record`](Self::record) `count` times.
    ///
    /// Every per-sample update is exact under batching: the count and the
    /// target bucket gain integer `count`, the [`ExactSum`] takes the scaled
    /// addition ([`ExactSum::add_scaled`], exactly `count` repeated adds),
    /// and min/max are idempotent over equal values.  A fleet fold records
    /// a counted run of equal bodies' p95 latencies through it.
    #[inline(always)]
    pub fn record_run(&mut self, latency: TimeSpan, count: u64) {
        if count == 0 {
            return;
        }
        let seconds = sample_seconds(latency.as_seconds());
        self.sum_seconds.add_scaled(seconds, count);
        self.count_samples(seconds, count);
    }

    /// Records one latency sample of `seconds` as [`record`](Self::record)
    /// does, except that its exact sum goes into `window` when it fits: the
    /// streaming engine's per-delivery path.
    ///
    /// `window` is a `u128` fixed-point sum whose lowest bit weighs `2^-80`
    /// s.  A double in `[2^-28, 2^23)` s is its 53-bit mantissa shifted by 0
    /// to 50 bits there, an exact integer below `2^103`, so adding it is one
    /// integer add with 25 bits of headroom.  A sample outside that range
    /// (zero and subnormals included) goes into the sketch's own
    /// [`ExactSum`], and so does the window itself, before the add that
    /// would overflow it.  Integer addition regroups freely, so once
    /// [`drain_window`](Self::drain_window) has added the window to the
    /// sketch, the sketch is bit-identical to one that recorded every sample
    /// through `record`.
    #[inline(always)]
    pub(crate) fn record_windowed(&mut self, seconds: f64, window: &mut u128) {
        // The biased exponents of [2^-28, 2^23): the lowest one puts a
        // mantissa's last bit on the window's lowest.
        const EXPONENTS: std::ops::Range<u64> = 1023 - 28..1023 + 23;
        let seconds = sample_seconds(seconds);
        let bits = seconds.to_bits();
        let exponent = bits >> 52;
        if EXPONENTS.contains(&exponent) {
            let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
            let term = u128::from(mantissa) << (exponent - EXPONENTS.start);
            *window = window.checked_add(term).unwrap_or_else(|| {
                self.sum_seconds.add_window(*window);
                term
            });
        } else {
            self.sum_seconds.add(seconds);
        }
        self.count_samples(seconds, 1);
    }

    /// Adds `window`, a [`record_windowed`](Self::record_windowed) sum, to
    /// the sketch's exact sum and empties it.
    pub(crate) fn drain_window(&mut self, window: &mut u128) {
        self.sum_seconds.add_window(std::mem::take(window));
    }

    /// Adds `count` samples of `seconds` (already cleaned) to everything
    /// but the exact sum: the count, the extrema and the bucket.  Always
    /// inlined, so `count = 1` compiles to the unscaled update.
    #[inline(always)]
    fn count_samples(&mut self, seconds: f64, count: u64) {
        self.count += count;
        self.min_seconds = self.min_seconds.min(seconds);
        self.max_seconds = self.max_seconds.max(seconds);
        let index = key_of(seconds) - base_key();
        if self.buckets.is_empty() {
            self.first_index = index;
            self.buckets.push(count);
        } else if index < self.first_index {
            // Rare: a sample below everything seen so far; shift the window.
            let shift = (self.first_index - index) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, shift));
            self.first_index = index;
            self.buckets[0] += count;
        } else {
            let relative = (index - self.first_index) as usize;
            if relative >= self.buckets.len() {
                self.buckets.resize(relative + 1, 0);
            }
            self.buckets[relative] += count;
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of live histogram buckets — the sketch's memory footprint in
    /// `u64` counters.  Bounded by the log-bucket resolution of the observed
    /// value range (not by the sample count), which is what fleet-scale
    /// aggregation relies on; `bench_netsim` records it as the streaming
    /// aggregator's peak-memory proxy.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Exact mean of the recorded samples ([`TimeSpan::ZERO`] when empty):
    /// the correctly rounded sum (see [`ExactSum`]) divided by the count, so
    /// the result is independent of the order — or sharding — in which the
    /// samples were accumulated.
    #[must_use]
    pub fn mean(&self) -> TimeSpan {
        if self.count == 0 {
            return TimeSpan::ZERO;
        }
        TimeSpan::from_seconds(self.sum_seconds.to_f64() / self.count as f64)
    }

    /// Exact minimum recorded sample ([`TimeSpan::ZERO`] when empty).
    #[must_use]
    pub fn min(&self) -> TimeSpan {
        if self.count == 0 {
            return TimeSpan::ZERO;
        }
        TimeSpan::from_seconds(self.min_seconds)
    }

    /// Exact maximum recorded sample ([`TimeSpan::ZERO`] when empty).
    #[must_use]
    pub fn max(&self) -> TimeSpan {
        if self.count == 0 {
            return TimeSpan::ZERO;
        }
        TimeSpan::from_seconds(self.max_seconds)
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) with the module-level error
    /// bound: never below the exact nearest-rank value, at most
    /// [`RELATIVE_ERROR_BOUND`] above it.
    ///
    /// Uses the same nearest-rank convention as the exact path it replaces:
    /// the value at sorted position `round((n - 1) · q)`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> TimeSpan {
        if self.count == 0 {
            return TimeSpan::ZERO;
        }
        // 1-based rank of the exact nearest-rank element.
        let rank = nearest_rank_index(self.count as usize, q) as u64 + 1;
        let mut cumulative = 0u64;
        for (index, &bucket_count) in self.buckets.iter().enumerate() {
            cumulative += bucket_count;
            if cumulative >= rank {
                // Upper edge of the bucket: ≥ every sample inside it, and at
                // most (1 + 1/64)× the smallest one.  The exact max caps the
                // top bucket so quantiles never exceed an observed sample.
                let key = base_key() + self.first_index + index as u64 + 1;
                let upper = f64::from_bits(key << KEY_SHIFT);
                return TimeSpan::from_seconds(upper.min(self.max_seconds));
            }
        }
        // Unreachable when counts are consistent; fall back to the exact max.
        TimeSpan::from_seconds(self.max_seconds)
    }

    /// Merges another sketch into this one (exact counts add; min/max/sum
    /// combine exactly), enabling deterministic fleet-wide aggregation.
    ///
    /// Merge is **associative and commutative**: counts, buckets and the
    /// [`ExactSum`] are integer additions, min/max are lattice operations.
    /// Any merge tree over the same sketches yields a byte-identical result —
    /// the algebra `hidwa_core`'s sharded fleet fold is built on.
    #[inline]
    pub fn merge(&mut self, other: &LatencySketch) {
        self.merge_scaled(other, 1);
    }

    /// Merges `other` into this sketch `count` times — bit-identical to
    /// calling [`merge`](Self::merge) `count` times, in one pass.
    ///
    /// Every piece of state scales exactly: the count and each bucket gain
    /// `count` times `other`'s, the sum takes [`ExactSum::add_sum_scaled`],
    /// and min/max are idempotent.  A fleet fold flushes a counted run of
    /// equal bodies through it.
    #[inline(always)]
    pub fn merge_scaled(&mut self, other: &LatencySketch, count: u64) {
        if other.count == 0 || count == 0 {
            return;
        }
        self.count += other.count * count;
        self.sum_seconds.add_sum_scaled(&other.sum_seconds, count);
        self.min_seconds = self.min_seconds.min(other.min_seconds);
        self.max_seconds = self.max_seconds.max(other.max_seconds);
        if self.buckets.is_empty() {
            self.first_index = other.first_index;
        }
        // Align the two observed-key windows before adding counts.  Both
        // windows start and end on non-zero buckets, so the merged window is
        // canonical too (equal sample multisets still compare equal).
        if other.first_index < self.first_index {
            let shift = (self.first_index - other.first_index) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, shift));
            self.first_index = other.first_index;
        }
        let offset = (other.first_index - self.first_index) as usize;
        if offset + other.buckets.len() > self.buckets.len() {
            self.buckets.resize(offset + other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets[offset..].iter_mut().zip(&other.buckets) {
            *mine += theirs * count;
        }
    }

    /// Serializes the full sketch state — count, exact sum, extrema, bucket
    /// window — into `out` (big-endian, fixed layout; see the fleet
    /// checkpoint format in ARCHITECTURE.md).  `decode` restores a
    /// byte-identical sketch: the pair is the transport for checkpoint/resume
    /// and cross-machine shard merges.
    pub fn encode(&self, out: &mut BytesMut) {
        out.put_u64(self.count);
        self.sum_seconds.encode(out);
        out.put_f64(self.min_seconds);
        out.put_f64(self.max_seconds);
        out.put_u64(self.first_index);
        out.put_u64(self.buckets.len() as u64);
        for &bucket in &self.buckets {
            out.put_u64(bucket);
        }
    }

    /// Decodes a sketch previously written by [`encode`](Self::encode),
    /// validating every structural invariant so corrupt bytes are rejected
    /// rather than silently mis-restored.
    ///
    /// # Errors
    /// [`SketchCodecError::Truncated`] when `input` ends early;
    /// [`SketchCodecError::Corrupt`] when the bytes violate a sketch
    /// invariant (bucket counts must sum to `count`, the window must be
    /// trimmed, an empty sketch must be canonical, extrema must be ordered).
    pub fn decode(input: &mut Bytes) -> Result<Self, SketchCodecError> {
        let count = take_u64(input)?;
        let sum_seconds = ExactSum::decode(input)?;
        let min_seconds = take_f64(input)?;
        let max_seconds = take_f64(input)?;
        let first_index = take_u64(input)?;
        let bucket_len = take_u64(input)?;
        // A length prefix larger than the bytes behind it is truncation (or a
        // flipped length bit) — reject before allocating.
        if bucket_len > input.remaining() as u64 / 8 {
            return Err(SketchCodecError::Truncated);
        }
        let mut buckets = Vec::with_capacity(bucket_len as usize);
        for _ in 0..bucket_len {
            buckets.push(take_u64(input)?);
        }
        if count == 0 {
            let empty = buckets.is_empty()
                && sum_seconds.is_zero()
                && min_seconds == f64::INFINITY
                && max_seconds == 0.0
                && first_index == 0;
            if !empty {
                return Err(SketchCodecError::Corrupt("empty sketch not canonical"));
            }
            return Ok(Self::new());
        }
        if buckets.is_empty() || *buckets.first().unwrap() == 0 || *buckets.last().unwrap() == 0 {
            return Err(SketchCodecError::Corrupt("bucket window not trimmed"));
        }
        let bucket_total: u64 = buckets
            .iter()
            .try_fold(0u64, |acc, &b| acc.checked_add(b))
            .ok_or(SketchCodecError::Corrupt("bucket counts overflow"))?;
        if bucket_total != count {
            return Err(SketchCodecError::Corrupt(
                "bucket counts do not sum to count",
            ));
        }
        if !(min_seconds.is_finite() && max_seconds.is_finite() && min_seconds <= max_seconds) {
            return Err(SketchCodecError::Corrupt("extrema out of order"));
        }
        if min_seconds < 0.0 {
            return Err(SketchCodecError::Corrupt("negative minimum"));
        }
        if first_index > key_of(MAX_TRACKED) - base_key() {
            return Err(SketchCodecError::Corrupt("bucket window out of range"));
        }
        Ok(Self {
            count,
            sum_seconds,
            min_seconds,
            max_seconds,
            first_index,
            buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    #[test]
    fn empty_sketch_reports_zeroes() {
        let s = LatencySketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), TimeSpan::ZERO);
        assert_eq!(s.min(), TimeSpan::ZERO);
        assert_eq!(s.max(), TimeSpan::ZERO);
        assert_eq!(s.quantile(0.95), TimeSpan::ZERO);
    }

    #[test]
    fn quantiles_respect_the_error_bound() {
        let mut sketch = LatencySketch::new();
        let mut values: Vec<f64> = (1..=5000)
            .map(|i| 1e-4 * (1.0 + (i as f64).sin().abs() * 50.0))
            .collect();
        for &v in &values {
            sketch.record(TimeSpan::from_seconds(v));
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let got = sketch.quantile(q).as_seconds();
            assert!(got >= exact - 1e-15, "q={q}: {got} < {exact}");
            assert!(
                got <= exact * (1.0 + RELATIVE_ERROR_BOUND) + 1e-15,
                "q={q}: {got} > bound around {exact}"
            );
        }
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut sketch = LatencySketch::new();
        for v in [0.25, 0.5, 1.0, 2.0] {
            sketch.record(TimeSpan::from_seconds(v));
        }
        assert_eq!(sketch.count(), 4);
        assert!((sketch.mean().as_seconds() - 0.9375).abs() < 1e-12);
        assert_eq!(sketch.min(), TimeSpan::from_seconds(0.25));
        assert_eq!(sketch.max(), TimeSpan::from_seconds(2.0));
        assert_eq!(sketch.quantile(1.0), TimeSpan::from_seconds(2.0));
    }

    #[test]
    fn degenerate_samples_are_clamped_not_poisonous() {
        let mut sketch = LatencySketch::new();
        sketch.record(TimeSpan::from_seconds(-1.0));
        sketch.record(TimeSpan::from_seconds(f64::NAN));
        sketch.record(TimeSpan::from_seconds(f64::INFINITY));
        sketch.record(TimeSpan::from_seconds(1e-12));
        assert_eq!(sketch.count(), 4);
        assert!(sketch.quantile(0.5).as_seconds().is_finite());
        // Tiny samples cost exactly one bucket, not a giant allocation.
        assert!(sketch.buckets.len() <= 1);
    }

    #[test]
    fn bucket_window_spans_only_the_observed_range() {
        // Millisecond-scale latencies must not pay for empty buckets all the
        // way down to the 1 ns floor (fleet summaries hold one sketch per
        // body).
        let mut sketch = LatencySketch::new();
        for us in 900..1100 {
            sketch.record(TimeSpan::from_micros(us as f64));
        }
        assert!(
            sketch.buckets.len() <= 32,
            "window too wide: {} buckets",
            sketch.buckets.len()
        );
        assert!(*sketch.buckets.first().unwrap() > 0);
        assert!(*sketch.buckets.last().unwrap() > 0);
        // A later out-of-window low sample extends the window backwards.
        sketch.record(TimeSpan::from_micros(1.0));
        assert!(*sketch.buckets.first().unwrap() > 0);
        let exact_p50 = TimeSpan::from_micros(999.0);
        assert!(sketch.quantile(0.5) >= exact_p50);
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut a = LatencySketch::new();
        let mut b = LatencySketch::new();
        let mut all = LatencySketch::new();
        for i in 0..500 {
            let v = TimeSpan::from_millis(0.1 + i as f64);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        a.merge(&LatencySketch::new());
        // Counts, extrema, buckets AND the sum combine exactly (the sum is
        // an ExactSum fixed-point accumulator, so regrouping the additions
        // cannot perturb low bits): the merged sketch is byte-identical to
        // the single-stream one.
        assert_eq!(a, all);
        assert_eq!(a.mean(), all.mean());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn exact_sum_is_order_and_grouping_independent() {
        let values: Vec<f64> = (1..=400)
            .map(|i| 1e-7 * (i as f64) * (1.0 + (i as f64).sin().abs() * 1e6))
            .collect();
        let mut forward = ExactSum::new();
        for &v in &values {
            forward.add(v);
        }
        let mut backward = ExactSum::new();
        for &v in values.iter().rev() {
            backward.add(v);
        }
        assert_eq!(forward, backward);
        // Any grouping of partial sums merges to the same accumulator.
        for split in [1, 37, 199, 399] {
            let mut left = ExactSum::new();
            let mut right = ExactSum::new();
            for &v in &values[..split] {
                left.add(v);
            }
            for &v in &values[split..] {
                right.add(v);
            }
            left.add_sum(&right);
            assert_eq!(left, forward);
            assert_eq!(left.to_f64().to_bits(), forward.to_f64().to_bits());
        }
        // The rounded readout agrees with naive summation to within its
        // accumulated rounding error.
        let naive: f64 = values.iter().sum();
        assert!((forward.to_f64() - naive).abs() <= naive * 1e-12);
    }

    #[test]
    fn exact_sum_readout_is_correctly_rounded() {
        // Values exactly representable in a shared binade: the sum is exact
        // in f64 too, so to_f64 must reproduce it bit for bit.
        let mut sum = ExactSum::new();
        for i in 1u64..=1000 {
            sum.add(i as f64 * 0.5f64.powi(20));
        }
        let expected = (1000 * 1001 / 2) as f64 * 0.5f64.powi(20);
        assert_eq!(sum.to_f64().to_bits(), expected.to_bits());
        // A sticky tail far below the mantissa must round up across a tie.
        let mut tie = ExactSum::new();
        tie.add(1.0);
        tie.add(f64::EPSILON / 2.0); // exactly halfway to the next double
        assert_eq!(tie.to_f64(), 1.0); // ties to even: mantissa stays even
        tie.add(f64::MIN_POSITIVE * f64::EPSILON); // any sticky bit breaks the tie
        assert_eq!(tie.to_f64(), 1.0 + f64::EPSILON);
        // Degenerate inputs contribute zero.
        let mut hygiene = ExactSum::new();
        hygiene.add(f64::NAN);
        hygiene.add(f64::NEG_INFINITY);
        hygiene.add(-5.0);
        assert!(hygiene.is_zero());
        assert_eq!(hygiene.to_f64(), 0.0);
        // Subnormals accumulate exactly.
        let mut tiny = ExactSum::new();
        for _ in 0..3 {
            tiny.add(f64::from_bits(1));
        }
        assert_eq!(tiny.to_f64().to_bits(), f64::from_bits(3).to_bits());
    }

    #[test]
    fn record_run_matches_repeated_record_bit_for_bit() {
        // Runs spanning the 1024-repetition chunk boundary, subnormals,
        // degenerate inputs and multi-magnitude mixes: the batched path must
        // land on the identical sketch state (PartialEq covers count, exact
        // sum limbs, extrema, window offset and every bucket).
        let runs: &[(f64, u64)] = &[
            (1.3e-3, 1),
            (1.3e-3, 1023),
            (2.75e-4, 1024),
            (9.9e-1, 1025),
            (1.3e-3, 4096),
            (f64::from_bits(3), 2500), // subnormal
            (-1.0, 7),                 // clamped to zero, like record
            (f64::NAN, 3),
            (5.0e2, 2047),
        ];
        let mut batched = LatencySketch::new();
        let mut looped = LatencySketch::new();
        for &(value, count) in runs {
            batched.record_run(TimeSpan::from_seconds(value), count);
            for _ in 0..count {
                looped.record(TimeSpan::from_seconds(value));
            }
        }
        assert_eq!(batched, looped);
        assert_eq!(
            batched.mean().as_seconds().to_bits(),
            looped.mean().as_seconds().to_bits()
        );
        // Zero-count runs are no-ops.
        let before = batched.clone();
        batched.record_run(TimeSpan::from_seconds(1.0), 0);
        assert_eq!(batched, before);
    }

    /// Records `samples` through [`LatencySketch::record_windowed`] into a
    /// sketch and its window, and through [`LatencySketch::record`] into
    /// another sketch.  Returns the windowed sketch and its window, not yet
    /// drained, and the recorded sketch.
    fn record_both(samples: impl Iterator<Item = f64>) -> (LatencySketch, u128, LatencySketch) {
        let (mut windowed, mut window, mut recorded) =
            (LatencySketch::new(), 0, LatencySketch::new());
        for seconds in samples {
            windowed.record_windowed(seconds, &mut window);
            recorded.record(TimeSpan::from_seconds(seconds));
        }
        (windowed, window, recorded)
    }

    fn codec_bytes(sketch: &LatencySketch) -> Vec<u8> {
        let mut out = BytesMut::new();
        sketch.encode(&mut out);
        out.freeze().to_vec()
    }

    #[test]
    fn windowed_sums_match_record_byte_for_byte() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let below = |seconds: f64| f64::from_bits(seconds.to_bits() - 1);
        let (low, high) = (2f64.powi(-28), 2f64.powi(23));
        // Random latencies over [1e-9, 1e3] s, then the window's edges.
        let mut rng = StdRng::seed_from_u64(0x51DE);
        let mut samples: Vec<f64> = (0..20_000)
            .map(|_| 10f64.powf(rng.gen_range(-9.0..3.0)))
            .collect();
        let outside = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            1e-300,
            1e-9,
            below(low),
            high,
            1e7,
            4e9,
        ];
        samples.extend(outside);
        samples.extend([low, below(high), 1.0, 3e-4]);
        let (mut windowed, mut window, recorded) = record_both(samples.iter().copied());
        windowed.drain_window(&mut window);
        assert_eq!(window, 0);
        assert_eq!(codec_bytes(&windowed), codec_bytes(&recorded));

        // Samples outside the window go straight into the exact sum.
        let (windowed, window, recorded) = record_both(outside.iter().copied());
        assert_eq!(window, 0);
        assert!(!windowed.sum_seconds.is_zero());
        assert_eq!(codec_bytes(&windowed), codec_bytes(&recorded));

        // The largest sample the window holds is just below 2^103 of its
        // units, so the 2^25 + 1st one overflows it: the window spills
        // into the exact sum and restarts.
        let samples = std::iter::repeat_n(below(high), (1 << 25) + 5).chain([2e-3]);
        let (mut windowed, mut window, recorded) = record_both(samples);
        assert!(!windowed.sum_seconds.is_zero(), "the window never spilled");
        windowed.drain_window(&mut window);
        assert_eq!(codec_bytes(&windowed), codec_bytes(&recorded));
        assert_eq!(
            windowed.mean().as_seconds().to_bits(),
            recorded.mean().as_seconds().to_bits()
        );
    }

    #[test]
    fn add_scaled_matches_repeated_add() {
        for &(value, count) in &[
            (0.1, 1u64),
            (0.1, 1024),
            (1.0 + f64::EPSILON, 100_000),
            (f64::from_bits(1), 3000),
            (6.626e-34, 2049),
        ] {
            let mut scaled = ExactSum::new();
            scaled.add_scaled(value, count);
            let mut repeated = ExactSum::new();
            for _ in 0..count {
                repeated.add(value);
            }
            assert_eq!(scaled, repeated, "value {value} count {count}");
        }
        // Degenerate values and zero counts contribute nothing.
        let mut hygiene = ExactSum::new();
        hygiene.add_scaled(f64::NAN, 10);
        hygiene.add_scaled(-2.0, 10);
        hygiene.add_scaled(1.0, 0);
        assert!(hygiene.is_zero());
    }

    #[test]
    fn sketch_codec_round_trips_byte_identically() {
        use bytes::BytesMut;
        let mut sketch = LatencySketch::new();
        for i in 0..3000 {
            sketch.record(TimeSpan::from_micros(10.0 + (i as f64) * 7.3));
        }
        let mut out = BytesMut::new();
        sketch.encode(&mut out);
        let encoded = out.freeze();
        let mut input = encoded.clone();
        let decoded = LatencySketch::decode(&mut input).expect("round trip");
        assert_eq!(decoded, sketch);
        assert_eq!(input.remaining(), 0);
        // Re-encoding the decoded sketch reproduces the bytes exactly.
        let mut again = BytesMut::new();
        decoded.encode(&mut again);
        assert_eq!(again.freeze().to_vec(), encoded.to_vec());
        // Empty sketches round-trip too.
        let mut empty_out = BytesMut::new();
        LatencySketch::new().encode(&mut empty_out);
        let mut empty_in = empty_out.freeze();
        assert_eq!(
            LatencySketch::decode(&mut empty_in).expect("empty"),
            LatencySketch::new()
        );
    }

    #[test]
    fn sketch_codec_rejects_truncated_and_corrupt_bytes() {
        use bytes::BytesMut;
        let mut sketch = LatencySketch::new();
        for ms in 1..=64 {
            sketch.record(TimeSpan::from_millis(ms as f64));
        }
        let mut out = BytesMut::new();
        sketch.encode(&mut out);
        let encoded = out.freeze().to_vec();
        // Every proper prefix is truncated, never a panic or a bad sketch.
        for cut in 0..encoded.len() {
            let mut input = bytes::Bytes::from(encoded[..cut].to_vec());
            assert!(
                LatencySketch::decode(&mut input).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // A flipped bucket count breaks the sum-to-count invariant.
        let mut tampered = encoded.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x01;
        let mut input = bytes::Bytes::from(tampered);
        assert!(matches!(
            LatencySketch::decode(&mut input),
            Err(SketchCodecError::Corrupt(_))
        ));
        // A zero-length ExactSum window with a nonzero offset is complete
        // but non-canonical: decode must reject it, never re-encode
        // different bytes than it consumed.
        let mut crooked = BytesMut::new();
        crooked.put_u32(5);
        crooked.put_u32(0);
        let mut input = crooked.freeze();
        assert!(matches!(
            ExactSum::decode(&mut input),
            Err(SketchCodecError::Corrupt(_))
        ));
    }
}
