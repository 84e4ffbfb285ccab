//! Versioned, checksummed binary codec for plan-server requests and
//! responses.
//!
//! Every envelope is a [`sealed`] envelope, like the fleet checkpoint
//! format ([`FleetCheckpoint`](crate::fleet::FleetCheckpoint)): decoding
//! **never panics** — truncated, bit-flipped, version-bumped or otherwise
//! malformed bytes come back as a typed [`WireCodecError`], and every
//! enumeration byte is range-checked so a blob that passes the checksum but
//! names an unknown model, objective or link is still rejected.
//!
//! # Envelope body (version 1, big-endian)
//!
//! Request (magic `b"HIDWAPLQ"`):
//!
//! ```text
//! kind      u8          0 = query batch · 1 = shutdown
//! count     u16         queries in the batch (0 for shutdown)
//! items     count × query (see below)
//! ```
//!
//! Response (magic `b"HIDWAPLR"`): same shape with kind `0` = answer batch,
//! `1` = shutdown acknowledgement ("bye").
//!
//! Each query item is `kind u8` (`0` plan, `1` projection) followed by the
//! fixed-size body documented on [`PlanRequest`] / [`ProjectionRequest`];
//! each answer item is `kind u8` (`0` plan, `1` infeasible, `2` projection,
//! `3` error) followed by the body documented on [`Response`].  The
//! normative field-by-field table lives in `ARCHITECTURE.md`.

use crate::flags::Tag;
use crate::partition::Objective;
use crate::sealed::{self, take_f64, take_string, take_u16, take_u32, take_u64, take_u8};
use bytes::{BufMut, Bytes, BytesMut};
use hidwa_eqs::body::BodySite;
use hidwa_isa::models::{self, WearableModel};
use hidwa_phy::RadioTechnology;
use std::sync::OnceLock;

/// Leading magic of every request envelope.
pub const REQUEST_MAGIC: &[u8; 8] = b"HIDWAPLQ";

/// Leading magic of every response envelope.
pub const RESPONSE_MAGIC: &[u8; 8] = b"HIDWAPLR";

/// Current serve wire-format version.
pub const WIRE_VERSION: u16 = 1;

/// Payload cap a serve endpoint enforces when reading frames: a maximal
/// batch ([`MAX_BATCH`] worst-case items) fits comfortably, anything larger
/// is garbage, not a query.
pub const MAX_SERVE_FRAME: u64 = 1 << 20;

/// Most queries (or answers) one envelope may carry.
pub const MAX_BATCH: usize = 4096;

/// Body bytes every envelope carries before its items: kind + count.
const HEADER: usize = 1 + 2;

/// Why serve bytes failed to decode: the sealed envelope's error, since a
/// serve envelope has no other failure.  Decoding never panics and never
/// mis-accepts.
pub use crate::sealed::SealError as WireCodecError;

/// The five models of the wearable zoo, as stable wire identifiers.
///
/// The discriminants are normative: they index the process's one shared
/// zoo ([`ModelId::model`]), which the [`PlanService`](super::PlanService)
/// and churn placement both read, and appear verbatim on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ModelId {
    /// `ecg_arrhythmia_cnn` — single-lead ECG arrhythmia classifier.
    EcgArrhythmia = 0,
    /// `imu_gesture_cnn` — 6-axis IMU gesture recogniser.
    ImuGesture = 1,
    /// `keyword_spotting_cnn` — always-on audio keyword spotter.
    KeywordSpotting = 2,
    /// `video_feature_extractor` — 15 fps glasses-camera feature extractor.
    VideoFeature = 3,
    /// `vitals_trend_mlp` — multi-vital trend MLP.
    VitalsTrend = 4,
}

impl ModelId {
    /// Every model identifier, in wire order (zoo index order).
    pub const ALL: [ModelId; 5] = [
        ModelId::EcgArrhythmia,
        ModelId::ImuGesture,
        ModelId::KeywordSpotting,
        ModelId::VideoFeature,
        ModelId::VitalsTrend,
    ];

    /// Zoo index of this model.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The model behind this id, from the one zoo each process builds on
    /// first use and shares between serving and churn placement.  A model
    /// is a pure function of its constructor, so sharing it never changes an
    /// answer; it only stops every caller from re-profiling the network.
    #[must_use]
    pub fn model(self) -> &'static WearableModel {
        static ZOO: OnceLock<[WearableModel; 5]> = OnceLock::new();
        &ZOO.get_or_init(|| {
            [
                models::ecg_arrhythmia_cnn(),
                models::imu_gesture_cnn(),
                models::keyword_spotting_cnn(),
                models::video_feature_extractor(),
                models::vitals_trend_mlp(),
            ]
        })[self.index()]
    }
}

/// The link a plan query evaluates against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireLink {
    /// Wi-R at its commercial operating point
    /// ([`PartitionContext::wir_default`](crate::partition::PartitionContext::wir_default)).
    WiR,
    /// BLE 1M ([`PartitionContext::ble_default`](crate::partition::PartitionContext::ble_default)).
    Ble,
    /// A site-resolved link: parameters come from the server's warm
    /// [`LinkCache`](crate::population::LinkCache) for this technology and
    /// leaf position (hub at the waist, as everywhere in the repo).
    Site(RadioTechnology, BodySite),
}

/// The wire code of `value`: its position in `all`, the `ALL` list of its
/// enum, which every enumeration byte on the wire indexes.
pub(crate) fn code_of<T: PartialEq>(all: &[T], value: T) -> u8 {
    let code = all.iter().position(|known| *known == value);
    code.expect("`ALL` lists every value") as u8
}

/// The value whose wire code is `raw`, or `Corrupt(unknown)`.
pub(crate) fn from_code<T: Copy>(
    all: &[T],
    raw: u8,
    unknown: &'static str,
) -> Result<T, WireCodecError> {
    let value = all.get(usize::from(raw)).copied();
    value.ok_or(WireCodecError::Corrupt(unknown))
}

/// The execution environment a plan query names, as it travels on the wire.
///
/// Continuous fields use the sentinel `0.0` for "use the link's default";
/// any positive finite value overrides it.  The server *quantizes* both
/// overrides on admission (see [`quantize_f64`]) so that queries within the
/// same quantum are one cache entry — and, by the same token, one answer.
///
/// Wire body (after the item kind byte): `link u8 · technology u8 ·
/// site u8 · flags u8 (bit 0 = quantize activations) · energy-per-bit
/// f64-bits (pJ/bit) · goodput f64-bits (bit/s)`.  Technology and site
/// bytes are only meaningful for [`WireLink::Site`] and must be zero
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireContext {
    /// The link the plan is evaluated against.
    pub link: WireLink,
    /// Delivered energy per bit override in pJ/bit (`0.0` = link default).
    pub energy_per_bit_pj: f64,
    /// Link goodput override in bit/s (`0.0` = link default).
    pub goodput_bps: f64,
    /// Whether activations are int8-quantized before transmission.
    pub quantize_activations: bool,
}

impl WireContext {
    /// A context using `link` at its default operating point.
    #[must_use]
    pub fn of(link: WireLink) -> Self {
        Self {
            link,
            energy_per_bit_pj: 0.0,
            goodput_bps: 0.0,
            quantize_activations: true,
        }
    }

    /// Overrides the delivered energy per bit (pJ/bit).
    #[must_use]
    pub fn with_energy_per_bit_pj(mut self, pj: f64) -> Self {
        self.energy_per_bit_pj = pj;
        self
    }

    /// Overrides the link goodput (bit/s).
    #[must_use]
    pub fn with_goodput_bps(mut self, bps: f64) -> Self {
        self.goodput_bps = bps;
        self
    }

    /// Disables int8 activation quantization.
    #[must_use]
    pub fn without_quantization(mut self) -> Self {
        self.quantize_activations = false;
        self
    }
}

/// One partition-plan query: which model, in which context, minimising what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRequest {
    /// Model to partition.
    pub model: ModelId,
    /// Execution environment.
    pub context: WireContext,
    /// What the optimiser minimises.
    pub objective: Objective,
}

/// One battery-life projection query (the Fig. 3 curve at a single rate).
///
/// Wire body: `rate f64-bits (bit/s, finite and positive)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionRequest {
    /// Node data rate to project, in bit/s.
    pub rate_bps: f64,
}

/// One query of a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Partition-plan query.
    Plan(PlanRequest),
    /// Battery-life projection query.
    Projection(ProjectionRequest),
}

/// A decoded request envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestEnvelope {
    /// A batch of queries, answered in order by one response envelope.
    Queries(Vec<Request>),
    /// Ask the server to stop accepting connections and exit cleanly.
    Shutdown,
}

/// The served optimum for a plan query — the numeric fields of a
/// [`PartitionPlan`](crate::partition::PartitionPlan), with the model named
/// by its wire id instead of an interned string.
///
/// Wire body: `model u8 · objective u8 · cut_index u32 · leaf_macs u64 ·
/// hub_macs u64 · transfer_bytes f64-bits · leaf_energy f64-bits (J) ·
/// hub_energy f64-bits (J) · latency f64-bits (s) · leaf_power f64-bits (W)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePlan {
    /// Model the plan partitions.
    pub model: ModelId,
    /// Objective the plan minimises.
    pub objective: Objective,
    /// Number of layers executed on the leaf.
    pub cut_index: u32,
    /// MACs executed on the leaf per inference.
    pub leaf_macs: u64,
    /// MACs executed on the hub per inference.
    pub hub_macs: u64,
    /// Bytes transmitted per inference (after quantization).
    pub transfer_bytes: f64,
    /// Leaf energy per inference, joules.
    pub leaf_energy_j: f64,
    /// Hub energy per inference, joules.
    pub hub_energy_j: f64,
    /// End-to-end latency per inference, seconds.
    pub latency_s: f64,
    /// Sustained leaf power at the model's inference rate, watts.
    pub leaf_power_w: f64,
}

/// A served battery-life projection.
///
/// Wire body: `rate f64-bits (bit/s) · total_power f64-bits (W) ·
/// battery_life f64-bits (s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireProjection {
    /// Rate the projection was evaluated at, bit/s.
    pub rate_bps: f64,
    /// Total node power at that rate, watts.
    pub total_power_w: f64,
    /// Projected battery life, seconds.
    pub battery_life_s: f64,
}

/// One answer of a batch, positionally matching the query batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The feasible optimum for a plan query.
    Plan(WirePlan),
    /// No cut of the model is feasible in the requested context; the string
    /// is the optimiser's diagnostic.  Wire body: `reason u32-len · UTF-8`.
    Infeasible(String),
    /// The projection for a projection query.
    Projection(WireProjection),
    /// The query (or the whole envelope) could not be served; the string
    /// says why.  Wire body: `message u32-len · UTF-8`.
    Error(String),
}

/// A decoded response envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseEnvelope {
    /// Answers, positionally matching the request batch.
    Answers(Vec<Response>),
    /// Acknowledgement of a shutdown request; the connection then closes.
    Bye,
}

/// Canonicalizes a continuous context field for caching and evaluation:
/// keeps the sign, exponent and top 21 mantissa bits of the IEEE-754
/// representation (relative quantum < 2⁻²¹ ≈ 5·10⁻⁷, far below any
/// physical meaning the link parameters carry).  Quantization happens on
/// *admission*, so a served answer is a pure function of the quantized
/// request — two requests in the same quantum are the same query, which is
/// what makes the plan cache exact rather than approximate.
#[must_use]
pub fn quantize_f64(value: f64) -> f64 {
    if value == 0.0 {
        return 0.0;
    }
    f64::from_bits(value.to_bits() & !((1u64 << 31) - 1))
}

fn finite_non_negative(value: f64, what: &'static str) -> Result<f64, WireCodecError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(WireCodecError::Corrupt(what))
    }
}

// --- encoding ---------------------------------------------------------------

fn put_context(out: &mut BytesMut, context: &WireContext) {
    let (link, technology, site) = match context.link {
        WireLink::WiR => (0u8, 0u8, 0u8),
        WireLink::Ble => (1, 0, 0),
        WireLink::Site(technology, site) => (
            2,
            code_of(RadioTechnology::ALL, technology),
            code_of(&BodySite::ALL, site),
        ),
    };
    out.put_u8(link);
    out.put_u8(technology);
    out.put_u8(site);
    out.put_u8(u8::from(context.quantize_activations));
    out.put_f64(context.energy_per_bit_pj);
    out.put_f64(context.goodput_bps);
}

fn put_request(out: &mut BytesMut, request: &Request) {
    match request {
        Request::Plan(plan) => {
            out.put_u8(0);
            out.put_u8(plan.model as u8);
            out.put_u8(code_of(Objective::ALL, plan.objective));
            put_context(out, &plan.context);
        }
        Request::Projection(projection) => {
            out.put_u8(1);
            out.put_f64(projection.rate_bps);
        }
    }
}

fn put_response(out: &mut BytesMut, response: &Response) {
    match response {
        Response::Plan(plan) => {
            out.put_u8(0);
            out.put_u8(plan.model as u8);
            out.put_u8(code_of(Objective::ALL, plan.objective));
            out.put_u32(plan.cut_index);
            out.put_u64(plan.leaf_macs);
            out.put_u64(plan.hub_macs);
            out.put_f64(plan.transfer_bytes);
            out.put_f64(plan.leaf_energy_j);
            out.put_f64(plan.hub_energy_j);
            out.put_f64(plan.latency_s);
            out.put_f64(plan.leaf_power_w);
        }
        Response::Infeasible(reason) => {
            out.put_u8(1);
            sealed::put_string(out, reason);
        }
        Response::Projection(projection) => {
            out.put_u8(2);
            out.put_f64(projection.rate_bps);
            out.put_f64(projection.total_power_w);
            out.put_f64(projection.battery_life_s);
        }
        Response::Error(message) => {
            out.put_u8(3);
            sealed::put_string(out, message);
        }
    }
}

fn encode_envelope<T>(
    magic: &[u8; 8],
    kind: u8,
    items: &[T],
    put: impl Fn(&mut BytesMut, &T),
) -> Bytes {
    assert!(items.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
    let mut out = sealed::start(magic, WIRE_VERSION);
    out.put_u8(kind);
    out.put_u16(items.len() as u16);
    for item in items {
        put(&mut out, item);
    }
    sealed::seal(out)
}

/// Encodes a batch of queries into one sealed request envelope.
///
/// # Panics
/// Panics if `requests` exceeds [`MAX_BATCH`] — a caller bug, not a wire
/// condition (the decoder rejects oversized counts with a typed error).
#[must_use]
pub fn encode_requests(requests: &[Request]) -> Bytes {
    encode_envelope(REQUEST_MAGIC, 0, requests, put_request)
}

/// Encodes a shutdown request envelope.
#[must_use]
pub fn encode_shutdown() -> Bytes {
    encode_envelope::<Request>(REQUEST_MAGIC, 1, &[], |_, _| {})
}

/// Encodes a batch of answers into one sealed response envelope.
///
/// # Panics
/// Panics if `responses` exceeds [`MAX_BATCH`].
#[must_use]
pub fn encode_responses(responses: &[Response]) -> Bytes {
    encode_envelope(RESPONSE_MAGIC, 0, responses, put_response)
}

/// Encodes the shutdown acknowledgement envelope.
#[must_use]
pub fn encode_bye() -> Bytes {
    encode_envelope::<Response>(RESPONSE_MAGIC, 1, &[], |_, _| {})
}

// --- decoding ---------------------------------------------------------------

fn take_context(input: &mut Bytes) -> Result<WireContext, WireCodecError> {
    let link = take_u8(input)?;
    let technology = take_u8(input)?;
    let site = take_u8(input)?;
    let flags = take_u8(input)?;
    if flags > 1 {
        return Err(WireCodecError::Corrupt("unknown context flag set"));
    }
    let link = match link {
        0 | 1 => {
            if technology != 0 || site != 0 {
                return Err(WireCodecError::Corrupt(
                    "technology/site bytes set on a default link",
                ));
            }
            if link == 0 {
                WireLink::WiR
            } else {
                WireLink::Ble
            }
        }
        2 => WireLink::Site(
            from_code(RadioTechnology::ALL, technology, "unknown radio technology")?,
            from_code(&BodySite::ALL, site, "unknown body site")?,
        ),
        _ => return Err(WireCodecError::Corrupt("unknown link kind")),
    };
    Ok(WireContext {
        link,
        energy_per_bit_pj: finite_non_negative(
            take_f64(input)?,
            "energy-per-bit override not finite and non-negative",
        )?,
        goodput_bps: finite_non_negative(
            take_f64(input)?,
            "goodput override not finite and non-negative",
        )?,
        quantize_activations: flags == 1,
    })
}

fn take_request(input: &mut Bytes) -> Result<Request, WireCodecError> {
    match take_u8(input)? {
        0 => {
            let model = from_code(&ModelId::ALL, take_u8(input)?, "unknown model id")?;
            let objective = from_code(Objective::ALL, take_u8(input)?, "unknown objective")?;
            let context = take_context(input)?;
            Ok(Request::Plan(PlanRequest {
                model,
                context,
                objective,
            }))
        }
        1 => {
            let rate_bps = take_f64(input)?;
            if !(rate_bps.is_finite() && rate_bps > 0.0) {
                return Err(WireCodecError::Corrupt(
                    "projection rate not finite and positive",
                ));
            }
            Ok(Request::Projection(ProjectionRequest { rate_bps }))
        }
        _ => Err(WireCodecError::Corrupt("unknown query kind")),
    }
}

fn take_response(input: &mut Bytes) -> Result<Response, WireCodecError> {
    match take_u8(input)? {
        0 => {
            let model = from_code(&ModelId::ALL, take_u8(input)?, "unknown model id")?;
            let objective = from_code(Objective::ALL, take_u8(input)?, "unknown objective")?;
            let cut_index = take_u32(input)?;
            let leaf_macs = take_u64(input)?;
            let hub_macs = take_u64(input)?;
            let transfer_bytes =
                finite_non_negative(take_f64(input)?, "transfer bytes not finite")?;
            let leaf_energy_j = finite_non_negative(take_f64(input)?, "leaf energy not finite")?;
            let hub_energy_j = finite_non_negative(take_f64(input)?, "hub energy not finite")?;
            let latency_s = finite_non_negative(take_f64(input)?, "latency not finite")?;
            let leaf_power_w = finite_non_negative(take_f64(input)?, "leaf power not finite")?;
            Ok(Response::Plan(WirePlan {
                model,
                objective,
                cut_index,
                leaf_macs,
                hub_macs,
                transfer_bytes,
                leaf_energy_j,
                hub_energy_j,
                latency_s,
                leaf_power_w,
            }))
        }
        1 => Ok(Response::Infeasible(take_string(input)?)),
        2 => {
            let rate_bps = finite_non_negative(take_f64(input)?, "projection rate not finite")?;
            let total_power_w =
                finite_non_negative(take_f64(input)?, "projection power not finite")?;
            let battery_life_s = take_f64(input)?;
            if battery_life_s.is_nan() || battery_life_s < 0.0 {
                return Err(WireCodecError::Corrupt("battery life negative or NaN"));
            }
            Ok(Response::Projection(WireProjection {
                rate_bps,
                total_power_w,
                battery_life_s,
            }))
        }
        3 => Ok(Response::Error(take_string(input)?)),
        _ => Err(WireCodecError::Corrupt("unknown answer kind")),
    }
}

/// Opens the sealed envelope and returns the item cursor plus the kind and
/// item-count fields.
fn open_envelope(raw: &[u8], magic: &[u8; 8]) -> Result<(Bytes, u8, usize), WireCodecError> {
    let mut input = sealed::open(raw, magic, WIRE_VERSION, HEADER)?;
    let kind = take_u8(&mut input)?;
    let count = take_u16(&mut input)? as usize;
    if count > MAX_BATCH {
        return Err(WireCodecError::Corrupt("batch larger than MAX_BATCH"));
    }
    Ok((input, kind, count))
}

/// Decodes and validates a request envelope.
///
/// # Errors
/// [`WireCodecError`] for any malformed input — never panics.
pub fn decode_request(raw: &[u8]) -> Result<RequestEnvelope, WireCodecError> {
    let (mut input, kind, count) = open_envelope(raw, REQUEST_MAGIC)?;
    match kind {
        0 => {
            let mut requests = Vec::with_capacity(count);
            for _ in 0..count {
                requests.push(take_request(&mut input)?);
            }
            sealed::finish(&input)?;
            Ok(RequestEnvelope::Queries(requests))
        }
        1 => {
            if count != 0 {
                return Err(WireCodecError::Corrupt("shutdown envelope with items"));
            }
            sealed::finish(&input)?;
            Ok(RequestEnvelope::Shutdown)
        }
        _ => Err(WireCodecError::Corrupt("unknown request envelope kind")),
    }
}

/// Decodes and validates a response envelope.
///
/// # Errors
/// [`WireCodecError`] for any malformed input — never panics.
pub fn decode_response(raw: &[u8]) -> Result<ResponseEnvelope, WireCodecError> {
    let (mut input, kind, count) = open_envelope(raw, RESPONSE_MAGIC)?;
    match kind {
        0 => {
            let mut responses = Vec::with_capacity(count);
            for _ in 0..count {
                responses.push(take_response(&mut input)?);
            }
            sealed::finish(&input)?;
            Ok(ResponseEnvelope::Answers(responses))
        }
        1 => {
            if count != 0 {
                return Err(WireCodecError::Corrupt("bye envelope with items"));
            }
            sealed::finish(&input)?;
            Ok(ResponseEnvelope::Bye)
        }
        _ => Err(WireCodecError::Corrupt("unknown response envelope kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(id: ModelId) -> WearableModel {
        match id {
            ModelId::EcgArrhythmia => models::ecg_arrhythmia_cnn(),
            ModelId::ImuGesture => models::imu_gesture_cnn(),
            ModelId::KeywordSpotting => models::keyword_spotting_cnn(),
            ModelId::VideoFeature => models::video_feature_extractor(),
            ModelId::VitalsTrend => models::vitals_trend_mlp(),
        }
    }

    #[test]
    fn the_shared_zoo_equals_freshly_built_models() {
        for id in ModelId::ALL {
            let (shared, fresh) = (id.model(), build(id));
            assert_eq!(shared.name(), fresh.name(), "{id:?}");
            assert_eq!(shared.input_shape(), fresh.input_shape(), "{id:?}");
            assert_eq!(
                shared.inferences_per_second().to_bits(),
                fresh.inferences_per_second().to_bits(),
                "{id:?}"
            );
            assert_eq!(shared.raw_sensor_rate(), fresh.raw_sensor_rate(), "{id:?}");
            assert_eq!(shared.output_classes(), fresh.output_classes(), "{id:?}");
            assert_eq!(shared.profiles(), fresh.profiles(), "{id:?}");
            assert_eq!(shared.cut_points(), fresh.cut_points(), "{id:?}");
            assert_eq!(
                shared.macs_per_inference(),
                fresh.macs_per_inference(),
                "{id:?}"
            );
        }
    }

    #[test]
    fn the_shared_zoo_is_built_once_per_process() {
        let start = std::sync::Barrier::new(3);
        let read = || {
            start.wait();
            ModelId::ALL.map(ModelId::model)
        };
        let mut reads = std::thread::scope(|scope| {
            let readers = [scope.spawn(read), scope.spawn(read)];
            let mut reads = vec![read()];
            reads.extend(readers.map(|reader| reader.join().expect("zoo reader panicked")));
            reads
        });
        reads.push(ModelId::ALL.map(ModelId::model));
        for read in &reads[1..] {
            for (a, b) in reads[0].iter().zip(read) {
                assert!(std::ptr::eq(*a, *b), "{} was built twice", a.name());
            }
        }
    }
}
