//! Serve-codec corruption battery: the shared envelope sweep (every prefix
//! truncation, every single-bit flip, a resealed version bump, foreign
//! magics) over both directions, plus domain-violating bytes and chunked
//! frame delivery, all come back as typed [`WireCodecError`]s — never a
//! panic, never a mis-accept — and well-formed envelopes round-trip exactly.

mod common;

use common::{reseal, Sweep};
use hidwa_core::partition::Objective;
use hidwa_core::serve::codec::{
    self, quantize_f64, ModelId, PlanRequest, ProjectionRequest, Request, RequestEnvelope,
    Response, ResponseEnvelope, WireCodecError, WireContext, WireLink, WirePlan, WireProjection,
    MAX_BATCH,
};
use hidwa_eqs::body::BodySite;
use hidwa_phy::RadioTechnology;
use proptest::prelude::*;

const OBJECTIVES: [Objective; 3] = [
    Objective::LeafEnergy,
    Objective::Latency,
    Objective::EnergyDelayProduct,
];

/// A request batch exercising every query kind, link kind and flag state.
fn representative_requests() -> Vec<Request> {
    let mut requests = Vec::new();
    for (i, model) in ModelId::ALL.into_iter().enumerate() {
        requests.push(Request::Plan(PlanRequest {
            model,
            context: WireContext::of(WireLink::WiR),
            objective: OBJECTIVES[i % 3],
        }));
    }
    requests.push(Request::Plan(PlanRequest {
        model: ModelId::KeywordSpotting,
        context: WireContext::of(WireLink::Ble).without_quantization(),
        objective: Objective::Latency,
    }));
    requests.push(Request::Plan(PlanRequest {
        model: ModelId::EcgArrhythmia,
        context: WireContext::of(WireLink::Site(RadioTechnology::WiR, BodySite::Ankle))
            .with_energy_per_bit_pj(37.5)
            .with_goodput_bps(1.25e6),
        objective: Objective::EnergyDelayProduct,
    }));
    requests.push(Request::Projection(ProjectionRequest { rate_bps: 4000.0 }));
    requests
}

/// A response batch exercising every answer kind.
fn representative_responses() -> Vec<Response> {
    vec![
        Response::Plan(WirePlan {
            model: ModelId::VideoFeature,
            objective: Objective::LeafEnergy,
            cut_index: 3,
            leaf_macs: 1_234_567,
            hub_macs: 89_000_000,
            transfer_bytes: 2048.0,
            leaf_energy_j: 1.25e-6,
            hub_energy_j: 8.5e-5,
            latency_s: 0.0125,
            leaf_power_w: 3.1e-4,
        }),
        Response::Infeasible("no feasible cut: BLE goodput exhausted".to_string()),
        Response::Projection(WireProjection {
            rate_bps: 4000.0,
            total_power_w: 1.9e-4,
            battery_life_s: f64::INFINITY, // perpetual operation is legal
        }),
        Response::Error("bad request: serve envelope corrupt".to_string()),
    ]
}

fn requests() -> Sweep<RequestEnvelope, WireCodecError> {
    Sweep::new(
        &codec::encode_requests(&representative_requests()),
        codec::decode_request,
    )
}

fn responses() -> Sweep<ResponseEnvelope, WireCodecError> {
    Sweep::new(
        &codec::encode_responses(&representative_responses()),
        codec::decode_response,
    )
}

#[test]
fn request_and_response_envelopes_roundtrip_exactly() {
    let requests = representative_requests();
    let decoded = codec::decode_request(&codec::encode_requests(&requests)).unwrap();
    assert_eq!(decoded, RequestEnvelope::Queries(requests));

    let responses = representative_responses();
    let decoded = codec::decode_response(&codec::encode_responses(&responses)).unwrap();
    assert_eq!(decoded, ResponseEnvelope::Answers(responses));

    assert_eq!(
        codec::decode_request(&codec::encode_shutdown()).unwrap(),
        RequestEnvelope::Shutdown
    );
    assert_eq!(
        codec::decode_response(&codec::encode_bye()).unwrap(),
        ResponseEnvelope::Bye
    );
}

#[test]
fn every_prefix_truncation_is_rejected() {
    requests().prefixes();
    responses().prefixes();
}

#[test]
fn every_single_bit_flip_is_rejected() {
    requests().bit_flips();
    responses().bit_flips();
}

#[test]
fn every_single_bit_flip_survives_chunked_frame_delivery() {
    // The bit-flip sweep extended through the nonblocking delivery path a
    // reactor connection actually takes: each tampered envelope is framed,
    // the framed stream is cut into 1/3/13-byte chunks and reassembled by
    // `FrameDecoder`, and whatever comes out goes through the decoder
    // codec.  Nothing on the path may panic, and nothing tampered may
    // decode — frame reassembly must be corruption-neutral.
    use hidwa_core::wire::FrameDecoder;
    let blob = codec::encode_requests(&representative_requests()).to_vec();
    for position in 0..blob.len() {
        let bit = position % 8;
        let mut tampered = blob.clone();
        tampered[position] ^= 1 << bit;
        let mut wire = Vec::new();
        hidwa_core::wire::write_frame(&mut wire, position as u64, &tampered).unwrap();
        for chunk_size in [1usize, 3, 13] {
            let mut decoder = FrameDecoder::new(codec::MAX_SERVE_FRAME);
            let mut frames = Vec::new();
            for chunk in wire.chunks(chunk_size) {
                decoder.feed(chunk, &mut frames).expect("framing is intact");
            }
            assert_eq!(frames.len(), 1, "one tampered frame reassembles");
            let (tag, payload) = &frames[0];
            assert_eq!(*tag, position as u64);
            assert_eq!(payload, &tampered, "reassembly must not mask the flip");
            assert!(
                codec::decode_request(payload).is_err(),
                "bit {bit} of byte {position} flipped, chunked at {chunk_size}, still decoded"
            );
        }
    }
}

#[test]
fn version_bump_with_resealed_checksum_is_refused_as_unsupported() {
    requests().version_bump();
    responses().version_bump();
}

#[test]
fn magic_mismatches_are_typed_and_directional() {
    requests().foreign_magic();
    responses().foreign_magic();
    // A request envelope is not response traffic and vice versa.
    let request = codec::encode_requests(&representative_requests());
    let response = codec::encode_responses(&representative_responses());
    assert_eq!(
        codec::decode_response(&request).unwrap_err(),
        WireCodecError::BadMagic
    );
    assert_eq!(
        codec::decode_request(&response).unwrap_err(),
        WireCodecError::BadMagic
    );
}

#[test]
fn resealed_domain_violations_are_corrupt_not_accepted() {
    // A checksum-valid envelope whose fields leave their domain must still
    // be refused: the seal authenticates transport, the range checks
    // authenticate semantics.
    let single = |request: Request| codec::encode_requests(&[request]).to_vec();
    let base = single(Request::Plan(PlanRequest {
        model: ModelId::EcgArrhythmia,
        context: WireContext::of(WireLink::WiR),
        objective: Objective::LeafEnergy,
    }));
    // Payload starts after magic(8)+version(2)+kind(1)+count(2) = 13; the
    // plan item is `kind·model·objective·link·tech·site·flags·f64·f64`.
    let corrupt = |position: usize, value: u8| {
        let mut blob = base.clone();
        blob[position] = value;
        reseal(&mut blob);
        codec::decode_request(&blob).unwrap_err()
    };
    assert!(
        matches!(corrupt(13, 9), WireCodecError::Corrupt(_)),
        "item kind"
    );
    assert!(
        matches!(corrupt(14, 5), WireCodecError::Corrupt(_)),
        "model id"
    );
    assert!(
        matches!(corrupt(15, 3), WireCodecError::Corrupt(_)),
        "objective"
    );
    assert!(
        matches!(corrupt(16, 7), WireCodecError::Corrupt(_)),
        "link kind"
    );
    assert!(
        matches!(corrupt(17, 1), WireCodecError::Corrupt(_)),
        "technology byte set on a default link"
    );
    assert!(
        matches!(corrupt(19, 2), WireCodecError::Corrupt(_)),
        "flags"
    );

    // Site-resolved link with out-of-range technology / site bytes.
    let site = single(Request::Plan(PlanRequest {
        model: ModelId::VitalsTrend,
        context: WireContext::of(WireLink::Site(RadioTechnology::Ble, BodySite::Wrist)),
        objective: Objective::Latency,
    }));
    for (position, value) in [(17usize, 4u8), (18, 9)] {
        let mut blob = site.clone();
        blob[position] = value;
        reseal(&mut blob);
        assert!(
            matches!(
                codec::decode_request(&blob).unwrap_err(),
                WireCodecError::Corrupt(_)
            ),
            "byte {position} = {value} accepted on a site link"
        );
    }

    // Non-finite continuous fields: a NaN energy-per-bit override.
    let mut nan = base.clone();
    nan[20..28].copy_from_slice(&f64::NAN.to_bits().to_be_bytes());
    reseal(&mut nan);
    assert!(matches!(
        codec::decode_request(&nan).unwrap_err(),
        WireCodecError::Corrupt(_)
    ));

    // A projection rate of zero is meaningless and refused.
    let mut zero_rate = single(Request::Projection(ProjectionRequest { rate_bps: 8.0 }));
    zero_rate[14..22].copy_from_slice(&0.0f64.to_bits().to_be_bytes());
    reseal(&mut zero_rate);
    assert!(matches!(
        codec::decode_request(&zero_rate).unwrap_err(),
        WireCodecError::Corrupt(_)
    ));

    // Oversized batch count (count u16 at offset 11..13).
    let mut huge = base.clone();
    huge[11..13].copy_from_slice(&((MAX_BATCH as u16) + 1).to_be_bytes());
    reseal(&mut huge);
    assert!(matches!(
        codec::decode_request(&huge).unwrap_err(),
        WireCodecError::Corrupt(_)
    ));

    // Trailing bytes after a complete payload.
    let mut trailing = base.clone();
    let seal_at = trailing.len() - 8;
    trailing.splice(seal_at..seal_at, [0u8; 3]);
    reseal(&mut trailing);
    assert!(matches!(
        codec::decode_request(&trailing).unwrap_err(),
        WireCodecError::Corrupt(_)
    ));

    // A shutdown envelope claiming items.
    let mut shutdown = codec::encode_shutdown().to_vec();
    shutdown[11..13].copy_from_slice(&2u16.to_be_bytes());
    reseal(&mut shutdown);
    assert!(matches!(
        codec::decode_request(&shutdown).unwrap_err(),
        WireCodecError::Corrupt(_)
    ));
}

#[test]
fn quantize_f64_is_idempotent_and_order_preserving() {
    let values = [0.0, 1e-12, 37.5, 1.0e6, 2.4e9, f64::MAX];
    for value in values {
        let quantized = quantize_f64(value);
        assert_eq!(quantize_f64(quantized), quantized, "idempotence at {value}");
        assert!(quantized <= value, "quantization truncates toward zero");
        assert!((value - quantized).abs() <= value.abs() * 5e-7);
    }
    // Two values in the same quantum collapse to one representative.
    assert_eq!(quantize_f64(1.0e6), quantize_f64(1.0e6 * (1.0 + 1e-12)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random well-formed plan queries round-trip exactly (floats compared
    /// through `PartialEq`, which is bit-exact for finite values).
    #[test]
    fn random_plan_requests_roundtrip(
        model in 0usize..5,
        objective in 0usize..3,
        link in 0usize..4,
        site in 0usize..9,
        epb in 0.0f64..1e4,
        goodput in 0.0f64..1e9,
        quantize in any::<bool>(),
    ) {
        let link = match link {
            0 => WireLink::WiR,
            1 => WireLink::Ble,
            2 => WireLink::Site(RadioTechnology::WiR, BodySite::ALL[site]),
            _ => WireLink::Site(RadioTechnology::Nfmi, BodySite::ALL[site]),
        };
        let mut context = WireContext::of(link)
            .with_energy_per_bit_pj(epb)
            .with_goodput_bps(goodput);
        if !quantize {
            context = context.without_quantization();
        }
        let request = Request::Plan(PlanRequest {
            model: ModelId::ALL[model],
            context,
            objective: OBJECTIVES[objective],
        });
        let decoded = codec::decode_request(&codec::encode_requests(&[request]));
        prop_assert_eq!(decoded, Ok(RequestEnvelope::Queries(vec![request])));
    }

    /// Arbitrary garbage of plausible envelope length never panics and never
    /// decodes: the chance of minting a valid FNV seal by accident is 2⁻⁶⁴.
    #[test]
    fn random_garbage_never_decodes(seed in 0u64..u64::MAX, len in 0usize..256) {
        let mut state = seed | 1;
        let garbage: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        prop_assert!(codec::decode_request(&garbage).is_err());
        prop_assert!(codec::decode_response(&garbage).is_err());
    }
}
