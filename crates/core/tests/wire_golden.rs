//! Golden wire bytes of the three sealed formats: fleet checkpoints
//! (`HIDWAFLT`), the search index (`HIDWASRC`) and plan-server envelopes
//! (`HIDWAPLQ`/`HIDWAPLR`), plus the worker CLI arguments and the
//! fingerprints the flag tags feed (they cross process and disk boundaries
//! too).
//!
//! Round-trip tests cannot catch a layout change made on both the encode
//! and the decode side; these pins can.  Small blobs are pinned in full,
//! larger ones by length plus their trailing 8-byte seal (which digests
//! every preceding byte).  Every fixture is built from fixed values — no
//! simulation — so the bytes cannot move with the platform's libm.

use hidwa_core::fleet::driver::{
    run_fingerprint, DriverFleetSpec, FleetDriver, PopulationSpec, ShardAssignment,
};
use hidwa_core::fleet::{
    BodySummary, ChurnSpec, FleetAggregator, FleetCheckpoint, FleetConfig, PolicyKind,
};
use hidwa_core::partition::Objective;
use hidwa_core::population::ChurnModel;
use hidwa_core::search::{EvaluationOutcome, ObjectiveSpace, SearchCheckpoint, SearchSpec};
use hidwa_core::serve::codec::{
    self, ModelId, PlanRequest, ProjectionRequest, Request, Response, WireContext, WireLink,
    WirePlan, WireProjection,
};
use hidwa_eqs::body::BodySite;
use hidwa_netsim::mac::MacPolicy;
use hidwa_netsim::sketch::LatencySketch;
use hidwa_phy::RadioTechnology;
use hidwa_units::{Energy, TimeSpan};
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|byte| format!("{byte:02x}")).collect()
}

/// Pins a blob in full.
fn assert_bytes(label: &str, blob: &[u8], expected: &str) {
    assert_eq!(hex(blob), expected, "{label}: wire bytes moved");
}

/// Pins a larger blob by its length and trailing seal.
fn assert_sealed(label: &str, blob: &[u8], len: usize, seal: &str) {
    assert_eq!(
        (blob.len(), hex(&blob[blob.len() - 8..])),
        (len, seal.to_string()),
        "{label}: wire bytes moved"
    );
}

fn horizon() -> TimeSpan {
    TimeSpan::from_seconds(0.5)
}

fn fleet() -> FleetConfig {
    FleetConfig::new(16)
        .with_base_seed(0x5EED)
        .with_horizon(horizon())
        .with_top_k(4)
}

fn summary(body_index: usize, p95_ms: f64, migrations: u64) -> BodySummary {
    let mut latency = LatencySketch::new();
    latency.record(TimeSpan::from_millis(1.5));
    latency.record_run(TimeSpan::from_millis(p95_ms), 3);
    BodySummary {
        body_index,
        seed: 0x1000 + body_index as u64,
        archetype: Arc::from("health-patch"),
        nodes: 3,
        generated_frames: 5,
        delivered_frames: 4,
        delivered_bytes: 256,
        events_processed: 17,
        delivery_ratio: 0.8,
        total_energy: Energy::from_joules(0.125),
        worst_p95_latency: TimeSpan::from_millis(p95_ms),
        latency,
        active_span: TimeSpan::from_seconds(0.25),
        migrations,
        replans: 2,
        placement_energy: Energy::from_joules(0.0625),
    }
}

/// An aggregator holding two hand-built bodies.
fn two_bodies() -> FleetAggregator {
    let mut aggregator = FleetAggregator::new(horizon(), 4);
    aggregator.ingest(summary(3, 4.0, 1));
    aggregator.ingest(summary(7, 12.5, 0));
    aggregator
}

fn search_spec() -> SearchSpec {
    let base = DriverFleetSpec::new(16)
        .with_base_seed(0x5EED)
        .with_horizon(horizon());
    let space = ObjectiveSpace::new()
        .with_mac_axis(&[MacPolicy::Polling, MacPolicy::Tdma])
        .with_radio_axis(&[RadioTechnology::WiR, RadioTechnology::Ble]);
    SearchSpec::new(base, space)
}

#[test]
fn fleet_checkpoint_of_an_empty_fold() {
    let blob = FleetCheckpoint::capture(&fleet(), &FleetAggregator::new(horizon(), 4), 0).save();
    assert_sealed("empty fold", &blob, 250, "193e87a8379ec347");
    assert_eq!(FleetCheckpoint::load(&blob).unwrap().save(), blob);
}

#[test]
fn fleet_checkpoint_of_two_bodies() {
    let blob = FleetCheckpoint::capture(&fleet(), &two_bodies(), 8).save();
    assert_sealed("two bodies", &blob, 5426, "daf5583f3d09c75f");
    assert_eq!(FleetCheckpoint::load(&blob).unwrap().save(), blob);
}

#[test]
fn empty_search_index() {
    let blob = SearchCheckpoint::new(&search_spec()).save();
    assert_bytes(
        "empty index",
        &blob,
        concat!(
            "4849445741535243", // magic "HIDWASRC"
            "0001",             // version 1
            "2fc577db8878213f", // spec fingerprint
            "0000000000000004", // grid length
            "0000000000000000", // no records
            "de31084b6955dabd", // seal
        ),
    );
    assert_eq!(SearchCheckpoint::load(&blob).unwrap().save(), blob);
}

#[test]
fn search_index_of_two_records() {
    let report = two_bodies().finish();
    let mut index = SearchCheckpoint::new(&search_spec());
    index.record(EvaluationOutcome::from_report(
        1,
        &report,
        0x0123_4567_89AB_CDEF,
    ));
    index.record(EvaluationOutcome::from_report(
        3,
        &report,
        0xFEDC_BA98_7654_3210,
    ));
    let blob = index.save();
    assert_sealed("two records", &blob, 122, "fe03c3f865d85f2d");
    assert_eq!(SearchCheckpoint::load(&blob).unwrap().save(), blob);
}

#[test]
fn request_batch_of_every_query_kind() {
    let blob = codec::encode_requests(&[
        Request::Plan(PlanRequest {
            model: ModelId::ImuGesture,
            context: WireContext::of(WireLink::WiR),
            objective: Objective::LeafEnergy,
        }),
        Request::Plan(PlanRequest {
            model: ModelId::KeywordSpotting,
            context: WireContext::of(WireLink::Ble).without_quantization(),
            objective: Objective::Latency,
        }),
        Request::Plan(PlanRequest {
            model: ModelId::VitalsTrend,
            context: WireContext::of(WireLink::Site(RadioTechnology::Nfmi, BodySite::Wrist))
                .with_energy_per_bit_pj(37.5)
                .with_goodput_bps(1.25e6),
            objective: Objective::EnergyDelayProduct,
        }),
        Request::Projection(ProjectionRequest { rate_bps: 4000.0 }),
    ]);
    assert_sealed("request batch", &blob, 99, "dd1d18b6175f4b15");
}

/// Every radio-technology and body-site code of a site-resolved link, each
/// named by hand so that swapping two codes moves the seal.
#[test]
fn request_batch_of_every_site_code() {
    let technologies = [
        RadioTechnology::WiR,
        RadioTechnology::Ble,
        RadioTechnology::Nfmi,
        RadioTechnology::WiFi,
    ];
    let sites = [
        BodySite::Ear,
        BodySite::Face,
        BodySite::Chest,
        BodySite::UpperArm,
        BodySite::Wrist,
        BodySite::Finger,
        BodySite::Waist,
        BodySite::Thigh,
        BodySite::Ankle,
    ];
    let links = technologies
        .map(|technology| WireLink::Site(technology, BodySite::Chest))
        .into_iter()
        .chain(sites.map(|site| WireLink::Site(RadioTechnology::WiR, site)));
    let requests: Vec<Request> = links
        .map(|link| {
            Request::Plan(PlanRequest {
                model: ModelId::EcgArrhythmia,
                context: WireContext::of(link),
                objective: Objective::Latency,
            })
        })
        .collect();
    let blob = codec::encode_requests(&requests);
    assert_sealed("site codes", &blob, 320, "ad5d1cc6917e3f25");
    let decoded = codec::decode_request(&blob).unwrap();
    assert_eq!(decoded, codec::RequestEnvelope::Queries(requests));
}

#[test]
fn response_batch_of_every_answer_kind() {
    let blob = codec::encode_responses(&[
        Response::Plan(WirePlan {
            model: ModelId::VideoFeature,
            objective: Objective::EnergyDelayProduct,
            cut_index: 3,
            leaf_macs: 1_234_567,
            hub_macs: 89_000_000,
            transfer_bytes: 2048.0,
            leaf_energy_j: 1.25e-6,
            hub_energy_j: 8.5e-5,
            latency_s: 0.0125,
            leaf_power_w: 3.1e-4,
        }),
        Response::Infeasible("no feasible cut".to_string()),
        Response::Projection(WireProjection {
            rate_bps: 4000.0,
            total_power_w: 1.9e-4,
            battery_life_s: f64::INFINITY,
        }),
        Response::Error("bad request".to_string()),
    ]);
    assert_sealed("response batch", &blob, 145, "5670d8a42443afdc");
}

#[test]
fn shutdown_and_bye_envelopes() {
    assert_bytes(
        "shutdown",
        &codec::encode_shutdown(),
        concat!(
            "4849445741504c51", // magic "HIDWAPLQ"
            "0001",             // version 1
            "01",               // kind: shutdown
            "0000",             // no items
            "c2cd689ecf9b2061", // seal
        ),
    );
    assert_bytes(
        "bye",
        &codec::encode_bye(),
        concat!(
            "4849445741504c52", // magic "HIDWAPLR"
            "0001",             // version 1
            "01",               // kind: bye
            "0000",             // no items
            "5bac9e16a8614982", // seal
        ),
    );
}

/// A spec that sets every tagged worker flag: mixed population, TDMA, Wi-Fi,
/// doubled traffic and a reoptimize-on-change churn spec (default `edp`
/// objective).
fn tagged_spec() -> DriverFleetSpec {
    DriverFleetSpec::new(40)
        .with_base_seed(0x5EED)
        .with_horizon(horizon())
        .with_population(PopulationSpec::Mixed)
        .with_mac(MacPolicy::Tdma)
        .with_radio(RadioTechnology::WiFi)
        .with_traffic_scale(2.0)
        .with_churn(ChurnSpec::new(
            ChurnModel::with_rate(0.25).with_link_fade(0.5),
            PolicyKind::ReoptimizeOnChange,
        ))
}

#[test]
fn worker_args_of_a_tagged_spec() {
    let shard = ShardAssignment {
        index: 1,
        start: 16,
        end: 40,
    };
    let churn = concat!(
        "4598175219545276416:4603129179135383962:4606732058837280358:4:",
        "4602678819172646912:reoptimize-on-change:4591870180066957722:edp:",
        "4576918229304087675",
    );
    assert_eq!(
        tagged_spec().worker_args(&shard),
        [
            "--base-seed",
            "24301",
            "--bodies",
            "40",
            "--horizon-bits",
            "4602678819172646912",
            "--top-k",
            "8",
            "--population",
            "mixed",
            "--mac",
            "tdma",
            "--radio",
            "wifi",
            "--traffic-scale-bits",
            "4611686018427387904",
            "--churn",
            churn,
            "--shard-index",
            "1",
            "--shard-start",
            "16",
            "--shard-end",
            "40",
        ]
    );
}

#[test]
fn run_fingerprint_of_a_tagged_spec() {
    assert_eq!(run_fingerprint(&tagged_spec(), &[16]), "a0467a6ce76c4eb1");
    // The layouts a driver builds: its shards and the fingerprint they feed.
    let split = |shards| FleetDriver::new(tagged_spec(), shards);
    let ragged = FleetDriver::with_boundaries(tagged_spec(), &[0, 16, 16, 40]).expect("sorted");
    // 45 shards over 40 bodies: one body each, then five empty shards.
    let one_each = (0..45).map(|i| (i.min(40), (i + 1).min(40))).collect();
    for (driver, shards, fingerprint) in [
        (split(0), vec![(0, 40)], "3c19ef151e6aa60e"),
        (split(1), vec![(0, 40)], "3c19ef151e6aa60e"),
        (
            split(3),
            vec![(0, 14), (14, 27), (27, 40)],
            "a34ebd8d5ee51137",
        ),
        (split(45), one_each, "7f8a4acb1b09ad5a"),
        (
            ragged,
            vec![(0, 0), (0, 16), (16, 16), (16, 40), (40, 40)],
            "2f8b4f51889f4fe2",
        ),
    ] {
        assert_eq!(driver.shard_count(), shards.len(), "{fingerprint}");
        for (index, (start, end)) in shards.into_iter().enumerate() {
            let assignment = ShardAssignment { index, start, end };
            assert_eq!(driver.assignment(index), assignment, "{fingerprint}");
        }
        assert_eq!(driver.fingerprint(), fingerprint);
    }
}

#[test]
fn search_fingerprint_over_every_tag() {
    let space = ObjectiveSpace::new()
        .with_mac_axis(&[MacPolicy::Tdma, MacPolicy::Polling])
        .with_objective_axis(&[
            Objective::LeafEnergy,
            Objective::Latency,
            Objective::EnergyDelayProduct,
        ])
        .with_radio_axis(&[
            RadioTechnology::WiR,
            RadioTechnology::Ble,
            RadioTechnology::Nfmi,
            RadioTechnology::WiFi,
        ])
        .with_churn_policy_axis(&[
            PolicyKind::StaticAtAdmission,
            PolicyKind::ReoptimizeOnChange,
            PolicyKind::Hysteresis,
        ]);
    let spec = SearchSpec::new(tagged_spec(), space);
    assert_eq!(format!("{:016x}", spec.fingerprint()), "89f7aeca4da0b063");
}

#[test]
fn fleet_checkpoint_of_an_empty_churned_fold() {
    let churn = ChurnSpec::new(
        ChurnModel::with_rate(0.5).with_epochs(3),
        PolicyKind::Hysteresis,
    )
    .with_objective(Objective::Latency)
    .with_hysteresis_threshold(0.2);
    let config = fleet().with_churn(churn);
    let blob = FleetCheckpoint::capture(&config, &FleetAggregator::new(horizon(), 4), 0).save();
    assert_sealed("empty churned fold", &blob, 250, "d3c54f3b9efd9c6c");
    assert_eq!(FleetCheckpoint::load(&blob).unwrap().save(), blob);
}
