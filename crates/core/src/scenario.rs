//! Turn-key body-area network scenarios built on the discrete-event
//! simulator — used by the examples and the scaling/ablation benches.

use hidwa_energy::sensing::SensorModality;
use hidwa_energy::Battery;
use hidwa_eqs::body::{BodyModel, BodySite};
use hidwa_eqs::capacity::CapacityEstimator;
use hidwa_eqs::channel::{EqsChannel, Termination};
use hidwa_eqs::noise::NoiseModel;
use hidwa_eqs::rf::RfLink;
use hidwa_netsim::mac::MacPolicy;
use hidwa_netsim::node::{LinkParams, NodeConfig};
use hidwa_netsim::sim::{NodeStats, Simulation};
use hidwa_netsim::traffic::TrafficPattern;
use hidwa_phy::ble::BleTransceiver;
use hidwa_phy::link::Link;
use hidwa_phy::wir::WiRTransceiver;
use hidwa_phy::{RadioTechnology, Transceiver};
use hidwa_units::{DataRate, Power, TimeSpan, Voltage};

/// Where every body network's hub sits: the waist (smartphone /
/// wearable-brain position).
pub const HUB_SITE: BodySite = BodySite::Waist;

/// Builds the link parameters (goodput, delivered energy per bit, wake-up)
/// that the simulator needs for a leaf at `site` talking to the hub at
/// [`HUB_SITE`] over the given radio technology.
///
/// # Panics
/// Never panics for the supported technologies ([`RadioTechnology::WiR`] and
/// [`RadioTechnology::Ble`]); other technologies fall back to BLE-class
/// parameters.
#[must_use]
pub fn link_params_for(technology: RadioTechnology, site: BodySite) -> LinkParams {
    let distance = site.path_to(HUB_SITE);
    match technology {
        RadioTechnology::WiR => {
            let transceiver = WiRTransceiver::ixana_class();
            let estimator = CapacityEstimator::new(
                EqsChannel::new(BodyModel::adult(), Termination::HighImpedance),
                NoiseModel::wearable_receiver(),
            );
            let rate = transceiver.max_data_rate();
            match Link::wir_on_body(
                transceiver,
                &estimator,
                Voltage::from_volts(1.0),
                distance,
                rate,
            ) {
                Ok(link) => LinkParams::new(
                    link.goodput(),
                    link.delivered_energy_per_bit(),
                    link.transceiver().wakeup_time(),
                ),
                Err(_) => LinkParams::new(
                    DataRate::from_mbps(4.0),
                    hidwa_units::EnergyPerBit::from_pico_joules(100.0),
                    TimeSpan::from_micros(100.0),
                ),
            }
        }
        _ => {
            let transceiver = BleTransceiver::phy_1m();
            let rate = transceiver.max_data_rate();
            match Link::ble_around_body(
                transceiver,
                &RfLink::ble_1m(),
                hidwa_units::dbm_to_power(0.0),
                distance,
                rate,
            ) {
                Ok(link) => LinkParams::new(
                    link.goodput(),
                    link.delivered_energy_per_bit(),
                    link.transceiver().wakeup_time(),
                ),
                Err(_) => LinkParams::new(
                    DataRate::from_kbps(780.0),
                    hidwa_units::EnergyPerBit::from_nano_joules(10.0),
                    TimeSpan::from_millis(2.0),
                ),
            }
        }
    }
}

/// A leaf node specification used by the standard scenarios.
#[derive(Debug, Clone)]
pub struct LeafSpec {
    /// Node name.
    pub name: &'static str,
    /// Body site the node is worn at.
    pub site: BodySite,
    /// Sensor modality (sets the sensing power).
    pub modality: SensorModality,
    /// Uplink traffic pattern.
    pub traffic: TrafficPattern,
    /// On-node compute power (ISA, codec).
    pub compute_power: Power,
}

/// The standard full-body leaf set used by the examples and benches: an ECG
/// patch, a smart ring, an IMU wristband, always-listening earbuds and camera
/// glasses.
#[must_use]
pub fn standard_leaf_set() -> Vec<LeafSpec> {
    vec![
        LeafSpec {
            name: "ecg-patch",
            site: BodySite::Chest,
            modality: SensorModality::Biopotential,
            traffic: TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 512),
            compute_power: Power::from_micro_watts(5.0),
        },
        LeafSpec {
            name: "smart-ring",
            site: BodySite::Finger,
            modality: SensorModality::Environmental,
            traffic: TrafficPattern::periodic(TimeSpan::from_seconds(10.0), 128),
            compute_power: Power::from_micro_watts(1.0),
        },
        LeafSpec {
            name: "imu-wristband",
            site: BodySite::Wrist,
            modality: SensorModality::Inertial,
            traffic: TrafficPattern::streaming(DataRate::from_kbps(13.0), 512),
            compute_power: Power::from_micro_watts(5.0),
        },
        LeafSpec {
            name: "earbuds-audio",
            site: BodySite::Ear,
            modality: SensorModality::Audio,
            traffic: TrafficPattern::streaming(DataRate::from_kbps(256.0), 1024),
            compute_power: Power::from_micro_watts(50.0),
        },
        LeafSpec {
            name: "camera-glasses",
            site: BodySite::Face,
            modality: SensorModality::Vision,
            traffic: TrafficPattern::streaming(DataRate::from_mbps(2.0), 4096),
            compute_power: Power::from_micro_watts(500.0),
        },
    ]
}

/// Materialises one leaf as a simulator [`NodeConfig`] over a pre-derived
/// link: sensing power from the modality's typical sensor, compute power and
/// traffic from the spec.  Shared by [`body_network`] and the population
/// layer's [`BodyScenario`](crate::population::BodyScenario).
#[must_use]
pub fn leaf_node(leaf: &LeafSpec, link: LinkParams) -> NodeConfig {
    NodeConfig::leaf(leaf.name, leaf.site, link)
        .with_sensing_power(leaf.modality.typical_power())
        .with_compute_power(leaf.compute_power)
        .with_traffic(leaf.traffic.clone())
}

/// Builds a star-topology body network over the given radio technology.
///
/// The hub sits at [`HUB_SITE`]; every leaf from `leaves` is connected with
/// link parameters derived from the channel model for its body site.
#[must_use]
pub fn body_network(
    technology: RadioTechnology,
    leaves: &[LeafSpec],
    policy: MacPolicy,
) -> Simulation {
    let mut sim = Simulation::new(policy);
    for leaf in leaves {
        let link = link_params_for(technology, leaf.site);
        sim.add_node(leaf_node(leaf, link));
    }
    sim
}

/// The standard whole-body scenario (five leaves, hub at the waist).
#[must_use]
pub fn standard_body_network(technology: RadioTechnology) -> Simulation {
    body_network(technology, &standard_leaf_set(), MacPolicy::Polling)
}

/// Battery life a node would achieve if its simulated average power were
/// sustained from the given battery.
#[must_use]
pub fn node_battery_life(stats: &NodeStats, battery: &Battery) -> TimeSpan {
    battery.lifetime(stats.average_power)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wir_links_have_picojoule_efficiency_and_mbps_goodput() {
        let link = link_params_for(RadioTechnology::WiR, BodySite::Chest);
        assert!(link.goodput().as_mbps() > 3.0, "goodput {}", link.goodput());
        assert!(link.energy_per_bit().as_pico_joules() < 200.0);
        let ble = link_params_for(RadioTechnology::Ble, BodySite::Chest);
        assert!(ble.energy_per_bit().as_nano_joules() > 1.0);
        assert!(ble.goodput() < link.goodput());
    }

    #[test]
    fn standard_network_runs_and_wir_carries_all_traffic() {
        let mut sim = standard_body_network(RadioTechnology::WiR);
        assert_eq!(sim.nodes().len(), 5);
        assert!(sim.offered_load().unwrap() < 1.0);
        let report = sim.run(TimeSpan::from_seconds(10.0));
        assert!(
            report.delivery_ratio() > 0.95,
            "{}",
            report.delivery_ratio()
        );
        // The ULP leaves stay in the µW class even while the camera streams.
        let ecg = &report.node_stats()[0];
        assert!(
            ecg.average_power.as_micro_watts() < 50.0,
            "{}",
            ecg.average_power
        );
    }

    #[test]
    fn ble_network_cannot_carry_the_camera_stream() {
        // 2 Mbps of compressed video over a ~0.78 Mbps BLE goodput: the BLE
        // body network saturates, which is part of the paper's motivation.
        let mut sim = standard_body_network(RadioTechnology::Ble);
        assert!(sim.offered_load().unwrap() > 1.0);
        let report = sim.run(TimeSpan::from_seconds(10.0));
        assert!(report.delivery_ratio() < 0.95);
    }

    #[test]
    fn node_battery_life_uses_average_power() {
        let mut sim = standard_body_network(RadioTechnology::WiR);
        let report = sim.run(TimeSpan::from_seconds(5.0));
        let ecg = &report.node_stats()[0];
        let life = node_battery_life(ecg, &Battery::coin_cell_1000mah());
        assert!(
            life.as_days() > 365.0,
            "ECG patch life {} days",
            life.as_days()
        );
        let glasses = &report.node_stats()[4];
        let glasses_life = node_battery_life(glasses, &Battery::lipo_mah(160.0));
        assert!(glasses_life < life);
    }

    #[test]
    fn leaf_set_covers_distinct_sites_and_modalities() {
        let leaves = standard_leaf_set();
        assert_eq!(leaves.len(), 5);
        let mut sites: Vec<_> = leaves.iter().map(|l| l.site).collect();
        sites.dedup();
        assert_eq!(sites.len(), 5);
        assert!(leaves.iter().any(|l| l.modality == SensorModality::Vision));
    }
}
