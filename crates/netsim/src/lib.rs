//! Discrete-event simulator for Internet-of-Bodies (IoB) networks.
//!
//! The paper's distributed architecture (§V) is a star: ultra-low-power leaf
//! nodes scattered over the body, one on-body hub ("wearable brain"), and a
//! shared Wi-R medium connecting them.  Whether that star actually works —
//! can a single 4 Mbps medium carry a ring, a patch, earbuds and a camera at
//! once, and what latency and per-node energy does it deliver — is a
//! scheduling question, which this crate answers by simulation:
//!
//! * [`event`] — the deterministic time-ordered event queue of the exact
//!   reference engine.
//! * [`traffic`] — periodic, bursty and streaming traffic sources for the
//!   wearable workloads.
//! * [`node`] — leaf/hub node descriptions: link parameters, sensing and
//!   compute power, body site.
//! * [`mac`] — medium-access schedulers for the shared body medium (TDMA and
//!   hub polling).
//! * [`sim`] — the simulator itself plus per-node statistics (delivered
//!   bytes, latency percentiles, energy breakdown).
//! * [`sketch`] — streaming latency percentile sketch with a documented
//!   1/64 relative error bound, O(1) memory over any horizon.
//!
//! # Example
//!
//! ```
//! use hidwa_netsim::{node::{NodeConfig, LinkParams}, sim::Simulation, traffic::TrafficPattern, mac::MacPolicy};
//! use hidwa_eqs::body::BodySite;
//! use hidwa_units::{DataRate, EnergyPerBit, Power, TimeSpan};
//!
//! let link = LinkParams::new(DataRate::from_mbps(4.0), EnergyPerBit::from_pico_joules(100.0), TimeSpan::from_micros(100.0));
//! let node = NodeConfig::leaf("ecg-patch", BodySite::Chest, link)
//!     .with_sensing_power(Power::from_micro_watts(2.0))
//!     .with_traffic(TrafficPattern::periodic(TimeSpan::from_seconds(1.0), 512));
//! let mut sim = Simulation::new(MacPolicy::Tdma);
//! sim.add_node(node);
//! let report = sim.run(TimeSpan::from_seconds(60.0));
//! assert_eq!(report.node_stats().len(), 1);
//! assert!(report.node_stats()[0].delivered_frames > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod event;
pub mod mac;
pub mod node;
pub mod sim;
pub mod sketch;
pub mod traffic;

pub use error::NetsimError;
