//! Human-Inspired Distributed Wearable AI (HIDWA): the paper's architecture
//! as a library.
//!
//! The crate assembles the substrates — unit types, energy models, EQS-HBC
//! channel, Wi-R/BLE PHYs, the tiny-DNN library and the network simulator —
//! into the analyses the paper presents:
//!
//! * [`devices`] — a profile catalogue of commercial wearable classes and
//!   their battery-life bands (Fig. 2).
//! * [`arch`] — the two node architectures the paper contrasts: today's
//!   CPU-plus-radio IoB node versus the human-inspired sensor + ISA + Wi-R
//!   leaf node, with per-component power breakdowns (Fig. 1).
//! * [`projection`] — battery life versus data rate under Wi-R with the
//!   sensing-power survey model and the 1000 mAh reference cell (Fig. 3).
//! * [`partition`] — the DNN partitioning optimiser that decides how much of
//!   a wearable AI workload runs on the leaf versus the hub, for a given
//!   radio (the quantitative core of the distributed-intelligence vision).
//! * [`scenario`] — turn-key body-area network scenarios built on the
//!   discrete-event simulator, used by the examples and benches.
//! * [`sweep`] — the parallel sweep runner that fans figure-scale grids
//!   (model × context × objective, multi-seed simulation batches) across
//!   threads with deterministic, serial-identical output ordering.
//! * [`population`] — weighted body archetypes (leaf sets, traffic mixes,
//!   radios, MAC policies) sampled deterministically into per-body scenarios:
//!   heterogeneous fleets as a pure function of `(base_seed, body_index)`.
//! * [`fleet`] — streaming fleet simulation of independent body networks over
//!   the sweep runner: per-body seeds, bounded per-body summaries and a
//!   bounded-memory aggregator whose state is independent of fleet size (the
//!   millions-of-users direction).
//! * [`search`] — fleet-scale configuration search: a discrete objective
//!   grid (MAC × objective × radio × traffic scaling × churn policy), one
//!   exact fleet fold per evaluation, exhaustive-grid and
//!   coordinate-descent strategies, and a sealed resumable index of
//!   completed evaluations (the production question "which config do we
//!   ship to the fleet").
//! * [`flags`] — the one command-line flag parser and tag lookup under the
//!   worker protocol and every CLI.
//! * [`sealed`] — the one sealed binary envelope (magic, version, body,
//!   FNV-1a 64 seal) under the checkpoint, search-index and serve formats.
//! * [`wire`] — the plan server's length-prefixed socket framing (one
//!   implementation, capped reads, typed errors).
//! * [`serve`] — the partition optimiser and Fig. 3 projector as a warm,
//!   long-running TCP service: sealed binary codec, exact interned-key plan
//!   cache, std-only epoll front-end (Linux) and matching client.
//!
//! # Caching and ownership model
//!
//! The sweep pipeline is allocation-free on its hot path by construction:
//! [`hidwa_isa::models::WearableModel`] owns per-model caches (layer
//! profiles, cut points, total MACs) computed once at construction, and the
//! [`partition`] optimiser borrows those cached slices rather than
//! re-deriving them.  Labels that appear on every plan (context label, model
//! name) are interned `Arc<str>`s shared between the long-lived owner
//! (context/model) and the plans derived from it, so labelling is a
//! reference-count bump.  See the [`partition`] module docs for the exact
//! fast-path guarantees.
//!
//! # Quick start
//!
//! ```
//! use hidwa_core::arch::{NodeArchitecture, WorkloadSpec};
//! use hidwa_core::projection::Fig3Projector;
//! use hidwa_units::DataRate;
//!
//! // Fig. 1: the same ECG workload on both architectures.
//! let workload = WorkloadSpec::ecg_patch();
//! let conventional = NodeArchitecture::conventional().power_breakdown(&workload);
//! let human_inspired = NodeArchitecture::human_inspired().power_breakdown(&workload);
//! assert!(human_inspired.total() < conventional.total());
//!
//! // Fig. 3: a 4 kbps biopotential node is perpetually operable.
//! let projector = Fig3Projector::paper_defaults();
//! let point = projector.project_rate(DataRate::from_kbps(4.0));
//! assert!(point.battery_life.as_years() > 1.0);
//! ```

// `deny`, not `forbid`: the epoll syscall shim (`serve::sys`) and the sweep
// runner's helper pool (`sweep::pool`) are the only modules allowed to opt
// back in — every other line of the crate stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod devices;
mod error;
pub mod flags;
pub mod fleet;
pub mod partition;
pub mod population;
pub mod projection;
pub mod scenario;
pub mod sealed;
pub mod search;
pub mod serve;
pub mod sweep;
pub mod wire;

pub use error::CoreError;
