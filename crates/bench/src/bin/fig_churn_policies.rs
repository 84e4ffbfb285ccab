//! Fleet churn × online placement policy sweep (ISSUE 9 tentpole figure).
//!
//! Streams a ≥1k-body heterogeneous fleet through the churn layer under
//! every placement policy × churn-rate combination and reports, per row,
//! the migration rate (migrations per body-hour of residency), re-plan
//! count, mean occupancy (fraction of the horizon bodies were resident),
//! placement energy and the usual tail-latency / delivery statistics.
//!
//! Policies:
//!
//! * `static-at-admission` — the admission-time plan is kept for the whole
//!   residency; context shifts never trigger the optimizer again.
//! * `reoptimize-on-change` — every duty-cycle epoch re-runs the
//!   [`PartitionOptimizer`](hidwa_core::partition::PartitionOptimizer)
//!   under the epoch's link derating and adopts the new optimum; each cut
//!   move is a migration with an explicit energy cost.
//! * `hysteresis` — re-optimizes like the above but only adopts a candidate
//!   that beats the retained plan by a relative threshold, damping flapping.
//!
//! Every combination also re-asserts the fleet determinism contract with
//! churn enabled: state bytes identical at `SweepRunner` widths 1 vs 4 and
//! under a 4-way [`ShardPlan`] merge, and a mid-stream checkpoint
//! save/load/resume that finishes byte-identical to the uninterrupted fold.
//!
//! With `HIDWA_RESULTS_DIR` set, the section is written to
//! `$HIDWA_RESULTS_DIR/fig_churn_policies.json` (the committed copy lives in
//! `results/`).  Exits non-zero on any identity failure.
//!
//! Sizes: `BODIES` (1000 bodies per fleet), `HORIZON` (2 s per-body
//! horizon).

use hidwa_core::fleet::{ChurnSpec, FleetCheckpoint, FleetConfig, PolicyKind, ShardPlan};
use hidwa_core::population::{ChurnModel, PopulationModel};
use hidwa_core::sweep::SweepRunner;
use hidwa_units::TimeSpan;
use std::time::Instant;

struct ChurnRow {
    policy: String,
    churn_rate: f64,
    bodies: usize,
    horizon_s: f64,
    wall_ms: f64,
    migrations: u64,
    replans: u64,
    /// Migrations per body-hour of residency — the figure's headline metric.
    migration_rate_per_body_hour: f64,
    /// Mean fraction of the horizon bodies were actually resident.
    occupancy: f64,
    placement_energy_j: f64,
    worst_p95_ms: f64,
    delivery_ratio: f64,
    /// Width-1 / width-4 / 4-shard-merge state bytes all identical.
    identity_ok: bool,
    /// Mid-stream save/load/resume reproduced the uninterrupted fold.
    resume_ok: bool,
}

hidwa_bench::json_struct!(ChurnRow {
    policy,
    churn_rate,
    bodies,
    horizon_s,
    wall_ms,
    migrations,
    replans,
    migration_rate_per_body_hour,
    occupancy,
    placement_energy_j,
    worst_p95_ms,
    delivery_ratio,
    identity_ok,
    resume_ok,
});

struct ChurnSection {
    bodies: usize,
    horizon_s: f64,
    link_fade: f64,
    identity_ok: bool,
    resume_ok: bool,
    rows: Vec<ChurnRow>,
}

hidwa_bench::json_struct!(ChurnSection {
    bodies,
    horizon_s,
    link_fade,
    identity_ok,
    resume_ok,
    rows,
});

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::StaticAtAdmission,
    PolicyKind::ReoptimizeOnChange,
    PolicyKind::Hysteresis,
];
const CHURN_RATES: [f64; 2] = [0.2, 0.6];
const BODIES: usize = 1000;
const HORIZON: TimeSpan = TimeSpan::from_seconds(2.0);
/// Severe epoch fades (down to 20 % of nominal goodput) so re-optimizing
/// policies actually have cut moves worth making.
const LINK_FADE: f64 = 0.8;

fn main() -> std::process::ExitCode {
    let runner = SweepRunner::new();

    hidwa_bench::header(
        "fig_churn_policies",
        "fleet churn x online placement policies: migration rate, occupancy, energy",
    );
    println!(
        "{BODIES} heterogeneous bodies, {:.1} s horizon, link fade {LINK_FADE} (threads: {})\n",
        HORIZON.as_seconds(),
        runner.threads()
    );
    println!(
        "{:<22} {:>6} {:>9} {:>11} {:>9} {:>11} {:>10} {:>9} {:>10} {:>9} {:>7}",
        "policy",
        "rate",
        "wall ms",
        "migrations",
        "replans",
        "migr/bd-h",
        "occupancy",
        "plc mJ",
        "p95 ms",
        "delivery",
        "ident"
    );

    let mut rows = Vec::new();
    let mut identity_ok = true;
    let mut resume_ok = true;
    for policy in POLICIES {
        for rate in CHURN_RATES {
            let spec = ChurnSpec::new(
                ChurnModel::with_rate(rate).with_link_fade(LINK_FADE),
                policy,
            );
            let config = FleetConfig::new(BODIES)
                .with_population(PopulationModel::mixed_default())
                .with_base_seed(0xC12A)
                .with_horizon(HORIZON)
                .with_churn(spec);

            let start = Instant::now();
            let single_checkpoint = config.run_until(&SweepRunner::with_threads(1), BODIES);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let single_state = single_checkpoint.save().to_vec();
            let report = single_checkpoint.into_parts().0.finish();

            // Determinism with churn enabled: width 1 vs 4 and a 4-shard
            // merge must all serialize to the same state bytes.
            let wide_state = config
                .run_until(&SweepRunner::with_threads(4), BODIES)
                .save()
                .to_vec();
            let merged = ShardPlan::split(config.clone(), 4).fold(&runner);
            let merged_state = FleetCheckpoint::capture(&config, &merged, BODIES)
                .save()
                .to_vec();
            let row_identity = wide_state == single_state && merged_state == single_state;
            identity_ok &= row_identity;

            // Mid-stream interruption: save at the halfway body, reload,
            // resume — the finished report must match.
            let half = config.run_until(&runner, BODIES / 2).save();
            let row_resume = match FleetCheckpoint::load(&half) {
                Ok(restored) => config
                    .resume(&runner, restored)
                    .map(|resumed| resumed == report)
                    .unwrap_or(false),
                Err(_) => false,
            };
            resume_ok &= row_resume;

            let row = ChurnRow {
                policy: policy.to_string(),
                churn_rate: rate,
                bodies: BODIES,
                horizon_s: HORIZON.as_seconds(),
                wall_ms,
                migrations: report.migrations(),
                replans: report.replans(),
                migration_rate_per_body_hour: report.migration_rate(),
                occupancy: report.mean_occupancy(),
                placement_energy_j: report.placement_energy().as_joules(),
                worst_p95_ms: report.body_worst_p95_quantile(1.0).as_millis(),
                delivery_ratio: report.delivery_ratio(),
                identity_ok: row_identity,
                resume_ok: row_resume,
            };
            println!(
                "{:<22} {:>6.2} {:>9.1} {:>11} {:>9} {:>11.2} {:>10.3} {:>9.3} {:>10.3} {:>9.3} {:>7}",
                row.policy,
                row.churn_rate,
                row.wall_ms,
                row.migrations,
                row.replans,
                row.migration_rate_per_body_hour,
                row.occupancy,
                row.placement_energy_j * 1e3,
                row.worst_p95_ms,
                row.delivery_ratio,
                if row.identity_ok && row.resume_ok {
                    "yes"
                } else {
                    "NO"
                }
            );
            rows.push(row);
        }
    }

    // Structural sanity for the figure itself: churn must actually churn,
    // and re-optimizing policies must out-migrate the static baseline.
    let static_migrations: u64 = rows
        .iter()
        .filter(|row| row.policy == PolicyKind::StaticAtAdmission.to_string())
        .map(|row| row.migrations)
        .sum();
    let reoptimize_migrations: u64 = rows
        .iter()
        .filter(|row| row.policy == PolicyKind::ReoptimizeOnChange.to_string())
        .map(|row| row.migrations)
        .sum();
    let occupancies_partial = rows
        .iter()
        .all(|row| row.occupancy > 0.0 && row.occupancy < 1.0);

    let section = ChurnSection {
        bodies: BODIES,
        horizon_s: HORIZON.as_seconds(),
        link_fade: LINK_FADE,
        identity_ok,
        resume_ok,
        rows,
    };
    hidwa_bench::write_json("fig_churn_policies", &section);

    assert_eq!(
        static_migrations, 0,
        "static-at-admission must never migrate"
    );
    assert!(
        reoptimize_migrations > 0,
        "reoptimize-on-change never migrated: the churn fixture is inert"
    );
    assert!(
        occupancies_partial,
        "churned occupancy must be strictly between 0 and 1"
    );
    assert!(
        identity_ok,
        "a churned fold diverged across thread widths or shard layouts"
    );
    assert!(
        resume_ok,
        "a churned checkpoint resume diverged from the uninterrupted fold"
    );
    std::process::ExitCode::SUCCESS
}
