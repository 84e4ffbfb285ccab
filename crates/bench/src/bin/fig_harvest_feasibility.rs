//! Experiment E7 — energy-harvesting feasibility (§V): with 10–200 µW indoor
//! harvesting, which node classes become energy-neutral / perpetually
//! operable?  Multi-seed Monte-Carlo over harvester variability, fanned over
//! the [`SweepRunner`] (rows are byte-identical to the serial loop at any
//! thread width — asserted by `tests/harvest_grid.rs`).
//!
//! Sizes: `SEEDS` (8 independent Monte-Carlo streams per cell), `TRIALS`
//! (1000 draws per stream).

use hidwa_bench::harvest::{monte_carlo_grid, HarvestRow};
use hidwa_bench::{fmt_power, header, write_json};
use hidwa_core::sweep::SweepRunner;
use hidwa_units::Power;

const SEEDS: usize = 8;
const TRIALS: usize = 1000;

fn main() {
    header(
        "E7 — indoor energy-harvesting feasibility",
        "Paper claim: 10-200 µW indoor harvesting makes ULP leaf nodes perpetual",
    );

    let runner = SweepRunner::new();
    let rows: Vec<HarvestRow> = monte_carlo_grid(&runner, 2024, SEEDS, TRIALS);

    let mut current_profile = String::new();
    for row in &rows {
        if row.profile != current_profile {
            current_profile = row.profile.clone();
            println!(
                "\n-- harvesting profile: {current_profile} (average {}) --",
                fmt_power(Power::from_micro_watts(row.harvested_uw))
            );
            println!(
                "{:<16} {:<34} {:>12} {:>16} {:>10} {:>12}",
                "workload", "architecture", "node power", "energy-neutral", "P(cover)", "band"
            );
        }
        println!(
            "{:<16} {:<34} {:>12} {:>16} {:>10.2} {:>12}",
            row.workload,
            row.architecture,
            fmt_power(Power::from_micro_watts(row.node_power_uw)),
            row.energy_neutral,
            row.coverage_probability,
            row.band_with_harvesting,
        );
    }

    let neutral_human = rows
        .iter()
        .filter(|r| r.architecture.contains("human") && r.energy_neutral)
        .count();
    let neutral_conventional = rows
        .iter()
        .filter(|r| r.architecture.contains("conventional") && r.energy_neutral)
        .count();
    println!(
        "\nEnergy-neutral (workload, profile) combinations: human-inspired {neutral_human}, conventional {neutral_conventional} ({SEEDS} Monte-Carlo streams x {TRIALS} trials per cell, {} runner threads)",
        runner.threads()
    );

    write_json("fig_harvest_feasibility", &rows);
}
