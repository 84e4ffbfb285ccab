//! Shared helpers for the experiment binaries: aligned-table printing,
//! machine-readable result dumps and the perf rows' timing loop
//! ([`sampler`]).
//!
//! Every experiment binary in `src/bin/` regenerates one figure or headline
//! claim of the paper (the figure table in the repo-root README maps each
//! binary to what it reproduces).  Each
//! prints a human-readable table to stdout and, when the `HIDWA_RESULTS_DIR`
//! environment variable is set, writes the same data as JSON for plotting.
//!
//! JSON output goes through the explicit [`json::ToJson`] trait (plus the
//! [`json_struct!`] field-listing macro) rather than serde: the offline shim
//! serde derives are no-ops, so machine-readable encoding must be spelled
//! out — which for the flat row structs the binaries emit is one macro line.
//!
//! # Example
//!
//! ```
//! struct Row { radio: String, goodput_mbps: f64 }
//! hidwa_bench::json_struct!(Row { radio, goodput_mbps });
//!
//! let rows = vec![Row { radio: "wi-r".into(), goodput_mbps: 3.7 }];
//! let json = hidwa_bench::json::to_string_pretty(&rows);
//! assert!(json.contains("\"goodput_mbps\": 3.7"));
//! assert_eq!(hidwa_bench::fmt_power(hidwa_units::Power::from_micro_watts(2.0)), "2.0 µW");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figs;
pub mod harvest;
pub mod json;
pub mod reference;
pub mod sampler;

use std::fs;
use std::path::PathBuf;

/// Prints a section header for an experiment.
pub fn header(experiment: &str, description: &str) {
    println!("================================================================");
    println!("{experiment}");
    println!("{description}");
    println!("================================================================");
}

/// Writes a serialisable result set to `$HIDWA_RESULTS_DIR/<name>.json`
/// (silently does nothing when the variable is unset).
///
/// # Panics
/// Panics if the results directory cannot be created or written — the bench
/// harness treats an unwritable results directory as a fatal configuration
/// error rather than silently dropping data.
pub fn write_json<T: json::ToJson>(name: &str, value: &T) {
    let Ok(dir) = std::env::var("HIDWA_RESULTS_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, json::to_string_pretty(value)).expect("write results file");
    println!("[results written to {}]", path.display());
}

/// Reads an `f64` knob from the environment.
#[must_use]
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Formats a power value with an auto-selected unit.
#[must_use]
pub fn fmt_power(power: hidwa_units::Power) -> String {
    let uw = power.as_micro_watts();
    if uw < 1000.0 {
        format!("{uw:.1} µW")
    } else if uw < 1.0e6 {
        format!("{:.2} mW", power.as_milli_watts())
    } else {
        format!("{:.2} W", power.as_watts())
    }
}

/// Formats a duration as hours / days / years depending on magnitude.
#[must_use]
pub fn fmt_lifetime(life: hidwa_units::TimeSpan) -> String {
    if life.as_hours() < 48.0 {
        format!("{:.1} h", life.as_hours())
    } else if life.as_days() < 365.0 {
        format!("{:.1} d", life.as_days())
    } else {
        format!("{:.1} y", life.as_years())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidwa_units::{Power, TimeSpan};

    #[test]
    fn power_formatting_picks_sensible_units() {
        assert_eq!(fmt_power(Power::from_micro_watts(12.34)), "12.3 µW");
        assert_eq!(fmt_power(Power::from_milli_watts(12.3)), "12.30 mW");
        assert_eq!(fmt_power(Power::from_watts(2.5)), "2.50 W");
    }

    #[test]
    fn lifetime_formatting_picks_sensible_units() {
        assert_eq!(fmt_lifetime(TimeSpan::from_hours(5.0)), "5.0 h");
        assert_eq!(fmt_lifetime(TimeSpan::from_days(12.0)), "12.0 d");
        assert_eq!(fmt_lifetime(TimeSpan::from_days(800.0)), "2.2 y");
    }

    #[test]
    fn write_json_is_a_noop_without_env() {
        std::env::remove_var("HIDWA_RESULTS_DIR");
        write_json("test", &vec![1.0, 2.0, 3.0]);
    }
}
