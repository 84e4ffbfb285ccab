//! End-to-end and per-layer benchmark of the HIDWA workspace.
//!
//! ```text
//! perfbench --workload <fleet_stream|search_grid|serve_plans> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-rev <rev>]
//!           [--scale full|small]
//! ```
//!
//! One process runs one workload.  With `--trace 0` it sets the workload up
//! several times (reporting the median set-up time), then times operations
//! for `--seconds` and prints the end-to-end metrics.  With `--trace 1` it
//! times half the budget untraced and half with spans recorded around every
//! call into a layer, and prints the per-layer metrics.  Every operation's
//! output is checked against a reference computed during set-up.  The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod body;
mod fleet;
mod hist;
mod search;
mod serve;
mod trace;

use hist::Histogram;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Layer, Totals};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// What every workload is handed.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

/// SplitMix64: the benchmark's one source of derived seeds and inputs.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// What a workload reports back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks beyond per-operation failures (traced-path identity, span
    /// accounting); any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra provenance, such as the spool filesystem.
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a problem once, however often it recurs.
    pub fn problem(&mut self, text: impl Into<String>) {
        let text = text.into();
        if !self.problems.contains(&text) {
            self.problems.push(text);
        }
    }
}

/// Times `setup` `count` times, dropping all but the last result, and
/// returns it with the median set-up time.
pub fn timed_setups<T>(count: usize, mut setup: impl FnMut() -> T) -> (T, Metric) {
    let mut times = Vec::with_capacity(count);
    let mut kept = None;
    for _ in 0..count {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let mut setup_s = metric("setup_s", times[count / 2], "s");
    setup_s.note = format!("median of {count} set-ups");
    (kept.expect("at least one set-up"), setup_s)
}

/// `p50_us`, `p90_us` and `p99_us` of `hist`.  A tail percentile is
/// reported only up to `steady`, the highest one that repeats within a tenth
/// from run to run on the workload, and only with at least ten samples
/// beyond it; otherwise the next lower percentile stands in and the note
/// says so.
pub fn percentiles(hist: &Histogram, steady: f64) -> Vec<Metric> {
    let n = hist.count();
    let mut out = Vec::new();
    let mut m = metric("p50_us", hist.quantile_ns(0.5) / 1e3, "us");
    m.note = format!("{n} samples");
    out.push(m);
    for (name, wanted) in [("p90_us", 0.9), ("p99_us", 0.99)] {
        let q = [0.99, 0.9, 0.5]
            .into_iter()
            .filter(|&q| q <= wanted && q <= steady)
            .find(|&q| q == 0.5 || hist.beyond(q) >= 10)
            .unwrap_or(0.5);
        let mut m = metric(name, hist.quantile_ns(q) / 1e3, "us");
        m.note = format!("p{} of {n} samples, {} beyond", q * 100.0, hist.beyond(q));
        out.push(m);
    }
    out
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mb() -> Metric {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(0.0);
    metric("peak_rss_mb", kib / 1024.0, "MiB")
}

/// The filesystem type `path` lives on, from the mount table.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(point), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if path.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() >= *len) {
            best = Some((point.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// Exact per-operation counts a traced workload records beside its spans,
/// summed over operations.
#[derive(Default)]
pub struct Counts {
    pub events: u64,
    pub state_buckets: u64,
    pub replans: u64,
    pub migrations: u64,
    pub checkpoint_bytes: u64,
    pub attempts: u64,
    pub driver_failed: u64,
    pub folds: u64,
    pub index_hits: u64,
    pub wire_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
}

/// Every per-layer metric, from a traced phase's totals and counts.  Layers
/// a workload leaves idle read zero.
pub fn per_layer(
    totals: &Totals,
    counts: &Counts,
    width: usize,
    traced_throughput: f64,
    untraced_throughput: f64,
) -> Vec<Metric> {
    let ops = totals.ops.max(1) as f64;
    let per_op = |count: u64| count as f64 / ops;
    let us = |layer: Layer| totals.self_us(layer);
    let busy = totals.dur_us(Layer::SweepItem);
    let capacity = totals.per_op_us(totals.fan_capacity_ns[Layer::SweepMap as usize]);
    let fanned = totals.dur_us(Layer::SweepMap) + totals.dur_us(Layer::DriverRun);
    let service = us(Layer::CodecDecode) + us(Layer::ServiceAnswer) + us(Layer::CodecEncode);
    let lookups = counts.cache_hits + counts.cache_misses;
    let mut out = vec![
        metric("sweep.busy_us", busy, "us"),
        metric("sweep.idle_us", capacity - busy, "us"),
        metric(
            "sweep.utilisation",
            if capacity > 0.0 { busy / capacity } else { 0.0 },
            "ratio",
        ),
        metric("population.sample_us", us(Layer::PopSample), "us"),
        metric("population.links_us", us(Layer::PopLinks), "us"),
        metric("netsim.build_us", us(Layer::NetBuild), "us"),
        metric("netsim.run_us", us(Layer::NetRun), "us"),
        metric("netsim.sketch_us", us(Layer::NetSketch), "us"),
        metric("netsim.events", per_op(counts.events), "count"),
        metric("fleet.ingest_us", us(Layer::FleetIngest), "us"),
        metric(
            "fleet.serial_us",
            if fanned > 0.0 {
                totals.wall_us() - fanned
            } else {
                0.0
            },
            "us",
        ),
        metric("fleet.state_buckets", per_op(counts.state_buckets), "count"),
        metric("placement.simulate_us", us(Layer::Placement), "us"),
        metric("placement.replans", per_op(counts.replans), "count"),
        metric("placement.migrations", per_op(counts.migrations), "count"),
        metric("checkpoint.encode_us", us(Layer::CkptEncode), "us"),
        metric("checkpoint.decode_us", us(Layer::CkptDecode), "us"),
        metric("checkpoint.bytes", per_op(counts.checkpoint_bytes), "bytes"),
        metric("driver.execute_us", us(Layer::DriverExecute), "us"),
        metric("driver.publish_us", us(Layer::DriverPublish), "us"),
        metric("driver.coordinator_us", us(Layer::DriverRun), "us"),
        metric(
            "driver.shard_skew_us",
            totals.per_op_us(totals.skew_ns[Layer::DriverRun as usize]),
            "us",
        ),
        metric("driver.attempts", per_op(counts.attempts), "count"),
        metric("driver.failed", per_op(counts.driver_failed), "count"),
        metric("search.index_us", us(Layer::SearchIndex), "us"),
        metric("search.folds", per_op(counts.folds), "count"),
        metric("search.cache_hits", per_op(counts.index_hits), "count"),
        metric("serve.codec.decode_us", us(Layer::CodecDecode), "us"),
        metric("serve.codec.encode_us", us(Layer::CodecEncode), "us"),
        metric("wire.bytes_per_request", per_op(counts.wire_bytes), "bytes"),
        metric("serve.service.answer_us", us(Layer::ServiceAnswer), "us"),
        metric(
            "serve.cache.hit_rate",
            if lookups > 0 {
                counts.cache_hits as f64 / lookups as f64
            } else {
                0.0
            },
            "ratio",
        ),
        metric("serve.cache.evictions", per_op(counts.evictions), "count"),
        metric("serve.client.submit_us", us(Layer::ClientSubmit), "us"),
        metric("serve.client.wait_us", us(Layer::ClientWait), "us"),
        metric(
            "serve.residual_us",
            if service > 0.0 {
                us(Layer::ClientWait) - service
            } else {
                0.0
            },
            "us",
        ),
        metric("trace.op_wall_us", totals.wall_us(), "us"),
        metric("trace.idle_us", totals.per_op_us(totals.idle_ns), "us"),
        metric("trace.gap", totals.max_gap, "ratio"),
        metric("trace.traced_throughput", traced_throughput, "1/s"),
        metric("trace.untraced_throughput", untraced_throughput, "1/s"),
        metric(
            "trace.overhead",
            if untraced_throughput > 0.0 {
                1.0 - traced_throughput / untraced_throughput
            } else {
                0.0
            },
            "ratio",
        ),
    ];
    for m in &mut out {
        if m.name == "trace.gap" {
            m.note = format!("largest per-op miss of Σ self + idle against {width} × op wall");
        }
    }
    out
}

/// Checks a traced phase's span accounting, recording any problem.
pub fn check_accounting(outcome: &mut Outcome, totals: &Totals) {
    if totals.ops == 0 {
        outcome.problem("the traced phase completed no operation");
    }
    if totals.violations > 0 {
        outcome.problem(format!("{} span-tree violations", totals.violations));
    }
    if totals.max_gap > 0.05 {
        outcome.problem(format!(
            "self times plus idle miss the op wall time by {:.2}%",
            totals.max_gap * 100.0
        ));
    }
}

/// Splits the measuring budget: all of it untraced, or half untraced and
/// half traced.
pub fn phases(params: &Params) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(params.seconds);
    if params.trace {
        (total / 2, total / 2)
    } else {
        (total, Duration::ZERO)
    }
}

struct Args {
    workload: String,
    params: Params,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut git_rev = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    _ => return Err("--scale takes full or small".into()),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--git-rev" => git_rev = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            nproc,
            scale,
            out_dir,
        },
        git_rev,
    })
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    let params = &args.params;
    if let Err(error) = std::fs::create_dir_all(&params.out_dir) {
        eprintln!(
            "perfbench: cannot create {}: {error}",
            params.out_dir.display()
        );
        std::process::exit(2);
    }
    let mut outcome = match args.workload.as_str() {
        "fleet_stream" => fleet::run(params),
        "search_grid" => search::run(params),
        "serve_plans" => serve::run(params),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if !params.trace {
        outcome.metrics.push(peak_rss_mb());
    }
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome.problems.push(format!("{} is not finite", m.name));
        }
    }

    let mut provenance = vec![
        ("workload", args.workload.clone()),
        ("seed", params.seed.to_string()),
        ("seconds", params.seconds.to_string()),
        ("trace", u8::from(params.trace).to_string()),
        ("scale", format!("{:?}", params.scale).to_lowercase()),
        ("nproc", params.nproc.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
        ("git_rev", args.git_rev.clone()),
        ("source_digest", env!("PERFBENCH_SOURCE_DIGEST").to_string()),
    ];
    provenance.append(&mut outcome.provenance);
    let provenance_json = provenance
        .iter()
        .map(|(key, value)| format!("{}: {}", json_string(key), json_string(value)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("provenance {{{provenance_json}}}");
    for m in &outcome.metrics {
        if m.note.is_empty() {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        } else {
            println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.note);
        }
    }
    for problem in &outcome.problems {
        println!("problem: {problem}");
    }
    println!(
        "ops attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(m.name),
                json_string(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
}
