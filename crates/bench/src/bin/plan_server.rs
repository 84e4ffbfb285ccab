//! Standalone plan server: the partition optimiser and Fig. 3 projector as
//! a long-running TCP service.
//!
//! Binds the requested address (an ephemeral loopback port by default),
//! prints `listening on <addr>` to stdout — scripts parse this line, CI's
//! smoke test included — and serves [`hidwa_core::serve`] traffic until a
//! client sends the wire-level shutdown envelope, then prints a final
//! counter summary and exits 0.
//!
//! ```text
//! plan_server [--addr <host:port>] [--no-cache | --cache-capacity <n>]
//!             [--threads <n>] [--runner <n>] [--idle-timeout-ms <n>]
//! ```
//!
//! `--threads` sets how many epoll event loops drive the connections
//! (default one per core, capped at 4); serving needs epoll, so the server
//! runs on Linux only.  `--runner` sizes the sweep runner that evaluates
//! cache misses, `--cache-capacity` bounds the plan cache with CLOCK
//! eviction (default 4096 plans), and `--idle-timeout-ms` tunes (or `0`
//! disables) the mid-frame stall guard that drops slow-loris connections.  `--no-cache` and
//! `--cache-capacity` are mutually exclusive.  A bad invocation exits 2
//! with the usage on stderr before the address is bound; `--help` prints
//! the usage on stdout and exits 0.
//!
//! Shutdown is part of the protocol rather than a signal: a std-only binary
//! cannot install signal handlers without extra dependencies, so any client
//! (e.g. `examples/plan_client.rs` with `--shutdown`) can stop the server
//! cleanly, and the acknowledgement (`Bye`) confirms the counters printed
//! below are final.

use hidwa_core::flags::{usage_error, Flags};
use hidwa_core::serve::{PlanCache, PlanServer, PlanService, ServeConfig, ThreadModel};
use hidwa_core::sweep::SweepRunner;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: plan_server [--addr <host:port>] [--no-cache | --cache-capacity <n>] \
                     [--threads <n>] [--runner <n>] [--idle-timeout-ms <n>]";

const FLAGS: &str =
    "--addr= --no-cache --cache-capacity= --threads= --runner= --idle-timeout-ms= --help -h";

fn main() -> ExitCode {
    serve(std::env::args().skip(1))
        .unwrap_or_else(|message| usage_error(USAGE, &format!("plan_server: {message}")))
}

/// Serves until a client sends the shutdown envelope.  `Err` is a usage
/// error, raised before the address is bound.
fn serve(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let flags = Flags::parse(FLAGS, args)?;
    if flags.has("--help") || flags.has("-h") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    flags.exclusive("--no-cache", "--cache-capacity")?;
    let addr = flags.raw("--addr").unwrap_or("127.0.0.1:0");
    let cache_capacity = flags
        .value("--cache-capacity")?
        .unwrap_or(PlanCache::DEFAULT_CAPACITY);
    let mut config = ServeConfig::default();
    if let Some(event_loops) = flags.value::<NonZeroUsize>("--threads")? {
        config.threads = ThreadModel::Reactor {
            event_loops: event_loops.get(),
        };
    }
    if let Some(ms) = flags.value("--idle-timeout-ms")? {
        config.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    let cache = !flags.has("--no-cache");
    let mut service = if cache {
        PlanService::new().with_cache_capacity(cache_capacity)
    } else {
        PlanService::new().with_cache(false)
    };
    if let Some(runner) = flags.value("--runner")? {
        service = service.with_runner(SweepRunner::with_threads(runner));
    }

    let server = match PlanServer::bind_with(addr, service, config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("plan_server: cannot bind {addr}: {error}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!("listening on {}", server.addr());
    let cache_label = if cache {
        format!("on (capacity {cache_capacity})")
    } else {
        "off".to_string()
    };
    println!("cache: {cache_label}");
    let ThreadModel::Reactor { event_loops } = config.threads;
    println!("threads: reactor ({event_loops} event loops)");

    // Blocks until a client sends the shutdown envelope.
    let service = server.wait();
    let stats = service.stats();
    println!("shutdown acknowledged; final counters:");
    println!("  requests            {}", stats.requests);
    println!("  plan queries        {}", stats.plan_queries);
    println!("  projection queries  {}", stats.projection_queries);
    println!(
        "  plan cache          {} hits / {} misses ({:.1}% hit rate, {} entries, {} evictions)",
        stats.cache_hits,
        stats.cache_misses,
        stats.hit_rate() * 100.0,
        stats.cached_plans,
        stats.cache_evictions
    );
    Ok(ExitCode::SUCCESS)
}
