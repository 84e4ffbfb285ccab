//! Usage errors of every flag-driven binary, asserted on real processes:
//! `shard_worker`, `fleet_driver`, `fleet_search --search` and
//! `plan_server`.
//!
//! Every malformed invocation must exit 2 with the usage text on stderr,
//! before the binary binds a socket, creates a spool directory or spawns a
//! worker.  Each child runs under a deadline, so a binary that starts
//! serving or folding instead of refusing fails the test rather than
//! hanging it.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// A binary under test plus the leading arguments that select its CLI.
struct Cli {
    program: &'static str,
    leading: &'static [&'static str],
}

const WORKER: Cli = Cli {
    program: env!("CARGO_BIN_EXE_shard_worker"),
    leading: &[],
};
const DRIVER: Cli = Cli {
    program: env!("CARGO_BIN_EXE_fleet_driver"),
    leading: &[],
};
const SEARCH: Cli = Cli {
    program: env!("CARGO_BIN_EXE_fleet_search"),
    leading: &["--search"],
};
const SERVER: Cli = Cli {
    program: env!("CARGO_BIN_EXE_plan_server"),
    leading: &[],
};

/// Runs `cli` with `args`, killing it after 60 s.
fn run(cli: &Cli, args: &[&str]) -> Output {
    let mut child = Command::new(cli.program)
        .args(cli.leading)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary under test");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{} {args:?} still running after 60 s", cli.program);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect child output")
}

/// Each CLI with a flag of it that takes a number.
const CLIS: [(&Cli, &str); 4] = [
    (&WORKER, "--bodies"),
    (&DRIVER, "--bodies"),
    (&SEARCH, "--bodies"),
    (&SERVER, "--cache-capacity"),
];

/// Asserts a usage error: exit 2, usage on stderr, and every `needles`
/// substring in stderr.
fn assert_usage(cli: &Cli, args: &[&str], needles: &[&str]) {
    let output = run(cli, args);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(
        output.status.code(),
        Some(2),
        "{} {args:?} should be a usage error; stderr: {stderr}",
        cli.program
    );
    assert!(stderr.contains("usage:"), "{args:?}: stderr was {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr lacks {needle:?}; it was {stderr}"
        );
    }
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hidwa-cli-{tag}-{}", std::process::id()))
}

#[test]
fn malformed_flags_are_usage_errors_in_every_cli() {
    for (cli, numeric) in CLIS {
        assert_usage(cli, &["--frobnicate"], &["unknown flag"]);
        assert_usage(cli, &[numeric], &[]);
        assert_usage(cli, &[numeric, "ten"], &[]);
    }
}

#[test]
fn every_cli_words_bad_flags_alike() {
    for (cli, numeric) in CLIS {
        assert_usage(cli, &["--frobnicate"], &[r#"unknown flag "--frobnicate""#]);
        assert_usage(cli, &[numeric], &[&format!("{numeric} needs a value")]);
        let unparsable = format!(r#"{numeric} could not parse "ten""#);
        assert_usage(cli, &[numeric, "ten"], &[&unparsable]);
    }
    assert_usage(&DRIVER, &[], &["--bodies is required"]);
    // A tag error lists the tags the enum's `tag` function spells.
    let population = r#"--population could not parse "martian" (expected "uniform" or "mixed")"#;
    assert_usage(
        &DRIVER,
        &["--bodies", "4", "--population", "martian"],
        &[population],
    );
    let radios = r#"--radio could not parse "zigbee" (expected "wi-r", "ble", "nfmi" or "wifi")"#;
    assert_usage(&WORKER, &["--bodies", "4", "--radio", "zigbee"], &[radios]);
    let strategies = r#"(expected "exhaustive" or "descent")"#;
    assert_usage(&SEARCH, &["--strategy", "sideways"], &[strategies]);
    // `--threads` takes an event-loop count and nothing else.
    let threads = r#"--threads could not parse "legacy""#;
    assert_usage(&SERVER, &["--threads", "legacy"], &[threads]);
}

#[test]
fn plan_server_help_prints_usage_on_stdout() {
    let output = run(&SERVER, &["--help"]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("usage:"));
}

#[test]
fn conflicting_flags_are_usage_errors() {
    let spool = scratch("conflict");
    let spool = spool.to_str().expect("utf-8 temp dir");
    let half = 0.5f64.to_bits().to_string();
    let worker = [
        "--bodies",
        "4",
        "--shard-index",
        "0",
        "--shard-start",
        "0",
        "--shard-end",
        "4",
        "--spool",
        spool,
    ];
    assert_usage(
        &WORKER,
        &[
            &worker[..],
            &["--horizon-s", "0.5", "--horizon-bits", &half],
        ]
        .concat(),
        &["--horizon-s", "--horizon-bits"],
    );
    let bits = 2.0f64.to_bits().to_string();
    assert_usage(
        &WORKER,
        &[
            &worker[..],
            &["--traffic-scale", "2", "--traffic-scale-bits", &bits],
        ]
        .concat(),
        &["--traffic-scale", "--traffic-scale-bits"],
    );
    assert_usage(
        &DRIVER,
        &[
            "--bodies",
            "8",
            "--horizon-s",
            "0.1",
            "--shards",
            "3",
            "--boundaries",
            "4",
            "--spool-root",
            spool,
        ],
        &["--shards", "--boundaries"],
    );
    assert_usage(
        &DRIVER,
        &[
            "--bodies",
            "4",
            "--horizon-s",
            "0.1",
            "--churn-policy",
            "hysteresis",
            "--spool-root",
            spool,
        ],
        &["--churn-policy", "--churn-rate"],
    );
    assert_usage(
        &SERVER,
        &["--no-cache", "--cache-capacity", "8"],
        &["--no-cache", "--cache-capacity"],
    );
    assert!(
        !std::path::Path::new(spool).exists(),
        "a refused invocation created {spool}"
    );
}

#[test]
fn the_retired_socket_flag_is_an_unknown_flag() {
    // The spool is the worker's only transport: a `--connect` is refused
    // before anything is folded or written.
    let dir = scratch("connect");
    std::fs::create_dir_all(&dir).expect("create an empty working directory");
    let args = "--bodies 4 --shard-index 0 --shard-start 0 --shard-end 4 --connect 127.0.0.1:1";
    let output = Command::new(WORKER.program)
        .args(args.split(' '))
        .current_dir(&dir)
        .output()
        .expect("run shard_worker");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let created = std::fs::read_dir(&dir).expect("list").count();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(r#"unknown flag "--connect""#), "{stderr}");
    assert!(output.stdout.is_empty() && created == 0, "the worker wrote");
}

#[test]
fn a_partial_blob_needs_an_injected_crash() {
    // `--fail-with-partial` only adds to `--fail-after-bodies`: alone it is
    // refused before anything is folded or published.
    let dir = scratch("partial");
    std::fs::create_dir_all(&dir).expect("create an empty working directory");
    let args = "--bodies 4 --shard-index 0 --shard-start 0 --shard-end 4 --spool spool \
                --fail-with-partial";
    let output = Command::new(WORKER.program)
        .args(args.split_whitespace())
        .current_dir(&dir)
        .output()
        .expect("run shard_worker");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let created = std::fs::read_dir(&dir).expect("list").count();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--fail-with-partial needs --fail-after-bodies"),
        "{stderr}"
    );
    assert!(output.stdout.is_empty() && created == 0, "the worker wrote");
}

#[test]
fn coordinators_check_the_horizon_before_spooling() {
    for bad in ["-1", "nan"] {
        let spool = scratch(&format!("horizon{bad}"));
        let root = spool.to_str().expect("utf-8 temp dir");
        let args = [
            "--bodies",
            "10",
            "--shards",
            "2",
            "--horizon-s",
            bad,
            "--spool-root",
            root,
        ];
        assert_usage(&DRIVER, &args, &["--horizon-s"]);
        assert!(!spool.exists(), "fleet_driver created {root}");
        let args = ["--bodies", "8", "--horizon-s", bad, "--spool", root];
        assert_usage(&SEARCH, &args, &["--horizon-s"]);
        assert!(!spool.exists(), "fleet_search created {root}");
    }
}
