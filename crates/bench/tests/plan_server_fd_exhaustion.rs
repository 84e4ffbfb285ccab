//! `plan_server` under file-descriptor exhaustion: with `ulimit -n 40` and
//! 80 connected clients the reactor cannot accept everyone.  The failed
//! accepts (`EMFILE`) leave the level-triggered listener readable; the
//! event loops must not spin on it, must answer again once descriptors
//! free up, and must still shut down cleanly over the wire.
#![cfg(target_os = "linux")]

use hidwa_core::serve::codec::ProjectionRequest;
use hidwa_core::serve::{PlanClient, Request, Response};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kills the server if the test fails before the wire shutdown.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// User plus system CPU time of process `pid`, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("process stat");
    // The fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("command name") + 2..]
        .split(' ')
        .collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
fn accept_errors_do_not_spin_the_reactor() {
    let mut server = Server(
        Command::new("sh")
            .arg("-c")
            .arg("ulimit -n 40; exec \"$0\" --threads 2")
            .arg(env!("CARGO_BIN_EXE_plan_server"))
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn plan_server"),
    );
    // Held open until the server exits: its final summary goes here.
    let mut stdout = BufReader::new(server.0.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("listening line")
        .parse()
        .expect("address");

    let clients: Vec<TcpStream> = (0..80)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_ticks(server.0.id());
    std::thread::sleep(Duration::from_secs(2));
    let spent = cpu_ticks(server.0.id()) - before;
    assert!(
        spent < 20,
        "the reactor used {spent} CPU ticks in 2 s while out of descriptors"
    );

    drop(clients);
    let mut client = PlanClient::connect(addr)
        .and_then(|client| client.with_timeout(Duration::from_secs(10)))
        .expect("connect a fresh client");
    let answer = client
        .ask(Request::Projection(ProjectionRequest { rate_bps: 4000.0 }))
        .expect("answered once descriptors free up");
    assert!(matches!(answer, Response::Projection(_)), "{answer:?}");
    client.shutdown().expect("wire shutdown");
    let status = server.0.wait().expect("server exit");
    assert!(status.success(), "plan_server exited with {status}");
}
