//! Command-line contract of the `ctxform-serve` binary: the retired
//! `--shards` and `--solver-threads` flags accept only `1`, bad numbers
//! are rejected instead of wrapping, and the exact argument list the
//! `ctxbench` benchmark crate starts the daemon with still serves.

use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ctxform_minijava::corpus;
use ctxform_server::client::Client;
use ctxform_server::json::Json;

/// Starts `ctxform-serve` with `args` and requires it to exit non-zero
/// (rather than serve) with `needle` on stderr.
fn refuses(args: &[&str], needle: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ctxform-serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    // A server that accepted the flags would serve until shut down.
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill child");
            let _ = child.wait();
            panic!("{args:?} started a server");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    assert!(!out.status.success(), "{args:?} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn solver_threads_other_than_one_exits_with_usage() {
    for value in ["2", "0"] {
        refuses(
            &["--port", "0", "--solver-threads", value],
            "usage: ctxform-serve",
        );
    }
}

#[test]
fn shards_other_than_one_exits_with_usage() {
    for value in ["2", "0"] {
        refuses(&["--port", "0", "--shards", value], "usage: ctxform-serve");
    }
}

#[test]
fn replicate_hot_is_an_unknown_argument() {
    refuses(
        &["--port", "0", "--replicate-hot", "4"],
        "unknown argument `--replicate-hot`",
    );
}

/// Numbers that do not fit their setting are rejected by flag name
/// rather than truncated: port 70000 would wrap to 4464, and
/// 2^44 MiB shifted to bytes would wrap to a zero cache budget.
#[test]
fn out_of_range_numbers_are_rejected_not_wrapped() {
    refuses(&["--port", "70000"], "--port");
    refuses(
        &["--port", "0", "--cache-mb", "17592186044416"],
        "--cache-mb",
    );
}

#[test]
fn ctxbench_argument_list_starts_and_serves() {
    let port_file =
        std::env::temp_dir().join(format!("ctxform-serve-cli-{}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ctxform-serve"))
        .args([
            "--port",
            "0",
            "--shards",
            "1",
            "--threads",
            "1",
            "--solver-threads",
            "1",
        ])
        .arg("--port-file")
        .arg(&port_file)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    let port: u16 = loop {
        let written = std::fs::read_to_string(&port_file).unwrap_or_default();
        if let Ok(port) = written.trim().parse() {
            break port;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("ctxform-serve exited early: {status}");
        }
        assert!(Instant::now() < deadline, "no port file within 30 s");
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut client = Client::connect(SocketAddr::from(([127, 0, 0, 1], port))).expect("connect");
    let digest = client.load_source(corpus::BOX).expect("load");
    let reply = client
        .request(&Json::obj([
            ("op", Json::str("reachable")),
            ("program", Json::str(&digest)),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str("1-call")),
            ("threads", Json::int(1)),
        ]))
        .expect("reachable");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply.to_line()
    );
    client
        .request(&Json::obj([("op", Json::str("shutdown"))]))
        .expect("shutdown");
    assert!(child.wait().expect("child exits").success());
    let _ = std::fs::remove_file(&port_file);
}
