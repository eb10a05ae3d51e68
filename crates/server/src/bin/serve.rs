//! `ctxform-serve` — the analysis daemon.
//!
//! ```text
//! ctxform-serve [--port N] [--shards 1] [--threads N] [--solver-threads 1]
//!               [--queue N] [--max-conns N] [--cache-mb N]
//!               [--deadline-ms N] [--slow-ms N]
//!               [--trace N] [--flight-file PATH]
//!               [--log-level LEVEL] [--port-file PATH]
//! ```
//!
//! `--threads` sets the worker count (default: one per core, at most 8);
//! the workers drain one bounded job queue (`--queue`) and share one
//! program cache of `--cache-mb` MiB (default 48). The cache holds one
//! entry per program digest — the program, its demand index, and its
//! solved results and extendable databases — and evicts whole entries,
//! least recently used first, past the budget; an evicted digest answers
//! `unknown_program` until it is loaded again. `--max-conns` bounds concurrent
//! connections. Results are bit-identical for every worker count, so
//! these flags only affect latency and throughput, never answers.
//! `--shards` and `--solver-threads` accept only `1`, because the
//! `ctxbench` benchmark crate passes them: the server has one serving
//! tier and the solver is serial. Any other value exits with the usage
//! error.
//!
//! Observability: `--slow-ms N` logs every request slower than `N`
//! milliseconds (with its trace id) at `WARN`; `--trace N` enables the
//! in-process trace ring with capacity `N` records (`0` keeps tracing
//! off), queryable via the `trace` op; every solve is profiled for the
//! `profile` op (results are bit-identical to an unprofiled solve);
//! `--flight-file PATH` arms the flight
//! recorder, which dumps the trace ring and the queue depth to `PATH`
//! when a request busts its deadline or the process panics;
//! `--log-level` filters the structured stderr log
//! (`debug`/`info`/`warn`/`error`). The `metrics` op serves a Prometheus
//! text exposition regardless of these flags.
//!
//! Binds 127.0.0.1 (`--port 0` picks an ephemeral port and `--port-file`
//! writes the chosen port for scripts), serves until a client sends the
//! `shutdown` op, then drains in-flight requests and logs the final
//! per-endpoint and cache statistics to stderr.

use std::time::Duration;

use ctxform_obs::logger::{self, Level};
use ctxform_server::server::{start, ServerConfig};

const USAGE: &str = "usage: ctxform-serve [--port N] [--shards 1] [--threads N] \
                     [--solver-threads 1] [--queue N] [--max-conns N] \
                     [--cache-mb N] [--deadline-ms N] [--slow-ms N] \
                     [--trace N] [--flight-file PATH] \
                     [--log-level LEVEL] [--port-file PATH]";

fn main() {
    let mut config = ServerConfig {
        port: 7411,
        ..ServerConfig::default()
    };
    let mut port_file: Option<String> = None;
    let mut trace_capacity: usize = 0;
    let mut args = std::env::args().skip(1);
    fn num(args: &mut impl Iterator<Item = String>, name: &str) -> u64 {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} needs a non-negative integer"))
    }
    // Flags kept only because `ctxbench` passes them; `1` is their one
    // accepted value.
    fn only_one(args: &mut impl Iterator<Item = String>, name: &str, why: &str) {
        if num(args, name) != 1 {
            eprintln!("{name} accepts only 1: {why}\n{USAGE}");
            std::process::exit(2);
        }
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => {
                config.port = u16::try_from(num(&mut args, "--port"))
                    .expect("--port needs an integer in 0..=65535")
            }
            "--shards" => only_one(&mut args, "--shards", "the server has one serving tier"),
            "--threads" => config.threads = (num(&mut args, "--threads") as usize).max(1),
            "--max-conns" => {
                config.max_connections = (num(&mut args, "--max-conns") as usize).max(1)
            }
            "--solver-threads" => only_one(&mut args, "--solver-threads", "the solver is serial"),
            "--queue" => config.queue_depth = (num(&mut args, "--queue") as usize).max(1),
            "--cache-mb" => {
                config.cache_bytes = usize::try_from(num(&mut args, "--cache-mb"))
                    .ok()
                    .and_then(|mb| mb.checked_mul(1 << 20))
                    .expect("--cache-mb is too large for this platform")
            }
            "--deadline-ms" => {
                config.deadline = Duration::from_millis(num(&mut args, "--deadline-ms"))
            }
            "--slow-ms" => config.slow_query_ms = num(&mut args, "--slow-ms"),
            "--trace" => trace_capacity = num(&mut args, "--trace") as usize,
            "--flight-file" => {
                config.flight_path = Some(args.next().expect("--flight-file needs a path").into())
            }
            "--log-level" => {
                let level = args.next().expect("--log-level needs a level");
                logger::set_level(match level.as_str() {
                    "debug" => Level::Debug,
                    "info" => Level::Info,
                    "warn" => Level::Warn,
                    "error" => Level::Error,
                    other => panic!("unknown log level `{other}`"),
                });
            }
            "--port-file" => port_file = Some(args.next().expect("--port-file needs a path")),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    if trace_capacity > 0 {
        ctxform_obs::enable_tracing(trace_capacity);
    }

    let handle =
        start(config.clone()).unwrap_or_else(|e| panic!("cannot bind port {}: {e}", config.port));
    let addr = handle.addr();
    logger::info(
        "ctxform-serve",
        format!(
            "listening on {addr} ({} workers, queue {}, cache {} MiB, deadline {:?}, slow-query {} ms, trace ring {}, flight {})",
            config.threads,
            config.queue_depth,
            config.cache_bytes >> 20,
            config.deadline,
            config.slow_query_ms,
            if trace_capacity == 0 {
                "off".to_owned()
            } else {
                format!("{trace_capacity} records")
            },
            match &config.flight_path {
                Some(path) => path.display().to_string(),
                None => "off".to_owned(),
            },
        ),
    );
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", addr.port()))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
    // Blocks until a client sends `shutdown`; the join return value is the
    // shutdown-time observability report.
    let report = handle.join();
    for line in report.lines() {
        logger::info("ctxform-serve", line);
    }
    logger::info("ctxform-serve", "drained and stopped");
}
