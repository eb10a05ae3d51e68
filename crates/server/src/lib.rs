//! `ctxform-server` — a concurrent points-to query service with cached
//! analysis databases.
//!
//! Every other entry point in this workspace is batch and one-shot: each
//! caller pays a full solve even to answer a single points-to question.
//! This crate makes the analysis resident. A long-running daemon
//! ([`server::start`]) compiles MiniJava or parses fact files into program
//! databases keyed by content digest, solves them on demand under any
//! [`ctxform::AnalysisConfig`], and caches the solved
//! [`ctxform::AnalysisResult`]s behind `Arc` in a byte-budgeted LRU
//! ([`db::DbManager`]) — the serving-side analogue of value-context reuse:
//! answer repeated queries from previously computed results instead of
//! recomputing them. Cold context-insensitive queries can bypass the
//! exhaustive solver entirely through the demand-driven slice path
//! (`"demand": true` on `points_to`).
//!
//! The wire protocol ([`protocol`]) is newline-delimited JSON over TCP —
//! one request object per line, one reply object per line — implemented
//! with the in-tree reader/writer of [`json`] (the build environment is
//! offline; no serde). The serving core ([`server`]) feeds one bounded
//! job queue drained by a worker pool that shares one database manager
//! and one demand engine; the manager runs concurrent solves outside its
//! lock and coalesces duplicate ones. Clients may pipeline many requests
//! per connection (replies carry a verifiable `seq`) and batch thousands
//! of points-to queries into one `points_to_batch` round-trip. Overload
//! is rejected explicitly with an `overloaded` reply rather than absorbed
//! into unbounded growth, oversized request lines get a typed
//! `too_large` error without unbounded buffering, every request carries a
//! deadline, and shutdown drains in-flight requests. [`metrics`] exposes
//! per-endpoint request counts, latency min/mean/max, bytes served, and
//! cache hit rates via the `stats` endpoint, plus Prometheus series via
//! `metrics`.
//!
//! Two binaries ship with the crate: `ctxform-serve` (the daemon) and
//! `ctxform-client` (one-shot queries plus a `loadgen` mode writing a
//! `BENCH_<n>.json`-style serving-performance artifact).
//!
//! ```
//! use ctxform_server::{client::Client, json::Json, server};
//!
//! let handle = server::start(server::ServerConfig::default())?;
//! let mut client = Client::connect(handle.addr())?;
//! let digest = client.load_source(ctxform_minijava::corpus::BOX)?;
//! let reply = client.request(&Json::obj([
//!     ("op", Json::str("points_to")),
//!     ("program", Json::str(digest)),
//!     ("abstraction", Json::str("tstring")),
//!     ("sensitivity", Json::str("2-object+H")),
//!     ("method", Json::str("Main.main")),
//!     ("var", Json::str("r1")),
//! ]))?;
//! assert_eq!(reply.get("heaps").unwrap().as_arr().unwrap().len(), 1);
//! handle.shutdown();
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod db;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod protocol;
mod queue;
pub mod server;
pub mod tail;

pub use client::{loadgen, Client, ClientError, LoadGenConfig, LoadReport, TraceSampleStats};
pub use db::DbManager;
pub use json::Json;
pub use profile::ProfileStore;
pub use protocol::{ErrorCode, ProtoError, Request};
pub use server::{start, ServerConfig, ServerHandle};
pub use tail::{Exemplar, ExemplarStore, FlightRecorder, EXEMPLARS_PER_ENDPOINT};
