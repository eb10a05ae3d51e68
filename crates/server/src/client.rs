//! A blocking client for the wire protocol — including request
//! pipelining with `seq` verification — plus the `loadgen` harness that
//! drives N concurrent connections (optionally pipelined and batched) and
//! reports throughput and nearest-rank latency percentiles per op.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::db::program_digest;
use crate::json::Json;
use crate::protocol::{digest_str, ProtoError};

/// A client-side failure: transport, malformed reply, or a server error
/// reply.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's reply line was not valid JSON (or, for pipelined
    /// requests, carried the wrong `seq`).
    BadReply(String),
    /// The server answered `"ok": false`.
    Server(ProtoError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::BadReply(line) => write!(f, "malformed reply: {line}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection speaking newline-delimited JSON. The client counts the
/// requests it has written, so pipelined replies can be checked against
/// the server-stamped `seq` (1-based request index per connection).
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests written on this connection so far (= the `seq` the server
    /// assigned to the most recent one).
    sent: u64,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            sent: 0,
        })
    }

    /// Sends one request object and reads one reply object.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a malformed reply line; an
    /// `"ok": false` reply becomes [`ClientError::Server`].
    pub fn request(&mut self, body: &Json) -> Result<Json, ClientError> {
        let mut line = body.to_line();
        line.push('\n');
        self.request_line(&line)
    }

    /// Sends a raw request line (must be newline-terminated JSON).
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::request`].
    pub fn request_line(&mut self, line: &str) -> Result<Json, ClientError> {
        self.send_line(line)?;
        let reply = self.read_line()?;
        let value = Json::parse(reply.trim()).map_err(|_| ClientError::BadReply(reply.clone()))?;
        match value.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(value),
            Some(false) => Err(ClientError::Server(ProtoError::new(
                crate::protocol::ErrorCode::Internal,
                format!(
                    "{}: {}",
                    value.get("error").and_then(Json::as_str).unwrap_or("?"),
                    value.get("message").and_then(Json::as_str).unwrap_or(""),
                ),
            ))),
            None => Err(ClientError::BadReply(reply)),
        }
    }

    /// Like [`Client::request`] but returns the parsed reply even when
    /// `"ok"` is `false` (for tests asserting error codes).
    pub fn request_raw(&mut self, line: &str) -> Result<Json, ClientError> {
        self.send_line(line)?;
        self.read_reply()
    }

    /// Writes one request line without reading its reply — the pipelining
    /// primitive. Replies arrive in request order and are read with
    /// [`Client::read_reply`].
    ///
    /// # Errors
    ///
    /// Propagates the transport failure.
    pub fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        self.stream.write_all(line.as_bytes())?;
        self.sent += 1;
        Ok(())
    }

    /// Reads one reply line even though no request round-trip is pending
    /// (pipelined replies, or overload/shutdown rejections written at
    /// accept time).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unparsable line.
    pub fn read_reply(&mut self) -> Result<Json, ClientError> {
        let reply = self.read_line()?;
        Json::parse(reply.trim()).map_err(|_| ClientError::BadReply(reply))
    }

    /// The `seq` the server will stamp on the reply to the *next* request
    /// written on this connection.
    pub fn next_seq(&self) -> u64 {
        self.sent + 1
    }

    /// Pipelines `bodies`: writes every request line back-to-back, then
    /// reads one reply per request, verifying that each reply's `seq`
    /// matches its request's position. Replies are returned positionally
    /// (including `"ok": false` ones — callers inspect them).
    ///
    /// # Errors
    ///
    /// Fails on transport errors, an unparsable reply line, or a reply
    /// whose `seq` is missing or out of order.
    pub fn pipeline(&mut self, bodies: &[Json]) -> Result<Vec<Json>, ClientError> {
        let first = self.sent + 1;
        let mut burst = String::new();
        for body in bodies {
            burst.push_str(&body.to_line());
            burst.push('\n');
        }
        self.stream.write_all(burst.as_bytes())?;
        self.sent += bodies.len() as u64;
        let mut replies = Vec::with_capacity(bodies.len());
        for i in 0..bodies.len() {
            let reply = self.read_reply()?;
            let expect = first + i as u64;
            if reply.get("seq").and_then(Json::as_u64) != Some(expect) {
                return Err(ClientError::BadReply(format!(
                    "pipelined reply {i} should carry seq {expect}: {}",
                    reply.to_line()
                )));
            }
            replies.push(reply);
        }
        Ok(replies)
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(String::from_utf8_lossy(&line).into_owned());
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a full reply line",
                )));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Loads MiniJava source, returning the program digest.
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::request`].
    pub fn load_source(&mut self, source: &str) -> Result<String, ClientError> {
        let reply = self.request(&Json::obj([
            ("op", Json::str("load_source")),
            ("source", Json::str(source)),
        ]))?;
        reply
            .get("program")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::BadReply(reply.to_line()))
    }
}

/// The nearest-rank percentile of a **sorted** slice: the value at rank
/// `⌈p·N⌉` (1-based), the smallest element with at least `p·N` elements at
/// or below it. `p` is a fraction in `[0, 1]`; `p = 0` yields the minimum
/// and `p = 1` the maximum. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency percentiles of one sample population, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Slowest sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes a **sorted** population of nanosecond samples.
    fn from_sorted_ns(sorted: &[u64]) -> Self {
        let ms = |p| percentile(sorted, p) as f64 / 1e6;
        LatencySummary {
            p50: ms(0.50),
            p90: ms(0.90),
            p95: ms(0.95),
            p99: ms(0.99),
            max: ms(1.0),
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("p50", Json::ms(self.p50)),
            ("p90", Json::ms(self.p90)),
            ("p95", Json::ms(self.p95)),
            ("p99", Json::ms(self.p99)),
            ("max", Json::ms(self.max)),
        ])
    }
}

/// Parameters of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Concurrent connections.
    pub connections: usize,
    /// Requests each connection keeps in flight (1 = classic
    /// request/reply lockstep; higher values pipeline).
    pub pipeline: usize,
    /// Variables per `points_to_batch` request added to the mix (0 =
    /// classic mix without batch ops).
    pub batch: usize,
    /// How long to drive traffic.
    pub duration: Duration,
    /// Sensitivity label for the context-sensitive queries.
    pub sensitivity: String,
    /// Which mix to drive: `"mix"` (the classic rotating mix) or
    /// `"query"` (demand-driven `query` / `query_batch` requests only).
    pub op: String,
    /// Stamp every Nth request per connection with a client trace id
    /// (`0` = off). Traced replies carry the server-side `took_us`, so
    /// the report can split client-observed latency into server time vs
    /// everything else (network, client stack, reply-queue skew).
    pub trace_sample: usize,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            connections: 8,
            pipeline: 1,
            batch: 0,
            duration: Duration::from_secs(2),
            sensitivity: "2-object+H".into(),
            op: "mix".into(),
            trace_sample: 0,
        }
    }
}

/// Per-op latency breakdown of a load-generation run.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Completed requests of this op.
    pub count: u64,
    /// Latency percentiles of this op's samples.
    pub latency_ms: LatencySummary,
}

/// Client-vs-server latency attribution from traced loadgen samples.
#[derive(Debug, Clone)]
pub struct TraceSampleStats {
    /// Every Nth request per connection carried a client trace id.
    pub every: usize,
    /// Traced requests that completed with a server `took_us`.
    pub sampled: u64,
    /// Client-observed latency of the traced samples.
    pub client_ms: LatencySummary,
    /// Server-reported (`took_us`) latency of the same samples.
    pub server_ms: LatencySummary,
    /// Per-sample client-minus-server delta: the share of latency the
    /// server never saw (network, client stack, reply-queue skew).
    pub overhead_ms: LatencySummary,
}

impl TraceSampleStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("every", Json::int(self.every)),
            ("sampled", Json::uint(self.sampled)),
            ("client_latency_ms", self.client_ms.to_json()),
            ("server_latency_ms", self.server_ms.to_json()),
            ("overhead_ms", self.overhead_ms.to_json()),
        ])
    }
}

/// The aggregated outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections driven.
    pub connections: usize,
    /// Pipeline depth each connection sustained.
    pub pipeline: usize,
    /// Variables per batch request (0 = no batch ops in the mix).
    pub batch: usize,
    /// Wall-clock duration of the drive phase.
    pub elapsed: Duration,
    /// Completed wire requests.
    pub requests: u64,
    /// Completed logical queries (a batch request of K variables counts
    /// K; every other request counts 1).
    pub queries: u64,
    /// Requests that failed (transport, `"ok": false`, or seq mismatch).
    pub errors: u64,
    /// Latency percentiles across every request.
    pub latency_ms: LatencySummary,
    /// Per-op breakdown, sorted by op name.
    pub per_op: Vec<(String, OpStats)>,
    /// Client-vs-server latency attribution, when `trace_sample` was on.
    pub trace_sample: Option<TraceSampleStats>,
}

impl LoadReport {
    /// Wire requests per second over the drive phase.
    pub fn throughput(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Logical queries per second over the drive phase (differs from
    /// [`LoadReport::throughput`] only when batching is on).
    pub fn query_throughput(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The `BENCH_<n>.json`-style artifact body.
    pub fn to_json(&self, server_stats: Option<&Json>) -> Json {
        let per_op: Vec<(String, Json)> = self
            .per_op
            .iter()
            .map(|(op, stats)| {
                (
                    op.clone(),
                    Json::obj([
                        ("count", Json::uint(stats.count)),
                        ("latency_ms", stats.latency_ms.to_json()),
                    ]),
                )
            })
            .collect();
        let mut pairs = vec![
            ("schema", Json::str("ctxform-serve-bench/2")),
            ("connections", Json::int(self.connections)),
            ("pipeline", Json::int(self.pipeline)),
            ("batch", Json::int(self.batch)),
            ("elapsed_ms", Json::ms(self.elapsed.as_secs_f64() * 1000.0)),
            ("requests", Json::uint(self.requests)),
            ("queries", Json::uint(self.queries)),
            ("errors", Json::uint(self.errors)),
            ("throughput_rps", Json::ms(self.throughput())),
            ("throughput_qps", Json::ms(self.query_throughput())),
            ("latency_ms", self.latency_ms.to_json()),
            ("per_op", Json::Obj(per_op)),
        ];
        if let Some(ts) = &self.trace_sample {
            pairs.push(("trace_sample", ts.to_json()));
        }
        if let Some(stats) = server_stats {
            pairs.push(("server", stats.clone()));
        }
        Json::obj(pairs)
    }
}

/// One request of the rotating loadgen mix: the op label (for the per-op
/// breakdown), the pre-rendered request line, and how many logical
/// queries the request answers.
struct MixEntry {
    op: &'static str,
    line: String,
    queries: u64,
}

fn render(body: Json) -> String {
    let mut line = body.to_line();
    line.push('\n');
    line
}

/// The rotating query mix each loadgen connection drives: per program an
/// `analyze` (cache warm-up on first touch), point queries that exercise
/// the cache, and — when `batch > 0` — one `points_to_batch` carrying
/// `batch` variable queries; plus one `stats` per rotation.
fn query_mix(
    digests: &[String],
    vars_by_digest: &HashMap<String, Vec<(String, String)>>,
    sensitivity: &str,
    batch: usize,
    op: &str,
) -> Vec<MixEntry> {
    if op == "query" {
        return demand_mix(digests, vars_by_digest, sensitivity, batch);
    }
    let mut mix = Vec::new();
    for digest in digests {
        mix.push(MixEntry {
            op: "analyze",
            line: render(Json::obj([
                ("op", Json::str("analyze")),
                ("program", Json::str(digest.clone())),
                ("abstraction", Json::str("tstring")),
                ("sensitivity", Json::str(sensitivity)),
            ])),
            queries: 1,
        });
        mix.push(MixEntry {
            op: "reachable",
            line: render(Json::obj([
                ("op", Json::str("reachable")),
                ("program", Json::str(digest.clone())),
            ])),
            queries: 1,
        });
        mix.push(MixEntry {
            op: "call_edges",
            line: render(Json::obj([
                ("op", Json::str("call_edges")),
                ("program", Json::str(digest.clone())),
                ("abstraction", Json::str("tstring")),
                ("sensitivity", Json::str(sensitivity)),
            ])),
            queries: 1,
        });
        if batch > 0 {
            if let Some(vars) = vars_by_digest.get(digest).filter(|v| !v.is_empty()) {
                // Cycle the program's variables to fill the batch.
                let items: Vec<Json> = (0..batch)
                    .map(|i| {
                        let (method, var) = &vars[i % vars.len()];
                        Json::obj([
                            ("method", Json::str(method.clone())),
                            ("var", Json::str(var.clone())),
                        ])
                    })
                    .collect();
                mix.push(MixEntry {
                    op: "points_to_batch",
                    line: render(Json::obj([
                        ("op", Json::str("points_to_batch")),
                        ("program", Json::str(digest.clone())),
                        ("abstraction", Json::str("tstring")),
                        ("sensitivity", Json::str(sensitivity)),
                        ("vars", Json::Arr(items)),
                    ])),
                    queries: batch as u64,
                });
            }
        }
    }
    mix.push(MixEntry {
        op: "stats",
        line: render(Json::obj([("op", Json::str("stats"))])),
        queries: 1,
    });
    mix
}

/// The demand-only mix (`--op query`): per program one `query` per
/// variable (cycled), plus — when `batch > 0` — one `query_batch`
/// carrying `batch` variables. No `analyze` warm-up, so every answer
/// exercises the demand slice rather than a cached database.
fn demand_mix(
    digests: &[String],
    vars_by_digest: &HashMap<String, Vec<(String, String)>>,
    sensitivity: &str,
    batch: usize,
) -> Vec<MixEntry> {
    let mut mix = Vec::new();
    for digest in digests {
        let Some(vars) = vars_by_digest.get(digest).filter(|v| !v.is_empty()) else {
            continue;
        };
        for (method, var) in vars.iter().take(4) {
            mix.push(MixEntry {
                op: "query",
                line: render(Json::obj([
                    ("op", Json::str("query")),
                    ("program", Json::str(digest.clone())),
                    ("abstraction", Json::str("tstring")),
                    ("sensitivity", Json::str(sensitivity)),
                    ("method", Json::str(method.clone())),
                    ("var", Json::str(var.clone())),
                ])),
                queries: 1,
            });
        }
        if batch > 0 {
            let items: Vec<Json> = (0..batch)
                .map(|i| {
                    let (method, var) = &vars[i % vars.len()];
                    Json::obj([
                        ("method", Json::str(method.clone())),
                        ("var", Json::str(var.clone())),
                    ])
                })
                .collect();
            mix.push(MixEntry {
                op: "query_batch",
                line: render(Json::obj([
                    ("op", Json::str("query_batch")),
                    ("program", Json::str(digest.clone())),
                    ("abstraction", Json::str("tstring")),
                    ("sensitivity", Json::str(sensitivity)),
                    ("vars", Json::Arr(items)),
                ])),
                queries: batch as u64,
            });
        }
    }
    mix
}

/// What one loadgen connection thread brings home.
struct WorkerOutcome {
    /// `(mix op, latency ns)` per completed request.
    samples: Vec<(&'static str, u64)>,
    queries: u64,
    /// `(client ns, server us)` per traced request that came back with a
    /// `took_us`.
    trace_pairs: Vec<(u64, u64)>,
}

/// Stamps a client trace id onto a pre-rendered request line by splicing
/// a `"trace"` member right after the opening brace.
fn stamp_trace(line: &str, trace: &str) -> String {
    line.replacen('{', &format!("{{\"trace\": \"{trace}\", "), 1)
}

/// Drives `config.connections` concurrent connections against `addr` for
/// `config.duration`, each keeping `config.pipeline` requests in flight,
/// after loading the MiniJava corpus programs through one setup
/// connection. Every reply's `seq` is verified against its request's
/// position; mismatches count as errors.
///
/// # Errors
///
/// Fails if the setup connection cannot load the corpus (or a server
/// digest disagrees with the locally compiled program); per-request
/// failures during the drive phase are counted in the report instead.
pub fn loadgen(addr: SocketAddr, config: &LoadGenConfig) -> Result<LoadReport, ClientError> {
    // Setup: load every corpus program once so the drive phase queries
    // warm, shared databases, and compile the same sources locally to
    // enumerate variables for batch queries (also cross-checking that the
    // server's digest matches the local compile).
    let mut digests = Vec::new();
    let mut vars_by_digest: HashMap<String, Vec<(String, String)>> = HashMap::new();
    {
        let mut setup = Client::connect(addr)?;
        for (name, source) in ctxform_minijava::corpus::all() {
            let digest = setup.load_source(source)?;
            let program = ctxform_minijava::compile(source)
                .map_err(|e| ClientError::BadReply(format!("local compile of {name}: {e}")))?
                .program;
            let local = digest_str(program_digest(&program));
            if local != digest {
                return Err(ClientError::BadReply(format!(
                    "digest mismatch for {name}: server {digest}, local {local}"
                )));
            }
            let vars: Vec<(String, String)> = (0..program.var_count())
                .map(|i| {
                    (
                        program.method_names[program.var_method[i].index()].clone(),
                        program.var_names[i].clone(),
                    )
                })
                .collect();
            vars_by_digest.insert(digest.clone(), vars);
            digests.push(digest);
        }
    }
    let mix = Arc::new(query_mix(
        &digests,
        &vars_by_digest,
        &config.sensitivity,
        config.batch,
        &config.op,
    ));

    let total_requests = Arc::new(AtomicU64::new(0));
    let total_errors = Arc::new(AtomicU64::new(0));
    let depth = config.pipeline.max(1);
    let trace_every = config.trace_sample;
    let started = Instant::now();
    let deadline = started + config.duration;
    let mut handles = Vec::new();
    for worker in 0..config.connections.max(1) {
        let mix = mix.clone();
        let total_requests = total_requests.clone();
        let total_errors = total_errors.clone();
        handles.push(std::thread::spawn(move || -> WorkerOutcome {
            let mut outcome = WorkerOutcome {
                samples: Vec::new(),
                queries: 0,
                trace_pairs: Vec::new(),
            };
            let Ok(mut client) = Client::connect(addr) else {
                total_errors.fetch_add(1, Ordering::Relaxed);
                return outcome;
            };
            // Stagger the starting query so connections do not convoy.
            let mut next = worker % mix.len();
            let mut sent_count: u64 = 0;
            // In-flight requests, oldest first:
            // (mix index, sent-at, seq, carried a trace id).
            let mut inflight: VecDeque<(usize, Instant, u64, bool)> = VecDeque::new();
            let mut read_one = |client: &mut Client,
                                inflight: &mut VecDeque<(usize, Instant, u64, bool)>|
             -> bool {
                let Some((mix_idx, sent, seq, traced)) = inflight.pop_front() else {
                    return false;
                };
                let entry = &mix[mix_idx];
                match client.read_reply() {
                    Ok(reply) => {
                        let seq_ok = reply.get("seq").and_then(Json::as_u64) == Some(seq);
                        if seq_ok && reply.get("ok").and_then(Json::as_bool) == Some(true) {
                            let client_ns = sent.elapsed().as_nanos() as u64;
                            outcome.samples.push((entry.op, client_ns));
                            outcome.queries += entry.queries;
                            if traced {
                                if let Some(took_us) = reply.get("took_us").and_then(Json::as_u64) {
                                    outcome.trace_pairs.push((client_ns, took_us));
                                }
                            }
                            total_requests.fetch_add(1, Ordering::Relaxed);
                            true
                        } else {
                            total_errors.fetch_add(1, Ordering::Relaxed);
                            seq_ok // an ordered error reply leaves the connection usable
                        }
                    }
                    Err(_) => {
                        total_errors.fetch_add(1, Ordering::Relaxed);
                        false
                    }
                }
            };
            'drive: while Instant::now() < deadline {
                // Keep the pipeline full...
                while inflight.len() < depth {
                    let seq = client.next_seq();
                    let traced = trace_every > 0 && sent_count.is_multiple_of(trace_every as u64);
                    let sent_ok = if traced {
                        let trace = format!("lg-{worker}-{sent_count}");
                        client
                            .send_line(&stamp_trace(&mix[next].line, &trace))
                            .is_ok()
                    } else {
                        client.send_line(&mix[next].line).is_ok()
                    };
                    if !sent_ok {
                        total_errors.fetch_add(1, Ordering::Relaxed);
                        break 'drive;
                    }
                    sent_count += 1;
                    inflight.push_back((next, Instant::now(), seq, traced));
                    next = (next + 1) % mix.len();
                }
                // ...and retire the oldest reply.
                if !read_one(&mut client, &mut inflight) {
                    break 'drive;
                }
            }
            // Drain whatever is still in flight past the deadline.
            while !inflight.is_empty() && read_one(&mut client, &mut inflight) {}
            outcome
        }));
    }
    let mut samples: Vec<(&'static str, u64)> = Vec::new();
    let mut queries = 0u64;
    let mut trace_pairs: Vec<(u64, u64)> = Vec::new();
    for handle in handles {
        if let Ok(outcome) = handle.join() {
            samples.extend(outcome.samples);
            queries += outcome.queries;
            trace_pairs.extend(outcome.trace_pairs);
        }
    }
    let elapsed = started.elapsed();
    let mut all_ns: Vec<u64> = samples.iter().map(|&(_, ns)| ns).collect();
    all_ns.sort_unstable();
    let mut by_op: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (op, ns) in &samples {
        by_op.entry(op).or_default().push(*ns);
    }
    let per_op: Vec<(String, OpStats)> = by_op
        .into_iter()
        .map(|(op, mut ns)| {
            ns.sort_unstable();
            (
                op.to_owned(),
                OpStats {
                    count: ns.len() as u64,
                    latency_ms: LatencySummary::from_sorted_ns(&ns),
                },
            )
        })
        .collect();
    let trace_sample = (trace_every > 0).then(|| {
        let mut client_ns: Vec<u64> = trace_pairs.iter().map(|&(c, _)| c).collect();
        let mut server_ns: Vec<u64> = trace_pairs.iter().map(|&(_, us)| us * 1_000).collect();
        let mut overhead_ns: Vec<u64> = trace_pairs
            .iter()
            .map(|&(c, us)| c.saturating_sub(us * 1_000))
            .collect();
        client_ns.sort_unstable();
        server_ns.sort_unstable();
        overhead_ns.sort_unstable();
        TraceSampleStats {
            every: trace_every,
            sampled: trace_pairs.len() as u64,
            client_ms: LatencySummary::from_sorted_ns(&client_ns),
            server_ms: LatencySummary::from_sorted_ns(&server_ns),
            overhead_ms: LatencySummary::from_sorted_ns(&overhead_ns),
        }
    });
    Ok(LoadReport {
        connections: config.connections,
        pipeline: depth,
        batch: config.batch,
        elapsed,
        requests: total_requests.load(Ordering::Relaxed),
        queries,
        errors: total_errors.load(Ordering::Relaxed),
        latency_ms: LatencySummary::from_sorted_ns(&all_ns),
        per_op,
        trace_sample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Wikipedia nearest-rank worked example: for
    /// `[15, 20, 35, 40, 50]`, P30 = 20, P40 = 20, P50 = 35, P100 = 50.
    #[test]
    fn nearest_rank_matches_the_worked_example() {
        let v = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&v, 0.30), 20);
        assert_eq!(percentile(&v, 0.40), 20);
        assert_eq!(percentile(&v, 0.50), 35);
        assert_eq!(percentile(&v, 1.00), 50);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), 0, "empty population");
        assert_eq!(percentile(&[7], 0.0), 7, "p0 is the minimum");
        assert_eq!(percentile(&[7], 1.0), 7);
        let v = [1, 2];
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.50), 1, "rank ⌈0.5·2⌉ = 1");
        assert_eq!(percentile(&v, 0.51), 2, "rank ⌈0.51·2⌉ = 2");
        // p99 of a large uniform population sits at index ⌈0.99·1000⌉-1.
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 0.99), 990);
        assert_eq!(percentile(&big, 0.999), 999);
    }

    #[test]
    fn stamp_trace_splices_after_the_opening_brace() {
        let line = "{\"op\": \"stats\"}\n";
        let stamped = stamp_trace(line, "lg-0-7");
        assert_eq!(stamped, "{\"trace\": \"lg-0-7\", \"op\": \"stats\"}\n");
        let parsed = Json::parse(stamped.trim()).expect("stamped line stays valid JSON");
        assert_eq!(parsed.get("trace").and_then(Json::as_str), Some("lg-0-7"));
        assert_eq!(parsed.get("op").and_then(Json::as_str), Some("stats"));
    }

    #[test]
    fn summary_converts_to_milliseconds() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect(); // 1..=100 ms
        let s = LatencySummary::from_sorted_ns(&ns);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
    }
}
