//! The serving core: a `TcpListener` accept loop spawning one
//! reader/writer thread pair per connection, feeding one bounded job
//! queue drained by a pool of [`ServerConfig::threads`] workers.
//!
//! Requests carrying a program digest are queued and run by a worker
//! against the server's one [`DbManager`] and one [`DemandEngine`]; cheap
//! control ops (`load_*`, `stats`, `metrics`, `trace`, `shutdown`) run
//! inline on the connection's reader thread. Clients may pipeline: many
//! request lines can be written before any reply is read, and every reply
//! carries the per-connection `seq` so order is verifiable. The writer
//! thread drains an in-order slot queue, so replies come back in request
//! order even though workers complete out of order.
//!
//! Overload is rejected explicitly at two levels: a full job queue sheds
//! that request with a typed `overloaded` reply (the
//! connection stays usable), and past [`ServerConfig::max_connections`]
//! new connections are rejected whole. Request lines longer than
//! [`MAX_LINE_BYTES`] are answered with `too_large` and discarded without
//! ever being buffered in full, so an adversarial 100 MB line cannot OOM
//! the process. Every request gets a deadline ([`ServerConfig::deadline`]);
//! work that finishes past it — or that spent the whole deadline queued —
//! is answered with `deadline_exceeded`. Shutdown (the `shutdown` op or
//! [`ServerHandle::shutdown`]) is graceful: the accept loop stops taking
//! new connections, workers finish everything already queued, and
//! [`ServerHandle::join`] returns the final metrics report.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ctxform::{AnalysisConfig, AnalysisResult};
use ctxform_demand::{DemandEngine, QueryOutcome};
use ctxform_ir::{Program, Var};
use ctxform_obs::metrics::{PromText, Registry};
use ctxform_obs::{self as obs, SpanContext};

use crate::db::{ci_digest, CacheSnapshot, DbError, DbManager};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::profile::ProfileStore;
use crate::protocol::{
    digest_str, err_reply, parse_request, salvage_meta, ErrorCode, ProtoError, Request,
    RequestMeta, VarRef,
};
use crate::queue::{Job, JobQueue};
use crate::tail::{Exemplar, ExemplarStore, FlightRecorder};

/// Upper bound on one request line. Big enough for a `points_to_batch`
/// with tens of thousands of variables or a hefty `load_source`, small
/// enough that a hostile line cannot exhaust memory: past this many bytes
/// without a newline the server replies `too_large` and discards the rest
/// of the line without buffering it.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Replies a pipelining client may have outstanding per connection before
/// the reader stops consuming new requests (flow control on the in-order
/// reply queue).
const PIPELINE_WINDOW: usize = 256;

/// Programs whose demand index the server keeps (one index per digest);
/// an index is a flat CI fixpoint plus reverse input rows, orders of
/// magnitude smaller than a solved context-sensitive database, so the
/// bound is generous.
const DEMAND_INDEX_CAPACITY: usize = 128;

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Worker threads draining the job queue.
    pub threads: usize,
    /// Maximum jobs waiting in the queue before further requests are shed
    /// with `overloaded`.
    pub queue_depth: usize,
    /// Maximum concurrent connections before new arrivals are rejected
    /// with `overloaded`.
    pub max_connections: usize,
    /// Byte budget of the solved-database cache.
    pub cache_bytes: usize,
    /// Per-request deadline (queue wait included).
    pub deadline: Duration,
    /// Slow-query threshold in milliseconds: requests that take at least
    /// this long are logged at `WARN` with their endpoint, latency, and
    /// trace id. `0` disables the slow-query log.
    pub slow_query_ms: u64,
    /// Solver profiling: when on (the default), every fresh solve runs
    /// with per-rule and per-phase timing enabled and feeds the
    /// process-wide [`ProfileStore`] served by the `profile` op. Results
    /// and cache entries are bit-identical either way — the flag only
    /// buys back the timing overhead.
    pub profile: bool,
    /// When set, a [`FlightRecorder`] dumps the trace ring and the queue
    /// depth to this file on a deadline bust or a panic.
    pub flight_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        // One worker per core, capped: solves are CPU-bound, and the
        // database manager solves distinct keys concurrently outside its
        // lock, so more workers than cores only add contention.
        let threads = thread::available_parallelism()
            .map(|n| n.get().clamp(1, 8))
            .unwrap_or(1);
        ServerConfig {
            port: 0,
            threads,
            queue_depth: 64,
            max_connections: 64,
            cache_bytes: 256 << 20,
            deadline: Duration::from_secs(30),
            slow_query_ms: 0,
            profile: true,
            flight_path: None,
        }
    }
}

struct Shared {
    /// Queued requests, drained by the workers.
    queue: JobQueue,
    /// Loaded programs, the solved-database LRU and the incremental
    /// databases, shared by every worker.
    db: DbManager,
    /// Per-digest demand indices for cold `query` / `query_batch` ops.
    demand: DemandEngine,
    shutdown: AtomicBool,
    /// Live connection threads (reader side), bounded by
    /// [`ServerConfig::max_connections`].
    connections: AtomicUsize,
    metrics: Metrics,
    /// Solver-level metrics (rule counters, solve durations) fed by the
    /// database manager and rendered by the `metrics` endpoint.
    registry: Arc<Registry>,
    /// Process-unique connection ids. Combined with the per-connection
    /// `seq` they make the `srv-<conn>-<seq>` fallback trace id unique
    /// across connections (a plain shared sequence would collide the
    /// moment two connections raced it for "their" id).
    next_conn: AtomicU64,
    /// Aggregated solver profiling, fed by the database manager and
    /// served by the `profile` op.
    profile: Arc<ProfileStore>,
    /// Slowest-N requests per endpoint, served by `trace {exemplars}`.
    exemplars: ExemplarStore,
    /// When configured, dumps the trace ring on deadline busts / panics.
    flight: Option<Arc<FlightRecorder>>,
    config: ServerConfig,
    addr: SocketAddr,
}

impl Shared {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.wake_all();
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Triggers graceful shutdown without waiting.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits until every thread has drained and exited, returning the
    /// final human-readable metrics report.
    pub fn join(mut self) -> String {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Backstop for the shutdown race where a reader enqueued a job
        // after the last worker exited: answer it so the connection's
        // writer is not left waiting on a reply that will never come.
        for job in self.shared.queue.drain() {
            let reply = job
                .meta
                .err_reply(&ProtoError::new(ErrorCode::ShuttingDown, "server exited"));
            let _ = job.reply.send(reply);
        }
        while self.shared.connections.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(2));
        }
        let mut report = self.shared.metrics.report();
        let cache = self.shared.db.snapshot();
        report.push_str(&format!(
            "cache: {} entries, {} bytes (budget {}), {} hits / {} misses, {} evictions, {} programs\n",
            cache.entries,
            cache.bytes,
            cache.budget,
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.programs,
        ));
        report.push_str(&format!(
            "queue: {} rejected as overloaded\n",
            self.shared.queue.rejected()
        ));
        report
    }
}

/// Binds a listener and starts the accept loop plus the worker pool.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    let registry = Arc::new(Registry::new());
    let threads = config.threads.max(1);
    let profile = Arc::new(ProfileStore::default());
    let flight = config
        .flight_path
        .clone()
        .map(|path| Arc::new(FlightRecorder::new(path)));
    let db = DbManager::new(config.cache_bytes.max(1))
        .with_registry(registry.clone())
        .with_profiling(config.profile)
        .with_profile_store(profile.clone());
    let shared = Arc::new(Shared {
        queue: JobQueue::new(config.queue_depth),
        db,
        demand: DemandEngine::new(DEMAND_INDEX_CAPACITY),
        shutdown: AtomicBool::new(false),
        connections: AtomicUsize::new(0),
        metrics: Metrics::default(),
        registry,
        next_conn: AtomicU64::new(1),
        profile,
        exemplars: ExemplarStore::default(),
        flight: flight.clone(),
        config,
        addr,
    });

    if let Some(flight) = flight {
        install_panic_flight_hook(flight, Arc::downgrade(&shared));
    }

    let mut workers = Vec::with_capacity(threads);
    for i in 0..threads {
        let shared = shared.clone();
        workers.push(
            thread::Builder::new()
                .name(format!("ctxform-worker-{i}"))
                .spawn(move || worker(&shared))
                .expect("spawn worker"),
        );
    }

    let accept_shared = shared.clone();
    let accept = thread::Builder::new()
        .name("ctxform-accept".into())
        .spawn(move || accept_loop(listener, &accept_shared))
        .expect("spawn accept loop");

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers,
    })
}

/// Chains a panic hook that dumps a flight record before the previous
/// hook (usually the default backtrace printer) runs. The `Weak` keeps
/// the hook from pinning the server alive after `join`; a post-shutdown
/// panic dumps a queue depth of zero (the queue has drained by then).
fn install_panic_flight_hook(flight: Arc<FlightRecorder>, shared: Weak<Shared>) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let queued = shared.upgrade().map_or(0, |s| s.queue.queued());
        flight.dump("panic", queued);
        prev(info);
    }));
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((mut stream, _)) = listener.accept() else {
            if shared.is_shutdown() {
                break;
            }
            continue;
        };
        if shared.is_shutdown() {
            reject(&mut stream, ErrorCode::ShuttingDown, "server is draining");
            break;
        }
        if shared.connections.fetch_add(1, Ordering::SeqCst) >= shared.config.max_connections {
            shared.connections.fetch_sub(1, Ordering::SeqCst);
            shared.metrics.record("invalid", Duration::ZERO, 0, true);
            reject(
                &mut stream,
                ErrorCode::Overloaded,
                "connection limit reached, retry later",
            );
            continue;
        }
        let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let conn_shared = shared.clone();
        let spawned = thread::Builder::new()
            .name("ctxform-conn".into())
            .spawn(move || {
                handle_connection(&conn_shared, stream, conn);
                conn_shared.connections.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            shared.connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn reject(stream: &mut TcpStream, code: ErrorCode, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let reply = err_reply(None, &ProtoError::new(code, message));
    let _ = stream.write_all(reply.as_bytes());
}

/// One entry of the in-order reply queue between a connection's reader and
/// its writer.
enum Slot {
    /// The reply line is already known (inline op, parse error, shed
    /// request).
    Ready(String),
    /// The reply is being produced by a worker; the writer blocks on
    /// `rx` so reply order still matches request order.
    Pending {
        rx: Receiver<String>,
        /// Written (and recorded as an internal error) if the worker died
        /// without replying.
        fallback: String,
        endpoint: &'static str,
        started: Instant,
        /// The request's root span, so the writer's wait for this reply
        /// shows up as a `server.reply_wait` child in the trace.
        ctx: Option<SpanContext>,
    },
}

/// Shortest idle-poll interval: a fresh or active connection re-checks
/// shutdown at this cadence.
const IDLE_POLL_MIN: Duration = Duration::from_millis(25);
/// Longest idle-poll interval after backoff. A reader parked on an idle
/// keep-alive connection wakes at most twice a second; shutdown latency is
/// bounded by this value.
const IDLE_POLL_MAX: Duration = Duration::from_millis(500);

/// Serves one connection: the reader (this thread) parses and routes
/// newline-delimited requests until EOF or shutdown, while a paired writer
/// thread drains the in-order slot queue. Pipelined requests therefore
/// execute concurrently across workers, yet replies always come back in
/// request order, each stamped with its `seq`.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, conn: u64) {
    let _ = stream.set_nodelay(true);
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let (slots_tx, slots_rx) = sync_channel::<Slot>(PIPELINE_WINDOW);
    let writer_shared = shared.clone();
    let Ok(writer) = thread::Builder::new()
        .name("ctxform-conn-writer".into())
        .spawn(move || writer_loop(&writer_shared, write_stream, &slots_rx))
    else {
        return;
    };

    read_requests(shared, stream, &slots_tx, conn);

    drop(slots_tx); // EOF for the writer once every queued reply is out
    let _ = writer.join();
}

/// The reader half of one connection. Returns when the client closes, the
/// writer dies, shutdown drains, or a `shutdown` op is served.
fn read_requests(shared: &Arc<Shared>, mut stream: TcpStream, slots: &SyncSender<Slot>, conn: u64) {
    let mut poll = IDLE_POLL_MIN;
    let _ = stream.set_read_timeout(Some(poll));
    let mut acc: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    // When true, the current line already blew past `MAX_LINE_BYTES` and
    // was answered with `too_large`; bytes are dropped until its newline.
    let mut discarding = false;
    let mut seq: u64 = 0;
    loop {
        // Serve every complete line already buffered.
        while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = acc.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            if line.trim().is_empty() {
                continue;
            }
            seq += 1;
            if serve_line(shared, slots, line.trim(), seq, conn) {
                return;
            }
        }
        // An in-progress line past the byte bound is rejected now and its
        // remaining bytes discarded as they arrive — the buffer never
        // grows beyond the bound plus one read chunk.
        if !discarding && acc.len() > MAX_LINE_BYTES {
            seq += 1;
            let meta = RequestMeta {
                id: None,
                trace: None,
                seq: Some(seq),
            };
            let reply = meta.err_reply(&ProtoError::new(
                ErrorCode::TooLarge,
                format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"),
            ));
            shared
                .metrics
                .record("invalid", Duration::ZERO, reply.len(), true);
            if slots.send(Slot::Ready(reply)).is_err() {
                return;
            }
            acc = Vec::new();
            discarding = true;
        }
        if shared.is_shutdown() && !acc.contains(&b'\n') {
            // Drained: no complete request is in flight on this socket.
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => {
                if discarding {
                    // Drop the oversized line's tail without buffering it.
                    match chunk[..n].iter().position(|&b| b == b'\n') {
                        Some(pos) => {
                            acc.extend_from_slice(&chunk[pos + 1..n]);
                            discarding = false;
                        }
                        None => continue,
                    }
                } else {
                    acc.extend_from_slice(&chunk[..n]);
                }
                if poll != IDLE_POLL_MIN {
                    poll = IDLE_POLL_MIN;
                    let _ = stream.set_read_timeout(Some(poll));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle: re-check shutdown, then wait longer next time.
                let next = (poll * 2).min(IDLE_POLL_MAX);
                if next != poll {
                    poll = next;
                    let _ = stream.set_read_timeout(Some(poll));
                }
                continue;
            }
            Err(_) => return,
        }
    }
}

/// The writer half of one connection: drains reply slots strictly in
/// order, blocking on worker replies so pipelined clients always see reply
/// `N` before reply `N+1`.
fn writer_loop(shared: &Shared, mut stream: TcpStream, slots: &Receiver<Slot>) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    for slot in slots.iter() {
        let line = match slot {
            Slot::Ready(line) => line,
            Slot::Pending {
                rx,
                fallback,
                endpoint,
                started,
                ctx,
            } => {
                let wait_start = Instant::now();
                let line = match rx.recv() {
                    Ok(line) => line,
                    Err(_) => {
                        // The worker died before replying; the fallback
                        // internal-error reply keeps seq accounting intact.
                        shared
                            .metrics
                            .record(endpoint, started.elapsed(), fallback.len(), true);
                        fallback
                    }
                };
                // How long the in-order writer sat on this slot — for a
                // pipelined connection this is head-of-line blocking, a
                // latency component neither queue-wait nor solve covers.
                if ctx.is_some() {
                    obs::record_span_at("server.reply_wait", ctx, wait_start, Vec::new());
                }
                line
            }
        };
        if stream.write_all(line.as_bytes()).is_err() {
            // Dropping the receiver makes the reader's next send fail, so
            // both halves of a broken connection wind down.
            return;
        }
    }
}

/// Whether a request runs on the connection's reader thread, immediately,
/// rather than on a worker through the job queue.
fn runs_inline(request: &Request) -> bool {
    matches!(
        request,
        Request::LoadSource { .. }
            | Request::LoadFacts { .. }
            | Request::Stats
            | Request::Metrics
            | Request::Profile
            | Request::Trace { .. }
            | Request::Shutdown
    )
}

/// Parses and runs or queues one request line; pushes exactly one reply
/// slot.
/// Returns `true` when the connection should stop reading (after
/// `shutdown` or when the writer is gone).
fn serve_line(
    shared: &Arc<Shared>,
    slots: &SyncSender<Slot>,
    line: &str,
    seq: u64,
    conn: u64,
) -> bool {
    let started = Instant::now();
    let (mut meta, request) = match parse_request(line) {
        Ok(parsed) => parsed,
        Err(e) => {
            let mut meta = salvage_meta(line);
            meta.seq = Some(seq);
            let reply = finish_reply(shared, &meta, "invalid", Err(e), started, conn, None);
            return slots.send(Slot::Ready(reply)).is_err();
        }
    };
    meta.seq = Some(seq);
    let endpoint = request.endpoint();
    // The request's root span. Detached, so it can ride the job queue and
    // close on whichever worker thread finishes the request;
    // the queue-wait / solve / serialize phases hang off it as children.
    let mut span = obs::span_detached("server.request");
    if span.is_active() {
        span.record("endpoint", endpoint);
        span.record("conn", conn);
        span.record("seq", seq);
        if let Some(trace) = &meta.trace {
            span.record("trace", trace.clone());
        }
    }
    let ctx = span.context();
    if runs_inline(&request) {
        let outcome = {
            let _solve = obs::span_under("server.solve", ctx);
            dispatch_inline(shared, &request, started)
        };
        span.record("ok", outcome.is_ok());
        let reply = finish_reply(shared, &meta, endpoint, outcome, started, conn, ctx);
        drop(span);
        let stop = matches!(request, Request::Shutdown);
        return slots.send(Slot::Ready(reply)).is_err() || stop;
    }
    let (reply_tx, reply_rx) = sync_channel::<String>(1);
    let fallback = meta.err_reply(&ProtoError::new(
        ErrorCode::Internal,
        "worker failed before replying",
    ));
    let job = Job {
        request,
        meta,
        started,
        enqueued: Instant::now(),
        conn,
        ctx,
        span: Some(span),
        reply: reply_tx,
    };
    match shared.queue.submit(job) {
        Ok(()) => slots
            .send(Slot::Pending {
                rx: reply_rx,
                fallback,
                endpoint,
                started,
                ctx,
            })
            .is_err(),
        Err(mut job) => {
            let outcome = Err(ProtoError::new(
                ErrorCode::Overloaded,
                "job queue is full, retry later",
            ));
            if let Some(span) = job.span.as_mut() {
                span.record("ok", false);
                span.record("shed", true);
            }
            let reply = finish_reply(shared, &job.meta, endpoint, outcome, started, conn, job.ctx);
            drop(job);
            slots.send(Slot::Ready(reply)).is_err()
        }
    }
}

/// One worker: pops jobs off the queue until shutdown drains it,
/// executing each against the shared databases and sending the finished
/// reply line to the owning connection's writer.
fn worker(shared: &Arc<Shared>) {
    while let Some(mut job) = shared.queue.next_job(|| shared.is_shutdown()) {
        // The queue-wait phase is only known at dequeue; record it
        // retroactively as a child of the request's root span.
        if job.ctx.is_some() {
            obs::record_span_at("server.queue_wait", job.ctx, job.enqueued, Vec::new());
        }
        let endpoint = job.request.endpoint();
        let outcome = if job.started.elapsed() > shared.config.deadline {
            // Shed without executing: the whole deadline went to queueing.
            Err(ProtoError::new(
                ErrorCode::DeadlineExceeded,
                format!(
                    "request spent its {:?} deadline queued",
                    shared.config.deadline
                ),
            ))
        } else {
            let _solve = obs::span_under("server.solve", job.ctx);
            dispatch_queued(shared, &job.request, job.started)
        };
        if let Some(span) = job.span.as_mut() {
            span.record("ok", outcome.is_ok());
        }
        let reply = finish_reply(
            shared,
            &job.meta,
            endpoint,
            outcome,
            job.started,
            job.conn,
            job.ctx,
        );
        // Close the root span before handing the reply to the writer, so
        // a `trace` call right after the reply lands sees the whole tree.
        job.span.take();
        // A send failure means the connection is gone; the work is simply
        // dropped (its cache effects remain).
        let _ = job.reply.send(reply);
    }
}

type Fields = Vec<(&'static str, Json)>;

/// Builds the reply line for one finished request and records its
/// metrics, tail exemplar, flight dump, and slow-query log entry. Used by
/// both the inline path (reader thread) and the queued path (worker
/// thread).
fn finish_reply(
    shared: &Shared,
    meta: &RequestMeta,
    endpoint: &'static str,
    outcome: Result<Fields, ProtoError>,
    started: Instant,
    conn: u64,
    ctx: Option<SpanContext>,
) -> String {
    let deadline_bust = matches!(&outcome, Err(e) if e.code == ErrorCode::DeadlineExceeded);
    let (reply, is_error) = {
        // Serialization is the third latency phase of the span tree
        // (after queue-wait and solve) — reply rendering is O(bytes) and
        // a `points_to_batch` reply can run to megabytes.
        let _serialize = obs::span_under("server.serialize", ctx);
        match outcome {
            Ok(mut fields) => {
                if meta.trace.is_some() {
                    // Clients that trace get the server-side latency in
                    // the reply, so client-observed minus `took_us` is
                    // attributable to the network and client stack.
                    fields.push(("took_us", Json::uint(started.elapsed().as_micros() as u64)));
                }
                (meta.ok_reply(fields), false)
            }
            Err(e) => (meta.err_reply(&e), true),
        }
    };
    let latency = started.elapsed();
    shared
        .metrics
        .record(endpoint, latency, reply.len(), is_error);
    // Every request gets an addressable trace id: the client's if it
    // supplied one, otherwise `srv-<conn>-<seq>` — unique because conn
    // ids are process-unique and seq is per-connection monotone.
    let trace = meta
        .trace
        .clone()
        .unwrap_or_else(|| format!("srv-{conn:08x}-{:08x}", meta.seq.unwrap_or(0)));
    shared.exemplars.offer(Exemplar {
        endpoint,
        trace: trace.clone(),
        latency_us: latency.as_micros().min(u128::from(u64::MAX)) as u64,
        seq: meta.seq,
        error: is_error,
        root: ctx.map(SpanContext::id),
    });
    if deadline_bust {
        if let Some(flight) = &shared.flight {
            flight.dump("deadline_exceeded", shared.queue.queued());
        }
    }
    let slow = shared.config.slow_query_ms;
    if slow > 0 && latency >= Duration::from_millis(slow) {
        let latency_ms = latency.as_secs_f64() * 1000.0;
        obs::logger::warn(
            "ctxform-serve",
            format!(
                "slow query: endpoint={endpoint} trace={trace} latency_ms={latency_ms:.3} error={is_error}"
            ),
        );
        obs::event(
            "server.slow_query",
            vec![
                ("endpoint", endpoint.into()),
                ("trace", trace.into()),
                ("latency_ms", latency_ms.into()),
                ("error", is_error.into()),
            ],
        );
    }
    reply
}

/// Ops served on the connection's reader thread: program loads and the
/// control plane.
fn dispatch_inline(
    shared: &Shared,
    request: &Request,
    started: Instant,
) -> Result<Fields, ProtoError> {
    let result = match request {
        Request::LoadSource { source } => {
            let module = ctxform_minijava::compile(source)
                .map_err(|e| ProtoError::new(ErrorCode::CompileError, e.to_string()))?;
            load_fields(shared, module.program)
        }
        Request::LoadFacts { facts } => {
            let program = ctxform_ir::text::parse(facts)
                .map_err(|e| ProtoError::new(ErrorCode::FactError, e.to_string()))?;
            load_fields(shared, program)
        }
        Request::Stats => Ok(stats_fields(shared)),
        Request::Metrics => Ok(metrics_fields(shared)),
        Request::Profile => Ok(profile_fields(shared)),
        Request::Trace { limit, exemplars } => Ok(trace_fields(shared, *limit, *exemplars)),
        Request::Shutdown => {
            shared.begin_shutdown();
            Ok(vec![("draining", Json::Bool(true))])
        }
        other => unreachable!("{} is not an inline op", other.endpoint()),
    };
    check_deadline(shared, request, result, started)
}

/// Ops executed on a worker against the shared databases.
fn dispatch_queued(
    shared: &Shared,
    request: &Request,
    started: Instant,
) -> Result<Fields, ProtoError> {
    let db = &shared.db;
    let result = match request {
        Request::Update {
            base,
            source,
            facts,
            config,
        } => {
            let next = match (source, facts) {
                (Some(source), _) => {
                    ctxform_minijava::compile(source)
                        .map_err(|e| ProtoError::new(ErrorCode::CompileError, e.to_string()))?
                        .program
                }
                (None, Some(facts)) => ctxform_ir::text::parse(facts)
                    .map_err(|e| ProtoError::new(ErrorCode::FactError, e.to_string()))?,
                (None, None) => unreachable!("parser requires one of source/facts"),
            };
            let report = db.update(*base, next, config).map_err(|e| match e {
                DbError::UnknownProgram => ProtoError::new(
                    ErrorCode::UnknownProgram,
                    format!("no loaded program has digest {}", digest_str(*base)),
                ),
                DbError::SolveFailed(msg) => {
                    ProtoError::new(ErrorCode::Internal, format!("analysis failed: {msg}"))
                }
            })?;
            let s = &report.result.stats;
            let outcome_name = match &report.outcome {
                ctxform::ExtendOutcome::Incremental => "incremental",
                ctxform::ExtendOutcome::Noop => "noop",
                ctxform::ExtendOutcome::Retracted => "retracted",
                ctxform::ExtendOutcome::Fallback(_) => "fallback",
            };
            let mut fields = vec![
                ("program", Json::str(digest_str(report.digest))),
                ("incremental", Json::Bool(report.outcome.is_incremental())),
                ("outcome", Json::str(outcome_name)),
                ("base_cached", Json::Bool(report.base_cached)),
                ("fact_digest", Json::str(digest_str(report.fact_digest))),
                ("pts", Json::int(s.pts)),
                ("total", Json::int(s.total())),
                ("facts_derived", Json::uint(s.rule_derived.total())),
                ("time_ms", Json::ms(s.duration.as_secs_f64() * 1000.0)),
            ];
            if let ctxform::ExtendOutcome::Fallback(reason) = &report.outcome {
                fields.push(("reason", Json::str(reason.as_str())));
            }
            Ok(fields)
        }
        Request::Analyze { program, config } => {
            let (result, cached) = solve(db, *program, config)?;
            let s = &result.stats;
            Ok(vec![
                ("cached", Json::Bool(cached)),
                ("pts", Json::int(s.pts)),
                ("hpts", Json::int(s.hpts)),
                ("call", Json::int(s.call)),
                ("reach", Json::int(s.reach)),
                ("total", Json::int(s.total())),
                ("time_ms", Json::ms(s.duration.as_secs_f64() * 1000.0)),
                ("ci_pts", Json::int(result.ci.pts.len())),
                // The parity oracle: equal CI facts ⇔ equal digest, so a
                // client can verify server answers against a direct
                // `analyze` without shipping the full sets.
                ("ci_digest", Json::str(digest_str(ci_digest(&result)))),
            ])
        }
        Request::PointsTo {
            program,
            config,
            var,
            demand,
        } => points_to(shared, *program, config, var, *demand),
        Request::PointsToBatch {
            program,
            config,
            vars,
        } => points_to_batch(db, *program, config, vars),
        Request::Query {
            program,
            config,
            var,
        } => demand_query(shared, *program, config, std::slice::from_ref(var), false),
        Request::QueryBatch {
            program,
            config,
            vars,
        } => demand_query(shared, *program, config, vars, true),
        Request::MayAlias {
            program,
            config,
            a,
            b,
        } => {
            let (result, cached, prog) = solve_with_program(db, *program, config)?;
            let va = resolve_var(&prog, a)?;
            let vb = resolve_var(&prog, b)?;
            Ok(vec![
                ("cached", Json::Bool(cached)),
                ("may_alias", Json::Bool(result.ci.may_alias(va, vb))),
            ])
        }
        Request::CallEdges {
            program,
            config,
            inv,
        } => {
            let (result, cached, prog) = solve_with_program(db, *program, config)?;
            let mut edges: Vec<(String, String)> = result
                .ci
                .call
                .iter()
                .map(|&(i, q)| {
                    (
                        prog.inv_names[i.index()].clone(),
                        prog.method_names[q.index()].clone(),
                    )
                })
                .filter(|(i, _)| inv.as_deref().is_none_or(|want| want == i))
                .collect();
            edges.sort();
            Ok(vec![
                ("cached", Json::Bool(cached)),
                (
                    "edges",
                    Json::Arr(
                        edges
                            .into_iter()
                            .map(|(i, q)| Json::Arr(vec![Json::Str(i), Json::Str(q)]))
                            .collect(),
                    ),
                ),
            ])
        }
        Request::Reachable {
            program,
            config,
            method,
        } => {
            let (result, cached, prog) = solve_with_program(db, *program, config)?;
            let mut fields: Fields = vec![("cached", Json::Bool(cached))];
            match method {
                Some(name) => {
                    let m = resolve_method(&prog, name)?;
                    fields.push(("reachable", Json::Bool(result.ci.reach.contains(&m))));
                }
                None => {
                    let mut names: Vec<String> = result
                        .ci
                        .reach
                        .iter()
                        .map(|m| prog.method_names[m.index()].clone())
                        .collect();
                    names.sort();
                    fields.push((
                        "methods",
                        Json::Arr(names.into_iter().map(Json::Str).collect()),
                    ));
                }
            }
            Ok(fields)
        }
        Request::Sleep { ms } => {
            // Sleep in slices so shutdown and the deadline stay responsive.
            let wake = started + Duration::from_millis(*ms);
            while Instant::now() < wake {
                if started.elapsed() > shared.config.deadline {
                    return Err(ProtoError::new(
                        ErrorCode::DeadlineExceeded,
                        format!("slept past the {:?} deadline", shared.config.deadline),
                    ));
                }
                if shared.is_shutdown() {
                    break;
                }
                thread::sleep(Duration::from_millis(
                    20.min((wake - Instant::now()).as_millis() as u64).max(1),
                ));
            }
            Ok(vec![("slept_ms", Json::uint(*ms))])
        }
        other => unreachable!("{} is not a queued op", other.endpoint()),
    };
    check_deadline(shared, request, result, started)
}

/// Deadline accounting: work that completed past the deadline is reported
/// as exceeded rather than returned late (the caller has already given up
/// on it).
fn check_deadline(
    shared: &Shared,
    request: &Request,
    result: Result<Fields, ProtoError>,
    started: Instant,
) -> Result<Fields, ProtoError> {
    let deadline = shared.config.deadline;
    if result.is_ok() && started.elapsed() > deadline && !matches!(request, Request::Shutdown) {
        return Err(ProtoError::new(
            ErrorCode::DeadlineExceeded,
            format!("request exceeded the {deadline:?} deadline"),
        ));
    }
    result
}

/// Registers a program and describes it.
fn load_fields(shared: &Shared, program: Program) -> Result<Fields, ProtoError> {
    let stats = program.stats();
    let (digest, _) = shared.db.load_program(program);
    Ok(vec![
        ("program", Json::str(digest_str(digest))),
        ("methods", Json::int(stats.methods)),
        ("vars", Json::int(stats.vars)),
        ("heaps", Json::int(stats.heaps)),
        ("invs", Json::int(stats.invs)),
        ("input_facts", Json::int(stats.input_facts)),
    ])
}

fn solve(
    db: &DbManager,
    digest: u64,
    config: &AnalysisConfig,
) -> Result<(Arc<AnalysisResult>, bool), ProtoError> {
    db.get_or_solve(digest, config).map_err(|e| match e {
        DbError::UnknownProgram => ProtoError::new(
            ErrorCode::UnknownProgram,
            format!("no loaded program has digest {}", digest_str(digest)),
        ),
        DbError::SolveFailed(msg) => {
            ProtoError::new(ErrorCode::Internal, format!("analysis failed: {msg}"))
        }
    })
}

fn solve_with_program(
    db: &DbManager,
    digest: u64,
    config: &AnalysisConfig,
) -> Result<(Arc<AnalysisResult>, bool, Arc<Program>), ProtoError> {
    let program = db.program(digest).ok_or_else(|| {
        ProtoError::new(
            ErrorCode::UnknownProgram,
            format!("no loaded program has digest {}", digest_str(digest)),
        )
    })?;
    let (result, cached) = solve(db, digest, config)?;
    Ok((result, cached, program))
}

fn points_to(
    shared: &Shared,
    digest: u64,
    config: &AnalysisConfig,
    var: &VarRef,
    demand: bool,
) -> Result<Fields, ProtoError> {
    if demand {
        // `points_to {demand: true}` and `query` share one entry point:
        // the demand engine, which answers both the context-insensitive
        // and the context-sensitive configurations.
        return demand_query(shared, digest, config, std::slice::from_ref(var), false);
    }
    let (result, cached, program) = solve_with_program(&shared.db, digest, config)?;
    let v = resolve_var(&program, var)?;
    let heaps: Vec<Json> = result
        .ci
        .points_to(v)
        .iter()
        .map(|h| Json::str(&*program.heap_names[h.index()]))
        .collect();
    Ok(vec![
        ("cached", Json::Bool(cached)),
        ("heaps", Json::Arr(heaps)),
    ])
}

/// Bumps one of the `ctxform_demand_*` Prometheus counters.
fn demand_counter(shared: &Shared, name: &'static str, help: &'static str, mode: &str, by: u64) {
    shared
        .registry
        .counter(name, help, &[("mode", mode)])
        .add(by);
}

/// Answers a demand query (`query`, `query_batch`, or
/// `points_to {demand: true}`): from the cached solved database when one
/// is resident, otherwise via the demand engine — never via a
/// full exhaustive solve. Returns the reply fields plus the resolved
/// per-variable answer slots (`batch` mode keeps unknown variables as
/// per-slot error objects instead of failing the request).
fn sliced_answer(
    shared: &Shared,
    digest: u64,
    config: &AnalysisConfig,
    vars: &[VarRef],
    batch: bool,
) -> Result<(Fields, Vec<Json>), ProtoError> {
    let program = shared.db.program(digest).ok_or_else(|| {
        ProtoError::new(
            ErrorCode::UnknownProgram,
            format!("no loaded program has digest {}", digest_str(digest)),
        )
    })?;
    // Resolve names positionally; in batch mode failures become per-slot
    // error objects (mirroring `points_to_batch`). A single root is found
    // by a scan, without building the name index.
    let resolved: Vec<Option<Var>> = if batch {
        let index = var_index(&program);
        vars.iter()
            .map(|var| index.get(&(var.method.as_str(), var.var.as_str())).copied())
            .collect()
    } else {
        vars.iter()
            .map(|var| resolve_var(&program, var).map(Some))
            .collect::<Result<_, _>>()?
    };
    let roots: Vec<Var> = resolved.iter().filter_map(|v| *v).collect();
    let heaps_json = |heaps: &[ctxform_ir::Heap]| -> Json {
        Json::Arr(
            heaps
                .iter()
                .map(|h| Json::str(&*program.heap_names[h.index()]))
                .collect(),
        )
    };

    // Fast path: a solved database for this exact configuration is
    // already resident — answer from it without any demand work.
    if let Some(result) = shared.db.cached_result(digest, config) {
        demand_counter(
            shared,
            "ctxform_demand_queries_total",
            "Demand queries answered, by answering mode.",
            "cached_db",
            1,
        );
        let slots = answer_slots(&resolved, vars, |v| heaps_json(&result.ci.points_to(v)));
        let fields = vec![
            ("cached", Json::Bool(true)),
            ("demand", Json::Bool(false)),
            ("count", Json::int(vars.len())),
            ("found", Json::int(roots.len())),
        ];
        return Ok((fields, slots));
    }

    let outcome: QueryOutcome = shared.demand.query(digest, &program, config, &roots);
    demand_counter(
        shared,
        "ctxform_demand_queries_total",
        "Demand queries answered, by answering mode.",
        "sliced",
        1,
    );
    shared
        .registry
        .counter(
            "ctxform_demand_slice_reuse_total",
            "Demand-index cache lookups, by outcome.",
            &[("outcome", if outcome.slice_reused { "hit" } else { "miss" })],
        )
        .inc();
    shared
        .registry
        .counter(
            "ctxform_demand_demanded_tuples_total",
            "Tuples in the demand slices of cold queries (compare against \
             the exhaustive ctxform_solver_* fact counters for the \
             demanded-vs-exhaustive ratio).",
            &[],
        )
        .add(outcome.slice_tuples as u64);
    shared
        .registry
        .counter(
            "ctxform_demand_sliced_facts_total",
            "Facts derived by gated (sliced) context-sensitive solves.",
            &[],
        )
        .add(outcome.solver_facts as u64);
    let by_var: HashMap<Var, &Vec<ctxform_ir::Heap>> =
        outcome.answers.iter().map(|(v, h)| (*v, h)).collect();
    let slots = answer_slots(&resolved, vars, |v| {
        heaps_json(by_var.get(&v).map(|h| h.as_slice()).unwrap_or(&[]))
    });
    let fields = vec![
        ("cached", Json::Bool(false)),
        ("demand", Json::Bool(true)),
        ("count", Json::int(vars.len())),
        ("found", Json::int(roots.len())),
        ("slice_reused", Json::Bool(outcome.slice_reused)),
        ("derived_tuples", Json::int(outcome.slice_tuples)),
        ("derivations", Json::int(outcome.slice_derivations)),
        ("solver_facts", Json::int(outcome.solver_facts)),
    ];
    Ok((fields, slots))
}

/// Positional answer slots: `heaps` objects for resolved variables,
/// `unknown_var` error objects for unresolved ones.
fn answer_slots(
    resolved: &[Option<Var>],
    vars: &[VarRef],
    mut answer: impl FnMut(Var) -> Json,
) -> Vec<Json> {
    resolved
        .iter()
        .zip(vars)
        .map(|(slot, var)| match slot {
            Some(v) => Json::obj([("heaps", answer(*v))]),
            None => Json::obj([
                ("error", Json::str(ErrorCode::UnknownVar.as_str())),
                (
                    "message",
                    Json::str(format!("no variable `{}` in `{}`", var.var, var.method)),
                ),
            ]),
        })
        .collect()
}

fn unknown_var(var: &VarRef) -> ProtoError {
    ProtoError::new(
        ErrorCode::UnknownVar,
        format!("no variable `{}` in `{}`", var.var, var.method),
    )
}

/// The `query` / `query_batch` handler: single queries inline their one
/// answer as `heaps`, batches return positional `results`.
fn demand_query(
    shared: &Shared,
    digest: u64,
    config: &AnalysisConfig,
    vars: &[VarRef],
    batch: bool,
) -> Result<Fields, ProtoError> {
    let (mut fields, slots) = sliced_answer(shared, digest, config, vars, batch)?;
    if batch {
        fields.push(("results", Json::Arr(slots)));
    } else {
        let slot = slots.into_iter().next().expect("one query, one slot");
        let heaps = slot.get("heaps").cloned().unwrap_or(Json::Arr(Vec::new()));
        fields.push(("heaps", heaps));
        // Single queries do not carry batch bookkeeping.
        fields.retain(|(k, _)| !matches!(*k, "count" | "found"));
    }
    Ok(fields)
}

/// Answers many variable queries against one solved database in a single
/// reply. Results are positional (`results[i]` answers `vars[i]`); an
/// unknown variable yields an error *object* in its slot rather than
/// failing the whole batch. One name index is built per call, so a batch
/// of thousands of lookups costs one pass over the program's variables
/// instead of a linear scan per query.
fn points_to_batch(
    db: &DbManager,
    digest: u64,
    config: &AnalysisConfig,
    vars: &[VarRef],
) -> Result<Fields, ProtoError> {
    let (result, cached, program) = solve_with_program(db, digest, config)?;
    let index = var_index(&program);
    let mut found = 0usize;
    let mut items = Vec::with_capacity(vars.len());
    for var in vars {
        match index.get(&(var.method.as_str(), var.var.as_str())) {
            Some(&v) => {
                found += 1;
                let heaps: Vec<Json> = result
                    .ci
                    .points_to(v)
                    .iter()
                    .map(|h| Json::str(&*program.heap_names[h.index()]))
                    .collect();
                items.push(Json::obj([("heaps", Json::Arr(heaps))]));
            }
            None => items.push(Json::obj([
                ("error", Json::str(ErrorCode::UnknownVar.as_str())),
                (
                    "message",
                    Json::str(format!("no variable `{}` in `{}`", var.var, var.method)),
                ),
            ])),
        }
    }
    Ok(vec![
        ("cached", Json::Bool(cached)),
        ("count", Json::int(vars.len())),
        ("found", Json::int(found)),
        ("results", Json::Arr(items)),
    ])
}

fn resolve_method(program: &Program, name: &str) -> Result<ctxform_ir::Method, ProtoError> {
    program
        .method_names
        .iter()
        .position(|n| n == name)
        .map(ctxform_ir::Method::from_index)
        .ok_or_else(|| {
            ProtoError::new(
                ErrorCode::UnknownMethod,
                format!("no method named `{name}`"),
            )
        })
}

/// The one resolver of a single variable name for every op:
/// `unknown_method` when no method has that name, else [`find_var`]'s
/// answer or `unknown_var`. Batch ops resolve through [`var_index`],
/// which agrees with [`find_var`] name for name.
fn resolve_var(program: &Program, var: &VarRef) -> Result<Var, ProtoError> {
    resolve_method(program, &var.method)?;
    find_var(program, var).ok_or_else(|| unknown_var(var))
}

/// `var` by a scan, resolving exactly as a lookup in [`var_index`] does:
/// the last variable with that method and variable name wins (nested
/// scopes and arity overloads can repeat both).
fn find_var(program: &Program, var: &VarRef) -> Option<Var> {
    (0..program.var_count())
        .rev()
        .find(|&i| {
            program.var_names[i] == var.var
                && program.method_names[program.var_method[i].index()] == var.method
        })
        .map(Var::from_index)
}

/// Every variable keyed by `(method name, variable name)`: one pass over
/// the program, for requests that look up many variables.
fn var_index(program: &Program) -> HashMap<(&str, &str), Var> {
    let mut index = HashMap::with_capacity(program.var_count());
    for i in 0..program.var_count() {
        let method = program.method_names[program.var_method[i].index()].as_str();
        index.insert((method, program.var_names[i].as_str()), Var::from_index(i));
    }
    index
}

/// Builds the `metrics` reply: one Prometheus text exposition covering
/// the serving layer (per-endpoint counters and latency histograms), the
/// job queue, the database cache, and the solver registry (rule counters,
/// solve durations) fed by the [`DbManager`].
fn metrics_fields(shared: &Shared) -> Fields {
    let mut text = PromText::new();
    shared.metrics.render_prometheus(&mut text);
    text.header(
        "ctxform_queue_depth",
        "gauge",
        "Requests waiting in the job queue.",
    );
    text.sample("ctxform_queue_depth", &[], shared.queue.queued() as f64);
    text.header(
        "ctxform_queue_rejected_total",
        "counter",
        "Requests shed with `overloaded` because the job queue was full.",
    );
    text.sample(
        "ctxform_queue_rejected_total",
        &[],
        shared.queue.rejected() as f64,
    );
    render_cache_prometheus(&mut text, &shared.db.snapshot());
    render_obs_prometheus(&mut text);
    render_profile_prometheus(&mut text, &shared.profile);
    shared.registry.render_into(&mut text);
    vec![
        ("content_type", Json::str("text/plain; version=0.0.4")),
        ("exposition", Json::str(text.finish())),
    ]
}

/// Trace-collector and logger health as Prometheus series, so a scraper
/// can see span loss (`ctxform_trace_dropped_total`), ring occupancy,
/// and log suppression without calling the `trace` op.
fn render_obs_prometheus(text: &mut PromText) {
    let ts = obs::trace_stats();
    text.header(
        "ctxform_trace_dropped_total",
        "counter",
        "Span records evicted from the trace ring since the last reset.",
    );
    text.sample("ctxform_trace_dropped_total", &[], ts.dropped as f64);
    text.header(
        "ctxform_trace_records",
        "gauge",
        "Span records resident across the trace ring shards.",
    );
    text.sample("ctxform_trace_records", &[], ts.records as f64);
    text.header(
        "ctxform_trace_capacity",
        "gauge",
        "Per-shard record capacity of the trace ring.",
    );
    text.sample("ctxform_trace_capacity", &[], ts.capacity as f64);
    text.header(
        "ctxform_trace_enabled",
        "gauge",
        "Whether span collection is enabled (1) or disabled (0).",
    );
    text.sample(
        "ctxform_trace_enabled",
        &[],
        if ts.enabled { 1.0 } else { 0.0 },
    );
    let ls = obs::logger_stats();
    text.header(
        "ctxform_log_emitted_total",
        "counter",
        "Log lines written to the sink since process start.",
    );
    text.sample("ctxform_log_emitted_total", &[], ls.emitted as f64);
    text.header(
        "ctxform_log_suppressed_total",
        "counter",
        "Log lines dropped by the minimum-level filter since process start.",
    );
    text.sample("ctxform_log_suppressed_total", &[], ls.suppressed as f64);
    text.header(
        "ctxform_log_min_level",
        "gauge",
        "Active minimum log level (0=debug, 1=info, 2=warn, 3=error).",
    );
    text.sample("ctxform_log_min_level", &[], f64::from(ls.min_level));
}

/// Aggregated solver-profiling series: per-rule wall time and the byte
/// accounting of the most recent profiled solve's database.
fn render_profile_prometheus(text: &mut PromText, profile: &ProfileStore) {
    let (solves, rule, phase, memory) = profile.snapshot();
    text.header(
        "ctxform_solver_profiled_solves_total",
        "counter",
        "Profiled solver runs, fresh solves and updates alike, folded into the profile store.",
    );
    text.sample("ctxform_solver_profiled_solves_total", &[], solves as f64);
    text.header(
        "ctxform_solver_phase_seconds_total",
        "counter",
        "Wall time spent in each solver phase across profiled solves.",
    );
    for (name, ns) in phase.phases() {
        text.sample(
            "ctxform_solver_phase_seconds_total",
            &[("phase", name)],
            ns as f64 / 1e9,
        );
    }
    text.header(
        "ctxform_solver_rule_seconds_total",
        "counter",
        "Wall time spent evaluating each Fig. 3 rule across profiled solves.",
    );
    for (name, ns, _count) in rule.nonzero() {
        text.sample(
            "ctxform_solver_rule_seconds_total",
            &[("rule", name)],
            ns as f64 / 1e9,
        );
    }
    text.header(
        "ctxform_solver_bytes",
        "gauge",
        "Bytes held by the most recent profiled solve's database, by section.",
    );
    for (section, name, bytes) in memory.sections() {
        if bytes > 0 {
            text.sample(
                "ctxform_solver_bytes",
                &[("section", section), ("name", name)],
                bytes as f64,
            );
        }
    }
}

fn render_cache_prometheus(text: &mut PromText, cache: &CacheSnapshot) {
    let counters: [(&str, &str, u64); 7] = [
        (
            "ctxform_db_cache_hits_total",
            "Analysis requests answered from the database cache.",
            cache.hits,
        ),
        (
            "ctxform_db_cache_misses_total",
            "Analysis requests that required a fresh solve.",
            cache.misses,
        ),
        (
            "ctxform_db_cache_evictions_total",
            "Cached databases evicted to stay under the byte budget.",
            cache.evictions,
        ),
        (
            "ctxform_db_incremental_reuse_total",
            "Update requests satisfied by resuming a cached database.",
            cache.incremental_reuse,
        ),
        (
            "ctxform_db_incremental_noop_total",
            "Update requests whose edited program was identical to the base.",
            cache.incremental_noop,
        ),
        (
            "ctxform_db_incremental_retracted_total",
            "Update requests whose edit removed input tuples, re-solved from scratch.",
            cache.incremental_retracted,
        ),
        (
            "ctxform_db_incremental_fallback_total",
            "Update requests that fell back to a from-scratch solve.",
            cache.incremental_fallback,
        ),
    ];
    for (name, help, value) in counters {
        text.header(name, "counter", help);
        text.sample(name, &[], value as f64);
    }
    let gauges: [(&str, &str, f64); 4] = [
        (
            "ctxform_db_cache_entries",
            "Solved databases currently cached.",
            cache.entries as f64,
        ),
        (
            "ctxform_db_cache_bytes",
            "Approximate bytes held by cached databases.",
            cache.bytes as f64,
        ),
        (
            "ctxform_db_cache_budget_bytes",
            "Byte budget of the database cache.",
            cache.budget as f64,
        ),
        (
            "ctxform_db_programs",
            "Programs loaded and addressable by digest.",
            cache.programs as f64,
        ),
    ];
    for (name, help, value) in gauges {
        text.header(name, "gauge", help);
        text.sample(name, &[], value);
    }
}

/// Builds the `profile` reply: the aggregated per-rule / per-phase solver
/// timings and byte accounting, plus a folded-stack text rendering that
/// pipes straight into `flamegraph.pl` / `inferno-flamegraph`.
fn profile_fields(shared: &Shared) -> Fields {
    let (solves, rule, phase, memory) = shared.profile.snapshot();
    let rules: Vec<(String, Json)> = rule
        .nonzero()
        .map(|(name, ns, count)| {
            (
                name.to_owned(),
                Json::obj([("ns", Json::uint(ns)), ("count", Json::uint(count))]),
            )
        })
        .collect();
    let sections: Vec<Json> = memory
        .sections()
        .filter(|&(_, _, bytes)| bytes > 0)
        .map(|(section, name, bytes)| {
            Json::obj([
                ("section", Json::str(section)),
                ("name", Json::str(name)),
                ("bytes", Json::uint(bytes as u64)),
            ])
        })
        .collect();
    vec![
        ("enabled", Json::Bool(shared.config.profile)),
        ("solves", Json::uint(solves)),
        (
            "phases",
            Json::obj([
                ("seed_ns", Json::uint(phase.seed_ns)),
                ("eval_ns", Json::uint(phase.eval_ns)),
            ]),
        ),
        ("rules", Json::Obj(rules)),
        ("memory_bytes", Json::uint(memory.total() as u64)),
        ("memory_sections", Json::Arr(sections)),
        ("folded", Json::str(shared.profile.folded())),
    ]
}

/// Builds the `trace` reply: a snapshot of the in-process trace ring,
/// embedded as structured JSON by round-tripping the obs exporter's
/// output through this crate's parser. With `exemplars`, the slowest
/// retained requests per endpoint ride along, each with its span subtree
/// reconstructed from the ring (from the *pre-truncation* snapshot, so a
/// tight `limit` cannot hollow out an exemplar's tree).
fn trace_fields(shared: &Shared, limit: Option<usize>, exemplars: bool) -> Fields {
    let dump = obs::snapshot();
    let full = match Json::parse(&dump.to_json()) {
        Ok(json) => json,
        Err(_) => Json::obj([]),
    };
    let empty: Vec<Json> = Vec::new();
    let all_records = full.get("records").and_then(Json::as_arr).unwrap_or(&empty);
    let mut fields: Fields = vec![
        ("enabled", Json::Bool(obs::tracing_enabled())),
        ("dropped", Json::uint(dump.dropped)),
    ];
    if exemplars {
        // Child links, from the raw dump (ids are cheaper there than in
        // the round-tripped JSON).
        let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
        for rec in &dump.records {
            if let Some(parent) = rec.parent {
                children.entry(parent).or_default().push(rec.id);
            }
        }
        let items: Vec<Json> = shared
            .exemplars
            .snapshot()
            .into_iter()
            .map(|ex| {
                let mut obj = vec![
                    ("endpoint".to_owned(), Json::str(ex.endpoint)),
                    ("trace".to_owned(), Json::Str(ex.trace)),
                    ("latency_us".to_owned(), Json::uint(ex.latency_us)),
                    ("error".to_owned(), Json::Bool(ex.error)),
                ];
                if let Some(seq) = ex.seq {
                    obj.push(("seq".to_owned(), Json::uint(seq)));
                }
                if let Some(root) = ex.root {
                    let mut keep: HashSet<u64> = HashSet::new();
                    let mut stack = vec![root];
                    while let Some(id) = stack.pop() {
                        if keep.insert(id) {
                            if let Some(kids) = children.get(&id) {
                                stack.extend(kids);
                            }
                        }
                    }
                    let spans: Vec<Json> = all_records
                        .iter()
                        .filter(|r| {
                            r.get("id")
                                .and_then(Json::as_u64)
                                .is_some_and(|id| keep.contains(&id))
                        })
                        .cloned()
                        .collect();
                    obj.push(("spans".to_owned(), Json::Arr(spans)));
                }
                Json::Obj(obj)
            })
            .collect();
        fields.push(("exemplars", Json::Arr(items)));
    }
    let records = if let Some(limit) = limit {
        let skip = all_records.len().saturating_sub(limit);
        Json::Arr(all_records[skip..].to_vec())
    } else {
        Json::Arr(all_records.to_vec())
    };
    fields.push(("records", records));
    fields
}

/// Builds the `stats` reply: worker and queue shape, per-endpoint
/// counters, and the database cache.
fn stats_fields(shared: &Shared) -> Fields {
    let cache = shared.db.snapshot();
    vec![
        ("uptime_ms", Json::ms(shared.metrics.uptime_ms())),
        ("threads", Json::int(shared.config.threads.max(1))),
        ("queue_depth", Json::int(shared.config.queue_depth)),
        ("queued", Json::int(shared.queue.queued())),
        ("rejected", Json::uint(shared.queue.rejected())),
        ("endpoints", shared.metrics.to_json()),
        (
            "cache",
            Json::obj([
                ("entries", Json::int(cache.entries)),
                ("bytes", Json::int(cache.bytes)),
                ("budget", Json::int(cache.budget)),
                ("hits", Json::uint(cache.hits)),
                ("misses", Json::uint(cache.misses)),
                ("evictions", Json::uint(cache.evictions)),
                ("programs", Json::int(cache.programs)),
                ("incremental_reuse", Json::uint(cache.incremental_reuse)),
                ("incremental_noop", Json::uint(cache.incremental_noop)),
                (
                    "incremental_retracted",
                    Json::uint(cache.incremental_retracted),
                ),
                (
                    "incremental_fallback",
                    Json::uint(cache.incremental_fallback),
                ),
            ]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform_minijava::compile;

    /// The single-root scan resolves every name exactly as the batch name
    /// index does, including names repeated by nested scopes and arity
    /// overloads, and misses the same names.
    #[test]
    fn find_var_agrees_with_the_name_index() {
        let program = compile(
            "class A {
                 Object m() { Object y = new Object(); return y; }
                 Object m(Object p) { Object y = p; return y; }
             }
             class Main {
                 public static void main(String[] args) {
                     Object x = new Object();
                     if (true) { Object y = x; }
                     Object y = new A().m(x);
                 }
             }",
        )
        .unwrap()
        .program;
        let index = var_index(&program);
        let mut names: Vec<(&str, &str)> = index.keys().copied().collect();
        names.extend([("Main.main", "nope"), ("Nope.main", "x"), ("A.m", "x")]);
        for (method, var) in names {
            let var_ref = VarRef {
                method: method.to_owned(),
                var: var.to_owned(),
            };
            assert_eq!(
                find_var(&program, &var_ref),
                index.get(&(method, var)).copied(),
                "{method}::{var}"
            );
        }
        let ys = (0..program.var_count())
            .filter(|&i| program.var_names[i] == "y")
            .count();
        assert!(ys >= 4, "the program repeats names ({ys} `y`s)");
    }
}
