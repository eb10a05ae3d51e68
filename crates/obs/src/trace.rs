//! Hierarchical spans and events with bounded, thread-sharded ring sinks.
//!
//! # Model
//!
//! A **span** covers a region of wall-clock time ([`span`] → drop of the
//! returned guard); an **event** marks a point in time ([`event`]). Both
//! carry a static name plus a small list of key/value fields. Parentage
//! is tracked per thread: a span or event created while another span
//! guard is alive on the same thread records that span's id as its
//! parent, giving a forest per thread (analysis → phase → round).
//!
//! For work that hops threads (a server request moving from the reader
//! thread to a shard worker), parentage is carried *explicitly* with a
//! [`SpanContext`] — a copyable handle to a span's id. [`span_detached`]
//! opens a root span that is never registered on the creating thread's
//! stack (so the guard may be moved to and dropped on another thread
//! without corrupting either thread's parent stack), [`span_under`]
//! opens a child of an explicit context on the current thread, and
//! [`record_span_at`] retroactively records a span from a measured
//! `(start, now)` pair — used for queue-wait phases whose duration is
//! only known at dequeue time.
//!
//! Finished records land in a small fixed set of **sharded rings**:
//! every thread is assigned a ring round-robin on first use, so shard
//! workers and the reader/writer threads never contend on one global
//! lock. Exports ([`snapshot`],
//! [`take_trace`]) merge the rings and sort by start time. When a ring
//! is full the *oldest* record is dropped and a drop counter is bumped,
//! so a long-running process can keep tracing enabled without unbounded
//! memory growth; exporters report the summed drop count alongside the
//! surviving records, and [`trace_stats`] exposes it to scrapers.
//!
//! # Overhead contract
//!
//! When tracing is disabled (the default), [`span`] and [`event`] cost
//! exactly one relaxed atomic load — no allocation, no clock read, no
//! lock. Instrumentation must therefore never be placed where even that
//! load is too hot (per-fact loops); the solver instruments per *round*
//! and per *solve*, never per tuple. Tracing must also be
//! **result-neutral**: instrumentation only observes, it never feeds
//! back into derivation order (the parity suite asserts equal fact sets
//! with tracing on and off).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-ring capacity installed by [`enable_tracing`] callers
/// that have no better number (64Ki records ≈ a few MB per active ring).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Number of ring shards. Threads are assigned round-robin, so with up
/// to this many tracing threads every thread owns a private ring.
pub const RING_SHARDS: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One relaxed atomic load; `true` iff spans/events are being recorded.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on with the given per-ring capacity (clamped to ≥ 1).
///
/// Capacity applies to each of the [`RING_SHARDS`] thread-sharded rings,
/// so a single-threaded process keeps exactly `capacity` records and a
/// concurrent one keeps at most `RING_SHARDS * capacity`. Re-enabling
/// with a different capacity resizes the rings, dropping the oldest
/// records of any ring that shrinks. Records already collected are kept.
pub fn enable_tracing(capacity: usize) {
    let c = collector();
    for ring in &c.rings {
        let mut ring = ring.lock().unwrap();
        ring.capacity = capacity.max(1);
        ring.evict_to_capacity();
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn tracing off. Already-collected records stay available to
/// [`snapshot`] / [`take_trace`]; live span guards still record on drop.
pub fn disable_tracing() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Discard all collected records and reset the drop counters.
pub fn clear_trace() {
    if let Some(c) = COLLECTOR.get() {
        for ring in &c.rings {
            let mut ring = ring.lock().unwrap();
            ring.records.clear();
            ring.dropped = 0;
        }
    }
}

/// Point-in-time collector gauges for scrapers (`ctxform_trace_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Whether tracing is currently enabled.
    pub enabled: bool,
    /// Ring shards in the collector.
    pub shards: usize,
    /// Per-ring record capacity.
    pub capacity: usize,
    /// Records currently resident across all rings.
    pub records: usize,
    /// Records evicted (summed over rings) since the last reset.
    pub dropped: u64,
}

/// Collector occupancy and drop accounting across all ring shards.
pub fn trace_stats() -> TraceStats {
    let mut stats = TraceStats {
        enabled: tracing_enabled(),
        shards: RING_SHARDS,
        ..TraceStats::default()
    };
    if let Some(c) = COLLECTOR.get() {
        for ring in &c.rings {
            let ring = ring.lock().unwrap();
            stats.capacity = ring.capacity;
            stats.records += ring.records.len();
            stats.dropped += ring.dropped;
        }
    } else {
        stats.capacity = DEFAULT_CAPACITY;
    }
    stats
}

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, sizes, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (seconds, ratios).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (config tags, trace ids).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Whether a [`Record`] covers a duration or marks an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A closed span: `dur_us` is meaningful.
    Span,
    /// A point event: `dur_us` is zero.
    Event,
}

/// A finished span or event as stored in the ring buffer.
#[derive(Debug, Clone)]
pub struct Record {
    /// Unique id (process-wide, monotonically assigned).
    pub id: u64,
    /// Id of the enclosing span (same-thread stack or explicit
    /// [`SpanContext`]), if any.
    pub parent: Option<u64>,
    /// Static name, e.g. `"solver.solve"`.
    pub name: &'static str,
    /// Span or event.
    pub kind: RecordKind,
    /// Microseconds since the collector epoch (first use of tracing).
    pub start_us: u64,
    /// Duration in microseconds (0 for events).
    pub dur_us: u64,
    /// Attached key/value fields, in insertion order.
    pub fields: Vec<(&'static str, Value)>,
}

/// A copyable handle to a live (or recently closed) span, used to carry
/// parentage across threads: capture it with [`Span::context`] on one
/// thread, and open children under it elsewhere with [`span_under`] or
/// [`record_span_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext(u64);

impl SpanContext {
    /// The referenced span's record id.
    pub fn id(self) -> u64 {
        self.0
    }
}

struct Ring {
    capacity: usize,
    dropped: u64,
    records: VecDeque<Record>,
}

impl Ring {
    fn push(&mut self, rec: Record) {
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
    }

    fn evict_to_capacity(&mut self) {
        while self.records.len() > self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
    }
}

struct Collector {
    epoch: Instant,
    next_id: AtomicU64,
    next_ring: AtomicUsize,
    rings: Vec<Mutex<Ring>>,
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_ring: AtomicUsize::new(0),
        rings: (0..RING_SHARDS)
            .map(|_| {
                Mutex::new(Ring {
                    capacity: DEFAULT_CAPACITY,
                    dropped: 0,
                    records: VecDeque::new(),
                })
            })
            .collect(),
    })
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's ring shard; assigned round-robin on first use.
    static RING_IX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's ring, assigning one round-robin on first use.
fn my_ring(c: &'static Collector) -> &'static Mutex<Ring> {
    let ix = RING_IX.with(|cell| {
        let mut ix = cell.get();
        if ix == usize::MAX {
            ix = c.next_ring.fetch_add(1, Ordering::Relaxed) % RING_SHARDS;
            cell.set(ix);
        }
        ix
    });
    &c.rings[ix]
}

struct SpanInner {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    start_us: u64,
    fields: Vec<(&'static str, Value)>,
    /// Whether the id was pushed onto the creating thread's parent
    /// stack. Detached spans are never stacked, so their guards can be
    /// dropped on any thread.
    on_stack: bool,
}

/// RAII guard returned by [`span`]; records a [`Record`] on drop.
///
/// When tracing is disabled at creation time the guard is inert (no id,
/// no fields, nothing recorded on drop).
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Builder-style field attachment: `span("x").field("n", 3u64)`.
    /// No-op on an inert guard.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into()));
        }
        self
    }

    /// Attach a field to an already-bound guard (e.g. a result computed
    /// inside the span). No-op on an inert guard.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into()));
        }
    }

    /// `true` iff this guard will produce a record on drop.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id, if active (useful for cross-thread parent links).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// A copyable context handle for opening children of this span on
    /// other threads; `None` on an inert guard.
    pub fn context(&self) -> Option<SpanContext> {
        self.inner.as_ref().map(|i| SpanContext(i.id))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            if inner.on_stack {
                SPAN_STACK.with(|s| {
                    let mut stack = s.borrow_mut();
                    if let Some(pos) = stack.iter().rposition(|&id| id == inner.id) {
                        stack.remove(pos);
                    }
                });
            }
            let dur_us = inner.start.elapsed().as_micros() as u64;
            let rec = Record {
                id: inner.id,
                parent: inner.parent,
                name: inner.name,
                kind: RecordKind::Span,
                start_us: inner.start_us,
                dur_us,
                fields: inner.fields,
            };
            let c = collector();
            my_ring(c).lock().unwrap().push(rec);
        }
    }
}

fn open_span(name: &'static str, parent: Option<u64>, on_stack: bool) -> Span {
    let c = collector();
    let id = c.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = if on_stack {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = parent.or_else(|| stack.last().copied());
            stack.push(id);
            parent
        })
    } else {
        parent
    };
    let start = Instant::now();
    let start_us = start.duration_since(c.epoch).as_micros() as u64;
    Span {
        inner: Some(SpanInner {
            id,
            parent,
            name,
            start,
            start_us,
            fields: Vec::new(),
            on_stack,
        }),
    }
}

/// Open a span. Returns an inert guard (one relaxed load, nothing else)
/// when tracing is disabled. Bind the result — `let _span = span(..);` —
/// so the region closes where the binding goes out of scope.
pub fn span(name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span { inner: None };
    }
    open_span(name, None, true)
}

/// Open a span as a child of an explicit [`SpanContext`] instead of the
/// thread's innermost span. The new span still registers on the calling
/// thread's stack, so same-thread descendants nest under it — create and
/// drop it on one thread.
pub fn span_under(name: &'static str, parent: Option<SpanContext>) -> Span {
    if !tracing_enabled() {
        return Span { inner: None };
    }
    open_span(name, parent.map(|p| p.0), true)
}

/// Open a **detached** root span: it takes no parent from — and is never
/// pushed onto — the creating thread's span stack, so the guard can be
/// moved across threads (e.g. riding a shard job queue) and dropped
/// wherever the work finishes. Use [`Span::context`] to parent children
/// under it explicitly.
pub fn span_detached(name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span { inner: None };
    }
    open_span(name, None, false)
}

/// Retroactively record a span that started at `start` and ends now —
/// for phases whose duration is measured after the fact, like the time a
/// job spent waiting in a shard queue (only known at dequeue). One
/// relaxed load when disabled.
pub fn record_span_at(
    name: &'static str,
    parent: Option<SpanContext>,
    start: Instant,
    fields: Vec<(&'static str, Value)>,
) {
    if !tracing_enabled() {
        return;
    }
    let c = collector();
    let id = c.next_id.fetch_add(1, Ordering::Relaxed);
    let rec = Record {
        id,
        parent: parent.map(|p| p.0),
        name,
        kind: RecordKind::Span,
        start_us: start.saturating_duration_since(c.epoch).as_micros() as u64,
        dur_us: start.elapsed().as_micros() as u64,
        fields,
    };
    my_ring(c).lock().unwrap().push(rec);
}

/// Record a point event with fields. One relaxed load when disabled.
pub fn event(name: &'static str, fields: Vec<(&'static str, Value)>) {
    if !tracing_enabled() {
        return;
    }
    let c = collector();
    let id = c.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    let start_us = c.epoch.elapsed().as_micros() as u64;
    let rec = Record {
        id,
        parent,
        name,
        kind: RecordKind::Event,
        start_us,
        dur_us: 0,
        fields,
    };
    my_ring(c).lock().unwrap().push(rec);
}

/// A copy of the collector's contents at one instant.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// Records evicted from the rings before this dump was taken.
    pub dropped: u64,
    /// Surviving records merged across all ring shards, ordered by
    /// `(start_us, id)`.
    pub records: Vec<Record>,
}

fn merge_sorted(mut records: Vec<Record>, dropped: u64) -> TraceDump {
    records.sort_by_key(|r| (r.start_us, r.id));
    TraceDump { dropped, records }
}

/// Copy the current ring contents without disturbing them.
pub fn snapshot() -> TraceDump {
    match COLLECTOR.get() {
        Some(c) => {
            let mut records = Vec::new();
            let mut dropped = 0;
            for ring in &c.rings {
                let ring = ring.lock().unwrap();
                dropped += ring.dropped;
                records.extend(ring.records.iter().cloned());
            }
            merge_sorted(records, dropped)
        }
        None => TraceDump {
            dropped: 0,
            records: Vec::new(),
        },
    }
}

/// Drain the rings: returns everything collected so far and leaves the
/// buffers empty with the drop counters reset.
pub fn take_trace() -> TraceDump {
    match COLLECTOR.get() {
        Some(c) => {
            let mut records = Vec::new();
            let mut dropped = 0;
            for ring in &c.rings {
                let mut ring = ring.lock().unwrap();
                dropped += ring.dropped;
                ring.dropped = 0;
                records.extend(ring.records.drain(..));
            }
            merge_sorted(records, dropped)
        }
        None => TraceDump {
            dropped: 0,
            records: Vec::new(),
        },
    }
}

impl TraceDump {
    /// Serialize as a single JSON document:
    /// `{"schema": "ctxform-trace/1", "dropped": N, "records": [...]}`.
    ///
    /// Each record is
    /// `{"id": .., "parent": ..|null, "kind": "span"|"event", "name": ..,
    ///   "start_us": .., "dur_us": .., "fields": {..}}` — parseable by
    /// any JSON reader (the workspace round-trips it through
    /// `ctxform_server::json` in tests).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.records.len() * 96);
        out.push_str("{\"schema\": \"ctxform-trace/1\", \"dropped\": ");
        out.push_str(&self.dropped.to_string());
        out.push_str(", \"records\": [");
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_record(&mut out, rec);
        }
        out.push_str("]}");
        out
    }
}

fn write_record(out: &mut String, rec: &Record) {
    out.push_str("{\"id\": ");
    out.push_str(&rec.id.to_string());
    out.push_str(", \"parent\": ");
    match rec.parent {
        Some(p) => out.push_str(&p.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(", \"kind\": ");
    out.push_str(match rec.kind {
        RecordKind::Span => "\"span\"",
        RecordKind::Event => "\"event\"",
    });
    out.push_str(", \"name\": ");
    write_json_string(out, rec.name);
    out.push_str(", \"start_us\": ");
    out.push_str(&rec.start_us.to_string());
    out.push_str(", \"dur_us\": ");
    out.push_str(&rec.dur_us.to_string());
    out.push_str(", \"fields\": {");
    for (i, (key, value)) in rec.fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(out, key);
        out.push_str(": ");
        write_json_value(out, value);
    }
    out.push_str("}}");
}

fn write_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => {
            if v.is_finite() {
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(s) => write_json_string(out, s),
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
