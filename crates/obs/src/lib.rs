//! Zero-dependency structured observability for the ctxform workspace.
//!
//! Three small, orthogonal pieces:
//!
//! * [`trace`] — hierarchical spans (request → solve)
//!   and point events, collected into bounded thread-sharded ring
//!   buffers (merged on export) and exportable as JSON, with explicit
//!   [`trace::SpanContext`] handles for carrying parentage across thread
//!   hops. The entire subsystem is gated behind one
//!   global flag: when tracing is disabled (the default), creating a
//!   span costs exactly one relaxed atomic load and no allocation, so
//!   the solver hot loop pays nothing.
//! * [`metrics`] — lock-free counters, gauges, and fixed-bucket
//!   histograms, optionally grouped in a [`metrics::Registry`], with a
//!   Prometheus text-exposition renderer ([`metrics::PromText`]).
//! * [`logger`] — a leveled, timestamped line logger for operator-facing
//!   diagnostics (replacing scattered `eprintln!`), with a capturable
//!   sink for tests.
//!
//! The crate is deliberately std-only: the build environment is offline
//! and the workspace carries no third-party dependencies.

pub mod logger;
pub mod metrics;
pub mod trace;

pub use logger::{logger_stats, Level, LoggerStats};
pub use trace::{
    clear_trace, disable_tracing, enable_tracing, event, record_span_at, snapshot, span,
    span_detached, span_under, take_trace, trace_stats, tracing_enabled, Record, RecordKind, Span,
    SpanContext, TraceDump, TraceStats, Value,
};
