//! Tail-latency attribution: slowest-request exemplars and the flight
//! recorder.
//!
//! The [`ExemplarStore`] keeps the slowest [`EXEMPLARS_PER_ENDPOINT`]
//! requests per endpoint — trace id, latency, seq, outcome, and root span
//! id — so `trace {exemplars: true}` can reconstruct each one's span
//! subtree from the ring and show exactly where a tail request's time
//! went. The [`FlightRecorder`] dumps the trace ring plus the job
//! queue's depth to a file when a request busts its deadline or the
//! process panics, preserving the evidence a post-mortem needs.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Slowest requests retained per endpoint. Small on purpose: exemplars
/// are for "show me *one* bad request end to end", not statistics — the
/// histograms in `metrics` already cover distributions.
pub const EXEMPLARS_PER_ENDPOINT: usize = 4;

/// One retained slow request.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The endpoint label.
    pub endpoint: &'static str,
    /// The request's trace id (client-supplied or the server fallback).
    pub trace: String,
    /// End-to-end server latency in microseconds.
    pub latency_us: u64,
    /// The per-connection request sequence number.
    pub seq: Option<u64>,
    /// Whether the reply was an error.
    pub error: bool,
    /// The `server.request` root span id, when tracing captured one —
    /// the key for reconstructing the span subtree from the ring.
    pub root: Option<u64>,
}

/// Bounded slowest-N store, keyed by endpoint.
#[derive(Default)]
pub struct ExemplarStore {
    inner: Mutex<Vec<(&'static str, Vec<Exemplar>)>>,
}

impl ExemplarStore {
    /// Offers one finished request; it is retained iff it ranks among the
    /// endpoint's [`EXEMPLARS_PER_ENDPOINT`] slowest so far.
    pub fn offer(&self, exemplar: Exemplar) {
        let mut inner = self.inner.lock().unwrap();
        let slot = match inner.iter_mut().find(|(e, _)| *e == exemplar.endpoint) {
            Some((_, list)) => list,
            None => {
                inner.push((exemplar.endpoint, Vec::new()));
                &mut inner.last_mut().unwrap().1
            }
        };
        let at = slot
            .iter()
            .position(|e| exemplar.latency_us > e.latency_us)
            .unwrap_or(slot.len());
        if at >= EXEMPLARS_PER_ENDPOINT {
            return;
        }
        slot.insert(at, exemplar);
        slot.truncate(EXEMPLARS_PER_ENDPOINT);
    }

    /// Every retained exemplar, slowest first within each endpoint,
    /// endpoints in first-seen order.
    pub fn snapshot(&self) -> Vec<Exemplar> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .flat_map(|(_, list)| list.iter().cloned())
            .collect()
    }
}

/// Minimum spacing between flight dumps: a deadline storm must not turn
/// the recorder into a disk-bandwidth incident of its own.
const DUMP_INTERVAL: Duration = Duration::from_secs(1);

/// Dumps the trace ring and the job queue's depth to a file on panic or
/// deadline bust.
pub struct FlightRecorder {
    path: PathBuf,
    last_dump: Mutex<Option<Instant>>,
}

impl FlightRecorder {
    /// A recorder writing to `path` (overwritten on each dump — the
    /// newest incident is the one a post-mortem wants).
    pub fn new(path: PathBuf) -> Self {
        FlightRecorder {
            path,
            last_dump: Mutex::new(None),
        }
    }

    /// The dump destination.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Writes `{"schema": "ctxform-flight/2", reason, queued, trace}` to
    /// the recorder's file, `queued` being the jobs waiting in the queue.
    /// Rate-limited to one dump per second; returns whether a dump was
    /// written.
    pub fn dump(&self, reason: &str, queued: usize) -> bool {
        {
            let mut last = self.last_dump.lock().unwrap();
            if let Some(at) = *last {
                if at.elapsed() < DUMP_INTERVAL {
                    return false;
                }
            }
            *last = Some(Instant::now());
        }
        let trace = ctxform_obs::snapshot();
        // The trace dump is already a JSON object; splice it in as the
        // `trace` value rather than re-parsing it.
        let doc = format!(
            "{{\"schema\": \"ctxform-flight/2\", \"reason\": {}, \"queued\": {queued}, \"trace\": {}}}\n",
            crate::json::Json::str(reason).to_line(),
            trace.to_json().trim_end(),
        );
        match std::fs::write(&self.path, doc) {
            Ok(()) => {
                ctxform_obs::logger::warn(
                    "flight",
                    format!("dumped flight record ({reason}) to {}", self.path.display()),
                );
                true
            }
            Err(e) => {
                ctxform_obs::logger::error(
                    "flight",
                    format!("cannot write flight record to {}: {e}", self.path.display()),
                );
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplar(endpoint: &'static str, latency_us: u64) -> Exemplar {
        Exemplar {
            endpoint,
            trace: format!("t-{latency_us}"),
            latency_us,
            seq: Some(1),
            error: false,
            root: None,
        }
    }

    #[test]
    fn store_keeps_slowest_n_per_endpoint() {
        let store = ExemplarStore::default();
        for us in [10, 50, 20, 40, 30, 60] {
            store.offer(exemplar("analyze", us));
        }
        store.offer(exemplar("stats", 5));
        let snap = store.snapshot();
        let analyze: Vec<u64> = snap
            .iter()
            .filter(|e| e.endpoint == "analyze")
            .map(|e| e.latency_us)
            .collect();
        assert_eq!(analyze, vec![60, 50, 40, 30], "slowest four, ordered");
        assert_eq!(
            snap.iter().filter(|e| e.endpoint == "stats").count(),
            1,
            "endpoints are tracked independently"
        );
    }

    #[test]
    fn flight_dump_writes_schema_and_rate_limits() {
        let path =
            std::env::temp_dir().join(format!("ctxform-flight-test-{}.json", std::process::id()));
        let recorder = FlightRecorder::new(path.clone());
        assert!(recorder.dump("deadline_exceeded", 3));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema\": \"ctxform-flight/2\""));
        assert!(text.contains("\"reason\": \"deadline_exceeded\""));
        assert!(text.contains("\"queued\": 3"));
        assert!(text.contains("\"trace\""));
        assert!(
            !recorder.dump("deadline_exceeded", 0),
            "second dump within a second is suppressed"
        );
        let _ = std::fs::remove_file(&path);
    }
}
