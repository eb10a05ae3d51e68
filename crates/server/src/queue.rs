//! The bounded job queue between connection readers and the worker pool.
//!
//! Every request that touches a program database is queued here and
//! drained by [`crate::server::ServerConfig::threads`] workers sharing one
//! [`crate::db::DbManager`]. Backpressure is explicit: a full queue sheds
//! the request with a typed `overloaded` reply instead of queueing without
//! bound.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::protocol::{Request, RequestMeta};

/// One queued unit of work: a parsed request plus everything the worker
/// needs to build and deliver the reply line.
pub(crate) struct Job {
    /// The parsed request (always a queued op).
    pub request: Request,
    /// Reply envelope (id, trace, seq) to echo.
    pub meta: RequestMeta,
    /// When the request line was read off the socket — the deadline and
    /// latency clock starts here, so time spent queued counts.
    pub started: Instant,
    /// When the job entered the queue — `server.queue_wait` spans measure
    /// from here to the worker pop.
    pub enqueued: Instant,
    /// Process-unique connection id (trace-id fallback component).
    pub conn: u64,
    /// The request's root span context; worker-side phase spans
    /// (`server.queue_wait`, `server.solve`) parent under it.
    pub ctx: Option<ctxform_obs::SpanContext>,
    /// The detached `server.request` root span itself, carried across the
    /// queue so it closes when the worker finishes the reply (its duration
    /// covers queue wait + solve + serialize).
    pub span: Option<ctxform_obs::Span>,
    /// Where the finished reply line goes (the connection's writer drain).
    pub reply: SyncSender<String>,
}

/// A FIFO of [`Job`]s bounded at a fixed depth.
pub(crate) struct JobQueue {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is queued (and broadcast on shutdown).
    available: Condvar,
    depth: usize,
    rejected: AtomicU64,
}

impl JobQueue {
    pub(crate) fn new(depth: usize) -> Self {
        JobQueue {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            depth: depth.max(1),
            rejected: AtomicU64::new(0),
        }
    }

    /// Enqueues a job unless the queue is at its depth bound. Returns the
    /// job back to the caller on rejection so it can build the
    /// `overloaded` reply. Rejection is the hot backpressure path, so
    /// handing the job back (rather than boxing it) is deliberate.
    #[allow(clippy::result_large_err)]
    pub(crate) fn submit(&self, job: Job) -> Result<(), Job> {
        let mut queue = self.queue.lock().unwrap();
        if queue.len() >= self.depth {
            drop(queue);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(job);
        }
        queue.push_back(job);
        drop(queue);
        self.available.notify_one();
        Ok(())
    }

    /// Pops the next job, blocking until one arrives or `is_shutdown`
    /// turns true with an empty queue (drain: everything already queued is
    /// still served).
    pub(crate) fn next_job(&self, is_shutdown: impl Fn() -> bool) -> Option<Job> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if is_shutdown() {
                return None;
            }
            queue = self.available.wait(queue).unwrap();
        }
    }

    /// Empties the queue, returning the leftover jobs (the post-shutdown
    /// backstop: anything still queued after the workers exited must be
    /// answered so connection writers are not left waiting).
    pub(crate) fn drain(&self) -> Vec<Job> {
        self.queue.lock().unwrap().drain(..).collect()
    }

    /// Wakes every worker parked on the queue (shutdown broadcast).
    pub(crate) fn wake_all(&self) {
        let _guard = self.queue.lock().unwrap();
        self.available.notify_all();
    }

    /// Jobs currently waiting (the `ctxform_queue_depth` gauge).
    pub(crate) fn queued(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Requests shed with `overloaded` since start.
    pub(crate) fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bound_sheds_and_counts() {
        use std::sync::mpsc::sync_channel;
        let queue = JobQueue::new(2);
        let (tx, _rx) = sync_channel(8);
        let job = |seq| Job {
            request: Request::Stats,
            meta: RequestMeta {
                id: None,
                trace: None,
                seq: Some(seq),
            },
            started: Instant::now(),
            enqueued: Instant::now(),
            conn: 1,
            ctx: None,
            span: None,
            reply: tx.clone(),
        };
        assert!(queue.submit(job(1)).is_ok());
        assert!(queue.submit(job(2)).is_ok());
        let rejected = queue.submit(job(3));
        assert!(rejected.is_err(), "third job must be shed at depth 2");
        assert_eq!(rejected.unwrap_err().meta.seq, Some(3), "job handed back");
        assert_eq!((queue.queued(), queue.rejected()), (2, 1));
    }
}
