//! Shards and the digest router.
//!
//! The serving tier is shard-per-core: N independent [`Shard`]s, each
//! owning its own [`DbManager`] (result LRU + incremental database LRU),
//! its own bounded job queue, and its own worker pool. A program digest is
//! routed to exactly one shard by a consistent-hash ring, so a given
//! program's database lives (and is reused) on exactly one shard instead
//! of every request serializing through one cache mutex. Backpressure is
//! per shard and explicit: a full shard queue sheds the request with a
//! typed `overloaded` reply instead of queueing without bound.
//!
//! Two routing refinements layer on top of the ring:
//!
//! * **Update-chain overrides.** The `update` op caches the edited
//!   program's database on the shard that holds the *base* database (that
//!   is where the incremental resume happens). When the edited digest's
//!   ring position differs, the router records an override so follow-up
//!   queries land where the database actually lives.
//! * **Hot-digest replication.** Optionally, a digest that crosses an
//!   access threshold gets its program `Arc` copied to the next shard on
//!   the ring; read queries then alternate between primary and replica,
//!   halving per-shard load for skewed traffic at the cost of one extra
//!   solve on the replica.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use ctxform_demand::DemandEngine;
use ctxform_hash::{fx_hash_one, FxHashMap, SplitMix64};

use crate::db::{CacheSnapshot, DbManager};
use crate::protocol::{Request, RequestMeta};

/// Virtual ring points per shard: enough that the digest space splits
/// evenly across small shard counts.
const RING_POINTS_PER_SHARD: usize = 64;

/// One queued unit of work: a parsed request plus everything the shard
/// worker needs to build and deliver the reply line.
pub(crate) struct Job {
    /// The parsed request (always a shard-routed op).
    pub request: Request,
    /// Reply envelope (id, trace, seq) to echo.
    pub meta: RequestMeta,
    /// When the request line was read off the socket — the deadline and
    /// latency clock starts here, so time spent queued counts.
    pub started: Instant,
    /// When the job entered the shard queue — `server.queue_wait` spans
    /// measure from here to the worker pop.
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

/// Programs whose demand index a shard keeps (one index per digest);
/// an index is a flat CI fixpoint plus reverse input rows, orders of
/// magnitude smaller than a solved context-sensitive database, so the
/// bound is generous.
const DEMAND_INDEX_CAPACITY: usize = 128;

/// One independent serving shard.
pub struct Shard {
    /// The shard-local database manager: result LRU, incremental database
    /// LRU, loaded programs.
    pub db: DbManager,
    /// The shard-local demand-query engine (per-digest index cache), so a
    /// digest's demand index lives on the shard its queries route to —
    /// mirroring the database cache.
    pub demand: DemandEngine,
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is queued (and broadcast on shutdown).
    pub(crate) available: Condvar,
    depth: usize,
    routed: AtomicU64,
    rejected: AtomicU64,
}

/// A point-in-time view of one shard's queue and routing counters.
#[derive(Debug, Clone, Copy)]
pub struct ShardSnapshot {
    /// Jobs currently waiting in the shard queue.
    pub queued: usize,
    /// Requests routed to this shard since start.
    pub routed: u64,
    /// Requests shed with `overloaded` because the queue was full.
    pub rejected: u64,
    /// The shard's database cache counters.
    pub db: CacheSnapshot,
}

impl Shard {
    pub(crate) fn new(db: DbManager, depth: usize) -> Self {
        Shard {
            db,
            demand: DemandEngine::new(DEMAND_INDEX_CAPACITY),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            depth: depth.max(1),
            routed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Enqueues a job unless the shard is at its depth bound. Returns the
    /// job back to the caller on rejection so it can build the
    /// `overloaded` reply (per-shard load shedding). Rejection is the
    /// hot backpressure path, so handing the job back (rather than
    /// boxing it) is deliberate.
    #[allow(clippy::result_large_err)]
    pub(crate) fn submit(&self, job: Job) -> Result<(), Job> {
        let mut queue = self.queue.lock().unwrap();
        if queue.len() >= self.depth {
            drop(queue);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(job);
        }
        self.routed.fetch_add(1, Ordering::Relaxed);
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

    /// Current queue depth (the `ctxform_shard_queue_depth` gauge).
    pub fn queued(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Snapshot of this shard's counters.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            queued: self.queued(),
            routed: self.routed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            db: self.db.snapshot(),
        }
    }
}

/// Replication bookkeeping for one digest.
struct HotState {
    /// Read queries routed for this digest since start.
    hits: u64,
    /// Set once the program has been copied to the replica shard.
    replicated: bool,
}

/// Routes program digests to shards.
pub struct Router {
    shards: Vec<Shard>,
    /// Sorted virtual ring: `(point hash, shard index)`.
    ring: Vec<(u64, usize)>,
    /// Digests whose database was created away from their ring position
    /// (update chains follow the base program's shard).
    overrides: Mutex<FxHashMap<u64, usize>>,
    /// Per-digest read counters driving replication.
    hot: Mutex<FxHashMap<u64, HotState>>,
    /// Digests currently replicated (the exported gauge).
    replicated: AtomicU64,
    /// Round-robin cursor for shardless ops (`sleep` without a pin).
    cursor: AtomicUsize,
    replicate_after: Option<u64>,
}

impl Router {
    /// Builds a ring over `shards`; `replicate_after` enables hot-digest
    /// replication once a digest has served that many read queries
    /// (`None` = replication off).
    pub(crate) fn new(shards: Vec<Shard>, replicate_after: Option<u64>) -> Self {
        let mut ring = Vec::with_capacity(shards.len() * RING_POINTS_PER_SHARD);
        for shard in 0..shards.len() {
            // SplitMix64 gives full-avalanche ring points; fx hashes of
            // small sequential tuples cluster and skew the arcs badly.
            let mut points = SplitMix64::new(fx_hash_one(&("ctxform-shard-ring", shard)));
            for _ in 0..RING_POINTS_PER_SHARD {
                ring.push((points.next_u64(), shard));
            }
        }
        ring.sort_unstable();
        Router {
            shards,
            ring,
            overrides: Mutex::new(FxHashMap::default()),
            hot: Mutex::new(FxHashMap::default()),
            replicated: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
            replicate_after,
        }
    }

    /// The shard list (index-addressable).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Digests currently replicated to a second shard.
    pub fn replicated_digests(&self) -> u64 {
        self.replicated.load(Ordering::Relaxed)
    }

    /// The digest's position on the ring, finalizer-mixed so that
    /// structurally similar digests land on unrelated arcs.
    fn ring_key(digest: u64) -> u64 {
        SplitMix64::new(digest).next_u64()
    }

    /// The ring-designated shard of a digest, before overrides.
    fn ring_shard(&self, digest: u64) -> usize {
        let key = Self::ring_key(digest);
        let at = self.ring.partition_point(|&(point, _)| point < key);
        self.ring[at % self.ring.len()].1
    }

    /// The next *distinct* shard walking the ring from the digest's
    /// position — the replica target. `None` with a single shard.
    fn replica_shard(&self, digest: u64, primary: usize) -> Option<usize> {
        if self.shards.len() < 2 {
            return None;
        }
        let start = self
            .ring
            .partition_point(|&(point, _)| point < Self::ring_key(digest));
        (0..self.ring.len())
            .map(|step| self.ring[(start + step) % self.ring.len()].1)
            .find(|&shard| shard != primary)
    }

    /// The shard that owns `digest`'s database: the recorded override if
    /// one exists, the ring position otherwise.
    pub fn owner(&self, digest: u64) -> usize {
        if let Some(&shard) = self.overrides.lock().unwrap().get(&digest) {
            return shard;
        }
        self.ring_shard(digest)
    }

    /// Routes a *read* query (analyze / points-to / call-edges / …):
    /// usually the owner, alternating with the replica once the digest has
    /// been replicated. Also advances the hot counter and performs the
    /// one-time replication copy when the threshold is crossed.
    pub fn route_query(&self, digest: u64) -> usize {
        let primary = self.owner(digest);
        let Some(threshold) = self.replicate_after else {
            return primary;
        };
        let Some(replica) = self.replica_shard(digest, primary) else {
            return primary;
        };
        let mut hot = self.hot.lock().unwrap();
        let state = hot.entry(digest).or_insert(HotState {
            hits: 0,
            replicated: false,
        });
        state.hits += 1;
        if !state.replicated {
            if state.hits < threshold {
                return primary;
            }
            // Crossing the threshold: copy the program Arc to the replica
            // (its database cache warms on first use there).
            let Some(program) = self.shards[primary].db.program(digest) else {
                return primary;
            };
            self.shards[replica].db.adopt_program(digest, program);
            state.replicated = true;
            self.replicated.fetch_add(1, Ordering::Relaxed);
        }
        // Replicated: alternate primary/replica by hit parity.
        if state.hits.is_multiple_of(2) {
            replica
        } else {
            primary
        }
    }

    /// Records that `digest`'s database was created on `shard` (the
    /// `update` path caching the edited program's database next to its
    /// base). A no-op when the ring already agrees.
    pub fn record_owner(&self, digest: u64, shard: usize) {
        if self.ring_shard(digest) != shard {
            self.overrides.lock().unwrap().insert(digest, shard);
        }
    }

    /// Round-robin shard pick for ops without a digest (`sleep`).
    pub fn next_round_robin(&self) -> usize {
        self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize, replicate_after: Option<u64>) -> Router {
        let shards = (0..n)
            .map(|_| Shard::new(DbManager::new(1 << 20), 4))
            .collect();
        Router::new(shards, replicate_after)
    }

    #[test]
    fn ring_routing_is_deterministic_and_spreads() {
        let r = router(4, None);
        let mut per_shard = [0usize; 4];
        // Real digests are fx hashes spread across u64 space; raw small
        // integers would all sit below the first ring point.
        for digest in (0..4096u64).map(|i| fx_hash_one(&i)) {
            let a = r.owner(digest);
            assert_eq!(a, r.owner(digest), "routing must be stable");
            per_shard[a] += 1;
        }
        for (shard, &count) in per_shard.iter().enumerate() {
            assert!(
                count > 4096 / 16,
                "shard {shard} got {count} of 4096 digests — ring badly skewed: {per_shard:?}"
            );
        }
    }

    #[test]
    fn overrides_rehome_update_chains() {
        let r = router(4, None);
        let digest = (0..u64::MAX)
            .find(|&d| r.owner(d) != 2)
            .expect("some digest not owned by shard 2");
        r.record_owner(digest, 2);
        assert_eq!(r.owner(digest), 2, "override wins over the ring");
        assert_eq!(r.route_query(digest), 2);
    }

    #[test]
    fn replica_is_a_distinct_shard() {
        let r = router(2, Some(4));
        for digest in 0..256u64 {
            let primary = r.ring_shard(digest);
            let replica = r.replica_shard(digest, primary).unwrap();
            assert_ne!(primary, replica);
        }
        assert_eq!(router(1, Some(4)).replica_shard(7, 0), None);
    }

    #[test]
    fn hot_digest_replicates_and_alternates() {
        let r = router(2, Some(4));
        let digest = 42u64;
        let primary = r.owner(digest);
        // Cold: replication needs the program resident on the primary.
        let module = ctxform_minijava::compile(ctxform_minijava::corpus::BOX).unwrap();
        let (real_digest, program) = r.shards()[primary].db.load_program(module.program);
        let _ = real_digest;
        r.shards()[primary].db.adopt_program(digest, program);
        for _ in 0..3 {
            assert_eq!(r.route_query(digest), primary, "below the threshold");
        }
        assert_eq!(r.replicated_digests(), 0);
        let mut routed = std::collections::HashSet::new();
        for _ in 0..8 {
            routed.insert(r.route_query(digest));
        }
        assert_eq!(r.replicated_digests(), 1, "threshold crossed once");
        assert_eq!(routed.len(), 2, "queries alternate primary/replica");
        let replica = r.replica_shard(digest, primary).unwrap();
        assert!(
            r.shards()[replica].db.program(digest).is_some(),
            "program Arc copied to the replica"
        );
    }

    #[test]
    fn queue_bound_sheds_and_counts() {
        use std::sync::mpsc::sync_channel;
        let shard = Shard::new(DbManager::new(1 << 20), 2);
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
        assert!(shard.submit(job(1)).is_ok());
        assert!(shard.submit(job(2)).is_ok());
        let rejected = shard.submit(job(3));
        assert!(rejected.is_err(), "third job must be shed at depth 2");
        assert_eq!(rejected.unwrap_err().meta.seq, Some(3), "job handed back");
        let snap = shard.snapshot();
        assert_eq!((snap.queued, snap.routed, snap.rejected), (2, 2, 1));
    }
}
