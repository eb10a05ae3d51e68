//! The analysis database manager: loaded programs plus an LRU cache of
//! solved [`AnalysisResult`]s.
//!
//! Programs are keyed by a content digest ([`ctxform_hash::fx_hash_one`]
//! over the canonical [`ctxform_ir::text::emit`] rendering), so the same
//! program loaded from MiniJava source or from a fact file lands on the
//! same key. Solved databases are keyed by `(program digest, config tag)`
//! and held behind `Arc` so concurrent readers share one solution; an
//! explicit byte budget bounds resident results with least-recently-used
//! eviction. Concurrent requests for the same uncached key coalesce: one
//! thread solves while the rest wait on a condvar, so a thundering herd
//! performs exactly one solve.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ctxform::{analyze, AnalysisConfig, AnalysisDb, AnalysisResult, ExtendOutcome, SolverStats};
use ctxform_hash::fx_hash_one;
use ctxform_ir::{text, Program};
use ctxform_obs::metrics::{Registry, LATENCY_BUCKETS_S};

use crate::protocol::config_tag;

type Key = (u64, String);

/// Why [`DbManager::get_or_solve`] could not produce a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// No loaded program has the requested digest.
    UnknownProgram,
    /// The thread solving this key panicked; the message is the panic
    /// payload. Coalesced waiters receive the same error instead of
    /// hanging, and the next fresh request retries the solve.
    SolveFailed(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownProgram => f.write_str("no loaded program has that digest"),
            DbError::SolveFailed(msg) => write!(f, "analysis failed: {msg}"),
        }
    }
}

/// One resident solved database.
struct Entry {
    result: Arc<AnalysisResult>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<Key, Entry>,
    /// Keys currently being solved by some thread.
    pending: HashSet<Key>,
    /// Keys whose last solve panicked: the tick it failed at plus the
    /// panic message. Waiters that entered before the failure observe it
    /// and error out; a request entering *after* the failure clears the
    /// record when it claims the key, so the solve is retried.
    failed: HashMap<Key, (u64, String)>,
    bytes: usize,
    tick: u64,
}

/// Removes `key` from `pending` on drop, records the failure, and wakes
/// all coalesced waiters. Armed for exactly the window where this thread
/// owns the pending claim; disarmed once the claim has been handed over
/// on the success path. This is what turns a panicking solve into
/// [`DbError::SolveFailed`] for the waiters instead of a permanent hang.
struct PendingGuard<'a> {
    db: &'a DbManager,
    key: Option<Key>,
    message: String,
}

impl PendingGuard<'_> {
    fn disarm(mut self) {
        self.key = None;
    }
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut state = self.db.cache.lock().unwrap();
            state.tick += 1;
            let tick = state.tick;
            state.pending.remove(&key);
            state
                .failed
                .insert(key, (tick, std::mem::take(&mut self.message)));
            drop(state);
            self.db.solved.notify_all();
        }
    }
}

/// Renders a panic payload for [`DbError::SolveFailed`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "analysis panicked".to_owned()
    }
}

/// Extendable databases kept alive for the `update` op, keyed like the
/// result cache and bounded by entry count (full solver state is much
/// heavier than a projected result, so the bound is deliberately small).
#[derive(Default)]
struct DbCacheState {
    entries: HashMap<Key, (AnalysisDb, u64)>,
    tick: u64,
}

/// Resident [`AnalysisDb`] snapshots retained for incremental updates.
const DB_CACHE_CAP: usize = 8;

/// What [`DbManager::update`] did and produced.
pub struct UpdateReport {
    /// Digest the edited program was loaded (and its solution cached) under.
    pub digest: u64,
    /// Whether a database for the base key was resident when the update
    /// arrived (`false` forces the from-scratch path).
    pub base_cached: bool,
    /// How the edit was satisfied: incremental resume or fallback.
    pub outcome: ExtendOutcome,
    /// The solution of the edited program.
    pub result: Arc<AnalysisResult>,
    /// Canonical digest of the database's derived facts.
    pub fact_digest: u64,
}

/// A point-in-time view of the cache counters (for the `stats` endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Resident solved databases.
    pub entries: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
    /// The configured byte budget.
    pub budget: usize,
    /// Queries answered from cache.
    pub hits: u64,
    /// Queries that had to solve.
    pub misses: u64,
    /// Databases evicted to stay under budget.
    pub evictions: u64,
    /// Loaded programs.
    pub programs: usize,
    /// `update` requests satisfied by resuming a cached database over a
    /// purely-additive edit.
    pub incremental_reuse: u64,
    /// `update` requests whose edited program was identical to the base
    /// (no work performed, cached result re-served).
    pub incremental_noop: u64,
    /// `update` requests satisfied by resuming a cached database through
    /// the DRed (delete-and-rederive) retraction path.
    pub incremental_retract_reuse: u64,
    /// Facts transitively over-deleted across all retraction updates.
    pub incremental_overdeleted: u64,
    /// Over-deleted facts restored by the re-derive pass across all
    /// retraction updates.
    pub incremental_rederived: u64,
    /// `update` requests that fell back to a from-scratch solve.
    pub incremental_fallback: u64,
}

/// Signature of the [`DbManager`] solve hook (test instrumentation).
type SolveFn = dyn Fn(&Program, &AnalysisConfig) -> AnalysisResult + Send + Sync;

/// The concurrent database manager.
pub struct DbManager {
    programs: Mutex<HashMap<u64, Arc<Program>>>,
    cache: Mutex<CacheState>,
    dbs: Mutex<DbCacheState>,
    solved: Condvar,
    budget: usize,
    /// Default solver thread count for requests that leave `threads` at
    /// auto (`0`); `0` defers to the analysis-level auto resolution.
    solver_threads: usize,
    /// When set, replaces the `analyze` call — test instrumentation for
    /// injecting panics and latency into the solve path.
    solve_hook: Option<Box<SolveFn>>,
    /// When set, every fresh solve folds its per-rule counters, fact
    /// totals, and interner gauge into this registry (the `metrics`
    /// endpoint's solver section).
    registry: Option<Arc<Registry>>,
    /// When `true`, fresh solves run with per-rule/per-phase profiling
    /// enabled (result-neutral; timing fields only).
    profile: bool,
    /// When set, every profiled solver run's stats (fresh solves and
    /// updates) are folded into this store (the `profile` endpoint's
    /// data source).
    profile_store: Option<Arc<crate::profile::ProfileStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    incremental_reuse: AtomicU64,
    incremental_noop: AtomicU64,
    incremental_retract_reuse: AtomicU64,
    incremental_overdeleted: AtomicU64,
    incremental_rederived: AtomicU64,
    incremental_fallback: AtomicU64,
}

impl DbManager {
    /// Creates a manager whose solved-result cache targets `budget` bytes.
    pub fn new(budget: usize) -> Self {
        DbManager {
            programs: Mutex::new(HashMap::new()),
            cache: Mutex::new(CacheState::default()),
            dbs: Mutex::new(DbCacheState::default()),
            solved: Condvar::new(),
            budget,
            solver_threads: 0,
            solve_hook: None,
            registry: None,
            profile: false,
            profile_store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            incremental_reuse: AtomicU64::new(0),
            incremental_noop: AtomicU64::new(0),
            incremental_retract_reuse: AtomicU64::new(0),
            incremental_overdeleted: AtomicU64::new(0),
            incremental_rederived: AtomicU64::new(0),
            incremental_fallback: AtomicU64::new(0),
        }
    }

    /// Sets the default solver thread count applied to requests that do
    /// not pick one explicitly (`0` keeps the per-analysis auto default).
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.solver_threads = threads;
        self
    }

    /// `config` with an auto thread count (`0`) replaced by the manager's
    /// default solver width — for every solve the manager runs, and for
    /// demand queries answered next to it.
    pub fn resolve_threads(&self, config: &AnalysisConfig) -> AnalysisConfig {
        let mut config = *config;
        if config.threads == 0 {
            config.threads = self.solver_threads;
        }
        config
    }

    /// The configuration a fresh solve of `config` runs under: threads
    /// resolved, plus profiling when enabled.
    fn solve_config(&self, config: &AnalysisConfig) -> AnalysisConfig {
        let config = self.resolve_threads(config);
        if self.profile {
            config.with_profiling()
        } else {
            config
        }
    }

    /// Attaches a metrics registry: every fresh solve records its rule
    /// counters, fact totals, duration, and interner size there.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Enables (or disables) per-rule/per-phase solver profiling on every
    /// fresh solve. Deliberately *not* part of the cache key: profiling
    /// is result-neutral, so profiled and unprofiled requests share one
    /// cache entry.
    pub fn with_profiling(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches a profile store: every profiled solve folds its rule and
    /// phase timings there.
    pub fn with_profile_store(mut self, store: Arc<crate::profile::ProfileStore>) -> Self {
        self.profile_store = Some(store);
        self
    }

    /// Replaces the solve call — test instrumentation only (public so
    /// integration tests outside the crate can inject panics).
    #[doc(hidden)]
    pub fn set_solve_hook<F>(&mut self, hook: F)
    where
        F: Fn(&Program, &AnalysisConfig) -> AnalysisResult + Send + Sync + 'static,
    {
        self.solve_hook = Some(Box::new(hook));
    }

    /// Registers a validated program, returning its content digest.
    ///
    /// Loading the same program twice is idempotent and cheap (the second
    /// copy is dropped).
    pub fn load_program(&self, program: Program) -> (u64, Arc<Program>) {
        let digest = program_digest(&program);
        let mut programs = self.programs.lock().unwrap();
        let arc = programs
            .entry(digest)
            .or_insert_with(|| Arc::new(program))
            .clone();
        (digest, arc)
    }

    /// Registers an already-shared program under a known digest — the
    /// replication path: the router copies a hot program's `Arc` from its
    /// owning shard into a replica shard without re-emitting or re-hashing
    /// the program text.
    pub fn adopt_program(&self, digest: u64, program: Arc<Program>) {
        self.programs
            .lock()
            .unwrap()
            .entry(digest)
            .or_insert(program);
    }

    /// Looks up a loaded program by digest.
    pub fn program(&self, digest: u64) -> Option<Arc<Program>> {
        self.programs.lock().unwrap().get(&digest).cloned()
    }

    /// Peeks the result cache for `(digest, config)` without ever
    /// solving: `Some` (bumping the LRU stamp and the hit counter) when a
    /// solved database is resident, `None` otherwise — the demand-query
    /// path uses this to fall back to an already-solved database while
    /// guaranteeing a cache miss never triggers an exhaustive solve.
    pub fn cached_result(
        &self,
        digest: u64,
        config: &AnalysisConfig,
    ) -> Option<Arc<AnalysisResult>> {
        let key = (digest, config_tag(config));
        let mut state = self.cache.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        let entry = state.entries.get_mut(&key)?;
        entry.last_used = tick;
        let result = entry.result.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(result)
    }

    /// Returns the solved database for `(digest, config)`, solving at most
    /// once per key across all threads. The boolean is `true` when the
    /// answer came from cache.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownProgram`] when no program with `digest` is loaded;
    /// [`DbError::SolveFailed`] when the solve for this key panicked —
    /// returned both by the solving caller and by every coalesced waiter
    /// (which would previously block on the condvar forever, because the
    /// panicking thread never cleared its pending claim).
    pub fn get_or_solve(
        &self,
        digest: u64,
        config: &AnalysisConfig,
    ) -> Result<(Arc<AnalysisResult>, bool), DbError> {
        let program = self.program(digest).ok_or(DbError::UnknownProgram)?;
        let key = (digest, config_tag(config));
        {
            let mut state = self.cache.lock().unwrap();
            state.tick += 1;
            let entered = state.tick;
            loop {
                state.tick += 1;
                let tick = state.tick;
                if let Some(entry) = state.entries.get_mut(&key) {
                    entry.last_used = tick;
                    let result = entry.result.clone();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((result, true));
                }
                if let Some(&(failed_at, ref msg)) = state.failed.get(&key) {
                    // Only failures that happened while this request was
                    // already waiting count: a stale record from before we
                    // entered is cleared below and the solve retried.
                    if failed_at >= entered {
                        return Err(DbError::SolveFailed(msg.clone()));
                    }
                }
                if state.pending.contains(&key) {
                    state = self.solved.wait(state).unwrap();
                } else {
                    state.failed.remove(&key);
                    state.pending.insert(key.clone());
                    break;
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // From here until the cache insert below, this thread owns the
        // pending claim; the guard turns any unwind into a recorded
        // failure plus a wake-up instead of a leaked claim.
        let mut guard = PendingGuard {
            db: self,
            key: Some(key.clone()),
            message: String::new(),
        };
        let solve_config = self.solve_config(config);
        let solved = catch_unwind(AssertUnwindSafe(|| match &self.solve_hook {
            Some(hook) => hook(&program, &solve_config),
            None => analyze(&program, &solve_config),
        }));
        let result = match solved {
            Ok(result) => Arc::new(result),
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                guard.message = message.clone();
                drop(guard); // records the failure and wakes all waiters
                return Err(DbError::SolveFailed(message));
            }
        };
        if let Some(registry) = &self.registry {
            record_solve_metrics(registry, &result.stats);
        }
        if let Some(store) = &self.profile_store {
            store.record(&result.stats);
        }
        let bytes = approx_result_bytes(&result);
        let mut state = self.cache.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        state.bytes += bytes;
        state.entries.insert(
            key.clone(),
            Entry {
                result: result.clone(),
                bytes,
                last_used: tick,
            },
        );
        // Evict least-recently-used entries (never the one just inserted:
        // it has the freshest tick) until back under budget.
        while state.bytes > self.budget && state.entries.len() > 1 {
            let victim = state
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            if victim == key {
                break;
            }
            let evicted = state.entries.remove(&victim).expect("present");
            state.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        state.pending.remove(&key);
        drop(state);
        guard.disarm();
        self.solved.notify_all();
        Ok((result, false))
    }

    /// Brings the analysis of `base` up to date with the edited program
    /// `next`: loads `next` under its own digest, then — when an
    /// extendable database for `(base, config)` is resident — clones it
    /// and resumes the fixpoint incrementally: purely-additive edits
    /// reseed the frontier, deleting/mutating edits go through the DRed
    /// (delete-and-rederive) retraction path, and anything else falls
    /// back to a from-scratch solve with a typed reason. The produced
    /// database is cached for further updates and its result enters the
    /// ordinary result cache, so follow-up queries on the new digest hit.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownProgram`] when no program with digest `base` is
    /// loaded; [`DbError::SolveFailed`] when the solve panicked.
    pub fn update(
        &self,
        base: u64,
        next: Program,
        config: &AnalysisConfig,
    ) -> Result<UpdateReport, DbError> {
        self.program(base).ok_or(DbError::UnknownProgram)?;
        let (digest, next_arc) = self.load_program(next);
        let tag = config_tag(config);
        let solve_config = self.solve_config(config);
        let cached_db = self.db_cache_get(&(base, tag.clone()));
        let base_cached = cached_db.is_some();
        let solved = catch_unwind(AssertUnwindSafe(|| match cached_db {
            Some(mut db) => {
                let outcome = db.extend((*next_arc).clone());
                (db, outcome)
            }
            None => {
                let db = AnalysisDb::solve((*next_arc).clone(), &solve_config);
                let reason = "no cached database for the base program".to_owned();
                (db, ExtendOutcome::Fallback(reason))
            }
        }));
        let (db, outcome) = match solved {
            Ok(pair) => pair,
            Err(payload) => return Err(DbError::SolveFailed(panic_message(payload.as_ref()))),
        };
        let result = Arc::new(db.result().clone());
        // Every run that did solver work is profiled like a fresh solve;
        // a noop reports cleared run counters and is not a run.
        if !matches!(outcome, ExtendOutcome::Noop) {
            if let Some(store) = &self.profile_store {
                store.record(&result.stats);
            }
        }
        match outcome {
            ExtendOutcome::Incremental => {
                self.incremental_reuse.fetch_add(1, Ordering::Relaxed);
            }
            ExtendOutcome::Noop => {
                // An identical edit does no solver work; counting it as
                // reuse used to overstate incremental coverage.
                self.incremental_noop.fetch_add(1, Ordering::Relaxed);
            }
            ExtendOutcome::Retracted => {
                self.incremental_retract_reuse
                    .fetch_add(1, Ordering::Relaxed);
                self.incremental_overdeleted
                    .fetch_add(result.stats.overdeleted, Ordering::Relaxed);
                self.incremental_rederived
                    .fetch_add(result.stats.rederived, Ordering::Relaxed);
            }
            ExtendOutcome::Fallback(_) => {
                self.incremental_fallback.fetch_add(1, Ordering::Relaxed);
                // Only the fallback performed a *fresh* solve; incremental
                // extensions are accounted by the reuse counter instead.
                if let Some(registry) = &self.registry {
                    record_solve_metrics(registry, &result.stats);
                }
            }
        };
        let fact_digest = db.fact_digest();
        self.db_cache_put((digest, tag.clone()), db);
        self.cache_result((digest, tag), result.clone());
        Ok(UpdateReport {
            digest,
            base_cached,
            outcome,
            result,
            fact_digest,
        })
    }

    /// Fetches (and LRU-touches) an extendable database, cloning it so
    /// the cached snapshot survives the caller's extension.
    fn db_cache_get(&self, key: &Key) -> Option<AnalysisDb> {
        let mut state = self.dbs.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        state.entries.get_mut(key).map(|(db, last_used)| {
            *last_used = tick;
            db.clone()
        })
    }

    /// Caches an extendable database, evicting the least-recently-used
    /// entry past [`DB_CACHE_CAP`].
    fn db_cache_put(&self, key: Key, db: AnalysisDb) {
        let mut state = self.dbs.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        state.entries.insert(key, (db, tick));
        while state.entries.len() > DB_CACHE_CAP {
            let victim = state
                .entries
                .iter()
                .min_by_key(|(_, &(_, last_used))| last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            state.entries.remove(&victim);
        }
    }

    /// Seeds an extendable database for `(digest, config)` by solving from
    /// scratch while keeping the state (used by callers that know updates
    /// will follow; `update` itself seeds the edited program's database).
    pub fn prime_db(&self, digest: u64, config: &AnalysisConfig) -> Result<(), DbError> {
        let program = self.program(digest).ok_or(DbError::UnknownProgram)?;
        let key = (digest, config_tag(config));
        if self.dbs.lock().unwrap().entries.contains_key(&key) {
            return Ok(());
        }
        let solve_config = self.solve_config(config);
        let solved = catch_unwind(AssertUnwindSafe(|| {
            AnalysisDb::solve((*program).clone(), &solve_config)
        }));
        match solved {
            Ok(db) => {
                if let Some(store) = &self.profile_store {
                    store.record(&db.result().stats);
                }
                self.db_cache_put(key, db);
                Ok(())
            }
            Err(payload) => Err(DbError::SolveFailed(panic_message(payload.as_ref()))),
        }
    }

    /// Inserts a result produced outside `get_or_solve` (the `update`
    /// path) into the result cache, with the same byte accounting and
    /// LRU eviction as a coalesced solve.
    fn cache_result(&self, key: Key, result: Arc<AnalysisResult>) {
        let bytes = approx_result_bytes(&result);
        let mut state = self.cache.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        if let Some(old) = state.entries.remove(&key) {
            state.bytes -= old.bytes;
        }
        state.bytes += bytes;
        state.entries.insert(
            key.clone(),
            Entry {
                result,
                bytes,
                last_used: tick,
            },
        );
        while state.bytes > self.budget && state.entries.len() > 1 {
            let victim = state
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            if victim == key {
                break;
            }
            let evicted = state.entries.remove(&victim).expect("present");
            state.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        drop(state);
        self.solved.notify_all();
    }

    /// Current cache counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        let state = self.cache.lock().unwrap();
        CacheSnapshot {
            entries: state.entries.len(),
            bytes: state.bytes,
            budget: self.budget,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            programs: self.programs.lock().unwrap().len(),
            incremental_reuse: self.incremental_reuse.load(Ordering::Relaxed),
            incremental_noop: self.incremental_noop.load(Ordering::Relaxed),
            incremental_retract_reuse: self.incremental_retract_reuse.load(Ordering::Relaxed),
            incremental_overdeleted: self.incremental_overdeleted.load(Ordering::Relaxed),
            incremental_rederived: self.incremental_rederived.load(Ordering::Relaxed),
            incremental_fallback: self.incremental_fallback.load(Ordering::Relaxed),
        }
    }
}

/// Folds one fresh solve's statistics into the metrics registry: solve
/// count and duration, fact totals, per-Figure-3-rule firing/derivation
/// counters, and the interner/memo-table gauges (gauges reflect the most
/// recent solve; counters accumulate across solves).
fn record_solve_metrics(registry: &Registry, stats: &SolverStats) {
    registry
        .counter(
            "ctxform_solver_solves_total",
            "Fresh solves performed.",
            &[],
        )
        .inc();
    registry
        .counter(
            "ctxform_solver_facts_total",
            "Context-sensitive facts (pts+hpts+call) derived by fresh solves.",
            &[],
        )
        .add(stats.total() as u64);
    for (rule, n) in stats.rule_fired.nonzero() {
        registry
            .counter(
                "ctxform_solver_rule_fired_total",
                "Rule firings (candidate facts offered), by Figure 3 rule.",
                &[("rule", rule)],
            )
            .add(n);
    }
    for (rule, n) in stats.rule_derived.nonzero() {
        registry
            .counter(
                "ctxform_solver_rule_derived_total",
                "Novel facts admitted, by Figure 3 rule.",
                &[("rule", rule)],
            )
            .add(n);
    }
    registry
        .gauge(
            "ctxform_solver_interned_contexts",
            "Context strings interned by the most recent fresh solve.",
            &[],
        )
        .set(stats.interned_contexts as i64);
    registry
        .gauge(
            "ctxform_solver_memo_entries",
            "Memo-table entries after the most recent fresh solve.",
            &[("table", "compose")],
        )
        .set(stats.compose_memo_entries as i64);
    registry
        .histogram(
            "ctxform_solver_solve_seconds",
            "Wall-clock duration of fresh solves.",
            &[],
            &LATENCY_BUCKETS_S,
        )
        .observe_duration(stats.duration);
}

/// The canonical content digest of a program: `fx_hash_one` over the
/// [`ctxform_ir::text::emit`] rendering — the routing key of the shard
/// ring and the wire name clients quote in queries. Computing it here
/// (rather than only inside [`DbManager::load_program`]) lets the router
/// pick the owning shard *before* the program is registered anywhere.
pub fn program_digest(program: &Program) -> u64 {
    fx_hash_one(&text::emit(program))
}

/// The result's CI digest, [`ctxform::CiFacts::digest`] — the same
/// number the `BENCH_<n>.json` history records as `ci_digest`, and the
/// oracle the integration suite uses to prove shard-served answers equal
/// direct `analyze` calls.
pub fn ci_digest(r: &AnalysisResult) -> u64 {
    r.ci.digest()
}

/// Estimates the resident size of a solved database: the dominant cost is
/// the context-insensitive projection sets plus the optional rendered log;
/// fixed per-result overhead is folded into a constant.
pub fn approx_result_bytes(r: &AnalysisResult) -> usize {
    let ci = &r.ci;
    let sets = ci.pts.len() * 16
        + ci.hpts.len() * 24
        + ci.call.len() * 16
        + ci.spts.len() * 16
        + ci.reach.len() * 8;
    let log: usize = r.log.iter().map(|f| f.text.len() + 48).sum();
    let configs: usize = r
        .stats
        .pts_configurations
        .iter()
        .map(|(tag, _)| tag.len() + 32)
        .sum();
    sets + log + configs + 512
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform_minijava::{compile, corpus};

    fn config(label: &str) -> AnalysisConfig {
        AnalysisConfig::transformer_strings(label.parse().unwrap())
    }

    #[test]
    fn wire_ci_digest_is_the_core_ci_digest() {
        let program = compile(corpus::BOX).unwrap().program;
        let r = analyze(&program, &config("1-call"));
        assert_eq!(ci_digest(&r), r.ci.digest());
        // Pinned: the definition the BENCH_<n>.json `ci_digest` history
        // was recorded with.
        assert_eq!(format!("{:016x}", ci_digest(&r)), "d96aad2805f41487");
    }

    #[test]
    fn same_program_from_source_and_facts_shares_a_digest() {
        let module = compile(corpus::BOX).unwrap();
        let db = DbManager::new(1 << 20);
        let (d1, _) = db.load_program(module.program.clone());
        let text = text::emit(&module.program);
        let reparsed = text::parse(&text).unwrap();
        let (d2, _) = db.load_program(reparsed);
        assert_eq!(d1, d2);
        assert_eq!(db.snapshot().programs, 1);
    }

    #[test]
    fn second_query_hits_the_cache() {
        let module = compile(corpus::BOX).unwrap();
        let db = DbManager::new(1 << 20);
        let (digest, _) = db.load_program(module.program);
        let (r1, cached1) = db.get_or_solve(digest, &config("1-call")).unwrap();
        let (r2, cached2) = db.get_or_solve(digest, &config("1-call")).unwrap();
        assert!(!cached1);
        assert!(cached2);
        assert!(Arc::ptr_eq(&r1, &r2));
        let snap = db.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
    }

    #[test]
    fn solve_update_and_demand_resolve_auto_threads_to_the_default() {
        let module = compile(corpus::BOX).unwrap();
        let db = DbManager::new(1 << 24).with_solver_threads(3);
        let (digest, _) = db.load_program(module.program.clone());
        let auto = config("1-call");
        assert_eq!(auto.threads, 0, "requests default to auto");
        let (solved, _) = db.get_or_solve(digest, &auto).unwrap();
        assert_eq!(solved.stats.threads_used, 3, "solve");
        let next = compile(corpus::LIST).unwrap().program;
        let report = db.update(digest, next, &auto).unwrap();
        assert_eq!(report.result.stats.threads_used, 3, "update");
        let outcome = ctxform_demand::DemandEngine::new(1).query(
            digest,
            &module.program,
            &db.resolve_threads(&auto),
            &[ctxform_ir::Var(0)],
        );
        assert_eq!(outcome.solver_threads, 3, "demand");
    }

    #[test]
    fn unknown_digest_is_a_typed_error() {
        let db = DbManager::new(1 << 20);
        assert!(matches!(
            db.get_or_solve(42, &config("1-call")),
            Err(DbError::UnknownProgram)
        ));
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let db = DbManager::new(1); // everything over budget
        let module = compile(corpus::BOX).unwrap();
        let (digest, _) = db.load_program(module.program);
        db.get_or_solve(digest, &config("1-call")).unwrap();
        db.get_or_solve(digest, &config("1-object")).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.entries, 1, "older entry evicted");
        assert!(snap.evictions >= 1);
        // The evicted config re-solves (a miss, not a hit).
        db.get_or_solve(digest, &config("1-call")).unwrap();
        assert_eq!(db.snapshot().misses, 3);
    }

    /// The hang this PR fixes: a panicking solve used to leave its key in
    /// `pending` forever, so every coalesced waiter blocked on the condvar
    /// until the process died. Now the drop guard records the failure and
    /// wakes everyone with a typed error, and the cache stays usable.
    #[test]
    fn panicking_solve_wakes_all_coalesced_waiters() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        use std::time::Duration;

        let module = compile(corpus::BOX).unwrap();
        let arm = Arc::new(AtomicBool::new(true));
        let mut db = DbManager::new(1 << 24);
        {
            let arm = arm.clone();
            db.set_solve_hook(move |program, config| {
                if arm.load(Ordering::SeqCst) {
                    // Give coalesced waiters time to pile onto the condvar
                    // before the claim owner unwinds.
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("injected solve failure");
                }
                analyze(program, config)
            });
        }
        let db = Arc::new(db);
        let (digest, _) = db.load_program(module.program);

        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let db = db.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send(db.get_or_solve(digest, &config("1-call")));
            });
        }
        drop(tx);
        // Every caller — the claim owner and all coalesced waiters — must
        // come back with the typed error before the deadline; a hang here
        // is the original bug.
        for _ in 0..8 {
            let outcome = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a waiter hung past the deadline: pending key leaked");
            match outcome {
                Err(DbError::SolveFailed(msg)) => {
                    assert!(msg.contains("injected solve failure"), "message: {msg}")
                }
                other => panic!("expected SolveFailed, got {other:?}"),
            }
        }
        assert_eq!(db.snapshot().entries, 0, "failed solves cache nothing");

        // The failure is not sticky: once the fault is cleared, a fresh
        // request reclaims the key, retries, and the cache works again
        // (also proves the mutex was never poisoned by the unwind).
        arm.store(false, Ordering::SeqCst);
        let (_, cached) = db.get_or_solve(digest, &config("1-call")).unwrap();
        assert!(!cached, "retry is a fresh solve");
        let (_, cached) = db.get_or_solve(digest, &config("1-call")).unwrap();
        assert!(cached, "and its result is cached normally");
    }

    #[test]
    fn fresh_solves_feed_the_registry_and_cache_hits_do_not() {
        let module = compile(corpus::BOX).unwrap();
        let registry = Arc::new(Registry::new());
        let db = DbManager::new(1 << 20).with_registry(registry.clone());
        let (digest, _) = db.load_program(module.program);
        db.get_or_solve(digest, &config("1-call")).unwrap();
        let solves = registry.counter("ctxform_solver_solves_total", "", &[]);
        let derived = registry.counter("ctxform_solver_rule_derived_total", "", &[("rule", "New")]);
        assert_eq!(solves.get(), 1);
        let after_first = derived.get();
        assert!(after_first > 0, "New-rule derivations recorded");
        // A cache hit performs no solve and must not move the counters.
        db.get_or_solve(digest, &config("1-call")).unwrap();
        assert_eq!(solves.get(), 1);
        assert_eq!(derived.get(), after_first);
        let text = registry.render();
        assert!(text.contains("ctxform_solver_rule_derived_total{rule=\"New\"}"));
        assert!(text.contains("ctxform_solver_solve_seconds_count 1"));
    }

    #[test]
    fn profiled_solves_feed_the_store_and_cache_hits_do_not() {
        let module = compile(corpus::BOX).unwrap();
        let store = Arc::new(crate::profile::ProfileStore::default());
        let db = DbManager::new(1 << 20)
            .with_profiling(true)
            .with_profile_store(store.clone());
        let (digest, _) = db.load_program(module.program);
        let (r, _) = db.get_or_solve(digest, &config("1-call")).unwrap();
        assert!(
            r.stats.profiled,
            "manager-level profiling reached the solve"
        );
        assert_eq!(store.solves(), 1);
        assert!(store.folded().contains("solver;eval;"));
        // A cache hit performs no solve and must not re-fold the stats.
        db.get_or_solve(digest, &config("1-call")).unwrap();
        assert_eq!(store.solves(), 1);
        // Priming an extendable database is a profiled solve too; a
        // resident one is not re-solved.
        db.prime_db(digest, &config("1-call")).unwrap();
        assert_eq!(store.solves(), 2);
        db.prime_db(digest, &config("1-call")).unwrap();
        assert_eq!(store.solves(), 2);
        // An unprofiled manager sharing the store never feeds it.
        let plain = DbManager::new(1 << 20).with_profile_store(store.clone());
        let (digest, _) = plain.load_program(compile(corpus::LIST).unwrap().program);
        plain.get_or_solve(digest, &config("1-call")).unwrap();
        assert_eq!(store.solves(), 2);
    }

    #[test]
    fn concurrent_same_key_solves_once() {
        let module = compile(corpus::LIST).unwrap();
        let db = Arc::new(DbManager::new(1 << 24));
        let (digest, _) = db.load_program(module.program);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                db.get_or_solve(digest, &config("2-object+H")).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = db.snapshot();
        assert_eq!(snap.misses, 1, "exactly one solve");
        assert_eq!(snap.hits + snap.misses, 8);
    }
}
