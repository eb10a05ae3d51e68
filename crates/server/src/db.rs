//! The analysis database manager: one byte-budgeted cache holding every
//! loaded program and everything derived from it.
//!
//! Programs are keyed by a structural content digest ([`program_digest`]:
//! the Fx hash of the [`Program`]'s tables, names and relations, in
//! order), read off the tables without rendering them; its values differ
//! from those of the earlier digest over the rendered fact text. A fact
//! file parses back to the equal `Program` its source lowers to, so the
//! same program loaded from MiniJava source or from a fact file lands on
//! the same key. Each digest owns one entry: the program, its demand index
//! (built on the first demand query) and, per config tag, what that
//! configuration was solved to — a projected result from `analyze`, or an
//! extendable database from `update` ([`Solved`]). Everything is held
//! behind `Arc`, so concurrent readers share one solution. One LRU evicts
//! whole entries under one byte budget that counts every part; the entry
//! an operation just inserted or touched is never its victim, and an
//! evicted digest is unknown until it is loaded again. Concurrent
//! requests for the same unsolved key coalesce: one thread solves while
//! the rest wait on a condvar, so a thundering herd performs exactly one
//! solve.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use ctxform::{
    analyze, AnalysisConfig, AnalysisDb, AnalysisResult, DemandIndex, ExtendOutcome, SolverStats,
};
use ctxform_hash::FxHasher;
use ctxform_ir::Program;
use ctxform_obs::metrics::{Registry, LATENCY_BUCKETS_S};

use crate::protocol::config_tag;

type Key = (u64, String);

/// Solves run outside the cache lock and under `catch_unwind`, so no
/// thread panics while holding it.
const POISONED: &str = "the cache lock is never held across a panic";

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

/// What one configuration of a program is solved to.
#[derive(Clone)]
pub enum Solved {
    /// A projected result, from `analyze`.
    Result(Arc<AnalysisResult>),
    /// An extendable database, from `update`; reads see its result.
    Db(Arc<AnalysisDb>),
}

impl Deref for Solved {
    type Target = AnalysisResult;

    fn deref(&self) -> &AnalysisResult {
        match self {
            Solved::Result(result) => result,
            Solved::Db(db) => db.result(),
        }
    }
}

impl Solved {
    /// Estimated resident bytes: the result, plus the solver state of a
    /// database by its [`ctxform::MemoryFootprint`].
    fn bytes(&self) -> usize {
        let state = match self {
            Solved::Result(_) => 0,
            Solved::Db(db) => db.result().stats.memory.total(),
        };
        state + approx_result_bytes(self)
    }
}

/// Everything resident for one program digest.
struct Entry {
    program: Arc<Program>,
    /// Built by the first demand query against the program.
    index: Option<Arc<DemandIndex>>,
    /// Per config tag.
    solved: HashMap<String, Solved>,
    /// Estimated bytes of all the parts above.
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<u64, Entry>,
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

impl CacheState {
    /// The entry of `digest`, stamped most recently used.
    fn touch(&mut self, digest: u64) -> Option<&mut Entry> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&digest)?;
        entry.last_used = tick;
        Some(entry)
    }

    /// The entry of `digest`, stamped most recently used, created for
    /// `program` when absent (never loaded, or evicted while a part of it
    /// was built outside the lock).
    fn entry(&mut self, digest: u64, program: impl FnOnce() -> Arc<Program>) -> &mut Entry {
        if !self.entries.contains_key(&digest) {
            let program = program();
            let bytes = approx_program_bytes(&program);
            self.bytes += bytes;
            let entry = Entry {
                program,
                index: None,
                solved: HashMap::new(),
                bytes,
                last_used: 0,
            };
            self.entries.insert(digest, entry);
        }
        self.touch(digest).expect("just ensured")
    }

    /// Moves the size of the resident entry `digest`, and the total, by
    /// `added - removed` bytes.
    fn resize(&mut self, digest: u64, added: usize, removed: usize) {
        let entry = self.entries.get_mut(&digest).expect("resident");
        entry.bytes = entry.bytes + added - removed;
        self.bytes = self.bytes + added - removed;
    }

    /// Stores what `(digest, tag)` is solved to, and returns what it
    /// replaces, for the caller to drop after releasing the lock.
    #[must_use = "drop what a put replaces after releasing the lock"]
    fn put(
        &mut self,
        digest: u64,
        program: &Arc<Program>,
        tag: String,
        solved: Solved,
    ) -> Option<Solved> {
        let added = solved.bytes();
        let entry = self.entry(digest, || program.clone());
        let old = entry.solved.insert(tag, solved);
        self.resize(digest, added, old.as_ref().map_or(0, Solved::bytes));
        old
    }
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

/// What [`DbManager::update`] did and produced.
pub struct UpdateReport {
    /// Digest the edited program was loaded (and its database cached) under.
    pub digest: u64,
    /// Whether a database for the base key was resident when the update
    /// arrived (`false` forces the from-scratch path).
    pub base_cached: bool,
    /// How the edit was satisfied: incremental resume or fallback.
    pub outcome: ExtendOutcome,
    /// The database of the edited program.
    pub db: Arc<AnalysisDb>,
    /// Canonical digest of the database's derived facts.
    pub fact_digest: u64,
}

/// A point-in-time view of the cache counters (for the `stats` endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Resident programs, each with everything derived from it.
    pub entries: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
    /// The configured byte budget.
    pub budget: usize,
    /// Queries answered from cache.
    pub hits: u64,
    /// Queries that had to solve.
    pub misses: u64,
    /// Programs evicted to stay under budget.
    pub evictions: u64,
    /// `update` requests satisfied by resuming a cached database over a
    /// purely-additive edit.
    pub incremental_reuse: u64,
    /// `update` requests whose edited program was identical to the base
    /// (no work performed, cached result re-served).
    pub incremental_noop: u64,
    /// `update` requests whose edit removed input tuples and was
    /// therefore re-solved from scratch.
    pub incremental_retracted: u64,
    /// `update` requests that fell back to a from-scratch solve.
    pub incremental_fallback: u64,
}

/// Signature of the [`DbManager`] solve hook (test instrumentation).
type SolveFn = dyn Fn(&Program, &AnalysisConfig) -> AnalysisResult + Send + Sync;

/// The concurrent database manager.
pub struct DbManager {
    cache: Mutex<CacheState>,
    solved: Condvar,
    budget: usize,
    /// When set, replaces the `analyze` call — test instrumentation for
    /// injecting panics and latency into the solve path.
    solve_hook: Option<Box<SolveFn>>,
    /// When set, every fresh solve folds its per-rule counters, fact
    /// totals, and interner gauge into this registry (the `metrics`
    /// endpoint's solver section).
    registry: Option<Arc<Registry>>,
    /// When set, every solver run's stats (fresh solves and updates) are
    /// folded into this store (the `profile` endpoint's data source).
    profile_store: Option<Arc<crate::profile::ProfileStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    incremental_reuse: AtomicU64,
    incremental_noop: AtomicU64,
    incremental_retracted: AtomicU64,
    incremental_fallback: AtomicU64,
}

impl DbManager {
    /// Creates a manager whose cache targets `budget` bytes. Every solve
    /// it runs is profiled: profiling is result-neutral and costs about
    /// 1–2%.
    pub fn new(budget: usize) -> Self {
        DbManager {
            cache: Mutex::new(CacheState::default()),
            solved: Condvar::new(),
            budget,
            solve_hook: None,
            registry: None,
            profile_store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            incremental_reuse: AtomicU64::new(0),
            incremental_noop: AtomicU64::new(0),
            incremental_retracted: AtomicU64::new(0),
            incremental_fallback: AtomicU64::new(0),
        }
    }

    /// Attaches a metrics registry: every fresh solve records its rule
    /// counters, fact totals, duration, and interner size there.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches a profile store: every solver run folds its rule and
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

    /// The locked cache state.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.cache.lock().expect(POISONED)
    }

    /// Removes least-recently-used entries other than `keep` until the
    /// cache is within its budget, and returns them, least recently used
    /// first. The cache may hold the last reference to a victim's
    /// databases, so the caller drops the victims after releasing the
    /// lock: freeing a database is not work every reader should wait on.
    #[must_use = "drop evicted entries after releasing the lock"]
    fn evict(&self, state: &mut CacheState, keep: &[u64]) -> Vec<Entry> {
        let mut victims = Vec::new();
        while state.bytes > self.budget {
            let Some(victim) = state
                .entries
                .iter()
                .filter(|(digest, _)| !keep.contains(digest))
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(&digest, _)| digest)
            else {
                break;
            };
            let entry = state.entries.remove(&victim).expect("present");
            state.bytes -= entry.bytes;
            victims.push(entry);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        victims
    }

    /// Registers a validated program, returning its content digest.
    ///
    /// Loading the same program twice is idempotent and cheap (the second
    /// copy is dropped).
    pub fn load_program(&self, program: Program) -> (u64, Arc<Program>) {
        let digest = program_digest(&program);
        let mut state = self.state();
        let arc = state.entry(digest, || Arc::new(program)).program.clone();
        let victims = self.evict(&mut state, &[digest]);
        drop(state);
        drop(victims);
        (digest, arc)
    }

    /// Looks up a resident program by digest.
    pub fn program(&self, digest: u64) -> Option<Arc<Program>> {
        let mut state = self.state();
        state.touch(digest).map(|entry| entry.program.clone())
    }

    /// Peeks the cache for `(digest, config)` without ever solving:
    /// `Some` (counting a hit) when it is solved, `None` otherwise — the
    /// demand-query path uses this to fall back to an already-solved
    /// database while guaranteeing a cache miss never triggers an
    /// exhaustive solve.
    pub fn cached_result(&self, digest: u64, config: &AnalysisConfig) -> Option<Solved> {
        let mut state = self.state();
        let solved = state
            .touch(digest)?
            .solved
            .get(&config_tag(config))?
            .clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(solved)
    }

    /// The demand index of the resident program `digest`, building it
    /// outside the lock on the first request. The boolean is `true` when
    /// it was already resident.
    pub fn demand_index(&self, digest: u64, program: &Arc<Program>) -> (Arc<DemandIndex>, bool) {
        if let Some(index) = self
            .state()
            .touch(digest)
            .and_then(|entry| entry.index.clone())
        {
            return (index, true);
        }
        // A racing duplicate build is harmless (both produce the same
        // index); the first one stored is kept.
        let built = Arc::new(DemandIndex::new(program));
        let mut state = self.state();
        let entry = state.entry(digest, || program.clone());
        if let Some(index) = &entry.index {
            return (index.clone(), false);
        }
        entry.index = Some(built.clone());
        state.resize(digest, built.bytes(), 0);
        let victims = self.evict(&mut state, &[digest]);
        drop(state);
        drop(victims);
        (built, false)
    }

    /// Returns what `(digest, config)` is solved to, solving at most once
    /// per key across all threads. The boolean is `true` when the answer
    /// came from cache.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownProgram`] when no program with `digest` is
    /// resident; [`DbError::SolveFailed`] when the solve for this key
    /// panicked — returned both by the solving caller and by every
    /// coalesced waiter (which would otherwise block on the condvar
    /// forever, because the panicking thread never cleared its pending
    /// claim).
    pub fn get_or_solve(
        &self,
        digest: u64,
        config: &AnalysisConfig,
    ) -> Result<(Solved, bool), DbError> {
        let key = (digest, config_tag(config));
        let program = {
            let mut state = self.state();
            state.tick += 1;
            let entered = state.tick;
            loop {
                let entry = state.touch(digest).ok_or(DbError::UnknownProgram)?;
                if let Some(solved) = entry.solved.get(&key.1) {
                    let solved = solved.clone();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((solved, true));
                }
                let program = entry.program.clone();
                if let Some(&(failed_at, ref msg)) = state.failed.get(&key) {
                    // Only failures that happened while this request was
                    // already waiting count: a stale record from before we
                    // entered is cleared below and the solve retried.
                    if failed_at >= entered {
                        return Err(DbError::SolveFailed(msg.clone()));
                    }
                }
                if state.pending.contains(&key) {
                    state = self.solved.wait(state).expect(POISONED);
                } else {
                    state.failed.remove(&key);
                    state.pending.insert(key.clone());
                    break program;
                }
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        // From here until the cache insert below, this thread owns the
        // pending claim; the guard turns any unwind into a recorded
        // failure plus a wake-up instead of a leaked claim.
        let mut guard = PendingGuard {
            db: self,
            key: Some(key.clone()),
            message: String::new(),
        };
        let profiled = config.with_profiling();
        let solved = catch_unwind(AssertUnwindSafe(|| match &self.solve_hook {
            Some(hook) => hook(&program, &profiled),
            None => analyze(&program, &profiled),
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
        let solved = Solved::Result(result);
        let mut state = self.state();
        let replaced = state.put(digest, &program, key.1.clone(), solved.clone());
        let victims = self.evict(&mut state, &[digest]);
        state.pending.remove(&key);
        drop(state);
        drop((replaced, victims));
        guard.disarm();
        self.solved.notify_all();
        Ok((solved, false))
    }

    /// Brings the analysis of `base` up to date with the edited program
    /// `next`: loads `next` under its own digest, then — when an
    /// extendable database for `(base, config)` is resident — runs
    /// [`AnalysisDb::extended`] on it outside the lock. An identical or
    /// purely-additive edit resumes a new version of the database that
    /// shares the resident one's program and frozen join buckets; a
    /// retractive or non-monotone edit solves `next` from scratch and
    /// copies nothing. The resident database itself is never mutated. The
    /// produced database is cached under the new digest for further
    /// updates and reads; both the base and the new entry survive the
    /// eviction that follows.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownProgram`] when no program with digest `base` is
    /// resident; [`DbError::SolveFailed`] when the solve panicked.
    pub fn update(
        &self,
        base: u64,
        next: Program,
        config: &AnalysisConfig,
    ) -> Result<UpdateReport, DbError> {
        let digest = program_digest(&next);
        let tag = config_tag(config);
        let (next, base_db) = {
            let mut state = self.state();
            let base_db = match state
                .touch(base)
                .ok_or(DbError::UnknownProgram)?
                .solved
                .get(&tag)
            {
                Some(Solved::Db(db)) => Some(db.clone()),
                _ => None,
            };
            let next = state.entry(digest, || Arc::new(next)).program.clone();
            let victims = self.evict(&mut state, &[base, digest]);
            drop(state);
            drop(victims);
            (next, base_db)
        };
        let base_cached = base_db.is_some();
        let solved = catch_unwind(AssertUnwindSafe(|| match base_db {
            Some(db) => db.extended(next.clone()),
            None => {
                let db = AnalysisDb::solve(next.clone(), &config.with_profiling());
                let reason = "no cached database for the base program".to_owned();
                (db, ExtendOutcome::Fallback(reason))
            }
        }));
        let (db, outcome) = match solved {
            Ok(pair) => pair,
            Err(payload) => return Err(DbError::SolveFailed(panic_message(payload.as_ref()))),
        };
        let stats = &db.result().stats;
        // Every run that did solver work is profiled like a fresh solve;
        // a noop reports cleared run counters and is not a run.
        if !matches!(outcome, ExtendOutcome::Noop) {
            if let Some(store) = &self.profile_store {
                store.record(stats);
            }
        }
        let counter = match outcome {
            ExtendOutcome::Incremental => &self.incremental_reuse,
            // An identical edit does no solver work; counting it as
            // reuse used to overstate incremental coverage.
            ExtendOutcome::Noop => &self.incremental_noop,
            ExtendOutcome::Retracted => &self.incremental_retracted,
            ExtendOutcome::Fallback(_) => &self.incremental_fallback,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // Only a re-solve is a *fresh* solve; incremental extensions are
        // accounted by the reuse counter instead.
        if !outcome.is_incremental() {
            if let Some(registry) = &self.registry {
                record_solve_metrics(registry, stats);
            }
        }
        let fact_digest = db.fact_digest();
        let db = Arc::new(db);
        let mut state = self.state();
        let replaced = state.put(digest, &next, tag, Solved::Db(db.clone()));
        let victims = self.evict(&mut state, &[base, digest]);
        drop(state);
        drop((replaced, victims));
        Ok(UpdateReport {
            digest,
            base_cached,
            outcome,
            db,
            fact_digest,
        })
    }

    /// Current cache counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        let state = self.state();
        CacheSnapshot {
            entries: state.entries.len(),
            bytes: state.bytes,
            budget: self.budget,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            incremental_reuse: self.incremental_reuse.load(Ordering::Relaxed),
            incremental_noop: self.incremental_noop.load(Ordering::Relaxed),
            incremental_retracted: self.incremental_retracted.load(Ordering::Relaxed),
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

/// The content digest of a program — the key
/// [`DbManager::load_program`] registers a program under and the wire
/// name clients quote in queries. Clients compute it too, to check a
/// server-assigned digest against their own copy of a program.
///
/// It hashes the program's tables structurally (its derived `Hash`):
/// every table's length, then its rows in order, every name's bytes and
/// length. Equal programs get equal digests, so a program loaded from a
/// fact file shares its digest with the source it was emitted from
/// (`text::parse(text::emit(p)) == p`). The digest used to be
/// `fx_hash_one(&text::emit(program))`, which rendered the whole fact
/// text on every load and `update`; the values changed with the switch,
/// the wire format did not.
pub fn program_digest(program: &Program) -> u64 {
    let mut hasher = LengthDelimited::default();
    program.hash(&mut hasher);
    hasher.finish()
}

/// [`FxHasher`], except that every byte string also folds in its length.
/// The Fx fold zero-pads a string's last word, so on its own it would
/// hash the names `"a"` and `"a\0"` alike, and a fact file may name an
/// entity with a trailing NUL.
#[derive(Default)]
struct LengthDelimited(FxHasher);

impl Hasher for LengthDelimited {
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
        self.0.write_usize(bytes.len());
    }

    fn write_u8(&mut self, i: u8) {
        self.0.write_u8(i);
    }

    fn write_u32(&mut self, i: u32) {
        self.0.write_u32(i);
    }

    fn write_u64(&mut self, i: u64) {
        self.0.write_u64(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.0.write_usize(i);
    }
}

/// The result's CI digest, [`ctxform::CiFacts::digest`] — the same
/// number the `BENCH_<n>.json` history records as `ci_digest`, and the
/// oracle the integration suite uses to prove server answers equal
/// direct `analyze` calls.
pub fn ci_digest(r: &AnalysisResult) -> u64 {
    r.ci.digest()
}

/// Estimates the resident size of a solved result: the dominant cost is
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

/// Estimates the resident size of a program from its tables: every
/// table by its capacity times its row width, plus each name's own
/// allocation. Every allocation is priced as glibc's `malloc` hands it
/// out ([`heap_chunk`]), since a table of short names costs more in
/// allocator granularity than in name bytes.
pub fn approx_program_bytes(p: &Program) -> usize {
    fn names(table: &Vec<String>) -> usize {
        rows(table)
            + table
                .iter()
                .map(|name| heap_chunk(name.capacity()))
                .sum::<usize>()
    }
    fn rows<T>(table: &Vec<T>) -> usize {
        heap_chunk(table.capacity() * std::mem::size_of::<T>())
    }
    // Destructured in full, so a table added to either type must be
    // priced here before this compiles.
    let Program {
        var_names,
        var_method,
        heap_names,
        heap_method,
        inv_names,
        inv_method,
        method_names,
        method_class,
        field_names,
        type_names,
        supertype,
        msig_names,
        entry_points,
        facts,
    } = p;
    let ctxform_ir::Facts {
        actual,
        assign,
        assign_new,
        assign_return,
        formal,
        heap_type,
        implements,
        load,
        ret,
        static_invoke,
        store,
        static_store,
        static_load,
        this_var,
        virtual_invoke,
    } = facts;
    let name_bytes = names(var_names)
        + names(heap_names)
        + names(inv_names)
        + names(method_names)
        + names(field_names)
        + names(type_names)
        + names(msig_names);
    let id_bytes = rows(var_method)
        + rows(heap_method)
        + rows(inv_method)
        + rows(method_class)
        + rows(supertype)
        + rows(entry_points);
    let fact_bytes = rows(actual)
        + rows(assign)
        + rows(assign_new)
        + rows(assign_return)
        + rows(formal)
        + rows(heap_type)
        + rows(implements)
        + rows(load)
        + rows(ret)
        + rows(static_invoke)
        + rows(store)
        + rows(static_store)
        + rows(static_load)
        + rows(this_var)
        + rows(virtual_invoke);
    name_bytes + id_bytes + fact_bytes + 512
}

/// The bytes an allocation of `n` bytes occupies under glibc's `malloc`:
/// nothing for `n == 0`, else `n` plus an 8-byte header, rounded up to
/// 16, and at least 32.
fn heap_chunk(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        ((n + 8 + 15) & !15).max(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform_ir::Type;
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
        let text = ctxform_ir::text::emit(&module.program);
        let reparsed = ctxform_ir::text::parse(&text).unwrap();
        let (d2, _) = db.load_program(reparsed);
        assert_eq!(d1, d2);
        assert_eq!(db.snapshot().entries, 1);
    }

    #[test]
    fn program_digest_tells_apart_programs_that_differ_in_one_place() {
        let base = compile(corpus::BOX).unwrap().program;
        let digest = program_digest(&base);
        let with = |edit: &dyn Fn(&mut Program)| {
            let mut p = base.clone();
            edit(&mut p);
            program_digest(&p)
        };
        let variants = [
            // One byte moves between adjacent names.
            with(&|p| {
                p.var_names[0] = "ab".into();
                p.var_names[1] = "c".into();
            }),
            with(&|p| {
                p.var_names[0] = "a".into();
                p.var_names[1] = "bc".into();
            }),
            // A trailing NUL, which the Fx fold alone would pad away.
            with(&|p| p.var_names[0].push('\0')),
            // A tuple moves between two relations of the same arity.
            with(&|p| {
                let tuple = p.facts.store.pop().unwrap();
                p.facts.load.push(tuple);
            }),
            with(&|p| p.entry_points.push(p.entry_points[0])),
            with(&|p| p.supertype[0] = Some(Type(0))),
        ];
        let mut seen: HashSet<u64> = variants.iter().copied().collect();
        assert_eq!(seen.len(), variants.len(), "{variants:x?}");
        assert!(seen.insert(digest));
        assert_eq!(with(&|_| {}), digest);
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
        assert!(std::ptr::eq(&*r1, &*r2));
        let snap = db.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
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
    fn byte_budget_evicts_whole_least_recently_used_programs() {
        let db = DbManager::new(1); // everything over budget
        let (d1, _) = db.load_program(compile(corpus::BOX).unwrap().program);
        db.get_or_solve(d1, &config("1-call")).unwrap();
        // Both configurations live in the entry just touched.
        db.get_or_solve(d1, &config("1-object")).unwrap();
        assert_eq!(db.snapshot().entries, 1);
        assert_eq!(db.snapshot().evictions, 0);
        // A second program evicts the first, results and all.
        let (d2, _) = db.load_program(compile(corpus::LIST).unwrap().program);
        let snap = db.snapshot();
        assert_eq!((snap.entries, snap.evictions), (1, 1));
        assert!(db.program(d2).is_some());
        assert!(matches!(
            db.get_or_solve(d1, &config("1-call")),
            Err(DbError::UnknownProgram)
        ));
    }

    #[test]
    fn accounted_bytes_cover_every_part_of_an_entry() {
        let db = DbManager::new(1 << 30);
        let program = compile(corpus::LIST).unwrap().program;
        let (digest, program) = db.load_program(program);
        let mut want = approx_program_bytes(&program);
        assert_eq!(db.snapshot().bytes, want);
        let (result, _) = db.get_or_solve(digest, &config("1-call")).unwrap();
        want += approx_result_bytes(&result);
        assert_eq!(db.snapshot().bytes, want);
        let (index, reused) = db.demand_index(digest, &program);
        assert!(!reused);
        want += index.bytes();
        assert_eq!(db.snapshot().bytes, want);
        assert!(db.demand_index(digest, &program).1, "the index is kept");
        // An update to the same program replaces the result with an
        // extendable database, which also counts its solver state.
        let report = db
            .update(digest, (*program).clone(), &config("1-call"))
            .unwrap();
        want -= approx_result_bytes(&result);
        want += report.db.result().stats.memory.total() + approx_result_bytes(report.db.result());
        assert_eq!(db.snapshot().bytes, want);
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
                other => panic!(
                    "expected SolveFailed, got {:?}",
                    other.map(|(_, cached)| cached)
                ),
            }
        }
        assert!(
            db.cached_result(digest, &config("1-call")).is_none(),
            "failed solves cache nothing"
        );

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
        let db = DbManager::new(1 << 20).with_profile_store(store.clone());
        let (digest, program) = db.load_program(module.program);
        let (r, _) = db.get_or_solve(digest, &config("1-call")).unwrap();
        assert!(r.stats.profiled, "every manager solve is profiled");
        assert_eq!(store.solves(), 1);
        assert!(store.folded().contains("solver;eval;"));
        // A cache hit performs no solve and must not re-fold the stats.
        db.get_or_solve(digest, &config("1-call")).unwrap();
        assert_eq!(store.solves(), 1);
        // Priming an extendable database (an update of the program to
        // itself) is a profiled solve too; once it is resident, the same
        // update is a noop and not a run.
        let update = || {
            db.update(digest, (*program).clone(), &config("1-call"))
                .unwrap()
                .outcome
        };
        assert!(matches!(update(), ExtendOutcome::Fallback(_)));
        assert_eq!(store.solves(), 2);
        assert_eq!(update(), ExtendOutcome::Noop);
        assert_eq!(store.solves(), 2);
    }

    #[test]
    fn eviction_returns_the_least_recently_used_entries_but_keep() {
        let mut db = DbManager::new(1 << 30);
        let digests: Vec<u64> = [corpus::BOX, corpus::LIST, corpus::DISPATCH, corpus::FIG1]
            .iter()
            .map(|src| db.load_program(compile(src).unwrap().program).0)
            .collect();
        let [a, b, c, d] = digests[..] else {
            unreachable!()
        };
        db.program(a).unwrap(); // LRU order now: b, c, d, a
        let size = |digest| db.state().entries[&digest].bytes;
        // Room for all but c and d: b is kept, so they are the victims.
        db.budget = db.snapshot().bytes - size(c) - size(d);
        let victims = db.evict(&mut db.state(), &[b]);
        let evicted: Vec<u64> = victims
            .iter()
            .map(|entry| program_digest(&entry.program))
            .collect();
        assert_eq!(evicted, vec![c, d]);
        let state = db.state();
        let mut resident: Vec<u64> = state.entries.keys().copied().collect();
        resident.sort_unstable();
        let mut want = vec![a, b];
        want.sort_unstable();
        assert_eq!(resident, want);
        assert_eq!(state.bytes, db.budget);
    }

    #[test]
    fn program_estimate_covers_every_name_byte_and_column() {
        /// Name bytes plus 4 bytes per `u32` column of every table.
        fn floor(p: &Program) -> usize {
            let names: usize = [
                &p.var_names,
                &p.heap_names,
                &p.inv_names,
                &p.method_names,
                &p.field_names,
                &p.type_names,
                &p.msig_names,
            ]
            .iter()
            .flat_map(|table| table.iter())
            .map(String::len)
            .sum();
            let f = &p.facts;
            let columns = 3
                * (f.actual.len()
                    + f.assign_new.len()
                    + f.formal.len()
                    + f.implements.len()
                    + f.load.len()
                    + f.static_invoke.len()
                    + f.store.len()
                    + f.virtual_invoke.len())
                + 2 * (f.assign.len()
                    + f.assign_return.len()
                    + f.heap_type.len()
                    + f.ret.len()
                    + f.static_store.len()
                    + f.static_load.len()
                    + f.this_var.len());
            names + 4 * columns
        }
        let mut programs: Vec<(String, Program)> = corpus::all()
            .into_iter()
            .map(|(name, src)| (name.to_owned(), compile(src).unwrap().program))
            .collect();
        let preset = ctxform_synth::preset("antlr").expect("a preset");
        let source = ctxform_synth::generate(&preset);
        programs.push(("antlr".to_owned(), compile(&source).unwrap().program));
        for (name, program) in &programs {
            let (estimate, floor) = (approx_program_bytes(program), floor(program));
            assert!(estimate >= floor, "{name}: {estimate} < {floor}");
        }
    }

    /// Two additive updates of one resident base run at once, while a
    /// third thread reads the base: each update's version shares the
    /// base's frozen buckets, so each must still describe exactly its
    /// own program, and the base must read the same throughout. The
    /// insensitive analysis is the one whose joins read the most of a
    /// shared bucket (every fact of a key is compatible), so a version
    /// that lost or leaked a bucket's facts shows in its digest.
    #[test]
    fn concurrent_updates_of_one_base_stay_isolated() {
        use ctxform_synth::{append_edit, random_program};
        use std::sync::Barrier;

        let source = random_program(4, 1);
        let base = compile(&source).unwrap().program;
        let edits: Vec<Program> = [
            append_edit(&source, 4, 0),
            append_edit(&append_edit(&source, 5, 0), 5, 1),
        ]
        .iter()
        .map(|src| compile(src).unwrap().program)
        .collect();
        for config in [AnalysisConfig::insensitive(), config("2-object+H")] {
            let db = DbManager::new(1 << 30);
            let (digest, program) = db.load_program(base.clone());
            // An update of the program to itself makes its database
            // resident.
            let primed = db.update(digest, (*program).clone(), &config).unwrap();
            let base_ci = ci_digest(primed.db.result());
            let base_stats = primed.db.result().stats.clone();
            let barrier = Barrier::new(edits.len() + 1);
            let reports: Vec<UpdateReport> = std::thread::scope(|s| {
                let updates: Vec<_> = edits
                    .iter()
                    .map(|next| {
                        s.spawn(|| {
                            barrier.wait();
                            db.update(digest, next.clone(), &config).unwrap()
                        })
                    })
                    .collect();
                let reader = s.spawn(|| {
                    barrier.wait();
                    for _ in 0..64 {
                        let solved = db.cached_result(digest, &config).expect("resident");
                        assert_eq!(ci_digest(&solved), base_ci);
                        assert_eq!(solved.stats, base_stats);
                    }
                });
                reader.join().expect("the reader saw one base");
                updates
                    .into_iter()
                    .map(|update| update.join().expect("the update ran"))
                    .collect()
            });
            for (report, next) in reports.iter().zip(&edits) {
                assert_eq!(report.outcome, ExtendOutcome::Incremental, "{config}");
                let scratch = AnalysisDb::solve(next.clone(), &config);
                assert_eq!(report.fact_digest, scratch.fact_digest(), "{config}");
            }
            let Some(Solved::Db(after)) = db.cached_result(digest, &config) else {
                panic!("{config}: the base database stays resident");
            };
            assert!(Arc::ptr_eq(&after, &primed.db));
            assert_eq!(after.fact_digest(), primed.fact_digest, "{config}");
            assert_eq!(after.result().stats, base_stats, "{config}");
            // A later update of the base reads its buckets: still exact.
            let again = db.update(digest, edits[0].clone(), &config).unwrap();
            assert_eq!(again.fact_digest, reports[0].fact_digest, "{config}");
        }
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
