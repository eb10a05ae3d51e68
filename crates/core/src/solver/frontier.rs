//! Round-based frontier parallelism for the semi-naive solver.
//!
//! The serial loop in [`super`] pops one delta at a time and drives it
//! through the direct sink, mutating the fact indices after every rule
//! evaluation. This module runs the same kernel drivers in rounds:
//!
//! 1. **Drain**: all delta queues are drained (in a fixed relation order)
//!    into one `frontier` vector.
//! 2. **Evaluate (parallel)**: the frontier is split into contiguous
//!    chunks; `std::thread::scope` workers evaluate the kernel drivers
//!    through the read-only worker sink against the frozen solver state
//!    (fact sets, join buckets, interner, `ProgramIndex`), appending [`Candidate`]
//!    derivations to a private per-chunk buffer. Worker `w` statically
//!    owns chunks `w, w + T, w + 2T, …`, and each worker keeps its own
//!    compose-memo shard across rounds.
//! 3. **Merge (sequential)**: chunk buffers are applied in chunk order
//!    through the direct sink, which dedups, indexes, logs, and
//!    re-queues exactly as the serial loop does.
//!
//! # Determinism
//!
//! The result is bit-identical for every thread count (and across runs):
//!
//! * Workers never mutate shared state — the one operation the direct
//!   sink mutates through, context-string interning, is routed through
//!   the read-only `try_*` twins of the [`Abstraction`] interface. When a
//!   derivation would need to intern a *new* string, the worker emits a
//!   deferred [`Candidate`] and the merge phase replays the same kernel
//!   step through the direct sink.
//!   All interning therefore happens sequentially, in candidate order.
//! * The concatenation of the chunk buffers equals the candidate sequence
//!   a single worker would produce walking the frontier in order: chunks
//!   are contiguous, chunk processing is pure, and the merge applies them
//!   in frontier order no matter which worker computed which chunk.
//! * A `try_*` result depends only on the frozen interner contents, which
//!   are themselves produced by the deterministic merge phase, so by
//!   induction every round's candidate stream is a pure function of the
//!   program and the configuration.
//!
//! Per-worker memo shards do not perturb this: a shard only ever caches a
//! result the read-only twin *did* compute, and interning is append-only,
//! so a hit returns exactly what recomputation would. (Chunk→worker
//! assignment is static, so for a *fixed* thread count even the memo
//! hit/miss counters are deterministic; across different thread counts
//! they differ while the fact sets stay identical.)
//!
//! # Completeness
//!
//! Semi-naive completeness is preserved because every accepted fact is
//! queued and later driven as a delta against indices that already contain
//! all facts accepted before it (the merge phase inserts and queues in the
//! same step, and a round's indices include everything from prior merges),
//! and both orientations of every two-derived-literal join are implemented
//! by the drivers — the same argument as the sequential engine's.

use ctxform_algebra::{Abstraction, Limits, NeedsIntern};

use super::kernel::{self, Candidate, Fact, Scratch, Sink};
use super::{phase_ns, ComposeMemo, Solver};
use crate::result::{elapsed_ns, RoundProfile, RuleTimes, MAX_ROUND_PROFILES};

/// Per-worker state that persists across rounds: the compose-memo shard
/// and the reusable join-candidate buffers.
struct WorkerState<X> {
    memo: ComposeMemo<X>,
    scratch: Scratch<X>,
}

impl<X> Default for WorkerState<X> {
    fn default() -> Self {
        WorkerState {
            memo: ComposeMemo::default(),
            scratch: Scratch::default(),
        }
    }
}

/// The output of processing one chunk: candidates in frontier order plus
/// the counter deltas to fold into [`SolverStats`](crate::SolverStats).
struct ChunkOut<X> {
    cands: Vec<Candidate<X>>,
    probes: u64,
    compose_calls: u64,
    compose_bottom: u64,
    memo_hits: u64,
    memo_misses: u64,
    deferred: u64,
    /// Per-rule evaluation wall time of this chunk's sampled deltas
    /// (all-zero unless `config.profile` is set). Folded into
    /// `stats.rule_time` during the merge phase — purely observational,
    /// never part of the candidate stream.
    rule_time: RuleTimes,
}

impl<X> Default for ChunkOut<X> {
    fn default() -> Self {
        ChunkOut {
            cands: Vec::new(),
            probes: 0,
            compose_calls: 0,
            compose_bottom: 0,
            memo_hits: 0,
            memo_misses: 0,
            deferred: 0,
            rule_time: RuleTimes::default(),
        }
    }
}

/// Contiguous chunk length for a frontier of `n` deltas. Any value yields
/// the same result (chunks are concatenated in order); this only balances
/// scheduling granularity against per-chunk overhead.
fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 4).clamp(16, 4096)
}

/// The worker sink: a read-only view of the solver plus its private
/// output.
struct Worker<'a, 'p, A: Abstraction> {
    s: &'a Solver<'p, A>,
    ws: &'a mut WorkerState<A::X>,
    out: ChunkOut<A::X>,
    /// Whether the delta being driven is sampled. Worker-local: every
    /// worker shares the one `&Solver`.
    sampled: bool,
}

/// Evaluates the rule drivers for every delta in `chunk`, read-only.
/// `first_event` is the run-wide event index of `chunk[0]`, so the
/// sampled deltas do not depend on how the frontier was chunked.
fn eval_chunk<'p, A: Abstraction>(
    s: &Solver<'p, A>,
    ws: &mut WorkerState<A::X>,
    chunk: &[Fact<A::X>],
    first_event: usize,
) -> ChunkOut<A::X> {
    let profile = s.st.config.profile;
    let mut w = Worker {
        s,
        ws,
        out: ChunkOut::default(),
        sampled: false,
    };
    for (k, &delta) in chunk.iter().enumerate() {
        w.sampled = kernel::sampled(profile, first_event + k);
        w.drive(delta);
    }
    w.out
}

impl<'p, A: Abstraction> Sink<'p, A> for Worker<'_, 'p, A> {
    fn solver(&self) -> &Solver<'p, A> {
        self.s
    }

    fn scratch(&mut self) -> &mut Scratch<A::X> {
        &mut self.ws.scratch
    }

    fn count_probes(&mut self, n: u64) {
        self.out.probes += n;
    }

    fn sampled(&self) -> bool {
        self.sampled
    }

    fn rule_times(&mut self) -> &mut RuleTimes {
        &mut self.out.rule_time
    }

    fn intern<T>(
        &mut self,
        ro: impl FnOnce(&A) -> Result<T, NeedsIntern>,
        _rw: impl FnOnce(&mut A) -> T,
    ) -> Result<T, NeedsIntern> {
        ro(&self.s.st.abs)
    }

    /// Read-only memoized compose over the worker's memo shard. `Ok`
    /// results (including ⊥) are exact; `Err` means the merge phase must
    /// replay the mutating compose (which also does the stats accounting
    /// for that call).
    fn compose(&mut self, a: A::X, b: A::X, limits: Limits) -> Result<Option<A::X>, NeedsIntern> {
        let memoize = self.s.st.config.memoize;
        let r = match self.ws.memo.get(&(a, b, limits)) {
            Some(&r) if memoize => {
                self.out.memo_hits += 1;
                r
            }
            _ => {
                let r = self.s.st.abs.try_compose(a, b, limits)?;
                if memoize {
                    self.out.memo_misses += 1;
                    self.ws.memo.insert((a, b, limits), r);
                }
                r
            }
        };
        self.out.compose_calls += 1;
        if r.is_none() {
            self.out.compose_bottom += 1;
        }
        Ok(r)
    }

    /// Pre-filters exact duplicates against the frozen fact sets.
    /// `insert_*` performs the same check first against a superset of
    /// this state (facts are never removed mid-solve), so the filter only
    /// drops candidates the merge phase would drop anyway.
    fn emit(&mut self, fact: Fact<A::X>, rule: &'static str) {
        if !self.s.st.contains(fact) {
            self.out.cands.push(Candidate::Fact(fact, rule));
        }
    }

    fn defer(&mut self, cand: Candidate<A::X>) {
        self.out.deferred += 1;
        self.out.cands.push(cand);
    }
}

impl<'p, A: Abstraction> Solver<'p, A> {
    /// The frontier-parallel engine (`threads >= 2`): runs the queues to
    /// empty in rounds. Seeding (entry points or an incremental delta)
    /// is the caller's job, so the same loop serves fresh solves and
    /// resumed ones.
    pub(super) fn fixpoint_parallel(&mut self, threads: usize) {
        let mut states: Vec<WorkerState<A::X>> =
            (0..threads).map(|_| WorkerState::default()).collect();
        let mut frontier: Vec<Fact<A::X>> = Vec::new();

        loop {
            // Phase 1: drain the queues into the frontier, in a fixed
            // relation order (each queue's order is insertion order, which
            // the deterministic merge phase produced).
            frontier.clear();
            self.st.queue.drain_into(&mut frontier);
            if frontier.is_empty() {
                break;
            }
            let n = frontier.len();
            let first_event = self.st.stats.events;
            self.st.stats.par_rounds += 1;
            self.st.stats.par_frontier_peak = self.st.stats.par_frontier_peak.max(n);
            self.st.stats.events += n;
            // Per-round timing span: inert (one relaxed load) unless
            // tracing is on. Purely observational — it must never feed
            // back into the candidate stream or merge order.
            let mut round_span = ctxform_obs::span("solver.round")
                .field("round", self.st.stats.par_rounds)
                .field("frontier", n);

            // Phase 2: evaluate chunks. A one-chunk frontier runs inline
            // on the calling thread — through the same chunk driver and
            // the same worker state striding would pick (worker 0 owns
            // chunk 0), so the candidate stream is unaffected.
            let eval_start = self.phase_start();
            let chunk = chunk_size(n, threads);
            let n_chunks = n.div_ceil(chunk);
            let mut outs: Vec<Option<ChunkOut<A::X>>> = Vec::with_capacity(n_chunks);
            outs.resize_with(n_chunks, || None);
            if n_chunks == 1 {
                outs[0] = Some(eval_chunk(&*self, &mut states[0], &frontier, first_event));
            } else {
                let solver_ref = &*self;
                let frontier_ref = &frontier;
                std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(threads);
                    for (w, st) in states.iter_mut().enumerate() {
                        handles.push(scope.spawn(move || {
                            let mut mine = Vec::new();
                            let mut ci = w;
                            while ci < n_chunks {
                                let lo = ci * chunk;
                                let hi = (lo + chunk).min(n);
                                let out = eval_chunk(
                                    solver_ref,
                                    st,
                                    &frontier_ref[lo..hi],
                                    first_event + lo,
                                );
                                mine.push((ci, out));
                                ci += threads;
                            }
                            mine
                        }));
                    }
                    for handle in handles {
                        for (ci, out) in handle.join().expect("solver worker panicked") {
                            outs[ci] = Some(out);
                        }
                    }
                });
            }

            // Phase 3: merge sequentially, in frontier order.
            let eval_ns = phase_ns(eval_start);
            let merge_start = self.phase_start();
            let mut merged = 0usize;
            for out in outs {
                let out = out.expect("every chunk processed");
                self.st.stats.probes += out.probes;
                self.st.stats.compose_calls += out.compose_calls;
                self.st.stats.compose_bottom += out.compose_bottom;
                self.st.stats.compose_memo_hits += out.memo_hits;
                self.st.stats.compose_memo_misses += out.memo_misses;
                self.st.stats.par_deferred += out.deferred;
                self.st.stats.rule_time.merge(&out.rule_time);
                merged += out.cands.len();
                for cand in out.cands {
                    self.apply_candidate(cand);
                }
            }
            round_span.record("candidates", merged);
            if let Some(t) = merge_start {
                let merge_ns = elapsed_ns(t);
                self.st.stats.phase_profile.eval_ns += eval_ns;
                self.st.stats.phase_profile.merge_ns += merge_ns;
                if self.st.stats.round_profiles.len() < MAX_ROUND_PROFILES {
                    self.st.stats.round_profiles.push(RoundProfile {
                        round: self.st.stats.par_rounds,
                        frontier: n,
                        candidates: merged,
                        eval_ns,
                        merge_ns,
                    });
                }
            }
        }
    }

    /// Applies one worker candidate through the direct sink; a deferred
    /// step replays through the kernel helper that deferred it.
    fn apply_candidate(&mut self, cand: Candidate<A::X>) {
        match cand {
            Candidate::Fact(fact, rule) => self.insert(fact, rule),
            Candidate::Record(y, h, m) => self.new_pts(y, h, m),
            Candidate::MergeS(i, q, m) => self.static_call(i, q, m),
            Candidate::LoadGlobal(z, h, b, m) => self.sload_pts(z, h, b, m),
            Candidate::Globalize(f, h, b) => self.sstore_spts(f, h, b),
            Candidate::ComposePts(y, h, a, b, limits, rule) => {
                self.compose_pts(y, h, a, b, limits, rule)
            }
            Candidate::ComposeHpts(g, f, h, a, b, limits, rule) => {
                self.compose_hpts(g, f, h, a, b, limits, rule)
            }
            Candidate::Virt(i, q, h, b) => self.virt(i, q, h, b),
        }
    }
}
