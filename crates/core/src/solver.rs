//! The specialized semi-naive solver for the Figure 3 deduction rules.
//!
//! This module is the analogue of the paper's compiled Datalog back-end:
//! the parameterized rules (New, Assign, Load, Store, Ind, Param, Ret,
//! Virt, Static, Reach, Entry) are hand-instantiated over the
//! [`Abstraction`] interface, with one delta queue per derived relation
//! and boundary-indexed join buckets (see [`crate::bucket`]).
//!
//! Every derived fact is processed exactly once as a "delta": when it is
//! popped, all rules it can drive are evaluated against the current
//! indices (which already contain every earlier fact, including itself),
//! and both orientations of every two-derived-literal join are
//! implemented, so the evaluation is equivalent to semi-naive iteration to
//! fixpoint.
//!
//! Each rule driver is written once, in [`kernel`], generic over a sink
//! that decides where consequences go: the [`Solver`] itself inserts them
//! (the serial loop), the [`frontier`] worker collects them read-only for
//! a sequential merge, and the DRed mark sink marks them for deletion.
//!
//! # Hot-path layout
//!
//! The rule drivers are written to stay allocation-free at steady state:
//!
//! * The static [`ProgramIndex`] is held *by reference* (`ix: &'p
//!   ProgramIndex`), so rule drivers copy the reference out of the sink
//!   and iterate the index vectors directly while calling `&mut self`
//!   emission methods — no per-delta `.cloned()` of index vectors.
//! * Join-candidate collection writes into reusable scratch buffers that
//!   are `mem::take`n out of the sink around each rule loop (the borrow
//!   checker then sees them as locals disjoint from the sink).
//! * `compose` is memoized over the copyable interned handles (sound
//!   because the interner is append-only, making it a pure function of
//!   its arguments). `invert` is *not* memoized: for every
//!   abstraction it is an O(1) field swap, cheaper than any table lookup.
//! * All maps and sets use the Fx hasher ([`ctxform_hash`]) — the keys are
//!   small trusted `Copy` tuples, the exact case Fx is built for.

mod frontier;
mod kernel;

use std::mem;
use std::time::Instant;

use ctxform_algebra::{
    Abstraction, CtxtDigest, CtxtElem, CtxtStr, Insensitive, Levels, Limits, NeedsIntern,
};
use ctxform_hash::{
    fx_map_with_capacity, hash_str, hash_words, FxHashMap, FxHashSet, MultisetDigest,
};
use ctxform_ir::{
    Facts, Field, Heap, Inv, MSig, Method, Program, ProgramDelta, ProgramIndex, ProgramRetraction,
    Var,
};

use self::kernel::{Candidate, Fact, MarkSink, Queues, RetractSink, Scratch, Sink};
use crate::bucket::Bucket;
use crate::config::AnalysisConfig;
use crate::result::{
    elapsed_ns, rule, AnalysisResult, CiFacts, LoggedFact, MemoryFootprint, RuleTimes, SolverStats,
};

/// Fixed per-slot estimate for hash-container overhead (control bytes
/// plus load-factor slack) in the [`MemoryFootprint`] byte accounting.
/// A constant keeps the estimates deterministic across runs and
/// platforms, unlike querying the allocator.
const HASH_SLOT_OVERHEAD: usize = 8;

/// Runs the analysis with the given abstraction instance.
///
/// `config.threads` picks the engine: `1` (or an auto resolution of 1)
/// runs the serial one-delta-at-a-time loop; more threads run the
/// round-based frontier-parallel engine in [`frontier`]. Both produce the
/// identical fact sets, so the choice is purely a wall-clock one.
pub(crate) fn run<A: Abstraction>(
    program: &Program,
    abs: A,
    config: AnalysisConfig,
) -> AnalysisResult {
    let (_, result) = solve_state(program, SolverState::new(program, abs, config));
    result
}

/// Runs the analysis restricted to the demand slice: every insertion is
/// dropped unless its context-insensitive projection is in `gate`.
///
/// Every context-sensitive derivation projects rule-by-rule onto a
/// context-insensitive one, and the demand slice contains every node of
/// every CI derivation tree rooted at a demanded query — so gating cannot
/// block any derivation that contributes to a queried variable's answer.
/// The gated run therefore returns exactly the exhaustive points-to sets
/// for the slice's query roots while deriving only the demanded region.
pub(crate) fn run_gated<A: Abstraction>(
    program: &Program,
    abs: A,
    config: AnalysisConfig,
    gate: std::sync::Arc<crate::DemandSlice>,
) -> AnalysisResult {
    let (_, result) = solve_state(
        program,
        SolverState::new(program, abs, config).with_gate(gate),
    );
    result
}

/// The derived relations of a context-insensitive fixpoint, moved out of
/// the solver state. `Insensitive` transformations are all `()`, so each
/// set holds exactly the CI tuples (`hload` is the Load rule's
/// `load ⋈ pts`); only `reach` keeps its per-method contexts.
pub(crate) struct InsensitiveFixpoint {
    pub(crate) pts: FxHashSet<(Var, Heap, ())>,
    pub(crate) hpts: FxHashSet<(Heap, Field, Heap, ())>,
    pub(crate) hload: FxHashSet<(Heap, Field, Var, ())>,
    pub(crate) call: FxHashSet<(Inv, Method, ())>,
    pub(crate) spts: FxHashSet<(Field, Heap, ())>,
    pub(crate) reach: FxHashSet<(Method, CtxtStr)>,
}

/// Solves `program` context-insensitively and serially. Unlike [`run`] it
/// builds no [`AnalysisResult`]: the demand slice reads only the tuples,
/// so the statistics, memory accounting and `CiFacts` projection of
/// `finish` are skipped.
pub(crate) fn insensitive_fixpoint(program: &Program) -> InsensitiveFixpoint {
    let config = AnalysisConfig::insensitive().with_threads(1);
    let ix = program.index();
    let state = SolverState::new(program, Insensitive::new(), config);
    let mut solver = Solver::from_state(program, &ix, state);
    solver.seed_entry();
    solver.run_to_fixpoint(1);
    let st = &mut solver.st;
    InsensitiveFixpoint {
        pts: mem::take(&mut st.pts),
        hpts: mem::take(&mut st.hpts),
        hload: mem::take(&mut st.hload),
        call: mem::take(&mut st.call),
        spts: mem::take(&mut st.spts),
        reach: mem::take(&mut st.reach),
    }
}

/// Solves `program` from scratch inside `state` (which must be fresh) and
/// returns the state alongside the result, so callers can keep the solved
/// database for later [`extend_state`] calls.
pub(crate) fn solve_state<A: Abstraction>(
    program: &Program,
    state: SolverState<A>,
) -> (SolverState<A>, AnalysisResult) {
    let config = state.config;
    let threads = config.effective_threads();
    let ix = program.index();
    let mut solver = Solver::from_state(program, &ix, state);
    // The solve-level span is inert (one relaxed load) unless tracing
    // was enabled; the config tag is only rendered when it will be kept.
    let mut span = ctxform_obs::span("solver.solve");
    if span.is_active() {
        span.record("config", format!("{config}"));
        span.record("threads", threads);
    }
    let start = Instant::now();
    solver.st.stats.profiled = config.profile;
    let t = solver.phase_start();
    solver.seed_entry();
    if let Some(t) = t {
        let ns = elapsed_ns(t);
        solver.st.stats.rule_time.observe(rule::ENTRY, ns);
        solver.st.stats.phase_profile.seed_ns += ns;
    }
    solver.run_to_fixpoint(threads);
    let result = solver.finish(start);
    span.record("facts_total", result.stats.total());
    span.record("events", result.stats.events);
    (solver.into_state(), result)
}

/// Resumes a solved database after a purely-additive edit: seeds the
/// queues from `delta` (new entry points plus the existing facts its new
/// tuples can join) and runs the ordinary fixpoint against the *new*
/// program's indices.
///
/// `program` must be the extended program `delta` was computed against,
/// and `state` the solved state of the base program. Because Figure 3 is
/// monotone, the resumed fixpoint reaches exactly the least model of the
/// extended program — the same fact sets a from-scratch solve derives, at
/// every thread count.
pub(crate) fn extend_state<A: Abstraction>(
    program: &Program,
    state: SolverState<A>,
    delta: &ProgramDelta,
) -> (SolverState<A>, AnalysisResult) {
    let config = state.config;
    let threads = config.effective_threads();
    let ix = program.index();
    let mut solver = Solver::from_state(program, &ix, state);
    let mut span = ctxform_obs::span("solver.extend");
    if span.is_active() {
        span.record("config", format!("{config}"));
        span.record("threads", threads);
        span.record("delta_facts", delta.len());
    }
    let start = Instant::now();
    solver.st.stats.profiled = config.profile;
    let t = solver.phase_start();
    solver.reseed_for_delta(&delta.added, &delta.added_entry_points);
    solver.st.stats.phase_profile.seed_ns += phase_ns(t);
    solver.run_to_fixpoint(threads);
    let result = solver.finish(start);
    span.record("facts_total", result.stats.total());
    span.record("events", result.stats.events);
    (solver.into_state(), result)
}

/// Resumes a solved database after a retractive edit via DRed
/// (delete-and-rederive).
///
/// The update runs in three phases over the saved state:
///
/// 1. **Over-delete**: every derived fact with a one-step derivation from
///    a removed input tuple is marked for deletion (coarsely, over all
///    contexts of the affected head), and the marking is closed
///    transitively by running the rule drivers through the mark sink —
///    consequences of marked facts are marked instead of inserted.
/// 2. **Delete**: marked facts are physically removed and every join
///    index is rebuilt from the sorted survivors.
/// 3. **Re-derive**: surviving facts that can re-support a deleted head
///    (plus the edit's added tuples) are re-queued and the ordinary
///    monotone fixpoint runs, restoring exactly the facts with an
///    alternative derivation in the new program.
///
/// `program` is the edited program, `base` the program `state` was solved
/// for, and `retraction` their diff. Over-deletion is conservative (it
/// may mark facts whose other derivations survive), which is sound
/// because phase 3 restores anything the new least model contains —
/// so the final database is bit-identical to a from-scratch solve.
pub(crate) fn retract_state<A: Abstraction>(
    program: &Program,
    base: &Program,
    state: SolverState<A>,
    retraction: &ProgramRetraction,
) -> (SolverState<A>, AnalysisResult) {
    let config = state.config;
    let threads = config.effective_threads();
    let ix = program.index();
    let mut solver = Solver::from_state(program, &ix, state);
    let mut span = ctxform_obs::span("solver.retract");
    if span.is_active() {
        span.record("config", format!("{config}"));
        span.record("threads", threads);
        span.record("removed_facts", retraction.removed_len());
        span.record("added_facts", retraction.added_len());
    }
    let start = Instant::now();
    solver.st.stats.profiled = config.profile;
    let t = solver.phase_start();
    let marks = solver.seed_overdelete(base, retraction);
    let marks = MarkSink {
        solver: &mut solver,
        marks,
    }
    .run();
    solver.apply_deletions(&marks);
    solver.st.stats.phase_profile.retract_ns += phase_ns(t);
    let t = solver.phase_start();
    solver.reseed_after_deletion(&marks);
    solver.reseed_for_delta(&retraction.added, &retraction.added_entry_points);
    solver.st.stats.phase_profile.seed_ns += phase_ns(t);
    solver.run_to_fixpoint(threads);
    solver.st.stats.rederived = solver.count_rederived(&marks);
    let result = solver.finish(start);
    span.record("facts_total", result.stats.total());
    span.record("overdeleted", result.stats.overdeleted);
    span.record("rederived", result.stats.rederived);
    (solver.into_state(), result)
}

/// A join index: facts grouped per key, boundary-indexed within each
/// [`Bucket`].
type BucketMap<K, V> = FxHashMap<K, Bucket<V>>;

/// Memo table for `compose`, keyed on the copyable interned handles and
/// the truncation limits (sound because the interner is append-only).
type ComposeMemo<X> = FxHashMap<(X, X, Limits), Option<X>>;

/// The owned, program-independent half of a solver: every fact set, join
/// index, queue, memo table, and the abstraction instance (which owns the
/// context interner).
///
/// A `SolverState` is the *snapshot* an [`crate::AnalysisDb`] keeps after
/// a solve: together with the program it fully determines the database,
/// and [`extend_state`] can resume the fixpoint from it after an additive
/// edit. Cloning the state clones the whole database (the interner is
/// hash-consed and append-only, so the clone is an independent but
/// equivalent world).
#[derive(Clone)]
pub(crate) struct SolverState<A: Abstraction> {
    abs: A,
    config: AnalysisConfig,
    levels: Levels,
    mode: ctxform_algebra::BoundaryMode,
    pts: FxHashSet<(Var, Heap, A::X)>,
    /// `pts` keyed by variable, boundary-indexed on the destination side.
    pts_by_var: BucketMap<Var, (Heap, A::X)>,
    hpts: FxHashSet<(Heap, Field, Heap, A::X)>,
    /// `hpts` keyed by (base site, field), boundary-indexed on the
    /// destination side (its transformation maps pointee-alloc context to
    /// base-alloc context).
    hpts_by_gf: BucketMap<(Heap, Field), (Heap, A::X)>,
    hload: FxHashSet<(Heap, Field, Var, A::X)>,
    /// `hload` keyed by (base site, field), boundary-indexed on the
    /// source side.
    hload_by_gf: BucketMap<(Heap, Field), (Var, A::X)>,
    /// `spts(F, H, B)`: static field `F` may hold an object allocated at
    /// `H`, `B` constraining only the allocation context (SStore/SLoad —
    /// the static-field extension the paper's implementation models via
    /// Doop's rules).
    spts: FxHashSet<(Field, Heap, A::X)>,
    spts_by_field: FxHashMap<Field, Vec<(Heap, A::X)>>,
    call: FxHashSet<(Inv, Method, A::X)>,
    /// `call` keyed by invocation, boundary-indexed on the source side
    /// (for Param).
    call_by_inv: BucketMap<Inv, (Method, A::X)>,
    /// `call` keyed by callee, boundary-indexed on the destination side
    /// (for Ret).
    call_by_method: BucketMap<Method, (Inv, A::X)>,
    reach: FxHashSet<(Method, CtxtStr)>,
    reach_by_method: FxHashMap<Method, Vec<CtxtStr>>,
    /// Facts inserted but not yet driven.
    queue: Queues<A::X>,
    compose_memo: ComposeMemo<A::X>,
    scratch: Scratch<A::X>,
    stats: SolverStats,
    log: Vec<LoggedFact>,
    /// Optional demand gate: when set, every insertion is dropped unless
    /// its context-insensitive projection was demanded by the slice (see
    /// [`crate::analyze_sliced`]).
    gate: Option<std::sync::Arc<crate::DemandSlice>>,
}

impl<A: Abstraction> SolverState<A> {
    /// A fresh, unsolved state for `program` under `config`.
    pub(crate) fn new(program: &Program, abs: A, config: AnalysisConfig) -> Self {
        let levels = abs
            .sensitivity()
            .map(|s| s.levels)
            .unwrap_or(Levels { method: 0, heap: 0 });
        let mode = abs.boundary_mode();
        SolverState {
            abs,
            config,
            levels,
            mode,
            pts: FxHashSet::default(),
            pts_by_var: fx_map_with_capacity(program.var_count()),
            hpts: FxHashSet::default(),
            hpts_by_gf: FxHashMap::default(),
            hload: FxHashSet::default(),
            hload_by_gf: FxHashMap::default(),
            spts: FxHashSet::default(),
            spts_by_field: FxHashMap::default(),
            call: FxHashSet::default(),
            call_by_inv: fx_map_with_capacity(program.inv_count()),
            call_by_method: fx_map_with_capacity(program.method_count()),
            reach: FxHashSet::default(),
            reach_by_method: fx_map_with_capacity(program.method_count()),
            queue: Queues::default(),
            compose_memo: FxHashMap::default(),
            scratch: Scratch::default(),
            stats: SolverStats::default(),
            log: Vec::new(),
            gate: None,
        }
    }

    /// Restricts the solver to facts whose context-insensitive projection
    /// the demand slice contains. Must be set before solving starts.
    pub(crate) fn with_gate(mut self, gate: std::sync::Arc<crate::DemandSlice>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// `true` iff `fact` is currently derived.
    fn contains(&self, fact: Fact<A::X>) -> bool {
        match fact {
            Fact::Reach(p, m) => self.reach.contains(&(p, m)),
            Fact::Pts(y, h, x) => self.pts.contains(&(y, h, x)),
            Fact::Call(i, q, x) => self.call.contains(&(i, q, x)),
            Fact::Hpts(g, f, h, x) => self.hpts.contains(&(g, f, h, x)),
            Fact::Hload(g, f, y, x) => self.hload.contains(&(g, f, y, x)),
            Fact::Spts(f, h, x) => self.spts.contains(&(f, h, x)),
        }
    }

    /// Zeroes the per-run counters and the fact log so the next
    /// [`extend_state`] reports only the work the extension itself did
    /// (the fact-count fields are recomputed from the full sets at
    /// finish time either way).
    pub(crate) fn reset_run_counters(&mut self) {
        self.stats = SolverStats::default();
        self.log.clear();
    }

    /// An order-independent multiset digest of every derived fact,
    /// computed from the fact tuples without rendering or sorting.
    ///
    /// Each fact hashes a relation tag, the hashes of its entities'
    /// *names* (one pass per name table), and the name-based hash of its
    /// transformation or context ([`CtxtDigest`], memoized per interned
    /// string); the per-fact hashes are summed. No id or interner handle
    /// is ever hashed, so the digest is a function of the
    /// [`rendered_facts`](Self::rendered_facts) listing alone: independent
    /// of interning order, thread count, and of whether the state came
    /// from a solve, an extension or a retraction.
    pub(crate) fn fact_digest(&self, program: &Program) -> u64 {
        fn names(table: &[String]) -> Vec<u64> {
            table.iter().map(|n| hash_str(n)).collect()
        }
        let vars = names(&program.var_names);
        let heaps = names(&program.heap_names);
        let fields = names(&program.field_names);
        let invs = names(&program.inv_names);
        let methods = names(&program.method_names);
        let mut ctxt = CtxtDigest::new(self.abs.interner(), program);
        let mut digest = MultisetDigest::default();
        // Each relation leads its facts' words with its own tag, 1–6.
        for &(y, h, x) in &self.pts {
            let x = self.abs.digest(x, &mut ctxt);
            digest.add(hash_words(&[1, vars[y.index()], heaps[h.index()], x]));
        }
        for &(g, f, h, x) in &self.hpts {
            let x = self.abs.digest(x, &mut ctxt);
            let (g, f, h) = (heaps[g.index()], fields[f.index()], heaps[h.index()]);
            digest.add(hash_words(&[2, g, f, h, x]));
        }
        for &(g, f, y, x) in &self.hload {
            let x = self.abs.digest(x, &mut ctxt);
            let (g, f, y) = (heaps[g.index()], fields[f.index()], vars[y.index()]);
            digest.add(hash_words(&[3, g, f, y, x]));
        }
        for &(i, q, x) in &self.call {
            let x = self.abs.digest(x, &mut ctxt);
            digest.add(hash_words(&[4, invs[i.index()], methods[q.index()], x]));
        }
        for &(f, h, x) in &self.spts {
            let x = self.abs.digest(x, &mut ctxt);
            digest.add(hash_words(&[5, fields[f.index()], heaps[h.index()], x]));
        }
        for &(p, m) in &self.reach {
            digest.add(hash_words(&[6, methods[p.index()], ctxt.ctxt(m)]));
        }
        digest.finish()
    }

    /// See [`crate::AnalysisDb::subsumed_pts`]; never called while
    /// solving.
    pub(crate) fn subsumed_pts(&self) -> usize {
        let mut by_key: FxHashMap<(Var, Heap), Vec<A::X>> = FxHashMap::default();
        for &(y, h, x) in &self.pts {
            by_key.entry((y, h)).or_default().push(x);
        }
        by_key
            .values()
            .map(|xs| {
                xs.iter()
                    .filter(|&&b| xs.iter().any(|&a| a != b && self.abs.subsumes(a, b)))
                    .count()
            })
            .sum()
    }

    /// Every derived fact, rendered with program names and sorted —
    /// a human-readable listing of the database for diagnostics and
    /// tests; [`fact_digest`](Self::fact_digest) digests the same facts
    /// without rendering them.
    pub(crate) fn rendered_facts(&self, program: &Program) -> Vec<String> {
        let mut out = Vec::with_capacity(
            self.pts.len()
                + self.hpts.len()
                + self.hload.len()
                + self.call.len()
                + self.spts.len()
                + self.reach.len(),
        );
        for &(y, h, x) in &self.pts {
            out.push(format!(
                "pts({}, {}, {})",
                program.var_names[y.index()],
                program.heap_names[h.index()],
                self.abs.display(x, program)
            ));
        }
        for &(g, f, h, x) in &self.hpts {
            out.push(format!(
                "hpts({}, {}, {}, {})",
                program.heap_names[g.index()],
                program.field_names[f.index()],
                program.heap_names[h.index()],
                self.abs.display(x, program)
            ));
        }
        for &(g, f, y, x) in &self.hload {
            out.push(format!(
                "hload({}, {}, {}, {})",
                program.heap_names[g.index()],
                program.field_names[f.index()],
                program.var_names[y.index()],
                self.abs.display(x, program)
            ));
        }
        for &(i, q, x) in &self.call {
            out.push(format!(
                "call({}, {}, {})",
                program.inv_names[i.index()],
                program.method_names[q.index()],
                self.abs.display(x, program)
            ));
        }
        for &(f, h, x) in &self.spts {
            out.push(format!(
                "spts({}, {}, {})",
                program.field_names[f.index()],
                program.heap_names[h.index()],
                self.abs.display(x, program)
            ));
        }
        for &(p, m) in &self.reach {
            out.push(format!(
                "reach({}, [{}])",
                program.method_names[p.index()],
                self.abs.interner().display_with(m, |e| e.describe(program))
            ));
        }
        out.sort_unstable();
        out
    }
}

/// A [`SolverState`] bound to the program it solves. The state is
/// embedded whole, so a field is declared once, on the state.
struct Solver<'p, A: Abstraction> {
    program: &'p Program,
    /// Static join indices, held by reference so rule drivers can iterate
    /// them while mutating the state (split borrows).
    ix: &'p ProgramIndex,
    st: SolverState<A>,
    /// Whether the serial loop is driving a sampled delta.
    sampled: bool,
}

impl<'p, A: Abstraction> Solver<'p, A> {
    /// Rebinds a state to a program and its freshly-built indices.
    fn from_state(program: &'p Program, ix: &'p ProgramIndex, st: SolverState<A>) -> Self {
        Solver {
            program,
            ix,
            st,
            sampled: false,
        }
    }

    /// Releases the program borrow, giving back the owned state.
    fn into_state(self) -> SolverState<A> {
        self.st
    }

    fn limits_store(&self) -> Limits {
        Limits {
            src: self.st.levels.heap,
            dst: self.st.levels.heap,
        }
    }

    fn limits_flow(&self) -> Limits {
        Limits {
            src: self.st.levels.heap,
            dst: self.st.levels.method,
        }
    }

    /// Entry rule: seed `reach(main, [entry])` for every entry point.
    fn seed_entry(&mut self) {
        let entry_ctx = {
            let interner = self.st.abs.interner_mut();
            interner.from_slice(&[CtxtElem::entry()])
        };
        let program = self.program;
        for &main in &program.entry_points {
            self.insert_reach(main, entry_ctx, "Entry");
        }
    }

    /// Seeds the queues for an incremental extension: reachability of new
    /// entry points, plus re-queued *existing* facts whose rule drivers
    /// can now join one of the delta's new input tuples.
    ///
    /// Re-driving an existing fact is harmless (the `insert_*` methods
    /// dedup, and the rules are monotone), and the mapping below covers
    /// every Figure 3 rule body literal over an input relation, so every
    /// rule instantiation involving a new input tuple fires either here
    /// or transitively from a fact derived here. Re-queued facts are
    /// sorted, so the seed — and with it the whole resumed derivation —
    /// is deterministic.
    fn reseed_for_delta(&mut self, added: &Facts, added_entry_points: &[Method]) {
        let entry_ctx = {
            let interner = self.st.abs.interner_mut();
            interner.from_slice(&[CtxtElem::entry()])
        };
        for &main in added_entry_points {
            self.insert_reach(main, entry_ctx, "Entry");
        }
        let program = self.program;

        // Variables whose existing `pts` facts can drive a rule body that
        // gained an input tuple (Assign, Load, Store, Param's actual
        // role, Ret's return role, SStore, Virt).
        let mut vars: FxHashSet<Var> = FxHashSet::default();
        vars.extend(added.assign.iter().map(|&(z, _)| z));
        vars.extend(added.load.iter().map(|&(y, _, _)| y));
        for &(x, _, z) in &added.store {
            vars.insert(x);
            vars.insert(z);
        }
        vars.extend(added.actual.iter().map(|&(z, _, _)| z));
        vars.extend(added.ret.iter().map(|&(z, _)| z));
        vars.extend(added.static_store.iter().map(|&(x, _)| x));
        vars.extend(added.virtual_invoke.iter().map(|&(_, z, _)| z));
        // A new dispatch edge or `this` binding re-activates every
        // virtual site of the affected signatures.
        let mut sigs: FxHashSet<MSig> = added.implements.iter().map(|&(_, _, s)| s).collect();
        let new_this: FxHashSet<Method> = added.this_var.iter().map(|&(_, q)| q).collect();
        if !new_this.is_empty() {
            sigs.extend(
                program
                    .facts
                    .implements
                    .iter()
                    .filter(|&&(q, _, _)| new_this.contains(&q))
                    .map(|&(_, _, s)| s),
            );
        }
        if !sigs.is_empty() {
            vars.extend(
                program
                    .facts
                    .virtual_invoke
                    .iter()
                    .filter(|&&(_, _, s)| sigs.contains(&s))
                    .map(|&(_, z, _)| z),
            );
        }

        // Methods whose existing `reach` facts can drive New, Static, or
        // SLoad (the reach role joins `static_load` and `spts`).
        let mut methods: FxHashSet<Method> = FxHashSet::default();
        methods.extend(added.assign_new.iter().map(|&(_, _, p)| p));
        methods.extend(added.static_invoke.iter().map(|&(_, _, p)| p));
        methods.extend(
            added
                .static_load
                .iter()
                .map(|&(_, z)| program.var_method[z.index()]),
        );

        // Existing `call` facts that can drive Param/Ret against a new
        // formal / return / assign_return tuple.
        let call_methods: FxHashSet<Method> = added
            .formal
            .iter()
            .map(|&(_, p, _)| p)
            .chain(added.ret.iter().map(|&(_, p)| p))
            .collect();
        let call_invs: FxHashSet<Inv> = added.assign_return.iter().map(|&(i, _)| i).collect();

        let st = &mut self.st;
        st.queue
            .pts
            .extend(sorted(&st.pts, |(y, _, _)| vars.contains(y)));
        st.queue
            .reach
            .extend(sorted(&st.reach, |(p, _)| methods.contains(p)));
        st.queue.call.extend(sorted(&st.call, |&(i, q, _)| {
            call_methods.contains(&q) || call_invs.contains(&i)
        }));
    }

    // ------------------------------------------------------------------
    // DRed over-delete phase
    // ------------------------------------------------------------------

    /// Marks the immediate heads of every rule instance that mentions a
    /// removed input tuple (phase 1 seed). Marking is *coarse*: when a
    /// removed tuple can contribute to `pts(y, ·, ·)` we mark every
    /// context of `y` — over-deletion is sound because the re-derive
    /// phase restores whatever the new program still supports, and
    /// coarseness keeps the seed independent of which contexts the
    /// removed tuple actually flowed through.
    ///
    /// `base` is the pre-edit program: companion lookups (formals,
    /// `this` variables, return bindings) must resolve against the
    /// relations the retracted derivations actually used.
    fn seed_overdelete(&mut self, base: &Program, r: &ProgramRetraction) -> RetractSink<A::X> {
        let entry_ctx = {
            let interner = self.st.abs.interner_mut();
            interner.from_slice(&[CtxtElem::entry()])
        };
        let removed = &r.removed;

        // Per-callee and per-pair views of the current call graph, built
        // once; removed `actual`/`ret`/`virtual_invoke` tuples need to
        // know which callees their invocation sites reached.
        let needs_call_targets = !removed.actual.is_empty()
            || !removed.ret.is_empty()
            || !removed.virtual_invoke.is_empty();
        let mut call_targets: FxHashMap<Inv, Vec<Method>> = FxHashMap::default();
        if needs_call_targets {
            for &(i, q, _) in &self.st.call {
                let targets = call_targets.entry(i).or_default();
                if !targets.contains(&q) {
                    targets.push(q);
                }
            }
        }
        // Companion lookups over the *base* program's relations.
        let base_formal_of: FxHashMap<(Method, u32), Var> = base
            .facts
            .formal
            .iter()
            .map(|&(y, p, o)| ((p, o), y))
            .collect();
        let base_this_of: FxHashMap<Method, Var> =
            base.facts.this_var.iter().map(|&(y, q)| (q, y)).collect();

        // Variables whose whole `pts` row dies, plus exact (var, heap)
        // pairs from removed allocations.
        let mut vars: FxHashSet<Var> = FxHashSet::default();
        let mut pairs: FxHashSet<(Var, Heap)> = FxHashSet::default();
        vars.extend(removed.assign.iter().map(|&(_, y)| y));
        vars.extend(removed.formal.iter().map(|&(y, _, _)| y));
        vars.extend(removed.assign_return.iter().map(|&(_, y)| y));
        vars.extend(removed.this_var.iter().map(|&(y, _)| y));
        vars.extend(removed.static_load.iter().map(|&(_, z)| z));
        pairs.extend(removed.assign_new.iter().map(|&(h, y, _)| (y, h)));
        // Param: a removed actual(Z, I, O) kills the formal of slot O in
        // every callee I dispatched to.
        for &(_, i, o) in &removed.actual {
            for &q in call_targets.get(&i).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(&y) = base_formal_of.get(&(q, o)) {
                    vars.insert(y);
                }
            }
        }
        // Ret: a removed return(Z, P) kills the assign_return targets of
        // every invocation that called P.
        if !removed.ret.is_empty() {
            let ret_methods: FxHashSet<Method> = removed.ret.iter().map(|&(_, p)| p).collect();
            for &(i, y) in &base.facts.assign_return {
                let reaches = call_targets
                    .get(&i)
                    .is_some_and(|qs| qs.iter().any(|q| ret_methods.contains(q)));
                if reaches {
                    vars.insert(y);
                }
            }
        }
        // Virt: a removed virtual_invoke(I, Z, S) kills every call edge
        // of I and the `this`-var bindings of its former callees.
        let mut call_invs: FxHashSet<Inv> = FxHashSet::default();
        for &(i, _, _) in &removed.virtual_invoke {
            call_invs.insert(i);
            for &q in call_targets.get(&i).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(&y) = base_this_of.get(&q) {
                    vars.insert(y);
                }
            }
        }
        // Static: a removed static_invoke(I, Q, P) kills call(I, Q, ·).
        let call_pairs: FxHashSet<(Inv, Method)> = removed
            .static_invoke
            .iter()
            .map(|&(i, q, _)| (i, q))
            .collect();
        // Load / Store / SStore heads.
        let hload_keys: FxHashSet<(Field, Var)> =
            removed.load.iter().map(|&(_, f, z)| (f, z)).collect();
        let hpts_fields: FxHashSet<Field> = removed.store.iter().map(|&(_, f, _)| f).collect();
        let spts_fields: FxHashSet<Field> = removed.static_store.iter().map(|&(_, f)| f).collect();

        // Mark the seeds, sorted per relation so the over-delete
        // worklists (and everything downstream) are deterministic.
        let st = &self.st;
        let mut marks = RetractSink::new();
        for (y, h, x) in sorted(&st.pts, |&(y, h, _)| {
            vars.contains(&y) || pairs.contains(&(y, h))
        }) {
            marks.mark(st, Fact::Pts(y, h, x));
        }
        for (g, f, z, x) in sorted(&st.hload, |&(_, f, z, _)| hload_keys.contains(&(f, z))) {
            marks.mark(st, Fact::Hload(g, f, z, x));
        }
        for (g, f, h, x) in sorted(&st.hpts, |&(_, f, _, _)| hpts_fields.contains(&f)) {
            marks.mark(st, Fact::Hpts(g, f, h, x));
        }
        for (i, q, x) in sorted(&st.call, |&(i, q, _)| {
            call_invs.contains(&i) || call_pairs.contains(&(i, q))
        }) {
            marks.mark(st, Fact::Call(i, q, x));
        }
        for (f, h, x) in sorted(&st.spts, |&(f, _, _)| spts_fields.contains(&f)) {
            marks.mark(st, Fact::Spts(f, h, x));
        }
        // Entry: a removed entry point loses exactly its entry seed.
        for &p in &r.removed_entry_points {
            marks.mark(st, Fact::Reach(p, entry_ctx));
        }
        marks
    }

    /// Phase 2: physically removes every marked fact, records the
    /// over-delete count, and rebuilds all join indices from the sorted
    /// survivors.
    fn apply_deletions(&mut self, marks: &RetractSink<A::X>) {
        self.st.stats.overdeleted = marks.len() as u64;
        if marks.len() == 0 {
            return;
        }
        self.st.pts.retain(|t| !marks.pts.contains(t));
        self.st.hpts.retain(|t| !marks.hpts.contains(t));
        self.st.hload.retain(|t| !marks.hload.contains(t));
        self.st.call.retain(|t| !marks.call.contains(t));
        self.st.spts.retain(|t| !marks.spts.contains(t));
        self.st.reach.retain(|t| !marks.reach.contains(t));
        self.rebuild_join_indices();
    }

    /// Rebuilds every join index from the (post-deletion) fact sets.
    /// [`Bucket`] has no removal API — and rebuilding from sorted
    /// survivors keeps the index contents deterministic regardless of
    /// the deletion order.
    fn rebuild_join_indices(&mut self) {
        let strategy = self.st.config.join_strategy;
        let mode = self.st.mode;

        self.st.pts_by_var.clear();
        for (y, h, x) in sorted(&self.st.pts, |_| true) {
            let boundary = self.st.abs.dst_boundary(x);
            self.st
                .pts_by_var
                .entry(y)
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(boundary, (h, x), self.st.abs.interner());
        }

        self.st.hpts_by_gf.clear();
        for (g, f, h, x) in sorted(&self.st.hpts, |_| true) {
            let boundary = self.st.abs.dst_boundary(x);
            self.st
                .hpts_by_gf
                .entry((g, f))
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(boundary, (h, x), self.st.abs.interner());
        }

        self.st.hload_by_gf.clear();
        for (g, f, y, x) in sorted(&self.st.hload, |_| true) {
            let boundary = self.st.abs.src_boundary(x);
            self.st
                .hload_by_gf
                .entry((g, f))
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(boundary, (y, x), self.st.abs.interner());
        }

        self.st.call_by_inv.clear();
        self.st.call_by_method.clear();
        for (i, q, x) in sorted(&self.st.call, |_| true) {
            let src = self.st.abs.src_boundary(x);
            self.st
                .call_by_inv
                .entry(i)
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(src, (q, x), self.st.abs.interner());
            let dst = self.st.abs.dst_boundary(x);
            self.st
                .call_by_method
                .entry(q)
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(dst, (i, x), self.st.abs.interner());
        }

        self.st.spts_by_field.clear();
        for (f, h, x) in sorted(&self.st.spts, |_| true) {
            self.st.spts_by_field.entry(f).or_default().push((h, x));
        }

        self.st.reach_by_method.clear();
        for (p, m) in sorted(&self.st.reach, |_| true) {
            self.st.reach_by_method.entry(p).or_default().push(m);
        }
    }

    /// Phase 3 seed: re-queues the surviving facts that can re-derive a
    /// deleted head through a rule instance of the *new* program.
    ///
    /// Invariant: for every deleted head and every rule instance (over
    /// the new program's inputs) that could re-derive it, either one of
    /// the instance's derived body literals is queued here, or that
    /// literal was itself deleted — in which case its own re-derivation
    /// re-queues it through the normal `insert_*` path. Entry heads have
    /// no derived body literal, so surviving entry points whose entry
    /// seed was deleted are re-inserted directly.
    fn reseed_after_deletion(&mut self, marks: &RetractSink<A::X>) {
        if marks.len() == 0 {
            return;
        }
        let program = self.program;

        let d_vars: FxHashSet<Var> = marks.pts.iter().map(|&(y, _, _)| y).collect();
        let d_pairs: FxHashSet<(Var, Heap)> = marks.pts.iter().map(|&(y, h, _)| (y, h)).collect();
        let d_hload_keys: FxHashSet<(Field, Var)> =
            marks.hload.iter().map(|&(_, f, z, _)| (f, z)).collect();
        let d_hpts_fields: FxHashSet<Field> = marks.hpts.iter().map(|&(_, f, _, _)| f).collect();
        let d_call_invs: FxHashSet<Inv> = marks.call.iter().map(|&(i, _, _)| i).collect();
        let d_spts_fields: FxHashSet<Field> = marks.spts.iter().map(|&(f, _, _)| f).collect();
        let d_reach_methods: FxHashSet<Method> = marks.reach.iter().map(|&(p, _)| p).collect();

        let mut vars: FxHashSet<Var> = FxHashSet::default();
        let mut reach_methods: FxHashSet<Method> = FxHashSet::default();
        let mut call_methods: FxHashSet<Method> = FxHashSet::default();
        let mut call_invs: FxHashSet<Inv> = FxHashSet::default();
        let mut spts_fields: FxHashSet<Field> = FxHashSet::default();

        // Rules with a deleted pts head: Assign, New, Param, Ret, Virt,
        // SLoad re-derive it from a surviving body literal.
        for &(z, y) in &program.facts.assign {
            if d_vars.contains(&y) {
                vars.insert(z);
            }
        }
        for &(h, y, p) in &program.facts.assign_new {
            if d_pairs.contains(&(y, h)) {
                reach_methods.insert(p);
            }
        }
        for &(y, p, _) in &program.facts.formal {
            if d_vars.contains(&y) {
                call_methods.insert(p);
            }
        }
        for &(i, y) in &program.facts.assign_return {
            if d_vars.contains(&y) {
                call_invs.insert(i);
            }
        }
        for &(f, z) in &program.facts.static_load {
            if d_vars.contains(&z) {
                spts_fields.insert(f);
            }
        }
        // Virt's pts head is a callee's `this` var: re-queue the
        // receiver points-to rows of every virtual site that can
        // dispatch there.
        let d_this_methods: FxHashSet<Method> = program
            .facts
            .this_var
            .iter()
            .filter(|&&(y, _)| d_vars.contains(&y))
            .map(|&(_, q)| q)
            .collect();
        if !d_this_methods.is_empty() {
            let sigs: FxHashSet<MSig> = program
                .facts
                .implements
                .iter()
                .filter(|&&(q, _, _)| d_this_methods.contains(&q))
                .map(|&(_, _, s)| s)
                .collect();
            for &(_, z, s) in &program.facts.virtual_invoke {
                if sigs.contains(&s) {
                    vars.insert(z);
                }
            }
        }
        // Deleted hload heads (Load) and hpts heads (Store).
        for &(w, f, z) in &program.facts.load {
            if d_hload_keys.contains(&(f, z)) {
                vars.insert(w);
            }
        }
        for &(x, f, _) in &program.facts.store {
            if d_hpts_fields.contains(&f) {
                vars.insert(x);
            }
        }
        // Deleted call heads (Static via reach, Virt via receiver pts).
        for &(i, _, p) in &program.facts.static_invoke {
            if d_call_invs.contains(&i) {
                reach_methods.insert(p);
            }
        }
        for &(i, z, _) in &program.facts.virtual_invoke {
            if d_call_invs.contains(&i) {
                vars.insert(z);
            }
        }
        // Deleted spts heads (SStore).
        for &(x, f) in &program.facts.static_store {
            if d_spts_fields.contains(&f) {
                vars.insert(x);
            }
        }
        // Deleted reach heads: Reach re-derives from surviving call
        // edges (queued below); Entry heads of surviving entry points
        // are re-inserted directly.
        if !d_reach_methods.is_empty() {
            let entry_ctx = {
                let interner = self.st.abs.interner_mut();
                interner.from_slice(&[CtxtElem::entry()])
            };
            for idx in 0..self.program.entry_points.len() {
                let p = self.program.entry_points[idx];
                if marks.reach.contains(&(p, entry_ctx)) {
                    self.insert_reach(p, entry_ctx, "Entry");
                }
            }
        }

        let st = &mut self.st;
        st.queue
            .pts
            .extend(sorted(&st.pts, |&(y, _, _)| vars.contains(&y)));
        st.queue
            .reach
            .extend(sorted(&st.reach, |(p, _)| reach_methods.contains(p)));
        st.queue.call.extend(sorted(&st.call, |&(i, q, _)| {
            call_methods.contains(&q) || call_invs.contains(&i) || d_reach_methods.contains(&q)
        }));
        st.queue
            .hload
            .extend(sorted(&st.hload, |(_, _, y, _)| d_vars.contains(y)));
        st.queue
            .spts
            .extend(sorted(&st.spts, |(f, _, _)| spts_fields.contains(f)));
    }

    /// How many over-deleted facts the re-derive phase restored.
    fn count_rederived(&self, marks: &RetractSink<A::X>) -> u64 {
        let st = &self.st;
        let n = marks.pts.iter().filter(|t| st.pts.contains(*t)).count()
            + marks.hpts.iter().filter(|t| st.hpts.contains(*t)).count()
            + marks.hload.iter().filter(|t| st.hload.contains(*t)).count()
            + marks.call.iter().filter(|t| st.call.contains(*t)).count()
            + marks.spts.iter().filter(|t| st.spts.contains(*t)).count()
            + marks.reach.iter().filter(|t| st.reach.contains(*t)).count();
        n as u64
    }

    /// Starts a phase clock when the run is profiled.
    #[inline]
    fn phase_start(&self) -> Option<Instant> {
        self.st.config.profile.then(Instant::now)
    }

    /// Runs the queues to empty: the one-delta-at-a-time loop at one
    /// thread, the frontier-parallel rounds at more.
    fn run_to_fixpoint(&mut self, threads: usize) {
        self.st.stats.threads_used = threads;
        if threads > 1 {
            return self.fixpoint_parallel(threads);
        }
        let profile = self.st.config.profile;
        let t = self.phase_start();
        while let Some(delta) = self.st.queue.pop() {
            self.sampled = kernel::sampled(profile, self.st.stats.events);
            self.st.stats.events += 1;
            self.drive(delta);
        }
        self.sampled = false;
        self.st.stats.phase_profile.eval_ns += phase_ns(t);
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts a derived fact: gate, dedup, index, log, queue.
    #[inline]
    fn insert(&mut self, fact: Fact<A::X>, rule: &'static str) {
        match fact {
            Fact::Reach(p, m) => self.insert_reach(p, m, rule),
            Fact::Pts(y, h, x) => self.insert_pts(y, h, x, rule),
            Fact::Call(i, q, x) => self.insert_call(i, q, x, rule),
            Fact::Hpts(g, f, h, x) => self.insert_hpts(g, f, h, x, rule),
            Fact::Hload(g, f, y, x) => self.insert_hload(g, f, y, x, rule),
            Fact::Spts(f, h, x) => self.insert_spts(f, h, x, rule),
        }
    }

    fn insert_pts(&mut self, y: Var, h: Heap, x: A::X, rule: &'static str) {
        if let Some(gate) = &self.st.gate {
            if !gate.pts.contains(&(y, h)) {
                return;
            }
        }
        self.st.stats.rule_fired.bump(rule);
        if !self.st.pts.insert((y, h, x)) {
            return;
        }
        self.st.stats.rule_derived.bump(rule);
        let boundary = self.st.abs.dst_boundary(x);
        let strategy = self.st.config.join_strategy;
        let mode = self.st.mode;
        self.st
            .pts_by_var
            .entry(y)
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(boundary, (h, x), self.st.abs.interner());
        if self.st.config.record_facts {
            let text = format!(
                "pts({}, {}, {})",
                self.program.var_names[y.index()],
                self.program.heap_names[h.index()],
                self.st.abs.display(x, self.program)
            );
            self.st.log.push(LoggedFact {
                relation: "pts",
                rule,
                text,
            });
        }
        self.st.queue.pts.push((y, h, x));
    }

    fn insert_hpts(&mut self, g: Heap, f: Field, h: Heap, x: A::X, rule: &'static str) {
        if let Some(gate) = &self.st.gate {
            if !gate.hpts.contains(&(g, f, h)) {
                return;
            }
        }
        self.st.stats.rule_fired.bump(rule);
        if !self.st.hpts.insert((g, f, h, x)) {
            return;
        }
        self.st.stats.rule_derived.bump(rule);
        let boundary = self.st.abs.dst_boundary(x);
        let strategy = self.st.config.join_strategy;
        let mode = self.st.mode;
        self.st
            .hpts_by_gf
            .entry((g, f))
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(boundary, (h, x), self.st.abs.interner());
        if self.st.config.record_facts {
            let text = format!(
                "hpts({}, {}, {}, {})",
                self.program.heap_names[g.index()],
                self.program.field_names[f.index()],
                self.program.heap_names[h.index()],
                self.st.abs.display(x, self.program)
            );
            self.st.log.push(LoggedFact {
                relation: "hpts",
                rule,
                text,
            });
        }
        self.st.queue.hpts.push((g, f, h, x));
    }

    fn insert_hload(&mut self, g: Heap, f: Field, y: Var, x: A::X, rule: &'static str) {
        if let Some(gate) = &self.st.gate {
            if !gate.hload.contains(&(g, f, y)) {
                return;
            }
        }
        self.st.stats.rule_fired.bump(rule);
        if !self.st.hload.insert((g, f, y, x)) {
            return;
        }
        self.st.stats.rule_derived.bump(rule);
        let boundary = self.st.abs.src_boundary(x);
        let strategy = self.st.config.join_strategy;
        let mode = self.st.mode;
        self.st
            .hload_by_gf
            .entry((g, f))
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(boundary, (y, x), self.st.abs.interner());
        if self.st.config.record_facts {
            let text = format!(
                "hload({}, {}, {}, {})",
                self.program.heap_names[g.index()],
                self.program.field_names[f.index()],
                self.program.var_names[y.index()],
                self.st.abs.display(x, self.program)
            );
            self.st.log.push(LoggedFact {
                relation: "hload",
                rule,
                text,
            });
        }
        self.st.queue.hload.push((g, f, y, x));
    }

    fn insert_call(&mut self, i: Inv, q: Method, x: A::X, rule: &'static str) {
        if let Some(gate) = &self.st.gate {
            if !gate.call.contains(&(i, q)) {
                return;
            }
        }
        self.st.stats.rule_fired.bump(rule);
        if !self.st.call.insert((i, q, x)) {
            return;
        }
        self.st.stats.rule_derived.bump(rule);
        let strategy = self.st.config.join_strategy;
        let mode = self.st.mode;
        let src = self.st.abs.src_boundary(x);
        self.st
            .call_by_inv
            .entry(i)
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(src, (q, x), self.st.abs.interner());
        let dst = self.st.abs.dst_boundary(x);
        self.st
            .call_by_method
            .entry(q)
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(dst, (i, x), self.st.abs.interner());
        if self.st.config.record_facts {
            let text = format!(
                "call({}, {}, {})",
                self.program.inv_names[i.index()],
                self.program.method_names[q.index()],
                self.st.abs.display(x, self.program)
            );
            self.st.log.push(LoggedFact {
                relation: "call",
                rule,
                text,
            });
        }
        self.st.queue.call.push((i, q, x));
    }

    fn insert_spts(&mut self, f: Field, h: Heap, x: A::X, rule: &'static str) {
        if let Some(gate) = &self.st.gate {
            if !gate.spts.contains(&(f, h)) {
                return;
            }
        }
        self.st.stats.rule_fired.bump(rule);
        if !self.st.spts.insert((f, h, x)) {
            return;
        }
        self.st.stats.rule_derived.bump(rule);
        self.st.spts_by_field.entry(f).or_default().push((h, x));
        if self.st.config.record_facts {
            let text = format!(
                "spts({}, {}, {})",
                self.program.field_names[f.index()],
                self.program.heap_names[h.index()],
                self.st.abs.display(x, self.program)
            );
            self.st.log.push(LoggedFact {
                relation: "spts",
                rule,
                text,
            });
        }
        self.st.queue.spts.push((f, h, x));
    }

    fn insert_reach(&mut self, p: Method, m: CtxtStr, rule: &'static str) {
        if let Some(gate) = &self.st.gate {
            if !gate.reach.contains(&p) {
                return;
            }
        }
        self.st.stats.rule_fired.bump(rule);
        if !self.st.reach.insert((p, m)) {
            return;
        }
        self.st.stats.rule_derived.bump(rule);
        self.st.reach_by_method.entry(p).or_default().push(m);
        if self.st.config.record_facts {
            let text = format!(
                "reach({}, [{}])",
                self.program.method_names[p.index()],
                self.st
                    .abs
                    .interner()
                    .display_with(m, |e| e.describe(self.program))
            );
            self.st.log.push(LoggedFact {
                relation: "reach",
                rule,
                text,
            });
        }
        self.st.queue.reach.push((p, m));
    }

    // ------------------------------------------------------------------
    // Result assembly
    // ------------------------------------------------------------------

    /// Deterministic byte estimates of the resident relations, join
    /// indices, and memo tables (see [`MemoryFootprint`]): entry counts
    /// times entry sizes plus [`HASH_SLOT_OVERHEAD`] per hash slot, so
    /// the numbers are identical across runs of the same database.
    fn memory_footprint(&self) -> MemoryFootprint {
        use mem::size_of;
        fn set_bytes<T>(set: &FxHashSet<T>) -> usize {
            set.len() * (size_of::<T>() + HASH_SLOT_OVERHEAD)
        }
        fn bucket_map_bytes<K, V: Copy>(map: &FxHashMap<K, Bucket<V>>) -> usize {
            let mut bytes = map.len() * (size_of::<K>() + HASH_SLOT_OVERHEAD);
            for bucket in map.values() {
                let (keys, stored) = bucket.entry_counts();
                bytes += keys * (size_of::<CtxtStr>() + HASH_SLOT_OVERHEAD);
                bytes += stored * size_of::<V>();
            }
            bytes
        }
        fn vec_map_bytes<K, V>(map: &FxHashMap<K, Vec<V>>) -> usize {
            map.len() * (size_of::<K>() + size_of::<Vec<V>>() + HASH_SLOT_OVERHEAD)
                + map
                    .values()
                    .map(|v| v.len() * size_of::<V>())
                    .sum::<usize>()
        }
        MemoryFootprint {
            rel_pts: set_bytes(&self.st.pts),
            rel_hpts: set_bytes(&self.st.hpts),
            rel_hload: set_bytes(&self.st.hload),
            rel_call: set_bytes(&self.st.call),
            rel_spts: set_bytes(&self.st.spts),
            rel_reach: set_bytes(&self.st.reach),
            ix_pts_by_var: bucket_map_bytes(&self.st.pts_by_var),
            ix_hpts_by_gf: bucket_map_bytes(&self.st.hpts_by_gf),
            ix_hload_by_gf: bucket_map_bytes(&self.st.hload_by_gf),
            ix_spts_by_field: vec_map_bytes(&self.st.spts_by_field),
            ix_call_by_inv: bucket_map_bytes(&self.st.call_by_inv),
            ix_call_by_method: bucket_map_bytes(&self.st.call_by_method),
            ix_reach_by_method: vec_map_bytes(&self.st.reach_by_method),
            memo_compose: self.st.compose_memo.len()
                * (size_of::<(A::X, A::X, Limits)>()
                    + size_of::<Option<A::X>>()
                    + HASH_SLOT_OVERHEAD),
        }
    }

    fn finish(&mut self, start: Instant) -> AnalysisResult {
        self.st.stats.duration = start.elapsed();
        self.st.stats.memory = self.memory_footprint();
        self.st.stats.pts = self.st.pts.len();
        self.st.stats.hpts = self.st.hpts.len();
        self.st.stats.hload = self.st.hload.len();
        self.st.stats.call = self.st.call.len();
        self.st.stats.spts = self.st.spts.len();
        self.st.stats.reach = self.st.reach.len();
        self.st.stats.interned_contexts = self.st.abs.interner().interned_count();
        self.st.stats.compose_memo_entries = self.st.compose_memo.len();
        let mut histogram: FxHashMap<String, usize> = FxHashMap::default();
        for &(_, _, x) in &self.st.pts {
            let tag = self.st.abs.configuration(x);
            if !tag.is_empty() || matches!(self.st.mode, ctxform_algebra::BoundaryMode::Prefix) {
                *histogram.entry(tag).or_insert(0) += 1;
            }
        }
        let mut pts_configurations: Vec<(String, usize)> = histogram.into_iter().collect();
        pts_configurations.sort();
        self.st.stats.pts_configurations = pts_configurations;

        let mut ci = CiFacts::default();
        for &(y, h, _) in &self.st.pts {
            ci.pts.insert((y, h));
        }
        for &(g, f, h, _) in &self.st.hpts {
            ci.hpts.insert((g, f, h));
        }
        for &(i, q, _) in &self.st.call {
            ci.call.insert((i, q));
        }
        for &(f, h, _) in &self.st.spts {
            ci.spts.insert((f, h));
        }
        for &(p, _) in &self.st.reach {
            ci.reach.insert(p);
        }
        AnalysisResult {
            config: self.st.config,
            stats: self.st.stats.clone(),
            ci,
            log: mem::take(&mut self.st.log),
        }
    }
}

/// Nanoseconds since a [`Solver::phase_start`] clock (0 when unprofiled).
#[inline]
fn phase_ns(t: Option<Instant>) -> u64 {
    t.map_or(0, elapsed_ns)
}

/// The members of `set` that pass `keep`, sorted: a deterministic order
/// for re-queued and re-indexed facts, independent of hash order.
fn sorted<T: Copy + Ord>(set: &FxHashSet<T>, keep: impl Fn(&T) -> bool) -> Vec<T> {
    let mut out: Vec<T> = set.iter().copied().filter(|t| keep(t)).collect();
    out.sort_unstable();
    out
}

/// The direct sink: interning always succeeds and consequences are
/// inserted on the spot.
impl<'p, A: Abstraction> Sink<'p, A> for Solver<'p, A> {
    #[inline]
    fn solver(&self) -> &Solver<'p, A> {
        self
    }

    #[inline]
    fn scratch(&mut self) -> &mut Scratch<A::X> {
        &mut self.st.scratch
    }

    #[inline]
    fn count_probes(&mut self, n: u64) {
        self.st.stats.probes += n;
    }

    #[inline]
    fn sampled(&self) -> bool {
        self.sampled
    }

    #[inline]
    fn rule_times(&mut self) -> &mut RuleTimes {
        &mut self.st.stats.rule_time
    }

    #[inline]
    fn intern<T>(
        &mut self,
        _ro: impl FnOnce(&A) -> Result<T, NeedsIntern>,
        rw: impl FnOnce(&mut A) -> T,
    ) -> Result<T, NeedsIntern> {
        Ok(rw(&mut self.st.abs))
    }

    fn compose(&mut self, a: A::X, b: A::X, limits: Limits) -> Result<Option<A::X>, NeedsIntern> {
        let st = &mut self.st;
        st.stats.compose_calls += 1;
        if st.config.memoize {
            if let Some(&r) = st.compose_memo.get(&(a, b, limits)) {
                st.stats.compose_memo_hits += 1;
                if r.is_none() {
                    st.stats.compose_bottom += 1;
                }
                return Ok(r);
            }
            st.stats.compose_memo_misses += 1;
        }
        let r = st.abs.compose(a, b, limits);
        if r.is_none() {
            st.stats.compose_bottom += 1;
        }
        if st.config.memoize {
            st.compose_memo.insert((a, b, limits), r);
        }
        Ok(r)
    }

    #[inline]
    fn emit(&mut self, fact: Fact<A::X>, rule: &'static str) {
        self.insert(fact, rule);
    }

    fn defer(&mut self, _cand: Candidate<A::X>) {
        unreachable!("the direct sink interns, so it never defers");
    }
}
