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
//! that decides where consequences go; the [`Solver`] itself inserts them
//! in the serial delta loop. The rules' reverse direction is written once
//! too, in [`backward`]: it enumerates the rule instances that can derive
//! a context-insensitive head, for the demand slice.
//!
//! A solved state can resume after a purely additive edit
//! ([`extend_state`]). There is no deletion path: a retractive edit is
//! re-solved from scratch by [`crate::AnalysisDb`], which on the
//! benchmarked edit workloads is faster than delete-and-rederive was.
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

pub(crate) mod backward;
mod kernel;

use std::mem;
use std::time::Instant;

use ctxform_algebra::{Abstraction, CtxtDigest, CtxtElem, CtxtStr, Levels, Limits};
use ctxform_hash::{
    fx_map_with_capacity, hash_str, hash_words, FxHashMap, FxHashSet, MultisetDigest,
};
use ctxform_ir::{Facts, Field, Heap, Inv, MSig, Method, Program, ProgramDelta, ProgramIndex, Var};

use self::kernel::{Fact, Queues, Scratch, Sink};
use crate::bucket::Bucket;
use crate::config::AnalysisConfig;
use crate::result::{
    elapsed_ns, rule, AnalysisResult, CiFacts, LoggedFact, MemoryFootprint, SolverStats,
};

/// Fixed per-slot estimate for hash-container overhead (control bytes
/// plus load-factor slack) in the [`MemoryFootprint`] byte accounting.
/// A constant keeps the estimates deterministic across runs and
/// platforms, unlike querying the allocator.
const HASH_SLOT_OVERHEAD: usize = 8;

/// Runs the analysis with the given abstraction instance.
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

/// Solves `program` from scratch inside `state` (which must be fresh) and
/// returns the state alongside the result, so callers can keep the solved
/// database for later [`extend_state`] calls.
pub(crate) fn solve_state<A: Abstraction>(
    program: &Program,
    state: SolverState<A>,
) -> (SolverState<A>, AnalysisResult) {
    let config = state.config;
    let ix = program.index();
    let mut solver = Solver::from_state(program, &ix, state);
    // The solve-level span is inert (one relaxed load) unless tracing
    // was enabled; the config tag is only rendered when it will be kept.
    let mut span = ctxform_obs::span("solver.solve");
    if span.is_active() {
        span.record("config", format!("{config}"));
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
    solver.run_to_fixpoint();
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
/// extended program — the same fact sets a from-scratch solve derives.
pub(crate) fn extend_state<A: Abstraction>(
    program: &Program,
    state: SolverState<A>,
    delta: &ProgramDelta,
) -> (SolverState<A>, AnalysisResult) {
    let config = state.config;
    let ix = program.index();
    let mut solver = Solver::from_state(program, &ix, state);
    let mut span = ctxform_obs::span("solver.extend");
    if span.is_active() {
        span.record("config", format!("{config}"));
        span.record("delta_facts", delta.len());
    }
    let start = Instant::now();
    solver.st.stats.profiled = config.profile;
    let t = solver.phase_start();
    solver.reseed_for_delta(&delta.added, &delta.added_entry_points);
    solver.st.stats.phase_profile.seed_ns += phase_ns(t);
    solver.run_to_fixpoint();
    let result = solver.finish(start);
    span.record("facts_total", result.stats.total());
    span.record("events", result.stats.events);
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
    /// of interning order and of whether the state came from a solve or
    /// an extension.
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

    /// Starts a phase clock when the run is profiled.
    #[inline]
    fn phase_start(&self) -> Option<Instant> {
        self.st.config.profile.then(Instant::now)
    }

    /// Runs the queues to empty, one delta at a time. Seeding (entry
    /// points or an incremental delta) is the caller's job, so the same
    /// loop serves fresh solves and resumed ones.
    fn run_to_fixpoint(&mut self) {
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

/// The direct sink: consequences are inserted on the spot.
impl<'p, A: Abstraction> Sink<'p, A> for Solver<'p, A> {
    #[inline]
    fn solver(&self) -> &Solver<'p, A> {
        self
    }

    #[inline]
    fn solver_mut(&mut self) -> &mut Solver<'p, A> {
        self
    }

    #[inline]
    fn emit(&mut self, fact: Fact<A::X>, rule: &'static str) {
        self.insert(fact, rule);
    }
}
