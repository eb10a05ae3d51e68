//! The Figure 3 rule kernel: every delta driver written once, generic
//! over where its consequences go.
//!
//! A driver joins one delta against the solver's indices and hands each
//! consequence to a [`Sink`]. Three sinks implement the trait:
//!
//! * **direct** — the [`Solver`] itself. Interning always succeeds and
//!   [`Sink::emit`] inserts (dedup, index, log, queue). The
//!   serial loop drives deltas through it, and the parallel merge phase
//!   replays deferred candidates through it.
//! * **worker** — the read-only worker of [`super::frontier`]. Interning
//!   goes through the `try_*` twins of [`Abstraction`]; a consequence
//!   that would intern a new context string is deferred as a
//!   [`Candidate`] for the sequential merge.
//! * **mark** — [`MarkSink`], the over-delete phase of a DRed update.
//!   Interning succeeds as in the direct sink, but `emit` marks the
//!   consequence for deletion (when it is currently derived) instead of
//!   inserting it.
//!
//! Every deferrable step — one interning operation feeding one emission
//! — is a kernel helper of its own ([`Sink::new_pts`], [`Sink::virt`],
//! …), so the merge phase replays a deferred [`Candidate`] by calling
//! the same helper on the direct sink: the rule bodies exist once.

use std::mem;
use std::time::Instant;

use ctxform_algebra::{Abstraction, CtxtElem, CtxtStr, Limits, MergeSite, NeedsIntern};
use ctxform_hash::FxHashSet;
use ctxform_ir::{Field, Heap, Inv, Method, ProgramIndex, Var};

use super::{Solver, SolverState};
use crate::bucket::Bucket;
use crate::result::{elapsed_ns, rule, RuleTimes, PROFILE_STRIDE};

/// Whether a profiled run times the delta with event index `event` (its
/// 0-based position in the run's pop order): one in [`PROFILE_STRIDE`].
#[inline]
pub(super) fn sampled(profile: bool, event: usize) -> bool {
    profile && (event as u64).is_multiple_of(PROFILE_STRIDE)
}

/// One fact of a derived relation: a queued delta, an emitted
/// consequence, or a fact marked for deletion.
#[derive(Clone, Copy)]
pub(super) enum Fact<X> {
    Reach(Method, CtxtStr),
    Pts(Var, Heap, X),
    Call(Inv, Method, X),
    Hpts(Heap, Field, Heap, X),
    Hload(Heap, Field, Var, X),
    Spts(Field, Heap, X),
}

/// A worker's derivation, applied by the merge phase through the direct
/// sink ([`Solver::apply_candidate`]).
///
/// Every variant but `Fact` is a step the worker could not finish
/// read-only because it interns a new context string; it names the
/// kernel helper that replays it.
pub(super) enum Candidate<X> {
    /// A finished consequence.
    Fact(Fact<X>, &'static str),
    /// [`Sink::new_pts`].
    Record(Var, Heap, CtxtStr),
    /// [`Sink::static_call`].
    MergeS(Inv, Method, CtxtStr),
    /// [`Sink::sload_pts`].
    LoadGlobal(Var, Heap, X, CtxtStr),
    /// [`Sink::sstore_spts`].
    Globalize(Field, Heap, X),
    /// [`Sink::compose_pts`].
    ComposePts(Var, Heap, X, X, Limits, &'static str),
    /// [`Sink::compose_hpts`].
    ComposeHpts(Heap, Field, Heap, X, X, Limits, &'static str),
    /// [`Sink::virt`].
    Virt(Inv, Method, Heap, X),
}

/// One LIFO queue per derived relation.
#[derive(Clone)]
pub(super) struct Queues<X> {
    pub(super) reach: Vec<(Method, CtxtStr)>,
    pub(super) pts: Vec<(Var, Heap, X)>,
    pub(super) call: Vec<(Inv, Method, X)>,
    pub(super) hpts: Vec<(Heap, Field, Heap, X)>,
    pub(super) hload: Vec<(Heap, Field, Var, X)>,
    pub(super) spts: Vec<(Field, Heap, X)>,
}

impl<X> Default for Queues<X> {
    fn default() -> Self {
        Queues {
            reach: Vec::new(),
            pts: Vec::new(),
            call: Vec::new(),
            hpts: Vec::new(),
            hload: Vec::new(),
            spts: Vec::new(),
        }
    }
}

impl<X: Copy> Queues<X> {
    pub(super) fn push(&mut self, fact: Fact<X>) {
        match fact {
            Fact::Reach(p, m) => self.reach.push((p, m)),
            Fact::Pts(y, h, x) => self.pts.push((y, h, x)),
            Fact::Call(i, q, x) => self.call.push((i, q, x)),
            Fact::Hpts(g, f, h, x) => self.hpts.push((g, f, h, x)),
            Fact::Hload(g, f, y, x) => self.hload.push((g, f, y, x)),
            Fact::Spts(f, h, x) => self.spts.push((f, h, x)),
        }
    }

    /// Pops the next delta: relations in a fixed priority order
    /// (reach, pts, call, hpts, hload, spts), each queue LIFO.
    pub(super) fn pop(&mut self) -> Option<Fact<X>> {
        if let Some((p, m)) = self.reach.pop() {
            return Some(Fact::Reach(p, m));
        }
        if let Some((y, h, x)) = self.pts.pop() {
            return Some(Fact::Pts(y, h, x));
        }
        if let Some((i, q, x)) = self.call.pop() {
            return Some(Fact::Call(i, q, x));
        }
        if let Some((g, f, h, x)) = self.hpts.pop() {
            return Some(Fact::Hpts(g, f, h, x));
        }
        if let Some((g, f, y, x)) = self.hload.pop() {
            return Some(Fact::Hload(g, f, y, x));
        }
        self.spts.pop().map(|(f, h, x)| Fact::Spts(f, h, x))
    }

    /// Moves every queued delta onto `frontier`, relation by relation in
    /// [`Queues::pop`]'s priority order, each queue in insertion order.
    pub(super) fn drain_into(&mut self, frontier: &mut Vec<Fact<X>>) {
        frontier.extend(self.reach.drain(..).map(|(p, m)| Fact::Reach(p, m)));
        frontier.extend(self.pts.drain(..).map(|(y, h, x)| Fact::Pts(y, h, x)));
        frontier.extend(self.call.drain(..).map(|(i, q, x)| Fact::Call(i, q, x)));
        frontier.extend(
            self.hpts
                .drain(..)
                .map(|(g, f, h, x)| Fact::Hpts(g, f, h, x)),
        );
        frontier.extend(
            self.hload
                .drain(..)
                .map(|(g, f, y, x)| Fact::Hload(g, f, y, x)),
        );
        frontier.extend(self.spts.drain(..).map(|(f, h, x)| Fact::Spts(f, h, x)));
    }
}

/// Reusable join-candidate buffers, one per tuple shape. A driver
/// `mem::take`s one around its join loop and puts it back afterwards, so
/// steady-state evaluation allocates nothing per probe.
#[derive(Clone)]
pub(super) struct Scratch<X> {
    heap: Vec<(Heap, X)>,
    method: Vec<(Method, X)>,
    inv: Vec<(Inv, X)>,
    var: Vec<(Var, X)>,
    ctxts: Vec<CtxtStr>,
}

impl<X> Default for Scratch<X> {
    fn default() -> Self {
        Scratch {
            heap: Vec::new(),
            method: Vec::new(),
            inv: Vec::new(),
            var: Vec::new(),
            ctxts: Vec::new(),
        }
    }
}

/// Where the rule drivers send their work. The required methods are the
/// only behaviour that differs between the direct, worker and mark
/// sinks; the provided methods are the Fig. 3 rules, written once.
pub(super) trait Sink<'p, A: Abstraction> {
    /// The solver whose facts and join indices the drivers read.
    fn solver(&self) -> &Solver<'p, A>;
    fn scratch(&mut self) -> &mut Scratch<A::X>;
    fn count_probes(&mut self, n: u64);
    /// `true` while this sink drives a delta whose rule blocks are timed
    /// (see [`sampled`]).
    fn sampled(&self) -> bool;
    /// Where a sampled delta's block times go.
    fn rule_times(&mut self) -> &mut RuleTimes;
    /// Runs one interning operation: the mutating `rw` when this sink
    /// may intern, otherwise the read-only twin `ro`.
    fn intern<T>(
        &mut self,
        ro: impl FnOnce(&A) -> Result<T, NeedsIntern>,
        rw: impl FnOnce(&mut A) -> T,
    ) -> Result<T, NeedsIntern>;
    /// Counted, memoized `compose`.
    fn compose(&mut self, a: A::X, b: A::X, limits: Limits) -> Result<Option<A::X>, NeedsIntern>;
    fn emit(&mut self, fact: Fact<A::X>, rule: &'static str);
    /// Hands a step that needs interning to the merge phase. Only a sink
    /// whose [`Sink::intern`] can fail ever calls this.
    fn defer(&mut self, cand: Candidate<A::X>);

    fn ix(&self) -> &'p ProgramIndex {
        self.solver().ix
    }

    fn abs<'s>(&'s self) -> &'s A
    where
        'p: 's,
    {
        &self.solver().st.abs
    }

    // Profiling hooks: plain untaken branches (no clock reads) unless
    // the delta being driven is sampled; the timings land only in the
    // sink's rule times, never in a derivation decision.

    #[inline]
    fn prof_start(&self) -> Option<Instant> {
        self.sampled().then(Instant::now)
    }

    #[inline]
    fn prof_rule(&mut self, t: Option<Instant>, idx: usize) {
        if let Some(t) = t {
            self.rule_times().observe_sampled(idx, elapsed_ns(t));
        }
    }

    /// Appends to `out` the rows of the bucket `index` selects that are
    /// compatible with `query`, counting the probes.
    #[inline]
    fn probe<V: Copy>(
        &mut self,
        index: impl FnOnce(&SolverState<A>) -> Option<&Bucket<V>>,
        query: CtxtStr,
        out: &mut Vec<V>,
    ) {
        let st = &self.solver().st;
        let probes = index(st).map_or(0, |bucket| {
            bucket.for_compatible(query, st.abs.interner(), |v| out.push(v))
        });
        self.count_probes(probes);
    }

    /// [`Sink::probe`] over `pts(var, ·, ·)`.
    #[inline]
    fn probe_pts(&mut self, var: Var, query: CtxtStr, out: &mut Vec<(Heap, A::X)>) {
        self.probe(|st| st.pts_by_var.get(&var), query, out);
    }

    fn drive(&mut self, delta: Fact<A::X>) {
        match delta {
            Fact::Reach(p, m) => self.drive_reach(p, m),
            Fact::Pts(y, h, x) => self.drive_pts(y, h, x),
            Fact::Call(i, q, x) => self.drive_call(i, q, x),
            Fact::Hpts(g, f, h, x) => self.drive_hpts(g, f, h, x),
            Fact::Hload(g, f, y, x) => self.drive_hload(g, f, y, x),
            Fact::Spts(f, h, x) => self.drive_spts(f, h, x),
        }
    }

    /// New + Static + SLoad (reach role), driven by a new `reach(P, M)`.
    fn drive_reach(&mut self, p: Method, m: CtxtStr) {
        let ix = self.ix();
        let t = self.prof_start();
        if let Some(allocs) = ix.allocs_by_method.get(&p) {
            for &(h, y) in allocs {
                self.new_pts(y, h, m);
            }
        }
        self.prof_rule(t, rule::NEW);
        let t = self.prof_start();
        if let Some(statics) = ix.statics_by_method.get(&p) {
            for &(i, q) in statics {
                self.static_call(i, q, m);
            }
        }
        self.prof_rule(t, rule::STATIC);
        // SLoad, reach role: spts(F,H,B), static_load(F,Z),
        // reach(parent(Z), M) ⊢ pts(Z,H, load_global(B, M)).
        let t = self.prof_start();
        if let Some(loads) = ix.static_loads_by_method.get(&p) {
            let mut facts = mem::take(&mut self.scratch().heap);
            for &(f, z) in loads {
                facts.clear();
                if let Some(fs) = self.solver().st.spts_by_field.get(&f) {
                    facts.extend_from_slice(fs);
                }
                for &(h, b) in facts.iter() {
                    self.sload_pts(z, h, b, m);
                }
            }
            self.scratch().heap = facts;
        }
        self.prof_rule(t, rule::SLOAD);
    }

    /// Assign, Load, Store (both roles), Param (actual role), Ret (return
    /// role), SStore, Virt — driven by a new `pts(Z, H, B)`.
    fn drive_pts(&mut self, z: Var, h: Heap, b: A::X) {
        let ix = self.ix();
        let store = self.solver().limits_store();
        let flow = self.solver().limits_flow();
        // Assign: pts(Z,H,A), assign(Z,Y) ⊢ pts(Y,H,A).
        let t = self.prof_start();
        if let Some(targets) = ix.assign_from.get(&z) {
            for &y in targets {
                self.emit(Fact::Pts(y, h, b), "Assign");
            }
        }
        self.prof_rule(t, rule::ASSIGN);
        // Load: pts(Y,G,A), load(Y,F,Z) ⊢ hload(G,F,Z,A).
        let t = self.prof_start();
        if let Some(loads) = ix.loads_by_base.get(&z) {
            for &(f, dst) in loads {
                self.emit(Fact::Hload(h, f, dst, b), "Load");
            }
        }
        self.prof_rule(t, rule::LOAD);
        // Store, value role: pts(X,H,B), store(X,F,Z), pts(Z,G,C)
        // ⊢ hpts(G,F,H, B;C⁻¹).
        let t = self.prof_start();
        if let Some(stores) = ix.stores_by_value.get(&z) {
            let query = self.abs().dst_boundary(b);
            let mut cand = mem::take(&mut self.scratch().heap);
            for &(f, base) in stores {
                cand.clear();
                self.probe_pts(base, query, &mut cand);
                for &(g, c) in cand.iter() {
                    let inv_c = self.abs().invert(c);
                    self.compose_hpts(g, f, h, b, inv_c, store, "Store");
                }
            }
            self.scratch().heap = cand;
        }
        // Store, base role: pts(Z,G,C) with store(X,F,Z).
        if let Some(stores) = ix.stores_by_base.get(&z) {
            let query = self.abs().dst_boundary(b);
            let inv_c = self.abs().invert(b);
            let mut cand = mem::take(&mut self.scratch().heap);
            for &(f, value) in stores {
                cand.clear();
                self.probe_pts(value, query, &mut cand);
                for &(hh, bv) in cand.iter() {
                    self.compose_hpts(h, f, hh, bv, inv_c, store, "Store");
                }
            }
            self.scratch().heap = cand;
        }
        self.prof_rule(t, rule::STORE);
        // Param, actual role: pts(Z,H,B), actual(Z,I,O), call(I,P,C),
        // formal(Y,P,O) ⊢ pts(Y,H, B;C).
        let t = self.prof_start();
        if let Some(actuals) = ix.actuals_by_var.get(&z) {
            let query = self.abs().dst_boundary(b);
            let mut cand = mem::take(&mut self.scratch().method);
            for &(i, o) in actuals {
                cand.clear();
                self.probe(|st| st.call_by_inv.get(&i), query, &mut cand);
                for &(p, c) in cand.iter() {
                    if let Some(&y) = ix.formal_of.get(&(p, o)) {
                        self.compose_pts(y, h, b, c, flow, "Param");
                    }
                }
            }
            self.scratch().method = cand;
        }
        self.prof_rule(t, rule::PARAM);
        // Ret, return role: pts(Z,H,B), return(Z,P), call(I,P,C),
        // assign_return(I,Y) ⊢ pts(Y,H, B;C⁻¹).
        let t = self.prof_start();
        if let Some(returns) = ix.returns_by_var.get(&z) {
            let query = self.abs().dst_boundary(b);
            let mut cand = mem::take(&mut self.scratch().inv);
            for &p in returns {
                cand.clear();
                self.probe(|st| st.call_by_method.get(&p), query, &mut cand);
                for &(i, c) in cand.iter() {
                    let inv_c = self.abs().invert(c);
                    let ys = ix
                        .assign_return_by_inv
                        .get(&i)
                        .map_or(&[][..], Vec::as_slice);
                    self.ret_pts(ys, h, b, inv_c, flow);
                }
            }
            self.scratch().inv = cand;
        }
        self.prof_rule(t, rule::RET);
        // SStore: pts(X,H,B), static_store(X,F) ⊢ spts(F,H, globalize(B)).
        let t = self.prof_start();
        if let Some(fields) = ix.static_stores_by_var.get(&z) {
            for &f in fields {
                self.sstore_spts(f, h, b);
            }
        }
        self.prof_rule(t, rule::SSTORE);
        // Virt: virtual_invoke(I,Z,S), pts(Z,H,B), heap_type(H,T),
        // implements(Q,T,S) ⊢ call(I,Q,C), pts(this(Q),H, B;C).
        let t = self.prof_start();
        if let Some(virtuals) = ix.virtuals_by_recv.get(&z) {
            let ty = ix.type_of_heap[h.index()];
            for &(i, s) in virtuals {
                if let Some(q) = ix.resolve(ty, s) {
                    self.virt(i, q, h, b);
                }
            }
        }
        self.prof_rule(t, rule::VIRT);
    }

    /// Ind, hpts role: hpts(G,F,H,B), hload(G,F,Y,C) ⊢ pts(Y,H, B;C).
    fn drive_hpts(&mut self, g: Heap, f: Field, h: Heap, b: A::X) {
        let t = self.prof_start();
        let flow = self.solver().limits_flow();
        let query = self.abs().dst_boundary(b);
        let mut cand = mem::take(&mut self.scratch().var);
        cand.clear();
        self.probe(|st| st.hload_by_gf.get(&(g, f)), query, &mut cand);
        for &(y, c) in cand.iter() {
            self.compose_pts(y, h, b, c, flow, "Ind");
        }
        self.scratch().var = cand;
        self.prof_rule(t, rule::IND);
    }

    /// Ind, hload role.
    fn drive_hload(&mut self, g: Heap, f: Field, y: Var, c: A::X) {
        let t = self.prof_start();
        let flow = self.solver().limits_flow();
        let query = self.abs().src_boundary(c);
        let mut cand = mem::take(&mut self.scratch().heap);
        cand.clear();
        self.probe(|st| st.hpts_by_gf.get(&(g, f)), query, &mut cand);
        for &(h, b) in cand.iter() {
            self.compose_pts(y, h, b, c, flow, "Ind");
        }
        self.scratch().heap = cand;
        self.prof_rule(t, rule::IND);
    }

    /// SLoad, spts role: joins every reachable context of each loading
    /// method.
    fn drive_spts(&mut self, f: Field, h: Heap, b: A::X) {
        let ix = self.ix();
        let t = self.prof_start();
        if let Some(loaders) = ix.static_loads_by_field.get(&f) {
            let mut contexts = mem::take(&mut self.scratch().ctxts);
            for &z in loaders {
                let s = self.solver();
                let p = s.program.var_method[z.index()];
                contexts.clear();
                if let Some(ms) = s.st.reach_by_method.get(&p) {
                    contexts.extend_from_slice(ms);
                }
                for &m in contexts.iter() {
                    self.sload_pts(z, h, b, m);
                }
            }
            self.scratch().ctxts = contexts;
        }
        self.prof_rule(t, rule::SLOAD);
    }

    /// Reach + Param (call role) + Ret (call role), driven by a new
    /// `call(I, P, C)`.
    fn drive_call(&mut self, i: Inv, p: Method, c: A::X) {
        let ix = self.ix();
        let flow = self.solver().limits_flow();
        // Reach: call(I,P,A) ⊢ reach(P, target(A)).
        let t = self.prof_start();
        let m = self.abs().target(c);
        self.emit(Fact::Reach(p, m), "Reach");
        self.prof_rule(t, rule::REACH);
        // Param, call role.
        let t = self.prof_start();
        if let Some(actuals) = ix.actuals_by_inv.get(&i) {
            let query = self.abs().src_boundary(c);
            let mut cand = mem::take(&mut self.scratch().heap);
            for &(o, z) in actuals {
                let Some(&y) = ix.formal_of.get(&(p, o)) else {
                    continue;
                };
                cand.clear();
                self.probe_pts(z, query, &mut cand);
                for &(h, b) in cand.iter() {
                    self.compose_pts(y, h, b, c, flow, "Param");
                }
            }
            self.scratch().heap = cand;
        }
        self.prof_rule(t, rule::PARAM);
        // Ret, call role.
        let t = self.prof_start();
        if let (Some(ys), Some(returns)) = (
            ix.assign_return_by_inv.get(&i),
            ix.returns_by_method.get(&p),
        ) {
            let query = self.abs().dst_boundary(c);
            // `c` is fixed for this delta, so its inverse is loop-invariant.
            let inv_c = self.abs().invert(c);
            let mut cand = mem::take(&mut self.scratch().heap);
            for &z in returns {
                cand.clear();
                self.probe_pts(z, query, &mut cand);
                for &(h, b) in cand.iter() {
                    self.ret_pts(ys, h, b, inv_c, flow);
                }
            }
            self.scratch().heap = cand;
        }
        self.prof_rule(t, rule::RET);
    }

    // Deferrable steps, shared by the drivers and the merge-phase replay.

    /// New: `pts(Y, H, record(M))`.
    fn new_pts(&mut self, y: Var, h: Heap, m: CtxtStr) {
        match self.intern(|a| a.try_record(m), |a| a.record(m)) {
            Ok(x) => self.emit(Fact::Pts(y, h, x), "New"),
            Err(_) => self.defer(Candidate::Record(y, h, m)),
        }
    }

    /// Static: `call(I, Q, merge_s(I, M))`.
    fn static_call(&mut self, i: Inv, q: Method, m: CtxtStr) {
        let site = CtxtElem::of_inv(i);
        match self.intern(|a| a.try_merge_s(site, m), |a| a.merge_s(site, m)) {
            Ok(c) => self.emit(Fact::Call(i, q, c), "Static"),
            Err(_) => self.defer(Candidate::MergeS(i, q, m)),
        }
    }

    /// SLoad: `pts(Z, H, load_global(B, M))`.
    fn sload_pts(&mut self, z: Var, h: Heap, b: A::X, m: CtxtStr) {
        match self.intern(|a| a.try_load_global(b, m), |a| a.load_global(b, m)) {
            Ok(x) => self.emit(Fact::Pts(z, h, x), "SLoad"),
            Err(_) => self.defer(Candidate::LoadGlobal(z, h, b, m)),
        }
    }

    /// SStore: `spts(F, H, globalize(B))`.
    fn sstore_spts(&mut self, f: Field, h: Heap, b: A::X) {
        match self.intern(|a| a.try_globalize(b), |a| a.globalize(b)) {
            Ok(g) => self.emit(Fact::Spts(f, h, g), "SStore"),
            Err(_) => self.defer(Candidate::Globalize(f, h, b)),
        }
    }

    /// `pts(Y, H, A;B)` unless the composition is ⊥.
    fn compose_pts(
        &mut self,
        y: Var,
        h: Heap,
        a: A::X,
        b: A::X,
        limits: Limits,
        rule: &'static str,
    ) {
        match self.compose(a, b, limits) {
            Ok(Some(x)) => self.emit(Fact::Pts(y, h, x), rule),
            Ok(None) => {}
            Err(_) => self.defer(Candidate::ComposePts(y, h, a, b, limits, rule)),
        }
    }

    /// `hpts(G, F, H, A;B)` unless the composition is ⊥. Under the
    /// insensitive-heap collapse the context is stored uninformative, so
    /// every sink dedups and marks the stored form.
    #[allow(clippy::too_many_arguments)]
    fn compose_hpts(
        &mut self,
        g: Heap,
        f: Field,
        h: Heap,
        a: A::X,
        b: A::X,
        limits: Limits,
        rule: &'static str,
    ) {
        match self.compose(a, b, limits) {
            Ok(Some(x)) => {
                let st = &self.solver().st;
                let x = if st.levels.heap == 0 {
                    st.abs.uninformative()
                } else {
                    x
                };
                self.emit(Fact::Hpts(g, f, h, x), rule);
            }
            Ok(None) => {}
            Err(_) => self.defer(Candidate::ComposeHpts(g, f, h, a, b, limits, rule)),
        }
    }

    /// Ret's consequent for one joined `(H, B)` row: `pts(Y, H, B;C⁻¹)`
    /// for every `Y` in `ys`. The compose runs once for all of them.
    fn ret_pts(&mut self, ys: &[Var], h: Heap, b: A::X, inv_c: A::X, limits: Limits) {
        let composed = match self.compose(b, inv_c, limits) {
            Ok(Some(a)) => Ok(a),
            Ok(None) => return,
            Err(e) => Err(e),
        };
        for &y in ys {
            match composed {
                Ok(a) => self.emit(Fact::Pts(y, h, a), "Ret"),
                Err(_) => self.defer(Candidate::ComposePts(y, h, b, inv_c, limits, "Ret")),
            }
        }
    }

    /// Virt's consequent for receiver row `(H, B)` at `I` dispatching to
    /// `Q`: `call(I, Q, C)` and `pts(this(Q), H, B;C)` with
    /// `C = merge(H, I, B)`.
    fn virt(&mut self, i: Inv, q: Method, h: Heap, b: A::X) {
        let ix = self.ix();
        let site = MergeSite {
            inv: CtxtElem::of_inv(i),
            heap: CtxtElem::of_heap(h),
            class: CtxtElem::of_type(ix.class_of_heap[h.index()]),
        };
        let Ok(c) = self.intern(|a| a.try_merge(site, b), |a| a.merge(site, b)) else {
            // The call edge itself needs interning: the merge phase
            // replays the whole consequent.
            return self.defer(Candidate::Virt(i, q, h, b));
        };
        self.emit(Fact::Call(i, q, c), "Virt");
        if let Some(&y) = ix.this_of_method.get(&q) {
            let flow = self.solver().limits_flow();
            self.compose_pts(y, h, b, c, flow, "Virt");
        }
    }
}

/// The over-delete phase's marks: one set per derived relation, plus the
/// worklist of marked facts whose consequences are still to be marked.
pub(super) struct RetractSink<X> {
    pub(super) pts: FxHashSet<(Var, Heap, X)>,
    pub(super) hpts: FxHashSet<(Heap, Field, Heap, X)>,
    pub(super) hload: FxHashSet<(Heap, Field, Var, X)>,
    pub(super) call: FxHashSet<(Inv, Method, X)>,
    pub(super) spts: FxHashSet<(Field, Heap, X)>,
    pub(super) reach: FxHashSet<(Method, CtxtStr)>,
    queue: Queues<X>,
}

impl<X: Copy + Eq + std::hash::Hash> RetractSink<X> {
    pub(super) fn new() -> Self {
        RetractSink {
            pts: FxHashSet::default(),
            hpts: FxHashSet::default(),
            hload: FxHashSet::default(),
            call: FxHashSet::default(),
            spts: FxHashSet::default(),
            reach: FxHashSet::default(),
            queue: Queues::default(),
        }
    }

    /// Total marked facts across all six derived relations.
    pub(super) fn len(&self) -> usize {
        self.pts.len()
            + self.hpts.len()
            + self.hload.len()
            + self.call.len()
            + self.spts.len()
            + self.reach.len()
    }

    /// Marks `fact` for deletion if it is currently derived and not yet
    /// marked (the mark sets double as the worklist's seen-set).
    pub(super) fn mark<A: Abstraction<X = X>>(&mut self, st: &SolverState<A>, fact: Fact<X>) {
        if !st.contains(fact) {
            return;
        }
        let fresh = match fact {
            Fact::Reach(p, m) => self.reach.insert((p, m)),
            Fact::Pts(y, h, x) => self.pts.insert((y, h, x)),
            Fact::Call(i, q, x) => self.call.insert((i, q, x)),
            Fact::Hpts(g, f, h, x) => self.hpts.insert((g, f, h, x)),
            Fact::Hload(g, f, y, x) => self.hload.insert((g, f, y, x)),
            Fact::Spts(f, h, x) => self.spts.insert((f, h, x)),
        };
        if fresh {
            self.queue.push(fact);
        }
    }
}

/// The mark sink: runs the rule drivers over marked facts, marking every
/// currently derived consequence instead of inserting it. Join partners
/// come from the intact indices, so every one-step consequence of a
/// marked fact is found.
pub(super) struct MarkSink<'s, 'p, A: Abstraction> {
    pub(super) solver: &'s mut Solver<'p, A>,
    pub(super) marks: RetractSink<A::X>,
}

impl<A: Abstraction> MarkSink<'_, '_, A> {
    /// Closes the marking transitively. The whole pass is timed as the
    /// `retract` phase, so no mark delta is sampled into rule time.
    pub(super) fn run(mut self) -> RetractSink<A::X> {
        while let Some(delta) = self.marks.queue.pop() {
            self.solver.st.stats.events += 1;
            self.drive(delta);
        }
        self.marks
    }
}

impl<'p, A: Abstraction> Sink<'p, A> for MarkSink<'_, 'p, A> {
    fn solver(&self) -> &Solver<'p, A> {
        self.solver
    }

    fn scratch(&mut self) -> &mut Scratch<A::X> {
        self.solver.scratch()
    }

    fn count_probes(&mut self, n: u64) {
        self.solver.count_probes(n);
    }

    fn sampled(&self) -> bool {
        false
    }

    fn rule_times(&mut self) -> &mut RuleTimes {
        unreachable!("the mark sink samples no delta")
    }

    fn intern<T>(
        &mut self,
        ro: impl FnOnce(&A) -> Result<T, NeedsIntern>,
        rw: impl FnOnce(&mut A) -> T,
    ) -> Result<T, NeedsIntern> {
        self.solver.intern(ro, rw)
    }

    fn compose(&mut self, a: A::X, b: A::X, limits: Limits) -> Result<Option<A::X>, NeedsIntern> {
        self.solver.compose(a, b, limits)
    }

    fn emit(&mut self, fact: Fact<A::X>, _rule: &'static str) {
        self.marks.mark(&self.solver.st, fact);
    }

    fn defer(&mut self, _cand: Candidate<A::X>) {
        unreachable!("the mark sink interns, so it never defers");
    }
}
