//! The Figure 3 rule kernel: every delta driver written once, generic
//! over where its consequences go.
//!
//! A driver joins one delta against the solver's indices and hands each
//! consequence to a [`Sink`], whose [`Sink::emit`] decides where it goes.
//! The [`Solver`] itself is the sink of every solve: `emit` inserts
//! (dedup, index, log, queue), and the serial delta loop drives every
//! delta through it. The backward enumerator's property test
//! ([`super::backward`]) drives premises through a sink that only
//! collects what is emitted.
//!
//! Every two-literal join is driven from both sides, so re-driving any
//! one premise of a rule instance re-fires it; an additive extension's
//! seed relies on that when it re-queues existing facts that join a new
//! input tuple.

use std::mem;
use std::time::Instant;

use ctxform_algebra::{Abstraction, CtxtElem, CtxtStr, Limits, MergeSite};
use ctxform_ir::{Field, Heap, Inv, Method, ProgramIndex, Var};

use super::{Solver, SolverState};
use crate::bucket::Bucket;
use crate::result::{elapsed_ns, rule, PROFILE_STRIDE};

/// Whether a profiled run times the delta with event index `event` (its
/// 0-based position in the run's pop order): one in [`PROFILE_STRIDE`].
#[inline]
pub(super) fn sampled(profile: bool, event: usize) -> bool {
    profile && (event as u64).is_multiple_of(PROFILE_STRIDE)
}

/// One fact of a derived relation: a queued delta or an emitted
/// consequence.
#[derive(Clone, Copy)]
pub(super) enum Fact<X> {
    Reach(Method, CtxtStr),
    Pts(Var, Heap, X),
    Call(Inv, Method, X),
    Hpts(Heap, Field, Heap, X),
    Hload(Heap, Field, Var, X),
    Spts(Field, Heap, X),
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

/// Where the rule drivers send their work. [`Sink::emit`] is the only
/// behaviour a sink supplies; the provided methods are the Fig. 3 rules,
/// written once.
pub(super) trait Sink<'p, A: Abstraction> {
    /// The solver whose facts and join indices the drivers read.
    fn solver(&self) -> &Solver<'p, A>;
    /// The same solver, for interning, memoized composition and counters.
    fn solver_mut(&mut self) -> &mut Solver<'p, A>;
    fn emit(&mut self, fact: Fact<A::X>, rule: &'static str);

    #[inline]
    fn scratch<'s>(&'s mut self) -> &'s mut Scratch<A::X>
    where
        'p: 's,
        A: 's,
    {
        &mut self.solver_mut().st.scratch
    }

    #[inline]
    fn count_probes(&mut self, n: u64) {
        self.solver_mut().st.stats.probes += n;
    }

    /// Runs one interning operation on the solver's abstraction.
    #[inline]
    fn intern<T>(&mut self, op: impl FnOnce(&mut A) -> T) -> T {
        op(&mut self.solver_mut().st.abs)
    }

    /// Counted, memoized `compose`; `None` is ⊥.
    fn compose(&mut self, a: A::X, b: A::X, limits: Limits) -> Option<A::X> {
        let st = &mut self.solver_mut().st;
        st.stats.compose_calls += 1;
        if st.config.memoize {
            if let Some(&r) = st.compose_memo.get(&(a, b, limits)) {
                st.stats.compose_memo_hits += 1;
                if r.is_none() {
                    st.stats.compose_bottom += 1;
                }
                return r;
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
        r
    }

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
    // the delta being driven is sampled (see [`sampled`]); the timings
    // land only in the solver's rule times, never in a derivation
    // decision.

    #[inline]
    fn prof_start(&self) -> Option<Instant> {
        self.solver().sampled.then(Instant::now)
    }

    #[inline]
    fn prof_rule(&mut self, t: Option<Instant>, idx: usize) {
        if let Some(t) = t {
            let ns = elapsed_ns(t);
            self.solver_mut()
                .st
                .stats
                .rule_time
                .observe_sampled(idx, ns);
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
            // New: pts(Y, H, record(M)).
            for &(h, y) in allocs {
                let x = self.intern(|a| a.record(m));
                self.emit(Fact::Pts(y, h, x), "New");
            }
        }
        self.prof_rule(t, rule::NEW);
        let t = self.prof_start();
        if let Some(statics) = ix.statics_by_method.get(&p) {
            // Static: call(I, Q, merge_s(I, M)).
            for &(i, q) in statics {
                let site = CtxtElem::of_inv(i);
                let c = self.intern(|a| a.merge_s(site, m));
                self.emit(Fact::Call(i, q, c), "Static");
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
            let g = self.intern(|a| a.globalize(b));
            for &f in fields {
                self.emit(Fact::Spts(f, h, g), "SStore");
            }
        }
        self.prof_rule(t, rule::SSTORE);
        // Virt: virtual_invoke(I,Z,S), pts(Z,H,B), heap_type(H,T),
        // implements(Q,T,S) ⊢ call(I,Q,C), pts(this(Q),H, B;C).
        let t = self.prof_start();
        if let Some(virtuals) = ix.virtuals_by_recv.get(&z) {
            let ty = ix.type_of_heap[h.index()];
            for &(i, s) in virtuals {
                let Some(q) = ix.resolve(ty, s) else {
                    continue;
                };
                // C = merge(H, I, B).
                let site = MergeSite {
                    inv: CtxtElem::of_inv(i),
                    heap: CtxtElem::of_heap(h),
                    class: CtxtElem::of_type(ix.class_of_heap[h.index()]),
                };
                let c = self.intern(|a| a.merge(site, b));
                self.emit(Fact::Call(i, q, c), "Virt");
                if let Some(&y) = ix.this_of_method.get(&q) {
                    self.compose_pts(y, h, b, c, flow, "Virt");
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

    // Steps shared by more than one driver.

    /// SLoad: `pts(Z, H, load_global(B, M))`.
    fn sload_pts(&mut self, z: Var, h: Heap, b: A::X, m: CtxtStr) {
        let x = self.intern(|a| a.load_global(b, m));
        self.emit(Fact::Pts(z, h, x), "SLoad");
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
        if let Some(x) = self.compose(a, b, limits) {
            self.emit(Fact::Pts(y, h, x), rule);
        }
    }

    /// `hpts(G, F, H, A;B)` unless the composition is ⊥. Under the
    /// insensitive-heap collapse the context is stored uninformative, so
    /// the sink dedups the stored form.
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
        if let Some(x) = self.compose(a, b, limits) {
            let st = &self.solver().st;
            let x = if st.levels.heap == 0 {
                st.abs.uninformative()
            } else {
                x
            };
            self.emit(Fact::Hpts(g, f, h, x), rule);
        }
    }

    /// Ret's consequent for one joined `(H, B)` row: `pts(Y, H, B;C⁻¹)`
    /// for every `Y` in `ys`. The compose runs once for all of them.
    fn ret_pts(&mut self, ys: &[Var], h: Heap, b: A::X, inv_c: A::X, limits: Limits) {
        if let Some(a) = self.compose(b, inv_c, limits) {
            for &y in ys {
                self.emit(Fact::Pts(y, h, a), "Ret");
            }
        }
    }
}
