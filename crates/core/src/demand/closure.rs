//! The native demand slice, in two halves: a per-program
//! [`DemandIndex`] (one serial context-insensitive solve on the
//! specialized solver, plus reverse indices of the input relations), and
//! a per-query backward closure over the [`CI_RULES`] instances from the
//! query roots ([`DemandIndex::slice`]).
//!
//! A head in the closure demands the premises of every rule instance that
//! derives it and whose premises all hold in the fixpoint. Starting from
//! the roots' full `pts(v, ·)`, the closure is therefore exactly the union
//! of the nodes of every CI derivation tree of the roots: unique, free of
//! magic or adorned bookkeeping, and a subset of what magic sets demand
//! (they must demand every such node).
//!
//! The index is stored in flat rows over the dense id spaces (see
//! [`Rows`]): membership checks are binary searches in sorted rows, and
//! nothing in it depends on the roots, so one index serves every query
//! against its program.
//!
//! [`CI_RULES`]: crate::CI_RULES

use ctxform_ir::{Field, Heap, Inv, MSig, Method, Program, Type, Var};

use super::DemandSlice;
use crate::solver::insensitive_fixpoint;

/// A multimap over a dense key space in compressed-sparse-row form: the
/// values of key `k` are `vals[off[k]..off[k + 1]]`, sorted. Duplicate
/// pairs are kept, so a row enumerates every input tuple, and the
/// closure's count of examined rule instances matches the relations.
#[derive(Debug)]
struct Rows<T> {
    off: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy + Ord> Rows<T> {
    /// Groups `(key, value)` pairs, with keys below `keys`.
    fn new(keys: usize, pairs: impl Iterator<Item = (usize, T)>) -> Self {
        let mut pairs: Vec<(usize, T)> = pairs.collect();
        pairs.sort_unstable();
        let mut off = vec![0u32; keys + 1];
        for &(k, _) in &pairs {
            off[k + 1] += 1;
        }
        for k in 0..keys {
            off[k + 1] += off[k];
        }
        Rows {
            off,
            vals: pairs.into_iter().map(|(_, v)| v).collect(),
        }
    }

    /// The values stored under key `k`.
    fn row(&self, k: usize) -> &[T] {
        &self.vals[self.off[k] as usize..self.off[k + 1] as usize]
    }

    /// Whether `v` is stored under key `k`.
    fn contains(&self, k: usize, v: &T) -> bool {
        self.row(k).binary_search(v).is_ok()
    }
}

/// The entries of a sorted row of pairs whose first column is `k`.
fn with_first<K: Ord + Copy, V>(row: &[(K, V)], k: K) -> &[(K, V)] {
    let lo = row.partition_point(|e| e.0 < k);
    let hi = lo + row[lo..].partition_point(|e| e.0 == k);
    &row[lo..hi]
}

/// The input relations keyed by the columns a rule's head binds, so that
/// a head enumerates exactly the rule instances that can derive it. A
/// composite key `(A, B)` is a row under `A` of `(B, value)` pairs.
#[derive(Debug)]
struct Reverse {
    /// `assign_new(H, Y, P)` under `Y`: all `(H, P)`.
    allocs: Rows<(Heap, Method)>,
    /// `assign(Z, Y)` under `Y`: all `Z`.
    assigns_into: Rows<Var>,
    /// `load(Y, F, Z)` under `Z`: all `(F, Y)`.
    loads_into: Rows<(Field, Var)>,
    /// `store(X, F, Z)` under `F`: all `(X, Z)`.
    stores_of: Rows<(Var, Var)>,
    /// `static_invoke(I, Q, P)` under `I`: all `(Q, P)`.
    statics_at: Rows<(Method, Method)>,
    /// `virtual_invoke(I, Z, S)` under `I`: all `(Z, S)`.
    virtuals_at: Rows<(Var, MSig)>,
    /// `virtual_invoke(I, Z, S)` under `S`: all receivers `Z`.
    receivers_of: Rows<Var>,
    /// `heap_type(H, T)` under `H`.
    types_of: Rows<Type>,
    /// `implements(Q, T, S)` under `Q`: all `(T, S)`.
    implements: Rows<(Type, MSig)>,
    /// `this_var(Y, Q)` under `Y`.
    this_of: Rows<Method>,
    /// `formal(Y, P, O)` under `Y`: all `(P, O)`.
    formals: Rows<(Method, u32)>,
    /// `actual(Z, I, O)` under `I`: all `(O, Z)`.
    actuals: Rows<(u32, Var)>,
    /// `assign_return(I, Y)` under `Y`.
    returns_into: Rows<Inv>,
    /// `return(Z, P)` under `P`.
    returns_of: Rows<Var>,
    /// `static_store(X, F)` under `F`.
    static_stores_of: Rows<Var>,
    /// `static_load(F, Z)` under `Z`.
    static_loads_into: Rows<Field>,
}

impl Reverse {
    fn new(program: &Program) -> Self {
        let f = &program.facts;
        let (vars, heaps, invs) = (
            program.var_count(),
            program.heap_count(),
            program.inv_count(),
        );
        let (methods, fields) = (program.method_count(), program.field_count());
        Reverse {
            allocs: Rows::new(
                vars,
                f.assign_new.iter().map(|&(h, y, p)| (y.index(), (h, p))),
            ),
            assigns_into: Rows::new(vars, f.assign.iter().map(|&(z, y)| (y.index(), z))),
            loads_into: Rows::new(
                vars,
                f.load.iter().map(|&(y, fld, z)| (z.index(), (fld, y))),
            ),
            stores_of: Rows::new(
                fields,
                f.store.iter().map(|&(x, fld, z)| (fld.index(), (x, z))),
            ),
            statics_at: Rows::new(
                invs,
                f.static_invoke.iter().map(|&(i, q, p)| (i.index(), (q, p))),
            ),
            virtuals_at: Rows::new(
                invs,
                f.virtual_invoke
                    .iter()
                    .map(|&(i, z, s)| (i.index(), (z, s))),
            ),
            receivers_of: Rows::new(
                program.msig_count(),
                f.virtual_invoke.iter().map(|&(_, z, s)| (s.index(), z)),
            ),
            types_of: Rows::new(heaps, f.heap_type.iter().map(|&(h, t)| (h.index(), t))),
            implements: Rows::new(
                methods,
                f.implements.iter().map(|&(q, t, s)| (q.index(), (t, s))),
            ),
            this_of: Rows::new(vars, f.this_var.iter().map(|&(y, q)| (y.index(), q))),
            formals: Rows::new(vars, f.formal.iter().map(|&(y, p, o)| (y.index(), (p, o)))),
            actuals: Rows::new(invs, f.actual.iter().map(|&(z, i, o)| (i.index(), (o, z)))),
            returns_into: Rows::new(vars, f.assign_return.iter().map(|&(i, y)| (y.index(), i))),
            returns_of: Rows::new(methods, f.ret.iter().map(|&(z, p)| (p.index(), z))),
            static_stores_of: Rows::new(
                fields,
                f.static_store.iter().map(|&(x, fld)| (fld.index(), x)),
            ),
            static_loads_into: Rows::new(
                vars,
                f.static_load.iter().map(|&(fld, z)| (z.index(), fld)),
            ),
        }
    }
}

/// The CI fixpoint, indexed for the premise checks of the backward walk.
#[derive(Debug)]
struct Fixpoint {
    /// `pts(V, H)` under `V`.
    pts: Rows<Heap>,
    /// `hpts(G, F, H)` under `G`: all `(F, H)`.
    hpts: Rows<(Field, Heap)>,
    /// `spts(F, H)` under `F`.
    spts: Rows<Heap>,
    /// `hload(G, F, Z)` under `Z`: all `(G, F)`.
    hloads_into: Rows<(Heap, Field)>,
    /// `call(I, Q)` under `I`.
    callees: Rows<Method>,
    /// `call(I, Q)` under `Q`.
    callers: Rows<Inv>,
    /// `reach(P)` per method.
    reach: Vec<bool>,
    /// Tuples across the six derived relations.
    size: usize,
}

impl Fixpoint {
    /// Solves `program` context-insensitively on the specialized solver.
    fn solve(program: &Program) -> Self {
        let db = insensitive_fixpoint(program);
        let mut reach = vec![false; program.method_count()];
        for &(p, _) in &db.reach {
            reach[p.index()] = true;
        }
        let (vars, invs, methods) = (
            program.var_count(),
            program.inv_count(),
            program.method_count(),
        );
        Fixpoint {
            size: db.pts.len()
                + db.hpts.len()
                + db.hload.len()
                + db.call.len()
                + db.spts.len()
                + reach.iter().filter(|&&r| r).count(),
            pts: Rows::new(vars, db.pts.iter().map(|&(v, h, ())| (v.index(), h))),
            hpts: Rows::new(
                program.heap_count(),
                db.hpts.iter().map(|&(g, f, h, ())| (g.index(), (f, h))),
            ),
            spts: Rows::new(
                program.field_count(),
                db.spts.iter().map(|&(f, h, ())| (f.index(), h)),
            ),
            hloads_into: Rows::new(
                vars,
                db.hload.iter().map(|&(g, f, z, ())| (z.index(), (g, f))),
            ),
            callees: Rows::new(invs, db.call.iter().map(|&(i, q, ())| (i.index(), q))),
            callers: Rows::new(methods, db.call.iter().map(|&(i, q, ())| (q.index(), i))),
            reach,
        }
    }

    fn pts(&self, v: Var, h: Heap) -> bool {
        self.pts.contains(v.index(), &h)
    }

    fn hpts(&self, g: Heap, f: Field, h: Heap) -> bool {
        self.hpts.contains(g.index(), &(f, h))
    }

    fn spts(&self, f: Field, h: Heap) -> bool {
        self.spts.contains(f.index(), &h)
    }

    fn reach(&self, p: Method) -> bool {
        self.reach[p.index()]
    }
}

/// The root-independent half of the native demand slice: the program's
/// serial CI fixpoint and the reverse index of its input relations.
///
/// Build it once per program with [`DemandIndex::new`], then cut any
/// number of slices from it with [`DemandIndex::slice`]; each slice is
/// exactly what [`crate::demand_slice`] returns for the same roots.
#[derive(Debug)]
pub struct DemandIndex {
    fix: Fixpoint,
    rev: Reverse,
}

impl DemandIndex {
    /// Solves `program` context-insensitively and indexes the fixpoint
    /// and the input relations for backward walks.
    pub fn new(program: &Program) -> Self {
        DemandIndex {
            fix: Fixpoint::solve(program),
            rev: Reverse::new(program),
        }
    }

    /// The demanded fragment for the roots `vars`: every tuple of every
    /// CI derivation tree of a root's `pts(v, ·)`.
    ///
    /// `program` must be the program the index was built from.
    pub fn slice(&self, program: &Program, vars: &[Var]) -> DemandSlice {
        debug_assert_eq!(
            self.fix.pts.off.len(),
            program.var_count() + 1,
            "index built from another program"
        );
        let mut walk = Closure {
            fix: &self.fix,
            rev: &self.rev,
            var_method: &program.var_method,
            slice: DemandSlice {
                derived_tuples: self.fix.size,
                ..DemandSlice::default()
            },
            next: Vec::new(),
        };
        for &v in vars {
            for &h in self.fix.pts.row(v.index()) {
                walk.demand(Tuple::Pts(v, h));
            }
        }
        while !walk.next.is_empty() {
            walk.slice.rounds += 1;
            for head in std::mem::take(&mut walk.next) {
                walk.expand(head);
            }
        }
        walk.slice
    }
}

/// A derived CI tuple, in the argument orders of [`DemandSlice`].
#[derive(Clone, Copy)]
enum Tuple {
    Pts(Var, Heap),
    Hpts(Heap, Field, Heap),
    Hload(Heap, Field, Var),
    Call(Inv, Method),
    Spts(Field, Heap),
    Reach(Method),
}

/// The backward walk: `slice` holds every tuple demanded so far, `next`
/// the ones whose rule instances are still to be examined.
struct Closure<'a> {
    fix: &'a Fixpoint,
    rev: &'a Reverse,
    var_method: &'a [Method],
    slice: DemandSlice,
    next: Vec<Tuple>,
}

impl Closure<'_> {
    /// Adds `t` to the slice, queueing it for expansion when new.
    fn demand(&mut self, t: Tuple) {
        let s = &mut self.slice;
        let new = match t {
            Tuple::Pts(v, h) => s.pts.insert((v, h)),
            Tuple::Hpts(g, f, h) => s.hpts.insert((g, f, h)),
            Tuple::Hload(g, f, z) => s.hload.insert((g, f, z)),
            Tuple::Call(i, q) => s.call.insert((i, q)),
            Tuple::Spts(f, h) => s.spts.insert((f, h)),
            Tuple::Reach(p) => s.reach.insert(p),
        };
        if new {
            self.next.push(t);
        }
    }

    /// Counts one examined rule instance; `holds` is whether its derived
    /// premises all hold in the fixpoint.
    fn instance(&mut self, holds: bool) -> bool {
        self.slice.derivations += 1;
        holds
    }

    /// Demands the premises of every rule instance deriving `head` whose
    /// premises all hold (rules as in [`crate::CI_RULES`]).
    fn expand(&mut self, head: Tuple) {
        let (fix, rev) = (self.fix, self.rev);
        match head {
            Tuple::Pts(y, h) => {
                // New.
                for &(_, p) in with_first(rev.allocs.row(y.index()), h) {
                    if self.instance(fix.reach(p)) {
                        self.demand(Tuple::Reach(p));
                    }
                }
                // Assign.
                for &z in rev.assigns_into.row(y.index()) {
                    if self.instance(fix.pts(z, h)) {
                        self.demand(Tuple::Pts(z, h));
                    }
                }
                // Ind.
                for &(g, f) in fix.hloads_into.row(y.index()) {
                    if self.instance(fix.hpts(g, f, h)) {
                        self.demand(Tuple::Hload(g, f, y));
                        self.demand(Tuple::Hpts(g, f, h));
                    }
                }
                // Virt, this-binding.
                for &q in rev.this_of.row(y.index()) {
                    for &t in rev.types_of.row(h.index()) {
                        for &(_, s) in with_first(rev.implements.row(q.index()), t) {
                            for &z in rev.receivers_of.row(s.index()) {
                                if self.instance(fix.pts(z, h)) {
                                    self.demand(Tuple::Pts(z, h));
                                }
                            }
                        }
                    }
                }
                // Param.
                for &(p, o) in rev.formals.row(y.index()) {
                    for &i in fix.callers.row(p.index()) {
                        for &(_, z) in with_first(rev.actuals.row(i.index()), o) {
                            if self.instance(fix.pts(z, h)) {
                                self.demand(Tuple::Pts(z, h));
                                self.demand(Tuple::Call(i, p));
                            }
                        }
                    }
                }
                // Ret.
                for &i in rev.returns_into.row(y.index()) {
                    for &p in fix.callees.row(i.index()) {
                        for &z in rev.returns_of.row(p.index()) {
                            if self.instance(fix.pts(z, h)) {
                                self.demand(Tuple::Pts(z, h));
                                self.demand(Tuple::Call(i, p));
                            }
                        }
                    }
                }
                // SLoad.
                let p = self.var_method[y.index()];
                for &f in rev.static_loads_into.row(y.index()) {
                    if self.instance(fix.spts(f, h) && fix.reach(p)) {
                        self.demand(Tuple::Spts(f, h));
                        self.demand(Tuple::Reach(p));
                    }
                }
            }
            // Store.
            Tuple::Hpts(g, f, h) => {
                for &(x, z) in rev.stores_of.row(f.index()) {
                    if self.instance(fix.pts(x, h) && fix.pts(z, g)) {
                        self.demand(Tuple::Pts(x, h));
                        self.demand(Tuple::Pts(z, g));
                    }
                }
            }
            // Load.
            Tuple::Hload(g, f, z) => {
                for &(_, y) in with_first(rev.loads_into.row(z.index()), f) {
                    if self.instance(fix.pts(y, g)) {
                        self.demand(Tuple::Pts(y, g));
                    }
                }
            }
            Tuple::Call(i, q) => {
                // Static.
                for &(_, p) in with_first(rev.statics_at.row(i.index()), q) {
                    if self.instance(fix.reach(p)) {
                        self.demand(Tuple::Reach(p));
                    }
                }
                // Virt, call edge.
                for &(z, s) in rev.virtuals_at.row(i.index()) {
                    for &h in fix.pts.row(z.index()) {
                        for &t in rev.types_of.row(h.index()) {
                            if self.instance(rev.implements.contains(q.index(), &(t, s))) {
                                self.demand(Tuple::Pts(z, h));
                            }
                        }
                    }
                }
            }
            // SStore.
            Tuple::Spts(f, h) => {
                for &x in rev.static_stores_of.row(f.index()) {
                    if self.instance(fix.pts(x, h)) {
                        self.demand(Tuple::Pts(x, h));
                    }
                }
            }
            // Reach through a call edge (the `entry` rule has no derived
            // premise).
            Tuple::Reach(p) => {
                for &i in fix.callers.row(p.index()) {
                    if self.instance(true) {
                        self.demand(Tuple::Call(i, p));
                    }
                }
            }
        }
    }
}
