//! The native demand slice: one serial context-insensitive solve on the
//! specialized solver, then a backward closure over the [`CI_RULES`]
//! instances from the query roots.
//!
//! A head in the closure demands the premises of every rule instance that
//! derives it and whose premises all hold in the fixpoint. Starting from
//! the roots' full `pts(v, ·)`, the closure is therefore exactly the union
//! of the nodes of every CI derivation tree of the roots: unique, free of
//! magic or adorned bookkeeping, and a subset of what magic sets demand
//! (they must demand every such node).
//!
//! [`CI_RULES`]: crate::CI_RULES

use std::hash::Hash;

use ctxform_hash::{FxHashMap, FxHashSet};
use ctxform_ir::{Field, Heap, Inv, MSig, Method, Program, Type, Var};

use super::DemandSlice;
use crate::solver::{insensitive_fixpoint, InsensitiveFixpoint};

/// Groups `(key, value)` pairs into a multimap.
fn group<K: Hash + Eq, V>(pairs: impl Iterator<Item = (K, V)>) -> FxHashMap<K, Vec<V>> {
    let mut map: FxHashMap<K, Vec<V>> = FxHashMap::default();
    for (k, v) in pairs {
        map.entry(k).or_default().push(v);
    }
    map
}

/// The values stored under `key`, or none.
fn at<'m, K: Hash + Eq, V>(map: &'m FxHashMap<K, Vec<V>>, key: &K) -> &'m [V] {
    map.get(key).map_or(&[], Vec::as_slice)
}

/// The input relations keyed by the columns a rule's head binds, so that
/// a head enumerates exactly the rule instances that can derive it.
struct Reverse {
    /// `assign_new(H, Y, P)` keyed by `(Y, H)`: all `P`.
    allocs: FxHashMap<(Var, Heap), Vec<Method>>,
    /// `assign(Z, Y)` keyed by `Y`: all `Z`.
    assigns_into: FxHashMap<Var, Vec<Var>>,
    /// `load(Y, F, Z)` keyed by `Z`: all `(Y, F)`.
    loads_into: FxHashMap<Var, Vec<(Var, Field)>>,
    /// `store(X, F, Z)` keyed by `F`: all `(X, Z)`.
    stores_of: FxHashMap<Field, Vec<(Var, Var)>>,
    /// `static_invoke(I, Q, P)` keyed by `I`: all `(Q, P)`.
    statics_at: FxHashMap<Inv, Vec<(Method, Method)>>,
    /// `virtual_invoke(I, Z, S)` keyed by `I`: all `(Z, S)`.
    virtuals_at: FxHashMap<Inv, Vec<(Var, MSig)>>,
    /// `virtual_invoke(I, Z, S)` keyed by `S`: all receivers `Z`.
    receivers_of: FxHashMap<MSig, Vec<Var>>,
    /// `heap_type(H, T)` keyed by `H`.
    types_of: FxHashMap<Heap, Vec<Type>>,
    /// `implements(Q, T, S)` keyed by `(Q, T)`: all `S`.
    implements: FxHashMap<(Method, Type), Vec<MSig>>,
    /// `this_var(Y, Q)` keyed by `Y`.
    this_of: FxHashMap<Var, Vec<Method>>,
    /// `formal(Y, P, O)` keyed by `Y`: all `(P, O)`.
    formals: FxHashMap<Var, Vec<(Method, u32)>>,
    /// `actual(Z, I, O)` keyed by `(I, O)`: all `Z`.
    actuals: FxHashMap<(Inv, u32), Vec<Var>>,
    /// `assign_return(I, Y)` keyed by `Y`.
    returns_into: FxHashMap<Var, Vec<Inv>>,
    /// `return(Z, P)` keyed by `P`.
    returns_of: FxHashMap<Method, Vec<Var>>,
    /// `static_store(X, F)` keyed by `F`.
    static_stores_of: FxHashMap<Field, Vec<Var>>,
    /// `static_load(F, Z)` keyed by `Z`.
    static_loads_into: FxHashMap<Var, Vec<Field>>,
}

impl Reverse {
    fn new(program: &Program) -> Self {
        let f = &program.facts;
        Reverse {
            allocs: group(f.assign_new.iter().map(|&(h, y, p)| ((y, h), p))),
            assigns_into: group(f.assign.iter().map(|&(z, y)| (y, z))),
            loads_into: group(f.load.iter().map(|&(y, fld, z)| (z, (y, fld)))),
            stores_of: group(f.store.iter().map(|&(x, fld, z)| (fld, (x, z)))),
            statics_at: group(f.static_invoke.iter().map(|&(i, q, p)| (i, (q, p)))),
            virtuals_at: group(f.virtual_invoke.iter().map(|&(i, z, s)| (i, (z, s)))),
            receivers_of: group(f.virtual_invoke.iter().map(|&(_, z, s)| (s, z))),
            types_of: group(f.heap_type.iter().copied()),
            implements: group(f.implements.iter().map(|&(q, t, s)| ((q, t), s))),
            this_of: group(f.this_var.iter().copied()),
            formals: group(f.formal.iter().map(|&(y, p, o)| (y, (p, o)))),
            actuals: group(f.actual.iter().map(|&(z, i, o)| ((i, o), z))),
            returns_into: group(f.assign_return.iter().map(|&(i, y)| (y, i))),
            returns_of: group(f.ret.iter().map(|&(z, p)| (p, z))),
            static_stores_of: group(f.static_store.iter().map(|&(x, fld)| (fld, x))),
            static_loads_into: group(f.static_load.iter().map(|&(fld, z)| (z, fld))),
        }
    }
}

/// The CI fixpoint, indexed for the premise checks of the backward walk.
struct Fixpoint {
    /// The solver's tuple sets (`pts`, `hpts` and `spts` are probed
    /// directly).
    db: InsensitiveFixpoint,
    /// `pts(v, ·)` per variable.
    pts_of: Vec<Vec<Heap>>,
    /// `hload(G, F, Z)` keyed by `Z`: all `(G, F)`.
    hloads_into: FxHashMap<Var, Vec<(Heap, Field)>>,
    /// `call(I, Q)` keyed by `I`.
    callees: FxHashMap<Inv, Vec<Method>>,
    /// `call(I, Q)` keyed by `Q`.
    callers: FxHashMap<Method, Vec<Inv>>,
    reach: FxHashSet<Method>,
    /// Tuples across the six derived relations.
    size: usize,
}

impl Fixpoint {
    /// Solves `program` context-insensitively on the specialized solver.
    /// Serial on purpose: at demand-query sizes the parallel engine's
    /// round overhead costs more than it saves.
    fn solve(program: &Program) -> Self {
        let db = insensitive_fixpoint(program);
        let mut pts_of = vec![Vec::new(); program.var_count()];
        for &(v, h, ()) in &db.pts {
            pts_of[v.index()].push(h);
        }
        let reach: FxHashSet<Method> = db.reach.iter().map(|&(p, _)| p).collect();
        Fixpoint {
            size: db.pts.len()
                + db.hpts.len()
                + db.hload.len()
                + db.call.len()
                + db.spts.len()
                + reach.len(),
            pts_of,
            hloads_into: group(db.hload.iter().map(|&(g, f, z, ())| (z, (g, f)))),
            callees: group(db.call.iter().map(|&(i, q, ())| (i, q))),
            callers: group(db.call.iter().map(|&(i, q, ())| (q, i))),
            reach,
            db,
        }
    }

    fn pts(&self, v: Var, h: Heap) -> bool {
        self.db.pts.contains(&(v, h, ()))
    }

    fn hpts(&self, g: Heap, f: Field, h: Heap) -> bool {
        self.db.hpts.contains(&(g, f, h, ()))
    }

    fn spts(&self, f: Field, h: Heap) -> bool {
        self.db.spts.contains(&(f, h, ()))
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
                for &p in at(&rev.allocs, &(y, h)) {
                    if self.instance(fix.reach.contains(&p)) {
                        self.demand(Tuple::Reach(p));
                    }
                }
                // Assign.
                for &z in at(&rev.assigns_into, &y) {
                    if self.instance(fix.pts(z, h)) {
                        self.demand(Tuple::Pts(z, h));
                    }
                }
                // Ind.
                for &(g, f) in at(&fix.hloads_into, &y) {
                    if self.instance(fix.hpts(g, f, h)) {
                        self.demand(Tuple::Hload(g, f, y));
                        self.demand(Tuple::Hpts(g, f, h));
                    }
                }
                // Virt, this-binding.
                for &q in at(&rev.this_of, &y) {
                    for &t in at(&rev.types_of, &h) {
                        for &s in at(&rev.implements, &(q, t)) {
                            for &z in at(&rev.receivers_of, &s) {
                                if self.instance(fix.pts(z, h)) {
                                    self.demand(Tuple::Pts(z, h));
                                }
                            }
                        }
                    }
                }
                // Param.
                for &(p, o) in at(&rev.formals, &y) {
                    for &i in at(&fix.callers, &p) {
                        for &z in at(&rev.actuals, &(i, o)) {
                            if self.instance(fix.pts(z, h)) {
                                self.demand(Tuple::Pts(z, h));
                                self.demand(Tuple::Call(i, p));
                            }
                        }
                    }
                }
                // Ret.
                for &i in at(&rev.returns_into, &y) {
                    for &p in at(&fix.callees, &i) {
                        for &z in at(&rev.returns_of, &p) {
                            if self.instance(fix.pts(z, h)) {
                                self.demand(Tuple::Pts(z, h));
                                self.demand(Tuple::Call(i, p));
                            }
                        }
                    }
                }
                // SLoad.
                let p = self.var_method[y.index()];
                for &f in at(&rev.static_loads_into, &y) {
                    if self.instance(fix.spts(f, h) && fix.reach.contains(&p)) {
                        self.demand(Tuple::Spts(f, h));
                        self.demand(Tuple::Reach(p));
                    }
                }
            }
            // Store.
            Tuple::Hpts(g, f, h) => {
                for &(x, z) in at(&rev.stores_of, &f) {
                    if self.instance(fix.pts(x, h) && fix.pts(z, g)) {
                        self.demand(Tuple::Pts(x, h));
                        self.demand(Tuple::Pts(z, g));
                    }
                }
            }
            // Load.
            Tuple::Hload(g, f, z) => {
                for &(y, _) in at(&rev.loads_into, &z).iter().filter(|l| l.1 == f) {
                    if self.instance(fix.pts(y, g)) {
                        self.demand(Tuple::Pts(y, g));
                    }
                }
            }
            Tuple::Call(i, q) => {
                // Static.
                for &(_, p) in at(&rev.statics_at, &i).iter().filter(|s| s.0 == q) {
                    if self.instance(fix.reach.contains(&p)) {
                        self.demand(Tuple::Reach(p));
                    }
                }
                // Virt, call edge.
                for &(z, s) in at(&rev.virtuals_at, &i) {
                    for &h in &fix.pts_of[z.index()] {
                        for &t in at(&rev.types_of, &h) {
                            if self.instance(at(&rev.implements, &(q, t)).contains(&s)) {
                                self.demand(Tuple::Pts(z, h));
                            }
                        }
                    }
                }
            }
            // SStore.
            Tuple::Spts(f, h) => {
                for &x in at(&rev.static_stores_of, &f) {
                    if self.instance(fix.pts(x, h)) {
                        self.demand(Tuple::Pts(x, h));
                    }
                }
            }
            // Reach through a call edge (the `entry` rule has no derived
            // premise).
            Tuple::Reach(p) => {
                for &i in at(&fix.callers, &p) {
                    if self.instance(true) {
                        self.demand(Tuple::Call(i, p));
                    }
                }
            }
        }
    }
}

/// The native slice for the roots `vars`: see the module docs.
pub(super) fn native_slice(program: &Program, vars: &[Var]) -> DemandSlice {
    let fix = Fixpoint::solve(program);
    let rev = Reverse::new(program);
    let mut walk = Closure {
        fix: &fix,
        rev: &rev,
        var_method: &program.var_method,
        slice: DemandSlice {
            derived_tuples: fix.size,
            ..DemandSlice::default()
        },
        next: Vec::new(),
    };
    for &v in vars {
        for &h in &fix.pts_of[v.index()] {
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
