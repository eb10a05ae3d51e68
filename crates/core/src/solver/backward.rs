//! The Figure 3 rules read backwards, written once: for a
//! context-insensitive head tuple, every rule instance that can derive
//! it, with the instance's derived premises and whether they hold.
//!
//! The enumerator ([`Reverse::instances`]) runs over two flat views:
//!
//! * [`Reverse`] — the program's input relations keyed by the columns a
//!   rule's head binds (a program-level index, built once per program);
//! * [`Fixpoint`] — the tuples of a context-insensitive solve
//!   ([`Fixpoint::solve`]), keyed for premise checks.
//!
//! The demand slice ([`crate::DemandIndex`]) reads it: it demands the
//! premises of every holding instance from the query roots down. The
//! property test below holds the enumerator to the forward kernel:
//! driving a holding instance's first premise re-fires the instance,
//! because the kernel drives every two-literal join from both sides.

use ctxform_algebra::Insensitive;
use ctxform_ir::{Field, Heap, Inv, MSig, Method, Program, Type, Var};

use super::{Solver, SolverState};
use crate::config::AnalysisConfig;

/// A multimap over a dense key space in compressed-sparse-row form: the
/// values of key `k` are `vals[off[k]..off[k + 1]]`, sorted.
#[derive(Debug)]
pub(crate) struct Rows<T> {
    off: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy + Ord> Rows<T> {
    /// Groups `(key, value)` pairs, with keys below `keys`. Duplicate
    /// pairs are kept, so a row of an input relation enumerates every
    /// input tuple, and the demand slice's count of examined rule
    /// instances matches the relations.
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
    pub(crate) fn row(&self, k: usize) -> &[T] {
        &self.vals[self.off[k] as usize..self.off[k + 1] as usize]
    }

    /// Whether `v` is stored under key `k`.
    fn contains(&self, k: usize, v: &T) -> bool {
        self.row(k).binary_search(v).is_ok()
    }

    /// Number of keys.
    pub(crate) fn keys(&self) -> usize {
        self.off.len() - 1
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
pub(crate) struct Reverse {
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
    /// The method declaring each variable: SLoad's `parent(Z)`.
    parent: Vec<Method>,
}

impl Reverse {
    pub(crate) fn new(program: &Program) -> Self {
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
            parent: program.var_method.clone(),
        }
    }
}

/// A set of CI tuples of the six derived relations, indexed for the
/// premise checks of the backward walk. Each tuple is stored once.
#[derive(Debug)]
pub(crate) struct Fixpoint {
    /// `pts(V, H)` under `V`.
    pub(crate) pts: Rows<Heap>,
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
}

impl Fixpoint {
    /// Solves `program` context-insensitively on the specialized solver
    /// and indexes the fixpoint.
    pub(crate) fn solve(program: &Program) -> Self {
        let ix = program.index();
        let state = SolverState::new(program, Insensitive::new(), AnalysisConfig::insensitive());
        let mut solver = Solver::from_state(program, &ix, state);
        solver.seed_entry();
        solver.run_to_fixpoint();
        Self::of_state(program, &solver.st)
    }

    /// Indexes a solved context-insensitive state. The demand closure
    /// (through [`Fixpoint::solve`]) is its only user outside tests.
    pub(crate) fn of_state(program: &Program, st: &SolverState<Insensitive>) -> Self {
        let (vars, invs, methods) = (
            program.var_count(),
            program.inv_count(),
            program.method_count(),
        );
        let mut reach = vec![false; methods];
        for &(p, _) in &st.reach {
            reach[p.index()] = true;
        }
        Fixpoint {
            pts: Rows::new(vars, st.pts.iter().map(|&(v, h, _)| (v.index(), h))),
            hpts: Rows::new(
                program.heap_count(),
                st.hpts.iter().map(|&(g, f, h, _)| (g.index(), (f, h))),
            ),
            spts: Rows::new(
                program.field_count(),
                st.spts.iter().map(|&(f, h, _)| (f.index(), h)),
            ),
            hloads_into: Rows::new(
                vars,
                st.hload.iter().map(|&(g, f, z, _)| (z.index(), (g, f))),
            ),
            callees: Rows::new(invs, st.call.iter().map(|&(i, q, _)| (i.index(), q))),
            callers: Rows::new(methods, st.call.iter().map(|&(i, q, _)| (q.index(), i))),
            reach,
        }
    }

    /// Tuples across the six derived relations.
    pub(crate) fn size(&self) -> usize {
        self.pts.vals.len()
            + self.hpts.vals.len()
            + self.hloads_into.vals.len()
            + self.callees.vals.len()
            + self.spts.vals.len()
            + self.reach.iter().filter(|&&r| r).count()
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

/// A derived CI tuple, in the argument orders of [`crate::DemandSlice`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Tuple {
    Pts(Var, Heap),
    Hpts(Heap, Field, Heap),
    Hload(Heap, Field, Var),
    Call(Inv, Method),
    Spts(Field, Heap),
    Reach(Method),
}

impl Reverse {
    /// The backward enumerator: calls `instance(holds, premises)` for
    /// every rule instance (rules as in [`crate::CI_RULES`], plus the
    /// static-field rules) whose head is `head`. The `entry` rule has no
    /// premise and is not visited.
    ///
    /// `holds` is whether every premise holds: the derived ones in the
    /// [`Fixpoint`], and Virt's `implements` check on the call-edge side.
    /// `premises` lists the derived premises in a fixed order: `call`
    /// first for Param, Ret and Reach, `hload` for Ind, `spts` for SLoad,
    /// the value-side `pts` for Store, the receiver `pts` for Virt,
    /// `reach` for New and Static; a one-premise rule lists its premise.
    pub(crate) fn instances(
        &self,
        fix: &Fixpoint,
        head: Tuple,
        mut instance: impl FnMut(bool, &[Tuple]),
    ) {
        let rev = self;
        match head {
            Tuple::Pts(y, h) => {
                // New.
                for &(_, p) in with_first(rev.allocs.row(y.index()), h) {
                    instance(fix.reach(p), &[Tuple::Reach(p)]);
                }
                // Assign.
                for &z in rev.assigns_into.row(y.index()) {
                    instance(fix.pts(z, h), &[Tuple::Pts(z, h)]);
                }
                // Ind.
                for &(g, f) in fix.hloads_into.row(y.index()) {
                    let premises = [Tuple::Hload(g, f, y), Tuple::Hpts(g, f, h)];
                    instance(fix.hpts(g, f, h), &premises);
                }
                // Virt, this-binding.
                for &q in rev.this_of.row(y.index()) {
                    for &t in rev.types_of.row(h.index()) {
                        for &(_, s) in with_first(rev.implements.row(q.index()), t) {
                            for &z in rev.receivers_of.row(s.index()) {
                                instance(fix.pts(z, h), &[Tuple::Pts(z, h)]);
                            }
                        }
                    }
                }
                // Param.
                for &(p, o) in rev.formals.row(y.index()) {
                    for &i in fix.callers.row(p.index()) {
                        for &(_, z) in with_first(rev.actuals.row(i.index()), o) {
                            let premises = [Tuple::Call(i, p), Tuple::Pts(z, h)];
                            instance(fix.pts(z, h), &premises);
                        }
                    }
                }
                // Ret.
                for &i in rev.returns_into.row(y.index()) {
                    for &p in fix.callees.row(i.index()) {
                        for &z in rev.returns_of.row(p.index()) {
                            let premises = [Tuple::Call(i, p), Tuple::Pts(z, h)];
                            instance(fix.pts(z, h), &premises);
                        }
                    }
                }
                // SLoad.
                let p = rev.parent[y.index()];
                for &f in rev.static_loads_into.row(y.index()) {
                    let holds = fix.spts(f, h) && fix.reach(p);
                    instance(holds, &[Tuple::Spts(f, h), Tuple::Reach(p)]);
                }
            }
            // Store.
            Tuple::Hpts(g, f, h) => {
                for &(x, z) in rev.stores_of.row(f.index()) {
                    let holds = fix.pts(x, h) && fix.pts(z, g);
                    instance(holds, &[Tuple::Pts(x, h), Tuple::Pts(z, g)]);
                }
            }
            // Load.
            Tuple::Hload(g, f, z) => {
                for &(_, y) in with_first(rev.loads_into.row(z.index()), f) {
                    instance(fix.pts(y, g), &[Tuple::Pts(y, g)]);
                }
            }
            Tuple::Call(i, q) => {
                // Static.
                for &(_, p) in with_first(rev.statics_at.row(i.index()), q) {
                    instance(fix.reach(p), &[Tuple::Reach(p)]);
                }
                // Virt, call edge: the receiver's points-to set is read
                // from the view, so only the dispatch check can fail.
                for &(z, s) in rev.virtuals_at.row(i.index()) {
                    for &h in fix.pts.row(z.index()) {
                        for &t in rev.types_of.row(h.index()) {
                            let holds = rev.implements.contains(q.index(), &(t, s));
                            instance(holds, &[Tuple::Pts(z, h)]);
                        }
                    }
                }
            }
            // SStore.
            Tuple::Spts(f, h) => {
                for &x in rev.static_stores_of.row(f.index()) {
                    instance(fix.pts(x, h), &[Tuple::Pts(x, h)]);
                }
            }
            // Reach through a call edge.
            Tuple::Reach(p) => {
                for &i in fix.callers.row(p.index()) {
                    instance(true, &[Tuple::Call(i, p)]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::kernel::{Fact, Sink};
    use ctxform_hash::FxHashSet;
    use ctxform_minijava::{compile, corpus};
    use ctxform_synth::random_program;

    /// A forward sink that collects the CI projection of every emitted
    /// consequence instead of inserting it.
    struct Collect<'s, 'p> {
        solver: &'s mut Solver<'p, Insensitive>,
        emitted: FxHashSet<Tuple>,
    }

    impl<'p> Sink<'p, Insensitive> for Collect<'_, 'p> {
        fn solver(&self) -> &Solver<'p, Insensitive> {
            self.solver
        }

        fn solver_mut(&mut self) -> &mut Solver<'p, Insensitive> {
            self.solver
        }

        fn emit(&mut self, fact: Fact<()>, _rule: &'static str) {
            self.emitted.insert(ci(fact));
        }
    }

    /// The context-insensitive projection of a fact.
    fn ci(fact: Fact<()>) -> Tuple {
        match fact {
            Fact::Reach(p, _) => Tuple::Reach(p),
            Fact::Pts(y, h, ()) => Tuple::Pts(y, h),
            Fact::Call(i, q, ()) => Tuple::Call(i, q),
            Fact::Hpts(g, f, h, ()) => Tuple::Hpts(g, f, h),
            Fact::Hload(g, f, y, ()) => Tuple::Hload(g, f, y),
            Fact::Spts(f, h, ()) => Tuple::Spts(f, h),
        }
    }

    /// The facts of a CI state whose projection is `t`: one per context
    /// (the `reach` row lists only derived facts; the others are checked).
    fn facts_of(st: &SolverState<Insensitive>, t: Tuple) -> Vec<Fact<()>> {
        match t {
            Tuple::Reach(p) => st.reach_by_method.get(&p).map_or(Vec::new(), |ms| {
                ms.iter().map(|&m| Fact::Reach(p, m)).collect()
            }),
            Tuple::Pts(y, h) => vec![Fact::Pts(y, h, ())],
            Tuple::Hpts(g, f, h) => vec![Fact::Hpts(g, f, h, ())],
            Tuple::Hload(g, f, y) => vec![Fact::Hload(g, f, y, ())],
            Tuple::Call(i, q) => vec![Fact::Call(i, q, ())],
            Tuple::Spts(f, h) => vec![Fact::Spts(f, h, ())],
        }
        .into_iter()
        .filter(|&fact| match fact {
            Fact::Reach(..) => true,
            Fact::Pts(y, h, x) => st.pts.contains(&(y, h, x)),
            Fact::Call(i, q, x) => st.call.contains(&(i, q, x)),
            Fact::Hpts(g, f, h, x) => st.hpts.contains(&(g, f, h, x)),
            Fact::Hload(g, f, y, x) => st.hload.contains(&(g, f, y, x)),
            Fact::Spts(f, h, x) => st.spts.contains(&(f, h, x)),
        })
        .collect()
    }

    /// Checks the enumerator against the forward kernel on one program's
    /// CI fixpoint, and returns the first premises of the holding
    /// instances it saw.
    fn check(name: &str, program: &Program) -> Vec<Tuple> {
        let ix = program.index();
        let state = SolverState::new(program, Insensitive::new(), AnalysisConfig::insensitive());
        let mut solver = Solver::from_state(program, &ix, state);
        solver.seed_entry();
        solver.run_to_fixpoint();
        let (fix, rev) = (
            Fixpoint::of_state(program, &solver.st),
            Reverse::new(program),
        );
        let st = &solver.st;
        let heads: FxHashSet<Tuple> = st
            .pts
            .iter()
            .map(|&(y, h, x)| Fact::Pts(y, h, x))
            .chain(st.hpts.iter().map(|&(g, f, h, x)| Fact::Hpts(g, f, h, x)))
            .chain(st.hload.iter().map(|&(g, f, y, x)| Fact::Hload(g, f, y, x)))
            .chain(st.call.iter().map(|&(i, q, x)| Fact::Call(i, q, x)))
            .chain(st.spts.iter().map(|&(f, h, x)| Fact::Spts(f, h, x)))
            .chain(st.reach.iter().map(|&(p, m)| Fact::Reach(p, m)))
            .map(ci)
            .collect();
        assert_eq!(
            heads.len(),
            fix.size(),
            "{name}: the view holds each tuple once"
        );

        let mut firsts = Vec::new();
        for head in heads {
            let mut holding: Vec<Vec<Tuple>> = Vec::new();
            rev.instances(&fix, head, |holds, premises| {
                if holds {
                    holding.push(premises.to_vec());
                }
            });
            let entry = matches!(head, Tuple::Reach(p) if program.entry_points.contains(&p));
            assert!(
                entry || !holding.is_empty(),
                "{name}: {head:?} has no holding instance"
            );
            for instance in holding {
                let premises: Vec<Vec<Fact<()>>> =
                    instance.iter().map(|&t| facts_of(&solver.st, t)).collect();
                assert!(
                    premises.iter().all(|facts| !facts.is_empty()),
                    "{name}: a premise of {instance:?} for {head:?} is not in the fixpoint"
                );
                let mut sink = Collect {
                    solver: &mut solver,
                    emitted: FxHashSet::default(),
                };
                for &fact in &premises[0] {
                    sink.drive(fact);
                }
                assert!(
                    sink.emitted.contains(&head),
                    "{name}: driving the first premise of {instance:?} does not emit {head:?}"
                );
                firsts.push(instance[0]);
            }
        }
        firsts
    }

    /// Every CI fixpoint tuple but an entry `reach` has a holding
    /// instance, and driving a holding instance's first premise through
    /// the forward kernel emits its head: the backward rules and the
    /// forward kernel describe the same instances.
    #[test]
    fn first_premises_re_derive_their_heads() {
        let mut firsts = Vec::new();
        for (name, src) in corpus::all() {
            firsts.extend(check(name, &compile(src).unwrap().program));
        }
        for seed in 0..24u64 {
            let program = compile(&random_program(seed, 2)).unwrap().program;
            firsts.extend(check(&format!("seed {seed}"), &program));
        }
        // Every kind of first premise was exercised.
        for kind in ["Pts", "Hload", "Call", "Spts", "Reach"] {
            assert!(
                firsts.iter().any(|t| format!("{t:?}").starts_with(kind)),
                "no holding instance has a `{kind}` first premise"
            );
        }
    }
}
