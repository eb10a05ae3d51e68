//! The native demand slice: a per-program [`DemandIndex`] (one serial
//! context-insensitive solve plus the reverse index of the input
//! relations) and the per-query backward closure from the roots
//! ([`DemandIndex::slice`]). The closure walks the Fig. 3 rules
//! backwards through the solver's one backward enumerator
//! ([`crate::solver::backward`]), demanding the premises of every rule
//! instance that derives a demanded head and whose premises all hold in
//! the fixpoint. That is exactly the union of the nodes of the roots' CI
//! derivation trees (DESIGN.md §11, "Exactness"). Nothing in the index
//! depends on the roots, so one index serves every query against its
//! program.

use ctxform_ir::{Program, Var};

use super::DemandSlice;
use crate::solver::backward::{Fixpoint, Reverse, Tuple};

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

    /// Bytes the index holds, by the capacities of its CSR vectors.
    pub fn bytes(&self) -> usize {
        self.fix.bytes() + self.rev.bytes()
    }

    /// The demanded fragment for the roots `vars`: every tuple of every
    /// CI derivation tree of a root's `pts(v, ·)`.
    ///
    /// `program` must be the program the index was built from.
    pub fn slice(&self, program: &Program, vars: &[Var]) -> DemandSlice {
        debug_assert_eq!(
            self.fix.pts.keys(),
            program.var_count(),
            "index built from another program"
        );
        let mut slice = DemandSlice {
            derived_tuples: self.fix.size(),
            ..DemandSlice::default()
        };
        // `next` holds the demanded tuples whose instances are still to
        // be examined.
        let mut next = Vec::new();
        for &v in vars {
            for &h in self.fix.pts.row(v.index()) {
                demand(&mut slice, &mut next, Tuple::Pts(v, h));
            }
        }
        while !next.is_empty() {
            slice.rounds += 1;
            for head in std::mem::take(&mut next) {
                self.rev.instances(&self.fix, head, |holds, premises| {
                    slice.derivations += 1;
                    if holds {
                        for &t in premises {
                            demand(&mut slice, &mut next, t);
                        }
                    }
                });
            }
        }
        slice
    }
}

/// Adds `t` to the slice, queueing it for expansion when new.
fn demand(slice: &mut DemandSlice, next: &mut Vec<Tuple>, t: Tuple) {
    let new = match t {
        Tuple::Pts(v, h) => slice.pts.insert((v, h)),
        Tuple::Hpts(g, f, h) => slice.hpts.insert((g, f, h)),
        Tuple::Hload(g, f, z) => slice.hload.insert((g, f, z)),
        Tuple::Call(i, q) => slice.call.insert((i, q)),
        Tuple::Spts(f, h) => slice.spts.insert((f, h)),
        Tuple::Reach(p) => slice.reach.insert(p),
    };
    if new {
        next.push(t);
    }
}
