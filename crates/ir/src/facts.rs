//! The thirteen input relations of the paper's Figure 3.
//!
//! Tuple orders follow the paper exactly. In comments, the exemplary Java
//! statement for each relation uses the same variable letters as Figure 3.

use crate::ids::{Field, Heap, Inv, MSig, Method, Type, Var};

/// Input relations describing the program under analysis (Figure 3).
///
/// These are *extensional* relations: the frontend fills them in and the
/// analysis only reads them. All derived information (points-to sets, the
/// call graph, reachability) lives in the solver.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Facts {
    /// `actual(Z, I, O)`: variable `Z` is the `O`-th actual argument of
    /// invocation `I` (0-based).
    pub actual: Vec<(Var, Inv, u32)>,
    /// `assign(Z, Y)`: statement `Y = Z;` (data flows from `Z` to `Y`).
    pub assign: Vec<(Var, Var)>,
    /// `assign_new(H, Y, P)`: statement `Y = new T(); // H` inside method
    /// `P`.
    pub assign_new: Vec<(Heap, Var, Method)>,
    /// `assign_return(I, Y)`: the return value of invocation `I` is assigned
    /// to `Y`.
    pub assign_return: Vec<(Inv, Var)>,
    /// `formal(Y, P, O)`: variable `Y` is the `O`-th formal parameter of
    /// method `P` (0-based).
    pub formal: Vec<(Var, Method, u32)>,
    /// `heap_type(H, T)`: objects allocated at `H` have class type `T`.
    pub heap_type: Vec<(Heap, Type)>,
    /// `implements(Q, T, S)`: invoking signature `S` on a receiver of type
    /// `T` dispatches to method `Q`.
    pub implements: Vec<(Method, Type, MSig)>,
    /// `load(Y, F, Z)`: statement `Z = Y.F;` (`Y` is the base).
    pub load: Vec<(Var, Field, Var)>,
    /// `return(Z, P)`: variable `Z` is a return value of method `P`.
    pub ret: Vec<(Var, Method)>,
    /// `static_invoke(I, Q, P)`: invocation `I` inside method `P` statically
    /// calls method `Q`.
    pub static_invoke: Vec<(Inv, Method, Method)>,
    /// `store(X, F, Z)`: statement `Z.F = X;` (`X` is the stored value, `Z`
    /// the base — argument order as in Figure 3's Store rule).
    pub store: Vec<(Var, Field, Var)>,
    /// `static_store(X, F)`: statement `C.F = X;` for a static field `F`.
    ///
    /// Static fields are not part of the paper's Fig. 3 presentation
    /// (which "excludes static fields … due to space constraints") but are
    /// present in its evaluated implementation; see the SStore/SLoad rules
    /// in `ctxform`.
    pub static_store: Vec<(Var, Field)>,
    /// `static_load(F, Z)`: statement `Z = C.F;` for a static field `F`.
    pub static_load: Vec<(Field, Var)>,
    /// `this_var(Y, Q)`: variable `Y` is the `this` variable of method `Q`.
    pub this_var: Vec<(Var, Method)>,
    /// `virtual_invoke(I, Z, S)`: invocation `I` calls signature `S` with
    /// receiver variable `Z`.
    pub virtual_invoke: Vec<(Inv, Var, MSig)>,
}

impl Facts {
    /// Creates an empty fact set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of input tuples across all thirteen relations.
    ///
    /// ```
    /// let facts = ctxform_ir::Facts::new();
    /// assert_eq!(facts.len(), 0);
    /// ```
    pub fn len(&self) -> usize {
        self.actual.len()
            + self.assign.len()
            + self.assign_new.len()
            + self.assign_return.len()
            + self.formal.len()
            + self.heap_type.len()
            + self.implements.len()
            + self.load.len()
            + self.ret.len()
            + self.static_invoke.len()
            + self.store.len()
            + self.static_store.len()
            + self.static_load.len()
            + self.this_var.len()
            + self.virtual_invoke.len()
    }

    /// Returns `true` if no relation holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorts and deduplicates every relation, producing a canonical order.
    ///
    /// Frontends may emit tuples in discovery order; canonicalizing makes
    /// programs comparable with `==` and keeps text output stable.
    pub fn canonicalize(&mut self) {
        macro_rules! canon {
            ($($field:ident),*) => {
                $(
                    self.$field.sort_unstable();
                    self.$field.dedup();
                )*
            };
        }
        canon!(
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
            virtual_invoke
        );
    }

    /// Per-relation sizes, in the paper's relation-name order; useful for
    /// logging and for the `text` serializer.
    pub fn relation_sizes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("actual", self.actual.len()),
            ("assign", self.assign.len()),
            ("assign_new", self.assign_new.len()),
            ("assign_return", self.assign_return.len()),
            ("formal", self.formal.len()),
            ("heap_type", self.heap_type.len()),
            ("implements", self.implements.len()),
            ("load", self.load.len()),
            ("return", self.ret.len()),
            ("static_invoke", self.static_invoke.len()),
            ("store", self.store.len()),
            ("static_store", self.static_store.len()),
            ("static_load", self.static_load.len()),
            ("this_var", self.this_var.len()),
            ("virtual_invoke", self.virtual_invoke.len()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_counts_all_relations() {
        let mut f = Facts::new();
        assert!(f.is_empty());
        f.assign.push((Var(0), Var(1)));
        f.load.push((Var(1), Field(0), Var(2)));
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let mut f = Facts::new();
        f.assign.push((Var(3), Var(1)));
        f.assign.push((Var(0), Var(1)));
        f.assign.push((Var(3), Var(1)));
        f.canonicalize();
        assert_eq!(f.assign, vec![(Var(0), Var(1)), (Var(3), Var(1))]);
    }

    #[test]
    fn relation_sizes_cover_thirteen_relations() {
        let f = Facts::new();
        let sizes = f.relation_sizes();
        assert_eq!(sizes.len(), 15);
        assert!(sizes.iter().all(|&(_, n)| n == 0));
    }
}
