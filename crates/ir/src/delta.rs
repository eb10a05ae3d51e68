//! Structural diffing of programs for incremental re-analysis.
//!
//! Figure 3 is a *monotone* Datalog program: every rule only ever adds
//! derived facts when the input relations grow. An edit that merely
//! **adds** entities and input tuples therefore lets the solver resume its
//! semi-naive fixpoint from a saved database instead of starting over —
//! the least fixpoint of the enlarged program is a superset of the old one
//! and can be reached by seeding the frontier with the delta alone.
//!
//! [`ProgramDiff::between`] classifies an edit. It recognises an edit as
//! additive only when the old program is *structurally embedded* in the
//! new one: every entity table of the base is a prefix of the
//! corresponding table of the next program (ids are dense indices, so a
//! prefix embedding means every old id still names the same entity), and
//! every input relation of the base is a subset of the next program's.
//!
//! Edits that *remove* input tuples (or entry points) over prefix-stable
//! entity tables are classified as [`ProgramDiff::Retractive`]: the
//! derived database is no longer a subset of the new least model, so
//! `ctxform::AnalysisDb::extend` re-solves it (on the benchmarked edit
//! workload a re-solve beat delete-and-rederive). Two removals stay out
//! of scope and are
//! reported [`ProgramDiff::NonMonotone`]: `heap_type` and `implements`
//! removals rewrite the dispatch structure the solver's static indices
//! are built around. True table shrinkage — a removed entity, a renamed
//! entity, a reordered table — is also [`ProgramDiff::NonMonotone`] and
//! callers fall back to a from-scratch solve.

use std::hash::Hash;

use ctxform_hash::FxHashSet;

use crate::facts::Facts;
use crate::ids::Method;
use crate::program::Program;

/// The classification of an edit from a base program to a next program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramDiff {
    /// The two programs are identical; nothing to do.
    Identical,
    /// The edit is purely additive; the delta holds exactly the new facts.
    /// Boxed: the delta carries full `Facts` tables and would otherwise
    /// dwarf the other variants.
    Additive(Box<ProgramDelta>),
    /// The edit removes (and possibly also adds) input tuples or entry
    /// points while keeping every entity table prefix-stable; the derived
    /// database is no longer a subset of the new least model.
    Retractive(ProgramRetraction),
    /// The edit rewrites something structural; incremental update is not
    /// sound and the caller must re-solve from scratch.
    NonMonotone {
        /// Human-readable explanation of the first violation found.
        reason: String,
    },
}

/// The added facts between two programs related by an additive edit.
///
/// Entity *tables* need no delta representation: the base tables are
/// prefixes of the next program's tables, so the next program itself
/// describes both old and new entities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramDelta {
    /// Input tuples present in the next program but not the base, per
    /// relation, in the next program's canonical order.
    pub added: Facts,
    /// Entry points of the next program that the base lacked.
    pub added_entry_points: Vec<Method>,
}

impl ProgramDelta {
    /// Total number of added input tuples (not counting entry points).
    pub fn len(&self) -> usize {
        self.added.len()
    }

    /// `true` when the edit added no tuples and no entry points.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.added_entry_points.is_empty()
    }
}

/// The size of a mixed edit over prefix-stable entity tables: how many
/// tuples the next program gained and dropped. Only counts, since a
/// retractive edit is re-solved from scratch and nothing reads the
/// tuples themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramRetraction {
    /// Input tuples present in the next program but not the base.
    pub added: usize,
    /// Input tuples present in the base program but not the next.
    pub removed: usize,
    /// Entry points of the base program that the next one dropped.
    pub removed_entry_points: usize,
}

impl ProgramDiff {
    /// Diffs `base` against `next` and classifies the edit.
    ///
    /// Both programs should be [validated](Program::validate); the diff
    /// itself never panics on malformed input but its additive guarantee
    /// only means anything for valid programs.
    pub fn between(base: &Program, next: &Program) -> ProgramDiff {
        if base == next {
            return ProgramDiff::Identical;
        }

        // Entity tables: the base must be a prefix of next, including the
        // parallel metadata columns, so every dense id keeps its meaning.
        if let Err(reason) = check_tables(base, next) {
            return ProgramDiff::NonMonotone { reason };
        }

        // Entry points: removing one removes Entry-rule seeds, a
        // retraction.
        let (added_entry_points, removed_entry_points) =
            split(&base.entry_points, &next.entry_points);

        // Input relations: added = next ∖ base, and how many tuples
        // base ∖ next holds.
        let mut added = Facts::new();
        let mut removed = 0;
        macro_rules! diff_relation {
            ($($field:ident),*) => {
                $(
                    let (extra, lost) = split(&base.facts.$field, &next.facts.$field);
                    added.$field = extra;
                    removed += lost;
                )*
            };
        }
        let (extra, lost_heap_type) = split(&base.facts.heap_type, &next.facts.heap_type);
        added.heap_type = extra;
        let (extra, lost_implements) = split(&base.facts.implements, &next.facts.implements);
        added.implements = extra;
        diff_relation!(
            actual,
            assign,
            assign_new,
            assign_return,
            formal,
            load,
            ret,
            static_invoke,
            store,
            static_store,
            static_load,
            this_var,
            virtual_invoke
        );

        if removed + lost_heap_type + lost_implements == 0 && removed_entry_points == 0 {
            return ProgramDiff::Additive(Box::new(ProgramDelta {
                added,
                added_entry_points,
            }));
        }

        // Removals the retraction pass does not support: `heap_type` and
        // `implements` tuples define the dispatch structure (Virt's
        // resolve step) that the solver's static indices encode.
        if lost_heap_type > 0 {
            return ProgramDiff::NonMonotone {
                reason: format!(
                    "relation `heap_type` lost {lost_heap_type} tuple(s); heap typing must \
                     stay stable for retraction"
                ),
            };
        }
        if lost_implements > 0 {
            return ProgramDiff::NonMonotone {
                reason: format!(
                    "relation `implements` lost {lost_implements} tuple(s); dispatch edges \
                     must stay stable for retraction"
                ),
            };
        }

        ProgramDiff::Retractive(ProgramRetraction {
            added: added.len(),
            removed,
            removed_entry_points,
        })
    }
}

/// Splits the symmetric difference of one relation: `next ∖ base` in
/// the next program's order, and the size of `base ∖ next`.
fn split<T: Copy + Eq + Hash>(base: &[T], next: &[T]) -> (Vec<T>, usize) {
    let next_set: FxHashSet<T> = next.iter().copied().collect();
    let base_set: FxHashSet<T> = base.iter().copied().collect();
    let added = next
        .iter()
        .copied()
        .filter(|t| !base_set.contains(t))
        .collect();
    let removed = base.iter().filter(|t| !next_set.contains(t)).count();
    (added, removed)
}

fn check_tables(base: &Program, next: &Program) -> Result<(), String> {
    fn prefix<T: PartialEq>(name: &str, base: &[T], next: &[T]) -> Result<(), String> {
        if base.len() > next.len() {
            return Err(format!(
                "table `{name}` shrank from {} to {} entries",
                base.len(),
                next.len()
            ));
        }
        if base[..] != next[..base.len()] {
            return Err(format!("table `{name}` changed an existing entry"));
        }
        Ok(())
    }
    prefix("var_names", &base.var_names, &next.var_names)?;
    prefix("var_method", &base.var_method, &next.var_method)?;
    prefix("heap_names", &base.heap_names, &next.heap_names)?;
    prefix("heap_method", &base.heap_method, &next.heap_method)?;
    prefix("inv_names", &base.inv_names, &next.inv_names)?;
    prefix("inv_method", &base.inv_method, &next.inv_method)?;
    prefix("method_names", &base.method_names, &next.method_names)?;
    prefix("method_class", &base.method_class, &next.method_class)?;
    prefix("field_names", &base.field_names, &next.field_names)?;
    prefix("type_names", &base.type_names, &next.type_names)?;
    prefix("supertype", &base.supertype, &next.supertype)?;
    prefix("msig_names", &base.msig_names, &next.msig_names)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ids::Var;

    fn two_method_program() -> Program {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let main = b.method_in("Main.main", object, &[]);
        b.entry_point(main);
        let x = b.var("x", main);
        b.alloc("h0", object, x, main);
        let helper = b.method_in("Main.helper", object, &["o"]);
        let o = b.var("o", helper);
        let _ = o;
        b.finish().expect("valid")
    }

    #[test]
    fn identical_programs_diff_to_identical() {
        let p = two_method_program();
        assert_eq!(ProgramDiff::between(&p, &p.clone()), ProgramDiff::Identical);
    }

    #[test]
    fn appended_facts_diff_to_additive() {
        let base = two_method_program();
        let mut next = base.clone();
        // A new variable in an existing method plus an assign edge.
        next.var_names.push("y".into());
        next.var_method.push(base.var_method[0]);
        let y = Var((next.var_names.len() - 1) as u32);
        next.facts.assign.push((Var(0), y));
        next.facts.canonicalize();

        match ProgramDiff::between(&base, &next) {
            ProgramDiff::Additive(delta) => {
                assert_eq!(delta.added.assign, vec![(Var(0), y)]);
                assert_eq!(delta.len(), 1);
                assert!(delta.added_entry_points.is_empty());
                assert!(!delta.is_empty());
            }
            other => panic!("expected additive, got {other:?}"),
        }
    }

    #[test]
    fn added_entry_point_is_reported() {
        let base = two_method_program();
        let mut next = base.clone();
        let helper = Method(1);
        next.entry_points.push(helper);
        match ProgramDiff::between(&base, &next) {
            ProgramDiff::Additive(delta) => {
                assert_eq!(delta.added_entry_points, vec![helper]);
                assert!(!delta.is_empty());
                assert_eq!(delta.len(), 0);
            }
            other => panic!("expected additive, got {other:?}"),
        }
    }

    #[test]
    fn removed_tuple_is_retractive() {
        let base = two_method_program();
        let mut next = base.clone();
        let dropped = next.facts.assign_new.clone();
        next.facts.assign_new.clear();
        match ProgramDiff::between(&base, &next) {
            ProgramDiff::Retractive(r) => {
                assert!(!dropped.is_empty());
                assert_eq!(r.removed, dropped.len());
                assert_eq!(r.added, 0);
                assert_eq!(r.removed_entry_points, 0);
            }
            other => panic!("expected retractive, got {other:?}"),
        }
    }

    #[test]
    fn removed_heap_type_is_non_monotone() {
        let base = two_method_program();
        let mut next = base.clone();
        next.facts.heap_type.clear();
        match ProgramDiff::between(&base, &next) {
            ProgramDiff::NonMonotone { reason } => {
                assert!(reason.contains("heap_type"), "{reason}");
            }
            other => panic!("expected non-monotone, got {other:?}"),
        }
    }

    #[test]
    fn removed_implements_is_non_monotone() {
        let mut base = two_method_program();
        base.msig_names.push("run()".into());
        base.facts
            .implements
            .push((Method(1), crate::ids::Type(0), crate::ids::MSig(0)));
        base.facts.canonicalize();
        let mut next = base.clone();
        next.facts.implements.clear();
        match ProgramDiff::between(&base, &next) {
            ProgramDiff::NonMonotone { reason } => {
                assert!(reason.contains("implements"), "{reason}");
            }
            other => panic!("expected non-monotone, got {other:?}"),
        }
    }

    #[test]
    fn renamed_entity_is_non_monotone() {
        let base = two_method_program();
        let mut next = base.clone();
        next.var_names[0] = "renamed".into();
        match ProgramDiff::between(&base, &next) {
            ProgramDiff::NonMonotone { reason } => {
                assert!(reason.contains("var_names"), "{reason}");
            }
            other => panic!("expected non-monotone, got {other:?}"),
        }
    }

    #[test]
    fn shrunk_table_is_non_monotone() {
        let base = two_method_program();
        let mut next = base.clone();
        next.var_names.pop();
        next.var_method.pop();
        match ProgramDiff::between(&base, &next) {
            ProgramDiff::NonMonotone { reason } => {
                assert!(reason.contains("shrank"), "{reason}");
            }
            other => panic!("expected non-monotone, got {other:?}"),
        }
    }

    #[test]
    fn removed_entry_point_is_retractive() {
        let base = two_method_program();
        let mut next = base.clone();
        next.entry_points.clear();
        match ProgramDiff::between(&base, &next) {
            ProgramDiff::Retractive(r) => {
                assert_eq!(r.removed_entry_points, 1);
                assert_eq!(r.removed, 0);
                assert_eq!(r.added, 0);
            }
            other => panic!("expected retractive, got {other:?}"),
        }
    }
}
