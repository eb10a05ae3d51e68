//! Demand-driven points-to queries (the paper's §10 future-work
//! direction).
//!
//! A query `pts(v, ·)` needs only the context-insensitive tuples its
//! derivations can touch. [`demand_slice`] computes that fragment for a
//! set of roots natively, in two halves: a [`DemandIndex`] that depends
//! on the program alone (a serial CI solve on the specialized solver plus
//! reverse indices of the inputs), then a backward closure over the
//! [`crate::CI_RULES`] instances from the roots, yielding the union of
//! the nodes of every CI derivation tree of the roots. A server keeps the
//! index per program and pays only the walk per query. The slice doubles
//! as a *gate* for the context-sensitive solver (see
//! [`crate::analyze_sliced`]): because every context-sensitive derivation
//! projects onto a context-insensitive one rule-by-rule, restricting the
//! solver to facts whose projection the slice contains keeps the answers
//! for the queried variables exact while skipping the rest of the
//! program.
//!
//! [`demand_points_to`] keeps the paper's own proposal as a reproduction:
//! §10 says "Datalog programs that exhaustively compute information can
//! be converted to a demand-driven program through the magic sets
//! transformation", so it applies [`ctxform_datalog::magic_transform`] to
//! the CI rules and evaluates the result on the generic Datalog engine.
//! Magic sets must demand every derivation-tree node, so their slice is a
//! superset of the native one, and the generic engine pays for the magic
//! and adorned bookkeeping on top.

mod closure;
mod magic;

pub use closure::DemandIndex;

use std::convert::Infallible;

use ctxform_datalog::DatalogError;
use ctxform_hash::FxHashSet;
use ctxform_ir::{Field, Heap, Inv, Method, Program, Var};

/// The result of one magic-sets demand query ([`demand_points_to`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandAnswer {
    /// The queried variable.
    pub var: Var,
    /// Its context-insensitive points-to set, sorted.
    pub points_to: Vec<Heap>,
    /// Total tuples in the database after evaluation (inputs + magic +
    /// adorned relations).
    pub derived_tuples: usize,
    /// Rule firings during evaluation — the work metric to compare with
    /// an exhaustive run's `EvalStats::derivations`.
    pub derivations: usize,
    /// Semi-naive rounds to fixpoint.
    pub rounds: usize,
}

/// The demanded fragment of the context-insensitive database for a set of
/// query roots: the six derived relations of [`crate::CI_RULES`],
/// restricted to the tuples the roots' derivations need.
///
/// Tuple orders follow the rule text: `pts(var, heap)`,
/// `hpts(base, field, heap)`, `hload(base, field, var)`,
/// `call(inv, method)`, `spts(field, heap)`, `reach(method)`.
#[derive(Debug, Default, Clone)]
pub struct DemandSlice {
    /// Demanded `pts` tuples.
    pub pts: FxHashSet<(Var, Heap)>,
    /// Demanded `hpts` tuples.
    pub hpts: FxHashSet<(Heap, Field, Heap)>,
    /// Demanded `hload` tuples.
    pub hload: FxHashSet<(Heap, Field, Var)>,
    /// Demanded `call` tuples.
    pub call: FxHashSet<(Inv, Method)>,
    /// Demanded `spts` tuples.
    pub spts: FxHashSet<(Field, Heap)>,
    /// Demanded `reach` tuples.
    pub reach: FxHashSet<Method>,
    /// Tuples the slice was cut from: the size of the CI fixpoint for
    /// [`demand_slice`] (all six derived relations), the whole database
    /// (inputs + magic + adorned relations) for the magic-sets slice.
    pub derived_tuples: usize,
    /// Rule instances examined: by the backward closure for
    /// [`demand_slice`], rule firings for the magic-sets slice.
    pub derivations: usize,
    /// Levels of the backward closure for [`demand_slice`], semi-naive
    /// rounds for the magic-sets slice.
    pub rounds: usize,
}

impl DemandSlice {
    /// The queried variable's context-insensitive points-to set, sorted.
    pub fn points_to(&self, var: Var) -> Vec<Heap> {
        let mut heaps: Vec<Heap> = self
            .pts
            .iter()
            .filter(|&&(v, _)| v == var)
            .map(|&(_, h)| h)
            .collect();
        heaps.sort_unstable();
        heaps
    }

    /// Number of demanded tuples across the six derived relations.
    pub fn demanded(&self) -> usize {
        self.pts.len()
            + self.hpts.len()
            + self.hload.len()
            + self.call.len()
            + self.spts.len()
            + self.reach.len()
    }
}

/// The demanded fragment of the context-insensitive database for the
/// query roots `vars`: every tuple of every CI derivation tree of a
/// root's `pts(v, ·)`.
///
/// Builds a fresh [`DemandIndex`] (one serial context-insensitive solve
/// plus reverse indices) and walks backwards from the roots. A
/// multi-root slice is exactly the union of the per-root slices. Callers
/// that query one program repeatedly should keep the index and call
/// [`DemandIndex::slice`] instead: it returns the same slice without
/// re-solving.
///
/// # Errors
///
/// None: the native slice cannot fail.
pub fn demand_slice(program: &Program, vars: &[Var]) -> Result<DemandSlice, Infallible> {
    Ok(DemandIndex::new(program).slice(program, vars))
}

/// Answers `pts(var, ?)` demand-driven through the magic-sets slice of
/// §10 (a reproduction and comparison point; serving uses
/// [`demand_slice`]).
///
/// # Errors
///
/// Propagates engine errors (none are expected for a validated program —
/// they would indicate a bug in the embedded rules).
pub fn demand_points_to(program: &Program, var: Var) -> Result<DemandAnswer, DatalogError> {
    let slice = magic::magic_slice(program, &[var])?;
    Ok(DemandAnswer {
        var,
        points_to: slice.points_to(var),
        derived_tuples: slice.derived_tuples,
        derivations: slice.derivations,
        rounds: slice.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, load_facts, AnalysisConfig, CI_RULES};
    use ctxform_datalog::Engine;
    use ctxform_minijava::{compile, corpus};
    use ctxform_synth::random_program;

    #[test]
    fn demand_answers_match_exhaustive_on_corpus() {
        for (name, src) in corpus::all() {
            let module = compile(src).unwrap();
            let exhaustive = analyze(&module.program, &AnalysisConfig::insensitive());
            for v in 0..module.program.var_count() {
                let var = ctxform_ir::Var::from_index(v);
                let demand = demand_points_to(&module.program, var).unwrap();
                assert_eq!(
                    demand.points_to,
                    exhaustive.ci.points_to(var),
                    "{name}: {}",
                    module.program.var_names[v]
                );
            }
        }
    }

    #[test]
    fn demand_answers_match_exhaustive_on_random_programs() {
        for seed in 0..6u64 {
            let src = random_program(seed, 1);
            let module = compile(&src).unwrap();
            let exhaustive = analyze(&module.program, &AnalysisConfig::insensitive());
            // Spot-check a spread of variables.
            for v in (0..module.program.var_count()).step_by(7) {
                let var = ctxform_ir::Var::from_index(v);
                let demand = demand_points_to(&module.program, var).unwrap();
                assert_eq!(
                    demand.points_to,
                    exhaustive.ci.points_to(var),
                    "seed {seed} v{v}"
                );
            }
        }
    }

    #[test]
    fn multi_root_slices_answer_each_root_exactly() {
        for seed in 0..3u64 {
            let src = random_program(seed, 1);
            let module = compile(&src).unwrap();
            let exhaustive = analyze(&module.program, &AnalysisConfig::insensitive());
            let vars: Vec<Var> = (0..module.program.var_count())
                .step_by(5)
                .map(Var::from_index)
                .collect();
            let slice = demand_slice(&module.program, &vars).unwrap();
            for &var in &vars {
                assert_eq!(
                    slice.points_to(var),
                    exhaustive.ci.points_to(var),
                    "seed {seed} {var}"
                );
            }
        }
    }

    #[test]
    fn loosely_coupled_queries_derive_less() {
        // A small queried island next to a much larger unrelated one; the
        // query must not explore the big island. (Magic sets have fixed
        // overhead — the magic/adorned bookkeeping — so the win only
        // appears once the undemanded region dominates, exactly as the
        // classic literature describes.)
        let mut big_island = String::new();
        for k in 0..60 {
            big_island.push_str(&format!(
                "A b{k} = new A();\nObject u{k} = new Object();\nb{k}.f = u{k};\nObject w{k} = b{k}.f;\n"
            ));
        }
        let src = format!(
            "class A {{ Object f; }}
             class Main {{
                 static void island1() {{
                     A a = new A();
                     Object x = new Object();
                     a.f = x;
                     Object y = a.f;
                 }}
                 static void island2() {{ {big_island} }}
                 public static void main(String[] args) {{
                     Main.island1();
                     Main.island2();
                 }}
             }}"
        );
        let module = compile(&src).unwrap();
        let island1 = module.method_by_name("Main.island1").unwrap();
        let y = module.var_by_name(island1, "y").unwrap();
        let demand = demand_points_to(&module.program, y).unwrap();
        assert_eq!(demand.points_to.len(), 1);

        // Exhaustive run for comparison.
        let mut full = Engine::parse(CI_RULES).unwrap();
        load_facts(&mut full, &module.program);
        let full_stats = full.run();
        assert!(
            demand.derivations < full_stats.derivations,
            "demand did {} rule firings vs exhaustive {}",
            demand.derivations,
            full_stats.derivations
        );
    }
}
