//! Demand-driven **context-sensitive** points-to queries — the paper's
//! §10 demand-driven direction, carried from plain Datalog to the
//! algebra-valued transformer-string rules.
//!
//! The context-sensitive rule set is *not* plain Datalog: its tuples
//! carry algebra values (context transformations) combined with
//! with `compose`. This crate therefore evaluates
//! a query `pts(v, ·)` goal-directed in two phases:
//!
//! 1. **Slice.** A [`ctxform::DemandIndex`] solves the program once,
//!    serially and context-insensitively, on the specialized solver, and
//!    indexes the input relations in reverse; it depends on the program
//!    alone. [`ctxform::DemandIndex::slice`] then walks backwards from the
//!    roots' `pts(v, ·)` over the instances of [`ctxform::CI_RULES`]
//!    whose premises hold. The result, a [`ctxform::DemandSlice`], is
//!    exactly the union of the nodes of every CI derivation tree of the
//!    roots.
//! 2. **Sliced solve.** Run the specialized algebra-valued semi-naive
//!    solver *gated* on the slice ([`ctxform::analyze_sliced`]): every
//!    insertion whose context-insensitive projection the slice does not
//!    contain is dropped before it can enter a delta queue. `compose` is
//!    threaded natively by the solver's typed rule drivers.
//!
//! This is exact for the queried variables: every context-sensitive
//! derivation projects rule-by-rule onto a context-insensitive one, whose
//! nodes the slice contains by construction — so the gate can never
//! block a derivation that contributes to an answer. Undemanded regions
//! of the program are never explored context-sensitively, which is where
//! the latency win over an exhaustive solve comes from. (The paper's own
//! proposal, a magic-sets slice, demands a superset of these tuples at
//! far higher cost; [`ctxform::demand_points_to`] keeps it for
//! comparison.)
//!
//! [`query`] takes the program's index from its caller, so every query
//! after the first against a program, whatever its roots, pays only the
//! walk and the gated solve when the caller keeps the index (the server
//! keeps it in the program's cache entry). It answers context-insensitive
//! queries directly from the slice (phase 1 alone is already the full CI
//! answer) and context-sensitive ones via the gated solve.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use ctxform::{analyze_sliced, AbstractionKind, AnalysisConfig, DemandIndex};
use ctxform_ir::{Heap, Program, Var};

/// The result of one demand query (possibly multi-root).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Per queried variable, its points-to set under the requested
    /// configuration, sorted. Root order follows the request.
    pub answers: Vec<(Var, Vec<Heap>)>,
    /// Demanded tuples across the six derived CI relations — the
    /// numerator of the demanded-vs-exhaustive ratio.
    pub slice_tuples: usize,
    /// Rule instances the slice's backward closure examined.
    pub slice_derivations: usize,
    /// Facts the gated context-sensitive solve derived (`0` when the
    /// query was answered from the slice alone).
    pub solver_facts: usize,
}

/// Answers `pts(v, ·)` for every root in `vars` under `config`,
/// deriving only the transitively demanded facts.
///
/// `index` must be the [`DemandIndex`] of `program`.
pub fn query(
    index: &DemandIndex,
    program: &Program,
    config: &AnalysisConfig,
    vars: &[Var],
) -> QueryOutcome {
    let slice = Arc::new(index.slice(program, vars));
    let mut outcome = QueryOutcome {
        answers: Vec::with_capacity(vars.len()),
        slice_tuples: slice.demanded(),
        slice_derivations: slice.derivations,
        solver_facts: 0,
    };
    match config.abstraction {
        AbstractionKind::Insensitive => {
            // The slice already is the full CI answer for its roots.
            for &var in vars {
                outcome.answers.push((var, slice.points_to(var)));
            }
        }
        AbstractionKind::ContextStrings | AbstractionKind::TransformerStrings => {
            let result = analyze_sliced(program, config, Arc::clone(&slice));
            outcome.solver_facts = result.stats.total();
            for &var in vars {
                outcome.answers.push((var, result.ci.points_to(var)));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform::analyze;
    use ctxform_minijava::{compile, corpus};

    fn configs() -> Vec<AnalysisConfig> {
        vec![
            AnalysisConfig::insensitive(),
            AnalysisConfig::context_strings("1-call".parse().unwrap()),
            AnalysisConfig::context_strings("2-object+H".parse().unwrap()),
            AnalysisConfig::transformer_strings("1-call+H".parse().unwrap()),
            AnalysisConfig::transformer_strings("2-object+H".parse().unwrap()),
        ]
    }

    #[test]
    fn answers_match_exhaustive_on_corpus() {
        for (name, src) in corpus::all() {
            let module = compile(src).unwrap();
            let index = DemandIndex::new(&module.program);
            for config in configs() {
                let exhaustive = analyze(&module.program, &config);
                let vars: Vec<Var> = (0..module.program.var_count())
                    .step_by(3)
                    .map(Var::from_index)
                    .collect();
                let outcome = query(&index, &module.program, &config, &vars);
                for (var, heaps) in outcome.answers {
                    assert_eq!(heaps, exhaustive.ci.points_to(var), "{name} {config} {var}");
                }
            }
        }
    }

    #[test]
    fn one_index_serves_every_config() {
        let module = compile(corpus::BOX).unwrap();
        let index = DemandIndex::new(&module.program);
        let vars = [Var(0)];
        let ci = AnalysisConfig::insensitive();
        let ts = AnalysisConfig::transformer_strings("1-call".parse().unwrap());
        let first = query(&index, &module.program, &ci, &vars);
        let second = query(&index, &module.program, &ts, &vars);
        assert!(second.solver_facts > 0, "context-sensitive path solves");
        assert_eq!(first.solver_facts, 0, "insensitive path answers from slice");
        assert_eq!(first.answers, second.answers);
    }

    #[test]
    fn one_index_serves_every_root() {
        let module = compile(corpus::LIST).unwrap();
        let program = &module.program;
        let index = DemandIndex::new(program);
        let config = AnalysisConfig::transformer_strings("1-call".parse().unwrap());
        let exhaustive = analyze(program, &config);
        for v in 0..program.var_count() {
            let var = Var::from_index(v);
            let outcome = query(&index, program, &config, &[var]);
            assert_eq!(outcome.answers, vec![(var, exhaustive.ci.points_to(var))]);
        }
        assert!(index.bytes() > 0);
    }
}
