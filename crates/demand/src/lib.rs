//! Demand-driven **context-sensitive** points-to queries — the paper's
//! §10 demand-driven direction, carried from plain Datalog to the
//! algebra-valued transformer-string rules.
//!
//! The context-sensitive rule set is *not* plain Datalog: its tuples
//! carry algebra values (context transformations) combined with
//! with `compose`. This crate therefore evaluates
//! a query `pts(v, ·)` goal-directed in two phases:
//!
//! 1. **Slice.** [`ctxform::demand_slice`] solves the program once,
//!    serially and context-insensitively, on the specialized solver, then
//!    walks backwards from the roots' `pts(v, ·)` over the instances of
//!    [`ctxform::CI_RULES`] whose premises hold. The result, a
//!    [`ctxform::DemandSlice`], is exactly the union of the nodes of every
//!    CI derivation tree of the roots.
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
//! [`DemandEngine`] wraps both phases behind a per-digest
//! [`SliceCache`], so repeated queries against the same program reuse
//! the slice. It answers context-insensitive queries directly from the
//! slice (phase 1 alone is already the full CI answer) and
//! context-sensitive ones via the gated solve.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use ctxform::{analyze_sliced, AbstractionKind, AnalysisConfig, SliceCache};
use ctxform_ir::{Heap, Program, Var};

/// The result of one demand query (possibly multi-root).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Per queried variable, its points-to set under the requested
    /// configuration, sorted. Root order follows the request.
    pub answers: Vec<(Var, Vec<Heap>)>,
    /// `true` when the demand slice came from the cache instead of a
    /// fresh [`ctxform::demand_slice`].
    pub slice_reused: bool,
    /// Demanded tuples across the six derived CI relations — the
    /// numerator of the demanded-vs-exhaustive ratio.
    pub slice_tuples: usize,
    /// Rule instances the slice's backward closure examined.
    pub slice_derivations: usize,
    /// Facts the gated context-sensitive solve derived (`0` when the
    /// query was answered from the slice alone).
    pub solver_facts: usize,
    /// Rule derivations of the gated solve (`0` for slice-only answers).
    pub solver_derivations: u64,
    /// Worker threads the gated solve ran with (`0` for slice-only
    /// answers).
    pub solver_threads: usize,
}

/// A demand-driven query engine with a per-digest slice cache.
///
/// One engine per serving shard mirrors the shard's database cache: a
/// digest's slices live exactly where its queries are routed.
#[derive(Debug)]
pub struct DemandEngine {
    cache: SliceCache,
}

impl DemandEngine {
    /// Creates an engine whose cache holds at most `capacity` slices.
    pub fn new(capacity: usize) -> Self {
        DemandEngine {
            cache: SliceCache::new(capacity),
        }
    }

    /// Slice-cache hits so far.
    pub fn slice_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Slice-cache misses so far.
    pub fn slice_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Answers `pts(v, ·)` for every root in `vars` under `config`,
    /// deriving only the transitively demanded facts.
    ///
    /// `digest` keys the slice cache; callers must pass a value that
    /// uniquely identifies `program` (the serving tier uses the program's
    /// content digest).
    pub fn query(
        &self,
        digest: u64,
        program: &Program,
        config: &AnalysisConfig,
        vars: &[Var],
    ) -> QueryOutcome {
        let (slice, slice_reused) = self.cache.get_or_compute(digest, program, vars);
        let mut outcome = QueryOutcome {
            answers: Vec::with_capacity(vars.len()),
            slice_reused,
            slice_tuples: slice.demanded(),
            slice_derivations: slice.derivations,
            solver_facts: 0,
            solver_derivations: 0,
            solver_threads: 0,
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
                outcome.solver_derivations = result.stats.rule_derived.total();
                outcome.solver_threads = result.stats.threads_used;
                for &var in vars {
                    outcome.answers.push((var, result.ci.points_to(var)));
                }
            }
        }
        outcome
    }
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
        let engine = DemandEngine::new(8);
        for (digest, (name, src)) in corpus::all().iter().enumerate() {
            let module = compile(src).unwrap();
            for config in configs() {
                let exhaustive = analyze(&module.program, &config);
                let vars: Vec<Var> = (0..module.program.var_count())
                    .step_by(3)
                    .map(Var::from_index)
                    .collect();
                let outcome = engine.query(digest as u64, &module.program, &config, &vars);
                for (var, heaps) in outcome.answers {
                    assert_eq!(heaps, exhaustive.ci.points_to(var), "{name} {config} {var}");
                }
            }
        }
    }

    #[test]
    fn slice_cache_is_shared_across_configs() {
        let engine = DemandEngine::new(8);
        let module = compile(corpus::BOX).unwrap();
        let vars = [Var(0)];
        let ci = AnalysisConfig::insensitive();
        let ts = AnalysisConfig::transformer_strings("1-call".parse().unwrap());
        let first = engine.query(7, &module.program, &ci, &vars);
        assert!(!first.slice_reused);
        // Same digest + roots: the slice is config-independent.
        let second = engine.query(7, &module.program, &ts, &vars);
        assert!(second.slice_reused);
        assert_eq!(engine.slice_hits(), 1);
        assert_eq!(engine.slice_misses(), 1);
        assert!(second.solver_facts > 0, "context-sensitive path solves");
        assert_eq!(first.solver_facts, 0, "insensitive path answers from slice");
    }
}
