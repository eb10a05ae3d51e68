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
//! [`DemandEngine`] keeps the index of each program in an LRU keyed by
//! program digest, so every query after the first against a program,
//! whatever its roots, pays only the walk and the gated solve. It answers
//! context-insensitive queries directly from the slice (phase 1 alone is
//! already the full CI answer) and context-sensitive ones via the gated
//! solve.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::{Arc, Mutex};

use ctxform::{analyze_sliced, AbstractionKind, AnalysisConfig, DemandIndex};
use ctxform_ir::{Heap, Program, Var};

/// The result of one demand query (possibly multi-root).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Per queried variable, its points-to set under the requested
    /// configuration, sorted. Root order follows the request.
    pub answers: Vec<(Var, Vec<Heap>)>,
    /// `true` when the program's [`DemandIndex`] came from the cache
    /// instead of a fresh build (the slice itself is always cut anew).
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
}

/// A demand-driven query engine with a per-digest index cache.
///
/// The server keeps one engine beside its one database cache, shared by
/// every worker. A digest names immutable program content, so entries
/// never go stale; an edited program arrives under a new digest.
#[derive(Debug)]
pub struct DemandEngine {
    /// Cached indices, least recently used first.
    lru: Mutex<Vec<(u64, Arc<DemandIndex>)>>,
    capacity: usize,
}

impl DemandEngine {
    /// Creates an engine whose cache holds the indices of at most
    /// `capacity` programs.
    pub fn new(capacity: usize) -> Self {
        DemandEngine {
            lru: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
        }
    }

    /// The index of the program with `digest`, building it from `program`
    /// on a miss. The boolean is `true` when it came from the cache.
    fn index(&self, digest: u64, program: &Program) -> (Arc<DemandIndex>, bool) {
        {
            let mut lru = self.lru.lock().expect("demand index cache poisoned");
            if let Some(pos) = lru.iter().position(|(d, _)| *d == digest) {
                let entry = lru.remove(pos);
                let index = Arc::clone(&entry.1);
                lru.push(entry);
                return (index, true);
            }
        }
        // Build outside the lock; a racing duplicate build is harmless
        // (both produce the same index) and only one is kept.
        let index = Arc::new(DemandIndex::new(program));
        let mut lru = self.lru.lock().expect("demand index cache poisoned");
        if !lru.iter().any(|(d, _)| *d == digest) {
            if lru.len() >= self.capacity {
                lru.remove(0);
            }
            lru.push((digest, Arc::clone(&index)));
        }
        (index, false)
    }

    /// Answers `pts(v, ·)` for every root in `vars` under `config`,
    /// deriving only the transitively demanded facts.
    ///
    /// `digest` keys the index cache; callers must pass a value that
    /// uniquely identifies `program` (the serving tier uses the program's
    /// content digest).
    pub fn query(
        &self,
        digest: u64,
        program: &Program,
        config: &AnalysisConfig,
        vars: &[Var],
    ) -> QueryOutcome {
        let (index, slice_reused) = self.index(digest, program);
        let slice = Arc::new(index.slice(program, vars));
        let mut outcome = QueryOutcome {
            answers: Vec::with_capacity(vars.len()),
            slice_reused,
            slice_tuples: slice.demanded(),
            slice_derivations: slice.derivations,
            solver_facts: 0,
            solver_derivations: 0,
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
    fn index_cache_is_shared_across_configs() {
        let engine = DemandEngine::new(8);
        let module = compile(corpus::BOX).unwrap();
        let vars = [Var(0)];
        let ci = AnalysisConfig::insensitive();
        let ts = AnalysisConfig::transformer_strings("1-call".parse().unwrap());
        let first = engine.query(7, &module.program, &ci, &vars);
        assert!(!first.slice_reused);
        // Same digest: the index is config-independent.
        let second = engine.query(7, &module.program, &ts, &vars);
        assert!(second.slice_reused);
        assert!(second.solver_facts > 0, "context-sensitive path solves");
        assert_eq!(first.solver_facts, 0, "insensitive path answers from slice");
    }

    #[test]
    fn index_cache_hits_across_roots_of_one_digest() {
        let engine = DemandEngine::new(8);
        let module = compile(corpus::LIST).unwrap();
        let program = &module.program;
        let config = AnalysisConfig::transformer_strings("1-call".parse().unwrap());
        let exhaustive = analyze(program, &config);
        for v in 0..program.var_count() {
            let var = Var::from_index(v);
            let outcome = engine.query(3, program, &config, &[var]);
            assert_eq!(outcome.slice_reused, v > 0, "root {var}");
            assert_eq!(outcome.answers, vec![(var, exhaustive.ci.points_to(var))]);
        }
        let all: Vec<Var> = (0..program.var_count()).map(Var::from_index).collect();
        assert!(engine.query(3, program, &config, &all).slice_reused);
    }

    #[test]
    fn index_cache_evicts_the_least_recently_used_digest() {
        let engine = DemandEngine::new(2);
        let module = compile(corpus::BOX).unwrap();
        let ci = AnalysisConfig::insensitive();
        let reused = |digest: u64, v: usize| {
            engine
                .query(digest, &module.program, &ci, &[Var::from_index(v)])
                .slice_reused
        };
        assert!(!reused(1, 0));
        assert!(!reused(2, 0));
        // Touch digest 1 under another root: digest 2 is now the oldest.
        assert!(reused(1, 1));
        assert!(!reused(3, 0), "a third digest overflows capacity 2");
        assert!(reused(1, 2), "the recently used digest survives");
        assert!(!reused(2, 0), "the least recently used digest was evicted");
    }
}
