//! Context-sensitive pointer analysis with **context transformations** — a
//! from-scratch reproduction of Thiessen & Lhoták, "Context
//! Transformations for Pointer Analysis", PLDI 2017.
//!
//! The analysis instantiates the paper's parameterized deduction rules
//! (Figure 3) with one of three context-transformation abstractions
//! (Figure 4):
//!
//! * **context strings** — the traditional k-limited pairs,
//! * **transformer strings** — the paper's compact algebraic
//!   representation, which derives fewer facts at equal (call-site/object)
//!   precision, and
//! * **context-insensitive** — the classic Andersen-style baseline.
//!
//! under call-site, (full) object, or type sensitivity at configurable
//! `(m, h)` levels, with the specialized join indexing of §7 (and a naive
//! mode for ablations), a count of §8's subsuming facts
//! ([`AnalysisDb::subsumed_pts`]), and a Datalog-engine cross-check
//! baseline.
//!
//! ```
//! use ctxform::{analyze, AnalysisConfig};
//! use ctxform_minijava::{compile, corpus};
//!
//! let module = compile(corpus::BOX)?;
//! let config = AnalysisConfig::transformer_strings("2-object+H".parse()?);
//! let result = analyze(&module.program, &config);
//!
//! let main = module.method_by_name("Main.main").unwrap();
//! let r1 = module.var_by_name(main, "r1").unwrap();
//! let o1 = module.var_by_name(main, "o1").unwrap();
//! let h1 = module.heap_assigned_to(o1).unwrap();
//! assert_eq!(result.ci.points_to(r1), vec![h1]); // b1.get() == o1 only
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod bucket;
mod compact;
mod config;
mod db;
mod demand;
mod result;
mod solver;

pub use baseline::{datalog_baseline, load_facts, CI_RULES};
pub use bucket::{Bucket, JoinStrategy};
pub use compact::CompactVec;
pub use config::{AbstractionKind, AnalysisConfig};
pub use db::{AnalysisDb, ExtendOutcome};
pub use demand::{demand_points_to, demand_slice, DemandAnswer, DemandIndex, DemandSlice};
pub use result::{
    rule, AnalysisResult, CiFacts, LoggedFact, MemoryFootprint, PhaseProfile, RoundProfile,
    RuleCounts, RuleTimes, SolverStats, MAX_ROUND_PROFILES, PROFILE_STRIDE, RULE_NAMES,
    RULE_TIME_BUCKETS_NS,
};

use ctxform_algebra::{CStrings, Insensitive, TStrings};
use ctxform_ir::Program;

/// Runs the pointer analysis on `program` under `config`.
///
/// The program should be [validated](Program::validate) (frontends and the
/// builder do this); a malformed program may panic.
///
/// # Panics
///
/// Panics if `config` requests a context-sensitive abstraction without a
/// sensitivity.
pub fn analyze(program: &Program, config: &AnalysisConfig) -> AnalysisResult {
    match config.abstraction {
        AbstractionKind::Insensitive => solver::run(program, Insensitive::new(), *config),
        AbstractionKind::ContextStrings => {
            let sens = config
                .sensitivity
                .expect("context strings require a sensitivity");
            solver::run(program, CStrings::new(sens), *config)
        }
        AbstractionKind::TransformerStrings => {
            let sens = config
                .sensitivity
                .expect("transformer strings require a sensitivity");
            solver::run(program, TStrings::new(sens), *config)
        }
    }
}

/// Runs the pointer analysis restricted to a demand slice (see
/// [`demand_slice`]): derivations whose context-insensitive projection the
/// slice did not demand are dropped at insertion.
///
/// The result's points-to sets are exact (equal to [`analyze`]'s) for the
/// variables the slice was demanded for, and under-approximations
/// elsewhere — this is the sliced-solve behind demand-driven
/// context-sensitive queries.
///
/// # Panics
///
/// Panics if `config` requests a context-sensitive abstraction without a
/// sensitivity.
pub fn analyze_sliced(
    program: &Program,
    config: &AnalysisConfig,
    slice: std::sync::Arc<DemandSlice>,
) -> AnalysisResult {
    match config.abstraction {
        AbstractionKind::Insensitive => {
            solver::run_gated(program, Insensitive::new(), *config, slice)
        }
        AbstractionKind::ContextStrings => {
            let sens = config
                .sensitivity
                .expect("context strings require a sensitivity");
            solver::run_gated(program, CStrings::new(sens), *config, slice)
        }
        AbstractionKind::TransformerStrings => {
            let sens = config
                .sensitivity
                .expect("transformer strings require a sensitivity");
            solver::run_gated(program, TStrings::new(sens), *config, slice)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform_algebra::Sensitivity;
    use ctxform_minijava::{compile, corpus};

    fn sens(label: &str) -> Sensitivity {
        label.parse().expect("valid label")
    }

    /// All five paper configurations plus both abstractions.
    fn all_cs_configs() -> Vec<AnalysisConfig> {
        let mut configs = Vec::new();
        for s in Sensitivity::paper_configs() {
            configs.push(AnalysisConfig::context_strings(s));
            configs.push(AnalysisConfig::transformer_strings(s));
        }
        configs
    }

    #[test]
    fn insensitive_matches_datalog_baseline_on_corpus() {
        for (name, src) in corpus::all() {
            let module = compile(src).unwrap();
            let ours = analyze(&module.program, &AnalysisConfig::insensitive());
            let datalog = datalog_baseline(&module.program);
            assert_eq!(ours.ci.pts, datalog.pts, "{name} pts");
            assert_eq!(ours.ci.hpts, datalog.hpts, "{name} hpts");
            assert_eq!(ours.ci.call, datalog.call, "{name} call");
            assert_eq!(ours.ci.reach, datalog.reach, "{name} reach");
        }
    }

    #[test]
    fn context_sensitive_results_are_subsets_of_insensitive() {
        for (name, src) in corpus::all() {
            let module = compile(src).unwrap();
            let ci = analyze(&module.program, &AnalysisConfig::insensitive());
            for config in all_cs_configs() {
                let cs = analyze(&module.program, &config);
                assert!(
                    cs.ci.pts.is_subset(&ci.ci.pts),
                    "{name} {config}: pts not a subset"
                );
                assert!(
                    cs.ci.call.is_subset(&ci.ci.call),
                    "{name} {config}: call not a subset"
                );
            }
        }
    }

    #[test]
    fn box_program_is_disambiguated_by_object_sensitivity() {
        let module = compile(corpus::BOX).unwrap();
        let main = module.method_by_name("Main.main").unwrap();
        let r1 = module.var_by_name(main, "r1").unwrap();
        let o1 = module.var_by_name(main, "o1").unwrap();
        let o2 = module.var_by_name(main, "o2").unwrap();
        let h1 = module.heap_assigned_to(o1).unwrap();
        let h2 = module.heap_assigned_to(o2).unwrap();

        // Context-insensitively, r1 may point to both payloads.
        let ci = analyze(&module.program, &AnalysisConfig::insensitive());
        assert_eq!(ci.ci.points_to(r1), vec![h1, h2]);

        // 2-object+H disambiguates the two boxes, in both abstractions.
        for config in [
            AnalysisConfig::context_strings(sens("2-object+H")),
            AnalysisConfig::transformer_strings(sens("2-object+H")),
        ] {
            let cs = analyze(&module.program, &config);
            assert_eq!(cs.ci.points_to(r1), vec![h1], "{config}");
        }
    }

    #[test]
    fn abstractions_agree_on_corpus_under_call_and_object() {
        // Theorem 6.2's empirical side: identical context-insensitive
        // projections for call-site and object sensitivity.
        for (name, src) in corpus::all() {
            let module = compile(src).unwrap();
            for label in ["1-call", "1-call+H", "1-object", "2-object+H"] {
                let c = analyze(
                    &module.program,
                    &AnalysisConfig::context_strings(sens(label)),
                );
                let t = analyze(
                    &module.program,
                    &AnalysisConfig::transformer_strings(sens(label)),
                );
                assert!(
                    t.ci.pts.is_subset(&c.ci.pts),
                    "{name} {label}: transformer must be at least as precise"
                );
                assert_eq!(c.ci.pts, t.ci.pts, "{name} {label} pts");
                assert_eq!(c.ci.hpts, t.ci.hpts, "{name} {label} hpts");
                assert_eq!(c.ci.call, t.ci.call, "{name} {label} call");
            }
        }
    }

    #[test]
    fn type_sensitivity_transformer_is_coarser_or_equal() {
        for (name, src) in corpus::all() {
            let module = compile(src).unwrap();
            let c = analyze(
                &module.program,
                &AnalysisConfig::context_strings(sens("2-type+H")),
            );
            let t = analyze(
                &module.program,
                &AnalysisConfig::transformer_strings(sens("2-type+H")),
            );
            assert!(
                c.ci.pts.is_subset(&t.ci.pts),
                "{name}: context strings must be at least as precise under type sensitivity"
            );
            assert!(c.ci.call.is_subset(&t.ci.call), "{name} call");
        }
    }

    #[test]
    fn join_strategy_does_not_change_results() {
        for (name, src) in corpus::all() {
            let module = compile(src).unwrap();
            for base in all_cs_configs() {
                let specialized = analyze(&module.program, &base);
                let naive = analyze(&module.program, &base.with_naive_joins());
                assert_eq!(
                    specialized.stats.total(),
                    naive.stats.total(),
                    "{name} {base}: fact counts must agree"
                );
                assert_eq!(specialized.ci.pts, naive.ci.pts, "{name} {base}");
                // The naive strategy probes at least as many candidates.
                assert!(
                    naive.stats.probes >= specialized.stats.probes,
                    "{name} {base}"
                );
            }
        }
    }

    #[test]
    fn one_call_site_precision_story_from_section2() {
        // §2: under 1-call, x1/y1 are precise but x2/y2 are merged;
        // 2-call recovers x2/y2.
        let module = compile(corpus::FIG1).unwrap();
        let main = module.method_by_name("Main.main").unwrap();
        let var = |n: &str| module.var_by_name(main, n).unwrap();
        let heap = |n: &str| module.heap_assigned_to(var(n)).unwrap();
        let (h1, h2) = (heap("x"), heap("y"));

        for kind in ["cs", "ts"] {
            let cfg = |label: &str| {
                if kind == "cs" {
                    AnalysisConfig::context_strings(sens(label))
                } else {
                    AnalysisConfig::transformer_strings(sens(label))
                }
            };
            let one_call = analyze(&module.program, &cfg("1-call"));
            assert_eq!(one_call.ci.points_to(var("x1")), vec![h1], "{kind}");
            assert_eq!(one_call.ci.points_to(var("y1")), vec![h2], "{kind}");
            assert_eq!(one_call.ci.points_to(var("x2")), vec![h1, h2], "{kind}");
            assert_eq!(one_call.ci.points_to(var("y2")), vec![h1, h2], "{kind}");

            let two_call = analyze(&module.program, &cfg("2-call"));
            assert_eq!(two_call.ci.points_to(var("x2")), vec![h1], "{kind}");
            assert_eq!(two_call.ci.points_to(var("y2")), vec![h2], "{kind}");
        }
    }

    #[test]
    fn one_object_precision_story_from_section2() {
        // §2: under 1-object, x1/y1 are merged (same receiver h3) but
        // x2/y2 are precise (distinct receivers h4/h5).
        let module = compile(corpus::FIG1).unwrap();
        let main = module.method_by_name("Main.main").unwrap();
        let var = |n: &str| module.var_by_name(main, n).unwrap();
        let heap = |n: &str| module.heap_assigned_to(var(n)).unwrap();
        let (h1, h2) = (heap("x"), heap("y"));

        for config in [
            AnalysisConfig::context_strings(sens("1-object")),
            AnalysisConfig::transformer_strings(sens("1-object")),
        ] {
            let r = analyze(&module.program, &config);
            assert_eq!(r.ci.points_to(var("x1")), vec![h1, h2], "{config}");
            assert_eq!(r.ci.points_to(var("y1")), vec![h1, h2], "{config}");
            assert_eq!(r.ci.points_to(var("x2")), vec![h1], "{config}");
            assert_eq!(r.ci.points_to(var("y2")), vec![h2], "{config}");
        }
    }

    #[test]
    fn heap_contexts_disambiguate_fig1_objects() {
        // §2: without heap contexts a.f and b.f alias and z points to h1;
        // with one level of heap context they do not.
        let module = compile(corpus::FIG1).unwrap();
        let main = module.method_by_name("Main.main").unwrap();
        let var = |n: &str| module.var_by_name(main, n).unwrap();
        let h1 = module.heap_assigned_to(var("x")).unwrap();

        for kind in [
            AbstractionKind::ContextStrings,
            AbstractionKind::TransformerStrings,
        ] {
            let mk = |label: &str| {
                let s = sens(label);
                match kind {
                    AbstractionKind::ContextStrings => AnalysisConfig::context_strings(s),
                    _ => AnalysisConfig::transformer_strings(s),
                }
            };
            let no_heap = analyze(&module.program, &mk("1-call"));
            assert!(
                no_heap.ci.points_to(var("z")).contains(&h1),
                "{kind:?}: z imprecisely points to h1 without heap contexts"
            );
            for label in ["1-call+H", "2-object+H"] {
                let with_heap = analyze(&module.program, &mk(label));
                // The paper: "either flavour concludes that a and b do
                // not point to a common object at run-time" — observable
                // context-insensitively through z staying empty of h1.
                // (a and b share the *allocation site* m1, so the CI
                // projection itself cannot express the disaliasing.)
                assert!(
                    !with_heap.ci.points_to(var("z")).contains(&h1),
                    "{kind:?} {label}: heap contexts disalias a.f/b.f"
                );
            }
        }
    }

    #[test]
    fn figure5_fact_counts_match_paper() {
        // Fig. 5's table at 1-call+H: 20 facts with context strings
        // (the enumerated pairs), 12 with transformer strings.
        let module = compile(corpus::FIG5).unwrap();
        let s = sens("1-call+H");
        let c = analyze(
            &module.program,
            &AnalysisConfig::context_strings(s).with_recorded_facts(),
        );
        let t = analyze(
            &module.program,
            &AnalysisConfig::transformer_strings(s).with_recorded_facts(),
        );
        // The paper's table lists pts + call + reach facts.
        let count = |r: &AnalysisResult| {
            r.log
                .iter()
                .filter(|f| matches!(f.relation, "pts" | "call" | "reach"))
                .count()
        };
        assert_eq!(count(&c), 20, "context strings enumerate 20 facts");
        assert_eq!(count(&t), 12, "transformer strings derive 12 facts");
    }

    #[test]
    fn recorded_log_matches_relation_counts() {
        let module = compile(corpus::BOX).unwrap();
        let cfg = AnalysisConfig::transformer_strings(sens("1-object")).with_recorded_facts();
        let r = analyze(&module.program, &cfg);
        let counts = r.log_counts();
        assert_eq!(counts.get("pts").copied().unwrap_or(0), r.stats.pts);
        assert_eq!(counts.get("call").copied().unwrap_or(0), r.stats.call);
        assert_eq!(counts.get("reach").copied().unwrap_or(0), r.stats.reach);
    }

    #[test]
    fn transformer_configurations_are_reported() {
        let module = compile(corpus::FIG7).unwrap();
        let cfg = AnalysisConfig::transformer_strings(sens("1-call+H"));
        let r = analyze(&module.program, &cfg);
        assert!(!r.stats.pts_configurations.is_empty());
        let tags: Vec<&str> = r
            .stats
            .pts_configurations
            .iter()
            .map(|(t, _)| t.as_str())
            .collect();
        assert!(tags.contains(&""), "identity configuration present");
        assert!(tags.contains(&"xe"), "the c1·ĉ1 subsumed fact is present");
    }

    const STATIC_FIELD_SRC: &str = "
        class G { static Object shared; }
        class Main {
            static void put(Object o) { G.shared = o; }
            static Object get() { Object t = G.shared; return t; }
            public static void main(String[] args) {
                Object a = new Object();
                Main.put(a);
                Object b = Main.get();
            }
        }
    ";

    #[test]
    fn static_fields_flow_under_every_configuration() {
        let module = compile(STATIC_FIELD_SRC).unwrap();
        let main = module.method_by_name("Main.main").unwrap();
        let a = module.var_by_name(main, "a").unwrap();
        let b = module.var_by_name(main, "b").unwrap();
        let h = module.heap_assigned_to(a).unwrap();
        let mut configs = vec![AnalysisConfig::insensitive()];
        configs.extend(all_cs_configs());
        for config in configs {
            let r = analyze(&module.program, &config);
            assert_eq!(r.ci.points_to(b), vec![h], "{config}");
            assert_eq!(r.ci.spts.len(), 1, "{config}");
        }
    }

    #[test]
    fn static_loads_compress_under_transformer_strings() {
        // The SLoad rule enumerates one context-string fact per reachable
        // context of the loading method, but a single wildcard
        // transformer fact.
        let module = compile(
            "class G { static Object shared; }
             class Util {
                 static Object fetch() { Object t = G.shared; return t; }
             }
             class Main {
                 static void wave(Object o) {
                     G.shared = o;
                     Object x = Util.fetch();
                 }
                 public static void main(String[] args) {
                     Main.wave(new Object());
                     Main.wave(new Object());
                 }
             }",
        )
        .unwrap();
        let s = sens("2-call");
        let c = analyze(
            &module.program,
            &AnalysisConfig::context_strings(s).with_recorded_facts(),
        );
        let t = analyze(
            &module.program,
            &AnalysisConfig::transformer_strings(s).with_recorded_facts(),
        );
        let count_t_loads = |r: &AnalysisResult| r.log.iter().filter(|f| f.rule == "SLoad").count();
        assert!(
            count_t_loads(&c) > count_t_loads(&t),
            "{} vs {}",
            count_t_loads(&c),
            count_t_loads(&t)
        );
        assert_eq!(c.ci.pts, t.ci.pts);
    }

    #[test]
    fn figure7_subsumption_counts_the_redundant_fact() {
        let module = compile(corpus::FIG7).unwrap();
        let s = sens("1-call+H");
        // v points to h1 via ε and via c1·ĉ1; ε subsumes c1·ĉ1.
        let t = AnalysisDb::solve(
            module.program.clone(),
            &AnalysisConfig::transformer_strings(s),
        );
        assert_eq!(t.subsumed_pts(), 1);
        // Context strings subsume only by equality: nothing is redundant.
        let c = AnalysisDb::solve(module.program, &AnalysisConfig::context_strings(s));
        assert_eq!(c.subsumed_pts(), 0);
    }
}
