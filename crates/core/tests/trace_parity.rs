//! Tracing must be result-neutral: enabling the observability layer may
//! not change a single derived fact.
//!
//! One test function (the tracing switch is process-global, so the
//! enabled and disabled runs must not interleave with each other).

use ctxform::{analyze, AnalysisConfig, RuleCounts};
use ctxform_algebra::Sensitivity;
use ctxform_ir::Program;
use ctxform_minijava::compile;
use ctxform_obs as obs;
use ctxform_synth::{generate, preset};

fn corpus_program(name: &str) -> Program {
    let cfg = preset(name).expect("preset exists").scale_driver(4);
    let src = generate(&cfg);
    compile(&src).expect("generated programs are valid").program
}

/// Corpus cell × both abstractions: runs with tracing enabled are
/// bit-identical (projections, fact counts, rule counters) to runs with
/// it disabled, and the enabled runs actually collect the solve span.
#[test]
fn tracing_is_result_neutral() {
    let program = corpus_program("luindex");
    let sensitivity: Sensitivity = "2-object+H".parse().unwrap();
    for config in [
        AnalysisConfig::context_strings(sensitivity),
        AnalysisConfig::transformer_strings(sensitivity),
    ] {
        obs::disable_tracing();
        let plain = analyze(&program, &config);

        obs::enable_tracing(obs::trace::DEFAULT_CAPACITY);
        obs::clear_trace();
        let traced = analyze(&program, &config);
        let dump = obs::take_trace();
        obs::disable_tracing();

        let what = config.to_string();
        assert_eq!(plain.ci, traced.ci, "{what}: projections differ");
        let mut s1 = plain.stats.clone();
        let mut s2 = traced.stats.clone();
        s1.duration = Default::default();
        s2.duration = Default::default();
        assert_eq!(s1, s2, "{what}: non-time stats differ under tracing");
        assert!(
            s2.rule_derived.total() > 0,
            "{what}: rule counters populated"
        );
        assert_eq!(
            s2.rule_derived.get("New") as usize,
            s2.rule_derived
                .nonzero()
                .find(|&(r, _)| r == "New")
                .unwrap()
                .1 as usize,
            "{what}: RuleCounts accessors agree"
        );

        let solves = dump.records.iter().filter(|r| r.name == "solver.solve");
        assert_eq!(solves.count(), 1, "{what}: one solve span");
    }
    // Keep RuleCounts' index table honest: every name round-trips.
    for (i, name) in ctxform::RULE_NAMES.iter().enumerate() {
        assert_eq!(RuleCounts::index_of(name), Some(i));
    }
    assert_eq!(RuleCounts::index_of("NoSuchRule"), None);
}
