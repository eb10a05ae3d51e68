//! Hot-path parity: the §7 join specialization and the compose memo
//! table are pure engine optimizations, so every observable output
//! — the context-insensitive projections *and* the context-sensitive
//! fact counts — must be bit-for-bit identical with them on or off.

use ctxform::{analyze, AnalysisConfig, AnalysisResult};
use ctxform_ir::Program;
use ctxform_minijava::compile;
use ctxform_synth::{dacapo_like, generate, random_program};

/// The five Figure 6 sensitivity labels.
const CONFIGS: [&str; 5] = ["1-call", "1-call+H", "2-call", "1-object", "2-object+H"];

fn corpus(scale: usize) -> Vec<(&'static str, Program)> {
    dacapo_like()
        .into_iter()
        .map(|(name, cfg)| {
            let src = generate(&cfg.scale_driver(scale));
            (
                name,
                compile(&src).expect("synth programs are valid").program,
            )
        })
        .collect()
}

fn both_abstractions(label: &str) -> [AnalysisConfig; 2] {
    let s = label.parse().unwrap();
    [
        AnalysisConfig::context_strings(s),
        AnalysisConfig::transformer_strings(s),
    ]
}

/// Asserts two runs derived exactly the same facts: equal CI projections
/// and equal context-sensitive counts per relation.
fn assert_same_facts(what: &str, a: &AnalysisResult, b: &AnalysisResult) {
    assert_eq!(a.ci, b.ci, "{what}: context-insensitive facts differ");
    let counts = |r: &AnalysisResult| {
        let s = &r.stats;
        (s.pts, s.hpts, s.hload, s.call, s.spts, s.reach)
    };
    assert_eq!(
        counts(a),
        counts(b),
        "{what}: context-sensitive fact counts differ"
    );
}

#[test]
fn naive_and_specialized_joins_agree_on_synth_corpus() {
    for (name, program) in corpus(2) {
        for label in CONFIGS {
            for cfg in both_abstractions(label) {
                let spec = analyze(&program, &cfg);
                let naive = analyze(&program, &cfg.with_naive_joins());
                assert_same_facts(
                    &format!("{name} {cfg}: naive vs specialized"),
                    &spec,
                    &naive,
                );
            }
        }
    }
}

#[test]
fn memoization_is_invisible_on_synth_corpus() {
    for (name, program) in corpus(2) {
        for label in CONFIGS {
            for cfg in both_abstractions(label) {
                let on = analyze(&program, &cfg);
                let off = analyze(&program, &cfg.without_memoization());
                let what = format!("{name} {cfg}: memo on vs off");
                assert_same_facts(&what, &on, &off);
                // The same composes happen either way; only where the
                // answer comes from changes.
                assert_eq!(on.stats.compose_calls, off.stats.compose_calls, "{what}");
                assert_eq!(on.stats.compose_bottom, off.stats.compose_bottom, "{what}");
                assert_eq!(
                    on.stats.compose_memo_hits + on.stats.compose_memo_misses,
                    on.stats.compose_calls,
                    "{what}: every compose call is either a hit or a miss"
                );
                assert_eq!(off.stats.compose_memo_hits, 0, "{what}");
                assert_eq!(off.stats.compose_memo_misses, 0, "{what}");
            }
        }
    }
}

#[test]
fn memoized_compose_agrees_with_unmemoized_on_random_programs() {
    // Property-style sweep: on arbitrary programs, the memoized solver is
    // observationally identical to the unmemoized one.
    for seed in 0..15u64 {
        let src = random_program(seed, 2);
        let program = compile(&src).unwrap().program;
        for label in ["1-call+H", "2-object+H"] {
            for cfg in both_abstractions(label) {
                let on = analyze(&program, &cfg);
                let off = analyze(&program, &cfg.without_memoization());
                assert_same_facts(&format!("seed {seed} {cfg}"), &on, &off);
            }
        }
    }
}

#[test]
fn memo_counters_surface_in_stats_and_report() {
    // A call through an identity method composes the same pair of
    // transformations repeatedly, so the memo table must record hits.
    let src = r#"
        class A {
            Object id(Object p) { return p; }
        }
        class Main {
            public static void main(String[] args) {
                A a = new A();
                Object x = new Object();
                Object y = a.id(x);
                Object z = a.id(y);
            }
        }
    "#;
    let program = compile(src).unwrap().program;
    let cfg = AnalysisConfig::transformer_strings("2-object+H".parse().unwrap());

    let on = analyze(&program, &cfg);
    assert!(
        on.stats.compose_memo_hits > 0,
        "repeated composes must hit the memo table"
    );
    assert!(on.stats.compose_memo_misses > 0, "first composes must miss");
    assert!(on.stats.interned_contexts >= 1, "at least ε is interned");

    let report = on.stats.report();
    for needle in ["compose memo:", "interned ctxts:", "join probes:"] {
        assert!(
            report.contains(needle),
            "report is missing `{needle}`:\n{report}"
        );
    }
    assert!(
        report.contains(&format!(
            "compose memo:     {} hits / {} misses",
            on.stats.compose_memo_hits, on.stats.compose_memo_misses
        )),
        "report does not show the memo counters:\n{report}"
    );

    let off = analyze(&program, &cfg.without_memoization());
    assert_eq!(off.stats.compose_memo_hits, 0);
    assert_eq!(off.stats.compose_memo_misses, 0);
    assert_same_facts("identity-call program", &on, &off);
}
