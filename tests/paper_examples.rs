//! End-to-end checks of every worked example in the paper, through the
//! public API only.

use ctxform::{analyze, AnalysisConfig, AnalysisDb};
use ctxform_algebra::Sensitivity;
use ctxform_minijava::{compile, corpus};
use ctxform_vm::{run, VmConfig};

fn sens(label: &str) -> Sensitivity {
    label.parse().unwrap()
}

/// §2 / Figure 1: the call-site vs object-sensitivity precision table.
#[test]
fn figure1_precision_matrix() {
    let module = compile(corpus::FIG1).unwrap();
    let main = module.method_by_name("Main.main").unwrap();
    let var = |n: &str| module.var_by_name(main, n).unwrap();
    let h1 = module.heap_assigned_to(var("x")).unwrap();
    let h2 = module.heap_assigned_to(var("y")).unwrap();

    struct Expect {
        label: &'static str,
        x1_precise: bool,
        x2_precise: bool,
        z_empty: bool,
    }
    let expectations = [
        Expect {
            label: "1-call",
            x1_precise: true,
            x2_precise: false,
            z_empty: false,
        },
        Expect {
            label: "2-call",
            x1_precise: true,
            x2_precise: true,
            z_empty: false,
        },
        Expect {
            label: "1-object",
            x1_precise: false,
            x2_precise: true,
            z_empty: false,
        },
        Expect {
            label: "2-object+H",
            x1_precise: false,
            x2_precise: true,
            z_empty: true,
        },
    ];
    for e in expectations {
        for cstrings in [true, false] {
            let s = sens(e.label);
            let cfg = if cstrings {
                AnalysisConfig::context_strings(s)
            } else {
                AnalysisConfig::transformer_strings(s)
            };
            let r = analyze(&module.program, &cfg);
            let both = vec![h1, h2];
            let x1 = r.ci.points_to(var("x1"));
            let x2 = r.ci.points_to(var("x2"));
            assert_eq!(x1 == vec![h1], e.x1_precise, "{cfg}: x1={x1:?}");
            assert_eq!(x2 == vec![h1], e.x2_precise, "{cfg}: x2={x2:?}");
            if !e.x1_precise {
                assert_eq!(x1, both, "{cfg}");
            }
            let z = r.ci.points_to(var("z"));
            assert_eq!(z.is_empty(), e.z_empty, "{cfg}: z={z:?}");
        }
    }
}

/// Figure 1 under the VM: the dynamic truth the analyses approximate.
#[test]
fn figure1_dynamic_truth() {
    let module = compile(corpus::FIG1).unwrap();
    let vm = run(&module, &VmConfig::default());
    assert!(vm.outcome.is_complete());
    let main = module.method_by_name("Main.main").unwrap();
    let var = |n: &str| module.var_by_name(main, n).unwrap();
    let h1 = module.heap_assigned_to(var("x")).unwrap();
    let h2 = module.heap_assigned_to(var("y")).unwrap();
    // Dynamically x1 holds exactly h1, y2 exactly h2, z is null.
    assert!(vm.facts.pts.contains(&(var("x1"), h1)));
    assert!(!vm.facts.pts.contains(&(var("x1"), h2)));
    assert!(vm.facts.pts.contains(&(var("y2"), h2)));
    assert!(!vm.facts.pts.iter().any(|&(v, _)| v == var("z")));
}

/// Figure 5: exact fact counts for both abstractions at 1-call+H.
#[test]
fn figure5_table() {
    let module = compile(corpus::FIG5).unwrap();
    let s = sens("1-call+H");
    let count = |cfg: AnalysisConfig| {
        let r = analyze(&module.program, &cfg.with_recorded_facts());
        r.log
            .iter()
            .filter(|f| matches!(f.relation, "pts" | "call" | "reach"))
            .count()
    };
    assert_eq!(count(AnalysisConfig::context_strings(s)), 20);
    assert_eq!(count(AnalysisConfig::transformer_strings(s)), 12);
}

/// Figure 5's headline fact: `pts(r, h1, ε)` is a single transformer fact
/// where context strings enumerate four pairs.
#[test]
fn figure5_r_compression() {
    let module = compile(corpus::FIG5).unwrap();
    let m = module.method_by_name("T.m").unwrap();
    let r_var = module.var_by_name(m, "r").unwrap();
    let s = sens("1-call+H");
    let count_r = |cfg: AnalysisConfig| {
        let result = analyze(&module.program, &cfg.with_recorded_facts());
        result
            .log
            .iter()
            .filter(|f| f.text.starts_with("pts(r,"))
            .count()
    };
    assert_eq!(count_r(AnalysisConfig::context_strings(s)), 4);
    assert_eq!(count_r(AnalysisConfig::transformer_strings(s)), 1);
    let _ = r_var;
}

/// Figure 7: the subsuming-fact pair on `v`, counted by `subsumed_pts`.
#[test]
fn figure7_subsuming_pair() {
    let module = compile(corpus::FIG7).unwrap();
    let s = sens("1-call+H");
    let plain = analyze(
        &module.program,
        &AnalysisConfig::transformer_strings(s).with_recorded_facts(),
    );
    let v_facts: Vec<&str> = plain
        .log
        .iter()
        .filter(|f| f.text.starts_with("pts(v,"))
        .map(|f| f.text.as_str())
        .collect();
    assert_eq!(v_facts.len(), 2, "{v_facts:?}");
    assert!(v_facts.iter().any(|t| t.ends_with("ε)")), "{v_facts:?}");

    // ε subsumes c1·ĉ1; nothing else on any (var, heap) is redundant.
    let t = AnalysisDb::solve(
        module.program.clone(),
        &AnalysisConfig::transformer_strings(s),
    );
    assert_eq!(t.subsumed_pts(), 1);
    // Context strings subsume only by equality.
    let c = AnalysisDb::solve(module.program, &AnalysisConfig::context_strings(s));
    assert_eq!(c.subsumed_pts(), 0);
}

/// Fig. 6's `hpts` columns: identical sizes at h = 0 ("the relation is
/// context-insensitive").
#[test]
fn hpts_is_context_insensitive_without_heap_contexts() {
    for (name, src) in corpus::all() {
        let module = compile(src).unwrap();
        for label in ["1-call", "1-object"] {
            let s = sens(label);
            let c = analyze(&module.program, &AnalysisConfig::context_strings(s));
            let t = analyze(&module.program, &AnalysisConfig::transformer_strings(s));
            assert_eq!(c.stats.hpts, t.stats.hpts, "{name} {label}");
            assert_eq!(
                c.stats.hpts,
                c.ci.hpts.len(),
                "{name} {label}: one fact per CI triple"
            );
        }
    }
}
