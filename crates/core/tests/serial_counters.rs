//! Pins the serial engine's exact work counters.
//!
//! Digest-parity suites prove that a change to the rule drivers keeps
//! the *answers*; they say nothing about the *work* the solver does to
//! reach them. A driver refactor that, say, probes a join index twice
//! or composes before filtering would keep every digest and pass them
//! all. This suite pins the counters the serial engine is deterministic
//! in — events, join probes, compose calls and memo hits/misses,
//! interned contexts, and per-rule fired/derived counts — for the corpus
//! programs and a few seeded random programs under {cstring, tstring} ×
//! 2-object+H. A retractive `extend` re-solves, so its counters must
//! equal a scratch solve's of the edited program. It also checks that a
//! larger generated program's full non-time stats and its recorded fact
//! log reproduce exactly run-to-run.
//!
//! A deliberate change to the solver's work updates the golden rows
//! below; the failure message prints every actual row to copy from.

use ctxform::{analyze, AnalysisConfig, AnalysisDb, AnalysisResult, ExtendOutcome};
use ctxform_algebra::Sensitivity;
use ctxform_ir::Program;
use ctxform_minijava::{compile, corpus};
use ctxform_synth::{generate, preset, random_program, retract_edit_script};

/// `(name, program)` for every pinned program: the corpus, then seeded
/// random programs large enough to exercise every Fig. 3 rule.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = corpus::all()
        .into_iter()
        .map(|(name, src)| (name.to_string(), compile(src).expect(name).program))
        .collect();
    for seed in [3u64, 11] {
        let src = random_program(seed, 4);
        out.push((
            format!("random{seed}"),
            compile(&src).expect("random program compiles").program,
        ));
    }
    out
}

fn configs() -> [AnalysisConfig; 2] {
    let s: Sensitivity = "2-object+H".parse().unwrap();
    [
        AnalysisConfig::context_strings(s),
        AnalysisConfig::transformer_strings(s),
    ]
}

/// One line of exact counters for a solve.
fn row(name: &str, config: &AnalysisConfig, r: &AnalysisResult) -> String {
    let s = &r.stats;
    let rules = |counts: &ctxform::RuleCounts| {
        counts
            .nonzero()
            .map(|(rule, n)| format!("{rule}:{n}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{name} {abs} ev={} pr={} cc={} mh={} mm={} ic={} fired=[{}] derived=[{}]",
        s.events,
        s.probes,
        s.compose_calls,
        s.compose_memo_hits,
        s.compose_memo_misses,
        s.interned_contexts,
        rules(&s.rule_fired),
        rules(&s.rule_derived),
        abs = match config.abstraction {
            ctxform::AbstractionKind::ContextStrings => "cstring",
            _ => "tstring",
        },
    )
}

fn check(actual: &[String], golden: &[&str]) {
    if actual.len() != golden.len() || actual.iter().zip(golden).any(|(a, g)| a != g) {
        let rendered: String = actual.iter().map(|r| format!("        {r:?},\n")).collect();
        panic!("serial counters changed; actual rows:\n{rendered}");
    }
}

#[test]
fn serial_solves_do_exactly_the_pinned_work() {
    let mut actual = Vec::new();
    for (name, program) in programs() {
        for config in configs() {
            let db = AnalysisDb::solve(program.clone(), &config);
            actual.push(row(&name, &config, db.result()));
        }
    }
    check(&actual, SOLVE_GOLDEN);
}

#[test]
fn serial_retraction_does_exactly_a_scratch_solves_work() {
    let base = compile(&random_program(5, 2)).expect("compiles").program;
    let revisions = retract_edit_script(&base, 5, 1, 10);
    for config in configs() {
        let mut db = AnalysisDb::solve(revisions[0].clone(), &config);
        let outcome = db.extend(revisions[1].clone());
        assert!(matches!(outcome, ExtendOutcome::Retracted), "{outcome:?}");
        let scratch = AnalysisDb::solve(revisions[1].clone(), &config);
        assert_eq!(
            row("retract5", &config, db.result()),
            row("retract5", &config, scratch.result())
        );
    }
}

/// Compiles one synth preset at a test-friendly scale.
fn preset_program(name: &str) -> Program {
    let cfg = preset(name).expect("preset exists").scale_driver(4);
    compile(&generate(&cfg))
        .expect("generated programs are valid")
        .program
}

/// Every non-time stat, fact set and fact count reproduces exactly
/// run-to-run.
#[test]
fn serial_runs_are_deterministic() {
    let program = preset_program("antlr");
    let config = AnalysisConfig::transformer_strings("2-object+H".parse().unwrap());
    let first = analyze(&program, &config);
    let second = analyze(&program, &config);
    assert_eq!(
        first.ci, second.ci,
        "context-insensitive projections differ"
    );
    let mut s1 = first.stats.clone();
    let mut s2 = second.stats.clone();
    s1.duration = Default::default();
    s2.duration = Default::default();
    assert_eq!(s1, s2, "non-time stats must reproduce exactly");
}

/// The recorded fact log (every derived fact, in derivation order)
/// reproduces exactly run-to-run.
#[test]
fn recorded_logs_are_deterministic() {
    let program = preset_program("pmd");
    let config = AnalysisConfig::context_strings("1-call".parse().unwrap()).with_recorded_facts();
    let first = analyze(&program, &config);
    let second = analyze(&program, &config);
    assert!(!first.log.is_empty(), "facts were recorded");
    assert_eq!(first.log, second.log, "log must reproduce run-to-run");
}

const SOLVE_GOLDEN: &[&str] = &[
        "fig1 cstring ev=48 pr=31 cc=39 mh=28 mm=11 ic=8 fired=[Entry:1,New:7,Load:1,Store:1,Param:12,Ret:18,Virt:16,Reach:8] derived=[Entry:1,New:7,Load:1,Store:1,Param:6,Ret:10,Virt:15,Reach:7]",
        "fig1 tstring ev=47 pr=32 cc=40 mh=29 mm=11 ic=5 fired=[Entry:1,New:7,Load:1,Store:1,Param:12,Ret:19,Virt:16,Reach:8] derived=[Entry:1,New:6,Load:1,Store:1,Param:6,Ret:10,Virt:15,Reach:7]",
        "fig5 cstring ev=11 pr=7 cc=7 mh=6 mm=1 ic=2 fired=[Entry:1,New:1,Param:2,Ret:5,Static:3,Reach:3] derived=[Entry:1,New:1,Param:1,Ret:3,Static:3,Reach:2]",
        "fig5 tstring ev=11 pr=7 cc=7 mh=5 mm=2 ic=2 fired=[Entry:1,New:1,Param:2,Ret:5,Static:3,Reach:3] derived=[Entry:1,New:1,Param:1,Ret:3,Static:3,Reach:2]",
        "fig7 cstring ev=8 pr=3 cc=4 mh=1 mm=3 ic=4 fired=[Entry:1,New:2,Load:1,Store:1,Virt:2,Ind:2,Reach:1] derived=[Entry:1,New:2,Load:1,Store:1,Virt:2,Reach:1]",
        "fig7 tstring ev=9 pr=4 cc=5 mh=1 mm=4 ic=3 fired=[Entry:1,New:2,Load:1,Store:2,Virt:2,Ind:2,Reach:1] derived=[Entry:1,New:2,Load:1,Store:1,Virt:2,Ind:1,Reach:1]",
        "box cstring ev=27 pr=10 cc=14 mh=8 mm=6 ic=6 fired=[Entry:1,New:4,Load:2,Store:2,Param:2,Ret:2,Virt:8,Ind:4,Reach:4] derived=[Entry:1,New:4,Load:2,Store:2,Param:2,Ret:2,Virt:8,Ind:2,Reach:4]",
        "box tstring ev=27 pr=10 cc=14 mh=8 mm=6 ic=4 fired=[Entry:1,New:4,Load:2,Store:2,Param:2,Ret:2,Virt:8,Ind:4,Reach:4] derived=[Entry:1,New:4,Load:2,Store:2,Param:2,Ret:2,Virt:8,Ind:2,Reach:4]",
        "dispatch cstring ev=20 pr=3 cc=6 mh=0 mm=6 ic=8 fired=[Entry:1,New:7,Ret:3,Virt:6,Reach:3] derived=[Entry:1,New:7,Ret:3,Virt:6,Reach:3]",
        "dispatch tstring ev=19 pr=4 cc=7 mh=1 mm=6 ic=5 fired=[Entry:1,New:7,Ret:4,Virt:6,Reach:3] derived=[Entry:1,New:6,Ret:3,Virt:6,Reach:3]",
        "list cstring ev=25 pr=20 cc=20 mh=18 mm=2 ic=2 fired=[Entry:1,New:6,Assign:2,Load:6,Store:10,Ind:10] derived=[Entry:1,New:6,Assign:2,Load:6,Store:5,Ind:5]",
        "list tstring ev=25 pr=20 cc=20 mh=18 mm=2 ic=2 fired=[Entry:1,New:6,Assign:2,Load:6,Store:10,Ind:10] derived=[Entry:1,New:6,Assign:2,Load:6,Store:5,Ind:5]",
        "random3 cstring ev=2163 pr=1148 cc=1525 mh=1019 mm=506 ic=197 fired=[Entry:1,New:275,Assign:55,Load:115,Store:173,Param:367,Ret:390,Static:64,Virt:754,Ind:218,Reach:441] derived=[Entry:1,New:275,Assign:54,Load:115,Store:128,Param:177,Ret:326,Static:64,Virt:615,Ind:106,Reach:302]",
        "random3 tstring ev=1316 pr=577 cc=771 mh=432 mm=339 ic=109 fired=[Entry:1,New:243,Assign:36,Load:64,Store:114,Param:161,Ret:189,Static:64,Virt:388,Ind:113,Reach:258] derived=[Entry:1,New:120,Assign:35,Load:64,Store:95,Param:126,Ret:156,Static:64,Virt:360,Ind:65,Reach:230]",
        "random11 cstring ev=1499 pr=742 cc=965 mh=624 mm=341 ic=191 fired=[Entry:1,New:285,Assign:16,Load:89,Store:142,SLoad:1,SStore:1,Param:214,Ret:225,Static:35,Virt:446,Ind:161,Reach:258] derived=[Entry:1,New:285,Assign:15,Load:89,Store:108,SLoad:1,SStore:1,Param:119,Ret:173,Static:35,Virt:389,Ind:82,Reach:201]",
        "random11 tstring ev=1041 pr=488 cc=641 mh=396 mm=245 ic=93 fired=[Entry:1,New:274,Assign:11,Load:65,Store:113,SLoad:1,SStore:1,Param:114,Ret:135,Static:35,Virt:306,Ind:126,Reach:188] derived=[Entry:1,New:165,Assign:10,Load:65,Store:81,SLoad:1,SStore:1,Param:76,Ret:104,Static:35,Virt:276,Ind:68,Reach:158]",
];
