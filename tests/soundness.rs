//! Soundness (Theorem 6.1, dynamically checked): every fact observed by
//! concretely executing a program must appear in every analysis result,
//! for every abstraction, flavour, and level.

use ctxform::{analyze, AnalysisConfig, AnalysisDb, AnalysisResult};
use ctxform_algebra::Sensitivity;
use ctxform_minijava::{compile, corpus, Module};
use ctxform_synth::{edit_script, random_program, retract_edit_script};
use ctxform_vm::{run, DynFacts, VmConfig};

fn all_configs() -> Vec<AnalysisConfig> {
    let mut configs = vec![AnalysisConfig::insensitive()];
    for s in Sensitivity::paper_configs() {
        configs.push(AnalysisConfig::context_strings(s));
        configs.push(AnalysisConfig::transformer_strings(s));
    }
    // Configurations beyond the paper's evaluated set: deeper call
    // strings and the hybrid object flavour (citation [6]).
    for label in ["3-call+2H", "2-hybrid+H"] {
        let extra: Sensitivity = label.parse().unwrap();
        configs.push(AnalysisConfig::context_strings(extra));
        configs.push(AnalysisConfig::transformer_strings(extra));
    }
    configs
}

fn assert_sound(name: &str, module: &Module, dynamic: &DynFacts, result: &AnalysisResult) {
    let cfg = &result.config;
    for &(v, h) in &dynamic.pts {
        assert!(
            result.ci.pts.contains(&(v, h)),
            "{name} {cfg}: dynamic pts({}, {}) missing",
            module.program.var_names[v.index()],
            module.program.heap_names[h.index()],
        );
    }
    for &(g, f, h) in &dynamic.hpts {
        assert!(
            result.ci.hpts.contains(&(g, f, h)),
            "{name} {cfg}: dynamic hpts({}, {}, {}) missing",
            module.program.heap_names[g.index()],
            module.program.field_names[f.index()],
            module.program.heap_names[h.index()],
        );
    }
    for &(i, q) in &dynamic.call {
        assert!(
            result.ci.call.contains(&(i, q)),
            "{name} {cfg}: dynamic call({}, {}) missing",
            module.program.inv_names[i.index()],
            module.program.method_names[q.index()],
        );
    }
    for &m in &dynamic.reached {
        assert!(
            result.ci.reach.contains(&m),
            "{name} {cfg}: dynamically reached {} missing",
            module.program.method_names[m.index()],
        );
    }
}

fn check_program(name: &str, source: &str) {
    let module = compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let vm = run(&module, &VmConfig::default());
    assert!(
        !vm.facts.reached.is_empty(),
        "{name}: execution should reach at least main ({:?})",
        vm.outcome
    );
    for config in all_configs() {
        let result = analyze(&module.program, &config);
        assert_sound(name, &module, &vm.facts, &result);
    }
}

#[test]
fn corpus_programs_are_analyzed_soundly() {
    for (name, src) in corpus::all() {
        check_program(name, src);
    }
}

#[test]
fn random_programs_are_analyzed_soundly() {
    for seed in 0..25u64 {
        let size = 1 + (seed as usize % 3);
        let src = random_program(seed, size);
        check_program(&format!("random#{seed}"), &src);
    }
}

/// Soundness must survive edits: after each additive edit-script step,
/// the *incrementally extended* database must still cover every fact the
/// VM observes executing the edited revision. This checks the resumed
/// frontier, not a fresh solve — each revision's result comes from
/// `AnalysisDb::extend` on the previous revision's database.
#[test]
fn incrementally_extended_databases_stay_sound_under_edits() {
    let sensitivities: [Sensitivity; 2] = ["1-call".parse().unwrap(), "1-object".parse().unwrap()];
    for seed in [3u64, 11, 17] {
        let base = random_program(seed, 1);
        let sources = edit_script(&base, seed, 2);
        let modules: Vec<Module> = sources
            .iter()
            .map(|src| compile(src).unwrap_or_else(|e| panic!("edited#{seed}: {e}")))
            .collect();
        for (flavour, config) in [
            AnalysisConfig::transformer_strings(sensitivities[0]),
            AnalysisConfig::context_strings(sensitivities[1]),
        ]
        .into_iter()
        .enumerate()
        {
            let mut db = AnalysisDb::solve(modules[0].program.clone(), &config);
            for (step, module) in modules.iter().enumerate() {
                if step > 0 {
                    let outcome = db.extend(module.program.clone());
                    assert!(
                        outcome.is_incremental(),
                        "edited#{seed} step {step}: class append must extend incrementally"
                    );
                }
                let vm = run(module, &VmConfig::default());
                assert!(
                    !vm.facts.reached.is_empty(),
                    "edited#{seed} step {step}: execution should reach at least main"
                );
                let name = format!("edited#{seed}/flavour{flavour}/step{step}");
                assert_sound(&name, module, &vm.facts, db.result());
            }
        }
    }
}

/// Soundness must survive retractions: drive a database through a DRed
/// deletion chain, then restore the full program with a final additive
/// extension, and check the result against a concrete execution of the
/// full module. The VM interprets instruction streams, so only the full
/// program has an executable oracle — but the restored database carries
/// every index, frontier, and memo the retraction chain rebuilt, which
/// is exactly the state this test needs to vouch for.
#[test]
fn retracted_databases_stay_sound_after_restoration() {
    use ctxform::ExtendOutcome;
    for seed in [5u64, 13, 19] {
        let src = random_program(seed, 1);
        let module = compile(&src).unwrap_or_else(|e| panic!("retracted#{seed}: {e}"));
        let programs = retract_edit_script(&module.program, seed, 2, 10);
        let vm = run(&module, &VmConfig::default());
        assert!(
            !vm.facts.reached.is_empty(),
            "retracted#{seed}: execution should reach at least main"
        );
        for (flavour, config) in [
            AnalysisConfig::transformer_strings("1-call".parse().unwrap()),
            AnalysisConfig::context_strings("1-object".parse().unwrap()),
        ]
        .into_iter()
        .enumerate()
        {
            let mut db = AnalysisDb::solve(module.program.clone(), &config);
            for (step, next) in programs.iter().enumerate().skip(1) {
                let outcome = db.extend(next.clone());
                assert!(
                    matches!(outcome, ExtendOutcome::Retracted),
                    "retracted#{seed}/flavour{flavour} step {step}: deleting edit \
                     classified as {outcome:?}, expected Retracted"
                );
            }
            // Restore every removed tuple: each revision's facts are a
            // subset of the base's, so this diffs additive (or no-op).
            let outcome = db.extend(module.program.clone());
            assert!(
                outcome.is_incremental(),
                "retracted#{seed}/flavour{flavour}: restoring the base program \
                 must extend incrementally, got {outcome:?}"
            );
            let name = format!("retracted#{seed}/flavour{flavour}");
            assert_sound(&name, &module, &vm.facts, db.result());
        }
    }
}

#[test]
fn truncated_executions_are_still_covered() {
    // Even when the VM stops early (step budget), the collected prefix
    // facts must be covered.
    let src = random_program(99, 3);
    let module = compile(&src).unwrap();
    let vm = run(
        &module,
        &VmConfig {
            max_steps: 40,
            ..VmConfig::default()
        },
    );
    let result = analyze(
        &module.program,
        &AnalysisConfig::transformer_strings("1-object".parse().unwrap()),
    );
    assert_sound("truncated", &module, &vm.facts, &result);
}
