//! Edit-script differential testing for incremental re-analysis.
//!
//! For seeded random programs and seeded additive edit scripts, the
//! incremental path (`AnalysisDb::solve` on the base revision, then
//! `extend` once per edit) must be *bit-identical* — same fact digest —
//! to solving every revision from scratch, across both context
//! abstractions and call-site and object sensitivity. Fact digests hash
//! every entity and context by program name, so they are independent of
//! interning order; a single from-scratch digest per revision serves as
//! the oracle for every incremental chain.
//!
//! Extensions must also be genuinely incremental: each `extend` may
//! re-derive strictly fewer facts than the from-scratch solve of the
//! same revision (the base revision's facts are already in the
//! database).

use ctxform::{AnalysisConfig, AnalysisDb, ExtendOutcome};
use ctxform_algebra::Sensitivity;
use ctxform_ir::Program;
use ctxform_minijava::compile;
use ctxform_synth::{edit_script, random_program, retract_edit_script};
use ctxform_testutil::{incremental_configs as configs, retraction_configs};

const SEEDS: u64 = 20;
const STEPS: usize = 3;

/// Compiles every revision of the seed's edit script.
fn revisions(seed: u64) -> Vec<Program> {
    let base = random_program(seed, 1);
    edit_script(&base, seed, STEPS)
        .iter()
        .map(|src| {
            compile(src)
                .unwrap_or_else(|e| panic!("seed {seed}: revision fails to compile: {e}"))
                .program
        })
        .collect()
}

#[test]
fn incremental_chains_are_bit_identical_to_scratch_solves() {
    for seed in 0..SEEDS {
        let programs = revisions(seed);
        for config in configs() {
            // From-scratch oracle per revision.
            let scratch: Vec<(u64, u64)> = programs
                .iter()
                .map(|p| {
                    let db = AnalysisDb::solve(p.clone(), &config);
                    (db.fact_digest(), db.result().stats.rule_derived.total())
                })
                .collect();
            let mut db = AnalysisDb::solve(programs[0].clone(), &config);
            for (step, next) in programs.iter().enumerate().skip(1) {
                let outcome = db.extend(next.clone());
                match &outcome {
                    ExtendOutcome::Incremental => {}
                    ExtendOutcome::Fallback(reason) => panic!(
                        "seed {seed} {config} step {step}: \
                         class append fell back to a from-scratch solve: {reason}"
                    ),
                    other => panic!(
                        "seed {seed} {config} step {step}: \
                         class append classified as {other:?}, expected Incremental"
                    ),
                }
                assert_eq!(
                    db.fact_digest(),
                    scratch[step].0,
                    "seed {seed} {config} step {step}: \
                     incremental digest diverges from the from-scratch solve"
                );
                let (_, scratch_derived) = scratch[step];
                let incr_derived = db.result().stats.rule_derived.total();
                assert!(
                    incr_derived < scratch_derived,
                    "seed {seed} {config} step {step}: \
                     extension re-derived {incr_derived} facts, not fewer than \
                     the from-scratch {scratch_derived}"
                );
            }
        }
    }
}

/// Deleting/mutating edit scripts must resume through the DRed
/// (delete-and-rederive) path — no from-scratch fallback — and stay
/// bit-identical to solving every shrunken revision from scratch, across
/// both abstractions and all five of the paper's sensitivities (three of
/// which keep heap contexts, so re-derived `hpts` facts carry them).
#[test]
fn retraction_chains_are_bit_identical_to_scratch_solves() {
    const RETRACT_SEEDS: u64 = 10;
    for seed in 0..RETRACT_SEEDS {
        let base = compile(&random_program(seed, 1))
            .unwrap_or_else(|e| panic!("seed {seed}: base fails to compile: {e}"))
            .program;
        let programs = retract_edit_script(&base, seed, STEPS, 10);
        for config in retraction_configs() {
            let scratch: Vec<u64> = programs
                .iter()
                .map(|p| AnalysisDb::solve(p.clone(), &config).fact_digest())
                .collect();
            let mut db = AnalysisDb::solve(programs[0].clone(), &config);
            for (step, next) in programs.iter().enumerate().skip(1) {
                let outcome = db.extend(next.clone());
                assert!(
                    matches!(outcome, ExtendOutcome::Retracted),
                    "seed {seed} {config} step {step}: \
                     deleting edit classified as {outcome:?}, expected Retracted"
                );
                assert_eq!(
                    db.fact_digest(),
                    scratch[step],
                    "seed {seed} {config} step {step}: \
                     DRed digest diverges from the from-scratch solve"
                );
                let stats = &db.result().stats;
                assert!(
                    stats.rederived <= stats.overdeleted,
                    "seed {seed} {config} step {step}: \
                     re-derived {} facts but only {} were over-deleted",
                    stats.rederived,
                    stats.overdeleted
                );
            }
        }
    }
}

/// A non-monotone edit (reversing the script) falls back and still
/// matches a from-scratch solve of the new revision.
#[test]
fn non_monotone_edits_fall_back_but_stay_correct() {
    let programs = revisions(2);
    let sensitivity: Sensitivity = "1-object".parse().unwrap();
    let config = AnalysisConfig::context_strings(sensitivity);
    let mut db = AnalysisDb::solve(programs[2].clone(), &config);
    let outcome = db.extend(programs[0].clone());
    assert!(
        matches!(outcome, ExtendOutcome::Fallback(_)),
        "removing classes is not additive and must fall back"
    );
    let scratch = AnalysisDb::solve(programs[0].clone(), &config);
    assert_eq!(
        db.fact_digest(),
        scratch.fact_digest(),
        "fallback result must equal a from-scratch solve"
    );
}
