//! Profiling must be result-neutral: enabling per-rule/per-phase timing
//! may not change a single derived fact — the clocks only ever feed the timing fields of `SolverStats`. Rule blocks
//! are sampled (one popped delta in `PROFILE_STRIDE`, chosen by event
//! index), so the sampled counts are deterministic too, and a
//! retractive update, which re-solves, is profiled as a fresh solve.

use ctxform::{
    analyze, AnalysisConfig, AnalysisDb, ExtendOutcome, RuleTimes, PROFILE_STRIDE, RULE_NAMES,
};
use ctxform_algebra::Sensitivity;
use ctxform_ir::Program;
use ctxform_minijava::compile;
use ctxform_synth::{generate, preset};

fn corpus_program(name: &str) -> Program {
    let cfg = preset(name).expect("preset exists").scale_driver(4);
    let src = generate(&cfg);
    compile(&src).expect("generated programs are valid").program
}

/// Sampled deltas behind a profile: every popped delta times exactly one
/// of the Assign (a `pts` delta), Reach (`call`), Ind (`hpts`/`hload`)
/// or SLoad (`reach`/`spts`) blocks.
fn sampled_deltas(times: &RuleTimes) -> u64 {
    ["Assign", "Reach", "Ind", "SLoad"]
        .iter()
        .map(|rule| times.count(rule))
        .sum::<u64>()
        / PROFILE_STRIDE
}

/// Event indices in `0..events` that are multiples of the stride.
fn multiples_of_stride(events: usize) -> u64 {
    (events as u64).div_ceil(PROFILE_STRIDE)
}

/// Corpus cell × both abstractions: runs with profiling enabled derive
/// bit-identical facts (projections, fact counts, rule counters) to plain
/// runs, and the profiled runs actually populate the rule-time and phase
/// accounting.
#[test]
fn profiling_is_result_neutral() {
    let program = corpus_program("luindex");
    let sensitivity: Sensitivity = "2-object+H".parse().unwrap();
    for config in [
        AnalysisConfig::context_strings(sensitivity),
        AnalysisConfig::transformer_strings(sensitivity),
    ] {
        let plain = analyze(&program, &config);
        let profiled = analyze(&program, &config.with_profiling());
        let again = analyze(&program, &config.with_profiling());

        let what = config.to_string();
        assert_eq!(plain.ci, profiled.ci, "{what}: projections differ");
        assert_eq!(
            plain.stats.rule_derived, profiled.stats.rule_derived,
            "{what}: rule counters differ under profiling"
        );
        assert_eq!(
            (plain.stats.pts, plain.stats.hpts, plain.stats.call),
            (profiled.stats.pts, profiled.stats.hpts, profiled.stats.call),
            "{what}: fact counts differ under profiling"
        );
        assert_eq!(
            plain.stats.memory, profiled.stats.memory,
            "{what}: footprint describes the database, not the run"
        );

        assert!(!plain.stats.profiled, "{what}: plain run is unprofiled");
        assert_eq!(
            plain.stats.rule_time.total_ns(),
            0,
            "{what}: unprofiled runs read no clocks"
        );
        assert!(profiled.stats.profiled, "{what}: profiled flag set");
        assert!(
            profiled.stats.rule_time.total_ns() > 0,
            "{what}: rule time collected"
        );
        assert!(
            profiled.stats.rule_time.count("New") > 0,
            "{what}: New blocks timed"
        );
        assert!(
            profiled.stats.phase_profile.eval_ns > 0,
            "{what}: eval phase timed"
        );
        // The histogram totals must agree with the block counts.
        for (rule, _, blocks) in profiled.stats.rule_time.nonzero() {
            let hist_total: u64 = profiled.stats.rule_time.buckets(rule).iter().sum();
            assert_eq!(hist_total, blocks, "{what}/{rule}: histogram sums to count");
        }
        // Sampling is deterministic: a second profiled run times the
        // same deltas, so every per-rule count matches.
        for rule in RULE_NAMES {
            assert_eq!(
                profiled.stats.rule_time.count(rule),
                again.stats.rule_time.count(rule),
                "{what}/{rule}: sampled counts differ between two runs"
            );
        }
        // Exactly one delta in PROFILE_STRIDE is timed, each with the
        // stride as its weight; the seed-time Entry block is exact.
        assert_eq!(profiled.stats.rule_time.count("Entry"), 1, "{what}");
        for (rule, _, blocks) in profiled.stats.rule_time.nonzero() {
            if rule != "Entry" {
                assert_eq!(blocks % PROFILE_STRIDE, 0, "{what}/{rule}: weighted");
            }
        }
        assert_eq!(
            sampled_deltas(&profiled.stats.rule_time),
            multiples_of_stride(profiled.stats.events),
            "{what}: one popped delta in PROFILE_STRIDE is sampled"
        );
        // Memory footprint is populated either way and covers the
        // big relations.
        assert!(
            plain.stats.memory.rel_pts > 0 && plain.stats.memory.ix_pts_by_var > 0,
            "{what}: byte accounting populated"
        );
        assert_eq!(
            plain.stats.memory.total(),
            plain.stats.memory.sections().map(|(_, _, b)| b).sum(),
            "{what}: sections sum to total"
        );
    }
}

/// A profiled retractive update re-solves: it derives the same database
/// as an unprofiled one and as a scratch solve, does the scratch solve's
/// work, times its seed and eval phases, and samples one popped delta in
/// `PROFILE_STRIDE` from the first, as a fresh solve does.
#[test]
fn profiled_retraction_is_result_neutral_and_profiled_as_a_solve() {
    let base = corpus_program("luindex");
    let mut edited = base.clone();
    edited.facts.store.clear();
    let sensitivity: Sensitivity = "2-object+H".parse().unwrap();
    let config = AnalysisConfig::transformer_strings(sensitivity);
    let what = config.to_string();
    let mut plain = AnalysisDb::solve(base.clone(), &config);
    let mut profiled = AnalysisDb::solve(base.clone(), &config.with_profiling());
    for db in [&mut plain, &mut profiled] {
        let outcome = db.extend(edited.clone());
        assert!(
            matches!(outcome, ExtendOutcome::Retracted),
            "{what}: dropping every store is a retraction, got {outcome:?}"
        );
    }
    let scratch = AnalysisDb::solve(edited, &config);
    assert_eq!(
        plain.fact_digest(),
        profiled.fact_digest(),
        "{what}: profiling changed the retracted database"
    );
    assert_eq!(plain.fact_digest(), scratch.fact_digest(), "{what}");
    let (plain, profiled) = (&plain.result().stats, &profiled.result().stats);
    assert_eq!(plain.phase_profile.total_ns(), 0, "{what}: no clocks read");
    assert_eq!(
        (plain.events, plain.rule_derived),
        (profiled.events, profiled.rule_derived),
        "{what}: profiling changed the work"
    );
    assert_eq!(
        plain.events,
        scratch.result().stats.events,
        "{what}: a retraction does a scratch solve's work"
    );
    let phases = profiled.phase_profile;
    assert!(
        phases.seed_ns > 0 && phases.eval_ns > 0,
        "{what}: phases timed"
    );
    assert_eq!(
        sampled_deltas(&profiled.rule_time),
        multiples_of_stride(profiled.events),
        "{what}: one popped delta in PROFILE_STRIDE is sampled"
    );
}
