//! Profiling must be result-neutral: enabling per-rule/per-round timing
//! may not change a single derived fact, at any thread count — the
//! clocks only ever feed the timing fields of `SolverStats`. Rule blocks
//! are sampled (one popped delta in `PROFILE_STRIDE`, chosen by event
//! index), so the sampled counts are deterministic too, and a DRed
//! update's over-delete pass is timed as its own `retract` phase.

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

/// Event indices in `lo..hi` that are multiples of the stride.
fn multiples_of_stride(lo: usize, hi: usize) -> u64 {
    (hi as u64).div_ceil(PROFILE_STRIDE) - (lo as u64).div_ceil(PROFILE_STRIDE)
}

/// Corpus cell × both abstractions × threads ∈ {1, 4}: runs with
/// profiling enabled derive bit-identical facts (projections, fact
/// counts, rule counters) to plain runs, and the profiled runs actually
/// populate the rule-time and phase accounting.
#[test]
fn profiling_is_result_neutral_across_thread_counts() {
    let program = corpus_program("luindex");
    let sensitivity: Sensitivity = "2-object+H".parse().unwrap();
    for base in [
        AnalysisConfig::context_strings(sensitivity),
        AnalysisConfig::transformer_strings(sensitivity),
    ] {
        for threads in [1usize, 4] {
            let config = base.with_threads(threads);
            let plain = analyze(&program, &config);
            let profiled = analyze(&program, &config.with_profiling());
            let again = analyze(&program, &config.with_profiling());

            let what = format!("{config}/threads={threads}");
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
                multiples_of_stride(0, profiled.stats.events),
                "{what}: one popped delta in PROFILE_STRIDE is sampled"
            );
            if threads > 1 {
                assert!(
                    !profiled.stats.round_profiles.is_empty(),
                    "{what}: parallel rounds itemized"
                );
                assert_eq!(
                    profiled.stats.round_profiles.len(),
                    profiled.stats.par_rounds.min(ctxform::MAX_ROUND_PROFILES),
                    "{what}: one profile per round (capped)"
                );
                assert!(
                    profiled.stats.phase_profile.merge_ns > 0,
                    "{what}: merge phase timed"
                );
            } else {
                assert!(
                    profiled.stats.round_profiles.is_empty(),
                    "{what}: legacy path has no rounds"
                );
            }
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
}

/// A profiled DRed update derives the same database as an unprofiled
/// one, times its over-delete pass as the `retract` phase, and samples
/// only the re-derive fixpoint's deltas into rule time: the mark sink's
/// drives (one per over-deleted fact, popped first) are never sampled.
#[test]
fn profiled_retraction_is_result_neutral_and_times_the_over_delete() {
    let base = corpus_program("luindex");
    let mut edited = base.clone();
    edited.facts.store.clear();
    let sensitivity: Sensitivity = "2-object+H".parse().unwrap();
    for threads in [1usize, 4] {
        let config = AnalysisConfig::transformer_strings(sensitivity).with_threads(threads);
        let what = format!("{config}/threads={threads}");
        let mut plain = AnalysisDb::solve(base.clone(), &config);
        let mut profiled = AnalysisDb::solve(base.clone(), &config.with_profiling());
        for db in [&mut plain, &mut profiled] {
            let outcome = db.extend(edited.clone());
            assert!(
                matches!(outcome, ExtendOutcome::Retracted),
                "{what}: dropping every store is a retraction, got {outcome:?}"
            );
        }
        assert_eq!(
            plain.fact_digest(),
            profiled.fact_digest(),
            "{what}: profiling changed the retracted database"
        );
        let (plain, profiled) = (&plain.result().stats, &profiled.result().stats);
        assert_eq!(plain.phase_profile.total_ns(), 0, "{what}: no clocks read");
        assert_eq!(
            (plain.events, plain.overdeleted, plain.rederived),
            (profiled.events, profiled.overdeleted, profiled.rederived),
            "{what}: profiling changed the DRed work"
        );
        assert!(profiled.overdeleted > 0, "{what}: the edit over-deletes");
        assert!(
            profiled.phase_profile.retract_ns > 0,
            "{what}: retract timed"
        );
        assert_eq!(
            sampled_deltas(&profiled.rule_time),
            multiples_of_stride(profiled.overdeleted as usize, profiled.events),
            "{what}: only re-derive deltas are sampled"
        );
    }
}
