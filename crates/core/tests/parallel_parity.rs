//! Thread-count parity: the frontier-parallel engine must derive exactly
//! the same facts as the legacy single-threaded loop for every corpus
//! program, sensitivity, and abstraction.
//!
//! The container this suite runs on may report a single available core,
//! so the thread counts are explicit (oversubscription changes nothing:
//! determinism comes from the ordered merge, not the schedule).

use ctxform::{analyze, AnalysisConfig, AnalysisResult};
use ctxform_algebra::Sensitivity;
use ctxform_ir::Program;
use ctxform_minijava::compile;
use ctxform_synth::{generate, preset, PRESET_NAMES};

/// Compiles one corpus preset at a test-friendly scale.
fn corpus_program(name: &str) -> Program {
    let cfg = preset(name).expect("preset exists").scale_driver(4);
    let src = generate(&cfg);
    compile(&src).expect("generated programs are valid").program
}

/// Asserts two results derived identical fact sets (and fact counts).
fn assert_same_facts(a: &AnalysisResult, b: &AnalysisResult, what: &str) {
    assert_eq!(a.ci, b.ci, "{what}: context-insensitive projections differ");
    assert_eq!(a.stats.pts, b.stats.pts, "{what}: pts counts differ");
    assert_eq!(a.stats.hpts, b.stats.hpts, "{what}: hpts counts differ");
    assert_eq!(a.stats.hload, b.stats.hload, "{what}: hload counts differ");
    assert_eq!(a.stats.call, b.stats.call, "{what}: call counts differ");
    assert_eq!(a.stats.spts, b.stats.spts, "{what}: spts counts differ");
    assert_eq!(a.stats.reach, b.stats.reach, "{what}: reach counts differ");
    assert_eq!(
        a.stats.interned_contexts, b.stats.interned_contexts,
        "{what}: interned context-string counts differ"
    );
    assert_eq!(
        a.stats.pts_configurations, b.stats.pts_configurations,
        "{what}: transformer-configuration histograms differ"
    );
}

/// Every corpus program × paper sensitivity × both abstractions: the
/// parallel engine at 2 and 4 threads matches the legacy engine exactly.
#[test]
fn corpus_parallel_matches_legacy_for_all_configs() {
    for name in PRESET_NAMES {
        let program = corpus_program(name);
        for sensitivity in Sensitivity::paper_configs() {
            for base in [
                AnalysisConfig::context_strings(sensitivity),
                AnalysisConfig::transformer_strings(sensitivity),
            ] {
                let serial = analyze(&program, &base.with_threads(1));
                assert_eq!(serial.stats.threads_used, 1);
                assert_eq!(serial.stats.par_rounds, 0, "legacy path has no rounds");
                for threads in [2, 4] {
                    let parallel = analyze(&program, &base.with_threads(threads));
                    assert_eq!(parallel.stats.threads_used, threads);
                    assert!(parallel.stats.par_rounds > 0, "parallel path counts rounds");
                    let what = format!("{name}/{base}/threads={threads}");
                    assert_same_facts(&serial, &parallel, &what);
                }
            }
        }
    }
}

/// The parallel engine is deterministic run-to-run at a fixed thread
/// count: full stats (minus wall-clock) and fact sets are reproduced,
/// including the memo-shard counters (chunk ownership is static).
#[test]
fn parallel_runs_are_deterministic() {
    let program = corpus_program("antlr");
    let sensitivity: Sensitivity = "2-object+H".parse().unwrap();
    let base = AnalysisConfig::transformer_strings(sensitivity).with_threads(4);
    let first = analyze(&program, &base);
    let second = analyze(&program, &base);
    assert_same_facts(&first, &second, "antlr repeat");
    let mut s1 = first.stats.clone();
    let mut s2 = second.stats.clone();
    s1.duration = Default::default();
    s2.duration = Default::default();
    assert_eq!(s1, s2, "non-time stats must reproduce exactly");
}

/// The recorded fact log is deterministic for a fixed thread count, and
/// its multiset of (relation, count) entries matches the legacy engine
/// (the orders legitimately differ: LIFO deltas vs. FIFO rounds).
#[test]
fn recorded_logs_are_deterministic_and_count_equal() {
    let program = corpus_program("pmd");
    let sensitivity: Sensitivity = "1-call".parse().unwrap();
    let base = AnalysisConfig::context_strings(sensitivity).with_recorded_facts();
    let serial = analyze(&program, &base.with_threads(1));
    let par_a = analyze(&program, &base.with_threads(3));
    let par_b = analyze(&program, &base.with_threads(3));
    assert_eq!(par_a.log, par_b.log, "log must reproduce run-to-run");
    assert_eq!(
        serial.log_counts(),
        par_a.log_counts(),
        "per-relation log volumes must match the legacy engine"
    );
}
