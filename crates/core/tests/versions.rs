//! Version isolation for databases that share their join buckets.
//!
//! An `AnalysisDb` freezes its join buckets when a solve or an extension
//! ends, and a version `extended` from it starts out sharing every one
//! of them; a version copies a bucket before its first write to it. So
//! two sibling versions of one base, and a version extended from a
//! version, each must describe exactly their own program — the fact
//! digest and the rendered facts of a from-scratch solve — and the base
//! must come out of all of them as it went in.
//!
//! Seeded random programs and `append_edit` class appends, under the
//! insensitive analysis, context strings and transformer strings, each
//! with specialized and naive joins.

use ctxform::{AnalysisConfig, AnalysisDb, ExtendOutcome};
use ctxform_ir::Program;
use ctxform_minijava::compile;
use ctxform_synth::{append_edit, random_program};
use ctxform_testutil::config_matrix;

const SEEDS: u64 = 8;

fn configs() -> Vec<AnalysisConfig> {
    let mut configs = vec![AnalysisConfig::insensitive()];
    configs.extend(config_matrix(&["1-call+H", "2-object+H"]));
    let naive: Vec<AnalysisConfig> = configs.iter().map(|c| c.with_naive_joins()).collect();
    configs.extend(naive);
    configs
}

fn program(source: &str, what: &str) -> Program {
    compile(source)
        .unwrap_or_else(|e| panic!("{what}: does not compile: {e}"))
        .program
}

/// Everything a reader of a database can observe.
#[derive(Debug, PartialEq)]
struct Observed {
    digest: u64,
    facts: Vec<String>,
    stats: ctxform::SolverStats,
    ci: ctxform::CiFacts,
}

fn observe(db: &AnalysisDb) -> Observed {
    Observed {
        digest: db.fact_digest(),
        facts: db.rendered_facts(),
        stats: db.result().stats.clone(),
        ci: db.result().ci.clone(),
    }
}

/// `version` describes `program` exactly as a from-scratch solve does.
fn assert_matches_scratch(version: &AnalysisDb, program: &Program, what: &str) {
    let scratch = AnalysisDb::solve(program.clone(), version.config());
    assert_eq!(
        version.fact_digest(),
        scratch.fact_digest(),
        "{what}: digest"
    );
    assert_eq!(
        version.rendered_facts(),
        scratch.rendered_facts(),
        "{what}: rendered facts"
    );
    assert_eq!(version.result().ci, scratch.result().ci, "{what}: ci");
}

#[test]
fn sibling_and_chained_versions_match_scratch_and_leave_the_base_alone() {
    for seed in 0..SEEDS {
        let source = random_program(seed, 1);
        // Two different appends to the same base (one class, and two
        // classes from another seed), and a second append on top of the
        // first.
        let left_src = append_edit(&source, seed, 0);
        let right_src = append_edit(&append_edit(&source, seed + SEEDS, 0), seed + SEEDS, 1);
        let chained_src = append_edit(&left_src, seed, 1);
        let base = program(&source, "base");
        let left = program(&left_src, "left");
        let right = program(&right_src, "right");
        let chained = program(&chained_src, "chained");
        for config in configs() {
            let what = format!("seed {seed} {config}");
            let db = AnalysisDb::solve(base.clone(), &config);
            let before = observe(&db);

            let (left_db, outcome) = db.extended(left.clone());
            assert_eq!(outcome, ExtendOutcome::Incremental, "{what}: left");
            let (right_db, outcome) = db.extended(right.clone());
            assert_eq!(outcome, ExtendOutcome::Incremental, "{what}: right");
            let (chained_db, outcome) = left_db.extended(chained.clone());
            assert_eq!(outcome, ExtendOutcome::Incremental, "{what}: chained");

            assert_matches_scratch(&left_db, &left, &format!("{what}: left"));
            assert_matches_scratch(&right_db, &right, &format!("{what}: right"));
            assert_matches_scratch(&chained_db, &chained, &format!("{what}: chained"));
            assert_eq!(observe(&db), before, "{what}: the base changed");

            // The base's buckets are read only by a later extension: one
            // more version from it, extended in place from a clone, must
            // still match its scratch solve and leave the base alone.
            let mut again = db.clone();
            assert_eq!(again.extend(right.clone()), ExtendOutcome::Incremental);
            assert_matches_scratch(&again, &right, &format!("{what}: right again"));
            assert_eq!(
                observe(&db),
                before,
                "{what}: the in-place copy changed the base"
            );
        }
    }
}
