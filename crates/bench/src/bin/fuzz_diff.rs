//! Differential fuzzer for the solver engines.
//!
//! ```text
//! cargo run --release -p ctxform-bench --bin fuzz_diff -- \
//!     [--iters N] [--seed S] [--repro-dir PATH]
//! ```
//!
//! Each iteration draws a seeded `ctxform_synth` program and holds it to
//! two independent oracles:
//!
//! 1. **Datalog baseline** — the context-insensitive solve must derive
//!    exactly the relations the generic Datalog engine derives from
//!    [`ctxform::CI_RULES`].
//! 2. **From-scratch solve** — across the shared retraction matrix
//!    ([`ctxform_testutil::retraction_configs`]: {cstring, tstring} ×
//!    the paper's five sensitivities, three of them with heap contexts),
//!    the solved base revision is updated through
//!    `AnalysisDb::extend`, and after each update its
//!    `AnalysisDb::fact_digest` (the multiset digest of the
//!    context-sensitive facts, hashed by name) must equal the
//!    from-scratch solve's:
//!    * **extend parity** — one seeded additive edit reaches the scratch
//!      digest of the edited revision;
//!    * **retract parity** — one seeded deleting edit of that revision
//!      (re-solved) reaches the scratch digest of the shrunken revision.
//!
//! On the first violated property the harness writes a reproducer to
//! `ctxform-fuzz-repro/1` — a JSON object (schema `ctxform-fuzz-repro/4`)
//! with the seed, iteration, config, both digests, up to
//! five facts from each side of the symmetric difference of the two
//! databases' `AnalysisDb::rendered_facts` listings (`only_expected`,
//! `only_actual`; empty for a Datalog-baseline violation), and the
//! replay command (`fuzz_diff --iters 1 --seed <seed>`) — and exits
//! nonzero. CI uploads that file as an artifact on failure.

use ctxform::{datalog_baseline, AnalysisConfig, AnalysisDb, CiFacts, ExtendOutcome};
use ctxform_hash::fx_hash_one;
use ctxform_minijava::compile;
use ctxform_obs::logger;
use ctxform_server::json::{hex16, Json};
use ctxform_synth::{edit_script, random_program, retract_edit_script};
use ctxform_testutil::retraction_configs;

/// One differential violation, with everything needed to replay it.
struct Violation {
    seed: u64,
    iter: usize,
    config: AnalysisConfig,
    property: &'static str,
    expected: u64,
    actual: u64,
    /// Facts only the expected (oracle) database holds.
    only_expected: Vec<String>,
    /// Facts only the actual database holds.
    only_actual: Vec<String>,
}

/// How many facts of each side of a digest mismatch a reproducer lists.
const FACT_DIFF_LIMIT: usize = 5;

/// Up to [`FACT_DIFF_LIMIT`] facts from each side of the symmetric
/// difference of two databases' rendered listings: (only in `expected`,
/// only in `actual`).
fn fact_diff(expected: &AnalysisDb, actual: &AnalysisDb) -> (Vec<String>, Vec<String>) {
    let (e, a) = (expected.rendered_facts(), actual.rendered_facts());
    // Both listings are sorted, so membership is a binary search.
    let only = |x: &[String], y: &[String]| {
        x.iter()
            .filter(|f| y.binary_search(f).is_err())
            .take(FACT_DIFF_LIMIT)
            .cloned()
            .collect()
    };
    (only(&e, &a), only(&a, &e))
}

impl Violation {
    /// Attaches the facts that tell `expected` and `actual` apart.
    fn with_fact_diff(mut self, expected: &AnalysisDb, actual: &AnalysisDb) -> Self {
        (self.only_expected, self.only_actual) = fact_diff(expected, actual);
        self
    }

    fn to_json(&self, iters: usize) -> Json {
        let facts = |facts: &[String]| facts.iter().map(|f| Json::str(f.as_str())).collect();
        Json::obj([
            ("schema", Json::str("ctxform-fuzz-repro/4")),
            ("seed", Json::uint(self.seed)),
            ("iter", Json::int(self.iter)),
            ("iters", Json::int(iters)),
            ("config", Json::Str(self.config.to_string())),
            ("property", Json::str(self.property)),
            ("expected_digest", Json::Str(hex16(self.expected))),
            ("actual_digest", Json::Str(hex16(self.actual))),
            ("only_expected", Json::Arr(facts(&self.only_expected))),
            ("only_actual", Json::Arr(facts(&self.only_actual))),
            (
                "replay",
                Json::Str(format!(
                    "cargo run --release -p ctxform-bench --bin fuzz_diff -- \
                     --iters 1 --seed {}",
                    self.seed
                )),
            ),
        ])
    }
}

/// Order-independent digest of the relations the Datalog baseline
/// derives (it has no static-field rules, so `spts` is left out).
fn baseline_digest(ci: &CiFacts) -> u64 {
    fn sorted<T: Ord + Copy>(set: impl IntoIterator<Item = T>) -> Vec<T> {
        let mut items: Vec<T> = set.into_iter().collect();
        items.sort_unstable();
        items
    }
    fx_hash_one(&[
        fx_hash_one(&sorted(ci.pts.iter().copied())),
        fx_hash_one(&sorted(ci.hpts.iter().copied())),
        fx_hash_one(&sorted(ci.call.iter().copied())),
        fx_hash_one(&sorted(ci.reach.iter().copied())),
    ])
}

/// Runs every differential property for one seed; returns the first
/// violation, if any.
fn check_seed(seed: u64, iter: usize) -> Option<Violation> {
    let source = random_program(seed, 1);
    // Revision 0 is the base, revision 1 one additive edit of it, and
    // revision 2 one deleting edit of revision 1.
    let mut programs: Vec<_> = edit_script(&source, seed, 1)
        .iter()
        .map(|src| {
            compile(src)
                .unwrap_or_else(|e| panic!("seed {seed}: revision fails to compile: {e}"))
                .program
        })
        .collect();
    let retracted = retract_edit_script(&programs[1], seed, 1, 10).swap_remove(1);
    programs.push(retracted);
    let violation = |config, property, expected, actual| Violation {
        seed,
        iter,
        config,
        property,
        expected,
        actual,
        only_expected: Vec::new(),
        only_actual: Vec::new(),
    };

    let insensitive = AnalysisConfig::insensitive();
    for program in &programs {
        let solved = AnalysisDb::solve(program.clone(), &insensitive);
        let (expected, actual) = (
            baseline_digest(&datalog_baseline(program)),
            baseline_digest(&solved.result().ci),
        );
        if expected != actual {
            return Some(violation(insensitive, "datalog baseline", expected, actual));
        }
    }

    for config in retraction_configs() {
        let check = |db: &AnalysisDb, property, rev: usize| {
            let expected = AnalysisDb::solve(programs[rev].clone(), &config);
            (db.fact_digest() != expected.fact_digest()).then(|| {
                violation(config, property, expected.fact_digest(), db.fact_digest())
                    .with_fact_diff(&expected, db)
            })
        };
        let mut db = AnalysisDb::solve(programs[0].clone(), &config);
        let outcome = db.extend(programs[1].clone());
        assert!(
            matches!(outcome, ExtendOutcome::Incremental),
            "seed {seed} {config}: additive fuzz edit did not extend incrementally: {outcome:?}"
        );
        if let Some(v) = check(&db, "extend parity", 1) {
            return Some(v);
        }
        let outcome = db.extend(programs[2].clone());
        assert!(
            matches!(outcome, ExtendOutcome::Retracted),
            "seed {seed} {config}: deleting fuzz edit did not retract: {outcome:?}"
        );
        if let Some(v) = check(&db, "retract parity", 2) {
            return Some(v);
        }
    }
    None
}

fn main() {
    let mut iters = 25usize;
    let mut seed0 = 0u64;
    let mut repro_dir = "ctxform-fuzz-repro".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--iters needs a positive integer");
            }
            "--seed" => {
                seed0 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an unsigned integer");
            }
            "--repro-dir" => repro_dir = args.next().expect("--repro-dir needs a path"),
            "--help" | "-h" => {
                eprintln!("usage: fuzz_diff [--iters N] [--seed S] [--repro-dir PATH]");
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    for iter in 0..iters {
        let seed = seed0.wrapping_add(iter as u64);
        if let Some(v) = check_seed(seed, iter) {
            let path = format!("{repro_dir}/1");
            std::fs::create_dir_all(&repro_dir)
                .unwrap_or_else(|e| panic!("cannot create {repro_dir}: {e}"));
            std::fs::write(&path, v.to_json(iters).to_pretty())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            logger::error(
                "fuzz_diff",
                format!(
                    "seed {seed} ({}) violated {}: \
                     expected {} got {} (only expected: {:?}; only actual: {:?}); \
                     reproducer written to {path}",
                    v.config,
                    v.property,
                    hex16(v.expected),
                    hex16(v.actual),
                    v.only_expected,
                    v.only_actual
                ),
            );
            std::process::exit(1);
        }
        if (iter + 1) % 5 == 0 || iter + 1 == iters {
            logger::info("fuzz_diff", format!("{}/{iters} seeds clean", iter + 1));
        }
    }
    logger::info(
        "fuzz_diff",
        format!(
            "all {iters} seeds clean: datalog baseline + {} configs",
            retraction_configs().len(),
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxform_minijava::corpus;

    #[test]
    fn fact_diff_lists_at_most_five_facts_per_side() {
        let config = AnalysisConfig::transformer_strings("1-call".parse().unwrap());
        let base = compile(corpus::BOX).unwrap().program;
        let edited = compile(&format!(
            "{}\nclass Extra {{ public static void main(String[] args) {{ \
             Object a = new Object(); Object b = a; Object c = b; Object d = c; Object e = d; }} }}",
            corpus::BOX
        ))
        .unwrap()
        .program;
        let (base, edited) = (
            AnalysisDb::solve(base, &config),
            AnalysisDb::solve(edited, &config),
        );
        assert_eq!(fact_diff(&base, &base), (vec![], vec![]));
        // The edit only adds facts: five `pts` and one `reach`, and the
        // limit keeps five of the six.
        let (only_base, only_edited) = fact_diff(&base, &edited);
        assert!(only_base.is_empty(), "{only_base:?}");
        assert_eq!(only_edited.len(), FACT_DIFF_LIMIT, "{only_edited:?}");
        let listing = edited.rendered_facts();
        assert!(only_edited.iter().all(|f| listing.contains(f)));
        let (only_edited, only_base) = fact_diff(&edited, &base);
        assert!(only_base.is_empty());
        assert_eq!(only_edited.len(), FACT_DIFF_LIMIT);
    }
}
