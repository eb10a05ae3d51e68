//! Bench-regression harness: runs the Figure 6 matrix at a fixed scale and
//! writes a machine-readable `BENCH_<n>.json` trajectory point.
//!
//! ```text
//! cargo run --release -p ctxform-bench --bin regress -- \
//!     [--scale N] [--repeat N] [--bench NAME] [--out PATH] \
//!     [--trace-json PATH] [--profile-folded PATH] [--check BENCH_n.json]
//! ```
//!
//! `--check BENCH_n.json` re-runs the baseline's matrix at the baseline's
//! scale and compares every non-time value of each cell both runs share
//! (digests, fact counts, event/probe/compose/interned-context counters,
//! per-rule counts; keys ending in
//! `_ms` and `speedup` are wall time and are skipped). It prints each
//! differing value as `cell key: old → new` and exits 1 if there is any.
//! Values only the new run has (a newer schema's) are not compared. It
//! writes a trajectory point only when `--out` is given.
//!
//! `--profile-folded PATH` runs the `cstring`/`tstring` cells with solver
//! profiling enabled and writes the aggregated per-rule/per-phase wall
//! time as folded-stack text (one `frame;frame <ns>` line per stack),
//! ready for `flamegraph.pl` or `inferno-flamegraph`. Rule times are
//! sampled (one popped delta in `ctxform::PROFILE_STRIDE`, weighted by
//! the stride), phase times exact. Profiling never changes answers — the
//! digest assertions below hold either way.
//!
//! Each run records, per benchmark and per Figure 6 configuration, for both
//! abstractions, an incremental re-analysis cell (`tstring_incr`: a single additive
//! driver-class edit is applied to the benchmark source and the edited
//! program is solved twice — once by `AnalysisDb::extend` over the base
//! program's cached database and once from scratch — recording both times,
//! the speedup, and the derivation counts, after asserting the two fact
//! digests are bit-identical and the extension re-derived strictly fewer
//! facts; the update's event, probe and compose counters are recorded
//! too), and a demand-driven
//! query cell (`tstring_demand`: a cold
//! `pts(v0, ·)` query, which builds the program's demand index, is timed
//! against a full solve followed by a lookup, and a warm `pts(v1, ·)`
//! query on the same index is timed as `query_warm_ms`, after asserting both
//! demanded answers are byte-identical and the gated solve derived no
//! more facts than the exhaustive one):
//! context-sensitive fact counts, solver wall time, the
//! probe/compose/memo counters from [`ctxform::SolverStats`], the interner
//! size, and an order-independent Fx digest of the context-insensitive
//! facts (so two runs can be compared for byte-identical CI results
//! without storing the facts themselves). With `--repeat N` (default 3)
//! each cell is solved `N` times and the fastest run is recorded —
//! min-of-N is the noise-robust estimator on a shared machine — after
//! asserting that every repeat produced the same CI digest and fact
//! counts.
//!
//! Without `--out`, the file is named `BENCH_<n>.json` where `n` is one
//! more than the largest existing trajectory point in the current
//! directory — so successive PRs append `BENCH_1.json`, `BENCH_2.json`, …
//! and any later run can diff against the checked-in history.

use std::time::{Duration, Instant};

use ctxform::{analyze, AnalysisConfig, AnalysisDb, AnalysisResult, ExtendOutcome};
use ctxform_algebra::Sensitivity;
use ctxform_bench::benchmark_source;
use ctxform_hash::fx_hash_one;
use ctxform_minijava::compile;
use ctxform_obs::logger;
use ctxform_server::json::{hex16, Json};
use ctxform_synth::{append_edit, dacapo_like};

/// Serializes one analysis run as a JSON object.
fn run_json(r: &AnalysisResult) -> Json {
    let s = &r.stats;
    Json::obj([
        ("pts", Json::int(s.pts)),
        ("hpts", Json::int(s.hpts)),
        ("hload", Json::int(s.hload)),
        ("call", Json::int(s.call)),
        ("spts", Json::int(s.spts)),
        ("reach", Json::int(s.reach)),
        ("total", Json::int(s.total())),
        ("time_ms", Json::ms(s.duration.as_secs_f64() * 1000.0)),
        ("events", Json::int(s.events)),
        ("probes", Json::uint(s.probes)),
        ("compose_calls", Json::uint(s.compose_calls)),
        ("compose_bottom", Json::uint(s.compose_bottom)),
        ("compose_memo_hits", Json::uint(s.compose_memo_hits)),
        ("compose_memo_misses", Json::uint(s.compose_memo_misses)),
        ("interned_contexts", Json::int(s.interned_contexts)),
        // Per-Fig.-3-rule firing/derivation counts (zero rows omitted):
        // `fired` counts insertion attempts, `derived` new facts.
        (
            "rules",
            Json::Obj(
                s.rule_fired
                    .iter()
                    .zip(s.rule_derived.iter())
                    .filter(|((_, fired), (_, derived))| *fired > 0 || *derived > 0)
                    .map(|((rule, fired), (_, derived))| {
                        (
                            rule.to_owned(),
                            Json::obj([
                                ("fired", Json::uint(fired)),
                                ("derived", Json::uint(derived)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "ci",
            Json::obj([
                ("pts", Json::int(r.ci.pts.len())),
                ("hpts", Json::int(r.ci.hpts.len())),
                ("call", Json::int(r.ci.call.len())),
                ("spts", Json::int(r.ci.spts.len())),
                ("reach", Json::int(r.ci.reach.len())),
            ]),
        ),
        ("ci_digest", Json::Str(hex16(r.ci.digest()))),
    ])
}

/// Runs `run`, which times itself, `repeat` times (at least once) and
/// keeps the fastest result; `same` holds each later result to the
/// fastest so far (a nondeterminism bug the harness must not average
/// away).
fn fastest<T>(
    repeat: usize,
    mut run: impl FnMut() -> (Duration, T),
    same: impl Fn(&T, &T),
) -> (Duration, T) {
    let mut best = run();
    for _ in 1..repeat {
        let next = run();
        same(&best.1, &next.1);
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// `f`'s result and its wall time.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let started = Instant::now();
    let result = f();
    (started.elapsed(), result)
}

/// Solves `program` under `config` `repeat` times and returns the run
/// with the smallest solver wall time, panicking if any two repeats
/// disagree on the CI facts or context-sensitive fact counts.
fn best_of(
    program: &ctxform_ir::Program,
    config: &AnalysisConfig,
    repeat: usize,
) -> AnalysisResult {
    let run = || {
        let r = analyze(program, config);
        (r.stats.duration, r)
    };
    let same = |a: &AnalysisResult, b: &AnalysisResult| {
        assert_eq!(
            a.ci.digest(),
            b.ci.digest(),
            "{config}: CI facts differ across repeats"
        );
        assert_eq!(
            a.stats.total(),
            b.stats.total(),
            "{config}: cs-fact counts differ across repeats"
        );
    };
    fastest(repeat, run, same).1
}

/// The incremental re-analysis cell: solves the additively `edited`
/// program by extending the base program's database (`repeat` times over
/// fresh clones) and from scratch (`repeat` times), keeping the fastest
/// run of each. Panics unless every extension is incremental, all repeats
/// and both paths agree on the fact digest, and the extension re-derived
/// strictly fewer facts than the from-scratch solve.
fn incr_cell(
    base: &ctxform_ir::Program,
    edited: &ctxform_ir::Program,
    config: &AnalysisConfig,
    repeat: usize,
) -> Json {
    let base_db = AnalysisDb::solve(base.clone(), config);
    let update = || {
        let mut db = base_db.clone();
        let next = edited.clone();
        let (elapsed, outcome) = timed(|| db.extend(next));
        assert_eq!(outcome, ExtendOutcome::Incremental, "{config}");
        (elapsed, db)
    };
    let same = |a: &AnalysisDb, b: &AnalysisDb| {
        assert_eq!(
            a.fact_digest(),
            b.fact_digest(),
            "{config}: update repeats disagree on the fact digest"
        );
    };
    let (incr_time, db) = fastest(repeat, update, same);
    let solve = || {
        let next = edited.clone();
        timed(|| AnalysisDb::solve(next, config))
    };
    let (scratch_time, scratch) = fastest(repeat, solve, |_, _| {});
    assert_eq!(
        db.fact_digest(),
        scratch.fact_digest(),
        "{config}: the updated database is not bit-identical to the from-scratch solve"
    );
    let incr_ms = incr_time.as_secs_f64() * 1000.0;
    let scratch_ms = scratch_time.as_secs_f64() * 1000.0;
    // An extension's stats count only the update's own work.
    let s = &db.result().stats;
    let derived = s.rule_derived.total();
    let scratch_derived = scratch.result().stats.rule_derived.total();
    assert!(
        derived < scratch_derived,
        "{config}: extension re-derived {derived} facts, not fewer than \
         the from-scratch {scratch_derived}"
    );
    Json::obj([
        ("time_ms", Json::ms(incr_ms)),
        ("scratch_ms", Json::ms(scratch_ms)),
        (
            "speedup",
            Json::ms(if incr_ms > 0.0 {
                scratch_ms / incr_ms
            } else {
                0.0
            }),
        ),
        ("events", Json::int(s.events)),
        ("probes", Json::uint(s.probes)),
        ("compose_calls", Json::uint(s.compose_calls)),
        ("derived_incremental", Json::uint(derived)),
        ("derived_scratch", Json::uint(scratch_derived)),
        ("total", Json::int(s.total())),
        ("fact_digest", Json::Str(hex16(db.fact_digest()))),
    ])
}

/// The demand-driven query cell: answers `pts(v0, ·)` cold, building the
/// program's demand index, then `pts(v1, ·)` warm on the same index
/// (`repeat` times over fresh indices, min time of each kept), and
/// `pts(v0, ·)` by a full solve followed by a lookup (`repeat` times; min
/// time kept). Panics unless both demanded answers are byte-identical to
/// the exhaustive ones and the gated solve derived no more facts than the
/// exhaustive solve.
fn demand_cell(program: &ctxform_ir::Program, config: &AnalysisConfig, repeat: usize) -> Json {
    let var = ctxform_ir::Var::from_index(0);
    let warm_var = ctxform_ir::Var::from_index(1.min(program.var_count() - 1));
    let mut warm_time = Duration::MAX;
    let mut warm = None;
    let query = || {
        let (elapsed, (index, cold)) = timed(|| {
            let index = ctxform::DemandIndex::new(program);
            let cold = ctxform_demand::query(&index, program, config, &[var]);
            (index, cold)
        });
        let (warm_elapsed, got_warm) =
            timed(|| ctxform_demand::query(&index, program, config, &[warm_var]));
        warm_time = warm_time.min(warm_elapsed);
        warm = Some(got_warm);
        (elapsed, cold)
    };
    let same = |a: &ctxform_demand::QueryOutcome, b: &ctxform_demand::QueryOutcome| {
        assert_eq!(
            a.answers, b.answers,
            "{config}: demand repeats disagree on the answer"
        );
    };
    let (query_time, outcome) = fastest(repeat, query, same);
    let warm = warm.expect("repeat >= 1");
    let solve = || {
        timed(|| {
            let r = analyze(program, config);
            let _ = r.ci.points_to(var);
            r
        })
    };
    let (solve_time, exhaustive) = fastest(repeat, solve, |_, _| {});
    assert_eq!(
        outcome.answers[0].1,
        exhaustive.ci.points_to(var),
        "{config}: demanded answer differs from the exhaustive one"
    );
    assert_eq!(
        warm.answers[0].1,
        exhaustive.ci.points_to(warm_var),
        "{config}: warm demanded answer differs from the exhaustive one"
    );
    let exhaustive_facts = exhaustive.stats.total();
    assert!(
        outcome.solver_facts <= exhaustive_facts,
        "{config}: gated solve derived {} facts, more than the exhaustive {}",
        outcome.solver_facts,
        exhaustive_facts
    );
    let query_ms = query_time.as_secs_f64() * 1000.0;
    let solve_ms = solve_time.as_secs_f64() * 1000.0;
    Json::obj([
        ("time_ms", Json::ms(query_ms)),
        ("query_warm_ms", Json::ms(warm_time.as_secs_f64() * 1000.0)),
        ("solve_lookup_ms", Json::ms(solve_ms)),
        (
            "speedup",
            Json::ms(if query_ms > 0.0 {
                solve_ms / query_ms
            } else {
                0.0
            }),
        ),
        ("slice_tuples", Json::int(outcome.slice_tuples)),
        ("slice_derivations", Json::int(outcome.slice_derivations)),
        ("sliced_facts", Json::int(outcome.solver_facts)),
        ("exhaustive_facts", Json::int(exhaustive_facts)),
        (
            "demanded_ratio",
            Json::ms(if exhaustive_facts > 0 {
                outcome.solver_facts as f64 / exhaustive_facts as f64
            } else {
                0.0
            }),
        ),
        ("points_to_size", Json::int(outcome.answers[0].1.len())),
    ])
}

/// Whether a cell key holds a wall time, or a ratio of two, which
/// `--check` never compares.
fn is_time(key: &str) -> bool {
    key.ends_with("_ms") || key == "speedup"
}

/// Compares every non-time value under `old`, a baseline's `benchmarks`
/// object, with the value at the same path under `new`, the run's, and
/// appends `cell key: old → new` to `diffs` for each difference (the
/// cell is the path's first three segments, `bench/config/cell`).
/// Returns how many values it compared. A cell the run lacks (one it did
/// not run, or one a newer schema dropped) is skipped; a value missing
/// inside a cell the run has is a difference.
fn check(path: &[&str], old: &Json, new: Option<&Json>, diffs: &mut Vec<String>) -> usize {
    let Json::Obj(pairs) = old else {
        if new != Some(old) {
            let (cell, key) = path.split_at(path.len().saturating_sub(1).min(3));
            let new = new.map_or_else(|| "(absent)".to_owned(), Json::to_line);
            let old = old.to_line();
            diffs.push(format!(
                "{} {}: {old} → {new}",
                cell.join("/"),
                key.join(".")
            ));
        }
        return 1;
    };
    if new.is_none() && path.len() <= 3 {
        return 0;
    }
    pairs
        .iter()
        .filter(|(k, _)| !is_time(k))
        .map(|(k, v)| check(&[path, &[k]].concat(), v, new.and_then(|n| n.get(k)), diffs))
        .sum()
}

fn next_bench_path() -> String {
    let mut max = 0u32;
    if let Ok(entries) = std::fs::read_dir(".") {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|num| num.parse::<u32>().ok())
            {
                max = max.max(n);
            }
        }
    }
    format!("BENCH_{}.json", max + 1)
}

fn main() {
    let mut scale = 20usize;
    let mut repeat = 3usize;
    let mut only: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut profile_folded: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a positive integer");
            }
            "--repeat" => {
                repeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--repeat needs a positive integer");
            }
            "--bench" => only = Some(args.next().expect("--bench needs a name")),
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            "--trace-json" => trace_json = Some(args.next().expect("--trace-json needs a path")),
            "--profile-folded" => {
                profile_folded = Some(args.next().expect("--profile-folded needs a path"))
            }
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: regress [--scale N] [--repeat N] [--bench NAME] \
                     [--out PATH] [--trace-json PATH] [--profile-folded PATH] \
                     [--check BENCH_n.json]"
                );
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    let baseline = check_path.as_ref().map(|path| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
        // The baseline's matrix is re-run at the baseline's scale.
        scale = doc
            .get("scale")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{path} has no `scale`")) as usize;
        doc
    });

    if trace_json.is_some() {
        ctxform_obs::enable_tracing(ctxform_obs::trace::DEFAULT_CAPACITY);
    }
    let profiling = profile_folded.is_some();
    let profile_store = ctxform_server::ProfileStore::default();
    // Applied to the cstring/tstring cells when `--profile-folded` is on;
    // the parity cells (incr/demand) stay unprofiled so their
    // timing comparisons against `tstring` are not perturbed.
    let with_prof = |c: AnalysisConfig| if profiling { c.with_profiling() } else { c };
    let started = Instant::now();
    let configs = Sensitivity::paper_configs();
    let mut bench_objs: Vec<(String, Json)> = Vec::new();
    // Aggregate wall time of the transformer-string 2-object+H column —
    // the paper's headline configuration, tracked as the harness's single
    // headline number.
    let mut tstring_2objh_ms = 0.0f64;
    let mut cstring_2objh_ms = 0.0f64;

    for (name, _) in dacapo_like() {
        if let Some(filter) = &only {
            if name != filter {
                continue;
            }
        }
        logger::info("regress", format!("{name} (scale {scale})..."));
        let source = benchmark_source(name, scale);
        let program = compile(&source)
            .expect("generated programs are valid")
            .program;
        // Single additive driver-class edit for the incremental cell,
        // seeded per benchmark so the edit shape varies across rows but
        // not across runs.
        let edited_source = append_edit(&source, fx_hash_one(&name), 0);
        let edited = compile(&edited_source)
            .expect("edited programs are valid")
            .program;
        let stats = program.stats();
        let mut pairs: Vec<(String, Json)> = vec![(
            "program".into(),
            Json::obj([
                ("methods", Json::int(stats.methods)),
                ("vars", Json::int(stats.vars)),
                ("heaps", Json::int(stats.heaps)),
                ("invs", Json::int(stats.invs)),
                ("fields", Json::int(stats.fields)),
                ("types", Json::int(stats.types)),
                ("input_facts", Json::int(stats.input_facts)),
            ]),
        )];
        for s in &configs {
            let c = best_of(
                &program,
                &with_prof(AnalysisConfig::context_strings(*s)),
                repeat,
            );
            let tstring = AnalysisConfig::transformer_strings(*s);
            let t = best_of(&program, &with_prof(tstring), repeat);
            profile_store.record(&c.stats);
            profile_store.record(&t.stats);
            if s.to_string() == "2-object+H" {
                cstring_2objh_ms += c.stats.duration.as_secs_f64() * 1000.0;
                tstring_2objh_ms += t.stats.duration.as_secs_f64() * 1000.0;
            }
            let t_incr = incr_cell(&program, &edited, &tstring, repeat);
            let t_demand = demand_cell(&program, &tstring, repeat);
            pairs.push((
                s.to_string(),
                Json::obj([
                    ("cstring", run_json(&c)),
                    ("tstring", run_json(&t)),
                    ("tstring_incr", t_incr),
                    ("tstring_demand", t_demand),
                ]),
            ));
        }
        bench_objs.push((name.to_owned(), Json::Obj(pairs)));
    }

    if bench_objs.is_empty() {
        let known: Vec<&str> = dacapo_like().into_iter().map(|(n, _)| n).collect();
        logger::error(
            "regress",
            format!(
                "no benchmark matched {:?}; known benchmarks: {}",
                only.as_deref().unwrap_or(""),
                known.join(", ")
            ),
        );
        std::process::exit(1);
    }
    let benchmark_count = bench_objs.len();
    let doc = Json::obj([
        ("schema", Json::str("ctxform-regress/16")),
        ("scale", Json::int(scale)),
        ("repeat", Json::int(repeat)),
        (
            "harness_ms",
            Json::ms(started.elapsed().as_secs_f64() * 1000.0),
        ),
        ("cstring_2objH_total_ms", Json::ms(cstring_2objh_ms)),
        ("tstring_2objH_total_ms", Json::ms(tstring_2objh_ms)),
        ("benchmarks", Json::Obj(bench_objs)),
    ]);
    // A check writes a trajectory point only when asked to.
    if let Some(path) = out_path.or_else(|| baseline.is_none().then(next_bench_path)) {
        std::fs::write(&path, doc.to_pretty())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        logger::info(
            "regress",
            format!(
                "wrote {path} ({benchmark_count} benchmarks, tstring 2-object+H total {tstring_2objh_ms:.1}ms)"
            ),
        );
    }
    if let Some(profile_path) = &profile_folded {
        let folded = profile_store.folded();
        std::fs::write(profile_path, &folded)
            .unwrap_or_else(|e| panic!("cannot write {profile_path}: {e}"));
        logger::info(
            "regress",
            format!(
                "wrote folded profile to {profile_path} ({} profiled solves, {} stacks)",
                profile_store.solves(),
                folded.lines().count()
            ),
        );
    }
    if let Some(trace_path) = &trace_json {
        let dump = ctxform_obs::take_trace();
        ctxform_obs::disable_tracing();
        std::fs::write(trace_path, dump.to_json())
            .unwrap_or_else(|e| panic!("cannot write {trace_path}: {e}"));
        logger::info(
            "regress",
            format!(
                "wrote {} trace records to {trace_path} ({} dropped)",
                dump.records.len(),
                dump.dropped
            ),
        );
    }
    if let (Some(baseline), Some(check_path)) = (&baseline, &check_path) {
        let old = baseline
            .get("benchmarks")
            .unwrap_or_else(|| panic!("{check_path} has no `benchmarks`"));
        let mut diffs = Vec::new();
        let compared = check(&[], old, doc.get("benchmarks"), &mut diffs);
        for diff in &diffs {
            println!("{diff}");
        }
        let summary = format!(
            "{} of {compared} non-time values differ from {check_path}",
            diffs.len()
        );
        if diffs.is_empty() && compared > 0 {
            logger::info("regress", summary);
        } else {
            logger::error("regress", summary);
            std::process::exit(1);
        }
    }
}
