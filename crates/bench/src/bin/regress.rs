//! Bench-regression harness: runs the Figure 6 matrix at a fixed scale and
//! writes a machine-readable `BENCH_<n>.json` trajectory point.
//!
//! ```text
//! cargo run --release -p ctxform-bench --bin regress -- \
//!     [--scale N] [--repeat N] [--bench NAME] [--out PATH] \
//!     [--trace-json PATH] [--profile-folded PATH]
//! ```
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
//! facts), an incremental *deletion* cell (`tstring_incr_del`: a seeded
//! deleting edit removes one input tuple and the edited program is
//! solved by DRed retraction over the cached database versus from
//! scratch, recording both times, the speedup, and the
//! over-delete/re-derive counts, after asserting the outcome was
//! `Retracted` and the digests are bit-identical), and a demand-driven
//! query cell (`tstring_demand`: a cold
//! `pts(v0, ·)` query answered through the demand engine, which builds
//! the program's demand index, is timed against a full solve followed by
//! a lookup, and a warm `pts(v1, ·)` query on the same engine, which
//! reuses the index, is timed as `query_warm_ms`, after asserting both
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

use ctxform::{analyze, AnalysisConfig, AnalysisDb, AnalysisResult};
use ctxform_algebra::Sensitivity;
use ctxform_bench::benchmark_source;
use ctxform_hash::fx_hash_one;
use ctxform_minijava::compile;
use ctxform_obs::logger;
use ctxform_server::json::{hex16, Json};
use ctxform_synth::{append_edit, dacapo_like, retract_edit_script};

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

/// Solves `program` under `config` `repeat` times and returns the run
/// with the smallest solver wall time, panicking if any two repeats
/// disagree on the CI facts or context-sensitive fact counts (a
/// nondeterminism bug the harness must not average away).
fn best_of(
    program: &ctxform_ir::Program,
    config: &AnalysisConfig,
    repeat: usize,
) -> AnalysisResult {
    let mut best = analyze(program, config);
    let (digest, total) = (best.ci.digest(), best.stats.total());
    for _ in 1..repeat {
        let r = analyze(program, config);
        assert_eq!(
            r.ci.digest(),
            digest,
            "{config}: CI facts differ across repeats"
        );
        assert_eq!(
            r.stats.total(),
            total,
            "{config}: cs-fact counts differ across repeats"
        );
        if r.stats.duration < best.stats.duration {
            best = r;
        }
    }
    best
}

/// The incremental re-analysis cell: the edited program is solved by
/// extending the base program's database (`repeat` times over fresh
/// clones; min time kept) and from scratch (`repeat` times; min time
/// kept). Panics unless every extension is incremental, all repeats and
/// both paths agree on the fact digest, and the extension re-derived
/// strictly fewer facts than the from-scratch solve.
fn incr_cell(
    base: &ctxform_ir::Program,
    edited: &ctxform_ir::Program,
    config: &AnalysisConfig,
    repeat: usize,
) -> Json {
    let base_db = AnalysisDb::solve(base.clone(), config);
    let mut incr_time = Duration::MAX;
    let mut incr_db = None;
    for _ in 0..repeat {
        let mut db = base_db.clone();
        let next = edited.clone();
        let started = Instant::now();
        let outcome = db.extend(next);
        let elapsed = started.elapsed();
        assert!(
            outcome.is_incremental(),
            "{config}: appended driver class must extend incrementally, got {outcome:?}"
        );
        if let Some(prev) = &incr_db {
            let prev: &AnalysisDb = prev;
            assert_eq!(
                db.fact_digest(),
                prev.fact_digest(),
                "{config}: incremental repeats disagree on the fact digest"
            );
        }
        if elapsed < incr_time || incr_db.is_none() {
            incr_time = elapsed;
            incr_db = Some(db);
        }
    }
    let incr_db = incr_db.expect("repeat >= 1");
    let mut scratch_time = Duration::MAX;
    let mut scratch_db = None;
    for _ in 0..repeat {
        let next = edited.clone();
        let started = Instant::now();
        let db = AnalysisDb::solve(next, config);
        let elapsed = started.elapsed();
        if elapsed < scratch_time || scratch_db.is_none() {
            scratch_time = elapsed;
            scratch_db = Some(db);
        }
    }
    let scratch_db = scratch_db.expect("repeat >= 1");
    assert_eq!(
        incr_db.fact_digest(),
        scratch_db.fact_digest(),
        "{config}: incremental result is not bit-identical to the from-scratch solve"
    );
    let incr_derived = incr_db.result().stats.rule_derived.total();
    let scratch_derived = scratch_db.result().stats.rule_derived.total();
    assert!(
        incr_derived < scratch_derived,
        "{config}: extension re-derived {incr_derived} facts, not fewer than \
         the from-scratch {scratch_derived}"
    );
    let incr_ms = incr_time.as_secs_f64() * 1000.0;
    let scratch_ms = scratch_time.as_secs_f64() * 1000.0;
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
        ("derived_incremental", Json::uint(incr_derived)),
        ("derived_scratch", Json::uint(scratch_derived)),
        ("total", Json::int(incr_db.result().stats.total())),
        ("fact_digest", Json::Str(hex16(incr_db.fact_digest()))),
    ])
}

/// The incremental deletion cell: the deleted-edit program is solved by
/// DRed retraction over the base program's database (`repeat` times over
/// fresh clones; min time kept) and from scratch (`repeat` times; min
/// time kept). Panics unless every extension took the `Retracted` path,
/// all repeats and both paths agree on the fact digest, and the re-derive
/// pass restored no more facts than the over-delete pass removed.
fn incr_del_cell(
    base: &ctxform_ir::Program,
    deleted: &ctxform_ir::Program,
    config: &AnalysisConfig,
    repeat: usize,
) -> Json {
    let base_db = AnalysisDb::solve(base.clone(), config);
    let mut incr_time = Duration::MAX;
    let mut incr_db = None;
    for _ in 0..repeat {
        let mut db = base_db.clone();
        let next = deleted.clone();
        let started = Instant::now();
        let outcome = db.extend(next);
        let elapsed = started.elapsed();
        assert!(
            matches!(outcome, ctxform::ExtendOutcome::Retracted),
            "{config}: deleting edit must take the retraction path, got {outcome:?}"
        );
        if let Some(prev) = &incr_db {
            let prev: &AnalysisDb = prev;
            assert_eq!(
                db.fact_digest(),
                prev.fact_digest(),
                "{config}: retraction repeats disagree on the fact digest"
            );
        }
        if elapsed < incr_time || incr_db.is_none() {
            incr_time = elapsed;
            incr_db = Some(db);
        }
    }
    let incr_db = incr_db.expect("repeat >= 1");
    let mut scratch_time = Duration::MAX;
    let mut scratch_db = None;
    for _ in 0..repeat {
        let next = deleted.clone();
        let started = Instant::now();
        let db = AnalysisDb::solve(next, config);
        let elapsed = started.elapsed();
        if elapsed < scratch_time || scratch_db.is_none() {
            scratch_time = elapsed;
            scratch_db = Some(db);
        }
    }
    let scratch_db = scratch_db.expect("repeat >= 1");
    assert_eq!(
        incr_db.fact_digest(),
        scratch_db.fact_digest(),
        "{config}: DRed result is not bit-identical to the from-scratch solve"
    );
    let stats = &incr_db.result().stats;
    assert!(
        stats.rederived <= stats.overdeleted,
        "{config}: re-derived {} facts but only {} were over-deleted",
        stats.rederived,
        stats.overdeleted
    );
    let incr_ms = incr_time.as_secs_f64() * 1000.0;
    let scratch_ms = scratch_time.as_secs_f64() * 1000.0;
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
        ("overdeleted", Json::uint(stats.overdeleted)),
        ("rederived", Json::uint(stats.rederived)),
        (
            "derived_incremental",
            Json::uint(stats.rule_derived.total()),
        ),
        (
            "derived_scratch",
            Json::uint(scratch_db.result().stats.rule_derived.total()),
        ),
        ("total", Json::int(stats.total())),
        ("fact_digest", Json::Str(hex16(incr_db.fact_digest()))),
    ])
}

/// The demand-driven query cell: answers `pts(v0, ·)` cold through the
/// demand engine, which builds the program's index, then `pts(v1, ·)`
/// warm on the same engine, which reuses it (`repeat` times over fresh
/// engines, min time of each kept), and `pts(v0, ·)` by a full solve
/// followed by a lookup (`repeat` times; min time kept). Panics unless
/// both demanded answers are byte-identical to the exhaustive ones and
/// the gated solve derived no more facts than the exhaustive solve.
fn demand_cell(program: &ctxform_ir::Program, config: &AnalysisConfig, repeat: usize) -> Json {
    let var = ctxform_ir::Var::from_index(0);
    let warm_var = ctxform_ir::Var::from_index(1.min(program.var_count() - 1));
    let mut query_time = Duration::MAX;
    let mut warm_time = Duration::MAX;
    let mut outcome = None;
    let mut warm = None;
    for _ in 0..repeat {
        let engine = ctxform_demand::DemandEngine::new(1);
        let started = Instant::now();
        let got = engine.query(0, program, config, &[var]);
        let elapsed = started.elapsed();
        let started = Instant::now();
        let got_warm = engine.query(0, program, config, &[warm_var]);
        warm_time = warm_time.min(started.elapsed());
        assert!(
            got_warm.slice_reused,
            "{config}: a second root must reuse the index"
        );
        if let Some(prev) = &outcome {
            let prev: &ctxform_demand::QueryOutcome = prev;
            assert_eq!(
                got.answers, prev.answers,
                "{config}: demand repeats disagree on the answer"
            );
        }
        if elapsed < query_time || outcome.is_none() {
            query_time = elapsed;
            outcome = Some(got);
        }
        warm = Some(got_warm);
    }
    let warm = warm.expect("repeat >= 1");
    let outcome = outcome.expect("repeat >= 1");
    let mut solve_time = Duration::MAX;
    let mut exhaustive = None;
    for _ in 0..repeat {
        let started = Instant::now();
        let r = analyze(program, config);
        let _ = r.ci.points_to(var);
        let elapsed = started.elapsed();
        if elapsed < solve_time || exhaustive.is_none() {
            solve_time = elapsed;
            exhaustive = Some(r);
        }
    }
    let exhaustive = exhaustive.expect("repeat >= 1");
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
            "--help" | "-h" => {
                eprintln!(
                    "usage: regress [--scale N] [--repeat N] [--bench NAME] \
                     [--out PATH] [--trace-json PATH] [--profile-folded PATH]"
                );
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

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
        // Single-tuple deleting edit for the DRed deletion cell: with a
        // 0% removal rate the script's guaranteed-retractive fallback
        // removes exactly one `assign` tuple — the canonical "small
        // edit". (Percentage-scale removals over-delete most of the
        // database through the coarse seeding and lose to a re-solve.)
        let deleted = retract_edit_script(&program, fx_hash_one(&name), 1, 0)
            .pop()
            .expect("script has steps+1 revisions");
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
            let t_incr_del = incr_del_cell(&program, &deleted, &tstring, repeat);
            let t_demand = demand_cell(&program, &tstring, repeat);
            pairs.push((
                s.to_string(),
                Json::obj([
                    ("cstring", run_json(&c)),
                    ("tstring", run_json(&t)),
                    ("tstring_incr", t_incr),
                    ("tstring_incr_del", t_incr_del),
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
    let path = out_path.unwrap_or_else(next_bench_path);
    let benchmark_count = bench_objs.len();
    let doc = Json::obj([
        ("schema", Json::str("ctxform-regress/14")),
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
    std::fs::write(&path, doc.to_pretty()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
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
    logger::info(
        "regress",
        format!(
            "wrote {path} ({benchmark_count} benchmarks, tstring 2-object+H total {tstring_2objh_ms:.1}ms)"
        ),
    );
}
