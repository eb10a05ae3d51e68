//! `query-cold`: cold demand queries against `ctxform-serve`.
//!
//! One connection. The seven presets are loaded at scale 5 and never
//! solved; the session then issues single-root `query`s under tstring
//! 2-object+H for a sample of 20 variables per preset, in rounds: each
//! round visits the 140 variables in the same seeded order. Between two
//! queries of one variable the 139 others are queried, so with the
//! server's 128-entry LRU slice cache every query misses both that cache
//! and the resident-db fast path, and runs the magic-sets slice plus the
//! gated solve.
//!
//! Cold-query cost is bimodal: a variable defined only by allocations has
//! a slice of a few tuples, while one fed by loads, calls or parameters
//! demands most of the program. The sample is therefore stratified — each
//! preset's variables are grouped by the input relations that define them
//! and drawn in proportion to the group sizes — and it is the same for
//! every seed, so that runs differ in query order only.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ctxform::{analyze, analyze_sliced, demand_slice, AnalysisConfig};
use ctxform_hash::SplitMix64;
use ctxform_ir::{Program, Var};
use ctxform_server::json::Json;

use crate::serve::{collect_server_layers, request, wire_ms, Conn, Reply, Server, TRACE_ID};
use crate::stats::{
    finish_solver_stats, mean, record_solver_stats, set_attribution, shuffle, Layers,
};
use crate::{Args, Run, Traced, SETUPS};

const SCALE: usize = 5;
/// Variables sampled per preset (7 presets: 140 > the 128-entry slice
/// cache).
const SAMPLE_PER_PRESET: usize = 20;
/// Queries in the deterministic prefix of the traced run.
const PREFIX_QUERIES: usize = 42;

fn config() -> AnalysisConfig {
    AnalysisConfig::transformer_strings("2-object+H".parse().expect("valid label")).with_threads(1)
}

struct Preset {
    source: String,
    program: Program,
}

/// The loaded programs and one round of queries, `(preset, variable)`.
struct Workload {
    presets: Vec<Preset>,
    queries: Vec<(usize, Var)>,
}

fn workload(seed: u64) -> Workload {
    let presets: Vec<Preset> = ctxform_synth::PRESET_NAMES
        .iter()
        .map(|&name| {
            let cfg = ctxform_synth::preset(name)
                .expect("known preset")
                .scale_driver(SCALE);
            let source = ctxform_synth::generate(&cfg);
            let program = ctxform_minijava::compile(&source)
                .expect("generated source compiles")
                .program;
            Preset { source, program }
        })
        .collect();
    let mut sampler = SplitMix64::new(0x5A3B_1E5E_ED00);
    let mut queries: Vec<(usize, Var)> = presets
        .iter()
        .enumerate()
        .flat_map(|(p, preset)| {
            let order = stratified_order(&preset.program, &mut sampler);
            order
                .into_iter()
                .take(SAMPLE_PER_PRESET)
                .map(move |v| (p, v))
        })
        .collect();
    shuffle(&mut SplitMix64::new(seed), &mut queries);
    Workload { presets, queries }
}

/// Every variable of `program` once, so that each prefix visits the
/// strata (variables grouped by the input relations that define them) in
/// proportion to their sizes; `rng` orders the variables in a stratum.
fn stratified_order(program: &Program, rng: &mut SplitMix64) -> Vec<Var> {
    let f = &program.facts;
    let mut defs = vec![0u8; program.var_count()];
    let mut mark = |v: Var, bit: u8| defs[v.index()] |= bit;
    f.assign_new.iter().for_each(|&(_, y, _)| mark(y, 1));
    f.assign.iter().for_each(|&(_, y)| mark(y, 2));
    f.load.iter().for_each(|&(_, _, z)| mark(z, 4));
    f.assign_return.iter().for_each(|&(_, y)| mark(y, 8));
    f.formal.iter().for_each(|&(y, _, _)| mark(y, 16));
    f.static_load.iter().for_each(|&(_, z)| mark(z, 32));
    f.this_var.iter().for_each(|&(y, _)| mark(y, 64));
    let mut strata: BTreeMap<u8, Vec<Var>> = BTreeMap::new();
    for (i, &d) in defs.iter().enumerate() {
        strata.entry(d).or_default().push(Var::from_index(i));
    }
    let total = defs.len() as f64;
    let mut strata: Vec<(f64, f64, Vec<Var>)> = strata
        .into_values()
        .map(|mut vars| {
            shuffle(rng, &mut vars);
            vars.reverse();
            (vars.len() as f64 / total, 0.0, vars)
        })
        .collect();
    let mut order = Vec::with_capacity(defs.len());
    while order.len() < defs.len() {
        for (share, credit, _) in strata.iter_mut() {
            *credit += *share;
        }
        let (_, credit, vars) = strata
            .iter_mut()
            .filter(|(_, _, vars)| !vars.is_empty())
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("variables remain");
        *credit -= 1.0;
        order.push(vars.pop().expect("non-empty"));
    }
    order
}

fn query_request(preset: &Preset, digest: &str, var: Var, traced: bool) -> Json {
    let p = &preset.program;
    let method = p.method_names[p.var_method[var.index()].index()].as_str();
    let mut fields = vec![
        ("method", Json::str(method)),
        ("var", Json::str(p.var_names[var.index()].as_str())),
    ];
    if traced {
        fields.push(("trace", Json::str(TRACE_ID)));
    }
    request("query", digest, fields)
}

/// A started server with the presets loaded.
struct Session {
    server: Server,
    conn: Conn,
    digests: Vec<String>,
}

fn open_session(args: &Args, presets: &[Preset], trace: bool) -> Result<Session, String> {
    let server = Server::start(&args.serve_bin, trace);
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let digests = presets
        .iter()
        .map(|p| conn.load_source(&p.source))
        .collect::<Result<_, _>>()?;
    Ok(Session {
        server,
        conn,
        digests,
    })
}

/// An answered query, kept for the oracle.
struct Answer {
    preset: usize,
    var: Var,
    heaps: Json,
}

/// Sends the `k`-th query of the session (round `k / 140`).
fn query(
    session: &mut Session,
    w: &Workload,
    k: usize,
    traced: bool,
    run: &mut Run,
) -> Result<(Answer, Reply), String> {
    let key = k % w.queries.len();
    let (p, var) = w.queries[key];
    let req = query_request(&w.presets[p], &session.digests[p], var, traced);
    match session.conn.call(&req) {
        Ok(reply) => {
            run.primary_op(key, reply.ms);
            let heaps = reply.body.get("heaps").cloned().unwrap_or(Json::Null);
            Ok((
                Answer {
                    preset: p,
                    var,
                    heaps,
                },
                reply,
            ))
        }
        Err(e) => {
            run.attempted += 1;
            Err(format!("query: {e}"))
        }
    }
}

/// Whether the server answered from its slice cache instead of a cold slice.
fn slice_reused(reply: &Reply) -> bool {
    reply.body.get("slice_reused").and_then(Json::as_bool) == Some(true)
}

/// Checks every answer against the points-to set of an exhaustive solve.
fn oracle(presets: &[Preset], answers: &[Answer]) -> Vec<String> {
    let mut solved = HashMap::new();
    let mut wrong = Vec::new();
    for a in answers {
        let program = &presets[a.preset].program;
        let r = solved
            .entry(a.preset)
            .or_insert_with(|| analyze(program, &config()));
        let want = Json::Arr(
            r.ci.points_to(a.var)
                .iter()
                .map(|h| Json::str(program.heap_names[h.index()].as_str()))
                .collect(),
        );
        if want != a.heaps {
            let name = &program.var_names[a.var.index()];
            wrong.push(format!(
                "query {name}: answer differs from the exhaustive solve"
            ));
        }
    }
    wrong
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::new("query");
    let mut kept = None;
    for i in 0..SETUPS {
        let (w, session) = run.time_setup(|| {
            let w = workload(args.seed);
            let session = open_session(args, &w.presets, false).expect("set-up");
            (w, session)
        });
        if i + 1 < SETUPS {
            session.server.stop();
        } else {
            kept = Some((w, session));
        }
    }
    let (w, mut session) = kept.expect("at least one set-up");
    let mut answers = Vec::new();
    let mut reused = 0;
    for k in 0.. {
        match query(&mut session, &w, k, false, &mut run) {
            Ok((answer, reply)) => {
                reused += usize::from(slice_reused(&reply));
                answers.push(answer);
            }
            Err(why) => run.fail(why),
        }
        if (k + 1) % w.queries.len() == 0 {
            run.end_block();
            if run.window_s >= args.seconds {
                break;
            }
        }
    }
    run.notes
        .push(format!("queries answered from a cached slice: {reused}"));
    run.peak_rss_mb = crate::stats::peak_rss_mb(&session.server.pid());
    session.server.stop();
    for why in oracle(&w.presets, &answers) {
        run.fail(why);
    }
    run
}

/// Times the frontend the server runs when it loads the presets.
fn replay_loads(w: &Workload, layers: &mut Layers) {
    for p in &w.presets {
        let ast = layers.time("minijava.parse_ms", || ctxform_minijava::parse(&p.source));
        let ast = ast.expect("generated source parses");
        let module = layers.time("minijava.lower_ms", || ctxform_minijava::lower(&ast));
        module.expect("generated source lowers");
        let facts = p.program.stats().input_facts as f64;
        layers.add("ir.input_facts", facts / w.presets.len() as f64);
    }
}

/// Replays query `k` in process, timing the public calls the server makes
/// for a cold `query`: request parse, the magic-sets slice and the gated
/// solve.
fn replay_query(w: &Workload, k: usize, layers: &mut Layers) {
    let (p, var) = w.queries[k % w.queries.len()];
    let program = &w.presets[p].program;
    let line = query_request(&w.presets[p], "0", var, false).to_line();
    let parsed = layers.time("server.parse_ms", || {
        ctxform_server::protocol::parse_request(&line)
    });
    parsed.expect("query request parses");
    layers.time("ir.index_ms", || program.index());
    let slice = layers.time("demand.slice_ms", || demand_slice(program, &[var]));
    let slice = Arc::new(slice.expect("demand slice evaluates"));
    layers.add("slice_tuples", slice.demanded() as f64);
    layers.add("demand.slice_derivations", slice.derivations as f64);
    let result = layers.time("demand.gated_solve_ms", || {
        analyze_sliced(program, &config().with_profiling(), Arc::clone(&slice))
    });
    record_solver_stats(layers, &result);
}

fn finish_replay(layers: &mut Layers) {
    finish_solver_stats(layers);
    let ratio = crate::stats::ratio(
        layers.value("slice_tuples"),
        layers.value("demand.slice_derivations"),
    );
    layers.set("demand.tuples_per_derivation", ratio);
}

/// The in-process replay of the traced prefix alone (its counters are the
/// ones [`crate::EXACT_COUNTERS`] checks).
pub fn replay_prefix(args: &Args) -> Layers {
    let w = workload(args.seed);
    let mut layers = Layers::default();
    replay_loads(&w, &mut layers);
    for k in 0..PREFIX_QUERIES {
        replay_query(&w, k, &mut layers);
    }
    finish_replay(&mut layers);
    layers
}

/// The traced run. Each of the first 42 queries is served by an untraced
/// server, then by one started with `--trace` (whose replies carry
/// `took_us`), then replayed in process, so all three see the same
/// machine state. Attribution is per query: wire time, the non-solve
/// server spans and the replayed calls, against the traced latency.
pub fn traced(args: &Args) -> Traced {
    let w = workload(args.seed);
    let mut run = Run::new("query");
    let mut layers = Layers::default();
    replay_loads(&w, &mut layers);
    let sessions = open_session(args, &w.presets, false)
        .and_then(|plain| Ok((plain, open_session(args, &w.presets, true)?)));
    let (mut plain, mut tracing) = match sessions {
        Ok(pair) => pair,
        Err(why) => {
            run.fail(why);
            return Traced { layers, run };
        }
    };
    let (mut untraced_ms, mut replies, mut answers) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..PREFIX_QUERIES {
        match query(&mut plain, &w, k, false, &mut run) {
            Ok((_, reply)) => untraced_ms.push(reply.ms),
            Err(why) => run.fail(why),
        }
        match query(&mut tracing, &w, k, true, &mut run) {
            Ok((answer, reply)) => {
                answers.push(answer);
                replies.push(reply);
            }
            Err(why) => run.fail(why),
        }
        replay_query(&w, k, &mut layers);
    }
    finish_replay(&mut layers);
    let wire = mean(&replies.iter().map(wire_ms).collect::<Vec<_>>());
    layers.set("client.wire_ms", wire);
    let bytes: Vec<f64> = replies.iter().map(|r| r.bytes as f64).collect();
    layers.set("server.reply_bytes", mean(&bytes));
    let reused = replies.iter().filter(|r| slice_reused(r)).count();
    layers.set(
        "demand.slice_reuse_ratio",
        crate::stats::ratio(reused as f64, replies.len() as f64),
    );
    let server_rest = collect_server_layers(&mut tracing.conn, &mut layers, "query")
        .unwrap_or_else(|why| {
            run.fail(why);
            0.0
        });
    plain.server.stop();
    tracing.server.stop();
    for why in oracle(&w.presets, &answers) {
        run.fail(why);
    }
    let queries = PREFIX_QUERIES as f64;
    let replayed = layers.total_ms("server.parse_ms")
        + layers.total_ms("demand.slice_ms")
        + layers.total_ms("demand.gated_solve_ms");
    let traced_ms = mean(&replies.iter().map(|r| r.ms).collect::<Vec<_>>());
    let attributed = wire + server_rest + replayed / queries;
    set_attribution(
        &mut layers,
        mean(&untraced_ms),
        traced_ms,
        attributed,
        queries,
    );
    Traced { layers, run }
}
