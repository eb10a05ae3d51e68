//! `edit-session`: an IDE-like session against `ctxform-serve`.
//!
//! One connection, tstring 2-object+H, one preset at scale 20. After a
//! primed base, every cycle sends one `update` of the base — additive
//! (source with appended classes, `ctxform_synth::append_edit`) or
//! retractive (facts text from `retract_edit_script`, rendered with
//! `ctxform_ir::text::emit`), two of each in seeded order per block of
//! four — followed by a burst of reads of the updated program:
//! `points_to_batch`, `query` (answered from the resident db), `may_alias`
//! and `call_edges`. Every update starts from the same base, so the work
//! per update does not drift over a run. The base is the preset as
//! `ctxform-synth` defines it; the seed drives the edits and the reads.

use std::collections::HashMap;
use std::time::Instant;

use ctxform::{AnalysisConfig, AnalysisDb, AnalysisResult, ExtendOutcome};
use ctxform_hash::SplitMix64;
use ctxform_ir::{Program, ProgramDiff, Var};
use ctxform_server::json::Json;
use ctxform_server::protocol::digest_str;

use crate::serve::{collect_server_layers, request, wire_ms, Conn, Reply, Server, TRACE_ID};
use crate::stats::{
    finish_solver_stats, mean, ms_since, record_solver_stats, set_attribution, shuffle, Layers,
};
use crate::{Args, Run, Traced, SETUPS};

const PRESET: &str = "antlr";
const SCALE: usize = 20;
/// Share of each retractable input relation a retractive edit removes.
const RETRACT_PERCENT: usize = 2;
const BATCH_VARS: usize = 32;
/// The read burst after each update, shuffled per cycle.
const READS: [&str; 6] = [
    "points_to_batch",
    "points_to_batch",
    "query",
    "query",
    "may_alias",
    "call_edges",
];
/// Distinct update payloads per seed.
const POOL: usize = 16;
/// Additive entries of the pool; the rest are retractive. A retractive
/// update costs about twice an additive one, so an even split would put the
/// median update on the boundary between the two cost modes, where it jumps
/// with noise; with 10 of 16 it lies inside the additive mode.
const ADDITIVE: usize = 10;
/// Updates in the deterministic prefix of the traced run.
const PREFIX_UPDATES: usize = POOL;

fn config() -> AnalysisConfig {
    AnalysisConfig::transformer_strings("2-object+H".parse().expect("valid label")).with_threads(1)
}

/// The generated base program and the names reads are drawn from.
struct Base {
    source: String,
    program: Program,
    vars: Vec<(String, String)>,
    invs: Vec<String>,
}

fn base() -> Base {
    let cfg = ctxform_synth::preset(PRESET)
        .expect("known preset")
        .scale_driver(SCALE);
    let source = ctxform_synth::generate(&cfg);
    let program = ctxform_minijava::compile(&source)
        .expect("generated source compiles")
        .program;
    let vars = (0..program.var_count())
        .map(|i| {
            let method = &program.method_names[program.var_method[i].index()];
            (method.to_string(), program.var_names[i].to_string())
        })
        .collect();
    let invs = program.inv_names.iter().map(|n| n.to_string()).collect();
    Base {
        source,
        program,
        vars,
        invs,
    }
}

/// The payload of one `update`.
#[derive(Clone)]
enum Edit {
    Source(String),
    Facts(String),
}

impl Edit {
    /// The edited program, built the way the server builds it.
    fn program(&self) -> Program {
        match self {
            Edit::Source(src) => {
                ctxform_minijava::compile(src)
                    .expect("edit compiles")
                    .program
            }
            Edit::Facts(text) => ctxform_ir::text::parse(text).expect("edit parses"),
        }
    }
}

/// The seeded op stream: a pool of update payloads, visited as shuffled
/// rounds over the whole pool, and the read requests after each update.
struct Script {
    rng: SplitMix64,
    pool: Vec<Edit>,
    /// The digest the server names each pool entry's program by.
    digests: Vec<String>,
    round: Vec<usize>,
}

impl Script {
    fn new(seed: u64, base: &Base) -> Script {
        let mut rng = SplitMix64::new(seed);
        let pool = (0..POOL)
            .map(|i| {
                let edit_seed = rng.next_u64();
                if i < ADDITIVE {
                    let mut source = base.source.clone();
                    for step in 0..1 + rng.below(3) {
                        source = ctxform_synth::append_edit(&source, edit_seed, step);
                    }
                    Edit::Source(source)
                } else {
                    let revisions = ctxform_synth::retract_edit_script(
                        &base.program,
                        edit_seed,
                        1,
                        RETRACT_PERCENT,
                    );
                    Edit::Facts(ctxform_ir::text::emit(&revisions[1]))
                }
            })
            .collect::<Vec<Edit>>();
        let digests = pool
            .iter()
            .map(|edit| digest_str(ctxform_server::db::program_digest(&edit.program())))
            .collect();
        Script {
            rng,
            pool,
            digests,
            round: Vec::new(),
        }
    }

    /// The pool index of the next update and the reads that follow it.
    fn next(&mut self, base: &Base) -> (usize, Vec<Json>) {
        if self.round.is_empty() {
            self.round = (0..self.pool.len()).collect();
            shuffle(&mut self.rng, &mut self.round);
        }
        let edit = self.round.pop().expect("refilled");
        let program = self.digests[edit].clone();
        (edit, self.reads(base, &program))
    }

    fn reads(&mut self, base: &Base, program: &str) -> Vec<Json> {
        let mut kinds = READS.to_vec();
        shuffle(&mut self.rng, &mut kinds);
        let var = |rng: &mut SplitMix64| {
            let (m, v) = &base.vars[rng.below(base.vars.len())];
            (m.clone(), v.clone())
        };
        kinds
            .into_iter()
            .map(|kind| match kind {
                "points_to_batch" => {
                    let vars = (0..BATCH_VARS)
                        .map(|_| {
                            let (m, v) = var(&mut self.rng);
                            Json::obj([("method", Json::str(m)), ("var", Json::str(v))])
                        })
                        .collect();
                    request(kind, program, vec![("vars", Json::Arr(vars))])
                }
                "query" => {
                    let (m, v) = var(&mut self.rng);
                    request(
                        kind,
                        program,
                        vec![("method", Json::str(m)), ("var", Json::str(v))],
                    )
                }
                "may_alias" => {
                    let (ma, va) = var(&mut self.rng);
                    let (mb, vb) = var(&mut self.rng);
                    request(
                        kind,
                        program,
                        vec![
                            ("method_a", Json::str(ma)),
                            ("var_a", Json::str(va)),
                            ("method_b", Json::str(mb)),
                            ("var_b", Json::str(vb)),
                        ],
                    )
                }
                _ => {
                    let inv = &base.invs[self.rng.below(base.invs.len())];
                    request(kind, program, vec![("inv", Json::str(inv))])
                }
            })
            .collect()
    }
}

/// One update with the reads that followed it, kept for the oracle.
struct Cycle {
    edit: usize,
    fact_digest: String,
    reads: Vec<(Json, Json)>,
}

/// A started server with the base loaded and its database primed.
struct Session {
    server: Server,
    conn: Conn,
    base_digest: String,
}

fn update_request(base_digest: &str, edit: &Edit, traced: bool) -> Json {
    let mut pairs = vec![
        ("op", Json::str("update")),
        ("base", Json::str(base_digest)),
    ];
    pairs.extend(crate::serve::config_fields());
    pairs.push(match edit {
        Edit::Source(src) => ("source", Json::str(src.as_str())),
        Edit::Facts(text) => ("facts", Json::str(text.as_str())),
    });
    if traced {
        pairs.push(("trace", Json::str(TRACE_ID)));
    }
    Json::obj(pairs)
}

fn open_session(args: &Args, base: &Base, trace: bool) -> Result<Session, String> {
    let server = Server::start(&args.serve_bin, trace);
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let base_digest = conn.load_source(&base.source)?;
    // Priming: an update of the base to itself solves it from scratch and
    // keeps the database that later updates extend.
    conn.call(&update_request(
        &base_digest,
        &Edit::Source(base.source.clone()),
        false,
    ))?;
    Ok(Session {
        server,
        conn,
        base_digest,
    })
}

/// The key of a read: reads of one kind after one update of the pool.
fn read_key(edit: usize, req: &Json) -> usize {
    let op = req.get("op").and_then(Json::as_str).unwrap_or("");
    let kind = READS.iter().position(|&k| k == op).unwrap_or(READS.len());
    edit * (READS.len() + 1) + kind
}

/// Runs one cycle: update `edit` of the pool, then `reads`. Fails only
/// when the update fails; failed reads are counted in `run` and skipped.
/// Returns the cycle for the oracle and every reply, the update's first.
fn cycle(
    session: &mut Session,
    payload: &Edit,
    edit: usize,
    reads: Vec<Json>,
    traced: bool,
    run: &mut Run,
) -> Result<(Cycle, Vec<Reply>), String> {
    let request = update_request(&session.base_digest, payload, traced);
    let update = session.conn.call(&request).map_err(|e| {
        run.attempted += 1;
        format!("update: {e}")
    })?;
    run.primary_op(edit, update.ms);
    let fact_digest = update
        .body
        .get("fact_digest")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();
    let mut checked = Vec::new();
    let mut replies = vec![update];
    for mut req in reads {
        let key = read_key(edit, &req);
        if traced {
            if let Json::Obj(pairs) = &mut req {
                pairs.push(("trace".into(), Json::str(TRACE_ID)));
            }
        }
        match session.conn.call(&req) {
            Ok(reply) => {
                run.op("read", key, reply.ms);
                checked.push((req, reply.body.clone()));
                replies.push(reply);
            }
            Err(e) => {
                run.attempted += 1;
                run.fail(format!("read: {e}"));
            }
        }
    }
    let cycle = Cycle {
        edit,
        fact_digest,
        reads: checked,
    };
    Ok((cycle, replies))
}

/// Checks every recorded cycle against a from-scratch solve of its edited
/// program, one solve per pool entry, on two threads. Returns one message
/// per wrong answer.
fn oracle(pool: &[Edit], cycles: &[Cycle]) -> Vec<String> {
    let check = |edit: usize| -> Vec<String> {
        let db = AnalysisDb::solve(pool[edit].program(), &config());
        let digest = digest_str(db.fact_digest());
        let mut wrong = Vec::new();
        for (i, c) in cycles.iter().enumerate().filter(|(_, c)| c.edit == edit) {
            if digest != c.fact_digest {
                wrong.push(format!(
                    "update {i}: fact_digest {} != from-scratch {digest}",
                    c.fact_digest
                ));
            }
            for (req, reply) in &c.reads {
                if let Err(why) = check_read(db.program(), db.result(), req, reply) {
                    wrong.push(format!("update {i}: {why}"));
                }
            }
        }
        wrong
    };
    std::thread::scope(|scope| {
        let check = &check;
        let halves: Vec<_> = (0..2)
            .map(|half| {
                scope.spawn(move || {
                    (half..pool.len())
                        .step_by(2)
                        .flat_map(check)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}

fn check_read(
    program: &Program,
    r: &AnalysisResult,
    req: &Json,
    reply: &Json,
) -> Result<(), String> {
    let s = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_owned();
    let mut index: HashMap<(&str, &str), Var> = HashMap::new();
    for i in 0..program.var_count() {
        let method = program.method_names[program.var_method[i].index()].as_str();
        index.insert((method, program.var_names[i].as_str()), Var::from_index(i));
    }
    let heaps = |method: &str, var: &str| -> Json {
        let v = index[&(method, var)];
        Json::Arr(
            r.ci.points_to(v)
                .iter()
                .map(|h| Json::str(program.heap_names[h.index()].as_str()))
                .collect(),
        )
    };
    let op = s(req, "op");
    let ok = match op.as_str() {
        "points_to_batch" => {
            let vars = req.get("vars").and_then(Json::as_arr).unwrap_or(&[]);
            let results = reply.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            vars.len() == results.len()
                && vars
                    .iter()
                    .zip(results)
                    .all(|(v, got)| got.get("heaps") == Some(&heaps(&s(v, "method"), &s(v, "var"))))
        }
        "query" => reply.get("heaps") == Some(&heaps(&s(req, "method"), &s(req, "var"))),
        "may_alias" => {
            let a = index[&(s(req, "method_a").as_str(), s(req, "var_a").as_str())];
            let b = index[&(s(req, "method_b").as_str(), s(req, "var_b").as_str())];
            reply.get("may_alias").and_then(Json::as_bool) == Some(r.ci.may_alias(a, b))
        }
        _ => {
            let inv = s(req, "inv");
            let mut edges: Vec<(String, String)> =
                r.ci.call
                    .iter()
                    .filter(|&&(i, _)| program.inv_names[i.index()] == inv)
                    .map(|&(i, q)| {
                        let i = program.inv_names[i.index()].to_string();
                        (i, program.method_names[q.index()].to_string())
                    })
                    .collect();
            edges.sort();
            let want = Json::Arr(
                edges
                    .into_iter()
                    .map(|(i, q)| Json::Arr(vec![Json::Str(i), Json::Str(q)]))
                    .collect(),
            );
            reply.get("edges") == Some(&want)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{op} answer differs from the from-scratch solve"))
    }
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::new("update");
    let mut kept = None;
    for i in 0..SETUPS {
        let (base, script, session) = run.time_setup(|| {
            let base = base();
            let script = Script::new(args.seed, &base);
            let session = open_session(args, &base, false).expect("set-up");
            (base, script, session)
        });
        if i + 1 < SETUPS {
            session.server.stop();
        } else {
            kept = Some((base, script, session));
        }
    }
    let (base, mut script, mut session) = kept.expect("at least one set-up");
    let mut cycles = Vec::new();
    loop {
        let (edit, reads) = script.next(&base);
        match cycle(
            &mut session,
            &script.pool[edit],
            edit,
            reads,
            false,
            &mut run,
        ) {
            Ok((c, _)) => cycles.push(c),
            Err(why) => run.fail(why),
        }
        if script.round.is_empty() {
            run.end_block();
            if run.window_s >= args.seconds {
                break;
            }
        }
    }
    run.peak_rss_mb = crate::stats::peak_rss_mb(&session.server.pid());
    session.server.stop();
    for why in oracle(&script.pool, &cycles) {
        run.fail(why);
    }
    run
}

/// Replays one update in process, timing every public call the server
/// makes for it: request parse, compile (or facts parse), program digest,
/// diff, db clone, extend, result clone and fact digest.
fn replay(db: &AnalysisDb, payload: &Edit, layers: &mut Layers) {
    let line = update_request("0", payload, false).to_line();
    let parsed = layers.time("server.parse_ms", || {
        ctxform_server::protocol::parse_request(&line)
    });
    parsed.expect("update request parses");
    let next = match payload {
        Edit::Source(src) => {
            let ast = layers.time("minijava.parse_ms", || ctxform_minijava::parse(src));
            let ast = ast.expect("edit parses");
            let module = layers.time("minijava.lower_ms", || ctxform_minijava::lower(&ast));
            module.expect("edit lowers").program
        }
        Edit::Facts(text) => {
            let program = layers.time("ir.facts_parse_ms", || ctxform_ir::text::parse(text));
            program.expect("edit parses")
        }
    };
    layers.add("ir.input_facts", next.stats().input_facts as f64);
    layers.time("ir.index_ms", || next.index());
    layers.time("server.program_digest_ms", || {
        ctxform_server::db::program_digest(&next)
    });
    layers.time("ir.diff_ms", || ProgramDiff::between(db.program(), &next));
    let mut copy = layers.time("core.db_clone_ms", || db.clone());
    let t = Instant::now();
    let outcome = copy.extend(next);
    let ms = ms_since(t);
    let key = match outcome {
        ExtendOutcome::Incremental => "core.extend_ms.incremental",
        ExtendOutcome::Retracted => "core.extend_ms.retracted",
        _ => "core.extend_ms.fallback",
    };
    layers.add_ms(key, ms);
    layers.add_ms("core.extend_ms", ms);
    let result = layers.time("core.result_clone_ms", || copy.result().clone());
    record_solver_stats(layers, &result);
    layers.time("core.digest_ms", || copy.fact_digest());
}

/// The in-process replay of the traced prefix alone (its counters are the
/// ones [`crate::EXACT_COUNTERS`] checks).
pub fn replay_prefix(args: &Args) -> Layers {
    let base = base();
    let mut script = Script::new(args.seed, &base);
    let db = AnalysisDb::solve(base.program.clone(), &config().with_profiling());
    let mut layers = Layers::default();
    for _ in 0..PREFIX_UPDATES {
        let (edit, _) = script.next(&base);
        replay(&db, &script.pool[edit], &mut layers);
    }
    finish_replay(&mut layers);
    layers
}

fn finish_replay(layers: &mut Layers) {
    finish_solver_stats(layers);
    let per_update = layers.value("ir.input_facts") / PREFIX_UPDATES as f64;
    layers.set("ir.input_facts", per_update);
}

/// The traced run. Each of the first 16 cycles is served by an untraced
/// server, then by one started with `--trace` (whose replies carry
/// `took_us`), then replayed in process, so all three see the same
/// machine state. Attribution is per update: wire time, the non-solve
/// server spans of `update` requests and the replayed calls, against the
/// traced update latency.
pub fn traced(args: &Args) -> Traced {
    let base = base();
    let mut script = Script::new(args.seed, &base);
    let mut run = Run::new("update");
    let mut layers = Layers::default();
    let sessions = open_session(args, &base, false)
        .and_then(|plain| Ok((plain, open_session(args, &base, true)?)));
    let (mut plain, mut tracing) = match sessions {
        Ok(pair) => pair,
        Err(why) => {
            run.fail(why);
            return Traced { layers, run };
        }
    };
    let db = AnalysisDb::solve(base.program.clone(), &config().with_profiling());
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut replies, mut update_wire, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PREFIX_UPDATES {
        let (edit, reads) = script.next(&base);
        let payload = &script.pool[edit];
        for (session, traced) in [(&mut plain, false), (&mut tracing, true)] {
            match cycle(session, payload, edit, reads.clone(), traced, &mut run) {
                Ok((c, served)) if traced => {
                    traced_ms.push(served[0].ms);
                    update_wire.push(wire_ms(&served[0]));
                    replies.extend(served);
                    cycles.push(c);
                }
                Ok((_, served)) => untraced_ms.push(served[0].ms),
                Err(why) => run.fail(why),
            }
        }
        replay(&db, payload, &mut layers);
    }
    finish_replay(&mut layers);
    layers.set(
        "client.wire_ms",
        mean(&replies.iter().map(wire_ms).collect::<Vec<_>>()),
    );
    let bytes: Vec<f64> = replies.iter().map(|r| r.bytes as f64).collect();
    layers.set("server.reply_bytes", mean(&bytes));
    let server_rest = collect_server_layers(&mut tracing.conn, &mut layers, "update")
        .unwrap_or_else(|why| {
            run.fail(why);
            0.0
        });
    plain.server.stop();
    tracing.server.stop();
    for why in oracle(&script.pool, &cycles) {
        run.fail(why);
    }
    let replayed: f64 = [
        "server.parse_ms",
        "minijava.parse_ms",
        "minijava.lower_ms",
        "ir.facts_parse_ms",
        "server.program_digest_ms",
        "ir.diff_ms",
        "core.db_clone_ms",
        "core.extend_ms",
        "core.result_clone_ms",
        "core.digest_ms",
    ]
    .iter()
    .map(|key| layers.total_ms(key))
    .sum();
    let updates = PREFIX_UPDATES as f64;
    let attributed = mean(&update_wire) + server_rest + replayed / updates;
    set_attribution(
        &mut layers,
        mean(&untraced_ms),
        mean(&traced_ms),
        attributed,
        updates,
    );
    Traced { layers, run }
}
