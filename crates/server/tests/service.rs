//! End-to-end tests of the query service over real TCP connections on
//! ephemeral ports: answer parity with direct `analyze` calls (including
//! pipelined and batched requests), the job queue's counters, cache
//! behaviour, malformed-input / oversized-line / overload replies,
//! per-request deadlines, loadgen under concurrency, and graceful
//! shutdown.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ctxform::{analyze, AnalysisConfig};
use ctxform_minijava::{compile, corpus};
use ctxform_server::client::{loadgen, Client, LoadGenConfig};
use ctxform_server::db::ci_digest;
use ctxform_server::json::Json;
use ctxform_server::protocol::digest_str;
use ctxform_server::server::{start, ServerConfig, ServerHandle};

/// The trace ring is process-global, so tests that flip tracing on and
/// off serialize through this gate rather than observing each other's
/// ring state mid-assertion.
static TRACE_GATE: Mutex<()> = Mutex::new(());

fn trace_gate() -> std::sync::MutexGuard<'static, ()> {
    TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_server(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        port: 0,
        threads: 2,
        queue_depth: 16,
        cache_bytes: 64 << 20,
        deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    configure(&mut config);
    start(config).expect("bind ephemeral port")
}

fn points_to_req(digest: &str, label: &str, method: &str, var: &str) -> Json {
    Json::obj([
        ("op", Json::str("points_to")),
        ("program", Json::str(digest)),
        ("abstraction", Json::str("tstring")),
        ("sensitivity", Json::str(label)),
        ("method", Json::str(method)),
        ("var", Json::str(var)),
    ])
}

fn str_arr(reply: &Json, key: &str) -> Vec<String> {
    reply
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing `{key}` in {}", reply.to_line()))
        .iter()
        .map(|v| v.as_str().unwrap().to_owned())
        .collect()
}

/// Every query endpoint must answer exactly what a direct `analyze` call
/// answers, for every corpus program and every variable.
#[test]
fn server_answers_equal_direct_analyze() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let label = "2-object+H";
    let config = AnalysisConfig::transformer_strings(label.parse().unwrap());

    for (name, source) in corpus::all() {
        let module = compile(source).unwrap();
        let direct = analyze(&module.program, &config);
        let program = &module.program;
        let digest = client.load_source(source).unwrap();

        // points_to: every variable.
        for v in 0..program.var_count() {
            let var = ctxform_ir::Var::from_index(v);
            let method = &program.method_names[program.var_method[v].index()];
            let reply = client
                .request(&points_to_req(
                    &digest,
                    label,
                    method,
                    &program.var_names[v],
                ))
                .unwrap();
            let got = str_arr(&reply, "heaps");
            let want: Vec<String> = direct
                .ci
                .points_to(var)
                .iter()
                .map(|h| program.heap_names[h.index()].clone())
                .collect();
            assert_eq!(got, want, "{name}: points_to({})", program.var_names[v]);
        }

        // may_alias: spot-check the first few variable pairs.
        for a in 0..program.var_count().min(4) {
            for b in 0..program.var_count().min(4) {
                let (va, vb) = (
                    ctxform_ir::Var::from_index(a),
                    ctxform_ir::Var::from_index(b),
                );
                let reply = client
                    .request(&Json::obj([
                        ("op", Json::str("may_alias")),
                        ("program", Json::str(digest.clone())),
                        ("abstraction", Json::str("tstring")),
                        ("sensitivity", Json::str(label)),
                        (
                            "method_a",
                            Json::str(&*program.method_names[program.var_method[a].index()]),
                        ),
                        ("var_a", Json::str(&*program.var_names[a])),
                        (
                            "method_b",
                            Json::str(&*program.method_names[program.var_method[b].index()]),
                        ),
                        ("var_b", Json::str(&*program.var_names[b])),
                    ]))
                    .unwrap();
                assert_eq!(
                    reply.get("may_alias").unwrap().as_bool(),
                    Some(direct.ci.may_alias(va, vb)),
                    "{name}: may_alias({a}, {b})"
                );
            }
        }

        // call_edges: the full resolved call graph.
        let reply = client
            .request(&Json::obj([
                ("op", Json::str("call_edges")),
                ("program", Json::str(digest.clone())),
                ("abstraction", Json::str("tstring")),
                ("sensitivity", Json::str(label)),
            ]))
            .unwrap();
        let mut want: Vec<(String, String)> = direct
            .ci
            .call
            .iter()
            .map(|&(i, q)| {
                (
                    program.inv_names[i.index()].clone(),
                    program.method_names[q.index()].clone(),
                )
            })
            .collect();
        want.sort();
        let got: Vec<(String, String)> = reply
            .get("edges")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| {
                let pair = e.as_arr().unwrap();
                (
                    pair[0].as_str().unwrap().to_owned(),
                    pair[1].as_str().unwrap().to_owned(),
                )
            })
            .collect();
        assert_eq!(got, want, "{name}: call_edges");

        // reachable: the method set.
        let reply = client
            .request(&Json::obj([
                ("op", Json::str("reachable")),
                ("program", Json::str(digest.clone())),
                ("abstraction", Json::str("tstring")),
                ("sensitivity", Json::str(label)),
            ]))
            .unwrap();
        let mut want: Vec<String> = direct
            .ci
            .reach
            .iter()
            .map(|m| program.method_names[m.index()].clone())
            .collect();
        want.sort();
        assert_eq!(str_arr(&reply, "methods"), want, "{name}: reachable");
    }

    server.shutdown();
    server.join();
}

/// The demand-driven path and a fact-file load agree with the exhaustive
/// context-insensitive answer.
#[test]
fn demand_and_fact_file_paths_agree() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let module = compile(corpus::BOX).unwrap();
    let direct = analyze(&module.program, &AnalysisConfig::insensitive());
    let program = &module.program;

    // The same program through the fact-file path lands on the same digest.
    let digest = client.load_source(corpus::BOX).unwrap();
    let facts = ctxform_ir::text::emit(program);
    let reply = client
        .request(&Json::obj([
            ("op", Json::str("load_facts")),
            ("facts", Json::str(facts)),
        ]))
        .unwrap();
    assert_eq!(reply.get("program").unwrap().as_str(), Some(&*digest));

    for v in 0..program.var_count() {
        let var = ctxform_ir::Var::from_index(v);
        let method = &program.method_names[program.var_method[v].index()];
        let reply = client
            .request(&Json::obj([
                ("op", Json::str("points_to")),
                ("program", Json::str(digest.clone())),
                ("method", Json::str(&**method)),
                ("var", Json::str(&*program.var_names[v])),
                ("demand", Json::Bool(true)),
            ]))
            .unwrap();
        assert_eq!(reply.get("demand").unwrap().as_bool(), Some(true));
        let want: Vec<String> = direct
            .ci
            .points_to(var)
            .iter()
            .map(|h| program.heap_names[h.index()].clone())
            .collect();
        assert_eq!(
            str_arr(&reply, "heaps"),
            want,
            "demand {}",
            program.var_names[v]
        );
    }

    server.shutdown();
    server.join();
}

/// A repeated query is answered from cache: `cached` flips to true, the
/// hit counter increments, and no second solve happens.
/// The `(method, var)` names of the program's first variable — a query
/// target that exists in every corpus program.
fn first_var(program: &ctxform_ir::Program) -> (String, String) {
    (
        program.method_names[program.var_method[0].index()].clone(),
        program.var_names[0].clone(),
    )
}

#[test]
fn repeated_query_hits_the_cache() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let digest = client.load_source(corpus::LIST).unwrap();
    let (method, var) = first_var(&compile(corpus::LIST).unwrap().program);
    let analyze_req = Json::obj([
        ("op", Json::str("analyze")),
        ("program", Json::str(digest.clone())),
        ("abstraction", Json::str("tstring")),
        ("sensitivity", Json::str("2-object+H")),
    ]);
    let first = client.request(&analyze_req).unwrap();
    assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
    let second = client.request(&analyze_req).unwrap();
    assert_eq!(second.get("cached").unwrap().as_bool(), Some(true));
    // Identical counts from the cached database.
    assert_eq!(
        first.get("total").unwrap().as_u64(),
        second.get("total").unwrap().as_u64()
    );

    // A point query on the same (program, config) also hits the cache.
    let reply = client
        .request(&points_to_req(&digest, "2-object+H", &method, &var))
        .unwrap();
    assert_eq!(reply.get("cached").unwrap().as_bool(), Some(true));

    let stats = client
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1), "one solve");
    assert!(cache.get("hits").unwrap().as_u64().unwrap() >= 2);
    assert_eq!(cache.get("entries").unwrap().as_u64(), Some(1));

    server.shutdown();
    server.join();
}

/// Malformed and invalid requests get typed error replies, not hangups.
#[test]
fn malformed_and_invalid_requests_get_error_replies() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let digest = client.load_source(corpus::BOX).unwrap();

    let cases: Vec<(String, &str)> = vec![
        ("this is not json\n".into(), "bad_request"),
        ("[1, 2, 3]\n".into(), "bad_request"),
        ("{\"op\": \"warp\"}\n".into(), "bad_request"),
        (
            "{\"op\": \"load_source\", \"source\": \"class { nope\"}\n".into(),
            "compile_error",
        ),
        (
            "{\"op\": \"load_facts\", \"facts\": \"frobnicate 1\"}\n".into(),
            "fact_error",
        ),
        (
            "{\"op\": \"analyze\", \"program\": \"00000000deadbeef\"}\n".into(),
            "unknown_program",
        ),
        (
            format!(
                "{{\"op\": \"points_to\", \"program\": \"{digest}\", \"method\": \"No.such\", \"var\": \"x\"}}\n"
            ),
            "unknown_method",
        ),
        (
            format!(
                "{{\"op\": \"points_to\", \"program\": \"{digest}\", \"method\": \"Main.main\", \"var\": \"nope\"}}\n"
            ),
            "unknown_var",
        ),
    ];
    for (line, want_code) in cases {
        let reply = client.request_raw(&line).unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false), "{line}");
        assert_eq!(
            reply.get("error").unwrap().as_str(),
            Some(want_code),
            "{line}"
        );
    }

    // The connection is still usable after every error.
    let reply = client
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    assert!(reply.get("endpoints").is_some());

    server.shutdown();
    server.join();
}

/// With one worker and a queue depth of one, pipelining
/// three slow requests on one connection forces at least one to be shed
/// with a typed `overloaded` reply — deterministically, in reply order,
/// without disturbing the work already accepted.
#[test]
fn overload_is_rejected_explicitly() {
    let server = test_server(|c| {
        c.threads = 1;
        c.queue_depth = 1;
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let sleep = Json::obj([("op", Json::str("sleep")), ("ms", Json::int(400))]);
    let replies = client
        .pipeline(&[sleep.clone(), sleep.clone(), sleep])
        .unwrap();

    // The first sleep always fits (the queue is empty when it arrives);
    // the worker holds one and the queue one more, so of three pipelined
    // sleeps at least one must be shed. `pipeline` already verified the
    // seq of every reply, so ordering survived the rejection.
    assert_eq!(
        replies[0].get("ok").unwrap().as_bool(),
        Some(true),
        "first sleep must be accepted: {}",
        replies[0].to_line()
    );
    let shed = replies
        .iter()
        .filter(|r| r.get("error").and_then(Json::as_str) == Some("overloaded"))
        .count();
    let slept = replies
        .iter()
        .filter(|r| r.get("ok").unwrap().as_bool() == Some(true))
        .count();
    assert!(shed >= 1, "no pipelined sleep was shed as overloaded");
    assert_eq!(shed + slept, 3, "every request got exactly one reply");
    for r in replies.iter().filter(|r| r.get("slept_ms").is_some()) {
        assert_eq!(r.get("slept_ms").unwrap().as_u64(), Some(400));
    }

    // The connection is still usable, and the queue counted the shed.
    let stats = client
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    assert_eq!(
        stats.get("rejected").and_then(Json::as_u64),
        Some(shed as u64),
        "queue rejected counter disagrees: {}",
        stats.to_line()
    );

    server.shutdown();
    server.join();
}

/// Work finishing past the configured deadline is answered with
/// `deadline_exceeded`.
#[test]
fn deadline_is_enforced() {
    let server = test_server(|c| c.deadline = Duration::from_millis(100));
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .request_raw("{\"op\": \"sleep\", \"ms\": 600}\n")
        .unwrap();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        reply.get("error").unwrap().as_str(),
        Some("deadline_exceeded")
    );
    // A fast request on the same connection still succeeds.
    let reply = client
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    assert!(reply.get("uptime_ms").is_some());
    server.shutdown();
    server.join();
}

/// Loadgen with 8 pipelined, batching connections completes with zero
/// protocol errors (which includes per-reply `seq` verification), and
/// shutdown drains in-flight requests before the daemon exits.
#[test]
fn loadgen_runs_clean_and_shutdown_drains() {
    let server = test_server(|c| {
        c.threads = 4;
        // 8 connections x pipeline 4 can all be queued at once.
        c.queue_depth = 64;
    });
    let addr = server.addr();
    let report = loadgen(
        addr,
        &LoadGenConfig {
            connections: 8,
            pipeline: 4,
            batch: 8,
            duration: Duration::from_millis(1200),
            sensitivity: "2-object+H".into(),
            ..LoadGenConfig::default()
        },
    )
    .expect("loadgen setup");
    assert_eq!(report.errors, 0, "protocol errors under concurrency");
    assert!(
        report.requests > 8,
        "only {} requests completed",
        report.requests
    );
    assert!(
        report.queries > report.requests,
        "batched requests must answer more logical queries ({}) than wire \
         requests ({})",
        report.queries,
        report.requests
    );
    assert!(report.latency_ms.max >= report.latency_ms.p50);
    assert!(
        report
            .per_op
            .iter()
            .any(|(op, stats)| op == "points_to_batch" && stats.count > 0),
        "per-op breakdown is missing the batch op: {:?}",
        report.per_op
    );

    // Graceful shutdown while a slow request is in flight: the sleeper
    // must still get its reply (drain), and join must return.
    let sleeper = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.request_raw("{\"op\": \"sleep\", \"ms\": 400}\n")
    });
    std::thread::sleep(Duration::from_millis(100));
    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(&Json::obj([("op", Json::str("shutdown"))]))
        .unwrap();
    assert_eq!(reply.get("draining").unwrap().as_bool(), Some(true));
    let slept = sleeper.join().unwrap().expect("in-flight request drained");
    assert_eq!(slept.get("ok").unwrap().as_bool(), Some(true));

    let report = server.join();
    assert!(report.contains("served"), "shutdown report: {report}");

    // The daemon is really gone: new connections fail or get no service.
    std::thread::sleep(Duration::from_millis(100));
    let alive = Client::connect(addr)
        .ok()
        .map(|mut c| c.request(&Json::obj([("op", Json::str("stats"))])).is_ok())
        .unwrap_or(false);
    assert!(!alive, "server still answering after join");
}

/// The `metrics` endpoint returns a parseable Prometheus text exposition
/// covering the serving layer, the database cache, and the solver's
/// per-rule counters.
#[test]
fn metrics_endpoint_serves_valid_prometheus_exposition() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    // One fresh solve so cache counters move and the solver registry has
    // per-rule series to render.
    let digest = client.load_source(corpus::BOX).unwrap();
    client
        .request(&Json::obj([
            ("op", Json::str("analyze")),
            ("program", Json::str(digest.clone())),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str("2-object+H")),
        ]))
        .unwrap();

    let reply = client
        .request(&Json::obj([("op", Json::str("metrics"))]))
        .unwrap();
    assert_eq!(
        reply.get("content_type").unwrap().as_str(),
        Some("text/plain; version=0.0.4")
    );
    let text = reply.get("exposition").unwrap().as_str().unwrap();

    // Strict scrape: every line is a comment or `name{labels} value` with
    // a float-parseable value, and every sample's metric family was
    // declared by a preceding # TYPE line.
    let mut declared = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a metric name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad kind in {line:?}"
            );
            declared.insert(name.to_owned());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = series.split('{').next().unwrap();
        let family = name
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            declared.contains(name) || declared.contains(family),
            "undeclared family for sample {line:?}"
        );
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
    }

    // Endpoint latencies.
    assert!(text.contains("# TYPE ctxform_request_duration_seconds histogram"));
    assert!(text
        .contains("ctxform_request_duration_seconds_bucket{endpoint=\"analyze\",le=\"+Inf\"} 1"));
    assert!(text.contains("ctxform_requests_total{endpoint=\"analyze\"} 1"));
    // Database cache counters.
    assert!(text.contains("ctxform_db_cache_hits_total "));
    assert!(text.contains("ctxform_db_cache_misses_total 1"));
    assert!(text.contains("ctxform_db_cache_evictions_total 0"));
    // Solver rule counters fed by the fresh solve.
    assert!(text.contains("ctxform_solver_solves_total 1"));
    assert!(
        text.contains("ctxform_solver_rule_fired_total{rule=\"New\"}"),
        "missing per-rule counter in:\n{text}"
    );
    assert!(text.contains("ctxform_solver_rule_derived_total{rule=\"Reach\"}"));
    assert!(text.contains("ctxform_solver_solve_seconds_count 1"));
    // Tracing / logging health series (present even with tracing off).
    assert!(text.contains("ctxform_trace_dropped_total "));
    assert!(text.contains("ctxform_trace_enabled "));
    assert!(text.contains("ctxform_log_emitted_total "));
    // Solver profiling series fed by the fresh (profiled) solve.
    assert!(text.contains("ctxform_solver_profiled_solves_total 1"));
    assert!(text.contains("ctxform_solver_phase_seconds_total{phase=\"eval\"}"));
    assert!(
        text.contains("ctxform_solver_rule_seconds_total{rule=\"New\"}"),
        "missing per-rule time counter in:\n{text}"
    );
    assert!(text.contains("ctxform_solver_bytes{section="));

    server.shutdown();
    server.join();
}

/// Client-supplied trace ids are echoed in replies, and the `trace`
/// endpoint returns the in-process trace ring as structured JSON.
#[test]
fn trace_ids_echo_and_trace_endpoint_round_trips() {
    let _gate = trace_gate();
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();

    // Without a trace id the reply has no trace field.
    let reply = client
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    assert!(reply.get("trace").is_none());

    // With one, it is echoed verbatim — on successes and on errors.
    let reply = client
        .request_raw("{\"op\": \"stats\", \"trace\": \"req-007\"}\n")
        .unwrap();
    assert_eq!(reply.get("trace").unwrap().as_str(), Some("req-007"));
    let reply = client
        .request_raw("{\"op\": \"warp\", \"trace\": \"req-008\"}\n")
        .unwrap();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(reply.get("trace").unwrap().as_str(), Some("req-008"));

    // The trace endpoint reports disabled + empty until tracing is on.
    let reply = client
        .request(&Json::obj([("op", Json::str("trace"))]))
        .unwrap();
    assert_eq!(reply.get("enabled").unwrap().as_bool(), Some(false));

    // Server workers share this process's trace ring, so enabling tracing
    // here makes their request spans visible to the trace endpoint.
    ctxform_obs::enable_tracing(4096);
    client
        .request_raw("{\"op\": \"stats\", \"trace\": \"req-traced\"}\n")
        .unwrap();
    let reply = client
        .request(&Json::obj([
            ("op", Json::str("trace")),
            ("limit", Json::int(256)),
        ]))
        .unwrap();
    ctxform_obs::disable_tracing();
    ctxform_obs::clear_trace();
    assert_eq!(reply.get("enabled").unwrap().as_bool(), Some(true));
    assert!(reply.get("dropped").unwrap().as_u64().is_some());
    let records = reply.get("records").unwrap().as_arr().unwrap();
    let traced = records.iter().find(|r| {
        r.get("name").and_then(Json::as_str) == Some("server.request")
            && r.get("fields")
                .and_then(|f| f.get("trace"))
                .and_then(Json::as_str)
                == Some("req-traced")
    });
    let span = traced.expect("request span with the client's trace id in the ring");
    assert_eq!(span.get("kind").unwrap().as_str(), Some("span"));
    assert_eq!(
        span.get("fields")
            .unwrap()
            .get("endpoint")
            .unwrap()
            .as_str(),
        Some("stats")
    );
    assert_eq!(
        span.get("fields").unwrap().get("ok").unwrap().as_bool(),
        Some(true)
    );

    server.shutdown();
    server.join();
}

/// Requests slower than the configured threshold land in the structured
/// slow-query log with their endpoint and trace id.
#[test]
fn slow_queries_are_logged_with_trace_ids() {
    let captured = ctxform_obs::logger::capture();
    let server = test_server(|c| c.slow_query_ms = 10);
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .request_raw("{\"op\": \"sleep\", \"ms\": 50, \"trace\": \"slowpoke\"}\n")
        .unwrap();
    client
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    server.shutdown();
    server.join();
    ctxform_obs::logger::log_to_stderr();

    let lines = captured.lock().unwrap();
    let slow: Vec<&String> = lines.iter().filter(|l| l.contains("slow query")).collect();
    assert!(
        slow.iter()
            .any(|l| l.contains("endpoint=sleep") && l.contains("trace=slowpoke")),
        "no slow-query line for the sleeper in {lines:?}"
    );
    assert!(
        !slow.iter().any(|l| l.contains("endpoint=stats")),
        "fast request must not hit the slow-query log"
    );
}

/// Three revisions of one program for the `update` endpoint: each `V<n+1>`
/// appends a driver class to `V<n>`, so V0→V1→V2 are purely-additive edits
/// while any reverse step is non-monotone.
const UPD_V0: &str = "class Box { Object item;
        void put(Object o) { this.item = o; }
        Object get() { Object r = this.item; return r; }
    }
    class Main {
        public static void main(String[] args) {
            Box b = new Box();
            Object o = new Object();
            b.put(o);
            Object r = b.get();
        }
    }";

fn upd_v1() -> String {
    format!(
        "{UPD_V0}
    class EditA {{
        public static void main(String[] args) {{
            Box b2 = new Box();
            Object p = new Object();
            b2.put(p);
            Object q = b2.get();
        }}
    }}"
    )
}

fn upd_v2() -> String {
    format!(
        "{}
    class EditB {{
        public static void main(String[] args) {{
            Box b3 = new Box();
            b3.put(new Object());
            Object s = b3.get();
        }}
    }}",
        upd_v1()
    )
}

fn update_req(base: &str, source: &str) -> Json {
    Json::obj([
        ("op", Json::str("update")),
        ("base", Json::str(base)),
        ("source", Json::str(source)),
        ("abstraction", Json::str("tstring")),
        ("sensitivity", Json::str("2-object+H")),
    ])
}

/// The `update` endpoint: an edit chain reuses cached databases
/// incrementally, non-monotone edits fall back, the edited program's
/// solution lands in the result cache, and the new counters are scraped
/// by both `stats` and `metrics`.
#[test]
fn update_endpoint_reuses_cached_databases() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let d0 = client.load_source(UPD_V0).unwrap();

    // First update: nothing extendable is resident yet, so this is a
    // recorded fallback that *seeds* the database chain.
    let r1 = client.request(&update_req(&d0, &upd_v1())).unwrap();
    assert_eq!(r1.get("incremental").unwrap().as_bool(), Some(false));
    assert_eq!(r1.get("base_cached").unwrap().as_bool(), Some(false));
    assert!(r1
        .get("reason")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("no cached database"));
    let d1 = r1.get("program").unwrap().as_str().unwrap().to_owned();

    // Second update: the V1 database is resident and the edit is purely
    // additive, so the solve resumes incrementally.
    let r2 = client.request(&update_req(&d1, &upd_v2())).unwrap();
    assert_eq!(r2.get("incremental").unwrap().as_bool(), Some(true));
    assert_eq!(r2.get("base_cached").unwrap().as_bool(), Some(true));
    assert!(r2.get("reason").is_none());
    let d2 = r2.get("program").unwrap().as_str().unwrap().to_owned();

    // Bit-identical to a from-scratch solve of the edited program: the
    // canonical fact digest matches a direct local solve.
    let config = AnalysisConfig::transformer_strings("2-object+H".parse().unwrap());
    let scratch = ctxform::AnalysisDb::solve(compile(&upd_v2()).unwrap().program, &config);
    assert_eq!(
        r2.get("fact_digest").unwrap().as_str().unwrap(),
        format!("{:016x}", scratch.fact_digest()),
        "incremental update diverged from a from-scratch solve"
    );

    // The update also populated the ordinary result cache: an analyze of
    // the edited program is answered without another solve.
    let reply = client
        .request(&Json::obj([
            ("op", Json::str("analyze")),
            ("program", Json::str(d2.clone())),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str("2-object+H")),
        ]))
        .unwrap();
    assert_eq!(reply.get("cached").unwrap().as_bool(), Some(true));

    // A reverse edit removes entities: resident database, but the diff is
    // non-monotone, so the server falls back (and says why).
    let r3 = client.request(&update_req(&d2, UPD_V0)).unwrap();
    assert_eq!(r3.get("incremental").unwrap().as_bool(), Some(false));
    assert_eq!(r3.get("base_cached").unwrap().as_bool(), Some(true));
    assert!(!r3.get("reason").unwrap().as_str().unwrap().is_empty());

    // Both counters are visible to stats and to a Prometheus scrape.
    let stats = client
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("incremental_reuse").unwrap().as_u64(), Some(1));
    assert_eq!(cache.get("incremental_fallback").unwrap().as_u64(), Some(2));
    let metrics = client
        .request(&Json::obj([("op", Json::str("metrics"))]))
        .unwrap();
    let text = metrics.get("exposition").unwrap().as_str().unwrap();
    assert!(text.contains("ctxform_db_incremental_reuse_total 1"));
    assert!(text.contains("ctxform_db_incremental_fallback_total 2"));

    // Unknown base digests stay typed errors.
    let reply = client
        .request_raw(&format!(
            "{}\n",
            update_req("00000000deadbeef", UPD_V0).to_line()
        ))
        .unwrap();
    assert_eq!(
        reply.get("error").unwrap().as_str(),
        Some("unknown_program")
    );

    server.shutdown();
    server.join();
}

/// The `update` endpoint's deletion path: an identical edit is a noop
/// that performs no solver work, a deleting edit over the fact wire is
/// re-solved with a bit-identical digest, the retraction counter reaches
/// `stats` and the Prometheus exposition, and demand slices cached for
/// the base digest are never served for the edited program.
#[test]
fn update_endpoint_retracts_and_keeps_demand_slices_fresh() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let d0 = client.load_source(UPD_V0).unwrap();

    // Seed the extendable-database chain (recorded fallback).
    let r1 = client.request(&update_req(&d0, &upd_v1())).unwrap();
    assert_eq!(r1.get("outcome").unwrap().as_str(), Some("fallback"));
    let d1 = r1.get("program").unwrap().as_str().unwrap().to_owned();

    let v1_program = compile(&upd_v1()).unwrap().program;
    let r_var = (0..v1_program.var_count())
        .find(|&v| {
            v1_program.var_names[v] == "r"
                && v1_program.method_names[v1_program.var_method[v].index()] == "Main.main"
        })
        .expect("Main.main declares r");
    let query_label = "1-object";
    let query = |client: &mut Client, digest: &str| {
        client
            .request(&Json::obj([
                ("op", Json::str("query")),
                ("program", Json::str(digest)),
                ("abstraction", Json::str("tstring")),
                ("sensitivity", Json::str(query_label)),
                ("method", Json::str("Main.main")),
                ("var", Json::str("r")),
            ]))
            .unwrap()
    };
    let query_config = AnalysisConfig::transformer_strings(query_label.parse().unwrap());
    let heaps_of = |program: &ctxform_ir::Program, result: &ctxform::AnalysisResult| {
        result
            .ci
            .points_to(ctxform_ir::Var::from_index(r_var))
            .iter()
            .map(|h| program.heap_names[h.index()].clone())
            .collect::<Vec<String>>()
    };

    // Prime the base digest's demand index; a repeat reuses it.
    let direct_v1 = analyze(&v1_program, &query_config);
    let want_v1 = heaps_of(&v1_program, &direct_v1);
    assert!(
        !want_v1.is_empty(),
        "r must point somewhere before the edit"
    );
    let q1 = query(&mut client, &d1);
    assert_eq!(q1.get("demand").unwrap().as_bool(), Some(true));
    assert_eq!(str_arr(&q1, "heaps"), want_v1);
    let q1_again = query(&mut client, &d1);
    assert_eq!(q1_again.get("slice_reused").unwrap().as_bool(), Some(true));

    // Identical edit: a noop that re-derives nothing. (The resumed
    // database used to re-report the base solve's counters here.)
    let r2 = client.request(&update_req(&d1, &upd_v1())).unwrap();
    assert_eq!(r2.get("outcome").unwrap().as_str(), Some("noop"));
    assert_eq!(r2.get("incremental").unwrap().as_bool(), Some(true));
    assert_eq!(r2.get("program").unwrap().as_str(), Some(&*d1));
    assert_eq!(
        r2.get("facts_derived").unwrap().as_u64(),
        Some(0),
        "an identical update must report zero derived facts"
    );

    // Deleting edit over the fact wire: drop the only `store` tuple
    // (Box.put's `this.item = o`), so every hpts fact and the pointee of
    // `r = b.get()` must be retracted.
    let mut retracted = v1_program.clone();
    retracted.facts.store.clear();
    let facts = ctxform_ir::text::emit(&retracted);
    let r3 = client
        .request(&Json::obj([
            ("op", Json::str("update")),
            ("base", Json::str(d1.clone())),
            ("facts", Json::str(facts)),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str("2-object+H")),
        ]))
        .unwrap();
    assert_eq!(r3.get("outcome").unwrap().as_str(), Some("retracted"));
    assert_eq!(r3.get("incremental").unwrap().as_bool(), Some(false));
    assert_eq!(r3.get("base_cached").unwrap().as_bool(), Some(true));
    let dr = r3.get("program").unwrap().as_str().unwrap().to_owned();
    assert_ne!(dr, d1);
    let config = AnalysisConfig::transformer_strings("2-object+H".parse().unwrap());
    let scratch = ctxform::AnalysisDb::solve(retracted.clone(), &config);
    assert_eq!(
        r3.get("fact_digest").unwrap().as_str().unwrap(),
        format!("{:016x}", scratch.fact_digest()),
        "retractive update diverged from a from-scratch solve"
    );

    // Freshness across the edit: the same query on the new digest must be
    // answered against the retracted program — never from the index
    // cached under the base digest.
    let direct_r = analyze(&retracted, &query_config);
    let want_r = heaps_of(&retracted, &direct_r);
    assert_ne!(want_r, want_v1, "the retraction must change r's answer");
    let q2 = query(&mut client, &dr);
    assert_eq!(q2.get("slice_reused").unwrap().as_bool(), Some(false));
    assert_eq!(str_arr(&q2, "heaps"), want_r);
    // The base digest's index is untouched and still serves old answers.
    let q3 = query(&mut client, &d1);
    assert_eq!(str_arr(&q3, "heaps"), want_v1);

    // Counters reach stats and the Prometheus exposition.
    let stats = client
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("incremental_noop").unwrap().as_u64(), Some(1));
    assert_eq!(
        cache.get("incremental_retracted").unwrap().as_u64(),
        Some(1)
    );
    let metrics = client
        .request(&Json::obj([("op", Json::str("metrics"))]))
        .unwrap();
    let text = metrics.get("exposition").unwrap().as_str().unwrap();
    for needle in [
        "ctxform_db_incremental_noop_total 1",
        "ctxform_db_incremental_retracted_total 1",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    server.shutdown();
    server.join();
}

/// A retractive `update` re-solves without touching the resident
/// snapshot it was based on: an additive `update` of the same base digest
/// still resumes that snapshot, doing exactly the work it did before the
/// retraction.
#[test]
fn retractive_update_leaves_the_base_snapshot_untouched() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let d0 = client.load_source(UPD_V0).unwrap();
    // Seed the database chain (a fallback solve of V1).
    let r1 = client.request(&update_req(&d0, &upd_v1())).unwrap();
    let d1 = r1.get("program").unwrap().as_str().unwrap().to_owned();
    let additive = |client: &mut Client| {
        let reply = client.request(&update_req(&d1, &upd_v2())).unwrap();
        assert_eq!(reply.get("outcome").unwrap().as_str(), Some("incremental"));
        assert_eq!(reply.get("incremental").unwrap().as_bool(), Some(true));
        let digest = reply
            .get("fact_digest")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        (
            reply.get("facts_derived").unwrap().as_u64().unwrap(),
            digest,
        )
    };
    let before = additive(&mut client);

    let mut retracted = compile(&upd_v1()).unwrap().program;
    retracted.facts.store.clear();
    let r2 = client
        .request(&Json::obj([
            ("op", Json::str("update")),
            ("base", Json::str(d1.clone())),
            ("facts", Json::str(ctxform_ir::text::emit(&retracted))),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str("2-object+H")),
        ]))
        .unwrap();
    assert_eq!(r2.get("outcome").unwrap().as_str(), Some("retracted"));

    assert_eq!(
        additive(&mut client),
        before,
        "the retraction changed the base snapshot"
    );
    server.shutdown();
    server.join();
}

/// Concurrent clients issuing the same cold query coalesce onto one solve.
#[test]
fn concurrent_cold_queries_solve_once() {
    let server = test_server(|_| {});
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    let digest = Arc::new(setup.load_source(corpus::DISPATCH).unwrap());
    let (method, var) = first_var(&compile(corpus::DISPATCH).unwrap().program);
    let target = Arc::new((method, var));
    let mut handles = Vec::new();
    for _ in 0..6 {
        let digest = digest.clone();
        let target = target.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client
                .request(&points_to_req(&digest, "2-object+H", &target.0, &target.1))
                .unwrap()
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = setup
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1), "one solve");
    server.shutdown();
    server.join();
}

/// Three connections each pipeline 64 mixed-op requests; every reply
/// comes back in request order with the right `seq` (checked by
/// [`Client::pipeline`]) and the right echoed trace id, and every answer
/// equals a direct `analyze` of the same program (`ci_digest` parity for
/// analyze, heap-set parity for points-to).
#[test]
fn pipelined_requests_reply_in_order_with_parity() {
    // Queues must absorb the full burst: 3 connections x 64 pipelined
    // requests can all be queued before the workers drain any.
    let server = test_server(|c| c.queue_depth = 256);
    let addr = server.addr();
    let label = "2-object+H";
    let config = AnalysisConfig::transformer_strings(label.parse().unwrap());

    // Direct answers per corpus program to compare against.
    let mut setup = Client::connect(addr).unwrap();
    let mut programs: Vec<(String, String, String, String, Vec<String>)> = Vec::new();
    for (_, source) in corpus::all() {
        let module = compile(source).unwrap();
        let direct = analyze(&module.program, &config);
        let digest = setup.load_source(source).unwrap();
        let (method, var) = first_var(&module.program);
        let heaps: Vec<String> = direct
            .ci
            .points_to(ctxform_ir::Var::from_index(0))
            .iter()
            .map(|h| module.program.heap_names[h.index()].clone())
            .collect();
        programs.push((digest, digest_str(ci_digest(&direct)), method, var, heaps));
    }
    let programs = Arc::new(programs);

    let handles: Vec<_> = (0..3)
        .map(|conn| {
            let programs = programs.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut bodies = Vec::new();
                for i in 0..64usize {
                    let (digest, _, method, var, _) = &programs[i % programs.len()];
                    let trace = format!("c{conn}-r{i}");
                    let body = match i % 3 {
                        0 => Json::obj([
                            ("op", Json::str("analyze")),
                            ("program", Json::str(digest.clone())),
                            ("abstraction", Json::str("tstring")),
                            ("sensitivity", Json::str("2-object+H")),
                            ("trace", Json::str(trace)),
                        ]),
                        1 => Json::obj([
                            ("op", Json::str("points_to")),
                            ("program", Json::str(digest.clone())),
                            ("abstraction", Json::str("tstring")),
                            ("sensitivity", Json::str("2-object+H")),
                            ("method", Json::str(method.clone())),
                            ("var", Json::str(var.clone())),
                            ("trace", Json::str(trace)),
                        ]),
                        _ => Json::obj([
                            ("op", Json::str("reachable")),
                            ("program", Json::str(digest.clone())),
                            ("abstraction", Json::str("tstring")),
                            ("sensitivity", Json::str("2-object+H")),
                            ("trace", Json::str(trace)),
                        ]),
                    };
                    bodies.push(body);
                }
                // `pipeline` writes all 64 lines before reading a single
                // reply and verifies every reply's seq.
                let replies = client.pipeline(&bodies).unwrap();
                assert_eq!(replies.len(), 64);
                for (i, reply) in replies.iter().enumerate() {
                    let (_, ci, _, _, heaps) = &programs[i % programs.len()];
                    assert_eq!(
                        reply.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "c{conn}-r{i}: {}",
                        reply.to_line()
                    );
                    assert_eq!(
                        reply.get("trace").and_then(Json::as_str),
                        Some(format!("c{conn}-r{i}").as_str()),
                        "trace must match the request at this position"
                    );
                    match i % 3 {
                        0 => assert_eq!(
                            reply.get("ci_digest").and_then(Json::as_str),
                            Some(ci.as_str()),
                            "c{conn}-r{i}: analyze diverged from direct analyze"
                        ),
                        1 => assert_eq!(
                            &str_arr(reply, "heaps"),
                            heaps,
                            "c{conn}-r{i}: points_to diverged from direct analyze"
                        ),
                        _ => assert!(
                            !str_arr(reply, "methods").is_empty(),
                            "c{conn}-r{i}: no reachable methods"
                        ),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    server.shutdown();
    server.join();
}

/// A 100 MB request line is answered with a typed `too_large` error while
/// the tail is still arriving — the server buffers at most the 4 MiB line
/// bound plus one read chunk, never the full payload — and the connection
/// (and its `seq` numbering) stays usable afterwards.
#[test]
fn oversized_line_gets_too_large_without_buffering_it() {
    use std::io::{Read, Write};

    let server = test_server(|_| {});
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    let read_line = |stream: &mut std::net::TcpStream, held: &mut Vec<u8>| -> Json {
        loop {
            if let Some(pos) = held.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = held.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line).into_owned();
                return Json::parse(text.trim()).unwrap_or_else(|_| panic!("bad reply: {text}"));
            }
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk).expect("reply before EOF");
            assert!(n > 0, "server hung up instead of replying too_large");
            held.extend_from_slice(&chunk[..n]);
        }
    };
    let mut held = Vec::new();

    // One newline-less 100 MB line, streamed in 1 MiB chunks. The server
    // must answer (and keep draining) long before the payload ends — if
    // it buffered the line, this test would grow the process by 100 MB
    // per run and the bounded-read assertion below would be meaningless.
    stream
        .write_all(b"{\"op\": \"stats\", \"junk\": \"")
        .unwrap();
    let chunk = vec![b'a'; 1 << 20];
    for _ in 0..100 {
        stream.write_all(&chunk).unwrap();
    }
    stream.write_all(b"\"}\n").unwrap();

    let reply = read_line(&mut stream, &mut held);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("too_large"),
        "want a typed too_large reply: {}",
        reply.to_line()
    );
    assert_eq!(
        reply.get("seq").and_then(Json::as_u64),
        Some(1),
        "the oversized line consumed seq 1"
    );

    // The connection survived: a normal request works and continues the
    // per-connection seq numbering.
    stream.write_all(b"{\"op\": \"stats\"}\n").unwrap();
    let reply = read_line(&mut stream, &mut held);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("seq").and_then(Json::as_u64), Some(2));
    assert!(reply.get("uptime_ms").is_some());

    server.shutdown();
    server.join();
}

/// `points_to_batch` answers every variable of a program in one framed
/// round-trip, each slot equal to the direct `analyze` answer, with
/// unknown variables failing per-slot instead of failing the batch.
#[test]
fn points_to_batch_matches_direct_analyze_per_slot() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let label = "2-object+H";
    let config = AnalysisConfig::transformer_strings(label.parse().unwrap());
    let module = compile(corpus::LIST).unwrap();
    let program = &module.program;
    let direct = analyze(program, &config);
    let digest = client.load_source(corpus::LIST).unwrap();

    let mut items: Vec<Json> = (0..program.var_count())
        .map(|v| {
            Json::obj([
                (
                    "method",
                    Json::str(&*program.method_names[program.var_method[v].index()]),
                ),
                ("var", Json::str(&*program.var_names[v])),
            ])
        })
        .collect();
    items.push(Json::obj([
        ("method", Json::str("Main.main")),
        ("var", Json::str("no_such_var")),
    ]));

    let reply = client
        .request(&Json::obj([
            ("op", Json::str("points_to_batch")),
            ("program", Json::str(digest.clone())),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str(label)),
            ("vars", Json::Arr(items)),
        ]))
        .unwrap();
    let n = program.var_count();
    assert_eq!(reply.get("count").unwrap().as_u64(), Some(n as u64 + 1));
    assert_eq!(reply.get("found").unwrap().as_u64(), Some(n as u64));
    let results = reply.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), n + 1, "results are positional");
    for (v, slot) in results.iter().enumerate().take(n) {
        let want: Vec<String> = direct
            .ci
            .points_to(ctxform_ir::Var::from_index(v))
            .iter()
            .map(|h| program.heap_names[h.index()].clone())
            .collect();
        assert_eq!(
            str_arr(slot, "heaps"),
            want,
            "batch slot {v} ({}) diverged from direct analyze",
            program.var_names[v]
        );
    }
    assert_eq!(
        results[n].get("error").and_then(Json::as_str),
        Some("unknown_var"),
        "unknown variable must fail its own slot only: {}",
        results[n].to_line()
    );

    // An oversized batch is a typed error, not unbounded work.
    let many: Vec<Json> = (0..65_537)
        .map(|_| Json::obj([("method", Json::str("Main.main")), ("var", Json::str("x"))]))
        .collect();
    let reply = client
        .request_raw(&format!(
            "{}\n",
            Json::obj([
                ("op", Json::str("points_to_batch")),
                ("program", Json::str(digest)),
                ("abstraction", Json::str("tstring")),
                ("sensitivity", Json::str(label)),
                ("vars", Json::Arr(many)),
            ])
            .to_line()
        ))
        .unwrap();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));

    server.shutdown();
    server.join();
}

/// Every op that names one variable resolves the name the same way, even
/// where nested scopes and arity overloads repeat a (method, variable)
/// pair: `points_to`, `query`, `points_to_batch` and `may_alias(v, v)`
/// all answer for the last variable with that pair.
#[test]
fn every_op_resolves_a_repeated_name_to_the_same_variable() {
    const SOURCE: &str = "class A {
             Object m() { Object y = new Object(); return y; }
             Object m(Object p) { Object y = p; return y; }
         }
         class Main {
             public static void main(String[] args) {
                 Object x = new Object();
                 if (true) { Object y = x; }
                 Object y = new A().m(x);
             }
         }";
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let program = compile(SOURCE).unwrap().program;
    let label = "1-call";
    let direct = analyze(
        &program,
        &AnalysisConfig::transformer_strings(label.parse().unwrap()),
    );
    let digest = client.load_source(SOURCE).unwrap();
    let method_of = |v: usize| program.method_names[program.var_method[v].index()].clone();
    // Each (method, variable) pair once, with the last variable bearing it.
    let mut names: Vec<((String, String), usize)> = Vec::new();
    for v in 0..program.var_count() {
        let name = (method_of(v), program.var_names[v].clone());
        names.retain(|(n, _)| *n != name);
        names.push((name, v));
    }
    assert!(
        names.len() < program.var_count(),
        "the program repeats (method, variable) pairs"
    );
    let op = |op: &str, extra: Vec<(&'static str, Json)>| {
        let mut fields = vec![
            ("op", Json::str(op)),
            ("program", Json::str(digest.clone())),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str(label)),
        ];
        fields.extend(extra);
        Json::obj(fields)
    };
    for ((method, var), v) in &names {
        let want: Vec<String> = direct
            .ci
            .points_to(ctxform_ir::Var::from_index(*v))
            .iter()
            .map(|h| program.heap_names[h.index()].clone())
            .collect();
        let named = || {
            vec![
                ("method", Json::str(method.as_str())),
                ("var", Json::str(var.as_str())),
            ]
        };
        // `query` first, so it is answered by the demand engine rather
        // than from the database `points_to` leaves resident.
        let query = client.request(&op("query", named())).unwrap();
        let points_to = client.request(&op("points_to", named())).unwrap();
        let batch = client
            .request(&op(
                "points_to_batch",
                vec![("vars", Json::Arr(vec![Json::obj(named())]))],
            ))
            .unwrap();
        let alias = client
            .request(&op(
                "may_alias",
                vec![
                    ("method_a", Json::str(method.as_str())),
                    ("var_a", Json::str(var.as_str())),
                    ("method_b", Json::str(method.as_str())),
                    ("var_b", Json::str(var.as_str())),
                ],
            ))
            .unwrap();
        let slot = &batch.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(str_arr(&query, "heaps"), want, "query {method}::{var}");
        assert_eq!(
            str_arr(&points_to, "heaps"),
            want,
            "points_to {method}::{var}"
        );
        assert_eq!(
            str_arr(slot, "heaps"),
            want,
            "points_to_batch {method}::{var}"
        );
        assert_eq!(
            alias.get("may_alias").and_then(Json::as_bool),
            Some(!want.is_empty()),
            "may_alias {method}::{var}"
        );
    }

    server.shutdown();
    server.join();
}

/// `stats` and `metrics` describe the one serving tier: its worker count,
/// queue depth and shed counter, and one database cache whose hits and
/// misses count every analyze request exactly once.
#[test]
fn stats_and_metrics_report_the_single_tier() {
    let server = test_server(|c| c.threads = 3);
    let mut client = Client::connect(server.addr()).unwrap();
    let analyze_req = |digest: &str| {
        Json::obj([
            ("op", Json::str("analyze")),
            ("program", Json::str(digest)),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str("2-object+H")),
        ])
    };
    let mut digests = Vec::new();
    for (_, source) in corpus::all() {
        let digest = client.load_source(source).unwrap();
        client.request(&analyze_req(&digest)).unwrap();
        digests.push(digest);
    }
    for _ in 0..8 {
        let reply = client.request(&analyze_req(&digests[0])).unwrap();
        assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
    }

    let stats = client
        .request(&Json::obj([("op", Json::str("stats"))]))
        .unwrap();
    let field = |key: &str| stats.get(key).and_then(Json::as_u64);
    assert_eq!(field("threads"), Some(3));
    assert_eq!(field("queue_depth"), Some(16));
    assert_eq!(field("queued"), Some(0));
    assert_eq!(field("rejected"), Some(0));
    let cache = stats.get("cache").unwrap();
    let count = |key: &str| cache.get(key).and_then(Json::as_u64);
    assert_eq!(
        count("misses"),
        Some(digests.len() as u64),
        "one solve each"
    );
    assert_eq!(count("hits"), Some(8), "every repeat answered from cache");
    assert_eq!(count("programs"), Some(digests.len() as u64));
    assert_eq!(count("budget"), Some(64 << 20), "the whole cache budget");

    let metrics = client
        .request(&Json::obj([("op", Json::str("metrics"))]))
        .unwrap();
    let text = metrics.get("exposition").unwrap().as_str().unwrap();
    for series in [
        "ctxform_queue_depth 0",
        "ctxform_queue_rejected_total 0",
        "ctxform_db_cache_hits_total 8",
        &format!("ctxform_db_cache_misses_total {}", digests.len()),
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }

    server.shutdown();
    server.join();
}

/// Cold context-sensitive `query` requests are answered by the demand
/// engine (no full solve) with the exact exhaustive points-to sets; once
/// a solved database is resident the same query is answered from it.
#[test]
fn query_answers_context_sensitively_without_full_solve() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let module = compile(corpus::LIST).unwrap();
    let program = &module.program;
    let digest = client.load_source(corpus::LIST).unwrap();
    let label = "1-call";
    let direct = analyze(
        &module.program,
        &AnalysisConfig::transformer_strings(label.parse().unwrap()),
    );

    let query = |client: &mut Client, v: usize| {
        client
            .request(&Json::obj([
                ("op", Json::str("query")),
                ("program", Json::str(digest.clone())),
                ("abstraction", Json::str("tstring")),
                ("sensitivity", Json::str(label)),
                (
                    "method",
                    Json::str(&*program.method_names[program.var_method[v].index()]),
                ),
                ("var", Json::str(&*program.var_names[v])),
            ]))
            .unwrap()
    };

    // Cold: every variable answered by the demand engine, byte-identical
    // to the exhaustive analysis. The first query builds the program's
    // demand index; every later one, whatever its root, reuses it.
    for v in 0..program.var_count() {
        let reply = query(&mut client, v);
        assert_eq!(reply.get("demand").unwrap().as_bool(), Some(true), "{v}");
        assert_eq!(reply.get("cached").unwrap().as_bool(), Some(false), "{v}");
        assert_eq!(
            reply.get("slice_reused").unwrap().as_bool(),
            Some(v > 0),
            "{v}"
        );
        let want: Vec<String> = direct
            .ci
            .points_to(ctxform_ir::Var::from_index(v))
            .iter()
            .map(|h| program.heap_names[h.index()].clone())
            .collect();
        assert_eq!(
            str_arr(&reply, "heaps"),
            want,
            "query {}",
            program.var_names[v]
        );
    }

    // Re-querying the same variable reuses the cached demand index too.
    let again = query(&mut client, 0);
    assert_eq!(again.get("slice_reused").unwrap().as_bool(), Some(true));

    // After a full solve the same query is answered from the solved db.
    client
        .request(&Json::obj([
            ("op", Json::str("analyze")),
            ("program", Json::str(digest.clone())),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str(label)),
        ]))
        .unwrap();
    for v in 0..program.var_count() {
        let reply = query(&mut client, v);
        assert_eq!(reply.get("cached").unwrap().as_bool(), Some(true), "{v}");
        assert_eq!(reply.get("demand").unwrap().as_bool(), Some(false), "{v}");
        let want: Vec<String> = direct
            .ci
            .points_to(ctxform_ir::Var::from_index(v))
            .iter()
            .map(|h| program.heap_names[h.index()].clone())
            .collect();
        assert_eq!(str_arr(&reply, "heaps"), want, "post-solve query {v}");
    }

    // `"subsumption": true` names an unsupported option: a typed error
    // on every configuration-bearing op.
    let err = client
        .request(&Json::obj([
            ("op", Json::str("query")),
            ("program", Json::str(digest.clone())),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str(label)),
            ("subsumption", Json::Bool(true)),
            (
                "method",
                Json::str(&*program.method_names[program.var_method[0].index()]),
            ),
            ("var", Json::str(&*program.var_names[0])),
        ]))
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("bad_request") && msg.contains("subsumption"),
        "want a typed bad_request for subsumption, got: {msg}"
    );
    let err = client
        .request(&Json::obj([
            ("op", Json::str("analyze")),
            ("program", Json::str(digest.clone())),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str(label)),
            ("subsumption", Json::Bool(true)),
        ]))
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("bad_request") && msg.contains("subsumption"),
        "want a typed bad_request for subsumption on analyze, got: {msg}"
    );

    // The demand counters made it into the exposition.
    let metrics = client
        .request(&Json::obj([("op", Json::str("metrics"))]))
        .unwrap();
    let text = metrics.get("exposition").unwrap().as_str().unwrap();
    for series in [
        "ctxform_demand_queries_total{mode=\"sliced\"}",
        "ctxform_demand_slice_reuse_total{outcome=\"hit\"}",
        "ctxform_demand_demanded_tuples_total",
        "ctxform_demand_sliced_facts_total",
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }

    server.shutdown();
    server.join();
}

/// `query_batch` answers positionally and keeps unknown variables as
/// per-slot error objects rather than failing the whole request.
#[test]
fn query_batch_mixes_answers_and_per_slot_errors() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let module = compile(corpus::BOX).unwrap();
    let program = &module.program;
    let digest = client.load_source(corpus::BOX).unwrap();
    let direct = analyze(
        &module.program,
        &AnalysisConfig::transformer_strings("1-object".parse().unwrap()),
    );

    let mut vars = Vec::new();
    for v in 0..program.var_count().min(3) {
        vars.push(Json::obj([
            (
                "method",
                Json::str(&*program.method_names[program.var_method[v].index()]),
            ),
            ("var", Json::str(&*program.var_names[v])),
        ]));
    }
    vars.push(Json::obj([
        ("method", Json::str("Main.main")),
        ("var", Json::str("no_such_var")),
    ]));
    let reply = client
        .request(&Json::obj([
            ("op", Json::str("query_batch")),
            ("program", Json::str(digest.clone())),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str("1-object")),
            ("vars", Json::Arr(vars)),
        ]))
        .unwrap();
    assert_eq!(reply.get("demand").unwrap().as_bool(), Some(true));
    let count = reply.get("count").unwrap().as_u64().unwrap() as usize;
    let found = reply.get("found").unwrap().as_u64().unwrap() as usize;
    assert_eq!(count, found + 1, "exactly one unknown slot");
    let results = reply.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), count);
    for (i, slot) in results.iter().enumerate().take(found) {
        let got: Vec<String> = slot
            .get("heaps")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|h| h.as_str().unwrap().to_owned())
            .collect();
        let want: Vec<String> = direct
            .ci
            .points_to(ctxform_ir::Var::from_index(i))
            .iter()
            .map(|h| program.heap_names[h.index()].clone())
            .collect();
        assert_eq!(got, want, "slot {i}");
    }
    assert_eq!(
        results[found].get("error").unwrap().as_str(),
        Some("unknown_var")
    );

    server.shutdown();
    server.join();
}

/// `--op query` loadgen drives only demand ops, cleanly, under
/// pipelining and several workers.
#[test]
fn loadgen_query_op_drives_demand_mix_cleanly() {
    let server = test_server(|c| {
        c.threads = 4;
        c.queue_depth = 64;
    });
    let report = loadgen(
        server.addr(),
        &LoadGenConfig {
            connections: 4,
            pipeline: 4,
            batch: 4,
            duration: Duration::from_millis(800),
            sensitivity: "1-call".into(),
            op: "query".into(),
            trace_sample: 2,
        },
    )
    .expect("loadgen setup");
    assert_eq!(report.errors, 0, "demand loadgen must run clean");
    assert!(report.requests > 0);
    // 1-in-2 requests carried a trace id; the report splits their
    // client-observed latency into server time vs overhead.
    let ts = report.trace_sample.as_ref().expect("trace sample stats");
    assert_eq!(ts.every, 2);
    assert!(ts.sampled > 0, "some requests must have been traced");
    assert!(
        ts.server_ms.p50 <= ts.client_ms.p50,
        "server `took_us` cannot exceed the client-observed latency \
         (server p50 {} ms vs client p50 {} ms)",
        ts.server_ms.p50,
        ts.client_ms.p50
    );
    for op in ["query", "query_batch"] {
        assert!(
            report.per_op.iter().any(|(o, s)| o == op && s.count > 0),
            "per-op breakdown is missing `{op}`: {:?}",
            report.per_op
        );
    }
    assert!(
        report
            .per_op
            .iter()
            .all(|(o, _)| o == "query" || o == "query_batch"),
        "demand mix must contain only demand ops: {:?}",
        report.per_op
    );
    server.shutdown();
    server.join();
}

/// A pipelined batch of 64 requests through one queue drained by four
/// workers: every reply's span
/// tree decomposes end-to-end latency into queue wait, solve, and
/// serialize phases, all parented under one `server.request` root
/// carrying that request's trace id — and traced replies carry the
/// server-side `took_us`.
#[test]
fn request_spans_decompose_queue_solve_serialize() {
    let _gate = trace_gate();
    ctxform_obs::enable_tracing(65_536);
    // The queue must absorb the burst: all 64 pipelined requests can
    // land before the workers drain any.
    let server = test_server(|c| {
        c.threads = 4;
        c.queue_depth = 256;
    });
    let mut client = Client::connect(server.addr()).unwrap();
    // Several corpus programs, solved concurrently by the workers.
    let digests: Vec<String> = corpus::all()
        .iter()
        .map(|(_, source)| client.load_source(source).unwrap())
        .collect();

    let bodies: Vec<Json> = (0..64usize)
        .map(|i| {
            let digest = &digests[i % digests.len()];
            Json::obj([
                ("op", Json::str("reachable")),
                ("program", Json::str(digest.clone())),
                ("abstraction", Json::str("tstring")),
                ("sensitivity", Json::str("2-object+H")),
                ("trace", Json::str(format!("span-{i}"))),
            ])
        })
        .collect();
    let replies = client.pipeline(&bodies).unwrap();
    assert_eq!(replies.len(), 64);
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            reply.get("trace").and_then(Json::as_str),
            Some(format!("span-{i}").as_str())
        );
        assert!(
            reply.get("took_us").and_then(Json::as_u64).is_some(),
            "traced replies must report server time: {}",
            reply.to_line()
        );
    }
    // Untraced replies carry neither a trace id nor `took_us`.
    let plain = client
        .request(&Json::obj([
            ("op", Json::str("reachable")),
            ("program", Json::str(digests[0].clone())),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str("2-object+H")),
        ]))
        .unwrap();
    assert!(plain.get("trace").is_none());
    assert!(plain.get("took_us").is_none());

    let dump = client
        .request(&Json::obj([("op", Json::str("trace"))]))
        .unwrap();
    ctxform_obs::disable_tracing();
    ctxform_obs::clear_trace();
    server.shutdown();
    server.join();

    let records = dump.get("records").unwrap().as_arr().unwrap();
    for i in 0..64usize {
        let trace = format!("span-{i}");
        let root = records
            .iter()
            .find(|r| {
                r.get("name").and_then(Json::as_str) == Some("server.request")
                    && r.get("fields")
                        .and_then(|f| f.get("trace"))
                        .and_then(Json::as_str)
                        == Some(trace.as_str())
            })
            .unwrap_or_else(|| panic!("no server.request root for {trace}"));
        let root_id = root.get("id").unwrap().as_u64().unwrap();
        let children: Vec<&str> = records
            .iter()
            .filter(|r| r.get("parent").and_then(Json::as_u64) == Some(root_id))
            .map(|r| r.get("name").and_then(Json::as_str).unwrap())
            .collect();
        for phase in ["server.queue_wait", "server.solve", "server.serialize"] {
            assert!(
                children.contains(&phase),
                "{trace}: root span is missing the `{phase}` child; got {children:?}"
            );
        }
    }
}

/// The `profile` op exposes the always-on solver profile: per-rule and
/// per-phase time, the memory footprint, and folded stacks — and
/// `--no-profile` turns the whole thing into zeros without changing
/// answers.
#[test]
fn profile_op_reports_rules_phases_and_folded_stacks() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let digest = client.load_source(corpus::BOX).unwrap();
    let traced = client
        .request(&points_to_req(&digest, "2-object+H", "Main.main", "r1"))
        .unwrap();
    let heaps = str_arr(&traced, "heaps");

    let profile = client
        .request(&Json::obj([("op", Json::str("profile"))]))
        .unwrap();
    assert_eq!(profile.get("enabled").unwrap().as_bool(), Some(true));
    assert!(profile.get("solves").unwrap().as_u64().unwrap() >= 1);
    let phases = profile.get("phases").unwrap();
    assert!(phases.get("eval_ns").unwrap().as_u64().unwrap() > 0);
    let rules = profile.get("rules").unwrap();
    assert!(
        rules.get("New").is_some(),
        "profiled solve must attribute time to the New rule: {}",
        profile.to_line()
    );
    assert!(profile.get("memory_bytes").unwrap().as_u64().unwrap() > 0);
    let folded = profile.get("folded").unwrap().as_str().unwrap();
    assert!(
        folded.lines().any(|l| l.starts_with("solver;eval;")),
        "folded stacks must include eval frames:\n{folded}"
    );
    server.shutdown();
    server.join();

    // With profiling off the endpoint still answers, reports itself
    // disabled, and the analysis answers are bit-identical.
    let server = test_server(|c| c.profile = false);
    let mut client = Client::connect(server.addr()).unwrap();
    let digest = client.load_source(corpus::BOX).unwrap();
    let reply = client
        .request(&points_to_req(&digest, "2-object+H", "Main.main", "r1"))
        .unwrap();
    assert_eq!(str_arr(&reply, "heaps"), heaps, "profiling changed answers");
    let profile = client
        .request(&Json::obj([("op", Json::str("profile"))]))
        .unwrap();
    assert_eq!(profile.get("enabled").unwrap().as_bool(), Some(false));
    assert_eq!(profile.get("solves").unwrap().as_u64(), Some(0));
    server.shutdown();
    server.join();
}

/// The `profile` op covers the updates the server runs, not only fresh
/// solves: one additive and one retractive `update` against a resident
/// database each fold one profiled run into the store. The retractive
/// one re-solves, so it adds seed and eval time and no other phase.
#[test]
fn profile_op_counts_incremental_and_retractive_updates() {
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let profile = |client: &mut Client| {
        client
            .request(&Json::obj([("op", Json::str("profile"))]))
            .unwrap()
    };
    let phase = |reply: &Json, name: &str| {
        reply
            .get("phases")
            .unwrap()
            .get(name)
            .and_then(Json::as_u64)
    };
    let d0 = client.load_source(UPD_V0).unwrap();
    // Seed the database chain (a fallback solve of V1).
    let r1 = client.request(&update_req(&d0, &upd_v1())).unwrap();
    assert_eq!(r1.get("outcome").unwrap().as_str(), Some("fallback"));
    let d1 = r1.get("program").unwrap().as_str().unwrap().to_owned();
    let before = profile(&mut client);
    let solves_before = before.get("solves").unwrap().as_u64().unwrap();

    let r2 = client.request(&update_req(&d1, &upd_v2())).unwrap();
    assert_eq!(r2.get("outcome").unwrap().as_str(), Some("incremental"));
    let mut retracted = compile(&upd_v1()).unwrap().program;
    retracted.facts.store.clear();
    let r3 = client
        .request(&Json::obj([
            ("op", Json::str("update")),
            ("base", Json::str(d1)),
            ("facts", Json::str(ctxform_ir::text::emit(&retracted))),
            ("abstraction", Json::str("tstring")),
            ("sensitivity", Json::str("2-object+H")),
        ]))
        .unwrap();
    assert_eq!(r3.get("outcome").unwrap().as_str(), Some("retracted"));

    let after = profile(&mut client);
    assert_eq!(
        after.get("solves").unwrap().as_u64().unwrap(),
        solves_before + 2,
        "both updates are profiled runs: {}",
        after.to_line()
    );
    for name in ["seed_ns", "eval_ns"] {
        assert!(
            phase(&after, name) > phase(&before, name),
            "{name} grew: {}",
            after.to_line()
        );
    }
    assert_eq!(phase(&after, "retract_ns"), None, "no retract phase");
    let folded = after.get("folded").unwrap().as_str().unwrap();
    assert!(
        folded
            .lines()
            .all(|l| l.starts_with("solver;seed ") || l.starts_with("solver;eval;")),
        "folded stacks hold only seed and eval frames:\n{folded}"
    );
    server.shutdown();
    server.join();
}

/// `trace {exemplars: true}` returns the slowest retained requests per
/// endpoint, each with its span subtree reconstructed from the ring —
/// even when `limit` truncates the record list itself to nothing.
#[test]
fn trace_exemplars_attach_span_subtrees() {
    let _gate = trace_gate();
    ctxform_obs::enable_tracing(65_536);
    let server = test_server(|_| {});
    let mut client = Client::connect(server.addr()).unwrap();
    let digest = client.load_source(corpus::BOX).unwrap();
    client
        .request_raw(&format!(
            "{{\"op\": \"points_to\", \"program\": \"{digest}\", \
             \"abstraction\": \"tstring\", \"sensitivity\": \"2-object+H\", \
             \"method\": \"Main.main\", \"var\": \"r1\", \"trace\": \"tail-probe\"}}\n"
        ))
        .unwrap();

    let reply = client
        .request(&Json::obj([
            ("op", Json::str("trace")),
            ("limit", Json::int(0)),
            ("exemplars", Json::Bool(true)),
        ]))
        .unwrap();
    ctxform_obs::disable_tracing();
    ctxform_obs::clear_trace();
    server.shutdown();
    server.join();

    assert!(
        reply.get("records").unwrap().as_arr().unwrap().is_empty(),
        "limit 0 must empty the record list"
    );
    let exemplars = reply.get("exemplars").unwrap().as_arr().unwrap();
    let probe = exemplars
        .iter()
        .find(|e| e.get("trace").and_then(Json::as_str) == Some("tail-probe"))
        .expect("the traced points_to request must rank among the exemplars");
    assert_eq!(probe.get("endpoint").unwrap().as_str(), Some("points_to"));
    assert!(probe.get("latency_us").unwrap().as_u64().is_some());
    let spans = probe.get("spans").unwrap().as_arr().unwrap();
    assert!(
        spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("server.request")),
        "exemplar subtree must keep its root span despite limit 0"
    );
    assert!(
        spans.len() >= 2,
        "subtree must include phase children, got {} spans",
        spans.len()
    );
}

/// A deadline bust arms the flight recorder: the trace ring and the
/// queue depth land in the configured file for the post-mortem.
#[test]
fn deadline_bust_dumps_a_flight_record() {
    let path = std::env::temp_dir().join(format!(
        "ctxform-flight-service-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let server = test_server(|c| {
        c.deadline = Duration::from_millis(80);
        c.flight_path = Some(path.clone());
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .request_raw("{\"op\": \"sleep\", \"ms\": 300}\n")
        .unwrap();
    assert_eq!(
        reply.get("error").unwrap().as_str(),
        Some("deadline_exceeded")
    );
    server.shutdown();
    server.join();

    let text = std::fs::read_to_string(&path).expect("flight record file");
    let doc = Json::parse(&text).expect("flight record is valid JSON");
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("ctxform-flight/2")
    );
    assert_eq!(
        doc.get("reason").unwrap().as_str(),
        Some("deadline_exceeded")
    );
    assert_eq!(doc.get("queued").and_then(Json::as_u64), Some(0));
    assert!(doc.get("trace").is_some());
    let _ = std::fs::remove_file(&path);
}
