//! The wire protocol: newline-delimited JSON requests and replies.
//!
//! Every request is one JSON object on one line with an `"op"` field; every
//! reply is one JSON object on one line with `"ok": true` plus the answer
//! fields, or `"ok": false` plus a machine-readable `"error"` code and a
//! human-readable `"message"`. An optional `"id"` request field is echoed
//! verbatim in the reply, and the server stamps every reply with a
//! per-connection `"seq"` (1-based request index), so clients may write
//! many request lines before reading replies — pipelining — and verify
//! that reply order matches request order. `points_to_batch` answers many
//! variable queries against one cached database in a single framed
//! round-trip ([`MAX_BATCH_VARS`] bound).
//!
//! Analysis-bearing requests name a program by the 16-hex-digit digest
//! returned from `load_source`/`load_facts`, and a configuration by
//! `"abstraction"` (`"insensitive"` default, `"cstring"`, `"tstring"`),
//! `"sensitivity"` (a label like `"2-object+H"`, required for the
//! context-sensitive abstractions). The removed `"subsumption": true`
//! flag is refused with `bad_request`.

use std::fmt;

use ctxform::{AbstractionKind, AnalysisConfig};

use crate::json::{hex16, Json};

/// Machine-readable error codes of `"ok": false` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line is not valid JSON or not a valid request shape.
    BadRequest,
    /// MiniJava source failed to compile.
    CompileError,
    /// A fact file failed to parse or validate.
    FactError,
    /// No loaded program has the given digest.
    UnknownProgram,
    /// No method with the given name.
    UnknownMethod,
    /// No variable with the given name in the given method.
    UnknownVar,
    /// Request processing exceeded the per-request deadline.
    DeadlineExceeded,
    /// The job queue (or the connection limit) was full;
    /// retry later.
    Overloaded,
    /// The request line exceeded the per-line byte bound.
    TooLarge,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// Anything else.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::CompileError => "compile_error",
            ErrorCode::FactError => "fact_error",
            ErrorCode::UnknownProgram => "unknown_program",
            ErrorCode::UnknownMethod => "unknown_method",
            ErrorCode::UnknownVar => "unknown_var",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed protocol error (code + message), convertible into a reply line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The machine-readable code.
    pub code: ErrorCode,
    /// The human-readable explanation.
    pub message: String,
}

impl ProtoError {
    /// Creates an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Upper bound on `points_to_batch` fan-in: generous enough for "thousands
/// of variable queries in one round-trip" while keeping one request line
/// from monopolizing a worker indefinitely.
pub const MAX_BATCH_VARS: usize = 65_536;

/// A `(method name, variable name)` pair addressing one program variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarRef {
    /// Qualified method name, e.g. `"Main.main"`.
    pub method: String,
    /// Variable name within the method, e.g. `"r1"`.
    pub var: String,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile MiniJava source into a cached program database.
    LoadSource {
        /// The MiniJava source text.
        source: String,
    },
    /// Parse a `ctxform_ir::text` fact file into a cached program database.
    LoadFacts {
        /// The fact-file text.
        facts: String,
    },
    /// Bring a cached analysis database up to date with an edited program.
    ///
    /// Names the *base* program by digest and carries the edited program
    /// in full (as MiniJava source or a fact file). When the server holds
    /// a solved database for `(base, config)` and the edit is purely
    /// additive, the solve resumes incrementally from the saved state;
    /// otherwise it falls back to a from-scratch solve. Either way the
    /// edited program is loaded and its solution cached under its own
    /// digest.
    Update {
        /// Base program digest from a previous load.
        base: u64,
        /// Edited MiniJava source (exactly one of `source`/`facts`).
        source: Option<String>,
        /// Edited fact-file text (exactly one of `source`/`facts`).
        facts: Option<String>,
        /// The analysis configuration.
        config: AnalysisConfig,
    },
    /// Solve (or fetch the cached solution of) a program under a config.
    Analyze {
        /// Program digest from `load_source`/`load_facts`.
        program: u64,
        /// The analysis configuration.
        config: AnalysisConfig,
    },
    /// The points-to set of one variable.
    PointsTo {
        /// Program digest.
        program: u64,
        /// The analysis configuration.
        config: AnalysisConfig,
        /// The queried variable.
        var: VarRef,
        /// Answer via the demand-driven slice engine instead of the
        /// exhaustive (cached) solver; context-insensitive only.
        demand: bool,
    },
    /// The points-to sets of many variables against one cached database,
    /// answered in a single framed round-trip (amortizes framing for
    /// clients asking thousands of `points_to` questions).
    PointsToBatch {
        /// Program digest.
        program: u64,
        /// The analysis configuration.
        config: AnalysisConfig,
        /// The queried variables, answered positionally.
        vars: Vec<VarRef>,
    },
    /// Demand-driven points-to query: answered from the cached solved
    /// database when one is resident, otherwise via the demand engine
    /// (native CI derivation slice + gated context-sensitive solve) *without*
    /// triggering a full exhaustive solve.
    Query {
        /// Program digest.
        program: u64,
        /// The analysis configuration.
        config: AnalysisConfig,
        /// The queried variable.
        var: VarRef,
    },
    /// Demand-driven points-to queries for many variables in one framed
    /// round-trip; one shared demand slice answers the whole batch
    /// ([`MAX_BATCH_VARS`] bound).
    QueryBatch {
        /// Program digest.
        program: u64,
        /// The analysis configuration.
        config: AnalysisConfig,
        /// The queried variables, answered positionally.
        vars: Vec<VarRef>,
    },
    /// Whether two variables may alias.
    MayAlias {
        /// Program digest.
        program: u64,
        /// The analysis configuration.
        config: AnalysisConfig,
        /// First variable.
        a: VarRef,
        /// Second variable.
        b: VarRef,
    },
    /// The resolved call graph (invocation site → target method).
    CallEdges {
        /// Program digest.
        program: u64,
        /// The analysis configuration.
        config: AnalysisConfig,
        /// Restrict to one invocation site by name.
        inv: Option<String>,
    },
    /// The reachable methods, or a membership test for one method.
    Reachable {
        /// Program digest.
        program: u64,
        /// The analysis configuration.
        config: AnalysisConfig,
        /// Test just this method.
        method: Option<String>,
    },
    /// Server statistics.
    Stats,
    /// Prometheus text exposition of server + solver metrics.
    Metrics,
    /// Aggregated solver profile: per-rule wall-time histograms, phase
    /// timings, byte accounting, and a folded-stack (flamegraph-ready)
    /// rendering of where solve time went.
    Profile,
    /// The collected trace spans/events (requires tracing enabled on
    /// the server; see `--trace` on `ctxform-serve`).
    Trace {
        /// Return only the newest `limit` records.
        limit: Option<usize>,
        /// Also return the slowest-request exemplars per endpoint, each
        /// with its reconstructed span subtree.
        exemplars: bool,
    },
    /// Hold a worker for `ms` milliseconds (testing aid: exercises queue
    /// backpressure and per-request deadlines deterministically).
    Sleep {
        /// How long to hold the worker.
        ms: u64,
    },
    /// Begin graceful shutdown: drain in-flight requests, then exit.
    Shutdown,
}

impl Request {
    /// The endpoint label used by metrics and the `stats` reply.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::LoadSource { .. } => "load_source",
            Request::LoadFacts { .. } => "load_facts",
            Request::Update { .. } => "update",
            Request::Analyze { .. } => "analyze",
            Request::PointsTo { .. } => "points_to",
            Request::PointsToBatch { .. } => "points_to_batch",
            Request::Query { .. } => "query",
            Request::QueryBatch { .. } => "query_batch",
            Request::MayAlias { .. } => "may_alias",
            Request::CallEdges { .. } => "call_edges",
            Request::Reachable { .. } => "reachable",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Profile => "profile",
            Request::Trace { .. } => "trace",
            Request::Sleep { .. } => "sleep",
            Request::Shutdown => "shutdown",
        }
    }
}

fn bad(message: impl Into<String>) -> ProtoError {
    ProtoError::new(ErrorCode::BadRequest, message)
}

fn req_str(obj: &Json, key: &str) -> Result<String, ProtoError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| bad(format!("missing string field `{key}`")))
}

fn opt_str(obj: &Json, key: &str) -> Option<String> {
    obj.get(key).and_then(Json::as_str).map(str::to_owned)
}

fn req_program(obj: &Json) -> Result<u64, ProtoError> {
    let digest = req_str(obj, "program")?;
    u64::from_str_radix(&digest, 16)
        .map_err(|_| bad(format!("`program` is not a hex digest: `{digest}`")))
}

fn req_var(obj: &Json, method_key: &str, var_key: &str) -> Result<VarRef, ProtoError> {
    Ok(VarRef {
        method: req_str(obj, method_key)?,
        var: req_str(obj, var_key)?,
    })
}

/// Reads a non-empty, [`MAX_BATCH_VARS`]-bounded `vars` array of
/// `{method, var}` objects (the batch-op fan-in shape).
fn req_var_array(obj: &Json, op: &str) -> Result<Vec<VarRef>, ProtoError> {
    let items = obj
        .get("vars")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad(format!("`{op}` needs a `vars` array")))?;
    if items.is_empty() {
        return Err(bad("`vars` must not be empty"));
    }
    if items.len() > MAX_BATCH_VARS {
        return Err(bad(format!(
            "`vars` has {} entries; the per-request limit is {MAX_BATCH_VARS}",
            items.len()
        )));
    }
    let mut vars = Vec::with_capacity(items.len());
    for item in items {
        vars.push(req_var(item, "method", "var")?);
    }
    Ok(vars)
}

/// Reads the analysis configuration fields of a request.
fn req_config(obj: &Json) -> Result<AnalysisConfig, ProtoError> {
    let abstraction = opt_str(obj, "abstraction").unwrap_or_else(|| "insensitive".into());
    let sensitivity = match opt_str(obj, "sensitivity") {
        Some(label) => Some(
            label
                .parse()
                .map_err(|e| bad(format!("bad `sensitivity`: {e}")))?,
        ),
        None => None,
    };
    let config = match abstraction.as_str() {
        "insensitive" | "ci" => AnalysisConfig::insensitive(),
        "cstring" | "context-strings" => AnalysisConfig::context_strings(
            sensitivity.ok_or_else(|| bad("`cstring` requires a `sensitivity`"))?,
        ),
        "tstring" | "transformer-strings" => AnalysisConfig::transformer_strings(
            sensitivity.ok_or_else(|| bad("`tstring` requires a `sensitivity`"))?,
        ),
        other => return Err(bad(format!("unknown abstraction `{other}`"))),
    };
    if obj.get("subsumption").and_then(Json::as_bool) == Some(true) {
        return Err(bad(
            "`subsumption` was removed: subsumption elimination is no longer supported",
        ));
    }
    if obj.get("threads").is_some_and(|t| t.as_u64() != Some(1)) {
        return Err(bad(
            "`threads` was removed: the solver is serial, so only `1` is accepted",
        ));
    }
    Ok(config)
}

/// Request envelope fields that ride alongside the operation: the
/// client-chosen `id` (echoed verbatim) and the optional `trace` id
/// (echoed verbatim and attached to the server's request span and
/// slow-query log, so one query can be followed across client logs,
/// server logs, and trace dumps).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestMeta {
    /// The `"id"` field, any JSON value.
    pub id: Option<Json>,
    /// The `"trace"` field (client-supplied trace id).
    pub trace: Option<String>,
    /// Server-assigned per-connection request sequence number, echoed as
    /// `"seq"` in every reply so pipelining clients can verify that reply
    /// order matches request order. `None` for replies built outside a
    /// connection (accept-time rejections, unit tests).
    pub seq: Option<u64>,
}

impl RequestMeta {
    /// Builds an `"ok": true` reply echoing this envelope.
    pub fn ok_reply(&self, mut fields: Vec<(&'static str, Json)>) -> String {
        if let Some(seq) = self.seq {
            fields.push(("seq", Json::uint(seq)));
        }
        if let Some(trace) = &self.trace {
            fields.push(("trace", Json::str(trace)));
        }
        ok_reply(self.id.as_ref(), fields)
    }

    /// Builds an `"ok": false` reply echoing this envelope.
    pub fn err_reply(&self, error: &ProtoError) -> String {
        let mut pairs: Vec<(String, Json)> = Vec::with_capacity(6);
        if let Some(id) = &self.id {
            pairs.push(("id".into(), id.clone()));
        }
        pairs.push(("ok".into(), Json::Bool(false)));
        pairs.push(("error".into(), Json::str(error.code.as_str())));
        pairs.push(("message".into(), Json::str(&*error.message)));
        if let Some(seq) = self.seq {
            pairs.push(("seq".into(), Json::uint(seq)));
        }
        if let Some(trace) = &self.trace {
            pairs.push(("trace".into(), Json::str(trace)));
        }
        let mut line = Json::Obj(pairs).to_line();
        line.push('\n');
        line
    }
}

/// Best-effort envelope extraction for request lines that failed to
/// parse into a typed request: a well-formed JSON object with a bad or
/// missing `op` still gets its `id` and `trace` echoed in the error
/// reply. Lines that are not JSON objects yield an empty envelope.
pub fn salvage_meta(line: &str) -> RequestMeta {
    match Json::parse(line) {
        Ok(obj @ Json::Obj(_)) => RequestMeta {
            id: obj.get("id").cloned(),
            trace: opt_str(&obj, "trace"),
            seq: None,
        },
        _ => RequestMeta::default(),
    }
}

/// Parses one request line into its envelope ([`RequestMeta`]) and the
/// typed request.
///
/// # Errors
///
/// Returns a [`ProtoError`] with [`ErrorCode::BadRequest`] for malformed
/// JSON, a missing/unknown `op`, or missing/ill-typed fields.
pub fn parse_request(line: &str) -> Result<(RequestMeta, Request), ProtoError> {
    let obj = Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    if !matches!(obj, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    let meta = RequestMeta {
        id: obj.get("id").cloned(),
        trace: opt_str(&obj, "trace"),
        seq: None,
    };
    let op = req_str(&obj, "op")?;
    let request = match op.as_str() {
        "load_source" => Request::LoadSource {
            source: req_str(&obj, "source")?,
        },
        "load_facts" => Request::LoadFacts {
            facts: req_str(&obj, "facts")?,
        },
        "update" => {
            let source = opt_str(&obj, "source");
            let facts = opt_str(&obj, "facts");
            if source.is_some() == facts.is_some() {
                return Err(bad("`update` needs exactly one of `source`/`facts`"));
            }
            let base = req_str(&obj, "base")?;
            let base = u64::from_str_radix(&base, 16)
                .map_err(|_| bad(format!("`base` is not a hex digest: `{base}`")))?;
            Request::Update {
                base,
                source,
                facts,
                config: req_config(&obj)?,
            }
        }
        "analyze" => Request::Analyze {
            program: req_program(&obj)?,
            config: req_config(&obj)?,
        },
        "points_to" => Request::PointsTo {
            program: req_program(&obj)?,
            config: req_config(&obj)?,
            var: req_var(&obj, "method", "var")?,
            demand: obj.get("demand").and_then(Json::as_bool).unwrap_or(false),
        },
        "points_to_batch" => Request::PointsToBatch {
            program: req_program(&obj)?,
            config: req_config(&obj)?,
            vars: req_var_array(&obj, "points_to_batch")?,
        },
        "query" => Request::Query {
            program: req_program(&obj)?,
            config: req_config(&obj)?,
            var: req_var(&obj, "method", "var")?,
        },
        "query_batch" => Request::QueryBatch {
            program: req_program(&obj)?,
            config: req_config(&obj)?,
            vars: req_var_array(&obj, "query_batch")?,
        },
        "may_alias" => Request::MayAlias {
            program: req_program(&obj)?,
            config: req_config(&obj)?,
            a: req_var(&obj, "method_a", "var_a")?,
            b: req_var(&obj, "method_b", "var_b")?,
        },
        "call_edges" => Request::CallEdges {
            program: req_program(&obj)?,
            config: req_config(&obj)?,
            inv: opt_str(&obj, "inv"),
        },
        "reachable" => Request::Reachable {
            program: req_program(&obj)?,
            config: req_config(&obj)?,
            method: opt_str(&obj, "method"),
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "profile" => Request::Profile,
        "trace" => Request::Trace {
            limit: obj.get("limit").and_then(Json::as_u64).map(|n| n as usize),
            exemplars: obj
                .get("exemplars")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        },
        "sleep" => Request::Sleep {
            ms: obj
                .get("ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("`sleep` needs an integer `ms`"))?,
        },
        "shutdown" => Request::Shutdown,
        other => return Err(bad(format!("unknown op `{other}`"))),
    };
    Ok((meta, request))
}

/// Builds an `"ok": true` reply line (with trailing newline).
pub fn ok_reply(id: Option<&Json>, fields: Vec<(&'static str, Json)>) -> String {
    let mut pairs: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 2);
    if let Some(id) = id {
        pairs.push(("id".into(), id.clone()));
    }
    pairs.push(("ok".into(), Json::Bool(true)));
    for (k, v) in fields {
        pairs.push((k.into(), v));
    }
    let mut line = Json::Obj(pairs).to_line();
    line.push('\n');
    line
}

/// Builds an `"ok": false` reply line (with trailing newline).
pub fn err_reply(id: Option<&Json>, error: &ProtoError) -> String {
    let mut pairs: Vec<(String, Json)> = Vec::with_capacity(4);
    if let Some(id) = id {
        pairs.push(("id".into(), id.clone()));
    }
    pairs.push(("ok".into(), Json::Bool(false)));
    pairs.push(("error".into(), Json::str(error.code.as_str())));
    pairs.push(("message".into(), Json::str(&*error.message)));
    let mut line = Json::Obj(pairs).to_line();
    line.push('\n');
    line
}

/// Canonical cache tag of a configuration — the database key component
/// alongside the program digest. Distinct configurations that cannot give
/// different answers (e.g. recorded facts) still get distinct tags only
/// when the flag changes results, so the tag is built from the
/// answer-relevant fields alone.
pub fn config_tag(config: &AnalysisConfig) -> String {
    let sens = config
        .sensitivity
        .map(|s| s.to_string())
        .unwrap_or_else(|| "-".into());
    let kind = match config.abstraction {
        AbstractionKind::Insensitive => "ci",
        AbstractionKind::ContextStrings => "cstring",
        AbstractionKind::TransformerStrings => "tstring",
    };
    format!("{kind}/{sens}")
}

/// Renders a program digest for the wire.
pub fn digest_str(digest: u64) -> String {
    hex16(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let lines = [
            (
                r#"{"op": "load_source", "source": "class Main {}"}"#,
                "load_source",
            ),
            (r##"{"op": "load_facts", "facts": "# f"}"##, "load_facts"),
            (
                r#"{"op": "analyze", "program": "00000000000000ff", "abstraction": "tstring", "sensitivity": "2-object+H"}"#,
                "analyze",
            ),
            (
                r#"{"op": "update", "base": "ff", "source": "class Main {}"}"#,
                "update",
            ),
            (
                r#"{"op": "points_to", "program": "ff", "method": "Main.main", "var": "x"}"#,
                "points_to",
            ),
            (
                r#"{"op": "points_to_batch", "program": "ff", "vars": [{"method": "Main.main", "var": "x"}, {"method": "Main.main", "var": "y"}]}"#,
                "points_to_batch",
            ),
            (
                r#"{"op": "query", "program": "ff", "abstraction": "tstring", "sensitivity": "2-object+H", "method": "Main.main", "var": "x"}"#,
                "query",
            ),
            (
                r#"{"op": "query_batch", "program": "ff", "vars": [{"method": "Main.main", "var": "x"}]}"#,
                "query_batch",
            ),
            (
                r#"{"op": "may_alias", "program": "ff", "method_a": "M.m", "var_a": "x", "method_b": "M.m", "var_b": "y"}"#,
                "may_alias",
            ),
            (r#"{"op": "call_edges", "program": "ff"}"#, "call_edges"),
            (r#"{"op": "reachable", "program": "ff"}"#, "reachable"),
            (r#"{"op": "stats"}"#, "stats"),
            (r#"{"op": "metrics"}"#, "metrics"),
            (r#"{"op": "profile"}"#, "profile"),
            (r#"{"op": "trace", "limit": 100}"#, "trace"),
            (r#"{"op": "trace", "exemplars": true}"#, "trace"),
            (r#"{"op": "sleep", "ms": 5}"#, "sleep"),
            (r#"{"op": "shutdown"}"#, "shutdown"),
        ];
        for (line, endpoint) in lines {
            let (_, req) = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(req.endpoint(), endpoint);
        }
    }

    #[test]
    fn id_is_parsed_and_echoed() {
        let (meta, _) = parse_request(r#"{"id": 7, "op": "stats"}"#).unwrap();
        assert_eq!(meta.id, Some(Json::Num(7.0)));
        assert_eq!(meta.trace, None);
        let reply = ok_reply(meta.id.as_ref(), vec![("x", Json::int(1))]);
        assert_eq!(reply, "{\"id\": 7, \"ok\": true, \"x\": 1}\n");
        // Without a trace id the envelope reply is byte-identical to the
        // plain one — the field is strictly additive.
        assert_eq!(meta.ok_reply(vec![("x", Json::int(1))]), reply);
        let err = err_reply(
            meta.id.as_ref(),
            &ProtoError::new(ErrorCode::Internal, "boom"),
        );
        let parsed = Json::parse(err.trim()).unwrap();
        assert_eq!(parsed.get("error").unwrap().as_str(), Some("internal"));
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn seq_is_stamped_on_ok_and_error_replies() {
        let (mut meta, _) = parse_request(r#"{"id": 9, "trace": "t-1", "op": "stats"}"#).unwrap();
        assert_eq!(meta.seq, None, "the parser never invents a seq");
        meta.seq = Some(3);
        let ok = meta.ok_reply(vec![("x", Json::int(1))]);
        assert_eq!(
            ok,
            "{\"id\": 9, \"ok\": true, \"x\": 1, \"seq\": 3, \"trace\": \"t-1\"}\n"
        );
        let err = meta.err_reply(&ProtoError::new(ErrorCode::TooLarge, "big"));
        let parsed = Json::parse(err.trim()).unwrap();
        assert_eq!(parsed.get("seq").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("error").unwrap().as_str(), Some("too_large"));
    }

    #[test]
    fn batch_vars_parse_positionally() {
        let (_, req) = parse_request(
            r#"{"op": "points_to_batch", "program": "ff", "vars": [{"method": "A.m", "var": "x"}, {"method": "B.n", "var": "y"}]}"#,
        )
        .unwrap();
        let Request::PointsToBatch { vars, .. } = req else {
            panic!("wrong variant");
        };
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].method, "A.m");
        assert_eq!(vars[1].var, "y");
    }

    #[test]
    fn trace_exemplars_flag_parses() {
        let (_, req) = parse_request(r#"{"op": "trace", "limit": 8}"#).unwrap();
        assert_eq!(
            req,
            Request::Trace {
                limit: Some(8),
                exemplars: false
            }
        );
        let (_, req) = parse_request(r#"{"op": "trace", "exemplars": true}"#).unwrap();
        assert_eq!(
            req,
            Request::Trace {
                limit: None,
                exemplars: true
            }
        );
    }

    #[test]
    fn trace_id_is_parsed_and_echoed() {
        let (meta, _) = parse_request(r#"{"id": 1, "trace": "req-42", "op": "stats"}"#).unwrap();
        assert_eq!(meta.trace.as_deref(), Some("req-42"));
        let ok = meta.ok_reply(vec![("x", Json::int(1))]);
        assert_eq!(
            ok,
            "{\"id\": 1, \"ok\": true, \"x\": 1, \"trace\": \"req-42\"}\n"
        );
        let err = meta.err_reply(&ProtoError::new(ErrorCode::Internal, "boom"));
        let parsed = Json::parse(err.trim()).unwrap();
        assert_eq!(parsed.get("trace").unwrap().as_str(), Some("req-42"));
    }

    #[test]
    fn malformed_requests_are_bad_request() {
        for line in [
            "not json",
            "[1, 2]",
            r#"{"op": "warp"}"#,
            r#"{"source": "class Main {}"}"#,
            r#"{"op": "points_to", "program": "zz", "method": "M.m", "var": "x"}"#,
            r#"{"op": "analyze", "program": "ff", "abstraction": "tstring"}"#,
            r#"{"op": "analyze", "program": "ff", "abstraction": "tstring", "sensitivity": "9-warp"}"#,
            r#"{"op": "sleep"}"#,
            r#"{"op": "points_to_batch", "program": "ff"}"#,
            r#"{"op": "points_to_batch", "program": "ff", "vars": []}"#,
            r#"{"op": "points_to_batch", "program": "ff", "vars": [{"method": "M.m"}]}"#,
            r#"{"op": "query", "program": "ff", "method": "M.m"}"#,
            r#"{"op": "query", "program": "zz", "method": "M.m", "var": "x"}"#,
            r#"{"op": "query_batch", "program": "ff"}"#,
            r#"{"op": "query_batch", "program": "ff", "vars": []}"#,
            r#"{"op": "query_batch", "program": "ff", "vars": [{"var": "x"}]}"#,
            r#"{"op": "update", "base": "ff"}"#,
            r##"{"op": "update", "base": "ff", "source": "class Main {}", "facts": "# f"}"##,
            r#"{"op": "update", "base": "zz", "source": "class Main {}"}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn config_fields_resolve() {
        let (_, req) = parse_request(
            r#"{"op": "analyze", "program": "1", "abstraction": "cstring", "sensitivity": "1-call"}"#,
        )
        .unwrap();
        let Request::Analyze { program, config } = req else {
            panic!("wrong variant");
        };
        assert_eq!(program, 1);
        assert_eq!(config.abstraction, AbstractionKind::ContextStrings);
        assert_eq!(config_tag(&config), "cstring/1-call");
        let (_, req) = parse_request(r#"{"op": "analyze", "program": "1"}"#).unwrap();
        let Request::Analyze { config, .. } = req else {
            panic!("wrong variant");
        };
        assert_eq!(config, AnalysisConfig::insensitive());
        assert_eq!(config_tag(&config), "ci/-");
    }

    /// Every configuration-bearing op refuses `"subsumption": true`
    /// with `bad_request` rather than silently solving without it;
    /// `false` asks for nothing the server does not do and is accepted.
    #[test]
    fn removed_subsumption_flag_is_rejected() {
        for op in [
            r#""op": "update", "base": "ff", "source": "class Main {}""#,
            r#""op": "analyze", "program": "1""#,
            r#""op": "points_to", "program": "1", "method": "M.m", "var": "x""#,
            r#""op": "points_to_batch", "program": "1", "vars": [{"method": "M.m", "var": "x"}]"#,
            r#""op": "query", "program": "1", "method": "M.m", "var": "x""#,
            r#""op": "query_batch", "program": "1", "vars": [{"method": "M.m", "var": "x"}]"#,
            r#""op": "may_alias", "program": "1", "method_a": "M.m", "var_a": "x", "method_b": "M.m", "var_b": "y""#,
            r#""op": "call_edges", "program": "1""#,
            r#""op": "reachable", "program": "1""#,
        ] {
            let line = format!(
                r#"{{{op}, "abstraction": "tstring", "sensitivity": "1-call+H", "subsumption": true}}"#
            );
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert!(
                err.message.contains("subsumption"),
                "{line}: {}",
                err.message
            );
            let accepted = line.replace(r#""subsumption": true"#, r#""subsumption": false"#);
            assert!(parse_request(&accepted).is_ok(), "{accepted}");
        }
    }

    #[test]
    fn removed_threads_field_is_rejected() {
        for op in [
            r#""op": "update", "base": "ff", "source": "class Main {}""#,
            r#""op": "analyze", "program": "1""#,
            r#""op": "points_to", "program": "1", "method": "M.m", "var": "x""#,
            r#""op": "points_to_batch", "program": "1", "vars": [{"method": "M.m", "var": "x"}]"#,
            r#""op": "query", "program": "1", "method": "M.m", "var": "x""#,
            r#""op": "query_batch", "program": "1", "vars": [{"method": "M.m", "var": "x"}]"#,
            r#""op": "may_alias", "program": "1", "method_a": "M.m", "var_a": "x", "method_b": "M.m", "var_b": "y""#,
            r#""op": "call_edges", "program": "1""#,
            r#""op": "reachable", "program": "1""#,
        ] {
            let serial = format!(
                r#"{{{op}, "abstraction": "tstring", "sensitivity": "1-call+H", "threads": 1}}"#
            );
            assert!(parse_request(&serial).is_ok(), "{serial}");
            for threads in ["4", "0"] {
                let line = serial.replace(r#""threads": 1"#, &format!(r#""threads": {threads}"#));
                let err = parse_request(&line).unwrap_err();
                assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
                assert!(err.message.contains("threads"), "{line}: {}", err.message);
            }
        }
    }
}
