//! The `ctxform-serve` process under test and one line-protocol connection
//! to it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ctxform_server::json::Json;

use crate::stats::{ms_since, ratio, Layers};

/// The trace id the benchmark tags its measured requests with.
pub const TRACE_ID: &str = "ctxbench";

/// Trace-ring capacity of a traced server (records).
const TRACE_RING: usize = 200_000;

/// A running `ctxform-serve --shards 1 --threads 1 --solver-threads 1`.
/// Dropping it kills the process if [`Server::stop`] did not end it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    pub fn start(bin: &Path, trace: bool) -> Server {
        let mut cmd = Command::new(bin);
        cmd.args([
            "--port",
            "0",
            "--shards",
            "1",
            "--threads",
            "1",
            "--solver-threads",
            "1",
        ]);
        if trace {
            cmd.args(["--trace", &TRACE_RING.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                panic!("ctxform-serve exited before listening");
            }
            addr = line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok());
        }
        // Keep draining the log so the server never blocks on a full pipe;
        // the thread ends when the process closes stderr.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        Server {
            child,
            addr: addr.expect("parsed"),
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and waits for the process to drain and exit.
    pub fn stop(mut self) {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.call(&Json::obj([("op", Json::str("shutdown"))]));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A reply with what the client observed.
pub struct Reply {
    pub body: Json,
    pub bytes: usize,
    pub ms: f64,
}

/// One connection speaking the newline-delimited JSON protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request/reply round trip, timed from the first byte written to
    /// the last byte read. An `"ok": false` reply is an error.
    pub fn call(&mut self, body: &Json) -> Result<Reply, String> {
        let mut line = body.to_line();
        line.push('\n');
        let t = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => return Err("connection closed".into()),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        let ms = ms_since(t);
        let body = Json::parse(reply.trim()).map_err(|e| format!("malformed reply: {e}"))?;
        if body.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: {}",
                body.get("error").and_then(Json::as_str).unwrap_or("?"),
                body.get("message").and_then(Json::as_str).unwrap_or("")
            ));
        }
        Ok(Reply {
            body,
            bytes: reply.len(),
            ms,
        })
    }

    /// `load_source`, returning the program digest.
    pub fn load_source(&mut self, source: &str) -> Result<String, String> {
        let reply = self.call(&Json::obj([
            ("op", Json::str("load_source")),
            ("source", Json::str(source)),
        ]))?;
        reply
            .body
            .get("program")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "load_source reply without `program`".to_owned())
    }
}

/// Client latency minus the server's `took_us`: time on the wire and in
/// the client and server network stacks.
pub fn wire_ms(reply: &Reply) -> f64 {
    let took_us = reply
        .body
        .get("took_us")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    reply.ms - took_us / 1000.0
}

/// Request fields naming the workload configuration (tstring 2-object+H).
pub fn config_fields() -> [(&'static str, Json); 2] {
    [
        ("abstraction", Json::str("tstring")),
        ("sensitivity", Json::str("2-object+H")),
    ]
}

/// Builds a request object from `op`, the configuration, and `fields`.
pub fn request(op: &str, program: &str, fields: Vec<(&'static str, Json)>) -> Json {
    let mut pairs = vec![("op", Json::str(op)), ("program", Json::str(program))];
    pairs.extend(config_fields());
    pairs.extend(fields);
    Json::obj(pairs)
}

/// Collects a traced server's span tree and cache statistics into
/// `layers`: the mean self time per request of each `server.*` span, the
/// result-cache hit ratio, and the span count. Returns the mean self time
/// per `endpoint` request of the spans on that request's blocking path
/// other than `server.solve`, whose work the in-process replay times.
pub fn collect_server_layers(
    conn: &mut Conn,
    layers: &mut Layers,
    endpoint: &str,
) -> Result<f64, String> {
    let trace = conn.call(&Json::obj([("op", Json::str("trace"))]))?.body;
    let empty = Vec::new();
    let records = trace
        .get("records")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    fn num(rec: &Json, key: &str) -> Option<u64> {
        rec.get(key).and_then(Json::as_u64)
    }
    let by_id: HashMap<u64, &Json> = records
        .iter()
        .filter_map(|r| Some((num(r, "id")?, r)))
        .collect();
    let mut child_us: HashMap<u64, f64> = HashMap::new();
    for rec in records {
        // The writer's wait for a reply runs concurrently with the
        // request's queue wait, solve and serialization, so it is not
        // subtracted from the request's self time.
        if rec.get("name").and_then(Json::as_str) == Some("server.reply_wait") {
            continue;
        }
        if let Some(parent) = num(rec, "parent") {
            *child_us.entry(parent).or_default() +=
                rec.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0);
        }
    }
    // The endpoint of the `server.request` root a record hangs under, for
    // requests the benchmark tagged with its trace id (set-up requests
    // such as loads and priming are not tagged).
    let root_endpoint = |mut id: u64| -> Option<String> {
        loop {
            let rec = by_id.get(&id)?;
            if rec.get("name").and_then(Json::as_str) == Some("server.request") {
                let fields = rec.get("fields")?;
                fields
                    .get("trace")
                    .and_then(Json::as_str)
                    .filter(|&t| t == TRACE_ID)?;
                return fields
                    .get("endpoint")
                    .and_then(Json::as_str)
                    .map(str::to_owned);
            }
            id = num(rec, "parent")?;
        }
    };
    let mut self_ms: HashMap<&str, f64> = HashMap::new();
    let (mut requests, mut endpoint_requests, mut endpoint_ms) = (0.0, 0.0, 0.0);
    for rec in records {
        let key = match rec.get("name").and_then(Json::as_str).unwrap_or("") {
            "server.request" => "server.request_self_ms",
            "server.queue_wait" => "server.queue_wait_ms",
            "server.solve" => "server.solve_ms",
            "server.serialize" => "server.serialize_ms",
            "server.reply_wait" => "server.reply_wait_ms",
            _ => continue,
        };
        let Some(id) = num(rec, "id") else { continue };
        let Some(root) = root_endpoint(id) else {
            continue;
        };
        let dur = rec.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0);
        let own = (dur - child_us.get(&id).copied().unwrap_or(0.0)) / 1000.0;
        *self_ms.entry(key).or_default() += own;
        let mine = root == endpoint;
        if key == "server.request_self_ms" {
            requests += 1.0;
            if mine {
                endpoint_requests += 1.0;
            }
        }
        if mine && !matches!(key, "server.solve_ms" | "server.reply_wait_ms") {
            endpoint_ms += own;
        }
    }
    for (key, total) in self_ms {
        layers.set(key, ratio(total, requests));
    }
    layers.set("obs.server_spans", records.len() as f64);
    let stats = conn.call(&Json::obj([("op", Json::str("stats"))]))?.body;
    let cache = stats.get("cache");
    let count = |key: &str| {
        cache
            .and_then(|c| c.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    layers.set(
        "server.cache_hit_ratio",
        ratio(count("hits"), count("hits") + count("misses")),
    );
    Ok(ratio(endpoint_ms, endpoint_requests))
}
