//! `ctxbench` — the repository benchmark.
//!
//! ```text
//! ctxbench --workload fig6-batch|edit-session|query-cold --seed N
//!          --seconds S --trace 0|1 --serve-bin PATH [--check-counters]
//! ```
//!
//! `--trace 0` runs the workload untraced for `S` seconds of measured work
//! and prints every end-to-end metric, timings at reference speed (see
//! [`Run::speed`]); `--trace 1` runs the separate traced run and prints
//! every per-layer metric. `--check-counters` replays the workload's
//! deterministic prefix twice and fails if any exact work counter differs. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when an oracle check failed. See `README.md` for the
//! workloads, the metric → layer → workload map, and the traced run.

mod cold;
mod edit;
mod fig6;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{fast_ms, harrell_davis, median, percentile, reference_ms, Layers};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Seconds of measured work between two runs of the reference kernel.
const REFERENCE_EVERY_S: f64 = 1.0;
/// The reference kernel's fast time that defines reference speed.
const REFERENCE_MS: f64 = 20.0;

/// Command-line options shared by every workload.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub serve_bin: PathBuf,
}

/// What an untraced run measured.
pub struct Run {
    /// Seconds from start to the first timed op, once per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of measured work (ops only; oracles excluded).
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
    /// The op kind whose latency is `p50_ms` / `p95_ms`.
    pub primary: &'static str,
    /// Client-observed latency samples (ms) of each distinct op, by kind
    /// and key.
    pub lat: BTreeMap<(&'static str, usize), Vec<f64>>,
    /// Completed blocks: passes or rounds over the workload's distinct ops.
    pub blocks: u64,
    /// Times (ms) of the reference kernel, run between ops.
    pub reference_ms: Vec<f64>,
    /// Times (ms) of the reference kernel, run before each set-up.
    pub setup_reference_ms: Vec<f64>,
    reference_due_s: f64,
    /// Workload-specific lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Run {
    pub fn new(primary: &'static str) -> Run {
        Run {
            setup_s: Vec::new(),
            window_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            peak_rss_mb: 0.0,
            primary,
            lat: BTreeMap::new(),
            blocks: 0,
            reference_ms: Vec::new(),
            setup_reference_ms: Vec::new(),
            reference_due_s: 0.0,
            notes: Vec::new(),
        }
    }

    /// Runs and times one set-up, after a run of the reference kernel.
    pub fn time_setup<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        self.setup_reference_ms.push(reference_ms());
        let t = Instant::now();
        let out = setup();
        self.setup_s.push(t.elapsed().as_secs_f64());
        out
    }

    /// Records op `key` of `kind` (the same kind and key name the same op,
    /// or ops of the same cost, in every block).
    pub fn op(&mut self, kind: &'static str, key: usize, ms: f64) {
        self.attempted += 1;
        self.window_s += ms / 1000.0;
        self.lat.entry((kind, key)).or_default().push(ms);
        if self.window_s >= self.reference_due_s {
            self.reference_ms.push(reference_ms());
            self.reference_due_s = self.window_s + REFERENCE_EVERY_S;
        }
    }

    /// Records the primary op `key`.
    pub fn primary_op(&mut self, key: usize, ms: f64) {
        self.op(self.primary, key, ms);
    }

    /// Closes a block: every distinct op has run once more.
    pub fn end_block(&mut self) {
        self.blocks += 1;
    }

    /// The fast latency of each distinct primary op.
    pub fn primary_fast_ms(&self) -> Vec<f64> {
        self.lat
            .iter()
            .filter(|((kind, _), _)| *kind == self.primary)
            .map(|(_, samples)| fast_ms(samples))
            .collect()
    }

    /// Ops per second with every op at its fast latency: the ops run, over
    /// the time they take when each run of an op lasts its fast latency.
    pub fn fast_ops_per_s(&self) -> f64 {
        let (ops, ms) = self.lat.values().fold((0.0, 0.0), |(ops, ms), samples| {
            let n = samples.len() as f64;
            (ops + n, ms + n * fast_ms(samples))
        });
        stats::ratio(ops, ms / 1000.0)
    }

    /// The machine's speed while the ops ran, relative to reference speed.
    pub fn speed(&self) -> f64 {
        speed(&self.reference_ms)
    }

    /// The machine's speed while the set-ups ran.
    pub fn setup_speed(&self) -> f64 {
        speed(&self.setup_reference_ms)
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// The machine's speed relative to reference speed, from runs of the
/// reference kernel: [`REFERENCE_MS`] over their fast time. Below 1 when
/// the machine ran slow.
fn speed(reference_ms: &[f64]) -> f64 {
    if reference_ms.is_empty() {
        1.0
    } else {
        REFERENCE_MS / fast_ms(reference_ms)
    }
}

/// What a traced run measured: the layers, and the ops and oracle
/// failures of its prefix.
pub struct Traced {
    pub layers: Layers,
    pub run: Run,
}

/// Work counters that must repeat bit for bit for one seed.
pub const EXACT_COUNTERS: [&str; 7] = [
    "core.events",
    "core.probes",
    "core.facts",
    "algebra.compose_calls",
    "algebra.interned_contexts",
    "core.overdeleted",
    "demand.slice_derivations",
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// layer a workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("minijava.parse_ms", "ms"),
    ("minijava.lower_ms", "ms"),
    ("ir.input_facts", "count"),
    ("ir.index_ms", "ms"),
    ("ir.diff_ms", "ms"),
    ("ir.facts_parse_ms", "ms"),
    ("algebra.compose_calls", "count"),
    ("algebra.memo_hit_ratio", "ratio"),
    ("algebra.interned_contexts", "count"),
    ("core.solve_ms.cstring", "ms"),
    ("core.solve_ms.tstring", "ms"),
    ("core.seed_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.rule_ms.Entry", "ms"),
    ("core.rule_ms.New", "ms"),
    ("core.rule_ms.Assign", "ms"),
    ("core.rule_ms.Load", "ms"),
    ("core.rule_ms.Store", "ms"),
    ("core.rule_ms.SLoad", "ms"),
    ("core.rule_ms.SStore", "ms"),
    ("core.rule_ms.Param", "ms"),
    ("core.rule_ms.Ret", "ms"),
    ("core.rule_ms.Static", "ms"),
    ("core.rule_ms.Virt", "ms"),
    ("core.rule_ms.Ind", "ms"),
    ("core.rule_ms.Reach", "ms"),
    ("core.events", "count"),
    ("core.probes", "count"),
    ("core.facts", "count"),
    ("core.derive_ratio", "ratio"),
    ("core.bytes_per_fact", "bytes"),
    ("core.db_clone_ms", "ms"),
    ("core.extend_ms.incremental", "ms"),
    ("core.extend_ms.retracted", "ms"),
    ("core.overdeleted", "count"),
    ("core.rederive_ratio", "ratio"),
    ("core.digest_ms", "ms"),
    ("core.result_clone_ms", "ms"),
    ("demand.slice_ms", "ms"),
    ("demand.gated_solve_ms", "ms"),
    ("demand.slice_derivations", "count"),
    ("demand.tuples_per_derivation", "ratio"),
    ("demand.slice_reuse_ratio", "ratio"),
    ("server.parse_ms", "ms"),
    ("server.program_digest_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.solve_ms", "ms"),
    ("server.serialize_ms", "ms"),
    ("server.reply_wait_ms", "ms"),
    ("server.request_self_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.reply_bytes", "bytes"),
    ("client.wire_ms", "ms"),
    ("e2e.untraced_ms", "ms"),
    ("e2e.traced_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.unattributed_ms", "ms"),
    ("obs.unattributed_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["fig6-batch", "edit-session", "query-cold"];

fn usage(why: &str) -> ExitCode {
    eprintln!("ctxbench: {why}");
    eprintln!(
        "usage: ctxbench --workload {} --seed N --seconds S --trace 0|1 --serve-bin PATH [--check-counters]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut serve_bin = None;
    let mut check_counters = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().unwrap_or_default();
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => match value().parse() {
                Ok(n) => seed = n,
                Err(_) => return usage("--seed needs a non-negative integer"),
            },
            "--seconds" => match value().parse() {
                Ok(s) => seconds = s,
                Err(_) => return usage("--seconds needs a number"),
            },
            "--trace" => trace = value() == "1",
            "--serve-bin" => serve_bin = Some(PathBuf::from(value())),
            "--check-counters" => check_counters = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage("--workload must name one of the workloads");
    };
    let Some(serve_bin) = serve_bin else {
        return usage("--serve-bin is required");
    };
    let args = Args {
        seed,
        seconds,
        serve_bin,
    };
    if check_counters {
        return check(&workload, &args);
    }
    if trace {
        let traced = match workload.as_str() {
            "fig6-batch" => fig6::traced(&args),
            "edit-session" => edit::traced(&args),
            _ => cold::traced(&args),
        };
        report_traced(&workload, &traced)
    } else {
        let run = match workload.as_str() {
            "fig6-batch" => fig6::run(&args),
            "edit-session" => edit::run(&args),
            _ => cold::run(&args),
        };
        report_run(&workload, &run)
    }
}

/// Counter-determinism self-check: the deterministic prefix twice.
fn check(workload: &str, args: &Args) -> ExitCode {
    let counters = |args: &Args| -> BTreeMap<String, f64> {
        let layers = match workload {
            "fig6-batch" => fig6::traced(args).layers,
            "edit-session" => edit::replay_prefix(args),
            _ => cold::replay_prefix(args),
        };
        EXACT_COUNTERS
            .iter()
            .map(|&name| (name.to_owned(), layers.value(name)))
            .collect()
    };
    let first = counters(args);
    let second = counters(args);
    let mut differ = 0;
    for name in EXACT_COUNTERS {
        let (a, b) = (first[name], second[name]);
        let mark = if a.to_bits() == b.to_bits() {
            "same"
        } else {
            differ += 1;
            "DIFFERS"
        };
        println!("{name:28} {a:>16} {b:>16}  {mark}");
    }
    let metrics: Vec<String> = EXACT_COUNTERS
        .iter()
        .map(|&name| metric_json(name, first[name], "count"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {differ}, \"metrics\": {{{}}}}}",
        differ == 0,
        EXACT_COUNTERS.len(),
        metrics.join(", ")
    );
    if differ == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| metric_json(name, *value, unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn print_failures(failures: &[String], failed: u64) {
    for why in failures {
        println!("FAILED: {why}");
    }
    if failed > failures.len() as u64 {
        println!("FAILED: ... {} more", failed - failures.len() as u64);
    }
}

fn report_run(workload: &str, run: &Run) -> ExitCode {
    let fast = run.primary_fast_ms();
    let attempted = run.attempted.max(1) as f64;
    // Wall-clock figures, then the same at reference speed.
    let (setup_s, ops_per_s) = (median(&run.setup_s), run.fast_ops_per_s());
    let (p50, p95) = (harrell_davis(&fast, 0.50), harrell_davis(&fast, 0.95));
    let (speed, setup_speed) = (run.speed(), run.setup_speed());
    let metrics: Vec<(String, f64, &str)> = vec![
        ("setup_s".into(), setup_s * setup_speed, "s"),
        ("ops_per_s".into(), ops_per_s / speed, "1/s"),
        (
            "ok_ratio".into(),
            (attempted - run.failed as f64) / attempted,
            "ratio",
        ),
        ("peak_rss_mb".into(), run.peak_rss_mb, "MiB"),
        ("p50_ms".into(), p50 * speed, "ms"),
        ("p95_ms".into(), p95 * speed, "ms"),
    ];
    println!(
        "workload {workload}: {} ops in {:.3} s of measured work, {} blocks, {} distinct {} ops",
        run.attempted,
        run.window_s,
        run.blocks,
        fast.len(),
        run.primary
    );
    for (name, value, unit) in &metrics {
        println!("  {name:24} {value:>14.4} {unit}");
    }
    println!(
        "  machine speed {speed:.4} of reference over the ops ({} reference runs), {setup_speed:.4} over the set-ups ({}); at wall-clock speed: setup_s {setup_s:.4}, ops_per_s {ops_per_s:.4}, p50_ms {p50:.4}, p95_ms {p95:.4}",
        run.reference_ms.len(),
        run.setup_reference_ms.len()
    );
    println!(
        "  {:24} {:>14.4} ratio",
        "error_rate",
        run.failed as f64 / attempted
    );
    // Raw percentiles over every run of each op kind, under the per-kind
    // names the metric map in README.md uses.
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ((kind, _), samples) in &run.lat {
        by_kind.entry(kind).or_default().extend(samples);
    }
    let tails = [
        ("solve", 0.95),
        ("update", 0.90),
        ("read", 0.99),
        ("query", 0.95),
    ];
    for (kind, samples) in &by_kind {
        let tail = tails
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0.95, |&(_, p)| p);
        println!(
            "  {:24} {:>14.4} ms   (n = {})",
            format!("{kind}_p50_ms"),
            percentile(samples, 0.5),
            samples.len()
        );
        println!(
            "  {:24} {:>14.4} ms",
            format!("{kind}_p{}_ms", (tail * 100.0) as u32),
            percentile(samples, tail)
        );
    }
    for note in &run.notes {
        println!("  {note}");
    }
    print_failures(&run.failures, run.failed);
    let correct = run.failed == 0;
    print_result(correct, run.attempted, run.failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn report_traced(workload: &str, traced: &Traced) -> ExitCode {
    let metrics: Vec<(String, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_owned(), traced.layers.value(name), unit))
        .collect();
    let layers = &traced.layers;
    println!(
        "workload {workload}: traced run over a prefix of {} ops; {:.4} ms of {:.4} ms attributed; {} server spans",
        layers.value("obs.prefix_ops"),
        layers.value("obs.attributed_ms"),
        layers.value("e2e.traced_ms"),
        layers.value("obs.server_spans")
    );
    for (name, value, unit) in &metrics {
        println!("  {name:30} {value:>16.4} {unit}");
    }
    let run = &traced.run;
    print_failures(&run.failures, run.failed);
    let correct = run.failed == 0;
    print_result(correct, run.attempted, run.failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
