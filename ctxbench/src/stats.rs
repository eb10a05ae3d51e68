//! Sample summaries, the per-layer accounting of traced runs, and process
//! memory readings.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use ctxform::{AnalysisResult, RULE_NAMES};
use ctxform_hash::SplitMix64;

/// Nearest-rank percentile (`p` in `[0, 1]`) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The fast latency of one op: the mean of the faster half of its runs
/// (the fastest run of one or two). It tracks the op's cost on an unloaded
/// machine, yet averages more runs than their minimum.
pub fn fast_ms(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(sorted.len().div_ceil(2));
    mean(&sorted)
}

/// Harrell–Davis estimate of quantile `p` (in `(0, 1)`) of an unsorted
/// sample, 0 for an empty one: the mean of all order statistics weighted
/// by a Beta((n+1)p, (n+1)(1−p)) density, which moves less from run to
/// run than the single order statistic [`percentile`] picks.
pub fn harrell_davis(samples: &[f64], p: f64) -> f64 {
    const STEPS: usize = 64;
    if samples.len() < 2 {
        return samples.first().copied().unwrap_or(0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (a, b) = ((n + 1) as f64 * p, (n + 1) as f64 * (1.0 - p));
    // The weight of the i-th order statistic is the density's integral
    // over [i/n, (i+1)/n], by the midpoint rule in log space.
    let h = 1.0 / (n * STEPS) as f64;
    let log_density: Vec<f64> = (0..n * STEPS)
        .map(|j| {
            let t = (j as f64 + 0.5) * h;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let peak = log_density.iter().copied().fold(f64::MIN, f64::max);
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let w: f64 = log_density[i * STEPS..(i + 1) * STEPS]
            .iter()
            .map(|&l| (l - peak).exp())
            .sum();
        sum += w * x;
        total += w;
    }
    sum / total
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs the reference kernel once and returns its wall time in ms: a fixed
/// job of hash-map inserts and lookups and a sort, about as cache- and
/// memory-bound as the solver, that uses no code of the workspace, so no
/// change to the program moves it. Its time tracks the machine's speed.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::new();
    for _ in 0..120_000 {
        *map.entry(next() % 200_000).or_default() += 1;
    }
    let mut hits = 0;
    for _ in 0..120_000 {
        hits += map.get(&(next() % 200_000)).copied().unwrap_or(0);
    }
    let mut keys: Vec<u64> = (0..200_000).map(|_| next()).collect();
    keys.sort_unstable();
    std::hint::black_box((hits, keys[keys.len() / 2]));
    ms_since(t)
}

/// `VmHWM` (peak resident set) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer measurements of a traced run: wall time spent in calls into
/// each layer (summed, with a call count), and plain values.
#[derive(Default)]
pub struct Layers {
    times: BTreeMap<String, (f64, u64)>,
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Times one call into a layer.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add_ms(name, ms_since(t));
        out
    }

    pub fn add_ms(&mut self, name: &str, ms: f64) {
        let slot = self.times.entry(name.to_owned()).or_default();
        slot.0 += ms;
        slot.1 += 1;
    }

    /// Total milliseconds over all calls of a timed layer.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |&(total, _)| total)
    }

    /// Mean milliseconds per call of a timed layer.
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.times
            .get(name)
            .map_or(0.0, |&(total, calls)| ratio(total, calls as f64))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_owned()).or_default() += value;
    }

    /// A set value, else the mean time of a timed layer, else 0.
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .copied()
            .unwrap_or_else(|| self.mean_ms(name))
    }
}

/// Fisher–Yates shuffle driven by the workload's seeded generator.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Accumulates one solve's counters and (when profiled) phase and rule
/// times; [`finish_solver_stats`] turns the sums into per-solve figures.
pub fn record_solver_stats(layers: &mut Layers, r: &AnalysisResult) {
    let s = &r.stats;
    layers.add("solves", 1.0);
    layers.add("core.events", s.events as f64);
    layers.add("core.probes", s.probes as f64);
    layers.add("core.facts", s.total() as f64);
    layers.add("algebra.compose_calls", s.compose_calls as f64);
    layers.add("algebra.interned_contexts", s.interned_contexts as f64);
    layers.add("core.overdeleted", s.overdeleted as f64);
    layers.add("rederived", s.rederived as f64);
    layers.add("memo_hits", s.compose_memo_hits as f64);
    layers.add(
        "memo_lookups",
        (s.compose_memo_hits + s.compose_memo_misses) as f64,
    );
    layers.add("derived", s.rule_derived.total() as f64);
    layers.add("fired", s.rule_fired.total() as f64);
    layers.add("memory_bytes", s.memory.total() as f64);
    layers.add("seed_ns", s.phase_profile.seed_ns as f64);
    layers.add("eval_ns", s.phase_profile.eval_ns as f64);
    layers.add("merge_ns", s.phase_profile.merge_ns as f64);
    for rule in RULE_NAMES {
        layers.add(&format!("rule_ns.{rule}"), s.rule_time.ns(rule) as f64);
    }
}

/// Derives the ratio and per-solve metrics from [`record_solver_stats`]
/// sums.
pub fn finish_solver_stats(layers: &mut Layers) {
    let solves = layers.value("solves");
    let per_solve_ms = |layers: &Layers, key: &str| ratio(layers.value(key), solves) / 1e6;
    layers.set(
        "algebra.memo_hit_ratio",
        ratio(layers.value("memo_hits"), layers.value("memo_lookups")),
    );
    layers.set(
        "core.derive_ratio",
        ratio(layers.value("derived"), layers.value("fired")),
    );
    layers.set(
        "core.bytes_per_fact",
        ratio(layers.value("memory_bytes"), layers.value("core.facts")),
    );
    layers.set(
        "core.rederive_ratio",
        ratio(layers.value("rederived"), layers.value("core.overdeleted")),
    );
    layers.set("core.seed_ms", per_solve_ms(layers, "seed_ns"));
    layers.set("core.eval_ms", per_solve_ms(layers, "eval_ns"));
    layers.set("core.merge_ms", per_solve_ms(layers, "merge_ns"));
    for rule in RULE_NAMES {
        let ms = per_solve_ms(layers, &format!("rule_ns.{rule}"));
        layers.set(&format!("core.rule_ms.{rule}"), ms);
    }
}

/// Records the end-to-end reference of a traced run (per unit of the
/// workload), the tracing overhead, and the part no layer accounts for.
pub fn set_attribution(
    layers: &mut Layers,
    untraced_ms: f64,
    traced_ms: f64,
    attributed_ms: f64,
    prefix_ops: f64,
) {
    layers.set("e2e.untraced_ms", untraced_ms);
    layers.set("e2e.traced_ms", traced_ms);
    layers.set(
        "obs.trace_overhead_pct",
        100.0 * (ratio(traced_ms, untraced_ms) - 1.0),
    );
    layers.set("obs.attributed_ms", attributed_ms);
    layers.set("obs.unattributed_ms", traced_ms - attributed_ms);
    layers.set(
        "obs.unattributed_pct",
        100.0 * ratio(traced_ms - attributed_ms, traced_ms),
    );
    layers.set("obs.prefix_ops", prefix_ops);
}
