//! Shared harness for regenerating the paper's evaluation (Figure 6).
//!
//! [`run_figure6`] analyzes the seven DaCapo-like synthetic benchmarks
//! under the paper's five sensitivity configurations with both
//! abstractions, and [`render_figure6`] prints the result in the layout of
//! the paper's Figure 6: per-relation context-sensitive fact counts and
//! solve times for the context-string abstraction, the percentage decrease
//! obtained by transformer strings, the context-insensitive fact counts
//! (with the transformer-string increase) for 2-type+H, and geometric-mean
//! summary rows.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Duration;

use ctxform::{analyze, AnalysisConfig, AnalysisResult, JoinStrategy};
use ctxform_algebra::Sensitivity;
use ctxform_ir::{Program, ProgramStats};
use ctxform_minijava::compile;
use ctxform_synth::{dacapo_like, generate};

/// Fact counts and time of one analysis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellStats {
    /// Context-sensitive `pts` count.
    pub pts: usize,
    /// Context-sensitive `hpts` count.
    pub hpts: usize,
    /// Context-sensitive `call` count.
    pub call: usize,
    /// `pts + hpts + call` (the paper's Total row).
    pub total: usize,
    /// Wall-clock solve time.
    pub time: Duration,
    /// Context-insensitive projection sizes (pts, hpts, call).
    pub ci: (usize, usize, usize),
}

impl CellStats {
    fn from_result(r: &AnalysisResult) -> Self {
        CellStats {
            pts: r.stats.pts,
            hpts: r.stats.hpts,
            call: r.stats.call,
            total: r.stats.total(),
            time: r.stats.duration,
            ci: (r.ci.pts.len(), r.ci.hpts.len(), r.ci.call.len()),
        }
    }
}

/// Both abstractions under one sensitivity configuration.
#[derive(Debug, Clone, Copy)]
pub struct ConfigCell {
    /// The sensitivity configuration.
    pub sensitivity: Sensitivity,
    /// Context-string run.
    pub cstring: CellStats,
    /// Transformer-string run.
    pub tstring: CellStats,
}

impl ConfigCell {
    /// Percentage decrease of a quantity from context strings to
    /// transformer strings (positive = transformer smaller).
    pub fn decrease(base: usize, new: usize) -> f64 {
        if base == 0 {
            0.0
        } else {
            100.0 * (base as f64 - new as f64) / base as f64
        }
    }

    /// Percentage decrease in total facts.
    pub fn total_decrease(&self) -> f64 {
        Self::decrease(self.cstring.total, self.tstring.total)
    }

    /// Percentage decrease in solve time.
    pub fn time_decrease(&self) -> f64 {
        let base = self.cstring.time.as_secs_f64();
        if base == 0.0 {
            0.0
        } else {
            100.0 * (base - self.tstring.time.as_secs_f64()) / base
        }
    }
}

/// One benchmark's worth of Figure 6 data.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Benchmark name (antlr, bloat, …).
    pub benchmark: String,
    /// Input program sizes.
    pub program: ProgramStats,
    /// One cell per paper configuration, in Fig. 6 column order.
    pub cells: Vec<ConfigCell>,
}

/// Options for a Figure 6 run.
#[derive(Debug, Clone, Copy)]
pub struct Figure6Options {
    /// Driver-scale multiplier applied to every preset.
    pub scale: usize,
    /// Join strategy for both abstractions (Naive reproduces §7's
    /// strawman).
    pub join_strategy: JoinStrategy,
}

impl Default for Figure6Options {
    fn default() -> Self {
        Figure6Options {
            scale: 20,
            join_strategy: JoinStrategy::Specialized,
        }
    }
}

/// Compiles one named benchmark at the given scale.
///
/// # Panics
///
/// Panics if the preset name is unknown or generation produces an invalid
/// program (a generator bug).
pub fn compile_benchmark(name: &str, scale: usize) -> Program {
    let src = benchmark_source(name, scale);
    compile(&src).expect("generated programs are valid").program
}

/// Generates one named benchmark's MiniJava source at the given scale.
///
/// Exposed separately from [`compile_benchmark`] so harnesses that need
/// to *edit* the source (the incremental re-analysis cell applies
/// `ctxform_synth::append_edit` to it) share the exact program text.
///
/// # Panics
///
/// Panics if the preset name is unknown.
pub fn benchmark_source(name: &str, scale: usize) -> String {
    let cfg = ctxform_synth::preset(name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))
        .scale_driver(scale);
    generate(&cfg)
}

/// Runs one (benchmark, sensitivity) cell.
pub fn run_cell(program: &Program, sensitivity: Sensitivity, opts: &Figure6Options) -> ConfigCell {
    let mut c_cfg = AnalysisConfig::context_strings(sensitivity);
    let mut t_cfg = AnalysisConfig::transformer_strings(sensitivity);
    c_cfg.join_strategy = opts.join_strategy;
    t_cfg.join_strategy = opts.join_strategy;
    let c = analyze(program, &c_cfg);
    let t = analyze(program, &t_cfg);
    ConfigCell {
        sensitivity,
        cstring: CellStats::from_result(&c),
        tstring: CellStats::from_result(&t),
    }
}

/// Runs the full Figure 6 experiment over all seven benchmarks (or the
/// subset named in `only`).
pub fn run_figure6(opts: &Figure6Options, only: Option<&str>) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    for (name, _) in dacapo_like() {
        if let Some(filter) = only {
            if name != filter {
                continue;
            }
        }
        let program = compile_benchmark(name, opts.scale);
        let cells = Sensitivity::paper_configs()
            .into_iter()
            .map(|s| run_cell(&program, s, opts))
            .collect();
        rows.push(BenchRow {
            benchmark: name.to_owned(),
            program: program.stats(),
            cells,
        });
    }
    rows
}

/// Geometric mean of per-row `new/base` ratios of `f`, expressed as a
/// percentage decrease, as in the paper's last two rows.
pub fn geomean_decrease<F>(rows: &[BenchRow], config_index: usize, f: F) -> f64
where
    F: Fn(&ConfigCell) -> (f64, f64),
{
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for row in rows {
        let (base, new) = f(&row.cells[config_index]);
        if base > 0.0 && new > 0.0 {
            log_sum += (new / base).ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * (1.0 - (log_sum / n as f64).exp())
    }
}

fn fmt_count(n: usize) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.0}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

fn fmt_time(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

/// Renders the Figure 6 table as text.
pub fn render_figure6(rows: &[BenchRow]) -> String {
    let mut out = String::new();
    let configs = Sensitivity::paper_configs();
    let _ = writeln!(
        out,
        "Figure 6 reproduction: context-sensitive fact counts and times.\n\
         Each cell: context-string value, then %decrease with transformer strings.\n\
         For 2-type+H the CI line reports context-insensitive facts and the\n\
         transformer-string increase in parentheses (precision loss, section 6).\n"
    );
    for row in rows {
        let _ = writeln!(out, "{}  [{}]", row.benchmark, row.program);
        let mut header = format!("  {:8}", "");
        for c in &configs {
            let _ = write!(header, " {:>14}", c.to_string());
        }
        let _ = writeln!(out, "{header}");
        type Getter = fn(&CellStats) -> usize;
        let rows_spec: [(&str, Getter); 4] = [
            ("pts", |c| c.pts),
            ("hpts", |c| c.hpts),
            ("call", |c| c.call),
            ("Total", |c| c.total),
        ];
        for (label, get) in rows_spec {
            let mut line = format!("  {label:8}");
            for cell in &row.cells {
                let base = get(&cell.cstring);
                let new = get(&cell.tstring);
                let dec = ConfigCell::decrease(base, new);
                let dec_str = if base == new {
                    "    —".to_owned()
                } else {
                    format!("{dec:5.1}%")
                };
                let _ = write!(line, " {:>7} {:>6}", fmt_count(base), dec_str);
            }
            let _ = writeln!(out, "{line}");
        }
        let mut line = format!("  {:8}", "Time");
        for cell in &row.cells {
            let _ = write!(
                line,
                " {:>7} {:>5.1}%",
                fmt_time(cell.cstring.time),
                cell.time_decrease()
            );
        }
        let _ = writeln!(out, "{line}");
        // CI precision line for 2-type+H.
        let type_cell = &row.cells[4];
        let (cp, ch, cc) = type_cell.cstring.ci;
        let (tp, th, tc) = type_cell.tstring.ci;
        let _ = writeln!(
            out,
            "  {:8} 2-type+H CI: pts {}(+{})  hpts {}(+{})  call {}(+{})",
            "",
            fmt_count(cp),
            tp.saturating_sub(cp),
            fmt_count(ch),
            th.saturating_sub(ch),
            fmt_count(cc),
            tc.saturating_sub(cc)
        );
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "Geometric-mean reduction (total facts / analysis time):"
    );
    let mut line_t = format!("  {:8}", "facts");
    let mut line_d = format!("  {:8}", "time");
    for k in 0..configs.len() {
        let g = geomean_decrease(rows, k, |c| {
            (c.cstring.total as f64, c.tstring.total as f64)
        });
        let _ = write!(line_t, " {:>13.1}%", g);
        let g = geomean_decrease(rows, k, |c| {
            (c.cstring.time.as_secs_f64(), c.tstring.time.as_secs_f64())
        });
        let _ = write!(line_d, " {:>13.1}%", g);
    }
    let _ = writeln!(out, "{line_t}");
    let _ = writeln!(out, "{line_d}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_runs_at_small_scale() {
        let opts = Figure6Options {
            scale: 1,
            ..Figure6Options::default()
        };
        let rows = run_figure6(&opts, Some("pmd"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells.len(), 5);
        let table = render_figure6(&rows);
        assert!(table.contains("pmd"));
        assert!(table.contains("2-object+H"));
        assert!(table.contains("Geometric-mean"));
    }

    #[test]
    fn transformer_strings_never_increase_call_object_totals() {
        let opts = Figure6Options {
            scale: 2,
            ..Figure6Options::default()
        };
        for name in ["luindex", "antlr"] {
            let rows = run_figure6(&opts, Some(name));
            for cell in &rows[0].cells[..4] {
                assert!(
                    cell.tstring.total <= cell.cstring.total,
                    "{name} {}: transformer totals must not grow",
                    cell.sensitivity
                );
            }
        }
    }

    #[test]
    fn decrease_helper_matches_hand_computation() {
        assert!((ConfigCell::decrease(100, 50) - 50.0).abs() < 1e-9);
        assert!((ConfigCell::decrease(0, 50)).abs() < 1e-9);
    }
}
