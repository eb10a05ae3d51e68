//! `fig6-batch`: the paper's Fig. 6 matrix, in process and serial.
//!
//! Each pass compiles the seven `ctxform-synth` presets at scale 40 from
//! source and runs `analyze` for the five paper sensitivities under both
//! context strings and transformer strings: 70 solves per pass. Passes
//! repeat until `--seconds` of measured work have accumulated; a pass in
//! progress always completes, so every run weighs the 70 cells equally.
//!
//! The programs are the presets exactly as `figure6` and `regress` build
//! them, so the figures stay comparable with the `BENCH_*.json` history.
//! The seed orders each pass: the presets, and the sensitivities within a
//! preset (each solved under context strings, then transformer strings).

use std::collections::HashMap;
use std::time::Instant;

use ctxform::{analyze, AbstractionKind, AnalysisConfig, AnalysisResult, CiFacts};
use ctxform_algebra::{Flavour, Sensitivity};
use ctxform_hash::SplitMix64;
use ctxform_minijava::Module;
use ctxform_server::db::ci_digest;
use ctxform_vm::{DynFacts, VmConfig};

use crate::stats::{
    finish_solver_stats, ms_since, record_solver_stats, set_attribution, shuffle, Layers,
};
use crate::{Args, Run, Traced, SETUPS};

const SCALE: usize = 40;

/// Set-up: generate the seven preset sources and warm the frontend with
/// one compile of each.
fn setup() -> Vec<(&'static str, String)> {
    ctxform_synth::PRESET_NAMES
        .iter()
        .map(|&name| {
            let cfg = ctxform_synth::preset(name)
                .expect("known preset")
                .scale_driver(SCALE);
            let src = ctxform_synth::generate(&cfg);
            ctxform_minijava::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, src)
        })
        .collect()
}

/// The seeded cell order of one pass: `(preset index, configs)`, where
/// each sensitivity contributes its context-string then its
/// transformer-string config.
fn pass_order(rng: &mut SplitMix64, presets: usize) -> Vec<(usize, Vec<AnalysisConfig>)> {
    let mut order: Vec<usize> = (0..presets).collect();
    shuffle(rng, &mut order);
    order
        .into_iter()
        .map(|p| {
            let mut sens = Sensitivity::paper_configs();
            shuffle(rng, &mut sens);
            let configs = sens
                .into_iter()
                .flat_map(|s| {
                    [
                        AnalysisConfig::context_strings(s).with_threads(1),
                        AnalysisConfig::transformer_strings(s).with_threads(1),
                    ]
                })
                .collect();
            (p, configs)
        })
        .collect()
}

/// The oracles, run outside the timed window: VM soundness (Thm 6.1),
/// Thm 6.2 between the two abstractions, and repeatability across passes.
#[derive(Default)]
struct Oracle {
    dynamic: HashMap<&'static str, DynFacts>,
    /// The context-string result of the cell just solved, for Thm 6.2.
    cstring: Option<CiFacts>,
    digests: HashMap<(&'static str, String), u64>,
}

impl Oracle {
    fn check(
        &mut self,
        preset: &'static str,
        module: &Module,
        r: &AnalysisResult,
    ) -> Result<(), String> {
        let label = format!("{preset} {}", r.config);
        let dynamic = self
            .dynamic
            .entry(preset)
            .or_insert_with(|| ctxform_vm::run(module, &VmConfig::default()).facts);
        let sound = dynamic.pts.is_subset(&r.ci.pts)
            && dynamic.hpts.is_subset(&r.ci.hpts)
            && dynamic.call.is_subset(&r.ci.call)
            && dynamic.reached.is_subset(&r.ci.reach);
        if !sound {
            return Err(format!(
                "{label}: a dynamic fact is missing from the CI projection"
            ));
        }
        let digest = ci_digest(r);
        let previous = *self
            .digests
            .entry((preset, label.clone()))
            .or_insert(digest);
        if previous != digest {
            return Err(format!("{label}: CI digest differs from an earlier pass"));
        }
        match r.config.abstraction {
            AbstractionKind::ContextStrings => self.cstring = Some(r.ci.clone()),
            _ => {
                let c = self
                    .cstring
                    .take()
                    .ok_or("tstring cell without its cstring cell")?;
                let sens = r.config.sensitivity.expect("context-sensitive cell");
                let holds = if sens.flavour == Flavour::Type {
                    c.pts.is_subset(&r.ci.pts) && c.call.is_subset(&r.ci.call)
                } else {
                    c == r.ci
                };
                if !holds {
                    return Err(format!(
                        "{label}: Thm 6.2 relation to context strings fails"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The key naming one cell of the matrix across passes.
fn cell_key(preset: usize, config: &AnalysisConfig) -> usize {
    let sens = Sensitivity::paper_configs()
        .iter()
        .position(|&s| Some(s) == config.sensitivity)
        .expect("paper sensitivity");
    let tstring = config.abstraction == AbstractionKind::TransformerStrings;
    preset * 10 + sens * 2 + usize::from(tstring)
}

/// One untraced pass over the matrix.
fn pass(srcs: &[(&'static str, String)], rng: &mut SplitMix64, run: &mut Run, oracle: &mut Oracle) {
    for (p, configs) in pass_order(rng, srcs.len()) {
        let (name, src) = &srcs[p];
        let t = Instant::now();
        let module = ctxform_minijava::compile(src).expect("generated source compiles");
        run.window_s += ms_since(t) / 1000.0;
        for config in configs {
            let t = Instant::now();
            let result = analyze(&module.program, &config);
            run.primary_op(cell_key(p, &config), ms_since(t));
            if let Err(why) = oracle.check(name, &module, &result) {
                run.fail(why);
            }
        }
    }
}

/// The traced run: one pass in which every step runs twice, untraced and
/// then traced — compile, then parse and lower timed apart; `analyze`,
/// then `analyze` with profiling plus a replayed `Program::index` — so
/// both sides see the same machine state. Its counters are the
/// deterministic prefix [`crate::EXACT_COUNTERS`] checks. Attribution is
/// per pass.
pub fn traced(args: &Args) -> Traced {
    let srcs = setup();
    let mut rng = SplitMix64::new(args.seed);
    let mut run = Run::new("solve");
    let mut oracle = Oracle::default();
    let mut layers = Layers::default();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    for (p, configs) in pass_order(&mut rng, srcs.len()) {
        let (name, src) = &srcs[p];
        let t = Instant::now();
        let module = ctxform_minijava::compile(src).expect("generated source compiles");
        untraced_ms += ms_since(t);
        let t = Instant::now();
        let ast = layers.time("minijava.parse_ms", || ctxform_minijava::parse(src));
        let lowered = layers.time("minijava.lower_ms", || {
            ctxform_minijava::lower(&ast.expect("parses"))
        });
        traced_ms += ms_since(t);
        lowered.expect("generated source lowers");
        let facts = module.program.stats().input_facts as f64;
        layers.add("ir.input_facts", facts / srcs.len() as f64);
        for config in configs {
            let t = Instant::now();
            analyze(&module.program, &config);
            untraced_ms += ms_since(t);
            layers.time("ir.index_ms", || module.program.index());
            let t = Instant::now();
            let result = analyze(&module.program, &config.with_profiling());
            let ms = ms_since(t);
            traced_ms += ms;
            run.primary_op(cell_key(p, &config), ms);
            let key = match config.abstraction {
                AbstractionKind::ContextStrings => "core.solve_ms.cstring",
                _ => "core.solve_ms.tstring",
            };
            layers.add_ms(key, ms);
            record_solver_stats(&mut layers, &result);
            if let Err(why) = oracle.check(name, &module, &result) {
                run.fail(why);
            }
        }
    }
    finish_solver_stats(&mut layers);
    let solves = run.attempted as f64;
    let attributed = layers.total_ms("minijava.parse_ms")
        + layers.total_ms("minijava.lower_ms")
        + layers.total_ms("ir.index_ms")
        + solves
            * (layers.value("core.seed_ms")
                + layers.value("core.eval_ms")
                + layers.value("core.merge_ms"));
    set_attribution(&mut layers, untraced_ms, traced_ms, attributed, solves);
    Traced { layers, run }
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::new("solve");
    let mut srcs = Vec::new();
    for _ in 0..SETUPS {
        srcs = run.time_setup(setup);
    }
    let mut oracle = Oracle::default();
    let mut rng = SplitMix64::new(args.seed);
    while run.window_s < args.seconds {
        pass(&srcs, &mut rng, &mut run, &mut oracle);
        run.end_block();
    }
    run.peak_rss_mb = crate::stats::peak_rss_mb("self");
    run
}
