//! `analyze`: run the pointer analysis from the command line.
//!
//! Accepts either MiniJava source (`.mj`/`.java`) or a `ctxform-ir` fact
//! file (anything else), picks the abstraction and sensitivity from
//! flags, and prints summary statistics plus (optionally) the points-to
//! sets of named variables.
//!
//! ```text
//! analyze program.mj --config 2-object+H --abstraction tstring
//! analyze facts.txt --config 1-call+H --abstraction cstring --query Main.main::x
//! analyze program.mj --trace-json trace.json   # dump solver spans/events
//! ```
//!
//! `--trace-json PATH` enables the in-process trace ring for the solve
//! and writes the captured spans and events (`ctxform-trace/1` JSON) to
//! `PATH`. Tracing never changes the analysis result — only what gets
//! recorded about it.

use std::process::ExitCode;

use ctxform::{analyze, AbstractionKind, AnalysisConfig};
use ctxform_ir::{text, Program};
use ctxform_minijava::compile;
use ctxform_obs::logger;

fn load(path: &str) -> Result<Program, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".mj") || path.ends_with(".java") {
        compile(&content)
            .map(|m| m.program)
            .map_err(|e| format!("{path}:{e}"))
    } else {
        text::parse(&content).map_err(|e| format!("{path}: {e}"))
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!(
            "usage: analyze <program.mj|facts.txt> [--config LABEL] \
             [--abstraction cstring|tstring|ci] [--naive] \
             [--threads N] [--trace-json PATH] [--query Method::var]..."
        );
        return ExitCode::FAILURE;
    };
    let mut label = "2-object+H".to_owned();
    let mut kind = AbstractionKind::TransformerStrings;
    let mut naive = false;
    let mut threads = 1usize;
    let mut trace_json: Option<String> = None;
    let mut queries: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => label = args.next().expect("--config needs a label"),
            // 0 = auto-detect; results are identical for every value.
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a non-negative integer")
            }
            "--abstraction" => {
                kind = match args.next().as_deref() {
                    Some("cstring") => AbstractionKind::ContextStrings,
                    Some("tstring") => AbstractionKind::TransformerStrings,
                    Some("ci") => AbstractionKind::Insensitive,
                    other => {
                        logger::error("analyze", format!("unknown abstraction {other:?}"));
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--naive" => naive = true,
            "--trace-json" => trace_json = Some(args.next().expect("--trace-json needs a path")),
            "--query" => queries.push(args.next().expect("--query needs Method::var")),
            other => {
                logger::error("analyze", format!("unknown argument `{other}`"));
                return ExitCode::FAILURE;
            }
        }
    }
    let program = match load(&path) {
        Ok(p) => p,
        Err(e) => {
            logger::error("analyze", e);
            return ExitCode::FAILURE;
        }
    };
    let mut config = match kind {
        AbstractionKind::Insensitive => AnalysisConfig::insensitive(),
        AbstractionKind::ContextStrings => match label.parse() {
            Ok(s) => AnalysisConfig::context_strings(s),
            Err(e) => {
                logger::error("analyze", format!("{e}"));
                return ExitCode::FAILURE;
            }
        },
        AbstractionKind::TransformerStrings => match label.parse() {
            Ok(s) => AnalysisConfig::transformer_strings(s),
            Err(e) => {
                logger::error("analyze", format!("{e}"));
                return ExitCode::FAILURE;
            }
        },
    };
    if naive {
        config = config.with_naive_joins();
    }
    config = config.with_threads(threads);
    if trace_json.is_some() {
        ctxform_obs::enable_tracing(ctxform_obs::trace::DEFAULT_CAPACITY);
    }
    println!("program: {}", program.stats());
    let result = analyze(&program, &config);
    if let Some(path) = &trace_json {
        let dump = ctxform_obs::take_trace();
        ctxform_obs::disable_tracing();
        let records = dump.records.len();
        if let Err(e) = std::fs::write(path, dump.to_json()) {
            logger::error("analyze", format!("cannot write {path}: {e}"));
            return ExitCode::FAILURE;
        }
        logger::info(
            "analyze",
            format!(
                "wrote {records} trace records to {path} ({} dropped)",
                dump.dropped
            ),
        );
    }
    println!("{config}:");
    print!("{}", result.stats.report());
    println!(
        "context-insensitive projections: pts {} | hpts {} | call {} | reachable methods {}",
        result.ci.pts.len(),
        result.ci.hpts.len(),
        result.ci.call.len(),
        result.ci.reach.len()
    );
    for query in &queries {
        let Some((method_name, var_name)) = query.split_once("::") else {
            logger::error(
                "analyze",
                format!("--query must look like Method::var, got `{query}`"),
            );
            return ExitCode::FAILURE;
        };
        let found = program
            .var_names
            .iter()
            .enumerate()
            .find(|&(i, n)| {
                n == var_name && program.method_names[program.var_method[i].index()] == method_name
            })
            .map(|(i, _)| ctxform_ir::Var::from_index(i));
        match found {
            None => println!("  {query}: no such variable"),
            Some(v) => {
                let sites: Vec<&str> = result
                    .ci
                    .points_to(v)
                    .into_iter()
                    .map(|h| program.heap_names[h.index()].as_str())
                    .collect();
                println!("  pts({query}) = {sites:?}");
            }
        }
    }
    ExitCode::SUCCESS
}
