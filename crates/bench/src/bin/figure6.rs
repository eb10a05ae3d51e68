//! Regenerates the paper's Figure 6 table on the synthetic DaCapo-like
//! benchmark suite.
//!
//! ```text
//! cargo run --release -p ctxform-bench --bin figure6 -- [--scale N] \
//!     [--bench NAME] [--naive]
//! ```

use ctxform::JoinStrategy;
use ctxform_bench::{render_figure6, run_figure6, Figure6Options};

fn main() {
    let mut opts = Figure6Options::default();
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                opts.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a positive integer");
            }
            "--bench" => only = Some(args.next().expect("--bench needs a name")),
            "--naive" => opts.join_strategy = JoinStrategy::Naive,
            "--help" | "-h" => {
                eprintln!("usage: figure6 [--scale N] [--bench NAME] [--naive]");
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    eprintln!(
        "running figure 6 at scale {} ({} joins)...",
        opts.scale,
        match opts.join_strategy {
            JoinStrategy::Specialized => "specialized",
            JoinStrategy::Naive => "naive",
        }
    );
    let rows = run_figure6(&opts, only.as_deref());
    print!("{}", render_figure6(&rows));
}
