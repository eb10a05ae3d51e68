//! Differential parity: demand-driven context-sensitive answers must
//! equal the exhaustive solver's points-to sets exactly — across random
//! programs × {context,transformer} strings × {call,object} sensitivity
//! — and on loosely-coupled programs the sliced
//! solve must derive strictly fewer facts than the full fixpoint.

use ctxform::{analyze, analyze_sliced, demand_slice, DemandIndex};
use ctxform_ir::Var;
use ctxform_minijava::compile;
use ctxform_synth::random_program;
use ctxform_testutil::cs_configs;

#[test]
fn demand_matches_exhaustive_across_seeds_and_configs() {
    for seed in 0..8u64 {
        let src = random_program(seed, 1);
        let module = compile(&src).unwrap();
        let index = DemandIndex::new(&module.program);
        let vars: Vec<Var> = (0..module.program.var_count())
            .step_by(9)
            .map(Var::from_index)
            .collect();
        for config in cs_configs() {
            let exhaustive = analyze(&module.program, &config);
            let outcome = ctxform_demand::query(&index, &module.program, &config, &vars);
            for (var, heaps) in outcome.answers {
                assert_eq!(
                    heaps,
                    exhaustive.ci.points_to(var),
                    "seed {seed} {config} {var}"
                );
            }
        }
    }
}

/// Two islands: a small queried one and a large unrelated one. The gated
/// context-sensitive solve must not explore the big island, so it derives
/// strictly fewer facts than the exhaustive fixpoint while answering the
/// queried variable identically.
#[test]
fn loosely_coupled_islands_solve_strictly_less_context_sensitively() {
    let mut big_island = String::new();
    for k in 0..60 {
        big_island.push_str(&format!(
            "A b{k} = new A();\nObject u{k} = new Object();\nb{k}.f = u{k};\nObject w{k} = b{k}.f;\n"
        ));
    }
    let src = format!(
        "class A {{ Object f; }}
         class Main {{
             static void island1() {{
                 A a = new A();
                 Object x = new Object();
                 a.f = x;
                 Object y = a.f;
             }}
             static void island2() {{ {big_island} }}
             public static void main(String[] args) {{
                 Main.island1();
                 Main.island2();
             }}
         }}"
    );
    let module = compile(&src).unwrap();
    let island1 = module.method_by_name("Main.island1").unwrap();
    let y = module.var_by_name(island1, "y").unwrap();
    let slice = std::sync::Arc::new(demand_slice(&module.program, &[y]).unwrap());
    for config in cs_configs() {
        let exhaustive = analyze(&module.program, &config);
        let sliced = analyze_sliced(&module.program, &config, std::sync::Arc::clone(&slice));
        assert_eq!(
            sliced.ci.points_to(y),
            exhaustive.ci.points_to(y),
            "{config}"
        );
        assert_eq!(sliced.ci.points_to(y).len(), 1, "{config}");
        assert!(
            sliced.stats.total() < exhaustive.stats.total(),
            "{config}: sliced {} facts vs exhaustive {}",
            sliced.stats.total(),
            exhaustive.stats.total()
        );
    }
}
