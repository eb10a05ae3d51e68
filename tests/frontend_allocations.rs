//! An exact allocation gate for the MiniJava frontend.
//!
//! Wall time on a shared box is noisy; the number of heap allocations a
//! compile makes is not. This binary installs a counting global
//! allocator, compiles the `edit-session` benchmark's program (antlr at
//! scale 20) plus one `append_edit` step, and holds the count of each
//! stage to a checked-in bound: the count measured when the bound was
//! set, plus 2%. A change that makes the frontend allocate per token or
//! per line again fails here before any timing run would show it.
//!
//! Run with `cargo test --test frontend_allocations -- --nocapture` to
//! see the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ctxform_synth::{append_edit, generate, preset};

/// Counts the allocations (and reallocations) of the calling thread, so
/// the harness's own threads cannot disturb a measurement.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `(stage, bound)`: the counts measured when the bound was set, +2%.
const BOUNDS: [(&str, u64); 2] = [("parse", 4_766), ("lower", 11_981)];

#[test]
fn frontend_allocations_stay_within_their_bound() {
    let cfg = preset("antlr").expect("known preset").scale_driver(20);
    let source = append_edit(&generate(&cfg), 1, 0);
    let (ast, parse) = counted(|| ctxform_minijava::parse(&source));
    let ast = ast.expect("parses");
    let (module, lower) = counted(|| ctxform_minijava::lower(&ast));
    let p = module.expect("lowers").program;
    // One allocation per stored name is the floor of lowering.
    let names = [
        &p.var_names,
        &p.heap_names,
        &p.inv_names,
        &p.method_names,
        &p.field_names,
        &p.type_names,
        &p.msig_names,
    ]
    .iter()
    .map(|t| t.len())
    .sum::<usize>();
    println!(
        "antlr-20 + 1 edit ({} bytes): parse {parse}, lower {lower} allocations ({names} names)",
        source.len()
    );
    for ((stage, bound), got) in BOUNDS.into_iter().zip([parse, lower]) {
        assert!(
            got <= bound,
            "{stage} made {got} allocations, above its bound {bound}"
        );
    }
}
