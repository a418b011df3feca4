//! Golden-trace regression tests: each design circuit is simulated with
//! tracing enabled at seed 0 (no variability), and the full dispatched-batch
//! sequence — every `TraceEntry`, rendered one per line — must match the
//! checked-in snapshot under `tests/golden/` **byte for byte**.
//!
//! These pin the complete observable semantics of the simulator (batching
//! order, state movements, firing times) for representative designs, so any
//! change to dispatch order, cell definitions, or delay arithmetic shows up
//! as a readable diff instead of a silently shifted waveform.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use rlse::designs::{
    bitonic_sorter_with_inputs, bitonic_stimulus, decision_tree_with_inputs, dr_and, dr_input,
    dr_inspect, dr_xor, ripple_adder_with_inputs, shmoo_map, ShmooOptions, Tree,
};
use rlse::designs::xsfq_adder::full_adder_xsfq_with_inputs;
use rlse::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

/// Simulate with tracing at seed 0 and render one line per trace entry.
fn render_trace(circuit: Circuit) -> String {
    let mut sim = Simulation::new(circuit).with_trace().seed(0);
    sim.run().expect("golden circuits simulate cleanly");
    let mut out = String::new();
    for entry in sim.trace() {
        writeln!(out, "{entry}").expect("string write");
    }
    out
}

/// Compare against (or, with `UPDATE_GOLDEN=1`, rewrite) the snapshot.
fn assert_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_traces",
            path.display()
        )
    });
    assert!(
        expected == rendered,
        "trace for '{name}' diverged from {}.\n\
         If the semantic change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_traces\n\
         --- expected ---\n{expected}\n--- got ---\n{rendered}",
        path.display()
    );
}

#[test]
fn golden_ripple_adder() {
    let mut c = Circuit::new();
    ripple_adder_with_inputs(&mut c, 4, 9, 6, false).unwrap();
    assert_golden("ripple_adder", &render_trace(c));
}

#[test]
fn golden_dual_rail() {
    // The two-level clockless circuit q = (a AND b) XOR c with a=1, b=1, c=0.
    let mut c = Circuit::new();
    let a = dr_input(&mut c, true, 20.0, "A");
    let b = dr_input(&mut c, true, 28.0, "B");
    let cw = dr_input(&mut c, false, 36.0, "C");
    let ab = dr_and(&mut c, a, b).unwrap();
    let q = dr_xor(&mut c, ab, cw).unwrap();
    dr_inspect(&mut c, q, "Q");
    assert_golden("dual_rail", &render_trace(c));
}

#[test]
fn golden_decision_tree() {
    // The paper's §5.2 race-tree shape, classifying [20, 12] → label "a".
    let tree = Tree::branch(
        0,
        50.0,
        Tree::branch(1, 30.0, Tree::leaf("a"), Tree::leaf("b")),
        Tree::branch(1, 70.0, Tree::leaf("c"), Tree::leaf("d")),
    );
    let mut c = Circuit::new();
    decision_tree_with_inputs(&mut c, &tree, &[20.0, 12.0], 20.0).unwrap();
    assert_golden("decision_tree", &render_trace(c));
}

#[test]
fn golden_xsfq_adder() {
    // The dual-rail full adder computing 1 + 0 + 1.
    let mut c = Circuit::new();
    full_adder_xsfq_with_inputs(&mut c, true, false, true).unwrap();
    assert_golden("xsfq_adder", &render_trace(c));
}

#[test]
fn golden_bitonic_16() {
    // The scaled 16-input sorter under the depth-stretched rank-gap
    // stimulus.
    let mut c = Circuit::new();
    bitonic_sorter_with_inputs(&mut c, &bitonic_stimulus(16, 15.0)).unwrap();
    assert_golden("bitonic_16", &render_trace(c));
}

#[test]
fn golden_minmax_shmoo_map() {
    // A small fixed-seed margin map for the min-max pair, pinned byte for
    // byte: every cell verdict is a deterministic function of the map's
    // master seed and the cell's grid index, so this render must never
    // drift — not across thread counts or adaptive vs uniform
    // evaluation order (the per-cell seeds are shared).
    let sigmas = [0.0, 1.0, 2.0];
    let scales: Vec<f64> = (0..8).map(|i| 0.05 + 0.25 * i as f64).collect();
    let opts = ShmooOptions {
        trials: 16,
        ..ShmooOptions::default()
    };
    let adaptive = shmoo_map("min_max", &sigmas, &scales, &opts);
    assert_golden("minmax_shmoo", &adaptive.render());
    // The uniform (exhaustive) map must agree on every verdict; only the
    // measured/inferred provenance and the adaptive flag may differ.
    let uniform = shmoo_map(
        "min_max",
        &sigmas,
        &scales,
        &ShmooOptions {
            adaptive: false,
            ..opts
        },
    );
    for row in 0..sigmas.len() {
        for col in 0..scales.len() {
            assert_eq!(
                adaptive.cell(row, col).passes(),
                uniform.cell(row, col).passes(),
                "verdict mismatch at row {row} col {col}"
            );
        }
    }
}

#[test]
fn golden_traces_are_seed_stable() {
    // The snapshots are taken without variability, so the seed must be
    // irrelevant: any seed yields the same trace as seed 0.
    let build = || {
        let mut c = Circuit::new();
        ripple_adder_with_inputs(&mut c, 4, 9, 6, false).unwrap();
        c
    };
    let base = render_trace(build());
    let mut sim = Simulation::new(build()).with_trace().seed(12345);
    sim.run().unwrap();
    let mut other = String::new();
    for entry in sim.trace() {
        writeln!(other, "{entry}").unwrap();
    }
    assert_eq!(base, other);
}
