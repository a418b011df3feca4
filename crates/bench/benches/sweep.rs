//! Criterion bench for the Monte-Carlo sweep engine: the same 1000-trial
//! Gaussian-jitter study of the 4-bit ripple adder run three ways —
//!
//! * `serial_rebuild` — the pre-sweep baseline: rebuild the circuit and a
//!   fresh `Simulation` for every trial, single-threaded (what the old
//!   `robustness` binary did);
//! * `sweep_1_thread` — the sweep pinned to one worker, isolating its
//!   compile-once, observed-only recording win;
//! * `sweep_all_threads` — the sweep on all cores, adding the parallel
//!   fan-out win.
//!
//! A final smoke check prints the measured speedup of the parallel sweep
//! over the serial-rebuild baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use rlse_core::prelude::*;
use rlse_core::sweep::trial_seed;
use rlse_designs::ripple_adder_with_inputs;
use std::time::Instant;

const TRIALS: u64 = 1000;
const SIGMA: f64 = 0.2;
const SEED: u64 = 42;

fn build() -> Circuit {
    let mut c = Circuit::new();
    ripple_adder_with_inputs(&mut c, 4, 9, 6, false).expect("valid bench");
    c
}

/// The pre-sweep baseline: per-trial rebuild, serial.
fn serial_rebuild(trials: u64) -> u64 {
    let mut ok = 0;
    for trial in 0..trials {
        let mut sim = Simulation::new(build())
            .variability(Variability::Gaussian { std: SIGMA })
            .seed(trial_seed(SEED, trial));
        if sim.run().is_ok() {
            ok += 1;
        }
    }
    ok
}

fn run_sweep(trials: u64, threads: usize) -> SweepReport {
    Sweep::over(build)
        .variability(|| Variability::Gaussian { std: SIGMA })
        .trials(trials)
        .master_seed(SEED)
        .threads(threads)
        .run()
}

fn monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_ripple_adder_1000");
    group.sample_size(10);
    group.bench_function("serial_rebuild", |b| b.iter(|| serial_rebuild(TRIALS)));
    group.bench_function("sweep_1_thread", |b| b.iter(|| run_sweep(TRIALS, 1)));
    group.bench_function("sweep_all_threads", |b| b.iter(|| run_sweep(TRIALS, 0)));
    group.finish();
}

fn speedup_summary(_c: &mut Criterion) {
    let t0 = Instant::now();
    let baseline_ok = serial_rebuild(TRIALS);
    let baseline = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = run_sweep(TRIALS, 0);
    let parallel = t1.elapsed().as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "speedup summary: serial rebuild {baseline:.3}s vs parallel sweep {parallel:.3}s \
         => {:.2}x on {cores} cores (ok: baseline {baseline_ok}, sweep {})",
        baseline / parallel.max(1e-12),
        report.ok,
    );
    assert_eq!(
        baseline_ok, report.ok,
        "sweep and baseline must agree on trial outcomes"
    );
    assert_eq!(
        report,
        run_sweep(TRIALS, 1),
        "thread count must not change the report"
    );
}

criterion_group!(benches, monte_carlo, speedup_summary);
criterion_main!(benches);
