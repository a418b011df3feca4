//! Differential test harness: every [`Sweep`] must be **bit-identical**
//! to its per-trial [`Simulation`] reference (`Sweep::run_reference`) —
//! not statistically close, equal.
//!
//! For every Table-3 design, the same Monte-Carlo study (Gaussian jitter at
//! a σ hot enough to make some trials fail their functional check) is run
//! on the lane kernel via `run_detailed`, and every per-trial verdict and
//! every output pulse time must match the reference exactly, across thread
//! counts {1, 4, 8} and batch widths {1, 7, 64}. The aggregated
//! `SweepReport`s must also be bitwise-equal, since both paths feed the
//! same serial reduction in trial order. The same grid covers the cases the
//! lane kernel must get right beyond the designs: a hole circuit (which
//! runs per trial), `until` on a feedback loop, and a stateful
//! `Variability::Custom`.
//!
//! The harness drives the exact circuits the shmoo maps sweep
//! ([`rlse::designs::design_spec`]), at a scale/σ point chosen per design
//! so the verdict set is *mixed* — a guard asserts at least one passing and
//! one non-passing trial, so agreement is never vacuous.

use rlse::core::sweep::{Sweep, SweepDetails, SweepReport, TrialVerdict};
use rlse::designs::ring::ring_oscillator;
use rlse::designs::{design_spec, shmoo_design_names, shmoo_map, ShmooOptions};
use rlse::prelude::*;

const TRIALS: u64 = 48;
const SEED: u64 = 0xD1FF;
const THREADS: [usize; 3] = [1, 4, 8];
const WIDTHS: [usize; 3] = [1, 7, 64];

/// A (scale, σ) operating point per design, tuned so that `TRIALS` trials
/// at `SEED` produce a mix of passing and non-passing verdicts: close
/// enough to the margin boundary that jitter flips some trials.
fn hot_point(design: &str) -> (f64, f64) {
    match design {
        "min_max" => (0.25, 5.0),
        "race_tree" => (0.15, 3.0),
        "adder_sync" => (0.25, 5.0),
        // The clockless xSFQ adder has no race to lose, so it only breaks
        // under jitter comparable to the cell hold times themselves.
        "adder_xsfq" => (3.0, 5.0),
        "bitonic_4" => (1.0, 5.0),
        "bitonic_8" => (0.8, 1.0),
        "bitonic_16" => (0.8, 1.0),
        "bitonic_32" => (0.8, 1.0),
        other => panic!("no hot point for design '{other}'"),
    }
}

/// The hot-point study of one design, ready for threads/width.
fn design_sweep(design: &str) -> Sweep<'static> {
    let (build, check) = design_spec(design);
    let (scale, sigma) = hot_point(design);
    Sweep::over(move || build(scale))
        .variability(move || Variability::Gaussian { std: sigma })
        .check(check)
        .trials(TRIALS)
        .master_seed(SEED)
}

/// The core differential assertion: the per-trial reference of
/// `sweep()` against the sweep itself at every (threads × width)
/// combination, per-trial details and aggregate reports both.
fn assert_matches_reference(what: &str, sweep: impl Fn() -> Sweep<'static>) -> SweepDetails {
    let (reference_report, reference): (SweepReport, SweepDetails) =
        sweep().threads(1).run_reference();
    for threads in THREADS {
        for width in WIDTHS {
            let details = sweep().threads(threads).batch_width(width).run_detailed();
            assert_eq!(
                reference, details,
                "{what}: sweep diverged from the per-trial reference at \
                 threads={threads} width={width}"
            );
            let report = sweep().threads(threads).batch_width(width).run();
            assert_eq!(
                reference_report, report,
                "{what}: aggregate reports diverged at threads={threads} width={width}"
            );
        }
    }
    reference
}

fn assert_engines_identical(design: &str) {
    let reference = assert_matches_reference(design, || design_sweep(design));

    // Vacuity guard: the operating point must produce mixed verdicts, or
    // the equality above proves nothing about verdict classification.
    let passing = reference
        .trials
        .iter()
        .filter(|t| t.verdict == TrialVerdict::Ok)
        .count();
    assert!(
        passing > 0 && passing < TRIALS as usize,
        "{design}: operating point not hot ({passing}/{TRIALS} trials pass) — \
         the differential comparison would be vacuous"
    );
    // And the details must carry actual pulse data for clean trials.
    assert!(
        reference
            .trials
            .iter()
            .any(|t| t.outputs.iter().any(|o| !o.is_empty())),
        "{design}: no output pulses recorded in any trial"
    );
}

#[test]
fn min_max_batch_matches_scalar() {
    assert_engines_identical("min_max");
}

#[test]
fn race_tree_batch_matches_scalar() {
    assert_engines_identical("race_tree");
}

#[test]
fn adder_sync_batch_matches_scalar() {
    assert_engines_identical("adder_sync");
}

#[test]
fn adder_xsfq_batch_matches_scalar() {
    assert_engines_identical("adder_xsfq");
}

#[test]
fn bitonic_4_batch_matches_scalar() {
    assert_engines_identical("bitonic_4");
}

#[test]
fn bitonic_8_batch_matches_scalar() {
    assert_engines_identical("bitonic_8");
}

#[test]
fn bitonic_16_batch_matches_scalar() {
    assert_engines_identical("bitonic_16");
}

#[test]
fn bitonic_32_batch_matches_scalar() {
    assert_engines_identical("bitonic_32");
}

#[test]
fn design_list_is_covered() {
    // If a new design joins the shmoo set, it must also join this harness.
    let covered = [
        "min_max",
        "race_tree",
        "adder_sync",
        "adder_xsfq",
        "bitonic_4",
        "bitonic_8",
        "bitonic_16",
        "bitonic_32",
    ];
    assert_eq!(shmoo_design_names(), &covered);
}

// ------------------------------------------------------------ edge cases

/// `trials == 0` is an empty study, not a panic: the sweep and its
/// reference return an empty report with every counter at zero.
#[test]
fn zero_trials_is_empty_report_not_panic() {
    let (build, check) = design_spec("min_max");
    let sweep = || {
        Sweep::over(move || build(1.0))
            .check(check)
            .trials(0)
            .batch_width(16)
    };
    let report = sweep().run();
    let (reference, details) = sweep().run_reference();
    for report in [&report, &reference] {
        assert_eq!(report.trials, 0);
        assert_eq!(report.ok, 0);
        assert_eq!(report.check_failures, 0);
        assert_eq!(report.timing_violations, 0);
        assert_eq!(report.other_errors, 0);
    }
    assert_eq!(report, reference);
    assert!(details.trials.is_empty());
    assert!(sweep().run_detailed().trials.is_empty());
}

/// An empty parameter grid is an empty map, not a panic: no sigmas means
/// no rows, no scales means rows of zero width, and in both cases zero
/// sweeps are evaluated.
#[test]
fn empty_parameter_grid_is_empty_map_not_panic() {
    let opts = ShmooOptions {
        trials: 4,
        ..ShmooOptions::default()
    };
    let no_rows = shmoo_map("min_max", &[], &[0.5, 1.0], &opts);
    assert!(no_rows.cells.is_empty());
    assert_eq!(no_rows.evaluated, 0);

    let no_cols = shmoo_map("min_max", &[0.0, 1.0], &[], &opts);
    assert!(no_cols.cells.is_empty());
    assert_eq!(no_cols.evaluated, 0);
    assert_eq!(no_cols.margin_scale(0), None);

    let nothing = shmoo_map("min_max", &[], &[], &opts);
    assert!(nothing.cells.is_empty());
    // Rendering an empty map is well-defined, too.
    assert!(nothing.render().starts_with("shmoo design=min_max"));
}

/// Gaussian σ = 0 must be *identical* to running with no variability at
/// all: the jitter path samples a zero-width distribution, so every delay
/// equals its nominal value and the pulse times match bit for bit.
#[test]
fn sigma_zero_equals_nominal_run() {
    for design in shmoo_design_names() {
        let (build, check) = design_spec(design);
        let jittered = Sweep::over(move || build(1.0))
            .variability(|| Variability::Gaussian { std: 0.0 })
            .check(check)
            .trials(8)
            .master_seed(123)
            .run_detailed();
        let nominal = Sweep::over(move || build(1.0))
            .check(check)
            .trials(8)
            .master_seed(123)
            .run_detailed();
        assert_eq!(
            jittered, nominal,
            "{design}: σ=0 jitter must be indistinguishable from the nominal run"
        );
        // And with zero-width jitter every trial is the same trial.
        for t in &jittered.trials[1..] {
            assert_eq!(t.outputs, jittered.trials[0].outputs);
        }
    }
}

/// A circuit with a behavioral hole runs every trial on a simulation of
/// its own; the block deal and stitch must still be thread- and
/// width-invariant.
#[test]
fn hole_circuit_matches_reference() {
    let build = || {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 40.0, 70.0], "A");
        let b = c.inp_at(&[25.0, 55.0], "B");
        let or = Hole::new("or", 2.0, &["a", "b"], &["q"], |p: &[bool], _t| {
            vec![p[0] || p[1]]
        });
        let q = c.add_hole(or, &[a, b]).unwrap()[0];
        let q = rlse::cells::jtl(&mut c, q).unwrap();
        c.inspect(q, "Q");
        c
    };
    let details = assert_matches_reference("hole", || {
        Sweep::over(build)
            .variability(|| Variability::Gaussian { std: 0.5 })
            .trials(TRIALS)
            .master_seed(SEED)
    });
    assert!(details.trials.iter().all(|t| t.outputs[2].len() == 5));
}

/// A ring oscillator pulses forever; `until` alone ends each trial, on
/// the lane kernel exactly where the reference ends it.
#[test]
fn feedback_loop_until_matches_reference() {
    let build = || {
        let mut c = Circuit::new();
        let seed = c.inp_at(&[10.0], "SEED");
        let osc = ring_oscillator(&mut c, seed, 3).unwrap();
        c.inspect(osc.tap, "TAP");
        c
    };
    let details = assert_matches_reference("ring", || {
        Sweep::over(build)
            .variability(|| Variability::Gaussian { std: 0.5 })
            .until(300.0)
            .trials(TRIALS)
            .master_seed(SEED)
    });
    let taps = &details.trials[0].outputs[1];
    assert!(
        taps.len() > 2 && taps.iter().all(|&t| t <= 300.0),
        "{taps:?}"
    );
}

/// A stateful custom delay model: the factory builds a fresh closure per
/// trial whose k-th firing gets `+0.05·k` plus a draw from the trial's RNG
/// stream, so any divergence in per-lane dispatch order, closure state or
/// RNG position shows up in the pulse times.
#[test]
fn stateful_custom_variability_matches_reference() {
    let (build, check) = design_spec("bitonic_4");
    assert_matches_reference("custom", || {
        Sweep::over(move || build(1.0))
            .variability(|| {
                let mut k = 0u32;
                Variability::Custom(Box::new(move |nominal, _cell, rng| {
                    k += 1;
                    let u = rng.next_u32() as f64 / u32::MAX as f64;
                    nominal + 0.05 * k as f64 + u
                }))
            })
            .check(check)
            .trials(TRIALS)
            .master_seed(SEED)
    });
}
