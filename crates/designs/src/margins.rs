//! Sweep-based timing-margin analyses for the larger designs: how much
//! Gaussian delay jitter (paper §5.2) can the ripple-carry adder and the
//! race-logic decision tree absorb before they mis-compute?
//!
//! Each analysis runs a deterministic Monte-Carlo [`Sweep`] per jitter σ
//! with a functional-correctness check (sum decodes correctly; the fired
//! label matches the software reference) and reports the per-σ failure
//! breakdown. The smallest σ whose failure rate exceeds a tolerance is the
//! design's *margin*.
//!
//! On top of the 1-D σ ladders, [`shmoo_map`] produces the paper's 2-D
//! *shmoo* view (Fig. 13 / Table 3) for every Table-3 design: jitter σ on
//! one axis, a per-design **time-scale factor** on the other (how much the
//! stimulus timing is stretched relative to a nominal schedule — larger is
//! looser, so passes accumulate on the large-scale side). Each cell is one
//! deterministic [`Sweep`] run; the adaptive mapper bisects the
//! pass–fail boundary per row ([`find_first_pass`]) so a W-cell row costs
//! O(log W) sweeps instead of W, with an exhaustive-scan fallback for
//! distrusted oracles.

use crate::adder::full_adder_sync;
use crate::bitonic::bitonic_sorter_with_inputs;
use crate::decision_tree::{decision_tree_with_inputs, Tree};
use crate::minmax::min_max;
use crate::race_tree::{race_tree, Thresholds};
use crate::ripple_adder::{decode_sum, ripple_adder_with_inputs};
use crate::xsfq_adder::{full_adder_xsfq, DualRail};
use rlse_core::circuit::Circuit;
use rlse_core::events::Events;
use rlse_core::sim::Variability;
use rlse_core::sweep::{trial_seed, Sweep, SweepReport};

/// One row of a margin analysis: the jitter σ applied and the sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginPoint {
    /// Standard deviation of the Gaussian delay jitter, in ps.
    pub sigma: f64,
    /// The aggregated sweep under that jitter.
    pub report: SweepReport,
}

/// The outcome of sweeping a design across a σ ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginAnalysis {
    /// One point per σ, in the order given.
    pub points: Vec<MarginPoint>,
}

impl MarginAnalysis {
    /// The smallest σ whose failure rate exceeds `tolerance`, if any — the
    /// design's usable jitter margin ends just below it.
    pub fn margin_sigma(&self, tolerance: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.report.failure_rate() > tolerance)
            .map(|p| p.sigma)
    }
}

fn sweep_margin<'a>(
    build: impl Fn() -> Circuit + Sync + 'a,
    check: impl Fn(&rlse_core::events::Events) -> bool + Sync + 'a,
    sigmas: &[f64],
    trials: u64,
    master_seed: u64,
    threads: usize,
) -> MarginAnalysis {
    let build = &build;
    let check = &check;
    let points = sigmas
        .iter()
        .map(|&sigma| MarginPoint {
            sigma,
            report: Sweep::over(build)
                .variability(move || Variability::Gaussian { std: sigma })
                .check(check)
                .trials(trials)
                .master_seed(master_seed)
                .threads(threads)
                .run(),
        })
        .collect();
    MarginAnalysis { points }
}

/// Sweep the `n`-bit ripple-carry adder computing `x + y` across the given
/// jitter σ ladder: a trial passes when the decoded sum is arithmetically
/// correct.
pub fn ripple_adder_margin(
    n: usize,
    x: u64,
    y: u64,
    sigmas: &[f64],
    trials: u64,
    master_seed: u64,
    threads: usize,
) -> MarginAnalysis {
    let expected = x + y;
    sweep_margin(
        move || {
            let mut circ = Circuit::new();
            ripple_adder_with_inputs(&mut circ, n, x, y, false).expect("valid adder bench");
            circ
        },
        move |ev| decode_sum(ev, n) == expected,
        sigmas,
        trials,
        master_seed,
        threads,
    )
}

/// Sweep a race-logic decision tree classifying `values` across the jitter
/// σ ladder: a trial passes when exactly the reference label fires, exactly
/// once.
pub fn decision_tree_margin(
    tree: &Tree,
    values: &[f64],
    sigmas: &[f64],
    trials: u64,
    master_seed: u64,
    threads: usize,
) -> MarginAnalysis {
    let expected = tree.classify(values).to_string();
    let labels: Vec<String> = tree.labels().into_iter().map(String::from).collect();
    let tree = tree.clone();
    let values = values.to_vec();
    sweep_margin(
        move || {
            let mut circ = Circuit::new();
            decision_tree_with_inputs(&mut circ, &tree, &values, 20.0)
                .expect("valid decision-tree bench");
            circ
        },
        move |ev| {
            labels
                .iter()
                .all(|l| ev.times(l).len() == usize::from(*l == expected))
        },
        sigmas,
        trials,
        master_seed,
        threads,
    )
}

/// Where the pass–fail boundary of a fail→pass monotone oracle sits on a
/// grid of `n` points (see [`find_first_pass`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The smallest index that passes; every index `>= i` is (assumed)
    /// passing, every index `< i` failing.
    At(usize),
    /// No grid point passes.
    AllFail,
}

impl Boundary {
    /// The boundary index, if any point passes.
    pub fn first_pass(self) -> Option<usize> {
        match self {
            Boundary::At(i) => Some(i),
            Boundary::AllFail => None,
        }
    }
}

/// Adaptive boundary sampler: find the smallest passing index of a
/// fail→pass monotone oracle over `0..n` with O(log n) evaluations.
///
/// Both endpoints are always evaluated, then the pass–fail boundary is
/// bisected keeping the invariant *fail(lo) ∧ pass(hi)* — so every
/// evaluated failing point lies strictly below the returned boundary and
/// every evaluated passing point at or above it. On a genuinely monotone
/// oracle the result equals [`find_first_pass_uniform`] exactly, at
/// `2 + ⌈log₂ n⌉` evaluations instead of `n`.
///
/// If the endpoints reveal a non-monotone direction (index 0 passes), the
/// smallest passing index is by definition 0 and is returned directly;
/// oracles that are not even approximately monotone should use the uniform
/// fallback instead.
pub fn find_first_pass(n: usize, mut passes: impl FnMut(usize) -> bool) -> Boundary {
    if n == 0 {
        return Boundary::AllFail;
    }
    if passes(0) {
        return Boundary::At(0);
    }
    if n == 1 || !passes(n - 1) {
        return Boundary::AllFail;
    }
    // Invariant: fail(lo), pass(hi).
    let (mut lo, mut hi) = (0usize, n - 1);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Boundary::At(hi)
}

/// Exhaustive fallback for [`find_first_pass`]: evaluate every grid point
/// in order and return the smallest passing index. Correct for any oracle,
/// monotone or not, at `n` evaluations.
pub fn find_first_pass_uniform(n: usize, mut passes: impl FnMut(usize) -> bool) -> Boundary {
    for i in 0..n {
        if passes(i) {
            return Boundary::At(i);
        }
    }
    Boundary::AllFail
}

/// One cell of a [`ShmooMap`]: its pass/fail verdict and whether the cell
/// was measured by a sweep or inferred from the row's bisected boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// A sweep ran and the failure rate was within tolerance.
    PassMeasured,
    /// Not measured; at or beyond the row's measured pass boundary.
    PassInferred,
    /// A sweep ran and the failure rate exceeded tolerance.
    FailMeasured,
    /// Not measured; below the row's measured pass boundary.
    FailInferred,
}

impl CellState {
    /// The cell's verdict, measured or inferred.
    pub fn passes(self) -> bool {
        matches!(self, CellState::PassMeasured | CellState::PassInferred)
    }

    /// True if a sweep actually ran for this cell.
    pub fn measured(self) -> bool {
        matches!(self, CellState::PassMeasured | CellState::FailMeasured)
    }
}

/// Knobs for [`shmoo_map`]. The defaults suit interactive exploration;
/// drop `trials` for smoke runs, raise it for publication-grade maps.
#[derive(Debug, Clone)]
pub struct ShmooOptions {
    /// Monte-Carlo trials per evaluated cell (default 200).
    pub trials: u64,
    /// Master seed; each cell derives its own seed from it and the cell's
    /// grid index, so adaptive and uniform mapping measure identical
    /// verdicts for every cell they share (default 0xB10C).
    pub master_seed: u64,
    /// Sweep worker threads, 0 = available parallelism (default 0).
    pub threads: usize,
    /// A cell passes when its sweep failure rate is `<= tolerance`
    /// (default 0.05).
    pub tolerance: f64,
    /// Bisect each row's pass–fail boundary instead of sweeping every cell
    /// (default true).
    pub adaptive: bool,
}

impl Default for ShmooOptions {
    fn default() -> Self {
        ShmooOptions {
            trials: 200,
            master_seed: 0xB10C,
            threads: 0,
            tolerance: 0.05,
            adaptive: true,
        }
    }
}

/// A 2-D pass/fail margin map: jitter σ per row, time-scale factor per
/// column (larger = looser timing, so each row is fail→pass monotone in
/// the scale). Produced by [`shmoo_map`]; render with
/// [`render`](Self::render).
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooMap {
    /// The design swept (one of [`shmoo_design_names`]).
    pub design: String,
    /// Row axis: Gaussian jitter σ in ps.
    pub sigmas: Vec<f64>,
    /// Column axis: the per-design stimulus time-scale factor.
    pub scales: Vec<f64>,
    /// Trials per evaluated cell.
    pub trials: u64,
    /// The master seed the per-cell seeds derive from.
    pub master_seed: u64,
    /// The failure-rate pass threshold.
    pub tolerance: f64,
    /// Whether rows were bisected (true) or fully swept (false).
    pub adaptive: bool,
    /// Row-major cell states, `cells[row * scales.len() + col]`.
    pub cells: Vec<CellState>,
    /// How many cells were actually measured by a sweep.
    pub evaluated: u64,
}

impl ShmooMap {
    /// The cell at (σ row, scale column).
    pub fn cell(&self, row: usize, col: usize) -> CellState {
        self.cells[row * self.scales.len() + col]
    }

    /// The smallest passing time-scale factor of a σ row, if any — the
    /// row's timing margin boundary.
    pub fn margin_scale(&self, row: usize) -> Option<f64> {
        (0..self.scales.len())
            .find(|&col| self.cell(row, col).passes())
            .map(|col| self.scales[col])
    }

    /// Deterministic text rendering (the golden-file format): a header
    /// naming the sweep configuration, then one row per σ with one
    /// character per cell — `P`/`p` pass (measured/inferred), `F`/`f` fail.
    /// Byte-identical for equal maps.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "shmoo design={} trials={} seed={} tol={} adaptive={}\n",
            self.design, self.trials, self.master_seed, self.tolerance, self.adaptive
        ));
        out.push_str("legend: P=pass p=pass(inferred) F=fail f=fail(inferred)\n");
        out.push_str(&format!("scales: {:?}\n", self.scales));
        for (row, sigma) in self.sigmas.iter().enumerate() {
            out.push_str(&format!("sigma {sigma:>5}: "));
            for col in 0..self.scales.len() {
                out.push(match self.cell(row, col) {
                    CellState::PassMeasured => 'P',
                    CellState::PassInferred => 'p',
                    CellState::FailMeasured => 'F',
                    CellState::FailInferred => 'f',
                });
            }
            out.push('\n');
        }
        out
    }
}

/// The Table-3 designs [`shmoo_map`] knows how to sweep.
pub fn shmoo_design_names() -> &'static [&'static str] {
    &[
        "min_max",
        "race_tree",
        "adder_sync",
        "adder_xsfq",
        "bitonic_4",
        "bitonic_8",
        "bitonic_16",
        "bitonic_32",
    ]
}

/// A scaled stimulus bench builder: constructs a design with its input
/// schedule stretched by the given time-scale factor.
pub type ScaledBuild = fn(f64) -> Circuit;

/// A functional-correctness predicate over a design's observed outputs.
pub type OutputCheck = fn(&Events) -> bool;

/// Each design's scaled stimulus bench: `build(scale)` constructs the
/// circuit with its input schedule stretched by `scale`, and `check`
/// verifies functional correctness of the observed outputs.
///
/// Exposed so the differential test harness can drive the exact circuits
/// the shmoo maps sweep.
///
/// # Panics
///
/// Panics if `name` is not one of [`shmoo_design_names`].
pub fn design_spec(name: &str) -> (ScaledBuild, OutputCheck) {
    match name {
        "min_max" => (build_min_max, check_min_max),
        "race_tree" => (build_race_tree, check_race_tree),
        "adder_sync" => (build_adder_sync, check_adder_sync),
        "adder_xsfq" => (build_adder_xsfq, check_adder_xsfq),
        "bitonic_4" => (build_bitonic_4, check_bitonic_4),
        "bitonic_8" => (build_bitonic_8, check_bitonic_8),
        "bitonic_16" => (build_bitonic_16, check_bitonic_16),
        "bitonic_32" => (build_bitonic_32, check_bitonic_32),
        other => panic!("unknown shmoo design '{other}' (expected one of {:?})", shmoo_design_names()),
    }
}

/// Two min-max rounds with the inter-pulse spacing scaled: A leads B by
/// `12·s` ps and rounds are `120·s` ps apart. Tight scales collide the
/// rounds inside the comparator cells.
fn build_min_max(s: f64) -> Circuit {
    let [a0, a1, b0, b1] = min_max_times(s);
    let mut c = Circuit::new();
    let a = c.inp_at(&[a0, a1], "A");
    let b = c.inp_at(&[b0, b1], "B");
    let (low, high) = min_max(&mut c, a, b).expect("valid min_max bench");
    c.inspect(low, "LOW");
    c.inspect(high, "HIGH");
    c
}

/// A's two pulse times, then B's.
fn min_max_times(s: f64) -> [f64; 4] {
    [30.0, 30.0 + 120.0 * s, 30.0 + 12.0 * s, 30.0 + 132.0 * s]
}

fn check_min_max(ev: &Events) -> bool {
    let low = ev.times("LOW");
    let high = ev.times("HIGH");
    low.len() == 2 && high.len() == 2 && low.iter().zip(high).all(|(l, h)| l <= h)
}

/// Race tree classifying toward label `a`: feature 1 sits `30·s` ps below
/// its 50 ps threshold, so tight scales put the race photo-finish close.
fn build_race_tree(s: f64) -> Circuit {
    let [f1, f2, start] = race_tree_times(s);
    let mut c = Circuit::new();
    let f1 = c.inp_at(&[f1], "f1");
    let f2 = c.inp_at(&[f2], "f2");
    let start = c.inp_at(&[start], "start");
    let labels =
        race_tree(&mut c, f1, f2, start, Thresholds::default()).expect("valid race-tree bench");
    for (w, n) in labels.iter().zip(["a", "b", "c", "d"]) {
        c.inspect(*w, n);
    }
    c
}

/// The pulse times of features f1 and f2 and of the start pulse at 20 ps;
/// each feature arrives its value after the start.
fn race_tree_times(s: f64) -> [f64; 3] {
    let start = 20.0;
    [start + (50.0 - 30.0 * s), start + 10.0, start]
}

fn check_race_tree(ev: &Events) -> bool {
    ev.times("a").len() == 1
        && ev.times("b").is_empty()
        && ev.times("c").is_empty()
        && ev.times("d").is_empty()
}

/// Synchronous adder computing 1+1+0: data at 20 ps, the clock at `50·s`
/// ps (nominal schedule at s = 1). Tight scales fire the phase-1 clock
/// before the data reaches the capture gates, so the pipeline never emits.
fn build_adder_sync(s: f64) -> Circuit {
    let [a, b, clk] = adder_sync_times(s);
    let mut c = Circuit::new();
    let a = c.inp_at(&[a], "A");
    let b = c.inp_at(&[b], "B");
    let cin = c.inp_at(&[], "CIN");
    let clk = c.inp_at(&[clk], "CLK");
    let outs = full_adder_sync(&mut c, a, b, cin, clk).expect("valid sync-adder bench");
    c.inspect(outs.sum, "SUM");
    c.inspect(outs.cout, "COUT");
    c
}

/// The pulse times of A, B and CLK (CIN stays silent).
fn adder_sync_times(s: f64) -> [f64; 3] {
    [20.0, 20.0, 50.0 * s]
}

fn check_adder_sync(ev: &Events) -> bool {
    // 1 + 1 + 0 = 10₂: no sum pulse, one carry pulse.
    ev.times("SUM").is_empty() && ev.times("COUT").len() == 1
}

/// Dual-rail adder computing 1+1+0 with the input stagger scaled
/// (operands at 20, 20+6·s, 20+12·s ps).
fn build_adder_xsfq(s: f64) -> Circuit {
    let mut c = Circuit::new();
    let mk = |c: &mut Circuit, bit: bool, t0: f64, name: &str| {
        let t_times: &[f64] = if bit { &[t0] } else { &[] };
        let f_times: &[f64] = if bit { &[] } else { &[t0] };
        DualRail {
            t: c.inp_at(t_times, &format!("{name}_T")),
            f: c.inp_at(f_times, &format!("{name}_F")),
        }
    };
    let [a, b, cin] = adder_xsfq_times(s);
    let a = mk(&mut c, true, a, "A");
    let b = mk(&mut c, true, b, "B");
    let cin = mk(&mut c, false, cin, "CIN");
    let outs = full_adder_xsfq(&mut c, a, b, cin).expect("valid xSFQ-adder bench");
    c.inspect(outs.sum.t, "SUM_T");
    c.inspect(outs.sum.f, "SUM_F");
    c.inspect(outs.cout.t, "COUT_T");
    c.inspect(outs.cout.f, "COUT_F");
    c
}

/// The pulse times of operands A, B and CIN.
fn adder_xsfq_times(s: f64) -> [f64; 3] {
    [20.0, 20.0 + 6.0 * s, 20.0 + 12.0 * s]
}

fn check_adder_xsfq(ev: &Events) -> bool {
    // 1 + 1 + 0 = 10₂ in dual rail: SUM_F and COUT_T pulse exactly once.
    ev.times("SUM_T").is_empty()
        && ev.times("SUM_F").len() == 1
        && ev.times("COUT_T").len() == 1
        && ev.times("COUT_F").is_empty()
}

/// Bitonic sorter stimulus: input `k` pulses at
/// `20 + rank_gap(n)·s·((7k+3) mod n)` — a permuted ramp with
/// `rank_gap(n)·s` ps between adjacent ranks (distinct for every `k` since
/// gcd(7, n) = 1; the gap is a flat 10 ps through n = 8 and depth-stretched
/// beyond, see [`crate::bitonic::bitonic_rank_gap`]), so tight scales leave
/// the comparators no timing headroom to rank-order the pulses.
fn build_bitonic(n: usize, s: f64) -> Circuit {
    let mut c = Circuit::new();
    bitonic_sorter_with_inputs(&mut c, &bitonic_times(n, s)).expect("valid bitonic bench");
    c
}

fn bitonic_times(n: usize, s: f64) -> Vec<f64> {
    let gap = crate::bitonic::bitonic_rank_gap(n);
    (0..n)
        .map(|k| 20.0 + gap * s * ((k * 7 + 3) % n) as f64)
        .collect()
}

fn check_bitonic(n: usize, ev: &Events) -> bool {
    let mut prev = f64::NEG_INFINITY;
    for k in 0..n {
        let t = ev.times(&format!("o{k}"));
        if t.len() != 1 || t[0] < prev {
            return false;
        }
        prev = t[0];
    }
    true
}

fn build_bitonic_4(s: f64) -> Circuit {
    build_bitonic(4, s)
}
fn check_bitonic_4(ev: &Events) -> bool {
    check_bitonic(4, ev)
}
fn build_bitonic_8(s: f64) -> Circuit {
    build_bitonic(8, s)
}
fn check_bitonic_8(ev: &Events) -> bool {
    check_bitonic(8, ev)
}
fn build_bitonic_16(s: f64) -> Circuit {
    build_bitonic(16, s)
}
fn check_bitonic_16(ev: &Events) -> bool {
    check_bitonic(16, ev)
}
fn build_bitonic_32(s: f64) -> Circuit {
    build_bitonic(32, s)
}
fn check_bitonic_32(ev: &Events) -> bool {
    check_bitonic(32, ev)
}

/// True if `name`'s bench can be built at time scale `s`: every stimulus
/// pulse lands at a finite, non-negative time. The builder panics
/// otherwise: for most designs at a negative scale, for all at a scale so
/// large that a pulse time overflows, and for `race_tree` above `s = 7/3`.
///
/// # Panics
///
/// Panics if `name` is not one of [`shmoo_design_names`].
pub fn shmoo_scale_is_valid(name: &str, s: f64) -> bool {
    // The bench builders take their pulse times from these same functions.
    let times = match name {
        "min_max" => min_max_times(s).to_vec(),
        "race_tree" => race_tree_times(s).to_vec(),
        "adder_sync" => adder_sync_times(s).to_vec(),
        "adder_xsfq" => adder_xsfq_times(s).to_vec(),
        "bitonic_4" => bitonic_times(4, s),
        "bitonic_8" => bitonic_times(8, s),
        "bitonic_16" => bitonic_times(16, s),
        "bitonic_32" => bitonic_times(32, s),
        other => panic!(
            "unknown shmoo design '{other}' (expected one of {:?})",
            shmoo_design_names()
        ),
    };
    times.iter().all(|t| t.is_finite() && *t >= 0.0)
}

/// Sweep a design across the (σ, time-scale) grid and classify every cell.
///
/// Each evaluated cell runs one deterministic [`Sweep`] of
/// `opts.trials` trials; its master seed is a pure function of the map's
/// seed and the cell's grid index, so the verdict of a cell does not
/// depend on evaluation order, adaptivity or thread count —
/// adaptive and uniform maps agree on every cell both measure, and equal
/// arguments produce byte-identical [`render`](ShmooMap::render) output.
///
/// With `opts.adaptive`, each σ row's fail→pass boundary over the scale
/// axis is bisected via [`find_first_pass`] and the unmeasured cells are
/// inferred from it; otherwise every cell is measured.
///
/// # Panics
///
/// Panics if `design` is not one of [`shmoo_design_names`].
pub fn shmoo_map(design: &str, sigmas: &[f64], scales: &[f64], opts: &ShmooOptions) -> ShmooMap {
    let (build, check) = design_spec(design);
    let n_cols = scales.len();
    let mut cells = vec![CellState::FailInferred; sigmas.len() * n_cols];
    let mut evaluated = 0u64;
    for (row, &sigma) in sigmas.iter().enumerate() {
        let eval = |col: usize| {
            let scale = scales[col];
            let seed = trial_seed(opts.master_seed, (row * n_cols + col) as u64);
            let report = Sweep::over(move || build(scale))
                .variability(move || Variability::Gaussian { std: sigma })
                .check(check)
                .trials(opts.trials)
                .master_seed(seed)
                .threads(opts.threads)
                .run();
            report.failure_rate() <= opts.tolerance
        };
        let mut measured: Vec<Option<bool>> = vec![None; n_cols];
        let boundary = if opts.adaptive {
            find_first_pass(n_cols, |col| {
                let p = eval(col);
                measured[col] = Some(p);
                p
            })
        } else {
            find_first_pass_uniform(n_cols, |col| {
                let p = eval(col);
                measured[col] = Some(p);
                p
            })
        };
        if !opts.adaptive {
            // Uniform mode measures the whole row, including cells past
            // the boundary the scan stopped at.
            for (col, slot) in measured.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = Some(eval(col));
                }
            }
        }
        for (col, slot) in measured.iter().enumerate() {
            cells[row * n_cols + col] = match slot {
                Some(true) => CellState::PassMeasured,
                Some(false) => CellState::FailMeasured,
                None => match boundary {
                    Boundary::At(i) if col >= i => CellState::PassInferred,
                    _ => CellState::FailInferred,
                },
            };
        }
        evaluated += measured.iter().flatten().count() as u64;
    }
    ShmooMap {
        design: design.to_string(),
        sigmas: sigmas.to_vec(),
        scales: scales.to_vec(),
        trials: opts.trials,
        master_seed: opts.master_seed,
        tolerance: opts.tolerance,
        adaptive: opts.adaptive,
        cells,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_that_would_panic_the_builders_are_invalid() {
        for &name in shmoo_design_names() {
            for s in [0.0, 1.0, 2.0] {
                assert!(shmoo_scale_is_valid(name, s), "{name} at scale {s}");
                design_spec(name).0(s);
            }
            assert_eq!(
                shmoo_scale_is_valid(name, -3.0),
                name == "race_tree",
                "{name}"
            );
            assert!(!shmoo_scale_is_valid(name, 1e308), "{name}");
        }
        assert!(shmoo_scale_is_valid("race_tree", 7.0 / 3.0));
        assert!(!shmoo_scale_is_valid("race_tree", 2.5));
    }

    #[test]
    fn adder_margin_clean_at_zero_sigma_and_degrades() {
        let analysis = ripple_adder_margin(2, 1, 2, &[0.0, 8.0], 24, 11, 0);
        // σ=0: every trial decodes 1+2=3.
        assert_eq!(analysis.points[0].report.ok, 24);
        // σ=8 ps rivals the cell delays themselves: the adder must break.
        assert!(analysis.points[1].report.failure_rate() > 0.0);
        assert_eq!(analysis.margin_sigma(0.01), Some(8.0));
    }

    #[test]
    fn adder_margin_is_deterministic_across_thread_counts() {
        let run = |threads| ripple_adder_margin(2, 2, 1, &[0.3], 16, 5, threads);
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn tree_margin_clean_at_zero_sigma() {
        let tree = Tree::branch(
            0,
            50.0,
            Tree::branch(1, 30.0, Tree::leaf("a"), Tree::leaf("b")),
            Tree::branch(1, 70.0, Tree::leaf("c"), Tree::leaf("d")),
        );
        let analysis = decision_tree_margin(&tree, &[20.0, 12.0], &[0.0], 16, 3, 0);
        assert_eq!(analysis.points[0].report.ok, 16);
        assert_eq!(analysis.margin_sigma(0.01), None);
    }

    #[test]
    fn tree_margin_degrades_near_threshold() {
        let tree = Tree::branch(
            0,
            50.0,
            Tree::branch(1, 30.0, Tree::leaf("a"), Tree::leaf("b")),
            Tree::branch(1, 70.0, Tree::leaf("c"), Tree::leaf("d")),
        );
        // f0 = 49: only 1 ps below the 50 ps threshold, so even small
        // jitter flips decisions some of the time.
        let analysis = decision_tree_margin(&tree, &[49.0, 12.0], &[2.0], 32, 3, 0);
        assert!(analysis.points[0].report.failure_rate() > 0.0);
    }

    #[test]
    fn boundary_search_matches_uniform_on_monotone_oracles() {
        for n in 0..=24usize {
            for k in 0..=n {
                // Oracle: fail below k, pass at and above k (monotone).
                let mut evals = 0usize;
                let adaptive = find_first_pass(n, |i| {
                    evals += 1;
                    i >= k
                });
                let uniform = find_first_pass_uniform(n, |i| i >= k);
                assert_eq!(adaptive, uniform, "n={n} k={k}");
                let expected = if k < n {
                    Boundary::At(k)
                } else {
                    Boundary::AllFail
                };
                assert_eq!(adaptive, expected, "n={n} k={k}");
                let budget = 2 + (n.max(1) as f64).log2().ceil() as usize;
                assert!(evals <= budget, "n={n} k={k}: {evals} evals > {budget}");
            }
        }
    }

    #[test]
    fn boundary_search_never_places_pass_below_observed_fail() {
        // A non-monotone oracle: the sampler may disagree with the uniform
        // scan, but every index it reports passing must not sit below an
        // index it observed failing.
        let pattern = [false, true, false, false, true, true, false, true];
        let mut observed_fail = Vec::new();
        let b = find_first_pass(pattern.len(), |i| {
            if !pattern[i] {
                observed_fail.push(i);
            }
            pattern[i]
        });
        if let Boundary::At(i) = b {
            assert!(pattern[i], "reported boundary must itself pass");
            assert!(observed_fail.iter().all(|&f| f < i));
        }
    }

    #[test]
    fn shmoo_adaptive_and_uniform_agree_on_min_max() {
        let sigmas = [0.0, 2.0];
        let scales = [0.05, 0.4, 1.0, 1.6];
        let opts = ShmooOptions {
            trials: 24,
            threads: 2,
            ..ShmooOptions::default()
        };
        let adaptive = shmoo_map("min_max", &sigmas, &scales, &opts);
        let uniform = shmoo_map(
            "min_max",
            &sigmas,
            &scales,
            &ShmooOptions {
                adaptive: false,
                ..opts.clone()
            },
        );
        assert!(adaptive.evaluated <= uniform.evaluated);
        for row in 0..sigmas.len() {
            for col in 0..scales.len() {
                assert_eq!(
                    adaptive.cell(row, col).passes(),
                    uniform.cell(row, col).passes(),
                    "row {row} col {col}"
                );
                // Cells both maps measured must agree exactly, not just on
                // the verdict — the per-cell seed makes them the same sweep.
                if adaptive.cell(row, col).measured() {
                    assert_eq!(adaptive.cell(row, col), uniform.cell(row, col));
                }
            }
        }
        // Loose timing at σ=0 must pass; margins shrink as σ grows.
        assert!(adaptive.cell(0, scales.len() - 1).passes());
        assert!(adaptive.margin_scale(0) <= adaptive.margin_scale(1).or(Some(f64::INFINITY)));
    }

    #[test]
    fn shmoo_is_deterministic_across_threads() {
        let sigmas = [1.0];
        let scales = [0.1, 0.8, 1.5];
        // 40 trials are three 16-trial blocks, so three threads each run
        // one.
        let base = ShmooOptions {
            trials: 40,
            threads: 1,
            ..ShmooOptions::default()
        };
        let a = shmoo_map("race_tree", &sigmas, &scales, &base);
        let b = shmoo_map(
            "race_tree",
            &sigmas,
            &scales,
            &ShmooOptions { threads: 3, ..base },
        );
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn every_shmoo_design_passes_loose_and_fails_tight() {
        // The scale axis is the designs' common timing knob: each bench
        // must fail nominally at a crushed schedule and pass at a loose
        // one, otherwise its shmoo map would be all-pass or all-fail.
        for name in shmoo_design_names() {
            let opts = ShmooOptions {
                trials: 4,
                ..ShmooOptions::default()
            };
            let map = shmoo_map(name, &[0.0], &[0.01, 1.5], &opts);
            assert!(
                !map.cell(0, 0).passes(),
                "{name} should fail at scale 0.01"
            );
            assert!(map.cell(0, 1).passes(), "{name} should pass at scale 1.5");
        }
    }

    #[test]
    fn empty_shmoo_grids_yield_empty_maps() {
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
    }
}
