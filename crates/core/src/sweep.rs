//! Parallel Monte-Carlo sweeps over a circuit under timing variability
//! (paper §5.2 / Fig. 13 and the Table 2 robustness experiments).
//!
//! The paper's variability analysis needs thousands of independent
//! simulation trials with Gaussian jitter on every propagation delay. A
//! [`Sweep`] fans those trials out across a thread pool while staying
//! **deterministic**: each trial's RNG seed is derived from the master seed
//! with a SplitMix64 finalizer over the trial index, so trial *i* sees the
//! same jitter stream no matter which thread runs it or how many threads
//! exist. Per-trial statistics are reduced on the driving thread in trial
//! order, so the aggregated [`SweepReport`] is **bit-identical** for a given
//! master seed at any thread count.
//!
//! The circuit is compiled once per sweep. Each worker runs its trials one
//! after another on one reused [`Simulation`] over that compiled circuit,
//! through the same event loop as [`Simulation::run`], recording only the
//! observed wires. Trials are dealt to the workers round-robin in blocks
//! of 16 consecutive trials and stitched back into trial order; a sweep
//! that resolves to one worker runs on the calling thread.
//!
//! ```
//! use rlse_core::prelude::*;
//! use rlse_core::machine::{EdgeDef, Machine};
//! use rlse_core::sweep::Sweep;
//!
//! # fn main() -> Result<(), rlse_core::Error> {
//! let jtl = Machine::new("JTL", &["a"], &["q"], 5.0, 2, &[EdgeDef {
//!     src: "idle", trigger: "a", dst: "idle", firing: "q", ..EdgeDef::default()
//! }])?;
//! let report = Sweep::over(move || {
//!     let mut c = Circuit::new();
//!     let a = c.inp_at(&[10.0], "A");
//!     let q = c.add_machine(&jtl, &[a]).unwrap()[0];
//!     c.inspect(q, "Q");
//!     c
//! })
//! .variability(|| Variability::Gaussian { std: 0.3 })
//! .trials(256)
//! .master_seed(42)
//! .run();
//! assert_eq!(report.trials, 256);
//! let q = report.output("Q").unwrap();
//! assert!((q.mean - 15.0).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

use crate::circuit::{Circuit, NodeKind};
use crate::compiled::CompiledCircuit;
use crate::error::{Error, Time};
use crate::events::Events;
use crate::sim::{Counters, Halt, Observed, Simulation, Variability};
use crate::telemetry::Telemetry;
use std::sync::Arc;

/// Trials per dealt block. Dealing blocks instead of single trials
/// amortises each block's `Vec` and stitch step; the size never changes
/// a result, only `sweep.blocks`.
const BLOCK: usize = 16;

/// SplitMix64 finalizer: derive the RNG seed of trial `trial` from the
/// sweep's master seed. A pure function of `(master, trial)`, so the
/// assignment of trials to threads cannot perturb any trial's jitter stream.
pub fn trial_seed(master: u64, trial: u64) -> u64 {
    let mut z = master
        .wrapping_add(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Firing-time statistics for one observed output wire, aggregated over
/// every successful trial of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputStats {
    /// The observed wire's name.
    pub name: String,
    /// Total pulses seen on the wire across all successful trials.
    pub pulses: u64,
    /// Mean firing time over those pulses.
    pub mean: Time,
    /// Standard deviation of the firing times.
    pub std: Time,
    /// Earliest firing time seen.
    pub min: Time,
    /// Latest firing time seen.
    pub max: Time,
}

/// The aggregate of one Monte-Carlo sweep (see [`Sweep::run`]).
///
/// Comparable with `==`: two reports from the same circuit builder, trial
/// count, and master seed are bit-identical regardless of thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Number of trials executed.
    pub trials: u64,
    /// Trials that simulated cleanly and passed the output check (if any).
    pub ok: u64,
    /// Trials that simulated cleanly but failed the output check.
    pub check_failures: u64,
    /// Trials aborted by a timing violation (an error transition — the
    /// paper's transition-time or past-constraint errors).
    pub timing_violations: u64,
    /// Trials aborted by any other simulation error.
    pub other_errors: u64,
    /// Per-output firing-time statistics, sorted by wire name.
    pub outputs: Vec<OutputStats>,
}

impl SweepReport {
    /// Fraction of trials that did not end in `ok` (0.0 when no trials ran).
    pub fn failure_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            (self.trials - self.ok) as f64 / self.trials as f64
        }
    }

    /// Statistics for the named output wire, if it was observed.
    pub fn output(&self, name: &str) -> Option<&OutputStats> {
        self.outputs.iter().find(|o| o.name == name)
    }
}

/// Per-trial, per-output accumulator (count/sum/sum-of-squares/min/max).
/// Computed identically for a trial regardless of scheduling, then folded
/// serially in trial order — the key to bit-identical reports.
#[derive(Debug, Clone, Copy)]
struct OutAcc {
    count: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl OutAcc {
    fn empty() -> Self {
        OutAcc {
            count: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn of(times: &[Time]) -> Self {
        let mut acc = OutAcc::empty();
        for &t in times {
            acc.count += 1;
            acc.sum += t;
            acc.sumsq += t * t;
            acc.min = acc.min.min(t);
            acc.max = acc.max.max(t);
        }
        acc
    }

    fn fold(&mut self, other: &OutAcc) {
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// What one trial produced.
#[derive(Debug, Clone)]
enum TrialOutcome {
    /// Clean simulation: per-output stats (aligned with the sweep's sorted
    /// output-name list) and the check verdict.
    Done { per_output: Vec<OutAcc>, check_ok: bool },
    /// Aborted by a timing violation (error transition).
    Timing,
    /// Aborted by any other error.
    Other,
}

impl TrialOutcome {
    fn verdict(&self) -> TrialVerdict {
        match self {
            TrialOutcome::Done { check_ok: true, .. } => TrialVerdict::Ok,
            TrialOutcome::Done { check_ok: false, .. } => TrialVerdict::CheckFailed,
            TrialOutcome::Timing => TrialVerdict::Timing,
            TrialOutcome::Other => TrialVerdict::Other,
        }
    }
}

/// The pass/fail classification of one trial, as exposed by
/// [`Sweep::run_detailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialVerdict {
    /// Clean simulation, check passed (or no check installed).
    Ok,
    /// Clean simulation, check failed.
    CheckFailed,
    /// Aborted by a timing violation.
    Timing,
    /// Aborted by any other simulation error.
    Other,
}

/// One trial's full result: its verdict and, for clean trials, every pulse
/// time on every observed output (aligned with [`SweepDetails::names`];
/// empty for aborted trials, whose events are discarded).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialDetail {
    /// The trial index (0-based, the same index [`trial_seed`] consumes).
    pub trial: u64,
    /// How the trial ended.
    pub verdict: TrialVerdict,
    /// Per-output pulse times, one list per name in
    /// [`SweepDetails::names`] order. Empty for aborted trials.
    pub outputs: Vec<Vec<Time>>,
}

/// Per-trial results of a sweep (see [`Sweep::run_detailed`]): the
/// differential-testing view, where every verdict and pulse time is exposed
/// instead of aggregated. Comparable with `==`; equal inputs produce
/// bit-identical details regardless of thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDetails {
    /// Observed output names, sorted ascending.
    pub names: Vec<String>,
    /// One entry per trial, in trial order.
    pub trials: Vec<TrialDetail>,
}

/// Why a sweep refused to start (detected on the probe build, before any
/// trial runs).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepError {
    /// A [`Variability::PerCellType`] map names cell types that do not
    /// exist in the circuit. Unmatched keys used to be a silent no-op (the
    /// sigma resolver's NaN "no jitter" sentinel), so a typo'd key ran the
    /// whole sweep at σ = 0 with no diagnostic.
    UnknownCellTypes {
        /// The keys with no matching cell type, sorted ascending.
        unmatched: Vec<String>,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownCellTypes { unmatched } => {
                let keys = unmatched
                    .iter()
                    .map(|k| format!("'{k}'"))
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(
                    f,
                    "per-cell-type variability names cell types not present in the \
                     circuit: {keys}"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Check a variability value against the probe circuit before the sweep
/// starts: every key of a [`Variability::PerCellType`] map must name a cell
/// type (machine or hole) that actually occurs in the circuit.
pub(crate) fn validate_variability(
    v: Option<&Variability>,
    probe: &Circuit,
) -> Result<(), SweepError> {
    let Some(Variability::PerCellType(map)) = v else {
        return Ok(());
    };
    let mut cell_types = std::collections::HashSet::new();
    for n in &probe.nodes {
        match &n.kind {
            NodeKind::Machine { spec, .. } => {
                cell_types.insert(spec.name());
            }
            NodeKind::Hole(h) => {
                cell_types.insert(h.name());
            }
            NodeKind::Source { .. } => {}
        }
    }
    let mut unmatched: Vec<String> = map
        .keys()
        .filter(|k| !cell_types.contains(k.as_str()))
        .cloned()
        .collect();
    if unmatched.is_empty() {
        Ok(())
    } else {
        unmatched.sort();
        Err(SweepError::UnknownCellTypes { unmatched })
    }
}

/// The sorted observed-wire name list shared by every trial of a sweep
/// (sorted ascending, which matches the `Events` BTreeMap iteration order).
fn observed_names(probe: &Circuit) -> Vec<String> {
    let mut names: Vec<String> = (0..probe.wire_count())
        .map(|i| probe.wire_at(i))
        .filter(|w| probe.wire_observed(*w))
        .map(|w| probe.wire_name(w).to_string())
        .collect();
    names.sort();
    names
}

/// For each wire of `probe`: its index in the sorted observed-name list,
/// or `u32::MAX` if the wire is not observed.
fn observed_slots(probe: &Circuit, names: &[String]) -> Vec<u32> {
    (0..probe.wire_count())
        .map(|i| {
            let w = probe.wire_at(i);
            if !probe.wire_observed(w) {
                return u32::MAX;
            }
            names
                .binary_search_by(|n| n.as_str().cmp(probe.wire_name(w)))
                .expect("every observed wire is in the sorted name list") as u32
        })
        .collect()
}

/// Serial, trial-ordered reduction of per-trial outcomes into a
/// [`SweepReport`]. The sweep and its reference feed it outcomes in trial
/// order, so the floating-point accumulation order — and therefore the
/// report — is bitwise-equal whenever the outcomes are.
fn reduce(names: Vec<String>, trials: u64, records: &[Trial]) -> SweepReport {
    let mut accs: Vec<OutAcc> = vec![OutAcc::empty(); names.len()];
    let (mut ok, mut check_failures, mut timing, mut other) = (0u64, 0u64, 0u64, 0u64);
    for (rec, _) in records {
        match rec {
            TrialOutcome::Done {
                per_output,
                check_ok,
            } => {
                if *check_ok {
                    ok += 1;
                } else {
                    check_failures += 1;
                }
                for (acc, one) in accs.iter_mut().zip(per_output) {
                    acc.fold(one);
                }
            }
            TrialOutcome::Timing => timing += 1,
            TrialOutcome::Other => other += 1,
        }
    }

    let outputs = names
        .into_iter()
        .zip(accs)
        .map(|(name, a)| {
            let n = a.count as f64;
            let (mean, std, min, max) = if a.count == 0 {
                (0.0, 0.0, 0.0, 0.0)
            } else {
                let mean = a.sum / n;
                let var = (a.sumsq / n - mean * mean).max(0.0);
                (mean, var.sqrt(), a.min, a.max)
            };
            OutputStats {
                name,
                pulses: a.count,
                mean,
                std,
                min,
                max,
            }
        })
        .collect();

    SweepReport {
        trials,
        ok,
        check_failures,
        timing_violations: timing,
        other_errors: other,
        outputs,
    }
}

/// The boxed per-trial acceptance predicate installed by [`Sweep::check`].
type CheckFn<'a> = Box<dyn Fn(&Events) -> bool + Sync + 'a>;

/// One trial's outcome and, on detailed runs of clean trials, its pulse
/// times per observed output (empty otherwise).
type Trial = (TrialOutcome, Vec<Vec<Time>>);

/// A deterministically-seeded, parallel Monte-Carlo sweep builder.
///
/// See the [module docs](self) for the determinism contract and an example.
pub struct Sweep<'a> {
    build: Box<dyn Fn() -> Circuit + Sync + 'a>,
    variability: Option<Box<dyn Fn() -> Variability + Sync + 'a>>,
    check: Option<CheckFn<'a>>,
    trials: u64,
    master_seed: u64,
    threads: usize,
    until: Option<Time>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for Sweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("trials", &self.trials)
            .field("master_seed", &self.master_seed)
            .field("threads", &self.threads)
            .field("until", &self.until)
            .finish_non_exhaustive()
    }
}

/// What every trial of one sweep execution reads.
struct Job<'s, 'a> {
    sweep: &'s Sweep<'a>,
    /// Observed output names, sorted ascending.
    names: &'s [String],
    /// Each wire's column in `names` order, `u32::MAX` if not observed.
    slots: &'s [u32],
    /// Run every trial on the full-`Events` reference path.
    reference: bool,
    /// Keep each clean trial's pulse times (detailed runs).
    want_outputs: bool,
    /// Tally execution counters (telemetry is on).
    count: bool,
}

/// One worker's reusable trial state: a simulation over the sweep's
/// compiled circuit, the observed wires' pulse columns, and the events
/// dictionary refilled in place for the check.
struct Worker {
    sim: Simulation,
    columns: Vec<Vec<Time>>,
    events: Option<Events>,
}

impl Worker {
    fn new(job: &Job, circuit: Circuit, compiled: Arc<CompiledCircuit>) -> Self {
        let mut sim = Simulation::with_compiled(circuit, compiled);
        sim.set_until(job.sweep.until);
        Worker {
            sim,
            columns: vec![Vec::new(); job.names.len()],
            events: job
                .sweep
                .check
                .is_some()
                .then(|| Events::preallocated(job.names)),
        }
    }

    /// Run trial `trial`. Pure in `(job, trial)`: the simulation is reset
    /// and re-seeded first, so nothing a previous trial left behind (a
    /// violation's partial state included) reaches this one.
    fn trial(&mut self, job: &Job, trial: u64, n: &mut Counters) -> Trial {
        let sweep = job.sweep;
        self.sim.set_seed(trial_seed(sweep.master_seed, trial));
        if let Some(v) = &sweep.variability {
            self.sim.set_variability(Some(v()));
        }
        if job.reference {
            return reference_trial(&mut self.sim, job, n);
        }
        for column in self.columns.iter_mut() {
            column.clear();
        }
        let mut rec = Observed {
            slot: job.slots,
            columns: &mut self.columns,
        };
        match self.sim.run_into(&mut rec, n, job.count) {
            Ok(()) => {}
            Err(Halt::Timing { .. }) => return (TrialOutcome::Timing, Vec::new()),
            Err(Halt::Hole(_)) => return (TrialOutcome::Other, Vec::new()),
        }
        // Jitter can record a wire's pulses out of order.
        for column in self.columns.iter_mut() {
            column.sort_by(f64::total_cmp);
        }
        let check_ok = match (&sweep.check, self.events.as_mut()) {
            (Some(check), Some(ev)) => {
                ev.refill_named(self.columns.iter().map(Vec::as_slice));
                check(ev)
            }
            _ => true,
        };
        let per_output = self.columns.iter().map(|c| OutAcc::of(c)).collect();
        let outputs = if job.want_outputs {
            self.columns.clone()
        } else {
            Vec::new()
        };
        let outcome = TrialOutcome::Done {
            per_output,
            check_ok,
        };
        (outcome, outputs)
    }
}

/// The reference trial on a seeded simulation: a full checked run with
/// every wire's `Events`, classified by its [`Error`].
fn reference_trial(sim: &mut Simulation, job: &Job, counters: &mut Counters) -> Trial {
    match sim.run_counted(counters, job.count) {
        Ok(events) => {
            let per_output = job
                .names
                .iter()
                .map(|n| OutAcc::of(events.times(n)))
                .collect();
            let check_ok = job.sweep.check.as_ref().is_none_or(|c| c(&events));
            let outputs = if job.want_outputs {
                job.names.iter().map(|n| events.times(n).to_vec()).collect()
            } else {
                Vec::new()
            };
            let outcome = TrialOutcome::Done {
                per_output,
                check_ok,
            };
            (outcome, outputs)
        }
        Err(Error::Timing(_)) => (TrialOutcome::Timing, Vec::new()),
        Err(_) => (TrialOutcome::Other, Vec::new()),
    }
}

/// The per-trial view of stitched trials.
fn details(names: Vec<String>, trials: Vec<Trial>) -> SweepDetails {
    let trials = trials
        .into_iter()
        .enumerate()
        .map(|(i, (outcome, outputs))| TrialDetail {
            trial: i as u64,
            verdict: outcome.verdict(),
            outputs,
        })
        .collect();
    SweepDetails { names, trials }
}

impl<'a> Sweep<'a> {
    /// Start a sweep over the circuit produced by `build`. The builder is
    /// called once for the probe build, which is compiled once for the
    /// whole sweep and then run by the first worker, plus once for each
    /// further worker thread (never once per trial); it must be
    /// deterministic — every call must produce the same circuit.
    pub fn over(build: impl Fn() -> Circuit + Sync + 'a) -> Self {
        Sweep {
            build: Box::new(build),
            variability: None,
            check: None,
            trials: 100,
            master_seed: 0,
            threads: 0,
            until: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a [`Telemetry`] handle. Workers flush the kernel counters
    /// `sweep.{blocks,dispatches,transitions,pulses_pushed,pulses_popped,
    /// wire_pulses}` and the `sweep.max_heap_depth` peak (additive over
    /// blocks, so totals are bit-identical at any thread count) and record
    /// `sweep.worker` spans on 1-based timeline tracks; the sweep adds the
    /// `sweep.{runs,trials,ok,check_failures,timing_violations,
    /// other_errors}` verdict counters and a `sweep.run` span on track 0.
    /// `wire_pulses` counts pulses recorded on observed wires.
    pub fn telemetry(mut self, tel: &Telemetry) -> Self {
        self.telemetry = tel.clone();
        self
    }

    /// Set the number of independent trials (default 100).
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Set the master seed from which every trial's RNG stream is derived
    /// (default 0).
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Set the worker thread count. `0` (the default) uses the machine's
    /// available parallelism. The thread count affects wall-clock only,
    /// never the report's contents.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Simulate each trial only until the given time (required for circuits
    /// with feedback loops).
    pub fn until(mut self, t: Time) -> Self {
        self.until = Some(t);
        self
    }

    /// Apply a variability model to every trial. The factory is called once
    /// per trial, so stateful [`Variability::Custom`] closures start fresh
    /// each time.
    pub fn variability(mut self, factory: impl Fn() -> Variability + Sync + 'a) -> Self {
        self.variability = Some(Box::new(factory));
        self
    }

    /// Add a per-trial output check (e.g. "outputs are rank-ordered"); a
    /// clean simulation whose events fail the check counts as a
    /// `check_failure` instead of `ok`. The check sees an events
    /// dictionary of the **observed** wires only.
    pub fn check(mut self, check: impl Fn(&Events) -> bool + Sync + 'a) -> Self {
        self.check = Some(Box::new(check));
        self
    }

    fn effective_threads(&self, n_blocks: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        // No point spawning more workers than blocks.
        t.min(n_blocks)
    }

    /// Probe the builder and compile it once, deal blocks of [`BLOCK`]
    /// trials round-robin to the workers (on the calling thread when there
    /// is one worker), stitch the results back into trial order, and
    /// reduce them serially — so floating-point accumulation order, and
    /// with it the report, is fixed. `reference` runs every trial on the
    /// full-`Events` path instead.
    fn execute(
        &self,
        reference: bool,
        want_outputs: bool,
    ) -> Result<(SweepReport, Vec<String>, Vec<Trial>), SweepError> {
        let probe = (self.build)();
        probe.check().expect("sweep circuit builder must be valid");
        let v = self.variability.as_ref().map(|f| f());
        validate_variability(v.as_ref(), &probe)?;
        let names = observed_names(&probe);
        let slots = observed_slots(&probe, &names);
        let compiled = Arc::new(CompiledCircuit::compile(&probe));

        let t_sweep = self.telemetry.now();
        let tel_on = self.telemetry.is_enabled();
        let job = Job {
            sweep: self,
            names: &names,
            slots: &slots,
            reference,
            want_outputs,
            count: tel_on,
        };
        let trials = self.trials as usize;
        let n_blocks = trials.div_ceil(BLOCK);
        let threads = self.effective_threads(n_blocks);
        let work = |w: usize, circuit: Circuit| {
            let mut worker = Worker::new(&job, circuit, Arc::clone(&compiled));
            let t_worker = self.telemetry.now();
            let mut n = Counters::default();
            let mut blocks = Vec::new();
            // Deterministic round-robin deal: worker w gets blocks w, w+T,
            // w+2T, …
            for b in (w..n_blocks).step_by(threads) {
                let block: Vec<Trial> = (b * BLOCK..trials.min((b + 1) * BLOCK))
                    .map(|trial| worker.trial(&job, trial as u64, &mut n))
                    .collect();
                blocks.push(block);
            }
            if tel_on {
                let tel = &self.telemetry;
                tel.add("sweep.blocks", blocks.len() as u64);
                n.flush(
                    tel,
                    [
                        "sweep.dispatches",
                        "sweep.transitions",
                        "sweep.pulses_pushed",
                        "sweep.pulses_popped",
                        "sweep.wire_pulses",
                    ],
                    "sweep.max_heap_depth",
                );
                if let Some(t0) = t_worker {
                    let done = blocks.iter().map(Vec::len).sum::<usize>();
                    tel.record_span("sweep.worker", w as u32 + 1, t0, done as u64);
                }
            }
            blocks
        };
        let mut per_worker: Vec<Vec<Vec<Trial>>> = match threads {
            0 => Vec::new(),
            1 => vec![work(0, probe)],
            _ => std::thread::scope(|scope| {
                let work = &work;
                let mut probe = Some(probe);
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        let circuit = probe.take();
                        scope.spawn(move || work(w, circuit.unwrap_or_else(|| (self.build)())))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            }),
        };
        // Stitch: global block b was worker (b mod T)'s next block, so
        // popping each worker's results in deal order restores trial order.
        for blocks in per_worker.iter_mut() {
            blocks.reverse();
        }
        let mut stitched = Vec::with_capacity(trials);
        for b in 0..n_blocks {
            let block = per_worker[b % threads].pop();
            stitched.extend(block.expect("one result per dealt block"));
        }

        let report = reduce(names.clone(), self.trials, &stitched);
        if tel_on {
            // Verdict counters come from the serial reduction, so they are
            // as deterministic as the report itself.
            self.telemetry.add_many(&[
                ("sweep.runs", 1),
                ("sweep.trials", self.trials),
                ("sweep.ok", report.ok),
                ("sweep.check_failures", report.check_failures),
                ("sweep.timing_violations", report.timing_violations),
                ("sweep.other_errors", report.other_errors),
            ]);
            if let Some(t0) = t_sweep {
                self.telemetry.record_span("sweep.run", 0, t0, self.trials);
            }
        }
        Ok((report, names, stitched))
    }

    /// Execute the sweep and aggregate the per-trial results.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit (the
    /// per-trial simulation errors are *counted*, not propagated, but a
    /// wiring error on the probe build is a bug in the builder), or if the
    /// sweep configuration is invalid — see [`try_run`](Self::try_run) for
    /// the non-panicking form.
    pub fn run(&self) -> SweepReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Self::run), but invalid sweep configuration (e.g. a
    /// [`Variability::PerCellType`] map naming cell types absent from the
    /// circuit) is reported as a [`SweepError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// [`SweepError::UnknownCellTypes`] when per-cell-type variability keys
    /// do not match any cell type in the circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit.
    pub fn try_run(&self) -> Result<SweepReport, SweepError> {
        Ok(self.execute(false, false)?.0)
    }

    /// Run every trial and return its individual verdict and output pulse
    /// times instead of the aggregate — the view the differential tests
    /// compare, bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit or the
    /// sweep configuration is invalid, as [`run`](Self::run) does.
    pub fn run_detailed(&self) -> SweepDetails {
        self.try_run_detailed().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_detailed`](Self::run_detailed) with invalid sweep configuration
    /// reported as a [`SweepError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// [`SweepError::UnknownCellTypes`] when per-cell-type variability keys
    /// do not match any cell type in the circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit.
    pub fn try_run_detailed(&self) -> Result<SweepDetails, SweepError> {
        let (_, names, trials) = self.execute(false, true)?;
        Ok(details(names, trials))
    }

    /// The test oracle: the report and per-trial details of the same sweep
    /// with every trial a full [`Simulation`] run (circuit check, every
    /// wire's [`Events`], the timing diagnostic). Every sweep must be
    /// bit-identical to it.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run).
    #[doc(hidden)]
    pub fn run_reference(&self) -> (SweepReport, SweepDetails) {
        let (report, names, trials) = self.execute(true, true).unwrap_or_else(|e| panic!("{e}"));
        (report, details(names, trials))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{EdgeDef, Machine};
    use std::sync::Arc;

    fn jtl(delay: f64) -> Arc<Machine> {
        Machine::new(
            "JTL",
            &["a"],
            &["q"],
            delay,
            2,
            &[EdgeDef {
                src: "idle",
                trigger: "a",
                dst: "idle",
                firing: "q",
                ..Default::default()
            }],
        )
        .unwrap()
    }

    fn chain_builder() -> impl Fn() -> Circuit + Sync {
        move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 30.0], "A");
            let q1 = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
            let q2 = c.add_machine(&jtl(5.0), &[q1]).unwrap()[0];
            c.inspect(q2, "Q");
            c
        }
    }

    #[test]
    fn sweep_without_variability_is_exact() {
        let report = Sweep::over(chain_builder()).trials(16).run();
        assert_eq!(report.ok, 16);
        assert_eq!(report.failure_rate(), 0.0);
        let q = report.output("Q").unwrap();
        assert_eq!(q.pulses, 32); // 2 pulses × 16 trials
        assert_eq!(q.min, 20.0);
        assert_eq!(q.max, 40.0);
        assert!((q.mean - 30.0).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_report_across_thread_counts() {
        let sweep = |threads| {
            Sweep::over(chain_builder())
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(64)
                .master_seed(7)
                .threads(threads)
                .run()
        };
        let serial = sweep(1);
        let parallel = sweep(4);
        let excessive = sweep(64);
        assert_eq!(serial, parallel);
        assert_eq!(serial, excessive);
    }

    #[test]
    fn different_master_seeds_differ() {
        let sweep = |seed| {
            Sweep::over(chain_builder())
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(32)
                .master_seed(seed)
                .run()
        };
        assert_ne!(sweep(1), sweep(2));
    }

    #[test]
    fn per_cell_type_with_unknown_keys_refuses_to_start() {
        let vars = || {
            let mut m = std::collections::HashMap::new();
            m.insert("JTLL".to_string(), 0.4);
            m.insert("DRO".to_string(), 0.2);
            m.insert("JTL".to_string(), 0.1);
            Variability::PerCellType(m)
        };
        let err = Sweep::over(chain_builder())
            .variability(vars)
            .trials(4)
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            SweepError::UnknownCellTypes {
                unmatched: vec!["DRO".to_string(), "JTLL".to_string()],
            }
        );
        assert!(err.to_string().contains("'DRO', 'JTLL'"));
        let detailed = Sweep::over(chain_builder())
            .variability(vars)
            .trials(4)
            .try_run_detailed()
            .unwrap_err();
        assert_eq!(detailed, err);
    }

    #[test]
    #[should_panic(expected = "per-cell-type variability names cell types")]
    fn run_panics_on_unknown_per_cell_type_keys() {
        let vars = || {
            let mut m = std::collections::HashMap::new();
            m.insert("NO_SUCH_CELL".to_string(), 0.4);
            Variability::PerCellType(m)
        };
        let _ = Sweep::over(chain_builder()).variability(vars).trials(2).run();
    }

    #[test]
    fn per_cell_type_with_matching_keys_runs() {
        let vars = || {
            let mut m = std::collections::HashMap::new();
            m.insert("JTL".to_string(), 0.4);
            Variability::PerCellType(m)
        };
        let report = Sweep::over(chain_builder())
            .variability(vars)
            .trials(8)
            .try_run()
            .unwrap();
        assert_eq!(report.trials, 8);
    }

    #[test]
    fn hole_names_count_as_cell_types_for_variability() {
        use crate::functional::Hole;
        let build = || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0], "A");
            let h = Hole::new("MODEL", 1.0, &["a"], &["q"], |ins: &[bool], _| {
                vec![ins[0]]
            });
            let q = c.add_hole(h, &[a]).unwrap()[0];
            c.inspect(q, "Q");
            c
        };
        let vars = || {
            let mut m = std::collections::HashMap::new();
            m.insert("MODEL".to_string(), 0.0);
            Variability::PerCellType(m)
        };
        let report = Sweep::over(build)
            .variability(vars)
            .trials(2)
            .try_run()
            .unwrap();
        assert_eq!(report.trials, 2);
    }

    #[test]
    fn check_failures_are_counted() {
        let report = Sweep::over(chain_builder())
            .trials(10)
            .check(|ev| ev.times("Q").len() == 3) // actually 2: always fails
            .run();
        assert_eq!(report.ok, 0);
        assert_eq!(report.check_failures, 10);
        assert_eq!(report.failure_rate(), 1.0);
    }

    #[test]
    fn timing_violations_are_counted_not_propagated() {
        // A machine with a 10 ps transition time fed pulses 1 ps apart
        // violates on every trial.
        let m = Machine::new(
            "DUT",
            &["a"],
            &["q"],
            1.0,
            1,
            &[EdgeDef {
                src: "idle",
                trigger: "a",
                dst: "idle",
                firing: "q",
                transition_time: 10.0,
                ..Default::default()
            }],
        )
        .unwrap();
        let report = Sweep::over(move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 11.0], "A");
            let q = c.add_machine(&m, &[a]).unwrap()[0];
            c.inspect(q, "Q");
            c
        })
        .trials(8)
        .run();
        assert_eq!(report.timing_violations, 8);
        assert_eq!(report.ok, 0);
        assert_eq!(report.failure_rate(), 1.0);
    }

    #[test]
    fn telemetry_report_is_identical_across_thread_counts() {
        let run = |threads| {
            let tel = Telemetry::new();
            Sweep::over(chain_builder())
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(64)
                .master_seed(7)
                .threads(threads)
                .telemetry(&tel)
                .run();
            tel.report()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.counter("sweep.trials"), 64);
        assert_eq!(serial.counter("sweep.ok"), 64);
        assert_eq!(serial.counter("sweep.blocks"), 4);
        assert!(serial.counter("sweep.dispatches") > 0);
        // A sweep runs no per-trial `Simulation`, so it records one
        // counter set: no `sim.*` keys.
        assert!(serial.counters_with_prefix("sim.").is_empty());
    }

    #[test]
    fn trial_seed_is_a_bijection_like_mix() {
        let seeds: std::collections::HashSet<u64> =
            (0..10_000).map(|i| trial_seed(42, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        assert_ne!(trial_seed(1, 0), trial_seed(2, 0));
    }

    #[test]
    fn until_is_applied_to_every_trial() {
        let report = Sweep::over(chain_builder()).trials(4).until(25.0).run();
        let q = report.output("Q").unwrap();
        // Only the first pulse (t=20) fits under until=25.
        assert_eq!(q.pulses, 4);
        assert_eq!(q.max, 20.0);
    }

    fn splitter() -> Arc<Machine> {
        Machine::new(
            "S",
            &["a"],
            &["l", "r"],
            4.3,
            3,
            &[EdgeDef {
                src: "idle",
                trigger: "a",
                dst: "idle",
                firing: "l,r",
                ..Default::default()
            }],
        )
        .unwrap()
    }

    fn merger() -> Arc<Machine> {
        Machine::new(
            "M",
            &["a", "b"],
            &["q"],
            6.3,
            5,
            &[
                EdgeDef {
                    src: "idle",
                    trigger: "a",
                    dst: "idle",
                    firing: "q",
                    ..Default::default()
                },
                EdgeDef {
                    src: "idle",
                    trigger: "b",
                    dst: "idle",
                    firing: "q",
                    ..Default::default()
                },
            ],
        )
        .unwrap()
    }

    /// A small fan-out/fan-in circuit with two observed outputs and an
    /// anonymous internal wire — enough structure to exercise batching,
    /// routing, and multi-output recording.
    fn diamond_builder() -> impl Fn() -> Circuit + Sync {
        move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 30.0, 55.0], "A");
            let outs = c.add_machine(&splitter(), &[a]).unwrap();
            let l = c.add_machine(&jtl(5.0), &[outs[0]]).unwrap()[0];
            let r = c.add_machine(&jtl(7.7), &[outs[1]]).unwrap()[0];
            c.inspect(l, "L");
            c.inspect(r, "R");
            c
        }
    }

    /// A feedback loop (merger → splitter → JTL → back into the merger)
    /// that pulses forever: only `until` ends its trials.
    fn ring_builder() -> impl Fn() -> Circuit + Sync {
        move || {
            let mut c = Circuit::new();
            let seed = c.inp_at(&[10.0], "SEED");
            let back = c.loopback_wire();
            let m = c.add_machine(&merger(), &[seed, back]).unwrap()[0];
            let outs = c.add_machine(&splitter(), &[m]).unwrap();
            let r = c.add_machine(&jtl(5.0), &[outs[1]]).unwrap()[0];
            c.close_loop(r, back).unwrap();
            c.inspect(outs[0], "TAP");
            c
        }
    }

    /// A pass-through hole, so the sweep takes the per-trial path.
    fn hole_builder() -> impl Fn() -> Circuit + Sync {
        || {
            use crate::functional::Hole;
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 20.0], "A");
            let h = Hole::new("pass", 1.5, &["a"], &["q"], |present: &[bool], _t| {
                vec![present[0]]
            });
            let h = c.add_hole(h, &[a]).unwrap()[0];
            let q = c.add_machine(&jtl(5.0), &[h]).unwrap()[0];
            c.inspect(q, "Q");
            c
        }
    }

    #[test]
    fn sweep_matches_reference_across_threads() {
        let build = diamond_builder();
        let sweep = || {
            Sweep::over(&build)
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(64)
                .master_seed(7)
        };
        let (reference, _) = sweep().run_reference();
        for threads in [1, 3, 4, 64] {
            let report = sweep().threads(threads).run();
            assert_eq!(report, reference, "threads={threads}");
        }
    }

    #[test]
    fn detailed_runs_are_bit_identical_to_reference() {
        let build = diamond_builder();
        let sweep = || {
            Sweep::over(&build)
                .variability(|| Variability::Gaussian { std: 0.6 })
                .trials(33)
                .master_seed(3)
        };
        let (_, reference) = sweep().run_reference();
        for threads in [1, 2, 4] {
            let details = sweep().threads(threads).run_detailed();
            assert_eq!(details, reference, "threads={threads}");
        }
    }

    /// Sweep `build` under `until` with a check, against the reference;
    /// `out` must see exactly `pulses` pulses in total.
    fn assert_until_matches(
        build: impl Fn() -> Circuit + Sync,
        until: f64,
        out: &str,
        pulses: u64,
    ) {
        let sweep = || {
            Sweep::over(&build)
                .variability(|| Variability::Gaussian { std: 0.3 })
                .trials(40)
                .master_seed(11)
                .until(until)
                .check(|ev| ev.times("L").len() == ev.times("R").len())
                .threads(2)
        };
        let (reference, details) = sweep().run_reference();
        assert_eq!(sweep().run(), reference, "until={until}");
        assert_eq!(sweep().run_detailed(), details, "until={until}");
        // The cutoff actually bit: a bounded pulse count per trial.
        assert_eq!(reference.output(out).unwrap().pulses, pulses, "{out}");
    }

    #[test]
    fn check_and_until_match_reference() {
        // A feed-forward diamond whose third stimulus pulse the cutoff
        // drops, and a feedback ring that only `until` stops.
        assert_until_matches(diamond_builder(), 45.0, "L", 2 * 40);
        assert_until_matches(ring_builder(), 120.0, "TAP", 7 * 40);
    }

    #[test]
    fn stateful_custom_variability_matches_reference() {
        // A stateful custom model: the k-th firing of a trial gets +0.1·k.
        // The factory builds it fresh per trial on both paths, and each
        // trial calls its own closure in its dispatch order.
        let build = diamond_builder();
        let factory = || {
            let mut k = 0u32;
            Variability::Custom(Box::new(move |nominal, _cell, _rng| {
                k += 1;
                nominal + 0.1 * k as f64
            }))
        };
        let sweep = Sweep::over(&build)
            .variability(factory)
            .trials(17)
            .master_seed(5)
            .threads(2);
        assert_eq!(sweep.run_detailed(), sweep.run_reference().1);
    }

    #[test]
    fn mixed_per_cell_sigma_matches_reference() {
        let build = diamond_builder();
        let factory = || {
            let mut map = std::collections::HashMap::new();
            map.insert("JTL".to_string(), 0.5);
            map.insert("S".to_string(), 0.0); // σ=0: skipped, no RNG draw
            Variability::PerCellType(map)
        };
        let sweep = Sweep::over(&build)
            .variability(factory)
            .trials(24)
            .master_seed(9);
        assert_eq!(sweep.run_detailed(), sweep.run_reference().1);
    }

    #[test]
    fn timing_violations_kill_lanes_not_blocks() {
        // A 10 ps transition-time cell fed pulses 1 ps apart violates in
        // every trial: each trial of a block ends in its own violation,
        // matching the reference, instead of the first one ending the
        // block.
        let m = Machine::new(
            "DUT",
            &["a"],
            &["q"],
            1.0,
            1,
            &[EdgeDef {
                src: "idle",
                trigger: "a",
                dst: "idle",
                firing: "q",
                transition_time: 10.0,
                ..Default::default()
            }],
        )
        .unwrap();
        let build = move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 11.0, 50.0], "A");
            let q = c.add_machine(&m, &[a]).unwrap()[0];
            c.inspect(q, "Q");
            c
        };
        let sweep = Sweep::over(&build).trials(20);
        let report = sweep.run();
        assert_eq!(report, sweep.run_reference().0);
        assert_eq!(report.timing_violations, 20);
    }

    #[test]
    fn jitter_dependent_violations_diverge_per_lane() {
        // A reconvergent fan-out racing a transition-time window: the two
        // jittered paths arrive ~2 ps apart at a merger that needs 3 ps to
        // recover (and 4 ps from `a` to `b`, a past constraint on Θ), so
        // with heavy jitter some trials violate and some pass within one
        // block. One reused simulation runs a worker's trials,
        // so only its per-trial reset keeps a violating trial's leftover
        // heap, Θ and τ_done out of the next trial: every trial must equal
        // a fresh simulation of its own, not just the reference (which
        // reuses a simulation too).
        let m = Machine::new(
            "DUT",
            &["a", "b"],
            &["q"],
            1.0,
            1,
            &[
                EdgeDef {
                    src: "idle",
                    trigger: "a",
                    dst: "idle",
                    firing: "q",
                    transition_time: 3.0,
                    ..Default::default()
                },
                EdgeDef {
                    src: "idle",
                    trigger: "b",
                    dst: "idle",
                    firing: "q",
                    transition_time: 3.0,
                    past_constraints: &[("a", 4.0)],
                    ..Default::default()
                },
            ],
        )
        .unwrap();
        let build = move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0], "A");
            let outs = c.add_machine(&splitter(), &[a]).unwrap();
            let fast = c.add_machine(&jtl(5.0), &[outs[0]]).unwrap()[0];
            let slow = c.add_machine(&jtl(7.0), &[outs[1]]).unwrap()[0];
            let r = c.add_machine(&m, &[fast, slow]).unwrap()[0];
            c.inspect(r, "R");
            c
        };
        let sweep = Sweep::over(&build)
            .variability(|| Variability::Gaussian { std: 2.0 })
            .trials(200)
            .master_seed(1)
            .threads(4);
        let report = sweep.run();
        assert_eq!(report, sweep.run_reference().0);
        let details = sweep.run_detailed();
        for t in &details.trials {
            let fresh = Simulation::new(build())
                .variability(Variability::Gaussian { std: 2.0 })
                .seed(trial_seed(1, t.trial))
                .run();
            match fresh {
                Ok(ev) => {
                    assert_eq!(t.verdict, TrialVerdict::Ok, "trial {}", t.trial);
                    let want: Vec<_> = details.names.iter().map(|n| ev.times(n)).collect();
                    assert_eq!(t.outputs, want, "trial {}", t.trial);
                }
                Err(Error::Timing(_)) => {
                    assert_eq!(t.verdict, TrialVerdict::Timing, "trial {}", t.trial)
                }
                Err(e) => panic!("trial {}: {e}", t.trial),
            }
        }
        // Guard against a vacuous pass: the workload must actually mix
        // verdicts for the divergence path to have been exercised.
        assert!(report.ok > 0, "some trials must pass");
        assert!(report.timing_violations > 0, "some trials must violate");
    }

    #[test]
    fn zero_trials_yields_empty_report_without_panic() {
        let build = diamond_builder();
        let report = Sweep::over(&build).trials(0).run();
        assert_eq!(report, Sweep::over(&build).trials(0).run_reference().0);
        assert_eq!(report.trials, 0);
        assert_eq!(report.ok, 0);
        assert_eq!(report.failure_rate(), 0.0);
        assert_eq!(report.output("L").unwrap().pulses, 0);
        // The detailed view is empty too.
        assert!(Sweep::over(&build).trials(0).run_detailed().trials.is_empty());
    }

    #[test]
    fn hole_circuits_run_per_trial_with_the_same_counters() {
        let build = hole_builder();
        let sweep = || {
            Sweep::over(&build)
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(40)
        };
        let run = |threads| {
            let tel = Telemetry::new();
            let details = sweep().threads(threads).telemetry(&tel).run_detailed();
            (details, tel.report())
        };
        let (details, serial) = run(1);
        let (parallel_details, parallel) = run(3);
        assert_eq!(details, parallel_details);
        assert_eq!(details, sweep().run_reference().1);
        // Hole circuits record like every sweep: observed wires only (A and
        // Q, 2 pulses each per trial; the hole's output wire is anonymous).
        assert_eq!(serial.counter("sweep.runs"), 1);
        assert_eq!(serial.counter("sweep.ok"), 40);
        assert_eq!(serial.counter("sweep.dispatches"), 40 * 4);
        assert_eq!(serial.counter("sweep.wire_pulses"), 40 * 4);
        assert!(serial.counters_with_prefix("sim.").is_empty());
        assert_eq!(serial.counter("sweep.blocks"), 3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweep_counters_match_per_trial_simulations() {
        // A sweep counts exactly the work per-trial simulations count,
        // except wire pulses, which it records on observed wires only.
        let build = diamond_builder();
        let tel = Telemetry::new();
        Sweep::over(&build)
            .variability(|| Variability::Gaussian { std: 0.4 })
            .trials(20)
            .master_seed(7)
            .threads(2)
            .telemetry(&tel)
            .run();
        let swept = tel.report();
        let sims = Telemetry::new();
        let mut sim = Simulation::new(build()).telemetry(&sims);
        sim.set_variability(Some(Variability::Gaussian { std: 0.4 }));
        for trial in 0..20 {
            sim.set_seed(trial_seed(7, trial));
            sim.run().unwrap();
        }
        let sims = sims.report();
        let work = [
            "dispatches",
            "transitions",
            "pulses_pushed",
            "pulses_popped",
        ];
        for key in work {
            assert_eq!(
                swept.counter(&format!("sweep.{key}")),
                sims.counter(&format!("sim.{key}")),
                "{key}"
            );
        }
        assert_eq!(
            swept.gauge("sweep.max_heap_depth"),
            sims.gauge("sim.max_heap_depth")
        );
        // The observed wires A, L and R carry 3 pulses per trial; the two
        // anonymous splitter outputs are not recorded.
        assert_eq!(swept.counter("sweep.wire_pulses"), 20 * 9);
        assert_eq!(sims.counter("sim.wire_pulses"), 20 * 15);
        assert_eq!(swept.counter("sweep.blocks"), 2);
    }

    #[test]
    fn counters_identical_across_threads() {
        let run = |threads| {
            let tel = Telemetry::new();
            Sweep::over(diamond_builder())
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(64)
                .master_seed(7)
                .threads(threads)
                .telemetry(&tel)
                .run();
            tel.report()
        };
        let serial = run(1);
        for threads in [3, 8] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
        assert_eq!(serial.counter("sweep.blocks"), 4);
        assert_eq!(serial.counter("sweep.ok"), 64);
    }

    #[test]
    fn one_worker_sweeps_run_on_the_calling_thread() {
        // The variability factory runs once per trial on whichever thread
        // runs the trial.
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let record = || {
            seen.lock().unwrap().push(std::thread::current().id());
            Variability::Gaussian { std: 0.4 }
        };
        Sweep::over(diamond_builder())
            .variability(record)
            .trials(40)
            .threads(1)
            .run();
        let seen = seen.into_inner().unwrap();
        // The probe's validation call plus one call per trial.
        assert_eq!(seen.len(), 41);
        assert!(seen.iter().all(|&id| id == caller));
    }

    #[test]
    fn nominal_trials_are_exact() {
        let report = Sweep::over(diamond_builder()).trials(16).run();
        assert_eq!(report.ok, 16);
        let l = report.output("L").unwrap();
        assert_eq!(l.pulses, 48); // 3 pulses × 16 trials
        assert_eq!(l.min, 10.0 + 4.3 + 5.0);
        assert_eq!(l.max, 55.0 + 4.3 + 5.0);
    }
}
