//! The discrete-event pulse simulator (paper §4.3).
//!
//! The simulator maintains a priority heap of pending pulses tagged with
//! their destination cells. Pulses are extracted in time order, grouped into
//! the earliest set of simultaneous pulses destined for the same cell
//! (`getSimPulses` from Fig. 6), and dispatched through that cell's PyLSE
//! Machine; newly fired pulses are pushed back onto the heap until it is
//! empty or the user-defined target time is reached.
//!
//! ## Kernel architecture
//!
//! The hot loop is **allocation-free**. On first use, the circuit is lowered
//! by [`CompiledCircuit::compile`] into flat transition tables and an
//! interned symbol table (see [`crate::compiled`]); the event loop then works
//! entirely with `u32` state/port/symbol indices, mutates the flat
//! `(state, τ_done, Θ)` runtime arrays in place, and reuses per-simulation
//! scratch buffers for the simultaneous-pulse batch, the dispatch working
//! set, and the fired-output list. Strings are materialized only at the
//! boundary: [`TraceEntry`] construction, timing diagnostics, and the final
//! [`Events`] dictionary. Compiled tables survive [`Simulation::reset`], so
//! a simulation reused across trials compiles once, not once per trial.
//!
//! The event loop is written once. [`Simulation::run`] records every
//! wire's pulses; the Monte-Carlo sweep ([`crate::sweep`]) runs the same
//! loop per trial and records only the observed wires, through a
//! wire→slot map. The loop is generic over that recording target, so each
//! caller's copy compiles to only the recording it does.

use crate::circuit::{Circuit, NodeKind};
use crate::compiled::{CompiledCircuit, CompiledMachine, CompiledNode};
use crate::error::{Error, HoleError, Time, TimingViolation, ViolationKind};
use crate::events::Events;
use crate::telemetry::{CellTally, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Per-firing propagation-delay variability (paper §5.2).
///
/// With variability enabled, every individual propagation delay that occurs
/// during the simulation has a small amount of jitter added to it.
pub enum Variability {
    /// Add zero-mean Gaussian noise with the given standard deviation (in
    /// time units) to every firing delay. This is the paper's default.
    Gaussian {
        /// Standard deviation of the added jitter.
        std: f64,
    },
    /// Gaussian noise with a per-cell-type standard deviation; cell types not
    /// in the map get no jitter.
    PerCellType(std::collections::HashMap<String, f64>),
    /// A user-defined function from `(nominal_delay, cell_name, rng)` to the
    /// actual delay, for fine-grained control.
    Custom(CustomDelayFn),
}

/// The boxed delay-model signature accepted by [`Variability::Custom`]:
/// `(nominal_delay, cell_name, rng) -> actual_delay`.
pub type CustomDelayFn = Box<dyn FnMut(Time, &str, &mut dyn RngCore) -> Time + Send>;

impl Variability {
    /// The paper's default jitter: Gaussian with σ = 0.2 ps.
    pub fn default_gaussian() -> Self {
        Variability::Gaussian { std: 0.2 }
    }
}

impl std::fmt::Debug for Variability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variability::Gaussian { std } => f.debug_struct("Gaussian").field("std", std).finish(),
            Variability::PerCellType(m) => f.debug_tuple("PerCellType").field(m).finish(),
            Variability::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// Resolve a variability model to the per-node jitter sigma the event
/// loop caches: `NaN` means "no jitter for this node" — an absent
/// [`PerCellType`](Variability::PerCellType) entry (which draws no RNG
/// sample, matching the interpreted kernel), or an exact σ = 0. The σ = 0 case must
/// reproduce the nominal run **bit for bit**, and applying a `0·sample`
/// term would not: the delay round-trips through `t + (fire − t)`, which is
/// not an f64 identity. `0.0` marks a [`Custom`](Variability::Custom)
/// model, which always calls the user closure.
fn resolve_sigma(v: &Variability, cell: &str) -> f64 {
    match v {
        Variability::Gaussian { std } => {
            if *std == 0.0 {
                f64::NAN
            } else {
                *std
            }
        }
        Variability::PerCellType(map) => match map.get(cell).copied() {
            Some(s) if s != 0.0 => s,
            _ => f64::NAN,
        },
        Variability::Custom(_) => 0.0,
    }
}

/// Standard-normal sampler using the Box–Muller transform, keeping the sine
/// half of each generated pair as a spare for the next call — halving the
/// `ln`/`sqrt`/trig work per jittered delay.
///
/// The spare lives on the sampler (one per simulation run), never in
/// thread-local or global state, so the jitter stream for a given seed is
/// identical no matter which thread runs the trial.
#[derive(Debug, Default)]
struct BoxMuller {
    spare: Option<f64>,
}

impl BoxMuller {
    fn sample(&mut self, rng: &mut StdRng) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        self.spare = Some(r * sin);
        r * cos
    }
}

/// One dispatched batch in a simulation trace (see
/// [`Simulation::with_trace`]): which cell received which simultaneous
/// inputs at what time, the state movement, and the pulses fired.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Arrival time of the batch.
    pub time: Time,
    /// Name of the receiving node's first output wire (the paper's node id).
    pub node_wire: String,
    /// Cell type name (machine name or hole name).
    pub cell: String,
    /// Input port names that pulsed in this batch.
    pub inputs: Vec<String>,
    /// Machine state before the batch (empty for holes).
    pub state_before: String,
    /// Machine state after the batch (empty for holes).
    pub state_after: String,
    /// Output pulses fired: `(output name, absolute time)`.
    pub fired: Vec<(String, Time)>,
}

impl std::fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={:<8} {:<12} {:<8} in={:?}",
            self.time, self.node_wire, self.cell, self.inputs
        )?;
        if !self.state_before.is_empty() {
            write!(f, " {} -> {}", self.state_before, self.state_after)?;
        }
        if !self.fired.is_empty() {
            write!(f, " fires {:?}", self.fired)?;
        }
        Ok(())
    }
}

/// A pending pulse: delivered to input `port` of `node` at `time`. `seq`
/// numbers pulses in push order within one run, so the heap order — a
/// min-heap on `(time, node, seq)` — is strictly total.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pulse {
    time: Time,
    node: u32,
    port: u32,
    seq: u64,
}

impl Eq for Pulse {}
impl Ord for Pulse {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for a min-heap on (time, node, seq).
        other
            .time
            .total_cmp(&self.time)
            .then(other.node.cmp(&self.node))
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Pulse {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Execution counters the event loop accumulates while pumping (only when
/// telemetry is on), flushed once per run or per sweep worker. Every field
/// but the heap peak is additive, so sums over trials do not depend on how
/// trials were split across workers.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    dispatches: u64,
    transitions: u64,
    pushed: u64,
    popped: u64,
    wire: u64,
    max_heap: usize,
}

impl Counters {
    /// Add the counters under `keys` (dispatches, transitions, pushed,
    /// popped, wire pulses) and raise the heap-depth peak `peak_key`.
    pub(crate) fn flush(&self, tel: &Telemetry, keys: [&'static str; 5], peak_key: &'static str) {
        tel.add_many(&[
            (keys[0], self.dispatches),
            (keys[1], self.transitions),
            (keys[2], self.pushed),
            (keys[3], self.popped),
            (keys[4], self.wire),
        ]);
        tel.peak(peak_key, self.max_heap as u64);
    }
}

/// Reusable per-dispatch buffers: the simultaneous-pulse batch (input
/// ports in arrival order), the priority-order working set, and the fired
/// `(output port, time)` list.
#[derive(Debug, Default)]
struct Scratch {
    batch: Vec<u32>,
    rest: Vec<u32>,
    fired: Vec<(u32, f64)>,
}

/// Where the event loop records the pulses that appear on wires.
pub(crate) trait Record {
    /// Record a pulse at `t` on wire `wire`; true if it was kept.
    fn record(&mut self, wire: usize, t: Time) -> bool;
}

/// Every wire's pulse list, indexed by wire: what [`Simulation::run`]
/// returns as [`Events`].
impl Record for Vec<Vec<Time>> {
    #[inline]
    fn record(&mut self, wire: usize, t: Time) -> bool {
        self[wire].push(t);
        true
    }
}

/// The observed wires' pulse columns: `slot[wire]` is the wire's column,
/// or `u32::MAX` if the wire is not recorded (its pulses are still
/// routed). The sweep's recording target.
pub(crate) struct Observed<'a> {
    pub(crate) slot: &'a [u32],
    pub(crate) columns: &'a mut [Vec<Time>],
}

impl Record for Observed<'_> {
    #[inline]
    fn record(&mut self, wire: usize, t: Time) -> bool {
        match self.slot[wire] {
            u32::MAX => false,
            s => {
                self.columns[s as usize].push(t);
                true
            }
        }
    }
}

/// Why the event loop stopped before its heap ran dry: the raw form of an
/// [`Error`], which only [`Simulation::run`] spells out (the sweep counts
/// the kind and moves on).
#[derive(Debug)]
pub(crate) enum Halt {
    /// A Fig. 6 error transition at `node` (the batch is left in the
    /// simulation's scratch for the diagnostic).
    Timing {
        node: usize,
        transition: u32,
        time: Time,
        breach: Breach,
    },
    /// A hole returned the wrong number of outputs.
    Hole(HoleError),
}

/// `getSimPulses` (Fig. 6): pop the earliest pending pulse and every other
/// pulse for the same `(time, node)` into `batch`. Returns the batch's time
/// and node, or `None` once the heap is empty or its earliest pulse lies
/// beyond `until` (every later pulse does too).
#[inline]
fn pop_batch(
    heap: &mut BinaryHeap<Pulse>,
    batch: &mut Vec<u32>,
    until: Option<Time>,
) -> Option<(Time, usize)> {
    let first = heap.pop()?;
    if until.is_some_and(|u| first.time > u) {
        return None;
    }
    batch.clear();
    batch.push(first.port);
    while let Some(p) = heap.peek() {
        if p.time == first.time && p.node == first.node {
            batch.push(heap.pop().expect("peeked").port);
        } else {
            break;
        }
    }
    Some((first.time, first.node as usize))
}

/// Which Fig. 6 error transition a dispatch hit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Breach {
    /// The batch arrived before the previous transition completed.
    TransitionTime { tau_done: Time },
    /// Input `input` was last seen at `last_seen`, closer than `required`.
    Past {
        input: u32,
        required: Time,
        last_seen: Time,
    },
}

/// Dispatch (Fig. 6): feed the simultaneous-pulse batch in `scratch` to
/// machine `m` at time `t`, handling inputs in priority order (lowest
/// priority number first, ties broken by input index), and return the new
/// `(q, τ_done)`. Fired outputs land in `scratch.fired` at nominal times.
///
/// Θ is read and written in place at `theta[base + input]`, `base` being
/// the node's Θ offset. On an error transition the violating transition's
/// id and the breach come back instead; Θ may then hold partial updates,
/// which the next run's reset discards.
#[inline]
fn dispatch(
    m: &CompiledMachine,
    t: Time,
    (mut q, mut td): (u32, Time),
    theta: &mut [f64],
    base: usize,
    scratch: &mut Scratch,
) -> Result<(u32, Time), (u32, Breach)> {
    let Scratch { batch, rest, fired } = scratch;
    fired.clear();
    rest.clear();
    rest.extend_from_slice(batch);
    while !rest.is_empty() {
        let mut pos = 0usize;
        let mut best = (m.transition(q, rest[0]).priority, rest[0]);
        for (i, &p) in rest.iter().enumerate().skip(1) {
            let key = (m.transition(q, p).priority, p);
            if key < best {
                pos = i;
                best = key;
            }
        }
        let sigma = rest.remove(pos);
        let tr = *m.transition(q, sigma);
        if t < td {
            return Err((tr.id, Breach::TransitionTime { tau_done: td }));
        }
        for &(cin, dist) in &m.pasts[tr.past.0 as usize..tr.past.1 as usize] {
            let last = theta[base + cin as usize];
            if t < last + dist {
                let breach = Breach::Past {
                    input: cin,
                    required: dist,
                    last_seen: last,
                };
                return Err((tr.id, breach));
            }
        }
        q = tr.dst;
        td = t + tr.tau_tran;
        theta[base + sigma as usize] = t;
        for &(o, d) in &m.firings[tr.fire.0 as usize..tr.fire.1 as usize] {
            fired.push((o, t + d));
        }
    }
    Ok((q, td))
}

/// Apply firing-delay variability (§5.2) in place to the pulses a batch at
/// time `t` fired: Gaussian jitter of deviation `std` from the caller's RNG
/// stream, or the user's `custom` model, clamped so no pulse fires before
/// its cause.
#[inline]
fn jitter(
    fired: &mut [(u32, f64)],
    t: Time,
    std: f64,
    mut custom: Option<&mut CustomDelayFn>,
    cell: &str,
    rng: &mut StdRng,
    bm: &mut BoxMuller,
) {
    for fo in fired.iter_mut() {
        let nominal = fo.1 - t;
        let actual = match custom.as_mut() {
            Some(f) => f(nominal, cell, rng),
            None => nominal + std * bm.sample(rng),
        };
        fo.1 = t + actual.max(0.0);
    }
}

/// A configured simulation of one [`Circuit`].
///
/// ```
/// use rlse_core::prelude::*;
/// use rlse_core::machine::{EdgeDef, Machine};
///
/// # fn main() -> Result<(), rlse_core::Error> {
/// let jtl = Machine::new("JTL", &["a"], &["q"], 5.0, 2, &[EdgeDef {
///     src: "idle", trigger: "a", dst: "idle", firing: "q", ..EdgeDef::default()
/// }])?;
/// let mut c = Circuit::new();
/// let a = c.inp_at(&[10.0, 20.0], "A");
/// let q = c.add_machine(&jtl, &[a])?[0];
/// c.inspect(q, "Q");
/// let events = Simulation::new(c).run()?;
/// assert_eq!(events.times("Q"), &[15.0, 25.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulation {
    circuit: Circuit,
    /// Built lazily on first `reset`/`run` and retained for the lifetime of
    /// the simulation (the circuit is immutable while owned here), so a
    /// simulation reused across trials compiles once. Held behind an
    /// `Arc` so a shared compiled form (e.g. from an
    /// [`ir::CompiledCache`](crate::ir::CompiledCache)) can be injected with
    /// [`with_compiled`](Simulation::with_compiled) instead of recompiled.
    compiled: Option<Arc<CompiledCircuit>>,
    until: Option<Time>,
    variability: Option<Variability>,
    seed: u64,
    trace_enabled: bool,
    trace: Vec<TraceEntry>,
    // Flat machine runtime state κ = ⟨q, τ_done, Θ⟩, indexed by node (Θ by
    // the node's theta offset from the compiled circuit). Reset per run,
    // mutated in place by the event loop.
    states: Vec<u32>,
    tau_done: Vec<f64>,
    theta: Vec<f64>,
    // Reusable per-run buffers (see `reset`): the per-wire event lists and
    // the pending-pulse heap. Kept on the struct so repeated runs
    // (Monte-Carlo sweeps) reuse their allocations instead of rebuilding
    // them per trial.
    wire_events: Vec<Vec<Time>>,
    heap: BinaryHeap<Pulse>,
    // Scratch buffers reused across every dispatched batch: the dispatch
    // buffers, the hole pulse-presence vector, and the per-node
    // pre-resolved variability sigma (NaN = exempt).
    scratch: Scratch,
    present: Vec<bool>,
    var_std: Vec<f64>,
    // Telemetry: a shared handle (no-op when disabled) and a per-node
    // tally scratch buffer that is only ever allocated when the handle is
    // enabled.
    telemetry: Telemetry,
    tel_cells: Vec<CellTally>,
}

impl Simulation {
    /// Create a simulation over `circuit` with no target time and no
    /// variability.
    pub fn new(circuit: Circuit) -> Self {
        Simulation {
            circuit,
            compiled: None,
            until: None,
            variability: None,
            seed: 0xC0FFEE,
            trace_enabled: false,
            trace: Vec::new(),
            states: Vec::new(),
            tau_done: Vec::new(),
            theta: Vec::new(),
            wire_events: Vec::new(),
            heap: BinaryHeap::new(),
            scratch: Scratch::default(),
            present: Vec::new(),
            var_std: Vec::new(),
            telemetry: Telemetry::disabled(),
            tel_cells: Vec::new(),
        }
    }

    /// Create a simulation over `circuit` with a pre-compiled dispatch
    /// table, skipping compilation entirely — the cache-hit fast path of
    /// [`ir::CompiledCache`](crate::ir::CompiledCache).
    ///
    /// `compiled` must have been produced by
    /// [`CompiledCircuit::compile`] from a circuit structurally identical to
    /// `circuit` (same nodes, wires, and machine specs in the same order);
    /// the cache guarantees this by keying on the IR's canonical bytes.
    pub fn with_compiled(circuit: Circuit, compiled: Arc<CompiledCircuit>) -> Self {
        let mut sim = Self::new(circuit);
        sim.compiled = Some(compiled);
        sim
    }

    /// Simulate only until the given time. Required when the circuit has
    /// feedback loops, which would otherwise generate pulses forever.
    pub fn until(mut self, t: Time) -> Self {
        self.until = Some(t);
        self
    }

    /// Enable firing-delay variability.
    pub fn variability(mut self, v: Variability) -> Self {
        self.variability = Some(v);
        self
    }

    /// Seed the variability RNG for reproducible jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Change the variability RNG seed of an existing simulation (the
    /// in-place counterpart of [`seed`](Self::seed), for reusing one
    /// simulation across many trials).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Change or clear the target time in place.
    pub fn set_until(&mut self, until: Option<Time>) {
        self.until = until;
    }

    /// Change or clear the variability model in place.
    pub fn set_variability(&mut self, v: Option<Variability>) {
        self.variability = v;
    }

    /// Attach a [`Telemetry`] handle: every subsequent [`run`](Self::run)
    /// flushes its counters, per-cell tallies, and a `sim.run` span into it.
    /// A [disabled](Telemetry::disabled) handle (the default) keeps the hot
    /// loop on its no-op path — see the [`telemetry`](crate::telemetry)
    /// module docs for the cost model.
    pub fn telemetry(mut self, tel: &Telemetry) -> Self {
        self.telemetry = tel.clone();
        self
    }

    /// Attach or detach the telemetry handle in place (the counterpart of
    /// [`telemetry`](Self::telemetry) for a simulation already built).
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.telemetry = tel.clone();
    }

    /// The circuit lowered to flat dispatch tables, compiling it now if this
    /// simulation has not yet run. The compiled form is cached for the
    /// simulation's lifetime.
    pub fn compiled(&mut self) -> &CompiledCircuit {
        if self.compiled.is_none() {
            self.compiled = Some(Arc::new(CompiledCircuit::compile(&self.circuit)));
        }
        self.compiled.as_deref().expect("just compiled")
    }

    /// Restore the simulation to its pre-run state so it can be run again:
    /// every machine configuration ⟨q, τ_done, Θ⟩ is reset to its initial
    /// value, and the pulse heap, per-wire event lists, and dispatch trace
    /// are emptied — **keeping their allocations** for the next run. The
    /// compiled dispatch tables are retained (the circuit cannot change
    /// while owned by the simulation), so a reset run pays no recompilation.
    ///
    /// [`run`](Self::run) calls this automatically on entry, so an explicit
    /// call is only needed to drop stale state eagerly (e.g. after a run
    /// aborted with a timing violation left pulses pending).
    pub fn reset(&mut self) {
        self.trace.clear();
        self.heap.clear();
        if self.compiled.is_none() {
            self.compiled = Some(Arc::new(CompiledCircuit::compile(&self.circuit)));
        }
        let cc = self.compiled.as_deref().expect("compiled above");
        let n_nodes = cc.nodes.len();
        self.states.clear();
        self.tau_done.clear();
        self.tau_done.resize(n_nodes, 0.0);
        self.states.extend(cc.nodes.iter().map(|n| match n {
            CompiledNode::Machine { cm, .. } => cc.machines[*cm as usize].start,
            _ => 0,
        }));
        self.theta.clear();
        self.theta.resize(cc.theta_len, f64::NEG_INFINITY);
        let n_wires = self.circuit.wires.len();
        if self.wire_events.len() != n_wires {
            self.wire_events.resize_with(n_wires, Vec::new);
        }
        for evs in &mut self.wire_events {
            evs.clear();
        }
        // Pre-size the pulse heap from the same dispatch estimate the trace
        // uses: the heap's peak depth is bounded by pending stimulus plus
        // in-flight fan-out, both covered by `event_estimate`, so the hot
        // loop never pays a sift-and-reallocate mid-run.
        let est = cc.event_estimate();
        if self.heap.capacity() < est {
            self.heap.reserve(est);
        }
        if self.trace_enabled {
            // Pre-size the trace from the compiled circuit's dispatch
            // estimate so a traced run does not grow the Vec batch by batch.
            if self.trace.capacity() < est {
                self.trace.reserve(est);
            }
        }
    }

    /// Number of pulses currently pending in the heap (0 outside of `run`
    /// and after a `reset`; nonzero after a run aborted by an error).
    pub fn pending_pulses(&self) -> usize {
        self.heap.len()
    }

    /// Record a [`TraceEntry`] for every dispatched batch; retrieve the log
    /// with [`trace`](Self::trace) after running. Each entry materializes
    /// the batch's names as owned `String`s — several heap allocations per
    /// dispatched batch, not one — so leave tracing off for benchmarking.
    /// The trace `Vec` itself is pre-sized from the compiled circuit's
    /// [`event_estimate`](CompiledCircuit::event_estimate), so its growth
    /// is not part of the per-batch cost on feed-forward circuits.
    pub fn with_trace(mut self) -> Self {
        self.trace_enabled = true;
        self
    }

    /// The dispatch log of the most recent [`run`](Self::run), if tracing
    /// was enabled.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Borrow the circuit under simulation.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Take the circuit back out of the simulation.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// Run the simulation to completion (empty pulse heap or target time)
    /// and return the events observed on every named wire.
    ///
    /// Machine configurations are reset on every call, so `run` may be
    /// called repeatedly; note however that hole closures keep whatever
    /// internal state the user function carries.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Timing`] if any cell detects a transition-time or
    /// past-constraint violation, with a Figure-13-style diagnostic, or
    /// [`Error::Hole`] if a hole returns the wrong number of outputs.
    pub fn run(&mut self) -> Result<Events, Error> {
        self.circuit.check()?;
        // Telemetry state is hoisted out of the hot loop: one enabled check
        // per run, local u64 tallies while running, one flush at the end.
        let tel_on = self.telemetry.is_enabled();
        let t_compile = if self.compiled.is_none() {
            self.telemetry.now()
        } else {
            None
        };
        self.reset();
        if let Some(t0) = t_compile {
            self.telemetry.record_span("sim.compile", 0, t0, 0);
        }
        let t_run = self.telemetry.now();
        let mut n = Counters::default();
        let outcome = self.pump_every_wire(&mut n, tel_on);
        if tel_on {
            let tel = &self.telemetry;
            tel.add("sim.runs", 1);
            n.flush(
                tel,
                [
                    "sim.dispatches",
                    "sim.transitions",
                    "sim.pulses_pushed",
                    "sim.pulses_popped",
                    "sim.wire_pulses",
                ],
                "sim.max_heap_depth",
            );
            match &outcome {
                Err(Halt::Timing { .. }) => tel.add("sim.timing_violations", 1),
                Err(Halt::Hole(_)) => tel.add("sim.error_runs", 1),
                Ok(()) => {}
            }
            let cc = self.compiled.as_deref().expect("compiled in reset");
            for (node, tally) in self.tel_cells.iter().enumerate() {
                tel.add_cell(cc.symbols.resolve(cc.cell[node]), tally);
            }
            if let Some(t0) = t_run {
                tel.record_span("sim.run", 0, t0, n.dispatches);
            }
        }
        outcome.map_err(|halt| self.error(halt))?;
        Ok(self.events())
    }

    /// One run that tallies into the caller's `counters` (when `count`)
    /// instead of the attached telemetry handle: the sweep's reference
    /// path, which keeps every wire and the full [`Error`].
    pub(crate) fn run_counted(
        &mut self,
        counters: &mut Counters,
        count: bool,
    ) -> Result<Events, Error> {
        self.circuit.check()?;
        self.reset();
        self.pump_every_wire(counters, count)
            .map_err(|halt| self.error(halt))?;
        Ok(self.events())
    }

    /// One run recording into `rec` only, tallying into `counters` (when
    /// `count`): the sweep's per-trial path. The circuit is not re-checked
    /// and a failure comes back raw, with no diagnostic built.
    pub(crate) fn run_into<R: Record>(
        &mut self,
        rec: &mut R,
        counters: &mut Counters,
        count: bool,
    ) -> Result<(), Halt> {
        self.reset();
        self.pump(rec, counters, count)
    }

    /// [`pump`](Self::pump) into this simulation's own per-wire lists.
    fn pump_every_wire(&mut self, n: &mut Counters, count: bool) -> Result<(), Halt> {
        let mut wires = std::mem::take(&mut self.wire_events);
        let outcome = self.pump(&mut wires, n, count);
        self.wire_events = wires;
        outcome
    }

    /// Spell out why the last run halted (cold path).
    #[cold]
    fn error(&self, halt: Halt) -> Error {
        match halt {
            Halt::Hole(e) => e.into(),
            Halt::Timing {
                node,
                transition,
                time,
                breach,
            } => {
                let cc = self.compiled.as_deref().expect("compiled in reset");
                violation(cc, node, &self.scratch.batch, transition, time, breach)
            }
        }
    }

    /// The recorded pulses of the last run, sorted per wire.
    fn events(&mut self) -> Events {
        for evs in self.wire_events.iter_mut() {
            evs.sort_by(f64::total_cmp);
        }
        Events::from_wires(&self.circuit, &self.wire_events)
    }

    /// The discrete-event loop (Fig. 6) over freshly [`reset`](Self::reset)
    /// state: seed the heap from the stimulus, then pop, dispatch and
    /// deliver batches until the heap empties or passes the target time.
    /// Wire pulses within the target time go to `rec`. Execution counters
    /// go to `n` when `count` is set (`n.wire` counts the pulses `rec`
    /// kept); per-cell tallies to the telemetry scratch when a handle is
    /// attached.
    fn pump<R: Record>(&mut self, rec: &mut R, n: &mut Counters, count: bool) -> Result<(), Halt> {
        // Split the struct into disjoint field borrows so the circuit, the
        // compiled tables, the flat runtime state, and the scratch buffers
        // can be used together.
        let Simulation {
            circuit,
            compiled,
            until,
            variability,
            seed,
            trace_enabled,
            trace,
            states,
            tau_done,
            theta,
            heap,
            scratch,
            present,
            var_std,
            telemetry,
            tel_cells,
            ..
        } = self;
        let cc: &CompiledCircuit = compiled.as_deref().expect("compiled in reset");
        let cells_on = telemetry.is_enabled();
        if cells_on {
            tel_cells.clear();
            tel_cells.resize(cc.nodes.len(), CellTally::default());
        }
        let until = *until;
        let trace_enabled = *trace_enabled;
        let mut rng = StdRng::seed_from_u64(*seed);
        let mut bm = BoxMuller::default();
        let mut seq = 0u64;

        // Pre-resolve variability to a per-node sigma so the hot loop never
        // touches cell-name strings: NaN means "no jitter for this node"
        // (variability off for it, exempt instance, hole, σ = 0, or an
        // absent PerCellType entry). Custom models get a 0.0 marker and
        // call the user closure with the interned cell name. See
        // [`resolve_sigma`] for the σ = 0 bit-identity rationale.
        var_std.clear();
        if let Some(v) = variability.as_ref() {
            var_std.resize(cc.nodes.len(), f64::NAN);
            for (node, cn) in cc.nodes.iter().enumerate() {
                if let CompiledNode::Machine { exempt: false, .. } = cn {
                    var_std[node] = resolve_sigma(v, cc.symbols.resolve(cc.cell[node]));
                }
            }
        }
        let mut custom = match variability.as_mut() {
            Some(Variability::Custom(f)) => Some(f),
            _ => None,
        };

        let record_ok = |t: Time| until.is_none_or(|u| t <= u);

        // Seed the heap from the stimulus schedule (source nodes in circuit
        // order, pulses in declaration order).
        for sp in &cc.stim {
            if record_ok(sp.time) && rec.record(sp.wire as usize, sp.time) && count {
                n.wire += 1;
            }
            if sp.sink.0 != u32::MAX {
                heap.push(Pulse {
                    time: sp.time,
                    node: sp.sink.0,
                    port: sp.sink.1,
                    seq,
                });
                seq += 1;
                if count {
                    n.pushed += 1;
                }
            }
        }
        if count {
            n.max_heap = n.max_heap.max(heap.len());
        }

        // Main discrete-event loop.
        while let Some((t, node)) = pop_batch(heap, &mut scratch.batch, until) {
            if count {
                n.popped += scratch.batch.len() as u64;
                n.dispatches += 1;
            }
            match cc.nodes[node] {
                CompiledNode::Source => unreachable!("sources receive no pulses"),
                CompiledNode::Machine { cm, theta_off, .. } => {
                    let m = &cc.machines[cm as usize];
                    let state_before = states[node];
                    // On a violation the run aborts, so partial in-place
                    // updates never leak: the next run resets the flat state.
                    let stepped = dispatch(
                        m,
                        t,
                        (state_before, tau_done[node]),
                        theta,
                        theta_off as usize,
                        scratch,
                    );
                    let (q, td) = stepped.map_err(|(transition, breach)| Halt::Timing {
                        node,
                        transition,
                        time: t,
                        breach,
                    })?;
                    states[node] = q;
                    tau_done[node] = td;
                    let (batch, fired) = (&scratch.batch, &scratch.fired);
                    if count {
                        n.transitions += batch.len() as u64;
                    }
                    if cells_on {
                        let tc = &mut tel_cells[node];
                        tc.dispatches += 1;
                        tc.transitions += batch.len() as u64;
                        tc.fired += fired.len() as u64;
                    }
                    if trace_enabled {
                        // Boundary string materialization: the trace records
                        // nominal firing times (pre-variability), exactly as
                        // the interpreted kernel did.
                        trace.push(TraceEntry {
                            time: t,
                            node_wire: cc.symbols.resolve(cc.node_wire[node]).to_string(),
                            cell: cc.symbols.resolve(m.name).to_string(),
                            inputs: batch
                                .iter()
                                .map(|&p| cc.symbols.resolve(m.inputs[p as usize]).to_string())
                                .collect(),
                            state_before: cc
                                .symbols
                                .resolve(m.states[state_before as usize])
                                .to_string(),
                            state_after: cc.symbols.resolve(m.states[q as usize]).to_string(),
                            fired: fired
                                .iter()
                                .map(|&(o, ft)| {
                                    (cc.symbols.resolve(m.outputs[o as usize]).to_string(), ft)
                                })
                                .collect(),
                        });
                    }
                }
                CompiledNode::Hole { in_syms, out_syms } => {
                    let NodeKind::Hole(hole) = &mut circuit.nodes[node].kind else {
                        unreachable!("compiled node kind matches circuit node kind")
                    };
                    let (batch, fired) = (&scratch.batch, &mut scratch.fired);
                    present.clear();
                    present.resize(hole.inputs().len(), false);
                    for &p in batch.iter() {
                        present[p as usize] = true;
                    }
                    let outs = hole.call(present, t);
                    if outs.len() != hole.outputs().len() {
                        return Err(Halt::Hole(HoleError::ArityMismatch {
                            hole: hole.name().to_string(),
                            expected: hole.outputs().len(),
                            got: outs.len(),
                        }));
                    }
                    let delay = hole.delay();
                    fired.clear();
                    for (port, fire) in outs.into_iter().enumerate() {
                        if fire {
                            fired.push((port as u32, t + delay));
                        }
                    }
                    if cells_on {
                        let tc = &mut tel_cells[node];
                        tc.dispatches += 1;
                        tc.fired += fired.len() as u64;
                    }
                    if trace_enabled {
                        trace.push(TraceEntry {
                            time: t,
                            node_wire: cc.symbols.resolve(cc.node_wire[node]).to_string(),
                            cell: cc.symbols.resolve(cc.cell[node]).to_string(),
                            inputs: batch
                                .iter()
                                .map(|&p| {
                                    cc.symbols
                                        .resolve(cc.hole_port_syms[(in_syms + p) as usize])
                                        .to_string()
                                })
                                .collect(),
                            state_before: String::new(),
                            state_after: String::new(),
                            fired: fired
                                .iter()
                                .map(|&(o, ft)| {
                                    (
                                        cc.symbols
                                            .resolve(cc.hole_port_syms[(out_syms + o) as usize])
                                            .to_string(),
                                        ft,
                                    )
                                })
                                .collect(),
                        });
                    }
                }
            }
            // Apply firing-delay variability in place (machines only; holes
            // and exempt/unmapped nodes have a NaN sigma).
            if let Some(&std) = var_std.get(node).filter(|s| !s.is_nan()) {
                let cell = cc.symbols.resolve(cc.cell[node]);
                jitter(
                    &mut scratch.fired,
                    t,
                    std,
                    custom.as_deref_mut(),
                    cell,
                    &mut rng,
                    &mut bm,
                );
            }
            // Deliver fired pulses through the flat routing arrays.
            let outs = cc.node_out_wires(node);
            for &(port, t_out) in scratch.fired.iter() {
                let wire = outs[port as usize] as usize;
                if record_ok(t_out) && rec.record(wire, t_out) && count {
                    n.wire += 1;
                }
                let (sink, sport) = cc.sink[wire];
                if sink != u32::MAX {
                    heap.push(Pulse {
                        time: t_out,
                        node: sink,
                        port: sport,
                        seq,
                    });
                    seq += 1;
                    if count {
                        n.pushed += 1;
                    }
                }
            }
            if count {
                n.max_heap = n.max_heap.max(heap.len());
            }
        }
        Ok(())
    }
}

/// Materialize a Figure-13-style timing diagnostic from compiled indices
/// (cold path: only reached when the run is about to abort).
#[cold]
fn violation(
    cc: &CompiledCircuit,
    node: usize,
    batch: &[u32],
    transition: u32,
    tau_arr: Time,
    breach: Breach,
) -> Error {
    let CompiledNode::Machine { cm, .. } = cc.nodes[node] else {
        unreachable!("only machines take error transitions")
    };
    let m = &cc.machines[cm as usize];
    let kind = match breach {
        Breach::TransitionTime { tau_done } => ViolationKind::TransitionTime { tau_done },
        Breach::Past {
            input,
            required,
            last_seen,
        } => ViolationKind::PastConstraint {
            constrained: cc.symbols.resolve(m.inputs[input as usize]).to_string(),
            required,
            last_seen,
        },
    };
    TimingViolation {
        machine: cc.symbols.resolve(m.name).to_string(),
        node_wire: cc.symbols.resolve(cc.node_wire[node]).to_string(),
        transition: transition as usize,
        inputs: batch
            .iter()
            .map(|&p| cc.symbols.resolve(m.inputs[p as usize]).to_string())
            .collect(),
        tau_arr,
        kind,
    }
    .into()
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

    fn merger() -> Arc<Machine> {
        Machine::new(
            "M",
            &["a", "b"],
            &["q"],
            6.3,
            5,
            &[
                EdgeDef { src: "idle", trigger: "a", dst: "idle", firing: "q", ..Default::default() },
                EdgeDef { src: "idle", trigger: "b", dst: "idle", firing: "q", ..Default::default() },
            ],
        )
        .unwrap()
    }

    #[test]
    fn pulses_propagate_through_a_chain() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let q1 = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        let q2 = c.add_machine(&jtl(5.0), &[q1]).unwrap()[0];
        c.inspect(q2, "Q");
        let ev = Simulation::new(c).run().unwrap();
        assert_eq!(ev.times("Q"), &[20.0]);
    }

    #[test]
    fn merger_merges_both_streams() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 30.0], "A");
        let b = c.inp_at(&[20.0], "B");
        let q = c.add_machine(&merger(), &[a, b]).unwrap()[0];
        c.inspect(q, "Q");
        let ev = Simulation::new(c).run().unwrap();
        assert_eq!(ev.times("Q"), &[16.3, 26.3, 36.3]);
    }

    #[test]
    fn until_cuts_off_late_pulses() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 100.0], "A");
        let q = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let ev = Simulation::new(c).until(50.0).run().unwrap();
        assert_eq!(ev.times("Q"), &[15.0]);
        assert_eq!(ev.times("A"), &[10.0]);
    }

    #[test]
    fn simultaneous_pulses_are_batched() {
        // Two pulses at the same instant into a merger: both handled, two
        // output pulses at the same time.
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let b = c.inp_at(&[10.0], "B");
        let q = c.add_machine(&merger(), &[a, b]).unwrap()[0];
        c.inspect(q, "Q");
        let ev = Simulation::new(c).run().unwrap();
        assert_eq!(ev.times("Q"), &[16.3, 16.3]);
    }

    #[test]
    fn variability_jitters_delays_reproducibly() {
        let build = || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0], "A");
            let q = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
            c.inspect(q, "Q");
            c
        };
        let ev1 = Simulation::new(build())
            .variability(Variability::Gaussian { std: 0.5 })
            .seed(42)
            .run()
            .unwrap();
        let ev2 = Simulation::new(build())
            .variability(Variability::Gaussian { std: 0.5 })
            .seed(42)
            .run()
            .unwrap();
        let ev3 = Simulation::new(build())
            .variability(Variability::Gaussian { std: 0.5 })
            .seed(43)
            .run()
            .unwrap();
        assert_eq!(ev1.times("Q"), ev2.times("Q"));
        assert_ne!(ev1.times("Q"), ev3.times("Q"));
        assert_ne!(ev1.times("Q"), &[15.0]);
        // Jitter is small: within 5 sigma of nominal.
        assert!((ev1.times("Q")[0] - 15.0).abs() < 2.5);
    }

    #[test]
    fn zero_sigma_gaussian_is_bitwise_identical_to_nominal() {
        // σ = 0 must not merely be "close to" the nominal run — the delays
        // must round-trip untouched. (Applying a 0·sample jitter term would
        // re-derive each firing time as t + (fire − t), which is not an f64
        // identity at every time scale.)
        let build = || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[0.1, 10.3, 1000.7], "A");
            let q1 = c.add_machine(&jtl(5.3), &[a]).unwrap()[0];
            let q2 = c.add_machine(&jtl(0.2), &[q1]).unwrap()[0];
            c.inspect(q2, "Q");
            c
        };
        let nominal = Simulation::new(build()).run().unwrap();
        let zero = Simulation::new(build())
            .variability(Variability::Gaussian { std: 0.0 })
            .seed(99)
            .run()
            .unwrap();
        let t_n = nominal.times("Q");
        let t_z = zero.times("Q");
        assert_eq!(t_n.len(), t_z.len());
        for (a, b) in t_n.iter().zip(t_z) {
            assert_eq!(a.to_bits(), b.to_bits(), "σ=0 must be bit-identical");
        }
    }

    #[test]
    fn zero_sigma_per_cell_entry_is_bitwise_identical_to_nominal() {
        let mut map = std::collections::HashMap::new();
        map.insert("JTL".to_string(), 0.0);
        let build = || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[0.1, 10.3], "A");
            let q = c.add_machine(&jtl(5.3), &[a]).unwrap()[0];
            c.inspect(q, "Q");
            c
        };
        let nominal = Simulation::new(build()).run().unwrap();
        let zero = Simulation::new(build())
            .variability(Variability::PerCellType(map))
            .seed(7)
            .run()
            .unwrap();
        for (a, b) in nominal.times("Q").iter().zip(zero.times("Q")) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn per_cell_variability_only_hits_named_cells() {
        let mut map = std::collections::HashMap::new();
        map.insert("OTHER".to_string(), 1.0);
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let q = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let ev = Simulation::new(c)
            .variability(Variability::PerCellType(map))
            .run()
            .unwrap();
        assert_eq!(ev.times("Q"), &[15.0]);
    }

    #[test]
    fn exempt_instances_skip_variability() {
        use crate::circuit::NodeOverrides;
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let q = c
            .add_machine_with(
                &jtl(5.0),
                &[a],
                NodeOverrides {
                    exempt_from_variability: true,
                    ..Default::default()
                },
            )
            .unwrap()[0];
        c.inspect(q, "Q");
        let ev = Simulation::new(c)
            .variability(Variability::Gaussian { std: 2.0 })
            .run()
            .unwrap();
        assert_eq!(ev.times("Q"), &[15.0]);
    }

    #[test]
    fn custom_variability_sees_interned_cell_names() {
        // The custom model gets the cell-type name; symbols round-trip
        // through the compiled table without garbling it.
        let mut seen: Vec<String> = Vec::new();
        let names = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let names2 = std::sync::Arc::clone(&names);
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let q = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let ev = Simulation::new(c)
            .variability(Variability::Custom(Box::new(move |d, cell, _rng| {
                names2.lock().unwrap().push(cell.to_string());
                d + 1.0
            })))
            .run()
            .unwrap();
        assert_eq!(ev.times("Q"), &[16.0]);
        seen.extend(names.lock().unwrap().iter().cloned());
        assert_eq!(seen, vec!["JTL".to_string()]);
    }

    #[test]
    fn hole_arity_mismatch_is_reported() {
        use crate::functional::Hole;
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let h = Hole::new("bad", 1.0, &["a"], &["q"], |_, _| vec![]);
        let q = c.add_hole(h, &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let err = Simulation::new(c).run().unwrap_err();
        assert!(matches!(err, Error::Hole(_)));
    }

    #[test]
    fn timing_violation_includes_node_wire() {
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
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 11.0], "A");
        let q = c.add_machine(&m, &[a]).unwrap()[0];
        c.inspect(q, "OUT");
        let err = Simulation::new(c).run().unwrap_err();
        match err {
            Error::Timing(v) => {
                assert_eq!(v.node_wire, "OUT");
                assert_eq!(v.inputs, vec!["a".to_string()]);
            }
            e => panic!("expected timing violation, got {e}"),
        }
    }

    #[test]
    fn rerun_reuses_buffers_with_identical_results() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 30.0], "A");
        let q = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let mut sim = Simulation::new(c).with_trace();
        let ev1 = sim.run().unwrap();
        let n_trace = sim.trace().len();
        let ev2 = sim.run().unwrap();
        assert_eq!(ev1, ev2);
        // The trace is rebuilt, not appended to.
        assert_eq!(sim.trace().len(), n_trace);
    }

    #[test]
    fn compiled_tables_survive_reset() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let q = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let mut sim = Simulation::new(c);
        let before = sim.compiled() as *const CompiledCircuit;
        sim.run().unwrap();
        sim.reset();
        sim.run().unwrap();
        let after = sim.compiled() as *const CompiledCircuit;
        assert_eq!(before, after, "reset must not recompile the circuit");
    }

    #[test]
    fn reset_clears_state_after_error_transition_run() {
        // A fan-in of widely and narrowly spaced pulses: the narrow pair
        // trips the transition-time constraint mid-run, leaving pending
        // pulses in the heap and a partial trace.
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
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 11.0, 50.0, 90.0], "A");
        let q = c.add_machine(&m, &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let mut sim = Simulation::new(c).with_trace();
        sim.run().unwrap_err();
        assert!(sim.pending_pulses() > 0, "error run leaves the heap dirty");
        sim.reset();
        assert_eq!(sim.pending_pulses(), 0);
        assert!(sim.trace().is_empty());
        // The machine configuration ⟨q, τ_done, Θ⟩ is back to initial: the
        // rerun fails at the same place with the same diagnostic instead of
        // carrying stale θ entries over.
        let err1 = format!("{:?}", sim.run().unwrap_err());
        let err2 = format!("{:?}", sim.run().unwrap_err());
        assert_eq!(err1, err2);
    }

    #[test]
    fn reset_clears_state_after_variability_run() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 30.0], "A");
        let q = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let mut sim = Simulation::new(c)
            .with_trace()
            .variability(Variability::Gaussian { std: 0.5 })
            .seed(9);
        let jittered = sim.run().unwrap();
        assert_ne!(jittered.times("Q"), &[15.0, 35.0]);
        // Same seed on the reused simulation: identical jitter stream (the
        // Box–Muller spare is per-run state, so reruns start fresh).
        assert_eq!(sim.run().unwrap(), jittered);
        // Turn variability off in place: exact nominal times — no leftover
        // heap pulses, RNG state, or machine configurations from the
        // jittered runs can leak into this one.
        sim.set_variability(None);
        let exact = sim.run().unwrap();
        assert_eq!(exact.times("Q"), &[15.0, 35.0]);
        // New seeds change the jittered run again.
        sim.set_variability(Some(Variability::Gaussian { std: 0.5 }));
        sim.set_seed(10);
        assert_ne!(sim.run().unwrap(), jittered);
    }

    #[test]
    fn telemetry_counts_dispatches_and_cells() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 30.0], "A");
        let q1 = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        let q2 = c.add_machine(&jtl(5.0), &[q1]).unwrap()[0];
        c.inspect(q2, "Q");
        let tel = Telemetry::new();
        let mut sim = Simulation::new(c).telemetry(&tel);
        let ev = sim.run().unwrap();
        let r = tel.report();
        assert_eq!(r.counter("sim.runs"), 1);
        // 2 stimulus pulses through 2 JTLs: 4 dispatched batches, each a
        // single-pulse batch, each taking one transition and firing once.
        assert_eq!(r.counter("sim.dispatches"), 4);
        assert_eq!(r.counter("sim.transitions"), 4);
        assert_eq!(r.counter("sim.pulses_popped"), 4);
        assert_eq!(r.counter("sim.pulses_pushed"), 4);
        assert_eq!(r.counter("sim.wire_pulses") as usize, ev.pulse_count_all());
        assert!(r.gauge("sim.max_heap_depth") >= 1);
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].0, "JTL");
        assert_eq!(
            r.cells[0].1,
            crate::telemetry::CellTally { dispatches: 4, transitions: 4, fired: 4 }
        );
        // A second run doubles every additive counter.
        sim.run().unwrap();
        let r2 = tel.report();
        assert_eq!(r2.counter("sim.runs"), 2);
        assert_eq!(r2.counter("sim.dispatches"), 8);
    }

    #[test]
    fn telemetry_flushes_on_abort_paths() {
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
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 11.0], "A");
        let q = c.add_machine(&m, &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let tel = Telemetry::new();
        let mut sim = Simulation::new(c).telemetry(&tel);
        sim.run().unwrap_err();
        let r = tel.report();
        // The counters recorded up to the violation are flushed, not lost.
        assert_eq!(r.counter("sim.runs"), 1);
        assert_eq!(r.counter("sim.timing_violations"), 1);
        assert!(r.counter("sim.dispatches") >= 1);
    }

    #[test]
    fn disabled_telemetry_allocates_no_tally_storage() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let q = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let mut sim = Simulation::new(c);
        sim.run().unwrap();
        assert!(!sim.telemetry.is_enabled());
        assert_eq!(
            sim.tel_cells.capacity(),
            0,
            "telemetry-off runs must not allocate tally scratch"
        );
        // Same with an explicitly attached disabled handle.
        let tel = Telemetry::disabled();
        sim.set_telemetry(&tel);
        sim.run().unwrap();
        assert_eq!(sim.tel_cells.capacity(), 0);
        assert!(tel.report().is_empty());
    }

    #[test]
    fn traced_run_presizes_from_event_estimate() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 30.0], "A");
        let q = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let mut sim = Simulation::new(c).with_trace();
        sim.reset();
        let est = sim.compiled().event_estimate();
        assert!(est >= 2);
        assert!(sim.trace.capacity() >= est);
    }

    #[test]
    fn gaussian_sampler_is_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut bm = BoxMuller::default();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| bm.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn box_muller_spare_halves_rng_draws() {
        // Two samples from the cached sampler consume one uniform pair; the
        // RNG position after 2k samples equals the position after k pairs.
        let mut rng1 = StdRng::seed_from_u64(11);
        let mut bm = BoxMuller::default();
        for _ in 0..10 {
            bm.sample(&mut rng1);
        }
        let mut rng2 = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let _: f64 = rng2.gen_range(f64::MIN_POSITIVE..1.0);
            let _: f64 = rng2.gen();
        }
        assert_eq!(rng1.gen::<u64>(), rng2.gen::<u64>());
    }
}
