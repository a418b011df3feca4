//! The structure-of-arrays lane kernel that runs every hole-free sweep:
//! blocks of `W` Monte-Carlo trials advanced over one compiled circuit.
//!
//! Running trials one [`Simulation`](crate::sim::Simulation) at a time
//! re-checks the circuit per trial and clones every wire's event list into
//! a fresh [`Events`] dictionary. At the paper's margin-map scale (10⁶+
//! trials per request, Fig. 13 / Table 3) those per-trial costs dominate.
//! This kernel removes them:
//!
//! - **Compile once.** The circuit is lowered to [`CompiledCircuit`]
//!   tables a single time per sweep; every worker shares the immutable
//!   [`Plan`] (tables, routing arrays, stimulus schedule, observed-wire
//!   slots) by reference.
//! - **Dense lanes.** A block of `W` trials ("lanes") shares one set of
//!   flat runtime arrays laid out `[value(node, 0), value(node, 1), …]`:
//!   state, τ_done, Θ, and per-node jitter σ are each indexed
//!   `node * W + lane` (Θ by `(theta_off + input) * W + lane`, which the
//!   shared Fig. 6 [`dispatch`] reads as base `theta_off·W + lane`, stride
//!   `W`), so one allocation and one reset serve the whole block.
//! - **Lane-major pump.** The lanes of a block are pumped back to back over
//!   one reused pulse heap keyed the simulator's `(time, node, seq)`. Lanes
//!   never interact, so each lane replays exactly the event sequence its
//!   per-trial simulation would, while the heap only ever holds a single
//!   trial's in-flight pulses — merging all lanes into one `W`×-deep heap
//!   measurably loses more to sift depth than lockstep interleaving gains.
//!   A lane that hits a timing violation ends its pump there.
//! - **Observed-only recording.** Pulse times are recorded per observed
//!   wire; anonymous internal wires are never stored, and the per-trial
//!   `Events` clone is replaced by refilling one scratch dictionary in
//!   place for the check callback.
//!
//! Each lane derives its RNG from `trial_seed(master, trial)`, keeps its
//! own Box–Muller spare and sequence counter, and calls the variability
//! factory once, exactly as the per-trial path does, so results are
//! bit-identical to it at any thread count and batch width.

use super::{trial_seed, Job, OutAcc, Trial, TrialOutcome};
use crate::circuit::Circuit;
use crate::compiled::{CompiledCircuit, CompiledNode};
use crate::error::Time;
use crate::events::Events;
use crate::sim::{
    dispatch, for_each_sigma, jitter, pop_batch, BoxMuller, Counters, Pulse, Scratch, Variability,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BinaryHeap;

/// Everything the workers share, compiled exactly once per sweep and then
/// immutable: the lowered circuit, each wire's recording slot, and each
/// node's start state.
pub(super) struct Plan {
    cc: CompiledCircuit,
    /// For each wire index: its slot in the sweep's sorted observed-name
    /// list, or `u32::MAX` if the wire is not observed (such pulses are
    /// routed but never recorded).
    obs_slot: Vec<u32>,
    /// Each node's initial machine state (0 for sources).
    starts: Vec<u32>,
}

impl Plan {
    pub(super) fn new(probe: &Circuit, names: &[String]) -> Self {
        let cc = CompiledCircuit::compile(probe);
        let obs_slot = (0..probe.wire_count())
            .map(|idx| {
                let w = probe.wire_at(idx);
                if !probe.wire_observed(w) {
                    return u32::MAX;
                }
                names
                    .binary_search_by(|n| n.as_str().cmp(probe.wire_name(w)))
                    .expect("every observed wire is in the sorted name list") as u32
            })
            .collect();
        let starts = cc
            .nodes
            .iter()
            .map(|n| match n {
                CompiledNode::Machine { cm, .. } => cc.machines[*cm as usize].start,
                _ => 0,
            })
            .collect();
        Plan {
            cc,
            obs_slot,
            starts,
        }
    }
}

/// One worker's reusable lane engine: the dense `[n_nodes × W]` runtime
/// columns, the pulse heap reused by every lane in turn, the per-observed-
/// wire recording buffers, and the dispatch scratch. Allocated once per
/// worker, reset per block.
pub(super) struct Kernel<'p> {
    plan: &'p Plan,
    width: usize,
    states: Vec<u32>,
    tau_done: Vec<f64>,
    theta: Vec<f64>,
    var_std: Vec<f64>,
    heap: BinaryHeap<Pulse>,
    /// Recorded pulse times of the lane being pumped, per observed slot.
    obs: Vec<Vec<Time>>,
    scratch: Scratch,
    /// Scratch events dictionary refilled per lane for the check callback
    /// (only allocated when a check is installed).
    events: Option<Events>,
}

impl<'p> Kernel<'p> {
    pub(super) fn new(plan: &'p Plan, width: usize, job: &Job) -> Self {
        let n_nodes = plan.cc.nodes.len();
        Kernel {
            plan,
            width,
            states: vec![0; n_nodes * width],
            tau_done: vec![0.0; n_nodes * width],
            theta: vec![f64::NEG_INFINITY; plan.cc.theta_len * width],
            var_std: vec![f64::NAN; n_nodes * width],
            heap: BinaryHeap::with_capacity(plan.cc.stim.len()),
            obs: vec![Vec::new(); job.names.len()],
            scratch: Scratch::default(),
            events: job
                .sweep
                .check
                .is_some()
                .then(|| Events::preallocated(job.names)),
        }
    }

    /// Run one block of `lanes` consecutive trials starting at
    /// `first_trial`, appending each trial's outcome (and, on detailed
    /// runs, its output pulses) to `out` in trial order. Pure in `(job,
    /// first_trial, lanes)`: results cannot depend on which worker runs the
    /// block or what it ran before.
    pub(super) fn run_block(
        &mut self,
        job: &Job,
        first_trial: u64,
        lanes: usize,
        n: &mut Counters,
        out: &mut Vec<Trial>,
    ) {
        let Kernel {
            plan,
            width,
            states,
            tau_done,
            theta,
            var_std,
            heap,
            obs,
            scratch,
            events,
        } = self;
        let plan: &Plan = plan;
        let width = *width;
        let cc = &plan.cc;
        let sweep = job.sweep;
        let until = sweep.until;
        let record_ok = |t: Time| until.is_none_or(|u| t <= u);
        let count = job.count;

        // Reset the dense lanes to the initial configuration ⟨q, τ_done, Θ⟩
        // (whole-width fills: unused trailing lanes are never pumped).
        for (node, &s0) in plan.starts.iter().enumerate() {
            states[node * width..(node + 1) * width].fill(s0);
        }
        tau_done.fill(0.0);
        theta.fill(f64::NEG_INFINITY);
        var_std.fill(f64::NAN);

        for lane in 0..lanes {
            // Per-lane trial state: the same seed derivation, σ resolution
            // and fresh variability model the per-trial path applies.
            let trial = first_trial + lane as u64;
            let mut rng = StdRng::seed_from_u64(trial_seed(sweep.master_seed, trial));
            let mut bm = BoxMuller::default();
            let mut custom = None;
            if let Some(factory) = &sweep.variability {
                let v = factory();
                for_each_sigma(cc, &v, |node, s| var_std[node * width + lane] = s);
                if let Variability::Custom(f) = v {
                    custom = Some(f);
                }
            }
            for column in obs.iter_mut() {
                column.clear();
            }

            // Seed from the compiled stimulus schedule — the simulator's
            // seeding order — so sequence numbers match the per-trial run.
            let mut seq = 0u64;
            heap.clear();
            for sp in &cc.stim {
                if record_ok(sp.time) {
                    let slot = plan.obs_slot[sp.wire as usize];
                    if slot != u32::MAX {
                        obs[slot as usize].push(sp.time);
                        if count {
                            n.wire += 1;
                        }
                    }
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

            // The pump: the discrete-event loop of Fig. 6, acting on this
            // lane's column of every dense array.
            let mut dead = false;
            while let Some((t, node)) = pop_batch(heap, &mut scratch.batch, until) {
                if count {
                    n.popped += scratch.batch.len() as u64;
                    n.dispatches += 1;
                }
                let CompiledNode::Machine { cm, theta_off, .. } = cc.nodes[node] else {
                    unreachable!("sources receive no pulses; hole circuits run per trial")
                };
                let si = node * width + lane;
                let base = theta_off as usize * width + lane;
                let m = &cc.machines[cm as usize];
                match dispatch(
                    m,
                    t,
                    (states[si], tau_done[si]),
                    theta,
                    base,
                    width,
                    scratch,
                ) {
                    Ok((q, td)) => {
                        states[si] = q;
                        tau_done[si] = td;
                    }
                    Err(_) => {
                        // The lane's trial aborts with a timing violation;
                        // its partial column updates are reset with the
                        // next block.
                        dead = true;
                        break;
                    }
                }
                if count {
                    n.transitions += scratch.batch.len() as u64;
                }
                let std = var_std[si];
                if !std.is_nan() {
                    let cell = cc.symbols.resolve(cc.cell[node]);
                    jitter(
                        &mut scratch.fired,
                        t,
                        std,
                        custom.as_mut(),
                        cell,
                        &mut rng,
                        &mut bm,
                    );
                }
                // Deliver: record observed wires, push routed pulses.
                let outs = cc.node_out_wires(node);
                for &(port, t_out) in scratch.fired.iter() {
                    let wire = outs[port as usize] as usize;
                    if record_ok(t_out) {
                        let slot = plan.obs_slot[wire];
                        if slot != u32::MAX {
                            obs[slot as usize].push(t_out);
                            if count {
                                n.wire += 1;
                            }
                        }
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

            // Classify the lane: sort each recorded column (jitter can push
            // pulses out of order, exactly as in the per-trial path), run
            // the check against the refilled scratch dictionary, and
            // accumulate the per-output stats.
            if dead {
                out.push((TrialOutcome::Timing, Vec::new()));
                continue;
            }
            for column in obs.iter_mut() {
                column.sort_by(f64::total_cmp);
            }
            let check_ok = match (&sweep.check, events.as_mut()) {
                (Some(check), Some(ev)) => {
                    ev.refill_named(obs.iter().map(Vec::as_slice));
                    check(ev)
                }
                _ => true,
            };
            let per_output = obs.iter().map(|c| OutAcc::of(c)).collect();
            let outputs = if job.want_outputs {
                obs.clone()
            } else {
                Vec::new()
            };
            out.push((
                TrialOutcome::Done {
                    per_output,
                    check_ok,
                },
                outputs,
            ));
        }
    }
}
