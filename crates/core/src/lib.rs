//! # rlse-core — the PyLSE Machine formalism and pulse simulator
//!
//! This crate implements the core of RLSE, a Rust reproduction of PyLSE
//! (PLDI 2022): a pulse-transfer level language for superconductor
//! electronics.
//!
//! * [`machine`] — the PyLSE Machine `⟨Q, q_init, Σ, Λ, δ, μ, θ⟩` with the
//!   Transition / Dispatch / Trace semantics of the paper's Fig. 6.
//! * [`circuit`] — networks of machines and wires (the Network relation),
//!   with fanout-of-one enforcement.
//! * [`functional`] — behavioral "holes" mixing software models into pulse
//!   circuits.
//! * [`sim`] — the discrete-event simulator, with optional firing-delay
//!   variability. Its event loop is the only one: sweeps run it per trial.
//! * [`compiled`] — the one-time lowering of a circuit into flat dispatch
//!   tables and interned names that makes the simulator's hot loop
//!   allocation-free.
//! * [`sweep`] — deterministically-seeded parallel Monte-Carlo sweeps over
//!   a circuit under variability (the §5.2 / Fig. 13 experiments): one
//!   builder that compiles the circuit once, runs each trial through the
//!   simulator's event loop recording observed wires only, and is
//!   bit-identical to one full simulation per trial at any thread count.
//! * [`telemetry`] — zero-cost-when-disabled counters, spans, and timeline
//!   export shared by the simulator, the sweep engine, and (via `rlse-ta`)
//!   the model checker.
//! * [`ir`] — the versioned serializable netlist IR (hand-rolled JSON, a
//!   canonical content hash) and the [`ir::CompiledCache`] memoizing
//!   compiled artifacts across requests.
//! * [`events`] — the events dictionary and §5.2-style dynamic checks.
//! * [`plot`] — text waveform rendering.
//! * [`error`] — definition, wiring, and timing-violation errors, with
//!   Figure-13-style diagnostics.
//!
//! ## Example
//!
//! A C element (coincidence cell) fires when both inputs have arrived:
//!
//! ```
//! use rlse_core::prelude::*;
//! use rlse_core::machine::{EdgeDef, Machine};
//!
//! # fn main() -> Result<(), rlse_core::Error> {
//! let c_elem = Machine::new("C", &["a", "b"], &["q"], 12.0, 7, &[
//!     EdgeDef { src: "idle", trigger: "a", dst: "a_arr", ..EdgeDef::default() },
//!     EdgeDef { src: "idle", trigger: "b", dst: "b_arr", ..EdgeDef::default() },
//!     EdgeDef { src: "a_arr", trigger: "b", dst: "idle", firing: "q", ..EdgeDef::default() },
//!     EdgeDef { src: "a_arr", trigger: "a", dst: "a_arr", ..EdgeDef::default() },
//!     EdgeDef { src: "b_arr", trigger: "a", dst: "idle", firing: "q", ..EdgeDef::default() },
//!     EdgeDef { src: "b_arr", trigger: "b", dst: "b_arr", ..EdgeDef::default() },
//! ])?;
//!
//! let mut circuit = Circuit::new();
//! let a = circuit.inp_at(&[100.0], "A");
//! let b = circuit.inp_at(&[130.0], "B");
//! let q = circuit.add_machine(&c_elem, &[a, b])?[0];
//! circuit.inspect(q, "Q");
//! let events = Simulation::new(circuit).run()?;
//! assert_eq!(events.times("Q"), &[142.0]); // 130 + 12 ps
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod circuit;
pub mod compiled;
pub mod error;
pub mod events;
pub mod functional;
pub mod ir;
pub mod machine;
pub mod plot;
pub mod sim;
pub mod sweep;
pub mod telemetry;
pub mod validate;
pub mod vcd;

pub use error::{Error, Time};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::circuit::{Circuit, NodeOverrides, Wire};
    pub use crate::error::{Error, Time};
    pub use crate::events::Events;
    pub use crate::functional::Hole;
    pub use crate::ir::{CompiledCache, Ir, IrQuery};
    pub use crate::machine::{EdgeDef, Machine};
    pub use crate::sim::{Simulation, TraceEntry, Variability};
    pub use crate::sweep::{OutputStats, Sweep, SweepError, SweepReport};
    pub use crate::telemetry::{Histogram, Telemetry, TelemetryReport};
}
