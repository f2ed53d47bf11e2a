//! # cosma-sim — discrete-event simulation kernel
//!
//! A VHDL-semantics event-driven simulator: femtosecond time, two-phase
//! delta cycles, processes with `wait on` / `wait for` / `wait until`
//! semantics, and a VCD trace writer.
//!
//! This crate substitutes for the commercial VHDL simulator (Synopsys VSS)
//! the paper's co-simulation environment was built on. The co-simulation
//! backplane (`cosma-cosim`) instantiates hardware modules and
//! communication units as [`Process`]es over [`Simulator`] signals.
//!
//! Future activity lives in a hierarchical timer wheel (64 power-of-two
//! slots per level, four levels, far-future overflow list) keyed by
//! `(time, sequence)`, giving O(1) insertion, O(1) timer cancellation
//! and an amortized-O(1) bulk path for pre-computed beat trains
//! ([`Simulator::schedule_drive_train`] / [`ProcCtx::drive_train`]).
//!
//! The kernel is checkpointable: [`Simulator::save_state`] captures
//! everything the kernel owns (signals, per-process scheduling state,
//! time queues, time, statistics) into a [`SimState`] and
//! [`Simulator::load_state`] resumes bit-identically. Process-*closure*
//! state is deliberately outside the contract — whoever registers a
//! process owns whatever its closure captures and must checkpoint it
//! alongside the kernel state (as the co-simulation backplane does).
//!
//! ## Example
//!
//! ```
//! use cosma_sim::{Simulator, FnProcess, Wait, Duration};
//! use cosma_core::{Type, Value, Bit};
//!
//! let mut sim = Simulator::new();
//! let clk = sim.add_bit("CLK");
//! let q = sim.add_signal("Q", Type::INT16, Value::Int(0));
//! sim.add_clock("clkgen", clk, Duration::from_ns(100));
//! // A counter clocked on the rising edge.
//! sim.add_process("counter", FnProcess::new(move |ctx| {
//!     if ctx.rose(clk) {
//!         let v = ctx.read_int(q);
//!         ctx.drive(q, Value::Int(v + 1));
//!     }
//!     Wait::Event(vec![clk])
//! }));
//! sim.run_for(Duration::from_ns(1000))?;
//! assert!(matches!(sim.value(q), Value::Int(n) if *n >= 9));
//! # Ok::<(), cosma_sim::SimError>(())
//! ```

#![warn(missing_docs)]

mod kernel;
mod queue;
pub mod reference;
mod signal;
mod time;
mod vcd;

pub use kernel::{
    Admitted, ClockControl, ClockedProcess, Edge, FnProcess, ProcCtx, Process, ProcessId, SimError,
    SimState, SimStats, Simulator, Wait,
};
pub use signal::{SignalId, SignalInfo};
pub use time::{ClockRatio, Duration, SimTime};
pub use vcd::VcdRecorder;
