//! # cosma-comm — the communication-unit library
//!
//! The paper's central abstraction made concrete: communication units with
//! controllers and access procedures, in two flavours:
//!
//! * **FSM units** ([`library`](crate)) — fully described in the IR,
//!   executable over plain wires or kernel signals, renderable into every
//!   view (HW VHDL / SW simulation C / SW synthesis C per target) and
//!   synthesizable. [`handshake_unit`] *is* the paper's Figure 2/3
//!   channel.
//! * **Native units** — models of existing communication platforms (UNIX
//!   IPC mailboxes, OS FIFOs, lock-guarded shared memory) whose internals
//!   are not synthesized, only their access procedures retargeted.
//!
//! [`FsmUnitRuntime`] executes FSM units with one protocol session per
//! caller (each module links "its own copy" of the procedure, as in the
//! paper), and [`StandaloneUnit`] gives both flavours one interface.
//!
//! Every flavour is checkpointable: [`FsmUnitRuntime::capture_state`] /
//! [`BatchedLink::capture_state`] produce canonical state values
//! ([`FsmUnitState`], [`BatchedLinkState`]) that restore into any
//! identically-configured instance, and native units implement
//! [`NativeUnit::save_state`] / [`NativeUnit::load_state`] /
//! [`NativeUnit::fork_fresh`] (or opt out, failing a whole-backplane
//! restore cleanly by name). Units own only their *internal* state —
//! wire values belong to whoever hosts them (kernel signals in the
//! backplane, [`LocalWires`] standalone) and must be captured there.

#![warn(missing_docs)]

mod batch;
mod library;
mod native;
mod runtime;
mod standalone;

pub use batch::{BatchedLink, BatchedLinkState, BusTiming};
pub use library::{batched_handshake_unit, handshake_unit, register_bank_unit, shared_reg_unit};
pub use native::{
    FifoChannel, Mailbox, NativeServiceDesc, NativeUnit, NativeUnitState, SharedMemory,
};
pub use runtime::{
    CallerId, FsmUnitRuntime, FsmUnitState, LocalWires, ServiceStats, UnitStats, WireStore,
};
pub use standalone::StandaloneUnit;
