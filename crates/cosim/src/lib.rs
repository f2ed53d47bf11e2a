//! # cosma-cosim — the co-simulation backplane
//!
//! Joint simulation of hardware and software over the discrete-event
//! kernel, following the paper's model:
//!
//! * the same module descriptions used for co-synthesis run here
//!   unchanged (coherence by construction),
//! * software modules are activated once per SW cycle and execute exactly
//!   one transition (precise HW/SW synchronization),
//! * all inter-module interaction goes through communication units whose
//!   wires are kernel signals,
//! * module and unit stepping share one activation scheduler
//!   ([`SchedulingConfig`]): one driver process steps every due unit
//!   and module in creation order — the order one process per unit and
//!   per module runs in — so unit steps and service calls act on their
//!   units at once, in the oracle's order, however units and modules
//!   were interleaved at construction. Provably-stable FSMs are
//!   *parked* on their watch wires, so blocked or finished parts of the
//!   backplane cost nothing per clock edge, and a blocked FSM whose
//!   only effects are trace records is *echoed*: the driver appends
//!   its records without stepping it;
//!   [`SchedulingConfig::legacy`] (one process per unit and module) is
//!   the oracle the driver is tested against,
//! * every `Stmt::Trace` lands in a [`TraceLog`] that can be compared
//!   event-for-event against a co-synthesis (board-level) run,
//! * the whole backplane checkpoints into a [`Snapshot`]
//!   ([`Cosim::snapshot`] / [`Cosim::restore`] / [`Cosim::fork`]) with
//!   bit-identical deterministic replay: every layer owns and captures
//!   its mutable state (kernel schedule, unit internals, module
//!   executors, scheduler gating), and the backplane externalizes all
//!   of its process-closure state to make that possible.
//!
//! ## Module map
//!
//! * `backplane` — [`Cosim`]: clock domains, unit and module
//!   installation, runs, status and statistics, the boundary halves of
//!   partitioned runs, and the public types ([`UnitId`],
//!   [`CosimModuleId`], [`DomainId`], [`ModuleStatus`],
//!   [`CosimError`]).
//! * `units` — the unit table: one row per communication unit, whatever
//!   its kind, and the only code that tells unit kinds apart; plus the
//!   module environment that calls it (dispatch by service index and
//!   the park or echo verdict) and the module step. Service names
//!   resolve once, at module install, into a per-binding table; units
//!   count calls per service index, and modules record trace entries
//!   through id hints for their name and labels.
//! * `sched` — [`SchedulingConfig`] and the activation scheduler: the
//!   driver with one watcher process per member, parking, echoing and
//!   clock demand, the `legacy()` oracle's per-unit and per-module
//!   processes, and the demand-gated activation clocks, which the
//!   kernel owns and runs.
//! * `snapshot` — [`Snapshot`], [`Cosim::snapshot`] /
//!   [`Cosim::restore`] with the checks that refuse a foreign snapshot
//!   before any mutation, and [`Cosim::fork`], which rebuilds a
//!   backplane from its domain, unit and module tables (the only
//!   record of what was built).
//! * [`partition`] — coupled backplanes stepped in quanta of the
//!   smallest boundary latency ([`Orchestrator`]).
//! * [`scenario`] — generated N-unit topologies for benches and tests.
//! * `trace` and [`tracebin`] — the columnar [`TraceLog`], whose copies
//!   share full segments, and its binary codec (one encoder for
//!   whole-log writes and spill, a chunked decoder for untrusted
//!   input); `annotate` — back-annotation of co-synthesis timing.

#![warn(missing_docs)]

mod annotate;
mod backplane;
pub mod partition;
pub mod scenario;
mod sched;
mod snapshot;
mod trace;
pub mod tracebin;
mod units;

pub use annotate::{
    annotate_batch_latency, back_annotate, timing_error, BackAnnotation, BatchAnnotation,
    BatchLinkTiming, LabelTiming, LinkCalibration,
};
pub use backplane::{
    Cosim, CosimConfig, CosimError, CosimModuleId, Dispatch, DomainId, ModuleStatus,
    SchedulingConfig, ShardStats, Snapshot, UnitId,
};
pub use cosma_comm::BusTiming;
pub use cosma_sim::ClockRatio;
pub use partition::{BoundarySpec, Orchestrator, OrchestratorStats, PartitionId};
pub use trace::{TraceComparison, TraceEntry, TraceEntryRef, TraceLog};
