//! Checkpoint, restore and fork: the whole-backplane [`Snapshot`],
//! the checks that refuse a snapshot from a different backplane before
//! anything is mutated, and the fork that rebuilds a backplane from its
//! domain, unit and module tables.

use crate::backplane::{Cosim, CosimError, ModuleStatus, UnitId};
use crate::sched::{DriverState, ParkCounters, PerModuleProcState};
use crate::trace::TraceLog;
use crate::units::{UnitEntry, UnitSnap};
#[cfg(doc)]
use cosma_comm::NativeUnit;
#[cfg(doc)]
use cosma_core::comm::CommUnitSpec;
#[cfg(doc)]
use cosma_core::Module;
use cosma_core::{FsmExec, Value};
#[cfg(doc)]
use cosma_sim::Simulator;
use cosma_sim::{SimState, SimTime};
use std::fmt;

/// Captured execution state of one module.
#[derive(Clone)]
struct ModuleSnap {
    exec: FsmExec,
    vars: Vec<Value>,
    status: ModuleStatus,
}

/// A whole-backplane checkpoint: everything that changes as the
/// co-simulation runs, captured by [`Cosim::snapshot`].
///
/// Covers the kernel ([`cosma_sim::SimState`]: signal values, pending
/// drives, timers, process schedule state, stats), every communication
/// unit (FSM controller + protocol sessions, batched-link queues and
/// adaptive batch target, native unit internals), every module (FSM
/// state, variables, status), the activation scheduler (the driver's
/// active/parked split, watch sets and event-count gates, or the
/// oracle's per-process state), park/demand accounting, the global
/// error latch, and the trace log.
///
/// **Stats are captured and restored verbatim** — a restored run's
/// counters continue from the snapshot's values, so its *deltas* match
/// the uninterrupted run's deltas exactly.
///
/// The trace log is held as a copy that shares its full segments with
/// the live log, so capturing and restoring it costs O(segments) plus
/// the partial tail segment and the string table. The copy carries no
/// spill sink: [`Cosim::restore`] installs a log that spills nothing
/// until a sink is attached again with [`TraceLog::set_spill`].
///
/// Not covered: VCD recording (a running waveform dump is an output
/// stream, not simulation state) and processes registered directly on
/// the kernel through [`Cosim::sim_mut`] — their closure-captured
/// state is invisible to the backplane. Kernel-level schedule state of
/// such processes *is* captured, and [`Cosim::restore`] rejects a
/// snapshot whose process table does not match the target's.
#[derive(Clone)]
pub struct Snapshot {
    sim: SimState,
    /// Unit states in unit-table order.
    units: Vec<UnitSnap>,
    modules: Vec<ModuleSnap>,
    driver: Option<DriverState>,
    per_module: Vec<PerModuleProcState>,
    per_unit_seen: Vec<Vec<u64>>,
    park: ParkCounters,
    /// Per-domain clock-edge demand, in domain order.
    demand: Vec<i64>,
    error: Option<String>,
    trace: TraceLog,
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("at", &self.sim.now())
            .field("signals", &self.sim.signal_count())
            .field("processes", &self.sim.process_count())
            .field("units", &self.units.len())
            .field("modules", &self.modules.len())
            .field("trace_entries", &self.trace.len())
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// Simulation time at which the snapshot was taken.
    #[must_use]
    pub fn at(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of module instances captured.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }
}

/// Checkpoint / restore / fork.
///
/// The state-ownership contract behind these: the kernel owns signal
/// values and the event schedule ([`Simulator::save_state`]); each
/// communication unit owns its protocol state
/// (`FsmUnitRuntime::capture_state`, `BatchedLink::capture_state`,
/// [`NativeUnit::save_state`]); the backplane owns module execution
/// state and *all* scheduler state. Scheduler state that process
/// closures would naturally capture as locals (park flags, event-count
/// gates, elaboration latches) is deliberately hoisted into shared
/// cells owned by the activation scheduler, so a snapshot reaches
/// every bit that influences future behaviour — the precondition for
/// bit-identical replay.
impl Cosim {
    /// Captures the complete mutable state of the backplane.
    ///
    /// The snapshot is a plain value: clone it, keep several, restore
    /// them in any order. Capturing is non-destructive and the
    /// backplane can continue running afterwards.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            sim: self.sim.save_state(),
            units: self.units.borrow().iter().map(UnitEntry::capture).collect(),
            modules: self
                .modules
                .borrow()
                .iter()
                .map(|e| ModuleSnap {
                    exec: e.exec.clone(),
                    vars: e.vars.clone(),
                    status: e.status.clone(),
                })
                .collect(),
            driver: self.sched.driver.as_ref().map(|d| d.borrow().clone()),
            per_module: self
                .sched
                .per_module
                .iter()
                .map(|p| p.borrow().clone())
                .collect(),
            per_unit_seen: self
                .sched
                .per_unit_seen
                .iter()
                .map(|p| p.borrow().clone())
                .collect(),
            park: (*self.sched.park).clone(),
            demand: self.domains.iter().map(|d| d.demand.demand.get()).collect(),
            error: self.error.borrow().clone(),
            trace: self.trace.borrow().clone(),
        }
    }

    /// Structural compatibility check between this backplane and a
    /// snapshot, run *before* any state is mutated.
    fn check_snapshot_shape(&self, snap: &Snapshot) -> Result<(), CosimError> {
        fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), CosimError> {
            if ok {
                Ok(())
            } else {
                Err(CosimError::Setup(msg()))
            }
        }
        let units = self.units.borrow();
        ensure(units.len() == snap.units.len(), || {
            format!(
                "snapshot has {} units, backplane has {}",
                snap.units.len(),
                units.len()
            )
        })?;
        for (u, st) in units.iter().zip(&snap.units) {
            u.check(st)?;
        }
        let modules = self.modules.borrow();
        ensure(modules.len() == snap.modules.len(), || {
            format!(
                "snapshot has {} modules, backplane has {}",
                snap.modules.len(),
                modules.len()
            )
        })?;
        for (e, ms) in modules.iter().zip(&snap.modules) {
            ensure(
                ms.exec.current().index() < e.module.fsm().state_count(),
                || format!("module {}: snapshot state lies outside its FSM", e.name),
            )?;
            ensure(ms.vars.len() == e.vars.len(), || {
                format!(
                    "module {}: snapshot has {} variables, module has {}",
                    e.name,
                    ms.vars.len(),
                    e.vars.len()
                )
            })?;
        }
        ensure(self.sched.driver.is_some() == snap.driver.is_some(), || {
            "driver presence differs from snapshot".to_string()
        })?;
        if let (Some(d), Some(ds)) = (&self.sched.driver, &snap.driver) {
            d.borrow().check(ds).map_err(CosimError::Setup)?;
        }
        ensure(self.domains.len() == snap.demand.len(), || {
            format!(
                "snapshot has {} clock domains, backplane has {}",
                snap.demand.len(),
                self.domains.len()
            )
        })?;
        ensure(self.sched.per_module.len() == snap.per_module.len(), || {
            "per-module process count differs from snapshot".to_string()
        })?;
        ensure(
            self.sched.per_unit_seen.len() == snap.per_unit_seen.len(),
            || "per-unit gate count differs from snapshot".to_string(),
        )?;
        for (i, (p, sn)) in self
            .sched
            .per_unit_seen
            .iter()
            .zip(&snap.per_unit_seen)
            .enumerate()
        {
            ensure(p.borrow().len() == sn.len(), || {
                format!("per-unit gate {i} wire count differs from snapshot")
            })?;
        }
        // The kernel checks its own tables last; it is the only check
        // that answers with `CosimError::Sim`.
        self.sim.check_state(&snap.sim)?;
        Ok(())
    }

    /// Restores the backplane to a previously captured [`Snapshot`].
    ///
    /// The snapshot must come from this backplane or a structurally
    /// identical one (same construction sequence — e.g. a
    /// [`Cosim::fork`] sibling). Restoring rewinds *everything*
    /// [`Cosim::snapshot`] captures; a subsequent run replays the
    /// original execution bit-identically — same traces, same module
    /// states, same stat deltas.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] when the snapshot does not fit
    /// this backplane: unit or module counts, a different kind of unit
    /// at some table index, unit state outside its spec, a module state
    /// outside its FSM or a variable-count mismatch, driver members
    /// stepping a different unit or module, on a different clock or
    /// with a different poke signal, or native units without state
    /// support. Returns [`CosimError::Sim`] when the kernel rejects the
    /// snapshot (signal/process table mismatch — e.g. processes added
    /// through [`Cosim::sim_mut`] after the snapshot was taken). Every check
    /// runs before any mutation, so on these errors the backplane is
    /// left untouched. The one check that cannot run up front is a
    /// native unit's own layout check when the unit cannot fork a twin
    /// to probe ([`NativeUnit::fork_fresh`]); such a unit is trusted to
    /// load what it saved.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), CosimError> {
        self.check_snapshot_shape(snap)?;
        self.sim.load_state(&snap.sim)?;
        for (u, st) in self.units.borrow_mut().iter_mut().zip(&snap.units) {
            u.restore(st)?;
        }
        {
            let mut modules = self.modules.borrow_mut();
            for (e, ms) in modules.iter_mut().zip(&snap.modules) {
                e.exec = ms.exec.clone();
                e.vars.clone_from(&ms.vars);
                e.status = ms.status.clone();
            }
        }
        if let (Some(d), Some(ds)) = (&self.sched.driver, &snap.driver) {
            d.borrow_mut().restore_from(ds);
        }
        for (p, sn) in self.sched.per_module.iter().zip(&snap.per_module) {
            *p.borrow_mut() = sn.clone();
        }
        for (p, sn) in self.sched.per_unit_seen.iter().zip(&snap.per_unit_seen) {
            p.borrow_mut().clone_from(sn);
        }
        let park = &self.sched.park;
        park.parked.set(snap.park.parked.get());
        park.resumed.set(snap.park.resumed.get());
        park.parked_now.set(snap.park.parked_now.get());
        park.modules_stepped.set(snap.park.modules_stepped.get());
        for (d, v) in self.domains.iter().zip(&snap.demand) {
            d.demand.demand.set(*v);
        }
        *self.error.borrow_mut() = snap.error.clone();
        *self.trace.borrow_mut() = snap.trace.clone();
        Ok(())
    }

    /// Forks an independent backplane resuming from `snap`.
    ///
    /// The twin is rebuilt from this backplane's domain, unit and module
    /// tables, in creation order (each module row records how many
    /// units preceded it): every unit gets a fresh body (the same
    /// [`CommUnitSpec`], a batched link of the same configuration, a
    /// native unit's [`NativeUnit::fork_fresh`] twin) and every module
    /// its own [`Module`], bindings and any caller-supplied port
    /// signals. That yields identical structure (same signal and
    /// process ids, same driver members and watchers), onto which the
    /// snapshot is restored. The fork and the original share no mutable
    /// state: running one never affects the other, and both replay
    /// bit-identically from the snapshot point.
    ///
    /// `snap` may come from this backplane or any fork sibling. The
    /// original is not modified (`&self`).
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] when a native unit does not
    /// support forking ([`NativeUnit::fork_fresh`]), when boundary
    /// links are installed, when signals or processes were added
    /// directly through [`Cosim::sim_mut`] (the tables do not record
    /// them, so the twin's kernel tables or port signals mismatch), or
    /// any error [`Cosim::restore`] reports.
    pub fn fork(&self, snap: &Snapshot) -> Result<Cosim, CosimError> {
        if self.boundaries > 0 {
            return Err(CosimError::Setup(
                "forking is unsupported while boundary links are installed: boundary \
                 processes reach queues shared with another backplane, which the \
                 backplane's tables do not record"
                    .to_string(),
            ));
        }
        let mut twin = Cosim::new(self.config);
        twin.set_scheduling(self.sched.cfg)?;
        for d in &self.domains[1..] {
            twin.add_clock_domain(&d.name, d.ratio.num(), d.ratio.den())?;
        }
        let units = self.units.borrow();
        let modules = self.modules.borrow();
        let mut next_unit = 0;
        // `None` rebuilds the units added after the last module.
        for m in modules.iter().map(Some).chain([None]) {
            let upto = m.map_or(units.len(), |m| m.units_before);
            for u in &units[next_unit..upto] {
                twin.install_unit(u.domain, &u.name, u.fresh_body()?);
            }
            next_unit = upto;
            if let Some(m) = m {
                let bound = m.module.bindings().iter().zip(&m.bindings);
                let binds: Vec<(&str, UnitId)> = bound.map(|(b, r)| (b.name(), r.unit)).collect();
                let ports = (!m.own_ports).then(|| m.ports.clone());
                twin.install_module(m.domain, &m.module, &binds, ports)?;
            }
        }
        twin.restore(snap)?;
        Ok(twin)
    }
}
