//! The unit table and the module environment that calls it.
//!
//! Every communication unit of a backplane — FSM-described, batched
//! link or native — is one `UnitEntry` of the unit table, indexed by
//! `UnitId`; only this module tells unit kinds apart. Module
//! activations (`step_module`) reach their units through `CosimEnv`,
//! which dispatches each call by service index and gathers the
//! evidence for the scheduler's park or echo verdict.
//!
//! Names resolve once, when a module is installed: every service
//! spelling its FSM calls on a binding is resolved against the bound
//! unit's declared names into the binding's table (`ModuleBinding`),
//! which a call finds by pointer ([`Arc::ptr_eq`] on
//! `ServiceCall::service`). The units count calls per service index,
//! and a module records its trace entries through id hints for its
//! name and labels (`TraceHints`), so a warm activation hashes and
//! compares no strings.

use crate::backplane::{CosimError, DomainId, ModuleStatus, UnitId};
use crate::sched::ParkCounters;
use crate::trace::TraceLog;
use cosma_comm::{
    BatchedLink, BatchedLinkState, CallerId, FsmUnitRuntime, FsmUnitState, NativeUnit,
    NativeUnitState, UnitStats, WireStore,
};
use cosma_core::comm::{resolve_service, CommUnitSpec, Wire};
use cosma_core::ids::{PortId, VarId};
use cosma_core::{
    Env, EvalError, Fsm, FsmExec, Module, ReadEnv, ServiceCall, ServiceOutcome, Type, Value,
    Variable,
};
use cosma_sim::{Duration, ProcCtx, SignalId, Simulator};
use std::cell::RefCell;
use std::sync::Arc;

/// What a unit-table row runs — the one place unit kinds differ. The
/// rest of the backplane reaches every unit through [`UnitEntry`].
pub(crate) enum UnitBody {
    /// An FSM-described unit ([`Cosim::add_fsm_unit`]).
    Fsm(FsmUnitRuntime),
    /// A batched bus link ([`Cosim::add_batched_unit`]).
    Batched(Box<BatchedLink>),
    /// A native (platform) unit ([`Cosim::add_native_unit`]).
    Native(NativeBody),
}

impl UnitBody {
    /// A native unit's body; [`UnitEntry::new`] declares its `OCC`
    /// mirror.
    pub(crate) fn native(unit: Box<dyn NativeUnit>) -> Self {
        UnitBody::Native(NativeBody {
            unit,
            occ_driven: 0,
        })
    }
}

/// A native unit and the state of its `OCC` mirror: the unit's only
/// wire, a kernel signal mirroring its queue occupancy
/// ([`NativeUnit::occupancy`]) if the unit exposes one. Driven after
/// every call and step, the mirror makes native state changes
/// wire-visible so blocked callers can *park* instead of polling.
pub(crate) struct NativeBody {
    pub(crate) unit: Box<dyn NativeUnit>,
    /// The occupancy value most recently *driven* onto the `OCC`
    /// signal. Drive decisions must compare against this, not the
    /// committed signal value: within one delta an earlier drive is
    /// still pending, and comparing against the stale committed value
    /// would skip the correcting drive — leaving the mirror wrong
    /// forever and losing a parked caller's wakeup.
    pub(crate) occ_driven: i64,
}

impl NativeBody {
    /// Mirrors the unit's occupancy onto its `OCC` wire after a call
    /// or step may have changed it. Same-value drives are skipped, so
    /// this is cheap for no-op calls.
    fn sync_occ(&mut self, ws: &mut CtxWires<'_, '_>) {
        if let (Some(&sig), Some(occ)) = (ws.map.first(), self.unit.occupancy()) {
            if self.occ_driven != occ {
                self.occ_driven = occ;
                ws.ctx.drive(sig, Value::Int(occ));
            }
        }
    }
}

/// One row of the unit table, indexed by [`UnitId`]: everything the
/// backplane knows about one communication unit, whatever its kind.
pub(crate) struct UnitEntry {
    pub(crate) name: String,
    pub(crate) domain: DomainId,
    /// The unit's wires as kernel signals, in wire-id order (a native
    /// unit's only wire is its `OCC` mirror, if it has one).
    wires: Vec<SignalId>,
    /// Canonical service names. A caller's spelling resolves against
    /// them through [`resolve_service`].
    services: Vec<String>,
    /// Completion wires per service index: the wires whose events can
    /// unblock a pending caller or change what a pure read returns (the
    /// protocol's read-set mapped onto kernel signals; a native unit's
    /// `OCC` mirror). Empty means a blocked caller must poll.
    completion: Vec<Vec<SignalId>>,
    /// One HW clock cycle of the unit's domain — the scheduling unit for
    /// a batched link's pre-scheduled payload bursts
    /// ([`WireStore::write_wire_after`]).
    cycle: Duration,
    body: UnitBody,
}

impl UnitEntry {
    /// A unit-table row for `body`, declaring its wires as kernel
    /// signals named `<name>.<WIRE>`: a wire-level unit's spec wires,
    /// or a native unit's `OCC` mirror when the unit exposes an
    /// occupancy ([`NativeUnit::occupancy`]).
    pub(crate) fn new(
        sim: &mut Simulator,
        name: &str,
        domain: DomainId,
        cycle: Duration,
        mut body: UnitBody,
    ) -> Self {
        let mut declare = |spec: &CommUnitSpec| -> Vec<SignalId> {
            let wire = |w: &Wire| {
                sim.add_signal(
                    format!("{name}.{}", w.name()),
                    w.ty().clone(),
                    w.init().clone(),
                )
            };
            spec.wires().iter().map(wire).collect()
        };
        let wires = match &mut body {
            UnitBody::Fsm(rt) => declare(rt.spec()),
            UnitBody::Batched(link) => declare(link.spec()),
            UnitBody::Native(n) => {
                let occ = n.unit.occupancy();
                n.occ_driven = occ.unwrap_or(0);
                let mirror = |v| sim.add_signal(format!("{name}.OCC"), Type::INT16, Value::Int(v));
                occ.map(mirror).into_iter().collect()
            }
        };
        // A wire-level unit's services are its spec's; each one's
        // completion wires map spec wire ids onto kernel signals.
        let from_spec = |spec: &CommUnitSpec, completion: &dyn Fn(&str) -> Vec<PortId>| {
            let signals = |s: &str| completion(s).iter().map(|p| wires[p.index()]).collect();
            let names = spec.services().iter().map(|s| s.name());
            names.map(|s| (s.to_string(), signals(s))).unzip()
        };
        let (services, completion) = match &body {
            UnitBody::Fsm(rt) => from_spec(rt.spec(), &|s| rt.completion_signals(s)),
            UnitBody::Batched(link) => from_spec(link.spec(), &|s| link.completion_signals(s)),
            UnitBody::Native(n) => n
                .unit
                .services()
                .into_iter()
                .map(|d| (d.name, wires.clone()))
                .unzip(),
        };
        UnitEntry {
            name: name.to_string(),
            domain,
            wires,
            services,
            completion,
            cycle,
            body,
        }
    }

    /// The unit's activation gate: the wires whose events mean its
    /// bookkeeping must step, which double as its watch wires while
    /// parked. `None` when it has no clocked bookkeeping at all (an FSM
    /// unit without a controller).
    pub(crate) fn gate(&self) -> Option<Vec<SignalId>> {
        match &self.body {
            UnitBody::Fsm(rt) => rt.spec().controller().map(|_| self.wires.clone()),
            // Only the wires someone other than the link's own pump can
            // event (`PENDING`, raised by a producer's `put`). Watching
            // the full wire table would wake the parked link — and
            // re-arm its gate — once per self-driven beat/handshake
            // event for no behavioural gain.
            UnitBody::Batched(link) => Some(
                link.pump_wake_signals()
                    .iter()
                    .map(|p| self.wires[p.index()])
                    .collect(),
            ),
            UnitBody::Native(_) => Some(self.wires.clone()),
        }
    }

    /// Resolves a caller's spelling of a service against the unit's
    /// declared names ([`resolve_service`]) to its service index.
    pub(crate) fn resolve(&self, service: &str) -> Result<usize, EvalError> {
        resolve_service(self.services.iter().map(String::as_str), service).ok_or_else(|| {
            EvalError::Service(format!("unit {} has no service {service}", self.name))
        })
    }

    /// One activation of service `si` (an index from
    /// [`UnitEntry::resolve`]) on behalf of `caller`. Returns the
    /// outcome and whether the call was stable on the unit side
    /// ([`FsmUnitRuntime::last_call_stable`]).
    pub(crate) fn call(
        &mut self,
        caller: CallerId,
        si: usize,
        args: &[Value],
        ctx: &mut ProcCtx<'_>,
    ) -> Result<(ServiceOutcome, bool), EvalError> {
        let mut ws = CtxWires {
            ctx,
            map: &self.wires,
            cycle: self.cycle,
        };
        let (out, stable) = match &mut self.body {
            UnitBody::Fsm(rt) => (
                rt.call_index(caller, si, args, &mut ws)?,
                rt.last_call_stable(),
            ),
            UnitBody::Batched(link) => (
                link.call_index(caller, si, args, &mut ws)?,
                link.last_call_stable(),
            ),
            UnitBody::Native(n) => {
                let out = n
                    .unit
                    .call(caller, &self.services[si], args)
                    .map_err(|e| EvalError::Service(format!("native unit {}: {e}", self.name)))?;
                n.sync_occ(&mut ws);
                (out, n.unit.last_call_stable())
            }
        };
        Ok((out, stable))
    }

    /// One activation of the unit's bookkeeping at a rising clock edge:
    /// a controller step, a link pump or a native step. Returns whether
    /// the unit proved itself stable (parkable).
    pub(crate) fn step(
        &mut self,
        ctx: &mut ProcCtx<'_>,
        inputs_changed: bool,
    ) -> Result<bool, String> {
        let mut ws = CtxWires {
            ctx,
            map: &self.wires,
            cycle: self.cycle,
        };
        match &mut self.body {
            UnitBody::Fsm(rt) => {
                rt.step_controller_if_active(&mut ws, inputs_changed)
                    .map_err(|e| format!("unit {} controller: {e}", self.name))?;
                Ok(rt.controller_stable())
            }
            UnitBody::Batched(link) => link
                .pump(&mut ws, inputs_changed)
                .map(|active| !active)
                .map_err(|e| format!("batched link {}: {e}", self.name)),
            UnitBody::Native(n) => {
                n.unit.step();
                n.sync_occ(&mut ws);
                Ok(!n.unit.needs_step())
            }
        }
    }

    pub(crate) fn stats(&self) -> UnitStats {
        match &self.body {
            UnitBody::Fsm(rt) => rt.stats(),
            UnitBody::Batched(link) => link.stats(),
            UnitBody::Native(n) => n.unit.stats().clone(),
        }
    }

    pub(crate) fn capture(&self) -> UnitSnap {
        match &self.body {
            UnitBody::Fsm(rt) => UnitSnap::Fsm(rt.capture_state()),
            UnitBody::Batched(link) => UnitSnap::Batched(Box::new(link.capture_state())),
            UnitBody::Native(n) => UnitSnap::Native(n.unit.save_state(), n.occ_driven),
        }
    }

    /// Checks, without touching the unit, that `snap` fits it: the same
    /// kind of unit, with state inside its spec. A native unit validates
    /// its state bag only while loading it, so the check loads the bag
    /// into a fresh twin ([`NativeUnit::fork_fresh`]) when the unit can
    /// make one.
    pub(crate) fn check(&self, snap: &UnitSnap) -> Result<(), CosimError> {
        let fits = match (&self.body, snap) {
            (UnitBody::Fsm(rt), UnitSnap::Fsm(st)) => rt.check_state(st).map_err(|e| e.to_string()),
            (UnitBody::Batched(link), UnitSnap::Batched(st)) => {
                link.check_state(st).map_err(|e| e.to_string())
            }
            (UnitBody::Native(n), UnitSnap::Native(Some(st), _)) => match n.unit.fork_fresh() {
                Some(mut probe) => probe.load_state(st).map_err(|e| e.to_string()),
                None => Ok(()),
            },
            (UnitBody::Native(_), UnitSnap::Native(None, _)) => {
                Err("was captured without state (no save_state support)".to_string())
            }
            _ => Err("snapshot holds a different kind of unit here".to_string()),
        };
        fits.map_err(|e| CosimError::Setup(format!("unit {}: {e}", self.name)))
    }

    /// Restores a snapshot that passed [`UnitEntry::check`].
    pub(crate) fn restore(&mut self, snap: &UnitSnap) -> Result<(), CosimError> {
        let restored = match (&mut self.body, snap) {
            (UnitBody::Fsm(rt), UnitSnap::Fsm(st)) => rt.restore_state(st),
            (UnitBody::Batched(link), UnitSnap::Batched(st)) => link.restore_state(st),
            (UnitBody::Native(n), UnitSnap::Native(Some(st), occ_driven)) => {
                n.unit.load_state(st).map(|()| n.occ_driven = *occ_driven)
            }
            _ => return self.check(snap),
        };
        restored.map_err(|e| CosimError::Setup(format!("unit {}: {e}", self.name)))
    }

    /// A fresh, state-empty body for the same unit, for
    /// [`Cosim::fork`]: an FSM unit's spec, a batched link's
    /// configuration ([`BatchedLink::fork_fresh`]) or a native unit's
    /// twin ([`NativeUnit::fork_fresh`]).
    pub(crate) fn fresh_body(&self) -> Result<UnitBody, CosimError> {
        let name = &self.name;
        match &self.body {
            UnitBody::Fsm(rt) => Ok(UnitBody::Fsm(FsmUnitRuntime::new(Arc::clone(rt.spec())))),
            UnitBody::Batched(link) => Ok(UnitBody::Batched(Box::new(link.fork_fresh()))),
            UnitBody::Native(n) => n.unit.fork_fresh().map(UnitBody::native).ok_or_else(|| {
                CosimError::Setup(format!("native unit {name} does not support forking"))
            }),
        }
    }
}

/// One unit's captured state, in unit-table order inside a [`Snapshot`].
#[derive(Clone)]
pub(crate) enum UnitSnap {
    Fsm(FsmUnitState),
    Batched(Box<BatchedLinkState>),
    /// The native unit's state bag — `None` when it does not implement
    /// [`NativeUnit::save_state`], detected at restore/fork time so
    /// `snapshot()` itself stays infallible — and its `OCC` mirror.
    Native(Option<NativeUnitState>, i64),
}

/// Everything the backplane knows about one module instance. Owned by
/// the shared module table so both dispatch modes (the driver,
/// per-module processes) step modules through the same code.
pub(crate) struct ModuleEntry {
    /// Shared with the trace log's string table, which the module's
    /// entries name as their source.
    pub(crate) name: Arc<str>,
    pub(crate) module: Module,
    pub(crate) domain: DomainId,
    pub(crate) exec: FsmExec,
    pub(crate) ports: Vec<SignalId>,
    /// Whether the backplane created the port signals (else the caller
    /// supplied them, [`Cosim::add_module_with_ports`]).
    pub(crate) own_ports: bool,
    /// Units added before this module: the one ordering fact
    /// [`Cosim::fork`] needs to rebuild the interleaving.
    pub(crate) units_before: usize,
    pub(crate) vars: Vec<Value>,
    /// Per binding: the bound unit and the services the FSM calls on it.
    pub(crate) bindings: Vec<ModuleBinding>,
    pub(crate) caller: CallerId,
    pub(crate) status: ModuleStatus,
    pub(crate) trace_hints: TraceHints,
}

/// One module binding, resolved at install: the bound unit and every
/// service spelling the module's FSM calls through the binding.
pub(crate) struct ModuleBinding {
    pub(crate) unit: UnitId,
    /// `(spelling, service index)` per distinct `ServiceCall::service`
    /// string the FSM calls on this binding, found by pointer. `None`
    /// marks a spelling the unit does not declare: the module still
    /// installs, and the call fails when it runs.
    services: Vec<(Arc<str>, Option<usize>)>,
}

impl ModuleBinding {
    /// The bindings of a module whose binding `i` is bound to unit
    /// `bound[i]`: every service spelling `fsm` calls through a binding
    /// resolves against that unit's declared names.
    pub(crate) fn resolve_all(
        fsm: &Fsm,
        units: &[UnitEntry],
        bound: &[UnitId],
    ) -> Vec<ModuleBinding> {
        let mut bindings: Vec<ModuleBinding> = bound
            .iter()
            .map(|&unit| ModuleBinding {
                unit,
                services: vec![],
            })
            .collect();
        fsm.for_each_stmt(&mut |stmt| {
            stmt.for_each_call(&mut |call| {
                // A call through a binding the module lacks fails when
                // it runs ("no unit attached").
                let Some(b) = bindings.get_mut(call.binding.index()) else {
                    return;
                };
                if !b
                    .services
                    .iter()
                    .any(|(s, _)| Arc::ptr_eq(s, &call.service))
                {
                    let si = units[b.unit.0].resolve(&call.service).ok();
                    b.services.push((Arc::clone(&call.service), si));
                }
            });
        });
        bindings
    }

    /// The service index of `call` on the bound unit: the install-time
    /// resolution when the call is one of the FSM's own statements,
    /// else (or for an undeclared spelling) [`UnitEntry::resolve`].
    fn service_index(&self, unit: &UnitEntry, call: &ServiceCall) -> Result<usize, EvalError> {
        match self
            .services
            .iter()
            .find(|(s, _)| Arc::ptr_eq(s, &call.service))
        {
            Some(&(_, Some(si))) => Ok(si),
            _ => unit.resolve(&call.service),
        }
    }
}

/// A module's trace-log id hints ([`TraceLog::intern_hinted`]): the id
/// its name and each of its trace labels had at the last record (0
/// before the first). A hint the current log does not confirm (a first
/// record, a restored or replaced log) is simply re-interned, so any
/// hint is safe and records stay exact.
#[derive(Default)]
pub(crate) struct TraceHints {
    source: u32,
    labels: Vec<(Arc<str>, u32)>,
}

impl TraceHints {
    /// Records one entry of `source`, labelled `label`, into `log`. A
    /// label seen for the first time joins the hint table.
    fn record(
        &mut self,
        log: &mut TraceLog,
        at: u64,
        source: &Arc<str>,
        label: &Arc<str>,
        values: &[Value],
    ) {
        self.source = log.intern_hinted(source, self.source);
        let slot = match self.labels.iter().position(|(l, _)| Arc::ptr_eq(l, label)) {
            Some(slot) => slot,
            None => {
                self.labels.push((Arc::clone(label), 0));
                self.labels.len() - 1
            }
        };
        let hint = &mut self.labels[slot].1;
        *hint = log.intern_hinted(label, *hint);
        log.push(at, self.source, *hint, values);
    }
}

/// Bridges a unit's wire table onto kernel signals through the running
/// process context. Reads lend the committed signal values; a write
/// whose value the signal's type does not admit is refused with an
/// error ([`ProcCtx::admit`]) instead of panicking the run.
struct CtxWires<'a, 'b> {
    ctx: &'a mut ProcCtx<'b>,
    map: &'a [SignalId],
    /// One clock cycle of the owning unit's clock, the unit of
    /// [`WireStore::write_wire_after`] scheduling. With
    /// `Duration::ZERO` timed writes report unsupported, which keeps a
    /// mis-plumbed unit on the cycle-by-cycle fallback instead of
    /// silently collapsing a burst into one instant.
    cycle: Duration,
}

impl CtxWires<'_, '_> {
    fn signal(&self, w: PortId) -> Result<SignalId, EvalError> {
        self.map
            .get(w.index())
            .copied()
            .ok_or(EvalError::NoSuchPort(w))
    }
}

impl WireStore for CtxWires<'_, '_> {
    fn read_wire(&self, w: PortId) -> Option<&Value> {
        self.map.get(w.index()).map(|&sig| self.ctx.read(sig))
    }
    fn write_wire(&mut self, w: PortId, v: Value) -> Result<(), EvalError> {
        let a = self.ctx.admit(self.signal(w)?, v)?;
        self.ctx.drive_admitted(a, Duration::ZERO);
        Ok(())
    }
    fn write_wire_after(&mut self, w: PortId, v: Value, cycles: u64) -> Result<bool, EvalError> {
        if self.cycle == Duration::ZERO {
            return Ok(false);
        }
        let a = self.ctx.admit(self.signal(w)?, v)?;
        self.ctx.drive_admitted(a, self.cycle.times(cycles));
        Ok(true)
    }
    fn write_wire_train(
        &mut self,
        w: PortId,
        start_cycles: u64,
        stride_cycles: u64,
        values: &[Value],
    ) -> Result<bool, EvalError> {
        if self.cycle == Duration::ZERO {
            return Ok(false);
        }
        self.ctx.try_drive_train(
            self.signal(w)?,
            self.cycle.times(start_cycles),
            self.cycle.times(stride_cycles),
            values,
        )?;
        Ok(true)
    }
}

/// The trace records of one module activation, in order: each
/// record's label and payload length, the payloads packed back to
/// back. A module that echoes ([`Verdict::Echo`]) re-records them on
/// every due edge ([`echo_module`]).
#[derive(Clone, Default)]
pub(crate) struct TraceRecords {
    labels: Vec<(Arc<str>, usize)>,
    values: Vec<Value>,
}

impl TraceRecords {
    fn clear(&mut self) {
        self.labels.clear();
        self.values.clear();
    }

    fn push(&mut self, label: &Arc<str>, values: &[Value]) {
        self.labels.push((Arc::clone(label), values.len()));
        self.values.extend_from_slice(values);
    }

    fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &[Value])> + '_ {
        let mut rest = &self.values[..];
        self.labels.iter().map(move |(label, n)| {
            let (values, tail) = rest.split_at(*n);
            rest = tail;
            (label, values)
        })
    }
}

/// Reusable arena for module activations through [`step_module`]: the
/// [`StepEffects`](cosma_core::StepEffects) arena, the pooled watch
/// list and the activation's trace records. Each module-stepping
/// process owns one, so a warm activation allocates nothing for its
/// bookkeeping.
#[derive(Default)]
pub(crate) struct ModuleScratch {
    /// Step-effects arena handed to
    /// [`FsmExec::step_with`](cosma_core::FsmExec::step_with);
    /// recycled at the start of every activation.
    effects: cosma_core::StepEffects,
    /// Pooled completion-wire watch list lent to the activation's
    /// [`CosimEnv`]; returned cleared unless the module parks or
    /// echoes (the rare case, where the buffer leaves as the member's
    /// watch set).
    watch: Vec<SignalId>,
    /// The last activation's trace records, cleared at the start of
    /// every activation. A driver member that starts to echo swaps this
    /// buffer with its own.
    pub(crate) records: TraceRecords,
}

impl ModuleScratch {
    /// Installs a verdict's watch set in `slot`, handing the displaced
    /// buffer back to the pool when it is the larger one, so the next
    /// watch set builds in recycled capacity.
    pub(crate) fn install_watch(&mut self, slot: &mut Vec<SignalId>, watch: Vec<SignalId>) {
        let mut displaced = std::mem::replace(slot, watch);
        if self.watch.capacity() < displaced.capacity() {
            displaced.clear();
            self.watch = displaced;
        }
    }

    /// Returns a watch buffer the caller does not keep to the pool.
    pub(crate) fn return_watch(&mut self, mut watch: Vec<SignalId>) {
        watch.clear();
        self.watch = watch;
    }
}

/// The execution environment a module activation sees: ports are kernel
/// signals, variables are module-local, service calls go to the unit
/// table. Alongside execution it accumulates the *stability evidence*
/// the scheduler needs for its park verdict.
struct CosimEnv<'a, 'b> {
    ctx: &'a mut ProcCtx<'b>,
    ports: &'a [SignalId],
    vars: &'a mut [Value],
    var_decls: &'a [Variable],
    units: &'a RefCell<Vec<UnitEntry>>,
    bindings: &'a [ModuleBinding],
    caller: CallerId,
    trace: &'a RefCell<TraceLog>,
    trace_hints: &'a mut TraceHints,
    source: &'a Arc<str>,
    /// This activation's trace records, kept for a possible echo.
    records: &'a mut TraceRecords,
    /// Effective changes this activation: variable writes that changed
    /// a value, port drives whose stored (clamped) value differs from
    /// the signal's current value, trace records. Zero means the
    /// activation was (conservatively) a no-op; as many as `records`
    /// holds means it was one apart from its trace records.
    changes: u32,
    /// Whether every service call this activation was stable on the
    /// unit side ([`FsmUnitRuntime::last_call_stable`]) with wires that
    /// can end it: re-made with unchanged completion wires, each would
    /// repeat its outcome and leave its unit as it is.
    calls_stable: bool,
    /// Completion wires of the stable calls (what to watch if parked or
    /// echoing).
    call_watch: Vec<SignalId>,
}

impl CosimEnv<'_, '_> {
    /// Post-call bookkeeping for the park verdict: a stable call's
    /// completion wires join the watch set. A pending call needs some
    /// (with none, nothing could wake its parked caller); a completed
    /// one may have none, as its outcome is then constant. Any other
    /// call keeps the caller awake.
    fn note_outcome(&mut self, done: bool, stable: bool, completion: &[SignalId]) {
        if stable && (done || !completion.is_empty()) {
            self.call_watch.extend_from_slice(completion);
        } else {
            self.calls_stable = false;
        }
    }
}

impl ReadEnv for CosimEnv<'_, '_> {
    fn read_var(&self, v: VarId) -> Option<&Value> {
        self.vars.get(v.index())
    }
    fn read_port(&self, p: PortId) -> Option<&Value> {
        self.ports.get(p.index()).map(|&sig| self.ctx.read(sig))
    }
}

impl Env for CosimEnv<'_, '_> {
    fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
        let ty = self.var_decls.get(v.index()).map(Variable::ty);
        let ty = ty.ok_or(EvalError::NoSuchVar(v))?;
        let slot = self
            .vars
            .get_mut(v.index())
            .ok_or(EvalError::NoSuchVar(v))?;
        let value = ty.clamp(value);
        if *slot != value {
            self.changes += 1;
            *slot = value;
        }
        Ok(())
    }
    fn drive_port(&mut self, p: PortId, value: Value) -> Result<(), EvalError> {
        let &sig = self.ports.get(p.index()).ok_or(EvalError::NoSuchPort(p))?;
        // Compare the value the signal will store, not the drive: an
        // out-of-width constant stores clamped and then changes nothing.
        let a = self.ctx.admit(sig, value)?;
        if self.ctx.read(sig) != a.value() {
            self.changes += 1;
        }
        self.ctx.drive_admitted(a, Duration::ZERO);
        Ok(())
    }
    fn call_service(
        &mut self,
        call: &ServiceCall,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        let Some(binding) = self.bindings.get(call.binding.index()) else {
            return Err(EvalError::Service(format!(
                "module {} has no unit attached to binding {}",
                self.source, call.binding
            )));
        };
        let units = self.units;
        let mut units = units.borrow_mut();
        let entry = &mut units[binding.unit.0];
        let si = binding.service_index(entry, call)?;
        let (out, stable) = entry.call(self.caller, si, args, self.ctx)?;
        self.note_outcome(out.done, stable, &entry.completion[si]);
        Ok(out)
    }
    fn trace(&mut self, label: &Arc<str>, values: &[Value]) {
        self.changes += 1;
        self.records.push(label, values);
        let at = self.ctx.now().as_fs();
        let log = &mut self.trace.borrow_mut();
        self.trace_hints.record(log, at, self.source, label, values);
    }
}

/// What one module activation tells its scheduler.
pub(crate) enum Verdict {
    /// Step the module again at its next due edge.
    Stay,
    /// The activation was a provable fixed point: park the module until
    /// one of these wires events (none: nothing can ever re-arm it).
    Park(Vec<SignalId>),
    /// The activation was a fixed point apart from its trace records,
    /// which [`ModuleScratch::records`] holds: until one of these wires
    /// events, every due edge may append the same records instead of
    /// stepping the module ([`echo_module`]).
    Echo(Vec<SignalId>),
}

/// One module activation through the shared module table, with service
/// calls applied to their units at once, and the scheduler's
/// [`Verdict`] on it.
///
/// The execution environment is drawn from the caller's pooled
/// [`ModuleScratch`], recycled (capacity kept) across activations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_module(
    modules: &RefCell<Vec<ModuleEntry>>,
    idx: usize,
    units: &RefCell<Vec<UnitEntry>>,
    trace: &RefCell<TraceLog>,
    park: &ParkCounters,
    park_blocked: bool,
    ctx: &mut ProcCtx<'_>,
    scratch: &mut ModuleScratch,
) -> Result<Verdict, String> {
    let mut modules = modules.borrow_mut();
    let ModuleEntry {
        name,
        module,
        exec,
        ports,
        vars,
        bindings,
        caller,
        status,
        trace_hints,
        ..
    } = &mut modules[idx];
    let fsm = module.fsm();
    scratch.effects.recycle();
    scratch.records.clear();
    let mut env = CosimEnv {
        ctx,
        ports,
        vars,
        var_decls: module.vars(),
        units,
        bindings,
        caller: *caller,
        trace,
        trace_hints,
        source: name,
        records: &mut scratch.records,
        changes: 0,
        calls_stable: true,
        call_watch: std::mem::take(&mut scratch.watch),
    };
    match exec.step_with(fsm, &mut env, &mut scratch.effects) {
        Ok(meta) => {
            let changes = env.changes;
            let calls_stable = env.calls_stable;
            let mut watch = env.call_watch;
            if meta.from != meta.to {
                // The state name only changes on a real transition —
                // skip the per-activation render for self-loops, and
                // reuse the status String's buffer when it does.
                status.state.clear();
                status.state.push_str(fsm.state(exec.current()).name());
            }
            status.activations += 1;
            park.modules_stepped.set(park.modules_stepped.get() + 1);
            // The activation is a fixed point when it kept its state
            // (self-loops included) and every service call was stable:
            // pending as a unit-side no-op with completion wires to
            // wait on, or completed from a fresh session without
            // writing a wire (a pure read). Re-running it with
            // unchanged ports and wires is then guaranteed to repeat it
            // identically, trace records included (they read only
            // variables and ports). With no effective change at all the
            // module parks until one of its ports or completion wires
            // events; with trace records its only changes it echoes
            // them until then.
            let fixed = park_blocked && meta.from == meta.to && calls_stable;
            let records = scratch.records.labels.len();
            if fixed && changes as usize == records {
                watch.extend_from_slice(ports);
                watch.sort_unstable();
                watch.dedup();
                Ok(if records == 0 {
                    Verdict::Park(watch)
                } else {
                    Verdict::Echo(watch)
                })
            } else {
                scratch.return_watch(watch);
                Ok(Verdict::Stay)
            }
        }
        Err(e) => {
            let watch = env.call_watch;
            scratch.return_watch(watch);
            // Record the halting state and the error on the module
            // itself, not just in the backplane's global error slot.
            let msg = format!("module {name}: {e}");
            status.state.clear();
            status.state.push_str(fsm.state(exec.current()).name());
            status.error = Some(msg.clone());
            Err(msg)
        }
    }
}

/// One echoed activation of module `idx` ([`Verdict::Echo`]): appends
/// `records`, the trace records of the activation that armed the echo,
/// at the current time through the module's trace hints, and counts
/// the activation — with no FSM step and no unit call.
pub(crate) fn echo_module(
    modules: &RefCell<Vec<ModuleEntry>>,
    idx: usize,
    trace: &RefCell<TraceLog>,
    park: &ParkCounters,
    ctx: &ProcCtx<'_>,
    records: &TraceRecords,
) {
    let mut modules = modules.borrow_mut();
    let ModuleEntry {
        name,
        status,
        trace_hints,
        ..
    } = &mut modules[idx];
    let at = ctx.now().as_fs();
    let log = &mut trace.borrow_mut();
    for (label, values) in records.iter() {
        trace_hints.record(log, at, name, label, values);
    }
    status.activations += 1;
    park.modules_stepped.set(park.modules_stepped.get() + 1);
}
