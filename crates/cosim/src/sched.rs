//! The activation scheduler: how unit bookkeeping and module
//! activations are dispatched on the kernel ([`SchedulingConfig`]) —
//! one driver process stepping every due unit and module in creation
//! order, with one watcher process per member re-arming it while it is
//! parked, in production; one process per unit and per module in the
//! `legacy()` oracle — plus the demand-gated activation clocks, which
//! the kernel owns and runs.

use crate::backplane::UnitId;
use crate::trace::TraceLog;
use crate::units::{
    echo_module, step_module, ModuleEntry, ModuleScratch, TraceRecords, UnitEntry, Verdict,
};
use cosma_core::Value;
use cosma_sim::{ClockControl, Duration, Edge, FnProcess, ProcCtx, SignalId, Simulator, Wait};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// How unit bookkeeping (controller steps, native steps, batched-link
/// pumping) and module activations are dispatched on the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// One driver process steps, at every rising clock edge, each
    /// unparked unit and module whose clock rose, in creation order —
    /// the order the oracle's processes run in — so service calls and
    /// unit steps reach every unit in the oracle's order. Each member
    /// has a watcher process that re-arms it when one of its watch
    /// wires events while it is parked; a parked member costs nothing
    /// per clock edge.
    ///
    /// Only the driver *echoes* ([`SchedulingConfig::park_blocked`]):
    /// a blocked module whose activations only repeat their trace
    /// records appends those records on each edge without stepping its
    /// FSM or calling its units. Traces, module statuses and activation
    /// counts stay identical to [`Dispatch::PerProcess`]; unit call
    /// counts do not, since the echoed no-op calls are never made.
    Driver,
    /// One clocked kernel process per unit and one process per module,
    /// each stepped on every rising edge of its clock: the oracle.
    /// Units never park; a module parks (its process swaps its clock
    /// sensitivity for its watch wires) unless parking is disabled.
    PerProcess,
}

/// The activation scheduler's configuration: how units and modules are
/// dispatched and whether provably-stable FSMs are parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulingConfig {
    /// Unit and module dispatch.
    pub dispatch: Dispatch,
    /// Whether to park provably-stable modules (default `true`). A
    /// module activation that changed nothing — same state, no
    /// effective variable writes or port drives, every service call
    /// *stable* on the unit side — would repeat identically every
    /// cycle; with parking on, the module instead sleeps until an event
    /// on its ports or on the called services' completion wires.
    ///
    /// A call is stable under one contract
    /// ([`FsmUnitRuntime::last_call_stable`](cosma_comm::FsmUnitRuntime::last_call_stable),
    /// [`NativeUnit::last_call_stable`](cosma_comm::NativeUnit::last_call_stable)):
    /// re-made with the same arguments and unchanged completion wires,
    /// it repeats its outcome and leaves its unit as it is. A pending
    /// call qualifies when it was a no-op; a completed one when it ran
    /// from a fresh protocol session and wrote no wire — a pure read,
    /// such as a module polling `shared_reg_unit`'s `read` the way the
    /// motor's Core polls `ReadSampledData`. (Under [`Dispatch::Driver`]
    /// a provably-idle unit parks on its gating wires either way.)
    ///
    /// Parking is invisible to signal traces, trace logs, final states
    /// and `ModuleStatus.activations` *across dispatch modes* (the
    /// driver and the per-module processes park identically). It does
    /// suppress the no-op activations themselves, so activation counts
    /// differ from a `park_blocked: false` run while a module is
    /// parked, and so do unit call and completion counts
    /// ([`UnitStats`](cosma_comm::UnitStats)): the repeated calls are
    /// never made.
    ///
    /// The same switch turns on *echoing*, which only
    /// [`Dispatch::Driver`] does. A blocked module that records trace
    /// entries never parks: each activation is a fixed point apart from
    /// its records. The driver then appends that activation's records
    /// (same labels and values, at the current time) and counts an
    /// activation on each due edge, with no FSM step and no unit call,
    /// until one of the module's watch wires events. Traces, statuses
    /// and activation counts stay identical across dispatch modes;
    /// unit call counts ([`UnitStats`](cosma_comm::UnitStats)) do not.
    pub park_blocked: bool,
}

impl Default for SchedulingConfig {
    fn default() -> Self {
        SchedulingConfig::sharded()
    }
}

impl SchedulingConfig {
    /// The production configuration (the default): the driver, parking
    /// enabled.
    #[must_use]
    pub fn sharded() -> Self {
        SchedulingConfig {
            dispatch: Dispatch::Driver,
            park_blocked: true,
        }
    }

    /// The scheduling oracle: one process per unit and per module,
    /// stepped on every clock edge, no parking. Tests compare the
    /// production path against it.
    #[must_use]
    pub fn legacy() -> Self {
        SchedulingConfig {
            dispatch: Dispatch::PerProcess,
            park_blocked: false,
        }
    }
}

/// Aggregate statistics of the activation scheduler.
///
/// Driver counters are zero under [`Dispatch::PerProcess`]; the
/// park/resume counters cover both modes (per-module processes park
/// too, by swapping their clock sensitivity for their watch wires).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Driver-process activations.
    pub shard_runs: u64,
    /// Unit-member step executions (controller steps, native steps,
    /// pumps).
    pub units_stepped: u64,
    /// Member steps (units and modules) avoided because the member was
    /// parked: at each driver run, the parked members whose clock rose.
    pub units_skipped: u64,
    /// Parked driver members (units and modules) re-armed by a
    /// watch-wire event.
    pub wire_wakeups: u64,
    /// Watch wires probed by the member watchers: a watcher probes its
    /// own member's watch set when the member parks and on each wake
    /// while it is parked, so the cost of a park or resume does not
    /// grow with the number of parked members.
    pub watch_probes: u64,
    /// Module activations through the scheduler (both modes), echoed
    /// ones included: the activations every
    /// [`ModuleStatus`](crate::ModuleStatus) counts.
    pub modules_stepped: u64,
    /// Module activations the driver echoed: trace records appended
    /// without an FSM step or unit call, because the module's last full
    /// activation was a fixed point apart from them
    /// ([`SchedulingConfig::park_blocked`]). Zero under
    /// [`Dispatch::PerProcess`].
    pub modules_echoed: u64,
    /// Park transitions: members (modules or units) removed from their
    /// scheduler's active set after proving themselves stable.
    pub members_parked: u64,
    /// Resume transitions: parked members re-armed by a watch-wire
    /// event.
    pub members_resumed: u64,
    /// Members currently parked (driver members and per-module
    /// processes).
    pub parked_now: usize,
}

/// Park/resume accounting shared by every scheduler path.
#[derive(Debug, Default, Clone)]
pub(crate) struct ParkCounters {
    pub(crate) parked: Cell<u64>,
    pub(crate) resumed: Cell<u64>,
    pub(crate) parked_now: Cell<usize>,
    pub(crate) modules_stepped: Cell<u64>,
}

/// Clock-edge demand: how many clocked bodies (module activations, unit
/// controllers, native steps) currently need clock edges. Parked and
/// halted bodies count zero, so a *fully parked* backplane stops its
/// activation clocks entirely — simulated time stops advancing and
/// [`Cosim::run_to_quiescence`] can return early on deadlocked or
/// finished systems. A parked body that is re-armed by a wire event
/// bumps the demand back up and *kicks* the clocks awake through the
/// `CLK_KICK` signal. The counter is shared with the kernel, which
/// reads it at each of the domain's clock edges
/// ([`Simulator::add_gated_clock`]).
#[derive(Debug)]
pub(crate) struct ClockDemand {
    pub(crate) demand: Rc<Cell<i64>>,
    pub(crate) kick: SignalId,
}

impl ClockDemand {
    /// A new unparked clocked body exists. If the clocks had gone
    /// idle (everything previously registered is parked or halted —
    /// possible when bodies are added after a run reached quiescence),
    /// kick them awake so the new body actually sees clock edges.
    pub(crate) fn register(&self, sim: &mut Simulator) {
        if self.demand.get() <= 0 {
            let next = match sim.value(self.kick) {
                Value::Bit(cosma_core::Bit::One) => cosma_core::Bit::Zero,
                _ => cosma_core::Bit::One,
            };
            sim.poke(self.kick, Value::Bit(next));
        }
        self.demand.set(self.demand.get() + 1);
    }

    /// A body parked (or halted): it needs no clock edges until
    /// re-armed.
    pub(crate) fn park(&self) {
        self.demand.set(self.demand.get() - 1);
    }

    /// A parked body was re-armed; restart the clocks if they had gone
    /// idle. The kick is an ordinary signal toggle: clocks idling on it
    /// wake through the sensitivity index.
    fn resume(&self, ctx: &mut ProcCtx<'_>) {
        if self.demand.get() <= 0 {
            toggle(ctx, self.kick);
        }
        self.demand.set(self.demand.get() + 1);
    }
}

/// The single owner of unit and module stepping: the driver and its
/// member watchers, or the oracle's processes, plus park accounting.
/// Modules and units — the same FSM semantics in the paper's model —
/// share one activation-gating architecture.
pub(crate) struct ActivationScheduler {
    pub(crate) cfg: SchedulingConfig,
    /// The driver ([`Dispatch::Driver`]): one kernel process stepping
    /// every unit and module, registered with the first of either.
    pub(crate) driver: Option<Rc<RefCell<DriverState>>>,
    /// Per-process state of the per-module processes
    /// ([`Dispatch::PerProcess`]), in module order. Shared with the
    /// process closures so snapshot/restore can reach it.
    pub(crate) per_module: Vec<Rc<RefCell<PerModuleProcState>>>,
    /// Per-unit `seen_events` gates of the per-unit processes
    /// ([`Dispatch::PerProcess`]), in unit-registration order. Shared
    /// with the clocked closures so snapshot/restore can reach them.
    pub(crate) per_unit_seen: Vec<Rc<RefCell<Vec<u64>>>>,
    pub(crate) park: Rc<ParkCounters>,
}

/// The mutable scheduling state of one per-module process, kept
/// behind an `Rc` rather than as captured closure locals so
/// whole-backplane snapshots can capture and restore it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PerModuleProcState {
    /// Whether the process currently holds a clock-demand unit (true
    /// while unparked and not halted).
    counted: bool,
    parked: bool,
    watch: Vec<SignalId>,
    wait_dirty: bool,
}

/// What a driver member steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    /// A unit's bookkeeping: a controller step, a link pump or a native
    /// step.
    Unit(UnitId),
    /// A module's activation, by module index.
    Module(usize),
}

/// One member of the driver: a unit or a module, its activation clock,
/// the wires that re-arm it while parked, and the signal that hands a
/// new watch set to its watcher process.
#[derive(Clone)]
struct DriverMember {
    body: Body,
    /// Index of the member's activation clock in the driver's clock
    /// list.
    clock: u32,
    /// A unit's gating wires (fixed; their events mean it must step,
    /// and re-arm it while parked), or a module's watch set, computed
    /// at park time: its ports plus the blocked services' completion
    /// wires. Empty means a parked member can never be re-armed (a
    /// provably-halted module, a native unit without an occupancy
    /// mirror).
    watch: Vec<SignalId>,
    /// A unit's last observed event counts of `watch` (empty for a
    /// module).
    seen: Vec<u64>,
    /// Whether the member is parked: off the active list, waiting for
    /// its watcher to re-arm it.
    parked: bool,
    /// The clock-demand ledger of the member's domain: parking the
    /// member surrenders one unit of demand on that domain's
    /// generators, and re-arming it takes the unit back.
    demand: Rc<ClockDemand>,
    /// Whether the module member echoes: it stays on the active list,
    /// and each due edge appends `records` instead of stepping it,
    /// until its watcher sees a `watch` event.
    echo: bool,
    /// The trace records an echoing member appends per due edge.
    records: TraceRecords,
    /// Toggled by the driver when it parks the member or arms its echo,
    /// so the watcher wakes and waits on the new watch set. The watcher
    /// derives its wait from `parked` and `echo` alone, so a forked
    /// backplane's fresh watcher resumes mid-stream without an
    /// elaboration latch of its own.
    poke: SignalId,
}

/// Shared state of the driver and its watchers. A snapshot keeps a
/// clone; restore copies back only the fields that change as it runs
/// ([`DriverState::restore_from`]).
#[derive(Clone, Default)]
pub(crate) struct DriverState {
    /// Every unit and module, in creation order.
    members: Vec<DriverMember>,
    /// Indices of unparked members, ascending: the creation order the
    /// driver steps them in.
    active: Vec<u32>,
    /// Parked members per activation clock (indexed like the driver's
    /// clock list), so a run counts the steps parking avoided without
    /// visiting parked members.
    parked_on: Vec<u64>,
    /// Whether the driver surrendered its members' clock demand after a
    /// backplane error (kept here so snapshot/restore can carry it).
    halted: bool,
    runs: u64,
    units_stepped: u64,
    units_skipped: u64,
    wire_wakeups: u64,
    watch_probes: u64,
    modules_echoed: u64,
}

impl DriverState {
    /// Surrenders the clock demand of every unparked member after a
    /// backplane error (once).
    fn halt(&mut self) {
        if !self.halted {
            self.halted = true;
            for m in self.members.iter().filter(|m| !m.parked) {
                m.demand.park();
            }
        }
    }

    /// Why a captured driver does not fit this one, if it does not:
    /// every member must step the same unit or module on the same clock
    /// with the same poke signal.
    pub(crate) fn check(&self, snap: &DriverState) -> Result<(), String> {
        if self.members.len() != snap.members.len() {
            return Err(format!(
                "snapshot has {} driver members, backplane has {}",
                snap.members.len(),
                self.members.len()
            ));
        }
        let same = |(m, s): (&DriverMember, &DriverMember)| {
            (m.body, m.clock, m.poke, m.seen.len()) == (s.body, s.clock, s.poke, s.seen.len())
        };
        match self
            .members
            .iter()
            .zip(&snap.members)
            .position(|p| !same(p))
        {
            Some(i) => Err(format!("driver member {i} differs from snapshot")),
            None => Ok(()),
        }
    }

    /// Copies a captured driver's running state — watch sets,
    /// event-count gates, the active/parked split, echo flags and
    /// records, counters — onto this one, keeping its members' clocks,
    /// pokes and demand ledgers.
    pub(crate) fn restore_from(&mut self, snap: &DriverState) {
        for (m, sm) in self.members.iter_mut().zip(&snap.members) {
            m.watch.clone_from(&sm.watch);
            m.seen.clone_from(&sm.seen);
            m.parked = sm.parked;
            m.echo = sm.echo;
            m.records.clone_from(&sm.records);
        }
        self.active.clone_from(&snap.active);
        self.parked_on.clone_from(&snap.parked_on);
        self.halted = snap.halted;
        self.runs = snap.runs;
        self.units_stepped = snap.units_stepped;
        self.units_skipped = snap.units_skipped;
        self.wire_wakeups = snap.wire_wakeups;
        self.watch_probes = snap.watch_probes;
        self.modules_echoed = snap.modules_echoed;
    }
}

/// The backplane resources a scheduler registration needs.
pub(crate) struct SchedCtx<'a> {
    pub(crate) sim: &'a mut Simulator,
    pub(crate) units: &'a Rc<RefCell<Vec<UnitEntry>>>,
    pub(crate) modules: &'a Rc<RefCell<Vec<ModuleEntry>>>,
    pub(crate) error: &'a Rc<RefCell<Option<String>>>,
    pub(crate) trace: &'a Rc<RefCell<TraceLog>>,
    /// The target clock domain's demand ledger.
    pub(crate) demand: &'a Rc<ClockDemand>,
    /// The target domain's hardware activation clock.
    pub(crate) hw_clk: SignalId,
    /// Every domain's activation clocks, in domain order — the driver's
    /// clock sensitivity.
    pub(crate) clocks: &'a [SignalId],
}

/// Toggles a bit signal, waking every process sensitive to it.
fn toggle(ctx: &mut ProcCtx<'_>, sig: SignalId) {
    let next = match ctx.read(sig) {
        Value::Bit(cosma_core::Bit::One) => cosma_core::Bit::Zero,
        _ => cosma_core::Bit::One,
    };
    ctx.drive(sig, Value::Bit(next));
}

impl ActivationScheduler {
    pub(crate) fn new(cfg: SchedulingConfig) -> Self {
        ActivationScheduler {
            cfg,
            driver: None,
            per_module: vec![],
            per_unit_seen: vec![],
            park: Rc::new(ParkCounters::default()),
        }
    }

    /// Hands a unit's clocked bookkeeping to the scheduler: a driver
    /// member stepping on the domain's HW clock, or under
    /// [`Dispatch::PerProcess`] a clocked process of its own. `gate` is
    /// the unit's activation gate ([`UnitEntry::gate`]).
    pub(crate) fn add_unit(
        &mut self,
        ctx: SchedCtx<'_>,
        unit: UnitId,
        name: &str,
        gate: Vec<SignalId>,
    ) {
        match self.cfg.dispatch {
            Dispatch::Driver => {
                let clk = ctx.hw_clk;
                self.add_driver_member(ctx, name, Body::Unit(unit), clk, gate);
            }
            Dispatch::PerProcess => self.add_unit_process(ctx, unit, name, gate),
        }
    }

    /// The oracle's clocked process for one unit, of any kind: the
    /// unit's step on every rising edge of the domain's HW clock, gated
    /// only by the unit's own wire-event check. A backplane error halts
    /// it and surrenders its clock demand.
    fn add_unit_process(
        &mut self,
        ctx: SchedCtx<'_>,
        unit: UnitId,
        name: &str,
        gate: Vec<SignalId>,
    ) {
        let units = Rc::clone(ctx.units);
        let error = Rc::clone(ctx.error);
        let demand = Rc::clone(ctx.demand);
        // The kernel's monotone per-signal event counts tell the unit
        // whether any gate wire changed since its last activation. The
        // gate state is shared with the scheduler so snapshots can
        // capture and restore it.
        let seen = Rc::new(RefCell::new(vec![0u64; gate.len()]));
        self.per_unit_seen.push(Rc::clone(&seen));
        demand.register(ctx.sim);
        ctx.sim.add_clocked(
            format!("{name}.step"),
            ctx.hw_clk,
            Edge::Rising,
            move |pctx| {
                if error.borrow().is_none() {
                    let changed = wires_changed(pctx, &gate, &mut seen.borrow_mut());
                    match units.borrow_mut()[unit.0].step(pctx, changed) {
                        Ok(_) => return ClockControl::Continue,
                        Err(msg) => *error.borrow_mut() = Some(msg),
                    }
                }
                demand.park();
                ClockControl::Halt
            },
        );
    }

    /// Hands a module's activations to the scheduler: a driver member,
    /// or under [`Dispatch::PerProcess`] a kernel process of its own.
    pub(crate) fn add_module(&mut self, ctx: SchedCtx<'_>, idx: usize, clk: SignalId) {
        match self.cfg.dispatch {
            Dispatch::Driver => {
                let name = ctx.modules.borrow()[idx].name.to_string();
                self.add_driver_member(ctx, &name, Body::Module(idx), clk, vec![]);
            }
            Dispatch::PerProcess => self.add_module_process(ctx, idx, clk),
        }
    }

    /// Registers the one-process-per-module path. The process
    /// steps its module on every rising clock edge; when the module
    /// proves stable it *parks* — swapping its clock sensitivity for
    /// the module's watch wires — unless parking is disabled.
    fn add_module_process(&mut self, ctx: SchedCtx<'_>, idx: usize, clk: SignalId) {
        let modules = Rc::clone(ctx.modules);
        let units = Rc::clone(ctx.units);
        let error = Rc::clone(ctx.error);
        let trace = Rc::clone(ctx.trace);
        let demand = Rc::clone(ctx.demand);
        let park = Rc::clone(&self.park);
        let park_blocked = self.cfg.park_blocked;
        let name = modules.borrow()[idx].name.to_string();
        demand.register(ctx.sim);
        // The scheduling state lives behind an Rc shared with the
        // activation scheduler, so whole-backplane snapshots can
        // capture and restore it.
        let pstate = Rc::new(RefCell::new(PerModuleProcState {
            counted: true,
            parked: false,
            watch: vec![],
            wait_dirty: true,
        }));
        self.per_module.push(Rc::clone(&pstate));
        // Pooled execution env for this module's activations: pure
        // scratch, owned by the process closure so it never enters a
        // snapshot.
        let mut scratch = ModuleScratch::default();
        ctx.sim.add_process(
            name,
            FnProcess::new(move |ctx| {
                let mut ps = pstate.borrow_mut();
                let ps = &mut *ps;
                if error.borrow().is_some() {
                    if ps.counted {
                        ps.counted = false;
                        demand.park();
                    }
                    return Wait::Forever;
                }
                if ps.parked {
                    if ps.watch.iter().any(|&w| ctx.event(w)) {
                        ps.parked = false;
                        ps.wait_dirty = true;
                        park.resumed.set(park.resumed.get() + 1);
                        park.parked_now.set(park.parked_now.get() - 1);
                        demand.resume(ctx);
                        ps.counted = true;
                    } else if !ps.wait_dirty {
                        return Wait::Same;
                    }
                }
                if !ps.parked && ctx.rose(clk) {
                    match step_module(
                        &modules,
                        idx,
                        &units,
                        &trace,
                        &park,
                        park_blocked,
                        ctx,
                        &mut scratch,
                    ) {
                        Ok(Verdict::Park(w)) => {
                            ps.parked = true;
                            scratch.install_watch(&mut ps.watch, w);
                            ps.wait_dirty = true;
                            park.parked.set(park.parked.get() + 1);
                            park.parked_now.set(park.parked_now.get() + 1);
                            demand.park();
                            ps.counted = false;
                        }
                        // The oracle never echoes: an echo verdict
                        // steps the module again at its next edge.
                        Ok(Verdict::Echo(w)) => scratch.return_watch(w),
                        Ok(Verdict::Stay) => {}
                        Err(msg) => {
                            *error.borrow_mut() = Some(msg);
                            if ps.counted {
                                ps.counted = false;
                                demand.park();
                            }
                            return Wait::Forever;
                        }
                    }
                }
                if !ps.wait_dirty {
                    return Wait::Same;
                }
                ps.wait_dirty = false;
                if ps.parked {
                    if ps.watch.is_empty() {
                        // A provably-halted module: nothing can ever
                        // re-arm it.
                        Wait::Forever
                    } else {
                        let mut sens = ctx.wait_buf();
                        sens.extend_from_slice(&ps.watch);
                        Wait::Event(sens)
                    }
                } else {
                    let mut sens = ctx.wait_buf();
                    sens.push(clk);
                    Wait::Event(sens)
                }
            }),
        );
    }

    /// Adds a unit or module to the driver, with a watcher process of
    /// its own. The driver's kernel process is registered with the
    /// first member. `watch` is a unit's gate (empty for a module).
    fn add_driver_member(
        &mut self,
        mut ctx: SchedCtx<'_>,
        name: &str,
        body: Body,
        clk: SignalId,
        watch: Vec<SignalId>,
    ) {
        ctx.demand.register(ctx.sim);
        let driver = match &self.driver {
            Some(d) => Rc::clone(d),
            None => {
                let state = Rc::new(RefCell::new(DriverState {
                    parked_on: vec![0; ctx.clocks.len()],
                    ..DriverState::default()
                }));
                Self::register_driver(
                    &mut ctx,
                    Rc::clone(&state),
                    Rc::clone(&self.park),
                    self.cfg.park_blocked,
                );
                self.driver = Some(Rc::clone(&state));
                state
            }
        };
        let clock = ctx
            .clocks
            .iter()
            .position(|&c| c == clk)
            .expect("every activation clock is one of the domains' clocks");
        let seen = match body {
            Body::Unit(_) => vec![0; watch.len()],
            Body::Module(_) => vec![],
        };
        let poke = ctx.sim.add_bit(format!("{name}.POKE"));
        let idx = {
            let mut st = driver.borrow_mut();
            let idx = st.members.len();
            st.members.push(DriverMember {
                body,
                clock: clock as u32,
                watch,
                seen,
                parked: false,
                echo: false,
                records: TraceRecords::default(),
                demand: Rc::clone(ctx.demand),
                poke,
            });
            st.active.push(idx as u32);
            idx
        };
        Self::register_watcher(&mut ctx, name, driver, idx, Rc::clone(&self.park));
    }

    /// Registers a member's watcher: a kernel process owning the
    /// member's wakeups while it is parked or echoing. Otherwise the
    /// watcher waits on the member's poke signal, which the driver
    /// toggles when it parks the member or arms its echo; while the
    /// member is parked or echoing it waits on the member's watch wires
    /// (forever when there are none). A watch-wire event — also one in
    /// the poke's own delta — returns a parked member to the driver's
    /// active list in creation order, and ends an echo, so the member's
    /// next due edge steps it.
    fn register_watcher(
        ctx: &mut SchedCtx<'_>,
        name: &str,
        state: Rc<RefCell<DriverState>>,
        idx: usize,
        park: Rc<ParkCounters>,
    ) {
        let error = Rc::clone(ctx.error);
        ctx.sim.add_process(
            format!("{name}.watch"),
            FnProcess::new(move |pctx| {
                if error.borrow().is_some() {
                    return Wait::Forever;
                }
                let mut st = state.borrow_mut();
                let DriverState {
                    members,
                    active,
                    parked_on,
                    wire_wakeups,
                    watch_probes,
                    ..
                } = &mut *st;
                let m = &mut members[idx];
                if m.parked || m.echo {
                    *watch_probes += m.watch.len() as u64;
                    if !m.watch.iter().any(|&w| pctx.event(w)) {
                        if m.watch.is_empty() {
                            // Nothing can ever re-arm the member or end
                            // its echo.
                            return Wait::Forever;
                        }
                        let mut sens = pctx.wait_buf();
                        sens.extend_from_slice(&m.watch);
                        return Wait::Event(sens);
                    }
                    if m.parked {
                        m.parked = false;
                        let pos = active.partition_point(|&a| (a as usize) < idx);
                        active.insert(pos, idx as u32);
                        parked_on[m.clock as usize] -= 1;
                        *wire_wakeups += 1;
                        park.resumed.set(park.resumed.get() + 1);
                        park.parked_now.set(park.parked_now.get() - 1);
                        m.demand.resume(pctx);
                    }
                    m.echo = false;
                }
                let mut sens = pctx.wait_buf();
                sens.push(m.poke);
                Wait::Event(sens)
            }),
        );
    }

    /// Registers the driver: the kernel process that, on each rising
    /// activation-clock edge, steps the active members whose clock rose
    /// in creation order — the order the oracle's processes run in, so
    /// unit steps and service calls act on every unit exactly as they
    /// do there — and parks the ones that prove stable.
    ///
    /// The driver's sensitivity is pinned to the activation clocks;
    /// parked-member wakeups belong to the member watchers
    /// ([`ActivationScheduler::register_watcher`]). When every clocked
    /// body is parked the clock generators themselves stop
    /// ([`ClockDemand`]), so a fully-parked backplane still costs
    /// nothing.
    fn register_driver(
        ctx: &mut SchedCtx<'_>,
        state: Rc<RefCell<DriverState>>,
        park: Rc<ParkCounters>,
        park_blocked: bool,
    ) {
        let units = Rc::clone(ctx.units);
        let modules = Rc::clone(ctx.modules);
        let error = Rc::clone(ctx.error);
        let trace = Rc::clone(ctx.trace);
        // Every domain's activation clocks, and which of them rose this
        // run: each member steps only on a rising edge of its own.
        let clocks = ctx.clocks.to_vec();
        let mut rose = vec![false; clocks.len()];
        let mut registered = false;
        // Pooled execution env: pure scratch, owned by the process
        // closure so it never enters a snapshot.
        let mut scratch = ModuleScratch::default();
        ctx.sim.add_process(
            "driver",
            FnProcess::new(move |pctx| {
                let wait = if registered {
                    Wait::Same
                } else {
                    registered = true;
                    // Members only ever step on a *rising* edge of their
                    // clock, so falling edges need not wake the driver
                    // at all — half the wake traffic gone.
                    Wait::Rising(clocks.clone())
                };
                let mut st = state.borrow_mut();
                let st = &mut *st;
                if error.borrow().is_some() {
                    st.halt();
                    return Wait::Forever;
                }
                st.runs += 1;
                for ((r, &clk), &parked) in rose.iter_mut().zip(&clocks).zip(&st.parked_on) {
                    *r = pctx.rose(clk);
                    if *r {
                        st.units_skipped += parked;
                    }
                }
                let DriverState {
                    members,
                    active,
                    parked_on,
                    units_stepped,
                    modules_echoed,
                    ..
                } = &mut *st;
                let mut fault = None;
                // One pass in creation order: step each due member and
                // drop the ones that park from the active list.
                active.retain(|&ai| {
                    let m = &mut members[ai as usize];
                    if fault.is_some() || !rose[m.clock as usize] {
                        return true;
                    }
                    let stable = match m.body {
                        Body::Unit(u) => {
                            *units_stepped += 1;
                            let changed = wires_changed(pctx, &m.watch, &mut m.seen);
                            units.borrow_mut()[u.0].step(pctx, changed)
                        }
                        Body::Module(mi) if m.echo => {
                            echo_module(&modules, mi, &trace, &park, pctx, &m.records);
                            *modules_echoed += 1;
                            return true;
                        }
                        Body::Module(mi) => {
                            let verdict = step_module(
                                &modules,
                                mi,
                                &units,
                                &trace,
                                &park,
                                park_blocked,
                                pctx,
                                &mut scratch,
                            );
                            match verdict {
                                Ok(Verdict::Stay) => Ok(false),
                                Ok(Verdict::Park(watch)) => {
                                    scratch.install_watch(&mut m.watch, watch);
                                    Ok(true)
                                }
                                Ok(Verdict::Echo(watch)) => {
                                    scratch.install_watch(&mut m.watch, watch);
                                    std::mem::swap(&mut m.records, &mut scratch.records);
                                    m.echo = true;
                                    // Hand the watch set to the member's
                                    // watcher (event next delta).
                                    toggle(pctx, m.poke);
                                    Ok(false)
                                }
                                Err(msg) => Err(msg),
                            }
                        }
                    };
                    match stable {
                        Ok(false) => true,
                        Ok(true) => {
                            m.parked = true;
                            m.demand.park();
                            parked_on[m.clock as usize] += 1;
                            park.parked.set(park.parked.get() + 1);
                            park.parked_now.set(park.parked_now.get() + 1);
                            // Hand the new watch set to the member's
                            // watcher (event next delta).
                            toggle(pctx, m.poke);
                            false
                        }
                        Err(msg) => {
                            fault = Some(msg);
                            true
                        }
                    }
                });
                if let Some(msg) = fault {
                    *error.borrow_mut() = Some(msg);
                    st.halt();
                    return Wait::Forever;
                }
                wait
            }),
        );
    }

    /// Aggregate statistics of the driver and the shared park counters.
    pub(crate) fn stats(&self) -> ShardStats {
        let mut s = ShardStats {
            modules_stepped: self.park.modules_stepped.get(),
            members_parked: self.park.parked.get(),
            members_resumed: self.park.resumed.get(),
            parked_now: self.park.parked_now.get(),
            ..ShardStats::default()
        };
        if let Some(driver) = &self.driver {
            let st = driver.borrow();
            s.shard_runs = st.runs;
            s.units_stepped = st.units_stepped;
            s.units_skipped = st.units_skipped;
            s.wire_wakeups = st.wire_wakeups;
            s.watch_probes = st.watch_probes;
            s.modules_echoed = st.modules_echoed;
        }
        s
    }
}

/// Installs one clock domain's demand-gated activation clocks:
/// `hw_clkgen` for the HW clock and, when the SW clock is a signal of
/// its own, `sw_clkgen` for it. A SW clock that *is* the HW clock
/// (equal periods) gets no clock of its own, so a clock period costs
/// one clock run per edge. Each is a kernel-owned clock
/// ([`Simulator::add_gated_clock`]) that idles while no clocked body of
/// its domain demands edges (all halted or all parked) and is re-armed
/// through the domain's kick signal when a parked body resumes.
///
/// An edge still lands one delta after its clock wakes, as the drive of
/// a process would, because the clock keeps its process slot: a
/// pre-scheduled timed-drive train would make clock events visible in
/// delta 0 of their instant, merging same-instant clock/completion
/// interactions that the scheduler variants resolve through different
/// wake paths — which breaks their delta-level equivalence.
pub(crate) fn install_clock_generators(
    sim: &mut Simulator,
    prefix: &str,
    hw: (SignalId, Duration),
    sw: (SignalId, Duration),
    demand: &ClockDemand,
) {
    let sw = (sw.0 != hw.0).then_some(("sw_clkgen", sw.0, sw.1));
    for (name, clk, period) in std::iter::once(("hw_clkgen", hw.0, hw.1)).chain(sw) {
        sim.add_gated_clock(
            format!("{prefix}{name}"),
            clk,
            period,
            Rc::clone(&demand.demand),
            demand.kick,
        );
    }
}

/// Diffs a wire set's monotone kernel event counts against the last
/// observation (updating it in place); `true` when any wire changed
/// since the previous call. This is the unit activation gate shared by
/// the per-unit clocked processes and the driver.
fn wires_changed(ctx: &ProcCtx<'_>, watched: &[SignalId], seen: &mut [u64]) -> bool {
    let mut changed = false;
    for (sig, last) in watched.iter().zip(seen.iter_mut()) {
        let n = ctx.event_count(*sig);
        changed |= n != *last;
        *last = n;
    }
    changed
}
