//! The activation scheduler: how module activations and unit
//! bookkeeping are dispatched on the kernel ([`SchedulingConfig`]) —
//! hashed shards with parking in production, one process per unit and
//! per module in the `legacy()` oracle — plus the demand-gated
//! activation clock generators.

use crate::backplane::{CosimError, UnitId};
use crate::trace::TraceLog;
use crate::units::{step_module, ModuleEntry, ModuleScratch, UnitEntry};
use cosma_core::Value;
use cosma_sim::{ClockControl, Duration, Edge, FnProcess, ProcCtx, SignalId, Simulator, Wait};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// How communication-unit bookkeeping (controller steps, native steps,
/// batched-link pumping) is scheduled on the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitScheduling {
    /// One clocked kernel process per unit, activated on every HW clock
    /// edge. The oracle path — per edge it costs one process wakeup per
    /// unit even when every unit is provably idle.
    PerUnit,
    /// Units grouped into shards by **hashed id** (so creation-order
    /// runs of hot units do not pile into one shard); each shard is one
    /// kernel process with an active/parked member split. Provably
    /// stable members are parked out of the active set and re-armed
    /// through the kernel's inverted sensitivity index when one of
    /// their wires events, so idle units cost nothing per clock edge —
    /// even inside a shard kept awake by a hot member.
    Sharded {
        /// Target units per shard (shards are opened so the *average*
        /// fill is `shard_size`; hashed placement makes individual
        /// shards vary around it).
        shard_size: usize,
    },
}

impl Default for UnitScheduling {
    fn default() -> Self {
        UnitScheduling::Sharded {
            shard_size: DEFAULT_SHARD_SIZE,
        }
    }
}

/// How module activations are scheduled on the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleScheduling {
    /// One kernel process per module, activated on every rising edge of
    /// its kind's activation clock. The oracle path.
    /// (Parking still applies unless disabled: a blocked module's
    /// process swaps its clock sensitivity for its watch wires.)
    PerModule,
    /// Modules placed into shards by **hashed id**, all stepped by one
    /// driver process. Each cycle the driver steps the active members
    /// whose clock rose in module-id order — the per-module path's
    /// order — so service calls act on their units at once, exactly as
    /// there. A per-shard watcher process owns the wakeups of the
    /// shard's parked members, which cost nothing until a watch wire
    /// events.
    Sharded {
        /// Target modules per shard (shards are opened so the *average*
        /// fill is `shard_size`).
        shard_size: usize,
    },
}

impl Default for ModuleScheduling {
    fn default() -> Self {
        ModuleScheduling::Sharded {
            shard_size: DEFAULT_SHARD_SIZE,
        }
    }
}

/// The activation scheduler's configuration: how units and modules are
/// dispatched and whether provably-stable FSMs are parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulingConfig {
    /// Unit dispatch (controller steps, native steps, batched pumping).
    pub units: UnitScheduling,
    /// Module dispatch (FSM activations).
    pub modules: ModuleScheduling,
    /// Whether to park provably-stable FSMs (default `true`). A module
    /// activation that changed nothing — same state, no effective
    /// variable writes or port drives, every service call pending *and*
    /// a provable no-op on the unit side — would repeat identically
    /// every cycle; with parking on, the module instead sleeps until an
    /// event on its ports or on the blocked services' completion wires.
    ///
    /// Parking is invisible to signal traces, trace logs, final states
    /// and `ModuleStatus.activations` *across scheduler paths* (sharded
    /// and per-module park identically). It does suppress the no-op
    /// activations themselves, so activation counts differ from a
    /// `park_blocked: false` run while a module is blocked.
    pub park_blocked: bool,
}

impl Default for SchedulingConfig {
    fn default() -> Self {
        SchedulingConfig::sharded()
    }
}

impl SchedulingConfig {
    /// The production configuration (the default): sharded units, one
    /// module driver over hashed module shards, parking enabled.
    #[must_use]
    pub fn sharded() -> Self {
        SchedulingConfig {
            units: UnitScheduling::default(),
            modules: ModuleScheduling::default(),
            park_blocked: true,
        }
    }

    /// The scheduling oracle: one process per unit and per module,
    /// stepped on every clock edge, no parking. Tests compare the
    /// production path against it.
    #[must_use]
    pub fn legacy() -> Self {
        SchedulingConfig {
            units: UnitScheduling::PerUnit,
            modules: ModuleScheduling::PerModule,
            park_blocked: false,
        }
    }

    /// Setup-time validation of the configuration's internal
    /// consistency.
    pub(crate) fn validate(&self) -> Result<(), CosimError> {
        if matches!(self.units, UnitScheduling::Sharded { shard_size: 0 })
            || matches!(self.modules, ModuleScheduling::Sharded { shard_size: 0 })
        {
            return Err(CosimError::Setup("shard size must be nonzero".to_string()));
        }
        Ok(())
    }
}

/// Default members per shard.
pub const DEFAULT_SHARD_SIZE: usize = 16;

/// Aggregate statistics of the activation scheduler.
///
/// Shard counters are zero under the per-unit/per-module paths; the
/// park/resume counters cover *both* paths (per-module processes park
/// too, by swapping their clock sensitivity for their watch wires).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards (unit shards + module shards).
    pub shards: usize,
    /// Shards currently dormant (no active member, no clock
    /// sensitivity).
    pub dormant_shards: usize,
    /// Total shard-process activations.
    pub shard_runs: u64,
    /// Unit-member step executions (controller steps, native steps,
    /// pumps).
    pub units_stepped: u64,
    /// Member steps avoided at a clock edge because the member was
    /// parked.
    pub units_skipped: u64,
    /// Dormant-shard wakeups caused by a member watch-wire event.
    pub wire_wakeups: u64,
    /// Watch-wire event probes spent re-arming parked members on shard
    /// wakeups — the cost of the parked rescan loop.
    pub watch_probes: u64,
    /// Module activations executed through the scheduler (both paths).
    pub modules_stepped: u64,
    /// Park transitions: members (modules or units) removed from their
    /// scheduler's active set after proving themselves stable.
    pub members_parked: u64,
    /// Resume transitions: parked members re-armed by a watch-wire
    /// event.
    pub members_resumed: u64,
    /// Members currently parked (across shards and per-module
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
/// activation clock generators entirely — simulated time stops
/// advancing and [`Cosim::run_to_quiescence`] can return early on
/// deadlocked or finished systems. A parked body that is re-armed by a
/// wire event bumps the demand back up and *kicks* the generators awake
/// through the `CLK_KICK` signal.
#[derive(Debug)]
pub(crate) struct ClockDemand {
    pub(crate) demand: Cell<i64>,
    pub(crate) kick: SignalId,
}

impl ClockDemand {
    /// A new unparked clocked body exists. If the generators had gone
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

    /// `n` bodies parked (or halted): they need no clock edges until
    /// re-armed.
    pub(crate) fn park(&self, n: usize) {
        self.demand.set(self.demand.get() - n as i64);
    }

    /// `n` parked bodies were re-armed; restart the clock generators if
    /// they had gone idle. The kick is an ordinary signal toggle:
    /// generators parked on it wake through the sensitivity index.
    fn resume(&self, n: usize, ctx: &mut ProcCtx<'_>) {
        if n == 0 {
            return;
        }
        if self.demand.get() <= 0 {
            toggle(ctx, self.kick);
        }
        self.demand.set(self.demand.get() + n as i64);
    }
}

/// One member of a unit shard: the unit's bookkeeping body (controller
/// steps, native steps, batched pumping), its activation clock and its
/// gating wires.
#[derive(Clone)]
pub(crate) struct ShardMember {
    unit: UnitId,
    /// The rising edge this member activates on.
    clk: SignalId,
    /// The unit's gating wires, whose monotone event counts decide
    /// whether inputs changed. They double as the member's watch wires:
    /// events on them re-arm it while parked.
    wires: Vec<SignalId>,
    /// Last observed event counts for `wires`.
    seen_events: Vec<u64>,
}

/// Shared state of one unit shard process. A snapshot keeps a clone;
/// restore copies back only the fields that change as it runs
/// ([`ShardState::restore_from`]).
#[derive(Clone, Default)]
pub(crate) struct ShardState {
    pub(crate) members: Vec<ShardMember>,
    /// Indices of members stepped at clock edges, ascending.
    active: Vec<u32>,
    /// Indices of parked members, re-armed by watch-wire events.
    parked: Vec<u32>,
    /// Whether the kernel sensitivity must be recomputed on the next
    /// run (membership changed).
    wait_dirty: bool,
    /// Whether this shard's process already surrendered its members'
    /// clock demand after a backplane error. Lives here (not in the
    /// process closure) so snapshot/restore can carry it.
    halted: bool,
    runs: u64,
    units_stepped: u64,
    units_skipped: u64,
    wire_wakeups: u64,
    watch_probes: u64,
}

impl ShardState {
    fn push_member(&mut self, m: ShardMember) {
        let idx = self.members.len() as u32;
        self.members.push(m);
        self.active.push(idx);
        self.wait_dirty = true;
    }

    /// Surrenders the clock demand of every unparked member after a
    /// backplane error (once).
    fn halt(&mut self, demand: &ClockDemand) {
        if !self.halted {
            self.halted = true;
            demand.park(self.members.len() - self.parked.len());
        }
    }

    /// Copies a captured shard's running state — event-count gates,
    /// active/parked split, counters — onto this one, keeping the
    /// member bodies.
    pub(crate) fn restore_from(&mut self, snap: &ShardState) {
        for (m, sm) in self.members.iter_mut().zip(&snap.members) {
            m.seen_events.clone_from(&sm.seen_events);
        }
        self.active.clone_from(&snap.active);
        self.parked.clone_from(&snap.parked);
        self.wait_dirty = snap.wait_dirty;
        self.halted = snap.halted;
        self.runs = snap.runs;
        self.units_stepped = snap.units_stepped;
        self.units_skipped = snap.units_skipped;
        self.wire_wakeups = snap.wire_wakeups;
        self.watch_probes = snap.watch_probes;
    }
}

/// splitmix64: the hash spreading unit and module ids over shards.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The single owner of module and unit stepping: shard pools, hashed
/// placement, park accounting. Unified here so modules and units — the
/// same FSM semantics in the paper's model — share one
/// activation-gating architecture.
pub(crate) struct ActivationScheduler {
    pub(crate) cfg: SchedulingConfig,
    /// Per-domain unit shard pool: shards never mix clock domains, so
    /// hashed placement runs inside the member's domain pool. Entry `d`
    /// indexes [`ActivationScheduler::unit_shards`] for domain `d`.
    unit_pools: Vec<PoolState>,
    /// Per-domain module shard pool of the driver. Entry `d` holds
    /// indices into [`DriverState::shards`].
    driver_pools: Vec<PoolState>,
    pub(crate) unit_shards: Vec<Rc<RefCell<ShardState>>>,
    /// The module driver ([`ModuleScheduling::Sharded`]): one kernel
    /// process stepping every module shard, registered with the first
    /// module.
    pub(crate) driver: Option<Rc<RefCell<DriverState>>>,
    /// Per-process state of the one-process-per-module path
    /// ([`ModuleScheduling::PerModule`]), in module order. Shared with
    /// the process closures so snapshot/restore can reach it.
    pub(crate) per_module: Vec<Rc<RefCell<PerModuleProcState>>>,
    /// Per-unit `seen_events` gates of the
    /// [`UnitScheduling::PerUnit`] path, in unit-registration order.
    /// Shared with the clocked closures so snapshot/restore can reach
    /// them.
    pub(crate) per_unit_seen: Vec<Rc<RefCell<Vec<u64>>>>,
    pub(crate) park: Rc<ParkCounters>,
}

/// One clock domain's shard pool: how many members were ever placed in
/// it (drives hashed shard assignment *within* the pool) and which
/// global shards belong to it.
#[derive(Debug, Default)]
struct PoolState {
    members: usize,
    shards: Vec<usize>,
}

impl PoolState {
    /// Hashes the next member over the shards allowed so far (one more
    /// per `shard_size` members). Returns the pool-local shard index, or
    /// `None` when the hash lands past the open shards and the caller
    /// must open the next one — so shard count still tracks
    /// `members / shard_size` while creation-order runs are scattered.
    fn place(&mut self, shard_size: usize) -> Option<usize> {
        let k = self.members;
        self.members += 1;
        let allowed = k / shard_size + 1;
        let hashed = (splitmix64(k as u64) % allowed as u64) as usize;
        (hashed < self.shards.len()).then_some(hashed)
    }
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

/// One member of the module driver: a module, its activation clock,
/// and the wires that re-arm it while parked.
#[derive(Clone)]
pub(crate) struct DriverMember {
    pub(crate) module: usize,
    clk: SignalId,
    /// Computed at park time: the module's ports plus the blocked
    /// services' completion wires. Empty means the member can never be
    /// re-armed (a provably-halted module).
    pub(crate) watch: Vec<SignalId>,
}

/// One module shard of the driver: an active/parked member split,
/// stepped by the shared driver process.
///
/// Parked-member wakeups are owned by a per-shard *watcher* kernel
/// process whose sensitivity covers only this shard's watch wires —
/// keeping sensitivity churn local to the shard (the driver itself
/// stays pinned to the activation clocks).
#[derive(Clone)]
pub(crate) struct DriverShard {
    pub(crate) members: Vec<DriverMember>,
    pub(crate) active: Vec<u32>,
    pub(crate) parked: Vec<u32>,
    /// The clock-demand ledger of this shard's domain (shards never mix
    /// domains, so parking a member surrenders demand on exactly one
    /// domain's generators).
    demand: Rc<ClockDemand>,
    /// Toggled by the driver when it parks members of this shard, so
    /// the watcher re-arms on the new watch set.
    poke: SignalId,
    /// Whether the watcher must recompute its sensitivity.
    pub(crate) watch_dirty: bool,
    /// Whether the shard's watcher process performed its first
    /// (elaboration) run and armed itself on the poke signal. Lives
    /// here — not in the watcher's closure — so a forked backplane's
    /// fresh watcher resumes mid-stream instead of re-running its
    /// elaboration arm (which would clobber the restored watch
    /// sensitivity).
    pub(crate) watcher_armed: bool,
}

/// Shared state of the module driver process. A snapshot keeps a
/// clone; restore copies back only the fields that change as it runs.
#[derive(Clone, Default)]
pub(crate) struct DriverState {
    pub(crate) shards: Vec<DriverShard>,
    /// Whether the driver surrendered its members' clock demand after a
    /// backplane error (kept here so snapshot/restore can carry it).
    pub(crate) halted: bool,
    pub(crate) runs: u64,
    pub(crate) skipped: u64,
    pub(crate) wire_wakeups: u64,
    /// Pooled per-cycle scratch: the stepping set and the park list,
    /// taken at the start of each driver run and handed back (capacity
    /// kept) at the end.
    items: Vec<(usize, usize, u32)>,
    to_park: Vec<(usize, u32, Vec<SignalId>)>,
}

impl DriverState {
    /// Surrenders the clock demand of every unparked member after a
    /// backplane error (once).
    fn halt(&mut self) {
        if !self.halted {
            self.halted = true;
            for s in &self.shards {
                s.demand.park(s.members.len() - s.parked.len());
            }
        }
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
    /// Index of the target domain (selects the per-domain shard pools).
    pub(crate) domain: usize,
    /// Every domain's activation clocks, in domain order — the module
    /// driver's clock sensitivity.
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
            unit_pools: vec![PoolState::default()],
            driver_pools: vec![PoolState::default()],
            unit_shards: vec![],
            driver: None,
            per_module: vec![],
            per_unit_seen: vec![],
            park: Rc::new(ParkCounters::default()),
        }
    }

    /// Opens the shard pools of a freshly created clock domain
    /// ([`Cosim::add_clock_domain`]).
    pub(crate) fn add_domain_pool(&mut self) {
        self.unit_pools.push(PoolState::default());
        self.driver_pools.push(PoolState::default());
    }

    /// Hands a unit's clocked bookkeeping to the scheduler: a hashed
    /// shard member, or under [`UnitScheduling::PerUnit`] a clocked
    /// process of its own. `gate` is the unit's activation gate
    /// ([`UnitEntry::gate`]).
    pub(crate) fn add_unit(
        &mut self,
        ctx: SchedCtx<'_>,
        unit: UnitId,
        name: &str,
        gate: Vec<SignalId>,
    ) {
        match self.cfg.units {
            UnitScheduling::Sharded { shard_size } => {
                self.add_unit_member(ctx, unit, gate, shard_size.max(1));
            }
            UnitScheduling::PerUnit => self.add_unit_process(ctx, unit, name, gate),
        }
    }

    /// The oracle's clocked process for one unit, of any kind: the shard
    /// member's step on every rising edge of the domain's HW clock,
    /// gated only by the unit's own wire-event check. A backplane error
    /// halts it and surrenders its clock demand.
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
                demand.park(1);
                ClockControl::Halt
            },
        );
    }

    /// Places a unit member into a shard chosen by hashing its id over
    /// its clock domain's pool ([`PoolState::place`]). Shards never mix
    /// domains, so every member of a shard shares one activation clock
    /// and one [`ClockDemand`] ledger.
    fn add_unit_member(
        &mut self,
        ctx: SchedCtx<'_>,
        unit: UnitId,
        wires: Vec<SignalId>,
        shard_size: usize,
    ) {
        let domain = ctx.domain;
        let placed = self.unit_pools[domain].place(shard_size);
        let clk = ctx.hw_clk;
        ctx.demand.register(ctx.sim);
        let target = match placed {
            Some(local) => self.unit_pools[domain].shards[local],
            None => {
                let state = Rc::new(RefCell::new(ShardState {
                    wait_dirty: true,
                    ..ShardState::default()
                }));
                let label = format!("unit_shard{}", self.unit_shards.len());
                Self::register_shard_process(ctx, Rc::clone(&state), Rc::clone(&self.park), label);
                self.unit_shards.push(state);
                let global = self.unit_shards.len() - 1;
                self.unit_pools[domain].shards.push(global);
                global
            }
        };
        self.unit_shards[target]
            .borrow_mut()
            .push_member(ShardMember {
                unit,
                clk,
                seen_events: vec![0; wires.len()],
                wires,
            });
    }

    /// Hands a module's activations to the scheduler: a member of the
    /// module driver, or under [`ModuleScheduling::PerModule`] a kernel
    /// process of its own.
    pub(crate) fn add_module(&mut self, ctx: SchedCtx<'_>, idx: usize, clk: SignalId) {
        match self.cfg.modules {
            ModuleScheduling::Sharded { shard_size } => {
                self.add_driver_member(ctx, idx, clk, shard_size.max(1));
            }
            ModuleScheduling::PerModule => self.add_module_process(ctx, idx, clk),
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
                        demand.park(1);
                    }
                    return Wait::Forever;
                }
                if ps.parked {
                    if ps.watch.iter().any(|&w| ctx.event(w)) {
                        ps.parked = false;
                        ps.wait_dirty = true;
                        park.resumed.set(park.resumed.get() + 1);
                        park.parked_now.set(park.parked_now.get() - 1);
                        demand.resume(1, ctx);
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
                        Ok(Some(w)) => {
                            ps.parked = true;
                            // Hand the displaced buffer back to the
                            // scratch pool so the next park's watch
                            // list builds in recycled capacity.
                            let mut displaced = std::mem::replace(&mut ps.watch, w);
                            if scratch.watch.capacity() < displaced.capacity() {
                                displaced.clear();
                                scratch.watch = displaced;
                            }
                            ps.wait_dirty = true;
                            park.parked.set(park.parked.get() + 1);
                            park.parked_now.set(park.parked_now.get() + 1);
                            demand.park(1);
                            ps.counted = false;
                        }
                        Ok(None) => {}
                        Err(msg) => {
                            *error.borrow_mut() = Some(msg);
                            if ps.counted {
                                ps.counted = false;
                                demand.park(1);
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

    /// Places a module into the driver: hashed placement spreads module
    /// ids over the domain's open shards exactly like unit placement
    /// (the driver steps in module-id order whatever the placement). The
    /// driver's single kernel process is registered with the first
    /// module.
    fn add_driver_member(
        &mut self,
        mut ctx: SchedCtx<'_>,
        idx: usize,
        clk: SignalId,
        shard_size: usize,
    ) {
        ctx.demand.register(ctx.sim);
        let driver = match &self.driver {
            Some(d) => Rc::clone(d),
            None => {
                let state = Rc::new(RefCell::new(DriverState::default()));
                Self::register_driver_process(
                    &mut ctx,
                    Rc::clone(&state),
                    Rc::clone(&self.park),
                    self.cfg.park_blocked,
                );
                self.driver = Some(Rc::clone(&state));
                state
            }
        };
        let domain = ctx.domain;
        let target = match self.driver_pools[domain].place(shard_size) {
            Some(local) => self.driver_pools[domain].shards[local],
            None => {
                let open = driver.borrow().shards.len();
                let poke = ctx.sim.add_bit(format!("MODULE_SHARD{open}_POKE"));
                Self::register_driver_watcher(
                    &mut ctx,
                    Rc::clone(&driver),
                    open,
                    Rc::clone(&self.park),
                );
                driver.borrow_mut().shards.push(DriverShard {
                    members: vec![],
                    active: vec![],
                    parked: vec![],
                    demand: Rc::clone(ctx.demand),
                    poke,
                    watch_dirty: false,
                    watcher_armed: false,
                });
                self.driver_pools[domain].shards.push(open);
                open
            }
        };
        let mut st = driver.borrow_mut();
        let shard = &mut st.shards[target];
        let mi = shard.members.len() as u32;
        shard.members.push(DriverMember {
            module: idx,
            clk,
            watch: vec![],
        });
        shard.active.push(mi);
    }

    /// Registers the per-shard watcher: a kernel process owning the
    /// shard's parked-member wakeups. Its sensitivity is the shard's
    /// parked watch wires plus the shard's poke signal (toggled by the
    /// driver after parking members), so sensitivity churn stays local
    /// to the shard — the driver itself never re-registers sensitivity.
    fn register_driver_watcher(
        ctx: &mut SchedCtx<'_>,
        state: Rc<RefCell<DriverState>>,
        shard_idx: usize,
        park: Rc<ParkCounters>,
    ) {
        let error = Rc::clone(ctx.error);
        let demand = Rc::clone(ctx.demand);
        ctx.sim.add_process(
            format!("module_shard{shard_idx}_watch"),
            FnProcess::new(move |pctx| {
                if error.borrow().is_some() {
                    return Wait::Forever;
                }
                let mut st = state.borrow_mut();
                let st = &mut *st;
                let Some(shard) = st.shards.get_mut(shard_idx) else {
                    return Wait::Same;
                };
                if !shard.watcher_armed {
                    // First (elaboration) run: arm on the poke signal so
                    // the first park can hand over its watch set.
                    shard.watcher_armed = true;
                    shard.watch_dirty = false;
                    return Wait::Event(vec![shard.poke]);
                }
                let was_dormant = shard.active.is_empty();
                let mut resumed = 0usize;
                let mut i = 0;
                while i < shard.parked.len() {
                    let mi = shard.parked[i] as usize;
                    if shard.members[mi].watch.iter().any(|&w| pctx.event(w)) {
                        let idx = shard.parked.swap_remove(i);
                        let pos = shard.active.partition_point(|&a| a < idx);
                        shard.active.insert(pos, idx);
                        park.resumed.set(park.resumed.get() + 1);
                        park.parked_now.set(park.parked_now.get() - 1);
                        shard.watch_dirty = true;
                        resumed += 1;
                    } else {
                        i += 1;
                    }
                }
                if resumed > 0 {
                    demand.resume(resumed, pctx);
                    if was_dormant {
                        st.wire_wakeups += 1;
                    }
                }
                if !shard.watch_dirty {
                    return Wait::Same;
                }
                shard.watch_dirty = false;
                let mut sens = pctx.wait_buf();
                sens.push(shard.poke);
                for &pi in &shard.parked {
                    sens.extend_from_slice(&shard.members[pi as usize].watch);
                }
                sens.sort_unstable();
                sens.dedup();
                Wait::Event(sens)
            }),
        );
    }

    /// Registers the kernel process that owns every module shard. On
    /// each rising activation-clock edge it collects the active members
    /// whose clock rose and steps them in module-id order — the order
    /// of the per-module path, so service calls act on their units
    /// exactly as they do there, whatever the shard placement.
    ///
    /// The driver's sensitivity is pinned to the activation clocks;
    /// parked-member wakeups belong to the per-shard watcher processes
    /// ([`ActivationScheduler::register_driver_watcher`]). When every
    /// clocked body is parked the clock generators themselves stop
    /// ([`ClockDemand`]), so a fully-parked backplane still costs
    /// nothing.
    fn register_driver_process(
        ctx: &mut SchedCtx<'_>,
        state: Rc<RefCell<DriverState>>,
        park: Rc<ParkCounters>,
        park_blocked: bool,
    ) {
        let units = Rc::clone(ctx.units);
        let modules = Rc::clone(ctx.modules);
        let error = Rc::clone(ctx.error);
        let trace = Rc::clone(ctx.trace);
        // Every domain's activation clocks: the driver owns module
        // shards of all domains, and each member still steps only on
        // rising edges of its own domain's clock.
        let clocks = ctx.clocks.to_vec();
        let mut registered = false;
        // Pooled execution env: pure scratch, owned by the process
        // closure so it never enters a snapshot.
        let mut scratch = ModuleScratch::default();
        ctx.sim.add_process(
            "module_driver",
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
                // Collect this cycle's stepping set into the pooled
                // buffer (capacity kept across runs).
                let mut items = std::mem::take(&mut st.items);
                items.clear();
                let mut parked_skipped = 0u64;
                for (si, shard) in st.shards.iter().enumerate() {
                    let mut edge_seen = false;
                    for &ai in &shard.active {
                        let m = &shard.members[ai as usize];
                        if pctx.rose(m.clk) {
                            edge_seen = true;
                            items.push((m.module, si, ai));
                        }
                    }
                    if edge_seen {
                        parked_skipped += shard.parked.len() as u64;
                    }
                }
                st.skipped += parked_skipped;
                if !items.is_empty() {
                    let mut to_park = std::mem::take(&mut st.to_park);
                    to_park.clear();
                    items.sort_unstable_by_key(|&(mi, _, _)| mi);
                    for &(mi, si, ai) in &items {
                        match step_module(
                            &modules,
                            mi,
                            &units,
                            &trace,
                            &park,
                            park_blocked,
                            pctx,
                            &mut scratch,
                        ) {
                            Ok(Some(watch)) => to_park.push((si, ai, watch)),
                            Ok(None) => {}
                            Err(msg) => {
                                *error.borrow_mut() = Some(msg);
                                st.halt();
                                return Wait::Forever;
                            }
                        }
                    }
                    park.parked.set(park.parked.get() + to_park.len() as u64);
                    park.parked_now.set(park.parked_now.get() + to_park.len());
                    for (si, ai, watch) in to_park.drain(..) {
                        let shard = &mut st.shards[si];
                        shard.demand.park(1);
                        let member = &mut shard.members[ai as usize];
                        // Hand the displaced buffer back to the scratch
                        // so the next park's watch list builds in
                        // recycled capacity.
                        let mut displaced = std::mem::replace(&mut member.watch, watch);
                        if scratch.watch.capacity() < displaced.capacity() {
                            displaced.clear();
                            scratch.watch = displaced;
                        }
                        shard.active.retain(|&a| a != ai);
                        shard.parked.push(ai);
                        // Hand the new watch set to the shard's watcher
                        // process (event next delta).
                        if !shard.watch_dirty {
                            shard.watch_dirty = true;
                            toggle(pctx, shard.poke);
                        }
                    }
                    st.to_park = to_park;
                }
                st.items = items;
                wait
            }),
        );
    }

    /// Registers the kernel process driving one unit shard. Each run it
    /// re-arms parked members whose wires evented, steps active members
    /// on their clock's rising edges (parking the ones that prove
    /// stable), and re-declares its sensitivity only when membership
    /// changed: the active members' clocks plus the parked members'
    /// wires — no clocks at all once everyone is parked, which is what
    /// makes a dormant shard free.
    fn register_shard_process(
        ctx: SchedCtx<'_>,
        state: Rc<RefCell<ShardState>>,
        park: Rc<ParkCounters>,
        label: String,
    ) {
        let units = Rc::clone(ctx.units);
        let error = Rc::clone(ctx.error);
        let demand = Rc::clone(ctx.demand);
        // The per-run park list: pure scratch, owned by the process
        // closure so it never enters a snapshot.
        let mut to_park: Vec<u32> = vec![];
        ctx.sim.add_process(
            label,
            FnProcess::new(move |pctx| {
                let mut st = state.borrow_mut();
                let st = &mut *st;
                if error.borrow().is_some() {
                    st.halt(&demand);
                    return Wait::Forever;
                }
                st.runs += 1;
                let was_dormant = st.active.is_empty();
                // Re-arm parked members whose wires evented in this
                // delta.
                if !st.parked.is_empty() {
                    let mut resumed_any = 0usize;
                    let mut i = 0;
                    while i < st.parked.len() {
                        let mi = st.parked[i] as usize;
                        st.watch_probes += st.members[mi].wires.len() as u64;
                        if st.members[mi].wires.iter().any(|&w| pctx.event(w)) {
                            let idx = st.parked.swap_remove(i);
                            let pos = st.active.partition_point(|&a| a < idx);
                            st.active.insert(pos, idx);
                            park.resumed.set(park.resumed.get() + 1);
                            park.parked_now.set(park.parked_now.get() - 1);
                            st.wait_dirty = true;
                            resumed_any += 1;
                        } else {
                            i += 1;
                        }
                    }
                    demand.resume(resumed_any, pctx);
                    if was_dormant && resumed_any > 0 {
                        st.wire_wakeups += 1;
                    }
                }
                // Step active members whose clock rose.
                let mut edge_seen = false;
                let mut fatal = None;
                to_park.clear();
                for &ai in &st.active {
                    let member = &mut st.members[ai as usize];
                    if !pctx.rose(member.clk) {
                        continue;
                    }
                    edge_seen = true;
                    let changed = wires_changed(pctx, &member.wires, &mut member.seen_events);
                    st.units_stepped += 1;
                    match units.borrow_mut()[member.unit.0].step(pctx, changed) {
                        Ok(true) => to_park.push(ai),
                        Ok(false) => {}
                        Err(msg) => {
                            fatal = Some(msg);
                            break;
                        }
                    }
                }
                if let Some(msg) = fatal {
                    *error.borrow_mut() = Some(msg);
                    st.halt(&demand);
                    return Wait::Forever;
                }
                if edge_seen {
                    st.units_skipped += st.parked.len() as u64;
                }
                if !to_park.is_empty() {
                    demand.park(to_park.len());
                    st.active.retain(|a| !to_park.contains(a));
                    st.parked.extend_from_slice(&to_park);
                    park.parked.set(park.parked.get() + to_park.len() as u64);
                    park.parked_now.set(park.parked_now.get() + to_park.len());
                    st.wait_dirty = true;
                }
                if !st.wait_dirty {
                    return Wait::Same;
                }
                st.wait_dirty = false;
                let mut sens = pctx.wait_buf();
                for &ai in &st.active {
                    sens.push(st.members[ai as usize].clk);
                }
                for &pi in &st.parked {
                    sens.extend_from_slice(&st.members[pi as usize].wires);
                }
                sens.sort_unstable();
                sens.dedup();
                if st.parked.is_empty() {
                    // Pure clock sensitivity: members only step on
                    // rising edges, so skip falling-edge wakes. With
                    // parked members the watch wires need any-edge
                    // wakes and the mixed list stays unfiltered.
                    Wait::Rising(sens)
                } else {
                    Wait::Event(sens)
                }
            }),
        );
    }

    /// Aggregate statistics across the unit shards, the module driver
    /// and the shared park counters.
    pub(crate) fn stats(&self) -> ShardStats {
        let mut s = ShardStats {
            shards: self.unit_shards.len(),
            modules_stepped: self.park.modules_stepped.get(),
            members_parked: self.park.parked.get(),
            members_resumed: self.park.resumed.get(),
            parked_now: self.park.parked_now.get(),
            ..ShardStats::default()
        };
        for shard in &self.unit_shards {
            let st = shard.borrow();
            if st.active.is_empty() && !st.members.is_empty() {
                s.dormant_shards += 1;
            }
            s.shard_runs += st.runs;
            s.units_stepped += st.units_stepped;
            s.units_skipped += st.units_skipped;
            s.wire_wakeups += st.wire_wakeups;
            s.watch_probes += st.watch_probes;
        }
        if let Some(driver) = &self.driver {
            let st = driver.borrow();
            s.shards += st.shards.len();
            for shard in &st.shards {
                if shard.active.is_empty() && !shard.members.is_empty() {
                    s.dormant_shards += 1;
                }
            }
            s.shard_runs += st.runs;
            s.units_skipped += st.skipped;
            s.wire_wakeups += st.wire_wakeups;
        }
        s
    }
}

/// Installs one clock domain's demand-gated activation-clock generator
/// pair. Like `Simulator::add_clock`, but each generator idles while no
/// clocked body of its domain demands edges (all halted OR all parked)
/// and is re-armed through the domain's kick signal when a parked body
/// resumes.
///
/// Edges stay per-run *process* drives on purpose: a pre-scheduled
/// timed-drive train would make clock events visible in delta 0 of
/// their instant (a process drive lands in delta 1), merging
/// same-instant clock/completion interactions that the scheduler
/// variants resolve through different wake paths — which breaks their
/// delta-level equivalence.
pub(crate) fn install_clock_generators(
    sim: &mut Simulator,
    prefix: &str,
    hw: (SignalId, Duration),
    sw: (SignalId, Duration),
    demand: &Rc<ClockDemand>,
) {
    for (name, clk, period) in [
        (format!("{prefix}hw_clkgen"), hw.0, hw.1),
        (format!("{prefix}sw_clkgen"), sw.0, sw.1),
    ] {
        let demand = Rc::clone(demand);
        let half = period.halved();
        sim.add_process(
            name,
            FnProcess::new(move |ctx| {
                if demand.demand.get() <= 0 {
                    let mut sens = ctx.wait_buf();
                    sens.push(demand.kick);
                    return Wait::Event(sens);
                }
                let next = match ctx.read(clk) {
                    cosma_core::Value::Bit(cosma_core::Bit::One) => cosma_core::Bit::Zero,
                    _ => cosma_core::Bit::One,
                };
                ctx.drive(clk, cosma_core::Value::Bit(next));
                Wait::Timeout(half)
            }),
        );
    }
}

/// Diffs a wire set's monotone kernel event counts against the last
/// observation (updating it in place); `true` when any wire changed
/// since the previous call. This is the activation gate shared by the
/// per-unit clocked processes and the shard scheduler.
fn wires_changed(ctx: &ProcCtx<'_>, watched: &[SignalId], seen: &mut [u64]) -> bool {
    let mut changed = false;
    for (sig, last) in watched.iter().zip(seen.iter_mut()) {
        let n = ctx.event_count(*sig);
        changed |= n != *last;
        *last = n;
    }
    changed
}
