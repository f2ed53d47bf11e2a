//! The co-simulation backplane: modules, communication units and clocks
//! assembled over the discrete-event kernel.
//!
//! * Hardware modules activate on each rising edge of the HW clock;
//!   software modules on each rising edge of the SW activation clock.
//!   Every activation executes exactly one FSM transition — the paper's
//!   synchronization rule.
//! * FSM communication units live on kernel signals (one per wire).
//!   Service calls from modules step the caller's protocol session
//!   against those signals at once — the runtime equivalent of linking
//!   the SW *simulation* view (Fig. 3b).
//! * All stepping — module activations, unit controller steps, native
//!   steps, batched-link pumping — is owned by one *activation
//!   scheduler* ([`SchedulingConfig`]). By default units are grouped
//!   into *shards* (one kernel process each) and modules into the
//!   shards of one *module driver* process, both placed by hashed id.
//!   The driver steps each cycle's module activations in module-id
//!   order, so service calls reach their units in the same order as
//!   under one process per module. A member that proves itself stable
//!   is **parked** — removed from its shard's active set and re-armed
//!   only by events on its *watch wires* — and a shard whose members
//!   are all parked goes dormant, so idle regions of the backplane cost
//!   nothing per clock edge.
//! * A module whose FSM is blocked on a pending service call parks on
//!   the bound unit's **completion wires** (the read-set of the blocked
//!   protocol): a consumer blocked on `get` against an empty link costs
//!   zero activations until the producer's `put` lands.
//! * One process per unit and per module survives as
//!   [`UnitScheduling::PerUnit`] / [`ModuleScheduling::PerModule`]
//!   ([`SchedulingConfig::legacy`]), the oracle the sharded path is
//!   tested against, and parking can be disabled wholesale with
//!   [`SchedulingConfig::park_blocked`].
//! * Batched bus links ([`Cosim::add_batched_unit`]) coalesce per-value
//!   transfers into one wire handshake per (adaptively sized) batch.

use crate::trace::TraceLog;
use cosma_comm::{
    BatchedLink, BatchedLinkState, BusTiming, CallerId, FsmUnitRuntime, FsmUnitState, NativeUnit,
    NativeUnitState, UnitStats, WireStore,
};
use cosma_core::comm::CommUnitSpec;
use cosma_core::ids::{PortId, VarId};
use cosma_core::{
    Env, EvalError, FsmExec, Module, ModuleKind, ReadEnv, ServiceCall, ServiceOutcome, Type, Value,
};
use cosma_sim::{
    ClockControl, ClockRatio, Duration, Edge, FnProcess, ProcCtx, SignalId, SimError, SimState,
    SimTime, Simulator, Wait,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Caller identity used by boundary exporter/injector processes when
/// calling `get`/`put` on their half-link. Distinct from any module's
/// caller id (modules use small indices) so per-caller link accounting
/// never conflates a boundary with a real module.
pub(crate) const BOUNDARY_CALLER: CallerId = CallerId(u64::MAX);

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
    fn validate(&self) -> Result<(), CosimError> {
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
#[derive(Debug, Default)]
struct ParkCounters {
    parked: Cell<u64>,
    resumed: Cell<u64>,
    parked_now: Cell<usize>,
    modules_stepped: Cell<u64>,
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
struct ClockDemand {
    demand: Cell<i64>,
    kick: SignalId,
}

impl ClockDemand {
    /// A new unparked clocked body exists. If the generators had gone
    /// idle (everything previously registered is parked or halted —
    /// possible when bodies are added after a run reached quiescence),
    /// kick them awake so the new body actually sees clock edges.
    fn register(&self, sim: &mut Simulator) {
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
    fn park(&self, n: usize) {
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

/// Clocking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimConfig {
    /// Hardware cycle (default 100 ns — the paper's 10 MHz bus clock).
    pub hw_cycle: Duration,
    /// Software activation period (default equal to the hardware cycle,
    /// giving the paper's precise HW/SW synchronization).
    pub sw_cycle: Duration,
}

impl Default for CosimConfig {
    fn default() -> Self {
        let c = Duration::from_freq_hz(10_000_000);
        CosimConfig {
            hw_cycle: c,
            sw_cycle: c,
        }
    }
}

/// Identifies a clock domain of a backplane.
///
/// Every backplane starts with one *base* domain ([`DomainId::BASE`])
/// running at the configured [`CosimConfig`] rates; further domains are
/// created with [`Cosim::add_clock_domain`] at a rational period ratio
/// versus the base. Units and modules are placed into a domain with the
/// `*_in` constructors ([`Cosim::add_fsm_unit_in`],
/// [`Cosim::add_module_in`], ...); the domain decides which activation
/// clock pair drives them and which clock-demand ledger accounts for
/// their parking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainId(usize);

impl DomainId {
    /// The base clock domain every backplane is created with.
    pub const BASE: DomainId = DomainId(0);

    /// Index of this domain in the backplane's domain table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// The message channel shared by the two halves of a boundary link
/// (partitioned co-simulation, [`crate::partition`]). The *out* half's
/// exporter appends latency-stamped `(arrival_time, value)` entries;
/// the *in* half's injector consumes the prefix whose arrival time has
/// been reached, tracked by `cursor`. Entries are appended in
/// nondecreasing arrival order (one exporter, constant latency), so the
/// injector never reorders. The orchestrator snapshots `(len, cursor)`
/// per quantum and rolls either side back by truncating/rewinding.
#[derive(Debug, Default)]
pub(crate) struct BoundaryQueue {
    /// Latency-stamped messages: `(arrival_time, value)`.
    pub(crate) entries: Vec<(SimTime, Value)>,
    /// Index of the first entry the injector has not yet delivered.
    pub(crate) cursor: usize,
}

/// One clock domain: its activation clock pair, its period ratio versus
/// the base domain, and its clock-demand ledger. All domains share the
/// global femtosecond time axis — a 4:1 domain's members simply see a
/// rising edge every fourth base period.
struct ClockDomainEntry {
    name: String,
    ratio: ClockRatio,
    hw_clk: SignalId,
    sw_clk: SignalId,
    demand: Rc<ClockDemand>,
}

/// Identifies a communication-unit instance in the backplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitId(usize);

/// Identifies a module instance in the backplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CosimModuleId(usize);

/// Live status of a module, readable while the simulation runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleStatus {
    /// Current FSM state name. When the module halted on an evaluation
    /// error this is the state whose actions/guards errored.
    pub state: String,
    /// Activations performed.
    pub activations: u64,
    /// The evaluation error that halted this module, if any. Also
    /// surfaced globally through [`Cosim::run_for`]'s error result.
    pub error: Option<String>,
}

struct FsmUnitEntry {
    name: String,
    runtime: FsmUnitRuntime,
    wires: Vec<SignalId>,
    /// Per-service completion wires (the blocked protocol's read-set,
    /// mapped onto kernel signals): the wires whose events can unblock
    /// a pending caller, precomputed at registration.
    completion: HashMap<String, Vec<SignalId>>,
}

struct BatchedUnitEntry {
    name: String,
    link: BatchedLink,
    wires: Vec<SignalId>,
    /// One HW clock cycle — the scheduling unit for the link's
    /// pre-scheduled payload bursts ([`WireStore::write_wire_after`]).
    cycle: Duration,
    /// Per-service completion wires (see [`FsmUnitEntry::completion`]).
    completion: HashMap<String, Vec<SignalId>>,
}

struct NativeEntry {
    name: String,
    unit: Box<dyn NativeUnit>,
    /// Kernel mirror of the unit's queue occupancy
    /// ([`NativeUnit::occupancy`]), if the unit exposes one. Driven
    /// after every call and step, it makes native state changes
    /// wire-visible so blocked callers can *park* instead of polling.
    occ: Option<SignalId>,
    /// The occupancy value most recently *driven* onto the `OCC`
    /// signal. Drive decisions must compare against this, not the
    /// committed signal value: within one delta an earlier drive is
    /// still pending, and comparing against the stale committed value
    /// would skip the correcting drive — leaving the mirror wrong
    /// forever and losing a parked caller's wakeup.
    occ_driven: i64,
    /// Completion wires for blocked callers: `[occ]` when the unit is
    /// wire-visible, empty otherwise (callers must poll).
    completion: Vec<SignalId>,
}

struct Registry {
    fsm: Vec<FsmUnitEntry>,
    native: Vec<NativeEntry>,
    batched: Vec<BatchedUnitEntry>,
}

/// Mirrors a native unit's occupancy onto its `OCC` kernel signal after
/// a call or step may have changed it. Same-value drives are deduped by
/// the kernel (no event), so this is cheap for no-op calls.
fn sync_native_occ(entry: &mut NativeEntry, ctx: &mut ProcCtx<'_>) {
    if let (Some(sig), Some(occ)) = (entry.occ, entry.unit.occupancy()) {
        if entry.occ_driven != occ {
            entry.occ_driven = occ;
            ctx.drive(sig, Value::Int(occ));
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Handle {
    Fsm(usize),
    Native(usize),
    Batched(usize),
}

/// Everything the backplane knows about one module instance. Owned by
/// the shared module table so both scheduler paths (per-module process,
/// module driver) step modules through the same code.
struct ModuleEntry {
    name: String,
    module: Module,
    exec: FsmExec,
    ports: Vec<SignalId>,
    vars: Vec<Value>,
    var_tys: Vec<Type>,
    bindings: Vec<Handle>,
    caller: CallerId,
    status: ModuleStatus,
}

/// One member of a unit shard: the unit's bookkeeping body (controller
/// steps, native steps, batched pumping), its activation clock and its
/// gating wires.
struct ShardMember {
    unit: Handle,
    /// The rising edge this member activates on.
    clk: SignalId,
    /// The unit's gating wires, whose monotone event counts decide
    /// whether inputs changed. They double as the member's watch wires:
    /// events on them re-arm it while parked.
    wires: Vec<SignalId>,
    /// Last observed event counts for `wires`.
    seen_events: Vec<u64>,
}

/// Shared state of one unit shard process.
struct ShardState {
    members: Vec<ShardMember>,
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
    fn new() -> Self {
        ShardState {
            members: vec![],
            active: vec![],
            parked: vec![],
            wait_dirty: true,
            halted: false,
            runs: 0,
            units_stepped: 0,
            units_skipped: 0,
            wire_wakeups: 0,
            watch_probes: 0,
        }
    }

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
}

/// splitmix64: the hash spreading unit and module ids over shards.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bridges a unit's wire table onto kernel signals through the running
/// process context.
struct CtxWires<'a, 'b> {
    ctx: &'a mut ProcCtx<'b>,
    map: &'a [SignalId],
    /// One clock cycle of the owning unit's clock, the unit of
    /// [`WireStore::write_wire_after`] scheduling. `Duration::ZERO` at
    /// call sites that never schedule timed writes (service dispatch)
    /// — timed writes then report unsupported, which
    /// keeps a mis-plumbed site on the cycle-by-cycle fallback instead
    /// of silently collapsing a burst into one instant.
    cycle: Duration,
}

impl WireStore for CtxWires<'_, '_> {
    fn read_wire(&self, w: PortId) -> Result<Value, EvalError> {
        match self.map.get(w.index()) {
            Some(&sig) => Ok(self.ctx.read(sig).clone()),
            None => Err(EvalError::NoSuchPort(w)),
        }
    }
    fn write_wire(&mut self, w: PortId, v: Value) -> Result<(), EvalError> {
        match self.map.get(w.index()) {
            Some(&sig) => {
                self.ctx.drive(sig, v);
                Ok(())
            }
            None => Err(EvalError::NoSuchPort(w)),
        }
    }
    fn write_wire_after(&mut self, w: PortId, v: Value, cycles: u64) -> Result<bool, EvalError> {
        if self.cycle == Duration::ZERO {
            return Ok(false);
        }
        match self.map.get(w.index()) {
            Some(&sig) => {
                self.ctx.drive_after(sig, v, self.cycle.times(cycles));
                Ok(true)
            }
            None => Err(EvalError::NoSuchPort(w)),
        }
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
        match self.map.get(w.index()) {
            Some(&sig) => {
                self.ctx.drive_train(
                    sig,
                    self.cycle.times(start_cycles),
                    self.cycle.times(stride_cycles),
                    values,
                );
                Ok(true)
            }
            None => Err(EvalError::NoSuchPort(w)),
        }
    }
}

/// Reusable arena for module activations through [`step_module`]: the
/// [`StepEffects`](cosma_core::StepEffects) arena and the pooled watch
/// list. Each module-stepping process owns one, so a warm activation
/// allocates nothing for its bookkeeping.
#[derive(Default)]
struct ModuleScratch {
    /// Step-effects arena handed to
    /// [`FsmExec::step_with`](cosma_core::FsmExec::step_with);
    /// recycled at the start of every activation.
    effects: cosma_core::StepEffects,
    /// Pooled completion-wire watch list lent to the activation's
    /// [`CosimEnv`]; returned cleared unless the module parks (the
    /// rare case, where the buffer leaves as the park wait list).
    watch: Vec<SignalId>,
}

/// The execution environment a module activation sees: ports are kernel
/// signals, variables are module-local, service calls go to the
/// registry. Alongside execution it accumulates the *stability
/// evidence* the scheduler needs for its park verdict.
struct CosimEnv<'a, 'b> {
    ctx: &'a mut ProcCtx<'b>,
    ports: &'a [SignalId],
    vars: &'a mut [Value],
    var_tys: &'a [Type],
    registry: &'a RefCell<Registry>,
    bindings: &'a [Handle],
    caller: CallerId,
    trace: &'a RefCell<TraceLog>,
    source: &'a str,
    /// Effective changes this activation: variable writes that changed
    /// a value, port drives that differ from the signal's current
    /// value, trace records, completed service calls. Zero means the
    /// activation was (conservatively) a no-op.
    changes: u32,
    /// Whether every pending service call this activation was a
    /// provable no-op on the unit side *with* non-empty completion
    /// wires — i.e. safe to wait on wires instead of polling.
    pending_stable: bool,
    /// Completion wires of the pending calls (what to watch if parked).
    pending_watch: Vec<SignalId>,
}

impl CosimEnv<'_, '_> {
    /// Post-call bookkeeping: a completed call is an effective change;
    /// a pending one contributes to the park verdict (parkable
    /// only if the unit proved the call a no-op AND names completion
    /// wires that can wake the caller).
    fn note_outcome(&mut self, handle: Handle, service: &str, done: bool, stable: bool) {
        if done {
            self.changes += 1;
            return;
        }
        let reg = self.registry.borrow();
        let comp = match handle {
            Handle::Fsm(i) => reg.fsm[i].completion.get(service),
            Handle::Batched(i) => reg.batched[i].completion.get(service),
            Handle::Native(i) => Some(&reg.native[i].completion),
        };
        match comp {
            Some(ws) if stable && !ws.is_empty() => {
                self.pending_watch.extend_from_slice(ws);
            }
            _ => self.pending_stable = false,
        }
    }
}

impl ReadEnv for CosimEnv<'_, '_> {
    fn read_var(&self, v: VarId) -> Result<Value, EvalError> {
        self.vars
            .get(v.index())
            .cloned()
            .ok_or(EvalError::NoSuchVar(v))
    }
    fn read_port(&self, p: PortId) -> Result<Value, EvalError> {
        match self.ports.get(p.index()) {
            Some(&sig) => Ok(self.ctx.read(sig).clone()),
            None => Err(EvalError::NoSuchPort(p)),
        }
    }
}

impl Env for CosimEnv<'_, '_> {
    fn write_var(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
        let ty = self.var_tys.get(v.index()).ok_or(EvalError::NoSuchVar(v))?;
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
        match self.ports.get(p.index()) {
            Some(&sig) => {
                if self.ctx.read(sig) != &value {
                    self.changes += 1;
                }
                self.ctx.drive(sig, value);
                Ok(())
            }
            None => Err(EvalError::NoSuchPort(p)),
        }
    }
    fn call_service(
        &mut self,
        call: &ServiceCall,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        let Some(&handle) = self.bindings.get(call.binding.index()) else {
            return Err(EvalError::Service(format!(
                "module {} has no unit attached to binding {}",
                self.source, call.binding
            )));
        };
        let (out, stable) = {
            let mut reg = self.registry.borrow_mut();
            match handle {
                Handle::Fsm(i) => {
                    let FsmUnitEntry { runtime, wires, .. } = &mut reg.fsm[i];
                    let mut ws = CtxWires {
                        ctx: self.ctx,
                        map: wires,
                        cycle: Duration::ZERO,
                    };
                    let out = runtime.call(self.caller, &call.service, args, &mut ws)?;
                    let stable = runtime.last_call_stable();
                    (out, stable)
                }
                Handle::Native(i) => {
                    let entry = &mut reg.native[i];
                    let out = entry
                        .unit
                        .call(self.caller, &call.service, args)
                        .map_err(|e| {
                            EvalError::Service(format!("native unit {}: {e}", entry.name))
                        })?;
                    sync_native_occ(entry, self.ctx);
                    let stable = entry.unit.last_call_stable();
                    (out, stable)
                }
                Handle::Batched(i) => {
                    let BatchedUnitEntry { link, wires, .. } = &mut reg.batched[i];
                    let mut ws = CtxWires {
                        ctx: self.ctx,
                        map: wires,
                        cycle: Duration::ZERO,
                    };
                    let out = link.call(self.caller, &call.service, args, &mut ws)?;
                    let stable = link.last_call_stable();
                    (out, stable)
                }
            }
        };
        self.note_outcome(handle, &call.service, out.done, stable);
        Ok(out)
    }
    fn trace(&mut self, label: &str, values: &[Value]) {
        self.changes += 1;
        self.trace
            .borrow_mut()
            .record(self.ctx.now().as_fs(), self.source, label, values);
    }
    fn trace_interned(&mut self, label: &Arc<str>, values: &[Value]) {
        self.changes += 1;
        self.trace
            .borrow_mut()
            .record_interned(self.ctx.now().as_fs(), self.source, label, values);
    }
}

/// Errors from backplane assembly and runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CosimError {
    /// Kernel-level error.
    Sim(SimError),
    /// A module or controller hit an evaluation error.
    Runtime(String),
    /// Assembly-time error (duplicate names, unresolved bindings...).
    Setup(String),
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::Sim(e) => write!(f, "{e}"),
            CosimError::Runtime(m) | CosimError::Setup(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CosimError {}

impl From<SimError> for CosimError {
    fn from(e: SimError) -> Self {
        CosimError::Sim(e)
    }
}

/// One module activation through the shared module table, with service
/// calls applied to their units at once. Returns `Ok(Some(watch))` when
/// the activation proved the module stable and it should be parked on
/// `watch` (possibly empty: a halted module that nothing can ever
/// re-arm), `Ok(None)` to stay clocked.
///
/// The execution environment is drawn from the caller's pooled
/// [`ModuleScratch`], recycled (capacity kept) across activations.
#[allow(clippy::too_many_arguments)]
fn step_module(
    modules: &RefCell<Vec<ModuleEntry>>,
    idx: usize,
    registry: &RefCell<Registry>,
    trace: &RefCell<TraceLog>,
    park: &ParkCounters,
    park_blocked: bool,
    ctx: &mut ProcCtx<'_>,
    scratch: &mut ModuleScratch,
) -> Result<Option<Vec<SignalId>>, String> {
    let mut modules = modules.borrow_mut();
    let ModuleEntry {
        name,
        module,
        exec,
        ports,
        vars,
        var_tys,
        bindings,
        caller,
        status,
    } = &mut modules[idx];
    let fsm = module.fsm();
    scratch.effects.recycle();
    let mut env = CosimEnv {
        ctx,
        ports,
        vars,
        var_tys,
        registry,
        bindings,
        caller: *caller,
        trace,
        source: name,
        changes: 0,
        pending_stable: true,
        pending_watch: std::mem::take(&mut scratch.watch),
    };
    match exec.step_with(fsm, &mut env, &mut scratch.effects) {
        Ok(meta) => {
            let changes = env.changes;
            let pending_stable = env.pending_stable;
            let mut watch = env.pending_watch;
            if meta.from != meta.to {
                // The state name only changes on a real transition —
                // skip the per-activation render for self-loops, and
                // reuse the status String's buffer when it does.
                status.state.clear();
                status.state.push_str(fsm.state(exec.current()).name());
            }
            status.activations += 1;
            park.modules_stepped.set(park.modules_stepped.get() + 1);
            // Park verdict: the activation must be a provable fixed
            // point. Same state (self-loops included), zero effective
            // changes, and every service call pending as a unit-side
            // no-op with completion wires to wait on. Re-running such
            // an activation with unchanged ports/wires is guaranteed
            // to repeat it identically, so the module may sleep until
            // one of its ports or completion wires events.
            let parkable = park_blocked
                && meta.from == meta.to
                && changes == 0
                && pending_stable
                && scratch.effects.pending.len() == scratch.effects.service_calls as usize;
            if parkable {
                watch.extend_from_slice(ports);
                watch.sort_unstable();
                watch.dedup();
                Ok(Some(watch))
            } else {
                watch.clear();
                scratch.watch = watch;
                Ok(None)
            }
        }
        Err(e) => {
            let mut watch = env.pending_watch;
            watch.clear();
            scratch.watch = watch;
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

/// The single owner of module and unit stepping: shard pools, hashed
/// placement, park accounting. Unified here so modules and units — the
/// same FSM semantics in the paper's model — share one
/// activation-gating architecture.
struct ActivationScheduler {
    cfg: SchedulingConfig,
    /// Per-domain unit shard pool: shards never mix clock domains, so
    /// hashed placement runs inside the member's domain pool. Entry `d`
    /// indexes [`ActivationScheduler::unit_shards`] for domain `d`.
    unit_pools: Vec<PoolState>,
    /// Per-domain module shard pool of the driver. Entry `d` holds
    /// indices into [`DriverState::shards`].
    driver_pools: Vec<PoolState>,
    unit_shards: Vec<Rc<RefCell<ShardState>>>,
    /// The module driver ([`ModuleScheduling::Sharded`]): one kernel
    /// process stepping every module shard, registered with the first
    /// module.
    driver: Option<Rc<RefCell<DriverState>>>,
    /// Per-process state of the one-process-per-module path
    /// ([`ModuleScheduling::PerModule`]), in module order. Shared with
    /// the process closures so snapshot/restore can reach it.
    per_module: Vec<Rc<RefCell<PerModuleProcState>>>,
    /// Per-unit `seen_events` gates of the
    /// [`UnitScheduling::PerUnit`] path, in unit-registration order.
    /// Shared with the clocked closures so snapshot/restore can reach
    /// them.
    per_unit_seen: Vec<Rc<RefCell<Vec<u64>>>>,
    park: Rc<ParkCounters>,
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
struct PerModuleProcState {
    /// Whether the process currently holds a clock-demand unit (true
    /// while unparked and not halted).
    counted: bool,
    parked: bool,
    watch: Vec<SignalId>,
    wait_dirty: bool,
}

/// One member of the module driver: a module, its activation clock,
/// and the wires that re-arm it while parked.
struct DriverMember {
    module: usize,
    clk: SignalId,
    /// Computed at park time: the module's ports plus the blocked
    /// services' completion wires. Empty means the member can never be
    /// re-armed (a provably-halted module).
    watch: Vec<SignalId>,
}

/// One module shard of the driver: an active/parked member split,
/// stepped by the shared driver process.
///
/// Parked-member wakeups are owned by a per-shard *watcher* kernel
/// process whose sensitivity covers only this shard's watch wires —
/// keeping sensitivity churn local to the shard (the driver itself
/// stays pinned to the activation clocks).
struct DriverShard {
    members: Vec<DriverMember>,
    active: Vec<u32>,
    parked: Vec<u32>,
    /// The clock-demand ledger of this shard's domain (shards never mix
    /// domains, so parking a member surrenders demand on exactly one
    /// domain's generators).
    demand: Rc<ClockDemand>,
    /// Toggled by the driver when it parks members of this shard, so
    /// the watcher re-arms on the new watch set.
    poke: SignalId,
    /// Whether the watcher must recompute its sensitivity.
    watch_dirty: bool,
    /// Whether the shard's watcher process performed its first
    /// (elaboration) run and armed itself on the poke signal. Lives
    /// here — not in the watcher's closure — so a forked backplane's
    /// fresh watcher resumes mid-stream instead of re-running its
    /// elaboration arm (which would clobber the restored watch
    /// sensitivity).
    watcher_armed: bool,
}

/// Shared state of the module driver process.
struct DriverState {
    shards: Vec<DriverShard>,
    /// Whether the driver surrendered its members' clock demand after a
    /// backplane error (kept here so snapshot/restore can carry it).
    halted: bool,
    runs: u64,
    skipped: u64,
    wire_wakeups: u64,
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
struct SchedCtx<'a> {
    sim: &'a mut Simulator,
    registry: &'a Rc<RefCell<Registry>>,
    modules: &'a Rc<RefCell<Vec<ModuleEntry>>>,
    error: &'a Rc<RefCell<Option<String>>>,
    trace: &'a Rc<RefCell<TraceLog>>,
    /// The target clock domain's demand ledger.
    demand: &'a Rc<ClockDemand>,
    /// The target domain's hardware activation clock.
    hw_clk: SignalId,
    /// Index of the target domain (selects the per-domain shard pools).
    domain: usize,
    /// Every domain's activation clocks, in domain order — the module
    /// driver's clock sensitivity.
    clocks: &'a [SignalId],
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
    fn new(cfg: SchedulingConfig) -> Self {
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
    fn add_domain_pool(&mut self) {
        self.unit_pools.push(PoolState::default());
        self.driver_pools.push(PoolState::default());
    }

    /// Places a unit member into a shard chosen by hashing its id over
    /// its clock domain's pool ([`PoolState::place`]). Shards never mix
    /// domains, so every member of a shard shares one activation clock
    /// and one [`ClockDemand`] ledger.
    fn add_unit_member(&mut self, ctx: SchedCtx<'_>, unit: Handle, wires: Vec<SignalId>) {
        let shard_size = match self.cfg.units {
            UnitScheduling::Sharded { shard_size } => shard_size.max(1),
            UnitScheduling::PerUnit => unreachable!("shard members only exist when sharded"),
        };
        let domain = ctx.domain;
        let placed = self.unit_pools[domain].place(shard_size);
        let clk = ctx.hw_clk;
        ctx.demand.register(ctx.sim);
        let target = match placed {
            Some(local) => self.unit_pools[domain].shards[local],
            None => {
                let state = Rc::new(RefCell::new(ShardState::new()));
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

    /// Places a module into the driver: hashed placement spreads module
    /// ids over the domain's open shards exactly like unit placement
    /// (the driver steps in module-id order whatever the placement). The
    /// driver's single kernel process is registered with the first
    /// module.
    fn add_module(&mut self, mut ctx: SchedCtx<'_>, idx: usize, clk: SignalId) {
        let shard_size = match self.cfg.modules {
            ModuleScheduling::Sharded { shard_size } => shard_size.max(1),
            ModuleScheduling::PerModule => unreachable!("the driver only runs sharded modules"),
        };
        ctx.demand.register(ctx.sim);
        let driver = match &self.driver {
            Some(d) => Rc::clone(d),
            None => {
                let state = Rc::new(RefCell::new(DriverState {
                    shards: vec![],
                    halted: false,
                    runs: 0,
                    skipped: 0,
                    wire_wakeups: 0,
                    items: vec![],
                    to_park: vec![],
                }));
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
        let registry = Rc::clone(ctx.registry);
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
                            &registry,
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
        let registry = Rc::clone(ctx.registry);
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
                    let mut reg = registry.borrow_mut();
                    match step_unit_member(&mut reg, member.unit, pctx, changed) {
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
    fn stats(&self) -> ShardStats {
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

/// One activation of a unit shard member at a rising clock edge.
/// Returns whether the member proved itself stable (parkable).
fn step_unit_member(
    reg: &mut Registry,
    handle: Handle,
    ctx: &mut ProcCtx<'_>,
    inputs_changed: bool,
) -> Result<bool, String> {
    match handle {
        Handle::Fsm(i) => {
            let FsmUnitEntry {
                name,
                runtime,
                wires,
                ..
            } = &mut reg.fsm[i];
            let mut ws = CtxWires {
                ctx,
                map: wires,
                cycle: Duration::ZERO,
            };
            runtime
                .step_controller_if_active(&mut ws, inputs_changed)
                .map_err(|e| format!("unit {name} controller: {e}"))?;
            Ok(runtime.controller_stable())
        }
        Handle::Native(i) => {
            let entry = &mut reg.native[i];
            entry.unit.step();
            sync_native_occ(entry, ctx);
            Ok(!entry.unit.needs_step())
        }
        Handle::Batched(i) => {
            let BatchedUnitEntry {
                name,
                link,
                wires,
                cycle,
                ..
            } = &mut reg.batched[i];
            let mut ws = CtxWires {
                ctx,
                map: wires,
                cycle: *cycle,
            };
            let active = link
                .pump(&mut ws, inputs_changed)
                .map_err(|e| format!("batched link {name}: {e}"))?;
            Ok(!active)
        }
    }
}

/// The co-simulation backplane.
///
/// # Examples
///
/// A software producer and a hardware consumer exchanging one value over
/// the library handshake unit:
///
/// ```
/// use cosma_cosim::{Cosim, CosimConfig};
/// use cosma_comm::handshake_unit;
/// use cosma_core::{ModuleBuilder, ModuleKind, Type, Value, Expr, Stmt, ServiceCall};
/// use cosma_sim::Duration;
///
/// let mut cosim = Cosim::new(CosimConfig::default());
/// let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
///
/// let mut p = ModuleBuilder::new("producer", ModuleKind::Software);
/// let done = p.var("D", Type::Bool, Value::Bool(false));
/// let b = p.binding("iface", "hs");
/// let s_put = p.state("PUT");
/// let s_end = p.state("END");
/// p.actions(s_put, vec![Stmt::Call(ServiceCall {
///     binding: b, service: "put".into(), args: vec![Expr::int(42)],
///     done: Some(done), result: None,
/// })]);
/// p.transition(s_put, Some(Expr::var(done)), s_end);
/// p.transition(s_end, None, s_end);
/// p.initial(s_put);
///
/// let mut c = ModuleBuilder::new("consumer", ModuleKind::Hardware);
/// let got = c.var("GOT", Type::INT16, Value::Int(0));
/// let cdone = c.var("D", Type::Bool, Value::Bool(false));
/// let cb = c.binding("iface", "hs");
/// let s_get = c.state("GET");
/// let s_end2 = c.state("END");
/// c.actions(s_get, vec![Stmt::Call(ServiceCall {
///     binding: cb, service: "get".into(), args: vec![],
///     done: Some(cdone), result: Some(got),
/// })]);
/// c.transition(s_get, Some(Expr::var(cdone)), s_end2);
/// c.transition(s_end2, None, s_end2);
/// c.initial(s_get);
///
/// let pm = cosim.add_module(&p.build()?, &[("iface", link)])?;
/// let cm = cosim.add_module(&c.build()?, &[("iface", link)])?;
/// cosim.run_for(Duration::from_us(10))?;
/// assert_eq!(cosim.module_status(cm).state, "END");
/// assert_eq!(cosim.module_var(cm, "GOT"), Some(Value::Int(42)));
/// # let _ = pm;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Cosim {
    sim: Simulator,
    registry: Rc<RefCell<Registry>>,
    handles: Vec<Handle>,
    unit_names: HashMap<String, UnitId>,
    error: Rc<RefCell<Option<String>>>,
    trace: Rc<RefCell<TraceLog>>,
    modules: Rc<RefCell<Vec<ModuleEntry>>>,
    sched: ActivationScheduler,
    /// The clocking configuration this backplane was built with, kept so
    /// [`Cosim::fork`] can construct an identical twin.
    config: CosimConfig,
    /// Construction log: one entry per `add_*` call, in call order.
    /// [`Cosim::fork`] replays the recipe onto a fresh backplane, which
    /// deterministically rebuilds identical structure — same signal and
    /// process ids, same hashed shard placement — before restoring the
    /// snapshot's state onto it.
    recipe: Vec<RecipeOp>,
    /// Clock domains, base domain first. Each carries its activation
    /// clock pair and its clock-edge demand ledger: the domain's
    /// generators idle whenever its demand reaches zero — on an empty
    /// backplane, after every body halted, **and while every body is
    /// parked** — so a deadlocked or finished system truly goes
    /// quiescent ([`Cosim::run_to_quiescence`]) instead of toggling its
    /// activation clocks forever. A parked body re-armed by a wire
    /// event bumps the demand back and kicks the generators awake.
    domains: Vec<ClockDomainEntry>,
    /// Every domain's activation clocks in domain order
    /// (`[hw0, sw0, hw1, sw1, ...]`) — the module driver's clock
    /// sensitivity.
    clock_list: Vec<SignalId>,
    /// Boundary half-links installed on this backplane (partitioned
    /// co-simulation). Boundary closures reach state the fork recipe
    /// cannot replay (queues shared with another backplane), so
    /// [`Cosim::fork`] is rejected while any exist.
    boundaries: usize,
}

impl fmt::Debug for Cosim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cosim")
            .field("modules", &self.modules.borrow().len())
            .field("units", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl Cosim {
    /// Creates a backplane with HW and SW activation clocks.
    #[must_use]
    pub fn new(config: CosimConfig) -> Self {
        let mut sim = Simulator::new();
        let hw_clk = sim.add_bit("HW_CLK");
        let sw_clk = sim.add_bit("SW_CLK");
        let kick = sim.add_bit("CLK_KICK");
        let demand = Rc::new(ClockDemand {
            demand: Cell::new(0),
            kick,
        });
        install_clock_generators(
            &mut sim,
            "",
            (hw_clk, config.hw_cycle),
            (sw_clk, config.sw_cycle),
            &demand,
        );
        Cosim {
            sim,
            registry: Rc::new(RefCell::new(Registry {
                fsm: vec![],
                native: vec![],
                batched: vec![],
            })),
            handles: vec![],
            unit_names: HashMap::new(),
            error: Rc::new(RefCell::new(None)),
            trace: Rc::new(RefCell::new(TraceLog::new())),
            modules: Rc::new(RefCell::new(vec![])),
            sched: ActivationScheduler::new(SchedulingConfig::sharded()),
            config,
            recipe: vec![],
            domains: vec![ClockDomainEntry {
                name: String::new(),
                ratio: ClockRatio::UNIT,
                hw_clk,
                sw_clk,
                demand,
            }],
            clock_list: vec![hw_clk, sw_clk],
            boundaries: 0,
        }
    }

    /// Creates a clock domain running at `num:den` times the base
    /// domain's *period* — `add_clock_domain("slow", 4, 1)` gives a
    /// domain whose members see one rising edge for every four base
    /// edges (a quarter-rate domain). All domains share the global
    /// femtosecond time axis; only the activation-clock periods differ.
    ///
    /// Domains must be created while the backplane is empty (before any
    /// unit or module), so the module driver's clock sensitivity and
    /// the per-domain shard pools are complete before placement starts.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] when units or modules were already
    /// added, when either ratio component is zero, when the scaled
    /// period would truncate to zero, or when `name` is empty or already
    /// taken.
    pub fn add_clock_domain(
        &mut self,
        name: &str,
        num: u64,
        den: u64,
    ) -> Result<DomainId, CosimError> {
        if !self.handles.is_empty() || !self.modules.borrow().is_empty() {
            return Err(CosimError::Setup(
                "clock domains must be created before units or modules".to_string(),
            ));
        }
        let Some(ratio) = ClockRatio::try_new(num, den) else {
            return Err(CosimError::Setup(format!(
                "clock domain {name}: rate ratio components must be nonzero (got {num}:{den})"
            )));
        };
        let hw_cycle = ratio.scale(self.config.hw_cycle);
        let sw_cycle = ratio.scale(self.config.sw_cycle);
        if hw_cycle.halved() == Duration::ZERO || sw_cycle.halved() == Duration::ZERO {
            return Err(CosimError::Setup(format!(
                "clock domain {name}: ratio {ratio} scales the activation period to zero"
            )));
        }
        if name.is_empty() {
            return Err(CosimError::Setup(
                "clock domain name must be non-empty (the base domain is unnamed)".to_string(),
            ));
        }
        if self.domains.iter().any(|d| d.name == name) {
            return Err(CosimError::Setup(format!(
                "clock domain {name} already exists"
            )));
        }
        self.recipe.push(RecipeOp::ClockDomain {
            name: name.to_string(),
            num,
            den,
        });
        let hw_clk = self.sim.add_bit(format!("{name}.HW_CLK"));
        let sw_clk = self.sim.add_bit(format!("{name}.SW_CLK"));
        let kick = self.sim.add_bit(format!("{name}.CLK_KICK"));
        let demand = Rc::new(ClockDemand {
            demand: Cell::new(0),
            kick,
        });
        install_clock_generators(
            &mut self.sim,
            &format!("{name}."),
            (hw_clk, hw_cycle),
            (sw_clk, sw_cycle),
            &demand,
        );
        self.clock_list.push(hw_clk);
        self.clock_list.push(sw_clk);
        self.domains.push(ClockDomainEntry {
            name: name.to_string(),
            ratio,
            hw_clk,
            sw_clk,
            demand,
        });
        self.sched.add_domain_pool();
        Ok(DomainId(self.domains.len() - 1))
    }

    /// Looks up a clock domain by name (the base domain is unnamed —
    /// use [`DomainId::BASE`]).
    #[must_use]
    pub fn find_domain(&self, name: &str) -> Option<DomainId> {
        self.domains
            .iter()
            .position(|d| d.name == name)
            .map(DomainId)
    }

    /// Number of clock domains (at least one: the base domain).
    #[must_use]
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Period ratio of a domain versus the base domain.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this backplane.
    #[must_use]
    pub fn domain_ratio(&self, d: DomainId) -> ClockRatio {
        self.domains[d.0].ratio
    }

    /// Pins every clock domain's activation-clock generators awake by
    /// registering one permanent unit of clock demand per domain.
    ///
    /// A pinned backplane's clock edges stay on the exact
    /// `k · period/2` grid forever — the generators never idle, so a
    /// resumed body always waits for the next grid edge instead of
    /// seeing a kick-aligned edge at its resume instant. Partitioned
    /// runs require this: every partition (and the monolithic oracle it
    /// is compared against) must produce the same edge grid regardless
    /// of how the cut distributes demand. The price is that a pinned
    /// backplane never goes quiescent on its own
    /// ([`Cosim::run_to_quiescence`] will always hit its limit).
    pub fn pin_clock_domains(&mut self) {
        for d in &self.domains {
            d.demand.register(&mut self.sim);
        }
    }

    /// Selects the full scheduling configuration (unit dispatch, module
    /// dispatch, parking). Must be called before any unit or module is
    /// added.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if units or modules were already
    /// added, or a shard size is zero.
    pub fn set_scheduling(&mut self, cfg: SchedulingConfig) -> Result<(), CosimError> {
        if !self.handles.is_empty() || !self.modules.borrow().is_empty() {
            return Err(CosimError::Setup(
                "scheduling must be chosen before adding units or modules".to_string(),
            ));
        }
        cfg.validate()?;
        self.sched.cfg = cfg;
        Ok(())
    }

    /// The active scheduling configuration.
    #[must_use]
    pub fn scheduling(&self) -> SchedulingConfig {
        self.sched.cfg
    }

    /// Aggregate activation-scheduler statistics (shard counters are
    /// zero under the per-unit/per-module paths; park counters cover
    /// both).
    #[must_use]
    pub fn shard_stats(&self) -> ShardStats {
        self.sched.stats()
    }

    fn sched_ctx(&mut self, domain: usize) -> (&mut ActivationScheduler, SchedCtx<'_>) {
        let d = &self.domains[domain];
        (
            &mut self.sched,
            SchedCtx {
                sim: &mut self.sim,
                registry: &self.registry,
                modules: &self.modules,
                error: &self.error,
                trace: &self.trace,
                demand: &d.demand,
                hw_clk: d.hw_clk,
                domain,
                clocks: &self.clock_list,
            },
        )
    }

    /// The underlying kernel (for signal pokes, VCD, stats).
    #[must_use]
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable kernel access.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The base domain's hardware clock signal.
    #[must_use]
    pub fn hw_clk(&self) -> SignalId {
        self.domains[0].hw_clk
    }

    /// The base domain's software activation clock signal.
    #[must_use]
    pub fn sw_clk(&self) -> SignalId {
        self.domains[0].sw_clk
    }

    /// A domain's hardware clock signal.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this backplane.
    #[must_use]
    pub fn domain_hw_clk(&self, d: DomainId) -> SignalId {
        self.domains[d.0].hw_clk
    }

    /// Instantiates an FSM communication unit: one kernel signal per wire
    /// (`<name>.<WIRE>`), plus a clocked controller process.
    pub fn add_fsm_unit(&mut self, name: &str, spec: Arc<CommUnitSpec>) -> UnitId {
        self.add_fsm_unit_in(DomainId::BASE, name, spec)
            .expect("the base domain always exists")
    }

    /// Checks that a caller-supplied domain id belongs to this
    /// backplane.
    fn check_domain(&self, domain: DomainId, what: &str) -> Result<(), CosimError> {
        if domain.0 >= self.domains.len() {
            return Err(CosimError::Setup(format!(
                "{what}: clock domain #{} does not exist (this backplane has {})",
                domain.0,
                self.domains.len()
            )));
        }
        Ok(())
    }

    /// [`Cosim::add_fsm_unit`] into an explicit clock domain: the
    /// unit's controller steps on that domain's HW clock.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if the domain id does not belong
    /// to this backplane.
    pub fn add_fsm_unit_in(
        &mut self,
        domain: DomainId,
        name: &str,
        spec: Arc<CommUnitSpec>,
    ) -> Result<UnitId, CosimError> {
        self.check_domain(domain, name)?;
        self.recipe.push(RecipeOp::FsmUnit {
            name: name.to_string(),
            spec: Arc::clone(&spec),
            domain: domain.0,
        });
        let wires: Vec<SignalId> = spec
            .wires()
            .iter()
            .map(|w| {
                self.sim.add_signal(
                    format!("{name}.{}", w.name()),
                    w.ty().clone(),
                    w.init().clone(),
                )
            })
            .collect();
        let has_controller = spec.controller().is_some();
        let runtime = FsmUnitRuntime::new(spec);
        // Completion wires per service: the blocked protocol's read-set
        // mapped onto kernel signals (what a parked caller waits on).
        let completion: HashMap<String, Vec<SignalId>> = runtime
            .spec()
            .services()
            .iter()
            .map(|svc| {
                (
                    svc.name().to_string(),
                    runtime
                        .completion_signals(svc.name())
                        .iter()
                        .map(|p| wires[p.index()])
                        .collect(),
                )
            })
            .collect();
        let idx = {
            let mut reg = self.registry.borrow_mut();
            reg.fsm.push(FsmUnitEntry {
                name: name.to_string(),
                runtime,
                wires: wires.clone(),
                completion,
            });
            reg.fsm.len() - 1
        };
        if has_controller {
            match self.sched.cfg.units {
                UnitScheduling::Sharded { .. } => {
                    let (sched, ctx) = self.sched_ctx(domain.0);
                    sched.add_unit_member(ctx, Handle::Fsm(idx), wires);
                }
                UnitScheduling::PerUnit => {
                    let registry = Rc::clone(&self.registry);
                    let error = Rc::clone(&self.error);
                    let clk = self.domains[domain.0].hw_clk;
                    // The kernel's monotone per-signal event counts tell the
                    // controller whether any of its wires changed since its
                    // last activation; provably idle controllers are then
                    // skipped (see FsmUnitRuntime::step_controller_if_active).
                    let watched = wires;
                    // The gate state is shared with the scheduler so
                    // snapshots can capture and restore it.
                    let seen = Rc::new(RefCell::new(vec![0u64; watched.len()]));
                    self.sched.per_unit_seen.push(Rc::clone(&seen));
                    let demand = Rc::clone(&self.domains[domain.0].demand);
                    demand.register(&mut self.sim);
                    self.sim.add_clocked(
                        format!("{name}.controller"),
                        clk,
                        Edge::Rising,
                        move |ctx| {
                            if error.borrow().is_some() {
                                demand.park(1);
                                return ClockControl::Halt;
                            }
                            let inputs_changed =
                                wires_changed(ctx, &watched, &mut seen.borrow_mut());
                            let mut reg = registry.borrow_mut();
                            let FsmUnitEntry {
                                name,
                                runtime,
                                wires,
                                ..
                            } = &mut reg.fsm[idx];
                            let mut ws = CtxWires {
                                ctx,
                                map: wires,
                                cycle: Duration::ZERO,
                            };
                            if let Err(e) =
                                runtime.step_controller_if_active(&mut ws, inputs_changed)
                            {
                                *error.borrow_mut() = Some(format!("unit {name} controller: {e}"));
                                demand.park(1);
                                return ClockControl::Halt;
                            }
                            ClockControl::Continue
                        },
                    );
                }
            }
        }
        let id = UnitId(self.handles.len());
        self.handles.push(Handle::Fsm(idx));
        self.unit_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Installs a batched bus link ([`BatchedLink`]): producer `put`
    /// calls enqueue into a vec-backed payload queue, whole batches cross
    /// the unit's wire-level handshake in a *single* bus transaction, and
    /// consumer `get` calls pop delivered values. Modules bind to it like
    /// any other unit and call its `put`/`get` services. Batch size
    /// adapts to the observed queue depth, up to `max_batch`.
    ///
    /// `max_batch` bounds one bus transaction; `capacity` bounds total
    /// link occupancy (producer backpressure). The bus timing model is
    /// [`BusTiming::LengthOnly`]; use [`Cosim::add_batched_unit_with`]
    /// for cycle-accurate payload beats.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if `max_batch` or `capacity` is
    /// zero, or `max_batch` exceeds `i16::MAX` (the INT16 `DATA` wire's
    /// largest representable batch length — the ceiling is never
    /// silently shrunk).
    pub fn add_batched_unit(
        &mut self,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
    ) -> Result<UnitId, CosimError> {
        self.add_batched_unit_with(name, data_ty, max_batch, capacity, BusTiming::LengthOnly)
    }

    /// Installs a batched bus link with an explicit [`BusTiming`] model:
    /// [`BusTiming::LengthOnly`] for the co-simulation fast path,
    /// [`BusTiming::PayloadBeats`] for cycle-accurate bus occupancy
    /// (one wire word per value per cycle on `DATA` after the
    /// arbitration handshake) — the calibration side of
    /// [`crate::annotate_batch_latency`].
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::add_batched_unit`].
    pub fn add_batched_unit_with(
        &mut self,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
    ) -> Result<UnitId, CosimError> {
        self.add_batched_unit_in_with(DomainId::BASE, name, data_ty, max_batch, capacity, timing)
    }

    /// [`Cosim::add_batched_unit_with`] into an explicit clock domain:
    /// the link pumps on that domain's HW clock, and its pre-scheduled
    /// payload beats ride the domain's (ratio-scaled) cycle — a 4:1
    /// domain's bus moves one word every fourth base period.
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::add_batched_unit`], plus [`CosimError::Setup`]
    /// if the domain id does not belong to this backplane.
    pub fn add_batched_unit_in_with(
        &mut self,
        domain: DomainId,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
    ) -> Result<UnitId, CosimError> {
        self.check_domain(domain, name)?;
        let link = BatchedLink::try_new(name, data_ty.clone(), max_batch, capacity)
            .map_err(|e| CosimError::Setup(e.to_string()))?
            .with_timing(timing);
        self.recipe.push(RecipeOp::BatchedUnit {
            name: name.to_string(),
            data_ty,
            max_batch,
            capacity,
            timing,
            domain: domain.0,
        });
        let wires: Vec<SignalId> = link
            .spec()
            .wires()
            .iter()
            .map(|w| {
                self.sim.add_signal(
                    format!("{name}.{}", w.name()),
                    w.ty().clone(),
                    w.init().clone(),
                )
            })
            .collect();
        let completion: HashMap<String, Vec<SignalId>> = ["put", "get"]
            .iter()
            .map(|svc| {
                (
                    (*svc).to_string(),
                    link.completion_signals(svc)
                        .iter()
                        .map(|p| wires[p.index()])
                        .collect(),
                )
            })
            .collect();
        // Activation gate and park watch: only the wires someone other
        // than the link's own pump can event (`PENDING`, raised by a
        // producer's `put`). Watching the full wire table would wake
        // the parked link — and re-arm its controller gate — once per
        // self-driven beat/handshake event for no behavioural gain.
        let wake: Vec<SignalId> = link
            .pump_wake_signals()
            .iter()
            .map(|p| wires[p.index()])
            .collect();
        let idx = {
            let mut reg = self.registry.borrow_mut();
            reg.batched.push(BatchedUnitEntry {
                name: name.to_string(),
                link,
                wires: wires.clone(),
                cycle: self.domains[domain.0].ratio.scale(self.config.hw_cycle),
                completion,
            });
            reg.batched.len() - 1
        };
        match self.sched.cfg.units {
            UnitScheduling::Sharded { .. } => {
                let (sched, ctx) = self.sched_ctx(domain.0);
                sched.add_unit_member(ctx, Handle::Batched(idx), wake);
            }
            UnitScheduling::PerUnit => {
                let registry = Rc::clone(&self.registry);
                let error = Rc::clone(&self.error);
                let clk = self.domains[domain.0].hw_clk;
                let watched = wake;
                let seen = Rc::new(RefCell::new(vec![0u64; watched.len()]));
                self.sched.per_unit_seen.push(Rc::clone(&seen));
                let demand = Rc::clone(&self.domains[domain.0].demand);
                demand.register(&mut self.sim);
                self.sim
                    .add_clocked(format!("{name}.pump"), clk, Edge::Rising, move |ctx| {
                        if error.borrow().is_some() {
                            demand.park(1);
                            return ClockControl::Halt;
                        }
                        let inputs_changed = wires_changed(ctx, &watched, &mut seen.borrow_mut());
                        let mut reg = registry.borrow_mut();
                        let BatchedUnitEntry {
                            name,
                            link,
                            wires,
                            cycle,
                            ..
                        } = &mut reg.batched[idx];
                        let mut ws = CtxWires {
                            ctx,
                            map: wires,
                            cycle: *cycle,
                        };
                        if let Err(e) = link.pump(&mut ws, inputs_changed) {
                            *error.borrow_mut() = Some(format!("batched link {name}: {e}"));
                            demand.park(1);
                            return ClockControl::Halt;
                        }
                        ClockControl::Continue
                    });
            }
        }
        let id = UnitId(self.handles.len());
        self.handles.push(Handle::Batched(idx));
        self.unit_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Installs the *sending* half of a boundary link: a regular batched
    /// unit whose delivered values are exported — stamped with
    /// `now + latency` — into the shared [`BoundaryQueue`] on every
    /// rising edge of the domain's HW clock. Producers in this
    /// partition `put` into it exactly as they would into a local
    /// [`BatchedLink`]; the matching *in* half
    /// ([`Cosim::add_boundary_in`]) on the other partition re-injects
    /// the values after the annotated latency.
    ///
    /// The exporter holds one permanent unit of clock demand (a
    /// boundary must keep observing its clock even when the rest of the
    /// partition is parked), and the backplane refuses [`Cosim::fork`]
    /// while boundary halves exist — their closures reach a queue the
    /// construction recipe cannot replay.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_boundary_out(
        &mut self,
        domain: DomainId,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
        latency: Duration,
        queue: Rc<RefCell<BoundaryQueue>>,
    ) -> Result<UnitId, CosimError> {
        if latency == Duration::ZERO {
            return Err(CosimError::Setup(format!(
                "boundary link {name}: latency must be positive (zero-latency coupling \
                 would need same-instant cross-partition delivery, which the optimistic \
                 sync cannot order deterministically)"
            )));
        }
        let id =
            self.add_batched_unit_in_with(domain, name, data_ty, max_batch, capacity, timing)?;
        let Handle::Batched(idx) = self.handles[id.0] else {
            unreachable!("add_batched_unit_in_with returns a batched handle");
        };
        let registry = Rc::clone(&self.registry);
        let error = Rc::clone(&self.error);
        let demand = Rc::clone(&self.domains[domain.0].demand);
        demand.register(&mut self.sim);
        let clk = self.domains[domain.0].hw_clk;
        self.sim
            .add_clocked(format!("{name}.export"), clk, Edge::Rising, move |ctx| {
                if error.borrow().is_some() {
                    demand.park(1);
                    return ClockControl::Halt;
                }
                let now = ctx.now();
                let mut reg = registry.borrow_mut();
                let BatchedUnitEntry {
                    name,
                    link,
                    wires,
                    cycle,
                    ..
                } = &mut reg.batched[idx];
                loop {
                    let mut ws = CtxWires {
                        ctx,
                        map: wires,
                        cycle: *cycle,
                    };
                    match link.get(BOUNDARY_CALLER, &mut ws) {
                        Ok(out) if out.done => {
                            let v = out.result.expect("done get always carries a value");
                            queue.borrow_mut().entries.push((now + latency, v));
                        }
                        Ok(_) => break,
                        Err(e) => {
                            *error.borrow_mut() = Some(format!("boundary link {name}: {e}"));
                            demand.park(1);
                            return ClockControl::Halt;
                        }
                    }
                }
                ClockControl::Continue
            });
        self.boundaries += 1;
        Ok(id)
    }

    /// Installs the *receiving* half of a boundary link: a regular
    /// batched unit into which queue entries whose arrival time has
    /// been reached are injected (`put`) on every rising edge of the
    /// domain's HW clock. Consumers in this partition `get` from it
    /// exactly as from a local [`BatchedLink`]. A `put` rejected by
    /// backpressure leaves the cursor in place and retries next edge.
    ///
    /// Holds one permanent unit of clock demand, like
    /// [`Cosim::add_boundary_out`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_boundary_in(
        &mut self,
        domain: DomainId,
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
        queue: Rc<RefCell<BoundaryQueue>>,
    ) -> Result<UnitId, CosimError> {
        let id =
            self.add_batched_unit_in_with(domain, name, data_ty, max_batch, capacity, timing)?;
        let Handle::Batched(idx) = self.handles[id.0] else {
            unreachable!("add_batched_unit_in_with returns a batched handle");
        };
        let registry = Rc::clone(&self.registry);
        let error = Rc::clone(&self.error);
        let demand = Rc::clone(&self.domains[domain.0].demand);
        demand.register(&mut self.sim);
        let clk = self.domains[domain.0].hw_clk;
        self.sim
            .add_clocked(format!("{name}.inject"), clk, Edge::Rising, move |ctx| {
                if error.borrow().is_some() {
                    demand.park(1);
                    return ClockControl::Halt;
                }
                let now = ctx.now();
                let mut reg = registry.borrow_mut();
                let BatchedUnitEntry {
                    name,
                    link,
                    wires,
                    cycle,
                    ..
                } = &mut reg.batched[idx];
                loop {
                    let next = {
                        let q = queue.borrow();
                        q.entries.get(q.cursor).cloned()
                    };
                    let Some((t_arr, v)) = next else { break };
                    if t_arr > now {
                        break;
                    }
                    let mut ws = CtxWires {
                        ctx,
                        map: wires,
                        cycle: *cycle,
                    };
                    match link.put(BOUNDARY_CALLER, v, &mut ws) {
                        Ok(out) if out.done => queue.borrow_mut().cursor += 1,
                        Ok(_) => break,
                        Err(e) => {
                            *error.borrow_mut() = Some(format!("boundary link {name}: {e}"));
                            demand.park(1);
                            return ClockControl::Halt;
                        }
                    }
                }
                ClockControl::Continue
            });
        self.boundaries += 1;
        Ok(id)
    }

    /// Installs a native (platform) unit. Units with real background
    /// activity ([`NativeUnit::needs_step`]) are stepped once per HW
    /// cycle; purely call-driven units cost nothing per cycle under
    /// sharded scheduling.
    ///
    /// A unit exposing [`NativeUnit::occupancy`] gets a kernel `OCC`
    /// signal (`<name>.OCC`) mirroring its queue occupancy, driven after
    /// every call and step. That makes native state changes
    /// wire-visible: `completion_signals` become non-empty, so a caller
    /// blocked on the unit (e.g. `get` against an empty FIFO) *parks*
    /// on occupancy events instead of burning one no-op activation per
    /// clock edge.
    pub fn add_native_unit(&mut self, name: &str, unit: Box<dyn NativeUnit>) -> UnitId {
        self.add_native_unit_in(DomainId::BASE, name, unit)
            .expect("the base domain always exists")
    }

    /// [`Cosim::add_native_unit`] into an explicit clock domain: the
    /// unit's background steps run on that domain's HW clock.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if the domain id does not belong
    /// to this backplane.
    pub fn add_native_unit_in(
        &mut self,
        domain: DomainId,
        name: &str,
        unit: Box<dyn NativeUnit>,
    ) -> Result<UnitId, CosimError> {
        self.check_domain(domain, name)?;
        self.recipe.push(RecipeOp::NativeUnit {
            name: name.to_string(),
            domain: domain.0,
        });
        let occ_init = unit.occupancy();
        let occ = occ_init.map(|v| {
            self.sim
                .add_signal(format!("{name}.OCC"), Type::INT16, Value::Int(v))
        });
        let completion: Vec<SignalId> = occ.into_iter().collect();
        let idx = {
            let mut reg = self.registry.borrow_mut();
            reg.native.push(NativeEntry {
                name: name.to_string(),
                unit,
                occ,
                occ_driven: occ_init.unwrap_or(0),
                completion: completion.clone(),
            });
            reg.native.len() - 1
        };
        match self.sched.cfg.units {
            UnitScheduling::Sharded { .. } => {
                let (sched, ctx) = self.sched_ctx(domain.0);
                sched.add_unit_member(ctx, Handle::Native(idx), completion);
            }
            UnitScheduling::PerUnit => {
                let registry = Rc::clone(&self.registry);
                let clk = self.domains[domain.0].hw_clk;
                let demand = Rc::clone(&self.domains[domain.0].demand);
                demand.register(&mut self.sim);
                self.sim
                    .add_clocked(format!("{name}.step"), clk, Edge::Rising, move |ctx| {
                        let mut reg = registry.borrow_mut();
                        let entry = &mut reg.native[idx];
                        entry.unit.step();
                        sync_native_occ(entry, ctx);
                        ClockControl::Continue
                    });
            }
        }
        let id = UnitId(self.handles.len());
        self.handles.push(Handle::Native(idx));
        self.unit_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a unit by instance name.
    #[must_use]
    pub fn unit(&self, name: &str) -> Option<UnitId> {
        self.unit_names.get(name).copied()
    }

    /// Adds a module whose ports get fresh kernel signals named
    /// `<module>.<PORT>`. `bindings` maps binding names to unit ids.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if a binding name is unknown or left
    /// unbound.
    pub fn add_module(
        &mut self,
        module: &Module,
        bindings: &[(&str, UnitId)],
    ) -> Result<CosimModuleId, CosimError> {
        self.add_module_in(DomainId::BASE, module, bindings)
    }

    /// [`Cosim::add_module`] into an explicit clock domain: the module
    /// activates on that domain's HW or SW clock (by
    /// [`ModuleKind`]), so a 4:1 domain's module performs one FSM
    /// transition for every four base-domain activations.
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::add_module`], plus [`CosimError::Setup`] if the
    /// domain id does not belong to this backplane.
    pub fn add_module_in(
        &mut self,
        domain: DomainId,
        module: &Module,
        bindings: &[(&str, UnitId)],
    ) -> Result<CosimModuleId, CosimError> {
        self.check_domain(domain, module.name())?;
        let ports: Vec<SignalId> = module
            .ports()
            .iter()
            .map(|p| {
                self.sim.add_signal(
                    format!("{}.{}", module.name(), p.name()),
                    p.ty().clone(),
                    p.ty().default_value(),
                )
            })
            .collect();
        let id = self.install_module(domain, module, bindings, ports)?;
        // Ports recorded as `None`: the fork replays by creating fresh
        // port signals, which — replayed in call order — get the same
        // ids the originals got.
        self.recipe.push(RecipeOp::Module {
            module: module.clone(),
            bindings: bindings
                .iter()
                .map(|(n, u)| ((*n).to_string(), *u))
                .collect(),
            ports: None,
            domain: domain.0,
        });
        Ok(id)
    }

    /// Adds a module with an explicit port→signal map (used to share nets
    /// between the processes of one VHDL entity). `ports[i]` carries the
    /// signal for the module's `PortId(i)`.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] on arity mismatch or unresolved
    /// bindings.
    pub fn add_module_with_ports(
        &mut self,
        module: &Module,
        bindings: &[(&str, UnitId)],
        ports: Vec<SignalId>,
    ) -> Result<CosimModuleId, CosimError> {
        let id = self.install_module(DomainId::BASE, module, bindings, ports.clone())?;
        self.recipe.push(RecipeOp::Module {
            module: module.clone(),
            bindings: bindings
                .iter()
                .map(|(n, u)| ((*n).to_string(), *u))
                .collect(),
            ports: Some(ports),
            domain: 0,
        });
        Ok(id)
    }

    /// Shared installation body behind [`Cosim::add_module`] and
    /// [`Cosim::add_module_with_ports`], which differ only in port-signal
    /// provenance and in what they record on the fork recipe.
    fn install_module(
        &mut self,
        domain: DomainId,
        module: &Module,
        bindings: &[(&str, UnitId)],
        ports: Vec<SignalId>,
    ) -> Result<CosimModuleId, CosimError> {
        if ports.len() != module.ports().len() {
            return Err(CosimError::Setup(format!(
                "module {}: {} signals provided for {} ports",
                module.name(),
                ports.len(),
                module.ports().len()
            )));
        }
        let mut handle_by_binding: Vec<Option<Handle>> = vec![None; module.bindings().len()];
        for (bname, uid) in bindings {
            let Some(bid) = module.binding_id(bname) else {
                return Err(CosimError::Setup(format!(
                    "module {} has no binding named {bname}",
                    module.name()
                )));
            };
            handle_by_binding[bid.index()] = Some(self.handles[uid.0]);
        }
        let mut resolved = Vec::with_capacity(handle_by_binding.len());
        for (i, h) in handle_by_binding.into_iter().enumerate() {
            match h {
                Some(h) => resolved.push(h),
                None => {
                    return Err(CosimError::Setup(format!(
                        "module {}: binding {} left unbound",
                        module.name(),
                        module.bindings()[i].name()
                    )))
                }
            }
        }

        let idx = self.modules.borrow().len();
        let caller = CallerId(idx as u64);
        let clk = match module.kind() {
            ModuleKind::Hardware => self.domains[domain.0].hw_clk,
            ModuleKind::Software => self.domains[domain.0].sw_clk,
        };
        let exec = FsmExec::new(module.fsm());
        let status = ModuleStatus {
            state: module
                .fsm()
                .state(module.fsm().initial())
                .name()
                .to_string(),
            activations: 0,
            error: None,
        };
        self.modules.borrow_mut().push(ModuleEntry {
            name: module.name().to_string(),
            module: module.clone(),
            exec,
            ports,
            vars: module.vars().iter().map(|v| v.init().clone()).collect(),
            var_tys: module.vars().iter().map(|v| v.ty().clone()).collect(),
            bindings: resolved,
            caller,
            status,
        });
        match self.sched.cfg.modules {
            ModuleScheduling::Sharded { .. } => {
                let (sched, ctx) = self.sched_ctx(domain.0);
                sched.add_module(ctx, idx, clk);
            }
            ModuleScheduling::PerModule => {
                let demand = Rc::clone(&self.domains[domain.0].demand);
                self.register_per_module_process(idx, clk, demand);
            }
        }
        Ok(CosimModuleId(idx))
    }

    /// Registers the one-process-per-module path. The process
    /// steps its module on every rising clock edge; when the module
    /// proves stable it *parks* — swapping its clock sensitivity for
    /// the module's watch wires — unless parking is disabled.
    fn register_per_module_process(&mut self, idx: usize, clk: SignalId, demand: Rc<ClockDemand>) {
        let modules = Rc::clone(&self.modules);
        let registry = Rc::clone(&self.registry);
        let error = Rc::clone(&self.error);
        let trace = Rc::clone(&self.trace);
        let park = Rc::clone(&self.sched.park);
        let park_blocked = self.sched.cfg.park_blocked;
        let name = modules.borrow()[idx].name.clone();
        demand.register(&mut self.sim);
        // The scheduling state lives behind an Rc shared with the
        // activation scheduler, so whole-backplane snapshots can
        // capture and restore it.
        let pstate = Rc::new(RefCell::new(PerModuleProcState {
            counted: true,
            parked: false,
            watch: vec![],
            wait_dirty: true,
        }));
        self.sched.per_module.push(Rc::clone(&pstate));
        // Pooled execution env for this module's activations: pure
        // scratch, owned by the process closure so it never enters a
        // snapshot.
        let mut scratch = ModuleScratch::default();
        self.sim.add_process(
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
                        &registry,
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

    /// Assembles a validated [`cosma_core::System`]: every unit instance
    /// and module is added, with bindings resolved as declared.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] on assembly problems.
    pub fn add_system(
        &mut self,
        sys: &cosma_core::System,
    ) -> Result<Vec<CosimModuleId>, CosimError> {
        let unit_ids: Vec<UnitId> = sys
            .units()
            .iter()
            .map(|u| self.add_fsm_unit(u.name(), u.spec().clone()))
            .collect();
        let mut module_ids = vec![];
        for (mi, module) in sys.modules().iter().enumerate() {
            let mut binds: Vec<(&str, UnitId)> = vec![];
            for (bi, b) in module.bindings().iter().enumerate() {
                let Some(ui) = sys.unit_index_for(mi, cosma_core::ids::BindingId::new(bi as u32))
                else {
                    return Err(CosimError::Setup(format!(
                        "system {}: module {} binding {} unbound",
                        sys.name(),
                        module.name(),
                        b.name()
                    )));
                };
                binds.push((b.name(), unit_ids[ui]));
            }
            module_ids.push(self.add_module(module, &binds)?);
        }
        Ok(module_ids)
    }

    /// Runs the co-simulation for a span.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Runtime`] if any module or controller hit an
    /// evaluation error, or [`CosimError::Sim`] on kernel errors.
    pub fn run_for(&mut self, d: Duration) -> Result<(), CosimError> {
        self.sim.run_for(d)?;
        if let Some(msg) = self.error.borrow().clone() {
            return Err(CosimError::Runtime(msg));
        }
        Ok(())
    }

    /// Runs until an absolute deadline.
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::run_for`].
    pub fn run_until(&mut self, t: SimTime) -> Result<(), CosimError> {
        self.sim.run_until(t)?;
        if let Some(msg) = self.error.borrow().clone() {
            return Err(CosimError::Runtime(msg));
        }
        Ok(())
    }

    /// Whether any kernel activity is still scheduled
    /// ([`Simulator::pending_activity`]). Once false, further runs can
    /// never change a signal: the backplane is quiescent for good (all
    /// processes halted or waiting forever).
    #[must_use]
    pub fn pending_activity(&self) -> bool {
        self.sim.pending_activity()
    }

    /// Run-to-quiescence: advances until `limit` or until the kernel has
    /// nothing scheduled, whichever comes first. Returns `true` when
    /// quiescence was reached — the final state is then the system's
    /// forever state, and harness loops (e.g.
    /// `run_to_completion`-style chunked polling) can stop early.
    ///
    /// The activation clock generators park once every
    /// backplane-registered clocked body (module, unit controller,
    /// native step) has halted, so an empty or fully-halted backplane
    /// really does quiesce. Processes registered directly through
    /// [`Cosim::sim_mut`] are not counted: they see clock edges only
    /// while at least one backplane body keeps the clocks alive.
    ///
    /// # Errors
    ///
    /// Same as [`Cosim::run_for`].
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> Result<bool, CosimError> {
        self.run_until(limit)?;
        Ok(!self.sim.pending_activity())
    }

    /// Live status of a module.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this backplane.
    #[must_use]
    pub fn module_status(&self, id: CosimModuleId) -> ModuleStatus {
        self.modules.borrow()[id.0].status.clone()
    }

    /// Finds a module id by name.
    #[must_use]
    pub fn find_module(&self, name: &str) -> Option<CosimModuleId> {
        self.modules
            .borrow()
            .iter()
            .position(|e| e.name == name)
            .map(CosimModuleId)
    }

    /// Current value of a module variable, by name.
    #[must_use]
    pub fn module_var(&self, id: CosimModuleId, var: &str) -> Option<Value> {
        let modules = self.modules.borrow();
        let e = &modules[id.0];
        let vid = e.module.var_id(var)?;
        e.vars.get(vid.index()).cloned()
    }

    /// Statistics of a unit instance.
    #[must_use]
    pub fn unit_stats(&self, name: &str) -> Option<UnitStats> {
        let id = self.unit_names.get(name)?;
        let reg = self.registry.borrow();
        match self.handles[id.0] {
            Handle::Fsm(i) => Some(reg.fsm[i].runtime.stats().clone()),
            Handle::Native(i) => Some(reg.native[i].unit.stats().clone()),
            Handle::Batched(i) => Some(reg.batched[i].link.stats()),
        }
    }

    /// Snapshot of the trace log.
    #[must_use]
    pub fn trace_log(&self) -> TraceLog {
        self.trace.borrow().clone()
    }

    /// Appends an external event to the trace log (used by testbench
    /// processes).
    pub fn trace_handle(&self) -> Rc<RefCell<TraceLog>> {
        Rc::clone(&self.trace)
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
fn install_clock_generators(
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

/// One construction step of a backplane, recorded by the `add_*`
/// methods so [`Cosim::fork`] can replay it onto a fresh backplane.
/// Replay is deterministic: ids (signals, processes, units, modules)
/// and hashed shard placement depend only on call order, so the twin's
/// structure is bit-identical to the original's.
enum RecipeOp {
    /// [`Cosim::add_clock_domain`] — domains precede every unit and
    /// module, so replay rebuilds the same clock/kick signals and
    /// generator processes before placement starts.
    ClockDomain { name: String, num: u64, den: u64 },
    /// [`Cosim::add_fsm_unit`] — the spec is immutable and shared by
    /// `Arc`, so recording (and replaying) it is a refcount bump.
    FsmUnit {
        name: String,
        spec: Arc<CommUnitSpec>,
        domain: usize,
    },
    /// [`Cosim::add_batched_unit_with`] (and therefore also
    /// [`Cosim::add_batched_unit`], which delegates with
    /// [`BusTiming::LengthOnly`]).
    BatchedUnit {
        name: String,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
        timing: BusTiming,
        domain: usize,
    },
    /// [`Cosim::add_native_unit`]. The boxed unit itself cannot be
    /// cloned; replay asks the *original* unit for a structural twin
    /// via [`NativeUnit::fork_fresh`] and restores state on top.
    NativeUnit { name: String, domain: usize },
    /// [`Cosim::add_module`] (`ports: None` — replay creates fresh
    /// port signals) or [`Cosim::add_module_with_ports`]
    /// (`ports: Some` — replay reuses the recorded signal ids, which
    /// resolve identically on the twin).
    Module {
        module: Module,
        bindings: Vec<(String, UnitId)>,
        ports: Option<Vec<SignalId>>,
        domain: usize,
    },
}

/// Captured state of one unit shard ([`ShardState`] minus its
/// immutable member bodies): per-member event-count gates plus the
/// shard's active/parked split and counters.
#[derive(Clone)]
struct ShardSnap {
    seen_events: Vec<Vec<u64>>,
    active: Vec<u32>,
    parked: Vec<u32>,
    wait_dirty: bool,
    halted: bool,
    runs: u64,
    units_stepped: u64,
    units_skipped: u64,
    wire_wakeups: u64,
    watch_probes: u64,
}

fn snap_shard(st: &ShardState) -> ShardSnap {
    ShardSnap {
        seen_events: st.members.iter().map(|m| m.seen_events.clone()).collect(),
        active: st.active.clone(),
        parked: st.parked.clone(),
        wait_dirty: st.wait_dirty,
        halted: st.halted,
        runs: st.runs,
        units_stepped: st.units_stepped,
        units_skipped: st.units_skipped,
        wire_wakeups: st.wire_wakeups,
        watch_probes: st.watch_probes,
    }
}

fn apply_shard(st: &mut ShardState, snap: &ShardSnap) {
    for (m, seen) in st.members.iter_mut().zip(&snap.seen_events) {
        m.seen_events.clone_from(seen);
    }
    st.active.clone_from(&snap.active);
    st.parked.clone_from(&snap.parked);
    st.wait_dirty = snap.wait_dirty;
    st.halted = snap.halted;
    st.runs = snap.runs;
    st.units_stepped = snap.units_stepped;
    st.units_skipped = snap.units_skipped;
    st.wire_wakeups = snap.wire_wakeups;
    st.watch_probes = snap.watch_probes;
}

/// Captured state of one module driver shard.
#[derive(Clone)]
struct DriverShardSnap {
    /// Per-member park watch sets, in member order.
    watches: Vec<Vec<SignalId>>,
    active: Vec<u32>,
    parked: Vec<u32>,
    watch_dirty: bool,
    watcher_armed: bool,
}

/// Captured state of the module driver ([`DriverState`] minus its
/// per-cycle scratch, which is rebuilt every cycle).
#[derive(Clone)]
struct DriverSnap {
    shards: Vec<DriverShardSnap>,
    halted: bool,
    runs: u64,
    skipped: u64,
    wire_wakeups: u64,
}

/// Captured park/resume accounting.
#[derive(Clone)]
struct ParkSnap {
    parked: u64,
    resumed: u64,
    parked_now: usize,
    modules_stepped: u64,
}

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
/// state, variables, status), the activation scheduler (shard
/// active/parked splits, watch sets, event-count gates, module driver
/// state), park/demand accounting, the global error latch, and the
/// trace log.
///
/// **Stats are captured and restored verbatim** — a restored run's
/// counters continue from the snapshot's values, so its *deltas* match
/// the uninterrupted run's deltas exactly.
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
    fsm: Vec<FsmUnitState>,
    batched: Vec<BatchedLinkState>,
    /// Native unit states, paired with the entry's `occ_driven` mirror.
    /// `None` when the unit does not implement
    /// [`NativeUnit::save_state`] — detected at restore/fork time so
    /// `snapshot()` itself stays infallible.
    native: Vec<(Option<NativeUnitState>, i64)>,
    modules: Vec<ModuleSnap>,
    unit_shards: Vec<ShardSnap>,
    driver: Option<DriverSnap>,
    per_module: Vec<PerModuleProcState>,
    per_unit_seen: Vec<Vec<u64>>,
    park: ParkSnap,
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
            .field("fsm_units", &self.fsm.len())
            .field("batched_units", &self.batched.len())
            .field("native_units", &self.native.len())
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
        let reg = self.registry.borrow();
        Snapshot {
            sim: self.sim.save_state(),
            fsm: reg.fsm.iter().map(|e| e.runtime.capture_state()).collect(),
            batched: reg.batched.iter().map(|e| e.link.capture_state()).collect(),
            native: reg
                .native
                .iter()
                .map(|e| (e.unit.save_state(), e.occ_driven))
                .collect(),
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
            unit_shards: self
                .sched
                .unit_shards
                .iter()
                .map(|s| snap_shard(&s.borrow()))
                .collect(),
            driver: self.sched.driver.as_ref().map(|d| {
                let st = d.borrow();
                DriverSnap {
                    shards: st
                        .shards
                        .iter()
                        .map(|sh| DriverShardSnap {
                            watches: sh.members.iter().map(|m| m.watch.clone()).collect(),
                            active: sh.active.clone(),
                            parked: sh.parked.clone(),
                            watch_dirty: sh.watch_dirty,
                            watcher_armed: sh.watcher_armed,
                        })
                        .collect(),
                    halted: st.halted,
                    runs: st.runs,
                    skipped: st.skipped,
                    wire_wakeups: st.wire_wakeups,
                }
            }),
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
            park: ParkSnap {
                parked: self.sched.park.parked.get(),
                resumed: self.sched.park.resumed.get(),
                parked_now: self.sched.park.parked_now.get(),
                modules_stepped: self.sched.park.modules_stepped.get(),
            },
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
        let reg = self.registry.borrow();
        ensure(reg.fsm.len() == snap.fsm.len(), || {
            format!(
                "snapshot has {} FSM units, backplane has {}",
                snap.fsm.len(),
                reg.fsm.len()
            )
        })?;
        ensure(reg.batched.len() == snap.batched.len(), || {
            format!(
                "snapshot has {} batched units, backplane has {}",
                snap.batched.len(),
                reg.batched.len()
            )
        })?;
        ensure(reg.native.len() == snap.native.len(), || {
            format!(
                "snapshot has {} native units, backplane has {}",
                snap.native.len(),
                reg.native.len()
            )
        })?;
        for (entry, (st, _)) in reg.native.iter().zip(&snap.native) {
            ensure(st.is_some(), || {
                format!(
                    "native unit {} was captured without state (no save_state support)",
                    entry.name
                )
            })?;
        }
        ensure(self.modules.borrow().len() == snap.modules.len(), || {
            format!(
                "snapshot has {} modules, backplane has {}",
                snap.modules.len(),
                self.modules.borrow().len()
            )
        })?;
        let shards = &self.sched.unit_shards;
        ensure(shards.len() == snap.unit_shards.len(), || {
            format!(
                "snapshot has {} unit shards, backplane has {}",
                snap.unit_shards.len(),
                shards.len()
            )
        })?;
        for (i, (sh, sn)) in shards.iter().zip(&snap.unit_shards).enumerate() {
            ensure(sh.borrow().members.len() == sn.seen_events.len(), || {
                format!("unit shard {i} member count differs from snapshot")
            })?;
        }
        ensure(self.sched.driver.is_some() == snap.driver.is_some(), || {
            "module driver presence differs from snapshot".to_string()
        })?;
        if let (Some(d), Some(ds)) = (&self.sched.driver, &snap.driver) {
            let st = d.borrow();
            ensure(st.shards.len() == ds.shards.len(), || {
                format!(
                    "snapshot has {} driver shards, backplane has {}",
                    ds.shards.len(),
                    st.shards.len()
                )
            })?;
            for (i, (sh, sn)) in st.shards.iter().zip(&ds.shards).enumerate() {
                ensure(sh.members.len() == sn.watches.len(), || {
                    format!("driver shard {i} member count differs from snapshot")
                })?;
            }
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
    /// Returns [`CosimError::Setup`] when the snapshot's structure does
    /// not match this backplane (unit/module/shard counts, driver
    /// shape, native units without state support), or
    /// [`CosimError::Sim`] when the kernel rejects the snapshot
    /// (signal/process table mismatch — e.g. processes added through
    /// [`Cosim::sim_mut`] after the snapshot was taken). All structural
    /// checks run before any mutation, so on these errors the
    /// backplane is left untouched. A failure *after* them (a unit
    /// rejecting state it once produced) cannot happen between
    /// structurally identical backplanes but would leave the state
    /// partially applied; the error is surfaced either way.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), CosimError> {
        self.check_snapshot_shape(snap)?;
        // The kernel validates its own table (names and counts) and is
        // untouched on mismatch — it is the last fallible gate before
        // mutation starts.
        self.sim.load_state(&snap.sim)?;
        {
            let mut reg = self.registry.borrow_mut();
            for (e, st) in reg.fsm.iter_mut().zip(&snap.fsm) {
                e.runtime
                    .restore_state(st)
                    .map_err(|err| CosimError::Setup(format!("unit {}: {err}", e.name)))?;
            }
            for (e, st) in reg.batched.iter_mut().zip(&snap.batched) {
                e.link
                    .restore_state(st)
                    .map_err(|err| CosimError::Setup(format!("batched link {}: {err}", e.name)))?;
            }
            for (e, (st, occ_driven)) in reg.native.iter_mut().zip(&snap.native) {
                let st = st.as_ref().expect("checked by check_snapshot_shape");
                e.unit
                    .load_state(st)
                    .map_err(|err| CosimError::Setup(format!("native unit {}: {err}", e.name)))?;
                e.occ_driven = *occ_driven;
            }
        }
        {
            let mut modules = self.modules.borrow_mut();
            for (e, ms) in modules.iter_mut().zip(&snap.modules) {
                e.exec = ms.exec.clone();
                e.vars.clone_from(&ms.vars);
                e.status = ms.status.clone();
            }
        }
        for (sh, sn) in self.sched.unit_shards.iter().zip(&snap.unit_shards) {
            apply_shard(&mut sh.borrow_mut(), sn);
        }
        if let (Some(d), Some(ds)) = (&self.sched.driver, &snap.driver) {
            let mut st = d.borrow_mut();
            for (sh, sn) in st.shards.iter_mut().zip(&ds.shards) {
                for (m, w) in sh.members.iter_mut().zip(&sn.watches) {
                    m.watch.clone_from(w);
                }
                sh.active.clone_from(&sn.active);
                sh.parked.clone_from(&sn.parked);
                sh.watch_dirty = sn.watch_dirty;
                sh.watcher_armed = sn.watcher_armed;
            }
            st.halted = ds.halted;
            st.runs = ds.runs;
            st.skipped = ds.skipped;
            st.wire_wakeups = ds.wire_wakeups;
        }
        for (p, sn) in self.sched.per_module.iter().zip(&snap.per_module) {
            *p.borrow_mut() = sn.clone();
        }
        for (p, sn) in self.sched.per_unit_seen.iter().zip(&snap.per_unit_seen) {
            p.borrow_mut().clone_from(sn);
        }
        self.sched.park.parked.set(snap.park.parked);
        self.sched.park.resumed.set(snap.park.resumed);
        self.sched.park.parked_now.set(snap.park.parked_now);
        self.sched
            .park
            .modules_stepped
            .set(snap.park.modules_stepped);
        for (d, v) in self.domains.iter().zip(&snap.demand) {
            d.demand.demand.set(*v);
        }
        *self.error.borrow_mut() = snap.error.clone();
        *self.trace.borrow_mut() = snap.trace.clone();
        Ok(())
    }

    /// Forks an independent backplane resuming from `snap`.
    ///
    /// Construction is replayed from the recorded recipe — immutable
    /// specs ([`CommUnitSpec`], [`Module`] internals) are shared by
    /// refcount, everything mutable is rebuilt — and the snapshot is
    /// then restored onto the twin. The fork and the original share no
    /// mutable state: running one never affects the other, and both
    /// replay bit-identically from the snapshot point.
    ///
    /// `snap` may come from this backplane or any fork sibling. The
    /// original is not modified (`&self`).
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] when a native unit does not
    /// support forking ([`NativeUnit::fork_fresh`]), when processes
    /// were registered directly through [`Cosim::sim_mut`] (the recipe
    /// cannot replay them, so the kernel table mismatches), or any
    /// error [`Cosim::restore`] reports.
    pub fn fork(&self, snap: &Snapshot) -> Result<Cosim, CosimError> {
        if self.boundaries > 0 {
            return Err(CosimError::Setup(
                "forking is unsupported while boundary links are installed: boundary \
                 processes reach queues shared with another backplane, which the \
                 construction recipe cannot replay"
                    .to_string(),
            ));
        }
        let mut twin = Cosim::new(self.config);
        twin.set_scheduling(self.sched.cfg)?;
        let reg = self.registry.borrow();
        let mut native_i = 0;
        for op in &self.recipe {
            match op {
                RecipeOp::ClockDomain { name, num, den } => {
                    twin.add_clock_domain(name, *num, *den)?;
                }
                RecipeOp::FsmUnit { name, spec, domain } => {
                    twin.add_fsm_unit_in(DomainId(*domain), name, Arc::clone(spec))?;
                }
                RecipeOp::BatchedUnit {
                    name,
                    data_ty,
                    max_batch,
                    capacity,
                    timing,
                    domain,
                } => {
                    twin.add_batched_unit_in_with(
                        DomainId(*domain),
                        name,
                        data_ty.clone(),
                        *max_batch,
                        *capacity,
                        *timing,
                    )?;
                }
                RecipeOp::NativeUnit { name, domain } => {
                    let entry = &reg.native[native_i];
                    native_i += 1;
                    let fresh = entry.unit.fork_fresh().ok_or_else(|| {
                        CosimError::Setup(format!(
                            "native unit {} does not support forking",
                            entry.name
                        ))
                    })?;
                    twin.add_native_unit_in(DomainId(*domain), name, fresh)?;
                }
                RecipeOp::Module {
                    module,
                    bindings,
                    ports,
                    domain,
                } => {
                    let binds: Vec<(&str, UnitId)> =
                        bindings.iter().map(|(n, u)| (n.as_str(), *u)).collect();
                    match ports {
                        None => twin.add_module_in(DomainId(*domain), module, &binds)?,
                        Some(p) => twin.add_module_with_ports(module, &binds, p.clone())?,
                    };
                }
            }
        }
        drop(reg);
        twin.restore(snap)?;
        Ok(twin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_comm::{handshake_unit, FifoChannel};
    use cosma_core::{Expr, ModuleBuilder, Stmt};

    fn producer(values: &[i64]) -> Module {
        let mut p = ModuleBuilder::new("producer", ModuleKind::Software);
        let done = p.var("D", Type::Bool, Value::Bool(false));
        let idx = p.var("I", Type::INT16, Value::Int(0));
        let b = p.binding("iface", "hs");
        let put = p.state("PUT");
        let end = p.state("END");
        // Send values[I] until I == len; the helper requires an
        // arithmetic progression so the argument is base + I * step.
        let step = if values.len() > 1 {
            values[1] - values[0]
        } else {
            0
        };
        let arg = Expr::int(values[0]).add(Expr::var(idx).mul(Expr::int(step)));
        p.actions(
            put,
            vec![Stmt::Call(ServiceCall {
                binding: b,
                service: "put".into(),
                args: vec![arg],
                done: Some(done),
                result: None,
            })],
        );
        p.transition_with(
            put,
            Some(Expr::var(done).and(Expr::var(idx).ge(Expr::int(values.len() as i64 - 1)))),
            vec![],
            end,
        );
        p.transition_with(
            put,
            Some(Expr::var(done)),
            vec![Stmt::assign(idx, Expr::var(idx).add(Expr::int(1)))],
            put,
        );
        p.transition(end, None, end);
        p.initial(put);
        p.build().unwrap()
    }

    fn consumer(n: usize) -> Module {
        let mut c = ModuleBuilder::new("consumer", ModuleKind::Hardware);
        let done = c.var("D", Type::Bool, Value::Bool(false));
        let got = c.var("GOT", Type::INT16, Value::Int(0));
        let sum = c.var("SUM", Type::INT16, Value::Int(0));
        let count = c.var("N", Type::INT16, Value::Int(0));
        let b = c.binding("iface", "hs");
        let get = c.state("GET");
        let end = c.state("END");
        c.actions(
            get,
            vec![Stmt::Call(ServiceCall {
                binding: b,
                service: "get".into(),
                args: vec![],
                done: Some(done),
                result: Some(got),
            })],
        );
        c.transition_with(
            get,
            Some(Expr::var(done).and(Expr::var(count).ge(Expr::int(n as i64 - 1)))),
            vec![
                Stmt::assign(sum, Expr::var(sum).add(Expr::var(got))),
                Stmt::Trace("recv".into(), vec![Expr::var(got)]),
            ],
            end,
        );
        c.transition_with(
            get,
            Some(Expr::var(done)),
            vec![
                Stmt::assign(sum, Expr::var(sum).add(Expr::var(got))),
                Stmt::assign(count, Expr::var(count).add(Expr::int(1))),
                Stmt::Trace("recv".into(), vec![Expr::var(got)]),
            ],
            get,
        );
        c.transition(end, None, end);
        c.initial(get);
        c.build().unwrap()
    }

    #[test]
    fn sw_to_hw_exchange_over_handshake() {
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let p = producer(&[10, 20, 30]);
        let c = consumer(3);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(50)).unwrap();
        assert_eq!(cosim.module_status(cid).state, "END");
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(60)));
        // Trace captured all three receptions in order.
        let log = cosim.trace_log();
        let recvs: Vec<i64> = log
            .with_label("recv")
            .map(|e| e.values[0].as_int().unwrap())
            .collect();
        assert_eq!(recvs, vec![10, 20, 30]);
        // Stats flowed through.
        let stats = cosim.unit_stats("link").unwrap();
        assert_eq!(stats.services["put"].completions, 3);
        assert_eq!(stats.services["get"].completions, 3);
        assert!(stats.controller_steps > 0);
    }

    #[test]
    fn idle_controllers_are_gated_per_unit() {
        // Under the legacy per-unit scheduling: after the 3-value
        // exchange completes, the link's wires stop changing and its
        // controller self-loops without writes — from then on the
        // backplane skips its activations entirely.
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.set_scheduling(SchedulingConfig::legacy()).unwrap();
        let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let p = producer(&[10, 20, 30]);
        let c = consumer(3);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(200)).unwrap();
        assert_eq!(cosim.module_status(cid).state, "END");
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(60)));
        let stats = cosim.unit_stats("link").unwrap();
        assert_eq!(stats.services["put"].completions, 3);
        assert!(
            stats.controller_steps > 0,
            "the exchange required real steps"
        );
        assert!(
            stats.controller_skips > stats.controller_steps,
            "a long idle tail must be dominated by skipped activations \
             (steps {}, skips {})",
            stats.controller_steps,
            stats.controller_skips
        );
    }

    #[test]
    fn idle_shards_go_dormant() {
        // Under sharded scheduling the idle tail is even cheaper: once
        // the link's controller proves itself stable its shard drops
        // clock sensitivity, and the END-parked modules park their
        // shard too. Controller steps stall AND the shard processes
        // stop being woken.
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let p = producer(&[10, 20, 30]);
        let c = consumer(3);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(20)).unwrap();
        assert_eq!(cosim.module_status(cid).state, "END");
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(60)));
        let steps_after_exchange = cosim.unit_stats("link").unwrap().controller_steps;
        assert!(steps_after_exchange > 0, "the exchange required steps");
        let shard_runs_after_exchange = cosim.shard_stats().shard_runs;

        // A long idle tail: ~2000 further HW cycles.
        cosim.run_for(Duration::from_us(200)).unwrap();
        let stats = cosim.unit_stats("link").unwrap();
        assert_eq!(
            stats.controller_steps, steps_after_exchange,
            "idle controller never steps again"
        );
        let shard = cosim.shard_stats();
        assert_eq!(shard.shards, 2, "one unit shard, one module shard");
        assert_eq!(shard.dormant_shards, 2, "both parked themselves");
        assert_eq!(
            shard.shard_runs, shard_runs_after_exchange,
            "a dormant shard is not even woken by clock edges"
        );
        assert_eq!(shard.parked_now, 3, "link + both END modules parked");
    }

    #[test]
    fn batched_unit_in_backplane() {
        // A producer/consumer pair over a batched bus link: values are
        // queued per activation but cross the bus in whole batches — far
        // fewer wire handshakes than values.
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_batched_unit("bus", Type::INT16, 16, 64).unwrap();
        let p = producer(&[10, 20, 30, 40]);
        let c = consumer(4);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(50)).unwrap();
        assert_eq!(cosim.module_status(cid).state, "END");
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(100)));
        let stats = cosim.unit_stats("bus").unwrap();
        assert_eq!(stats.services["put"].completions, 4);
        assert_eq!(stats.services["get"].completions, 4);
        assert_eq!(stats.batched_values, 4);
        assert!(
            stats.batches < 4,
            "4 values must need fewer than 4 bus transactions (got {})",
            stats.batches
        );
        assert!(stats.max_batch_len >= 2);
        assert_eq!(
            stats.batch_len_hist.iter().sum::<u64>(),
            stats.batches,
            "histogram accounts for every bus transaction"
        );
    }

    #[test]
    fn batched_unit_agrees_across_schedulings() {
        // The same batched topology under the legacy and sharded paths
        // delivers identical values, states, traces and activations.
        fn run(scheduling: SchedulingConfig) -> (Option<Value>, ModuleStatus, Vec<i64>) {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(scheduling).unwrap();
            let link = cosim.add_batched_unit("bus", Type::INT16, 4, 32).unwrap();
            let p = producer(&[5, 6, 7]);
            let c = consumer(3);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(40)).unwrap();
            let recvs = cosim
                .trace_log()
                .with_label("recv")
                .map(|e| e.values[0].as_int().unwrap())
                .collect();
            (
                cosim.module_var(cid, "SUM"),
                cosim.module_status(cid),
                recvs,
            )
        }
        let sharded = run(SchedulingConfig::sharded());
        let per_unit = run(SchedulingConfig {
            park_blocked: true,
            ..SchedulingConfig::legacy()
        });
        assert_eq!(sharded, per_unit);
        assert_eq!(sharded.0, Some(Value::Int(18)));
        assert_eq!(sharded.1.state, "END");
        assert_eq!(sharded.2, vec![5, 6, 7]);
    }

    #[test]
    fn scheduling_locked_after_first_unit() {
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let err = cosim
            .set_scheduling(SchedulingConfig::legacy())
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)));
    }

    #[test]
    fn scheduling_locked_after_first_module() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        let err = cosim
            .set_scheduling(SchedulingConfig::legacy())
            .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)));
    }

    #[test]
    fn bad_batched_config_rejected() {
        let mut cosim = Cosim::new(CosimConfig::default());
        assert!(matches!(
            cosim.add_batched_unit("b", Type::INT16, 0, 4),
            Err(CosimError::Setup(_))
        ));
        assert!(matches!(
            cosim.add_batched_unit("b", Type::INT16, 4, 0),
            Err(CosimError::Setup(_))
        ));
        // A batch ceiling the INT16 DATA wire cannot carry is a typed
        // setup error, never a silent clamp.
        let err = cosim
            .add_batched_unit("b", Type::INT16, i16::MAX as usize + 1, 4)
            .unwrap_err();
        assert!(
            err.to_string().contains("exceeds"),
            "overflow error is descriptive: {err}"
        );
    }

    #[test]
    fn payload_beats_batched_unit_matches_length_only_in_backplane() {
        // The timing knob end to end: a PayloadBeats link delivers the
        // same values/states as LengthOnly, pays one DATA beat per
        // value in UnitStats, and takes longer doing it.
        fn run(timing: BusTiming) -> (Option<Value>, String, UnitStats, u64) {
            let mut cosim = Cosim::new(CosimConfig::default());
            let link = cosim
                .add_batched_unit_with("bus", Type::INT16, 8, 64, timing)
                .unwrap();
            let p = producer(&[10, 20, 30, 40]);
            let c = consumer(4);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(50)).unwrap();
            let last_recv = cosim
                .trace_log()
                .with_label("recv")
                .last()
                .map(|e| e.at)
                .unwrap_or(0);
            (
                cosim.module_var(cid, "SUM"),
                cosim.module_status(cid).state,
                cosim.unit_stats("bus").unwrap(),
                last_recv,
            )
        }
        let (fast_sum, fast_state, fast_stats, fast_done) = run(BusTiming::LengthOnly);
        let (beat_sum, beat_state, beat_stats, beat_done) = run(BusTiming::PayloadBeats);
        assert_eq!(fast_sum, beat_sum);
        assert_eq!(fast_sum, Some(Value::Int(100)));
        assert_eq!(fast_state, "END");
        assert_eq!(beat_state, "END");
        assert_eq!(fast_stats.payload_beats, 0, "fast path streams nothing");
        assert_eq!(
            beat_stats.payload_beats, beat_stats.batched_values,
            "one beat per value: occupancy linear in batch length"
        );
        assert_eq!(beat_stats.batched_values, 4);
        assert!(
            beat_done >= fast_done,
            "payload beats never finish earlier ({beat_done} vs {fast_done})"
        );
    }

    #[test]
    fn batch_latency_back_annotation_end_to_end() {
        // A LengthOnly reference run re-timed from a PayloadBeats
        // calibration run: the derived scale folds the per-batch
        // payload latency into the hw cycle, and the per-link report
        // carries the calibration run's beat occupancy.
        use crate::annotate::annotate_batch_latency;
        fn run(timing: BusTiming) -> (TraceLog, UnitStats) {
            let mut cosim = Cosim::new(CosimConfig::default());
            let link = cosim
                .add_batched_unit_with("bus", Type::INT16, 8, 64, timing)
                .unwrap();
            let p = producer(&[1, 2, 3, 4, 5, 6]);
            let c = consumer(6);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            cosim.add_module(&c, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(100)).unwrap();
            (cosim.trace_log(), cosim.unit_stats("bus").unwrap())
        }
        let (reference, _) = run(BusTiming::LengthOnly);
        let (calibration, cal_stats) = run(BusTiming::PayloadBeats);
        let nominal = CosimConfig::default().hw_cycle;
        let ann = annotate_batch_latency(
            &reference,
            &calibration,
            &["recv"],
            &[crate::annotate::LinkCalibration {
                link: "bus",
                stats: &cal_stats,
                labels: &["recv"],
                nominal_hw_cycle: nominal,
            }],
            nominal,
        )
        .expect("recv label spans both runs");
        assert!(
            ann.scale >= 1.0,
            "payload beats never make the bus faster (scale {})",
            ann.scale
        );
        assert!(ann.annotated_hw_cycle >= nominal);
        let link = ann.link("bus").expect("bus link reported");
        assert_eq!(link.beats, cal_stats.payload_beats);
        assert!(
            (link.beats_per_batch - link.values as f64 / link.batches as f64).abs() < 1e-9,
            "beats per batch == mean batch length (one beat per value)"
        );
    }

    #[test]
    fn many_idle_units_fill_multiple_dormant_shards() {
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim
            .set_scheduling(SchedulingConfig {
                units: UnitScheduling::Sharded { shard_size: 8 },
                ..SchedulingConfig::sharded()
            })
            .unwrap();
        for k in 0..20 {
            cosim.add_fsm_unit(&format!("quiet{k}"), handshake_unit("hs", Type::INT16));
        }
        // One live module keeps the clocks running (it halt-parks, but
        // stays counted as a live clocked body).
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        cosim.run_for(Duration::from_us(100)).unwrap();
        let shard = cosim.shard_stats();
        // Hashed placement opens 2-3 unit shards for 20 units at shard
        // size 8, plus one module shard.
        assert!(
            (3..=4).contains(&shard.shards),
            "expected 2-3 unit shards + 1 module shard, got {}",
            shard.shards
        );
        assert_eq!(shard.dormant_shards, shard.shards, "all idle, all parked");
        // Dormant shards were woken at most a handful of times while the
        // clock toggled ~2000 times.
        assert!(
            shard.shard_runs < 40,
            "idle shards must not track the clock (runs {})",
            shard.shard_runs
        );
    }

    #[test]
    fn quiescence_reached_after_last_timer_cancelled() {
        // Regression: a lazily-cancelled timer (dead heap entry) must not
        // stall run_to_quiescence. A testbench process holds the only
        // live timer; an event wake cancels it and the process parks.
        let mut cosim = Cosim::new(CosimConfig::default());
        let kick = cosim.sim_mut().add_bit("KICK");
        let mut woken = false;
        cosim.sim_mut().add_process(
            "waiter",
            FnProcess::new(move |ctx| {
                if ctx.event(kick) {
                    woken = true;
                }
                if woken {
                    Wait::Forever
                } else {
                    Wait::EventOrTimeout(vec![kick], Duration::from_us(500))
                }
            }),
        );
        cosim.run_until(SimTime::ZERO).unwrap();
        assert!(cosim.pending_activity(), "the 500us timer is live");
        cosim.sim_mut().poke(kick, Value::Bit(cosma_core::Bit::One));
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(10_000)).unwrap();
        assert!(
            quiesced,
            "dead timer entry at 500us must not report phantom pending work"
        );
        assert!(!cosim.pending_activity());
        assert_eq!(
            cosim.sim().now(),
            SimTime::from_ns(10_000),
            "run advanced to the limit, not to the dead deadline"
        );
    }

    #[test]
    fn empty_backplane_quiesces_immediately() {
        // No clocked bodies: the activation clock generators park at
        // elaboration, so the kernel truly runs dry.
        let mut cosim = Cosim::new(CosimConfig::default());
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(1000)).unwrap();
        assert!(quiesced, "nothing is clocked, so nothing is pending");
        assert!(!cosim.pending_activity());
    }

    #[test]
    fn fully_parked_backplane_quiesces() {
        // Quiescence for fully-parked backplanes: a bare self-loop
        // module proves itself stable on its first activation and
        // parks with no wakeable watch wire — as final as a halt. The
        // activation clock generators then stop, so the kernel truly
        // runs dry instead of toggling clocks forever.
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let mut cosim = Cosim::new(CosimConfig::default());
        let id = cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        assert!(cosim.pending_activity(), "elaboration is owed");
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(1000)).unwrap();
        assert!(quiesced, "everything parked: nothing can ever change");
        assert!(!cosim.pending_activity());
        assert_eq!(cosim.module_status(id).state, "S");
        assert_eq!(cosim.shard_stats().parked_now, 1);
    }

    #[test]
    fn unparked_backplane_never_quiesces_but_reports_it() {
        // With parking disabled the same self-loop module re-activates
        // every cycle forever — the clocks must keep running and
        // run_to_quiescence must say so.
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim
            .set_scheduling(SchedulingConfig {
                park_blocked: false,
                ..SchedulingConfig::sharded()
            })
            .unwrap();
        cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(1000)).unwrap();
        assert!(
            !quiesced,
            "an unparked module keeps the activation clocks running"
        );
        assert!(
            cosim.pending_activity(),
            "activation clocks keep timers armed"
        );
        assert_eq!(cosim.sim().now(), SimTime::from_ns(1000));
    }

    #[test]
    fn native_unit_in_backplane() {
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 8)));
        let p = producer(&[5, 6]);
        let c = consumer(2);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(20)).unwrap();
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(11)));
    }

    #[test]
    fn native_unit_snapshot_restore_and_fork() {
        // The scenario-level replay property covers FSM and batched
        // links; this pins the same contract for a native (platform)
        // unit: fifo contents, counters and stats all travel with the
        // snapshot, for both in-place restore and a forked twin.
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 8)));
        let p = producer(&[5, 6, 7, 8]);
        let c = consumer(4);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();

        // Stop mid-exchange so the fifo queue is live in the snapshot.
        cosim.run_for(Duration::from_ns(150)).unwrap();
        let snap = cosim.snapshot();
        let mid_sum = cosim.module_var(cid, "SUM");
        let mid_stats = cosim.unit_stats("fifo").unwrap();

        cosim.run_for(Duration::from_us(20)).unwrap();
        let end_sum = cosim.module_var(cid, "SUM");
        let end_state = cosim.module_status(cid).state.clone();
        let end_trace = cosim.trace_log();
        let end_stats = cosim.unit_stats("fifo").unwrap();
        assert_eq!(end_sum, Some(Value::Int(26)));
        assert_eq!(end_state, "END");
        assert_ne!(mid_sum, end_sum, "the checkpoint really is mid-run");

        // A forked twin starts at the snapshot instant and replays the
        // tail bit-identically — including the unit's statistics.
        let mut twin = cosim.fork(&snap).unwrap();
        assert_eq!(twin.sim().now(), snap.at());
        assert_eq!(twin.module_var(cid, "SUM"), mid_sum);
        assert_eq!(twin.unit_stats("fifo").unwrap(), mid_stats);
        twin.run_for(Duration::from_us(20)).unwrap();
        assert_eq!(twin.module_var(cid, "SUM"), end_sum);
        assert_eq!(twin.module_status(cid).state, end_state);
        assert_eq!(twin.trace_log(), end_trace);
        assert_eq!(twin.unit_stats("fifo").unwrap(), end_stats);

        // The original rewinds in place and replays the same tail.
        cosim.restore(&snap).unwrap();
        assert_eq!(cosim.module_var(cid, "SUM"), mid_sum);
        cosim.run_for(Duration::from_us(20)).unwrap();
        assert_eq!(cosim.module_var(cid, "SUM"), end_sum);
        assert_eq!(cosim.trace_log(), end_trace);
        assert_eq!(cosim.unit_stats("fifo").unwrap(), end_stats);
    }

    #[test]
    fn uncheckpointable_native_unit_fails_restore_cleanly() {
        // A native unit that keeps the default save_state (None) still
        // snapshots — the hole is detected at restore/fork time, with a
        // named error instead of a silently skipped unit.
        #[derive(Debug)]
        struct Opaque(cosma_comm::UnitStats);
        impl NativeUnit for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn services(&self) -> Vec<cosma_comm::NativeServiceDesc> {
                vec![]
            }
            fn call(
                &mut self,
                _caller: cosma_comm::CallerId,
                service: &str,
                _args: &[Value],
            ) -> Result<cosma_core::ServiceOutcome, cosma_core::EvalError> {
                Err(cosma_core::EvalError::Service(format!(
                    "opaque has no service {service}"
                )))
            }
            fn stats(&self) -> &cosma_comm::UnitStats {
                &self.0
            }
        }

        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_native_unit("opaque", Box::new(Opaque(cosma_comm::UnitStats::default())));
        cosim.run_for(Duration::from_ns(300)).unwrap();
        let before = cosim.sim().now();
        let snap = cosim.snapshot();
        let err = cosim.restore(&snap).unwrap_err();
        assert!(err.to_string().contains("opaque"), "names the unit: {err}");
        assert!(err.to_string().contains("save_state"));
        assert_eq!(cosim.sim().now(), before, "refused restore is a no-op");
        let err = cosim.fork(&snap).unwrap_err();
        assert!(err.to_string().contains("opaque"));
        // The backplane itself keeps running fine.
        cosim.run_for(Duration::from_ns(300)).unwrap();
    }

    #[test]
    fn one_activation_per_sw_cycle() {
        // A 3-state chain takes exactly 3 SW cycles to reach END.
        let mut b = ModuleBuilder::new("chain", ModuleKind::Software);
        let s1 = b.state("S1");
        let s2 = b.state("S2");
        let s3 = b.state("S3");
        b.transition(s1, None, s2);
        b.transition(s2, None, s3);
        b.transition(s3, None, s3);
        b.initial(s1);
        let m = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig {
            hw_cycle: Duration::from_ns(100),
            sw_cycle: Duration::from_ns(100),
        });
        let id = cosim.add_module(&m, &[]).unwrap();
        // Edges at 0, 100, 200: exactly 3 activations by t=250.
        cosim.run_for(Duration::from_ns(250)).unwrap();
        let st = cosim.module_status(id);
        assert_eq!(st.activations, 3);
        assert_eq!(st.state, "S3");
    }

    #[test]
    fn sw_slower_than_hw() {
        // Parking disabled: these bare self-loops would otherwise park
        // after proving stable, and the activation-rate comparison is
        // the whole point here.
        let mut b = ModuleBuilder::new("swm", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let sw = b.build().unwrap();
        let mut b = ModuleBuilder::new("hwm", ModuleKind::Hardware);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let hw = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig {
            hw_cycle: Duration::from_ns(100),
            sw_cycle: Duration::from_ns(400),
        });
        cosim
            .set_scheduling(SchedulingConfig {
                park_blocked: false,
                ..SchedulingConfig::sharded()
            })
            .unwrap();
        let swid = cosim.add_module(&sw, &[]).unwrap();
        let hwid = cosim.add_module(&hw, &[]).unwrap();
        cosim.run_for(Duration::from_us(4)).unwrap();
        let sw_act = cosim.module_status(swid).activations;
        let hw_act = cosim.module_status(hwid).activations;
        assert!(hw_act >= 3 * sw_act, "hw {hw_act} vs sw {sw_act}");
    }

    #[test]
    fn runtime_errors_surface() {
        let mut b = ModuleBuilder::new("crash", ModuleKind::Software);
        let x = b.var("X", Type::INT16, Value::Int(1));
        let s = b.state("S");
        b.actions(s, vec![Stmt::assign(x, Expr::var(x).div(Expr::int(0)))]);
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_module(&m, &[]).unwrap();
        let err = cosim.run_for(Duration::from_us(1)).unwrap_err();
        assert!(matches!(err, CosimError::Runtime(_)));
        assert!(err.to_string().contains("crash"));
    }

    #[test]
    fn module_error_recorded_in_status() {
        // Regression: a module halting on an evaluation error must
        // record the halting state and the error on its own status, not
        // just in the backplane's global error slot — and under both
        // scheduler paths.
        for cfg in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
            let mut b = ModuleBuilder::new("crash", ModuleKind::Software);
            let x = b.var("X", Type::INT16, Value::Int(1));
            let ok = b.state("OK");
            let boom = b.state("BOOM");
            b.transition(ok, None, boom);
            b.actions(boom, vec![Stmt::assign(x, Expr::var(x).div(Expr::int(0)))]);
            b.transition(boom, None, ok);
            b.initial(ok);
            let m = b.build().unwrap();
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let id = cosim.add_module(&m, &[]).unwrap();
            let err = cosim.run_for(Duration::from_us(1)).unwrap_err();
            let st = cosim.module_status(id);
            assert_eq!(st.state, "BOOM", "halting state recorded ({cfg:?})");
            let msg = st.error.expect("per-module error recorded");
            assert!(msg.contains("crash"), "error names the module: {msg}");
            assert_eq!(msg, err.to_string(), "same error surfaced globally");
            assert_eq!(st.activations, 1, "halting activation not counted");
        }
    }

    #[test]
    fn blocked_consumer_parks_until_first_put() {
        // The headline regression: a consumer blocked on `get` against
        // an empty link records ZERO activations from the moment it
        // proves stable until the producer's first `put` lands.
        fn delayed_producer(delay: i64, value: i64) -> Module {
            let mut p = ModuleBuilder::new("latecomer", ModuleKind::Software);
            let done = p.var("D", Type::Bool, Value::Bool(false));
            let cnt = p.var("C", Type::INT16, Value::Int(0));
            let b = p.binding("iface", "hs");
            let wait = p.state("WAIT");
            let put = p.state("PUT");
            let end = p.state("END");
            p.actions(
                wait,
                vec![Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1)))],
            );
            p.transition(wait, Some(Expr::var(cnt).ge(Expr::int(delay))), put);
            p.transition(wait, None, wait);
            p.actions(
                put,
                vec![Stmt::Call(ServiceCall {
                    binding: b,
                    service: "put".into(),
                    args: vec![Expr::int(value)],
                    done: Some(done),
                    result: None,
                })],
            );
            p.transition(put, Some(Expr::var(done)), end);
            p.transition(end, None, end);
            p.initial(wait);
            p.build().unwrap()
        }
        for cfg in [
            SchedulingConfig::sharded(),
            SchedulingConfig {
                park_blocked: true,
                ..SchedulingConfig::legacy()
            },
        ] {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
            // Producer counts ~400 cycles before its first put.
            let p = delayed_producer(400, 77);
            let c = consumer(1);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            // 10us = ~100 HW cycles: producer still counting.
            cosim.run_for(Duration::from_us(10)).unwrap();
            let blocked_at = cosim.module_status(cid).activations;
            assert!(
                blocked_at <= 3,
                "consumer proves stable within a couple of steps, got {blocked_at} ({cfg:?})"
            );
            let parked = cosim.shard_stats();
            assert!(parked.members_parked >= 1, "consumer parked ({cfg:?})");
            assert!(parked.parked_now >= 1);
            // Another ~100 cycles of empty link: ZERO further activations.
            cosim.run_for(Duration::from_us(10)).unwrap();
            assert_eq!(
                cosim.module_status(cid).activations,
                blocked_at,
                "parked consumer costs zero activations while blocked ({cfg:?})"
            );
            // The put lands around cycle 400; the wire events re-arm the
            // consumer and the exchange completes.
            cosim.run_for(Duration::from_us(40)).unwrap();
            let st = cosim.module_status(cid);
            assert_eq!(st.state, "END", "{cfg:?}");
            assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(77)));
            let stats = cosim.shard_stats();
            assert!(
                stats.members_resumed >= 1,
                "completion wires resumed the parked consumer ({cfg:?})"
            );
            assert!(
                st.activations > blocked_at,
                "real work resumed after the put ({cfg:?})"
            );
        }
    }

    #[test]
    fn parking_agrees_across_module_schedulings() {
        // Sharded modules and per-module processes park identically:
        // same states, same SUMs, same ACTIVATION COUNTS, same traces.
        fn run(cfg: SchedulingConfig) -> (Vec<ModuleStatus>, Vec<Option<Value>>, usize) {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
            let p = producer(&[3, 4, 5]);
            let c = consumer(3);
            let pid = cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(60)).unwrap();
            (
                vec![cosim.module_status(pid), cosim.module_status(cid)],
                vec![cosim.module_var(cid, "SUM")],
                cosim.trace_log().entries().len(),
            )
        }
        let sharded = run(SchedulingConfig::sharded());
        let per_module = run(SchedulingConfig {
            modules: ModuleScheduling::PerModule,
            ..SchedulingConfig::sharded()
        });
        assert_eq!(sharded, per_module);
        assert_eq!(sharded.1[0], Some(Value::Int(12)));
    }

    #[test]
    fn unbound_binding_rejected() {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        b.binding("iface", "hs");
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig::default());
        let err = cosim.add_module(&m, &[]).unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)));
    }

    #[test]
    fn add_system_end_to_end() {
        use cosma_core::SystemBuilder;
        let mut sysb = SystemBuilder::new("demo");
        let pm = sysb.module(producer(&[1, 2]));
        let cm = sysb.module(consumer(2));
        let u = sysb.unit("link", handshake_unit("hs", Type::INT16));
        sysb.bind(pm, "iface", u).unwrap();
        sysb.bind(cm, "iface", u).unwrap();
        let sys = sysb.build().unwrap();

        let mut cosim = Cosim::new(CosimConfig::default());
        let ids = cosim.add_system(&sys).unwrap();
        cosim.run_for(Duration::from_us(40)).unwrap();
        assert_eq!(cosim.module_var(ids[1], "SUM"), Some(Value::Int(3)));
    }

    #[test]
    fn module_port_signals_created() {
        let mut b = ModuleBuilder::new("pm", ModuleKind::Hardware);
        let port = b.port("LED", cosma_core::PortDir::Out, Type::Bit);
        let s = b.state("S");
        b.actions(s, vec![Stmt::drive(port, Expr::bit(cosma_core::Bit::One))]);
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_module(&m, &[]).unwrap();
        cosim.run_for(Duration::from_us(1)).unwrap();
        let sig = cosim.sim().find_signal("pm.LED").expect("signal exists");
        assert_eq!(cosim.sim().value(sig), &Value::Bit(cosma_core::Bit::One));
    }

    #[test]
    fn blocked_native_caller_parks_and_resumes_on_enqueue() {
        // Wire-visible native units: the FIFO's queue occupancy is
        // mirrored onto a kernel OCC signal, so a consumer blocked on
        // `get` against the empty FIFO parks — ZERO activations while
        // blocked — and resumes when the producer's enqueue lands.
        fn delayed_producer(delay: i64, value: i64) -> Module {
            let mut p = ModuleBuilder::new("latecomer", ModuleKind::Software);
            let done = p.var("D", Type::Bool, Value::Bool(false));
            let cnt = p.var("C", Type::INT16, Value::Int(0));
            let b = p.binding("iface", "fifo");
            let wait = p.state("WAIT");
            let put = p.state("PUT");
            let end = p.state("END");
            p.actions(
                wait,
                vec![Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1)))],
            );
            p.transition(wait, Some(Expr::var(cnt).ge(Expr::int(delay))), put);
            p.transition(wait, None, wait);
            p.actions(
                put,
                vec![Stmt::Call(ServiceCall {
                    binding: b,
                    service: "put".into(),
                    args: vec![Expr::int(value)],
                    done: Some(done),
                    result: None,
                })],
            );
            p.transition(put, Some(Expr::var(done)), end);
            p.transition(end, None, end);
            p.initial(wait);
            p.build().unwrap()
        }
        for cfg in [
            SchedulingConfig::sharded(),
            SchedulingConfig {
                park_blocked: true,
                ..SchedulingConfig::legacy()
            },
        ] {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 8)));
            assert!(
                cosim.sim().find_signal("fifo.OCC").is_some(),
                "occupancy mirrored onto a kernel signal"
            );
            let p = delayed_producer(400, 55);
            let c = consumer(1);
            cosim.add_module(&p, &[("iface", link)]).unwrap();
            let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
            // ~100 HW cycles: producer still counting, consumer blocked.
            cosim.run_for(Duration::from_us(10)).unwrap();
            let blocked_at = cosim.module_status(cid).activations;
            assert!(
                blocked_at <= 3,
                "consumer proves stable within a couple of steps, got {blocked_at} ({cfg:?})"
            );
            assert!(cosim.shard_stats().members_parked >= 1, "{cfg:?}");
            // Another ~100 cycles: ZERO further activations while blocked.
            cosim.run_for(Duration::from_us(10)).unwrap();
            assert_eq!(
                cosim.module_status(cid).activations,
                blocked_at,
                "parked native caller costs zero activations while blocked ({cfg:?})"
            );
            // The enqueue lands around cycle 400; the OCC event re-arms
            // the consumer and the exchange completes.
            cosim.run_for(Duration::from_us(40)).unwrap();
            let st = cosim.module_status(cid);
            assert_eq!(st.state, "END", "{cfg:?}");
            assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(55)));
            assert!(
                cosim.shard_stats().members_resumed >= 1,
                "OCC event resumed the parked consumer ({cfg:?})"
            );
        }
    }

    #[test]
    fn native_occ_mirror_survives_same_delta_churn() {
        // Regression: the OCC drive decision must compare against the
        // last *driven* value, not the committed signal value. With a
        // put and a get landing in the same delta (occupancy 0 -> 1 ->
        // 0), the committed-value comparison skipped the correcting
        // drive, left OCC stuck at 1 with an empty queue, and a later
        // put back to occupancy 1 then produced no event — so a parked
        // consumer never resumed.
        fn one_shot_producer(name: &str, value: i64) -> Module {
            let mut p = ModuleBuilder::new(name, ModuleKind::Software);
            let done = p.var("D", Type::Bool, Value::Bool(false));
            let b = p.binding("iface", "fifo");
            let put = p.state("PUT");
            let end = p.state("END");
            p.actions(
                put,
                vec![Stmt::Call(ServiceCall {
                    binding: b,
                    service: "put".into(),
                    args: vec![Expr::int(value)],
                    done: Some(done),
                    result: None,
                })],
            );
            p.transition(put, Some(Expr::var(done)), end);
            p.transition(end, None, end);
            p.initial(put);
            p.build().unwrap()
        }
        fn delayed_producer(name: &str, delay: i64, value: i64) -> Module {
            let mut p = ModuleBuilder::new(name, ModuleKind::Software);
            let done = p.var("D", Type::Bool, Value::Bool(false));
            let cnt = p.var("C", Type::INT16, Value::Int(0));
            let b = p.binding("iface", "fifo");
            let wait = p.state("WAIT");
            let put = p.state("PUT");
            let end = p.state("END");
            p.actions(
                wait,
                vec![Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1)))],
            );
            p.transition(wait, Some(Expr::var(cnt).ge(Expr::int(delay))), put);
            p.transition(wait, None, wait);
            p.actions(
                put,
                vec![Stmt::Call(ServiceCall {
                    binding: b,
                    service: "put".into(),
                    args: vec![Expr::int(value)],
                    done: Some(done),
                    result: None,
                })],
            );
            p.transition(put, Some(Expr::var(done)), end);
            p.transition(end, None, end);
            p.initial(put);
            p.build().unwrap()
        }
        for cfg in [
            SchedulingConfig::sharded(),
            SchedulingConfig {
                park_blocked: true,
                ..SchedulingConfig::legacy()
            },
        ] {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 8)));
            // Same-cycle put+get: occupancy goes 0 -> 1 -> 0 inside one
            // delta (producer before consumer in creation order).
            let p0 = one_shot_producer("p0", 7);
            let c0 = consumer(1);
            cosim.add_module(&p0, &[("iface", link)]).unwrap();
            let c0id = cosim.add_module(&c0, &[("iface", link)]).unwrap();
            // A second consumer blocks on the now-empty queue and parks
            // on OCC.
            let c1 = consumer(1);
            let c1id = cosim.add_module(&c1, &[("iface", link)]).unwrap();
            // A late producer re-raises occupancy to exactly 1 — the
            // stale mirror would produce no event here.
            let p1 = delayed_producer("p1", 300, 9);
            cosim.add_module(&p1, &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(100)).unwrap();
            assert_eq!(
                cosim.module_var(c0id, "SUM"),
                Some(Value::Int(7)),
                "{cfg:?}"
            );
            let st = cosim.module_status(c1id);
            assert_eq!(st.state, "END", "parked consumer resumed ({cfg:?})");
            assert_eq!(
                cosim.module_var(c1id, "SUM"),
                Some(Value::Int(9)),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn bodies_added_after_quiescence_get_clock_edges() {
        // Regression: registering a clocked body while the generators
        // are idle (everything parked after run_to_quiescence) must
        // kick them awake — otherwise the new body never activates.
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        let quiesced = cosim.run_to_quiescence(SimTime::from_ns(1000)).unwrap();
        assert!(quiesced, "self-looper parks, clocks stop");
        // Add a spinner whose activations are observable.
        let mut b = ModuleBuilder::new("late", ModuleKind::Software);
        let n = b.var("N", Type::INT16, Value::Int(0));
        let s = b.state("S");
        b.actions(s, vec![Stmt::assign(n, Expr::var(n).add(Expr::int(1)))]);
        b.transition(s, None, s);
        b.initial(s);
        let id = cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        cosim.run_for(Duration::from_us(2)).unwrap();
        let st = cosim.module_status(id);
        assert!(
            st.activations > 0,
            "late-added module must see clock edges (got {})",
            st.activations
        );
    }

    #[test]
    fn malformed_call_is_typed_module_error_not_panic() {
        // De-panicked call-application path: a module calling a service
        // its unit does not offer (or with a payload of the wrong kind)
        // halts with a typed error in ModuleStatus — identically under
        // the module driver and the per-module oracle.
        fn bad_caller(service: &str, args: Vec<Expr>) -> Module {
            let mut b = ModuleBuilder::new("badcall", ModuleKind::Software);
            let done = b.var("D", Type::Bool, Value::Bool(false));
            let bind = b.binding("iface", "bus");
            let s = b.state("S");
            b.actions(
                s,
                vec![Stmt::Call(ServiceCall {
                    binding: bind,
                    service: service.into(),
                    args,
                    done: Some(done),
                    result: None,
                })],
            );
            b.transition(s, None, s);
            b.initial(s);
            b.build().unwrap()
        }
        for cfg in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
            for (service, args) in [
                ("bogus", vec![]),
                ("put", vec![]),
                ("put", vec![Expr::bool(true)]),
            ] {
                let mut cosim = Cosim::new(CosimConfig::default());
                cosim.set_scheduling(cfg).unwrap();
                let link = cosim.add_batched_unit("bus", Type::INT16, 4, 16).unwrap();
                let m = bad_caller(service, args.clone());
                let id = cosim.add_module(&m, &[("iface", link)]).unwrap();
                let err = cosim.run_for(Duration::from_us(1)).unwrap_err();
                assert!(matches!(err, CosimError::Runtime(_)), "{cfg:?}/{service}");
                let st = cosim.module_status(id);
                let msg = st.error.expect("typed error recorded on the module");
                assert_eq!(msg, err.to_string(), "{cfg:?}/{service}/{args:?}");
            }
        }
    }

    #[test]
    fn hashed_module_placement_spreads_driver_shards() {
        // Modules spread over several driver shards under hashed
        // placement, while the driver still steps them in module-id
        // order: the exchange completes as under one process per
        // module.
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim
            .set_scheduling(SchedulingConfig {
                modules: ModuleScheduling::Sharded { shard_size: 2 },
                ..SchedulingConfig::sharded()
            })
            .unwrap();
        let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let p = producer(&[1, 2, 3]);
        let c = consumer(3);
        cosim.add_module(&p, &[("iface", link)]).unwrap();
        for k in 0..6 {
            let mut b = ModuleBuilder::new(format!("idle{k}"), ModuleKind::Software);
            let s = b.state("S");
            b.transition(s, None, s);
            b.initial(s);
            cosim.add_module(&b.build().unwrap(), &[]).unwrap();
        }
        let cid = cosim.add_module(&c, &[("iface", link)]).unwrap();
        cosim.run_for(Duration::from_us(50)).unwrap();
        assert_eq!(cosim.module_var(cid, "SUM"), Some(Value::Int(6)));
        let st = cosim.shard_stats();
        assert!(
            st.modules_stepped > 0,
            "modules stepped through the driver: {st:?}"
        );
        let driver = cosim.sched.driver.as_ref().unwrap().borrow();
        assert!(
            driver.shards.len() >= 2,
            "8 modules at shard size 2 open several driver shards"
        );
        // Hashed, not creation-order, placement: some shard holds
        // modules that were not created back to back.
        assert!(
            driver.shards.iter().any(|sh| sh
                .members
                .windows(2)
                .any(|w| w[1].module != w[0].module + 1)),
            "hashed placement scatters creation-order runs"
        );
    }

    #[test]
    fn invalid_scheduling_configs_rejected() {
        let mut cosim = Cosim::new(CosimConfig::default());
        // Zero shard sizes, on either side.
        assert!(matches!(
            cosim.set_scheduling(SchedulingConfig {
                units: UnitScheduling::Sharded { shard_size: 0 },
                ..SchedulingConfig::sharded()
            }),
            Err(CosimError::Setup(_))
        ));
        assert!(matches!(
            cosim.set_scheduling(SchedulingConfig {
                modules: ModuleScheduling::Sharded { shard_size: 0 },
                ..SchedulingConfig::sharded()
            }),
            Err(CosimError::Setup(_))
        ));
        // A rejected configuration leaves the previous one in force.
        assert_eq!(cosim.scheduling(), SchedulingConfig::sharded());
    }

    #[test]
    fn invalid_clock_domain_configs_rejected() {
        // Zero ratio components.
        let mut cosim = Cosim::new(CosimConfig::default());
        assert!(matches!(
            cosim.add_clock_domain("z", 0, 1),
            Err(CosimError::Setup(_))
        ));
        assert!(matches!(
            cosim.add_clock_domain("z", 1, 0),
            Err(CosimError::Setup(_))
        ));
        // A ratio that scales the activation period to zero.
        assert!(matches!(
            cosim.add_clock_domain("z", 1, u64::MAX),
            Err(CosimError::Setup(_))
        ));
        // Empty and duplicate names.
        assert!(matches!(
            cosim.add_clock_domain("", 2, 1),
            Err(CosimError::Setup(_))
        ));
        cosim.add_clock_domain("slow", 2, 1).unwrap();
        assert!(matches!(
            cosim.add_clock_domain("slow", 4, 1),
            Err(CosimError::Setup(_))
        ));
        // Domains must precede units and modules.
        cosim.add_fsm_unit("u0", handshake_unit("hs", Type::INT16));
        assert!(matches!(
            cosim.add_clock_domain("late", 2, 1),
            Err(CosimError::Setup(_))
        ));
    }

    #[test]
    fn hashed_unit_placement_is_deterministic() {
        // Two identical builds place units into identical shards.
        fn shard_sizes() -> Vec<usize> {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim
                .set_scheduling(SchedulingConfig {
                    units: UnitScheduling::Sharded { shard_size: 4 },
                    ..SchedulingConfig::sharded()
                })
                .unwrap();
            for k in 0..17 {
                cosim.add_fsm_unit(&format!("u{k}"), handshake_unit("hs", Type::INT16));
            }
            cosim
                .sched
                .unit_shards
                .iter()
                .map(|s| s.borrow().members.len())
                .collect()
        }
        let a = shard_sizes();
        let b = shard_sizes();
        assert_eq!(a, b, "hashed placement is deterministic");
        assert_eq!(a.iter().sum::<usize>(), 17, "every unit placed");
        assert!(a.len() >= 2, "17 units at shard size 4 open several shards");
    }
}
