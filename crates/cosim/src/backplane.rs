//! The co-simulation backplane: modules, communication units and clocks
//! assembled over the discrete-event kernel.
//!
//! * Hardware modules activate on each rising edge of the HW clock;
//!   software modules on each rising edge of the SW activation clock.
//!   Every activation executes exactly one FSM transition — the paper's
//!   synchronization rule.
//! * Every communication unit — FSM-described, batched link or native —
//!   is one row of the *unit table*, indexed by [`UnitId`]. Unit wires
//!   live on kernel signals (one per wire). A module's service calls
//!   resolve the caller's spelling against the unit's declared service
//!   names (exact, then case-insensitive, so VHDL's upper-cased `PUT`
//!   binds to `put`) once, when the module is installed, and then act
//!   on the unit by service index — for an FSM unit the runtime
//!   equivalent of linking the SW *simulation* view (Fig. 3b).
//! * All stepping — module activations, unit controller steps, native
//!   steps, batched-link pumping — is owned by one *activation
//!   scheduler* ([`SchedulingConfig`]). By default one *driver* process
//!   steps every due unit and module in creation order, the order in
//!   which one process per unit and per module would run, so unit
//!   steps and service calls reach every unit in the same order as
//!   there. A member that proves itself stable is **parked** — dropped
//!   from the driver's active list and re-armed by its own watcher
//!   process only when one of its *watch wires* events — so idle
//!   regions of the backplane cost nothing per clock edge.
//! * A module whose FSM is blocked on a pending service call parks on
//!   the bound unit's **completion wires** (the read-set of the blocked
//!   protocol): a consumer blocked on `get` against an empty link costs
//!   zero activations until the producer's `put` lands. A module that
//!   polls a pure read (a completed call from a fresh protocol session
//!   that writes no wire, such as `shared_reg_unit`'s `read`) parks the
//!   same way until the read wires change. A blocked
//!   module that records trace entries never parks; the driver *echoes*
//!   it instead, appending its records on each edge without stepping
//!   its FSM or calling its units until the same wires event.
//! * One process per unit and per module survives as
//!   [`Dispatch::PerProcess`] ([`SchedulingConfig::legacy`]), the
//!   oracle the driver is tested against, and module parking can be
//!   disabled wholesale with [`SchedulingConfig::park_blocked`].
//! * Batched bus links ([`Cosim::add_batched_unit`]) coalesce per-value
//!   transfers into one wire handshake per (adaptively sized) batch.

use crate::partition::BoundarySpec;
use crate::sched::{install_clock_generators, ActivationScheduler, ClockDemand, SchedCtx};
pub use crate::sched::{Dispatch, SchedulingConfig, ShardStats};
pub use crate::snapshot::Snapshot;
use crate::trace::TraceLog;
use crate::units::{ModuleBinding, ModuleEntry, TraceHints, UnitBody, UnitEntry};
use cosma_comm::{BatchedLink, BusTiming, CallerId, FsmUnitRuntime, NativeUnit, UnitStats};
use cosma_core::comm::CommUnitSpec;
use cosma_core::{EvalError, FsmExec, Module, ModuleKind, Type, Value};
use cosma_sim::{
    ClockControl, ClockRatio, Duration, Edge, ProcCtx, SignalId, SimError, SimTime, Simulator,
};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Caller identity used by boundary exporter/injector processes when
/// calling `get`/`put` on their half-link. Distinct from any module's
/// caller id (modules use small indices) so per-caller link accounting
/// never conflates a boundary with a real module.
pub(crate) const BOUNDARY_CALLER: CallerId = CallerId(u64::MAX);

/// Clocking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimConfig {
    /// Hardware cycle (default 100 ns — the paper's 10 MHz bus clock).
    pub hw_cycle: Duration,
    /// Software activation period (default equal to the hardware cycle,
    /// giving the paper's precise HW/SW synchronization). When it equals
    /// `hw_cycle`, every clock domain has one activation clock: software
    /// modules activate on the HW clock ([`Cosim::sw_clk`] returns it)
    /// and no separate SW clock signal or generator exists.
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
/// clock drives them and which clock-demand ledger accounts for their
/// parking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainId(pub(crate) usize);

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
/// the *in* half's injector pops the entries whose arrival time has
/// been reached. Entries are appended in nondecreasing arrival order
/// (one exporter, constant latency), so the injector never reorders,
/// and the queue holds only the values in flight.
#[derive(Debug, Default)]
pub(crate) struct BoundaryQueue {
    /// Latency-stamped messages in flight: `(arrival_time, value)`.
    entries: VecDeque<(SimTime, Value)>,
    /// Values exported so far.
    pub(crate) sent: u64,
}

/// One clock domain: its activation clocks, its period ratio versus
/// the base domain, and its clock-demand ledger. All domains share the
/// global femtosecond time axis — a 4:1 domain's members simply see a
/// rising edge every fourth base period.
pub(crate) struct ClockDomainEntry {
    pub(crate) name: String,
    pub(crate) ratio: ClockRatio,
    hw_clk: SignalId,
    /// The SW activation clock: `hw_clk` itself when the domain's HW and
    /// SW periods are equal.
    sw_clk: SignalId,
    pub(crate) demand: Rc<ClockDemand>,
}

impl ClockDomainEntry {
    /// Declares a domain's activation clocks, kick signal and clock
    /// generators on `sim`, and appends its distinct clocks to
    /// `clock_list`. Equal HW and SW periods share one clock signal
    /// and one generator.
    fn install(
        sim: &mut Simulator,
        clock_list: &mut Vec<SignalId>,
        name: &str,
        ratio: ClockRatio,
        config: CosimConfig,
    ) -> Self {
        let prefix = if name.is_empty() {
            String::new()
        } else {
            format!("{name}.")
        };
        let (hw_cycle, sw_cycle) = (ratio.scale(config.hw_cycle), ratio.scale(config.sw_cycle));
        let hw_clk = sim.add_bit(format!("{prefix}HW_CLK"));
        clock_list.push(hw_clk);
        let sw_clk = if sw_cycle == hw_cycle {
            hw_clk
        } else {
            let sw_clk = sim.add_bit(format!("{prefix}SW_CLK"));
            clock_list.push(sw_clk);
            sw_clk
        };
        let kick = sim.add_bit(format!("{prefix}CLK_KICK"));
        let demand = Rc::new(ClockDemand {
            demand: Rc::new(Cell::new(0)),
            kick,
        });
        install_clock_generators(
            sim,
            &prefix,
            (hw_clk, hw_cycle),
            (sw_clk, sw_cycle),
            &demand,
        );
        ClockDomainEntry {
            name: name.to_string(),
            ratio,
            hw_clk,
            sw_clk,
            demand,
        }
    }
}

/// Identifies a communication-unit instance in the backplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitId(pub(crate) usize);

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
    pub(crate) sim: Simulator,
    /// The unit table, indexed by [`UnitId`].
    pub(crate) units: Rc<RefCell<Vec<UnitEntry>>>,
    pub(crate) error: Rc<RefCell<Option<String>>>,
    pub(crate) trace: Rc<RefCell<TraceLog>>,
    pub(crate) modules: Rc<RefCell<Vec<ModuleEntry>>>,
    pub(crate) sched: ActivationScheduler,
    /// The clocking configuration this backplane was built with, kept so
    /// [`Cosim::fork`] can construct an identical twin.
    pub(crate) config: CosimConfig,
    /// Clock domains, base domain first. Each carries its activation
    /// clocks and its clock-edge demand ledger: the domain's
    /// generators idle whenever its demand reaches zero — on an empty
    /// backplane, after every body halted, **and while every body is
    /// parked** — so a deadlocked or finished system truly goes
    /// quiescent ([`Cosim::run_to_quiescence`]) instead of toggling its
    /// activation clocks forever. A parked body re-armed by a wire
    /// event bumps the demand back and kicks the generators awake.
    pub(crate) domains: Vec<ClockDomainEntry>,
    /// Every domain's distinct activation clocks in domain order
    /// (`[hw0, sw0, hw1, sw1, ...]`, with no `swN` where the SW clock is
    /// the HW clock) — the driver's clock sensitivity.
    clock_list: Vec<SignalId>,
    /// Boundary half-links installed on this backplane (partitioned
    /// co-simulation). Boundary closures reach state the unit table
    /// does not record (queues shared with another backplane), so
    /// [`Cosim::fork`] is rejected while any exist.
    pub(crate) boundaries: usize,
}

impl fmt::Debug for Cosim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cosim")
            .field("modules", &self.modules.borrow().len())
            .field("units", &self.units.borrow().len())
            .finish_non_exhaustive()
    }
}

impl Cosim {
    /// Creates a backplane with HW and SW activation clocks (one clock
    /// when [`CosimConfig::sw_cycle`] equals the HW cycle).
    ///
    /// # Panics
    ///
    /// Panics if either cycle is shorter than 2 fs: a clock toggles every
    /// half period, and a half period of 0 fs would never advance time
    /// ([`Simulator::add_clock`] refuses it).
    #[must_use]
    pub fn new(config: CosimConfig) -> Self {
        let mut sim = Simulator::new();
        let mut clock_list = vec![];
        let base =
            ClockDomainEntry::install(&mut sim, &mut clock_list, "", ClockRatio::UNIT, config);
        Cosim {
            sim,
            units: Rc::new(RefCell::new(vec![])),
            error: Rc::new(RefCell::new(None)),
            trace: Rc::new(RefCell::new(TraceLog::new())),
            modules: Rc::new(RefCell::new(vec![])),
            sched: ActivationScheduler::new(SchedulingConfig::sharded()),
            config,
            domains: vec![base],
            clock_list,
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
    /// unit or module), so the driver's clock sensitivity is complete
    /// before its first member is added.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] when units or modules were already
    /// added, when either ratio component is zero, when a scaled period
    /// would truncate to a half period of zero or does not fit in `u64`
    /// femtoseconds, or when `name` is empty or already taken.
    pub fn add_clock_domain(
        &mut self,
        name: &str,
        num: u64,
        den: u64,
    ) -> Result<DomainId, CosimError> {
        if !self.units.borrow().is_empty() || !self.modules.borrow().is_empty() {
            return Err(CosimError::Setup(
                "clock domains must be created before units or modules".to_string(),
            ));
        }
        let Some(ratio) = ClockRatio::try_new(num, den) else {
            return Err(CosimError::Setup(format!(
                "clock domain {name}: rate ratio components must be nonzero (got {num}:{den})"
            )));
        };
        for cycle in [self.config.hw_cycle, self.config.sw_cycle] {
            let Some(scaled) = ratio.checked_scale(cycle) else {
                return Err(CosimError::Setup(format!(
                    "clock domain {name}: ratio {ratio} scales the activation period {cycle} \
                     past u64::MAX femtoseconds"
                )));
            };
            if scaled.halved() == Duration::ZERO {
                return Err(CosimError::Setup(format!(
                    "clock domain {name}: ratio {ratio} scales the activation period to zero"
                )));
            }
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
        let domain = ClockDomainEntry::install(
            &mut self.sim,
            &mut self.clock_list,
            name,
            ratio,
            self.config,
        );
        self.domains.push(domain);
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

    /// Selects the full scheduling configuration (dispatch, parking).
    /// Must be called before any unit or module is added.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] if units or modules were already
    /// added.
    pub fn set_scheduling(&mut self, cfg: SchedulingConfig) -> Result<(), CosimError> {
        if !self.units.borrow().is_empty() || !self.modules.borrow().is_empty() {
            return Err(CosimError::Setup(
                "scheduling must be chosen before adding units or modules".to_string(),
            ));
        }
        self.sched.cfg = cfg;
        Ok(())
    }

    /// The active scheduling configuration.
    #[must_use]
    pub fn scheduling(&self) -> SchedulingConfig {
        self.sched.cfg
    }

    /// Aggregate activation-scheduler statistics (driver counters are
    /// zero under [`Dispatch::PerProcess`]; park counters cover both
    /// modes).
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
                units: &self.units,
                modules: &self.modules,
                error: &self.error,
                trace: &self.trace,
                demand: &d.demand,
                hw_clk: d.hw_clk,
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

    /// The base domain's software activation clock signal: the HW clock
    /// itself ([`Cosim::hw_clk`]) when [`CosimConfig::sw_cycle`] equals
    /// the HW cycle, else a `SW_CLK` signal of its own.
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
        Ok(self.install_unit(domain, name, UnitBody::Fsm(FsmUnitRuntime::new(spec))))
    }

    /// Appends a unit to the unit table, declaring its wires as kernel
    /// signals ([`UnitEntry::new`]), and hands its clocked bookkeeping,
    /// if any, to the activation scheduler. Every unit kind, and
    /// [`Cosim::fork`], installs through here.
    pub(crate) fn install_unit(&mut self, domain: DomainId, name: &str, body: UnitBody) -> UnitId {
        let cycle = self.domains[domain.0].ratio.scale(self.config.hw_cycle);
        let entry = UnitEntry::new(&mut self.sim, name, domain, cycle, body);
        let gate = entry.gate();
        let id = UnitId(self.units.borrow().len());
        self.units.borrow_mut().push(entry);
        if let Some(gate) = gate {
            let (sched, ctx) = self.sched_ctx(domain.0);
            sched.add_unit(ctx, id, name, gate);
        }
        id
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
        let link = BatchedLink::try_new(name, data_ty, max_batch, capacity)
            .map_err(|e| CosimError::Setup(e.to_string()))?
            .with_timing(timing);
        Ok(self.install_unit(domain, name, UnitBody::Batched(Box::new(link))))
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
    /// unit table does not record.
    pub(crate) fn add_boundary_out(
        &mut self,
        domain: DomainId,
        name: &str,
        spec: &BoundarySpec,
        queue: Rc<RefCell<BoundaryQueue>>,
    ) -> Result<UnitId, CosimError> {
        let latency = spec.latency;
        if latency == Duration::ZERO {
            return Err(CosimError::Setup(format!(
                "boundary link {name}: latency must be positive (the latency is the \
                 lookahead that lets partitions run a quantum without each other's \
                 same-quantum output)"
            )));
        }
        self.add_boundary_half(
            domain,
            name,
            spec,
            ("export", "get"),
            move |link, get, ctx| {
                let now = ctx.now();
                loop {
                    match link.call(BOUNDARY_CALLER, get, &[], ctx)?.0 {
                        out if out.done => {
                            let v = out.result.expect("done get always carries a value");
                            let mut q = queue.borrow_mut();
                            q.entries.push_back((now + latency, v));
                            q.sent += 1;
                        }
                        _ => return Ok(()),
                    }
                }
            },
        )
    }

    /// Installs the *receiving* half of a boundary link: a regular
    /// batched unit into which queue entries whose arrival time has
    /// been reached are injected (`put`) on every rising edge of the
    /// domain's HW clock. Consumers in this partition `get` from it
    /// exactly as from a local [`BatchedLink`]. A `put` rejected by
    /// backpressure leaves the entry queued and retries next edge.
    ///
    /// Holds one permanent unit of clock demand, like
    /// [`Cosim::add_boundary_out`].
    pub(crate) fn add_boundary_in(
        &mut self,
        domain: DomainId,
        name: &str,
        spec: &BoundarySpec,
        queue: Rc<RefCell<BoundaryQueue>>,
    ) -> Result<UnitId, CosimError> {
        self.add_boundary_half(
            domain,
            name,
            spec,
            ("inject", "put"),
            move |link, put, ctx| {
                let now = ctx.now();
                loop {
                    let next = queue.borrow().entries.front().cloned();
                    match next {
                        Some((t_arr, v)) if t_arr <= now => {
                            if !link.call(BOUNDARY_CALLER, put, &[v], ctx)?.0.done {
                                return Ok(());
                            }
                            queue.borrow_mut().entries.pop_front();
                        }
                        _ => return Ok(()),
                    }
                }
            },
        )
    }

    /// Installs a boundary half: a batched link as `spec` describes it,
    /// plus its clocked process (`<name>.<role>`), which on every
    /// rising edge of the domain's HW clock calls `pump` with the link
    /// and the index of its `service` (resolved once, here) to move
    /// values between the link and its queue. The process holds one
    /// permanent unit of clock demand and halts on the first backplane
    /// error.
    fn add_boundary_half(
        &mut self,
        domain: DomainId,
        name: &str,
        spec: &BoundarySpec,
        (role, service): (&str, &str),
        mut pump: impl FnMut(&mut UnitEntry, usize, &mut ProcCtx<'_>) -> Result<(), EvalError> + 'static,
    ) -> Result<UnitId, CosimError> {
        let (ty, max_batch, capacity) = (spec.data_ty.clone(), spec.max_batch, spec.capacity);
        let id =
            self.add_batched_unit_in_with(domain, name, ty, max_batch, capacity, spec.timing)?;
        let si = self.units.borrow()[id.0].resolve(service);
        let si = si.map_err(|e| CosimError::Setup(e.to_string()))?;
        let units = Rc::clone(&self.units);
        let error = Rc::clone(&self.error);
        let demand = Rc::clone(&self.domains[domain.0].demand);
        demand.register(&mut self.sim);
        let clk = self.domains[domain.0].hw_clk;
        let label = name.to_string();
        self.sim
            .add_clocked(format!("{name}.{role}"), clk, Edge::Rising, move |ctx| {
                if error.borrow().is_none() {
                    match pump(&mut units.borrow_mut()[id.0], si, ctx) {
                        Ok(()) => return ClockControl::Continue,
                        Err(e) => *error.borrow_mut() = Some(format!("boundary link {label}: {e}")),
                    }
                }
                demand.park();
                ClockControl::Halt
            });
        self.boundaries += 1;
        Ok(id)
    }

    /// Installs a native (platform) unit. Units with real background
    /// activity ([`NativeUnit::needs_step`]) are stepped once per HW
    /// cycle; purely call-driven units cost nothing per cycle under the
    /// driver.
    ///
    /// A unit exposing [`NativeUnit::occupancy`] gets a kernel `OCC`
    /// signal (`<name>.OCC`) mirroring its queue occupancy, driven after
    /// every call and step. That makes native state changes
    /// wire-visible: `OCC` is the completion wire of every service, so
    /// a caller blocked on the unit (e.g. `get` against an empty FIFO)
    /// *parks* on occupancy events instead of burning one no-op
    /// activation per clock edge.
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
        Ok(self.install_unit(domain, name, UnitBody::native(unit)))
    }

    /// Looks up a unit by instance name.
    #[must_use]
    pub fn unit(&self, name: &str) -> Option<UnitId> {
        self.units
            .borrow()
            .iter()
            .rposition(|u| u.name == name)
            .map(UnitId)
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
        self.install_module(domain, module, bindings, None)
    }

    /// Adds a module with an explicit port→signal map (used to share nets
    /// between the processes of one VHDL entity). `ports[i]` carries the
    /// signal for the module's `PortId(i)`.
    ///
    /// # Errors
    ///
    /// Returns [`CosimError::Setup`] on arity mismatch, on a signal the
    /// kernel does not have or whose type does not admit its port
    /// type's default value, or on unresolved bindings.
    pub fn add_module_with_ports(
        &mut self,
        module: &Module,
        bindings: &[(&str, UnitId)],
        ports: Vec<SignalId>,
    ) -> Result<CosimModuleId, CosimError> {
        self.install_module(DomainId::BASE, module, bindings, Some(ports))
    }

    /// Shared installation body behind [`Cosim::add_module`],
    /// [`Cosim::add_module_with_ports`] and [`Cosim::fork`], which differ
    /// only in port-signal provenance: `None` creates fresh
    /// `<module>.<PORT>` signals, which a fork recreates with the same
    /// ids. Everything is checked before the kernel is touched, so a
    /// refused module leaves no signal behind.
    pub(crate) fn install_module(
        &mut self,
        domain: DomainId,
        module: &Module,
        bindings: &[(&str, UnitId)],
        ports: Option<Vec<SignalId>>,
    ) -> Result<CosimModuleId, CosimError> {
        let name = module.name();
        if let Some(ports) = &ports {
            if ports.len() != module.ports().len() {
                return Err(CosimError::Setup(format!(
                    "module {name}: {} signals provided for {} ports",
                    ports.len(),
                    module.ports().len()
                )));
            }
            for (port, &sig) in module.ports().iter().zip(ports) {
                let refusal = match self.sim.signal_type(sig) {
                    None => "which this backplane's kernel lacks".to_string(),
                    Some(ty) if !ty.admits(&port.ty().default_value()) => {
                        format!("of type {ty}, which cannot carry {}", port.ty())
                    }
                    Some(_) => continue,
                };
                return Err(CosimError::Setup(format!(
                    "module {name}: port {} is given signal {sig}, {refusal}",
                    port.name()
                )));
            }
        }
        let mut unit_by_binding: Vec<Option<UnitId>> = vec![None; module.bindings().len()];
        for &(bname, uid) in bindings {
            let Some(bid) = module.binding_id(bname) else {
                return Err(CosimError::Setup(format!(
                    "module {name} has no binding named {bname}"
                )));
            };
            if uid.0 >= self.units.borrow().len() {
                return Err(CosimError::Setup(format!(
                    "module {name}: binding {bname} names unit #{}, which this backplane lacks",
                    uid.0
                )));
            }
            unit_by_binding[bid.index()] = Some(uid);
        }
        let mut resolved = Vec::with_capacity(unit_by_binding.len());
        for (i, h) in unit_by_binding.into_iter().enumerate() {
            match h {
                Some(h) => resolved.push(h),
                None => {
                    return Err(CosimError::Setup(format!(
                        "module {name}: binding {} left unbound",
                        module.bindings()[i].name()
                    )))
                }
            }
        }
        // Every service spelling the FSM calls resolves here, once; an
        // undeclared one still installs and fails when the call runs.
        let resolved_bindings =
            ModuleBinding::resolve_all(module.fsm(), &self.units.borrow(), &resolved);
        let own_ports = ports.is_none();
        let ports = ports.unwrap_or_else(|| {
            module
                .ports()
                .iter()
                .map(|p| {
                    self.sim.add_signal(
                        format!("{name}.{}", p.name()),
                        p.ty().clone(),
                        p.ty().default_value(),
                    )
                })
                .collect()
        });

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
        let units_before = self.units.borrow().len();
        self.modules.borrow_mut().push(ModuleEntry {
            name: name.into(),
            module: module.clone(),
            domain,
            exec,
            ports,
            own_ports,
            units_before,
            vars: module.vars().iter().map(|v| v.init().clone()).collect(),
            bindings: resolved_bindings,
            caller,
            status,
            trace_hints: TraceHints::default(),
        });
        let (sched, ctx) = self.sched_ctx(domain.0);
        sched.add_module(ctx, idx, clk);
        Ok(CosimModuleId(idx))
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
            .position(|e| &*e.name == name)
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
        let id = self.unit(name)?;
        Some(self.units.borrow()[id.0].stats())
    }

    /// A copy of the trace log. Full segments are shared with the live
    /// log, so the copy costs O(segments) plus the partial tail and the
    /// string table; it carries no spill sink ([`TraceLog::set_spill`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_comm::{handshake_unit, FifoChannel};
    use cosma_core::{Expr, ModuleBuilder, ServiceCall, Stmt};
    use cosma_sim::{FnProcess, Wait};

    fn producer(values: &[i64]) -> Module {
        producer_as(values, "put")
    }

    /// [`producer`] calling its unit's `put` service spelled `service`.
    fn producer_as(values: &[i64], service: &str) -> Module {
        producer_named("producer", values, service)
    }

    /// [`producer_as`] named `name`.
    fn producer_named(name: &str, values: &[i64], service: &str) -> Module {
        let mut p = ModuleBuilder::new(name, ModuleKind::Software);
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
                service: service.into(),
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
        consumer_as(n, "get")
    }

    /// [`consumer`] calling its unit's `get` service spelled `service`.
    fn consumer_as(n: usize, service: &str) -> Module {
        consumer_named("consumer", n, service)
    }

    /// [`consumer_as`] named `name`.
    fn consumer_named(name: &str, n: usize, service: &str) -> Module {
        let mut c = ModuleBuilder::new(name, ModuleKind::Hardware);
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
                service: service.into(),
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
        // Under the driver the idle tail is even cheaper: once the
        // link's controller proves itself stable it parks, and so do
        // the END-parked modules, leaving every member parked.
        // Controller steps stall AND, with every clocked body parked,
        // the clocks stop, so the driver is no longer woken.
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
        assert_eq!(
            shard.shard_runs, shard_runs_after_exchange,
            "the driver of a fully parked backplane is not even woken"
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
        assert_eq!(shard.parked_now, 21, "all idle, all parked");
        // The driver ran at most a handful of times while the clock
        // would have toggled ~2000 times.
        assert!(
            shard.shard_runs < 40,
            "idle members must not track the clock (runs {})",
            shard.shard_runs
        );
    }

    #[test]
    fn quiescence_reached_after_last_timer_cancelled() {
        // Regression: a cancelled timer must not stall
        // run_to_quiescence. A testbench process holds the only live
        // timer; an event wake cancels it and the process parks.
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
            "the cancelled 500us timer must not report phantom pending work"
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
    fn refused_module_leaves_no_signals_and_later_forks_replay() {
        // Regression: a module refused for an unknown binding name used
        // to leave its port signals in the kernel. A fork never rebuilds
        // them, so every later fork failed its shape check.
        use cosma_core::PortDir;
        let mut b = ModuleBuilder::new("ported", ModuleKind::Hardware);
        b.port("OUT", PortDir::Out, Type::Bit);
        b.binding("iface", "hs");
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let ported = b.build().unwrap();
        for cfg in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
            assert!(cosim.add_module(&ported, &[("nope", link)]).is_err());
            assert_eq!(cosim.sim().find_signal("ported.OUT"), None, "no orphan");
            cosim
                .add_module(&producer(&[1, 2, 3]), &[("iface", link)])
                .unwrap();
            let cid = cosim.add_module(&consumer(3), &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(1)).unwrap();
            let mut twin = cosim.fork(&cosim.snapshot()).unwrap();
            for c in [&mut cosim, &mut twin] {
                c.run_for(Duration::from_us(10)).unwrap();
            }
            assert_eq!(cosim.module_status(cid).state, "END", "{cfg:?}");
            assert_eq!(twin.module_var(cid, "SUM"), Some(Value::Int(6)));
            assert_eq!(twin.module_status(cid), cosim.module_status(cid));
            assert_eq!(twin.trace_log(), cosim.trace_log(), "{cfg:?}");
        }
    }

    #[test]
    fn foreign_or_mistyped_port_signals_are_refused() {
        // Regression: `add_module_with_ports` accepted a signal id the
        // kernel lacks and a net whose type cannot carry the port's
        // values; both installed, and `run_for` then panicked in the
        // kernel (an index out of bounds, an incompatible drive).
        use cosma_core::{Bit, PortDir};
        let mut b = ModuleBuilder::new("driver", ModuleKind::Hardware);
        let out = b.port("OUT", PortDir::Out, Type::Bit);
        let s = b.state("S");
        b.actions(s, vec![Stmt::Drive(out, Expr::bit(Bit::One))]);
        b.transition(s, None, s);
        b.initial(s);
        let driver = b.build().unwrap();
        let mut larger = Cosim::new(CosimConfig::default());
        for i in 0..4 {
            larger.add_fsm_unit(&format!("u{i}"), handshake_unit("hs", Type::INT16));
        }
        let foreign = larger.sim().find_signal("u3.ACK").unwrap();
        for cfg in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
            let int16_net = cosim.sim().find_signal("link.DATA").unwrap();
            for net in [foreign, int16_net] {
                let err = cosim
                    .add_module_with_ports(&driver, &[], vec![net])
                    .unwrap_err();
                let msg = err.to_string();
                assert!(matches!(err, CosimError::Setup(_)), "{cfg:?}: {err}");
                assert!(msg.contains("driver") && msg.contains("OUT"), "{msg}");
            }
            assert_eq!(cosim.find_module("driver"), None, "{cfg:?}");
            // The backplane still runs and forks.
            cosim
                .add_module(&producer(&[1, 2, 3]), &[("iface", link)])
                .unwrap();
            let cid = cosim.add_module(&consumer(3), &[("iface", link)]).unwrap();
            cosim.run_for(Duration::from_us(1)).unwrap();
            let mut twin = cosim.fork(&cosim.snapshot()).unwrap();
            for c in [&mut cosim, &mut twin] {
                c.run_for(Duration::from_us(10)).unwrap();
            }
            assert_eq!(twin.module_var(cid, "SUM"), Some(Value::Int(6)), "{cfg:?}");
            assert_eq!(twin.trace_log(), cosim.trace_log(), "{cfg:?}");
        }
    }

    #[test]
    fn forks_rebuild_interleaved_multi_domain_construction() {
        // A fork rebuilds from the domain, unit and module tables, so
        // they must reproduce the construction order: units and
        // modules interleaved, members of a 4:1 domain, a native FIFO,
        // a payload-beats link, a module wired onto another module's
        // port net and a unit added after the last module.
        use cosma_core::PortDir;
        // Drives 1..=6 onto a fresh OUT net, one value per activation.
        fn counter() -> Module {
            let mut b = ModuleBuilder::new("counter", ModuleKind::Hardware);
            let out = b.port("OUT", PortDir::Out, Type::INT16);
            let n = b.var("N", Type::INT16, Value::Int(0));
            let run = b.state("RUN");
            let end = b.state("END");
            let next = Expr::var(n).add(Expr::int(1));
            b.actions(
                run,
                vec![Stmt::assign(n, next), Stmt::Drive(out, Expr::var(n))],
            );
            b.transition(run, Some(Expr::var(n).ge(Expr::int(6))), end);
            b.transition(run, None, run);
            b.transition(end, None, end);
            b.initial(run);
            b.build().unwrap()
        }
        // Sums every new value it sees on its IN port.
        fn sampler() -> Module {
            let mut b = ModuleBuilder::new("sampler", ModuleKind::Hardware);
            let inp = b.port("IN", PortDir::In, Type::INT16);
            let last = b.var("LAST", Type::INT16, Value::Int(0));
            let sum = b.var("SUM", Type::INT16, Value::Int(0));
            let s = b.state("S");
            let fresh = vec![
                Stmt::assign(sum, Expr::var(sum).add(Expr::port(inp))),
                Stmt::assign(last, Expr::port(inp)),
                Stmt::Trace("seen".into(), vec![Expr::port(inp)]),
            ];
            b.actions(
                s,
                vec![Stmt::If {
                    cond: Expr::port(inp).ne(Expr::var(last)),
                    then_body: fresh,
                    else_body: vec![],
                }],
            );
            b.transition(s, None, s);
            b.initial(s);
            b.build().unwrap()
        }
        fn build(cfg: SchedulingConfig) -> (Cosim, Vec<CosimModuleId>) {
            let mut c = Cosim::new(CosimConfig::default());
            c.set_scheduling(cfg).unwrap();
            let slow = c.add_clock_domain("slow", 4, 1).unwrap();
            let hs = handshake_unit("hs", Type::INT16);
            let hs = c.add_fsm_unit_in(slow, "hs", hs).unwrap();
            let mut ids = vec![c.add_module(&counter(), &[]).unwrap()];
            let p = producer_named("p_hs", &[1, 2, 3], "put");
            ids.push(c.add_module(&p, &[("iface", hs)]).unwrap());
            let fifo = c.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 4)));
            let cons = consumer_named("c_hs", 3, "get");
            ids.push(c.add_module_in(slow, &cons, &[("iface", hs)]).unwrap());
            let p = producer_named("p_fifo", &[10, 20, 30], "put");
            ids.push(c.add_module(&p, &[("iface", fifo)]).unwrap());
            let timing = BusTiming::PayloadBeats;
            let beats = c
                .add_batched_unit_with("beats", Type::INT16, 4, 16, timing)
                .unwrap();
            let cons = consumer_named("c_fifo", 3, "get");
            ids.push(c.add_module(&cons, &[("iface", fifo)]).unwrap());
            let net = c.sim().find_signal("counter.OUT").unwrap();
            ids.push(c.add_module_with_ports(&sampler(), &[], vec![net]).unwrap());
            let p = producer_named("p_beats", &[5, 6, 7, 8], "put");
            ids.push(c.add_module(&p, &[("iface", beats)]).unwrap());
            let cons = consumer_named("c_beats", 4, "get");
            ids.push(c.add_module(&cons, &[("iface", beats)]).unwrap());
            c.add_fsm_unit("tail", handshake_unit("hs", Type::INT16));
            (c, ids)
        }
        for cfg in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
            let (mut cosim, ids) = build(cfg);
            cosim.run_for(Duration::from_ns(1300)).unwrap();
            let mut twin = cosim.fork(&cosim.snapshot()).unwrap();
            for c in [&mut cosim, &mut twin] {
                c.run_for(Duration::from_us(20)).unwrap();
            }
            let view = |c: &Cosim| {
                let statuses: Vec<_> = ids.iter().map(|&m| c.module_status(m)).collect();
                let sums: Vec<_> = ids.iter().map(|&m| c.module_var(m, "SUM")).collect();
                let stats = ["hs", "fifo", "beats", "tail"].map(|u| c.unit_stats(u));
                (statuses, sums, stats, c.trace_log())
            };
            // The sampler and the three consumers finish their sums.
            let sums = view(&cosim).1;
            let want = [21, 6, 60, 26].map(|v| Some(Value::Int(v)));
            assert_eq!([5, 2, 4, 7].map(|j| sums[j].clone()), want, "{cfg:?}");
            assert_eq!(view(&twin), view(&cosim), "{cfg:?}");
        }
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

    /// A backplane with a slow domain and one SW module in each domain,
    /// clocked at `hw`/`sw` ns, with its fork from a snapshot taken
    /// after 1 µs.
    fn clocked_pair(hw: u64, sw: u64) -> [Cosim; 2] {
        let mut b = ModuleBuilder::new("loop", ModuleKind::Software);
        let s = b.state("S");
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();
        let mut cosim = Cosim::new(CosimConfig {
            hw_cycle: Duration::from_ns(hw),
            sw_cycle: Duration::from_ns(sw),
        });
        let slow = cosim.add_clock_domain("slow", 4, 1).unwrap();
        cosim.add_module(&m, &[]).unwrap();
        cosim.add_module_in(slow, &m, &[]).unwrap();
        cosim.run_for(Duration::from_us(1)).unwrap();
        let twin = cosim.fork(&cosim.snapshot()).unwrap();
        [cosim, twin]
    }

    #[test]
    fn equal_periods_share_one_activation_clock() {
        for cosim in clocked_pair(100, 100) {
            let sim = cosim.sim();
            assert_eq!(cosim.sw_clk(), cosim.hw_clk());
            let slow_hw = sim.find_signal("slow.HW_CLK").unwrap();
            assert_eq!(cosim.domains[1].sw_clk, slow_hw);
            assert_eq!(sim.find_signal("SW_CLK"), None);
            assert_eq!(sim.find_signal("slow.SW_CLK"), None);
            assert_eq!(cosim.clock_list, [cosim.hw_clk(), slow_hw]);
            // One generator per domain, one driver, one watcher per
            // module.
            assert_eq!(sim.save_state().process_count(), 2 + 1 + 2);
        }
    }

    #[test]
    fn unequal_periods_keep_two_activation_clocks() {
        for cosim in clocked_pair(100, 400) {
            let sim = cosim.sim();
            assert_eq!(sim.find_signal("SW_CLK"), Some(cosim.sw_clk()));
            assert_ne!(cosim.sw_clk(), cosim.hw_clk());
            let slow_sw = sim.find_signal("slow.SW_CLK").unwrap();
            assert_eq!(cosim.domains[1].sw_clk, slow_sw);
            assert_eq!(cosim.clock_list.len(), 4);
            assert_eq!(sim.save_state().process_count(), 4 + 1 + 2);
        }
    }

    #[test]
    fn trace_records_stay_exact_in_a_replaced_log() {
        // Modules record through the ids their name and label had in the
        // log. Swapping in a log whose ids name other strings must not
        // mislabel a single record.
        fn ticker(name: &str) -> Module {
            let mut b = ModuleBuilder::new(name, ModuleKind::Software);
            let n = b.var("N", Type::INT16, Value::Int(0));
            let s = b.state("S");
            b.actions(
                s,
                vec![
                    Stmt::Trace("tick".into(), vec![Expr::var(n)]),
                    Stmt::assign(n, Expr::var(n).add(Expr::int(1))),
                ],
            );
            b.transition(s, None, s);
            b.initial(s);
            b.build().unwrap()
        }
        let mut cosim = Cosim::new(CosimConfig::default());
        for name in ["a", "b"] {
            cosim.add_module(&ticker(name), &[]).unwrap();
        }
        cosim.run_for(Duration::from_us(1)).unwrap();
        let mut other = TraceLog::new();
        other.record(0, "tick", "b", [Value::Int(-1)]);
        other.record(0, "x", "a", [Value::Int(-1)]);
        *cosim.trace_handle().borrow_mut() = other;
        cosim.run_for(Duration::from_us(1)).unwrap();
        let log = cosim.trace_log();
        let entries: Vec<_> = log.iter().skip(2).collect();
        assert_eq!(entries.len(), 20, "ten activations of each module");
        for source in ["a", "b"] {
            let ticks: Vec<_> = entries.iter().filter(|e| e.source == source).collect();
            assert!(
                ticks.iter().all(|e| e.label == "tick"),
                "{source}: {ticks:?}"
            );
            let values: Vec<_> = ticks.iter().map(|e| e.values.to_vec()).collect();
            let want: Vec<_> = (11..21).map(|n| vec![Value::Int(n)]).collect();
            assert_eq!(values, want, "{source}");
        }
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
    fn out_of_width_port_drives_park_like_in_range_ones() {
        // A module blocked on `get` from an empty link that also drives
        // a constant onto its INT16 port. 70000 stores as 4464, so from
        // the second activation on the drive changes nothing, exactly
        // like a drive of 7: both must park after as many activations.
        fn blocked_driver(constant: i64) -> Module {
            use cosma_core::PortDir;
            let mut b = ModuleBuilder::new("driver", ModuleKind::Hardware);
            let out = b.port("OUT", PortDir::Out, Type::INT16);
            let done = b.var("D", Type::Bool, Value::Bool(false));
            let bind = b.binding("iface", "hs");
            let get = b.state("GET");
            let end = b.state("END");
            b.actions(
                get,
                vec![
                    Stmt::drive(out, Expr::int(constant)),
                    Stmt::Call(ServiceCall {
                        binding: bind,
                        service: "get".into(),
                        args: vec![],
                        done: Some(done),
                        result: None,
                    }),
                ],
            );
            b.transition(get, Some(Expr::var(done)), end);
            b.transition(end, None, end);
            b.initial(get);
            b.build().unwrap()
        }
        for cfg in [
            SchedulingConfig::sharded(),
            SchedulingConfig {
                park_blocked: true,
                ..SchedulingConfig::legacy()
            },
        ] {
            let activations = [7, 70_000].map(|constant| {
                let mut cosim = Cosim::new(CosimConfig::default());
                cosim.set_scheduling(cfg).unwrap();
                let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
                let m = blocked_driver(constant);
                let id = cosim.add_module(&m, &[("iface", link)]).unwrap();
                cosim.run_for(Duration::from_us(10)).unwrap();
                cosim.module_status(id).activations
            });
            assert_eq!(activations[0], activations[1], "{cfg:?}");
            assert!(activations[0] <= 3, "{cfg:?}: {activations:?}");
        }
    }

    #[test]
    fn parking_agrees_across_module_schedulings() {
        // The driver and per-module processes park identically: same
        // states, same SUMs, same ACTIVATION COUNTS, same traces.
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
            park_blocked: true,
            ..SchedulingConfig::legacy()
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
        // A unit id from another backplane is refused, not indexed.
        let mut other = Cosim::new(CosimConfig::default());
        let foreign = other.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let err = cosim.add_module(&m, &[("iface", foreign)]).unwrap_err();
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
    fn interleaved_construction_matches_oracle() {
        // Links built in loop order — a link, then its producer and
        // consumer — interleave units with modules. The driver steps
        // both in creation order, like the oracle's processes, so it
        // agrees with the oracle, and parking stays invisible to the
        // trace.
        fn run(
            n: usize,
            timing: BusTiming,
            cfg: SchedulingConfig,
        ) -> (Vec<ModuleStatus>, TraceLog) {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.set_scheduling(cfg).unwrap();
            let mut ids = vec![];
            for i in 0..n {
                let link = cosim
                    .add_batched_unit_with(&format!("link{i}"), Type::INT16, 4, 16, timing)
                    .unwrap();
                let base = i as i64 + 1;
                let p = producer_named(&format!("p{i}"), &[base, base + 1, base + 2], "put");
                let c = consumer_named(&format!("c{i}"), 3, "get");
                ids.push(cosim.add_module(&p, &[("iface", link)]).unwrap());
                ids.push(cosim.add_module(&c, &[("iface", link)]).unwrap());
            }
            cosim.run_for(Duration::from_us(20)).unwrap();
            let statuses = ids.iter().map(|&id| cosim.module_status(id)).collect();
            (statuses, cosim.trace_log())
        }
        for n in [4, 17, 24] {
            for timing in [BusTiming::LengthOnly, BusTiming::PayloadBeats] {
                let oracle = |park_blocked| {
                    run(
                        n,
                        timing,
                        SchedulingConfig {
                            park_blocked,
                            ..SchedulingConfig::legacy()
                        },
                    )
                };
                let (off, on) = (oracle(false), oracle(true));
                assert!(off.0.iter().all(|st| st.state == "END"), "{n}/{timing:?}");
                assert_eq!(on.1, off.1, "{n}/{timing:?}: parking shows in the oracle");
                for (park_blocked, want) in [(false, &off), (true, &on)] {
                    let cfg = SchedulingConfig {
                        dispatch: Dispatch::Driver,
                        park_blocked,
                    };
                    let got = run(n, timing, cfg);
                    assert_eq!(got.0, want.0, "{n}/{timing:?}/{cfg:?}: statuses");
                    assert_eq!(got.1, want.1, "{n}/{timing:?}/{cfg:?}: trace");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "hw_clkgen: period 1fs is shorter than 2fs")]
    fn femtosecond_hw_cycle_is_refused_at_construction() {
        // A 1 fs cycle halves to 0 fs: every edge would re-arm at the
        // current instant and the first `run_for` would never return.
        let one = Duration::from_fs(1);
        let _ = Cosim::new(CosimConfig {
            hw_cycle: one,
            sw_cycle: one,
        });
    }

    #[test]
    #[should_panic(expected = "sw_clkgen: period 1fs is shorter than 2fs")]
    fn femtosecond_sw_cycle_is_refused_at_construction() {
        let _ = Cosim::new(CosimConfig {
            hw_cycle: Duration::from_ns(100),
            sw_cycle: Duration::from_fs(1),
        });
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
        // A ratio whose scaled period does not fit in u64 femtoseconds:
        // 100 ns times 2e11 is 2e19 fs, which truncated to 64 bits
        // would read about 1.55e18 fs.
        let err = cosim
            .add_clock_domain("big", 200_000_000_000, 1)
            .unwrap_err();
        assert!(
            matches!(&err, CosimError::Setup(m) if m.contains("past u64::MAX")),
            "{err}"
        );
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

    /// Installs one kind of unit as `link`.
    type AddUnit = fn(&mut Cosim) -> UnitId;

    /// The four unit kinds a module can bind to: an FSM handshake, a
    /// batched link under both bus timings and a native FIFO.
    fn every_unit_kind() -> Vec<(&'static str, AddUnit)> {
        vec![
            ("handshake", |c| {
                c.add_fsm_unit("link", handshake_unit("hs", Type::INT16))
            }),
            ("batched", |c| {
                c.add_batched_unit("link", Type::INT16, 4, 16).unwrap()
            }),
            ("payload_beats", |c| {
                let timing = BusTiming::PayloadBeats;
                c.add_batched_unit_with("link", Type::INT16, 4, 16, timing)
                    .unwrap()
            }),
            ("fifo", |c| {
                c.add_native_unit("link", Box::new(FifoChannel::new("fifo", 4)))
            }),
        ]
    }

    #[test]
    fn upper_case_callers_bind_and_park_on_every_unit_kind() {
        // A VHDL front-end upper-cases every identifier, so its modules
        // call `PUT`/`GET`. They must bind and behave exactly like the
        // declared spelling on every kind of unit — the multi-view
        // promise that one module works against any unit.
        for (kind, add_unit) in every_unit_kind() {
            let exchange = |put: &str, get: &str| {
                let mut cosim = Cosim::new(CosimConfig::default());
                let link = add_unit(&mut cosim);
                let p = cosim
                    .add_module(&producer_as(&[5, 6, 7], put), &[("iface", link)])
                    .unwrap();
                let c = cosim
                    .add_module(&consumer_as(3, get), &[("iface", link)])
                    .unwrap();
                cosim.run_for(Duration::from_us(20)).unwrap();
                let statuses = [cosim.module_status(p), cosim.module_status(c)];
                let sum = cosim.module_var(c, "SUM");
                let stats = cosim.unit_stats("link").unwrap();
                (cosim.trace_log(), statuses, sum, stats)
            };
            let declared = exchange("put", "get");
            assert_eq!(declared.2, Some(Value::Int(18)), "{kind}: exchange ran");
            assert_eq!(exchange("PUT", "GET"), declared, "{kind}: upper case");

            // A starved consumer parks on the unit's completion wires,
            // and the backplane goes quiescent.
            let mut cosim = Cosim::new(CosimConfig::default());
            let link = add_unit(&mut cosim);
            let c = cosim
                .add_module(&consumer_as(1, "GET"), &[("iface", link)])
                .unwrap();
            let quiesced = cosim.run_to_quiescence(SimTime::from_ns(10_000)).unwrap();
            assert!(quiesced, "{kind}: a starved GET consumer quiesces");
            let activations = cosim.module_status(c).activations;
            assert!(activations <= 2, "{kind}: parked after {activations}");
        }
    }

    #[test]
    fn undeclared_service_installs_and_fails_when_called() {
        // Service names resolve when the module is installed, but a
        // spelling the unit does not declare is not a setup error: the
        // module runs until the call executes, then halts with the
        // unit's message.
        fn late_caller() -> Module {
            let mut b = ModuleBuilder::new("late", ModuleKind::Software);
            let done = b.var("D", Type::Bool, Value::Bool(false));
            let bind = b.binding("iface", "link");
            let wait = b.state("WAIT");
            let call = b.state("CALL");
            b.transition(wait, None, call);
            b.actions(
                call,
                vec![Stmt::Call(ServiceCall {
                    binding: bind,
                    service: "peek".into(),
                    args: vec![],
                    done: Some(done),
                    result: None,
                })],
            );
            b.transition(call, None, call);
            b.initial(wait);
            b.build().unwrap()
        }
        for cfg in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
            for (kind, add_unit) in every_unit_kind() {
                let mut cosim = Cosim::new(CosimConfig::default());
                cosim.set_scheduling(cfg).unwrap();
                let link = add_unit(&mut cosim);
                let id = cosim.add_module(&late_caller(), &[("iface", link)]);
                let id = id.expect("an undeclared service still installs");
                let err = cosim.run_for(Duration::from_us(1)).unwrap_err();
                let msg = "module late: service call failed: unit link has no service peek";
                assert_eq!(err, CosimError::Runtime(msg.to_string()), "{cfg:?}/{kind}");
                let st = cosim.module_status(id);
                assert_eq!(st.state, "CALL", "{cfg:?}/{kind}");
                assert_eq!(st.activations, 1, "{cfg:?}/{kind}: ran before the call");
                assert_eq!(st.error.as_deref(), Some(msg));
            }
        }
    }

    #[test]
    fn halted_backplane_quiesces_under_every_scheduler() {
        // Once a module halts on an error, every unit process must stop
        // and surrender its clock demand, whatever the scheduler and the
        // unit kind, so the halted backplane quiesces.
        let mut b = ModuleBuilder::new("bad", ModuleKind::Software);
        let bind = b.binding("iface", "link");
        let s = b.state("S");
        b.actions(
            s,
            vec![Stmt::Call(ServiceCall {
                binding: bind,
                service: "bogus".into(),
                args: vec![],
                done: None,
                result: None,
            })],
        );
        b.transition(s, None, s);
        b.initial(s);
        let bad = b.build().unwrap();
        let parking_oracle = SchedulingConfig {
            park_blocked: true,
            ..SchedulingConfig::legacy()
        };
        for cfg in [
            SchedulingConfig::sharded(),
            SchedulingConfig::legacy(),
            parking_oracle,
        ] {
            for (kind, add_unit) in every_unit_kind() {
                let mut cosim = Cosim::new(CosimConfig::default());
                cosim.set_scheduling(cfg).unwrap();
                let link = add_unit(&mut cosim);
                cosim.add_module(&bad, &[("iface", link)]).unwrap();
                let err = cosim.run_for(Duration::from_us(10)).unwrap_err();
                assert!(err.to_string().contains("bogus"), "{cfg:?}/{kind}: {err}");
                assert!(
                    !cosim.pending_activity(),
                    "{cfg:?}/{kind}: the halted backplane quiesces"
                );
                let runs = cosim.sim().stats().process_runs;
                assert!(runs < 40, "{cfg:?}/{kind}: {runs} process runs");
            }
        }
    }

    /// A port-less module `m` walking a chain of `states` states, with
    /// `vars` variables.
    fn chain_module(states: usize, vars: usize) -> Module {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        for v in 0..vars {
            b.var(format!("V{v}"), Type::INT16, Value::Int(v as i64));
        }
        let ids: Vec<_> = (0..states).map(|k| b.state(format!("S{k}"))).collect();
        for pair in ids.windows(2) {
            b.transition(pair[0], None, pair[1]);
        }
        b.transition(ids[states - 1], None, ids[states - 1]);
        b.initial(ids[0]);
        b.build().unwrap()
    }

    /// A unit `u` with one wire `W` and a controller walking a chain of
    /// `states` states, one per step while `W` is high.
    fn chain_controller_unit(states: usize) -> Arc<CommUnitSpec> {
        let mut u = cosma_core::comm::CommUnitBuilder::new("u");
        let w = u.wire("W", Type::Bit, Value::Bit(cosma_core::Bit::Zero));
        let mut ctrl = cosma_core::FsmBuilder::new();
        let ids: Vec<_> = (0..states).map(|k| ctrl.state(format!("C{k}"))).collect();
        let high = Expr::port(w).eq(Expr::bit(cosma_core::Bit::One));
        for pair in ids.windows(2) {
            ctrl.transition(pair[0], Some(high.clone()), pair[1]);
        }
        ctrl.initial(ids[0]);
        u.controller(vec![], ctrl.build().unwrap());
        u.build().unwrap()
    }

    /// Restores `snap` into `target` and checks the restore is refused
    /// with a setup error that leaves `target` running exactly like the
    /// untouched `twin`.
    fn assert_refused_untouched(target: &mut Cosim, twin: &mut Cosim, snap: &Snapshot) {
        let err = target.restore(snap).unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)), "{err}");
        assert!(target.fork(snap).is_err());
        for cosim in [&mut *target, &mut *twin] {
            cosim.run_for(Duration::from_us(2)).unwrap();
        }
        assert_eq!(target.sim().now(), twin.sim().now());
        assert_eq!(target.shard_stats(), twin.shard_stats());
        assert_eq!(target.trace_log(), twin.trace_log());
        for m in 0..target.modules.borrow().len() {
            let id = CosimModuleId(m);
            assert_eq!(target.module_status(id), twin.module_status(id));
        }
    }

    #[test]
    fn foreign_module_snapshot_is_refused_before_mutation() {
        // A twin whose `m` sits in state 4 of 5, with 3 (or 1)
        // variables: its state does not exist in a 1-state `m`.
        for foreign_vars in [3, 1] {
            let mut foreign = Cosim::new(CosimConfig::default());
            foreign
                .add_module(&chain_module(5, foreign_vars), &[])
                .unwrap();
            foreign.run_for(Duration::from_us(1)).unwrap();
            let snap = foreign.snapshot();
            let build = || {
                let mut cosim = Cosim::new(CosimConfig::default());
                cosim.add_module(&chain_module(1, 1), &[]).unwrap();
                cosim.run_for(Duration::from_ns(300)).unwrap();
                cosim
            };
            let (mut target, mut twin) = (build(), build());
            assert_refused_untouched(&mut target, &mut twin, &snap);
        }
    }

    /// A unit `u` with one service `service` that completes on every
    /// activation.
    fn one_service_unit(service: &str) -> Arc<CommUnitSpec> {
        let mut u = cosma_core::comm::CommUnitBuilder::new("u");
        let mut svc = cosma_core::comm::ServiceSpecBuilder::new(service);
        let s = svc.state("GO");
        let done = cosma_core::comm::SERVICE_DONE_VAR;
        svc.actions(s, vec![Stmt::assign(done, Expr::bool(true))]);
        svc.transition(s, None, s);
        svc.initial(s);
        u.service(svc.build().unwrap());
        u.build().unwrap()
    }

    /// A module `m` calling `service` through binding `iface` on every
    /// activation.
    fn caller_of(service: &str) -> Module {
        let mut b = ModuleBuilder::new("m", ModuleKind::Software);
        let done = b.var("D", Type::Bool, Value::Bool(false));
        let bind = b.binding("iface", "u");
        let s = b.state("S");
        b.actions(
            s,
            vec![Stmt::Call(ServiceCall {
                binding: bind,
                service: service.into(),
                args: vec![],
                done: Some(done),
                result: None,
            })],
        );
        b.transition(s, None, s);
        b.initial(s);
        b.build().unwrap()
    }

    #[test]
    fn foreign_unit_snapshot_is_refused_before_mutation() {
        // A twin whose unit counted calls of `poke`: the target's unit
        // has the same shape but declares `ping`, so the captured stats
        // row names a service it lacks.
        let mut foreign = Cosim::new(CosimConfig::default());
        let u = foreign.add_fsm_unit("u", one_service_unit("poke"));
        foreign
            .add_module(&caller_of("poke"), &[("iface", u)])
            .unwrap();
        foreign.run_for(Duration::from_us(1)).unwrap();
        let snap = foreign.snapshot();
        let build = || {
            let mut cosim = Cosim::new(CosimConfig::default());
            let u = cosim.add_fsm_unit("u", one_service_unit("ping"));
            cosim
                .add_module(&caller_of("ping"), &[("iface", u)])
                .unwrap();
            cosim.run_for(Duration::from_ns(300)).unwrap();
            cosim
        };
        let (mut target, mut twin) = (build(), build());
        let err = target.restore(&snap).unwrap_err();
        assert!(
            err.to_string().contains("stats row of service poke"),
            "{err}"
        );
        assert_refused_untouched(&mut target, &mut twin, &snap);
        assert_eq!(target.unit_stats("u"), twin.unit_stats("u"));

        // A twin whose unit controller sits in state 3 of 4: that state
        // does not exist in a 1-state controller.
        let mut foreign = Cosim::new(CosimConfig::default());
        foreign.add_fsm_unit("u", chain_controller_unit(4));
        let w = foreign.sim().find_signal("u.W").unwrap();
        foreign.sim_mut().poke(w, Value::Bit(cosma_core::Bit::One));
        foreign.run_for(Duration::from_us(1)).unwrap();
        let snap = foreign.snapshot();
        let build = || {
            let mut cosim = Cosim::new(CosimConfig::default());
            cosim.add_fsm_unit("u", chain_controller_unit(1));
            cosim.run_for(Duration::from_ns(300)).unwrap();
            // An event on `u.W` steps the controller.
            let w = cosim.sim().find_signal("u.W").unwrap();
            cosim.sim_mut().poke(w, Value::Bit(cosma_core::Bit::One));
            cosim
        };
        let (mut target, mut twin) = (build(), build());
        assert_refused_untouched(&mut target, &mut twin, &snap);
    }

    #[test]
    fn failing_spill_sink_neither_panics_nor_strands_the_run() {
        use crate::scenario::{build_scenario, ScenarioSpec, Topology};
        use crate::trace::SEG_ENTRIES;

        /// Accepts the stream header and one segment, then fails.
        struct FullDisk(usize);
        impl std::io::Write for FullDisk {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let spec = ScenarioSpec {
            units: 6,
            topology: Topology::Ring,
            values_per_link: 40,
            trace: true,
            ..ScenarioSpec::default()
        };
        let budget = Duration::from_ms(5);
        let mut twin = build_scenario(&spec).unwrap();
        assert!(twin.run_to_completion(budget).unwrap());
        let all = twin.cosim.trace_log();
        assert!(all.len() > 3 * SEG_ENTRIES, "{} entries", all.len());

        let mut sc = build_scenario(&spec).unwrap();
        let handle = sc.cosim.trace_handle();
        handle.borrow_mut().set_spill(Box::new(FullDisk(2)));
        assert!(sc.run_to_completion(budget).unwrap(), "the run completes");
        sc.verify().unwrap();
        assert_eq!(sc.cosim.sim().now(), twin.cosim.sim().now());
        let log = sc.cosim.trace_log();
        assert_eq!(log.spilled(), SEG_ENTRIES as u64, "one segment accepted");
        assert_eq!(log.len(), all.len() - SEG_ENTRIES);
        assert!(log.iter().eq(all.iter().skip(SEG_ENTRIES)));
        let err = handle.borrow_mut().flush_spill().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
