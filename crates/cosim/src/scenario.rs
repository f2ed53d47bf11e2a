//! Scenario generator: parameterized N-unit backplane topologies.
//!
//! Benches and tests need co-simulations with *hundreds* of units, wired
//! in realistic shapes, without hand-writing hundreds of FSMs. A
//! [`ScenarioSpec`] describes the shape — link count, [`Topology`],
//! [`LinkKind`] (classic handshake or batched bus), traffic volume,
//! clocking and [`SchedulingConfig`] — and [`build_scenario`] elaborates it
//! into a ready-to-run [`Scenario`] whose completion is mechanically
//! checkable ([`Scenario::verify`]).
//!
//! Topologies:
//!
//! * **Pipeline** — `N` links in a chain: one producer, `N-1` relays,
//!   one consumer. Traffic travels as a wave, so most units are idle at
//!   any instant — the sharded scheduler's best case.
//! * **Star** — `N` producers each on a private link into one
//!   round-robin hub consumer.
//! * **Ring** — `N` links closed into a cycle; a driver module sends
//!   tokens all the way around through `N-1` forever-relays.
//! * **Random DAG** — the links are split (deterministically from a
//!   seed) into independent pipelines of random length: a random DAG
//!   with in/out degree ≤ 1, modelling uncorrelated traffic across the
//!   backplane.
//! * **Starved** — a consumer per link but a producer only on link 0:
//!   `N-1` consumers block on `get` forever, the activation-parking
//!   showcase.
//!
//! Module kinds alternate between hardware and software so both
//! activation clocks are exercised.

use crate::backplane::{
    BoundaryQueue, Cosim, CosimConfig, CosimError, CosimModuleId, DomainId, ModuleStatus,
    SchedulingConfig, UnitId,
};
use crate::partition::{BoundarySpec, Orchestrator, PartitionId};
use cosma_comm::{handshake_unit, BusTiming};
use cosma_core::{Expr, Module, ModuleBuilder, ModuleKind, ServiceCall, Stmt, Type, Value};
use cosma_sim::Duration;
use std::cell::RefCell;
use std::rc::Rc;

/// Wiring shape of a generated scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A single producer→relay→…→consumer chain over all links.
    Pipeline,
    /// One producer per link, all feeding a round-robin hub.
    Star,
    /// Links closed into a cycle; a driver circulates tokens.
    Ring,
    /// Independent random-length pipelines (random DAG, degree ≤ 1),
    /// deterministic in the seed.
    RandomDag {
        /// RNG seed for the segment partition.
        seed: u64,
    },
    /// Every link gets a consumer blocked on `get`, but only link 0 has
    /// a producer: `N-1` consumers stay service-blocked forever. The
    /// activation scheduler's parking showcase — without it, every
    /// starved consumer burns one no-op activation per clock edge.
    Starved,
    /// The [`Starved`](Topology::Starved) wiring with deliberately
    /// skewed step costs: link 0's producer burns [`HEAVY_WORK`]
    /// chained arithmetic assignments per activation while the starved
    /// consumers are near-free: one expensive activation amid many
    /// cheap ones in the same stepping set.
    Skewed,
}

/// Per-activation arithmetic statements of the [`Topology::Skewed`]
/// heavy producer.
pub const HEAVY_WORK: usize = 96;

/// Communication-unit flavour used for every link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// The classic per-value 4-phase [`handshake_unit`].
    Handshake,
    /// A [`cosma_comm::BatchedLink`]: one wire handshake per batch.
    Batched {
        /// Values per bus transaction.
        max_batch: usize,
        /// Total link occupancy bound.
        capacity: usize,
        /// Wire-level bus timing: [`BusTiming::LengthOnly`] for the
        /// fast path, [`BusTiming::PayloadBeats`] for cycle-accurate
        /// payload streaming on `DATA`.
        timing: BusTiming,
    },
}

/// Clock-domain knob: carves a "slow" (or fast) second clock domain
/// out of a scenario. The first [`DomainsSpec::slow_links`] links —
/// and every module whose *input* binding targets one of them — are
/// placed in a domain running at [`DomainsSpec::ratio`] (period
/// `num:den`) versus the base domain. `slow_links == 0` leaves the
/// whole scenario in the base domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainsSpec {
    /// Period ratio `(num, den)` of the second domain versus the base:
    /// `(4, 1)` gives a quarter-rate domain (members see one rising
    /// edge for every four base edges). `(1, 1)` creates a distinct
    /// domain at the same rate — useful for exercising multi-domain
    /// machinery without a rate skew.
    pub ratio: (u64, u64),
    /// Number of links, from link 0 upward, placed in the second
    /// domain.
    pub slow_links: usize,
}

impl Default for DomainsSpec {
    fn default() -> Self {
        DomainsSpec {
            ratio: (1, 1),
            slow_links: 0,
        }
    }
}

/// Partitioning knob: how a scenario is cut across coupled backplane
/// instances ([`build_partitioned`] / [`build_collapsed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionsSpec {
    /// Number of partitions. Modules are assigned in contiguous
    /// creation-order chunks; links whose producer and consumer land
    /// in different partitions become boundary links.
    pub count: usize,
    /// Transport latency of every boundary link. Must be positive.
    pub latency: Duration,
}

impl Default for PartitionsSpec {
    fn default() -> Self {
        PartitionsSpec {
            count: 2,
            latency: Duration::from_ns(200),
        }
    }
}

/// Everything needed to elaborate a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Number of communication units (links).
    pub units: usize,
    /// Wiring shape.
    pub topology: Topology,
    /// Values sent per producer (per link for Star, per segment for
    /// pipelines, tokens around the Ring).
    pub values_per_link: usize,
    /// Link flavour.
    pub link: LinkKind,
    /// Backplane clocking.
    pub config: CosimConfig,
    /// Activation-scheduler configuration (unit dispatch, module
    /// dispatch, parking).
    pub scheduling: SchedulingConfig,
    /// When set, every generated module emits a `Stmt::Trace` record on
    /// every activation of its main loop state — the trace-heavy
    /// regime. Tracing counts as an effective change, so traced
    /// modules never park; use it to stress the trace log and the
    /// steady-state allocation discipline, not the parking machinery.
    pub trace: bool,
    /// Clock-domain layout (defaults to everything in the base
    /// domain).
    pub domains: DomainsSpec,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            units: 16,
            topology: Topology::Pipeline,
            values_per_link: 4,
            link: LinkKind::Handshake,
            config: CosimConfig::default(),
            scheduling: SchedulingConfig::default(),
            trace: false,
            domains: DomainsSpec::default(),
        }
    }
}

/// An elaborated scenario: the backplane plus the bookkeeping needed to
/// check that all traffic arrived.
pub struct Scenario {
    /// The assembled backplane, ready to run.
    pub cosim: Cosim,
    /// All module ids, in creation order.
    pub modules: Vec<CosimModuleId>,
    /// All link unit ids, in creation order.
    pub links: Vec<UnitId>,
    /// Terminating checker modules and the SUM each must reach.
    checkers: Vec<(CosimModuleId, i64)>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("modules", &self.modules.len())
            .field("links", &self.links.len())
            .field("checkers", &self.checkers.len())
            .finish()
    }
}

impl Scenario {
    /// Whether every terminating checker module has reached `END`.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.checkers
            .iter()
            .all(|(id, _)| self.cosim.module_status(*id).state == "END")
    }

    /// Runs in chunks until every checker terminates or `budget`
    /// elapses. Returns whether the scenario completed.
    ///
    /// # Errors
    ///
    /// Propagates backplane runtime errors.
    pub fn run_to_completion(&mut self, budget: Duration) -> Result<bool, CosimError> {
        let chunk = Duration::from_us(5);
        let deadline = self.cosim.sim().now().saturating_add(budget);
        while self.cosim.sim().now() < deadline {
            let next = self.cosim.sim().now().saturating_add(chunk).min(deadline);
            self.cosim.run_until(next)?;
            if self.is_complete() {
                return Ok(true);
            }
        }
        Ok(self.is_complete())
    }

    /// Checks that every checker reached `END` with the expected
    /// checksum.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn verify(&self) -> Result<(), String> {
        for (i, (id, expect)) in self.checkers.iter().enumerate() {
            let status = self.cosim.module_status(*id);
            if status.state != "END" {
                return Err(format!(
                    "checker {i}: stuck in {} after {} activations",
                    status.state, status.activations
                ));
            }
            let got = self.cosim.module_var(*id, "SUM");
            if got != Some(Value::Int(*expect)) {
                return Err(format!("checker {i}: SUM {got:?}, expected {expect}"));
            }
        }
        Ok(())
    }
}

/// Alternating module kinds exercise both activation clocks.
fn kind_for(index: usize) -> ModuleKind {
    if index.is_multiple_of(2) {
        ModuleKind::Hardware
    } else {
        ModuleKind::Software
    }
}

/// Prepends the trace-heavy marker record to a state's action list
/// when the scenario's trace regime is on: one `Stmt::Trace` of `var`
/// per activation of that state.
fn traced(trace: bool, var: cosma_core::ids::VarId, mut acts: Vec<Stmt>) -> Vec<Stmt> {
    if trace {
        acts.insert(0, Stmt::Trace("tick".into(), vec![Expr::var(var)]));
    }
    acts
}

/// A producer sending `base`, `base+1`, …, `base+n-1` on binding `out`.
fn producer(name: &str, kind: ModuleKind, base: i64, n: usize, trace: bool) -> Module {
    producer_with_work(name, kind, base, n, 0, trace)
}

/// [`producer`] with `work` extra arithmetic assignments per activation
/// on a scratch variable — a knob for skewing per-module step cost.
fn producer_with_work(
    name: &str,
    kind: ModuleKind,
    base: i64,
    n: usize,
    work: usize,
    trace: bool,
) -> Module {
    let mut b = ModuleBuilder::new(name, kind);
    let done = b.var("D", Type::Bool, Value::Bool(false));
    let idx = b.var("I", Type::INT16, Value::Int(0));
    let out = b.binding("out", "link");
    let put = b.state("PUT");
    let end = b.state("END");
    let mut acts = Vec::with_capacity(work + 2);
    if trace {
        acts.push(Stmt::Trace("tick".into(), vec![Expr::var(idx)]));
    }
    if work > 0 {
        let w = b.var("W", Type::INT16, Value::Int(0));
        for _ in 0..work {
            acts.push(Stmt::assign(
                w,
                Expr::var(w).add(Expr::var(idx)).add(Expr::int(1)),
            ));
        }
    }
    acts.push(Stmt::Call(ServiceCall {
        binding: out,
        service: "put".into(),
        args: vec![Expr::int(base).add(Expr::var(idx))],
        done: Some(done),
        result: None,
    }));
    b.actions(put, acts);
    b.transition_with(
        put,
        Some(Expr::var(done).and(Expr::var(idx).ge(Expr::int(n as i64 - 1)))),
        vec![],
        end,
    );
    b.transition_with(
        put,
        Some(Expr::var(done)),
        vec![Stmt::assign(idx, Expr::var(idx).add(Expr::int(1)))],
        put,
    );
    b.transition(end, None, end);
    b.initial(put);
    b.build().expect("generated producer is well-formed")
}

/// A relay forwarding values from binding `in` to binding `out`:
/// `n` values then `END`, or forever when `n` is `None`.
fn relay(name: &str, kind: ModuleKind, n: Option<usize>, trace: bool) -> Module {
    let mut b = ModuleBuilder::new(name, kind);
    let done = b.var("D", Type::Bool, Value::Bool(false));
    let val = b.var("V", Type::INT16, Value::Int(0));
    let cnt = b.var("CNT", Type::INT16, Value::Int(0));
    let inb = b.binding("in", "link");
    let outb = b.binding("out", "link");
    let get = b.state("GET");
    let put = b.state("PUT");
    b.actions(
        get,
        traced(
            trace,
            cnt,
            vec![Stmt::Call(ServiceCall {
                binding: inb,
                service: "get".into(),
                args: vec![],
                done: Some(done),
                result: Some(val),
            })],
        ),
    );
    b.transition(get, Some(Expr::var(done)), put);
    b.actions(
        put,
        traced(
            trace,
            cnt,
            vec![Stmt::Call(ServiceCall {
                binding: outb,
                service: "put".into(),
                args: vec![Expr::var(val)],
                done: Some(done),
                result: None,
            })],
        ),
    );
    if let Some(n) = n {
        let end = b.state("END");
        b.transition_with(
            put,
            Some(Expr::var(done).and(Expr::var(cnt).ge(Expr::int(n as i64 - 1)))),
            vec![],
            end,
        );
        b.transition(end, None, end);
    }
    b.transition_with(
        put,
        Some(Expr::var(done)),
        vec![Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1)))],
        get,
    );
    b.initial(get);
    b.build().expect("generated relay is well-formed")
}

/// A consumer summing `n` values from binding `in` into `SUM`, then
/// `END`.
fn consumer(name: &str, kind: ModuleKind, n: usize, trace: bool) -> Module {
    let mut b = ModuleBuilder::new(name, kind);
    let done = b.var("D", Type::Bool, Value::Bool(false));
    let val = b.var("V", Type::INT16, Value::Int(0));
    let sum = b.var("SUM", Type::INT16, Value::Int(0));
    let cnt = b.var("CNT", Type::INT16, Value::Int(0));
    let inb = b.binding("in", "link");
    let get = b.state("GET");
    let end = b.state("END");
    b.actions(
        get,
        traced(
            trace,
            sum,
            vec![Stmt::Call(ServiceCall {
                binding: inb,
                service: "get".into(),
                args: vec![],
                done: Some(done),
                result: Some(val),
            })],
        ),
    );
    b.transition_with(
        get,
        Some(Expr::var(done).and(Expr::var(cnt).ge(Expr::int(n as i64 - 1)))),
        vec![Stmt::assign(sum, Expr::var(sum).add(Expr::var(val)))],
        end,
    );
    b.transition_with(
        get,
        Some(Expr::var(done)),
        vec![
            Stmt::assign(sum, Expr::var(sum).add(Expr::var(val))),
            Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1))),
        ],
        get,
    );
    b.transition(end, None, end);
    b.initial(get);
    b.build().expect("generated consumer is well-formed")
}

/// The round-robin hub of a Star: cycles over `links` inputs, `rounds`
/// values from each, summing everything into `SUM`.
fn hub(name: &str, kind: ModuleKind, links: usize, rounds: usize, trace: bool) -> Module {
    let mut b = ModuleBuilder::new(name, kind);
    let done = b.var("D", Type::Bool, Value::Bool(false));
    let val = b.var("V", Type::INT16, Value::Int(0));
    let sum = b.var("SUM", Type::INT16, Value::Int(0));
    let cnt = b.var("CNT", Type::INT16, Value::Int(0));
    let bindings: Vec<_> = (0..links)
        .map(|i| b.binding(format!("in{i}"), "link"))
        .collect();
    let states: Vec<_> = (0..links).map(|i| b.state(format!("GET{i}"))).collect();
    let end = b.state("END");
    let total = (links * rounds) as i64;
    for i in 0..links {
        b.actions(
            states[i],
            traced(
                trace,
                sum,
                vec![Stmt::Call(ServiceCall {
                    binding: bindings[i],
                    service: "get".into(),
                    args: vec![],
                    done: Some(done),
                    result: Some(val),
                })],
            ),
        );
        b.transition_with(
            states[i],
            Some(Expr::var(done).and(Expr::var(cnt).ge(Expr::int(total - 1)))),
            vec![Stmt::assign(sum, Expr::var(sum).add(Expr::var(val)))],
            end,
        );
        b.transition_with(
            states[i],
            Some(Expr::var(done)),
            vec![
                Stmt::assign(sum, Expr::var(sum).add(Expr::var(val))),
                Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1))),
            ],
            states[(i + 1) % links],
        );
    }
    b.transition(end, None, end);
    b.initial(states[0]);
    b.build().expect("generated hub is well-formed")
}

/// The Ring driver: sends `n` tokens on `out`, receives each back on
/// `in`, sums them, then `END`.
fn ring_driver(name: &str, kind: ModuleKind, base: i64, n: usize, trace: bool) -> Module {
    let mut b = ModuleBuilder::new(name, kind);
    let done = b.var("D", Type::Bool, Value::Bool(false));
    let val = b.var("V", Type::INT16, Value::Int(0));
    let sum = b.var("SUM", Type::INT16, Value::Int(0));
    let cnt = b.var("CNT", Type::INT16, Value::Int(0));
    let inb = b.binding("in", "link");
    let outb = b.binding("out", "link");
    let put = b.state("PUT");
    let get = b.state("GET");
    let end = b.state("END");
    b.actions(
        put,
        traced(
            trace,
            cnt,
            vec![Stmt::Call(ServiceCall {
                binding: outb,
                service: "put".into(),
                args: vec![Expr::int(base).add(Expr::var(cnt))],
                done: Some(done),
                result: None,
            })],
        ),
    );
    b.transition(put, Some(Expr::var(done)), get);
    b.actions(
        get,
        traced(
            trace,
            cnt,
            vec![Stmt::Call(ServiceCall {
                binding: inb,
                service: "get".into(),
                args: vec![],
                done: Some(done),
                result: Some(val),
            })],
        ),
    );
    b.transition_with(
        get,
        Some(Expr::var(done).and(Expr::var(cnt).ge(Expr::int(n as i64 - 1)))),
        vec![Stmt::assign(sum, Expr::var(sum).add(Expr::var(val)))],
        end,
    );
    b.transition_with(
        get,
        Some(Expr::var(done)),
        vec![
            Stmt::assign(sum, Expr::var(sum).add(Expr::var(val))),
            Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1))),
        ],
        put,
    );
    b.transition(end, None, end);
    b.initial(put);
    b.build().expect("generated ring driver is well-formed")
}

/// Sum of the arithmetic run `base .. base+n-1`, wrapped like an INT16
/// accumulator wraps.
fn run_sum(base: i64, n: usize) -> i64 {
    let mut sum = 0i64;
    for i in 0..n as i64 {
        sum = ((sum + base + i) as i16) as i64;
    }
    sum
}

/// xorshift64: a tiny deterministic RNG for `Topology::RandomDag`.
struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A planned module: its FSM description plus `(binding name, link
/// index)` pairs, resolved to concrete unit ids at elaboration time.
/// Producer-side bindings are named `out`; consumer-side bindings
/// start with `in` — the partitioner relies on this convention to
/// orient boundary links.
struct PlannedModule {
    module: Module,
    bindings: Vec<(String, usize)>,
}

/// A topology plan: pure data, shared by every elaboration flavour
/// (monolithic, multi-rate, partitioned, collapsed oracle). Link `i`
/// is named `link{i}`; checker expectations reference modules by plan
/// index.
struct ScenarioPlan {
    n_links: usize,
    modules: Vec<PlannedModule>,
    checkers: Vec<(usize, i64)>,
}

/// Plans a spec's topology without touching a backplane.
fn plan_scenario(spec: &ScenarioSpec) -> Result<ScenarioPlan, CosimError> {
    if spec.units == 0 {
        return Err(CosimError::Setup("scenario needs at least one unit".into()));
    }
    if spec.values_per_link == 0 {
        return Err(CosimError::Setup(
            "scenario needs at least one value per link".into(),
        ));
    }
    let m = spec.values_per_link;
    let mut plan = ScenarioPlan {
        n_links: spec.units,
        modules: vec![],
        checkers: vec![],
    };
    match spec.topology {
        Topology::Pipeline => plan_segment(&mut plan, 0, spec.units, m, spec.trace),
        Topology::Star => {
            for i in 0..spec.units {
                let base = (i as i64 * 7) % 50;
                plan.modules.push(PlannedModule {
                    module: producer(&format!("prod{i}"), kind_for(i), base, m, spec.trace),
                    bindings: vec![("out".into(), i)],
                });
            }
            let h = hub("hub", kind_for(spec.units), spec.units, m, spec.trace);
            plan.modules.push(PlannedModule {
                module: h,
                bindings: (0..spec.units).map(|i| (format!("in{i}"), i)).collect(),
            });
            let expect = (0..spec.units).fold(0i64, |acc, i| {
                let base = (i as i64 * 7) % 50;
                ((acc + run_sum(base, m)) as i16) as i64
            });
            plan.checkers.push((plan.modules.len() - 1, expect));
        }
        Topology::Ring => {
            let n = spec.units;
            plan.modules.push(PlannedModule {
                module: ring_driver("driver", kind_for(0), 3, m, spec.trace),
                bindings: vec![("out".into(), 0), ("in".into(), n - 1)],
            });
            for i in 1..n {
                plan.modules.push(PlannedModule {
                    module: relay(&format!("relay{i}"), kind_for(i), None, spec.trace),
                    bindings: vec![("in".into(), i - 1), ("out".into(), i)],
                });
            }
            plan.checkers.push((0, run_sum(3, m)));
        }
        Topology::RandomDag { seed } => {
            let mut rng = XorShift64(seed ^ 0x9E37_79B9_7F4A_7C15);
            let mut start = 0usize;
            while start < spec.units {
                let remaining = spec.units - start;
                let len = 1 + (rng.next() as usize) % remaining.min(4);
                plan_segment(&mut plan, start, len, m, spec.trace);
                start += len;
            }
        }
        Topology::Starved | Topology::Skewed => {
            // One consumer per link, but traffic only on link 0: the
            // consumers on links 1..N block on `get` forever. Skewed
            // additionally loads the producer with HEAVY_WORK dummy
            // statements per activation.
            let work = if spec.topology == Topology::Skewed {
                HEAVY_WORK
            } else {
                0
            };
            plan.modules.push(PlannedModule {
                module: producer_with_work("prod0", kind_for(0), 3, m, work, spec.trace),
                bindings: vec![("out".into(), 0)],
            });
            for i in 0..spec.units {
                plan.modules.push(PlannedModule {
                    module: consumer(&format!("cons{i}"), kind_for(i + 1), m, spec.trace),
                    bindings: vec![("in".into(), i)],
                });
                if i == 0 {
                    plan.checkers.push((plan.modules.len() - 1, run_sum(3, m)));
                }
            }
        }
    }
    Ok(plan)
}

/// Plans one producer→relay*→consumer pipeline over links
/// `[start, start+len)`; `start` decorrelates names and value bases
/// across segments.
fn plan_segment(plan: &mut ScenarioPlan, start: usize, len: usize, m: usize, trace: bool) {
    let base = (start as i64 * 11) % 40;
    plan.modules.push(PlannedModule {
        module: producer(&format!("prod{start}"), kind_for(start), base, m, trace),
        bindings: vec![("out".into(), start)],
    });
    for k in 0..len - 1 {
        plan.modules.push(PlannedModule {
            module: relay(
                &format!("relay{start}_{k}"),
                kind_for(start + k + 1),
                Some(m),
                trace,
            ),
            bindings: vec![("in".into(), start + k), ("out".into(), start + k + 1)],
        });
    }
    plan.modules.push(PlannedModule {
        module: consumer(&format!("cons{start}"), kind_for(start + len), m, trace),
        bindings: vec![("in".into(), start + len - 1)],
    });
    plan.checkers
        .push((plan.modules.len() - 1, run_sum(base, m)));
}

/// Creates the spec's second clock domain on a backplane, when the
/// spec asks for one (`slow_links > 0`). Must run before any unit is
/// added.
fn scenario_domains(
    cosim: &mut Cosim,
    spec: &ScenarioSpec,
) -> Result<Option<DomainId>, CosimError> {
    if spec.domains.slow_links == 0 {
        return Ok(None);
    }
    let (num, den) = spec.domains.ratio;
    Ok(Some(cosim.add_clock_domain("slow", num, den)?))
}

/// The domain link `i` lives in.
fn link_domain(spec: &ScenarioSpec, slow: Option<DomainId>, i: usize) -> DomainId {
    match slow {
        Some(d) if i < spec.domains.slow_links => d,
        _ => DomainId::BASE,
    }
}

/// The domain a planned module lives in: that of its input link (a
/// module's activation rate is governed by its input side), falling
/// back to its first binding.
fn module_domain(spec: &ScenarioSpec, slow: Option<DomainId>, pm: &PlannedModule) -> DomainId {
    pm.bindings
        .iter()
        .find(|(n, _)| n.starts_with("in"))
        .or_else(|| pm.bindings.first())
        .map_or(DomainId::BASE, |&(_, li)| link_domain(spec, slow, li))
}

/// Adds link `i` to a backplane in domain `d`, with the spec's link
/// flavour.
fn add_link(
    cosim: &mut Cosim,
    spec: &ScenarioSpec,
    i: usize,
    d: DomainId,
) -> Result<UnitId, CosimError> {
    let name = format!("link{i}");
    match spec.link {
        LinkKind::Handshake => cosim.add_fsm_unit_in(d, &name, handshake_unit("hs", Type::INT16)),
        LinkKind::Batched {
            max_batch,
            capacity,
            timing,
        } => cosim.add_batched_unit_in_with(d, &name, Type::INT16, max_batch, capacity, timing),
    }
}

/// Elaborates a spec into a runnable scenario. All links are created
/// before any module, so link/shard process ids precede module process
/// ids regardless of topology — the per-unit and sharded schedulings
/// then produce identical traces.
///
/// # Errors
///
/// Returns [`CosimError::Setup`] for empty specs or invalid link
/// parameters.
pub fn build_scenario(spec: &ScenarioSpec) -> Result<Scenario, CosimError> {
    let plan = plan_scenario(spec)?;
    let mut cosim = Cosim::new(spec.config);
    cosim.set_scheduling(spec.scheduling)?;
    let slow = scenario_domains(&mut cosim, spec)?;
    let links: Vec<UnitId> = (0..plan.n_links)
        .map(|i| add_link(&mut cosim, spec, i, link_domain(spec, slow, i)))
        .collect::<Result<_, _>>()?;
    let mut modules = vec![];
    for pm in &plan.modules {
        let binds: Vec<(&str, UnitId)> = pm
            .bindings
            .iter()
            .map(|(n, li)| (n.as_str(), links[*li]))
            .collect();
        modules.push(cosim.add_module_in(module_domain(spec, slow, pm), &pm.module, &binds)?);
    }
    let checkers = plan
        .checkers
        .iter()
        .map(|&(j, expect)| (modules[j], expect))
        .collect();
    Ok(Scenario {
        cosim,
        modules,
        links,
        checkers,
    })
}

/// Where each link's unit(s) landed in a partitioned elaboration.
enum LinkSite {
    /// Producer and consumer share a partition (or the link is
    /// single-sided): one ordinary link there.
    Local { part: usize, unit: UnitId },
    /// The cut severs the link: an *out* half on the producer's
    /// partition, an *in* half on the consumer's.
    Cross {
        out: (usize, UnitId),
        inb: (usize, UnitId),
    },
}

/// Contiguous-chunk partition assignment of `n` modules over `count`
/// partitions.
fn chunked(n: usize, count: usize) -> Vec<usize> {
    (0..n).map(|j| j * count / n).collect()
}

/// Per-link producer/consumer partitions, derived from the binding
/// naming convention (`out` puts, `in*` gets).
fn link_endpoints(
    plan: &ScenarioPlan,
    part_of: &[usize],
) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
    let mut producer = vec![None; plan.n_links];
    let mut consumer = vec![None; plan.n_links];
    for (j, pm) in plan.modules.iter().enumerate() {
        for (name, li) in &pm.bindings {
            if name == "out" {
                producer[*li] = Some(part_of[j]);
            } else {
                consumer[*li] = Some(part_of[j]);
            }
        }
    }
    (producer, consumer)
}

/// The boundary contract used for every severed link of a spec.
fn boundary_spec(spec: &ScenarioSpec, latency: Duration) -> BoundarySpec {
    match spec.link {
        LinkKind::Handshake => BoundarySpec {
            data_ty: Type::INT16,
            max_batch: 1,
            capacity: 4,
            timing: BusTiming::LengthOnly,
            latency,
        },
        LinkKind::Batched {
            max_batch,
            capacity,
            timing,
        } => BoundarySpec {
            data_ty: Type::INT16,
            max_batch,
            capacity,
            timing,
            latency,
        },
    }
}

/// A scenario cut across coupled backplane partitions, ready to run
/// under the optimistic [`Orchestrator`].
pub struct PartitionedScenario {
    /// The orchestrator owning every partition.
    pub orch: Orchestrator,
    /// Partition ids, in partition order.
    pub parts: Vec<PartitionId>,
    /// Where each planned module landed, in plan (creation) order —
    /// index-compatible with the monolithic [`Scenario::modules`].
    pub modules: Vec<(PartitionId, CosimModuleId)>,
    /// Checker plan indices and expected SUMs.
    checkers: Vec<(usize, i64)>,
}

impl std::fmt::Debug for PartitionedScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedScenario")
            .field("partitions", &self.parts.len())
            .field("modules", &self.modules.len())
            .finish_non_exhaustive()
    }
}

impl PartitionedScenario {
    /// Advances every partition by `total` in quanta of `quantum`.
    ///
    /// # Errors
    ///
    /// Propagates orchestrator errors.
    pub fn run_for(&mut self, total: Duration, quantum: Duration) -> Result<(), CosimError> {
        self.orch.run_for(total, quantum)
    }

    /// Status of the `j`-th planned module (plan order, matching the
    /// monolithic scenario's module order).
    #[must_use]
    pub fn module_status(&self, j: usize) -> ModuleStatus {
        let (p, m) = self.modules[j];
        self.orch.partition(p).cosim().module_status(m)
    }

    /// A module variable of the `j`-th planned module.
    #[must_use]
    pub fn module_var(&self, j: usize, var: &str) -> Option<Value> {
        let (p, m) = self.modules[j];
        self.orch.partition(p).cosim().module_var(m, var)
    }

    /// Checks every checker reached `END` with the expected checksum.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn verify(&self) -> Result<(), String> {
        for (i, &(j, expect)) in self.checkers.iter().enumerate() {
            let status = self.module_status(j);
            if status.state != "END" {
                return Err(format!(
                    "checker {i}: stuck in {} after {} activations",
                    status.state, status.activations
                ));
            }
            let got = self.module_var(j, "SUM");
            if got != Some(Value::Int(expect)) {
                return Err(format!("checker {i}: SUM {got:?}, expected {expect}"));
            }
        }
        Ok(())
    }
}

/// Elaborates a spec cut into [`PartitionsSpec::count`] coupled
/// backplane partitions: modules are chunked contiguously in creation
/// order, links whose producer and consumer land on different chunks
/// become latency-annotated boundary links, and every partition gets
/// the same clock-domain layout. The bit-identical reference for a
/// partitioned run is [`build_collapsed`] with the same specs.
///
/// # Errors
///
/// Returns [`CosimError::Setup`] for invalid specs (empty scenario,
/// zero partitions, more partitions than modules, zero boundary
/// latency).
pub fn build_partitioned(
    spec: &ScenarioSpec,
    pspec: &PartitionsSpec,
) -> Result<PartitionedScenario, CosimError> {
    let plan = plan_scenario(spec)?;
    if pspec.count == 0 || pspec.count > plan.modules.len() {
        return Err(CosimError::Setup(format!(
            "cannot cut {} modules into {} partitions",
            plan.modules.len(),
            pspec.count
        )));
    }
    let part_of = chunked(plan.modules.len(), pspec.count);
    let (producer, consumer) = link_endpoints(&plan, &part_of);
    let mut orch = Orchestrator::new();
    let mut parts = vec![];
    let mut slow = None;
    for _ in 0..pspec.count {
        let mut c = Cosim::new(spec.config);
        c.set_scheduling(spec.scheduling)?;
        slow = scenario_domains(&mut c, spec)?;
        parts.push(orch.add_partition(c));
    }
    let bspec = boundary_spec(spec, pspec.latency);
    let mut sites = Vec::with_capacity(plan.n_links);
    for i in 0..plan.n_links {
        let d = link_domain(spec, slow, i);
        match (producer[i], consumer[i]) {
            (Some(p), Some(c)) if p != c => {
                let (ou, iu) = orch.add_boundary(
                    &format!("link{i}"),
                    parts[p],
                    d,
                    &bspec,
                    parts[c],
                    d,
                    &bspec,
                )?;
                sites.push(LinkSite::Cross {
                    out: (p, ou),
                    inb: (c, iu),
                });
            }
            (p, c) => {
                let home = p.or(c).unwrap_or(0);
                let unit = add_link(orch.partition_mut(parts[home]).cosim_mut(), spec, i, d)?;
                sites.push(LinkSite::Local { part: home, unit });
            }
        }
    }
    let mut modules = vec![];
    for (j, pm) in plan.modules.iter().enumerate() {
        let home = part_of[j];
        let binds: Vec<(&str, UnitId)> = pm
            .bindings
            .iter()
            .map(|(n, li)| {
                let unit = match &sites[*li] {
                    LinkSite::Local { part, unit } => {
                        debug_assert_eq!(*part, home, "local link in the module's partition");
                        *unit
                    }
                    LinkSite::Cross { out, inb } => {
                        if n == "out" {
                            debug_assert_eq!(out.0, home);
                            out.1
                        } else {
                            debug_assert_eq!(inb.0, home);
                            inb.1
                        }
                    }
                };
                (n.as_str(), unit)
            })
            .collect();
        let d = module_domain(spec, slow, pm);
        let id = orch
            .partition_mut(parts[home])
            .cosim_mut()
            .add_module_in(d, &pm.module, &binds)?;
        modules.push((parts[home], id));
    }
    Ok(PartitionedScenario {
        orch,
        parts,
        modules,
        checkers: plan.checkers,
    })
}

/// The *collapsed oracle*: the exact coupled structure
/// [`build_partitioned`] produces — same boundary half-units, same
/// latency-stamped queues, same pinned clock domains — but elaborated
/// into ONE backplane, where the queues fill and drain inline and no
/// orchestration is needed. A partitioned run is correct iff it is
/// bit-identical (module statuses, traces, SUMs) to this oracle; the
/// comparison isolates exactly the cut — speculation, rollback, queue
/// commit — because everything else is structurally the same.
///
/// The returned scenario's `links` vector holds the ordinary unit for
/// local links and the *out* half for severed ones.
///
/// # Errors
///
/// Same as [`build_partitioned`].
pub fn build_collapsed(
    spec: &ScenarioSpec,
    pspec: &PartitionsSpec,
) -> Result<Scenario, CosimError> {
    let plan = plan_scenario(spec)?;
    if pspec.count == 0 || pspec.count > plan.modules.len() {
        return Err(CosimError::Setup(format!(
            "cannot cut {} modules into {} partitions",
            plan.modules.len(),
            pspec.count
        )));
    }
    let part_of = chunked(plan.modules.len(), pspec.count);
    let (producer, consumer) = link_endpoints(&plan, &part_of);
    let mut cosim = Cosim::new(spec.config);
    cosim.set_scheduling(spec.scheduling)?;
    let slow = scenario_domains(&mut cosim, spec)?;
    let bspec = boundary_spec(spec, pspec.latency);
    let mut links = vec![];
    let mut sites = Vec::with_capacity(plan.n_links);
    for i in 0..plan.n_links {
        let d = link_domain(spec, slow, i);
        match (producer[i], consumer[i]) {
            (Some(p), Some(c)) if p != c => {
                let queue = Rc::new(RefCell::new(BoundaryQueue::default()));
                let ou = cosim.add_boundary_out(
                    d,
                    &format!("link{i}.bo"),
                    bspec.data_ty.clone(),
                    bspec.max_batch,
                    bspec.capacity,
                    bspec.timing,
                    bspec.latency,
                    Rc::clone(&queue),
                )?;
                let iu = cosim.add_boundary_in(
                    d,
                    &format!("link{i}.bi"),
                    bspec.data_ty.clone(),
                    bspec.max_batch,
                    bspec.capacity,
                    bspec.timing,
                    queue,
                )?;
                links.push(ou);
                sites.push(LinkSite::Cross {
                    out: (p, ou),
                    inb: (c, iu),
                });
            }
            (p, c) => {
                let home = p.or(c).unwrap_or(0);
                let unit = add_link(&mut cosim, spec, i, d)?;
                links.push(unit);
                sites.push(LinkSite::Local { part: home, unit });
            }
        }
    }
    let mut modules = vec![];
    for pm in &plan.modules {
        let binds: Vec<(&str, UnitId)> = pm
            .bindings
            .iter()
            .map(|(n, li)| {
                let unit = match &sites[*li] {
                    LinkSite::Local { unit, .. } => *unit,
                    LinkSite::Cross { out, inb } => {
                        if n == "out" {
                            out.1
                        } else {
                            inb.1
                        }
                    }
                };
                (n.as_str(), unit)
            })
            .collect();
        modules.push(cosim.add_module_in(module_domain(spec, slow, pm), &pm.module, &binds)?);
    }
    // Partitioned backplanes run with their domains pinned (the edge
    // grid must not depend on how the cut distributes clock demand);
    // the oracle must match.
    cosim.pin_clock_domains();
    let checkers = plan
        .checkers
        .iter()
        .map(|&(j, expect)| (modules[j], expect))
        .collect();
    Ok(Scenario {
        cosim,
        modules,
        links,
        checkers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEntry;

    fn check(spec: ScenarioSpec, budget_us: u64) {
        let mut s = build_scenario(&spec).expect("builds");
        let done = s
            .run_to_completion(Duration::from_us(budget_us))
            .expect("runs");
        assert!(done, "{spec:?} did not complete within {budget_us}us");
        s.verify().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
    }

    #[test]
    fn pipeline_completes_both_link_kinds() {
        for link in [
            LinkKind::Handshake,
            LinkKind::Batched {
                max_batch: 8,
                capacity: 32,
                timing: BusTiming::LengthOnly,
            },
            LinkKind::Batched {
                max_batch: 8,
                capacity: 32,
                timing: BusTiming::PayloadBeats,
            },
        ] {
            check(
                ScenarioSpec {
                    units: 8,
                    link,
                    values_per_link: 3,
                    ..ScenarioSpec::default()
                },
                2_000,
            );
        }
    }

    #[test]
    fn star_completes() {
        check(
            ScenarioSpec {
                units: 6,
                topology: Topology::Star,
                values_per_link: 3,
                ..ScenarioSpec::default()
            },
            2_000,
        );
    }

    #[test]
    fn ring_completes() {
        check(
            ScenarioSpec {
                units: 5,
                topology: Topology::Ring,
                values_per_link: 4,
                ..ScenarioSpec::default()
            },
            4_000,
        );
    }

    #[test]
    fn random_dag_completes_and_is_deterministic() {
        for seed in [1u64, 42, 1234] {
            check(
                ScenarioSpec {
                    units: 10,
                    topology: Topology::RandomDag { seed },
                    values_per_link: 2,
                    ..ScenarioSpec::default()
                },
                3_000,
            );
        }
        // Determinism: two builds from the same seed have identical
        // module counts.
        let spec = ScenarioSpec {
            units: 10,
            topology: Topology::RandomDag { seed: 7 },
            ..ScenarioSpec::default()
        };
        let a = build_scenario(&spec).unwrap();
        let b = build_scenario(&spec).unwrap();
        assert_eq!(a.modules.len(), b.modules.len());
    }

    #[test]
    fn schedulings_produce_identical_traces() {
        // The production scheduler (sharded units, the module driver
        // over hashed shards) is observationally equivalent to the
        // per-unit/per-module oracle: same states, SUMs, traces and
        // ACTIVATION COUNTS, on every topology and link kind, parking
        // included.
        use crate::backplane::{ModuleScheduling, UnitScheduling};
        for topology in [
            Topology::Pipeline,
            Topology::Star,
            Topology::Ring,
            Topology::RandomDag { seed: 99 },
            Topology::Starved,
            Topology::Skewed,
        ] {
            for link in [
                LinkKind::Handshake,
                LinkKind::Batched {
                    max_batch: 4,
                    capacity: 16,
                    timing: BusTiming::LengthOnly,
                },
                LinkKind::Batched {
                    max_batch: 4,
                    capacity: 16,
                    timing: BusTiming::PayloadBeats,
                },
            ] {
                let mk = |scheduling| ScenarioSpec {
                    units: 6,
                    topology,
                    link,
                    values_per_link: 2,
                    scheduling,
                    ..ScenarioSpec::default()
                };
                let mut b = build_scenario(&mk(SchedulingConfig {
                    park_blocked: true,
                    ..SchedulingConfig::legacy()
                }))
                .expect("oracle builds");
                b.cosim
                    .run_for(Duration::from_us(400))
                    .expect("oracle runs");
                let mut a = build_scenario(&mk(SchedulingConfig {
                    units: UnitScheduling::Sharded { shard_size: 4 },
                    modules: ModuleScheduling::Sharded { shard_size: 4 },
                    park_blocked: true,
                }))
                .expect("sharded builds");
                a.cosim
                    .run_for(Duration::from_us(400))
                    .unwrap_or_else(|e| panic!("{topology:?}/{link:?}: sharded runs: {e}"));
                for (&ma, &mb) in a.modules.iter().zip(&b.modules) {
                    assert_eq!(
                        a.cosim.module_status(ma),
                        b.cosim.module_status(mb),
                        "{topology:?}/{link:?}: module status diverged"
                    );
                }
                assert_eq!(
                    a.cosim.trace_log().entries(),
                    b.cosim.trace_log().entries(),
                    "{topology:?}/{link:?}: traces diverged"
                );
                a.verify()
                    .unwrap_or_else(|e| panic!("{topology:?}/{link:?}: {e}"));
            }
        }
    }

    #[test]
    fn starved_backplane_reaches_quiescence() {
        // Quiescence regression on the Starved topology: once link 0's
        // traffic completes and the N-1 starved consumers are parked on
        // their silent links, EVERY clocked body is parked — the
        // activation clocks stop and simulated time stops advancing,
        // instead of toggling activation clocks forever.
        use cosma_sim::SimTime;
        let mut s = build_scenario(&ScenarioSpec {
            units: 6,
            topology: Topology::Starved,
            values_per_link: 3,
            ..ScenarioSpec::default()
        })
        .expect("builds");
        let quiesced = s
            .cosim
            .run_to_quiescence(SimTime::from_ns(2_000_000))
            .expect("runs");
        assert!(quiesced, "deadlocked system reaches quiescence early");
        s.verify().expect("link 0 traffic completed first");
        assert!(
            !s.cosim.pending_activity(),
            "no timers or drives remain: the activation clocks stopped"
        );
        assert_eq!(
            s.cosim.sim_mut().next_instant(),
            None,
            "simulated time stops advancing once all consumers are parked"
        );
        let stats = s.cosim.shard_stats();
        assert_eq!(
            stats.dormant_shards, stats.shards,
            "every shard parked: {stats:?}"
        );
        // Further runs change nothing.
        let before = s.cosim.sim().stats().events;
        s.cosim.run_for(Duration::from_us(500)).expect("idles");
        assert_eq!(s.cosim.sim().stats().events, before);
    }

    #[test]
    fn empty_spec_rejected() {
        let err = build_scenario(&ScenarioSpec {
            units: 0,
            ..ScenarioSpec::default()
        })
        .unwrap_err();
        assert!(matches!(err, CosimError::Setup(_)));
    }

    #[test]
    fn sharding_pays_off_on_idle_pipelines() {
        // After a pipeline drains, every shard — unit shards AND module
        // shards — must be dormant: controllers proved stable, finished
        // modules halt-parked.
        let mut s = build_scenario(&ScenarioSpec {
            units: 32,
            values_per_link: 2,
            ..ScenarioSpec::default()
        })
        .expect("builds");
        let done = s.run_to_completion(Duration::from_us(4_000)).expect("runs");
        assert!(done);
        // A long idle tail.
        s.cosim.run_for(Duration::from_us(100)).expect("idles");
        let st = s.cosim.shard_stats();
        assert!(
            st.shards >= 4,
            "32 units + 33 modules at shard size 16 need several shards, got {}",
            st.shards
        );
        assert_eq!(
            st.dormant_shards, st.shards,
            "drained pipeline parks every shard"
        );
        assert!(st.units_skipped > 0 || st.units_stepped > 0);
        assert_eq!(
            st.parked_now,
            32 + 33,
            "every unit and every module is parked"
        );
    }

    #[test]
    fn starved_consumers_park_at_zero_activation_cost() {
        // N-1 consumers blocked on get against silent links: they must
        // prove stable within a couple of activations and then cost
        // nothing, while link 0's traffic completes normally.
        let mut s = build_scenario(&ScenarioSpec {
            units: 8,
            topology: Topology::Starved,
            values_per_link: 3,
            ..ScenarioSpec::default()
        })
        .expect("builds");
        let done = s.run_to_completion(Duration::from_us(2_000)).expect("runs");
        assert!(done, "link 0 traffic completes");
        s.verify().expect("checksum holds");
        let before = s.cosim.shard_stats();
        assert!(
            before.members_parked >= 7,
            "starved consumers parked (got {})",
            before.members_parked
        );
        // Snapshot the starved consumers' activation counts, idle a long
        // tail, and verify they did not move.
        let starved: Vec<u64> = s.modules[2..]
            .iter()
            .map(|&m| s.cosim.module_status(m).activations)
            .collect();
        assert!(
            starved.iter().all(|&a| a <= 3),
            "blocked consumers stall within a couple of steps: {starved:?}"
        );
        s.cosim.run_for(Duration::from_us(200)).expect("idles");
        let after: Vec<u64> = s.modules[2..]
            .iter()
            .map(|&m| s.cosim.module_status(m).activations)
            .collect();
        assert_eq!(starved, after, "parked consumers cost zero activations");
    }

    /// Compares a backplane's observable state — per-module status
    /// (FSM state, activation count, error) and full trace log —
    /// against a recorded expectation.
    fn assert_same(
        c: &Cosim,
        modules: &[CosimModuleId],
        want_status: &[crate::ModuleStatus],
        want_trace: &crate::TraceLog,
        tag: &str,
        what: &str,
    ) {
        for (&m, want) in modules.iter().zip(want_status) {
            assert_eq!(
                &c.module_status(m),
                want,
                "{tag}/{what}: module status diverged"
            );
        }
        assert_eq!(
            c.trace_log().entries(),
            want_trace.entries(),
            "{tag}/{what}: traces diverged"
        );
    }

    #[test]
    fn snapshot_restore_fork_replay_bit_identical() {
        // The tentpole property: checkpoint at an arbitrary mid-run
        // instant, then (a) keep running, (b) rewind and re-run, and
        // (c) run forked twins — all must be bit-identical to an
        // uninterrupted run: same traces, same FSM states, same
        // activation counts. Pinned across the per-unit/per-module
        // oracle and the production scheduler, on both link flavours.
        use crate::backplane::{ModuleScheduling, UnitScheduling};
        let variants = [
            (
                "legacy",
                SchedulingConfig {
                    park_blocked: true,
                    ..SchedulingConfig::legacy()
                },
            ),
            (
                "sharded",
                SchedulingConfig {
                    units: UnitScheduling::Sharded { shard_size: 4 },
                    modules: ModuleScheduling::Sharded { shard_size: 4 },
                    park_blocked: true,
                },
            ),
        ];
        for topology in [Topology::Pipeline, Topology::Ring, Topology::Skewed] {
            for link in [
                LinkKind::Handshake,
                LinkKind::Batched {
                    max_batch: 4,
                    capacity: 16,
                    timing: BusTiming::PayloadBeats,
                },
            ] {
                for (name, cfg) in variants {
                    let spec = ScenarioSpec {
                        units: 6,
                        topology,
                        link,
                        values_per_link: 2,
                        scheduling: cfg,
                        ..ScenarioSpec::default()
                    };
                    let tag = format!("{topology:?}/{link:?}/{name}");

                    // Uninterrupted reference run.
                    let mut r = build_scenario(&spec).expect("builds");
                    r.cosim
                        .run_for(Duration::from_us(400))
                        .unwrap_or_else(|e| panic!("{tag}: reference runs: {e}"));
                    let ref_status: Vec<_> = r
                        .modules
                        .iter()
                        .map(|&m| r.cosim.module_status(m))
                        .collect();
                    let ref_trace = r.cosim.trace_log();
                    r.verify().unwrap_or_else(|e| panic!("{tag}: {e}"));

                    // Checkpointed run: snapshot mid-flight.
                    let mut a = build_scenario(&spec).expect("builds");
                    a.cosim
                        .run_for(Duration::from_us(150))
                        .expect("runs to mid");
                    let snap = a.cosim.snapshot();
                    assert_eq!(snap.at(), a.cosim.sim().now(), "{tag}: snapshot time");
                    let mid_status: Vec<_> = a
                        .modules
                        .iter()
                        .map(|&m| a.cosim.module_status(m))
                        .collect();
                    let mid_trace = a.cosim.trace_log();
                    // Fork two twins before the original moves on.
                    let mut f1 = a
                        .cosim
                        .fork(&snap)
                        .unwrap_or_else(|e| panic!("{tag}: fork: {e}"));
                    let mut f2 = a.cosim.fork(&snap).expect("second fork");

                    // (a) Capturing is non-destructive: the original
                    // continues to the same end state.
                    a.cosim.run_for(Duration::from_us(250)).expect("continues");
                    assert_same(
                        &a.cosim,
                        &r.modules,
                        &ref_status,
                        &ref_trace,
                        &tag,
                        "continue",
                    );
                    a.verify()
                        .unwrap_or_else(|e| panic!("{tag}: continue: {e}"));

                    // (b) Rewind in place and replay.
                    a.cosim
                        .restore(&snap)
                        .unwrap_or_else(|e| panic!("{tag}: restore: {e}"));
                    assert_same(
                        &a.cosim,
                        &r.modules,
                        &mid_status,
                        &mid_trace,
                        &tag,
                        "rewound",
                    );
                    a.cosim.run_for(Duration::from_us(250)).expect("replays");
                    assert_same(
                        &a.cosim,
                        &r.modules,
                        &ref_status,
                        &ref_trace,
                        &tag,
                        "replay",
                    );
                    a.verify().unwrap_or_else(|e| panic!("{tag}: replay: {e}"));

                    // (c) Forks replay identically and independently:
                    // f1 runs to the end...
                    f1.run_for(Duration::from_us(250)).expect("fork runs");
                    assert_same(&f1, &r.modules, &ref_status, &ref_trace, &tag, "fork");
                    // ...while sibling f2 — untouched by f1's run and
                    // the original's — still sits at the snapshot
                    // instant...
                    assert_eq!(
                        f2.sim().now(),
                        snap.at(),
                        "{tag}: idle sibling did not advance"
                    );
                    assert_same(
                        &f2,
                        &r.modules,
                        &mid_status,
                        &mid_trace,
                        &tag,
                        "idle sibling",
                    );
                    // ...and then replays to the same end state.
                    f2.run_for(Duration::from_us(250)).expect("sibling runs");
                    assert_same(&f2, &r.modules, &ref_status, &ref_trace, &tag, "sibling");
                }
            }
        }
    }

    #[test]
    fn restored_stats_continue_verbatim() {
        // The stats-coherence contract: counters are captured and
        // restored verbatim, so a rewound run's final statistics —
        // kernel, per-unit, and scheduler — are identical to the
        // uninterrupted run's.
        let spec = ScenarioSpec {
            units: 6,
            values_per_link: 3,
            ..ScenarioSpec::default()
        };
        let mut r = build_scenario(&spec).expect("builds");
        r.cosim.run_for(Duration::from_us(400)).expect("runs");

        let mut a = build_scenario(&spec).expect("builds");
        a.cosim.run_for(Duration::from_us(150)).expect("runs");
        let snap = a.cosim.snapshot();
        a.cosim.run_for(Duration::from_us(250)).expect("continues");
        a.cosim.restore(&snap).expect("restores");
        a.cosim.run_for(Duration::from_us(250)).expect("replays");

        assert_eq!(
            a.cosim.sim().stats(),
            r.cosim.sim().stats(),
            "kernel stats replay verbatim"
        );
        assert_eq!(
            a.cosim.shard_stats(),
            r.cosim.shard_stats(),
            "scheduler stats replay verbatim"
        );
        for i in 0..r.links.len() {
            let name = format!("link{i}");
            assert_eq!(
                a.cosim.unit_stats(&name),
                r.cosim.unit_stats(&name),
                "{name} stats replay verbatim"
            );
        }
    }

    #[test]
    fn skewed_unparked_fleet_matches_legacy_oracle() {
        // One heavy producer amid 48 near-free consumers, parking off so
        // the whole module set steps every cycle: the driver's large
        // per-cycle stepping sets must match the per-unit/per-module
        // oracle exactly.
        use crate::backplane::{ModuleScheduling, UnitScheduling};
        let run = |scheduling| {
            let mut s = build_scenario(&ScenarioSpec {
                units: 48,
                topology: Topology::Skewed,
                values_per_link: 4,
                scheduling,
                ..ScenarioSpec::default()
            })
            .expect("builds");
            let done = s.run_to_completion(Duration::from_us(2_000)).expect("runs");
            assert!(done, "skewed scenario completes");
            s.verify().expect("checksum holds");
            s
        };
        let sharded = run(SchedulingConfig {
            units: UnitScheduling::Sharded { shard_size: 16 },
            modules: ModuleScheduling::Sharded { shard_size: 16 },
            park_blocked: false,
        });
        let oracle = run(SchedulingConfig::legacy());
        for (&a, &b) in sharded.modules.iter().zip(&oracle.modules) {
            assert_eq!(
                sharded.cosim.module_status(a),
                oracle.cosim.module_status(b)
            );
        }
        assert_eq!(
            sharded.cosim.trace_log().entries(),
            oracle.cosim.trace_log().entries()
        );
        assert_eq!(sharded.cosim.sim().now(), oracle.cosim.sim().now());
    }

    /// Runs `spec` both partitioned (under the orchestrator, in quanta
    /// of `quantum`) and through the collapsed single-backplane oracle,
    /// and asserts bit-identical module statuses, checksums and
    /// per-source trace streams. Returns the orchestrator stats so
    /// callers can assert on the sync machinery itself.
    fn partitioned_vs_collapsed(
        spec: &ScenarioSpec,
        pspec: &PartitionsSpec,
        total: Duration,
        quantum: Duration,
    ) -> crate::partition::OrchestratorStats {
        let mut mono = build_collapsed(spec, pspec).expect("collapsed oracle builds");
        mono.cosim.run_for(total).expect("collapsed oracle runs");
        let mut part = build_partitioned(spec, pspec).expect("partitioned builds");
        part.run_for(total, quantum).expect("partitioned runs");
        assert_eq!(part.modules.len(), mono.modules.len());
        for j in 0..part.modules.len() {
            assert_eq!(
                part.module_status(j),
                mono.cosim.module_status(mono.modules[j]),
                "module {j} status diverged under {spec:?} / {pspec:?}"
            );
        }
        mono.verify()
            .unwrap_or_else(|e| panic!("collapsed oracle checksum: {e}"));
        part.verify()
            .unwrap_or_else(|e| panic!("partitioned checksum: {e}"));
        // Trace equivalence, compared per source: cross-partition
        // modules interleave arbitrarily in a merged view, but each
        // module's own event stream (labels, payloads AND timestamps)
        // must be bit-identical to the oracle's.
        let want = mono.cosim.trace_log().entries();
        let got: Vec<TraceEntry> = part
            .parts
            .iter()
            .flat_map(|&p| part.orch.partition(p).cosim().trace_log().entries())
            .collect();
        let sources: std::collections::BTreeSet<&str> =
            want.iter().map(|e| e.source.as_str()).collect();
        let by_source = |entries: &[TraceEntry], src: &str| -> Vec<TraceEntry> {
            entries
                .iter()
                .filter(|e| e.source == src)
                .cloned()
                .collect()
        };
        for src in sources {
            assert_eq!(
                by_source(&got, src),
                by_source(&want, src),
                "trace stream of {src} diverged under {spec:?} / {pspec:?}"
            );
        }
        assert_eq!(
            got.len(),
            want.len(),
            "partitioned run recorded extra trace sources"
        );
        part.orch.stats()
    }

    #[test]
    fn partitioned_pipeline_matches_collapsed_oracle() {
        let spec = ScenarioSpec {
            units: 6,
            values_per_link: 3,
            trace: true,
            ..ScenarioSpec::default()
        };
        let stats = partitioned_vs_collapsed(
            &spec,
            &PartitionsSpec::default(),
            Duration::from_us(300),
            Duration::from_us(5),
        );
        assert!(stats.quanta_committed >= 60, "stats: {stats:?}");
    }

    #[test]
    fn partitioned_batched_ring_matches_collapsed_oracle() {
        let spec = ScenarioSpec {
            units: 5,
            topology: Topology::Ring,
            values_per_link: 4,
            link: LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::LengthOnly,
            },
            trace: true,
            ..ScenarioSpec::default()
        };
        let stats = partitioned_vs_collapsed(
            &spec,
            &PartitionsSpec {
                count: 2,
                latency: Duration::from_ns(200),
            },
            Duration::from_us(400),
            Duration::from_us(4),
        );
        assert!(stats.boundary_messages > 0, "stats: {stats:?}");
    }

    #[test]
    fn partition_count_must_fit_module_count() {
        let spec = ScenarioSpec {
            units: 4,
            ..ScenarioSpec::default()
        };
        for count in [0, 100] {
            let err = build_partitioned(
                &spec,
                &PartitionsSpec {
                    count,
                    ..PartitionsSpec::default()
                },
            )
            .unwrap_err();
            assert!(matches!(err, CosimError::Setup(_)), "{err}");
        }
    }
}
