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
//!   any instant — the parking scheduler's best case.
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
//!
//! [`build_poll`] elaborates register-style interface traffic instead:
//! [`poller_module`]s polling one shared register's pure `read` while a
//! [`writer_module`] rewrites it, the regime in which pollers park
//! between writes.

use crate::backplane::{
    BoundaryQueue, Cosim, CosimConfig, CosimError, CosimModuleId, DomainId, ModuleStatus,
    SchedulingConfig, UnitId,
};
use crate::partition::{BoundarySpec, Orchestrator, PartitionId};
use cosma_comm::{handshake_unit, shared_reg_unit, BusTiming};
use cosma_core::comm::CommUnitSpec;
use cosma_core::{
    Expr, Module, ModuleBuilder, ModuleKind, PortDir, ServiceCall, Stmt, Type, Value,
};
use cosma_sim::Duration;
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

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
    /// modules never park: with parking on, the driver *echoes* a
    /// blocked one instead, appending its records on every edge
    /// without stepping it ([`SchedulingConfig::park_blocked`]). Use it
    /// to stress the trace log, echoing and the steady-state allocation
    /// discipline, not parking.
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
    /// Terminating checkers (indices into `modules`) and the SUM each
    /// must reach.
    checkers: Vec<(usize, i64)>,
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
            .all(|&(j, _)| self.cosim.module_status(self.modules[j]).state == "END")
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
        verify_checkers(&self.checkers, |j| {
            let id = self.modules[j];
            (
                self.cosim.module_status(id),
                self.cosim.module_var(id, "SUM"),
            )
        })
    }
}

/// The checker verdict of [`Scenario::verify`] and
/// [`PartitionedScenario::verify`]: every checker (a plan index and its
/// expected SUM) reached `END` with that SUM. `read` gives a planned
/// module's status and SUM.
fn verify_checkers(
    checkers: &[(usize, i64)],
    read: impl Fn(usize) -> (ModuleStatus, Option<Value>),
) -> Result<(), String> {
    for (i, &(j, expect)) in checkers.iter().enumerate() {
        let (status, got) = read(j);
        if status.state != "END" {
            return Err(format!(
                "checker {i}: stuck in {} after {} activations",
                status.state, status.activations
            ));
        }
        if got != Some(Value::Int(expect)) {
            return Err(format!("checker {i}: SUM {got:?}, expected {expect}"));
        }
    }
    Ok(())
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

/// A fresh backplane with the spec's scheduling and clock domains, and
/// the id of its second domain, if any.
fn scenario_backplane(spec: &ScenarioSpec) -> Result<(Cosim, Option<DomainId>), CosimError> {
    let mut cosim = Cosim::new(spec.config);
    cosim.set_scheduling(spec.scheduling)?;
    let slow = scenario_domains(&mut cosim, spec)?;
    Ok((cosim, slow))
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
/// flavour. Handshake links share `hs`, the one [`handshake_unit`] spec
/// of the elaboration, built by the first of them.
fn add_link(
    cosim: &mut Cosim,
    spec: &ScenarioSpec,
    hs: &OnceCell<Arc<CommUnitSpec>>,
    i: usize,
    d: DomainId,
) -> Result<UnitId, CosimError> {
    let name = format!("link{i}");
    match spec.link {
        LinkKind::Handshake => {
            let hs = hs.get_or_init(|| handshake_unit("hs", Type::INT16));
            cosim.add_fsm_unit_in(d, &name, Arc::clone(hs))
        }
        LinkKind::Batched {
            max_batch,
            capacity,
            timing,
        } => cosim.add_batched_unit_in_with(d, &name, Type::INT16, max_batch, capacity, timing),
    }
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

/// Where an elaboration lands: one backplane (the monolithic scenario
/// and the collapsed oracle) or the partitions of an [`Orchestrator`].
enum Target<'a> {
    One(&'a mut Cosim),
    Parts(&'a mut Orchestrator),
}

impl Target<'_> {
    /// The backplane holding partition `p`.
    fn part(&mut self, p: usize) -> &mut Cosim {
        match self {
            Target::One(cosim) => cosim,
            Target::Parts(orch) => orch.partition_mut(PartitionId(p)),
        }
    }
}

/// The one elaboration behind every scenario build: every link in index
/// order, then every module in plan order, module `j` in partition
/// `part_of[j]`. A link whose producer (the `out` binding) and consumer
/// (an `in*` binding) land in different partitions is cut into two
/// boundary halves of `latency`, the *out* half with the producer and
/// the *in* half with the consumer (on one backplane, `link{i}.bo` and
/// `link{i}.bi` sharing an inline queue); any other link lands with its
/// producer, else its consumer. Returns each link's producer-side unit
/// and each module's id, in plan order.
fn elaborate(
    spec: &ScenarioSpec,
    plan: &ScenarioPlan,
    part_of: &[usize],
    slow: Option<DomainId>,
    latency: Duration,
    mut to: Target<'_>,
) -> Result<(Vec<UnitId>, Vec<CosimModuleId>), CosimError> {
    let mut ends = vec![(None, None); plan.n_links];
    for (pm, &p) in plan.modules.iter().zip(part_of) {
        for (n, li) in &pm.bindings {
            if n == "out" {
                ends[*li].0 = Some(p);
            } else {
                ends[*li].1 = Some(p);
            }
        }
    }
    let bspec = boundary_spec(spec, latency);
    let hs = OnceCell::new();
    let mut links = Vec::with_capacity(plan.n_links);
    for (i, end) in ends.into_iter().enumerate() {
        let d = link_domain(spec, slow, i);
        links.push(match (end, &mut to) {
            ((Some(p), Some(c)), Target::Parts(orch)) if p != c => {
                let (p, c) = (PartitionId(p), PartitionId(c));
                orch.add_boundary(&format!("link{i}"), p, d, &bspec, c, d, &bspec)?
            }
            ((Some(p), Some(c)), Target::One(cosim)) if p != c => {
                let queue = Rc::new(RefCell::new(BoundaryQueue::default()));
                let (bo, bi) = (format!("link{i}.bo"), format!("link{i}.bi"));
                let out = cosim.add_boundary_out(d, &bo, &bspec, Rc::clone(&queue))?;
                (out, cosim.add_boundary_in(d, &bi, &bspec, queue)?)
            }
            ((p, c), _) => {
                let unit = add_link(to.part(p.or(c).unwrap_or(0)), spec, &hs, i, d)?;
                (unit, unit)
            }
        });
    }
    let mut modules = Vec::with_capacity(plan.modules.len());
    for (pm, &p) in plan.modules.iter().zip(part_of) {
        let binds: Vec<(&str, UnitId)> = pm
            .bindings
            .iter()
            .map(|(n, li)| {
                let (out, inb) = links[*li];
                (n.as_str(), if n == "out" { out } else { inb })
            })
            .collect();
        let d = module_domain(spec, slow, pm);
        modules.push(to.part(p).add_module_in(d, &pm.module, &binds)?);
    }
    Ok((links.into_iter().map(|(out, _)| out).collect(), modules))
}

/// Elaborates a spec into a runnable scenario: every link, then every
/// module, in plan order. (The driver steps units and modules in
/// creation order, like the oracle's processes, so every dispatch mode
/// produces identical traces whatever the construction order.)
///
/// # Errors
///
/// Returns [`CosimError::Setup`] for empty specs or invalid link
/// parameters.
pub fn build_scenario(spec: &ScenarioSpec) -> Result<Scenario, CosimError> {
    let plan = plan_scenario(spec)?;
    let (mut cosim, slow) = scenario_backplane(spec)?;
    // One partition: no link is cut, so no latency is ever used.
    let whole = vec![0; plan.modules.len()];
    let to = Target::One(&mut cosim);
    let (links, modules) = elaborate(spec, &plan, &whole, slow, Duration::ZERO, to)?;
    Ok(Scenario {
        cosim,
        modules,
        links,
        checkers: plan.checkers,
    })
}

/// Plans a spec and assigns its modules to [`PartitionsSpec::count`]
/// partitions in contiguous creation-order chunks.
fn plan_cut(
    spec: &ScenarioSpec,
    pspec: &PartitionsSpec,
) -> Result<(ScenarioPlan, Vec<usize>), CosimError> {
    let plan = plan_scenario(spec)?;
    let n = plan.modules.len();
    if pspec.count == 0 || pspec.count > n {
        return Err(CosimError::Setup(format!(
            "cannot cut {n} modules into {} partitions",
            pspec.count
        )));
    }
    let part_of = (0..n).map(|j| j * pspec.count / n).collect();
    Ok((plan, part_of))
}

/// A scenario cut across coupled backplane partitions, ready to run
/// under the [`Orchestrator`] in quanta of the boundary latency.
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
    /// Advances every partition by `total` ([`Orchestrator::run_for`]).
    ///
    /// # Errors
    ///
    /// Propagates orchestrator errors; the first one poisons the
    /// orchestrator.
    pub fn run_for(&mut self, total: Duration) -> Result<(), CosimError> {
        self.orch.run_for(total)
    }

    /// Status of the `j`-th planned module (plan order, matching the
    /// monolithic scenario's module order).
    #[must_use]
    pub fn module_status(&self, j: usize) -> ModuleStatus {
        let (p, m) = self.modules[j];
        self.orch.partition(p).module_status(m)
    }

    /// A module variable of the `j`-th planned module.
    #[must_use]
    pub fn module_var(&self, j: usize, var: &str) -> Option<Value> {
        let (p, m) = self.modules[j];
        self.orch.partition(p).module_var(m, var)
    }

    /// Checks every checker reached `END` with the expected checksum.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn verify(&self) -> Result<(), String> {
        verify_checkers(&self.checkers, |j| {
            (self.module_status(j), self.module_var(j, "SUM"))
        })
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
    let (plan, part_of) = plan_cut(spec, pspec)?;
    let mut orch = Orchestrator::new();
    let mut parts = vec![];
    let mut slow = None;
    for _ in 0..pspec.count {
        let (cosim, s) = scenario_backplane(spec)?;
        slow = s;
        parts.push(orch.add_partition(cosim));
    }
    let to = Target::Parts(&mut orch);
    let (_, ids) = elaborate(spec, &plan, &part_of, slow, pspec.latency, to)?;
    Ok(PartitionedScenario {
        orch,
        modules: part_of
            .iter()
            .zip(ids)
            .map(|(&p, id)| (parts[p], id))
            .collect(),
        parts,
        checkers: plan.checkers,
    })
}

/// The *collapsed oracle*: the exact coupled structure
/// [`build_partitioned`] produces — same boundary half-units, same
/// latency-stamped queues, same pinned clock domains — but elaborated
/// into ONE backplane, where the queues fill and drain inline and no
/// orchestration is needed. A partitioned run is correct iff it is
/// bit-identical (module statuses, traces, SUMs) to this oracle; the
/// comparison isolates exactly the cut (the lookahead quanta and the
/// queues crossing it) because everything else is structurally the
/// same.
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
    let (plan, part_of) = plan_cut(spec, pspec)?;
    let (mut cosim, slow) = scenario_backplane(spec)?;
    let to = Target::One(&mut cosim);
    let (links, modules) = elaborate(spec, &plan, &part_of, slow, pspec.latency, to)?;
    // Partitioned backplanes run with their domains pinned (the edge
    // grid must not depend on how the cut distributes clock demand);
    // the oracle must match.
    cosim.pin_clock_domains();
    Ok(Scenario {
        cosim,
        modules,
        links,
        checkers: plan.checkers,
    })
}

/// A module that polls a pure read on every activation, the way the
/// paper's Speed Control CORE process polls `ReadSampledData`: it calls
/// `service` through its `reg` binding, drives the result onto its `OUT`
/// port once the call completes, and records a `seen` trace entry of the
/// value whenever it differs from the last one seen (`LAST`). Between
/// changes of the polled wire its activations are fixed points, so it
/// parks two activations after each change.
#[must_use]
pub fn poller_module(name: &str, service: &str) -> Module {
    let mut b = ModuleBuilder::new(name, ModuleKind::Hardware);
    let out = b.port("OUT", PortDir::Out, Type::INT16);
    let done = b.var("D", Type::Bool, Value::Bool(false));
    let value = b.var("V", Type::INT16, Value::Int(0));
    let last = b.var("LAST", Type::INT16, Value::Int(0));
    let reg = b.binding("reg", "register");
    let poll = b.state("POLL");
    let seen = vec![
        Stmt::Trace("seen".into(), vec![Expr::var(value)]),
        Stmt::assign(last, Expr::var(value)),
    ];
    b.actions(
        poll,
        vec![
            Stmt::Call(ServiceCall {
                binding: reg,
                service: service.into(),
                args: vec![],
                done: Some(done),
                result: Some(value),
            }),
            Stmt::if_then(
                Expr::var(done),
                vec![
                    Stmt::drive(out, Expr::var(value)),
                    Stmt::if_then(Expr::var(value).ne(Expr::var(last)), seen),
                ],
            ),
        ],
    );
    b.transition(poll, None, poll);
    b.initial(poll);
    b.build().expect("poller module is well-formed")
}

/// A module that writes `1, 2, 3, …` (its variable `N`) through
/// `service(VAL)` on its `reg` binding, one write every `period`
/// activations (a write that takes more than one activation stretches
/// the period), `writes` times, then idles in `END`.
#[must_use]
pub fn writer_module(name: &str, service: &str, period: i64, writes: i64) -> Module {
    let mut b = ModuleBuilder::new(name, ModuleKind::Software);
    let done = b.var("D", Type::Bool, Value::Bool(false));
    let count = b.var("C", Type::INT16, Value::Int(0));
    let n = b.var("N", Type::INT16, Value::Int(0));
    let reg = b.binding("reg", "register");
    let wait = b.state("COUNT");
    let write = b.state("WRITE");
    let end = b.state("END");
    b.actions(
        wait,
        vec![Stmt::assign(count, Expr::var(count).add(Expr::int(1)))],
    );
    b.transition_with(
        wait,
        Some(Expr::var(count).ge(Expr::int(period - 1))),
        vec![
            Stmt::assign(count, Expr::int(0)),
            Stmt::assign(n, Expr::var(n).add(Expr::int(1))),
        ],
        write,
    );
    b.actions(
        write,
        vec![Stmt::Call(ServiceCall {
            binding: reg,
            service: service.into(),
            args: vec![Expr::var(n)],
            done: Some(done),
            result: None,
        })],
    );
    let last = Expr::var(n).ge(Expr::int(writes));
    b.transition(write, Some(Expr::var(done).and(last)), end);
    b.transition(write, Some(Expr::var(done)), wait);
    b.transition(end, None, end);
    b.initial(wait);
    b.build().expect("writer module is well-formed")
}

/// An elaborated polling system ([`build_poll`]).
pub struct PollScenario {
    /// The assembled backplane, ready to run.
    pub cosim: Cosim,
    /// The pollers, in creation order.
    pub pollers: Vec<CosimModuleId>,
    /// The writer, created after the pollers.
    pub writer: CosimModuleId,
}

/// Register-style interface traffic: `pollers` [`poller_module`]s poll
/// one [`shared_reg_unit`]'s `read`, which one [`writer_module`]
/// rewrites every `period` cycles, `writes` times. With parking on, the
/// pollers park between writes.
///
/// # Errors
///
/// Propagates backplane setup errors.
pub fn build_poll(
    pollers: usize,
    period: i64,
    writes: i64,
    scheduling: SchedulingConfig,
) -> Result<PollScenario, CosimError> {
    let mut cosim = Cosim::new(CosimConfig::default());
    cosim.set_scheduling(scheduling)?;
    let reg = cosim.add_fsm_unit("reg", shared_reg_unit("reg", Type::INT16));
    let pollers = (0..pollers)
        .map(|i| {
            cosim.add_module(
                &poller_module(&format!("poller{i}"), "read"),
                &[("reg", reg)],
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let writer = writer_module("writer", "write", period, writes);
    let writer = cosim.add_module(&writer, &[("reg", reg)])?;
    Ok(PollScenario {
        cosim,
        pollers,
        writer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardStats, TraceEntry, TraceLog};
    use cosma_comm::UnitStats;
    use cosma_sim::SimTime;

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
        // The production scheduler (one driver stepping units and
        // modules in creation order) is observationally equivalent to
        // the per-unit/per-module oracle: same states, SUMs, traces and
        // ACTIVATION COUNTS, on every topology and link kind, parking
        // included.
        use crate::backplane::Dispatch;
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
                    dispatch: Dispatch::Driver,
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
    fn schedulers_agree_with_one_or_two_activation_clocks() {
        use crate::backplane::Dispatch;
        // Equal HW and SW periods share one activation clock per domain,
        // unequal ones keep two: the driver and the per-process oracle
        // must agree either way, across a slow domain as well, with and
        // without parking.
        for (sw_ns, park_blocked) in [(100, false), (100, true), (400, false), (400, true)] {
            let run = |dispatch| {
                let mut s = build_scenario(&ScenarioSpec {
                    units: 8,
                    topology: Topology::Ring,
                    values_per_link: 3,
                    config: CosimConfig {
                        hw_cycle: Duration::from_ns(100),
                        sw_cycle: Duration::from_ns(sw_ns),
                    },
                    scheduling: SchedulingConfig {
                        dispatch,
                        park_blocked,
                    },
                    trace: true,
                    domains: DomainsSpec {
                        ratio: (2, 1),
                        slow_links: 3,
                    },
                    ..ScenarioSpec::default()
                })
                .expect("builds");
                let done = s.run_to_completion(Duration::from_us(400)).expect("runs");
                assert!(done, "sw {sw_ns} ns: the ring completes");
                s.verify().unwrap_or_else(|e| panic!("sw {sw_ns} ns: {e}"));
                s
            };
            let (a, b) = (run(Dispatch::Driver), run(Dispatch::PerProcess));
            assert_eq!(a.cosim.sw_clk() == a.cosim.hw_clk(), sw_ns == 100);
            for (&ma, &mb) in a.modules.iter().zip(&b.modules) {
                assert_eq!(a.cosim.module_status(ma), b.cosim.module_status(mb));
            }
            assert_eq!(
                a.cosim.trace_log().entries(),
                b.cosim.trace_log().entries(),
                "sw {sw_ns} ns: traces diverged"
            );
            assert_eq!(a.cosim.sim().now(), b.cosim.sim().now());
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
            stats.parked_now,
            s.links.len() + s.modules.len(),
            "every member parked: {stats:?}"
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
        // After a pipeline drains, every driver member — units and
        // modules alike — must be parked: controllers proved stable,
        // finished modules halt-parked.
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
        use crate::backplane::Dispatch;
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
                    dispatch: Dispatch::Driver,
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

    /// The unit statistics of a scenario's `links` links in `c`, in
    /// link order.
    fn link_stats(c: &Cosim, links: usize) -> Vec<Option<UnitStats>> {
        (0..links)
            .map(|i| c.unit_stats(&format!("link{i}")))
            .collect()
    }

    #[test]
    fn traced_starved_consumers_echo_instead_of_stepping() {
        // Every starved consumer records a `tick` per activation while
        // blocked on `get`, so none parks: the driver echoes its
        // records instead of stepping it. The per-process oracle never
        // echoes, and must still see the same trace, statuses and end
        // time.
        use crate::backplane::Dispatch;
        for link in [
            LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::LengthOnly,
            },
            LinkKind::Handshake,
        ] {
            let run = |scheduling| {
                let mut s = build_scenario(&ScenarioSpec {
                    units: 16,
                    topology: Topology::Starved,
                    values_per_link: 4,
                    link,
                    scheduling,
                    trace: true,
                    ..ScenarioSpec::default()
                })
                .expect("builds");
                s.cosim.run_for(Duration::from_us(50)).expect("runs");
                s
            };
            let s = run(SchedulingConfig::sharded());
            let oracle = run(SchedulingConfig {
                dispatch: Dispatch::PerProcess,
                park_blocked: true,
            });
            let tag = format!("{link:?}");
            let stats = s.cosim.shard_stats();
            assert!(
                stats.modules_echoed * 10 >= stats.modules_stepped * 9,
                "{tag}: most activations are echoed: {stats:?}"
            );
            let calls: u64 = link_stats(&s.cosim, s.links.len())
                .iter()
                .flatten()
                .flat_map(|u| u.services.values().map(|v| v.calls))
                .sum();
            assert!(
                calls * 10 < stats.modules_stepped,
                "{tag}: {calls} unit calls for {} activations",
                stats.modules_stepped
            );
            let want: Vec<_> = oracle
                .modules
                .iter()
                .map(|&m| oracle.cosim.module_status(m))
                .collect();
            let want_trace = oracle.cosim.trace_log();
            assert_same(&s.cosim, &s.modules, &want, &want_trace, &tag, "echo");
            assert_eq!(s.cosim.sim().now(), oracle.cosim.sim().now(), "{tag}");
        }
    }

    #[test]
    fn snapshots_taken_while_members_echo_replay_verbatim() {
        // The starved consumers echo for the whole run, so the snapshot
        // catches members mid-echo, while link 0 keeps carrying values
        // across it. The echo flags and cached records travel with the
        // snapshot: restored and forked tails match the uninterrupted
        // run in trace, statuses, scheduler and unit statistics.
        let spec = ScenarioSpec {
            units: 6,
            topology: Topology::Starved,
            values_per_link: 200,
            link: LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::LengthOnly,
            },
            trace: true,
            ..ScenarioSpec::default()
        };
        type Observed = (
            Vec<ModuleStatus>,
            TraceLog,
            ShardStats,
            Vec<Option<UnitStats>>,
        );
        let observe = |s: &Scenario, c: &Cosim| -> Observed {
            let status = s.modules.iter().map(|&m| c.module_status(m)).collect();
            let links = link_stats(c, s.links.len());
            (status, c.trace_log(), c.shard_stats(), links)
        };
        let (mid, tail) = (Duration::from_us(7), Duration::from_us(13));
        let mut r = build_scenario(&spec).expect("builds");
        r.cosim.run_for(mid + tail).expect("runs");
        let want = observe(&r, &r.cosim);

        let mut a = build_scenario(&spec).expect("builds");
        a.cosim.run_for(mid).expect("runs to mid");
        let snap = a.cosim.snapshot();
        let echoed = a.cosim.shard_stats().modules_echoed;
        assert!(echoed > 0, "members echo before the snapshot");
        assert!(want.2.modules_echoed > echoed, "and after it");
        let cnt = |s: &Scenario| s.cosim.module_var(s.modules[1], "CNT");
        assert_ne!(cnt(&a), cnt(&r), "link 0 still carries values after it");
        let mut fork = a.cosim.fork(&snap).expect("forks");
        a.cosim.run_for(tail).expect("continues");
        assert_eq!(observe(&a, &a.cosim), want, "continued run");
        a.cosim.restore(&snap).expect("restores");
        a.cosim.run_for(tail).expect("replays");
        assert_eq!(observe(&a, &a.cosim), want, "restored run");
        fork.run_for(tail).expect("fork runs");
        assert_eq!(observe(&a, &fork), want, "forked run");
    }

    #[test]
    fn skewed_unparked_fleet_matches_legacy_oracle() {
        // One heavy producer amid 48 near-free consumers, parking off so
        // the whole module set steps every cycle: the driver's large
        // per-cycle stepping sets must match the per-unit/per-module
        // oracle exactly.
        use crate::backplane::Dispatch;
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
            dispatch: Dispatch::Driver,
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

    /// Runs `spec` both partitioned (under the orchestrator) and
    /// through the collapsed single-backplane oracle, and asserts
    /// bit-identical module statuses, checksums and per-source trace
    /// streams. Returns the orchestrator stats so callers can assert on
    /// the sync machinery itself.
    fn partitioned_vs_collapsed(
        spec: &ScenarioSpec,
        pspec: &PartitionsSpec,
        total: Duration,
    ) -> crate::partition::OrchestratorStats {
        let mut mono = build_collapsed(spec, pspec).expect("collapsed oracle builds");
        mono.cosim.run_for(total).expect("collapsed oracle runs");
        let mut part = build_partitioned(spec, pspec).expect("partitioned builds");
        part.run_for(total).expect("partitioned runs");
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
            .flat_map(|&p| part.orch.partition(p).trace_log().entries())
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
        let stats =
            partitioned_vs_collapsed(&spec, &PartitionsSpec::default(), Duration::from_us(300));
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
        );
        assert!(stats.boundary_messages > 0, "stats: {stats:?}");
    }

    /// A module that counts down 20 activations, then calls a service
    /// (`peek`) its unit does not declare, failing the run mid-way.
    fn late_failing_module() -> Module {
        let mut b = ModuleBuilder::new("late", ModuleKind::Software);
        let bind = b.binding("iface", "link");
        let waits: Vec<_> = (0..20).map(|k| b.state(format!("WAIT{k}"))).collect();
        let call = b.state("CALL");
        for (k, &w) in waits.iter().enumerate() {
            b.transition(w, None, waits.get(k + 1).copied().unwrap_or(call));
        }
        b.actions(
            call,
            vec![Stmt::Call(ServiceCall {
                binding: bind,
                service: "peek".into(),
                args: vec![],
                done: None,
                result: None,
            })],
        );
        b.transition(call, None, call);
        b.initial(waits[0]);
        b.build().unwrap()
    }

    #[test]
    fn failed_quantum_poisons_the_orchestrator() {
        // A module in the first partition fails mid-way, with no
        // checkpoint to return to.
        let late = late_failing_module();
        let spec = ScenarioSpec {
            units: 6,
            values_per_link: 50,
            trace: true,
            ..ScenarioSpec::default()
        };
        let pspec = PartitionsSpec::default();
        let mut part = build_partitioned(&spec, &pspec).expect("partitioned builds");
        let first = part.orch.partition_mut(part.parts[0]);
        let unit = first.add_fsm_unit("late_link", handshake_unit("hs", Type::INT16));
        let late = first
            .add_module(&late, &[("iface", unit)])
            .expect("module installs");

        let err = part.run_for(Duration::from_us(50)).unwrap_err();
        let msg = "module late: service call failed: unit late_link has no service peek";
        assert_eq!(err, CosimError::Runtime(msg.to_string()));
        // `now` stays at the end of the last completed quantum.
        let stats = part.orch.stats();
        let now = part.orch.now();
        assert!(stats.quanta_committed > 0, "failed mid-run: {stats:?}");
        assert_eq!(
            now,
            SimTime::ZERO + Duration::from_ns(200 * stats.quanta_committed)
        );
        assert!(now < SimTime::ZERO + Duration::from_us(50));

        // A poisoned orchestrator returns the same error and runs no
        // partition.
        let clocks = |part: &PartitionedScenario| -> Vec<SimTime> {
            part.parts
                .iter()
                .map(|&p| part.orch.partition(p).sim().now())
                .collect()
        };
        let before = clocks(&part);
        assert_eq!(part.run_for(Duration::from_us(50)).unwrap_err(), err);
        assert_eq!(clocks(&part), before);
        assert_eq!(part.orch.now(), now);
        assert_eq!(part.orch.stats(), stats);

        // Every partition can still be read.
        let first = part.orch.partition(part.parts[0]);
        let status = first.module_status(late);
        assert_eq!(
            (status.state.as_str(), status.error.as_deref()),
            ("CALL", Some(msg))
        );
        for j in 0..part.modules.len() {
            let status = part.module_status(j);
            assert!(
                status.activations > 0 && status.error.is_none(),
                "{j}: {status:?}"
            );
        }
        for &p in &part.parts {
            assert!(!part.orch.partition(p).trace_log().entries().is_empty());
        }
    }

    #[test]
    fn halted_backplane_snapshots_round_trip() {
        // A traced pipeline plus a module that fails after 20
        // activations, snapshotted before and after the error. The
        // pre-error snapshot replays to the same error, also when it is
        // restored into the halted backplane; the halted snapshot keeps
        // the error latched when restored or forked.
        type Observed = (SimTime, TraceLog, Vec<ModuleStatus>);
        fn observe(c: &Cosim, modules: &[CosimModuleId]) -> Observed {
            let statuses = modules.iter().map(|&m| c.module_status(m)).collect();
            (c.sim().now(), c.trace_log(), statuses)
        }
        let tail = Duration::from_us(50);
        for scheduling in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
            let mut s = build_scenario(&ScenarioSpec {
                units: 6,
                values_per_link: 50,
                trace: true,
                scheduling,
                ..ScenarioSpec::default()
            })
            .expect("builds");
            let unit = s
                .cosim
                .add_fsm_unit("late_link", handshake_unit("hs", Type::INT16));
            let late = s
                .cosim
                .add_module(&late_failing_module(), &[("iface", unit)])
                .expect("module installs");
            let mut modules = s.modules.clone();
            modules.push(late);

            s.cosim.run_for(Duration::from_us(1)).expect("no error yet");
            let before = s.cosim.snapshot();
            let err = s.cosim.run_for(tail).unwrap_err();
            let msg = "module late: service call failed: unit late_link has no service peek";
            assert_eq!(err, CosimError::Runtime(msg.to_string()), "{scheduling:?}");
            let halted = s.cosim.snapshot();
            let want = observe(&s.cosim, &modules);
            assert_eq!(want.2.last().unwrap().error.as_deref(), Some(msg));

            // The pre-error snapshot, forked and restored into the
            // halted backplane, replays to the same error.
            let mut twin = s.cosim.fork(&before).expect("forks");
            assert_eq!(twin.run_for(tail).unwrap_err(), err, "{scheduling:?}");
            assert_eq!(observe(&twin, &modules), want, "{scheduling:?}: fork");
            s.cosim.restore(&before).expect("restores");
            assert_eq!(s.cosim.run_for(tail).unwrap_err(), err, "{scheduling:?}");
            assert_eq!(observe(&s.cosim, &modules), want, "{scheduling:?}: replay");

            // The halted snapshot keeps the error latched.
            s.cosim.restore(&halted).expect("restores");
            let mut twin = s.cosim.fork(&halted).expect("forks");
            for c in [&mut s.cosim, &mut twin] {
                assert_eq!(c.run_for(tail).unwrap_err(), err, "{scheduling:?}");
                assert!(!c.pending_activity(), "{scheduling:?}: halted for good");
                let (_, trace, statuses) = observe(c, &modules);
                assert_eq!((trace, statuses), (want.1.clone(), want.2.clone()));
            }
        }
    }

    #[test]
    fn watch_probes_do_not_grow_with_parked_members() {
        // Starved handshake backplanes: link 0 never drains, so its
        // consumer parks and resumes on every exchange, while the other
        // consumers stay parked. A park or resume probes only the
        // member's own watch set, so over the same window the counters
        // agree at 4 and at 256 links.
        let window = |units| {
            let mut s = build_scenario(&ScenarioSpec {
                units,
                topology: Topology::Starved,
                link: LinkKind::Handshake,
                values_per_link: 100_000,
                ..ScenarioSpec::default()
            })
            .expect("builds");
            s.cosim.run_for(Duration::from_us(5)).expect("warms up");
            let a = s.cosim.shard_stats();
            s.cosim.run_for(Duration::from_us(40)).expect("runs");
            let b = s.cosim.shard_stats();
            (
                b.members_parked - a.members_parked,
                b.members_resumed - a.members_resumed,
                b.watch_probes - a.watch_probes,
            )
        };
        let small = window(4);
        assert!(
            small.0 > 0 && small.1 > 0,
            "link 0 parks and resumes: {small:?}"
        );
        assert_eq!(
            window(256),
            small,
            "(parked, resumed, probes) at 256 vs 4 links"
        );
    }

    #[test]
    fn interleaved_construction_matches_legacy_oracle() {
        // `build_scenario` creates every link before any module. Here
        // each module follows right after the links it binds (the
        // order that once broke the driver under parking), and the
        // driver must still match the per-process oracle at the same
        // parking setting.
        use crate::backplane::Dispatch;
        fn build_interleaved(spec: &ScenarioSpec) -> (Cosim, Vec<CosimModuleId>) {
            let plan = plan_scenario(spec).expect("plans");
            let mut cosim = Cosim::new(spec.config);
            cosim.set_scheduling(spec.scheduling).expect("scheduling");
            let slow = scenario_domains(&mut cosim, spec).expect("domains");
            let mut links: Vec<Option<UnitId>> = vec![None; plan.n_links];
            let hs = OnceCell::new();
            let mut link = |cosim: &mut Cosim, i: usize| {
                *links[i].get_or_insert_with(|| {
                    add_link(cosim, spec, &hs, i, link_domain(spec, slow, i)).expect("link")
                })
            };
            let mut modules = vec![];
            for pm in &plan.modules {
                let binds: Vec<(&str, UnitId)> = pm
                    .bindings
                    .iter()
                    .map(|(n, li)| (n.as_str(), link(&mut cosim, *li)))
                    .collect();
                let d = module_domain(spec, slow, pm);
                modules.push(cosim.add_module_in(d, &pm.module, &binds).expect("module"));
            }
            (cosim, modules)
        }
        let mut rng = XorShift64(0x5eed_1e7e);
        for draw in 0..36 {
            let topology = match rng.next() % 6 {
                0 => Topology::Pipeline,
                1 => Topology::Star,
                2 => Topology::Ring,
                3 => Topology::Starved,
                4 => Topology::Skewed,
                _ => Topology::RandomDag { seed: rng.next() },
            };
            let link = match rng.next() % 3 {
                0 => LinkKind::Handshake,
                k => LinkKind::Batched {
                    max_batch: 4,
                    capacity: 16,
                    timing: if k == 1 {
                        BusTiming::LengthOnly
                    } else {
                        BusTiming::PayloadBeats
                    },
                },
            };
            let units = 2 + (rng.next() % 5) as usize;
            let values_per_link = 1 + (rng.next() % 3) as usize;
            let trace = rng.next().is_multiple_of(2);
            let park_blocked = rng.next().is_multiple_of(2);
            let run = |dispatch| {
                let (mut cosim, modules) = build_interleaved(&ScenarioSpec {
                    units,
                    topology,
                    link,
                    values_per_link,
                    scheduling: SchedulingConfig {
                        dispatch,
                        park_blocked,
                    },
                    trace,
                    ..ScenarioSpec::default()
                });
                cosim.run_for(Duration::from_us(300)).expect("runs");
                let statuses: Vec<_> = modules.iter().map(|&m| cosim.module_status(m)).collect();
                (statuses, cosim.trace_log().entries())
            };
            let tag = format!(
                "draw {draw}: {units} {topology:?}/{link:?}, trace {trace}, \
                 park {park_blocked}"
            );
            let oracle = run(Dispatch::PerProcess);
            let driver = run(Dispatch::Driver);
            assert_eq!(driver.0, oracle.0, "{tag}: module statuses diverged");
            assert_eq!(driver.1, oracle.1, "{tag}: traces diverged");
        }
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
