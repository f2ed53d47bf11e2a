//! Parking modules that poll pure reads.
//!
//! A completed service call that leaves its unit as it found it — a
//! call from a fresh protocol session that writes no wire, such as
//! `shared_reg_unit`'s `read`, `register_bank_unit`'s `get_<reg>` or the
//! motor link's `ReadSampledData` — is a fixed point like a blocked call.
//! A module whose activation makes only such calls and changes nothing
//! else parks until one of its ports or the reads' completion wires
//! events, and is stepped on the next edge after that. These tests pin
//! that pollers park, that parking is invisible in traces, final
//! variables and states, that the driver parks exactly like the
//! per-process oracle, and that every other kind of completion keeps
//! its caller awake.

use cosma::comm::{handshake_unit, register_bank_unit, shared_reg_unit, FifoChannel, SharedMemory};
use cosma::core::comm::{CommUnitBuilder, CommUnitSpec, ServiceSpecBuilder};
use cosma::core::comm::{SERVICE_DONE_VAR, SERVICE_RESULT_VAR};
use cosma::core::{Bit, Expr, Module, ModuleBuilder, ModuleKind, ServiceCall, Stmt, Type, Value};
use cosma::cosim::scenario::{poller_module, writer_module};
use cosma::cosim::{Cosim, CosimConfig, Dispatch, ModuleStatus, SchedulingConfig, TraceLog};
use cosma::motor::motor_link_unit;
use cosma::sim::{ClockControl, Duration, Edge};
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// The three configurations every polling system runs under: the
/// driver and the per-process oracle with parking on, and the driver
/// with parking off.
fn configs() -> [SchedulingConfig; 3] {
    [
        SchedulingConfig::sharded(),
        SchedulingConfig {
            dispatch: Dispatch::PerProcess,
            park_blocked: true,
        },
        SchedulingConfig {
            park_blocked: false,
            ..SchedulingConfig::sharded()
        },
    ]
}

/// The registers pollers poll: the three pure reads, and a two-step
/// read whose completion comes from a session left mid-protocol, so its
/// pollers must never park.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Register {
    SharedReg,
    Bank,
    Sampled,
    Latched,
}

/// How a register is written.
enum Writer {
    /// By a [`writer_module`] calling this service.
    Service(&'static str),
    /// By a testbench process driving this wire, as the motor plant
    /// drives `SAMPLED_POS`.
    Wire(&'static str),
}

impl Register {
    /// The pure reads first, then the two-step read.
    const ALL: [Register; 4] = [
        Register::SharedReg,
        Register::Bank,
        Register::Sampled,
        Register::Latched,
    ];

    fn spec(self) -> Arc<CommUnitSpec> {
        match self {
            Register::SharedReg => shared_reg_unit("reg", Type::INT16),
            Register::Bank => register_bank_unit("bank", &[("A", Type::INT16)]),
            Register::Sampled => motor_link_unit(),
            Register::Latched => two_step_read(),
        }
    }

    fn writer(self) -> Writer {
        match self {
            Register::SharedReg => Writer::Service("write"),
            Register::Bank => Writer::Service("put_A"),
            Register::Sampled => Writer::Wire("SAMPLED_POS"),
            Register::Latched => Writer::Wire("REG"),
        }
    }

    fn read(self) -> &'static str {
        match self {
            Register::SharedReg | Register::Latched => "read",
            Register::Bank => "get_A",
            Register::Sampled => "ReadSampledData",
        }
    }
}

/// A polling system: `pollers` [`poller_module`]s on one register,
/// followed by one writer per `(period, writes)` entry.
struct PollSystem {
    register: Register,
    pollers: usize,
    writers: Vec<(i64, i64)>,
}

/// What one run of a polling system shows.
#[derive(Debug, PartialEq)]
struct Observed {
    statuses: Vec<ModuleStatus>,
    /// Each poller's `V` and `LAST`, then each writer's `N`.
    vars: Vec<Option<Value>>,
    trace: TraceLog,
    parked: u64,
}

impl PollSystem {
    /// Builds the system under `cfg` and runs it for `us` µs. A writer
    /// of a wire is a testbench process on the HW clock that drives the
    /// wire to `k` on every `period`-th edge, `writes` times; it is
    /// outside the clock-demand ledger, so the clock domains are pinned.
    fn run(&self, cfg: SchedulingConfig, us: u64) -> Observed {
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.set_scheduling(cfg).unwrap();
        let reg = cosim.add_fsm_unit("reg", self.register.spec());
        let read = self.register.read();
        let mut modules: Vec<_> = (0..self.pollers)
            .map(|i| {
                let poller = poller_module(&format!("poller{i}"), read);
                cosim.add_module(&poller, &[("reg", reg)]).unwrap()
            })
            .collect();
        for (i, &(period, writes)) in self.writers.iter().enumerate() {
            match self.register.writer() {
                Writer::Service(service) => {
                    let writer = writer_module(&format!("writer{i}"), service, period, writes);
                    modules.push(cosim.add_module(&writer, &[("reg", reg)]).unwrap());
                }
                Writer::Wire(wire) => {
                    cosim.pin_clock_domains();
                    let wire = cosim.sim().find_signal(&format!("reg.{wire}")).unwrap();
                    let clk = cosim.hw_clk();
                    let edges = Rc::new(Cell::new(0i64));
                    cosim.sim_mut().add_clocked(
                        format!("sampler{i}"),
                        clk,
                        Edge::Rising,
                        move |ctx| {
                            edges.set(edges.get() + 1);
                            let k = edges.get() / period;
                            if edges.get() % period == 0 && k <= writes {
                                ctx.drive(wire, Value::Int(100 * i as i64 + k));
                            }
                            ClockControl::Continue
                        },
                    );
                }
            }
        }
        cosim.run_for(Duration::from_us(us)).unwrap();
        let statuses = modules.iter().map(|&m| cosim.module_status(m)).collect();
        let mut vars = vec![];
        for (j, &m) in modules.iter().enumerate() {
            let names: &[&str] = if j < self.pollers {
                &["V", "LAST"]
            } else {
                &["N"]
            };
            vars.extend(names.iter().map(|v| cosim.module_var(m, v)));
        }
        Observed {
            statuses,
            vars,
            trace: cosim.trace_log(),
            parked: cosim.shard_stats().members_parked,
        }
    }

    /// Runs under every configuration and checks that parking is
    /// invisible: the driver and the per-process oracle agree on
    /// everything, activation counts included, and both show the traces,
    /// final variables and states of the unparked run. Returns the
    /// driver's and the unparked run's observations.
    fn check(&self, us: u64) -> (Observed, Observed) {
        let [driver, oracle, unparked] = configs().map(|cfg| self.run(cfg, us));
        assert_eq!(
            driver.statuses, oracle.statuses,
            "{:?}: the driver and the oracle park alike",
            self.register
        );
        assert_eq!(driver.trace, oracle.trace, "{:?}", self.register);
        assert_eq!(driver.vars, oracle.vars, "{:?}", self.register);
        assert_eq!(driver.trace, unparked.trace, "{:?}", self.register);
        assert_eq!(driver.vars, unparked.vars, "{:?}", self.register);
        let states = |o: &Observed| {
            o.statuses
                .iter()
                .map(|s| s.state.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(states(&driver), states(&unparked), "{:?}", self.register);
        (driver, unparked)
    }
}

#[test]
fn pollers_of_every_pure_read_park_between_writes() {
    const WRITES: i64 = 6;
    for &register in &Register::ALL[..3] {
        let system = PollSystem {
            register,
            pollers: 3,
            writers: vec![(16, WRITES)],
        };
        let (driver, unparked) = system.check(20);
        for i in 0..system.pollers {
            // Each write costs a poller two activations — one takes the
            // new value, the next proves the fixed point — plus two at
            // the start.
            let parked = driver.statuses[i].activations;
            assert!(
                parked <= 2 * WRITES as u64 + 2,
                "{register:?}: poller {i} stepped {parked} times for {WRITES} writes"
            );
            assert!(unparked.statuses[i].activations >= 190, "{register:?}");
        }
        // Every write was seen, by every poller, on the edge after it.
        let seen: Vec<_> = driver.trace.with_label("seen").collect();
        assert_eq!(seen.len(), system.pollers * WRITES as usize, "{register:?}");
        assert_eq!(driver.vars[0], Some(Value::Int(WRITES)), "{register:?}");
        assert!(driver.parked >= (system.pollers * WRITES as usize) as u64);
    }
}

#[test]
fn a_write_in_the_park_delta_re_arms_the_poller() {
    // The poller parks on its second edge; the writer, stepped after it
    // on that same edge, writes the register, so the wire event lands in
    // the delta that hands the poller's watch set to its watcher. The
    // poller must still be re-armed and read the value on edge 3.
    for register in [Register::SharedReg, Register::Sampled] {
        let system = PollSystem {
            register,
            pollers: 1,
            writers: vec![(2, 1)],
        };
        let (driver, _) = system.check(5);
        assert_eq!(
            driver.vars[..2],
            [Some(Value::Int(1)), Some(Value::Int(1))],
            "{register:?}"
        );
        assert_eq!(driver.statuses[0].activations, 4, "{register:?}");
        assert_eq!(driver.trace.with_label("seen").count(), 1, "{register:?}");
    }
}

/// A module whose only statement is one call of `service(args)` on its
/// `unit` binding, with no done or result variable: whether it parks
/// depends on nothing but the call's stability.
fn caller(service: &str, args: Vec<Expr>) -> Module {
    let mut b = ModuleBuilder::new("caller", ModuleKind::Hardware);
    let unit = b.binding("unit", "unit");
    let s = b.state("CALL");
    b.actions(
        s,
        vec![Stmt::Call(ServiceCall {
            binding: unit,
            service: service.into(),
            args,
            done: None,
            result: None,
        })],
    );
    b.transition(s, None, s);
    b.initial(s);
    b.build().expect("caller is well-formed")
}

/// A protocol whose completion writes no wire but takes two steps: the
/// first latches `REG` into a local and moves on, the second returns it.
fn two_step_read() -> Arc<CommUnitSpec> {
    let mut u = CommUnitBuilder::new("latch");
    let reg = u.wire("REG", Type::INT16, Value::Int(0));
    let mut rd = ServiceSpecBuilder::new("read");
    rd.returns(Type::INT16);
    let latch = rd.local("L", Type::INT16, Value::Int(0));
    let fetch = rd.state("FETCH");
    let deliver = rd.state("DELIVER");
    rd.transition_with(
        fetch,
        None,
        vec![Stmt::assign(latch, Expr::port(reg))],
        deliver,
    );
    rd.transition_with(
        deliver,
        None,
        vec![
            Stmt::assign(SERVICE_RESULT_VAR, Expr::var(latch)),
            Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
        ],
        fetch,
    );
    rd.initial(fetch);
    u.service(rd.build().expect("read is well-formed"));
    u.build().expect("latch unit is well-formed")
}

/// The unit a [`caller`] calls: an FSM unit with wires set before the
/// run, or a native unit.
enum Callee {
    Fsm(Arc<CommUnitSpec>, Vec<(&'static str, Value)>),
    Native(fn() -> Box<dyn cosma::comm::NativeUnit>),
}

/// Activations of a [`caller`] of `service` on `callee` over 2 µs (20
/// edges) under `cfg`.
fn caller_activations(callee: &Callee, service: &str, args: &[i64], cfg: SchedulingConfig) -> u64 {
    let mut cosim = Cosim::new(CosimConfig::default());
    cosim.set_scheduling(cfg).unwrap();
    let unit = match callee {
        Callee::Fsm(spec, wires) => {
            let unit = cosim.add_fsm_unit("unit", Arc::clone(spec));
            for (wire, v) in wires {
                let sig = cosim.sim().find_signal(&format!("unit.{wire}")).unwrap();
                cosim.sim_mut().poke(sig, v.clone());
            }
            unit
        }
        Callee::Native(make) => cosim.add_native_unit("unit", make()),
    };
    let args = args.iter().map(|&a| Expr::int(a)).collect();
    let id = cosim
        .add_module(&caller(service, args), &[("unit", unit)])
        .unwrap();
    cosim.run_for(Duration::from_us(2)).unwrap();
    cosim.module_status(id).activations
}

#[test]
fn only_pure_reads_park_their_caller_on_completion() {
    let one = || Value::Bit(Bit::One);
    let fifo = || -> Box<dyn cosma::comm::NativeUnit> { Box::new(FifoChannel::new("fifo", 4)) };
    let memory = || -> Box<dyn cosma::comm::NativeUnit> { Box::new(SharedMemory::new("mem", 4)) };
    let reg = || Callee::Fsm(shared_reg_unit("reg", Type::INT16), vec![]);
    let swhw = cosma::motor::swhw_link_unit();
    // (callee, service, args, activations with parking on): `None` for
    // a caller that stays awake on every edge, `Some(k)` for one that
    // parks after `k` activations.
    let cases: Vec<(Callee, &str, Vec<i64>, Option<u64>)> = vec![
        // Pure reads from a fresh session park at once.
        (reg(), "read", vec![], Some(1)),
        (
            Callee::Fsm(register_bank_unit("bank", &[("A", Type::INT16)]), vec![]),
            "get_A",
            vec![],
            Some(1),
        ),
        (
            Callee::Fsm(motor_link_unit(), vec![]),
            "ReadSampledData",
            vec![],
            Some(1),
        ),
        // Completions that write a wire: the caller is stepped again on
        // the next edge, where a blocked call may park it.
        (reg(), "write", vec![7], None),
        (reg(), "release", vec![], None),
        (reg(), "acquire", vec![], Some(2)),
        (
            Callee::Fsm(swhw.clone(), vec![("POS_FULL", one())]),
            "ReadMotorPosition",
            vec![],
            Some(2),
        ),
        (Callee::Fsm(swhw, vec![]), "MotorPosition", vec![5], Some(2)),
        (
            Callee::Fsm(handshake_unit("hs", Type::INT16), vec![("B_FULL", one())]),
            "get",
            vec![],
            Some(2),
        ),
        // A completion from a session a pending step left mid-protocol.
        (Callee::Fsm(two_step_read(), vec![]), "read", vec![], None),
        // Native completions push, pop or read cells no wire shows.
        (Callee::Native(fifo), "put", vec![1], Some(5)),
        (Callee::Native(memory), "load", vec![0], None),
    ];
    for (callee, service, args, parks_after) in &cases {
        let edges = caller_activations(callee, service, args, configs()[2]);
        assert!(edges >= 20, "{service}: {edges} edges");
        for cfg in &configs()[..2] {
            let got = caller_activations(callee, service, args, *cfg);
            assert_eq!(got, parks_after.unwrap_or(edges), "{service} under {cfg:?}");
        }
    }
}

#[test]
fn batched_completions_keep_their_caller_awake() {
    // A put on a deep batched link completes on every edge until the
    // link fills: each completion pushes a value.
    for cfg in &configs()[..2] {
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.set_scheduling(*cfg).unwrap();
        let link = cosim.add_batched_unit("unit", Type::INT16, 4, 64).unwrap();
        let id = cosim
            .add_module(&caller("put", vec![Expr::int(1)]), &[("unit", link)])
            .unwrap();
        cosim.run_for(Duration::from_us(2)).unwrap();
        let stats = cosim.unit_stats("unit").unwrap();
        let activations = cosim.module_status(id).activations;
        assert!(activations >= 20, "{cfg:?}: {activations}");
        assert_eq!(stats.services["put"].completions, activations, "{cfg:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    // Small systems of writers and pollers on every pure read: the
    // driver matches the per-process oracle, activation counts
    // included, and both match the traces, final variables and states
    // of an unparked run.
    #[test]
    fn writers_and_pollers_park_soundly(
        register in 0usize..4,
        pollers in 1usize..4,
        writers in proptest::collection::vec((1i64..12, 1i64..6), 1..3),
        us in 2u64..8,
    ) {
        let system = PollSystem {
            register: Register::ALL[register],
            pollers,
            writers,
        };
        system.check(us);
    }
}
