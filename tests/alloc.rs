//! Allocation regression gates (behind the test-only `count-allocs`
//! feature): a global allocator that counts each thread's heap
//! acquisitions pins *warm* backplanes on the production scheduler
//! (`SchedulingConfig::default()`) to **zero** heap allocations per
//! cycle, and bounds what elaborating one more batched link or module
//! may allocate.
//!
//! The trace-heavy ring crosses the pooled hot paths of the module
//! driver at once: every module records a trace entry per activation,
//! so nothing parks, the driver steps the whole module set every cycle
//! through its pooled effects arena or echoes a blocked relay's cached
//! records, and the columnar log's tail segment and spill encoder are
//! exercised each cycle. Further gates pin
//! echoed trace records (a traced starved fleet whose blocked consumers
//! the driver echoes), pollers of a pure read that park and resume on
//! every write, streaming payload beats (the timer wheel's burst
//! trains), a multi-rate ring (per-domain clocks and parking), a gated
//! activation clock idling while every member is parked and kicked
//! awake by each write, calls on a native FIFO and the board's warm
//! FPGA fabric (the motor's Speed Control netlists and its peripheral).
//!
//! The elaboration gate bounds the cost of one instance (48
//! allocations per batched link, 25 per single-binding module): every
//! batched link shares one protocol spec, every module instance shares
//! its FSM with the description it came from, and the backplane keeps
//! one copy of a module's declarations (its module table, which a fork
//! also rebuilds from), so no instance copies the description it
//! instantiates twice.
//!
//! Run with: `cargo test --features count-allocs --test alloc`
#![cfg(feature = "count-allocs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cosma::cosim::scenario::{
    build_poll, build_scenario, DomainsSpec, LinkKind, ScenarioSpec, Topology,
};
use cosma::cosim::{BusTiming, SchedulingConfig};
use cosma::sim::Duration;

/// Counts every heap acquisition (alloc, zeroed alloc, realloc) while
/// delegating to the system allocator. Deallocations are not counted:
/// the gate is about *acquiring* memory in the steady state.
struct CountingAlloc;

thread_local! {
    /// Heap acquisitions made by this thread. Each gate runs its
    /// backplane (single-threaded) on its own test thread and reads only
    /// its own count, so gates may run in parallel, and the test
    /// harness spawning and reaping other test threads mid-window
    /// counts against no gate.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap acquisitions made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn warm_trace_heavy_cycles_do_not_allocate() {
    // A Ring keeps every module active for the whole run: the driver
    // circulates values_per_link tokens (far more than the run needs),
    // the relays forward forever, and tracing keeps everyone unparked.
    // A relay waiting for a token echoes its records, so the window
    // also arms and ends echoes.
    let spec = ScenarioSpec {
        units: 8,
        topology: Topology::Ring,
        values_per_link: 1_000_000,
        link: LinkKind::Batched {
            max_batch: 8,
            capacity: 32,
            timing: BusTiming::LengthOnly,
        },
        scheduling: SchedulingConfig::default(),
        trace: true,
        ..ScenarioSpec::default()
    };
    let mut s = build_scenario(&spec).expect("scenario builds");
    // Spill the trace log so recording runs in bounded memory: a full
    // tail segment is encoded to the sink and emptied in place, so a
    // warm log never grows.
    s.cosim
        .trace_handle()
        .borrow_mut()
        .set_spill(Box::new(std::io::sink()));
    // Warm-up: grow every pool to its working set — the effects arena,
    // kernel queues, trace segments, interner.
    s.cosim
        .run_for(Duration::from_us(60))
        .expect("warm-up runs");
    assert!(
        s.cosim.trace_handle().borrow().spilled() > 0,
        "warm-up must already spill trace segments (trace-heavy regime)"
    );
    let before = allocs();
    s.cosim.run_for(Duration::from_us(60)).expect("window runs");
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "warm steady-state cycles must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_echoed_trace_records_do_not_allocate() {
    // A traced Starved backplane: fifteen consumers blocked on empty
    // links record a `tick` per activation, so instead of stepping
    // them the driver appends their cached records on every edge,
    // while link 0 carries values for the whole run and its producer
    // and consumer keep stepping and the log spills. (Arming and ending
    // echoes with warm pools is pinned by the trace-heavy ring above,
    // whose relays echo while no token is in reach.)
    let spec = ScenarioSpec {
        units: 16,
        topology: Topology::Starved,
        values_per_link: 1_000_000,
        link: LinkKind::Batched {
            max_batch: 8,
            capacity: 32,
            timing: BusTiming::LengthOnly,
        },
        scheduling: SchedulingConfig::sharded(),
        trace: true,
        ..ScenarioSpec::default()
    };
    let mut s = build_scenario(&spec).expect("scenario builds");
    s.cosim
        .trace_handle()
        .borrow_mut()
        .set_spill(Box::new(std::io::sink()));
    s.cosim
        .run_for(Duration::from_us(60))
        .expect("warm-up runs");
    let warm = s.cosim.shard_stats();
    let before = allocs();
    s.cosim.run_for(Duration::from_us(60)).expect("window runs");
    let grew = allocs() - before;
    let stats = s.cosim.shard_stats();
    let echoed = stats.modules_echoed - warm.modules_echoed;
    let stepped = stats.modules_stepped - warm.modules_stepped;
    assert!(
        echoed * 2 > stepped,
        "the window is mostly echoed edges: {echoed} of {stepped} activations"
    );
    assert_eq!(
        grew, 0,
        "warm echoed trace records must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_parking_pollers_do_not_allocate() {
    // Sixteen modules poll a shared register's pure `read` while a
    // writer rewrites it every 16 cycles: each write re-arms every
    // poller, which takes the value, records it, proves the fixed point
    // on the next edge and parks again. The log spills, so its tail
    // segment empties in place.
    let mut s = build_poll(16, 16, 10_000, SchedulingConfig::default()).expect("system builds");
    s.cosim
        .trace_handle()
        .borrow_mut()
        .set_spill(Box::new(std::io::sink()));
    s.cosim
        .run_for(Duration::from_us(150))
        .expect("warm-up runs");
    assert!(
        s.cosim.trace_handle().borrow().spilled() > 0,
        "warm-up must already spill trace segments"
    );
    let warm = s.cosim.shard_stats();
    let before = allocs();
    s.cosim.run_for(Duration::from_us(60)).expect("window runs");
    let grew = allocs() - before;
    let stats = s.cosim.shard_stats();
    let parked = stats.members_parked - warm.members_parked;
    let resumed = stats.members_resumed - warm.members_resumed;
    assert!(
        parked >= 16 * 30 && resumed >= 16 * 30,
        "every write parks and resumes every poller: {parked} parks, {resumed} resumes"
    );
    assert_eq!(
        grew, 0,
        "warm parking pollers must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_streaming_payload_beats_do_not_allocate() {
    // A Ring of batched PayloadBeats links: every transaction that wins
    // arbitration burst-schedules its remaining DATA/B_VALID beats as a
    // drive train, so the warm window continuously exercises the timer
    // wheel's bulk-insert shells, slot-vector recycling and the
    // `take_due` compaction swap alongside the streaming link pumps.
    // The warm-up is long enough for every level-0 and level-1 slot the
    // traffic touches to have been occupied (and its vector retained)
    // at least once.
    let spec = ScenarioSpec {
        units: 8,
        topology: Topology::Ring,
        values_per_link: 1_000_000,
        link: LinkKind::Batched {
            max_batch: 8,
            capacity: 32,
            timing: BusTiming::PayloadBeats,
        },
        scheduling: SchedulingConfig::sharded(),
        trace: false,
        ..ScenarioSpec::default()
    };
    let mut s = build_scenario(&spec).expect("scenario builds");
    s.cosim
        .run_for(Duration::from_us(100))
        .expect("warm-up runs");
    let stats = s.cosim.sim().stats();
    assert!(
        stats.bulk_inserts > 0,
        "payload-beat bursts must bulk-insert into the wheel: {stats:?}"
    );
    let before = allocs();
    s.cosim.run_for(Duration::from_us(60)).expect("window runs");
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "warm streaming payload-beat cycles must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_multi_rate_ring_cycles_do_not_allocate() {
    // A multi-rate Ring: the first link and the modules touching it run
    // in a quarter-rate clock domain, so the warm window exercises the
    // per-domain clock generators, the per-member park/demand
    // accounting, and cross-rate link pumps — none of which may
    // allocate once the pools are warm.
    let spec = ScenarioSpec {
        units: 8,
        topology: Topology::Ring,
        values_per_link: 1_000_000,
        link: LinkKind::Batched {
            max_batch: 8,
            capacity: 32,
            timing: BusTiming::LengthOnly,
        },
        scheduling: SchedulingConfig::sharded(),
        trace: true,
        domains: DomainsSpec {
            ratio: (4, 1),
            slow_links: 1,
        },
        ..ScenarioSpec::default()
    };
    let mut s = build_scenario(&spec).expect("scenario builds");
    s.cosim
        .trace_handle()
        .borrow_mut()
        .set_spill(Box::new(std::io::sink()));
    assert!(s.cosim.domain_count() > 1, "second clock domain installed");
    s.cosim
        .run_for(Duration::from_us(100))
        .expect("warm-up runs");
    let before = allocs();
    s.cosim.run_for(Duration::from_us(60)).expect("window runs");
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "warm multi-rate ring cycles must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_idling_and_kicked_clock_does_not_allocate() {
    use cosma::core::{Expr, Module, ModuleBuilder, ModuleKind, PortDir, Stmt, Type, Value};
    use cosma::cosim::{Cosim, CosimConfig};
    use cosma::sim::{FnProcess, Wait};

    // Four modules copy an input port to an output port and park on
    // their ports once the copy has settled, so between writes every
    // member is parked and the domain's gated clock idles on its kick.
    // A kernel process outside the backplane rewrites every input once
    // per microsecond: the members' watchers re-arm them, the first
    // resume kicks the clock, and the members step, settle and park
    // again until the clock idles once more.
    fn follower(name: &str) -> Module {
        let mut b = ModuleBuilder::new(name, ModuleKind::Hardware);
        let input = b.port("IN", PortDir::In, Type::INT16);
        let out = b.port("OUT", PortDir::Out, Type::INT16);
        let s = b.state("S");
        b.actions(s, vec![Stmt::drive(out, Expr::port(input))]);
        b.transition(s, None, s);
        b.initial(s);
        b.build().expect("module builds")
    }
    let mut cosim = Cosim::new(CosimConfig::default());
    let mut inputs = vec![];
    for i in 0..4 {
        let name = format!("follow{i}");
        cosim
            .add_module(&follower(&name), &[])
            .expect("module installs");
        let input = cosim.sim().find_signal(&format!("{name}.IN"));
        inputs.push(input.expect("input port signal"));
    }
    cosim.sim_mut().add_process(
        "writer",
        FnProcess::new(move |ctx| {
            let v = ctx.read_int(inputs[0]);
            for &s in &inputs {
                ctx.drive(s, Value::Int((v + 1) & 0xFF));
            }
            Wait::Timeout(Duration::from_us(1))
        }),
    );
    // The window ends half-way between two writes.
    cosim
        .run_for(Duration::from_ns(20_500))
        .expect("warm-up runs");
    let clk = cosim.hw_clk();
    let edges = |c: &Cosim| c.sim().signal_info(clk).event_count;
    let (warm, warm_edges) = (cosim.shard_stats(), edges(&cosim));
    let before = allocs();
    cosim.run_for(Duration::from_us(40)).expect("window runs");
    let grew = allocs() - before;
    let stats = cosim.shard_stats();
    let parked = stats.members_parked - warm.members_parked;
    let resumed = stats.members_resumed - warm.members_resumed;
    assert!(
        parked >= 4 * 40 && resumed >= 4 * 40,
        "every write re-arms and parks every member: {parked} parks, {resumed} resumes"
    );
    assert_eq!(stats.parked_now, 4, "every member parked between writes");
    let window_edges = edges(&cosim) - warm_edges;
    assert!(
        window_edges <= 40 * 8,
        "the clock idles between writes: {window_edges} edges in 400 periods"
    );
    assert_eq!(
        grew, 0,
        "a warm idling and kicked clock must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_native_fifo_calls_do_not_allocate() {
    use cosma::comm::FifoChannel;
    use cosma::core::{Expr, Module, ModuleBuilder, ModuleKind, ServiceCall, Stmt, Type, Value};
    use cosma::cosim::{Cosim, CosimConfig};

    // A producer and a consumer calling `put`/`get` on a native FIFO on
    // every activation, forever: each call counts into the unit's
    // statistics, which must not allocate once every service has a row.
    fn endless(name: &str, service: &str) -> Module {
        let mut b = ModuleBuilder::new(name, ModuleKind::Software);
        let done = b.var("D", Type::Bool, Value::Bool(false));
        let n = b.var("N", Type::INT16, Value::Int(0));
        let bind = b.binding("chan", "fifo");
        let s = b.state("S");
        let put = service == "put";
        b.actions(
            s,
            vec![Stmt::Call(ServiceCall {
                binding: bind,
                service: service.into(),
                args: if put { vec![Expr::var(n)] } else { vec![] },
                done: Some(done),
                result: if put { None } else { Some(n) },
            })],
        );
        b.transition_with(
            s,
            Some(Expr::var(done)),
            vec![Stmt::assign(n, Expr::var(n).add(Expr::int(1)))],
            s,
        );
        b.transition(s, None, s);
        b.initial(s);
        b.build().expect("module builds")
    }
    let mut cosim = Cosim::new(CosimConfig::default());
    let fifo = cosim.add_native_unit("fifo", Box::new(FifoChannel::new("fifo", 4)));
    for (name, service) in [("prod", "put"), ("cons", "get")] {
        cosim
            .add_module(&endless(name, service), &[("chan", fifo)])
            .expect("module installs");
    }
    cosim.run_for(Duration::from_us(20)).expect("warm-up runs");
    let calls = |c: &Cosim| {
        let stats = c.unit_stats("fifo").expect("fifo installed");
        stats.services.values().map(|s| s.calls).sum::<u64>()
    };
    let warm = calls(&cosim);
    let before = allocs();
    cosim.run_for(Duration::from_us(20)).expect("window runs");
    let grew = allocs() - before;
    assert!(calls(&cosim) > warm + 100, "the window keeps calling");
    assert_eq!(
        grew, 0,
        "warm native FIFO calls must not allocate, saw {grew} allocations"
    );
}

#[test]
fn warm_fabric_ticks_do_not_allocate() {
    use cosma::board::{Fabric, Peripheral, WireBank};
    use cosma::cosim::TraceLog;
    use cosma::motor::{
        core_module, motor_link_unit, position_module, shared_motor, swhw_link_unit, timer_module,
        MotorConfig, MotorPeripheral,
    };
    use cosma::synth::{flatten_module, synthesize_hw, Encoding};

    // The motor's three Speed Control netlists and its peripheral, as
    // the board wires them, ticked without the CPU. Poking the data
    // wire of the constraints mailbox (its flag stays low) changes an
    // input without starting a transfer: the netlists reading it
    // evaluate once and settle again, so the window mixes settled and
    // evaluated steps and the motor records no `pulse` entries.
    let cfg = MotorConfig::default();
    let units = [
        ("swhw".to_string(), swhw_link_unit()),
        ("mlink".to_string(), motor_link_unit()),
    ]
    .into_iter()
    .collect();
    let mut bank = WireBank::new();
    let mut fabric = Fabric::new();
    for module in [position_module(&cfg), core_module(), timer_module(&cfg)] {
        let flat = flatten_module(&module, &units).expect("flattens");
        let (nl, _) = synthesize_hw(&flat, Encoding::Binary).expect("synthesizes");
        fabric.place(&nl, &mut bank).expect("widths agree");
    }
    let mut motor = MotorPeripheral::new(shared_motor(cfg.motor_speed), "mlink");
    let mut trace = TraceLog::new();
    let poked = bank
        .index("swhw_CTL_REG")
        .expect("constraints mailbox wire");
    let mut run = |bank: &mut WireBank, fabric: &mut Fabric, trace: &mut TraceLog| {
        for t in 0..2_000u64 {
            if t % 16 == 0 {
                bank.write(poked, t / 16);
            }
            fabric.tick(bank);
            motor.tick(bank, trace, t);
        }
    };
    run(&mut bank, &mut fabric, &mut trace);
    let (evaluated, entries) = (fabric.evaluations(), trace.len());
    let before = allocs();
    run(&mut bank, &mut fabric, &mut trace);
    let grew = allocs() - before;
    let evaluated = fabric.evaluations() - evaluated;
    let steps = 2_000 * fabric.instance_count() as u64;
    assert_eq!(trace.len(), entries, "no pulse entries in the window");
    assert!(
        evaluated > 0 && evaluated < steps,
        "both settled and evaluated steps: {evaluated} of {steps} evaluated"
    );
    assert_eq!(
        grew, 0,
        "warm fabric ticks must not allocate, saw {grew} allocations"
    );
}

#[test]
fn elaborating_links_and_modules_shares_their_descriptions() {
    use cosma::core::{Expr, Module, ModuleBuilder, ModuleKind, ServiceCall, Stmt, Type, Value};
    use cosma::cosim::{Cosim, CosimConfig, UnitId};

    // A single-binding producer: two states, two variables, one `put`.
    fn producer(name: &str) -> Module {
        let mut b = ModuleBuilder::new(name, ModuleKind::Software);
        let done = b.var("D", Type::Bool, Value::Bool(false));
        let n = b.var("N", Type::INT16, Value::Int(0));
        let bind = b.binding("out", "link");
        let put = b.state("PUT");
        let end = b.state("END");
        b.actions(
            put,
            vec![Stmt::Call(ServiceCall {
                binding: bind,
                service: "put".into(),
                args: vec![Expr::var(n)],
                done: Some(done),
                result: None,
            })],
        );
        b.transition(put, Some(Expr::var(done)), end);
        b.transition(put, None, put);
        b.transition(end, None, end);
        b.initial(put);
        b.build().expect("module builds")
    }
    const WARM: usize = 8;
    const N: usize = 64;
    let names: Vec<String> = (0..WARM + N).map(|i| format!("link{i}")).collect();
    let modules: Vec<Module> = (0..WARM + N)
        .map(|i| producer(&format!("prod{i}")))
        .collect();
    let mut cosim = Cosim::new(CosimConfig::default());
    let add_link = |cosim: &mut Cosim, i: usize| -> UnitId {
        cosim
            .add_batched_unit(&names[i], Type::INT16, 8, 32)
            .expect("link installs")
    };
    // Warm-up: the first links and modules build the process-wide
    // protocol spec and grow the backplane's tables.
    let mut links: Vec<UnitId> = (0..WARM).map(|i| add_link(&mut cosim, i)).collect();
    for (i, &link) in links.iter().enumerate() {
        cosim
            .add_module(&modules[i], &[("out", link)])
            .expect("module installs");
    }
    // Keep the test's own bookkeeping out of the windows.
    links.reserve(N);
    let before = allocs();
    for i in WARM..WARM + N {
        links.push(add_link(&mut cosim, i));
    }
    let per_link = (allocs() - before) as f64 / N as f64;
    let before = allocs();
    for i in WARM..WARM + N {
        cosim
            .add_module(&modules[i], &[("out", links[i])])
            .expect("module installs");
    }
    let per_module = (allocs() - before) as f64 / N as f64;
    println!("elaboration: {per_link:.1} allocations per link, {per_module:.1} per module");
    assert!(
        per_link <= 48.0,
        "a batched link must not copy its protocol spec: {per_link:.1} allocations per link"
    );
    assert!(
        per_module <= 25.0,
        "a module instance must not copy its FSM or keep a second copy of its \
         declarations: {per_module:.1} allocations per module"
    );
}
