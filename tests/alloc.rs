//! Steady-state allocation regression gate (behind the test-only
//! `count-allocs` feature): a counting global allocator pins *warm*
//! backplanes on the production scheduler (`SchedulingConfig::default()`)
//! to **zero** heap allocations per cycle.
//!
//! The trace-heavy ring crosses the pooled hot paths of the module
//! driver at once: every module records a trace entry per activation,
//! so nothing parks, the driver steps the whole module set every cycle
//! through its pooled effects arena, and the columnar log's segment
//! pool and spill recycling are exercised each cycle. Further gates pin
//! streaming payload beats (the timer wheel's burst trains), a
//! multi-rate ring (per-domain clocks and parking) and the board's warm
//! FPGA fabric (the motor's Speed Control netlists and its peripheral).
//!
//! Run with: `cargo test --features count-allocs --test alloc`
#![cfg(feature = "count-allocs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cosma::cosim::scenario::{build_scenario, DomainsSpec, LinkKind, ScenarioSpec, Topology};
use cosma::cosim::{BusTiming, SchedulingConfig};
use cosma::sim::Duration;

/// Counts every heap acquisition (alloc, zeroed alloc, realloc) while
/// delegating to the system allocator. Deallocations are not counted:
/// the gate is about *acquiring* memory in the steady state.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The counting allocator is process-global, so gate tests must not
/// overlap: each takes this lock for its warm-up + window.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn warm_trace_heavy_cycles_do_not_allocate() {
    let _serial = GATE.lock().unwrap();
    // A Ring keeps every module stepping for the whole run: the driver
    // circulates values_per_link tokens (far more than the run needs),
    // the relays forward forever, and tracing keeps everyone unparked.
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
    // Spill the trace log so recording runs in bounded memory: full
    // segments are encoded to the sink and their shells recycled, so a
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
fn warm_streaming_payload_beats_do_not_allocate() {
    let _serial = GATE.lock().unwrap();
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
    let _serial = GATE.lock().unwrap();
    // A multi-rate Ring: the first link and the modules touching it run
    // in a quarter-rate clock domain, so the warm window exercises the
    // per-domain clock generators, the domain-keyed shard park/demand
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
fn warm_fabric_ticks_do_not_allocate() {
    use cosma::board::{Fabric, Peripheral, WireBank};
    use cosma::cosim::TraceLog;
    use cosma::motor::{
        core_module, motor_link_unit, position_module, shared_motor, swhw_link_unit, timer_module,
        MotorConfig, MotorPeripheral,
    };
    use cosma::synth::{flatten_module, synthesize_hw, Encoding};

    let _serial = GATE.lock().unwrap();
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
