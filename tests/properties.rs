//! Property-based tests over the core invariants.

use cosma::comm::{CallerId, FifoChannel, NativeUnit};
use cosma::core::{Expr, FsmExec, MapEnv, ModuleBuilder, ModuleKind, PortDir, Stmt, Type, Value};
use cosma::isa::{disassemble, Instr, Reg};
use cosma::synth::{synthesize_hw, Encoding};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// FIFO: never loses, duplicates or reorders messages.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn fifo_preserves_message_stream(
        ops in proptest::collection::vec(any::<bool>(), 1..200),
        values in proptest::collection::vec(-3000i64..3000, 1..200),
        cap in 1usize..16,
    ) {
        let mut fifo = FifoChannel::new("q", cap);
        let mut sent = vec![];
        let mut received = vec![];
        let mut vi = 0;
        for &is_put in &ops {
            if is_put {
                let v = values[vi % values.len()];
                vi += 1;
                if fifo.call(CallerId(0), "put", &[Value::Int(v)]).unwrap().done {
                    sent.push(v);
                }
            } else if let Some(Value::Int(v)) =
                fifo.call(CallerId(1), "get", &[]).unwrap().result
            {
                received.push(v);
            }
        }
        // Drain what remains.
        while let Some(Value::Int(v)) = fifo.call(CallerId(1), "get", &[]).unwrap().result {
            received.push(v);
        }
        prop_assert_eq!(sent, received);
    }
}

// ---------------------------------------------------------------------
// Assembler: encode/decode round trip over arbitrary instruction mixes.
// ---------------------------------------------------------------------

fn arb_instr() -> impl Strategy<Value = Instr> {
    let r = || (0u8..8).prop_map(Reg);
    prop_oneof![
        Just(Instr::Nop),
        (r(), any::<u16>()).prop_map(|(rd, i)| Instr::Ldi(rd, i)),
        (r(), r()).prop_map(|(rd, rs)| Instr::Mov(rd, rs)),
        (r(), r()).prop_map(|(rd, rs)| Instr::Add(rd, rs)),
        (r(), r()).prop_map(|(rd, rs)| Instr::Sub(rd, rs)),
        (r(), r()).prop_map(|(rd, rs)| Instr::Mul(rd, rs)),
        (r(), any::<u16>()).prop_map(|(rd, i)| Instr::Cmpi(rd, i)),
        (r(), any::<u16>()).prop_map(|(rd, a)| Instr::Ld(rd, a)),
        (any::<u16>(), r()).prop_map(|(a, rs)| Instr::St(a, rs)),
        (r(), any::<u16>()).prop_map(|(rd, p)| Instr::In(rd, p)),
        (any::<u16>(), r()).prop_map(|(p, rs)| Instr::Out(p, rs)),
        any::<u16>().prop_map(Instr::Jmp),
        any::<u16>().prop_map(Instr::Jz),
        any::<u16>().prop_map(Instr::Jc),
        r().prop_map(Instr::Push),
        r().prop_map(Instr::Pop),
        any::<u16>().prop_map(Instr::Call),
        Just(Instr::Ret),
    ]
}

proptest! {
    #[test]
    fn instruction_stream_round_trips(instrs in proptest::collection::vec(arb_instr(), 1..60)) {
        // Lay the instructions into memory and disassemble them back.
        let mut mem = vec![0u16; 4096];
        let mut addr = 0u16;
        let mut expect = vec![];
        for i in &instrs {
            let (w, imm) = i.encode();
            mem[addr as usize] = w;
            expect.push((addr, *i));
            addr += 1;
            if let Some(imm) = imm {
                mem[addr as usize] = imm;
                addr += 1;
            }
        }
        mem[addr as usize] = Instr::Halt.encode().0;
        expect.push((addr, Instr::Halt));
        let got = disassemble(&mem, 0, expect.len() + 4);
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// State encodings: bijective for every scheme and size.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn encodings_bijective(n in 1usize..40) {
        for enc in Encoding::ALL {
            if enc == Encoding::OneHot && n > 40 {
                continue;
            }
            let codes: Vec<u64> = (0..n).map(|i| enc.encode(i, n)).collect();
            let mut dedup = codes.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), n, "{} duplicates codes", enc);
            for (i, c) in codes.iter().enumerate() {
                prop_assert_eq!(enc.decode(*c, n), Some(i));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hardware synthesis: random straight-line datapaths match the
// interpreter on random inputs.
// ---------------------------------------------------------------------

/// A small generator of safe expressions over two input ports and a
/// variable (no division; shifts by constants only).
fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-200i64..200).prop_map(Expr::int),
        Just(Expr::port(cosma::core::ids::PortId::new(0))),
        Just(Expr::port(cosma::core::ids::PortId::new(1))),
        Just(Expr::var(cosma::core::ids::VarId::new(0))),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        (inner.clone(), inner, 0u8..8)
            .prop_map(|(a, b, op)| match op {
                0 => a.add(b),
                1 => a.sub(b),
                2 => a.mul(b),
                3 => Expr::Binary(cosma::core::BinOp::Min, Box::new(a), Box::new(b)),
                4 => Expr::Binary(cosma::core::BinOp::Max, Box::new(a), Box::new(b)),
                5 => Expr::Binary(cosma::core::BinOp::Xor, Box::new(a), Box::new(b)),
                6 => Expr::Binary(cosma::core::BinOp::And, Box::new(a), Box::new(b)),
                _ => Expr::Binary(cosma::core::BinOp::Or, Box::new(a), Box::new(b)),
            })
            .boxed()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn random_datapaths_synthesize_equivalently(
        e in arb_expr(3),
        // Each input pair is held for 1-4 cycles, so the netlist
        // simulator's settled-step skip is checked against the
        // interpreter too.
        inputs in proptest::collection::vec((-500i64..500, -500i64..500, 1usize..5), 1..12),
    ) {
        let mut b = ModuleBuilder::new("dp", ModuleKind::Hardware);
        let _x = b.port("X", PortDir::In, Type::INT16);
        let _y = b.port("Y", PortDir::In, Type::INT16);
        let acc = b.var("ACC", Type::INT16, Value::Int(0));
        let s = b.state("S");
        b.actions(s, vec![Stmt::assign(acc, e)]);
        b.transition(s, None, s);
        b.initial(s);
        let m = b.build().unwrap();

        let (nl, _) = synthesize_hw(&m, Encoding::Binary).unwrap();
        let mut sim = nl.simulator();
        let mut env = MapEnv::new();
        env.add_port(Type::INT16, Value::Int(0));
        env.add_port(Type::INT16, Value::Int(0));
        env.add_var(Type::INT16, Value::Int(0));
        let mut exec = FsmExec::new(m.fsm());
        let reg = nl.find_reg("ACC").unwrap();
        for (x, y, hold) in inputs {
            env.set_port(cosma::core::ids::PortId::new(0), Value::Int(x));
            env.set_port(cosma::core::ids::PortId::new(1), Value::Int(y));
            for cycle in 0..hold {
                exec.step(m.fsm(), &mut env).unwrap();
                sim.step(&[x as u64 & 0xFFFF, y as u64 & 0xFFFF]);
                let expect = env.var(acc).to_bus_word(16);
                prop_assert_eq!(
                    sim.reg_value(reg),
                    expect,
                    "inputs ({}, {}), held cycle {}",
                    x,
                    y,
                    cycle
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Motor plant: position always equals executed step sum; backlog drains.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn motor_position_is_step_integral(
        cmds in proptest::collection::vec(-50i64..50, 1..60),
        speed in 1i64..10,
    ) {
        let mut m = cosma::motor::MotorModel::new(speed);
        let mut executed = 0i64;
        for c in &cmds {
            m.command_pulses(*c);
            let s = m.tick();
            prop_assert!(s.abs() <= speed);
            executed += s;
            prop_assert_eq!(m.position(), executed);
        }
        // Drain: eventually the backlog empties and position equals the
        // total commanded sum.
        let total: i64 = cmds.iter().sum();
        for _ in 0..10_000 {
            if !m.is_moving() {
                break;
            }
            m.tick();
        }
        prop_assert!(!m.is_moving());
        prop_assert_eq!(m.position(), total);
    }
}

// ---------------------------------------------------------------------
// Value layer: bus-word round trips.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn int16_bus_round_trip(v in -32768i64..32767) {
        let w = Value::Int(v).to_bus_word(16);
        let back = Value::from_bus_word(&Type::INT16, w).unwrap();
        prop_assert_eq!(back, Value::Int(v));
    }
}

// ---------------------------------------------------------------------
// Handshake protocol: robust to ARBITRARY interleaving of producer,
// consumer and controller activations (the paper's speed-mismatch
// problem). No loss, duplication or reorder under random schedules.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn handshake_robust_to_any_schedule(
        schedule in proptest::collection::vec(0u8..3, 50..600),
    ) {
        use cosma::comm::{handshake_unit, FsmUnitRuntime, LocalWires};
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = cosma::comm::LocalWires::new(&spec);
        let _ = &wires as &LocalWires;
        let producer = CallerId(1);
        let consumer = CallerId(2);
        let mut next = 0i64;
        let mut sent: Vec<i64> = vec![];
        let mut received: Vec<i64> = vec![];
        for &who in &schedule {
            match who {
                0 => {
                    if unit
                        .call(producer, "put", &[Value::Int(next)], &mut wires)
                        .unwrap()
                        .done
                    {
                        sent.push(next);
                        next += 1;
                    }
                }
                1 => {
                    if let Some(Value::Int(v)) =
                        unit.call(consumer, "get", &[], &mut wires).unwrap().result
                    {
                        received.push(v);
                    }
                }
                _ => unit.step_controller(&mut wires).unwrap(),
            }
        }
        // Everything received was sent, in order, with no duplicates; at
        // most one message can still be in flight.
        prop_assert!(received.len() <= sent.len() + 1,
            "received {} vs sent {}", received.len(), sent.len());
        let n = received.len().min(sent.len());
        prop_assert_eq!(&received[..n], &sent[..n]);
        for (i, v) in received.iter().enumerate() {
            prop_assert_eq!(*v, i as i64, "stream must be dense and ordered");
        }
    }
}

// ---------------------------------------------------------------------
// Kernel determinism: the same design produces identical signal values
// regardless of when we slice the run into run_for chunks.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn kernel_run_slicing_is_transparent(
        chunks in proptest::collection::vec(1u64..40, 1..20),
    ) {
        use cosma::sim::{Simulator, FnProcess, Wait, Duration};
        fn build() -> (Simulator, cosma::sim::SignalId) {
            let mut sim = Simulator::new();
            let clk = sim.add_bit("CLK");
            sim.add_clock("gen", clk, Duration::from_ns(10));
            let q = sim.add_signal("Q", Type::INT16, Value::Int(0));
            sim.add_process(
                "ctr",
                FnProcess::new(move |ctx| {
                    if ctx.rose(clk) {
                        let v = ctx.read_int(q);
                        ctx.drive(q, Value::Int(v * 3 + 1));
                    }
                    Wait::Event(vec![clk])
                }),
            );
            (sim, q)
        }
        let total: u64 = chunks.iter().sum();
        let (mut a, qa) = build();
        a.run_for(Duration::from_ns(total)).unwrap();
        let (mut b, qb) = build();
        for c in &chunks {
            b.run_for(Duration::from_ns(*c)).unwrap();
        }
        prop_assert_eq!(a.value(qa), b.value(qb));
        prop_assert_eq!(a.now(), b.now());
    }
}

// ---------------------------------------------------------------------
// Kernel scheduling core: the production kernel (inverted sensitivity
// index + heap-based event queues) is observationally equivalent to the
// full-scan reference kernel on randomized clock/process mixes — same
// signal traces, same event counts, same delta counts.
// ---------------------------------------------------------------------

/// A randomized design: free-running clocks, edge counters, delta-cycle
/// inverter chains, timeout tickers, event-or-timeout waiters, clocked
/// (`Wait::Same`) processes and a batched comm link.
#[derive(Debug, Clone)]
struct KernelMix {
    /// Clock periods in ns (one clock signal each).
    clocks: Vec<u64>,
    /// Counters, each watching `clocks[i % clocks.len()]`.
    counters: Vec<usize>,
    /// An inverter chain of this depth rooted at clock 0 (delta cascades).
    chain: usize,
    /// `wait for` tickers with these periods in ns.
    tickers: Vec<u64>,
    /// `wait on .. for ..` waiters: (clock index, timeout ns).
    waiters: Vec<(usize, u64)>,
    /// Clocked processes registered through [`ClockedProcess`] — the
    /// `Wait::Same` steady-state path. Each entry picks a clock; parity
    /// picks the [`Edge`].
    clocked: Vec<usize>,
    /// Whether to thread a batched comm link (put/pump/get over kernel
    /// wire signals) through the design.
    batched: bool,
    /// Total run length in ns.
    run_ns: u64,
}

fn arb_kernel_mix() -> impl Strategy<Value = KernelMix> {
    (
        proptest::collection::vec(1u64..40, 1..4),
        proptest::collection::vec(0usize..8, 0..6),
        0usize..6,
        proptest::collection::vec(1u64..60, 0..4),
        proptest::collection::vec((0usize..8, 1u64..80), 0..4),
        proptest::collection::vec(0usize..8, 0..5),
        any::<bool>(),
        1u64..1200,
    )
        .prop_map(
            |(clocks, counters, chain, tickers, waiters, clocked, batched, run_ns)| KernelMix {
                clocks,
                counters,
                chain,
                tickers,
                waiters,
                clocked,
                batched,
                run_ns,
            },
        )
}

/// Bridges a [`cosma::comm::WireStore`] onto kernel signals through a
/// running process context (mirrors the backplane's adapter).
struct SigWires<'a, 'b> {
    ctx: &'a mut cosma::sim::ProcCtx<'b>,
    map: &'a [cosma::sim::SignalId],
}

impl cosma::comm::WireStore for SigWires<'_, '_> {
    fn read_wire(&self, w: cosma::core::ids::PortId) -> Option<&Value> {
        self.map.get(w.index()).map(|&sig| self.ctx.read(sig))
    }
    fn write_wire(
        &mut self,
        w: cosma::core::ids::PortId,
        v: Value,
    ) -> Result<(), cosma::core::EvalError> {
        self.ctx.drive(self.map[w.index()], v);
        Ok(())
    }
}

/// Builds the mix on any kernel through closures over the shared
/// `Process`/`ProcCtx`/`Wait` vocabulary. `add_sig`/`add_proc` abstract
/// the two kernels' registration calls; returns the observable signals.
fn build_mix(
    mix: &KernelMix,
    mut add_sig: impl FnMut(&str, Type, Value) -> cosma::sim::SignalId,
    mut add_clock: impl FnMut(cosma::sim::SignalId, cosma::sim::Duration),
    mut add_proc: impl FnMut(Box<dyn cosma::sim::Process>),
) -> Vec<cosma::sim::SignalId> {
    use cosma::sim::{Duration, FnProcess, Wait};
    let mut observed = vec![];
    let clk_sigs: Vec<_> = (0..mix.clocks.len())
        .map(|i| {
            add_sig(
                &format!("CLK{i}"),
                Type::Bit,
                Value::Bit(cosma::core::Bit::Zero),
            )
        })
        .collect();
    for (i, &p) in mix.clocks.iter().enumerate() {
        add_clock(clk_sigs[i], Duration::from_ns(p));
    }
    observed.extend(clk_sigs.iter().copied());
    for (j, &ci) in mix.counters.iter().enumerate() {
        let clk = clk_sigs[ci % clk_sigs.len()];
        let q = add_sig(&format!("Q{j}"), Type::INT16, Value::Int(0));
        observed.push(q);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                if ctx.rose(clk) {
                    let v = ctx.read_int(q);
                    ctx.drive(q, Value::Int(v + 1));
                }
                Wait::Event(vec![clk])
            },
        )));
    }
    let mut prev = clk_sigs[0];
    for k in 0..mix.chain {
        let out = add_sig(
            &format!("INV{k}"),
            Type::Bit,
            Value::Bit(cosma::core::Bit::Zero),
        );
        observed.push(out);
        let src = prev;
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_bit(src);
                ctx.drive(out, Value::Bit(!v));
                Wait::Event(vec![src])
            },
        )));
        prev = out;
    }
    for (k, &p) in mix.tickers.iter().enumerate() {
        let t = add_sig(&format!("T{k}"), Type::INT16, Value::Int(0));
        observed.push(t);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_int(t);
                ctx.drive(t, Value::Int(v + 1));
                Wait::Timeout(Duration::from_ns(p))
            },
        )));
    }
    for (m, &(ci, tmo)) in mix.waiters.iter().enumerate() {
        let clk = clk_sigs[ci % clk_sigs.len()];
        let w = add_sig(&format!("W{m}"), Type::INT16, Value::Int(0));
        observed.push(w);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_int(w);
                ctx.drive(w, Value::Int(v + 1));
                Wait::EventOrTimeout(vec![clk], Duration::from_ns(tmo))
            },
        )));
    }
    // Clocked processes registered through the Wait::Same steady-state
    // path, on alternating rising/falling edges.
    for (j, &ci) in mix.clocked.iter().enumerate() {
        use cosma::sim::{ClockControl, ClockedProcess, Edge};
        let clk = clk_sigs[ci % clk_sigs.len()];
        let edge = if j % 2 == 0 {
            Edge::Rising
        } else {
            Edge::Falling
        };
        let q = add_sig(&format!("C{j}"), Type::INT16, Value::Int(0));
        observed.push(q);
        add_proc(Box::new(ClockedProcess::new(clk, edge, move |ctx| {
            let v = ctx.read_int(q);
            ctx.drive(q, Value::Int(v + 1));
            if v >= 500 {
                ClockControl::Halt
            } else {
                ClockControl::Continue
            }
        })));
    }
    // A batched comm link driven over kernel wire signals: a clocked
    // producer/pump/consumer in one deterministic process.
    if mix.batched {
        use cosma::comm::{BatchedLink, CallerId};
        use cosma::sim::{ClockControl, ClockedProcess, Edge};
        let link = BatchedLink::new("bus", Type::INT16, 4, 16);
        let wire_sigs: Vec<cosma::sim::SignalId> = link
            .spec()
            .wires()
            .iter()
            .map(|w| {
                add_sig(
                    &format!("bus.{}", w.name()),
                    w.ty().clone(),
                    w.init().clone(),
                )
            })
            .collect();
        observed.extend(wire_sigs.iter().copied());
        let sum = add_sig("bus.RECV_SUM", Type::INT16, Value::Int(0));
        observed.push(sum);
        let clk = clk_sigs[0];
        let mut link = link;
        let mut sent = 0i64;
        let mut acc = 0i64;
        add_proc(Box::new(ClockedProcess::new(
            clk,
            Edge::Rising,
            move |ctx| {
                let mut ws = SigWires {
                    ctx,
                    map: &wire_sigs,
                };
                if sent < 24
                    && link
                        .put(CallerId(1), Value::Int(sent), &mut ws)
                        .expect("put")
                        .done
                {
                    sent += 1;
                }
                link.pump(&mut ws, true).expect("pump");
                if let Some(v) = link.get(CallerId(2), &mut ws).expect("get").result {
                    acc = (acc + v.as_int().expect("int")) & 0x3FFF;
                    ctx.drive(sum, Value::Int(acc));
                }
                ClockControl::Continue
            },
        )));
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn kernel_equivalent_to_full_scan_reference(mix in arb_kernel_mix()) {
        use cosma::sim::reference::RefSimulator;
        use cosma::sim::{Duration, Simulator};

        let mut fast = Simulator::new();
        let fast_sigs;
        {
            let sim = std::cell::RefCell::new(&mut fast);
            fast_sigs = build_mix(
                &mix,
                |n, ty, v| sim.borrow_mut().add_signal(n, ty, v),
                |s, p| { sim.borrow_mut().add_clock("clk", s, p); },
                |p| { sim.borrow_mut().add_process("p", p); },
            );
        }
        let mut oracle = RefSimulator::new();
        let oracle_sigs;
        {
            let sim = std::cell::RefCell::new(&mut oracle);
            oracle_sigs = build_mix(
                &mix,
                |n, ty, v| sim.borrow_mut().add_signal(n, ty, v),
                |s, p| { sim.borrow_mut().add_clock(s, p); },
                |p| { sim.borrow_mut().add_process(p); },
            );
        }
        fast.run_for(Duration::from_ns(mix.run_ns)).unwrap();
        oracle.run_for(Duration::from_ns(mix.run_ns)).unwrap();

        // Identical signal traces: settled value, event count and last
        // event instant for every observable signal.
        prop_assert_eq!(fast_sigs.len(), oracle_sigs.len());
        for (&f, &o) in fast_sigs.iter().zip(&oracle_sigs) {
            let fi = fast.signal_info(f);
            let oi = oracle.signal_info(o);
            prop_assert_eq!(&fi.value, &oi.value, "value of {}", fi.name);
            prop_assert_eq!(fi.event_count, oi.event_count, "event count of {}", fi.name);
            prop_assert_eq!(fi.last_event, oi.last_event, "last event of {}", fi.name);
        }
        // Identical schedule shape: same activations, events, deltas and
        // instants, and the same final time.
        let fs = fast.stats();
        let os = oracle.stats();
        prop_assert_eq!(fs.process_runs, os.process_runs);
        prop_assert_eq!(fs.events, os.events);
        prop_assert_eq!(fs.deltas, os.deltas);
        prop_assert_eq!(fs.instants, os.instants);
        prop_assert_eq!(fast.now(), oracle.now());
    }
}

// ---------------------------------------------------------------------
// Kernel-owned gated clocks: `Simulator::add_gated_clock` is held, edge
// for edge, to the demand-gated generator process it replaced (kept
// here as the oracle), while processes whose ids lie below and above
// the clock's raise and lower its demand and toggle its kick, in the
// edge's own delta and between edges.
// ---------------------------------------------------------------------

/// One step of a gate actor: wait `wait_ns` (or, when `on_clock`, until
/// a clock event if one comes first), then add `demand` to the clock's
/// demand counter and, when `kick`, toggle the kick signal.
#[derive(Debug, Clone, Copy)]
struct GateStep {
    wait_ns: u64,
    on_clock: bool,
    demand: i64,
    kick: bool,
}

/// A gated clock, one actor registered before it and one after, and a
/// rising-edge counter, run in chunks.
#[derive(Debug, Clone)]
struct GateMix {
    half_ns: u64,
    low: Vec<GateStep>,
    high: Vec<GateStep>,
    /// Run chunk lengths in ns.
    chunks: Vec<u64>,
}

fn arb_gate_mix() -> impl Strategy<Value = GateMix> {
    let step = || {
        (1u64..8, any::<bool>(), -1i64..2, any::<bool>()).prop_map(
            |(wait_ns, on_clock, demand, kick)| GateStep {
                wait_ns,
                on_clock,
                demand,
                kick,
            },
        )
    };
    (
        1u64..6,
        proptest::collection::vec(step(), 1..30),
        proptest::collection::vec(step(), 0..30),
        proptest::collection::vec(1u64..12, 1..40),
    )
        .prop_map(|(half_ns, low, high, chunks)| GateMix {
            half_ns,
            low,
            high,
            chunks,
        })
}

/// The demand-gated clock generator process that the kernel's gated
/// clocks replaced: while the demand reads ≤ 0 it waits for a kick
/// event, otherwise it toggles the clock and waits out half a period.
fn gated_generator(
    clk: cosma::sim::SignalId,
    period: cosma::sim::Duration,
    demand: std::rc::Rc<std::cell::Cell<i64>>,
    kick: cosma::sim::SignalId,
) -> impl cosma::sim::Process {
    use cosma::core::Bit;
    use cosma::sim::{FnProcess, Wait};
    let half = period.halved();
    FnProcess::new(move |ctx: &mut cosma::sim::ProcCtx<'_>| {
        if demand.get() <= 0 {
            let mut sens = ctx.wait_buf();
            sens.push(kick);
            return Wait::Event(sens);
        }
        let next = match ctx.read(clk) {
            Value::Bit(Bit::One) => Bit::Zero,
            _ => Bit::One,
        };
        ctx.drive(clk, Value::Bit(next));
        Wait::Timeout(half)
    })
}

/// A gate actor: its step count lives in signal `at` (so a kernel
/// snapshot carries it), and each wake performs the previous step's
/// action and waits as the next step says.
fn gate_actor(
    steps: Vec<GateStep>,
    at: cosma::sim::SignalId,
    clk: cosma::sim::SignalId,
    kick: cosma::sim::SignalId,
    demand: std::rc::Rc<std::cell::Cell<i64>>,
) -> impl cosma::sim::Process {
    use cosma::sim::{Duration, FnProcess, Wait};
    FnProcess::new(move |ctx: &mut cosma::sim::ProcCtx<'_>| {
        let k = ctx.read_int(at) as usize;
        if let Some(done) = k.checked_sub(1).map(|i| steps[i]) {
            demand.set(demand.get() + done.demand);
            if done.kick {
                let v = ctx.read_bit(kick);
                ctx.drive(kick, Value::Bit(!v));
            }
        }
        ctx.drive(at, Value::Int(k as i64 + 1));
        match steps.get(k) {
            Some(s) if s.on_clock => Wait::EventOrTimeout(vec![clk], Duration::from_ns(s.wait_ns)),
            Some(s) => Wait::Timeout(Duration::from_ns(s.wait_ns)),
            None => Wait::Forever,
        }
    })
}

/// A built gate mix: the kernel, its demand counter, the observable
/// signals, every process id and the clock's.
struct GateSim {
    sim: cosma::sim::Simulator,
    demand: std::rc::Rc<std::cell::Cell<i64>>,
    sigs: Vec<cosma::sim::SignalId>,
    procs: Vec<cosma::sim::ProcessId>,
    clock: cosma::sim::ProcessId,
}

/// Builds `mix` with the kernel's gated clock, or with the generator
/// process in the clock's slot when `kernel_clock` is false.
fn build_gate_mix(mix: &GateMix, kernel_clock: bool) -> GateSim {
    use cosma::sim::{ClockControl, Duration, Edge, Simulator};
    use std::cell::Cell;
    use std::rc::Rc;
    let mut sim = Simulator::new();
    let clk = sim.add_bit("CLK");
    let kick = sim.add_bit("KICK");
    let low_at = sim.add_signal("LOW.STEP", Type::INT16, Value::Int(0));
    let high_at = sim.add_signal("HIGH.STEP", Type::INT16, Value::Int(0));
    let q = sim.add_signal("Q", Type::INT16, Value::Int(0));
    let demand = Rc::new(Cell::new(0));
    let low = sim.add_process(
        "low",
        gate_actor(mix.low.clone(), low_at, clk, kick, Rc::clone(&demand)),
    );
    let period = Duration::from_ns(2 * mix.half_ns);
    let clock = if kernel_clock {
        sim.add_gated_clock("gen", clk, period, Rc::clone(&demand), kick)
    } else {
        sim.add_process(
            "gen",
            gated_generator(clk, period, Rc::clone(&demand), kick),
        )
    };
    let high = sim.add_process(
        "high",
        gate_actor(mix.high.clone(), high_at, clk, kick, Rc::clone(&demand)),
    );
    let count = sim.add_clocked("count", clk, Edge::Rising, move |ctx| {
        let v = ctx.read_int(q);
        ctx.drive(q, Value::Int((v + 1) & 0x3FFF));
        ClockControl::Continue
    });
    GateSim {
        sim,
        demand,
        sigs: vec![clk, kick, low_at, high_at, q],
        procs: vec![low, clock, high, count],
        clock,
    }
}

/// Requires two gate mixes to agree on everything the kernel shows but
/// its wheel filing counters: signals, run counts, statistics, pending
/// activity, armed timeouts and clock edges, time and demand. With
/// `restored`, `b` continues from a snapshot, whose restore rebuilds
/// the sensitivity index without the stale entries the uninterrupted
/// run still traverses, so the index telemetry (`scans_avoided`,
/// `stale_watchers_purged`) is left out too.
fn assert_same_gate_state(a: &GateSim, b: &GateSim, restored: bool) -> Result<(), TestCaseError> {
    for &s in &a.sigs {
        let (x, y) = (a.sim.signal_info(s), b.sim.signal_info(s));
        prop_assert_eq!(&x.value, &y.value, "value of {}", x.name);
        prop_assert_eq!(x.event_count, y.event_count, "events of {}", x.name);
        prop_assert_eq!(x.last_event, y.last_event, "last event of {}", x.name);
    }
    for &p in &a.procs {
        prop_assert_eq!(
            a.sim.process_runs(p),
            b.sim.process_runs(p),
            "runs of {}",
            p
        );
    }
    let unfiled = |mut st: cosma::sim::SimStats| {
        st.wheel_cascades = 0;
        st.wheel_slot_peak = 0;
        st.overflow_parked = 0;
        if restored {
            st.scans_avoided = 0;
            st.stale_watchers_purged = 0;
        }
        st
    };
    prop_assert_eq!(unfiled(a.sim.stats()), unfiled(b.sim.stats()));
    prop_assert_eq!(a.sim.pending_activity(), b.sim.pending_activity());
    let (sa, sb) = (a.sim.save_state(), b.sim.save_state());
    prop_assert_eq!(sa.timers(), sb.timers());
    prop_assert_eq!(a.sim.now(), b.sim.now());
    prop_assert_eq!(a.demand.get(), b.demand.get());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn gated_kernel_clock_matches_generator_process(mix in arb_gate_mix()) {
        use cosma::sim::{Duration, SimTime};

        let mut kern = build_gate_mix(&mix, true);
        let mut oracle = build_gate_mix(&mix, false);
        kern.sim.record_vcd();
        oracle.sim.record_vcd();
        kern.sim.run_until(SimTime::ZERO).unwrap();
        oracle.sim.run_until(SimTime::ZERO).unwrap();
        assert_same_gate_state(&kern, &oracle, false)?;
        // Snapshots of the kernel clock while it idles (preferably
        // after it has edged) and while an edge is armed mid-period,
        // each with the demand it was taken under.
        let clk = kern.sigs[0];
        let mut idle = None;
        let mut mid = None;
        let mut idle_edged = false;
        for &c in &mix.chunks {
            kern.sim.run_for(Duration::from_ns(c)).unwrap();
            oracle.sim.run_for(Duration::from_ns(c)).unwrap();
            assert_same_gate_state(&kern, &oracle, false)?;
            let state = kern.sim.save_state();
            let armed = state.timers().iter().any(|t| t.2 == kern.clock);
            let edged = kern.sim.signal_info(clk).event_count > 0;
            if armed {
                if mid.is_none() {
                    prop_assert!(state.timers().iter().all(|t| t.0 > kern.sim.now()));
                    mid = Some((state, kern.demand.get()));
                }
            } else if idle.is_none() || (edged && !idle_edged) {
                idle_edged = edged;
                idle = Some((state, kern.demand.get()));
            }
        }
        // Identical event histories, change by change.
        prop_assert_eq!(kern.sim.take_vcd(), oracle.sim.take_vcd());
        // A fresh twin restored from either snapshot continues to the
        // uninterrupted run's state.
        let end = kern.sim.now();
        for (state, demand) in [idle, mid].into_iter().flatten() {
            let mut twin = build_gate_mix(&mix, true);
            twin.sim.load_state(&state).unwrap();
            twin.demand.set(demand);
            let restored = twin.sim.save_state();
            prop_assert_eq!(restored.timers(), state.timers());
            twin.sim.run_until(end).unwrap();
            assert_same_gate_state(&kern, &twin, true)?;
        }
    }
}

// ---------------------------------------------------------------------
// Backplane scheduling: the production scheduler (one driver stepping
// units and modules in creation order) is observationally equivalent to
// the per-unit/per-module oracle: same module states, SUMs, traces AND
// activation counts, on randomized topologies and park flags over
// every link flavour.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn backplane_schedulings_equivalent(
        units in 2usize..7,
        topo_sel in 0u8..5,
        link_sel in 0u8..3,
        values in 1usize..4,
        seed in any::<u64>(),
        park in any::<bool>(),
        trace in any::<bool>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{build_scenario, LinkKind, ScenarioSpec, Topology};
        use cosma::cosim::{Dispatch, SchedulingConfig};
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            3 => Topology::Starved,
            _ => Topology::RandomDag { seed },
        };
        // All three link flavours face both schedulers: the classic
        // handshake, the batched fast path, and cycle-accurate payload
        // beats.
        let link = match link_sel {
            0 => LinkKind::Handshake,
            1 => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::LengthOnly,
            },
            _ => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::PayloadBeats,
            },
        };
        // With tracing on, every module records an entry per
        // activation, so same-instant entries pin the order in which
        // the driver steps modules.
        let mk = |scheduling| ScenarioSpec {
            units,
            topology,
            link,
            values_per_link: values,
            scheduling,
            trace,
            ..ScenarioSpec::default()
        };
        let run = |name: &str, scheduling| -> Result<_, TestCaseError> {
            let mut s = build_scenario(&mk(scheduling))
                .unwrap_or_else(|e| panic!("{name} builds: {e}"));
            s.cosim
                .run_for(Duration::from_us(300))
                .unwrap_or_else(|e| panic!("{name} runs: {e}"));
            Ok(s)
        };
        // The oracle: one process per unit and per module — the
        // semantics the production scheduler must match.
        let baseline = run("per_unit", SchedulingConfig {
            park_blocked: park,
            ..SchedulingConfig::legacy()
        })?;
        let s = run("sharded", SchedulingConfig {
            dispatch: Dispatch::Driver,
            park_blocked: park,
        })?;
        for (&a, &b) in s.modules.iter().zip(&baseline.modules) {
            prop_assert_eq!(
                s.cosim.module_status(a),
                baseline.cosim.module_status(b),
                "sharded vs per_unit: module status diverged under {:?}", topology
            );
        }
        let s_trace = s.cosim.trace_log();
        let baseline_trace = baseline.cosim.trace_log();
        prop_assert_eq!(
            s_trace.entries(),
            baseline_trace.entries(),
            "sharded vs per_unit: traces diverged under {:?}/{:?}", topology, link
        );
        // Both must have completed all traffic in budget.
        prop_assert!(s.is_complete(), "sharded incomplete under {:?}", topology);
        s.verify().map_err(TestCaseError::fail)?;
        // With parking on, a Starved run must actually have parked its
        // blocked consumers; traced ones never park, and the driver
        // must echo their trace records instead.
        if park && matches!(topology, Topology::Starved) {
            let stats = s.cosim.shard_stats();
            if trace {
                prop_assert!(
                    stats.modules_echoed > 0,
                    "starved traced consumers echoed: {:?}", stats
                );
            } else {
                prop_assert!(
                    stats.members_parked as usize >= units - 1,
                    "starved consumers parked: {:?}", stats
                );
            }
        }
        baseline.verify().map_err(TestCaseError::fail)?;
    }
}

// ---------------------------------------------------------------------
// Bus timing: cycle-accurate payload beats are a pure *timing* model —
// delivered values, final module states and checksums are bit-identical
// to the length-only fast path on randomized topologies, while the
// PayloadBeats run's bus occupancy (UnitStats::payload_beats) scales
// linearly with batch length (exactly one beat per value).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn payload_beats_preserves_delivered_semantics(
        units in 2usize..7,
        topo_sel in 0u8..4,
        values in 1usize..4,
        max_batch in 2usize..6,
        seed in any::<u64>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{build_scenario, LinkKind, ScenarioSpec, Topology};
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            _ => Topology::RandomDag { seed },
        };
        let run = |timing| {
            let mut s = build_scenario(&ScenarioSpec {
                units,
                topology,
                link: LinkKind::Batched { max_batch, capacity: 16, timing },
                values_per_link: values,
                ..ScenarioSpec::default()
            })
            .expect("scenario builds");
            let done = s
                .run_to_completion(Duration::from_us(2_000))
                .expect("scenario runs");
            prop_assert!(done, "{timing:?} completes under {topology:?}");
            Ok(s)
        };
        let fast = run(BusTiming::LengthOnly)?;
        let beats = run(BusTiming::PayloadBeats)?;
        // Identical delivered semantics: final states, errors and
        // checksums (activation counts and trace *times* legitimately
        // differ — payload beats add bus cycles).
        for (&a, &b) in beats.modules.iter().zip(&fast.modules) {
            let sa = beats.cosim.module_status(a);
            let sb = fast.cosim.module_status(b);
            prop_assert_eq!(&sa.state, &sb.state, "state diverged under {:?}", topology);
            prop_assert_eq!(&sa.error, &sb.error);
        }
        fast.verify().map_err(TestCaseError::fail)?;
        beats.verify().map_err(TestCaseError::fail)?;
        let seq = |s: &cosma::cosim::scenario::Scenario| -> Vec<(String, String, Vec<cosma::core::Value>)> {
            s.cosim
                .trace_log()
                .entries()
                .iter()
                .map(|e| (e.source.clone(), e.label.clone(), e.values.clone()))
                .collect()
        };
        prop_assert_eq!(seq(&beats), seq(&fast), "trace sequences diverged");
        // Beat linearity: every batched link paid exactly one DATA beat
        // per value under PayloadBeats, and none under LengthOnly.
        for (i, _) in beats.links.iter().enumerate() {
            let name = format!("link{i}");
            let b = beats.cosim.unit_stats(&name).expect("stats");
            let f = fast.cosim.unit_stats(&name).expect("stats");
            prop_assert_eq!(
                b.payload_beats, b.batched_values,
                "link{} beats must equal values carried", i
            );
            prop_assert_eq!(f.payload_beats, 0, "length-only streams nothing");
            prop_assert_eq!(
                b.batched_values, f.batched_values,
                "same traffic volume either way"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Mid-burst checkpoints: under burst-scheduled payload beats every DATA
// beat of an in-flight batch is a pre-scheduled future drive in the
// kernel's drive heap, so an arbitrary cut usually lands *inside* a
// burst. Snapshotting there and restoring must replay the remaining
// beats — and everything after them — bit-identically.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn mid_burst_checkpoint_replays_bit_identically(
        units in 2usize..6,
        topo_sel in 0u8..4,
        values in 1usize..4,
        max_batch in 2usize..6,
        cut_ns in 2_000u64..120_000,
        seed in any::<u64>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{build_scenario, LinkKind, ScenarioSpec, Topology};
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            _ => Topology::RandomDag { seed },
        };
        let mut s = build_scenario(&ScenarioSpec {
            units,
            topology,
            link: LinkKind::Batched {
                max_batch,
                capacity: 16,
                timing: BusTiming::PayloadBeats,
            },
            values_per_link: values,
            ..ScenarioSpec::default()
        })
        .expect("scenario builds");
        // Run to an arbitrary cut point, then checkpoint. The cut is in
        // raw nanoseconds (not cycle-aligned) precisely so it can land
        // between the beats of a scheduled burst.
        s.cosim.run_for(Duration::from_ns(cut_ns)).expect("prefix runs");
        let snap = s.cosim.snapshot();
        s.cosim.run_for(Duration::from_us(400)).expect("tail runs");
        let want_trace = s.cosim.trace_log();
        let want_status: Vec<_> =
            s.modules.iter().map(|&m| s.cosim.module_status(m)).collect();
        // Restore twice: the second round proves restore itself leaves
        // no residue (a restored backplane is a valid checkpoint base).
        for round in 0..2 {
            s.cosim.restore(&snap).expect("restore");
            s.cosim.run_for(Duration::from_us(400)).expect("replay runs");
            prop_assert_eq!(
                s.cosim.trace_log(),
                want_trace.clone(),
                "round {}: replayed trace diverged under {:?}", round, topology
            );
            for (&m, want) in s.modules.iter().zip(&want_status) {
                prop_assert_eq!(
                    &s.cosim.module_status(m),
                    want,
                    "round {}: module status diverged under {:?}", round, topology
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots from a different backplane: restoring or forking one never
// panics. A refused snapshot leaves the target running exactly like an
// untouched twin; an accepted one runs on without panicking.
// ---------------------------------------------------------------------

/// `(units, topology, link flavour, values per link, legacy scheduler,
/// trace)` of a generated scenario.
type ScenarioSel = (usize, u8, u8, usize, bool, bool);

fn arb_scenario_sel() -> impl Strategy<Value = ScenarioSel> {
    (
        2usize..5,
        0u8..5,
        0u8..3,
        1usize..4,
        any::<bool>(),
        any::<bool>(),
    )
}

fn scenario_spec(sel: ScenarioSel, seed: u64) -> cosma::cosim::scenario::ScenarioSpec {
    use cosma::comm::BusTiming;
    use cosma::cosim::scenario::{LinkKind, ScenarioSpec, Topology};
    use cosma::cosim::SchedulingConfig;
    let (units, topo, link, values, legacy, trace) = sel;
    let batched = |timing| LinkKind::Batched {
        max_batch: 4,
        capacity: 16,
        timing,
    };
    ScenarioSpec {
        units,
        topology: match topo {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            3 => Topology::Starved,
            _ => Topology::RandomDag { seed },
        },
        link: match link {
            0 => LinkKind::Handshake,
            1 => batched(BusTiming::LengthOnly),
            _ => batched(BusTiming::PayloadBeats),
        },
        values_per_link: values,
        scheduling: if legacy {
            SchedulingConfig::legacy()
        } else {
            SchedulingConfig::sharded()
        },
        trace,
        ..ScenarioSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn foreign_snapshots_restore_or_refuse_cleanly(
        a_sel in arb_scenario_sel(),
        b_sel in arb_scenario_sel(),
        same_shape in any::<bool>(),
        seed in any::<u64>(),
        a_ns in 500u64..30_000,
        b_ns in 500u64..30_000,
    ) {
        use cosma::cosim::scenario::build_scenario;
        use cosma::sim::Duration;

        // Half the pairs share their structure (unit count, topology,
        // link family, scheduler, tracing) and differ in traffic, bus
        // timing and DAG shape, so the snapshot clears the kernel's
        // table check and reaches the unit and module checks.
        let b_sel = if same_shape {
            let link = if a_sel.2 == 0 { 0 } else { 1 + b_sel.2 % 2 };
            (a_sel.0, a_sel.1, link, b_sel.3, a_sel.4, a_sel.5)
        } else {
            b_sel
        };
        let a_spec = scenario_spec(a_sel, seed);
        let b_spec = scenario_spec(b_sel, seed.rotate_left(17));
        let mut a = build_scenario(&a_spec).expect("a builds");
        a.cosim.run_for(Duration::from_ns(a_ns)).expect("a runs");
        let snap = a.cosim.snapshot();

        let build_b = || {
            let mut s = build_scenario(&b_spec).expect("b builds");
            s.cosim.run_for(Duration::from_ns(b_ns)).expect("b runs");
            s
        };
        let (mut b, mut twin) = (build_b(), build_b());
        let forked = b.cosim.fork(&snap);
        let restored = b.cosim.restore(&snap);
        prop_assert_eq!(
            forked.is_ok(),
            restored.is_ok(),
            "fork and restore agree: {:?} vs {:?}", forked.err(), restored
        );
        let tail = Duration::from_us(20);
        if restored.is_ok() {
            // Accepted: the restored state must run without panicking
            // (an evaluation error is a fine answer to foreign state).
            let _ = b.cosim.run_for(tail);
            if let Ok(mut f) = forked {
                let _ = f.run_for(tail);
            }
            return Ok(());
        }
        b.cosim.run_for(tail).expect("refused target runs");
        twin.cosim.run_for(tail).expect("twin runs");
        prop_assert_eq!(b.cosim.sim().now(), twin.cosim.sim().now());
        prop_assert_eq!(b.cosim.shard_stats(), twin.cosim.shard_stats());
        prop_assert_eq!(b.cosim.trace_log(), twin.cosim.trace_log());
        for (&m, &t) in b.modules.iter().zip(&twin.modules) {
            prop_assert_eq!(b.cosim.module_status(m), twin.cosim.module_status(t));
        }
    }
}

// ---------------------------------------------------------------------
// Binary trace codec: encoding a live run's columnar trace log and
// decoding it back must reproduce the exact entry stream, whatever
// scheduler and link flavour produced it. The scenario modules emit an
// interned trace record per activation (`trace: true`), so the interner
// table, the varint-packed columns and the segment framing all carry
// real traffic.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn binary_trace_round_trips_across_schedulers(
        units in 2usize..6,
        topo_sel in 0u8..4,
        link_sel in 0u8..3,
        values in 1usize..4,
        legacy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{build_scenario, LinkKind, ScenarioSpec, Topology};
        use cosma::cosim::{tracebin, SchedulingConfig};
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            _ => Topology::RandomDag { seed },
        };
        let link = match link_sel {
            0 => LinkKind::Handshake,
            1 => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::LengthOnly,
            },
            _ => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::PayloadBeats,
            },
        };
        let scheduling = if legacy {
            SchedulingConfig::legacy()
        } else {
            SchedulingConfig::sharded()
        };
        let mut s = build_scenario(&ScenarioSpec {
            units,
            topology,
            link,
            values_per_link: values,
            scheduling,
            trace: true,
            ..ScenarioSpec::default()
        })
        .expect("scenario builds");
        s.cosim.run_for(Duration::from_us(120)).expect("runs");
        let log = s.cosim.trace_log();
        prop_assert!(
            !log.entries().is_empty(),
            "traced modules must have recorded entries"
        );
        let mut buf: Vec<u8> = vec![];
        tracebin::write_log(&log, &mut buf).expect("encode");
        let back = tracebin::read_log(buf.as_slice()).expect("decode");
        prop_assert_eq!(
            back.entries(),
            log.entries(),
            "decoded entry stream diverged under {:?}/{:?}", topology, link
        );
    }
}

// ---------------------------------------------------------------------
// Binary trace decoder robustness: `tracebin::read_log` reads outside
// input, so truncated and byte-flipped copies of valid `write_log`
// output must decode to `Ok` or a typed `Err` — never a panic, never an
// abort on an allocation sized by a corrupted length or count.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn tracebin_decoder_survives_corrupted_streams(
        entries in proptest::collection::vec(
            (
                0u64..1_000_000,
                0usize..4,
                0usize..3,
                proptest::collection::vec((0u8..4, any::<i64>()), 0..4),
            ),
            1..24,
        ),
        cut in any::<u64>(),
        flips in proptest::collection::vec((any::<u64>(), 1u8..255), 1..6),
        splat in (any::<u64>(), 1usize..10),
    ) {
        use cosma::core::{Bit, EnumType, EnumValue};
        use cosma::cosim::{tracebin, TraceLog};

        let sources = ["alpha", "beta", "gamma", "delta"];
        let labels = ["pulse", "mode", "x"];
        let ty = EnumType::new("state", vec!["idle".into(), "busy".into(), "done".into()]);
        let mut log = TraceLog::new();
        for (at, source, label, vals) in &entries {
            let values: Vec<Value> = vals
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => Value::Int(x),
                    1 => Value::Bit([Bit::Zero, Bit::One, Bit::X, Bit::Z][(x & 3) as usize]),
                    2 => Value::Bool(x & 1 == 1),
                    _ => Value::Enum(
                        EnumValue::from_index(ty.clone(), x.rem_euclid(3) as u32)
                            .expect("variant in range"),
                    ),
                })
                .collect();
            log.record(*at, sources[*source], labels[*label], values);
        }
        let mut bytes = vec![];
        tracebin::write_log(&log, &mut bytes).expect("encode");
        prop_assert_eq!(tracebin::read_log(&bytes[..]).expect("decode"), log);
        // Truncated anywhere, byte-flipped, and both at once: any
        // outcome but a panic or an abort is acceptable.
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        let _ = tracebin::read_log(&bytes[..cut]);
        let mut flipped = bytes.clone();
        for &(pos, mask) in &flips {
            let i = (pos % flipped.len() as u64) as usize;
            flipped[i] ^= mask;
        }
        let _ = tracebin::read_log(&flipped[..]);
        let _ = tracebin::read_log(&flipped[..cut]);
        // A run of 0xFF bytes turns whatever varint it lands in (a
        // length, id or count) into a huge one.
        let mut splatted = bytes;
        let start = (splat.0 % splatted.len() as u64) as usize;
        let end = (start + splat.1).min(splatted.len());
        splatted[start..end].fill(0xFF);
        let _ = tracebin::read_log(&splatted[..]);
    }
}

// ---------------------------------------------------------------------
// Timer wheel: the hierarchical wheel, the binary-heap oracle and the
// full-scan reference kernel are observationally equivalent on
// randomized schedules whose entries live across every wheel level —
// single delayed drives from nanoseconds to beyond the 141 ms horizon
// (overflow), burst trains whose strides walk entries over the
// 2^29/2^35/2^41 fs level boundaries, periodic tickers, and
// event-or-timeout waiters whose timers are cancelled by clock events
// (exercising O(1) wheel cancellation at every level).
// ---------------------------------------------------------------------

/// A randomized wheel-stressing design. Delay classes are chosen so the
/// wheel files entries at level 0 (< 537 ns), level 1 (< 34.4 us),
/// level 2 (< 2.2 ms), level 3 (< 141 ms) and the overflow list.
#[derive(Debug, Clone)]
struct WheelMix {
    /// Fast clock period in ns (events + canceller wakeups).
    clock_ns: u64,
    /// Looping burst trains: (start_ns, stride_ns, beats). A process
    /// re-issues its train whenever the previous one drains, so trains
    /// are in flight (and crossing level boundaries) for the whole run.
    trains: Vec<(u64, u64, usize)>,
    /// One-shot `drive_after` delays in ns, spanning all levels.
    drives: Vec<u64>,
    /// Event-or-timeout waiters: timeout in ns. Whenever the clock
    /// event arrives first the pending timer is cancelled.
    cancellers: Vec<u64>,
    /// Periodic `wait for` tickers in ns.
    tickers: Vec<u64>,
    /// Run length in ns.
    run_ns: u64,
}

/// A delay spanning the wheel's level structure: class picks the level,
/// `frac` the position inside it.
fn arb_level_delay() -> impl Strategy<Value = u64> {
    (0u8..5, 1u64..1000).prop_map(|(class, frac)| match class {
        0 => frac / 2 + 1,                 // level 0: 1..501 ns
        1 => 600 + frac * 33,              // level 1: 0.6..34 us
        2 => 40_000 + frac * 2_000,        // level 2: 40 us..2 ms
        3 => 3_000_000 + frac * 100_000,   // level 3: 3..103 ms
        _ => 150_000_000 + frac * 250_000, // overflow: > 141 ms horizon
    })
}

fn arb_wheel_mix() -> impl Strategy<Value = WheelMix> {
    (
        1_000u64..8_000,
        proptest::collection::vec((0u64..40_000, 100u64..30_000, 2usize..24), 0..4),
        proptest::collection::vec(arb_level_delay(), 1..8),
        proptest::collection::vec(arb_level_delay(), 0..4),
        proptest::collection::vec(2_000u64..60_000, 0..4),
        100_000u64..4_000_000,
    )
        .prop_map(
            |(clock_ns, trains, drives, cancellers, tickers, run_ns)| WheelMix {
                clock_ns,
                trains,
                drives,
                cancellers,
                tickers,
                run_ns,
            },
        )
}

/// Builds the wheel mix through the shared registration closures
/// (same trick as [`build_mix`]); returns the observable signals.
fn build_wheel_mix(
    mix: &WheelMix,
    mut add_sig: impl FnMut(&str, Type, Value) -> cosma::sim::SignalId,
    mut add_clock: impl FnMut(cosma::sim::SignalId, cosma::sim::Duration),
    mut add_proc: impl FnMut(Box<dyn cosma::sim::Process>),
) -> Vec<cosma::sim::SignalId> {
    use cosma::core::Bit;
    use cosma::sim::{Duration, FnProcess, Wait};
    let mut observed = vec![];
    let clk = add_sig("CLK", Type::Bit, Value::Bit(Bit::Zero));
    add_clock(clk, Duration::from_ns(mix.clock_ns));
    observed.push(clk);
    // Looping burst trains: one signal each, re-armed on drain.
    for (j, &(start, stride, beats)) in mix.trains.iter().enumerate() {
        let sig = add_sig(&format!("TR{j}"), Type::Bit, Value::Bit(Bit::Zero));
        observed.push(sig);
        let start = Duration::from_ns(start);
        let stride = Duration::from_ns(stride);
        let values: Vec<Value> = (0..beats)
            .map(|k| Value::Bit(if k % 2 == 0 { Bit::One } else { Bit::Zero }))
            .collect();
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                ctx.drive_train(sig, start + stride, stride, &values);
                Wait::Timeout(start + stride.times(values.len() as u64 + 1))
            },
        )));
    }
    // One-shot far drives: a single process scatters them at t=0 and
    // then sleeps forever. Distinct values so last-writer order shows.
    {
        let far = add_sig("FAR", Type::INT16, Value::Int(0));
        observed.push(far);
        let delays = mix.drives.clone();
        let mut fired = false;
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                if !fired {
                    fired = true;
                    for (i, &d) in delays.iter().enumerate() {
                        ctx.drive_after(far, Value::Int(i as i64 + 1), Duration::from_ns(d));
                    }
                }
                Wait::Forever
            },
        )));
    }
    // Cancellers: the clock edge usually lands before the timeout, so
    // every wakeup cancels a pending timer parked at a random level.
    for (m, &tmo) in mix.cancellers.iter().enumerate() {
        let c = add_sig(&format!("CAN{m}"), Type::INT16, Value::Int(0));
        observed.push(c);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_int(c);
                ctx.drive(c, Value::Int((v + 1) & 0x3FFF));
                Wait::EventOrTimeout(vec![clk], Duration::from_ns(tmo))
            },
        )));
    }
    for (k, &p) in mix.tickers.iter().enumerate() {
        let t = add_sig(&format!("TK{k}"), Type::INT16, Value::Int(0));
        observed.push(t);
        add_proc(Box::new(FnProcess::new(
            move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                let v = ctx.read_int(t);
                ctx.drive(t, Value::Int((v + 1) & 0x3FFF));
                Wait::Timeout(Duration::from_ns(p))
            },
        )));
    }
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn wheel_matches_heap_and_reference_across_levels(mix in arb_wheel_mix()) {
        use cosma::sim::reference::RefSimulator;
        use cosma::sim::{Duration, Simulator};

        let build_fast = |heap: bool| {
            let mut sim = Simulator::new();
            if heap {
                sim.use_heap_queues();
            }
            let sigs;
            {
                let cell = std::cell::RefCell::new(&mut sim);
                sigs = build_wheel_mix(
                    &mix,
                    |n, ty, v| cell.borrow_mut().add_signal(n, ty, v),
                    |s, p| { cell.borrow_mut().add_clock("clk", s, p); },
                    |p| { cell.borrow_mut().add_process("p", p); },
                );
            }
            (sim, sigs)
        };
        let (mut wheel, wheel_sigs) = build_fast(false);
        let (mut heap, heap_sigs) = build_fast(true);
        let mut oracle = RefSimulator::new();
        let oracle_sigs;
        {
            let cell = std::cell::RefCell::new(&mut oracle);
            oracle_sigs = build_wheel_mix(
                &mix,
                |n, ty, v| cell.borrow_mut().add_signal(n, ty, v),
                |s, p| { cell.borrow_mut().add_clock(s, p); },
                |p| { cell.borrow_mut().add_process(p); },
            );
        }
        wheel.run_for(Duration::from_ns(mix.run_ns)).unwrap();
        heap.run_for(Duration::from_ns(mix.run_ns)).unwrap();
        oracle.run_for(Duration::from_ns(mix.run_ns)).unwrap();

        for (&w, (&h, &o)) in wheel_sigs.iter().zip(heap_sigs.iter().zip(&oracle_sigs)) {
            let wi = wheel.signal_info(w);
            let hi = heap.signal_info(h);
            let oi = oracle.signal_info(o);
            prop_assert_eq!(&wi.value, &hi.value, "wheel vs heap: value of {}", wi.name);
            prop_assert_eq!(&wi.value, &oi.value, "wheel vs ref: value of {}", wi.name);
            prop_assert_eq!(wi.event_count, hi.event_count, "wheel vs heap: events of {}", wi.name);
            prop_assert_eq!(wi.event_count, oi.event_count, "wheel vs ref: events of {}", wi.name);
            prop_assert_eq!(wi.last_event, hi.last_event, "wheel vs heap: last event of {}", wi.name);
            prop_assert_eq!(wi.last_event, oi.last_event, "wheel vs ref: last event of {}", wi.name);
        }
        // Identical schedule shape across all three queue disciplines.
        let ws = wheel.stats();
        let hs = heap.stats();
        let os = oracle.stats();
        for (name, w, h, o) in [
            ("process_runs", ws.process_runs, hs.process_runs, os.process_runs),
            ("events", ws.events, hs.events, os.events),
            ("deltas", ws.deltas, hs.deltas, os.deltas),
            ("instants", ws.instants, hs.instants, os.instants),
        ] {
            prop_assert_eq!(w, h, "wheel vs heap: {}", name);
            prop_assert_eq!(w, o, "wheel vs ref: {}", name);
        }
        // Wakeup accounting is backend-independent (cancellation
        // bookkeeping differs: the wheel removes eagerly, the heap
        // skips stale entries lazily — but who woke and why must not).
        prop_assert_eq!(ws.timer_wakeups, hs.timer_wakeups);
        prop_assert_eq!(ws.event_wakeups, hs.event_wakeups);
        prop_assert_eq!(wheel.now(), heap.now());
        prop_assert_eq!(wheel.now(), oracle.now());
    }
}

// ---------------------------------------------------------------------
// Wheel snapshots: `save_state` canonicalizes the wheel into the
// `(at, seq)` contract, so a snapshot taken with live entries in EVERY
// wheel level (and the overflow list), cut in raw nanoseconds so it
// lands mid-train between scheduled beats, must restore into a fresh
// simulator — and rewind the original — bit-identically: same signal
// traces, same final time, same stats to the counter.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn wheel_state_round_trips_with_live_levels_and_mid_train_cuts(
        cut_ns in 60_000u64..1_200_000,
        stride_ns in 150u64..2_500,
        beats in 8usize..48,
        clock_ns in 400u64..3_000,
    ) {
        use cosma::core::Bit;
        use cosma::sim::{Duration, FnProcess, Simulator, Wait};

        // Every level stays populated: a re-seeding process refreshes
        // far drives at level-spanning delays every 50 us, a looping
        // train keeps beats in flight (the raw-ns cut lands between
        // them), and the clock cancels an EventOrTimeout timer parked
        // out at level 2 on every edge.
        let build = |heap: bool| {
            let mut sim = Simulator::new();
            if heap {
                sim.use_heap_queues();
            }
            let clk = sim.add_bit("CLK");
            sim.add_clock("gen", clk, Duration::from_ns(clock_ns));
            let tr = sim.add_bit("TR");
            let stride = Duration::from_ns(stride_ns);
            let values: Vec<Value> = (0..beats)
                .map(|k| Value::Bit(if k % 2 == 0 { Bit::One } else { Bit::Zero }))
                .collect();
            sim.add_process(
                "train",
                FnProcess::new(move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                    ctx.drive_train(tr, stride, stride, &values);
                    Wait::Timeout(stride.times(values.len() as u64 + 1))
                }),
            );
            let far = sim.add_signal("FAR", Type::INT16, Value::Int(0));
            sim.add_process(
                "seeder",
                FnProcess::new(move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                    // Stateless on purpose: `save_state` does not own
                    // closure state, so the round derives from sim time
                    // and survives restore/rewind bit-identically.
                    let round = (ctx.now().as_ns() / 50_000) as i64 + 1;
                    // Level 0 / 1 / 2 / 3 / overflow respectively.
                    for (i, d) in [200u64, 5_000, 600_000, 5_000_000, 250_000_000]
                        .into_iter()
                        .enumerate()
                    {
                        ctx.drive_after(
                            far,
                            Value::Int((round * 8 + i as i64) & 0x3FFF),
                            Duration::from_ns(d),
                        );
                    }
                    Wait::Timeout(Duration::from_us(50))
                }),
            );
            let can = sim.add_signal("CAN", Type::INT16, Value::Int(0));
            sim.add_process(
                "canceller",
                FnProcess::new(move |ctx: &mut cosma::sim::ProcCtx<'_>| {
                    let v = ctx.read_int(can);
                    ctx.drive(can, Value::Int((v + 1) & 0x3FFF));
                    Wait::EventOrTimeout(vec![clk], Duration::from_ms(1))
                }),
            );
            (sim, vec![clk, tr, far, can])
        };

        let tail = Duration::from_ns(1_500_000);
        let (mut a, a_sigs) = build(false);
        a.run_until(cosma::sim::SimTime::from_ns(cut_ns)).unwrap();
        let snap = a.save_state();
        a.run_for(tail).unwrap();
        let want: Vec<_> = a_sigs.iter().map(|&s| a.signal_info(s)).collect();
        let want_now = a.now();
        let want_stats = a.stats();
        // The construction really does exercise the whole structure.
        prop_assert!(want_stats.bulk_inserts > 0, "trains must bulk-insert");
        prop_assert!(want_stats.wheel_cascades > 0, "levels must cascade");
        prop_assert!(want_stats.overflow_parked > 0, "horizon must overflow");
        prop_assert!(want_stats.timers_cancelled > 0, "cancellation must hit the wheel");

        // Restore into a FRESH simulator (structural twin, never run).
        let (mut b, b_sigs) = build(false);
        b.load_state(&snap).unwrap();
        b.run_for(tail).unwrap();
        for (&bs, w) in b_sigs.iter().zip(&want) {
            let bi = b.signal_info(bs);
            prop_assert_eq!(&bi.value, &w.value, "restored value of {}", w.name);
            prop_assert_eq!(bi.event_count, w.event_count, "restored events of {}", w.name);
            prop_assert_eq!(bi.last_event, w.last_event, "restored last event of {}", w.name);
        }
        prop_assert_eq!(b.now(), want_now);
        // Stats continue verbatim — except the wheel's own filing
        // telemetry: `load_state` re-files pending entries relative to
        // the restore-time cursor, so an entry the original run filed
        // high and cascaded down may be filed directly low after a
        // restore (fewer cascades, different slot peaks). Everything
        // observable (wakeups, events, deltas, cancellations) must
        // still match to the counter.
        let scrub = |mut s: cosma::sim::SimStats| {
            s.wheel_cascades = 0;
            s.wheel_slot_peak = 0;
            s.overflow_parked = 0;
            s
        };
        prop_assert_eq!(
            scrub(b.stats()),
            scrub(want_stats),
            "restored stats must continue verbatim"
        );

        // Rewind the original: restoring over a further-run simulator
        // must leave no residue either.
        a.load_state(&snap).unwrap();
        a.run_for(tail).unwrap();
        for (&s, w) in a_sigs.iter().zip(&want) {
            let ai = a.signal_info(s);
            prop_assert_eq!(&ai.value, &w.value, "rewound value of {}", w.name);
            prop_assert_eq!(ai.event_count, w.event_count, "rewound events of {}", w.name);
        }
        prop_assert_eq!(a.now(), want_now);
        prop_assert_eq!(scrub(a.stats()), scrub(want_stats));

        // And the canonical snapshot is backend-portable: a HEAP twin
        // restored from the wheel's snapshot replays the same tail (the
        // `(at, seq)` pop-order contract, end to end).
        let (mut h, h_sigs) = build(true);
        h.load_state(&snap).unwrap();
        h.run_for(tail).unwrap();
        for (&s, w) in h_sigs.iter().zip(&want) {
            let hi = h.signal_info(s);
            prop_assert_eq!(&hi.value, &w.value, "heap-restored value of {}", w.name);
            prop_assert_eq!(hi.event_count, w.event_count, "heap-restored events of {}", w.name);
        }
        prop_assert_eq!(h.now(), want_now);
    }
}

// ---------------------------------------------------------------------
// Partitioned co-simulation: cutting a scenario across coupled
// backplane partitions stepped in quanta of the boundary latency is
// bit-identical — module statuses, SUMs, per-source trace streams — to
// the collapsed single-backplane oracle, across topologies, link kinds,
// clock-domain ratios, partition counts and boundary latencies.
// ---------------------------------------------------------------------

/// Runs `spec` partitioned and through the collapsed oracle, asserting
/// bit-identical observables. Returns the orchestrator stats so callers
/// can gate on the sync machinery.
fn assert_partitioned_matches_collapsed(
    spec: &cosma::cosim::scenario::ScenarioSpec,
    pspec: &cosma::cosim::scenario::PartitionsSpec,
    total: cosma::sim::Duration,
) -> cosma::cosim::OrchestratorStats {
    use cosma::cosim::scenario::{build_collapsed, build_partitioned};
    use cosma::cosim::TraceEntry;

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
    // Trace streams compared per source: cross-partition modules
    // interleave arbitrarily in a merged view, but each module's own
    // event stream (labels, payloads AND timestamps) must be
    // bit-identical to the oracle's.
    let want = mono.cosim.trace_log().entries();
    let got: Vec<TraceEntry> = part
        .parts
        .iter()
        .flat_map(|&p| part.orch.partition(p).trace_log().entries())
        .collect();
    let sources: std::collections::BTreeSet<&str> =
        want.iter().map(|e| e.source.as_str()).collect();
    for src in &sources {
        let by = |entries: &[TraceEntry]| -> Vec<TraceEntry> {
            entries
                .iter()
                .filter(|e| &e.source == src)
                .cloned()
                .collect()
        };
        assert_eq!(
            by(&got),
            by(&want),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn partitioned_matches_monolithic(
        units in 3usize..7,
        topo_sel in 0u8..4,
        link_sel in 0u8..3,
        ratio_sel in 0u8..4,
        parts in 2usize..4,
        values in 1usize..4,
        latency_ns in 50u64..1_001,
        seed in any::<u64>(),
    ) {
        use cosma::comm::BusTiming;
        use cosma::cosim::scenario::{
            DomainsSpec, LinkKind, PartitionsSpec, ScenarioSpec, Topology,
        };
        use cosma::sim::Duration;

        let topology = match topo_sel {
            0 => Topology::Pipeline,
            1 => Topology::Star,
            2 => Topology::Ring,
            _ => Topology::RandomDag { seed },
        };
        let link = match link_sel {
            0 => LinkKind::Handshake,
            1 => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::LengthOnly,
            },
            _ => LinkKind::Batched {
                max_batch: 4,
                capacity: 16,
                timing: BusTiming::PayloadBeats,
            },
        };
        // Clock-domain layouts: uniform, a distinct same-rate domain
        // (multi-domain machinery without rate skew), half rate and
        // quarter rate.
        let domains = match ratio_sel {
            0 => DomainsSpec::default(),
            1 => DomainsSpec { ratio: (1, 1), slow_links: 1 },
            2 => DomainsSpec { ratio: (2, 1), slow_links: 1 },
            _ => DomainsSpec { ratio: (4, 1), slow_links: 1 },
        };
        let spec = ScenarioSpec {
            units,
            topology,
            link,
            values_per_link: values,
            trace: true,
            domains,
            ..ScenarioSpec::default()
        };
        let pspec = PartitionsSpec {
            count: parts,
            latency: Duration::from_ns(latency_ns),
        };
        let stats = assert_partitioned_matches_collapsed(&spec, &pspec, Duration::from_us(600));
        prop_assert!(stats.quanta_committed > 0, "stats: {stats:?}");
    }
}

/// A cyclic cut — a ring split across two partitions, so each
/// partition consumes traffic the other produced from its own earlier
/// output — must be bit-identical to the collapsed oracle and carry
/// boundary traffic.
#[test]
fn partitioned_cyclic_cut_matches_oracle() {
    use cosma::comm::BusTiming;
    use cosma::cosim::scenario::{LinkKind, PartitionsSpec, ScenarioSpec, Topology};
    use cosma::sim::Duration;

    let spec = ScenarioSpec {
        units: 5,
        topology: Topology::Ring,
        link: LinkKind::Batched {
            max_batch: 4,
            capacity: 16,
            timing: BusTiming::LengthOnly,
        },
        values_per_link: 4,
        trace: true,
        ..ScenarioSpec::default()
    };
    let pspec = PartitionsSpec {
        count: 2,
        latency: Duration::from_ns(200),
    };
    let stats = assert_partitioned_matches_collapsed(&spec, &pspec, Duration::from_us(400));
    assert!(stats.boundary_messages > 0, "stats: {stats:?}");
}

/// Multi-rate pinning: with tracing on (traced modules never park, and
/// an echoed activation counts like a stepped one, so activations count
/// their domain's clock edges exactly), a module in a 1:4 slow domain
/// records exactly a quarter of the activations its uniform-clock twin
/// records over the same wall-clock run.
#[test]
fn multi_rate_slow_domain_quarters_activations() {
    use cosma::cosim::scenario::{build_scenario, DomainsSpec, ScenarioSpec};
    use cosma::sim::Duration;

    // Enough traffic that no module reaches END (and parks) inside the
    // window, and a window whose edge counts divide exactly: 4000 base
    // edges, 1000 quarter-rate edges.
    let total = Duration::from_ns(399_900);
    let base = ScenarioSpec {
        units: 4,
        values_per_link: 100_000,
        trace: true,
        ..ScenarioSpec::default()
    };
    let slow_spec = ScenarioSpec {
        domains: DomainsSpec {
            ratio: (4, 1),
            slow_links: 1,
        },
        ..base
    };
    let mut uniform = build_scenario(&base).expect("uniform scenario builds");
    uniform.cosim.run_for(total).expect("uniform run");
    let mut slow = build_scenario(&slow_spec).expect("multi-rate scenario builds");
    slow.cosim.run_for(total).expect("multi-rate run");

    // Link 0 and both modules touching it (producer 0, stage 1) land
    // in the quarter-rate domain; module 2 onward stay in the base
    // domain.
    let uni_acts = |j: usize| uniform.cosim.module_status(uniform.modules[j]).activations;
    let slow_acts = |j: usize| slow.cosim.module_status(slow.modules[j]).activations;
    assert_eq!(
        slow_acts(2),
        uni_acts(2),
        "base-domain stage keeps the uniform activation count"
    );
    assert_eq!(
        slow_acts(1) * 4,
        uni_acts(1),
        "quarter-rate module must record exactly 1/4 the activations \
         ({} vs {})",
        slow_acts(1),
        uni_acts(1)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn kernel_equivalence_survives_run_slicing(
        mix in arb_kernel_mix(),
        chunks in proptest::collection::vec(1u64..120, 1..8),
    ) {
        use cosma::sim::reference::RefSimulator;
        use cosma::sim::{Duration, Simulator};

        let mut fast = Simulator::new();
        let fast_sigs;
        {
            let sim = std::cell::RefCell::new(&mut fast);
            fast_sigs = build_mix(
                &mix,
                |n, ty, v| sim.borrow_mut().add_signal(n, ty, v),
                |s, p| { sim.borrow_mut().add_clock("clk", s, p); },
                |p| { sim.borrow_mut().add_process("p", p); },
            );
        }
        let mut oracle = RefSimulator::new();
        let oracle_sigs;
        {
            let sim = std::cell::RefCell::new(&mut oracle);
            oracle_sigs = build_mix(
                &mix,
                |n, ty, v| sim.borrow_mut().add_signal(n, ty, v),
                |s, p| { sim.borrow_mut().add_clock(s, p); },
                |p| { sim.borrow_mut().add_process(p); },
            );
        }
        // The production kernel runs in arbitrary slices, the oracle in
        // one shot over the same total span.
        for &c in &chunks {
            fast.run_for(Duration::from_ns(c)).unwrap();
        }
        let total: u64 = chunks.iter().sum();
        oracle.run_for(Duration::from_ns(total)).unwrap();
        for (&f, &o) in fast_sigs.iter().zip(&oracle_sigs) {
            let fi = fast.signal_info(f);
            let oi = oracle.signal_info(o);
            prop_assert_eq!(&fi.value, &oi.value, "value of {}", fi.name);
            prop_assert_eq!(fi.event_count, oi.event_count, "event count of {}", fi.name);
        }
        prop_assert_eq!(fast.now(), oracle.now());
    }
}

// ---------------------------------------------------------------------
// Source text from outside the process never panics, hangs or aborts
// the front-ends or the assembler: the module-doc examples of the C and
// VHDL front-ends and an MC16 program, each with a few characters
// replaced, inserted or deleted and possibly truncated, compile or fail
// with a typed error.
// ---------------------------------------------------------------------

/// The `cosma_frontend::c` module-doc example.
const C_DOC_SRC: &str = r#"
typedef enum { Start, PingCall, Done } ST;
ST NextState = Start;
int DEMO() {
    switch (NextState) {
        case Start:    { NextState = PingCall; } break;
        case PingCall: { if (ping()) { NextState = Done; } } break;
        case Done:     { } break;
        default:       { NextState = Start; }
    }
    return 1;
}
"#;

/// The `cosma_frontend::vhdl` module-doc example.
const VHDL_DOC_SRC: &str = r#"
entity COUNTER is
  port ( TICK : out integer );
end entity;
architecture rtl of COUNTER is
begin
  main : process
    variable N : integer := 0;
  begin
    N := N + 1;
    TICK <= N;
    wait for CYCLE;
  end process;
end architecture;
"#;

/// The `cosma-isa` crate-doc example program.
const ASM_SRC: &str = "
    EQU  PORT, 0x300
    LDI  r0, 0
    LDI  r1, 10
loop:
    ADD  r0, r1
    ADDI r1, -1
    CMPI r1, 0
    JNZ  loop
    HLT
";

/// Characters the mutator writes: the three languages' punctuation,
/// some letters and digits, and whitespace.
const MUTATION_CHARS: &[u8] = b"(){};:,.=<>+-*/!~&|^%'\"#x0aZ_ \n";

/// Applies character edits `(position, kind, character)` to `src`
/// (kind 0 replaces, 1 inserts, 2 deletes), then truncates it at `cut`
/// when one is given.
fn mutate_source(src: &str, edits: &[(u64, u8, usize)], cut: Option<u64>) -> String {
    let mut s = src.as_bytes().to_vec();
    for &(pos, kind, ch) in edits {
        let c = MUTATION_CHARS[ch];
        let i = (pos % (s.len() as u64 + 1)) as usize;
        match kind {
            0 if i < s.len() => s[i] = c,
            2 if i < s.len() => {
                s.remove(i);
            }
            _ => s.insert(i, c),
        }
    }
    if let Some(cut) = cut {
        s.truncate((cut % (s.len() as u64 + 1)) as usize);
    }
    String::from_utf8(s).expect("ASCII edits of ASCII sources stay UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn front_ends_survive_mutated_sources(
        edits in proptest::collection::vec(
            (any::<u64>(), 0u8..3, 0usize..MUTATION_CHARS.len()),
            1..5,
        ),
        cut in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        use cosma::cfront::{compile_module, ElabOptions, ServiceBinding};
        use cosma::isa::assemble;
        use cosma::vhdl::compile_entity;

        let c_opts = ElabOptions {
            bindings: vec![ServiceBinding::new("iface", "link", &["ping"])],
        };
        let vhdl_opts = cosma::vhdl::ElabOptions::default();
        let cut = truncate.then_some(cut);
        // The unmutated sources compile, so every failure below comes
        // from the edits.
        prop_assert!(compile_module(C_DOC_SRC, "DEMO", ModuleKind::Software, &c_opts).is_ok());
        prop_assert!(compile_entity(VHDL_DOC_SRC, "COUNTER", &vhdl_opts).is_ok());
        prop_assert!(assemble(ASM_SRC).is_ok());
        // Any outcome but a panic, a hang or an abort is acceptable.
        let c = mutate_source(C_DOC_SRC, &edits, cut);
        let _ = compile_module(&c, "DEMO", ModuleKind::Software, &c_opts);
        let vhdl = mutate_source(VHDL_DOC_SRC, &edits, cut);
        let _ = compile_entity(&vhdl, "COUNTER", &vhdl_opts);
        let _ = assemble(&mutate_source(ASM_SRC, &edits, cut));
    }
}

// ---------------------------------------------------------------------
// Purely random input: a soup of up to 60 tokens of each language — its
// keywords, punctuation, identifiers and integer literals, including
// ones no integer type holds — compiles or fails with a typed error.
// ---------------------------------------------------------------------

/// C-subset tokens: every keyword the parser knows, every punctuator
/// the lexer knows, identifiers of the crate-doc example and integer
/// literals at and past the `INT16`, `i32` and `i64` limits.
const C_TOKENS: &[&str] = &[
    "typedef",
    "enum",
    "int",
    "unsigned",
    "const",
    "static",
    "void",
    "if",
    "else",
    "switch",
    "case",
    "default",
    "break",
    "return",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "~",
    "&",
    "|",
    "^",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ":",
    ".",
    "?",
    "DEMO",
    "ST",
    "NextState",
    "Start",
    "Done",
    "ping",
    "x",
    "0",
    "1",
    "32767",
    "32768",
    "2147483648",
    "9223372036854775808",
    "99999999999999999999",
];

/// VHDL-subset tokens, in the same classes as [`C_TOKENS`].
const VHDL_TOKENS: &[&str] = &[
    "library",
    "use",
    "entity",
    "is",
    "port",
    "in",
    "out",
    "inout",
    "end",
    "architecture",
    "of",
    "begin",
    "type",
    "signal",
    "process",
    "variable",
    "wait",
    "for",
    "on",
    "null",
    "if",
    "then",
    "elsif",
    "else",
    "case",
    "when",
    "others",
    "and",
    "or",
    "xor",
    "not",
    "mod",
    "true",
    "false",
    "integer",
    "natural",
    "boolean",
    "std_logic",
    "bit",
    "<=",
    ">=",
    ":=",
    "/=",
    "=>",
    "=",
    "<",
    ">",
    "(",
    ")",
    ";",
    ":",
    ",",
    "+",
    "-",
    "*",
    "/",
    "'",
    ".",
    "'1'",
    "COUNTER",
    "TICK",
    "N",
    "CYCLE",
    "rtl",
    "main",
    "0",
    "1",
    "32767",
    "32768",
    "2147483648",
    "9223372036854775808",
    "99999999999999999999",
];

/// MC16 assembler tokens: every directive and mnemonic, registers in
/// and out of range, separators, line breaks, labels and literals past
/// the 16-bit word.
const ASM_TOKENS: &[&str] = &[
    "ORG",
    "EQU",
    "WORD",
    "NOP",
    "HLT",
    "HALT",
    "RET",
    "MOV",
    "LDI",
    "ADDI",
    "CMPI",
    "LD",
    "ST",
    "IN",
    "OUT",
    "ADD",
    "SUB",
    "AND",
    "OR",
    "XOR",
    "MUL",
    "DIV",
    "REM",
    "CMP",
    "SHL",
    "SAR",
    "NEG",
    "NOT",
    "PUSH",
    "POP",
    "JMP",
    "JZ",
    "JNZ",
    "JN",
    "JNN",
    "JC",
    "JNC",
    "CALL",
    "r0",
    "r7",
    "r8",
    "r99999999999999999999",
    ",",
    ":",
    "[",
    "]",
    "+",
    "-",
    ";",
    "//",
    "\n",
    "loop",
    "loop:",
    "PORT",
    "0",
    "-1",
    "0x300",
    "0xFFFF",
    "0x10000",
    "65536",
    "-32769",
    "99999999999999999999",
    "0x99999999999999999999",
];

/// Joins the tokens `picks` selects from `vocab` with spaces.
fn token_soup(vocab: &[&str], picks: &[usize]) -> String {
    let words: Vec<&str> = picks.iter().map(|&i| vocab[i % vocab.len()]).collect();
    words.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn front_ends_survive_token_soup(
        c in proptest::collection::vec(0usize..C_TOKENS.len(), 0..61),
        vhdl in proptest::collection::vec(0usize..VHDL_TOKENS.len(), 0..61),
        asm in proptest::collection::vec(0usize..ASM_TOKENS.len(), 0..61),
    ) {
        use cosma::cfront::{compile_module, ElabOptions, ServiceBinding};
        use cosma::isa::assemble;
        use cosma::vhdl::compile_entity;

        let c_opts = ElabOptions {
            bindings: vec![ServiceBinding::new("iface", "link", &["ping"])],
        };
        // Any outcome but a panic, a hang or an abort is acceptable.
        let _ = compile_module(&token_soup(C_TOKENS, &c), "DEMO", ModuleKind::Software, &c_opts);
        let vhdl_opts = cosma::vhdl::ElabOptions::default();
        let _ = compile_entity(&token_soup(VHDL_TOKENS, &vhdl), "COUNTER", &vhdl_opts);
        let _ = assemble(&token_soup(ASM_TOKENS, &asm));
    }
}
