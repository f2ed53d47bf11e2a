//! Integration: the multiprocessor target (the paper's closing remark —
//! "the target architecture may be a complex multiprocessor
//! architecture"), failure-injection checks, and the drive rule every
//! platform shares.

use cosma::board::{Board, BoardConfig, IpcError, IpcPlatform};
use cosma::comm::{handshake_unit, CallerId, StandaloneUnit};
use cosma::core::{
    EnumType, EnumValue, EvalError, Expr, Module, ModuleBuilder, ModuleKind, PortDir, ServiceCall,
    Stmt, Type, Value,
};
use cosma::cosim::{Cosim, CosimConfig};
use cosma::sim::Duration;
use cosma::synth::{compile_sw, controller_module, flatten_module, synthesize_hw, Encoding, IoMap};
use std::collections::HashMap;

fn producer(name: &str, binding_unit: &str, base: i64, n: i64) -> Module {
    let mut p = ModuleBuilder::new(name, ModuleKind::Software);
    let done = p.var("D", Type::Bool, Value::Bool(false));
    let i = p.var("I", Type::INT16, Value::Int(0));
    let b = p.binding(binding_unit, "hs");
    let put = p.state("PUT");
    let end = p.state("END");
    p.actions(
        put,
        vec![Stmt::Call(ServiceCall {
            binding: b,
            service: "put".into(),
            args: vec![Expr::int(base).add(Expr::var(i))],
            done: Some(done),
            result: None,
        })],
    );
    p.transition_with(
        put,
        Some(Expr::var(done).and(Expr::var(i).ge(Expr::int(n - 1)))),
        vec![],
        end,
    );
    p.transition_with(
        put,
        Some(Expr::var(done)),
        vec![Stmt::assign(i, Expr::var(i).add(Expr::int(1)))],
        put,
    );
    p.transition(end, None, end);
    p.initial(put);
    p.build().expect("well-formed")
}

fn consumer(name: &str, binding_unit: &str, n: i64) -> Module {
    let mut c = ModuleBuilder::new(name, ModuleKind::Hardware);
    let done = c.var("D", Type::Bool, Value::Bool(false));
    let got = c.var("GOT", Type::INT16, Value::Int(0));
    let sum = c.var("SUM", Type::INT16, Value::Int(0));
    let cnt = c.var("N", Type::INT16, Value::Int(0));
    let b = c.binding(binding_unit, "hs");
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
        Some(Expr::var(done).and(Expr::var(cnt).ge(Expr::int(n - 1)))),
        vec![Stmt::assign(sum, Expr::var(sum).add(Expr::var(got)))],
        end,
    );
    c.transition_with(
        get,
        Some(Expr::var(done)),
        vec![
            Stmt::assign(sum, Expr::var(sum).add(Expr::var(got))),
            Stmt::assign(cnt, Expr::var(cnt).add(Expr::int(1))),
        ],
        get,
    );
    c.transition(end, None, end);
    c.initial(get);
    c.build().expect("well-formed")
}

/// Two CPUs, each feeding its own hardware consumer through its own
/// handshake unit, all on one board — the multiprocessor architecture the
/// paper's conclusion mentions.
#[test]
fn dual_processor_board() {
    let hs = handshake_unit("hs", Type::INT16);
    let mut units_a = HashMap::new();
    units_a.insert("chan_a".to_string(), hs.clone());
    let mut units_b = HashMap::new();
    units_b.insert("chan_b".to_string(), hs.clone());

    let pa = flatten_module(&producer("prod_a", "chan_a", 100, 3), &units_a).expect("flattens");
    let pb = flatten_module(&producer("prod_b", "chan_b", 500, 4), &units_b).expect("flattens");
    // Distinct bus windows per CPU-side unit.
    let prog_a = compile_sw(&pa, &IoMap::for_module(0x300, &pa)).expect("compiles");
    let prog_b = compile_sw(&pb, &IoMap::for_module(0x340, &pb)).expect("compiles");

    let ca = flatten_module(&consumer("cons_a", "chan_a", 3), &units_a).expect("flattens");
    let cb = flatten_module(&consumer("cons_b", "chan_b", 4), &units_b).expect("flattens");
    let (nl_ca, _) = synthesize_hw(&ca, Encoding::Binary).expect("synthesizes");
    let (nl_cb, _) = synthesize_hw(&cb, Encoding::OneHot).expect("synthesizes");
    let (nl_ctrl_a, _) = synthesize_hw(
        &controller_module(&hs, "chan_a").expect("ctrl"),
        Encoding::Binary,
    )
    .expect("synthesizes");
    let (nl_ctrl_b, _) = synthesize_hw(
        &controller_module(&hs, "chan_b").expect("ctrl"),
        Encoding::Binary,
    )
    .expect("synthesizes");

    let mut board = Board::new(BoardConfig::default());
    board.add_cpu("cpu_a", &prog_a).unwrap();
    board.add_cpu("cpu_b", &prog_b).unwrap();
    for nl in [&nl_ca, &nl_cb, &nl_ctrl_a, &nl_ctrl_b] {
        board.place_netlist(nl).expect("widths agree");
    }
    board.run_for_ns(5_000_000).expect("runs");

    let sum_a = board
        .fabric()
        .reg_value("cons_a", "SUM")
        .map(|w| w as u16 as i16 as i64);
    let sum_b = board
        .fabric()
        .reg_value("cons_b", "SUM")
        .map(|w| w as u16 as i16 as i64);
    assert_eq!(sum_a, Some(100 + 101 + 102));
    assert_eq!(sum_b, Some(500 + 501 + 502 + 503));
    assert_eq!(
        board.fabric().conflicts,
        0,
        "independent channels never conflict"
    );
}

/// Failure injection: a bus-wait-state storm slows the software but the
/// protocols still deliver everything (speed-mismatch robustness at the
/// system level).
#[test]
fn wait_state_storm_does_not_break_protocols() {
    let hs = handshake_unit("hs", Type::INT16);
    let mut units = HashMap::new();
    units.insert("chan".to_string(), hs.clone());
    let p = flatten_module(&producer("prod", "chan", 10, 4), &units).expect("flattens");
    let prog = compile_sw(&p, &IoMap::for_module(0x300, &p)).expect("compiles");
    let c = flatten_module(&consumer("cons", "chan", 4), &units).expect("flattens");
    let (nl_c, _) = synthesize_hw(&c, Encoding::Binary).expect("synthesizes");
    let (nl_ctrl, _) = synthesize_hw(
        &controller_module(&hs, "chan").expect("ctrl"),
        Encoding::Binary,
    )
    .expect("synthesizes");

    // 60 wait cycles per transfer: every bus access costs ~4 us.
    let cfg = BoardConfig {
        bus_wait_cycles: 60,
        ..BoardConfig::default()
    };
    let mut board = Board::new(cfg);
    board.add_cpu("prod", &prog).unwrap();
    board.place_netlist(&nl_c).expect("widths agree");
    board.place_netlist(&nl_ctrl).expect("widths agree");
    board.run_for_ns(30_000_000).expect("runs");
    let sum = board
        .fabric()
        .reg_value("cons", "SUM")
        .map(|w| w as u16 as i16 as i64);
    assert_eq!(sum, Some(10 + 11 + 12 + 13));
}

/// Failure injection: unmapped bus accesses are counted, not fatal.
#[test]
fn unmapped_bus_access_is_observable() {
    // A program poking an address outside its map.
    let mut b = ModuleBuilder::new("stray", ModuleKind::Software);
    let p = b.port("KNOWN", cosma::core::PortDir::Out, Type::INT16);
    let s = b.state("S");
    let e = b.state("E");
    b.actions(s, vec![Stmt::drive(p, Expr::int(1))]);
    b.transition(s, None, e);
    b.transition(e, None, e);
    b.initial(s);
    let m = b.build().expect("well-formed");
    let mut io = IoMap::new(0x300);
    io.add("KNOWN");
    let mut prog = compile_sw(&m, &io).expect("compiles");
    // Append a stray OUT by hand-editing the assembly and reassembling.
    let patched = prog
        .asm
        .replace("OUT 0x0300, r0", "OUT 0x0300, r0\n        OUT 0x0999, r0");
    assert_ne!(patched, prog.asm, "patch applied");
    prog.image = cosma::isa::assemble(&patched).expect("assembles");
    let mut board = Board::new(BoardConfig::default());
    let cpu = board.add_cpu("stray", &prog).unwrap();
    board
        .run_for_ns(100_000)
        .expect("runs despite stray access");
    assert!(board.bus_stats(cpu).unmapped > 0);
    assert_eq!(
        board.bank().read_named("KNOWN"),
        Some(1),
        "mapped traffic unaffected"
    );
}

/// X-propagation in the kernel: an uninitialized (X) control signal makes
/// a guard unknown, and the co-simulation reports it as an error instead
/// of silently picking a branch.
#[test]
fn unknown_control_is_reported_not_guessed() {
    use cosma::cosim::{Cosim, CosimConfig, CosimError};
    use cosma::sim::Duration;
    let mut b = ModuleBuilder::new("xprop", ModuleKind::Hardware);
    let sel = b.port("SEL", cosma::core::PortDir::In, Type::Bit);
    let s = b.state("S");
    // Guard is the raw bit: truthiness of 'X' is undefined.
    b.transition(s, Some(Expr::port(sel)), s);
    b.initial(s);
    let m = b.build().expect("well-formed");
    let mut cosim = Cosim::new(CosimConfig::default());
    cosim.add_module(&m, &[]).expect("added");
    let sig = cosim.sim().find_signal("xprop.SEL").expect("signal exists");
    cosim.sim_mut().poke(sig, Value::Bit(cosma::core::Bit::X));
    let err = cosim.run_for(Duration::from_us(1)).unwrap_err();
    assert!(matches!(err, CosimError::Runtime(_)));
    assert!(err.to_string().contains("X/Z"), "{err}");
}

/// Whole-System co-synthesis: build a validated System once, synthesize
/// it in one call, install it on a board, and watch the unchanged
/// behaviour — the complete Figure 1 bottom path as a single API flow.
#[test]
fn system_level_synthesis_runs_on_the_board() {
    use cosma::core::SystemBuilder;
    use cosma::synth::synthesize_system;

    let mut sb = SystemBuilder::new("pc_demo");
    let pm = sb.module(producer("producer", "chan", 30, 3));
    let cm = sb.module(consumer("consumer", "chan", 3));
    let u = sb.unit("chan", handshake_unit("hs", Type::INT16));
    sb.bind(pm, "chan", u).expect("bind producer");
    sb.bind(cm, "chan", u).expect("bind consumer");
    let sys = sb.build().expect("system validates");

    let synth = synthesize_system(&sys, 0x300, Encoding::Binary).expect("synthesizes");
    assert_eq!(synth.programs.len(), 1);
    assert_eq!(synth.netlists.len(), 2, "consumer + controller");

    let mut board = Board::new(BoardConfig::default());
    let cpus = board.install_synthesis(&synth).unwrap();
    assert_eq!(cpus.len(), 1);
    board.run_for_ns(4_000_000).expect("runs");
    let sum = board
        .fabric()
        .reg_value("consumer", "SUM")
        .map(|w| w as u16 as i16 as i64);
    assert_eq!(sum, Some(30 + 31 + 32));

    // And the same System object co-simulates unchanged (coherence at the
    // System API level).
    use cosma::cosim::{Cosim, CosimConfig};
    use cosma::sim::Duration;
    let mut cosim = Cosim::new(CosimConfig::default());
    let ids = cosim.add_system(&sys).expect("assembles");
    cosim.run_for(Duration::from_us(60)).expect("runs");
    assert_eq!(
        cosim.module_var(ids[1], "SUM"),
        Some(Value::Int(30 + 31 + 32))
    );
}

/// A module that puts `put` into its `iface` link (when given), then
/// drives `out` onto its INT16 port `OUT`, reads the port back into `W`
/// and idles.
fn sender(put: Option<Value>, out: Value) -> Module {
    let mut b = ModuleBuilder::new("SENDER", ModuleKind::Software);
    let port = b.port("OUT", PortDir::Out, Type::INT16);
    let done = b.var("D", Type::Bool, Value::Bool(false));
    let w = b.var("W", Type::INT16, Value::Int(0));
    let iface = b.binding("iface", "hs");
    let put_state = b.state("PUT");
    let drive = b.state("DRIVE");
    let read = b.state("READ");
    let end = b.state("END");
    if let Some(v) = put {
        b.actions(
            put_state,
            vec![Stmt::Call(ServiceCall {
                binding: iface,
                service: "put".into(),
                args: vec![Expr::Const(v)],
                done: Some(done),
                result: None,
            })],
        );
        b.transition(put_state, Some(Expr::var(done)), drive);
        b.initial(put_state);
    } else {
        b.transition(put_state, None, drive);
        b.initial(drive);
    }
    b.actions(drive, vec![Stmt::drive(port, Expr::Const(out))]);
    b.transition(drive, None, read);
    b.actions(read, vec![Stmt::assign(w, Expr::port(port))]);
    b.transition(read, None, end);
    b.transition(end, None, end);
    b.build().expect("sender is well-formed")
}

/// What a platform made of a [`sender`]: the link's `DATA` wire and the
/// sender's `W`, or the refusal that halted it.
type Outcome = Result<(Value, Option<Value>), String>;

fn on_standalone(put: &Value) -> Outcome {
    let mut unit = StandaloneUnit::from_spec(handshake_unit("hs", Type::INT16));
    match unit.call(CallerId(1), "put", std::slice::from_ref(put)) {
        Ok(_) => Ok((unit.wire("DATA").unwrap(), None)),
        Err(e) => {
            assert!(matches!(e, EvalError::IncompatibleDrive(_)), "{e:?}");
            Err(refusal(&e))
        }
    }
}

fn on_ipc(m: &Module) -> Outcome {
    let mut ipc = IpcPlatform::new();
    let link = ipc.add_unit(StandaloneUnit::from_spec(handshake_unit("hs", Type::INT16)));
    let id = ipc.add_module(m, &[("iface", link)]).unwrap();
    match ipc.run(20) {
        Ok(()) => Ok((
            ipc.unit(link).wire("DATA").unwrap(),
            ipc.module_var(id, "W"),
        )),
        Err(IpcError::Runtime(msg)) => Err(msg),
        Err(e) => panic!("setup: {e}"),
    }
}

fn on_backplane(m: &Module) -> Outcome {
    let mut cosim = Cosim::new(CosimConfig::default());
    let link = cosim.add_fsm_unit("hs", handshake_unit("hs", Type::INT16));
    let id = cosim.add_module(m, &[("iface", link)]).unwrap();
    match cosim.run_for(Duration::from_us(2)) {
        Ok(()) => {
            let data = cosim.sim().find_signal("hs.DATA").unwrap();
            Ok((cosim.sim().value(data).clone(), cosim.module_var(id, "W")))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// The platform-independent part of a refusal: what was driven where.
fn refusal(e: &dyn std::fmt::Display) -> String {
    let msg = e.to_string();
    let at = msg.find(" hs.DATA ").or_else(|| msg.find(" SENDER.OUT "));
    msg[at.unwrap_or_else(|| panic!("the refusal names the wire or port: {msg}"))..].to_string()
}

#[test]
fn every_platform_clamps_and_refuses_drives_alike() {
    let state = EnumType::new("ST", vec!["Send".into(), "Idle".into()]);
    let enum_value = Value::Enum(EnumValue::new(state, "Send").unwrap());
    // Out of width: INT16 stores 70000 as 4464, on the wire and on the
    // port, everywhere.
    let wide = Value::Int(70_000);
    let m = sender(Some(wide.clone()), wide.clone());
    let stored = Value::Int(4464);
    assert_eq!(on_standalone(&wide), Ok((stored.clone(), None)));
    for outcome in [on_ipc(&m), on_backplane(&m)] {
        assert_eq!(outcome, Ok((stored.clone(), Some(stored.clone()))));
    }
    // Mistyped: an enum onto the INT16 `DATA` wire (through `put`) and
    // onto the INT16 port is refused with the same words everywhere.
    let data = " hs.DATA (int16) with incompatible value Enum(";
    let port = " SENDER.OUT (int16) with incompatible value Enum(";
    let put = on_standalone(&enum_value).unwrap_err();
    assert!(put.starts_with(data), "standalone: {put}");
    let ok = Value::Int(1);
    for (m, want) in [
        (sender(Some(enum_value.clone()), ok), data),
        (sender(None, enum_value.clone()), port),
    ] {
        for outcome in [on_ipc(&m), on_backplane(&m)] {
            let msg = outcome.expect_err("the drive is refused");
            assert!(refusal(&msg).starts_with(want), "{msg}");
        }
    }
}
