//! Multi-platform retargeting (the paper's third problem): the *same*
//! producer/consumer module descriptions are mapped onto three targets by
//! swapping only the communication units / views:
//!
//! 1. VHDL-style co-simulation over the FSM handshake unit,
//! 2. the software-only platform over a native OS FIFO (UNIX IPC view),
//! 3. the PC-AT + FPGA board (producer compiled to MC16, consumer
//!    synthesized to the fabric).
//!
//! Run with: `cargo run --example multi_platform`

use cosma::board::{Board, BoardConfig, IpcPlatform};
use cosma::comm::{handshake_unit, FifoChannel, StandaloneUnit};
use cosma::core::{Expr, Module, ModuleBuilder, ModuleKind, ServiceCall, Stmt, Type, Value};
use cosma::cosim::{Cosim, CosimConfig};
use cosma::sim::Duration;
use cosma::synth::{compile_sw, flatten_module, synthesize_hw, Encoding, IoMap};
use std::collections::HashMap;

const VALUES: [i64; 4] = [11, 22, 33, 44];

fn producer() -> Module {
    let mut p = ModuleBuilder::new("producer", ModuleKind::Software);
    let done = p.var("D", Type::Bool, Value::Bool(false));
    let i = p.var("I", Type::INT16, Value::Int(0));
    let b = p.binding("chan", "hs");
    let put = p.state("PUT");
    let end = p.state("END");
    // Values form an arithmetic progression: 11 + 11*i.
    p.actions(
        put,
        vec![Stmt::Call(ServiceCall {
            binding: b,
            service: "put".into(),
            args: vec![Expr::int(11).add(Expr::var(i).mul(Expr::int(11)))],
            done: Some(done),
            result: None,
        })],
    );
    p.transition_with(
        put,
        Some(Expr::var(done).and(Expr::var(i).ge(Expr::int(VALUES.len() as i64 - 1)))),
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
    p.build().expect("producer is well-formed")
}

fn consumer() -> Module {
    let mut c = ModuleBuilder::new("consumer", ModuleKind::Hardware);
    let done = c.var("D", Type::Bool, Value::Bool(false));
    let got = c.var("GOT", Type::INT16, Value::Int(0));
    let sum = c.var("SUM", Type::INT16, Value::Int(0));
    let n = c.var("N", Type::INT16, Value::Int(0));
    let b = c.binding("chan", "hs");
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
        Some(Expr::var(done).and(Expr::var(n).ge(Expr::int(VALUES.len() as i64 - 1)))),
        vec![Stmt::assign(sum, Expr::var(sum).add(Expr::var(got)))],
        end,
    );
    c.transition_with(
        get,
        Some(Expr::var(done)),
        vec![
            Stmt::assign(sum, Expr::var(sum).add(Expr::var(got))),
            Stmt::assign(n, Expr::var(n).add(Expr::int(1))),
        ],
        get,
    );
    c.transition(end, None, end);
    c.initial(get);
    c.build().expect("consumer is well-formed")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let expected: i64 = VALUES.iter().sum();
    println!("expected SUM on every platform: {expected}\n");

    // --- platform 1: co-simulation over the FSM handshake unit -----------
    let mut cosim = Cosim::new(CosimConfig::default());
    let link = cosim.add_fsm_unit("chan", handshake_unit("hs", Type::INT16));
    cosim.add_module(&producer(), &[("chan", link)])?;
    let cid = cosim.add_module(&consumer(), &[("chan", link)])?;
    cosim.run_for(Duration::from_us(60))?;
    let sum1 = cosim.module_var(cid, "SUM").expect("SUM exists");
    println!("platform 1 (co-simulation, handshake unit): SUM = {sum1}");

    // --- platform 2: software-only over UNIX-IPC-style FIFO ---------------
    let mut ipc = IpcPlatform::new();
    let fifo = ipc.add_unit(StandaloneUnit::from_native(Box::new(FifoChannel::new(
        "pipe", 4,
    ))));
    ipc.add_module(&producer(), &[("chan", fifo)])?;
    let cid2 = ipc.add_module(&consumer(), &[("chan", fifo)])?;
    ipc.run(60)?;
    let sum2 = ipc.module_var(cid2, "SUM").expect("SUM exists");
    println!("platform 2 (software-only, OS FIFO):        SUM = {sum2}");

    // --- platform 3: co-synthesis onto the PC-AT + FPGA board -------------
    let mut units = HashMap::new();
    units.insert("chan".to_string(), handshake_unit("hs", Type::INT16));
    let prod_flat = flatten_module(&producer(), &units)?;
    let io = IoMap::for_module(0x300, &prod_flat);
    let prog = compile_sw(&prod_flat, &io)?;
    let cons_flat = flatten_module(&consumer(), &units)?;
    let (cons_nl, report) = synthesize_hw(&cons_flat, Encoding::Binary)?;
    let ctrl = cosma::synth::controller_module(&handshake_unit("hs", Type::INT16), "chan")?;
    let (ctrl_nl, _) = synthesize_hw(&ctrl, Encoding::Binary)?;

    let mut board = Board::new(BoardConfig::default());
    let cpu = board.add_cpu("producer", &prog).unwrap();
    board.place_netlist(&cons_nl)?;
    board.place_netlist(&ctrl_nl)?;
    board.run_for_ns(3_000_000)?;
    // The consumer's SUM lives in a fabric register.
    let sum3 = board
        .fabric()
        .reg_value("consumer", "SUM")
        .map(|w| i64::from(w as u16 as i16))
        .expect("fabric register exists");
    println!("platform 3 (PC-AT + FPGA board):            SUM = {sum3}");
    println!("           consumer hardware: {report}");
    println!(
        "           producer software: {} words, {} cpu cycles",
        prog.image.len_words(),
        board.cpu_cycles(cpu)
    );

    assert_eq!(sum1, Value::Int(expected));
    assert_eq!(sum2, Value::Int(expected));
    assert_eq!(sum3, expected);
    println!("\nall three platforms agree — same description, three architectures");
    Ok(())
}
