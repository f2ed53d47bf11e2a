//! Claim C2 — multi-platform support.
//!
//! The same producer/consumer module pair is mapped onto three target
//! architectures by exchanging only the communication unit / views; the
//! functional result must be identical everywhere.

use cosma_board::{Board, BoardConfig, IpcPlatform};
use cosma_comm::{handshake_unit, FifoChannel, Mailbox, StandaloneUnit};
use cosma_core::{Expr, Module, ModuleBuilder, ModuleKind, ServiceCall, Stmt, Type, Value};
use cosma_cosim::{Cosim, CosimConfig};
use cosma_sim::Duration;
use cosma_synth::{compile_sw, controller_module, flatten_module, synthesize_hw, Encoding, IoMap};
use std::collections::HashMap;

const N: i64 = 5;

fn producer(service: &str) -> Module {
    let mut p = ModuleBuilder::new("producer", ModuleKind::Software);
    let done = p.var("D", Type::Bool, Value::Bool(false));
    let i = p.var("I", Type::INT16, Value::Int(0));
    let b = p.binding("chan", "hs");
    let put = p.state("PUT");
    let end = p.state("END");
    p.actions(
        put,
        vec![Stmt::Call(ServiceCall {
            binding: b,
            service: service.into(),
            args: vec![Expr::int(7).add(Expr::var(i).mul(Expr::int(7)))],
            done: Some(done),
            result: None,
        })],
    );
    p.transition_with(
        put,
        Some(Expr::var(done).and(Expr::var(i).ge(Expr::int(N - 1)))),
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

fn consumer(service: &str) -> Module {
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
            service: service.into(),
            args: vec![],
            done: Some(done),
            result: Some(got),
        })],
    );
    c.transition_with(
        get,
        Some(Expr::var(done).and(Expr::var(n).ge(Expr::int(N - 1)))),
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
    c.build().expect("well-formed")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let expected: i64 = (0..N).map(|i| 7 + 7 * i).sum();
    println!("=== Claim C2: one description, many platforms (expect SUM = {expected}) ===\n");
    let mut results: Vec<(String, i64)> = vec![];

    // 1. Co-simulation over the library handshake unit.
    {
        let mut cosim = Cosim::new(CosimConfig::default());
        let link = cosim.add_fsm_unit("chan", handshake_unit("hs", Type::INT16));
        cosim.add_module(&producer("put"), &[("chan", link)])?;
        let cid = cosim.add_module(&consumer("get"), &[("chan", link)])?;
        cosim.run_for(Duration::from_us(80))?;
        let sum = cosim
            .module_var(cid, "SUM")
            .and_then(|v| v.as_int().ok())
            .unwrap_or(-1);
        results.push(("co-simulation / FSM handshake unit".into(), sum));
    }

    // 2a. Software-only platform over an OS FIFO.
    {
        let mut ipc = IpcPlatform::new();
        let ch = ipc.add_unit(StandaloneUnit::from_native(Box::new(FifoChannel::new(
            "pipe", 4,
        ))));
        ipc.add_module(&producer("put"), &[("chan", ch)])?;
        let cid = ipc.add_module(&consumer("get"), &[("chan", ch)])?;
        ipc.run(100)?;
        let sum = ipc
            .module_var(cid, "SUM")
            .and_then(|v| v.as_int().ok())
            .unwrap_or(-1);
        results.push(("software-only / UNIX-IPC FIFO".into(), sum));
    }

    // 2b. Software-only platform over a mailbox (different native unit,
    // same modules — only service names rebound).
    {
        let mut ipc = IpcPlatform::new();
        let mb = ipc.add_unit(StandaloneUnit::from_native(Box::new(Mailbox::new("mb", 4))));
        ipc.add_module(&producer("send_a"), &[("chan", mb)])?;
        let cid = ipc.add_module(&consumer("recv_b"), &[("chan", mb)])?;
        ipc.run(100)?;
        let sum = ipc
            .module_var(cid, "SUM")
            .and_then(|v| v.as_int().ok())
            .unwrap_or(-1);
        results.push(("software-only / UNIX-IPC mailbox".into(), sum));
    }

    // 3. The PC-AT + FPGA board.
    {
        let mut units = HashMap::new();
        units.insert("chan".to_string(), handshake_unit("hs", Type::INT16));
        let prod_flat = flatten_module(&producer("put"), &units)?;
        let prog = compile_sw(&prod_flat, &IoMap::for_module(0x300, &prod_flat))?;
        let cons_flat = flatten_module(&consumer("get"), &units)?;
        let (cons_nl, _) = synthesize_hw(&cons_flat, Encoding::Binary)?;
        let ctrl = controller_module(&handshake_unit("hs", Type::INT16), "chan")?;
        let (ctrl_nl, _) = synthesize_hw(&ctrl, Encoding::Binary)?;
        let mut board = Board::new(BoardConfig::default());
        board.add_cpu("producer", &prog).unwrap();
        board.place_netlist(&cons_nl)?;
        board.place_netlist(&ctrl_nl)?;
        board.run_for_ns(4_000_000)?;
        let sum = board
            .fabric()
            .reg_value("consumer", "SUM")
            .map(|w| i64::from(w as u16 as i16))
            .unwrap_or(-1);
        results.push(("co-synthesis / PC-AT + FPGA board".into(), sum));
    }

    println!("{:<38} {:>8} {:>8}", "platform", "SUM", "correct");
    let mut all = true;
    for (name, sum) in &results {
        let ok = *sum == expected;
        all &= ok;
        println!("{name:<38} {sum:>8} {:>8}", if ok { "YES" } else { "NO" });
    }
    println!(
        "\nclaim C2 ({}) — the modules never changed; only the communication\n\
         unit / view selection did",
        if all { "REPRODUCED" } else { "NOT reproduced" }
    );
    if all {
        Ok(())
    } else {
        Err("a platform computed the wrong sum".into())
    }
}
