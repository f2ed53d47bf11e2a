//! The stability contract of every library service, in one table.
//!
//! A call is *stable* ([`FsmUnitRuntime::last_call_stable`],
//! [`NativeUnit::last_call_stable`], [`BatchedLink::last_call_stable`])
//! when re-calling it with the same arguments and unchanged completion
//! wires repeats its outcome and leaves the unit as it is now; a
//! scheduler may then park the caller. A pending call is stable exactly
//! when it was a no-op. Exactly three completions are stable, each from
//! a fresh session: `shared_reg_unit`'s `read`, `register_bank_unit`'s
//! `get_<reg>` and the motor link's `ReadSampledData`. Every other
//! completion writes a wire, comes from a session a pending step left
//! mid-protocol, or pops or pushes a value (batched and native units).

use cosma_comm::{
    handshake_unit, register_bank_unit, shared_reg_unit, BatchedLink, CallerId, FifoChannel,
    FsmUnitRuntime, LocalWires, Mailbox, NativeUnit, SharedMemory, WireStore,
};
use cosma_core::comm::{CommUnitBuilder, CommUnitSpec, ServiceSpecBuilder};
use cosma_core::comm::{SERVICE_DONE_VAR, SERVICE_RESULT_VAR};
use cosma_core::{Bit, Expr, Stmt, Type, Value};
use cosma_motor::{motor_link_unit, swhw_link_unit};
use std::sync::Arc;

/// One table row: a call's unit and service, and whether it completed
/// and reported itself stable.
type Row = (&'static str, &'static str, bool, bool);

/// One step of an FSM unit's script.
enum Op {
    /// A call by caller `.0` of service `.1` with arguments `.2`.
    Call(u64, &'static str, Vec<Value>),
    /// A wire set from outside (a peer or the environment).
    Set(&'static str, Value),
    /// One controller step.
    Controller,
}

use Op::{Call, Controller, Set};

/// Runs `script` against a fresh runtime of `spec` on local wires and
/// returns one row per call.
fn fsm_rows(unit: &'static str, spec: &Arc<CommUnitSpec>, script: Vec<Op>) -> Vec<Row> {
    let mut rt = FsmUnitRuntime::new(Arc::clone(spec));
    let mut wires = LocalWires::new(spec);
    let mut rows = vec![];
    for op in script {
        match op {
            Call(caller, service, args) => {
                let out = rt.call(CallerId(caller), service, &args, &mut wires);
                let out = out.unwrap_or_else(|e| panic!("{unit}.{service}: {e}"));
                rows.push((unit, service, out.done, rt.last_call_stable()));
            }
            Set(wire, v) => {
                let w = spec.wire_id(wire).expect("the script names a wire");
                wires.write_wire(w, v).expect("the wire takes the value");
            }
            Controller => rt.step_controller(&mut wires).expect("controller steps"),
        }
    }
    rows
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

fn int(i: i64) -> Vec<Value> {
    vec![Value::Int(i)]
}

fn one() -> Value {
    Value::Bit(Bit::One)
}

/// Every FSM service of the library, each call with its expected row.
fn fsm_table() -> Vec<(Vec<Row>, Vec<Row>)> {
    let hs = "handshake";
    let handshake = fsm_rows(
        hs,
        &handshake_unit("hs", Type::INT16),
        vec![
            Call(2, "get", vec![]),
            Call(1, "put", int(5)),
            Controller,
            Call(1, "put", int(5)),
            Call(3, "put", int(6)),
            Call(2, "get", vec![]),
        ],
    );
    let reg = "shared_reg";
    let shared = fsm_rows(
        reg,
        &shared_reg_unit("reg", Type::INT16),
        vec![
            Call(1, "acquire", vec![]),
            Call(2, "acquire", vec![]),
            Call(1, "write", int(9)),
            Call(2, "read", vec![]),
            Call(2, "read", vec![]),
            Call(1, "release", vec![]),
        ],
    );
    let bank = "register_bank";
    let banked = fsm_rows(
        bank,
        &register_bank_unit("bank", &[("A", Type::INT16)]),
        vec![
            Call(1, "put_A", int(3)),
            Call(1, "put_A", int(3)),
            Call(2, "get_A", vec![]),
            Call(2, "get_A", vec![]),
        ],
    );
    let sw = "swhw";
    let mut mailboxes = vec![];
    let mut mailbox_rows = vec![];
    for (put, get) in [
        ("SetupControl", "ReadMotorConstraints"),
        ("MotorPosition", "ReadMotorPosition"),
        ("ReturnMotorState", "ReadMotorState"),
    ] {
        mailboxes.extend([
            Call(1, put, int(7)),
            Call(1, put, int(8)),
            Call(2, get, vec![]),
            Call(2, get, vec![]),
        ]);
        mailbox_rows.extend([
            (sw, put, true, false),
            (sw, put, false, true),
            (sw, get, true, false),
            (sw, get, false, true),
        ]);
    }
    let swhw = fsm_rows(sw, &swhw_link_unit(), mailboxes);
    let ml = "motor_link";
    let motor = fsm_rows(
        ml,
        &motor_link_unit(),
        vec![
            Set("SAMPLED_POS", Value::Int(-17)),
            Call(1, "ReadSampledData", vec![]),
            Call(2, "SendMotorPulses", int(3)),
            Call(2, "SendMotorPulses", int(3)),
            Set("PULSE_ACK", one()),
            Call(2, "SendMotorPulses", int(3)),
        ],
    );
    let lt = "two_step_read";
    let latch = fsm_rows(
        lt,
        &two_step_read(),
        vec![Call(1, "read", vec![]), Call(1, "read", vec![])],
    );
    vec![
        (
            handshake,
            vec![
                (hs, "get", false, true),
                (hs, "put", false, false),
                (hs, "put", true, false),
                (hs, "put", false, true),
                (hs, "get", true, false),
            ],
        ),
        (
            shared,
            vec![
                (reg, "acquire", true, false),
                (reg, "acquire", false, true),
                (reg, "write", true, false),
                (reg, "read", true, true),
                (reg, "read", true, true),
                (reg, "release", true, false),
            ],
        ),
        (
            banked,
            vec![
                (bank, "put_A", false, false),
                (bank, "put_A", true, false),
                (bank, "get_A", true, true),
                (bank, "get_A", true, true),
            ],
        ),
        (swhw, mailbox_rows),
        (
            motor,
            vec![
                (ml, "ReadSampledData", true, true),
                (ml, "SendMotorPulses", false, false),
                (ml, "SendMotorPulses", false, true),
                (ml, "SendMotorPulses", true, false),
            ],
        ),
        (
            latch,
            vec![(lt, "read", false, false), (lt, "read", true, false)],
        ),
    ]
}

/// Runs native-unit calls and returns one row per call.
fn native_rows(
    unit: &'static str,
    native: &mut dyn NativeUnit,
    calls: &[(u64, &'static str, Vec<Value>)],
) -> Vec<Row> {
    calls
        .iter()
        .map(|(caller, service, args)| {
            let out = native.call(CallerId(*caller), service, args).unwrap();
            (unit, *service, out.done, native.last_call_stable())
        })
        .collect()
}

#[test]
fn fsm_services_keep_the_stability_contract() {
    for (got, want) in fsm_table() {
        assert_eq!(got, want);
    }
}

#[test]
fn only_pure_reads_complete_stably() {
    let stable_completions: Vec<(&str, &str)> = fsm_table()
        .into_iter()
        .flat_map(|(got, _)| got)
        .filter(|&(_, _, done, stable)| done && stable)
        .map(|(unit, service, _, _)| (unit, service))
        .collect();
    assert_eq!(
        stable_completions,
        [
            ("shared_reg", "read"),
            ("shared_reg", "read"),
            ("register_bank", "get_A"),
            ("register_bank", "get_A"),
            ("motor_link", "ReadSampledData"),
        ]
    );
}

#[test]
fn batched_completions_are_unstable() {
    let mut link = BatchedLink::new("bus", Type::INT16, 4, 1);
    let mut wires = LocalWires::new(link.spec());
    let (p, c) = (CallerId(1), CallerId(2));
    let mut rows = vec![];
    let mut note = |out: cosma_core::ServiceOutcome, link: &BatchedLink, service| {
        rows.push(("batched", service, out.done, link.last_call_stable()));
    };
    note(link.get(c, &mut wires).unwrap(), &link, "get");
    note(
        link.put(p, Value::Int(4), &mut wires).unwrap(),
        &link,
        "put",
    );
    note(
        link.put(p, Value::Int(5), &mut wires).unwrap(),
        &link,
        "put",
    );
    let mut delivered = None;
    for _ in 0..40 {
        link.pump(&mut wires, false).unwrap();
        let out = link.get(c, &mut wires).unwrap();
        if out.done {
            delivered = Some((out, link.last_call_stable()));
            break;
        }
    }
    let (out, stable) = delivered.expect("the value is delivered");
    rows.push(("batched", "get", out.done, stable));
    assert_eq!(
        rows,
        [
            ("batched", "get", false, true),
            ("batched", "put", true, false),
            ("batched", "put", false, true),
            ("batched", "get", true, false),
        ]
    );
}

#[test]
fn native_completions_are_unstable() {
    let fifo = native_rows(
        "fifo",
        &mut FifoChannel::new("fifo", 1),
        &[
            (2, "get", vec![]),
            (1, "put", int(1)),
            (1, "put", int(2)),
            (2, "get", vec![]),
        ],
    );
    assert_eq!(
        fifo,
        [
            ("fifo", "get", false, true),
            ("fifo", "put", true, false),
            ("fifo", "put", false, true),
            ("fifo", "get", true, false),
        ]
    );
    let mailbox = native_rows(
        "mailbox",
        &mut Mailbox::new("mb", 1),
        &[
            (2, "recv_b", vec![]),
            (1, "send_a", int(1)),
            (2, "recv_b", vec![]),
            (2, "send_b", int(2)),
            (1, "recv_a", vec![]),
        ],
    );
    assert_eq!(
        mailbox,
        [
            ("mailbox", "recv_b", false, true),
            ("mailbox", "send_a", true, false),
            ("mailbox", "recv_b", true, false),
            ("mailbox", "send_b", true, false),
            ("mailbox", "recv_a", true, false),
        ]
    );
    // `load` reads cells that no wire shows: it must never claim to be
    // stable, and nothing else in the unit does either.
    let memory = native_rows(
        "memory",
        &mut SharedMemory::new("mem", 4),
        &[
            (1, "acquire", vec![]),
            (2, "acquire", vec![]),
            (1, "store", vec![Value::Int(0), Value::Int(9)]),
            (1, "load", int(0)),
            (1, "load", int(0)),
            (1, "release", vec![]),
        ],
    );
    assert_eq!(
        memory,
        [
            ("memory", "acquire", true, false),
            ("memory", "acquire", false, false),
            ("memory", "store", true, false),
            ("memory", "load", true, false),
            ("memory", "load", true, false),
            ("memory", "release", true, false),
        ]
    );
}
