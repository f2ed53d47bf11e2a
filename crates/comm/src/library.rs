//! The library of FSM-described communication units.
//!
//! These are the renderable, signal-level protocols: each constructor
//! returns a [`CommUnitSpec`] whose services can be executed (through
//! [`crate::FsmUnitRuntime`]), co-simulated over kernel signals, rendered
//! into all views (`cosma_core::view`) and synthesized to hardware.

use cosma_core::comm::{
    CommUnitBuilder, CommUnitSpec, ServiceSpecBuilder, SERVICE_DONE_VAR, SERVICE_RESULT_VAR,
};
use cosma_core::{Bit, Expr, FsmBuilder, Stmt, Type, Value};
use std::sync::Arc;

/// Builds the paper's Figure 2/3 unit: a one-deep buffered handshake
/// channel offering `put(REQUEST)` and `get() -> data`.
///
/// Wires:
///
/// * `DATA` — the payload register,
/// * `B_FULL` — buffer-full flag, raised by the controller, cleared by
///   the consumer,
/// * `REQ` — producer request level,
/// * `ACK` — controller acknowledge level back to the producer.
///
/// The protocol is a classic 4-phase handshake with *level* signalling in
/// both directions, so it is robust to arbitrary speed mismatch between
/// the software and hardware sides — the first of the paper's three
/// communication problems. The `put` protocol is the Figure 3 FSM; the
/// controller is the conflict-resolution process of Figure 2.
///
/// # Examples
///
/// ```
/// use cosma_comm::handshake_unit;
/// use cosma_core::Type;
///
/// let unit = handshake_unit("swhw_link", Type::INT16);
/// assert!(unit.service("put").is_some());
/// assert!(unit.service("get").is_some());
/// assert_eq!(unit.wires().len(), 4);
/// ```
#[must_use]
pub fn handshake_unit(name: &str, data_ty: Type) -> Arc<CommUnitSpec> {
    build_handshake(name, data_ty, false)
}

/// Builds the wire-level carrier of a batched bus link: the
/// [`handshake_unit`] protocol (DATA here carries a *batch length*, not a
/// payload value) plus a `PENDING` bus-request wire that the batching
/// runtime raises while values are queued for transport. The extra wire
/// lets a scheduler that has parked an idle link (the sharded backplane)
/// learn that a new batch is waiting without polling.
///
/// Every [`BatchedLink`](crate::BatchedLink) runs one shared spec built
/// here, named `batched_handshake`; rarely instantiated directly.
#[must_use]
pub fn batched_handshake_unit(name: &str) -> Arc<CommUnitSpec> {
    build_handshake(name, Type::INT16, true)
}

fn build_handshake(name: &str, data_ty: Type, with_pending: bool) -> Arc<CommUnitSpec> {
    let mut u = CommUnitBuilder::new(name);
    let data = u.wire("DATA", data_ty.clone(), data_ty.default_value());
    let b_full = u.wire("B_FULL", Type::Bit, Value::Bit(Bit::Zero));
    let req = u.wire("REQ", Type::Bit, Value::Bit(Bit::Zero));
    let ack = u.wire("ACK", Type::Bit, Value::Bit(Bit::Zero));
    if with_pending {
        // Raised/cleared by the batching runtime, never by the protocol
        // FSMs; placed last so the classic handshake's wire ids are
        // unchanged.
        u.wire("PENDING", Type::Bit, Value::Bit(Bit::Zero));
        // Beat-boundary marker under cycle-accurate payload streaming
        // ([`crate::BusTiming::PayloadBeats`]): held One on every cycle
        // a payload word occupies DATA, Zero during the arbitration
        // length word — so a snooping observer can count payload beats
        // without decoding the protocol. Never written under
        // [`crate::BusTiming::LengthOnly`].
        u.wire("B_VALID", Type::Bit, Value::Bit(Bit::Zero));
        // Burst-completion strobe (AXI RLAST-style): One on the cycle
        // the final payload beat of a batch crosses DATA (the cycle the
        // batch is delivered), Zero otherwise. Parked consumers watch
        // it instead of DATA, so a length-`n` burst wakes them once at
        // delivery rather than once per beat. Never written under
        // [`crate::BusTiming::LengthOnly`].
        u.wire("B_LAST", Type::Bit, Value::Bit(Bit::Zero));
    }

    // --- put(REQUEST) ---------------------------------------------------
    let mut put = ServiceSpecBuilder::new("put");
    put.arg("REQUEST", data_ty.clone());
    let p_init = put.state("INIT");
    let p_wait = put.state("WAIT_ACK");
    // Start a transaction only when the previous one fully unwound
    // (ACK low) and the buffer is free.
    put.transition_with(
        p_init,
        Some(
            Expr::port(ack)
                .eq(Expr::bit(Bit::Zero))
                .and(Expr::port(b_full).eq(Expr::bit(Bit::Zero))),
        ),
        vec![
            Stmt::drive(data, Expr::arg(0)),
            Stmt::drive(req, Expr::bit(Bit::One)),
        ],
        p_wait,
    );
    // ACK is a level held by the controller until REQ drops, so a slow
    // caller cannot miss it.
    put.transition_with(
        p_wait,
        Some(Expr::port(ack).eq(Expr::bit(Bit::One))),
        vec![
            Stmt::drive(req, Expr::bit(Bit::Zero)),
            Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
        ],
        p_init,
    );
    put.initial(p_init);
    u.service(put.build().expect("put protocol is well-formed"));

    // --- get() -> data ---------------------------------------------------
    let mut get = ServiceSpecBuilder::new("get");
    get.returns(data_ty);
    let g_try = get.state("TRY");
    // B_FULL is a level held until the consumer itself clears it.
    get.transition_with(
        g_try,
        Some(Expr::port(b_full).eq(Expr::bit(Bit::One))),
        vec![
            Stmt::assign(SERVICE_RESULT_VAR, Expr::port(data)),
            Stmt::drive(b_full, Expr::bit(Bit::Zero)),
            Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
        ],
        g_try,
    );
    get.initial(g_try);
    u.service(get.build().expect("get protocol is well-formed"));

    // --- controller -------------------------------------------------------
    let mut ctrl = FsmBuilder::new();
    let c_idle = ctrl.state("IDLE");
    let c_acked = ctrl.state("ACKED");
    ctrl.transition_with(
        c_idle,
        Some(
            Expr::port(req)
                .eq(Expr::bit(Bit::One))
                .and(Expr::port(b_full).eq(Expr::bit(Bit::Zero))),
        ),
        vec![
            Stmt::drive(b_full, Expr::bit(Bit::One)),
            Stmt::drive(ack, Expr::bit(Bit::One)),
        ],
        c_acked,
    );
    ctrl.transition_with(
        c_acked,
        Some(Expr::port(req).eq(Expr::bit(Bit::Zero))),
        vec![Stmt::drive(ack, Expr::bit(Bit::Zero))],
        c_idle,
    );
    ctrl.initial(c_idle);
    u.controller(vec![], ctrl.build().expect("controller is well-formed"));

    u.build().expect("handshake unit is well-formed")
}

/// Builds a shared-register unit with lock-based mutual exclusion —
/// the paper's "shared resources" communication property.
///
/// Services:
///
/// * `acquire()` — completes once the lock was free and is now held,
/// * `release()` — always completes, freeing the lock,
/// * `write(VAL)` / `read() -> data` — single-activation register access.
///
/// The lock discipline is advisory (callers should bracket accesses with
/// acquire/release), which is how a bus semaphore on a shared memory
/// behaves.
#[must_use]
pub fn shared_reg_unit(name: &str, data_ty: Type) -> Arc<CommUnitSpec> {
    let mut u = CommUnitBuilder::new(name);
    let reg = u.wire("REG", data_ty.clone(), data_ty.default_value());
    let lock = u.wire("LOCK", Type::Bit, Value::Bit(Bit::Zero));

    let mut acq = ServiceSpecBuilder::new("acquire");
    let a0 = acq.state("TRY");
    acq.transition_with(
        a0,
        Some(Expr::port(lock).eq(Expr::bit(Bit::Zero))),
        vec![
            Stmt::drive(lock, Expr::bit(Bit::One)),
            Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
        ],
        a0,
    );
    acq.initial(a0);
    u.service(acq.build().expect("acquire is well-formed"));

    let mut rel = ServiceSpecBuilder::new("release");
    let r0 = rel.state("FREE");
    rel.actions(
        r0,
        vec![
            Stmt::drive(lock, Expr::bit(Bit::Zero)),
            Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
        ],
    );
    rel.transition(r0, None, r0);
    rel.initial(r0);
    u.service(rel.build().expect("release is well-formed"));

    let mut wr = ServiceSpecBuilder::new("write");
    wr.arg("VAL", data_ty.clone());
    let w0 = wr.state("STORE");
    wr.actions(
        w0,
        vec![
            Stmt::drive(reg, Expr::arg(0)),
            Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
        ],
    );
    wr.transition(w0, None, w0);
    wr.initial(w0);
    u.service(wr.build().expect("write is well-formed"));

    let mut rd = ServiceSpecBuilder::new("read");
    rd.returns(data_ty);
    let d0 = rd.state("LOAD");
    rd.actions(
        d0,
        vec![
            Stmt::assign(SERVICE_RESULT_VAR, Expr::port(reg)),
            Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
        ],
    );
    rd.transition(d0, None, d0);
    rd.initial(d0);
    u.service(rd.build().expect("read is well-formed"));

    u.build().expect("shared register unit is well-formed")
}

/// Builds a register-bank unit: one data wire per named register with
/// `put_<reg>(VAL)` and `get_<reg>() -> data` single-activation services,
/// plus a `STROBE_<reg>` bit wire pulsed on writes so hardware can detect
/// updates.
///
/// This models a memory-mapped parallel interface (the paper's 16-bit
/// PC-AT bus window): software sees named registers, hardware sees wires.
#[must_use]
pub fn register_bank_unit(name: &str, regs: &[(&str, Type)]) -> Arc<CommUnitSpec> {
    let mut u = CommUnitBuilder::new(name);
    let mut wires = Vec::with_capacity(regs.len());
    for (rname, ty) in regs {
        let data = u.wire((*rname).to_string(), ty.clone(), ty.default_value());
        let strobe = u.wire(format!("STROBE_{rname}"), Type::Bit, Value::Bit(Bit::Zero));
        wires.push((data, strobe, ty.clone()));
    }
    for ((rname, _), (data, strobe, ty)) in regs.iter().zip(&wires) {
        let mut put = ServiceSpecBuilder::new(format!("put_{rname}"));
        put.arg("VAL", ty.clone());
        let s0 = put.state("WRITE");
        let s1 = put.state("PULSE");
        put.actions(
            s0,
            vec![
                Stmt::drive(*data, Expr::arg(0)),
                Stmt::drive(*strobe, Expr::bit(Bit::One)),
            ],
        );
        put.transition(s0, None, s1);
        put.actions(
            s1,
            vec![
                Stmt::drive(*strobe, Expr::bit(Bit::Zero)),
                Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
            ],
        );
        put.transition(s1, None, s0);
        put.initial(s0);
        u.service(put.build().expect("put_<reg> is well-formed"));

        let mut get = ServiceSpecBuilder::new(format!("get_{rname}"));
        get.returns(ty.clone());
        let g0 = get.state("READ");
        get.actions(
            g0,
            vec![
                Stmt::assign(SERVICE_RESULT_VAR, Expr::port(*data)),
                Stmt::assign(SERVICE_DONE_VAR, Expr::bool(true)),
            ],
        );
        get.transition(g0, None, g0);
        get.initial(g0);
        u.service(get.build().expect("get_<reg> is well-formed"));
    }
    u.build().expect("register bank unit is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{CallerId, FsmUnitRuntime, LocalWires};

    #[test]
    fn handshake_full_exchange() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let p = CallerId(1);
        let c = CallerId(2);
        let mut got = None;
        let mut put_done_at = None;
        for i in 0..20 {
            let pd = unit.call(p, "put", &[Value::Int(300)], &mut wires).unwrap();
            if pd.done && put_done_at.is_none() {
                put_done_at = Some(i);
            }
            let g = unit.call(c, "get", &[], &mut wires).unwrap();
            if g.done {
                got = g.result;
                break;
            }
            unit.step_controller(&mut wires).unwrap();
        }
        assert_eq!(got, Some(Value::Int(300)));
        assert!(put_done_at.is_some(), "put must complete before get");
    }

    #[test]
    fn handshake_get_blocks_on_empty() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        for _ in 0..10 {
            let g = unit.call(CallerId(1), "get", &[], &mut wires).unwrap();
            assert!(!g.done, "get must not complete on an empty channel");
            unit.step_controller(&mut wires).unwrap();
        }
    }

    #[test]
    fn handshake_put_blocks_when_full() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let p = CallerId(1);
        // First put completes (no consumer yet).
        let mut first_done = false;
        for _ in 0..10 {
            if unit
                .call(p, "put", &[Value::Int(1)], &mut wires)
                .unwrap()
                .done
            {
                first_done = true;
                break;
            }
            unit.step_controller(&mut wires).unwrap();
        }
        assert!(first_done);
        // Second put cannot complete while the buffer stays full.
        for _ in 0..10 {
            let d = unit.call(p, "put", &[Value::Int(2)], &mut wires).unwrap();
            assert!(!d.done, "second put must stall while B_FULL");
            unit.step_controller(&mut wires).unwrap();
        }
    }

    #[test]
    fn handshake_values_in_order() {
        let spec = handshake_unit("hs", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let p = CallerId(1);
        let c = CallerId(2);
        let inputs = [5i64, -3, 77, 0, 1000];
        let mut sent = 0;
        let mut received = vec![];
        for _ in 0..400 {
            if sent < inputs.len()
                && unit
                    .call(p, "put", &[Value::Int(inputs[sent])], &mut wires)
                    .unwrap()
                    .done
            {
                sent += 1;
            }
            let g = unit.call(c, "get", &[], &mut wires).unwrap();
            if g.done {
                received.push(g.result.unwrap().as_int().unwrap());
            }
            unit.step_controller(&mut wires).unwrap();
            if received.len() == inputs.len() {
                break;
            }
        }
        assert_eq!(received, inputs.to_vec());
    }

    #[test]
    fn shared_reg_lock_discipline() {
        let spec = shared_reg_unit("mem", Type::INT16);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let a = CallerId(1);
        let b = CallerId(2);
        assert!(unit.call(a, "acquire", &[], &mut wires).unwrap().done);
        // B cannot acquire while A holds the lock.
        for _ in 0..5 {
            assert!(!unit.call(b, "acquire", &[], &mut wires).unwrap().done);
        }
        assert!(
            unit.call(a, "write", &[Value::Int(7)], &mut wires)
                .unwrap()
                .done
        );
        assert!(unit.call(a, "release", &[], &mut wires).unwrap().done);
        assert!(unit.call(b, "acquire", &[], &mut wires).unwrap().done);
        let r = unit.call(b, "read", &[], &mut wires).unwrap();
        assert_eq!(r.result, Some(Value::Int(7)));
    }

    #[test]
    fn register_bank_roundtrip_and_strobe() {
        let spec = register_bank_unit("bank", &[("POS", Type::INT16), ("SPEED", Type::INT16)]);
        let mut unit = FsmUnitRuntime::new(spec.clone());
        let mut wires = LocalWires::new(&spec);
        let sw = CallerId(1);
        // put_POS takes two activations (write+pulse, then strobe clear).
        assert!(
            !unit
                .call(sw, "put_POS", &[Value::Int(55)], &mut wires)
                .unwrap()
                .done
        );
        let strobe = spec.wire_id("STROBE_POS").unwrap();
        assert_eq!(wires.value(strobe), &Value::Bit(Bit::One), "strobe pulsed");
        assert!(
            unit.call(sw, "put_POS", &[Value::Int(55)], &mut wires)
                .unwrap()
                .done
        );
        assert_eq!(
            wires.value(strobe),
            &Value::Bit(Bit::Zero),
            "strobe cleared"
        );
        let g = unit.call(sw, "get_POS", &[], &mut wires).unwrap();
        assert_eq!(g.result, Some(Value::Int(55)));
        // Registers are independent.
        let g = unit.call(sw, "get_SPEED", &[], &mut wires).unwrap();
        assert_eq!(g.result, Some(Value::Int(0)));
    }

    #[test]
    fn units_render_all_views() {
        // Every library unit must render in every view (the multi-view
        // library requirement of the paper).
        for spec in [
            handshake_unit("hs", Type::INT16),
            shared_reg_unit("mem", Type::INT16),
            register_bank_unit("bank", &[("A", Type::INT16)]),
        ] {
            for svc in spec.services() {
                let views =
                    cosma_core::render_service_views(&spec, svc, &cosma_core::SwTarget::ALL);
                assert!(!views.hw_vhdl.is_empty());
                assert!(!views.sw_sim.is_empty());
                assert_eq!(views.sw_synth.len(), 3);
            }
        }
    }
}
