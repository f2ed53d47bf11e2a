//! Figure 7 — the Speed Control sub-system from its VHDL source.
//!
//! Feeds a Figure-7-style VHDL entity (three parallel units: POSITION,
//! CORE, TIMER over shared signals) through the VHDL front-end, then
//! co-simulates it against the real communication units and the motor
//! plant, showing the unit interleaving and the generated pulse train.

use cosma_bench::{speed_control_options, SPEED_CONTROL_SRC};
use cosma_cosim::{Cosim, CosimConfig};
use cosma_frontend::vhdl::compile_entity;
use cosma_motor::{motor_link_unit, shared_motor, swhw_link_unit, MotorCosim};
use cosma_sim::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Figure 7: Speed Control (VHDL) — three parallel units ===\n");
    let opts = speed_control_options();
    let hw = compile_entity(SPEED_CONTROL_SRC, "SPEED_CONTROL", &opts)?;
    println!("elaborated entity `{}`:", hw.name);
    for m in &hw.modules {
        println!("  process {} -> {} states", m.name(), m.fsm().state_count());
    }

    // Assemble against the real units and motor plant; drive the SW side
    // of the swhw unit by hand (the testbench plays Distribution).
    let mut cosim = Cosim::new(CosimConfig::default());
    // The plant below is clocked outside the backplane's clock demand:
    // keep the edges running while every process is parked.
    cosim.pin_clock_domains();
    let swhw = cosim.add_fsm_unit("swhw", swhw_link_unit());
    let mlink = cosim.add_fsm_unit("mlink", motor_link_unit());
    let nets: Vec<_> = hw
        .nets
        .iter()
        .map(|n| {
            cosim
                .sim_mut()
                .add_signal(format!("SC.{}", n.name), n.ty.clone(), n.init.clone())
        })
        .collect();
    let mut ids = vec![];
    for m in &hw.modules {
        ids.push(cosim.add_module_with_ports(
            m,
            &[("Control_Interface", swhw), ("Motor_Interface", mlink)],
            nets.clone(),
        )?);
    }
    let motor = shared_motor(2);
    let sig = |cosim: &Cosim, n: &str| cosim.sim().find_signal(&format!("mlink.{n}")).unwrap();
    let adapter = MotorCosim::new(
        motor.clone(),
        cosim.hw_clk(),
        sig(&cosim, "PULSE_CMD"),
        sig(&cosim, "PULSE_STROBE"),
        sig(&cosim, "PULSE_ACK"),
        sig(&cosim, "SAMPLED_POS"),
        cosim.trace_handle(),
    );
    adapter.attach(cosim.sim_mut());

    // Testbench: poke the SW-side mailboxes directly (constraints, then a
    // target position of 30).
    let ctl_reg = cosim.sim().find_signal("swhw.CTL_REG").unwrap();
    let ctl_full = cosim.sim().find_signal("swhw.CTL_FULL").unwrap();
    let pos_reg = cosim.sim().find_signal("swhw.POS_REG").unwrap();
    let pos_full = cosim.sim().find_signal("swhw.POS_FULL").unwrap();
    cosim.sim_mut().poke(ctl_reg, cosma_core::Value::Int(100));
    cosim
        .sim_mut()
        .poke(ctl_full, cosma_core::Value::Bit(cosma_core::Bit::One));
    cosim.run_for(Duration::from_us(2))?;
    cosim.sim_mut().poke(pos_reg, cosma_core::Value::Int(30));
    cosim
        .sim_mut()
        .poke(pos_full, cosma_core::Value::Bit(cosma_core::Bit::One));
    cosim.run_for(Duration::from_us(60))?;

    println!("\nafter the run:");
    println!(
        "  motor position: {} (target 30)",
        motor.borrow().position()
    );
    for (m, id) in hw.modules.iter().zip(&ids) {
        let st = cosim.module_status(*id);
        println!(
            "  {} in state {} after {} activations",
            m.name(),
            st.state,
            st.activations
        );
    }
    let pulses: Vec<i64> = cosim
        .trace_log()
        .with_label("pulse")
        .map(|e| e.values[0].as_int().unwrap())
        .collect();
    println!("  pulse train: {pulses:?}");
    let total: i64 = pulses.iter().sum();
    println!("  pulse sum = {total} (moves the motor exactly to the target)");
    assert_eq!(motor.borrow().position(), 30);
    Ok(())
}
