//! Figure 1 — the unified methodology flow.
//!
//! Starts from a mixed C (software) + VHDL (hardware) description, runs
//! the complete flow — front-ends → unified IR → co-simulation →
//! co-synthesis → board execution — and prints the artifact produced at
//! each stage, demonstrating that both flows consume the same description.

use cosma_comm::handshake_unit;
use cosma_core::{ModuleKind, Type};
use cosma_cosim::{Cosim, CosimConfig};
use cosma_frontend::{c, vhdl, ElabOptions, ServiceBinding};
use cosma_sim::Duration;
use cosma_synth::{compile_sw, flatten_module, synthesize_hw, Encoding, IoMap};
use std::collections::HashMap;

const C_SRC: &str = r#"
typedef enum { Start, PutCall, Bump, Finished } ST;
ST NextState = Start;
int SAMPLE = 0;
int SENT = 0;
int SENDER()
{
    switch (NextState) {
    case Start:   { SAMPLE = 3; NextState = PutCall; } break;
    case PutCall: { if (put(SAMPLE)) { NextState = Bump; } } break;
    case Bump:
    {
        SENT = SENT + 1;
        SAMPLE = SAMPLE * 3;
        if (SENT < 4) { NextState = PutCall; } else { NextState = Finished; }
    } break;
    case Finished: { } break;
    default: { NextState = Start; }
    }
    return 1;
}
"#;

const VHDL_SRC: &str = r#"
entity SINK is
  port ( TOTAL : out integer );
end entity;
architecture fsm of SINK is
  signal ACC : integer := 0;
begin
  RX : process
    variable V : integer := 0;
  begin
    get;
    if GET_DONE then
      V := GET_RESULT;
      ACC <= ACC + V;
      TOTAL <= ACC + V;
    end if;
    wait for CYCLE;
  end process;
end architecture;
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Figure 1: the unified co-simulation / co-synthesis flow ===\n");

    // Stage 1: front-ends.
    println!("[stage 1] front-ends (mixed C, VHDL description)");
    let sender = c::compile_module(
        C_SRC,
        "SENDER",
        ModuleKind::Software,
        &ElabOptions {
            bindings: vec![ServiceBinding::new("iface", "hs", &["put"])],
        },
    )?;
    println!(
        "  C  -> module `{}`: {} states, {} vars",
        sender.name(),
        sender.fsm().state_count(),
        sender.vars().len()
    );
    let hw = vhdl::compile_entity(
        VHDL_SRC,
        "SINK",
        &ElabOptions {
            bindings: vec![ServiceBinding::new("iface", "hs", &["GET"])],
        },
    )?;
    println!(
        "  VHDL -> entity `{}`: {} process(es), {} net(s)",
        hw.name,
        hw.modules.len(),
        hw.nets.len()
    );
    let unit = handshake_unit("hs", Type::INT16);
    println!(
        "  communication unit `{}` from the library: {} wires, {} services, controller: yes",
        unit.name(),
        unit.wires().len(),
        unit.services().len()
    );

    // Stage 2: co-simulation.
    println!("\n[stage 2] co-simulation (VHDL-semantics kernel)");
    let mut cosim = Cosim::new(CosimConfig::default());
    let link = cosim.add_fsm_unit("link", unit.clone());
    cosim.add_module(&sender, &[("iface", link)])?;
    let nets: Vec<_> = hw
        .nets
        .iter()
        .map(|n| {
            cosim
                .sim_mut()
                .add_signal(format!("SINK.{}", n.name), n.ty.clone(), n.init.clone())
        })
        .collect();
    for m in &hw.modules {
        cosim.add_module_with_ports(m, &[("iface", link)], nets.clone())?;
    }
    cosim.run_for(Duration::from_us(60))?;
    let total_sig = cosim.sim().find_signal("SINK.TOTAL").expect("net exists");
    println!(
        "  SINK.TOTAL after run: {:?} (expect 3+9+27+81 = 120)",
        cosim.sim().value(total_sig)
    );
    let ks = cosim.sim().stats();
    println!(
        "  kernel: {} process runs, {} events, {} deltas",
        ks.process_runs, ks.events, ks.deltas
    );

    // Stage 3: co-synthesis — same descriptions, views swapped.
    println!("\n[stage 3] co-synthesis (same description, target views)");
    let mut units = HashMap::new();
    units.insert("iface".to_string(), unit.clone());
    let sender_flat = flatten_module(&sender, &units)?;
    let io = IoMap::for_module(0x300, &sender_flat);
    let prog = compile_sw(&sender_flat, &io)?;
    println!(
        "  SW synthesis: {} -> MC16, {} image words, ports at {:#05x}..{:#05x}",
        sender.name(),
        prog.image.len_words(),
        io.base(),
        io.base() + io.entries().len() as u16 - 1
    );
    for m in &hw.modules {
        let flat = flatten_module(m, &units)?;
        let (_, report) = synthesize_hw(&flat, Encoding::Binary)?;
        println!("  HW synthesis: {report}");
    }
    let ctrl = cosma_synth::controller_module(&unit, "iface")?;
    let (_, creport) = synthesize_hw(&ctrl, Encoding::Binary)?;
    println!("  IF synthesis: {creport}");

    println!("\nflow complete — one description, two coherent implementations");
    Ok(())
}
