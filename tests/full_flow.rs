//! Integration: mixed C + VHDL input through the front-ends into a joint
//! co-simulation — the paper's actual starting point (Figure 1's top).

use cosma::cfront;
use cosma::comm::handshake_unit;
use cosma::core::{ModuleKind, Type, Value};
use cosma::cosim::{Cosim, CosimConfig, SchedulingConfig};
use cosma::sim::Duration;
use cosma::vhdl;

const C_SENDER: &str = r#"
typedef enum { Start, PutCall, Bump, Finished } ST;
ST NextState = Start;
int SAMPLE = 0;
int SENT = 0;

int SENDER()
{
    switch (NextState) {
    case Start:   { SAMPLE = 7; NextState = PutCall; } break;
    case PutCall: { if (put(SAMPLE)) { NextState = Bump; } } break;
    case Bump:
    {
        SENT = SENT + 1;
        SAMPLE = SAMPLE + 10;
        if (SENT < 5) { NextState = PutCall; }
        else          { NextState = Finished; }
    } break;
    case Finished: { } break;
    default: { NextState = Start; }
    }
    return 1;
}
"#;

const VHDL_RECEIVER: &str = r#"
entity RECEIVER is
  port ( TOTAL : out integer; COUNT : out integer );
end entity;

architecture fsm of RECEIVER is
  signal ACC : integer := 0;
  signal N : integer := 0;
begin
  SINK : process
    variable V : integer := 0;
  begin
    get;
    if GET_DONE then
      V := GET_RESULT;
      ACC <= ACC + V;
      TOTAL <= ACC + V;
      N <= N + 1;
      COUNT <= N + 1;
    end if;
    wait for CYCLE;
  end process;
end architecture;
"#;

#[test]
fn c_and_vhdl_cosimulate_through_a_unit() {
    let sender = cfront::compile_module(
        C_SENDER,
        "SENDER",
        ModuleKind::Software,
        &cfront::ElabOptions {
            bindings: vec![cfront::ServiceBinding::new("iface", "hs", &["put"])],
        },
    )
    .expect("C module elaborates");
    assert_eq!(sender.kind(), ModuleKind::Software);

    let hw = vhdl::compile_entity(
        VHDL_RECEIVER,
        "RECEIVER",
        &vhdl::ElabOptions {
            bindings: vec![vhdl::ServiceBinding::new("iface", "hs", &["GET"])],
        },
    )
    .expect("VHDL entity elaborates");
    assert_eq!(hw.modules.len(), 1);

    let mut cosim = Cosim::new(CosimConfig::default());
    let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
    let sender_id = cosim
        .add_module(&sender, &[("iface", link)])
        .expect("sender added");
    let nets: Vec<_> = hw
        .nets
        .iter()
        .map(|n| {
            cosim
                .sim_mut()
                .add_signal(format!("RECEIVER.{}", n.name), n.ty.clone(), n.init.clone())
        })
        .collect();
    for m in &hw.modules {
        cosim
            .add_module_with_ports(m, &[("iface", link)], nets.clone())
            .expect("receiver added");
    }
    cosim
        .run_for(Duration::from_us(60))
        .expect("co-simulation runs");

    // 7 + 17 + 27 + 37 + 47 = 135.
    let total = cosim
        .sim()
        .value(cosim.sim().find_signal("RECEIVER.TOTAL").unwrap());
    assert_eq!(total, &Value::Int(135));
    let count = cosim
        .sim()
        .value(cosim.sim().find_signal("RECEIVER.COUNT").unwrap());
    assert_eq!(count, &Value::Int(5));
    assert_eq!(cosim.module_status(sender_id).state, "Finished");

    let stats = cosim.unit_stats("link").expect("unit exists");
    assert_eq!(stats.services["put"].completions, 5);
    // The VHDL receiver calls "GET"; stats land in the canonical
    // lower-case row the spec declares (one session, one row — the
    // upper-cased spelling no longer forks either).
    assert_eq!(stats.services["get"].completions, 5);
    assert!(!stats.services.contains_key("GET"));
}

#[test]
fn front_end_views_round_trip_through_renderers() {
    // Elaborate from C, render back to C: the regenerated code preserves
    // the FSM skeleton (same state set).
    let sender = cfront::compile_module(
        C_SENDER,
        "SENDER",
        ModuleKind::Software,
        &cfront::ElabOptions {
            bindings: vec![cfront::ServiceBinding::new("iface", "hs", &["put"])],
        },
    )
    .unwrap();
    let text = cosma::core::render_module(&sender, cosma::core::View::SwSim);
    for st in ["Start", "PutCall", "Bump", "Finished"] {
        assert!(text.contains(&format!("case {st}")), "{text}");
    }
    let vhdl_text = cosma::core::render_module(&sender, cosma::core::View::Hw);
    assert!(vhdl_text.contains("entity SENDER"), "{vhdl_text}");
}

#[test]
fn same_description_both_flows_from_source() {
    // Parse once, use for co-simulation AND co-synthesis (coherence from
    // the same source text).
    use cosma::synth::{compile_sw, flatten_module, IoMap};
    use std::collections::HashMap;

    let sender = cfront::compile_module(
        C_SENDER,
        "SENDER",
        ModuleKind::Software,
        &cfront::ElabOptions {
            bindings: vec![cfront::ServiceBinding::new("iface", "hs", &["put"])],
        },
    )
    .unwrap();

    let mut units = HashMap::new();
    units.insert("iface".to_string(), handshake_unit("hs", Type::INT16));
    let flat = flatten_module(&sender, &units).expect("flattens");
    let prog = compile_sw(&flat, &IoMap::for_module(0x300, &flat)).expect("compiles");
    assert!(prog.image.len_words() > 50, "non-trivial program generated");
    assert!(prog.asm.contains("IN r0"), "bus polling code present");
    assert!(prog.asm.contains("OUT 0x03"), "bus drive code present");
}

/// A process that drives an integer onto its `std_logic` port.
const VHDL_BAD_DRIVE: &str = r#"
entity BAD is
  port ( FLAG : out std_logic );
end entity;

architecture fsm of BAD is
begin
  MAIN : process
  begin
    FLAG <= 5;
    wait for CYCLE;
  end process;
end architecture;
"#;

/// A sender that passes its enum state variable to an INT16 link's
/// `put`, whose protocol drives it onto the `DATA` wire.
const C_BAD_PUT: &str = r#"
typedef enum { Send, Idle } ST;
ST S = Send;

int SENDER()
{
    switch (S) {
    case Send: { if (put(S)) { S = Idle; } } break;
    case Idle: { } break;
    }
    return 1;
}
"#;

/// Runs `module` for 1 µs under both schedulers, bound to a fresh INT16
/// handshake `link` if it has a binding, and checks that the mistyped
/// drive halts it with an error naming `signal`, `ty` and `value`
/// instead of panicking the run.
fn assert_mistyped_drive_halts(module: &cosma::core::Module, signal: &str, ty: &str, value: &str) {
    for cfg in [SchedulingConfig::sharded(), SchedulingConfig::legacy()] {
        let mut cosim = Cosim::new(CosimConfig::default());
        cosim.set_scheduling(cfg).unwrap();
        let link = cosim.add_fsm_unit("link", handshake_unit("hs", Type::INT16));
        let bindings: &[(&str, _)] = if module.bindings().is_empty() {
            &[]
        } else {
            &[("iface", link)]
        };
        let id = cosim.add_module(module, bindings).expect("module installs");
        let err = cosim.run_for(Duration::from_us(1)).unwrap_err();
        let status = cosim.module_status(id);
        let msg = status.error.expect("the error is recorded on the module");
        assert_eq!(msg, err.to_string(), "{cfg:?}");
        let want = format!("drive of signal {signal} ({ty}) with incompatible value {value}");
        assert!(msg.contains(&want), "{cfg:?}: {msg}");
    }
}

#[test]
fn a_vhdl_drive_of_the_wrong_kind_halts_its_module() {
    let hw = vhdl::compile_entity(VHDL_BAD_DRIVE, "BAD", &vhdl::ElabOptions::default())
        .expect("VHDL entity elaborates");
    let name = format!("{}.FLAG", hw.modules[0].name());
    assert_mistyped_drive_halts(&hw.modules[0], &name, "bit", "Int(5)");
}

#[test]
fn a_c_put_of_the_wrong_kind_halts_its_module() {
    let sender = cfront::compile_module(
        C_BAD_PUT,
        "SENDER",
        ModuleKind::Software,
        &cfront::ElabOptions {
            bindings: vec![cfront::ServiceBinding::new("iface", "hs", &["put"])],
        },
    )
    .expect("C module elaborates");
    assert_mistyped_drive_halts(&sender, "link.DATA", "int16", "Enum(");
}
