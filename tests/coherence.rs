//! Integration: the coherence property — co-simulation and co-synthesis
//! of the same description produce the same event sequences.

use cosma::board::BoardConfig;
use cosma::cosim::CosimConfig;
use cosma::motor::{build_board, build_cosim, MotorConfig};
use cosma::sim::Duration;
use cosma::synth::Encoding;

fn small_cfg() -> MotorConfig {
    MotorConfig {
        segments: 3,
        segment_len: 15,
        ..MotorConfig::default()
    }
}

#[test]
fn motor_system_coherent_across_flows() {
    let cfg = small_cfg();
    let mut cs = build_cosim(&cfg, CosimConfig::default()).expect("cosim assembles");
    assert!(
        cs.run_to_completion(Duration::from_us(100), 200)
            .expect("cosim runs"),
        "co-simulation completes"
    );
    let mut bs =
        build_board(&cfg, BoardConfig::default(), Encoding::Binary).expect("board assembles");
    assert!(
        bs.run_to_completion(1_000_000, 400).expect("board runs"),
        "board completes"
    );

    assert_eq!(cs.motor.borrow().position(), cfg.total_distance());
    assert_eq!(bs.motor.borrow().position(), cfg.total_distance());

    // Event-for-event trace equality per label.
    for label in ["send_pos", "motor_state", "pulse", "done"] {
        let a = cs.cosim.trace_log().filtered(|e| e.label == label);
        let b = bs.board.trace_log().filtered(|e| e.label == label);
        let cmp = a.compare(&b);
        assert!(cmp.is_match(), "label {label}: {cmp}");
        assert!(!a.is_empty(), "label {label} must have events");
    }
}

#[test]
fn coherence_holds_for_every_encoding() {
    // The hardware state encoding is an implementation choice; behaviour
    // must not depend on it.
    let cfg = MotorConfig {
        segments: 2,
        segment_len: 10,
        ..MotorConfig::default()
    };
    let mut reference: Option<Vec<i64>> = None;
    for enc in Encoding::ALL {
        let mut bs = build_board(&cfg, BoardConfig::default(), enc).expect("assembles");
        assert!(
            bs.run_to_completion(1_000_000, 400).expect("runs"),
            "completes under {enc}"
        );
        let pulses: Vec<i64> = bs
            .board
            .trace_log()
            .with_label("pulse")
            .map(|e| e.values[0].as_int().unwrap())
            .collect();
        match &reference {
            None => reference = Some(pulses),
            Some(r) => assert_eq!(r, &pulses, "encoding {enc} changed behaviour"),
        }
    }
}

#[test]
fn cosim_timing_change_preserves_events() {
    // Slowing the SW activation clock must not change the event sequence
    // (only its timing) — the protocols synchronize, not the clocks. The
    // 1:1 run (100 ns HW and SW cycles) is the reference; the slower SW
    // cycles cover activation ratios 2, 4, 7, 8 and 16.
    let cfg = small_cfg();
    let mut fast = build_cosim(&cfg, CosimConfig::default()).expect("assembles");
    assert!(fast
        .run_to_completion(Duration::from_us(100), 300)
        .expect("runs"));
    for sw_ns in [200, 400, 700, 800, 1600] {
        let slow_cfg = CosimConfig {
            sw_cycle: Duration::from_ns(sw_ns),
            ..CosimConfig::default()
        };
        let mut slow = build_cosim(&cfg, slow_cfg).expect("assembles");
        assert!(
            slow.run_to_completion(Duration::from_us(100), 300)
                .expect("runs"),
            "the trajectory completes with a {sw_ns} ns SW cycle"
        );
        for label in ["send_pos", "motor_state", "done"] {
            let a = fast.cosim.trace_log().filtered(|e| e.label == label);
            let b = slow.cosim.trace_log().filtered(|e| e.label == label);
            assert!(
                a.compare(&b).is_match(),
                "label {label} diverged with a {sw_ns} ns SW cycle"
            );
        }
    }
}

#[test]
fn back_annotation_improves_timing_prediction() {
    use cosma::cosim::{back_annotate, timing_error};
    let cfg = small_cfg();
    let labels = ["send_pos", "motor_state", "pulse"];
    let nominal = CosimConfig::default();
    let mut cs = build_cosim(&cfg, nominal).expect("assembles");
    assert!(cs
        .run_to_completion(Duration::from_us(100), 300)
        .expect("runs"));
    let mut bs = build_board(&cfg, BoardConfig::default(), Encoding::Binary).expect("assembles");
    assert!(bs.run_to_completion(1_000_000, 600).expect("runs"));
    let board_log = bs.board.trace_log();

    let before = timing_error(&cs.cosim.trace_log(), &board_log, &labels).expect("events exist");
    // Iterate the annotation to a fixed point.
    let mut sw_cycle = nominal.sw_cycle;
    let mut last_log = cs.cosim.trace_log();
    for _ in 0..8 {
        let Some(ann) = back_annotate(&last_log, &board_log, &labels, sw_cycle) else {
            break;
        };
        if (ann.scale - 1.0).abs() < 0.02 {
            break;
        }
        sw_cycle = ann.annotated_sw_cycle;
        let mut rerun = build_cosim(
            &cfg,
            CosimConfig {
                sw_cycle,
                ..nominal
            },
        )
        .expect("assembles");
        assert!(rerun
            .run_to_completion(Duration::from_us(500), 600)
            .expect("runs"));
        last_log = rerun.cosim.trace_log();
    }
    let after = timing_error(&last_log, &board_log, &labels).expect("events exist");
    assert!(
        after < before / 5.0,
        "annotation should cut the timing error substantially: {before:.3} -> {after:.3}"
    );
    // Functionality unchanged by annotation.
    for label in labels {
        let a = board_log.filtered(|e| e.label == label);
        let b = last_log.filtered(|e| e.label == label);
        assert!(
            a.compare(&b).is_match(),
            "label {label} diverged under annotation"
        );
    }
}

#[test]
fn synthesized_netlists_emit_structural_vhdl() {
    use cosma::synth::netlist_to_vhdl;
    let cfg = small_cfg();
    let bs = build_board(&cfg, BoardConfig::default(), Encoding::Binary).expect("assembles");
    // Re-synthesize the units to get their netlists for emission.
    let mut units = std::collections::HashMap::new();
    units.insert("swhw".to_string(), cosma::motor::swhw_link_unit());
    units.insert("mlink".to_string(), cosma::motor::motor_link_unit());
    for module in [
        cosma::motor::position_module(&cfg),
        cosma::motor::core_module(),
        cosma::motor::timer_module(&cfg),
    ] {
        let flat = cosma::synth::flatten_module(&module, &units).expect("flattens");
        let (nl, _) = cosma::synth::synthesize_hw(&flat, Encoding::Binary).expect("synthesizes");
        let vhdl = netlist_to_vhdl(&nl);
        assert!(vhdl.contains("entity "), "entity present");
        assert!(
            vhdl.contains("rising_edge(CLK)"),
            "clocked registers present"
        );
        assert!(vhdl.lines().count() > 50, "non-trivial structural body");
    }
    drop(bs);
}
