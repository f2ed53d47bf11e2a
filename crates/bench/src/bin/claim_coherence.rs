//! Claim C1 — coherence between co-simulation and co-synthesis.
//!
//! Runs the same motor-controller description through both flows and
//! compares the externally visible event sequences label by label,
//! reporting the match rate (the paper's claim: the two never diverge,
//! because both consume the same description). Exits non-zero when any
//! scenario does not complete or its traces diverge.

use cosma_board::BoardConfig;
use cosma_cosim::CosimConfig;
use cosma_motor::{build_board, build_cosim, MotorConfig};
use cosma_sim::Duration;
use cosma_synth::Encoding;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Claim C1: co-simulation / co-synthesis coherence ===\n");
    let mut rows = vec![];
    for (name, cfg) in [
        ("default (4x25)", MotorConfig::default()),
        (
            "short (2x10)",
            MotorConfig {
                segments: 2,
                segment_len: 10,
                ..MotorConfig::default()
            },
        ),
        (
            "long (6x15)",
            MotorConfig {
                segments: 6,
                segment_len: 15,
                ..MotorConfig::default()
            },
        ),
        (
            "fast motor",
            MotorConfig {
                motor_speed: 5,
                max_pulse: 4,
                ..MotorConfig::default()
            },
        ),
    ] {
        let mut cs = build_cosim(&cfg, CosimConfig::default())?;
        let cdone = cs.run_to_completion(Duration::from_us(100), 400)?;
        let mut bs = build_board(&cfg, BoardConfig::default(), Encoding::Binary)?;
        let bdone = bs.run_to_completion(1_000_000, 600)?;
        let mut total_events = 0usize;
        let mut matched_events = 0usize;
        let mut all = true;
        for label in ["send_pos", "motor_state", "pulse", "done"] {
            let a = cs.cosim.trace_log().filtered(|e| e.label == label);
            let b = bs.board.trace_log().filtered(|e| e.label == label);
            let cmp = a.compare(&b);
            total_events += cmp.left_len.max(cmp.right_len);
            matched_events += cmp.matched;
            all &= cmp.is_match();
        }
        rows.push((name, cdone && bdone, total_events, matched_events, all));
    }

    println!(
        "{:<16} {:>9} {:>8} {:>8} {:>11} {:>9}",
        "scenario", "completed", "events", "matched", "match rate", "coherent"
    );
    let mut overall = true;
    for (name, done, total, matched, all) in rows {
        println!(
            "{name:<16} {:>9} {total:>8} {matched:>8} {:>10.1}% {:>9}",
            done,
            100.0 * matched as f64 / total.max(1) as f64,
            if all { "YES" } else { "NO" }
        );
        overall &= all && done;
    }
    println!(
        "\nclaim C1 ({}) — the same description produces the same behaviour\n\
         under joint simulation and on the synthesized prototype",
        if overall {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
    if overall {
        Ok(())
    } else {
        Err("a scenario is incomplete or its traces diverge".into())
    }
}
