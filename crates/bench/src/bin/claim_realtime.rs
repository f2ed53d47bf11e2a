//! Claim C3 — "meeting the real-time constraints".
//!
//! The paper's analysis of the prototype reports that the synthesized
//! system meets its real-time constraints. We make the constraints
//! explicit and measure them on the board model:
//!
//! * **pulse cadence** — while a segment is in motion, consecutive pulse
//!   batches must arrive within the cadence deadline (a starving motor
//!   means discontinuous motion, exactly what the controller exists to
//!   avoid);
//! * **segment turnaround** — the software side must learn of segment
//!   completion within the turnaround deadline.

use cosma_board::BoardConfig;
use cosma_motor::{build_board, MotorConfig};
use cosma_synth::Encoding;

const PULSE_DEADLINE_US: f64 = 10.0;
const TURNAROUND_DEADLINE_MS: f64 = 2.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Claim C3: real-time constraints on the prototype ===\n");
    let cfg = MotorConfig::default();
    let mut sys = build_board(&cfg, BoardConfig::default(), Encoding::Binary)?;
    let done = sys.run_to_completion(1_000_000, 400)?;
    assert!(done, "prototype must complete the trajectory");
    let log = sys.board.trace_log();

    // Pulse cadence: gaps between consecutive pulse events *within* a
    // segment (reset across segment boundaries, detected via send_pos).
    let mut pulse_times: Vec<u64> = log.with_label("pulse").map(|e| e.at).collect();
    pulse_times.sort_unstable();
    let seg_times: Vec<u64> = log.with_label("send_pos").map(|e| e.at).collect();
    let mut gaps_us: Vec<f64> = vec![];
    for w in pulse_times.windows(2) {
        let crosses_segment = seg_times.iter().any(|&t| w[0] < t && t <= w[1]);
        if !crosses_segment {
            gaps_us.push((w[1] - w[0]) as f64 / 1e9);
        }
    }
    let max_gap = gaps_us.iter().copied().fold(0.0f64, f64::max);
    let avg_gap = gaps_us.iter().sum::<f64>() / gaps_us.len().max(1) as f64;
    println!("pulse cadence ({} in-segment gaps):", gaps_us.len());
    println!("  average gap: {avg_gap:.2} us, worst gap: {max_gap:.2} us");
    println!(
        "  deadline {PULSE_DEADLINE_US:.1} us -> {} (margin {:.1}%)",
        if max_gap <= PULSE_DEADLINE_US {
            "MET"
        } else {
            "MISSED"
        },
        100.0 * (PULSE_DEADLINE_US - max_gap) / PULSE_DEADLINE_US
    );

    // Segment turnaround: send_pos(k) -> motor_state(k) latency.
    let state_times: Vec<u64> = log.with_label("motor_state").map(|e| e.at).collect();
    let mut turnarounds_ms: Vec<f64> = vec![];
    for (s, e) in seg_times.iter().zip(&state_times) {
        turnarounds_ms.push((e.saturating_sub(*s)) as f64 / 1e12);
    }
    let worst_ta = turnarounds_ms.iter().copied().fold(0.0f64, f64::max);
    println!("\nsegment turnaround ({} segments):", turnarounds_ms.len());
    for (k, t) in turnarounds_ms.iter().enumerate() {
        println!("  segment {}: {t:.3} ms", k + 1);
    }
    println!(
        "  deadline {TURNAROUND_DEADLINE_MS:.1} ms -> {} (worst {worst_ta:.3} ms, margin {:.1}%)",
        if worst_ta <= TURNAROUND_DEADLINE_MS {
            "MET"
        } else {
            "MISSED"
        },
        100.0 * (TURNAROUND_DEADLINE_MS - worst_ta) / TURNAROUND_DEADLINE_MS
    );

    // Bus headroom: how much of the CPU's time went to bus waits.
    let stats = sys.board.bus_stats(sys.cpu);
    let bus_cycles =
        (stats.reads + stats.writes) * u64::from(BoardConfig::default().bus_wait_cycles + 4);
    let total_cycles = sys.board.cpu_cycles(sys.cpu);
    println!(
        "\nbus occupancy: {} transactions, ~{:.1}% of {} CPU cycles",
        stats.reads + stats.writes,
        100.0 * bus_cycles as f64 / total_cycles as f64,
        total_cycles
    );

    let met = max_gap <= PULSE_DEADLINE_US && worst_ta <= TURNAROUND_DEADLINE_MS;
    println!(
        "\nclaim C3 ({}) — the prototype meets its real-time constraints with margin",
        if met { "REPRODUCED" } else { "NOT reproduced" }
    );
    if met {
        Ok(())
    } else {
        Err("a pulse gap or segment turnaround missed its deadline".into())
    }
}
