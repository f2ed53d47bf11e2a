//! The complete Figure 1 flow on the motor controller: the *same* system
//! description is co-simulated (validation) and then co-synthesized onto
//! the PC-AT + FPGA prototype (Figure 8), and the two runs are compared
//! event-for-event — the unified-model coherence property.
//!
//! Run with: `cargo run --example cosynthesis_flow`

use cosma::board::BoardConfig;
use cosma::cosim::CosimConfig;
use cosma::motor::{build_board, build_cosim, MotorConfig};
use cosma::sim::Duration;
use cosma::synth::Encoding;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MotorConfig::default();

    // --- step 1: co-simulation (functional validation) -------------------
    println!("[1/3] co-simulation...");
    let mut cs = build_cosim(&cfg, CosimConfig::default())?;
    let ok = cs.run_to_completion(Duration::from_us(100), 200)?;
    println!(
        "      finished: {ok}, motor at {}",
        cs.motor.borrow().position()
    );

    // --- step 2: co-synthesis --------------------------------------------
    println!("[2/3] co-synthesis to the PC-AT + FPGA board...");
    let mut bs = build_board(&cfg, BoardConfig::default(), Encoding::Binary)?;
    println!(
        "      software: {} image words, {} I/O ports at {:#05x}",
        bs.program.image.len_words(),
        bs.program.io.entries().len(),
        bs.program.io.base()
    );
    for r in &bs.reports {
        println!("      hardware: {r}");
    }
    let total: u64 = bs.reports.iter().map(|r| r.tech.clbs).sum();
    println!("      total FPGA usage: ~{total} CLBs (XC4000-class)");

    let ok = bs.run_to_completion(1_000_000, 400)?;
    println!(
        "      board run finished: {ok}, motor at {}",
        bs.motor.borrow().position()
    );
    println!(
        "      cpu: {} cycles, bus: {:?}",
        bs.board.cpu_cycles(bs.cpu),
        bs.board.bus_stats(bs.cpu)
    );

    // --- step 3: coherence check ------------------------------------------
    println!("[3/3] coherence (co-simulation vs co-synthesis traces)...");
    let mut all_match = true;
    for label in ["send_pos", "motor_state", "pulse", "done"] {
        let a = cs.cosim.trace_log().filtered(|e| e.label == label);
        let b = bs.board.trace_log().filtered(|e| e.label == label);
        let cmp = a.compare(&b);
        println!(
            "      {label:<12} {:>4} vs {:>4} events: {} (match rate {:.0}%)",
            cmp.left_len,
            cmp.right_len,
            if cmp.is_match() { "MATCH" } else { "DIVERGE" },
            cmp.match_rate() * 100.0
        );
        all_match &= cmp.is_match();
    }
    println!("coherence: {}", if all_match { "PASS" } else { "FAIL" });
    if all_match {
        Ok(())
    } else {
        Err("co-simulation and co-synthesis traces diverge".into())
    }
}
