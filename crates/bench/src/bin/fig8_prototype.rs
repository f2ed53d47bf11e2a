//! Figure 8 — the prototype: PC-AT + FPGA board running the
//! co-synthesized Adaptive Motor Controller.
//!
//! Prints the complete prototype inventory the paper's "analysis of the
//! prototype system" refers to: software image size and memory map,
//! per-unit FPGA resources and timing, bus traffic, and the functional
//! outcome of the run. Exits non-zero when timing closure at the 10 MHz
//! fabric clock fails, the run does not complete, or the motor ends
//! away from the trajectory's total distance.

use cosma_board::BoardConfig;
use cosma_motor::{build_board, MotorConfig};
use cosma_synth::Encoding;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MotorConfig::default();
    let bcfg = BoardConfig::default();
    println!("=== Figure 8: the Adaptive Motor Controller prototype ===\n");
    println!(
        "board: CPU {} MHz, extension bus {} MHz ({} wait cycles/transfer), FPGA {} MHz",
        bcfg.cpu_hz / 1_000_000,
        bcfg.bus_hz / 1_000_000,
        bcfg.bus_wait_cycles,
        bcfg.fpga_hz / 1_000_000
    );

    let mut sys = build_board(&cfg, bcfg, Encoding::Binary)?;

    println!("\nsoftware part (Distribution on the CPU):");
    println!(
        "  image: {} words ({} bytes of EPROM)",
        sys.program.image.len_words(),
        sys.program.image.len_words() * 2
    );
    println!("  bus window at {:#05x}:", sys.program.io.base());
    for (name, addr) in sys.program.io.entries() {
        println!("    {addr:#06x}  {name}");
    }

    println!("\nhardware part (Speed Control in the FPGA):");
    println!(
        "  {:<14} {:>7} {:>6} {:>6} {:>6} {:>7} {:>9}",
        "unit", "states", "LUTs", "FFs", "CLBs", "depth", "fmax"
    );
    let mut luts = 0;
    let mut ffs = 0;
    let mut clbs = 0;
    let mut worst_fmax = f64::INFINITY;
    for r in &sys.reports {
        println!(
            "  {:<14} {:>7} {:>6} {:>6} {:>6} {:>7} {:>7.1}MHz",
            r.module, r.states, r.tech.luts, r.tech.ffs, r.tech.clbs, r.tech.depth, r.tech.fmax_mhz
        );
        luts += r.tech.luts;
        ffs += r.tech.ffs;
        clbs += r.tech.clbs;
        worst_fmax = worst_fmax.min(r.tech.fmax_mhz);
    }
    println!(
        "  {:<14} {:>7} {:>6} {:>6} {:>6} {:>7} {:>7.1}MHz",
        "TOTAL", "-", luts, ffs, clbs, "-", worst_fmax
    );
    let closes = worst_fmax > 10.0;
    println!(
        "  timing closure at the 10 MHz fabric clock: {}",
        if closes { "YES" } else { "NO" }
    );
    println!("  (an XC4005 carries ~196 CLBs, an XC4010 ~400 — the paper's 4000 series)");

    println!("\nrunning the prototype...");
    let done = sys.run_to_completion(1_000_000, 400)?;
    let elapsed_ms = sys.board.now_fs() as f64 / 1e12;
    println!("  trajectory complete: {done} after {elapsed_ms:.2} ms of board time");
    let position = sys.motor.borrow().position();
    println!("  motor position: {position} / {}", cfg.total_distance());
    let stats = sys.board.bus_stats(sys.cpu);
    println!(
        "  cpu: {} cycles; bus: {} reads, {} writes, {} unmapped",
        sys.board.cpu_cycles(sys.cpu),
        stats.reads,
        stats.writes,
        stats.unmapped
    );
    println!("  fabric: {} clock ticks", sys.board.fabric_ticks());
    let log = sys.board.trace_log();
    println!(
        "  events: {} send_pos, {} motor_state, {} pulse batches",
        log.with_label("send_pos").count(),
        log.with_label("motor_state").count(),
        log.with_label("pulse").count()
    );
    if !closes {
        return Err(format!("timing closure fails: worst fmax {worst_fmax:.1} MHz").into());
    }
    if !done || position != cfg.total_distance() {
        return Err(format!(
            "the prototype did not finish the trajectory: completed {done}, position \
             {position} of {}",
            cfg.total_distance()
        )
        .into());
    }
    println!(
        "\nthe prototype correctly implements the system functionality\n\
         (functional outcome identical to co-simulation; see claim_coherence)"
    );
    Ok(())
}
