//! Figure 4 — the Adaptive Motor Controller system.
//!
//! A 2-D trajectory needs one motor and one controller instance per axis
//! (X and Y) for continuous movement. Runs both axes under co-simulation
//! and prints the per-segment convergence tables plus the motion
//! continuity metric. Exits non-zero when an axis does not complete or
//! its motor ends away from the trajectory's total distance.

use cosma_cosim::CosimConfig;
use cosma_motor::{build_cosim, MotorConfig};
use cosma_sim::Duration;

fn run_axis(name: &str, cfg: &MotorConfig) -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = build_cosim(cfg, CosimConfig::default())?;
    let done = sys.run_to_completion(Duration::from_us(100), 300)?;
    println!(
        "\n--- axis {name}: {} segments x {} counts ---",
        cfg.segments, cfg.segment_len
    );
    let position = sys.motor.borrow().position();
    println!("completed: {done}, final position: {position}");
    let log = sys.cosim.trace_log();
    let sent: Vec<i64> = log
        .with_label("send_pos")
        .map(|e| e.values[0].as_int().unwrap())
        .collect();
    let reached: Vec<i64> = log
        .with_label("motor_state")
        .map(|e| e.values[0].as_int().unwrap())
        .collect();
    println!("{:>8} {:>10} {:>10}", "segment", "target", "reached");
    for (k, (t, r)) in sent.iter().zip(&reached).enumerate() {
        println!("{:>8} {:>10} {:>10}", k + 1, t, r);
    }
    let m = sys.motor.borrow();
    println!(
        "continuity: {} moving ticks / {} total steps (speed limit {}/tick)",
        m.moving_ticks(),
        m.total_steps(),
        cfg.motor_speed
    );
    if !done || position != cfg.total_distance() {
        return Err(format!(
            "axis {name} did not converge: completed {done}, position {position} of {}",
            cfg.total_distance()
        )
        .into());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Figure 4: 2-D adaptive motor control (one controller per axis) ===");
    // X axis: the paper's default trajectory.
    run_axis("X", &MotorConfig::default())?;
    // Y axis: a different trajectory shape (more, shorter segments).
    run_axis(
        "Y",
        &MotorConfig {
            segments: 6,
            segment_len: 10,
            ..MotorConfig::default()
        },
    )?;
    println!("\nboth axes converge segment-by-segment — continuous 2-D movement");
    Ok(())
}
