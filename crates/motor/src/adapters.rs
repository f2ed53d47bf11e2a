//! Motor adapters: bind the plant model to each platform's wire world.
//!
//! Both adapters implement the same contract at the `motor_link` unit's
//! wires — consume a pulse batch per strobe/ack handshake, execute motion
//! at the speed limit, continuously drive the sampled coordinate — and
//! both record identical `pulse` trace events, which is what makes
//! co-simulation and board runs comparable.

use crate::plant::MotorModel;
use cosma_board::{Peripheral, SlotId, WireBank};
use cosma_core::{Bit, Value};
use cosma_cosim::TraceLog;
use cosma_sim::{ClockControl, Edge, ProcessId, SignalId, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle to a motor axis, so harnesses can inspect the plant
/// while an adapter owns the interaction.
pub type SharedMotor = Rc<RefCell<MotorModel>>;

/// Creates a shared motor axis.
#[must_use]
pub fn shared_motor(max_steps_per_tick: i64) -> SharedMotor {
    Rc::new(RefCell::new(MotorModel::new(max_steps_per_tick)))
}

/// The co-simulation adapter: a clocked kernel process on the HW clock,
/// attached to the `motor_link` unit instance's wire signals. Registers
/// through [`Simulator::add_clocked`], the same activation API the
/// backplane's own clocked bodies use.
pub struct MotorCosim {
    motor: SharedMotor,
    clk: SignalId,
    cmd: SignalId,
    strobe: SignalId,
    ack: SignalId,
    sampled: SignalId,
    trace: Rc<RefCell<TraceLog>>,
}

impl std::fmt::Debug for MotorCosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MotorCosim")
    }
}

impl MotorCosim {
    /// Creates the adapter over the given signals (typically found by
    /// name: `<instance>.PULSE_CMD` etc.).
    #[must_use]
    pub fn new(
        motor: SharedMotor,
        clk: SignalId,
        cmd: SignalId,
        strobe: SignalId,
        ack: SignalId,
        sampled: SignalId,
        trace: Rc<RefCell<TraceLog>>,
    ) -> Self {
        MotorCosim {
            motor,
            clk,
            cmd,
            strobe,
            ack,
            sampled,
            trace,
        }
    }

    /// Registers the adapter as a rising-edge clocked process named
    /// `"motor"` and returns its id.
    pub fn attach(self, sim: &mut Simulator) -> ProcessId {
        let MotorCosim {
            motor,
            clk,
            cmd,
            strobe,
            ack,
            sampled,
            trace,
        } = self;
        sim.add_clocked("motor", clk, Edge::Rising, move |ctx| {
            let strobe_v = ctx.read_bit(strobe);
            let ack_v = ctx.read_bit(ack);
            let mut motor = motor.borrow_mut();
            if strobe_v == Bit::One && ack_v == Bit::Zero {
                let n = ctx.read_int(cmd);
                motor.command_pulses(n);
                ctx.drive(ack, Value::Bit(Bit::One));
                trace
                    .borrow_mut()
                    .record(ctx.now().as_fs(), "motor", "pulse", vec![Value::Int(n)]);
            } else if strobe_v == Bit::Zero && ack_v == Bit::One {
                ctx.drive(ack, Value::Bit(Bit::Zero));
            }
            motor.tick();
            ctx.drive(sampled, Value::Int(motor.sampled()));
            ClockControl::Continue
        })
    }
}

/// The board adapter: a fabric peripheral over wire-bank slots named
/// `<instance>_PULSE_CMD`, `<instance>_PULSE_STROBE`,
/// `<instance>_PULSE_ACK` and `<instance>_SAMPLED_POS`.
///
/// The slots are looked up once, in the bank of the first tick. A wire
/// missing then reads 0 and ignores writes.
pub struct MotorPeripheral {
    motor: SharedMotor,
    prefix: String,
    slots: Option<MotorSlots>,
}

/// The `motor_link` slots of a [`MotorPeripheral`]; `None` = missing.
#[derive(Clone, Copy)]
struct MotorSlots {
    cmd: Option<SlotId>,
    strobe: Option<SlotId>,
    ack: Option<SlotId>,
    sampled: Option<SlotId>,
}

impl std::fmt::Debug for MotorPeripheral {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MotorPeripheral({})", self.prefix)
    }
}

impl MotorPeripheral {
    /// Creates the peripheral for the given unit-instance prefix (e.g.
    /// `"mlink"`).
    #[must_use]
    pub fn new(motor: SharedMotor, prefix: impl Into<String>) -> Self {
        MotorPeripheral {
            motor,
            prefix: prefix.into(),
            slots: None,
        }
    }
}

fn read(bank: &WireBank, slot: Option<SlotId>) -> u64 {
    slot.map_or(0, |id| bank.read(id))
}

fn write(bank: &mut WireBank, slot: Option<SlotId>, value: u64) {
    if let Some(id) = slot {
        bank.write(id, value);
    }
}

impl Peripheral for MotorPeripheral {
    fn tick(&mut self, bank: &mut WireBank, trace: &mut TraceLog, now_fs: u64) {
        let prefix = &self.prefix;
        let slots = *self.slots.get_or_insert_with(|| {
            let slot = |w: &str| bank.index(&format!("{prefix}_{w}"));
            MotorSlots {
                cmd: slot("PULSE_CMD"),
                strobe: slot("PULSE_STROBE"),
                ack: slot("PULSE_ACK"),
                sampled: slot("SAMPLED_POS"),
            }
        });
        let strobe = read(bank, slots.strobe) & 1;
        let ack = read(bank, slots.ack) & 1;
        let mut motor = self.motor.borrow_mut();
        if strobe == 1 && ack == 0 {
            let n = i64::from(read(bank, slots.cmd) as u16 as i16);
            motor.command_pulses(n);
            write(bank, slots.ack, 1);
            trace.record(now_fs, "motor", "pulse", vec![Value::Int(n)]);
        } else if strobe == 0 && ack == 1 {
            write(bank, slots.ack, 0);
        }
        motor.tick();
        write(bank, slots.sampled, motor.sampled() as u64 & 0xFFFF);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peripheral_handshake_and_sampling() {
        let motor = shared_motor(2);
        let mut p = MotorPeripheral::new(motor.clone(), "mlink");
        let mut bank = WireBank::new();
        bank.add("mlink_PULSE_CMD", 16, 0);
        bank.add("mlink_PULSE_STROBE", 1, 0);
        bank.add("mlink_PULSE_ACK", 1, 0);
        bank.add("mlink_SAMPLED_POS", 16, 0);
        let mut trace = TraceLog::new();

        // Present a batch of 3 with strobe.
        bank.write_named("mlink_PULSE_CMD", 3);
        bank.write_named("mlink_PULSE_STROBE", 1);
        p.tick(&mut bank, &mut trace, 0);
        assert_eq!(bank.read_named("mlink_PULSE_ACK"), Some(1));
        assert_eq!(trace.with_label("pulse").count(), 1);
        // Strobe held: no double consumption.
        p.tick(&mut bank, &mut trace, 1);
        assert_eq!(trace.with_label("pulse").count(), 1);
        // Drop strobe: ack clears; motion completes over ticks.
        bank.write_named("mlink_PULSE_STROBE", 0);
        p.tick(&mut bank, &mut trace, 2);
        assert_eq!(bank.read_named("mlink_PULSE_ACK"), Some(0));
        for t in 3..6 {
            p.tick(&mut bank, &mut trace, t);
        }
        assert_eq!(motor.borrow().position(), 3);
        assert_eq!(bank.read_named("mlink_SAMPLED_POS"), Some(3));
    }

    #[test]
    fn peripheral_missing_wires_read_zero_and_ignore_writes() {
        let motor = shared_motor(2);
        let mut p = MotorPeripheral::new(motor.clone(), "mlink");
        let mut bank = WireBank::new();
        bank.add("mlink_PULSE_CMD", 16, 3);
        bank.add("mlink_PULSE_STROBE", 1, 1);
        let mut trace = TraceLog::new();
        // No ACK wire: it reads 0, so every tick takes the batch again.
        p.tick(&mut bank, &mut trace, 0);
        p.tick(&mut bank, &mut trace, 1);
        assert_eq!(trace.with_label("pulse").count(), 2);
        assert_eq!(bank.len(), 2, "writes to missing wires declare nothing");
        // Slots are looked up on the first tick only.
        bank.add("mlink_PULSE_ACK", 1, 0);
        p.tick(&mut bank, &mut trace, 2);
        assert_eq!(bank.read_named("mlink_PULSE_ACK"), Some(0));
        assert_eq!(trace.with_label("pulse").count(), 3);
        assert_eq!(motor.borrow().position(), 6, "two steps per tick");
    }

    #[test]
    fn peripheral_negative_pulses() {
        let motor = shared_motor(5);
        let mut p = MotorPeripheral::new(motor.clone(), "mlink");
        let mut bank = WireBank::new();
        bank.add("mlink_PULSE_CMD", 16, 0);
        bank.add("mlink_PULSE_STROBE", 1, 0);
        bank.add("mlink_PULSE_ACK", 1, 0);
        bank.add("mlink_SAMPLED_POS", 16, 0);
        let mut trace = TraceLog::new();
        bank.write_named("mlink_PULSE_CMD", (-4i16 as u16).into());
        bank.write_named("mlink_PULSE_STROBE", 1);
        p.tick(&mut bank, &mut trace, 0);
        p.tick(&mut bank, &mut trace, 1);
        assert_eq!(motor.borrow().position(), -4);
        assert_eq!(
            bank.read_named("mlink_SAMPLED_POS"),
            Some((-4i16 as u16).into()),
            "two's complement on the wire"
        );
    }
}
