//! Value Change Dump (VCD) writer — IEEE 1364 text format, hand-rolled.
//!
//! The recorder is attached to a [`crate::Simulator`] via
//! [`crate::Simulator::record_vcd`]; every signal event is appended and
//! [`VcdRecorder::finish`] renders the complete file.

use crate::signal::SignalId;
use crate::time::SimTime;
use cosma_core::{Bit, Type, Value};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Records signal declarations and changes, rendering VCD text on demand.
#[derive(Debug, Default)]
pub struct VcdRecorder {
    /// (id code, name, width) per declared signal.
    decls: Vec<(String, String, u32)>,
    ids: HashMap<SignalId, usize>,
    /// Initial values, dumped in `$dumpvars`.
    initials: Vec<String>,
    /// (time, rendered change line) events.
    changes: Vec<(SimTime, String)>,
}

/// Generates the short printable id code for the n-th signal
/// (`!`, `"`, ... like real VCD tools).
fn code(n: usize) -> String {
    let mut n = n;
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

fn bit_char(b: Bit) -> char {
    match b {
        Bit::Zero => '0',
        Bit::One => '1',
        Bit::X => 'x',
        Bit::Z => 'z',
    }
}

fn render_value(v: &Value, width: u32, id: &str) -> String {
    match v {
        Value::Bit(b) => format!("{}{}", bit_char(*b), id),
        Value::Bool(b) => format!("{}{}", u8::from(*b), id),
        Value::Int(_) | Value::Enum(_) => {
            let word = v.to_bus_word(width.max(1));
            let mut bits = String::new();
            for i in (0..width.max(1)).rev() {
                bits.push(if (word >> i) & 1 == 1 { '1' } else { '0' });
            }
            format!("b{bits} {id}")
        }
    }
}

impl VcdRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a signal; must precede any [`change`](VcdRecorder::change)
    /// for it.
    pub fn declare(&mut self, sig: SignalId, name: &str, ty: &Type, init: &Value) {
        let idx = self.decls.len();
        let id = code(idx);
        let width = ty.bit_width();
        // VCD identifiers may not contain whitespace; sanitize the name.
        let clean: String = name
            .chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect();
        self.initials.push(render_value(init, width, &id));
        self.decls.push((id, clean, width));
        self.ids.insert(sig, idx);
    }

    /// Records a value change. Changes for undeclared signals are ignored
    /// (they were added after recording started).
    pub fn change(&mut self, at: SimTime, sig: SignalId, value: &Value) {
        if let Some(&idx) = self.ids.get(&sig) {
            let (id, _, width) = &self.decls[idx];
            self.changes.push((at, render_value(value, *width, id)));
        }
    }

    /// Renders the complete VCD file, ending at `end`.
    #[must_use]
    pub fn finish(self, end: SimTime) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date cosma $end");
        let _ = writeln!(out, "$version cosma-sim VCD writer $end");
        let _ = writeln!(out, "$timescale 1fs $end");
        let _ = writeln!(out, "$scope module top $end");
        for (id, name, width) in &self.decls {
            let _ = writeln!(out, "$var wire {width} {id} {name} $end");
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let _ = writeln!(out, "$dumpvars");
        for line in &self.initials {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "$end");
        let mut last_time: Option<SimTime> = None;
        for (t, line) in &self.changes {
            if last_time != Some(*t) {
                let _ = writeln!(out, "#{}", t.as_fs());
                last_time = Some(*t);
            }
            let _ = writeln!(out, "{line}");
        }
        if last_time != Some(end) {
            let _ = writeln!(out, "#{}", end.as_fs());
        }
        out
    }

    /// Number of change records so far.
    #[must_use]
    pub fn change_count(&self) -> usize {
        self.changes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Simulator};

    #[test]
    fn id_codes_are_compact_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            assert!(seen.insert(code(i)), "duplicate code at {i}");
        }
        assert_eq!(code(0), "!");
        assert_eq!(code(93), "~");
        assert_eq!(code(94).len(), 2);
    }

    #[test]
    fn bit_changes_render_plainly() {
        let mut r = VcdRecorder::new();
        r.declare(SignalId(0), "CLK", &Type::Bit, &Value::Bit(Bit::Zero));
        r.change(SimTime::from_ns(1), SignalId(0), &Value::Bit(Bit::One));
        let text = r.finish(SimTime::from_ns(2));
        assert!(text.contains("$var wire 1 ! CLK $end"), "{text}");
        assert!(text.contains("#1000000\n1!"), "{text}");
        assert!(text.contains("$timescale 1fs $end"), "{text}");
    }

    #[test]
    fn int_changes_render_binary_vectors() {
        let mut r = VcdRecorder::new();
        r.declare(SignalId(0), "DATA", &Type::INT16, &Value::Int(0));
        r.change(SimTime::from_ns(5), SignalId(0), &Value::Int(5));
        let text = r.finish(SimTime::from_ns(6));
        assert!(text.contains("$var wire 16 ! DATA $end"), "{text}");
        assert!(text.contains("b0000000000000101 !"), "{text}");
    }

    #[test]
    fn undeclared_signal_changes_ignored() {
        let mut r = VcdRecorder::new();
        r.change(SimTime::ZERO, SignalId(9), &Value::Int(1));
        assert_eq!(r.change_count(), 0);
    }

    #[test]
    fn simulator_integration_produces_vcd() {
        let mut sim = Simulator::new();
        let clk = sim.add_bit("CLK");
        sim.add_clock("gen", clk, Duration::from_ns(10));
        sim.record_vcd();
        sim.run_for(Duration::from_ns(50)).unwrap();
        let vcd = sim.take_vcd().expect("recording enabled");
        assert!(vcd.contains("$enddefinitions"));
        // Clock toggles at 0,5,10,...: at least 8 change lines.
        assert!(
            vcd.matches("\n1!").count() + vcd.matches("\n0!").count() >= 8,
            "{vcd}"
        );
        assert!(sim.take_vcd().is_none(), "take_vcd drains the recorder");
    }

    #[test]
    fn enum_signals_render_binary_codes() {
        use cosma_core::{EnumType, EnumValue};
        let ty = EnumType::new("ST", vec!["A".into(), "B".into(), "C".into()]);
        let mut r = VcdRecorder::new();
        r.declare(
            SignalId(0),
            "STATE",
            &Type::Enum(ty.clone()),
            &Value::Enum(EnumValue::new(ty.clone(), "A").unwrap()),
        );
        r.change(
            SimTime::from_ns(1),
            SignalId(0),
            &Value::Enum(EnumValue::new(ty, "C").unwrap()),
        );
        let text = r.finish(SimTime::from_ns(2));
        assert!(text.contains("$var wire 2 ! STATE $end"), "{text}");
        assert!(text.contains("b10 !"), "{text}");
    }

    #[test]
    fn whitespace_in_names_sanitized() {
        let mut r = VcdRecorder::new();
        r.declare(SignalId(0), "BUS ACK", &Type::Bit, &Value::Bit(Bit::Zero));
        let text = r.finish(SimTime::ZERO);
        assert!(text.contains("BUS_ACK"), "{text}");
    }
}
