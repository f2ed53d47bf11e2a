//! Signals: the typed, delta-cycle-updated state of the simulation.

use crate::time::SimTime;
use cosma_core::{EvalError, Type, Value};
use std::fmt;

/// Identifies a signal within a [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig{}", self.0)
    }
}

/// A signal's bookkeeping inside the kernel.
#[derive(Debug, Clone)]
pub(crate) struct Signal {
    pub name: String,
    pub ty: Type,
    /// Current (settled) value.
    pub value: Value,
    /// Value before the most recent event.
    pub prev: Value,
    /// Time of the most recent event, if any.
    pub last_event: Option<SimTime>,
    /// Whether an event occurred in the delta currently being processed.
    pub event_now: bool,
    /// Total number of events over the signal's lifetime.
    pub event_count: u64,
}

impl Signal {
    pub(crate) fn new(name: String, ty: Type, init: Value) -> Self {
        let init = ty.clamp(init);
        Signal {
            name,
            ty,
            prev: init.clone(),
            value: init,
            last_event: None,
            event_now: false,
            event_count: 0,
        }
    }

    /// The value this signal stores when driven with `v`
    /// ([`Type::admit`]), or the refusal naming it.
    #[inline]
    pub(crate) fn admit(&self, v: Value) -> Result<Value, EvalError> {
        self.ty.admit(v).map_err(|v| {
            EvalError::incompatible_drive(&format_args!("signal {}", self.name), &self.ty, &v)
        })
    }
}

/// Public, read-only snapshot of a signal's state.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalInfo {
    /// Signal name.
    pub name: String,
    /// Signal type.
    pub ty: Type,
    /// Current value.
    pub value: Value,
    /// Time of the last event, if any.
    pub last_event: Option<SimTime>,
    /// Lifetime event count.
    pub event_count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_core::Bit;

    #[test]
    fn new_signal_clamps_init() {
        let s = Signal::new("S".into(), Type::int(4, true), Value::Int(9));
        assert_eq!(s.value, Value::Int(-7));
        assert_eq!(s.prev, Value::Int(-7));
        assert!(s.last_event.is_none());
    }

    #[test]
    fn id_display() {
        assert_eq!(SignalId(3).to_string(), "sig3");
        assert_eq!(SignalId(3).index(), 3);
    }

    #[test]
    fn bit_signal_defaults() {
        let s = Signal::new("CLK".into(), Type::Bit, Value::Bit(Bit::X));
        assert_eq!(s.value, Value::Bit(Bit::X));
        assert_eq!(s.event_count, 0);
    }
}
