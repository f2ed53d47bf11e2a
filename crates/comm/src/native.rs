//! Native communication units: platform-provided channels.
//!
//! The paper notes that a communication unit "may correspond to an
//! existing communication platform" whose internals are not synthesized —
//! only its access procedures are swapped per target (e.g. UNIX IPC
//! message queues on a software-only platform). Native units model those:
//! their behaviour is Rust code rather than an FSM, but they expose the
//! same call interface as [`crate::FsmUnitRuntime`].

use crate::runtime::{CallerId, ServiceStats, UnitStats};
use cosma_core::{EvalError, ServiceOutcome, Type, Value};
use std::collections::VecDeque;
use std::fmt;

/// Description of a native service (for system validation and docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeServiceDesc {
    /// Service name.
    pub name: String,
    /// Number of arguments.
    pub arity: usize,
    /// Return type, if any.
    pub returns: Option<Type>,
}

/// A value-bag capture of a native unit's mutable state, produced by
/// [`NativeUnit::save_state`] and consumed by [`NativeUnit::load_state`].
///
/// Native units are arbitrary Rust, so the capture is generic: each
/// implementation packs its state into the three buckets in a layout of
/// its own choosing and unpacks the same layout on load. Statistics ride
/// along so post-restore counter deltas match an uninterrupted run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NativeUnitState {
    /// Scalar state (flags, counters, ids), implementation-defined order.
    pub ints: Vec<i64>,
    /// Flat value state (e.g. memory cells).
    pub values: Vec<Value>,
    /// Queue contents, front first, implementation-defined order.
    pub queues: Vec<Vec<Value>>,
    /// Call statistics at capture time.
    pub stats: UnitStats,
}

/// A communication unit implemented natively (an "existing platform").
pub trait NativeUnit: fmt::Debug + Send {
    /// Unit type name.
    fn name(&self) -> &str;

    /// Offered services.
    fn services(&self) -> Vec<NativeServiceDesc>;

    /// One activation of a service. Must follow the same convention as
    /// FSM services: return `done=false` to make the caller retry. The
    /// backplane passes the name as [`NativeUnit::services`] declares
    /// it, whatever the caller's spelling.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Service`] for unknown services or bad
    /// arguments.
    fn call(
        &mut self,
        caller: CallerId,
        service: &str,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError>;

    /// Background activity per co-simulation cycle (defaults to none).
    fn step(&mut self) {}

    /// Whether [`NativeUnit::step`] ever does anything. Units that keep
    /// the default no-op `step` return `false` so schedulers (the sharded
    /// backplane) can park them instead of stepping them every cycle;
    /// units with real background activity must return `true` (the
    /// conservative default).
    fn needs_step(&self) -> bool {
        true
    }

    /// Queue occupancy to mirror onto a kernel signal, if this unit has
    /// one. A `Some` answer makes the backplane declare an `OCC` signal
    /// for the unit and drive it after every state change; that signal
    /// is the completion wire of every service, so callers blocked on
    /// the unit can *park* on occupancy events instead of polling every
    /// cycle. `None` (the default) keeps the unit wire-invisible — its
    /// state changes through direct calls, which produce no kernel
    /// events — and its blocked callers polling.
    fn occupancy(&self) -> Option<i64> {
        None
    }

    /// Whether the most recent [`NativeUnit::call`] was *stable*, under
    /// the contract of [`crate::FsmUnitRuntime::last_call_stable`]:
    /// re-calling with the same arguments and unchanged completion wires
    /// (here the [`NativeUnit::occupancy`] mirror) repeats this outcome
    /// and leaves the unit as it is now. A scheduler may then park the
    /// caller until the mirror events — provided the unit exposes one —
    /// and parking reduces the unit's call and completion counts, since
    /// the repeats are never made. The conservative default is `false`
    /// (callers always poll).
    ///
    /// In practice only a pending call that changed nothing qualifies:
    /// the library units' completions push or pop a value. A completion
    /// that reads state the mirror does not follow must never claim it —
    /// [`SharedMemory`]'s `load` reads cells that no wire shows, so a
    /// `store` would not wake a parked loader.
    fn last_call_stable(&self) -> bool {
        false
    }

    /// Call statistics.
    fn stats(&self) -> &UnitStats;

    /// Captures the unit's mutable state as a [`NativeUnitState`] value
    /// bag, or `None` if this unit does not support checkpointing (the
    /// default). A whole-backplane snapshot fails cleanly on a `None`
    /// rather than silently skipping the unit.
    fn save_state(&self) -> Option<NativeUnitState> {
        None
    }

    /// Restores a state previously produced by this implementation's
    /// [`NativeUnit::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Service`] if the unit does not support
    /// checkpointing (the default) or the bag's layout doesn't match.
    fn load_state(&mut self, _state: &NativeUnitState) -> Result<(), EvalError> {
        Err(EvalError::Service(format!(
            "native unit {} does not support state restore",
            self.name()
        )))
    }

    /// Creates a fresh, state-empty unit of the same kind and
    /// configuration (for [`NativeUnit::load_state`] by a backplane
    /// fork), or `None` if this unit cannot be replicated (the
    /// default) — forking a backplane containing it then fails cleanly.
    fn fork_fresh(&self) -> Option<Box<dyn NativeUnit>> {
        None
    }
}

/// Counts one call of `service`. The row is looked up before it is
/// inserted, so only a service's first call allocates its key.
fn bump(stats: &mut UnitStats, service: &str, done: bool) {
    let count = |row: &mut ServiceStats| {
        row.calls += 1;
        if done {
            row.completions += 1;
        }
    };
    if let Some(row) = stats.services.get_mut(service) {
        count(row);
    } else {
        count(stats.services.entry(service.to_string()).or_default());
    }
}

/// A bounded FIFO channel: `put(v)` completes when space is available,
/// `get() -> v` when data is available. Models an OS pipe / message
/// queue.
///
/// # Examples
///
/// ```
/// use cosma_comm::{FifoChannel, NativeUnit, CallerId};
/// use cosma_core::Value;
///
/// let mut ch = FifoChannel::new("pipe", 2);
/// assert!(ch.call(CallerId(1), "put", &[Value::Int(1)])?.done);
/// assert!(ch.call(CallerId(1), "put", &[Value::Int(2)])?.done);
/// assert!(!ch.call(CallerId(1), "put", &[Value::Int(3)])?.done, "full");
/// let got = ch.call(CallerId(2), "get", &[])?;
/// assert_eq!(got.result, Some(Value::Int(1)));
/// # Ok::<(), cosma_core::EvalError>(())
/// ```
#[derive(Debug)]
pub struct FifoChannel {
    name: String,
    capacity: usize,
    queue: VecDeque<Value>,
    stats: UnitStats,
    /// Whether the last call was a provable no-op (empty get, full put).
    stable: bool,
    /// Rejected puts (channel full) — failure-injection observability.
    pub rejected_puts: u64,
    /// High-water mark of queue occupancy.
    pub high_water: usize,
}

impl FifoChannel {
    /// Creates a channel with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be nonzero");
        FifoChannel {
            name: name.into(),
            capacity,
            queue: VecDeque::new(),
            stats: UnitStats::default(),
            stable: false,
            rejected_puts: 0,
            high_water: 0,
        }
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the channel is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl NativeUnit for FifoChannel {
    fn name(&self) -> &str {
        &self.name
    }

    fn needs_step(&self) -> bool {
        false // pure call-driven state, no background activity
    }

    fn occupancy(&self) -> Option<i64> {
        // Wire-visible: the backplane mirrors this onto an `OCC` kernel
        // signal, so callers blocked on an empty get (or a full put) can
        // park on occupancy events instead of polling.
        Some(self.queue.len() as i64)
    }

    fn last_call_stable(&self) -> bool {
        self.stable
    }

    fn services(&self) -> Vec<NativeServiceDesc> {
        vec![
            NativeServiceDesc {
                name: "put".into(),
                arity: 1,
                returns: None,
            },
            NativeServiceDesc {
                name: "get".into(),
                arity: 0,
                returns: Some(Type::INT16),
            },
        ]
    }

    fn call(
        &mut self,
        _caller: CallerId,
        service: &str,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        match service {
            "put" => {
                let [v] = args else {
                    return Err(EvalError::Service("put expects 1 argument".into()));
                };
                if self.queue.len() < self.capacity {
                    self.queue.push_back(v.clone());
                    self.high_water = self.high_water.max(self.queue.len());
                    self.stable = false;
                    bump(&mut self.stats, "put", true);
                    Ok(ServiceOutcome::done())
                } else {
                    self.rejected_puts += 1;
                    self.stable = true;
                    bump(&mut self.stats, "put", false);
                    Ok(ServiceOutcome::pending())
                }
            }
            "get" => {
                if !args.is_empty() {
                    return Err(EvalError::Service("get expects no arguments".into()));
                }
                match self.queue.pop_front() {
                    Some(v) => {
                        self.stable = false;
                        bump(&mut self.stats, "get", true);
                        Ok(ServiceOutcome::done_with(v))
                    }
                    None => {
                        self.stable = true;
                        bump(&mut self.stats, "get", false);
                        Ok(ServiceOutcome::pending())
                    }
                }
            }
            other => Err(EvalError::Service(format!(
                "fifo {} has no service {other}",
                self.name
            ))),
        }
    }

    fn stats(&self) -> &UnitStats {
        &self.stats
    }

    fn save_state(&self) -> Option<NativeUnitState> {
        Some(NativeUnitState {
            ints: vec![
                i64::from(self.stable),
                self.rejected_puts as i64,
                self.high_water as i64,
            ],
            values: vec![],
            queues: vec![self.queue.iter().cloned().collect()],
            stats: self.stats.clone(),
        })
    }

    fn load_state(&mut self, state: &NativeUnitState) -> Result<(), EvalError> {
        let ([stable, rejected, high_water], [queue]) = (&state.ints[..], &state.queues[..]) else {
            return Err(EvalError::Service(format!(
                "fifo {}: snapshot layout mismatch",
                self.name
            )));
        };
        if queue.len() > self.capacity {
            return Err(EvalError::Service(format!(
                "fifo {}: snapshot holds {} values, capacity is {}",
                self.name,
                queue.len(),
                self.capacity
            )));
        }
        self.queue.clear();
        self.queue.extend(queue.iter().cloned());
        self.stable = *stable != 0;
        self.rejected_puts = *rejected as u64;
        self.high_water = *high_water as usize;
        self.stats.clone_from(&state.stats);
        Ok(())
    }

    fn fork_fresh(&self) -> Option<Box<dyn NativeUnit>> {
        Some(Box::new(FifoChannel::new(self.name.clone(), self.capacity)))
    }
}

/// A bidirectional mailbox: two FIFO directions, `send_a`/`recv_a` for
/// the A side and `send_b`/`recv_b` for the B side. Models a UNIX IPC
/// message-queue pair between two processes.
#[derive(Debug)]
pub struct Mailbox {
    name: String,
    a_to_b: VecDeque<Value>,
    b_to_a: VecDeque<Value>,
    capacity: usize,
    stats: UnitStats,
    /// Whether the last call was a provable no-op (empty recv, full send).
    stable: bool,
}

impl Mailbox {
    /// Creates a mailbox with per-direction capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "mailbox capacity must be nonzero");
        Mailbox {
            name: name.into(),
            a_to_b: VecDeque::new(),
            b_to_a: VecDeque::new(),
            capacity,
            stats: UnitStats::default(),
            stable: false,
        }
    }

    /// Messages waiting toward B.
    #[must_use]
    pub fn pending_to_b(&self) -> usize {
        self.a_to_b.len()
    }

    /// Messages waiting toward A.
    #[must_use]
    pub fn pending_to_a(&self) -> usize {
        self.b_to_a.len()
    }
}

impl NativeUnit for Mailbox {
    fn name(&self) -> &str {
        &self.name
    }

    fn needs_step(&self) -> bool {
        false // pure call-driven state, no background activity
    }

    fn occupancy(&self) -> Option<i64> {
        // Total queued messages across both directions: any enqueue or
        // dequeue is then wire-visible, so blocked receivers can park.
        Some((self.a_to_b.len() + self.b_to_a.len()) as i64)
    }

    fn last_call_stable(&self) -> bool {
        self.stable
    }

    fn services(&self) -> Vec<NativeServiceDesc> {
        vec![
            NativeServiceDesc {
                name: "send_a".into(),
                arity: 1,
                returns: None,
            },
            NativeServiceDesc {
                name: "recv_a".into(),
                arity: 0,
                returns: Some(Type::INT16),
            },
            NativeServiceDesc {
                name: "send_b".into(),
                arity: 1,
                returns: None,
            },
            NativeServiceDesc {
                name: "recv_b".into(),
                arity: 0,
                returns: Some(Type::INT16),
            },
        ]
    }

    fn call(
        &mut self,
        _caller: CallerId,
        service: &str,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        let (queue, is_send) = match service {
            "send_a" => (&mut self.a_to_b, true),
            "recv_b" => (&mut self.a_to_b, false),
            "send_b" => (&mut self.b_to_a, true),
            "recv_a" => (&mut self.b_to_a, false),
            other => {
                return Err(EvalError::Service(format!(
                    "mailbox {} has no service {other}",
                    self.name
                )))
            }
        };
        if is_send {
            let [v] = args else {
                return Err(EvalError::Service(format!("{service} expects 1 argument")));
            };
            if queue.len() < self.capacity {
                queue.push_back(v.clone());
                self.stable = false;
                bump(&mut self.stats, service, true);
                Ok(ServiceOutcome::done())
            } else {
                self.stable = true;
                bump(&mut self.stats, service, false);
                Ok(ServiceOutcome::pending())
            }
        } else {
            if !args.is_empty() {
                return Err(EvalError::Service(format!(
                    "{service} expects no arguments"
                )));
            }
            match queue.pop_front() {
                Some(v) => {
                    self.stable = false;
                    bump(&mut self.stats, service, true);
                    Ok(ServiceOutcome::done_with(v))
                }
                None => {
                    self.stable = true;
                    bump(&mut self.stats, service, false);
                    Ok(ServiceOutcome::pending())
                }
            }
        }
    }

    fn stats(&self) -> &UnitStats {
        &self.stats
    }

    fn save_state(&self) -> Option<NativeUnitState> {
        Some(NativeUnitState {
            ints: vec![i64::from(self.stable)],
            values: vec![],
            queues: vec![
                self.a_to_b.iter().cloned().collect(),
                self.b_to_a.iter().cloned().collect(),
            ],
            stats: self.stats.clone(),
        })
    }

    fn load_state(&mut self, state: &NativeUnitState) -> Result<(), EvalError> {
        let ([stable], [a_to_b, b_to_a]) = (&state.ints[..], &state.queues[..]) else {
            return Err(EvalError::Service(format!(
                "mailbox {}: snapshot layout mismatch",
                self.name
            )));
        };
        if a_to_b.len() > self.capacity || b_to_a.len() > self.capacity {
            return Err(EvalError::Service(format!(
                "mailbox {}: snapshot exceeds per-direction capacity {}",
                self.name, self.capacity
            )));
        }
        self.a_to_b.clear();
        self.a_to_b.extend(a_to_b.iter().cloned());
        self.b_to_a.clear();
        self.b_to_a.extend(b_to_a.iter().cloned());
        self.stable = *stable != 0;
        self.stats.clone_from(&state.stats);
        Ok(())
    }

    fn fork_fresh(&self) -> Option<Box<dyn NativeUnit>> {
        Some(Box::new(Mailbox::new(self.name.clone(), self.capacity)))
    }
}

/// A lock-guarded shared memory with addressed `load(addr)` /
/// `store(addr, v)` plus `acquire()` / `release()`.
#[derive(Debug)]
pub struct SharedMemory {
    name: String,
    cells: Vec<Value>,
    holder: Option<CallerId>,
    stats: UnitStats,
    /// Accesses performed without holding the lock (race detector).
    pub unlocked_accesses: u64,
}

impl SharedMemory {
    /// Creates a memory of `size` 16-bit words, zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, size: usize) -> Self {
        assert!(size > 0, "shared memory size must be nonzero");
        SharedMemory {
            name: name.into(),
            cells: vec![Value::Int(0); size],
            holder: None,
            stats: UnitStats::default(),
            unlocked_accesses: 0,
        }
    }

    fn addr_of(&self, v: &Value) -> Result<usize, EvalError> {
        let a = v.as_int().map_err(|e| EvalError::Service(e.to_string()))?;
        if a < 0 || a as usize >= self.cells.len() {
            return Err(EvalError::Service(format!(
                "address {a} out of range (size {})",
                self.cells.len()
            )));
        }
        Ok(a as usize)
    }
}

impl NativeUnit for SharedMemory {
    fn name(&self) -> &str {
        &self.name
    }

    fn needs_step(&self) -> bool {
        false // pure call-driven state, no background activity
    }

    fn services(&self) -> Vec<NativeServiceDesc> {
        vec![
            NativeServiceDesc {
                name: "acquire".into(),
                arity: 0,
                returns: None,
            },
            NativeServiceDesc {
                name: "release".into(),
                arity: 0,
                returns: None,
            },
            NativeServiceDesc {
                name: "load".into(),
                arity: 1,
                returns: Some(Type::INT16),
            },
            NativeServiceDesc {
                name: "store".into(),
                arity: 2,
                returns: None,
            },
        ]
    }

    fn call(
        &mut self,
        caller: CallerId,
        service: &str,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        match service {
            "acquire" => match self.holder {
                None => {
                    self.holder = Some(caller);
                    bump(&mut self.stats, service, true);
                    Ok(ServiceOutcome::done())
                }
                Some(h) if h == caller => {
                    bump(&mut self.stats, service, true);
                    Ok(ServiceOutcome::done())
                }
                Some(_) => {
                    bump(&mut self.stats, service, false);
                    Ok(ServiceOutcome::pending())
                }
            },
            "release" => {
                if self.holder == Some(caller) {
                    self.holder = None;
                }
                bump(&mut self.stats, service, true);
                Ok(ServiceOutcome::done())
            }
            "load" => {
                let [addr] = args else {
                    return Err(EvalError::Service("load expects 1 argument".into()));
                };
                if self.holder != Some(caller) {
                    self.unlocked_accesses += 1;
                }
                let a = self.addr_of(addr)?;
                bump(&mut self.stats, service, true);
                Ok(ServiceOutcome::done_with(self.cells[a].clone()))
            }
            "store" => {
                let [addr, v] = args else {
                    return Err(EvalError::Service("store expects 2 arguments".into()));
                };
                if self.holder != Some(caller) {
                    self.unlocked_accesses += 1;
                }
                let a = self.addr_of(addr)?;
                self.cells[a] = v.clone();
                bump(&mut self.stats, service, true);
                Ok(ServiceOutcome::done())
            }
            other => Err(EvalError::Service(format!(
                "shared memory {} has no service {other}",
                self.name
            ))),
        }
    }

    fn stats(&self) -> &UnitStats {
        &self.stats
    }

    fn save_state(&self) -> Option<NativeUnitState> {
        Some(NativeUnitState {
            ints: vec![
                i64::from(self.holder.is_some()),
                // CallerId bits, cast-preserved through i64.
                self.holder.map_or(0, |c| c.0 as i64),
                self.unlocked_accesses as i64,
            ],
            values: self.cells.clone(),
            queues: vec![],
            stats: self.stats.clone(),
        })
    }

    fn load_state(&mut self, state: &NativeUnitState) -> Result<(), EvalError> {
        let [has_holder, holder_bits, unlocked] = state.ints[..] else {
            return Err(EvalError::Service(format!(
                "shared memory {}: snapshot layout mismatch",
                self.name
            )));
        };
        if state.values.len() != self.cells.len() {
            return Err(EvalError::Service(format!(
                "shared memory {}: snapshot has {} cells, memory has {}",
                self.name,
                state.values.len(),
                self.cells.len()
            )));
        }
        self.cells.clone_from(&state.values);
        self.holder = (has_holder != 0).then_some(CallerId(holder_bits as u64));
        self.unlocked_accesses = unlocked as u64;
        self.stats.clone_from(&state.stats);
        Ok(())
    }

    fn fork_fresh(&self) -> Option<Box<dyn NativeUnit>> {
        Some(Box::new(SharedMemory::new(
            self.name.clone(),
            self.cells.len(),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_preserves_order_and_bounds() {
        let mut ch = FifoChannel::new("q", 3);
        for i in 0..3 {
            assert!(ch.call(CallerId(0), "put", &[Value::Int(i)]).unwrap().done);
        }
        assert!(!ch.call(CallerId(0), "put", &[Value::Int(99)]).unwrap().done);
        assert_eq!(ch.rejected_puts, 1);
        assert_eq!(ch.high_water, 3);
        for i in 0..3 {
            let g = ch.call(CallerId(1), "get", &[]).unwrap();
            assert_eq!(g.result, Some(Value::Int(i)));
        }
        assert!(!ch.call(CallerId(1), "get", &[]).unwrap().done);
        assert!(ch.is_empty());
    }

    #[test]
    fn fifo_bad_calls_are_errors() {
        let mut ch = FifoChannel::new("q", 1);
        assert!(ch.call(CallerId(0), "nope", &[]).is_err());
        assert!(ch.call(CallerId(0), "put", &[]).is_err());
        assert!(ch.call(CallerId(0), "get", &[Value::Int(1)]).is_err());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_fifo_panics() {
        let _ = FifoChannel::new("q", 0);
    }

    #[test]
    fn mailbox_directions_are_independent() {
        let mut mb = Mailbox::new("ipc", 4);
        assert!(
            mb.call(CallerId(1), "send_a", &[Value::Int(10)])
                .unwrap()
                .done
        );
        assert!(
            mb.call(CallerId(2), "send_b", &[Value::Int(20)])
                .unwrap()
                .done
        );
        assert_eq!(mb.pending_to_b(), 1);
        assert_eq!(mb.pending_to_a(), 1);
        let at_b = mb.call(CallerId(2), "recv_b", &[]).unwrap();
        assert_eq!(at_b.result, Some(Value::Int(10)));
        let at_a = mb.call(CallerId(1), "recv_a", &[]).unwrap();
        assert_eq!(at_a.result, Some(Value::Int(20)));
        assert!(!mb.call(CallerId(1), "recv_a", &[]).unwrap().done);
    }

    #[test]
    fn shared_memory_lock_and_addressing() {
        let mut sm = SharedMemory::new("mem", 8);
        let a = CallerId(1);
        let b = CallerId(2);
        assert!(sm.call(a, "acquire", &[]).unwrap().done);
        assert!(
            sm.call(a, "acquire", &[]).unwrap().done,
            "reentrant for holder"
        );
        assert!(!sm.call(b, "acquire", &[]).unwrap().done);
        assert!(
            sm.call(a, "store", &[Value::Int(3), Value::Int(42)])
                .unwrap()
                .done
        );
        let v = sm.call(a, "load", &[Value::Int(3)]).unwrap();
        assert_eq!(v.result, Some(Value::Int(42)));
        assert_eq!(sm.unlocked_accesses, 0);
        assert!(sm.call(a, "release", &[]).unwrap().done);
        assert!(sm.call(b, "acquire", &[]).unwrap().done);
    }

    #[test]
    fn shared_memory_detects_unlocked_access() {
        let mut sm = SharedMemory::new("mem", 4);
        assert!(
            sm.call(CallerId(9), "store", &[Value::Int(0), Value::Int(1)])
                .unwrap()
                .done
        );
        assert_eq!(sm.unlocked_accesses, 1);
    }

    #[test]
    fn shared_memory_address_bounds() {
        let mut sm = SharedMemory::new("mem", 4);
        assert!(sm.call(CallerId(0), "load", &[Value::Int(4)]).is_err());
        assert!(sm.call(CallerId(0), "load", &[Value::Int(-1)]).is_err());
    }

    #[test]
    fn release_by_non_holder_is_harmless() {
        let mut sm = SharedMemory::new("mem", 4);
        assert!(sm.call(CallerId(1), "acquire", &[]).unwrap().done);
        assert!(sm.call(CallerId(2), "release", &[]).unwrap().done);
        // CallerId(1) still holds it.
        assert!(!sm.call(CallerId(2), "acquire", &[]).unwrap().done);
    }

    #[test]
    fn service_descriptions() {
        let ch = FifoChannel::new("q", 1);
        let svcs = ch.services();
        assert_eq!(svcs.len(), 2);
        assert_eq!(svcs[0].name, "put");
        assert_eq!(svcs[0].arity, 1);
        assert_eq!(svcs[1].returns, Some(Type::INT16));
    }

    #[test]
    fn fifo_save_load_fork_round_trip() {
        let mut ch = FifoChannel::new("q", 3);
        for i in 0..3 {
            ch.call(CallerId(0), "put", &[Value::Int(i)]).unwrap();
        }
        // One rejected put and one drained value: non-trivial counters.
        ch.call(CallerId(0), "put", &[Value::Int(99)]).unwrap();
        ch.call(CallerId(1), "get", &[]).unwrap();
        let snap = ch.save_state().expect("fifo supports checkpointing");

        // Fork an empty twin of the same configuration and load: every
        // observable — contents, counters, stats — matches the original.
        let mut twin = ch.fork_fresh().expect("fifo supports forking");
        assert_eq!(twin.name(), ch.name());
        assert!(twin.stats().services.is_empty(), "fork starts fresh");
        twin.load_state(&snap).unwrap();
        assert_eq!(twin.save_state(), Some(snap.clone()));
        assert_eq!(twin.stats(), ch.stats());

        // Both drain the same remaining sequence.
        for want in [1, 2] {
            let a = ch.call(CallerId(1), "get", &[]).unwrap();
            let b = twin.call(CallerId(1), "get", &[]).unwrap();
            assert_eq!(a.result, Some(Value::Int(want)));
            assert_eq!(b.result, a.result);
        }

        // A smaller-capacity target refuses the snapshot untouched.
        let mut tiny = FifoChannel::new("q", 1);
        tiny.call(CallerId(0), "put", &[Value::Int(5)]).unwrap();
        let before = tiny.save_state();
        let err = tiny.load_state(&snap).unwrap_err();
        assert!(err.to_string().contains("capacity"));
        assert_eq!(tiny.save_state(), before, "refused load is a no-op");

        // A malformed value bag is a typed error, not a panic.
        let err = ch.load_state(&NativeUnitState::default()).unwrap_err();
        assert!(err.to_string().contains("layout"));
    }

    #[test]
    fn mailbox_and_shared_memory_round_trip() {
        let mut mb = Mailbox::new("ipc", 4);
        mb.call(CallerId(1), "send_a", &[Value::Int(10)]).unwrap();
        mb.call(CallerId(2), "send_b", &[Value::Int(20)]).unwrap();
        mb.call(CallerId(1), "send_a", &[Value::Int(11)]).unwrap();
        let snap = mb.save_state().expect("mailbox supports checkpointing");
        let mut twin = mb.fork_fresh().expect("mailbox supports forking");
        twin.load_state(&snap).unwrap();
        assert_eq!(twin.save_state(), Some(snap));
        // Both directions survive with their order intact.
        let b1 = twin.call(CallerId(2), "recv_b", &[]).unwrap();
        let b2 = twin.call(CallerId(2), "recv_b", &[]).unwrap();
        let a1 = twin.call(CallerId(1), "recv_a", &[]).unwrap();
        assert_eq!(b1.result, Some(Value::Int(10)));
        assert_eq!(b2.result, Some(Value::Int(11)));
        assert_eq!(a1.result, Some(Value::Int(20)));

        let mut sm = SharedMemory::new("mem", 8);
        sm.call(CallerId(1), "acquire", &[]).unwrap();
        sm.call(CallerId(1), "store", &[Value::Int(3), Value::Int(42)])
            .unwrap();
        let snap = sm.save_state().expect("shared memory checkpoints");
        let mut twin = sm.fork_fresh().expect("shared memory forks");
        twin.load_state(&snap).unwrap();
        assert_eq!(twin.save_state(), Some(snap));
        // The lock holder survives the restore: others still blocked,
        // the holder still sees its store.
        assert!(!twin.call(CallerId(2), "acquire", &[]).unwrap().done);
        let v = twin.call(CallerId(1), "load", &[Value::Int(3)]).unwrap();
        assert_eq!(v.result, Some(Value::Int(42)));
    }
}
