//! Batched bus transactions: coalescing per-value protocol transfers
//! into one wire-level handshake per batch.
//!
//! The classic [`handshake_unit`](crate::handshake_unit) pays a full
//! 4-phase handshake (several clock cycles of wire traffic plus
//! controller activations) for *every* value. On a backplane with
//! hundreds of units that per-value cost dominates. A [`BatchedLink`]
//! instead models a burst-capable bus: producer-side `put` calls append
//! to a vec-backed payload queue with no wire traffic at all, and the
//! runtime moves whole batches with a *single* handshake whose `DATA`
//! wire carries the batch length — one arbitration per burst, exactly
//! like a bus master issuing a block transfer.
//!
//! Wire protocol (see [`batched_handshake_unit`]):
//!
//! * `PENDING` — bus-request level, raised when values are queued for
//!   transport and lowered once the queues drain. Schedulers that park
//!   idle links (the sharded backplane) watch it to wake up.
//! * `DATA`/`REQ`/`ACK`/`B_FULL` — the classic handshake, run once per
//!   batch by the link's internal bus sessions.
//!
//! Batch size is **adaptive**: the link carries a batch *target* in
//! `1..=max_batch` that starts at 1 (a lone early value is never held
//! hostage to a large first batch), doubles while the outgoing queue
//! keeps up with it (bus-bound traffic, amortize the arbitration) and
//! halves while the queue runs shallow (light traffic, don't batch
//! latency in) — `max_batch` is only the hard ceiling.
//!
//! **Bus timing** is selectable per link ([`BusTiming`]):
//!
//! * [`BusTiming::LengthOnly`] (default) — the whole batch crosses in
//!   the one arbitration handshake; bus occupancy is independent of
//!   payload size. The co-simulation fast path.
//! * [`BusTiming::PayloadBeats`] — after the arbitration handshake the
//!   link streams one wire word per value per cycle on `DATA`, so a
//!   length-`n` batch occupies the bus for `n` beats and a
//!   cycle-accurate observer sees every word. Delivered-value semantics
//!   are bit-identical to `LengthOnly`; only timing differs, which is
//!   what makes a `PayloadBeats` run usable as the calibration side of
//!   batch-latency back-annotation (`cosma_cosim::annotate_batch_latency`).
//!
//! Per-unit statistics record batch counts and sizes
//! ([`UnitStats::batches`], [`UnitStats::batched_values`],
//! [`UnitStats::max_batch_len`]), a power-of-two batch-length histogram
//! ([`UnitStats::batch_len_hist`]) and, under `PayloadBeats`, the
//! payload-beat bus occupancy ([`UnitStats::payload_beats`]).

use crate::library::batched_handshake_unit;
use crate::runtime::{CallerId, FsmUnitRuntime, FsmUnitState, UnitStats, WireStore};
use cosma_core::comm::CommUnitSpec;
use cosma_core::ids::PortId;
use cosma_core::{Bit, EvalError, ServiceOutcome, Type, Value};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Internal caller driving the producer side of the wire handshake.
const BUS_PRODUCER: CallerId = CallerId(u64::MAX);
/// Internal caller draining the consumer side of the wire handshake.
const BUS_CONSUMER: CallerId = CallerId(u64::MAX - 1);

/// How a batch occupies the bus at the wire level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BusTiming {
    /// One arbitration handshake moves the whole batch; `DATA` carries
    /// only the batch *length*, so bus occupancy is independent of
    /// payload size. The co-simulation fast path (default).
    #[default]
    LengthOnly,
    /// After the arbitration handshake the link streams one wire word
    /// per value per cycle on `DATA`: a length-`n` batch occupies the
    /// bus for `n` beats, a cycle-accurate observer sees every word,
    /// and [`UnitStats::payload_beats`] counts the occupancy. Delivered
    /// values are bit-identical to [`BusTiming::LengthOnly`]; only
    /// timing differs.
    PayloadBeats,
}

/// A point-in-time capture of all mutable [`BatchedLink`] state,
/// produced by [`BatchedLink::capture_state`] and consumed by
/// [`BatchedLink::restore_state`]: the inner bus-protocol runtime's
/// state, all three payload queues, the handshake/streaming phase, and
/// the adaptive batch target. Immutable link configuration (spec, data
/// type, timing model, `max_batch`, capacity) is not captured — a
/// capture restores into any link built with the same configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedLinkState {
    inner: FsmUnitState,
    batch_target: usize,
    outgoing: Vec<Value>,
    in_flight: Vec<Value>,
    delivered: Vec<Value>,
    sending: bool,
    streaming: bool,
    scheduled: bool,
    beat: usize,
    last_call_stable: bool,
    stats: UnitStats,
}

impl BatchedLinkState {
    /// Captured total occupancy across all queues.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.outgoing.len() + self.in_flight.len() + self.delivered.len()
    }

    /// Captured adaptive batch target.
    #[must_use]
    pub fn batch_target(&self) -> usize {
        self.batch_target
    }
}

/// Converts a payload value into the word driven onto the INT16 `DATA`
/// wire during payload-beat streaming — the same 16-bit bus-word
/// encoding every other wire write uses.
fn wire_word(v: &Value) -> Value {
    // Infallible for INT16 (only enum types can fail to decode); the
    // expect states the invariant instead of masking a future
    // wire-type change with a silently wrong-kind drive.
    Value::from_bus_word(&Type::INT16, v.to_bus_word(16))
        .expect("INT16 bus words decode infallibly")
}

/// A burst-capable channel: vec-backed payload queues on both ends of a
/// single wire-level handshake that is run once per *batch*.
///
/// # Examples
///
/// Move eight values with one bus transaction:
///
/// ```
/// use cosma_comm::{BatchedLink, CallerId, LocalWires};
/// use cosma_core::{Type, Value};
///
/// let mut link = BatchedLink::new("bus", Type::INT16, 16, 32);
/// let mut wires = LocalWires::new(link.spec());
/// let (p, c) = (CallerId(1), CallerId(2));
/// for i in 0..8 {
///     assert!(link.put(p, Value::Int(i), &mut wires)?.done);
/// }
/// // Pump until the batches cross the bus. The adaptive target ramps
/// // from 1, so the burst still needs far fewer handshakes than
/// // values.
/// for _ in 0..40 {
///     link.pump(&mut wires, false)?;
/// }
/// let mut got = vec![];
/// while let Some(v) = link.get(c, &mut wires)?.result {
///     got.push(v);
/// }
/// assert_eq!(got, (0..8).map(Value::Int).collect::<Vec<_>>());
/// assert!(link.stats().batches < 8, "fewer transactions than values");
/// assert_eq!(link.stats().batched_values, 8);
/// # Ok::<(), cosma_core::EvalError>(())
/// ```
pub struct BatchedLink {
    inner: FsmUnitRuntime,
    data_ty: Type,
    pending_wire: PortId,
    /// The `DATA` wire (payload beats stream over it under
    /// [`BusTiming::PayloadBeats`]).
    data_wire: PortId,
    /// The `B_VALID` beat-boundary marker: One while payload words
    /// occupy `DATA`, Zero during the arbitration length word. Driven
    /// only under [`BusTiming::PayloadBeats`].
    valid_wire: PortId,
    /// The `B_LAST` burst-completion strobe: One on the cycle the final
    /// payload beat crosses `DATA` (the delivery cycle), Zero
    /// otherwise. Parked consumers watch it instead of `DATA`, so a
    /// burst wakes them once at delivery rather than once per beat.
    /// Driven only under [`BusTiming::PayloadBeats`].
    last_wire: PortId,
    /// Wire-level timing model.
    timing: BusTiming,
    /// Hard bound on values per bus transaction.
    max_batch: usize,
    /// Adaptive batch target in `1..=max_batch`: starts at 1, doubled
    /// when the outgoing queue is at least this deep at batch-load time
    /// (the bus is falling behind — amortize more per arbitration),
    /// halved when the queue is at a quarter or less (light traffic —
    /// don't hold values back waiting for a big batch).
    batch_target: usize,
    /// Bound on total occupancy (outgoing + in flight + delivered).
    capacity: usize,
    /// Producer-enqueued values not yet on the bus.
    outgoing: Vec<Value>,
    /// The batch currently crossing the bus.
    in_flight: Vec<Value>,
    /// Values delivered to the consumer side, popped by `get`.
    delivered: VecDeque<Value>,
    /// Whether the producer-side wire handshake is in progress.
    sending: bool,
    /// Whether payload beats are being streamed on `DATA`
    /// ([`BusTiming::PayloadBeats`] only).
    streaming: bool,
    /// Whether the current burst's beats were pre-scheduled as timed
    /// drives ([`WireStore::write_wire_after`]) at arbitration time —
    /// the pump then only counts beats down to the delivery cycle
    /// instead of writing wires itself. `false` on stores without timed
    /// writes (the cycle-by-cycle fallback).
    scheduled: bool,
    /// Next beat index into `in_flight` while streaming.
    beat: usize,
    /// Whether the last `put`/`get` was a provable no-op (pending, no
    /// state change) — see [`BatchedLink::last_call_stable`].
    last_call_stable: bool,
    /// Recycled scratch holding one burst's wire words for the bulk
    /// schedule ([`WireStore::write_wire_train`]). Always drained back
    /// to empty within `pump`, so it is derived state and not captured.
    beat_words: Vec<Value>,
    stats: UnitStats,
}

impl fmt::Debug for BatchedLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchedLink")
            .field("outgoing", &self.outgoing.len())
            .field("in_flight", &self.in_flight.len())
            .field("delivered", &self.delivered.len())
            .finish_non_exhaustive()
    }
}

impl BatchedLink {
    /// Creates a batched link. `max_batch` bounds one bus transaction
    /// and must fit the INT16 `DATA` wire (`<= i16::MAX` — the largest
    /// length the wire can carry without wrapping); `capacity` bounds
    /// total occupancy (producer backpressure).
    ///
    /// # Errors
    ///
    /// Returns a typed [`EvalError::Service`] when `max_batch` or
    /// `capacity` is zero, or when `max_batch` exceeds `i16::MAX` —
    /// the requested batch ceiling is **never** silently shrunk.
    pub fn try_new(
        name: &str,
        data_ty: Type,
        max_batch: usize,
        capacity: usize,
    ) -> Result<Self, EvalError> {
        if max_batch == 0 {
            return Err(EvalError::Service(format!(
                "batched link {name}: batch size must be nonzero"
            )));
        }
        if capacity == 0 {
            return Err(EvalError::Service(format!(
                "batched link {name}: link capacity must be nonzero"
            )));
        }
        if max_batch > i16::MAX as usize {
            return Err(EvalError::Service(format!(
                "batched link {name}: max_batch {max_batch} exceeds the INT16 DATA \
                 wire's largest representable batch length {}",
                i16::MAX
            )));
        }
        let spec = batched_handshake_unit(name);
        let pending_wire = spec
            .wire_id("PENDING")
            .expect("batched handshake spec has a PENDING wire");
        let data_wire = spec
            .wire_id("DATA")
            .expect("batched handshake spec has a DATA wire");
        let valid_wire = spec
            .wire_id("B_VALID")
            .expect("batched handshake spec has a B_VALID wire");
        let last_wire = spec
            .wire_id("B_LAST")
            .expect("batched handshake spec has a B_LAST wire");
        Ok(BatchedLink {
            inner: FsmUnitRuntime::new(spec),
            data_ty,
            pending_wire,
            data_wire,
            valid_wire,
            last_wire,
            timing: BusTiming::LengthOnly,
            max_batch,
            batch_target: 1,
            capacity,
            outgoing: Vec::new(),
            in_flight: Vec::new(),
            delivered: VecDeque::new(),
            sending: false,
            streaming: false,
            scheduled: false,
            beat: 0,
            last_call_stable: false,
            beat_words: Vec::new(),
            stats: UnitStats::default(),
        })
    }

    /// Creates a batched link, panicking on invalid parameters — see
    /// [`BatchedLink::try_new`] for the fallible variant.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `capacity` is zero, or if `max_batch`
    /// exceeds `i16::MAX` (the INT16 `DATA` wire's largest
    /// representable batch length).
    #[must_use]
    pub fn new(name: &str, data_ty: Type, max_batch: usize, capacity: usize) -> Self {
        match Self::try_new(name, data_ty, max_batch, capacity) {
            Ok(link) => link,
            Err(e) => panic!("{e}"),
        }
    }

    /// Selects the wire-level bus timing model (builder style;
    /// [`BusTiming::LengthOnly`] is the default).
    #[must_use]
    pub fn with_timing(mut self, timing: BusTiming) -> Self {
        self.timing = timing;
        self
    }

    /// The wire-level bus timing model.
    #[must_use]
    pub fn timing(&self) -> BusTiming {
        self.timing
    }

    /// The wire-level spec (for declaring kernel signals / local wires).
    #[must_use]
    pub fn spec(&self) -> &Arc<CommUnitSpec> {
        self.inner.spec()
    }

    /// Current total occupancy across all queues.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.outgoing.len() + self.in_flight.len() + self.delivered.len()
    }

    /// The current adaptive batch target (values per bus transaction),
    /// in `1..=max_batch`. Doubled under backlog, halved under light
    /// traffic — see [`BatchedLink::pump`].
    #[must_use]
    pub fn batch_target(&self) -> usize {
        self.batch_target
    }

    /// Whether the last `put`/`get` was a provable no-op (pending
    /// outcome, nothing mutated). While true, re-calling with unchanged
    /// link state repeats the no-op, so the caller can be parked.
    #[must_use]
    pub fn last_call_stable(&self) -> bool {
        self.last_call_stable
    }

    /// The wires whose events can unblock a pending caller of `service`.
    ///
    /// * `get` — the inner bus protocol's consumer read-set minus the
    ///   `DATA` wire, plus the `PENDING` bus-request and `B_LAST`
    ///   burst-completion wires. Delivery is always flanked by a
    ///   `B_FULL` event (the arbitration handshake completing) under
    ///   [`BusTiming::LengthOnly`] and a `B_LAST` strobe (the final
    ///   payload beat) under [`BusTiming::PayloadBeats`], and `PENDING`
    ///   rises the moment a producer enqueues, so a parked consumer
    ///   cannot miss an incoming value. `DATA` is deliberately *not*
    ///   watched: under payload streaming it carries one event per
    ///   beat, which would wake every parked consumer once per beat of
    ///   a burst none of them can pop until the delivery cycle.
    /// * `put` — **empty**: a put blocks only on capacity, and capacity
    ///   is released by `get` popping the delivered queue, which is not
    ///   wire-visible. Producers blocked on backpressure must therefore
    ///   keep polling (schedulers must not park them).
    #[must_use]
    pub fn completion_signals(&self, service: &str) -> Vec<PortId> {
        match service {
            "get" => match self.timing {
                // Every payload-beats delivery is marked by the B_LAST
                // rise on its delivery cycle (hand-driven on the final
                // beat, or pre-scheduled at burst start), so a starved
                // consumer needs exactly that one wire — the B_FULL /
                // PENDING churn of the arbitration phase carries no
                // deliverable values and would only cost spurious
                // wakeups mid-burst.
                BusTiming::PayloadBeats => vec![self.last_wire],
                // Length-only delivery completes with the arbitration
                // handshake itself, whose B_FULL flanks are the only
                // reliable delivery markers. DATA is deliberately not
                // watched: the length word it carries always rides
                // with a B_FULL flank, and payload beats don't exist
                // in this mode.
                BusTiming::LengthOnly => {
                    let mut wires = self.inner.completion_signals("get");
                    wires.retain(|w| *w != self.data_wire);
                    wires.push(self.pending_wire);
                    wires.sort_unstable();
                    wires.dedup();
                    wires
                }
            },
            _ => vec![],
        }
    }

    /// The wires whose events require pumping a quiescent link: only
    /// the `PENDING` bus-request wire is written by anyone other than
    /// the link itself (a producer's `put` raises it; every handshake,
    /// beat and marker wire is driven by the link's own pump — or its
    /// pre-scheduled burst drives — on cycles the link is already
    /// active). Schedulers use this as the parked link's wake set — and
    /// as the activation gate feeding [`BatchedLink::pump`]'s
    /// `inputs_changed` — instead of watching the full wire table.
    #[must_use]
    pub fn pump_wake_signals(&self) -> Vec<PortId> {
        vec![self.pending_wire]
    }

    /// Validates a `put` payload against the link's data type: the value
    /// kind must match (an `Int` link cannot carry a `Bit`); integer
    /// widths are clamped like every other port/var write.
    fn check_payload(&self, v: &Value) -> Result<(), EvalError> {
        let clamped = self.data_ty.clamp(v.clone());
        if !self.data_ty.admits(&clamped) {
            return Err(EvalError::Service(format!(
                "batched link {}: put of {v:?} does not fit data type {}",
                self.inner.spec().name(),
                self.data_ty
            )));
        }
        Ok(())
    }

    /// Dispatches one service activation by name — the single call entry
    /// point of the backplane. A malformed call (unknown service, wrong
    /// arity, payload of the wrong kind) surfaces as a typed
    /// [`EvalError::Service`], never a panic.
    ///
    /// # Errors
    ///
    /// Typed validation errors as above; wire-store errors propagate.
    pub fn call(
        &mut self,
        caller: CallerId,
        service: &str,
        args: &[Value],
        wires: &mut dyn WireStore,
    ) -> Result<ServiceOutcome, EvalError> {
        match (service, args) {
            ("put", [v]) => {
                self.check_payload(v)?;
                self.put(caller, v.clone(), wires)
            }
            ("get", []) => self.get(caller, wires),
            ("put" | "get", _) => Err(EvalError::Service(format!(
                "batched link {}: service {service} called with {} argument(s)",
                self.inner.spec().name(),
                args.len()
            ))),
            (other, _) => Err(EvalError::Service(format!(
                "batched link {} has no service {other}",
                self.inner.spec().name()
            ))),
        }
    }

    /// Enqueues one value for transport. Completes immediately unless the
    /// link is at capacity; raises the `PENDING` bus-request wire.
    ///
    /// # Errors
    ///
    /// Propagates wire-store errors.
    pub fn put(
        &mut self,
        _caller: CallerId,
        v: Value,
        wires: &mut dyn WireStore,
    ) -> Result<ServiceOutcome, EvalError> {
        let full = self.occupancy() >= self.capacity;
        let stats = self.stats.service_mut("put");
        stats.calls += 1;
        if full {
            // Rejected by backpressure: nothing changed, so the call is
            // a provable no-op — but note that capacity release is not
            // wire-visible (`get` pops without wire traffic), which is
            // why completion_signals("put") is empty and blocked
            // producers are never parked.
            self.last_call_stable = true;
            return Ok(ServiceOutcome::pending());
        }
        self.last_call_stable = false;
        stats.completions += 1;
        self.outgoing.push(self.data_ty.clamp(v));
        if wires.read_wire(self.pending_wire)? != Value::Bit(Bit::One) {
            wires.write_wire(self.pending_wire, Value::Bit(Bit::One))?;
        }
        Ok(ServiceOutcome::done())
    }

    /// Pops one delivered value, if any.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` for interface symmetry with FSM
    /// services.
    pub fn get(
        &mut self,
        _caller: CallerId,
        _wires: &mut dyn WireStore,
    ) -> Result<ServiceOutcome, EvalError> {
        let stats = self.stats.service_mut("get");
        stats.calls += 1;
        match self.delivered.pop_front() {
            Some(v) => {
                self.last_call_stable = false;
                stats.completions += 1;
                Ok(ServiceOutcome::done_with(v))
            }
            None => {
                // Empty: a no-op. Delivery always follows wire-level
                // handshake activity, so a parked consumer re-armed by
                // completion_signals("get") cannot miss it.
                self.last_call_stable = true;
                Ok(ServiceOutcome::pending())
            }
        }
    }

    /// Completes the in-flight payload stream: retires the burst,
    /// records its beats and delivers the values. Beats are recorded
    /// with the completed transaction (one per value), so
    /// `payload_beats == batched_values` holds exactly even when a
    /// bounded run ends with a batch still mid-stream.
    fn complete_stream(&mut self) {
        self.streaming = false;
        self.scheduled = false;
        self.beat = 0;
        let n = self.in_flight.len() as u64;
        self.stats.payload_beats += n;
        self.stats.record_batch(n);
        self.delivered.extend(self.in_flight.drain(..));
    }

    /// One clock activation of the link's bus machinery: loads a batch
    /// onto the bus, advances the wire handshake, streams payload beats
    /// (under [`BusTiming::PayloadBeats`]), delivers completed batches,
    /// steps the controller and manages the `PENDING` line.
    ///
    /// Returns whether anything happened (or could happen next cycle) —
    /// `false` means the link is provably idle and need not be pumped
    /// again until a wire input changes or `put` raises `PENDING`.
    ///
    /// # Errors
    ///
    /// Propagates protocol evaluation errors.
    pub fn pump(
        &mut self,
        wires: &mut dyn WireStore,
        inputs_changed: bool,
    ) -> Result<bool, EvalError> {
        let mut active = false;
        if self.in_flight.is_empty() && !self.outgoing.is_empty() && !self.sending {
            // Adapt the batch target to the observed queue depth before
            // loading: a backlog at least one target deep means the bus
            // is the bottleneck (amortize more values per arbitration);
            // a queue at a quarter or less means traffic is light (ship
            // small batches promptly instead of batching latency in).
            let depth = self.outgoing.len();
            if depth >= self.batch_target {
                self.batch_target = (self.batch_target * 2).min(self.max_batch);
            } else if depth <= self.batch_target / 4 {
                self.batch_target = (self.batch_target / 2).max(1);
            }
            let take = depth.min(self.batch_target);
            self.in_flight.extend(self.outgoing.drain(..take));
            self.sending = true;
            active = true;
        }
        if self.sending {
            // The arbitration handshake; DATA holds the batch length
            // (fits INT16: max_batch is bounded by i16::MAX).
            let len = self.in_flight.len() as i64;
            let out = self
                .inner
                .call(BUS_PRODUCER, "put", &[Value::Int(len)], wires)?;
            active = true;
            if out.done {
                self.sending = false;
            }
        }
        let mut streamed = false;
        if self.streaming && !self.sending {
            // PayloadBeats: one wire word per value per cycle on DATA —
            // the batch occupies the bus for as many beats as it
            // carries values, and a cycle-accurate observer sees every
            // word cross. B_VALID marks the beat cycles so the observer
            // can delimit payload from the arbitration length word;
            // B_LAST strobes the final beat (the delivery cycle).
            if self.scheduled {
                // Pre-scheduled burst: the kernel drives the beats, so
                // the pump only counts the burst down — no wire I/O
                // until the delivery cycle. (Staying *active* through
                // the countdown is deliberate: parking per burst was
                // measured slower — the shard watcher's sensitivity
                // rebuild and clock-demand churn per park/resume cost
                // more than the trivial countdown steps.)
                streamed = true;
                self.beat += 1;
                active = true;
                if self.beat >= self.in_flight.len() {
                    self.complete_stream();
                }
            } else {
                // Cycle-by-cycle fallback for stores without timed
                // writes: drive this cycle's beat by hand.
                let word = wire_word(&self.in_flight[self.beat]);
                wires.write_wire(self.data_wire, word)?;
                if wires.read_wire(self.valid_wire)? != Value::Bit(Bit::One) {
                    wires.write_wire(self.valid_wire, Value::Bit(Bit::One))?;
                }
                if self.beat + 1 >= self.in_flight.len() {
                    wires.write_wire(self.last_wire, Value::Bit(Bit::One))?;
                }
                streamed = true;
                self.beat += 1;
                active = true;
                if self.beat >= self.in_flight.len() {
                    self.complete_stream();
                }
            }
        } else if !self.in_flight.is_empty() && !self.sending {
            let out = self.inner.call(BUS_CONSUMER, "get", &[], wires)?;
            active = true;
            if out.done {
                match self.timing {
                    BusTiming::LengthOnly => {
                        let n = self.in_flight.len() as u64;
                        self.stats.record_batch(n);
                        self.delivered.extend(self.in_flight.drain(..));
                    }
                    BusTiming::PayloadBeats => {
                        // Arbitration granted: the payload itself still
                        // has to cross, one beat per cycle, starting
                        // next activation. On a store with timed writes
                        // the whole burst is pre-scheduled here — DATA
                        // beat k lands k+1 cycles out, the B_VALID
                        // window spans the beats, B_LAST rises on the
                        // delivery cycle — and the link then parks
                        // until the B_LAST wake; otherwise the beats
                        // are driven cycle by cycle above. B_LAST's
                        // fall is *not* scheduled: the pump drops it on
                        // the step after delivery (same timing as the
                        // fallback path), keeping it a level a late
                        // wake cannot miss.
                        let n = self.in_flight.len() as u64;
                        self.scheduled =
                            wires.write_wire_after(self.valid_wire, Value::Bit(Bit::One), 1)?;
                        if self.scheduled {
                            // Land the DATA beats as one train — a
                            // single bulk pass over the kernel's timer
                            // wheel instead of n separate schedules.
                            // The scratch is recycled across bursts so
                            // a warm streaming link allocates nothing.
                            debug_assert!(self.beat_words.is_empty());
                            self.beat_words.extend(self.in_flight.iter().map(wire_word));
                            let bulk =
                                wires.write_wire_train(self.data_wire, 1, 1, &self.beat_words)?;
                            if !bulk {
                                // Train-less store (but timed writes
                                // work, per the probe above): schedule
                                // the beats one by one.
                                for (k, v) in self.beat_words.iter().enumerate() {
                                    wires.write_wire_after(
                                        self.data_wire,
                                        v.clone(),
                                        k as u64 + 1,
                                    )?;
                                }
                            }
                            self.beat_words.clear();
                            wires.write_wire_after(
                                self.valid_wire,
                                Value::Bit(Bit::Zero),
                                n + 1,
                            )?;
                            wires.write_wire_after(self.last_wire, Value::Bit(Bit::One), n)?;
                        }
                        self.streaming = true;
                        self.beat = 0;
                    }
                }
            }
        }
        if !streamed && !self.scheduled && self.timing == BusTiming::PayloadBeats {
            if wires.read_wire(self.valid_wire)? == Value::Bit(Bit::One) {
                // First beat-free cycle after a batch's last beat: the
                // bus is back to (or about to carry) an arbitration
                // length word, so the beat marker drops. The last
                // beat's One thus stays observable for exactly one full
                // cycle, like every other beat. (Pre-scheduled bursts
                // schedule this drop themselves.)
                wires.write_wire(self.valid_wire, Value::Bit(Bit::Zero))?;
                active = true;
            }
            if wires.read_wire(self.last_wire)? == Value::Bit(Bit::One) {
                wires.write_wire(self.last_wire, Value::Bit(Bit::Zero))?;
                active = true;
            }
        }
        if self.outgoing.is_empty()
            && self.in_flight.is_empty()
            && wires.read_wire(self.pending_wire)? == Value::Bit(Bit::One)
        {
            wires.write_wire(self.pending_wire, Value::Bit(Bit::Zero))?;
            active = true;
        }
        let stepped = self
            .inner
            .step_controller_if_active(wires, inputs_changed || active)?;
        Ok(active || stepped)
    }

    /// Merged statistics: batch counters plus the inner controller's
    /// step/skip counts (the wire-level bus sessions are internal and not
    /// reported as services).
    #[must_use]
    pub fn stats(&self) -> UnitStats {
        let mut s = self.stats.clone();
        s.controller_steps = self.inner.stats().controller_steps;
        s.controller_skips = self.inner.stats().controller_skips;
        s
    }

    /// Captures all mutable link state into a [`BatchedLinkState`]: the
    /// inner bus-protocol runtime, the three payload queues, the
    /// handshake/streaming phase and the adaptive batch target.
    #[must_use]
    pub fn capture_state(&self) -> BatchedLinkState {
        BatchedLinkState {
            inner: self.inner.capture_state(),
            batch_target: self.batch_target,
            outgoing: self.outgoing.clone(),
            in_flight: self.in_flight.clone(),
            delivered: self.delivered.iter().cloned().collect(),
            sending: self.sending,
            streaming: self.streaming,
            scheduled: self.scheduled,
            beat: self.beat,
            last_call_stable: self.last_call_stable,
            stats: self.stats.clone(),
        }
    }

    /// Restores a previously captured [`BatchedLinkState`]. The target
    /// must be configured identically to the link that produced the
    /// capture (same spec, data type, timing, `max_batch`, capacity) —
    /// only mutable state is restored.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Service`] (leaving this link untouched) if
    /// the captured batch target exceeds this link's `max_batch` or the
    /// captured occupancy exceeds its capacity — the signature of a
    /// capture from a differently-configured link.
    pub fn restore_state(&mut self, state: &BatchedLinkState) -> Result<(), EvalError> {
        if state.batch_target > self.max_batch {
            return Err(EvalError::Service(format!(
                "batched link {}: snapshot batch target {} exceeds max_batch {}",
                self.inner.spec().name(),
                state.batch_target,
                self.max_batch
            )));
        }
        if state.occupancy() > self.capacity {
            return Err(EvalError::Service(format!(
                "batched link {}: snapshot occupancy {} exceeds capacity {}",
                self.inner.spec().name(),
                state.occupancy(),
                self.capacity
            )));
        }
        self.inner.restore_state(&state.inner)?;
        self.batch_target = state.batch_target;
        self.outgoing.clone_from(&state.outgoing);
        self.in_flight.clone_from(&state.in_flight);
        self.delivered.clear();
        self.delivered.extend(state.delivered.iter().cloned());
        self.sending = state.sending;
        self.streaming = state.streaming;
        self.scheduled = state.scheduled;
        self.beat = state.beat;
        self.last_call_stable = state.last_call_stable;
        self.stats.clone_from(&state.stats);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::LocalWires;

    fn fresh() -> (BatchedLink, LocalWires) {
        let link = BatchedLink::new("bus", Type::INT16, 8, 64);
        let wires = LocalWires::new(link.spec());
        (link, wires)
    }

    #[test]
    fn one_handshake_carries_many_values() {
        let (mut link, mut wires) = fresh();
        let p = CallerId(1);
        for i in 0..5 {
            assert!(link.put(p, Value::Int(i), &mut wires).unwrap().done);
        }
        for _ in 0..40 {
            link.pump(&mut wires, false).unwrap();
        }
        let mut got = vec![];
        while let Some(v) = link.get(CallerId(2), &mut wires).unwrap().result {
            got.push(v.as_int().unwrap());
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        let st = link.stats();
        assert!(
            st.batches < 5,
            "the adaptive target amortizes a queued burst into fewer \
             transactions than values (got {})",
            st.batches
        );
        assert_eq!(st.batched_values, 5);
        assert!(st.max_batch_len >= 2, "the target ramped past 1");
    }

    #[test]
    fn batches_split_at_max_batch() {
        let mut link = BatchedLink::new("bus", Type::INT16, 3, 64);
        let mut wires = LocalWires::new(link.spec());
        let p = CallerId(1);
        for i in 0..7 {
            assert!(link.put(p, Value::Int(i), &mut wires).unwrap().done);
        }
        for _ in 0..64 {
            link.pump(&mut wires, false).unwrap();
        }
        let mut got = vec![];
        while let Some(v) = link.get(CallerId(2), &mut wires).unwrap().result {
            got.push(v.as_int().unwrap());
        }
        assert_eq!(got, (0..7).collect::<Vec<_>>(), "order preserved");
        let st = link.stats();
        assert_eq!(st.batches, 3, "7 values ramping 2+3+2 at max_batch 3");
        assert_eq!(st.batched_values, 7);
        assert_eq!(st.max_batch_len, 3, "the ceiling holds");
    }

    #[test]
    fn capacity_applies_backpressure() {
        let mut link = BatchedLink::new("bus", Type::INT16, 4, 2);
        let mut wires = LocalWires::new(link.spec());
        let p = CallerId(1);
        assert!(link.put(p, Value::Int(1), &mut wires).unwrap().done);
        assert!(link.put(p, Value::Int(2), &mut wires).unwrap().done);
        assert!(
            !link.put(p, Value::Int(3), &mut wires).unwrap().done,
            "at capacity"
        );
        // Drain one, space frees up.
        for _ in 0..12 {
            link.pump(&mut wires, false).unwrap();
        }
        assert!(link.get(CallerId(2), &mut wires).unwrap().done);
        assert!(link.put(p, Value::Int(3), &mut wires).unwrap().done);
    }

    #[test]
    fn pending_wire_tracks_queue_state() {
        let (mut link, mut wires) = fresh();
        let pending = link.spec().wire_id("PENDING").unwrap();
        assert_eq!(wires.value(pending), &Value::Bit(Bit::Zero));
        link.put(CallerId(1), Value::Int(9), &mut wires).unwrap();
        assert_eq!(
            wires.value(pending),
            &Value::Bit(Bit::One),
            "bus request raised"
        );
        for _ in 0..12 {
            link.pump(&mut wires, false).unwrap();
        }
        assert_eq!(
            wires.value(pending),
            &Value::Bit(Bit::Zero),
            "bus request lowered once the queues drained"
        );
        // Delivered-but-unconsumed values need no pumping: the link is idle.
        assert!(!link.pump(&mut wires, false).unwrap(), "provably idle");
        assert_eq!(
            link.get(CallerId(2), &mut wires).unwrap().result,
            Some(Value::Int(9))
        );
    }

    #[test]
    fn values_clamped_to_data_type() {
        let (mut link, mut wires) = fresh();
        link.put(CallerId(1), Value::Int(40_000), &mut wires)
            .unwrap();
        for _ in 0..12 {
            link.pump(&mut wires, false).unwrap();
        }
        let got = link.get(CallerId(2), &mut wires).unwrap().result.unwrap();
        assert_eq!(
            got,
            Value::Int(40_000 - 65_536),
            "wrapped into INT16 range, like every other port/var write"
        );
    }

    #[test]
    fn idle_link_is_stable_until_put() {
        let (mut link, mut wires) = fresh();
        // Settle the controller.
        for _ in 0..4 {
            link.pump(&mut wires, false).unwrap();
        }
        assert!(!link.pump(&mut wires, false).unwrap(), "idle link");
        link.put(CallerId(1), Value::Int(1), &mut wires).unwrap();
        assert!(link.pump(&mut wires, false).unwrap(), "work to do again");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_batch_panics() {
        let _ = BatchedLink::new("bus", Type::INT16, 0, 4);
    }

    #[test]
    fn batch_target_adapts_to_queue_depth() {
        let mut link = BatchedLink::new("bus", Type::INT16, 8, 64);
        let mut wires = LocalWires::new(link.spec());
        let p = CallerId(1);
        assert_eq!(
            link.batch_target(),
            1,
            "starts at 1 — light traffic ships immediately, never a \
             max-sized first batch"
        );
        // A sustained backlog ramps the target up to the ceiling (the
        // trailing small load halves it back — that's the adaptation
        // working, so the proof of the ramp is the max batch shipped).
        for i in 0..32 {
            link.put(p, Value::Int(i), &mut wires).unwrap();
        }
        for _ in 0..120 {
            link.pump(&mut wires, false).unwrap();
        }
        assert_eq!(
            link.stats().max_batch_len,
            8,
            "ceiling reached, not exceeded"
        );
        // Drain, then a single queued value halves it back down.
        while link.get(CallerId(2), &mut wires).unwrap().result.is_some() {}
        for _ in 0..3 {
            link.put(p, Value::Int(0), &mut wires).unwrap();
            for _ in 0..12 {
                link.pump(&mut wires, false).unwrap();
            }
            while link.get(CallerId(2), &mut wires).unwrap().result.is_some() {}
        }
        assert!(
            link.batch_target() <= 2,
            "halved under light traffic (target {})",
            link.batch_target()
        );
    }

    #[test]
    fn first_put_ships_immediately_as_a_small_batch() {
        // Regression: the target used to start at max_batch, so the
        // very first transaction shipped a maximal batch even under
        // light traffic — a lone early value must not be held hostage
        // to a huge first batch.
        let mut link = BatchedLink::new("bus", Type::INT16, 512, 1024);
        let mut wires = LocalWires::new(link.spec());
        link.put(CallerId(1), Value::Int(7), &mut wires).unwrap();
        for _ in 0..12 {
            link.pump(&mut wires, false).unwrap();
        }
        assert_eq!(
            link.get(CallerId(2), &mut wires).unwrap().result,
            Some(Value::Int(7)),
            "the single value crossed within one short handshake"
        );
        let st = link.stats();
        assert_eq!(st.batches, 1);
        assert_eq!(
            st.max_batch_len, 1,
            "first transaction sized by traffic, not by the ceiling"
        );
    }

    #[test]
    fn batch_length_histogram_buckets_by_power_of_two() {
        let (mut link, mut wires) = fresh(); // max_batch 8
        let p = CallerId(1);
        // A queued burst of 5 ramps 2 + 3 (buckets 1 and 1).
        for i in 0..5 {
            link.put(p, Value::Int(i), &mut wires).unwrap();
        }
        for _ in 0..40 {
            link.pump(&mut wires, false).unwrap();
        }
        // Then a lone value: a 1-batch (bucket 0).
        link.put(p, Value::Int(9), &mut wires).unwrap();
        for _ in 0..12 {
            link.pump(&mut wires, false).unwrap();
        }
        let st = link.stats();
        assert_eq!(st.batches, 3);
        assert_eq!(
            st.batch_len_hist,
            vec![1, 2],
            "one 1-batch, a 2-batch and a 3-batch"
        );
        assert_eq!(
            st.batch_len_hist.iter().sum::<u64>(),
            st.batches,
            "histogram accounts for every transaction"
        );
    }

    #[test]
    fn completion_signals_name_consumer_wake_wires() {
        let (link, _) = fresh();
        let get_wires = link.completion_signals("get");
        let pending = link.spec().wire_id("PENDING").unwrap();
        let b_full = link.spec().wire_id("B_FULL").unwrap();
        assert!(get_wires.contains(&pending), "put raises PENDING");
        assert!(get_wires.contains(&b_full), "delivery rides on B_FULL");
        assert!(
            link.completion_signals("put").is_empty(),
            "capacity release is not wire-visible: blocked puts must poll"
        );
    }

    #[test]
    fn call_dispatch_validates_and_matches_direct_calls() {
        let (mut link, mut wires) = fresh();
        let p = CallerId(1);
        assert!(
            link.call(p, "put", &[Value::Int(3)], &mut wires)
                .unwrap()
                .done
        );
        // Typed errors for malformed calls: unknown service, bad arity,
        // wrong payload kind — never a panic.
        assert!(link.call(p, "bogus", &[], &mut wires).is_err());
        assert!(link.call(p, "put", &[], &mut wires).is_err());
        assert!(link.call(p, "get", &[Value::Int(1)], &mut wires).is_err());
        let err = link
            .call(p, "put", &[Value::Bool(true)], &mut wires)
            .unwrap_err();
        assert!(
            err.to_string().contains("does not fit"),
            "kind mismatch is typed: {err}"
        );
    }

    #[test]
    fn max_batch_overflow_is_a_typed_error_not_a_silent_clamp() {
        // Regression: `new` used to silently clamp max_batch to
        // i16::MAX (the DATA wire width), shrinking the caller's
        // requested ceiling without telling anyone.
        let err = BatchedLink::try_new("bus", Type::INT16, i16::MAX as usize + 1, 64).unwrap_err();
        assert!(
            err.to_string().contains("exceeds"),
            "typed, descriptive error: {err}"
        );
        assert!(BatchedLink::try_new("bus", Type::INT16, i16::MAX as usize, 64).is_ok());
        assert!(BatchedLink::try_new("bus", Type::INT16, 0, 64).is_err());
        assert!(BatchedLink::try_new("bus", Type::INT16, 4, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn max_batch_overflow_panics_in_new() {
        let _ = BatchedLink::new("bus", Type::INT16, i16::MAX as usize + 1, 64);
    }

    #[test]
    fn payload_beats_streams_one_word_per_value_per_cycle() {
        // PayloadBeats: after the arbitration handshake every value
        // crosses the DATA wire, one beat per pump activation — a
        // cycle-accurate observer sees each word, and bus occupancy
        // (payload_beats) equals the value count.
        let mut link =
            BatchedLink::new("bus", Type::INT16, 8, 64).with_timing(BusTiming::PayloadBeats);
        let mut wires = LocalWires::new(link.spec());
        let data = link.spec().wire_id("DATA").unwrap();
        let p = CallerId(1);
        for v in [11, 22, 33] {
            link.put(p, Value::Int(v), &mut wires).unwrap();
        }
        let mut seen = vec![];
        for _ in 0..64 {
            link.pump(&mut wires, false).unwrap();
            if let Value::Int(v) = wires.value(data) {
                seen.push(*v);
            }
        }
        // Every payload word was visible on DATA in order (interleaved
        // with the handshake's batch-length words).
        let mut idx = 0;
        for want in [11i64, 22, 33] {
            while idx < seen.len() && seen[idx] != want {
                idx += 1;
            }
            assert!(
                idx < seen.len(),
                "word {want} never crossed the DATA wire: {seen:?}"
            );
        }
        let mut got = vec![];
        while let Some(v) = link.get(CallerId(2), &mut wires).unwrap().result {
            got.push(v.as_int().unwrap());
        }
        assert_eq!(got, vec![11, 22, 33], "delivered values bit-identical");
        let st = link.stats();
        assert_eq!(
            st.payload_beats, st.batched_values,
            "one beat per value: occupancy scales linearly with batch length"
        );
        assert_eq!(st.batched_values, 3);
    }

    #[test]
    fn b_valid_marks_exactly_the_payload_beats() {
        // Sampling B_VALID once per pump cycle, the number of cycles it
        // reads One equals the payload beat count — the wire
        // self-describes beat boundaries to a snooping observer. During
        // every non-beat cycle (arbitration length word included) it
        // reads Zero.
        let mut link =
            BatchedLink::new("bus", Type::INT16, 8, 64).with_timing(BusTiming::PayloadBeats);
        let mut wires = LocalWires::new(link.spec());
        let valid = link.spec().wire_id("B_VALID").unwrap();
        let p = CallerId(1);
        let c = CallerId(2);
        let mut asserted = 0u64;
        let mut sent = 0i64;
        let mut got = 0;
        for _ in 0..400 {
            if sent < 11 && link.put(p, Value::Int(sent), &mut wires).unwrap().done {
                sent += 1;
            }
            link.pump(&mut wires, false).unwrap();
            if wires.value(valid) == &Value::Bit(Bit::One) {
                asserted += 1;
            }
            if link.get(c, &mut wires).unwrap().done {
                got += 1;
            }
        }
        assert_eq!(got, 11, "all values delivered");
        let st = link.stats();
        assert!(st.payload_beats > 0, "beats streamed");
        assert_eq!(
            asserted, st.payload_beats,
            "B_VALID assertions count exactly the payload beats"
        );
        // LengthOnly never drives the marker.
        let mut link = BatchedLink::new("bus", Type::INT16, 8, 64);
        let mut wires = LocalWires::new(link.spec());
        link.put(p, Value::Int(1), &mut wires).unwrap();
        for _ in 0..40 {
            link.pump(&mut wires, false).unwrap();
            assert_eq!(wires.value(valid), &Value::Bit(Bit::Zero));
        }
    }

    #[test]
    fn payload_beats_and_length_only_deliver_identical_values() {
        let mk = |timing| {
            let mut link = BatchedLink::new("bus", Type::INT16, 4, 64).with_timing(timing);
            let mut wires = LocalWires::new(link.spec());
            let p = CallerId(1);
            let c = CallerId(2);
            let mut got = vec![];
            let mut sent = 0i64;
            for _ in 0..200 {
                if sent < 13 && link.put(p, Value::Int(sent * 3), &mut wires).unwrap().done {
                    sent += 1;
                }
                link.pump(&mut wires, false).unwrap();
                if let Some(v) = link.get(c, &mut wires).unwrap().result {
                    got.push(v.as_int().unwrap());
                }
            }
            (got, link.stats())
        };
        let (fast, fast_stats) = mk(BusTiming::LengthOnly);
        let (beats, beat_stats) = mk(BusTiming::PayloadBeats);
        assert_eq!(fast, beats, "delivered-value semantics bit-identical");
        assert_eq!(fast, (0..13).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(fast_stats.payload_beats, 0, "LengthOnly streams nothing");
        assert_eq!(
            beat_stats.payload_beats, beat_stats.batched_values,
            "PayloadBeats pays one bus cycle per value"
        );
    }

    #[test]
    fn blocked_get_is_stable_until_delivery() {
        let (mut link, mut wires) = fresh();
        assert!(!link.get(CallerId(2), &mut wires).unwrap().done);
        assert!(link.last_call_stable(), "empty get is a provable no-op");
        link.put(CallerId(1), Value::Int(4), &mut wires).unwrap();
        assert!(!link.last_call_stable(), "put mutated the link");
        for _ in 0..12 {
            link.pump(&mut wires, false).unwrap();
        }
        assert!(link.get(CallerId(2), &mut wires).unwrap().done);
        assert!(!link.last_call_stable(), "a completing get pops state");
    }

    #[test]
    fn capture_restore_resumes_mid_batch() {
        let (mut link, mut wires) = fresh();
        let p = CallerId(1);
        let c = CallerId(2);
        // Queue a burst and pump it part-way: payload split across the
        // outgoing queue and an in-flight bus transaction, with the
        // adaptive target already ramped off its floor.
        for i in 0..6 {
            assert!(link.put(p, Value::Int(i), &mut wires).unwrap().done);
        }
        for _ in 0..7 {
            link.pump(&mut wires, false).unwrap();
        }
        let snap = link.capture_state();
        let wires_snap = wires.clone();
        assert_eq!(snap.occupancy(), 6, "every queued value is captured");
        assert_eq!(snap.batch_target(), link.batch_target());

        // Drain the original to completion and log delivery order.
        let drain = |link: &mut BatchedLink, wires: &mut LocalWires| {
            let mut got = vec![];
            for _ in 0..60 {
                link.pump(wires, false).unwrap();
                if let Some(v) = link.get(c, wires).unwrap().result {
                    got.push(v.as_int().unwrap());
                }
            }
            got
        };
        let first = drain(&mut link, &mut wires);
        assert_eq!(first, vec![0, 1, 2, 3, 4, 5], "order preserved");
        let end_stats = link.stats();

        // Restore into a fresh identically-configured link and replay.
        let (mut twin, _) = fresh();
        let mut twin_wires = wires_snap;
        twin.restore_state(&snap).unwrap();
        assert_eq!(twin.capture_state(), snap, "captures are canonical");
        let second = drain(&mut twin, &mut twin_wires);
        assert_eq!(second, first, "replay delivers the same sequence");
        assert_eq!(twin.stats(), end_stats, "stats land on the same totals");
    }

    #[test]
    fn restore_refuses_misconfigured_target() {
        let (mut link, mut wires) = fresh();
        for i in 0..6 {
            link.put(CallerId(1), Value::Int(i), &mut wires).unwrap();
        }
        for _ in 0..7 {
            link.pump(&mut wires, false).unwrap();
        }
        let snap = link.capture_state();

        // Capacity smaller than the captured occupancy: refused, and the
        // target keeps its own state.
        let mut tiny = BatchedLink::new("bus", Type::INT16, 8, 4);
        let mut tiny_wires = LocalWires::new(tiny.spec());
        tiny.put(CallerId(1), Value::Int(99), &mut tiny_wires)
            .unwrap();
        let before = tiny.capture_state();
        let err = tiny.restore_state(&snap).unwrap_err();
        assert!(err.to_string().contains("capacity"));
        assert_eq!(tiny.capture_state(), before, "refused load is a no-op");

        // max_batch below the captured adaptive target: refused too.
        let mut narrow = BatchedLink::new("bus", Type::INT16, 1, 64);
        let err = narrow.restore_state(&snap).unwrap_err();
        assert!(err.to_string().contains("batch target"));
    }
}
