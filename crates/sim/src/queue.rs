//! The kernel's time queue: timed drives and `wait for` timeouts in one
//! hierarchical timer wheel, [`TimeWheel`].
//!
//! Near-future entries live in a bucketed wheel of power-of-two slots
//! (64 slots per level, 2^23 fs ≈ 8.4 ns level-0 slot width), each
//! coarser level covering 64× the span of the one below, and entries
//! beyond the whole wheel horizon (≈ 141 ms of simulated time ahead of
//! the wheel origin) park in an unordered overflow list with a cached
//! minimum. Insertion and removal are O(1); advancing time re-files
//! ("cascades") the coarse slot containing the new origin into finer
//! levels, which amortizes to O(1) per entry because every entry
//! cascades at most once per level.
//!
//! Determinism contract: entries are keyed `(at, seq)`, and due entries
//! are drained per instant and sorted by that key, so pop order is the
//! ascending `(at, seq)` order of a single priority queue, and a
//! snapshot ([`TimeWheel::canonical`]) is that order whatever slots the
//! entries sit in.

use crate::kernel::{ProcessId, SimStats};
use crate::signal::SignalId;
use crate::time::SimTime;
use cosma_core::Value;

/// Level-0 slot width: `2^SLOT_SHIFT` femtoseconds (≈ 8.4 ns).
const SLOT_SHIFT: u32 = 23;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels. Level `l` slots span `2^(SLOT_SHIFT + 6l)` fs, so the
/// whole wheel covers `2^(SLOT_SHIFT + 6·LEVELS)` fs ≈ 141 ms beyond
/// the origin; anything farther parks in the overflow list.
const LEVELS: usize = 4;
/// `timer_loc` level marker for entries parked in the overflow list.
const OVERFLOW_LEVEL: u8 = LEVELS as u8;
/// Floor for slot-vector growth (entries). See [`TimeWheel::insert`].
const MIN_SLOT_CAP: usize = 32;

/// What a scheduled entry does when its instant arrives.
#[derive(Debug)]
pub(crate) enum EntryKind {
    /// Apply `value` to `sig` (a timed drive, `sig <= v after d`).
    Drive {
        /// Target signal.
        sig: SignalId,
        /// Value to apply.
        value: Value,
    },
    /// Wake a process (`wait for d`). A process has at most one armed
    /// timer, and cancelling it removes the entry.
    Timer {
        /// Process to wake.
        pid: ProcessId,
    },
}

/// One scheduled entry, totally ordered by `(at, seq)`.
#[derive(Debug)]
pub(crate) struct QueueEntry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EntryKind,
}

/// Where a process's armed timer entry currently lives, for O(1)
/// cancellation. `level == OVERFLOW_LEVEL` means the overflow list
/// (`slot` unused).
#[derive(Debug, Clone, Copy)]
struct TimerLoc {
    level: u8,
    slot: u8,
    idx: u32,
}

/// One wheel slot: its entries plus a cached `(at, seq)` minimum.
/// `min` is `Some` only when it is known-exact; removal of the cached
/// minimum dirties it (`None`) and the next query recomputes it.
#[derive(Debug, Default)]
struct Slot {
    entries: Vec<QueueEntry>,
    min: Option<(SimTime, u64)>,
}

/// One wheel level: 64 slots and an occupancy bitmap (bit `i` set iff
/// slot `i` is non-empty), so the first occupied slot at or beyond the
/// origin is a mask-and-`trailing_zeros` away.
#[derive(Debug)]
struct WheelLevel {
    occupied: u64,
    slots: Vec<Slot>,
}

impl WheelLevel {
    fn new() -> Self {
        WheelLevel {
            occupied: 0,
            // Pre-size every slot vector: traffic drifts across slots
            // as the cursor laps, so a "virgin" slot's first touch can
            // land arbitrarily deep into a run — long after any warm-up
            // — and a first-touch reservation there would break the
            // zero-allocation steady state. ~393KB per simulator.
            slots: (0..SLOTS)
                .map(|_| Slot {
                    entries: Vec::with_capacity(MIN_SLOT_CAP),
                    min: None,
                })
                .collect(),
        }
    }
}

/// The hierarchical timer wheel. See the module docs for the layout and
/// the determinism contract.
///
/// # Invariants
///
/// * Every stored entry satisfies `at >= pos` (the origin).
/// * An entry files at the level of the highest bit (above
///   `SLOT_SHIFT`) where its time differs from `pos`; consequently a
///   level-`l ≥ 1` entry shares the origin's level-`l+1` superslot and
///   its slot index is strictly greater than the origin's, so the
///   per-level "first occupied slot" scan never wraps.
/// * The kernel only advances the origin to the exact global minimum
///   (`next_at`), so slots between the old and new origin are empty and
///   a cascade only ever drains the one slot containing the new origin
///   per level; re-filed entries provably land at a finer level.
/// * Timers are removed eagerly on cancellation via their recorded
///   `(level, slot, idx)` — the wheel never holds tombstones.
#[derive(Debug)]
pub(crate) struct TimeWheel {
    levels: Vec<WheelLevel>,
    /// Entries beyond the wheel horizon, unordered.
    overflow: Vec<QueueEntry>,
    /// Cached overflow minimum; `None` = dirty or empty.
    overflow_min: Option<(SimTime, u64)>,
    /// Wheel origin in femtoseconds.
    pos: u64,
    /// Per-process location of its armed timer entry, indexed by
    /// process id.
    timer_loc: Vec<Option<TimerLoc>>,
    /// Recycled scratch for cascade drains and overflow re-ingest.
    cascade_buf: Vec<QueueEntry>,
}

impl TimeWheel {
    pub(crate) fn new() -> Self {
        TimeWheel {
            levels: (0..LEVELS).map(|_| WheelLevel::new()).collect(),
            overflow: vec![],
            overflow_min: None,
            pos: 0,
            timer_loc: vec![],
            cascade_buf: vec![],
        }
    }

    /// The `(level, slot)` an instant files under, relative to the
    /// current origin, or `None` when it lies beyond the wheel horizon.
    fn level_and_slot(&self, at_fs: u64) -> Option<(usize, usize)> {
        let x = (at_fs >> SLOT_SHIFT) ^ (self.pos >> SLOT_SHIFT);
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / LEVEL_BITS) as usize
        };
        if level >= LEVELS {
            return None;
        }
        let shift = SLOT_SHIFT + LEVEL_BITS * level as u32;
        Some((level, ((at_fs >> shift) & (SLOTS as u64 - 1)) as usize))
    }

    fn set_timer_loc(&mut self, pid: ProcessId, loc: TimerLoc) {
        let i = pid.index();
        if self.timer_loc.len() <= i {
            self.timer_loc.resize(i + 1, None);
        }
        self.timer_loc[i] = Some(loc);
    }

    /// Files a timed drive of `value` onto `sig`.
    pub(crate) fn insert_drive(
        &mut self,
        at: SimTime,
        seq: u64,
        sig: SignalId,
        value: Value,
        stats: &mut SimStats,
    ) {
        let kind = EntryKind::Drive { sig, value };
        self.insert(QueueEntry { at, seq, kind }, stats, true);
    }

    /// Files the timeout of `pid`, which must have no other armed timer.
    pub(crate) fn insert_timer(
        &mut self,
        at: SimTime,
        seq: u64,
        pid: ProcessId,
        stats: &mut SimStats,
    ) {
        let kind = EntryKind::Timer { pid };
        self.insert(QueueEntry { at, seq, kind }, stats, true);
    }

    fn insert(&mut self, e: QueueEntry, stats: &mut SimStats, count_overflow: bool) {
        let at_fs = e.at.as_fs();
        debug_assert!(at_fs >= self.pos, "insert behind the wheel origin");
        let key = (e.at, e.seq);
        let timer_pid = match e.kind {
            EntryKind::Timer { pid } => Some(pid),
            EntryKind::Drive { .. } => None,
        };
        match self.level_and_slot(at_fs) {
            Some((lvl, si)) => {
                let slot = &mut self.levels[lvl].slots[si];
                if slot.entries.is_empty() {
                    slot.min = Some(key);
                } else if let Some(m) = &mut slot.min {
                    if key < *m {
                        *m = key;
                    }
                }
                let idx = slot.entries.len() as u32;
                if slot.entries.len() == slot.entries.capacity() {
                    // Grow with a generous floor: a slot's occupancy
                    // high-water drifts up slowly (bursts land on
                    // different slots each lap), and creeping 4→8→16
                    // doublings would trickle allocations deep into
                    // warm runs. One sized reservation per slot makes
                    // the zero-allocation steady state converge at
                    // first touch.
                    slot.entries.reserve(MIN_SLOT_CAP.max(slot.entries.len()));
                }
                slot.entries.push(e);
                let occupancy = slot.entries.len() as u64;
                self.levels[lvl].occupied |= 1 << si;
                if let Some(pid) = timer_pid {
                    self.set_timer_loc(
                        pid,
                        TimerLoc {
                            level: lvl as u8,
                            slot: si as u8,
                            idx,
                        },
                    );
                }
                stats.wheel_slot_peak = stats.wheel_slot_peak.max(occupancy);
            }
            None => {
                if self.overflow.is_empty() {
                    self.overflow_min = Some(key);
                } else if let Some(m) = &mut self.overflow_min {
                    if key < *m {
                        *m = key;
                    }
                }
                let idx = self.overflow.len() as u32;
                self.overflow.push(e);
                if let Some(pid) = timer_pid {
                    self.set_timer_loc(
                        pid,
                        TimerLoc {
                            level: OVERFLOW_LEVEL,
                            slot: 0,
                            idx,
                        },
                    );
                }
                if count_overflow {
                    stats.overflow_parked += 1;
                }
            }
        }
    }

    /// O(1) timer cancellation: swap-remove the entry at its recorded
    /// location, fixing up the displaced entry's back-pointer (if it was
    /// a timer) and dirtying the slot's cached minimum when needed.
    /// Returns whether an entry was removed.
    pub(crate) fn remove_timer(&mut self, pid: ProcessId) -> bool {
        let Some(loc) = self.timer_loc.get_mut(pid.index()).and_then(Option::take) else {
            return false;
        };
        let idx = loc.idx as usize;
        if loc.level == OVERFLOW_LEVEL {
            let removed = self.overflow.swap_remove(idx);
            debug_assert!(matches!(removed.kind, EntryKind::Timer { .. }));
            if let Some(moved) = self.overflow.get(idx) {
                if let EntryKind::Timer { pid: mp } = moved.kind {
                    self.timer_loc[mp.index()] = Some(TimerLoc {
                        level: OVERFLOW_LEVEL,
                        slot: 0,
                        idx: loc.idx,
                    });
                }
            }
            if self.overflow_min == Some((removed.at, removed.seq)) {
                self.overflow_min = None;
            }
            return true;
        }
        let (lvl, si) = (loc.level as usize, loc.slot as usize);
        let slot = &mut self.levels[lvl].slots[si];
        let removed = slot.entries.swap_remove(idx);
        debug_assert!(matches!(removed.kind, EntryKind::Timer { .. }));
        if slot.min == Some((removed.at, removed.seq)) {
            slot.min = None;
        }
        if slot.entries.is_empty() {
            slot.min = None;
            self.levels[lvl].occupied &= !(1u64 << si);
        } else if let Some(moved) = self.levels[lvl].slots[si].entries.get(idx) {
            if let EntryKind::Timer { pid: mp } = moved.kind {
                self.timer_loc[mp.index()] = Some(TimerLoc {
                    level: loc.level,
                    slot: loc.slot,
                    idx: loc.idx,
                });
            }
        }
        true
    }

    /// Advances the origin to `to`, cascading the coarse slot containing
    /// `to` at each level into finer levels and re-ingesting overflow
    /// entries that now fit inside the wheel horizon. The kernel only
    /// calls this with `to` equal to the exact global minimum, so every
    /// slot strictly between the old and new origin is empty.
    pub(crate) fn advance(&mut self, to: SimTime, stats: &mut SimStats) {
        let to_fs = to.as_fs();
        debug_assert!(to_fs >= self.pos, "time reversal in wheel advance");
        if to_fs == self.pos {
            return;
        }
        let old = self.pos;
        self.pos = to_fs;
        if (to_fs ^ old) >> (SLOT_SHIFT + LEVEL_BITS) == 0 {
            // The origin stayed inside its level-1 slot, so no coarse
            // slot boundary was crossed at any level — the common case
            // for instant-to-instant steps, which skips the cascade
            // scan entirely.
            self.reingest_overflow(stats);
            return;
        }
        for lvl in (1..LEVELS).rev() {
            let shift = SLOT_SHIFT + LEVEL_BITS * lvl as u32;
            if (to_fs >> shift) == (old >> shift) {
                // Same slot at this level (and every coarser one):
                // nothing filed here can have become due or re-fileable.
                continue;
            }
            let si = ((to_fs >> shift) & (SLOTS as u64 - 1)) as usize;
            let level = &mut self.levels[lvl];
            if level.occupied & (1 << si) == 0 {
                continue;
            }
            level.occupied &= !(1u64 << si);
            let slot = &mut level.slots[si];
            slot.min = None;
            // `append` keeps the drained slot's capacity, so a warm
            // steady state recycles slot storage without allocating.
            self.cascade_buf.append(&mut slot.entries);
            stats.wheel_cascades += self.cascade_buf.len() as u64;
            let mut buf = std::mem::take(&mut self.cascade_buf);
            for e in buf.drain(..) {
                debug_assert!(e.at.as_fs() >= to_fs, "cascade past a due entry");
                self.insert(e, stats, false);
            }
            self.cascade_buf = buf;
        }
        self.reingest_overflow(stats);
    }

    /// Moves overflow entries back into the wheel once the overflow
    /// minimum fits inside the horizon. The fit check on the minimum is
    /// exact: for a fixed origin the filing level is monotone in the
    /// entry time, so if the minimum does not fit, nothing does.
    fn reingest_overflow(&mut self, stats: &mut SimStats) {
        if self.overflow.is_empty() {
            return;
        }
        let (min_at, _) = self.overflow_min_key();
        if self.level_and_slot(min_at.as_fs()).is_none() {
            return;
        }
        debug_assert!(self.cascade_buf.is_empty());
        self.cascade_buf.append(&mut self.overflow);
        self.overflow_min = None;
        stats.wheel_cascades += self.cascade_buf.len() as u64;
        let mut buf = std::mem::take(&mut self.cascade_buf);
        for e in buf.drain(..) {
            self.insert(e, stats, false);
        }
        self.cascade_buf = buf;
    }

    fn overflow_min_key(&mut self) -> (SimTime, u64) {
        if let Some(m) = self.overflow_min {
            return m;
        }
        let m = self
            .overflow
            .iter()
            .map(|e| (e.at, e.seq))
            .min()
            .expect("non-empty overflow");
        self.overflow_min = Some(m);
        m
    }

    fn slot_min_key(&mut self, lvl: usize, si: usize) -> (SimTime, u64) {
        let slot = &mut self.levels[lvl].slots[si];
        if let Some(m) = slot.min {
            return m;
        }
        let m = slot
            .entries
            .iter()
            .map(|e| (e.at, e.seq))
            .min()
            .expect("occupied slot");
        slot.min = Some(m);
        m
    }

    /// Exact earliest scheduled instant. Levels are totally ordered in
    /// time: a level-`l` entry shares the origin's bits above level `l`'s
    /// span while a level-`l+1` entry is strictly beyond them, so *every*
    /// level-`l` entry precedes every coarser-level entry, and the first
    /// non-empty level (finest first; overflow last) holds the global
    /// minimum in its first occupied slot. One bitmap scan per empty
    /// level plus one cached slot minimum. Non-destructive (only
    /// refreshes a dirty cached minimum).
    pub(crate) fn next_at(&mut self) -> Option<SimTime> {
        for lvl in 0..LEVELS {
            let shift = SLOT_SHIFT + LEVEL_BITS * lvl as u32;
            let cur = ((self.pos >> shift) & (SLOTS as u64 - 1)) as u32;
            let mut mask = u64::MAX << cur;
            if lvl != 0 {
                // Level ≥ 1 entries always sit strictly beyond the
                // origin's slot (see the filing invariant).
                mask <<= 1;
            }
            let occ = self.levels[lvl].occupied & mask;
            if occ == 0 {
                continue;
            }
            let si = occ.trailing_zeros() as usize;
            return Some(self.slot_min_key(lvl, si).0);
        }
        if !self.overflow.is_empty() {
            return Some(self.overflow_min_key().0);
        }
        None
    }

    /// Drains every entry due exactly at `now` (the level-0 slot at the
    /// origin) into `due`, leaving later same-slot entries behind. One
    /// stable partition pass through a recycled scratch buffer: kept
    /// entries have their timer locations and the slot's cached minimum
    /// maintained on the way, so the following [`Self::next_at`] never
    /// rescans the slot. `due` is appended in arbitrary order; the
    /// caller sorts by `(at, seq)`.
    pub(crate) fn take_due(&mut self, now: SimTime, due: &mut Vec<QueueEntry>) {
        let now_fs = now.as_fs();
        debug_assert_eq!(now_fs, self.pos, "take_due before advance");
        let si = ((now_fs >> SLOT_SHIFT) & (SLOTS as u64 - 1)) as usize;
        if self.levels[0].occupied & (1 << si) == 0 {
            return;
        }
        // Split borrows: the slot vector is iterated mutably while the
        // timer back-pointer table updates alongside it.
        let Self {
            levels, timer_loc, ..
        } = self;
        let slot = &mut levels[0].slots[si];
        // Extract due entries in place, preserving both the due order
        // and the survivors' order. The slot keeps its own vector, so
        // per-slot capacities are sticky — once a slot has grown to its
        // working set it never reallocates again (the zero-allocation
        // steady-state contract pins this).
        for e in slot.entries.extract_if(.., |e| e.at == now) {
            if let EntryKind::Timer { pid } = e.kind {
                timer_loc[pid.index()] = None;
            }
            due.push(e);
        }
        if slot.entries.is_empty() {
            slot.min = None;
            self.levels[0].occupied &= !(1u64 << si);
        } else {
            // Future laps share this slot: the extraction shifted the
            // survivors down, so re-point their timer locations and
            // refresh the cached min in one short pass — the following
            // `next_at` never rescans.
            let mut min: Option<(SimTime, u64)> = None;
            for (idx, e) in slot.entries.iter().enumerate() {
                debug_assert!(e.at > now, "stale entry in due slot");
                let key = (e.at, e.seq);
                if min.is_none_or(|m| key < m) {
                    min = Some(key);
                }
                if let EntryKind::Timer { pid } = e.kind {
                    timer_loc[pid.index()] = Some(TimerLoc {
                        level: 0,
                        slot: si as u8,
                        idx: idx as u32,
                    });
                }
            }
            slot.min = min;
        }
    }

    /// Canonical capture: every entry, split by kind, each sorted by
    /// `(at, seq)`. This is the form a snapshot stores, so two captures
    /// of the same schedule are equal whatever slots their entries sat
    /// in.
    #[allow(clippy::type_complexity)]
    pub(crate) fn canonical(
        &self,
    ) -> (
        Vec<(SimTime, u64, SignalId, Value)>,
        Vec<(SimTime, u64, ProcessId)>,
    ) {
        let mut drives = vec![];
        let mut timers = vec![];
        let slots = self.levels.iter().flat_map(|l| &l.slots);
        for e in slots.flat_map(|s| &s.entries).chain(&self.overflow) {
            match &e.kind {
                EntryKind::Drive { sig, value } => drives.push((e.at, e.seq, *sig, value.clone())),
                EntryKind::Timer { pid } => timers.push((e.at, e.seq, *pid)),
            }
        }
        drives.sort_unstable_by_key(|&(at, seq, ..)| (at, seq));
        timers.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        (drives, timers)
    }

    /// Clears the wheel and re-files a canonical capture, re-basing the
    /// origin at `now` (every captured entry satisfies `at >= now`).
    /// The inserts count in `stats`; a state restore overwrites them
    /// afterwards.
    pub(crate) fn rebuild<'a>(
        &mut self,
        now: SimTime,
        drives: &[(SimTime, u64, SignalId, Value)],
        timers: impl IntoIterator<Item = &'a (SimTime, u64, ProcessId)>,
        stats: &mut SimStats,
    ) {
        for level in &mut self.levels {
            level.occupied = 0;
            for slot in &mut level.slots {
                slot.entries.clear();
                slot.min = None;
            }
        }
        self.overflow.clear();
        self.overflow_min = None;
        self.timer_loc.iter_mut().for_each(|l| *l = None);
        self.pos = now.as_fs();
        for (at, seq, sig, value) in drives {
            self.insert_drive(*at, *seq, *sig, value.clone(), stats);
        }
        for &(at, seq, pid) in timers {
            self.insert_timer(at, seq, pid, stats);
        }
    }
}
