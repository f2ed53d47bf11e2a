//! Trace capture and comparison — the instrument behind the paper's
//! *coherence* claim: co-simulation and co-synthesis runs of the same
//! description must produce the same externally visible event sequence.
//!
//! # Columnar layout and the interning contract
//!
//! [`TraceLog`] is on the per-cycle hot path of every traced module
//! activation, so it does **not** store one `String` + `Vec<Value>`
//! allocation pair per entry. Instead:
//!
//! * **Interning** — every source and label string is interned once
//!   into an `Arc<str>` table; entries store `u32` ids. Recording a
//!   label that is already interned costs one hash lookup and zero
//!   allocations — and a backplane module, which keeps the ids its
//!   name and labels had (`TraceLog::intern_hinted`), hashes nothing.
//!   IR trace statements carry `Arc<str>` labels (shared with the
//!   interner on first sight), so even the first occurrence is a
//!   refcount bump, not a string copy.
//! * **Segmented columnar storage with shared full segments** — entries
//!   live in fixed-arity segments ([`SEG_ENTRIES`] records each); each
//!   segment carries one `Value` pool that all of its entries' payloads
//!   are packed into back-to-back. Recording appends plain-old-data
//!   records and `Value`s to an owned *tail* segment, touching no
//!   refcount. A tail that fills becomes immutable and moves behind an
//!   `Arc`, so a copy of the log ([`Clone`], [`Cosim::trace_log`],
//!   snapshots, restore, fork) shares every full segment and costs
//!   O(segments) plus the partial tail and the string table.
//! * **Binary spill** — [`TraceLog::set_spill`] attaches a byte sink
//!   (format: [`crate::tracebin`], through the same encoder as
//!   [`crate::tracebin::write_log`]); a tail that fills is encoded to
//!   the sink and emptied in place, so an arbitrarily long run holds
//!   one segment in memory and recording allocates nothing at all in
//!   steady state. Spilled entries leave the in-memory view (`len`,
//!   iteration, comparison) — the sink is the archive. The first sink
//!   error is latched rather than raised: spilling stops, the entries
//!   stay in memory, and [`TraceLog::flush_spill`] returns the error.
//!
//! Equality and [`TraceLog::compare`] walk both logs' records side by
//! side and map each of one log's string ids into the other's once per
//! distinct string, so they compare integers, not strings, per entry.
//! A full segment both logs share, whose ids all map to themselves,
//! counts as matched without a walk: a replay restored from a
//! snapshot compares its shared prefix in O(segments).
//!
//! The crate-external API still speaks [`TraceEntry`] — materialized
//! owned views rendered on demand — so comparison tooling and tests
//! are unaffected by the physical layout.
//!
//! [`Cosim::trace_log`]: crate::Cosim::trace_log

use crate::tracebin::Encoder;
use cosma_core::Value;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::sync::Arc;

/// Entries per storage segment. Each full segment is one allocation
/// unit (two `Vec`s: records and the shared value pool), one unit of
/// sharing between copies of a log, and one spill unit.
pub(crate) const SEG_ENTRIES: usize = 1024;

/// One recorded event, as an owned view. The log stores entries
/// columnar and interned ([`TraceLog`]); this struct is what iteration
/// and comparison *render*, and what ad-hoc construction in tests uses.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Timestamp in femtoseconds (simulation) or cycles (board runs);
    /// ignored by sequence comparison.
    pub at: u64,
    /// Emitting module or component.
    pub source: String,
    /// Event label.
    pub label: String,
    /// Event payload.
    pub values: Vec<Value>,
}

/// One recorded event, as a borrowed view into the log's interned
/// strings and columnar value pool — the zero-copy counterpart of
/// [`TraceEntry`] that [`TraceLog::iter`] yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntryRef<'a> {
    /// Timestamp in femtoseconds (simulation) or cycles (board runs).
    pub at: u64,
    /// Emitting module or component.
    pub source: &'a str,
    /// Event label.
    pub label: &'a str,
    /// Event payload (a slice of the segment's value pool).
    pub values: &'a [Value],
}

impl TraceEntryRef<'_> {
    /// Materializes an owned [`TraceEntry`].
    #[must_use]
    pub fn to_entry(&self) -> TraceEntry {
        TraceEntry {
            at: self.at,
            source: self.source.to_string(),
            label: self.label.to_string(),
            values: self.values.to_vec(),
        }
    }
}

/// What [`TraceLog::id_map`] maps a string the other log never
/// interned to. [`Interner::insert`] keeps every id below it.
const ABSENT: u32 = u32::MAX;

/// String interner: id-stable `Arc<str>` table with a reverse map.
#[derive(Debug, Clone, Default)]
struct Interner {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        self.insert(Arc::from(s))
    }

    /// Interns an already-`Arc`ed string: first sight shares the
    /// allocation (refcount bump) instead of copying the bytes.
    fn intern_arc(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&id) = self.ids.get(&**s) {
            return id;
        }
        self.insert(Arc::clone(s))
    }

    fn insert(&mut self, arc: Arc<str>) -> u32 {
        let id = u32::try_from(self.names.len())
            .ok()
            .filter(|&id| id < ABSENT)
            .expect("interner id fits u32");
        self.names.push(Arc::clone(&arc));
        self.ids.insert(arc, id);
        id
    }

    fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// Plain-old-data record of one entry; payload lives in the owning
/// segment's value pool at `values[vstart..vstart + vlen]`.
#[derive(Debug, Clone, Copy)]
struct EntryRec {
    at: u64,
    source: u32,
    label: u32,
    vstart: u32,
    vlen: u32,
}

/// One storage segment: up to [`SEG_ENTRIES`] records plus their
/// shared value pool.
#[derive(Debug, Clone, Default)]
struct Segment {
    recs: Vec<EntryRec>,
    values: Vec<Value>,
    /// The largest source or label id any record names (0 when empty).
    max_id: u32,
}

impl Segment {
    fn values(&self, r: &EntryRec) -> &[Value] {
        &self.values[r.vstart as usize..(r.vstart + r.vlen) as usize]
    }

    fn entry<'a>(&'a self, r: &EntryRec, interner: &'a Interner) -> TraceEntryRef<'a> {
        TraceEntryRef {
            at: r.at,
            source: interner.resolve(r.source),
            label: interner.resolve(r.label),
            values: self.values(r),
        }
    }

    /// Appends every record to `enc`'s buffer.
    fn encode(&self, enc: &mut Encoder, names: &[Arc<str>]) {
        for r in &self.recs {
            enc.entry(r.at, r.source, r.label, self.values(r), names);
        }
    }
}

/// An ordered event log with interned strings and segmented columnar
/// value storage: entries store `u32` string ids and pack their
/// payloads into per-segment value pools, so steady-state recording
/// allocates nothing. Full segments are immutable and shared between
/// copies; recording fills an owned tail. [`TraceLog::set_spill`]
/// streams full segments to a [`crate::tracebin`] sink.
#[derive(Default)]
pub struct TraceLog {
    interner: Interner,
    /// Full segments, [`SEG_ENTRIES`] records each, in order.
    full: Vec<Arc<Segment>>,
    /// The segment being filled.
    tail: Segment,
    /// In-memory entry count (excludes spilled entries).
    len: usize,
    /// Entries the spill sink accepted and that left memory.
    spilled: u64,
    spill: Option<Spill>,
    /// The first sink error, latched until [`TraceLog::flush_spill`].
    spill_error: Option<std::io::Error>,
}

struct Spill {
    sink: Box<dyn Write>,
    enc: Encoder,
}

impl TraceLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Steady-state cost: two interner hash lookups
    /// plus POD/`Value` appends into the pre-grown tail segment — no
    /// allocation once the strings are known, apart from one new
    /// segment per 1024 entries when nothing spills.
    pub fn record(
        &mut self,
        at: u64,
        source: impl AsRef<str>,
        label: impl AsRef<str>,
        values: impl AsRef<[Value]>,
    ) {
        let source = self.interner.intern(source.as_ref());
        let label = self.interner.intern(label.as_ref());
        self.push(at, source, label, values.as_ref());
    }

    /// Interns `s` into this log's string table, returning its id for
    /// [`TraceLog::push`] (the binary decoder's entry point).
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        self.interner.intern(s)
    }

    /// Interns `s` given the id it had when last interned (`hint`), for
    /// [`TraceLog::push`]. The hint is taken without hashing when this
    /// log's string at that id is `s` itself ([`Arc::ptr_eq`]) or equal
    /// text; otherwise — another log, a restored one, a stale or unset
    /// hint — `s` is interned through the hash map, which stays the
    /// authority. Either way the id names `s`, so records are exact.
    pub(crate) fn intern_hinted(&mut self, s: &Arc<str>, hint: u32) -> u32 {
        match self.interner.names.get(hint as usize) {
            Some(name) if Arc::ptr_eq(name, s) || **name == **s => hint,
            _ => self.interner.intern_arc(s),
        }
    }

    /// Appends an event whose strings are already interned in this log.
    pub(crate) fn push(&mut self, at: u64, source: u32, label: u32, values: &[Value]) {
        let tail = &mut self.tail;
        let vstart = u32::try_from(tail.values.len()).expect("segment value pool fits u32");
        let vlen = u32::try_from(values.len()).expect("payload arity fits u32");
        tail.values.extend_from_slice(values);
        tail.max_id = tail.max_id.max(source).max(label);
        tail.recs.push(EntryRec {
            at,
            source,
            label,
            vstart,
            vlen,
        });
        self.len += 1;
        if tail.recs.len() >= SEG_ENTRIES {
            self.seal_tail();
        }
    }

    /// Moves the full tail out of the way: to the spill sink, which
    /// leaves the tail empty with its capacity kept, or — without a
    /// sink, or when the sink fails — behind an `Arc` into the shared
    /// full segments.
    fn seal_tail(&mut self) {
        if let Some(sp) = &mut self.spill {
            self.tail.encode(&mut sp.enc, &self.interner.names);
            match sp.enc.write_to(&mut *sp.sink) {
                Ok(()) => {
                    let n = self.tail.recs.len();
                    self.len -= n;
                    self.spilled += n as u64;
                    self.tail.recs.clear();
                    self.tail.values.clear();
                    self.tail.max_id = 0;
                    return;
                }
                Err(e) => {
                    self.spill = None;
                    self.spill_error.get_or_insert(e);
                }
            }
        }
        let next = Segment {
            recs: Vec::with_capacity(SEG_ENTRIES),
            values: Vec::with_capacity(self.tail.values.len()),
            max_id: 0,
        };
        self.full
            .push(Arc::new(std::mem::replace(&mut self.tail, next)));
    }

    /// Attaches a binary spill sink: every segment that fills from now
    /// on is encoded to the sink ([`crate::tracebin`] record stream,
    /// the encoder of [`crate::tracebin::write_log`]) and the tail
    /// emptied in place, bounding memory to one segment and making
    /// steady-state recording strictly allocation-free. The stream
    /// header is written immediately.
    ///
    /// A sink error does not panic: the first one is latched, spilling
    /// stops, the segment the sink refused and every later entry stay
    /// in memory ([`TraceLog::spilled`] counts only accepted segments),
    /// and [`TraceLog::flush_spill`] returns the error.
    ///
    /// Copies of a spilling log (clones, [`Cosim::trace_log`],
    /// snapshots) do **not** inherit the sink — a byte sink cannot be
    /// duplicated — so [`Cosim::restore`] installs a log that spills
    /// nothing until a sink is attached again.
    ///
    /// [`Cosim::trace_log`]: crate::Cosim::trace_log
    /// [`Cosim::restore`]: crate::Cosim::restore
    pub fn set_spill(&mut self, mut sink: Box<dyn Write>) {
        match crate::tracebin::write_header(&mut *sink) {
            Ok(()) => {
                self.spill = Some(Spill {
                    sink,
                    enc: Encoder::default(),
                });
            }
            Err(e) => {
                self.spill = None;
                self.spill_error.get_or_insert(e);
            }
        }
    }

    /// Flushes the spill sink. Entries still in the partial tail
    /// segment stay in memory (they spill when their segment fills).
    ///
    /// # Errors
    ///
    /// Returns the sink error latched while spilling, if any — once;
    /// the log has stopped spilling by then — and otherwise propagates
    /// the sink's flush error.
    pub fn flush_spill(&mut self) -> std::io::Result<()> {
        if let Some(e) = self.spill_error.take() {
            return Err(e);
        }
        if let Some(sp) = &mut self.spill {
            sp.sink.flush()?;
        }
        Ok(())
    }

    /// The in-memory segments in order: the full ones, then the tail.
    fn segments(&self) -> impl Iterator<Item = &Segment> + '_ {
        self.full
            .iter()
            .map(|s| &**s)
            .chain(std::iter::once(&self.tail))
    }

    /// Encodes the in-memory entries through `enc`, one `write_all`
    /// per segment (the whole-log half of [`crate::tracebin`]).
    pub(crate) fn encode_to(&self, enc: &mut Encoder, w: &mut dyn Write) -> std::io::Result<()> {
        for seg in self.segments() {
            seg.encode(enc, &self.interner.names);
            enc.write_to(w)?;
        }
        Ok(())
    }

    /// Iterates the in-memory entries in order as zero-copy views.
    pub fn iter(&self) -> impl Iterator<Item = TraceEntryRef<'_>> + '_ {
        self.segments()
            .flat_map(move |seg| seg.recs.iter().map(move |r| seg.entry(r, &self.interner)))
    }

    /// All in-memory entries, materialized in order. A rendering
    /// convenience for tests and inspection — hot paths and big logs
    /// should use [`TraceLog::iter`].
    #[must_use]
    pub fn entries(&self) -> Vec<TraceEntry> {
        self.iter().map(|e| e.to_entry()).collect()
    }

    /// Entries with a given label.
    pub fn with_label<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = TraceEntryRef<'a>> + 'a {
        self.iter().filter(move |e| e.label == label)
    }

    /// Number of in-memory entries (excludes spilled entries).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the in-memory log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries the spill sink accepted and that left memory.
    #[must_use]
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Each of this log's string ids as the id of the same string in
    /// `other`, or [`ABSENT`]: one lookup per distinct string, so that
    /// comparing the two logs compares integers per entry.
    fn id_map(&self, other: &TraceLog) -> Vec<u32> {
        self.interner
            .names
            .iter()
            .map(|s| other.interner.ids.get(&**s).copied().unwrap_or(ABSENT))
            .collect()
    }

    /// Number of leading in-memory entries on which `self` and `other`
    /// agree in label and values — and in timestamp and source when
    /// `exact`. Full segments hold [`SEG_ENTRIES`] records each, so the
    /// two logs' segments pair up at the same entry offsets.
    ///
    /// A full segment both logs hold through the same `Arc` (a log and
    /// a copy of it, or two copies of one snapshot) agrees entry for
    /// entry when every id it names maps to itself, so it is counted
    /// without a walk.
    fn agreeing_prefix(&self, other: &TraceLog, exact: bool) -> usize {
        let ids = self.id_map(other);
        let id = |i: u32| ids[i as usize];
        // Every id below `shared_ids` names the same string in both logs.
        let shared_ids = ids.iter().zip(0..).take_while(|&(&m, i)| m == i).count();
        let mut matched = 0;
        for (a, b) in self.segments().zip(other.segments()) {
            if std::ptr::eq(a, b) && (a.max_id as usize) < shared_ids {
                matched += a.recs.len();
                continue;
            }
            for (ra, rb) in a.recs.iter().zip(&b.recs) {
                let same = (!exact || ra.at == rb.at && id(ra.source) == rb.source)
                    && id(ra.label) == rb.label
                    && a.values(ra) == b.values(rb);
                if !same {
                    return matched;
                }
                matched += 1;
            }
        }
        matched
    }

    /// Compares two logs as *sequences of (label, values)*, ignoring
    /// timestamps and sources (a simulation timeline and a board cycle
    /// count are incomparable). Returns a report with the first
    /// divergence, if any.
    #[must_use]
    pub fn compare(&self, other: &TraceLog) -> TraceComparison {
        let matched = self.agreeing_prefix(other, false);
        let divergence = self
            .iter()
            .nth(matched)
            .zip(other.iter().nth(matched))
            .map(|(a, b)| (a.to_entry(), b.to_entry()));
        TraceComparison {
            matched,
            left_len: self.len,
            right_len: other.len,
            divergence,
        }
    }

    /// Restricts the log to entries that pass the filter (e.g. only
    /// motor-visible events).
    #[must_use]
    pub fn filtered(&self, mut keep: impl FnMut(TraceEntryRef<'_>) -> bool) -> TraceLog {
        let mut out = TraceLog::new();
        for e in self.iter() {
            if keep(e) {
                out.record(e.at, e.source, e.label, e.values);
            }
        }
        out
    }
}

impl Clone for TraceLog {
    /// Copies the in-memory log: full segments are shared (O(segments)
    /// refcount bumps), the partial tail and the interner are copied.
    /// The spill sink (if any) is *not* cloned — a byte sink cannot be
    /// duplicated — so clones (and thus snapshots) hold the in-memory
    /// entries only and do not spill.
    fn clone(&self) -> Self {
        TraceLog {
            interner: self.interner.clone(),
            full: self.full.clone(),
            tail: self.tail.clone(),
            len: self.len,
            spilled: self.spilled,
            spill: None,
            spill_error: None,
        }
    }
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLog")
            .field("len", &self.len)
            .field("spilled", &self.spilled)
            .field("full_segments", &self.full.len())
            .field("interned", &self.interner.names.len())
            .field("spilling", &self.spill.is_some())
            .finish()
    }
}

impl PartialEq for TraceLog {
    /// Logical sequence equality over the in-memory entries — resolved
    /// strings, timestamps and values — independent of interner id
    /// assignment or segment sharing. Spill counts must match too, so
    /// two logs that drained differently compare unequal rather than
    /// silently comparing different windows.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.spilled == other.spilled
            && self.agreeing_prefix(other, true) == self.len
    }
}

/// Result of [`TraceLog::compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceComparison {
    /// Number of leading entries that matched.
    pub matched: usize,
    /// Length of the left log.
    pub left_len: usize,
    /// Length of the right log.
    pub right_len: usize,
    /// First mismatching pair, if any.
    pub divergence: Option<(TraceEntry, TraceEntry)>,
}

impl TraceComparison {
    /// Whether the logs are identical as sequences (same length, no
    /// divergence).
    #[must_use]
    pub fn is_match(&self) -> bool {
        self.divergence.is_none() && self.left_len == self.right_len
    }

    /// Fraction of the longer log that matched, in [0, 1].
    #[must_use]
    pub fn match_rate(&self) -> f64 {
        let denom = self.left_len.max(self.right_len);
        if denom == 0 {
            1.0
        } else {
            self.matched as f64 / denom as f64
        }
    }
}

impl fmt::Display for TraceComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_match() {
            write!(f, "traces match ({} events)", self.matched)
        } else {
            write!(
                f,
                "traces diverge after {} events (lengths {} vs {})",
                self.matched, self.left_len, self.right_len
            )?;
            if let Some((a, b)) = &self.divergence {
                write!(
                    f,
                    ": {}({:?}) vs {}({:?})",
                    a.label, a.values, b.label, b.values
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(pairs: &[(&str, i64)]) -> TraceLog {
        let mut l = TraceLog::new();
        for (i, (label, v)) in pairs.iter().enumerate() {
            l.record(i as u64, "m", *label, vec![Value::Int(*v)]);
        }
        l
    }

    #[test]
    fn identical_logs_match() {
        let a = log(&[("pulse", 1), ("pulse", 2)]);
        let b = log(&[("pulse", 1), ("pulse", 2)]);
        let c = a.compare(&b);
        assert!(c.is_match());
        assert_eq!(c.match_rate(), 1.0);
        assert!(c.to_string().contains("match"));
    }

    #[test]
    fn timestamps_ignored() {
        let mut a = TraceLog::new();
        a.record(5, "sim", "pulse", vec![Value::Int(1)]);
        let mut b = TraceLog::new();
        b.record(99, "board", "pulse", vec![Value::Int(1)]);
        assert!(a.compare(&b).is_match());
    }

    #[test]
    fn divergence_reported() {
        let a = log(&[("pulse", 1), ("pulse", 2)]);
        let b = log(&[("pulse", 1), ("pulse", 3)]);
        let c = a.compare(&b);
        assert!(!c.is_match());
        assert_eq!(c.matched, 1);
        assert!(c.match_rate() < 1.0);
        assert!(c.to_string().contains("diverge"));
    }

    #[test]
    fn length_mismatch_detected() {
        let a = log(&[("pulse", 1)]);
        let b = log(&[("pulse", 1), ("pulse", 2)]);
        let c = a.compare(&b);
        assert!(!c.is_match());
        assert!(c.divergence.is_none());
        assert_eq!(c.matched, 1);
        assert_eq!(c.match_rate(), 0.5);
    }

    #[test]
    fn filter_and_label_queries() {
        let a = log(&[("pulse", 1), ("pos", 2), ("pulse", 3)]);
        assert_eq!(a.with_label("pulse").count(), 2);
        let only = a.filtered(|e| e.label == "pos");
        assert_eq!(only.len(), 1);
        assert!(!only.is_empty());
    }

    #[test]
    fn empty_logs_match() {
        let c = TraceLog::new().compare(&TraceLog::new());
        assert!(c.is_match());
        assert_eq!(c.match_rate(), 1.0);
    }

    #[test]
    fn equality_is_logical_not_physical() {
        // Same sequence, different interning order and segment history
        // (one built directly, one via filter-copy): must compare
        // equal.
        let mut a = TraceLog::new();
        a.record(1, "m", "zzz", [Value::Int(1)]);
        a.record(2, "m", "aaa", [Value::Int(2)]);
        let b = a.filtered(|_| true);
        assert_eq!(a, b);
        // And a genuinely different sequence must not.
        let c = log(&[("zzz", 1)]);
        assert_ne!(a, c);
    }

    #[test]
    fn hints_are_taken_only_when_the_log_confirms_them() {
        let mut l = TraceLog::new();
        let pulse: Arc<str> = "pulse".into();
        let id = l.intern_hinted(&pulse, 7);
        assert_eq!(l.intern_hinted(&pulse, 7), id, "unset hint: interned");
        assert_eq!(l.intern_hinted(&pulse, id), id, "same Arc");
        assert_eq!(l.intern_hinted(&"pulse".into(), id), id, "equal text");
        let other = l.intern("other");
        assert_eq!(l.intern_hinted(&pulse, other), id, "stale hint refused");
        l.push(1, other, id, &[]);
        assert_eq!(
            l.iter().next().map(|e| (e.source, e.label)),
            Some(("other", "pulse"))
        );
    }

    #[test]
    fn crosses_segment_boundaries() {
        let mut l = TraceLog::new();
        let n = SEG_ENTRIES * 2 + 7;
        for i in 0..n {
            l.record(
                i as u64,
                "m",
                "e",
                [Value::Int(i as i64), Value::Bool(i % 2 == 0)],
            );
        }
        assert_eq!(l.len(), n);
        assert_eq!(l.iter().count(), n);
        for (i, e) in l.iter().enumerate() {
            assert_eq!(e.at, i as u64);
            assert_eq!(e.values, &[Value::Int(i as i64), Value::Bool(i % 2 == 0)]);
        }
        let copy = l.clone();
        assert_eq!(l, copy);
    }

    /// `n` entries `(i, "m", "e", [i])` from `from` on.
    fn fill(l: &mut TraceLog, from: usize, n: usize) {
        for i in from..from + n {
            l.record(i as u64, "m", "e", [Value::Int(i as i64)]);
        }
    }

    #[test]
    fn clones_share_full_segments_and_stay_independent() {
        for at in [SEG_ENTRIES + 300, 2 * SEG_ENTRIES] {
            let mut a = TraceLog::new();
            fill(&mut a, 0, at);
            let mut b = a.clone();
            assert_eq!(a.full.len(), at / SEG_ENTRIES);
            assert!(a.full.iter().zip(&b.full).all(|(x, y)| Arc::ptr_eq(x, y)));
            // Both sides keep recording, and differently.
            fill(&mut a, at, SEG_ENTRIES);
            b.record(7, "other", "x", [Value::Bool(true)]);
            fill(&mut b, at + 1, SEG_ENTRIES);
            let mut want_a = TraceLog::new();
            fill(&mut want_a, 0, at + SEG_ENTRIES);
            let mut want_b = TraceLog::new();
            fill(&mut want_b, 0, at);
            want_b.record(7, "other", "x", [Value::Bool(true)]);
            fill(&mut want_b, at + 1, SEG_ENTRIES);
            assert_eq!(a, want_a, "clone at {at}: the original is unchanged");
            assert_eq!(b, want_b, "clone at {at}: the clone is unchanged");
            assert_ne!(a, b);
            assert_eq!(a.entries(), want_a.entries());
            assert_eq!(b.entries(), want_b.entries());
        }
    }

    #[test]
    fn equality_maps_ids_across_interners() {
        let mut a = TraceLog::new();
        let mut b = TraceLog::new();
        // `b` interns other strings first, so every id differs.
        b.intern("pulse");
        b.intern("unused");
        for l in [&mut a, &mut b] {
            l.record(1, "m", "pulse", [Value::Int(1)]);
            l.record(2, "n", "mode", [Value::Int(2)]);
            l.record(3, "m", "pulse", [Value::Int(3)]);
        }
        for s in ["m", "n", "pulse", "mode"] {
            assert_ne!(a.interner.ids[s], b.interner.ids[s], "{s}");
        }
        assert_eq!(a, b);
        assert_eq!(b, a);
        assert!(a.compare(&b).is_match());

        // A label the other log never interned.
        let mut c = TraceLog::new();
        c.record(1, "m", "pulse", [Value::Int(1)]);
        c.record(2, "n", "gone", [Value::Int(2)]);
        c.record(3, "m", "pulse", [Value::Int(3)]);
        assert_ne!(a, c);
        assert_ne!(c, a);
        let cmp = c.compare(&a);
        assert_eq!(cmp.matched, 1);
        let (left, right) = cmp.divergence.expect("diverges at entry 1");
        assert_eq!(
            (left.label.as_str(), right.label.as_str()),
            ("gone", "mode")
        );

        // A source the other log never interned: unequal, but `compare`
        // ignores sources.
        let mut d = TraceLog::new();
        d.record(1, "m", "pulse", [Value::Int(1)]);
        d.record(2, "elsewhere", "mode", [Value::Int(2)]);
        d.record(3, "m", "pulse", [Value::Int(3)]);
        assert_ne!(a, d);
        assert_ne!(d, a);
        assert!(d.compare(&a).is_match());
    }

    #[test]
    fn compare_reports_the_first_divergence_across_interners() {
        let mut a = TraceLog::new();
        let mut b = TraceLog::new();
        b.intern("e");
        b.intern("m");
        let n = SEG_ENTRIES + 10;
        fill(&mut a, 0, n);
        fill(&mut b, 0, n);
        assert!(a.compare(&b).is_match());
        let mut c = TraceLog::new();
        c.intern("e");
        fill(&mut c, 0, SEG_ENTRIES + 3);
        c.record(0, "m", "e", [Value::Int(-1)]);
        fill(&mut c, SEG_ENTRIES + 4, 6);
        let cmp = a.compare(&c);
        assert_eq!(cmp.matched, SEG_ENTRIES + 3);
        let (left, right) = cmp.divergence.expect("one value differs");
        assert_eq!(left.values, vec![Value::Int((SEG_ENTRIES + 3) as i64)]);
        assert_eq!(right.values, vec![Value::Int(-1)]);
        assert_eq!(c.compare(&a).matched, SEG_ENTRIES + 3);
    }

    #[test]
    fn a_restored_and_rerun_twin_compares_equal() {
        let mut a = TraceLog::new();
        fill(&mut a, 0, 2 * SEG_ENTRIES + 300);
        let snap = a.clone();
        fill(&mut a, 2 * SEG_ENTRIES + 300, 2 * SEG_ENTRIES);
        let mut twin = snap.clone();
        fill(&mut twin, 2 * SEG_ENTRIES + 300, 2 * SEG_ENTRIES);
        assert!(Arc::ptr_eq(&a.full[1], &twin.full[1]), "shared segment");
        assert!(!Arc::ptr_eq(&a.full[3], &twin.full[3]), "rerun segment");
        assert_eq!(a, twin);
        assert_eq!(twin, a);
        let cmp = a.compare(&twin);
        assert!(cmp.is_match());
        assert_eq!(cmp.matched, a.len());
    }

    #[test]
    fn a_divergence_after_shared_segments_keeps_its_index() {
        let n = 4 * SEG_ENTRIES + 10;
        let at = 3 * SEG_ENTRIES + 5;
        let mut a = TraceLog::new();
        fill(&mut a, 0, n);
        // The twin shares the first two segments with `a`; the fresh
        // copy shares nothing. Both diverge at `at`.
        let mut twin = TraceLog::new();
        fill(&mut twin, 0, 2 * SEG_ENTRIES);
        twin.full = a.full[..2].to_vec();
        let mut fresh = TraceLog::new();
        for l in [&mut twin, &mut fresh] {
            fill(l, l.len(), at - l.len());
            l.record(at as u64, "m", "e", [Value::Int(-1)]);
            fill(l, at + 1, n - at - 1);
        }
        assert!(Arc::ptr_eq(&a.full[0], &twin.full[0]));
        for b in [&twin, &fresh] {
            assert_ne!(&a, b);
            let cmp = a.compare(b);
            assert_eq!(cmp.matched, at);
            let (left, right) = cmp.divergence.expect("one value differs");
            assert_eq!(left.values, vec![Value::Int(at as i64)]);
            assert_eq!(right.values, vec![Value::Int(-1)]);
        }
    }

    #[test]
    fn a_shared_segment_whose_ids_name_other_strings_is_walked() {
        let mut a = TraceLog::new();
        fill(&mut a, 0, SEG_ENTRIES + 1);
        // The copy shares the full segment, but its interner names the
        // source and the label the other way round.
        let mut b = a.clone();
        let mut names = Interner::default();
        names.intern("e");
        names.intern("m");
        b.interner = names;
        assert!(Arc::ptr_eq(&a.full[0], &b.full[0]));
        assert_ne!(a, b);
        assert_eq!(a.compare(&b).matched, 0);
        assert_eq!(b.iter().next().map(|e| e.label), Some("m"));
    }

    /// A sink that accepts `ok` writes, then fails every write.
    struct FailingSink {
        ok: usize,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok == 0 {
                return Err(std::io::Error::other("sink full"));
            }
            self.ok -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_errors_are_latched_and_entries_stay_in_memory() {
        // Header and one segment accepted; the second segment fails.
        let mut l = TraceLog::new();
        l.set_spill(Box::new(FailingSink { ok: 2 }));
        let n = SEG_ENTRIES * 3 + 5;
        fill(&mut l, 0, n);
        assert_eq!(l.spilled(), SEG_ENTRIES as u64);
        assert_eq!(l.len(), n - SEG_ENTRIES);
        assert!(l.spill.is_none(), "spilling stopped");
        let mut want = TraceLog::new();
        fill(&mut want, 0, n);
        assert!(l.iter().eq(want.iter().skip(SEG_ENTRIES)));
        let err = l.flush_spill().expect_err("the latched error");
        assert_eq!(err.to_string(), "sink full");
        assert!(l.flush_spill().is_ok(), "reported once");

        // A sink that refuses the header spills nothing.
        let mut l = TraceLog::new();
        l.set_spill(Box::new(FailingSink { ok: 0 }));
        fill(&mut l, 0, n);
        assert_eq!((l.spilled(), l.len()), (0, n));
        assert!(l.flush_spill().is_err());
    }

    #[test]
    fn spill_bounds_memory_and_recycles_shells() {
        let mut l = TraceLog::new();
        l.set_spill(Box::new(std::io::sink()));
        let n = SEG_ENTRIES * 3 + 5;
        for i in 0..n {
            l.record(i as u64, "m", "e", [Value::Int(i as i64)]);
        }
        assert_eq!(l.spilled(), (SEG_ENTRIES * 3) as u64);
        assert_eq!(l.len(), 5);
        assert!(l.full.is_empty(), "spill keeps only the tail segment");
        assert!(
            l.tail.recs.capacity() >= SEG_ENTRIES,
            "the spilled tail keeps its capacity for the refill"
        );
        l.flush_spill().expect("sink flush");
        // A clone drops the sink but keeps the tail.
        let c = l.clone();
        assert_eq!(c.len(), 5);
        assert!(c.spill.is_none());
    }
}
