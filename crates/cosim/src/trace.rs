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
//! * **Segmented columnar storage** — entries live in fixed-arity
//!   segments ([`SEG_ENTRIES`] records each); each segment carries one
//!   shared `Value` pool that all of its entries' payloads are packed
//!   into back-to-back. Steady-state recording appends plain-old-data
//!   records and `Value`s into pre-grown vectors: no per-entry
//!   allocation, and segment allocation itself disappears once a spill
//!   sink recycles shells (or amortizes to one `Vec` growth per
//!   [`SEG_ENTRIES`] entries without one).
//! * **Binary spill** — [`TraceLog::set_spill`] attaches a byte sink
//!   (format: [`crate::tracebin`]); every segment that fills is encoded
//!   to the sink and its shell recycled, so an arbitrarily long run
//!   holds at most one segment in memory and recording allocates
//!   nothing at all in steady state. Spilled entries leave the
//!   in-memory view (`len`, iteration, comparison) — the sink is the
//!   archive.
//!
//! The crate-external API still speaks [`TraceEntry`] — materialized
//! owned views rendered on demand — so comparison tooling and tests
//! are unaffected by the physical layout.

use cosma_core::Value;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::sync::Arc;

/// Entries per storage segment. Each full segment is one allocation
/// unit (two `Vec`s: records and the shared value pool) and one spill
/// unit.
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
        let id = u32::try_from(self.names.len()).expect("interner id fits u32");
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
/// shared value pool. Cleared shells keep their capacity, so recycling
/// a segment makes its refill allocation-free.
#[derive(Debug, Clone, Default)]
struct Segment {
    recs: Vec<EntryRec>,
    values: Vec<Value>,
}

impl Segment {
    fn entry<'a>(&'a self, i: usize, interner: &'a Interner) -> TraceEntryRef<'a> {
        let r = &self.recs[i];
        TraceEntryRef {
            at: r.at,
            source: interner.resolve(r.source),
            label: interner.resolve(r.label),
            values: &self.values[r.vstart as usize..(r.vstart + r.vlen) as usize],
        }
    }
}

/// An ordered event log with interned strings and segmented columnar
/// value storage: entries store `u32` string ids and pack their
/// payloads into per-segment value pools, so steady-state recording
/// allocates nothing. [`TraceLog::set_spill`] streams full segments to
/// a [`crate::tracebin`] sink.
#[derive(Default)]
pub struct TraceLog {
    interner: Interner,
    segs: Vec<Segment>,
    /// Recycled segment shells (spill mode drains into this).
    free: Vec<Segment>,
    /// In-memory entry count (excludes spilled entries).
    len: usize,
    /// Entries encoded to the spill sink and dropped from memory.
    spilled: u64,
    spill: Option<SpillSink>,
}

struct SpillSink {
    sink: Box<dyn Write>,
    /// Per interned id: whether its definition record was emitted.
    defined: Vec<bool>,
}

impl TraceLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Steady-state cost: two interner hash lookups
    /// plus POD/`Value` appends into pre-grown segment vectors — no
    /// allocation once the strings are known and the segment shells
    /// are warm.
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

    /// [`TraceLog::record`] for labels that already exist as `Arc<str>`
    /// (IR trace statements): a first-sight label shares the `Arc`
    /// instead of copying the string.
    pub fn record_interned(&mut self, at: u64, source: &str, label: &Arc<str>, values: &[Value]) {
        let source = self.interner.intern(source);
        let label = self.interner.intern_arc(label);
        self.push(at, source, label, values);
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
        if self.segs.last().is_none_or(|s| s.recs.len() >= SEG_ENTRIES) {
            let seg = self.free.pop().unwrap_or_default();
            self.segs.push(seg);
        }
        let seg = self.segs.last_mut().expect("segment just ensured");
        let vstart = u32::try_from(seg.values.len()).expect("segment value pool fits u32");
        let vlen = u32::try_from(values.len()).expect("payload arity fits u32");
        seg.values.extend_from_slice(values);
        seg.recs.push(EntryRec {
            at,
            source,
            label,
            vstart,
            vlen,
        });
        self.len += 1;
        if seg.recs.len() >= SEG_ENTRIES && self.spill.is_some() {
            self.spill_last_segment();
        }
    }

    /// Attaches a binary spill sink: every segment that fills from now
    /// on is encoded to the sink ([`crate::tracebin`] record stream)
    /// and its shell recycled, bounding memory to one segment and
    /// making steady-state recording strictly allocation-free. The
    /// stream header is written immediately.
    ///
    /// Clones and snapshots of a spilling log do **not** inherit the
    /// sink (a byte sink cannot be duplicated); they keep the
    /// in-memory tail only.
    pub fn set_spill(&mut self, mut sink: Box<dyn Write>) {
        crate::tracebin::write_header(&mut sink).expect("spill sink accepts header");
        self.spill = Some(SpillSink {
            sink,
            defined: vec![],
        });
    }

    /// Flushes buffered full segments and the sink. Entries still in
    /// the partial tail segment stay in memory (they spill when their
    /// segment fills).
    ///
    /// # Errors
    ///
    /// Propagates sink write errors.
    pub fn flush_spill(&mut self) -> std::io::Result<()> {
        if let Some(sp) = &mut self.spill {
            sp.sink.flush()?;
        }
        Ok(())
    }

    /// Encodes the (full) last segment to the spill sink and recycles
    /// its shell.
    fn spill_last_segment(&mut self) {
        let seg = self.segs.pop().expect("spill caller ensured a segment");
        let sp = self.spill.as_mut().expect("spill caller checked sink");
        for i in 0..seg.recs.len() {
            let r = &seg.recs[i];
            for id in [r.source, r.label] {
                let idx = id as usize;
                if sp.defined.len() <= idx {
                    sp.defined.resize(idx + 1, false);
                }
                if !sp.defined[idx] {
                    sp.defined[idx] = true;
                    crate::tracebin::write_def(&mut sp.sink, id, self.interner.resolve(id))
                        .expect("spill sink accepts records");
                }
            }
            crate::tracebin::write_entry(
                &mut sp.sink,
                &seg.entry(i, &self.interner),
                r.source,
                r.label,
            )
            .expect("spill sink accepts records");
        }
        self.len -= seg.recs.len();
        self.spilled += seg.recs.len() as u64;
        let mut shell = seg;
        shell.recs.clear();
        shell.values.clear();
        self.free.push(shell);
    }

    /// Iterates the in-memory entries in order as zero-copy views.
    pub fn iter(&self) -> impl Iterator<Item = TraceEntryRef<'_>> + '_ {
        self.segs
            .iter()
            .flat_map(move |seg| (0..seg.recs.len()).map(move |i| seg.entry(i, &self.interner)))
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

    /// Entries encoded to the spill sink and dropped from memory.
    #[must_use]
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Compares two logs as *sequences of (label, values)*, ignoring
    /// timestamps and sources (a simulation timeline and a board cycle
    /// count are incomparable). Returns a report with the first
    /// divergence, if any.
    #[must_use]
    pub fn compare(&self, other: &TraceLog) -> TraceComparison {
        let mut matched = 0usize;
        let mut divergence = None;
        for (a, b) in self.iter().zip(other.iter()) {
            if a.label != b.label || a.values != b.values {
                divergence = Some((a.to_entry(), b.to_entry()));
                break;
            }
            matched += 1;
        }
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
    /// Deep-copies the in-memory log. The spill sink (if any) is *not*
    /// cloned — a byte sink cannot be duplicated — so clones (and thus
    /// snapshots) hold the in-memory tail only and do not spill.
    fn clone(&self) -> Self {
        TraceLog {
            interner: self.interner.clone(),
            segs: self.segs.clone(),
            free: vec![],
            len: self.len,
            spilled: self.spilled,
            spill: None,
        }
    }
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLog")
            .field("len", &self.len)
            .field("spilled", &self.spilled)
            .field("segments", &self.segs.len())
            .field("interned", &self.interner.names.len())
            .field("spilling", &self.spill.is_some())
            .finish()
    }
}

impl PartialEq for TraceLog {
    /// Logical sequence equality over the in-memory entries — resolved
    /// strings, timestamps and values — independent of interner id
    /// assignment or segment boundaries. Spill counts must match too,
    /// so two logs that drained differently compare unequal rather
    /// than silently comparing different windows.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.spilled == other.spilled
            && self.iter().zip(other.iter()).all(|(a, b)| {
                a.at == b.at && a.source == b.source && a.label == b.label && a.values == b.values
            })
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
        assert!(l.segs.len() <= 1, "spill keeps at most the tail segment");
        l.flush_spill().expect("sink flush");
        // A clone drops the sink but keeps the tail.
        let c = l.clone();
        assert_eq!(c.len(), 5);
        assert!(c.spill.is_none());
    }
}
