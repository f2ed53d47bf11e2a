//! Binary trace stream — the [`TraceLog`] counterpart
//! of the kernel's `vcd` waveform writer: a compact, append-only record
//! stream for archiving trace logs (whole-log [`write_log`]) and for
//! the log's incremental spill mode
//! ([`TraceLog::set_spill`](crate::TraceLog::set_spill)).
//!
//! # Format
//!
//! A 5-byte header (`b"CTRC"` + version `1`), then records:
//!
//! * `0x01` **Def** — `varint id`, `varint len`, `len` UTF-8 bytes.
//!   Binds a stream string id to its text. Writers assign ids densely
//!   (0, 1, 2, ...) in first-use order and define each one just before
//!   the entry that first uses it.
//! * `0x02` **Entry** — `varint at`, `varint source-id`,
//!   `varint label-id`, `varint n`, then `n` values.
//!
//! Values are a tag byte plus payload: `0x00` four-valued bit (one code
//! byte), `0x01` bool (one byte), `0x02` int (zigzag varint), `0x03`
//! enum (inline type name + variant list as length-prefixed strings,
//! then the variant index — self-contained so the spill path needs no
//! cross-record type table; trace payloads are overwhelmingly ints and
//! bits, so the inline cost is immaterial).
//!
//! All varints are LEB128. The stream is self-delimiting: readers stop
//! cleanly at end-of-input between records.
//!
//! # One encoder
//!
//! [`write_log`] and the spill sink share one encoder: a per-stream
//! table gives each of the log's interned ids its dense stream id on
//! first use, and each segment's records are encoded into a reused
//! byte buffer that reaches the sink in one `write_all`. A spilled
//! stream is therefore byte for byte a prefix of what [`write_log`]
//! writes for the same entries.
//!
//! # Decoding untrusted input
//!
//! The decoder reads through a fixed-size chunk buffer and treats its
//! input as untrusted: a truncated or corrupted stream yields a
//! [`TraceBinError`], never a panic, and no length, id or count read
//! from the stream sizes an allocation before the bytes behind it have
//! arrived. Stream ids resolve through a table that grows by one slot
//! per definition carrying the next dense id; any other id (a sparse
//! or hostile stream) goes to a hash map, so no id sizes the table.

use crate::trace::TraceLog;
use cosma_core::{Bit, EnumType, EnumValue, Value};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CTRC";
const VERSION: u8 = 1;

const REC_DEF: u8 = 0x01;
const REC_ENTRY: u8 = 0x02;

const VAL_BIT: u8 = 0x00;
const VAL_BOOL: u8 = 0x01;
const VAL_INT: u8 = 0x02;
const VAL_ENUM: u8 = 0x03;

/// Errors from decoding a binary trace stream.
#[derive(Debug)]
pub enum TraceBinError {
    /// Underlying reader failure.
    Io(std::io::Error),
    /// Stream header or record structure is malformed.
    Malformed(String),
}

impl std::fmt::Display for TraceBinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceBinError::Io(e) => write!(f, "trace stream read: {e}"),
            TraceBinError::Malformed(m) => write!(f, "malformed trace stream: {m}"),
        }
    }
}

impl std::error::Error for TraceBinError {}

impl From<std::io::Error> for TraceBinError {
    fn from(e: std::io::Error) -> Self {
        TraceBinError::Io(e)
    }
}

fn malformed(m: impl Into<String>) -> TraceBinError {
    TraceBinError::Malformed(m.into())
}

// --- encoding ---

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn bit_code(b: Bit) -> u8 {
    match b {
        Bit::Zero => 0,
        Bit::One => 1,
        Bit::X => 2,
        Bit::Z => 3,
    }
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bit(b) => buf.extend_from_slice(&[VAL_BIT, bit_code(*b)]),
        Value::Bool(b) => buf.extend_from_slice(&[VAL_BOOL, u8::from(*b)]),
        Value::Int(i) => {
            buf.push(VAL_INT);
            put_varint(buf, zigzag(*i));
        }
        Value::Enum(e) => {
            buf.push(VAL_ENUM);
            put_str(buf, e.ty().name());
            put_varint(buf, e.ty().variants().len() as u64);
            for var in e.ty().variants() {
                put_str(buf, var);
            }
            put_varint(buf, u64::from(e.index()));
        }
    }
}

/// Writes the stream header.
///
/// # Errors
///
/// Propagates sink write errors.
pub fn write_header(w: &mut dyn Write) -> std::io::Result<()> {
    let [m0, m1, m2, m3] = *MAGIC;
    w.write_all(&[m0, m1, m2, m3, VERSION])
}

/// [`Encoder`] slot of an interned id the stream has not defined yet.
const UNDEFINED: u32 = u32::MAX;

/// The record encoder of one stream, shared by [`write_log`] and the
/// spill sink. Records go into a reused buffer; [`Encoder::write_to`]
/// hands them to the sink in one `write_all`.
#[derive(Default)]
pub(crate) struct Encoder {
    /// Per interned id of the log: its stream id, or [`UNDEFINED`].
    stream_ids: Vec<u32>,
    /// Stream ids assigned so far (the next dense id).
    defined: u32,
    buf: Vec<u8>,
}

impl Encoder {
    /// Appends one entry record, preceded by the definition of each of
    /// its string ids this stream has not defined yet (source first).
    /// `names` resolves the log's interned ids.
    pub(crate) fn entry(
        &mut self,
        at: u64,
        source: u32,
        label: u32,
        values: &[Value],
        names: &[Arc<str>],
    ) {
        let source = self.stream_id(source, names);
        let label = self.stream_id(label, names);
        let buf = &mut self.buf;
        buf.push(REC_ENTRY);
        put_varint(buf, at);
        put_varint(buf, u64::from(source));
        put_varint(buf, u64::from(label));
        put_varint(buf, values.len() as u64);
        for v in values {
            put_value(buf, v);
        }
    }

    /// The stream id of interned id `id`, defining it on first use.
    fn stream_id(&mut self, id: u32, names: &[Arc<str>]) -> u32 {
        let i = id as usize;
        if i >= self.stream_ids.len() {
            self.stream_ids.resize(names.len(), UNDEFINED);
        }
        if self.stream_ids[i] == UNDEFINED {
            let sid = self.defined;
            self.defined += 1;
            self.stream_ids[i] = sid;
            self.buf.push(REC_DEF);
            put_varint(&mut self.buf, u64::from(sid));
            put_str(&mut self.buf, &names[i]);
        }
        self.stream_ids[i]
    }

    /// Writes the buffered records to `w` in one `write_all` and empties
    /// the buffer, keeping its capacity.
    pub(crate) fn write_to(&mut self, w: &mut dyn Write) -> std::io::Result<()> {
        let res = w.write_all(&self.buf);
        self.buf.clear();
        res
    }
}

/// Serializes a whole log — header, each distinct source/label defined
/// on first use, then every in-memory entry in order.
///
/// # Errors
///
/// Propagates sink write errors.
pub fn write_log(log: &TraceLog, w: &mut dyn Write) -> std::io::Result<()> {
    write_header(w)?;
    log.encode_to(&mut Encoder::default(), w)
}

// --- decoding ---

/// Bytes the decoder reads from its source at a time.
const CHUNK: usize = 8 * 1024;

/// A byte reader over a fixed-size chunk buffer.
struct ChunkReader<R: Read> {
    inner: R,
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
}

impl<R: Read> ChunkReader<R> {
    fn new(inner: R) -> Self {
        ChunkReader {
            inner,
            buf: vec![0; CHUNK].into_boxed_slice(),
            pos: 0,
            end: 0,
        }
    }

    /// Refills an exhausted buffer; `Ok(false)` at end-of-input. Kept
    /// out of line so the per-byte paths stay small.
    #[cold]
    #[inline(never)]
    fn fill(&mut self) -> Result<bool, TraceBinError> {
        loop {
            match self.inner.read(&mut self.buf) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.pos = 0;
                    self.end = n;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reads one byte; `Ok(None)` at clean end-of-input.
    fn byte_or_eof(&mut self) -> Result<Option<u8>, TraceBinError> {
        if self.pos == self.end && !self.fill()? {
            return Ok(None);
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(Some(b))
    }

    fn byte(&mut self) -> Result<u8, TraceBinError> {
        self.byte_or_eof()?
            .ok_or_else(|| malformed("unexpected end of stream"))
    }

    fn varint(&mut self) -> Result<u64, TraceBinError> {
        // Fast path: a varint that ends inside the buffer.
        let mut v = 0u64;
        for (i, &b) in self.buf[self.pos..self.end].iter().take(10).enumerate() {
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        self.varint_across_chunks()
    }

    /// [`ChunkReader::varint`] for a varint that straddles a refill or
    /// runs past ten bytes.
    #[cold]
    #[inline(never)]
    fn varint_across_chunks(&mut self) -> Result<u64, TraceBinError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(malformed("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a length-prefixed string's bytes into `out`. `out` grows
    /// with the bytes actually read, so a hostile length costs nothing
    /// up front.
    fn bytes_into(&mut self, out: &mut Vec<u8>) -> Result<(), TraceBinError> {
        let mut left = self.varint()?;
        out.clear();
        while left > 0 {
            if self.pos == self.end && !self.fill()? {
                return Err(malformed("string runs past the end of the stream"));
            }
            let n = (self.end - self.pos).min(usize::try_from(left).unwrap_or(usize::MAX));
            out.extend_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            left -= n as u64;
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, TraceBinError> {
        let mut buf = vec![];
        self.bytes_into(&mut buf)?;
        String::from_utf8(buf).map_err(|_| malformed("string is not UTF-8"))
    }

    fn value(&mut self) -> Result<Value, TraceBinError> {
        match self.byte()? {
            VAL_BIT => Ok(Value::Bit(match self.byte()? {
                0 => Bit::Zero,
                1 => Bit::One,
                2 => Bit::X,
                3 => Bit::Z,
                c => return Err(malformed(format!("bit code {c}"))),
            })),
            VAL_BOOL => Ok(Value::Bool(self.byte()? != 0)),
            VAL_INT => Ok(Value::Int(unzigzag(self.varint()?))),
            VAL_ENUM => {
                let name = self.string()?;
                let n = self.varint()?;
                let mut variants = vec![];
                for _ in 0..n {
                    variants.push(self.string()?);
                }
                if variants.is_empty() {
                    return Err(malformed("enum with no variants"));
                }
                let ty = EnumType::new(name, variants);
                let index = u32::try_from(self.varint()?).map_err(|_| malformed("enum index"))?;
                EnumValue::from_index(ty, index)
                    .map(Value::Enum)
                    .map_err(|e| malformed(format!("enum value: {e:?}")))
            }
            t => Err(malformed(format!("value tag {t:#x}"))),
        }
    }
}

/// Stream string id -> the decoded log's interned id. A definition
/// carrying the next dense id takes one more slot of `dense`; any other
/// id goes to `sparse`, so an untrusted id never sizes a table. The
/// latest definition of an id wins.
#[derive(Default)]
struct StreamIds {
    dense: Vec<u32>,
    sparse: HashMap<u32, u32>,
}

impl StreamIds {
    fn define(&mut self, id: u32, interned: u32) {
        let i = id as usize;
        if let Some(slot) = self.dense.get_mut(i) {
            *slot = interned;
        } else if i == self.dense.len() {
            self.dense.push(interned);
        } else {
            self.sparse.insert(id, interned);
        }
    }

    fn resolve(&self, id: u64) -> Result<u32, TraceBinError> {
        u32::try_from(id)
            .ok()
            .and_then(|id| self.dense.get(id as usize).or_else(|| self.sparse.get(&id)))
            .copied()
            .ok_or_else(|| malformed(format!("undefined string id {id}")))
    }
}

/// Decodes a binary trace stream back into an in-memory [`TraceLog`].
/// Accepts the output of [`write_log`] and of the incremental spill
/// path (which emits the identical record stream).
///
/// # Errors
///
/// Returns [`TraceBinError`] on read failures or a malformed stream.
pub fn read_log(r: impl Read) -> Result<TraceLog, TraceBinError> {
    let mut br = ChunkReader::new(r);
    let mut magic = [0u8; 5];
    for b in &mut magic {
        *b = br
            .byte_or_eof()?
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::UnexpectedEof))?;
    }
    if &magic[..4] != MAGIC {
        return Err(malformed("bad magic"));
    }
    if magic[4] != VERSION {
        return Err(malformed(format!("unsupported version {}", magic[4])));
    }
    let mut log = TraceLog::new();
    let mut ids = StreamIds::default();
    let mut text = vec![];
    let mut values: Vec<Value> = vec![];
    while let Some(tag) = br.byte_or_eof()? {
        match tag {
            REC_DEF => {
                // Writers emit `u32` ids.
                let id =
                    u32::try_from(br.varint()?).map_err(|_| malformed("def id exceeds u32"))?;
                br.bytes_into(&mut text)?;
                let text =
                    std::str::from_utf8(&text).map_err(|_| malformed("string is not UTF-8"))?;
                ids.define(id, log.intern(text));
            }
            REC_ENTRY => {
                let at = br.varint()?;
                let source = br.varint()?;
                let label = br.varint()?;
                let n = br.varint()?;
                values.clear();
                for _ in 0..n {
                    values.push(br.value()?);
                }
                log.push(at, ids.resolve(source)?, ids.resolve(label)?, &values);
            }
            t => return Err(malformed(format!("record tag {t:#x}"))),
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma_core::EnumType;

    fn sample_log() -> TraceLog {
        let mut l = TraceLog::new();
        let ty = EnumType::new("state", vec!["idle".into(), "busy".into()]);
        l.record(0, "alpha", "pulse", [Value::Int(-7)]);
        l.record(
            10,
            "beta",
            "mode",
            [
                Value::Bit(Bit::One),
                Value::Bool(true),
                Value::Enum(EnumValue::from_index(ty, 1).unwrap()),
            ],
        );
        l.record(u64::MAX, "alpha", "pulse", [Value::Int(i64::MIN)]);
        l.record(11, "alpha", "empty", []);
        l
    }

    #[test]
    fn round_trips_whole_log() {
        let log = sample_log();
        let mut bytes = vec![];
        write_log(&log, &mut bytes).unwrap();
        let back = read_log(&bytes[..]).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.entries(), log.entries());
    }

    #[test]
    fn spill_stream_is_readable() {
        use crate::trace::SEG_ENTRIES;
        use std::cell::RefCell;
        use std::rc::Rc;

        // A shared byte sink so the test can inspect what spilled.
        #[derive(Clone)]
        struct SharedSink(Rc<RefCell<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let bytes = Rc::new(RefCell::new(vec![]));
        let mut l = TraceLog::new();
        l.set_spill(Box::new(SharedSink(Rc::clone(&bytes))));
        let n = SEG_ENTRIES + 3;
        for i in 0..n {
            l.record(i as u64, "m", "e", [Value::Int(i as i64)]);
        }
        assert_eq!(l.spilled(), SEG_ENTRIES as u64);
        let data = bytes.borrow().clone();
        // The spill stream is the prefix of the whole-log stream of an
        // unspilled twin: one encoder, one id assignment.
        let mut twin = TraceLog::new();
        for i in 0..n {
            twin.record(i as u64, "m", "e", [Value::Int(i as i64)]);
        }
        let mut whole = vec![];
        write_log(&twin, &mut whole).unwrap();
        assert!(data.len() < whole.len());
        assert_eq!(data[..], whole[..data.len()]);
        let back = read_log(&data[..]).unwrap();
        assert_eq!(back.len(), SEG_ENTRIES);
        for (i, e) in back.iter().enumerate() {
            assert_eq!(e.at, i as u64);
            assert_eq!(e.values, &[Value::Int(i as i64)]);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_log(&b"NOPE\x01"[..]).is_err());
        assert!(read_log(&b"CTRC\x63"[..]).is_err());
        let mut bytes = vec![];
        write_log(&sample_log(), &mut bytes).unwrap();
        bytes.push(0x77); // trailing junk record tag
        assert!(read_log(&bytes[..]).is_err());
    }

    /// The header followed by `body`.
    fn stream(body: &[u8]) -> Vec<u8> {
        let mut bytes = b"CTRC\x01".to_vec();
        bytes.extend_from_slice(body);
        bytes
    }

    /// LEB128 encoding of `v`.
    fn varint(v: u64) -> Vec<u8> {
        let mut out = vec![];
        put_varint(&mut out, v);
        out
    }

    #[test]
    fn hostile_string_length_is_an_error() {
        // A definition whose string length is 2^56 - 1, with no bytes
        // behind it: must not try to allocate the announced length.
        let mut body = vec![REC_DEF, 0];
        body.extend(varint((1 << 56) - 1));
        let bytes = stream(&body);
        assert_eq!(bytes.len(), 15);
        assert!(matches!(
            read_log(&bytes[..]),
            Err(TraceBinError::Malformed(_))
        ));
    }

    #[test]
    fn def_ids_beyond_u32_are_errors() {
        // A definition id of 2^40 (once a table resize to 2^40 slots)
        // and of u64::MAX (once an `id + 1` overflow).
        for (id, len) in [(1u64 << 40, 13), (u64::MAX, 17)] {
            let mut body = vec![REC_DEF];
            body.extend(varint(id));
            body.push(0);
            let bytes = stream(&body);
            assert_eq!(bytes.len(), len);
            assert!(
                matches!(read_log(&bytes[..]), Err(TraceBinError::Malformed(_))),
                "def id {id}"
            );
        }
    }

    #[test]
    fn hostile_enum_variant_count_is_an_error() {
        // An entry whose enum value announces 2^40 variants and then
        // ends: the variant list must grow only as variants arrive.
        let mut body = vec![REC_ENTRY, 0, 0, 0, 1, VAL_ENUM, 5];
        body.extend_from_slice(b"state");
        body.extend(varint(1 << 40));
        let bytes = stream(&body);
        assert_eq!(bytes.len(), 23);
        assert!(matches!(
            read_log(&bytes[..]),
            Err(TraceBinError::Malformed(_))
        ));
    }

    #[test]
    fn sparse_def_ids_resolve() {
        // Spill streams define ids in first-use order, which need not be
        // dense: a lone high id still resolves.
        let mut body = vec![REC_DEF];
        body.extend(varint(u64::from(u32::MAX)));
        body.extend([1, b'm', REC_ENTRY, 9]);
        body.extend(varint(u64::from(u32::MAX)));
        body.extend(varint(u64::from(u32::MAX)));
        body.extend([1, VAL_INT, 4]);
        let log = read_log(&stream(&body)[..]).unwrap();
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            (
                entries[0].at,
                entries[0].source.as_str(),
                entries[0].label.as_str()
            ),
            (9, "m", "m")
        );
        assert_eq!(entries[0].values, vec![Value::Int(2)]);
    }

    #[test]
    fn mixed_def_ids_resolve_like_a_map() {
        // Dense ids, a sparse one, a later dense definition, a sparse id
        // that the dense run reaches later, and redefinitions of both
        // kinds: every reference takes the latest definition of its id.
        let def = |id: u64, text: &str| {
            let mut r = vec![REC_DEF];
            r.extend(varint(id));
            r.push(text.len() as u8);
            r.extend_from_slice(text.as_bytes());
            r
        };
        let entry = |at: u8, source: u64, label: u64| {
            let mut r = vec![REC_ENTRY, at];
            r.extend(varint(source));
            r.extend(varint(label));
            r.extend([1, VAL_INT, 2 * at]);
            r
        };
        let records = [
            def(0, "a"),
            def(1, "b"),
            def(7, "s"),
            entry(1, 0, 7),
            def(2, "c"),
            entry(2, 2, 1),
            def(1, "b2"),
            entry(3, 1, 7),
            def(7, "s2"),
            entry(4, 0, 7),
            def(4, "d"),
            def(3, "e"),
            entry(5, 4, 3),
            def(4, "f"),
            entry(6, 4, 3),
        ];
        let body = records.concat();
        let log = read_log(&stream(&body)[..]).unwrap();
        let got: Vec<_> = log
            .iter()
            .map(|e| (e.at, e.source, e.label, e.values.to_vec()))
            .collect();
        let want: Vec<_> = [
            (1, "a", "s"),
            (2, "c", "b"),
            (3, "b2", "s"),
            (4, "a", "s2"),
            (5, "d", "e"),
            (6, "f", "e"),
        ]
        .into_iter()
        .map(|(at, source, label)| (at, source, label, vec![Value::Int(at as i64)]))
        .collect();
        assert_eq!(got, want);
        // An id no definition carried is still an error.
        let mut bad = body;
        bad.extend(entry(7, 5, 0));
        assert!(matches!(
            read_log(&stream(&bad)[..]),
            Err(TraceBinError::Malformed(_))
        ));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
