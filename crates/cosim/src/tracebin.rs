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
//!   Binds an interned-string id to its text; ids are defined before
//!   first use and never redefined.
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
//! The decoder treats its input as untrusted: a truncated or corrupted
//! stream yields a [`TraceBinError`], never a panic, and no length, id
//! or count read from the stream sizes an allocation before the bytes
//! behind it have arrived.

use crate::trace::{TraceEntryRef, TraceLog};
use cosma_core::{Bit, EnumType, EnumValue, Value};
use std::collections::HashMap;
use std::io::{Read, Write};

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

// --- encoding primitives (allocation-free: stack buffers only) ---

fn write_varint(w: &mut dyn Write, mut v: u64) -> std::io::Result<()> {
    let mut buf = [0u8; 10];
    let mut i = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        buf[i] = if v == 0 { byte } else { byte | 0x80 };
        i += 1;
        if v == 0 {
            break;
        }
    }
    w.write_all(&buf[..i])
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_str(w: &mut dyn Write, s: &str) -> std::io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn bit_code(b: Bit) -> u8 {
    match b {
        Bit::Zero => 0,
        Bit::One => 1,
        Bit::X => 2,
        Bit::Z => 3,
    }
}

fn write_value(w: &mut dyn Write, v: &Value) -> std::io::Result<()> {
    match v {
        Value::Bit(b) => w.write_all(&[VAL_BIT, bit_code(*b)]),
        Value::Bool(b) => w.write_all(&[VAL_BOOL, u8::from(*b)]),
        Value::Int(i) => {
            w.write_all(&[VAL_INT])?;
            write_varint(w, zigzag(*i))
        }
        Value::Enum(e) => {
            w.write_all(&[VAL_ENUM])?;
            write_str(w, e.ty().name())?;
            write_varint(w, e.ty().variants().len() as u64)?;
            for var in e.ty().variants() {
                write_str(w, var)?;
            }
            write_varint(w, u64::from(e.index()))
        }
    }
}

/// Writes the stream header.
///
/// # Errors
///
/// Propagates sink write errors.
pub fn write_header(w: &mut dyn Write) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])
}

/// Writes one string-definition record binding `id` to `text`.
///
/// # Errors
///
/// Propagates sink write errors.
pub(crate) fn write_def(w: &mut dyn Write, id: u32, text: &str) -> std::io::Result<()> {
    w.write_all(&[REC_DEF])?;
    write_varint(w, u64::from(id))?;
    write_str(w, text)
}

/// Writes one entry record referencing previously defined string ids.
///
/// # Errors
///
/// Propagates sink write errors.
pub(crate) fn write_entry(
    w: &mut dyn Write,
    e: &TraceEntryRef<'_>,
    source_id: u32,
    label_id: u32,
) -> std::io::Result<()> {
    w.write_all(&[REC_ENTRY])?;
    write_varint(w, e.at)?;
    write_varint(w, u64::from(source_id))?;
    write_varint(w, u64::from(label_id))?;
    write_varint(w, e.values.len() as u64)?;
    for v in e.values {
        write_value(w, v)?;
    }
    Ok(())
}

/// Serializes a whole log — header, each distinct source/label defined
/// on first use, then every in-memory entry in order.
///
/// # Errors
///
/// Propagates sink write errors.
pub fn write_log(log: &TraceLog, w: &mut dyn Write) -> std::io::Result<()> {
    write_header(w)?;
    let mut defined: Vec<(String, u32)> = vec![];
    let mut id_of = |w: &mut dyn Write, s: &str| -> std::io::Result<u32> {
        if let Some((_, id)) = defined.iter().find(|(t, _)| t == s) {
            return Ok(*id);
        }
        let id = defined.len() as u32;
        write_def(w, id, s)?;
        defined.push((s.to_string(), id));
        Ok(id)
    };
    for e in log.iter() {
        let source_id = id_of(w, e.source)?;
        let label_id = id_of(w, e.label)?;
        write_entry(w, &e, source_id, label_id)?;
    }
    Ok(())
}

// --- decoding ---

struct ByteReader<R: Read> {
    inner: R,
}

impl<R: Read> ByteReader<R> {
    /// Reads one byte; `Ok(None)` at clean end-of-input.
    fn byte_or_eof(&mut self) -> Result<Option<u8>, TraceBinError> {
        let mut b = [0u8; 1];
        let mut read = 0;
        while read == 0 {
            match self.inner.read(&mut b) {
                Ok(0) => return Ok(None),
                Ok(n) => read = n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(Some(b[0]))
    }

    fn byte(&mut self) -> Result<u8, TraceBinError> {
        self.byte_or_eof()?
            .ok_or_else(|| malformed("unexpected end of stream"))
    }

    fn varint(&mut self) -> Result<u64, TraceBinError> {
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

    /// Reads a length-prefixed string. The buffer grows with the bytes
    /// actually read, so a hostile length costs nothing up front.
    fn string(&mut self) -> Result<String, TraceBinError> {
        let len = self.varint()?;
        let mut buf = vec![];
        (&mut self.inner).take(len).read_to_end(&mut buf)?;
        if buf.len() as u64 != len {
            return Err(malformed("string runs past the end of the stream"));
        }
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

/// Decodes a binary trace stream back into an in-memory [`TraceLog`].
/// Accepts the output of [`write_log`] and of the incremental spill
/// path (which emits the identical record stream).
///
/// # Errors
///
/// Returns [`TraceBinError`] on read failures or a malformed stream.
pub fn read_log(r: impl Read) -> Result<TraceLog, TraceBinError> {
    let mut br = ByteReader { inner: r };
    let mut magic = [0u8; 5];
    br.inner.read_exact(&mut magic)?;
    if &magic[..4] != MAGIC {
        return Err(malformed("bad magic"));
    }
    if magic[4] != VERSION {
        return Err(malformed(format!("unsupported version {}", magic[4])));
    }
    let mut log = TraceLog::new();
    // Stream string id -> the log's interned id. Keyed by the stream id
    // rather than indexed by it: spill streams may define ids sparsely,
    // and an untrusted id must never size a table.
    let mut names: HashMap<u32, u32> = HashMap::new();
    let mut values: Vec<Value> = vec![];
    while let Some(tag) = br.byte_or_eof()? {
        match tag {
            REC_DEF => {
                // Writers emit `u32` ids.
                let id =
                    u32::try_from(br.varint()?).map_err(|_| malformed("def id exceeds u32"))?;
                let text = br.string()?;
                names.insert(id, log.intern(&text));
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
                let resolve = |id: u64| {
                    u32::try_from(id)
                        .ok()
                        .and_then(|id| names.get(&id).copied())
                        .ok_or_else(|| malformed(format!("undefined string id {id}")))
                };
                log.push(at, resolve(source)?, resolve(label)?, &values);
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
        write_varint(&mut out, v).unwrap();
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
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
