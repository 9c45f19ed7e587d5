//! The one value and tuple codec: what every byte the engine writes says.
//!
//! Wire frames (`tcq_net::wire`), archive pages (`tcq_storage::StreamArchive`)
//! and checkpoint blocks (`tcq_storage::CheckpointStore`) all carry
//! payloads written by [`CkptWriter`] and read back by [`CkptReader`], inside
//! the one checksummed header of [`crate::frame`]. Checkpoint fragments —
//! SteM groups, aggregate partials, egress ledgers, ingress cursors — are
//! the same encoding nested one level down. It lives in `tcq_common` so
//! every layer (Flux, operators, the server, net, storage) speaks it
//! without depending on another.
//!
//! Encoding rules: little-endian integers, tagged values, length-prefixed
//! strings, and *every* truncation is an error, never a panic — the bytes
//! come off a disk that may have torn mid-write or a socket that may lie.
//! A tuple is its timestamp prefix ([`CkptWriter::put_timestamp`]), a `u32`
//! arity and its tagged values; the schema travels out of band (one archive
//! per stream, a schema id per wire batch, the checkpoint's catalog), in
//! the one schema encoding ([`CkptWriter::put_schema`]) where it travels
//! at all: the wire's `Schema` frame and the checkpoint's catalog.
//! Floats travel as raw IEEE-754 bits, so NaN payloads and signed zeros
//! survive a round trip bit-exactly; replaying a restored run must not be
//! distinguishable from an uncheckpointed one.

use crate::error::{Result, TcqError};
use crate::schema::{DataType, Field, Schema, SchemaRef};
use crate::time::Timestamp;
use crate::tuple::Tuple;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;

/// The most fields a decoded schema may have: a larger count is corruption,
/// not something to allocate for.
const MAX_SCHEMA_FIELDS: usize = 4096;

fn truncated(what: &str) -> TcqError {
    TcqError::Storage(format!("truncated payload: {what}"))
}

/// Append-only encoder for one payload.
#[derive(Debug, Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        CkptWriter { buf: Vec::new() }
    }

    /// A writer that keeps appending to `buf`, bytes already in it
    /// included: an encoder that reuses one buffer moves it in here and
    /// takes it back with [`CkptWriter::into_bytes`], so its capacity
    /// survives from one payload to the next.
    pub fn resume(buf: Vec<u8>) -> Self {
        CkptWriter { buf }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Encoded length so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw IEEE-754 bits (NaN-payload exact).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Append one tagged [`Value`].
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(TAG_NULL),
            Value::Bool(b) => {
                self.put_u8(TAG_BOOL);
                self.put_u8(*b as u8);
            }
            Value::Int(i) => {
                self.put_u8(TAG_INT);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(TAG_FLOAT);
                self.put_f64(*f);
            }
            Value::Str(s) => {
                self.put_u8(TAG_STR);
                self.put_str(s);
            }
        }
    }

    /// Append a timestamp: a flags byte (bit 0 logical, bit 1 physical),
    /// then each present component.
    pub fn put_timestamp(&mut self, ts: Timestamp) {
        let (logical, physical) = (ts.logical_part(), ts.physical_part());
        self.put_u8((logical.is_some() as u8) | ((physical.is_some() as u8) << 1));
        if let Some(l) = logical {
            self.put_i64(l);
        }
        if let Some(p) = physical {
            self.put_i64(p);
        }
    }

    /// Append a schema: its field count, then per field its qualifier
    /// (empty when unqualified), name and type tag (Bool 0, Int 1, Float 2,
    /// Str 3).
    pub fn put_schema(&mut self, schema: &Schema) {
        self.put_u32(schema.len() as u32);
        for (i, f) in schema.fields().iter().enumerate() {
            self.put_str(schema.qualifier(i));
            self.put_str(&f.name);
            self.put_u8(match f.data_type {
                DataType::Bool => 0,
                DataType::Int => 1,
                DataType::Float => 2,
                DataType::Str => 3,
            });
        }
    }

    /// Append one tuple: timestamp, arity, tagged values. The schema
    /// travels out of band.
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.put_timestamp(t.timestamp());
        self.put_u32(t.arity() as u32);
        for v in t.values() {
            self.put_value(v);
        }
    }
}

/// Bounds-checked decoder over one payload.
#[derive(Debug)]
pub struct CkptReader<'a> {
    buf: &'a [u8],
}

impl<'a> CkptReader<'a> {
    /// Read from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        CkptReader { buf: bytes }
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when the payload is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(truncated(what));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self, what: &str) -> Result<i64> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read an `f64` from its raw bits.
    pub fn get_f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &str) -> Result<String> {
        let len = self.get_u32(what)? as usize;
        let b = self.take(len, what)?;
        std::str::from_utf8(b)
            .map(|s| s.to_string())
            .map_err(|_| TcqError::Storage(format!("invalid utf8 in payload: {what}")))
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self, what: &str) -> Result<Vec<u8>> {
        let len = self.get_u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    /// Read one tagged [`Value`].
    pub fn get_value(&mut self) -> Result<Value> {
        Ok(match self.get_u8("value tag")? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(self.get_u8("bool")? != 0),
            TAG_INT => Value::Int(self.get_i64("int")?),
            TAG_FLOAT => Value::Float(self.get_f64("float")?),
            TAG_STR => Value::Str(self.get_str("string")?.into()),
            tag => return Err(TcqError::Storage(format!("unknown value tag {tag}"))),
        })
    }

    /// Read a timestamp written by [`CkptWriter::put_timestamp`]. Flag
    /// bits 2–7 and a component equal to [`Timestamp::ABSENT`] are
    /// refused: no writer produces them.
    pub fn get_timestamp(&mut self) -> Result<Timestamp> {
        let flags = self.get_u8("timestamp flags")?;
        if flags & !3 != 0 {
            return Err(TcqError::Storage(format!(
                "unknown timestamp flags {flags:#04x}"
            )));
        }
        let logical = self.get_component(flags & 1 != 0, "logical ts")?;
        let physical = self.get_component(flags & 2 != 0, "physical ts")?;
        Ok(Timestamp::from_parts(logical, physical))
    }

    fn get_component(&mut self, present: bool, what: &str) -> Result<Option<i64>> {
        if !present {
            return Ok(None);
        }
        match self.get_i64(what)? {
            Timestamp::ABSENT => Err(TcqError::Storage(format!(
                "{what} holds the reserved absent value"
            ))),
            v => Ok(Some(v)),
        }
    }

    /// Read a schema written by [`CkptWriter::put_schema`]. More than 4096
    /// fields and an unknown type tag are refused.
    pub fn get_schema(&mut self) -> Result<Schema> {
        let n = self.get_u32("schema field count")? as usize;
        if n > MAX_SCHEMA_FIELDS {
            return Err(TcqError::Storage(format!("schema with {n} fields")));
        }
        let mut acc: Option<Schema> = None;
        for _ in 0..n {
            let q = self.get_str("field qualifier")?;
            let name = self.get_str("field name")?;
            let dt = match self.get_u8("field type")? {
                0 => DataType::Bool,
                1 => DataType::Int,
                2 => DataType::Float,
                3 => DataType::Str,
                t => return Err(TcqError::Storage(format!("unknown field type tag {t}"))),
            };
            let one = if q.is_empty() {
                Schema::new(vec![Field::new(name, dt)])
            } else {
                Schema::qualified(q, vec![Field::new(name, dt)])
            };
            acc = Some(match acc {
                None => one,
                Some(a) => a.concat(&one),
            });
        }
        Ok(acc.unwrap_or_else(|| Schema::new(Vec::new())))
    }

    /// Read one tuple, rebuilt against `schema` (arity validated).
    pub fn get_tuple(&mut self, schema: &SchemaRef) -> Result<Tuple> {
        let ts = self.get_timestamp()?;
        let arity = self.get_u32("tuple arity")? as usize;
        if arity != schema.len() {
            return Err(TcqError::SchemaMismatch(format!(
                "stored arity {arity} != schema arity {}",
                schema.len()
            )));
        }
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(self.get_value()?);
        }
        Tuple::new(schema.clone(), values, ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleBuilder;

    #[test]
    fn scalar_roundtrip() {
        let mut w = CkptWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(i64::MIN);
        w.put_f64(-0.0);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX);
        assert_eq!(r.get_i64("d").unwrap(), i64::MIN);
        assert_eq!(r.get_f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str("f").unwrap(), "héllo");
        assert_eq!(r.get_bytes("g").unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn value_roundtrip_is_bit_exact_for_nan() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-5),
            Value::Float(nan),
            Value::Str("x".into()),
        ];
        let mut w = CkptWriter::new();
        for v in &vals {
            w.put_value(v);
        }
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        for v in &vals {
            let back = r.get_value().unwrap();
            if let (Value::Float(a), Value::Float(b)) = (&back, v) {
                assert_eq!(a.to_bits(), b.to_bits(), "NaN payload preserved");
            } else {
                assert_eq!(&back, v);
            }
        }
    }

    /// The timestamp prefix every archive page, checkpoint block and wire
    /// row starts with, byte for byte: a flags byte (bit 0 logical, bit 1
    /// physical), then each present component as a little-endian `i64`.
    #[test]
    fn timestamp_bytes_are_pinned() {
        let enc = |ts: Timestamp| {
            let mut w = CkptWriter::new();
            w.put_timestamp(ts);
            w.into_bytes()
        };
        let le = |v: i64| v.to_le_bytes().to_vec();
        let cases: Vec<(Timestamp, Vec<u8>)> = vec![
            (Timestamp::unknown(), vec![0]),
            (Timestamp::logical(7), [vec![1], le(7)].concat()),
            (Timestamp::physical(-3), [vec![2], le(-3)].concat()),
            (
                Timestamp::both(5, 1_000),
                [vec![3], le(5), le(1_000)].concat(),
            ),
            (
                Timestamp::logical(i64::MIN + 1),
                vec![1, 1, 0, 0, 0, 0, 0, 0, 0x80],
            ),
            (
                Timestamp::physical(i64::MAX),
                vec![2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
            ),
            (
                Timestamp::both(i64::MAX, i64::MIN + 1),
                [vec![3], le(i64::MAX), le(i64::MIN + 1)].concat(),
            ),
        ];
        for (ts, want) in cases {
            assert_eq!(enc(ts), want, "{ts}");
            let mut r = CkptReader::new(&want);
            assert_eq!(r.get_timestamp().unwrap(), ts);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn hostile_timestamp_bytes_are_refused() {
        for flags in [0x04u8, 0x80, 0xFC, 0xFF] {
            let mut bytes = vec![flags];
            bytes.extend_from_slice(&[0; 16]);
            let err = CkptReader::new(&bytes).get_timestamp();
            assert!(
                matches!(err, Err(TcqError::Storage(_))),
                "flags {flags:#04x}: {err:?}"
            );
        }
        for flags in [1u8, 2] {
            let mut bytes = vec![flags];
            bytes.extend_from_slice(&i64::MIN.to_le_bytes());
            assert!(CkptReader::new(&bytes).get_timestamp().is_err());
        }
        let mut both = vec![3u8];
        both.extend_from_slice(&5i64.to_le_bytes());
        both.extend_from_slice(&i64::MIN.to_le_bytes());
        assert!(CkptReader::new(&both).get_timestamp().is_err());
    }

    #[test]
    fn tuple_roundtrip_and_truncation_errors() {
        let schema = Schema::qualified(
            "s",
            vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Str),
                Field::new("c", DataType::Float),
                Field::new("d", DataType::Bool),
            ],
        )
        .into_ref();
        let mut tuples =
            vec![Tuple::new(schema.clone(), vec![Value::Null; 4], Timestamp::unknown()).unwrap()];
        for i in 0..10i64 {
            let ts = if i % 3 == 0 {
                Timestamp::both(i, 100 + i)
            } else {
                Timestamp::logical(i)
            };
            let t = TupleBuilder::new(schema.clone())
                .push(i - 5)
                .push(format!("hi '{i}'"))
                .push(i as f64 * 0.5)
                .push(i % 2 == 0)
                .at(ts)
                .build()
                .unwrap();
            tuples.push(t);
        }
        // One stream of many tuples decodes back in order, to the last byte.
        let mut w = CkptWriter::new();
        for t in &tuples {
            w.put_tuple(t);
        }
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        for t in &tuples {
            let back = r.get_tuple(&schema).unwrap();
            assert_eq!(&back, t);
            assert_eq!(back.timestamp(), t.timestamp());
        }
        assert!(r.is_empty());
        for t in &tuples {
            let mut w = CkptWriter::new();
            w.put_tuple(t);
            let one = w.into_bytes();
            for cut in 0..one.len() {
                assert!(
                    CkptReader::new(&one[..cut]).get_tuple(&schema).is_err(),
                    "cut at {cut} must error"
                );
            }
        }
        // Read against a schema of another arity: refused, not misparsed.
        let narrow = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        assert!(matches!(
            CkptReader::new(&bytes).get_tuple(&narrow),
            Err(TcqError::SchemaMismatch(_))
        ));
        // Flags 0, arity 1, value tag 99.
        assert!(CkptReader::new(&[0, 1, 0, 0, 0, 99])
            .get_tuple(&narrow)
            .is_err());
    }

    #[test]
    fn schema_roundtrip_and_hostile_bytes() {
        let schema = Schema::qualified("s", vec![Field::new("k", DataType::Int)]).concat(
            &Schema::new(vec![
                Field::new("ok", DataType::Bool),
                Field::new("x", DataType::Float),
                Field::new("tag", DataType::Str),
            ]),
        );
        let mut w = CkptWriter::new();
        w.put_schema(&schema);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let back = r.get_schema().unwrap();
        assert!(r.is_empty());
        assert_eq!(back.fields(), schema.fields());
        assert_eq!(back.qualifier(0), "s");
        assert_eq!(back.qualifier(3), "");
        for cut in 0..bytes.len() {
            let err = CkptReader::new(&bytes[..cut]).get_schema();
            assert!(matches!(err, Err(TcqError::Storage(_))), "cut {cut}");
        }
        let mut bad_tag = bytes.clone();
        *bad_tag.last_mut().unwrap() = 4;
        let err = CkptReader::new(&bad_tag).get_schema();
        assert!(matches!(err, Err(TcqError::Storage(ref m)) if m.contains("tag 4")));
        let huge = 4097u32.to_le_bytes();
        let err = CkptReader::new(&huge).get_schema();
        assert!(matches!(err, Err(TcqError::Storage(ref m)) if m.contains("4097 fields")));
    }
}
