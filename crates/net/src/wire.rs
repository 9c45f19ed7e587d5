//! The TelegraphCQ wire protocol: length-prefixed, checksummed frames.
//!
//! Every frame is one [`tcq_common::frame`] — the header archive pages and
//! checkpoint blocks use too: `magic u32 | tag u32 | len u32 |
//! fnv1a-64(tag ‖ len ‖ payload) u64 | payload`, all little-endian, the tag
//! holding the frame kind. The checksum covers the kind and length, so a
//! bit flip anywhere past the magic — including a kind rewritten into a
//! *different valid kind* — is detected, not misparsed.
//!
//! Payloads are the workspace's one codec ([`CkptWriter`]/[`CkptReader`]):
//! tagged values, length-prefixed strings, out-of-band schemas. Schemas
//! travel once per connection as a `Schema` frame assigning a small id
//! (the id, then [`CkptWriter::put_schema`], the encoding the checkpoint's
//! catalog uses too);
//! every tuple-carrying frame then references the id. [`FrameReader`] keeps
//! the id → schema table and [`FrameWriter`] keeps the reverse map, so both
//! ends pay the schema cost once, not per batch.
//!
//! Decoding discipline (the same prefix-validity rule as `StreamArchive`
//! page recovery): a byte stream cut at *any* point yields every complete
//! frame before the cut ([`FrameReader::decode`] returns `Ok(Some)`), then
//! reports the tail as either "incomplete — wait for more bytes"
//! (`Ok(None)`) or "corrupt — poison the connection" (`Err`). A torn tail
//! is never an error (TCP delivers byte streams, not frames), and corruption
//! is never silently skipped (unlike the archive, a socket has no page
//! boundary to resynchronize on — the connection dies instead).

use std::collections::HashMap;

use tcq_common::frame;
use tcq_common::{CkptReader, CkptWriter, Result, SchemaRef, TcqError, Timestamp, Tuple};

pub use tcq_common::frame::HEADER_LEN;

/// Frame magic: "TCQ!" little-endian.
pub const WIRE_MAGIC: u32 = 0x2151_4354;
/// Protocol version carried in `Hello`/`Welcome`. Version 2 moved to the
/// shared 20-byte frame header (a `u32` kind).
pub const WIRE_VERSION: u32 = 2;
/// Upper bound on one frame's payload; a larger advertised length is
/// corruption (or an unreasonable peer), not something to buffer for.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

const KIND_HELLO: u32 = 1;
const KIND_WELCOME: u32 = 2;
const KIND_SCHEMA: u32 = 3;
const KIND_SUBMIT: u32 = 4;
const KIND_SUBMIT_OK: u32 = 5;
const KIND_SUBSCRIBE: u32 = 6;
const KIND_SUBSCRIBE_OK: u32 = 7;
const KIND_INGEST: u32 = 8;
const KIND_INGEST_EOF: u32 = 9;
const KIND_PUNCT: u32 = 10;
const KIND_RESULTS: u32 = 11;
const KIND_PING: u32 = 13;
const KIND_PONG: u32 = 14;
const KIND_ERROR: u32 = 15;
const KIND_BYE: u32 = 16;

/// One decoded wire frame. Tuple-carrying variants hold materialized rows;
/// the schema-id indirection is internal to the codec (resolved by
/// [`FrameReader`], assigned by [`FrameWriter`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake: first frame on every connection.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u32,
    },
    /// Server handshake reply. `conn` is the server-side connection id —
    /// benches join it against per-connection transport stats for exact
    /// end-to-end accounting.
    Welcome {
        /// The server's [`WIRE_VERSION`].
        version: u32,
        /// Server-side connection id.
        conn: u64,
    },
    /// Assigns `id` to `schema` for the rest of the connection. Sent
    /// lazily by each side before the first frame that references the id.
    Schema {
        /// Connection-scoped schema id.
        id: u32,
        /// The schema (per-field qualifiers preserved).
        schema: SchemaRef,
    },
    /// Submit a continuous query; the connection is auto-subscribed.
    Submit {
        /// The query text.
        sql: String,
    },
    /// Successful submit reply.
    SubmitOk {
        /// The standing query's id.
        query: u64,
    },
    /// Subscribe this connection to an already-running query.
    Subscribe {
        /// The query to subscribe to.
        query: u64,
    },
    /// Successful subscribe reply.
    SubscribeOk {
        /// The subscribed query.
        query: u64,
    },
    /// A batch of tuples for one stream (client → server).
    Ingest {
        /// Target stream.
        stream: String,
        /// The rows; all share one schema.
        tuples: Vec<Tuple>,
    },
    /// End-of-stream marker (client → server).
    IngestEof {
        /// The finished stream.
        stream: String,
    },
    /// A punctuation \[TMSS03\] for one stream (client → server): no later
    /// tuple will carry a timestamp ≤ `ts`.
    Punct {
        /// Target stream.
        stream: String,
        /// The punctuated bound.
        ts: Timestamp,
    },
    /// A batch of result rows for one query (server → client).
    Results {
        /// The answered query.
        query: u64,
        /// The result rows.
        tuples: Vec<Tuple>,
    },
    /// Liveness probe.
    Ping {
        /// Echoed back in the `Pong`.
        token: u64,
    },
    /// Liveness probe reply.
    Pong {
        /// The `Ping`'s token.
        token: u64,
    },
    /// A request failed; the connection stays usable.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Clean close: the sender will write nothing further.
    Bye,
}

impl Frame {
    fn kind(&self) -> u32 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Welcome { .. } => KIND_WELCOME,
            Frame::Schema { .. } => KIND_SCHEMA,
            Frame::Submit { .. } => KIND_SUBMIT,
            Frame::SubmitOk { .. } => KIND_SUBMIT_OK,
            Frame::Subscribe { .. } => KIND_SUBSCRIBE,
            Frame::SubscribeOk { .. } => KIND_SUBSCRIBE_OK,
            Frame::Ingest { .. } => KIND_INGEST,
            Frame::IngestEof { .. } => KIND_INGEST_EOF,
            Frame::Punct { .. } => KIND_PUNCT,
            Frame::Results { .. } => KIND_RESULTS,
            Frame::Ping { .. } => KIND_PING,
            Frame::Pong { .. } => KIND_PONG,
            Frame::Error { .. } => KIND_ERROR,
            Frame::Bye => KIND_BYE,
        }
    }

    /// Number of result/ingest rows the frame carries (0 for control
    /// frames) — what the transport's row ledgers count.
    pub fn row_count(&self) -> usize {
        match self {
            Frame::Ingest { tuples, .. } | Frame::Results { tuples, .. } => tuples.len(),
            _ => 0,
        }
    }
}

fn corrupt(what: impl Into<String>) -> TcqError {
    TcqError::Ingress(format!("wire: {}", what.into()))
}

/// Encodes frames into a byte buffer, managing the connection's outbound
/// schema table: the first batch under a given schema is preceded by a
/// `Schema` frame, later batches reference the id.
#[derive(Debug, Default)]
pub struct FrameWriter {
    /// Schema identity (by `Arc` pointer) → the schema and its assigned
    /// id. Holding the `Arc` is what keeps that address from being reused
    /// by a schema of another shape while the id is live. Two structurally
    /// equal but distinct `Arc`s would ship the schema twice under two
    /// ids — wasteful, never wrong — and in practice every batch for a
    /// query shares one `SchemaRef`.
    ids: HashMap<usize, (SchemaRef, u32)>,
    next_id: u32,
}

impl FrameWriter {
    /// A writer with an empty schema table.
    pub fn new() -> Self {
        FrameWriter::default()
    }

    fn schema_id(&mut self, out: &mut Vec<u8>, schema: &SchemaRef) -> u32 {
        let key = std::sync::Arc::as_ptr(schema) as usize;
        if let Some((_, id)) = self.ids.get(&key) {
            return *id;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.ids.insert(key, (schema.clone(), id));
        let mut w = CkptWriter::new();
        w.put_u32(id);
        w.put_schema(schema);
        frame::encode(out, WIRE_MAGIC, KIND_SCHEMA, w.as_slice());
        id
    }

    /// Encode one frame into `out`. Tuple-carrying frames first emit any
    /// `Schema` frame the receiver hasn't seen. `Ingest`/`Results` rows
    /// must all share the leading row's schema (they do on every engine
    /// path; mixed batches are a caller bug and panic in debug builds).
    pub fn encode(&mut self, frame: &Frame, out: &mut Vec<u8>) {
        let mut w = CkptWriter::new();
        match frame {
            Frame::Hello { version } => w.put_u32(*version),
            Frame::Welcome { version, conn } => {
                w.put_u32(*version);
                w.put_u64(*conn);
            }
            Frame::Schema { id, schema } => {
                w.put_u32(*id);
                w.put_schema(schema);
            }
            Frame::Submit { sql } => w.put_str(sql),
            Frame::SubmitOk { query } => w.put_u64(*query),
            Frame::Subscribe { query } => w.put_u64(*query),
            Frame::SubscribeOk { query } => w.put_u64(*query),
            Frame::Ingest { stream, tuples } => {
                let sid = match tuples.first() {
                    Some(t) => self.schema_id(out, t.schema()),
                    None => u32::MAX,
                };
                w.put_str(stream);
                w.put_u32(sid);
                w.put_u32(tuples.len() as u32);
                for t in tuples {
                    debug_assert!(std::sync::Arc::ptr_eq(t.schema(), tuples[0].schema()));
                    w.put_tuple(t);
                }
            }
            Frame::IngestEof { stream } => w.put_str(stream),
            Frame::Punct { stream, ts } => {
                w.put_str(stream);
                w.put_timestamp(*ts);
            }
            Frame::Results { query, tuples } => {
                let sid = match tuples.first() {
                    Some(t) => self.schema_id(out, t.schema()),
                    None => u32::MAX,
                };
                w.put_u64(*query);
                w.put_u32(sid);
                w.put_u32(tuples.len() as u32);
                for t in tuples {
                    w.put_tuple(t);
                }
            }
            Frame::Ping { token } => w.put_u64(*token),
            Frame::Pong { token } => w.put_u64(*token),
            Frame::Error { message } => w.put_str(message),
            Frame::Bye => {}
        }
        frame::encode(out, WIRE_MAGIC, frame.kind(), w.as_slice());
    }
}

/// Decodes frames off a growing byte buffer, maintaining the connection's
/// inbound schema table (see module docs for the prefix-validity rule).
#[derive(Debug, Default)]
pub struct FrameReader {
    schemas: HashMap<u32, SchemaRef>,
}

impl FrameReader {
    /// A reader with an empty schema table.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Try to decode one frame from the front of `buf`.
    ///
    /// - `Ok(Some((frame, consumed)))` — a complete, checksummed frame;
    ///   the caller drops `consumed` bytes and calls again.
    /// - `Ok(None)` — the buffer holds only a torn tail (partial header
    ///   or partial payload); read more bytes and retry.
    /// - `Err(_)` — corruption (bad magic, oversize length, checksum or
    ///   payload mismatch): the stream is poisoned and the connection
    ///   must close. Frames decoded before this point remain valid.
    pub fn decode(&mut self, buf: &[u8]) -> Result<Option<(Frame, usize)>> {
        let Some(raw) =
            frame::decode(buf, WIRE_MAGIC, MAX_PAYLOAD).map_err(|e| corrupt(e.to_string()))?
        else {
            return Ok(None);
        };
        Ok(Some((self.parse(raw.tag, raw.payload)?, raw.len())))
    }

    fn schema(&self, id: u32, what: &str) -> Result<SchemaRef> {
        self.schemas
            .get(&id)
            .cloned()
            .ok_or_else(|| corrupt(format!("{what} references unknown schema id {id}")))
    }

    fn get_rows(&self, r: &mut CkptReader<'_>, sid: u32, what: &str) -> Result<Vec<Tuple>> {
        let n = r.get_u32("row count")? as usize;
        if n == 0 {
            return Ok(Vec::new());
        }
        let schema = self.schema(sid, what)?;
        let mut rows = Vec::with_capacity(n.min(64 * 1024));
        for _ in 0..n {
            rows.push(r.get_tuple(&schema)?);
        }
        Ok(rows)
    }

    fn parse(&mut self, kind: u32, payload: &[u8]) -> Result<Frame> {
        let mut r = CkptReader::new(payload);
        let frame = match kind {
            KIND_HELLO => Frame::Hello {
                version: r.get_u32("hello version")?,
            },
            KIND_WELCOME => Frame::Welcome {
                version: r.get_u32("welcome version")?,
                conn: r.get_u64("welcome conn")?,
            },
            KIND_SCHEMA => {
                let id = r.get_u32("schema id")?;
                let schema = r.get_schema()?.into_ref();
                self.schemas.insert(id, schema.clone());
                Frame::Schema { id, schema }
            }
            KIND_SUBMIT => Frame::Submit {
                sql: r.get_str("submit sql")?,
            },
            KIND_SUBMIT_OK => Frame::SubmitOk {
                query: r.get_u64("submit-ok query")?,
            },
            KIND_SUBSCRIBE => Frame::Subscribe {
                query: r.get_u64("subscribe query")?,
            },
            KIND_SUBSCRIBE_OK => Frame::SubscribeOk {
                query: r.get_u64("subscribe-ok query")?,
            },
            KIND_INGEST => {
                let stream = r.get_str("ingest stream")?;
                let sid = r.get_u32("ingest schema id")?;
                let tuples = self.get_rows(&mut r, sid, "ingest")?;
                Frame::Ingest { stream, tuples }
            }
            KIND_INGEST_EOF => Frame::IngestEof {
                stream: r.get_str("ingest-eof stream")?,
            },
            KIND_PUNCT => Frame::Punct {
                stream: r.get_str("punct stream")?,
                ts: r.get_timestamp()?,
            },
            KIND_RESULTS => {
                let query = r.get_u64("results query")?;
                let sid = r.get_u32("results schema id")?;
                let tuples = self.get_rows(&mut r, sid, "results")?;
                Frame::Results { query, tuples }
            }
            KIND_PING => Frame::Ping {
                token: r.get_u64("ping token")?,
            },
            KIND_PONG => Frame::Pong {
                token: r.get_u64("pong token")?,
            },
            KIND_ERROR => Frame::Error {
                message: r.get_str("error message")?,
            },
            KIND_BYE => Frame::Bye,
            k => return Err(corrupt(format!("unknown frame kind {k}"))),
        };
        if !r.is_empty() {
            return Err(corrupt(format!(
                "{} trailing bytes after frame payload",
                r.remaining()
            )));
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema, TupleBuilder};

    fn schema() -> SchemaRef {
        Schema::qualified(
            "s",
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Float),
                Field::new("tag", DataType::Str),
            ],
        )
        .into_ref()
    }

    fn row(s: &SchemaRef, k: i64) -> Tuple {
        TupleBuilder::new(s.clone())
            .push(k)
            .push(k as f64 * 0.5)
            .push(format!("t{k}"))
            .at(Timestamp::both(k, 1000 + k))
            .build()
            .unwrap()
    }

    #[test]
    fn control_frames_round_trip() {
        let mut w = FrameWriter::new();
        let mut r = FrameReader::new();
        let frames = vec![
            Frame::Hello {
                version: WIRE_VERSION,
            },
            Frame::Welcome {
                version: WIRE_VERSION,
                conn: 42,
            },
            Frame::Submit {
                sql: "SELECT * FROM s".into(),
            },
            Frame::SubmitOk { query: 7 },
            Frame::Subscribe { query: 7 },
            Frame::SubscribeOk { query: 7 },
            Frame::IngestEof { stream: "s".into() },
            Frame::Punct {
                stream: "s".into(),
                ts: Timestamp::both(5, 999),
            },
            Frame::Ping { token: 1 },
            Frame::Pong { token: 1 },
            Frame::Error {
                message: "no".into(),
            },
            Frame::Bye,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            w.encode(f, &mut buf);
        }
        let mut got = Vec::new();
        let mut off = 0;
        while let Some((f, n)) = r.decode(&buf[off..]).unwrap() {
            got.push(f);
            off += n;
        }
        assert_eq!(off, buf.len());
        assert_eq!(got, frames);
    }

    /// The schema table must not key on an address a freed schema can
    /// hand to a new one: a connection that stops one query and submits
    /// another would send the new query's rows under the old schema id.
    #[test]
    fn a_recycled_schema_address_gets_a_fresh_schema_id() {
        let mut w = FrameWriter::new();
        let mut buf = Vec::new();
        let a = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        let a_addr = std::sync::Arc::as_ptr(&a) as usize;
        let rows = vec![TupleBuilder::new(a).push(7i64).build().unwrap()];
        w.encode(
            &Frame::Results {
                query: 1,
                tuples: rows,
            },
            &mut buf,
        );
        // Schema A is gone. The allocator usually hands its block to the
        // next schema at once; misses are held so each retry gets a fresh
        // address.
        let mut misses = Vec::new();
        let b = loop {
            let b = Schema::new(vec![Field::new("y", DataType::Str)]).into_ref();
            if std::sync::Arc::as_ptr(&b) as usize == a_addr || misses.len() == 64 {
                break b;
            }
            misses.push(b);
        };
        w.encode(
            &Frame::Results {
                query: 2,
                tuples: vec![TupleBuilder::new(b).push("hi").build().unwrap()],
            },
            &mut buf,
        );
        let mut r = FrameReader::new();
        let mut last = None;
        let mut off = 0;
        while let Some((f, n)) = r.decode(&buf[off..]).expect("B's rows decode") {
            last = Some(f);
            off += n;
        }
        let Some(Frame::Results { query: 2, tuples }) = last else {
            panic!("expected query 2's results last, got {last:?}");
        };
        assert_eq!(tuples[0].schema().field(0).name, "y");
        assert_eq!(tuples[0].value(0), &tcq_common::Value::str("hi"));
    }

    #[test]
    fn tuple_frames_ship_schema_once() {
        let s = schema();
        let mut w = FrameWriter::new();
        let mut buf = Vec::new();
        w.encode(
            &Frame::Ingest {
                stream: "s".into(),
                tuples: vec![row(&s, 1), row(&s, 2)],
            },
            &mut buf,
        );
        let after_first = buf.len();
        w.encode(
            &Frame::Results {
                query: 3,
                tuples: vec![row(&s, 9)],
            },
            &mut buf,
        );

        let mut r = FrameReader::new();
        let mut frames = Vec::new();
        let mut off = 0;
        while let Some((f, n)) = r.decode(&buf[off..]).unwrap() {
            frames.push(f);
            off += n;
        }
        // Schema frame precedes the first batch and is not repeated.
        assert!(matches!(frames[0], Frame::Schema { id: 0, .. }));
        assert_eq!(
            frames[1],
            Frame::Ingest {
                stream: "s".into(),
                tuples: vec![row(&s, 1), row(&s, 2)],
            }
        );
        assert_eq!(
            frames[2],
            Frame::Results {
                query: 3,
                tuples: vec![row(&s, 9)],
            }
        );
        assert_eq!(frames.len(), 3);
        // The second tuple frame reuses the id: strictly smaller on the
        // wire than the first (which paid for the schema).
        assert!(buf.len() - after_first < after_first);
        // Decoded rows carry the full schema, qualifiers included.
        if let Frame::Ingest { tuples, .. } = &frames[1] {
            assert_eq!(tuples[0].schema().qualifier(0), "s");
            assert_eq!(tuples[0].timestamp(), Timestamp::both(1, 1001));
        }
    }

    #[test]
    fn empty_batch_needs_no_schema() {
        let mut w = FrameWriter::new();
        let mut buf = Vec::new();
        w.encode(
            &Frame::Results {
                query: 1,
                tuples: Vec::new(),
            },
            &mut buf,
        );
        let mut r = FrameReader::new();
        let (f, n) = r.decode(&buf).unwrap().unwrap();
        assert_eq!(n, buf.len());
        assert_eq!(
            f,
            Frame::Results {
                query: 1,
                tuples: Vec::new(),
            }
        );
    }

    /// A checksummed frame whose timestamp bytes no writer produces: an
    /// unknown flag bit, or a component holding the reserved absent word.
    /// The header is intact, so only the codec can refuse it.
    #[test]
    fn hostile_timestamp_bytes_are_corruption() {
        let reframe = |tag: u32, payload: &[u8]| {
            let mut out = Vec::new();
            frame::encode(&mut out, WIRE_MAGIC, tag, payload);
            out
        };
        let punct = |ts: &[u8]| {
            let mut w = CkptWriter::new();
            w.put_str("s");
            let mut payload = w.into_bytes();
            payload.extend_from_slice(ts);
            reframe(KIND_PUNCT, &payload)
        };
        let mut r = FrameReader::new();
        let ok = r.decode(&punct(&[0])).unwrap().unwrap().0;
        assert_eq!(
            ok,
            Frame::Punct {
                stream: "s".into(),
                ts: Timestamp::unknown()
            }
        );
        assert!(r.decode(&punct(&[0xFC])).is_err(), "flags 0xFC");
        assert!(r.decode(&punct(&[0x04])).is_err(), "flags 0x04");
        let absent = [&[1u8][..], &i64::MIN.to_le_bytes()].concat();
        assert!(r.decode(&punct(&absent)).is_err(), "reserved logical word");

        // The same flags byte inside a row of a batch frame.
        let s = schema();
        let mut w = FrameWriter::new();
        let mut bytes = Vec::new();
        w.encode(
            &Frame::Ingest {
                stream: "s".into(),
                tuples: vec![row(&s, 1)],
            },
            &mut bytes,
        );
        let mut r = FrameReader::new();
        let (_, schema_len) = r.decode(&bytes).unwrap().unwrap();
        let raw = frame::decode(&bytes[schema_len..], WIRE_MAGIC, MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        // stream string (4 + 1), schema id (4), row count (4), then the row.
        let flags_at = 13;
        assert_eq!(raw.payload[flags_at], 3, "the row is stamped with both");
        let mut hostile = raw.payload.to_vec();
        hostile[flags_at] = 0xFF;
        assert!(r.decode(&reframe(raw.tag, &hostile)).is_err());
        assert!(r.decode(&reframe(raw.tag, raw.payload)).unwrap().is_some());
    }

    #[test]
    fn unknown_schema_id_is_corruption() {
        let s = schema();
        let mut w = FrameWriter::new();
        let mut schema_and_batch = Vec::new();
        w.encode(
            &Frame::Ingest {
                stream: "s".into(),
                tuples: vec![row(&s, 1)],
            },
            &mut schema_and_batch,
        );
        // Replay only the batch frame against a reader that never saw the
        // schema frame.
        let mut r = FrameReader::new();
        let (_, schema_len) = r.decode(&schema_and_batch).unwrap().unwrap();
        let mut fresh = FrameReader::new();
        assert!(fresh.decode(&schema_and_batch[schema_len..]).is_err());
    }
    /// A `Schema` frame byte for byte: the 20-byte header (magic, kind,
    /// payload length, checksum), then the schema id, the field count and
    /// per field its qualifier, name and type tag (Bool 0, Int 1, Float 2,
    /// Str 3). The first field is qualified, the rest are not.
    #[test]
    fn schema_frame_bytes_are_pinned() {
        let schema = Schema::qualified("s", vec![Field::new("k", DataType::Int)])
            .concat(&Schema::new(vec![
                Field::new("ok", DataType::Bool),
                Field::new("x", DataType::Float),
                Field::new("tag", DataType::Str),
            ]))
            .into_ref();
        let frame = Frame::Schema { id: 3, schema };
        let mut bytes = Vec::new();
        FrameWriter::new().encode(&frame, &mut bytes);

        let str_bytes = |s: &str| [&(s.len() as u32).to_le_bytes()[..], s.as_bytes()].concat();
        let field =
            |q: &str, name: &str, tag: u8| [str_bytes(q), str_bytes(name), vec![tag]].concat();
        let payload = [
            3u32.to_le_bytes().to_vec(),
            4u32.to_le_bytes().to_vec(),
            field("s", "k", 1),
            field("", "ok", 0),
            field("", "x", 2),
            field("", "tag", 3),
        ]
        .concat();
        let want = [
            &WIRE_MAGIC.to_le_bytes()[..],
            &3u32.to_le_bytes(),
            &(payload.len() as u32).to_le_bytes(),
            &0x7978_EA1F_0128_EEC1u64.to_le_bytes(),
            &payload,
        ]
        .concat();
        assert_eq!(bytes, want);
        let mut r = FrameReader::new();
        assert_eq!(r.decode(&want).unwrap(), Some((frame, want.len())));
    }
}
