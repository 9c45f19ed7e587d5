//! Property tests for the wire-frame codec: random frame streams must
//! round-trip under arbitrary chunking, and a stream cut or corrupted at
//! *any* byte must decode to exactly the valid prefix — then report the
//! tail as "wait for more" (truncation) or "poisoned" (corruption), never
//! panic, and never yield a frame that was not sent. The same prefix
//! discipline `StreamArchive` page recovery follows, applied to a socket.

use tcq_common::rng::{seeded, TcqRng};
use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder, Value};
use tcq_net::wire::{Frame, FrameReader, FrameWriter, HEADER_LEN};

const SEED: u64 = 0x00D1_CE5E;

fn schema_a() -> SchemaRef {
    Schema::qualified(
        "s",
        vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ],
    )
    .into_ref()
}

fn schema_b() -> SchemaRef {
    Schema::new(vec![
        Field::new("name", DataType::Str),
        Field::new("ok", DataType::Bool),
        Field::new("n", DataType::Int),
    ])
    .into_ref()
}

fn row_a(s: &SchemaRef, rng: &mut TcqRng) -> Tuple {
    TupleBuilder::new(s.clone())
        .push(rng.gen_range(-100i64..100))
        .push(rng.next_f64())
        .at(Timestamp::both(
            rng.gen_range(0i64..1000),
            rng.gen_range(0i64..1000),
        ))
        .build()
        .unwrap()
}

fn row_b(s: &SchemaRef, rng: &mut TcqRng) -> Tuple {
    let mut t = TupleBuilder::new(s.clone())
        .push(format!("n{}", rng.gen_range(0u32..50)))
        .push(rng.gen_bool(0.5));
    // Exercise nulls through the tagged-value codec.
    t = if rng.gen_bool(0.2) {
        t.push(Value::Null)
    } else {
        t.push(rng.gen_range(0i64..1_000_000))
    };
    t.at(Timestamp::logical(rng.gen_range(0i64..1000)))
        .build()
        .unwrap()
}

/// A random frame drawn from every variant the protocol defines.
fn random_frame(rng: &mut TcqRng, a: &SchemaRef, b: &SchemaRef) -> Frame {
    match rng.gen_range(0u32..12) {
        0 => Frame::Hello {
            version: rng.gen_range(0u32..10),
        },
        1 => Frame::Welcome {
            version: 1,
            conn: rng.next_u64(),
        },
        2 => Frame::Submit {
            sql: format!("SELECT * FROM s WHERE k = {}", rng.gen_range(0i64..100)),
        },
        3 => Frame::SubmitOk {
            query: rng.next_u64() % 10_000,
        },
        4 => Frame::Subscribe {
            query: rng.next_u64() % 10_000,
        },
        5 => Frame::Ingest {
            stream: "s".into(),
            tuples: (0..rng.gen_range(0usize..8))
                .map(|_| row_a(a, rng))
                .collect(),
        },
        6 => Frame::IngestEof { stream: "s".into() },
        7 => Frame::Punct {
            stream: "s".into(),
            ts: Timestamp::both(rng.gen_range(0i64..100), rng.gen_range(0i64..100)),
        },
        8 => Frame::Results {
            query: rng.next_u64() % 100,
            tuples: (0..rng.gen_range(0usize..8))
                .map(|_| row_b(b, rng))
                .collect(),
        },
        9 => Frame::Results {
            query: rng.next_u64() % 100,
            tuples: (0..rng.gen_range(1usize..5))
                .map(|_| row_a(a, rng))
                .collect(),
        },
        10 => Frame::Ping {
            token: rng.next_u64(),
        },
        _ => Frame::Error {
            message: "e".repeat(rng.gen_range(0usize..40)),
        },
    }
}

/// Encode `frames`, returning the byte stream and the frame sequence the
/// decoder should yield (sent frames interleaved with the `Schema` frames
/// the writer injects).
fn encode_stream(frames: &[Frame]) -> Vec<u8> {
    let mut w = FrameWriter::new();
    let mut buf = Vec::new();
    for f in frames {
        w.encode(f, &mut buf);
    }
    buf
}

/// Decode as much as possible; returns (frames, leftover-is-error).
fn decode_all(buf: &[u8]) -> (Vec<Frame>, std::result::Result<usize, ()>) {
    let mut r = FrameReader::new();
    let mut out = Vec::new();
    let mut off = 0;
    loop {
        match r.decode(&buf[off..]) {
            Ok(Some((f, n))) => {
                out.push(f);
                off += n;
            }
            Ok(None) => return (out, Ok(off)),
            Err(_) => return (out, Err(())),
        }
    }
}

/// Strip the writer-injected Schema frames (they are codec plumbing, not
/// payload) for comparison against what was sent.
fn without_schemas(frames: Vec<Frame>) -> Vec<Frame> {
    frames
        .into_iter()
        .filter(|f| !matches!(f, Frame::Schema { .. }))
        .collect()
}

#[test]
fn random_streams_round_trip_under_random_chunking() {
    let mut rng = seeded(SEED);
    let a = schema_a();
    let b = schema_b();
    for round in 0..30 {
        let sent: Vec<Frame> = (0..rng.gen_range(1usize..20))
            .map(|_| random_frame(&mut rng, &a, &b))
            .collect();
        let buf = encode_stream(&sent);

        // Feed the decoder in random-sized chunks, as TCP would.
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        let mut pending: Vec<u8> = Vec::new();
        let mut fed = 0;
        while fed < buf.len() || !pending.is_empty() {
            if fed < buf.len() {
                let n = rng.gen_range(1usize..64).min(buf.len() - fed);
                pending.extend_from_slice(&buf[fed..fed + n]);
                fed += n;
            }
            let mut off = 0;
            while let Some((f, n)) = r.decode(&pending[off..]).unwrap() {
                got.push(f);
                off += n;
            }
            pending.drain(..off);
            if fed == buf.len() && pending.is_empty() {
                break;
            }
            if fed == buf.len() && !pending.is_empty() {
                panic!("round {round}: complete stream left undecoded tail");
            }
        }
        assert_eq!(without_schemas(got), sent, "round {round}");
    }
}

#[test]
fn every_truncation_point_recovers_the_valid_prefix() {
    let mut rng = seeded(SEED ^ 1);
    let a = schema_a();
    let b = schema_b();
    let sent: Vec<Frame> = (0..10).map(|_| random_frame(&mut rng, &a, &b)).collect();
    let buf = encode_stream(&sent);
    let (full, rest) = decode_all(&buf);
    assert_eq!(rest, Ok(buf.len()));
    let full = without_schemas(full);
    assert_eq!(full, sent);

    for cut in 0..buf.len() {
        let (got, rest) = decode_all(&buf[..cut]);
        // A torn tail is never an error — the decoder waits for bytes.
        let consumed = rest.unwrap_or_else(|_| panic!("cut at {cut}: truncation became an error"));
        assert!(consumed <= cut);
        // Every decoded frame is a prefix of the true stream (schemas
        // included on the wire, so compare payload frames only).
        let got = without_schemas(got);
        assert!(
            got.len() <= full.len() && got[..] == full[..got.len()],
            "cut at {cut}: decoded frames are not a prefix"
        );
    }
}

#[test]
fn every_single_byte_corruption_is_detected_or_harmless() {
    let mut rng = seeded(SEED ^ 2);
    let a = schema_a();
    let b = schema_b();
    let sent: Vec<Frame> = (0..6).map(|_| random_frame(&mut rng, &a, &b)).collect();
    let buf = encode_stream(&sent);
    let full = without_schemas(decode_all(&buf).0);

    for pos in 0..buf.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut bad = buf.clone();
            bad[pos] ^= flip;
            let (got, rest) = decode_all(&bad);
            let got = without_schemas(got);
            match rest {
                // Corruption detected: everything decoded before it must
                // be a clean prefix of the true stream.
                Err(()) => assert!(
                    got.len() <= full.len() && got[..] == full[..got.len()],
                    "pos {pos} flip {flip:#x}: prefix broken before detected corruption"
                ),
                // Not detected as corrupt: the only legal way is that the
                // flip landed in a length field making the tail look torn
                // (the decoder waits — on a live socket the checksum would
                // fail once "the rest" arrived), with the prefix intact.
                Ok(consumed) => {
                    assert!(
                        got.len() <= full.len() && got[..] == full[..got.len()],
                        "pos {pos} flip {flip:#x}: undetected corruption yielded wrong frames"
                    );
                    assert!(
                        got.len() < full.len() || consumed == bad.len(),
                        "pos {pos} flip {flip:#x}: full decode of a corrupted stream"
                    );
                }
            }
        }
    }
}

#[test]
fn partial_reads_of_torn_tail_make_progress_when_bytes_arrive() {
    // A frame delivered one byte at a time decodes exactly once, at the
    // final byte.
    let s = schema_a();
    let mut rng = seeded(SEED ^ 3);
    let frame = Frame::Ingest {
        stream: "s".into(),
        tuples: vec![row_a(&s, &mut rng)],
    };
    let buf = encode_stream(std::slice::from_ref(&frame));
    let mut r = FrameReader::new();
    let mut decoded = Vec::new();
    let mut consumed = 0;
    for end in 1..=buf.len() {
        while let Some((f, n)) = r.decode(&buf[consumed..end]).unwrap() {
            decoded.push((f, end));
            consumed += n;
        }
        if end < HEADER_LEN {
            assert!(decoded.is_empty(), "decoded a frame inside the header");
        }
    }
    assert_eq!(consumed, buf.len(), "every byte eventually consumed");
    assert_eq!(decoded.len(), 2, "schema frame + ingest frame");
    // Each frame decodes exactly at the byte that completes it.
    assert!(matches!(decoded[0].0, Frame::Schema { .. }));
    assert!(decoded[0].1 < buf.len());
    assert_eq!(decoded[1].0, frame);
    assert_eq!(decoded[1].1, buf.len());
}
