//! Contract tests for `Inbox`, the one way a dispatch unit reads a fjord:
//! seeded interleavings of producer enqueues with `fill`, `next` and
//! `drain` under random budgets, capacities and `io_batch` sizes,
//! checked against a model of the queue and the inbox's buffer.
//! Invariants:
//!
//! 1. A refill happens only when nothing is buffered, and is one dequeue
//!    of exactly `min(io_batch, budget, queued)` messages, charged to the
//!    budget.
//! 2. Messages come out in production order, and none at or past the
//!    stream's first `Eof`.
//! 3. `is_done` holds exactly when the end is latched — an `Eof` was
//!    dequeued, or a refill found the queue empty with the producer gone —
//!    and every message before it has been taken.
//! 4. Messages a caller leaves buffered survive to its next call.

use tcq_common::rng::{seeded, TcqRng};
use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, TupleBuilder};
use tcq_fjords::{fjord, Consumer, EnqueueError, FjordMessage, Inbox, Producer, QueueKind};

fn schema() -> SchemaRef {
    Schema::new(vec![Field::new("id", DataType::Int)]).into_ref()
}

/// Message `id`: a tuple carrying it, or a punctuation at it.
fn msg(schema: &SchemaRef, id: i64, punct: bool) -> FjordMessage {
    if punct {
        FjordMessage::Punct(Timestamp::logical(id))
    } else {
        FjordMessage::Tuple(
            TupleBuilder::new(schema.clone())
                .push(id)
                .at(Timestamp::logical(id))
                .build()
                .unwrap(),
        )
    }
}

/// The queue and the inbox buffer as the contract says they must be.
struct Model {
    stream: Vec<FjordMessage>,
    /// Messages the producer has enqueued (a prefix of `stream`).
    sent: usize,
    /// Messages the inbox has dequeued (a prefix of `sent`).
    dequeued: usize,
    /// Messages held by the inbox.
    buffered: usize,
    /// End of stream latched.
    ended: bool,
    producer: Option<Producer>,
    seen: Vec<FjordMessage>,
}

impl Model {
    /// Enqueue up to `k` more messages; drop the producer once the whole
    /// stream is in.
    fn produce(&mut self, k: usize) {
        let Some(p) = &self.producer else { return };
        for _ in 0..k {
            if self.sent == self.stream.len() {
                break;
            }
            match p.enqueue(self.stream[self.sent].clone()) {
                Ok(()) => self.sent += 1,
                Err(EnqueueError::Full(_)) => break,
                Err(EnqueueError::Disconnected(_)) => unreachable!("inbox alive"),
            }
        }
        if self.sent == self.stream.len() {
            self.producer = None;
        }
    }

    /// Check one `fill` (or the refill inside `next`) that moved the
    /// probe's `dequeued` counter by `took` and the budget from `before`
    /// to `after`.
    fn refilled(&mut self, io_batch: usize, before: usize, after: usize, took: usize) {
        let queued = self.sent - self.dequeued;
        if self.buffered > 0 || self.ended || before == 0 {
            assert_eq!(took, 0, "refilled while holding messages or ended");
        } else {
            assert_eq!(took, io_batch.min(before).min(queued), "refill size");
            if queued == 0 && self.producer.is_none() {
                self.ended = true; // Disconnected
            }
        }
        assert_eq!(before - after, took, "the refill is charged to the budget");
        for m in &self.stream[self.dequeued..self.dequeued + took] {
            if self.ended {
                continue; // behind the Eof: dropped
            }
            if m.is_eof() {
                self.ended = true;
            } else {
                self.buffered += 1;
            }
        }
        self.dequeued += took;
    }

    fn took(&mut self, m: Option<FjordMessage>) {
        match m {
            Some(m) => {
                assert!(self.buffered > 0, "popped from an empty buffer");
                assert!(!m.is_eof(), "an inbox never yields Eof");
                self.buffered -= 1;
                self.seen.push(m);
            }
            None => assert_eq!(self.buffered, 0, "None while holding messages"),
        }
    }
}

fn run_interleaving(seed: u64) {
    let s = schema();
    let mut rng = seeded(seed);
    let capacity = rng.gen_range(1..17usize);
    let io_batch = rng.gen_range(1..9usize);
    let (p, c) = fjord(capacity, QueueKind::Push);
    let probe: Consumer = c.clone();
    let mut inbox = Inbox::new(c, io_batch);

    // N messages, an Eof at a random position (or none: the producer just
    // leaves), then a few messages nobody may see.
    let n = rng.gen_range(0..120usize);
    let with_eof = !rng.next_u64().is_multiple_of(3);
    let eof_at = with_eof.then(|| rng.gen_range(0..n + 1));
    let mut stream: Vec<FjordMessage> = (0..n as i64)
        .map(|id| msg(&s, id, rng.next_u64().is_multiple_of(5)))
        .collect();
    let expect: Vec<FjordMessage> = stream[..eof_at.unwrap_or(n)].to_vec();
    if let Some(at) = eof_at {
        stream.insert(at, FjordMessage::Eof);
    }
    let mut m = Model {
        stream,
        sent: 0,
        dequeued: 0,
        buffered: 0,
        ended: false,
        producer: Some(p),
        seen: Vec::new(),
    };

    let step = |m: &mut Model, inbox: &mut Inbox, rng: &mut TcqRng| {
        match rng.gen_range(0..5u32) {
            0 => m.produce(rng.gen_range(1..6usize)),
            1 => {
                let before = rng.gen_range(0..12usize);
                let mut budget = before;
                let deq = probe.stats().dequeued;
                let held = inbox.fill(&mut budget);
                let took = (probe.stats().dequeued - deq) as usize;
                m.refilled(io_batch, before, budget, took);
                assert_eq!(held, m.buffered, "fill reports what it holds");
            }
            2 => {
                // A zero budget takes only what is already buffered.
                for _ in 0..rng.gen_range(1..4usize) {
                    m.took(inbox.next(&mut 0));
                }
            }
            3 => {
                let held = m.buffered;
                let got: Vec<FjordMessage> = inbox.drain().collect();
                assert_eq!(got.len(), held, "drain takes everything buffered");
                for msg in got {
                    m.took(Some(msg));
                }
            }
            _ => {
                let before = rng.gen_range(0..12usize);
                let mut budget = before;
                let deq = probe.stats().dequeued;
                let got = inbox.next(&mut budget);
                let took = (probe.stats().dequeued - deq) as usize;
                m.refilled(io_batch, before, budget, took);
                m.took(got);
            }
        }
        assert_eq!(inbox.buffered(), m.buffered, "seed {seed}: buffer size");
        assert_eq!(
            inbox.is_done(),
            m.ended && m.buffered == 0,
            "seed {seed}: end reported before the buffer drained, or missed"
        );
        assert!(
            expect.starts_with(&m.seen),
            "seed {seed}: out of order, or past the Eof"
        );
    };
    for _ in 0..400 {
        step(&mut m, &mut inbox, &mut rng);
    }
    // Run to the end.
    let mut rounds = 0;
    while !inbox.is_done() {
        rounds += 1;
        assert!(rounds < 100_000, "seed {seed}: never reached the end");
        step(&mut m, &mut inbox, &mut rng);
    }
    assert_eq!(m.seen, expect, "seed {seed}: exactly the stream's prefix");
}

#[test]
fn seeded_interleavings_hold_the_inbox_contract() {
    for seed in 0..400u64 {
        run_interleaving(0x1B0C_0000 + seed);
    }
}

/// Across threads: a producer streams messages into a tiny queue and ends
/// with `Eof` (or just leaves); a reader with a small random budget per
/// "quantum" takes only some of each refill per call and still sees
/// exactly the stream, in order, then the end.
#[test]
fn threaded_reader_with_leftovers_sees_the_exact_stream() {
    const N: i64 = 5_000;
    for (seed, send_eof) in [(7u64, true), (8, false)] {
        let s = schema();
        let (p, c) = fjord(8, QueueKind::Pull);
        let producer = std::thread::spawn(move || {
            for id in 0..N {
                p.enqueue_blocking(msg(&s, id, id % 97 == 0)).unwrap();
            }
            if send_eof {
                p.send_eof().unwrap();
            }
        });
        let s = schema();
        let mut rng = seeded(seed);
        let mut inbox = Inbox::new(c, 16);
        let mut seen = Vec::new();
        while !inbox.is_done() {
            let mut budget = rng.gen_range(0..24usize);
            for _ in 0..rng.gen_range(0..6usize) {
                if let Some(m) = inbox.next(&mut budget) {
                    seen.push(m);
                }
            }
        }
        producer.join().unwrap();
        let expect: Vec<FjordMessage> = (0..N).map(|id| msg(&s, id, id % 97 == 0)).collect();
        assert_eq!(seen, expect, "send_eof={send_eof}");
    }
}
