//! Property tests for the batched Fjord endpoints: seeded-RNG
//! interleavings of `enqueue_batch`/`dequeue_batch` with the per-message
//! operations, checked against a reference model. Invariants:
//!
//! 1. FIFO order — the dequeued sequence equals the model's sequence, so
//!    `Punct`/`Eof` can never be reordered past data tuples.
//! 2. Capacity is never exceeded.
//! 3. Exact counter accounting for `enqueued` and `dequeued`.

use std::collections::VecDeque;

use tcq_common::rng::seeded;
use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, TupleBuilder};
use tcq_fjords::{fjord, BatchDequeueResult, DequeueResult, FjordMessage, QueueKind};

fn schema() -> SchemaRef {
    Schema::new(vec![Field::new("id", DataType::Int)]).into_ref()
}

/// Message `id` encodes global production order; punctuations reuse the
/// id as their timestamp so order is observable for every variant.
fn msg(schema: &SchemaRef, id: i64, kind: u64) -> FjordMessage {
    match kind {
        0..=7 => FjordMessage::Tuple(
            TupleBuilder::new(schema.clone())
                .push(id)
                .at(Timestamp::logical(id))
                .build()
                .unwrap(),
        ),
        8 => FjordMessage::Punct(Timestamp::logical(id)),
        _ => FjordMessage::Eof,
    }
}

/// The production id a message carries, for order checking.
fn id_of(m: &FjordMessage) -> i64 {
    match m {
        FjordMessage::Tuple(t) => t.value(0).as_int().unwrap(),
        FjordMessage::Punct(ts) => ts.seq(),
        FjordMessage::Eof => -1,
    }
}

fn run_interleaving(seed: u64, capacity: usize, ops: usize) {
    let s = schema();
    let mut rng = seeded(seed);
    let (p, c) = fjord(capacity, QueueKind::Push);

    // Reference model of the buffered queue, plus the full sequence of
    // messages the consumer should observe, in order.
    let mut model: VecDeque<FjordMessage> = VecDeque::new();
    let mut consumed: Vec<FjordMessage> = Vec::new();
    let mut next_id: i64 = 0;
    let (mut enq, mut deq): (u64, u64) = (0, 0);

    for _ in 0..ops {
        match rng.gen_range(0..4u32) {
            // Per-message enqueue.
            0 => {
                let m = msg(&s, next_id, rng.next_u64() % 10);
                match p.enqueue(m.clone()) {
                    Ok(()) => {
                        assert!(model.len() < capacity, "accepted into a full queue");
                        model.push_back(m);
                        next_id += 1;
                        enq += 1;
                    }
                    Err(_) => assert_eq!(model.len(), capacity, "spurious Full"),
                }
            }
            // Batch enqueue of a random run of messages.
            1 => {
                let n = rng.gen_range(0..9usize);
                let mut batch: Vec<FjordMessage> = (0..n)
                    .map(|i| msg(&s, next_id + i as i64, rng.next_u64() % 10))
                    .collect();
                let before = batch.clone();
                let accepted = p.enqueue_batch(&mut batch).unwrap();
                assert_eq!(accepted, n.min(capacity - model.len()), "prefix size");
                assert_eq!(batch.len(), n - accepted, "refused suffix stays");
                assert_eq!(&batch[..], &before[accepted..], "suffix order intact");
                model.extend(before.into_iter().take(accepted));
                next_id += accepted as i64;
                enq += accepted as u64;
            }
            // Per-message dequeue.
            2 => match c.dequeue() {
                DequeueResult::Msg(m) => {
                    assert_eq!(Some(&m), model.front(), "FIFO violated");
                    model.pop_front();
                    consumed.push(m);
                    deq += 1;
                }
                DequeueResult::Empty => assert!(model.is_empty()),
                DequeueResult::Disconnected => unreachable!("producer alive"),
            },
            // Batch dequeue.
            _ => {
                let max = rng.gen_range(1..9usize);
                let mut out = Vec::new();
                match c.dequeue_batch(&mut out, max) {
                    BatchDequeueResult::Msgs(n) => {
                        assert_eq!(n, out.len());
                        assert_eq!(n, max.min(model.len()), "popped more than buffered");
                        for m in out {
                            assert_eq!(Some(&m), model.front(), "FIFO violated in batch");
                            model.pop_front();
                            consumed.push(m);
                            deq += 1;
                        }
                    }
                    BatchDequeueResult::Empty => assert!(model.is_empty()),
                    BatchDequeueResult::Disconnected => unreachable!("producer alive"),
                }
            }
        }
        let stats = c.stats();
        assert!(stats.len <= capacity, "capacity exceeded");
        assert_eq!(stats.len, model.len(), "length diverged from model");
        assert_eq!(stats.enqueued, enq, "enqueued counter diverged");
        assert_eq!(stats.dequeued, deq, "dequeued counter diverged");
    }

    // Control messages never jumped past data: every message's production
    // id is visible and the consumed order must be strictly increasing
    // (Eof carries no id and is exempt).
    let ids: Vec<i64> = consumed.iter().map(id_of).filter(|&i| i >= 0).collect();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "seed {seed}: consumed ids out of order: {ids:?}"
    );
}

#[test]
fn seeded_interleavings_hold_invariants() {
    for seed in 0..12u64 {
        for &capacity in &[1usize, 2, 3, 7, 16] {
            run_interleaving(0xBA7C_0000 + seed * 31 + capacity as u64, capacity, 2_000);
        }
    }
}

/// Cross-thread: a blocking batch producer and a spinning batch consumer
/// with a tiny queue still deliver everything exactly once and in order,
/// control messages included — and the consumer never sees
/// `Disconnected` before the producer's `Eof`.
#[test]
fn threaded_batch_transfer_is_exact_and_ordered() {
    const N: i64 = 5_000;
    let s = schema();
    let (p, c) = fjord(8, QueueKind::Pull);
    let producer = std::thread::spawn(move || {
        let mut rng = seeded(0xFEED_BEEF);
        let mut id = 0i64;
        while id < N {
            let n = rng.gen_range(1..17usize).min((N - id) as usize);
            let mut batch: Vec<FjordMessage> = (0..n)
                .map(|i| {
                    let id = id + i as i64;
                    // Every 100th message is a punctuation at the same id.
                    if id % 100 == 99 {
                        FjordMessage::Punct(Timestamp::logical(id))
                    } else {
                        msg(&s, id, 0)
                    }
                })
                .collect();
            p.enqueue_batch_blocking(&mut batch).unwrap();
            id += n as i64;
        }
        let mut eof = vec![FjordMessage::Eof];
        p.enqueue_batch_blocking(&mut eof).unwrap();
    });
    let mut ids = Vec::new();
    let mut out = Vec::new();
    'outer: loop {
        out.clear();
        match c.dequeue_batch(&mut out, 16) {
            BatchDequeueResult::Msgs(_) | BatchDequeueResult::Empty => {}
            BatchDequeueResult::Disconnected => panic!("Disconnected before Eof"),
        }
        for m in &out {
            if m.is_eof() {
                break 'outer;
            }
            ids.push(id_of(m));
        }
    }
    producer.join().unwrap();
    assert_eq!(ids, (0..N).collect::<Vec<_>>(), "exactly once, in order");
}
