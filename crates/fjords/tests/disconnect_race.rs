//! A consumer may report `Disconnected` only when the queue is empty *and*
//! every producer is gone, both read under the queue lock. Reading the
//! producer count after releasing the lock lets a producer enqueue its
//! last messages and drop in between, so the consumer announces
//! end-of-stream over messages still queued — and a dispatch unit that
//! trusts it marks its input at EOF and never reads them.
//!
//! Each round races one producer thread (enqueue `MSGS` messages one at a
//! time, then drop) against a consumer spinning without a yield, so the
//! consumer keeps finding an empty queue right up to the producer's last
//! enqueue and drop.

use std::sync::Arc;

use tcq_common::{DataType, Field, Schema, Timestamp, Tuple, TupleBuilder};
use tcq_fjords::{fjord, BatchDequeueResult, Consumer, DequeueResult, FjordMessage, QueueKind};

const ROUNDS: usize = 200;
const MSGS: usize = 200;

fn tuples() -> Arc<Vec<Tuple>> {
    let schema = Schema::new(vec![Field::new("id", DataType::Int)]).into_ref();
    let rows = (0..MSGS as i64)
        .map(|i| {
            TupleBuilder::new(schema.clone())
                .push(i)
                .at(Timestamp::logical(i))
                .build()
                .unwrap()
        })
        .collect();
    Arc::new(rows)
}

/// Run `ROUNDS` rounds with `drain` as the consumer loop (it returns the
/// ids it saw before `Disconnected`) and assert none lost a message.
fn race(drain: fn(&Consumer) -> Vec<i64>) {
    let rows = tuples();
    let expect: Vec<i64> = (0..MSGS as i64).collect();
    let mut lossy = 0;
    for _ in 0..ROUNDS {
        let (p, c) = fjord(MSGS, QueueKind::Push);
        let rows = Arc::clone(&rows);
        let producer = std::thread::spawn(move || {
            for t in rows.iter() {
                p.enqueue(FjordMessage::Tuple(t.clone())).unwrap();
            }
        });
        let seen = drain(&c);
        producer.join().unwrap();
        if seen != expect {
            assert!(
                expect.starts_with(&seen),
                "messages reordered or duplicated"
            );
            lossy += 1;
        }
    }
    assert_eq!(
        lossy, 0,
        "{lossy} of {ROUNDS} rounds reported Disconnected over queued messages"
    );
}

fn id(m: FjordMessage) -> i64 {
    m.tuple().unwrap().value(0).as_int().unwrap()
}

#[test]
fn dequeue_never_reports_disconnected_over_queued_messages() {
    race(|c| {
        let mut seen = Vec::new();
        loop {
            match c.dequeue() {
                DequeueResult::Msg(m) => seen.push(id(m)),
                DequeueResult::Empty => {}
                DequeueResult::Disconnected => return seen,
            }
        }
    });
}

#[test]
fn dequeue_batch_never_reports_disconnected_over_queued_messages() {
    race(|c| {
        let mut out = Vec::new();
        loop {
            match c.dequeue_batch(&mut out, 16) {
                BatchDequeueResult::Msgs(_) | BatchDequeueResult::Empty => {}
                BatchDequeueResult::Disconnected => return out.into_iter().map(id).collect(),
            }
        }
    });
}
