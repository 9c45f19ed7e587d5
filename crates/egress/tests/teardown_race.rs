//! A transport closing a push client must count the rows still queued for
//! it and drop the client in one step, under the router lock. Counting
//! first and dropping after leaves a window in which a dispatch unit
//! delivers one more row: the router charges it `delivered`, the count
//! missed it, and it is dropped with the queue — the ledger then says the
//! client received a row it never saw (`exp_clients`' "delivered one row
//! ahead of rows_written").
//!
//! Each round races a delivering thread (one-row batches, back to back)
//! against a writer that reads some rows and then tears the client down;
//! afterwards `delivered` must equal the rows the writer read. The race
//! runs against both push queues: the in-process `sync_channel` receiver
//! and the counted [`DeliveryQueue`] a TCP connection uses.

use std::sync::mpsc::Receiver;

use tcq_common::{DataType, Field, Schema, Timestamp, Tuple, TupleBuilder};
use tcq_egress::{Delivery, DeliveryQueue, EgressRouter, PushQueue};

const ROUNDS: i64 = 300;
/// Rows the writer reads before it tears down.
const READ: u64 = 50;
/// Each queue's capacity: far more than the writer reads, so the producer
/// is never stopped by a full queue.
const CAPACITY: usize = 1 << 12;

fn row(x: i64) -> Tuple {
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
    TupleBuilder::new(schema)
        .push(x)
        .at(Timestamp::logical(x))
        .build()
        .unwrap()
}

/// Runs every round with a queue from `register`, reading through `take`
/// before the writer's teardown hands the queue back to the router.
/// Returns how many rounds charged `delivered` for a row the writer never
/// read.
fn lossy_rounds<Q: PushQueue>(register: impl Fn(&EgressRouter) -> Q, take: impl Fn(&Q)) -> u32 {
    let mut lossy = 0;
    for round in 0..ROUNDS {
        let router = EgressRouter::new();
        let queue = register(&router);
        router.subscribe(1, 7).unwrap();
        let producer = {
            let router = router.clone();
            let row = row(round);
            std::thread::spawn(move || {
                while router.client_count() > 0 {
                    router.deliver_batch([7usize], std::slice::from_ref(&row));
                }
            })
        };
        for _ in 0..READ {
            take(&queue);
        }
        router.disconnect_push_client(1, queue, 0);
        producer.join().unwrap();
        let s = router.egress_stats();
        assert!(s.accounted(), "{s:?}");
        if s.delivered != READ {
            lossy += 1;
        }
    }
    lossy
}

#[test]
fn teardown_never_charges_a_row_dropped_with_the_queue() {
    let lossy = lossy_rounds(
        |router| router.register_push_client(1, CAPACITY).unwrap(),
        |queue: &Receiver<Delivery>| {
            queue.recv().unwrap();
        },
    );
    assert_eq!(
        lossy, 0,
        "{lossy} of {ROUNDS} rounds charged `delivered` for rows dropped with the queue"
    );
}

#[test]
fn queue_client_teardown_never_charges_a_row_dropped_with_the_queue() {
    let lossy = lossy_rounds(
        |router| router.register_queue_client(1, CAPACITY).unwrap(),
        |queue: &DeliveryQueue| {
            queue.recv().unwrap();
        },
    );
    assert_eq!(
        lossy, 0,
        "{lossy} of {ROUNDS} rounds charged `delivered` for rows dropped with the queue"
    );
}
