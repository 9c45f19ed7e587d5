//! A dispatcher delivers each drained input batch in one egress session:
//! every offer is decided (and counted) in row order, and each push client
//! receives what the session accepted for it when the session ends. How the
//! input is cut into batches must not change what a client sees or what
//! the ledger says: 1 000 filter CQs and a grouped aggregate on one stream
//! give identical per-client streams and identical egress ledgers at
//! `io_batch` 1 and 64. A client whose receiver goes away mid-stream is
//! removed, and the ledger still accounts for every offer.

use std::sync::mpsc::Receiver;
use std::time::Duration;

use tcq_egress::{Delivery, DeliveryQueue};
use telegraphcq::prelude::*;

const ROWS: i64 = 4_096;
const FILTERS: usize = 1_000;
/// Clients the filter CQs are dealt to, round-robin.
const FILTER_CLIENTS: usize = 4;
/// Room for every result a client gets: nothing sheds.
const CAPACITY: usize = 1 << 16;

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("ts", DataType::Int),
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref()
}

fn rows() -> Vec<Tuple> {
    let schema = schema();
    (1..=ROWS)
        .map(|ts| {
            TupleBuilder::new(schema.clone())
                .push(ts)
                .push(ts * 7 % 64)
                .push(ts * 389 % 1_000)
                .at(Timestamp::logical(ts))
                .build()
                .unwrap()
        })
        .collect()
}

/// Filter CQ `i`: anchored on `k` for most, a range on `v` for every
/// fifth.
fn filter_sql(i: usize) -> String {
    if i % 5 == 4 {
        let lo = i % 900;
        format!("SELECT ts, v FROM s WHERE v > {lo} AND v < {}", lo + 100)
    } else {
        format!(
            "SELECT ts, k FROM s WHERE k = {} AND v > {}",
            i % 64,
            i * 13 % 1_000
        )
    }
}

const AGG_SQL: &str = "SELECT k, COUNT(*), SUM(v) FROM s GROUP BY k \
     for (t = ST; t >= 0; t += 256) { WindowIs(s, t - 255, t); }";

enum Rx {
    Push(Receiver<Delivery>),
    Queue(DeliveryQueue),
}

impl Rx {
    fn drain(&self) -> Vec<Delivery> {
        match self {
            Rx::Push(rx) => rx.try_iter().collect(),
            Rx::Queue(q) => std::iter::from_fn(|| q.try_recv().ok()).collect(),
        }
    }
}

struct Run {
    /// Each surviving client's whole stream, in arrival order: the filter
    /// clients, then the aggregate's.
    streams: Vec<Vec<Delivery>>,
    stats: EgressStats,
}

/// Push `ROWS` rows at `io_batch` through the CQs. With `victim`, one more
/// client subscribes to every tenth filter CQ and drops its receiver once
/// it has received a row of the first half.
fn run(io_batch: usize, victim: bool) -> Run {
    let server = TelegraphCQ::start(ServerConfig {
        io_batch,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();
    let mut clients = Vec::new();
    for c in 0..FILTER_CLIENTS {
        if c % 2 == 0 {
            let (id, rx) = server.connect_push_client(CAPACITY).unwrap();
            clients.push((id, Rx::Push(rx)));
        } else {
            let (id, q) = server.connect_queue_client(CAPACITY).unwrap();
            clients.push((id, Rx::Queue(q)));
        }
    }
    let (victim_id, victim_rx) = server.connect_push_client(CAPACITY).unwrap();
    let mut victim_qids = Vec::new();
    for i in 0..FILTERS {
        let qid = server
            .submit(&filter_sql(i), clients[i % FILTER_CLIENTS].0)
            .unwrap();
        if victim && i % 10 == 0 {
            server.subscribe_client(victim_id, qid).unwrap();
            victim_qids.push(qid);
        }
    }
    let (agg_client, agg_rx) = server.connect_push_client(CAPACITY).unwrap();
    server.submit(AGG_SQL, agg_client).unwrap();
    clients.push((agg_client, Rx::Push(agg_rx)));

    let rows = rows();
    let (first, second) = rows.split_at(rows.len() / 2);
    server.push_batch("s", first.to_vec()).unwrap();
    if victim {
        victim_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the victim receives a row of the first half");
    }
    drop(victim_rx);
    server.push_batch("s", second.to_vec()).unwrap();
    server.finish_stream("s").unwrap();
    assert!(server.quiesce(Duration::from_secs(60)), "the stream drains");

    let stats = server.egress_stats_full();
    assert!(stats.accounted(), "io_batch {io_batch}: {stats:?}");
    if victim {
        assert_eq!(stats.disconnected, 1, "io_batch {io_batch}: {stats:?}");
        assert!(
            stats.disconnected_loss > 0,
            "io_batch {io_batch}: {stats:?}"
        );
        assert!(
            server.subscribe_client(victim_id, victim_qids[0]).is_err(),
            "io_batch {io_batch}: the dead client was removed"
        );
    }
    let streams = clients.iter().map(|(_, rx)| rx.drain()).collect();
    server.shutdown().unwrap();
    Run { streams, stats }
}

#[test]
fn batch_size_changes_no_client_stream_and_no_ledger() {
    let one = run(1, false);
    let batched = run(64, false);
    for (c, (a, b)) in one.streams.iter().zip(&batched.streams).enumerate() {
        assert_eq!(a.len(), b.len(), "client {c}: result count");
        assert!(a == b, "client {c}: streams differ");
    }
    assert_eq!(one.stats, batched.stats);
    let results: usize = one.streams.iter().map(Vec::len).sum();
    assert_eq!(one.stats.offered, results as u64);
    assert_eq!(one.stats.delivered, one.stats.offered, "nothing shed");
    assert!(
        one.streams.iter().all(|s| !s.is_empty()),
        "every client has results"
    );
}

#[test]
fn a_receiver_dropped_mid_stream_is_removed_and_accounted() {
    let healthy = run(64, false);
    for io_batch in [1, 64] {
        let with_victim = run(io_batch, true);
        for (c, (a, b)) in healthy.streams.iter().zip(&with_victim.streams).enumerate() {
            assert!(
                a == b,
                "io_batch {io_batch}, client {c}: the victim cost it rows"
            );
        }
    }
}
