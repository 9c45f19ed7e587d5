//! One query table: a query's entry in the egress router holds its plan
//! handle and its subscribers. A query outlives the clients that leave it,
//! a subscribe racing a stop never plants an entry, and the table's meter
//! reads its whole bucket array however many queries came and went.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use telegraphcq::prelude::*;

fn ticks() -> SchemaRef {
    Schema::new(
        ["sym", "price", "seq"]
            .map(|n| Field::new(n, DataType::Int))
            .to_vec(),
    )
    .into_ref()
}

fn tick(schema: &SchemaRef, sym: i64, seq: i64) -> Tuple {
    TupleBuilder::new(schema.clone())
        .push(sym)
        .push(600i64)
        .push(seq)
        .at(Timestamp::logical(seq))
        .build()
        .unwrap()
}

#[test]
fn a_query_outlives_its_clients() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let schema = ticks();
    server.register_stream("ticks", schema.clone()).unwrap();
    let (owner, queue) = server.connect_queue_client(64).unwrap();
    let qid = server
        .submit("SELECT seq FROM ticks WHERE sym = 1", owner)
        .unwrap();
    assert_eq!(
        (server.query_count(), server.subscribed_query_count()),
        (1, 1)
    );

    server.disconnect_push_client(owner, queue, 0);
    assert_eq!(server.query_count(), 1, "the query keeps running");
    assert_eq!(server.subscribed_query_count(), 0);

    let (reader, rows) = server.connect_queue_client(64).unwrap();
    server.subscribe_client(reader, qid).unwrap();
    assert_eq!(server.subscribed_query_count(), 1);
    server.push("ticks", tick(&schema, 1, 42)).unwrap();
    let (q, row) = rows.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(q, qid);
    assert!(matches!(row.value(0), Value::Int(42)), "{row:?}");

    server.stop_query(qid).unwrap();
    assert_eq!(
        (server.query_count(), server.subscribed_query_count()),
        (0, 0)
    );
    assert!(server.subscribe_client(reader, qid).is_err());
    server.shutdown().unwrap();
}

/// Subscribes to the newest query id race its stop: each lands before the
/// stop forgets the query, and goes with it, or is refused after.
#[test]
fn subscribe_racing_stop_plants_no_entry() {
    const ROUNDS: i64 = 2_000;
    let server = Arc::new(TelegraphCQ::start(ServerConfig::default()).unwrap());
    let schema = ticks();
    server.register_stream("ticks", schema.clone()).unwrap();
    let (owner, _own_rows) = server.connect_queue_client(1 << 16).unwrap();
    let (reader, _read_rows) = server.connect_queue_client(1 << 16).unwrap();
    let kept = server.submit("SELECT seq FROM ticks", owner).unwrap();
    let newest = Arc::new(AtomicUsize::new(kept));
    let attempts = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let subscriber = {
        let (server, newest) = (server.clone(), newest.clone());
        let (attempts, done) = (attempts.clone(), done.clone());
        std::thread::spawn(move || {
            let mut accepted = 0u64;
            while !done.load(Ordering::Acquire) {
                let qid = newest.load(Ordering::Acquire);
                accepted += server.subscribe_client(reader, qid).is_ok() as u64;
                attempts.fetch_add(1, Ordering::Release);
            }
            accepted
        })
    };
    for seq in 0..ROUNDS {
        let seen = attempts.load(Ordering::Acquire);
        let qid = server
            .submit("SELECT seq FROM ticks WHERE sym = 1", owner)
            .unwrap();
        newest.store(qid, Ordering::Release);
        server.push("ticks", tick(&schema, 1, seq)).unwrap();
        server.stop_query(qid).unwrap();
        // Every round meets at least one subscribe, wherever it lands.
        while attempts.load(Ordering::Acquire) == seen {
            std::thread::yield_now();
        }
    }
    done.store(true, Ordering::Release);
    let accepted = subscriber.join().unwrap();
    println!("{accepted} subscribes accepted over {ROUNDS} rounds");

    assert_eq!(server.query_count(), 1, "only the kept query runs");
    assert_eq!(server.subscribed_query_count(), server.query_count());
    assert!(server.egress_stats_full().accounted());
    server.stop_query(kept).unwrap();
    assert_eq!(
        (server.query_count(), server.subscribed_query_count()),
        (0, 0)
    );
    Arc::into_inner(server).unwrap().shutdown().unwrap();
}

/// The table never shrinks, so submit + stop churn over a standing set
/// leaves its bucket array, and the meter, where they were. Removals leave
/// tombstones that lower `HashMap::capacity()`, which the meter must not
/// follow.
#[test]
fn churn_leaves_the_query_table_meter_where_it_stood() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("ticks", ticks()).unwrap();
    let (client, _rx) = server.connect_queue_client(16).unwrap();
    let sym = (0..8_000).map(|s| format!("SELECT seq FROM ticks WHERE sym = {s} AND price > 500"));
    let range = (0..2_000i64).map(|j| {
        let a = j * 500;
        format!(
            "SELECT seq FROM ticks WHERE price > {a} AND price < {}",
            a + 1_501
        )
    });
    let mut n = 0;
    for sql in sym.chain(range) {
        server.submit(&sql, client).unwrap();
        n += 1;
    }
    let standing = server.query_table_bytes();
    let per_query = standing as f64 / n as f64;
    assert!(per_query <= 70.0, "{per_query:.1} B per standing query");

    let mut live = None;
    for i in 0..20_000 {
        let sql = format!(
            "SELECT seq FROM ticks WHERE sym = {} AND price > 500",
            1_000_000 + i
        );
        let qid = server.submit(&sql, client).unwrap();
        if let Some(old) = live.replace(qid) {
            server.stop_query(old).unwrap();
        }
    }
    server.stop_query(live.unwrap()).unwrap();
    assert_eq!(server.query_count(), n);
    assert_eq!(server.query_table_bytes(), standing);
    server.shutdown().unwrap();
}
