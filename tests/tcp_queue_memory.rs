//! What a TCP connection costs, counted. A live-heap allocator wraps a
//! `NetServer` whose connections may each queue `client_queue = 32 768`
//! result rows, the benchmark's `join_tcp` setting. The capacity is a
//! bound, not an allocation: an idle connection must cost kilobytes, and a
//! subscriber that never reads must hold at most that many rows and shed
//! the rest. Both ends of every socket live in this process, so the heap
//! counted per connection covers the client too. The allocator is global,
//! so this file is its own test binary, and its tests take turns.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use tcq_common::CountingAlloc;
use telegraphcq::prelude::*;

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc::new();

/// The heap count is process-wide: one test measures at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const CLIENT_QUEUE: usize = 32_768;

fn tcp_server(stream: &str, schema: SchemaRef) -> NetServer {
    let server = NetServer::start(ServerConfig {
        transport: TransportConfig::Tcp(TcpTransportConfig {
            addr: "127.0.0.1:0".into(),
            client_queue: CLIENT_QUEUE,
        }),
        ..ServerConfig::default()
    })
    .unwrap();
    server.engine().register_stream(stream, schema).unwrap();
    server
}

/// Block until the router has made `n` delivery offers: every row pushed
/// so far has been through the engine.
fn wait_offered(server: &NetServer, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.engine().egress_stats_full().offered < n {
        assert!(
            Instant::now() < deadline,
            "the engine never offered {n} rows"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn int_rows(schema: &SchemaRef, range: std::ops::Range<i64>) -> Vec<Tuple> {
    range
        .map(|i| {
            TupleBuilder::new(schema.clone())
                .push(i)
                .push(i)
                .at(Timestamp::logical(i))
                .build()
                .unwrap()
        })
        .collect()
}

#[test]
fn an_idle_connection_costs_kilobytes_not_its_queue_capacity() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref();
    let server = tcp_server("s", schema.clone());
    let addr = server.local_addr().unwrap();
    const NOTHING: &str = "SELECT k, v FROM s WHERE k < 0";
    // Warm the engine in-process, so the stream's shared filter and fjords
    // exist before the count starts and only the connections are measured.
    // The in-process client's query matches each batch's tail, so its
    // offers show when a batch has been through the engine; its channel
    // is allocated up front and its surplus rows shed.
    let (warm, _rx) = server.engine().connect_push_client(16).unwrap();
    server
        .engine()
        .submit("SELECT k, v FROM s WHERE k > 254", warm)
        .unwrap();
    server
        .engine()
        .push_batch("s", int_rows(&schema, 0..256))
        .unwrap();
    wait_offered(&server, 1);

    let before = HEAP.live_bytes();
    let mut ingest = TcqClient::connect(addr).unwrap();
    let mut subscribers = vec![TcqClient::connect(addr).unwrap()];
    let query = subscribers[0].submit(NOTHING).unwrap();
    for _ in 0..6 {
        let mut c = TcqClient::connect(addr).unwrap();
        c.subscribe(query).unwrap();
        subscribers.push(c);
    }
    ingest.ingest("s", int_rows(&schema, 256..512)).unwrap();
    wait_offered(&server, 1 + 256);
    let after = HEAP.live_bytes();

    let connections = 1 + subscribers.len();
    assert_eq!(server.net_stats().accepted, connections as u64);
    let per_connection = (after - before) / connections as isize;
    println!("live heap per connection {per_connection} B (client_queue {CLIENT_QUEUE})");
    assert!(
        per_connection <= 64 * 1024,
        "each connection leaves {per_connection} B of live heap"
    );
    assert_eq!(
        server.net_stats().rows_written,
        0,
        "the query matches nothing"
    );

    ingest.bye().unwrap();
    for c in subscribers {
        c.bye().unwrap();
    }
    server.shutdown().unwrap();
}

#[test]
fn a_subscriber_that_never_reads_holds_at_most_client_queue_rows() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("pad", DataType::Str),
    ])
    .into_ref();
    let server = tcp_server("wide", schema.clone());
    let mut idle = TcqClient::connect(server.local_addr().unwrap()).unwrap();
    idle.submit("SELECT k, pad FROM wide").unwrap();
    let conn = idle.conn_id();
    let stats = || {
        server
            .conn_stats()
            .into_iter()
            .find(|c| c.conn == conn)
            .unwrap()
    };

    // The client reads nothing: once the socket buffers are full the
    // connection's writer blocks, its queue fills to the bound, and every
    // later row sheds. Push until the queue reads full and the writer has
    // stopped, then one batch more.
    let pad = "x".repeat(256);
    const BATCH: i64 = 1024;
    let push = |first: i64| {
        let rows = (first..first + BATCH)
            .map(|i| {
                TupleBuilder::new(schema.clone())
                    .push(i)
                    .push(pad.clone())
                    .at(Timestamp::logical(i))
                    .build()
                    .unwrap()
            })
            .collect();
        server.engine().push_batch("wide", rows).unwrap();
        first + BATCH
    };
    let mut pushed = 0i64;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        pushed = push(pushed);
        wait_offered(&server, pushed as u64);
        let before = stats();
        std::thread::sleep(Duration::from_millis(100));
        let after = stats();
        if after.queued as usize == CLIENT_QUEUE && after.rows_written == before.rows_written {
            break;
        }
        assert!(
            after.queued as usize <= CLIENT_QUEUE,
            "the queue holds more than its bound: {after:?}"
        );
        assert!(
            Instant::now() < deadline,
            "the queue never filled: {after:?}"
        );
    }
    let shed_before = server.engine().egress_stats_full().shed;
    pushed = push(pushed);
    wait_offered(&server, pushed as u64);

    let e = server.engine().egress_stats_full();
    let s = stats();
    assert_eq!(s.queued as usize, CLIENT_QUEUE, "{s:?}");
    assert_eq!(
        e.shed - shed_before,
        BATCH as u64,
        "a full queue sheds every row"
    );
    assert_eq!(e.offered, pushed as u64, "one subscriber: {e:?}");
    assert!(e.accounted(), "{e:?}");
    // Rows the writer took off the queue but has not written yet are the
    // only difference between what the router delivered and what the
    // queue and the wire account for.
    assert!(
        e.delivered >= s.rows_written + CLIENT_QUEUE as u64,
        "{e:?} {s:?}"
    );

    idle.abort();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.net_stats().closed < 1 {
        assert!(
            Instant::now() < deadline,
            "the dead connection never closed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let e = server.engine().egress_stats_full();
    let net = server.net_stats();
    assert!(e.accounted(), "{e:?}");
    assert_eq!(
        e.delivered, net.rows_written,
        "delivered = handed to the kernel"
    );
    assert_eq!(e.disconnected_loss, net.rows_lost_disconnect);
    server.shutdown().unwrap();
}
