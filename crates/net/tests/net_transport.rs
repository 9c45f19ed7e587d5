//! End-to-end tests over real sockets: submit/ingest/results round trips,
//! the mid-batch socket-drop accounting regression, and seed-replayable
//! `NetRead`/`NetWrite` connection faults.

use std::time::{Duration, Instant};

use tcq_common::{
    DataType, FaultAction, FaultPlan, FaultPoint, Field, Schema, SchemaRef, Timestamp, TupleBuilder,
};
use tcq_net::{NetServer, TcqClient};
use tcq_server::{ServerConfig, TcpTransportConfig, TransportConfig};

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref()
}

fn rows(s: &SchemaRef, range: std::ops::Range<i64>) -> Vec<tcq_common::Tuple> {
    range
        .map(|i| {
            TupleBuilder::new(s.clone())
                .push(i % 100)
                .push(i)
                .at(Timestamp::logical(i))
                .build()
                .unwrap()
        })
        .collect()
}

fn tcp_config(client_queue: usize) -> ServerConfig {
    ServerConfig {
        transport: TransportConfig::Tcp(TcpTransportConfig {
            addr: "127.0.0.1:0".into(),
            client_queue,
        }),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (NetServer, std::net::SocketAddr) {
    let server = NetServer::start(config).unwrap();
    server.engine().register_stream("s", schema()).unwrap();
    let addr = server.local_addr().unwrap();
    (server, addr)
}

/// Read results until the socket stays quiet for `quiet`.
fn drain_results(client: &mut TcqClient, quiet: Duration) -> Vec<(u64, i64)> {
    let mut got = Vec::new();
    while let Some(batch) = client.next_results(quiet).unwrap() {
        for t in &batch.tuples {
            got.push((batch.query, t.value(1).as_int().unwrap()));
        }
    }
    got
}

#[test]
fn tcp_submit_ingest_receive_round_trip() {
    let (server, addr) = start(tcp_config(1024));

    let mut client = TcqClient::connect(addr).unwrap();
    assert!(client.conn_id() > 0);
    let qid = client.submit("SELECT k, v FROM s WHERE k < 50").unwrap();

    // Ingest on a second connection, as a remote producer would.
    let mut producer = TcqClient::connect(addr).unwrap();
    let s = schema();
    producer.ingest("s", rows(&s, 0..200)).unwrap();
    producer.punctuate("s", Timestamp::logical(200)).unwrap();
    producer.finish("s").unwrap();

    server.engine().quiesce(Duration::from_secs(10));
    let got = drain_results(&mut client, Duration::from_millis(300));
    // k = i % 100 < 50 → exactly the rows whose i % 100 < 50.
    let expect: Vec<i64> = (0..200).filter(|i| i % 100 < 50).collect();
    assert_eq!(got.len(), expect.len());
    assert!(got.iter().all(|(q, _)| *q == qid));
    let mut vals: Vec<i64> = got.iter().map(|&(_, v)| v).collect();
    vals.sort_unstable();
    assert_eq!(vals, expect);

    // Exact wire accounting: what the router delivered equals what hit
    // the wire equals what the client read.
    let egress = server.engine().egress_stats_full();
    assert!(egress.accounted(), "{egress:?}");
    let net = server.net_stats();
    assert_eq!(net.rows_written, got.len() as u64);
    assert_eq!(egress.delivered, net.rows_written);
    assert_eq!(net.rows_read, 200, "ingest rows decoded off the wire");
    assert_eq!(net.rows_dropped_net + net.rows_lost_disconnect, 0);

    client.bye().unwrap();
    producer.bye().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn submit_error_crosses_the_wire_and_connection_survives() {
    let (server, addr) = start(tcp_config(64));
    let mut client = TcqClient::connect(addr).unwrap();
    let err = client.submit("SELECT nope FROM nowhere").unwrap_err();
    assert!(err.to_string().contains("nowhere"), "{err}");
    // The connection is still usable after a failed request.
    client.submit("SELECT k, v FROM s WHERE k < 10").unwrap();
    client.bye().unwrap();
    server.shutdown().unwrap();
}

/// Satellite regression: a TCP subscriber that stops reading and then
/// drops its socket mid-batch must leave the ledger exactly balanced —
/// rows stuck in its per-connection queue move from `delivered` to
/// `disconnected_loss`, never vanish. Rows are 2 KB; the victim reads
/// nothing, so once the kernel's socket buffers are full its writer
/// blocks in `write_all`, its queue (capacity 8) fills behind it, and the
/// router sheds the rest. How much the socket buffers absorb varies, so
/// before the drop the test keeps pushing until the victim's queue reads
/// full and its `rows_written` has stopped moving: only then is the
/// writer provably blocked with rows queued. Ingest is paced so the
/// concurrently-draining healthy subscriber keeps up on a single core.
#[test]
fn mid_batch_socket_drop_keeps_ledger_exact() {
    const N: i64 = 4000;
    let (server, addr) = start(tcp_config(8));
    let big = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("pad", DataType::Str),
    ])
    .into_ref();
    server.engine().register_stream("big", big.clone()).unwrap();
    let pad = "x".repeat(2048);
    // Eight rows from `first`.
    let push_rows = |first: i64| {
        let rows = (first..first + 8)
            .map(|i| {
                TupleBuilder::new(big.clone())
                    .push(i % 100)
                    .push(pad.clone())
                    .at(Timestamp::logical(i))
                    .build()
                    .unwrap()
            })
            .collect();
        server.engine().push_batch("big", rows).unwrap();
        // Pace the burst: the healthy writer, its client, and the
        // dispatcher share one core — give the drain side its slices.
        std::thread::sleep(Duration::from_millis(2));
    };

    let mut victim = TcqClient::connect(addr).unwrap();
    victim
        .submit("SELECT k, pad FROM big WHERE k < 100")
        .unwrap();
    let victim_conn = victim.conn_id();
    let victim_stats = || {
        server
            .conn_stats()
            .into_iter()
            .find(|c| c.conn == victim_conn)
            .unwrap()
    };

    // A healthy subscriber to the same rows proves the drop is isolated.
    // It drains concurrently so its own small queue never backs up.
    let mut healthy = TcqClient::connect(addr).unwrap();
    healthy
        .submit("SELECT k, pad FROM big WHERE k < 100")
        .unwrap();
    let healthy_conn = healthy.conn_id();
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let drain = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut n = 0u64;
            loop {
                match healthy.next_results(Duration::from_millis(200)).unwrap() {
                    Some(batch) => n += batch.tuples.len() as u64,
                    None => {
                        if done.load(std::sync::atomic::Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            }
            let _ = healthy.bye();
            n
        })
    };

    let mut pushed = 0i64;
    while pushed < N {
        push_rows(pushed);
        pushed += 8;
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let before = victim_stats();
        std::thread::sleep(Duration::from_millis(200));
        let after = victim_stats();
        if before.queued == 8 && after.queued == 8 && before.rows_written == after.rows_written {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the victim's writer never blocked with a full queue: {after:?}"
        );
        push_rows(pushed);
        pushed += 8;
    }
    server.engine().finish_stream("big").unwrap();
    server.engine().quiesce(Duration::from_secs(30));

    // The victim read nothing: TCP buffers and its queue are full, the
    // rest already shed. Dropping the socket (with unread data → RST)
    // kills the blocked writer mid-batch.
    victim.abort();

    // Wait for the server to notice the dead socket and settle accounts.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let e = server.engine().egress_stats_full();
        if e.disconnected >= 1 && e.accounted() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never settled the dead client: {e:?}\nconns: {:#?}",
            server.conn_stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    done.store(true, std::sync::atomic::Ordering::SeqCst);
    let healthy_got = drain.join().unwrap();

    let e = server.engine().egress_stats_full();
    assert!(e.accounted(), "ledger must balance exactly: {e:?}");
    let pushed = pushed as u64;
    assert_eq!(e.offered, 2 * pushed, "{pushed} rows × 2 subscribers");
    assert_eq!(e.disconnected, 1, "only the victim was forcibly dropped");
    assert!(
        e.disconnected_loss > 0,
        "undrained queue rows must be reclassified: {e:?}"
    );
    assert!(e.shed > 0, "rows past the full queue shed: {e:?}");
    let net = server.net_stats();
    assert_eq!(
        net.rows_lost_disconnect, e.disconnected_loss,
        "transport and router agree on the loss"
    );
    // Ledger `delivered` describes rows handed to the kernel.
    assert_eq!(e.delivered, net.rows_written);
    // The healthy subscriber is untouched: it saw exactly what its
    // connection wrote, which is (nearly) everything.
    let hsnap = server
        .conn_stats()
        .into_iter()
        .find(|c| c.conn == healthy_conn)
        .unwrap();
    assert_eq!(healthy_got, hsnap.rows_written);
    assert!(
        healthy_got >= pushed * 9 / 10,
        "healthy subscriber fell behind: {healthy_got}/{pushed}"
    );

    server.shutdown().unwrap();
}

/// `NetRead` faults are seed-replayable: the same plan kills the same
/// connection after the same number of decoded frames, twice.
#[test]
fn net_read_fault_poisons_connection_deterministically() {
    let run = || -> (u64, Vec<tcq_common::FiredFault>, u64) {
        let plan = FaultPlan::new(0x0BAD_5EED)
            // Frames on the ingest connection: Hello(1), Schema(2) —
            // injected by the client codec before its first tuple frame —
            // then ingest batches 3, 4, ... The second batch dies in the
            // reader, after decode but before dispatch.
            .at(FaultPoint::NetRead, 4, FaultAction::Error("net".into()));
        let mut cfg = tcp_config(64);
        cfg.fault_plan = Some(plan);
        let (server, addr) = start(cfg);

        let s = schema();
        let mut producer = TcqClient::connect(addr).unwrap();
        for batch in 0..5 {
            let lo = batch * 10;
            if producer.ingest("s", rows(&s, lo..lo + 10)).is_err() {
                break;
            }
            // One frame at a time, flushed: the server decodes 1:1.
            std::thread::sleep(Duration::from_millis(30));
        }
        server.engine().quiesce(Duration::from_secs(5));
        let rows_read = server.net_stats().rows_read;
        let fired = server.engine().fired_faults();
        let read_faults = server.net_stats().read_faults;
        drop(producer);
        server.shutdown().unwrap();
        (rows_read, fired, read_faults)
    };

    let (rows_a, fired_a, faults_a) = run();
    let (rows_b, fired_b, faults_b) = run();
    assert_eq!(rows_a, rows_b, "same frames decoded before the kill");
    assert_eq!(fired_a, fired_b, "same fault log");
    assert_eq!(faults_a, 1);
    assert_eq!(faults_b, 1);
    // Only the first batch dispatched: the fault poisons the connection
    // between decoding and dispatching the second batch, so its 10 rows
    // never reach the engine.
    assert_eq!(rows_a, 10);
    assert_eq!(
        fired_a,
        vec![(FaultPoint::NetRead, 4, FaultAction::Error("net".into()))]
    );
}

/// `NetWrite` faults drop frames, not accounting: the ledger identity
/// `delivered == rows_written + rows_dropped_net` survives, and the
/// client observes exactly `rows_written`.
#[test]
fn net_write_fault_drops_frames_but_not_accounting() {
    // Writes on the subscriber connection: Welcome(1), SubmitOk(2), then
    // result frames. Frame 3 — the first results frame — is dropped.
    let plan =
        FaultPlan::new(0xD00D).at(FaultPoint::NetWrite, 3, FaultAction::Error("wire".into()));
    let mut cfg = tcp_config(1024);
    cfg.fault_plan = Some(plan);
    let (server, addr) = start(cfg);

    let mut client = TcqClient::connect(addr).unwrap();
    client.submit("SELECT k, v FROM s WHERE k < 100").unwrap();

    let s = schema();
    server.engine().push_batch("s", rows(&s, 0..100)).unwrap();
    server.engine().finish_stream("s").unwrap();
    server.engine().quiesce(Duration::from_secs(10));

    let got = drain_results(&mut client, Duration::from_millis(300));
    let net = server.net_stats();
    let e = server.engine().egress_stats_full();
    assert!(e.accounted());
    assert_eq!(net.write_faults, 1, "the scheduled fault fired");
    assert!(net.rows_dropped_net > 0, "the dropped frame carried rows");
    assert_eq!(
        e.delivered,
        net.rows_written + net.rows_dropped_net,
        "router delivery = wire rows + chaos-dropped rows"
    );
    assert_eq!(got.len() as u64, net.rows_written);
    assert!(got.len() < 100, "something was genuinely lost on the wire");

    client.bye().unwrap();
    server.shutdown().unwrap();
}

/// Ingest into a stream the catalog does not know fails server-side and
/// the error frame reaches the producer asynchronously — errors cross
/// the wire, not just results.
#[test]
fn ingest_into_unknown_stream_surfaces_remote_error() {
    let (server, addr) = start(tcp_config(64));
    let s = schema();
    let mut producer = TcqClient::connect(addr).unwrap();
    producer.ingest("nope", rows(&s, 0..5)).unwrap();
    // The failure comes back asynchronously as an Error frame.
    let err = loop {
        match producer.next_results(Duration::from_secs(5)) {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("no error frame arrived"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains("nope"), "{err}");
    server.shutdown().unwrap();
}

/// Clean `Bye` with a drained queue is an orderly departure: no forcible
/// disconnect, no loss, and the transport's `closed` counter converges.
#[test]
fn clean_bye_counts_no_loss() {
    let (server, addr) = start(tcp_config(64));
    let mut client = TcqClient::connect(addr).unwrap();
    client.submit("SELECT k, v FROM s WHERE k < 100").unwrap();
    let s = schema();
    server.engine().push_batch("s", rows(&s, 0..50)).unwrap();
    server.engine().quiesce(Duration::from_secs(5));
    let got = drain_results(&mut client, Duration::from_millis(300));
    assert_eq!(got.len(), 50);
    client.bye().unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.net_stats().closed < 1 {
        assert!(Instant::now() < deadline, "connection never closed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let e = server.engine().egress_stats_full();
    assert!(e.accounted());
    assert_eq!(e.disconnected, 0, "clean close is not a disconnect: {e:?}");
    assert_eq!(e.disconnected_loss, 0);
    assert_eq!(e.delivered, 50);
    server.shutdown().unwrap();
}
