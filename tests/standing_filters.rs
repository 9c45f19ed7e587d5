//! A standing filter query leaves nothing behind: stopping it drops every
//! egress subscription to it, a `Subscribe` frame for a query the server is
//! not running is refused, and queries share a projection only when their
//! select lists are identical down to literal types and aliases. Filter and
//! aggregate queries run on their stream's dispatcher, with no DU or queue
//! of their own.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use telegraphcq::net::{Frame, FrameReader, FrameWriter, WIRE_VERSION};
use telegraphcq::prelude::*;

fn ticks() -> SchemaRef {
    Schema::new(
        ["sym", "price", "seq"]
            .map(|n| Field::new(n, DataType::Int))
            .to_vec(),
    )
    .into_ref()
}

fn filter_bytes(server: &TelegraphCQ) -> usize {
    let stats = server.shared_memory_stats();
    let stat = stats
        .iter()
        .find(|s| s.label == "filter:ticks")
        .expect("the stream's shared filter reports a stat");
    stat.approx_bytes
}

#[test]
fn stopping_a_query_drops_its_egress_subscription() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("ticks", ticks()).unwrap();
    let (client, _rx) = server.connect_push_client(16).unwrap();
    let kept = server
        .submit("SELECT seq FROM ticks WHERE sym = 1", client)
        .unwrap();
    for i in 0..1_000 {
        let sql = format!("SELECT seq FROM ticks WHERE sym = {i} AND price > 500");
        let qid = server.submit(&sql, client).unwrap();
        server.stop_query(qid).unwrap();
    }
    // A query that fails to start keeps no subscription either.
    assert!(server
        .submit("SELECT seq FROM ticks WHERE price > 'abc'", client)
        .is_err());
    assert_eq!(server.query_count(), 1);
    assert_eq!(server.subscribed_query_count(), server.query_count());
    server.stop_query(kept).unwrap();
    assert_eq!(server.subscribed_query_count(), 0);
    server.shutdown().unwrap();
}

#[test]
fn subscribe_refuses_a_query_the_server_is_not_running() {
    let server = NetServer::start(ServerConfig {
        transport: TransportConfig::Tcp(TcpTransportConfig::default()),
        ..ServerConfig::default()
    })
    .unwrap();
    let engine = server.engine();
    engine.register_stream("ticks", ticks()).unwrap();
    let addr = server.local_addr().unwrap();
    let mut owner = TcqClient::connect(addr).unwrap();
    let running = owner.submit("SELECT seq FROM ticks").unwrap();
    let stopped = owner.submit("SELECT sym FROM ticks").unwrap();
    engine.stop_query(stopped as usize).unwrap();
    let subscribed = engine.subscribed_query_count();
    assert_eq!(subscribed, 1);

    // 10 000 ids the server never issued, then the stopped one, pipelined
    // on one raw connection: each must come back as an `Error` frame.
    let ids: Vec<u64> = (0..10_000u64)
        .map(|i| 1_000_000 + i)
        .chain([stopped])
        .collect();
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (mut enc, mut out) = (FrameWriter::new(), Vec::new());
    enc.encode(
        &Frame::Hello {
            version: WIRE_VERSION,
        },
        &mut out,
    );
    for &query in &ids {
        enc.encode(&Frame::Subscribe { query }, &mut out);
    }
    sock.write_all(&out).unwrap();
    let (mut dec, mut buf, mut chunk) = (FrameReader::new(), Vec::new(), vec![0u8; 1 << 16]);
    let (mut errors, mut oks) = (Vec::new(), 0usize);
    while errors.len() + oks < ids.len() {
        let n = sock.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed after {} replies", errors.len() + oks);
        buf.extend_from_slice(&chunk[..n]);
        let mut used = 0;
        while let Some((frame, len)) = dec.decode(&buf[used..]).unwrap() {
            used += len;
            match frame {
                Frame::Error { message } => errors.push(message),
                Frame::SubscribeOk { .. } => oks += 1,
                _ => {}
            }
        }
        buf.drain(..used);
    }
    assert_eq!((errors.len(), oks), (ids.len(), 0));
    for (id, message) in ids.iter().zip(&errors) {
        assert!(
            message.contains(&format!("unknown query {id}")),
            "{message}"
        );
    }
    assert_eq!(engine.subscribed_query_count(), subscribed);

    // A running query still takes new subscribers.
    let mut reader = TcqClient::connect(addr).unwrap();
    reader.subscribe(running).unwrap();
    assert_eq!(engine.subscribed_query_count(), subscribed);
    drop(sock);
    reader.bye().unwrap();
    owner.bye().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn queries_share_a_projection_only_when_it_is_identical() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let schema = ticks();
    server.register_stream("ticks", schema.clone()).unwrap();
    let empty = filter_bytes(&server);
    let (client, rx) = server.connect_push_client(64).unwrap();
    // `seq + 1` and `seq + 1.0` are equal under `Value`'s `==`, and an
    // alias names the output column: only the last two project alike.
    let sqls = [
        "SELECT seq + 1 FROM ticks",
        "SELECT seq + 1.0 FROM ticks",
        "SELECT seq AS a FROM ticks",
        "SELECT seq AS b FROM ticks WHERE price > 0",
        "SELECT seq AS b FROM ticks WHERE sym = 7",
    ];
    let qids: Vec<usize> = sqls
        .iter()
        .map(|sql| server.submit(sql, client).unwrap())
        .collect();
    let row = TupleBuilder::new(schema)
        .push(7i64)
        .push(5i64)
        .push(41i64)
        .at(Timestamp::logical(1))
        .build()
        .unwrap();
    server.push("ticks", row).unwrap();
    let got: Vec<(usize, Tuple)> = (0..sqls.len())
        .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
        .collect();
    let order: Vec<usize> = got.iter().map(|(q, _)| *q).collect();
    assert_eq!(
        order, qids,
        "one row reaches its queries in ascending id order"
    );
    let column = |i: usize| {
        let t = &got[i].1;
        let f = t.schema().field(0);
        (f.name.clone(), f.data_type, t.value(0).clone())
    };
    let (name, ty, v) = column(0);
    assert_eq!((name.as_str(), ty), ("expr0", DataType::Int));
    assert!(matches!(v, Value::Int(42)), "{v:?}");
    let (name, ty, v) = column(1);
    assert_eq!((name.as_str(), ty), ("expr0", DataType::Float));
    assert!(matches!(v, Value::Float(f) if f == 42.0), "{v:?}");
    let names: Vec<String> = (2..5).map(|i| column(i).0).collect();
    assert_eq!(names, ["a", "b", "b"]);
    for qid in qids {
        server.stop_query(qid).unwrap();
    }
    assert_eq!(
        filter_bytes(&server),
        empty,
        "the last stop frees every projection"
    );
    server.shutdown().unwrap();
}

/// A stream runs on one DU, its dispatcher, and its filter and aggregate
/// queries run inside that DU: submitting them adds no DU and no probed
/// channel. A join reads two streams, so it still runs on a DU of its own
/// with one input queue per stream.
#[test]
fn single_stream_plans_add_no_du_and_no_channel() {
    let server = TelegraphCQ::start(ServerConfig {
        liveness: Some(LivenessConfig::default()),
        ..ServerConfig::default()
    })
    .unwrap();
    let dus = || server.executor_stats().dus_per_eo.iter().sum::<usize>();
    let channels = || server.progress_snapshot().unwrap().channels.len();
    let streams = ["ticks", "quotes", "trades"];
    for (n, name) in streams.iter().enumerate() {
        server.register_stream(name, ticks()).unwrap();
        assert_eq!(dus(), n + 1, "one DU per registered stream");
        assert_eq!(channels(), n + 1, "one ingress channel per stream");
    }
    let (client, _rx) = server.connect_push_client(16).unwrap();
    for sql in [
        "SELECT seq FROM ticks WHERE sym = 1",
        "SELECT seq FROM ticks WHERE price > 100 AND price < 200",
        "SELECT sym, COUNT(*), MAX(price) FROM ticks GROUP BY sym \
         for (t = ST; t >= 0; t += 10) { WindowIs(ticks, t - 9, t); }",
        "SELECT MIN(price) FROM quotes for (t = ST; t >= 0; t++) { WindowIs(quotes, 1, t); }",
    ] {
        server.submit(sql, client).unwrap();
        assert_eq!((dus(), channels()), (3, 3), "{sql}");
    }
    server
        .submit(
            "SELECT a.seq, b.seq FROM ticks a, quotes b WHERE a.sym = b.sym \
             for (t = ST; t >= 0; t++) { WindowIs(a, t - 9, t); WindowIs(b, t - 9, t); }",
            client,
        )
        .unwrap();
    assert_eq!((dus(), channels()), (4, 5), "a join: one DU, two inputs");
    server.shutdown().unwrap();
}
