//! The progress registry every server keeps: it reads each fjord's own
//! counts, answers without the liveness watchdog, and forgets a fjord once
//! its last endpoint is dropped — so a server that starts and stops joins
//! ends up holding the channels it began with, and its frontier never goes
//! back.

use std::time::{Duration, Instant};

use telegraphcq::fjords::ProgressSnapshot;
use telegraphcq::prelude::*;

fn keyed() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref()
}

fn row(s: &SchemaRef, k: i64, ts: i64) -> Tuple {
    TupleBuilder::new(s.clone())
        .push(k)
        .push(ts)
        .at(Timestamp::logical(ts))
        .build()
        .unwrap()
}

fn snapshot(server: &TelegraphCQ) -> ProgressSnapshot {
    server
        .progress_snapshot()
        .expect("every server keeps a registry")
}

#[test]
fn progress_snapshot_answers_without_the_liveness_watchdog() {
    let config = ServerConfig::default();
    assert!(config.liveness.is_none());
    let server = TelegraphCQ::start(config).unwrap();
    server.register_stream("s", keyed()).unwrap();
    let s = keyed();
    server
        .push_batch("s", (1..=10).map(|ts| row(&s, ts, ts)).collect())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = snapshot(&server);
        let names: Vec<&str> = snap.channels.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["ingress(s)"]);
        let ingress = &snap.channels[0];
        if ingress.dequeued == 10 {
            assert_eq!((ingress.enqueued, ingress.depth), (10, 0));
            assert_eq!(snap.frontier, 20, "ten rows in, ten rows out");
            break;
        }
        assert!(Instant::now() < deadline, "the dispatcher took {ingress:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown().unwrap();
}

/// Start and stop `joins` windowed joins on a server with `partitions`
/// partitions, feeding each a row per side, and check after every step
/// that the frontier has not gone back. Once the executor has dropped
/// the stopped joins' DUs the registry holds the channels it held before
/// the first join.
fn started_and_stopped_joins_leave_no_channel_behind(partitions: usize, joins: i64) {
    let server = TelegraphCQ::start(ServerConfig {
        partitions,
        liveness: Some(LivenessConfig::default()),
        ..ServerConfig::default()
    })
    .unwrap();
    let s = keyed();
    server.register_stream("s", s.clone()).unwrap();
    server.register_stream("r", s.clone()).unwrap();
    let client = server.connect_pull_client(1 << 16).unwrap();
    let before = snapshot(&server).channels.len();
    let mut frontier = 0;
    let mut channels = || {
        let snap = snapshot(&server);
        assert!(
            snap.frontier >= frontier,
            "P={partitions}: the frontier went back from {frontier} to {}",
            snap.frontier
        );
        frontier = snap.frontier;
        snap.channels.len()
    };
    for i in 1..=joins {
        let qid = server
            .submit(
                "SELECT s.v, r.v FROM s, r WHERE s.k = r.k \
                 for (t = ST; t >= 0; t++) { WindowIs(s, t - 9, t); WindowIs(r, t - 9, t); }",
                client,
            )
            .unwrap();
        server.push("s", row(&s, i, i)).unwrap();
        server.push("r", row(&s, i, i)).unwrap();
        assert!(
            channels() > before,
            "P={partitions}: a running join reads fjords of its own"
        );
        server.stop_query(qid).unwrap();
        channels();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = channels();
        if now == before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "P={partitions}: {now} channels after {joins} joins came and went, {before} before"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown().unwrap();
}

#[test]
fn stopped_sequential_joins_leave_no_channel_behind() {
    started_and_stopped_joins_leave_no_channel_behind(1, 20);
}

#[test]
fn stopped_partitioned_joins_leave_no_channel_behind() {
    started_and_stopped_joins_leave_no_channel_behind(4, 5);
}
