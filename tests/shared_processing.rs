//! Shared continuous-query processing across many clients (CACQ, §3.1) and
//! dynamic query add/remove (§1.1: "shared processing must be made robust
//! to the addition of new queries and the removal of old ones over time").

use std::time::Duration;

use telegraphcq::prelude::*;

fn sensor_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("ts", DataType::Int),
        Field::new("sensorId", DataType::Int),
        Field::new("temperature", DataType::Float),
    ])
    .into_ref()
}

fn reading(schema: &SchemaRef, ts: i64, id: i64, temp: f64) -> Tuple {
    TupleBuilder::new(schema.clone())
        .push(ts)
        .push(id)
        .push(temp)
        .at(Timestamp::logical(ts))
        .build()
        .unwrap()
}

/// Wait until egress has offered nothing new for 20 polls in a row
/// (100 ms). A single quiet poll also passes before the executor has
/// delivered its first row, which a loaded host makes likely.
fn settle(server: &TelegraphCQ) {
    let mut last = server.egress_stats_full();
    let mut quiet = 0;
    for _ in 0..400 {
        std::thread::sleep(Duration::from_millis(5));
        let now = server.egress_stats_full();
        quiet = if now == last { quiet + 1 } else { 0 };
        if quiet == 20 {
            return;
        }
        last = now;
    }
}

#[test]
fn many_queries_share_one_stream_pass() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("sensors", sensor_schema()).unwrap();
    let schema = sensor_schema();

    // 32 standing queries with different thresholds, one client each.
    let mut clients = Vec::new();
    for i in 0..32i64 {
        let client = server.connect_pull_client(4096).unwrap();
        let qid = server
            .submit(
                &format!(
                    "SELECT ts, temperature FROM sensors WHERE temperature > {}",
                    i
                ),
                client,
            )
            .unwrap();
        clients.push((client, qid, i));
    }
    assert_eq!(server.query_count(), 32);

    // temperatures 0.5, 1.5, ..., 63.5
    for ts in 1..=64i64 {
        server
            .push("sensors", reading(&schema, ts, ts % 8, ts as f64 - 0.5))
            .unwrap();
    }
    settle(&server);

    for (client, qid, threshold) in clients {
        let got = server.fetch(client, 4096).unwrap();
        // temp > threshold ⇔ ts - 0.5 > threshold ⇔ ts >= threshold + 1
        let expect = 64 - threshold;
        assert_eq!(
            got.len() as i64,
            expect,
            "client with threshold {threshold} got {} rows",
            got.len()
        );
        assert!(got.iter().all(|(q, _)| *q == qid));
        assert!(got
            .iter()
            .all(|(_, t)| t.value(1).as_float().unwrap() > threshold as f64));
    }
    server.shutdown().unwrap();
}

#[test]
fn queries_join_and_leave_mid_stream() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("sensors", sensor_schema()).unwrap();
    let schema = sensor_schema();

    let c1 = server.connect_pull_client(4096).unwrap();
    let q1 = server
        .submit("SELECT ts FROM sensors WHERE temperature > 0.0", c1)
        .unwrap();

    for ts in 1..=10 {
        server
            .push("sensors", reading(&schema, ts, 0, 5.0))
            .unwrap();
    }
    settle(&server);

    // Second query arrives mid-stream.
    let c2 = server.connect_pull_client(4096).unwrap();
    let q2 = server
        .submit("SELECT ts FROM sensors WHERE temperature > 0.0", c2)
        .unwrap();
    for ts in 11..=20 {
        server
            .push("sensors", reading(&schema, ts, 0, 5.0))
            .unwrap();
    }
    settle(&server);

    // First query leaves; more data flows.
    server.stop_query(q1).unwrap();
    for ts in 21..=30 {
        server
            .push("sensors", reading(&schema, ts, 0, 5.0))
            .unwrap();
    }
    settle(&server);

    let got1 = server.fetch(c1, 4096).unwrap();
    let got2 = server.fetch(c2, 4096).unwrap();
    assert_eq!(got1.len(), 20, "q1 saw ts 1..=20 then left");
    assert_eq!(got2.len(), 20, "q2 saw ts 11..=30");
    assert!(got1.iter().all(|(q, _)| *q == q1));
    assert!(got2.iter().all(|(q, _)| *q == q2));
    assert_eq!(
        got2.iter().map(|(_, t)| t.value(0).as_int().unwrap()).min(),
        Some(11)
    );
    server.shutdown().unwrap();
}

#[test]
fn push_and_pull_clients_coexist() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("sensors", sensor_schema()).unwrap();
    let schema = sensor_schema();

    let (push_client, rx) = server.connect_push_client(4096).unwrap();
    let pull_client = server.connect_pull_client(4096).unwrap();
    let q_push = server
        .submit("SELECT ts FROM sensors", push_client)
        .unwrap();
    let q_pull = server
        .submit("SELECT ts FROM sensors", pull_client)
        .unwrap();

    for ts in 1..=50 {
        server
            .push("sensors", reading(&schema, ts, 0, 1.0))
            .unwrap();
    }
    settle(&server);

    let pushed: Vec<_> = rx.try_iter().collect();
    let pulled = server.fetch(pull_client, 4096).unwrap();
    assert_eq!(pushed.len(), 50);
    assert_eq!(pulled.len(), 50);
    assert!(pushed.iter().all(|(q, _)| *q == q_push));
    assert!(pulled.iter().all(|(q, _)| *q == q_pull));
    server.shutdown().unwrap();
}

#[test]
fn group_by_aggregate_over_sliding_windows() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("sensors", sensor_schema()).unwrap();
    let schema = sensor_schema();
    let client = server.connect_pull_client(4096).unwrap();
    let qid = server
        .submit(
            "SELECT sensorId, COUNT(*), AVG(temperature) FROM sensors \
             GROUP BY sensorId \
             for (t = 10; t <= 30; t +=10) { WindowIs(sensors, t - 9, t); }",
            client,
        )
        .unwrap();

    // Two sensors alternate; sensor 0 at temp = ts, sensor 1 at temp = -ts.
    for ts in 1..=40i64 {
        let id = ts % 2;
        let temp = if id == 0 { ts as f64 } else { -(ts as f64) };
        server
            .push("sensors", reading(&schema, ts, id, temp))
            .unwrap();
    }
    settle(&server);

    let rows = server.fetch(client, 4096).unwrap();
    // 3 windows × 2 groups.
    assert_eq!(rows.len(), 6);
    for (q, row) in &rows {
        assert_eq!(*q, qid);
        let t = row.value(0).as_int().unwrap();
        let sensor = row.value(1).as_int().unwrap();
        let count = row.value(2).as_int().unwrap();
        let avg = row.value(3).as_float().unwrap();
        assert!([10, 20, 30].contains(&t));
        assert_eq!(count, 5, "each sensor has 5 readings per 10-day window");
        // window [t-9, t]; sensor 0 readings are the even ts in range.
        let expect: f64 = ((t - 9)..=t)
            .filter(|ts| ts % 2 == sensor)
            .map(|ts| if sensor == 0 { ts as f64 } else { -(ts as f64) })
            .sum::<f64>()
            / 5.0;
        assert!((avg - expect).abs() < 1e-9, "t={t} sensor={sensor}");
    }
    server.shutdown().unwrap();
}

#[test]
fn two_stream_join_via_server() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("sensors", sensor_schema()).unwrap();
    let meta = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("room", DataType::Str),
    ])
    .into_ref();
    server.register_table("meta", meta.clone()).unwrap();

    let client = server.connect_pull_client(4096).unwrap();
    let qid = server
        .submit(
            "SELECT s.ts, m.room FROM sensors s, meta m \
             WHERE s.sensorId = m.id AND s.temperature > 10.0 \
             for (t = ST; t >= 0; t++) { WindowIs(s, t - 99, t); }",
            client,
        )
        .unwrap();

    // meta is a (small) stream joined as a table-like side.
    for id in 0..4i64 {
        let row = TupleBuilder::new(meta.clone())
            .push(id)
            .push(format!("room-{id}"))
            .at(Timestamp::logical(id + 1))
            .build()
            .unwrap();
        server.push("meta", row).unwrap();
    }
    let schema = sensor_schema();
    for ts in 1..=40i64 {
        // temp > 10 for even ts
        let temp = if ts % 2 == 0 { 20.0 } else { 5.0 };
        server
            .push("sensors", reading(&schema, ts, ts % 4, temp))
            .unwrap();
    }
    settle(&server);

    let rows = server.fetch(client, 4096).unwrap();
    assert_eq!(rows.len(), 20, "even ts readings join their room");
    for (q, row) in &rows {
        assert_eq!(*q, qid);
        let ts = row.value(0).as_int().unwrap();
        assert_eq!(ts % 2, 0);
        let room = row.value(1).as_str().unwrap().to_string();
        assert_eq!(room, format!("room-{}", ts % 4));
    }
    server.shutdown().unwrap();
}

#[test]
fn join_queries_share_one_stem_pair() {
    // CACQ's shared join at the server level: N join queries with the same
    // join signature share ONE join DU (one pair of SteMs), each seeing
    // exactly its own answers.
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let left = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("lv", DataType::Int),
    ])
    .into_ref();
    let right = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("rv", DataType::Int),
    ])
    .into_ref();
    server.register_stream("L", left.clone()).unwrap();
    server.register_stream("R", right.clone()).unwrap();

    // Three queries over the same equi-join (same window) with different
    // per-side filters and different aliases — sharing must still kick in,
    // including for q2, which writes the join in the opposite order.
    let c0 = server.connect_pull_client(100_000).unwrap();
    let q0 = server
        .submit(
            "SELECT a.k, b.rv FROM L a, R b WHERE a.k = b.k \
             for (t = ST; t >= 0; t++) { WindowIs(a, t - 49, t); WindowIs(b, t - 49, t); }",
            c0,
        )
        .unwrap();
    let c1 = server.connect_pull_client(100_000).unwrap();
    let q1 = server
        .submit(
            "SELECT x.k FROM L x, R y WHERE x.k = y.k AND x.lv > 5 \
             for (t = ST; t >= 0; t++) { WindowIs(x, t - 49, t); WindowIs(y, t - 49, t); }",
            c1,
        )
        .unwrap();
    let c2 = server.connect_pull_client(100_000).unwrap();
    let q2 = server
        .submit(
            "SELECT y.rv FROM R y, L x WHERE y.k = x.k AND y.rv > 7 \
             for (t = ST; t >= 0; t++) { WindowIs(x, t - 49, t); WindowIs(y, t - 49, t); }",
            c2,
        )
        .unwrap();
    assert_eq!(
        server.shared_join_count(),
        1,
        "all three queries must share one SteM pair"
    );

    // Interleave L and R rows: L(k, lv=k), R(k, rv=k) for k in 0..10 — each
    // key matches once.
    for k in 0..10i64 {
        let lrow = TupleBuilder::new(left.clone())
            .push(k)
            .push(k)
            .at(Timestamp::logical(2 * k + 1))
            .build()
            .unwrap();
        server.push("L", lrow).unwrap();
        let rrow = TupleBuilder::new(right.clone())
            .push(k)
            .push(k)
            .at(Timestamp::logical(2 * k + 2))
            .build()
            .unwrap();
        server.push("R", rrow).unwrap();
    }
    settle(&server);

    let got0 = server.fetch(c0, 100_000).unwrap();
    let got1 = server.fetch(c1, 100_000).unwrap();
    let got2 = server.fetch(c2, 100_000).unwrap();
    assert_eq!(got0.len(), 10, "q0 sees every match");
    assert!(got0.iter().all(|(q, _)| *q == q0));
    assert_eq!(got1.len(), 4, "q1: lv > 5 → k in 6..=9");
    assert!(got1.iter().all(|(q, _)| *q == q1));
    assert_eq!(got2.len(), 2, "q2: rv > 7 → k in 8..=9");
    assert!(got2.iter().all(|(q, _)| *q == q2));

    // Teardown: the shared plan survives until the LAST query leaves.
    server.stop_query(q0).unwrap();
    server.stop_query(q1).unwrap();
    assert_eq!(server.shared_join_count(), 1);
    server.stop_query(q2).unwrap();
    assert_eq!(server.shared_join_count(), 0);
    server.shutdown().unwrap();
}

#[test]
fn three_way_star_join_via_server() {
    // Three streams joined on a common key; the dedicated eddy builds one
    // SteM per source and completes RST triples exactly once.
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let mk = |_name: &str, val: &str| {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new(val, DataType::Int),
        ])
        .into_ref()
    };
    let (ra, sa, ta) = (mk("R", "rv"), mk("S", "sv"), mk("T", "tv"));
    server.register_stream("R", ra.clone()).unwrap();
    server.register_stream("S", sa.clone()).unwrap();
    server.register_stream("T", ta.clone()).unwrap();

    let client = server.connect_pull_client(100_000).unwrap();
    let qid = server
        .submit(
            "SELECT r.k, s.sv, t.tv FROM R r, S s, T t \
             WHERE r.k = s.k AND s.k = t.k \
             for (t = ST; t >= 0; t++) { \
                 WindowIs(r, t - 99, t); WindowIs(s, t - 99, t); WindowIs(t, t - 99, t); \
             }",
            client,
        )
        .unwrap();

    let mut ts = 0i64;
    let mut push = |stream: &str, schema: &SchemaRef, k: i64, v: i64| {
        ts += 1;
        let row = TupleBuilder::new(schema.clone())
            .push(k)
            .push(v)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap();
        server.push(stream, row).unwrap();
    };
    // keys 1..=5 appear in all three; key 9 only in R and S.
    for k in 1..=5 {
        push("R", &ra, k, 10 * k);
        push("S", &sa, k, 20 * k);
        push("T", &ta, k, 30 * k);
    }
    push("R", &ra, 9, 90);
    push("S", &sa, 9, 180);
    settle(&server);

    let got = server.fetch(client, 100_000).unwrap();
    assert_eq!(got.len(), 5, "one triple per common key");
    for (q, row) in &got {
        assert_eq!(*q, qid);
        let k = row.value(0).as_int().unwrap();
        assert_eq!(row.value(1).as_int().unwrap(), 20 * k);
        assert_eq!(row.value(2).as_int().unwrap(), 30 * k);
    }
    server.shutdown().unwrap();
}

/// What a standing query of the churn test selects, evaluated on its own.
#[derive(Clone, Copy)]
enum TickCq {
    /// `sym = s AND price > 500`
    Sym(i64),
    /// `price > lo AND price < hi`
    Range(i64, i64),
}

impl TickCq {
    fn sql(self) -> String {
        match self {
            TickCq::Sym(s) => format!("SELECT seq FROM ticks WHERE sym = {s} AND price > 500"),
            TickCq::Range(lo, hi) => {
                format!("SELECT seq FROM ticks WHERE price > {lo} AND price < {hi}")
            }
        }
    }

    fn admits(self, sym: i64, price: i64) -> bool {
        match self {
            TickCq::Sym(s) => sym == s && price > 500,
            TickCq::Range(lo, hi) => lo < price && price < hi,
        }
    }
}

#[test]
fn range_cqs_churn_under_load_with_exact_per_query_deliveries() {
    // 2 000 two-sided range CQs (one interval each in the shared QueryStem)
    // beside 200 anchored ones; every 64 rows a range CQ is submitted and
    // the oldest standing range CQ is stopped, so registrations pile up in
    // the interval index's pending buffer while stops tombstone its run.
    const RANGES: i64 = 2_000;
    const SYMS: i64 = 200;
    const ROWS: i64 = 5_000;
    const BATCH: i64 = 64;
    const SPAN: i64 = 1_000_000;
    use std::collections::{HashMap, VecDeque};
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let schema = Schema::new(vec![
        Field::new("sym", DataType::Int),
        Field::new("price", DataType::Int),
        Field::new("seq", DataType::Int),
    ])
    .into_ref();
    server.register_stream("ticks", schema.clone()).unwrap();
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();

    // qid -> (predicate, seqs it must deliver, seqs it delivered).
    type Ledger = HashMap<usize, (TickCq, Vec<i64>, Vec<i64>)>;
    let mut queries = Ledger::new();
    let mut live: Vec<usize> = Vec::new();
    let submit = |queries: &mut Ledger, cq: TickCq| {
        let qid = server.submit(&cq.sql(), client).unwrap();
        queries.insert(qid, (cq, Vec::new(), Vec::new()));
        qid
    };
    let step = SPAN / RANGES;
    let mut standing_ranges: VecDeque<usize> = (0..RANGES)
        .map(|j| TickCq::Range(j * step, j * step + 3 * step + 1))
        .map(|cq| submit(&mut queries, cq))
        .collect();
    live.extend(standing_ranges.iter().copied());
    live.extend((0..SYMS).map(|s| submit(&mut queries, TickCq::Sym(s))));

    let mut rng = telegraphcq::common::rng::seeded(0x17_C0DE);
    let (mut expected, mut received) = (0u64, 0u64);
    let mut seq = 0i64;
    while seq < ROWS {
        let mut batch = Vec::new();
        for _ in 0..BATCH.min(ROWS - seq) {
            seq += 1;
            let (sym, price) = (rng.gen_range(0..SYMS), rng.gen_range(0..SPAN));
            for qid in &live {
                let (cq, want, _) = queries.get_mut(qid).unwrap();
                if cq.admits(sym, price) {
                    want.push(seq);
                    expected += 1;
                }
            }
            let row = TupleBuilder::new(schema.clone())
                .push(sym)
                .push(price)
                .push(seq)
                .at(Timestamp::logical(seq));
            batch.push(row.build().unwrap());
        }
        server.push_batch("ticks", batch).unwrap();
        // Closed loop: the engine has seen every row before the population
        // changes, so each query's expected rows are exact.
        while received < expected {
            let (qid, t) = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("{received} of {expected} deliveries by seq {seq}"));
            queries
                .get_mut(&qid)
                .unwrap()
                .2
                .push(t.value(0).as_int().unwrap());
            received += 1;
        }
        // A wide range (a fifth of the stream matches), rotated around.
        let lo = (seq * 7_919) % SPAN;
        let qid = submit(&mut queries, TickCq::Range(lo, lo + SPAN / 5));
        live.push(qid);
        standing_ranges.push_back(qid);
        let old = standing_ranges.pop_front().unwrap();
        server.stop_query(old).unwrap();
        live.retain(|q| *q != old);
    }
    settle(&server);
    assert!(
        rx.try_recv().is_err(),
        "deliveries beyond the expected ones"
    );
    for (qid, (cq, want, got)) in &queries {
        assert_eq!(got, want, "query {qid} ({})", cq.sql());
    }
    let churned = queries.len() as i64 - RANGES - SYMS;
    assert_eq!(churned, (ROWS + BATCH - 1) / BATCH);
    let ledger = server.egress_stats_full();
    assert_eq!(
        (ledger.offered, ledger.delivered),
        (expected, expected),
        "{ledger:?}"
    );
    assert_eq!(server.query_count() as i64, RANGES + SYMS);
    server.shutdown().unwrap();
}

#[test]
fn mistyped_cq_is_refused_at_submit_and_the_stream_keeps_delivering() {
    // A constant the column cannot be compared with would fail the shared
    // filter's probe for every standing query on the stream; the query SteM
    // refuses it at registration instead.
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let schema = sensor_schema();
    server.register_stream("sensors", schema.clone()).unwrap();
    let (client, rx) = server.connect_push_client(1024).unwrap();
    let good = server
        .submit(
            "SELECT sensorId FROM sensors WHERE temperature > 20.0",
            client,
        )
        .unwrap();
    for bad in [
        "SELECT sensorId FROM sensors WHERE temperature > 1.0 AND sensorId != 'abc'",
        "SELECT sensorId FROM sensors WHERE sensorId = 3 AND temperature < 'abc'",
    ] {
        assert!(server.submit(bad, client).is_err(), "{bad}");
    }
    assert_eq!(server.query_count(), 1);
    for ts in 1..=10 {
        server
            .push("sensors", reading(&schema, ts, ts, 15.0 + ts as f64))
            .unwrap();
    }
    settle(&server);
    let got: Vec<(usize, i64)> = rx
        .try_iter()
        .map(|(q, t)| (q, t.value(0).as_int().unwrap()))
        .collect();
    assert_eq!(got, (6..=10).map(|id| (good, id)).collect::<Vec<_>>());
    server.shutdown().unwrap();
}

/// Per-query rows and the egress ledger of a shared filter, a windowed
/// aggregate and a shared join over two streams, run with `io_batch`.
fn run_shared_mix(
    io_batch: usize,
) -> (
    std::collections::BTreeMap<usize, Vec<Vec<i64>>>,
    EgressStats,
) {
    let server = TelegraphCQ::start(ServerConfig {
        io_batch,
        ..ServerConfig::default()
    })
    .unwrap();
    let schema = |v: &str| {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new(v, DataType::Int),
        ])
        .into_ref()
    };
    let (left, right) = (schema("lv"), schema("rv"));
    server.register_stream("L", left.clone()).unwrap();
    server.register_stream("R", right.clone()).unwrap();
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    let filter = server
        .submit("SELECT k, lv FROM L WHERE lv > 100", client)
        .unwrap();
    let agg = server
        .submit(
            "SELECT k, COUNT(*), SUM(lv) FROM L GROUP BY k \
             for (t = 50; t <= 2000; t += 50) { WindowIs(L, t - 49, t); }",
            client,
        )
        .unwrap();
    let join = server
        .submit(
            "SELECT a.k, a.lv, b.rv FROM L a, R b WHERE a.k = b.k AND b.rv > 20 \
             for (t = ST; t >= 0; t++) { WindowIs(a, 1, t); WindowIs(b, 1, t); }",
            client,
        )
        .unwrap();
    assert_eq!(server.shared_join_count(), 1, "the join runs shared");

    let mut rng = telegraphcq::common::rng::seeded(0x5A4E);
    let mut batch_l = Vec::new();
    let mut batch_r = Vec::new();
    for ts in 1..=2000i64 {
        let (stream, schema, batch) = if rng.gen_range(0..3u32) == 0 {
            ("R", &right, &mut batch_r)
        } else {
            ("L", &left, &mut batch_l)
        };
        batch.push(
            TupleBuilder::new(schema.clone())
                .push(rng.gen_range(0..16i64))
                .push(rng.gen_range(0..200i64))
                .at(Timestamp::logical(ts))
                .build()
                .unwrap(),
        );
        if batch.len() == 37 {
            server.push_batch(stream, std::mem::take(batch)).unwrap();
        }
    }
    server.push_batch("L", batch_l).unwrap();
    server.push_batch("R", batch_r).unwrap();
    server.finish_stream("L").unwrap();
    server.finish_stream("R").unwrap();
    assert!(server.quiesce(Duration::from_secs(60)));

    let mut rows: std::collections::BTreeMap<usize, Vec<Vec<i64>>> = Default::default();
    for (qid, t) in rx.try_iter() {
        let row = t.values().iter().map(|v| v.as_int().unwrap()).collect();
        rows.entry(qid).or_default().push(row);
    }
    for qid in [filter, agg, join] {
        assert!(rows.get(&qid).is_some_and(|r| !r.is_empty()), "q{qid}");
    }
    // Unbounded windows: the join's answer is a multiset, whatever order
    // the two sides' batches met in.
    rows.get_mut(&join).unwrap().sort_unstable();
    let ledger = server.egress_stats_full();
    server.shutdown().unwrap();
    (rows, ledger)
}

#[test]
fn shared_dus_deliver_identically_at_every_io_batch() {
    let (rows_1, ledger_1) = run_shared_mix(1);
    let (rows_64, ledger_64) = run_shared_mix(64);
    assert_eq!(rows_1, rows_64, "per-query rows diverged across io_batch");
    assert_eq!(
        ledger_1, ledger_64,
        "egress ledger diverged across io_batch"
    );
    assert!(ledger_64.accounted());
    assert_eq!(ledger_64.offered, ledger_64.delivered, "{ledger_64:?}");
}

/// A query submitted after its streams ended retires at once, whatever its
/// plan: a join's new input queue gets the Eof its stream already sent,
/// and a filter or aggregate runs on the finished stream's dispatcher.
#[test]
fn a_query_submitted_after_its_streams_eof_retires() {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref();
    let mut stuck = Vec::new();
    for (shape, sql) in [
        (
            "aggregate",
            "SELECT COUNT(*) FROM s for (t = ST; t >= 0; t += 10) { WindowIs(s, t - 9, t); }",
        ),
        (
            "join",
            "SELECT s.v, r.v FROM s, r WHERE s.k = r.k \
             for (t = ST; t >= 0; t++) { WindowIs(s, t - 9, t); WindowIs(r, t - 9, t); }",
        ),
        ("filter", "SELECT v FROM s WHERE v > 5"),
    ] {
        let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
        for stream in ["s", "r"] {
            server.register_stream(stream, schema.clone()).unwrap();
            let rows = (1..=100i64)
                .map(|ts| {
                    TupleBuilder::new(schema.clone())
                        .push(ts % 10)
                        .push(ts)
                        .at(Timestamp::logical(ts))
                        .build()
                        .unwrap()
                })
                .collect();
            server.push_batch(stream, rows).unwrap();
            server.finish_stream(stream).unwrap();
        }
        assert!(server.quiesce(Duration::from_secs(10)), "{shape}: streams");
        let client = server.connect_pull_client(64).unwrap();
        server.submit(sql, client).unwrap();
        if !server.quiesce(Duration::from_secs(3)) {
            stuck.push(shape);
        }
        server.shutdown().unwrap();
    }
    assert!(
        stuck.is_empty(),
        "submitted after EOF, never retired: {stuck:?}"
    );
}

/// A query that cannot evaluate a row keeps the error to itself: a filter
/// query whose predicate divides by zero misses that row alone, an
/// aggregate whose predicate does retires alone, and the co-resident
/// filter and aggregate get every row and window. Each error is counted.
#[test]
fn a_query_error_stays_with_its_query() {
    let schema = Schema::new(vec![
        Field::new("ts", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref();
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("s", schema.clone()).unwrap();
    let (client, rx) = server.connect_push_client(4096).unwrap();
    let window = "for (t = ST; t >= 0; t += 10) { WindowIs(s, t - 9, t); }";
    let [all, divides, count, failing_count] = [
        "SELECT ts FROM s WHERE ts > 0".to_string(),
        "SELECT ts FROM s WHERE 10 / v > 1".to_string(),
        format!("SELECT COUNT(*) FROM s {window}"),
        format!("SELECT COUNT(*) FROM s WHERE 10 / v > 1 {window}"),
    ]
    .map(|sql| server.submit(&sql, client).unwrap());
    // v = ts % 10: ten rows divide by zero; 10 / v > 1 for v in 1..=5.
    let rows = (1..=100i64)
        .map(|ts| {
            TupleBuilder::new(schema.clone())
                .push(ts)
                .push(ts % 10)
                .at(Timestamp::logical(ts))
                .build()
                .unwrap()
        })
        .collect();
    server.push_batch("s", rows).unwrap();
    server.finish_stream("s").unwrap();
    assert!(server.quiesce(Duration::from_secs(10)));
    let mut got: std::collections::BTreeMap<usize, usize> = Default::default();
    for (qid, _) in rx.try_iter() {
        *got.entry(qid).or_default() += 1;
    }
    let n = |qid| got.get(&qid).copied().unwrap_or(0);
    assert_eq!(n(all), 100, "the co-resident filter gets every row");
    assert_eq!(n(divides), 50, "v in 1..=5");
    // ST = 1: windows close at t = 1, 11, …, 91.
    assert_eq!(
        n(count),
        10,
        "the co-resident aggregate answers every window"
    );
    assert!(
        n(failing_count) <= 1,
        "retired at ts 10, before t = 11 closed"
    );
    assert_eq!(server.query_error_count("s").unwrap(), 10 + 1);
    server.shutdown().unwrap();
}

/// A stream's plans deliver while a checkpoint holds every aggregate's and
/// join's state lock and a join DU delivers under its own: neither may wait
/// for the other. Two streams, each with filters and an aggregate, and a
/// join over both, on two EOs, checkpointed over and over during ingest.
#[test]
fn stream_plans_joins_and_checkpoints_never_wait_on_each_other() {
    const FILTERS: i64 = 64;
    const BATCHES: i64 = 150;
    const BATCH: i64 = 64;
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref();
    let dir = std::env::temp_dir().join(format!("tcq-plans-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = std::sync::Arc::new(
        TelegraphCQ::start(ServerConfig {
            eos: 2,
            checkpoint_path: Some(dir.join("server.tcqk")),
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let client = server.connect_pull_client(1 << 22).unwrap();
    // Aggregates first: a checkpoint locks their drivers before the join's
    // core.
    let mut aggregates = Vec::new();
    let mut filters = Vec::new();
    for stream in ["a", "b"] {
        server.register_stream(stream, schema.clone()).unwrap();
        let sql = format!(
            "SELECT COUNT(*) FROM {stream} for (t = ST; t >= 0; t++) {{ WindowIs({stream}, t, t); }}"
        );
        aggregates.push(server.submit(&sql, client).unwrap());
        for i in 0..FILTERS {
            let sql = format!("SELECT v FROM {stream} WHERE v >= {i}");
            filters.push(server.submit(&sql, client).unwrap());
        }
    }
    let join = server
        .submit(
            "SELECT a.v, b.v FROM a, b WHERE a.k = b.k \
             for (t = ST; t >= 0; t++) { WindowIs(a, t - 4, t); WindowIs(b, t - 4, t); }",
            client,
        )
        .unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let checkpointer = {
        let server = server.clone();
        std::thread::spawn(move || {
            let mut taken = 0;
            while done_rx.try_recv().is_err() {
                server.checkpoint().unwrap();
                taken += 1;
            }
            taken
        })
    };
    // Ingest runs on its own thread: a wedged dispatcher would block the
    // pushes once ingress fills, and the test must fail, not hang.
    let (pushed_tx, pushed_rx) = std::sync::mpsc::channel();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            for batch in 0..BATCHES {
                for stream in ["a", "b"] {
                    let rows = (1..=BATCH)
                        .map(|i| {
                            let ts = batch * BATCH + i;
                            TupleBuilder::new(schema.clone())
                                .push(ts % 3)
                                .push(ts)
                                .at(Timestamp::logical(ts))
                                .build()
                                .unwrap()
                        })
                        .collect();
                    server.push_batch(stream, rows).unwrap();
                }
                // Long enough for ingress to drain, which each checkpoint
                // waits for before it locks the drivers and cores.
                std::thread::sleep(Duration::from_millis(4));
            }
            for stream in ["a", "b"] {
                server.finish_stream(stream).unwrap();
            }
            pushed_tx.send(()).unwrap();
        });
    }
    pushed_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("ingest wedged: the plans, the join or a checkpoint wait on each other");
    let drained = server.quiesce(Duration::from_secs(10));
    done_tx.send(()).unwrap();
    assert!(drained, "the plans, the join or a checkpoint wedged");
    assert!(checkpointer.join().unwrap() > 0);
    let mut got = std::collections::BTreeMap::<usize, usize>::new();
    loop {
        let rows = server.fetch(client, 1 << 16).unwrap();
        if rows.is_empty() {
            break;
        }
        for (qid, _) in rows {
            *got.entry(qid).or_default() += 1;
        }
    }
    // An aggregate answers one window per tick; filter `v >= i` passes
    // every row but the first `i - 1`.
    let rows = (BATCHES * BATCH) as usize;
    for qid in aggregates {
        assert_eq!(got.get(&qid), Some(&rows), "aggregate {qid}");
    }
    for (i, qid) in filters.into_iter().enumerate() {
        let want = rows - (i % FILTERS as usize).saturating_sub(1);
        assert_eq!(got.get(&qid), Some(&want), "filter {qid}");
    }
    assert!(got.get(&join).is_some_and(|&n| n > 0), "{got:?}");
    match std::sync::Arc::try_unwrap(server) {
        Ok(server) => server.shutdown().unwrap(),
        Err(_) => panic!("the checkpoint thread still holds the server"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
