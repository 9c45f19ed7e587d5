//! Overload (§4.3: back-pressure is the engine's one rule, so nothing is
//! shed before result delivery), historical/backward windows over the
//! archive, and front-end error surfaces of the server.

use std::time::Duration;

use telegraphcq::prelude::*;
use telegraphcq::server::ServerConfig as Cfg;

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("ts", DataType::Int),
        Field::new("v", DataType::Float),
    ])
    .into_ref()
}

fn row(s: &SchemaRef, ts: i64, v: f64) -> Tuple {
    TupleBuilder::new(s.clone())
        .push(ts)
        .push(v)
        .at(Timestamp::logical(ts))
        .build()
        .unwrap()
}

fn settle(server: &TelegraphCQ) {
    let mut last = server.egress_stats_full();
    for _ in 0..400 {
        std::thread::sleep(Duration::from_millis(5));
        let now = server.egress_stats_full();
        if now == last {
            return;
        }
        last = now;
    }
}

#[test]
fn backpressure_is_lossless() {
    // Default policy: tiny queues + a slow consumer stall the stream but
    // lose nothing.
    let server = TelegraphCQ::start(Cfg {
        queue_capacity: 4,
        ..Cfg::default()
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();
    let client = server.connect_pull_client(100_000).unwrap();
    server.submit("SELECT ts FROM s", client).unwrap();
    let s = schema();
    for ts in 1..=2000 {
        server.push("s", row(&s, ts, 1.0)).unwrap();
    }
    settle(&server);
    assert_eq!(server.shed_count("s").unwrap(), 0);
    let got = server.fetch(client, 100_000).unwrap();
    assert_eq!(got.len(), 2000, "backpressure must not drop tuples");
    server.shutdown().unwrap();
}

#[test]
fn backpressure_on_one_slot_queues_degrades_nothing() {
    // Overload: queue capacity 1 and a single busy EO. The stream slows
    // down and sheds nothing. Invariant: pushed = delivered + shed for a
    // single-subscriber stream, with shed = 0.
    let server = TelegraphCQ::start(Cfg {
        queue_capacity: 1,
        eos: 1,
        ..Cfg::default()
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();
    let client = server.connect_pull_client(1_000_000).unwrap();
    server.submit("SELECT ts FROM s", client).unwrap();
    let s = schema();
    let n = 20_000;
    for ts in 1..=n {
        server.push("s", row(&s, ts, 1.0)).unwrap();
    }
    settle(&server);
    let shed = server.shed_count("s").unwrap();
    let delivered = server.fetch(client, 1_000_000).unwrap().len() as i64;
    assert_eq!(
        delivered + shed,
        n,
        "every tuple is either delivered or counted as shed"
    );
    assert_eq!(shed, 0, "back-pressure sheds nothing");
    server.shutdown().unwrap();
}

#[test]
fn backpressure_on_a_one_slot_join_queue_drops_no_copy() {
    // A join's one-slot input queue holds its stream back instead of
    // dropping copies. A filter query on the same stream runs on the
    // stream's dispatcher, where nothing queues, so it sees every row.
    let server = TelegraphCQ::start(Cfg {
        queue_capacity: 1,
        eos: 1,
        ..Cfg::default()
    })
    .unwrap();
    let keyed = Schema::new(vec![
        Field::new("ts", DataType::Int),
        Field::new("k", DataType::Int),
    ])
    .into_ref();
    server.register_stream("s", keyed.clone()).unwrap();
    server.register_table("r", keyed.clone()).unwrap();
    let client = server.connect_pull_client(1_000_000).unwrap();
    let filter = server.submit("SELECT ts FROM s", client).unwrap();
    let join = server
        .submit(
            "SELECT s.ts FROM s, r WHERE s.k = r.k \
             for (t = ST; t >= 0; t++) { WindowIs(s, t - 9, t); }",
            client,
        )
        .unwrap();
    let keyed_row = |ts: i64| {
        TupleBuilder::new(keyed.clone())
            .push(ts)
            .push(1i64)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    };
    // The table's one row is stored before the stream starts, so every s
    // row that reaches the join yields exactly one result.
    server.push("r", keyed_row(1)).unwrap();
    let stored = std::time::Instant::now();
    while server.join_state_rows(join) != Some(1) {
        assert!(stored.elapsed() < Duration::from_secs(10), "r never stored");
        std::thread::sleep(Duration::from_millis(1));
    }
    let n = 20_000;
    for ts in 1..=n {
        server.push("s", keyed_row(ts)).unwrap();
    }
    settle(&server);
    let got = server.fetch(client, 1_000_000).unwrap();
    let rows_of = |q| got.iter().filter(|(qid, _)| *qid == q).count() as i64;
    let shed = server.shed_count("s").unwrap();
    assert_eq!(
        rows_of(join) + shed,
        n,
        "every join copy is either answered or counted as shed"
    );
    assert_eq!(shed, 0, "back-pressure sheds no join copy");
    assert_eq!(
        rows_of(filter),
        n,
        "the stream's own filter query sheds nothing"
    );
    assert_eq!(server.shed_count("r").unwrap(), 0);
    server.shutdown().unwrap();
}

/// How the other side of a finished join is fed.
#[derive(Clone, Copy, Debug)]
enum OtherSide {
    /// `r` is a table holding one row.
    Table,
    /// `r` is a stream that delivers one row and then idles, never ending.
    IdleStream,
}

/// A join whose loop ends at `ST + 50` closes its input from `s` once `s`
/// passes its final window, while its other input stays open. The queue
/// nobody reads any more must not hold `s` back: a filter query on `s`
/// sees all of its 5 000 rows, and a checkpoint is not kept waiting for
/// the closed queue to empty. With a table on the other side the join
/// answers rows 1..=50 in full, at P = 4 too, where every row hashes to one
/// partition and no input ever ends.
fn a_finished_join_leaves_its_stream_flowing(partitions: usize, other: OtherSide) {
    const N: i64 = 5_000;
    let tag = format!("{other:?}-p{partitions}");
    let dir = std::env::temp_dir().join(format!("tcq-finished-join-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let server = std::sync::Arc::new(
        TelegraphCQ::start(Cfg {
            queue_capacity: 8,
            partitions,
            checkpoint_path: Some(dir.join("server.tcqk")),
            ..Cfg::default()
        })
        .unwrap(),
    );
    let keyed = Schema::new(vec![
        Field::new("ts", DataType::Int),
        Field::new("k", DataType::Int),
    ])
    .into_ref();
    server.register_stream("s", keyed.clone()).unwrap();
    let r_window = match other {
        OtherSide::Table => {
            server.register_table("r", keyed.clone()).unwrap();
            ""
        }
        OtherSide::IdleStream => {
            server.register_stream("r", keyed.clone()).unwrap();
            " WindowIs(r, t - 1000000, t);"
        }
    };
    let filter_client = server.connect_pull_client(2 * N as usize).unwrap();
    let join_client = server.connect_pull_client(2 * N as usize).unwrap();
    server.submit("SELECT ts FROM s", filter_client).unwrap();
    let join = server
        .submit(
            &format!(
                "SELECT s.ts FROM s, r WHERE s.k = r.k \
                 for (t = ST; t < ST + 50; t++) {{ WindowIs(s, t - 9, t);{r_window} }}"
            ),
            join_client,
        )
        .unwrap();
    let keyed_row = |ts: i64| {
        TupleBuilder::new(keyed.clone())
            .push(ts)
            .push(1i64)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    };
    server.push("r", keyed_row(1)).unwrap();
    if matches!(other, OtherSide::Table) {
        // `r`'s row must be in the join before `s`'s rows arrive: at P = 1
        // the SteM holds it; at P > 1 the partitioner has taken it, and it
        // reaches its worker ahead of every later row of its partition.
        let xchg_in = format!("xchg-in(q{join}.r)");
        let r_taken = || match partitions {
            1 => server.join_state_rows(join) == Some(1),
            _ => (server.progress_snapshot().expect("every server keeps one"))
                .channels
                .iter()
                .any(|c| c.name == xchg_in && c.dequeued >= 1),
        };
        let stored = std::time::Instant::now();
        while !r_taken() {
            assert!(
                stored.elapsed() < Duration::from_secs(10),
                "{tag}: r never stored"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Ingest runs on its own thread: a wedged stream blocks the pushes
    // once ingress fills, and the test must fail, not hang.
    let pusher = {
        let server = std::sync::Arc::clone(&server);
        let rows: Vec<Tuple> = (1..=N).map(keyed_row).collect();
        std::thread::spawn(move || {
            for row in rows {
                server.push("s", row).unwrap();
            }
        })
    };
    let started = std::time::Instant::now();
    let mut filtered = 0;
    while filtered < N as usize {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{tag}: the filter saw {filtered} of {N} rows; stream time {}",
            server.stream_time("s").unwrap()
        );
        filtered += server.fetch(filter_client, 2 * N as usize).unwrap().len();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(filtered, N as usize, "{tag}");
    pusher.join().unwrap();
    let started = std::time::Instant::now();
    server.checkpoint().unwrap();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "{tag}: checkpoint took {took:?}"
    );
    if matches!(other, OtherSide::Table) {
        // ST is 1 (the start time is at least 1), so the loop's last window
        // closes at 50: rows 1..=50 each meet r's one row, and the join
        // read none past them. The checkpoint drained a sequential join;
        // a partitioned one delivers each run once the partitioner quantum
        // that routed it ends, so its rows may still be on their way.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut joined = server.fetch(join_client, 2 * N as usize).unwrap().len();
        while partitions > 1 && joined < 50 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            joined += server.fetch(join_client, 2 * N as usize).unwrap().len();
        }
        assert_eq!(joined, 50, "{tag}");
    }
    match std::sync::Arc::try_unwrap(server) {
        Ok(server) => server.shutdown().unwrap(),
        Err(_) => panic!("{tag}: the pusher still holds the server"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_join_past_its_final_window_leaves_its_stream_flowing() {
    a_finished_join_leaves_its_stream_flowing(1, OtherSide::Table);
}

#[test]
fn a_join_past_its_final_window_leaves_its_stream_flowing_while_its_other_stream_idles() {
    a_finished_join_leaves_its_stream_flowing(1, OtherSide::IdleStream);
}

#[test]
fn a_partitioned_join_past_its_final_window_leaves_its_stream_flowing() {
    a_finished_join_leaves_its_stream_flowing(4, OtherSide::Table);
}

#[test]
fn backward_windows_browse_history() {
    // §4.1: "a browsing system where the user might want to query
    // historical portions of the stream using windows that move backwards
    // starting from the present time".
    let dir = std::env::temp_dir().join(format!("tcq-backward-{}", std::process::id()));
    let server = TelegraphCQ::start(Cfg {
        archive_dir: Some(dir.clone()),
        ..Cfg::default()
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();
    let s = schema();
    for ts in 1..=100 {
        server.push("s", row(&s, ts, ts as f64)).unwrap();
    }
    // Let the dispatcher archive everything.
    std::thread::sleep(Duration::from_millis(100));
    settle(&server);

    let client = server.connect_pull_client(4096).unwrap();
    // Three 10-wide hops backward from the present (ST = 100).
    server
        .submit(
            "SELECT ts, v FROM s \
             WHERE v > 95.0 OR v <= 75.0 \
             for (t = ST; t > ST - 30; t -=10) { WindowIs(s, t - 9, t); }",
            client,
        )
        .unwrap();
    let got = server.fetch(client, 4096).unwrap();
    // Windows: [91,100], [81,90], [71,80]. Predicate keeps v>95 (96..100)
    // and v<=75 (71..75) → 5 + 0 + 5 = 10 rows.
    assert_eq!(got.len(), 10);
    let mut seqs: Vec<i64> = got
        .iter()
        .map(|(_, t)| t.value(0).as_int().unwrap())
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![71, 72, 73, 74, 75, 96, 97, 98, 99, 100]);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn historical_windows_answer_aggregates_one_row_per_window() {
    // Snapshot and backward windows are answered from the archive; with
    // aggregates in the select list each window gives its `(t, aggs...)`
    // row, as a live window would, not the raw rows it covers.
    let dir = std::env::temp_dir().join(format!("tcq-backward-agg-{}", std::process::id()));
    let server = TelegraphCQ::start(Cfg {
        archive_dir: Some(dir.clone()),
        ..Cfg::default()
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();
    let s = schema();
    for ts in 1..=100 {
        server.push("s", row(&s, ts, ts as f64)).unwrap();
    }
    while server.archive_stats("s").unwrap().unwrap().appended < 100 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let client = server.connect_pull_client(4096).unwrap();
    server
        .submit(
            "SELECT COUNT(*), MAX(v) FROM s \
             for (t = ST; t > ST - 30; t -= 10) { WindowIs(s, t - 9, t); }",
            client,
        )
        .unwrap();
    let got: Vec<Vec<Value>> = (server.fetch(client, 4096).unwrap().into_iter())
        .map(|(_, t)| t.values().to_vec())
        .collect();
    let want: Vec<Vec<Value>> = [100, 90, 80]
        .into_iter()
        .map(|t| vec![Value::Int(t), Value::Int(10), Value::Float(t as f64)])
        .collect();
    assert_eq!(got, want, "one (t, count, max) row per backward window");

    server
        .submit(
            "SELECT COUNT(*) FROM s for (; t == 0; t = -1) { WindowIs(s, 1, 5); }",
            client,
        )
        .unwrap();
    let got = server.fetch(client, 4096).unwrap();
    assert_eq!(got.len(), 1, "a snapshot aggregate is one row");
    assert_eq!(got[0].1.values(), &[Value::Int(0), Value::Int(5)]);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

/// PSoup's disconnected clients (§3.2) on the server: each of K standing
/// windowed filter CQs has its own pull client, which reconnects at seeded
/// intervals. What it fetches from its ring must equal the same predicate
/// submitted afterwards as a new query over that span, which the archive
/// answers.
#[test]
fn fetched_answers_equal_their_recompute_from_the_archive() {
    const K: usize = 8;
    const HISTORY: i64 = 50;
    const ROWS: i64 = 400;
    let dir = std::env::temp_dir().join(format!("tcq-fetch-recompute-{}", std::process::id()));
    let server = TelegraphCQ::start(Cfg {
        archive_dir: Some(dir.clone()),
        ..Cfg::default()
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();
    let s = schema();
    let mut rng = telegraphcq::common::rng::seeded(0x5005);
    // Every row passes the clock's CQ: once it has row `ts`, so has every
    // ring, and the dispatcher archived the row before forwarding it.
    let clock = server.connect_pull_client(1 << 16).unwrap();
    server.submit("SELECT ts FROM s", clock).unwrap();
    let await_row = |ts: i64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let got = server.fetch(clock, usize::MAX).unwrap();
            if got.last().map(|(_, t)| t.value(0).as_int().unwrap()) == Some(ts) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "row {ts} never arrived"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    for ts in 1..=HISTORY {
        server
            .push("s", row(&s, ts, rng.gen_range(0.0..100.0)))
            .unwrap();
    }
    await_row(HISTORY);

    // (client, predicate, first row of the next span, rows between fetches)
    let mut cqs: Vec<(u64, String, i64, i64)> = (0..K)
        .map(|q| {
            let pred = format!("v >= {}.0 AND v < {}.0", q * 10, q * 10 + 25);
            let width = rng.gen_range(1..2 * HISTORY);
            let client = server.connect_pull_client(4096).unwrap();
            server
                .submit(
                    &format!(
                        "SELECT ts, v FROM s WHERE {pred} \
                         for (t = ST; t >= 0; t++) {{ WindowIs(s, t - {}, t); }}",
                        width - 1
                    ),
                    client,
                )
                .unwrap();
            let from = (HISTORY - width + 1).max(1);
            (client, pred, from, rng.gen_range(5..60))
        })
        .collect();

    let mut fetches = 0;
    for ts in HISTORY + 1..=ROWS {
        server
            .push("s", row(&s, ts, rng.gen_range(0.0..100.0)))
            .unwrap();
        let due: Vec<usize> = (0..K)
            .filter(|&q| ts == ROWS || (ts - HISTORY) % cqs[q].3 == 0)
            .collect();
        if due.is_empty() {
            continue;
        }
        await_row(ts);
        for q in due {
            let (client, pred, from, _) = &mut cqs[q];
            let fetched: Vec<Tuple> = (server.fetch(*client, 4096).unwrap())
                .into_iter()
                .map(|(_, t)| t)
                .collect();
            let again = server
                .submit(
                    &format!(
                        "SELECT ts, v FROM s WHERE {pred} \
                         for (; t == 0; t = -1) {{ WindowIs(s, {from}, {ts}); }}"
                    ),
                    *client,
                )
                .unwrap();
            let recomputed: Vec<Tuple> = (server.fetch(*client, 4096).unwrap())
                .into_iter()
                .map(|(qid, t)| {
                    assert_eq!(qid, again, "only the recompute has answered since");
                    t
                })
                .collect();
            server.stop_query(again).unwrap();
            assert_eq!(fetched, recomputed, "CQ {q} over [{from}, {ts}]");
            *from = ts + 1;
            fetches += 1;
        }
    }
    assert!(fetches > 4 * K, "only {fetches} fetches");
    assert_eq!(server.egress_stats_full().displaced, 0);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn historical_query_without_archive_errors() {
    let server = TelegraphCQ::start(Cfg::default()).unwrap();
    server.register_stream("s", schema()).unwrap();
    let client = server.connect_pull_client(64).unwrap();
    let err = server
        .submit(
            "SELECT ts FROM s for (; t==0; t = -1) { WindowIs(s, 1, 5); }",
            client,
        )
        .unwrap_err();
    assert!(err.to_string().contains("archive"));
    server.shutdown().unwrap();
}

#[test]
fn submit_error_surfaces() {
    let server = TelegraphCQ::start(Cfg::default()).unwrap();
    server.register_stream("s", schema()).unwrap();
    let client = server.connect_pull_client(64).unwrap();
    // parse error
    assert!(server.submit("SELEKT * FROM s", client).is_err());
    // unknown stream
    assert!(server.submit("SELECT * FROM nope", client).is_err());
    // unknown column
    assert!(server.submit("SELECT volume FROM s", client).is_err());
    // aggregates need windows
    assert!(server.submit("SELECT AVG(v) FROM s", client).is_err());
    // unknown client
    assert!(server.submit("SELECT * FROM s", 99_999).is_err());
    // duplicate stream registration
    assert!(server.register_stream("s", schema()).is_err());
    // stop unknown query
    assert!(server.stop_query(777).is_err());
    server.shutdown().unwrap();
}

#[test]
fn aggregate_windows_close_only_when_time_passes() {
    let server = TelegraphCQ::start(Cfg::default()).unwrap();
    server.register_stream("s", schema()).unwrap();
    let client = server.connect_pull_client(4096).unwrap();
    server
        .submit(
            "SELECT COUNT(*) FROM s \
             for (t = 10; t <= 40; t += 10) { WindowIs(s, t - 9, t); }",
            client,
        )
        .unwrap();
    let s = schema();
    // Push up to ts 25: only windows closing at 10 and 20 may emit.
    for ts in 1..=25 {
        server.push("s", row(&s, ts, 1.0)).unwrap();
    }
    settle(&server);
    let mid = server.fetch(client, 4096).unwrap();
    assert_eq!(mid.len(), 2, "windows ending 10 and 20 closed");
    // Continue to 45: windows at 30 and 40 close too; the loop ends.
    for ts in 26..=45 {
        server.push("s", row(&s, ts, 1.0)).unwrap();
    }
    settle(&server);
    let rest = server.fetch(client, 4096).unwrap();
    assert_eq!(rest.len(), 2);
    for (_, r) in mid.iter().chain(rest.iter()) {
        assert_eq!(
            r.value(1).as_int().unwrap(),
            10,
            "each window holds 10 tuples"
        );
    }
    server.shutdown().unwrap();
}

#[test]
fn landmark_aggregate_state_is_bounded_by_groups() {
    // The §4.1.2 memory story at the server level: a landmark COUNT is
    // computed iteratively; each emission covers [1, t].
    let server = TelegraphCQ::start(Cfg::default()).unwrap();
    server.register_stream("s", schema()).unwrap();
    let client = server.connect_pull_client(4096).unwrap();
    server
        .submit(
            "SELECT COUNT(*) FROM s \
             for (t = 5; t <= 25; t += 5) { WindowIs(s, 1, t); }",
            client,
        )
        .unwrap();
    let s = schema();
    for ts in 1..=30 {
        server.push("s", row(&s, ts, 1.0)).unwrap();
    }
    settle(&server);
    let got = server.fetch(client, 4096).unwrap();
    let counts: Vec<i64> = got
        .iter()
        .map(|(_, r)| r.value(1).as_int().unwrap())
        .collect();
    assert_eq!(counts, vec![5, 10, 15, 20, 25]);
    server.shutdown().unwrap();

    // Standing queries over one stream, checked after every round of
    // rows: landmark state stays at most two partials per group (the
    // closed prefix and the pane still filling) however many rows went
    // by, and a sliding window of 5 panes holds at most 6 per group.
    const GROUPS: i64 = 4;
    let server = TelegraphCQ::start(Cfg::default()).unwrap();
    server.register_stream("s", schema()).unwrap();
    let client = server.connect_pull_client(1 << 16).unwrap();
    let landmark = "for (t = 5; t >= 0; t += 5) { WindowIs(s, 1, t); }";
    let sliding = "for (t = 10; t >= 0; t += 10) { WindowIs(s, t - 49, t); }";
    let bounded = [
        (format!("SELECT COUNT(*), MAX(v) FROM s {landmark}"), 2),
        (
            format!("SELECT v, COUNT(*), MAX(ts) FROM s GROUP BY v {landmark}"),
            2 * GROUPS,
        ),
        (
            format!("SELECT v, MAX(ts) FROM s GROUP BY v {sliding}"),
            GROUPS * (5 + 1),
        ),
    ]
    .map(|(sql, bound)| (server.submit(&sql, client).unwrap(), bound as usize));
    let mut ts = 0;
    for round in 1..=8 {
        for _ in 0..round * 150 {
            ts += 1;
            server.push("s", row(&s, ts, (ts % GROUPS) as f64)).unwrap();
        }
        settle(&server);
        // A DU that lags behind the stream holds fewer partials, not more:
        // every run closes all the windows it can before it returns.
        for &(qid, bound) in &bounded {
            let entries = server.aggregate_state_entries(qid).unwrap();
            assert!(
                entries <= bound,
                "q{qid} holds {entries} partials after {ts} rows (bound {bound})"
            );
        }
    }
    server.finish_stream("s").unwrap();
    assert!(server.quiesce(Duration::from_secs(30)));
    let got = server.fetch(client, 1 << 16).unwrap();
    let landmark_counts: Vec<i64> = (got.iter())
        .filter(|(q, _)| *q == bounded[0].0)
        .map(|(_, r)| r.value(1).as_int().unwrap())
        .collect();
    let closed = (ts / 5) as usize;
    assert_eq!(landmark_counts.len(), closed, "one row per closed window");
    assert!(landmark_counts.iter().zip(1..).all(|(&n, i)| n == 5 * i));
    assert_eq!(server.aggregate_state_entries(9999), None);
    server.shutdown().unwrap();
}

#[test]
fn prioritized_client_sees_interesting_results_first() {
    // Juggle at the egress boundary (§4.3): a reconnecting analyst wants
    // the biggest readings first, not the oldest.
    let server = TelegraphCQ::start(Cfg::default()).unwrap();
    server.register_stream("s", schema()).unwrap();
    let client = server
        .connect_prioritized_client(
            5,
            Box::new(|t: &Tuple| t.value(1).as_float().unwrap_or(0.0)),
        )
        .unwrap();
    server.submit("SELECT ts, v FROM s", client).unwrap();
    let s = schema();
    for ts in 1..=100 {
        server
            .push("s", row(&s, ts, ((ts * 37) % 100) as f64))
            .unwrap();
    }
    settle(&server);
    let got = server.fetch(client, 10).unwrap();
    assert_eq!(got.len(), 5, "only the 5 best survive the bounded buffer");
    let vs: Vec<f64> = got
        .iter()
        .map(|(_, t)| t.value(1).as_float().unwrap())
        .collect();
    let mut sorted = vs.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert_eq!(vs, sorted, "best-first order");
    assert!(vs[0] >= 95.0, "the top readings were retained");
    server.shutdown().unwrap();
}
