//! What a windowed join keeps: its SteMs store only the rows the query's
//! own source predicate admits, and the window slides on every row of the
//! stream — stored or not.

use std::time::{Duration, Instant};

use telegraphcq::prelude::*;

fn int_schema(names: &[&str]) -> SchemaRef {
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(*n, DataType::Int))
            .collect(),
    )
    .into_ref()
}

fn int_row(schema: &SchemaRef, values: &[i64], ts: i64) -> Tuple {
    let b = values
        .iter()
        .fold(TupleBuilder::new(schema.clone()), |b, &v| b.push(v));
    b.at(Timestamp::logical(ts)).build().unwrap()
}

/// A server without the liveness watchdog: its progress registry still
/// reads every fjord's counts.
fn start() -> TelegraphCQ {
    TelegraphCQ::start(ServerConfig::default()).unwrap()
}

/// Wait until query `qid`'s join DU has taken `rows` tuples off its input
/// fjord for `stream`, then return the rows its SteMs hold. The DU holds
/// its eddy's lock from dequeuing a batch until the batch is routed, so
/// once the dequeue count is reached, reading the state waits for it.
fn state_after_input(server: &TelegraphCQ, qid: usize, stream: &str, rows: u64) -> usize {
    let channel = format!("join(q{qid}.{stream})");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = server.progress_snapshot().expect("every server keeps one");
        let dequeued = snap
            .channels
            .iter()
            .find(|c| c.name == channel)
            .map_or(0, |c| c.dequeued);
        if dequeued >= rows {
            return server.join_state_rows(qid).expect("a sequential join");
        }
        assert!(
            Instant::now() < deadline,
            "{channel} dequeued {dequeued} of {rows}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The stream's newest rows all fail `s.f < 50`. They store nothing, but
/// they are still stream time: the ten-tick window ends at the newest row
/// (30), so of the passing rows 15–22 only 21 and 22 are in it. A table
/// row arriving afterwards must join exactly those — a SteM that let only
/// stored rows move its window would still hold 15–20 and join them too.
#[test]
fn a_late_table_row_joins_only_rows_still_in_the_window_that_filtered_rows_moved() {
    let server = start();
    let (s, d) = (int_schema(&["k", "f"]), int_schema(&["id", "tag"]));
    server.register_stream("s", s.clone()).unwrap();
    server.register_table("d", d.clone()).unwrap();
    let client = server.connect_pull_client(4096).unwrap();
    let qid = server
        .submit(
            "SELECT s.k, d.tag FROM s s, d d WHERE s.k = d.id AND s.f < 50 \
             for (t = ST; t >= 0; t++) { WindowIs(s, t - 9, t); }",
            client,
        )
        .unwrap();

    let stream: Vec<Tuple> = (15..=30)
        .map(|ts| int_row(&s, &[ts, if ts <= 22 { 0 } else { 99 }], ts))
        .collect();
    server.push_batch("s", stream).unwrap();
    assert_eq!(
        state_after_input(&server, qid, "s", 16),
        2,
        "the window [21, 30] holds passing rows 21 and 22 only"
    );

    for id in 1..=30 {
        server
            .push("d", int_row(&d, &[id, 100 + id], 100 + id))
            .unwrap();
    }
    assert_eq!(
        state_after_input(&server, qid, "d", 30),
        32,
        "the table's 30 rows join the window's 2"
    );
    let mut got: Vec<(i64, i64)> = server
        .fetch(client, 4096)
        .unwrap()
        .iter()
        .map(|(_, t)| (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap()))
        .collect();
    got.sort_unstable();
    assert_eq!(got, vec![(21, 121), (22, 122)]);
    server.shutdown().unwrap();
}

/// The benchmark's windowed join (`join_inproc`): half its stream rows pass
/// `s.f < 50`, and the SteM holds exactly the passing rows of the last
/// 65 537 ticks — half a window, not a window.
#[test]
fn the_benchmark_join_stores_only_the_passing_half_of_its_window() {
    const ROWS: i64 = 70_000;
    const WIDTH: i64 = 65_537;
    let server = start();
    let s = int_schema(&["k", "v", "f"]);
    server.register_stream("s", s.clone()).unwrap();
    server
        .register_table("dim", int_schema(&["id", "tag"]))
        .unwrap();
    let client = server.connect_pull_client(16).unwrap();
    let qid = server
        .submit(
            "SELECT s.v, d.tag FROM s s, dim d WHERE s.k = d.id AND s.f < 50 \
             for (t = ST; t >= 0; t++) { WindowIs(s, t - 65536, t); }",
            client,
        )
        .unwrap();
    let rows: Vec<Tuple> = (1..=ROWS)
        .map(|i| int_row(&s, &[i % 1024, i, i % 100], i))
        .collect();
    for chunk in rows.chunks(1024) {
        server.push_batch("s", chunk.to_vec()).unwrap();
    }
    let window = ROWS - WIDTH + 1..=ROWS;
    let passing = window.filter(|i| i % 100 < 50).count();
    assert!(
        (2 * passing).abs_diff(WIDTH as usize) < 100,
        "half, to a period"
    );
    assert_eq!(state_after_input(&server, qid, "s", ROWS as u64), passing);
    server.shutdown().unwrap();
}

/// A partitioned join's state is its partitions' together: at P = 4 the
/// four cores hold exactly the rows the one core holds at P = 1 for the
/// same input, in less than twice its bytes. Read while the DUs run: one
/// that has gone holds nothing.
#[test]
fn a_partitioned_join_holds_what_the_one_core_holds() {
    let s = int_schema(&["k", "f"]);
    let d = int_schema(&["id", "tag"]);
    let passing = (1001..=2000).filter(|i| i % 100 < 50).count();
    let figures = [1, 4].map(|partitions| {
        let server = TelegraphCQ::start(ServerConfig {
            partitions,
            ..ServerConfig::default()
        })
        .unwrap();
        server.register_stream("s", s.clone()).unwrap();
        server.register_table("d", d.clone()).unwrap();
        let client = server.connect_pull_client(16).unwrap();
        let qid = server
            .submit(
                "SELECT s.k, d.tag FROM s s, d d WHERE s.k = d.id AND s.f < 50 \
                 for (t = ST; t >= 0; t++) { WindowIs(s, t - 999, t); }",
                client,
            )
            .unwrap();
        let rows = (1..=2000).map(|i| int_row(&s, &[i % 64, i % 100], i));
        server.push_batch("s", rows.collect()).unwrap();
        let table = (0..64).map(|id| int_row(&d, &[id, id], id + 1));
        server.push_batch("d", table.collect()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut rows = server.join_state_rows(qid).unwrap();
        while rows != passing + 64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
            rows = server.join_state_rows(qid).unwrap();
        }
        let figure = (rows, server.join_state_bytes(qid).unwrap());
        server.shutdown().unwrap();
        figure
    });
    assert_eq!(
        figures[0].0,
        passing + 64,
        "the window's passing rows and the table"
    );
    assert_eq!(figures[1].0, figures[0].0, "P = 4 holds what P = 1 holds");
    // Each of the four cores' SteMs has its own containers: 66 240 B
    // against 105 728 B when this was written.
    assert!(
        figures[0].1 < figures[1].1 && figures[1].1 < 2 * figures[0].1,
        "bytes: {figures:?}"
    );
}
