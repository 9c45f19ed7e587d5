//! What one standing filter query costs, counted. A live-heap allocator
//! wraps the 10 000 standing CQs of the benchmark's `manycq_churn` workload
//! (8 000 `sym = i AND price > 500` and 2 000 two-sided price ranges over
//! one stream) and compares the heap each `submit` leaves behind with what
//! the server reports: `shared_memory_stats()` for the stream's shared
//! filter, plus `query_table_bytes()` for the query-id tables every query
//! kind keeps. The query SteM insert runs on the stream's dispatcher after
//! `submit` returns, so the counted region ends with a stat read, which
//! the dispatcher answers only after every submit's control. The
//! allocator is global, so this file is its own test binary.

use tcq_common::CountingAlloc;
use telegraphcq::prelude::*;

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc::new();

/// The benchmark workload's standing queries, in its submit order.
fn standing_cq_sql() -> Vec<String> {
    let sym = (0..8_000).map(|s| format!("SELECT seq FROM ticks WHERE sym = {s} AND price > 500"));
    let range = (0..2_000i64).map(|j| {
        let a = j * 500;
        format!(
            "SELECT seq FROM ticks WHERE price > {a} AND price < {}",
            a + 1_501
        )
    });
    sym.chain(range).collect()
}

fn filter_bytes(server: &TelegraphCQ) -> (usize, usize) {
    let stats = server.shared_memory_stats();
    let stat = stats
        .iter()
        .find(|s| s.label == "filter:ticks")
        .expect("the stream's shared filter reports a stat");
    (stat.queries, stat.approx_bytes)
}

#[test]
fn a_standing_filter_cq_costs_one_compact_entry() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let schema = Schema::new(
        ["sym", "price", "seq"]
            .map(|n| Field::new(n, DataType::Int))
            .to_vec(),
    )
    .into_ref();
    server.register_stream("ticks", schema).unwrap();
    let (client, _rx) = server.connect_push_client(16).unwrap();
    let queries = standing_cq_sql();
    let (_, empty) = filter_bytes(&server);
    let empty_tables = server.query_table_bytes();

    let before = HEAP.live_bytes();
    for sql in &queries {
        server.submit(sql, client).unwrap();
    }
    let _ = server.shared_memory_stats();
    let after = HEAP.live_bytes();

    let n = queries.len() as f64;
    let (standing, reported) = filter_bytes(&server);
    assert_eq!(standing, queries.len());
    let heap_per_submit = (after - before) as f64 / n;
    let reported_per_query = reported as f64 / n;
    let tables_growth = (server.query_table_bytes() - empty_tables) as f64 / n;
    let reported_growth = (reported - empty) as f64 / n + tables_growth;
    println!(
        "live heap per submit {heap_per_submit:.0} B, shared_memory_stats {reported_per_query:.0} \
         B/query, {reported_growth:.0} B reported per submit ({tables_growth:.0} B of it the \
         query-id tables)"
    );
    assert!(
        reported_per_query <= 250.0,
        "shared filter reports {reported_per_query:.0} B per query"
    );
    assert!(
        heap_per_submit <= 250.0,
        "each submit leaves {heap_per_submit:.0} B of live heap"
    );
    assert!(
        (heap_per_submit - reported_growth).abs() <= 0.25 * heap_per_submit,
        "reported {reported_growth:.0} B/query against {heap_per_submit:.0} B of live heap"
    );
    server.shutdown().unwrap();
}
