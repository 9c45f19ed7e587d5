//! What admitting a standing query costs the allocator, counted. With the
//! first 1 000 of the benchmark's `manycq_churn` queries standing on one
//! stream, each of its query shapes is submitted again — a `sym = i AND
//! price > 500` filter, a two-sided price range, and a churned `sym` the
//! stream never carries — and then stopped, under a counting allocator.
//!
//! `submit` lexes, parses and analyzes the text, plans the filter and
//! inserts it into the stream's query SteM. Before the front end and the
//! filter planner stopped copying, that was 92 allocations per submit (91
//! for a range): lexer 11, parser 21, analyzer 43, qualifier stripping 11,
//! query SteM ≈ 3, the rest ≈ 3. It is 27 now (26 for a range): lexer 1,
//! parser 12, analyzer 12, query SteM 2. `stop_query` made 2 then: it
//! named the query's checkpoint handle to drop it, also on a server with
//! no checkpoint store. It makes none now. The allocator is global, so
//! this file is its own test binary.
//!
//! The query SteM insert and removal run on the stream's dispatcher, which
//! applies the control `submit` or `stop_query` queued for it after the
//! call returns. So each counted region ends with a stat read, which the
//! dispatcher answers only after every control queued before it: the
//! region holds the whole admission or removal. The read's own
//! allocations, counted alone beside each sample, are taken off.

use tcq_common::CountingAlloc;
use telegraphcq::prelude::*;

#[global_allocator]
static ALLOCS: CountingAlloc = CountingAlloc::new();

/// Allocations one standing submit may make.
const SUBMIT_BUDGET: u64 = 35;
/// Allocations one `stop_query` of a standing filter may make: none.
const STOP_BUDGET: u64 = 0;
/// Samples per shape; the median is compared, so a hash table growing
/// under one sample or a background thread's allocation does not count.
const SAMPLES: usize = 7;

fn sym_sql(s: i64) -> String {
    format!("SELECT seq FROM ticks WHERE sym = {s} AND price > 500")
}

fn range_sql(j: i64) -> String {
    let a = j * 500;
    format!(
        "SELECT seq FROM ticks WHERE price > {a} AND price < {}",
        a + 1_501
    )
}

/// A stat read queued behind every control sent to the stream before it.
fn settle(server: &TelegraphCQ) {
    let _ = server.shared_memory_stats();
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

#[test]
fn a_standing_submit_makes_at_most_35_allocations() {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let schema = Schema::new(
        ["sym", "price", "seq"]
            .map(|n| Field::new(n, DataType::Int))
            .to_vec(),
    )
    .into_ref();
    server.register_stream("ticks", schema).unwrap();
    let (client, _rx) = server.connect_push_client(16).unwrap();
    for sql in (0..800).map(sym_sql).chain((0..200).map(range_sql)) {
        server.submit(&sql, client).unwrap();
    }
    settle(&server);

    for shape in ["sym", "range", "churn"] {
        let (mut submits, mut stops) = (Vec::new(), Vec::new());
        for i in 0..SAMPLES as i64 {
            let sql = match shape {
                "sym" => sym_sql(800 + i),
                "range" => range_sql(200 + i),
                _ => sym_sql(1_000_000 + i),
            };
            let (read, ()) = ALLOCS.count(|| settle(&server));
            let (n, qid) = ALLOCS.count(|| {
                let qid = server.submit(&sql, client).unwrap();
                settle(&server);
                qid
            });
            submits.push(n.saturating_sub(read));
            let (n, stopped) = ALLOCS.count(|| {
                let stopped = server.stop_query(qid);
                settle(&server);
                stopped
            });
            stopped.unwrap();
            stops.push(n.saturating_sub(read));
        }
        println!("{shape}: submit allocations {submits:?}, stop allocations {stops:?}");
        let (submit, stop) = (median(submits), median(stops));
        assert!(
            submit <= SUBMIT_BUDGET,
            "a {shape} submit makes {submit} allocations (budget {SUBMIT_BUDGET})"
        );
        assert_eq!(
            stop, STOP_BUDGET,
            "a {shape} stop_query makes {stop} allocations"
        );
    }
    assert_eq!(server.query_count(), 1_000);
    server.shutdown().unwrap();
}
