//! End-to-end runs of the four example queries of paper §4.1.1, verbatim,
//! over the `ClosingStockPrices` stream (experiment E12 in DESIGN.md).
//!
//! Prices are crafted deterministically so every assertion is exact:
//! MSFT closes at `40 + day` (crosses $50 at day 11), IBM closes at
//! `100 - day/10`.

use std::time::Duration;

use telegraphcq::prelude::*;

fn stock_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("timestamp", DataType::Int),
        Field::new("stockSymbol", DataType::Str),
        Field::new("closingPrice", DataType::Float),
    ])
    .into_ref()
}

fn tick(schema: &SchemaRef, day: i64, sym: &str, price: f64) -> Tuple {
    TupleBuilder::new(schema.clone())
        .push(day)
        .push(sym)
        .push(price)
        .at(Timestamp::logical(day))
        .build()
        .unwrap()
}

/// Feed `days` trading days of the deterministic market.
fn feed_market(server: &TelegraphCQ, days: i64) {
    let schema = stock_schema();
    for day in 1..=days {
        server
            .push(
                "ClosingStockPrices",
                tick(&schema, day, "MSFT", 40.0 + day as f64),
            )
            .unwrap();
        server
            .push(
                "ClosingStockPrices",
                tick(&schema, day, "IBM", 100.0 - day as f64 / 10.0),
            )
            .unwrap();
    }
}

fn archived_server() -> TelegraphCQ {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tcq-paper-queries-{}-{n}", std::process::id()));
    let server = TelegraphCQ::start(ServerConfig {
        archive_dir: Some(dir),
        ..ServerConfig::default()
    })
    .unwrap();
    server
        .register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    server
}

/// Wait until the executor has drained the given stream's pipeline: push a
/// sentinel-free check by polling stream time and egress stability.
fn settle(server: &TelegraphCQ) {
    // The dispatcher and query DUs run asynchronously; wait until egress
    // deliveries stop changing.
    let mut last = server.egress_stats_full();
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(5));
        let now = server.egress_stats_full();
        if now == last {
            return;
        }
        last = now;
    }
}

#[test]
fn example1_snapshot_query() {
    // "Select the closing prices for MSFT on the first five days of
    // trading."
    let server = archived_server();
    feed_market(&server, 50);
    // Let the dispatcher archive everything before asking for history.
    std::thread::sleep(Duration::from_millis(50));
    settle(&server);

    let client = server.connect_pull_client(1024).unwrap();
    let qid = server
        .submit(
            "SELECT closingPrice, timestamp \
             FROM ClosingStockPrices \
             WHERE stockSymbol = 'MSFT' \
             for (; t==0; t = -1 ){ \
                 WindowIs(ClosingStockPrices, 1, 5); \
             }",
            client,
        )
        .unwrap();
    // Historical queries complete synchronously.
    let results = server.fetch(client, 1024).unwrap();
    assert_eq!(results.len(), 5, "five MSFT closes in days 1-5");
    for (i, (q, t)) in results.iter().enumerate() {
        assert_eq!(*q, qid);
        let day = (i + 1) as f64;
        assert_eq!(t.value(0).as_float().unwrap(), 40.0 + day);
        assert_eq!(t.value(1).as_int().unwrap(), i as i64 + 1);
    }
    server.shutdown().unwrap();
}

#[test]
fn example2_landmark_query() {
    // "Select all the days after the hundredth trading day, on which the
    // closing price of MSFT has been greater than $50" — scaled down to
    // day 20 / 200 days so the test is fast: window [21, t], t = 21..=200.
    let server = archived_server();
    let client = server.connect_pull_client(4096).unwrap();
    let qid = server
        .submit(
            "SELECT closingPrice, timestamp \
             FROM ClosingStockPrices \
             WHERE stockSymbol = 'MSFT' and closingPrice > 50.00 \
             for (t = 21; t <= 200; t++ ){ \
                 WindowIs(ClosingStockPrices, 21, t); \
             }",
            client,
        )
        .unwrap();
    feed_market(&server, 60);
    std::thread::sleep(Duration::from_millis(50));
    settle(&server);

    let results = server.fetch(client, 4096).unwrap();
    // MSFT price 40+day > 50 ⇔ day >= 11, and the window floor is day 21:
    // qualifying days are 21..=60.
    assert_eq!(results.len(), 40, "days 21..=60 qualify");
    for (q, t) in &results {
        assert_eq!(*q, qid);
        let day = t.value(1).as_int().unwrap();
        assert!(
            (21..=60).contains(&day),
            "day {day} outside the landmark window"
        );
        assert!(t.value(0).as_float().unwrap() > 50.0);
    }
    server.shutdown().unwrap();
}

#[test]
fn example3_sliding_avg_query() {
    // "On every fifth trading day starting today, calculate the average
    // closing price of MSFT for the five most recent trading days."
    let server = archived_server();
    let client = server.connect_pull_client(1024).unwrap();
    let qid = server
        .submit(
            "Select AVG(closingPrice) \
             From ClosingStockPrices \
             Where stockSymbol = 'MSFT' \
             for (t = ST; t < ST + 50; t +=5 ){ \
                 WindowIs(ClosingStockPrices, t - 4, t); \
             }",
            client,
        )
        .unwrap();
    feed_market(&server, 60);
    std::thread::sleep(Duration::from_millis(50));
    settle(&server);

    let results = server.fetch(client, 1024).unwrap();
    // ST = 1 (stream had not started when the query arrived): windows
    // [t-4, t] for t = 1, 6, 11, ..., 46 — ten windows.
    assert_eq!(results.len(), 10);
    for (q, row) in &results {
        assert_eq!(*q, qid);
        let t = row.value(0).as_int().unwrap();
        // AVG over days [max(t-4, 1), t] of (40 + day).
        let lo = (t - 4).max(1);
        let expect: f64 = (lo..=t).map(|d| 40.0 + d as f64).sum::<f64>() / (t - lo + 1) as f64;
        let got = row.value(1).as_float().unwrap();
        assert!(
            (got - expect).abs() < 1e-9,
            "window ending {t}: got {got}, want {expect}"
        );
    }
    server.shutdown().unwrap();
}

/// A loop too long to run is still finite: the query must retire at its
/// exact final window, not be mistaken for a continuous query (planning
/// used to iterate the loop and give up after 10^6 windows).
#[test]
fn band_join_over_a_billion_windows_still_retires_on_time() {
    let server = archived_server();
    let client = server.connect_pull_client(4096).unwrap();
    server
        .submit(
            "Select c2.* \
             FROM ClosingStockPrices as c1, ClosingStockPrices as c2 \
             WHERE c1.stockSymbol = 'MSFT' and \
                   c2.stockSymbol != 'MSFT' and \
                   c2.timestamp = c1.timestamp \
             for (t = ST; t < ST + 1000000000; t++ ){ \
                 WindowIs(c1, t - 4, t); \
                 WindowIs(c2, t - 4, t); \
             }",
            client,
        )
        .unwrap();
    // ST = 1: the last window closes at day 10^9. Three days at the start,
    // the last two days of the loop, then three days past its end.
    let schema = stock_schema();
    let days = [1, 2, 3, 999_999_999, 1_000_000_000];
    for day in days.into_iter().chain(1_000_000_001..=1_000_000_003) {
        for (sym, price) in [("MSFT", 50.0), ("IBM", 90.0)] {
            server
                .push("ClosingStockPrices", tick(&schema, day, sym, price))
                .unwrap();
        }
    }
    std::thread::sleep(Duration::from_millis(50));
    settle(&server);
    let results = server.fetch(client, 4096).unwrap();
    let mut matched: Vec<i64> = results
        .iter()
        .map(|(_, row)| row.value(0).as_int().unwrap())
        .collect();
    matched.sort_unstable();
    assert_eq!(matched, days, "one match per day the query stood for");
    server.shutdown().unwrap();
}

#[test]
fn example4_temporal_band_join() {
    // "For the five most recent trading days starting today, select all
    // stocks that closed higher than MSFT on a given day."
    let server = archived_server();
    let client = server.connect_pull_client(4096).unwrap();
    let qid = server
        .submit(
            "Select c2.* \
             FROM ClosingStockPrices as c1, ClosingStockPrices as c2 \
             WHERE c1.stockSymbol = 'MSFT' and \
                   c2.stockSymbol != 'MSFT' and \
                   c2.closingPrice > c1.closingPrice and \
                   c2.timestamp = c1.timestamp \
             for (t = ST; t < ST +20 ; t++ ){ \
                 WindowIs(c1, t - 4, t); \
                 WindowIs(c2, t - 4, t); \
             }",
            client,
        )
        .unwrap();
    feed_market(&server, 60);
    std::thread::sleep(Duration::from_millis(50));
    settle(&server);

    let results = server.fetch(client, 4096).unwrap();
    // IBM (100 - day/10) closes above MSFT (40 + day) while day < 54.5,
    // but the query only stands "for twenty trading days": ST = 1, so the
    // final window closes at day 20 and the query retires. One (c1=MSFT,
    // c2=IBM) match per day in 1..=20.
    assert_eq!(
        results.len(),
        20,
        "the query stands for twenty trading days"
    );
    for (q, row) in &results {
        assert_eq!(*q, qid);
        // c2.* = (timestamp, stockSymbol, closingPrice) of the non-MSFT row
        assert_eq!(row.arity(), 3);
        assert_eq!(row.value(1).as_str().unwrap(), "IBM");
        let day = row.value(0).as_int().unwrap();
        assert!((1..=20).contains(&day));
    }
    server.shutdown().unwrap();
}
