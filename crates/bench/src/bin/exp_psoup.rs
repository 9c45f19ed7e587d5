//! Experiments E5 + F3 (DESIGN.md): PSoup's materialized results vs
//! recompute-on-connect (§3.2, \[CF02\]), measured on the server.
//!
//! `QUERIES` standing windowed filter CQs run on one `TelegraphCQ` with an
//! archive, each on its own pull client. The egress ring of a pull client is
//! PSoup's Results Structure: it holds the CQ's answer while the client is
//! away. The stream starts with `WINDOW` rows of history and each CQ's first
//! window reaches all of them, so its first answer comes from the archive
//! ("new queries applied to old data"). Every `period` rows each client
//! reconnects:
//!
//! * **fetch** — it reads its materialized answer from the ring;
//! * **recompute** — the baseline: the same predicate, submitted again as a
//!   snapshot query over the span the fetch covered, which the archive
//!   answers by scanning every row of the span. The query is stopped once
//!   it has answered.
//!
//! Both answers must be identical, and no ring may rotate an answer out
//! (`displaced == 0`). The claim is a count: rows the fetch returned against
//! archived rows the recompute scanned. Times are printed, not gated.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_psoup [-- --smoke]
//! ```
//!
//! `--smoke` runs a reduced scale; its gates are the two counts above.

use std::time::{Duration, Instant};

use tcq_bench::{kv, kv_schema, timed, Table};
use tcq_common::rng::seeded;
use tcq_egress::ClientId;
use tcq_server::{ServerConfig, TelegraphCQ};

const QUERIES: usize = 64;

/// Rows of history before the CQs start, and the width of their windows.
const WINDOW: i64 = 1_000;

/// CQ `q`'s predicate: a 100-wide band of `v`.
fn band(q: usize) -> String {
    let lo = (q as i64 * 17) % 900;
    format!("v >= {lo} AND v < {}", lo + 100)
}

/// The rows a delivery list carries, as `(k, v)`.
fn rows(deliveries: &[(usize, tcq_common::Tuple)]) -> Vec<(i64, i64)> {
    (deliveries.iter())
        .map(|(_, t)| (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap()))
        .collect()
}

/// Block until `clock` — a pull client whose CQ passes every row — has
/// received row `seq`. The shared filter hands each batch to egress in one
/// session, so every CQ's rows up to `seq` are then in its ring, and the
/// dispatcher archived them before it forwarded them.
fn await_row(server: &TelegraphCQ, clock: ClientId, seq: i64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let got = server.fetch(clock, usize::MAX).unwrap();
        if got.last().map(|(_, t)| t.value(0).as_int().unwrap()) == Some(seq) {
            return;
        }
        assert!(Instant::now() < deadline, "row {seq} never reached egress");
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[derive(Default)]
struct Outcome {
    fetches: u64,
    fetched: u64,
    scanned: u64,
    fetch_us: u64,
    recompute_us: u64,
}

fn run(stream: i64, period: i64) -> Outcome {
    let dir = std::env::temp_dir().join(format!("tcq-exp-psoup-{}-{period}", std::process::id()));
    let server = TelegraphCQ::start(ServerConfig {
        archive_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let schema = kv_schema("S");
    server.register_stream("S", schema.clone()).unwrap();
    let clock = server.connect_pull_client(1 << 20).unwrap();
    server.submit("SELECT k FROM S", clock).unwrap();

    // Row `i` is `(k = i, v)` at logical time `i`.
    let mut rng = seeded(41);
    let mut next = 1i64;
    let mut push_until = |server: &TelegraphCQ, last: i64| {
        let batch: Vec<_> = (next..=last)
            .map(|i| kv(&schema, i, rng.gen_range(0..1000), i))
            .collect();
        server.push_batch("S", batch).unwrap();
        next = last + 1;
        await_row(server, clock, last);
    };
    push_until(&server, WINDOW);

    // A ring holds every row of a span, matching or not.
    let capacity = (WINDOW + period) as usize;
    let cqs: Vec<(ClientId, usize)> = (0..QUERIES)
        .map(|q| {
            let client = server.connect_pull_client(capacity).unwrap();
            let sql = format!(
                "SELECT k, v FROM S WHERE {} \
                 for (t = ST; t >= 0; t++) {{ WindowIs(S, t - {}, t); }}",
                band(q),
                WINDOW - 1
            );
            (client, server.submit(&sql, client).unwrap())
        })
        .collect();

    let mut out = Outcome::default();
    let mut from = 1i64;
    let mut now = WINDOW;
    while now < stream {
        now = (now + period).min(stream);
        push_until(&server, now);
        for (q, &(client, qid)) in cqs.iter().enumerate() {
            let (materialized, us) = timed(|| server.fetch(client, capacity).unwrap());
            out.fetch_us += us;
            assert!(materialized.iter().all(|(id, _)| *id == qid));

            let sql = format!(
                "SELECT k, v FROM S WHERE {} \
                 for (; t == 0; t = -1) {{ WindowIs(S, {from}, {now}); }}",
                band(q)
            );
            let (recomputed, us) = timed(|| {
                let again = server.submit(&sql, client).unwrap();
                let answer = server.fetch(client, capacity).unwrap();
                server.stop_query(again).unwrap();
                assert!(answer.iter().all(|(id, _)| *id == again));
                answer
            });
            out.recompute_us += us;
            assert_eq!(
                rows(&materialized),
                rows(&recomputed),
                "CQ {q}: the ring's answer over [{from}, {now}] differs from its recompute"
            );
            out.fetches += 1;
            out.fetched += materialized.len() as u64;
            out.scanned += (now - from + 1) as u64;
        }
        from = now + 1;
    }
    let displaced = server.egress_stats_full().displaced;
    assert_eq!(displaced, 0, "a ring rotated out part of an answer");
    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (stream, periods): (i64, &[i64]) = if smoke {
        (4_000, &[250, 1_000])
    } else {
        (50_000, &[100, 500, 5_000])
    };
    println!(
        "E5/F3 — PSoup on the server: ring fetch (materialized) vs archive recompute,\n\
         {QUERIES} standing windowed filter CQs started over {WINDOW} rows of history,\n\
         {stream}-row stream, clients reconnect every `period` rows\n"
    );
    let mut table = Table::new(&[
        "period",
        "fetches",
        "rows fetched",
        "rows scanned",
        "scanned/fetched",
        "fetch us/op",
        "recompute us/op",
    ]);
    for &period in periods {
        let o = run(stream, period);
        table.row(vec![
            period.to_string(),
            o.fetches.to_string(),
            o.fetched.to_string(),
            o.scanned.to_string(),
            format!("{:.1}", o.scanned as f64 / o.fetched.max(1) as f64),
            format!("{:.1}", o.fetch_us as f64 / o.fetches as f64),
            format!("{:.1}", o.recompute_us as f64 / o.fetches as f64),
        ]);
    }
    table.print();
    println!(
        "\n  shape check ([CF02] Fig. 9 analogue): a fetch returns only the CQ's\n\
         \x20 answer, already materialized in its ring, while the recompute scans\n\
         \x20 every archived row of the span; each fetch equals its recompute and\n\
         \x20 no ring displaced a row.\n"
    );
}
