//! Experiments F4/F5 + E11 (DESIGN.md): the TelegraphCQ process
//! architecture under churn — queries added and removed while streams flow
//! (Figure 5's QPQueue path), and footprint classes isolating disjoint
//! workloads across Execution Objects (§4.2.2).
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_dynamic_queries
//! ```

use std::time::{Duration, Instant};

use tcq_bench::Table;
use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, TupleBuilder};
use tcq_server::{ServerConfig, TelegraphCQ};

fn sensor_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("ts", DataType::Int),
        Field::new("sensorId", DataType::Int),
        Field::new("temperature", DataType::Float),
    ])
    .into_ref()
}

fn settle(server: &TelegraphCQ) {
    let mut last = server.egress_stats_full();
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let now = server.egress_stats_full();
        if now == last {
            return;
        }
        last = now;
    }
}

/// Throughput of a stream's shared filter pass as standing-query count grows.
fn experiment_throughput_vs_queries() {
    println!("F4 — ingest throughput as standing queries accumulate (one stream)\n");
    let mut table = Table::new(&["queries", "tuples", "ingest+process ms", "Ktuples/s"]);
    for n_queries in [1usize, 16, 64, 256] {
        let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
        server.register_stream("sensors", sensor_schema()).unwrap();
        let client = server.connect_pull_client(16).unwrap(); // tiny: we shed, we measure engine cost
        for q in 0..n_queries {
            server
                .submit(
                    &format!(
                        "SELECT ts FROM sensors WHERE temperature > {}.0 AND temperature < {}.0",
                        q,
                        q + 2
                    ),
                    client,
                )
                .unwrap();
        }
        let schema = sensor_schema();
        let n_tuples = 40_000i64;
        let start = Instant::now();
        for ts in 1..=n_tuples {
            let t = TupleBuilder::new(schema.clone())
                .push(ts)
                .push(ts % 16)
                .push((ts % 300) as f64)
                .at(Timestamp::logical(ts))
                .build()
                .unwrap();
            server.push("sensors", t).unwrap();
        }
        settle(&server);
        let ms = start.elapsed().as_millis().max(1);
        table.row(vec![
            n_queries.to_string(),
            n_tuples.to_string(),
            ms.to_string(),
            format!("{:.0}", n_tuples as f64 / ms as f64),
        ]);
        server.shutdown().unwrap();
    }
    table.print();
    println!(
        "\n  shape check: with grouped-filter sharing, throughput degrades only\n\
         \x20 gently with query count — the engine does one shared pass per tuple,\n\
         \x20 not one pass per query.\n"
    );
}

/// Query churn: add/remove queries while the stream flows; the engine keeps
/// serving without restarts (Figure 5's dynamic fold-in).
fn experiment_churn() {
    println!("F5 — query churn under continuous load\n");
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("sensors", sensor_schema()).unwrap();
    let schema = sensor_schema();
    let client = server.connect_pull_client(1_000_000).unwrap();

    let mut active: Vec<usize> = Vec::new();
    let mut submitted = 0u64;
    let mut removed = 0u64;
    let start = Instant::now();
    for round in 0..50i64 {
        // churn: add 4, remove 2
        for _ in 0..4 {
            let q = server
                .submit("SELECT ts FROM sensors WHERE temperature > 100.0", client)
                .unwrap();
            active.push(q);
            submitted += 1;
        }
        for _ in 0..2 {
            if let Some(q) = active.first().copied() {
                active.remove(0);
                server.stop_query(q).unwrap();
                removed += 1;
            }
        }
        for i in 0..400i64 {
            let ts = round * 400 + i + 1;
            let t = TupleBuilder::new(schema.clone())
                .push(ts)
                .push(0i64)
                .push(150.0)
                .at(Timestamp::logical(ts))
                .build()
                .unwrap();
            server.push("sensors", t).unwrap();
        }
    }
    settle(&server);
    let ledger = server.egress_stats_full();
    let (delivered, lost) = (
        ledger.delivered,
        ledger.shed + ledger.displaced + ledger.disconnected_loss,
    );
    println!(
        "  {} queries submitted, {} removed, {} standing at the end",
        submitted,
        removed,
        active.len()
    );
    println!(
        "  {} results delivered ({} lost) in {} ms — no restarts, no stalls",
        delivered,
        lost,
        start.elapsed().as_millis()
    );
    server.shutdown().unwrap();
}

/// Footprint classes: queries over disjoint streams land on different EOs.
fn experiment_classes() {
    println!("\nE11 — footprint classes spread disjoint workloads over EOs\n");
    let server = TelegraphCQ::start(ServerConfig {
        eos: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    for i in 0..4 {
        server
            .register_stream(&format!("stream{i}"), sensor_schema())
            .unwrap();
    }
    let stats = server.executor_stats();
    println!(
        "  4 disjoint streams → DUs per EO: {:?} (each stream's dispatcher, which\n\
         \x20 runs its filter and aggregate queries, is one DU; streams spread across EOs)",
        stats.dus_per_eo
    );
    server.shutdown().unwrap();
}

fn main() {
    experiment_throughput_vs_queries();
    experiment_churn();
    experiment_classes();
}
