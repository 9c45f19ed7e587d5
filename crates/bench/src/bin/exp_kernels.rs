//! Experiment E-kernels (DESIGN.md "One join hot path"): the same
//! end-to-end select-project-join pipeline as E-throughput, run at the
//! batched sweet spot (K = 64) on the server's one hot path.
//!
//! WHERE-clause predicates are lowered to flat bytecode kernels
//! ([`tcq_common::kernel`]) wherever their shape allows, join keys are
//! FNV-hashed once per tuple at ingress and the memo reused by every SteM
//! build and probe, and each ingress batch becomes one
//! [`tcq_common::ColumnBatch`]: vectorized predicate/probe/project kernels
//! over contiguous buffers, and whole-batch egress to a column client —
//! no per-row tuple is materialized anywhere past the conversion edge.
//!
//! The query carries a deliberately predicate-heavy WHERE clause — twelve
//! single-column comparisons plus one cross-source band factor — so
//! predicate evaluation is a realistic fraction of per-tuple cost, as in
//! the CACQ/PSoup workloads where every tuple faces many standing
//! filters.
//!
//! Claims demonstrated:
//!
//! * the allocator is hit a bounded number of times per delivered tuple,
//!   reported as `allocs/tuple` — near the bench's own tuple-building
//!   floor (batch-amortized pipeline, zero per-row egress);
//! * every admitted tuple is delivered.
//!
//! Until PR 21 this binary A/B'd three configurations (interpreted row,
//! compiled row, compiled columnar); `BENCH_kernels.json` keeps that
//! sweep as the historical record and is no longer rewritten.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_kernels [-- --smoke]
//! ```
//!
//! `--smoke` runs a reduced workload and exits non-zero if the
//! allocs-per-tuple budget is blown — the count tripwire `scripts/ci.sh`
//! relies on (full mode checks it too).

use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use tcq_bench::Table;
use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder};
use tcq_egress::ColumnDelivery;
use tcq_server::{ServerConfig, TelegraphCQ};

/// Counting allocator for the allocs-per-tuple budget.
#[global_allocator]
static ALLOC: tcq_common::CountingAlloc = tcq_common::CountingAlloc::new();

/// Hot-path batch size for every run: the K=64 plateau E-throughput
/// established, so the remaining per-tuple cost is evaluation and
/// hashing — exactly what kernels attack.
const K: usize = 64;

/// Rows in the dimension stream; every hot key matches exactly one.
const DIM_ROWS: i64 = 64;

/// Offset added to the micros-since-epoch timestamp carried in `s.v`, so
/// even the very first tuple clears the `s.v > d.tag` band factor (tags
/// top out at `(DIM_ROWS - 1) * 10`). The reaper subtracts it back out.
const V_OFFSET: i64 = 1_000_000;

/// Allocation events per delivered tuple the tripwire tolerates (1.5
/// measured). The bench's own TupleBuilder loop costs one alloc per
/// pushed tuple *inside* the measured window; the pipeline itself must
/// stay batch-amortized (column buffers, whole-batch egress, one
/// allocation per materialized row) to fit under this.
const ALLOC_BUDGET: f64 = 2.0;

fn dim_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("tag", DataType::Int),
    ])
    .into_ref()
}

fn hot_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref()
}

struct Outcome {
    tuples_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    delivered: usize,
    offered: usize,
    allocs_per_tuple: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drains column deliveries (one message per emitted batch) into
/// per-tuple latencies until `n` arrive or the deadline passes.
fn drain(rx: &Receiver<ColumnDelivery>, epoch: Instant, n: usize) -> Vec<u64> {
    let mut latencies = Vec::with_capacity(n);
    let deadline = Instant::now() + Duration::from_secs(120);
    while latencies.len() < n && Instant::now() < deadline {
        let before = latencies.len();
        for (_q, batch) in rx.try_iter() {
            let now_us = epoch.elapsed().as_micros() as i64;
            let col = batch.column(0);
            for row in 0..batch.len() {
                let sent_us = col.value(row).as_int().unwrap() - V_OFFSET;
                latencies.push((now_us - sent_us).max(0) as u64);
            }
            if latencies.len() >= n {
                break;
            }
        }
        if latencies.len() == before {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    latencies
}

/// One full pipeline run: `n` hot tuples joined against the pre-loaded
/// dimension stream under a predicate-heavy WHERE clause, timed from
/// first push to last delivery. Latency rides in `v` exactly as in
/// E-throughput.
fn run_pipeline(n: usize) -> Outcome {
    let server = TelegraphCQ::start(ServerConfig {
        io_batch: K,
        eddy_batch: K,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", hot_schema()).unwrap();
    server.register_stream("dim", dim_schema()).unwrap();

    let (client, rx) = server.connect_column_client(n + 1024).unwrap();
    // Twelve single-column factors (six per source, each a compilable
    // Cmp(col, lit) shape) plus one cross-source band factor compiled
    // against the joined schema — the CACQ regime where every tuple
    // faces a stack of standing filters. All are satisfied by
    // construction — `v` is micros-since-epoch + V_OFFSET and tags are
    // small — so the join still emits exactly one output per hot tuple
    // and the ledger check stays exact.
    server
        .submit(
            "SELECT s.v, d.tag FROM s s, dim d \
             WHERE s.k = d.id \
             AND s.v > 0 AND s.v < 4000000000000000 AND s.v != 0 \
             AND s.k >= 0 AND s.k < 1000000 AND s.k != -1 \
             AND d.tag >= 0 AND d.tag < 1000000 AND d.tag != -1 \
             AND d.id <= 9000000 AND d.id >= 0 AND d.id != -1 \
             AND s.v > d.tag \
             for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 9000000, t); }",
            client,
        )
        .unwrap();

    let dims = dim_schema();
    let dim_batch: Vec<Tuple> = (0..DIM_ROWS)
        .map(|id| {
            TupleBuilder::new(dims.clone())
                .push(id)
                .push(id * 10)
                .at(Timestamp::logical(id + 1))
                .build()
                .unwrap()
        })
        .collect();
    server.push_batch("dim", dim_batch).unwrap();
    while server.stream_time("dim").unwrap() < DIM_ROWS {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));

    let epoch = Instant::now();
    let reaper = std::thread::spawn(move || {
        let latencies = drain(&rx, epoch, n);
        (latencies, Instant::now())
    });

    let hot = hot_schema();
    let allocs_before = ALLOC.allocs();
    let start = Instant::now();
    let mut pushed = 0usize;
    while pushed < n {
        let m = K.min(n - pushed);
        let mut chunk = Vec::with_capacity(m);
        for j in 0..m {
            let idx = (pushed + j) as i64;
            let sent_us = epoch.elapsed().as_micros() as i64 + V_OFFSET;
            chunk.push(
                TupleBuilder::new(hot.clone())
                    .push(idx % DIM_ROWS)
                    .push(sent_us)
                    .at(Timestamp::logical(DIM_ROWS + idx + 1))
                    .build()
                    .unwrap(),
            );
        }
        server.push_batch("s", chunk).unwrap();
        pushed += m;
    }

    let (mut latencies, finished) = reaper.join().unwrap();
    let elapsed = finished.duration_since(start).as_secs_f64().max(1e-9);
    let allocs = ALLOC.allocs() - allocs_before;
    let delivered = latencies.len();
    latencies.sort_unstable();
    server.shutdown().unwrap();

    Outcome {
        tuples_per_sec: delivered as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        delivered,
        offered: n,
        allocs_per_tuple: allocs as f64 / delivered.max(1) as f64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Best-of-`runs` for the throughput figure; the gate is a count.
    let (n, runs): (usize, usize) = if smoke { (8_000, 1) } else { (200_000, 3) };
    println!(
        "E-kernels — compiled predicate kernels, prehashed probes and columnar\n\
         batches on the one join hot path ({n} tuples per run, K = {K})\n"
    );

    let mut o = run_pipeline(n);
    for _ in 1..runs {
        let again = run_pipeline(n);
        if again.tuples_per_sec > o.tuples_per_sec {
            o = again;
        }
    }
    assert_eq!(
        o.delivered, o.offered,
        "every admitted tuple must be delivered"
    );
    let mut table = Table::new(&[
        "tuples/sec",
        "p50 latency (us)",
        "p99 latency (us)",
        "delivered",
        "offered",
        "allocs/tuple",
    ]);
    table.row(vec![
        format!("{:.0}", o.tuples_per_sec),
        o.p50_us.to_string(),
        o.p99_us.to_string(),
        o.delivered.to_string(),
        o.offered.to_string(),
        format!("{:.1}", o.allocs_per_tuple),
    ]);
    table.print();

    if o.allocs_per_tuple > ALLOC_BUDGET {
        eprintln!(
            "FAIL: the hot path hits the allocator {:.1} times per tuple (budget {ALLOC_BUDGET})",
            o.allocs_per_tuple
        );
        std::process::exit(1);
    }
    println!(
        "\n  shape check: kernels, one hash per join key and column batches keep\n\
         \x20 the hot path inside a bounded allocs-per-tuple budget.\n"
    );
}
