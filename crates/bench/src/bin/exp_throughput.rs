//! Experiment E-throughput (DESIGN.md "Batched dataflow"): end-to-end
//! throughput and latency of the single-stream select-project-join
//! pipeline — push client → ingress Fjord → dispatcher → dedicated eddy
//! join → egress push delivery — across the hot-path batch knob
//! `K ∈ {1, 8, 64, 256}` (`ServerConfig::io_batch` + `eddy_batch`).
//!
//! Claims demonstrated:
//!
//! * moving K messages per Fjord lock acquisition and making one routing
//!   decision per (signature, batch) raises sustained tuples/sec well
//!   above the per-tuple (K=1) baseline — the §4.3 "batching tuples"
//!   knob, now amortized through every layer;
//! * every admitted tuple is still delivered exactly once (the ledger
//!   balances at every K);
//! * the run emits machine-readable `BENCH_throughput.json`, seeding the
//!   perf trajectory the ROADMAP commits every PR to extend.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_throughput [-- --smoke]
//! ```
//!
//! `--smoke` runs a reduced workload at K ∈ {1, 64} only and exits
//! non-zero if K=64 throughput falls below K=1 — the coarse
//! perf-regression tripwire `scripts/ci.sh` relies on.
//!
//! The allocs-per-tuple budget is measured by `exp_kernels`, not here:
//! its counting-allocator harness makes every allocation call opaque to
//! the optimizer and costs ~20% throughput.

use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use tcq_bench::Table;
use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder};
use tcq_egress::Delivery;
use tcq_server::{ServerConfig, TelegraphCQ};

/// Rows in the small build-side dimension stream. Every hot tuple's key
/// hits exactly one of them, so the join emits exactly one output per
/// hot-stream tuple — delivered count equals offered count by design.
const DIM_ROWS: i64 = 64;

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

struct KOutcome {
    k: usize,
    tuples_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    delivered: usize,
    offered: usize,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One full pipeline run at batch size `k`: `n` hot tuples joined against
/// the pre-loaded dimension stream, timed from first push to last
/// delivery. Per-tuple latency rides inside the tuple itself: `v` carries
/// the send instant as micros-since-epoch (+1 so the `v > 0` select
/// factor always passes), and the receiver subtracts on arrival.
fn run_pipeline(k: usize, n: usize) -> KOutcome {
    let server = TelegraphCQ::start(ServerConfig {
        io_batch: k,
        eddy_batch: k,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", hot_schema()).unwrap();
    server.register_stream("dim", dim_schema()).unwrap();

    let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(n + 1024).unwrap();
    // Unequal window widths keep this join out of the CACQ shared-SteM
    // plan, so it runs on a dedicated eddy — the batched JoinCqDu path.
    server
        .submit(
            "SELECT s.v, d.tag FROM s s, dim d \
             WHERE s.k = d.id AND s.v > 0 \
             for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 9000000, t); }",
            client,
        )
        .unwrap();

    // Load the build side and wait for the dispatcher to absorb it before
    // the clock starts, so the timed region is pure hot-stream flow.
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
        let mut latencies = Vec::with_capacity(n);
        let deadline = Instant::now() + Duration::from_secs(120);
        // Drain in bursts rather than one blocking recv per tuple: on a
        // single-core box a per-delivery wakeup costs a context switch,
        // which would bill reaper overhead to the server's throughput.
        while latencies.len() < n && Instant::now() < deadline {
            let before = latencies.len();
            for (_q, t) in rx.try_iter() {
                let sent_us = t.value(0).as_int().unwrap() - 1;
                let now_us = epoch.elapsed().as_micros() as i64;
                latencies.push((now_us - sent_us).max(0) as u64);
                if latencies.len() >= n {
                    break;
                }
            }
            if latencies.len() == before {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        (latencies, Instant::now())
    });

    let hot = hot_schema();
    let start = Instant::now();
    let mut pushed = 0usize;
    while pushed < n {
        let m = k.min(n - pushed);
        let mut chunk = Vec::with_capacity(m);
        for j in 0..m {
            let idx = (pushed + j) as i64;
            let sent_us = epoch.elapsed().as_micros() as i64 + 1;
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
    let delivered = latencies.len();
    latencies.sort_unstable();
    server.shutdown().unwrap();

    KOutcome {
        k,
        tuples_per_sec: delivered as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        delivered,
        offered: n,
    }
}

fn write_json(path: &str, n: usize, outcomes: &[KOutcome], speedup: f64) {
    let mut entries = Vec::new();
    for o in outcomes {
        entries.push(format!(
            "    {{\"k\": {}, \"tuples_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
             \"delivered\": {}, \"offered\": {}}}",
            o.k, o.tuples_per_sec, o.p50_us, o.p99_us, o.delivered, o.offered
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"pipeline\": \
         \"single-stream select-project-join (push -> fjord -> dispatcher -> eddy join -> egress)\",\n  \
         \"tuples\": {},\n  \"results\": [\n{}\n  ],\n  \"speedup_k64_vs_k1\": {:.2}\n}}\n",
        n,
        entries.join(",\n"),
        speedup
    );
    std::fs::write(path, json).unwrap();
    println!("  wrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Best-of-`runs` per K: on a busy (or single-core) box a single pass
    // is at the mercy of scheduler luck; the max over a few passes is the
    // stable measure of what the configuration can sustain.
    let (n, runs, ks): (usize, usize, &[usize]) = if smoke {
        (8_000, 1, &[1, 64])
    } else {
        (200_000, 3, &[1, 8, 64, 256])
    };
    println!(
        "E-throughput — batched hot path, single-stream select-project-join\n\
         ({n} tuples per run, K = fjord io_batch = eddy batch_size)\n"
    );

    let mut table = Table::new(&[
        "K",
        "tuples/sec",
        "p50 latency (us)",
        "p99 latency (us)",
        "delivered",
        "offered",
    ]);
    let mut outcomes = Vec::new();
    for &k in ks {
        let mut o = run_pipeline(k, n);
        for _ in 1..runs {
            let again = run_pipeline(k, n);
            if again.tuples_per_sec > o.tuples_per_sec {
                o = again;
            }
        }
        assert_eq!(
            o.delivered, o.offered,
            "every admitted tuple must be delivered at K={k}"
        );
        table.row(vec![
            o.k.to_string(),
            format!("{:.0}", o.tuples_per_sec),
            o.p50_us.to_string(),
            o.p99_us.to_string(),
            o.delivered.to_string(),
            o.offered.to_string(),
        ]);
        outcomes.push(o);
    }
    table.print();

    let base = outcomes.iter().find(|o| o.k == 1).unwrap().tuples_per_sec;
    let batched = outcomes.iter().find(|o| o.k == 64).unwrap().tuples_per_sec;
    let speedup = batched / base;
    println!("\n  speedup K=64 vs K=1: {speedup:.2}x");
    // Smoke passes are a pass/fail tripwire at reduced scale; only the
    // full sweep refreshes the committed perf trajectory.
    if !smoke {
        write_json("BENCH_throughput.json", n, &outcomes, speedup);
    }

    if speedup < 1.0 {
        eprintln!("FAIL: K=64 throughput ({batched:.0}/s) below K=1 ({base:.0}/s)");
        std::process::exit(1);
    }
    println!(
        "\n  shape check: batching the hot path never loses a tuple, and the\n\
         \x20 amortized (K=64) configuration out-runs per-tuple dispatch.\n"
    );
}
