//! Experiment E-scaling (DESIGN.md "§5c Partitioned parallelism"): the
//! exp_throughput pipeline — push client → ingress Fjord → dispatcher →
//! join → egress — swept over the partition-parallel degree
//! `P ∈ {1, 2, 4, 8}` at the best batching knob (K = 64). At `P = 1` the
//! join runs as one sequential `JoinCqDu`; at `P > 1` it runs as the
//! threaded exchange `PartitionDu → P cloned eddies → MergeDu`, each
//! worker pinned to its own EO via the footprint-class registry.
//!
//! Claims demonstrated:
//!
//! * hash-partitioning the eddy across P EO threads raises sustained
//!   tuples/sec over the sequential plan when cores are available, while
//!   the deterministic merge keeps delivery exactly-once at every P
//!   (the ledger balances, delivered == offered);
//! * per-EO busy fractions show the partitions actually spreading load
//!   rather than convoying on one thread;
//! * the run emits machine-readable `BENCH_scaling.json` extending the
//!   perf trajectory.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_scaling [-- --smoke]
//! ```
//!
//! `--smoke` runs a reduced workload at P ∈ {1, 4} only, as the CI
//! tripwire. With at least four cores — one per worker — it exits
//! non-zero unless P=4 beats P=1. With fewer, the four workers share the
//! cores with the partitioner, the merge and the load threads, so no
//! speedup is promised; it instead enforces that the exchange overhead
//! stays bounded: P=4 must sustain at least 0.4x of P=1. The core count
//! is printed and recorded so the gate's meaning is never ambiguous.

use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use tcq_bench::Table;
use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder};
use tcq_egress::Delivery;
use tcq_server::{ServerConfig, TelegraphCQ};

/// Batching knob for every run: exp_throughput's best configuration.
const K: usize = 64;

/// Rows in the small build-side dimension stream; every hot tuple joins
/// exactly one of them, so delivered == offered by design.
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

struct POutcome {
    partitions: usize,
    tuples_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    delivered: usize,
    offered: usize,
    /// Busiest and idlest EO busy fraction — the load-spread picture.
    util_max: f64,
    util_min: f64,
    /// The reaper hit its deadline with tuples still undelivered — the
    /// subrun wedged (or crawled) instead of draining.
    stalled: bool,
    /// Wall time from the last push to the last delivery: the drain
    /// tail a wedge hides in when throughput alone is reported.
    drain_tail_ms: f64,
}

/// Per-P aggregate over the repeat subruns. Throughput stays best-of-N
/// (the usual benchmark convention), but stalls are *surfaced*, never
/// masked: every subrun that hit the reaper deadline is counted, and the
/// worst drain tail across subruns is reported alongside the best rate.
struct PAgg {
    best: POutcome,
    stalled_subruns: usize,
    drain_tail_worst_ms: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One full pipeline run at partition degree `p`: `n` hot tuples joined
/// against the pre-loaded dimension stream, timed from first push to last
/// delivery. Latency rides inside the tuple (`v` = send micros + 1, so
/// the `v > 0` factor always passes).
fn run_pipeline(p: usize, n: usize) -> POutcome {
    let server = TelegraphCQ::start(ServerConfig {
        io_batch: K,
        eddy_batch: K,
        partitions: p,
        // Enough EOs that each partition worker lands on its own thread,
        // with headroom for the partitioner, merge, and dispatchers.
        eos: p + 3,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", hot_schema()).unwrap();
    server.register_stream("dim", dim_schema()).unwrap();

    let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(n + 1024).unwrap();
    // Unequal window widths keep this join out of the CACQ shared-SteM
    // plan, so P=1 runs the dedicated sequential eddy and P>1 the
    // partitioned exchange — the comparison E-scaling is about.
    server
        .submit(
            "SELECT s.v, d.tag FROM s s, dim d \
             WHERE s.k = d.id AND s.v > 0 \
             for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 9000000, t); }",
            client,
        )
        .unwrap();

    // Load the build side and let the dispatcher absorb it before the
    // clock starts, so the timed region is pure hot-stream flow.
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
        // Tight deadline: a healthy subrun drains in single-digit seconds,
        // so 30 s flags a wedge instead of hiding one for two minutes.
        let deadline = Instant::now() + Duration::from_secs(30);
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
        let m = K.min(n - pushed);
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
    // End-of-stream on every input closes the exchange's final partition
    // run; without it the trailing tuples would wait in a worker for a
    // punctuation that never comes. (No-op for the sequential P=1 plan.)
    server.finish_stream("s").unwrap();
    server.finish_stream("dim").unwrap();
    let push_done = Instant::now();

    let (mut latencies, finished) = reaper.join().unwrap();
    let elapsed = finished.duration_since(start).as_secs_f64().max(1e-9);
    let delivered = latencies.len();
    latencies.sort_unstable();
    let util = server.executor_stats().utilization_per_eo();
    server.shutdown().unwrap();

    POutcome {
        partitions: p,
        tuples_per_sec: delivered as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        delivered,
        offered: n,
        util_max: util.iter().copied().fold(0.0, f64::max),
        util_min: util.iter().copied().fold(1.0, f64::min),
        stalled: delivered < n,
        drain_tail_ms: finished.saturating_duration_since(push_done).as_secs_f64() * 1e3,
    }
}

fn write_json(path: &str, n: usize, cores: usize, outcomes: &[PAgg], speedup: f64) {
    let mut entries = Vec::new();
    for agg in outcomes {
        let o = &agg.best;
        entries.push(format!(
            "    {{\"partitions\": {}, \"tuples_per_sec\": {:.1}, \"p50_us\": {}, \
             \"p99_us\": {}, \"delivered\": {}, \"offered\": {}, \
             \"eo_util_max\": {:.3}, \"eo_util_min\": {:.3}, \
             \"stalled_subruns\": {}, \"drain_tail_worst_ms\": {:.1}}}",
            o.partitions,
            o.tuples_per_sec,
            o.p50_us,
            o.p99_us,
            o.delivered,
            o.offered,
            o.util_max,
            o.util_min,
            agg.stalled_subruns,
            agg.drain_tail_worst_ms
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"scaling\",\n  \"pipeline\": \
         \"exp_throughput join at K=64, swept over exchange partition degree P\",\n  \
         \"tuples\": {},\n  \"cores\": {},\n  \"results\": [\n{}\n  ],\n  \
         \"speedup_p4_vs_p1\": {:.2}\n}}\n",
        n,
        cores,
        entries.join(",\n"),
        speedup
    );
    std::fs::write(path, json).unwrap();
    println!("  wrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let (n, runs, ps): (usize, usize, &[usize]) = if smoke {
        (8_000, 2, &[1, 4])
    } else {
        (150_000, 3, &[1, 2, 4, 8])
    };
    println!(
        "E-scaling — partitioned exchange, select-project-join at K={K}\n\
         ({n} tuples per run, P = ServerConfig::partitions, {cores} core(s))\n"
    );

    let mut table = Table::new(&[
        "P",
        "tuples/sec",
        "p50 latency (us)",
        "p99 latency (us)",
        "delivered",
        "offered",
        "EO util min..max",
        "stalled subruns",
        "worst drain tail (ms)",
    ]);
    let mut outcomes: Vec<PAgg> = Vec::new();
    for &p in ps {
        // Every subrun is kept: throughput is best-of-N, but a stalled
        // subrun is counted and the worst drain tail reported — a wedge
        // must never hide behind a lucky sibling run.
        let subruns: Vec<POutcome> = (0..runs).map(|_| run_pipeline(p, n)).collect();
        let stalled_subruns = subruns.iter().filter(|o| o.stalled).count();
        let drain_tail_worst_ms = subruns.iter().map(|o| o.drain_tail_ms).fold(0.0, f64::max);
        let best = subruns
            .into_iter()
            .reduce(|best, next| {
                let prefer_next = (best.stalled && !next.stalled)
                    || (best.stalled == next.stalled && next.tuples_per_sec > best.tuples_per_sec);
                if prefer_next {
                    next
                } else {
                    best
                }
            })
            .unwrap();
        table.row(vec![
            best.partitions.to_string(),
            format!("{:.0}", best.tuples_per_sec),
            best.p50_us.to_string(),
            best.p99_us.to_string(),
            best.delivered.to_string(),
            best.offered.to_string(),
            format!("{:.2}..{:.2}", best.util_min, best.util_max),
            stalled_subruns.to_string(),
            format!("{drain_tail_worst_ms:.1}"),
        ]);
        outcomes.push(PAgg {
            best,
            stalled_subruns,
            drain_tail_worst_ms,
        });
    }
    table.print();

    let base = outcomes
        .iter()
        .find(|o| o.best.partitions == 1)
        .unwrap()
        .best
        .tuples_per_sec;
    let par = outcomes
        .iter()
        .find(|o| o.best.partitions == 4)
        .unwrap()
        .best
        .tuples_per_sec;
    let speedup = par / base;
    println!("\n  speedup P=4 vs P=1: {speedup:.2}x on {cores} core(s)");
    if !smoke {
        write_json("BENCH_scaling.json", n, cores, &outcomes, speedup);
    }

    // Surfacing is not excusing: after the numbers are reported and
    // recorded, any stalled subrun still fails the experiment.
    let total_stalled: usize = outcomes.iter().map(|o| o.stalled_subruns).sum();
    if total_stalled > 0 {
        for agg in &outcomes {
            if agg.stalled_subruns > 0 {
                eprintln!(
                    "FAIL: P={}: {}/{} subruns hit the 30 s reaper deadline \
                     ({}/{} delivered in the reported run)",
                    agg.best.partitions,
                    agg.stalled_subruns,
                    runs,
                    agg.best.delivered,
                    agg.best.offered
                );
            }
        }
        std::process::exit(1);
    }

    if cores >= 4 {
        if speedup <= 1.0 {
            eprintln!(
                "FAIL: P=4 throughput ({par:.0}/s) not above P=1 ({base:.0}/s) on {cores} cores"
            );
            std::process::exit(1);
        }
    } else {
        // Fewer cores than workers: a speedup is not promised, so the gate
        // degrades to an overhead bound — P=4 must keep at least 0.4x of
        // the sequential plan's throughput.
        println!(
            "  note: {cores} core(s) < 4 workers — strict P=4 > P=1 gate waived; \
             enforcing bounded exchange overhead instead"
        );
        if speedup < 0.4 {
            eprintln!(
                "FAIL: P=4 throughput ({par:.0}/s) below 0.4x of P=1 ({base:.0}/s) — \
                 exchange overhead out of bounds"
            );
            std::process::exit(1);
        }
    }
    println!(
        "\n  shape check: the partitioned exchange never loses a tuple, and the\n\
         \x20 deterministic merge keeps delivery identical to the sequential plan.\n"
    );
}
