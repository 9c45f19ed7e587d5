//! Experiment E-liveness (DESIGN.md "§5f Progress tracking & liveness
//! watchdog"): the partitioned-exchange join with the deterministic
//! watchdog armed. The watchdog detects and diagnoses; it acts on nothing.
//!
//! Two scenarios, both over the same P=2 join (every hot tuple matches
//! exactly one dimension row, so `delivered == offered` is the zero-loss
//! contract) with the same detection budget:
//!
//! * `healthy` — no faults. The watchdog must be pure observation: zero
//!   stalls, no diagnosis, full delivery.
//! * `wedge` — a contiguous block of [`FaultPoint::OperatorRun`] stalls
//!   skips every DU's quanta for the first few thousand executor polls,
//!   while the dimension rows wait in their ingress fjord. The frontier
//!   freezes with work in flight; the watchdog must declare the stall,
//!   and count it cleared once the DUs resume by themselves — with zero
//!   loss and canonical order.
//!
//! For each scenario the run records the watchdog counters, the detector
//! tick and in-flight depth at detection, and the wall-clock time from
//! the first push to quiescence, then writes `BENCH_liveness.json`.
//! Detection is measured in engine ticks (detector rounds), not wall
//! clock — the budget the operator actually configures.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_liveness [-- --smoke]
//! ```
//!
//! `--smoke` runs a reduced workload as the CI tripwire; the same gates
//! apply (healthy: silent watchdog; wedge: detected and cleared — both
//! with zero loss and canonical order).

use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use tcq_bench::Table;
use tcq_common::{
    DataType, FaultAction, FaultPlan, FaultPoint, Field, Schema, SchemaRef, Timestamp, Tuple,
    TupleBuilder,
};
use tcq_egress::Delivery;
use tcq_executor::WatchdogStats;
use tcq_server::{LivenessConfig, ServerConfig, TelegraphCQ};

const DIM_ROWS: i64 = 64;
const SEED: u64 = 0x11FE_5EED;
/// Frozen detector rounds before a stall is declared, in both scenarios.
const STALL_TICKS: u64 = 64;
/// Executor polls the wedge skips: every DU's quanta from the first poll
/// on, ~300 rounds of each EO on a six-DU exchange.
const WEDGE_POLLS: u64 = 2_000;

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
    name: &'static str,
    delivered: usize,
    offered: usize,
    ordered: bool,
    watchdog: WatchdogStats,
    /// Detector tick at which the (first) stall was declared; 0 if none.
    detect_tick: u64,
    /// Messages in flight at detection time; 0 if no stall.
    in_flight: u64,
    /// Fjords holding messages nobody drained at detection time.
    blocked: Vec<String>,
    wall_ms: f64,
}

/// One scenario run: the P=2 exchange join with `n` hot tuples, the
/// watchdog armed with [`STALL_TICKS`], and an optional fault plan. Wall
/// time covers the first push to full quiescence, so a wedge's cost is
/// inside it.
fn run_scenario(name: &'static str, n: usize, fault_plan: Option<FaultPlan>) -> Outcome {
    let server = TelegraphCQ::start(ServerConfig {
        partitions: 2,
        // Small queues so a wedge back-pressures (and freezes the
        // frontier) quickly instead of hiding behind buffering.
        queue_capacity: 64,
        liveness: Some(LivenessConfig {
            stall_ticks: STALL_TICKS,
        }),
        fault_plan,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", hot_schema()).unwrap();
    server.register_stream("dim", dim_schema()).unwrap();

    let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(n + 1024).unwrap();
    server
        .submit(
            "SELECT s.v, d.tag FROM s s, dim d WHERE s.k = d.id \
             for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 9000000, t); }",
            client,
        )
        .unwrap();

    let start = Instant::now();
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
    server.finish_stream("dim").unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let hot = hot_schema();
    let master: Vec<Tuple> = (1..=n as i64)
        .map(|i| {
            TupleBuilder::new(hot.clone())
                .push(i % DIM_ROWS)
                .push(i)
                .at(Timestamp::logical(i))
                .build()
                .unwrap()
        })
        .collect();

    server.push_batch("s", master).unwrap();
    while server.stream_time("s").unwrap() < n as i64 {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.finish_stream("s").unwrap();
    if !server.quiesce(Duration::from_secs(60)) {
        eprintln!("FAIL: scenario {name} never quiesced");
        std::process::exit(1);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let results: Vec<i64> = rx
        .try_iter()
        .map(|(_, t)| t.value(0).as_int().unwrap())
        .collect();
    let ordered = results.iter().copied().eq(1..=n as i64);
    let watchdog = server.executor_stats().watchdog;
    let stall = server.first_stall();
    server.shutdown().unwrap();

    Outcome {
        name,
        delivered: results.len(),
        offered: n,
        ordered,
        watchdog,
        detect_tick: stall.as_ref().map_or(0, |d| d.tick),
        in_flight: stall.as_ref().map_or(0, |d| d.in_flight),
        blocked: stall.map_or_else(Vec::new, |d| d.blocked_consumers),
        wall_ms,
    }
}

fn gate(cond: bool, msg: &str) {
    if !cond {
        eprintln!("FAIL: {msg}");
        std::process::exit(1);
    }
}

fn write_json(path: &str, n: usize, outcomes: &[Outcome]) {
    let mut entries = Vec::new();
    for o in outcomes {
        entries.push(format!(
            "    {{\"scenario\": \"{}\", \"stall_ticks\": {}, \
             \"delivered\": {}, \"offered\": {}, \"ordered\": {}, \
             \"stalls_detected\": {}, \"stalls_cleared\": {}, \
             \"detect_tick\": {}, \"in_flight_at_detection\": {}, \
             \"blocked_at_detection\": {:?}, \"wall_ms\": {:.1}}}",
            o.name,
            STALL_TICKS,
            o.delivered,
            o.offered,
            o.ordered,
            o.watchdog.stalls_detected,
            o.watchdog.stalls_cleared,
            o.detect_tick,
            o.in_flight,
            o.blocked,
            o.wall_ms,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"liveness\",\n  \"pipeline\": \
         \"P=2 exchange join, healthy and under a self-clearing wedge, watchdog armed\",\n  \
         \"tuples\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        n,
        entries.join(",\n"),
    );
    std::fs::write(path, json).unwrap();
    println!("  wrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: usize = if smoke { 6_000 } else { 30_000 };
    println!(
        "E-liveness — progress-frontier watchdog over the P=2 exchange join\n\
         ({n} hot tuples per scenario; detection budgets in engine ticks)\n"
    );

    let wedge = (1..=WEDGE_POLLS).fold(FaultPlan::new(SEED), |plan, at| {
        plan.at(FaultPoint::OperatorRun, at, FaultAction::Stall { ticks: 1 })
    });
    let outcomes = vec![
        run_scenario("healthy", n, None),
        run_scenario("wedge", n, Some(wedge)),
    ];

    let mut table = Table::new(&[
        "scenario",
        "delivered/offered",
        "stalls",
        "cleared",
        "detect tick",
        "in flight",
        "blocked",
        "wall (ms)",
    ]);
    for o in &outcomes {
        table.row(vec![
            o.name.to_string(),
            format!("{}/{}", o.delivered, o.offered),
            o.watchdog.stalls_detected.to_string(),
            o.watchdog.stalls_cleared.to_string(),
            o.detect_tick.to_string(),
            o.in_flight.to_string(),
            o.blocked.join(" "),
            format!("{:.1}", o.wall_ms),
        ]);
    }
    table.print();

    for o in &outcomes {
        gate(
            o.delivered == o.offered && o.ordered,
            &format!(
                "{}: delivery must be lossless and in order ({}/{})",
                o.name, o.delivered, o.offered
            ),
        );
    }
    let healthy = &outcomes[0];
    gate(
        healthy.watchdog == WatchdogStats::default() && healthy.detect_tick == 0,
        "healthy: the armed watchdog must record no stall and no diagnosis on a clean run",
    );
    let wedge = &outcomes[1];
    gate(
        wedge.watchdog.stalls_detected >= 1 && wedge.in_flight > 0,
        "wedge: the frozen frontier was never detected with work in flight",
    );
    gate(
        wedge.watchdog.stalls_cleared >= 1,
        "wedge: the stall never cleared after the DUs resumed",
    );

    if !smoke {
        write_json("BENCH_liveness.json", n, &outcomes);
    }
    println!(
        "\n  shape check: a healthy run never trips the detector; a wedge that\n\
         \x20 freezes the frontier is detected and counted cleared once it ends —\n\
         \x20 both with zero loss and canonical order.\n"
    );
}
