//! Experiment E9 (DESIGN.md): "Adapting Adaptivity" (paper §4.3) —
//!
//! > "batching tuples, by dynamically adjusting the frequency of routing
//! > decisions in order to reduce per-tuple costs … when change is slow,
//! > or selectivity constant, many tuples should be routed to large, fixed
//! > sequences of operators; when change is fast … small groups of tuples
//! > should be routed to individually scheduled operators."
//!
//! We sweep the eddy's decision batch size under (a) a static workload and
//! (b) a drifting workload whose filter selectivities swap repeatedly,
//! reporting routing decisions made, total visits, and wall time.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_adaptivity_knobs
//! ```

use tcq_bench::{kv, kv_schema, route_one, timed, Table};
use tcq_common::rng::seeded;
use tcq_common::{CmpOp, Expr};
use tcq_eddy::{Eddy, EddyConfig, LotteryPolicy, ModuleSpec};
use tcq_operators::SelectOp;

const N: i64 = 100_000;

fn build(batch: usize) -> Eddy {
    let schema = kv_schema("S");
    let mut eddy = Eddy::new(
        &["S"],
        Box::new(LotteryPolicy::new().with_decay(0.5, 256)),
        EddyConfig {
            batch_size: batch,
            seed: 5,
        },
    )
    .unwrap();
    let s = eddy.source_bit("S").unwrap();
    for (name, col) in [("k<20", "k"), ("v<20", "v")] {
        let f = SelectOp::new(
            name,
            &Expr::col(col).cmp(CmpOp::Lt, Expr::lit(20i64)),
            &schema,
        )
        .unwrap();
        eddy.add_module(ModuleSpec::filter(Box::new(f), s)).unwrap();
    }
    eddy
}

/// `phases` = how many times the two filters swap selectivity.
fn run(mut eddy: Eddy, phases: i64) -> (u64, u64, u64) {
    let schema = kv_schema("S");
    let mut rng = seeded(43);
    let phase_len = (N / phases.max(1)).max(1);
    let ((), us) = timed(|| {
        for i in 0..N {
            let flipped = (i / phase_len) % 2 == 1;
            let (k, v) = if flipped {
                (rng.gen_range(0..25i64), rng.gen_range(0..100i64))
            } else {
                (rng.gen_range(0..100i64), rng.gen_range(0..25i64))
            };
            route_one(&mut eddy, kv(&schema, k, v, i));
        }
    });
    let stats = eddy.stats();
    (stats.decisions, stats.visits, us)
}

fn sweep(label: &str, phases: i64) {
    println!("{label}\n");
    let mut table = Table::new(&["batch", "decisions", "visits", "visits/tuple", "wall us"]);
    for batch in [1usize, 8, 64, 256, 1024] {
        let (decisions, visits, us) = run(build(batch), phases);
        table.row(vec![
            batch.to_string(),
            decisions.to_string(),
            visits.to_string(),
            format!("{:.3}", visits as f64 / N as f64),
            us.to_string(),
        ]);
    }
    table.print();
    println!();
}

fn main() {
    println!("E9 — the §4.3 batching knob: routing decisions per {N} tuples\n");
    sweep("(a) static selectivities (change is slow → batch hard):", 1);
    sweep(
        "(b) selectivities swap 20 times (change is fast → batching lags the shift):",
        20,
    );
    println!(
        "  shape check: batching slashes decision count (and its overhead) with no\n\
         \x20 visit penalty when the workload is static; under fast drift, large\n\
         \x20 batches reuse stale orders and visits/tuple creeps toward the static\n\
         \x20 plan's — the flexibility/overhead tradeoff the paper describes.\n"
    );
}
