//! Experiments E1 + E2 (DESIGN.md): eddy adaptivity and routing-policy
//! quality, reproducing the shape of Avnur & Hellerstein's \[AH00\] results
//! that TelegraphCQ §2.2 builds on.
//!
//! * E1 — two commutative filters whose selectivities flip mid-stream.
//!   The metric is total module visits (≡ work): a static plan is right in
//!   only one phase; the eddy tracks the better plan in both.
//! * E2 — k filters with fixed but unknown selectivities. Compare the
//!   ticket lottery against the best static order (oracle), the worst
//!   static order, and random routing.
//!
//! Every run is seeded and counts visits, so the shape is asserted on
//! counts: the lottery beats random in E1 and E2 and lands within 5 % of
//! the oracle order in E2, every ticket decay beats none in E1b, and no
//! policy changes what is emitted. (Greedy ranks by measured time, so its
//! counts are reported, not asserted.)
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_eddy_adaptivity
//! ```

use tcq_bench::{kv, kv_schema, route_one, Table};
use tcq_common::rng::seeded;
use tcq_common::{CmpOp, Expr};
use tcq_eddy::{Eddy, EddyConfig, FixedPolicy, LotteryPolicy, RandomPolicy, RoutingPolicy};
use tcq_eddy::{EddyStats, GreedyPolicy, ModuleSpec};
use tcq_operators::SelectOp;

const N: i64 = 100_000;

fn two_filter_eddy(policy: Box<dyn RoutingPolicy>) -> Eddy {
    let schema = kv_schema("S");
    let mut eddy = Eddy::new(&["S"], policy, EddyConfig::default()).unwrap();
    let s = eddy.source_bit("S").unwrap();
    let fa = SelectOp::new(
        "k<20",
        &Expr::col("k").cmp(CmpOp::Lt, Expr::lit(20i64)),
        &schema,
    )
    .unwrap();
    let fb = SelectOp::new(
        "v<20",
        &Expr::col("v").cmp(CmpOp::Lt, Expr::lit(20i64)),
        &schema,
    )
    .unwrap();
    eddy.add_module(ModuleSpec::filter(Box::new(fa), s))
        .unwrap();
    eddy.add_module(ModuleSpec::filter(Box::new(fb), s))
        .unwrap();
    eddy
}

/// Phase 1: k uniform in [0,100) (f_a 20% pass), v in [0,25) (f_b 80%).
/// Phase 2: swapped.
fn run_flip(mut eddy: Eddy) -> EddyStats {
    let schema = kv_schema("S");
    let mut rng = seeded(11);
    for i in 0..N {
        let phase2 = i >= N / 2;
        let (k, v) = if phase2 {
            (rng.gen_range(0..25i64), rng.gen_range(0..100i64))
        } else {
            (rng.gen_range(0..100i64), rng.gen_range(0..25i64))
        };
        route_one(&mut eddy, kv(&schema, k, v, i));
    }
    eddy.stats()
}

fn experiment_e1() -> Vec<(&'static str, EddyStats)> {
    println!(
        "E1 — selectivity flip at tuple {}/{N} (visits = work; lower is better)\n",
        N / 2
    );
    let mut table = Table::new(&["plan", "visits", "visits/tuple", "emitted"]);
    let mut rows = Vec::new();
    for (label, policy) in [
        (
            "static f_a→f_b",
            Box::new(FixedPolicy::new(vec![0, 1])) as Box<dyn RoutingPolicy>,
        ),
        ("static f_b→f_a", Box::new(FixedPolicy::new(vec![1, 0]))),
        ("random", Box::new(RandomPolicy)),
        (
            "lottery eddy",
            Box::new(LotteryPolicy::new().with_decay(0.5, 512)),
        ),
        ("greedy eddy", Box::new(GreedyPolicy::new())),
    ] {
        let stats = run_flip(two_filter_eddy(policy));
        table.row(vec![
            label.to_string(),
            stats.visits.to_string(),
            format!("{:.3}", stats.visits as f64 / N as f64),
            stats.emitted.to_string(),
        ]);
        rows.push((label, stats));
    }
    table.print();
    println!(
        "\n  shape check: both static plans pay ~1.5 visits/tuple (right in one\n\
         \x20 phase each); the adaptive policies stay near the per-phase optimum\n\
         \x20 (~1.25) in BOTH phases without any optimizer statistics.\n"
    );
    rows
}

fn k_filter_eddy(policy: Box<dyn RoutingPolicy>, thresholds: &[i64]) -> Eddy {
    let schema = kv_schema("S");
    let mut eddy = Eddy::new(&["S"], policy, EddyConfig::default()).unwrap();
    let s = eddy.source_bit("S").unwrap();
    for (i, th) in thresholds.iter().enumerate() {
        let f = SelectOp::new(
            format!("v<{th}"),
            &Expr::col("v").cmp(CmpOp::Lt, Expr::lit(*th)),
            &schema,
        )
        .unwrap();
        eddy.add_module(ModuleSpec::filter(Box::new(f), s)).unwrap();
        let _ = i;
    }
    eddy
}

fn run_fixed_workload(mut eddy: Eddy) -> EddyStats {
    let schema = kv_schema("S");
    let mut rng = seeded(23);
    for i in 0..N {
        route_one(&mut eddy, kv(&schema, 0, rng.gen_range(0..100i64), i));
    }
    eddy.stats()
}

fn experiment_e2() -> Vec<(&'static str, EddyStats)> {
    // Selectivities: v < 10 (10%), v < 50 (50%), v < 90 (90%).
    // Optimal static order: most selective first = [10, 50, 90].
    let thresholds = [10i64, 50, 90];
    println!("E2 — 3 filters, pass rates 10%/50%/90% (ticket lottery vs static orders)\n");
    let mut table = Table::new(&["policy", "visits", "visits/tuple", "emitted"]);
    let mut rows = Vec::new();
    for (label, policy) in [
        (
            "oracle static (best)",
            Box::new(FixedPolicy::new(vec![0, 1, 2])) as Box<dyn RoutingPolicy>,
        ),
        ("worst static", Box::new(FixedPolicy::new(vec![2, 1, 0]))),
        ("random", Box::new(RandomPolicy)),
        ("lottery eddy", Box::new(LotteryPolicy::new())),
        ("greedy eddy", Box::new(GreedyPolicy::new())),
    ] {
        let stats = run_fixed_workload(k_filter_eddy(policy, &thresholds));
        table.row(vec![
            label.to_string(),
            stats.visits.to_string(),
            format!("{:.3}", stats.visits as f64 / N as f64),
            stats.emitted.to_string(),
        ]);
        rows.push((label, stats));
    }
    table.print();
    println!(
        "\n  shape check ([AH00] Fig. 6 analogue): lottery ≈ oracle static order,\n\
         \x20 well below random and far below the worst order — adaptivity finds\n\
         \x20 the selective-first ordering on its own.\n"
    );
    rows
}

/// E1b — ablation: the lottery's ticket decay (DESIGN.md calls this knob
/// out). Without decay, phase-1 tickets swamp phase-2 evidence and the
/// eddy re-adapts slowly (or never); with decay it forgets and re-learns.
fn experiment_e1b() -> Vec<(&'static str, EddyStats)> {
    println!("E1b — ablation: lottery ticket decay under the selectivity flip\n");
    let mut table = Table::new(&["decay", "visits", "visits/tuple"]);
    let mut rows = Vec::new();
    for (label, decay, every) in [
        ("none (tickets accumulate forever)", 1.0, u64::MAX),
        ("x0.9 / 4096 decisions", 0.9, 4096),
        ("x0.5 / 1024 decisions", 0.5, 1024),
        ("x0.5 / 256 decisions", 0.5, 256),
    ] {
        let policy = LotteryPolicy::new()
            .with_decay(decay, every)
            .with_explore(0.02);
        let stats = run_flip(two_filter_eddy(Box::new(policy)));
        table.row(vec![
            label.to_string(),
            stats.visits.to_string(),
            format!("{:.3}", stats.visits as f64 / N as f64),
        ]);
        rows.push((label, stats));
    }
    table.print();
    println!(
        "\n  shape check: stale tickets are the adaptivity bottleneck — faster\n\
         \x20 decay tracks the flip more closely (diminishing returns once the\n\
         \x20 forgetting horizon is shorter than the phase length).\n"
    );
    rows
}

fn main() {
    let (e1, e1b, e2) = (experiment_e1(), experiment_e1b(), experiment_e2());
    let visits = |rows: &[(&str, EddyStats)], label: &str| {
        rows.iter()
            .find(|(l, _)| *l == label)
            .expect("labelled row")
            .1
            .visits
    };
    for rows in [&e1, &e1b, &e2] {
        assert!(
            rows.iter().all(|(_, s)| s.emitted == rows[0].1.emitted),
            "a routing policy changed the answer"
        );
    }
    assert!(
        visits(&e1, "lottery eddy") < visits(&e1, "random"),
        "E1: the lottery must beat random routing under the flip"
    );
    let none = e1b[0].1.visits;
    assert!(
        e1b[1..].iter().all(|(_, s)| s.visits < none),
        "E1b: every ticket decay must beat none ({none} visits)"
    );
    let (lottery, oracle) = (
        visits(&e2, "lottery eddy"),
        visits(&e2, "oracle static (best)"),
    );
    assert!(
        lottery < visits(&e2, "random"),
        "E2: the lottery must beat random routing"
    );
    assert!(
        lottery * 100 <= oracle * 105,
        "E2: the lottery ({lottery}) must land within 5% of the oracle order ({oracle})"
    );
}
