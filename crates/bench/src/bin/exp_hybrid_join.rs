//! Experiment E6 (DESIGN.md): join hybridization with eddies and SteMs,
//! reproducing the shape of Raman et al. \[RDH02\] (paper §2.2):
//!
//! > "the Eddy can essentially run both query plans at the same time …
//! > the Eddy and SteMs dynamically design a hybrid join algorithm."
//!
//! A stream S joins table T, which is available BOTH as a local SteM build
//! (hash join: cheap per probe after paying to build) and as a remote
//! index (index join: no build, but each lookup pays the remote latency).
//! We sweep the remote latency and compare three fixed strategies against
//! the competitive eddy that chooses per tuple.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_hybrid_join
//! ```

use std::time::Duration;

use tcq_bench::{kv, kv_schema, route_one, timed, Table};
use tcq_common::rng::seeded;
use tcq_common::Tuple;
use tcq_eddy::{Eddy, EddyConfig, FixedPolicy, GreedyPolicy, ModuleSpec, RoutingPolicy};
use tcq_operators::{RemoteIndex, RemoteIndexOp, StemOp};
use tcq_stems::IndexKind;

const N_S: usize = 3_000;
const N_T: i64 = 1_000;

fn t_rows() -> Vec<Tuple> {
    let schema = kv_schema("T");
    (0..N_T).map(|k| kv(&schema, k, k * 10, k + 1)).collect()
}

fn s_rows() -> Vec<Tuple> {
    let schema = kv_schema("S");
    let mut rng = seeded(53);
    (0..N_S)
        .map(|i| kv(&schema, rng.gen_range(0..N_T), 0, i as i64 + 1))
        .collect()
}

/// Build an eddy holding SteM_T (probed by S) and/or the remote index on T.
/// Policy decides which access method each S tuple uses when both exist.
fn build_eddy(
    policy: Box<dyn RoutingPolicy>,
    with_stem: bool,
    with_index: bool,
    latency: Duration,
) -> Eddy {
    let mut eddy = Eddy::new(&["S", "T"], policy, EddyConfig::default()).unwrap();
    let (sb, tb) = (eddy.source_bit("S").unwrap(), eddy.source_bit("T").unwrap());
    if with_stem {
        let stem_t = StemOp::new(
            "SteM(T)",
            kv_schema("T"),
            "T",
            0,
            (Some("S".into()), "k".into()),
            IndexKind::Hash,
        )
        .unwrap();
        eddy.add_module(ModuleSpec::stem(Box::new(stem_t), tb, sb))
            .unwrap();
    }
    if with_index {
        let index = RemoteIndex::new(kv_schema("T"), 0, t_rows(), latency);
        let op = RemoteIndexOp::new("idx(T)", index, (Some("S".into()), "k".into()));
        // An access method on T: probed by S tuples, never "stores".
        eddy.add_module(ModuleSpec {
            module: Box::new(op),
            required_all: 0,
            required_any: sb,
            excluded: tb,
            build_exact: None,
        })
        .unwrap();
    }
    eddy
}

fn run(mut eddy: Eddy, feed_t: bool) -> (u64, u64) {
    // Hash-join variants must ingest T's rows (builds); index variants get
    // T through the remote index only.
    let t = t_rows();
    let s = s_rows();
    let (emitted, us) = timed(|| {
        let mut emitted = 0usize;
        if feed_t {
            for row in &t {
                emitted += route_one(&mut eddy, row.clone());
            }
        }
        for row in &s {
            emitted += route_one(&mut eddy, row.clone());
        }
        emitted
    });
    assert_eq!(
        emitted as i64, N_S as i64,
        "every S row has exactly one T match"
    );
    (us, eddy.stats().visits)
}

fn main() {
    println!(
        "E6 — hybridized join: S ({N_S} rows) ⋈ T ({N_T} rows); T reachable as a\n\
         local SteM (hash join) or a remote index (latency swept)\n"
    );
    let mut table = Table::new(&[
        "remote latency",
        "hash join us",
        "index join us",
        "hybrid eddy us",
    ]);
    for micros in [0u64, 5, 50, 500] {
        let latency = Duration::from_micros(micros);
        let (hash_us, _) = run(
            build_eddy(Box::new(FixedPolicy::new(vec![0])), true, false, latency),
            true,
        );
        let (index_us, _) = run(
            build_eddy(Box::new(FixedPolicy::new(vec![0])), false, true, latency),
            false,
        );
        // Hybrid: both methods registered; the greedy policy (which ranks
        // by observed selectivity-per-cost, tie-broken by cost) learns
        // which access method wins at this latency. T rows are fed so the
        // SteM option exists.
        let (hybrid_us, _) = run(
            build_eddy(Box::new(GreedyPolicy::new()), true, true, latency),
            true,
        );
        table.row(vec![
            format!("{micros} us"),
            hash_us.to_string(),
            index_us.to_string(),
            hybrid_us.to_string(),
        ]);
    }
    table.print();
    println!(
        "\n  shape check ([RDH02] §6 analogue): at zero latency the index join wins\n\
         \x20 (no build cost); as latency grows the hash join wins; the competitive\n\
         \x20 eddy tracks whichever is better without being told the latency —\n\
         \x20 the crossover is discovered, not configured.\n"
    );
}
