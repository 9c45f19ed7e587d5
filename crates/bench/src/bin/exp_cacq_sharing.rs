//! Experiments E3 + E4 (DESIGN.md): CACQ shared processing, reproducing
//! the shape of Madden et al. \[MSHR02\] — shared grouped-filter execution
//! "match\[es\] or significantly exceed\[s\] the performance of existing static
//! continuous query systems" as the number of standing queries grows.
//!
//! * E3 — N selection queries over one stream: one shared QueryStem pass
//!   per tuple vs evaluating every query's predicate separately.
//! * E4 — the grouped filter itself: probe cost vs naive per-factor
//!   evaluation as the number of registered predicates grows.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_cacq_sharing
//! ```

use tcq_bench::{kv, kv_schema, route_one, timed, Table};
use tcq_common::rng::seeded;
use tcq_common::{BitSet, BoundExpr, CmpOp, Expr, Value};
use tcq_stems::{GroupedFilter, QueryStem};

const TUPLES: usize = 20_000;

fn experiment_e3() {
    println!("E3 — N standing selection queries over one stream ({TUPLES} tuples)\n");
    let schema = kv_schema("S");
    let mut rng = seeded(31);
    let tuples: Vec<_> = (0..TUPLES)
        .map(|i| {
            kv(
                &schema,
                rng.gen_range(0..100),
                rng.gen_range(0..1000),
                i as i64,
            )
        })
        .collect();

    let mut table = Table::new(&["queries", "shared us", "per-query us", "speedup", "matches"]);
    for n in [1usize, 4, 16, 64, 256, 1024] {
        // Each query: v in [lo, lo+50) — selective ranges.
        let preds: Vec<Expr> = (0..n)
            .map(|q| {
                let lo = (q * 13 % 950) as i64;
                Expr::col("v")
                    .cmp(CmpOp::Ge, Expr::lit(lo))
                    .and(Expr::col("v").cmp(CmpOp::Lt, Expr::lit(lo + 50)))
            })
            .collect();

        // Shared: one QueryStem.
        let mut qstem = QueryStem::new(schema.clone());
        for (q, p) in preds.iter().enumerate() {
            qstem.insert_query(q, Some(p)).unwrap();
        }
        let (shared_matches, shared_us) = timed(|| {
            let mut total = 0usize;
            for t in &tuples {
                total += qstem.matching(t).unwrap().len();
            }
            total
        });

        // Baseline: evaluate every query's bound predicate per tuple.
        let bound: Vec<BoundExpr> = preds.iter().map(|p| p.bind(&schema).unwrap()).collect();
        let (naive_matches, naive_us) = timed(|| {
            let mut total = 0usize;
            for t in &tuples {
                for b in &bound {
                    if b.eval_pred(t).unwrap() {
                        total += 1;
                    }
                }
            }
            total
        });
        assert_eq!(
            shared_matches, naive_matches,
            "sharing must not change answers"
        );
        table.row(vec![
            n.to_string(),
            shared_us.to_string(),
            naive_us.to_string(),
            format!("{:.1}x", naive_us as f64 / shared_us.max(1) as f64),
            shared_matches.to_string(),
        ]);
    }
    table.print();
    println!(
        "\n  shape check ([MSHR02] Fig. 7 analogue): shared cost grows sub-linearly\n\
         \x20 in #queries (index probe + output size) while per-query evaluation\n\
         \x20 grows linearly — the gap widens with query count.\n"
    );
}

fn experiment_e4() {
    println!("E4 — one grouped filter vs per-factor evaluation (probe cost)\n");
    let mut rng = seeded(37);
    let probes: Vec<Value> = (0..TUPLES)
        .map(|_| Value::Int(rng.gen_range(0..1000)))
        .collect();

    let mut table = Table::new(&["factors", "grouped us", "naive us", "speedup"]);
    for n in [16usize, 64, 256, 1024, 4096] {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let factors: Vec<(usize, CmpOp, Value)> = (0..n)
            .map(|i| (i, ops[i % 6], Value::Int((i as i64 * 7) % 1000)))
            .collect();
        let mut gf = GroupedFilter::new();
        for (id, op, c) in &factors {
            gf.insert(*id, *op, c.clone()).unwrap();
        }
        let (g_total, g_us) = timed(|| {
            let mut total = 0usize;
            let mut out = BitSet::new();
            for p in &probes {
                out.clear();
                gf.eval(p, &mut out);
                total += out.len();
            }
            total
        });
        let (n_total, n_us) = timed(|| {
            let mut total = 0usize;
            for p in &probes {
                for (_, op, c) in &factors {
                    if p.sql_cmp(c).unwrap().is_some_and(|o| op.matches(o)) {
                        total += 1;
                    }
                }
            }
            total
        });
        assert_eq!(g_total, n_total);
        table.row(vec![
            n.to_string(),
            g_us.to_string(),
            n_us.to_string(),
            format!("{:.1}x", n_us as f64 / g_us.max(1) as f64),
        ]);
    }
    table.print();
    println!(
        "\n  shape check: the naive path is linear in #factors; the grouped filter\n\
         \x20 pays a logarithmic probe plus output size, so speedup grows with\n\
         \x20 the number of standing predicates.\n"
    );
}

fn main() {
    experiment_e3();
    experiment_e3b();
    experiment_e4();
}

/// E3b — shared JOIN processing: N join queries over one SharedEddy (one
/// SteM pair, lineage-based delivery) vs N dedicated eddies (one SteM pair
/// EACH). This is CACQ's central claim applied to stateful operators.
fn experiment_e3b() {
    use tcq_eddy::{Eddy, EddyConfig, FixedPolicy, ModuleSpec, SharedEddy};
    use tcq_operators::symmetric_hash_join;

    println!("E3b — shared join: one SteM pair for all queries vs one pair each\n");
    let l = kv_schema("L");
    let r = kv_schema("R");
    let mut rng = seeded(47);
    let n_rows = 5_000usize;
    let rows: Vec<(bool, i64, i64)> = (0..n_rows)
        .map(|_| {
            (
                rng.gen_bool(0.5),
                rng.gen_range(0..200i64),
                rng.gen_range(0..100i64),
            )
        })
        .collect();

    let mut table = Table::new(&[
        "queries",
        "shared us",
        "dedicated us",
        "speedup",
        "shared builds",
        "dedicated builds",
    ]);
    for n in [1usize, 8, 32, 128] {
        // Shared: one SharedEddy, N queries with different left filters.
        let mut shared = SharedEddy::joined(l.clone(), "k", r.clone(), "k", None).unwrap();
        for q in 0..n {
            let pred = Expr::col("v").cmp(CmpOp::Ge, Expr::lit((q % 100) as i64));
            shared.add_join_query(q, Some(&pred), None).unwrap();
        }
        let (shared_outs, shared_us) = timed(|| {
            let mut outs = 0usize;
            for (i, (left, k, v)) in rows.iter().enumerate() {
                let out = if *left {
                    shared.push_left(kv(&l, *k, *v, i as i64 + 1)).unwrap()
                } else {
                    shared.push_right(kv(&r, *k, *v, i as i64 + 1)).unwrap()
                };
                outs += out.iter().map(|(_, qs)| qs.len()).sum::<usize>();
            }
            outs
        });
        let shared_builds = shared.stats().builds;

        // Dedicated: N separate eddies, each with its own SteM pair.
        let mut eddies: Vec<Eddy> = (0..n)
            .map(|q| {
                let mut e = Eddy::new(
                    &["L", "R"],
                    Box::new(FixedPolicy::new(vec![0, 1, 2])),
                    EddyConfig::default(),
                )
                .unwrap();
                let (lb, rb) = (e.source_bit("L").unwrap(), e.source_bit("R").unwrap());
                let (sl, sr) = symmetric_hash_join(&l, "L", "k", &r, "R", "k").unwrap();
                e.add_module(ModuleSpec::stem(Box::new(sl), lb, rb))
                    .unwrap();
                e.add_module(ModuleSpec::stem(Box::new(sr), rb, lb))
                    .unwrap();
                let pred = Expr::qcol("L", "v").cmp(CmpOp::Ge, Expr::lit((q % 100) as i64));
                let f = tcq_operators::SelectOp::new("f", &pred, &l).unwrap();
                e.add_module(ModuleSpec::filter(Box::new(f), lb)).unwrap();
                e
            })
            .collect();
        let (dedicated_outs, dedicated_us) = timed(|| {
            let mut outs = 0usize;
            for (i, (left, k, v)) in rows.iter().enumerate() {
                let row = if *left {
                    kv(&l, *k, *v, i as i64 + 1)
                } else {
                    kv(&r, *k, *v, i as i64 + 1)
                };
                for e in &mut eddies {
                    outs += route_one(e, row.clone());
                }
            }
            outs
        });
        assert_eq!(
            shared_outs, dedicated_outs,
            "sharing must not change answers"
        );
        table.row(vec![
            n.to_string(),
            shared_us.to_string(),
            dedicated_us.to_string(),
            format!("{:.1}x", dedicated_us as f64 / shared_us.max(1) as f64),
            shared_builds.to_string(),
            (n as u64 * shared_builds).to_string(),
        ]);
    }
    table.print();
    println!(
        "\n  shape check: dedicated processing replicates every build and probe N\n\
         \x20 times; the shared eddy does the join work ONCE and fans out by\n\
         \x20 lineage — the speedup approaches N for state-heavy plans.\n"
    );
}
