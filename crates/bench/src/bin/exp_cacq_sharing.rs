//! Experiments E3 + E3b (DESIGN.md): CACQ shared processing, reproducing
//! the shape of Madden et al. \[MSHR02\] — shared execution "match\[es\] or
//! significantly exceed\[s\] the performance of existing static continuous
//! query systems" as the number of standing queries grows.
//!
//! * E3 — N selection queries over one stream: one pass through the
//!   [`QueryStem`] the server's shared filter uses, per tuple, vs evaluating
//!   every query's predicate separately. [`MatchScratch::examined`] counts
//!   the index entries each probe touched: O(log n + matches), gated at
//!   `(matches + 1) · 2⌈log₂ n⌉ + 256` per tuple.
//! * E3b — N join queries on one server share one join DU: SteM rows per
//!   input row do not grow with N, and each query gets exactly its join.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_cacq_sharing [-- --smoke]
//! ```
//!
//! `--smoke` runs E3 at 1 024 queries and E3b at reduced scale: their gates
//! are counts.

use tcq_bench::{kv, kv_schema, timed, Table};
use tcq_common::rng::seeded;
use tcq_common::{BoundExpr, CmpOp, Expr};
use tcq_stems::{MatchScratch, QueryStem};

const TUPLES: usize = 20_000;

fn experiment_e3(ns: &[usize]) {
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

    let mut table = Table::new(&[
        "queries",
        "shared us",
        "per-query us",
        "speedup",
        "matches",
        "examined/tuple",
    ]);
    for &n in ns {
        // Each query: v in [lo, lo+50) — selective ranges.
        let preds: Vec<Expr> = (0..n)
            .map(|q| {
                let lo = (q * 13 % 950) as i64;
                Expr::col("v")
                    .cmp(CmpOp::Ge, Expr::lit(lo))
                    .and(Expr::col("v").cmp(CmpOp::Lt, Expr::lit(lo + 50)))
            })
            .collect();

        // Shared: one QueryStem, probed as the server's shared filter does.
        let mut qstem = QueryStem::new(schema.clone());
        for (q, p) in preds.iter().enumerate() {
            qstem.insert_query(q, Some(p)).unwrap();
        }
        let per_match = 2 * (usize::BITS - (n - 1).leading_zeros()) as usize; // 2·⌈log2 n⌉
        let mut scratch = MatchScratch::new();
        let ((shared_matches, examined), shared_us) = timed(|| {
            let (mut total, mut examined) = (0usize, 0usize);
            for t in &tuples {
                qstem.matching_into(t, &mut scratch).unwrap();
                let (e, m) = (scratch.examined(), scratch.matches().len());
                assert!(
                    e <= (m + 1) * per_match + 256,
                    "{n} queries: a probe examined {e} index entries for {m} matches"
                );
                total += m;
                examined += e;
            }
            (total, examined)
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
            format!("{:.1}", examined as f64 / TUPLES as f64),
        ]);
    }
    table.print();
    println!(
        "\n  shape check ([MSHR02] Fig. 7 analogue): shared cost grows sub-linearly\n\
         \x20 in #queries (index probe + output size) while per-query evaluation\n\
         \x20 grows linearly — the gap widens with query count. Entries examined\n\
         \x20 per tuple stay within (matches + 1)·2⌈log2 n⌉ + 256: O(log n + matches).\n"
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        experiment_e3(&[1024]);
        experiment_e3b(&[1, 8, 32], 2_000);
        return;
    }
    experiment_e3(&[1, 4, 16, 64, 256, 1024]);
    experiment_e3b(&[1, 8, 32, 128], 4_000);
}

/// Join CQ `q` of E3b: its own predicates on both sides and a band factor
/// over both on every fourth.
fn join_cq(q: usize) -> String {
    let mut filters = format!("a.v >= {}", 10 + q % 40);
    if q % 2 == 1 {
        filters += &format!(" AND b.v < {}", 50 + q % 50);
    }
    if q % 4 == 3 {
        filters += &format!(" AND a.v + b.v > {}", q % 100);
    }
    format!(
        "SELECT a.k, a.v, b.v FROM L a, R b WHERE a.k = b.k AND {filters} \
         for (t = ST; t >= 0; t++) {{ WindowIs(a, 1, t); WindowIs(b, 1, t); }}"
    )
}

/// CQ `q`'s own predicate on an `L` row.
fn left_admits(q: usize, lv: i64) -> bool {
    lv >= 10 + q as i64 % 40
}

/// CQ `q`'s own predicate on an `R` row.
fn right_admits(q: usize, rv: i64) -> bool {
    q.is_multiple_of(2) || rv < 50 + q as i64 % 50
}

/// Does the pair `(lv, rv)` pass CQ `q`'s predicates?
fn join_cq_admits(q: usize, lv: i64, rv: i64) -> bool {
    left_admits(q, lv) && right_admits(q, rv) && (q % 4 != 3 || lv + rv > q as i64 % 100)
}

/// E3b — shared JOIN processing on the server (§3.1): N join CQs on one
/// stream pair and key run as one join group — one SteM per side, filtered
/// at build by the OR of the members' side predicates — and each output is
/// completed per query. Counted, not timed: the SteMs store every input
/// row the OR admits once, whatever N (never N copies), and every query
/// receives exactly its own join.
fn experiment_e3b(ns: &[usize], n_rows: usize) {
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};
    use tcq_server::{ServerConfig, TelegraphCQ};

    println!("E3b — N join CQs on one server: one SteM per side for all of them\n");
    let (l, r) = (kv_schema("L"), kv_schema("R"));
    let mut rng = seeded(47);
    // (left side?, k, v), stamped in arrival order.
    let rows: Vec<(bool, i64, i64)> = (0..n_rows)
        .map(|_| {
            (
                rng.gen_bool(0.5),
                rng.gen_range(0..n_rows as i64 / 4),
                rng.gen_range(0..100i64),
            )
        })
        .collect();
    let (lefts, rights): (Vec<_>, Vec<_>) = rows.iter().partition(|row| row.0);

    let mut table = Table::new(&[
        "queries",
        "stem rows",
        "per input row",
        "delivered",
        "member B/query",
        "ms",
    ]);
    for &n in ns {
        // The reference: each CQ's join, nested loop, as (k, lv, rv).
        let mut want: Vec<Vec<(i64, i64, i64)>> = vec![Vec::new(); n];
        for &&(_, lk, lv) in &lefts {
            for &&(_, rk, rv) in &rights {
                for (q, w) in want.iter_mut().enumerate() {
                    if lk == rk && join_cq_admits(q, lv, rv) {
                        w.push((lk, lv, rv));
                    }
                }
            }
        }
        let total: usize = want.iter().map(Vec::len).sum();

        let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
        server.register_stream("L", l.clone()).unwrap();
        server.register_stream("R", r.clone()).unwrap();
        // Room for every reference row: egress never waits on a client, so
        // a smaller channel sheds whenever the receiver is descheduled and
        // the count below never completes.
        let (client, rx) = server.connect_push_client(total).unwrap();
        let qids: Vec<usize> = (0..n)
            .map(|q| server.submit(&join_cq(q), client).unwrap())
            .collect();
        assert_eq!(server.shared_join_count(), 1, "{n} join CQs, one join DU");

        let start = Instant::now();
        let first = qids[0];
        let (got, rx) = std::thread::scope(|scope| {
            let receiver = scope.spawn(move || {
                let mut got: BTreeMap<usize, Vec<(i64, i64, i64)>> = BTreeMap::new();
                for _ in 0..total {
                    let (qid, t) = rx.recv_timeout(Duration::from_secs(60)).unwrap();
                    let v = |i: usize| t.value(i).as_int().unwrap();
                    got.entry(qid - first).or_default().push((v(0), v(1), v(2)));
                }
                (got, rx)
            });
            for (i, &(left, k, v)) in rows.iter().enumerate() {
                let (stream, schema) = if left { ("L", &l) } else { ("R", &r) };
                server.push(stream, kv(schema, k, v, i as i64 + 1)).unwrap();
            }
            receiver.join().unwrap()
        });
        let ms = start.elapsed().as_millis();
        std::thread::sleep(Duration::from_millis(50));
        assert!(rx.try_recv().is_err(), "deliveries beyond the reference");
        for (q, mut w) in want.into_iter().enumerate() {
            let mut g = got.get(&q).cloned().unwrap_or_default();
            g.sort_unstable();
            w.sort_unstable();
            assert_eq!(g, w, "CQ {q} ({}) differs from its reference", join_cq(q));
        }

        let stem_rows = server.join_state_rows(qids[0]).unwrap();
        let or_rows = (lefts.iter())
            .filter(|row| (0..n).any(|q| left_admits(q, row.2)))
            .count()
            + (rights.iter())
                .filter(|row| (0..n).any(|q| right_admits(q, row.2)))
                .count();
        assert_eq!(
            stem_rows, or_rows,
            "the SteMs store each row the OR of the side predicates admits, once"
        );
        let member_bytes: usize = (server.shared_memory_stats().iter())
            .filter(|s| s.label.starts_with("join:"))
            .map(|s| s.approx_bytes)
            .sum();
        table.row(vec![
            n.to_string(),
            stem_rows.to_string(),
            format!("{:.3}", stem_rows as f64 / n_rows as f64),
            total.to_string(),
            (member_bytes / n).to_string(),
            ms.to_string(),
        ]);
        server.shutdown().unwrap();
    }
    table.print();
    println!(
        "\n  shape check: SteM rows per input row stay at or below 1 for every N\n\
         \x20 (N dedicated joins would store up to N copies), while deliveries\n\
         \x20 grow with N — each CQ exactly its own join.\n"
    );
}
