//! Property-based tests over the engine's core invariants, driven by
//! deterministic seeded case generation (`tcq_common::rng`) so the suite
//! needs no external property-testing crate and every failure replays
//! from its printed property stream and case index.
//!
//! Each property pins an algebraic contract from the paper to a reference
//! implementation: eddies must not change query semantics no matter how
//! they route; a standing query's materialized answer must equal its
//! recomputation from history; spooling to disk must be lossless;
//! repartitioning and failover must not corrupt answers.

use telegraphcq::common::rng::{derive_seed, seeded, TcqRng};
use telegraphcq::prelude::*;
use telegraphcq::windows::{CondOp, Condition, Step, WindowIs};

/// Run `body` for `cases` deterministic cases. The per-case RNG derives
/// from a property-specific stream id, so adding a property never shifts
/// another property's cases; a failing case replays from (stream, case).
fn check(stream: u64, cases: u64, mut body: impl FnMut(&mut TcqRng)) {
    for case in 0..cases {
        let mut rng = seeded(derive_seed(stream, case));
        body(&mut rng);
    }
}

fn kv_schema(q: &str) -> SchemaRef {
    Schema::qualified(
        q,
        vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ],
    )
    .into_ref()
}

fn kv(schema: &SchemaRef, k: i64, v: i64, ts: i64) -> Tuple {
    TupleBuilder::new(schema.clone())
        .push(k)
        .push(v)
        .at(Timestamp::logical(ts))
        .build()
        .unwrap()
}

/// Any routing policy, any seed, any interleaving: the eddy's join ∪
/// filter output equals the nested-loop reference as a multiset.
#[test]
fn eddy_semantics_invariant_under_routing() {
    use telegraphcq::eddy::{FixedPolicy, RandomPolicy, RoutingPolicy};
    check(0xE1, 48, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let policy_sel = rng.gen_range(0usize..3);
        let threshold = rng.gen_range(0i64..10);
        let rows: Vec<(i64, i64, bool)> = (0..rng.gen_range(1usize..120))
            .map(|_| (rng.gen_range(0i64..12), rng.gen_range(0i64..10), rng.gen()))
            .collect();

        let s = kv_schema("S");
        let t = kv_schema("T");
        let policy: Box<dyn RoutingPolicy> = match policy_sel {
            0 => Box::new(FixedPolicy::new(vec![0, 1, 2])),
            1 => Box::new(RandomPolicy),
            _ => Box::new(LotteryPolicy::new()),
        };
        let mut eddy = Eddy::new(
            &["S", "T"],
            policy,
            EddyConfig {
                batch_size: 1,
                seed,
            },
        )
        .unwrap();
        let (sb, tb) = (eddy.source_bit("S").unwrap(), eddy.source_bit("T").unwrap());
        let (stem_s, stem_t) =
            telegraphcq::operators::symmetric_hash_join(&s, "S", "k", &t, "T", "k").unwrap();
        eddy.add_module(ModuleSpec::stem(Box::new(stem_s), sb, tb))
            .unwrap();
        eddy.add_module(ModuleSpec::stem(Box::new(stem_t), tb, sb))
            .unwrap();
        let filter = SelectOp::new(
            "fS",
            &Expr::qcol("S", "v").cmp(CmpOp::Ge, Expr::lit(threshold)),
            &s,
        )
        .unwrap();
        eddy.add_module(ModuleSpec::filter(Box::new(filter), sb))
            .unwrap();

        let mut s_rows = Vec::new();
        let mut t_rows = Vec::new();
        let mut emitted = Vec::new();
        for (i, (k, v, left)) in rows.iter().enumerate() {
            let ts = i as i64 + 1;
            let r = if *left {
                let r = kv(&s, *k, *v, ts);
                s_rows.push(r.clone());
                r
            } else {
                let r = kv(&t, *k, *v, ts);
                t_rows.push(r.clone());
                r
            };
            eddy.process_batch(vec![r], &mut emitted).unwrap();
        }
        let emitted: usize = emitted.iter().map(|run| run.len()).sum();
        let mut expected = 0usize;
        for sr in &s_rows {
            for tr in &t_rows {
                if sr.value(0) == tr.value(0) && sr.value(1).as_int().unwrap() >= threshold {
                    expected += 1;
                }
            }
        }
        assert_eq!(emitted, expected, "policy {policy_sel} seed {seed}");
    });
}

/// Spool-then-scan is lossless and window scans return exactly the
/// requested range, in order.
#[test]
fn archive_roundtrip() {
    use telegraphcq::storage::{BufferPool, StreamArchive};
    check(0xE3, 32, |rng| {
        let n = rng.gen_range(1usize..400);
        let l = rng.gen_range(1i64..400);
        let width = rng.gen_range(0i64..100);
        let page_size = [256usize, 512, 4096][rng.gen_range(0usize..3)];

        let schema = kv_schema("s");
        let pool = BufferPool::new(3, page_size);
        let path = std::env::temp_dir().join(format!(
            "tcq-prop-archive-{}-{n}-{page_size}.seg",
            std::process::id()
        ));
        let mut archive = StreamArchive::create(&path, schema.clone(), pool).unwrap();
        for i in 1..=n as i64 {
            archive.append(&kv(&schema, i % 7, i, i)).unwrap();
        }
        // Full scan.
        let mut all = Vec::new();
        archive.scan_window(i64::MIN, i64::MAX, &mut all).unwrap();
        assert_eq!(all.len(), n);
        assert!(all
            .windows(2)
            .all(|w| w[0].timestamp().seq() < w[1].timestamp().seq()));
        // Window scan.
        let r = l + width;
        let mut out = Vec::new();
        archive.scan_window(l, r, &mut out).unwrap();
        let expect = (l.max(1)..=r.min(n as i64)).count();
        assert_eq!(out.len(), expect);
        assert!(out.iter().all(|t| {
            let s = t.timestamp().seq();
            l <= s && s <= r
        }));
        std::fs::remove_file(path).ok();
    });
}

/// SteM eviction: after sliding the window, probes never return evicted
/// tuples, and always return every live match.
#[test]
fn stem_eviction_exactness() {
    use telegraphcq::stems::{IndexKind, SteM};
    check(0xE4, 48, |rng| {
        let inserts: Vec<(i64, i64)> = (0..rng.gen_range(1usize..120))
            .map(|_| (rng.gen_range(0i64..5), rng.gen_range(1i64..200)))
            .collect();
        let cutoff = rng.gen_range(1i64..200);

        let schema = kv_schema("s");
        let mut stem = SteM::new("s", schema.clone(), 0, IndexKind::Hash).unwrap();
        for (k, ts) in &inserts {
            stem.insert(kv(&schema, *k, 0, *ts)).unwrap();
        }
        stem.evict_before_seq(cutoff);
        for key in 0..5i64 {
            let mut out = Vec::new();
            stem.probe_eq(&Value::Int(key), &mut out);
            let mut expect: Vec<i64> = inserts
                .iter()
                .filter(|(k, ts)| *k == key && *ts >= cutoff)
                .map(|(_, ts)| *ts)
                .collect();
            let mut got: Vec<i64> = out.iter().map(|t| t.timestamp().seq()).collect();
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    });
}

/// PSoup on the server (§3.2): a standing windowed filter CQ's answer,
/// read from its pull client's ring, equals the same predicate recomputed
/// from the archive over the span the read covers, for arbitrary history,
/// window widths and push/fetch interleavings.
#[test]
fn psoup_invoke_equals_recompute() {
    use std::time::{Duration, Instant};
    check(0xE5, 48, |rng| {
        let vals: Vec<i64> = (0..rng.gen_range(1usize..150))
            .map(|_| rng.gen_range(0i64..50))
            .collect();
        let history = rng.gen_range(0..vals.len());
        let width = rng.gen_range(1i64..40);
        let threshold = rng.gen_range(0i64..50);
        let fetch_every = rng.gen_range(1usize..20);

        let dir = std::env::temp_dir().join(format!(
            "tcq-prop-psoup-{}-{}",
            std::process::id(),
            rng.gen::<u64>()
        ));
        let server = TelegraphCQ::start(ServerConfig {
            archive_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let schema = kv_schema("s");
        server.register_stream("s", schema.clone()).unwrap();
        // A CQ every row passes: once it has row `i`, so has every ring.
        let clock = server.connect_pull_client(1 << 16).unwrap();
        server.submit("SELECT k FROM s", clock).unwrap();
        let push_through = |from: usize, to: usize| {
            for (i, v) in vals.iter().enumerate().take(to).skip(from) {
                let seq = i as i64 + 1;
                server.push("s", kv(&schema, seq, *v, seq)).unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let got = server.fetch(clock, usize::MAX).unwrap();
                if got.last().map(|(_, t)| t.value(0).as_int().unwrap()) == Some(to as i64) {
                    return;
                }
                assert!(Instant::now() < deadline, "row {to} never reached egress");
                std::thread::sleep(Duration::from_micros(200));
            }
        };
        if history > 0 {
            push_through(0, history);
        }

        let pred = format!("v > {threshold}");
        let client = server.connect_pull_client(1 << 16).unwrap();
        server
            .submit(
                &format!(
                    "SELECT k, v FROM s WHERE {pred} \
                     for (t = ST; t >= 0; t++) {{ WindowIs(s, t - {}, t); }}",
                    width - 1
                ),
                client,
            )
            .unwrap();
        let mut from = (history as i64 - width + 1).max(1);
        let mut pushed = history;
        while pushed < vals.len() {
            let to = (pushed + fetch_every).min(vals.len());
            push_through(pushed, to);
            pushed = to;
            let materialized: Vec<Tuple> = (server.fetch(client, usize::MAX).unwrap())
                .into_iter()
                .map(|(_, t)| t)
                .collect();
            let again = server
                .submit(
                    &format!(
                        "SELECT k, v FROM s WHERE {pred} \
                         for (; t == 0; t = -1) {{ WindowIs(s, {from}, {to}); }}"
                    ),
                    client,
                )
                .unwrap();
            let recomputed: Vec<Tuple> = (server.fetch(client, usize::MAX).unwrap())
                .into_iter()
                .map(|(qid, t)| {
                    assert_eq!(qid, again);
                    t
                })
                .collect();
            server.stop_query(again).unwrap();
            assert_eq!(materialized, recomputed, "span [{from}, {to}]");
            from = to as i64 + 1;
        }
        assert_eq!(server.egress_stats_full().displaced, 0);
        server.shutdown().unwrap();
        std::fs::remove_dir_all(dir).ok();
    });
}

/// Flux: random rebalance cadence, random victim, replication on —
/// group-by answers always equal the reference.
#[test]
fn flux_correct_under_failure_and_rebalance() {
    use telegraphcq::flux::{FluxCluster, FluxConfig};
    check(0xE6, 32, |rng| {
        let n = rng.gen_range(100usize..800);
        let keys = rng.gen_range(1i64..40);
        let kill_at = rng.gen_range(0usize..800);
        let rebalance = [0u64, 4, 16][rng.gen_range(0usize..3)];
        let victim = rng.gen_range(0usize..4);

        let schema = kv_schema("s");
        let cfg = FluxConfig::uniform(4)
            .with_replication()
            .with_rebalancing(rebalance);
        let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
        let mut reference: std::collections::HashMap<i64, (u64, f64)> = Default::default();
        let mut killed = false;
        for i in 0..n {
            let k = (i as i64 * 31 + 7) % keys;
            let t = kv(&schema, k, 1, i as i64 + 1);
            cluster.ingest(&t).unwrap();
            let e = reference.entry(k).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += 1.0;
            if i % 8 == 0 {
                cluster.tick();
            }
            if !killed && i == kill_at.min(n - 1) {
                cluster.kill_node(victim).unwrap();
                killed = true;
            }
        }
        cluster.run_until_drained(1_000_000);
        let got = cluster.results();
        assert_eq!(got.len(), reference.len());
        for (k, (c, s)) in reference {
            let (gc, gs) = got.get(&Value::Int(k)).copied().unwrap();
            assert_eq!(gc, c, "count for key {k}");
            assert!((gs - s).abs() < 1e-9);
        }
    });
}

/// Window sequences: every generated window respects its declared
/// direction and bounds, and forward specs produce monotonically
/// advancing right edges.
#[test]
fn window_sequences_well_formed() {
    check(0xE7, 48, |rng| {
        let init = rng.gen_range(0i64..50);
        let span = rng.gen_range(1i64..60);
        let hop = rng.gen_range(1i64..10);
        let width = rng.gen_range(0i64..10);

        let spec = ForLoop {
            init: LinExpr::constant(init),
            cond: Condition {
                op: CondOp::Le,
                bound: LinExpr::constant(init + span),
            },
            step: Step::Add(hop),
            windows: vec![WindowIs::new("s", LinExpr::t_plus(-width), LinExpr::t())],
        };
        let kind = telegraphcq::windows::classify(&spec).unwrap();
        let is_sliding = matches!(kind, WindowKind::Sliding { .. });
        assert!(is_sliding);
        if let WindowKind::Sliding { hop: h, width: w } = kind {
            assert_eq!(h, hop);
            assert_eq!(w, width + 1);
        }
        let assignments: Vec<_> = WindowSeq::new(spec, 1)
            .collect::<telegraphcq::common::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(assignments.len() as i64, span / hop + 1);
        let mut prev_right = i64::MIN;
        for wa in &assignments {
            let w = wa.window_for("s").unwrap();
            assert!(w.left <= w.right);
            assert!(w.right > prev_right);
            prev_right = w.right;
        }
    });
}

/// Deterministic seeds are reproducible across the whole pipeline (one
/// fixed check).
#[test]
fn seeded_rng_stability() {
    let mut a = seeded(123);
    let mut b = seeded(123);
    let va: Vec<u32> = (0..32).map(|_| a.gen()).collect();
    let vb: Vec<u32> = (0..32).map(|_| b.gen()).collect();
    assert_eq!(va, vb);
}
