//! One routing loop, every way in: the eddy's answers and counters must
//! not depend on how its input is cut into batches or on whether modules
//! run columnar. Each workload is routed in mixed-source chunks (the shape
//! an exchange worker sees), as one-tuple batches, and through modules
//! that refuse every columnar visit, and checked against nested loops.

use std::sync::Arc;

use tcq_common::{
    CmpOp, DataType, Expr, Field, Result, Schema, SchemaRef, Timestamp, Tuple, TupleBuilder,
};
use tcq_eddy::{
    Eddy, EddyConfig, EddyStats, Emitted, FixedPolicy, LotteryPolicy, ModuleSpec, RoutingPolicy,
    SourceSet,
};
use tcq_operators::{symmetric_hash_join, EddyModule, Routed, SelectOp, StemOp};
use tcq_stems::IndexKind;

fn s_schema(q: &str) -> SchemaRef {
    Schema::qualified(
        q,
        vec![
            Field::new("k", DataType::Int),
            Field::new("x", DataType::Int),
        ],
    )
    .into_ref()
}

fn row(schema: &SchemaRef, k: i64, x: i64, ts: i64) -> Tuple {
    TupleBuilder::new(schema.clone())
        .push(k)
        .push(x)
        .at(Timestamp::logical(ts))
        .build()
        .unwrap()
}

/// Route one tuple; the rows it emits.
fn route(eddy: &mut Eddy, tuple: Tuple) -> Vec<Tuple> {
    let mut out = Vec::new();
    eddy.process_batch(vec![tuple], &mut out).unwrap();
    out.into_iter().flat_map(Emitted::into_rows).collect()
}

/// Forwards every call to the wrapped module but answers `Fallback` from
/// `process_columnar`, so every visit takes the row arm.
struct RowOnly<M>(M);

impl<M: EddyModule> EddyModule for RowOnly<M> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn process(&mut self, tuple: &Tuple) -> Result<Routed> {
        self.0.process(tuple)
    }
    fn process_batch(&mut self, tuples: &[Tuple], out: &mut Vec<Routed>) -> Result<()> {
        self.0.process_batch(tuples, out)
    }
    fn key_column_hint(&mut self, schema: &SchemaRef) -> Option<usize> {
        self.0.key_column_hint(schema)
    }
    fn advance_to(&mut self, seq: i64) {
        self.0.advance_to(seq)
    }
    fn state_size(&self) -> usize {
        self.0.state_size()
    }
    fn export_dirty_groups(&mut self, out: &mut Vec<(u64, Vec<u8>)>) -> Result<()> {
        self.0.export_dirty_groups(out)
    }
    fn import_group(&mut self, hash: u64, bytes: &[u8]) -> Result<()> {
        self.0.import_group(hash, bytes)
    }
    fn dirty_len(&self) -> usize {
        self.0.dirty_len()
    }
    fn clear_dirty(&mut self) {
        self.0.clear_dirty()
    }
}

fn module(m: impl EddyModule + 'static, row_only: bool) -> Box<dyn EddyModule> {
    if row_only {
        Box::new(RowOnly(m))
    } else {
        Box::new(m)
    }
}

/// A three-way star join `R ⋈ S ⋈ T` on `k`: one SteM per source, each
/// probed by tuples of either other source.
fn star_eddy(
    schemas: [&SchemaRef; 3],
    policy: Box<dyn RoutingPolicy>,
    config: EddyConfig,
    row_only: bool,
) -> Eddy {
    const SOURCES: [&str; 3] = ["R", "S", "T"];
    let mut eddy = Eddy::new(&SOURCES, policy, config).unwrap();
    let bits = SOURCES.map(|q| eddy.source_bit(q).unwrap());
    for (i, q) in SOURCES.into_iter().enumerate() {
        let others: Vec<_> = SOURCES.into_iter().filter(|&o| o != q).collect();
        let op = StemOp::new(
            format!("SteM({q})"),
            schemas[i].clone(),
            q,
            0,
            (Some(others[0].to_string()), "k".to_string()),
            IndexKind::Hash,
        )
        .unwrap()
        .with_extra_probe_key((Some(others[1].to_string()), "k".to_string()));
        let probed = bits.iter().sum::<SourceSet>() & !bits[i];
        eddy.add_module(ModuleSpec::stem(module(op, row_only), bits[i], probed))
            .unwrap();
    }
    eddy
}

#[test]
fn three_way_star_join_on_common_key() {
    let (r, s, t) = (s_schema("R"), s_schema("S"), s_schema("T"));
    let policy = Box::new(FixedPolicy::new(vec![0, 1, 2]));
    let mut eddy = star_eddy([&r, &s, &t], policy, EddyConfig::default(), false);
    let mut emitted = Vec::new();
    // keys: R{1,2}, S{1,2}, T{1}: expect RST matches only for k=1
    emitted.extend(route(&mut eddy, row(&r, 1, 0, 1)));
    emitted.extend(route(&mut eddy, row(&r, 2, 0, 2)));
    emitted.extend(route(&mut eddy, row(&s, 1, 0, 3)));
    emitted.extend(route(&mut eddy, row(&s, 2, 0, 4)));
    emitted.extend(route(&mut eddy, row(&t, 1, 0, 5)));
    assert_eq!(emitted.len(), 1);
    assert_eq!(emitted[0].arity(), 6);
    // Another round: second T row with k=1 joins with R1 and S1 -> 1 more
    emitted.extend(route(&mut eddy, row(&t, 1, 9, 6)));
    assert_eq!(emitted.len(), 2);
}

/// `n` rows over random sources among `schemas`, keyed in `0..keys`, with
/// `x` = arrival index so every output row is identifiable.
fn mixed_workload(schemas: &[&SchemaRef], n: i64, keys: i64) -> Vec<Tuple> {
    let mut rng = tcq_common::rng::seeded(123);
    (0..n)
        .map(|i| {
            let schema = schemas[rng.gen_range(0..schemas.len())];
            row(schema, rng.gen_range(0..keys), i, i)
        })
        .collect()
}

fn x_of(t: &Tuple, q: &str) -> i64 {
    t.get(Some(q), "x").unwrap().as_int().unwrap()
}

fn k_of(t: &Tuple) -> i64 {
    t.value(0).as_int().unwrap()
}

fn of<'a>(rows: &'a [Tuple], schema: &'a SchemaRef) -> impl Iterator<Item = &'a Tuple> + 'a {
    rows.iter().filter(move |t| Arc::ptr_eq(t.schema(), schema))
}

/// Routes `rows` three ways — mixed-source 64-row chunks, one-tuple
/// batches, and 64-row chunks through [`RowOnly`] modules — and checks each
/// run's output, keyed by the `x` of each of `sources`, against the sorted
/// nested-loop `expected`. Returns the three runs' counters and whether the
/// chunked run emitted a columnar run.
fn route_three_ways(
    build: &dyn Fn(bool) -> Eddy,
    rows: &[Tuple],
    sources: &[&str],
    expected: &[Vec<i64>],
) -> ([EddyStats; 3], bool) {
    let mut columnar = false;
    let stats = [(64, false), (1, false), (64, true)].map(|(chunk, row_only)| {
        let mut eddy = build(row_only);
        let mut out = Vec::new();
        for c in rows.chunks(chunk) {
            eddy.process_batch(c.to_vec(), &mut out).unwrap();
        }
        columnar |= chunk > 1
            && !row_only
            && out
                .iter()
                .any(|e| matches!(e, Emitted::Columns(b) if !b.is_empty()));
        let mut got: Vec<Vec<i64>> = out
            .into_iter()
            .flat_map(Emitted::into_rows)
            .map(|t| sources.iter().map(|q| x_of(&t, q)).collect())
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected, "chunk={chunk} row_only={row_only}");
        eddy.stats()
    });
    (stats, columnar)
}

#[test]
fn chunked_single_and_row_only_routing_match_nested_loops() {
    // Every way into the one routing loop — mixed-source chunks (the
    // exchange worker's shape), one-tuple batches, and the row arm alone —
    // must deliver the nested-loop join exactly. The 3-way chunked case is
    // the one the run rule fixes: routed as queued signature groups, an RS
    // intermediate probed SteM(T) after a later T run of its chunk had
    // built there and reached the same triple, so the triple came out
    // twice.
    let (r, s, t) = (s_schema("R"), s_schema("S"), s_schema("T"));
    let two = mixed_workload(&[&s, &t], 600, 20);
    let mut two_expected = Vec::new();
    for a in of(&two, &s).filter(|a| x_of(a, "S") >= 300) {
        for b in of(&two, &t).filter(|b| k_of(b) == k_of(a)) {
            two_expected.push(vec![x_of(a, "S"), x_of(b, "T")]);
        }
    }
    two_expected.sort_unstable();
    let star = mixed_workload(&[&r, &s, &t], 450, 15);
    let mut star_expected = Vec::new();
    for a in of(&star, &r) {
        for b in of(&star, &s).filter(|b| k_of(b) == k_of(a)) {
            for c in of(&star, &t).filter(|c| k_of(c) == k_of(a)) {
                star_expected.push(vec![x_of(a, "R"), x_of(b, "S"), x_of(c, "T")]);
            }
        }
    }
    star_expected.sort_unstable();

    // A fixed order routes identically however tuples are grouped, so every
    // counter must agree; the lottery's decisions depend on the grouping,
    // so only its answers and totals must.
    for (fixed, batch_size) in [(true, 1), (true, 64), (false, 1), (false, 64)] {
        let policy = |order: Vec<usize>| -> Box<dyn RoutingPolicy> {
            if fixed {
                Box::new(FixedPolicy::new(order))
            } else {
                Box::new(LotteryPolicy::new())
            }
        };
        let config = EddyConfig {
            batch_size,
            seed: 7,
        };
        let two_way = |row_only: bool| {
            let mut eddy = Eddy::new(&["S", "T"], policy(vec![2, 0, 1]), config.clone()).unwrap();
            let (sb, tb) = (eddy.source_bit("S").unwrap(), eddy.source_bit("T").unwrap());
            let (stem_s, stem_t) = symmetric_hash_join(&s, "S", "k", &t, "T", "k").unwrap();
            let f = SelectOp::new(
                "S.x>=300",
                &Expr::qcol("S", "x").cmp(CmpOp::Ge, Expr::lit(300i64)),
                &s,
            )
            .unwrap();
            for spec in [
                ModuleSpec::stem(module(stem_s, row_only), sb, tb),
                ModuleSpec::stem(module(stem_t, row_only), tb, sb),
                ModuleSpec::filter(module(f, row_only), sb),
            ] {
                eddy.add_module(spec).unwrap();
            }
            eddy
        };
        let star_way = |row_only: bool| {
            star_eddy(
                [&r, &s, &t],
                policy(vec![0, 1, 2]),
                config.clone(),
                row_only,
            )
        };
        let (two_stats, columnar) = route_three_ways(&two_way, &two, &["S", "T"], &two_expected);
        assert!(
            columnar,
            "the 2-way join hot path should stay columnar end to end"
        );
        let (star_stats, _) = route_three_ways(&star_way, &star, &["R", "S", "T"], &star_expected);
        for [chunked, single, row_only] in [two_stats, star_stats] {
            for other in [single, row_only] {
                assert_eq!(chunked.tuples_in, other.tuples_in);
                assert_eq!(chunked.emitted, other.emitted);
                if fixed {
                    assert_eq!(chunked.visits, other.visits);
                }
            }
            if batch_size == 1 {
                // One decision per run visit, not per tuple visit (runs of
                // a random source average two tuples).
                assert!(
                    chunked.decisions < single.decisions,
                    "chunks should share decisions: {} vs {}",
                    chunked.decisions,
                    single.decisions
                );
            }
        }
    }
}
