//! Differential property tests for the query SteM (anchors + interval
//! index) and the column-segment data SteM: randomized interleaved
//! operation sequences checked against naive per-query (resp. per-tuple)
//! evaluation.
//!
//! Removals tombstone interval entries and inserts buffer in a pending run
//! until a rebuild threshold trips, so interleaving guarantees many probes
//! land *mid-epoch* — after a removal, before compaction — where a stale
//! entry would surface instantly as a disagreement.

use std::collections::{BTreeSet, HashMap};

use tcq_common::{
    CmpOp, ColumnBatch, DataType, Expr, Field, Schema, SchemaRef, Timestamp, Tuple, Value,
};
use tcq_stems::{IndexKind, MatchScratch, QueryStem, SteM};

fn schema() -> SchemaRef {
    Schema::qualified(
        "s",
        vec![
            Field::new("sensor", DataType::Int),
            Field::new("val", DataType::Float),
        ],
    )
    .into_ref()
}

/// A random predicate spanning every access path of the stem — anchored
/// (sensor equality + band), interval (range factors only, in every shape
/// `insert_query` normalises) and none (match-all, `!=` only) — with Int and
/// Float constants mixed against the Float column.
fn random_pred(rng: &mut tcq_common::rng::TcqRng) -> Option<Expr> {
    fn lit(rng: &mut tcq_common::rng::TcqRng, c: i64) -> Expr {
        match rng.gen_range(0..3u32) {
            0 => Expr::lit(c),
            1 => Expr::lit(c as f64),
            _ => Expr::lit(c as f64 + 0.5),
        }
    }
    let lower = [CmpOp::Gt, CmpOp::Ge][rng.gen_range(0..2usize)];
    let upper = [CmpOp::Lt, CmpOp::Le][rng.gen_range(0..2usize)];
    let lo = rng.gen_range(0..80i64);
    let hi = lo + rng.gen_range(0..40i64);
    let val = |op: CmpOp, c: Expr| Expr::col("val").cmp(op, c);
    let sensor = |op: CmpOp, c: i64| Expr::col("sensor").cmp(op, Expr::lit(c));
    let band = val(lower, lit(rng, lo)).and(val(upper, lit(rng, hi)));
    Some(match rng.gen_range(0..16u32) {
        0 => return None,
        1..=4 => sensor(CmpOp::Eq, rng.gen_range(0..16i64)).and(band),
        5..=7 => band,
        8 => val(lower, lit(rng, lo)),
        9 => val(upper, lit(rng, hi)),
        // Point: `>= c AND <= c`.
        10 => val(CmpOp::Ge, Expr::lit(lo)).and(val(CmpOp::Le, Expr::lit(lo as f64))),
        // Empty: the bounds cross.
        11 => val(lower, lit(rng, hi + 1)).and(val(upper, lit(rng, lo))),
        // Repeated bounds on one column: the tighter one must win.
        12 => {
            let (again, c) = (rng.gen_range(0..2usize), rng.gen_range(0..80i64));
            band.and(val([CmpOp::Gt, CmpOp::Ge][again], lit(rng, c)))
        }
        // Ranges on two columns: one is the interval, the other verified.
        13 => sensor(CmpOp::Ge, rng.gen_range(0..10i64))
            .and(band)
            .and(sensor(CmpOp::Lt, rng.gen_range(5..20i64))),
        14 => band.and(val(CmpOp::Ne, Expr::lit(rng.gen_range(lo..=hi)))),
        _ => sensor(CmpOp::Ne, rng.gen_range(0..16i64)),
    })
}

/// A probe tuple on the constants' grid (so bounds are hit exactly), NULL
/// in either column now and then.
fn random_reading(rng: &mut tcq_common::rng::TcqRng, ts: i64) -> Tuple {
    let sensor = match rng.gen_range(0..16u32) {
        0 => Value::Null,
        _ => Value::Int(rng.gen_range(0..20i64)),
    };
    let val = match rng.gen_range(0..16u32) {
        0 => Value::Null,
        1..=8 => Value::Float(rng.gen_range(-10..130i64) as f64),
        _ => Value::Float(rng.gen_range(-10..130i64) as f64 + 0.5),
    };
    Tuple::new(schema(), vec![sensor, val], Timestamp::logical(ts)).unwrap()
}

/// What a standing query must match, evaluated query by query.
enum Oracle {
    /// The bound predicate on the tree-walking interpreter (`None` = no
    /// WHERE clause).
    Pred(Option<tcq_common::BoundExpr>),
    /// `lo < val AND val <= hi`, spelled out: the preloaded population is
    /// too large to interpret per probe in a debug build.
    Band(f64, f64),
}

impl Oracle {
    fn admits(&self, t: &Tuple) -> bool {
        match self {
            Oracle::Pred(p) => p.as_ref().is_none_or(|p| p.eval_pred(t).unwrap()),
            Oracle::Band(lo, hi) => t.value(1).as_float().is_ok_and(|v| *lo < v && v <= *hi),
        }
    }
}

/// `ops` operations at 45/25/30 insert/remove/probe against per-query
/// evaluation of the bound predicates, on top of `preloaded` narrow ranges
/// (so removals tombstone a deep run and stabs descend a real tree).
fn query_stem_churn(seed: u64, preloaded: usize, ops: usize) {
    let mut rng = tcq_common::rng::seeded(seed);
    let schema = schema();
    let mut qs = QueryStem::new(schema.clone());
    let mut scratch = MatchScratch::new();
    let mut model = HashMap::new();
    let mut live: Vec<usize> = Vec::new();
    let mut freed: Vec<usize> = Vec::new();
    let mut next_q = 0usize;
    let mut mid_epoch_probes = 0usize;
    for id in 0..preloaded {
        let (lo, hi) = ((id % 120) as f64, (id % 120) as f64 + 0.5 * (id % 5) as f64);
        let band = Expr::col("val")
            .cmp(CmpOp::Gt, Expr::lit(lo))
            .and(Expr::col("val").cmp(CmpOp::Le, Expr::lit(hi)));
        qs.insert_query(id, Some(&band)).unwrap();
        model.insert(id, Oracle::Band(lo, hi));
        live.push(id);
        next_q += 1;
    }

    for step in 0..ops {
        let roll = rng.gen_range(0..100u32);
        if roll < 45 || live.is_empty() {
            // Half the time reuse a removed query id (the server's shared
            // filter never does, but `QueryStem` allows it).
            let id = if !freed.is_empty() && rng.gen_range(0..2u32) == 0 {
                freed.pop().unwrap()
            } else {
                next_q += 1;
                next_q - 1
            };
            let pred = random_pred(&mut rng);
            // A constant its column cannot be compared with is refused at
            // registration (it would fail every probe that reaches it) and
            // leaves the stem as it was, so `id` registers next.
            if let (Some(p), 0) = (&pred, rng.gen_range(0..8u32)) {
                let (col, op) = [
                    ("sensor", CmpOp::Ne),
                    ("val", CmpOp::Lt),
                    ("sensor", CmpOp::Eq),
                ][rng.gen_range(0..3usize)];
                let mistyped = p.clone().and(Expr::col(col).cmp(op, Expr::lit("abc")));
                assert!(qs.insert_query(id, Some(&mistyped)).is_err());
            }
            qs.insert_query(id, pred.as_ref()).unwrap();
            model.insert(id, Oracle::Pred(pred.map(|p| p.bind(&schema).unwrap())));
            live.push(id);
        } else if roll < 70 {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            qs.remove_query(id).unwrap();
            model.remove(&id);
            freed.push(id);
        } else {
            let t = random_reading(&mut rng, step as i64);
            let stats = qs.epoch_stats();
            if stats.pending > 0 && stats.tombstones > 0 {
                mid_epoch_probes += 1;
            }
            qs.matching_into(&t, &mut scratch).unwrap();
            let mut expect: Vec<usize> = model
                .iter()
                .filter(|(_, oracle)| oracle.admits(&t))
                .map(|(&id, _)| id)
                .collect();
            expect.sort_unstable();
            assert_eq!(
                scratch.matches(),
                expect.as_slice(),
                "disagreement at step {step} on {t:?} ({stats:?})"
            );
        }
        assert_eq!(qs.len(), model.len(), "query count drift at {step}");
    }
    assert!(
        mid_epoch_probes > ops / 10,
        "churn schedule must actually exercise mid-epoch probes, got {mid_epoch_probes}"
    );
}

#[test]
fn query_stem_agrees_with_naive_under_churn() {
    query_stem_churn(0xC0_FFEE, 0, 20_000);
}

#[test]
fn query_stem_agrees_with_naive_under_churn_on_10k_preloaded_ranges() {
    query_stem_churn(0x5EED_1E55, 10_000, 20_000);
}

/// The SteM's contract, naively: live tuples in insertion order, each with
/// the position it was inserted at (`id`), plus the dirty key hashes.
#[derive(Default)]
struct StemModel {
    live: Vec<(u64, Tuple)>,
    next_id: u64,
    dirty: BTreeSet<u64>,
}

impl StemModel {
    fn insert(&mut self, t: Tuple) {
        self.live.push((self.next_id, t));
        self.next_id += 1;
    }

    fn matching(&self, keep: impl Fn(&Tuple) -> bool) -> Vec<Tuple> {
        let live = self.live.iter().map(|(_, t)| t);
        live.filter(|t| keep(t)).cloned().collect()
    }

    /// Slots a store that frees only a dead *prefix* must still hold:
    /// everything from the oldest live insert to the newest insert.
    fn span(&self) -> usize {
        self.live
            .iter()
            .map(|(id, _)| (self.next_id - id) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// The data SteM's rows: the `sensor` key, a `serial` that tells every
/// built row apart, and a FLOAT column `odd` holding what a typed column
/// must not lose — `Int`s, NULLs, NaN payloads, `-0.0` and strings.
fn stem_schema() -> SchemaRef {
    Schema::qualified(
        "s",
        vec![
            Field::new("sensor", DataType::Int),
            Field::new("serial", DataType::Float),
            Field::new("odd", DataType::Float),
        ],
    )
    .into_ref()
}

fn odd_cell(rng: &mut tcq_common::rng::TcqRng) -> Value {
    match rng.gen_range(0..8u32) {
        0 => Value::Int(rng.gen_range(-5..5i64)),
        1 => Value::Null,
        2 => {
            let sign = if rng.gen_bool(0.5) { 1u64 << 63 } else { 0 };
            let payload = rng.gen_range(1..0xFFFFu64);
            Value::Float(f64::from_bits(f64::NAN.to_bits() | payload | sign))
        }
        3 => Value::Float(-0.0),
        4 => Value::str(["", "x", "a string in a FLOAT column"][rng.gen_range(0..3usize)]),
        _ => Value::Float(rng.gen_range(0..100i64) as f64 + 0.25),
    }
}

fn stored_row(rng: &mut tcq_common::rng::TcqRng, key: i64, serial: f64, ts: Timestamp) -> Tuple {
    let values = vec![Value::Int(key), Value::Float(serial), odd_cell(rng)];
    Tuple::new(stem_schema(), values, ts).unwrap()
}

fn key_of(t: &Tuple) -> i64 {
    t.value(0).as_int().unwrap()
}

fn hash_of(t: &Tuple) -> u64 {
    tcq_common::hash_value(t.value(0))
}

/// A cell compared bit-exactly: its variant and its payload, a float by
/// its bits (so NaN payloads and `-0.0` count).
#[derive(Debug, PartialEq)]
enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(String),
}

fn cell(v: &Value) -> Cell {
    match v {
        Value::Null => Cell::Null,
        Value::Bool(b) => Cell::Bool(*b),
        Value::Int(i) => Cell::Int(*i),
        Value::Float(f) => Cell::Float(f.to_bits()),
        Value::Str(s) => Cell::Str(s.to_string()),
    }
}

/// What identifies a row handed back by the SteM: its cells, its full
/// timestamp, and the key-hash memo.
type RowPrint = (Vec<Cell>, Timestamp, Option<u64>);

/// The SteM copies rows into its columns; what it hands back must be the
/// inserted row again — the same cells bit for bit, the same timestamp
/// (absent components included), key hash memoized on the key column.
#[track_caller]
fn assert_same_rows(got: &[Tuple], want: &[Tuple], ctx: &str) {
    let print = |t: &Tuple, hash: Option<u64>| -> RowPrint {
        (t.values().iter().map(cell).collect(), t.timestamp(), hash)
    };
    let got: Vec<RowPrint> = got.iter().map(|t| print(t, t.cached_key_hash(0))).collect();
    let want: Vec<RowPrint> = want.iter().map(|t| print(t, Some(hash_of(t)))).collect();
    assert_eq!(got, want, "{ctx}");
}

/// A timestamp whose `seq()` is `ts` in most shapes, and 0 — below every
/// window edge — when the logical component is absent.
fn random_stamp(rng: &mut tcq_common::rng::TcqRng, ts: i64) -> Timestamp {
    match rng.gen_range(0..16u32) {
        0 => Timestamp::physical(ts * 1000),
        1 => Timestamp::unknown(),
        2..=4 => Timestamp::both(ts, ts * 1000 + 7),
        _ => Timestamp::logical(ts),
    }
}

/// Drive `ops` seeded operations through a SteM and the model, comparing
/// every result *as a sequence* (probe and scan order feed join output
/// order, which seeded replay pins) and every returned handle against the
/// row that was inserted. With `out_of_order` clear the run is what a
/// single stream delivers — timestamp-ordered builds, no restore — and the
/// slot store must then hold exactly the live tuples. With it set, a
/// quarter of the builds arrive late: below the newest timestamp, often
/// below the window edge already evicted to, sometimes with no logical
/// timestamp at all — the rows eviction cannot find by slot position.
fn stem_agrees_with_model(base: u32, out_of_order: bool, window: i64, ops: usize) {
    const KEYS: i64 = 24;
    let mut rng = tcq_common::rng::seeded(0x57E4 ^ u64::from(base) ^ ops as u64);
    let mut stem = SteM::new("S", stem_schema(), 0, IndexKind::Hash)
        .unwrap()
        .with_slot_base(base);
    let mut model = StemModel::default();
    let mut clock = 1i64;
    let mut serial = 0.0f64;
    let mut evictions = 0usize;
    let (mut builds, mut late_builds, mut below_edge) = (0usize, 0usize, 0usize);
    let mut edge = i64::MIN;

    for step in 0..ops {
        let ctx = format!("base={base} step={step}");
        let key = rng.gen_range(0..KEYS);
        let hash = tcq_common::hash_value(&Value::Int(key));
        let mut got = Vec::new();
        match rng.gen_range(0..100u32) {
            // Build. `serial` makes every tuple distinguishable.
            0..=44 => {
                let stamp = if out_of_order && rng.gen_bool(0.25) {
                    let ts = clock - rng.gen_range(0..window);
                    random_stamp(&mut rng, ts)
                } else {
                    clock += rng.gen_range(0..3i64);
                    Timestamp::logical(clock)
                };
                builds += 1;
                late_builds += usize::from(stamp.seq() < clock);
                below_edge += usize::from(stamp.seq() < edge);
                serial += 1.0;
                let t = stored_row(&mut rng, key, serial, stamp);
                // Half the builds arrive prehashed (the partitioner's work).
                if rng.gen_bool(0.5) {
                    t.key_hash(0);
                }
                model.dirty.insert(hash);
                model.insert(t.clone());
                // A third come in as an ingress batch's row, with or without
                // its hash column.
                if rng.gen_bool(0.33) {
                    let key_col = rng.gen_bool(0.5).then_some(0);
                    let batch =
                        ColumnBatch::from_tuples(stem_schema(), std::slice::from_ref(&t), key_col);
                    stem.insert_row(&batch, 0, &t).unwrap();
                } else {
                    stem.insert(t).unwrap();
                }
            }
            // Slide the window (sometimes a no-op, sometimes past `clock`).
            45..=59 => {
                let cut = clock - window + rng.gen_range(0..window + 8);
                edge = edge.max(cut);
                let before = model.live.len();
                for (_, t) in model.live.iter().filter(|(_, t)| t.timestamp().seq() < cut) {
                    model.dirty.insert(hash_of(t));
                }
                model.live.retain(|(_, t)| t.timestamp().seq() >= cut);
                assert_eq!(
                    stem.evict_before_seq(cut),
                    before - model.live.len(),
                    "{ctx}"
                );
                // Same survivors in the same order = the same evicted set.
                let survivors: Vec<Tuple> = stem.scan().collect();
                assert_same_rows(&survivors, &model.matching(|_| true), &ctx);
                assert_eq!(stem.slot_span(), model.span(), "{ctx}");
                if !out_of_order {
                    assert_eq!(stem.slot_span(), stem.len(), "{ctx}");
                }
                evictions += 1;
            }
            60..=74 => {
                let n = stem.probe_eq_hashed(hash, &Value::Int(key), &mut got);
                assert_same_rows(&got, &model.matching(|t| key_of(t) == key), &ctx);
                assert_eq!(n, got.len(), "{ctx}");
            }
            80..=84 => {
                stem.export_group(hash, &mut got);
                assert_same_rows(&got, &model.matching(|t| hash_of(t) == hash), &ctx);
            }
            // Restore path: replace one group with an edited copy of itself
            // (some tuples dropped, some new). Leaves dirt as it was.
            85..=89 if out_of_order => {
                let mut group = model.matching(|t| hash_of(t) == hash);
                group.retain(|_| rng.gen_bool(0.7));
                for _ in 0..rng.gen_range(0..3u32) {
                    serial += 1.0;
                    let ts = clock - rng.gen_range(0..window);
                    let stamp = random_stamp(&mut rng, ts);
                    group.push(stored_row(&mut rng, key, serial, stamp));
                }
                model.live.retain(|(_, t)| hash_of(t) != hash);
                for t in &group {
                    model.insert(t.clone());
                }
                stem.import_group(hash, group).unwrap();
                assert_eq!(stem.slot_span(), model.span(), "{ctx}");
            }
            // Rare on a wide window, which takes thousands of builds to fill.
            90 if window < 1000 || rng.gen_range(0..40u32) == 0 => {
                for (_, t) in &model.live {
                    model.dirty.insert(hash_of(t));
                }
                let want = model.matching(|_| true);
                model.live.clear();
                assert_same_rows(&stem.drain_all(), &want, &ctx);
                assert_eq!(stem.slot_span(), 0, "{ctx}");
            }
            // A checkpoint committed.
            91..=93 => {
                model.dirty.clear();
                stem.clear_dirty();
            }
            _ => {
                let scanned: Vec<Tuple> = stem.scan().collect();
                assert_same_rows(&scanned, &model.matching(|_| true), &ctx);
            }
        }
        assert_eq!(stem.len(), model.live.len(), "{ctx}");
        assert!(
            stem.dirty_groups().eq(model.dirty.iter().copied()),
            "{ctx}: dirty groups diverged"
        );
    }
    assert!(evictions > ops / 10, "schedule must slide the window");
    assert!(model.next_id > 2000, "schedule must cross base + 1000");
    if window > 1000 {
        assert!(
            stem.chunks_allocated() >= 4,
            "a wide window must span several slot-ring chunks"
        );
    }
    if out_of_order {
        assert!(
            late_builds * 10 >= builds && below_edge * 50 >= builds,
            "schedule must build late: {late_builds} late, {below_edge} below the edge, of {builds}"
        );
    }
}

#[test]
fn stem_agrees_with_naive_model_from_zero_and_across_the_id_wrap() {
    for base in [0, u32::MAX - 1000] {
        stem_agrees_with_model(base, true, 160, 20_000);
        stem_agrees_with_model(base, false, 160, 20_000);
    }
}

/// The same schedule with a window several slot-ring chunks wide and few
/// drains, so the ring actually fills: late rows, holes and replaced
/// groups then sit chunks away from the front, and the front gives whole
/// chunks back for the tail to reuse.
#[test]
fn stem_agrees_with_naive_model_over_a_multi_chunk_window() {
    stem_agrees_with_model(u32::MAX - 1000, true, 2_000, 16_000);
    stem_agrees_with_model(0, false, 2_000, 16_000);
}
