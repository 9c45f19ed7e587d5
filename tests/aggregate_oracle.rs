//! Aggregate oracle: a windowed aggregate's continuous answer must equal a
//! from-scratch evaluation of the same input, window by window.
//!
//! The reference evaluator below runs over a `Vec<Tuple>`: for every window
//! of the query's `WindowSeq` it applies the filter, the GROUP BY and the
//! aggregates (NULLs skipped) to the rows inside the window. It keeps the
//! server's edge rules: an empty ungrouped window gives one row (COUNT 0,
//! the rest NULL), an empty grouped window gives none, and windows still
//! open when the stream ends are dropped. Live loops run on stream time;
//! snapshot and backward loops are answered from the archive at submit.
//!
//! Each seed generates one stream and a set of queries over it, covering
//! landmark, tumbling, hopping-with-gaps, overlapping sliding, single-tick
//! (`t++`), empty, 10⁹-iteration and crossed-bound loops, and snapshot and
//! backward windows. The server answers them under `io_batch` {1, 64} ×
//! checkpoint store on/off, and once more across a checkpoint → shutdown →
//! restore cut taken mid-window. The stream also carries two co-resident
//! plans: a standing filter query, whose rows must equal the reference
//! filter's as a multiset, and one more aggregate stopped mid-stream (before
//! the cut, on the restore run), whose windows must be a prefix of its
//! reference. The restore alone brings every running query back under its
//! id; the stopped one stays stopped. Columns are integers, so float sums are exact in any fold
//! order and results compare exactly. A failure names its seed,
//! configuration and query.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use telegraphcq::common::rng::{seeded, TcqRng};
use telegraphcq::prelude::*;
use telegraphcq::windows::{CondOp, Condition, Step, WindowIs};

const SEEDS: std::ops::Range<u64> = 1..9;
const GROUPS: i64 = 4;

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("w", DataType::Int),
    ])
    .into_ref()
}

/// Strictly increasing timestamps with gaps; `w` is NULL about one row in
/// five. Equal timestamps are left out on purpose: a window closes when
/// stream time reaches its right edge, so a second row at that instant
/// lands in it or not depending on batching.
fn stream(rng: &mut TcqRng) -> Vec<Tuple> {
    let s = schema();
    let n = rng.gen_range(120..260);
    let mut seq = 0i64;
    (0..n)
        .map(|_| {
            seq += if rng.gen_bool(0.1) {
                rng.gen_range(4i64..12)
            } else {
                rng.gen_range(1i64..3)
            };
            let w = if rng.gen_bool(0.2) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(-20..40))
            };
            Tuple::new(
                s.clone(),
                vec![
                    Value::Int(rng.gen_range(0..GROUPS)),
                    Value::Int(rng.gen_range(-50..50)),
                    w,
                ],
                Timestamp::logical(seq),
            )
            .unwrap()
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Func {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// One generated query: what the reference evaluates and the SQL the
/// server parses.
#[derive(Debug, Clone)]
struct Query {
    shape: &'static str,
    filter: Option<i64>,
    group: bool,
    aggs: Vec<(Func, usize)>,
    /// `None` for a plain filter query: no window and no aggregates.
    window: Option<ForLoop>,
    historical: bool,
    /// Row index at which the query is stopped, mid-stream.
    stop_at: Option<usize>,
}

impl Query {
    fn sql(&self) -> String {
        let col = |c: usize| ["k", "v", "w"][c];
        let mut items: Vec<String> = Vec::new();
        if self.group {
            items.push("k".into());
        }
        if self.aggs.is_empty() {
            items.extend(["k", "v", "w"].map(String::from));
        }
        for (f, c) in &self.aggs {
            items.push(match f {
                Func::CountStar => "COUNT(*)".into(),
                Func::Count => format!("COUNT({})", col(*c)),
                Func::Sum => format!("SUM({})", col(*c)),
                Func::Avg => format!("AVG({})", col(*c)),
                Func::Min => format!("MIN({})", col(*c)),
                Func::Max => format!("MAX({})", col(*c)),
            });
        }
        let mut sql = format!("SELECT {} FROM s", items.join(", "));
        if let Some(c) = self.filter {
            sql += &format!(" WHERE v > {c}");
        }
        if self.group {
            sql += " GROUP BY k";
        }
        let Some(w) = &self.window else {
            return sql;
        };
        let op = match w.cond.op {
            CondOp::Eq => "==",
            CondOp::Lt => "<",
            CondOp::Le => "<=",
            CondOp::Gt => ">",
            CondOp::Ge => ">=",
        };
        let step = match w.step {
            Step::Add(k) if k >= 0 => format!("t += {k}"),
            Step::Add(k) => format!("t -= {}", -k),
            Step::Set(k) => format!("t = {k}"),
        };
        let win = &w.windows[0];
        sql + &format!(
            " for (t = {}; t {op} {}; {step}) {{ WindowIs(s, {}, {}); }}",
            w.init, w.cond.bound, win.left, win.right
        )
    }
}

fn lin(t_coeff: i64, st_coeff: i64, constant: i64) -> LinExpr {
    LinExpr {
        t_coeff,
        st_coeff,
        constant,
    }
}

fn for_loop(
    init: LinExpr,
    op: CondOp,
    bound: LinExpr,
    step: Step,
    l: LinExpr,
    r: LinExpr,
) -> ForLoop {
    ForLoop {
        init,
        cond: Condition { op, bound },
        step,
        windows: vec![WindowIs::new("s", l, r)],
    }
}

/// Live loops, anchored at `ST` = 1 (they are submitted before any row).
fn live_window(rng: &mut TcqRng, shape: &'static str) -> ForLoop {
    let end = rng.gen_range(150..400);
    match shape {
        "landmark" => {
            let hop = rng.gen_range(1..12);
            for_loop(
                lin(0, 1, rng.gen_range(0..10)),
                CondOp::Le,
                lin(0, 1, end),
                Step::Add(hop),
                lin(0, 1, rng.gen_range(0..6)),
                LinExpr::t(),
            )
        }
        "tumbling" => {
            let width = rng.gen_range(2i64..30);
            for_loop(
                lin(0, 1, width - 1),
                CondOp::Lt,
                lin(0, 1, end),
                Step::Add(width),
                lin(1, 0, 1 - width),
                LinExpr::t(),
            )
        }
        "hopping" => {
            let width = rng.gen_range(1i64..10);
            let hop = width + rng.gen_range(1i64..15);
            for_loop(
                lin(0, 1, rng.gen_range(0..20)),
                CondOp::Le,
                lin(0, 1, end),
                Step::Add(hop),
                lin(1, 0, 1 - width),
                LinExpr::t(),
            )
        }
        "sliding" => {
            let hop = rng.gen_range(2i64..8);
            let width = hop + rng.gen_range(1i64..40);
            for_loop(
                lin(0, 1, rng.gen_range(0..20)),
                CondOp::Ge,
                LinExpr::constant(0),
                Step::Add(hop),
                lin(1, 0, 1 - width),
                LinExpr::t(),
            )
        }
        "tick" => {
            let width = rng.gen_range(1i64..9);
            for_loop(
                LinExpr::st(),
                CondOp::Lt,
                lin(0, 1, end),
                Step::Add(1),
                lin(1, 0, 1 - width),
                LinExpr::t(),
            )
        }
        "empty" => for_loop(
            lin(0, 1, 5),
            CondOp::Lt,
            lin(0, 1, 5),
            Step::Add(1),
            lin(1, 0, -3),
            LinExpr::t(),
        ),
        "billion" => {
            let width = rng.gen_range(1i64..50);
            let landmark = rng.gen_bool(0.5);
            for_loop(
                LinExpr::st(),
                CondOp::Lt,
                lin(0, 1, 1_000_000_000),
                Step::Add(rng.gen_range(1..4)),
                if landmark {
                    LinExpr::st()
                } else {
                    lin(1, 0, 1 - width)
                },
                LinExpr::t(),
            )
        }
        "crossed" => for_loop(
            LinExpr::st(),
            CondOp::Lt,
            lin(0, 1, end),
            Step::Add(rng.gen_range(1..5)),
            lin(1, 0, rng.gen_range(1..5)),
            LinExpr::t(),
        ),
        other => unreachable!("live shape {other}"),
    }
}

/// Historical loops, anchored at `ST` = the last archived timestamp.
fn historical_window(rng: &mut TcqRng, shape: &'static str) -> ForLoop {
    match shape {
        "snapshot" => {
            let right = rng.gen_range(0i64..60);
            for_loop(
                LinExpr::constant(0),
                CondOp::Eq,
                LinExpr::constant(0),
                Step::Set(-1),
                lin(0, 1, -right - rng.gen_range(0i64..80)),
                lin(0, 1, -right),
            )
        }
        "backward" => {
            let width = rng.gen_range(1i64..20);
            let hop = rng.gen_range(1i64..20);
            for_loop(
                LinExpr::st(),
                CondOp::Gt,
                lin(0, 1, -rng.gen_range(1i64..200)),
                Step::Add(-hop),
                lin(1, 0, 1 - width),
                LinExpr::t(),
            )
        }
        other => unreachable!("historical shape {other}"),
    }
}

const LIVE: [&str; 8] = [
    "landmark", "tumbling", "hopping", "sliding", "tick", "empty", "billion", "crossed",
];
const HISTORICAL: [&str; 2] = ["snapshot", "backward"];

fn query(rng: &mut TcqRng, shape: &'static str, historical: bool) -> Query {
    let all = [
        (Func::CountStar, 0),
        (Func::Count, 2),
        (Func::Sum, 1),
        (Func::Sum, 2),
        (Func::Avg, 1),
        (Func::Avg, 2),
        (Func::Min, 1),
        (Func::Min, 2),
        (Func::Max, 1),
        (Func::Max, 2),
    ];
    let aggs = (0..rng.gen_range(1..5))
        .map(|_| all[rng.gen_range(0..all.len())])
        .collect();
    Query {
        shape,
        filter: rng.gen_bool(0.4).then(|| rng.gen_range(-40..30)),
        group: rng.gen_bool(0.5),
        aggs,
        window: Some(if historical {
            historical_window(rng, shape)
        } else {
            live_window(rng, shape)
        }),
        historical,
        stop_at: None,
    }
}

/// The plans that share the stream with a seed's aggregates: a plain
/// filter query, and an aggregate stopped somewhere in the middle of the
/// stream.
fn co_resident(seed: u64, rows: &[Tuple]) -> Vec<Query> {
    let mut rng = seeded(seed ^ 0xc0_2e51);
    let filter = Query {
        shape: "filter",
        filter: rng.gen_bool(0.7).then(|| rng.gen_range(-40..30)),
        group: false,
        aggs: Vec::new(),
        window: None,
        historical: false,
        stop_at: None,
    };
    let shape = ["landmark", "tumbling", "sliding", "tick"][rng.gen_range(0usize..4)];
    let stopped = Query {
        stop_at: Some(rng.gen_range(rows.len() / 4..rows.len() * 3 / 4)),
        ..query(&mut rng, shape, false)
    };
    vec![filter, stopped]
}

/// One result row as text: `Value`'s `==` equates `Int(1)` with
/// `Float(1.0)`, and the oracle must also catch a wrong output type.
fn row_text(values: &[Value]) -> String {
    format!("{values:?}")
}

type Windows = BTreeMap<i64, Vec<String>>;

/// The reference answer: every window of the loop, evaluated from scratch
/// over `rows`. A live loop stops at the first window stream time never
/// reached; a loop whose window is invalid stops there. A plain filter's
/// answer is its rows, as one set.
fn reference(q: &Query, rows: &[Tuple], st: i64) -> Windows {
    let passes = |t: &Tuple| q.filter.is_none_or(|c| t.value(1).as_int().unwrap() > c);
    let Some(window) = &q.window else {
        let mut set: Vec<String> = (rows.iter().filter(|t| passes(t)))
            .map(|t| row_text(t.values()))
            .collect();
        set.sort();
        return Windows::from([(0, set)]);
    };
    let last = rows.last().map_or(0, |t| t.timestamp().seq());
    let mut out = Windows::new();
    for wa in WindowSeq::new(window.clone(), st) {
        let Ok(wa) = wa else { break };
        if !q.historical && wa.close_time() > last {
            break;
        }
        let win = wa.window_for("s").unwrap();
        let mut groups: BTreeMap<Option<i64>, Vec<&Tuple>> = BTreeMap::new();
        if !q.group {
            groups.insert(None, Vec::new());
        }
        for t in rows {
            let seq = t.timestamp().seq();
            if win.left <= seq && seq <= win.right && passes(t) {
                let key = q.group.then(|| t.value(0).as_int().unwrap());
                groups.entry(key).or_default().push(t);
            }
        }
        let mut set = Vec::new();
        for (key, members) in groups {
            let mut row = vec![Value::Int(wa.t)];
            row.extend(key.map(Value::Int));
            for &(f, c) in &q.aggs {
                let vals: Vec<i64> = members
                    .iter()
                    .filter_map(|t| t.value(c).as_int().ok())
                    .collect();
                let sum = vals.iter().sum::<i64>() as f64;
                row.push(match f {
                    Func::CountStar => Value::Int(members.len() as i64),
                    Func::Count => Value::Int(vals.len() as i64),
                    _ if vals.is_empty() => Value::Null,
                    Func::Sum => Value::Float(sum),
                    Func::Avg => Value::Float(sum / vals.len() as f64),
                    Func::Min => Value::Int(*vals.iter().min().unwrap()),
                    Func::Max => Value::Int(*vals.iter().max().unwrap()),
                });
            }
            set.push(row_text(&row));
        }
        if !set.is_empty() {
            set.sort();
            out.insert(wa.t, set);
        }
    }
    out
}

/// The server's answer for one query, grouped by window (`t`, column 0);
/// a plain filter's rows as one set.
fn windows_of(q: &Query, rows: &[Tuple]) -> Windows {
    let mut out = Windows::new();
    for t in rows {
        let at = match q.window {
            Some(_) => t.values().first().and_then(|v| v.as_int().ok()),
            None => Some(0),
        };
        out.entry(at.unwrap_or(i64::MIN))
            .or_default()
            .push(row_text(t.values()));
    }
    out.values_mut().for_each(|set| set.sort());
    out
}

fn collect(rx: &Receiver<(usize, Tuple)>, into: &mut BTreeMap<usize, Vec<Tuple>>) {
    for (qid, t) in rx.try_iter() {
        into.entry(qid).or_default().push(t);
    }
}

#[derive(Debug, Clone, Copy)]
struct Config {
    io_batch: usize,
    checkpoint: bool,
    /// Row index of a checkpoint → shutdown → restore cut.
    cut: Option<usize>,
}

struct Dir(PathBuf);

impl Dir {
    fn new(seed: u64, cfg: &Config) -> Dir {
        let dir = std::env::temp_dir().join(format!(
            "tcq-agg-oracle-{}-{seed}-{}-{}-{}",
            std::process::id(),
            cfg.io_batch,
            cfg.checkpoint,
            cfg.cut.is_some()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn boot(dir: &Dir, cfg: &Config, restore: bool) -> TelegraphCQ {
    let config = ServerConfig {
        io_batch: cfg.io_batch,
        archive_dir: Some(dir.0.join("archive")),
        checkpoint_path: cfg.checkpoint.then(|| dir.0.join("server.tcqk")),
        ..ServerConfig::default()
    };
    if restore {
        // The image registers `s` and starts the queries.
        return TelegraphCQ::restore(config).unwrap();
    }
    let server = TelegraphCQ::start(config).unwrap();
    server.register_stream("s", schema()).unwrap();
    server
}

fn push(server: &TelegraphCQ, rows: &[Tuple], rng: &mut TcqRng, checkpoint: bool) {
    let mut rest = rows;
    while !rest.is_empty() {
        let n = rng.gen_range(1usize..24).min(rest.len());
        server.push_batch("s", rest[..n].to_vec()).unwrap();
        rest = &rest[n..];
        if checkpoint && rng.gen_bool(0.15) {
            server.checkpoint().unwrap();
        }
    }
}

fn wait_archived(server: &TelegraphCQ, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.archive_stats("s").unwrap().unwrap().appended < n as u64 {
        assert!(Instant::now() < deadline, "archive never caught up");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run `queries` over `rows` under `cfg`; results by query index.
fn run(seed: u64, cfg: Config, rows: &[Tuple], queries: &[Query]) -> Vec<Vec<Tuple>> {
    let dir = Dir::new(seed, &cfg);
    let mut rng = seeded(seed ^ 0x5eed);
    let mut got: BTreeMap<usize, Vec<Tuple>> = BTreeMap::new();
    let mut server = boot(&dir, &cfg, false);
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    let live: Vec<&Query> = queries.iter().filter(|q| !q.historical).collect();
    let mut qids: Vec<usize> = live
        .iter()
        .map(|q| server.submit(&q.sql(), client).unwrap())
        .collect();
    let mut stops: Vec<(usize, usize)> = (live.iter().zip(&qids))
        .filter_map(|(q, &qid)| Some((q.stop_at?, qid)))
        .collect();
    stops.sort_unstable();
    let checkpoints = cfg.checkpoint && cfg.cut.is_none();
    let mut from = 0;
    for &(stop, qid) in &stops {
        assert!(
            cfg.cut.is_none_or(|cut| stop < cut),
            "stops precede the cut"
        );
        // Once the dispatcher reached the stop row, or close behind it.
        push(&server, &rows[from..stop], &mut rng, checkpoints);
        wait_archived(&server, stop);
        server.stop_query(qid).unwrap();
        from = stop;
    }
    let mut rx = rx;
    if let Some(cut) = cfg.cut {
        push(&server, &rows[from..cut], &mut rng, false);
        server.checkpoint().unwrap();
        collect(&rx, &mut got);
        server.shutdown().unwrap();
        collect(&rx, &mut got);
        server = boot(&dir, &cfg, true);
        let (client, rx2) = server.connect_push_client(1 << 16).unwrap();
        rx = rx2;
        // Every query running at the cut is back under its id; a stopped
        // one is not, so it delivers nothing and refuses a subscription.
        let stopped: Vec<usize> = stops.iter().map(|&(_, qid)| qid).collect();
        assert_eq!(server.query_count(), qids.len() - stopped.len());
        for &qid in &qids {
            let subscribed = server.subscribe_client(client, qid);
            assert_eq!(
                subscribed.is_ok(),
                !stopped.contains(&qid),
                "seed {seed}: query {qid} after the restore: {subscribed:?}"
            );
        }
        // A later query takes an id above every id in the image, the
        // stopped ones included.
        let later = server.submit("SELECT k FROM s", client).unwrap();
        assert!(
            qids.iter().all(|&qid| qid < later),
            "seed {seed}: {later} reuses an id of {qids:?}"
        );
        server.stop_query(later).unwrap();
        from = cut;
    }
    push(&server, &rows[from..], &mut rng, checkpoints);
    if cfg.cut.is_none() {
        wait_archived(&server, rows.len());
        for q in queries.iter().filter(|q| q.historical) {
            qids.push(server.submit(&q.sql(), client).unwrap());
        }
    }
    server.finish_stream("s").unwrap();
    assert!(
        server.quiesce(Duration::from_secs(60)),
        "seed {seed} {cfg:?}: the server never quiesced"
    );
    collect(&rx, &mut got);
    server.shutdown().unwrap();
    qids.iter()
        .map(|qid| got.remove(qid).unwrap_or_default())
        .collect()
}

fn check(seed: u64, cfg: Config, rows: &[Tuple], queries: &[Query], failures: &mut Vec<String>) {
    let ordered: Vec<Query> = queries
        .iter()
        .filter(|q| !q.historical)
        .chain(queries.iter().filter(|q| q.historical && cfg.cut.is_none()))
        .cloned()
        .collect();
    let answers = run(seed, cfg, rows, &ordered);
    let last = rows.last().unwrap().timestamp().seq();
    for (q, got) in ordered.iter().zip(answers) {
        let mut want = reference(q, rows, if q.historical { last } else { 1 });
        let got = windows_of(q, &got);
        if q.stop_at.is_some() {
            // A stopped query answers a prefix of its windows.
            want = want.into_iter().take(got.len()).collect();
        }
        if got != want {
            let t = want
                .iter()
                .find(|(t, set)| got.get(t) != Some(set))
                .or_else(|| got.iter().find(|(t, _)| !want.contains_key(t)))
                .map(|(t, _)| *t);
            failures.push(format!(
                "seed {seed} {cfg:?} [{}{}] {}\n  first differing window t={t:?}: want {:?}\n  got {:?}",
                q.shape,
                if q.historical { ", historical" } else { "" },
                q.sql(),
                t.and_then(|t| want.get(&t)),
                t.and_then(|t| got.get(&t)),
            ));
        }
    }
}

fn case(seed: u64) -> (Vec<Tuple>, Vec<Query>) {
    let mut rng = seeded(seed);
    let rows = stream(&mut rng);
    let mut queries: Vec<Query> = LIVE.iter().map(|s| query(&mut rng, s, false)).collect();
    queries.extend(HISTORICAL.iter().map(|s| query(&mut rng, s, true)));
    (rows, queries)
}

#[test]
fn windowed_aggregates_equal_their_from_scratch_evaluation() {
    let mut failures = Vec::new();
    for seed in SEEDS {
        let (rows, mut queries) = case(seed);
        queries.extend(co_resident(seed, &rows));
        for io_batch in [1, 64] {
            for checkpoint in [false, true] {
                let cfg = Config {
                    io_batch,
                    checkpoint,
                    cut: None,
                };
                check(seed, cfg, &rows, &queries, &mut failures);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn windowed_aggregates_survive_a_restore_cut_mid_window() {
    let mut failures = Vec::new();
    for seed in SEEDS {
        let (rows, mut queries) = case(seed);
        let mut rng = seeded(seed ^ 0xc0ffee);
        let io_batch = [1, 64][rng.gen_range(0usize..2)];
        let cut = rng.gen_range(rows.len() / 4..rows.len() * 3 / 4);
        // Drawn over the rows before the cut, the stop precedes it.
        queries.extend(co_resident(seed, &rows[..cut]));
        let cfg = Config {
            io_batch,
            checkpoint: true,
            cut: Some(cut),
        };
        check(seed, cfg, &rows, &queries, &mut failures);
    }
    assert!(
        failures.is_empty(),
        "{} failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
