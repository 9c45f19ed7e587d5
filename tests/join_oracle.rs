//! Join oracle: a windowed two-stream equi-join's continuous answer must
//! equal a naive evaluation of the same input, as a multiset per query.
//!
//! The reference evaluator walks the input in its canonical order — the
//! order it was pushed in — and keeps, per side, the rows that passed the
//! side's predicate and the side's clock: the newest time routed from that
//! stream. A row first moves its own clock, and if it passes its side's
//! predicate it probes the other side's rows that share its key and are
//! still inside that side's window (`ts > clock − width`), keeps the pairs
//! that pass the band factor, projects them, and is then stored. A row
//! failing its predicate still moves its stream's clock. The loop bounds the
//! query: rows before its first window's left edge (the floor) are skipped,
//! rows after its last window closes (the deadline) end their stream for
//! the query, and a loop with no iteration answers nothing.
//!
//! Each seed generates the two streams in bursts (strictly increasing
//! times per stream) and four queries, one per loop shape: open-ended, one
//! whose floor lies mid-stream, one whose last window closes before the
//! streams end, and an empty one. Their widths differ, so at one partition
//! each runs in a join group of its own. Seed [`ONE_PARTITION_SEED`] draws
//! every key from those that hash into one of four partitions. The sides
//! are fed in push-then-wait rounds: a round is pushed as one batch, and the
//! next waits until every join input of that stream has taken it, so the
//! canonical order is the push order at any partition count.
//!
//! The server answers at `partitions` {1, 4} × checkpoint store on/off, and
//! across kill → restore cuts: the server checkpoints at a round boundary,
//! answers the rows it was fed, and is leaked (`mem::forget`, no shutdown);
//! a server restored from its checkpoint is fed the rest. A restored join
//! imports the SteM state of the cut — at P = 1 and at P = 4, and when the
//! image was written at the other partition count — so the answers of both
//! incarnations together equal the uninterrupted reference. Every cut is
//! checked to split some joined pair. A failure names its seed,
//! configuration and query.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use telegraphcq::common::hash_value;
use telegraphcq::common::rng::{seeded, TcqRng};
use telegraphcq::egress::Delivery;
use telegraphcq::prelude::*;

const SEEDS: std::ops::Range<u64> = 1..9;
/// The seed whose keys all hash into one of four partitions, so one worker
/// routes every run.
const ONE_PARTITION_SEED: u64 = 5;
const STREAMS: [&str; 2] = ["L", "R"];

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref()
}

/// One input row: its side (0 = `L`, 1 = `R`), key, value and time.
#[derive(Debug, Clone, Copy)]
struct Row {
    side: usize,
    k: i64,
    v: i64,
    ts: i64,
}

/// A burst of one stream's rows, pushed as one batch.
type Round = std::ops::Range<usize>;

/// The streams of a seed, in canonical order, and their rounds.
fn streams(rng: &mut TcqRng, one_partition: bool) -> (Vec<Row>, Vec<Round>) {
    let keys: Vec<i64> = if one_partition {
        (0i64..)
            .filter(|k| hash_value(&Value::Int(*k)).is_multiple_of(4))
            .take(8)
            .collect()
    } else {
        (0..rng.gen_range(4i64..12)).collect()
    };
    let n = rng.gen_range(200..320);
    let (mut rows, mut rounds) = (Vec::new(), Vec::new());
    let mut clock = [0i64; 2];
    let mut side = rng.gen_range(0..2usize);
    while rows.len() < n {
        let start = rows.len();
        for _ in 0..rng.gen_range(1..14) {
            clock[side] += rng.gen_range(1i64..4);
            rows.push(Row {
                side,
                k: keys[rng.gen_range(0..keys.len())],
                v: rng.gen_range(0i64..100),
                ts: clock[side],
            });
        }
        rounds.push(start..rows.len());
        side = 1 - side;
    }
    (rows, rounds)
}

/// One generated join query.
#[derive(Debug, Clone)]
struct JoinQuery {
    shape: &'static str,
    /// Window width per side: `WindowIs(x, t - (w - 1), t)`.
    widths: [i64; 2],
    /// The loop's first `t`.
    init: i64,
    /// `t <= until`; `None` runs forever.
    until: Option<i64>,
    /// `a.v > c` on `L`, `b.v < c` on `R`.
    preds: [Option<i64>; 2],
    /// `a.v + b.v > c`.
    band: Option<i64>,
}

impl JoinQuery {
    fn sql(&self) -> String {
        let mut conjuncts = vec!["a.k = b.k".to_string()];
        if let Some(c) = self.preds[0] {
            conjuncts.push(format!("a.v > {c}"));
        }
        if let Some(c) = self.preds[1] {
            conjuncts.push(format!("b.v < {c}"));
        }
        if let Some(c) = self.band {
            conjuncts.push(format!("a.v + b.v > {c}"));
        }
        let cond = self
            .until
            .map_or_else(|| "t >= 0".to_string(), |u| format!("t <= {u}"));
        format!(
            "SELECT a.k, a.v, b.v FROM L a, R b WHERE {} \
             for (t = {}; {cond}; t++) {{ WindowIs(a, t - {}, t); WindowIs(b, t - {}, t); }}",
            conjuncts.join(" AND "),
            self.init,
            self.widths[0] - 1,
            self.widths[1] - 1,
        )
    }

    /// `(floor, deadline)`; `None` for a loop with no iteration.
    fn bounds(&self) -> Option<(i64, i64)> {
        let floor = self.init - (self.widths[0].max(self.widths[1]) - 1);
        match self.until {
            None => Some((floor, i64::MAX)),
            Some(u) if u >= self.init => Some((floor, u)),
            Some(_) => None,
        }
    }

    fn passes(&self, side: usize, v: i64) -> bool {
        match (side, self.preds[side]) {
            (_, None) => true,
            (0, Some(c)) => v > c,
            (_, Some(c)) => v < c,
        }
    }
}

/// A seed's four queries, one per loop shape, with widths no two share.
fn queries(rng: &mut TcqRng, end: i64) -> Vec<JoinQuery> {
    let floor = rng.gen_range(end / 4..end / 2);
    let last = rng.gen_range(end / 2..end * 3 / 4);
    let mut query = |shape: &'static str, j: usize, init: i64, until: Option<i64>| {
        let base = [40, 10, 20, 60][j];
        JoinQuery {
            shape,
            widths: [base + rng.gen_range(0i64..8), base + rng.gen_range(0i64..8)],
            init,
            until,
            preds: [
                rng.gen_bool(0.5).then(|| rng.gen_range(10i64..50)),
                rng.gen_bool(0.5).then(|| rng.gen_range(50i64..90)),
            ],
            band: rng.gen_bool(0.5).then(|| rng.gen_range(40i64..120)),
        }
    };
    vec![
        query("open", 0, 1, None),
        query("floor", 1, floor, None),
        query("deadline", 2, 1, Some(last)),
        query("empty", 3, 50, Some(20)),
    ]
}

/// The naive answer of `q` over `rows`: `(a.k, a.v, b.v)` per joined pair,
/// sorted, each with the indices of its `L` and `R` rows.
fn reference(q: &JoinQuery, rows: &[Row]) -> Vec<([i64; 3], [usize; 2])> {
    let Some((floor, deadline)) = q.bounds() else {
        return Vec::new();
    };
    let mut clock = [i64::MIN; 2];
    let mut stored: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut out = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        if r.ts < floor || r.ts > deadline {
            continue;
        }
        let (s, o) = (r.side, 1 - r.side);
        clock[s] = clock[s].max(r.ts);
        if !q.passes(s, r.v) {
            continue;
        }
        for &j in &stored[o] {
            let y = &rows[j];
            if y.k != r.k || y.ts <= clock[o].saturating_sub(q.widths[o]) {
                continue;
            }
            let (a, b, pair) = if s == 0 {
                (r, y, [i, j])
            } else {
                (y, r, [j, i])
            };
            if q.band.is_none_or(|c| a.v + b.v > c) {
                out.push(([a.k, a.v, b.v], pair));
            }
        }
        stored[s].push(i);
    }
    out.sort_unstable();
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcq-join-oracle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(partitions: usize, checkpoint: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        partitions,
        checkpoint_path: checkpoint,
        ..ServerConfig::default()
    }
}

/// Wait until every join input of `stream` has taken `rows` messages, or
/// has stopped reading (its query passed its last window).
fn wait_dequeued(server: &TelegraphCQ, stream: &str, rows: u64) {
    let suffix = format!(".{})", stream.to_ascii_lowercase());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = server.progress_snapshot().expect("every server has one");
        let inputs: Vec<_> = (snap.channels.iter())
            .filter(|c| c.name.starts_with("join(") || c.name.starts_with("xchg-in("))
            .filter(|c| c.name.to_ascii_lowercase().ends_with(&suffix))
            .collect();
        let behind: Vec<(&str, u64)> = (inputs.iter())
            .filter(|c| c.dequeued < rows && !c.eof_out)
            .map(|c| (c.name.as_str(), c.dequeued))
            .collect();
        if !inputs.is_empty() && behind.is_empty() {
            return;
        }
        assert!(Instant::now() < deadline, "{stream}: {behind:?} of {rows}");
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Push `rounds` of `rows`, each once the one before it has been taken.
fn feed(server: &TelegraphCQ, rows: &[Row], rounds: &[Round]) {
    let s = schema();
    let mut taken = [0u64; 2];
    for round in rounds {
        let side = rows[round.start].side;
        let batch = rows[round.clone()]
            .iter()
            .map(|r| {
                TupleBuilder::new(s.clone())
                    .push(r.k)
                    .push(r.v)
                    .at(Timestamp::logical(r.ts))
                    .build()
                    .unwrap()
            })
            .collect();
        server.push_batch(STREAMS[side], batch).unwrap();
        taken[side] += round.len() as u64;
        wait_dequeued(server, STREAMS[side], taken[side]);
    }
}

/// End both streams and wait until every query has answered.
fn finish(server: &TelegraphCQ) {
    for stream in STREAMS {
        server.finish_stream(stream).unwrap();
    }
    assert!(
        server.quiesce(Duration::from_secs(60)),
        "the server must quiesce"
    );
}

/// Each query's rows, in delivery order.
fn answers(rx: &Receiver<Delivery>) -> BTreeMap<usize, Vec<[i64; 3]>> {
    let mut map: BTreeMap<usize, Vec<[i64; 3]>> = BTreeMap::new();
    for (qid, t) in rx.try_iter() {
        let row = [0, 1, 2].map(|c| t.value(c).as_int().unwrap());
        map.entry(qid).or_default().push(row);
    }
    map
}

/// One seed's input and queries.
struct Case {
    seed: u64,
    rows: Vec<Row>,
    rounds: Vec<Round>,
    queries: Vec<JoinQuery>,
}

impl Case {
    fn new(seed: u64) -> Case {
        let mut rng = seeded(seed);
        let (rows, rounds) = streams(&mut rng, seed == ONE_PARTITION_SEED);
        let end = rows.iter().map(|r| r.ts).max().unwrap();
        let queries = queries(&mut rng, end);
        Case {
            seed,
            rows,
            rounds,
            queries,
        }
    }

    /// A fresh server with the case's streams and queries (ids 1..=4).
    fn start(&self, config: ServerConfig) -> (TelegraphCQ, Receiver<Delivery>) {
        let server = TelegraphCQ::start(config).unwrap();
        for stream in STREAMS {
            server.register_stream(stream, schema()).unwrap();
        }
        let (client, rx) = server.connect_push_client(1 << 16).unwrap();
        for (j, q) in self.queries.iter().enumerate() {
            assert_eq!(server.submit(&q.sql(), client).unwrap(), j + 1);
        }
        (server, rx)
    }

    /// Each query's answer must equal its reference.
    fn check(&self, got: &BTreeMap<usize, Vec<[i64; 3]>>, what: &str) {
        for (j, q) in self.queries.iter().enumerate() {
            let want: Vec<[i64; 3]> = reference(q, &self.rows)
                .into_iter()
                .map(|(row, _)| row)
                .collect();
            let mut rows = got.get(&(j + 1)).cloned().unwrap_or_default();
            rows.sort_unstable();
            assert_eq!(
                rows,
                want,
                "seed {}, {what}, {} query: {}",
                self.seed,
                q.shape,
                q.sql()
            );
        }
    }

    /// The uninterrupted run.
    fn run(&self, partitions: usize, checkpoint: bool) {
        let dir = temp_dir(&format!("run-{}-{partitions}-{checkpoint}", self.seed));
        let path = checkpoint.then(|| dir.join("server.tcqk"));
        let (server, rx) = self.start(config(partitions, path));
        feed(&server, &self.rows, &self.rounds);
        if checkpoint {
            server.checkpoint().unwrap();
        }
        finish(&server);
        let got = answers(&rx);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let what = format!("P = {partitions}, checkpoint store {checkpoint}");
        self.check(&got, &what);
    }

    /// Kill after a checkpoint at round `cut`, restore at `after` partitions
    /// from an image written at `before`, and feed the rest.
    fn cut(&self, before: usize, after: usize) {
        let dir = temp_dir(&format!("cut-{}-{before}-{after}", self.seed));
        let path = dir.join("server.tcqk");
        let mut rng = seeded(self.seed ^ 0xC07);
        let cut = rng.gen_range(self.rounds.len() / 3..self.rounds.len() * 2 / 3);
        let split = self.rounds[cut].start;
        let straddling: usize = (self.queries.iter())
            .map(|q| {
                let pairs = reference(q, &self.rows).into_iter();
                pairs
                    .filter(|(_, [l, r])| (*l < split) != (*r < split))
                    .count()
            })
            .sum();
        assert!(straddling > 0, "seed {}: the cut splits no pair", self.seed);

        let (server, rx) = self.start(config(before, Some(path.clone())));
        feed(&server, &self.rows, &self.rounds[..cut]);
        assert!(server.checkpoint().unwrap().fragments > 0);
        // The lost incarnation answers the rows it was fed, then dies
        // without a shutdown.
        finish(&server);
        let mut got = answers(&rx);
        std::mem::forget(server);

        let server = TelegraphCQ::restore(config(after, Some(path))).unwrap();
        assert_eq!(server.query_count(), self.queries.len());
        let (client, rx) = server.connect_push_client(1 << 16).unwrap();
        for qid in 1..=self.queries.len() {
            server.subscribe_client(client, qid).unwrap();
        }
        feed(&server, &self.rows, &self.rounds[cut..]);
        finish(&server);
        for (qid, rows) in answers(&rx) {
            got.entry(qid).or_default().extend(rows);
        }
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let what = format!("image at P = {before} restored at P = {after}, cut at round {cut}");
        self.check(&got, &what);
    }
}

/// The reference itself: keys that hash into one partition do, and every
/// shape but the empty loop joins something on some seed.
#[test]
fn the_reference_joins_every_shape_but_the_empty_loop() {
    let mut joined: BTreeMap<&str, usize> = BTreeMap::new();
    for seed in SEEDS {
        let case = Case::new(seed);
        for q in &case.queries {
            *joined.entry(q.shape).or_default() += reference(q, &case.rows).len();
        }
        if seed == ONE_PARTITION_SEED {
            let parts: Vec<u64> = (case.rows.iter())
                .map(|r| hash_value(&Value::Int(r.k)) % 4)
                .collect();
            assert!(parts.iter().all(|&p| p == parts[0]));
        }
    }
    assert_eq!(joined["empty"], 0);
    for shape in ["open", "floor", "deadline"] {
        assert!(joined[shape] > 0, "{shape}: {joined:?}");
    }
}

#[test]
fn every_join_equals_its_reference_at_one_and_four_partitions() {
    for seed in SEEDS {
        let case = Case::new(seed);
        for partitions in [1, 4] {
            for checkpoint in [false, true] {
                case.run(partitions, checkpoint);
            }
        }
    }
}

#[test]
fn a_join_restored_at_one_partition_loses_nothing() {
    for seed in SEEDS {
        Case::new(seed).cut(1, 1);
    }
}

#[test]
fn a_join_restored_at_four_partitions_loses_nothing() {
    for seed in SEEDS {
        Case::new(seed).cut(4, 4);
    }
}

/// An image restores at another partition count: SteM groups are keyed by
/// the key hash the partitioner routes on, so each lands in the core that
/// owns its key.
#[test]
fn an_image_restores_at_another_partition_count() {
    for seed in SEEDS {
        let case = Case::new(seed);
        case.cut(1, 4);
        case.cut(4, 1);
    }
}

/// A query admitted to a running join group mid-stream sees only rows
/// built after its admission cut, which a core of its own cannot keep: its
/// group restores at one partition, and a restore at four fails naming it.
#[test]
fn a_member_admitted_mid_stream_restores_only_at_one_partition() {
    let dir = temp_dir("mid-stream");
    let path = dir.join("server.tcqk");
    let sql = "SELECT a.k, a.v, b.v FROM L a, R b WHERE a.k = b.k \
               for (t = 1; t >= 0; t++) { WindowIs(a, t - 99, t); WindowIs(b, t - 99, t); }";
    let server = TelegraphCQ::start(config(1, Some(path.clone()))).unwrap();
    for stream in STREAMS {
        server.register_stream(stream, schema()).unwrap();
    }
    let (client, _rx) = server.connect_push_client(1024).unwrap();
    server.submit(sql, client).unwrap();
    let rows = [Row {
        side: 0,
        k: 1,
        v: 1,
        ts: 1,
    }];
    feed(&server, &rows, &[Round { start: 0, end: 1 }]);
    server.submit(sql, client).unwrap();
    assert_eq!(
        server.shared_join_count(),
        1,
        "the second query joins the group"
    );
    server.checkpoint().unwrap();
    std::mem::forget(server);

    match TelegraphCQ::restore(config(4, Some(path.clone()))) {
        Err(TcqError::Storage(m)) => assert!(m.contains("partitions = 1"), "{m}"),
        Err(e) => panic!("{e}"),
        Ok(_) => panic!("a mid-stream member restored at P = 4"),
    }
    let restored = TelegraphCQ::restore(config(1, Some(path))).unwrap();
    assert_eq!(restored.query_count(), 2);
    restored.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
