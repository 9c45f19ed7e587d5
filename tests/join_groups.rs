//! One join engine for one query or many. Every join query on a stream
//! pair and key runs in one join DU — an eddy with one SteM per side — and
//! each output is completed per query. A query's answer is the same under
//! every configuration, however many queries share its DU, and when it
//! arrived.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use telegraphcq::egress::Delivery;
use telegraphcq::prelude::*;

fn int_schema(names: &[&str]) -> SchemaRef {
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(*n, DataType::Int))
            .collect(),
    )
    .into_ref()
}

fn int_row(schema: &SchemaRef, values: &[i64], ts: i64) -> Tuple {
    let b = values
        .iter()
        .fold(TupleBuilder::new(schema.clone()), |b, &v| b.push(v));
    b.at(Timestamp::logical(ts)).build().unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcq-join-groups-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Wait until every input fjord whose name ends in `.<stream>)` has had
/// `rows` messages taken off it: the join DU holds its lock from dequeuing
/// a batch until the batch is delivered, so whatever the caller does next
/// under that lock (admit, stop, read state) comes after those rows.
fn wait_dequeued(server: &TelegraphCQ, stream: &str, rows: u64) {
    let suffix = format!(".{stream})");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = server.progress_snapshot().expect("liveness is on");
        let inputs: Vec<u64> = (snap.channels.iter())
            .filter(|c| c.name.to_ascii_lowercase().ends_with(&suffix))
            .filter(|c| c.name.starts_with("join(") || c.name.starts_with("xchg-in("))
            .map(|c| c.dequeued)
            .collect();
        if !inputs.is_empty() && inputs.iter().all(|&d| d >= rows) {
            return;
        }
        assert!(Instant::now() < deadline, "{stream}: {inputs:?} of {rows}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Rows of each query, as ints, sorted.
fn rows_by_query(rx: &Receiver<Delivery>) -> BTreeMap<usize, Vec<Vec<i64>>> {
    let mut map: BTreeMap<usize, Vec<Vec<i64>>> = BTreeMap::new();
    for (qid, t) in rx.try_iter() {
        let row = t.values().iter().map(|v| v.as_int().unwrap()).collect();
        map.entry(qid).or_default().push(row);
    }
    for rows in map.values_mut() {
        rows.sort_unstable();
    }
    map
}

/// The windowed join with `L` rows `k = ts` at ts 1..=40 and then `R` rows
/// `k` at ts `40 + k`: each stream slides its own five-tick window, so the
/// `L` window holds 36..=40 when the `R` rows probe it, and exactly keys
/// 36..=40 join.
fn motivation_query(partitions: usize, checkpoint: bool) -> Vec<Vec<i64>> {
    let dir = temp_dir(&format!("motivation-{partitions}-{checkpoint}"));
    let server = TelegraphCQ::start(ServerConfig {
        partitions,
        checkpoint_path: checkpoint.then(|| dir.join("server.tcqk")),
        liveness: Some(LivenessConfig::default()),
        ..ServerConfig::default()
    })
    .unwrap();
    let (l, r) = (int_schema(&["k", "lv"]), int_schema(&["k", "rv"]));
    server.register_stream("L", l.clone()).unwrap();
    server.register_stream("R", r.clone()).unwrap();
    let (client, rx) = server.connect_push_client(4096).unwrap();
    server
        .submit(
            "SELECT a.k, b.rv FROM L a, R b WHERE a.k = b.k \
             for (t = ST; t >= 0; t++) { WindowIs(a, t - 4, t); WindowIs(b, t - 4, t); }",
            client,
        )
        .unwrap();
    let lefts = (1..=40).map(|ts| int_row(&l, &[ts, ts], ts)).collect();
    server.push_batch("L", lefts).unwrap();
    wait_dequeued(&server, "l", 40);
    let rights = (1..=40).map(|k| int_row(&r, &[k, k], 40 + k)).collect();
    server.push_batch("R", rights).unwrap();
    server.finish_stream("L").unwrap();
    server.finish_stream("R").unwrap();
    assert!(server.quiesce(Duration::from_secs(60)));
    let rows = rows_by_query(&rx).into_values().next().unwrap_or_default();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// Before one engine, this query answered 0 rows on a default server (the
/// shared SteMs slid both windows by the newest time on either stream), 5
/// with a checkpoint store (the dedicated join), and 6 and 7 at P = 2 and
/// P = 4 (each worker slid by its own partition's rows).
#[test]
fn a_windowed_join_answers_alike_under_every_partitioning_and_checkpoint_store() {
    let want: Vec<Vec<i64>> = (36..=40).map(|k| vec![k, k]).collect();
    for partitions in [1, 2, 4] {
        for checkpoint in [false, true] {
            assert_eq!(
                motivation_query(partitions, checkpoint),
                want,
                "partitions = {partitions}, checkpoint store = {checkpoint}"
            );
        }
    }
}

/// Join CQ `j` of the sharing test: its own predicates on either side, a
/// band factor on some, its own aliases, side order and select list.
fn member_sql(j: usize) -> String {
    let mut filters = format!("a.lv >= {}", (j % 5 + 1) * 10);
    if j % 3 == 1 {
        filters += &format!(" AND b.rv < {}", 60 + j % 4 * 10);
    }
    // Member 0, the group's first, has one: it runs in the eddy until a
    // second member arrives, then in member 0's residual.
    if j.is_multiple_of(4) {
        filters += " AND a.lv + b.rv > 90";
    }
    let window = "for (t = ST; t >= 0; t++) { WindowIs(a, 1, t); WindowIs(b, 1, t); }";
    if j.is_multiple_of(2) {
        format!("SELECT a.k, a.lv, b.rv FROM L a, R b WHERE a.k = b.k AND {filters} {window}")
    } else {
        let filters = filters.replace("a.", "x.").replace("b.", "y.");
        let window = window.replace("(a,", "(x,").replace("(b,", "(y,");
        format!("SELECT y.rv, x.k FROM R y, L x WHERE y.k = x.k AND {filters} {window}")
    }
}

/// What a server running only `sql` delivers for `rows` (stream, values, ts).
fn single_query_reference(sql: &str, rows: &[(&str, [i64; 2], i64)]) -> Vec<Vec<i64>> {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    let (l, r) = (int_schema(&["k", "lv"]), int_schema(&["k", "rv"]));
    server.register_stream("L", l.clone()).unwrap();
    server.register_stream("R", r.clone()).unwrap();
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    server.submit(sql, client).unwrap();
    for &(stream, values, ts) in rows {
        let schema = if stream == "L" { &l } else { &r };
        server.push(stream, int_row(schema, &values, ts)).unwrap();
    }
    server.finish_stream("L").unwrap();
    server.finish_stream("R").unwrap();
    assert!(server.quiesce(Duration::from_secs(60)));
    let rows = rows_by_query(&rx).into_values().next().unwrap_or_default();
    server.shutdown().unwrap();
    rows
}

/// N join CQs on one stream pair and key, with different side predicates,
/// band factors and select lists; the second half is admitted mid-stream
/// and every third is stopped before the end. They share one join DU whose
/// SteMs hold each row their OR filter admits once, and each query gets
/// exactly what a server running only it delivers for the rows that
/// arrived while it stood.
#[test]
fn join_cqs_share_one_du_and_each_answers_as_if_alone() {
    const ROWS: usize = 600;
    const ADMIT: usize = 200;
    const STOP: usize = 400;
    let mut rng = telegraphcq::common::rng::seeded(0x10_1A);
    let rows: Vec<(&str, [i64; 2], i64)> = (1..=ROWS as i64)
        .map(|ts| {
            let stream = if rng.gen_bool(0.5) { "L" } else { "R" };
            (
                stream,
                [rng.gen_range(0..60i64), rng.gen_range(0..100i64)],
                ts,
            )
        })
        .collect();
    let l_count = |upto: usize| rows[..upto].iter().filter(|r| r.0 == "L").count() as u64;
    let mut references: HashMap<(usize, usize, usize), Vec<Vec<i64>>> = HashMap::new();
    for n in [1usize, 10, 100] {
        let server = TelegraphCQ::start(ServerConfig {
            liveness: Some(LivenessConfig::default()),
            ..ServerConfig::default()
        })
        .unwrap();
        let (l, r) = (int_schema(&["k", "lv"]), int_schema(&["k", "rv"]));
        server.register_stream("L", l.clone()).unwrap();
        server.register_stream("R", r.clone()).unwrap();
        let (client, rx) = server.connect_push_client(1 << 18).unwrap();
        // Member j stands over rows[from..to].
        let span = |j: usize| {
            let from = if j < n.div_ceil(2) { 0 } else { ADMIT };
            let to = if j % 3 == 2 { STOP } else { ROWS };
            (from, to)
        };
        let mut qids = vec![0; n];
        let push = |range: std::ops::Range<usize>| {
            for &(stream, values, ts) in &rows[range] {
                let schema = if stream == "L" { &l } else { &r };
                server.push(stream, int_row(schema, &values, ts)).unwrap();
            }
        };
        let admit = |qids: &mut Vec<usize>, at: usize| {
            for j in (0..n).filter(|&j| span(j).0 == at) {
                qids[j] = server.submit(&member_sql(j), client).unwrap();
            }
        };
        admit(&mut qids, 0);
        assert_eq!(server.shared_join_count(), 1, "N = {n}: one join DU");
        push(0..ADMIT);
        wait_dequeued(&server, "l", l_count(ADMIT));
        wait_dequeued(&server, "r", ADMIT as u64 - l_count(ADMIT));
        admit(&mut qids, ADMIT);
        assert_eq!(server.shared_join_count(), 1, "N = {n}: still one join DU");
        push(ADMIT..STOP);
        wait_dequeued(&server, "l", l_count(STOP));
        wait_dequeued(&server, "r", STOP as u64 - l_count(STOP));
        for j in (0..n).filter(|&j| span(j).1 == STOP) {
            server.stop_query(qids[j]).unwrap();
        }
        push(STOP..ROWS);
        wait_dequeued(&server, "l", l_count(ROWS));
        wait_dequeued(&server, "r", ROWS as u64 - l_count(ROWS));

        // The SteMs hold each row the OR of the standing side filters
        // admitted when it arrived: every L row with lv >= the smallest
        // bound (member 0's, which stands throughout), and every R row
        // (member 0 does not filter R).
        let min_lv = (0..n).map(|j| (j % 5 + 1) * 10).min().unwrap() as i64;
        let stored = (rows.iter())
            .filter(|(stream, v, _)| *stream == "R" || v[1] >= min_lv)
            .count();
        // Reading the state waits for the DU's lock: every row is delivered.
        let live = qids[0];
        assert_eq!(server.join_state_rows(live), Some(stored), "N = {n}");
        let bytes = server.join_state_bytes(live).unwrap();
        let stats = server.shared_memory_stats();
        let group = stats.iter().find(|s| s.label == "join:l:r").unwrap();
        println!(
            "N = {n:>3}: {stored} SteM rows in {bytes} B ({} B/row); {} B of per-member state \
             for {} standing members",
            bytes / stored,
            group.approx_bytes,
            group.queries,
        );

        let got = rows_by_query(&rx);
        for (j, &qid) in qids.iter().enumerate() {
            let (from, to) = span(j);
            let sql = member_sql(j);
            let want = references
                .entry((j % 60, from, to))
                .or_insert_with(|| single_query_reference(&sql, &rows[from..to]));
            assert_eq!(
                got.get(&qid).cloned().unwrap_or_default(),
                *want,
                "N = {n}, member {j} over rows {from}..{to}: {sql}"
            );
        }
        server.shutdown().unwrap();
    }
}

/// One step of a session against a server that checkpoints.
#[derive(Clone, Copy)]
enum Step<'a> {
    /// Submit a query; ids count up from 1, and a restored server goes on
    /// from the ids its checkpoint holds.
    Submit(&'a str),
    /// Stop the `n`-th query the session submitted.
    Stop(usize),
    /// Push ticks `from..=to` of both streams and wait until every live
    /// query got its rows.
    Feed(i64, i64),
    /// Commit a checkpoint.
    Checkpoint,
}

/// Tick `t`: one `L(k, lv)` and one `R(k, rv)` row. `L`'s keys move from
/// 0..50 to 50..100 after tick 500, so a group started later stores no `L`
/// row under an earlier group's keys, while `R` keys cover both ranges.
fn ticks(from: i64, to: i64) -> Vec<(&'static str, [i64; 2], i64)> {
    (from..=to)
        .flat_map(|t| {
            let lk = t % 50 + if t > 500 { 50 } else { 0 };
            [
                ("L", [lk, t % 100], t),
                ("R", [(t * 7) % 100, (t * 3) % 100], t),
            ]
        })
        .collect()
}

/// A join of `L a` and `R b` on `k` with the conjuncts `filter`, whose
/// loop runs to `deadline` (forever when `None`). The windows are wider
/// than any run, so the answer does not depend on how the DU interleaves
/// the streams.
fn group_query(filter: &str, deadline: Option<i64>) -> String {
    let until = deadline.map_or_else(|| "t >= 0".to_string(), |d| format!("t <= {d}"));
    format!(
        "SELECT a.k, a.lv, b.rv FROM L a, R b WHERE a.k = b.k {filter} \
         for (t = ST; {until}; t++) {{ WindowIs(a, t - 8000000, t); WindowIs(b, t - 8000000, t); }}"
    )
}

/// Wait until the ingress and join input fjords have stayed empty and
/// unchanged for a few polls, then take the DU lock of each `live` query:
/// a DU holds it from dequeuing a batch until the batch is delivered.
fn settle(server: &TelegraphCQ, live: &[usize]) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut calm, mut last) = (0, Vec::new());
    while calm < 5 {
        let snap = server.progress_snapshot().expect("liveness is on");
        let inputs: Vec<(u64, u64)> = (snap.channels.iter())
            .filter(|c| c.name.starts_with("ingress(") || c.name.starts_with("join("))
            .map(|c| (c.enqueued, c.dequeued))
            .collect();
        let idle = inputs.iter().all(|(e, d)| e == d) && inputs == last;
        calm = if idle { calm + 1 } else { 0 };
        last = inputs;
        assert!(Instant::now() < deadline, "the join inputs never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    for &qid in live {
        server.join_state_rows(qid);
    }
}

/// The queries of a session: every id it submitted, in submit order, the
/// ones running, and the ones running at its last checkpoint.
#[derive(Default)]
struct Session {
    qids: Vec<usize>,
    live: Vec<usize>,
    checkpointed: Vec<usize>,
}

/// Run `steps` on a fresh or restored server, with a new client
/// subscribed to the session's running queries; each query's rows.
fn run_session(
    server: &TelegraphCQ,
    session: &mut Session,
    steps: &[Step<'_>],
) -> BTreeMap<usize, Vec<Vec<i64>>> {
    let (l, r) = (int_schema(&["k", "lv"]), int_schema(&["k", "rv"]));
    let (client, rx) = server.connect_push_client(1 << 18).unwrap();
    for &qid in &session.live {
        server.subscribe_client(client, qid).unwrap();
    }
    for step in steps {
        match *step {
            Step::Submit(sql) => {
                let qid = server.submit(sql, client).unwrap();
                session.qids.push(qid);
                session.live.push(qid);
            }
            Step::Stop(n) => {
                let qid = session.qids[n];
                server.stop_query(qid).unwrap();
                session.live.retain(|&q| q != qid);
            }
            Step::Feed(from, to) => {
                let rows = ticks(from, to);
                for chunk in rows.chunks(200) {
                    for (stream, schema) in [("L", &l), ("R", &r)] {
                        let batch = (chunk.iter())
                            .filter(|row| row.0 == stream)
                            .map(|&(_, values, ts)| int_row(schema, &values, ts))
                            .collect();
                        server.push_batch(stream, batch).unwrap();
                    }
                }
                settle(server, &session.live);
            }
            Step::Checkpoint => {
                assert!(server.checkpoint().unwrap().fragments > 0);
                session.checkpointed = session.live.clone();
            }
        }
    }
    rows_by_query(&rx)
}

/// Run `before` on a server that then dies without a shutdown, restore it
/// from its checkpoint and run `after` with the queries running at the
/// checkpoint subscribed: each query's rows from both incarnations, by
/// query id.
fn crash_and_restore(
    tag: &str,
    before: &[Step<'_>],
    after: &[Step<'_>],
) -> BTreeMap<usize, Vec<Vec<i64>>> {
    let dir = temp_dir(tag);
    let config = || ServerConfig {
        checkpoint_path: Some(dir.join("server.tcqk")),
        liveness: Some(LivenessConfig::default()),
        ..ServerConfig::default()
    };
    let server = TelegraphCQ::start(config()).unwrap();
    server
        .register_stream("L", int_schema(&["k", "lv"]))
        .unwrap();
    server
        .register_stream("R", int_schema(&["k", "rv"]))
        .unwrap();
    let mut session = Session::default();
    let mut rows = run_session(&server, &mut session, before);
    std::mem::forget(server);
    let server = TelegraphCQ::restore(config()).unwrap();
    session.live = std::mem::take(&mut session.checkpointed);
    assert_eq!(server.query_count(), session.live.len());
    for (qid, more) in run_session(&server, &mut session, after) {
        rows.entry(qid).or_default().extend(more);
    }
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    for rows in rows.values_mut() {
        rows.sort_unstable();
    }
    rows
}

/// What a server running only `sql` delivers for ticks `from..=to`.
fn reference(sql: &str, from: i64, to: i64) -> Vec<Vec<i64>> {
    let rows = single_query_reference(sql, &ticks(from, to));
    assert!(!rows.is_empty(), "{sql} over ticks {from}..={to}");
    rows
}

/// Two members of one group — one with a band factor — admitted before
/// any input; the server dies mid-stream and restores from its last
/// checkpoint, the group and both members coming back with it. Both
/// members' rows equal an uninterrupted run's.
#[test]
fn a_join_group_restores_from_its_checkpoint_and_loses_nothing() {
    let members = [
        "SELECT y.rv, x.lv FROM R y, L x WHERE y.k = x.k AND x.lv + y.rv > 120 \
         for (t = ST; t >= 0; t++) { WindowIs(x, t - 8000000, t); WindowIs(y, t - 8000000, t); }"
            .to_string(),
        group_query("AND a.lv > 20", None),
    ];
    let (m0, m1) = (members[0].as_str(), members[1].as_str());
    let got = crash_and_restore(
        "restore",
        &[
            Step::Submit(m0),
            Step::Submit(m1),
            Step::Feed(1, 1000),
            Step::Checkpoint,
        ],
        &[Step::Feed(1001, 2000)],
    );
    for (m, sql) in members.iter().enumerate() {
        assert_eq!(got[&(m + 1)], reference(sql, 1, 2000), "member {m}: {sql}");
    }
}

/// Groups that differ only in their loop's deadline share a key label: one
/// starts, a second, the first stops and a third starts. Each keeps its
/// own checkpoint state and restores to its own answer.
#[test]
fn join_groups_with_one_key_label_checkpoint_apart() {
    let q: Vec<String> = (0..3).map(|d| group_query("", Some(100_000 + d))).collect();
    let [q1, q2, q3] = [q[0].as_str(), q[1].as_str(), q[2].as_str()];
    let got = crash_and_restore(
        "labels",
        &[
            Step::Submit(q1),
            Step::Submit(q2),
            Step::Feed(1, 500),
            Step::Checkpoint,
            Step::Stop(0),
            Step::Submit(q3),
            Step::Feed(501, 1000),
            Step::Checkpoint,
        ],
        &[Step::Feed(1001, 2000)],
    );
    assert_eq!(got[&2], reference(q2, 1, 2000), "{q2}");
    assert_eq!(got[&3], reference(q3, 501, 2000), "{q3}");
}

/// A group whose only query stops is gone; the same query submitted again
/// starts a new group, and after a restore that group joins none of the
/// first one's stored rows.
#[test]
fn a_join_group_started_again_restores_none_of_its_predecessors_rows() {
    let q = group_query("", None);
    let got = crash_and_restore(
        "again",
        &[
            Step::Submit(&q),
            Step::Feed(1, 500),
            Step::Checkpoint,
            Step::Stop(0),
            Step::Submit(&q),
            Step::Feed(501, 1000),
            Step::Checkpoint,
        ],
        &[Step::Feed(1001, 2000)],
    );
    assert_eq!(got[&2], reference(&q, 501, 2000));
}

/// The SteMs of a group store the rows the OR of its members' side
/// predicates admitted. A member stops and the server dies; the restored
/// group's only query still gets only the rows its own predicate admits.
#[test]
fn a_restored_group_checks_its_members_own_predicates_on_imported_rows() {
    let (a, b) = (
        group_query("AND a.lv > 50", None),
        group_query("AND a.lv > 20", None),
    );
    let got = crash_and_restore(
        "predicates",
        &[
            Step::Submit(&a),
            Step::Submit(&b),
            Step::Feed(1, 600),
            Step::Stop(1),
            Step::Feed(601, 1000),
            Step::Checkpoint,
        ],
        &[Step::Feed(1001, 2000)],
    );
    assert_eq!(got[&1], reference(&a, 1, 2000), "{a}");
}

/// A member admitted mid-stream sees only rows built after its admission,
/// and a restore admits it at the same cut. One submitted after the last
/// checkpoint is not in the image: resubmitted after the restore, it is
/// admitted live and sees none of the imported rows.
#[test]
fn a_member_admitted_mid_stream_keeps_its_cut_across_a_restore() {
    let (a, b) = (
        group_query("AND a.lv > 50", None),
        group_query("AND b.rv > 30", None),
    );
    let c = group_query("", None);
    let got = crash_and_restore(
        "cut",
        &[
            Step::Submit(&a),
            Step::Feed(1, 500),
            Step::Submit(&b),
            Step::Feed(501, 1000),
            Step::Checkpoint,
            Step::Submit(&c),
        ],
        &[Step::Submit(&c), Step::Feed(1001, 2000)],
    );
    assert_eq!(got[&1], reference(&a, 1, 2000), "{a}");
    assert_eq!(got[&2], reference(&b, 501, 2000), "{b}");
    assert_eq!(got[&3], reference(&c, 1001, 2000), "{c}");
}

/// A fresh `start()` on a path an earlier run checkpointed to begins with
/// an empty image. Run A stores `L` keys 0..10 and checkpoints; run B
/// starts fresh on the same path, submits the same query (id 1 and group
/// label again), stores keys 100..110, checkpoints and dies. Restored, B
/// must join none of A's keys.
#[test]
fn a_fresh_start_discards_an_earlier_runs_image() {
    let dir = temp_dir("fresh-start");
    let config = || ServerConfig {
        checkpoint_path: Some(dir.join("server.tcqk")),
        liveness: Some(LivenessConfig::default()),
        ..ServerConfig::default()
    };
    let q = group_query("", None);
    let (l, r) = (int_schema(&["k", "lv"]), int_schema(&["k", "rv"]));
    let run = |keys: std::ops::Range<i64>| {
        let server = TelegraphCQ::start(config()).unwrap();
        server.register_stream("L", l.clone()).unwrap();
        server.register_stream("R", r.clone()).unwrap();
        let (client, _rx) = server.connect_push_client(1024).unwrap();
        assert_eq!(server.submit(&q, client).unwrap(), 1);
        let rows = keys.map(|k| int_row(&l, &[k, k], k + 1)).collect();
        server.push_batch("L", rows).unwrap();
        settle(&server, &[1]);
        server.checkpoint().unwrap();
        server
    };
    run(0..10).shutdown().unwrap();
    std::mem::forget(run(100..110));

    let server = TelegraphCQ::restore(config()).unwrap();
    let (client, rx) = server.connect_push_client(1024).unwrap();
    server.subscribe_client(client, 1).unwrap();
    let probes = (0..10).map(|k| int_row(&r, &[k, k], 1000 + k)).collect();
    server.push_batch("R", probes).unwrap();
    settle(&server, &[1]);
    let joined: Vec<i64> = (rx.try_iter())
        .map(|(_, t)| t.value(0).as_int().unwrap())
        .collect();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        joined.is_empty(),
        "restored B joined keys only incarnation A stored: {joined:?}"
    );
}
