//! Whole-server chaos: the full TelegraphCQ stack booted under one seeded
//! fault schedule mixing a source panic, an injected enqueue overflow, a
//! soft archive failure, a torn archive write, and a dead client — then
//! held to *exact* accounting: every produced tuple is delivered, shed,
//! displaced, or counted against the disconnected client; the archive
//! reopens cleanly; and the same seed replays the identical catastrophe.

use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::time::Duration;

use telegraphcq::common::FiredFault;
use telegraphcq::egress::Delivery;
use telegraphcq::executor::{StallDiagnosis, WatchdogStats};
use telegraphcq::prelude::*;
use telegraphcq::storage::{BufferPool, StreamArchive};

const TUPLES: i64 = 3000;
const SEED: u64 = 0x5EED_CA05;

fn schema() -> SchemaRef {
    Schema::new(vec![Field::new("v", DataType::Int)]).into_ref()
}

fn workload() -> Vec<Tuple> {
    let schema = schema();
    (1..=TUPLES)
        .map(|i| {
            TupleBuilder::new(schema.clone())
                .push(i)
                .at(Timestamp::logical(i))
                .build()
                .unwrap()
        })
        .collect()
}

/// Replays a fixed tuple set in fixed-size batches; resumable from an
/// offset so the supervisor's factory can skip already-delivered tuples.
struct ReplaySource {
    schema: SchemaRef,
    tuples: Vec<Tuple>,
    pos: usize,
}

impl Source for ReplaySource {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }
    fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> Result<SourceStatus> {
        if self.pos >= self.tuples.len() {
            return Ok(SourceStatus::Exhausted);
        }
        let n = max.min(self.tuples.len() - self.pos);
        out.extend_from_slice(&self.tuples[self.pos..self.pos + n]);
        self.pos += n;
        Ok(SourceStatus::Ready)
    }
}

/// One seeded schedule across four layers: a wrapper panic (ingress), a
/// dropped fan-out (dispatcher), a failed append plus a torn page seal
/// (storage), and two failed delivery offers (egress). The dead client is
/// not injected — it really disconnects.
fn plan() -> FaultPlan {
    FaultPlan::new(SEED)
        .at(
            FaultPoint::SourceRead,
            20,
            FaultAction::Panic("wrapper segfault".into()),
        )
        .at(FaultPoint::FjordEnqueue, 500, FaultAction::Overflow)
        .at(
            FaultPoint::ArchiveAppend,
            50,
            FaultAction::Error("disk hiccup".into()),
        )
        .at(FaultPoint::ArchiveAppend, 100, FaultAction::Overflow)
        .at(
            FaultPoint::EgressDeliver,
            1000,
            FaultAction::Error("socket reset".into()),
        )
        .at(
            FaultPoint::EgressDeliver,
            2000,
            FaultAction::Error("socket reset".into()),
        )
}

struct Outcome {
    results: Vec<i64>,
    egress: EgressStats,
    dispatcher_shed: i64,
    archive_errors: i64,
    archive: telegraphcq::storage::ArchiveStats,
    sup: telegraphcq::ingress::SupervisorStats,
    log: Vec<FiredFault>,
    watchdog: WatchdogStats,
    archive_path: PathBuf,
}

fn run_scenario(dir: &std::path::Path) -> Outcome {
    run_scenario_with_io_batch(dir, ServerConfig::default().io_batch)
}

fn run_scenario_with_io_batch(dir: &std::path::Path, io_batch: usize) -> Outcome {
    let server = TelegraphCQ::start(ServerConfig {
        archive_dir: Some(dir.to_path_buf()),
        fault_plan: Some(plan()),
        egress_policy: EgressPolicy {
            disconnect_after: 4,
        },
        io_batch,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();

    // A healthy push client and a dead one (receiver dropped before any
    // delivery): the router must disconnect the dead one after its first
    // offer and keep the healthy one flowing.
    let (healthy, rx): (_, Receiver<Delivery>) = server.connect_push_client(4096).unwrap();
    let (dead, dead_rx): (_, Receiver<Delivery>) = server.connect_push_client(4).unwrap();
    drop(dead_rx);
    server.submit("SELECT v FROM s", healthy).unwrap();
    server.submit("SELECT v FROM s", dead).unwrap();

    let master = workload();
    let factory: SourceFactory = {
        let schema = schema();
        Box::new(move |_attempt, delivered| {
            Ok(Box::new(ReplaySource {
                schema: schema.clone(),
                tuples: master[delivered as usize..].to_vec(),
                pos: 0,
            }) as Box<dyn Source>)
        })
    };
    server.attach_supervised_source("s", factory).unwrap();

    // 60s like every other quiesce here: a slow debug run under ambient
    // load can legitimately take tens of seconds, and a deadline miss
    // reads as a determinism break when it is only scheduling.
    assert!(
        server.quiesce(Duration::from_secs(60)),
        "server must quiesce despite the chaos schedule"
    );

    let sup = server.supervisor_stats().remove(0).1;
    let outcome = Outcome {
        results: rx
            .try_iter()
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect(),
        egress: server.egress_stats_full(),
        dispatcher_shed: server.shed_count("s").unwrap(),
        archive_errors: server.archive_error_count("s").unwrap(),
        archive: server.archive_stats("s").unwrap().unwrap(),
        sup,
        log: server.fired_faults(),
        watchdog: server.executor_stats().watchdog,
        archive_path: dir.join("s.seg"),
    };
    server.shutdown().unwrap();
    outcome
}

/// The determinism contract is per fault point (each point's poll counter
/// advances on one component's schedule); normalise to (point, poll#)
/// order before comparing logs across runs.
fn normalised(mut log: Vec<FiredFault>) -> Vec<FiredFault> {
    log.sort_by_key(|&(point, count, _)| (point, count));
    log
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcq-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn whole_server_chaos_quiesces_with_exact_accounting() {
    let dir = temp_dir("acct");
    let o = run_scenario(&dir);

    // Ingress: the panic was survived, every tuple replayed exactly once.
    assert_eq!(o.sup.delivered, TUPLES as u64);
    assert_eq!(o.sup.panics, 1);
    assert_eq!(o.sup.restarts, 1);
    assert_eq!(o.sup.malformed, 0);

    // Dispatcher: exactly one fan-out (one subscriber copy) dropped by the
    // injected enqueue overflow.
    assert_eq!(o.dispatcher_shed, 1);

    // Storage: one soft append failure, one torn page seal, all counted.
    assert_eq!(o.archive_errors, 1);
    assert_eq!(o.archive.appended, TUPLES as u64 - 1);
    assert_eq!(o.archive.torn_pages, 1);
    assert!(o.archive.lost_records > 0);

    // Egress: tuple 1 was offered to both clients (the dead one paid with
    // a disconnect), every later tuple only to the healthy one.
    let e = &o.egress;
    assert_eq!(e.offered, TUPLES as u64);
    assert_eq!(e.disconnected, 1);
    assert_eq!(e.disconnected_loss, 1);
    assert_eq!(e.shed, 2, "two injected delivery errors");
    assert_eq!(e.displaced, 0);
    assert!(
        e.accounted(),
        "delivered + shed + displaced + disconnected_loss == offered"
    );
    assert_eq!(
        e.delivered + e.shed + e.displaced + e.disconnected_loss,
        o.sup.delivered - o.dispatcher_shed as u64 + 1,
        "egress accounts for every copy the dispatcher fanned out"
    );
    assert_eq!(o.results.len() as u64, e.delivered);

    // The client never sees the dispatcher-dropped tuple or the two
    // egress-shed ones, and sees everything else in order.
    assert!(o.results.windows(2).all(|w| w[0] < w[1]), "in order");
    assert!(!o.results.contains(&500), "tuple 500's fan-out was dropped");

    // Six faults fired, none left pending.
    assert_eq!(o.log.len(), 6);
}

#[test]
fn chaos_archive_reopens_cleanly_after_shutdown() {
    let dir = temp_dir("reopen");
    let o = run_scenario(&dir);

    // Reopen the crashed-over segment: the torn page is skipped, every
    // surviving record is readable, and the counts agree exactly with the
    // live archive's own accounting.
    let pool = BufferPool::new(64, 8192);
    let mut archive = StreamArchive::open(
        &o.archive_path,
        schema().with_qualifier("s").into_ref(),
        pool,
    )
    .unwrap();
    let recovery = archive.recovery().unwrap();
    assert_eq!(recovery.pages_skipped, 1, "the torn page fails validation");
    assert_eq!(
        recovery.records_recovered,
        o.archive.appended - o.archive.lost_records
    );
    let mut out = Vec::new();
    archive.scan_window(1, TUPLES, &mut out).unwrap();
    assert_eq!(out.len() as u64, recovery.records_recovered);
    // The soft-failed append (tuple 50) is the only gap outside the torn
    // page's contiguous range.
    assert!(!out.iter().any(|t| t.timestamp().seq() == 50));
}

#[test]
fn chaos_schedule_replays_identically_from_its_seed() {
    let dir_a = temp_dir("det-a");
    let dir_b = temp_dir("det-b");
    let a = run_scenario(&dir_a);
    let b = run_scenario(&dir_b);
    assert_eq!(
        a.results, b.results,
        "answers diverged across same-seed runs"
    );
    assert_eq!(a.egress, b.egress, "egress accounting diverged");
    assert_eq!(
        normalised(a.log),
        normalised(b.log),
        "fired-fault logs diverged across same-seed runs"
    );
}

#[test]
fn batched_and_per_tuple_dispatch_replay_identically() {
    // The batching knob must be invisible to the chaos contract: faults,
    // stamping, and archiving are polled per message on the batch path, so
    // a same-seed run is byte-identical whether the hot path moves one
    // message or sixty-four per lock acquisition.
    let dir_a = temp_dir("iobatch-1");
    let dir_b = temp_dir("iobatch-64");
    let a = run_scenario_with_io_batch(&dir_a, 1);
    let b = run_scenario_with_io_batch(&dir_b, 64);
    assert_eq!(a.results, b.results, "answers diverged across batch sizes");
    assert_eq!(a.egress, b.egress, "egress accounting diverged");
    assert_eq!(a.dispatcher_shed, b.dispatcher_shed);
    assert_eq!(a.archive_errors, b.archive_errors);
    assert_eq!(
        (
            a.archive.appended,
            a.archive.torn_pages,
            a.archive.lost_records
        ),
        (
            b.archive.appended,
            b.archive.torn_pages,
            b.archive.lost_records
        ),
        "archive accounting diverged"
    );
    assert_eq!(
        normalised(a.log),
        normalised(b.log),
        "fired-fault logs diverged across batch sizes"
    );
}

fn hot_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref()
}

fn dim_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("tag", DataType::Int),
    ])
    .into_ref()
}

const DIM_ROWS: i64 = 64;

/// The join flavour of the chaos scenario: the same seeded fault schedule
/// over a two-stream equi-join, run either sequentially (`partitions = 1`,
/// a dedicated `JoinCqDu`) or through the partitioned exchange. The
/// dimension stream is fully loaded *and closed* before the hot stream
/// flows, so every d-side SteM insert precedes every s-side probe in both
/// plans and delivery order is the hot stream's arrival order.
fn run_join_scenario(dir: &std::path::Path, partitions: usize, query: &str) -> Outcome {
    run_join_scenario_cfg(dir, partitions, query, None, None)
}

fn run_join_scenario_with_checkpoints(
    dir: &std::path::Path,
    partitions: usize,
    query: &str,
    checkpoint_path: Option<PathBuf>,
) -> Outcome {
    run_join_scenario_cfg(dir, partitions, query, checkpoint_path, None)
}

fn run_join_scenario_cfg(
    dir: &std::path::Path,
    partitions: usize,
    query: &str,
    checkpoint_path: Option<PathBuf>,
    liveness: Option<LivenessConfig>,
) -> Outcome {
    let checkpointing = checkpoint_path.is_some();
    let server = TelegraphCQ::start(ServerConfig {
        archive_dir: Some(dir.to_path_buf()),
        fault_plan: Some(plan()),
        egress_policy: EgressPolicy {
            disconnect_after: 4,
        },
        partitions,
        checkpoint_path,
        liveness,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", hot_schema()).unwrap();
    server.register_stream("d", dim_schema()).unwrap();

    let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(4096).unwrap();
    server.submit(query, client).unwrap();

    let dims = dim_schema();
    let dim_batch: Vec<Tuple> = (0..DIM_ROWS)
        .map(|id| {
            TupleBuilder::new(dims.clone())
                .push(id)
                .push(id * 10)
                .at(Timestamp::logical(id + 1))
                .build()
                .unwrap()
        })
        .collect();
    server.push_batch("d", dim_batch).unwrap();
    while server.stream_time("d").unwrap() < DIM_ROWS {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.finish_stream("d").unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let hot = hot_schema();
    let master: Vec<Tuple> = (1..=TUPLES)
        .map(|i| {
            TupleBuilder::new(hot.clone())
                .push(i % DIM_ROWS)
                .push(i)
                .at(Timestamp::logical(i))
                .build()
                .unwrap()
        })
        .collect();
    let factory: SourceFactory = {
        let schema = hot.clone();
        Box::new(move |_attempt, delivered| {
            Ok(Box::new(ReplaySource {
                schema: schema.clone(),
                tuples: master[delivered as usize..].to_vec(),
                pos: 0,
            }) as Box<dyn Source>)
        })
    };
    server.attach_supervised_source("s", factory).unwrap();

    // Periodic checkpoints racing the live run: they must be invisible to
    // the replay contract (no Checkpoint* faults are planned, and the cut
    // only reads state — it never reorders or drops tuples).
    if checkpointing {
        for _ in 0..2 {
            std::thread::sleep(Duration::from_millis(20));
            server.checkpoint().unwrap();
        }
    }

    assert!(
        server.quiesce(Duration::from_secs(60)),
        "partitioned chaos join must quiesce (P={partitions})"
    );
    if checkpointing {
        server.checkpoint().unwrap();
    }

    let sup = server.supervisor_stats().remove(0).1;
    let outcome = Outcome {
        results: rx
            .try_iter()
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect(),
        egress: server.egress_stats_full(),
        dispatcher_shed: server.shed_count("s").unwrap(),
        archive_errors: server.archive_error_count("s").unwrap()
            + server.archive_error_count("d").unwrap(),
        archive: server.archive_stats("s").unwrap().unwrap(),
        sup,
        log: server.fired_faults(),
        watchdog: server.executor_stats().watchdog,
        archive_path: dir.join("s.seg"),
    };
    server.shutdown().unwrap();
    outcome
}

#[test]
fn sequential_and_partitioned_join_replay_identically() {
    // The exchange must be invisible to the chaos contract: the
    // partitioner re-serializes the canonical input order, the merger
    // replays it, and no exchange DU polls a fault point — so a same-seed
    // run is byte-identical whether the join runs on one eddy or four.
    // P=1 runs the columnar JoinCqDu, P=4 the row exchange. The second
    // query's computed select item has no columnar projection and its
    // residual (arithmetic, so interpreted) drops rows from some runs but
    // not others: the P=1 eddy emits both row and column runs.
    // Unequal window widths keep both joins off the CACQ shared path, so
    // P=1 runs the dedicated JoinCqDu the exchange must be equivalent to.
    let computed = "SELECT s.v * 2 + d.tag FROM s s, d d WHERE s.k = d.id AND s.v + d.tag > 300 \
         for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 9000000, t); }";
    // Equal widths but a finite loop: the query retires after its last
    // window at P=1 exactly as the exchange retires it at P=4.
    let finite = "SELECT s.v, d.tag FROM s s, d d WHERE s.k = d.id \
         for (t = ST; t <= 2500; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 8000000, t); }";
    for (tag, query) in [
        ("plain", JOIN_Q),
        ("computed", computed),
        ("finite", finite),
    ] {
        let dir_a = temp_dir(&format!("part-1-{tag}"));
        let dir_b = temp_dir(&format!("part-4-{tag}"));
        let a = run_join_scenario(&dir_a, 1, query);
        let b = run_join_scenario(&dir_b, 4, query);
        assert!(
            !a.results.is_empty(),
            "the join must produce results ({tag})"
        );
        assert_eq!(
            a.results, b.results,
            "answers diverged across P=1 / P=4 ({tag})"
        );
        assert_eq!(a.egress, b.egress, "egress accounting diverged ({tag})");
        assert_eq!(a.dispatcher_shed, b.dispatcher_shed);
        assert_eq!(a.archive_errors, b.archive_errors);
        assert_eq!(
            (
                a.archive.appended,
                a.archive.torn_pages,
                a.archive.lost_records
            ),
            (
                b.archive.appended,
                b.archive.torn_pages,
                b.archive.lost_records
            ),
            "archive accounting diverged ({tag})"
        );
        assert_eq!(a.sup.delivered, b.sup.delivered);
        assert_eq!(
            normalised(a.log),
            normalised(b.log),
            "fired-fault logs diverged across partition counts ({tag})"
        );
    }
}

/// Sorted `(r.x, s.x, t.x)` triples a three-way star join delivers when
/// `rows` — `(stream, key)` pairs, `x` = arrival index — are pushed one
/// at a time, so an exchange worker's batches interleave all three
/// sources.
fn run_three_way_join(partitions: usize, rows: &[(usize, i64)]) -> Vec<(i64, i64, i64)> {
    let server = TelegraphCQ::start(ServerConfig {
        partitions,
        ..ServerConfig::default()
    })
    .unwrap();
    for name in ["r", "s", "t"] {
        server.register_stream(name, hot_schema()).unwrap();
    }
    let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(1 << 15).unwrap();
    server
        .submit(
            "SELECT r.v, s.v, t.v FROM r r, s s, t t WHERE r.k = s.k AND s.k = t.k \
             for (t = ST; t >= 0; t++) { WindowIs(r, t - 8000000, t); \
             WindowIs(s, t - 8000000, t); WindowIs(t, t - 8000000, t); }",
            client,
        )
        .unwrap();
    let hot = hot_schema();
    for (i, &(stream, k)) in rows.iter().enumerate() {
        let i = i as i64 + 1;
        let row = TupleBuilder::new(hot.clone())
            .push(k)
            .push(i)
            .at(Timestamp::logical(i))
            .build()
            .unwrap();
        server.push(["r", "s", "t"][stream], row).unwrap();
    }
    for name in ["r", "s", "t"] {
        server.finish_stream(name).unwrap();
    }
    assert!(
        server.quiesce(Duration::from_secs(60)),
        "three-way join must quiesce (P={partitions})"
    );
    let mut triples: Vec<_> = rx
        .try_iter()
        .map(|(_, t)| {
            let v = |c| t.value(c).as_int().unwrap();
            (v(0), v(1), v(2))
        })
        .collect();
    server.shutdown().unwrap();
    triples.sort_unstable();
    triples
}

#[test]
fn partitioned_three_way_join_delivers_each_triple_once() {
    // A partition worker routes mixed-source batches. Each source run (and
    // everything it derives) must finish routing before the next run
    // builds into its SteM — otherwise an `r ⋈ s` intermediate queued
    // behind a later `t` run probes SteM(t) after that run already probed
    // its way to the same triple, and the triple is delivered twice.
    // Every key hashes to the same one of the four partitions, so one
    // worker sees the whole interleaved input in long mixed-source runs.
    let keys: Vec<i64> = (0..)
        .filter(|&k| telegraphcq::common::hash_value(&Value::Int(k)).is_multiple_of(4))
        .take(40)
        .collect();
    let mut rng = telegraphcq::common::rng::seeded(0x3A_7E);
    let rows: Vec<(usize, i64)> = (0..900)
        .map(|_| (rng.gen_range(0..3usize), keys[rng.gen_range(0..keys.len())]))
        .collect();
    let side = |stream| {
        (1..)
            .zip(&rows)
            .filter(move |&(_, &(s, _))| s == stream)
            .map(|(x, &(_, k))| (x, k))
    };
    let mut expected = Vec::new();
    for (rx, rk) in side(0) {
        for (sx, sk) in side(1).filter(|&(_, sk)| sk == rk) {
            for (tx, _) in side(2).filter(|&(_, tk)| tk == sk) {
                expected.push((rx, sx, tx));
            }
        }
    }
    expected.sort_unstable();
    assert!(!expected.is_empty());
    let sequential = run_three_way_join(1, &rows);
    assert_eq!(sequential.len(), expected.len(), "P=1 vs nested loop");
    assert_eq!(sequential, expected);
    let partitioned = run_three_way_join(4, &rows);
    assert_eq!(partitioned.len(), expected.len(), "P=4 vs nested loop");
    assert_eq!(partitioned, expected);
}

#[test]
fn checkpointing_on_and_off_replay_identically() {
    // Taking checkpoints is pure observation: the cut reads cursors,
    // drains ingress, and snapshots operator state under the DU locks,
    // but never reorders, drops, or duplicates a tuple — so a same-seed
    // chaos run is byte-identical with periodic checkpointing on or off.
    let query = "SELECT s.v, d.tag FROM s s, d d WHERE s.k = d.id \
         for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 9000000, t); }";
    let dir_a = temp_dir("ckpt-off");
    let dir_b = temp_dir("ckpt-on");
    let a = run_join_scenario_with_checkpoints(&dir_a, 1, query, None);
    let b = run_join_scenario_with_checkpoints(&dir_b, 1, query, Some(dir_b.join("server.tcqk")));
    assert!(!a.results.is_empty(), "the join must produce results");
    assert_eq!(
        a.results, b.results,
        "answers diverged across checkpointing on/off"
    );
    assert_eq!(a.egress, b.egress, "egress accounting diverged");
    assert_eq!(a.dispatcher_shed, b.dispatcher_shed);
    assert_eq!(a.archive_errors, b.archive_errors);
    assert_eq!(
        (
            a.archive.appended,
            a.archive.torn_pages,
            a.archive.lost_records
        ),
        (
            b.archive.appended,
            b.archive.torn_pages,
            b.archive.lost_records
        ),
        "archive accounting diverged"
    );
    assert_eq!(a.sup.delivered, b.sup.delivered);
    assert_eq!(
        normalised(a.log),
        normalised(b.log),
        "fired-fault logs diverged across checkpointing modes"
    );
}

/// Structural equality for values that must survive a checkpoint exactly:
/// floats compare by bit pattern (NaN payloads and -0.0 included).
fn bit_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

#[test]
fn checkpoint_codec_roundtrips_every_value_variant() {
    use telegraphcq::common::{CkptReader, CkptWriter};

    let values = vec![
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Int(0),
        Value::Int(-1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.5),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(f64::MIN_POSITIVE),
        Value::Float(f64::from_bits(0x7FF8_0000_0000_1234)), // NaN w/ payload
        Value::str(""),
        Value::str("plain"),
        Value::str("πρöσ 流 \u{1F600} \0 embedded"),
    ];
    let mut w = CkptWriter::new();
    for v in &values {
        w.put_value(v);
    }
    let mut r = CkptReader::new(w.as_slice());
    for v in &values {
        let got = r.get_value().unwrap();
        assert!(bit_identical(v, &got), "roundtrip mangled {v:?} -> {got:?}");
    }
    assert!(r.is_empty(), "trailing bytes after decoding every value");

    // Tuples: every timestamp shape (unknown / logical / physical / both)
    // over a schema that exercises every column type, nulls included.
    let schema = Schema::new(vec![
        Field::new("b", DataType::Bool),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
    ])
    .into_ref();
    let stamps = [
        Timestamp::unknown(),
        Timestamp::logical(i64::MAX),
        Timestamp::physical(-7),
        Timestamp::both(42, 1_000_000),
    ];
    let tuples: Vec<Tuple> = stamps
        .iter()
        .enumerate()
        .map(|(i, ts)| {
            let vals = if i % 2 == 0 {
                vec![
                    Value::Bool(true),
                    Value::Int(i as i64),
                    Value::Float(f64::from_bits(0x7FF0_0000_0000_0001)),
                    Value::str("x"),
                ]
            } else {
                vec![Value::Null, Value::Null, Value::Null, Value::Null]
            };
            Tuple::new(schema.clone(), vals, *ts).unwrap()
        })
        .collect();
    let mut w = CkptWriter::new();
    for t in &tuples {
        w.put_tuple(t);
    }
    let mut r = CkptReader::new(w.as_slice());
    for t in &tuples {
        let got = r.get_tuple(&schema).unwrap();
        assert_eq!(t.timestamp(), got.timestamp(), "timestamp mangled");
        assert_eq!(t.arity(), got.arity());
        for (a, b) in t.values().iter().zip(got.values()) {
            assert!(bit_identical(a, b), "tuple cell mangled {a:?} -> {b:?}");
        }
    }
    assert!(r.is_empty(), "trailing bytes after decoding every tuple");

    // A truncated fragment must fail loudly, not decode garbage.
    let full = {
        let mut w = CkptWriter::new();
        w.put_tuple(&tuples[0]);
        w.into_bytes()
    };
    for cut in 0..full.len() {
        assert!(
            CkptReader::new(&full[..cut]).get_tuple(&schema).is_err(),
            "truncation at {cut}/{} decoded successfully",
            full.len()
        );
    }
}

/// Delivers the first `limit` tuples then stalls (`Idle`, not EOF): a
/// stream that is still open when the server dies mid-run.
struct StallSource {
    schema: SchemaRef,
    tuples: Vec<Tuple>,
    pos: usize,
    limit: usize,
}

impl Source for StallSource {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }
    fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> Result<SourceStatus> {
        if self.pos >= self.limit {
            return Ok(SourceStatus::Idle);
        }
        let n = max.min(self.limit - self.pos);
        out.extend_from_slice(&self.tuples[self.pos..self.pos + n]);
        self.pos += n;
        Ok(SourceStatus::Ready)
    }
}

/// Per-query result rows (all columns, as ints) in delivery order. The
/// interleaving *between* queries on one client channel is scheduler
/// timing; the order *within* each query is the replay contract.
fn rows_by_query(rx: &Receiver<Delivery>) -> std::collections::BTreeMap<usize, Vec<Vec<i64>>> {
    let mut map: std::collections::BTreeMap<usize, Vec<Vec<i64>>> =
        std::collections::BTreeMap::new();
    for (qid, t) in rx.try_iter() {
        map.entry(qid)
            .or_default()
            .push(t.values().iter().map(|v| v.as_int().unwrap()).collect());
    }
    map
}

const JOIN_Q: &str = "SELECT s.v, d.tag FROM s s, d d WHERE s.k = d.id \
     for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 9000000, t); }";
/// `JOIN_Q` with equal window widths: window widths are part of a join
/// group's key, so it runs in a second group beside `JOIN_Q`'s.
const EQUAL_JOIN_Q: &str = "SELECT s.v, d.tag FROM s s, d d WHERE s.k = d.id \
     for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 8000000, t); }";
const AGG_Q: &str =
    "SELECT COUNT(*) FROM s for (t = ST; t >= 0; t += 10) { WindowIs(s, t - 9, t); }";

/// Registers streams, submits the two joins and the aggregate, and
/// loads-then-closes the dimension stream.
fn boot_recovery_topology(server: &TelegraphCQ) -> (usize, usize, usize, Receiver<Delivery>) {
    server.register_stream("s", hot_schema()).unwrap();
    server.register_stream("d", dim_schema()).unwrap();
    let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(8192).unwrap();
    let join_q = server.submit(JOIN_Q, client).unwrap();
    let agg_q = server.submit(AGG_Q, client).unwrap();
    let equal_q = server.submit(EQUAL_JOIN_Q, client).unwrap();

    let dims = dim_schema();
    let batch: Vec<Tuple> = (0..DIM_ROWS)
        .map(|id| {
            TupleBuilder::new(dims.clone())
                .push(id)
                .push(id * 10)
                .at(Timestamp::logical(id + 1))
                .build()
                .unwrap()
        })
        .collect();
    server.push_batch("d", batch).unwrap();
    while server.stream_time("d").unwrap() < DIM_ROWS {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.finish_stream("d").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    (join_q, agg_q, equal_q, rx)
}

fn hot_master() -> Vec<Tuple> {
    let hot = hot_schema();
    (1..=TUPLES)
        .map(|i| {
            TupleBuilder::new(hot.clone())
                .push(i % DIM_ROWS)
                .push(i)
                .at(Timestamp::logical(i))
                .build()
                .unwrap()
        })
        .collect()
}

#[test]
fn checkpoint_restore_after_crash_loses_nothing() {
    // Kill the server mid-stream (the source stalls at HALF, the process
    // "dies" via mem::forget — no shutdown, no drain), restore from the
    // last checkpoint into a fresh server, and replay the tail. The
    // concatenated per-query results must equal an uninterrupted run's:
    // no tuple lost, none duplicated, and the aggregate window that
    // straddles the crash point closes with the correct count.
    const HALF: usize = 1495; // not a window multiple: an open window's partials span the cut
    let dir = temp_dir("restore");
    let ckpt = dir.join("server.tcqk");
    let config = || ServerConfig {
        checkpoint_path: Some(ckpt.clone()),
        ..ServerConfig::default()
    };
    let master = hot_master();

    // Reference: the same topology, uninterrupted, no checkpointing.
    let (ref_join, ref_agg, ref_rows, ref_egress) = {
        let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
        let (join_q, agg_q, _, rx) = boot_recovery_topology(&server);
        let factory: SourceFactory = {
            let master = master.clone();
            let schema = hot_schema();
            Box::new(move |_attempt, delivered| {
                Ok(Box::new(ReplaySource {
                    schema: schema.clone(),
                    tuples: master[delivered as usize..].to_vec(),
                    pos: 0,
                }) as Box<dyn Source>)
            })
        };
        server.attach_supervised_source("s", factory).unwrap();
        assert!(server.quiesce(Duration::from_secs(60)));
        let rows = rows_by_query(&rx);
        let egress = server.egress_stats_full();
        server.shutdown().unwrap();
        (join_q, agg_q, rows, egress)
    };
    assert!(
        !ref_rows[&ref_join].is_empty() && !ref_rows[&ref_agg].is_empty(),
        "reference run must produce join and aggregate results"
    );

    // Phase A: run to HALF, checkpoint, die without shutdown.
    let (rows_a, (join_q, agg_q, equal_q)) = {
        let server = TelegraphCQ::start(config()).unwrap();
        let (join_q, agg_q, equal_q, rx) = boot_recovery_topology(&server);
        let factory: SourceFactory = {
            let master = master.clone();
            let schema = hot_schema();
            Box::new(move |_attempt, _delivered| {
                Ok(Box::new(StallSource {
                    schema: schema.clone(),
                    tuples: master.clone(),
                    pos: 0,
                    limit: HALF,
                }) as Box<dyn Source>)
            })
        };
        server.attach_supervised_source("s", factory).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while (server.supervisor_stats()[0].1.delivered as usize) < HALF
            || (server.stream_time("s").unwrap() as usize) < HALF
        {
            assert!(
                std::time::Instant::now() < deadline,
                "phase A never reached the stall point"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // Let the DUs drain the stalled pipeline, then cut.
        std::thread::sleep(Duration::from_millis(300));
        let report = server.checkpoint().unwrap();
        assert!(report.fragments > 0, "the cut must capture live state");
        let rows = rows_by_query(&rx);
        // Crash: leak the whole server — no shutdown, no flush, threads
        // simply never hear from us again.
        std::mem::forget(server);
        (rows, (join_q, agg_q, equal_q))
    };

    // Phase B: restore from the checkpoint and replay only the tail.
    let server = TelegraphCQ::restore(config()).unwrap();
    let recovery = server.checkpoint_recovery().unwrap();
    assert!(
        recovery.epochs_recovered >= 1,
        "no checkpoint was recovered"
    );
    // The streams and queries come back with the image, the d-side SteM
    // state included (re-feeding d would double-insert it). The client
    // re-subscribes by the ids it holds, and d, closed before the crash,
    // is closed again: the image records no end-of-stream.
    assert_eq!(server.query_count(), 3);
    let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(8192).unwrap();
    for qid in [join_q, agg_q, equal_q] {
        server.subscribe_client(client, qid).unwrap();
    }
    server.finish_stream("d").unwrap();
    let factory: SourceFactory = {
        let master = master.clone();
        let schema = hot_schema();
        Box::new(move |_attempt, delivered| {
            Ok(Box::new(ReplaySource {
                schema: schema.clone(),
                tuples: master[delivered as usize..].to_vec(),
                pos: 0,
            }) as Box<dyn Source>)
        })
    };
    server.attach_supervised_source("s", factory).unwrap();
    assert!(
        server.quiesce(Duration::from_secs(60)),
        "restored server must quiesce"
    );
    let sup = server.supervisor_stats().remove(0).1;
    let rows_b = rows_by_query(&rx);
    let egress = server.egress_stats_full();
    server.shutdown().unwrap();

    // The delivered watermark is cumulative — seeded at HALF from the
    // resume cursor, advanced by the replayed tail — so later checkpoints
    // keep exact accounting. No crash-looking restarts on the way.
    assert_eq!(sup.delivered as usize, TUPLES as usize);
    assert_eq!(sup.restarts, 0);

    // Phase B produced join matches without ever re-feeding d: the d-side
    // SteM served the probes from restored state alone.
    assert!(
        rows_b.get(&join_q).is_some_and(|r| !r.is_empty()),
        "restored SteM state must serve phase-B probes"
    );

    // Zero loss, zero duplication: per query, A's results followed by B's
    // are exactly the uninterrupted run's results.
    for (name, qid) in [
        ("join", join_q),
        ("aggregate", agg_q),
        ("equal-width join", equal_q),
    ] {
        let mut combined = rows_a.get(&qid).cloned().unwrap_or_default();
        combined.extend(rows_b.get(&qid).cloned().unwrap_or_default());
        assert_eq!(
            combined.len(),
            ref_rows[&qid].len(),
            "{name}: A+B row count != uninterrupted run"
        );
        assert_eq!(
            combined, ref_rows[&qid],
            "{name}: A+B rows diverged from the uninterrupted run"
        );
    }

    // The restored ledger carried A's counts forward: final totals equal
    // the uninterrupted run's exactly.
    assert_eq!(egress.offered, ref_egress.offered, "ledger offered drifted");
    assert_eq!(
        egress.delivered, ref_egress.delivered,
        "ledger delivered drifted"
    );
    assert!(egress.accounted());
}

#[test]
fn shutdown_under_load_delivers_everything_admitted() {
    // Regression for shutdown ordering: results admitted before shutdown
    // must reach the client even when shutdown races active dispatch.
    // (Stopping the executor before draining would strand them.)
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("s", schema()).unwrap();
    let (client, rx) = server.connect_push_client(8192).unwrap();
    server.submit("SELECT v FROM s", client).unwrap();

    let n = 2000i64;
    for t in workload().into_iter().take(n as usize) {
        server.push("s", t).unwrap();
    }
    // No quiesce, no settling: shutdown immediately, mid-flight.
    server.shutdown().unwrap();

    let got: Vec<i64> = rx
        .try_iter()
        .map(|(_, t)| t.value(0).as_int().unwrap())
        .collect();
    assert_eq!(got.len() as i64, n, "every admitted tuple was delivered");
    assert!(got.windows(2).all(|w| w[0] < w[1]), "in order");
}

// ---------------------------------------------------------------------------
// Standing-query churn: submit/cancel loops through the shared filter
// ---------------------------------------------------------------------------

const CHURN_ROUNDS: usize = 4;
const CHURN_QPR: usize = 6;
const CHURN_BLOCK: i64 = 300;

/// Chaos for the churn run: two archive faults (invisible to live
/// delivery) plus three injected delivery errors (each sheds exactly one
/// offered copy) — so every query's expected result set stays exactly
/// computable, modulo a shed count the egress ledger must balance.
fn churn_plan() -> FaultPlan {
    FaultPlan::new(SEED)
        .at(
            FaultPoint::ArchiveAppend,
            40,
            FaultAction::Error("disk hiccup".into()),
        )
        .at(FaultPoint::ArchiveAppend, 90, FaultAction::Overflow)
        .at(
            FaultPoint::EgressDeliver,
            150,
            FaultAction::Error("socket reset".into()),
        )
        .at(
            FaultPoint::EgressDeliver,
            400,
            FaultAction::Error("socket reset".into()),
        )
        .at(
            FaultPoint::EgressDeliver,
            700,
            FaultAction::Error("socket reset".into()),
        )
}

/// Deterministic per-query selection threshold spanning ~5%–100%
/// selectivity over the `v % 127` workload.
fn churn_threshold(round: usize, i: usize) -> i64 {
    (((round * CHURN_QPR + i) * 37) % 120) as i64
}

struct ChurnQuery {
    qid: usize,
    lo: i64,
    rx: Receiver<Delivery>,
    expected: Vec<i64>,
    live: bool,
}

struct ChurnOutcome {
    /// Per query in submission order: (qid, expected rows, received rows).
    per_query: Vec<(usize, Vec<i64>, Vec<i64>)>,
    egress: EgressStats,
    dispatcher_shed: i64,
    log: Vec<FiredFault>,
    live_at_end: usize,
    filter_queries: usize,
    filter_bytes: usize,
}

/// Four rounds of: submit six fresh `v > lo` selections (their factors
/// land in the stream's shared grouped filter, reusing factor ids the
/// previous round's cancellations recycled), push a block, drain, cancel
/// every other live query. The drain barrier is the egress `offered`
/// counter: it advances once per (tuple, standing query) offer — shed
/// copies included — so reaching the computed total means every delivery
/// decision for the block has been made and it is safe to churn.
fn run_churn_scenario(dir: &std::path::Path) -> ChurnOutcome {
    let server = TelegraphCQ::start(ServerConfig {
        archive_dir: Some(dir.to_path_buf()),
        fault_plan: Some(churn_plan()),
        egress_policy: EgressPolicy {
            disconnect_after: 4,
        },
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();

    let sch = schema();
    let mut queries: Vec<ChurnQuery> = Vec::new();
    let mut seq = 0i64;
    let mut offered_so_far = 0usize;

    for round in 0..CHURN_ROUNDS {
        for i in 0..CHURN_QPR {
            let lo = churn_threshold(round, i);
            let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(4096).unwrap();
            let qid = server
                .submit(&format!("SELECT v FROM s WHERE v > {lo}"), client)
                .unwrap();
            queries.push(ChurnQuery {
                qid,
                lo,
                rx,
                expected: Vec::new(),
                live: true,
            });
        }

        let mut block = Vec::with_capacity(CHURN_BLOCK as usize);
        for _ in 0..CHURN_BLOCK {
            seq += 1;
            let v = (seq * 17) % 127;
            for q in queries.iter_mut().filter(|q| q.live) {
                if v > q.lo {
                    q.expected.push(v);
                    offered_so_far += 1;
                }
            }
            block.push(
                TupleBuilder::new(sch.clone())
                    .push(v)
                    .at(Timestamp::logical(seq))
                    .build()
                    .unwrap(),
            );
        }
        server.push_batch("s", block).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while (server.egress_stats_full().offered as usize) < offered_so_far {
            assert!(
                std::time::Instant::now() < deadline,
                "round {round} never drained its offers"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut k = 0usize;
        for q in queries.iter_mut() {
            if !q.live {
                continue;
            }
            if k.is_multiple_of(2) {
                server.stop_query(q.qid).unwrap();
                q.live = false;
            }
            k += 1;
        }
    }

    let live_at_end = queries.iter().filter(|q| q.live).count();
    let stats = server.shared_memory_stats();
    let filter = stats
        .iter()
        .find(|s| s.label == "filter:s")
        .expect("the shared filter must report a memory stat");
    let (filter_queries, filter_bytes) = (filter.queries, filter.approx_bytes);

    server.finish_stream("s").unwrap();
    assert!(
        server.quiesce(Duration::from_secs(60)),
        "churn run must quiesce"
    );

    let outcome = ChurnOutcome {
        per_query: queries
            .iter()
            .map(|q| {
                let got: Vec<i64> =
                    q.rx.try_iter()
                        .map(|(qid, t)| {
                            assert_eq!(qid, q.qid, "delivery routed to the wrong client");
                            t.value(0).as_int().unwrap()
                        })
                        .collect();
                (q.qid, q.expected.clone(), got)
            })
            .collect(),
        egress: server.egress_stats_full(),
        dispatcher_shed: server.shed_count("s").unwrap(),
        log: server.fired_faults(),
        live_at_end,
        filter_queries,
        filter_bytes,
    };
    server.shutdown().unwrap();
    outcome
}

#[test]
fn query_churn_under_chaos_delivers_exactly_per_live_span() {
    let dir = temp_dir("churn");
    let o = run_churn_scenario(&dir);

    assert_eq!(o.dispatcher_shed, 0, "no fan-out faults were planned");
    assert_eq!(o.live_at_end, 5);
    assert_eq!(
        o.filter_queries, o.live_at_end,
        "the shared filter must forget cancelled queries"
    );
    assert!(o.filter_bytes > 0, "a standing filter has a footprint");

    // Query ids are never reused even though the factor ids inside the
    // shared filter are recycled aggressively by the cancel loop.
    assert!(
        o.per_query.windows(2).all(|w| w[0].0 < w[1].0),
        "query ids must stay strictly monotone under churn"
    );

    // Exact per-query accounting: each query received its matching rows
    // from exactly the blocks pushed while it stood, in push order, minus
    // copies lost to injected delivery errors.
    let mut missing = 0usize;
    for (qid, expected, got) in &o.per_query {
        let mut remaining = expected.iter();
        for g in got {
            assert!(
                remaining.any(|e| e == g),
                "query {qid} received {g}, which is out of order or outside its live span"
            );
        }
        missing += expected.len() - got.len();
    }
    assert_eq!(
        missing as u64, o.egress.shed,
        "every missing row must be one of the injected delivery errors"
    );
    assert_eq!(o.egress.shed, 3, "three delivery errors were planned");
    assert!(o.egress.accounted());
    assert_eq!(
        o.log.len(),
        5,
        "both archive faults and all three delivery faults fired"
    );
}

#[test]
fn query_churn_replays_identically_from_its_seed() {
    let dir_a = temp_dir("churn-a");
    let dir_b = temp_dir("churn-b");
    let a = run_churn_scenario(&dir_a);
    let b = run_churn_scenario(&dir_b);
    assert_eq!(
        a.per_query, b.per_query,
        "per-query deliveries diverged across same-seed churn runs"
    );
    assert_eq!(a.egress, b.egress, "egress accounting diverged");
    assert_eq!(
        normalised(a.log),
        normalised(b.log),
        "fired-fault logs diverged across same-seed churn runs"
    );
    assert_eq!(a.filter_queries, b.filter_queries);
    assert_eq!(
        a.filter_bytes, b.filter_bytes,
        "shared-filter footprint diverged across same-seed runs"
    );
}

// ---------------------------------------------------------------------------
// Progress tracking + liveness watchdog
// ---------------------------------------------------------------------------

struct LiveOutcome {
    results: Vec<i64>,
    egress: EgressStats,
    watchdog: WatchdogStats,
    stall: Option<StallDiagnosis>,
    progress: Option<telegraphcq::fjords::ProgressSnapshot>,
}

/// The exchange join under direct push (no archive, no supervised
/// source): every hot tuple matches exactly one dimension row, so a
/// fully-delivered run yields `1..=TUPLES` in arrival order — any wedge
/// shows up as a truncated or failed run.
fn run_exchange_liveness(
    partitions: usize,
    queue_capacity: usize,
    liveness: Option<LivenessConfig>,
    fault_plan: Option<FaultPlan>,
) -> LiveOutcome {
    let server = TelegraphCQ::start(ServerConfig {
        partitions,
        queue_capacity,
        liveness,
        fault_plan,
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", hot_schema()).unwrap();
    server.register_stream("d", dim_schema()).unwrap();
    let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(8192).unwrap();
    server.submit(JOIN_Q, client).unwrap();

    let dims = dim_schema();
    let dim_batch: Vec<Tuple> = (0..DIM_ROWS)
        .map(|id| {
            TupleBuilder::new(dims.clone())
                .push(id)
                .push(id * 10)
                .at(Timestamp::logical(id + 1))
                .build()
                .unwrap()
        })
        .collect();
    server.push_batch("d", dim_batch).unwrap();
    while server.stream_time("d").unwrap() < DIM_ROWS {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.finish_stream("d").unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Blocking batch push: back-pressure from a wedged exchange parks the
    // pusher too, so only the watchdog can get the run moving again.
    server.push_batch("s", hot_master()).unwrap();
    while server.stream_time("s").unwrap() < TUPLES {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.finish_stream("s").unwrap();
    assert!(
        server.quiesce(Duration::from_secs(60)),
        "exchange run must quiesce (P={partitions}, cap={queue_capacity})"
    );

    let outcome = LiveOutcome {
        results: rx
            .try_iter()
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect(),
        egress: server.egress_stats_full(),
        watchdog: server.executor_stats().watchdog,
        stall: server.last_stall(),
        progress: server.progress_snapshot(),
    };
    server.shutdown().unwrap();
    outcome
}

fn full_join() -> Vec<i64> {
    (1..=TUPLES).collect()
}

#[test]
fn p4_exchange_with_tiny_queues_never_wedges() {
    // Seed-pinned regression for the P=4 tail stall: the stream
    // dispatcher used to drop `FjordMessage::Eof` silently when a
    // subscriber's fjord was full, so under tiny queues the exchange never
    // learned the input had ended and the run wedged with the last tuples
    // undelivered. The fix tracks undelivered EOFs and retries, so this
    // run must now drain completely — every time, no watchdog needed.
    let a = run_exchange_liveness(4, 8, None, None);
    assert_eq!(a.results, full_join(), "P=4 tiny-queue run lost tuples");
    assert!(a.egress.accounted());

    // And the tiny-queue P=4 answer is byte-identical to sequential.
    let b = run_exchange_liveness(1, 8, None, None);
    assert_eq!(
        a.results, b.results,
        "P=4 diverged from P=1 under tiny queues"
    );
}

#[test]
fn healthy_full_load_reports_zero_watchdog_activity() {
    // The watchdog must be observe-only on a healthy engine: a full-load
    // partitioned run with aggressive thresholds reports zero stalls,
    // zero rungs, no diagnosis — and the progress frontier has moved with
    // nothing left in flight.
    let o = run_exchange_liveness(
        2,
        1024,
        Some(LivenessConfig {
            stall_ticks: 64,
            escalate_ticks: 64,
        }),
        None,
    );
    assert_eq!(o.results, full_join());
    assert_eq!(
        o.watchdog,
        WatchdogStats::default(),
        "healthy full-load run tripped the watchdog"
    );
    assert!(o.stall.is_none(), "no diagnosis on a healthy run");
    let snap = o.progress.expect("liveness on implies a progress registry");
    assert!(snap.frontier > 0, "probed fjords never reported progress");
    assert_eq!(snap.in_flight, 0, "messages still in flight after quiesce");
    assert!(snap.blocked_channels().is_empty());
}

#[test]
fn dropped_punctuation_wedge_is_detected_and_nudge_recovered() {
    // A worker drops a run-closing punctuation: the merger waits forever
    // for that run to close, back-pressure freezes the frontier, and only
    // the watchdog's nudge (re-emit withheld punctuation) can recover.
    // Recovery must be lossless: the full join still comes out in order.
    let plan = FaultPlan::new(SEED).at(FaultPoint::DropPunctuation, 3, FaultAction::Overflow);
    let o = run_exchange_liveness(
        2,
        64,
        Some(LivenessConfig {
            stall_ticks: 16,
            escalate_ticks: 512,
        }),
        Some(plan),
    );
    assert_eq!(
        o.results,
        full_join(),
        "nudge recovery lost or reordered tuples"
    );
    assert!(
        o.watchdog.stalls_detected >= 1,
        "the wedge was never detected"
    );
    assert!(o.watchdog.nudges >= 1);
    assert!(o.watchdog.recoveries >= 1, "no recovery was recorded");
    assert_eq!(
        o.watchdog.escalations, 0,
        "the nudge must clear a withheld punctuation before failover"
    );
    let d = o.stall.expect("a stall diagnosis was recorded");
    assert!(d.in_flight > 0, "diagnosis must show work in flight");
    assert!(d.render().contains("in flight"));
}

#[test]
fn stalled_merge_consumer_is_escalated_to_outbox_drain() {
    // The merger refuses its quanta indefinitely: nudging re-emits
    // nothing (no punctuation is withheld), so the watchdog must climb to
    // the failover rung — the forced ordered-outbox drain — and the run
    // must still finish with zero loss and canonical order.
    let plan = FaultPlan::new(SEED).at(
        FaultPoint::StallConsumer,
        4,
        FaultAction::Stall { ticks: 1 << 40 },
    );
    let o = run_exchange_liveness(
        2,
        64,
        Some(LivenessConfig {
            stall_ticks: 16,
            escalate_ticks: 16,
        }),
        Some(plan),
    );
    assert_eq!(
        o.results,
        full_join(),
        "escalation recovery lost or reordered tuples"
    );
    assert!(
        o.watchdog.stalls_detected >= 1,
        "the stall was never detected"
    );
    assert!(
        o.watchdog.escalations >= 1,
        "an injected consumer stall cannot clear without the failover rung"
    );
    assert!(o.watchdog.recoveries >= 1, "no recovery was recorded");
    let d = o.stall.expect("a stall diagnosis was recorded");
    assert!(d.in_flight > 0, "diagnosis must show work in flight");
}

#[test]
fn watchdog_on_and_off_replay_identically_under_chaos() {
    // Progress probes and the stall detector only *observe*: under the
    // full five-fault chaos schedule (none of which wedges the engine), a
    // same-seed run is byte-identical with the watchdog armed or absent —
    // and the armed run records zero watchdog activity.
    let dir_a = temp_dir("wd-off");
    let dir_b = temp_dir("wd-on");
    let a = run_join_scenario_cfg(&dir_a, 2, JOIN_Q, None, None);
    let b = run_join_scenario_cfg(&dir_b, 2, JOIN_Q, None, Some(LivenessConfig::default()));
    assert!(!a.results.is_empty(), "the join must produce results");
    assert_eq!(
        a.results, b.results,
        "answers diverged across watchdog on/off"
    );
    assert_eq!(a.egress, b.egress, "egress accounting diverged");
    assert_eq!(a.dispatcher_shed, b.dispatcher_shed);
    assert_eq!(a.sup.delivered, b.sup.delivered);
    assert_eq!(
        normalised(a.log),
        normalised(b.log),
        "fired-fault logs diverged across watchdog on/off"
    );
    assert_eq!(
        a.watchdog,
        WatchdogStats::default(),
        "no watchdog, no counters"
    );
    assert_eq!(
        b.watchdog,
        WatchdogStats::default(),
        "the chaos schedule wedges nothing, so the armed watchdog stays silent"
    );
}

/// Tentpole acceptance (PR 10): the server core is *transport-inert*. The
/// same seeded in-process chaos workload replays byte-identically whether
/// the engine runs bare (in-process transport, the deterministic harness)
/// or fronted by a live TCP listener with a remote client chattering over
/// the wire the whole time. The TCP layer may add connections, pings, and
/// its own fault points — it must never perturb the engine's schedule,
/// results, ledger, or fired-fault log.
#[test]
fn server_core_replays_identically_with_and_without_tcp_transport() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use telegraphcq::net::NetServer;
    use telegraphcq::server::{TcpTransportConfig, TransportConfig};

    fn ab_plan() -> FaultPlan {
        FaultPlan::new(SEED ^ 7)
            .at(FaultPoint::FjordEnqueue, 200, FaultAction::Overflow)
            .at(
                FaultPoint::EgressDeliver,
                100,
                FaultAction::Error("socket reset".into()),
            )
            .at(
                FaultPoint::EgressDeliver,
                400,
                FaultAction::Error("socket reset".into()),
            )
    }

    fn run(transport: TransportConfig) -> (Vec<i64>, EgressStats, Vec<FiredFault>) {
        let server = NetServer::start(ServerConfig {
            fault_plan: Some(ab_plan()),
            transport,
            ..ServerConfig::default()
        })
        .unwrap();
        server.engine().register_stream("s", schema()).unwrap();
        let (client, rx): (_, Receiver<Delivery>) =
            server.engine().connect_push_client(4096).unwrap();
        server.engine().submit("SELECT v FROM s", client).unwrap();

        // With the TCP transport up, a real remote client chatters for the
        // whole run: handshake, pings, a failing submit — wire traffic that
        // must leave the engine's seeded schedule untouched. The engine
        // starts only once the first pong is back, so the chatter overlaps
        // the run however fast the engine finishes it.
        let stop = Arc::new(AtomicBool::new(false));
        let (ponged, first_pong) = std::sync::mpsc::channel();
        let chatter = server.local_addr().map(|addr| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut c = telegraphcq::net::TcqClient::connect(addr).unwrap();
                c.submit("SELECT nope FROM nowhere").unwrap_err();
                let mut pongs = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    c.ping(pongs).unwrap();
                    if pongs == 0 {
                        ponged.send(()).unwrap();
                    }
                    pongs += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                c.bye().unwrap();
                pongs
            })
        });
        if chatter.is_some() {
            first_pong.recv().unwrap();
        }

        for batch in workload().chunks(64) {
            server.engine().push_batch("s", batch.to_vec()).unwrap();
        }
        server.engine().finish_stream("s").unwrap();
        assert!(server.engine().quiesce(Duration::from_secs(60)));

        let results: Vec<i64> = rx
            .try_iter()
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect();
        let egress = server.engine().egress_stats_full();
        let log = server.engine().fired_faults();
        stop.store(true, Ordering::SeqCst);
        if let Some(t) = chatter {
            let pongs = t.join().unwrap();
            assert!(pongs > 0, "the remote client really chattered");
        }
        server.shutdown().unwrap();
        (results, egress, log)
    }

    let a = run(TransportConfig::InProcess);
    let b = run(TransportConfig::Tcp(TcpTransportConfig::default()));
    assert!(!a.0.is_empty(), "the workload must produce results");
    assert_eq!(a.0, b.0, "results diverged across transports");
    assert_eq!(a.1, b.1, "egress ledger diverged across transports");
    assert_eq!(
        normalised(a.2),
        normalised(b.2),
        "fired-fault logs diverged across transports"
    );
}
