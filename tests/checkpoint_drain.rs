//! The checkpoint cut's drain contract. `checkpoint()` drains ingress on
//! exact counts before it exports state: every row pushed before the call
//! has been stamped, archived and folded by the time it returns, so a
//! restore from that epoch has every one of them in its windows, with no
//! gap below the checkpointed stream clock, even when the dispatcher is
//! held mid-batch. A drain that outlasts its bound fails the checkpoint
//! and commits nothing; a retry commits. A dispatcher that has retired (EOF) or failed counts as
//! settled, so it never holds a checkpoint or a shutdown for the drain's
//! timeout; its subscriber queues still drain, so a shutdown delivers a
//! join's last results. A supervised source that keeps delivering is held
//! for the cut, so its resume cursor equals the stream clock the
//! checkpoint records and a restore replays from it without folding a row
//! twice.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

use telegraphcq::prelude::*;

const WIDTH: i64 = 1_000;
const ROWS: i64 = 20_000;
/// Rows pushed before the checkpoint: the cut falls mid-window.
const CUT: i64 = 12_345;
const GROUPS: i64 = 5;

const SQL: &str = "SELECT k, COUNT(*), SUM(v) FROM s GROUP BY k \
    for (t = 1000; t <= 20000; t += 1000) { WindowIs(s, t - 999, t); }";

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref()
}

fn rows(from: i64, to: i64) -> Vec<Tuple> {
    (from..=to)
        .map(|ts| {
            TupleBuilder::new(schema())
                .push(ts % GROUPS)
                .push(ts % 13)
                .at(Timestamp::logical(ts))
                .build()
                .unwrap()
        })
        .collect()
}

type Windows = BTreeMap<(i64, i64), (i64, i64)>;

/// `(t, k) → (count, sum)` of every window, from scratch.
fn reference() -> Windows {
    let mut out = BTreeMap::new();
    for ts in 1..=ROWS {
        let t = (ts + WIDTH - 1) / WIDTH * WIDTH;
        let e = out.entry((t, ts % GROUPS)).or_insert((0, 0));
        *e = (e.0 + 1, e.1 + ts % 13);
    }
    out
}

fn collect(rx: &Receiver<(usize, Tuple)>, into: &mut Windows) {
    for (_, row) in rx.try_iter() {
        let int = |i: usize| row.value(i).as_int().unwrap();
        let sum = row.value(3).as_float().unwrap() as i64;
        let prior = into.insert((int(0), int(1)), (int(2), sum));
        assert_eq!(
            prior,
            None,
            "window {} group {} answered twice",
            int(0),
            int(1)
        );
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcq-drain-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(dir: &std::path::Path, io_batch: usize) -> ServerConfig {
    ServerConfig {
        io_batch,
        archive_dir: Some(dir.join("archive")),
        checkpoint_path: Some(dir.join("server.tcqk")),
        ..ServerConfig::default()
    }
}

/// How long a checkpoint's drain waits before the checkpoint fails.
const DRAIN_BOUND: Duration = Duration::from_secs(2);

/// Push rows `1..=CUT` and checkpoint; the server then dies without a
/// shutdown, a restore from that epoch gets the rest, and every window
/// must equal its from-scratch value. With `stall`, the append of row
/// `CUT` sleeps that long (an injected `ArchiveAppend` stall), and the
/// checkpoint must not return inside it: a stall longer than the drain's
/// bound fails the first checkpoint, committing nothing, and a retry
/// commits.
fn checkpoint_then_restore(io_batch: usize, stall: Option<Duration>) {
    let tag = match stall {
        Some(stall) => format!("stall{}-{io_batch}", stall.as_millis()),
        None => format!("cover-{io_batch}"),
    };
    let dir = scratch(&tag);
    let mut got = BTreeMap::new();

    let fault_plan = stall.map(|stall| {
        let ticks = stall.as_millis() as u64;
        FaultPlan::new(1).at(
            FaultPoint::ArchiveAppend,
            CUT as u64,
            FaultAction::Stall { ticks },
        )
    });
    let server = TelegraphCQ::start(ServerConfig {
        fault_plan,
        ..config(&dir, io_batch)
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    let qid = server.submit(SQL, client).unwrap();
    let mut last_push = Instant::now();
    for chunk in rows(1, CUT).chunks(500) {
        last_push = Instant::now();
        server.push_batch("s", chunk.to_vec()).unwrap();
    }
    if stall.is_some_and(|stall| stall > DRAIN_BOUND) {
        let before = server.checkpoint_stats().unwrap();
        match server.checkpoint() {
            Err(TcqError::Storage(m)) => assert!(m.contains("drain"), "{tag}: {m}"),
            other => panic!("{tag}: a checkpoint inside the stall returned {other:?}"),
        }
        assert_eq!(
            server.checkpoint_stats().unwrap(),
            before,
            "{tag}: a failed checkpoint commits nothing"
        );
    }
    server.checkpoint().unwrap();
    if let Some(stall) = stall {
        // The stall began after the last push did.
        let took = last_push.elapsed();
        assert!(
            took >= stall,
            "{tag}: checkpoint returned {took:?} after the last push, inside the {stall:?} stall"
        );
    }
    let archived = server.archive_stats("s").unwrap().unwrap().appended;
    assert_eq!(archived, CUT as u64, "{tag}: archived on return");
    assert_eq!(server.stream_time("s").unwrap(), CUT);
    collect(&rx, &mut got);
    // Die without a shutdown: only the checkpoint survives.
    std::mem::forget(server);

    let server = TelegraphCQ::restore(config(&dir, io_batch)).unwrap();
    assert!(matches!(
        server.register_stream("s", schema()),
        Err(TcqError::DuplicateStream(_))
    ));
    assert_eq!(server.stream_time("s").unwrap(), CUT, "the clock restored");
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    server.subscribe_client(client, qid).unwrap();
    for chunk in rows(CUT + 1, ROWS).chunks(500) {
        server.push_batch("s", chunk.to_vec()).unwrap();
    }
    server.finish_stream("s").unwrap();
    assert!(server.quiesce(Duration::from_secs(30)));
    collect(&rx, &mut got);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(got, reference(), "{tag}");
}

#[test]
fn a_checkpoint_covers_every_row_pushed_before_it() {
    for io_batch in [1, 64] {
        checkpoint_then_restore(io_batch, None);
    }
}

/// The dispatcher is held mid-batch: it has pulled row `CUT` off an empty
/// ingress fjord, with nothing queued downstream, and sleeps in that
/// row's archive append before the batch is folded. Only the settled
/// count tells the drain the batch is still in flight.
#[test]
fn a_checkpoint_waits_for_a_batch_held_mid_quantum() {
    for io_batch in [1, 64] {
        checkpoint_then_restore(io_batch, Some(Duration::from_millis(300)));
    }
}

/// The batch is held for longer than the drain waits. Committing then
/// would cut below the rows already pushed (the restore would miss them);
/// instead the checkpoint errs, and the retry after the stall is exact.
#[test]
fn a_checkpoint_that_outlasts_its_drain_commits_nothing() {
    checkpoint_then_restore(64, Some(DRAIN_BOUND + Duration::from_millis(500)));
}

/// A join's last results are still queued in its subscriber fjords when
/// both dispatchers have sent Eof and retired; `shutdown()` with no
/// `quiesce` before it must deliver every one of them.
#[test]
fn shutdown_delivers_a_joins_last_results_after_its_streams_retire() {
    const N: i64 = 3_000;
    const KEYS: i64 = 100;
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    server.register_stream("l", schema()).unwrap();
    server.register_stream("r", schema()).unwrap();
    let (client, rx) = server.connect_push_client(1 << 18).unwrap();
    // The window spans every row, so the answer is every pair with equal
    // keys, whatever order the two streams reach the join in.
    server
        .submit(
            "SELECT a.v, b.v FROM l a, r b WHERE a.k = b.k \
             for (t = ST; t >= 0; t++) { WindowIs(a, t - 100000, t); WindowIs(b, t - 100000, t); }",
            client,
        )
        .unwrap();
    let side = |odd: i64| -> Vec<Tuple> {
        (0..N)
            .map(|i| {
                TupleBuilder::new(schema())
                    .push(i % KEYS)
                    .push(i)
                    .at(Timestamp::logical(2 * i + odd))
                    .build()
                    .unwrap()
            })
            .collect()
    };
    let (left, right) = (side(1), side(2));
    for (l, r) in left.chunks(100).zip(right.chunks(100)) {
        server.push_batch("l", l.to_vec()).unwrap();
        server.push_batch("r", r.to_vec()).unwrap();
    }
    server.finish_stream("l").unwrap();
    server.finish_stream("r").unwrap();
    server.shutdown().unwrap();
    let per_key = N / KEYS;
    assert_eq!(rx.try_iter().count() as i64, KEYS * per_key * per_key);
}

fn assert_quick(what: &str, f: impl FnOnce()) {
    let started = Instant::now();
    f();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(500), "{what} took {took:?}");
}

#[test]
fn a_retired_dispatcher_holds_no_checkpoint_or_shutdown() {
    let dir = scratch("retired");
    // One message per refill: rows pushed behind the end stay queued.
    let server = TelegraphCQ::start(config(&dir, 1)).unwrap();
    server.register_stream("s", schema()).unwrap();
    server.register_stream("live", schema()).unwrap();
    let (client, _rx) = server.connect_push_client(1 << 16).unwrap();
    server.submit(SQL, client).unwrap();
    server.push_batch("s", rows(1, 2_000)).unwrap();
    server.push_batch("live", rows(1, 10)).unwrap();
    server.finish_stream("s").unwrap();
    // Offered behind the end, never read: the ingress fjord is never
    // empty again.
    let _ = server.push_batch("s", rows(2_001, 2_010));
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.executor_stats().dus_per_eo.iter().sum::<usize>() > 1 {
        assert!(
            Instant::now() < deadline,
            "the stream's dispatcher never retired"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_quick("checkpoint", || {
        server.checkpoint().unwrap();
    });
    assert_quick("shutdown", || server.shutdown().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// Rows of the live-source tests, one per logical tick.
const LIVE_ROWS: i64 = 40_000;
/// A live source signals once it has read this many rows; the checkpoint
/// follows while it keeps delivering.
const LIVE_CUT: i64 = 10_000;
const LIVE_SQL: &str = "SELECT COUNT(*) FROM s \
    for (t = 10; t <= 40000; t += 10) { WindowIs(s, t - 9, t); }";

/// Rows `next..=last` (`last == i64::MAX`: forever), 16 per read, never
/// sleeping.
struct LiveSource {
    schema: SchemaRef,
    next: i64,
    last: i64,
    signal: Option<SyncSender<()>>,
}

impl Source for LiveSource {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn next_batch(&mut self, _max: usize, out: &mut Vec<Tuple>) -> Result<SourceStatus> {
        if self.next > self.last {
            return Ok(SourceStatus::Exhausted);
        }
        let to = (self.next + 15).min(self.last);
        for ts in self.next..=to {
            out.push(
                TupleBuilder::new(self.schema.clone())
                    .push(ts % GROUPS)
                    .push(ts % 13)
                    .at(Timestamp::logical(ts))
                    .build()?,
            );
        }
        self.next = to + 1;
        if self.next > LIVE_CUT {
            if let Some(tx) = self.signal.take() {
                tx.send(()).unwrap();
            }
        }
        Ok(SourceStatus::Ready)
    }
}

/// Builds a [`LiveSource`] that resumes after the rows already delivered.
fn live_factory(last: i64, mut signal: Option<SyncSender<()>>) -> SourceFactory {
    Box::new(move |_, delivered| {
        Ok(Box::new(LiveSource {
            schema: schema(),
            next: delivered as i64 + 1,
            last,
            signal: signal.take(),
        }) as Box<dyn Source>)
    })
}

/// The committed `(resume cursor, stream clock)` of stream `s`.
fn cursor_and_clock(server: &TelegraphCQ) -> (i64, i64) {
    let fragment = |component| {
        let bytes = server.checkpoint_fragment(component, b"s").unwrap();
        i64::from_le_bytes(bytes.try_into().unwrap())
    };
    (fragment("cursor"), fragment("seq"))
}

/// Checkpoint while a supervised source is mid-stream, die, restore and
/// replay from the cursor: every window the restored server closes counts
/// exactly its 10 rows.
fn live_cut_then_restore(queue_capacity: usize) {
    let tag = format!("live-{queue_capacity}");
    let dir = scratch(&tag);
    let config = || ServerConfig {
        queue_capacity,
        checkpoint_path: Some(dir.join("server.tcqk")),
        ..ServerConfig::default()
    };

    let server = TelegraphCQ::start(config()).unwrap();
    server.register_stream("s", schema()).unwrap();
    let (client, _lost_rx) = server.connect_push_client(1 << 16).unwrap();
    let qid = server.submit(LIVE_SQL, client).unwrap();
    let (tx, read_past_cut) = sync_channel(1);
    server
        .attach_supervised_source("s", live_factory(LIVE_ROWS, Some(tx)))
        .unwrap();
    read_past_cut.recv().unwrap();
    server.checkpoint().unwrap();
    // Die without a shutdown while the source is still delivering.
    std::mem::forget(server);

    let server = TelegraphCQ::restore(config()).unwrap();
    let (cursor, clock) = cursor_and_clock(&server);
    assert!(cursor < LIVE_ROWS, "{tag}: cut after the last row");
    assert_eq!(
        cursor, clock,
        "{tag}: the cursor is the clock it was cut with"
    );
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    server.subscribe_client(client, qid).unwrap();
    server
        .attach_supervised_source("s", live_factory(LIVE_ROWS, None))
        .unwrap();
    assert!(server.quiesce(Duration::from_secs(30)));
    let windows: Vec<(i64, i64)> = rx
        .try_iter()
        .map(|(_, row)| {
            (
                row.value(0).as_int().unwrap(),
                row.value(1).as_int().unwrap(),
            )
        })
        .collect();
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // A window closes when the clock reaches its end, so the first the
    // restored server closes is the one after the clock's.
    let first = clock / 10 * 10 + 10;
    let expect: Vec<(i64, i64)> = (first..=LIVE_ROWS).step_by(10).map(|t| (t, 10)).collect();
    assert_eq!(
        windows, expect,
        "{tag}: restored windows after a cut at {cursor}"
    );
}

/// With a 4-slot ingress queue the cut lands while the source waits for
/// room.
#[test]
fn a_checkpoint_cuts_a_live_source_exactly() {
    for queue_capacity in [ServerConfig::default().queue_capacity, 4] {
        live_cut_then_restore(queue_capacity);
    }
}

/// A source that never sleeps keeps its ingress queue busy; the
/// checkpoint holds it instead of waiting out the drain's timeout.
#[test]
fn a_checkpoint_is_quick_against_a_source_that_never_sleeps() {
    let dir = scratch("never-sleeps");
    let server = TelegraphCQ::start(ServerConfig {
        checkpoint_path: Some(dir.join("server.tcqk")),
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", schema()).unwrap();
    let (client, _rx) = server.connect_push_client(1 << 16).unwrap();
    server.submit(LIVE_SQL, client).unwrap();
    let (tx, read_past_cut) = sync_channel(1);
    server
        .attach_supervised_source("s", live_factory(i64::MAX, Some(tx)))
        .unwrap();
    read_past_cut.recv().unwrap();
    assert_quick("checkpoint", || {
        server.checkpoint().unwrap();
    });
    let (cursor, clock) = cursor_and_clock(&server);
    assert_eq!(cursor, clock);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
