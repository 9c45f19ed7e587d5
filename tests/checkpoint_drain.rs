//! The checkpoint cut's drain contract. `checkpoint()` drains ingress on
//! exact counts before it exports state: every row pushed before the call
//! has been stamped, archived and folded by the time it returns, so a
//! restore from that epoch has every one of them in its windows, with no
//! gap below the checkpointed stream clock, even when the dispatcher is
//! held mid-batch. A dispatcher that has retired (EOF) or failed counts as
//! settled, so it never holds a checkpoint or a shutdown for the drain's
//! timeout; its subscriber queues still drain, so a shutdown delivers a
//! join's last results.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
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

/// Push rows `1..=CUT` and checkpoint; the server then dies without a
/// shutdown, a restore from that epoch gets the rest, and every window
/// must equal its from-scratch value. With `stall`, the append of row
/// `CUT` sleeps that long (an injected `ArchiveAppend` stall), and the
/// checkpoint must not return inside it.
fn checkpoint_then_restore(io_batch: usize, stall: Option<Duration>) {
    let tag = format!(
        "{}-{io_batch}",
        if stall.is_some() { "stall" } else { "cover" }
    );
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
    server.register_stream("s", schema()).unwrap();
    assert_eq!(server.stream_time("s").unwrap(), CUT, "the clock restored");
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    assert_eq!(server.submit(SQL, client).unwrap(), qid);
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
