//! The query-plan queue's contract (DESIGN.md §5j). Each DU owns its plan
//! state and applies the server's controls between units of its own work,
//! so a control is ordered against the rows around it: a row pushed after
//! `submit` returns reaches the new query, and none pushed after
//! `stop_query` returns reaches the stopped one — with a pusher thread
//! feeding the stream throughout. A DU that retired or failed has dropped
//! its queue: every call that reaches it returns at once, well inside the
//! 2 s bound a waiting control has.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use telegraphcq::prelude::*;

/// A value the pusher thread never sends.
const MARK: i64 = 1_000_000;
/// A join key the pusher thread never sends.
const MARK_KEY: i64 = 777;
const JOIN: &str = "SELECT l.v, r.v FROM l l, r r WHERE l.k = r.k \
    for (t = ST; t >= 0; t++) { WindowIs(l, t - 100000, t); WindowIs(r, t - 100000, t); }";
const AGG: &str = "SELECT MAX(v) FROM s for (t = ST; t >= 0; t += 10) { WindowIs(s, t - 9, t); }";

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
    .into_ref()
}

/// A row the dispatcher stamps with its arrival order, so rows pushed from
/// two threads stay in time order.
fn row(k: i64, v: i64) -> Tuple {
    TupleBuilder::new(schema()).push(k).push(v).build().unwrap()
}

fn start() -> Arc<TelegraphCQ> {
    let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
    for stream in ["s", "l", "r"] {
        server.register_stream(stream, schema()).unwrap();
    }
    Arc::new(server)
}

/// Push rows of key 0 and value 0 into `s` and `l` until told to stop,
/// pausing between batches: a dispatcher that sits parked when a control
/// and a marker row arrive is where applying the control after the batch
/// would show.
fn pusher(server: &Arc<TelegraphCQ>, stop: &Arc<AtomicBool>) -> JoinHandle<()> {
    let (server, stop) = (Arc::clone(server), Arc::clone(stop));
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            for stream in ["s", "l"] {
                server.push_batch(stream, vec![row(0, 0); 16]).unwrap();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    })
}

/// Push the marker rows: `MARK` into `s`, then a joining pair on
/// `MARK_KEY` into `r` and `l`.
fn push_markers(server: &TelegraphCQ) {
    server.push("s", row(0, MARK)).unwrap();
    server.push("r", row(MARK_KEY, MARK)).unwrap();
    server.push("l", row(MARK_KEY, MARK)).unwrap();
}

/// Does delivery `(qid, row)` carry a marker? A filter's row is `(v)`, an
/// aggregate's `(t, max)` and a join's `(l.v, r.v)`.
fn marked((_, t): &(usize, Tuple)) -> bool {
    t.values().iter().any(|v| matches!(v, Value::Int(MARK)))
}

/// Collect `rx` until every query in `want` has had a marked row, or 30 s
/// pass; returns every marked delivery.
fn until_marked(rx: &Receiver<(usize, Tuple)>, want: &[usize]) -> Vec<(usize, Tuple)> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got: Vec<(usize, Tuple)> = Vec::new();
    while !want.iter().all(|q| got.iter().any(|(g, _)| g == q)) {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(d) if marked(&d) => got.push(d),
            Ok(_) => {}
            Err(_) => panic!("no marked row for some of {want:?}: got {got:?}"),
        }
    }
    got
}

/// Shut down a server the pusher thread no longer holds.
fn shut_down(server: Arc<TelegraphCQ>) {
    let server = Arc::try_unwrap(server).ok().expect("the pusher has let go");
    server.shutdown().unwrap();
}

fn assert_ledger_exact(server: &TelegraphCQ) {
    let e = server.egress_stats_full();
    assert_eq!(
        e.offered,
        e.delivered + e.shed + e.displaced + e.disconnected_loss,
        "{e:?}"
    );
}

#[test]
fn a_row_pushed_after_submit_returns_reaches_the_new_query() {
    let server = start();
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    // The group's first member stands before the pusher starts; the
    // second joins it mid-stream, through the group DU's control queue.
    let first = server.submit(JOIN, client).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let feeding = pusher(&server, &stop);
    std::thread::sleep(Duration::from_millis(20));
    // Each marker follows its query's `submit` at once: a control that
    // returns without waiting is ordered only by where its DU applies it.
    let filter = server.submit("SELECT v FROM s", client).unwrap();
    let aggregate = server.submit(AGG, client).unwrap();
    server.push("s", row(0, MARK)).unwrap();
    let member = server.submit(JOIN, client).unwrap();
    assert_eq!(server.shared_join_count(), 1, "the member joined the group");
    server.push("r", row(MARK_KEY, MARK)).unwrap();
    server.push("l", row(MARK_KEY, MARK)).unwrap();
    let got = until_marked(&rx, &[filter, aggregate, member, first]);
    stop.store(true, Ordering::Relaxed);
    feeding.join().unwrap();
    assert!(got
        .iter()
        .all(|(q, _)| [filter, aggregate, member, first].contains(q)));
    shut_down(server);
}

#[test]
fn no_row_pushed_after_stop_query_returns_reaches_the_stopped_query() {
    let server = start();
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    let (witness_client, witness_rx) = server.connect_push_client(1 << 16).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let feeding = pusher(&server, &stop);
    let stopped = [
        server.submit("SELECT v FROM s", client).unwrap(),
        server.submit(AGG, client).unwrap(),
        server.submit(JOIN, client).unwrap(),
    ];
    // Witnesses of the same shapes on their own client: once each has its
    // marker, every marker went through every plan the stopped queries
    // were in.
    let witnesses = [
        server.submit("SELECT v FROM s", witness_client).unwrap(),
        server.submit(AGG, witness_client).unwrap(),
        server.submit(JOIN, witness_client).unwrap(),
    ];
    std::thread::sleep(Duration::from_millis(20));
    for qid in stopped {
        server.stop_query(qid).unwrap();
    }
    push_markers(&server);
    until_marked(&witness_rx, &witnesses);
    stop.store(true, Ordering::Relaxed);
    feeding.join().unwrap();
    for stream in ["s", "l", "r"] {
        server.finish_stream(stream).unwrap();
    }
    assert!(server.quiesce(Duration::from_secs(30)));
    let leaked: Vec<_> = rx.try_iter().filter(marked).collect();
    assert!(leaked.is_empty(), "rows after the stop: {leaked:?}");
    assert_ledger_exact(&server);
    shut_down(server);
}

/// How long a call that reaches a gone DU may take.
const PROMPT: Duration = Duration::from_millis(500);

fn prompt<R>(what: &str, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    let took = started.elapsed();
    assert!(took < PROMPT, "{what} took {took:?}");
    out
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcq-control-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A stream's dispatcher retired at its EOF with two aggregates standing:
/// it holds nothing any more, a stop and a checkpoint go through at once,
/// and a restore starts the aggregate still standing afresh.
#[test]
fn a_retired_dispatcher_answers_as_gone() {
    let dir = scratch("retired");
    let config = || ServerConfig {
        checkpoint_path: Some(dir.join("server.tcqk")),
        ..ServerConfig::default()
    };
    let server = TelegraphCQ::start(config()).unwrap();
    server.register_stream("s", schema()).unwrap();
    let (client, _rx) = server.connect_push_client(1 << 16).unwrap();
    let [gone, kept] = [AGG, AGG].map(|sql| server.submit(sql, client).unwrap());
    server
        .push_batch("s", (0..100).map(|i| row(0, i)).collect())
        .unwrap();
    server.finish_stream("s").unwrap();
    wait_for("the dispatcher never retired", || {
        server.executor_stats().dus_per_eo.iter().sum::<usize>() == 0
    });
    prompt("stop_query", || server.stop_query(gone).unwrap());
    prompt("checkpoint", || server.checkpoint().unwrap());
    let stats = prompt("shared_memory_stats", || server.shared_memory_stats());
    let filter = stats.iter().find(|s| s.label == "filter:s").unwrap();
    assert_eq!((filter.queries, filter.approx_bytes), (0, 0));
    let entries = prompt("aggregate_state_entries", || {
        server.aggregate_state_entries(kept)
    });
    assert_eq!(entries, Some(0), "a gone aggregate holds no partials");
    server.shutdown().unwrap();

    let server = prompt("restore", || TelegraphCQ::restore(config()).unwrap());
    assert_eq!(
        server.query_count(),
        1,
        "the stopped aggregate stays stopped"
    );
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    server.subscribe_client(client, kept).unwrap();
    server
        .push_batch("s", (0..100).map(|i| row(0, i)).collect())
        .unwrap();
    server.finish_stream("s").unwrap();
    assert!(server.quiesce(Duration::from_secs(30)));
    assert!(rx.try_iter().any(|(q, _)| q == kept), "it answers again");
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected `OperatorRun` errors retire every DU, the join's among them,
/// once the join holds rows: a read finds it holds nothing, and a stop and
/// a checkpoint go through at once.
#[test]
fn a_faulted_join_du_answers_as_gone() {
    let dir = scratch("faulted");
    // Every poll in the block fails whichever DU it lands on: all of them
    // run (and poll) once per round, so the block retires each.
    let plan = (20_000..20_400).fold(FaultPlan::new(7), |plan, at| {
        plan.at(
            FaultPoint::OperatorRun,
            at,
            FaultAction::Error("injected".into()),
        )
    });
    let server = TelegraphCQ::start(ServerConfig {
        checkpoint_path: Some(dir.join("server.tcqk")),
        fault_plan: Some(plan),
        ..ServerConfig::default()
    })
    .unwrap();
    for stream in ["l", "r"] {
        server.register_stream(stream, schema()).unwrap();
    }
    let (client, _rx) = server.connect_push_client(1 << 16).unwrap();
    let join = server.submit(JOIN, client).unwrap();
    server
        .push_batch("l", (0..50).map(|i| row(i, i)).collect())
        .unwrap();
    wait_for("the join never stored its rows", || {
        server.join_state_rows(join) == Some(50)
    });
    wait_for("the injected errors never retired every DU", || {
        server.executor_stats().dus_per_eo.iter().sum::<usize>() == 0
    });
    assert!(
        server.executor_stats().faulted >= 3,
        "two dispatchers and the join"
    );
    let rows = prompt("join_state_rows", || server.join_state_rows(join));
    assert_eq!(rows, Some(0), "a gone join holds nothing");
    prompt("checkpoint", || server.checkpoint().unwrap());
    prompt("stop_query", || server.stop_query(join).unwrap());
    prompt("checkpoint", || server.checkpoint().unwrap());
    assert_eq!(server.join_state_rows(join), None, "stopped");
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A join DU that is alive but held past the bound fails the checkpoint
/// that asks it to export, and never runs that export, so what the export
/// would have taken stays dirty: the next checkpoint stages every row the
/// join holds, and a restore from it joins later rows with them exactly as
/// one run would. Injected `OperatorRun` stalls skip every DU's quanta
/// over a block of polls, each round parking the executor for at least
/// 200 µs: the three DUs poll at most 15 000 times a second, so the block
/// lasts over 3 s.
#[test]
fn an_export_its_checkpoint_gave_up_on_is_never_lost() {
    const STALL: std::ops::Range<u64> = 30_000..80_000;
    let dir = scratch("stalled");
    let config = |fault_plan| ServerConfig {
        checkpoint_path: Some(dir.join("server.tcqk")),
        fault_plan,
        ..ServerConfig::default()
    };
    let stall = STALL.fold(FaultPlan::new(11), |plan, at| {
        plan.at(FaultPoint::OperatorRun, at, FaultAction::Stall { ticks: 1 })
    });
    // Key `v % 8` on both sides; each value joins once per matching row.
    let rows = |vs: std::ops::Range<i64>| vs.map(|v| row(v % 8, v)).collect::<Vec<_>>();
    let (before, after) = ((1..41, 1001..1041), (41..81, 1041..1081));
    let pairs = |l: Vec<i64>, r: Vec<i64>| {
        let mut pairs: Vec<(i64, i64)> = (l.iter())
            .flat_map(|&lv| {
                (r.iter())
                    .filter(move |&&rv| rv % 8 == lv % 8)
                    .map(move |&rv| (lv, rv))
            })
            .collect();
        pairs.sort_unstable();
        pairs
    };
    let pair = |t: &Tuple| match t.values() {
        [Value::Int(l), Value::Int(r)] => (*l, *r),
        other => panic!("not a join row: {other:?}"),
    };

    let server = TelegraphCQ::start(config(Some(stall))).unwrap();
    for stream in ["l", "r"] {
        server.register_stream(stream, schema()).unwrap();
    }
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    let join = server.submit(JOIN, client).unwrap();
    server.push_batch("l", rows(before.0.clone())).unwrap();
    server.push_batch("r", rows(before.1.clone())).unwrap();
    wait_for("the join never stored its rows", || {
        server.join_state_rows(join) == Some(80)
    });
    assert!(server.fired_faults().is_empty(), "the stall began too soon");
    wait_for("the stall never began", || {
        !server.fired_faults().is_empty()
    });
    let held = server.checkpoint();
    assert!(held.is_err(), "a checkpoint inside the stall: {held:?}");
    wait_for("the stall never ended", || {
        server.fired_faults().len() as u64 >= STALL.end - STALL.start
    });
    server.checkpoint().unwrap();
    let want = pairs(before.0.clone().collect(), before.1.clone().collect());
    let mut got: Vec<(i64, i64)> = Vec::new();
    while got.len() < want.len() {
        let (_, t) = (rx.recv_timeout(Duration::from_secs(30))).expect("the join answers");
        got.push(pair(&t));
    }
    // Die without a shutdown: only the checkpoint survives.
    std::mem::forget(server);

    let server = TelegraphCQ::restore(config(None)).unwrap();
    let (client, rx) = server.connect_push_client(1 << 16).unwrap();
    server.subscribe_client(client, join).unwrap();
    server.push_batch("l", rows(after.0.clone())).unwrap();
    server.push_batch("r", rows(after.1.clone())).unwrap();
    for stream in ["l", "r"] {
        server.finish_stream(stream).unwrap();
    }
    assert!(server.quiesce(Duration::from_secs(30)));
    got.extend(rx.try_iter().map(|(_, t)| pair(&t)));
    got.sort_unstable();
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let want = pairs(
        before.0.chain(after.0).collect(),
        before.1.chain(after.1).collect(),
    );
    assert_eq!(got.len(), want.len(), "join rows across the restore");
    assert_eq!(got, want);
}
