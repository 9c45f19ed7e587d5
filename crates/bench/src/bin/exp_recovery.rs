//! Experiment E-recovery (DESIGN.md §5e "Checkpoint & recovery"): durable
//! checkpoint/restore with incremental state shipping.
//!
//! Claims demonstrated:
//!
//! * **Kill → restore loses nothing.** A server running a join and a
//!   windowed aggregate is killed mid-stream (no shutdown, no flush) after
//!   a checkpoint whose *first* commit attempt fails with an injected
//!   write fault. One `TelegraphCQ::restore` call brings back both streams
//!   and both queries from the retried checkpoint; the client
//!   re-subscribes and only the tail is replayed. That yields, per query,
//!   exactly the row sequence of an uninterrupted run — and the restored
//!   egress ledger lands on the same final accounting. It holds with the
//!   join on one core and partitioned over four (`partitions = 4`), whose
//!   cores restore their SteM state too.
//! * **Checkpoint cost scales with churn, not total state.** After a full
//!   first epoch, each delta epoch writes fragments proportional to the
//!   state groups actually dirtied since the previous cut.
//! * **Flux rejoin ships the delta.** A restarted node restores its local
//!   snapshot and is caught up by shipping only groups dirtied since the
//!   snapshot epoch — `groups_shipped` tracks churn, not node state size.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_recovery [-- --smoke]
//! ```
//!
//! `--smoke` runs the reduced-scale CI variant; the full run also writes
//! machine-readable `BENCH_recovery.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::time::Duration;

use tcq_bench::{kv, kv_schema, Table};
use tcq_common::{
    DataType, FaultAction, FaultPlan, FaultPoint, Field, Result, Schema, SchemaRef, Timestamp,
    Tuple, TupleBuilder,
};
use tcq_egress::Delivery;
use tcq_flux::{FluxCluster, FluxConfig};
use tcq_ingress::{Source, SourceFactory, SourceStatus};
use tcq_server::{ServerConfig, TelegraphCQ};

const SEED: u64 = 0x0DD_C0DE;
const DIM_ROWS: i64 = 64;

const JOIN_Q: &str = "SELECT s.v, d.tag FROM s s, d d WHERE s.k = d.id \
     for (t = ST; t >= 0; t++) { WindowIs(s, t - 8000000, t); WindowIs(d, t - 9000000, t); }";
const AGG_Q: &str =
    "SELECT COUNT(*) FROM s for (t = ST; t >= 0; t += 10) { WindowIs(s, t - 9, t); }";

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

fn hot_master(n: i64) -> Vec<Tuple> {
    let hot = hot_schema();
    (1..=n)
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

/// Replays a fixed tuple set; resumable from an offset so the factory can
/// skip already-delivered tuples.
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

/// Delivers the first `limit` tuples then stalls (`Idle`, not EOF): a
/// stream that is still open when the server dies.
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcq-exp-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Per-query result rows (all columns, as ints) in delivery order.
fn rows_by_query(rx: &Receiver<Delivery>) -> BTreeMap<usize, Vec<Vec<i64>>> {
    let mut map: BTreeMap<usize, Vec<Vec<i64>>> = BTreeMap::new();
    for (qid, t) in rx.try_iter() {
        map.entry(qid)
            .or_default()
            .push(t.values().iter().map(|v| v.as_int().unwrap()).collect());
    }
    map
}

/// Registers both streams, submits the join + aggregate pair, and
/// loads-then-closes the dimension stream.
fn boot_topology(server: &TelegraphCQ) -> (usize, usize, Receiver<Delivery>) {
    server.register_stream("s", hot_schema()).unwrap();
    server.register_stream("d", dim_schema()).unwrap();
    let (client, rx): (_, Receiver<Delivery>) = server.connect_push_client(1 << 17).unwrap();
    let join_q = server.submit(JOIN_Q, client).unwrap();
    let agg_q = server.submit(AGG_Q, client).unwrap();
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
    (join_q, agg_q, rx)
}

fn replay_factory(master: &[Tuple]) -> SourceFactory {
    let master = master.to_vec();
    let schema = hot_schema();
    Box::new(move |_attempt, delivered| {
        Ok(Box::new(ReplaySource {
            schema: schema.clone(),
            tuples: master[delivered as usize..].to_vec(),
            pos: 0,
        }) as Box<dyn Source>)
    })
}

struct CrashRestoreOutcome {
    n: i64,
    half: usize,
    rows_a_join: usize,
    rows_a_agg: usize,
    rows_b_join: usize,
    rows_b_agg: usize,
    ref_join: usize,
    ref_agg: usize,
    commit_faults: u64,
    recovered_epochs: u64,
    recovered_fragments: u64,
    restore_ms: f64,
    ckpt_fragments: u64,
    ckpt_bytes: u64,
    ledger_delivered: u64,
    zero_loss: bool,
}

fn experiment_crash_restore(n: i64, partitions: usize) -> CrashRestoreOutcome {
    // Not a window multiple: the aggregate's open buffer spans the cut.
    let half = (n / 2 + 5) as usize;
    println!(
        "E-recovery-a — kill → restore ({n} tuples, killed at {half}): a join at\n\
         partitions = {partitions} + a windowed aggregate, checkpointed under an injected\n\
         commit fault, then the process dies with the stream still open\n"
    );
    let dir = temp_dir(&format!("crash-{partitions}"));
    let ckpt = dir.join("server.tcqk");
    let master = hot_master(n);

    // Reference: same topology, uninterrupted, no checkpointing.
    let (ref_rows, ref_egress) = {
        let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
        let (_, _, rx) = boot_topology(&server);
        server
            .attach_supervised_source("s", replay_factory(&master))
            .unwrap();
        assert!(server.quiesce(Duration::from_secs(120)));
        let rows = rows_by_query(&rx);
        let egress = server.egress_stats_full();
        server.shutdown().unwrap();
        (rows, egress)
    };

    // Phase A: run to the stall point, checkpoint (first commit attempt
    // fails with the injected fault; the pending delta survives for the
    // retry), then die without shutdown.
    let fault_plan = FaultPlan::new(SEED).at(
        FaultPoint::CheckpointWrite,
        1,
        FaultAction::Error("disk full".into()),
    );
    let (rows_a, commit_faults, ckpt_report, (join_q, agg_q)) = {
        let server = TelegraphCQ::start(ServerConfig {
            checkpoint_path: Some(ckpt.clone()),
            fault_plan: Some(fault_plan),
            partitions,
            ..ServerConfig::default()
        })
        .unwrap();
        let (join_q, agg_q, rx) = boot_topology(&server);
        let factory: SourceFactory = {
            let master = master.clone();
            let schema = hot_schema();
            Box::new(move |_attempt, _delivered| {
                Ok(Box::new(StallSource {
                    schema: schema.clone(),
                    tuples: master.clone(),
                    pos: 0,
                    limit: half,
                }) as Box<dyn Source>)
            })
        };
        server.attach_supervised_source("s", factory).unwrap();
        while (server.supervisor_stats()[0].1.delivered as usize) < half
            || (server.stream_time("s").unwrap() as usize) < half
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            server.checkpoint().is_err(),
            "the injected fault must fail the first commit"
        );
        let report = server.checkpoint().expect("the retry must succeed");
        let commit_faults = server.checkpoint_stats().unwrap().commit_faults;
        let rows = rows_by_query(&rx);
        // Crash: leak the whole server — threads never hear from us again.
        std::mem::forget(server);
        (rows, commit_faults, report, (join_q, agg_q))
    };

    // Phase B: restore — the streams, both queries and the d-side SteM
    // content come back with the image — then re-subscribe, close d again
    // (the image records no end-of-stream) and replay only the tail.
    let start = std::time::Instant::now();
    let server = TelegraphCQ::restore(ServerConfig {
        checkpoint_path: Some(ckpt.clone()),
        partitions,
        ..ServerConfig::default()
    })
    .unwrap();
    let restore_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(server.query_count(), 2, "restore starts both queries");
    let (client, rx) = server.connect_push_client(1 << 17).unwrap();
    for qid in [join_q, agg_q] {
        server.subscribe_client(client, qid).unwrap();
    }
    server.finish_stream("d").unwrap();
    let recovery = server.checkpoint_recovery().unwrap();
    server
        .attach_supervised_source("s", replay_factory(&master))
        .unwrap();
    assert!(server.quiesce(Duration::from_secs(120)));
    let sup = server.supervisor_stats().remove(0).1;
    let rows_b = rows_by_query(&rx);
    let egress = server.egress_stats_full();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(sup.delivered, n as u64, "cumulative watermark");
    assert_eq!(sup.restarts, 0);
    let mut zero_loss = true;
    for qid in [join_q, agg_q] {
        let mut combined = rows_a.get(&qid).cloned().unwrap_or_default();
        combined.extend(rows_b.get(&qid).cloned().unwrap_or_default());
        zero_loss &= combined == ref_rows[&qid];
        assert_eq!(
            combined, ref_rows[&qid],
            "q{qid}: A+B rows diverged from the uninterrupted run"
        );
    }
    assert_eq!(egress.delivered, ref_egress.delivered, "ledger drifted");
    assert!(egress.accounted());

    let empty: Vec<Vec<i64>> = Vec::new();
    let o = CrashRestoreOutcome {
        n,
        half,
        rows_a_join: rows_a.get(&join_q).unwrap_or(&empty).len(),
        rows_a_agg: rows_a.get(&agg_q).unwrap_or(&empty).len(),
        rows_b_join: rows_b.get(&join_q).unwrap_or(&empty).len(),
        rows_b_agg: rows_b.get(&agg_q).unwrap_or(&empty).len(),
        ref_join: ref_rows[&join_q].len(),
        ref_agg: ref_rows[&agg_q].len(),
        commit_faults,
        recovered_epochs: recovery.epochs_recovered,
        recovered_fragments: recovery.fragments_recovered,
        restore_ms,
        ckpt_fragments: ckpt_report.fragments,
        ckpt_bytes: ckpt_report.bytes,
        ledger_delivered: egress.delivered,
        zero_loss,
    };
    let mut table = Table::new(&["run", "join rows", "agg rows", "ledger delivered"]);
    table.row(vec![
        "uninterrupted".into(),
        o.ref_join.to_string(),
        o.ref_agg.to_string(),
        ref_egress.delivered.to_string(),
    ]);
    table.row(vec![
        "pre-crash (A)".into(),
        o.rows_a_join.to_string(),
        o.rows_a_agg.to_string(),
        "-".into(),
    ]);
    table.row(vec![
        "restored (B)".into(),
        o.rows_b_join.to_string(),
        o.rows_b_agg.to_string(),
        "-".into(),
    ]);
    table.row(vec![
        "A + B".into(),
        (o.rows_a_join + o.rows_b_join).to_string(),
        (o.rows_a_agg + o.rows_b_agg).to_string(),
        o.ledger_delivered.to_string(),
    ]);
    table.print();
    println!(
        "\n  shape check: per query, A+B is exactly the uninterrupted row sequence\n\
         \x20 (the aggregate window open across the cut closes with the right count),\n\
         \x20 the first commit's injected failure cost one retry ({} fault), and the\n\
         \x20 restored server recovered {} epochs / {} fragments in {:.1} ms.\n",
        o.commit_faults, o.recovered_epochs, o.recovered_fragments, o.restore_ms
    );
    o
}

struct DeltaRow {
    churn: usize,
    fragments: u64,
    bytes: u64,
    ms: f64,
}

fn experiment_delta_checkpoints(groups: usize, churns: &[usize]) -> (u64, u64, Vec<DeltaRow>) {
    println!(
        "E-recovery-b — incremental checkpoints ({groups} state groups): after the\n\
         full first epoch, each delta writes only the groups dirtied since the cut\n"
    );
    let server = TelegraphCQ::start(ServerConfig {
        checkpoint_path: Some(temp_dir("delta").join("server.tcqk")),
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", hot_schema()).unwrap();
    server.register_stream("d", dim_schema()).unwrap();
    let (client, _rx): (_, Receiver<Delivery>) = server.connect_push_client(1 << 17).unwrap();
    // Keys never match d's single row: the join builds an s-side SteM of
    // `groups` groups without producing egress traffic.
    server.submit(JOIN_Q, client).unwrap();
    let dims = dim_schema();
    server
        .push_batch(
            "d",
            vec![TupleBuilder::new(dims.clone())
                .push(-1i64)
                .push(0i64)
                .at(Timestamp::logical(1))
                .build()
                .unwrap()],
        )
        .unwrap();

    let hot = hot_schema();
    let mut ts = 0i64;
    let mut feed = |server: &TelegraphCQ, keys: std::ops::Range<usize>| {
        let batch: Vec<Tuple> = keys
            .map(|k| {
                ts += 1;
                TupleBuilder::new(hot.clone())
                    .push(k as i64 + 1)
                    .push(ts)
                    .at(Timestamp::logical(ts))
                    .build()
                    .unwrap()
            })
            .collect();
        let want = ts;
        server.push_batch("s", batch).unwrap();
        while server.stream_time("s").unwrap() < want {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
    };

    feed(&server, 0..groups);
    let start = std::time::Instant::now();
    let full = server.checkpoint().unwrap();
    let full_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(
        full.fragments as usize >= groups,
        "the first epoch snapshots every group"
    );

    let mut table = Table::new(&["epoch", "dirtied groups", "fragments", "bytes", "ms"]);
    table.row(vec![
        "full (first)".into(),
        groups.to_string(),
        full.fragments.to_string(),
        full.bytes.to_string(),
        format!("{full_ms:.1}"),
    ]);
    let mut rows = Vec::new();
    for &churn in churns {
        feed(&server, 0..churn);
        let start = std::time::Instant::now();
        let delta = server.checkpoint().unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        // churn SteM groups + bookkeeping (egress ledger, stream clocks).
        assert!(
            delta.fragments as usize <= churn + 8,
            "delta epoch wrote {} fragments for {churn} dirtied groups",
            delta.fragments
        );
        table.row(vec![
            "delta".into(),
            churn.to_string(),
            delta.fragments.to_string(),
            delta.bytes.to_string(),
            format!("{ms:.1}"),
        ]);
        rows.push(DeltaRow {
            churn,
            fragments: delta.fragments,
            bytes: delta.bytes,
            ms,
        });
    }
    server.shutdown().unwrap();
    table.print();
    println!(
        "\n  shape check: delta fragments track the churn, not the {groups}-group\n\
         \x20 total — an idle-ish epoch costs bookkeeping only.\n"
    );
    (full.fragments, full.bytes, rows)
}

struct RejoinRow {
    churn: usize,
    groups_shipped: u64,
    bytes_shipped: u64,
    node_groups: u64,
}

fn experiment_flux_rejoin(keys: usize, churns: &[usize]) -> Vec<RejoinRow> {
    println!(
        "E-recovery-c — Flux rejoin ships the delta ({keys} group keys, 2 nodes,\n\
         process pairs): checkpoint, kill a node, churn, restart it. With no spare\n\
         node the partitions stay degraded until the rejoin, whose catch-up traffic\n\
         is the groups dirtied since the snapshot epoch — not the node's state\n"
    );
    let schema = kv_schema("S");
    let mut table = Table::new(&[
        "churned groups",
        "snapshot epoch",
        "groups shipped",
        "bytes shipped",
        "node groups",
        "fully replicated",
    ]);
    let mut rows = Vec::new();
    for &churn in churns {
        let mut cfg = FluxConfig::uniform(2).with_replication();
        cfg.partitions = 16;
        let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
        let mut ts = 0i64;
        let mut ingest = |cluster: &mut FluxCluster, keys: usize| {
            for k in 0..keys {
                ts += 1;
                cluster.ingest(&kv(&schema, k as i64, 1, ts)).unwrap();
                if ts % 16 == 0 {
                    cluster.tick();
                }
            }
            cluster.run_until_drained(1_000_000);
        };
        ingest(&mut cluster, keys);
        let ckpt = cluster.checkpoint();
        assert!(
            ckpt.groups_copied as usize >= keys,
            "first epoch copies every group"
        );
        cluster.kill_node(0).unwrap();
        ingest(&mut cluster, churn);
        let report = cluster.restart_node(0).unwrap();
        cluster.run_until_drained(1_000_000);
        assert_eq!(report.snapshot_epoch, ckpt.epoch);
        // Every churned key already existed, so the rejoin ships exactly
        // the churned groups — the rest restores from the local snapshot.
        assert_eq!(report.groups_shipped as usize, churn);
        let total: u64 = cluster.results().values().map(|(c, _)| c).sum();
        assert_eq!(
            total,
            (keys + churn) as u64,
            "process pairs lose nothing across the kill"
        );
        assert!(cluster.fully_replicated());
        table.row(vec![
            churn.to_string(),
            report.snapshot_epoch.to_string(),
            report.groups_shipped.to_string(),
            report.bytes_shipped.to_string(),
            keys.to_string(),
            cluster.fully_replicated().to_string(),
        ]);
        rows.push(RejoinRow {
            churn,
            groups_shipped: report.groups_shipped,
            bytes_shipped: report.bytes_shipped,
            node_groups: keys as u64,
        });
    }
    assert!(
        rows.first().unwrap().groups_shipped < rows.last().unwrap().groups_shipped,
        "rejoin traffic must grow with churn"
    );
    table.print();
    println!(
        "\n  shape check: groups shipped equal the churn since the snapshot,\n\
         \x20 staying far under the node's total state for small deltas — bounded-\n\
         \x20 time recovery comes from shipping what moved, not what exists.\n"
    );
    rows
}

fn write_json(
    path: &str,
    crash: &CrashRestoreOutcome,
    full: (u64, u64),
    deltas: &[DeltaRow],
    rejoins: &[RejoinRow],
) {
    let delta_entries: Vec<String> = deltas
        .iter()
        .map(|d| {
            format!(
                "    {{\"churn\": {}, \"fragments\": {}, \"bytes\": {}, \"ms\": {:.2}}}",
                d.churn, d.fragments, d.bytes, d.ms
            )
        })
        .collect();
    let rejoin_entries: Vec<String> = rejoins
        .iter()
        .map(|r| {
            format!(
                "    {{\"churn\": {}, \"groups_shipped\": {}, \"bytes_shipped\": {}, \
                 \"node_groups\": {}}}",
                r.churn, r.groups_shipped, r.bytes_shipped, r.node_groups
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"crash_restore\": {{\n    \
         \"tuples\": {}, \"killed_at\": {}, \"zero_loss\": {}, \"commit_faults\": {},\n    \
         \"join_rows_a_b_ref\": [{}, {}, {}], \"agg_rows_a_b_ref\": [{}, {}, {}],\n    \
         \"recovered_epochs\": {}, \"recovered_fragments\": {}, \"restore_ms\": {:.2},\n    \
         \"last_delta_fragments\": {}, \"last_delta_bytes\": {}, \"ledger_delivered\": {}\n  }},\n  \
         \"delta_checkpoints\": {{\n    \"full_fragments\": {}, \"full_bytes\": {},\n    \
         \"deltas\": [\n{}\n    ]\n  }},\n  \
         \"flux_rejoin\": [\n{}\n  ]\n}}\n",
        crash.n,
        crash.half,
        crash.zero_loss,
        crash.commit_faults,
        crash.rows_a_join,
        crash.rows_b_join,
        crash.ref_join,
        crash.rows_a_agg,
        crash.rows_b_agg,
        crash.ref_agg,
        crash.recovered_epochs,
        crash.recovered_fragments,
        crash.restore_ms,
        crash.ckpt_fragments,
        crash.ckpt_bytes,
        crash.ledger_delivered,
        full.0,
        full.1,
        delta_entries.join(",\n"),
        rejoin_entries.join(",\n"),
    );
    std::fs::write(path, json).unwrap();
    println!("  wrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 2_000 } else { 12_000 };
    let crash = experiment_crash_restore(n, 1);
    experiment_crash_restore(n, 4);
    let (full, deltas) = {
        let (f, b, rows) = if smoke {
            experiment_delta_checkpoints(2_048, &[16, 256, 2_048])
        } else {
            experiment_delta_checkpoints(16_384, &[64, 1_024, 16_384])
        };
        ((f, b), rows)
    };
    let rejoins = if smoke {
        experiment_flux_rejoin(1_024, &[16, 128, 1_024])
    } else {
        experiment_flux_rejoin(8_192, &[64, 1_024, 8_192])
    };
    if !smoke {
        write_json("BENCH_recovery.json", &crash, full, &deltas, &rejoins);
    }
}
