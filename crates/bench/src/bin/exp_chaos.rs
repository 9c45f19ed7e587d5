//! Experiment E-chaos (DESIGN.md "Fault model"): end-to-end chaos run —
//! a supervised, fault-injected source feeding a Flux cluster while the
//! same seeded [`FaultPlan`] kills nodes, restarts one, slows another, and
//! overflows the ingest path.
//!
//! Claims demonstrated:
//!
//! * with process-pair replication the answer loses **zero** tuples;
//! * without replication the shortfall equals `lost_inflight +
//!   overflow_dropped` **exactly** — loss is accounted, never silent;
//! * after every kill the cluster re-replicates back to full replication;
//! * two runs from the same seed produce identical answers *and* an
//!   identical fired-fault log (determinism: any chaos failure replays);
//! * the whole server (ingress → dispatcher → archive → egress) quiesces
//!   under one schedule mixing a source panic, an enqueue overflow, a soft
//!   archive failure, a torn page write, and a dead client — with every
//!   produced tuple delivered or accounted.
//!
//! ```text
//! cargo run --release -p tcq-bench --bin exp_chaos [-- --smoke]
//! ```
//!
//! `--smoke` runs the reduced-scale CI variant (smaller server workload,
//! single server pass).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tcq_bench::{kv, kv_schema, Table};
use tcq_common::chaos::FiredFault;
use tcq_common::{
    DataType, FaultAction, FaultPlan, FaultPoint, Field, Result, Schema, SchemaRef, Timestamp,
    Tuple, TupleBuilder, Value,
};
use tcq_egress::EgressStats;
use tcq_fjords::{fjord, DequeueResult, FjordMessage, QueueKind};
use tcq_flux::{FluxCluster, FluxConfig, FluxStats};
use tcq_ingress::{
    ChaosSource, Source, SourceFactory, SourceStatus, Supervisor, SupervisorConfig, SupervisorStats,
};
use tcq_server::{ServerConfig, TelegraphCQ};

const TUPLES: i64 = 12_000;
const KEYS: i64 = 211;
const SEED: u64 = 0xBAD5EED;

fn workload() -> Vec<Tuple> {
    let schema = kv_schema("S");
    (0..TUPLES)
        .map(|i| kv(&schema, (i * 37 + 11) % KEYS, 1, i + 1))
        .collect()
}

/// Replays a fixed tuple set in fixed-size reads; resumable from an offset
/// so the supervisor's factory can skip already-delivered tuples.
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

/// The seeded schedule: a malformed read, a source panic, a source error,
/// two node kills, one rejoin, one straggler, two injected ingest
/// overflows. All from one seed.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .at(FaultPoint::SourceRead, 10, FaultAction::MalformedTuple)
        .at(
            FaultPoint::SourceRead,
            40,
            FaultAction::Panic("wrapper segfault".into()),
        )
        .at(
            FaultPoint::SourceRead,
            90,
            FaultAction::Error("carrier lost".into()),
        )
        .at(
            FaultPoint::ClusterTick,
            50,
            FaultAction::Straggler { node: 3, ticks: 40 },
        )
        .at(FaultPoint::ClusterTick, 100, FaultAction::KillNode(1))
        .at(FaultPoint::ClusterTick, 300, FaultAction::KillNode(2))
        .at(FaultPoint::ClusterTick, 500, FaultAction::RestartNode(1))
        .at(FaultPoint::Ingest, 2_000, FaultAction::Overflow)
        .at(FaultPoint::Ingest, 7_000, FaultAction::Overflow)
}

struct Outcome {
    answer: BTreeMap<i64, (u64, f64)>,
    flux: FluxStats,
    sup: SupervisorStats,
    log: Vec<FiredFault>,
    replicated_after_kills: bool,
}

fn run_scenario(seed: u64, replication: bool) -> Outcome {
    let injector = plan(seed).build_shared();
    let cfg = if replication {
        FluxConfig::uniform(4).with_replication()
    } else {
        FluxConfig::uniform(4)
    };
    let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
    cluster.attach_injector(injector.clone());

    let master = workload();
    let factory: SourceFactory = {
        let master = master.clone();
        let schema = kv_schema("S");
        let injector = injector.clone();
        Box::new(move |_attempt, delivered| {
            let inner = ReplaySource {
                schema: schema.clone(),
                tuples: master[delivered as usize..].to_vec(),
                pos: 0,
            };
            Ok(Box::new(ChaosSource::new(
                Box::new(inner),
                injector.clone(),
            )))
        })
    };
    let (producer, consumer) = fjord(4096, QueueKind::Push);
    let supervisor =
        Supervisor::spawn("chaos-feed", factory, producer, SupervisorConfig::default());

    let mut fed: u64 = 0;
    let mut replicated_after_kills = true;
    let mut kills_seen: u64 = 0;
    loop {
        match consumer.dequeue() {
            DequeueResult::Msg(FjordMessage::Tuple(t)) => {
                cluster.ingest(&t).unwrap();
                fed += 1;
                // Tuple-count-driven ticks keep the schedule deterministic.
                if fed.is_multiple_of(16) {
                    cluster.tick();
                    let failovers = cluster.stats().failovers + cluster.stats().restarts;
                    if replication && failovers > kills_seen {
                        kills_seen = failovers;
                        // Re-replication invariant: every failover or
                        // rejoin leaves the cluster fully paired again.
                        replicated_after_kills &= cluster.fully_replicated();
                    }
                }
            }
            DequeueResult::Msg(FjordMessage::Eof) => break,
            DequeueResult::Msg(FjordMessage::Punct(_)) => {}
            DequeueResult::Empty => std::thread::yield_now(),
            DequeueResult::Disconnected => break,
        }
    }
    cluster.run_until_drained(10_000_000);
    let sup = supervisor.join();
    assert_eq!(fed, sup.delivered, "consumer saw every delivered tuple");

    let mut answer = BTreeMap::new();
    for (k, (count, sum)) in cluster.results() {
        let key = match k {
            Value::Int(i) => i,
            other => panic!("non-int group key {other:?}"),
        };
        answer.insert(key, (count, sum));
    }
    Outcome {
        answer,
        flux: cluster.stats(),
        sup,
        log: injector.log(),
        replicated_after_kills,
    }
}

fn accounting(outcome: &Outcome) -> (u64, u64) {
    let got: u64 = outcome.answer.values().map(|(c, _)| c).sum();
    let accounted = got + outcome.flux.lost_inflight + outcome.flux.overflow_dropped;
    (got, accounted)
}

fn experiment_loss_accounting() {
    println!(
        "E-chaos-a — one seeded schedule ({TUPLES} tuples, 4 nodes): 2 kills, 1 rejoin,\n\
         1 straggler, 2 injected overflows, a panicking + erroring + garbage source\n"
    );
    let mut table = Table::new(&[
        "configuration",
        "delivered",
        "answered",
        "lost in-flight",
        "overflow drops",
        "groups shipped",
        "exactly accounted",
        "re-replicated",
    ]);
    for (label, replication) in [("process pairs", true), ("no replicas", false)] {
        let outcome = run_scenario(SEED, replication);
        let (got, accounted) = accounting(&outcome);
        assert_eq!(
            accounted, outcome.sup.delivered,
            "{label}: every tuple must be answered or accounted as lost"
        );
        assert_eq!(
            outcome.sup.delivered, TUPLES as u64,
            "supervisor replays through faults"
        );
        assert_eq!(outcome.sup.panics, 1);
        assert_eq!(outcome.sup.source_errors, 1);
        assert_eq!(outcome.sup.malformed, 1);
        assert_eq!(outcome.flux.restarts, 1, "node 1 rejoined");
        if replication {
            assert_eq!(outcome.flux.lost_inflight, 0, "process pairs lose nothing");
            assert!(
                outcome.replicated_after_kills,
                "replication factor restored after kills"
            );
        } else {
            assert!(
                outcome.flux.lost_inflight > 0,
                "unreplicated kills must cost tuples"
            );
        }
        table.row(vec![
            label.to_string(),
            outcome.sup.delivered.to_string(),
            got.to_string(),
            outcome.flux.lost_inflight.to_string(),
            outcome.flux.overflow_dropped.to_string(),
            outcome.flux.groups_shipped.to_string(),
            "true".to_string(),
            if replication {
                outcome.replicated_after_kills.to_string()
            } else {
                "n/a".into()
            },
        ]);
    }
    table.print();
    println!(
        "\n  shape check: with process pairs the kills are invisible in the answer\n\
         \x20 (zero in-flight loss, replication factor restored); without them the\n\
         \x20 shortfall equals lost_inflight + overflow_dropped exactly — loss is\n\
         \x20 accounted, never silent. \"groups shipped\" is the real recovery\n\
         \x20 traffic: state groups moved to re-establish replicas after kills\n\
         \x20 and to catch the rejoining node up (delta-only when a Flux\n\
         \x20 checkpoint preceded the crash).\n"
    );
}

/// The determinism contract is per fault point: each point's poll counter
/// advances on one thread's schedule, so its fired sequence replays
/// exactly, while the *interleaving* between the ingress thread's
/// SourceRead polls and the main thread's ClusterTick/Ingest polls is
/// thread scheduling. Normalise to (point, poll#) order before comparing.
fn normalised(mut log: Vec<FiredFault>) -> Vec<FiredFault> {
    log.sort_by_key(|&(point, count, _)| (point, count));
    log
}

fn experiment_determinism() {
    println!("E-chaos-b — determinism: the same seed replays the same catastrophe\n");
    let mut table = Table::new(&["configuration", "faults fired", "same answer", "same log"]);
    for (label, replication) in [("process pairs", true), ("no replicas", false)] {
        let a = run_scenario(SEED, replication);
        let b = run_scenario(SEED, replication);
        assert_eq!(
            a.answer, b.answer,
            "{label}: answers diverged across same-seed runs"
        );
        let (la, lb) = (normalised(a.log), normalised(b.log));
        assert_eq!(la, lb, "{label}: fault logs diverged across same-seed runs");
        table.row(vec![
            label.to_string(),
            la.len().to_string(),
            (a.answer == b.answer).to_string(),
            (la == lb).to_string(),
        ]);
    }
    table.print();
    println!(
        "\n  shape check: chaos runs replay exactly from their seed — a failing\n\
         \x20 schedule is a regression test, not a flake.\n"
    );
}

fn server_schema() -> SchemaRef {
    Schema::new(vec![Field::new("v", DataType::Int)]).into_ref()
}

fn server_workload(n: i64) -> Vec<Tuple> {
    let schema = server_schema();
    (1..=n)
        .map(|i| {
            TupleBuilder::new(schema.clone())
                .push(i)
                .at(Timestamp::logical(i))
                .build()
                .unwrap()
        })
        .collect()
}

/// One schedule across four server layers: a wrapper panic (ingress), a
/// dropped fan-out (dispatcher), a failed append plus a torn page seal
/// (storage), and two failed delivery offers (egress). The dead client is
/// not injected — it really disconnects.
fn server_plan(seed: u64, n: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .at(
            FaultPoint::SourceRead,
            20,
            FaultAction::Panic("wrapper segfault".into()),
        )
        .at(FaultPoint::FjordEnqueue, n / 6, FaultAction::Overflow)
        .at(
            FaultPoint::ArchiveAppend,
            50,
            FaultAction::Error("disk hiccup".into()),
        )
        .at(FaultPoint::ArchiveAppend, 100, FaultAction::Overflow)
        .at(
            FaultPoint::EgressDeliver,
            n / 3,
            FaultAction::Error("socket reset".into()),
        )
        .at(
            FaultPoint::EgressDeliver,
            2 * n / 3,
            FaultAction::Error("socket reset".into()),
        )
}

struct ServerOutcome {
    results: Vec<i64>,
    egress: EgressStats,
    dispatcher_shed: i64,
    archive: tcq_storage::ArchiveStats,
    sup: SupervisorStats,
    log: Vec<FiredFault>,
}

fn run_server_scenario(n: i64, dir: &Path) -> ServerOutcome {
    let server = TelegraphCQ::start(ServerConfig {
        archive_dir: Some(dir.to_path_buf()),
        fault_plan: Some(server_plan(SEED, n as u64)),
        ..ServerConfig::default()
    })
    .unwrap();
    server.register_stream("s", server_schema()).unwrap();

    // A healthy push client and a dead one (receiver dropped before any
    // delivery): the router must disconnect the dead one after its first
    // offer and keep the healthy one flowing.
    let (healthy, rx) = server.connect_push_client(n as usize + 16).unwrap();
    let (dead, dead_rx) = server.connect_push_client(4).unwrap();
    drop(dead_rx);
    server.submit("SELECT v FROM s", healthy).unwrap();
    server.submit("SELECT v FROM s", dead).unwrap();

    let master = server_workload(n);
    let factory: SourceFactory = {
        let schema = server_schema();
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
        "server must quiesce despite the chaos schedule"
    );

    let sup = server.supervisor_stats().remove(0).1;
    let outcome = ServerOutcome {
        results: rx
            .try_iter()
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect(),
        egress: server.egress_stats_full(),
        dispatcher_shed: server.shed_count("s").unwrap(),
        archive: server.archive_stats("s").unwrap().unwrap(),
        sup,
        log: server.fired_faults(),
    };
    server.shutdown().unwrap();
    outcome
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcq-exp-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn experiment_server_chaos(n: i64, determinism: bool) {
    println!(
        "E-chaos-c — whole-server chaos ({n} tuples): source panic, enqueue\n\
         overflow, soft archive failure, torn page write, dead client\n"
    );
    let mut table = Table::new(&[
        "run",
        "delivered",
        "egress shed",
        "dispatch shed",
        "disconnects",
        "archived",
        "torn pages",
        "lost records",
        "accounted",
    ]);
    let runs = if determinism { 2 } else { 1 };
    let mut first: Option<ServerOutcome> = None;
    for run in 0..runs {
        let dir = temp_dir(&format!("server-{run}"));
        let o = run_server_scenario(n, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        // Ingress survived the panic and replayed every tuple once; the
        // dispatcher dropped exactly one fan-out; the archive counted one
        // soft failure and one torn page; egress accounted every offer.
        assert_eq!(o.sup.delivered, n as u64);
        assert_eq!((o.sup.panics, o.sup.restarts), (1, 1));
        assert_eq!(o.dispatcher_shed, 1);
        assert_eq!(o.archive.appended, n as u64 - 1);
        assert_eq!(o.archive.torn_pages, 1);
        assert!(o.archive.lost_records > 0);
        let e = &o.egress;
        assert_eq!(e.offered, n as u64);
        assert_eq!((e.shed, e.disconnected, e.disconnected_loss), (2, 1, 1));
        assert!(e.accounted(), "offered == delivered+shed+displaced+loss");
        assert_eq!(o.results.len() as u64, e.delivered);
        assert_eq!(o.log.len(), 6, "all six scheduled faults fired");

        table.row(vec![
            ((b'A' + run as u8) as char).to_string(),
            e.delivered.to_string(),
            e.shed.to_string(),
            o.dispatcher_shed.to_string(),
            e.disconnected.to_string(),
            o.archive.appended.to_string(),
            o.archive.torn_pages.to_string(),
            o.archive.lost_records.to_string(),
            "true".to_string(),
        ]);
        if let Some(a) = &first {
            assert_eq!(a.results, o.results, "answers diverged across runs");
            assert_eq!(a.egress, o.egress, "egress accounting diverged");
            assert_eq!(
                normalised(a.log.clone()),
                normalised(o.log.clone()),
                "fired-fault logs diverged across same-seed runs"
            );
        } else {
            first = Some(o);
        }
    }
    table.print();
    println!(
        "\n  shape check: the full stack quiesces under the schedule; every offer\n\
         \x20 is delivered, shed, or charged to the disconnected client{}.\n",
        if determinism {
            ", and the\n\x20 same seed replays the identical catastrophe"
        } else {
            ""
        }
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    experiment_loss_accounting();
    experiment_determinism();
    if smoke {
        experiment_server_chaos(1_200, false);
    } else {
        experiment_server_chaos(3_000, true);
    }
}
