//! The `TelegraphCQ` server facade.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcq_common::sync::Mutex;

use tcq_common::{
    Catalog, CkptReader, CkptWriter, FaultPlan, FiredFault, Predicate, Result, SchemaRef,
    SharedInjector, SourceKind, TcqError, Tuple,
};
use tcq_eddy::{Eddy, EddyConfig, LotteryPolicy, ModuleSpec};
use tcq_egress::{
    ClientId, ColumnDelivery, Delivery, DeliveryQueue, EgressPolicy, EgressRouter, EgressStats,
    PushQueue,
};
use tcq_executor::{DuId, Executor, ExecutorConfig, StallDiagnosis, WatchdogConfig};
use tcq_fjords::{Inbox, Producer, ProgressRegistry, ProgressSnapshot};
use tcq_ingress::{
    ChaosSource, Source, SourceFactory, Supervisor, SupervisorConfig, SupervisorStats,
};
use tcq_operators::{SelectOp, StemOp};
use tcq_query::{analyze, parse, AnalyzedQuery};
use tcq_stems::IndexKind;
use tcq_storage::{BufferPool, CheckpointStore, StreamArchive};
use tcq_windows::{LoopLength, WindowAssignment, WindowSeq};

use crate::dispatcher::{Settled, StreamDispatcher, SubscriberSet};
use crate::durability::QueryStateHandle;
use crate::exchange::{self, ExchangeInput, MergeDu, PartitionDu, WorkerDu};
use crate::planner::{
    self, plan_kind, resolve_aggregates, source_predicate, stripped_predicate, PlanKind,
};
use crate::plans::{
    AggCore, AggPanes, JoinCore, JoinCqDu, JoinGroup, JoinInput, JoinMemberSpec, LazyProject,
    QueryId, StreamPlans,
};

/// Pages in the buffer pool every stream archive shares.
const POOL_PAGES: usize = 256;
/// Archive page size in bytes.
const PAGE_SIZE: usize = 8192;
/// Work a DU may do per scheduling quantum.
const QUANTUM: usize = 128;

/// Server configuration.
///
/// Overload has one rule and no knob: back-pressure. A full queue holds
/// back whoever feeds it — a subscriber queue its stream's dispatcher, an
/// ingress fjord its source — and only a queue someone still reads exerts
/// it. The engine sheds only at a client's bounded delivery buffer
/// ([`ServerConfig::egress_policy`]), and where a fault plan injects an
/// overflow.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Execution Objects (threads).
    pub eos: usize,
    /// Capacity of every Fjord queue.
    pub queue_capacity: usize,
    /// Directory for stream archives; `None` disables history (historical
    /// queries will error).
    pub archive_dir: Option<PathBuf>,
    /// Eddy batching knob (§4.3 "adapting adaptivity").
    pub eddy_batch: usize,
    /// Messages moved per Fjord lock acquisition: the refill size of every
    /// DU's [`Inbox`] (default 64), and so the batch each DU hands its
    /// operator and egress at once. `1` moves one message per lock;
    /// faults, stamping, archiving and the egress ledger stay per-message
    /// at any setting, so same-seed chaos runs are byte-identical across
    /// values.
    pub io_batch: usize,
    /// RNG seed.
    pub seed: u64,
    /// Seeded chaos schedule threaded through the whole server — the
    /// executor, every source thread, each stream's dispatcher
    /// and archive, and the egress router. `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Slow-client policy for the egress router (default: never
    /// disconnect, pure legacy behaviour).
    pub egress_policy: EgressPolicy,
    /// Partition-parallel degree for dedicated join queries. At `1`
    /// (default) every query runs as a single sequential DU chain. At
    /// `P > 1`, eligible joins are split into a hash-partitioned
    /// exchange — `PartitionDu` → P cloned eddies → `MergeDu` — whose
    /// delivered results and egress ledger are byte-identical to `P=1`
    /// for the same seed (see `crate::exchange`).
    pub partitions: usize,
    /// Durable checkpoint store path; `None` disables checkpointing
    /// ([`TelegraphCQ::checkpoint`] errors, [`TelegraphCQ::restore`]
    /// refuses to boot). Checkpoints are incremental: each
    /// [`TelegraphCQ::checkpoint`] call commits one epoch-delta block
    /// holding only the state dirtied since the previous call.
    pub checkpoint_path: Option<PathBuf>,
    /// The liveness watchdog. `Some` arms the executor's deterministic
    /// stall detector (see [`tcq_executor::WatchdogConfig`]), which reads
    /// the progress registry every server keeps
    /// ([`TelegraphCQ::progress_snapshot`]); `None` (default) runs none.
    /// The detector only *observes* until it declares a stall — a healthy
    /// run behaves byte-identically either way.
    pub liveness: Option<LivenessConfig>,
    /// Which transport fronts the server. The core (dispatchers, eddies,
    /// egress ledger) never looks at this: `TelegraphCQ` itself always
    /// exposes the in-process API, and the `tcq_net` crate reads this
    /// field to decide whether to additionally bind a TCP listener. Kept
    /// here so one `ServerConfig` describes the whole deployment and the
    /// chaos A/B contract ("the core replays byte-identically whichever
    /// transport fronts it") has a single switch to flip.
    pub transport: TransportConfig,
}

/// Transport selection for [`ServerConfig::transport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportConfig {
    /// In-process only (the default): clients connect through
    /// [`TelegraphCQ::connect_push_client`] and friends. This is the
    /// deterministic test harness — no sockets, no kernel scheduling in
    /// the replay path.
    InProcess,
    /// In-process *plus* a real TCP listener (served by `tcq_net`):
    /// remote clients speak the length-prefixed checksummed wire
    /// protocol; each connection gets its own bounded egress queue.
    Tcp(TcpTransportConfig),
}

/// TCP listener tuning for [`TransportConfig::Tcp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpTransportConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 picks a free port;
    /// read the bound address back from the transport handle).
    pub addr: String,
    /// The most result rows one connection may have queued (its
    /// per-client delivery queue: a slow socket fills only its own queue
    /// and then sheds, never stalling the router or other clients). A
    /// bound, not an allocation: the queue holds memory only for the rows
    /// in it ([`TelegraphCQ::connect_queue_client`]).
    pub client_queue: usize,
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        TcpTransportConfig {
            addr: "127.0.0.1:0".to_string(),
            client_queue: 1024,
        }
    }
}

/// Liveness watchdog tuning ([`ServerConfig::liveness`]). Thresholds are
/// detector-EO scheduling rounds ("engine ticks"), not wall clock, so
/// same-seed chaos replays detect at the same dataflow state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessConfig {
    /// Frozen-frontier rounds (with work in flight) before a stall is
    /// declared, diagnosed, and every DU is nudged.
    pub stall_ticks: u64,
    /// Further frozen rounds after the nudge before escalating to the
    /// ordered-outbox drain failover.
    pub escalate_ticks: u64,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        let wd = WatchdogConfig::default();
        LivenessConfig {
            stall_ticks: wd.stall_ticks,
            escalate_ticks: wd.escalate_ticks,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            eos: 2,
            queue_capacity: 1024,
            archive_dir: None,
            eddy_batch: 1,
            io_batch: 64,
            seed: 0x7E1E_C001,
            fault_plan: None,
            egress_policy: EgressPolicy::default(),
            partitions: 1,
            checkpoint_path: None,
            liveness: None,
            transport: TransportConfig::InProcess,
        }
    }
}

pub(crate) struct StreamState {
    def: tcq_common::StreamDef,
    pub(crate) ingress: Producer,
    pub(crate) subscribers: SubscriberSet,
    pub(crate) latest_seq: Arc<AtomicI64>,
    archive: Option<Arc<Mutex<StreamArchive>>>,
    plans: StreamPlans,
    class: u64,
    /// Copies the dispatcher dropped on an injected enqueue overflow.
    shed: Arc<AtomicI64>,
    /// Archive appends that failed (history degraded, loss counted).
    archive_errors: Arc<AtomicI64>,
    /// Ingress messages the dispatcher has finished with.
    pub(crate) settled: Settled,
}

/// What `stop_query` undoes, two words per standing query.
pub(crate) enum QueryRecord {
    /// A filter or aggregate in its stream's plan set, reached through the
    /// set's handle (no per-query copy of the stream name).
    Stream(StreamPlans),
    /// One of the queries a join DU serves.
    Join(Arc<JoinEntry>),
    Dedicated(Box<DedicatedQuery>),
    Completed,
}

impl QueryRecord {
    /// The label of the join group the query is a member of.
    fn group_label(&self) -> Option<&str> {
        match self {
            QueryRecord::Join(entry) if entry.key.is_some() => Some(&entry.label),
            _ => None,
        }
    }
}

/// A query running on DUs of its own.
pub(crate) struct DedicatedQuery {
    dus: Vec<DuId>,
    subscriptions: Vec<(String, u64)>,
}

/// Everything that shapes a shared join's stored state and lifetime: the
/// join queries with one key share one join DU.
#[derive(Debug, Clone, PartialEq, Eq)]
struct JoinGroupKey {
    /// Stream names in name order, so `A ⋈ B` and `B ⋈ A` share.
    streams: [String; 2],
    /// Join-key column per side.
    keys: [usize; 2],
    /// Window width per side.
    widths: [Option<i64>; 2],
    /// The loop's deadline (`i64::MAX` for a loop that never ends).
    deadline: i64,
    /// The loop's floor. Only a floor still ahead of the streams' clocks
    /// skips anything, so two floors both behind `clock` are alike.
    floor: i64,
}

impl JoinGroupKey {
    /// Can a query keyed `self` join a group keyed `group` while the
    /// slower of the two streams stands at `clock`?
    fn admits_into(&self, group: &JoinGroupKey, clock: i64) -> bool {
        let floors = self.floor == group.floor || (self.floor <= clock && group.floor <= clock);
        floors
            && self.streams == group.streams
            && (self.keys, self.widths, self.deadline) == (group.keys, group.widths, group.deadline)
    }

    /// The checkpoint component prefix of the group `first` starts: the
    /// key without its loop bounds (a restore that re-anchors `ST`
    /// recomputes those differently), then the query. Query ids are never
    /// reused, so two groups never share a label; the catalog records it
    /// with each member, and a restore rejoins the members under it.
    fn label(&self, first: QueryId) -> String {
        let width = |w: Option<i64>| w.map_or_else(|| "-".to_string(), |w| w.to_string());
        format!(
            "join:{}.{}:{}.{}:{}:{}@q{first}",
            self.streams[0],
            self.keys[0],
            self.streams[1],
            self.keys[1],
            width(self.widths[0]),
            width(self.widths[1]),
        )
    }
}

/// A join DU and what it holds open, torn down with its last query.
pub(crate) struct JoinEntry {
    /// Its key among the join groups; `None` for a join one query owns.
    key: Option<JoinGroupKey>,
    /// Checkpoint component prefix: `q<qid>` for a join one query owns,
    /// [`JoinGroupKey::label`] for a group.
    label: String,
    core: Arc<Mutex<JoinCore>>,
    du: DuId,
    subscriptions: Vec<(String, u64)>,
}

/// Memory accounting for one shared standing-query structure
/// ([`TelegraphCQ::shared_memory_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedMemoryStat {
    /// `filter:<stream>` or `join:<left>:<right>`.
    pub label: String,
    /// Standing queries registered in the structure.
    pub queries: usize,
    /// Approximate heap footprint of its index state in bytes.
    pub approx_bytes: usize,
}

/// The running TelegraphCQ instance (paper Figure 5, one process).
pub struct TelegraphCQ {
    config: ServerConfig,
    pub(crate) catalog: Catalog,
    executor: Executor,
    pub(crate) egress: EgressRouter,
    pool: BufferPool,
    pub(crate) streams: Mutex<HashMap<String, Arc<StreamState>>>,
    join_groups: Mutex<Vec<Arc<JoinEntry>>>,
    pub(crate) queries: Mutex<HashMap<QueryId, QueryRecord>>,
    /// Every stream's source thread, with whether it resumes from a
    /// checkpointed cursor (`attach_supervised_source`) or cannot skip
    /// rows (`attach_source`).
    pub(crate) supervisors: Mutex<Vec<(Supervisor, bool)>>,
    /// One injector for the whole process, shared by every layer, so the
    /// fired-fault log is a single seed-deterministic account of the run.
    injector: Option<SharedInjector>,
    /// The registry every fjord of the server is made through; the
    /// watchdog and [`TelegraphCQ::progress_snapshot`] read their counts.
    progress: ProgressRegistry,
    /// The durable checkpoint store (`ServerConfig::checkpoint_path`).
    pub(crate) ckpt: Option<Mutex<CheckpointStore>>,
    /// Operator state handles by checkpoint component prefix (`q<qid>`, or
    /// a join group's key), registered as their DUs start so checkpoint
    /// fragment emission is deterministic.
    pub(crate) ckpt_handles: Mutex<Vec<(String, QueryStateHandle)>>,
    pub(crate) next_query: AtomicUsize,
    next_client: AtomicU64,
}

impl TelegraphCQ {
    /// Boot the server fresh. With `ServerConfig::checkpoint_path` set, the
    /// store there starts empty: whatever an earlier run checkpointed to
    /// that path is discarded, so a later [`TelegraphCQ::restore`] resumes
    /// this run and no other. Use [`TelegraphCQ::restore`] to resume a
    /// crashed incarnation instead.
    pub fn start(config: ServerConfig) -> Result<Self> {
        Self::boot(config, CheckpointStore::create_with_injector)
    }

    /// Boot the server *from its checkpoint*, in one call: reopen the store
    /// at `ServerConfig::checkpoint_path`, replay the longest valid prefix
    /// of epoch blocks, and rebuild the topology the image holds. The
    /// egress ledger is seeded; every stream and table is registered again
    /// in registration order, its clock restored; and every query running
    /// at the cut is started under its own id, in id order, with its SteM
    /// groups, window partials and join-group admission cut. Query ids
    /// issued afterwards are above every id in the image.
    ///
    /// Only code and sessions stay with the caller: re-attach each source
    /// ([`TelegraphCQ::attach_supervised_source`] resumes from the
    /// checkpointed cursor), push rows and call
    /// [`TelegraphCQ::finish_stream`] where needed (the image records no
    /// end-of-stream), and re-subscribe clients by the query ids they
    /// already hold ([`TelegraphCQ::subscribe_client`]). Operator state
    /// resumes exactly at the cut (see [`TelegraphCQ::checkpoint`]), but
    /// results the lost incarnation sent after it are sent again: delivery
    /// past the checkpoint watermark is at-least-once, and clients dedup
    /// replayed results by sequence.
    pub fn restore(config: ServerConfig) -> Result<Self> {
        if config.checkpoint_path.is_none() {
            return Err(TcqError::Storage(
                "restore requires ServerConfig::checkpoint_path".into(),
            ));
        }
        let server = Self::boot(config, CheckpointStore::open_with_injector)?;
        server.rebuild_from_image()?;
        Ok(server)
    }

    /// Boot with the checkpoint store `open_store` opens (it starts empty
    /// for [`TelegraphCQ::start`] and replays its file for
    /// [`TelegraphCQ::restore`]).
    fn boot(
        config: ServerConfig,
        open_store: fn(PathBuf, Option<SharedInjector>) -> Result<CheckpointStore>,
    ) -> Result<Self> {
        let injector = config.fault_plan.clone().map(FaultPlan::build_shared);
        let progress = ProgressRegistry::new();
        let watchdog = config.liveness.map(|lv| WatchdogConfig {
            registry: progress.clone(),
            stall_ticks: lv.stall_ticks,
            escalate_ticks: lv.escalate_ticks,
        });
        let executor = Executor::start(ExecutorConfig {
            eos: config.eos,
            quantum: QUANTUM,
            idle_park: Duration::from_micros(200),
            injector: injector.clone(),
            watchdog,
        })?;
        if let Some(dir) = &config.archive_dir {
            std::fs::create_dir_all(dir)?;
        }
        let pool = BufferPool::new(POOL_PAGES, PAGE_SIZE);
        let egress = EgressRouter::new().with_policy(config.egress_policy);
        if let Some(inj) = &injector {
            egress.attach_injector(inj.clone());
        }
        let ckpt = match &config.checkpoint_path {
            Some(path) => {
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir)?;
                    }
                }
                Some(Mutex::new(open_store(path.clone(), injector.clone())?))
            }
            None => None,
        };
        Ok(TelegraphCQ {
            config,
            catalog: Catalog::new(),
            executor,
            egress,
            pool,
            streams: Mutex::new(HashMap::new()),
            join_groups: Mutex::new(Vec::new()),
            queries: Mutex::new(HashMap::new()),
            supervisors: Mutex::new(Vec::new()),
            injector,
            progress,
            ckpt,
            ckpt_handles: Mutex::new(Vec::new()),
            next_query: AtomicUsize::new(1),
            next_client: AtomicU64::new(1),
        })
    }

    /// The catalog (for inspection).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register a stream: catalog entry, ingress queue, and the dispatcher
    /// DU that runs the stream's filter and aggregate queries. `schema` is
    /// the base schema; columns will be addressed both bare and qualified
    /// by the stream name. With a checkpoint store open the stream enters
    /// the checkpoint's catalog, so [`TelegraphCQ::restore`] registers it
    /// again; registering a stream the restore already registered fails
    /// with [`TcqError::DuplicateStream`].
    pub fn register_stream(&self, name: &str, schema: SchemaRef) -> Result<()> {
        self.register_source(name, schema, SourceKind::PushStream)
    }

    /// Register a (slowly changing) table: same plumbing as a stream, but
    /// queries may join against it without a WindowIs clause — "an input
    /// without a corresponding WindowIs statement is assumed to be a static
    /// table by default" (§4.1.1). Rows are appended with [`TelegraphCQ::push`].
    pub fn register_table(&self, name: &str, schema: SchemaRef) -> Result<()> {
        self.register_source(name, schema, SourceKind::Table)
    }

    pub(crate) fn register_source(
        &self,
        name: &str,
        schema: SchemaRef,
        kind: SourceKind,
    ) -> Result<()> {
        let def = self.catalog.register(name, schema.clone(), kind)?;
        let qualified = schema.with_qualifier(name).into_ref();
        let (ingress_p, ingress_c) =
            self.make_fjord(format!("ingress({name})"), self.config.queue_capacity);
        let subscribers = SubscriberSet::new();
        let latest_seq = Arc::new(AtomicI64::new(0));
        // A restored stream's clock is set before the dispatcher is built:
        // window start times (`ST`), arrival stamping, and historical
        // splits all anchor on it.
        if let Some(bytes) = self.checkpoint_fragment("seq", name.to_ascii_lowercase().as_bytes()) {
            let seq = CkptReader::new(&bytes).get_i64("stream clock")?;
            latest_seq.store(seq, Ordering::Release);
        }
        let archive = match &self.config.archive_dir {
            Some(dir) => {
                let path = dir.join(format!("{}.seg", name.to_ascii_lowercase()));
                // `open` (not `create`): a segment left behind by a crash
                // is recovered — torn tail truncated, corrupt pages
                // skipped — and appends resume where the valid prefix
                // ends, instead of silently wiping history.
                let mut archive = StreamArchive::open(path, qualified.clone(), self.pool.clone())?;
                if let Some(inj) = &self.injector {
                    archive.attach_injector(inj.clone());
                }
                Some(Arc::new(Mutex::new(archive)))
            }
            None => None,
        };
        let class = 1u64 << (def.id % 64);
        let plans = StreamPlans::new(qualified, self.egress.clone());
        let mut dispatcher = StreamDispatcher::new(
            format!("dispatch({name})"),
            ingress_c,
            plans.clone(),
            subscribers.clone(),
            archive.clone(),
            Arc::clone(&latest_seq),
        );
        if let Some(inj) = &self.injector {
            dispatcher = dispatcher.with_injector(inj.clone());
        }
        let shed = dispatcher.shed_counter();
        let archive_errors = dispatcher.archive_error_counter();
        let settled = dispatcher.settled();
        self.executor.submit(class, Box::new(dispatcher))?;
        self.stage_stream(&def);

        let state = StreamState {
            def,
            ingress: ingress_p,
            subscribers,
            latest_seq,
            archive,
            plans,
            class,
            shed,
            archive_errors,
            settled,
        };
        self.streams
            .lock()
            .insert(name.to_ascii_lowercase(), Arc::new(state));
        Ok(())
    }

    /// A fjord made through the server's progress registry, read through
    /// an [`Inbox`] of `io_batch` refills — the single choke point every
    /// engine channel is created through, so the registry's frontier
    /// covers them all and every DU reads its inputs the same way. The
    /// registry forgets the fjord when its last endpoint is dropped.
    fn make_fjord(&self, name: impl Into<String>, capacity: usize) -> (Producer, Inbox) {
        let (producer, consumer) = self.progress.fjord(name, capacity);
        (producer, Inbox::new(consumer, self.config.io_batch))
    }

    pub(crate) fn stream(&self, name: &str) -> Result<Arc<StreamState>> {
        self.streams
            .lock()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| TcqError::UnknownStream(name.to_string()))
    }

    /// Attach a wrapper: spawn the stream's source thread (a
    /// [`Supervisor`]) draining `source` into the stream's ingress queue.
    /// The source cannot be rebuilt, so the restart budget is zero: a
    /// panic or read error is caught, counted in
    /// [`TelegraphCQ::supervisor_stats`], and ends the stream with EOF;
    /// rows of the wrong arity are filtered and counted. There is no
    /// resume cursor — a restored server reads the source from its start.
    /// Under a fault plan the source is wrapped in a [`ChaosSource`] (read
    /// faults).
    pub fn attach_source(&self, stream: &str, source: Box<dyn Source>) -> Result<()> {
        let mut source = Some(source);
        let once: SourceFactory = Box::new(move |_, _| {
            source
                .take()
                .ok_or_else(|| TcqError::Ingress("source cannot be rebuilt".into()))
        });
        let config = SupervisorConfig {
            max_restarts: 0,
            ..SupervisorConfig::default()
        };
        self.spawn_source(stream, once, config, false)
    }

    /// Attach a supervised wrapper: like [`TelegraphCQ::attach_source`],
    /// but the source is rebuilt by `factory` after panics and errors —
    /// the ingress survives a flaky wrapper instead of dying with it. On a
    /// restored server the factory's first build resumes from the
    /// checkpointed cursor.
    pub fn attach_supervised_source(&self, stream: &str, factory: SourceFactory) -> Result<()> {
        let mut config = SupervisorConfig::default();
        // Seed the resume cursor from the checkpointed watermark: the
        // factory's first build sees the pre-crash delivered count and
        // skips what the lost incarnation already consumed.
        let key = stream.to_ascii_lowercase();
        if let Some(bytes) = self.checkpoint_fragment("cursor", key.as_bytes()) {
            config.initial_delivered = CkptReader::new(&bytes).get_u64("resume cursor")?;
        }
        self.spawn_source(stream, factory, config, true)
    }

    /// Spawn `stream`'s source thread. Under a fault plan each built
    /// source is chaos-wrapped.
    fn spawn_source(
        &self,
        stream: &str,
        mut factory: SourceFactory,
        config: SupervisorConfig,
        resumable: bool,
    ) -> Result<()> {
        let st = self.stream(stream)?;
        let injector = self.injector.clone();
        let wrapped: SourceFactory = Box::new(move |attempt, delivered| {
            let inner = factory(attempt, delivered)?;
            Ok(match &injector {
                Some(inj) => Box::new(ChaosSource::new(inner, inj.clone())) as Box<dyn Source>,
                None => inner,
            })
        });
        let supervisor = Supervisor::spawn(stream, wrapped, st.ingress.clone(), config);
        self.supervisors.lock().push((supervisor, resumable));
        Ok(())
    }

    /// Per-source supervision counters, keyed by stream name, for every
    /// source attached with [`TelegraphCQ::attach_source`] or
    /// [`TelegraphCQ::attach_supervised_source`], in attach order.
    pub fn supervisor_stats(&self) -> Vec<(String, SupervisorStats)> {
        self.supervisors
            .lock()
            .iter()
            .map(|(s, _)| (s.name().to_string(), s.stats()))
            .collect()
    }

    /// Inject one tuple directly (tests, examples). Blocks under
    /// back-pressure.
    pub fn push(&self, stream: &str, tuple: Tuple) -> Result<()> {
        self.stream(stream)?.ingress.send_tuple(tuple)
    }

    /// Inject a punctuation into `stream` (\[TMSS03\]): an assertion that
    /// no later tuple will carry a timestamp ≤ `ts`. Remote clients reach
    /// this through the wire protocol's `Punct` frame.
    pub fn punctuate(&self, stream: &str, ts: tcq_common::Timestamp) -> Result<()> {
        self.stream(stream)?.ingress.send_punct(ts)
    }

    /// Inject a batch of tuples under one ingress-lock acquisition per
    /// chunk admitted (benchmarks, bulk loads). Blocks under back-pressure
    /// until every tuple is enqueued; order is preserved.
    pub fn push_batch(&self, stream: &str, tuples: Vec<Tuple>) -> Result<()> {
        let st = self.stream(stream)?;
        let mut msgs: Vec<_> = tuples
            .into_iter()
            .map(tcq_fjords::FjordMessage::Tuple)
            .collect();
        st.ingress.enqueue_batch_blocking(&mut msgs)?;
        Ok(())
    }

    /// Signal end-of-stream (finite runs).
    pub fn finish_stream(&self, stream: &str) -> Result<()> {
        self.stream(stream)?.ingress.send_eof()
    }

    /// Latest logical time seen on a stream.
    pub fn stream_time(&self, stream: &str) -> Result<i64> {
        Ok(self.stream(stream)?.latest_seq.load(Ordering::Acquire))
    }

    /// Copies a stream's dispatcher dropped on an injected enqueue
    /// overflow, one per subscriber queue plus one for the stream's own
    /// plans. Always 0 without a fault plan: the dispatcher back-pressures
    /// and never sheds.
    pub fn shed_count(&self, stream: &str) -> Result<i64> {
        Ok(self.stream(stream)?.shed.load(Ordering::Relaxed))
    }

    /// Archive appends that failed on a stream (history degraded; the
    /// live path kept flowing and the loss was counted).
    pub fn archive_error_count(&self, stream: &str) -> Result<i64> {
        Ok(self.stream(stream)?.archive_errors.load(Ordering::Relaxed))
    }

    /// Query errors among a stream's filter and aggregate queries: a row a
    /// filter query missed because its predicate or projection could not
    /// be evaluated on it (an integer division by zero, say) counts one,
    /// and so does an aggregate retired because it could not evaluate a
    /// row. Each error stays with its query: the stream and every other
    /// query on it flow on.
    pub fn query_error_count(&self, stream: &str) -> Result<u64> {
        Ok(self.stream(stream)?.plans.error_count())
    }

    /// Approximate heap footprint of every shared standing-query structure:
    /// one entry per stream (its filter queries' shared index, probe
    /// scratch and projections) and one per join group (its completion
    /// index, member table and projections — not the SteM rows its members
    /// share). Sorted by label so output is deterministic.
    pub fn shared_memory_stats(&self) -> Vec<SharedMemoryStat> {
        let mut out = Vec::new();
        for (name, st) in self.streams.lock().iter() {
            out.push(SharedMemoryStat {
                label: format!("filter:{name}"),
                queries: st.plans.filter_count(),
                approx_bytes: st.plans.filter_bytes(),
            });
        }
        for entry in self.join_groups.lock().iter() {
            let streams = &entry.key.as_ref().expect("a group has a key").streams;
            let core = entry.core.lock();
            out.push(SharedMemoryStat {
                label: format!("join:{}:{}", streams[0], streams[1]),
                queries: core.member_count(),
                approx_bytes: core.member_bytes(),
            });
        }
        out.sort_by(|a, b| a.label.cmp(&b.label));
        out
    }

    /// A stream archive's counters (`None` when archiving is disabled).
    pub fn archive_stats(&self, stream: &str) -> Result<Option<tcq_storage::ArchiveStats>> {
        Ok(self
            .stream(stream)?
            .archive
            .as_ref()
            .map(|a| a.lock().stats()))
    }

    /// The process-wide chaos injector, when a fault plan is configured.
    pub fn injector(&self) -> Option<&SharedInjector> {
        self.injector.as_ref()
    }

    /// Faults fired so far, in firing order (empty without a fault plan).
    pub fn fired_faults(&self) -> Vec<FiredFault> {
        self.injector.as_ref().map(|i| i.log()).unwrap_or_default()
    }

    /// Connect a push client; results stream into the returned receiver,
    /// a `sync_channel` of `capacity` slots allocated up front.
    ///
    /// Connecting touches `capacity × (8 + size_of::<Delivery>())` bytes
    /// at once (an 8-byte stamp and a 64-byte `Delivery` per slot: 2.25 MiB
    /// for 32 768 slots), whether or not a row ever arrives.
    /// [`TelegraphCQ::connect_queue_client`] is the same client at the cost
    /// of the rows it holds.
    pub fn connect_push_client(&self, capacity: usize) -> Result<(ClientId, Receiver<Delivery>)> {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let rx = self.egress.register_push_client(id, capacity)?;
        Ok((id, rx))
    }

    /// Connect a push client whose [`DeliveryQueue`] holds at most
    /// `capacity` results and allocates only for the rows it holds — what
    /// a transport gives each connection.
    pub fn connect_queue_client(&self, capacity: usize) -> Result<(ClientId, DeliveryQueue)> {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let queue = self.egress.register_queue_client(id, capacity)?;
        Ok((id, queue))
    }

    /// Connect a column client; results stream into the returned receiver
    /// as whole [`tcq_common::ColumnBatch`] runs instead of per-row
    /// messages. Columnar join runs reach it with zero per-row
    /// allocations; rows produced on the row path are still delivered (as
    /// single-row batches), so subscriptions behave like push clients
    /// either way.
    pub fn connect_column_client(
        &self,
        capacity: usize,
    ) -> Result<(ClientId, Receiver<ColumnDelivery>)> {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let rx = self.egress.register_column_client(id, capacity)?;
        Ok((id, rx))
    }

    /// Connect a pull client with a result buffer.
    pub fn connect_pull_client(&self, capacity: usize) -> Result<ClientId> {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        self.egress.register_pull_client(id, capacity)?;
        Ok(id)
    }

    /// Connect a pull client with Juggle-style prioritized retrieval
    /// (\[RRH99\], §4.3): `fetch` returns the highest-`priority` buffered
    /// results first, and overflow sheds the least interesting.
    pub fn connect_prioritized_client(
        &self,
        capacity: usize,
        priority: Box<dyn Fn(&Tuple) -> f64 + Send>,
    ) -> Result<ClientId> {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        self.egress
            .register_prioritized_client(id, capacity, priority)?;
        Ok(id)
    }

    /// Pull client: fetch buffered results.
    pub fn fetch(&self, client: ClientId, max: usize) -> Result<Vec<Delivery>> {
        self.egress.fetch(client, max)
    }

    /// Subscribe an already-connected client to an already-running query
    /// (the transport layer's `Subscribe` control frame: one TCP
    /// connection fans into many standing queries through its single
    /// egress queue). A query the server is not running — never issued,
    /// or stopped — is refused, so a client cannot plant subscriptions
    /// that nothing would ever remove.
    pub fn subscribe_client(&self, client: ClientId, query: QueryId) -> Result<()> {
        // Held across the subscribe: a concurrent `stop_query` either ran
        // first and is seen here, or forgets this subscription after.
        let queries = self.queries.lock();
        if !queries.contains_key(&query) {
            return Err(TcqError::Executor(format!("unknown query {query}")));
        }
        self.egress.subscribe(client, query)
    }

    /// Queries the egress router holds a subscription for. A stopped query
    /// keeps none, so this equals [`TelegraphCQ::query_count`] while every
    /// submitter stays connected.
    pub fn subscribed_query_count(&self) -> usize {
        self.egress.subscribed_queries()
    }

    /// Disconnect a push client whose transport is closing, handing back
    /// its delivery queue and the rows the transport took off it but never
    /// sent. Rows still undelivered are reclassified from `delivered` to
    /// `disconnected_loss` in the same router lock hold that drops the
    /// client (see [`tcq_egress::EgressRouter::disconnect_push_client`]);
    /// returns how many.
    pub fn disconnect_push_client(
        &self,
        client: ClientId,
        queue: impl PushQueue,
        unsent: u64,
    ) -> u64 {
        self.egress.disconnect_push_client(client, queue, unsent)
    }

    /// Parse, analyze, plan, and start a continuous query on behalf of
    /// `client`. Returns the query id. With a checkpoint store open a
    /// standing query enters the checkpoint's catalog, so
    /// [`TelegraphCQ::restore`] starts it again under this id.
    pub fn submit(&self, sql: &str, client: ClientId) -> Result<QueryId> {
        let stmt = parse(sql)?;
        let aq = analyze(&stmt, &self.catalog)?;
        let kind = plan_kind(&aq)?;
        let qid = self.next_query.fetch_add(1, Ordering::Relaxed);
        self.egress.subscribe(client, qid)?;
        match self.start_plan(qid, &aq, kind, None) {
            Ok(record) => {
                if !matches!(record, QueryRecord::Completed) {
                    self.stage_query(qid, Some((sql, record.group_label())));
                }
                self.queries.lock().insert(qid, record);
                Ok(qid)
            }
            Err(e) => {
                self.egress.forget_query(qid);
                Err(e)
            }
        }
    }

    /// Start query `qid`'s plan. A join that a restore starts again rejoins
    /// the group labelled `group`.
    pub(crate) fn start_plan(
        &self,
        qid: QueryId,
        aq: &AnalyzedQuery,
        kind: PlanKind,
        group: Option<&str>,
    ) -> Result<QueryRecord> {
        match kind {
            PlanKind::SharedFilter => self.start_shared_filter(qid, aq),
            PlanKind::Aggregate => self.start_aggregate(qid, aq),
            PlanKind::Join => self.start_join(qid, aq, group),
            PlanKind::Historical => self.run_historical(qid, aq),
        }
    }

    fn start_shared_filter(&self, qid: QueryId, aq: &AnalyzedQuery) -> Result<QueryRecord> {
        let source = &aq.sources[0];
        let st = self.stream(&source.name)?;
        let pred = stripped_predicate(aq);
        let projection: Vec<(tcq_common::Expr, Option<String>)> = aq
            .projection
            .iter()
            .map(|(e, a)| (planner::strip_qualifiers(e), a.clone()))
            .collect();

        // Windowed filter queries: the earliest window left edge bounds
        // which live tuples qualify, and the part of the window sequence
        // that lies in the past is answered from the archive (PSoup's
        // "new queries applied to old data", §3.2). Logical time is
        // monotonic per stream, so splitting at `now` is exact.
        let mut min_seq = i64::MIN;
        let mut replay_until = i64::MIN;
        if let Some(w) = &aq.window {
            let now = st.latest_seq.load(Ordering::Acquire);
            if let Some(Ok(wa)) = WindowSeq::new(w.clone(), now.max(1)).next() {
                if let Some(win) = wa.window_for(&source.alias) {
                    min_seq = win.left;
                    if st.archive.is_some() && min_seq <= now {
                        replay_until = now;
                    }
                }
            }
        }
        let live_floor = if replay_until > i64::MIN {
            replay_until + 1
        } else {
            min_seq
        };
        st.plans
            .add_filter(qid, pred.as_ref(), &projection, live_floor)?;

        if replay_until > i64::MIN {
            let archive = st.archive.as_ref().expect("checked above");
            let base = st.def.schema.with_qualifier(&source.name).into_ref();
            let bound = match &pred {
                Some(p) => Some(Predicate::new(p, &base)?),
                None => None,
            };
            let project = tcq_operators::ProjectOp::new(&projection, &base)?;
            let mut scratch = Vec::new();
            archive
                .lock()
                .scan_window(min_seq, replay_until, &mut scratch)?;
            let mut out = Vec::new();
            for t in &scratch {
                let passes = match &bound {
                    Some(p) => p.eval_pred(t)?,
                    None => true,
                };
                if passes {
                    out.push(project.apply(t)?);
                }
            }
            self.egress.deliver_batch([qid], &out);
        }
        Ok(QueryRecord::Stream(st.plans.clone()))
    }

    fn start_aggregate(&self, qid: QueryId, aq: &AnalyzedQuery) -> Result<QueryRecord> {
        let source = &aq.sources[0];
        let st = self.stream(&source.name)?;
        let window = aq.window.clone().ok_or_else(|| {
            TcqError::Analysis("aggregates over a stream require a window clause (for-loop)".into())
        })?;
        let base = st.def.schema.with_qualifier(&source.name).into_ref();
        let pred = match stripped_predicate(aq) {
            Some(p) => Some(Predicate::new(&p, &base)?),
            None => None,
        };
        let aggs = resolve_aggregates(aq)?;
        let group_by = aq.group_by.map(|(_, col)| col);
        let stt = st.latest_seq.load(Ordering::Acquire);
        let windows = WindowSeq::new(window, stt.max(1));
        let core = AggCore::new(&base, pred, &aggs, group_by, windows, source.alias.clone());
        let state = Arc::new(Mutex::new(core));
        if let Some(bytes) = self.checkpoint_fragment(&format!("q{qid}/agg"), b"") {
            state.lock().import(&bytes)?;
        }
        if self.ckpt.is_some() {
            self.ckpt_handles.lock().push((
                format!("q{qid}"),
                QueryStateHandle::Aggregate(state.clone()),
            ));
        }
        st.plans.add_aggregate(qid, state);
        Ok(QueryRecord::Stream(st.plans.clone()))
    }

    fn start_join(
        &self,
        qid: QueryId,
        aq: &AnalyzedQuery,
        group: Option<&str>,
    ) -> Result<QueryRecord> {
        let partitions = self.config.partitions.max(1);
        if planner::shareable_join(aq, partitions) {
            return self.join_group(qid, aq, group);
        }
        if partitions > 1 && exchange::partitionable(aq) {
            return self.start_partitioned_join(qid, aq, partitions);
        }
        // A join no other query can share: its own eddy, with every
        // predicate it has inside.
        let (eddy, _key_cols) = self.build_join_eddy(aq, true)?;

        // Inputs: one subscription per physical stream; aliases grouped.
        let mut by_stream: HashMap<String, Vec<SchemaRef>> = HashMap::new();
        for source in &aq.sources {
            by_stream
                .entry(source.name.to_ascii_lowercase())
                .or_default()
                .push(source.schema.clone());
        }
        let mut inputs = Vec::new();
        let mut subscriptions = Vec::new();
        let mut class = 0u64;
        for (stream_name, alias_schemas) in by_stream {
            let st = self.stream(&stream_name)?;
            class |= st.class;
            let (p, c) = self.make_fjord(
                format!("join(q{qid}.{stream_name})"),
                self.config.queue_capacity,
            );
            let sub_id = st.subscribers.add(p);
            subscriptions.push((stream_name.clone(), sub_id));
            inputs.push(JoinInput {
                inbox: c,
                alias_schemas,
            });
        }

        let entry = self.run_join_du(
            qid,
            format!("q{qid}"),
            None,
            JoinCore::solo(eddy, qid, aq.projection.clone()),
            inputs,
            subscriptions,
            class,
            self.join_bounds(aq)?,
        )?;
        Ok(QueryRecord::Join(entry))
    }

    /// Admit a join to the DU of its group key, starting that DU when the
    /// query is the key's first (CACQ, §3.1): one SteM per side, filtering
    /// by the OR of the members' side predicates, and each output
    /// completed per member. A member a restore starts again joins the
    /// group labelled `restored` instead, starting it under that label
    /// when it is the first to.
    fn join_group(
        &self,
        qid: QueryId,
        aq: &AnalyzedQuery,
        restored: Option<&str>,
    ) -> Result<QueryRecord> {
        let jp = aq.join_pairs[0];
        let mut sides = [(jp.left, jp.left_col), (jp.right, jp.right_col)];
        let name = |(s, _): (usize, usize)| aq.sources[s].name.to_ascii_lowercase();
        if name(sides[0]) > name(sides[1]) {
            sides.swap(0, 1);
        }
        let sources = sides.map(|(s, _)| &aq.sources[s]);
        let streams = [
            self.stream(&sources[0].name)?,
            self.stream(&sources[1].name)?,
        ];
        let (floor, deadline) = self.join_bounds(aq)?;
        let clock = (streams.iter())
            .map(|st| st.latest_seq.load(Ordering::Acquire))
            .min()
            .unwrap_or(0);
        let key = JoinGroupKey {
            streams: sides.map(name),
            keys: sides.map(|(_, col)| col),
            widths: [
                planner::join_window_width(aq, &sources[0].alias)?,
                planner::join_window_width(aq, &sources[1].alias)?,
            ],
            deadline,
            floor,
        };
        let aliases = sources.map(|s| s.alias.clone());
        let mut spec = JoinMemberSpec {
            qid,
            aliases: aliases.clone(),
            preds: sides.map(|(s, _)| source_predicate(aq, s)),
            cross: tcq_common::Expr::from_conjuncts(aq.cross_factors.clone()),
            projection: aq.projection.clone(),
            admitted: None,
        };
        let mut groups = self.join_groups.lock();
        let found = groups.iter().find(|e| match restored {
            Some(label) => e.label == label,
            None => e.key.as_ref().is_some_and(|g| key.admits_into(g, clock)),
        });
        let label = match (found, restored) {
            (Some(entry), _) => entry.label.clone(),
            (None, Some(label)) => label.to_string(),
            (None, None) => key.label(qid),
        };
        // A member's admission cut is part of its answer: it is staged for
        // the next checkpoint, and a restore admits it at that cut.
        let component = format!("{label}/cut");
        let qkey = (qid as u64).to_le_bytes();
        if let Some(bytes) = self.checkpoint_fragment(&component, &qkey) {
            let mut r = CkptReader::new(&bytes);
            spec.admitted = Some([r.get_i64("admission cut")?, r.get_i64("admission cut")?]);
        }
        if let Some(entry) = found {
            let cut = entry.core.lock().admit(spec)?;
            if let Some(store) = &self.ckpt {
                let mut w = CkptWriter::new();
                w.put_i64(cut[0]);
                w.put_i64(cut[1]);
                store.lock().put(&component, &qkey, w.as_slice());
            }
            return Ok(QueryRecord::Join(Arc::clone(entry)));
        }
        let (eddy, _) = self.build_join_eddy(aq, true)?;
        let bits = [eddy.source_bit(&aliases[0])?, eddy.source_bit(&aliases[1])?];
        let bases = streams.each_ref().map(|st| st.def.schema.clone());
        let group = JoinGroup::new(bits, bases, [&aliases[0], &aliases[1]], key.widths);
        let core = JoinCore::group(eddy, group, spec)?;
        let mut inputs = Vec::with_capacity(2);
        let mut subscriptions = Vec::with_capacity(2);
        for (s, st) in streams.iter().enumerate() {
            let stream = &key.streams[s];
            let (p, c) =
                self.make_fjord(format!("join(q{qid}.{stream})"), self.config.queue_capacity);
            subscriptions.push((stream.clone(), st.subscribers.add(p)));
            inputs.push(JoinInput {
                inbox: c,
                alias_schemas: vec![sources[s].schema.clone()],
            });
        }
        let class = streams[0].class | streams[1].class;
        let bounds = (floor, deadline);
        let entry = self.run_join_du(
            qid,
            label,
            Some(key),
            core,
            inputs,
            subscriptions,
            class,
            bounds,
        )?;
        groups.push(Arc::clone(&entry));
        Ok(QueryRecord::Join(entry))
    }

    /// Start the DU of a join `qid` opened, bounded by the loop's `(floor,
    /// deadline)`: import the state the image holds under `label`, and
    /// register it with the checkpoint.
    #[allow(clippy::too_many_arguments)]
    fn run_join_du(
        &self,
        qid: QueryId,
        label: String,
        key: Option<JoinGroupKey>,
        core: JoinCore,
        inputs: Vec<JoinInput>,
        subscriptions: Vec<(String, u64)>,
        class: u64,
        (floor, deadline): (i64, i64),
    ) -> Result<Arc<JoinEntry>> {
        let core = Arc::new(Mutex::new(core));
        if self.ckpt.is_some() {
            self.import_join_state(&label, &core, &subscriptions)?;
            self.ckpt_handles
                .lock()
                .push((label.clone(), QueryStateHandle::Join(Arc::clone(&core))));
        }
        let du = JoinCqDu::new(
            format!("join-cq(q{qid})"),
            inputs,
            Arc::clone(&core),
            self.egress.clone(),
            floor,
            deadline,
        );
        let du = self.executor.submit(class, Box::new(du))?;
        Ok(Arc::new(JoinEntry {
            key,
            label,
            core,
            du,
            subscriptions,
        }))
    }

    /// Build the eddy of a join, returning it together with each source's
    /// join-key column. Called once for a sequential plan and P times for
    /// a partitioned one — every instance is identical (same policy, same
    /// seed), which is half of the exchange determinism argument.
    ///
    /// `checkpointed` says whether [`TelegraphCQ::checkpoint`] exports this
    /// eddy (the sequential plan) or not (partition workers). SteMs keep
    /// dirty sets only when it does *and* a checkpoint store is open:
    /// nothing but a checkpoint drains them.
    fn build_join_eddy(
        &self,
        aq: &AnalyzedQuery,
        checkpointed: bool,
    ) -> Result<(Eddy, Vec<usize>)> {
        let track_dirty = checkpointed && self.ckpt.is_some();
        // Eddy over the query's aliases.
        let aliases: Vec<String> = aq.sources.iter().map(|s| s.alias.clone()).collect();
        let mut eddy = Eddy::new(
            &aliases,
            Box::new(LotteryPolicy::new()),
            EddyConfig {
                batch_size: self.config.eddy_batch,
                seed: self.config.seed,
            },
        )?;

        // One SteM per source; key column from the join pairs. A SteM is
        // probed by its join *partners* (their tuples carry the probe key);
        // an intermediate tuple qualifies as soon as it spans any partner.
        let mut key_col: Vec<Option<usize>> = vec![None; aq.sources.len()];
        let mut probe_specs: Vec<Vec<(Option<String>, String)>> =
            vec![Vec::new(); aq.sources.len()];
        let mut partners: Vec<u64> = vec![0; aq.sources.len()];
        for jp in &aq.join_pairs {
            for (src, col, other, other_col) in [
                (jp.left, jp.left_col, jp.right, jp.right_col),
                (jp.right, jp.right_col, jp.left, jp.left_col),
            ] {
                match key_col[src] {
                    None => key_col[src] = Some(col),
                    Some(existing) if existing == col => {}
                    Some(_) => {
                        return Err(TcqError::Analysis(format!(
                            "source '{}' joins on two different columns; \
                             multi-key SteMs are not supported",
                            aq.sources[src].alias
                        )))
                    }
                }
                let other_schema = &aq.sources[other].schema;
                probe_specs[src].push((
                    Some(aq.sources[other].alias.clone()),
                    other_schema.field(other_col).name.clone(),
                ));
                partners[src] |= eddy.source_bit(&aq.sources[other].alias)?;
            }
        }
        for (i, source) in aq.sources.iter().enumerate() {
            let Some(kc) = key_col[i] else {
                return Err(TcqError::Analysis(format!(
                    "source '{}' participates in no equi-join predicate",
                    source.alias
                )));
            };
            let my_bit = eddy.source_bit(&source.alias)?;
            let mut specs = probe_specs[i].clone().into_iter();
            let first = specs
                .next()
                .expect("at least one probe spec per joined source");
            let mut stem = StemOp::new(
                format!("SteM({})", source.alias),
                source.schema.clone(),
                source.alias.clone(),
                kc,
                first,
                IndexKind::Hash,
            )?;
            for extra in specs {
                stem = stem.with_extra_probe_key(extra);
            }
            stem = stem.with_dirty_tracking(track_dirty);
            if let Some(width) = planner::join_window_width(aq, &source.alias)? {
                stem = stem.with_window_width(width);
            }
            // The source's own predicate filters at build: a row it
            // rejects is never stored and never probes, so no separate
            // selection module runs for this source.
            if let Some(pred) = source_predicate(aq, i) {
                stem = stem.with_build_predicate(&pred)?;
            }
            eddy.add_module(ModuleSpec::stem(Box::new(stem), my_bit, partners[i]))?;
        }
        // Cross factors (band predicates): filters over joined tuples.
        for (k, factor) in aq.cross_factors.iter().enumerate() {
            let mut bits = 0u64;
            for (q, name) in factor.columns() {
                let idx = match q {
                    Some(q) => aq
                        .source_index(q)
                        .ok_or_else(|| TcqError::Analysis(format!("unknown qualifier '{q}'")))?,
                    None => {
                        // analyzer guarantees resolvability; find the owner
                        aq.sources
                            .iter()
                            .position(|s| s.schema.index_of(None, name).is_ok())
                            .ok_or_else(|| TcqError::Analysis(format!("unknown column '{name}'")))?
                    }
                };
                bits |= eddy.source_bit(&aq.sources[idx].alias)?;
            }
            let op = SelectOp::new(format!("band{k}"), factor, &aq.combined_schema)?;
            eddy.add_module(ModuleSpec::filter(Box::new(op), bits))?;
        }
        let key_cols: Vec<usize> = key_col.into_iter().flatten().collect();
        Ok((eddy, key_cols))
    }

    /// The window sequence's extent bounds a join query's lifetime: tuples
    /// before the first window are skipped (`floor`), and once stream time
    /// passes the final window's close the query retires (`deadline` — the
    /// for-loop's stopping condition).
    fn join_bounds(&self, aq: &AnalyzedQuery) -> Result<(i64, i64)> {
        let mut floor = i64::MIN;
        let mut deadline = i64::MAX;
        if let Some(w) = &aq.window {
            // The loop's extent in closed form: window bounds are linear in
            // a monotone `t`, so the first and last iterations carry the
            // extremes (and any `left > right` the loop would run into).
            // An unbounded loop is checked at its first iteration only.
            let st = self.start_time(aq);
            let min_left = |wa: &WindowAssignment| {
                let lefts = wa.windows.iter().map(|(_, win)| win.left);
                lefts.min().unwrap_or(i64::MIN)
            };
            match w.extent(st)? {
                LoopLength::Empty => {}
                LoopLength::Unbounded { first_t } => floor = min_left(&w.windows_at(first_t, st)?),
                // Finite loops retire the query after their final window.
                LoopLength::Finite {
                    first_t, last_t, ..
                } => {
                    let first = w.windows_at(first_t, st)?;
                    let last = w.windows_at(last_t, st)?;
                    floor = min_left(&first);
                    deadline = first.close_time().max(last.close_time());
                }
            }
        }
        Ok((floor, deadline))
    }

    /// A join's start time `ST`: the latest logical time across its
    /// streams (at least 1).
    fn start_time(&self, aq: &AnalyzedQuery) -> i64 {
        let now = aq
            .sources
            .iter()
            .filter_map(|s| self.stream(&s.name).ok())
            .map(|st| st.latest_seq.load(Ordering::Acquire))
            .max()
            .unwrap_or(0);
        now.max(1)
    }

    /// Partition-parallel dedicated join (`ServerConfig::partitions > 1`):
    /// a `PartitionDu` hash-splits the canonical input order into P
    /// partition fjords, P cloned eddies consume them on distinct EOs, and
    /// a `MergeDu` replays the partitioner's run order so delivery is
    /// byte-identical to the sequential plan (see `crate::exchange`).
    fn start_partitioned_join(
        &self,
        qid: QueryId,
        aq: &AnalyzedQuery,
        partitions: usize,
    ) -> Result<QueryRecord> {
        let cap = self.config.queue_capacity;
        // P identical eddies: same modules, same policy kind, same seed.
        let mut eddies = Vec::with_capacity(partitions);
        let mut key_cols = Vec::new();
        for _ in 0..partitions {
            let (eddy, kc) = self.build_join_eddy(aq, false)?;
            key_cols = kc;
            eddies.push(eddy);
        }
        let (floor, deadline) = self.join_bounds(aq)?;

        // One ingress subscription per source (`partitionable` guarantees
        // each physical stream appears under exactly one alias).
        let mut inputs = Vec::with_capacity(aq.sources.len());
        let mut subscriptions = Vec::with_capacity(aq.sources.len());
        let mut ingress_class = 0u64;
        for (i, source) in aq.sources.iter().enumerate() {
            let st = self.stream(&source.name)?;
            ingress_class |= st.class;
            let (p, c) = self.make_fjord(format!("xchg-in(q{qid}.{})", source.name), cap);
            let sub_id = st.subscribers.add(p);
            subscriptions.push((source.name.to_ascii_lowercase(), sub_id));
            let clock = match planner::join_window_width(aq, &source.alias)? {
                Some(_) => Some(eddies[0].source_bit(&source.alias)?),
                None => None,
            };
            inputs.push(ExchangeInput::new(
                c,
                source.schema.clone(),
                key_cols[i],
                clock,
            ));
        }

        // The exchange fabric: P partition fjords, P output fjords, and a
        // schedule fjord carrying the canonical run order.
        let mut part_prods = Vec::with_capacity(partitions);
        let mut part_cons = Vec::with_capacity(partitions);
        let mut out_prods = Vec::with_capacity(partitions);
        let mut out_cons = Vec::with_capacity(partitions);
        for k in 0..partitions {
            let (p, c) = self.make_fjord(format!("xchg-part(q{qid}.{k})"), cap);
            part_prods.push(p);
            part_cons.push(c);
            let (p, c) = self.make_fjord(format!("xchg-out(q{qid}.{k})"), cap);
            out_prods.push(p);
            out_cons.push(c);
        }
        let (sched_prod, sched_cons) =
            self.make_fjord(format!("xchg-sched(q{qid})"), cap.saturating_mul(2).max(8));

        // Workers first: each fresh footprint class lands on the currently
        // least-loaded EO, so the P clones spread across distinct EOs
        // whenever `eos` allows it.
        let mut dus = Vec::with_capacity(partitions + 2);
        for (k, ((eddy, input), output)) in
            eddies.into_iter().zip(part_cons).zip(out_prods).enumerate()
        {
            let mut du = WorkerDu::new(
                format!("xchg-work(q{qid}.{k})"),
                input,
                output,
                eddy,
                LazyProject::new(aq.projection.clone()),
            );
            if let Some(inj) = &self.injector {
                du = du.with_injector(inj.clone());
            }
            dus.push(
                self.executor
                    .submit(exchange::du_class(qid, k), Box::new(du))?,
            );
        }
        let mut merge = MergeDu::new(
            format!("xchg-merge(q{qid})"),
            sched_cons,
            out_cons,
            self.egress.clone(),
            qid,
        );
        if let Some(inj) = &self.injector {
            merge = merge.with_injector(inj.clone());
        }
        dus.push(
            self.executor
                .submit(exchange::du_class(qid, partitions), Box::new(merge))?,
        );
        // The partitioner shares the ingress streams' footprint classes, so
        // it co-locates with their dispatchers (cache locality on the
        // drain path) exactly like a sequential JoinCqDu would.
        let part = PartitionDu::new(
            format!("xchg-part(q{qid})"),
            inputs,
            part_prods,
            sched_prod,
            floor,
            deadline,
        );
        dus.push(self.executor.submit(ingress_class, Box::new(part))?);

        Ok(QueryRecord::Dedicated(Box::new(DedicatedQuery {
            dus,
            subscriptions,
        })))
    }

    /// Join groups running: one DU per key, however many queries it serves.
    pub fn shared_join_count(&self) -> usize {
        self.join_groups.lock().len()
    }

    /// Snapshot/backward windows: answer from the archive now, then close.
    fn run_historical(&self, qid: QueryId, aq: &AnalyzedQuery) -> Result<QueryRecord> {
        let source = &aq.sources[0];
        let st = self.stream(&source.name)?;
        let archive = st.archive.as_ref().ok_or_else(|| {
            TcqError::Storage(
                "historical queries need archiving (set ServerConfig::archive_dir)".into(),
            )
        })?;
        let base = st.def.schema.with_qualifier(&source.name).into_ref();
        let pred = match stripped_predicate(aq) {
            Some(p) => Some(Predicate::new(&p, &base)?),
            None => None,
        };
        let projection: Vec<(tcq_common::Expr, Option<String>)> = aq
            .projection
            .iter()
            .map(|(e, a)| (planner::strip_qualifiers(e), a.clone()))
            .collect();
        let project = tcq_operators::ProjectOp::new(&projection, &base)?;
        // Under aggregates each window's passing rows fold into one pane of
        // partials, answered as a live window is.
        let aggs = resolve_aggregates(aq)?;
        let group_by = aq.group_by.map(|(_, col)| col);
        let mut panes = (!aggs.is_empty()).then(|| AggPanes::new(&base, &aggs, group_by));
        let window = aq.window.clone().expect("historical implies window");
        let stt = st.latest_seq.load(Ordering::Acquire);
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for wa in WindowSeq::new(window, stt.max(1)).take(100_000) {
            let wa = wa?;
            let Some(win) = wa.window_for(&source.alias) else {
                continue;
            };
            scratch.clear();
            archive
                .lock()
                .scan_window(win.left, win.right, &mut scratch)?;
            out.clear();
            for t in &scratch {
                let passes = match &pred {
                    Some(p) => p.eval_pred(t)?,
                    None => true,
                };
                if !passes {
                    continue;
                }
                match &mut panes {
                    Some(panes) => panes.fold(win.left, t)?,
                    None => out.push(project.apply(t)?),
                }
            }
            if let Some(panes) = &mut panes {
                panes.emit(wa.t, win, &mut out);
                panes.clear();
            }
            // One delivery per window: the window's rows are one result set.
            self.egress.deliver_batch([qid], &out);
        }
        Ok(QueryRecord::Completed)
    }

    /// Stop a standing query. With a checkpoint store open the query
    /// leaves the checkpoint's catalog: a restore does not start it again.
    pub fn stop_query(&self, qid: QueryId) -> Result<()> {
        let record = self
            .queries
            .lock()
            .remove(&qid)
            .ok_or_else(|| TcqError::Executor(format!("unknown query {qid}")))?;
        // Staged before its state handle goes: a checkpoint either still
        // exports the query's state or already records it stopped.
        if !matches!(record, QueryRecord::Completed) {
            self.stage_query(qid, None);
        }
        let own = format!("q{qid}");
        self.ckpt_handles.lock().retain(|(label, _)| *label != own);
        let released = self.release_plan(qid, record);
        // Every client's subscription goes with the query, in this call —
        // after its plan let go of it: a join DU holds its lock from taking
        // a batch off its inputs until the batch is delivered, so the rows
        // it took before the stop still reach the query's clients.
        self.egress.forget_query(qid);
        released
    }

    /// Take query `qid` out of the plan `record` describes, tearing down
    /// whatever only it used.
    fn release_plan(&self, qid: QueryId, record: QueryRecord) -> Result<()> {
        match record {
            QueryRecord::Stream(plans) => plans.remove_query(qid)?,
            QueryRecord::Join(entry) => {
                // Held across the removal: an admission to this key either
                // ran first or starts a fresh DU after the teardown.
                let mut groups = self.join_groups.lock();
                if entry.core.lock().remove(qid)? == 0 {
                    groups.retain(|e| !Arc::ptr_eq(e, &entry));
                    drop(groups);
                    self.executor.cancel(entry.du)?;
                    for (stream, sub_id) in &entry.subscriptions {
                        if let Ok(st) = self.stream(stream) {
                            st.subscribers.remove(*sub_id);
                        }
                    }
                    (self.ckpt_handles.lock()).retain(|(label, _)| *label != entry.label);
                }
            }
            QueryRecord::Dedicated(query) => {
                for &du in &query.dus {
                    self.executor.cancel(du)?;
                }
                for (stream, sub_id) in query.subscriptions {
                    if let Ok(st) = self.stream(&stream) {
                        st.subscribers.remove(sub_id);
                    }
                }
            }
            QueryRecord::Completed => {}
        }
        Ok(())
    }

    /// Rows the SteMs of the join DU serving `qid` hold, all sources
    /// together (a group's rows serve every member); `None` for any other
    /// plan (filters, aggregates, partitioned joins) or an unknown query.
    pub fn join_state_rows(&self, qid: QueryId) -> Option<usize> {
        match self.queries.lock().get(&qid)? {
            QueryRecord::Join(entry) => Some(entry.core.lock().eddy.state_size()),
            _ => None,
        }
    }

    /// Partial aggregates the window driver of aggregate query `qid` holds,
    /// one per (pane, group); `None` for any other plan or an unknown query.
    pub fn aggregate_state_entries(&self, qid: QueryId) -> Option<usize> {
        match self.queries.lock().get(&qid)? {
            QueryRecord::Stream(plans) => plans.aggregate_entries(qid),
            _ => None,
        }
    }

    /// Heap bytes the SteMs behind [`TelegraphCQ::join_state_rows`] hold
    /// (`StemOp::state_bytes` summed).
    pub fn join_state_bytes(&self, qid: QueryId) -> Option<usize> {
        match self.queries.lock().get(&qid)? {
            QueryRecord::Join(entry) => Some(entry.core.lock().eddy.state_bytes()),
            _ => None,
        }
    }

    /// Standing query count (historical queries complete immediately and
    /// still count until stopped).
    pub fn query_count(&self) -> usize {
        self.queries.lock().len()
    }

    /// Wait until every DU has retired (finite-stream runs) or the timeout
    /// elapses. Returns whether the executor went idle.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let stats = self.executor.stats();
            if stats.dus_per_eo.iter().sum::<usize>() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Executor statistics.
    pub fn executor_stats(&self) -> tcq_executor::ExecutorStats {
        self.executor.stats()
    }

    /// The most recent stall diagnosis the liveness watchdog recorded
    /// (`None` without `ServerConfig::liveness`, or on a healthy run).
    pub fn last_stall(&self) -> Option<StallDiagnosis> {
        self.executor.last_stall()
    }

    /// Point-in-time progress snapshot: the global frontier, in-flight
    /// depth, and every live fjord's counts, read from the fjords' own
    /// counts on every server, watchdog or not. Always `Some`: the
    /// `Option` stays because the benchmark binds this signature
    /// (`benchmark/layer_api.md`).
    pub fn progress_snapshot(&self) -> Option<ProgressSnapshot> {
        Some(self.progress.snapshot())
    }

    /// Full egress accounting (per-disposition counters).
    pub fn egress_stats_full(&self) -> EgressStats {
        self.egress.egress_stats()
    }

    /// Stop ingress, drain what was admitted, then stop the executor.
    ///
    /// Ordering matters: source threads stop *first* so no new
    /// tuples arrive, then the executor keeps running until every ingress
    /// queue and subscriber queue is empty, and only then shuts down.
    /// Stopping the executor first would strand admitted tuples in the
    /// queues — results a client was already promised. The wait is
    /// bounded (2 s) and its outcome ignored, unlike a checkpoint's: a
    /// shutdown writes no cut, and one wedged query must not keep the
    /// whole server from stopping.
    pub fn shutdown(self) -> Result<()> {
        for (s, _) in self.supervisors.lock().drain(..) {
            let _ = s.stop();
        }
        let _ = self.drain_ingress(Duration::from_secs(2));
        self.executor.shutdown()?;
        // Executor stopped: no appends can race the final flush. Sealing
        // the tail makes every archived tuple recoverable by `open`.
        for st in self.streams.lock().values() {
            if let Some(archive) = &st.archive {
                archive.lock().flush()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema, Timestamp, TupleBuilder};

    /// Without a checkpoint store nothing drains a SteM's dirty set, so a
    /// no-checkpoint server must not keep one: 100k rows over 100k distinct
    /// keys leave zero dirty groups. With a store open the same rows do
    /// leave dirt (the checkpoint's delta).
    #[test]
    fn join_stems_track_dirt_only_when_a_checkpoint_store_is_open() {
        let dir = std::env::temp_dir().join(format!("tcq-dirty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (checkpoint_path, partitioned) in [
            (None, false),
            (Some(dir.join("ckpt")), false),
            (Some(dir.join("ckpt-part")), true),
        ] {
            let durable = checkpoint_path.is_some();
            let server = TelegraphCQ::start(ServerConfig {
                checkpoint_path,
                ..ServerConfig::default()
            })
            .unwrap();
            let schema = Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ])
            .into_ref();
            server.register_stream("a", schema.clone()).unwrap();
            server.register_stream("b", schema).unwrap();
            let stmt = parse(
                "SELECT a.v, b.v FROM a, b WHERE a.k = b.k \
                 for (t = ST; t >= 0; t++) { WindowIs(a, t - 1024, t); WindowIs(b, t - 1024, t); }",
            )
            .unwrap();
            let aq = analyze(&stmt, &server.catalog).unwrap();
            let (mut eddy, _) = server.build_join_eddy(&aq, !partitioned).unwrap();
            let mut out = Vec::new();
            for first in (0..100_000i64).step_by(64) {
                let batch = (first..first + 64)
                    .map(|i| {
                        TupleBuilder::new(aq.sources[(i % 2) as usize].schema.clone())
                            .push(i)
                            .push(i)
                            .at(Timestamp::logical(i + 1))
                            .build()
                            .unwrap()
                    })
                    .collect();
                out.clear();
                eddy.process_batch(batch, &mut out).unwrap();
            }
            assert!(eddy.state_size() <= 2 * 1025);
            if durable && !partitioned {
                assert!(
                    eddy.dirty_len() > 0,
                    "a checkpointed join records its delta"
                );
            } else {
                assert_eq!(
                    eddy.dirty_len(),
                    0,
                    "durable={durable} partitioned={partitioned}"
                );
            }
            server.shutdown().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
