//! The system under test, freshly booted for one pass: server (in-process
//! or behind `NetServer`), registered streams, standing queries, build side
//! loaded — and the two ends the load threads hold: the generator's feed
//! and the receiver's sink. At most two connections exist at any time.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use tcq_common::{Result, TcqError, Tuple};
use tcq_egress::{ClientId, Delivery};
use tcq_net::{NetServer, TcqClient};
use tcq_server::{LivenessConfig, ServerConfig, TcpTransportConfig, TelegraphCQ, TransportConfig};

use crate::trace::Tracer;
use crate::workload::{self, Kind, Spec, BATCH, CLIENT_QUEUE};

/// How long a blocked receive waits before re-checking whether the pass is
/// over. The receiver blocks on the channel/socket; it never sleep-polls.
const RECV_TICK: Duration = Duration::from_millis(20);

pub enum Host {
    InProc(Box<TelegraphCQ>),
    Tcp(NetServer),
}

impl Host {
    pub fn engine(&self) -> &TelegraphCQ {
        match self {
            Host::InProc(e) => e,
            Host::Tcp(n) => n.engine(),
        }
    }
}

/// The receiver's end: the push client's channel, or the subscribed socket.
pub enum Sink {
    Chan(Receiver<Delivery>),
    Tcp(TcqClient),
}

impl Sink {
    /// Block for the next burst of results (at most [`RECV_TICK`]) and hand
    /// each row to `f`. Returns the rows seen; an error means the sink died.
    pub fn recv_burst(&mut self, mut f: impl FnMut(&Tuple)) -> Result<usize> {
        match self {
            Sink::Chan(rx) => match rx.recv_timeout(RECV_TICK) {
                Ok((_, first)) => {
                    f(&first);
                    let mut n = 1;
                    for (_, t) in rx.try_iter().take(4 * BATCH - 1) {
                        f(&t);
                        n += 1;
                    }
                    Ok(n)
                }
                Err(RecvTimeoutError::Timeout) => Ok(0),
                Err(RecvTimeoutError::Disconnected) => {
                    Err(TcqError::Disconnected("push client channel closed"))
                }
            },
            Sink::Tcp(client) => match client.next_results(RECV_TICK)? {
                Some(batch) => {
                    batch.tuples.iter().for_each(&mut f);
                    Ok(batch.tuples.len())
                }
                None => Ok(0),
            },
        }
    }

    /// Done receiving: say `Bye` on a socket; hand back a channel so rows
    /// that arrive after the last expected one can still be counted.
    pub fn close(self) -> Option<Receiver<Delivery>> {
        match self {
            Sink::Chan(rx) => Some(rx),
            Sink::Tcp(client) => {
                let _ = client.bye();
                None
            }
        }
    }
}

pub struct Sut {
    pub host: Host,
    /// TCP ingest connection (`None` in-process: the generator calls
    /// `push_batch` directly).
    pub ingest: Option<TcqClient>,
    /// The push client standing and churned queries are submitted for.
    pub client: ClientId,
    /// Per-pass scratch directory (archive, checkpoint store), if any.
    dir: Option<PathBuf>,
}

fn config(spec: &Spec, traced: bool, dir: Option<&Path>) -> ServerConfig {
    let mut cfg = ServerConfig {
        io_batch: BATCH,
        eddy_batch: BATCH,
        ..ServerConfig::default()
    };
    if traced {
        cfg.liveness = Some(LivenessConfig::default());
    }
    match spec.kind {
        Kind::JoinTcp => {
            cfg.transport = TransportConfig::Tcp(TcpTransportConfig {
                client_queue: CLIENT_QUEUE,
                ..TcpTransportConfig::default()
            });
        }
        Kind::DurableAgg => {
            let dir = dir.expect("durable_agg runs in a scratch directory");
            cfg.archive_dir = Some(dir.join("archive"));
            cfg.checkpoint_path = Some(dir.join("ckpt").join("store.ckpt"));
        }
        Kind::JoinInproc | Kind::ManyCqChurn => {}
    }
    cfg
}

fn wait_for_dim(engine: &TelegraphCQ) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stream_time("dim")? < workload::DIM_ROWS {
        if Instant::now() > deadline {
            return Err(TcqError::Executor("build side never loaded".into()));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

impl Sut {
    /// Boot → register → submit standing queries → load the build side.
    /// `dir` must be a fresh, empty directory for workloads that write.
    pub fn boot(
        spec: &Spec,
        traced: bool,
        dir: Option<PathBuf>,
        tr: &mut Tracer,
        parent: u32,
    ) -> Result<(Sut, Sink)> {
        let cfg = config(spec, traced, dir.as_deref());
        if spec.kind == Kind::JoinTcp {
            let net = tr.span("net.start", parent, || NetServer::start(cfg))?;
            net.engine()
                .register_stream("s", workload::join_stream_schema())?;
            net.engine().register_table("dim", workload::dim_schema())?;
            let addr = net
                .local_addr()
                .ok_or_else(|| TcqError::Executor("TCP transport not bound".into()))?;
            let mut sub = tr.span("net.connect", parent, || TcqClient::connect(addr))?;
            tr.span("net.submit", parent, || sub.submit(workload::JOIN_SQL))?;
            let mut ingest = tr.span("net.connect", parent, || TcqClient::connect(addr))?;
            tr.span("net.ingest", parent, || {
                ingest.ingest("dim", workload::dim_rows())
            })?;
            wait_for_dim(net.engine())?;
            let sut = Sut {
                host: Host::Tcp(net),
                ingest: Some(ingest),
                client: 0,
                dir,
            };
            return Ok((sut, Sink::Tcp(sub)));
        }

        let engine = tr.span("server.start", parent, || TelegraphCQ::start(cfg))?;
        let (client, rx) = engine.connect_push_client(CLIENT_QUEUE)?;
        match spec.kind {
            Kind::JoinInproc => {
                engine.register_stream("s", workload::join_stream_schema())?;
                engine.register_table("dim", workload::dim_schema())?;
                tr.span("server.submit", parent, || {
                    engine.submit(workload::JOIN_SQL, client)
                })?;
                tr.span("server.push_batch", parent, || {
                    engine.push_batch("dim", workload::dim_rows())
                })?;
                wait_for_dim(&engine)?;
            }
            Kind::ManyCqChurn => {
                engine.register_stream("ticks", workload::ticks_schema())?;
                tr.span("server.submit_standing", parent, || {
                    workload::standing_cq_sql()
                        .try_for_each(|sql| engine.submit(&sql, client).map(|_| ()))
                })?;
            }
            Kind::DurableAgg => {
                engine.register_stream("s", workload::agg_stream_schema())?;
                tr.span("server.submit", parent, || {
                    engine.submit(workload::AGG_SQL, client)
                })?;
            }
            Kind::JoinTcp => unreachable!("booted above"),
        }
        let sut = Sut {
            host: Host::InProc(Box::new(engine)),
            ingest: None,
            client,
            dir,
        };
        Ok((sut, Sink::Chan(rx)))
    }

    pub fn engine(&self) -> &TelegraphCQ {
        self.host.engine()
    }

    /// Hand one generated batch to the system: `push_batch` in-process, an
    /// `Ingest` frame over TCP.
    pub fn send(&mut self, stream: &str, batch: Vec<Tuple>) -> Result<()> {
        match &mut self.ingest {
            Some(client) => client.ingest(stream, batch),
            None => self.host.engine().push_batch(stream, batch),
        }
    }

    /// Wait (bounded) until the dispatcher has stamped and archived all
    /// `rows` input rows, the last of them at tick `last_seq`. Trailing rows
    /// that produce no result are still in flight when the receiver has
    /// everything it expects; the ledgers are compared after they landed.
    /// On a timeout the comparison itself reports what is missing.
    pub fn settle(&self, stream: &str, last_seq: i64, rows: u64) -> Result<()> {
        let engine = self.engine();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let archived = engine.archive_stats(stream)?.map_or(rows, |a| a.appended);
            if (engine.stream_time(stream)? >= last_seq && archived >= rows)
                || Instant::now() > deadline
            {
                return Ok(());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Close the ingest connection, shut the server down (it drains what was
    /// admitted first) and remove the pass's scratch directory.
    pub fn shutdown(self) -> Result<()> {
        if let Some(client) = self.ingest {
            let _ = client.bye();
        }
        let res = match self.host {
            Host::InProc(engine) => engine.shutdown(),
            Host::Tcp(net) => net.shutdown(),
        };
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        res
    }
}
