//! The TCP listener and per-connection reader/writer threads.
//!
//! Each accepted connection gets:
//!
//! - one egress registration ([`TelegraphCQ::connect_queue_client`]) whose
//!   [`DeliveryQueue`] *is* the per-connection delivery queue: the
//!   router's non-blocking send fills it and then sheds, so a slow socket
//!   stalls only its own queue, never the router lock or other clients.
//!   `client_queue` bounds the rows queued; it is not an allocation. The
//!   queue holds memory only for the rows in it, and the reader's and
//!   writer's buffers grow with the frames they carry, so an idle
//!   connection costs a few KiB of heap;
//! - a **reader thread** that decodes frames off the socket and dispatches
//!   them against the engine (`Submit`, `Subscribe`, `Ingest`, `Punct`,
//!   `Ping`, `Bye`), polling [`FaultPoint::NetRead`] once per *frame* — not
//!   per syscall — so chaos schedules are a deterministic function of what
//!   the peer sent, independent of kernel segmentation;
//! - a **writer thread** that drains the delivery queue, coalesces
//!   consecutive same-query rows into one `Results` frame inside a large
//!   write buffer, and flushes when the buffer crosses a fixed
//!   threshold or the queue runs dry — amortizing syscalls the way
//!   `io_batch` amortizes lock acquisitions in-process. Each frame written
//!   polls [`FaultPoint::NetWrite`].
//!
//! Dead-socket accounting: rows the router counted `delivered` that are
//! still sitting in the connection's queue when its socket dies, or that
//! the writer holds (staged, or in a write that failed), never reached
//! the kernel. On every exit path the writer hands its queue and that
//! count back through [`TelegraphCQ::disconnect_push_client`], which drops
//! the client and reclassifies exactly those rows as `disconnected_loss`
//! under one router lock hold — the ledger invariant `delivered + shed +
//! displaced + disconnected_loss == offered` then describes rows handed
//! to the kernel (`rows_written`), not rows in a doomed buffer, and no row
//! delivered during teardown escapes the count.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tcq_common::sync::Mutex;
use tcq_common::{FaultAction, FaultPoint, Result, SharedInjector, TcqError};
use tcq_egress::{ClientId, Delivery, DeliveryQueue, QueueDepth};
use tcq_server::{TcpTransportConfig, TelegraphCQ};

use crate::wire::{Frame, FrameReader, FrameWriter, WIRE_VERSION};

/// Writer coalescing threshold in bytes: the connection writer drains its
/// egress queue into one buffer and flushes when it crosses this size (or
/// the queue runs dry), amortizing syscalls the way `io_batch` amortizes
/// lock acquisitions in-process.
const WRITE_COALESCE: usize = 64 * 1024;
/// Stack size for connection threads: thousands of mostly-blocked threads
/// must not cost 8 MB of address space each.
const CONN_STACK: usize = 256 * 1024;
/// Socket read timeout — the poll granularity at which reader threads
/// notice a transport shutdown.
const READ_TICK: Duration = Duration::from_millis(100);
/// Shortest park on the delivery queue for a just-active writer: a control
/// frame arriving right after a burst waits at most this long.
const WRITE_TICK: Duration = Duration::from_millis(1);
/// Longest park for a writer that has stayed idle. A fixed 1 ms tick means
/// every idle connection wakes 1000x/s — at a thousand connections that is
/// a million context switches a second, enough to starve the accept loop
/// on a small machine. Idle writers double their park from [`WRITE_TICK`]
/// up to this cap and drop back the moment anything is staged; only
/// control-frame latency on a cold connection pays the cap.
const WRITE_TICK_MAX: Duration = Duration::from_millis(64);

/// Per-connection transport counters (atomics; read while live).
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Server-side connection id (echoed to the peer in `Welcome`).
    pub conn: u64,
    /// Frames decoded off the socket.
    pub frames_read: AtomicU64,
    /// Payload + header bytes read.
    pub bytes_read: AtomicU64,
    /// Ingest rows decoded.
    pub rows_read: AtomicU64,
    /// Frames written to the socket.
    pub frames_written: AtomicU64,
    /// Bytes written to the socket.
    pub bytes_written: AtomicU64,
    /// Result rows handed to the kernel: counted when encoded, before the
    /// peer can see them, and taken back if the write carrying them fails.
    pub rows_written: AtomicU64,
    /// Result rows dropped by an injected [`FaultPoint::NetWrite`] fault.
    pub rows_dropped_net: AtomicU64,
    /// Result rows found undrained in the delivery queue when the
    /// connection died (reported to the egress ledger as
    /// `disconnected_loss`).
    pub rows_lost_disconnect: AtomicU64,
    /// [`FaultPoint::NetRead`] faults that fired on this connection.
    pub read_faults: AtomicU64,
    /// [`FaultPoint::NetWrite`] faults that fired on this connection.
    pub write_faults: AtomicU64,
    /// The delivery queue's own occupancy count.
    queue: QueueDepth,
}

/// One connection's counters, snapshotted ([`TcpTransport::conn_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// Server-side connection id.
    pub conn: u64,
    /// Frames decoded off the socket.
    pub frames_read: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Ingest rows decoded.
    pub rows_read: u64,
    /// Frames written.
    pub frames_written: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Result rows written.
    pub rows_written: u64,
    /// Result rows dropped by injected write faults.
    pub rows_dropped_net: u64,
    /// Result rows lost in the queue at disconnect.
    pub rows_lost_disconnect: u64,
    /// NetRead faults fired.
    pub read_faults: u64,
    /// NetWrite faults fired.
    pub write_faults: u64,
    /// Result rows in the connection's delivery queue now: routed to it,
    /// not yet taken by its writer.
    pub queued: u64,
}

impl ConnStats {
    fn snapshot(&self) -> ConnSnapshot {
        ConnSnapshot {
            conn: self.conn,
            frames_read: self.frames_read.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            rows_read: self.rows_read.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            rows_written: self.rows_written.load(Ordering::Relaxed),
            rows_dropped_net: self.rows_dropped_net.load(Ordering::Relaxed),
            rows_lost_disconnect: self.rows_lost_disconnect.load(Ordering::Relaxed),
            read_faults: self.read_faults.load(Ordering::Relaxed),
            write_faults: self.write_faults.load(Ordering::Relaxed),
            queued: self.queue.get() as u64,
        }
    }
}

/// Aggregate transport counters ([`TcpTransport::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the transport's lifetime.
    pub accepted: u64,
    /// Connections fully torn down (both threads exited).
    pub closed: u64,
    /// Sum of per-connection `frames_read`.
    pub frames_read: u64,
    /// Sum of per-connection `bytes_read`.
    pub bytes_read: u64,
    /// Sum of per-connection `rows_read`.
    pub rows_read: u64,
    /// Sum of per-connection `frames_written`.
    pub frames_written: u64,
    /// Sum of per-connection `bytes_written`.
    pub bytes_written: u64,
    /// Sum of per-connection `rows_written`.
    pub rows_written: u64,
    /// Sum of per-connection `rows_dropped_net`.
    pub rows_dropped_net: u64,
    /// Sum of per-connection `rows_lost_disconnect`.
    pub rows_lost_disconnect: u64,
    /// Sum of per-connection `read_faults`.
    pub read_faults: u64,
    /// Sum of per-connection `write_faults`.
    pub write_faults: u64,
}

enum WriterMsg {
    /// A control reply (Welcome/SubmitOk/Pong/Error/...) to write.
    Frame(Frame),
    /// The reader is done (peer EOF, `Bye`, poison, fault): drain, account,
    /// close.
    Close,
}

struct ConnHandle {
    stats: Arc<ConnStats>,
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

struct Shared {
    server: Arc<TelegraphCQ>,
    cfg: TcpTransportConfig,
    shutdown: AtomicBool,
    conns: Mutex<Vec<ConnHandle>>,
    accepted: AtomicU64,
    closed: AtomicU64,
    next_conn: AtomicU64,
}

/// The TCP transport: a listener plus every live connection's threads.
/// Created by [`crate::NetServer::start`] when [`ServerConfig::transport`]
/// selects [`TransportConfig::Tcp`].
///
/// [`ServerConfig::transport`]: tcq_server::ServerConfig::transport
/// [`TransportConfig::Tcp`]: tcq_server::TransportConfig::Tcp
pub struct TcpTransport {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl TcpTransport {
    /// Bind `cfg.addr` and start accepting connections against `server`.
    pub fn bind(server: Arc<TelegraphCQ>, cfg: TcpTransportConfig) -> Result<TcpTransport> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| TcqError::Ingress(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| TcqError::Ingress(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| TcqError::Ingress(format!("set_nonblocking: {e}")))?;
        let shared = Arc::new(Shared {
            server,
            cfg,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            accepted: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            next_conn: AtomicU64::new(1),
        });
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("tcq-net-accept".into())
                .stack_size(CONN_STACK)
                .spawn(move || accept_loop(&shared, listener))
                .map_err(|e| TcqError::Ingress(format!("spawn accept thread: {e}")))?
        };
        Ok(TcpTransport {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregate counters over all connections, live and closed.
    pub fn stats(&self) -> NetStats {
        let mut s = NetStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            closed: self.shared.closed.load(Ordering::Relaxed),
            ..NetStats::default()
        };
        for c in self.shared.conns.lock().iter() {
            let snap = c.stats.snapshot();
            s.frames_read += snap.frames_read;
            s.bytes_read += snap.bytes_read;
            s.rows_read += snap.rows_read;
            s.frames_written += snap.frames_written;
            s.bytes_written += snap.bytes_written;
            s.rows_written += snap.rows_written;
            s.rows_dropped_net += snap.rows_dropped_net;
            s.rows_lost_disconnect += snap.rows_lost_disconnect;
            s.read_faults += snap.read_faults;
            s.write_faults += snap.write_faults;
        }
        s
    }

    /// Per-connection counter snapshots, in accept order.
    pub fn conn_stats(&self) -> Vec<ConnSnapshot> {
        self.shared
            .conns
            .lock()
            .iter()
            .map(|c| c.stats.snapshot())
            .collect()
    }

    /// Stop accepting, shut every connection's socket, and join all
    /// transport threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let mut conns = std::mem::take(&mut *self.shared.conns.lock());
        for c in &conns {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        for c in &mut conns {
            if let Some(t) = c.reader.take() {
                let _ = t.join();
            }
            if let Some(t) = c.writer.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if spawn_conn(shared, stream).is_err() {
                    // Registration or thread spawn failed; the socket just
                    // drops — the peer sees a reset, the engine is untouched.
                    continue;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn spawn_conn(shared: &Arc<Shared>, stream: TcpStream) -> Result<()> {
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(READ_TICK))
        .map_err(|e| TcqError::Ingress(format!("set_read_timeout: {e}")))?;
    let (cid, rx) = shared
        .server
        .connect_queue_client(shared.cfg.client_queue)?;
    let stats = Arc::new(ConnStats {
        conn: conn_id,
        queue: rx.depth(),
        ..ConnStats::default()
    });
    let (ctrl_tx, ctrl_rx) = channel::<WriterMsg>();

    let write_stream = stream
        .try_clone()
        .map_err(|e| TcqError::Ingress(format!("clone stream: {e}")))?;
    let writer = {
        let shared = shared.clone();
        let stats = stats.clone();
        std::thread::Builder::new()
            .name(format!("tcq-net-w{conn_id}"))
            .stack_size(CONN_STACK)
            .spawn(move || writer_loop(&shared, write_stream, &stats, cid, rx, ctrl_rx))
            .map_err(|e| TcqError::Ingress(format!("spawn writer: {e}")))?
    };
    let reader = {
        let shared = shared.clone();
        let stats = stats.clone();
        let stream = stream
            .try_clone()
            .map_err(|e| TcqError::Ingress(format!("clone stream: {e}")))?;
        std::thread::Builder::new()
            .name(format!("tcq-net-r{conn_id}"))
            .stack_size(CONN_STACK)
            .spawn(move || reader_loop(&shared, stream, &stats, cid, conn_id, ctrl_tx))
            .map_err(|e| TcqError::Ingress(format!("spawn reader: {e}")))?
    };

    shared.accepted.fetch_add(1, Ordering::Relaxed);
    shared.conns.lock().push(ConnHandle {
        stats,
        stream,
        reader: Some(reader),
        writer: Some(writer),
    });
    Ok(())
}

/// Reader thread: socket bytes → frames → engine calls. Returns when the
/// peer closes, the stream poisons, a `NetRead` fault fires, or the
/// transport shuts down; always tells the writer to finish.
fn reader_loop(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    stats: &ConnStats,
    cid: ClientId,
    conn_id: u64,
    ctrl: Sender<WriterMsg>,
) {
    let injector = shared.server.injector().cloned();
    let mut decoder = FrameReader::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 64 * 1024];
    'conn: while !shared.shutdown.load(Ordering::SeqCst) {
        let n = match stream.read(&mut tmp) {
            Ok(0) => break 'conn,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break 'conn,
        };
        stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
        buf.extend_from_slice(&tmp[..n]);
        let mut consumed = 0;
        loop {
            match decoder.decode(&buf[consumed..]) {
                Ok(Some((frame, used))) => {
                    consumed += used;
                    stats.frames_read.fetch_add(1, Ordering::Relaxed);
                    // One poll per decoded frame: deterministic in the
                    // peer's frame stream, whatever TCP did to the bytes.
                    if let Some(action) =
                        injector.as_ref().and_then(|i| i.poll(FaultPoint::NetRead))
                    {
                        stats.read_faults.fetch_add(1, Ordering::Relaxed);
                        match action {
                            FaultAction::Stall { ticks } => {
                                std::thread::sleep(Duration::from_millis(ticks));
                            }
                            // Any other action poisons the connection, as
                            // if the peer vanished mid-stream.
                            _ => break 'conn,
                        }
                    }
                    if dispatch(shared, stats, cid, conn_id, frame, &ctrl).is_break() {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(_) => break 'conn, // corrupt stream: poison
            }
        }
        if consumed > 0 {
            buf.drain(..consumed);
        }
    }
    // Reader is done; the writer owns loss accounting and the final close.
    let _ = ctrl.send(WriterMsg::Close);
    let _ = stream.shutdown(Shutdown::Read);
}

fn dispatch(
    shared: &Arc<Shared>,
    stats: &ConnStats,
    cid: ClientId,
    conn_id: u64,
    frame: Frame,
    ctrl: &Sender<WriterMsg>,
) -> std::ops::ControlFlow<()> {
    use std::ops::ControlFlow;
    let server = &shared.server;
    let reply = match frame {
        Frame::Hello { .. } => Some(Frame::Welcome {
            version: WIRE_VERSION,
            conn: conn_id,
        }),
        Frame::Schema { .. } => None, // decoder registered it already
        Frame::Submit { sql } => Some(match server.submit(&sql, cid) {
            Ok(q) => Frame::SubmitOk { query: q as u64 },
            Err(e) => Frame::Error {
                message: e.to_string(),
            },
        }),
        Frame::Subscribe { query } => Some(match server.subscribe_client(cid, query as usize) {
            Ok(()) => Frame::SubscribeOk { query },
            Err(e) => Frame::Error {
                message: e.to_string(),
            },
        }),
        Frame::Ingest { stream, tuples } => {
            stats
                .rows_read
                .fetch_add(tuples.len() as u64, Ordering::Relaxed);
            // Re-anchor rows on the catalog's schema Arc: validates the
            // remote schema against the stream's, and keeps every
            // downstream batch sharing one SchemaRef as in-process pushes
            // do. Blocking push_batch is the backpressure path — a full
            // fjord holds this reader, TCP flow control holds the peer.
            let res = server.catalog().lookup(&stream).and_then(|def| {
                let rows: Result<Vec<_>> = tuples
                    .into_iter()
                    .map(|t| t.reschema(def.schema.clone()))
                    .collect();
                server.push_batch(&stream, rows?)
            });
            match res {
                Ok(()) => None,
                Err(e) => Some(Frame::Error {
                    message: e.to_string(),
                }),
            }
        }
        Frame::IngestEof { stream } => match server.finish_stream(&stream) {
            Ok(()) => None,
            Err(e) => Some(Frame::Error {
                message: e.to_string(),
            }),
        },
        Frame::Punct { stream, ts } => match server.punctuate(&stream, ts) {
            Ok(()) => None,
            Err(e) => Some(Frame::Error {
                message: e.to_string(),
            }),
        },
        Frame::Ping { token } => Some(Frame::Pong { token }),
        Frame::Bye => return ControlFlow::Break(()),
        // Server-to-client frames arriving at the server are a protocol
        // violation; answer and keep the connection (the peer may recover).
        Frame::Welcome { .. }
        | Frame::SubmitOk { .. }
        | Frame::SubscribeOk { .. }
        | Frame::Results { .. }
        | Frame::Pong { .. }
        | Frame::Error { .. } => Some(Frame::Error {
            message: "unexpected server-side frame".into(),
        }),
    };
    if let Some(f) = reply {
        if ctrl.send(WriterMsg::Frame(f)).is_err() {
            return ControlFlow::Break(()); // writer already gone
        }
    }
    ControlFlow::Continue(())
}

/// Writer thread: delivery queue + control replies → coalesced frames →
/// socket. Owns the connection's teardown accounting.
fn writer_loop(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    stats: &ConnStats,
    cid: ClientId,
    rx: DeliveryQueue,
    ctrl: Receiver<WriterMsg>,
) {
    let injector = shared.server.injector().cloned();
    let mut enc = FrameWriter::new();
    let mut out: Vec<u8> = Vec::new();
    // Result rows encoded into `out`: unsent if the write carrying them
    // fails.
    let mut out_rows = 0u64;
    let mut run: Vec<tcq_common::Tuple> = Vec::new();
    let mut run_bytes = 0usize;
    let mut run_q: Option<usize> = None;
    let mut carry: Option<Delivery> = None;
    let mut closing = false; // reader asked us to finish
    let mut kicked = false; // the router dropped our client
    let mut sock_dead = false;
    let mut idle_tick = WRITE_TICK;

    // Encode the staged run as one Results frame (NetWrite polled), then
    // clear it.
    macro_rules! flush_run {
        () => {
            if let Some(q) = run_q.take() {
                let rows = run.len() as u64;
                run_bytes = 0;
                let frame = Frame::Results {
                    query: q as u64,
                    tuples: std::mem::take(&mut run),
                };
                out_rows += stage_frame(&mut enc, &mut out, stats, injector.as_ref(), frame, rows);
            }
        };
    }

    'outer: loop {
        let mut staged = false;
        // Control replies first: a Submit's ack should not wait behind a
        // megabyte of results.
        loop {
            match ctrl.try_recv() {
                Ok(WriterMsg::Frame(f)) => {
                    flush_run!();
                    stage_frame(&mut enc, &mut out, stats, injector.as_ref(), f, 0);
                    staged = true;
                }
                Ok(WriterMsg::Close) => closing = true,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    closing = true;
                    break;
                }
            }
        }
        // Coalesce deliveries: consecutive same-query rows share a frame,
        // frames pack into `out` until the flush threshold.
        while out.len() + run_bytes < WRITE_COALESCE {
            let d = match carry.take() {
                Some(d) => d,
                None => match rx.try_recv() {
                    Ok(d) => d,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        kicked = true;
                        break;
                    }
                },
            };
            if run_q != Some(d.0) {
                flush_run!();
                run_q = Some(d.0);
            }
            run_bytes += tuple_wire_est(&d.1);
            run.push(d.1);
            staged = true;
        }
        flush_run!();
        if !out.is_empty() && !sock_dead {
            if stream.write_all(&out).is_err() {
                sock_dead = true;
                stats.rows_written.fetch_sub(out_rows, Ordering::Relaxed);
            } else {
                stats
                    .bytes_written
                    .fetch_add(out.len() as u64, Ordering::Relaxed);
                out_rows = 0;
            }
            out.clear();
        }
        if kicked || sock_dead || (closing && carry.is_none()) {
            break 'outer;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            closing = true;
            continue;
        }
        if !staged {
            // Idle: park on the delivery queue, backing off toward
            // WRITE_TICK_MAX while nothing arrives; a control frame at
            // worst waits one current tick.
            match rx.recv_timeout(idle_tick) {
                Ok(d) => {
                    carry = Some(d);
                    idle_tick = WRITE_TICK;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    idle_tick = (idle_tick * 2).min(WRITE_TICK_MAX);
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => kicked = true,
            }
        } else {
            idle_tick = WRITE_TICK;
        }
    }

    // Teardown accounting. Rows still queued, carried, staged or in a
    // write that failed were counted `delivered` by the router but never
    // reached the kernel; the router drops the client and counts its queue
    // in one step, so no row can be delivered in between. (A client the
    // router already dropped has an empty, closed queue and nothing
    // staged.)
    let unsent = carry.is_some() as u64 + run.len() as u64 + out_rows;
    let lost = shared.server.disconnect_push_client(cid, rx, unsent);
    stats
        .rows_lost_disconnect
        .fetch_add(lost, Ordering::Relaxed);
    let _ = stream.shutdown(Shutdown::Both);
    shared.closed.fetch_add(1, Ordering::Relaxed);
}

/// Rough encoded size of one tuple, for the coalescing threshold: a
/// tagged value is ~9 bytes except strings (length prefix + bytes), plus
/// the timestamp. Close enough that a staged run tracks real frame bytes
/// even when rows carry kilobyte strings.
fn tuple_wire_est(t: &tcq_common::Tuple) -> usize {
    17 + t
        .values()
        .iter()
        .map(|v| match v {
            tcq_common::Value::Str(s) => 5 + s.len(),
            _ => 9,
        })
        .sum::<usize>()
}

/// Encode one frame carrying `rows` result rows into `out`, polling
/// [`FaultPoint::NetWrite`]: `Stall` delays, any other action drops the
/// frame (rows counted in `rows_dropped_net`). Returns the rows encoded.
fn stage_frame(
    enc: &mut FrameWriter,
    out: &mut Vec<u8>,
    stats: &ConnStats,
    injector: Option<&SharedInjector>,
    frame: Frame,
    rows: u64,
) -> u64 {
    if let Some(action) = injector.and_then(|i| i.poll(FaultPoint::NetWrite)) {
        stats.write_faults.fetch_add(1, Ordering::Relaxed);
        match action {
            FaultAction::Stall { ticks } => {
                std::thread::sleep(Duration::from_millis(ticks));
            }
            _ => {
                stats.rows_dropped_net.fetch_add(rows, Ordering::Relaxed);
                return 0;
            }
        }
    }
    enc.encode(&frame, out);
    stats.frames_written.fetch_add(1, Ordering::Relaxed);
    stats.rows_written.fetch_add(rows, Ordering::Relaxed);
    rows
}
