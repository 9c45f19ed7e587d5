//! Egress operators: result delivery to clients (§4.3).
//!
//! > "Push-based egress operators support interaction where clients are
//! > continually streamed query results, while pull-based egress operators
//! > may log data and support intermittent retrieval of results."
//!
//! The [`EgressRouter`] owns per-client output queues (Figure 5's
//! client-specific output queues in shared memory) and a subscription map
//! from query ids to clients:
//!
//! * **push clients** get a bounded queue streamed to them; when a slow
//!   client's queue fills, results are shed and counted (the paper's QoS
//!   stance: degrade in a controlled, observable fashion). A
//!   [`DeliveryQueue`] ([`EgressRouter::register_queue_client`]) costs the
//!   rows it holds: its bound is a count, not a pre-allocated slab;
//! * **pull clients** get a bounded ring of recent results they can fetch
//!   on reconnect — the PSoup-style "disconnected operation" mode, where
//!   computation is separated from delivery.
//!
//! Slow-client resilience: a full push channel sheds the copy at once (the
//! router never waits on a client), and under an [`EgressPolicy`] with
//! `disconnect_after` set, a client whose deliveries fail that many times
//! in a row is forcibly disconnected and counted, so one dead client can
//! never wedge a shared eddy. Every delivery offer is accounted
//! in [`EgressStats`]: `delivered + shed + displaced + disconnected_loss ==
//! offered`, always.
//!
//! Producers hand the router one batch at a time: a dispatch unit opens
//! one [`EgressRouter::session`] (or calls [`EgressRouter::deliver_batch`])
//! per drained input batch, so the router lock is taken once per batch
//! while the ledger is still charged per (row, client) offer, in row order.
//!
//! Teardown ledger rule: a transport closing a push client hands its
//! delivery queue back through [`EgressRouter::disconnect_push_client`].
//! The client is dropped and its still-queued rows counted under one lock
//! hold, so every row charged `delivered` either reached the transport or
//! is reclassified as `disconnected_loss` — no offer can land between the
//! count and the drop.

#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvError, RecvTimeoutError, Sender, SyncSender, TryRecvError,
    TrySendError,
};
use std::sync::Arc;
use std::time::Duration;
use tcq_common::sync::Mutex;

use tcq_common::{
    CkptReader, CkptWriter, ColumnBatch, FaultAction, FaultPoint, IdList, Result, SharedInjector,
    TcqError, Tuple,
};

/// Client identifier.
pub type ClientId = u64;
/// Query identifier (matches the executor's query ids).
pub type QueryId = usize;

/// A result delivered to a client: which query it answers, and the tuple.
pub type Delivery = (QueryId, Tuple);

/// A batched result delivered to a column client: which query it answers,
/// and a columnar batch of result rows ([`EgressRouter::register_column_client`]).
pub type ColumnDelivery = (QueryId, ColumnBatch);

/// Slow-client handling knobs (§4.3's QoS stance applied at the egress
/// boundary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EgressPolicy {
    /// After this many *consecutive* failed deliveries a push client is
    /// declared stuck and forcibly disconnected. `0` disables forced
    /// disconnection (the default: shed-and-keep, the pre-policy
    /// behaviour).
    pub disconnect_after: u32,
}

/// Exact per-router delivery accounting. Invariant (checked by
/// [`EgressStats::accounted`]): every offer ends in exactly one bucket,
/// `delivered + shed + displaced + disconnected_loss == offered`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EgressStats {
    /// Delivery offers made: one per (tuple, subscribed client) pair.
    pub offered: u64,
    /// Offers currently delivered (buffered or streamed). A pull-buffer
    /// victim later rotated out moves from here to `displaced`.
    pub delivered: u64,
    /// Push copies dropped on a full channel or an injected delivery
    /// fault.
    pub shed: u64,
    /// Pull/prioritized buffer entries rotated out to make room.
    pub displaced: u64,
    /// Clients forcibly disconnected (stuck past `disconnect_after`, or
    /// found dead mid-delivery).
    pub disconnected: u64,
    /// Offers lost because the client was dead or declared stuck.
    pub disconnected_loss: u64,
}

impl EgressStats {
    /// True when every offer is accounted for — the router's core
    /// invariant.
    pub fn accounted(&self) -> bool {
        self.delivered + self.shed + self.displaced + self.disconnected_loss == self.offered
    }

    /// Checkpoint-codec encoding of the ledger (see
    /// [`EgressStats::decode`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.put_u64(self.offered);
        w.put_u64(self.delivered);
        w.put_u64(self.shed);
        w.put_u64(self.displaced);
        w.put_u64(self.disconnected);
        w.put_u64(self.disconnected_loss);
        w.into_bytes()
    }

    /// Decode a ledger encoded by [`EgressStats::encode`].
    pub fn decode(bytes: &[u8]) -> Result<EgressStats> {
        let mut r = CkptReader::new(bytes);
        Ok(EgressStats {
            offered: r.get_u64("egress offered")?,
            delivered: r.get_u64("egress delivered")?,
            shed: r.get_u64("egress shed")?,
            displaced: r.get_u64("egress displaced")?,
            disconnected: r.get_u64("egress disconnected")?,
            disconnected_loss: r.get_u64("egress disconnected_loss")?,
        })
    }
}

/// The receiving end of a push client registered with
/// [`EgressRouter::register_queue_client`]: a bounded delivery queue whose
/// memory follows the rows it holds.
///
/// Rows travel over std's unbounded `channel()`, which allocates 31-slot
/// blocks as rows arrive and frees each block once it is drained. The bound
/// is an occupancy count shared with the router: the router admits a row
/// only while the count is below the capacity, and every row taken here
/// decrements it. Nothing is allocated up front, so an idle connection
/// costs no slab of slots, whatever its capacity.
#[derive(Debug)]
pub struct DeliveryQueue {
    rx: Receiver<Delivery>,
    queued: Arc<AtomicUsize>,
}

impl DeliveryQueue {
    /// Take a row if one is queued.
    pub fn try_recv(&self) -> std::result::Result<Delivery, TryRecvError> {
        self.took(self.rx.try_recv())
    }

    /// Block until a row arrives or the router drops the client.
    pub fn recv(&self) -> std::result::Result<Delivery, RecvError> {
        self.took(self.rx.recv())
    }

    /// Block for at most `timeout` waiting for a row.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> std::result::Result<Delivery, RecvTimeoutError> {
        self.took(self.rx.recv_timeout(timeout))
    }

    /// Rows in the queue now.
    pub fn len(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// True when no row is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A read-only handle on this queue's occupancy count, for observers
    /// that do not own the queue.
    pub fn depth(&self) -> QueueDepth {
        QueueDepth(self.queued.clone())
    }

    fn took<E>(&self, r: std::result::Result<Delivery, E>) -> std::result::Result<Delivery, E> {
        if r.is_ok() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
        r
    }
}

/// Read-only view of a [`DeliveryQueue`]'s occupancy count
/// ([`DeliveryQueue::depth`]). The default reads zero forever.
#[derive(Debug, Clone, Default)]
pub struct QueueDepth(Arc<AtomicUsize>);

impl QueueDepth {
    /// Rows in the queue now.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// A push client's receiving end, handed back to
/// [`EgressRouter::disconnect_push_client`] when its transport closes.
pub trait PushQueue {
    /// Rows still queued. Called under the router lock after the client's
    /// sending end is gone, so no row can arrive while it counts.
    fn queued(&self) -> u64;
}

impl PushQueue for Receiver<Delivery> {
    fn queued(&self) -> u64 {
        self.try_iter().count() as u64
    }
}

impl PushQueue for DeliveryQueue {
    fn queued(&self) -> u64 {
        self.len() as u64
    }
}

/// The sending end of a push client's delivery queue.
enum PushTx {
    /// A [`DeliveryQueue`]'s unbounded channel, bounded by its count.
    Counted {
        tx: Sender<Delivery>,
        queued: Arc<AtomicUsize>,
        capacity: usize,
    },
    /// A `sync_channel`, which allocates all `capacity` slots up front.
    /// This arm exists only because [`EgressRouter::register_push_client`]
    /// hands out a `std::sync::mpsc::Receiver<Delivery>`, which the
    /// benchmark binds.
    Bounded(SyncSender<Delivery>),
}

impl PushTx {
    fn try_send(&self, d: Delivery) -> std::result::Result<(), TrySendError<Delivery>> {
        match self {
            PushTx::Bounded(tx) => tx.try_send(d),
            PushTx::Counted {
                tx,
                queued,
                capacity,
            } => {
                // The router sends only under its lock, so it is the one
                // producer: between this check and the increment the count
                // can only fall, and it never exceeds `capacity`. The count
                // publishes no other data (the channel carries the row), so
                // Relaxed suffices.
                if queued.load(Ordering::Relaxed) >= *capacity {
                    return Err(TrySendError::Full(d));
                }
                // Counted before the send: the receiver's decrement for
                // this row follows its receipt, which follows the send.
                queued.fetch_add(1, Ordering::Relaxed);
                tx.send(d).map_err(|e| {
                    queued.fetch_sub(1, Ordering::Relaxed);
                    TrySendError::Disconnected(e.0)
                })
            }
        }
    }
}

enum ClientState {
    Push {
        tx: PushTx,
        /// Consecutive failed deliveries (reset on success).
        failures: u32,
    },
    /// A push client that receives whole [`ColumnBatch`]es instead of
    /// per-row [`Delivery`] messages. Offers are still made (and faults
    /// polled) per row, in the same order row clients see them, but
    /// surviving rows accumulate into one pending batch per delivery
    /// session and hit the channel once — the columnar hot path never
    /// materializes per-row tuples for these clients.
    ColumnPush {
        tx: SyncSender<ColumnDelivery>,
        /// Consecutive failed deliveries (reset on success).
        failures: u32,
    },
    Pull {
        buffer: VecDeque<Delivery>,
        capacity: usize,
    },
    /// A pull client with Juggle-style prioritized retrieval (\[RRH99\]):
    /// fetch returns the most *interesting* buffered results first, and
    /// overflow sheds the least interesting — user preferences pushed down
    /// into result delivery (§4.3).
    Prioritized { buffer: PriorityBuffer },
}

/// Monotone map from f64 to u64 (IEEE-754 total-order trick), so floats can
/// key a BTreeMap.
fn f64_order_key(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Bounded best-first buffer: keeps the `capacity` highest-priority
/// deliveries, fetches best-first, sheds worst-first on overflow.
struct PriorityBuffer {
    priority: Box<dyn Fn(&Tuple) -> f64 + Send>,
    /// (priority key, arrival) -> delivery; iteration order = worst..best.
    entries: std::collections::BTreeMap<(u64, u64), Delivery>,
    capacity: usize,
    next_arrival: u64,
}

impl PriorityBuffer {
    fn new(capacity: usize, priority: Box<dyn Fn(&Tuple) -> f64 + Send>) -> Self {
        PriorityBuffer {
            priority,
            entries: std::collections::BTreeMap::new(),
            capacity: capacity.max(1),
            next_arrival: 0,
        }
    }

    /// Insert; returns true if something (the incoming delivery or a worse
    /// buffered one) was shed.
    fn insert(&mut self, delivery: Delivery) -> bool {
        let p = f64_order_key((self.priority)(&delivery.1));
        // Later arrivals sort below earlier ones at equal priority, so
        // fetch is FIFO within a priority level.
        let arrival = u64::MAX - self.next_arrival;
        self.next_arrival += 1;
        self.entries.insert((p, arrival), delivery);
        if self.entries.len() > self.capacity {
            self.entries.pop_first();
            true
        } else {
            false
        }
    }

    /// Drop the worst buffered delivery; true if one existed.
    fn evict_worst(&mut self) -> bool {
        self.entries.pop_first().is_some()
    }

    /// Remove and return up to `max` deliveries, best first.
    fn fetch(&mut self, max: usize) -> Vec<Delivery> {
        let mut out = Vec::with_capacity(self.entries.len().min(max));
        while out.len() < max {
            match self.entries.pop_last() {
                Some((_, d)) => out.push(d),
                None => break,
            }
        }
        out
    }
}

/// One delivery offer's payload: a materialized row, or one row of a
/// columnar batch. `Col` carries an optional pre-materialized tuple —
/// filled once per row by the caller when at least one subscribed client
/// needs rows, so row clients never pay a per-(row, client)
/// materialization and column-only fan-outs pay none at all.
enum Offer<'a> {
    Row(&'a Tuple),
    Col {
        batch: &'a ColumnBatch,
        row: usize,
        tuple: Option<&'a Tuple>,
    },
}

impl Offer<'_> {
    /// The row as a tuple, for clients that consume rows.
    fn to_tuple(&self) -> Tuple {
        match self {
            Offer::Row(t) => (*t).clone(),
            Offer::Col { tuple: Some(t), .. } => (*t).clone(),
            Offer::Col {
                batch,
                row,
                tuple: None,
            } => batch.tuple_at(*row),
        }
    }
}

/// Rows accumulated for one column client during a delivery session,
/// flushed as a single channel message when the session ends (or earlier,
/// if a row-shaped chunk or a schema change forces the order to be kept).
struct PendingColumns {
    client: ClientId,
    query: QueryId,
    batch: ColumnBatch,
}

struct RouterInner {
    clients: HashMap<ClientId, ClientState>,
    /// Each query's subscribers; a query's lone subscriber is held inline.
    by_query: HashMap<QueryId, IdList<ClientId>>,
    stats: EgressStats,
    policy: EgressPolicy,
    injector: Option<SharedInjector>,
    /// Reusable subscriber snapshot for [`RouterInner::deliver_locked`]:
    /// fanning out borrows `clients` mutably, so the subscriber list is
    /// copied here first — into a recycled buffer rather than a fresh
    /// `Vec` per offer (one offer per *row* on the hot path).
    subs_scratch: Vec<ClientId>,
}

impl RouterInner {
    /// Remove a client and its subscriptions; true if it existed.
    fn drop_client(&mut self, client: ClientId) -> bool {
        let existed = self.clients.remove(&client).is_some();
        self.by_query.retain(|_, subs| !subs.remove(client));
        existed
    }

    /// One tuple's full fan-out, under an already-held router lock. This is
    /// the single definition of delivery semantics: `deliver_batch` and
    /// every session chunk replay it tuple by tuple, so fault-poll order,
    /// per-offer outcomes, and disconnection timing do not depend on how a
    /// caller splits its rows into calls.
    fn deliver_locked<I: IntoIterator<Item = QueryId>>(
        &mut self,
        queries: I,
        offer: Offer<'_>,
        pending: &mut Vec<PendingColumns>,
    ) {
        let policy = self.policy;
        // Clients found dead or stuck during this fan-out; removed after
        // the loop so accounting stays per-offer.
        let mut dead: Vec<ClientId> = Vec::new();
        let mut subs = std::mem::take(&mut self.subs_scratch);
        for q in queries {
            let Some(s) = self.by_query.get(&q) else {
                continue;
            };
            subs.clear();
            subs.extend_from_slice(s.as_slice());
            for &cid in &subs {
                let Some(state) = self.clients.get_mut(&cid) else {
                    continue;
                };
                self.stats.offered += 1;
                let fault = self
                    .injector
                    .as_ref()
                    .and_then(|i| i.poll(FaultPoint::EgressDeliver));
                match fault {
                    Some(FaultAction::Stall { .. }) => {
                        // The client is stuck. With disconnection enabled it
                        // is dropped immediately; otherwise the copy sheds.
                        if policy.disconnect_after > 0 {
                            self.stats.disconnected_loss += 1;
                            dead.push(cid);
                        } else {
                            self.stats.shed += 1;
                        }
                        continue;
                    }
                    Some(FaultAction::Error(_)) | Some(FaultAction::Overflow) => {
                        // The offer fails as if the client's buffer were
                        // full; failure streaks still count toward
                        // disconnection.
                        self.stats.shed += 1;
                        if let ClientState::Push { failures, .. }
                        | ClientState::ColumnPush { failures, .. } = state
                        {
                            *failures += 1;
                            if policy.disconnect_after > 0 && *failures >= policy.disconnect_after {
                                dead.push(cid);
                            }
                        }
                        continue;
                    }
                    _ => {}
                }
                if matches!(state, ClientState::ColumnPush { .. }) {
                    self.offer_column(cid, q, &offer, pending, &mut dead);
                    continue;
                }
                match state {
                    ClientState::Push { tx, failures } => {
                        match tx.try_send((q, offer.to_tuple())) {
                            Ok(()) => {
                                self.stats.delivered += 1;
                                *failures = 0;
                            }
                            Err(TrySendError::Full(_)) => {
                                self.stats.shed += 1;
                                *failures += 1;
                                if policy.disconnect_after > 0
                                    && *failures >= policy.disconnect_after
                                {
                                    dead.push(cid);
                                }
                            }
                            Err(TrySendError::Disconnected(_)) => {
                                self.stats.disconnected_loss += 1;
                                dead.push(cid);
                            }
                        }
                    }
                    ClientState::ColumnPush { .. } => unreachable!("handled above"),
                    ClientState::Pull { buffer, capacity } => {
                        let forced = self.injector.as_ref().is_some_and(|i| {
                            matches!(
                                i.poll(FaultPoint::FjordEnqueue),
                                Some(FaultAction::Overflow)
                            )
                        });
                        if buffer.len() >= *capacity || (forced && !buffer.is_empty()) {
                            buffer.pop_front();
                            // The victim moves from delivered to displaced.
                            self.stats.displaced += 1;
                            self.stats.delivered -= 1;
                        }
                        buffer.push_back((q, offer.to_tuple()));
                        self.stats.delivered += 1;
                    }
                    ClientState::Prioritized { buffer } => {
                        let forced = self.injector.as_ref().is_some_and(|i| {
                            matches!(
                                i.poll(FaultPoint::FjordEnqueue),
                                Some(FaultAction::Overflow)
                            )
                        });
                        if forced && buffer.evict_worst() {
                            self.stats.displaced += 1;
                            self.stats.delivered -= 1;
                        }
                        if buffer.insert((q, offer.to_tuple())) {
                            self.stats.displaced += 1;
                            self.stats.delivered -= 1;
                        }
                        self.stats.delivered += 1;
                    }
                }
            }
        }
        self.subs_scratch = subs;
        for cid in dead {
            if self.drop_client(cid) {
                self.stats.disconnected += 1;
            }
        }
    }

    /// One already-offered row for a column client: append it to the
    /// client's pending batch (started lazily, flushed when the session
    /// ends). A row-shaped offer, or a columnar offer whose schema differs
    /// from the pending batch, flushes first so the client's stream stays
    /// in delivery order.
    fn offer_column(
        &mut self,
        cid: ClientId,
        q: QueryId,
        offer: &Offer<'_>,
        pending: &mut Vec<PendingColumns>,
        dead: &mut Vec<ClientId>,
    ) {
        let slot = pending.iter().position(|p| p.client == cid && p.query == q);
        match offer {
            Offer::Col { batch, row, .. } => {
                if let Some(i) = slot {
                    if Arc::ptr_eq(pending[i].batch.schema(), batch.schema()) {
                        pending[i].batch.push_row_from(batch, *row);
                        return;
                    }
                    let done = pending.remove(i);
                    self.flush_one(done, dead);
                }
                // Sized for the rest of the source batch: the session
                // feeds rows in order, so at most `len - row` more
                // appends land here before the flush.
                let mut b = ColumnBatch::with_capacity(batch.schema().clone(), batch.len() - *row);
                b.push_row_from(batch, *row);
                pending.push(PendingColumns {
                    client: cid,
                    query: q,
                    batch: b,
                });
            }
            Offer::Row(_) => {
                if let Some(i) = slot {
                    let done = pending.remove(i);
                    self.flush_one(done, dead);
                }
                let tuple = offer.to_tuple();
                let batch = ColumnBatch::from_tuples(
                    tuple.schema().clone(),
                    std::slice::from_ref(&tuple),
                    None,
                );
                self.flush_one(
                    PendingColumns {
                        client: cid,
                        query: q,
                        batch,
                    },
                    dead,
                );
            }
        }
    }

    /// Send one pending columnar batch to its client, charging every row
    /// in it to exactly one ledger bucket (the rows were already counted
    /// as offered). Shed and disconnect semantics mirror the row push
    /// client's, scaled to the batch's row count.
    fn flush_one(&mut self, p: PendingColumns, dead: &mut Vec<ClientId>) {
        let n = p.batch.len() as u64;
        if n == 0 {
            return;
        }
        let policy = self.policy;
        let cid = p.client;
        let Some(ClientState::ColumnPush { tx, failures }) = self.clients.get_mut(&cid) else {
            // The client vanished mid-session (disconnected by an earlier
            // chunk, or dropped by the user); its buffered rows are lost.
            self.stats.disconnected_loss += n;
            return;
        };
        match tx.try_send((p.query, p.batch)) {
            Ok(()) => {
                self.stats.delivered += n;
                *failures = 0;
            }
            Err(TrySendError::Full(_)) => {
                self.stats.shed += n;
                *failures += 1;
                if policy.disconnect_after > 0 && *failures >= policy.disconnect_after {
                    dead.push(cid);
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                self.stats.disconnected_loss += n;
                dead.push(cid);
            }
        }
    }

    /// Flush every pending columnar batch and drop clients found dead
    /// while flushing. Called when a delivery session ends.
    fn flush_session(&mut self, pending: &mut Vec<PendingColumns>) {
        let mut dead: Vec<ClientId> = Vec::new();
        for p in pending.drain(..) {
            self.flush_one(p, &mut dead);
        }
        for cid in dead {
            if self.drop_client(cid) {
                self.stats.disconnected += 1;
            }
        }
    }
}

/// Routes `(tuple, query ids)` outputs to subscribed clients.
///
/// Clonable handle; clones share the router (listener thread and executor
/// thread both touch it, as in Figure 5).
#[derive(Clone)]
pub struct EgressRouter {
    inner: Arc<Mutex<RouterInner>>,
}

impl Default for EgressRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl EgressRouter {
    /// An empty router with the default (never-disconnect) policy.
    pub fn new() -> Self {
        EgressRouter {
            inner: Arc::new(Mutex::new(RouterInner {
                clients: HashMap::new(),
                by_query: HashMap::new(),
                subs_scratch: Vec::new(),
                stats: EgressStats::default(),
                policy: EgressPolicy::default(),
                injector: None,
            })),
        }
    }

    /// Set the slow-client policy (builder form).
    pub fn with_policy(self, policy: EgressPolicy) -> Self {
        self.inner.lock().policy = policy;
        self
    }

    /// Attach a chaos injector: every delivery offer polls
    /// [`FaultPoint::EgressDeliver`], and every pull/prioritized buffer
    /// insert polls [`FaultPoint::FjordEnqueue`].
    pub fn attach_injector(&self, injector: SharedInjector) {
        self.inner.lock().injector = Some(injector);
    }

    /// Add a client, refusing an id already registered.
    fn register(&self, id: ClientId, state: ClientState) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.clients.contains_key(&id) {
            return Err(TcqError::Capacity(format!(
                "client {id} already registered"
            )));
        }
        inner.clients.insert(id, state);
        Ok(())
    }

    /// Register a push client with a bounded stream of `capacity` results.
    /// Returns the receiving end, a `sync_channel` that allocates all
    /// `capacity` slots now; [`EgressRouter::register_queue_client`] is the
    /// same client at the cost of the rows it holds.
    ///
    /// Registering touches `capacity × (8 + size_of::<Delivery>())` bytes
    /// at once: each slot is an 8-byte stamp beside a 64-byte [`Delivery`]
    /// (pinned by `a_delivery_is_at_most_64_bytes`), 2.25 MiB for 32 768
    /// slots. A [`DeliveryQueue`] allocates only per row it holds.
    pub fn register_push_client(
        &self,
        id: ClientId,
        capacity: usize,
    ) -> Result<Receiver<Delivery>> {
        let (tx, rx) = sync_channel(capacity.max(1));
        self.register(
            id,
            ClientState::Push {
                tx: PushTx::Bounded(tx),
                failures: 0,
            },
        )?;
        Ok(rx)
    }

    /// Register a push client whose [`DeliveryQueue`] holds at most
    /// `capacity` results. Offers past that shed exactly as a full
    /// [`EgressRouter::register_push_client`] channel's do, but the queue
    /// allocates only as rows arrive and frees them as they are taken.
    pub fn register_queue_client(&self, id: ClientId, capacity: usize) -> Result<DeliveryQueue> {
        let (tx, rx) = channel();
        let queued = Arc::new(AtomicUsize::new(0));
        self.register(
            id,
            ClientState::Push {
                tx: PushTx::Counted {
                    tx,
                    queued: queued.clone(),
                    capacity: capacity.max(1),
                },
                failures: 0,
            },
        )?;
        Ok(DeliveryQueue { rx, queued })
    }

    /// Register a column push client: a bounded stream of whole
    /// [`ColumnBatch`]es. Delivery offers (and fault polls, and the
    /// ledger) are still per row — identical to a row push client's — but
    /// surviving rows reach the channel as one batch per delivery session
    /// instead of one message per row, and no per-row [`Tuple`] is ever
    /// materialized for this client. The columnar hot path's terminal
    /// stage.
    pub fn register_column_client(
        &self,
        id: ClientId,
        capacity: usize,
    ) -> Result<Receiver<ColumnDelivery>> {
        let (tx, rx) = sync_channel(capacity.max(1));
        self.register(id, ClientState::ColumnPush { tx, failures: 0 })?;
        Ok(rx)
    }

    /// Register a pull client whose results are *prioritized* rather than
    /// FIFO: `priority` scores each tuple, and [`EgressRouter::fetch`]
    /// returns the highest-scoring buffered results first. This is the
    /// Juggle operator (\[RRH99\]) applied at the egress boundary — "pushing
    /// user preferences down into the query execution process" (§4.3).
    pub fn register_prioritized_client(
        &self,
        id: ClientId,
        capacity: usize,
        priority: Box<dyn Fn(&Tuple) -> f64 + Send>,
    ) -> Result<()> {
        self.register(
            id,
            ClientState::Prioritized {
                buffer: PriorityBuffer::new(capacity, priority),
            },
        )
    }

    /// Register a pull client buffering up to `capacity` recent results.
    pub fn register_pull_client(&self, id: ClientId, capacity: usize) -> Result<()> {
        self.register(
            id,
            ClientState::Pull {
                buffer: VecDeque::new(),
                capacity: capacity.max(1),
            },
        )
    }

    /// Subscribe a client to a query's results.
    pub fn subscribe(&self, client: ClientId, query: QueryId) -> Result<()> {
        let mut inner = self.inner.lock();
        if !inner.clients.contains_key(&client) {
            return Err(TcqError::Executor(format!("unknown client {client}")));
        }
        match inner.by_query.get_mut(&query) {
            Some(subs) if !subs.as_slice().contains(&client) => subs.push(client),
            Some(_) => {}
            None => {
                inner.by_query.insert(query, IdList::One(client));
            }
        }
        Ok(())
    }

    /// Remove a subscription (no-op if absent).
    pub fn unsubscribe(&self, client: ClientId, query: QueryId) {
        let mut inner = self.inner.lock();
        if inner
            .by_query
            .get_mut(&query)
            .is_some_and(|subs| subs.remove(client))
        {
            inner.by_query.remove(&query);
        }
    }

    /// Drop every client's subscription to `query`: a stopped query has no
    /// more results to route.
    pub fn forget_query(&self, query: QueryId) {
        self.inner.lock().by_query.remove(&query);
    }

    /// Queries with at least one subscribed client.
    pub fn subscribed_queries(&self) -> usize {
        self.inner.lock().by_query.len()
    }

    /// Drop a client and all its subscriptions.
    pub fn disconnect(&self, client: ClientId) {
        self.inner.lock().drop_client(client);
    }

    /// Drop a push client whose transport is going away, handing in its
    /// delivery queue (`queue`) and the rows the transport had already
    /// taken off it but not written (`unsent`). Every row still queued or
    /// unsent was counted `delivered` when it entered the channel, but the
    /// peer never read it — a TCP socket that drops mid-batch takes its
    /// backlog with it — so those offers move from `delivered` to
    /// `disconnected_loss`, and the ledger invariant keeps describing what
    /// the client actually *received*. Dropping the client and counting
    /// its queue happen under one router lock hold, so no offer can land
    /// in the queue in between and be charged `delivered` for a row that
    /// is dropped with it. A client that leaves with nothing undelivered
    /// departs cleanly (not counted in `disconnected`). The loss is clamped
    /// to the delivered count so a caller over-reporting `unsent` cannot
    /// break the invariant. Returns the rows reclassified.
    pub fn disconnect_push_client(
        &self,
        client: ClientId,
        queue: impl PushQueue,
        unsent: u64,
    ) -> u64 {
        let mut inner = self.inner.lock();
        let existed = inner.drop_client(client);
        let queued = queue.queued();
        let lost = (unsent + queued).min(inner.stats.delivered);
        if lost > 0 {
            if existed {
                inner.stats.disconnected += 1;
            }
            inner.stats.delivered -= lost;
            inner.stats.disconnected_loss += lost;
        }
        lost
    }

    /// Deliver a batch of result tuples for the queries in `queries`,
    /// fanning each out to every subscribed client under one router lock:
    /// a one-chunk [`EgressRouter::session`]. The ledger is charged per
    /// (tuple, client) offer, in tuple order — fault polls, per-offer
    /// outcomes and stuck-client disconnection timing included — so how
    /// rows are split into batches never changes what a seeded run
    /// delivers. Slow or absent clients shed (push: one non-blocking
    /// attempt per copy) or rotate (pull) — delivery never blocks the
    /// executor, and a slow client never slows another — and a client
    /// stuck past `disconnect_after` consecutive failures is forcibly
    /// disconnected and counted.
    pub fn deliver_batch<I>(&self, queries: I, tuples: &[Tuple])
    where
        I: IntoIterator<Item = QueryId>,
        I::IntoIter: Clone,
    {
        if !tuples.is_empty() {
            self.session().deliver_rows(queries, tuples);
        }
    }

    /// Begin a multi-chunk delivery session: the router lock is taken
    /// once and held for the session's lifetime, and column clients' rows accumulate across chunks into one channel
    /// message, flushed when the session drops. A session delivering the
    /// same rows as one `deliver_batch` call charges the ledger
    /// identically, whether the rows arrive as row chunks, columnar
    /// chunks, or a mix.
    pub fn session(&self) -> DeliverySession<'_> {
        DeliverySession {
            inner: self.inner.lock(),
            pending: Vec::new(),
        }
    }

    /// Pull client: fetch up to `max` buffered results (oldest first).
    pub fn fetch(&self, client: ClientId, max: usize) -> Result<Vec<Delivery>> {
        let mut inner = self.inner.lock();
        match inner.clients.get_mut(&client) {
            Some(ClientState::Pull { buffer, .. }) => {
                let n = buffer.len().min(max);
                Ok(buffer.drain(..n).collect())
            }
            Some(ClientState::Prioritized { buffer, .. }) => Ok(buffer.fetch(max)),
            Some(ClientState::Push { .. }) | Some(ClientState::ColumnPush { .. }) => {
                Err(TcqError::Executor(format!(
                    "client {client} is a push client; fetch is for pull clients"
                )))
            }
            None => Err(TcqError::Executor(format!("unknown client {client}"))),
        }
    }

    /// Full delivery accounting.
    pub fn egress_stats(&self) -> EgressStats {
        self.inner.lock().stats
    }

    /// Seed the delivery ledger from a checkpoint. A restored server
    /// starts its router from the pre-crash ledger, so the accounting
    /// invariant (`delivered + shed + displaced + disconnected_loss ==
    /// offered`) spans the outage instead of resetting to zero.
    pub fn seed_stats(&self, stats: EgressStats) {
        self.inner.lock().stats = stats;
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.inner.lock().clients.len()
    }
}

/// A multi-chunk delivery session ([`EgressRouter::session`]): one router
/// lock and per-column-client pending
/// batches spanning every chunk delivered through it. Dropping the
/// session flushes pending columnar batches to their clients.
pub struct DeliverySession<'a> {
    inner: tcq_common::sync::MutexGuard<'a, RouterInner>,
    pending: Vec<PendingColumns>,
}

impl DeliverySession<'_> {
    /// Deliver a chunk of row results, exactly as
    /// [`EgressRouter::deliver_batch`] would.
    pub fn deliver_rows<I>(&mut self, queries: I, tuples: &[Tuple])
    where
        I: IntoIterator<Item = QueryId>,
        I::IntoIter: Clone,
    {
        let queries = queries.into_iter();
        for tuple in tuples {
            self.inner
                .deliver_locked(queries.clone(), Offer::Row(tuple), &mut self.pending);
        }
    }

    /// Deliver a columnar chunk. The ledger is charged per (row, client)
    /// offer in the exact order delivering `batch.tuple_at(row)` one row
    /// at a time would charge it; row clients receive materialized
    /// tuples (built once per row, shared across clients), and column
    /// clients receive the rows batched. When every subscribed client is
    /// a column client, no per-row tuple is materialized at all.
    pub fn deliver_columns<I>(&mut self, queries: I, batch: &ColumnBatch)
    where
        I: IntoIterator<Item = QueryId>,
        I::IntoIter: Clone,
    {
        if batch.is_empty() {
            return;
        }
        let queries = queries.into_iter();
        let needs_rows = queries.clone().any(|q| {
            self.inner.by_query.get(&q).is_some_and(|subs| {
                subs.as_slice().iter().any(|cid| {
                    !matches!(
                        self.inner.clients.get(cid),
                        Some(ClientState::ColumnPush { .. }) | None
                    )
                })
            })
        });
        for row in 0..batch.len() {
            let tuple = if needs_rows {
                Some(batch.tuple_at(row))
            } else {
                None
            };
            self.inner.deliver_locked(
                queries.clone(),
                Offer::Col {
                    batch,
                    row,
                    tuple: tuple.as_ref(),
                },
                &mut self.pending,
            );
        }
    }
}

impl Drop for DeliverySession<'_> {
    fn drop(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        self.inner.flush_session(&mut pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, TupleBuilder};

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("x", DataType::Int)]).into_ref()
    }

    fn t(x: i64) -> Tuple {
        TupleBuilder::new(schema())
            .push(x)
            .at(Timestamp::logical(x))
            .build()
            .unwrap()
    }

    /// A bounded push client pre-builds one `(stamp, Delivery)` slot per
    /// row of capacity, so this size is that client's footprint.
    #[test]
    fn a_delivery_is_at_most_64_bytes() {
        assert_eq!(std::mem::size_of::<Timestamp>(), 16);
        assert!(std::mem::size_of::<Tuple>() <= 56);
        assert!(std::mem::size_of::<Delivery>() <= 64);
    }

    #[test]
    fn push_delivery_fans_out_by_subscription() {
        let r = EgressRouter::new();
        let rx1 = r.register_push_client(1, 16).unwrap();
        let rx2 = r.register_push_client(2, 16).unwrap();
        r.subscribe(1, 100).unwrap();
        r.subscribe(2, 200).unwrap();
        r.deliver_batch([100usize], &[t(1)]);
        r.deliver_batch([200usize], &[t(2)]);
        r.deliver_batch([100usize, 200], &[t(3)]);
        let got1: Vec<_> = rx1.try_iter().collect();
        let got2: Vec<_> = rx2.try_iter().collect();
        assert_eq!(got1.len(), 2);
        assert!(got1.iter().all(|(q, _)| *q == 100));
        assert_eq!(got2.len(), 2);
    }

    #[test]
    fn slow_push_client_sheds_not_blocks() {
        let r = EgressRouter::new();
        let _rx = r.register_push_client(1, 2).unwrap();
        r.subscribe(1, 5).unwrap();
        for i in 0..10 {
            r.deliver_batch([5usize], &[t(i)]);
        }
        let s = r.egress_stats();
        assert_eq!(s.delivered, 2);
        assert_eq!(s.shed, 8);
    }

    #[test]
    fn pull_client_intermittent_fetch() {
        let r = EgressRouter::new();
        r.register_pull_client(7, 100).unwrap();
        r.subscribe(7, 1).unwrap();
        for i in 0..5 {
            r.deliver_batch([1usize], &[t(i)]);
        }
        // client reconnects and fetches
        let first = r.fetch(7, 3).unwrap();
        assert_eq!(first.len(), 3);
        assert_eq!(first[0].1, t(0));
        let rest = r.fetch(7, 100).unwrap();
        assert_eq!(rest.len(), 2);
        assert!(r.fetch(7, 10).unwrap().is_empty());
    }

    #[test]
    fn pull_buffer_rotates_oldest_out() {
        let r = EgressRouter::new();
        r.register_pull_client(7, 3).unwrap();
        r.subscribe(7, 1).unwrap();
        for i in 0..10 {
            r.deliver_batch([1usize], &[t(i)]);
        }
        let got = r.fetch(7, 10).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].1, t(7), "oldest results rotated out");
        assert_eq!(r.egress_stats().displaced, 7);
    }

    #[test]
    fn disconnect_cleans_subscriptions() {
        let r = EgressRouter::new();
        r.register_pull_client(1, 4).unwrap();
        r.subscribe(1, 9).unwrap();
        r.disconnect(1);
        assert_eq!(r.client_count(), 0);
        // delivering to the orphaned query is a no-op
        r.deliver_batch([9usize], &[t(0)]);
        assert!(r.fetch(1, 1).is_err());
    }

    #[test]
    fn duplicate_registration_and_wrong_mode_errors() {
        let r = EgressRouter::new();
        r.register_pull_client(1, 4).unwrap();
        assert!(r.register_pull_client(1, 4).is_err());
        assert!(r.register_push_client(1, 4).is_err());
        let _rx = r.register_push_client(2, 4).unwrap();
        assert!(r.fetch(2, 1).is_err());
        assert!(r.subscribe(99, 1).is_err());
    }

    #[test]
    fn forget_query_drops_every_subscription_to_it() {
        let r = EgressRouter::new();
        r.register_pull_client(1, 10).unwrap();
        r.register_pull_client(2, 10).unwrap();
        r.subscribe(1, 5).unwrap();
        r.subscribe(2, 5).unwrap();
        r.subscribe(1, 6).unwrap();
        assert_eq!(r.subscribed_queries(), 2);
        r.forget_query(5);
        assert_eq!(r.subscribed_queries(), 1);
        r.deliver_batch([5usize], &[t(1)]);
        assert_eq!(r.egress_stats().offered, 0, "nobody is subscribed to 5");
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let r = EgressRouter::new();
        r.register_pull_client(1, 10).unwrap();
        r.subscribe(1, 5).unwrap();
        r.deliver_batch([5usize], &[t(1)]);
        r.unsubscribe(1, 5);
        r.deliver_batch([5usize], &[t(2)]);
        assert_eq!(r.fetch(1, 10).unwrap().len(), 1);
    }

    #[test]
    fn stuck_push_client_disconnected_after_threshold() {
        let r = EgressRouter::new().with_policy(EgressPolicy {
            disconnect_after: 3,
        });
        let _rx = r.register_push_client(1, 1).unwrap();
        r.subscribe(1, 5).unwrap();
        for i in 0..10 {
            r.deliver_batch([5usize], &[t(i)]);
        }
        let s = r.egress_stats();
        // Offer 1 fills the channel; offers 2-4 shed (failure streak 1..3);
        // the 4th offer trips disconnect_after=3; offers 5-10 find no
        // subscriber and are never offered.
        assert_eq!(s.offered, 4);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.shed, 3);
        assert_eq!(s.disconnected, 1);
        assert!(s.accounted(), "every offer accounted: {s:?}");
        assert_eq!(r.client_count(), 0, "stuck client forcibly removed");
    }

    #[test]
    fn socket_drop_mid_batch_reclassifies_undrained_rows() {
        // A TCP client with a queue of 4 receives a 10-row batch: 4 rows
        // buffer (delivered), 6 shed. The client reads one row, then its
        // socket drops — the 3 rows still in the queue were never on the
        // wire. The transport hands the queue back and the router counts
        // them as the loss.
        let r = EgressRouter::new();
        let rx = r.register_push_client(1, 4).unwrap();
        r.subscribe(1, 5).unwrap();
        for i in 0..10 {
            r.deliver_batch([5usize], &[t(i)]);
        }
        let s = r.egress_stats();
        assert_eq!((s.delivered, s.shed), (4, 6));
        let _read = rx.recv().unwrap(); // one row reached the peer
        assert_eq!(r.disconnect_push_client(1, rx, 0), 3);
        let s = r.egress_stats();
        assert_eq!(s.offered, 10);
        assert_eq!(s.delivered, 1, "only the row the peer actually read");
        assert_eq!(s.shed, 6);
        assert_eq!(s.disconnected_loss, 3, "undrained queue rows are loss");
        assert_eq!(s.disconnected, 1);
        assert!(s.accounted(), "invariant survives a mid-batch drop: {s:?}");
        assert_eq!(r.client_count(), 0);
    }

    #[test]
    fn a_queue_client_holds_at_most_its_capacity() {
        let r = EgressRouter::new();
        let q = r.register_queue_client(1, 8).unwrap();
        r.subscribe(1, 5).unwrap();
        let rows: Vec<Tuple> = (0..20).map(t).collect();
        r.deliver_batch([5usize], &rows);
        let s = r.egress_stats();
        assert_eq!(
            (s.delivered, s.shed),
            (8, 12),
            "never drained: 8 in, the rest shed"
        );
        assert_eq!(q.len(), 8);
        for want in 0..3 {
            assert_eq!(q.try_recv().unwrap().1, t(want));
        }
        assert_eq!(q.len(), 5);
        r.deliver_batch([5usize], &rows);
        let s = r.egress_stats();
        assert_eq!(
            (s.delivered, s.shed),
            (11, 29),
            "3 rows taken admit exactly 3 more"
        );
        assert_eq!(q.len(), 8);
        assert!(s.accounted(), "{s:?}");
        let queued: Vec<i64> = std::iter::from_fn(|| q.try_recv().ok())
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(
            queued,
            vec![3, 4, 5, 6, 7, 0, 1, 2],
            "FIFO across the refill"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn disconnecting_a_queue_client_reclassifies_queued_and_unsent_rows() {
        let r = EgressRouter::new();
        let q = r.register_queue_client(1, 8).unwrap();
        r.subscribe(1, 5).unwrap();
        let rows: Vec<Tuple> = (0..10).map(t).collect();
        r.deliver_batch([5usize], &rows);
        // The writer takes 3 rows, writes 1 and still holds 2 when its
        // socket dies; 5 rows remain queued.
        for _ in 0..3 {
            q.recv().unwrap();
        }
        assert_eq!(r.disconnect_push_client(1, q, 2), 5 + 2);
        let s = r.egress_stats();
        assert_eq!(s.offered, 10);
        assert_eq!(s.delivered, 1, "only the row that was written");
        assert_eq!(s.shed, 2);
        assert_eq!(s.disconnected_loss, 7);
        assert_eq!(s.disconnected, 1);
        assert!(s.accounted(), "{s:?}");
        assert_eq!(r.client_count(), 0);
    }

    #[test]
    fn a_dropped_queue_disconnects_its_client() {
        let r = EgressRouter::new().with_policy(EgressPolicy {
            disconnect_after: 4,
        });
        let q = r.register_queue_client(1, 8).unwrap();
        r.subscribe(1, 5).unwrap();
        let depth = q.depth();
        drop(q);
        r.deliver_batch([5usize], &[t(1)]);
        let s = r.egress_stats();
        assert_eq!((s.disconnected_loss, s.disconnected), (1, 1));
        assert!(s.accounted());
        assert_eq!(depth.get(), 0, "a failed send is not counted as queued");
        assert_eq!(r.client_count(), 0);
    }

    #[test]
    fn disconnect_push_client_clamps_to_delivered() {
        let r = EgressRouter::new();
        let rx = r.register_push_client(1, 4).unwrap();
        r.subscribe(1, 5).unwrap();
        r.deliver_batch([5usize], &[t(1)]);
        // A caller over-reporting unsent rows cannot drive `delivered`
        // negative or break the invariant.
        assert_eq!(r.disconnect_push_client(1, rx, 99), 1);
        let s = r.egress_stats();
        assert_eq!(s.delivered, 0);
        assert_eq!(s.disconnected_loss, 1);
        assert!(s.accounted());
        // Disconnecting an unknown client is a no-op, not a panic.
        let (_tx, rx) = sync_channel(1);
        assert_eq!(r.disconnect_push_client(42, rx, 7), 0);
        assert_eq!(r.egress_stats().disconnected, 1);
    }

    #[test]
    fn a_clean_departure_is_not_a_disconnect() {
        let r = EgressRouter::new();
        let rx = r.register_push_client(1, 4).unwrap();
        r.subscribe(1, 5).unwrap();
        r.deliver_batch([5usize], &[t(1)]);
        let _read = rx.recv().unwrap();
        assert_eq!(r.disconnect_push_client(1, rx, 0), 0);
        let s = r.egress_stats();
        assert_eq!(
            (s.delivered, s.disconnected, s.disconnected_loss),
            (1, 0, 0)
        );
        assert_eq!(r.client_count(), 0);
    }

    #[test]
    fn dead_push_client_is_disconnected_and_counted() {
        let r = EgressRouter::new().with_policy(EgressPolicy {
            disconnect_after: 4,
        });
        let rx = r.register_push_client(1, 8).unwrap();
        r.subscribe(1, 5).unwrap();
        drop(rx);
        r.deliver_batch([5usize], &[t(1)]);
        let s = r.egress_stats();
        assert_eq!(s.disconnected_loss, 1);
        assert_eq!(s.disconnected, 1);
        assert!(s.accounted());
        assert_eq!(r.client_count(), 0, "dead client cleaned up eagerly");
        // Later deliveries are no-ops, not errors.
        r.deliver_batch([5usize], &[t(2)]);
        assert_eq!(r.egress_stats().offered, 1);
    }

    #[test]
    fn delivery_success_resets_failure_streak() {
        let r = EgressRouter::new().with_policy(EgressPolicy {
            disconnect_after: 3,
        });
        let rx = r.register_push_client(1, 1).unwrap();
        r.subscribe(1, 5).unwrap();
        // Alternate fill/drain: two consecutive failures max, never three.
        for round in 0..6 {
            r.deliver_batch([5usize], &[t(round * 3)]); // delivered (channel empty)
            r.deliver_batch([5usize], &[t(round * 3 + 1)]); // shed, streak 1
            r.deliver_batch([5usize], &[t(round * 3 + 2)]); // shed, streak 2
            let _ = rx.try_iter().count(); // client catches up
        }
        let s = r.egress_stats();
        assert_eq!(s.disconnected, 0, "recovering client never disconnected");
        assert_eq!(s.delivered, 6);
        assert_eq!(s.shed, 12);
        assert!(s.accounted());
    }

    #[test]
    fn deliver_batch_matches_per_tuple_deliveries() {
        let mk = || {
            let r = EgressRouter::new().with_policy(EgressPolicy {
                disconnect_after: 2,
            });
            let rx = r.register_push_client(1, 3).unwrap();
            r.register_pull_client(2, 4).unwrap();
            r.subscribe(1, 9).unwrap();
            r.subscribe(2, 9).unwrap();
            (r, rx)
        };
        let tuples: Vec<Tuple> = (0..20).map(t).collect();
        let (per, per_rx) = mk();
        for tup in &tuples {
            per.deliver_batch([9usize], std::slice::from_ref(tup));
        }
        let (bat, bat_rx) = mk();
        bat.deliver_batch([9usize], &tuples);
        assert_eq!(per.egress_stats(), bat.egress_stats());
        assert!(bat.egress_stats().accounted());
        let a: Vec<_> = per_rx.try_iter().collect();
        let b: Vec<_> = bat_rx.try_iter().collect();
        assert_eq!(a, b, "push stream identical");
        assert_eq!(
            per.fetch(2, 10).unwrap(),
            bat.fetch(2, 10).unwrap(),
            "pull ring identical"
        );
    }

    #[test]
    fn accounting_invariant_across_mixed_clients() {
        let r = EgressRouter::new().with_policy(EgressPolicy {
            disconnect_after: 2,
        });
        let _rx = r.register_push_client(1, 2).unwrap();
        r.register_pull_client(2, 3).unwrap();
        let rx_dead = r.register_push_client(3, 1).unwrap();
        drop(rx_dead);
        for c in 1..=3 {
            r.subscribe(c, 9).unwrap();
        }
        for i in 0..50 {
            r.deliver_batch([9usize], &[t(i)]);
        }
        let s = r.egress_stats();
        assert!(s.accounted(), "invariant must hold under churn: {s:?}");
        assert!(s.displaced > 0, "pull ring rotated");
        assert!(s.disconnected >= 2, "stuck + dead clients removed");
        // Pull client survives and holds the freshest results.
        assert_eq!(r.fetch(2, 10).unwrap().len(), 3);
    }

    #[test]
    fn column_client_receives_batched_rows_without_row_messages() {
        let r = EgressRouter::new();
        let rx = r.register_column_client(1, 8).unwrap();
        r.subscribe(1, 9).unwrap();
        let tuples: Vec<Tuple> = (0..5).map(t).collect();
        let batch = ColumnBatch::from_tuples(schema(), &tuples, None);
        {
            let mut session = r.session();
            session.deliver_columns([9usize], &batch);
        }
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(got.len(), 1, "one channel message for the whole batch");
        let (q, b) = &got[0];
        assert_eq!(*q, 9);
        assert_eq!(b.len(), 5);
        for (row, want) in tuples.iter().enumerate() {
            assert_eq!(b.tuple_at(row), *want);
        }
        let s = r.egress_stats();
        assert_eq!(s.offered, 5, "ledger stays per-row");
        assert_eq!(s.delivered, 5);
        assert!(s.accounted());
    }

    #[test]
    fn column_and_row_clients_share_one_columnar_delivery() {
        let r = EgressRouter::new();
        let row_rx = r.register_push_client(1, 16).unwrap();
        let col_rx = r.register_column_client(2, 16).unwrap();
        r.subscribe(1, 9).unwrap();
        r.subscribe(2, 9).unwrap();
        let tuples: Vec<Tuple> = (0..4).map(t).collect();
        let batch = ColumnBatch::from_tuples(schema(), &tuples, None);
        {
            let mut session = r.session();
            session.deliver_columns([9usize], &batch);
        }
        let rows: Vec<_> = row_rx.try_iter().map(|(_, t)| t).collect();
        assert_eq!(rows, tuples, "row client sees materialized rows in order");
        let cols: Vec<_> = col_rx.try_iter().collect();
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].1.len(), 4);
        let s = r.egress_stats();
        assert_eq!(s.offered, 8);
        assert_eq!(s.delivered, 8);
        assert!(s.accounted());
    }

    #[test]
    fn session_mixed_chunks_match_one_row_batch() {
        // The same rows, once as a single deliver_batch and once as a
        // session of columnar + row chunks, charge identical ledgers and
        // produce identical client streams.
        let mk = || {
            let r = EgressRouter::new().with_policy(EgressPolicy {
                disconnect_after: 2,
            });
            let rx = r.register_push_client(1, 6).unwrap();
            r.register_pull_client(2, 4).unwrap();
            r.subscribe(1, 9).unwrap();
            r.subscribe(2, 9).unwrap();
            (r, rx)
        };
        let tuples: Vec<Tuple> = (0..12).map(t).collect();
        let (plain, plain_rx) = mk();
        plain.deliver_batch([9usize], &tuples);
        let (ses, ses_rx) = mk();
        {
            let mut session = ses.session();
            let head = ColumnBatch::from_tuples(schema(), &tuples[..7], None);
            session.deliver_columns([9usize], &head);
            session.deliver_rows([9usize], &tuples[7..]);
        }
        assert_eq!(plain.egress_stats(), ses.egress_stats());
        let a: Vec<_> = plain_rx.try_iter().collect();
        let b: Vec<_> = ses_rx.try_iter().collect();
        assert_eq!(a, b, "push stream identical");
        assert_eq!(plain.fetch(2, 10).unwrap(), ses.fetch(2, 10).unwrap());
        assert!(ses.egress_stats().accounted());
    }

    #[test]
    fn column_client_full_channel_sheds_whole_batch() {
        let r = EgressRouter::new();
        let _rx = r.register_column_client(1, 1).unwrap();
        r.subscribe(1, 9).unwrap();
        let tuples: Vec<Tuple> = (0..3).map(t).collect();
        let batch = ColumnBatch::from_tuples(schema(), &tuples, None);
        {
            let mut session = r.session();
            session.deliver_columns([9usize], &batch);
        }
        // Channel (capacity 1, undrained) is now full: the next session's
        // flush sheds its rows, counted individually.
        {
            let mut session = r.session();
            session.deliver_columns([9usize], &batch);
        }
        let s = r.egress_stats();
        assert_eq!(s.offered, 6);
        assert_eq!(s.delivered, 3);
        assert_eq!(s.shed, 3);
        assert!(s.accounted());
    }

    #[test]
    fn stalled_client_pays_its_own_retry_budget_in_batches() {
        // One stalled push client and one healthy push client share a
        // query. A full channel sheds the copy at once, so the stalled
        // client costs the healthy one nothing across a large batch.
        const N: i64 = 100;
        let r = EgressRouter::new().with_policy(EgressPolicy {
            disconnect_after: 0, // keep the stalled client subscribed
        });
        // Registered (and therefore offered) first.
        let _stalled_rx = r.register_push_client(1, 1).unwrap();
        let healthy_rx = r.register_push_client(2, N as usize).unwrap();
        r.subscribe(1, 9).unwrap();
        r.subscribe(2, 9).unwrap();
        let tuples: Vec<Tuple> = (0..N).map(t).collect();
        r.deliver_batch([9usize], &tuples);

        let got: Vec<_> = healthy_rx.try_iter().collect();
        assert_eq!(got.len(), N as usize, "healthy client got every tuple");
        let s = r.egress_stats();
        // Tuple 0 fills the stalled channel; tuples 1..N shed.
        assert_eq!(s.delivered, N as u64 + 1);
        assert_eq!(s.shed, N as u64 - 1);
        assert!(s.accounted(), "{s:?}");
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use tcq_common::{DataType, FaultPlan, Field, Schema, SchemaRef, Timestamp, TupleBuilder};

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("x", DataType::Int)]).into_ref()
    }

    fn t(x: i64) -> Tuple {
        TupleBuilder::new(schema())
            .push(x)
            .at(Timestamp::logical(x))
            .build()
            .unwrap()
    }

    #[test]
    fn injected_stall_forces_disconnect() {
        let injector = FaultPlan::new(1)
            .at(
                FaultPoint::EgressDeliver,
                3,
                FaultAction::Stall { ticks: 5 },
            )
            .build_shared();
        let r = EgressRouter::new().with_policy(EgressPolicy {
            disconnect_after: 8,
        });
        r.attach_injector(injector.clone());
        let _rx = r.register_push_client(1, 16).unwrap();
        r.subscribe(1, 5).unwrap();
        for i in 0..10 {
            r.deliver_batch([5usize], &[t(i)]);
        }
        let s = r.egress_stats();
        assert_eq!(s.offered, 3, "client gone after the injected stall");
        assert_eq!(s.delivered, 2);
        assert_eq!(s.disconnected, 1);
        assert_eq!(s.disconnected_loss, 1);
        assert!(s.accounted());
        assert_eq!(injector.log().len(), 1);
    }

    #[test]
    fn injected_enqueue_overflow_displaces_pull_buffer() {
        let injector = FaultPlan::new(1)
            .at(FaultPoint::FjordEnqueue, 3, FaultAction::Overflow)
            .build_shared();
        let r = EgressRouter::new();
        r.attach_injector(injector);
        r.register_pull_client(1, 100).unwrap();
        r.subscribe(1, 5).unwrap();
        for i in 0..5 {
            r.deliver_batch([5usize], &[t(i)]);
        }
        let s = r.egress_stats();
        assert_eq!(s.displaced, 1, "forced rotation despite spare capacity");
        assert_eq!(s.delivered, 4);
        assert!(s.accounted());
        let got = r.fetch(1, 10).unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].1, t(1), "oldest entry was the displaced victim");
    }

    #[test]
    fn injected_delivery_error_sheds_copy() {
        let injector = FaultPlan::new(1)
            .at(
                FaultPoint::EgressDeliver,
                2,
                FaultAction::Error("wire".into()),
            )
            .build_shared();
        let r = EgressRouter::new();
        r.attach_injector(injector);
        let rx = r.register_push_client(1, 16).unwrap();
        r.subscribe(1, 5).unwrap();
        for i in 0..4 {
            r.deliver_batch([5usize], &[t(i)]);
        }
        let s = r.egress_stats();
        assert_eq!(s.delivered, 3);
        assert_eq!(s.shed, 1);
        assert!(s.accounted());
        assert_eq!(rx.try_iter().count(), 3);
        assert_eq!(r.client_count(), 1, "no disconnect with policy disabled");
    }
}

#[cfg(test)]
mod prioritized_tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, TupleBuilder};

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("x", DataType::Int)]).into_ref()
    }

    fn t(x: i64) -> Tuple {
        TupleBuilder::new(schema())
            .push(x)
            .at(Timestamp::logical(x))
            .build()
            .unwrap()
    }

    #[test]
    fn prioritized_client_fetches_best_first() {
        let r = EgressRouter::new();
        r.register_prioritized_client(
            1,
            16,
            Box::new(|t: &Tuple| t.value(0).as_int().unwrap_or(0) as f64),
        )
        .unwrap();
        r.subscribe(1, 7).unwrap();
        for x in [3, 9, 1, 5] {
            r.deliver_batch([7usize], &[t(x)]);
        }
        let got = r.fetch(1, 2).unwrap();
        let xs: Vec<i64> = got
            .iter()
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(xs, vec![9, 5], "highest priority first");
        assert!(got.iter().all(|(q, _)| *q == 7));
        // Remaining entries still buffered in priority order.
        let rest = r.fetch(1, 10).unwrap();
        let xs: Vec<i64> = rest
            .iter()
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(xs, vec![3, 1]);
    }

    #[test]
    fn prioritized_overflow_drops_and_counts() {
        let r = EgressRouter::new();
        r.register_prioritized_client(
            1,
            2,
            Box::new(|t: &Tuple| t.value(0).as_int().unwrap_or(0) as f64),
        )
        .unwrap();
        r.subscribe(1, 1).unwrap();
        for x in 0..10 {
            r.deliver_batch([1usize], &[t(x)]);
        }
        assert_eq!(r.egress_stats().displaced, 8);
        // The BEST two survive the shedding.
        let got = r.fetch(1, 10).unwrap();
        let xs: Vec<i64> = got
            .iter()
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(xs, vec![9, 8]);
    }
}
