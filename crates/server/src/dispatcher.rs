//! The per-stream dispatcher DU.
//!
//! "In a traditional system, the arrival of queries initiates access to a
//! stored collection of data, while here, the arrival of data initiates
//! access to a stored collection of queries" (§1.1). The dispatcher is the
//! point of that inversion: it drains a stream's ingress Fjord through its
//! [`Inbox`], stamps arrival order, spools history to the stream's archive,
//! runs the stream's single-stream plans (its filter and aggregate queries,
//! which it owns) over each drained batch, and forwards the batch to the
//! input queue of every plan that reads two streams (join DUs, exchanges).
//! It then publishes how many ingress messages it has settled
//! ([`Settled`]), the count a checkpoint's drain waits on. The server adds,
//! removes, reads and exports the stream's plans through the dispatcher's
//! control queue (`crate::control`), which it drains after each refill
//! of its input and before it runs that batch: a row pushed after a
//! `submit` or `stop_query` returned meets the plans as the control left
//! them.
//!
//! Overload has one rule, Fjords' back-pressure (§2.3): the dispatcher
//! reads no more of its ingress than every subscriber queue has room for,
//! so a forwarded batch always fits and nothing waits inside the
//! dispatcher; a slow subscriber slows the stream, and the ingress fjord
//! in turn holds back its source. Only a queue someone still reads exerts
//! it: a subscriber whose reader closed its inbox is dropped. The one drop
//! decision left is the client's, at result delivery (`tcq_egress`).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use tcq_common::sync::Mutex;

use tcq_common::{FaultAction, FaultPoint, Result, SharedInjector, Timestamp, Tuple};
use tcq_executor::{DispatchUnit, ModuleStatus};
use tcq_fjords::{EnqueueError, FjordMessage, Inbox, Producer, QueueStats};
use tcq_storage::StreamArchive;

use crate::plans::{PlanControl, PlanSet};

/// One query's subscription to a stream.
struct Subscription {
    /// Where to forward tuples.
    producer: Producer,
    /// Subscription id, for removal.
    id: u64,
}

struct Subscriptions {
    list: Vec<Subscription>,
    /// The id the next subscription gets; ids grow in list order.
    next_id: u64,
    /// The dispatcher broadcast the stream's Eof and retired.
    ended: bool,
}

impl Subscriptions {
    /// Drop every subscription whose queue nobody reads any more (its
    /// reader closed its inbox or is gone): such a queue exerts no
    /// back-pressure and holds nothing a drain must wait for. `f` sees the
    /// id and queue statistics of every subscription kept.
    fn live(&mut self, mut f: impl FnMut(u64, &QueueStats)) {
        self.list.retain(|s| {
            let st = s.producer.stats();
            let read = st.consumers > 0;
            if read {
                f(s.id, &st);
            }
            read
        });
    }
}

/// Shared handle the server uses to add/remove subscriptions while the
/// dispatcher DU runs.
#[derive(Clone)]
pub struct SubscriberSet {
    subs: Arc<Mutex<Subscriptions>>,
}

impl Default for SubscriberSet {
    fn default() -> Self {
        Self::new()
    }
}

impl SubscriberSet {
    /// Empty set.
    pub fn new() -> Self {
        SubscriberSet {
            subs: Arc::new(Mutex::new(Subscriptions {
                list: Vec::new(),
                next_id: 1,
                ended: false,
            })),
        }
    }

    /// Add a subscriber; returns its id. Its queue receives the stream
    /// from the dispatcher's next refill on. Once the stream has ended,
    /// the queue gets the Eof at once: no dispatcher is left to send it.
    pub fn add(&self, producer: Producer) -> u64 {
        let mut subs = self.subs.lock();
        let id = subs.next_id;
        subs.next_id += 1;
        if subs.ended {
            // A fresh queue has room; a disconnected one needs no Eof.
            let _ = producer.enqueue(FjordMessage::Eof);
        }
        subs.list.push(Subscription { producer, id });
        id
    }

    /// Remove a subscriber by id.
    pub fn remove(&self, id: u64) {
        self.subs.lock().list.retain(|s| s.id != id);
    }

    fn len(&self) -> usize {
        self.subs.lock().list.len()
    }

    /// Each subscription still read, by id, with the messages put into its
    /// queue so far: what a drain waits for its reader to take
    /// ([`SubscriberSet::has_read`]).
    pub fn forwarded(&self) -> Vec<(u64, u64)> {
        let mut forwarded = Vec::new();
        self.subs
            .lock()
            .live(|id, st| forwarded.push((id, st.enqueued)));
        forwarded
    }

    /// True once the reader of every subscription in `forwarded` has taken
    /// that many messages. A subscription since removed, or whose reader
    /// has closed, owes nothing.
    pub fn has_read(&self, forwarded: &[(u64, u64)]) -> bool {
        let mut read = true;
        self.subs.lock().live(|id, st| {
            if let Some(&(_, n)) = forwarded.iter().find(|(sub, _)| *sub == id) {
                read &= st.dequeued >= n;
            }
        });
        read
    }

    /// Refill `input` with no more messages than every live subscriber
    /// queue has room for, and return the id bound of the subscriptions
    /// the refill goes to (`None` when nothing is buffered). The set stays
    /// locked across the refill, so a subscription added later starts
    /// with the next refill. Each subscriber queue has exactly one
    /// producer, this dispatcher, so its room can only grow until the
    /// batch is forwarded: the forward always fits.
    fn fill(&self, input: &mut Inbox, budget: &mut usize) -> Option<u64> {
        let mut subs = self.subs.lock();
        let mut room = usize::MAX;
        subs.live(|_, st| room = room.min(st.capacity.saturating_sub(st.len)));
        let allowed = room.min(*budget);
        let mut left = allowed;
        let buffered = input.fill(&mut left);
        *budget -= allowed - left;
        (buffered > 0).then_some(subs.next_id)
    }
}

/// How far a stream's dispatcher has got through its ingress fjord, for
/// the drain a checkpoint or shutdown waits on: the count of messages
/// ([`Inbox::pulled`]) it has stamped, archived, run through its plans and
/// forwarded — or that it has retired or failed, after which nothing more
/// will move.
#[derive(Clone, Default)]
pub struct Settled(Arc<AtomicU64>);

impl Settled {
    const RETIRED: u64 = u64::MAX;

    /// `None` once the dispatcher has retired or failed; otherwise how
    /// many ingress messages it has settled. The stream is drained when
    /// that equals the fjord's `dequeued` and nothing is queued.
    pub fn get(&self) -> Option<u64> {
        let n = self.0.load(Ordering::Acquire);
        (n != Self::RETIRED).then_some(n)
    }

    /// Release pairs with [`Settled::get`]'s Acquire: a drainer that sees
    /// `n` also sees the work done on those messages.
    fn publish(&self, n: u64) {
        self.0.store(n, Ordering::Release);
    }
}

/// The dispatcher DU for one stream.
pub struct StreamDispatcher {
    name: String,
    input: Inbox,
    /// The stream's filter and aggregate queries, run in place.
    plans: PlanSet,
    controls: Receiver<PlanControl>,
    subscribers: SubscriberSet,
    /// Stream history spool; `None` disables archiving.
    archive: Option<Arc<Mutex<StreamArchive>>>,
    /// Latest logical timestamp seen (shared with the server for ST
    /// assignment and window bookkeeping).
    latest_seq: Arc<AtomicI64>,
    /// Arrival counter used to stamp tuples lacking logical timestamps.
    arrivals: i64,
    /// Copies dropped by an injected enqueue overflow (shared for
    /// observability).
    shed: Arc<AtomicI64>,
    /// Archive appends that failed (the live path keeps flowing; history
    /// degrades and the loss is counted, never silent).
    archive_errors: Arc<AtomicI64>,
    /// Chaos injector polled at [`FaultPoint::FjordEnqueue`] per forwarded
    /// tuple.
    injector: Option<SharedInjector>,
    settled: Settled,
    eof_sent: bool,
    /// Subscriber ids whose queues have received the stream's Eof.
    eof_delivered: Vec<u64>,
}

impl StreamDispatcher {
    /// Build a dispatcher reading the stream's ingress fjord through
    /// `input`, running `plans` as `controls` change them and feeding
    /// `subscribers`. Faults, stamping and archiving are per message, so a
    /// same-seed chaos run is byte-identical at any `io_batch`.
    pub(crate) fn new(
        name: impl Into<String>,
        input: Inbox,
        plans: PlanSet,
        controls: Receiver<PlanControl>,
        subscribers: SubscriberSet,
        archive: Option<Arc<Mutex<StreamArchive>>>,
        latest_seq: Arc<AtomicI64>,
    ) -> Self {
        StreamDispatcher {
            name: name.into(),
            input,
            plans,
            controls,
            subscribers,
            archive,
            // A restored server seeds `latest_seq` from the checkpoint
            // before building dispatchers, so arrival stamping continues
            // past the pre-crash watermark instead of restarting at 1.
            arrivals: latest_seq.load(Ordering::Acquire),
            latest_seq,
            shed: Arc::new(AtomicI64::new(0)),
            archive_errors: Arc::new(AtomicI64::new(0)),
            injector: None,
            settled: Settled::default(),
            eof_sent: false,
            eof_delivered: Vec::new(),
        }
    }

    /// Attach a chaos injector: each fresh tuple polls
    /// [`FaultPoint::FjordEnqueue`]; an `Overflow` fault drops the tuple
    /// for the stream's plans and every subscriber — an injected full is a
    /// full that does not clear, so back-pressure would wedge on it. It
    /// counts one shed per subscriber queue, plus one for the plans while
    /// a query stands among them.
    pub fn with_injector(mut self, injector: SharedInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Shared counter of copies dropped by an injected enqueue overflow.
    pub fn shed_counter(&self) -> Arc<AtomicI64> {
        Arc::clone(&self.shed)
    }

    /// Shared counter of failed (skipped) archive appends.
    pub fn archive_error_counter(&self) -> Arc<AtomicI64> {
        Arc::clone(&self.archive_errors)
    }

    /// Shared count of the stream's query errors ([`PlanSet::run`]).
    pub(crate) fn error_counter(&self) -> Arc<AtomicU64> {
        self.plans.error_counter()
    }

    /// Shared view of how many ingress messages this dispatcher has
    /// settled.
    pub fn settled(&self) -> Settled {
        self.settled.clone()
    }

    /// Fan a run of stamped tuples out to every subscription older than
    /// `bound` ([`SubscriberSet::fill`]), one `enqueue_batch` each. The
    /// last receives the tuples by move — every earlier one gets clones —
    /// so the common single-subscriber fan-out never copies a tuple. The
    /// refill read no more than each of those queues had room for, so
    /// every copy fits.
    fn forward_batch(&self, mut tuples: Vec<Tuple>, bound: u64) {
        if tuples.is_empty() {
            return;
        }
        let subs = self.subscribers.subs.lock();
        let mut targets = subs.list.iter().filter(|s| s.id < bound).peekable();
        while let Some(s) = targets.next() {
            let mut batch: Vec<FjordMessage> = if targets.peek().is_none() {
                std::mem::take(&mut tuples)
                    .into_iter()
                    .map(FjordMessage::Tuple)
                    .collect()
            } else {
                tuples.iter().cloned().map(FjordMessage::Tuple).collect()
            };
            // An error means the queue's reader went away since the refill;
            // its copies are dropped with it.
            if s.producer.enqueue_batch(&mut batch).is_ok() {
                debug_assert!(batch.is_empty(), "a forward outgrew its read limit");
            }
        }
    }

    /// Broadcast Eof to every subscriber that has not received it yet.
    /// A subscriber queue that happens to be exactly full at EOF time is
    /// retried on a later quantum instead of silently skipped — a dropped
    /// Eof starves every punctuation-driven consumer downstream: the
    /// exchange partitioner never reaches all-inputs-EOF, never closes
    /// its final run, and the merge withholds the tail tuples forever
    /// (the P=4 `exp_scaling` 2-tuples-undelivered wedge). A disconnected
    /// subscriber counts as delivered. Returns true once every current
    /// subscriber has its Eof; the set then hands a later subscriber its
    /// Eof itself ([`SubscriberSet::add`]).
    fn fan_out_eof(&mut self) -> bool {
        let mut subs = self.subscribers.subs.lock();
        let mut all = true;
        for s in subs.list.iter() {
            if self.eof_delivered.contains(&s.id) {
                continue;
            }
            match s.producer.enqueue(FjordMessage::Eof) {
                Ok(()) | Err(EnqueueError::Disconnected(_)) => self.eof_delivered.push(s.id),
                Err(EnqueueError::Full(_)) => all = false,
            }
        }
        subs.ended = all;
        all
    }
}

/// Poll the injector once for a fresh tuple. True when an injected
/// `Overflow` drops the tuple whole: one shed per subscriber copy and one
/// for the plans while a query stands among them, even under back-pressure
/// — an injected full never clears, so waiting would wedge the stream.
/// (Polled once per tuple, so the poll count is a pure function of the
/// tuple sequence.)
fn injected_overflow(
    injector: Option<&SharedInjector>,
    plans: &PlanSet,
    subscribers: &SubscriberSet,
    shed: &AtomicI64,
) -> bool {
    let overflow = injector.is_some_and(|inj| {
        matches!(
            inj.poll(FaultPoint::FjordEnqueue),
            Some(FaultAction::Overflow)
        )
    });
    if overflow {
        let copies = subscribers.len() + usize::from(plans.standing());
        shed.fetch_add(copies as i64, Ordering::Relaxed);
    }
    overflow
}

impl Drop for StreamDispatcher {
    /// Retired, failed or shut down: no drain waits on this stream again.
    fn drop(&mut self) {
        self.settled.publish(Settled::RETIRED);
    }
}

impl DispatchUnit for StreamDispatcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, quantum: usize) -> Result<ModuleStatus> {
        if self.eof_sent {
            return Ok(ModuleStatus::Done);
        }
        let mut did_work = false;
        let mut budget = quantum;
        loop {
            let bound = self.subscribers.fill(&mut self.input, &mut budget);
            // After the refill, before its batch runs: a row refilled now
            // was pushed before any control not yet queued.
            while let Ok(control) = self.controls.try_recv() {
                self.plans.apply(control);
            }
            let Some(bound) = bound else {
                break;
            };
            let mut fan: Vec<Tuple> = Vec::with_capacity(self.input.buffered());
            // One archive lock per batch; every poll, stamp and count stays
            // per tuple, in arrival order.
            let mut archive = self.archive.as_ref().map(|a| a.lock());
            for msg in self.input.drain() {
                let FjordMessage::Tuple(t) = msg else {
                    continue;
                };
                did_work = true;
                self.arrivals += 1;
                let t = if t.timestamp().logical_part().is_some() {
                    t
                } else {
                    t.restamp(Timestamp::logical(self.arrivals))
                };
                let seq = t.timestamp().seq();
                self.latest_seq.fetch_max(seq, Ordering::AcqRel);
                if let Some(archive) = archive.as_mut() {
                    // A failed append degrades history, not the live
                    // path: the tuple still reaches every query and the
                    // loss is counted.
                    if archive.append(&t).is_err() {
                        self.archive_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let injector = self.injector.as_ref();
                if injected_overflow(injector, &self.plans, &self.subscribers, &self.shed) {
                    continue;
                }
                fan.push(t);
            }
            drop(archive);
            self.plans.run(&fan);
            self.forward_batch(fan, bound);
        }
        self.settled.publish(self.input.pulled());
        if self.input.is_done() {
            self.plans.finish();
            if self.fan_out_eof() {
                self.eof_sent = true;
                return Ok(ModuleStatus::Done);
            }
            // Some subscriber queue is full: stay scheduled and retry
            // until every Eof lands.
            return Ok(ModuleStatus::Ready);
        }
        Ok(if did_work {
            ModuleStatus::Ready
        } else {
            ModuleStatus::Idle
        })
    }

    fn buffered(&self) -> usize {
        self.input.buffered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Router;
    use tcq_common::{DataType, Expr, Field, Schema, SchemaRef, Timestamp, TupleBuilder};
    use tcq_fjords::{fjord, Consumer, DequeueResult, QueueKind};

    fn schema() -> SchemaRef {
        Schema::qualified("s", vec![Field::new("x", DataType::Int)]).into_ref()
    }

    fn no_plans() -> PlanSet {
        PlanSet::new(schema(), Router::default())
    }

    /// A control queue nobody sends on.
    fn no_controls() -> Receiver<PlanControl> {
        crate::control::queue().1
    }

    fn tick(s: &SchemaRef, x: i64) -> Tuple {
        TupleBuilder::new(s.clone())
            .push(x)
            .at(Timestamp::logical(x))
            .build()
            .unwrap()
    }

    fn drain_tuples(c: &Consumer) -> Vec<i64> {
        let mut out = Vec::new();
        loop {
            match c.dequeue() {
                DequeueResult::Msg(FjordMessage::Tuple(t)) => {
                    out.push(t.value(0).as_int().unwrap())
                }
                DequeueResult::Msg(_) => {}
                DequeueResult::Empty | DequeueResult::Disconnected => break,
            }
        }
        out
    }

    /// Steady-state reference accounting for the batched fan-out: after a
    /// quantum, exactly one tuple copy per (tuple, subscriber) is alive —
    /// the dispatcher retains none, and the final subscriber's copy is the
    /// moved original, not a clone-then-drop. (The transient extra clone
    /// the old per-subscriber loop made is unobservable at steady state,
    /// so the invariant pins what is observable: no leaked references.)
    #[test]
    fn fan_out_keeps_one_copy_per_subscriber_and_none_extra() {
        let (ip, ic) = fjord(64, QueueKind::Push);
        let subs = SubscriberSet::new();
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let (p, c) = fjord(64, QueueKind::Push);
            subs.add(p);
            consumers.push(c);
        }
        let mut d = StreamDispatcher::new(
            "d",
            Inbox::new(ic, 64),
            no_plans(),
            no_controls(),
            subs,
            None,
            Arc::new(AtomicI64::new(0)),
        );
        let s = schema();
        // The test keeps one handle to each row and counts the others.
        let rows: Vec<Tuple> = (1..=5).map(|x| tick(&s, x)).collect();
        let held = || {
            rows.iter()
                .map(|t| t.handle_count() - 1)
                .collect::<Vec<_>>()
        };
        for t in &rows {
            ip.enqueue(FjordMessage::Tuple(t.clone())).unwrap();
        }
        assert_eq!(held(), [1; 5], "5 tuples queued at ingress");
        assert_eq!(d.run(64).unwrap(), ModuleStatus::Ready);
        assert_eq!(
            held(),
            [3; 5],
            "one copy per (tuple, subscriber), nothing retained"
        );
        assert_eq!(drain_tuples(&consumers[2]), vec![1, 2, 3, 4, 5]);
        assert_eq!(
            held(),
            [2; 5],
            "draining one subscriber frees exactly its copies"
        );
    }

    /// Back-pressure is a read limit: the dispatcher reads no more than
    /// the narrowest subscriber queue has room for, and once the slow
    /// subscriber drains, every tuple arrives exactly once, in arrival
    /// order, at every subscriber.
    #[test]
    fn backpressure_stall_preserves_order_across_batches() {
        let (ip, ic) = fjord(64, QueueKind::Push);
        let subs = SubscriberSet::new();
        let (wide_p, wide_c) = fjord(64, QueueKind::Push);
        let (narrow_p, narrow_c) = fjord(4, QueueKind::Push);
        subs.add(wide_p);
        subs.add(narrow_p);
        let egress = Router::default();
        egress.register_pull_client(1, 64).unwrap();
        egress.subscribe(1, 7).unwrap();
        let mut plans = PlanSet::new(schema(), egress.clone());
        plans
            .add_filter(7, None, &[(Expr::col("x"), None)], &schema(), i64::MIN)
            .unwrap();
        let mut d = StreamDispatcher::new(
            "d",
            Inbox::new(ic, 8),
            plans,
            no_controls(),
            subs,
            None,
            Arc::new(AtomicI64::new(0)),
        );
        let s = schema();
        for x in 1..=10 {
            ip.enqueue(FjordMessage::Tuple(tick(&s, x))).unwrap();
        }
        let settled = d.settled();
        // The narrow queue has room for 4: the first run reads, forwards
        // and settles 4, and holds nothing back.
        assert_eq!(d.run(64).unwrap(), ModuleStatus::Ready);
        assert_eq!(d.buffered(), 0);
        assert_eq!(drain_tuples(&narrow_c), vec![1, 2, 3, 4]);
        assert_eq!(settled.get(), Some(4));
        let mut rest = Vec::new();
        while rest.len() < 6 {
            let _ = d.run(64).unwrap();
            rest.extend(drain_tuples(&narrow_c));
        }
        assert_eq!(rest, vec![5, 6, 7, 8, 9, 10]);
        assert_eq!(settled.get(), Some(10), "every message pulled is settled");
        assert_eq!(drain_tuples(&wide_c), (1..=10).collect::<Vec<i64>>());
        // The stream's own filter query saw each tuple once, however many
        // runs the narrow queue cost.
        let filtered: Vec<i64> = (egress.fetch(1, 64).unwrap().iter())
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(filtered, (1..=10).collect::<Vec<i64>>());
        drop(d);
        assert_eq!(settled.get(), None, "a retired dispatcher drains");
    }

    /// A subscriber whose reader closed its inbox holds nothing back: the
    /// dispatcher drops it and reads on at the pace of the others.
    #[test]
    fn a_closed_subscriber_exerts_no_back_pressure() {
        let (ip, ic) = fjord(64, QueueKind::Push);
        let subs = SubscriberSet::new();
        let (wide_p, wide_c) = fjord(64, QueueKind::Push);
        let (narrow_p, narrow_c) = fjord(2, QueueKind::Push);
        subs.add(wide_p);
        subs.add(narrow_p);
        let mut d = StreamDispatcher::new(
            "d",
            Inbox::new(ic, 8),
            no_plans(),
            no_controls(),
            subs.clone(),
            None,
            Arc::new(AtomicI64::new(0)),
        );
        let s = schema();
        for x in 1..=10 {
            ip.enqueue(FjordMessage::Tuple(tick(&s, x))).unwrap();
        }
        let settled = d.settled();
        let _ = d.run(64).unwrap();
        assert_eq!(settled.get(), Some(2), "the full narrow queue holds back");
        assert_eq!(drain_tuples(&wide_c), vec![1, 2]);
        let forwarded = subs.forwarded();
        assert_eq!(forwarded.len(), 2);
        assert!(!subs.has_read(&forwarded), "the narrow queue is unread");
        let mut closed = Inbox::new(narrow_c, 8);
        closed.close();
        assert!(
            subs.has_read(&forwarded),
            "a queue nobody reads is not waited for"
        );
        let _ = d.run(64).unwrap();
        assert_eq!(settled.get(), Some(10));
        assert_eq!(subs.len(), 1);
        assert_eq!(drain_tuples(&wide_c), (3..=10).collect::<Vec<i64>>());
    }
}
