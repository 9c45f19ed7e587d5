//! The per-stream dispatcher DU.
//!
//! "In a traditional system, the arrival of queries initiates access to a
//! stored collection of data, while here, the arrival of data initiates
//! access to a stored collection of queries" (§1.1). The dispatcher is the
//! point of that inversion: it drains a stream's ingress Fjord through its
//! [`Inbox`], stamps arrival order, spools history to the stream's archive,
//! runs the stream's single-stream plans ([`StreamPlans`]: its filter and
//! aggregate queries) over each drained batch, and forwards the batch to
//! the input queue of every plan that reads two streams (join DUs,
//! exchanges). It then publishes how many ingress messages it has settled
//! ([`Settled`]), the count a checkpoint's drain waits on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use tcq_common::sync::Mutex;

use tcq_common::{FaultAction, FaultPoint, Result, SharedInjector, Timestamp, Tuple};
use tcq_executor::{DispatchUnit, ModuleStatus};
use tcq_fjords::{EnqueueError, FjordMessage, Inbox, Producer};
use tcq_storage::StreamArchive;

use crate::plans::StreamPlans;

/// One query's subscription to a stream.
struct Subscription {
    /// Where to forward tuples.
    producer: Producer,
    /// Subscription id, for removal.
    id: u64,
}

struct Subscriptions {
    list: Vec<Subscription>,
    /// The dispatcher broadcast the stream's Eof and retired.
    ended: bool,
}

/// Shared handle the server uses to add/remove subscriptions while the
/// dispatcher DU runs.
#[derive(Clone)]
pub struct SubscriberSet {
    subs: Arc<Mutex<Subscriptions>>,
    next_id: Arc<AtomicI64>,
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
                ended: false,
            })),
            next_id: Arc::new(AtomicI64::new(1)),
        }
    }

    /// Add a subscriber; returns its id. Once the stream has ended, the
    /// subscriber's queue gets the Eof at once: no dispatcher is left to
    /// send it.
    pub fn add(&self, producer: Producer) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as u64;
        let mut subs = self.subs.lock();
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

    /// Total tuples queued across all subscriber queues (shutdown drain
    /// bookkeeping).
    pub fn backlog(&self) -> usize {
        (self.subs.lock().list.iter())
            .map(|s| s.producer.stats().len)
            .sum()
    }
}

/// How far a stream's dispatcher has got through its ingress fjord, for
/// the drain a checkpoint or shutdown waits on: the count of messages
/// ([`Inbox::pulled`]) it has stamped, archived, run through its plans and
/// forwarded with nothing left pending — or that it has retired or failed,
/// after which nothing more will move.
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

/// Overload behaviour when a query's input queue is full (§4.3's QoS
/// question: "deciding what work to drop when the system is in danger of
/// falling behind the incoming data stream").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Stall the stream (lossless back-pressure, the default): slow
    /// consumers slow the whole stream down.
    #[default]
    Backpressure,
    /// Shed: drop the slow subscriber's copy (other queries still get the
    /// tuple) and count it — "degrade in a controlled fashion". The
    /// stream's own plans never shed: nothing queues for them.
    Shed,
}

/// The dispatcher DU for one stream.
pub struct StreamDispatcher {
    name: String,
    input: Inbox,
    /// The stream's filter and aggregate queries, run in place.
    plans: StreamPlans,
    subscribers: SubscriberSet,
    /// Stream history spool; `None` disables archiving.
    archive: Option<Arc<Mutex<StreamArchive>>>,
    /// Latest logical timestamp seen (shared with the server for ST
    /// assignment and window bookkeeping).
    latest_seq: Arc<AtomicI64>,
    /// Arrival counter used to stamp tuples lacking logical timestamps.
    arrivals: i64,
    /// Tuples waiting for a full subscriber queue: (subscriber index cursor
    /// handled inside), preserving order.
    pending: VecDeque<Tuple>,
    overload: OverloadPolicy,
    /// Per-subscriber copies shed under overload (shared for observability).
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
    /// `input`, running `plans` and feeding `subscribers`. Faults, stamping
    /// and archiving are per message, so a same-seed chaos run is
    /// byte-identical at any `io_batch`.
    pub fn new(
        name: impl Into<String>,
        input: Inbox,
        plans: StreamPlans,
        subscribers: SubscriberSet,
        archive: Option<Arc<Mutex<StreamArchive>>>,
        latest_seq: Arc<AtomicI64>,
    ) -> Self {
        StreamDispatcher {
            name: name.into(),
            input,
            plans,
            subscribers,
            archive,
            // A restored server seeds `latest_seq` from the checkpoint
            // before building dispatchers, so arrival stamping continues
            // past the pre-crash watermark instead of restarting at 1.
            arrivals: latest_seq.load(Ordering::Acquire),
            latest_seq,
            pending: VecDeque::new(),
            overload: OverloadPolicy::Backpressure,
            shed: Arc::new(AtomicI64::new(0)),
            archive_errors: Arc::new(AtomicI64::new(0)),
            injector: None,
            settled: Settled::default(),
            eof_sent: false,
            eof_delivered: Vec::new(),
        }
    }

    /// Select the overload policy (default: lossless back-pressure).
    pub fn with_overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Attach a chaos injector: each fresh tuple polls
    /// [`FaultPoint::FjordEnqueue`]; an `Overflow` fault drops the tuple
    /// for the stream's plans and every subscriber, regardless of overload
    /// policy — an injected full is a full that does not clear. It counts
    /// one shed per subscriber queue, plus one for the plans while a query
    /// stands among them.
    pub fn with_injector(mut self, injector: SharedInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Shared counter of copies shed under [`OverloadPolicy::Shed`] or an
    /// injected enqueue overflow.
    pub fn shed_counter(&self) -> Arc<AtomicI64> {
        Arc::clone(&self.shed)
    }

    /// Shared counter of failed (skipped) archive appends.
    pub fn archive_error_counter(&self) -> Arc<AtomicI64> {
        Arc::clone(&self.archive_errors)
    }

    /// Shared view of how many ingress messages this dispatcher has
    /// settled.
    pub fn settled(&self) -> Settled {
        self.settled.clone()
    }

    /// Fan a run of stamped tuples out to every subscriber, one
    /// `enqueue_batch` per subscriber. The final subscriber receives the
    /// tuples by move — every earlier one gets clones — so the common
    /// single-subscriber fan-out never copies a tuple. Under
    /// back-pressure only the longest prefix every subscriber can accept
    /// is forwarded (all-or-nothing per tuple, so no subscriber ever sees
    /// reordered input); the stalled suffix returns to the *front* of
    /// `pending` and the call reports false.
    ///
    /// The capacity check is race-free because each subscription queue has
    /// exactly one producer (this dispatcher): its length can only shrink
    /// between the check and the enqueue.
    fn forward_batch(&mut self, mut tuples: Vec<Tuple>) -> bool {
        if tuples.is_empty() {
            return true;
        }
        let guard = self.subscribers.subs.lock();
        let subs = &guard.list;
        let mut limit = tuples.len();
        if self.overload == OverloadPolicy::Backpressure {
            for s in subs.iter() {
                let st = s.producer.stats();
                limit = limit.min(st.capacity.saturating_sub(st.len));
            }
        }
        let stalled: Vec<Tuple> = tuples.drain(limit..).collect();
        if !tuples.is_empty() {
            let last = subs.len().saturating_sub(1);
            for (i, s) in subs.iter().enumerate() {
                let mut batch: Vec<FjordMessage> = if i == last {
                    std::mem::take(&mut tuples)
                        .into_iter()
                        .map(FjordMessage::Tuple)
                        .collect()
                } else {
                    tuples.iter().cloned().map(FjordMessage::Tuple).collect()
                };
                match s.producer.enqueue_batch(&mut batch) {
                    Ok(_) => {
                        // A refused suffix is only reachable under
                        // OverloadPolicy::Shed: those copies are dropped,
                        // other subscribers still get them.
                        if !batch.is_empty() {
                            self.shed.fetch_add(batch.len() as i64, Ordering::Relaxed);
                        }
                    }
                    Err(_) => {
                        // Query went away; its subscription is removed
                        // lazily by the server. Dropping its copies is
                        // correct.
                    }
                }
            }
        }
        drop(guard);
        if stalled.is_empty() {
            true
        } else {
            for t in stalled.into_iter().rev() {
                self.pending.push_front(t);
            }
            false
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
/// (Polled per *fresh* tuple, not per retry, so the poll count is a pure
/// function of the tuple sequence.)
fn injected_overflow(
    injector: Option<&SharedInjector>,
    plans: &StreamPlans,
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
        // Deliver stalled tuples first to preserve order.
        if !self.pending.is_empty() {
            let take = budget.min(self.pending.len());
            let retry: Vec<Tuple> = self.pending.drain(..take).collect();
            budget -= take;
            did_work = true;
            if !self.forward_batch(retry) {
                return Ok(ModuleStatus::Idle);
            }
        }
        while self.input.fill(&mut budget) > 0 {
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
                    t.with_timestamp(Timestamp::logical(self.arrivals))
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
            // Fresh tuples only: a back-pressure retry above reaches the
            // subscribers alone.
            self.plans.run(&fan);
            if !self.forward_batch(fan) {
                return Ok(ModuleStatus::Idle);
            }
        }
        if self.pending.is_empty() {
            self.settled.publish(self.input.pulled());
        }
        if self.input.is_done() && self.pending.is_empty() {
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
        self.pending.len() + self.input.buffered()
    }

    fn nudge(&mut self) -> bool {
        // Only the EOF broadcast can be withheld here; pending tuples
        // must drain first (Eof may never overtake data).
        if self.input.is_done() && !self.eof_sent && self.pending.is_empty() {
            let before = self.eof_delivered.len();
            self.fan_out_eof();
            return self.eof_delivered.len() > before;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Expr, Field, Schema, SchemaRef, Timestamp, TupleBuilder};
    use tcq_egress::EgressRouter;
    use tcq_fjords::{fjord, Consumer, DequeueResult, QueueKind};

    fn schema() -> SchemaRef {
        Schema::qualified("s", vec![Field::new("x", DataType::Int)]).into_ref()
    }

    fn no_plans() -> StreamPlans {
        StreamPlans::new(schema(), EgressRouter::new())
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
            subs,
            None,
            Arc::new(AtomicI64::new(0)),
        );
        let s = schema();
        let base = Arc::strong_count(&s);
        for x in 1..=5 {
            ip.enqueue(FjordMessage::Tuple(tick(&s, x))).unwrap();
        }
        assert_eq!(
            Arc::strong_count(&s),
            base + 5,
            "5 tuples queued at ingress"
        );
        assert_eq!(d.run(64).unwrap(), ModuleStatus::Ready);
        assert_eq!(
            Arc::strong_count(&s),
            base + 15,
            "one copy per (tuple, subscriber), nothing retained"
        );
        assert_eq!(drain_tuples(&consumers[2]), vec![1, 2, 3, 4, 5]);
        assert_eq!(
            Arc::strong_count(&s),
            base + 10,
            "draining one subscriber frees exactly its copies"
        );
    }

    /// Back-pressure stalls the suffix in order: once the slow subscriber
    /// drains, every tuple arrives exactly once, in arrival order, at
    /// every subscriber.
    #[test]
    fn backpressure_stall_preserves_order_across_batches() {
        let (ip, ic) = fjord(64, QueueKind::Push);
        let subs = SubscriberSet::new();
        let (wide_p, wide_c) = fjord(64, QueueKind::Push);
        let (narrow_p, narrow_c) = fjord(4, QueueKind::Push);
        subs.add(wide_p);
        subs.add(narrow_p);
        let egress = EgressRouter::new();
        egress.register_pull_client(1, 64).unwrap();
        egress.subscribe(1, 7).unwrap();
        let plans = StreamPlans::new(schema(), egress.clone());
        plans
            .add_filter(7, None, &[(Expr::col("x"), None)], i64::MIN)
            .unwrap();
        let mut d = StreamDispatcher::new(
            "d",
            Inbox::new(ic, 8),
            plans,
            subs,
            None,
            Arc::new(AtomicI64::new(0)),
        );
        let s = schema();
        for x in 1..=10 {
            ip.enqueue(FjordMessage::Tuple(tick(&s, x))).unwrap();
        }
        let settled = d.settled();
        // First quantum fills the narrow queue and stalls: the 8 messages
        // pulled are not settled while some wait in `pending`.
        assert_eq!(d.run(64).unwrap(), ModuleStatus::Idle);
        assert_eq!(drain_tuples(&narrow_c), vec![1, 2, 3, 4]);
        assert_eq!(settled.get(), Some(0));
        let mut rest = Vec::new();
        while rest.len() < 6 {
            let _ = d.run(64).unwrap();
            rest.extend(drain_tuples(&narrow_c));
        }
        assert_eq!(rest, vec![5, 6, 7, 8, 9, 10]);
        assert_eq!(settled.get(), Some(10), "every message pulled is settled");
        assert_eq!(drain_tuples(&wide_c), (1..=10).collect::<Vec<i64>>());
        // The stream's own filter query saw each tuple once, however many
        // retries the narrow queue cost.
        let filtered: Vec<i64> = (egress.fetch(1, 64).unwrap().iter())
            .map(|(_, t)| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(filtered, (1..=10).collect::<Vec<i64>>());
        drop(d);
        assert_eq!(settled.get(), None, "a retired dispatcher drains");
    }
}
