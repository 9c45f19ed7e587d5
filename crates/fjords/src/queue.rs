//! The Fjord queue itself: a bounded MPMC queue with both blocking and
//! non-blocking endpoints, disconnection tracking, and counters for
//! back-pressure-aware routing policies.
//!
//! Every endpoint is one call to a private core — `Shared::put` or
//! `Shared::take`, both run with the queue lock held — or a condvar loop
//! around one. The core owns the capacity check, the counters, the
//! wake-ups and the disconnect rule: a consumer sees `Disconnected` only
//! when, under the lock, the queue is empty and no producer is left; a
//! producer sees it when no consumer is left.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use tcq_common::sync::{Condvar, Mutex};

use crate::progress::Channels;

use tcq_common::{Result, TcqError, Timestamp, Tuple};

/// What flows along a Fjord: data tuples plus in-band control.
#[derive(Debug, Clone, PartialEq)]
pub enum FjordMessage {
    /// A data tuple.
    Tuple(Tuple),
    /// A punctuation/heartbeat: no tuple with timestamp ≤ this will follow.
    /// Window operators use punctuations to close windows on sparse streams.
    Punct(Timestamp),
    /// End of stream ("the Eddy shuts down its connected modules when the
    /// end of all of its input streams has been reached", §2.2).
    Eof,
}

impl FjordMessage {
    /// The contained tuple, if any.
    pub fn tuple(self) -> Option<Tuple> {
        match self {
            FjordMessage::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// True for `Eof`.
    pub fn is_eof(&self) -> bool {
        matches!(self, FjordMessage::Eof)
    }
}

/// The endpoint discipline a queue is wired for (see crate docs). A label
/// only: every endpoint works on every kind, and nothing checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Blocking enqueue, blocking dequeue — iterator-style pull pipelines.
    Pull,
    /// Non-blocking enqueue and dequeue — streaming push pipelines.
    Push,
    /// Non-blocking enqueue, blocking dequeue — Graefe Exchange semantics.
    Exchange,
}

/// Non-blocking enqueue failure.
#[derive(Debug, PartialEq)]
pub enum EnqueueError {
    /// Queue at capacity; caller should yield and retry (back-pressure).
    Full(FjordMessage),
    /// All consumers dropped; message returned so the caller can spill it.
    Disconnected(FjordMessage),
}

/// Non-blocking dequeue outcome.
#[derive(Debug, PartialEq)]
pub enum DequeueResult {
    /// A message was available.
    Msg(FjordMessage),
    /// Queue empty; "control is returned to the consumer when the queue is
    /// empty" (§2.3) — the consumer should pursue other work or yield.
    Empty,
    /// Queue empty and all producers dropped: no message will ever arrive.
    Disconnected,
}

/// Non-blocking batch dequeue outcome ([`Consumer::dequeue_batch`]); also
/// what the queue core reports to every dequeue endpoint.
#[derive(Debug, PartialEq)]
pub enum BatchDequeueResult {
    /// `n ≥ 1` messages were appended to the caller's buffer in FIFO order.
    Msgs(usize),
    /// Queue empty; pursue other work or yield.
    Empty,
    /// Queue empty and all producers dropped: no message will ever arrive.
    Disconnected,
}

/// Point-in-time statistics for a queue, used by back-pressure routing and
/// by the experiment harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Messages currently buffered.
    pub len: usize,
    /// Capacity.
    pub capacity: usize,
    /// Total successful enqueues since creation.
    pub enqueued: u64,
    /// Total successful dequeues since creation.
    pub dequeued: u64,
    /// Enqueue attempts rejected with `Full`.
    pub full_rejections: u64,
    /// Consumers still attached. At 0 nothing put into the queue will be
    /// read, so a producer owes it no back-pressure.
    pub consumers: usize,
}

impl QueueStats {
    /// Fill fraction in [0, 1].
    pub fn fill(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.len as f64 / self.capacity as f64
        }
    }
}

pub(crate) struct Shared {
    pub(crate) state: Mutex<State>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    kind: QueueKind,
    pub(crate) counts: Counts,
    /// The [`crate::ProgressRegistry`] that made this fjord, told when its
    /// last endpoint leaves.
    registry: Option<Weak<Mutex<Channels>>>,
}

/// Everything the queue lock guards. The endpoint counts live here too,
/// so the disconnect rule reads them in the same critical section that
/// moves messages, and so do the waiter counts, so a transfer wakes a
/// condvar only when a blocking endpoint is parked on it.
pub(crate) struct State {
    pub(crate) buf: VecDeque<FjordMessage>,
    pub(crate) producers: usize,
    pub(crate) consumers: usize,
    waiting_producers: usize,
    waiting_consumers: usize,
}

/// The queue's cumulative counts. Only the core writes them, under the
/// queue lock, so they agree with the messages it moves; they are atomics
/// so the progress registry can read them without that lock.
#[derive(Default)]
pub(crate) struct Counts {
    pub(crate) enqueued: AtomicU64,
    pub(crate) dequeued: AtomicU64,
    pub(crate) full_rejections: AtomicU64,
}

/// Add `n` to a count the queue lock serialises writes to: a plain load
/// and store, no read-modify-write.
fn bump(count: &AtomicU64, n: usize) {
    count.store(count.load(Ordering::Relaxed) + n as u64, Ordering::Relaxed);
}

/// Every consumer is gone: nothing put into the queue will be read.
struct Gone;

/// What [`Shared::put`] does with messages that find no room.
enum OnFull {
    /// Leave them with the caller, counted as `full_rejections`.
    Refuse,
    /// Leave them with the caller, uncounted: a blocking caller waits for
    /// room and offers them again.
    Wait,
}

/// A caller's side of a transfer: `Option` for the one-message endpoints
/// (nothing allocated), `Vec` for the batch endpoints.
trait MsgBuf {
    /// The messages held.
    fn msgs(&self) -> &[FjordMessage];
    /// Move the first `n` held messages to the back of `q`.
    fn give(&mut self, q: &mut VecDeque<FjordMessage>, n: usize);
    /// Move the first `n` messages of `q` to the back of this buffer.
    fn receive(&mut self, q: &mut VecDeque<FjordMessage>, n: usize);
}

impl MsgBuf for Option<FjordMessage> {
    fn msgs(&self) -> &[FjordMessage] {
        self.as_slice()
    }
    fn give(&mut self, q: &mut VecDeque<FjordMessage>, n: usize) {
        if n > 0 {
            q.extend(self.take());
        }
    }
    fn receive(&mut self, q: &mut VecDeque<FjordMessage>, n: usize) {
        debug_assert!(n <= 1 && self.is_none());
        if n > 0 {
            *self = q.pop_front();
        }
    }
}

impl MsgBuf for Vec<FjordMessage> {
    fn msgs(&self) -> &[FjordMessage] {
        self
    }
    fn give(&mut self, q: &mut VecDeque<FjordMessage>, n: usize) {
        q.extend(self.drain(..n));
    }
    fn receive(&mut self, q: &mut VecDeque<FjordMessage>, n: usize) {
        self.extend(q.drain(..n));
    }
}

/// Create a Fjord of the given capacity and discipline, returning its two
/// endpoints. Capacity must be at least 1.
pub fn fjord(capacity: usize, kind: QueueKind) -> (Producer, Consumer) {
    endpoints(Shared::new(capacity, kind, None))
}

/// The two endpoints of a fresh queue core.
pub(crate) fn endpoints(shared: Arc<Shared>) -> (Producer, Consumer) {
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

/// Writing end of a Fjord. Clonable: several producers may feed one queue
/// (e.g. many modules bounce tuples back to one eddy).
pub struct Producer {
    shared: Arc<Shared>,
}

/// Reading end of a Fjord. Clonable for work-sharing consumers.
pub struct Consumer {
    shared: Arc<Shared>,
}

/// Bounded wait between re-checks in the blocking endpoints: a safety net,
/// since every transfer and every last-endpoint drop already wakes parked
/// waiters under the lock.
const RECHECK: Duration = Duration::from_millis(50);

impl Producer {
    /// Non-blocking enqueue.
    pub fn enqueue(&self, msg: FjordMessage) -> std::result::Result<(), EnqueueError> {
        let mut slot = Some(msg);
        let put = self
            .shared
            .put(&mut self.shared.state.lock(), &mut slot, OnFull::Refuse);
        match (put, slot) {
            (_, None) => Ok(()),
            (Ok(_), Some(msg)) => Err(EnqueueError::Full(msg)),
            (Err(Gone), Some(msg)) => Err(EnqueueError::Disconnected(msg)),
        }
    }

    /// Blocking enqueue: waits while full, errors when all consumers left.
    pub fn enqueue_blocking(&self, msg: FjordMessage) -> Result<()> {
        self.put_blocking(&mut Some(msg)).map(drop)
    }

    /// Non-blocking batch enqueue: moves the longest prefix of `msgs` that
    /// fits under a **single** lock acquisition, preserving order (so
    /// punctuations and `Eof` can never be reordered past the data tuples
    /// they follow). Accepted messages are drained from the front of
    /// `msgs`; the refused suffix stays for the caller to retry. Returns
    /// the number accepted. Counters advance exactly as if each message
    /// had been offered individually: `enqueued` by the accepted count,
    /// `full_rejections` by the refused count. Errors `Disconnected` with
    /// `msgs` untouched when every consumer is gone.
    pub fn enqueue_batch(&self, msgs: &mut Vec<FjordMessage>) -> Result<usize> {
        self.shared
            .put(&mut self.shared.state.lock(), msgs, OnFull::Refuse)
            .map_err(|Gone| TcqError::Disconnected("consumer side"))
    }

    /// Blocking batch enqueue: moves **all** of `msgs` into the queue,
    /// waiting for space and transferring each freed chunk under one lock
    /// acquisition. Returns the total moved (the original length). Errors
    /// once every consumer has disconnected; the unsent suffix stays in
    /// `msgs` in order.
    pub fn enqueue_batch_blocking(&self, msgs: &mut Vec<FjordMessage>) -> Result<usize> {
        self.put_blocking(msgs)
    }

    fn put_blocking(&self, msgs: &mut impl MsgBuf) -> Result<usize> {
        let total = msgs.msgs().len();
        let mut state = self.shared.state.lock();
        loop {
            if self.shared.put(&mut state, msgs, OnFull::Wait).is_err() {
                return Err(TcqError::Disconnected("consumer side"));
            }
            if msgs.msgs().is_empty() {
                return Ok(total);
            }
            state.waiting_producers += 1;
            self.shared.not_full.wait_for(&mut state, RECHECK);
            state.waiting_producers -= 1;
        }
    }

    /// Convenience: enqueue a tuple, blocking.
    pub fn send_tuple(&self, t: Tuple) -> Result<()> {
        self.enqueue_blocking(FjordMessage::Tuple(t))
    }

    /// Convenience: signal end-of-stream, blocking.
    pub fn send_eof(&self) -> Result<()> {
        self.enqueue_blocking(FjordMessage::Eof)
    }

    /// Convenience: enqueue a punctuation, blocking.
    pub fn send_punct(&self, ts: Timestamp) -> Result<()> {
        self.enqueue_blocking(FjordMessage::Punct(ts))
    }

    /// The queue's discipline.
    pub fn kind(&self) -> QueueKind {
        self.shared.kind
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> QueueStats {
        self.shared.stats()
    }
}

impl Consumer {
    /// Non-blocking dequeue.
    pub fn dequeue(&self) -> DequeueResult {
        let mut slot = None;
        let took = self
            .shared
            .take(&mut self.shared.state.lock(), &mut slot, 1);
        match (took, slot) {
            (_, Some(msg)) => DequeueResult::Msg(msg),
            (BatchDequeueResult::Disconnected, None) => DequeueResult::Disconnected,
            _ => DequeueResult::Empty,
        }
    }

    /// Blocking dequeue: waits for a message, errors once the queue is empty
    /// and every producer has disconnected.
    pub fn dequeue_blocking(&self) -> Result<FjordMessage> {
        let mut state = self.shared.state.lock();
        loop {
            let mut slot = None;
            if self.shared.take(&mut state, &mut slot, 1) == BatchDequeueResult::Disconnected {
                return Err(TcqError::Disconnected("producer side"));
            }
            if let Some(msg) = slot {
                return Ok(msg);
            }
            state.waiting_consumers += 1;
            self.shared.not_empty.wait_for(&mut state, RECHECK);
            state.waiting_consumers -= 1;
        }
    }

    /// Non-blocking batch dequeue: pops up to `max` messages under a
    /// **single** lock acquisition, appending them to `out` in FIFO order
    /// (control messages keep their position relative to data tuples).
    /// `dequeued` advances by the popped count.
    pub fn dequeue_batch(&self, out: &mut Vec<FjordMessage>, max: usize) -> BatchDequeueResult {
        self.shared.take(&mut self.shared.state.lock(), out, max)
    }

    /// Drain every currently buffered message without blocking.
    pub fn drain(&self) -> Vec<FjordMessage> {
        let mut out = Vec::new();
        self.shared
            .take(&mut self.shared.state.lock(), &mut out, usize::MAX);
        out
    }

    /// The queue's discipline.
    pub fn kind(&self) -> QueueKind {
        self.shared.kind
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> QueueStats {
        self.shared.stats()
    }

    /// Current buffered length (for back-pressure policies).
    pub fn len(&self) -> usize {
        self.shared.state.lock().buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Shared {
    /// A queue core with both endpoint counts at one; `registry`, if any,
    /// is told when the last of them leaves.
    pub(crate) fn new(
        capacity: usize,
        kind: QueueKind,
        registry: Option<Weak<Mutex<Channels>>>,
    ) -> Arc<Self> {
        assert!(capacity >= 1, "fjord capacity must be >= 1");
        Arc::new(Shared {
            state: Mutex::new(State {
                buf: VecDeque::with_capacity(capacity.min(1024)),
                producers: 1,
                consumers: 1,
                waiting_producers: 0,
                waiting_consumers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            kind,
            counts: Counts::default(),
            registry,
        })
    }

    /// The one enqueue rule, called with the queue lock held. Errs [`Gone`]
    /// when every consumer has left. Otherwise moves the longest prefix of
    /// `msgs` that fits, counts it, wakes parked consumers, and
    /// returns how many moved; the rest stays in `msgs`.
    fn put(
        &self,
        state: &mut State,
        msgs: &mut impl MsgBuf,
        on_full: OnFull,
    ) -> std::result::Result<usize, Gone> {
        if state.consumers == 0 {
            return Err(Gone);
        }
        let n = self
            .capacity
            .saturating_sub(state.buf.len())
            .min(msgs.msgs().len());
        msgs.give(&mut state.buf, n);
        let refused = msgs.msgs().len();
        if matches!(on_full, OnFull::Refuse) && refused > 0 {
            bump(&self.counts.full_rejections, refused);
        }
        bump(&self.counts.enqueued, n);
        if n > 0 && state.waiting_consumers > 0 {
            wake(&self.not_empty, n);
        }
        Ok(n)
    }

    /// The one dequeue rule, called with the queue lock held: moves up to
    /// `max` buffered messages into `out`, counts them, and
    /// wakes parked producers. With nothing moved it reports `Disconnected` only
    /// if the queue is empty *and* no producer is left — both read under
    /// this lock, which every enqueue and every producer drop also takes,
    /// so end-of-stream is never reported while messages are queued.
    fn take(&self, state: &mut State, out: &mut impl MsgBuf, max: usize) -> BatchDequeueResult {
        let n = state.buf.len().min(max);
        if n == 0 {
            return if state.buf.is_empty() && state.producers == 0 {
                BatchDequeueResult::Disconnected
            } else {
                BatchDequeueResult::Empty
            };
        }
        out.receive(&mut state.buf, n);
        bump(&self.counts.dequeued, n);
        if state.waiting_producers > 0 {
            wake(&self.not_full, n);
        }
        BatchDequeueResult::Msgs(n)
    }

    fn stats(&self) -> QueueStats {
        let state = self.state.lock();
        QueueStats {
            len: state.buf.len(),
            capacity: self.capacity,
            enqueued: self.counts.enqueued.load(Ordering::Relaxed),
            dequeued: self.counts.dequeued.load(Ordering::Relaxed),
            full_rejections: self.counts.full_rejections.load(Ordering::Relaxed),
            consumers: state.consumers,
        }
    }

    /// An endpoint leaves: its side's count drops, the last of a side
    /// wakes the waiters on `wake`, and once no endpoint is left the
    /// counts are final, so the registry (told with the queue lock
    /// released) folds them into its retired total and forgets the queue.
    fn leave(self: &Arc<Self>, side: fn(&mut State) -> &mut usize, wake: &Condvar) {
        let mut state = self.state.lock();
        let count = side(&mut state);
        *count -= 1;
        if *count == 0 {
            wake.notify_all();
        }
        let last = state.producers == 0 && state.consumers == 0;
        drop(state);
        if last {
            if let Some(channels) = self.registry.as_ref().and_then(Weak::upgrade) {
                channels.lock().retire(self);
            }
        }
    }
}

/// Wake one waiter for one moved message, all of them for more.
fn wake(cv: &Condvar, moved: usize) {
    if moved == 1 {
        cv.notify_one();
    } else {
        cv.notify_all();
    }
}

impl Clone for Producer {
    fn clone(&self) -> Self {
        self.shared.state.lock().producers += 1;
        Producer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Clone for Consumer {
    fn clone(&self) -> Self {
        self.shared.state.lock().consumers += 1;
        Consumer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        // The last producer wakes blocked consumers so they observe it.
        self.shared
            .leave(|s| &mut s.producers, &self.shared.not_empty);
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        self.shared
            .leave(|s| &mut s.consumers, &self.shared.not_full);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema, TupleBuilder};

    fn t(x: i64) -> Tuple {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        TupleBuilder::new(schema)
            .push(x)
            .at(Timestamp::logical(x))
            .build()
            .unwrap()
    }

    #[test]
    fn a_queued_message_is_a_56_byte_handle() {
        assert_eq!(std::mem::size_of::<Timestamp>(), 16);
        assert!(std::mem::size_of::<Tuple>() <= 56);
        assert!(std::mem::size_of::<FjordMessage>() <= 56);
    }

    #[test]
    fn push_queue_nonblocking_roundtrip() {
        let (p, c) = fjord(4, QueueKind::Push);
        assert_eq!(c.dequeue(), DequeueResult::Empty);
        p.enqueue(FjordMessage::Tuple(t(1))).unwrap();
        p.enqueue(FjordMessage::Eof).unwrap();
        assert_eq!(c.dequeue(), DequeueResult::Msg(FjordMessage::Tuple(t(1))));
        assert_eq!(c.dequeue(), DequeueResult::Msg(FjordMessage::Eof));
        assert_eq!(c.dequeue(), DequeueResult::Empty);
    }

    #[test]
    fn full_queue_rejects_and_counts() {
        let (p, c) = fjord(2, QueueKind::Push);
        p.enqueue(FjordMessage::Tuple(t(1))).unwrap();
        p.enqueue(FjordMessage::Tuple(t(2))).unwrap();
        match p.enqueue(FjordMessage::Tuple(t(3))) {
            Err(EnqueueError::Full(FjordMessage::Tuple(back))) => assert_eq!(back, t(3)),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(c.stats().full_rejections, 1);
        assert_eq!(c.stats().len, 2);
    }

    #[test]
    fn disconnected_consumer_detected() {
        let (p, c) = fjord(2, QueueKind::Push);
        drop(c);
        assert!(matches!(
            p.enqueue(FjordMessage::Eof),
            Err(EnqueueError::Disconnected(_))
        ));
        assert!(p.enqueue_blocking(FjordMessage::Eof).is_err());
    }

    #[test]
    fn disconnected_producer_detected_after_drain() {
        let (p, c) = fjord(2, QueueKind::Push);
        p.enqueue(FjordMessage::Tuple(t(9))).unwrap();
        drop(p);
        // Buffered message still delivered...
        assert!(matches!(c.dequeue(), DequeueResult::Msg(_)));
        // ...then disconnection reported.
        assert_eq!(c.dequeue(), DequeueResult::Disconnected);
        assert!(c.dequeue_blocking().is_err());
    }

    #[test]
    fn blocking_pull_across_threads() {
        let (p, c) = fjord(1, QueueKind::Pull);
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                p.send_tuple(t(i)).unwrap();
            }
            p.send_eof().unwrap();
        });
        let mut seen = 0;
        loop {
            match c.dequeue_blocking().unwrap() {
                FjordMessage::Tuple(tp) => {
                    assert_eq!(tp, t(seen));
                    seen += 1;
                }
                FjordMessage::Eof => break,
                FjordMessage::Punct(_) => {}
            }
        }
        assert_eq!(seen, 100);
        h.join().unwrap();
    }

    #[test]
    fn cloned_producers_all_count() {
        let (p, c) = fjord(8, QueueKind::Push);
        let p2 = p.clone();
        drop(p);
        p2.enqueue(FjordMessage::Tuple(t(1))).unwrap();
        drop(p2);
        assert!(matches!(c.dequeue(), DequeueResult::Msg(_)));
        assert_eq!(c.dequeue(), DequeueResult::Disconnected);
    }

    #[test]
    fn drain_takes_everything() {
        let (p, c) = fjord(8, QueueKind::Push);
        for i in 0..5 {
            p.enqueue(FjordMessage::Tuple(t(i))).unwrap();
        }
        let msgs = c.drain();
        assert_eq!(msgs.len(), 5);
        assert_eq!(c.stats().dequeued, 5);
        assert_eq!(c.dequeue(), DequeueResult::Empty);
    }

    #[test]
    fn exchange_semantics_nonblocking_enqueue_blocking_dequeue() {
        // §2.3: "Fjords can provide Exchange semantics using a blocking
        // dequeue and a non-blocking enqueue."
        let (p, c) = fjord(4, QueueKind::Exchange);
        assert_eq!(p.kind(), QueueKind::Exchange);
        let h = std::thread::spawn(move || c.dequeue_blocking().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        p.enqueue(FjordMessage::Tuple(t(42))).unwrap();
        assert_eq!(h.join().unwrap(), FjordMessage::Tuple(t(42)));
    }

    #[test]
    fn enqueue_batch_takes_prefix_and_counts_refusals() {
        let (p, c) = fjord(3, QueueKind::Push);
        let mut msgs: Vec<FjordMessage> = (1..=5).map(|i| FjordMessage::Tuple(t(i))).collect();
        assert_eq!(p.enqueue_batch(&mut msgs).unwrap(), 3);
        // Refused suffix stays, in order.
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0], FjordMessage::Tuple(t(4)));
        let s = c.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.full_rejections, 2);
        assert_eq!(s.len, 3);
        // FIFO preserved.
        for i in 1..=3 {
            assert_eq!(c.dequeue(), DequeueResult::Msg(FjordMessage::Tuple(t(i))));
        }
    }

    #[test]
    fn enqueue_batch_disconnected_leaves_messages() {
        let (p, c) = fjord(4, QueueKind::Push);
        drop(c);
        let mut msgs = vec![FjordMessage::Eof];
        assert!(p.enqueue_batch(&mut msgs).is_err());
        assert_eq!(msgs.len(), 1, "messages stay with the caller");
    }

    #[test]
    fn dequeue_batch_pops_up_to_max_in_order() {
        let (p, c) = fjord(8, QueueKind::Push);
        for i in 1..=5 {
            p.enqueue(FjordMessage::Tuple(t(i))).unwrap();
        }
        p.enqueue(FjordMessage::Punct(Timestamp::logical(5)))
            .unwrap();
        p.enqueue(FjordMessage::Eof).unwrap();
        let mut out = Vec::new();
        assert_eq!(c.dequeue_batch(&mut out, 4), BatchDequeueResult::Msgs(4));
        assert_eq!(c.dequeue_batch(&mut out, 100), BatchDequeueResult::Msgs(3));
        assert_eq!(c.dequeue_batch(&mut out, 4), BatchDequeueResult::Empty);
        assert_eq!(out.len(), 7);
        // Control messages kept their position after the data tuples.
        assert_eq!(out[5], FjordMessage::Punct(Timestamp::logical(5)));
        assert!(out[6].is_eof());
        assert_eq!(c.stats().dequeued, 7);
        drop(p);
        assert_eq!(
            c.dequeue_batch(&mut out, 4),
            BatchDequeueResult::Disconnected
        );
    }

    #[test]
    fn batch_blocking_roundtrip_across_threads() {
        let (p, c) = fjord(4, QueueKind::Pull);
        let h = std::thread::spawn(move || {
            let mut msgs: Vec<FjordMessage> = (0..100).map(|i| FjordMessage::Tuple(t(i))).collect();
            msgs.push(FjordMessage::Eof);
            assert_eq!(p.enqueue_batch_blocking(&mut msgs).unwrap(), 101);
            assert!(msgs.is_empty());
        });
        let mut out = Vec::new();
        while !out.last().is_some_and(|m: &FjordMessage| m.is_eof()) {
            assert_ne!(
                c.dequeue_batch(&mut out, 8),
                BatchDequeueResult::Disconnected,
                "Disconnected before Eof"
            );
        }
        assert_eq!(out.len(), 101);
        for (i, m) in out.iter().take(100).enumerate() {
            assert_eq!(*m, FjordMessage::Tuple(t(i as i64)));
        }
        h.join().unwrap();
    }

    #[test]
    fn stats_fill_fraction() {
        let (p, c) = fjord(4, QueueKind::Push);
        p.enqueue(FjordMessage::Tuple(t(1))).unwrap();
        p.enqueue(FjordMessage::Tuple(t(2))).unwrap();
        assert!((c.stats().fill() - 0.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema, Timestamp, Tuple, TupleBuilder};

    fn tagged(producer: i64, seq: i64) -> Tuple {
        let schema = Schema::new(vec![
            Field::new("producer", DataType::Int),
            Field::new("seq", DataType::Int),
        ])
        .into_ref();
        TupleBuilder::new(schema)
            .push(producer)
            .push(seq)
            .at(Timestamp::logical(seq))
            .build()
            .unwrap()
    }

    /// Many producers, one consumer, a tiny queue: nothing lost, nothing
    /// duplicated, per-producer FIFO preserved.
    #[test]
    fn mpsc_stress_preserves_per_producer_order() {
        const PRODUCERS: i64 = 4;
        const PER_PRODUCER: i64 = 5_000;
        let (p, c) = fjord(16, QueueKind::Push);
        let mut handles = Vec::new();
        for producer in 0..PRODUCERS {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for seq in 0..PER_PRODUCER {
                    p.enqueue_blocking(FjordMessage::Tuple(tagged(producer, seq)))
                        .unwrap();
                }
            }));
        }
        drop(p);
        let mut last_seq = vec![-1i64; PRODUCERS as usize];
        let mut total = 0u64;
        loop {
            match c.dequeue_blocking() {
                Ok(FjordMessage::Tuple(t)) => {
                    let producer = t.value(0).as_int().unwrap() as usize;
                    let seq = t.value(1).as_int().unwrap();
                    assert!(
                        seq > last_seq[producer],
                        "producer {producer} reordered: {seq} after {}",
                        last_seq[producer]
                    );
                    last_seq[producer] = seq;
                    total += 1;
                }
                Ok(_) => {}
                Err(_) => break, // all producers disconnected, queue drained
            }
        }
        assert_eq!(total, (PRODUCERS * PER_PRODUCER) as u64);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Work-sharing consumers: several consumers split one queue's messages
    /// with no loss or duplication.
    #[test]
    fn mpmc_stress_splits_without_loss() {
        const N: i64 = 20_000;
        const CONSUMERS: usize = 3;
        let (p, c) = fjord(32, QueueKind::Push);
        let mut consumer_handles = Vec::new();
        for _ in 0..CONSUMERS {
            let c = c.clone();
            consumer_handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    match c.dequeue_blocking() {
                        Ok(FjordMessage::Tuple(t)) => {
                            seen.push(t.value(1).as_int().unwrap());
                        }
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
                seen
            }));
        }
        drop(c);
        for seq in 0..N {
            p.enqueue_blocking(FjordMessage::Tuple(tagged(0, seq)))
                .unwrap();
        }
        drop(p);
        let mut all: Vec<i64> = Vec::new();
        for h in consumer_handles {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(
            all,
            (0..N).collect::<Vec<_>>(),
            "exactly-once across consumers"
        );
    }
}
