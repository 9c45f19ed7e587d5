//! Progress read from the fjords' own counts.
//!
//! TelegraphCQ's adaptivity assumes the dataflow always makes progress;
//! this module makes progress *observable* so a watchdog can detect when
//! it stops, in the explicit-progress spirit of "Consistent Streaming
//! Through Time". A [`ProgressRegistry`] makes fjords
//! ([`ProgressRegistry::fjord`]) and holds a handle on each one's queue
//! core, so it reads the counts the core keeps anyway — no second count:
//!
//! * the **frontier** is monotone: every enqueue and dequeue of every
//!   fjord the registry made, the live ones read without a queue lock and
//!   the dropped ones folded into a retired total when their last
//!   endpoint left. Any message moving anywhere advances it.
//! * **in flight** is the sum of the live fjords' depths. A stall is
//!   "frontier frozen while messages are in flight".
//!
//! A dropped fjord leaves the registry at once, so a registry does not
//! grow with the queries a server has started and stopped. End-of-stream
//! and pending-punctuation facts are read only when a [`ProgressSnapshot`]
//! is taken, from the endpoint counts and the messages queued then; the
//! put/take path scans nothing for them. Reading never changes what a
//! fjord does, so a run observed by a watchdog stays byte-identical to
//! one that is not.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tcq_common::sync::Mutex;

use crate::queue::{endpoints, Consumer, FjordMessage, Producer, QueueKind, Shared};

/// Point-in-time view of one fjord.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// The fjord's name, as given to [`ProgressRegistry::fjord`].
    pub name: String,
    /// Messages that entered the fjord.
    pub enqueued: u64,
    /// Messages that left the fjord.
    pub dequeued: u64,
    /// Messages queued now (`enqueued - dequeued`).
    pub depth: u64,
    /// Punctuations queued now.
    pub puncts: u64,
    /// Producer offers refused because the fjord was full.
    pub rejections: u64,
    /// Nothing more will enter: no producer is left, an `Eof` is queued,
    /// or no consumer is left to take a put (an [`crate::Inbox`] lets go
    /// of its consumer when it reaches the `Eof`).
    pub eof_in: bool,
    /// Nothing more will leave: no consumer is left, or no producer is
    /// left and nothing is queued.
    pub eof_out: bool,
}

/// Point-in-time view of a whole registry.
#[derive(Debug, Clone, Default)]
pub struct ProgressSnapshot {
    /// The monotone frontier: enqueues plus dequeues of every fjord the
    /// registry made, dropped ones included.
    pub frontier: u64,
    /// Messages queued in the live fjords.
    pub in_flight: u64,
    /// Every live fjord, in the order they were made.
    pub channels: Vec<ChannelSnapshot>,
}

impl ProgressSnapshot {
    /// Channels that still hold messages — the usual stall suspects.
    pub fn blocked_channels(&self) -> Vec<&ChannelSnapshot> {
        self.channels.iter().filter(|c| c.depth > 0).collect()
    }
}

/// The live fjords of a registry, and what the dropped ones moved.
#[derive(Default)]
pub(crate) struct Channels {
    live: Vec<(String, Arc<Shared>)>,
    retired: u64,
}

impl Channels {
    /// Forget `core`, whose last endpoint just left, keeping its final
    /// counts in the retired total.
    pub(crate) fn retire(&mut self, core: &Arc<Shared>) {
        if let Some(i) = self.live.iter().position(|(_, c)| Arc::ptr_eq(c, core)) {
            self.retired += moved(core);
            self.live.remove(i);
        }
    }
}

/// Enqueues plus dequeues of one queue core.
fn moved(core: &Shared) -> u64 {
    core.counts.enqueued.load(Ordering::Relaxed) + core.counts.dequeued.load(Ordering::Relaxed)
}

/// Messages queued in one queue core, read without its lock: `dequeued`
/// first, so the later `enqueued` read is never behind it.
fn depth(core: &Shared) -> u64 {
    let dequeued = core.counts.dequeued.load(Ordering::Relaxed);
    core.counts
        .enqueued
        .load(Ordering::Relaxed)
        .saturating_sub(dequeued)
}

/// One queue core's snapshot, read under its lock.
fn snapshot_of(name: &str, core: &Shared) -> ChannelSnapshot {
    let state = core.state.lock();
    let (puncts, eof_queued) = state.buf.iter().fold((0, false), |(p, e), m| match m {
        FjordMessage::Punct(_) => (p + 1, e),
        FjordMessage::Eof => (p, true),
        FjordMessage::Tuple(_) => (p, e),
    });
    let depth = state.buf.len() as u64;
    ChannelSnapshot {
        name: name.to_string(),
        enqueued: core.counts.enqueued.load(Ordering::Relaxed),
        dequeued: core.counts.dequeued.load(Ordering::Relaxed),
        depth,
        puncts,
        rejections: core.counts.full_rejections.load(Ordering::Relaxed),
        eof_in: state.producers == 0 || eof_queued || state.consumers == 0,
        eof_out: state.consumers == 0 || (state.producers == 0 && depth == 0),
    }
}

/// The fjords of one engine, read for progress. Clones share state: the
/// server makes its fjords through one registry and the liveness watchdog
/// reads the same one.
#[derive(Clone, Default)]
pub struct ProgressRegistry {
    channels: Arc<Mutex<Channels>>,
}

impl fmt::Debug for ProgressRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressRegistry")
            .field("live", &self.channels.lock().live.len())
            .finish()
    }
}

impl ProgressRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A push fjord like [`crate::fjord`], named `name` in snapshots, that
    /// this registry reads until its last endpoint is dropped.
    pub fn fjord(&self, name: impl Into<String>, capacity: usize) -> (Producer, Consumer) {
        let core = Shared::new(
            capacity,
            QueueKind::Push,
            Some(Arc::downgrade(&self.channels)),
        );
        self.channels
            .lock()
            .live
            .push((name.into(), Arc::clone(&core)));
        endpoints(core)
    }

    /// The monotone frontier: any message moving anywhere advances it.
    pub fn frontier(&self) -> u64 {
        let channels = self.channels.lock();
        channels.retired + channels.live.iter().map(|(_, c)| moved(c)).sum::<u64>()
    }

    /// Messages queued in the live fjords.
    pub fn in_flight(&self) -> u64 {
        self.channels
            .lock()
            .live
            .iter()
            .map(|(_, c)| depth(c))
            .sum()
    }

    /// Every live fjord's counts and end-of-stream state, and the totals.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let guard = self.channels.lock();
        let channels: Vec<ChannelSnapshot> = guard
            .live
            .iter()
            .map(|(name, core)| snapshot_of(name, core))
            .collect();
        ProgressSnapshot {
            frontier: guard.retired
                + channels
                    .iter()
                    .map(|c| c.enqueued + c.dequeued)
                    .sum::<u64>(),
            in_flight: channels.iter().map(|c| c.depth).sum(),
            channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::Timestamp;

    fn punct(t: i64) -> FjordMessage {
        FjordMessage::Punct(Timestamp::logical(t))
    }

    #[test]
    fn frontier_advances_on_both_enqueue_and_dequeue() {
        let reg = ProgressRegistry::new();
        let (p, c) = reg.fjord("ingress", 8);
        assert_eq!(reg.frontier(), 0);
        let mut msgs = vec![punct(1), punct(2), punct(3)];
        p.enqueue_batch(&mut msgs).unwrap();
        assert_eq!(reg.frontier(), 3);
        assert_eq!(reg.in_flight(), 3);
        assert_eq!(c.drain().len(), 3);
        assert_eq!(reg.frontier(), 6, "dequeue also advances the frontier");
        assert_eq!(reg.in_flight(), 0);
    }

    #[test]
    fn a_dropped_fjord_leaves_the_registry_and_keeps_the_frontier() {
        let reg = ProgressRegistry::new();
        let (p, c) = reg.fjord("a", 4);
        let (_q, _d) = reg.fjord("b", 4);
        p.enqueue(punct(1)).unwrap();
        p.enqueue(punct(2)).unwrap();
        c.dequeue();
        assert_eq!((reg.frontier(), reg.in_flight()), (3, 1));
        drop(p);
        assert_eq!(reg.snapshot().channels.len(), 2, "a consumer is left");
        drop(c);
        let snap = reg.snapshot();
        assert_eq!(snap.channels.len(), 1);
        assert_eq!(snap.channels[0].name, "b");
        assert_eq!(snap.frontier, 3, "the dropped fjord's moves still count");
        assert_eq!(snap.in_flight, 0, "a dropped fjord holds nothing in flight");
        assert_eq!(reg.frontier(), 3);
    }

    #[test]
    fn snapshot_reports_depths_puncts_and_eof() {
        let reg = ProgressRegistry::new();
        let (a, a_out) = reg.fjord("part.0", 4);
        let (b, b_out) = reg.fjord("part.1", 4);
        let mut msgs: Vec<FjordMessage> = (1..=6).map(punct).collect();
        assert_eq!(a.enqueue_batch(&mut msgs).unwrap(), 4);
        a_out.dequeue();
        b.enqueue(FjordMessage::Eof).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.in_flight, 4);
        assert_eq!(snap.frontier, 6);
        assert_eq!(snap.blocked_channels().len(), 2);
        let a_snap = &snap.channels[0];
        assert_eq!(a_snap.name, "part.0");
        assert_eq!((a_snap.depth, a_snap.puncts, a_snap.rejections), (3, 3, 2));
        assert!(!a_snap.eof_in && !a_snap.eof_out);
        let b_snap = &snap.channels[1];
        assert!(b_snap.eof_in, "an Eof is queued");
        assert!(!b_snap.eof_out, "nobody has taken it");
        let mut inbox = crate::Inbox::new(b_out, 8);
        assert_eq!(inbox.next(&mut 8), None);
        assert!(inbox.is_done(), "the inbox reached the Eof and let go");
        let b_snap = reg.snapshot().channels[1].clone();
        assert!(b_snap.eof_in && b_snap.eof_out, "ended and drained");
        drop(a);
        let a_snap = reg.snapshot().channels[0].clone();
        assert!(a_snap.eof_in, "no producer is left");
        assert!(!a_snap.eof_out, "three messages still queued");
        drop(b);
        assert_eq!(reg.snapshot().channels.len(), 1, "b has no endpoint left");
    }

    #[test]
    fn registry_clones_share_state() {
        let reg = ProgressRegistry::new();
        let reg2 = reg.clone();
        let (p, _c) = reg.fjord("shared", 4);
        p.enqueue(punct(1)).unwrap();
        assert_eq!(reg2.frontier(), 1);
        assert_eq!(reg2.snapshot().channels.len(), 1);
    }

    #[test]
    fn a_fjord_outliving_its_registry_still_works() {
        let reg = ProgressRegistry::new();
        let (p, c) = reg.fjord("orphan", 4);
        drop(reg);
        p.enqueue(punct(1)).unwrap();
        assert!(matches!(c.dequeue(), crate::DequeueResult::Msg(_)));
        drop((p, c));
    }
}
