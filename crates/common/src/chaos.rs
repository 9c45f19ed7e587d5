//! Deterministic fault injection.
//!
//! TelegraphCQ's pitch is continuous dataflow "for an uncertain world":
//! Flux (§2.4) exists to survive node failure and load imbalance, and the
//! ingress wrappers must ride out flaky sources. This module provides the
//! engine-wide chaos layer: a seeded [`FaultPlan`] compiled into a
//! [`FaultInjector`] that components poll at well-known [`FaultPoint`]s.
//! Every fault — scheduled or probabilistic — derives from the plan's seed
//! through [`crate::rng`], so a failing run replays exactly from its seed.
//!
//! Components stay chaos-free by default: polling a point with no injector
//! attached costs one `Option` check and injects nothing.

use std::collections::HashMap;
use std::sync::Arc;

use crate::rng::{seeded, TcqRng};
use crate::sync::Mutex;

/// Where in the engine a fault can be injected. Each point has its own
/// monotonically increasing poll counter, so schedules are expressed as
/// "the Nth time this point is reached".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultPoint {
    /// Ingress: a `Source::next_batch` call.
    SourceRead,
    /// Ingress: one tuple about to be enqueued into a Fjord.
    FjordEnqueue,
    /// Flux: one cluster tick (kills, restarts, stragglers).
    ClusterTick,
    /// Flux: one tuple routed into the cluster.
    Ingest,
    /// Flux: mid-way through a partition state movement (state drained
    /// from the source node, not yet installed at the destination).
    StateMove,
    /// Executor: one Dispatch Unit quantum.
    OperatorRun,
    /// Storage: one tuple appended to a stream archive. `Error` makes
    /// the append fail softly (the tuple is not archived); `Overflow`
    /// makes the *next page seal* a torn write — only a partial page
    /// reaches disk, exercising the archive recovery path; `Stall`
    /// holds the append (and its caller, mid-batch) for `ticks`
    /// milliseconds before it proceeds normally.
    ArchiveAppend,
    /// Egress: one delivery offer to one subscribed client. Every action
    /// (`Error`, `Overflow` or `Stall`) fails the offer: that copy is
    /// shed and the client stays connected.
    EgressDeliver,
    /// Storage: one checkpoint epoch about to be committed. `Error` fails
    /// the commit softly (the pending delta is kept for retry); `Overflow`
    /// makes the commit a torn write — only a partial block reaches disk,
    /// exercising checkpoint recovery's prefix-validity rule.
    CheckpointWrite,
    /// Storage: one checkpoint block read while opening a store. `Error`
    /// makes the block unreadable, truncating recovery to the valid
    /// prefix before it.
    CheckpointRead,
    /// Network: one wire frame decoded off a TCP connection. Polled per
    /// *frame*, not per syscall, so the poll count is a deterministic
    /// function of what the peer sent regardless of how the kernel
    /// segmented it. `Error` poisons the connection (it closes as if the
    /// peer had vanished mid-stream — the dead-client accounting path).
    NetRead,
    /// Network: one wire frame about to be written to a TCP connection.
    /// `Error`/`Overflow` drop the frame (rows counted in the transport's
    /// `rows_dropped_net`); `Stall` holds the writer for `ticks`
    /// milliseconds, simulating a congested socket.
    NetWrite,
}

/// What happens when a fault fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// The faulted operation returns this error.
    Error(String),
    /// The faulted component panics with this message (exercises
    /// supervision; never used by library code on its own).
    Panic(String),
    /// Ingress emits a malformed (wrong-arity) tuple.
    MalformedTuple,
    /// The queue/target behaves as full: the item is rejected or dropped
    /// under the consumer's degradation policy.
    Overflow,
    /// Kill a Flux node.
    KillNode(usize),
    /// Restart (rejoin) a previously killed Flux node.
    RestartNode(usize),
    /// A Flux node straggles: reduced speed for `ticks` ticks.
    Straggler {
        /// Node to slow down.
        node: usize,
        /// Duration of the slowdown in ticks.
        ticks: u64,
    },
    /// The component stalls, in the point's own unit: `ticks`
    /// milliseconds at `ArchiveAppend`, `NetRead` and `NetWrite`, `ticks`
    /// node ticks in Flux. A DU skips one quantum at `OperatorRun` and a
    /// source reads nothing once at `SourceRead`. At `EgressDeliver` the
    /// offer fails like any other action there.
    Stall {
        /// Stall length.
        ticks: u64,
    },
}

/// One scheduled fault: fires the `at`-th time `point` is polled
/// (1-based: `at == 1` fires on the first poll).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Injection point.
    pub point: FaultPoint,
    /// 1-based poll count at which to fire.
    pub at: u64,
    /// The fault.
    pub action: FaultAction,
}

/// A reproducible fault schedule: explicit events plus per-point
/// probabilistic rates, all derived from one seed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    rates: Vec<(FaultPoint, f64, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Schedule `action` for the `at`-th poll of `point` (1-based).
    pub fn at(mut self, point: FaultPoint, at: u64, action: FaultAction) -> Self {
        assert!(at >= 1, "fault schedules are 1-based");
        self.events.push(FaultEvent { point, at, action });
        self
    }

    /// Fire `action` with probability `rate` on every poll of `point`.
    pub fn rate(mut self, point: FaultPoint, rate: f64, action: FaultAction) -> Self {
        self.rates.push((point, rate.clamp(0.0, 1.0), action));
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Compile into an injector.
    pub fn build(self) -> FaultInjector {
        FaultInjector::new(self)
    }

    /// Compile into a thread-safe shared injector.
    pub fn build_shared(self) -> SharedInjector {
        SharedInjector::new(self.build())
    }
}

/// A fault that fired: (point, poll count at that point, action).
pub type FiredFault = (FaultPoint, u64, FaultAction);

/// Polls [`FaultPoint`]s against a [`FaultPlan`]. Deterministic: the same
/// plan polled in the same order fires the same faults.
#[derive(Debug)]
pub struct FaultInjector {
    rng: TcqRng,
    /// Scheduled events in plan order, each with whether it fired.
    events: Vec<(FaultEvent, bool)>,
    /// `(point, at)` → the first event in plan order there, the one a
    /// poll fires (a later one at the same `(point, at)` never does).
    schedule: HashMap<(FaultPoint, u64), usize>,
    rates: Vec<(FaultPoint, f64, FaultAction)>,
    counters: HashMap<FaultPoint, u64>,
    log: Vec<FiredFault>,
}

impl FaultInjector {
    /// Compile `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let mut schedule = HashMap::new();
        for (i, e) in plan.events.iter().enumerate() {
            schedule.entry((e.point, e.at)).or_insert(i);
        }
        FaultInjector {
            rng: seeded(plan.seed),
            events: plan.events.into_iter().map(|e| (e, false)).collect(),
            schedule,
            rates: plan.rates,
            counters: HashMap::new(),
            log: Vec::new(),
        }
    }

    /// Reach `point` once. Returns the fault to apply, if any fires.
    /// Scheduled events take priority over probabilistic rates; at most
    /// one fault fires per poll: of several events scheduled at one count,
    /// the first in plan order. A poll looks up its own count, so its cost
    /// does not grow with the schedule.
    pub fn poll(&mut self, point: FaultPoint) -> Option<FaultAction> {
        let count = self.counters.entry(point).or_insert(0);
        *count += 1;
        let count = *count;
        if let Some(&i) = self.schedule.get(&(point, count)) {
            let (event, fired) = &mut self.events[i];
            *fired = true;
            let action = event.action.clone();
            self.log.push((point, count, action.clone()));
            return Some(action);
        }
        // Probabilistic rates: one RNG draw per configured rate at this
        // point, in plan order, so the stream of draws is a pure function
        // of the poll sequence.
        for (p, rate, action) in &self.rates {
            if *p == point && self.rng.gen_bool(*rate) {
                let action = action.clone();
                self.log.push((point, count, action.clone()));
                return Some(action);
            }
        }
        None
    }

    /// How often `point` has been polled.
    pub fn polls(&self, point: FaultPoint) -> u64 {
        self.counters.get(&point).copied().unwrap_or(0)
    }

    /// Every fault fired so far, in firing order. Two runs of the same
    /// seeded scenario must produce identical logs — the determinism
    /// check the chaos experiment asserts.
    pub fn log(&self) -> &[FiredFault] {
        &self.log
    }

    /// Scheduled events that have not fired (e.g. the poll count was never
    /// reached). Useful for asserting a schedule was fully exercised.
    pub fn pending(&self) -> Vec<FaultEvent> {
        self.events
            .iter()
            .filter(|(_, fired)| !fired)
            .map(|(e, _)| e.clone())
            .collect()
    }
}

/// Clonable, thread-safe handle to a [`FaultInjector`] — streamer threads,
/// executor EOs, and the Flux driver can share one schedule.
#[derive(Debug, Clone)]
pub struct SharedInjector {
    inner: Arc<Mutex<FaultInjector>>,
}

impl SharedInjector {
    /// Wrap an injector.
    pub fn new(injector: FaultInjector) -> Self {
        SharedInjector {
            inner: Arc::new(Mutex::new(injector)),
        }
    }

    /// See [`FaultInjector::poll`].
    pub fn poll(&self, point: FaultPoint) -> Option<FaultAction> {
        self.inner.lock().poll(point)
    }

    /// See [`FaultInjector::polls`].
    pub fn polls(&self, point: FaultPoint) -> u64 {
        self.inner.lock().polls(point)
    }

    /// Snapshot of the fired-fault log.
    pub fn log(&self) -> Vec<FiredFault> {
        self.inner.lock().log().to_vec()
    }

    /// See [`FaultInjector::pending`].
    pub fn pending(&self) -> Vec<FaultEvent> {
        self.inner.lock().pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_events_fire_exactly_once_at_their_count() {
        let mut inj = FaultPlan::new(1)
            .at(FaultPoint::SourceRead, 3, FaultAction::Panic("boom".into()))
            .build();
        assert_eq!(inj.poll(FaultPoint::SourceRead), None);
        assert_eq!(inj.poll(FaultPoint::SourceRead), None);
        assert_eq!(
            inj.poll(FaultPoint::SourceRead),
            Some(FaultAction::Panic("boom".into()))
        );
        for _ in 0..10 {
            assert_eq!(inj.poll(FaultPoint::SourceRead), None);
        }
        assert_eq!(inj.log().len(), 1);
        assert!(inj.pending().is_empty());
    }

    /// Two events at one `(point, at)`: the first in plan order fires and
    /// the second never does; `pending` keeps plan order.
    #[test]
    fn of_events_at_one_count_the_first_in_plan_order_fires() {
        let mut inj = FaultPlan::new(1)
            .at(FaultPoint::Ingest, 2, FaultAction::Overflow)
            .at(FaultPoint::Ingest, 1, FaultAction::KillNode(1))
            .at(FaultPoint::Ingest, 2, FaultAction::KillNode(2))
            .at(FaultPoint::ClusterTick, 2, FaultAction::KillNode(3))
            .at(FaultPoint::Ingest, 9, FaultAction::KillNode(4))
            .build();
        assert_eq!(inj.poll(FaultPoint::Ingest), Some(FaultAction::KillNode(1)));
        assert_eq!(inj.poll(FaultPoint::Ingest), Some(FaultAction::Overflow));
        for _ in 0..5 {
            assert_eq!(inj.poll(FaultPoint::Ingest), None);
        }
        assert_eq!(inj.poll(FaultPoint::ClusterTick), None);
        let pending: Vec<(u64, FaultAction)> = inj
            .pending()
            .into_iter()
            .map(|e| (e.at, e.action))
            .collect();
        assert_eq!(
            pending,
            [
                (2, FaultAction::KillNode(2)),
                (2, FaultAction::KillNode(3)),
                (9, FaultAction::KillNode(4)),
            ]
        );
        assert_eq!(
            inj.log(),
            [
                (FaultPoint::Ingest, 1, FaultAction::KillNode(1)),
                (FaultPoint::Ingest, 2, FaultAction::Overflow),
            ]
        );
    }

    #[test]
    fn points_count_independently() {
        let mut inj = FaultPlan::new(1)
            .at(FaultPoint::Ingest, 2, FaultAction::Overflow)
            .at(FaultPoint::ClusterTick, 2, FaultAction::KillNode(1))
            .build();
        assert_eq!(inj.poll(FaultPoint::Ingest), None);
        assert_eq!(inj.poll(FaultPoint::ClusterTick), None);
        assert_eq!(inj.poll(FaultPoint::Ingest), Some(FaultAction::Overflow));
        assert_eq!(
            inj.poll(FaultPoint::ClusterTick),
            Some(FaultAction::KillNode(1))
        );
        assert_eq!(inj.polls(FaultPoint::Ingest), 2);
    }

    #[test]
    fn rates_are_deterministic_per_seed() {
        let run = |seed| {
            let mut inj = FaultPlan::new(seed)
                .rate(FaultPoint::Ingest, 0.2, FaultAction::Overflow)
                .build();
            (0..200)
                .map(|_| inj.poll(FaultPoint::Ingest).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7), "same seed, same faults");
        assert_ne!(run(7), run(8), "different seed, different faults");
        let fired = run(7).iter().filter(|&&b| b).count();
        assert!((10..80).contains(&fired), "rate roughly respected: {fired}");
    }

    #[test]
    fn shared_injector_is_usable_across_threads() {
        let inj = FaultPlan::new(3)
            .at(FaultPoint::OperatorRun, 5, FaultAction::Error("inj".into()))
            .build_shared();
        let inj2 = inj.clone();
        let h = std::thread::spawn(move || {
            let mut fired = 0;
            for _ in 0..10 {
                if inj2.poll(FaultPoint::OperatorRun).is_some() {
                    fired += 1;
                }
            }
            fired
        });
        assert_eq!(h.join().unwrap(), 1);
        assert_eq!(inj.log().len(), 1);
    }

    #[test]
    fn pending_lists_unreached_events() {
        let inj = FaultPlan::new(1)
            .at(FaultPoint::StateMove, 99, FaultAction::KillNode(0))
            .build();
        assert_eq!(inj.pending().len(), 1);
    }

    #[test]
    fn pending_and_log_partition_the_schedule() {
        // A three-event schedule, partially exercised: fired events land in
        // the log, unfired ones stay pending, and together they always
        // cover the whole plan.
        let mut inj = FaultPlan::new(5)
            .at(FaultPoint::ArchiveAppend, 2, FaultAction::Overflow)
            .at(
                FaultPoint::EgressDeliver,
                4,
                FaultAction::Error("slow".into()),
            )
            .at(
                FaultPoint::EgressDeliver,
                50,
                FaultAction::Stall { ticks: 1 },
            )
            .build();
        assert_eq!(inj.pending().len(), 3);
        assert_eq!(inj.log().len(), 0);

        for _ in 0..3 {
            inj.poll(FaultPoint::ArchiveAppend);
        }
        for _ in 0..10 {
            inj.poll(FaultPoint::EgressDeliver);
        }
        let pending = inj.pending();
        assert_eq!(pending.len(), 1, "only the count-50 event is unreached");
        assert_eq!(pending[0].point, FaultPoint::EgressDeliver);
        assert_eq!(pending[0].at, 50);
        assert_eq!(inj.log().len(), 2);
        assert_eq!(
            inj.log().len() + pending.len(),
            3,
            "log + pending covers the schedule"
        );

        for _ in 0..40 {
            inj.poll(FaultPoint::EgressDeliver);
        }
        assert!(inj.pending().is_empty(), "fully exercised schedule");
        assert_eq!(inj.log().len(), 3);
    }

    #[test]
    fn event_takes_priority_over_rate_on_the_same_point() {
        // A certain rate (p = 1.0) and a scheduled event on the same point:
        // the event wins its poll (at most one fault per poll), the rate
        // fires on every other poll, and no RNG draw happens on the event's
        // poll — so the draw stream stays a pure function of the schedule.
        let run = |seed| {
            let mut inj = FaultPlan::new(seed)
                .at(
                    FaultPoint::FjordEnqueue,
                    3,
                    FaultAction::Panic("evt".into()),
                )
                .rate(FaultPoint::FjordEnqueue, 1.0, FaultAction::Overflow)
                .build();
            (0..6)
                .map(|_| inj.poll(FaultPoint::FjordEnqueue))
                .collect::<Vec<_>>()
        };
        let fired = run(11);
        assert_eq!(fired[0], Some(FaultAction::Overflow));
        assert_eq!(fired[1], Some(FaultAction::Overflow));
        assert_eq!(
            fired[2],
            Some(FaultAction::Panic("evt".into())),
            "scheduled event preempts the rate on its poll"
        );
        assert_eq!(fired[3], Some(FaultAction::Overflow));
        assert_eq!(run(11), run(11), "mixed schedules replay deterministically");
    }

    #[test]
    fn rate_and_event_log_shares_one_poll_counter() {
        let mut inj = FaultPlan::new(2)
            .at(FaultPoint::ArchiveAppend, 2, FaultAction::Overflow)
            .rate(
                FaultPoint::ArchiveAppend,
                1.0,
                FaultAction::Error("io".into()),
            )
            .build();
        for _ in 0..3 {
            inj.poll(FaultPoint::ArchiveAppend);
        }
        // Log records the shared per-point poll count for both kinds.
        let counts: Vec<u64> = inj.log().iter().map(|&(_, c, _)| c).collect();
        assert_eq!(counts, vec![1, 2, 3]);
        assert_eq!(
            inj.log()[1],
            (FaultPoint::ArchiveAppend, 2, FaultAction::Overflow)
        );
        assert!(inj.pending().is_empty());
    }
}
