//! Deterministic liveness watchdog: stall detection, diagnosis, recovery.
//!
//! The dataflow's liveness invariant is "while messages are in flight,
//! the progress frontier keeps advancing". The watchdog checks exactly
//! that: EO 0 ticks the detector once per scheduling round (an **engine**
//! tick, not wall clock — a seeded chaos replay that runs at different
//! real speed still detects against the same dataflow state, and a
//! healthy run detects nothing, so watchdog on/off stays byte-identical).
//!
//! When the global frontier has not advanced for [`WatchdogConfig::stall_ticks`]
//! rounds while messages are in flight, the watchdog:
//!
//! 1. records a structured [`StallDiagnosis`] (per-fjord depths and EOF
//!    state, per-DU buffered counts and last-run status, pending
//!    punctuation runs, blocked producer/consumer sets), and
//! 2. escalates through the recovery ladder: **nudge** — every EO asks
//!    each of its DUs to make withheld progress ([`crate::DispatchUnit::nudge`]:
//!    re-emit withheld punctuation); then after
//!    [`WatchdogConfig::escalate_ticks`] more frozen rounds, **failover**
//!    ([`crate::DispatchUnit::escalate`]: force-drain buffered state along
//!    the ordered-outbox path).
//!
//! A stall that clears after a rung reported doing work counts as a
//! `recovery`; one that clears with no rung having done anything counts
//! as a `false_positive` (the system was merely slow).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use tcq_common::sync::Mutex;
use tcq_fjords::{ChannelSnapshot, ProgressRegistry};

use crate::dispatch::DuId;

/// Watchdog tuning. Ticks are detector-EO scheduling rounds.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// The registry the engine makes its fjords through: the detector
    /// reads their frontier and depths from it.
    pub registry: ProgressRegistry,
    /// Frozen-frontier rounds (with work in flight) before a stall is
    /// declared, diagnosed, and nudged.
    pub stall_ticks: u64,
    /// Further frozen rounds after the nudge before escalating to the
    /// outbox-drain failover.
    pub escalate_ticks: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            registry: ProgressRegistry::new(),
            // ~100 ms of fully-parked rounds at the default 200 µs
            // idle_park; far longer when the engine is busy (rounds are
            // then microseconds apart but the frontier is also moving).
            stall_ticks: 512,
            escalate_ticks: 512,
        }
    }
}

/// Per-DU slice of a stall diagnosis.
#[derive(Debug, Clone)]
pub struct DuDiag {
    /// The DU's executor id.
    pub id: DuId,
    /// Diagnostic name.
    pub name: String,
    /// Messages parked inside the DU (outboxes, run buffers).
    pub buffered: usize,
    /// Outcome of the DU's most recent quantum.
    pub last_status: &'static str,
    /// Total quanta granted to the DU so far.
    pub quanta: u64,
}

/// Structured dump of a detected stall.
#[derive(Debug, Clone, Default)]
pub struct StallDiagnosis {
    /// Detector tick at which the stall was declared.
    pub tick: u64,
    /// The frozen frontier value.
    pub frontier: u64,
    /// Messages in flight (channel depths + DU buffers).
    pub in_flight: u64,
    /// Every registered channel at detection time.
    pub channels: Vec<ChannelSnapshot>,
    /// Every DU the EOs published during the suspicion window.
    pub dus: Vec<DuDiag>,
    /// Channels with punctuation queued that nobody has taken.
    pub pending_punct_channels: Vec<String>,
    /// Channels with messages nobody is draining.
    pub blocked_consumers: Vec<String>,
    /// Channels whose producers have been refused (full) and that still
    /// hold messages — the back-pressure cycle suspects.
    pub blocked_producers: Vec<String>,
}

impl StallDiagnosis {
    /// Human-readable multi-line dump.
    pub fn render(&self) -> String {
        let mut s = format!(
            "stall @tick {}: frontier {} frozen with {} in flight\n",
            self.tick, self.frontier, self.in_flight
        );
        for c in &self.channels {
            if c.depth > 0 || !c.eof_out {
                s.push_str(&format!(
                    "  fjord {}: depth={} enq={} deq={} puncts={} eof_in={} eof_out={}\n",
                    c.name, c.depth, c.enqueued, c.dequeued, c.puncts, c.eof_in, c.eof_out
                ));
            }
        }
        for d in &self.dus {
            s.push_str(&format!(
                "  du {} ({}): buffered={} last={} quanta={}\n",
                d.id, d.name, d.buffered, d.last_status, d.quanta
            ));
        }
        if !self.blocked_consumers.is_empty() {
            s.push_str(&format!(
                "  blocked consumers: {:?}\n",
                self.blocked_consumers
            ));
        }
        if !self.blocked_producers.is_empty() {
            s.push_str(&format!(
                "  blocked producers: {:?}\n",
                self.blocked_producers
            ));
        }
        if !self.pending_punct_channels.is_empty() {
            s.push_str(&format!(
                "  pending punctuation runs: {:?}\n",
                self.pending_punct_channels
            ));
        }
        s
    }
}

struct DetectState {
    tick: u64,
    last_frontier: u64,
    frozen: u64,
    stalled: bool,
}

/// Shared watchdog state: EO 0 detects, every EO applies recovery rungs
/// and publishes its DUs' buffered counts.
pub(crate) struct WatchdogState {
    cfg: WatchdogConfig,
    detect: Mutex<DetectState>,
    nudge_gen: AtomicU64,
    escalate_gen: AtomicU64,
    nudge_worked: AtomicBool,
    escalate_worked: AtomicBool,
    publish_details: AtomicBool,
    buffered_per_eo: Vec<AtomicUsize>,
    dus_per_eo: Vec<Mutex<Vec<DuDiag>>>,
    stalls: AtomicU64,
    nudges: AtomicU64,
    escalations: AtomicU64,
    recoveries: AtomicU64,
    false_positives: AtomicU64,
    last: Mutex<Option<StallDiagnosis>>,
}

/// Watchdog counter snapshot, merged into [`crate::ExecutorStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Stalls declared (frontier frozen `stall_ticks` rounds with work
    /// in flight).
    pub stalls_detected: u64,
    /// Nudge rungs issued.
    pub nudges: u64,
    /// Failover rungs issued.
    pub escalations: u64,
    /// Stalls cleared after a recovery rung reported doing work.
    pub recoveries: u64,
    /// Stalls that cleared on their own (detection was premature).
    pub false_positives: u64,
}

impl WatchdogState {
    pub(crate) fn new(cfg: WatchdogConfig, eos: usize) -> Self {
        WatchdogState {
            cfg,
            detect: Mutex::new(DetectState {
                tick: 0,
                last_frontier: 0,
                frozen: 0,
                stalled: false,
            }),
            nudge_gen: AtomicU64::new(0),
            escalate_gen: AtomicU64::new(0),
            nudge_worked: AtomicBool::new(false),
            escalate_worked: AtomicBool::new(false),
            publish_details: AtomicBool::new(false),
            buffered_per_eo: (0..eos).map(|_| AtomicUsize::new(0)).collect(),
            dus_per_eo: (0..eos).map(|_| Mutex::new(Vec::new())).collect(),
            stalls: AtomicU64::new(0),
            nudges: AtomicU64::new(0),
            escalations: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            false_positives: AtomicU64::new(0),
            last: Mutex::new(None),
        }
    }

    pub(crate) fn pending_nudge(&self) -> u64 {
        self.nudge_gen.load(Ordering::Acquire)
    }

    pub(crate) fn pending_escalate(&self) -> u64 {
        self.escalate_gen.load(Ordering::Acquire)
    }

    pub(crate) fn note_nudge_worked(&self) {
        self.nudge_worked.store(true, Ordering::Release);
    }

    pub(crate) fn note_escalate_worked(&self) {
        self.escalate_worked.store(true, Ordering::Release);
    }

    pub(crate) fn publishing_details(&self) -> bool {
        self.publish_details.load(Ordering::Acquire)
    }

    pub(crate) fn publish(&self, eo_idx: usize, buffered: usize, details: Option<Vec<DuDiag>>) {
        self.buffered_per_eo[eo_idx].store(buffered, Ordering::Release);
        if let Some(d) = details {
            *self.dus_per_eo[eo_idx].lock() = d;
        }
    }

    fn in_flight(&self) -> u64 {
        let du_buffered: usize = self
            .buffered_per_eo
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .sum();
        self.cfg.registry.in_flight() + du_buffered as u64
    }

    /// One detector tick (EO 0, once per scheduling round).
    pub(crate) fn tick(&self) {
        let mut st = self.detect.lock();
        st.tick += 1;
        let frontier = self.cfg.registry.frontier();
        let in_flight = self.in_flight();
        if frontier != st.last_frontier || in_flight == 0 {
            st.last_frontier = frontier;
            st.frozen = 0;
            if st.stalled {
                st.stalled = false;
                if self.nudge_worked.load(Ordering::Acquire)
                    || self.escalate_worked.load(Ordering::Acquire)
                {
                    self.recoveries.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.false_positives.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.publish_details.store(false, Ordering::Release);
            return;
        }
        st.frozen += 1;
        // Ask EOs to publish per-DU detail half-way to the stall
        // threshold, so the diagnosis at detection time has data.
        if st.frozen == (self.cfg.stall_ticks / 2).max(1) {
            self.publish_details.store(true, Ordering::Release);
        }
        if st.frozen == self.cfg.stall_ticks {
            st.stalled = true;
            self.nudge_worked.store(false, Ordering::Release);
            self.escalate_worked.store(false, Ordering::Release);
            self.stalls.fetch_add(1, Ordering::Relaxed);
            *self.last.lock() = Some(self.diagnose(st.tick, frontier, in_flight));
            self.nudges.fetch_add(1, Ordering::Relaxed);
            self.nudge_gen.fetch_add(1, Ordering::Release);
        } else if st.frozen == self.cfg.stall_ticks + self.cfg.escalate_ticks {
            self.escalations.fetch_add(1, Ordering::Relaxed);
            self.escalate_gen.fetch_add(1, Ordering::Release);
        }
    }

    fn diagnose(&self, tick: u64, frontier: u64, in_flight: u64) -> StallDiagnosis {
        let snap = self.cfg.registry.snapshot();
        let dus: Vec<DuDiag> = self
            .dus_per_eo
            .iter()
            .flat_map(|m| m.lock().clone())
            .collect();
        let pending_punct_channels = snap
            .channels
            .iter()
            .filter(|c| c.puncts > 0)
            .map(|c| c.name.clone())
            .collect();
        let blocked_consumers = snap
            .channels
            .iter()
            .filter(|c| c.depth > 0)
            .map(|c| c.name.clone())
            .collect();
        let blocked_producers = snap
            .channels
            .iter()
            .filter(|c| c.rejections > 0 && c.depth > 0)
            .map(|c| c.name.clone())
            .collect();
        StallDiagnosis {
            tick,
            frontier,
            in_flight,
            channels: snap.channels,
            dus,
            pending_punct_channels,
            blocked_consumers,
            blocked_producers,
        }
    }

    pub(crate) fn stats(&self) -> WatchdogStats {
        WatchdogStats {
            stalls_detected: self.stalls.load(Ordering::Relaxed),
            nudges: self.nudges.load(Ordering::Relaxed),
            escalations: self.escalations.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            false_positives: self.false_positives.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn last_stall(&self) -> Option<StallDiagnosis> {
        self.last.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::Timestamp;
    use tcq_fjords::{Consumer, FjordMessage, Producer};

    fn wd(stall: u64, escalate: u64) -> (WatchdogState, Producer, Consumer) {
        let registry = ProgressRegistry::new();
        let (p, c) = registry.fjord("c", 64);
        let state = WatchdogState::new(
            WatchdogConfig {
                registry,
                stall_ticks: stall,
                escalate_ticks: escalate,
            },
            1,
        );
        (state, p, c)
    }

    fn put(p: &Producer, n: usize) {
        let mut msgs = vec![FjordMessage::Punct(Timestamp::logical(1)); n];
        assert_eq!(p.enqueue_batch(&mut msgs).unwrap(), n);
    }

    #[test]
    fn healthy_progress_never_stalls() {
        let (w, p, c) = wd(3, 3);
        for _ in 0..50 {
            put(&p, 1); // frontier moves every tick
            w.tick();
            c.dequeue();
        }
        assert_eq!(w.stats(), WatchdogStats::default());
    }

    #[test]
    fn idle_engine_never_stalls() {
        let (w, _p, _c) = wd(3, 3);
        for _ in 0..50 {
            w.tick(); // frontier frozen but nothing in flight
        }
        assert_eq!(w.stats().stalls_detected, 0);
    }

    #[test]
    fn frozen_frontier_with_in_flight_detects_then_escalates() {
        let (w, p, _c) = wd(3, 2);
        // 5 in flight, then silence. The first tick absorbs the frontier
        // change; detection needs stall_ticks frozen ticks after it.
        put(&p, 5);
        for _ in 0..4 {
            w.tick();
        }
        assert_eq!(w.stats().stalls_detected, 1);
        assert_eq!(w.stats().nudges, 1);
        assert_eq!(w.pending_nudge(), 1);
        assert_eq!(w.stats().escalations, 0);
        for _ in 0..2 {
            w.tick();
        }
        assert_eq!(w.stats().escalations, 1);
        assert_eq!(w.pending_escalate(), 1);
        let diag = w.last_stall().expect("diagnosis recorded");
        assert_eq!(diag.in_flight, 5);
        assert_eq!(diag.blocked_consumers, vec!["c".to_string()]);
        assert_eq!(diag.pending_punct_channels, vec!["c".to_string()]);
        assert!(diag.render().contains("fjord c"));
    }

    #[test]
    fn recovery_vs_false_positive_classification() {
        // Stall that clears after the nudge reported work -> recovery.
        let (w, p, c) = wd(2, 10);
        put(&p, 1);
        w.tick(); // absorbs the frontier change
        w.tick();
        w.tick();
        assert_eq!(w.stats().stalls_detected, 1);
        w.note_nudge_worked();
        c.dequeue();
        w.tick();
        assert_eq!(w.stats().recoveries, 1);
        assert_eq!(w.stats().false_positives, 0);

        // Stall that clears on its own -> false positive.
        put(&p, 1);
        w.tick();
        w.tick();
        w.tick();
        assert_eq!(w.stats().stalls_detected, 2);
        c.dequeue();
        w.tick();
        assert_eq!(w.stats().false_positives, 1);
    }
}
