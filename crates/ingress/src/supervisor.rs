//! The streamer: the one thread that delivers a source into a Fjord.
//!
//! §4.2.3: "Streamed data is delivered from the Wrapper process to the
//! Executor via streamers." TelegraphCQ also ingests "from an uncertain
//! world": wrappers talk to network feeds and sensors that disconnect,
//! emit garbage, or crash (§2.3 notes sensors "may have run out of power
//! or temporarily disconnected"). A [`Supervisor`] is the streamer built
//! for that world: it drains a source into a push Fjord, yielding under
//! back-pressure; catches source panics and errors and restarts the source
//! with capped exponential backoff; filters malformed tuples; applies a
//! configurable [`DegradePolicy`] when the downstream Fjord stays full; and
//! sends EOF exactly once — all reported through [`SupervisorStats`] so
//! loss is *accounted*, never silent.
//!
//! The source is rebuilt by a [`SourceFactory`] closure receiving the
//! restart attempt number and the count of tuples already delivered, so
//! resumable sources can skip what the pipeline has already seen
//! (exactly-once across restarts). A source that cannot be rebuilt runs
//! with `max_restarts: 0`: its first failure ends the stream.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tcq_common::sync::Mutex;
use tcq_common::{
    FaultAction, FaultPoint, Result, Schema, SharedInjector, TcqError, Timestamp, Tuple,
};
use tcq_fjords::{EnqueueError, FjordMessage, Producer};

use crate::source::{Source, SourceStatus};

/// Rebuilds the supervised source after a failure. Receives the restart
/// attempt (0 for the initial build) and how many tuples have already
/// been delivered downstream, so a resumable source can skip them.
pub type SourceFactory = Box<dyn FnMut(u64, u64) -> Result<Box<dyn Source>> + Send>;

/// What to do with tuples when the downstream Fjord stays full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Never drop: yield and retry until the consumer catches up (the
    /// default — loss-free but the source stalls).
    Backpressure,
    /// Drop the *oldest* queued tuple to make room (freshest data wins —
    /// the right policy for monitoring streams).
    ShedOldest,
    /// Drop the incoming tuple (cheapest; keeps the queue's history).
    ShedNewest,
    /// Under overflow keep one tuple in `keep_one_in`, dropping the rest
    /// (graceful quality degradation instead of a hard stall).
    Sample {
        /// Keep every `keep_one_in`-th overflowing tuple (≥ 1).
        keep_one_in: u32,
    },
    /// Token-bucket admission: each *offered* tuple refills `rate`
    /// millitokens (capped at `burst` whole tokens); keeping an
    /// overflowing tuple spends one whole token (1000 millitokens),
    /// otherwise it sheds. Time advances per tuple, not per wall-clock
    /// second, so drop patterns are deterministic and seed-reproducible.
    /// Compared with [`DegradePolicy::Sample`], short bursts are absorbed
    /// loss-free (the bucket drains instead of shedding) while sustained
    /// overflow converges to keeping `rate / 1000` of the overflow.
    TokenBucket {
        /// Millitokens refilled per offered tuple (1000 keeps every
        /// overflowing tuple; 250 converges to one in four).
        rate: u32,
        /// Bucket capacity in whole tokens — the number of back-to-back
        /// overflowing tuples absorbable after a quiet spell.
        burst: u32,
    },
}

/// Deterministic overflow-admission state for one supervised run.
///
/// Pure bookkeeping — no threads, no clock. [`OverflowGate::offered`] is
/// called exactly once per tuple the source hands over, advancing
/// token-bucket time; the admit/shed decision for an overflowing tuple is
/// then made once (never re-rolled on enqueue retries), keeping the shed
/// pattern a pure function of the tuple sequence.
#[derive(Debug, Clone)]
pub struct OverflowGate {
    /// Millitokens regained per offered tuple.
    rate: u64,
    /// Bucket capacity in millitokens.
    cap: u64,
    /// Current fill, in millitokens.
    tokens: u64,
    /// Overflow arrivals seen (drives [`DegradePolicy::Sample`]).
    overflow_seq: u64,
}

/// Millitokens spent to keep one overflowing tuple.
const TOKEN: u64 = 1000;

impl OverflowGate {
    /// Gate for `policy`; non-token-bucket policies get an inert gate.
    pub fn new(policy: DegradePolicy) -> Self {
        match policy {
            DegradePolicy::TokenBucket { rate, burst } => OverflowGate {
                rate: rate as u64,
                cap: burst as u64 * TOKEN,
                // Start full: the configured burst is available immediately.
                tokens: burst as u64 * TOKEN,
                overflow_seq: 0,
            },
            _ => OverflowGate {
                rate: 0,
                cap: 0,
                tokens: 0,
                overflow_seq: 0,
            },
        }
    }

    /// One tuple offered: refill the bucket. Call exactly once per tuple.
    pub fn offered(&mut self) {
        self.tokens = (self.tokens + self.rate).min(self.cap);
    }

    /// Decide an overflowing tuple's fate under the token bucket: `true`
    /// spends a token and keeps it (back-pressure until it fits), `false`
    /// sheds it.
    pub fn admit_overflow(&mut self) -> bool {
        if self.tokens >= TOKEN {
            self.tokens -= TOKEN;
            true
        } else {
            false
        }
    }

    /// Decide an overflow arrival under [`DegradePolicy::Sample`]: `true`
    /// keeps this one (it is the `keep_one_in`-th), `false` sheds it.
    pub fn sample_keeps(&mut self, keep_one_in: u32) -> bool {
        self.overflow_seq += 1;
        keep_one_in <= 1 || self.overflow_seq.is_multiple_of(keep_one_in as u64)
    }
}

/// Supervision knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Give up after this many restarts (the stream then EOFs).
    pub max_restarts: u64,
    /// First restart delay; doubles per consecutive failure.
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Overflow behaviour.
    pub policy: DegradePolicy,
    /// Resume cursor: tuples this stream already delivered before a
    /// restore. Seeds the delivered counter, so the first factory call
    /// sees the pre-crash total and resumable sources skip what was
    /// already consumed.
    pub initial_delivered: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 8,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            policy: DegradePolicy::Backpressure,
            initial_delivered: 0,
        }
    }
}

/// Per-stream supervision counters. Every dropped or rejected tuple shows
/// up here: `delivered + shed + malformed` accounts for every tuple the
/// source produced.
#[derive(Debug, Clone, Default)]
pub struct SupervisorStats {
    /// Tuples delivered downstream.
    pub delivered: u64,
    /// Source restarts performed (panics + errors that were retried).
    pub restarts: u64,
    /// Source panics caught (each restarted unless the budget is spent).
    pub panics: u64,
    /// Source read or build errors (each restarted unless the budget is
    /// spent).
    pub source_errors: u64,
    /// Tuples dropped by the degradation policy (shed-oldest counts the
    /// displaced victim, shed-newest/sample the rejected arrival).
    pub shed: u64,
    /// Malformed (schema-arity-mismatched) tuples filtered out.
    pub malformed: u64,
    /// True once the restart budget is exhausted and the stream EOFed.
    pub gave_up: bool,
    /// Message of the most recent failure, if any.
    pub last_failure: Option<String>,
}

#[derive(Default)]
struct SharedStats {
    delivered: AtomicU64,
    restarts: AtomicU64,
    panics: AtomicU64,
    source_errors: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
    gave_up: AtomicBool,
    last_failure: Mutex<Option<String>>,
}

impl SharedStats {
    fn snapshot(&self) -> SupervisorStats {
        SupervisorStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            source_errors: self.source_errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            last_failure: self.last_failure.lock().clone(),
        }
    }
}

/// Why one supervised run of the source ended.
enum RunEnd {
    Exhausted,
    Stopped,
    Disconnected,
    Failed(String),
}

/// Handle to a supervised ingress thread.
pub struct Supervisor {
    handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    name: String,
}

impl Supervisor {
    /// Spawn a supervised streamer: build a source via `factory`, drain it
    /// into `output`, and on panic or error rebuild and resume per
    /// `config`. EOF is sent exactly once — when the source exhausts, the
    /// restart budget runs out, or `stop` is requested — and under
    /// back-pressure it waits for room rather than being dropped.
    pub fn spawn(
        name: impl Into<String>,
        mut factory: SourceFactory,
        output: Producer,
        config: SupervisorConfig,
    ) -> Supervisor {
        let name = name.into();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        stats
            .delivered
            .store(config.initial_delivered, Ordering::Relaxed);
        let stop2 = Arc::clone(&stop);
        let stats2 = Arc::clone(&stats);
        let tname = name.clone();
        let handle = std::thread::Builder::new()
            .name(format!("supervisor-{tname}"))
            .spawn(move || {
                let mut attempt: u64 = 0;
                loop {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let delivered = stats2.delivered.load(Ordering::Relaxed);
                    let mut source = match factory(attempt, delivered) {
                        Ok(s) => s,
                        Err(e) => {
                            record_failure(&stats2, &format!("factory: {e}"));
                            stats2.source_errors.fetch_add(1, Ordering::Relaxed);
                            attempt += 1;
                            if attempt > config.max_restarts {
                                stats2.gave_up.store(true, Ordering::Relaxed);
                                break;
                            }
                            stats2.restarts.fetch_add(1, Ordering::Relaxed);
                            backoff(&config, attempt, &stop2);
                            continue;
                        }
                    };
                    let end = catch_unwind(AssertUnwindSafe(|| {
                        run_source(&mut source, &output, &stop2, &stats2, config.policy)
                    }));
                    match end {
                        Ok(RunEnd::Exhausted) | Ok(RunEnd::Stopped) => break,
                        Ok(RunEnd::Disconnected) => return, // consumer gone: no Eof possible
                        Ok(RunEnd::Failed(msg)) => {
                            record_failure(&stats2, &msg);
                            stats2.source_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(payload) => {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_string());
                            record_failure(&stats2, &format!("panic: {msg}"));
                            stats2.panics.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    attempt += 1;
                    if attempt > config.max_restarts {
                        stats2.gave_up.store(true, Ordering::Relaxed);
                        break;
                    }
                    stats2.restarts.fetch_add(1, Ordering::Relaxed);
                    backoff(&config, attempt, &stop2);
                }
                send_eof(&output, &stop2, config.policy);
            })
            .expect("spawn supervisor thread");
        Supervisor {
            handle: Some(handle),
            stop,
            stats,
            name,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> SupervisorStats {
        self.stats.snapshot()
    }

    /// Tuples delivered so far.
    pub fn delivered(&self) -> u64 {
        self.stats.delivered.load(Ordering::Relaxed)
    }

    /// The supervised stream's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Request stop and wait; returns the final counters.
    pub fn stop(mut self) -> SupervisorStats {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.stats.snapshot()
    }

    /// Wait for the stream to end (exhaustion or exhausted restart
    /// budget); returns the final counters.
    pub fn join(mut self) -> SupervisorStats {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.stats.snapshot()
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn record_failure(stats: &SharedStats, msg: &str) {
    *stats.last_failure.lock() = Some(msg.to_string());
}

/// Sleep `initial * 2^(attempt-1)` capped at `max_backoff`, in small
/// chunks so a stop request interrupts the wait.
fn backoff(config: &SupervisorConfig, attempt: u64, stop: &AtomicBool) {
    let exp = attempt.saturating_sub(1).min(20) as u32;
    let delay = config
        .initial_backoff
        .saturating_mul(1u32 << exp)
        .min(config.max_backoff);
    let chunk = Duration::from_millis(5);
    let mut remaining = delay;
    while remaining > Duration::ZERO && !stop.load(Ordering::Acquire) {
        let step = remaining.min(chunk);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// End the stream. Under [`DegradePolicy::Backpressure`] the EOF waits for
/// room like any tuple, until the consumer leaves or stop is requested;
/// a shedding policy gives it up to a full queue, as it would a tuple.
fn send_eof(output: &Producer, stop: &AtomicBool, policy: DegradePolicy) {
    let mut eof = FjordMessage::Eof;
    while let Err(EnqueueError::Full(m)) = output.enqueue(eof) {
        if policy != DegradePolicy::Backpressure || stop.load(Ordering::Acquire) {
            return;
        }
        eof = m;
        std::thread::yield_now();
    }
}

/// Drain `source` into `output` until it ends, honouring the degradation
/// policy. Malformed tuples (arity != source schema arity) are filtered
/// and counted, not delivered.
fn run_source(
    source: &mut Box<dyn Source>,
    output: &Producer,
    stop: &AtomicBool,
    stats: &SharedStats,
    policy: DegradePolicy,
) -> RunEnd {
    let expected_arity = source.schema().len();
    let mut batch: Vec<Tuple> = Vec::with_capacity(64);
    let mut gate = OverflowGate::new(policy);
    loop {
        if stop.load(Ordering::Acquire) {
            return RunEnd::Stopped;
        }
        batch.clear();
        let status = match source.next_batch(64, &mut batch) {
            Ok(s) => s,
            Err(e) => return RunEnd::Failed(e.to_string()),
        };
        for t in batch.drain(..) {
            if t.arity() != expected_arity {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match deliver(output, t, stop, stats, policy, &mut gate) {
                Ok(true) => {}
                Ok(false) => return RunEnd::Stopped,
                Err(()) => return RunEnd::Disconnected,
            }
        }
        match status {
            SourceStatus::Exhausted => return RunEnd::Exhausted,
            SourceStatus::Idle => std::thread::yield_now(),
            SourceStatus::Ready => {}
        }
    }
}

/// Deliver one tuple under `policy`. `Ok(true)` = continue, `Ok(false)` =
/// stop requested mid-backpressure, `Err(())` = consumer disconnected.
fn deliver(
    output: &Producer,
    t: Tuple,
    stop: &AtomicBool,
    stats: &SharedStats,
    policy: DegradePolicy,
    gate: &mut OverflowGate,
) -> std::result::Result<bool, ()> {
    gate.offered();
    let mut msg = FjordMessage::Tuple(t);
    // The token-bucket verdict is rolled once per tuple, on its first
    // overflow — not per retry — so shed patterns stay deterministic.
    let mut admitted = false;
    loop {
        match policy {
            DegradePolicy::ShedOldest => {
                return match output.enqueue_displacing(msg) {
                    Ok(displaced) => {
                        stats.delivered.fetch_add(1, Ordering::Relaxed);
                        if displaced.is_some() {
                            // The victim moves from delivered to shed:
                            // delivered + shed still equals produced.
                            stats.delivered.fetch_sub(1, Ordering::Relaxed);
                            stats.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(true)
                    }
                    Err(EnqueueError::Full(_)) => {
                        // Queue full of control messages: fall back to shed.
                        stats.shed.fetch_add(1, Ordering::Relaxed);
                        Ok(true)
                    }
                    Err(EnqueueError::Disconnected(_)) => Err(()),
                };
            }
            _ => match output.enqueue(msg) {
                Ok(()) => {
                    stats.delivered.fetch_add(1, Ordering::Relaxed);
                    return Ok(true);
                }
                Err(EnqueueError::Full(m)) => match policy {
                    DegradePolicy::Backpressure => {
                        if stop.load(Ordering::Acquire) {
                            return Ok(false);
                        }
                        msg = m;
                        std::thread::yield_now();
                    }
                    DegradePolicy::ShedNewest => {
                        stats.shed.fetch_add(1, Ordering::Relaxed);
                        return Ok(true);
                    }
                    DegradePolicy::Sample { keep_one_in } => {
                        if !gate.sample_keeps(keep_one_in) {
                            stats.shed.fetch_add(1, Ordering::Relaxed);
                            return Ok(true);
                        }
                        // The kept sample waits for room (backpressure).
                        if stop.load(Ordering::Acquire) {
                            return Ok(false);
                        }
                        msg = m;
                        std::thread::yield_now();
                    }
                    DegradePolicy::TokenBucket { .. } => {
                        if !admitted && !gate.admit_overflow() {
                            stats.shed.fetch_add(1, Ordering::Relaxed);
                            return Ok(true);
                        }
                        admitted = true;
                        // A token was spent: this tuple is kept, waiting
                        // for room like backpressure.
                        if stop.load(Ordering::Acquire) {
                            return Ok(false);
                        }
                        msg = m;
                        std::thread::yield_now();
                    }
                    DegradePolicy::ShedOldest => unreachable!("handled above"),
                },
                Err(EnqueueError::Disconnected(_)) => return Err(()),
            },
        }
    }
}

/// Wrap a source with a chaos injector: [`FaultPoint::SourceRead`] faults
/// turn into read errors, panics, stalls, or malformed (empty) tuples —
/// the adversary the [`Supervisor`] exists to survive.
pub struct ChaosSource {
    inner: Box<dyn Source>,
    injector: SharedInjector,
}

impl ChaosSource {
    /// Wrap `inner`, polling `injector` before every read.
    pub fn new(inner: Box<dyn Source>, injector: SharedInjector) -> Self {
        ChaosSource { inner, injector }
    }
}

impl Source for ChaosSource {
    fn schema(&self) -> &tcq_common::SchemaRef {
        self.inner.schema()
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> Result<SourceStatus> {
        match self.injector.poll(FaultPoint::SourceRead) {
            Some(FaultAction::Error(msg)) => {
                return Err(TcqError::Ingress(format!("injected read error: {msg}")));
            }
            Some(FaultAction::Panic(msg)) => panic!("{msg}"),
            Some(FaultAction::MalformedTuple) => {
                // An arity-0 tuple: garbage relative to any real schema.
                let empty = Schema::new(vec![]).into_ref();
                out.push(Tuple::new(empty, vec![], Timestamp::unknown())?);
                return Ok(SourceStatus::Ready);
            }
            Some(FaultAction::Stall { .. }) => return Ok(SourceStatus::Idle),
            _ => {}
        }
        self.inner.next_batch(max, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::StockTicks;
    use crate::source::VecSource;
    use tcq_common::{FaultPlan, SchemaRef};
    use tcq_fjords::{fjord, DequeueResult, QueueKind};

    fn quick_config(policy: DegradePolicy) -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 8,
            initial_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            policy,
            initial_delivered: 0,
        }
    }

    fn stock_tuples(n: u32) -> (SchemaRef, Vec<Tuple>) {
        let schema = StockTicks::schema_for("s");
        let mut g = StockTicks::new("s", &["A"], 5).with_max_days(n as i64);
        let mut out = Vec::new();
        loop {
            if g.next_batch(1024, &mut out).unwrap() == SourceStatus::Exhausted {
                break;
            }
        }
        (schema, out)
    }

    /// Delivers one tuple per call; panics once it has handed out
    /// `panic_after` tuples (if set).
    struct FlakyVec {
        schema: SchemaRef,
        tuples: Vec<Tuple>,
        pos: usize,
        panic_after: Option<usize>,
    }

    impl Source for FlakyVec {
        fn schema(&self) -> &SchemaRef {
            &self.schema
        }
        fn next_batch(&mut self, _max: usize, out: &mut Vec<Tuple>) -> Result<SourceStatus> {
            if let Some(n) = self.panic_after {
                if self.pos >= n {
                    panic!("flaky source died after {n} tuples");
                }
            }
            if self.pos >= self.tuples.len() {
                return Ok(SourceStatus::Exhausted);
            }
            out.push(self.tuples[self.pos].clone());
            self.pos += 1;
            Ok(SourceStatus::Ready)
        }
    }

    #[test]
    fn restart_after_panic_resumes_exactly_once() {
        let (schema, master) = stock_tuples(100);
        let total = master.len();
        let expect: Vec<i64> = master.iter().map(|t| t.timestamp().seq()).collect();
        let factory: SourceFactory = {
            let master = master.clone();
            let schema = schema.clone();
            Box::new(move |attempt, delivered| {
                Ok(Box::new(FlakyVec {
                    schema: schema.clone(),
                    tuples: master[delivered as usize..].to_vec(),
                    pos: 0,
                    // only the first incarnation is flaky
                    panic_after: if attempt == 0 { Some(40) } else { None },
                }))
            })
        };
        let (p, c) = fjord(256, QueueKind::Push);
        let s = Supervisor::spawn(
            "flaky",
            factory,
            p,
            quick_config(DegradePolicy::Backpressure),
        );
        let mut seqs = Vec::new();
        loop {
            match c.dequeue() {
                DequeueResult::Msg(FjordMessage::Tuple(t)) => seqs.push(t.timestamp().seq()),
                DequeueResult::Msg(FjordMessage::Eof) => break,
                DequeueResult::Msg(FjordMessage::Punct(_)) => {}
                DequeueResult::Empty => std::thread::yield_now(),
                DequeueResult::Disconnected => break,
            }
        }
        let stats = s.join();
        assert_eq!(seqs, expect, "every tuple exactly once, in order");
        assert_eq!(stats.delivered, total as u64);
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.restarts, 1);
        assert!(!stats.gave_up);
        let failure = stats.last_failure.unwrap();
        assert!(failure.contains("flaky source died"), "got: {failure}");
    }

    #[test]
    fn initial_delivered_seeds_the_resume_cursor() {
        // A restored server passes the checkpointed delivery count; the
        // factory sees it on the first attempt (skipping consumed input)
        // and the counter continues from there, so totals span the crash.
        let (schema, master) = stock_tuples(50);
        let total = master.len();
        let already = (total / 2) as u64;
        let factory: SourceFactory = {
            let master = master.clone();
            let schema = schema.clone();
            Box::new(move |attempt, delivered| {
                assert_eq!(attempt, 0);
                assert_eq!(delivered, already, "factory must see the seeded cursor");
                Ok(Box::new(VecSource::new(
                    schema.clone(),
                    master[delivered as usize..].to_vec(),
                )?))
            })
        };
        let mut config = quick_config(DegradePolicy::Backpressure);
        config.initial_delivered = already;
        let (p, c) = fjord(256, QueueKind::Push);
        let s = Supervisor::spawn("resumed", factory, p, config);
        let mut got = 0u64;
        loop {
            match c.dequeue() {
                DequeueResult::Msg(FjordMessage::Tuple(_)) => got += 1,
                DequeueResult::Msg(FjordMessage::Eof) => break,
                DequeueResult::Msg(FjordMessage::Punct(_)) => {}
                DequeueResult::Empty => std::thread::yield_now(),
                DequeueResult::Disconnected => break,
            }
        }
        let stats = s.join();
        assert_eq!(got, total as u64 - already, "only the tail re-streams");
        assert_eq!(
            stats.delivered, total as u64,
            "counter continues from the seed"
        );
        assert_eq!(stats.restarts, 0);
    }

    #[test]
    fn gives_up_after_restart_budget() {
        struct AlwaysErr(SchemaRef);
        impl Source for AlwaysErr {
            fn schema(&self) -> &SchemaRef {
                &self.0
            }
            fn next_batch(&mut self, _max: usize, _out: &mut Vec<Tuple>) -> Result<SourceStatus> {
                Err(TcqError::Ingress("wire down".into()))
            }
        }
        let schema = StockTicks::schema_for("s");
        let factory: SourceFactory = Box::new(move |_, _| Ok(Box::new(AlwaysErr(schema.clone()))));
        let (p, c) = fjord(8, QueueKind::Push);
        let mut cfg = quick_config(DegradePolicy::Backpressure);
        cfg.max_restarts = 3;
        let s = Supervisor::spawn("doomed", factory, p, cfg);
        let stats = s.join();
        assert!(stats.gave_up);
        assert_eq!(stats.restarts, 3);
        assert_eq!(stats.source_errors, 4, "initial try + 3 retries");
        assert_eq!(stats.delivered, 0);
        // The stream still terminates cleanly for the consumer.
        let msgs = c.drain();
        assert!(msgs.last().unwrap().is_eof());
    }

    #[test]
    fn shed_newest_drops_arrivals_and_accounts_them() {
        let (schema, master) = stock_tuples(50);
        let total = master.len() as u64;
        let factory = once(VecSource::new(schema, master).unwrap());
        let (p, c) = fjord(4, QueueKind::Push);
        let s = Supervisor::spawn("shed", factory, p, quick_config(DegradePolicy::ShedNewest));
        let stats = s.join();
        let got = c
            .drain()
            .iter()
            .filter(|m| matches!(m, FjordMessage::Tuple(_)))
            .count() as u64;
        assert_eq!(stats.delivered + stats.shed, total, "every tuple accounted");
        assert_eq!(
            got, stats.delivered,
            "delivered matches what is in the queue"
        );
        assert!(stats.shed > 0, "tiny queue must overflow");
    }

    #[test]
    fn shed_oldest_keeps_the_freshest_tuples() {
        let (schema, master) = stock_tuples(50);
        let total = master.len() as u64;
        let tail: Vec<i64> = master[master.len() - 4..]
            .iter()
            .map(|t| t.timestamp().seq())
            .collect();
        let factory = once(VecSource::new(schema, master).unwrap());
        let (p, c) = fjord(4, QueueKind::Push);
        let s = Supervisor::spawn("fresh", factory, p, quick_config(DegradePolicy::ShedOldest));
        let stats = s.join();
        let seqs: Vec<i64> = c
            .drain()
            .into_iter()
            .filter_map(|m| match m {
                FjordMessage::Tuple(t) => Some(t.timestamp().seq()),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, tail, "queue holds exactly the 4 freshest tuples");
        assert_eq!(stats.delivered + stats.shed, total, "every tuple accounted");
        assert_eq!(stats.delivered, 4);
    }

    #[test]
    fn sample_policy_degrades_instead_of_stalling() {
        let (schema, master) = stock_tuples(200);
        let total = master.len() as u64;
        let factory = once(VecSource::new(schema, master).unwrap());
        let (p, c) = fjord(2, QueueKind::Push);
        let s = Supervisor::spawn(
            "sampled",
            factory,
            p,
            quick_config(DegradePolicy::Sample { keep_one_in: 4 }),
        );
        // Slow consumer: drains with a delay so the queue stays hot.
        let consumer = std::thread::spawn(move || {
            let mut got = 0u64;
            loop {
                match c.dequeue() {
                    DequeueResult::Msg(FjordMessage::Tuple(_)) => {
                        got += 1;
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    DequeueResult::Msg(FjordMessage::Eof) => break,
                    DequeueResult::Msg(FjordMessage::Punct(_)) => {}
                    DequeueResult::Empty => std::thread::yield_now(),
                    DequeueResult::Disconnected => break,
                }
            }
            got
        });
        let stats = s.join();
        let got = consumer.join().unwrap();
        assert_eq!(stats.delivered + stats.shed, total, "every tuple accounted");
        assert_eq!(got, stats.delivered);
        assert!(!stats.gave_up);
    }

    /// Drive a gate over a synthetic overflow pattern: `overflows(i)` says
    /// whether tuple `i` hits a full queue. Returns each overflowing
    /// tuple's fate (`true` = kept) in offer order.
    fn drive_gate(
        policy: DegradePolicy,
        tuples: usize,
        overflows: impl Fn(usize) -> bool,
    ) -> Vec<bool> {
        let mut gate = OverflowGate::new(policy);
        let mut fates = Vec::new();
        for i in 0..tuples {
            gate.offered();
            if overflows(i) {
                let kept = match policy {
                    DegradePolicy::TokenBucket { .. } => gate.admit_overflow(),
                    DegradePolicy::Sample { keep_one_in } => gate.sample_keeps(keep_one_in),
                    _ => true,
                };
                fates.push(kept);
            }
        }
        fates
    }

    fn longest_shed_run(fates: &[bool]) -> usize {
        let mut worst = 0;
        let mut run = 0;
        for &kept in fates {
            if kept {
                run = 0;
            } else {
                run += 1;
                worst = worst.max(run);
            }
        }
        worst
    }

    #[test]
    fn token_bucket_absorbs_intermittent_overflow_sample_sheds() {
        // Every 10th of 1000 tuples overflows: nine quiet tuples refill
        // 2250 millitokens between overflows, so the bucket never runs
        // dry — zero loss. Sample{4} sheds three out of four regardless.
        let bucket = drive_gate(
            DegradePolicy::TokenBucket {
                rate: 250,
                burst: 2,
            },
            1000,
            |i| i % 10 == 9,
        );
        let sample = drive_gate(DegradePolicy::Sample { keep_one_in: 4 }, 1000, |i| {
            i % 10 == 9
        });
        assert_eq!(bucket.len(), 100);
        assert!(bucket.iter().all(|&kept| kept), "bucket absorbs the burst");
        let sample_shed = sample.iter().filter(|&&kept| !kept).count();
        assert_eq!(sample_shed, 75, "sample blindly sheds 3 in 4");
    }

    #[test]
    fn token_bucket_matches_sample_rate_under_sustained_overflow() {
        // Every tuple overflows: both policies converge to keeping one in
        // four, and the bucket's worst consecutive-shed run is no longer
        // than sample's (equal smoothness at the same average rate).
        let bucket = drive_gate(
            DegradePolicy::TokenBucket {
                rate: 250,
                burst: 2,
            },
            1000,
            |_| true,
        );
        let sample = drive_gate(DegradePolicy::Sample { keep_one_in: 4 }, 1000, |_| true);
        let bucket_kept = bucket.iter().filter(|&&kept| kept).count();
        let sample_kept = sample.iter().filter(|&&kept| kept).count();
        assert!(
            (bucket_kept as i64 - sample_kept as i64).abs() <= 3,
            "both keep ~1 in 4: bucket {bucket_kept}, sample {sample_kept}"
        );
        assert!(
            longest_shed_run(&bucket) <= longest_shed_run(&sample),
            "token bucket is no burstier than sampling"
        );
    }

    #[test]
    fn overflow_gate_is_deterministic() {
        let policy = DegradePolicy::TokenBucket {
            rate: 333,
            burst: 3,
        };
        let a = drive_gate(policy, 5000, |i| i % 7 < 3);
        let b = drive_gate(policy, 5000, |i| i % 7 < 3);
        assert_eq!(a, b, "same pattern, same fates");
    }

    #[test]
    fn token_bucket_policy_degrades_instead_of_stalling() {
        let (schema, master) = stock_tuples(200);
        let total = master.len() as u64;
        let factory = once(VecSource::new(schema, master).unwrap());
        let (p, c) = fjord(2, QueueKind::Push);
        let s = Supervisor::spawn(
            "bucketed",
            factory,
            p,
            quick_config(DegradePolicy::TokenBucket {
                rate: 100,
                burst: 1,
            }),
        );
        // Slow consumer keeps the queue hot so the bucket actually gates.
        let consumer = std::thread::spawn(move || {
            let mut got = 0u64;
            loop {
                match c.dequeue() {
                    DequeueResult::Msg(FjordMessage::Tuple(_)) => {
                        got += 1;
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    DequeueResult::Msg(FjordMessage::Eof) => break,
                    DequeueResult::Msg(FjordMessage::Punct(_)) => {}
                    DequeueResult::Empty => std::thread::yield_now(),
                    DequeueResult::Disconnected => break,
                }
            }
            got
        });
        let stats = s.join();
        let got = consumer.join().unwrap();
        assert_eq!(stats.delivered + stats.shed, total, "every tuple accounted");
        assert_eq!(got, stats.delivered);
        assert!(stats.shed > 0, "tiny queue plus slow consumer must shed");
        assert!(!stats.gave_up);
    }

    #[test]
    fn chaos_source_faults_are_survived_and_counted() {
        let (schema, master) = stock_tuples(60);
        let total = master.len();
        let injector = FaultPlan::new(0xC0FFEE)
            .at(FaultPoint::SourceRead, 3, FaultAction::MalformedTuple)
            .at(
                FaultPoint::SourceRead,
                5,
                FaultAction::Error("carrier lost".into()),
            )
            .at(
                FaultPoint::SourceRead,
                9,
                FaultAction::Panic("wrapper segfault".into()),
            )
            .build_shared();
        let factory: SourceFactory = {
            let master = master.clone();
            let schema = schema.clone();
            let injector = injector.clone();
            Box::new(move |_, delivered| {
                let inner = FlakyVec {
                    schema: schema.clone(),
                    tuples: master[delivered as usize..].to_vec(),
                    pos: 0,
                    panic_after: None,
                };
                Ok(Box::new(ChaosSource::new(
                    Box::new(inner),
                    injector.clone(),
                )))
            })
        };
        let (p, c) = fjord(256, QueueKind::Push);
        let s = Supervisor::spawn(
            "chaos",
            factory,
            p,
            quick_config(DegradePolicy::Backpressure),
        );
        let mut got = 0usize;
        loop {
            match c.dequeue() {
                DequeueResult::Msg(FjordMessage::Tuple(_)) => got += 1,
                DequeueResult::Msg(FjordMessage::Eof) => break,
                DequeueResult::Msg(FjordMessage::Punct(_)) => {}
                DequeueResult::Empty => std::thread::yield_now(),
                DequeueResult::Disconnected => break,
            }
        }
        let stats = s.join();
        assert_eq!(got, total, "all real tuples still arrive");
        assert_eq!(stats.delivered, total as u64);
        assert_eq!(stats.malformed, 1, "injected garbage filtered out");
        assert_eq!(stats.source_errors, 1);
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.restarts, 2);
        assert!(!stats.gave_up);
    }

    /// Hands `source` to the first build only, as `attach_source` does.
    fn once(source: impl Source + 'static) -> SourceFactory {
        let mut source = Some(source);
        Box::new(move |_, _| Ok(Box::new(source.take().expect("single run")) as Box<dyn Source>))
    }

    #[test]
    fn backpressure_loses_nothing_on_a_tiny_queue() {
        // Tiny queue + slow consumer: every tuple and then the EOF arrive,
        // in order, though the queue is full whenever the source offers.
        let g = StockTicks::new("s", &["A"], 7).with_max_days(500);
        let (p, c) = fjord(2, QueueKind::Push);
        let s = Supervisor::spawn(
            "stocks",
            once(g),
            p,
            quick_config(DegradePolicy::Backpressure),
        );
        let mut seqs = Vec::new();
        loop {
            match c.dequeue() {
                DequeueResult::Msg(FjordMessage::Tuple(t)) => {
                    seqs.push(t.timestamp().seq());
                    if seqs.len() % 50 == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                DequeueResult::Msg(FjordMessage::Eof) => break,
                DequeueResult::Msg(FjordMessage::Punct(_)) | DequeueResult::Empty => {}
                DequeueResult::Disconnected => panic!("Disconnected before Eof"),
            }
        }
        assert_eq!(seqs.len(), 500);
        assert!(seqs.windows(2).all(|w| w[0] <= w[1]), "order preserved");
        assert_eq!(s.join().delivered, 500);
    }

    #[test]
    fn eof_waits_for_room_under_backpressure() {
        // The last tuple fills the queue, so the EOF meets a full queue
        // (its refusal is the queue's first) and must wait, not vanish.
        let (schema, master) = stock_tuples(8);
        let n = master.len();
        let (p, c) = fjord(n, QueueKind::Push);
        let src = VecSource::new(schema, master).unwrap();
        let config = quick_config(DegradePolicy::Backpressure);
        let s = Supervisor::spawn("full", once(src), p, config);
        while c.stats().full_rejections == 0 {
            std::thread::yield_now();
        }
        let mut tuples = 0;
        loop {
            match c.dequeue() {
                DequeueResult::Msg(FjordMessage::Tuple(_)) => tuples += 1,
                DequeueResult::Msg(FjordMessage::Eof) => break,
                DequeueResult::Msg(FjordMessage::Punct(_)) | DequeueResult::Empty => {}
                DequeueResult::Disconnected => panic!("EOF dropped on a full queue"),
            }
        }
        assert_eq!(tuples, n);
        assert_eq!(s.join().delivered, n as u64);
    }

    #[test]
    fn stop_and_a_dropped_consumer_both_end_an_infinite_source() {
        let infinite = || StockTicks::new("s", &["A"], 9);
        let config = || quick_config(DegradePolicy::Backpressure);
        let (p, c) = fjord(8, QueueKind::Push);
        let s = Supervisor::spawn("stopped", once(infinite()), p, config());
        while c.len() < 8 {
            std::thread::yield_now();
        }
        let stats = s.stop();
        assert!(stats.delivered >= 8 && !stats.gave_up);

        let (p, c) = fjord(8, QueueKind::Push);
        let s = Supervisor::spawn("orphaned", once(infinite()), p, config());
        drop(c);
        // Returns: the thread noticed no one is reading.
        assert!(!s.join().gave_up);
    }
}
