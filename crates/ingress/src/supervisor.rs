//! The streamer: the one thread that delivers a source into a Fjord.
//!
//! §4.2.3: "Streamed data is delivered from the Wrapper process to the
//! Executor via streamers." TelegraphCQ also ingests "from an uncertain
//! world": wrappers talk to network feeds and sensors that disconnect,
//! emit garbage, or crash (§2.3 notes sensors "may have run out of power
//! or temporarily disconnected"). A [`Supervisor`] is the streamer built
//! for that world: it drains a source into a push Fjord, waiting for room
//! under back-pressure; catches source panics and errors and restarts the
//! source with capped exponential backoff; filters malformed tuples; and
//! sends EOF exactly once — all reported through [`SupervisorStats`].
//!
//! The source never sheds. A full Fjord stalls it until the consumer
//! catches up, so the archive and every historical query see every row
//! the wrapper produced. Rows are dropped only at result delivery, where
//! a slow consumer can be named: a client's bounded buffer, counted in
//! the egress ledger.
//!
//! The source is rebuilt by a [`SourceFactory`] closure receiving the
//! restart attempt number and the count of tuples already delivered, so
//! resumable sources can skip what the pipeline has already seen
//! (exactly-once across restarts). A source that cannot be rebuilt runs
//! with `max_restarts: 0`: its first failure ends the stream.
//!
//! Each read's tuples enter the Fjord under the supervisor's delivery
//! lock, which also guards the delivered count. [`Supervisor::hold`]
//! takes that lock: while it is held the source delivers nothing, and the
//! count it reads is exactly the number of tuples in or past the Fjord —
//! the resume cursor a checkpoint cut needs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tcq_common::sync::{Mutex, MutexGuard};
use tcq_common::{
    FaultAction, FaultPoint, Result, Schema, SharedInjector, TcqError, Timestamp, Tuple,
};
use tcq_fjords::{EnqueueError, FjordMessage, Producer};

use crate::source::{Source, SourceStatus};

/// Rebuilds the supervised source after a failure. Receives the restart
/// attempt (0 for the initial build) and how many tuples have already
/// been delivered downstream, so a resumable source can skip them.
pub type SourceFactory = Box<dyn FnMut(u64, u64) -> Result<Box<dyn Source>> + Send>;

/// First restart delay; doubles per consecutive failure.
const INITIAL_BACKOFF: Duration = Duration::from_millis(1);
/// Restart delay cap.
const MAX_BACKOFF: Duration = Duration::from_millis(50);

/// Supervision settings.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Give up after this many restarts (the stream then EOFs).
    pub max_restarts: u64,
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
            initial_delivered: 0,
        }
    }
}

/// Per-stream supervision counters: `delivered + malformed` accounts for
/// every tuple the source produced.
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
    /// Malformed (schema-arity-mismatched) tuples filtered out.
    pub malformed: u64,
    /// True once the restart budget is exhausted and the stream EOFed.
    pub gave_up: bool,
    /// Message of the most recent failure, if any.
    pub last_failure: Option<String>,
}

#[derive(Default)]
struct SharedStats {
    /// Tuples delivered; its lock is the delivery lock.
    delivered: Mutex<u64>,
    restarts: AtomicU64,
    panics: AtomicU64,
    source_errors: AtomicU64,
    malformed: AtomicU64,
    gave_up: AtomicBool,
    last_failure: Mutex<Option<String>>,
}

impl SharedStats {
    fn snapshot(&self) -> SupervisorStats {
        SupervisorStats {
            delivered: *self.delivered.lock(),
            restarts: self.restarts.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            source_errors: self.source_errors.load(Ordering::Relaxed),
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
        let stats = Arc::new(SharedStats {
            delivered: Mutex::new(config.initial_delivered),
            ..SharedStats::default()
        });
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
                    let delivered = *stats2.delivered.lock();
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
                            backoff(attempt, &stop2);
                            continue;
                        }
                    };
                    let end = catch_unwind(AssertUnwindSafe(|| {
                        run_source(&mut source, &output, &stop2, &stats2)
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
                    backoff(attempt, &stop2);
                }
                send_eof(&output, &stop2);
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
        *self.stats.delivered.lock()
    }

    /// Hold delivery: until the guard drops, the source thread moves no
    /// tuple into the Fjord (the source may finish a read; its tuples
    /// wait), and the guard reads the delivered count — every tuple the
    /// Fjord has taken from this supervisor, none it has not.
    pub fn hold(&self) -> MutexGuard<'_, u64> {
        self.stats.delivered.lock()
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

/// Sleep `INITIAL_BACKOFF * 2^(attempt-1)` capped at `MAX_BACKOFF`, in
/// small chunks so a stop request interrupts the wait.
fn backoff(attempt: u64, stop: &AtomicBool) {
    let exp = attempt.saturating_sub(1).min(20) as u32;
    let delay = INITIAL_BACKOFF.saturating_mul(1u32 << exp).min(MAX_BACKOFF);
    let chunk = Duration::from_millis(5);
    let mut remaining = delay;
    while remaining > Duration::ZERO && !stop.load(Ordering::Acquire) {
        let step = remaining.min(chunk);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// End the stream. The EOF waits for room like any tuple, until the
/// consumer leaves or stop is requested.
fn send_eof(output: &Producer, stop: &AtomicBool) {
    let mut eof = FjordMessage::Eof;
    while let Err(EnqueueError::Full(m)) = output.enqueue(eof) {
        if stop.load(Ordering::Acquire) {
            return;
        }
        eof = m;
        std::thread::yield_now();
    }
}

/// Drain `source` into `output` until it ends. Malformed tuples (arity !=
/// source schema arity) are filtered and counted, not delivered.
fn run_source(
    source: &mut Box<dyn Source>,
    output: &Producer,
    stop: &AtomicBool,
    stats: &SharedStats,
) -> RunEnd {
    let expected_arity = source.schema().len();
    let mut batch: Vec<Tuple> = Vec::with_capacity(64);
    let mut msgs: Vec<FjordMessage> = Vec::with_capacity(64);
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
            if t.arity() == expected_arity {
                msgs.push(FjordMessage::Tuple(t));
            } else {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
            }
        }
        match deliver(output, &mut msgs, stop, &stats.delivered) {
            Ok(true) => {}
            Ok(false) => return RunEnd::Stopped,
            Err(()) => return RunEnd::Disconnected,
        }
        match status {
            SourceStatus::Exhausted => return RunEnd::Exhausted,
            SourceStatus::Idle => std::thread::yield_now(),
            SourceStatus::Ready => {}
        }
    }
}

/// Move every tuple of `tuples` into `output`, in order, waiting for room.
/// Each attempt runs under the delivery lock and counts what it moved in
/// the same critical section. `Ok(true)` = all delivered, `Ok(false)` =
/// stop requested while waiting, `Err(())` = consumer disconnected.
fn deliver(
    output: &Producer,
    tuples: &mut Vec<FjordMessage>,
    stop: &AtomicBool,
    delivered: &Mutex<u64>,
) -> std::result::Result<bool, ()> {
    while !tuples.is_empty() {
        let mut count = delivered.lock();
        let moved = output.enqueue_batch(tuples).map_err(drop)?;
        *count += moved as u64;
        drop(count);
        if moved == 0 {
            if stop.load(Ordering::Acquire) {
                return Ok(false);
            }
            std::thread::yield_now();
        }
    }
    Ok(true)
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
        let s = Supervisor::spawn("flaky", factory, p, SupervisorConfig::default());
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
        let config = SupervisorConfig {
            initial_delivered: already,
            ..SupervisorConfig::default()
        };
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
        let cfg = SupervisorConfig {
            max_restarts: 3,
            ..SupervisorConfig::default()
        };
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
        let s = Supervisor::spawn("chaos", factory, p, SupervisorConfig::default());
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
        let s = Supervisor::spawn("stocks", once(g), p, SupervisorConfig::default());
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
        let config = SupervisorConfig::default();
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
        let config = SupervisorConfig::default;
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

    #[test]
    fn a_hold_reads_an_exact_count_and_delivers_nothing() {
        let (p, c) = fjord(4096, QueueKind::Push);
        let infinite = StockTicks::new("s", &["A"], 3);
        let s = Supervisor::spawn("held", once(infinite), p, SupervisorConfig::default());
        while c.len() < 64 {
            std::thread::yield_now();
        }
        {
            let count = s.hold();
            assert_eq!(
                *count,
                c.stats().enqueued,
                "the count is what the Fjord took"
            );
            // Room to spare, yet nothing arrives until the hold drops.
            c.drain();
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(c.len(), 0);
            assert_eq!(c.stats().enqueued, *count);
        }
        while c.is_empty() {
            std::thread::yield_now();
        }
        s.stop();
    }
}
