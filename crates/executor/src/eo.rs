//! Execution Objects and the executor that hosts them.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tcq_common::sync::{Condvar, Mutex};

use tcq_common::{FaultAction, FaultPoint, Result, SharedInjector, TcqError};
use tcq_fjords::ModuleStatus;

use crate::dispatch::{DispatchUnit, DuId};
use crate::watchdog::{DuDiag, StallDiagnosis, WatchdogConfig, WatchdogState, WatchdogStats};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of Execution Objects (OS threads).
    pub eos: usize,
    /// Work quantum granted per DU per scheduling round.
    pub quantum: usize,
    /// How long an EO parks when all of its DUs are idle.
    pub idle_park: Duration,
    /// Optional fault injector polled at [`FaultPoint::OperatorRun`]
    /// before each DU quantum (chaos testing).
    pub injector: Option<SharedInjector>,
    /// Optional liveness watchdog: EO 0 runs stall detection once per
    /// scheduling round against the config's progress registry; every EO
    /// publishes its DUs' buffered counts to it.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            eos: 2,
            quantum: 64,
            idle_park: Duration::from_micros(200),
            injector: None,
            watchdog: None,
        }
    }
}

/// Point-in-time executor statistics.
#[derive(Debug, Clone)]
pub struct ExecutorStats {
    /// Per-EO: number of hosted DUs.
    pub dus_per_eo: Vec<usize>,
    /// Per-EO: scheduling rounds executed.
    pub rounds_per_eo: Vec<u64>,
    /// Per-EO: nanoseconds spent inside DU quanta (the EO's useful work).
    pub busy_ns_per_eo: Vec<u64>,
    /// Per-EO: nanoseconds spent parked waiting for work. Utilization is
    /// `busy / (busy + idle)`; comparing it across EOs exposes placement
    /// skew that `rounds_per_eo` alone cannot (a round may be all-idle).
    pub idle_ns_per_eo: Vec<u64>,
    /// Quanta granted per DU (including already-retired DUs), aggregated
    /// across EOs. The per-DU load signal behind the exp_scaling skew
    /// column.
    pub quanta_per_du: Vec<(DuId, u64)>,
    /// DUs that ran to completion.
    pub completed: u64,
    /// DUs retired because they errored, panicked, or had a fault
    /// injected (subset of `completed`).
    pub faulted: u64,
    /// Liveness watchdog counters (all zero when no watchdog is
    /// configured — and on any healthy run).
    pub watchdog: WatchdogStats,
}

impl ExecutorStats {
    /// Per-EO utilization in `[0, 1]`: busy time over busy + parked time.
    /// EOs that have done neither report 0.
    pub fn utilization_per_eo(&self) -> Vec<f64> {
        self.busy_ns_per_eo
            .iter()
            .zip(&self.idle_ns_per_eo)
            .map(|(&b, &i)| {
                let total = b + i;
                if total == 0 {
                    0.0
                } else {
                    b as f64 / total as f64
                }
            })
            .collect()
    }
}

struct EoShared {
    /// Freshly submitted DUs (the EO folds them in at the next round).
    inbox: Mutex<Vec<(DuId, Box<dyn DispatchUnit>)>>,
    /// DUs asked to be cancelled.
    cancels: Mutex<Vec<DuId>>,
    wake: Condvar,
    wake_lock: Mutex<()>,
    rounds: AtomicU64,
    du_count: AtomicU64,
    completed: AtomicU64,
    faulted: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    /// Quanta granted per DU hosted on this EO (retired DUs keep their
    /// final count). Flushed once per round, not per quantum.
    quanta: Mutex<HashMap<DuId, u64>>,
}

struct Registry {
    /// footprint class -> EO index ("we create query classes for disjoint
    /// sets of footprints", §4.2.2).
    class_to_eo: HashMap<u64, usize>,
    /// du -> EO index (for cancellation).
    du_to_eo: HashMap<DuId, usize>,
}

/// The multi-threaded executor: a pool of Execution Objects.
pub struct Executor {
    config: ExecutorConfig,
    shared: Vec<Arc<EoShared>>,
    handles: Vec<JoinHandle<()>>,
    registry: Mutex<Registry>,
    next_du: AtomicU64,
    stop: Arc<AtomicBool>,
    watchdog: Option<Arc<WatchdogState>>,
}

impl Executor {
    /// Start an executor with the given configuration.
    pub fn start(config: ExecutorConfig) -> Result<Self> {
        if config.eos == 0 {
            return Err(TcqError::Executor("need at least one EO".into()));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let watchdog = config
            .watchdog
            .clone()
            .map(|cfg| Arc::new(WatchdogState::new(cfg, config.eos)));
        let mut shared = Vec::with_capacity(config.eos);
        let mut handles = Vec::with_capacity(config.eos);
        for eo_idx in 0..config.eos {
            let sh = Arc::new(EoShared {
                inbox: Mutex::new(Vec::new()),
                cancels: Mutex::new(Vec::new()),
                wake: Condvar::new(),
                wake_lock: Mutex::new(()),
                rounds: AtomicU64::new(0),
                du_count: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                faulted: AtomicU64::new(0),
                busy_ns: AtomicU64::new(0),
                idle_ns: AtomicU64::new(0),
                quanta: Mutex::new(HashMap::new()),
            });
            shared.push(Arc::clone(&sh));
            let stop2 = Arc::clone(&stop);
            let cfg = config.clone();
            let wd = watchdog.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("tcq-eo-{eo_idx}"))
                    .spawn(move || eo_loop(sh, cfg, stop2, eo_idx, wd))
                    .map_err(|e| TcqError::Executor(format!("spawn EO: {e}")))?,
            );
        }
        Ok(Executor {
            config,
            shared,
            handles,
            registry: Mutex::new(Registry {
                class_to_eo: HashMap::new(),
                du_to_eo: HashMap::new(),
            }),
            next_du: AtomicU64::new(1),
            stop,
            watchdog,
        })
    }

    /// Submit a DU under a footprint class. DUs of one class always share
    /// an EO; a new class is placed on the least-loaded EO.
    pub fn submit(&self, class: u64, du: Box<dyn DispatchUnit>) -> Result<DuId> {
        if self.stop.load(Ordering::Acquire) {
            return Err(TcqError::Executor("executor is shut down".into()));
        }
        let id = self.next_du.fetch_add(1, Ordering::Relaxed);
        let eo_idx = {
            let mut reg = self.registry.lock();
            let idx = match reg.class_to_eo.get(&class) {
                Some(&i) => i,
                None => {
                    let i = self.least_loaded_eo();
                    reg.class_to_eo.insert(class, i);
                    i
                }
            };
            reg.du_to_eo.insert(id, idx);
            idx
        };
        let sh = &self.shared[eo_idx];
        sh.inbox.lock().push((id, du));
        sh.du_count.fetch_add(1, Ordering::Relaxed);
        sh.wake.notify_one();
        Ok(id)
    }

    fn least_loaded_eo(&self) -> usize {
        (0..self.shared.len())
            .min_by_key(|&i| self.shared[i].du_count.load(Ordering::Relaxed))
            .expect("at least one EO")
    }

    /// Cancel a DU; it is dropped at its EO's next round. Unknown ids error.
    pub fn cancel(&self, id: DuId) -> Result<()> {
        let eo_idx = {
            let reg = self.registry.lock();
            *reg.du_to_eo
                .get(&id)
                .ok_or_else(|| TcqError::Executor(format!("unknown DU {id}")))?
        };
        let sh = &self.shared[eo_idx];
        sh.cancels.lock().push(id);
        sh.wake.notify_one();
        Ok(())
    }

    /// Which EO a DU landed on (tests: class affinity).
    pub fn eo_of(&self, id: DuId) -> Option<usize> {
        self.registry.lock().du_to_eo.get(&id).copied()
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            dus_per_eo: self
                .shared
                .iter()
                .map(|s| s.du_count.load(Ordering::Relaxed) as usize)
                .collect(),
            rounds_per_eo: self
                .shared
                .iter()
                .map(|s| s.rounds.load(Ordering::Relaxed))
                .collect(),
            busy_ns_per_eo: self
                .shared
                .iter()
                .map(|s| s.busy_ns.load(Ordering::Relaxed))
                .collect(),
            idle_ns_per_eo: self
                .shared
                .iter()
                .map(|s| s.idle_ns.load(Ordering::Relaxed))
                .collect(),
            quanta_per_du: {
                let mut all: Vec<(DuId, u64)> = self
                    .shared
                    .iter()
                    .flat_map(|s| {
                        s.quanta
                            .lock()
                            .iter()
                            .map(|(&id, &n)| (id, n))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                all.sort_unstable();
                all
            },
            completed: self
                .shared
                .iter()
                .map(|s| s.completed.load(Ordering::Relaxed))
                .sum(),
            faulted: self
                .shared
                .iter()
                .map(|s| s.faulted.load(Ordering::Relaxed))
                .sum(),
            watchdog: self
                .watchdog
                .as_ref()
                .map(|w| w.stats())
                .unwrap_or_default(),
        }
    }

    /// The diagnosis of the first stall the watchdog declared, if any.
    pub fn first_stall(&self) -> Option<StallDiagnosis> {
        self.watchdog.as_ref().and_then(|w| w.first_stall())
    }

    /// The configured quantum.
    pub fn quantum(&self) -> usize {
        self.config.quantum
    }

    /// Stop all EOs and join their threads. Running DUs are dropped.
    pub fn shutdown(mut self) -> Result<()> {
        self.stop.store(true, Ordering::Release);
        for sh in &self.shared {
            sh.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            h.join()
                .map_err(|_| TcqError::Executor("EO thread panicked".into()))?;
        }
        Ok(())
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for sh in &self.shared {
            sh.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn eo_loop(
    shared: Arc<EoShared>,
    config: ExecutorConfig,
    stop: Arc<AtomicBool>,
    eo_idx: usize,
    watchdog: Option<Arc<WatchdogState>>,
) {
    let mut dus: Vec<(DuId, Box<dyn DispatchUnit>)> = Vec::new();
    let mut statuses: Vec<&'static str> = Vec::new();
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Fold in fresh queries; apply cancellations.
        {
            let mut inbox = shared.inbox.lock();
            dus.append(&mut inbox);
        }
        {
            let mut cancels = shared.cancels.lock();
            if !cancels.is_empty() {
                let before = dus.len();
                dus.retain(|(id, _)| !cancels.contains(id));
                let removed = (before - dus.len()) as u64;
                shared.du_count.fetch_sub(removed, Ordering::Relaxed);
                cancels.clear();
            }
        }
        if dus.is_empty() {
            if let Some(wd) = &watchdog {
                watchdog_round(wd, eo_idx, &shared, &dus, &[]);
            }
            let parked = std::time::Instant::now();
            let mut guard = shared.wake_lock.lock();
            shared
                .wake
                .wait_for(&mut guard, config.idle_park.max(Duration::from_micros(50)));
            drop(guard);
            shared
                .idle_ns
                .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
            continue;
        }
        // One round-robin scheduling round.
        shared.rounds.fetch_add(1, Ordering::Relaxed);
        let round_started = std::time::Instant::now();
        let mut any_ready = false;
        let mut finished: Vec<usize> = Vec::new();
        let mut faulted: u64 = 0;
        let mut ran: Vec<DuId> = Vec::with_capacity(dus.len());
        statuses.clear();
        for (i, (id, du)) in dus.iter_mut().enumerate() {
            // Chaos hook: an injected fault stands in for the operator
            // itself misbehaving.
            match config
                .injector
                .as_ref()
                .and_then(|inj| inj.poll(FaultPoint::OperatorRun))
            {
                Some(FaultAction::Error(_)) => {
                    finished.push(i);
                    faulted += 1;
                    statuses.push("injected-error");
                    continue;
                }
                Some(FaultAction::Panic(msg)) => {
                    // Simulated operator panic: isolated exactly like a
                    // real one below.
                    let _ = catch_unwind(AssertUnwindSafe(|| panic!("{msg}")));
                    finished.push(i);
                    faulted += 1;
                    statuses.push("injected-panic");
                    continue;
                }
                Some(FaultAction::Stall { .. }) => {
                    statuses.push("injected-stall");
                    continue; // skip this quantum
                }
                _ => {}
            }
            // A panicking DU is retired like an erroring one; the engine
            // must not wedge the whole EO ("degrade in a controlled
            // fashion").
            ran.push(*id);
            match catch_unwind(AssertUnwindSafe(|| du.run(config.quantum))) {
                Ok(Ok(ModuleStatus::Ready)) => {
                    any_ready = true;
                    statuses.push("ready");
                }
                Ok(Ok(ModuleStatus::Idle)) => statuses.push("idle"),
                Ok(Ok(ModuleStatus::Done)) => {
                    finished.push(i);
                    statuses.push("done");
                }
                Ok(Err(_)) | Err(_) => {
                    finished.push(i);
                    faulted += 1;
                    statuses.push("faulted");
                }
            }
        }
        shared
            .busy_ns
            .fetch_add(round_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(wd) = &watchdog {
            watchdog_round(wd, eo_idx, &shared, &dus, &statuses);
        }
        if !ran.is_empty() {
            // One bookkeeping lock per round, not per quantum. DUs skipped
            // by an injected stall (or retired before running) drew no
            // quantum and are absent from `ran`.
            let mut q = shared.quanta.lock();
            for id in &ran {
                *q.entry(*id).or_insert(0) += 1;
            }
        }
        for &i in finished.iter().rev() {
            dus.swap_remove(i);
            shared.du_count.fetch_sub(1, Ordering::Relaxed);
            shared.completed.fetch_add(1, Ordering::Relaxed);
        }
        shared.faulted.fetch_add(faulted, Ordering::Relaxed);
        if !any_ready {
            // Everyone idle: park briefly instead of spinning.
            let parked = std::time::Instant::now();
            let mut guard = shared.wake_lock.lock();
            shared.wake.wait_for(&mut guard, config.idle_park);
            drop(guard);
            shared
                .idle_ns
                .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Per-round watchdog bookkeeping for one EO: publish how much data its
/// DUs are holding (plus per-DU detail while a stall is suspected), and —
/// on the detector EO — advance the stall detector one engine tick.
fn watchdog_round(
    wd: &Arc<WatchdogState>,
    eo_idx: usize,
    shared: &EoShared,
    dus: &[(DuId, Box<dyn DispatchUnit>)],
    statuses: &[&'static str],
) {
    let buffered: usize = dus.iter().map(|(_, du)| du.buffered()).sum();
    let details = if wd.publishing_details() {
        let quanta = shared.quanta.lock();
        Some(
            dus.iter()
                .enumerate()
                .map(|(i, (id, du))| DuDiag {
                    id: *id,
                    name: du.name().to_string(),
                    buffered: du.buffered(),
                    last_status: statuses.get(i).copied().unwrap_or("not-run"),
                    quanta: quanta.get(id).copied().unwrap_or(0),
                })
                .collect(),
        )
    } else {
        None
    };
    wd.publish(eo_idx, buffered, details);
    if eo_idx == 0 {
        wd.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::FnDu;
    use std::sync::atomic::AtomicUsize;

    fn counting_du(target: usize, counter: Arc<AtomicUsize>) -> Box<dyn DispatchUnit> {
        Box::new(FnDu::new("count", move |q| {
            let before = counter.load(Ordering::Relaxed);
            if before >= target {
                return Ok(ModuleStatus::Done);
            }
            let step = q.min(target - before);
            counter.fetch_add(step, Ordering::Relaxed);
            Ok(if before + step >= target {
                ModuleStatus::Done
            } else {
                ModuleStatus::Ready
            })
        }))
    }

    fn wait_for(cond: impl Fn() -> bool, millis: u64) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_millis(millis);
        while std::time::Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn dus_run_to_completion() {
        let ex = Executor::start(ExecutorConfig::default()).unwrap();
        let counters: Vec<Arc<AtomicUsize>> =
            (0..8).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        for (i, c) in counters.iter().enumerate() {
            ex.submit(i as u64, counting_du(10_000, Arc::clone(c)))
                .unwrap();
        }
        assert!(wait_for(
            || counters.iter().all(|c| c.load(Ordering::Relaxed) == 10_000),
            5000
        ));
        assert!(wait_for(|| ex.stats().completed == 8, 5000));
        ex.shutdown().unwrap();
    }

    #[test]
    fn same_class_shares_an_eo_and_new_classes_spread() {
        let ex = Executor::start(ExecutorConfig {
            eos: 3,
            ..Default::default()
        })
        .unwrap();
        let c = Arc::new(AtomicUsize::new(0));
        let a1 = ex
            .submit(7, counting_du(usize::MAX, Arc::clone(&c)))
            .unwrap();
        let a2 = ex
            .submit(7, counting_du(usize::MAX, Arc::clone(&c)))
            .unwrap();
        let b = ex
            .submit(8, counting_du(usize::MAX, Arc::clone(&c)))
            .unwrap();
        let d = ex
            .submit(9, counting_du(usize::MAX, Arc::clone(&c)))
            .unwrap();
        assert_eq!(
            ex.eo_of(a1),
            ex.eo_of(a2),
            "same footprint class -> same EO"
        );
        let eos: std::collections::HashSet<_> =
            [a1, b, d].iter().map(|&id| ex.eo_of(id).unwrap()).collect();
        assert_eq!(eos.len(), 3, "three classes spread over three EOs");
        ex.shutdown().unwrap();
    }

    #[test]
    fn cancellation_removes_running_du() {
        let ex = Executor::start(ExecutorConfig::default()).unwrap();
        let c = Arc::new(AtomicUsize::new(0));
        let id = ex
            .submit(1, counting_du(usize::MAX, Arc::clone(&c)))
            .unwrap();
        assert!(wait_for(|| c.load(Ordering::Relaxed) > 0, 2000));
        ex.cancel(id).unwrap();
        assert!(wait_for(
            || ex.stats().dus_per_eo.iter().sum::<usize>() == 0,
            2000
        ));
        let frozen = c.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        // Allow one in-flight round after the cancel observation.
        assert!(c.load(Ordering::Relaxed) <= frozen + ex.quantum());
        assert!(ex.cancel(9999).is_err());
        ex.shutdown().unwrap();
    }

    #[test]
    fn dynamic_submission_while_running() {
        let ex = Executor::start(ExecutorConfig {
            eos: 2,
            ..Default::default()
        })
        .unwrap();
        let mut counters = Vec::new();
        for wave in 0..4 {
            for i in 0..4 {
                let c = Arc::new(AtomicUsize::new(0));
                ex.submit(wave * 4 + i, counting_du(5_000, Arc::clone(&c)))
                    .unwrap();
                counters.push(c);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(wait_for(
            || counters.iter().all(|c| c.load(Ordering::Relaxed) == 5_000),
            5000
        ));
        ex.shutdown().unwrap();
    }

    #[test]
    fn erroring_du_is_retired_not_fatal() {
        let ex = Executor::start(ExecutorConfig::default()).unwrap();
        ex.submit(
            1,
            Box::new(FnDu::new("bad", |_| Err(TcqError::Executor("boom".into())))),
        )
        .unwrap();
        let c = Arc::new(AtomicUsize::new(0));
        ex.submit(2, counting_du(1000, Arc::clone(&c))).unwrap();
        assert!(wait_for(|| c.load(Ordering::Relaxed) == 1000, 2000));
        ex.shutdown().unwrap();
    }

    #[test]
    fn panicking_du_is_isolated_and_counted() {
        let ex = Executor::start(ExecutorConfig {
            eos: 1,
            ..Default::default()
        })
        .unwrap();
        ex.submit(
            1,
            Box::new(FnDu::new("explode", |_| panic!("operator blew up"))),
        )
        .unwrap();
        let c = Arc::new(AtomicUsize::new(0));
        ex.submit(2, counting_du(1000, Arc::clone(&c))).unwrap();
        assert!(wait_for(|| c.load(Ordering::Relaxed) == 1000, 2000));
        assert!(wait_for(|| ex.stats().faulted == 1, 2000));
        ex.shutdown().unwrap();
    }

    #[test]
    fn injected_operator_fault_retires_one_du() {
        use tcq_common::{FaultAction, FaultPlan, FaultPoint};
        let injector = FaultPlan::new(7)
            .at(
                FaultPoint::OperatorRun,
                1,
                FaultAction::Error("injected operator fault".into()),
            )
            .build_shared();
        let ex = Executor::start(ExecutorConfig {
            eos: 1,
            injector: Some(injector),
            ..Default::default()
        })
        .unwrap();
        // The first DU quantum polled draws the fault and is retired; the
        // second DU still runs to completion.
        let c1 = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::new(AtomicUsize::new(0));
        ex.submit(1, counting_du(usize::MAX, Arc::clone(&c1)))
            .unwrap();
        ex.submit(2, counting_du(2000, Arc::clone(&c2))).unwrap();
        assert!(wait_for(|| c2.load(Ordering::Relaxed) == 2000, 2000));
        assert!(wait_for(|| ex.stats().faulted == 1, 2000));
        assert_eq!(c1.load(Ordering::Relaxed), 0, "faulted DU never ran");
        ex.shutdown().unwrap();
    }

    #[test]
    fn stats_track_busy_idle_time_and_quanta_per_du() {
        let ex = Executor::start(ExecutorConfig {
            eos: 1,
            ..Default::default()
        })
        .unwrap();
        let c = Arc::new(AtomicUsize::new(0));
        let id = ex.submit(1, counting_du(10_000, Arc::clone(&c))).unwrap();
        assert!(wait_for(|| ex.stats().completed == 1, 5000));
        // Let the EO park at least once after the DU retires.
        std::thread::sleep(Duration::from_millis(10));
        let st = ex.stats();
        assert!(st.busy_ns_per_eo[0] > 0, "quanta ran, busy time recorded");
        assert!(st.idle_ns_per_eo[0] > 0, "EO parked, idle time recorded");
        let quanta = st
            .quanta_per_du
            .iter()
            .find(|&&(d, _)| d == id)
            .map(|&(_, n)| n)
            .expect("retired DU keeps its quanta count");
        // 10_000 units at the default quantum of 64 needs many grants.
        assert!(quanta >= 10_000 / 64, "quanta={quanta}");
        let util = st.utilization_per_eo();
        assert!(util[0] > 0.0 && util[0] <= 1.0);
        ex.shutdown().unwrap();
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let ex = Executor::start(ExecutorConfig::default()).unwrap();
        let stats0 = ex.stats();
        assert_eq!(stats0.completed, 0);
        ex.shutdown().unwrap();
        // (can't call submit on moved value; construct another and drop it)
        let ex2 = Executor::start(ExecutorConfig {
            eos: 1,
            ..Default::default()
        })
        .unwrap();
        drop(ex2); // Drop path also joins threads cleanly.
    }

    #[test]
    fn zero_eos_rejected() {
        assert!(Executor::start(ExecutorConfig {
            eos: 0,
            ..Default::default()
        })
        .is_err());
    }
}
