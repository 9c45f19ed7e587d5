//! One pass against a freshly booted system: boot → warm-up (untimed,
//! closed loop) → the measured region (closed-loop capacity rows, or an
//! open-loop latency phase at the workload's fixed rate) → verify → shut
//! down. Two load threads: the generator (the caller) and one receiver.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

use tcq_common::{Result, TcqError, Tuple};
use tcq_egress::EgressStats;

use crate::measure::{ns_since, process_cpu_ns, thread_cpu_ns, Histogram};
use crate::sut::{Sink, Sut};
use crate::trace::{Span, Tracer};
use crate::workload::{self, decode, Generator, Kind, Reference, Spec, BATCH, W};

/// What the measured region of a pass is.
#[derive(Clone, Copy)]
pub enum Phase {
    /// Closed loop over the workload's fixed `timed_rows`.
    Capacity,
    /// Open loop at the workload's fixed rate for `secs`; results whose
    /// batch was due in the first `discard_secs` are not recorded.
    Latency { secs: f64, discard_secs: f64 },
}

pub struct PassOpts {
    pub pass: u32,
    pub seed: u64,
    pub phase: Phase,
    /// Liveness probes on, spans and per-layer counters recorded.
    pub traced: bool,
    /// Scratch directory for workloads that write (removed after the pass).
    pub dir: Option<PathBuf>,
    /// Common zero of all span timestamps.
    pub epoch: Instant,
}

/// Per-layer counts read from the engine's public stats, as differences
/// over the measured region (traced passes only).
#[derive(Default)]
pub struct Counts {
    pub eo_busy_ns: u64,
    pub eo_idle_ns: u64,
    pub quanta: u64,
    pub egress_offered: u64,
    pub egress_shed: u64,
    pub net_bytes_in: u64,
    pub net_bytes_out: u64,
    pub net_rows_out: u64,
    pub net_frames_out: u64,
    pub net_rows_lost: u64,
    pub fjord_rejects: u64,
    pub fjord_depth_max: u64,
    pub archive_bytes: u64,
    pub archive_rows: u64,
    pub ckpt_bytes: u64,
    pub ckpt_commits: u64,
    pub shared_bytes: u64,
    pub shared_queries: u64,
    /// Wall time of each `submit`, `stop_query` and `checkpoint` call.
    pub submit_ns: Histogram,
    pub stop_ns: Histogram,
    pub ckpt_ns: Histogram,
}

#[derive(Default)]
pub struct PassResult {
    /// Expected result rows of the whole pass.
    pub attempted: u64,
    /// Missing + unexpected rows + checksum and ledger mismatches.
    pub failed: u64,
    pub notes: Vec<String>,
    /// Boot → last warm-up batch handed over.
    pub setup_s: f64,
    /// The measured region as the receiver saw it: from the first to the
    /// last result of the timed rows.
    pub region: Region,
    /// Result latency and generator lateness (latency phase only).
    pub latency: Histogram,
    pub lateness: Histogram,
    /// Time from the last batch sent to the last result (latency phase).
    pub drain_s: f64,
    pub counts: Counts,
    pub spans: Vec<Span>,
}

#[derive(Clone, Copy, Default)]
pub struct Region {
    /// Input rows whose results arrived in it.
    pub rows: u64,
    pub secs: f64,
    /// Process CPU minus the load threads' own CPU.
    pub engine_cpu_ns: u64,
}

impl Region {
    /// Input rows per second.
    pub fn tput(&self) -> f64 {
        self.rows as f64 / self.secs.max(1e-9)
    }

    /// Engine CPU seconds per million input rows (= µs per row).
    pub fn cpu_s_per_mrow(&self) -> f64 {
        self.engine_cpu_ns as f64 / 1e3 / self.rows.max(1) as f64
    }
}

/// What the receiver notes at each end of the measured region.
struct Mark {
    /// Newest input row whose result has arrived.
    idx: u64,
    wall_ns: u64,
    process_cpu_ns: u64,
    /// The receiver's CPU plus the generator's own, as last published.
    load_cpu_ns: u64,
}

/// State the generator and the receiver share.
struct Shared {
    /// Result rows the receiver has seen.
    received: AtomicU64,
    /// Expected result rows of the pass; `u64::MAX` until generation ends.
    expected: AtomicU64,
    /// The generator is parked on the closed-loop bound.
    gen_waiting: AtomicBool,
    /// Start of the open-loop schedule in ns since the epoch (0 = unset).
    open_t0_ns: AtomicU64,
    /// Generator-thread CPU outside engine calls, updated after every batch.
    gen_own_cpu_ns: AtomicU64,
}

struct RecvOutcome {
    sink: Sink,
    seen: Reference,
    /// Arrival of the newest result, ns since the epoch.
    last_arrival_ns: u64,
    /// First and newest result of the timed rows.
    region: Option<(Mark, Mark)>,
    latency: Histogram,
    error: Option<TcqError>,
    spans: Vec<Span>,
}

struct RecvPlan {
    kind: Kind,
    warm_rows: u64,
    /// ns between due times of consecutive batches (latency phase).
    interval_ns: u64,
    discard_ns: u64,
    record_latency: bool,
}

fn receive(
    mut sink: Sink,
    plan: RecvPlan,
    shared: &Shared,
    generator: Thread,
    epoch: Instant,
    mut tr: Tracer,
) -> RecvOutcome {
    let root = tr.begin("recv.pass", 0);
    let mut seen = Reference::default();
    let mut latency = Histogram::default();
    let mut last_arrival_ns = 0;
    let mut region_start: Option<Mark> = None;
    let mut newest_idx = 0;
    let mark = |idx: u64, wall_ns: u64| Mark {
        idx,
        wall_ns,
        process_cpu_ns: process_cpu_ns(),
        load_cpu_ns: thread_cpu_ns() + shared.gen_own_cpu_ns.load(Ordering::Acquire),
    };
    let mut error = None;
    // Origins of the rows of one burst, to be timed against one clock read.
    let mut origins: Vec<u64> = Vec::with_capacity(4 * BATCH);
    loop {
        origins.clear();
        let span = tr.begin("egress.recv_burst", root);
        let got = sink.recv_burst(|t: &Tuple| {
            let d = decode(plan.kind, t);
            seen.rows += 1;
            seen.sum_a += d.a;
            seen.sum_b += d.b;
            origins.push(d.idx);
        });
        tr.end(span);
        match got {
            Ok(0) => {}
            Ok(_) => {
                let now_ns = ns_since(epoch, Instant::now());
                last_arrival_ns = now_ns;
                newest_idx = origins.iter().copied().fold(newest_idx, u64::max);
                if region_start.is_none() && newest_idx >= plan.warm_rows {
                    region_start = Some(mark(newest_idx, now_ns));
                }
                if plan.record_latency {
                    let t0 = shared.open_t0_ns.load(Ordering::Acquire);
                    for &idx in origins.iter().filter(|&&i| i >= plan.warm_rows) {
                        let due = (idx - plan.warm_rows) / BATCH as u64 * plan.interval_ns;
                        if t0 != 0 && due >= plan.discard_ns {
                            latency.record(now_ns.saturating_sub(t0 + due));
                        }
                    }
                }
                shared.received.store(seen.rows, Ordering::Release);
                if shared.gen_waiting.load(Ordering::Acquire) {
                    generator.unpark();
                }
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        if seen.rows >= shared.expected.load(Ordering::Acquire) {
            break;
        }
    }
    let region = region_start.map(|start| (start, mark(newest_idx, last_arrival_ns)));
    tr.end(root);
    // Unblock a generator still parked on the closed-loop bound if the
    // sink died: it re-checks `received` and the pass fails on the count.
    shared.received.store(u64::MAX / 2, Ordering::Release);
    generator.unpark();
    RecvOutcome {
        sink,
        seen,
        last_arrival_ns,
        region,
        latency,
        error,
        spans: tr.into_spans(),
    }
}

/// The generator's side of a pass: everything it measures about itself.
struct GenState<'a> {
    spec: &'static Spec,
    sut: &'a mut Sut,
    gen: Generator,
    shared: &'a Shared,
    tr: Tracer,
    root: u32,
    /// Generator-thread CPU spent inside in-process engine calls
    /// (`push_batch`, `submit`, `stop_query`, `checkpoint`): engine work,
    /// so it is not subtracted as the generator's own.
    cpu_in_engine_ns: u64,
    counts: Counts,
    /// `manycq_churn`: the churned query currently standing, and how many
    /// were submitted so far.
    churn_live: Option<usize>,
    churn_n: i64,
    ckpt_epochs: u64,
    next_probe: Instant,
}

impl GenState<'_> {
    /// Run an in-process engine call on this thread, billing its CPU to the
    /// engine and recording a span.
    fn engine_call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Sut) -> Result<T>,
    ) -> Result<T> {
        let span = self.tr.begin(name, self.root);
        let cpu = thread_cpu_ns();
        let out = f(self.sut);
        self.cpu_in_engine_ns += thread_cpu_ns() - cpu;
        self.tr.end(span);
        out
    }

    /// Closed-loop admission: park while more than `W` expected result rows
    /// are outstanding. The receiver unparks us as results arrive.
    fn wait_for_window(&mut self) {
        let sent = self.gen.reference.rows;
        if sent.saturating_sub(self.shared.received.load(Ordering::Acquire)) <= W {
            return;
        }
        let span = self.tr.begin("client.window_wait", self.root);
        self.shared.gen_waiting.store(true, Ordering::Release);
        while sent.saturating_sub(self.shared.received.load(Ordering::Acquire)) > W {
            std::thread::park_timeout(Duration::from_millis(1));
        }
        self.shared.gen_waiting.store(false, Ordering::Release);
        self.tr.end(span);
    }

    /// Generate the next batch (at most `max` rows) and hand it over, then
    /// do what the workload does between batches.
    fn send_batch(&mut self, max: u64) -> Result<()> {
        let mut batch = Vec::with_capacity(BATCH);
        self.gen.fill(max.min(BATCH as u64) as usize, &mut batch);
        let stream = self.spec.stream;
        if self.sut.ingest.is_some() {
            // Client-side encode + socket write: the client's own cost.
            let span = self.tr.begin("net.ingest", self.root);
            let res = self.sut.send(stream, batch);
            self.tr.end(span);
            res?;
        } else {
            self.engine_call("server.push_batch", |s| s.send(stream, batch))?;
        }
        match self.spec.kind {
            Kind::ManyCqChurn => self.churn()?,
            Kind::DurableAgg => {
                if self
                    .gen
                    .rows_made()
                    .is_multiple_of(workload::CKPT_EVERY_ROWS)
                {
                    self.checkpoint()?;
                }
            }
            Kind::JoinInproc | Kind::JoinTcp => {}
        }
        if self.tr.enabled() {
            self.probe_queues();
        }
        self.shared
            .gen_own_cpu_ns
            .store(thread_cpu_ns() - self.cpu_in_engine_ns, Ordering::Release);
        Ok(())
    }

    /// One `submit` of a never-matching query and one `stop_query` of the
    /// one submitted a batch earlier.
    fn churn(&mut self) -> Result<()> {
        let sql = workload::sym_cq_sql(workload::CHURN_SYM_BASE + self.churn_n);
        self.churn_n += 1;
        let client = self.sut.client;
        let started = Instant::now();
        let qid = self.engine_call("server.submit", |s| s.engine().submit(&sql, client))?;
        self.counts
            .submit_ns
            .record(started.elapsed().as_nanos() as u64);
        if let Some(old) = self.churn_live.replace(qid) {
            let started = Instant::now();
            self.engine_call("server.stop_query", |s| s.engine().stop_query(old))?;
            self.counts
                .stop_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<()> {
        let started = Instant::now();
        let report = self.engine_call("server.checkpoint", |s| s.engine().checkpoint())?;
        self.counts
            .ckpt_ns
            .record(started.elapsed().as_nanos() as u64);
        self.counts.ckpt_bytes += report.bytes;
        self.counts.ckpt_commits += 1;
        self.ckpt_epochs += 1;
        Ok(())
    }

    /// Sample the fjords' depth at 10 Hz (traced passes only).
    fn probe_queues(&mut self) {
        let now = Instant::now();
        if now < self.next_probe {
            return;
        }
        self.next_probe = now + Duration::from_millis(100);
        if let Some(snap) = self.sut.engine().progress_snapshot() {
            let deepest = snap.channels.iter().map(|c| c.depth).max().unwrap_or(0);
            self.counts.fjord_depth_max = self.counts.fjord_depth_max.max(deepest);
        }
    }
}

/// Counters sampled at the start and the end of the measured region.
struct Sample {
    exec: ExecSample,
    egress: EgressStats,
    net: tcq_net::NetStats,
    archive_rows: u64,
    rejects: u64,
}

/// The three executor totals the benchmark diffs.
struct ExecSample {
    busy_ns: u64,
    idle_ns: u64,
    quanta: u64,
}

fn sample(sut: &Sut, stream: &str) -> Sample {
    let engine = sut.engine();
    let ex = engine.executor_stats();
    let net = match &sut.host {
        crate::sut::Host::Tcp(n) => n.net_stats(),
        crate::sut::Host::InProc(_) => tcq_net::NetStats::default(),
    };
    Sample {
        exec: ExecSample {
            busy_ns: ex.busy_ns_per_eo.iter().sum(),
            idle_ns: ex.idle_ns_per_eo.iter().sum(),
            quanta: ex.quanta_per_du.iter().map(|(_, q)| q).sum(),
        },
        egress: engine.egress_stats_full(),
        net,
        archive_rows: engine
            .archive_stats(stream)
            .ok()
            .flatten()
            .map_or(0, |a| a.appended),
        rejects: engine
            .progress_snapshot()
            .map_or(0, |s| s.channels.iter().map(|c| c.rejections).sum()),
    }
}

/// Bytes of the archive segments in `dir` (0 if none).
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run_pass(spec: &'static Spec, opts: PassOpts) -> PassResult {
    let mut notes = Vec::new();
    match run_pass_inner(spec, &opts, &mut notes) {
        Ok(r) => r,
        Err(e) => {
            notes.push(format!("pass {} aborted: {e}", opts.pass));
            if let Some(dir) = &opts.dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            PassResult {
                attempted: 1,
                failed: 1,
                notes,
                ..PassResult::default()
            }
        }
    }
}

fn run_pass_inner(
    spec: &'static Spec,
    opts: &PassOpts,
    notes: &mut Vec<String>,
) -> Result<PassResult> {
    let epoch = opts.epoch;
    let mut tr = Tracer::new(opts.traced, epoch, 1, opts.pass);
    let root = tr.begin("pass", 0);
    let boot_started = Instant::now();
    if let Some(dir) = &opts.dir {
        std::fs::create_dir_all(dir)?;
    }
    let setup_span = tr.begin("pass.setup", root);
    let (mut sut, sink) = Sut::boot(spec, opts.traced, opts.dir.clone(), &mut tr, setup_span)?;

    let (interval_ns, discard_ns, record_latency) = match opts.phase {
        Phase::Capacity => (0, 0, false),
        Phase::Latency { discard_secs, .. } => (
            BATCH as u64 * 1_000_000_000 / spec.rate,
            (discard_secs * 1e9) as u64,
            true,
        ),
    };
    let shared = Shared {
        received: AtomicU64::new(0),
        expected: AtomicU64::new(u64::MAX),
        gen_waiting: AtomicBool::new(false),
        open_t0_ns: AtomicU64::new(0),
        gen_own_cpu_ns: AtomicU64::new(0),
    };
    let plan = RecvPlan {
        kind: spec.kind,
        warm_rows: spec.warm_rows,
        interval_ns,
        discard_ns,
        record_latency,
    };
    let recv_tracer = Tracer::new(opts.traced, epoch, 2, opts.pass);
    let me = std::thread::current();

    let (gen_out, recv) = std::thread::scope(|scope| {
        let shared = &shared;
        let receiver = std::thread::Builder::new()
            .name("bench-receiver".into())
            .spawn_scoped(scope, move || {
                receive(sink, plan, shared, me, epoch, recv_tracer)
            })
            .expect("spawn receiver thread");
        let mut g = GenState {
            spec,
            sut: &mut sut,
            gen: Generator::new(spec, opts.seed),
            shared,
            tr,
            root,
            cpu_in_engine_ns: 0,
            counts: Counts::default(),
            churn_live: None,
            churn_n: 0,
            ckpt_epochs: 0,
            next_probe: Instant::now(),
        };
        let out = generate(&mut g, opts, boot_started, setup_span);
        // Tell the receiver how much to wait for, even after an error, so
        // it stops and can be joined.
        let expected = match &out {
            Ok(_) => g.gen.reference.rows,
            Err(_) => 0,
        };
        shared.expected.store(expected, Ordering::Release);
        let recv = receiver.join().expect("receiver thread panicked");
        (out.map(|o| (o, g)), recv)
    });
    let (timing, g) = gen_out?;
    let GenState {
        gen,
        mut tr,
        mut counts,
        ckpt_epochs,
        ..
    } = g;
    let reference = gen.reference;
    let rows_pushed = gen.rows_made();

    let drain_s = recv.last_arrival_ns.saturating_sub(timing.last_send_ns) as f64 / 1e9;
    let region = recv
        .region
        .as_ref()
        .map_or(Region::default(), |(a, b)| Region {
            rows: b.idx - a.idx,
            secs: (b.wall_ns - a.wall_ns) as f64 / 1e9,
            engine_cpu_ns: (b.process_cpu_ns - a.process_cpu_ns)
                .saturating_sub(b.load_cpu_ns - a.load_cpu_ns),
        });

    // Per-layer counts: differences over the measured region.
    sut.settle(spec.stream, spec.seq_of(rows_pushed - 1), rows_pushed)?;
    let after = sample(&sut, spec.stream);
    let before = &timing.before;
    counts.eo_busy_ns = after.exec.busy_ns - before.exec.busy_ns;
    counts.eo_idle_ns = after.exec.idle_ns - before.exec.idle_ns;
    counts.quanta = after.exec.quanta - before.exec.quanta;
    counts.egress_offered = after.egress.offered - before.egress.offered;
    counts.egress_shed = after.egress.shed - before.egress.shed;
    counts.net_bytes_in = after.net.bytes_read - before.net.bytes_read;
    counts.net_bytes_out = after.net.bytes_written - before.net.bytes_written;
    counts.net_rows_out = after.net.rows_written - before.net.rows_written;
    counts.net_frames_out = after.net.frames_written - before.net.frames_written;
    counts.net_rows_lost = after.net.rows_lost_disconnect + after.net.rows_dropped_net;
    counts.fjord_rejects = after.rejects - before.rejects;
    counts.archive_rows = after.archive_rows;
    for stat in sut.engine().shared_memory_stats() {
        counts.shared_bytes += stat.approx_bytes as u64;
        counts.shared_queries += stat.queries as u64;
    }

    // Verification, part 1: what the receiver saw against the reference.
    let mut failed = 0u64;
    let mut fail = |n: u64, what: String| {
        if n > 0 {
            failed += n;
            notes.push(format!("pass {}: {what}", opts.pass));
        }
    };
    if let Some(e) = &recv.error {
        fail(1, format!("receiver stopped: {e}"));
    }
    fail(
        reference.rows.abs_diff(recv.seen.rows),
        format!(
            "result rows: expected {}, received {}",
            reference.rows, recv.seen.rows
        ),
    );
    fail(
        (reference.sum_a != recv.seen.sum_a) as u64 + (reference.sum_b != recv.seen.sum_b) as u64,
        format!(
            "checksums: expected ({}, {}), received ({}, {})",
            reference.sum_a, reference.sum_b, recv.seen.sum_a, recv.seen.sum_b
        ),
    );
    // Part 2: the engine's own ledgers.
    let ledger = after.egress;
    fail(
        ledger.offered.abs_diff(reference.rows) + ledger.offered.abs_diff(ledger.delivered),
        format!(
            "egress ledger: offered {} delivered {} expected {}",
            ledger.offered, ledger.delivered, reference.rows
        ),
    );
    fail(
        ledger.shed + ledger.displaced + ledger.disconnected_loss + counts.net_rows_lost,
        format!(
            "rows lost: shed {} displaced {} disconnected {} net {}",
            ledger.shed, ledger.displaced, ledger.disconnected_loss, counts.net_rows_lost
        ),
    );
    if spec.kind == Kind::JoinTcp {
        let sent = rows_pushed + workload::DIM_ROWS as u64;
        fail(
            after.net.rows_read.abs_diff(sent) + after.net.rows_written.abs_diff(reference.rows),
            format!(
                "wire ledger: rows read {} of {sent}, written {} of {}",
                after.net.rows_read, after.net.rows_written, reference.rows
            ),
        );
    }
    if spec.kind == Kind::DurableAgg {
        fail(
            after.archive_rows.abs_diff(rows_pushed),
            format!("archive appended {} of {rows_pushed}", after.archive_rows),
        );
        let committed = sut
            .engine()
            .checkpoint_stats()
            .map_or(0, |s| s.epochs_committed);
        let want = rows_pushed / workload::CKPT_EVERY_ROWS;
        fail(
            committed.abs_diff(want) + ckpt_epochs.abs_diff(want),
            format!("checkpoint epochs: committed {committed}, expected {want}"),
        );
    }
    if matches!(opts.phase, Phase::Latency { .. }) {
        fail(
            (drain_s > 1.0) as u64,
            format!("backlog at the end of the open loop took {drain_s:.2} s to drain"),
        );
    }

    // Close the subscriber before the server tears connections down; an
    // in-process channel is kept to catch rows nobody expected.
    let channel = recv.sink.close();
    let shutdown = tr.begin("pass.shutdown", root);
    // Shutdown seals the archive, then removes the scratch directory; the
    // unsealed tail is at most one page, so the size is read first.
    if let Some(dir) = &opts.dir {
        counts.archive_bytes = dir_bytes(&dir.join("archive"));
    }
    sut.shutdown()?;
    tr.end(shutdown);
    let unexpected = channel.map_or(0, |rx| rx.try_iter().count() as u64);
    fail(
        unexpected,
        format!("{unexpected} rows arrived after the last expected one"),
    );
    tr.end(root);
    let mut spans = tr.into_spans();
    spans.extend(recv.spans);

    Ok(PassResult {
        attempted: reference.rows.max(1),
        failed,
        notes: std::mem::take(notes),
        setup_s: timing.setup_s,
        region,
        latency: recv.latency,
        lateness: timing.lateness,
        drain_s,
        counts,
        spans,
    })
}

struct GenTiming {
    setup_s: f64,
    last_send_ns: u64,
    lateness: Histogram,
    before: Sample,
}

/// Warm-up, then the measured region.
fn generate(
    g: &mut GenState<'_>,
    opts: &PassOpts,
    boot_started: Instant,
    setup_span: u32,
) -> Result<GenTiming> {
    let spec = g.spec;
    let epoch = opts.epoch;
    let warm = g.tr.begin("pass.warmup", g.root);
    while g.gen.rows_made() < spec.warm_rows {
        g.wait_for_window();
        g.send_batch(spec.warm_rows - g.gen.rows_made())?;
    }
    g.tr.end(warm);
    g.tr.end(setup_span);
    let setup_s = boot_started.elapsed().as_secs_f64();

    let before = sample(g.sut, spec.stream);
    let region = g.tr.begin("pass.region", g.root);
    let region_start = Instant::now();
    let mut lateness = Histogram::default();
    match opts.phase {
        Phase::Capacity => {
            let end = spec.warm_rows + spec.timed_rows;
            while g.gen.rows_made() < end {
                g.wait_for_window();
                g.send_batch(end - g.gen.rows_made())?;
            }
        }
        Phase::Latency { secs, discard_secs } => {
            let interval = Duration::from_nanos(BATCH as u64 * 1_000_000_000 / spec.rate);
            let batches = (secs * spec.rate as f64 / BATCH as f64) as u32;
            let discard = Duration::from_secs_f64(discard_secs);
            g.shared
                .open_t0_ns
                .store(ns_since(epoch, region_start).max(1), Ordering::Release);
            for b in 0..batches {
                let offset = interval * b;
                let due = region_start + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if offset >= discard {
                    let late = Instant::now().saturating_duration_since(due);
                    lateness.record(late.as_nanos() as u64);
                }
                g.send_batch(BATCH as u64)?;
            }
        }
    }
    let last_send_ns = ns_since(epoch, Instant::now());
    g.tr.end(region);
    Ok(GenTiming {
        setup_s,
        last_send_ns,
        lateness,
        before,
    })
}
