//! Flux-style exchange: partition-parallel execution of a dedicated join
//! (`ServerConfig::partitions > 1`).
//!
//! The paper's Flux modules "encapsulate adaptive state partitioning and
//! dataflow routing" (§2.3, [SHCF03]) so one continuous query can span
//! many processors. This module is the in-process version of that idea:
//! an *exchange* operator in the Volcano sense, built from three DUs and
//! 2P+1 Fjords.
//!
//! ```text
//!             ingress fjords (one per stream)
//!                     │
//!               ┌─────▼──────┐     schedule fjord (run grants)
//!               │ PartitionDu ├───────────────────────────┐
//!               └┬─────┬─────┘                            │
//!     partition  │ ... │  fjords (P)                      │
//!        ┌───────▼┐   ┌▼───────┐                          │
//!        │WorkerDu│   │WorkerDu│   (P cloned eddies,      │
//!        └───────┬┘   └┬───────┘    distinct EOs)         │
//!      output    │ ... │  fjords (P)                      │
//!               ┌▼─────▼─────┐                            │
//!               │  MergeDu   ◄────────────────────────────┘
//!               └─────┬──────┘
//!                     ▼ egress (one offer sequence, canonical order)
//! ```
//!
//! # Determinism
//!
//! The delivered results and the egress ledger must be byte-identical to
//! the sequential (`P = 1`) plan for the same seed — the same contract
//! PR 3 established for `io_batch`. Three mechanisms carry it:
//!
//! 1. **Canonical order.** The partitioner's drain order over its input
//!    fjords *is* the canonical total order: it is exactly the order a
//!    sequential `JoinCqDu` with the same `io_batch` would feed its eddy.
//!    Each tuple is hashed on its join-key value with the in-tree FNV-1a
//!    ([`tcq_common::hash_value`] — deterministic across runs, machines,
//!    *and* std versions, unlike `DefaultHasher`). The hash is memoized on
//!    the tuple itself, so the SteM that later builds or probes on the
//!    same key column reuses it instead of rehashing: one hash per tuple
//!    end to end. The tuple is appended to partition fjord `p`. A run —
//!    consecutive same-partition tuples routed in one partitioner quantum
//!    — is delimited by a `Punct` in the partition fjord, and each run
//!    start emits one grant (`Punct(logical(p))`) into the schedule fjord.
//!    The schedule is therefore a serialization of the canonical order by
//!    run.
//! 2. **Identical workers.** All P eddies are built by the same
//!    `build_join_eddy` call with the same policy kind and seed, and each
//!    partition owns its SteM state outright — per-partition ownership by
//!    construction (worker state lives inside the `WorkerDu`), so there
//!    is no cross-partition locking on the probe path at all, let alone
//!    contention. Hash partitioning on the transitively-equal join key
//!    (see [`partitionable`]) co-locates every possible match, and each
//!    worker sees its sub-stream in canonical-order restriction, so the
//!    multiset *and order* of outputs per run equal the sequential eddy's
//!    outputs for the same input run.
//!
//!    That needs one more thing under sliding windows: a window slides on
//!    the *stream's* clock, and a worker builds only its partition's rows.
//!    So each run a partition receives opens with the clock of every
//!    windowed input that moved since that worker last heard it (a `Punct`
//!    whose physical component names the source — see `clock_punct`), and
//!    the worker's eddy advances those SteMs before routing the run. Inside
//!    the run every canonical tuple is the worker's own, so its builds move
//!    the clock exactly as the sequential eddy's do.
//! 3. **Ordered merge.** The merger replays grants from the schedule
//!    fjord strictly in order; for each grant it drains that partition's
//!    output fjord up to the run-closing `Punct` and hands the run to the
//!    egress router as one batch. Egress offers therefore happen in the
//!    canonical order, so ledger counters, retry decisions, and fault
//!    polls at `EgressDeliver` fire identically for any P.
//!
//! All three DUs read their fjords through [`Inbox`]es like every other
//! DU: what a refill pulled past the point a DU stops — a merger's run
//! closing mid-refill, a worker owing a dropped punct — waits in the
//! inbox for the DU's next step.
//!
//! The exchange DUs poll no fault points on the data path shared with
//! the sequential plan; every such point (SourceRead, FjordEnqueue,
//! ArchiveAppend, EgressDeliver, …) sits upstream of the partitioner or
//! downstream of the merger, so a seeded chaos schedule observes the same
//! per-message poll sequence at any P (`tests/server_chaos.rs` asserts
//! this end to end). The two liveness points are exchange-local and do
//! not disturb that contract: a worker polls
//! [`FaultPoint::DropPunctuation`] per run-closing punct it forwards and
//! the merger polls [`FaultPoint::StallConsumer`] per schedule grant it
//! consumes — per-point counters are independent and rate draws only
//! happen for rates registered at the polled point, so plans that don't
//! mention the liveness points replay bit-for-bit as before.
//!
//! # Backpressure and deadlock freedom
//!
//! The partitioner stages everything through an ordered outbox and drains
//! it strictly FIFO with non-blocking enqueues; when the head message's
//! fjord is full it parks. FIFO matters: every message of an earlier run
//! was *delivered* before the head blocked, so the merger can always
//! finish the runs it has grants for, which drains worker outputs, which
//! drains partition fjords, which unblocks the head. No cycle waits on a
//! later message.

use std::collections::VecDeque;

use tcq_common::{FaultAction, FaultPoint, Result, SchemaRef, SharedInjector, Timestamp, Tuple};
use tcq_eddy::{Eddy, Emitted, SourceSet};
use tcq_egress::EgressRouter;
use tcq_executor::{DispatchUnit, ModuleStatus};
use tcq_fjords::{FjordMessage, Inbox, Producer};
use tcq_query::AnalyzedQuery;

use crate::plans::{LazyProject, QueryId};

/// Whether a join query can run partition-parallel.
///
/// Requires at least one equi-join pair, every physical stream consumed
/// under exactly one alias (self-joins interleave per-alias eddy entries
/// per tuple, which a partitioned plan cannot reproduce), and a connected
/// equi-join graph. Connectivity plus the one-key-per-source rule (the
/// multi-key SteM error) make all key values inside any joined tuple
/// transitively equal, so hash-partitioning each source on its key
/// co-locates every possible match in one partition.
pub fn partitionable(aq: &AnalyzedQuery) -> bool {
    if aq.sources.len() < 2 || aq.join_pairs.is_empty() {
        return false;
    }
    let mut names: Vec<String> = aq
        .sources
        .iter()
        .map(|s| s.name.to_ascii_lowercase())
        .collect();
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        return false;
    }
    let mut parent: Vec<usize> = (0..aq.sources.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for jp in &aq.join_pairs {
        let (a, b) = (find(&mut parent, jp.left), find(&mut parent, jp.right));
        parent[a] = b;
    }
    let root = find(&mut parent, 0);
    (1..aq.sources.len()).all(|i| find(&mut parent, i) == root)
}

/// Footprint class for the `k`-th exchange DU of query `qid`. The top bit
/// keeps these off the single-bit stream classes, so every exchange DU is
/// a fresh class and the registry places it on the least-loaded EO —
/// submitting the P workers in sequence spreads them across distinct EOs
/// whenever `eos` allows.
pub fn du_class(qid: QueryId, k: usize) -> u64 {
    (1u64 << 63) | ((qid as u64 & 0x00FF_FFFF) << 8) | (k as u64 & 0xFF)
}

/// Where a staged partitioner message is bound.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hop {
    Part(usize),
    Schedule,
}

/// One ingress stream feeding the partitioner.
pub struct ExchangeInput {
    inbox: Inbox,
    alias: SchemaRef,
    key_col: usize,
    /// For a windowed source: its eddy source bit, the newest logical time
    /// routed from it, and per partition the newest time carried there.
    clock: Option<(SourceSet, i64, Vec<i64>)>,
}

impl ExchangeInput {
    /// New input draining `inbox`; tuples are re-qualified to `alias` and
    /// hash-partitioned on `key_col` (an index into `alias`). A source
    /// that slides a window names its bit in the workers' eddies as
    /// `clock`: its clock is carried to each worker at the start of every
    /// run routed there.
    pub fn new(inbox: Inbox, alias: SchemaRef, key_col: usize, clock: Option<SourceSet>) -> Self {
        ExchangeInput {
            inbox,
            alias,
            key_col,
            clock: clock.map(|source| (source, i64::MIN, Vec::new())),
        }
    }
}

/// A run-opening clock: stream time on `source` reached `seq`. The
/// physical component carries the source bit, which is how a worker tells
/// it from a run-closing punct (logical only).
fn clock_punct(source: SourceSet, seq: i64) -> FjordMessage {
    FjordMessage::Punct(Timestamp::both(seq, source as i64))
}

/// The exchange's producer half: establishes the canonical total order,
/// hash-splits it into P partition fjords, and journals the run order
/// into the schedule fjord. See the module docs for the protocol.
pub struct PartitionDu {
    name: String,
    inputs: Vec<ExchangeInput>,
    parts: Vec<Producer>,
    schedule: Producer,
    floor: i64,
    deadline: i64,
    /// Ordered staging area; drained strictly FIFO so a full fjord can
    /// never reorder the canonical sequence.
    outbox: VecDeque<(Hop, FjordMessage)>,
    open_run: Option<usize>,
    finished: bool,
    /// Fresh hash computations performed while routing (memo hits are
    /// free) — the partitioner's half of the hashed-exactly-once story.
    hash_computes: u64,
}

impl PartitionDu {
    /// New partitioner over `inputs`, splitting into `parts.len()`
    /// partition fjords with run grants journaled to `schedule`.
    /// `floor`/`deadline` bound the query's window extent exactly as in
    /// the sequential `JoinCqDu`.
    pub fn new(
        name: impl Into<String>,
        mut inputs: Vec<ExchangeInput>,
        parts: Vec<Producer>,
        schedule: Producer,
        floor: i64,
        deadline: i64,
    ) -> Self {
        for (_, _, sent) in inputs.iter_mut().filter_map(|i| i.clock.as_mut()) {
            *sent = vec![i64::MIN; parts.len()];
        }
        PartitionDu {
            name: name.into(),
            inputs,
            parts,
            schedule,
            floor,
            deadline,
            outbox: VecDeque::new(),
            open_run: None,
            finished: false,
            hash_computes: 0,
        }
    }

    /// Fresh key-hash computations performed while routing.
    pub fn hash_computes(&self) -> u64 {
        self.hash_computes
    }

    fn route(&mut self, t: Tuple, key_col: usize) {
        // The routing hash is memoized on the tuple so downstream SteMs
        // reuse it.
        let hash = match t.cached_key_hash(key_col) {
            Some(h) => h,
            None => {
                self.hash_computes += 1;
                t.key_hash(key_col)
            }
        };
        let p = (hash % self.parts.len() as u64) as usize;
        if self.open_run != Some(p) {
            self.close_run();
            self.open_run = Some(p);
            self.outbox.push_back((
                Hop::Schedule,
                FjordMessage::Punct(Timestamp::logical(p as i64)),
            ));
            // The worker's windows catch up with the streams before the
            // run; inside it, its own builds move them as at P = 1.
            for (source, clock, sent) in self.inputs.iter_mut().filter_map(|i| i.clock.as_mut()) {
                if sent[p] < *clock {
                    sent[p] = *clock;
                    self.outbox
                        .push_back((Hop::Part(p), clock_punct(*source, *clock)));
                }
            }
        }
        self.outbox
            .push_back((Hop::Part(p), FjordMessage::Tuple(t)));
    }

    fn close_run(&mut self) {
        if let Some(p) = self.open_run.take() {
            self.outbox.push_back((
                Hop::Part(p),
                FjordMessage::Punct(Timestamp::logical(p as i64)),
            ));
        }
    }

    /// Drain the outbox strictly in order, moving each maximal same-fjord
    /// prefix under one lock acquisition; stop at the first refusal
    /// (back-pressure). Returns how many messages were placed.
    fn flush_outbox(&mut self) -> usize {
        let mut sent = 0;
        let mut batch: Vec<FjordMessage> = Vec::new();
        while let Some(&(hop, _)) = self.outbox.front() {
            batch.clear();
            while let Some(&(h, _)) = self.outbox.front() {
                if h != hop {
                    break;
                }
                batch.push(self.outbox.pop_front().expect("front checked").1);
            }
            let producer = match hop {
                Hop::Part(p) => &self.parts[p],
                Hop::Schedule => &self.schedule,
            };
            match producer.enqueue_batch(&mut batch) {
                Ok(n) => {
                    sent += n;
                    if !batch.is_empty() {
                        // Refused suffix: restore it at the front, in order.
                        for msg in batch.drain(..).rev() {
                            self.outbox.push_front((hop, msg));
                        }
                        break;
                    }
                }
                Err(_) => {
                    // Downstream dropped (query stopped mid-teardown):
                    // nothing wants the data, so the staged tail is moot.
                    self.outbox.clear();
                    break;
                }
            }
        }
        sent
    }
}

impl DispatchUnit for PartitionDu {
    fn name(&self) -> &str {
        &self.name
    }

    fn buffered(&self) -> usize {
        self.outbox.len()
            + self
                .inputs
                .iter()
                .map(|i| i.inbox.buffered())
                .sum::<usize>()
    }

    fn run(&mut self, quantum: usize) -> Result<ModuleStatus> {
        let mut did_work = self.flush_outbox() > 0;
        if !self.outbox.is_empty() {
            // Head-of-line blocked on a full fjord; draining inputs now
            // would only grow the outbox.
            return Ok(if did_work {
                ModuleStatus::Ready
            } else {
                ModuleStatus::Idle
            });
        }
        if self.finished {
            return Ok(ModuleStatus::Done);
        }
        let per_input = quantum.div_ceil(self.inputs.len().max(1));
        for i in 0..self.inputs.len() {
            let mut budget = per_input;
            while let Some(msg) = self.inputs[i].inbox.next(&mut budget) {
                let FjordMessage::Tuple(t) = msg else {
                    continue;
                };
                did_work = true;
                let seq = t.timestamp().seq();
                if seq < self.floor {
                    continue;
                }
                if seq > self.deadline {
                    // Stream time passed the final window (timestamps are
                    // monotone per stream).
                    self.inputs[i].inbox.close();
                    break;
                }
                let t = t.with_schema(self.inputs[i].alias.clone())?;
                let key_col = self.inputs[i].key_col;
                self.route(t, key_col);
                if let Some((_, clock, _)) = &mut self.inputs[i].clock {
                    *clock = (*clock).max(seq);
                }
            }
        }
        // A run ends with the quantum that routed it, so the merger can
        // deliver it now rather than when the keys next change partition
        // or the inputs end. Run boundaries only decide how the merger
        // batches deliveries — tuple order and the egress ledger are the
        // same for any run split — so closing early keeps the contract.
        self.close_run();
        if self.inputs.iter().all(|i| i.inbox.is_done()) {
            for p in 0..self.parts.len() {
                self.outbox.push_back((Hop::Part(p), FjordMessage::Eof));
            }
            self.outbox.push_back((Hop::Schedule, FjordMessage::Eof));
            self.finished = true;
            did_work = true;
        }
        self.flush_outbox();
        if self.finished && self.outbox.is_empty() {
            return Ok(ModuleStatus::Done);
        }
        Ok(if did_work {
            ModuleStatus::Ready
        } else {
            ModuleStatus::Idle
        })
    }
}

// (tests at the bottom of this file exercise the partition/merge protocol
// without workers; end-to-end coverage lives in tests/server_chaos.rs.)

/// One partition's worker: a full clone of the query's eddy (SteMs,
/// filters, band predicates) plus projection, consuming partition fjord
/// `k` and producing projected results — with run-closing `Punct`s
/// forwarded in place — into output fjord `k`. The eddy and its SteM
/// state are owned by value: per-partition ownership means the probe hot
/// path takes no locks shared with any other partition.
pub struct WorkerDu {
    name: String,
    input: Inbox,
    output: Producer,
    eddy: Eddy,
    project: LazyProject,
    emitted: Vec<Emitted>,
    /// Contiguous tuples of the currently-open run awaiting the eddy.
    batch: Vec<Tuple>,
    outbox: Vec<FjordMessage>,
    finished: bool,
    /// Run-closing punctuations an injected fault swallowed
    /// ([`FaultPoint::DropPunctuation`]). While any are owed the worker
    /// takes no further input — it stays in the inbox, because the punct
    /// must land *before* the next run's outputs — so the merger wedges
    /// waiting for the run to close until the watchdog nudges us into
    /// re-emitting.
    owed_puncts: Vec<Timestamp>,
    injector: Option<SharedInjector>,
}

impl WorkerDu {
    /// New worker bridging `input` (partition fjord) to `output` (output
    /// fjord) through `eddy` and `project`.
    pub fn new(
        name: impl Into<String>,
        input: Inbox,
        output: Producer,
        eddy: Eddy,
        project: LazyProject,
    ) -> Self {
        WorkerDu {
            name: name.into(),
            input,
            output,
            eddy,
            project,
            emitted: Vec::new(),
            batch: Vec::new(),
            outbox: Vec::new(),
            finished: false,
            owed_puncts: Vec::new(),
            injector: None,
        }
    }

    /// Attach the chaos injector: each run-closing punctuation about to be
    /// forwarded polls [`FaultPoint::DropPunctuation`].
    pub fn with_injector(mut self, injector: SharedInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Push the pending run prefix through the eddy; outputs join the
    /// outbox ahead of the (not yet seen) run-closing punct.
    fn process_pending(&mut self) -> Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.batch);
        self.emitted.clear();
        self.eddy.process_batch(batch, &mut self.emitted)?;
        for e in self.emitted.drain(..) {
            for t in e.into_rows() {
                self.outbox
                    .push(FjordMessage::Tuple(self.project.apply(&t)?));
            }
        }
        Ok(())
    }

    /// Close the open run: its outputs, then its punct — unless an
    /// injected fault swallows the punct, which is then owed.
    fn close_run(&mut self, ts: Timestamp) -> Result<()> {
        self.process_pending()?;
        let dropped = self
            .injector
            .as_ref()
            .and_then(|inj| inj.poll(FaultPoint::DropPunctuation))
            .is_some();
        if dropped {
            self.owed_puncts.push(ts);
        } else {
            self.outbox.push(FjordMessage::Punct(ts));
        }
        Ok(())
    }

    fn flush_outbox(&mut self) -> usize {
        if self.outbox.is_empty() {
            return 0;
        }
        match self.output.enqueue_batch(&mut self.outbox) {
            Ok(n) => n,
            Err(_) => {
                // Merger gone: query teardown in progress.
                self.outbox.clear();
                0
            }
        }
    }
}

impl DispatchUnit for WorkerDu {
    fn name(&self) -> &str {
        &self.name
    }

    fn buffered(&self) -> usize {
        self.outbox.len() + self.batch.len() + self.input.buffered() + self.owed_puncts.len()
    }

    /// Re-emit dropped run-closing punctuations. The input parked in the
    /// inbox resumes through the normal path on the next quantum.
    fn nudge(&mut self) -> bool {
        if self.owed_puncts.is_empty() {
            return false;
        }
        for ts in std::mem::take(&mut self.owed_puncts) {
            self.outbox.push(FjordMessage::Punct(ts));
        }
        self.flush_outbox();
        true
    }

    fn run(&mut self, quantum: usize) -> Result<ModuleStatus> {
        let mut did_work = self.flush_outbox() > 0;
        if !self.outbox.is_empty() {
            // Output fjord full: stop consuming until the merger catches
            // up, or run-output order would need reassembly downstream.
            return Ok(if did_work {
                ModuleStatus::Ready
            } else {
                ModuleStatus::Idle
            });
        }
        if !self.owed_puncts.is_empty() {
            // An injected fault swallowed a run-closing punct: the worker
            // is wedged by design until the watchdog nudges it.
            return Ok(ModuleStatus::Idle);
        }
        if self.finished {
            return Ok(ModuleStatus::Done);
        }
        let mut budget = quantum;
        while self.owed_puncts.is_empty() {
            let Some(msg) = self.input.next(&mut budget) else {
                break;
            };
            did_work = true;
            match msg {
                FjordMessage::Tuple(t) => self.batch.push(t),
                FjordMessage::Punct(ts) => match (ts.logical_part(), ts.physical_part()) {
                    // A run-opening clock (`clock_punct`).
                    (Some(seq), Some(source)) => {
                        self.process_pending()?;
                        self.eddy.advance_to(source as SourceSet, seq);
                    }
                    _ => self.close_run(ts)?,
                },
                FjordMessage::Eof => {} // an inbox ends the stream instead
            }
        }
        // A run prefix without its punct yet: process it now — its
        // outputs precede the punct either way, so order is intact and
        // latency stays low while the run is starved.
        self.process_pending()?;
        if self.input.is_done() && self.owed_puncts.is_empty() && !self.finished {
            self.outbox.push(FjordMessage::Eof);
            self.finished = true;
            did_work = true;
        }
        self.flush_outbox();
        if self.finished && self.outbox.is_empty() {
            return Ok(ModuleStatus::Done);
        }
        Ok(if did_work {
            ModuleStatus::Ready
        } else {
            ModuleStatus::Idle
        })
    }
}

/// The exchange's consumer half: replays the schedule fjord's grants in
/// order, drains each granted partition's output fjord up to the
/// run-closing punct, and delivers every completed run to the egress
/// router as one batch — restoring the canonical total order exactly.
/// Messages read past a run's punct wait in that partition's inbox for
/// the grant that claims them.
pub struct MergeDu {
    name: String,
    schedule: Inbox,
    outputs: Vec<Inbox>,
    egress: EgressRouter,
    qid: QueryId,
    run_buf: Vec<Tuple>,
    current: Option<usize>,
    done: bool,
    /// Remaining quanta this merger refuses to work, set by an injected
    /// [`FaultPoint::StallConsumer`] fault (a deterministic wedged
    /// consumer). Cleared by [`DispatchUnit::escalate`] — the watchdog's
    /// failover to the ordered-outbox drain.
    stall_budget: u64,
    injector: Option<SharedInjector>,
}

impl MergeDu {
    /// New merger over `outputs.len()` partitions, delivering to `egress`
    /// under query `qid`.
    pub fn new(
        name: impl Into<String>,
        schedule: Inbox,
        outputs: Vec<Inbox>,
        egress: EgressRouter,
        qid: QueryId,
    ) -> Self {
        MergeDu {
            name: name.into(),
            schedule,
            outputs,
            egress,
            qid,
            run_buf: Vec::new(),
            current: None,
            done: false,
            stall_budget: 0,
            injector: None,
        }
    }

    /// Attach the chaos injector: each schedule grant consumed polls
    /// [`FaultPoint::StallConsumer`].
    pub fn with_injector(mut self, injector: SharedInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Complete the current run: one egress offer sequence in canonical
    /// order (ledger counters and fault polls fire exactly as at P=1).
    fn finish_run(&mut self) {
        self.egress.deliver_batch([self.qid], &self.run_buf);
        self.run_buf.clear();
        self.current = None;
    }
}

impl DispatchUnit for MergeDu {
    fn name(&self) -> &str {
        &self.name
    }

    fn buffered(&self) -> usize {
        self.run_buf.len()
            + self.schedule.buffered()
            + self.outputs.iter().map(Inbox::buffered).sum::<usize>()
    }

    /// Failover: clear an injected consumer wedge so the ordered-outbox
    /// drain resumes exactly where it stopped (zero loss, canonical order
    /// intact — the stall never consumed or reordered anything).
    fn escalate(&mut self) -> bool {
        if self.stall_budget > 0 {
            self.stall_budget = 0;
            true
        } else {
            false
        }
    }

    fn run(&mut self, quantum: usize) -> Result<ModuleStatus> {
        if self.done {
            return Ok(ModuleStatus::Done);
        }
        if self.stall_budget > 0 {
            // Injected wedge: refuse to touch the schedule or any output
            // fjord. The watchdog must notice the frozen frontier.
            self.stall_budget -= 1;
            return Ok(ModuleStatus::Idle);
        }
        let mut did_work = false;
        let mut budget = quantum;
        while self.stall_budget == 0 {
            let Some(p) = self.current else {
                match self.schedule.next(&mut budget) {
                    Some(FjordMessage::Punct(ts)) => {
                        did_work = true;
                        self.current = Some(ts.seq() as usize);
                        if let Some(FaultAction::Stall { ticks }) = self
                            .injector
                            .as_ref()
                            .and_then(|inj| inj.poll(FaultPoint::StallConsumer))
                        {
                            self.stall_budget = ticks;
                        }
                    }
                    // The partitioner sends only grants here.
                    Some(_) => {}
                    None => break,
                }
                continue;
            };
            // Drain partition p's output up to the run-closing punct.
            match self.outputs[p].next(&mut budget) {
                Some(FjordMessage::Tuple(t)) => self.run_buf.push(t),
                Some(_) => {
                    did_work = true;
                    self.finish_run();
                }
                // Teardown mid-run: deliver what arrived.
                None if self.outputs[p].is_done() => {
                    did_work = true;
                    self.finish_run();
                }
                // Starved mid-run (the worker hasn't caught up) or out of
                // budget.
                None => break,
            }
        }
        // Finale: after the schedule closes, every worker still owes an
        // Eof (their fjords may also hold puncts for runs the schedule
        // granted before its Eof — those were consumed above); skip to it.
        if self.schedule.is_done() && self.current.is_none() {
            let mut all = true;
            for output in &mut self.outputs {
                let mut unmetered = usize::MAX;
                while output.next(&mut unmetered).is_some() {}
                all &= output.is_done();
            }
            if all {
                self.done = true;
                return Ok(ModuleStatus::Done);
            }
        }
        Ok(if did_work {
            ModuleStatus::Ready
        } else {
            ModuleStatus::Idle
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{Catalog, DataType, Field, Schema, SourceKind, TupleBuilder};
    use tcq_fjords::{fjord, QueueKind};
    use tcq_query::{analyze, parse};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        for name in ["a", "b", "c"] {
            let s = Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ])
            .into_ref();
            c.register(name, s, SourceKind::PushStream).unwrap();
        }
        c
    }

    fn analyzed(src: &str) -> AnalyzedQuery {
        analyze(&parse(src).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn partitionable_shapes() {
        // Two streams, one equi-join: eligible.
        assert!(partitionable(&analyzed(
            "SELECT a.v FROM a a, b b WHERE a.k = b.k \
             for (t = ST; t >= 0; t++) { WindowIs(a, t - 10, t); WindowIs(b, t - 10, t); }"
        )));
        // Three streams joined through a common key: connected, eligible.
        assert!(partitionable(&analyzed(
            "SELECT a.v FROM a a, b b, c c WHERE a.k = b.k AND a.k = c.k \
             for (t = ST; t >= 0; t++) { WindowIs(a, t - 10, t); WindowIs(b, t - 10, t); \
             WindowIs(c, t - 10, t); }"
        )));
        // Self-join: same physical stream under two aliases — ineligible.
        assert!(!partitionable(&analyzed(
            "SELECT x.v FROM a x, a y WHERE x.k = y.k \
             for (t = ST; t >= 0; t++) { WindowIs(x, t - 10, t); WindowIs(y, t - 10, t); }"
        )));
        // Single stream: nothing to partition against.
        assert!(!partitionable(&analyzed(
            "SELECT a.v FROM a a WHERE a.v > 0"
        )));
    }

    #[test]
    fn du_classes_are_fresh_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for qid in 0..4 {
            for k in 0..9 {
                let c = du_class(qid, k);
                assert!(c & (1 << 63) != 0, "top bit set");
                assert!(seen.insert(c), "class collision qid={qid} k={k}");
            }
        }
    }

    /// A worker-less exchange: the partition fjords double as the output
    /// fjords (tuples pass through "identity workers"), so the merger
    /// must hand the egress router exactly the canonical input order.
    #[test]
    fn partition_then_merge_restores_canonical_order() {
        const P: usize = 3;
        const N: i64 = 500;
        let schema = Schema::qualified(
            "s",
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ],
        )
        .into_ref();
        let (in_prod, in_cons) = fjord(2048, QueueKind::Push);
        let mut parts = Vec::new();
        let mut outs = Vec::new();
        for _ in 0..P {
            let (p, c) = fjord(64, QueueKind::Push);
            parts.push(p);
            outs.push(c);
        }
        let (sched_p, sched_c) = fjord(128, QueueKind::Push);
        let mut part = PartitionDu::new(
            "part",
            vec![ExchangeInput::new(
                Inbox::new(in_cons, 8),
                schema.clone(),
                0,
                None,
            )],
            parts,
            sched_p,
            i64::MIN,
            i64::MAX,
        );
        let egress = EgressRouter::new();
        egress.register_pull_client(1, 4096).unwrap();
        egress.subscribe(1, 7).unwrap();
        let outs = outs.into_iter().map(|c| Inbox::new(c, 8)).collect();
        let mut merge = MergeDu::new("merge", Inbox::new(sched_c, 8), outs, egress.clone(), 7);

        for i in 0..N {
            let t = TupleBuilder::new(schema.clone())
                .push(i * 7 % 11) // key: hops between partitions
                .push(i)
                .at(Timestamp::logical(i + 1))
                .build()
                .unwrap();
            in_prod.enqueue(FjordMessage::Tuple(t)).unwrap();
        }
        in_prod.send_eof().unwrap();

        // Interleave the two DUs until both retire; small quanta plus
        // small fjords exercise the back-pressure/outbox path.
        let mut part_done = false;
        let mut merge_done = false;
        for _ in 0..100_000 {
            if !part_done && part.run(16).unwrap() == ModuleStatus::Done {
                part_done = true;
            }
            if !merge_done && merge.run(16).unwrap() == ModuleStatus::Done {
                merge_done = true;
            }
            if part_done && merge_done {
                break;
            }
        }
        assert!(part_done && merge_done, "exchange must quiesce");

        let got = egress.fetch(1, 4096).unwrap();
        assert_eq!(got.len(), N as usize);
        for (i, (q, t)) in got.iter().enumerate() {
            assert_eq!(*q, 7);
            assert_eq!(
                t.value(1).as_int().unwrap(),
                i as i64,
                "delivery must follow canonical (arrival) order"
            );
        }
    }

    /// The hashed-exactly-once contract end to end: the partitioner
    /// computes each routed tuple's key hash once (memoized on the
    /// tuple), and the per-partition SteMs that later build and probe on
    /// the same key reuse the memo, computing zero hashes of their own.
    #[test]
    fn key_hash_computed_once_across_exchange_and_stems() {
        use tcq_operators::{module::EddyModule, StemOp};
        use tcq_stems::IndexKind;
        const P: usize = 2;
        const N: i64 = 100;
        let s = Schema::qualified(
            "s",
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ],
        )
        .into_ref();
        let tt = Schema::qualified(
            "t",
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ],
        )
        .into_ref();
        let (part_hashes, stem_hashes, matches) = {
            let (sp, sc) = fjord(4096, QueueKind::Push);
            let (tp, tc) = fjord(4096, QueueKind::Push);
            let mut parts = Vec::new();
            let mut outs = Vec::new();
            for _ in 0..P {
                let (p, c) = fjord(4096, QueueKind::Push);
                parts.push(p);
                outs.push(c);
            }
            let (sched_p, _sched_c) = fjord(4096, QueueKind::Push);
            let mut part = PartitionDu::new(
                "part",
                vec![
                    ExchangeInput::new(Inbox::new(sc, 64), s.clone(), 0, None),
                    ExchangeInput::new(Inbox::new(tc, 64), tt.clone(), 0, None),
                ],
                parts,
                sched_p,
                i64::MIN,
                i64::MAX,
            );
            // Builds from s arrive before probes from t (separate inputs;
            // the partitioner drains input 0 first).
            for i in 0..N {
                let b = TupleBuilder::new(s.clone())
                    .push(i % 13)
                    .push(i)
                    .at(Timestamp::logical(i + 1))
                    .build()
                    .unwrap();
                sp.enqueue(FjordMessage::Tuple(b)).unwrap();
            }
            sp.send_eof().unwrap();
            for i in 0..N {
                let pr = TupleBuilder::new(tt.clone())
                    .push(i % 13)
                    .push(i)
                    .at(Timestamp::logical(N + i + 1))
                    .build()
                    .unwrap();
                tp.enqueue(FjordMessage::Tuple(pr)).unwrap();
            }
            tp.send_eof().unwrap();
            for _ in 0..100_000 {
                if part.run(64).unwrap() == ModuleStatus::Done {
                    break;
                }
            }
            let part_hashes = part.hash_computes();
            // Drop the partitioner so the partition fjords disconnect and
            // the blocking drains below terminate.
            drop(part);
            // Worker side: one SteM(s) per partition, probed by t.k.
            let mut matches = 0usize;
            let mut stem_hashes = 0u64;
            for c in &outs {
                let mut stem = StemOp::new(
                    "SteM(s)",
                    s.clone(),
                    "s",
                    0,
                    (Some("t".into()), "k".into()),
                    IndexKind::Hash,
                )
                .unwrap();
                while let Ok(msg) = c.dequeue_blocking() {
                    if let FjordMessage::Tuple(tu) = msg {
                        matches += stem.process(&tu).unwrap().outputs.len();
                    }
                }
                stem_hashes += stem.hash_computes();
            }
            (part_hashes, stem_hashes, matches)
        };
        assert!(matches > 0, "the workload must actually join");
        // 2N tuples hashed once each at the partitioner, zero at the SteMs.
        assert_eq!((part_hashes, stem_hashes), (2 * N as u64, 0));
    }
}
