//! Flux-style exchange: partition-parallel execution of a join
//! (`ServerConfig::partitions > 1`; DESIGN.md §5c).
//!
//! The paper's Flux modules "encapsulate adaptive state partitioning and
//! dataflow routing" (§2.3, \[SHCF03\]). This module is the in-process
//! version: an *exchange* around the join that only routes and merges.
//! Each partition's worker is the join DU a one-partition join runs
//! ([`crate::join::JoinCqDu`]), driving a [`crate::join::JoinCore`] of
//! its own over its partition fjord, with its output fjord as its sink.
//!
//! ```text
//!             ingress fjords (one per stream)
//!                     │
//!               ┌─────▼──────┐     schedule fjord (run grants)
//!               │ PartitionDu ├─────────────────────────────┐
//!               └┬─────┬─────┘                              │
//!     partition  │ ... │  fjords (P)                        │
//!        ┌───────▼┐   ┌▼───────┐                            │
//!        │JoinCqDu│   │JoinCqDu│   (one JoinCore each,      │
//!        └───────┬┘   └┬───────┘    distinct EOs)           │
//!      output    │ ... │  fjords (P)                        │
//!               ┌▼─────▼─────┐                              │
//!               │  MergeDu   ◄──────────────────────────────┘
//!               └─────┬──────┘
//!                     ▼ egress (one offer sequence, canonical order)
//! ```
//!
//! # Determinism
//!
//! Delivered results and the egress ledger are byte-identical to the
//! sequential (`P = 1`) plan for the same seed:
//!
//! 1. **Canonical order.** The partitioner drains its inputs in the order a
//!    sequential `JoinCqDu` would, hashes each tuple's join key once (FNV-1a,
//!    [`tcq_common::hash_value`], memoized on the tuple so the SteMs reuse
//!    it) and appends it to partition fjord `hash % P`. A run — consecutive
//!    same-partition tuples routed in one quantum — ends with a `Punct` in
//!    the partition fjord, and opens with a grant (`Punct(logical(p))`) in
//!    the schedule fjord.
//! 2. **Identical workers.** All P cores come from the same
//!    `build_join_eddy`, and hash partitioning on the transitively-equal
//!    join key ([`partitionable`]) co-locates every match. A window slides
//!    on its *stream's* clock, so each run opens with the clock of every
//!    windowed input that moved since the worker last heard it (a `Punct`
//!    whose physical component names the source — `clock_punct`).
//! 3. **Ordered merge.** The merger replays the grants in order, draining
//!    each granted partition's output up to its run-closing `Punct`, and
//!    delivers each run as one batch, so egress offers and fault polls at
//!    `EgressDeliver` happen in the canonical order for any P. The exchange
//!    DUs poll no fault point themselves: every per-message point sits
//!    upstream of the partitioner or downstream of the merger, so a seeded
//!    chaos schedule sees the same poll sequence at any P.
//!
//! # Checkpoints
//!
//! A core's SteM groups are keyed by the hash the partitioner routes on, so
//! partition `p` holds the groups with `hash % P == p`; a restore at any P
//! imports each group into core `hash % P`. A checkpoint's drain and export
//! read the `ExchangeGauge`.
//!
//! # Backpressure and deadlock freedom
//!
//! The partitioner stages everything through an outbox drained strictly
//! FIFO with non-blocking enqueues, parking when the head's fjord is full.
//! Every message of an earlier run was delivered before the head blocked,
//! so the merger can always finish the runs it has grants for, which
//! drains worker outputs, then partition fjords, which unblocks the head.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use tcq_common::{Result, SchemaRef, Timestamp, Tuple};
use tcq_eddy::{Eddy, SourceSet};
use tcq_executor::{DispatchUnit, ModuleStatus};
use tcq_fjords::{FjordMessage, Inbox, Producer};
use tcq_query::AnalyzedQuery;

use crate::plans::QueryId;
use crate::server::Router;

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

/// What a checkpoint reads of a running exchange: its drain waits on
/// `runs` and the partition fjords' counts, and its export slides each
/// core to `clocks`.
pub(crate) struct ExchangeGauge {
    /// Partitioner runs that ended with nothing staged, all they took in a
    /// partition fjord; `u64::MAX` once the partitioner is gone.
    runs: AtomicU64,
    /// Per windowed input, its source bit and the newest time routed.
    clocks: Vec<(SourceSet, AtomicI64)>,
    /// The partition fjords.
    parts: Vec<Producer>,
}

impl ExchangeGauge {
    /// Partitioner runs so far that ended with nothing staged.
    pub(crate) fn runs(&self) -> u64 {
        self.runs.load(Ordering::Acquire)
    }

    /// True once a run has ended with nothing staged since [`Self::runs`]
    /// read `n`, or the partitioner is gone.
    pub(crate) fn ran_since(&self, n: u64) -> bool {
        let runs = self.runs();
        runs > n || runs == u64::MAX
    }

    /// Messages put into each partition fjord so far.
    pub(crate) fn placed(&self) -> Vec<u64> {
        self.parts.iter().map(|p| p.stats().enqueued).collect()
    }

    /// True once each worker has taken its first `placed[p]` messages (and
    /// so built them), or stopped reading.
    pub(crate) fn built(&self, placed: &[u64]) -> bool {
        (self.parts.iter().zip(placed)).all(|(p, &n)| {
            let st = p.stats();
            st.dequeued >= n || st.consumers == 0
        })
    }

    /// Slide a partition's windows to the streams' clocks, as its next run
    /// would, so an image holds what the one core of `P = 1` would.
    pub(crate) fn slide(&self, eddy: &mut Eddy) {
        for (source, clock) in &self.clocks {
            let clock = clock.load(Ordering::Acquire);
            if clock > i64::MIN {
                eddy.advance_to(*source, clock);
            }
        }
    }
}

/// The exchange's producer half: establishes the canonical total order,
/// hash-splits it into P partition fjords, and journals the run order
/// into the schedule fjord. See the module docs for the protocol.
pub struct PartitionDu {
    name: String,
    inputs: Vec<ExchangeInput>,
    schedule: Producer,
    floor: i64,
    deadline: i64,
    /// Ordered staging area; drained strictly FIFO so a full fjord can
    /// never reorder the canonical sequence.
    outbox: VecDeque<(Hop, FjordMessage)>,
    gauge: Arc<ExchangeGauge>,
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
        let gauge = Arc::new(ExchangeGauge {
            runs: AtomicU64::new(0),
            clocks: (inputs.iter().filter_map(|i| i.clock.as_ref()))
                .map(|(source, clock, _)| (*source, AtomicI64::new(*clock)))
                .collect(),
            parts,
        });
        PartitionDu {
            name: name.into(),
            inputs,
            schedule,
            floor,
            deadline,
            outbox: VecDeque::new(),
            gauge,
            open_run: None,
            finished: false,
            hash_computes: 0,
        }
    }

    /// Fresh key-hash computations performed while routing.
    pub fn hash_computes(&self) -> u64 {
        self.hash_computes
    }

    /// The counts a checkpoint's drain waits on.
    pub(crate) fn gauge(&self) -> Arc<ExchangeGauge> {
        Arc::clone(&self.gauge)
    }

    /// A run ended: with nothing staged, publish it and the clocks.
    fn publish(&self) {
        if !self.outbox.is_empty() {
            return;
        }
        let clocks = self.inputs.iter().filter_map(|i| i.clock.as_ref());
        for ((_, clock, _), (_, published)) in clocks.zip(&self.gauge.clocks) {
            published.store(*clock, Ordering::Release);
        }
        self.gauge.runs.fetch_add(1, Ordering::AcqRel);
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
        let p = (hash % self.gauge.parts.len() as u64) as usize;
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
                Hop::Part(p) => &self.gauge.parts[p],
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
                let t = t.reschema(self.inputs[i].alias.clone())?;
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
            for p in 0..self.gauge.parts.len() {
                self.outbox.push_back((Hop::Part(p), FjordMessage::Eof));
            }
            self.outbox.push_back((Hop::Schedule, FjordMessage::Eof));
            self.finished = true;
            did_work = true;
        }
        self.flush_outbox();
        self.publish();
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

impl Drop for PartitionDu {
    /// Finished, failed or stopped: no drain waits on this exchange again.
    fn drop(&mut self) {
        self.gauge.runs.store(u64::MAX, Ordering::Release);
    }
}

// (tests at the bottom of this file exercise the partition/merge protocol
// without workers; end-to-end coverage lives in tests/server_chaos.rs and
// tests/join_oracle.rs.)

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
    egress: Router,
    qid: QueryId,
    run_buf: Vec<Tuple>,
    current: Option<usize>,
    done: bool,
}

impl MergeDu {
    /// New merger over `outputs.len()` partitions, delivering to `egress`
    /// under query `qid`.
    pub(crate) fn new(
        name: impl Into<String>,
        schedule: Inbox,
        outputs: Vec<Inbox>,
        egress: Router,
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
        }
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

    fn run(&mut self, quantum: usize) -> Result<ModuleStatus> {
        if self.done {
            return Ok(ModuleStatus::Done);
        }
        let mut did_work = false;
        let mut budget = quantum;
        loop {
            let Some(p) = self.current else {
                match self.schedule.next(&mut budget) {
                    Some(FjordMessage::Punct(ts)) => {
                        did_work = true;
                        self.current = Some(ts.seq() as usize);
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
        let egress = Router::default();
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
