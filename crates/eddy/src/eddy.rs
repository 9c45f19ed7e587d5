//! The single-query eddy.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use tcq_common::rng::{seeded, TcqRng};
use tcq_common::{ColumnBatch, Expr, Result, SchemaRef, TcqError, Tuple};
use tcq_operators::{ColumnarVerdict, EddyModule, Routed};

use crate::lineage::{SignatureCache, SourceSet};
use crate::policy::{ModuleObservation, ModuleStats, RoutingPolicy};

/// A module registered with an eddy, plus its applicability rule.
///
/// A module applies to a tuple with signature `sig` when
/// `sig == build_exact` (a *build* visit), or when all of:
/// `required_all ⊆ sig`, `sig ∩ excluded = ∅`, and
/// `required_any = ∅ ∨ sig ∩ required_any ≠ ∅`.
pub struct ModuleSpec {
    /// The module itself.
    pub module: Box<dyn EddyModule>,
    /// Sources whose columns must all be present.
    pub required_all: SourceSet,
    /// At least one of these sources must be present (0 = no constraint).
    pub required_any: SourceSet,
    /// None of these sources may be present.
    pub excluded: SourceSet,
    /// Exact signature for which this module is the mandatory *first* visit
    /// (SteM build). `None` for non-storing modules.
    pub build_exact: Option<SourceSet>,
}

impl ModuleSpec {
    /// A filter-style module over the given sources (applies to any tuple
    /// spanning them all).
    pub fn filter(module: Box<dyn EddyModule>, required_all: SourceSet) -> Self {
        ModuleSpec {
            module,
            required_all,
            required_any: 0,
            excluded: 0,
            build_exact: None,
        }
    }

    /// A SteM-style module: stores base tuples of `stores`; probed by
    /// tuples spanning any of `probed_by` and not spanning `stores`.
    pub fn stem(module: Box<dyn EddyModule>, stores: SourceSet, probed_by: SourceSet) -> Self {
        ModuleSpec {
            module,
            required_all: 0,
            required_any: probed_by,
            excluded: stores,
            build_exact: Some(stores),
        }
    }

    fn applies(&self, sig: SourceSet) -> bool {
        if self.build_exact == Some(sig) {
            return true;
        }
        sig & self.excluded == 0
            && sig & self.required_all == self.required_all
            && (self.required_any == 0 || sig & self.required_any != 0)
    }

    fn is_build_for(&self, sig: SourceSet) -> bool {
        self.build_exact == Some(sig)
    }
}

/// Eddy configuration: the §4.3 "adapting adaptivity" knobs.
#[derive(Debug, Clone)]
pub struct EddyConfig {
    /// Tuples per routing decision ("batching tuples, by dynamically
    /// adjusting the frequency of routing decisions", §4.3). 1 = decide for
    /// every tuple (maximum adaptivity); N = the order chosen for one tuple
    /// is reused for the next N-1 tuples of the same signature.
    pub batch_size: usize,
    /// RNG seed (policies draw lotteries from this stream).
    pub seed: u64,
}

impl Default for EddyConfig {
    fn default() -> Self {
        EddyConfig {
            batch_size: 1,
            seed: 0x7E1E_64AF,
        }
    }
}

/// Aggregate counters for one eddy.
#[derive(Debug, Clone, Copy, Default)]
pub struct EddyStats {
    /// Base tuples pushed in.
    pub tuples_in: u64,
    /// Tuples emitted at the eddy output.
    pub emitted: u64,
    /// Module visits performed.
    pub visits: u64,
    /// Routing decisions made (≤ visits when batching or forced builds).
    pub decisions: u64,
}

/// One run of eddy output from [`Eddy::process_batch`]: either a batch
/// that stayed columnar through every visit, or rows (a module answered
/// [`ColumnarVerdict::Fallback`] and changed the group, or the input run
/// had no single columnar shape). Runs arrive in the order the eddy
/// emitted them.
pub enum Emitted {
    /// Row-materialized output (a module in the chain fell back).
    Rows(Vec<Tuple>),
    /// Columnar output (the whole module chain ran vectorized).
    Columns(ColumnBatch),
}

impl Emitted {
    /// Number of output tuples in this run.
    pub fn len(&self) -> usize {
        match self {
            Emitted::Rows(v) => v.len(),
            Emitted::Columns(b) => b.len(),
        }
    }

    /// True when the run carries no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This run's tuples as rows.
    pub fn into_rows(self) -> Vec<Tuple> {
        match self {
            Emitted::Rows(v) => v,
            Emitted::Columns(b) => b.to_tuples(),
        }
    }
}

/// In-flight tuples sharing one lineage signature and one visit history,
/// routed together: each module visit costs the group one routing
/// decision, one timing probe and one virtual dispatch. A group holds the
/// row mirror, the columnar mirror, or both (ingress runs keep both so
/// SteM builds can store row tuples while filters and probes stay
/// vectorized). Invariant: when both are present they describe the same
/// tuples in the same order.
struct Group {
    rows: Vec<Tuple>,
    cols: Option<ColumnBatch>,
    sig: SourceSet,
    /// Bit i set ⇔ module i visited (shared by the whole group).
    done: u64,
}

impl Group {
    fn len(&self) -> usize {
        match &self.cols {
            Some(b) => b.len(),
            None => self.rows.len(),
        }
    }

    /// Drop the columnar mirror, materializing rows first if they are the
    /// only representation left behind.
    fn materialize_rows(&mut self) {
        if let Some(b) = self.cols.take() {
            if self.rows.is_empty() {
                self.rows = b.to_tuples();
            }
        }
    }

    /// Compact both mirrors by a per-tuple survival mask.
    fn retain(&mut self, keep: &[bool]) {
        if let Some(b) = &mut self.cols {
            b.retain(keep);
        }
        if !self.rows.is_empty() {
            let mut it = keep.iter();
            self.rows.retain(|_| *it.next().unwrap());
        }
    }

    /// Append a probe's columnar output, staying columnar while this
    /// group is purely columnar over the same schema.
    fn push_columns(&mut self, b: ColumnBatch) {
        if self.len() == 0 {
            self.cols = Some(b);
            return;
        }
        match &mut self.cols {
            Some(back) if self.rows.is_empty() && Arc::ptr_eq(back.schema(), b.schema()) => {
                for row in 0..b.len() {
                    back.push_row_from(&b, row);
                }
            }
            _ => {
                self.materialize_rows();
                self.rows.extend(b.to_tuples());
            }
        }
    }
}

/// The group that new `(sig, done)` tuples join: the last queued one when
/// it has the same signature and visit history (outputs of one visit stay
/// together), else a fresh empty group.
fn tail_group(work: &mut VecDeque<Group>, sig: SourceSet, done: u64) -> &mut Group {
    if !work.back().is_some_and(|g| g.sig == sig && g.done == done) {
        work.push_back(Group {
            rows: Vec::new(),
            cols: None,
            sig,
            done,
        });
    }
    work.back_mut().expect("a tail group was just ensured")
}

/// The adaptive tuple router for one continuous query (paper §2.2).
pub struct Eddy {
    sig_cache: SignatureCache,
    modules: Vec<ModuleSpec>,
    stats: Vec<ModuleStats>,
    policy: Box<dyn RoutingPolicy>,
    rng: TcqRng,
    config: EddyConfig,
    footprint: SourceSet,
    eddy_stats: EddyStats,
    /// Batching state: per-signature recorded visit order + uses remaining.
    batch: HashMap<SourceSet, (Vec<usize>, usize)>,
    /// Scratch candidate buffer.
    candidates: Vec<usize>,
    /// Work queue of the run being routed (empty between runs).
    work: VecDeque<Group>,
    /// Scratch per-tuple results buffer for row visits.
    routed_scratch: Vec<Routed>,
    /// Scratch per-row survival mask for columnar visits.
    keep_scratch: Vec<bool>,
}

impl Eddy {
    /// Create an eddy over `sources` (qualifiers) with a routing policy.
    pub fn new(
        sources: &[impl AsRef<str>],
        policy: Box<dyn RoutingPolicy>,
        config: EddyConfig,
    ) -> Result<Self> {
        let sig_cache = SignatureCache::new(sources)?;
        let footprint = sig_cache.footprint();
        let rng = seeded(config.seed);
        Ok(Eddy {
            sig_cache,
            modules: Vec::new(),
            stats: Vec::new(),
            policy,
            rng,
            config,
            footprint,
            eddy_stats: EddyStats::default(),
            batch: HashMap::new(),
            candidates: Vec::new(),
            work: VecDeque::new(),
            routed_scratch: Vec::new(),
            keep_scratch: Vec::new(),
        })
    }

    /// Register a module; at most 64 per eddy (done-sets are one word).
    pub fn add_module(&mut self, spec: ModuleSpec) -> Result<usize> {
        if self.modules.len() >= 64 {
            return Err(TcqError::Capacity(
                "an eddy supports at most 64 modules".into(),
            ));
        }
        self.modules.push(spec);
        self.stats.push(ModuleStats::default());
        Ok(self.modules.len() - 1)
    }

    /// The bit for a source qualifier (for building [`ModuleSpec`]s).
    pub fn source_bit(&self, source: &str) -> Result<SourceSet> {
        self.sig_cache.bit_of(source)
    }

    /// Route base tuples to completion, appending everything emitted at
    /// the eddy output (tuples spanning the full query footprint that have
    /// visited every applicable module) to `out`. This is the eddy's one
    /// routing entry point; route a single tuple as `vec![t]`.
    ///
    /// **Run rule.** The input splits into maximal runs of one lineage
    /// signature, and each run is routed — together with every tuple it
    /// derives — to completion before the next run enters. A run's
    /// descendants never probe its own source's SteM, so routing a run
    /// whole gives the same results as routing its tuples one at a time,
    /// and across runs the order is exactly the per-tuple order.
    ///
    /// Each run pays **one** routing decision, one timing probe and one
    /// virtual dispatch per module visit. It is converted to a
    /// [`ColumnBatch`] once, here at the ingress edge (prehashing the
    /// join-key column when the applicable SteMs agree on one), and
    /// modules with a columnar implementation process whole columns. A
    /// [`ColumnarVerdict::Fallback`] runs that visit on rows; if the visit
    /// passes every row untouched the columnar mirror stays alive,
    /// otherwise the group continues row-shaped. The §4.3 batching counter
    /// is charged per tuple, so `EddyConfig::batch_size` keeps governing
    /// how long a recorded visit order stays frozen.
    pub fn process_batch(&mut self, mut tuples: Vec<Tuple>, out: &mut Vec<Emitted>) -> Result<()> {
        self.eddy_stats.tuples_in += tuples.len() as u64;
        while let Some(first) = tuples.first() {
            let sig = self.sig_cache.signature(first.schema())?;
            let mut len = 1;
            while len < tuples.len() && self.sig_cache.signature(tuples[len].schema())? == sig {
                len += 1;
            }
            // The last (usually the only) run keeps the caller's buffer.
            let run = if len == tuples.len() {
                std::mem::take(&mut tuples)
            } else {
                tuples.drain(..len).collect()
            };
            self.route_run(run, sig, out)?;
        }
        Ok(())
    }

    /// Route one ingress run and everything it derives to completion.
    fn route_run(
        &mut self,
        rows: Vec<Tuple>,
        sig: SourceSet,
        out: &mut Vec<Emitted>,
    ) -> Result<()> {
        let cols = self.ingress_columns(&rows, sig);
        let mut work = std::mem::take(&mut self.work);
        work.push_back(Group {
            rows,
            cols,
            sig,
            done: 0,
        });
        while let Some(group) = work.pop_front() {
            self.route_group(group, &mut work, out)?;
        }
        self.work = work;
        Ok(())
    }

    /// Route one group until it is emitted, filtered away or consumed;
    /// tuples it produces join `work` with its visit history.
    fn route_group(
        &mut self,
        mut group: Group,
        work: &mut VecDeque<Group>,
        out: &mut Vec<Emitted>,
    ) -> Result<()> {
        // §4.3 batching: count tuples against the signature's recorded
        // order; after batch_size tuples, expire it so the policy decides
        // afresh.
        if self.config.batch_size > 1 {
            let n = group.len();
            let entry = self.batch.entry(group.sig).or_insert((Vec::new(), 0));
            entry.1 += n;
            if entry.1 > self.config.batch_size {
                entry.0.clear();
                entry.1 = n;
            }
        }
        loop {
            let Some(next) = self.next_visit(group.sig, group.done) else {
                if group.sig == self.footprint {
                    self.eddy_stats.emitted += group.len() as u64;
                    out.push(match group.cols {
                        Some(b) => Emitted::Columns(b),
                        None => Emitted::Rows(group.rows),
                    });
                }
                return Ok(());
            };
            group.done |= 1 << next;
            let n = group.len();
            let start = Instant::now();
            let verdict = match &group.cols {
                Some(batch) => {
                    let rows = (!group.rows.is_empty()).then_some(group.rows.as_slice());
                    self.keep_scratch.clear();
                    self.modules[next].module.process_columnar(
                        batch,
                        rows,
                        &mut self.keep_scratch,
                    )?
                }
                None => ColumnarVerdict::Fallback,
            };
            match verdict {
                ColumnarVerdict::KeepAll => {
                    self.record_visit(next, start, (0..n).map(|_| (true, 0)));
                }
                ColumnarVerdict::Filtered => {
                    let keep = std::mem::take(&mut self.keep_scratch);
                    self.record_visit(next, start, keep.iter().map(|&k| (k, 0)));
                    group.retain(&keep);
                    self.keep_scratch = keep;
                }
                ColumnarVerdict::Consumed(batch) => {
                    // The batch folds per-row fanout into one result;
                    // spread it evenly over the observations — the same
                    // totals as the row arm's exact per-tuple counts.
                    let (base, rem) = (batch.len() / n, batch.len() % n);
                    let spread = (0..n).map(|i| (false, base + usize::from(i < rem)));
                    self.record_visit(next, start, spread);
                    if !batch.is_empty() {
                        let sig = self.sig_cache.signature(batch.schema())?;
                        tail_group(work, sig, group.done).push_columns(batch);
                    }
                    return Ok(());
                }
                ColumnarVerdict::Fallback => {
                    if group.rows.is_empty() {
                        if let Some(b) = &group.cols {
                            group.rows = b.to_tuples();
                        }
                    }
                    let mut routed = std::mem::take(&mut self.routed_scratch);
                    self.modules[next]
                        .module
                        .process_batch(&group.rows, &mut routed)?;
                    self.record_visit(
                        next,
                        start,
                        routed.iter().map(|r| (r.keep, r.outputs.len())),
                    );
                    // A pass-through visit leaves both mirrors valid.
                    // Otherwise survivors stay grouped, row-shaped, and
                    // outputs regroup by their own signature.
                    if !routed.iter().all(|r| r.keep && r.outputs.is_empty()) {
                        group.cols = None;
                        let visited = std::mem::take(&mut group.rows);
                        for (t, r) in visited.into_iter().zip(routed.iter_mut()) {
                            if r.keep {
                                group.rows.push(t);
                            }
                            for o in std::mem::take(&mut r.outputs) {
                                let sig = self.sig_cache.signature(o.schema())?;
                                let tail = tail_group(work, sig, group.done);
                                tail.materialize_rows();
                                tail.rows.push(o);
                            }
                        }
                    }
                    routed.clear();
                    self.routed_scratch = routed;
                }
            }
            if group.len() == 0 {
                return Ok(());
            }
        }
    }

    /// Charge one module visit by a group: the module's stats, the eddy's
    /// visit count, and one policy observation per tuple, given as
    /// `(kept, produced)`. Every verdict arm reports here, so routing
    /// feedback is written in exactly one place.
    fn record_visit(
        &mut self,
        module: usize,
        start: Instant,
        per_tuple: impl ExactSizeIterator<Item = (bool, usize)>,
    ) {
        let nanos = start.elapsed().as_nanos() as u64;
        let n = per_tuple.len() as u64;
        self.eddy_stats.visits += n;
        let st = &mut self.stats[module];
        st.routed += n;
        st.nanos += nanos;
        for (kept, produced) in per_tuple {
            st.kept += u64::from(kept);
            st.produced += produced as u64;
            self.policy.observe(ModuleObservation {
                module,
                kept,
                produced,
                nanos: nanos / n.max(1),
            });
        }
    }

    /// The columnar mirror for an ingress run: one conversion per run,
    /// prehashing the key column every applicable SteM agrees on so
    /// builds and probes alike find their key hashes memoized (each key
    /// hashed exactly once per tuple, at the edge).
    fn ingress_columns(&mut self, rows: &[Tuple], sig: SourceSet) -> Option<ColumnBatch> {
        let schema = rows.first()?.schema().clone();
        if rows.iter().any(|t| !Arc::ptr_eq(t.schema(), &schema)) {
            // A mixed-schema run (same signature, different column order)
            // has no single columnar shape: stay row-shaped.
            return None;
        }
        let mut hints = self
            .modules
            .iter_mut()
            .filter(|spec| spec.applies(sig))
            .filter_map(|spec| spec.module.key_column_hint(&schema));
        let key_col = hints.next().filter(|&h| hints.all(|col| col == h));
        Some(ColumnBatch::from_tuples(schema, rows, key_col))
    }

    /// The next module for a group of signature `sig` that has visited
    /// `done`: its pending SteM build (mandatory and first, outside the
    /// policy's purview), else one routing decision among the unvisited
    /// applicable modules; `None` once routing is complete.
    fn next_visit(&mut self, sig: SourceSet, done: u64) -> Option<usize> {
        let unvisited = |i: usize| done & (1 << i) == 0;
        if let Some(b) =
            (0..self.modules.len()).find(|&i| unvisited(i) && self.modules[i].is_build_for(sig))
        {
            return Some(b);
        }
        self.candidates.clear();
        for (i, spec) in self.modules.iter().enumerate() {
            if unvisited(i) && spec.applies(sig) {
                self.candidates.push(i);
            }
        }
        if self.candidates.is_empty() {
            return None;
        }
        Some(self.choose(sig))
    }

    /// One routing decision, honouring the batching knob: within a batch,
    /// the order recorded for the batch's first tuple is replayed; only
    /// when the recording has no applicable module is the policy consulted
    /// (extending the recording).
    fn choose(&mut self, sig: SourceSet) -> usize {
        if self.config.batch_size > 1 {
            if let Some((order, _)) = self.batch.get(&sig) {
                if let Some(&m) = order.iter().find(|&&m| self.candidates.contains(&m)) {
                    return m;
                }
            }
        }
        self.eddy_stats.decisions += 1;
        let m = self
            .policy
            .choose(&self.candidates, &self.stats, &mut self.rng);
        if self.config.batch_size > 1 {
            let entry = self.batch.entry(sig).or_insert((Vec::new(), 1));
            if !entry.0.contains(&m) {
                entry.0.push(m);
            }
        }
        m
    }

    /// The modules that store base tuples of `source`.
    fn storing(&mut self, source: SourceSet) -> impl Iterator<Item = &mut ModuleSpec> {
        (self.modules.iter_mut()).filter(move |spec| spec.build_exact == Some(source))
    }

    /// Drop every module that stores nothing (the filters), keeping the
    /// SteMs and their indices: a planner registers those first.
    pub fn remove_filters(&mut self) {
        let stems = (self.modules.iter())
            .take_while(|spec| spec.build_exact.is_some())
            .count();
        debug_assert!(self.modules[stems..]
            .iter()
            .all(|s| s.build_exact.is_none()));
        self.modules.truncate(stems);
        self.stats.truncate(stems);
        self.batch.clear();
    }

    /// Stream time on `source` reached `seq` outside this eddy's own
    /// builds: every module storing `source` slides its window there.
    pub fn advance_to(&mut self, source: SourceSet, seq: i64) {
        for spec in self.storing(source) {
            spec.module.advance_to(seq);
        }
    }

    /// Replace the build filter of every module storing `source`.
    pub fn set_build_predicate(&mut self, source: SourceSet, pred: Option<&Expr>) -> Result<()> {
        for spec in self.storing(source) {
            spec.module.set_build_predicate(pred)?;
        }
        Ok(())
    }

    /// Start or stop recording each probe output's stored-row time in
    /// every module ([`EddyModule::record_match_seqs`]).
    pub fn record_match_seqs(&mut self, on: bool) {
        for spec in &mut self.modules {
            spec.module.record_match_seqs(on);
        }
    }

    /// Move the recorded stored-row times onto `out`, module by module. In
    /// a two-source eddy a run of one source probes one module, so after
    /// routing such a run they line up with its outputs.
    pub fn drain_match_seqs(&mut self, out: &mut Vec<i64>) {
        for spec in &mut self.modules {
            spec.module.drain_match_seqs(out);
        }
    }

    /// Eddy-level counters.
    pub fn stats(&self) -> EddyStats {
        self.eddy_stats
    }

    /// Per-module observed statistics.
    pub fn module_stats(&self) -> &[ModuleStats] {
        &self.stats
    }

    /// Total retained state across modules, in tuples.
    pub fn state_size(&self) -> usize {
        self.modules.iter().map(|m| m.module.state_size()).sum()
    }

    /// Approximate heap bytes of that state.
    pub fn state_bytes(&self) -> usize {
        self.modules.iter().map(|m| m.module.state_bytes()).sum()
    }

    /// Checkpoint export: for every module with dirty state groups,
    /// append `(module_index, group_hash, encoded_group)` fragments.
    /// Module indices are stable across a query resubmission (modules are
    /// registered in plan order), which is what lets a restored server
    /// route fragments back. Dirt is NOT cleared here — call
    /// [`Eddy::clear_dirty`] after the delta commits durably.
    pub fn export_dirty_state(&mut self, out: &mut Vec<(usize, u64, Vec<u8>)>) -> Result<()> {
        let mut scratch = Vec::new();
        for (idx, spec) in self.modules.iter_mut().enumerate() {
            scratch.clear();
            spec.module.export_dirty_groups(&mut scratch)?;
            for (hash, bytes) in scratch.drain(..) {
                out.push((idx, hash, bytes));
            }
        }
        Ok(())
    }

    /// Checkpoint restore: hand one encoded group back to the module it
    /// was exported from.
    pub fn import_module_group(&mut self, module: usize, hash: u64, bytes: &[u8]) -> Result<()> {
        let n = self.modules.len();
        let spec = self.modules.get_mut(module).ok_or_else(|| {
            TcqError::Executor(format!("checkpoint names module {module}, eddy has {n}"))
        })?;
        spec.module.import_group(hash, bytes)
    }

    /// Total dirty state groups across modules (pending checkpoint).
    pub fn dirty_len(&self) -> usize {
        self.modules.iter().map(|m| m.module.dirty_len()).sum()
    }

    /// Mark all module state clean — only after a successful durable
    /// commit of the exported delta.
    pub fn clear_dirty(&mut self) {
        for spec in &mut self.modules {
            spec.module.clear_dirty();
        }
    }

    /// Signature of a schema under this eddy's source mapping.
    pub fn signature(&mut self, schema: &SchemaRef) -> Result<SourceSet> {
        self.sig_cache.signature(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, GreedyPolicy, LotteryPolicy, RandomPolicy};
    use tcq_common::{CmpOp, DataType, Expr, Field, Schema, Timestamp, TupleBuilder};
    use tcq_operators::{symmetric_hash_join, SelectOp};

    fn s_schema(q: &str) -> SchemaRef {
        Schema::qualified(
            q,
            vec![
                Field::new("k", DataType::Int),
                Field::new("x", DataType::Int),
            ],
        )
        .into_ref()
    }

    fn row(schema: &SchemaRef, k: i64, x: i64, ts: i64) -> Tuple {
        TupleBuilder::new(schema.clone())
            .push(k)
            .push(x)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    /// Route one tuple; the rows it emits.
    fn route(eddy: &mut Eddy, tuple: Tuple) -> Vec<Tuple> {
        let mut out = Vec::new();
        eddy.process_batch(vec![tuple], &mut out).unwrap();
        out.into_iter().flat_map(Emitted::into_rows).collect()
    }

    fn filter_eddy(policy: Box<dyn RoutingPolicy>) -> (Eddy, SchemaRef) {
        let schema = s_schema("S");
        let mut eddy = Eddy::new(&["S"], policy, EddyConfig::default()).unwrap();
        let s_bit = eddy.source_bit("S").unwrap();
        // two commutative filters: x % 2 == 0 is not expressible, use ranges
        let f1 = SelectOp::new(
            "x>=50",
            &Expr::col("x").cmp(CmpOp::Ge, Expr::lit(50i64)),
            &schema,
        )
        .unwrap();
        let f2 = SelectOp::new(
            "x<75",
            &Expr::col("x").cmp(CmpOp::Lt, Expr::lit(75i64)),
            &schema,
        )
        .unwrap();
        eddy.add_module(ModuleSpec::filter(Box::new(f1), s_bit))
            .unwrap();
        eddy.add_module(ModuleSpec::filter(Box::new(f2), s_bit))
            .unwrap();
        (eddy, schema)
    }

    #[test]
    fn filters_conjoin_regardless_of_policy() {
        for policy in [
            Box::new(FixedPolicy::new(vec![0, 1])) as Box<dyn RoutingPolicy>,
            Box::new(RandomPolicy),
            Box::new(LotteryPolicy::new()),
            Box::new(GreedyPolicy::new()),
        ] {
            let (mut eddy, schema) = filter_eddy(policy);
            let mut emitted = Vec::new();
            for x in 0..100 {
                emitted.extend(route(&mut eddy, row(&schema, x, x, x)));
            }
            let xs: Vec<i64> = emitted
                .iter()
                .map(|t| t.value(1).as_int().unwrap())
                .collect();
            assert_eq!(
                xs,
                (50..75).collect::<Vec<i64>>(),
                "policy changed semantics"
            );
        }
    }

    #[test]
    fn lottery_converges_to_selective_filter_first() {
        // f1 (x>=50) passes 50%, f2 (x<75) passes 75% on uniform 0..100.
        // After warm-up, lottery should route most tuples to f1 first, so
        // f1.routed >> f2.routed (f2 sees only survivors of f1 most times).
        let (mut eddy, schema) = filter_eddy(Box::new(LotteryPolicy::new().with_explore(0.02)));
        for i in 0..20_000i64 {
            let x = i % 100;
            route(&mut eddy, row(&schema, x, x, i));
        }
        let st = eddy.module_stats();
        // If routed first always: f1.routed = 20k, f2.routed ≈ 10k.
        // If random: both ≈ 15k. Require clear preference.
        assert!(
            st[0].routed as f64 > st[1].routed as f64 * 1.25,
            "lottery failed to prefer selective filter: {:?}",
            (st[0].routed, st[1].routed)
        );
    }

    #[test]
    fn eddy_join_matches_reference() {
        let s = s_schema("S");
        let t = s_schema("T");
        let mut eddy = Eddy::new(
            &["S", "T"],
            Box::new(LotteryPolicy::new()),
            EddyConfig::default(),
        )
        .unwrap();
        let (s_bit, t_bit) = (eddy.source_bit("S").unwrap(), eddy.source_bit("T").unwrap());
        let (stem_s, stem_t) = symmetric_hash_join(&s, "S", "k", &t, "T", "k").unwrap();
        eddy.add_module(ModuleSpec::stem(Box::new(stem_s), s_bit, t_bit))
            .unwrap();
        eddy.add_module(ModuleSpec::stem(Box::new(stem_t), t_bit, s_bit))
            .unwrap();
        // filter on S side: S.x > 5
        let f = SelectOp::new(
            "S.x>5",
            &Expr::qcol("S", "x").cmp(CmpOp::Gt, Expr::lit(5i64)),
            &s,
        )
        .unwrap();
        eddy.add_module(ModuleSpec::filter(Box::new(f), s_bit))
            .unwrap();

        let mut rng = tcq_common::rng::seeded(99);
        let mut s_rows = Vec::new();
        let mut t_rows = Vec::new();
        let mut emitted = Vec::new();
        for i in 0..400i64 {
            let k = rng.gen_range(0..20i64);
            let x = rng.gen_range(0..10i64);
            if rng.gen_bool(0.5) {
                let r = row(&s, k, x, i);
                s_rows.push(r.clone());
                emitted.extend(route(&mut eddy, r));
            } else {
                let r = row(&t, k, x, i);
                t_rows.push(r.clone());
                emitted.extend(route(&mut eddy, r));
            }
        }
        // Reference: nested loop join with filter.
        let mut expected = 0usize;
        for sr in &s_rows {
            for tr in &t_rows {
                if sr.value(0) == tr.value(0) && sr.value(1).as_int().unwrap() > 5 {
                    expected += 1;
                }
            }
        }
        assert_eq!(emitted.len(), expected);
        for e in &emitted {
            assert_eq!(e.arity(), 4);
            assert_eq!(
                e.get(Some("S"), "k").unwrap(),
                e.get(Some("T"), "k").unwrap()
            );
            assert!(e.get(Some("S"), "x").unwrap().as_int().unwrap() > 5);
        }
    }

    #[test]
    fn batching_reduces_decisions() {
        let mk = |batch| {
            let (mut eddy, schema) = {
                let schema = s_schema("S");
                let mut eddy = Eddy::new(
                    &["S"],
                    Box::new(LotteryPolicy::new()),
                    EddyConfig {
                        batch_size: batch,
                        seed: 42,
                    },
                )
                .unwrap();
                let s_bit = eddy.source_bit("S").unwrap();
                for (name, op, c) in [
                    ("f1", CmpOp::Ge, 50i64),
                    ("f2", CmpOp::Lt, 75i64),
                    ("f3", CmpOp::Ne, 60i64),
                ] {
                    let f = SelectOp::new(name, &Expr::col("x").cmp(op, Expr::lit(c)), &schema)
                        .unwrap();
                    eddy.add_module(ModuleSpec::filter(Box::new(f), s_bit))
                        .unwrap();
                }
                (eddy, schema)
            };
            for i in 0..5_000i64 {
                route(&mut eddy, row(&schema, i, i % 100, i));
            }
            eddy.stats()
        };
        let unbatched = mk(1);
        let batched = mk(64);
        assert!(
            batched.decisions * 4 < unbatched.decisions,
            "batching should slash decision count: {} vs {}",
            batched.decisions,
            unbatched.decisions
        );
        // Semantics unchanged: same number of emissions.
        assert_eq!(batched.emitted, unbatched.emitted);
    }

    #[test]
    fn base_tuples_never_emitted_for_join_footprint() {
        let s = s_schema("S");
        let t = s_schema("T");
        let mut eddy =
            Eddy::new(&["S", "T"], Box::new(RandomPolicy), EddyConfig::default()).unwrap();
        let (sb, tb) = (eddy.source_bit("S").unwrap(), eddy.source_bit("T").unwrap());
        let (stem_s, stem_t) = symmetric_hash_join(&s, "S", "k", &t, "T", "k").unwrap();
        eddy.add_module(ModuleSpec::stem(Box::new(stem_s), sb, tb))
            .unwrap();
        eddy.add_module(ModuleSpec::stem(Box::new(stem_t), tb, sb))
            .unwrap();
        // No matching partner: nothing emitted, though tuples completed.
        assert!(route(&mut eddy, row(&s, 1, 0, 1)).is_empty());
        assert!(route(&mut eddy, row(&t, 2, 0, 2)).is_empty());
        assert_eq!(eddy.stats().emitted, 0);
        assert_eq!(eddy.stats().tuples_in, 2);
    }

    #[test]
    fn checkpointed_eddy_state_restores_join_results() {
        let s = s_schema("S");
        let t = s_schema("T");
        let build = || {
            let mut eddy = Eddy::new(
                &["S", "T"],
                Box::new(FixedPolicy::new(vec![0, 1])),
                EddyConfig::default(),
            )
            .unwrap();
            let (sb, tb) = (eddy.source_bit("S").unwrap(), eddy.source_bit("T").unwrap());
            let (stem_s, stem_t) = symmetric_hash_join(&s, "S", "k", &t, "T", "k").unwrap();
            eddy.add_module(ModuleSpec::stem(Box::new(stem_s), sb, tb))
                .unwrap();
            eddy.add_module(ModuleSpec::stem(Box::new(stem_t), tb, sb))
                .unwrap();
            eddy
        };
        let mut live = build();
        for i in 0..10 {
            route(&mut live, row(&s, i % 3, i, i));
        }
        assert!(live.dirty_len() > 0);
        let mut delta = Vec::new();
        live.export_dirty_state(&mut delta).unwrap();
        live.clear_dirty();
        assert_eq!(live.dirty_len(), 0);

        let mut restored = build();
        for (m, h, bytes) in &delta {
            restored.import_module_group(*m, *h, bytes).unwrap();
        }
        assert_eq!(restored.state_size(), live.state_size());
        for k in 0..3 {
            let a = route(&mut live, row(&t, k, 0, 20 + k));
            let b = route(&mut restored, row(&t, k, 0, 20 + k));
            assert_eq!(a.len(), b.len(), "restored join diverged at k={k}");
        }
        // Fragments aimed at a module the eddy lacks are loud errors.
        assert!(restored.import_module_group(9, 1, &[]).is_err());
    }

    /// A clock carried in for S slides S's window and only S's: the T
    /// rows stay although they are older than the new edge.
    #[test]
    fn advancing_a_source_clock_slides_only_that_sources_window() {
        let s = s_schema("S");
        let t = s_schema("T");
        let mut eddy =
            Eddy::new(&["S", "T"], Box::new(RandomPolicy), EddyConfig::default()).unwrap();
        let (sb, tb) = (eddy.source_bit("S").unwrap(), eddy.source_bit("T").unwrap());
        let (stem_s, stem_t) = symmetric_hash_join(&s, "S", "k", &t, "T", "k").unwrap();
        eddy.add_module(ModuleSpec::stem(
            Box::new(stem_s.with_window_width(10)),
            sb,
            tb,
        ))
        .unwrap();
        eddy.add_module(ModuleSpec::stem(
            Box::new(stem_t.with_window_width(10)),
            tb,
            sb,
        ))
        .unwrap();
        for i in 0..10 {
            route(&mut eddy, row(&s, i, 0, i));
        }
        route(&mut eddy, row(&t, 20, 0, 1));
        assert_eq!(eddy.state_size(), 11);
        eddy.advance_to(sb, 14);
        assert_eq!(eddy.state_size(), 6, "S keeps [5, 14], T its one row");
        // A T tuple joining key 3 finds nothing (evicted), key 7 matches.
        assert!(route(&mut eddy, row(&t, 3, 0, 2)).is_empty());
        assert_eq!(route(&mut eddy, row(&t, 7, 0, 3)).len(), 1);
    }
}
