//! Query plans: the §4.2.2 execution modes.
//!
//! * `PlanSet` — a stream's single-stream plans, which its
//!   dispatcher runs over each batch it drains ("the arrival of data
//!   initiates access to a stored collection of queries", §1.1):
//!   - the "shared 'continuous query' mode": ALL selection queries over
//!     the stream share one CACQ [`QueryStem`] pass per tuple and one
//!     projection per distinct select list;
//!   - each aggregate query's window driver: it folds each row into
//!     partial aggregates per pane of the §4.1 for-loop, closes each
//!     window as stream time passes it, and emits one result set per
//!     window from the partials of the panes it covers.
//! * [`crate::join`] — "single-Eddy query plan with Fjord-style
//!   operators", the join DUs.
//!
//! Plans that read one stream need no queue and no DU of their own: the
//! dispatcher's footprint class would pin such a DU to its own EO thread
//! anyway. Either way a drained batch's results reach egress in one
//! delivery — one router lock per batch, the ledger still charged per row.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tcq_common::{
    hash_table_bytes, CkptReader, CkptWriter, DataType, Expr, Field, Predicate, Result, Schema,
    SchemaRef, Timestamp, Tuple, Value,
};
use tcq_egress::DeliverySession;

use tcq_operators::{AggFunc, AggSpec, AggState, ProjectOp};
use tcq_stems::{MatchScratch, PreparedQuery, QueryStem};
use tcq_windows::{Panes, WindowInstance, WindowSeq, WindowSeqPos};

use crate::control::Reply;
use crate::server::{QueryRecord, Router};

/// Query identifier (server-wide).
pub type QueryId = usize;

/// A query's select list: each item and its alias.
pub(crate) type SelectList = Vec<(Expr, Option<String>)>;

// ----------------------------------------------------------- stream plans

/// A select list as an intern key, compared by value with
/// [`Expr::identical_unqualified`]: qualifiers do not count, since a filter
/// query reads one stream whatever it calls it. Type-exact, because
/// `Value`'s `==` equates `Int(1)` with `Float(1.0)` while `seq + 1`
/// projects an INT and `seq + 1.0` a FLOAT; aliases count, because they
/// name the output column; and never an allocation address, which a freed
/// projection could pass on to the next one. It is the select list itself
/// (unsized), so a query's projection probes the intern set as it stands.
#[repr(transparent)]
struct ProjectionKey([(Expr, Option<String>)]);

impl ProjectionKey {
    fn new(items: &[(Expr, Option<String>)]) -> &ProjectionKey {
        // SAFETY: `ProjectionKey` is a `repr(transparent)` wrapper around
        // the slice, so the two references have the same layout.
        unsafe { &*(items as *const [(Expr, Option<String>)] as *const ProjectionKey) }
    }
}

impl PartialEq for ProjectionKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && (self.0.iter().zip(other.0.iter())).all(|((a, a_alias), (b, b_alias))| {
                a_alias == b_alias && a.identical_unqualified(b)
            })
    }
}

impl Eq for ProjectionKey {}

impl Hash for ProjectionKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for (expr, alias) in self.0.iter() {
            expr.hash_identical_unqualified(state);
            alias.hash(state);
        }
    }
}

/// One bound projection, shared by every standing query whose select list
/// has its key. It hashes and compares as that key, so the intern set is
/// probed with a bare [`ProjectionKey`].
struct SharedProjection {
    /// The select list of the first query that stood with it.
    key: SelectList,
    op: ProjectOp,
    /// Its index in [`FilterPass::projected`], reused once it is freed.
    slot: usize,
}

impl SharedProjection {
    /// Approximate heap footprint, the `Arc` header included.
    fn approx_bytes(&self) -> usize {
        let aliases: usize = (self.key.iter())
            .map(|(_, alias)| alias.as_ref().map_or(0, String::len))
            .sum();
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<Self>()
            + self.key.capacity() * std::mem::size_of::<(Expr, Option<String>)>()
            + aliases
            + self.op.approx_bytes()
    }
}

impl PartialEq for SharedProjection {
    fn eq(&self, other: &Self) -> bool {
        ProjectionKey::new(&self.key) == ProjectionKey::new(&other.key)
    }
}

impl Eq for SharedProjection {}

impl Hash for SharedProjection {
    fn hash<H: Hasher>(&self, state: &mut H) {
        ProjectionKey::new(&self.key).hash(state);
    }
}

impl Borrow<ProjectionKey> for Arc<SharedProjection> {
    fn borrow(&self) -> &ProjectionKey {
        ProjectionKey::new(&self.key)
    }
}

/// What a standing filter query carries in its `QueryStem` entry.
/// Queries that share their factors, projection and floor share one copy.
struct StandingFilter {
    project: Arc<SharedProjection>,
    /// Lower bound on logical time: the earliest left edge of the query's
    /// window sequence. Tuples older than it are outside every window and
    /// must not be delivered (paper example 2: the landmark query over
    /// `[101, t]` never matches days 1–100).
    min_seq: i64,
}

/// By projection address: equal select lists share one interned
/// projection, and a stem entry holding it keeps it alive, so its address
/// cannot pass on to another projection while the entry is compared.
impl PartialEq for StandingFilter {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.project, &other.project) && self.min_seq == other.min_seq
    }
}

impl Eq for StandingFilter {}

impl Hash for StandingFilter {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Arc::as_ptr(&self.project).hash(state);
        self.min_seq.hash(state);
    }
}

/// The stream's filter queries: one `QueryStem` pass per row for all of
/// them.
struct FilterPass {
    /// The one per-query table: each query's entry carries its projection
    /// and time floor.
    qstem: QueryStem<StandingFilter>,
    /// Reused probe state, so the per-tuple matching pass allocates
    /// nothing.
    scratch: MatchScratch,
    /// Every distinct projection among the standing queries; each leaves
    /// with its last query.
    projections: HashSet<Arc<SharedProjection>>,
    /// Per projection slot, the row it last projected (a count of rows
    /// seen) and that output: a projection runs once per row however many
    /// of the row's queries share it. Slots are reused, so this is sized by
    /// the most projections ever standing at once.
    projected: Vec<(u64, Option<Tuple>)>,
    free_slots: Vec<usize>,
    rows: u64,
}

impl FilterPass {
    fn new(schema: SchemaRef) -> Self {
        FilterPass {
            qstem: QueryStem::with_payloads(schema),
            scratch: MatchScratch::new(),
            projections: HashSet::new(),
            projected: Vec::new(),
            free_slots: Vec::new(),
            rows: 0,
        }
    }

    fn add(
        &mut self,
        id: QueryId,
        query: PreparedQuery,
        projection: SelectList,
        view: &SchemaRef,
        min_seq: i64,
    ) -> Result<()> {
        let project = match self.projections.get(ProjectionKey::new(&projection)) {
            Some(shared) => {
                // The shared projection was bound once; this query's names
                // for its columns must still resolve against its view.
                for (e, _) in &projection {
                    e.check_columns(view)?;
                }
                Arc::clone(shared)
            }
            None => {
                let op = ProjectOp::new(&projection, view)?;
                let slot = (self.free_slots.last().copied()).unwrap_or(self.projected.len());
                let key = projection;
                Arc::new(SharedProjection { key, op, slot })
            }
        };
        let fresh = Arc::strong_count(&project) == 1;
        let payload = StandingFilter {
            project: Arc::clone(&project),
            min_seq,
        };
        self.qstem.insert_prepared(id, query, payload)?;
        if fresh {
            if self.free_slots.pop().is_none() {
                self.projected.push((0, None));
            }
            self.projections.insert(project);
        }
        Ok(())
    }

    fn remove(&mut self, id: QueryId) -> Result<()> {
        let project = (self.qstem.payload(id)).map(|q| Arc::clone(&q.project));
        self.qstem.remove_query(id)?;
        // The set holds one reference and `project` the other: this was
        // the projection's last query.
        if let Some(gone) = project.filter(|p| Arc::strong_count(p) == 2) {
            self.projections.remove(ProjectionKey::new(&gone.key));
            self.projected[gone.slot] = (0, None);
            self.free_slots.push(gone.slot);
        }
        if self.qstem.is_empty() {
            *self = FilterPass::new(self.qstem.schema().clone());
        }
        Ok(())
    }

    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.qstem.approx_bytes()
            + self.scratch.approx_bytes()
            + hash_table_bytes(
                self.projections.capacity(),
                size_of::<Arc<SharedProjection>>(),
            )
            + (self.projections.iter())
                .map(|p| p.approx_bytes())
                .sum::<usize>()
            + self.projected.capacity() * size_of::<(u64, Option<Tuple>)>()
            + self.free_slots.capacity() * size_of::<usize>()
    }

    /// Probe each row, in order, and hand each matching query (ascending
    /// ids) its projection's one output for the row. A query whose
    /// predicate or projection cannot be evaluated on a row (an integer
    /// division by zero, say) misses that row alone; each such miss is
    /// counted in `errors`.
    fn run<'a>(
        &mut self,
        batch: &[Tuple],
        egress: &'a Router,
        session: &mut Option<DeliverySession<'a, QueryRecord>>,
        errors: &mut u64,
    ) {
        let FilterPass {
            qstem,
            scratch,
            projected,
            rows,
            ..
        } = self;
        for t in batch {
            let seq = t.timestamp().seq();
            *rows += 1;
            // The matches are exact even when some candidate failed.
            let _ = qstem.visit_matches(t, scratch, |qid, q, matched| {
                if seq < q.min_seq {
                    return;
                }
                if !matched {
                    *errors += 1;
                    return;
                }
                let (row, out) = &mut projected[q.project.slot];
                if *row != *rows {
                    *out = q.project.op.apply(t).ok();
                    *row = *rows;
                }
                match out {
                    Some(out) => (session.get_or_insert_with(|| egress.session()))
                        .deliver_rows([qid], std::slice::from_ref(out)),
                    None => *errors += 1,
                }
            });
        }
    }
}

/// What a stream's plans report ([`PlanControl::Read`]).
#[derive(Debug, Default)]
pub(crate) struct PlanStats {
    /// Standing filter queries.
    pub(crate) filters: usize,
    /// Approximate heap footprint of the filter pass: the shared query
    /// index (the one per-query table), its probe scratch and the interned
    /// projections.
    pub(crate) filter_bytes: usize,
    /// Each aggregate's partials, one per (pane, group), in submit order.
    pub(crate) entries: Vec<(QueryId, usize)>,
}

/// A control for a stream's plans, applied by its dispatcher
/// ([`crate::control`]).
pub(crate) enum PlanControl {
    /// Stand filter query `qid`: its WHERE factors, prepared on the
    /// submitting thread, and `projection`, checked there against `view`
    /// (the stream's layout under the query's name for it), over rows from
    /// logical time `min_seq` on.
    AddFilter {
        qid: QueryId,
        query: PreparedQuery,
        projection: SelectList,
        view: SchemaRef,
        min_seq: i64,
    },
    /// Stand aggregate query `qid`, driven by its window driver.
    AddAggregate(QueryId, Box<AggCore>),
    /// Take query `qid` out.
    Remove(QueryId),
    /// Answer with the set's [`PlanStats`].
    Read(Reply<PlanStats>),
    /// Encode every aggregate changed since its last export, in submit
    /// order, and mark it clean.
    Export(Reply<Vec<(QueryId, Vec<u8>)>>),
}

/// A stream's single-stream plans: every filter query on it, sharing one
/// CACQ pass, and every aggregate's window driver. The stream's dispatcher
/// owns the set: it applies the server's controls to it and runs it over
/// each batch of fresh tuples it drains, before fanning the batch out to
/// the plans that read two streams.
pub(crate) struct PlanSet {
    filters: FilterPass,
    /// Each aggregate's window driver, in submit order.
    aggregates: Vec<(QueryId, AggCore)>,
    /// Query errors so far: rows a filter query missed because its
    /// predicate or projection failed on them, and aggregates retired
    /// because they failed on a row. Shared with the server, so the count
    /// outlives the dispatcher.
    errors: Arc<AtomicU64>,
    egress: Router,
}

impl PlanSet {
    /// An empty set over a stream's schema, delivering through `egress`.
    pub(crate) fn new(schema: SchemaRef, egress: Router) -> Self {
        PlanSet {
            filters: FilterPass::new(schema),
            aggregates: Vec::new(),
            errors: Arc::new(AtomicU64::new(0)),
            egress,
        }
    }

    /// The query error count ([`PlanSet::run`]), shared.
    pub(crate) fn error_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.errors)
    }

    /// Register filter query `id`: the conjunction of `factors` (none:
    /// every row) + projection, both resolved against `view` (the stream's
    /// layout under the query's name for it), + the earliest logical time
    /// its windows reach (`i64::MIN` = no bound). A projection identical to
    /// a standing query's, qualifiers aside, is shared, not built.
    #[cfg(test)]
    pub(crate) fn add_filter<'e>(
        &mut self,
        id: QueryId,
        factors: impl IntoIterator<Item = &'e Expr>,
        projection: &[(Expr, Option<String>)],
        view: &SchemaRef,
        min_seq: i64,
    ) -> Result<()> {
        let query = PreparedQuery::new(factors, view)?;
        (self.filters).add(id, query, projection.to_vec(), view, min_seq)
    }

    /// Register aggregate query `qid`, driven by `core`.
    pub(crate) fn add_aggregate(&mut self, qid: QueryId, core: AggCore) {
        self.aggregates.push((qid, core));
    }

    /// Remove query `id`. When the last filter query leaves, the filter
    /// pass drops back to its fresh state, capacities included.
    pub(crate) fn remove_query(&mut self, id: QueryId) -> Result<()> {
        match self.aggregates.iter().position(|(qid, _)| *qid == id) {
            Some(i) => {
                self.aggregates.remove(i);
                Ok(())
            }
            None => self.filters.remove(id),
        }
    }

    /// Does any query stand in the set?
    pub(crate) fn standing(&self) -> bool {
        !self.filters.qstem.is_empty() || !self.aggregates.is_empty()
    }

    /// Standing filter queries.
    pub(crate) fn filter_count(&self) -> usize {
        self.filters.qstem.len()
    }

    /// [`PlanStats::filter_bytes`].
    pub(crate) fn filter_bytes(&self) -> usize {
        self.filters.approx_bytes()
    }

    /// Apply one control. A filter was checked on the thread that
    /// submitted it, so a refusal here cannot happen; were it to, it would
    /// count as a query error.
    pub(crate) fn apply(&mut self, control: PlanControl) {
        match control {
            PlanControl::AddFilter {
                qid,
                query,
                projection,
                view,
                min_seq,
            } => {
                if (self.filters)
                    .add(qid, query, projection, &view, min_seq)
                    .is_err()
                {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            PlanControl::AddAggregate(qid, core) => self.add_aggregate(qid, *core),
            PlanControl::Remove(qid) => {
                let _ = self.remove_query(qid);
            }
            PlanControl::Read(reply) => reply.answer(|| PlanStats {
                filters: self.filter_count(),
                filter_bytes: self.filter_bytes(),
                entries: (self.aggregates.iter())
                    .map(|(qid, core)| (*qid, core.panes.entries()))
                    .collect(),
            }),
            // Cleared as exported: the checkpoint stages whatever it was
            // answered, and an export its caller gave up on never runs.
            PlanControl::Export(reply) => reply.answer(|| {
                let dirty = self.aggregates.iter_mut().filter(|(_, core)| core.dirty);
                (dirty.map(|(qid, core)| {
                    core.dirty = false;
                    (*qid, core.encode())
                }))
                .collect()
            }),
        }
    }

    /// Run every plan over a batch of fresh tuples: each aggregate over the
    /// whole batch, closing the windows stream time passed, then the filter
    /// pass row by row. Results leave in one egress session, opened only
    /// when some query has a row: the filter rows, then each aggregate's.
    /// An aggregate that cannot evaluate a row retires alone, its open
    /// windows dropped.
    pub(crate) fn run(&mut self, batch: &[Tuple]) {
        if batch.is_empty() {
            return;
        }
        let PlanSet {
            filters,
            aggregates,
            errors,
            egress,
        } = self;
        let mut failed = 0;
        let mut answered = Vec::new();
        for (qid, core) in aggregates.iter_mut() {
            let mut out = Vec::new();
            if core.done {
                continue;
            } else if core.run(batch, &mut out).is_err() {
                core.finish();
                failed += 1;
            } else if !out.is_empty() {
                answered.push((*qid, out));
            }
        }
        let mut session = None;
        if !filters.qstem.is_empty() {
            filters.run(batch, egress, &mut session, &mut failed);
        }
        for (qid, out) in answered {
            (session.get_or_insert_with(|| egress.session())).deliver_rows([qid], &out);
        }
        if failed > 0 {
            errors.fetch_add(failed, Ordering::Relaxed);
        }
    }

    /// The stream ended: every aggregate drops the windows its data ended
    /// in the middle of (idempotent).
    pub(crate) fn finish(&mut self) {
        for (_, core) in &mut self.aggregates {
            core.finish();
        }
    }
}

// ------------------------------------------------------------- aggregates

/// A resolved aggregate item: spec + output field.
#[derive(Debug, Clone)]
pub struct ResolvedAgg {
    /// What to compute.
    pub spec: AggSpec,
    /// Output column name.
    pub name: String,
}

/// One pane's partials: group key (NULL when the query has no GROUP BY)
/// → one partial per aggregate.
type Groups = HashMap<Value, Vec<AggState>>;

/// Fold `from` into `into`, group by group.
fn merge_groups(into: &mut Groups, from: &Groups) {
    for (key, states) in from {
        match into.get_mut(key) {
            Some(acc) => acc.iter_mut().zip(states).for_each(|(a, b)| a.merge(b)),
            None => {
                into.insert(key.clone(), states.clone());
            }
        }
    }
}

/// An aggregate query's partial aggregates, keyed by (pane, group).
///
/// A passing row folds into the partials of its pane and group and is then
/// dropped; a window's answer merges the partials of the panes it covers.
/// The live window driver cuts panes at its loop's edges ([`Panes`]); a
/// historical window is answered as a single pane.
pub(crate) struct AggPanes {
    specs: Vec<AggSpec>,
    group_by: Option<usize>,
    out_schema: SchemaRef,
    /// Pane start → that pane's partials.
    panes: BTreeMap<i64, Groups>,
}

impl AggPanes {
    /// Partials for `aggs` over rows of `input_schema`, grouped by column
    /// `group_by` if any. Result rows are `(t, [group], aggs...)`: COUNT
    /// is INT, MIN and MAX follow their column's type, the rest are FLOAT.
    pub(crate) fn new(
        input_schema: &SchemaRef,
        aggs: &[ResolvedAgg],
        group_by: Option<usize>,
    ) -> Self {
        let mut fields = vec![Field::new("t", DataType::Int)];
        if let Some(g) = group_by {
            let f = input_schema.field(g);
            fields.push(Field::new(f.name.clone(), f.data_type));
        }
        for a in aggs {
            let dt = match (a.spec.func, a.spec.column) {
                (AggFunc::Count, _) => DataType::Int,
                (AggFunc::Min | AggFunc::Max, Some(c)) => input_schema.field(c).data_type,
                _ => DataType::Float,
            };
            fields.push(Field::new(a.name.clone(), dt));
        }
        AggPanes {
            specs: aggs.iter().map(|a| a.spec).collect(),
            group_by,
            out_schema: Schema::new(fields).into_ref(),
            panes: BTreeMap::new(),
        }
    }

    /// Fold a passing row into the pane starting at `pane`.
    pub(crate) fn fold(&mut self, pane: i64, t: &Tuple) -> Result<()> {
        let key = self.group_by.map_or(Value::Null, |g| t.value(g).clone());
        let states = (self.panes.entry(pane).or_default().entry(key))
            .or_insert_with(|| AggState::for_specs(&self.specs));
        AggState::fold(&self.specs, states, t)
    }

    /// Append window `t`'s result rows: the merged partials of the panes
    /// inside `win`, one row per group in key order. An ungrouped window
    /// always gives one row (COUNT 0 and NULLs when empty); a grouped one
    /// gives none when empty.
    pub(crate) fn emit(&self, t: i64, win: WindowInstance, out: &mut Vec<Tuple>) {
        let mut merged = Groups::new();
        for groups in self.panes.range(win.left..=win.right).map(|(_, g)| g) {
            merge_groups(&mut merged, groups);
        }
        if self.group_by.is_none() && merged.is_empty() {
            merged.insert(Value::Null, AggState::for_specs(&self.specs));
        }
        let mut rows: Vec<(Value, Vec<AggState>)> = merged.into_iter().collect();
        rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (key, states) in rows {
            let mut row = Vec::with_capacity(2 + states.len());
            row.push(Value::Int(t));
            if self.group_by.is_some() {
                row.push(key);
            }
            row.extend(states.iter().map(AggState::result));
            out.push(Tuple::new_unchecked(
                self.out_schema.clone(),
                row,
                Timestamp::logical(t),
            ));
        }
    }

    /// Window `closed` has been answered and iteration `from` comes next.
    /// A pane starting at one of `closed`'s edges that no later window
    /// shares merges into the pane before it, or is dropped when no later
    /// window starts at or before it. Every other pane still starts at an
    /// edge of a later window.
    fn retire(&mut self, grid: &Panes, from: u64, closed: WindowInstance) {
        for edge in [closed.left, closed.right.saturating_add(1)] {
            let into = grid.pane_of(from, edge);
            if into == Some(edge) {
                continue;
            }
            let Some(pane) = self.panes.remove(&edge) else {
                continue;
            };
            if let Some(into) = into {
                merge_groups(self.panes.entry(into).or_default(), &pane);
            }
        }
    }

    /// Partials held: (pane, group) entries.
    pub(crate) fn entries(&self) -> usize {
        self.panes.values().map(HashMap::len).sum()
    }

    pub(crate) fn clear(&mut self) {
        self.panes.clear();
    }

    fn put(&self, w: &mut CkptWriter) {
        w.put_u32(self.panes.len() as u32);
        for (start, groups) in &self.panes {
            w.put_i64(*start);
            w.put_u32(groups.len() as u32);
            for (key, states) in groups {
                w.put_value(key);
                states.iter().for_each(|s| s.put(w));
            }
        }
    }

    fn get(&mut self, r: &mut CkptReader<'_>) -> Result<()> {
        self.panes.clear();
        for _ in 0..r.get_u32("agg panes")? {
            let start = r.get_i64("agg pane start")?;
            let groups = self.panes.entry(start).or_default();
            for _ in 0..r.get_u32("agg pane groups")? {
                let key = r.get_value()?;
                let states = (self.specs.iter())
                    .map(|s| AggState::get(s.func, r))
                    .collect::<Result<Vec<_>>>()?;
                groups.insert(key, states);
            }
        }
        Ok(())
    }
}

/// An aggregate query's window driver, and its checkpointable state: the
/// window loop's position and the partials of the panes its open windows
/// cover. Everything else is rebuilt from the query text the checkpoint's
/// catalog records.
///
/// Each predicate-passing row folds into the partials of its pane; each
/// time stream time reaches a window assignment's close time, the panes of
/// that window merge into one row (or one row per group), stamped with the
/// loop variable `t`. The output is exactly the paper's "sequence of sets,
/// each set being associated with an instant in time" (§4.1.1).
pub(crate) struct AggCore {
    /// Rows failing it are not folded.
    pred: Option<Predicate>,
    /// Positioned at the first window not yet answered.
    windows: WindowSeq,
    stream_alias: String,
    /// The loop's panes on this stream as anchored at its start time.
    /// `None` when it has no window here, or is invalid: then the window
    /// sequence reports the error and no row can be kept for it.
    grid: Option<Panes>,
    pub(crate) panes: AggPanes,
    latest: i64,
    done: bool,
    /// Changed since the last successful checkpoint commit?
    pub(crate) dirty: bool,
}

impl AggCore {
    /// A driver for `aggs` over the rows of `input_schema` that pass
    /// `pred`, grouped by column `group_by` if any; `windows` must
    /// reference `stream_alias`.
    pub(crate) fn new(
        input_schema: &SchemaRef,
        pred: Option<Predicate>,
        aggs: &[ResolvedAgg],
        group_by: Option<usize>,
        windows: WindowSeq,
        stream_alias: String,
    ) -> Self {
        AggCore {
            pred,
            grid: windows.panes(&stream_alias).ok().flatten(),
            windows,
            stream_alias,
            panes: AggPanes::new(input_schema, aggs, group_by),
            latest: 0,
            done: false,
            dirty: false,
        }
    }

    /// Fold the rows of `batch` that pass the predicate, then append the
    /// result rows of every window stream time has passed to `out`.
    fn run(&mut self, batch: &[Tuple], out: &mut Vec<Tuple>) -> Result<()> {
        for t in batch {
            self.latest = self.latest.max(t.timestamp().seq());
            if self.pred.as_ref().map_or(Ok(true), |p| p.eval_pred(t))? {
                self.fold(t)?;
            }
        }
        self.dirty = true;
        self.close_ready_windows(out)
    }

    /// Fold a passing row into its pane, or drop it when no window still
    /// to come can contain it.
    fn fold(&mut self, t: &Tuple) -> Result<()> {
        let from = self.windows.position().iterations;
        match (self.grid.as_ref()).and_then(|g| g.pane_of(from, t.timestamp().seq())) {
            Some(pane) => self.panes.fold(pane, t),
            None => Ok(()),
        }
    }

    /// Close every window stream time has passed, appending its result
    /// rows to `out`.
    fn close_ready_windows(&mut self, out: &mut Vec<Tuple>) -> Result<()> {
        while let Some(wa) = self.windows.peek() {
            let wa = wa?;
            if wa.close_time() > self.latest {
                // A window closes only once stream time passes its right
                // edge; at EOF, windows that never closed are dropped
                // (their data ended mid-window, [`AggCore::finish`]).
                return Ok(());
            }
            self.windows.next();
            if let Some(win) = wa.window_for(&self.stream_alias) {
                self.panes.emit(wa.t, win, out);
                if let Some(grid) = &self.grid {
                    let from = self.windows.position().iterations;
                    self.panes.retire(grid, from, win);
                }
            }
            self.dirty = true;
        }
        self.finish();
        Ok(())
    }

    /// Retire: no further window is answered, and the partials go.
    fn finish(&mut self) {
        self.done = true;
        self.panes.clear();
    }

    /// Serialize the window-loop position (with its `ST` anchor) and the
    /// pane partials. Schema travels out of band (a restore rebuilds it
    /// from the query text in the checkpoint's catalog).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = CkptWriter::new();
        let pos = self.windows.position();
        w.put_i64(self.windows.start_time());
        w.put_i64(pos.t);
        w.put_u64(pos.iterations);
        w.put_u8(pos.done as u8);
        w.put_i64(self.latest);
        w.put_u8(self.done as u8);
        self.panes.put(&mut w);
        w.into_bytes()
    }

    /// Restore from [`AggCore::encode`] bytes: re-anchor and seek the
    /// window loop, refill the partials. The core must be freshly built
    /// for the same query text.
    pub(crate) fn import(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = CkptReader::new(bytes);
        self.windows.set_start_time(r.get_i64("agg start time")?);
        self.windows.seek(WindowSeqPos {
            t: r.get_i64("agg loop t")?,
            iterations: r.get_u64("agg loop iterations")?,
            done: r.get_u8("agg loop done")? != 0,
        });
        self.grid = self.windows.panes(&self.stream_alias).ok().flatten();
        self.latest = r.get_i64("agg latest seq")?;
        self.done = r.get_u8("agg done")? != 0;
        self.panes.get(&mut r)?;
        self.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::LazyProject;
    use tcq_common::{ArithOp, CmpOp, DataType, Field, Schema, TupleBuilder};
    use tcq_operators::AggFunc;
    use tcq_windows::{CondOp, Condition, ForLoop, LinExpr, Step, WindowIs};

    fn schema() -> SchemaRef {
        Schema::qualified(
            "s",
            vec![
                Field::new("ts", DataType::Int),
                Field::new("v", DataType::Int),
            ],
        )
        .into_ref()
    }

    fn row(s: &SchemaRef, ts: i64, v: i64) -> Tuple {
        TupleBuilder::new(s.clone())
            .push(ts)
            .push(v)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    #[test]
    fn lazy_project_binds_per_schema() {
        let mut lp = LazyProject::new(vec![(Expr::col("v"), None)]);
        let a = schema();
        let b = Schema::qualified(
            "other",
            vec![
                Field::new("x", DataType::Int),
                Field::new("v", DataType::Int),
            ],
        )
        .into_ref();
        let out_a = lp.apply(&row(&a, 1, 10)).unwrap();
        assert_eq!(out_a.value(0).as_int().unwrap(), 10);
        // Different column order, same expression: rebinding required.
        let tb = TupleBuilder::new(b)
            .push(99i64)
            .push(42i64)
            .build()
            .unwrap();
        let out_b = lp.apply(&tb).unwrap();
        assert_eq!(out_b.value(0).as_int().unwrap(), 42);
    }

    /// A binding must not outlive its schema's address: a join whose
    /// output schema is freed and reallocated with another column order
    /// would project the wrong column.
    #[test]
    fn a_recycled_schema_address_gets_a_fresh_projection() {
        let mut lp = LazyProject::new(vec![(Expr::col("v"), None)]);
        let a = Schema::new(vec![Field::new("v", DataType::Int)]).into_ref();
        let a_addr = Arc::as_ptr(&a) as usize;
        let out = lp
            .apply(&TupleBuilder::new(a).push(10i64).build().unwrap())
            .unwrap();
        assert_eq!(out.value(0).as_int().unwrap(), 10);
        // Schema A is gone. B has four fields, so none of its own buffers
        // is the size of a schema allocation and its `Arc` can land on A's
        // freed block; misses are held so each retry gets a fresh address.
        let mut misses = Vec::new();
        let b = loop {
            let mut fields: Vec<Field> = (0..3)
                .map(|i| Field::new(format!("x{i}"), DataType::Int))
                .collect();
            fields.push(Field::new("v", DataType::Int));
            let b = Schema::new(fields).into_ref();
            if Arc::as_ptr(&b) as usize == a_addr || misses.len() == 64 {
                break b;
            }
            misses.push(b);
        };
        let row = [99, 99, 99, 42].map(Value::Int).to_vec();
        let t = Tuple::new(b, row, Timestamp::unknown()).unwrap();
        assert_eq!(lp.apply(&t).unwrap().value(0).as_int().unwrap(), 42);
    }

    #[test]
    fn filter_cq_shared_respects_min_seq() {
        let egress = Router::default();
        egress.register_pull_client(1, 64).unwrap();
        egress.subscribe(1, 0).unwrap();
        let mut plans = PlanSet::new(schema(), egress.clone());
        plans
            .add_filter(0, None, &[(Expr::col("ts"), None)], &schema(), 5)
            .unwrap();
        let s = schema();
        let rows: Vec<Tuple> = (1..=10).map(|ts| row(&s, ts, 0)).collect();
        plans.run(&rows);
        let got = egress.fetch(1, 64).unwrap();
        assert_eq!(got.len(), 6, "only ts >= 5 delivered");
    }

    /// `manycq_churn`'s standing population, then 100 000 submit + stop
    /// pairs of three shapes: one that shares the standing queries' tail,
    /// one with a tail of its own and one with a projection of its own.
    /// Every stop hands back what its submit interned.
    #[test]
    fn churn_leaves_shared_tails_and_projections_at_their_standing_level() {
        let mut plans = PlanSet::new(schema(), Router::default());
        let s = schema();
        let gt = |col: &str, c: i64| Expr::col(col).cmp(CmpOp::Gt, Expr::lit(c));
        let anchored = |v: i64, floor: i64| {
            Expr::col("v")
                .cmp(CmpOp::Eq, Expr::lit(v))
                .and(gt("ts", floor))
        };
        let ts = [(Expr::col("ts"), None)];
        for i in 0..8_000 {
            let pred = anchored(i, 500);
            (plans.add_filter(i as usize, Some(&pred), &ts, &s, i64::MIN)).unwrap();
        }
        for j in 0..2_000 {
            let a = j * 500;
            let pred = gt("v", a).and(Expr::col("v").cmp(CmpOp::Lt, Expr::lit(a + 1_501)));
            (plans.add_filter(8_000 + j as usize, Some(&pred), &ts, &s, i64::MIN)).unwrap();
        }
        let level = |set: &PlanSet| {
            (
                set.filters.qstem.shared_tails(),
                set.filters.projections.len(),
            )
        };
        assert_eq!(level(&plans), (2, 1));
        let standing_bytes = plans.filter_bytes();
        for n in 0..100_000i64 {
            let id = 10_000 + n as usize;
            let v = 100_000 + n;
            let added = match n % 3 {
                0 => plans.add_filter(id, Some(&anchored(v, 500)), &ts, &s, i64::MIN),
                1 => plans.add_filter(id, Some(&anchored(v, n)), &ts, &s, i64::MIN),
                _ => plans.add_filter(
                    id,
                    Some(&anchored(v, 500)),
                    &[(Expr::col("v"), None)],
                    &s,
                    n,
                ),
            };
            added.unwrap();
            plans.remove_query(id).unwrap();
            assert_eq!(level(&plans), (2, 1), "after pair {n}");
        }
        assert_eq!(plans.filter_count(), 10_000);
        let churned_bytes = plans.filter_bytes();
        assert!(
            churned_bytes <= standing_bytes,
            "{standing_bytes} B standing, {churned_bytes} B after the churn"
        );
    }

    #[test]
    fn a_select_list_is_shared_whatever_the_query_calls_its_stream() {
        let egress = Router::default();
        let mut plans = PlanSet::new(schema(), egress);
        let aliased = (schema().with_qualifier("t")).into_ref();
        let pred = Expr::qcol("t", "v").cmp(CmpOp::Gt, Expr::lit(1i64));
        let view_of = |id| if id == 0 { schema() } else { aliased.clone() };
        // Column names count as written: they name the output column.
        let items = [Expr::col("v"), Expr::qcol("t", "v"), Expr::qcol("T", "v")];
        for (id, e) in items.into_iter().enumerate() {
            let factors = (id > 0).then_some(&pred);
            (plans.add_filter(id, factors, &[(e, None)], &view_of(id), i64::MIN)).unwrap();
        }
        assert_eq!(plans.filters.projections.len(), 1);
        let renamed = [(Expr::col("V"), None)];
        (plans.add_filter(3, None, &renamed, &schema(), i64::MIN)).unwrap();
        assert_eq!(plans.filters.projections.len(), 2);
        let unknown = [(Expr::qcol("s", "v"), None)];
        assert!(plans.add_filter(4, None, &unknown, &aliased, 0).is_err());
        assert_eq!(plans.filter_count(), 4, "a refused query changes nothing");
    }

    #[test]
    fn identical_projections_run_once_per_row_and_leave_with_their_last_query() {
        let egress = Router::default();
        let mut shared = PlanSet::new(schema(), egress.clone());
        let item = |e: Expr, alias: Option<&str>| vec![(e, alias.map(String::from))];
        let plus = |v: Value| Expr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(Expr::col("v")),
            rhs: Box::new(Expr::Literal(v)),
        };
        let queries = [
            item(Expr::col("v"), None),
            item(plus(Value::Int(1)), None),
            item(Expr::col("v"), None),
            item(plus(Value::Float(1.0)), None),
            item(Expr::col("v"), Some("w")),
        ];
        for (id, projection) in queries.iter().enumerate() {
            (shared.add_filter(id, None, projection, &schema(), i64::MIN)).unwrap();
        }
        let distinct = |set: &PlanSet| set.filters.projections.len();
        assert_eq!(distinct(&shared), 4, "only queries 0 and 2 project alike");

        egress.register_pull_client(1, 64).unwrap();
        for id in 0..queries.len() {
            egress.subscribe(1, id).unwrap();
        }
        let rows: Vec<Tuple> = (1..=2).map(|ts| row(&schema(), ts, 40 + ts)).collect();
        shared.run(&rows);
        let got = egress.fetch(1, 64).unwrap();
        let order: Vec<usize> = got.iter().map(|(q, _)| *q).collect();
        assert_eq!(
            order,
            [0, 1, 2, 3, 4, 0, 1, 2, 3, 4],
            "ascending ids per row"
        );
        for r in [0, 5] {
            let (a, b) = (&got[r].1, &got[r + 2].1);
            assert!(std::ptr::eq(a.values(), b.values()), "one output, shared");
        }
        assert!(!std::ptr::eq(got[0].1.values(), got[5].1.values()));
        assert!(matches!(got[1].1.value(0), Value::Int(42)));
        assert!(matches!(got[3].1.value(0), Value::Float(f) if *f == 42.0));
        assert_eq!(got[4].1.schema().field(0).name, "w");

        shared.remove_query(0).unwrap();
        assert_eq!(distinct(&shared), 4, "query 2 still projects `v`");
        shared.remove_query(2).unwrap();
        assert_eq!(distinct(&shared), 3);
        let fresh = PlanSet::new(schema(), egress).filter_bytes();
        for id in [1, 3, 4] {
            shared.remove_query(id).unwrap();
        }
        assert_eq!(shared.filter_bytes(), fresh, "the last stop leaves nothing");
    }

    #[test]
    fn aggregate_du_emits_one_row_per_closed_window() {
        let s = schema();
        let egress = Router::default();
        egress.register_pull_client(1, 256).unwrap();
        egress.subscribe(1, 9).unwrap();
        let windows = WindowSeq::new(
            ForLoop {
                init: LinExpr::constant(4),
                cond: Condition {
                    op: CondOp::Le,
                    bound: LinExpr::constant(20),
                },
                step: Step::Add(4),
                windows: vec![WindowIs::new("s", LinExpr::t_plus(-3), LinExpr::t())],
            },
            1,
        );
        let aggs = [ResolvedAgg {
            spec: AggSpec::count_star(),
            name: "n".into(),
        }];
        let core = AggCore::new(&s, None, &aggs, None, windows, "s".into());
        let mut plans = PlanSet::new(s.clone(), egress.clone());
        plans.add_aggregate(9, core);
        let rows: Vec<Tuple> = (1..=20).map(|ts| row(&s, ts, 0)).collect();
        plans.run(&rows);
        plans.finish();
        let got = egress.fetch(1, 256).unwrap();
        // windows close at t = 4, 8, 12, 16, 20 — 4 tuples each.
        assert_eq!(got.len(), 5);
        for (_, r) in &got {
            assert_eq!(r.arity(), 2, "(t, n)");
            assert_eq!(r.value(1).as_int().unwrap(), 4);
        }
    }

    #[test]
    fn aggregate_du_respects_predicate_and_group() {
        let s = schema();
        let egress = Router::default();
        egress.register_pull_client(1, 256).unwrap();
        egress.subscribe(1, 3).unwrap();
        let windows = WindowSeq::new(
            ForLoop {
                init: LinExpr::constant(10),
                cond: Condition {
                    op: CondOp::Le,
                    bound: LinExpr::constant(10),
                },
                step: Step::Add(10),
                windows: vec![WindowIs::new("s", LinExpr::constant(1), LinExpr::t())],
            },
            1,
        );
        let pred = Predicate::new(&Expr::col("ts").cmp(CmpOp::Gt, Expr::lit(2i64)), &s).unwrap();
        let aggs = [ResolvedAgg {
            spec: AggSpec::over(AggFunc::Sum, 0),
            name: "total".into(),
        }];
        // Grouped by v.
        let core = AggCore::new(&s, Some(pred), &aggs, Some(1), windows, "s".into());
        let mut plans = PlanSet::new(s.clone(), egress.clone());
        plans.add_aggregate(3, core);
        let rows: Vec<Tuple> = (1..=10).map(|ts| row(&s, ts, ts % 2)).collect();
        plans.run(&rows);
        plans.finish();
        let got = egress.fetch(1, 256).unwrap();
        // One window [1,10], grouped by parity, ts > 2.
        assert_eq!(got.len(), 2);
        let mut sums: Vec<(i64, f64)> = got
            .iter()
            .map(|(_, r)| (r.value(1).as_int().unwrap(), r.value(2).as_float().unwrap()))
            .collect();
        sums.sort_by_key(|&(g, _)| g);
        // group 0 (even ts > 2): 4+6+8+10 = 28; group 1 (odd > 2): 3+5+7+9 = 24
        assert_eq!(sums, vec![(0, 28.0), (1, 24.0)]);
    }
}
