//! Join plans: "single-Eddy query plan with Fjord-style operators"
//! (§4.2.2). One eddy (a SteM per source) serves every join query on one
//! stream pair and key, each output completed per query ([`JoinGroup`]); a
//! join no other query can share runs alone, all its predicates in the
//! eddy. A join reads two streams, so it reads each through an [`Inbox`]
//! (refills of at most `io_batch` messages, bounded by the quantum, never
//! past `Eof`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use tcq_common::{hash_table_bytes, ColumnBatch, Expr, Result, SchemaRef, TcqError, Tuple};
use tcq_eddy::{Eddy, Emitted, SourceSet};
use tcq_egress::DeliverySession;
use tcq_executor::{DispatchUnit, ModuleStatus};
use tcq_fjords::{FjordMessage, Inbox, Producer};

use tcq_operators::ProjectOp;
use tcq_stems::{MatchScratch, QueryStem};

use crate::control::{self, Control, Reply};
use crate::exchange::ExchangeGauge;
use crate::planner::strip_qualifiers;
use crate::plans::QueryId;
use crate::server::Router;
/// A projection that binds lazily per input schema — join outputs arrive
/// with column orders that depend on which side probed. Bindings are keyed
/// by schema address and hold the schema, so the address cannot be handed
/// to another schema while the binding lives.
pub struct LazyProject {
    items: Vec<(Expr, Option<String>)>,
    bound: HashMap<usize, (SchemaRef, ProjectOp)>,
}

impl LazyProject {
    /// From resolved select items.
    pub fn new(items: Vec<(Expr, Option<String>)>) -> Self {
        LazyProject {
            items,
            bound: HashMap::new(),
        }
    }

    fn bind(&mut self, schema: &SchemaRef) -> Result<&ProjectOp> {
        let (held, op) = match self.bound.entry(Arc::as_ptr(schema) as usize) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert((schema.clone(), ProjectOp::new(&self.items, schema)?)),
        };
        debug_assert!(Arc::ptr_eq(held, schema), "projection of another schema");
        Ok(op)
    }

    /// Apply to a tuple of any compatible schema.
    pub fn apply(&mut self, tuple: &Tuple) -> Result<Tuple> {
        self.bind(tuple.schema())?.apply(tuple)
    }

    /// Apply to a whole columnar batch. `Ok(None)` means the bound
    /// projection needs per-row expression evaluation — callers fall back
    /// to [`LazyProject::apply`] over materialized rows.
    pub fn apply_columnar(&mut self, batch: &ColumnBatch) -> Result<Option<ColumnBatch>> {
        Ok(self.bind(batch.schema())?.apply_columnar(batch))
    }
}

/// One physical input of a join DU: a stream consumed under 1+ aliases,
/// or a partition.
pub struct JoinInput {
    /// The subscription queue, or the partition fjord.
    pub inbox: Inbox,
    /// Alias schemas; each arriving tuple enters the eddy once per alias
    /// (twice for the paper's self-join). Empty for a partition, whose
    /// tuples arrive qualified.
    pub alias_schemas: Vec<SchemaRef>,
}

/// A join query as a group admits it.
pub struct JoinMemberSpec {
    /// The query.
    pub qid: QueryId,
    /// Its aliases for side 0 and side 1.
    pub aliases: [String; 2],
    /// Per side, its own predicate on that source (alias-qualified).
    pub preds: [Option<Expr>; 2],
    /// Its conjuncts over both sources (band predicates).
    pub cross: Option<Expr>,
    /// Its select list.
    pub projection: Vec<(Expr, Option<String>)>,
    /// The admission cut a restore recovered for it; `None` admits it at
    /// the DU's clocks.
    pub admitted: Option<[i64; 2]>,
}

/// One query of a join group.
struct JoinMember {
    /// Per side, its predicate on that source without qualifiers: what
    /// the side's SteM filters by, under whatever alias its schema carries.
    unqualified: [Option<Expr>; 2],
    /// Its select list, bound to the group's joined layout under the
    /// query's own aliases.
    project: ProjectOp,
    /// Per side, the DU's clock when the query was admitted: a stored row
    /// at or before it was built before the query existed and never joins
    /// for it. `i64::MIN` once the window has slid past it.
    admitted: [i64; 2],
}

/// What one side's SteM filters its builds by: the OR of the members'
/// distinct predicates on that source.
#[derive(Default)]
struct SideFilter {
    /// Distinct predicates (by [`Expr::identical`]), each with how many
    /// members hold it.
    preds: Vec<(Expr, usize)>,
    /// Members with no predicate here: the SteM stores every row.
    open: usize,
}

impl SideFilter {
    fn filter(&self) -> Option<Expr> {
        if self.open > 0 {
            return None;
        }
        (self.preds.iter())
            .map(|(p, _)| p.clone())
            .reduce(|a, b| Expr::Or(Box::new(a), Box::new(b)))
    }

    /// Count `pred` in (`add`) or out; returns whether the filter changed.
    fn update(&mut self, pred: Option<&Expr>, add: bool) -> bool {
        let before = self.filter();
        match pred {
            None if add => self.open += 1,
            None => self.open -= 1,
            Some(p) => match self.preds.iter().position(|(q, _)| q.identical(p)) {
                Some(i) if add => self.preds[i].1 += 1,
                Some(i) => {
                    self.preds[i].1 -= 1;
                    if self.preds[i].1 == 0 {
                        self.preds.remove(i);
                    }
                }
                None => self.preds.push((p.clone(), 1)),
            },
        }
        match (&before, &self.filter()) {
            (Some(a), Some(b)) => !a.identical(b),
            (a, b) => a.is_some() != b.is_some(),
        }
    }
}

/// The queries one join DU serves when they share it: every join query on
/// the same two streams and key columns, with the same windows and loop
/// bounds. Their outputs leave the eddy once and are completed per query.
pub struct JoinGroup {
    /// The eddy's source bit per side.
    bits: [SourceSet; 2],
    /// Each side's base schema (member views re-qualify these).
    bases: [SchemaRef; 2],
    /// Side 0 ++ side 1 as the eddy qualifies them: the layout outputs are
    /// completed in.
    joined: SchemaRef,
    /// Per side, the window width: an admission cut is moot once the
    /// window slid past it.
    widths: [Option<i64>; 2],
    filters: [SideFilter; 2],
    members: HashMap<QueryId, JoinMember>,
    /// Each member's residual over `joined`: its side predicates and its
    /// cross factors.
    completion: QueryStem,
    scratch: MatchScratch,
    /// The stored-row times behind the batch being completed.
    seqs: Vec<i64>,
}

impl JoinGroup {
    /// A group over `bases[0] ⋈ bases[1]`, its eddy qualifying the sides
    /// as `qualifiers`.
    pub fn new(
        bits: [SourceSet; 2],
        bases: [SchemaRef; 2],
        qualifiers: [&str; 2],
        widths: [Option<i64>; 2],
    ) -> Self {
        let joined = view(&bases, qualifiers);
        JoinGroup {
            bits,
            bases,
            completion: QueryStem::new(joined.clone()),
            joined,
            widths,
            filters: [SideFilter::default(), SideFilter::default()],
            members: HashMap::new(),
            scratch: MatchScratch::new(),
            seqs: Vec::new(),
        }
    }

    /// Push a member's side predicates in or out of the build filters,
    /// and each changed filter into the eddy.
    fn update_filters(
        &mut self,
        eddy: &mut Eddy,
        preds: &[Option<Expr>; 2],
        add: bool,
    ) -> Result<()> {
        for ((filter, &bit), pred) in self.filters.iter_mut().zip(&self.bits).zip(preds) {
            if filter.update(pred.as_ref(), add) {
                eddy.set_build_predicate(bit, filter.filter().as_ref())?;
            }
        }
        Ok(())
    }

    fn cutting(&self) -> bool {
        self.members.values().any(|m| m.admitted != [i64::MIN; 2])
    }

    /// Complete a routed batch from input `side`: each output row reaches
    /// the members whose residual it passes and whose admission its stored
    /// row postdates, through their own projections.
    fn complete(
        &mut self,
        side: usize,
        clocks: &[i64],
        eddy: &mut Eddy,
        emitted: &mut Vec<Emitted>,
        out: &mut impl JoinOutput,
    ) -> Result<()> {
        self.seqs.clear();
        eddy.drain_match_seqs(&mut self.seqs);
        let split = self.bases[1].len();
        let mut seqs = self.seqs.iter();
        for e in emitted.drain(..) {
            for row in e.into_rows() {
                // A side-1 probe emits side 1 ++ side 0.
                let row = if side == 0 {
                    row
                } else {
                    let values = [&row.values()[split..], &row.values()[..split]].concat();
                    Tuple::new_unchecked(self.joined.clone(), values, row.timestamp())
                };
                let stored_seq = seqs.next().copied().unwrap_or(i64::MAX);
                self.completion.matching_into(&row, &mut self.scratch)?;
                for qid in self.scratch.matches() {
                    let m = &self.members[qid];
                    if stored_seq > m.admitted[1 - side] {
                        out.rows(*qid, std::slice::from_ref(&m.project.apply(&row)?));
                    }
                }
            }
        }
        // An admission cut is moot once its side's window slid past it.
        for m in self.members.values_mut() {
            for ((cut, width), &clock) in m.admitted.iter_mut().zip(&self.widths).zip(clocks) {
                if width.is_some_and(|w| clock.saturating_sub(w) >= *cut) {
                    *cut = i64::MIN;
                }
            }
        }
        eddy.record_match_seqs(self.cutting());
        Ok(())
    }

    /// Approximate heap bytes of the per-member structures: the completion
    /// index and its scratch, the member table and the projections. The
    /// SteM rows the members share are not counted.
    pub fn approx_bytes(&self) -> usize {
        self.completion.approx_bytes()
            + self.scratch.approx_bytes()
            + hash_table_bytes(
                self.members.capacity(),
                std::mem::size_of::<(QueryId, JoinMember)>(),
            )
            + (self.members.values())
                .map(|m| m.project.approx_bytes())
                .sum::<usize>()
    }
}

/// `bases[0] ++ bases[1]` qualified as `qualifiers`.
fn view(bases: &[SchemaRef; 2], qualifiers: [&str; 2]) -> SchemaRef {
    (bases[0].with_qualifier(qualifiers[0]))
        .concat(&bases[1].with_qualifier(qualifiers[1]))
        .into_ref()
}

/// What a join DU owns: its eddy and the queries it serves.
pub struct JoinCore {
    /// One SteM per source, each filtering at build.
    pub eddy: Eddy,
    /// Per input, the newest logical time the DU routed.
    clocks: Vec<i64>,
    /// The first query's projection over the eddy's own outputs, while it
    /// is alone: its band factors then run in the eddy as filters and its
    /// SteMs enforce its side predicates, so outputs go straight to it —
    /// columnar runs stay columnar.
    solo: Option<(QueryId, LazyProject)>,
    /// The queries of a shared join; `None` for a join only its first
    /// query can use (self-joins, three-way joins, …).
    group: Option<JoinGroup>,
}

impl JoinCore {
    /// A join only `qid` uses: every predicate it has runs in `eddy`.
    pub fn solo(eddy: Eddy, qid: QueryId, projection: Vec<(Expr, Option<String>)>) -> Self {
        JoinCore {
            eddy,
            clocks: Vec::new(),
            solo: Some((qid, LazyProject::new(projection))),
            group: None,
        }
    }

    /// A shared join whose first member is `first`; `eddy` holds one SteM
    /// per side, qualified by `first`'s aliases, then `first`'s band
    /// factors as filters.
    pub fn group(eddy: Eddy, group: JoinGroup, first: JoinMemberSpec) -> Result<Self> {
        let mut core = JoinCore {
            eddy,
            clocks: vec![i64::MIN; 2],
            solo: None,
            group: Some(group),
        };
        let solo = (first.qid, LazyProject::new(first.projection.clone()));
        core.admit(first)?;
        core.solo = Some(solo);
        Ok(core)
    }

    /// Admit a query to the group. It sees only rows built from now on, or
    /// after `spec.admitted` when a restore recovered its cut; returns the
    /// cut it got.
    pub fn admit(&mut self, spec: JoinMemberSpec) -> Result<[i64; 2]> {
        let group = (self.group.as_mut())
            .ok_or_else(|| TcqError::Executor("this join serves one query".into()))?;
        let aliases = [spec.aliases[0].as_str(), spec.aliases[1].as_str()];
        let view = view(&group.bases, aliases);
        let project = ProjectOp::new(&spec.projection, &view)?;
        // A SteM holds every row some member's side predicate admitted, so
        // each member checks its own side predicates, then its cross
        // factors. Refused here, the query changes nothing.
        let conjuncts = spec.preds.iter().flatten().chain(&spec.cross);
        (group.completion).insert_query_as(spec.qid, conjuncts, &view)?;
        let member = JoinMember {
            unqualified: spec
                .preds
                .each_ref()
                .map(|p| p.as_ref().map(strip_qualifiers)),
            project,
            admitted: spec.admitted.unwrap_or([self.clocks[0], self.clocks[1]]),
        };
        group.update_filters(&mut self.eddy, &member.unqualified, true)?;
        let cut = member.admitted;
        group.members.insert(spec.qid, member);
        if self.solo.take().is_some() {
            // The first query's band factors move to its residual.
            self.eddy.remove_filters();
        }
        self.eddy.record_match_seqs(group.cutting());
        Ok(cut)
    }

    /// Imported SteM rows passed the build filter of whichever members
    /// stood when they were built, not necessarily the first query's: it
    /// stops running alone, so its own predicates check them. They were
    /// built up to `clocks`, each input stream's restored clock, so the DU
    /// has routed that far: a member admitted after the restore sees none
    /// of them.
    pub fn imported(&mut self, clocks: &[i64]) {
        if self.group.is_none() {
            return;
        }
        self.clocks = clocks.to_vec();
        if self.solo.take().is_some() {
            self.eddy.remove_filters();
        }
    }

    /// Remove a query; returns how many the group still serves. A query
    /// running alone stays in place: its DU is torn down with it.
    pub fn remove(&mut self, qid: QueryId) -> Result<usize> {
        let Some(group) = self.group.as_mut() else {
            return Ok(0);
        };
        let Some(member) = group.members.remove(&qid) else {
            return Ok(group.members.len());
        };
        group.update_filters(&mut self.eddy, &member.unqualified, false)?;
        group.completion.remove_query(qid)?;
        self.eddy.record_match_seqs(group.cutting());
        Ok(group.members.len())
    }

    /// The group's per-member bytes ([`JoinGroup::approx_bytes`]); 0 for
    /// a join one query owns.
    pub fn member_bytes(&self) -> usize {
        self.group.as_ref().map_or(0, JoinGroup::approx_bytes)
    }

    /// Hand a routed batch from input `side` to `out`.
    fn deliver(
        &mut self,
        side: usize,
        emitted: &mut Vec<Emitted>,
        out: &mut impl JoinOutput,
    ) -> Result<()> {
        let Some((qid, project)) = &mut self.solo else {
            let group = self
                .group
                .as_mut()
                .expect("a join without a solo query is a group");
            return group.complete(side, &self.clocks, &mut self.eddy, emitted, out);
        };
        let mut row_buf: Vec<Tuple> = Vec::new();
        for e in emitted.drain(..) {
            match e {
                Emitted::Rows(rows) => {
                    row_buf.clear();
                    for t in &rows {
                        row_buf.push(project.apply(t)?);
                    }
                    out.rows(*qid, &row_buf);
                }
                Emitted::Columns(b) => match project.apply_columnar(&b)? {
                    Some(cols) => out.columns(*qid, &cols),
                    None => {
                        // Expression projection: no columnar impl;
                        // evaluate per materialized row.
                        row_buf.clear();
                        for t in b.to_tuples() {
                            row_buf.push(project.apply(&t)?);
                        }
                        out.rows(*qid, &row_buf);
                    }
                },
            }
        }
        Ok(())
    }
}

/// Where a join core hands each query's results.
trait JoinOutput {
    fn rows(&mut self, qid: QueryId, rows: &[Tuple]);
    fn columns(&mut self, qid: QueryId, batch: &ColumnBatch);
}

impl<P> JoinOutput for DeliverySession<'_, P> {
    fn rows(&mut self, qid: QueryId, rows: &[Tuple]) {
        self.deliver_rows([qid], rows);
    }

    fn columns(&mut self, qid: QueryId, batch: &ColumnBatch) {
        self.deliver_columns([qid], batch);
    }
}

/// A partition's results, which the merger delivers under its query's id.
impl JoinOutput for Vec<FjordMessage> {
    fn rows(&mut self, _: QueryId, rows: &[Tuple]) {
        self.extend(rows.iter().cloned().map(FjordMessage::Tuple));
    }

    fn columns(&mut self, _: QueryId, batch: &ColumnBatch) {
        self.extend(batch.to_tuples().into_iter().map(FjordMessage::Tuple));
    }
}

/// Where a join DU's results go.
pub(crate) enum JoinSink {
    /// To the clients of the queries its core serves.
    Egress(Router),
    /// A partition's: into its output fjord for the exchange's merger,
    /// through an outbox holding what the fjord has no room for yet.
    Fjord(Producer, Vec<FjordMessage>),
}

impl JoinSink {
    /// Route `batch`, from input `side`, through `core`'s eddy and hand
    /// the results on: to egress in one session, or to the outbox.
    fn route(
        &mut self,
        core: &mut JoinCore,
        side: usize,
        batch: Vec<Tuple>,
        emitted: &mut Vec<Emitted>,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        emitted.clear();
        core.eddy.process_batch(batch, emitted)?;
        match self {
            JoinSink::Egress(egress) => core.deliver(side, emitted, &mut egress.session()),
            JoinSink::Fjord(_, outbox) => core.deliver(side, emitted, outbox),
        }
    }

    /// Queue a punct or the `Eof` behind the results (a partition's only).
    fn push(&mut self, msg: FjordMessage) {
        if let JoinSink::Fjord(_, outbox) = self {
            outbox.push(msg);
        }
    }

    /// Move the outbox into the output fjord as far as it has room;
    /// returns whether anything moved. A merger gone (the query stopping)
    /// wants none of it.
    fn flush(&mut self) -> bool {
        match self {
            JoinSink::Fjord(output, outbox) if !outbox.is_empty() => output
                .enqueue_batch(outbox)
                .inspect_err(|_| outbox.clear())
                .is_ok_and(|n| n > 0),
            _ => false,
        }
    }

    /// Messages the output fjord had no room for yet.
    fn backlog(&self) -> usize {
        match self {
            JoinSink::Fjord(_, outbox) => outbox.len(),
            JoinSink::Egress(_) => 0,
        }
    }
}

/// SteM groups as a checkpoint moves them: `(module, group hash, bytes)`.
pub(crate) type StemGroups = Vec<(usize, u64, Vec<u8>)>;

/// A control for a join DU's core ([`crate::control`]). A join's
/// controls all carry a reply: the DU applies them between batches, where
/// everything it has taken off its inputs is built and delivered.
pub(crate) enum JoinControl {
    /// Admit a query to the group; answers with its admission cut.
    Admit(JoinMemberSpec, Reply<Result<[i64; 2]>>),
    /// Take a query out, whether or not its caller still waits; answers
    /// with how many queries the group still serves ([`JoinCore::remove`]).
    Remove(QueryId, Reply<Result<usize>>),
    /// Answer with the core's [`JoinStats`].
    Read(Reply<JoinStats>),
    /// Import restored SteM groups, built up to each input stream's
    /// restored clock ([`JoinCore::imported`]).
    Import {
        groups: StemGroups,
        clocks: Vec<i64>,
        reply: Reply<Result<()>>,
    },
    /// Export the SteM groups changed since the last export, and mark them
    /// clean.
    Export(Reply<Result<StemGroups>>),
}

/// What a join core holds; a core whose DU has gone holds nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JoinStats {
    /// Rows its SteMs hold.
    pub(crate) rows: usize,
    /// Heap bytes of those rows (`StemOp::state_bytes` summed).
    pub(crate) bytes: usize,
    /// The queries a group serves (0 for a join one query owns).
    pub(crate) members: usize,
    /// The group's per-member bytes ([`JoinCore::member_bytes`]).
    pub(crate) member_bytes: usize,
}

impl Control<JoinControl> {
    /// The core's figures, read by its DU.
    pub(crate) fn stats(&self) -> Result<JoinStats> {
        Ok(self.ask(JoinControl::Read)?.unwrap_or_default())
    }
}

impl JoinCore {
    fn stats(&self) -> JoinStats {
        JoinStats {
            rows: self.eddy.state_size(),
            bytes: self.eddy.state_bytes(),
            members: self.group.as_ref().map_or(0, |g| g.members.len()),
            member_bytes: self.member_bytes(),
        }
    }

    /// Apply every control queued so far; a partition worker's read or
    /// export first slides its windows to the exchange's clocks, so it
    /// holds what the one core of `P = 1` would.
    fn apply(&mut self, controls: &Receiver<JoinControl>, gauge: Option<&ExchangeGauge>) {
        while let Ok(control) = controls.try_recv() {
            self.apply_one(control, gauge);
        }
    }

    fn slide(&mut self, gauge: Option<&ExchangeGauge>) {
        if let Some(gauge) = gauge {
            gauge.slide(&mut self.eddy);
        }
    }

    fn apply_one(&mut self, control: JoinControl, gauge: Option<&ExchangeGauge>) {
        match control {
            JoinControl::Admit(spec, reply) => reply.answer(|| self.admit(spec)),
            JoinControl::Remove(qid, reply) => reply.send(self.remove(qid)),
            JoinControl::Read(reply) => reply.answer(|| {
                self.slide(gauge);
                self.stats()
            }),
            JoinControl::Import {
                groups,
                clocks,
                reply,
            } => reply.answer(|| {
                (groups.iter())
                    .try_for_each(|(module, hash, bytes)| {
                        self.eddy.import_module_group(*module, *hash, bytes)
                    })
                    .map(|()| self.imported(&clocks))
            }),
            // Cleared as exported: the checkpoint stages whatever it was
            // answered, and an export its caller gave up on never runs.
            JoinControl::Export(reply) => reply.answer(|| {
                self.slide(gauge);
                let mut groups = Vec::new();
                self.eddy.export_dirty_state(&mut groups).map(|()| {
                    self.eddy.clear_dirty();
                    groups
                })
            }),
        }
    }
}

/// The eddy DU of a join: one eddy for the queries it serves.
///
/// It owns its [`JoinCore`]; the server reaches the core only through the
/// DU's control queue (`JoinControl`), which the DU drains before each
/// refill of an input, so every batch it takes is built and delivered
/// before a control sees the core.
///
/// A partitioned join runs one per partition ([`crate::exchange`]), over
/// the partition's fjord — its only input carrying puncts: a run-opening
/// clock slides its source's windows, and a run's end follows the run's
/// results out.
pub struct JoinCqDu {
    name: String,
    inputs: Vec<JoinInput>,
    core: JoinCore,
    controls: Receiver<JoinControl>,
    /// A partition worker's exchange, whose clocks an export slides to.
    gauge: Option<Arc<ExchangeGauge>>,
    sink: JoinSink,
    emitted: Vec<Emitted>,
    /// Tuples before this logical time precede every window — skipped.
    floor: i64,
    /// Tuples after this logical time follow the final window: the query's
    /// stopping condition has been reached (§4.1.1's "keep the query
    /// standing for twenty trading days"). `i64::MAX` = run forever.
    deadline: i64,
}

impl JoinCqDu {
    /// Build the DU over `core`, and the server's handle on it.
    /// `floor`/`deadline` bound the queries' lifetime in stream time (use
    /// `i64::MIN`/`i64::MAX` for unbounded); a group's inputs are its
    /// sides, in order; a partition worker names its exchange's `gauge`.
    /// Each drained input batch enters the eddy through one
    /// [`tcq_eddy::Eddy::process_batch`] call, so routing decisions are
    /// amortized over the batch as well.
    pub(crate) fn new(
        name: impl Into<String>,
        inputs: Vec<JoinInput>,
        core: JoinCore,
        sink: JoinSink,
        (floor, deadline): (i64, i64),
        gauge: Option<Arc<ExchangeGauge>>,
    ) -> (Self, Control<JoinControl>) {
        let (control, controls) = control::queue();
        let du = JoinCqDu {
            name: name.into(),
            inputs,
            core,
            controls,
            gauge,
            sink,
            emitted: Vec::new(),
            floor,
            deadline,
        };
        (du, control)
    }

    fn ended(&self) -> bool {
        self.inputs.iter().all(|i| i.inbox.is_done())
    }

    /// Route up to `quantum` input messages; returns whether there were any.
    fn take(&mut self, quantum: usize) -> Result<bool> {
        let core = &mut self.core;
        let mut did_work = false;
        let per_input = quantum.div_ceil(self.inputs.len().max(1));
        for (side, input) in self.inputs.iter_mut().enumerate() {
            let mut budget = per_input;
            loop {
                core.apply(&self.controls, self.gauge.as_deref());
                if input.inbox.fill(&mut budget) == 0 {
                    break;
                }
                did_work = true;
                let aliases = input.alias_schemas.len().max(1);
                let mut batch: Vec<Tuple> = Vec::with_capacity(input.inbox.buffered() * aliases);
                let mut retired = false;
                for msg in input.inbox.drain() {
                    let t = match msg {
                        FjordMessage::Tuple(t) => t,
                        FjordMessage::Punct(ts) => {
                            let pending = std::mem::take(&mut batch);
                            self.sink.route(core, side, pending, &mut self.emitted)?;
                            match (ts.logical_part(), ts.physical_part()) {
                                (Some(seq), Some(source)) => {
                                    core.eddy.advance_to(source as SourceSet, seq)
                                }
                                _ => self.sink.push(FjordMessage::Punct(ts)),
                            }
                            continue;
                        }
                        FjordMessage::Eof => continue,
                    };
                    let seq = t.timestamp().seq();
                    if seq < self.floor {
                        continue;
                    }
                    if seq > self.deadline {
                        // Stream time passed the final window: the query's
                        // stopping condition fired (timestamps are monotone
                        // per stream), so nothing behind it is read.
                        retired = true;
                        break;
                    }
                    if let Some(clock) = core.clocks.get_mut(side) {
                        *clock = (*clock).max(seq);
                    }
                    // One entry per alias: a self-join's batch interleaves
                    // them (`t1@a1, t1@a2, t2@a1, …`) into one-tuple runs,
                    // which the eddy routes exactly as it would tuple by
                    // tuple. The last alias takes the row itself.
                    let Some((last, rest)) = input.alias_schemas.split_last() else {
                        batch.push(t);
                        continue;
                    };
                    for alias in rest {
                        batch.push(t.with_schema(alias.clone())?);
                    }
                    batch.push(t.reschema(last.clone())?);
                }
                if retired {
                    input.inbox.close();
                }
                // The drained batch takes one row→column conversion per
                // source run at the eddy's ingress edge; what the eddy
                // emits goes on in one session per ingress batch.
                self.sink.route(core, side, batch, &mut self.emitted)?;
            }
        }
        Ok(did_work)
    }
}

impl DispatchUnit for JoinCqDu {
    fn name(&self) -> &str {
        &self.name
    }

    fn buffered(&self) -> usize {
        let inputs = self.inputs.iter().map(|i| i.inbox.buffered());
        self.sink.backlog() + inputs.sum::<usize>()
    }

    fn run(&mut self, quantum: usize) -> Result<ModuleStatus> {
        self.core.apply(&self.controls, self.gauge.as_deref());
        let mut did_work = self.sink.flush();
        // With the output fjord full, take no input until the merger
        // catches up, or run-output order would need reassembly downstream.
        if self.sink.backlog() == 0 && !self.ended() {
            did_work |= self.take(quantum)?;
            if self.ended() {
                self.sink.push(FjordMessage::Eof);
                self.sink.flush();
            }
        }
        if self.ended() && self.sink.backlog() == 0 {
            // "The Eddy shuts down its connected modules when the end of
            // all of its input streams has been reached" (§2.2).
            return Ok(ModuleStatus::Done);
        }
        Ok(if did_work {
            ModuleStatus::Ready
        } else {
            ModuleStatus::Idle
        })
    }
}
