//! The Query SteM (PSoup, §3.2).
//!
//! > "It does this by indexing queries into a query SteM, which can be
//! > thought of as a generalization of the notion of a grouped filter."
//!
//! A [`QueryStem`] stores the SELECT-FROM-WHERE predicates of standing
//! queries over one stream schema. Probing a tuple returns the exact set of
//! satisfied query ids. To keep per-tuple cost sublinear in the number of
//! registered queries, each query gets exactly **one access path**, chosen
//! at registration from its single-column factors (`col <op> const`):
//!
//! * its first **equality** — a hash *anchor* (`column → key hash of the
//!   constant → candidate list`): a probe touches only the candidates in
//!   the bucket of the probed value's hash, O(bucket), and re-checks each
//!   against its own constant with `Value`'s `==`, so two constants whose
//!   hashes collide never answer for each other;
//! * else its **interval** — every `>`/`>=`/`<`/`<=` factor on one column,
//!   intersected into one `(lo, lo_strict, hi, hi_strict)` over
//!   [`Value::total_cmp`] and registered in that column's interval index:
//!   a stab reaches the candidates in O(log n + matches), where the two
//!   one-sided halves of `a < x AND x < b` would each be satisfied by half
//!   of a population of narrow ranges. A missing side is unbounded,
//!   repeated bounds tighten, crossed bounds register and never match. The
//!   column is the first with both a lower and an upper factor, else the
//!   first with either;
//! * else **none** — the query is a candidate for every tuple.
//!
//! A candidate is then checked directly: first its remaining single-column
//! factors (`!=`, ranges on other columns, everything beside an anchor)
//! with SQL comparison semantics, then its *residual* conjuncts — those
//! that are not single-column factors. Both are kept in one exact-length
//! list, the query's *tail*, together with a payload its caller attached
//! (a server's filter pass keeps the query's projection and time floor
//! there). Queries whose factors and payload are the same share one
//! refcounted tail, interned in the stem and dropped with its last query;
//! a tail with a residual stays private. So a standing query costs its
//! entry — the access path and one pointer — and a bucket slot, and an
//! anchor bucket holding one query keeps it inline. A factor whose
//! constant cannot be compared with its column's declared type is refused
//! at registration: left in, it would fail the probe for every standing
//! query.
//!
//! The probe path allocates nothing: per-probe state lives in a
//! caller-supplied [`MatchScratch`] ([`QueryStem::matching_into`]). Neither
//! the stem nor the scratch keeps anything sized by the query ids ever
//! issued (a server never reuses one), only by the standing population.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tcq_common::{
    hash_table_bytes, hash_value, BitSet, CmpOp, Expr, IdList, IdentityBuildHasher, Predicate,
    Result, Schema, SchemaRef, TcqError, Tuple, Value,
};

use crate::interval_index::{EpochStats, Interval, IntervalIndex};

/// Identifies a standing query in a [`QueryStem`].
pub type QueryId = usize;

/// Where a query is registered, i.e. what `remove_query` must undo. The
/// column is a `u32`, so it packs beside the tag and the access path is
/// four words.
enum Access {
    /// Bucketed under `column = constant` in `anchors`, by the constant's
    /// key hash; the constant itself is what a candidate is re-checked
    /// against.
    Anchor(u32, Value),
    /// In `intervals[column]`, keyed by this lower bound.
    Interval(u32, Option<Value>),
    /// Listed in `always`.
    Always,
}

/// One test a candidate must pass beyond its access path.
enum Check {
    /// A single-column factor the access path does not cover, compared
    /// with SQL semantics.
    Factor(usize, CmpOp, Value),
    /// A conjunct that is not a single-column factor, lowered to a
    /// [`Predicate`] (compiled kernel when the shape allows it).
    Residual(Predicate),
}

/// A query's checks and its caller's payload: shared by every query whose
/// factors and payload are the same, private when it holds a residual.
struct Tail<P> {
    /// Factors first, then residuals, at their exact count: a standing
    /// query keeps no spare capacity.
    checks: Box<[Check]>,
    payload: P,
}

impl<P> Tail<P> {
    /// Only factor lists are interned: a compiled residual has no
    /// equality to intern it by.
    fn shareable(&self) -> bool {
        self.checks.iter().all(|c| matches!(c, Check::Factor(..)))
    }

    fn admits(&self, tuple: &Tuple) -> Result<bool> {
        for check in self.checks.iter() {
            let pass = match check {
                Check::Factor(col, op, constant) => {
                    matches!(tuple.value(*col).sql_cmp(constant)?, Some(ord) if op.matches(ord))
                }
                Check::Residual(pred) => pred.eval_pred(tuple)?,
            };
            if !pass {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Heap bytes of the tail, the `Arc` header included; the payload's own
    /// heap is its owner's to count.
    fn approx_bytes(&self) -> usize {
        let constants: usize = (self.checks.iter())
            .map(|c| match c {
                Check::Factor(_, _, v) => str_heap(v),
                Check::Residual(_) => 0,
            })
            .sum();
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<Self>()
            + self.checks.len() * std::mem::size_of::<Check>()
            + constants
    }
}

/// Factor lists compare type-exact: `Value`'s `==` equates `Int(500)` with
/// `Float(500.0)`, while `sql_cmp` orders a large INT against each
/// differently. A tail with a residual never enters the intern set, so it
/// is never compared.
impl<P: Eq> PartialEq for Tail<P> {
    fn eq(&self, other: &Self) -> bool {
        self.payload == other.payload
            && self.checks.len() == other.checks.len()
            && (self.checks.iter().zip(other.checks.iter())).all(|pair| match pair {
                (Check::Factor(a, a_op, a_v), Check::Factor(b, b_op, b_v)) => {
                    a == b && a_op == b_op && a_v.data_type() == b_v.data_type() && a_v == b_v
                }
                _ => false,
            })
    }
}

impl<P: Eq> Eq for Tail<P> {}

impl<P: Hash> Hash for Tail<P> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.payload.hash(state);
        for check in self.checks.iter() {
            if let Check::Factor(col, op, constant) = check {
                col.hash(state);
                op.hash(state);
                constant.hash_key(state);
            }
        }
    }
}

struct QueryEntry<P> {
    access: Access,
    tail: Arc<Tail<P>>,
}

impl<P> QueryEntry<P> {
    fn admits(&self, tuple: &Tuple) -> Result<bool> {
        // An anchor bucket holds every constant with the bucket's hash.
        if let Access::Anchor(col, constant) = &self.access {
            if tuple.value(*col as usize) != constant {
                return Ok(false);
            }
        }
        self.tail.admits(tuple)
    }
}

fn str_heap(v: &Value) -> usize {
    match v {
        Value::Str(s) => s.len(),
        _ => 0,
    }
}

/// Reusable per-probe state for [`QueryStem::matching_into`]. Keeping it
/// outside the stem lets one allocation-free scratch serve every probe of a
/// pipeline; after warm-up no probe allocates.
#[derive(Default)]
pub struct MatchScratch {
    /// Matching query ids, sorted ascending after a successful probe.
    matched: Vec<QueryId>,
    /// Candidates the access paths produced, reused across probes.
    candidates: Vec<QueryId>,
    /// Candidates whose checks could not be evaluated on the last probe.
    failed: Vec<QueryId>,
    examined: usize,
}

impl MatchScratch {
    /// A fresh, empty scratch; grows to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The queries matched by the last probe, ascending.
    pub fn matches(&self) -> &[QueryId] {
        &self.matched
    }

    /// The candidates of the last probe whose checks could not be
    /// evaluated on its tuple (a residual that divides by zero, say): they
    /// are not among [`MatchScratch::matches`].
    pub fn failed(&self) -> &[QueryId] {
        &self.failed
    }

    /// Index entries the last probe touched: interval-tree nodes visited,
    /// pending intervals scanned and anchor-bucket candidates checked. A
    /// deterministic stand-in for probe time: O(log n + matches) per
    /// interval index plus the probed buckets, whatever the population.
    pub fn examined(&self) -> usize {
        self.examined
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        (self.matched.capacity() + self.candidates.capacity() + self.failed.capacity())
            * std::mem::size_of::<QueryId>()
    }

    fn begin(&mut self) {
        self.matched.clear();
        self.candidates.clear();
        self.failed.clear();
        self.examined = 0;
    }
}

/// An index over standing queries: probe with a tuple, get satisfied
/// queries. Each query carries a payload of type `P` (none by default),
/// which [`QueryStem::payload`] hands back.
pub struct QueryStem<P = ()> {
    schema: SchemaRef,
    /// column -> key hash of a constant -> queries anchored on
    /// `column = constant` for every constant with that hash.
    anchors: HashMap<usize, HashMap<u64, IdList<QueryId>, IdentityBuildHasher>>,
    /// column -> the intervals of queries whose access path is that column.
    intervals: HashMap<usize, IntervalIndex>,
    /// Queries with neither (always candidates).
    always: Vec<QueryId>,
    /// The one per-query table.
    queries: HashMap<QueryId, QueryEntry<P>>,
    /// Every shareable tail, once; each leaves with its last query.
    tails: HashSet<Arc<Tail<P>>>,
}

fn is_lower(op: CmpOp) -> bool {
    matches!(op, CmpOp::Gt | CmpOp::Ge)
}

fn is_upper(op: CmpOp) -> bool {
    matches!(op, CmpOp::Lt | CmpOp::Le)
}

/// The column whose range factors become the query's interval: the first
/// bounded on both sides, else the first bounded at all.
fn interval_column(single: &[(usize, CmpOp, Value)]) -> Option<usize> {
    let bounded = |col: usize, side: fn(CmpOp) -> bool| {
        single.iter().any(|(c, op, _)| *c == col && side(*op))
    };
    let mut ranged = single
        .iter()
        .filter(|(_, op, _)| is_lower(*op) || is_upper(*op))
        .map(|(col, _, _)| *col);
    ranged
        .clone()
        .find(|&col| bounded(col, is_lower) && bounded(col, is_upper))
        .or_else(|| ranged.next())
}

/// A query decomposed against its view, ready to register: its access
/// path and the checks a candidate must pass beyond it. Preparing touches
/// no stem, so a query can be prepared on one thread and registered
/// ([`QueryStem::insert_prepared`]) on the thread that owns the stem.
pub struct PreparedQuery {
    path: Path,
    /// Factors first, then residuals.
    checks: Box<[Check]>,
}

/// Where a prepared query will be found.
enum Path {
    Anchor(usize, Value),
    Interval(usize, Interval),
    Always,
}

impl PreparedQuery {
    /// Decompose the conjunction of `preds` (none: matches everything),
    /// its columns resolved against `view`. Errors if a column does not
    /// resolve, or a `column <op> constant` factor's constant is not
    /// comparable with the column's declared type: `verify` compares with
    /// `sql_cmp`, which fails on a class mismatch — and a failed probe
    /// stops delivery for every standing query, not just this one.
    pub fn new<'e>(preds: impl IntoIterator<Item = &'e Expr>, view: &Schema) -> Result<Self> {
        let mut single: Vec<(usize, CmpOp, Value)> = Vec::new();
        let mut residual = Vec::new();
        for pred in preds {
            pred.try_for_each_conjunct(&mut |factor| {
                match factor.as_single_column_factor() {
                    Some((qual, name, op, constant)) if !constant.is_null() => {
                        let col = view.index_of(qual, name)?;
                        let column = view.field(col).data_type;
                        let comparable = constant.data_type().is_some_and(|c| {
                            c == column || (c.is_numeric() && column.is_numeric())
                        });
                        if !comparable {
                            return Err(TcqError::Type(format!(
                                "cannot compare {column} column {name} with {constant}"
                            )));
                        }
                        single.push((col, op, constant.clone()));
                    }
                    _ => residual.push(Predicate::new(factor, view)?),
                }
                Ok(())
            })?;
        }
        let path = if let Some(pos) = single.iter().position(|(_, op, _)| *op == CmpOp::Eq) {
            let (col, _, constant) = single.remove(pos);
            Path::Anchor(col, constant)
        } else if let Some(col) = interval_column(&single) {
            let mut iv = Interval::default();
            single.retain(|(c, op, constant)| {
                let bounds = *c == col && (is_lower(*op) || is_upper(*op));
                if bounds {
                    iv.tighten(*op, constant);
                }
                !bounds
            });
            Path::Interval(col, iv)
        } else {
            Path::Always
        };
        let checks = (single.into_iter())
            .map(|(col, op, constant)| Check::Factor(col, op, constant))
            .chain(residual.into_iter().map(Check::Residual))
            .collect();
        Ok(PreparedQuery { path, checks })
    }
}

/// A column index as an access path stores it.
fn column_u32(col: usize) -> u32 {
    u32::try_from(col).expect("a schema has fewer than 2^32 columns")
}

impl QueryStem {
    /// An empty query SteM over tuples of `schema`, with residual
    /// predicates compiled to kernels where possible.
    pub fn new(schema: SchemaRef) -> Self {
        Self::with_payloads(schema)
    }

    /// Register query `id` with predicate `pred` (`None` = no WHERE clause,
    /// matches everything). Errors if `id` is taken, the predicate does not
    /// bind against the schema, or a `column <op> constant` factor's
    /// constant is not comparable with the column's declared type.
    pub fn insert_query(&mut self, id: QueryId, pred: Option<&Expr>) -> Result<()> {
        let schema = self.schema.clone();
        self.insert_query_as(id, pred, &schema)
    }

    /// [`QueryStem::insert_query`] for the conjunction of `preds` (none:
    /// matches everything), with their columns resolved against `view`: the
    /// stem's own layout under the query's names for it (the alias a query
    /// gave its stream, the aliases a join query gave its sources).
    pub fn insert_query_as<'e>(
        &mut self,
        id: QueryId,
        preds: impl IntoIterator<Item = &'e Expr>,
        view: &SchemaRef,
    ) -> Result<()> {
        self.insert_query_with(id, preds, view, ())
    }
}

impl<P: Hash + Eq> QueryStem<P> {
    /// An empty query SteM over tuples of `schema` whose queries each carry
    /// a `P`.
    pub fn with_payloads(schema: SchemaRef) -> Self {
        QueryStem {
            schema,
            anchors: HashMap::new(),
            intervals: HashMap::new(),
            always: Vec::new(),
            queries: HashMap::new(),
            tails: HashSet::new(),
        }
    }

    /// The stream schema queries are registered against.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// [`QueryStem::insert_query_as`], the query carrying `payload`.
    /// Queries with the same factors and an equal payload share one copy of
    /// both.
    pub fn insert_query_with<'e>(
        &mut self,
        id: QueryId,
        preds: impl IntoIterator<Item = &'e Expr>,
        view: &SchemaRef,
        payload: P,
    ) -> Result<()> {
        debug_assert_eq!(view.len(), self.schema.len(), "a view of another layout");
        if self.queries.contains_key(&id) {
            return Err(TcqError::Capacity(format!("query {id} already registered")));
        }
        // Decomposed fully (and fallibly) before anything is registered,
        // so a bad predicate leaves the stem untouched.
        self.insert_prepared(id, PreparedQuery::new(preds, view)?, payload)
    }

    /// Register a query [`PreparedQuery::new`] decomposed against a view
    /// of this stem's layout, carrying `payload`; errors if `id` is taken.
    pub fn insert_prepared(&mut self, id: QueryId, query: PreparedQuery, payload: P) -> Result<()> {
        let Entry::Vacant(slot) = self.queries.entry(id) else {
            return Err(TcqError::Capacity(format!("query {id} already registered")));
        };
        let access = match query.path {
            Path::Anchor(col, constant) => {
                self.anchors
                    .entry(col)
                    .or_default()
                    .entry(hash_value(&constant))
                    .and_modify(|ids| ids.push(id))
                    .or_insert(IdList::One(id));
                Access::Anchor(column_u32(col), constant)
            }
            Path::Interval(col, iv) => {
                let lo = iv.lo.clone();
                self.intervals.entry(col).or_default().insert(id, iv);
                Access::Interval(column_u32(col), lo)
            }
            Path::Always => {
                self.always.push(id);
                Access::Always
            }
        };
        let tail = Tail {
            checks: query.checks,
            payload,
        };
        let tail = if !tail.shareable() {
            Arc::new(tail)
        } else if let Some(shared) = self.tails.get(&tail) {
            Arc::clone(shared)
        } else {
            let tail = Arc::new(tail);
            self.tails.insert(Arc::clone(&tail));
            tail
        };
        slot.insert(QueryEntry { access, tail });
        Ok(())
    }

    /// The payload query `id` was registered with.
    pub fn payload(&self, id: QueryId) -> Option<&P> {
        self.queries.get(&id).map(|e| &e.tail.payload)
    }

    /// Remove query `id`; errors if unknown. O(own bucket) for an anchored
    /// query, amortised O(log n) for an interval, never O(registered
    /// queries).
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let QueryEntry { access, tail } = self
            .queries
            .remove(&id)
            .ok_or_else(|| TcqError::Executor(format!("query {id} not registered")))?;
        // The intern set holds one reference and `tail` the other: this was
        // the tail's last query.
        if Arc::strong_count(&tail) == 2 && tail.shareable() {
            self.tails.remove(&*tail);
        }
        match access {
            Access::Anchor(col, constant) => {
                let col = col as usize;
                if let Some(buckets) = self.anchors.get_mut(&col) {
                    let hash = hash_value(&constant);
                    if buckets.get_mut(&hash).is_some_and(|ids| ids.remove(id)) {
                        buckets.remove(&hash);
                    }
                    if buckets.is_empty() {
                        self.anchors.remove(&col);
                    }
                }
            }
            Access::Interval(col, lo) => {
                let col = col as usize;
                if let Some(index) = self.intervals.get_mut(&col) {
                    index.remove(id, &lo);
                    if index.len() == 0 {
                        self.intervals.remove(&col);
                    }
                }
            }
            Access::Always => self.always.retain(|&q| q != id),
        }
        Ok(())
    }

    /// Number of standing queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no query is registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Distinct interned tails: one per distinct factor list and payload
    /// among the standing queries that have no residual.
    pub fn shared_tails(&self) -> usize {
        self.tails.len()
    }

    /// Mid-epoch bookkeeping counts of the interval indexes combined.
    pub fn epoch_stats(&self) -> EpochStats {
        let mut total = EpochStats::default();
        for index in self.intervals.values() {
            let s = index.epoch_stats();
            total.pending += s.pending;
            total.tombstones += s.tombstones;
            total.entries += s.entries;
        }
        total
    }

    /// Probe: the exact set of queries `tuple` satisfies, into a fresh set.
    ///
    /// Convenience wrapper over [`QueryStem::matching_into`]; allocates a
    /// scratch per call. Hot paths should hold a [`MatchScratch`] instead.
    pub fn matching(&self, tuple: &Tuple) -> Result<BitSet> {
        let mut scratch = MatchScratch::new();
        self.matching_into(tuple, &mut scratch)?;
        Ok(scratch.matched.iter().copied().collect())
    }

    /// Probe with caller-supplied scratch: after the call,
    /// [`MatchScratch::matches`] holds the exact satisfied query set,
    /// ascending. Allocation-free once the scratch is warm.
    ///
    /// A candidate whose checks cannot be evaluated on `tuple` fails alone:
    /// it is listed in [`MatchScratch::failed`], every other candidate is
    /// still decided, and the first such error is returned.
    pub fn matching_into(&self, tuple: &Tuple, scratch: &mut MatchScratch) -> Result<()> {
        self.gather(tuple, scratch);
        let MatchScratch {
            matched,
            candidates,
            failed,
            ..
        } = scratch;
        let mut first_error = None;
        for &q in candidates.iter() {
            match self.queries[&q].admits(tuple) {
                Ok(true) => matched.push(q),
                Ok(false) => {}
                Err(e) => {
                    failed.push(q);
                    first_error.get_or_insert(e);
                }
            }
        }
        matched.sort_unstable();
        first_error.map_or(Ok(()), Err)
    }

    /// [`QueryStem::matching_into`] that also hands each decided query's
    /// payload to `visit`, ascending by id: `visit(id, payload, true)` for
    /// a match, `visit(id, payload, false)` for a candidate listed in
    /// [`MatchScratch::failed`]. Each candidate's entry is looked up once,
    /// so a caller needs no [`QueryStem::payload`] lookup per match; the
    /// price is sorting the candidates, not just the matches.
    pub fn visit_matches(
        &self,
        tuple: &Tuple,
        scratch: &mut MatchScratch,
        mut visit: impl FnMut(QueryId, &P, bool),
    ) -> Result<()> {
        self.gather(tuple, scratch);
        let MatchScratch {
            matched,
            candidates,
            failed,
            ..
        } = scratch;
        candidates.sort_unstable();
        // Every query has one access path, so no id is a candidate twice.
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
        let mut first_error = None;
        for &q in candidates.iter() {
            let entry = &self.queries[&q];
            match entry.admits(tuple) {
                Ok(true) => {
                    matched.push(q);
                    visit(q, &entry.tail.payload, true);
                }
                Ok(false) => {}
                Err(e) => {
                    failed.push(q);
                    visit(q, &entry.tail.payload, false);
                    first_error.get_or_insert(e);
                }
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Reset `scratch` and fill its candidates: every query whose access
    /// path `tuple` reaches, in no particular order.
    fn gather(&self, tuple: &Tuple, scratch: &mut MatchScratch) {
        scratch.begin();
        let MatchScratch {
            candidates,
            examined,
            ..
        } = scratch;
        // A NULL attribute satisfies no factor, so it reaches no anchor
        // bucket and no interval.
        for (&col, index) in &self.intervals {
            let v = tuple.value(col);
            if !v.is_null() {
                *examined += index.stab(v, |q| candidates.push(q));
            }
        }
        for (&col, buckets) in &self.anchors {
            let v = tuple.value(col);
            if v.is_null() {
                continue;
            }
            // A row routed on this column already carries the hash; the
            // probe reads the memo but never claims it for its column.
            let hash = tuple.cached_key_hash(col).unwrap_or_else(|| hash_value(v));
            if let Some(ids) = buckets.get(&hash) {
                let ids = ids.as_slice();
                *examined += ids.len();
                candidates.extend_from_slice(ids);
            }
        }
        candidates.extend_from_slice(&self.always);
    }

    /// Approximate heap footprint of the stem's index structures in bytes,
    /// hash tables counted by their whole bucket arrays and each shared
    /// tail once.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = hash_table_bytes(
            self.intervals.capacity(),
            size_of::<(usize, IntervalIndex)>(),
        );
        b += self
            .intervals
            .values()
            .map(IntervalIndex::approx_bytes)
            .sum::<usize>();
        b += self.always.capacity() * size_of::<QueryId>();
        b += hash_table_bytes(
            self.anchors.capacity(),
            size_of::<(usize, HashMap<u64, IdList<QueryId>, IdentityBuildHasher>)>(),
        );
        for buckets in self.anchors.values() {
            b += hash_table_bytes(buckets.capacity(), size_of::<(u64, IdList<QueryId>)>());
            b += buckets.values().map(IdList::heap_bytes).sum::<usize>();
        }
        b += hash_table_bytes(
            self.queries.capacity(),
            size_of::<(QueryId, QueryEntry<P>)>(),
        );
        for e in self.queries.values() {
            b += match &e.access {
                Access::Anchor(_, v) | Access::Interval(_, Some(v)) => str_heap(v),
                _ => 0,
            };
            if !e.tail.shareable() {
                b += e.tail.approx_bytes();
            }
        }
        b += hash_table_bytes(self.tails.capacity(), size_of::<Arc<Tail<P>>>());
        b + self.tails.iter().map(|t| t.approx_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval_index::REBUILD_PENDING;
    use tcq_common::{CmpOp, DataType, Field, Schema, Timestamp, TupleBuilder, Value};

    fn schema() -> SchemaRef {
        Schema::qualified(
            "ClosingStockPrices",
            vec![
                Field::new("timestamp", DataType::Int),
                Field::new("stockSymbol", DataType::Str),
                Field::new("closingPrice", DataType::Float),
            ],
        )
        .into_ref()
    }

    fn tick(ts: i64, sym: &str, price: f64) -> Tuple {
        TupleBuilder::new(schema())
            .push(ts)
            .push(sym)
            .push(price)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    fn msft_over(price: f64) -> Expr {
        Expr::col("stockSymbol")
            .cmp(CmpOp::Eq, Expr::lit("MSFT"))
            .and(Expr::col("closingPrice").cmp(CmpOp::Gt, Expr::lit(price)))
    }

    #[test]
    fn multi_query_matching() {
        let mut qs = QueryStem::new(schema());
        qs.insert_query(0, Some(&msft_over(50.0))).unwrap();
        qs.insert_query(1, Some(&msft_over(60.0))).unwrap();
        qs.insert_query(
            2,
            Some(&Expr::col("stockSymbol").cmp(CmpOp::Eq, Expr::lit("IBM"))),
        )
        .unwrap();
        qs.insert_query(3, None).unwrap(); // match-all

        let m = qs.matching(&tick(1, "MSFT", 55.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 3]);
        let m = qs.matching(&tick(2, "MSFT", 65.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        let m = qs.matching(&tick(3, "IBM", 10.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn an_anchored_query_keeps_exact_checks_and_an_inline_bucket() {
        // Anchored on the symbol, one factor checked beside the anchor: the
        // shape of most standing CQs.
        let mut qs = QueryStem::new(schema());
        qs.insert_query(0, Some(&msft_over(50.0))).unwrap();
        assert_eq!(qs.queries[&0].tail.checks.len(), 1);
        let bucket = |qs: &QueryStem| qs.anchors[&1][&hash_value(&Value::str("MSFT"))].clone();
        assert_eq!(bucket(&qs), IdList::One(0));
        qs.insert_query(1, Some(&msft_over(60.0))).unwrap();
        assert_eq!(bucket(&qs).as_slice(), &[0, 1]);
        qs.remove_query(0).unwrap();
        assert_eq!(bucket(&qs), IdList::One(1));
        qs.remove_query(1).unwrap();
        assert!(qs.anchors.is_empty());
    }

    #[test]
    fn two_factors_on_same_column_both_required() {
        // price > 10 AND price < 20 registers as the one interval (10, 20).
        let mut qs = QueryStem::new(schema());
        let pred = Expr::col("closingPrice")
            .cmp(CmpOp::Gt, Expr::lit(10.0))
            .and(Expr::col("closingPrice").cmp(CmpOp::Lt, Expr::lit(20.0)));
        qs.insert_query(0, Some(&pred)).unwrap();
        assert!(qs.matching(&tick(1, "X", 15.0)).unwrap().contains(0));
        assert!(!qs.matching(&tick(1, "X", 25.0)).unwrap().contains(0));
        assert!(!qs.matching(&tick(1, "X", 5.0)).unwrap().contains(0));
    }

    #[test]
    fn residual_predicates_evaluated_for_survivors() {
        let mut qs = QueryStem::new(schema());
        // timestamp * 2 > closingPrice is not single-column -> residual.
        let residual = Expr::Arith {
            op: tcq_common::ArithOp::Mul,
            lhs: Box::new(Expr::col("timestamp")),
            rhs: Box::new(Expr::lit(2i64)),
        }
        .cmp(CmpOp::Gt, Expr::col("closingPrice"));
        let pred = Expr::col("stockSymbol")
            .cmp(CmpOp::Eq, Expr::lit("MSFT"))
            .and(residual);
        qs.insert_query(0, Some(&pred)).unwrap();
        assert!(qs.matching(&tick(100, "MSFT", 150.0)).unwrap().contains(0));
        assert!(!qs.matching(&tick(10, "MSFT", 150.0)).unwrap().contains(0));
        // indexed factor fails -> residual never matters
        assert!(!qs.matching(&tick(100, "IBM", 150.0)).unwrap().contains(0));
    }

    #[test]
    fn remove_query_and_id_reuse() {
        let mut qs = QueryStem::new(schema());
        qs.insert_query(0, Some(&msft_over(50.0))).unwrap();
        qs.insert_query(1, Some(&msft_over(10.0))).unwrap();
        qs.remove_query(0).unwrap();
        assert_eq!(qs.len(), 1);
        let m = qs.matching(&tick(1, "MSFT", 60.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1]);
        // Re-register id 0 with a different predicate; the old anchor
        // bucket must not leak into it.
        qs.insert_query(
            0,
            Some(&Expr::col("stockSymbol").cmp(CmpOp::Eq, Expr::lit("ORCL"))),
        )
        .unwrap();
        let m = qs.matching(&tick(1, "ORCL", 60.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0]);
        assert!(qs.remove_query(7).is_err());
    }

    #[test]
    fn scan_tier_remove_and_factor_id_reuse() {
        // Range-only queries live in the interval index; removing one and
        // re-registering its id must not resurrect the old interval.
        let mut qs = QueryStem::new(schema());
        let band = |lo: f64, hi: f64| {
            Expr::col("closingPrice")
                .cmp(CmpOp::Ge, Expr::lit(lo))
                .and(Expr::col("closingPrice").cmp(CmpOp::Le, Expr::lit(hi)))
        };
        qs.insert_query(0, Some(&band(0.0, 10.0))).unwrap();
        qs.insert_query(1, Some(&band(5.0, 15.0))).unwrap();
        qs.remove_query(0).unwrap();
        qs.insert_query(0, Some(&band(100.0, 110.0))).unwrap();
        let m = qs.matching(&tick(1, "X", 7.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1]);
        let m = qs.matching(&tick(1, "X", 105.0)).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn duplicate_query_id_rejected() {
        let mut qs = QueryStem::new(schema());
        qs.insert_query(0, None).unwrap();
        assert!(qs.insert_query(0, None).is_err());
    }

    #[test]
    fn unknown_column_in_predicate_rejected() {
        let mut qs = QueryStem::new(schema());
        let pred = Expr::col("volume").cmp(CmpOp::Gt, Expr::lit(0i64));
        assert!(qs.insert_query(0, Some(&pred)).is_err());
    }

    #[test]
    fn null_attribute_kills_indexed_queries() {
        let s = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        let mut qs = QueryStem::new(s.clone());
        qs.insert_query(0, Some(&Expr::col("x").cmp(CmpOp::Ne, Expr::lit(5i64))))
            .unwrap();
        qs.insert_query(1, None).unwrap();
        let t = Tuple::new(s, vec![Value::Null], Timestamp::unknown()).unwrap();
        let m = qs.matching(&t).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn null_attribute_kills_anchored_queries() {
        let s = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("y", DataType::Int),
        ])
        .into_ref();
        let mut qs = QueryStem::new(s.clone());
        // Anchored on x, verified on y — a NULL in either column kills it.
        let pred = Expr::col("x")
            .cmp(CmpOp::Eq, Expr::lit(1i64))
            .and(Expr::col("y").cmp(CmpOp::Gt, Expr::lit(0i64)));
        qs.insert_query(0, Some(&pred)).unwrap();
        let t = |x: Value, y: Value| Tuple::new(s.clone(), vec![x, y], Timestamp::unknown());
        assert!(qs
            .matching(&t(Value::Int(1), Value::Int(5)).unwrap())
            .unwrap()
            .contains(0));
        assert!(!qs
            .matching(&t(Value::Null, Value::Int(5)).unwrap())
            .unwrap()
            .contains(0));
        assert!(!qs
            .matching(&t(Value::Int(1), Value::Null).unwrap())
            .unwrap()
            .contains(0));
    }

    #[test]
    fn agrees_with_naive_evaluation_randomized() {
        let mut rng = tcq_common::rng::seeded(0xBEEF);
        let mut qs = QueryStem::new(schema());
        let mut preds = Vec::new();
        let syms = ["MSFT", "IBM", "ORCL"];
        for id in 0..64 {
            let sym = syms[rng.gen_range(0..3usize)];
            let lo = rng.gen_range(0.0..50.0);
            let hi = lo + rng.gen_range(0.0..50.0);
            let mut pred = Expr::col("stockSymbol")
                .cmp(CmpOp::Eq, Expr::lit(sym))
                .and(Expr::col("closingPrice").cmp(CmpOp::Ge, Expr::lit(lo)))
                .and(Expr::col("closingPrice").cmp(CmpOp::Le, Expr::lit(hi)));
            if id % 4 == 0 {
                // A column-vs-column residual: a compiled kernel, checked
                // against the interpreter below.
                pred = pred.and(Expr::col("timestamp").cmp(CmpOp::Gt, Expr::col("closingPrice")));
            }
            qs.insert_query(id, Some(&pred)).unwrap();
            preds.push(pred.bind(&schema()).unwrap());
        }
        for i in 0..500 {
            let t = tick(i, syms[rng.gen_range(0..3usize)], rng.gen_range(0.0..100.0));
            let fast = qs.matching(&t).unwrap();
            let slow: BitSet = preds
                .iter()
                .enumerate()
                .filter(|(_, p)| p.eval_pred(&t).unwrap())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, slow, "mismatch on tuple {t:?}");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_probes() {
        let mut rng = tcq_common::rng::seeded(0x5C1A);
        let mut qs = QueryStem::new(schema());
        let syms = ["MSFT", "IBM", "ORCL"];
        for id in 0..32 {
            let pred = if id % 3 == 0 {
                msft_over(rng.gen_range(0.0..100.0))
            } else {
                Expr::col("closingPrice").cmp(CmpOp::Gt, Expr::lit(rng.gen_range(0.0..100.0)))
            };
            qs.insert_query(id, Some(&pred)).unwrap();
        }
        let mut scratch = MatchScratch::new();
        for i in 0..200 {
            let t = tick(i, syms[rng.gen_range(0..3usize)], rng.gen_range(0.0..120.0));
            qs.matching_into(&t, &mut scratch).unwrap();
            let fresh = qs.matching(&t).unwrap();
            assert_eq!(
                scratch.matches().to_vec(),
                fresh.iter().collect::<Vec<_>>(),
                "matches() must be the sorted matched set"
            );
        }
    }

    #[test]
    fn approx_bytes_grows_with_registration() {
        let mut qs = QueryStem::new(schema());
        let empty = qs.approx_bytes();
        for id in 0..256 {
            qs.insert_query(id, Some(&msft_over(id as f64))).unwrap();
        }
        let full = qs.approx_bytes();
        assert!(
            full > empty + 256 * 8,
            "memory accounting must track registrations: {empty} -> {full}"
        );
    }
    fn num_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("y", DataType::Float),
        ])
        .into_ref()
    }

    fn xy(x: Value, y: Value) -> Tuple {
        Tuple::new(num_schema(), vec![x, y], Timestamp::unknown()).unwrap()
    }

    fn cmp(col: &str, op: CmpOp, c: impl Into<Value>) -> Expr {
        Expr::col(col).cmp(op, Expr::lit(c.into()))
    }

    #[test]
    fn interval_normalisation_agrees_with_naive_evaluation() {
        use CmpOp::*;
        let preds = [
            cmp("x", Gt, 3i64)
                .and(cmp("x", Gt, 7i64))
                .and(cmp("x", Le, 12i64)),
            cmp("x", Ge, 5i64).and(cmp("x", Le, 5i64)), // point
            cmp("x", Gt, 9i64).and(cmp("x", Lt, 3i64)), // empty
            cmp("x", Ge, 5i64).and(cmp("x", Gt, 5i64)), // strict wins the tie
            cmp("x", Lt, 8i64),                         // one-sided
            // y is two-sided, so it is the interval; x is verified.
            cmp("x", Gt, 2i64)
                .and(cmp("y", Ge, 1i64))
                .and(cmp("y", Lt, 6.5)),
            cmp("x", Ge, 4i64)
                .and(cmp("x", Ne, 6i64))
                .and(cmp("x", Lt, 9i64)),
            cmp("y", Ne, 2.0),
            cmp("y", Gt, 3i64).and(cmp("x", Ne, 5i64)), // Int constant, Float column
            // An interval with a residual conjunct beside it.
            cmp("x", Gt, 2i64)
                .and(cmp("x", Lt, 9i64))
                .and(Expr::col("x").cmp(Gt, Expr::col("y"))),
        ];
        let mut qs = QueryStem::new(num_schema());
        let mut bound = Vec::new();
        for (id, p) in preds.iter().enumerate() {
            qs.insert_query(id, Some(p)).unwrap();
            bound.push(p.bind(&num_schema()).unwrap());
        }
        let mut xs: Vec<Value> = (0..14).map(Value::Int).collect();
        xs.push(Value::Null);
        let mut ys: Vec<Value> = (0..16).map(|i| Value::Float(i as f64 * 0.5)).collect();
        ys.push(Value::Null);
        for x in &xs {
            for y in &ys {
                let t = xy(x.clone(), y.clone());
                let want: BitSet = (0..bound.len())
                    .filter(|&i| bound[i].eval_pred(&t).unwrap())
                    .collect();
                assert_eq!(qs.matching(&t).unwrap(), want, "on {t:?}");
            }
        }
    }

    #[test]
    fn mistyped_constant_is_rejected_at_registration() {
        // `verify` would fail such a comparison on every probe that reaches
        // it, taking every other standing query's deliveries with it.
        use CmpOp::*;
        let mut qs = QueryStem::new(num_schema());
        qs.insert_query(0, None).unwrap();
        qs.insert_query(1, Some(&cmp("y", Gt, 1.0))).unwrap();
        for bad in [
            cmp("y", Gt, 1.0).and(cmp("x", Ne, "abc")), // verified beside an interval
            cmp("x", Eq, 1i64).and(cmp("y", Lt, "abc")), // verified beside an anchor
            cmp("x", Ne, "abc"),                        // no access path
            cmp("y", Lt, "abc"),                        // the interval itself
            cmp("x", Eq, "abc"),                        // the anchor itself
            cmp("x", Ge, true),
        ] {
            let err = qs.insert_query(2, Some(&bad));
            assert!(matches!(err, Err(TcqError::Type(_))), "{bad}: {err:?}");
        }
        // The stem is untouched: id 2 is still free, and Int against the
        // Float column is a legal comparison.
        assert_eq!(qs.len(), 2);
        qs.insert_query(2, Some(&cmp("y", Gt, 1i64))).unwrap();
        let m = qs.matching(&xy(Value::Int(1), Value::Float(2.0))).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    /// A residual that cannot be evaluated on a tuple fails its own query
    /// only: every other candidate is still decided.
    #[test]
    fn a_failing_residual_fails_its_query_alone() {
        use tcq_common::ArithOp;
        let mut qs = QueryStem::new(num_schema());
        let ten_over_x = Expr::Arith {
            op: ArithOp::Div,
            lhs: Box::new(Expr::lit(10i64)),
            rhs: Box::new(Expr::col("x")),
        };
        qs.insert_query(0, None).unwrap();
        qs.insert_query(1, Some(&ten_over_x.cmp(CmpOp::Gt, Expr::lit(1i64))))
            .unwrap();
        qs.insert_query(2, Some(&cmp("y", CmpOp::Gt, 1.0))).unwrap();
        let mut scratch = MatchScratch::new();
        let err = qs.matching_into(&xy(Value::Int(0), Value::Float(2.0)), &mut scratch);
        assert!(matches!(err, Err(TcqError::Type(_))), "{err:?}");
        assert_eq!(scratch.matches(), [0, 2]);
        assert_eq!(scratch.failed(), [1]);
        qs.matching_into(&xy(Value::Int(2), Value::Float(2.0)), &mut scratch)
            .unwrap();
        assert_eq!(scratch.matches(), [0, 1, 2]);
        assert!(scratch.failed().is_empty());
    }

    /// A population of mixed access paths at query ids `base..base + n`.
    fn mixed_pred(i: usize) -> Option<Expr> {
        let lo = (i % 97) as f64;
        let band = cmp("closingPrice", CmpOp::Gt, lo).and(cmp("closingPrice", CmpOp::Lt, lo + 3.0));
        match i % 10 {
            0 => None,
            1..=4 => Some(cmp("stockSymbol", CmpOp::Eq, format!("S{}", i % 50).as_str()).and(band)),
            5 => Some(cmp("closingPrice", CmpOp::Ne, lo)),
            _ => Some(band),
        }
    }

    #[test]
    fn churn_at_constant_population_keeps_footprint_flat() {
        // The server never reuses a query id (`next_query.fetch_add`), so
        // anything sized by the highest id ever issued grows forever on a
        // workload that submits and stops one query per batch.
        const STANDING: usize = 1_000;
        const PAIRS: usize = 200_000;
        let mut qs = QueryStem::new(schema());
        let mut scratch = MatchScratch::new();
        for id in 0..STANDING {
            qs.insert_query(id, mixed_pred(id).as_ref()).unwrap();
        }
        let footprint = |qs: &QueryStem, s: &MatchScratch| qs.approx_bytes() + s.approx_bytes();
        let mut before = 0;
        for pair in 0..PAIRS {
            // Insert a fresh id, retire the oldest: population stays put.
            let id = STANDING + pair;
            qs.insert_query(id, mixed_pred(id).as_ref()).unwrap();
            qs.remove_query(pair).unwrap();
            if pair % 16 == 0 {
                let t = tick(pair as i64, "S7", (pair % 100) as f64 + 0.5);
                qs.matching_into(&t, &mut scratch).unwrap();
                assert!(scratch.matches().iter().all(|&q| q > pair && q <= id));
            }
            if pair == PAIRS / 4 {
                // Past warm-up: every structure has turned over many times,
                // and the `queries` table has done its one doubling (a hash
                // table at constant load still accumulates tombstones until
                // it resizes once; after that it rehashes in place).
                before = footprint(&qs, &scratch);
            }
        }
        assert_eq!(qs.len(), STANDING);
        let after = footprint(&qs, &scratch);
        let issued = PAIRS - PAIRS / 4;
        assert!(
            after < before + issued,
            "footprint grew {before} -> {after} B over {issued} issued ids"
        );
    }

    #[test]
    fn examined_is_logarithmic_at_100k_queries() {
        // The population behind the "4.4k rows/s at 100k CQs" finding: half
        // anchored on distinct symbols, half narrow two-sided ranges. The
        // scan tier walked ~50 000 satisfied factors per probe here.
        const N: usize = 100_000;
        let sym = |i: usize| format!("S{i}");
        let band = |j: usize| {
            let lo = j as f64 * 2.0;
            cmp("closingPrice", CmpOp::Gt, lo).and(cmp("closingPrice", CmpOp::Lt, lo + 6.5))
        };
        let mut qs = QueryStem::new(schema());
        for i in 0..N / 2 {
            let anchored = cmp("stockSymbol", CmpOp::Eq, sym(i).as_str()).and(cmp(
                "closingPrice",
                CmpOp::Gt,
                500.0,
            ));
            qs.insert_query(i, Some(&anchored)).unwrap();
            qs.insert_query(N / 2 + i, Some(&band(i))).unwrap();
        }
        let per_match = 2 * (usize::BITS - (N - 1).leading_zeros()) as usize; // 2·⌈log2 n⌉
        let mut scratch = MatchScratch::new();
        let mut rng = tcq_common::rng::seeded(0xE7A);
        let mut probe_all = |qs: &QueryStem, phase: &str| {
            for i in 0..2_000 {
                let s = sym(rng.gen_range(0..N / 2));
                let t = tick(i, &s, rng.gen_range(0.0..N as f64));
                qs.matching_into(&t, &mut scratch).unwrap();
                let (examined, matches) = (scratch.examined(), scratch.matches().len());
                assert!(
                    examined <= (matches + 1) * per_match + REBUILD_PENDING,
                    "{phase}: examined {examined} for {matches} matches"
                );
            }
        };
        // Right after a rebuild: the 50 000th range insert is the 256th of
        // its epoch at 50 000 = 195 · 256 + 80, so top the buffer up.
        for k in 0..REBUILD_PENDING - (N / 2) % REBUILD_PENDING {
            qs.insert_query(N + k, Some(&band(N / 2 + k))).unwrap();
        }
        let stats = qs.epoch_stats();
        assert_eq!((stats.pending, stats.tombstones), (0, 0), "{stats:?}");
        probe_all(&qs, "rebuilt");
        // Mid-epoch: tombstones in the run, inserts waiting in pending.
        for k in 0..2_000 {
            qs.remove_query(N / 2 + k * 20).unwrap();
        }
        for k in 0..200 {
            qs.insert_query(2 * N + k, Some(&band(k * 100))).unwrap();
        }
        let stats = qs.epoch_stats();
        assert!(
            stats.pending >= 200 && stats.tombstones >= 2_000,
            "{stats:?}"
        );
        probe_all(&qs, "mid-epoch");
    }

    #[test]
    fn approx_bytes_is_linear_in_the_range_population() {
        // The scan tier's per-block full-width bitmaps were superlinear:
        // 2.7 MB -> 169 MB for 10k -> 100k factors.
        let bytes_at = |n: usize| {
            let mut qs = QueryStem::new(schema());
            for j in 0..n {
                let lo = j as f64;
                let band = cmp("closingPrice", CmpOp::Ge, lo).and(cmp(
                    "closingPrice",
                    CmpOp::Lt,
                    lo + 4.0,
                ));
                qs.insert_query(j, Some(&band)).unwrap();
            }
            qs.approx_bytes()
        };
        let (small, large) = (bytes_at(10_000), bytes_at(100_000));
        assert!(
            small >= 10_000 * 64,
            "the interval run must be counted: {small}"
        );
        assert!(large <= 11 * small, "10k: {small} B, 100k: {large} B");
    }

    #[test]
    fn an_entry_is_its_access_path_and_one_pointer() {
        use std::mem::size_of;
        assert_eq!(size_of::<Access>(), 32);
        assert_eq!(size_of::<QueryEntry<()>>(), size_of::<Access>() + 8);
        assert!(size_of::<(QueryId, QueryEntry<()>)>() <= 56);
        assert_eq!(size_of::<(u64, IdList<QueryId>)>(), 24, "an anchor bucket");
    }

    #[test]
    fn identical_factor_lists_share_one_tail_until_the_last_leaves() {
        let mut qs = QueryStem::new(schema());
        for id in 0..100 {
            let anchored = cmp("stockSymbol", CmpOp::Eq, format!("S{id}").as_str()).and(cmp(
                "closingPrice",
                CmpOp::Gt,
                500.0,
            ));
            qs.insert_query(id, Some(&anchored)).unwrap();
        }
        // Range-only queries leave no factor: they share the empty list.
        for id in 100..150 {
            let band = id as f64;
            let pred = cmp("closingPrice", CmpOp::Gt, band).and(cmp(
                "closingPrice",
                CmpOp::Lt,
                band + 2.0,
            ));
            qs.insert_query(id, Some(&pred)).unwrap();
        }
        assert_eq!(qs.shared_tails(), 2);
        // An INT constant is another factor, though `Value`'s `==` equates
        // it with the FLOAT one.
        let int_over =
            cmp("stockSymbol", CmpOp::Eq, "S7").and(cmp("closingPrice", CmpOp::Gt, 500i64));
        qs.insert_query(150, Some(&int_over)).unwrap();
        assert_eq!(qs.shared_tails(), 3);
        // A residual keeps its tail private.
        let residual = Expr::col("timestamp").cmp(CmpOp::Gt, Expr::col("closingPrice"));
        qs.insert_query(151, Some(&residual)).unwrap();
        assert_eq!(qs.shared_tails(), 3);
        let t = tick(1, "S7", 600.0);
        let m = qs.matching(&t).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![7, 150]);
        for id in 0..99 {
            qs.remove_query(id).unwrap();
        }
        assert_eq!(qs.shared_tails(), 3, "query 99 still holds the tail");
        qs.remove_query(99).unwrap();
        assert_eq!(qs.shared_tails(), 2);
        for id in 100..152 {
            qs.remove_query(id).unwrap();
        }
        assert_eq!(qs.shared_tails(), 0);
    }

    #[test]
    fn payloads_share_a_tail_only_when_equal() {
        let mut qs: QueryStem<i64> = QueryStem::with_payloads(schema());
        let over = cmp("closingPrice", CmpOp::Gt, 10.0);
        let view = schema();
        for (id, floor) in [(0, 5), (1, 5), (2, 9)] {
            qs.insert_query_with(id, Some(&over), &view, floor).unwrap();
        }
        assert_eq!(qs.shared_tails(), 2);
        assert_eq!(qs.payload(1), Some(&5));
        assert_eq!(qs.payload(2), Some(&9));
        assert_eq!(qs.payload(3), None);
        // A refused query takes nothing: its payload is dropped with it.
        assert!(qs
            .insert_query_with(3, Some(&cmp("volume", CmpOp::Gt, 1i64)), &view, 7)
            .is_err());
        assert_eq!((qs.len(), qs.shared_tails()), (3, 2));
    }

    #[test]
    fn anchor_candidates_are_rechecked_against_their_constant() {
        use CmpOp::*;
        let mut qs = QueryStem::new(num_schema());
        qs.insert_query(0, Some(&cmp("x", Eq, 1i64))).unwrap();
        qs.insert_query(1, Some(&cmp("x", Eq, 2i64))).unwrap();
        // Force a collision: query 1 joins constant 1's bucket, as it would
        // if the two constants' key hashes were equal.
        let buckets = qs.anchors.get_mut(&0).unwrap();
        buckets.remove(&hash_value(&Value::Int(2)));
        buckets
            .get_mut(&hash_value(&Value::Int(1)))
            .unwrap()
            .push(1);
        let m = qs.matching(&xy(Value::Int(1), Value::Float(0.0))).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0]);
        // An INT anchor on a FLOAT column still meets an equal FLOAT.
        qs.insert_query(2, Some(&cmp("y", Eq, 3i64))).unwrap();
        let m = qs.matching(&xy(Value::Int(5), Value::Float(3.0))).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2]);
    }
}
