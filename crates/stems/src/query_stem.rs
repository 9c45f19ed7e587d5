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
//! * its first **equality** — a hash *anchor* (`column → constant →
//!   candidate list`): a probe touches only the candidates in the probed
//!   value's bucket, O(bucket);
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
//! list, and an anchor bucket holding one query keeps it inline, so a
//! standing query costs its entry and a bucket slot. A factor whose
//! constant cannot be compared with its column's declared type is refused
//! at registration: left in, it would fail the probe for every standing
//! query.
//!
//! The probe path allocates nothing: per-probe state lives in a
//! caller-supplied [`MatchScratch`] ([`QueryStem::matching_into`]). Neither
//! the stem nor the scratch keeps anything sized by the query ids ever
//! issued (a server never reuses one), only by the standing population —
//! except the scratch's result bitset, at one bit per id.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use tcq_common::{
    hash_table_bytes, BitSet, CmpOp, Expr, IdList, Predicate, Result, SchemaRef, TcqError, Tuple,
    Value,
};

use crate::interval_index::{EpochStats, Interval, IntervalIndex};

/// Identifies a standing query in a [`QueryStem`].
pub type QueryId = usize;

/// Where a query is registered, i.e. what `remove_query` must undo.
enum Access {
    /// Bucketed under `column = constant` in `anchors`.
    Anchor(usize, Value),
    /// In `intervals[column]`, keyed by this lower bound.
    Interval(usize, Option<Value>),
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

struct QueryEntry {
    access: Access,
    /// Factors first, then residuals, at their exact count: a standing
    /// query keeps no spare capacity.
    checks: Box<[Check]>,
}

impl QueryEntry {
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
}

/// Reusable per-probe state for [`QueryStem::matching_into`]. Keeping it
/// outside the stem lets one allocation-free scratch serve every probe of a
/// pipeline; after warm-up no probe allocates.
#[derive(Default)]
pub struct MatchScratch {
    /// Result set; only bits listed in `matched` are ever set.
    alive: BitSet,
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

    /// The matched set of the last probe as a bitset.
    pub fn alive(&self) -> &BitSet {
        &self.alive
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
        self.alive.approx_bytes()
            + (self.matched.capacity() + self.candidates.capacity() + self.failed.capacity())
                * std::mem::size_of::<QueryId>()
    }

    /// Clear the previous probe's result in O(|matches|) — the alive bitset
    /// is never swept whole, so probe cost does not pick up an O(queries/64)
    /// memset as the registered population grows.
    fn begin(&mut self) {
        for q in self.matched.drain(..) {
            self.alive.remove(q);
        }
        self.candidates.clear();
        self.failed.clear();
        self.examined = 0;
    }
}

/// An index over standing queries: probe with a tuple, get satisfied queries.
pub struct QueryStem {
    schema: SchemaRef,
    /// column -> constant -> queries anchored on `column = constant`.
    anchors: HashMap<usize, HashMap<Value, IdList<QueryId>>>,
    /// column -> the intervals of queries whose access path is that column.
    intervals: HashMap<usize, IntervalIndex>,
    /// Queries with neither (always candidates).
    always: Vec<QueryId>,
    queries: HashMap<QueryId, QueryEntry>,
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

impl QueryStem {
    /// An empty query SteM over tuples of `schema`, with residual
    /// predicates compiled to kernels where possible.
    pub fn new(schema: SchemaRef) -> Self {
        QueryStem {
            schema,
            anchors: HashMap::new(),
            intervals: HashMap::new(),
            always: Vec::new(),
            queries: HashMap::new(),
        }
    }

    /// The stream schema queries are registered against.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
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
        debug_assert_eq!(view.len(), self.schema.len(), "a view of another layout");
        let Entry::Vacant(slot) = self.queries.entry(id) else {
            return Err(TcqError::Capacity(format!("query {id} already registered")));
        };
        // Decompose fully (and fallibly) before registering anything, so a
        // bad predicate leaves the stem untouched.
        let mut single: Vec<(usize, CmpOp, Value)> = Vec::new();
        let mut residual = Vec::new();
        for pred in preds {
            pred.try_for_each_conjunct(&mut |factor| {
                match factor.as_single_column_factor() {
                    Some((qual, name, op, constant)) if !constant.is_null() => {
                        let col = view.index_of(qual, name)?;
                        // `verify` compares with `sql_cmp`, which fails on a
                        // class mismatch — and a failed probe stops delivery
                        // for every standing query, not just this one.
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
        let access = if let Some(pos) = single.iter().position(|(_, op, _)| *op == CmpOp::Eq) {
            let (col, _, constant) = single.remove(pos);
            self.anchors
                .entry(col)
                .or_default()
                .entry(constant.clone())
                .and_modify(|ids| ids.push(id))
                .or_insert(IdList::One(id));
            Access::Anchor(col, constant)
        } else if let Some(col) = interval_column(&single) {
            let mut iv = Interval::default();
            single.retain(|(c, op, constant)| {
                let bounds = *c == col && (is_lower(*op) || is_upper(*op));
                if bounds {
                    iv.tighten(*op, constant);
                }
                !bounds
            });
            let lo = iv.lo.clone();
            self.intervals.entry(col).or_default().insert(id, iv);
            Access::Interval(col, lo)
        } else {
            self.always.push(id);
            Access::Always
        };
        let checks = (single.into_iter())
            .map(|(col, op, constant)| Check::Factor(col, op, constant))
            .chain(residual.into_iter().map(Check::Residual))
            .collect();
        slot.insert(QueryEntry { access, checks });
        Ok(())
    }

    /// Remove query `id`; errors if unknown. O(own bucket) for an anchored
    /// query, amortised O(log n) for an interval, never O(registered
    /// queries).
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let entry = self
            .queries
            .remove(&id)
            .ok_or_else(|| TcqError::Executor(format!("query {id} not registered")))?;
        match entry.access {
            Access::Anchor(col, constant) => {
                if let Some(buckets) = self.anchors.get_mut(&col) {
                    if buckets.get_mut(&constant).is_some_and(|ids| ids.remove(id)) {
                        buckets.remove(&constant);
                    }
                    if buckets.is_empty() {
                        self.anchors.remove(&col);
                    }
                }
            }
            Access::Interval(col, lo) => {
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
        Ok(scratch.alive.clone())
    }

    /// Probe with caller-supplied scratch: after the call,
    /// [`MatchScratch::matches`] / [`MatchScratch::alive`] hold the exact
    /// satisfied query set. Allocation-free once the scratch is warm.
    ///
    /// A candidate whose checks cannot be evaluated on `tuple` fails alone:
    /// it is listed in [`MatchScratch::failed`], every other candidate is
    /// still decided, and the first such error is returned.
    pub fn matching_into(&self, tuple: &Tuple, scratch: &mut MatchScratch) -> Result<()> {
        scratch.begin();
        let MatchScratch {
            alive,
            matched,
            candidates,
            failed,
            examined,
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
            if let Some(ids) = buckets.get(v) {
                let ids = ids.as_slice();
                *examined += ids.len();
                candidates.extend_from_slice(ids);
            }
        }
        candidates.extend_from_slice(&self.always);
        let mut first_error = None;
        for &q in candidates.iter() {
            match self.queries[&q].admits(tuple) {
                Ok(true) => {
                    alive.insert(q);
                    matched.push(q);
                }
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

    /// Approximate heap footprint of the stem's index structures in bytes,
    /// hash tables counted by their whole bucket arrays.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let str_heap = |v: &Value| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        };
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
            size_of::<(usize, HashMap<Value, IdList<QueryId>>)>(),
        );
        for buckets in self.anchors.values() {
            b += hash_table_bytes(buckets.capacity(), size_of::<(Value, IdList<QueryId>)>());
            b += (buckets.iter())
                .map(|(k, ids)| str_heap(k) + ids.heap_bytes())
                .sum::<usize>();
        }
        b += hash_table_bytes(self.queries.capacity(), size_of::<(QueryId, QueryEntry)>());
        for e in self.queries.values() {
            b += e.checks.len() * size_of::<Check>();
            b += (e.checks.iter())
                .map(|c| match c {
                    Check::Factor(_, _, v) => str_heap(v),
                    Check::Residual(_) => 0,
                })
                .sum::<usize>();
            b += match &e.access {
                Access::Anchor(_, v) | Access::Interval(_, Some(v)) => str_heap(v),
                _ => 0,
            };
        }
        b
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
        assert_eq!(qs.queries[&0].checks.len(), 1);
        let bucket = |qs: &QueryStem| qs.anchors[&1][&Value::str("MSFT")].clone();
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
            assert_eq!(*scratch.alive(), fresh, "scratch diverged on probe {i}");
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
        // workload that submits and stops one query per batch. Only the
        // id-indexed result bitset may grow, at 1 bit per id.
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
}
