//! Selection modules: single-predicate filters and CACQ grouped filters.

use tcq_common::{
    BitSet, CmpOp, ColumnBatch, ColumnData, ColumnarScratch, Expr, Predicate, Result, SchemaRef,
    TcqError, Tuple, Value,
};
use tcq_stems::GroupedFilter;

use crate::module::ColumnarVerdict;

/// A pipelined selection: passes tuples satisfying a predicate.
///
/// An eddy may route tuples of *several* schemas through the same filter —
/// a filter on `S.x` applies to base `S` tuples and to any join output
/// containing `S` columns, whose column order depends on which side probed.
/// The op therefore keeps the unbound predicate and a per-schema
/// [`Predicate`] cache (schemas are interned by `Arc` pointer, so the
/// cache hit is one hash probe). Each cached predicate is a compiled
/// kernel when the expression's shape allows it, falling back to the
/// tree-walking interpreter otherwise — see [`tcq_common::kernel`].
///
/// An optional artificial cost (in "work units" of busy looping) lets
/// experiments reproduce the expensive-predicate scenarios of the eddies
/// paper \[AH00\], where operator costs differ by orders of magnitude.
pub struct SelectOp {
    name: String,
    pred: Expr,
    bound: std::collections::HashMap<usize, Predicate>,
    cost_units: u64,
    /// Lane buffers reused across columnar batches.
    scratch: ColumnarScratch,
}

impl SelectOp {
    /// Build from an unbound predicate; `schema` is the primary input
    /// schema, bound eagerly so construction surfaces name errors.
    pub fn new(name: impl Into<String>, pred: &Expr, schema: &SchemaRef) -> Result<Self> {
        let mut bound = std::collections::HashMap::new();
        bound.insert(
            std::sync::Arc::as_ptr(schema) as usize,
            Predicate::new(pred, schema)?,
        );
        Ok(SelectOp {
            name: name.into(),
            pred: pred.clone(),
            bound,
            cost_units: 0,
            scratch: ColumnarScratch::new(),
        })
    }

    /// Add an artificial per-tuple cost (busy-loop iterations), for
    /// reproducing expensive-operator workloads.
    pub fn with_cost_units(mut self, units: u64) -> Self {
        self.cost_units = units;
        self
    }

    /// True when the predicate bound to `schema` runs as a compiled kernel.
    pub fn is_compiled_for(&self, schema: &SchemaRef) -> bool {
        self.bound
            .get(&(std::sync::Arc::as_ptr(schema) as usize))
            .is_some_and(|p| p.is_compiled())
    }

    /// Evaluate the predicate against a tuple of any schema the predicate
    /// binds to.
    pub fn matches(&mut self, tuple: &Tuple) -> Result<bool> {
        burn(self.cost_units);
        let key = std::sync::Arc::as_ptr(tuple.schema()) as usize;
        if !self.bound.contains_key(&key) {
            let p = Predicate::new(&self.pred, tuple.schema())?;
            self.bound.insert(key, p);
        }
        self.bound[&key].eval_pred(tuple)
    }
}

impl crate::module::EddyModule for SelectOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, tuple: &Tuple) -> Result<crate::module::Routed> {
        Ok(if self.matches(tuple)? {
            crate::module::Routed::pass()
        } else {
            crate::module::Routed::drop()
        })
    }

    /// Batch filter: the artificial cost is burned once for the whole
    /// batch (same total work) and each distinct schema is bound once,
    /// with consecutive same-schema tuples sharing the cached binding —
    /// the common case, since eddy batches share a lineage signature.
    fn process_batch(
        &mut self,
        tuples: &[Tuple],
        out: &mut Vec<crate::module::Routed>,
    ) -> Result<()> {
        burn(self.cost_units.saturating_mul(tuples.len() as u64));
        for t in tuples {
            let key = std::sync::Arc::as_ptr(t.schema()) as usize;
            if !self.bound.contains_key(&key) {
                let p = Predicate::new(&self.pred, t.schema())?;
                self.bound.insert(key, p);
            }
        }
        out.reserve(tuples.len());
        let mut cached: Option<(usize, &Predicate)> = None;
        for t in tuples {
            let key = std::sync::Arc::as_ptr(t.schema()) as usize;
            let bound = match cached {
                Some((k, b)) if k == key => b,
                _ => {
                    let b = &self.bound[&key];
                    cached = Some((key, b));
                    b
                }
            };
            out.push(if bound.eval_pred(t)? {
                crate::module::Routed::pass()
            } else {
                crate::module::Routed::drop()
            });
        }
        Ok(())
    }

    /// Columnar filter: one vectorized predicate pass over the whole
    /// batch. Claims the batch only when the bound predicate is a
    /// compiled kernel whose opcodes are all lane-compatible with the
    /// batch's column representations (see [`Predicate::eval_columns`]);
    /// anything else falls back to the row path, which burns the
    /// artificial cost itself.
    fn process_columnar(
        &mut self,
        batch: &ColumnBatch,
        _rows: Option<&[Tuple]>,
        keep: &mut Vec<bool>,
    ) -> Result<ColumnarVerdict> {
        let key = std::sync::Arc::as_ptr(batch.schema()) as usize;
        if !self.bound.contains_key(&key) {
            let p = Predicate::new(&self.pred, batch.schema())?;
            self.bound.insert(key, p);
        }
        if self.bound[&key].eval_columns(batch, &mut self.scratch, keep) {
            burn(self.cost_units.saturating_mul(batch.len() as u64));
            Ok(ColumnarVerdict::Filtered)
        } else {
            Ok(ColumnarVerdict::Fallback)
        }
    }
}

/// Spin for roughly `units` cheap iterations; the compiler cannot elide it.
#[inline]
pub(crate) fn burn(units: u64) {
    let mut acc = 0u64;
    for i in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(acc);
    }
}

/// A CACQ grouped-filter module: evaluates the single-column factors of
/// *many* queries in one pass over each tuple (§3.1).
///
/// `process` passes every tuple (shared processing cannot drop a tuple any
/// single query still needs — that decision belongs to the eddy's lineage
/// logic); callers use [`GroupedFilterOp::matching`] to learn which factors
/// a tuple satisfied.
pub struct GroupedFilterOp {
    name: String,
    column: usize,
    filter: GroupedFilter,
    /// Scratch reused across calls; taken by `matching`.
    last_matches: BitSet,
    /// Per-tuple match sets from the last `process_batch` call (buffers
    /// reused across batches).
    batch_matches: Vec<BitSet>,
}

impl GroupedFilterOp {
    /// A grouped filter over `column` of the stream schema.
    pub fn new(name: impl Into<String>, schema: &SchemaRef, column: usize) -> Result<Self> {
        if column >= schema.len() {
            return Err(TcqError::SchemaMismatch(format!(
                "grouped filter column {column} out of range for {schema}"
            )));
        }
        Ok(GroupedFilterOp {
            name: name.into(),
            column,
            filter: GroupedFilter::new(),
            last_matches: BitSet::new(),
            batch_matches: Vec::new(),
        })
    }

    /// Register a factor (see [`GroupedFilter::insert`]).
    pub fn insert_factor(&mut self, id: usize, op: CmpOp, constant: Value) -> Result<()> {
        self.filter.insert(id, op, constant)
    }

    /// Remove a factor.
    pub fn remove_factor(&mut self, id: usize) {
        self.filter.remove(id);
    }

    /// All registered factor ids.
    pub fn owners(&self) -> &BitSet {
        self.filter.owners()
    }

    /// Factors satisfied by the most recently processed tuple.
    pub fn matching(&self) -> &BitSet {
        &self.last_matches
    }

    /// Per-tuple factor matches from the most recent `process_batch`
    /// call, one `BitSet` per tuple in batch order.
    pub fn batch_matching(&self) -> &[BitSet] {
        &self.batch_matches
    }

    /// Probe without going through the module interface.
    pub fn eval(&self, value: &Value, out: &mut BitSet) {
        self.filter.eval(value, out);
    }

    /// Approximate heap footprint of the underlying grouped filter plus the
    /// reusable per-tuple/per-batch match scratch, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.filter.approx_bytes()
            + self.last_matches.approx_bytes()
            + self
                .batch_matches
                .iter()
                .map(|b| b.approx_bytes())
                .sum::<usize>()
            + self.batch_matches.capacity() * std::mem::size_of::<BitSet>()
    }
}

impl crate::module::EddyModule for GroupedFilterOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, tuple: &Tuple) -> Result<crate::module::Routed> {
        self.last_matches.clear();
        self.filter
            .eval(tuple.value(self.column), &mut self.last_matches);
        Ok(crate::module::Routed::pass())
    }

    /// Batch grouped filter: one pass fills a per-tuple match set
    /// (exposed via [`GroupedFilterOp::batch_matching`]); `matching()`
    /// afterwards reflects the batch's last tuple, as if the batch had
    /// been processed tuple-at-a-time.
    fn process_batch(
        &mut self,
        tuples: &[Tuple],
        out: &mut Vec<crate::module::Routed>,
    ) -> Result<()> {
        self.batch_matches.resize_with(tuples.len(), BitSet::new);
        out.reserve(tuples.len());
        for (t, m) in tuples.iter().zip(self.batch_matches.iter_mut()) {
            m.clear();
            self.filter.eval(t.value(self.column), m);
            out.push(crate::module::Routed::pass());
        }
        if let Some(last) = self.batch_matches.last() {
            self.last_matches.clear();
            self.last_matches.union_with(last);
        }
        Ok(())
    }

    /// Columnar grouped filter: probes the factor index straight off the
    /// filter column without materializing rows. Typed numeric/bool cells
    /// reconstruct stack `Value`s for free; `Str` arenas would need a
    /// fresh `Arc<str>` per row, so string columns fall back to the row
    /// path (whose tuples already share the `Arc`).
    fn process_columnar(
        &mut self,
        batch: &ColumnBatch,
        _rows: Option<&[Tuple]>,
        _keep: &mut Vec<bool>,
    ) -> Result<ColumnarVerdict> {
        if self.column >= batch.schema().len() {
            return Ok(ColumnarVerdict::Fallback);
        }
        let col = batch.column(self.column);
        if matches!(col.data(), ColumnData::Str { .. }) {
            return Ok(ColumnarVerdict::Fallback);
        }
        self.batch_matches.resize_with(batch.len(), BitSet::new);
        for (row, m) in self.batch_matches.iter_mut().enumerate() {
            m.clear();
            self.filter.eval(&col.value(row), m);
        }
        if let Some(last) = self.batch_matches.last() {
            self.last_matches.clear();
            self.last_matches.union_with(last);
        }
        Ok(ColumnarVerdict::KeepAll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::EddyModule;
    use tcq_common::{DataType, Field, Schema, Timestamp, TupleBuilder};

    fn schema() -> SchemaRef {
        Schema::qualified(
            "s",
            vec![
                Field::new("sym", DataType::Str),
                Field::new("price", DataType::Float),
            ],
        )
        .into_ref()
    }

    fn tick(sym: &str, price: f64) -> Tuple {
        TupleBuilder::new(schema())
            .push(sym)
            .push(price)
            .at(Timestamp::logical(1))
            .build()
            .unwrap()
    }

    #[test]
    fn select_passes_and_drops() {
        let pred = Expr::col("price").cmp(CmpOp::Gt, Expr::lit(50.0));
        let mut op = SelectOp::new("sel", &pred, &schema()).unwrap();
        assert!(op.process(&tick("MSFT", 60.0)).unwrap().keep);
        assert!(!op.process(&tick("MSFT", 40.0)).unwrap().keep);
    }

    #[test]
    fn select_binding_fails_on_bad_column() {
        let pred = Expr::col("nope").cmp(CmpOp::Gt, Expr::lit(1i64));
        assert!(SelectOp::new("sel", &pred, &schema()).is_err());
    }

    #[test]
    fn grouped_filter_op_tracks_last_matches() {
        let mut op = GroupedFilterOp::new("gf(price)", &schema(), 1).unwrap();
        op.insert_factor(0, CmpOp::Gt, Value::Float(50.0)).unwrap();
        op.insert_factor(1, CmpOp::Lt, Value::Float(50.0)).unwrap();
        let r = op.process(&tick("MSFT", 60.0)).unwrap();
        assert!(r.keep); // grouped filters never drop
        assert_eq!(op.matching().iter().collect::<Vec<_>>(), vec![0]);
        op.process(&tick("MSFT", 40.0)).unwrap();
        assert_eq!(op.matching().iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn grouped_filter_bad_column_rejected() {
        assert!(GroupedFilterOp::new("gf", &schema(), 9).is_err());
    }

    #[test]
    fn select_batch_matches_per_tuple_results() {
        let pred = Expr::col("price").cmp(CmpOp::Gt, Expr::lit(50.0));
        let tuples: Vec<Tuple> = (0..20)
            .map(|i| tick("MSFT", 40.0 + 1.01 * i as f64))
            .collect();
        let mut per = SelectOp::new("sel", &pred, &schema()).unwrap();
        let expect: Vec<bool> = tuples
            .iter()
            .map(|t| per.process(t).unwrap().keep)
            .collect();
        let mut batched = SelectOp::new("sel", &pred, &schema()).unwrap();
        let mut out = Vec::new();
        batched.process_batch(&tuples, &mut out).unwrap();
        assert_eq!(out.iter().map(|r| r.keep).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn grouped_filter_batch_exposes_per_tuple_matches() {
        let mut op = GroupedFilterOp::new("gf(price)", &schema(), 1).unwrap();
        op.insert_factor(0, CmpOp::Gt, Value::Float(50.0)).unwrap();
        op.insert_factor(1, CmpOp::Lt, Value::Float(50.0)).unwrap();
        let tuples = vec![tick("A", 60.0), tick("B", 40.0), tick("C", 70.0)];
        let mut out = Vec::new();
        op.process_batch(&tuples, &mut out).unwrap();
        assert!(out.iter().all(|r| r.keep));
        let per_tuple: Vec<Vec<usize>> = op
            .batch_matching()
            .iter()
            .map(|m| m.iter().collect())
            .collect();
        assert_eq!(per_tuple, vec![vec![0], vec![1], vec![0]]);
        // matching() reflects the batch's last tuple.
        assert_eq!(op.matching().iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn compiled_select_agrees_with_the_interpreter() {
        let s = schema();
        let pred = Expr::col("price")
            .cmp(CmpOp::Gt, Expr::lit(50.0))
            .and(Expr::col("sym").cmp(CmpOp::Ne, Expr::lit("HALT")));
        let mut compiled = SelectOp::new("sel", &pred, &s).unwrap();
        assert!(compiled.is_compiled_for(&s));
        let interp = pred.bind(&s).unwrap();
        let mut rng = tcq_common::rng::seeded(0x5E1E);
        for i in 0..300 {
            let sym = ["MSFT", "HALT"][rng.gen_range(0..2usize)];
            let t = TupleBuilder::new(s.clone())
                .push(sym)
                .push(rng.gen_range(0.0..100.0))
                .at(Timestamp::logical(i))
                .build()
                .unwrap();
            assert_eq!(
                compiled.matches(&t).unwrap(),
                interp.eval_pred(&t).unwrap(),
                "divergence on {t:?}"
            );
        }
    }

    #[test]
    fn columnar_select_matches_row_path() {
        let pred = Expr::col("price")
            .cmp(CmpOp::Gt, Expr::lit(50.0))
            .and(Expr::col("sym").cmp(CmpOp::Ne, Expr::lit("HALT")));
        let mut rng = tcq_common::rng::seeded(0xC0_5E1E);
        let tuples: Vec<Tuple> = (0..200)
            .map(|_| {
                let sym = ["MSFT", "HALT"][rng.gen_range(0..2usize)];
                tick(sym, rng.gen_range(0.0..100.0))
            })
            .collect();
        let mut per = SelectOp::new("sel", &pred, &schema()).unwrap();
        let expect: Vec<bool> = tuples
            .iter()
            .map(|t| per.process(t).unwrap().keep)
            .collect();
        let batch = ColumnBatch::from_tuples(schema(), &tuples, None);
        let mut columnar = SelectOp::new("sel", &pred, &schema()).unwrap();
        let mut keep = Vec::new();
        match columnar.process_columnar(&batch, None, &mut keep).unwrap() {
            ColumnarVerdict::Filtered => {}
            v => panic!("compiled predicate over typed columns must claim the batch, got {v:?}"),
        }
        assert_eq!(keep, expect);
        // A shape outside the kernel grammar (arithmetic inside the
        // comparison) stays interpreted, which has no columnar lowering:
        // fall back to rows.
        let arith = Expr::Arith {
            op: tcq_common::ArithOp::Mul,
            lhs: Box::new(Expr::col("price")),
            rhs: Box::new(Expr::lit(2.0)),
        }
        .cmp(CmpOp::Gt, Expr::lit(100.0));
        let s = schema();
        let mut interp = SelectOp::new("sel", &arith, &s).unwrap();
        assert!(!interp.is_compiled_for(&s));
        keep.clear();
        assert!(matches!(
            interp.process_columnar(&batch, None, &mut keep).unwrap(),
            ColumnarVerdict::Fallback
        ));
    }

    #[test]
    fn columnar_grouped_filter_matches_row_path() {
        let mut rng = tcq_common::rng::seeded(0xC0_6F17);
        let tuples: Vec<Tuple> = (0..100)
            .map(|_| tick("X", rng.gen_range(0.0..100.0)))
            .collect();
        let mk = || {
            let mut op = GroupedFilterOp::new("gf(price)", &schema(), 1).unwrap();
            op.insert_factor(0, CmpOp::Gt, Value::Float(50.0)).unwrap();
            op.insert_factor(1, CmpOp::Lt, Value::Float(50.0)).unwrap();
            op.insert_factor(2, CmpOp::Le, Value::Float(75.0)).unwrap();
            op
        };
        let mut row = mk();
        let mut out = Vec::new();
        row.process_batch(&tuples, &mut out).unwrap();
        let expect: Vec<Vec<usize>> = row
            .batch_matching()
            .iter()
            .map(|m| m.iter().collect())
            .collect();
        let batch = ColumnBatch::from_tuples(schema(), &tuples, None);
        let mut col = mk();
        match col.process_columnar(&batch, None, &mut Vec::new()).unwrap() {
            ColumnarVerdict::KeepAll => {}
            v => panic!("grouped filters pass every tuple, got {v:?}"),
        }
        let got: Vec<Vec<usize>> = col
            .batch_matching()
            .iter()
            .map(|m| m.iter().collect())
            .collect();
        assert_eq!(got, expect);
        assert_eq!(
            col.matching().iter().collect::<Vec<_>>(),
            row.matching().iter().collect::<Vec<_>>(),
            "matching() reflects the batch's last tuple either way"
        );
        // String filter columns fall back (cell reconstruction would
        // allocate an Arc per row).
        let mut on_sym = GroupedFilterOp::new("gf(sym)", &schema(), 0).unwrap();
        on_sym.insert_factor(0, CmpOp::Eq, Value::str("X")).unwrap();
        assert!(matches!(
            on_sym
                .process_columnar(&batch, None, &mut Vec::new())
                .unwrap(),
            ColumnarVerdict::Fallback
        ));
    }

    #[test]
    fn cost_units_burn_without_changing_semantics() {
        let pred = Expr::col("price").cmp(CmpOp::Gt, Expr::lit(50.0));
        let mut op = SelectOp::new("sel", &pred, &schema())
            .unwrap()
            .with_cost_units(1000);
        assert!(op.process(&tick("MSFT", 60.0)).unwrap().keep);
    }
}
