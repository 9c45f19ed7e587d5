//! The selection module: a single-predicate filter.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use tcq_common::{ColumnBatch, ColumnarScratch, Expr, Predicate, Result, SchemaRef, Tuple};

use crate::module::ColumnarVerdict;

/// A pipelined selection: passes tuples satisfying a predicate.
///
/// An eddy may route tuples of *several* schemas through the same filter —
/// a filter on `S.x` applies to base `S` tuples and to any join output
/// containing `S` columns, whose column order depends on which side probed.
/// The op therefore keeps the unbound predicate and a per-schema
/// [`Predicate`] cache keyed by `Arc` address, so the cache hit is one
/// hash probe; each entry holds its schema, so no other schema can be
/// allocated at that address while the entry lives. Each cached predicate
/// is a compiled kernel when the expression's shape allows it, falling
/// back to the tree-walking interpreter otherwise — see
/// [`tcq_common::kernel`].
///
/// An optional artificial cost (in "work units" of busy looping) lets
/// experiments reproduce the expensive-predicate scenarios of the eddies
/// paper \[AH00\], where operator costs differ by orders of magnitude.
pub struct SelectOp {
    name: String,
    pred: Expr,
    bound: HashMap<usize, (SchemaRef, Predicate)>,
    cost_units: u64,
    /// Lane buffers reused across columnar batches.
    scratch: ColumnarScratch,
}

impl SelectOp {
    /// Build from an unbound predicate; `schema` is the primary input
    /// schema, bound eagerly so construction surfaces name errors.
    pub fn new(name: impl Into<String>, pred: &Expr, schema: &SchemaRef) -> Result<Self> {
        let mut op = SelectOp {
            name: name.into(),
            pred: pred.clone(),
            bound: HashMap::new(),
            cost_units: 0,
            scratch: ColumnarScratch::new(),
        };
        bind(&mut op.bound, &op.pred, schema)?;
        Ok(op)
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
            .get(&(Arc::as_ptr(schema) as usize))
            .is_some_and(|(_, p)| p.is_compiled())
    }

    /// Evaluate the predicate against a tuple of any schema the predicate
    /// binds to.
    pub fn matches(&mut self, tuple: &Tuple) -> Result<bool> {
        burn(self.cost_units);
        bind(&mut self.bound, &self.pred, tuple.schema())?.eval_pred(tuple)
    }
}

/// The predicate bound to `schema`, binding it on first sight.
fn bind<'a>(
    bound: &'a mut HashMap<usize, (SchemaRef, Predicate)>,
    pred: &Expr,
    schema: &SchemaRef,
) -> Result<&'a Predicate> {
    let (held, p) = match bound.entry(Arc::as_ptr(schema) as usize) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert((schema.clone(), Predicate::new(pred, schema)?)),
    };
    debug_assert!(Arc::ptr_eq(held, schema), "predicate of another schema");
    Ok(p)
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
            bind(&mut self.bound, &self.pred, t.schema())?;
        }
        out.reserve(tuples.len());
        let mut cached: Option<(usize, &Predicate)> = None;
        for t in tuples {
            let key = Arc::as_ptr(t.schema()) as usize;
            let bound = match cached {
                Some((k, b)) if k == key => b,
                _ => {
                    let b = &self.bound[&key].1;
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
        let bound = bind(&mut self.bound, &self.pred, batch.schema())?;
        if bound.eval_columns(batch, &mut self.scratch, keep) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::EddyModule;
    use tcq_common::{CmpOp, DataType, Field, Schema, Timestamp, TupleBuilder, Value};

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

    /// The binding cache must not key on an address a freed schema can
    /// hand to a new one: the new schema's tuples would be filtered on the
    /// old schema's column.
    #[test]
    fn a_recycled_schema_address_gets_a_fresh_binding() {
        let pred = Expr::col("x").cmp(CmpOp::Gt, Expr::lit(5i64));
        let a = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        let a_addr = Arc::as_ptr(&a) as usize;
        let mut op = SelectOp::new("sel", &pred, &a).unwrap();
        assert!(op
            .matches(&TupleBuilder::new(a).push(10i64).build().unwrap())
            .unwrap());
        // Schema A is gone. B has four fields, so none of its own buffers
        // is the size of a schema allocation and its `Arc` can land on A's
        // freed block; misses are held so each retry gets a fresh address.
        let mut misses = Vec::new();
        let b = loop {
            let mut fields: Vec<Field> = (0..3)
                .map(|i| Field::new(format!("pad{i}"), DataType::Int))
                .collect();
            fields.push(Field::new("x", DataType::Int));
            let b = Schema::new(fields).into_ref();
            if Arc::as_ptr(&b) as usize == a_addr || misses.len() == 64 {
                break b;
            }
            misses.push(b);
        };
        let row = [10, 10, 10, 0].map(Value::Int).to_vec();
        let t = Tuple::new(b, row, Timestamp::unknown()).unwrap();
        assert!(!op.matches(&t).unwrap(), "x = 0 must fail x > 5");
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
