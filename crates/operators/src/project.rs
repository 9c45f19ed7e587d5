//! Projection: compute output columns from expressions.

use tcq_common::{ColumnBatch, DataType, Expr, Field, Result, Schema, SchemaRef, Tuple, Value};

/// A projection over expressions, applied to the eddy's output stream.
///
/// Supports `SELECT expr [AS name], ...` including computed columns
/// (`closingPrice * 2`). `SELECT *` is represented by projecting every
/// column reference in order.
pub struct ProjectOp {
    exprs: Vec<tcq_common::BoundExpr>,
    /// Set when every projected expression is a bare column reference:
    /// the input indices to copy, in output order. `apply` then moves
    /// values without walking any expression tree — the compiled-kernel
    /// analogue for projections, where "compilation" collapses to an
    /// index list.
    columns: Option<Vec<usize>>,
    out_schema: SchemaRef,
}

impl ProjectOp {
    /// Build a projection of `exprs` (with optional output names) over
    /// tuples of `input` schema.
    pub fn new(items: &[(Expr, Option<String>)], input: &SchemaRef) -> Result<Self> {
        let mut bound = Vec::with_capacity(items.len());
        let mut fields = Vec::with_capacity(items.len());
        for (i, (expr, alias)) in items.iter().enumerate() {
            bound.push(expr.bind(input)?);
            let dt = expr.data_type(input)?;
            let name = match alias {
                Some(a) => a.clone(),
                None => match expr {
                    Expr::Column { name, .. } => name.clone(),
                    _ => format!("expr{i}"),
                },
            };
            fields.push(Field::new(name, dt));
        }
        let columns = bound
            .iter()
            .map(|b| match b {
                tcq_common::BoundExpr::Column(i) => Some(*i),
                _ => None,
            })
            .collect::<Option<Vec<usize>>>();
        Ok(ProjectOp {
            exprs: bound,
            columns,
            out_schema: Schema::new(fields).into_ref(),
        })
    }

    /// The identity projection (`SELECT *`).
    pub fn star(input: &SchemaRef) -> Result<Self> {
        let items: Vec<(Expr, Option<String>)> = (0..input.len())
            .map(|i| {
                let f = input.field(i);
                let q = input.qualifier(i);
                let e = if q.is_empty() {
                    Expr::col(&f.name)
                } else {
                    Expr::qcol(q, &f.name)
                };
                (e, Some(f.name.clone()))
            })
            .collect();
        ProjectOp::new(&items, input)
    }

    /// The output schema.
    pub fn out_schema(&self) -> &SchemaRef {
        &self.out_schema
    }

    /// Apply to one tuple.
    pub fn apply(&self, tuple: &Tuple) -> Result<Tuple> {
        let values: Vec<Value> = match &self.columns {
            // Column-only projections copy values by index; expression
            // evaluation (and its per-column dispatch) is skipped entirely.
            Some(cols) => cols.iter().map(|&i| tuple.value(i).clone()).collect(),
            None => self
                .exprs
                .iter()
                .map(|e| e.eval(tuple))
                .collect::<Result<Vec<Value>>>()?,
        };
        Ok(Tuple::new_unchecked(
            self.out_schema.clone(),
            values,
            tuple.timestamp(),
        ))
    }

    /// Apply to a whole columnar batch: column-only projections become
    /// whole-column clones (the per-row copy loop disappears entirely).
    /// Returns `None` when an expression column forces row-at-a-time
    /// evaluation — callers fall back to [`ProjectOp::apply`] per row.
    pub fn apply_columnar(&self, batch: &ColumnBatch) -> Option<ColumnBatch> {
        let cols = self.columns.as_ref()?;
        Some(batch.project(cols, self.out_schema.clone()))
    }

    /// Approximate heap footprint in bytes: bound expressions, the column
    /// list and the output schema (top-level allocations only).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let schema = &self.out_schema;
        let names: usize = schema.fields().iter().map(|f| f.name.len()).sum();
        self.exprs.capacity() * size_of::<tcq_common::BoundExpr>()
            + self
                .columns
                .as_ref()
                .map_or(0, |c| c.capacity() * size_of::<usize>())
            + 2 * size_of::<usize>()
            + size_of::<Schema>()
            + schema.len() * (size_of::<Field>() + size_of::<String>())
            + names
    }

    /// Output column types.
    pub fn out_types(&self) -> Vec<DataType> {
        self.out_schema
            .fields()
            .iter()
            .map(|f| f.data_type)
            .collect()
    }
}

/// Convenience: project by column names only.
pub fn project_columns(names: &[&str], input: &SchemaRef) -> Result<ProjectOp> {
    let items: Vec<(Expr, Option<String>)> = names.iter().map(|n| (Expr::col(*n), None)).collect();
    ProjectOp::new(&items, input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{ArithOp, CmpOp, DataType, Field, Schema, Timestamp, TupleBuilder};

    fn schema() -> SchemaRef {
        Schema::qualified(
            "s",
            vec![
                Field::new("timestamp", DataType::Int),
                Field::new("sym", DataType::Str),
                Field::new("price", DataType::Float),
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

    #[test]
    fn paper_projection_price_and_timestamp() {
        // SELECT closingPrice, timestamp FROM ...
        let op = project_columns(&["price", "timestamp"], &schema()).unwrap();
        let out = op.apply(&tick(5, "MSFT", 51.0)).unwrap();
        assert_eq!(out.arity(), 2);
        assert_eq!(out.value(0), &Value::Float(51.0));
        assert_eq!(out.value(1), &Value::Int(5));
        assert_eq!(out.timestamp().seq(), 5);
        assert_eq!(out.schema().field(0).name, "price");
    }

    #[test]
    fn computed_column_with_alias() {
        let doubled = Expr::Arith {
            op: ArithOp::Mul,
            lhs: Box::new(Expr::col("price")),
            rhs: Box::new(Expr::lit(2.0)),
        };
        let op = ProjectOp::new(&[(doubled, Some("doubled".into()))], &schema()).unwrap();
        assert_eq!(op.out_schema().field(0).name, "doubled");
        assert_eq!(op.out_schema().field(0).data_type, DataType::Float);
        let out = op.apply(&tick(1, "MSFT", 10.0)).unwrap();
        assert_eq!(out.value(0), &Value::Float(20.0));
    }

    #[test]
    fn star_projection_is_identity_on_values() {
        let op = ProjectOp::star(&schema()).unwrap();
        let t = tick(3, "IBM", 9.0);
        let out = op.apply(&t).unwrap();
        assert_eq!(out.values(), t.values());
    }

    #[test]
    fn boolean_expression_projects_as_bool() {
        let e = Expr::col("price").cmp(CmpOp::Gt, Expr::lit(50.0));
        let op = ProjectOp::new(&[(e, None)], &schema()).unwrap();
        assert_eq!(op.out_types(), vec![DataType::Bool]);
        let out = op.apply(&tick(1, "MSFT", 60.0)).unwrap();
        assert_eq!(out.value(0), &Value::Bool(true));
    }

    #[test]
    fn unknown_column_rejected() {
        assert!(project_columns(&["volume"], &schema()).is_err());
    }

    #[test]
    fn default_names_for_computed_columns() {
        let e = Expr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(Expr::col("price")),
            rhs: Box::new(Expr::lit(1.0)),
        };
        let op = ProjectOp::new(&[(e, None)], &schema()).unwrap();
        assert_eq!(op.out_schema().field(0).name, "expr0");
    }
}
