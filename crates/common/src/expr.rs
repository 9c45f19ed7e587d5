//! Scalar expressions over tuples.
//!
//! Queries carry [`Expr`] trees (produced by the parser or built
//! programmatically); before execution an expression is *bound* against a
//! concrete [`Schema`], resolving column references to indexes and checking
//! types, yielding a [`BoundExpr`] that evaluates without name lookups.
//!
//! CACQ-style shared processing (§3.1) decomposes each query's predicate
//! "into its individual boolean factors": [`Expr::conjuncts`] splits the
//! top-level AND, and [`Expr::as_single_column_factor`] recognizes the
//! single-variable factors that grouped filters can index.

use std::cmp::Ordering;
use std::convert::Infallible;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Result, TcqError};
use crate::schema::{DataType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an `Ordering`.
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with sides swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// An unbound scalar expression (names not yet resolved).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Literal(Value),
    /// A column reference, optionally qualified (`c1.closingPrice`).
    Column {
        /// Stream/alias qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Comparison of two sub-expressions.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left side.
        lhs: Box<Expr>,
        /// Right side.
        rhs: Box<Expr>,
    },
    /// Arithmetic over two sub-expressions.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left side.
        lhs: Box<Expr>,
        /// Right side.
        rhs: Box<Expr>,
    },
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
}

impl Expr {
    /// A bare column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// A qualified column reference.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// A literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self <op> rhs`.
    pub fn cmp(self, op: CmpOp, rhs: Expr) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// Split the top-level conjunction into boolean factors, in order.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        let Ok(()) = self.try_for_each_conjunct(&mut |e| {
            out.push(e);
            Ok::<_, Infallible>(())
        });
        out
    }

    /// Hand each boolean factor of the top-level conjunction to `f`, in
    /// order, stopping at the first error — [`Expr::conjuncts`] without
    /// collecting them.
    pub fn try_for_each_conjunct<'a, E>(
        &'a self,
        f: &mut impl FnMut(&'a Expr) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        match self {
            Expr::And(a, b) => {
                a.try_for_each_conjunct(f)?;
                b.try_for_each_conjunct(f)
            }
            factor => f(factor),
        }
    }

    /// Rebuild an expression from conjuncts (inverse of [`Expr::conjuncts`];
    /// `None` for an empty list, meaning TRUE).
    pub fn from_conjuncts(mut parts: Vec<Expr>) -> Option<Expr> {
        let first = if parts.is_empty() {
            return None;
        } else {
            parts.remove(0)
        };
        Some(parts.into_iter().fold(first, |acc, e| acc.and(e)))
    }

    /// If this factor is `column <op> literal` (or the mirrored
    /// `literal <op> column`), return `(qualifier, name, op, value)` — the
    /// shape a CACQ grouped filter can index.
    pub fn as_single_column_factor(&self) -> Option<(Option<&str>, &str, CmpOp, &Value)> {
        if let Expr::Cmp { op, lhs, rhs } = self {
            match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Column { qualifier, name }, Expr::Literal(v)) => {
                    Some((qualifier.as_deref(), name, *op, v))
                }
                (Expr::Literal(v), Expr::Column { qualifier, name }) => {
                    Some((qualifier.as_deref(), name, op.flip(), v))
                }
                _ => None,
            }
        } else {
            None
        }
    }

    /// Every column referenced, with qualifiers, in evaluation order.
    pub fn columns(&self) -> Vec<(Option<&str>, &str)> {
        let mut out = Vec::new();
        let Ok(()) = self.try_for_each_column(&mut |q, n| {
            out.push((q, n));
            Ok::<_, Infallible>(())
        });
        out
    }

    /// Hand each column reference to `f` as `(qualifier, name)`, in
    /// evaluation order, stopping at the first error — [`Expr::columns`]
    /// without collecting them.
    pub fn try_for_each_column<'a, E>(
        &'a self,
        f: &mut impl FnMut(Option<&'a str>, &'a str) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        match self {
            Expr::Literal(_) => Ok(()),
            Expr::Column { qualifier, name } => f(qualifier.as_deref(), name),
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                lhs.try_for_each_column(f)?;
                rhs.try_for_each_column(f)
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.try_for_each_column(f)?;
                b.try_for_each_column(f)
            }
            Expr::Not(e) => e.try_for_each_column(f),
        }
    }

    /// Resolve every column reference against `schema` as [`Expr::bind`]
    /// does, failing with the same error on the first unknown or ambiguous
    /// one, without building the bound tree.
    pub fn check_columns(&self, schema: &Schema) -> Result<()> {
        self.try_for_each_column(&mut |q, n| schema.index_of(q, n).map(|_| ()))
    }

    /// Bind column references against `schema`, producing an executable
    /// [`BoundExpr`]. Errors on unknown/ambiguous columns.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Column { qualifier, name } => {
                BoundExpr::Column(schema.index_of(qualifier.as_deref(), name)?)
            }
            Expr::Cmp { op, lhs, rhs } => BoundExpr::Cmp {
                op: *op,
                lhs: Box::new(lhs.bind(schema)?),
                rhs: Box::new(rhs.bind(schema)?),
            },
            Expr::Arith { op, lhs, rhs } => BoundExpr::Arith {
                op: *op,
                lhs: Box::new(lhs.bind(schema)?),
                rhs: Box::new(rhs.bind(schema)?),
            },
            Expr::And(a, b) => BoundExpr::And(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Or(a, b) => BoundExpr::Or(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(schema)?)),
        })
    }

    /// Structural identity with literals compared by [`Value::identical`]:
    /// unlike `==`, `seq + 1` is not identical to `seq + 1.0`, so identical
    /// expressions bind to the same types and evaluate to the same values.
    /// Column names compare as written.
    pub fn identical(&self, other: &Expr) -> bool {
        self.same(other, true)
    }

    /// [`Expr::identical`] with column qualifiers ignored: the same
    /// expression over one source, whatever name or alias the query gave
    /// it.
    pub fn identical_unqualified(&self, other: &Expr) -> bool {
        self.same(other, false)
    }

    fn same(&self, other: &Expr, qualifiers: bool) -> bool {
        match (self, other) {
            (Expr::Literal(a), Expr::Literal(b)) => a.identical(b),
            (
                Expr::Column {
                    qualifier: qa,
                    name: na,
                },
                Expr::Column {
                    qualifier: qb,
                    name: nb,
                },
            ) => (!qualifiers || qa == qb) && na == nb,
            (
                Expr::Cmp {
                    op: oa,
                    lhs: la,
                    rhs: ra,
                },
                Expr::Cmp {
                    op: ob,
                    lhs: lb,
                    rhs: rb,
                },
            ) => oa == ob && la.same(lb, qualifiers) && ra.same(rb, qualifiers),
            (
                Expr::Arith {
                    op: oa,
                    lhs: la,
                    rhs: ra,
                },
                Expr::Arith {
                    op: ob,
                    lhs: lb,
                    rhs: rb,
                },
            ) => oa == ob && la.same(lb, qualifiers) && ra.same(rb, qualifiers),
            (Expr::And(la, ra), Expr::And(lb, rb)) | (Expr::Or(la, ra), Expr::Or(lb, rb)) => {
                la.same(lb, qualifiers) && ra.same(rb, qualifiers)
            }
            (Expr::Not(a), Expr::Not(b)) => a.same(b, qualifiers),
            _ => false,
        }
    }

    /// Feed `state` a hash consistent with [`Expr::identical`].
    pub fn hash_identical<H: Hasher>(&self, state: &mut H) {
        self.hash_same(state, true)
    }

    /// Feed `state` a hash consistent with [`Expr::identical_unqualified`].
    pub fn hash_identical_unqualified<H: Hasher>(&self, state: &mut H) {
        self.hash_same(state, false)
    }

    fn hash_same<H: Hasher>(&self, state: &mut H, qualifiers: bool) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Literal(v) => v.hash_identical(state),
            Expr::Column { qualifier, name } => {
                if qualifiers {
                    qualifier.hash(state);
                }
                name.hash(state);
            }
            Expr::Cmp { op, lhs, rhs } => {
                op.hash(state);
                lhs.hash_same(state, qualifiers);
                rhs.hash_same(state, qualifiers);
            }
            Expr::Arith { op, lhs, rhs } => {
                op.hash(state);
                lhs.hash_same(state, qualifiers);
                rhs.hash_same(state, qualifiers);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.hash_same(state, qualifiers);
                b.hash_same(state, qualifiers);
            }
            Expr::Not(e) => e.hash_same(state, qualifiers),
        }
    }

    /// Infer the result type against a schema without fully binding.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        Ok(match self {
            Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int),
            Expr::Column { qualifier, name } => {
                schema
                    .field(schema.index_of(qualifier.as_deref(), name)?)
                    .data_type
            }
            Expr::Cmp { .. } | Expr::And(..) | Expr::Or(..) | Expr::Not(_) => DataType::Bool,
            Expr::Arith { op, lhs, rhs } => {
                let lt = lhs.data_type(schema)?;
                let rt = rhs.data_type(schema)?;
                if !lt.is_numeric() || !rt.is_numeric() {
                    return Err(TcqError::Type(format!(
                        "arithmetic {op} requires numeric operands, got {lt} and {rt}"
                    )));
                }
                if lt == DataType::Float || rt == DataType::Float || *op == ArithOp::Div {
                    DataType::Float
                } else {
                    DataType::Int
                }
            }
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column {
                qualifier: Some(q),
                name,
            } => write!(f, "{q}.{name}"),
            Expr::Column {
                qualifier: None,
                name,
            } => write!(f, "{name}"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::Arith { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
        }
    }
}

/// An expression bound to a schema: columns are indexes, evaluation is
/// allocation-free for comparisons.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Column by index.
    Column(usize),
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left side.
        lhs: Box<BoundExpr>,
        /// Right side.
        rhs: Box<BoundExpr>,
    },
    /// Arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left side.
        lhs: Box<BoundExpr>,
        /// Right side.
        rhs: Box<BoundExpr>,
    },
    /// Logical AND (three-valued).
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Logical OR (three-valued).
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Logical NOT (three-valued).
    Not(Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluate against a tuple, yielding a [`Value`] (possibly NULL).
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        Ok(match self {
            BoundExpr::Literal(v) => v.clone(),
            BoundExpr::Column(i) => tuple.value(*i).clone(),
            BoundExpr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(tuple)?;
                let r = rhs.eval(tuple)?;
                match l.sql_cmp(&r)? {
                    Some(ord) => Value::Bool(op.matches(ord)),
                    None => Value::Null,
                }
            }
            BoundExpr::Arith { op, lhs, rhs } => {
                let l = lhs.eval(tuple)?;
                let r = rhs.eval(tuple)?;
                match op {
                    ArithOp::Add => l.add(&r)?,
                    ArithOp::Sub => l.sub(&r)?,
                    ArithOp::Mul => l.mul(&r)?,
                    ArithOp::Div => l.div(&r)?,
                }
            }
            BoundExpr::And(a, b) => {
                // Three-valued AND with short-circuit on FALSE.
                match a.eval(tuple)? {
                    Value::Bool(false) => Value::Bool(false),
                    la => match (la, b.eval(tuple)?) {
                        (_, Value::Bool(false)) => Value::Bool(false),
                        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                        (Value::Null, _) | (_, Value::Null) => Value::Null,
                        (l, r) => {
                            return Err(TcqError::Type(format!("AND over {l} and {r}")));
                        }
                    },
                }
            }
            BoundExpr::Or(a, b) => match a.eval(tuple)? {
                Value::Bool(true) => Value::Bool(true),
                la => match (la, b.eval(tuple)?) {
                    (_, Value::Bool(true)) => Value::Bool(true),
                    (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    (l, r) => {
                        return Err(TcqError::Type(format!("OR over {l} and {r}")));
                    }
                },
            },
            BoundExpr::Not(e) => match e.eval(tuple)? {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                v => return Err(TcqError::Type(format!("NOT over {v}"))),
            },
        })
    }

    /// Evaluate as a WHERE predicate: NULL (unknown) filters the tuple out.
    pub fn eval_pred(&self, tuple: &Tuple) -> Result<bool> {
        Ok(match self.eval(tuple)? {
            Value::Bool(b) => b,
            Value::Null => false,
            v => return Err(TcqError::Type(format!("predicate evaluated to {v}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, SchemaRef};
    use crate::time::Timestamp;
    use crate::tuple::TupleBuilder;

    fn schema() -> SchemaRef {
        Schema::qualified(
            "s",
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

    #[test]
    fn paper_predicate_msft_over_50() {
        // WHERE stockSymbol = 'MSFT' AND closingPrice > 50.00
        let pred = Expr::col("stockSymbol")
            .cmp(CmpOp::Eq, Expr::lit("MSFT"))
            .and(Expr::col("closingPrice").cmp(CmpOp::Gt, Expr::lit(50.0)));
        let bound = pred.bind(&schema()).unwrap();
        assert!(bound.eval_pred(&tick(1, "MSFT", 51.0)).unwrap());
        assert!(!bound.eval_pred(&tick(1, "MSFT", 49.0)).unwrap());
        assert!(!bound.eval_pred(&tick(1, "IBM", 99.0)).unwrap());
    }

    #[test]
    fn identical_tells_literal_types_apart_where_eq_does_not() {
        let plus = |v: Value| Expr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(Expr::col("seq")),
            rhs: Box::new(Expr::Literal(v)),
        };
        let hash = |e: &Expr| {
            let mut h = crate::hash::Fnv1a::new();
            e.hash_identical(&mut h);
            h.finish()
        };
        assert_eq!(plus(Value::Int(1)), plus(Value::Float(1.0)));
        assert!(!plus(Value::Int(1)).identical(&plus(Value::Float(1.0))));
        assert!(plus(Value::Int(1)).identical(&plus(Value::Int(1))));
        assert_eq!(hash(&plus(Value::Int(1))), hash(&plus(Value::Int(1))));
        assert!(!Expr::col("a").identical(&Expr::qcol("s", "a")));
        let p = Expr::col("a")
            .cmp(CmpOp::Gt, Expr::lit(2i64))
            .and(Expr::col("b").or(Expr::col("c")));
        assert!(p.identical(&p.clone()));
        assert_eq!(hash(&p), hash(&p.clone()));
    }

    #[test]
    fn unqualified_identity_ignores_only_qualifiers() {
        let hash = |e: &Expr| {
            let mut h = crate::hash::Fnv1a::new();
            e.hash_identical_unqualified(&mut h);
            h.finish()
        };
        let a = Expr::qcol("s", "price").cmp(CmpOp::Gt, Expr::lit(1i64));
        let b = Expr::col("price").cmp(CmpOp::Gt, Expr::lit(1i64));
        assert!(!a.identical(&b));
        assert!(a.identical_unqualified(&b));
        assert_eq!(hash(&a), hash(&b));
        let c = Expr::col("price").cmp(CmpOp::Gt, Expr::lit(1.0));
        assert!(!a.identical_unqualified(&c));
        assert!(!Expr::col("price").identical_unqualified(&Expr::col("Price")));
    }

    #[test]
    fn check_columns_fails_as_bind_does() {
        let s = schema();
        let ok = Expr::col("closingPrice").cmp(CmpOp::Gt, Expr::col("timestamp"));
        assert!(ok.check_columns(&s).is_ok());
        let bad = Expr::col("closingPrice")
            .cmp(CmpOp::Gt, Expr::col("volume"))
            .and(Expr::qcol("t2", "x").cmp(CmpOp::Eq, Expr::lit(1i64)));
        assert_eq!(
            bad.check_columns(&s).unwrap_err().to_string(),
            bad.bind(&s).unwrap_err().to_string()
        );
    }

    #[test]
    fn conjunct_decomposition() {
        let pred = Expr::col("a")
            .cmp(CmpOp::Eq, Expr::lit(1i64))
            .and(Expr::col("b").cmp(CmpOp::Gt, Expr::lit(2i64)))
            .and(Expr::col("c").cmp(CmpOp::Lt, Expr::lit(3i64)));
        let parts = pred.conjuncts();
        assert_eq!(parts.len(), 3);
        let rebuilt = Expr::from_conjuncts(parts.into_iter().cloned().collect::<Vec<_>>()).unwrap();
        assert_eq!(rebuilt, pred);
    }

    #[test]
    fn single_column_factor_detection() {
        let f = Expr::col("closingPrice").cmp(CmpOp::Gt, Expr::lit(50.0));
        let (q, name, op, v) = f.as_single_column_factor().unwrap();
        assert_eq!((q, name, op), (None, "closingPrice", CmpOp::Gt));
        assert_eq!(v, &Value::Float(50.0));

        // mirrored literal-first form flips the operator
        let g = Expr::lit(50.0).cmp(CmpOp::Lt, Expr::col("closingPrice"));
        let (_, name, op, _) = g.as_single_column_factor().unwrap();
        assert_eq!((name, op), ("closingPrice", CmpOp::Gt));

        // join factor is not single-column
        let j = Expr::qcol("c1", "timestamp").cmp(CmpOp::Eq, Expr::qcol("c2", "timestamp"));
        assert!(j.as_single_column_factor().is_none());
    }

    #[test]
    fn three_valued_logic() {
        let s = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        let with_null = Tuple::new(s.clone(), vec![Value::Null], Timestamp::unknown()).unwrap();
        // NULL > 5 is unknown -> filtered out
        let pred = Expr::col("x")
            .cmp(CmpOp::Gt, Expr::lit(5i64))
            .bind(&s)
            .unwrap();
        assert!(!pred.eval_pred(&with_null).unwrap());
        // NULL OR TRUE is TRUE
        let or = Expr::col("x")
            .cmp(CmpOp::Gt, Expr::lit(5i64))
            .or(Expr::lit(true))
            .bind(&s)
            .unwrap();
        assert!(or.eval_pred(&with_null).unwrap());
        // NOT NULL is NULL -> false as predicate
        let not = Expr::Not(Box::new(Expr::col("x").cmp(CmpOp::Eq, Expr::lit(1i64))))
            .bind(&s)
            .unwrap();
        assert!(!not.eval_pred(&with_null).unwrap());
    }

    #[test]
    fn arithmetic_and_type_inference() {
        let s = schema();
        let e = Expr::Arith {
            op: ArithOp::Mul,
            lhs: Box::new(Expr::col("closingPrice")),
            rhs: Box::new(Expr::lit(2i64)),
        };
        assert_eq!(e.data_type(&s).unwrap(), DataType::Float);
        let bound = e.bind(&s).unwrap();
        assert_eq!(
            bound.eval(&tick(1, "MSFT", 10.0)).unwrap(),
            Value::Float(20.0)
        );

        let bad = Expr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(Expr::col("stockSymbol")),
            rhs: Box::new(Expr::lit(1i64)),
        };
        assert!(bad.data_type(&s).is_err());
    }

    #[test]
    fn binding_unknown_column_fails() {
        assert!(Expr::col("volume").bind(&schema()).is_err());
        assert!(Expr::qcol("t2", "timestamp").bind(&schema()).is_err());
    }

    #[test]
    fn band_join_predicate_on_concat_schema() {
        // Paper's temporal band join: c2.closingPrice > c1.closingPrice AND
        // c2.timestamp = c1.timestamp, over the concatenated (c1, c2) schema.
        let c1 = schema().with_qualifier("c1");
        let c2 = schema().with_qualifier("c2");
        let joined = c1.concat(&c2).into_ref();
        let pred = Expr::qcol("c2", "closingPrice")
            .cmp(CmpOp::Gt, Expr::qcol("c1", "closingPrice"))
            .and(Expr::qcol("c2", "timestamp").cmp(CmpOp::Eq, Expr::qcol("c1", "timestamp")));
        let bound = pred.bind(&joined).unwrap();

        let t1 = tick(5, "MSFT", 50.0);
        let t2 = tick(5, "IBM", 60.0);
        let j = t1.concat(&t2, joined.clone());
        assert!(bound.eval_pred(&j).unwrap());
        let j2 = t2.concat(&t1, joined);
        // (c1=IBM@60, c2=MSFT@50): 50 > 60 false
        assert!(!bound.eval_pred(&j2).unwrap());
    }

    #[test]
    fn columns_lists_references() {
        let pred = Expr::qcol("c1", "a").cmp(CmpOp::Eq, Expr::col("b"));
        assert_eq!(pred.columns(), vec![(Some("c1"), "a"), (None, "b")]);
    }

    #[test]
    fn display_roundtrip_readable() {
        let pred = Expr::col("price")
            .cmp(CmpOp::Gt, Expr::lit(50.0))
            .and(Expr::col("sym").cmp(CmpOp::Eq, Expr::lit("MSFT")));
        assert_eq!(pred.to_string(), "((price > 50) AND (sym = 'MSFT'))");
    }
}
