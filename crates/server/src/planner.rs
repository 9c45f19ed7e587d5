//! Physical planning: from [`AnalyzedQuery`] to a DU shape.
//!
//! TelegraphCQ "parses, analyzes, and optimizes [a query] into an adaptive
//! plan, that is, a plan that includes the adaptive operators described in
//! Section 2" (§4.2.1). The planner here decides *which execution mode*
//! (§4.2.2) a query runs in and prepares the pieces; the server assembles
//! the DU and submits it under the query's footprint class.

use tcq_common::{Expr, Result, TcqError};
use tcq_operators::{AggFunc, AggSpec};
use tcq_query::AnalyzedQuery;
use tcq_windows::{classify, WindowKind};

use crate::plans::ResolvedAgg;

/// Which execution mode a query runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Single stream, scalar projection: joins the stream's shared CACQ
    /// filter pass, run by its dispatcher.
    SharedFilter,
    /// Single stream with aggregates: a window driver run by the stream's
    /// dispatcher.
    Aggregate,
    /// Multi-source equi-join: an eddy DU (its join group's, or its own).
    Join,
    /// Snapshot/backward windows over history: answered from the stream
    /// archive at submission time, then closed.
    Historical,
}

/// Decide the execution mode.
pub fn plan_kind(aq: &AnalyzedQuery) -> Result<PlanKind> {
    if aq.is_join() {
        if !aq.aggregates.is_empty() {
            return Err(TcqError::Analysis(
                "aggregates over joins are not yet supported".into(),
            ));
        }
        if let Some(w) = &aq.window {
            match classify(w)? {
                WindowKind::Snapshot | WindowKind::Backward => {
                    return Err(TcqError::Analysis(
                        "historical (snapshot/backward) windows over joins are not supported; \
                         use a single-stream historical query per side"
                            .into(),
                    ))
                }
                _ => {}
            }
        }
        return Ok(PlanKind::Join);
    }
    if let Some(w) = &aq.window {
        match classify(w)? {
            WindowKind::Snapshot | WindowKind::Backward => return Ok(PlanKind::Historical),
            _ => {}
        }
    }
    if aq.aggregates.is_empty() {
        Ok(PlanKind::SharedFilter)
    } else {
        Ok(PlanKind::Aggregate)
    }
}

/// Remove source qualifiers from every column reference — safe for
/// single-source queries, whose DUs run against the stream's base schema
/// regardless of the alias the query used.
pub fn strip_qualifiers(expr: &Expr) -> Expr {
    match expr {
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Column { name, .. } => Expr::col(name.clone()),
        Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
            op: *op,
            lhs: Box::new(strip_qualifiers(lhs)),
            rhs: Box::new(strip_qualifiers(rhs)),
        },
        Expr::Arith { op, lhs, rhs } => Expr::Arith {
            op: *op,
            lhs: Box::new(strip_qualifiers(lhs)),
            rhs: Box::new(strip_qualifiers(rhs)),
        },
        Expr::And(a, b) => Expr::And(Box::new(strip_qualifiers(a)), Box::new(strip_qualifiers(b))),
        Expr::Or(a, b) => Expr::Or(Box::new(strip_qualifiers(a)), Box::new(strip_qualifiers(b))),
        Expr::Not(e) => Expr::Not(Box::new(strip_qualifiers(e))),
    }
}

/// The conjunction of a single-source query's factors, qualifier-stripped.
pub fn stripped_predicate(aq: &AnalyzedQuery) -> Option<Expr> {
    let parts: Vec<Expr> = aq
        .single_factors
        .iter()
        .map(|(_, f)| strip_qualifiers(f))
        .collect();
    Expr::from_conjuncts(parts)
}

/// The conjunction of factors owned by one source of a (join) query,
/// qualifiers preserved (join DUs see alias-qualified tuples).
pub fn source_predicate(aq: &AnalyzedQuery, source: usize) -> Option<Expr> {
    let parts: Vec<Expr> = aq
        .single_factors
        .iter()
        .filter(|(s, _)| *s == source)
        .map(|(_, f)| f.clone())
        .collect();
    Expr::from_conjuncts(parts)
}

/// Resolve the SELECT list's aggregates against the (single) source's base
/// schema. Arguments must be bare columns (the paper's examples all are).
pub fn resolve_aggregates(aq: &AnalyzedQuery) -> Result<Vec<ResolvedAgg>> {
    let schema = &aq.sources[0].def.schema;
    let mut out = Vec::with_capacity(aq.aggregates.len());
    for item in &aq.aggregates {
        let func = AggFunc::parse(&item.func)
            .ok_or_else(|| TcqError::Analysis(format!("unknown aggregate {}", item.func)))?;
        let spec = match &item.arg {
            None => AggSpec::count_star(),
            Some(Expr::Column { name, .. }) => AggSpec::over(func, schema.index_of(None, name)?),
            Some(other) => {
                return Err(TcqError::Analysis(format!(
                    "aggregate arguments must be bare columns, got {other}"
                )))
            }
        };
        out.push(ResolvedAgg {
            spec,
            name: item.name.clone(),
        });
    }
    Ok(out)
}

/// The sliding-window width to bound join state with, per source alias:
/// `Some(width)` for sliding/hopping windows, `None` (unbounded) for
/// landmark and for static tables.
pub fn join_window_width(aq: &AnalyzedQuery, alias: &str) -> Result<Option<i64>> {
    let Some(w) = &aq.window else { return Ok(None) };
    let Some(wi) = w
        .windows
        .iter()
        .find(|wi| wi.stream.eq_ignore_ascii_case(alias))
    else {
        return Ok(None);
    };
    match classify(w)? {
        WindowKind::Sliding { .. } => {
            // width from the WindowIs at its first instantiation; for the
            // linear windows we support, width is t-independent when both
            // coefficients match.
            let t0 = 0;
            Ok(Some(wi.right.eval(t0, 0) - wi.left.eval(t0, 0) + 1))
        }
        WindowKind::Landmark | WindowKind::Fixed => Ok(None),
        WindowKind::Snapshot | WindowKind::Backward => Ok(None),
    }
}

/// Can this join share a DU with other join queries (CACQ, §3.1)? On an
/// unpartitioned server, when it joins two distinct streams on one
/// equi-join pair. Whatever else tells two such joins apart is part of the
/// group key (windows, loop bounds) or completed per query (predicates,
/// projection).
pub fn shareable_join(aq: &AnalyzedQuery, partitions: usize) -> bool {
    partitions == 1
        && aq.sources.len() == 2
        && aq.join_pairs.len() == 1
        && !aq.sources[0].name.eq_ignore_ascii_case(&aq.sources[1].name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{Catalog, CmpOp, DataType, Field, Schema, SourceKind};
    use tcq_query::{analyze, parse};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let stock = Schema::new(vec![
            Field::new("timestamp", DataType::Int),
            Field::new("stockSymbol", DataType::Str),
            Field::new("closingPrice", DataType::Float),
        ])
        .into_ref();
        c.register("ClosingStockPrices", stock, SourceKind::PushStream)
            .unwrap();
        c
    }

    fn analyzed(src: &str) -> AnalyzedQuery {
        analyze(&parse(src).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn plan_kinds() {
        assert_eq!(
            plan_kind(&analyzed("SELECT * FROM ClosingStockPrices")).unwrap(),
            PlanKind::SharedFilter
        );
        assert_eq!(
            plan_kind(&analyzed(
                "SELECT AVG(closingPrice) FROM ClosingStockPrices"
            ))
            .unwrap(),
            PlanKind::Aggregate
        );
        assert_eq!(
            plan_kind(&analyzed(
                "SELECT closingPrice, timestamp FROM ClosingStockPrices \
                 WHERE stockSymbol = 'MSFT' \
                 for (; t==0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }"
            ))
            .unwrap(),
            PlanKind::Historical
        );
        assert_eq!(
            plan_kind(&analyzed(
                "SELECT c2.* FROM ClosingStockPrices c1, ClosingStockPrices c2 \
                 WHERE c1.timestamp = c2.timestamp \
                 for (t = ST; t >= 0; t++) { WindowIs(c1, t-4, t); WindowIs(c2, t-4, t); }"
            ))
            .unwrap(),
            PlanKind::Join
        );
    }

    #[test]
    fn strip_qualifiers_rewrites_columns() {
        let e = Expr::qcol("s", "price").cmp(CmpOp::Gt, Expr::lit(1.0));
        let s = strip_qualifiers(&e);
        assert_eq!(s, Expr::col("price").cmp(CmpOp::Gt, Expr::lit(1.0)));
    }

    #[test]
    fn stripped_predicate_conjunction() {
        let aq = analyzed(
            "SELECT * FROM ClosingStockPrices s \
             WHERE s.stockSymbol = 'MSFT' AND s.closingPrice > 50.0",
        );
        let pred = stripped_predicate(&aq).unwrap();
        assert_eq!(pred.conjuncts().len(), 2);
        assert!(pred.columns().iter().all(|(q, _)| q.is_none()));
    }

    #[test]
    fn resolve_aggregates_paper_query() {
        let aq = analyzed(
            "SELECT AVG(closingPrice), COUNT(*) FROM ClosingStockPrices \
             WHERE stockSymbol = 'MSFT'",
        );
        let aggs = resolve_aggregates(&aq).unwrap();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].spec.column, Some(2));
        assert_eq!(aggs[1].spec.column, None);
    }

    #[test]
    fn sliding_window_width() {
        let aq = analyzed(
            "SELECT c2.* FROM ClosingStockPrices c1, ClosingStockPrices c2 \
             WHERE c1.timestamp = c2.timestamp \
             for (t = ST; t >= 0; t++) { WindowIs(c1, t-4, t); WindowIs(c2, t-4, t); }",
        );
        assert_eq!(join_window_width(&aq, "c1").unwrap(), Some(5));
        assert_eq!(join_window_width(&aq, "nope").unwrap(), None);
    }

    #[test]
    fn aggregate_over_join_rejected() {
        let aq = analyzed(
            "SELECT COUNT(*) FROM ClosingStockPrices c1, ClosingStockPrices c2 \
             WHERE c1.timestamp = c2.timestamp \
             for (t = ST; t >= 0; t++) { WindowIs(c1, t-4, t); WindowIs(c2, t-4, t); }",
        );
        assert!(plan_kind(&aq).is_err());
    }
}
