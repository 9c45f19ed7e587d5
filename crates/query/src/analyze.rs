//! Semantic analysis: name resolution, conjunct classification, type checks.
//!
//! The analyzer turns a parsed [`SelectStmt`] into an [`AnalyzedQuery`]: the
//! form the executor's planner consumes. Its most important job is the CACQ
//! decomposition (§3.1): the WHERE clause is split into boolean factors and
//! each factor classified as
//!
//! * a **single-source factor** (candidate for grouped filters / SelectOps
//!   on that source's tuples),
//! * an **equi-join pair** (candidate for a SteM pair), or
//! * a **cross factor** (band predicates etc. — a filter over joined
//!   tuples).

use std::sync::Arc;

use tcq_common::{Catalog, CmpOp, Expr, Result, Schema, SchemaRef, StreamDef, TcqError};
use tcq_windows::ForLoop;

use crate::ast::{SelectItem, SelectStmt};

/// A FROM-clause source resolved against the catalog.
#[derive(Debug, Clone)]
pub struct BoundSource {
    /// Catalog name.
    pub name: String,
    /// Effective qualifier (alias or name).
    pub alias: String,
    /// Catalog entry, shared with the catalog.
    pub def: Arc<StreamDef>,
    /// The source's schema, re-qualified by the alias (the catalog's own
    /// qualified schema when the query names the source as registered).
    pub schema: SchemaRef,
    /// Whether the query windows this source (un-windowed stream inputs
    /// default to static tables / unbounded landmark semantics, §4.1.1).
    pub windowed: bool,
}

/// An equi-join boolean factor between two sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPair {
    /// Index of the left source in [`AnalyzedQuery::sources`].
    pub left: usize,
    /// Join column in the left source's schema.
    pub left_col: usize,
    /// Index of the right source.
    pub right: usize,
    /// Join column in the right source's schema.
    pub right_col: usize,
}

/// One aggregate of the SELECT list.
#[derive(Debug, Clone)]
pub struct AggItem {
    /// Upper-cased function name (COUNT/SUM/AVG/MIN/MAX).
    pub func: String,
    /// Argument (`None` = `COUNT(*)`).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

/// The analyzer's output: everything the planner needs.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// Resolved FROM sources, in order.
    pub sources: Vec<BoundSource>,
    /// Concatenation of all source schemas (the widest tuple shape).
    pub combined_schema: SchemaRef,
    /// Factors referencing exactly one source: `(source index, factor)`.
    pub single_factors: Vec<(usize, Expr)>,
    /// Equi-join factors.
    pub join_pairs: Vec<JoinPair>,
    /// Remaining multi-source factors (e.g. band predicates).
    pub cross_factors: Vec<Expr>,
    /// Scalar projection (star-expanded); empty iff the query aggregates.
    pub projection: Vec<(Expr, Option<String>)>,
    /// Aggregates of the SELECT list.
    pub aggregates: Vec<AggItem>,
    /// GROUP BY column resolved to (source index, column index).
    pub group_by: Option<(usize, usize)>,
    /// The window clause.
    pub window: Option<ForLoop>,
}

impl AnalyzedQuery {
    /// True when the query joins two or more sources.
    pub fn is_join(&self) -> bool {
        self.sources.len() > 1
    }

    /// The source index for a qualifier.
    pub fn source_index(&self, qualifier: &str) -> Option<usize> {
        self.sources
            .iter()
            .position(|s| s.alias.eq_ignore_ascii_case(qualifier))
    }
}

/// Analyze a parsed statement against the catalog.
pub fn analyze(stmt: &SelectStmt, catalog: &Catalog) -> Result<AnalyzedQuery> {
    if stmt.from.is_empty() {
        return Err(TcqError::Analysis("query has no FROM source".into()));
    }
    // 1. Resolve sources.
    let mut sources: Vec<BoundSource> = Vec::with_capacity(stmt.from.len());
    for f in &stmt.from {
        let def = catalog.lookup(&f.name)?;
        let alias = f.qualifier();
        if sources.iter().any(|s| s.alias.eq_ignore_ascii_case(alias)) {
            return Err(TcqError::Analysis(format!(
                "duplicate source alias '{alias}' (self-joins need distinct aliases)"
            )));
        }
        let schema = if alias == def.name {
            Arc::clone(&def.qualified)
        } else {
            def.schema.with_qualifier(alias).into_ref()
        };
        sources.push(BoundSource {
            name: f.name.clone(),
            alias: alias.to_string(),
            def,
            schema,
            windowed: false,
        });
    }

    // 2. Window clause: WindowIs streams must be sources; mark them.
    if let Some(w) = &stmt.window {
        for wi in &w.windows {
            match sources
                .iter_mut()
                .find(|s| s.alias.eq_ignore_ascii_case(&wi.stream))
            {
                Some(s) => s.windowed = true,
                None => {
                    return Err(TcqError::Analysis(format!(
                        "WindowIs references '{}', which is not a FROM source",
                        wi.stream
                    )))
                }
            }
        }
        // The spec itself must be well-formed (e.g. classifiable).
        tcq_windows::spec::classify(w)?;
    }
    for s in &sources {
        if s.def.kind.is_stream() && !s.windowed && sources.len() > 1 {
            return Err(TcqError::Analysis(format!(
                "stream '{}' participates in a join without a WindowIs: joins over \
                 unbounded streams require finite windows (§4.1)",
                s.alias
            )));
        }
    }

    // 3. Combined schema: a single source's own.
    let combined_schema = match &sources[..] {
        [one] => Arc::clone(&one.schema),
        _ => (sources[1..].iter())
            .fold(Schema::clone(&sources[0].schema), |acc, s| {
                acc.concat(&s.schema)
            })
            .into_ref(),
    };

    // 4. Classify WHERE factors.
    let mut single_factors = Vec::new();
    let mut join_pairs = Vec::new();
    let mut cross_factors = Vec::new();
    if let Some(pred) = &stmt.where_clause {
        // Every column must resolve (surface unknown names early).
        pred.check_columns(&combined_schema)?;
        pred.try_for_each_conjunct(&mut |factor| {
            // The sources the factor reads: the first two, and whether
            // there are more.
            let mut owners = [None, None];
            let mut more = false;
            factor.try_for_each_column(&mut |q, name| {
                let idx = Some(resolve_source(&sources, q, name)?);
                if owners[0].is_none() {
                    owners[0] = idx;
                } else if owners[0] != idx && owners[1].is_none() {
                    owners[1] = idx;
                } else if owners[0] != idx && owners[1] != idx {
                    more = true;
                }
                Ok::<_, TcqError>(())
            })?;
            match owners {
                [first, None] => {
                    // Constant factors attach to the first source.
                    single_factors.push((first.unwrap_or(0), factor.clone()));
                }
                [Some(_), Some(_)] if !more => {
                    if let Some(jp) = as_join_pair(factor, &sources)? {
                        join_pairs.push(jp);
                    } else {
                        cross_factors.push(factor.clone());
                    }
                }
                _ => cross_factors.push(factor.clone()),
            }
            Ok::<_, TcqError>(())
        })?;
    }
    if sources.len() > 1 && join_pairs.is_empty() {
        return Err(TcqError::Analysis(
            "multi-source query needs at least one equi-join predicate \
             (cartesian products over streams are not supported)"
                .into(),
        ));
    }

    // 5. Projection / aggregates.
    let mut projection = Vec::with_capacity(stmt.items.len());
    let mut aggregates = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                for s in &sources {
                    push_source_columns(s, &mut projection);
                }
            }
            SelectItem::QualifiedStar(q) => {
                let idx = sources
                    .iter()
                    .position(|s| s.alias.eq_ignore_ascii_case(q))
                    .ok_or_else(|| {
                        TcqError::Analysis(format!("'{q}.*' references unknown source"))
                    })?;
                push_source_columns(&sources[idx], &mut projection);
            }
            SelectItem::Expr { expr, alias } => {
                expr.data_type(&combined_schema)?; // type-check
                projection.push((expr.clone(), alias.clone()));
            }
            SelectItem::Agg { func, arg, alias } => {
                if let Some(a) = arg {
                    let dt = a.data_type(&combined_schema)?;
                    if matches!(func.as_str(), "SUM" | "AVG") && !dt.is_numeric() {
                        return Err(TcqError::Analysis(format!(
                            "{func} requires a numeric argument, got {dt}"
                        )));
                    }
                }
                let name = alias
                    .clone()
                    .unwrap_or_else(|| format!("{}_{i}", func.to_lowercase()));
                aggregates.push(AggItem {
                    func: func.clone(),
                    arg: arg.clone(),
                    name,
                });
            }
        }
    }
    if !aggregates.is_empty() {
        // SQL rule: non-aggregate items must be the GROUP BY column.
        for (e, _) in &projection {
            match (e, &stmt.group_by) {
                (Expr::Column { qualifier, name }, Some((gq, gn)))
                    if name.eq_ignore_ascii_case(gn)
                        && (qualifier.is_none()
                            || gq.is_none()
                            || qualifier
                                .as_deref()
                                .unwrap()
                                .eq_ignore_ascii_case(gq.as_deref().unwrap())) => {}
                _ => {
                    return Err(TcqError::Analysis(format!(
                        "non-aggregate select item '{e}' must appear in GROUP BY"
                    )))
                }
            }
        }
    }

    // 6. GROUP BY resolution.
    let group_by = match &stmt.group_by {
        Some((q, name)) => {
            let src = resolve_source(&sources, q.as_deref(), name)?;
            let col = sources[src].schema.index_of(q.as_deref(), name)?;
            if aggregates.is_empty() {
                return Err(TcqError::Analysis(
                    "GROUP BY without aggregates is not supported".into(),
                ));
            }
            Some((src, col))
        }
        None => None,
    };

    Ok(AnalyzedQuery {
        sources,
        combined_schema,
        single_factors,
        join_pairs,
        cross_factors,
        projection,
        aggregates,
        group_by,
        window: stmt.window.clone(),
    })
}

fn push_source_columns(s: &BoundSource, projection: &mut Vec<(Expr, Option<String>)>) {
    for f in s.schema.fields() {
        projection.push((Expr::qcol(&s.alias, &f.name), Some(f.name.clone())));
    }
}

/// Which source owns column `(qualifier, name)`? Errors on unknown or
/// (for unqualified names) ambiguous references.
fn resolve_source(sources: &[BoundSource], qualifier: Option<&str>, name: &str) -> Result<usize> {
    match qualifier {
        Some(q) => sources
            .iter()
            .position(|s| s.alias.eq_ignore_ascii_case(q))
            .ok_or_else(|| TcqError::Analysis(format!("unknown source qualifier '{q}'"))),
        None => {
            let mut found = None;
            for (i, s) in sources.iter().enumerate() {
                if s.schema.index_of(None, name).is_ok() {
                    if found.is_some() {
                        return Err(TcqError::Analysis(format!(
                            "column '{name}' is ambiguous across sources"
                        )));
                    }
                    found = Some(i);
                }
            }
            found.ok_or_else(|| TcqError::Analysis(format!("unknown column '{name}'")))
        }
    }
}

/// Recognize `colA = colB` across two different sources.
fn as_join_pair(factor: &Expr, sources: &[BoundSource]) -> Result<Option<JoinPair>> {
    let Expr::Cmp {
        op: CmpOp::Eq,
        lhs,
        rhs,
    } = factor
    else {
        return Ok(None);
    };
    let (
        Expr::Column {
            qualifier: ql,
            name: nl,
        },
        Expr::Column {
            qualifier: qr,
            name: nr,
        },
    ) = (lhs.as_ref(), rhs.as_ref())
    else {
        return Ok(None);
    };
    let si_l = resolve_source(sources, ql.as_deref(), nl)?;
    let si_r = resolve_source(sources, qr.as_deref(), nr)?;
    if si_l == si_r {
        return Ok(None);
    }
    let col_l = sources[si_l].schema.index_of(ql.as_deref(), nl)?;
    let col_r = sources[si_r].schema.index_of(qr.as_deref(), nr)?;
    Ok(Some(JoinPair {
        left: si_l,
        left_col: col_l,
        right: si_r,
        right_col: col_r,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use tcq_common::{DataType, Field, SourceKind};

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
        let trades = Schema::new(vec![
            Field::new("timestamp", DataType::Int),
            Field::new("sym", DataType::Str),
            Field::new("volume", DataType::Int),
        ])
        .into_ref();
        c.register("Trades", trades, SourceKind::PushStream)
            .unwrap();
        let static_info = Schema::new(vec![
            Field::new("sym", DataType::Str),
            Field::new("sector", DataType::Str),
        ])
        .into_ref();
        c.register("CompanyInfo", static_info, SourceKind::Table)
            .unwrap();
        c
    }

    fn analyze_src(src: &str) -> Result<AnalyzedQuery> {
        analyze(&parse(src)?, &catalog())
    }

    #[test]
    fn landmark_query_analyzes() {
        let q = analyze_src(
            "SELECT closingPrice, timestamp FROM ClosingStockPrices \
             WHERE stockSymbol = 'MSFT' and closingPrice > 50.00 \
             for (t = 101; t <= 1000; t++) { WindowIs(ClosingStockPrices, 101, t); }",
        )
        .unwrap();
        assert_eq!(q.sources.len(), 1);
        assert!(q.sources[0].windowed);
        assert_eq!(q.single_factors.len(), 2);
        assert!(q.join_pairs.is_empty());
        assert_eq!(q.projection.len(), 2);
        assert!(!q.is_join());
    }

    #[test]
    fn band_join_classification() {
        let q = analyze_src(
            "Select c2.* FROM ClosingStockPrices as c1, ClosingStockPrices as c2 \
             WHERE c1.stockSymbol = 'MSFT' and c2.stockSymbol != 'MSFT' and \
                   c2.closingPrice > c1.closingPrice and c2.timestamp = c1.timestamp \
             for (t = ST; t < ST + 20; t++) { WindowIs(c1, t-4, t); WindowIs(c2, t-4, t); }",
        )
        .unwrap();
        assert_eq!(q.sources.len(), 2);
        assert_eq!(q.single_factors.len(), 2);
        assert_eq!(q.join_pairs.len(), 1);
        let jp = q.join_pairs[0];
        // c2.timestamp = c1.timestamp: both col 0
        assert_eq!((jp.left_col, jp.right_col), (0, 0));
        assert_eq!(q.cross_factors.len(), 1); // the band inequality
        assert_eq!(q.projection.len(), 3); // c2.*
        assert!(q.projection.iter().all(|(e, _)| matches!(
            e,
            Expr::Column { qualifier: Some(q), .. } if q == "c2"
        )));
    }

    #[test]
    fn join_without_equi_predicate_rejected() {
        let err = analyze_src(
            "SELECT * FROM ClosingStockPrices as c1, Trades as t1 \
             WHERE c1.closingPrice > 10 \
             for (t = 0; t >= 0; t++) { WindowIs(c1, t-4, t); WindowIs(t1, t-4, t); }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("equi-join"));
    }

    #[test]
    fn stream_join_without_window_rejected() {
        let err = analyze_src(
            "SELECT * FROM ClosingStockPrices as c1, Trades as t1 \
             WHERE c1.timestamp = t1.timestamp",
        )
        .unwrap_err();
        assert!(err.to_string().contains("WindowIs"));
    }

    #[test]
    fn join_with_static_table_needs_no_window_on_table() {
        let q = analyze_src(
            "SELECT * FROM Trades tr, CompanyInfo ci \
             WHERE tr.sym = ci.sym \
             for (t = 0; t >= 0; t++) { WindowIs(tr, t-9, t); }",
        )
        .unwrap();
        assert_eq!(q.join_pairs.len(), 1);
        assert!(q.sources[0].windowed);
        assert!(!q.sources[1].windowed);
        assert_eq!(q.sources[1].def.kind, SourceKind::Table);
    }

    #[test]
    fn aggregates_and_group_by() {
        let q = analyze_src(
            "SELECT stockSymbol, COUNT(*), AVG(closingPrice) AS avgp \
             FROM ClosingStockPrices GROUP BY stockSymbol",
        )
        .unwrap();
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(q.aggregates[1].name, "avgp");
        assert_eq!(q.group_by, Some((0, 1)));
    }

    #[test]
    fn non_grouped_scalar_with_aggregate_rejected() {
        let err = analyze_src(
            "SELECT closingPrice, COUNT(*) FROM ClosingStockPrices GROUP BY stockSymbol",
        )
        .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn group_by_without_aggregate_rejected() {
        assert!(
            analyze_src("SELECT stockSymbol FROM ClosingStockPrices GROUP BY stockSymbol").is_err()
        );
    }

    #[test]
    fn sum_over_string_rejected() {
        let err = analyze_src("SELECT SUM(stockSymbol) FROM ClosingStockPrices").unwrap_err();
        assert!(err.to_string().contains("numeric"));
    }

    #[test]
    fn unknown_things_rejected() {
        assert!(analyze_src("SELECT * FROM NoSuchStream").is_err());
        assert!(analyze_src("SELECT nope FROM ClosingStockPrices").is_err());
        assert!(analyze_src("SELECT * FROM ClosingStockPrices WHERE q.closingPrice > 1").is_err());
        assert!(analyze_src(
            "SELECT * FROM ClosingStockPrices for (t=0; t >= 0; t++) { WindowIs(Other, 1, t); }"
        )
        .is_err());
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        // `timestamp` exists in both sources.
        let err = analyze_src(
            "SELECT * FROM ClosingStockPrices c1, Trades t1 \
             WHERE timestamp > 3 and c1.timestamp = t1.timestamp \
             for (t=0; t>=0; t++) { WindowIs(c1, t-4, t); WindowIs(t1, t-4, t); }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn duplicate_alias_rejected() {
        assert!(analyze_src(
            "SELECT * FROM ClosingStockPrices c, Trades c \
             WHERE c.timestamp = c.timestamp"
        )
        .is_err());
    }

    #[test]
    fn star_expands_all_sources_in_order() {
        let q = analyze_src(
            "SELECT * FROM Trades tr, CompanyInfo ci WHERE tr.sym = ci.sym \
             for (t=0; t>=0; t++) { WindowIs(tr, t-9, t); }",
        )
        .unwrap();
        assert_eq!(q.projection.len(), 5);
        assert!(matches!(
            &q.projection[0].0,
            Expr::Column { qualifier: Some(q), name } if q == "tr" && name == "timestamp"
        ));
        assert!(matches!(
            &q.projection[4].0,
            Expr::Column { qualifier: Some(q), name } if q == "ci" && name == "sector"
        ));
    }
}
