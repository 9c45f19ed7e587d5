//! The front end, pinned: every SQL text below goes through `parse` and
//! `analyze`, and the test compares a rendering of the public `SelectStmt`
//! and `AnalyzedQuery` fields (or the error text) with
//! `front_end_golden.txt`. The texts cover the paper's §4.1 examples, the
//! queries of the four benchmark workloads, aliases, `alias.*`, `GROUP BY`,
//! each for-loop shape, and malformed or ill-typed queries whose error
//! messages must not change.
//!
//! The rendering writes literals with their type (`50` is an INT, `50.0` a
//! FLOAT) and never uses `Debug`, so the golden file holds what the planner
//! reads, not how the types are laid out.

use std::fmt::Write as _;

use tcq_common::{Catalog, CmpOp, DataType, Expr, Field, Schema, SourceKind, Value};
use tcq_query::analyze::AggItem;
use tcq_query::{analyze, parse, AnalyzedQuery, SelectItem, SelectStmt};
use tcq_windows::{CondOp, ForLoop, Step};

const GOLDEN: &str = include_str!("front_end_golden.txt");

/// `(catalog, sql)`: the catalog the text is analyzed against.
const CASES: &[(&str, &str)] = &[
    // ---- the paper's §4.1 examples
    (
        "market",
        "SELECT closingPrice, timestamp FROM ClosingStockPrices WHERE stockSymbol = 'MSFT' \
         for (; t==0; t = -1 ){ WindowIs(ClosingStockPrices, 1, 5); }",
    ),
    (
        "market",
        "SELECT closingPrice, timestamp FROM ClosingStockPrices \
         WHERE stockSymbol = 'MSFT' and closingPrice > 50.00 \
         for (t = 101; t <= 1000; t++ ){ WindowIs(ClosingStockPrices, 101, t); }",
    ),
    (
        "market",
        "Select AVG(closingPrice) From ClosingStockPrices Where stockSymbol = 'MSFT' \
         for (t = ST; t < ST + 50; t +=5 ){ WindowIs(ClosingStockPrices, t - 4, t); }",
    ),
    (
        "market",
        "Select c2.* FROM ClosingStockPrices as c1, ClosingStockPrices as c2 \
         WHERE c1.stockSymbol = 'MSFT' and c2.stockSymbol != 'MSFT' and \
               c2.closingPrice > c1.closingPrice and c2.timestamp = c1.timestamp \
         for (t = ST; t < ST +20 ; t++ ){ WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }",
    ),
    (
        "market",
        "Select c2.* FROM ClosingStockPrices as c1, ClosingStockPrices as c2 \
         WHERE c1.stockSymbol = 'MSFT' and c2.stockSymbol != 'MSFT' and \
               c2.timestamp = c1.timestamp \
         for (t = ST; t < ST + 1000000000; t++ ){ WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }",
    ),
    // ---- the benchmark workloads' queries
    (
        "bench",
        "SELECT s.v, d.tag FROM s s, dim d WHERE s.k = d.id AND s.f < 50 \
         for (t = ST; t >= 0; t++) { WindowIs(s, t - 65536, t); }",
    ),
    (
        "agg",
        "SELECT k, COUNT(*), AVG(v) FROM s GROUP BY k \
         for (t = ST; t >= 0; t += 1000) { WindowIs(s, t - 999, t); }",
    ),
    (
        "bench",
        "SELECT seq FROM ticks WHERE sym = 17 AND price > 500",
    ),
    (
        "bench",
        "SELECT seq FROM ticks WHERE price > 1500 AND price < 3001",
    ),
    (
        "bench",
        "SELECT seq FROM ticks WHERE sym = 1000000 AND price > 500",
    ),
    // ---- aliases, qualified names, case
    (
        "market",
        "SELECT * FROM ClosingStockPrices c1 WHERE c1.closingPrice > 0",
    ),
    (
        "market",
        "SELECT s.stockSymbol AS sym, s.closingPrice * 2 AS doubled FROM ClosingStockPrices AS s \
         WHERE s.closingPrice >= 10 OR s.stockSymbol = 'IBM'",
    ),
    (
        "market",
        "SELECT ClosingStockPrices.closingPrice FROM ClosingStockPrices \
         WHERE ClosingStockPrices.timestamp < 10",
    ),
    (
        "market",
        "select CLOSINGPRICE from closingstockprices where STOCKSYMBOL <> 'x'",
    ),
    (
        "market",
        "SELECT tr.*, ci.sector FROM Trades tr, CompanyInfo ci WHERE tr.sym = ci.sym \
         for (t = 0; t >= 0; t++) { WindowIs(tr, t - 9, t); }",
    ),
    (
        "market",
        "SELECT * FROM Trades tr, CompanyInfo ci WHERE tr.sym = ci.sym AND tr.volume > 100 \
         for (t = 0; t >= 0; t++) { WindowIs(tr, t - 9, t); }",
    ),
    (
        "market",
        "SELECT c1.timestamp, t1.volume FROM ClosingStockPrices c1, Trades t1, CompanyInfo ci \
         WHERE c1.timestamp = t1.timestamp AND t1.sym = ci.sym AND c1.closingPrice > t1.volume \
         AND 50 < c1.closingPrice \
         for (t = ST; t >= 0; t++) { WindowIs(c1, t - 4, t); WindowIs(t1, t - 4, t); }",
    ),
    // ---- GROUP BY and aggregates
    (
        "market",
        "SELECT stockSymbol, COUNT(*), AVG(closingPrice) AS avgPrice FROM ClosingStockPrices \
         GROUP BY stockSymbol \
         for (t = ST; t >= 0; t += 10) { WindowIs(ClosingStockPrices, t - 9, t); }",
    ),
    (
        "market",
        "SELECT c.stockSymbol, MAX(c.closingPrice), min(closingPrice), SUM(timestamp) \
         FROM ClosingStockPrices c GROUP BY c.stockSymbol",
    ),
    (
        "market",
        "SELECT COUNT(closingPrice) AS n FROM ClosingStockPrices WHERE closingPrice > 1",
    ),
    // ---- for-loop shapes
    (
        "market",
        "SELECT * FROM ClosingStockPrices \
         for (t = ST; t > 0; t -= 10) { WindowIs(ClosingStockPrices, t - 9, t); }",
    ),
    (
        "market",
        "SELECT timestamp FROM ClosingStockPrices \
         for (t = 100; t >= 1; t--) { WindowIs(ClosingStockPrices, t - 4, t); }",
    ),
    (
        "market",
        "SELECT timestamp FROM ClosingStockPrices \
         for (t = 0; t <= 10; t++) { WindowIs(ClosingStockPrices, 2*t, 2*t + 1); }",
    ),
    (
        "market",
        "SELECT timestamp FROM ClosingStockPrices \
         for (t = ST; t < ST + 100; t += 10) { WindowIs(ClosingStockPrices, t - 1, t); }",
    ),
    (
        "market",
        "SELECT timestamp FROM ClosingStockPrices \
         for (t = 5; t <= 5; t += 0) { WindowIs(ClosingStockPrices, 1, 5); }",
    ),
    (
        "market",
        "SELECT timestamp FROM ClosingStockPrices \
         for (; t < 20; t++) { WindowIs(ClosingStockPrices, 1, t); }",
    ),
    (
        "market",
        "SELECT timestamp FROM ClosingStockPrices \
         for (t = 0; t <= 5; t = 7) { WindowIs(ClosingStockPrices, -3, ST - 1); }",
    ),
    // ---- expression forms
    (
        "market",
        "SELECT -closingPrice AS neg, timestamp + 1 FROM ClosingStockPrices \
         WHERE NOT (closingPrice < -2.5) AND timestamp != NULL AND TRUE",
    ),
    (
        "market",
        "SELECT closingPrice / 2 FROM ClosingStockPrices /* comment */ \
         WHERE stockSymbol = 'it''s' OR FALSE;",
    ),
    (
        "market",
        "SELECT timestamp FROM ClosingStockPrices WHERE timestamp == 3 AND -timestamp < 2 - 1",
    ),
    ("market", "SELECT * FROM ClosingStockPrices WHERE 1 = 1"),
    (
        "market",
        "SELECT * FROM ClosingStockPrices WHERE stockSymbol > 5",
    ),
    // ---- malformed: lexer and parser
    ("market", "SELECT FROM ClosingStockPrices"),
    ("market", "SELECT * WHERE x = 1"),
    (
        "market",
        "SELECT * FROM ClosingStockPrices for (t = 0; t < 5; t++) { }",
    ),
    (
        "market",
        "SELECT * FROM ClosingStockPrices \
         for (t = 0; t < 5; t++) { WindowIs(ClosingStockPrices, 1, q); }",
    ),
    ("market", "SELECT SUM(*) FROM ClosingStockPrices"),
    ("market", "SELECT * FROM s extra garbage ; more"),
    (
        "market",
        "SELECT * FROM s for (t = 0; t < t; t++) { WindowIs(s, 1, t); }",
    ),
    ("market", "SELECT * FROM s WHERE a ! b"),
    ("market", "SELECT 'unterminated FROM s"),
    ("market", "SELECT * FROM s /* open"),
    ("market", "SELECT # FROM s"),
    ("market", "SELECT * FROM s WHERE x > 99999999999999999999"),
    (
        "market",
        "SELECT * FROM s for (t = 0; t ++ 5; t++) { WindowIs(s, 1, t); }",
    ),
    (
        "market",
        "SELECT * FROM s for (t = 0; t < 5; t * 2) { WindowIs(s, 1, t); }",
    ),
    (
        "market",
        "SELECT * FROM s for (t = 0; t < 5; t += x) { WindowIs(s, 1, t); }",
    ),
    ("market", "SELECT a AS FROM s"),
    ("market", "SELECT (a FROM s"),
    // ---- ill-typed or unresolvable: the analyzer
    ("market", "SELECT * FROM NoSuchStream"),
    ("market", "SELECT nope FROM ClosingStockPrices"),
    (
        "market",
        "SELECT * FROM ClosingStockPrices WHERE q.closingPrice > 1",
    ),
    (
        "market",
        "SELECT * FROM ClosingStockPrices for (t=0; t >= 0; t++) { WindowIs(Other, 1, t); }",
    ),
    (
        "market",
        "SELECT * FROM ClosingStockPrices as c1, Trades as t1 WHERE c1.timestamp = t1.timestamp",
    ),
    (
        "market",
        "SELECT * FROM ClosingStockPrices as c1, Trades as t1 WHERE c1.closingPrice > 10 \
         for (t = 0; t >= 0; t++) { WindowIs(c1, t-4, t); WindowIs(t1, t-4, t); }",
    ),
    (
        "market",
        "SELECT * FROM ClosingStockPrices c1, Trades t1 \
         WHERE timestamp > 3 and c1.timestamp = t1.timestamp \
         for (t=0; t>=0; t++) { WindowIs(c1, t-4, t); WindowIs(t1, t-4, t); }",
    ),
    (
        "market",
        "SELECT * FROM ClosingStockPrices c, Trades c WHERE c.timestamp = c.timestamp",
    ),
    ("market", "SELECT SUM(stockSymbol) FROM ClosingStockPrices"),
    (
        "market",
        "SELECT closingPrice, COUNT(*) FROM ClosingStockPrices GROUP BY stockSymbol",
    ),
    (
        "market",
        "SELECT stockSymbol FROM ClosingStockPrices GROUP BY stockSymbol",
    ),
    ("market", "SELECT stockSymbol + 1 FROM ClosingStockPrices"),
    (
        "market",
        "SELECT c3.* FROM ClosingStockPrices c1, Trades t1 WHERE c1.timestamp = t1.timestamp \
         for (t=0; t>=0; t++) { WindowIs(c1, t-4, t); WindowIs(t1, t-4, t); }",
    ),
    (
        "market",
        "SELECT * FROM ClosingStockPrices \
         for (t = 0; t < 9; t++) { WindowIs(ClosingStockPrices, t, 10 - t); }",
    ),
    (
        "market",
        "SELECT closingPrice FROM ClosingStockPrices c1, ClosingStockPrices c2 \
         WHERE c1.timestamp = c2.timestamp \
         for (t=0; t>=0; t++) { WindowIs(c1, t-4, t); WindowIs(c2, t-4, t); }",
    ),
    (
        "market",
        "SELECT COUNT(*) FROM ClosingStockPrices GROUP BY c9.stockSymbol",
    ),
    (
        "market",
        "SELECT * FROM ClosingStockPrices WHERE closingPrice > nope",
    ),
];

fn schema(fields: &[(&str, DataType)]) -> tcq_common::SchemaRef {
    Schema::new(fields.iter().map(|&(n, t)| Field::new(n, t)).collect()).into_ref()
}

fn catalog(name: &str) -> Catalog {
    use DataType::{Float, Int, Str};
    let c = Catalog::new();
    let add = |n: &str, fields: &[(&str, DataType)], kind| {
        c.register(n, schema(fields), kind).unwrap();
    };
    match name {
        "market" => {
            add(
                "ClosingStockPrices",
                &[
                    ("timestamp", Int),
                    ("stockSymbol", Str),
                    ("closingPrice", Float),
                ],
                SourceKind::PushStream,
            );
            add(
                "Trades",
                &[("timestamp", Int), ("sym", Str), ("volume", Int)],
                SourceKind::PushStream,
            );
            add(
                "CompanyInfo",
                &[("sym", Str), ("sector", Str)],
                SourceKind::Table,
            );
        }
        "bench" => {
            add(
                "s",
                &[("k", Int), ("v", Int), ("f", Int)],
                SourceKind::PushStream,
            );
            add("dim", &[("id", Int), ("tag", Int)], SourceKind::Table);
            add(
                "ticks",
                &[("sym", Int), ("price", Int), ("seq", Int)],
                SourceKind::PushStream,
            );
        }
        "agg" => add("s", &[("k", Int), ("v", Int)], SourceKind::PushStream),
        other => panic!("no catalog {other}"),
    }
    c
}

fn value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => format!("{x:?}"),
        Value::Str(s) => format!("'{s}'"),
    }
}

fn cmp_op(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => value(v),
        Expr::Column {
            qualifier: Some(q),
            name,
        } => format!("{q}.{name}"),
        Expr::Column {
            qualifier: None,
            name,
        } => name.clone(),
        Expr::Cmp { op, lhs, rhs } => format!("({} {} {})", expr(lhs), cmp_op(*op), expr(rhs)),
        Expr::Arith { op, lhs, rhs } => format!("({} {op} {})", expr(lhs), expr(rhs)),
        Expr::And(a, b) => format!("({} AND {})", expr(a), expr(b)),
        Expr::Or(a, b) => format!("({} OR {})", expr(a), expr(b)),
        Expr::Not(a) => format!("(NOT {})", expr(a)),
    }
}

fn kind(k: SourceKind) -> &'static str {
    match k {
        SourceKind::PushStream => "push stream",
        SourceKind::PullStream => "pull stream",
        SourceKind::Table => "table",
    }
}

fn alias(a: &Option<String>) -> String {
    a.as_ref().map_or_else(String::new, |a| format!(" AS {a}"))
}

fn window(w: &Option<ForLoop>) -> String {
    let Some(w) = w else { return "-".into() };
    let op = match w.cond.op {
        CondOp::Eq => "==",
        CondOp::Lt => "<",
        CondOp::Le => "<=",
        CondOp::Gt => ">",
        CondOp::Ge => ">=",
    };
    let step = match w.step {
        Step::Add(k) => format!("t += {k}"),
        Step::Set(k) => format!("t = {k}"),
    };
    let mut out = format!("for (t = {}; t {op} {}; {step}) {{", w.init, w.cond.bound);
    for wi in &w.windows {
        write!(out, " WindowIs({}, {}, {});", wi.stream, wi.left, wi.right).unwrap();
    }
    out + " }"
}

fn list<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    if items.is_empty() {
        return "-".into();
    }
    items.iter().map(f).collect::<Vec<_>>().join(" | ")
}

fn render_stmt(s: &SelectStmt, out: &mut String) {
    let item = |i: &SelectItem| match i {
        SelectItem::Star => "*".to_string(),
        SelectItem::QualifiedStar(q) => format!("{q}.*"),
        SelectItem::Expr { expr: e, alias: a } => format!("{}{}", expr(e), alias(a)),
        SelectItem::Agg {
            func,
            arg,
            alias: a,
        } => format!(
            "{func}({}){}",
            arg.as_ref().map_or_else(|| "*".to_string(), expr),
            alias(a)
        ),
    };
    writeln!(out, "  items: {}", list(&s.items, item)).unwrap();
    let from = |f: &tcq_query::FromSource| format!("{}{}", f.name, alias(&f.alias));
    writeln!(out, "  from: {}", list(&s.from, from)).unwrap();
    let pred = s.where_clause.as_ref().map_or_else(|| "-".into(), expr);
    writeln!(out, "  where: {pred}").unwrap();
    let group = match &s.group_by {
        Some((Some(q), n)) => format!("{q}.{n}"),
        Some((None, n)) => n.clone(),
        None => "-".into(),
    };
    writeln!(out, "  group by: {group}").unwrap();
    writeln!(out, "  window: {}", window(&s.window)).unwrap();
    writeln!(out, "  has aggregates: {}", s.has_aggregates()).unwrap();
}

fn render_analyzed(q: &AnalyzedQuery, out: &mut String) {
    for (i, s) in q.sources.iter().enumerate() {
        writeln!(
            out,
            "  source {i}: {} AS {} (id {}, {}, {}, windowed {}) {}",
            s.name,
            s.alias,
            s.def.id,
            s.def.name,
            kind(s.def.kind),
            s.windowed,
            s.schema
        )
        .unwrap();
        writeln!(out, "    catalog schema {}", s.def.schema).unwrap();
    }
    writeln!(out, "  combined: {}", q.combined_schema).unwrap();
    let single = |(src, e): &(usize, Expr)| format!("[{src}] {}", expr(e));
    writeln!(out, "  single factors: {}", list(&q.single_factors, single)).unwrap();
    let pair = |p: &tcq_query::JoinPair| {
        format!(
            "[{}].{} = [{}].{}",
            p.left, p.left_col, p.right, p.right_col
        )
    };
    writeln!(out, "  join pairs: {}", list(&q.join_pairs, pair)).unwrap();
    writeln!(out, "  cross factors: {}", list(&q.cross_factors, expr)).unwrap();
    let proj = |(e, a): &(Expr, Option<String>)| format!("{}{}", expr(e), alias(a));
    writeln!(out, "  projection: {}", list(&q.projection, proj)).unwrap();
    let agg = |a: &AggItem| {
        format!(
            "{}({}) AS {}",
            a.func,
            a.arg.as_ref().map_or_else(|| "*".to_string(), expr),
            a.name
        )
    };
    writeln!(out, "  aggregates: {}", list(&q.aggregates, agg)).unwrap();
    let group = q
        .group_by
        .map_or_else(|| "-".into(), |(s, c)| format!("[{s}].{c}"));
    writeln!(out, "  group by: {group}").unwrap();
    writeln!(out, "  window: {}", window(&q.window)).unwrap();
    writeln!(out, "  is join: {}", q.is_join()).unwrap();
}

fn render(catalog_name: &str, sql: &str) -> String {
    let mut out = format!("== [{catalog_name}] {sql}\n");
    match parse(sql) {
        Err(e) => writeln!(out, "  parse error: {e}").unwrap(),
        Ok(stmt) => {
            render_stmt(&stmt, &mut out);
            match analyze(&stmt, &catalog(catalog_name)) {
                Err(e) => writeln!(out, "  analysis error: {e}").unwrap(),
                Ok(q) => render_analyzed(&q, &mut out),
            }
        }
    }
    out
}

#[test]
fn the_front_end_renders_every_text_as_its_golden_file_says() {
    let bad = CASES
        .iter()
        .filter(|(c, sql)| render(c, sql).contains(" error: "))
        .count();
    assert!(CASES.len() >= 40, "{} texts", CASES.len());
    assert!(bad >= 15, "{bad} malformed or ill-typed texts");

    let actual: String = CASES.iter().map(|(c, sql)| render(c, sql)).collect();
    if actual != GOLDEN {
        let first = (actual.lines().zip(GOLDEN.lines()))
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(GOLDEN.lines().count()));
        println!("{actual}");
        panic!(
            "front end output differs from front_end_golden.txt at line {}:\n  got:      {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().nth(first),
            GOLDEN.lines().nth(first),
        );
    }
}
