//! Recursive-descent parser for the query dialect.

use tcq_common::{ArithOp, CmpOp, Expr, Result, TcqError, Value};
use tcq_windows::{CondOp, Condition, ForLoop, LinExpr, Step, WindowIs};

use crate::ast::{FromSource, SelectItem, SelectStmt};
use crate::lexer::{lex, Token, TokenKind};

/// Parse one SELECT statement (with optional for-loop window clause).
pub fn parse(src: &str) -> Result<SelectStmt> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select_stmt()?;
    p.eat_if(&TokenKind::Semi);
    p.expect_eof()?;
    Ok(stmt)
}

/// Tokens are taken, never cloned: each is looked at in place and, once
/// consumed, its identifier or literal goes straight into the AST.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

const AGG_NAMES: [&str; 5] = ["COUNT", "SUM", "AVG", "MIN", "MAX"];

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos].kind
    }

    /// The kind of the token `n` places ahead, if there is one.
    fn peek_at(&self, n: usize) -> Option<&TokenKind<'a>> {
        self.tokens.get(self.pos + n).map(|t| &t.kind)
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    /// Step past the current token (never past `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Move the current token's kind out and step past it. Nothing looks
    /// back, so the slot it leaves (`Eof`) is never read again — except at
    /// the final `Eof` itself, which stays `Eof`.
    fn take(&mut self) -> TokenKind<'a> {
        let kind = std::mem::take(&mut self.tokens[self.pos].kind);
        self.bump();
        kind
    }

    fn eat_if(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<()> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(TcqError::parse_at(
                format!("expected {kind}, found {}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(TcqError::parse_at(
                format!("trailing input: {}", self.peek()),
                self.offset(),
            ))
        }
    }

    /// Is the current token the (case-insensitive) keyword `kw`?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(TcqError::parse_at(
                format!("expected keyword {kw}, found {}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn ident(&mut self) -> Result<&'a str> {
        match *self.peek() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            ref other => Err(TcqError::parse_at(
                format!("expected identifier, found {other}"),
                self.offset(),
            )),
        }
    }

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let items = self.select_list()?;
        self.expect_kw("FROM")?;
        let from = self.parse_from_list()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let group_by = if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            Some(self.column_ref()?)
        } else {
            None
        };
        let window = if self.at_kw("for") {
            Some(self.for_loop()?)
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            where_clause,
            group_by,
            window,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = vec![self.select_item()?];
        while self.eat_if(&TokenKind::Comma) {
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_if(&TokenKind::Star) {
            return Ok(SelectItem::Star);
        }
        // alias.* ?
        if let TokenKind::Ident(name) = *self.peek() {
            if self.peek_at(1) == Some(&TokenKind::Dot) && self.peek_at(2) == Some(&TokenKind::Star)
            {
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::QualifiedStar(name.to_string()));
            }
            // aggregate?
            if AGG_NAMES.iter().any(|a| name.eq_ignore_ascii_case(a))
                && self.peek_at(1) == Some(&TokenKind::LParen)
            {
                self.bump(); // func
                self.bump(); // (
                let arg = if self.eat_if(&TokenKind::Star) {
                    if !name.eq_ignore_ascii_case("COUNT") {
                        return Err(TcqError::parse_at(
                            format!("{name}(*) is only valid for COUNT"),
                            self.offset(),
                        ));
                    }
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::RParen)?;
                let alias = self.opt_alias()?;
                return Ok(SelectItem::Agg {
                    func: name.to_ascii_uppercase(),
                    arg,
                    alias,
                });
            }
        }
        let expr = self.expr()?;
        let alias = self.opt_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn opt_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            Ok(Some(self.ident()?.to_string()))
        } else {
            Ok(None)
        }
    }

    fn parse_from_list(&mut self) -> Result<Vec<FromSource>> {
        let mut out = vec![self.parse_from_source()?];
        while self.eat_if(&TokenKind::Comma) {
            out.push(self.parse_from_source()?);
        }
        Ok(out)
    }

    fn parse_from_source(&mut self) -> Result<FromSource> {
        let name = self.ident()?.to_string();
        // "S as c1" or bare "S c1"; stop at clause keywords.
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?.to_string())
        } else if let TokenKind::Ident(next) = *self.peek() {
            let kw = ["WHERE", "GROUP", "FOR"]
                .iter()
                .any(|k| next.eq_ignore_ascii_case(k));
            if kw {
                None
            } else {
                Some(self.ident()?.to_string())
            }
        } else {
            None
        };
        Ok(FromSource { name, alias })
    }

    fn column_ref(&mut self) -> Result<(Option<String>, String)> {
        let first = self.ident()?;
        if self.eat_if(&TokenKind::Dot) {
            let second = self.ident()?;
            Ok((Some(first.to_string()), second.to_string()))
        } else {
            Ok((None, first.to_string()))
        }
    }

    // Expression grammar: or < and < not < cmp < add < mul < unary < atom.
    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(lhs.cmp(op, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat_if(&TokenKind::Minus) {
            let inner = self.unary_expr()?;
            return Ok(match inner {
                Expr::Literal(Value::Int(v)) => Expr::lit(-v),
                Expr::Literal(Value::Float(v)) => Expr::lit(-v),
                other => Expr::Arith {
                    op: ArithOp::Sub,
                    lhs: Box::new(Expr::lit(0i64)),
                    rhs: Box::new(other),
                },
            });
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr> {
        let offset = self.offset();
        match self.take() {
            TokenKind::Int(v) => Ok(Expr::lit(v)),
            TokenKind::Float(v) => Ok(Expr::lit(v)),
            TokenKind::Str(s) => Ok(Expr::lit(&*s)),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::lit(true));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::lit(false));
                }
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if self.eat_if(&TokenKind::Dot) {
                    let col = self.ident()?;
                    Ok(Expr::qcol(name, col))
                } else {
                    Ok(Expr::col(name))
                }
            }
            other => Err(TcqError::parse_at(
                format!("expected expression, found {other}"),
                offset,
            )),
        }
    }

    // ---- for-loop window clause (§4.1) ----

    fn for_loop(&mut self) -> Result<ForLoop> {
        self.expect_kw("for")?;
        self.expect(TokenKind::LParen)?;
        // init: "t = <linexpr>" or empty (t starts at 0).
        let init = if self.eat_if(&TokenKind::Semi) {
            LinExpr::constant(0)
        } else {
            self.expect_kw("t")?;
            self.expect(TokenKind::Eq)?;
            let e = self.lin_expr(false)?;
            self.expect(TokenKind::Semi)?;
            e
        };
        // condition: "t <op> <linexpr>"
        self.expect_kw("t")?;
        let op = match self.take() {
            TokenKind::Eq => CondOp::Eq,
            TokenKind::Lt => CondOp::Lt,
            TokenKind::Le => CondOp::Le,
            TokenKind::Gt => CondOp::Gt,
            TokenKind::Ge => CondOp::Ge,
            other => {
                return Err(TcqError::parse_at(
                    format!("expected comparison in for-loop condition, found {other}"),
                    self.offset(),
                ))
            }
        };
        let bound = self.lin_expr(false)?;
        self.expect(TokenKind::Semi)?;
        // change: t++ / t-- / t += k / t -= k / t = k
        self.expect_kw("t")?;
        let step = match self.take() {
            TokenKind::PlusPlus => Step::Add(1),
            TokenKind::MinusMinus => Step::Add(-1),
            TokenKind::PlusEq => Step::Add(self.int_literal()?),
            TokenKind::MinusEq => Step::Add(-self.int_literal()?),
            TokenKind::Eq => Step::Set(self.int_literal()?),
            other => {
                return Err(TcqError::parse_at(
                    format!("expected ++, --, +=, -= or = in for-loop change, found {other}"),
                    self.offset(),
                ))
            }
        };
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let mut windows = Vec::new();
        while !self.eat_if(&TokenKind::RBrace) {
            self.expect_kw("WindowIs")?;
            self.expect(TokenKind::LParen)?;
            let stream = self.ident()?;
            self.expect(TokenKind::Comma)?;
            let left = self.lin_expr(true)?;
            self.expect(TokenKind::Comma)?;
            let right = self.lin_expr(true)?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            windows.push(WindowIs::new(stream, left, right));
        }
        if windows.is_empty() {
            return Err(TcqError::parse(
                "for-loop must contain at least one WindowIs",
            ));
        }
        Ok(ForLoop {
            init,
            cond: Condition { op, bound },
            step,
            windows,
        })
    }

    fn int_literal(&mut self) -> Result<i64> {
        let neg = self.eat_if(&TokenKind::Minus);
        match self.take() {
            TokenKind::Int(v) => Ok(if neg { -v } else { v }),
            other => Err(TcqError::parse_at(
                format!("expected integer, found {other}"),
                self.offset(),
            )),
        }
    }

    /// Linear expression over `t` (if allowed), `ST`, and integers, with
    /// `+`/`-` and integer coefficients via `*` (e.g. `2*t`).
    fn lin_expr(&mut self, allow_t: bool) -> Result<LinExpr> {
        let mut acc = self.lin_term(allow_t)?;
        loop {
            if self.eat_if(&TokenKind::Plus) {
                let rhs = self.lin_term(allow_t)?;
                acc = LinExpr {
                    t_coeff: acc.t_coeff + rhs.t_coeff,
                    st_coeff: acc.st_coeff + rhs.st_coeff,
                    constant: acc.constant + rhs.constant,
                };
            } else if self.eat_if(&TokenKind::Minus) {
                let rhs = self.lin_term(allow_t)?;
                acc = LinExpr {
                    t_coeff: acc.t_coeff - rhs.t_coeff,
                    st_coeff: acc.st_coeff - rhs.st_coeff,
                    constant: acc.constant - rhs.constant,
                };
            } else {
                break;
            }
        }
        Ok(acc)
    }

    fn lin_term(&mut self, allow_t: bool) -> Result<LinExpr> {
        // [int *] var | int
        let neg = self.eat_if(&TokenKind::Minus);
        let base = match self.take() {
            TokenKind::Int(v) => {
                if self.eat_if(&TokenKind::Star) {
                    let var = self.lin_var(allow_t)?;
                    LinExpr {
                        t_coeff: var.t_coeff * v,
                        st_coeff: var.st_coeff * v,
                        constant: 0,
                    }
                } else {
                    LinExpr::constant(v)
                }
            }
            TokenKind::Ident(name) => self.lin_var_named(name, allow_t)?,
            other => {
                return Err(TcqError::parse_at(
                    format!("expected window expression term, found {other}"),
                    self.offset(),
                ))
            }
        };
        Ok(if neg {
            LinExpr {
                t_coeff: -base.t_coeff,
                st_coeff: -base.st_coeff,
                constant: -base.constant,
            }
        } else {
            base
        })
    }

    fn lin_var(&mut self, allow_t: bool) -> Result<LinExpr> {
        match self.take() {
            TokenKind::Ident(name) => self.lin_var_named(name, allow_t),
            other => Err(TcqError::parse_at(
                format!("expected t or ST, found {other}"),
                self.offset(),
            )),
        }
    }

    fn lin_var_named(&mut self, name: &str, allow_t: bool) -> Result<LinExpr> {
        if name.eq_ignore_ascii_case("t") {
            if !allow_t {
                return Err(TcqError::parse(
                    "loop variable t not allowed in this position",
                ));
            }
            Ok(LinExpr::t())
        } else if name.eq_ignore_ascii_case("ST") {
            Ok(LinExpr::st())
        } else {
            Err(TcqError::parse(format!(
                "unknown window variable '{name}' (expected t or ST)"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_snapshot_query() {
        let q = parse(
            "SELECT closingPrice, timestamp \
             FROM ClosingStockPrices \
             WHERE stockSymbol = 'MSFT' \
             for (; t==0; t = -1 ){ \
                WindowIs(ClosingStockPrices, 1, 5); \
             }",
        )
        .unwrap();
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.from[0].name, "ClosingStockPrices");
        let w = q.window.unwrap();
        assert_eq!(w.init, LinExpr::constant(0));
        assert_eq!(
            w.cond,
            Condition {
                op: CondOp::Eq,
                bound: LinExpr::constant(0)
            }
        );
        assert_eq!(w.step, Step::Set(-1));
        assert_eq!(w.windows[0].left, LinExpr::constant(1));
        assert_eq!(w.windows[0].right, LinExpr::constant(5));
    }

    #[test]
    fn parses_paper_landmark_query() {
        let q = parse(
            "SELECT closingPrice, timestamp \
             FROM ClosingStockPrices \
             WHERE stockSymbol = 'MSFT' and closingPrice > 50.00 \
             for (t = 101; t <= 1000; t++ ){ \
                 WindowIs(ClosingStockPrices, 101, t); \
             }",
        )
        .unwrap();
        let pred = q.where_clause.unwrap();
        assert_eq!(pred.conjuncts().len(), 2);
        let w = q.window.unwrap();
        assert_eq!(w.step, Step::Add(1));
        assert_eq!(w.windows[0].right, LinExpr::t());
    }

    #[test]
    fn parses_paper_sliding_query() {
        let q = parse(
            "Select AVG(closingPrice) \
             From ClosingStockPrices \
             Where stockSymbol = 'MSFT' \
             for (t = ST; t < ST + 50; t +=5 ){ \
                 WindowIs(ClosingStockPrices, t - 4, t); \
             }",
        )
        .unwrap();
        assert!(q.has_aggregates());
        match &q.items[0] {
            SelectItem::Agg { func, arg, .. } => {
                assert_eq!(func, "AVG");
                assert!(arg.is_some());
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
        let w = q.window.unwrap();
        assert_eq!(w.init, LinExpr::st());
        assert_eq!(w.cond.bound, LinExpr::st_plus(50));
        assert_eq!(w.step, Step::Add(5));
        assert_eq!(w.windows[0].left, LinExpr::t_plus(-4));
    }

    #[test]
    fn parses_paper_band_join_query() {
        let q = parse(
            "Select c2.* \
             FROM ClosingStockPrices as c1, ClosingStockPrices as c2 \
             WHERE c1.stockSymbol = 'MSFT' and \
                   c2.stockSymbol != 'MSFT' and \
                   c2.closingPrice > c1.closingPrice and \
                   c2.timestamp = c1.timestamp \
             for (t = ST; t < ST +20 ; t++ ){ \
                 WindowIs(c1, t - 4, t); \
                 WindowIs(c2, t - 4, t); \
             }",
        )
        .unwrap();
        assert_eq!(q.items[0], SelectItem::QualifiedStar("c2".into()));
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].alias.as_deref(), Some("c1"));
        assert_eq!(q.from[1].qualifier(), "c2");
        assert_eq!(q.where_clause.as_ref().unwrap().conjuncts().len(), 4);
        assert_eq!(q.window.unwrap().windows.len(), 2);
    }

    #[test]
    fn parses_group_by_and_count_star() {
        let q = parse(
            "SELECT stockSymbol, COUNT(*), AVG(closingPrice) AS avgPrice \
             FROM ClosingStockPrices GROUP BY stockSymbol",
        )
        .unwrap();
        assert_eq!(q.group_by, Some((None, "stockSymbol".into())));
        assert!(matches!(&q.items[1], SelectItem::Agg { func, arg: None, .. } if func == "COUNT"));
        assert!(matches!(&q.items[2], SelectItem::Agg { alias: Some(a), .. } if a == "avgPrice"));
    }

    #[test]
    fn expression_precedence() {
        let q = parse("SELECT * FROM s WHERE a + 2 * b > 10 AND c = 1 OR d = 2").unwrap();
        // ((a + (2*b)) > 10 AND c=1) OR d=2
        match q.where_clause.unwrap() {
            Expr::Or(lhs, _) => match *lhs {
                Expr::And(l, _) => match *l {
                    Expr::Cmp {
                        op: CmpOp::Gt, lhs, ..
                    } => {
                        assert!(matches!(
                            *lhs,
                            Expr::Arith {
                                op: ArithOp::Add,
                                ..
                            }
                        ));
                    }
                    other => panic!("expected >, got {other:?}"),
                },
                other => panic!("expected AND, got {other:?}"),
            },
            other => panic!("expected OR, got {other:?}"),
        }
    }

    #[test]
    fn bare_alias_without_as() {
        let q = parse("SELECT * FROM ClosingStockPrices c1 WHERE c1.closingPrice > 0").unwrap();
        assert_eq!(q.from[0].alias.as_deref(), Some("c1"));
    }

    #[test]
    fn negative_literals_and_unary_minus() {
        let q = parse("SELECT * FROM s WHERE x > -5 AND y < -2.5").unwrap();
        let cs = q.where_clause.unwrap();
        let parts = cs.conjuncts().into_iter().cloned().collect::<Vec<_>>();
        assert!(matches!(&parts[0], Expr::Cmp { rhs, .. } if **rhs == Expr::lit(-5i64)));
        assert!(matches!(&parts[1], Expr::Cmp { rhs, .. } if **rhs == Expr::lit(-2.5)));
    }

    #[test]
    fn error_cases() {
        assert!(parse("SELECT FROM s").is_err());
        assert!(parse("SELECT * WHERE x = 1").is_err());
        assert!(parse("SELECT * FROM s for (t = 0; t < 5; t++) { }").is_err());
        assert!(parse("SELECT * FROM s for (t = 0; t < 5; t++) { WindowIs(s, 1, q); }").is_err());
        assert!(parse("SELECT SUM(*) FROM s").is_err());
        assert!(parse("SELECT * FROM s extra garbage ; more").is_err());
        // t not allowed in loop bound
        assert!(parse("SELECT * FROM s for (t = 0; t < t; t++) { WindowIs(s, 1, t); }").is_err());
    }

    #[test]
    fn backward_window_syntax() {
        let q = parse("SELECT * FROM s for (t = ST; t > 0; t -=10) { WindowIs(s, t - 9, t); }")
            .unwrap();
        let w = q.window.unwrap();
        assert_eq!(w.step, Step::Add(-10));
        assert_eq!(w.cond.op, CondOp::Gt);
    }

    #[test]
    fn coefficient_syntax_in_windows() {
        let q = parse("SELECT * FROM s for (t = 0; t <= 10; t++) { WindowIs(s, 2*t, 2*t + 1); }")
            .unwrap();
        let w = q.window.unwrap();
        assert_eq!(
            w.windows[0].left,
            LinExpr {
                t_coeff: 2,
                st_coeff: 0,
                constant: 0
            }
        );
        assert_eq!(
            w.windows[0].right,
            LinExpr {
                t_coeff: 2,
                st_coeff: 0,
                constant: 1
            }
        );
    }
}
