//! Compiled predicate kernels: the hot-path replacement for walking a
//! [`BoundExpr`] tree per tuple.
//!
//! A [`Kernel`] lowers a boolean expression into a flat sequence of
//! column-index-resolved ops evaluated by a small loop — no recursion, no
//! per-tuple allocation, no `Result` plumbing for the infallible ops
//! (logic merges, jumps, loads). Compilation happens once, at
//! query-registration time; the per-tuple cost drops to an array walk.
//!
//! # Lowering rules
//!
//! The compilable grammar is the predicate shape CQ WHERE clauses
//! overwhelmingly take:
//!
//! ```text
//! P := Cmp(S, S) | And(P, P) | Or(P, P) | Not(P) | TRUE | FALSE | NULL
//! S := Column | Literal
//! ```
//!
//! Comparisons are specialized by operand shape (`CmpColLit`,
//! `CmpLitCol`, `CmpColCol`, `CmpLitLit`) with the *textual operand order
//! preserved*, so a type error carries the identical message the
//! interpreter would produce. `And`/`Or` compile to the interpreter's
//! exact short-circuit: evaluate the left side, jump past the right side
//! when the left side alone decides the result (`FALSE` for AND, `TRUE`
//! for OR), otherwise stash the left result, evaluate the right side, and
//! merge under Kleene three-valued logic. Anything outside the grammar —
//! arithmetic inside a comparison, a bare column or non-boolean literal
//! in predicate position, nesting past the fixed stack — is *not*
//! compiled; [`Predicate::new`] falls back to the [`BoundExpr`]
//! interpreter. Fallback is the documented policy, not a failure: the
//! kernel only ever claims shapes it can reproduce bit-identically.
//!
//! # Determinism argument
//!
//! A compiled subterm evaluates only to three-valued booleans (a
//! comparison yields `TRUE`/`FALSE`/`NULL` or a `sql_cmp` error), so the
//! interpreter's "AND over `{l}` and `{r}`" type-error arms are
//! unreachable for compiled shapes, and with the left operand in
//! {TRUE, NULL} after the short-circuit jump, the Kleene min/max merge
//! reproduces the interpreter's merge table case by case. Same values,
//! same NULL semantics, same errors with the same messages, same
//! evaluation (and therefore error-surfacing) order — pinned by the
//! seeded differential property test below and relied on by the
//! same-seed chaos replay contract (`tests/server_chaos.rs`).

use std::cmp::Ordering;

use crate::bitset::BitSet;
use crate::column::{ColumnBatch, ColumnData};
use crate::error::Result;
use crate::expr::{BoundExpr, CmpOp, Expr};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{total_f64_cmp, Value};

/// Three-valued logic cell. Discriminant order makes Kleene AND = `min`
/// and Kleene OR = `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TriBool {
    False = 0,
    Null = 1,
    True = 2,
}

impl TriBool {
    fn of(b: bool) -> TriBool {
        if b {
            TriBool::True
        } else {
            TriBool::False
        }
    }
}

/// Hard cap on the kernel value stack (held on the *call* stack as a
/// fixed array, so evaluation never allocates). Deeper nestings fall back
/// to the interpreter at compile time.
const MAX_STACK: usize = 16;

/// One lowered op. Comparisons are shape-specialized so the inner loop
/// never matches on operand kinds.
#[derive(Debug, Clone)]
enum KernelOp {
    /// `column <op> literal`.
    CmpColLit { col: u32, op: CmpOp, lit: Value },
    /// `literal <op> column` (textual order preserved for error parity).
    CmpLitCol { lit: Value, op: CmpOp, col: u32 },
    /// `column <op> column`.
    CmpColCol { lhs: u32, op: CmpOp, rhs: u32 },
    /// `literal <op> literal` (constant operands, still per-tuple for
    /// error-order parity — comparisons this shape are rare).
    CmpLitLit { lhs: Value, op: CmpOp, rhs: Value },
    /// Load a boolean constant into the accumulator.
    LoadBool(bool),
    /// Load NULL into the accumulator.
    LoadNull,
    /// Three-valued NOT of the accumulator.
    Not,
    /// Push the accumulator onto the value stack.
    Push,
    /// Pop and Kleene-AND into the accumulator.
    AndMerge,
    /// Pop and Kleene-OR into the accumulator.
    OrMerge,
    /// Jump to the absolute op index if the accumulator is FALSE.
    JumpIfFalse(u32),
    /// Jump to the absolute op index if the accumulator is TRUE.
    JumpIfTrue(u32),
}

fn cmp_tri(l: &Value, op: CmpOp, r: &Value) -> Result<TriBool> {
    Ok(match l.sql_cmp(r)? {
        Some(ord) => TriBool::of(op.matches(ord)),
        None => TriBool::Null,
    })
}

/// A compiled boolean kernel: flat ops, fixed-size stack, `&self`
/// evaluation (shared-filter passes hold only a shared borrow).
#[derive(Debug, Clone)]
pub struct Kernel {
    ops: Vec<KernelOp>,
}

impl Kernel {
    /// Lower a bound expression, or `None` if it falls outside the
    /// compilable grammar (see the module docs for the fallback policy).
    pub fn compile(bound: &BoundExpr) -> Option<Kernel> {
        let mut ops = Vec::new();
        let mut depth = 0usize;
        compile_pred(bound, &mut ops, &mut depth)?;
        Some(Kernel { ops })
    }

    fn eval_tri(&self, tuple: &Tuple) -> Result<TriBool> {
        let mut stack = [TriBool::False; MAX_STACK];
        let mut sp = 0usize;
        let mut acc = TriBool::False;
        let mut pc = 0usize;
        while let Some(op) = self.ops.get(pc) {
            match op {
                KernelOp::CmpColLit { col, op, lit } => {
                    acc = cmp_tri(tuple.value(*col as usize), *op, lit)?;
                }
                KernelOp::CmpLitCol { lit, op, col } => {
                    acc = cmp_tri(lit, *op, tuple.value(*col as usize))?;
                }
                KernelOp::CmpColCol { lhs, op, rhs } => {
                    acc = cmp_tri(tuple.value(*lhs as usize), *op, tuple.value(*rhs as usize))?;
                }
                KernelOp::CmpLitLit { lhs, op, rhs } => {
                    acc = cmp_tri(lhs, *op, rhs)?;
                }
                KernelOp::LoadBool(b) => acc = TriBool::of(*b),
                KernelOp::LoadNull => acc = TriBool::Null,
                KernelOp::Not => {
                    acc = match acc {
                        TriBool::True => TriBool::False,
                        TriBool::False => TriBool::True,
                        TriBool::Null => TriBool::Null,
                    }
                }
                KernelOp::Push => {
                    stack[sp] = acc;
                    sp += 1;
                }
                KernelOp::AndMerge => {
                    sp -= 1;
                    acc = stack[sp].min(acc);
                }
                KernelOp::OrMerge => {
                    sp -= 1;
                    acc = stack[sp].max(acc);
                }
                KernelOp::JumpIfFalse(target) => {
                    if acc == TriBool::False {
                        pc = *target as usize;
                        continue;
                    }
                }
                KernelOp::JumpIfTrue(target) => {
                    if acc == TriBool::True {
                        pc = *target as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        Ok(acc)
    }

    /// Evaluate as a WHERE predicate: NULL (unknown) filters the tuple
    /// out, exactly like [`BoundExpr::eval_pred`] on the same shape.
    pub fn eval_pred(&self, tuple: &Tuple) -> Result<bool> {
        Ok(self.eval_tri(tuple)? == TriBool::True)
    }

    /// Evaluate to a [`Value`], exactly like [`BoundExpr::eval`] on the
    /// same shape (compiled shapes only produce booleans or NULL).
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        Ok(match self.eval_tri(tuple)? {
            TriBool::True => Value::Bool(true),
            TriBool::False => Value::Bool(false),
            TriBool::Null => Value::Null,
        })
    }

    /// True when every comparison in this kernel is statically safe over
    /// `batch`'s column representations: no per-row evaluation could
    /// produce a `sql_cmp` type error. Mixed columns and cross-class
    /// operand pairs (e.g. a numeric column against a string literal)
    /// fail the check; NULL-literal operands always pass (NULL compares
    /// as unknown against anything, never an error).
    fn columns_compatible(&self, batch: &ColumnBatch) -> bool {
        /// Comparison class of an operand; `None` means "always safe"
        /// (a NULL literal).
        fn lit_kind(v: &Value) -> Option<LaneKind> {
            match v {
                Value::Null => None,
                Value::Int(_) | Value::Float(_) => Some(LaneKind::Num),
                Value::Bool(_) => Some(LaneKind::Bool),
                Value::Str(_) => Some(LaneKind::Str),
            }
        }
        /// `Err(())` marks a Mixed column: its rows could be anything, so
        /// nothing is statically safe against it.
        fn col_kind(batch: &ColumnBatch, col: u32) -> std::result::Result<LaneKind, ()> {
            match batch.column(col as usize).data() {
                ColumnData::Int(_) | ColumnData::Float(_) => Ok(LaneKind::Num),
                ColumnData::Bool(_) => Ok(LaneKind::Bool),
                ColumnData::Str { .. } => Ok(LaneKind::Str),
                ColumnData::Mixed(_) => Err(()),
            }
        }
        fn pair_ok(
            a: std::result::Result<Option<LaneKind>, ()>,
            b: std::result::Result<Option<LaneKind>, ()>,
        ) -> bool {
            match (a, b) {
                (Ok(x), Ok(y)) => match (x, y) {
                    (None, _) | (_, None) => true,
                    (Some(ka), Some(kb)) => ka == kb,
                },
                _ => false,
            }
        }
        self.ops.iter().all(|op| match op {
            KernelOp::CmpColLit { col, lit, .. } => {
                pair_ok(col_kind(batch, *col).map(Some), Ok(lit_kind(lit)))
            }
            KernelOp::CmpLitCol { lit, col, .. } => {
                pair_ok(Ok(lit_kind(lit)), col_kind(batch, *col).map(Some))
            }
            KernelOp::CmpColCol { lhs, rhs, .. } => pair_ok(
                col_kind(batch, *lhs).map(Some),
                col_kind(batch, *rhs).map(Some),
            ),
            KernelOp::CmpLitLit { lhs, rhs, .. } => pair_ok(Ok(lit_kind(lhs)), Ok(lit_kind(rhs))),
            _ => true,
        })
    }

    /// Evaluate this kernel over every row of `batch` at once, filling
    /// `keep[row]` with the WHERE verdict (`TRUE` keeps; `FALSE`/NULL
    /// drop — [`Kernel::eval_pred`] semantics). Each opcode runs as one
    /// loop over a whole column into a [`TriBool`] lane; `Int`/`Float`/
    /// `Bool` comparisons never materialize a [`Value`].
    ///
    /// Returns `false` without touching `keep` when
    /// [`Kernel::columns_compatible`] fails — the caller must fall back
    /// to the row path so type-error behaviour stays identical.
    ///
    /// Short-circuit jumps are *skipped* rather than taken: with errors
    /// statically excluded, eager Kleene AND/OR (`min`/`max` over lanes)
    /// is truth-table-identical to the interpreter's short-circuit, and
    /// the compiled op stream (`[lhs, JumpIfFalse(end), Push, rhs,
    /// AndMerge]`) stays stack-balanced when jumps are ignored.
    pub fn eval_columns(
        &self,
        batch: &ColumnBatch,
        scratch: &mut ColumnarScratch,
        keep: &mut Vec<bool>,
    ) -> bool {
        if !self.columns_compatible(batch) {
            return false;
        }
        let n = batch.len();
        scratch.acc.clear();
        scratch.acc.resize(n, TriBool::False);
        let mut sp = 0usize;
        for op in &self.ops {
            match op {
                KernelOp::CmpColLit { col, op, lit } => fill_cmp_lane(
                    *op,
                    side_for(batch, *col),
                    CmpSide::Lit(lit),
                    &mut scratch.acc,
                ),
                KernelOp::CmpLitCol { lit, op, col } => fill_cmp_lane(
                    *op,
                    CmpSide::Lit(lit),
                    side_for(batch, *col),
                    &mut scratch.acc,
                ),
                KernelOp::CmpColCol { lhs, op, rhs } => fill_cmp_lane(
                    *op,
                    side_for(batch, *lhs),
                    side_for(batch, *rhs),
                    &mut scratch.acc,
                ),
                KernelOp::CmpLitLit { lhs, op, rhs } => {
                    let tri = cmp_tri(lhs, *op, rhs).expect("columnar compatibility pre-checked");
                    scratch.acc.fill(tri);
                }
                KernelOp::LoadBool(b) => scratch.acc.fill(TriBool::of(*b)),
                KernelOp::LoadNull => scratch.acc.fill(TriBool::Null),
                KernelOp::Not => {
                    for t in &mut scratch.acc {
                        *t = match *t {
                            TriBool::True => TriBool::False,
                            TriBool::False => TriBool::True,
                            TriBool::Null => TriBool::Null,
                        };
                    }
                }
                KernelOp::Push => {
                    if sp == scratch.stack.len() {
                        scratch.stack.push(Vec::new());
                    }
                    let slot = &mut scratch.stack[sp];
                    slot.clear();
                    slot.extend_from_slice(&scratch.acc);
                    sp += 1;
                }
                KernelOp::AndMerge => {
                    sp -= 1;
                    for (a, &s) in scratch.acc.iter_mut().zip(scratch.stack[sp].iter()) {
                        *a = (*a).min(s);
                    }
                }
                KernelOp::OrMerge => {
                    sp -= 1;
                    for (a, &s) in scratch.acc.iter_mut().zip(scratch.stack[sp].iter()) {
                        *a = (*a).max(s);
                    }
                }
                KernelOp::JumpIfFalse(_) | KernelOp::JumpIfTrue(_) => {}
            }
        }
        keep.clear();
        keep.extend(scratch.acc.iter().map(|&t| t == TriBool::True));
        true
    }
}

/// Reusable lane buffers for [`Kernel::eval_columns`]: an accumulator
/// lane plus a pooled stack of saved lanes, so repeated batch evaluations
/// allocate nothing once warmed up.
#[derive(Debug, Default)]
pub struct ColumnarScratch {
    acc: Vec<TriBool>,
    stack: Vec<Vec<TriBool>>,
}

impl ColumnarScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        ColumnarScratch::default()
    }
}

/// Comparison class for the static compatibility check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneKind {
    Num,
    Str,
    Bool,
}

/// One operand of a vectorized comparison.
enum CmpSide<'a> {
    IntCol(&'a [i64], &'a BitSet),
    FloatCol(&'a [f64], &'a BitSet),
    BoolCol(&'a [bool], &'a BitSet),
    StrCol(&'a [u32], &'a [u8], &'a BitSet),
    Lit(&'a Value),
}

fn side_for(batch: &ColumnBatch, col: u32) -> CmpSide<'_> {
    let c = batch.column(col as usize);
    match c.data() {
        ColumnData::Int(b) => CmpSide::IntCol(b, c.nulls()),
        ColumnData::Float(b) => CmpSide::FloatCol(b, c.nulls()),
        ColumnData::Bool(b) => CmpSide::BoolCol(b, c.nulls()),
        ColumnData::Str { offsets, bytes } => CmpSide::StrCol(offsets, bytes, c.nulls()),
        ColumnData::Mixed(_) => unreachable!("columnar compatibility pre-checked"),
    }
}

/// One cell of a comparison operand, with no `Value` allocation.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Null,
    I(i64),
    F(f64),
    B(bool),
    S(&'a [u8]),
}

fn cell_at<'a>(side: &CmpSide<'a>, i: usize) -> Cell<'a> {
    match side {
        CmpSide::IntCol(b, n) => {
            if n.contains(i) {
                Cell::Null
            } else {
                Cell::I(b[i])
            }
        }
        CmpSide::FloatCol(b, n) => {
            if n.contains(i) {
                Cell::Null
            } else {
                Cell::F(b[i])
            }
        }
        CmpSide::BoolCol(b, n) => {
            if n.contains(i) {
                Cell::Null
            } else {
                Cell::B(b[i])
            }
        }
        CmpSide::StrCol(offsets, bytes, n) => {
            if n.contains(i) {
                Cell::Null
            } else {
                Cell::S(&bytes[offsets[i] as usize..offsets[i + 1] as usize])
            }
        }
        CmpSide::Lit(v) => match v {
            Value::Null => Cell::Null,
            Value::Int(x) => Cell::I(*x),
            Value::Float(x) => Cell::F(*x),
            Value::Bool(x) => Cell::B(*x),
            Value::Str(s) => Cell::S(s.as_bytes()),
        },
    }
}

/// Compare two cells exactly like [`Value::sql_cmp`] on the corresponding
/// values: Int×Int as exact `i64` order (never through f64 — lossy for
/// large ints), mixed numerics as `total_f64_cmp`, strings as byte order
/// (UTF-8 byte order *is* `str` order), NULL as unknown.
fn cmp_cell(a: Cell<'_>, op: CmpOp, b: Cell<'_>) -> TriBool {
    let ord: Ordering = match (a, b) {
        (Cell::Null, _) | (_, Cell::Null) => return TriBool::Null,
        (Cell::I(x), Cell::I(y)) => x.cmp(&y),
        (Cell::I(x), Cell::F(y)) => total_f64_cmp(x as f64, y),
        (Cell::F(x), Cell::I(y)) => total_f64_cmp(x, y as f64),
        (Cell::F(x), Cell::F(y)) => total_f64_cmp(x, y),
        (Cell::B(x), Cell::B(y)) => x.cmp(&y),
        (Cell::S(x), Cell::S(y)) => x.cmp(y),
        _ => unreachable!("columnar compatibility pre-checked"),
    };
    TriBool::of(op.matches(ord))
}

/// Evaluate `lhs <op> rhs` for every row into `acc`. The Int×Int shapes —
/// the hot factors in every bench query — get dedicated branch-free-null
/// loops; everything else goes through the generic (still `Value`-free)
/// cell loop.
fn fill_cmp_lane(op: CmpOp, lhs: CmpSide<'_>, rhs: CmpSide<'_>, acc: &mut [TriBool]) {
    match (&lhs, &rhs) {
        (CmpSide::Lit(Value::Null), _) | (_, CmpSide::Lit(Value::Null)) => {
            acc.fill(TriBool::Null);
        }
        (CmpSide::IntCol(a, an), CmpSide::Lit(Value::Int(b))) => {
            if an.is_empty() {
                for (slot, &x) in acc.iter_mut().zip(a.iter()) {
                    *slot = TriBool::of(op.matches(x.cmp(b)));
                }
            } else {
                for (i, (slot, &x)) in acc.iter_mut().zip(a.iter()).enumerate() {
                    *slot = if an.contains(i) {
                        TriBool::Null
                    } else {
                        TriBool::of(op.matches(x.cmp(b)))
                    };
                }
            }
        }
        (CmpSide::Lit(Value::Int(a)), CmpSide::IntCol(b, bn)) => {
            if bn.is_empty() {
                for (slot, &y) in acc.iter_mut().zip(b.iter()) {
                    *slot = TriBool::of(op.matches(a.cmp(&y)));
                }
            } else {
                for (i, (slot, &y)) in acc.iter_mut().zip(b.iter()).enumerate() {
                    *slot = if bn.contains(i) {
                        TriBool::Null
                    } else {
                        TriBool::of(op.matches(a.cmp(&y)))
                    };
                }
            }
        }
        (CmpSide::IntCol(a, an), CmpSide::IntCol(b, bn)) => {
            if an.is_empty() && bn.is_empty() {
                for (slot, (&x, &y)) in acc.iter_mut().zip(a.iter().zip(b.iter())) {
                    *slot = TriBool::of(op.matches(x.cmp(&y)));
                }
            } else {
                for (i, (slot, (&x, &y))) in acc.iter_mut().zip(a.iter().zip(b.iter())).enumerate()
                {
                    *slot = if an.contains(i) || bn.contains(i) {
                        TriBool::Null
                    } else {
                        TriBool::of(op.matches(x.cmp(&y)))
                    };
                }
            }
        }
        _ => {
            for (i, slot) in acc.iter_mut().enumerate() {
                *slot = cmp_cell(cell_at(&lhs, i), op, cell_at(&rhs, i));
            }
        }
    }
}

/// Lower one predicate-position subterm. `depth` tracks live stack slots;
/// exceeding [`MAX_STACK`] aborts compilation (interpreter fallback).
fn compile_pred(e: &BoundExpr, ops: &mut Vec<KernelOp>, depth: &mut usize) -> Option<()> {
    match e {
        BoundExpr::Cmp { op, lhs, rhs } => {
            let lowered = match (lhs.as_ref(), rhs.as_ref()) {
                (BoundExpr::Column(l), BoundExpr::Literal(v)) => KernelOp::CmpColLit {
                    col: u32::try_from(*l).ok()?,
                    op: *op,
                    lit: v.clone(),
                },
                (BoundExpr::Literal(v), BoundExpr::Column(r)) => KernelOp::CmpLitCol {
                    lit: v.clone(),
                    op: *op,
                    col: u32::try_from(*r).ok()?,
                },
                (BoundExpr::Column(l), BoundExpr::Column(r)) => KernelOp::CmpColCol {
                    lhs: u32::try_from(*l).ok()?,
                    op: *op,
                    rhs: u32::try_from(*r).ok()?,
                },
                (BoundExpr::Literal(l), BoundExpr::Literal(r)) => KernelOp::CmpLitLit {
                    lhs: l.clone(),
                    op: *op,
                    rhs: r.clone(),
                },
                // Arithmetic (or nested logic) inside a comparison: the
                // operand could be any value type — interpreter territory.
                _ => return None,
            };
            ops.push(lowered);
        }
        BoundExpr::And(a, b) => {
            compile_pred(a, ops, depth)?;
            let jump_at = ops.len();
            ops.push(KernelOp::JumpIfFalse(0)); // patched below
            *depth += 1;
            if *depth > MAX_STACK {
                return None;
            }
            ops.push(KernelOp::Push);
            compile_pred(b, ops, depth)?;
            ops.push(KernelOp::AndMerge);
            *depth -= 1;
            let end = u32::try_from(ops.len()).ok()?;
            ops[jump_at] = KernelOp::JumpIfFalse(end);
        }
        BoundExpr::Or(a, b) => {
            compile_pred(a, ops, depth)?;
            let jump_at = ops.len();
            ops.push(KernelOp::JumpIfTrue(0)); // patched below
            *depth += 1;
            if *depth > MAX_STACK {
                return None;
            }
            ops.push(KernelOp::Push);
            compile_pred(b, ops, depth)?;
            ops.push(KernelOp::OrMerge);
            *depth -= 1;
            let end = u32::try_from(ops.len()).ok()?;
            ops[jump_at] = KernelOp::JumpIfTrue(end);
        }
        BoundExpr::Not(inner) => {
            compile_pred(inner, ops, depth)?;
            ops.push(KernelOp::Not);
        }
        BoundExpr::Literal(Value::Bool(b)) => ops.push(KernelOp::LoadBool(*b)),
        BoundExpr::Literal(Value::Null) => ops.push(KernelOp::LoadNull),
        // Bare column / non-boolean literal in predicate position, or
        // arithmetic: outside the grammar.
        BoundExpr::Literal(_) | BoundExpr::Column(_) | BoundExpr::Arith { .. } => return None,
    }
    Some(())
}

/// A predicate ready for the hot path: compiled when the expression fits
/// the kernel grammar, interpreted otherwise. Either way the observable
/// behaviour — values, NULL semantics, errors, evaluation order — is
/// identical.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Flat compiled kernel.
    Compiled(Kernel),
    /// Interpreter fallback for shapes outside the kernel grammar.
    Interpreted(BoundExpr),
}

impl Predicate {
    /// Bind `expr` against `schema` (surfacing the same binding errors as
    /// [`Expr::bind`]) and compile when the shape permits.
    pub fn new(expr: &Expr, schema: &Schema) -> Result<Predicate> {
        Ok(Self::from_bound(expr.bind(schema)?))
    }

    /// Wrap an already-bound expression, compiling if possible.
    pub fn from_bound(bound: BoundExpr) -> Predicate {
        match Kernel::compile(&bound) {
            Some(k) => Predicate::Compiled(k),
            None => Predicate::Interpreted(bound),
        }
    }

    /// True iff the compiled path is active (diagnostics / experiments).
    pub fn is_compiled(&self) -> bool {
        matches!(self, Predicate::Compiled(_))
    }

    /// Evaluate as a WHERE predicate ([`BoundExpr::eval_pred`] semantics).
    pub fn eval_pred(&self, tuple: &Tuple) -> Result<bool> {
        match self {
            Predicate::Compiled(k) => k.eval_pred(tuple),
            Predicate::Interpreted(b) => b.eval_pred(tuple),
        }
    }

    /// Evaluate to a [`Value`] ([`BoundExpr::eval`] semantics).
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        match self {
            Predicate::Compiled(k) => k.eval(tuple),
            Predicate::Interpreted(b) => b.eval(tuple),
        }
    }

    /// Vectorized WHERE evaluation over a whole batch (see
    /// [`Kernel::eval_columns`]). Returns `false` — caller falls back to
    /// rows — for interpreted predicates and for batches whose column
    /// representations the kernel cannot statically prove type-safe.
    pub fn eval_columns(
        &self,
        batch: &ColumnBatch,
        scratch: &mut ColumnarScratch,
        keep: &mut Vec<bool>,
    ) -> bool {
        match self {
            Predicate::Compiled(k) => k.eval_columns(batch, scratch, keep),
            Predicate::Interpreted(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{derive_seed, seeded, TcqRng};
    use crate::schema::{DataType, Field, SchemaRef};
    use crate::time::Timestamp;
    use crate::value::Value;

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("b", DataType::Bool),
        ])
        .into_ref()
    }

    fn compiled(e: &Expr, s: &SchemaRef) -> Kernel {
        match Predicate::new(e, s).unwrap() {
            Predicate::Compiled(k) => k,
            Predicate::Interpreted(_) => panic!("expected {e:?} to compile"),
        }
    }

    #[test]
    fn simple_shapes_compile() {
        let s = schema();
        for e in [
            Expr::col("i").cmp(CmpOp::Gt, Expr::lit(3i64)),
            Expr::lit(3i64).cmp(CmpOp::Lt, Expr::col("f")),
            Expr::col("i").cmp(CmpOp::Eq, Expr::col("f")),
            Expr::col("i")
                .cmp(CmpOp::Gt, Expr::lit(0i64))
                .and(Expr::col("s").cmp(CmpOp::Eq, Expr::lit("x"))),
            Expr::Not(Box::new(Expr::col("b").cmp(CmpOp::Eq, Expr::lit(true)))),
            Expr::lit(true),
        ] {
            assert!(
                Predicate::new(&e, &s).unwrap().is_compiled(),
                "{e} should compile"
            );
        }
    }

    #[test]
    fn non_compilable_shapes_fall_back() {
        let s = schema();
        let arith = Expr::Arith {
            op: crate::expr::ArithOp::Add,
            lhs: Box::new(Expr::col("i")),
            rhs: Box::new(Expr::lit(1i64)),
        };
        for e in [
            // Arithmetic inside the comparison.
            arith.clone().cmp(CmpOp::Gt, Expr::lit(3i64)),
            // Bare column in predicate position.
            Expr::col("b"),
            // Non-boolean literal in predicate position.
            Expr::lit(1i64),
            // Non-boolean literal under AND.
            Expr::lit(1i64).and(Expr::lit(true)),
        ] {
            assert!(
                !Predicate::new(&e, &s).unwrap().is_compiled(),
                "{e} should fall back to the interpreter"
            );
        }
    }

    #[test]
    fn binding_errors_surface_before_compilation() {
        let s = schema();
        let e = Expr::col("missing").cmp(CmpOp::Gt, Expr::lit(3i64));
        let kernel_err = Predicate::new(&e, &s).unwrap_err();
        let bind_err = e.bind(&s).unwrap_err();
        assert_eq!(kernel_err.to_string(), bind_err.to_string());
    }

    /// Draw a random value, skewed toward collisions and edge cases
    /// (NULLs, NaNs, numerically-equal Int/Float pairs, type mismatches).
    fn gen_value(rng: &mut TcqRng) -> Value {
        match rng.gen_range(0usize..10) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 | 3 => Value::Int(rng.gen_range(-3i64..3)),
            4 => Value::Float(rng.gen_range(-3i64..3) as f64),
            5 => Value::Float(rng.gen_range(-3.0..3.0)),
            6 => Value::Float([f64::NAN, -0.0, f64::INFINITY][rng.gen_range(0usize..3)]),
            _ => Value::str(["a", "b", "", "ab"][rng.gen_range(0usize..4)]),
        }
    }

    /// Draw a random operand (S in the grammar).
    fn gen_operand(rng: &mut TcqRng, cols: usize) -> Expr {
        if rng.gen_bool(0.5) {
            Expr::col(format!("c{}", rng.gen_range(0usize..cols)))
        } else {
            Expr::Literal(gen_value(rng))
        }
    }

    /// Draw a random predicate from the compilable grammar.
    fn gen_pred(rng: &mut TcqRng, cols: usize, fuel: &mut usize) -> Expr {
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][rng.gen_range(0usize..6)];
        if *fuel == 0 || rng.gen_bool(0.4) {
            return gen_operand(rng, cols).cmp(op, gen_operand(rng, cols));
        }
        *fuel -= 1;
        match rng.gen_range(0usize..4) {
            0 => gen_pred(rng, cols, fuel).and(gen_pred(rng, cols, fuel)),
            1 => gen_pred(rng, cols, fuel).or(gen_pred(rng, cols, fuel)),
            2 => Expr::Not(Box::new(gen_pred(rng, cols, fuel))),
            _ => gen_operand(rng, cols).cmp(op, gen_operand(rng, cols)),
        }
    }

    /// Seeded differential property: across randomized schemas, tuples
    /// (untyped cells — NULLs and type mismatches included), and
    /// grammar-shaped predicates, the kernel's `eval` and `eval_pred`
    /// are bit-identical to the interpreter's — same values, same NULL
    /// semantics, and the same errors with the same messages.
    #[test]
    fn kernel_matches_interpreter_on_random_inputs() {
        const COLS: usize = 4;
        let mut rng = seeded(derive_seed(0xC0FF_EE00, 1));
        let schema: SchemaRef = Schema::new(
            (0..COLS)
                .map(|i| Field::new(format!("c{i}"), DataType::Int))
                .collect::<Vec<_>>(),
        )
        .into_ref();
        let mut compiled_seen = 0usize;
        for case in 0..4_000 {
            let mut fuel = rng.gen_range(0usize..5);
            let pred = gen_pred(&mut rng, COLS, &mut fuel);
            let bound = pred.bind(&schema).unwrap();
            let p = Predicate::from_bound(bound.clone());
            compiled_seen += p.is_compiled() as usize;
            for _ in 0..8 {
                let vals: Vec<Value> = (0..COLS).map(|_| gen_value(&mut rng)).collect();
                let t = Tuple::new(schema.clone(), vals, Timestamp::logical(1)).unwrap();
                match (p.eval(&t), bound.eval(&t)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}: {pred} value diverged"),
                    (Err(a), Err(b)) => assert_eq!(
                        a.to_string(),
                        b.to_string(),
                        "case {case}: {pred} error diverged"
                    ),
                    (a, b) => panic!("case {case}: {pred} Ok/Err diverged: {a:?} vs {b:?}"),
                }
                match (p.eval_pred(&t), bound.eval_pred(&t)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}: {pred} pred diverged"),
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => panic!("case {case}: {pred} pred Ok/Err diverged: {a:?} vs {b:?}"),
                }
            }
        }
        assert!(
            compiled_seen > 3_000,
            "grammar-shaped predicates should mostly compile ({compiled_seen}/4000)"
        );
    }

    /// Seeded differential property for the vectorized path: on random
    /// grammar-shaped predicates over random batches (NULLs, NaNs, type
    /// mismatches included), whenever `eval_columns` claims a batch its
    /// per-row verdicts must equal the row path's `eval_pred` — and the
    /// row path must not error (the compatibility check's whole job).
    #[test]
    fn columnar_eval_matches_row_eval_on_random_batches() {
        const COLS: usize = 4;
        let mut rng = seeded(derive_seed(0xC01_4ABE5, 2));
        let schema: SchemaRef = Schema::new(
            (0..COLS)
                .map(|i| Field::new(format!("c{i}"), DataType::Int))
                .collect::<Vec<_>>(),
        )
        .into_ref();
        let mut scratch = ColumnarScratch::new();
        let mut keep = Vec::new();
        let mut claimed = 0usize;
        for case in 0..2_000 {
            let mut fuel = rng.gen_range(0usize..5);
            let pred = gen_pred(&mut rng, COLS, &mut fuel);
            let p = Predicate::from_bound(pred.bind(&schema).unwrap());
            let Predicate::Compiled(k) = &p else { continue };
            let n = rng.gen_range(0usize..24);
            // Columns are homogeneous-biased (real streams are typed) so
            // the vectorized path gets exercised, with occasional NULLs
            // and occasional fully-mixed columns to hit the fallback.
            let styles: Vec<usize> = (0..COLS).map(|_| rng.gen_range(0usize..6)).collect();
            let cell = |rng: &mut TcqRng, style: usize| -> Value {
                if rng.gen_bool(0.15) {
                    return Value::Null;
                }
                match style {
                    0 => Value::Int(rng.gen_range(-3i64..3)),
                    1 => Value::Float(rng.gen_range(-3.0..3.0)),
                    2 => Value::Float([f64::NAN, -0.0, 2.0][rng.gen_range(0usize..3)]),
                    3 => Value::str(["a", "b", "", "ab"][rng.gen_range(0usize..4)]),
                    4 => Value::Bool(rng.gen()),
                    _ => gen_value(rng),
                }
            };
            let tuples: Vec<Tuple> = (0..n)
                .map(|i| {
                    let vals: Vec<Value> = styles.iter().map(|&s| cell(&mut rng, s)).collect();
                    Tuple::new_unchecked(schema.clone(), vals, Timestamp::logical(i as i64))
                })
                .collect();
            let batch = crate::column::ColumnBatch::from_tuples(schema.clone(), &tuples, None);
            if !k.eval_columns(&batch, &mut scratch, &mut keep) {
                continue; // row-path fallback; nothing to compare
            }
            claimed += 1;
            assert_eq!(keep.len(), n, "case {case}: {pred}");
            for (row, t) in tuples.iter().enumerate() {
                let expect = k.eval_pred(t).unwrap_or_else(|e| {
                    panic!("case {case}: {pred} claimed a batch whose row path errors: {e}")
                });
                assert_eq!(keep[row], expect, "case {case} row {row}: {pred}");
            }
        }
        assert!(
            claimed > 400,
            "vectorized path should claim a healthy share of batches ({claimed}/2000)"
        );
    }

    #[test]
    fn short_circuit_skips_rhs_errors_exactly_like_the_interpreter() {
        let s = schema();
        // FALSE AND (s > 1): interpreter short-circuits before the Str/Int
        // type error; the kernel must too.
        let e = Expr::col("i")
            .cmp(CmpOp::Lt, Expr::lit(i64::MIN))
            .and(Expr::col("s").cmp(CmpOp::Gt, Expr::lit(1i64)));
        let k = compiled(&e, &s);
        let bound = e.bind(&s).unwrap();
        let t = Tuple::new(
            s.clone(),
            vec![
                Value::Int(0),
                Value::Float(0.0),
                Value::str("x"),
                Value::Bool(true),
            ],
            Timestamp::logical(1),
        )
        .unwrap();
        assert!(!k.eval_pred(&t).unwrap());
        assert!(!bound.eval_pred(&t).unwrap());
        // Flip to TRUE AND (...): now both must surface the error.
        let e2 = Expr::col("i")
            .cmp(CmpOp::Ge, Expr::lit(i64::MIN))
            .and(Expr::col("s").cmp(CmpOp::Gt, Expr::lit(1i64)));
        let k2 = compiled(&e2, &s);
        let b2 = e2.bind(&s).unwrap();
        assert_eq!(
            k2.eval_pred(&t).unwrap_err().to_string(),
            b2.eval_pred(&t).unwrap_err().to_string()
        );
    }

    #[test]
    fn deep_nesting_falls_back_instead_of_overflowing() {
        let s = schema();
        // Left-nested ANDs keep depth at 1; right-nested ANDs grow the
        // stack. Build a right-nested chain past MAX_STACK.
        let leaf = || Expr::col("i").cmp(CmpOp::Gt, Expr::lit(0i64));
        let mut e = leaf();
        for _ in 0..(MAX_STACK + 2) {
            e = leaf().and(e);
        }
        let p = Predicate::new(&e, &s).unwrap();
        assert!(!p.is_compiled(), "past-MAX_STACK nesting must fall back");
        // ... and still evaluates correctly through the interpreter.
        let t = Tuple::new(
            s.clone(),
            vec![
                Value::Int(1),
                Value::Float(0.0),
                Value::str("x"),
                Value::Bool(true),
            ],
            Timestamp::logical(1),
        )
        .unwrap();
        assert!(p.eval_pred(&t).unwrap());
    }
}
