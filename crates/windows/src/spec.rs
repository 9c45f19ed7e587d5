//! The for-loop window specification and its semantics.

use std::fmt;

use tcq_common::{Result, TcqError};

/// A linear expression over the loop variable `t` and the query start time
/// `ST`: `t_coeff·t + st_coeff·ST + constant`. This covers every window
/// expression in the paper's examples (`1`, `5`, `101`, `t`, `t - 4`,
/// `ST + 50`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinExpr {
    /// Coefficient of `t`.
    pub t_coeff: i64,
    /// Coefficient of `ST` (query start time).
    pub st_coeff: i64,
    /// Constant term.
    pub constant: i64,
}

impl LinExpr {
    /// The constant `c`.
    pub const fn constant(c: i64) -> Self {
        LinExpr {
            t_coeff: 0,
            st_coeff: 0,
            constant: c,
        }
    }

    /// The loop variable `t`.
    pub const fn t() -> Self {
        LinExpr {
            t_coeff: 1,
            st_coeff: 0,
            constant: 0,
        }
    }

    /// `t + off`.
    pub const fn t_plus(off: i64) -> Self {
        LinExpr {
            t_coeff: 1,
            st_coeff: 0,
            constant: off,
        }
    }

    /// The query start time `ST`.
    pub const fn st() -> Self {
        LinExpr {
            t_coeff: 0,
            st_coeff: 1,
            constant: 0,
        }
    }

    /// `ST + off`.
    pub const fn st_plus(off: i64) -> Self {
        LinExpr {
            t_coeff: 0,
            st_coeff: 1,
            constant: off,
        }
    }

    /// Evaluate at concrete `t` and `st`.
    pub fn eval(&self, t: i64, st: i64) -> i64 {
        self.t_coeff * t + self.st_coeff * st + self.constant
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if self.t_coeff != 0 {
            if self.t_coeff == 1 {
                write!(f, "t")?;
            } else {
                write!(f, "{}*t", self.t_coeff)?;
            }
            wrote = true;
        }
        if self.st_coeff != 0 {
            if wrote {
                write!(f, " + ")?;
            }
            if self.st_coeff == 1 {
                write!(f, "ST")?;
            } else {
                write!(f, "{}*ST", self.st_coeff)?;
            }
            wrote = true;
        }
        if self.constant != 0 || !wrote {
            if wrote {
                if self.constant >= 0 {
                    write!(f, " + {}", self.constant)?;
                } else {
                    write!(f, " - {}", -self.constant)?;
                }
            } else {
                write!(f, "{}", self.constant)?;
            }
        }
        Ok(())
    }
}

/// The continue-condition operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondOp {
    /// `t == bound` (the paper's snapshot idiom `t == 0`).
    Eq,
    /// `t < bound`.
    Lt,
    /// `t <= bound`.
    Le,
    /// `t > bound` (backward-moving windows).
    Gt,
    /// `t >= bound`.
    Ge,
}

/// The loop's continue condition: `t <op> bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Condition {
    /// Operator.
    pub op: CondOp,
    /// Bound expression (may reference ST, not `t`).
    pub bound: LinExpr,
}

impl Condition {
    /// Check at concrete `t`, `st`.
    pub fn holds(&self, t: i64, st: i64) -> Result<bool> {
        if self.bound.t_coeff != 0 {
            return Err(TcqError::InvalidWindow(
                "continue condition bound must not reference t".into(),
            ));
        }
        let b = self.bound.eval(0, st);
        Ok(match self.op {
            CondOp::Eq => t == b,
            CondOp::Lt => t < b,
            CondOp::Le => t <= b,
            CondOp::Gt => t > b,
            CondOp::Ge => t >= b,
        })
    }
}

/// The loop's per-iteration change to `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `t += k` (k may be negative: backward windows; the paper: "windows
    /// can also be defined to move … in the reverse-timestamp direction").
    Add(i64),
    /// `t = k` (the paper's snapshot idiom `t = -1`, which falsifies
    /// `t == 0` after the single iteration).
    Set(i64),
}

impl Step {
    /// Apply to `t`.
    pub fn apply(&self, t: i64) -> i64 {
        match self {
            Step::Add(k) => t + k,
            Step::Set(k) => *k,
        }
    }
}

/// One `WindowIs(stream, left, right)` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowIs {
    /// The stream (or alias) this window applies to.
    pub stream: String,
    /// Left end, inclusive.
    pub left: LinExpr,
    /// Right end, inclusive.
    pub right: LinExpr,
}

impl WindowIs {
    /// Construct.
    pub fn new(stream: impl Into<String>, left: LinExpr, right: LinExpr) -> Self {
        WindowIs {
            stream: stream.into(),
            left,
            right,
        }
    }
}

/// The for-loop: one per "group of streams that exhibit the same window
/// transition behavior" (§4.1.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForLoop {
    /// Initial value of `t` (may reference ST).
    pub init: LinExpr,
    /// Continue condition.
    pub cond: Condition,
    /// Per-iteration change.
    pub step: Step,
    /// One WindowIs per stream in the group.
    pub windows: Vec<WindowIs>,
}

/// How long a for-loop runs, and between which values of `t`, in closed
/// form (see [`ForLoop::extent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopLength {
    /// The continue condition fails at the initial `t`.
    Empty,
    /// The loop ends.
    Finite {
        /// Number of iterations (at least 1).
        iterations: u64,
        /// `t` at the first iteration.
        first_t: i64,
        /// `t` at the last iteration.
        last_t: i64,
    },
    /// The condition holds forever (a continuous query).
    Unbounded {
        /// `t` at the first iteration.
        first_t: i64,
    },
}

impl ForLoop {
    /// How many times the loop instantiated at query start time `st`
    /// iterates, and between which values of `t`, computed from `init`,
    /// `cond` and `step` without running it — [`WindowSeq`] yields exactly
    /// this many assignments, the first at `first_t` and the last at
    /// `last_t`. `t` moves monotonically, and every window bound is linear
    /// in `t`, so the loop's extreme bounds are those of its first and
    /// last iterations ([`ForLoop::windows_at`]).
    pub fn extent(&self, st: i64) -> Result<LoopLength> {
        let t0 = self.init.eval(0, st);
        if !self.cond.holds(t0, st)? {
            return Ok(LoopLength::Empty);
        }
        let finite = |iterations: u64, last_t: i64| LoopLength::Finite {
            iterations,
            first_t: t0,
            last_t,
        };
        let k = match self.step {
            // `t = k`: the iteration after a Set runs at `k`; a second Set
            // leaves `t` where it was, which WindowSeq treats as terminal.
            Step::Set(k) if k != t0 && self.cond.holds(k, st)? => return Ok(finite(2, k)),
            Step::Set(_) => return Ok(finite(1, t0)),
            Step::Add(k) => k,
        };
        // Steps the condition survives after the first iteration, given
        // that it holds at `t0`: how far `t` can travel towards the bound
        // in whole steps. i128: `bound - t0` can exceed i64.
        let bound = i128::from(self.cond.bound.eval(0, st));
        let (t0w, kw) = (i128::from(t0), i128::from(k));
        let more_steps = match self.cond.op {
            CondOp::Eq if k == 0 => None,
            CondOp::Eq => Some(0),
            CondOp::Lt if k > 0 => Some((bound - 1 - t0w) / kw),
            CondOp::Le if k > 0 => Some((bound - t0w) / kw),
            CondOp::Gt if k < 0 => Some((t0w - bound - 1) / -kw),
            CondOp::Ge if k < 0 => Some((t0w - bound) / -kw),
            // `t` stands still or moves away from the bound.
            CondOp::Lt | CondOp::Le | CondOp::Gt | CondOp::Ge => None,
        };
        Ok(match more_steps {
            None => LoopLength::Unbounded { first_t: t0 },
            Some(n) => {
                let last_t = i64::try_from(t0w + n * kw).expect("between t0 and the bound");
                // 2^64 iterations (t from i64::MIN to i64::MAX by 1) saturate.
                finite(u64::try_from(n + 1).unwrap_or(u64::MAX), last_t)
            }
        })
    }

    /// The pane grid of `stream`'s windows when the loop is instantiated
    /// at query start time `st` (see [`Panes`]), in closed form from
    /// [`ForLoop::extent`]; `None` when the loop has no window on `stream`.
    fn panes(&self, stream: &str, st: i64) -> Result<Option<Panes>> {
        let Some(w) = self
            .windows
            .iter()
            .find(|w| w.stream.eq_ignore_ascii_case(stream))
        else {
            return Ok(None);
        };
        let (first_t, iterations) = match self.extent(st)? {
            LoopLength::Empty => (0, Some(0)),
            LoopLength::Finite {
                iterations,
                first_t,
                ..
            } => (first_t, Some(iterations)),
            LoopLength::Unbounded { first_t } => (first_t, None),
        };
        // `t` at iteration j is first_t + j·dt; a Set step runs at most
        // twice, at `init` and then at `k`.
        let dt = match self.step {
            Step::Add(k) => i128::from(k),
            Step::Set(k) => i128::from(k) - i128::from(first_t),
        };
        let edges = |e: &LinExpr, plus: i128| Edges {
            first: i128::from(e.eval(first_t, st)) + plus,
            step: i128::from(e.t_coeff).saturating_mul(dt),
        };
        Ok(Some(Panes {
            lefts: edges(&w.left, 0),
            ends: edges(&w.right, 1),
            iterations,
        }))
    }

    /// Every stream's window at loop variable `t`, with the validity check
    /// [`WindowSeq`] applies at each iteration (`left <= right`).
    pub fn windows_at(&self, t: i64, st: i64) -> Result<WindowAssignment> {
        let mut windows = Vec::with_capacity(self.windows.len());
        for w in &self.windows {
            let left = w.left.eval(t, st);
            let right = w.right.eval(t, st);
            if left > right {
                return Err(TcqError::InvalidWindow(format!(
                    "window [{left}, {right}] on {} has left > right at t={t}",
                    w.stream
                )));
            }
            windows.push((w.stream.clone(), WindowInstance { left, right }));
        }
        Ok(WindowAssignment { t, windows })
    }
}

/// One arithmetic progression of window edges: `first + j·step` at
/// iteration `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edges {
    first: i128,
    step: i128,
}

impl Edges {
    fn at(&self, j: u64) -> i128 {
        (self.first).saturating_add(i128::from(j).saturating_mul(self.step))
    }

    /// The largest edge at or below `seq` among iterations `from..n`.
    fn floor(&self, from: u64, n: Option<u64>, seq: i128) -> Option<i128> {
        let steps = |d: i128| from.saturating_add(u64::try_from(d).unwrap_or(u64::MAX));
        let base = self.at(from);
        let j = match self.step.signum() {
            // Edges fall with j: the first one at or below `seq`.
            -1 => {
                let back = self.step.saturating_neg();
                steps(div(
                    base.saturating_sub(seq).max(0).saturating_add(back - 1),
                    back,
                ))
            }
            _ if base > seq => return None,
            0 => from,
            _ => steps(div(seq.saturating_sub(base), self.step))
                .min(n.map_or(u64::MAX, |n| n.saturating_sub(1))),
        };
        (j >= from && n.is_none_or(|n| j < n)).then(|| self.at(j))
    }
}

/// `a / b` for `a >= 0`, `b > 0`, in 64 bits when both fit: a pane lookup
/// per row divides twice, and 128-bit division is several times slower.
fn div(a: i128, b: i128) -> i128 {
    match (u64::try_from(a), u64::try_from(b)) {
        (Ok(a), Ok(b)) => (a / b).into(),
        _ => a / b,
    }
}

/// One stream's windows of a for-loop, cut into panes (see
/// [`WindowSeq::panes`]).
///
/// Every window bound is linear in `t`, and `t` moves by a fixed step, so
/// the left edges and the right-plus-one edges of the loop's windows are
/// two arithmetic progressions over the iteration number. Together they
/// cut the timeline into *panes*: the spans between consecutive edges.
/// Every window is a run of whole panes, so partial aggregates kept per
/// pane answer every window. Once windows have closed, only the edges of
/// the windows still to come matter: each query here takes `from`, the
/// first iteration not yet closed, and looks at those windows alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Panes {
    lefts: Edges,
    ends: Edges,
    /// Iterations the loop runs; `None` when it never ends.
    iterations: Option<u64>,
}

impl Panes {
    /// The pane holding `seq` among the windows of iterations `from..`:
    /// the start of that pane, which is the largest of their edges at or
    /// below `seq`. `None` when none of those windows starts at or before
    /// `seq`, so none can contain it.
    pub fn pane_of(&self, from: u64, seq: i64) -> Option<i64> {
        let (n, seq) = (self.iterations, i128::from(seq));
        let left = self.lefts.floor(from, n, seq)?;
        let start = self.ends.floor(from, n, seq).map_or(left, |e| e.max(left));
        i64::try_from(start).ok()
    }
}

/// One stream's concrete window at one loop iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowInstance {
    /// Left end (inclusive).
    pub left: i64,
    /// Right end (inclusive).
    pub right: i64,
}

/// All streams' windows at one loop iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowAssignment {
    /// The loop variable's value.
    pub t: i64,
    /// Per-stream windows, parallel to [`ForLoop::windows`].
    pub windows: Vec<(String, WindowInstance)>,
}

impl WindowAssignment {
    /// The window for a given stream.
    pub fn window_for(&self, stream: &str) -> Option<WindowInstance> {
        self.windows
            .iter()
            .find(|(s, _)| s.eq_ignore_ascii_case(stream))
            .map(|(_, w)| *w)
    }

    /// The largest right end across streams — the stream time at which this
    /// iteration's answer can be finalized.
    pub fn close_time(&self) -> i64 {
        self.windows
            .iter()
            .map(|(_, w)| w.right)
            .max()
            .unwrap_or(i64::MIN)
    }
}

/// Iterator over a for-loop's concrete window assignments.
pub struct WindowSeq {
    spec: ForLoop,
    st: i64,
    t: i64,
    done: bool,
    iterations: u64,
}

impl WindowSeq {
    /// Instantiate a loop at query start time `st`.
    pub fn new(spec: ForLoop, st: i64) -> Self {
        let t = spec.init.eval(0, st);
        WindowSeq {
            spec,
            st,
            t,
            done: false,
            iterations: 0,
        }
    }

    /// The iterator's current position — everything a checkpoint needs to
    /// resume this loop later with [`WindowSeq::seek`].
    pub fn position(&self) -> WindowSeqPos {
        WindowSeqPos {
            t: self.t,
            iterations: self.iterations,
            done: self.done,
        }
    }

    /// The query start time `ST` this loop was anchored at. Window bounds
    /// are linear in `(t, ST)`, so a checkpoint must persist `ST` next to
    /// the [`WindowSeqPos`] for [`WindowSeq::seek`] to be exact.
    pub fn start_time(&self) -> i64 {
        self.st
    }

    /// Re-anchor the loop at a restored query start time (always paired
    /// with [`WindowSeq::seek`] when resuming from a checkpoint).
    pub fn set_start_time(&mut self, st: i64) {
        self.st = st;
    }

    /// The assignment the next call to `next` yields, without advancing.
    pub fn peek(&self) -> Option<Result<WindowAssignment>> {
        if self.done {
            return None;
        }
        match self.spec.cond.holds(self.t, self.st) {
            Err(e) => Some(Err(e)),
            Ok(false) => None,
            Ok(true) => Some(self.spec.windows_at(self.t, self.st)),
        }
    }

    /// This loop's panes on `stream` at its start time; `None` when the
    /// loop has no window on `stream`.
    pub fn panes(&self, stream: &str) -> Result<Option<Panes>> {
        self.spec.panes(stream, self.st)
    }

    /// Jump to a previously captured position. The spec and `st` must be
    /// the ones this position was captured from (a checkpoint restores
    /// both); the sequence then continues exactly where it left off.
    pub fn seek(&mut self, pos: WindowSeqPos) {
        self.t = pos.t;
        self.iterations = pos.iterations;
        self.done = pos.done;
    }
}

/// A resumable [`WindowSeq`] position (see [`WindowSeq::position`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSeqPos {
    /// The loop variable's next value.
    pub t: i64,
    /// Assignments already produced.
    pub iterations: u64,
    /// Whether the loop had terminated.
    pub done: bool,
}

impl Iterator for WindowSeq {
    type Item = Result<WindowAssignment>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.peek();
        if !matches!(item, Some(Ok(_))) {
            self.done = true;
            return item;
        }
        let t = self.t;
        self.t = self.spec.step.apply(self.t);
        self.iterations += 1;
        // A Set step that leaves t unchanged would loop forever on the same
        // assignment; treat the iteration after a no-op Set as terminal.
        if let Step::Set(k) = self.spec.step {
            if k == t {
                self.done = true;
            }
        }
        item
    }
}

/// The §4.1 window taxonomy, derived from the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Executes exactly once over one window.
    Snapshot,
    /// Fixed left end, right end moves forward.
    Landmark,
    /// Both ends move forward. `hop` = distance between consecutive
    /// windows, `width` = window size; `hop > width` means "some portions
    /// of the stream are never involved in the processing of the query"
    /// (§4.1.2).
    Sliding {
        /// Distance between consecutive windows.
        hop: i64,
        /// Window width.
        width: i64,
    },
    /// Both ends move backward over history.
    Backward,
    /// Degenerate: a fixed window repeated (e.g. zero step).
    Fixed,
}

/// Classify a for-loop's first WindowIs.
pub fn classify(spec: &ForLoop) -> Result<WindowKind> {
    let w = spec
        .windows
        .first()
        .ok_or_else(|| TcqError::InvalidWindow("for-loop with no WindowIs".into()))?;
    // Snapshot idioms: an Eq condition (true for exactly one t) or a Set
    // step (which either terminates after one iteration or degenerates).
    if spec.cond.op == CondOp::Eq {
        return Ok(WindowKind::Snapshot);
    }
    let step = match spec.step {
        Step::Add(k) => k,
        Step::Set(_) => return Ok(WindowKind::Snapshot),
    };
    if step == 0 {
        return Ok(WindowKind::Fixed);
    }
    let left_rate = w.left.t_coeff * step;
    let right_rate = w.right.t_coeff * step;
    Ok(match (left_rate, right_rate) {
        (0, 0) => WindowKind::Fixed,
        (0, r) if r > 0 => WindowKind::Landmark,
        (l, r) if l > 0 && r > 0 => {
            // width from the expressions at the same t (t-independent when
            // both coefficients are equal; otherwise report the initial).
            let t0 = spec.init.eval(0, 0);
            let width = w.right.eval(t0, 0) - w.left.eval(t0, 0) + 1;
            WindowKind::Sliding { hop: right_rate, width }
        }
        (l, r) if l < 0 && r < 0 => WindowKind::Backward,
        _ => {
            return Err(TcqError::InvalidWindow(format!(
                "window ends move in opposite directions (left rate {left_rate}, right rate {right_rate})"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §4.1.1 example 1 — snapshot: first five trading days.
    fn snapshot_spec() -> ForLoop {
        ForLoop {
            init: LinExpr::constant(0),
            cond: Condition {
                op: CondOp::Eq,
                bound: LinExpr::constant(0),
            },
            step: Step::Set(-1),
            windows: vec![WindowIs::new(
                "ClosingStockPrices",
                LinExpr::constant(1),
                LinExpr::constant(5),
            )],
        }
    }

    /// §4.1.1 example 2 — landmark: [101, t] for t in 101..=1000.
    fn landmark_spec() -> ForLoop {
        ForLoop {
            init: LinExpr::constant(101),
            cond: Condition {
                op: CondOp::Le,
                bound: LinExpr::constant(1000),
            },
            step: Step::Add(1),
            windows: vec![WindowIs::new(
                "ClosingStockPrices",
                LinExpr::constant(101),
                LinExpr::t(),
            )],
        }
    }

    /// §4.1.1 example 3 — sliding: [t-4, t], t from ST by 5, for 50 days.
    fn sliding_spec() -> ForLoop {
        ForLoop {
            init: LinExpr::st(),
            cond: Condition {
                op: CondOp::Lt,
                bound: LinExpr::st_plus(50),
            },
            step: Step::Add(5),
            windows: vec![WindowIs::new(
                "ClosingStockPrices",
                LinExpr::t_plus(-4),
                LinExpr::t(),
            )],
        }
    }

    /// §4.1.1 example 4 — band join: both aliases share [t-4, t].
    fn band_spec() -> ForLoop {
        ForLoop {
            init: LinExpr::st(),
            cond: Condition {
                op: CondOp::Lt,
                bound: LinExpr::st_plus(20),
            },
            step: Step::Add(1),
            windows: vec![
                WindowIs::new("c1", LinExpr::t_plus(-4), LinExpr::t()),
                WindowIs::new("c2", LinExpr::t_plus(-4), LinExpr::t()),
            ],
        }
    }

    #[test]
    fn snapshot_runs_exactly_once() {
        let seq: Vec<_> = WindowSeq::new(snapshot_spec(), 7)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(seq.len(), 1);
        assert_eq!(
            seq[0].window_for("closingstockprices").unwrap(),
            WindowInstance { left: 1, right: 5 }
        );
        assert_eq!(classify(&snapshot_spec()).unwrap(), WindowKind::Snapshot);
    }

    #[test]
    fn landmark_grows_from_fixed_left() {
        let seq: Vec<_> = WindowSeq::new(landmark_spec(), 0)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(seq.len(), 900);
        assert_eq!(
            seq[0].windows[0].1,
            WindowInstance {
                left: 101,
                right: 101
            }
        );
        assert_eq!(
            seq.last().unwrap().windows[0].1,
            WindowInstance {
                left: 101,
                right: 1000
            }
        );
        let kind = classify(&landmark_spec()).unwrap();
        assert_eq!(kind, WindowKind::Landmark);
    }

    #[test]
    fn sliding_hops_by_five() {
        let st = 100;
        let seq: Vec<_> = WindowSeq::new(sliding_spec(), st)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(seq.len(), 10);
        assert_eq!(
            seq[0].windows[0].1,
            WindowInstance {
                left: 96,
                right: 100
            }
        );
        assert_eq!(
            seq[1].windows[0].1,
            WindowInstance {
                left: 101,
                right: 105
            }
        );
        let kind = classify(&sliding_spec()).unwrap();
        assert_eq!(kind, WindowKind::Sliding { hop: 5, width: 5 });
    }

    #[test]
    fn band_join_windows_move_in_unison() {
        let seq: Vec<_> = WindowSeq::new(band_spec(), 50)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(seq.len(), 20);
        for wa in &seq {
            assert_eq!(wa.window_for("c1"), wa.window_for("c2"));
            assert_eq!(wa.close_time(), wa.t);
        }
    }

    #[test]
    fn backward_windows() {
        // "windows that move backwards starting from the present time"
        let spec = ForLoop {
            init: LinExpr::st(),
            cond: Condition {
                op: CondOp::Gt,
                bound: LinExpr::constant(0),
            },
            step: Step::Add(-10),
            windows: vec![WindowIs::new("s", LinExpr::t_plus(-9), LinExpr::t())],
        };
        assert_eq!(classify(&spec).unwrap(), WindowKind::Backward);
        let seq: Vec<_> = WindowSeq::new(spec, 30)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(seq.len(), 3);
        assert_eq!(
            seq[0].windows[0].1,
            WindowInstance {
                left: 21,
                right: 30
            }
        );
        assert_eq!(seq[2].windows[0].1, WindowInstance { left: 1, right: 10 });
    }

    #[test]
    fn invalid_window_left_after_right() {
        let spec = ForLoop {
            init: LinExpr::constant(0),
            cond: Condition {
                op: CondOp::Le,
                bound: LinExpr::constant(5),
            },
            step: Step::Add(1),
            windows: vec![WindowIs::new("s", LinExpr::constant(10), LinExpr::t())],
        };
        let mut seq = WindowSeq::new(spec, 0);
        assert!(seq.next().unwrap().is_err());
        assert!(seq.next().is_none(), "iterator fuses after error");
    }

    #[test]
    fn condition_referencing_t_in_bound_rejected() {
        let spec = ForLoop {
            init: LinExpr::constant(0),
            cond: Condition {
                op: CondOp::Lt,
                bound: LinExpr::t(),
            },
            step: Step::Add(1),
            windows: vec![WindowIs::new("s", LinExpr::t(), LinExpr::t())],
        };
        assert!(WindowSeq::new(spec, 0).next().unwrap().is_err());
    }

    #[test]
    fn an_unbounded_loop_keeps_yielding() {
        // An unbounded continuous query: t >= 0 forever.
        let spec = ForLoop {
            init: LinExpr::constant(0),
            cond: Condition {
                op: CondOp::Ge,
                bound: LinExpr::constant(0),
            },
            step: Step::Add(1),
            windows: vec![WindowIs::new("s", LinExpr::t(), LinExpr::t())],
        };
        let n = WindowSeq::new(spec, 0).take(100).count();
        assert_eq!(n, 100);
    }

    /// Run the loop and report what `extent` claims to know without
    /// running it; `None` when it outlives `cap` iterations.
    fn brute_force_extent(spec: &ForLoop, st: i64, cap: u64) -> Option<LoopLength> {
        let ts: Vec<i64> = WindowSeq::new(spec.clone(), st)
            .take(cap as usize)
            .map(|wa| wa.unwrap().t)
            .collect();
        match (ts.first(), ts.last()) {
            _ if ts.len() as u64 == cap => None,
            (Some(&first_t), Some(&last_t)) => Some(LoopLength::Finite {
                iterations: ts.len() as u64,
                first_t,
                last_t,
            }),
            _ => Some(LoopLength::Empty),
        }
    }

    #[test]
    fn extent_agrees_with_iteration_on_random_small_loops() {
        let mut rng = tcq_common::rng::seeded(0x100B);
        let ops = [CondOp::Eq, CondOp::Lt, CondOp::Le, CondOp::Gt, CondOp::Ge];
        let (mut finite, mut empty, mut unbounded, mut two_step) = (0, 0, 0, 0);
        for case in 0..20_000 {
            let st = rng.gen_range(-20..20i64);
            let lin = |rng: &mut tcq_common::rng::TcqRng| LinExpr {
                t_coeff: 0,
                st_coeff: rng.gen_range(0..2i64),
                constant: rng.gen_range(-30..30i64),
            };
            let spec = ForLoop {
                init: lin(&mut rng),
                cond: Condition {
                    op: ops[rng.gen_range(0..ops.len())],
                    bound: lin(&mut rng),
                },
                // Forward, backward, standing still (k = 0), and Set.
                step: match rng.gen_range(0..4u32) {
                    0 => Step::Set(rng.gen_range(-30..30i64)),
                    _ => Step::Add(rng.gen_range(-7..8i64)),
                },
                windows: vec![WindowIs::new("s", LinExpr::t_plus(-4), LinExpr::t())],
            };
            let got = spec.extent(st).unwrap();
            match brute_force_extent(&spec, st, 500) {
                Some(want) => assert_eq!(got, want, "case {case}: {spec:?} at ST={st}"),
                None => {
                    let first_t = spec.init.eval(0, st);
                    assert_eq!(
                        got,
                        LoopLength::Unbounded { first_t },
                        "case {case}: {spec:?}"
                    );
                }
            }
            match got {
                LoopLength::Empty => empty += 1,
                LoopLength::Unbounded { .. } => unbounded += 1,
                LoopLength::Finite {
                    iterations,
                    first_t,
                    last_t,
                } => {
                    finite += 1;
                    two_step += usize::from(iterations > 1);
                    // What join planning reads off the extent: the loop's
                    // extreme window bounds are at its two ends.
                    let all: Vec<_> = WindowSeq::new(spec.clone(), st)
                        .collect::<Result<Vec<_>>>()
                        .unwrap();
                    let ends = [first_t, last_t].map(|t| spec.windows_at(t, st).unwrap());
                    assert_eq!(ends[0], all[0]);
                    assert_eq!(&ends[1], all.last().unwrap());
                    assert_eq!(
                        ends.iter().map(WindowAssignment::close_time).max(),
                        all.iter().map(WindowAssignment::close_time).max()
                    );
                }
            }
        }
        assert!(
            finite > 2000 && two_step > 1000 && empty > 2000 && unbounded > 2000,
            "every outcome must be exercised: {finite} finite ({two_step} multi-step), \
             {empty} empty, {unbounded} unbounded"
        );
    }

    #[test]
    fn extent_is_exact_where_iterating_is_out_of_reach() {
        // A finite loop of 10^9 iterations: counted, not run.
        let mut spec = sliding_spec();
        spec.cond.bound = LinExpr::st_plus(5_000_000_000);
        assert_eq!(
            spec.extent(100).unwrap(),
            LoopLength::Finite {
                iterations: 1_000_000_000,
                first_t: 100,
                last_t: 100 + 5 * 999_999_999,
            }
        );
        // The paper's continuous-query idiom never ends.
        spec.cond = Condition {
            op: CondOp::Ge,
            bound: LinExpr::constant(0),
        };
        assert_eq!(
            spec.extent(100).unwrap(),
            LoopLength::Unbounded { first_t: 100 }
        );
        // The snapshot idiom runs once; the widest finite loop saturates.
        assert_eq!(
            snapshot_spec().extent(7).unwrap(),
            LoopLength::Finite {
                iterations: 1,
                first_t: 0,
                last_t: 0,
            }
        );
        let widest = ForLoop {
            init: LinExpr::constant(i64::MIN),
            cond: Condition {
                op: CondOp::Le,
                bound: LinExpr::constant(i64::MAX),
            },
            step: Step::Add(1),
            windows: vec![],
        };
        assert_eq!(
            widest.extent(0).unwrap(),
            LoopLength::Finite {
                iterations: u64::MAX,
                first_t: i64::MIN,
                last_t: i64::MAX,
            }
        );
        // A bound that references `t` is rejected, as WindowSeq rejects it.
        spec.cond.bound = LinExpr::t();
        assert!(spec.extent(100).is_err());
    }

    #[test]
    fn panes_agree_with_the_windows_the_loop_produces() {
        // For random finite loops (forward, backward, landmark, hopping,
        // shrinking, Set), every closed-form answer must match the edges
        // of the windows still to come, enumerated.
        let mut rng = tcq_common::rng::seeded(0x9A4E);
        let ops = [CondOp::Eq, CondOp::Lt, CondOp::Le, CondOp::Gt, CondOp::Ge];
        let mut probes = 0;
        for case in 0..3_000 {
            let st = rng.gen_range(-20..20i64);
            let mut coeff = || rng.gen_range(-2..3i64);
            let (lt, rt) = (coeff(), coeff());
            let spec = ForLoop {
                init: LinExpr::st_plus(rng.gen_range(-10..10i64)),
                cond: Condition {
                    op: ops[rng.gen_range(0..ops.len())],
                    bound: LinExpr::st_plus(rng.gen_range(-40..40i64)),
                },
                step: match rng.gen_range(0..5u32) {
                    0 => Step::Set(rng.gen_range(-30..30i64)),
                    _ => Step::Add(rng.gen_range(-6..7i64)),
                },
                windows: vec![WindowIs::new(
                    "s",
                    LinExpr {
                        t_coeff: lt,
                        st_coeff: 0,
                        constant: rng.gen_range(-10..5i64),
                    },
                    LinExpr {
                        t_coeff: rt,
                        st_coeff: 1,
                        constant: rng.gen_range(-5..10i64),
                    },
                )],
            };
            let n = match spec.extent(st).unwrap() {
                LoopLength::Finite { iterations, .. } if iterations <= 200 => iterations,
                LoopLength::Empty => 0,
                _ => continue,
            };
            // Bounds as the loop evaluates them, crossed windows included.
            let mut t = spec.init.eval(0, st);
            let mut bounds = Vec::new();
            let w = &spec.windows[0];
            for _ in 0..n {
                bounds.push((w.left.eval(t, st), w.right.eval(t, st)));
                t = spec.step.apply(t);
            }
            let panes = spec.panes("S", st).unwrap().unwrap();
            for from in 0..=n {
                let rest = &bounds[from as usize..];
                let edges: Vec<i64> = rest.iter().flat_map(|&(l, r)| [l, r + 1]).collect();
                for seq in -80..80 {
                    probes += 1;
                    let want = (rest.iter().any(|&(l, _)| l <= seq))
                        .then(|| edges.iter().filter(|&&e| e <= seq).max().copied())
                        .flatten();
                    assert_eq!(
                        panes.pane_of(from, seq),
                        want,
                        "case {case}: {spec:?} from {from} seq {seq}"
                    );
                }
            }
        }
        assert!(probes > 100_000, "only {probes} probes");
        assert_eq!(
            sliding_spec().panes("nope", 0).unwrap(),
            None,
            "no window on the stream, no panes"
        );
    }

    #[test]
    fn panes_of_unbounded_and_huge_loops_in_closed_form() {
        // Landmark [101, t] by 5 forever: one left edge, ends every 5.
        let mut landmark = landmark_spec();
        landmark.cond = Condition {
            op: CondOp::Ge,
            bound: LinExpr::constant(0),
        };
        landmark.step = Step::Add(5);
        let p = landmark.panes("ClosingStockPrices", 0).unwrap().unwrap();
        assert_eq!(p.pane_of(0, 100), None);
        assert_eq!(p.pane_of(0, 104), Some(102));
        assert_eq!(p.pane_of(0, 107), Some(107));
        // After 3 windows ([101,101], [101,106], [101,111]) closed, 102
        // and 107 are no longer edges: everything below 117 is one pane.
        assert_eq!(p.pane_of(3, 107), Some(101));
        assert_eq!(p.pane_of(3, 116), Some(101));
        assert_eq!(p.pane_of(3, 117), Some(117));
        // A 10^9-iteration sliding loop, far into it.
        let mut sliding = sliding_spec();
        sliding.cond.bound = LinExpr::st_plus(5_000_000_000);
        let p = sliding.panes("ClosingStockPrices", 100).unwrap().unwrap();
        let last = 100 + 5 * 999_999_999;
        assert_eq!(p.pane_of(999_999_999, last), Some(last - 4));
        assert_eq!(p.pane_of(1_000_000_000, last), None, "the loop is over");
        assert_eq!(p.pane_of(500, 100 + 5 * 500 - 2), Some(100 + 5 * 500 - 4));
        assert_eq!(
            p.pane_of(500, 100 + 5 * 499 - 5),
            None,
            "behind every left edge"
        );
    }

    #[test]
    fn position_and_seek_resume_exactly() {
        // Emit 4 windows, checkpoint the position, emit the rest; a fresh
        // iterator seeked to the checkpoint must produce the same tail.
        let st = 100;
        let mut live = WindowSeq::new(sliding_spec(), st);
        for _ in 0..4 {
            live.next().unwrap().unwrap();
        }
        let pos = live.position();
        let tail: Vec<_> = live.collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(tail.len(), 6);

        let mut restored = WindowSeq::new(sliding_spec(), st);
        restored.seek(pos);
        let resumed: Vec<_> = restored.collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(resumed, tail);
    }

    #[test]
    fn linexpr_display() {
        assert_eq!(LinExpr::t_plus(-4).to_string(), "t - 4");
        assert_eq!(LinExpr::st_plus(50).to_string(), "ST + 50");
        assert_eq!(LinExpr::constant(0).to_string(), "0");
        assert_eq!(LinExpr::constant(101).to_string(), "101");
    }

    #[test]
    fn opposite_direction_windows_rejected() {
        let spec = ForLoop {
            init: LinExpr::constant(0),
            cond: Condition {
                op: CondOp::Le,
                bound: LinExpr::constant(5),
            },
            step: Step::Add(1),
            windows: vec![WindowIs::new(
                "s",
                LinExpr {
                    t_coeff: -1,
                    st_coeff: 0,
                    constant: 0,
                },
                LinExpr::t(),
            )],
        };
        assert!(classify(&spec).is_err());
    }
}
