//! TelegraphCQ window semantics (§4.1).
//!
//! > "We support much more general windows than the landmark and sliding
//! > windows described above. This is done using a for-loop construct to
//! > declare the sequence of windows over which the user desires the
//! > answers to the query: a variable `t` moves over the timeline as the
//! > for-loop iterates, and the left and right ends (inclusive) of each
//! > window in the sequence, and the stopping condition for the query can
//! > be defined with respect to this variable `t`."
//!
//! ```text
//! for(t = initial_value; continue_condition(t); change(t)) {
//!     WindowIs(Stream A, left_end(t), right_end(t));
//!     WindowIs(Stream B, left_end(t), right_end(t));
//! }
//! ```
//!
//! This crate is the executable form of that construct:
//!
//! * [`LinExpr`] — the linear expressions in `t` and the query start time
//!   `ST` that the paper's examples use for window ends and bounds.
//! * [`ForLoop`] / [`WindowIs`] — the loop itself.
//! * [`WindowSeq`] — iterate the concrete window assignments.
//! * [`WindowKind`] / classification — snapshot / landmark / sliding /
//!   hopping / backward.
//! * [`Panes`] — the spans between consecutive window edges, in closed
//!   form: the unit a windowed aggregate keeps partials for, so the
//!   §4.1.2 memory consequences of a window shape follow from its edges.
//!
//! # Example: the paper's sliding-window loop
//!
//! ```
//! use tcq_windows::{classify, CondOp, Condition, ForLoop, LinExpr, Step, WindowIs, WindowKind, WindowSeq};
//!
//! // for (t = ST; t < ST + 50; t += 5) { WindowIs(S, t - 4, t); }
//! let spec = ForLoop {
//!     init: LinExpr::st(),
//!     cond: Condition { op: CondOp::Lt, bound: LinExpr::st_plus(50) },
//!     step: Step::Add(5),
//!     windows: vec![WindowIs::new("S", LinExpr::t_plus(-4), LinExpr::t())],
//! };
//! assert_eq!(classify(&spec).unwrap(), WindowKind::Sliding { hop: 5, width: 5 });
//!
//! let assignments: Vec<_> = WindowSeq::new(spec, 100)
//!     .collect::<tcq_common::Result<Vec<_>>>()
//!     .unwrap();
//! assert_eq!(assignments.len(), 10);
//! assert_eq!(assignments[0].window_for("S").unwrap().left, 96);
//! assert_eq!(assignments[0].window_for("S").unwrap().right, 100);
//! ```

#![warn(missing_docs)]

pub mod spec;

pub use spec::{
    classify, CondOp, Condition, ForLoop, LinExpr, LoopLength, Panes, Step, WindowAssignment,
    WindowInstance, WindowIs, WindowKind, WindowSeq, WindowSeqPos,
};
