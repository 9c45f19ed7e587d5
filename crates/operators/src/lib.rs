//! Query-processing modules (TelegraphCQ §2.1).
//!
//! > "In Telegraph, query processing is performed by routing tuples through
//! > query modules. These modules are pipelined, non-blocking versions of
//! > standard relational operators such as joins, selections, projections,
//! > grouping and aggregation, and duplicate elimination."
//!
//! Modules come in two flavours here:
//!
//! * **Eddy modules** ([`EddyModule`]) — commutative, tuple-at-a-time
//!   operators an eddy routes through: [`SelectOp`], [`StemOp`]
//!   (build/probe halves of joins) and [`RemoteIndexOp`] (the simulated
//!   remote access method used for join hybridization).
//! * **Consumers** — operators applied to the eddy's *output* stream, where
//!   ordering is fixed: [`ProjectOp`] and the aggregate partials
//!   ([`AggState`], which the server's window driver keeps per pane and
//!   group, and [`GroupByAggregator`]). Juggle-style
//!   prioritized delivery (\[RRH99\]) lives at the egress boundary, in
//!   `tcq_egress`'s prioritized pull client.
//!
//! The split mirrors the paper: eddies adaptively order the *commutative*
//! part of the plan; modules at the eddy's input or output "are not
//! considered in the Eddy's adaptive decision-making" (§2.2).

#![warn(missing_docs)]

pub mod aggregate;
pub mod module;
pub mod project;
pub mod remote_index;
pub mod select;
pub mod stem_op;

pub use aggregate::{AggFunc, AggSpec, AggState, GroupByAggregator};
pub use module::{ColumnarVerdict, EddyModule, Outputs, Routed};
pub use project::ProjectOp;
pub use remote_index::{RemoteIndex, RemoteIndexOp};
pub use select::SelectOp;
pub use stem_op::{symmetric_hash_join, StemOp};
