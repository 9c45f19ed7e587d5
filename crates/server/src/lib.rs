//! The TelegraphCQ server: everything from Figure 5, in one process.
//!
//! > "The listener accepts multiple continuous queries and adds them
//! > dynamically to the running executor. When a query is received, the
//! > server parses, analyzes, and optimizes it into an adaptive plan …
//! > The plans are then placed in the query plan queue (QPQueue) … The
//! > executor continually picks up fresh queries … Query results are placed
//! > in client-specific output queues."
//!
//! [`TelegraphCQ`] wires the crates below into that architecture:
//!
//! * catalog + front-end ([`tcq_query`]) — parse / analyze / plan;
//! * ingress ([`tcq_ingress`]) — one supervised source thread (the
//!   streamer) per attached wrapper, feeding per-stream Fjords;
//! * a **stream dispatcher** DU per stream — stamps arrival order, spools
//!   history to a [`tcq_storage::StreamArchive`], runs the stream's
//!   single-stream plans in place (`plans::PlanSet`: one *shared*
//!   CACQ-style QueryStem pass for all its selection queries, and a
//!   window driver per aggregate), and fans tuples out to the input queue
//!   of every plan that reads two streams;
//! * join DUs ([`join`]) — an eddy DU per join group (every join query
//!   on one stream pair and key shares its SteMs), or one per partition of
//!   a join behind an exchange ([`exchange`]);
//! * the executor ([`tcq_executor`]) — EO threads hosting the DUs, classed
//!   by query footprint;
//! * egress ([`tcq_egress`]) — push/pull result delivery per client.
//!
//! The paper's FrontEnd/Executor/Wrapper *process* split (a PostgreSQL
//! artifact) becomes a thread split; the shared-memory queues become
//! Fjords. See DESIGN.md's substitution table.

#![warn(missing_docs)]

mod control;
pub mod dispatcher;
mod durability;
pub mod exchange;
pub mod join;
pub mod planner;
pub mod plans;
pub mod server;

pub use durability::CheckpointReport;
pub use server::{
    LivenessConfig, ServerConfig, SharedMemoryStat, TcpTransportConfig, TelegraphCQ,
    TransportConfig,
};
