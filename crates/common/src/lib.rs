//! Shared foundation types for TelegraphCQ-rs.
//!
//! This crate contains the vocabulary every other crate speaks:
//!
//! * [`Value`] — the dynamically typed cell of a stream tuple.
//! * [`Tuple`] — an immutable, cheaply clonable row with a timestamp.
//! * [`Schema`] / [`Field`] — stream and table shapes.
//! * [`Catalog`] — the registry of streams and tables known to the engine.
//! * [`Timestamp`] — logical (sequence) and physical (wall-clock) time, as a
//!   partial order (TelegraphCQ §4.1: "we treat time as a partial order").
//! * [`TcqError`] — the error type used across the workspace.
//! * [`CkptWriter`] / [`CkptReader`] and [`frame`] — the one value and tuple
//!   codec, and the one checksummed frame that wire frames, archive pages
//!   and checkpoint blocks carry it in.
//!
//! Everything here is deliberately free of engine policy: no queues, no
//! operators, no routing. Those live in the crates layered above.

#![warn(missing_docs)]

pub mod bitset;
pub mod catalog;
pub mod chaos;
pub mod ckpt;
pub mod column;
pub mod counting_alloc;
pub mod error;
pub mod expr;
pub mod frame;
pub mod hash;
pub mod idlist;
pub mod kernel;
pub mod rng;
pub mod schema;
pub mod sync;
pub mod time;
pub mod tuple;
pub mod value;

pub use bitset::BitSet;
pub use catalog::{Caseless, Catalog, SourceKind, StreamDef};
pub use chaos::{FaultAction, FaultInjector, FaultPlan, FaultPoint, FiredFault, SharedInjector};
pub use ckpt::{CkptReader, CkptWriter};
pub use column::{Column, ColumnBatch, ColumnData};
pub use counting_alloc::CountingAlloc;
pub use error::{Result, TcqError};
pub use expr::{ArithOp, BoundExpr, CmpOp, Expr};
pub use hash::{hash_table_bytes, hash_value, Fnv1a, IdentityBuildHasher};
pub use idlist::IdList;
pub use kernel::{ColumnarScratch, Kernel, Predicate};
pub use schema::{DataType, Field, Schema, SchemaRef};
pub use time::{TimeOrder, Timestamp};
pub use tuple::{Tuple, TupleBuilder};
pub use value::Value;
