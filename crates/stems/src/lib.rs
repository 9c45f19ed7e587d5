//! SteMs — State Modules — and their query-side generalizations.
//!
//! A SteM (TelegraphCQ §2.2, Raman et al. \[RDH02\]) is "a temporary
//! repository of tuples, essentially corresponding to half of a traditional
//! join operator". It supports:
//!
//! * **build** — insert a tuple,
//! * **probe** — find matches for a tuple from another source, and
//! * **evict** — drop tuples that have fallen out of every window; the
//!   slot store ([`SlotRing`]) gives the storage back as the window
//!   slides, so state is sized by the window, not by stream history.
//!
//! A SteM stores its rows column by column, one column segment per slot-ring
//! chunk, and a probe reads them in place ([`StoredRow`]).
//!
//! Two SteMs plus an eddy implement a symmetric hash join (paper Figure 2);
//! adding a remote access method to the same plumbing yields the
//! *hybridized* joins of \[RDH02\].
//!
//! This crate also contains the machinery for shared multi-query processing:
//!
//! * [`GroupedFilter`] — CACQ's "index for single-variable boolean factors
//!   over the same attribute" (§3.1): one probe evaluates the corresponding
//!   predicates of *all* standing queries on an attribute at once.
//! * [`QueryStem`] — PSoup's index of whole queries ("a generalization of
//!   the notion of a grouped filter", §3.2): insert/remove queries, and for
//!   each arriving tuple compute the exact set of queries it satisfies. Each
//!   query is reached through one access path — an equality hash anchor or
//!   an interval stabbed in O(log n + matches) — and verified directly.
//!
//! # Example: one probe answers many predicates
//!
//! ```
//! use tcq_common::{CmpOp, Value};
//! use tcq_stems::GroupedFilter;
//!
//! let mut filter = GroupedFilter::new();
//! filter.insert(0, CmpOp::Gt, Value::Float(50.0)).unwrap(); // price > 50
//! filter.insert(1, CmpOp::Gt, Value::Float(60.0)).unwrap(); // price > 60
//! filter.insert(2, CmpOp::Le, Value::Float(55.0)).unwrap(); // price <= 55
//!
//! let satisfied = filter.eval_collect(&Value::Float(55.0));
//! assert_eq!(satisfied.iter().collect::<Vec<_>>(), vec![0, 2]);
//! ```

#![warn(missing_docs)]

mod epoch;
pub mod grouped_filter;
mod interval_index;
pub mod query_stem;
mod segment;
pub mod slot_ring;
pub mod stem;

pub use epoch::EpochStats;
pub use grouped_filter::GroupedFilter;
pub use query_stem::{MatchScratch, QueryId, QueryStem};
pub use segment::StoredRow;
pub use slot_ring::{Chunk, SlotRing};
pub use stem::{IndexKind, SteM};
