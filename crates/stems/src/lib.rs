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
//! The crate also holds the index behind shared multi-query processing:
//! [`QueryStem`], PSoup's index of whole queries ("a generalization of the
//! notion of a grouped filter", §3.2). It plays the role of CACQ's grouped
//! filter (§3.1) for every standing filter query on a stream: insert and
//! remove queries, and for each arriving tuple compute the exact set of
//! queries it satisfies. Each query is reached through one access path — an
//! equality hash anchor or an interval stabbed in O(log n + matches) — and
//! verified directly; [`MatchScratch::examined`] counts the index entries a
//! probe touched.
//!
//! # Example: one probe answers many queries
//!
//! ```
//! use tcq_common::{CmpOp, DataType, Expr, Field, Schema, Timestamp, TupleBuilder};
//! use tcq_stems::{MatchScratch, QueryStem};
//!
//! let schema = Schema::new(vec![Field::new("price", DataType::Float)]).into_ref();
//! let price = |op, c: f64| Expr::col("price").cmp(op, Expr::lit(c));
//! let mut stem = QueryStem::new(schema.clone());
//! stem.insert_query(0, Some(&price(CmpOp::Gt, 50.0))).unwrap();
//! stem.insert_query(1, Some(&price(CmpOp::Gt, 60.0))).unwrap();
//! stem.insert_query(2, Some(&price(CmpOp::Le, 55.0))).unwrap();
//!
//! let tick = TupleBuilder::new(schema)
//!     .push(55.0)
//!     .at(Timestamp::logical(1))
//!     .build()
//!     .unwrap();
//! let mut scratch = MatchScratch::new();
//! stem.matching_into(&tick, &mut scratch).unwrap();
//! assert_eq!(scratch.matches(), &[0, 2]);
//! ```

#![warn(missing_docs)]

mod interval_index;
pub mod query_stem;
mod segment;
pub mod slot_ring;
pub mod stem;

pub use interval_index::EpochStats;
pub use query_stem::{MatchScratch, PreparedQuery, QueryId, QueryStem};
pub use segment::StoredRow;
pub use slot_ring::{Chunk, SlotRing};
pub use stem::{IndexKind, SteM};
