//! Stream storage: spooling history to disk, reading it back by window.
//!
//! §4.2.3/§4.3 of the paper: streamed data is prepared "for materialization
//! in the buffer pool (and possibly to disk)", and the storage manager must
//! serve "queries that access historical data" — backward windows, PSoup's
//! new-query-over-old-data — while absorbing "new bursty streaming data"
//! with sequential writes.
//!
//! The design follows that read/write asymmetry:
//!
//! * [`StreamArchive`] — an append-only, page-structured segment file per
//!   stream. Writes are strictly sequential ("a log-structured file system
//!   would enhance write performance"); each sealed page records its
//!   logical-timestamp range so windowed reads touch only relevant pages
//!   (the "broadcast-disk style read behavior" the paper wants).
//! * [`BufferPool`] — a shared read cache with CLOCK eviction for archive
//!   scans (writes go around it), with hit/miss counters for experiments.
//! * [`CheckpointStore`] — a durable, incrementally written store of
//!   checkpoint fragments (SteM groups, aggregate partials, egress
//!   ledgers, ingress cursors), for crash recovery of operator state.
//!
//! Both write the workspace's one codec ([`tcq_common::CkptWriter`]) inside
//! its one checksummed frame ([`tcq_common::frame`]) — the bytes a wire
//! frame carries too. What differs is the recovery policy: the archive
//! skips a corrupt page and keeps reading, the checkpoint store stops at
//! the first bad block, because later epochs only mean something on top of
//! earlier ones.
//!
//! # Example: spool a stream, read a window back
//!
//! ```
//! use tcq_common::{DataType, Field, Schema, Timestamp, TupleBuilder};
//! use tcq_storage::{BufferPool, StreamArchive};
//!
//! let schema = Schema::new(vec![Field::new("v", DataType::Int)]).into_ref();
//! let pool = BufferPool::new(16, 4096);
//! let path = std::env::temp_dir().join(format!("tcq-doc-{}.seg", std::process::id()));
//! let mut archive = StreamArchive::create(&path, schema.clone(), pool).unwrap();
//!
//! for seq in 1..=1000i64 {
//!     let t = TupleBuilder::new(schema.clone())
//!         .push(seq)
//!         .at(Timestamp::logical(seq))
//!         .build()
//!         .unwrap();
//!     archive.append(&t).unwrap();
//! }
//! let mut window = Vec::new();
//! archive.scan_window(500, 509, &mut window).unwrap();
//! assert_eq!(window.len(), 10);
//! # std::fs::remove_file(path).ok();
//! ```

#![warn(missing_docs)]

pub mod archive;
pub mod checkpoint;
pub mod pool;

pub use archive::{ArchiveStats, CompactionReport, RecoveryReport, StreamArchive};
pub use checkpoint::{CheckpointRecovery, CheckpointStats, CheckpointStore};
pub use pool::{BufferPool, PoolStats};
