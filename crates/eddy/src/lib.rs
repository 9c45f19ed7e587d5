//! Eddies: continuously adaptive tuple routing (TelegraphCQ §2.2).
//!
//! > "The role of an Eddy is to continuously route tuples among a set of
//! > other modules according to a routing policy. … these modules can serve
//! > all the roles traditionally handled by an offline query optimizer:
//! > ordering of operations, choice of access and query modules … Moreover,
//! > these modules can reconsider and revise these decisions while a query
//! > is in flight."
//!
//! The crate provides:
//!
//! * [`Eddy`] — the single-query eddy: commutative modules, lineage
//!   (done bits), pluggable [`RoutingPolicy`], and the §4.3 "adapting
//!   adaptivity" knobs (decision batching). [`Eddy::process_batch`] is its
//!   one routing loop, columnar where modules allow and row-shaped where
//!   one falls back.
//! * Routing policies — [`FixedPolicy`] (a static plan, the baseline),
//!   [`RandomPolicy`], [`LotteryPolicy`] (the ticket scheme of \[AH00\]),
//!   and [`GreedyPolicy`] (rank by observed selectivity/cost).
//!
//! CACQ sharing (§3.1) is not a second eddy: the server's join DU runs one
//! [`Eddy`] for every query on a stream pair and key, and completes each
//! output per query after it leaves the eddy.
//!
//! ## Routing discipline
//!
//! The eddy is single-threaded (it runs inside one executor Dispatch Unit),
//! so tuples are routed serially to completion. Three invariants:
//!
//! 1. **Build-first**: a base tuple's first visit is to its own source's
//!    SteM (when one exists). This is the standard SteM discipline: with
//!    serial processing it guarantees each join match is produced exactly
//!    once and join outputs' lineage is statically known.
//! 2. **Consume-on-probe**: a probe visit consumes the probing tuple; its
//!    concatenations return to the eddy and continue routing with inherited
//!    lineage.
//! 3. **Run-at-a-time**: a batch splits into maximal runs of one source
//!    signature, and each run is routed with everything it derives to
//!    completion before the next run builds. A run's descendants never
//!    probe its own SteM, so a run routed whole equals its tuples routed
//!    one at a time — serial processing, amortized.
//!
//! # Example: an adaptive two-filter query
//!
//! ```
//! use tcq_common::{CmpOp, DataType, Expr, Field, Schema, Timestamp, TupleBuilder};
//! use tcq_eddy::{Eddy, EddyConfig, LotteryPolicy, ModuleSpec};
//! use tcq_operators::SelectOp;
//!
//! let schema = Schema::qualified(
//!     "S",
//!     vec![Field::new("a", DataType::Int), Field::new("b", DataType::Int)],
//! )
//! .into_ref();
//!
//! let mut eddy = Eddy::new(
//!     &["S"],
//!     Box::new(LotteryPolicy::new()),
//!     EddyConfig::default(),
//! )
//! .unwrap();
//! let s = eddy.source_bit("S").unwrap();
//! for (name, col) in [("a<10", "a"), ("b<10", "b")] {
//!     let filter = SelectOp::new(
//!         name,
//!         &Expr::col(col).cmp(CmpOp::Lt, Expr::lit(10i64)),
//!         &schema,
//!     )
//!     .unwrap();
//!     eddy.add_module(ModuleSpec::filter(Box::new(filter), s)).unwrap();
//! }
//!
//! // One tuple per batch: one routing decision per tuple visit.
//! let mut out = Vec::new();
//! for i in 0..100i64 {
//!     let t = TupleBuilder::new(schema.clone())
//!         .push(i % 20)
//!         .push(i % 15)
//!         .at(Timestamp::logical(i))
//!         .build()
//!         .unwrap();
//!     eddy.process_batch(vec![t], &mut out).unwrap();
//! }
//! let emitted: usize = out.iter().map(|run| run.len()).sum();
//! // Conjunction of the two filters, whatever order the eddy chose:
//! assert_eq!(emitted, (0..100).filter(|i| i % 20 < 10 && i % 15 < 10).count());
//! ```

#![warn(missing_docs)]

pub mod eddy;
pub mod lineage;
pub mod policy;

pub use eddy::{Eddy, EddyConfig, EddyStats, Emitted, ModuleSpec};
pub use lineage::{SignatureCache, SourceSet};
pub use policy::{
    FixedPolicy, GreedyPolicy, LotteryPolicy, ModuleObservation, ModuleStats, RandomPolicy,
    RoutingPolicy,
};
