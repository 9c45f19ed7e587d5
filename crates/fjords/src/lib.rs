//! Fjords — the inter-module communication API (TelegraphCQ §2.3).
//!
//! > "The key advantage of Fjords is that they allow query plans to use a
//! > mixture of push and pull connections between modules, thereby being
//! > able to execute query plans over any combination of streaming and
//! > static data sources."
//!
//! A Fjord is a bounded queue of [`FjordMessage`]s connecting a producer
//! module to a consumer module. The paper distinguishes three wirings,
//! realized here by choosing blocking vs non-blocking endpoint operations:
//!
//! | kind       | enqueue (producer) | dequeue (consumer) |
//! |------------|--------------------|--------------------|
//! | *pull*     | blocking           | blocking           |
//! | *push*     | non-blocking       | non-blocking       |
//! | *exchange* | non-blocking       | blocking           |
//!
//! All endpoints expose both blocking and non-blocking calls, every one a
//! thin shell over one locked put/take core. [`QueueKind`] is a label that
//! records the intended discipline so plan wiring is self-describing;
//! nothing checks it. The engine's dispatch units (`tcq_executor::
//! DispatchUnit`) use only the non-blocking calls ("an overarching
//! principle of TelegraphCQ is to avoid blocking operations", §4.2.3),
//! read every input through an [`Inbox`] (batched refills bounded by the
//! quantum, nothing past `Eof`, leftovers kept), and report a
//! [`ModuleStatus`] after each quantum.

#![warn(missing_docs)]

pub mod inbox;
pub mod module;
pub mod queue;

pub use inbox::Inbox;
pub use module::ModuleStatus;
pub use queue::{
    fjord, fjord_with_probe, BatchDequeueResult, Consumer, DequeueResult, EnqueueError,
    FjordMessage, Producer, QueueKind, QueueStats,
};
