//! Ingress: wrappers, the streamer thread, and synthetic workloads (§4.2.3).
//!
//! > "Two types of sources are supported: pull sources, as found in
//! > 'traditional' federated database systems, \[and\] push sources, where
//! > connections can be initiated either by the Wrapper (Push-client) or by
//! > the data source itself (Push-server)."
//!
//! We do not have the paper's live web/sensor feeds, so this crate provides
//! faithful synthetic equivalents with the control knobs the constituent
//! papers' experiments relied on:
//!
//! * [`StockTicks`] — the paper's own `ClosingStockPrices` schema (§4.1.1):
//!   one tick per (trading day, symbol), prices following a seeded random
//!   walk.
//! * [`NetworkPackets`] — a network-monitor stream (Tribeca-style) with
//!   configurable key skew, for the Flux load-balancing experiments.
//! * [`SensorReadings`] — sensor samples with drift and dropout (sensors
//!   "may have run out of power or temporarily disconnected", §2.3).
//! * [`VecSource`] / [`CsvSource`] — replay a fixed set of tuples / a CSV
//!   file.
//! * [`Supervisor`] — the streamer: the one wrapper-process thread that
//!   drains any [`Source`] into a Fjord push queue. Back-pressure is its
//!   only answer to a full queue: the source waits, and never sheds a row.
//!   It catches source panics and errors and restarts the source with
//!   capped exponential backoff (a restart budget of zero for a source
//!   that cannot be rebuilt), filters malformed tuples, and sends EOF
//!   exactly once, counting all of it in [`SupervisorStats`].

#![warn(missing_docs)]

pub mod generators;
pub mod source;
pub mod supervisor;

pub use generators::{NetworkPackets, SensorReadings, StockTicks};
pub use source::{CsvSource, Source, SourceStatus, VecSource};
pub use supervisor::{ChaosSource, SourceFactory, Supervisor, SupervisorConfig, SupervisorStats};
