//! # TelegraphCQ-rs
//!
//! A from-scratch Rust reproduction of **TelegraphCQ: Continuous Dataflow
//! Processing for an Uncertain World** (Chandrasekaran et al., CIDR 2003):
//! a shared, continuously *adaptive* engine for continuous queries over
//! data streams.
//!
//! This facade crate re-exports the whole workspace under topical modules.
//! Start with [`server::TelegraphCQ`] for the end-to-end engine, or use the
//! building blocks directly:
//!
//! * [`fjords`] — push/pull inter-module queues (§2.3);
//! * [`stems`] — State Modules and the query SteM, the index of standing
//!   filter queries the server's shared filter probes (§2.2, §3);
//! * [`operators`] — pipelined non-blocking query modules (§2.1);
//! * [`eddy`] — adaptive tuple routing, routing policies, CACQ shared
//!   processing (§2.2, §3.1);
//! * [`windows`] — the for-loop/WindowIs window construct (§4.1);
//! * [`query`] — the SQL-subset front-end (§4.2.1);
//! * [`executor`] — Execution Objects and Dispatch Units (§4.2.2);
//! * [`flux`] — fault-tolerant load-balancing exchange over a simulated
//!   cluster (§2.4);
//! * [`storage`] — stream archives and the buffer pool (§4.3);
//! * [`ingress`] / [`egress`] — wrappers, streamers, and result delivery
//!   (§4.2.3, §4.3);
//! * [`net`] — the TCP transport: wire protocol, listener/connection
//!   layer, and the remote client.
//!
//! ## Quickstart
//!
//! ```
//! use telegraphcq::prelude::*;
//!
//! let server = TelegraphCQ::start(ServerConfig::default()).unwrap();
//! server
//!     .register_stream("ClosingStockPrices", StockTicks::schema_for("ClosingStockPrices"))
//!     .unwrap();
//! let client = server.connect_pull_client(1024).unwrap();
//! let qid = server
//!     .submit(
//!         "SELECT closingPrice, timestamp FROM ClosingStockPrices \
//!          WHERE stockSymbol = 'MSFT' and closingPrice > 50.00",
//!         client,
//!     )
//!     .unwrap();
//! // feed the stream, then read results:
//! server
//!     .attach_source(
//!         "ClosingStockPrices",
//!         Box::new(StockTicks::new("ClosingStockPrices", &["MSFT", "IBM"], 42).with_max_days(100)),
//!     )
//!     .unwrap();
//! server.quiesce(std::time::Duration::from_secs(5));
//! let results = server.fetch(client, 1024).unwrap();
//! for (query, tuple) in &results {
//!     assert_eq!(*query, qid);
//!     assert!(tuple.value(0).as_float().unwrap() > 50.0);
//! }
//! server.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub use tcq_common as common;
pub use tcq_eddy as eddy;
pub use tcq_egress as egress;
pub use tcq_executor as executor;
pub use tcq_fjords as fjords;
pub use tcq_flux as flux;
pub use tcq_ingress as ingress;
pub use tcq_net as net;
pub use tcq_operators as operators;
pub use tcq_query as query;
pub use tcq_server as server;
pub use tcq_stems as stems;
pub use tcq_storage as storage;
pub use tcq_windows as windows;

/// One-stop imports for applications.
pub mod prelude {
    pub use tcq_common::{
        BitSet, Catalog, CmpOp, DataType, Expr, FaultAction, FaultPlan, FaultPoint, Field, Result,
        Schema, SchemaRef, SourceKind, TcqError, Timestamp, Tuple, TupleBuilder, Value,
    };
    pub use tcq_eddy::{Eddy, EddyConfig, LotteryPolicy, ModuleSpec};
    pub use tcq_egress::EgressStats;
    pub use tcq_ingress::{
        ChaosSource, CsvSource, NetworkPackets, SensorReadings, Source, SourceFactory,
        SourceStatus, StockTicks, VecSource,
    };
    pub use tcq_net::{NetServer, TcqClient};
    pub use tcq_operators::{AggFunc, AggSpec, ProjectOp, SelectOp, StemOp};
    pub use tcq_server::{
        LivenessConfig, ServerConfig, TcpTransportConfig, TelegraphCQ, TransportConfig,
    };
    pub use tcq_windows::{ForLoop, LinExpr, WindowKind, WindowSeq};
}
