//! Network transport for TelegraphCQ-rs: real TCP ingress/egress.
//!
//! The engine core ([`TelegraphCQ`]) only ever speaks its in-process API —
//! `push_batch`, `submit`, bounded egress channels. This crate puts a wire
//! on that API without the core noticing:
//!
//! - [`wire`] — the frame codec (tuple batches, puncts/EOF,
//!   subscribe/submit control frames): `tcq_common`'s one checksummed
//!   frame around its one tuple codec;
//! - [`TcpTransport`] — a listener plus per-connection reader/writer
//!   threads with bounded per-connection egress queues and a coalescing
//!   writer ([`conn`] module docs);
//! - [`TcqClient`] — the blocking remote client the bench fleet and tests
//!   drive.
//!
//! [`NetServer::start`] reads [`ServerConfig::transport`] to pick the
//! [`Transport`]: [`TransportConfig::InProcess`] (the default — no sockets,
//! the deterministic chaos-replay harness) or [`TransportConfig::Tcp`].
//! The selection is strictly additive: the TCP transport drives the same
//! public facade as any in-process caller, so the server core — dispatcher,
//! eddies, egress ledger — replays byte-identically whichever transport
//! fronts it (pinned by `tests/server_chaos.rs`).
//!
//! [`ServerConfig::transport`]: tcq_server::ServerConfig::transport

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod wire;

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcq_common::{Result, TcqError};
use tcq_server::{ServerConfig, TelegraphCQ, TransportConfig};

pub use client::TcqClient;
pub use conn::{ConnSnapshot, NetStats, TcpTransport};
pub use wire::{Frame, FrameReader, FrameWriter, MAX_PAYLOAD, WIRE_MAGIC, WIRE_VERSION};

/// What fronts the engine: how remote (or in-process) clients reach it.
/// Implementations must be strictly additive over the in-process facade —
/// a transport may *drive* the engine, never reach around it.
pub trait Transport: Send {
    /// Short human-readable transport name.
    fn name(&self) -> &'static str;
    /// The bound socket address, when the transport listens on one.
    fn local_addr(&self) -> Option<SocketAddr>;
    /// Aggregate wire counters (all zeros for in-process).
    fn stats(&self) -> NetStats;
    /// Per-connection counters (empty for in-process).
    fn conn_stats(&self) -> Vec<ConnSnapshot>;
    /// Stop listening and tear down every connection, joining all threads.
    fn shutdown(&mut self);
}

/// The default transport: no sockets at all. Clients use the facade
/// directly ([`TelegraphCQ::connect_push_client`], `push_batch`, ...).
/// This is the deterministic test harness — kernel scheduling never enters
/// the replay path.
#[derive(Debug, Default)]
pub struct InProcessTransport;

impl Transport for InProcessTransport {
    fn name(&self) -> &'static str {
        "in-process"
    }
    fn local_addr(&self) -> Option<SocketAddr> {
        None
    }
    fn stats(&self) -> NetStats {
        NetStats::default()
    }
    fn conn_stats(&self) -> Vec<ConnSnapshot> {
        Vec::new()
    }
    fn shutdown(&mut self) {}
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }
    fn local_addr(&self) -> Option<SocketAddr> {
        Some(TcpTransport::local_addr(self))
    }
    fn stats(&self) -> NetStats {
        TcpTransport::stats(self)
    }
    fn conn_stats(&self) -> Vec<ConnSnapshot> {
        TcpTransport::conn_stats(self)
    }
    fn shutdown(&mut self) {
        TcpTransport::shutdown(self)
    }
}

/// An engine plus the transport fronting it, booted from one
/// [`ServerConfig`]. In-process callers keep full facade access through
/// [`NetServer::engine`]; remote callers connect to
/// [`NetServer::local_addr`].
pub struct NetServer {
    engine: Arc<TelegraphCQ>,
    transport: Box<dyn Transport>,
}

impl NetServer {
    /// Boot the engine and bind the transport `config.transport` selects.
    pub fn start(config: ServerConfig) -> Result<NetServer> {
        let tcp = match &config.transport {
            TransportConfig::InProcess => None,
            TransportConfig::Tcp(c) => Some(c.clone()),
        };
        let engine = Arc::new(TelegraphCQ::start(config)?);
        let transport: Box<dyn Transport> = match tcp {
            None => Box::new(InProcessTransport),
            Some(cfg) => Box::new(TcpTransport::bind(engine.clone(), cfg)?),
        };
        Ok(NetServer { engine, transport })
    }

    /// The engine facade — everything an in-process caller could do.
    pub fn engine(&self) -> &Arc<TelegraphCQ> {
        &self.engine
    }

    /// The transport fronting the engine.
    pub fn transport(&self) -> &dyn Transport {
        &*self.transport
    }

    /// The TCP listen address, when the TCP transport is selected.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.transport.local_addr()
    }

    /// Aggregate wire counters.
    pub fn net_stats(&self) -> NetStats {
        self.transport.stats()
    }

    /// Per-connection wire counters, in accept order.
    pub fn conn_stats(&self) -> Vec<ConnSnapshot> {
        self.transport.conn_stats()
    }

    /// Tear down the transport (joining every connection thread), then shut
    /// the engine down with its ordered drain-then-flush sequence.
    pub fn shutdown(self) -> Result<()> {
        let NetServer {
            engine,
            mut transport,
        } = self;
        transport.shutdown();
        // Joining the connection threads is not enough: the transport value
        // itself still holds an engine handle. Drop it, then anything left
        // is a caller-held `engine()` clone.
        drop(transport);
        let mut engine = engine;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match Arc::try_unwrap(engine) {
                Ok(e) => return e.shutdown(),
                Err(arc) => {
                    if Instant::now() >= deadline {
                        return Err(TcqError::Executor(
                            "cannot shut down: engine handle still cloned elsewhere".into(),
                        ));
                    }
                    engine = arc;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}
