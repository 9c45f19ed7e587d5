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
//! [`NetServer::start`] reads [`ServerConfig::transport`]:
//! [`TransportConfig::InProcess`] (the default — no sockets, the
//! deterministic chaos-replay harness) binds nothing, and
//! [`TransportConfig::Tcp`] binds a [`TcpTransport`].
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

/// An engine plus the TCP listener fronting it, if any, booted from one
/// [`ServerConfig`]. In-process callers keep full facade access through
/// [`NetServer::engine`]; remote callers connect to
/// [`NetServer::local_addr`].
pub struct NetServer {
    engine: Arc<TelegraphCQ>,
    tcp: Option<TcpTransport>,
}

impl NetServer {
    /// Boot the engine and bind the transport `config.transport` selects.
    pub fn start(config: ServerConfig) -> Result<NetServer> {
        let tcp = match &config.transport {
            TransportConfig::InProcess => None,
            TransportConfig::Tcp(c) => Some(c.clone()),
        };
        let engine = Arc::new(TelegraphCQ::start(config)?);
        let tcp = tcp
            .map(|cfg| TcpTransport::bind(engine.clone(), cfg))
            .transpose()?;
        Ok(NetServer { engine, tcp })
    }

    /// The engine facade — everything an in-process caller could do.
    pub fn engine(&self) -> &Arc<TelegraphCQ> {
        &self.engine
    }

    /// The TCP listen address, when the TCP transport is selected.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().map(TcpTransport::local_addr)
    }

    /// Aggregate wire counters (all zeros in-process).
    pub fn net_stats(&self) -> NetStats {
        self.tcp
            .as_ref()
            .map(TcpTransport::stats)
            .unwrap_or_default()
    }

    /// Per-connection wire counters, in accept order (empty in-process).
    pub fn conn_stats(&self) -> Vec<ConnSnapshot> {
        self.tcp
            .as_ref()
            .map(TcpTransport::conn_stats)
            .unwrap_or_default()
    }

    /// Tear down the transport (joining every connection thread), then shut
    /// the engine down with its ordered drain-then-flush sequence.
    pub fn shutdown(self) -> Result<()> {
        let NetServer { engine, tcp } = self;
        if let Some(mut tcp) = tcp {
            // Joining the connection threads is not enough: the transport
            // value itself holds an engine handle, and it drops at the end
            // of this block. Anything left after is a caller-held
            // `engine()` clone.
            tcp.shutdown();
        }
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
