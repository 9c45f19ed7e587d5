//! The blocking remote client: what a real subscriber or ingest process
//! runs on its side of the socket. One [`TcqClient`] owns one connection;
//! the bench fleet spawns thousands of them.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use tcq_common::{Result, TcqError, Timestamp, Tuple};

use crate::wire::{Frame, FrameReader, FrameWriter, WIRE_VERSION};

/// A batch of result rows received from the server: the query id and the
/// rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultBatch {
    /// The standing query these rows answer.
    pub query: u64,
    /// The rows, in delivery order.
    pub tuples: Vec<Tuple>,
}

/// A blocking TCP client speaking the [`crate::wire`] protocol.
///
/// Reads are timeout-bounded ([`TcqClient::next_results`] returns
/// `Ok(None)` on a quiet socket), writes block under TCP backpressure —
/// which is exactly how server-side ingress admission control reaches a
/// remote producer.
pub struct TcqClient {
    stream: TcpStream,
    enc: FrameWriter,
    dec: FrameReader,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    inbox: VecDeque<Frame>,
    conn: u64,
}

impl TcqClient {
    /// Connect, handshake (`Hello`/`Welcome`), and return the client.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcqClient> {
        let stream = TcpStream::connect(addr).map_err(|e| net_err("connect", &e))?;
        let _ = stream.set_nodelay(true);
        let mut c = TcqClient {
            stream,
            enc: FrameWriter::new(),
            dec: FrameReader::new(),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            inbox: VecDeque::new(),
            conn: 0,
        };
        c.send(&Frame::Hello {
            version: WIRE_VERSION,
        })?;
        match c.wait_reply(Duration::from_secs(5), |f| {
            matches!(f, Frame::Welcome { .. })
        })? {
            Some(Frame::Welcome { conn, .. }) => {
                c.conn = conn;
                Ok(c)
            }
            _ => Err(TcqError::Ingress("wire: no Welcome from server".into())),
        }
    }

    /// The server-side connection id from the handshake — joins this
    /// client against the server's per-connection transport counters.
    pub fn conn_id(&self) -> u64 {
        self.conn
    }

    /// Submit a continuous query; this connection is auto-subscribed to
    /// its results.
    pub fn submit(&mut self, sql: &str) -> Result<u64> {
        self.send(&Frame::Submit { sql: sql.into() })?;
        match self.wait_reply(Duration::from_secs(10), |f| {
            matches!(f, Frame::SubmitOk { .. } | Frame::Error { .. })
        })? {
            Some(Frame::SubmitOk { query }) => Ok(query),
            Some(Frame::Error { message }) => Err(TcqError::Ingress(message)),
            _ => Err(timeout_err("SubmitOk")),
        }
    }

    /// Subscribe to an already-running query's results.
    pub fn subscribe(&mut self, query: u64) -> Result<()> {
        self.send(&Frame::Subscribe { query })?;
        match self.wait_reply(Duration::from_secs(10), |f| {
            matches!(f, Frame::SubscribeOk { .. } | Frame::Error { .. })
        })? {
            Some(Frame::SubscribeOk { .. }) => Ok(()),
            Some(Frame::Error { message }) => Err(TcqError::Ingress(message)),
            _ => Err(timeout_err("SubscribeOk")),
        }
    }

    /// Ship a batch of tuples into `stream`. No acknowledgement: failures
    /// surface asynchronously as `Error` frames (and from the blocking
    /// backpressure of the socket itself).
    pub fn ingest(&mut self, stream: &str, tuples: Vec<Tuple>) -> Result<()> {
        self.send(&Frame::Ingest {
            stream: stream.into(),
            tuples,
        })
    }

    /// Signal end-of-stream for `stream`.
    pub fn finish(&mut self, stream: &str) -> Result<()> {
        self.send(&Frame::IngestEof {
            stream: stream.into(),
        })
    }

    /// Send a punctuation for `stream`.
    pub fn punctuate(&mut self, stream: &str, ts: Timestamp) -> Result<()> {
        self.send(&Frame::Punct {
            stream: stream.into(),
            ts,
        })
    }

    /// Round-trip a ping; returns the measured latency.
    pub fn ping(&mut self, token: u64) -> Result<Duration> {
        let start = Instant::now();
        self.send(&Frame::Ping { token })?;
        match self.wait_reply(
            Duration::from_secs(5),
            move |f| matches!(f, Frame::Pong { token: t } if *t == token),
        )? {
            Some(_) => Ok(start.elapsed()),
            None => Err(timeout_err("Pong")),
        }
    }

    /// The next batch of results, waiting up to `timeout` for the socket.
    /// `Ok(None)` means the socket stayed quiet — not end of stream.
    /// Non-result frames (pongs, schema updates) are skipped; an `Error`
    /// frame surfaces as `Err`.
    pub fn next_results(&mut self, timeout: Duration) -> Result<Option<ResultBatch>> {
        let deadline = Instant::now() + timeout;
        loop {
            while let Some(f) = self.inbox.pop_front() {
                match f {
                    Frame::Results { query, tuples } => {
                        return Ok(Some(ResultBatch { query, tuples }))
                    }
                    Frame::Error { message } => return Err(TcqError::Ingress(message)),
                    _ => {}
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            if self.fill(deadline - now)? == 0 && Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// Announce a clean close and shut the socket down.
    pub fn bye(mut self) -> Result<()> {
        self.send(&Frame::Bye)?;
        let _ = self.stream.shutdown(Shutdown::Both);
        Ok(())
    }

    /// Drop the connection abruptly (no `Bye`) — what a crashing or
    /// vanishing client looks like to the server. The socket is closed
    /// without a shutdown first, as a dying process's kernel closes it:
    /// with results still unread, the server sees a reset, not an orderly
    /// end of stream after which its kernel may keep taking bytes.
    pub fn abort(self) {
        drop(self.stream);
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        self.outbuf.clear();
        self.enc.encode(frame, &mut self.outbuf);
        self.stream
            .write_all(&self.outbuf)
            .map_err(|e| net_err("write", &e))
    }

    /// Read once (bounded by `timeout`) and decode everything buffered;
    /// returns how many frames arrived in the inbox.
    fn fill(&mut self, timeout: Duration) -> Result<usize> {
        let mut added = self.drain_decoder()?;
        if added > 0 {
            return Ok(added);
        }
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(|e| net_err("set_read_timeout", &e))?;
        let mut tmp = [0u8; 64 * 1024];
        match self.stream.read(&mut tmp) {
            Ok(0) => Err(TcqError::Disconnected("wire: server closed connection")),
            Ok(n) => {
                self.inbuf.extend_from_slice(&tmp[..n]);
                added += self.drain_decoder()?;
                Ok(added)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(0)
            }
            Err(e) => Err(net_err("read", &e)),
        }
    }

    fn drain_decoder(&mut self) -> Result<usize> {
        let mut consumed = 0;
        let mut added = 0;
        while let Some((frame, n)) = self.dec.decode(&self.inbuf[consumed..])? {
            consumed += n;
            self.inbox.push_back(frame);
            added += 1;
        }
        if consumed > 0 {
            self.inbuf.drain(..consumed);
        }
        Ok(added)
    }

    /// Wait for the first frame matching `pred`, parking every other frame
    /// in the inbox (in order) so result delivery interleaved with a
    /// control reply is never lost or reordered.
    fn wait_reply(
        &mut self,
        timeout: Duration,
        pred: impl Fn(&Frame) -> bool,
    ) -> Result<Option<Frame>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(pos) = self.inbox.iter().position(&pred) {
                return Ok(self.inbox.remove(pos));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.fill(deadline - now)?;
        }
    }
}

fn net_err(what: &str, e: &std::io::Error) -> TcqError {
    TcqError::Ingress(format!("wire: {what}: {e}"))
}

fn timeout_err(what: &str) -> TcqError {
    TcqError::Ingress(format!("wire: timed out waiting for {what}"))
}
