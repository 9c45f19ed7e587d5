//! A dispatch unit's reader over one fjord.
//!
//! Every DU reads its inputs the same way: pull up to `io_batch` messages
//! per queue-lock acquisition, never more than the quantum has left, stop
//! at the stream's `Eof`, and keep whatever it did not get to for its next
//! quantum. [`Inbox`] is that loop, written once.

use crate::queue::{BatchDequeueResult, Consumer, FjordMessage};

/// A fjord's consumer plus the batch it last pulled.
///
/// A refill is one [`Consumer::dequeue_batch`] of at most
/// `min(io_batch, budget)` messages, charged to the caller's budget, and
/// happens only when nothing is buffered. The inbox never hands out an
/// `Eof`: a refill keeps the messages before the first one, drops it and
/// anything behind it (nothing follows a stream's end), and latches
/// end-of-stream — as does a fjord whose producers are all gone, and
/// [`Inbox::close`]. Latching the end releases the consumer.
/// [`Inbox::is_done`] turns true once that end is latched *and* every
/// buffered message has been taken.
pub struct Inbox {
    /// `None` once the end is latched.
    consumer: Option<Consumer>,
    io_batch: usize,
    /// The last refill; `buf[head..]` is not taken yet. A slot
    /// [`Inbox::next`] took holds an `Eof` placeholder until the next
    /// refill clears it.
    buf: Vec<FjordMessage>,
    head: usize,
    /// Messages taken off the fjord so far, `Eof` included.
    pulled: u64,
}

impl Inbox {
    /// Read `consumer` in refills of at most `io_batch` messages (clamped
    /// to ≥ 1; 1 reads one message per lock acquisition).
    pub fn new(consumer: Consumer, io_batch: usize) -> Self {
        Inbox {
            consumer: Some(consumer),
            io_batch: io_batch.max(1),
            buf: Vec::new(),
            head: 0,
            pulled: 0,
        }
    }

    /// Refill if nothing is buffered, the stream has not ended and
    /// `*budget > 0`; returns how many messages are buffered afterwards.
    /// The refill's size is subtracted from `*budget`.
    #[inline]
    pub fn fill(&mut self, budget: &mut usize) -> usize {
        let Some(consumer) = &self.consumer else {
            return self.buffered();
        };
        if self.buffered() == 0 && *budget > 0 {
            self.buf.clear();
            self.head = 0;
            let max = self.io_batch.min(*budget);
            match consumer.dequeue_batch(&mut self.buf, max) {
                BatchDequeueResult::Msgs(n) => {
                    *budget -= n;
                    self.pulled += n as u64;
                    if let Some(end) = self.buf.iter().position(FjordMessage::is_eof) {
                        self.buf.truncate(end);
                        self.consumer = None;
                    }
                }
                BatchDequeueResult::Empty => {}
                BatchDequeueResult::Disconnected => self.consumer = None,
            }
        }
        self.buffered()
    }

    /// [`Inbox::fill`], then take the oldest buffered message. With
    /// `*budget == 0` it only takes what is already buffered.
    #[inline]
    pub fn next(&mut self, budget: &mut usize) -> Option<FjordMessage> {
        self.fill(budget);
        let slot = self.buf.get_mut(self.head)?;
        self.head += 1;
        Some(std::mem::replace(slot, FjordMessage::Eof))
    }

    /// Take every buffered message, in order, without refilling.
    #[inline]
    pub fn drain(&mut self) -> std::vec::Drain<'_, FjordMessage> {
        let taken = std::mem::take(&mut self.head);
        self.buf.drain(..taken);
        self.buf.drain(..)
    }

    /// End the stream here: the DU's own stopping condition fired (a
    /// query's final window passed), so drop what is buffered and read
    /// no more. The consumer is released with it: a fjord nobody reads
    /// reports no consumers ([`crate::QueueStats::consumers`]), so its
    /// producer stops holding back for it.
    pub fn close(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.consumer = None;
    }

    /// True once the stream has ended and every message before its end
    /// has been taken.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.consumer.is_none() && self.buffered() == 0
    }

    /// Messages taken off the fjord since the inbox was built, `Eof` and
    /// anything dropped behind it included: the fjord's
    /// [`crate::QueueStats::dequeued`] while this inbox is its only reader.
    #[inline]
    pub fn pulled(&self) -> u64 {
        self.pulled
    }

    /// Messages pulled from the fjord and not yet taken — a DU counts
    /// them in `buffered()`, since the fjord's depth no longer does.
    #[inline]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }
}
