//! Slot storage sized by the live window, in fixed-size chunks.
//!
//! A SteM's indexes (hash buckets, ordered index, late-row index) refer to
//! stored rows by slot id. Ids are handed out in insertion order and a
//! window evicts oldest-first, so the dead slots of a sliding window form a
//! prefix: a ring that gives that prefix back as it dies keeps storage at
//! `O(newest live id − oldest live id)` — the window's extent — with
//! amortised O(1) reclamation and no rebuild pass. A slot freed in the
//! middle (out-of-order builds, a replaced checkpoint group) is reclaimed
//! when the front reaches it.
//!
//! The ring is a queue of equal-capacity chunks, not one contiguous buffer:
//! growing appends a chunk and moves nothing, so there is no power-of-two
//! slack (a doubling buffer holds up to 2× the window) and no copy of the
//! whole window inside one `push`. The chunk the front has emptied is kept
//! as the one spare the back takes next, so a window sliding at constant
//! width allocates nothing once it is warm ([`SlotRing::chunks_allocated`]
//! counts). The price is one more indirection per [`SlotRing::get`].
//!
//! Ids are `u32` and wrap: an id resolves by its wrapping distance from
//! `base`, so a store that has handed out more than 2³² ids over its
//! lifetime stays correct as long as fewer than 2³² are live at once
//! (enforced in [`SlotRing::push`]). A stale id — one below `base` — wraps
//! to a distance past the last chunk and resolves to nothing.

use std::collections::VecDeque;

/// Slots per chunk. Measured on the benchmark's 65 537-row windowed join
/// (`join_inproc`, seed 1): 256, 1 024, 4 096 and 16 384 slots read the
/// same throughput (medians 724k, 708k, 733k, 675k rows/s against run-to-run
/// ranges of ±10 %) and 18.1, 18.2, 18.6, 19.8 MiB peak RSS. Small wins:
/// the ragged chunks at both ends plus the spare are what a window pays
/// over its own rows, two chunks are the floor for a window of any size,
/// and a 14 KiB chunk of 56-byte rows comes from the allocator's ordinary
/// heap.
const CHUNK_SHIFT: u32 = 8;
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// Chunked ring-buffer slot store: monotone wrapping ids, oldest first.
pub struct SlotRing<T> {
    /// Every chunk but the last holds `CHUNK` slots; `None` marks a freed
    /// slot. Slot id `base + i` lives at position `head + i`, counted
    /// through the chunks in order.
    chunks: VecDeque<Vec<Option<T>>>,
    /// Slots of `chunks[0]` already given back (all `None`).
    head: usize,
    /// Slots held from `head` on, live or freed.
    span: usize,
    /// Id of the slot at `head` (and the next id when the ring is empty).
    base: u32,
    /// The last chunk the front emptied, cleared, for the back to reuse.
    spare: Option<Vec<Option<T>>>,
    chunks_allocated: u64,
}

impl<T> Default for SlotRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlotRing<T> {
    /// An empty store whose first id is 0.
    pub fn new() -> Self {
        Self::starting_at(0)
    }

    /// An empty store whose first id is `base`. Production code starts at
    /// 0; tests start just below `u32::MAX` to cross the id wrap without
    /// four billion inserts.
    pub fn starting_at(base: u32) -> Self {
        SlotRing {
            chunks: VecDeque::new(),
            head: 0,
            span: 0,
            base,
            spare: None,
            chunks_allocated: 0,
        }
    }

    /// Store `value` in a fresh slot and return its id.
    pub fn push(&mut self, value: T) -> u32 {
        // One more would make the newest id alias the oldest.
        assert!(
            self.span < u32::MAX as usize,
            "slot ring holds 2^32 - 1 slots; ids would alias"
        );
        if self.chunks.back().is_none_or(|c| c.len() == CHUNK) {
            let chunk = self.spare.take().unwrap_or_else(|| {
                self.chunks_allocated += 1;
                Vec::with_capacity(CHUNK)
            });
            self.chunks.push_back(chunk);
        }
        let back = self.chunks.back_mut().expect("a chunk was just ensured");
        back.push(Some(value));
        let id = self.base.wrapping_add(self.span as u32);
        self.span += 1;
        id
    }

    /// `(chunk, offset)` of slot `id`; out of range for ids the ring does
    /// not hold (the chunk lookups then resolve to nothing).
    #[inline]
    fn locate(&self, id: u32) -> (usize, usize) {
        // u64: `head` plus a stale id's distance can pass a 32-bit usize.
        let pos = self.head as u64 + u64::from(id.wrapping_sub(self.base));
        ((pos >> CHUNK_SHIFT) as usize, pos as usize & (CHUNK - 1))
    }

    /// The value in slot `id`, if it is still live.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&T> {
        let (chunk, off) = self.locate(id);
        self.chunks.get(chunk)?.get(off)?.as_ref()
    }

    /// Free slot `id`, returning its value if it was live. The storage
    /// itself goes back on the next [`SlotRing::reclaim_front`] that
    /// reaches it.
    pub fn take(&mut self, id: u32) -> Option<T> {
        let (chunk, off) = self.locate(id);
        self.chunks.get_mut(chunk)?.get_mut(off)?.take()
    }

    /// Give back the freed prefix and advance `base` past it.
    pub fn reclaim_front(&mut self) {
        while self.span > 0 {
            let front = &self.chunks[0];
            let end = front.len();
            let dead = front[self.head..]
                .iter()
                .position(Option::is_some)
                .unwrap_or(end - self.head);
            self.head += dead;
            self.span -= dead;
            self.base = self.base.wrapping_add(dead as u32);
            if self.head < CHUNK {
                // Stopped at a live slot, or at the end of a part-filled
                // last chunk (then `span` is 0 and pushes carry on in it).
                break;
            }
            let mut emptied = self.chunks.pop_front().expect("indexed above");
            emptied.clear();
            self.spare = Some(emptied);
            self.head = 0;
        }
    }

    /// Reclaim the freed prefix, then remove the oldest live value if
    /// `pred` accepts it, returning it with its id. This is a window's
    /// eviction step: ids are insertion order, so the front is the oldest.
    pub fn pop_front_if(&mut self, pred: impl FnOnce(&T) -> bool) -> Option<(u32, T)> {
        self.reclaim_front();
        let slot = self.chunks.front_mut()?.get_mut(self.head)?;
        if !pred(slot.as_ref()?) {
            return None;
        }
        Some((self.base, slot.take()?))
    }

    /// Slots currently held, live or freed: newest id − oldest held id + 1.
    pub fn span(&self) -> usize {
        self.span
    }

    /// Slots the ring has allocated room for, the spare chunk included
    /// (memory accounting).
    pub fn capacity(&self) -> usize {
        (self.chunks.len() + usize::from(self.spare.is_some())) * CHUNK
    }

    /// Chunks this ring has ever allocated (recycling the spare does not
    /// count): flat once a sliding window is warm.
    pub fn chunks_allocated(&self) -> u64 {
        self.chunks_allocated
    }

    /// Live `(id, value)` pairs in id (= insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.chunks
            .iter()
            .flatten()
            .skip(self.head)
            .enumerate()
            .filter_map(|(i, slot)| Some((self.base.wrapping_add(i as u32), slot.as_ref()?)))
    }

    /// Remove every live value, in insertion order, leaving the store
    /// empty. `base` moves past the drained ids, so none of them can
    /// resolve again.
    pub fn drain_all(&mut self) -> Vec<T> {
        self.base = self.base.wrapping_add(self.span as u32);
        self.head = 0;
        self.span = 0;
        self.chunks.drain(..).flatten().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_insertion_order_and_front_reclaims() {
        let mut r = SlotRing::new();
        let ids: Vec<u32> = (0..5).map(|v| r.push(v)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        // A hole in the middle stays until the front reaches it.
        assert_eq!(r.take(2), Some(2));
        r.reclaim_front();
        assert_eq!(r.span(), 5);
        assert_eq!(r.take(0), Some(0));
        assert_eq!(r.take(1), Some(1));
        r.reclaim_front();
        assert_eq!(r.span(), 2, "0, 1 and the hole at 2 all went");
        // Freed and reclaimed ids resolve to nothing; live ones still do.
        assert_eq!(r.get(1), None);
        assert_eq!(r.take(2), None);
        assert_eq!(r.get(3), Some(&3));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(3, &3), (4, &4)]);
        assert_eq!(r.push(5), 5, "ids keep counting after reclamation");
    }

    #[test]
    fn ids_wrap_past_u32_max() {
        let mut r = SlotRing::starting_at(u32::MAX - 1);
        let ids: Vec<u32> = (0..4).map(|v| r.push(v)).collect();
        assert_eq!(ids, vec![u32::MAX - 1, u32::MAX, 0, 1]);
        assert_eq!(r.get(0), Some(&2));
        assert_eq!(r.take(u32::MAX - 1), Some(0));
        assert_eq!(r.take(u32::MAX), Some(1));
        r.reclaim_front();
        assert_eq!(r.span(), 2);
        assert_eq!(r.get(u32::MAX), None, "stale id below base");
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(0, &2), (1, &3)]);
        assert_eq!(r.drain_all(), vec![2, 3]);
        assert_eq!(r.span(), 0);
        assert_eq!(r.get(1), None, "drained ids never resolve again");
        assert_eq!(r.push(9), 2);
    }

    #[test]
    fn pop_front_if_takes_the_oldest_live_value_only() {
        let mut r = SlotRing::new();
        for v in 0..4 {
            r.push(v);
        }
        r.take(0);
        assert_eq!(r.pop_front_if(|&v| v > 5), None, "predicate refused 1");
        assert_eq!(r.span(), 3, "the dead prefix went regardless");
        assert_eq!(r.pop_front_if(|&v| v == 1), Some((1, 1)));
        assert_eq!(r.pop_front_if(|&v| v == 3), None, "2 is the front, not 3");
        assert_eq!(r.pop_front_if(|_| true), Some((2, 2)));
        assert_eq!(r.pop_front_if(|_| true), Some((3, 3)));
        assert_eq!(r.pop_front_if(|_| true), None);
        assert_eq!(r.span(), 0);
    }

    /// A window of 2.5 chunks sliding over 12 chunks of ids that straddle
    /// the `u32` wrap: every id resolves to its own value on both sides of
    /// every chunk boundary, evicted ids resolve to nothing even after the
    /// chunk they lived in is back in service, and the ring allocates only
    /// while it grows.
    #[test]
    fn sliding_window_crosses_chunks_and_the_wrap_on_recycled_storage() {
        let window = CHUNK * 5 / 2;
        let first = u32::MAX - (CHUNK as u32 * 3 + 7);
        let mut r = SlotRing::starting_at(first);
        let mut warm = None;
        for n in 0..(CHUNK * 12) as u32 {
            let id = r.push(n);
            assert_eq!(id, first.wrapping_add(n));
            if n as usize >= window {
                let oldest = n - window as u32;
                assert_eq!(
                    r.pop_front_if(|_| true),
                    Some((first.wrapping_add(oldest), oldest))
                );
                r.reclaim_front();
                assert_eq!(r.span(), window);
                // One full window back, the slot's chunk has been recycled.
                for stale in [oldest, oldest.saturating_sub(window as u32)] {
                    assert_eq!(r.get(first.wrapping_add(stale)), None, "n={n}");
                    assert_eq!(r.take(first.wrapping_add(stale)), None, "n={n}");
                }
                assert_eq!(
                    r.get(id.wrapping_sub(window as u32 - 1)),
                    Some(&(oldest + 1))
                );
            }
            assert_eq!(r.get(id), Some(&n));
            assert_eq!(r.get(id.wrapping_add(1)), None, "not handed out yet");
            if n as usize == window + CHUNK {
                warm = Some(r.chunks_allocated());
            }
        }
        assert_eq!(Some(r.chunks_allocated()), warm, "steady state recycles");
        assert!(
            r.capacity() <= window + 3 * CHUNK,
            "two ragged ends + spare"
        );
        let live: Vec<u32> = r.iter().map(|(_, &v)| v).collect();
        let newest = (CHUNK * 12) as u32;
        assert_eq!(live, (newest - window as u32..newest).collect::<Vec<_>>());
        assert_eq!(r.drain_all(), live);
        assert_eq!((r.span(), r.iter().count()), (0, 0));
    }

    /// Holes punched across a chunk boundary are reclaimed in one sweep,
    /// the emptied chunk comes back clean, and a part-filled last chunk
    /// that runs empty keeps taking pushes.
    #[test]
    fn holes_across_a_chunk_boundary_and_an_emptied_tail() {
        let mut r = SlotRing::new();
        let n = (CHUNK + 10) as u32;
        for v in 0..n {
            r.push(v);
        }
        for id in 0..n - 1 {
            assert_eq!(r.take(id), Some(id));
        }
        r.reclaim_front();
        assert_eq!(r.span(), 1);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(n - 1, &(n - 1))]);
        assert_eq!(r.take(n - 1), Some(n - 1));
        r.reclaim_front();
        assert_eq!(r.span(), 0);
        // The recycled chunk holds nothing of its former contents.
        for v in 0..(2 * CHUNK) as u32 {
            let id = r.push(v + 1000);
            assert_eq!(id, n + v);
            assert_eq!(r.get(id), Some(&(v + 1000)));
        }
        assert_eq!(r.iter().count(), 2 * CHUNK);
        assert_eq!(r.chunks_allocated(), 3, "two to grow, one past the spare");
    }
}
