//! Slot storage sized by the live window, in fixed-size chunks.
//!
//! A SteM's indexes (hash buckets, late-row index) refer to
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
//! What a chunk holds is the tenant's choice ([`Chunk`]): the data SteM's
//! chunk is a column segment (one typed column per field, timestamps, key
//! hashes and a live bitmap — `crate::segment`). The ring only appends
//! slots, asks which are live, kills them and recycles whole chunks.
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
/// over its own rows, and two chunks are the floor for a window of any
/// size.
const CHUNK_SHIFT: u32 = 8;
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// One chunk of a [`SlotRing`]: up to `CHUNK` slots, appended in id order,
/// each live until killed.
pub trait Chunk {
    /// What every chunk of one ring is built from (a column segment's
    /// field types); the ring keeps it.
    type Layout;
    /// An empty chunk with room for `slots` slots.
    fn with_layout(layout: &Self::Layout, slots: usize) -> Self;
    /// Slots appended since the chunk was last empty, live or killed.
    fn filled(&self) -> usize;
    /// True when slot `slot` (`< filled()`) is live.
    fn is_live(&self, slot: usize) -> bool;
    /// Free slot `slot`; its storage comes back with the whole chunk.
    fn kill(&mut self, slot: usize);
    /// Empty the chunk for reuse, keeping its allocations.
    fn reset(&mut self, layout: &Self::Layout);
}

/// Chunked ring-buffer slot store: monotone wrapping ids, oldest first.
pub struct SlotRing<C: Chunk> {
    layout: C::Layout,
    /// Every chunk but the last holds `CHUNK` slots. Slot id `base + i`
    /// lives at position `head + i`, counted through the chunks in order.
    chunks: VecDeque<C>,
    /// Slots of `chunks[0]` already given back (all dead).
    head: usize,
    /// Slots held from `head` on, live or freed.
    span: usize,
    /// Id of the slot at `head` (and the next id when the ring is empty).
    base: u32,
    /// The last chunk the front emptied, reset, for the back to reuse.
    spare: Option<C>,
    chunks_allocated: u64,
}

impl<C: Chunk> SlotRing<C> {
    /// An empty store whose first id is 0.
    pub fn new(layout: C::Layout) -> Self {
        Self::starting_at(layout, 0)
    }

    /// An empty store whose first id is `base`. Production code starts at
    /// 0; tests start just below `u32::MAX` to cross the id wrap without
    /// four billion inserts.
    pub fn starting_at(layout: C::Layout, base: u32) -> Self {
        SlotRing {
            layout,
            chunks: VecDeque::new(),
            head: 0,
            span: 0,
            base,
            spare: None,
            chunks_allocated: 0,
        }
    }

    /// Append one slot and return its id: `append` must add exactly one
    /// live slot to the chunk it is handed.
    pub fn push(&mut self, append: impl FnOnce(&mut C)) -> u32 {
        // One more would make the newest id alias the oldest.
        assert!(
            self.span < u32::MAX as usize,
            "slot ring holds 2^32 - 1 slots; ids would alias"
        );
        if self.chunks.back().is_none_or(|c| c.filled() == CHUNK) {
            let chunk = self.spare.take().unwrap_or_else(|| {
                self.chunks_allocated += 1;
                C::with_layout(&self.layout, CHUNK)
            });
            self.chunks.push_back(chunk);
        }
        let back = self.chunks.back_mut().expect("a chunk was just ensured");
        let before = back.filled();
        append(back);
        debug_assert!(back.filled() == before + 1 && back.is_live(before));
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

    /// The chunk holding slot `id` and the slot's offset in it, if the
    /// slot is live.
    #[inline]
    pub fn get(&self, id: u32) -> Option<(&C, usize)> {
        let (chunk, off) = self.locate(id);
        let chunk = self.chunks.get(chunk)?;
        (off < chunk.filled() && chunk.is_live(off)).then_some((chunk, off))
    }

    /// Free slot `id`, returning whether it was live. The storage itself
    /// goes back on the next [`SlotRing::reclaim_front`] that reaches it.
    pub fn kill(&mut self, id: u32) -> bool {
        let (chunk, off) = self.locate(id);
        match self.chunks.get_mut(chunk) {
            Some(c) if off < c.filled() && c.is_live(off) => {
                c.kill(off);
                true
            }
            _ => false,
        }
    }

    /// Give back the freed prefix and advance `base` past it.
    pub fn reclaim_front(&mut self) {
        while self.span > 0 {
            let front = &self.chunks[0];
            let end = front.filled();
            let live = (self.head..end).find(|&s| front.is_live(s)).unwrap_or(end);
            let dead = live - self.head;
            self.head += dead;
            self.span -= dead;
            self.base = self.base.wrapping_add(dead as u32);
            if self.head < CHUNK {
                // Stopped at a live slot, or at the end of a part-filled
                // last chunk (then `span` is 0 and pushes carry on in it).
                break;
            }
            let mut emptied = self.chunks.pop_front().expect("indexed above");
            emptied.reset(&self.layout);
            self.spare = Some(emptied);
            self.head = 0;
        }
    }

    /// Reclaim the freed prefix, then name the oldest live slot: its id,
    /// chunk and offset. This is a window's eviction step: ids are
    /// insertion order, so the front is the oldest.
    pub fn front(&mut self) -> Option<(u32, &C, usize)> {
        self.reclaim_front();
        let chunk = self.chunks.front()?;
        (self.head < chunk.filled()).then_some((self.base, chunk, self.head))
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

    /// Every chunk the ring holds, the spare included (memory accounting).
    pub fn chunks(&self) -> impl Iterator<Item = &C> {
        self.chunks.iter().chain(&self.spare)
    }

    /// Chunks this ring has ever allocated (recycling the spare does not
    /// count): flat once a sliding window is warm.
    pub fn chunks_allocated(&self) -> u64 {
        self.chunks_allocated
    }

    /// Live slots in id (= insertion) order, as `(id, chunk, offset)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &C, usize)> {
        self.chunks.iter().enumerate().flat_map(move |(i, chunk)| {
            let first = if i == 0 { self.head } else { 0 };
            (first..chunk.filled())
                .filter(move |&s| chunk.is_live(s))
                .map(move |s| {
                    let pos = i * CHUNK + s - self.head;
                    (self.base.wrapping_add(pos as u32), chunk, s)
                })
        })
    }

    /// Free every slot, leaving the store empty. `base` moves past the
    /// freed ids, so none of them can resolve again.
    pub fn clear(&mut self) {
        self.base = self.base.wrapping_add(self.span as u32);
        self.head = 0;
        self.span = 0;
        self.chunks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ring = SlotRing<Vec<Option<u32>>>;

    /// The plain chunk the tests store in: one optional value per slot.
    impl<T> Chunk for Vec<Option<T>> {
        type Layout = ();

        fn with_layout(_: &(), slots: usize) -> Self {
            Vec::with_capacity(slots)
        }

        fn filled(&self) -> usize {
            self.len()
        }

        fn is_live(&self, slot: usize) -> bool {
            self[slot].is_some()
        }

        fn kill(&mut self, slot: usize) {
            self[slot] = None;
        }

        fn reset(&mut self, _: &()) {
            self.clear();
        }
    }

    fn push(r: &mut Ring, v: u32) -> u32 {
        r.push(|c| c.push(Some(v)))
    }

    fn get(r: &Ring, id: u32) -> Option<u32> {
        r.get(id).map(|(c, off)| c[off].expect("live"))
    }

    fn live(r: &Ring) -> Vec<(u32, u32)> {
        r.iter().map(|(id, c, off)| (id, c[off].unwrap())).collect()
    }

    /// Remove the oldest live value if `pred` accepts it.
    fn pop_front_if(r: &mut Ring, pred: impl FnOnce(u32) -> bool) -> Option<(u32, u32)> {
        let (id, v) = r.front().map(|(id, c, off)| (id, c[off].unwrap()))?;
        (pred(v) && r.kill(id)).then_some((id, v))
    }

    #[test]
    fn ids_are_insertion_order_and_front_reclaims() {
        let mut r = Ring::new(());
        let ids: Vec<u32> = (0..5).map(|v| push(&mut r, v)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        // A hole in the middle stays until the front reaches it.
        assert!(r.kill(2));
        r.reclaim_front();
        assert_eq!(r.span(), 5);
        assert!(r.kill(0));
        assert!(r.kill(1));
        r.reclaim_front();
        assert_eq!(r.span(), 2, "0, 1 and the hole at 2 all went");
        // Freed and reclaimed ids resolve to nothing; live ones still do.
        assert_eq!(get(&r, 1), None);
        assert!(!r.kill(2));
        assert_eq!(get(&r, 3), Some(3));
        assert_eq!(live(&r), vec![(3, 3), (4, 4)]);
        assert_eq!(push(&mut r, 5), 5, "ids keep counting after reclamation");
    }

    #[test]
    fn ids_wrap_past_u32_max() {
        let mut r = Ring::starting_at((), u32::MAX - 1);
        let ids: Vec<u32> = (0..4).map(|v| push(&mut r, v)).collect();
        assert_eq!(ids, vec![u32::MAX - 1, u32::MAX, 0, 1]);
        assert_eq!(get(&r, 0), Some(2));
        assert!(r.kill(u32::MAX - 1));
        assert!(r.kill(u32::MAX));
        r.reclaim_front();
        assert_eq!(r.span(), 2);
        assert_eq!(get(&r, u32::MAX), None, "stale id below base");
        assert_eq!(live(&r), vec![(0, 2), (1, 3)]);
        r.clear();
        assert_eq!(r.span(), 0);
        assert_eq!(get(&r, 1), None, "cleared ids never resolve again");
        assert_eq!(push(&mut r, 9), 2);
    }

    #[test]
    fn front_names_the_oldest_live_value_only() {
        let mut r = Ring::new(());
        for v in 0..4 {
            push(&mut r, v);
        }
        r.kill(0);
        assert_eq!(pop_front_if(&mut r, |v| v > 5), None, "predicate refused 1");
        assert_eq!(r.span(), 3, "the dead prefix went regardless");
        assert_eq!(pop_front_if(&mut r, |v| v == 1), Some((1, 1)));
        assert_eq!(
            pop_front_if(&mut r, |v| v == 3),
            None,
            "2 is the front, not 3"
        );
        assert_eq!(pop_front_if(&mut r, |_| true), Some((2, 2)));
        assert_eq!(pop_front_if(&mut r, |_| true), Some((3, 3)));
        assert_eq!(pop_front_if(&mut r, |_| true), None);
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
        let mut r = Ring::starting_at((), first);
        let mut warm = None;
        for n in 0..(CHUNK * 12) as u32 {
            let id = push(&mut r, n);
            assert_eq!(id, first.wrapping_add(n));
            if n as usize >= window {
                let oldest = n - window as u32;
                assert_eq!(
                    pop_front_if(&mut r, |_| true),
                    Some((first.wrapping_add(oldest), oldest))
                );
                r.reclaim_front();
                assert_eq!(r.span(), window);
                // One full window back, the slot's chunk has been recycled.
                for stale in [oldest, oldest.saturating_sub(window as u32)] {
                    assert_eq!(get(&r, first.wrapping_add(stale)), None, "n={n}");
                    assert!(!r.kill(first.wrapping_add(stale)), "n={n}");
                }
                assert_eq!(
                    get(&r, id.wrapping_sub(window as u32 - 1)),
                    Some(oldest + 1)
                );
            }
            assert_eq!(get(&r, id), Some(n));
            assert_eq!(get(&r, id.wrapping_add(1)), None, "not handed out yet");
            if n as usize == window + CHUNK {
                warm = Some(r.chunks_allocated());
            }
        }
        assert_eq!(Some(r.chunks_allocated()), warm, "steady state recycles");
        assert!(
            r.capacity() <= window + 3 * CHUNK,
            "two ragged ends + spare"
        );
        assert_eq!(r.chunks().count() * CHUNK, r.capacity());
        let newest = (CHUNK * 12) as u32;
        let values: Vec<u32> = live(&r).into_iter().map(|(_, v)| v).collect();
        assert_eq!(values, (newest - window as u32..newest).collect::<Vec<_>>());
        r.clear();
        assert_eq!((r.span(), r.iter().count()), (0, 0));
    }

    /// Holes punched across a chunk boundary are reclaimed in one sweep,
    /// the emptied chunk comes back clean, and a part-filled last chunk
    /// that runs empty keeps taking pushes.
    #[test]
    fn holes_across_a_chunk_boundary_and_an_emptied_tail() {
        let mut r = Ring::new(());
        let n = (CHUNK + 10) as u32;
        for v in 0..n {
            push(&mut r, v);
        }
        for id in 0..n - 1 {
            assert!(r.kill(id));
        }
        r.reclaim_front();
        assert_eq!(r.span(), 1);
        assert_eq!(live(&r), vec![(n - 1, n - 1)]);
        assert!(r.kill(n - 1));
        r.reclaim_front();
        assert_eq!(r.span(), 0);
        // The recycled chunk holds nothing of its former contents.
        for v in 0..(2 * CHUNK) as u32 {
            let id = push(&mut r, v + 1000);
            assert_eq!(id, n + v);
            assert_eq!(get(&r, id), Some(v + 1000));
        }
        assert_eq!(r.iter().count(), 2 * CHUNK);
        assert_eq!(r.chunks_allocated(), 3, "two to grow, one past the spare");
    }
}
