//! Slot storage sized by the live window, not by stream history.
//!
//! A SteM's indexes (hash buckets, ordered index, arrival queue) refer to
//! stored tuples by slot id. Ids are handed out in insertion order and a
//! window evicts oldest-first, so the dead slots of a sliding window form a
//! prefix: a ring that pops that prefix as it dies keeps storage at
//! `O(newest live id − oldest live id)` — the window's extent — with
//! amortised O(1) reclamation and no rebuild pass. A slot freed in the
//! middle (out-of-order builds, a replaced checkpoint group) is reclaimed
//! when the front reaches it.
//!
//! Ids are `u32` and wrap: an id resolves by its wrapping distance from
//! `base`, so a store that has handed out more than 2³² ids over its
//! lifetime stays correct as long as fewer than 2³² are live at once
//! (enforced in [`SlotRing::push`]). A stale id — one below `base` — wraps
//! to a distance past the ring and resolves to nothing.

use std::collections::VecDeque;

/// Ring-buffer slot store: monotone wrapping ids over a `VecDeque`.
pub struct SlotRing<T> {
    /// `ring[i]` holds slot id `base + i`; `None` marks a freed slot.
    ring: VecDeque<Option<T>>,
    /// Id of `ring[0]` (and the next id when the ring is empty).
    base: u32,
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
            ring: VecDeque::new(),
            base,
        }
    }

    /// Store `value` in a fresh slot and return its id.
    pub fn push(&mut self, value: T) -> u32 {
        // One more would make the newest id alias the oldest.
        assert!(
            self.ring.len() < u32::MAX as usize,
            "slot ring holds 2^32 - 1 slots; ids would alias"
        );
        let id = self.base.wrapping_add(self.ring.len() as u32);
        self.ring.push_back(Some(value));
        id
    }

    /// The value in slot `id`, if it is still live.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&T> {
        self.ring.get(id.wrapping_sub(self.base) as usize)?.as_ref()
    }

    /// Free slot `id`, returning its value if it was live. The storage
    /// itself goes back on the next [`SlotRing::reclaim_front`] that
    /// reaches it.
    pub fn take(&mut self, id: u32) -> Option<T> {
        self.ring
            .get_mut(id.wrapping_sub(self.base) as usize)?
            .take()
    }

    /// Pop the freed prefix and advance `base` past it.
    pub fn reclaim_front(&mut self) {
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.base = self.base.wrapping_add(1);
        }
    }

    /// Slots currently held, live or freed: newest id − oldest held id + 1.
    pub fn span(&self) -> usize {
        self.ring.len()
    }

    /// Slots the ring has allocated room for (memory accounting).
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Live `(id, value)` pairs in id (= insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.ring
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((self.base.wrapping_add(i as u32), slot.as_ref()?)))
    }

    /// Remove every live value, in insertion order, leaving the store
    /// empty. `base` moves past the drained ids, so none of them can
    /// resolve again.
    pub fn drain_all(&mut self) -> Vec<T> {
        self.base = self.base.wrapping_add(self.ring.len() as u32);
        self.ring.drain(..).flatten().collect()
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
}
