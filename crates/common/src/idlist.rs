//! A short list of ids that costs no allocation while it holds one.
//!
//! Per-key id lists on the standing-query path — the queries anchored on
//! one constant in a `QueryStem`, the clients subscribed to one query in
//! the egress router — almost always hold a single id. Keeping that id
//! inline makes the common entry one map slot and nothing else; a second
//! id moves the list to the heap.

/// A non-empty list of ids: one inline, or more behind one box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdList<T> {
    /// Exactly one id.
    One(T),
    /// Two or more ids, in insertion order.
    // Boxed, so the one-id case stays two words.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<T>>),
}

impl<T: Copy + PartialEq> IdList<T> {
    /// The ids, in insertion order.
    pub fn as_slice(&self) -> &[T] {
        match self {
            IdList::One(id) => std::slice::from_ref(id),
            IdList::Many(ids) => ids,
        }
    }

    /// Append `id` (duplicates are the caller's to refuse).
    pub fn push(&mut self, id: T) {
        match self {
            IdList::One(first) => *self = IdList::Many(Box::new(vec![*first, id])),
            IdList::Many(ids) => ids.push(id),
        }
    }

    /// Remove every occurrence of `id`. Returns true when no id is left:
    /// the list cannot be empty, so the caller drops it.
    pub fn remove(&mut self, id: T) -> bool {
        match self {
            IdList::One(only) => *only == id,
            IdList::Many(ids) => {
                ids.retain(|&x| x != id);
                match ids.as_slice() {
                    [] => true,
                    &[last] => {
                        *self = IdList::One(last);
                        false
                    }
                    _ => false,
                }
            }
        }
    }

    /// Heap bytes beyond the inline two words.
    pub fn heap_bytes(&self) -> usize {
        match self {
            IdList::One(_) => 0,
            IdList::Many(ids) => {
                std::mem::size_of::<Vec<T>>() + ids.capacity() * std::mem::size_of::<T>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_id_is_inline_and_the_list_is_two_words() {
        assert_eq!(std::mem::size_of::<IdList<u64>>(), 16);
        let list = IdList::One(7u64);
        assert_eq!(list.as_slice(), &[7]);
        assert_eq!(list.heap_bytes(), 0);
    }

    #[test]
    fn push_and_remove_keep_order_and_fold_back_to_one() {
        let mut list = IdList::One(1usize);
        list.push(2);
        list.push(3);
        assert_eq!(list.as_slice(), &[1, 2, 3]);
        assert!(list.heap_bytes() > 0);
        assert!(!list.remove(2));
        assert_eq!(list.as_slice(), &[1, 3]);
        assert!(!list.remove(1));
        assert_eq!(list, IdList::One(3));
        assert!(!list.remove(9), "an absent id leaves the list alone");
        assert!(list.remove(3), "the last id leaves nothing");
    }
}
