//! Time in TelegraphCQ-rs.
//!
//! TelegraphCQ §4.1 allows "multiple simultaneous notions of time, such as
//! logical sequence numbers or physical time", and, to accommodate loosely
//! synchronized distributed sources, treats time "as a partial order rather
//! than as a complete order".
//!
//! We model this with [`Timestamp`]: an optional logical sequence number
//! plus an optional physical clock reading, packed into two words. Two
//! timestamps are *comparable* when they come from the same notion of
//! time; comparing a purely-logical timestamp against a purely-physical one
//! yields [`TimeOrder::Incomparable`].

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Result of comparing two (partially ordered) timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeOrder {
    /// Strictly earlier.
    Before,
    /// Same instant.
    Equal,
    /// Strictly later.
    After,
    /// The two timestamps use disjoint notions of time.
    Incomparable,
}

/// A point in (partially ordered) stream time.
///
/// Two `i64` words, 16 bytes: each component is its value, or
/// [`Timestamp::ABSENT`] when that notion of time is unknown. The
/// constructors refuse `ABSENT` as a value (a debug assertion here, a
/// decode error in the codec), so every component in `i64::MIN + 1 ..=
/// i64::MAX` round-trips and `Eq` on the words is `Eq` on the components.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Timestamp {
    /// Logical sequence number within the stream, or `ABSENT`.
    logical: i64,
    /// Physical time in integer micros since an arbitrary epoch, or `ABSENT`.
    physical: i64,
}

impl Timestamp {
    /// The reserved word meaning "this component is absent". No logical
    /// sequence number or physical reading may take this value.
    pub const ABSENT: i64 = i64::MIN;

    /// A purely logical timestamp (tuple sequence number).
    pub const fn logical(seq: i64) -> Self {
        debug_assert!(seq != Self::ABSENT, "i64::MIN is the absent component");
        Timestamp {
            logical: seq,
            physical: Self::ABSENT,
        }
    }

    /// A purely physical timestamp (wall-clock micros).
    pub const fn physical(micros: i64) -> Self {
        debug_assert!(micros != Self::ABSENT, "i64::MIN is the absent component");
        Timestamp {
            logical: Self::ABSENT,
            physical: micros,
        }
    }

    /// Both notions at once.
    pub const fn both(seq: i64, micros: i64) -> Self {
        debug_assert!(
            seq != Self::ABSENT && micros != Self::ABSENT,
            "i64::MIN is the absent component"
        );
        Timestamp {
            logical: seq,
            physical: micros,
        }
    }

    /// The completely unknown timestamp.
    pub const fn unknown() -> Self {
        Timestamp {
            logical: Self::ABSENT,
            physical: Self::ABSENT,
        }
    }

    /// A timestamp from optional components.
    pub(crate) const fn from_parts(logical: Option<i64>, physical: Option<i64>) -> Self {
        Timestamp {
            logical: present(logical),
            physical: present(physical),
        }
    }

    /// The logical component, if assigned.
    #[inline]
    pub const fn logical_part(&self) -> Option<i64> {
        part(self.logical)
    }

    /// The physical component, if known.
    #[inline]
    pub const fn physical_part(&self) -> Option<i64> {
        part(self.physical)
    }

    /// Partial-order comparison (see module docs).
    ///
    /// When both notions are present on both sides, logical order wins and
    /// physical order is only consulted to break logical ties.
    pub fn compare(&self, other: &Timestamp) -> TimeOrder {
        match (self.logical_part(), other.logical_part()) {
            (Some(a), Some(b)) => {
                if a != b {
                    return ord_to_time(a.cmp(&b));
                }
                match (self.physical_part(), other.physical_part()) {
                    (Some(pa), Some(pb)) => ord_to_time(pa.cmp(&pb)),
                    _ => TimeOrder::Equal,
                }
            }
            _ => match (self.physical_part(), other.physical_part()) {
                (Some(a), Some(b)) => ord_to_time(a.cmp(&b)),
                _ => TimeOrder::Incomparable,
            },
        }
    }

    /// The later of two timestamps under the partial order; when
    /// incomparable, unions the notions (used when a join output inherits
    /// time from both parents).
    pub fn join_max(&self, other: &Timestamp) -> Timestamp {
        match self.compare(other) {
            TimeOrder::Before => *other,
            // `ABSENT` is below every present word, so the word-wise max
            // is the component-wise max with absent ones filled in.
            TimeOrder::After | TimeOrder::Equal | TimeOrder::Incomparable => Timestamp {
                logical: self.logical.max(other.logical),
                physical: self.physical.max(other.physical),
            },
        }
    }

    /// The logical component, defaulting to 0 (streams start at 1 in the
    /// paper's examples, so 0 means "before everything").
    #[inline]
    pub fn seq(&self) -> i64 {
        self.logical_part().unwrap_or(0)
    }
}

const fn present(c: Option<i64>) -> i64 {
    match c {
        Some(v) => {
            debug_assert!(v != Timestamp::ABSENT, "i64::MIN is the absent component");
            v
        }
        None => Timestamp::ABSENT,
    }
}

const fn part(word: i64) -> Option<i64> {
    if word == Timestamp::ABSENT {
        None
    } else {
        Some(word)
    }
}

/// Hashes the components as `Option`s, exactly as the two-`Option` layout
/// this type had before did.
impl Hash for Timestamp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.logical_part().hash(state);
        self.physical_part().hash(state);
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timestamp")
            .field("logical", &self.logical_part())
            .field("physical", &self.physical_part())
            .finish()
    }
}

fn ord_to_time(o: Ordering) -> TimeOrder {
    match o {
        Ordering::Less => TimeOrder::Before,
        Ordering::Equal => TimeOrder::Equal,
        Ordering::Greater => TimeOrder::After,
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.logical_part(), self.physical_part()) {
            (Some(l), Some(p)) => write!(f, "t{l}@{p}us"),
            (Some(l), None) => write!(f, "t{l}"),
            (None, Some(p)) => write!(f, "@{p}us"),
            (None, None) => write!(f, "t?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_comparison() {
        assert_eq!(
            Timestamp::logical(1).compare(&Timestamp::logical(2)),
            TimeOrder::Before
        );
        assert_eq!(
            Timestamp::logical(5).compare(&Timestamp::logical(5)),
            TimeOrder::Equal
        );
    }

    #[test]
    fn disjoint_notions_are_incomparable() {
        assert_eq!(
            Timestamp::logical(1).compare(&Timestamp::physical(999)),
            TimeOrder::Incomparable
        );
        assert_eq!(
            Timestamp::unknown().compare(&Timestamp::logical(1)),
            TimeOrder::Incomparable
        );
    }

    #[test]
    fn physical_breaks_logical_ties() {
        let a = Timestamp::both(3, 100);
        let b = Timestamp::both(3, 200);
        assert_eq!(a.compare(&b), TimeOrder::Before);
    }

    #[test]
    fn join_max_unions_notions() {
        let a = Timestamp::logical(7);
        let b = Timestamp::physical(50);
        let m = a.join_max(&b);
        assert_eq!(m.logical_part(), Some(7));
        assert_eq!(m.physical_part(), Some(50));
    }

    #[test]
    fn join_max_picks_later() {
        let a = Timestamp::logical(7);
        let b = Timestamp::logical(9);
        assert_eq!(a.join_max(&b).seq(), 9);
        assert_eq!(b.join_max(&a).seq(), 9);
    }

    #[test]
    fn two_words_keep_every_component() {
        assert_eq!(std::mem::size_of::<Timestamp>(), 16);
        for (l, p) in [
            (None, None),
            (Some(i64::MIN + 1), None),
            (None, Some(i64::MAX)),
            (Some(0), Some(-1)),
        ] {
            let ts = Timestamp::from_parts(l, p);
            assert_eq!((ts.logical_part(), ts.physical_part()), (l, p));
        }
        assert_eq!(Timestamp::from_parts(Some(3), None), Timestamp::logical(3));
        assert_ne!(Timestamp::logical(3), Timestamp::both(3, 0));
        assert_ne!(Timestamp::unknown(), Timestamp::logical(0));
    }

    #[test]
    fn hash_and_debug_read_like_two_options() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            v(&mut s);
            s.finish()
        };
        for ts in [
            Timestamp::unknown(),
            Timestamp::logical(4),
            Timestamp::physical(-9),
            Timestamp::both(1, 2),
        ] {
            let parts = (ts.logical_part(), ts.physical_part());
            assert_eq!(h(&|s| ts.hash(s)), h(&|s| parts.hash(s)));
        }
        assert_eq!(
            format!("{:?}", Timestamp::logical(4)),
            "Timestamp { logical: Some(4), physical: None }"
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Timestamp::logical(4).to_string(), "t4");
        assert_eq!(Timestamp::both(4, 12).to_string(), "t4@12us");
        assert_eq!(Timestamp::unknown().to_string(), "t?");
    }
}
