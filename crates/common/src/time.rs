//! Time in TelegraphCQ-rs.
//!
//! TelegraphCQ §4.1 allows "multiple simultaneous notions of time, such as
//! logical sequence numbers or physical time", and, to accommodate loosely
//! synchronized distributed sources, treats time "as a partial order rather
//! than as a complete order".
//!
//! We model this with [`Timestamp`]: a logical sequence number plus an
//! optional physical clock reading. Two timestamps are *comparable* when
//! they come from the same notion of time; comparing a purely-logical
//! timestamp against a purely-physical one yields [`TimeOrder::Incomparable`].

use std::cmp::Ordering;
use std::fmt;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Timestamp {
    /// Logical sequence number within the stream, if assigned.
    pub logical: Option<i64>,
    /// Physical time in integer micros since an arbitrary epoch, if known.
    pub physical: Option<i64>,
}

impl Timestamp {
    /// A purely logical timestamp (tuple sequence number).
    pub const fn logical(seq: i64) -> Self {
        Timestamp {
            logical: Some(seq),
            physical: None,
        }
    }

    /// A purely physical timestamp (wall-clock micros).
    pub const fn physical(micros: i64) -> Self {
        Timestamp {
            logical: None,
            physical: Some(micros),
        }
    }

    /// Both notions at once.
    pub const fn both(seq: i64, micros: i64) -> Self {
        Timestamp {
            logical: Some(seq),
            physical: Some(micros),
        }
    }

    /// The completely unknown timestamp.
    pub const fn unknown() -> Self {
        Timestamp {
            logical: None,
            physical: None,
        }
    }

    /// Partial-order comparison (see module docs).
    ///
    /// When both notions are present on both sides, logical order wins and
    /// physical order is only consulted to break logical ties.
    pub fn compare(&self, other: &Timestamp) -> TimeOrder {
        match (self.logical, other.logical) {
            (Some(a), Some(b)) => {
                if a != b {
                    return ord_to_time(a.cmp(&b));
                }
                match (self.physical, other.physical) {
                    (Some(pa), Some(pb)) => ord_to_time(pa.cmp(&pb)),
                    _ => TimeOrder::Equal,
                }
            }
            _ => match (self.physical, other.physical) {
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
            TimeOrder::After | TimeOrder::Equal => Timestamp {
                logical: max_opt(self.logical, other.logical),
                physical: max_opt(self.physical, other.physical),
            },
            TimeOrder::Incomparable => Timestamp {
                logical: max_opt(self.logical, other.logical),
                physical: max_opt(self.physical, other.physical),
            },
        }
    }

    /// The logical component, defaulting to 0 (streams start at 1 in the
    /// paper's examples, so 0 means "before everything").
    pub fn seq(&self) -> i64 {
        self.logical.unwrap_or(0)
    }
}

fn ord_to_time(o: Ordering) -> TimeOrder {
    match o {
        Ordering::Less => TimeOrder::Before,
        Ordering::Equal => TimeOrder::Equal,
        Ordering::Greater => TimeOrder::After,
    }
}

fn max_opt(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.logical, self.physical) {
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
        assert_eq!(m.logical, Some(7));
        assert_eq!(m.physical, Some(50));
    }

    #[test]
    fn join_max_picks_later() {
        let a = Timestamp::logical(7);
        let b = Timestamp::logical(9);
        assert_eq!(a.join_max(&b).seq(), 9);
        assert_eq!(b.join_max(&a).seq(), 9);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Timestamp::logical(4).to_string(), "t4");
        assert_eq!(Timestamp::both(4, 12).to_string(), "t4@12us");
        assert_eq!(Timestamp::unknown().to_string(), "t?");
    }
}
