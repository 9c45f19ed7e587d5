//! The epoch churn policy shared by the sorted-run indexes of this crate
//! (the grouped filter's range indexes and the query SteM's interval index).
//!
//! Inserts land in a small sorted `pending` side-buffer and removals
//! tombstone entries of the compacted run; probes consult both, and the run
//! is rebuilt only when one of the two thresholds below trips — amortized
//! O(1) run work per registration, no O(n) `Vec::insert`/`retain` on the
//! registration path.

/// Pending (not yet merged) inserts that trigger an epoch rebuild. Probes
/// scan the pending buffer linearly, so this also bounds mid-epoch probe
/// overhead.
pub(crate) const REBUILD_PENDING: usize = 256;

/// Compact when a quarter of the run is tombstones (slack so tiny runs
/// don't thrash).
pub(crate) fn compaction_due(dead: usize, entries: usize) -> bool {
    dead * 4 > entries + 64
}

/// Counts of mid-epoch state, exposed for tests and the scale bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Entries waiting in the sorted side-buffers.
    pub pending: usize,
    /// Removed entries still tombstoned in the sorted runs.
    pub tombstones: usize,
    /// Entries in the compacted sorted runs (live + tombstoned).
    pub entries: usize,
}
