//! The eddy-module contract.
//!
//! An eddy "continuously route\[s\] tuples among a set of other modules
//! according to a routing policy … When one of the modules processes a
//! tuple t, it can generate other tuples … and send them back to the Eddy
//! for further routing" (§2.2). [`Routed`] captures exactly that protocol.

use tcq_common::{ColumnBatch, Expr, Result, SchemaRef, Tuple};

/// Tuples a module handed "back to the Eddy for further routing".
///
/// A probe yields zero or one match far more often than many, so the
/// first output is stored inline — the empty and single-output cases
/// never touch the allocator. Only multi-match probes (or callers that
/// arrive with a pre-built buffer) spill to a heap `Vec`. Equality is by
/// sequence, not representation: `One(t)` equals `Many(vec![t])`.
#[derive(Debug, Default)]
pub enum Outputs {
    /// No tuples produced.
    #[default]
    None,
    /// Exactly one tuple, stored inline (no heap allocation).
    One(Tuple),
    /// A heap buffer of tuples (any length).
    Many(Vec<Tuple>),
}

impl Outputs {
    /// Number of output tuples.
    pub fn len(&self) -> usize {
        match self {
            Outputs::None => 0,
            Outputs::One(_) => 1,
            Outputs::Many(v) => v.len(),
        }
    }

    /// True when no tuples were produced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first output, if any.
    pub fn first(&self) -> Option<&Tuple> {
        match self {
            Outputs::None => None,
            Outputs::One(t) => Some(t),
            Outputs::Many(v) => v.first(),
        }
    }

    /// Append a tuple, promoting the representation as needed.
    pub fn push(&mut self, t: Tuple) {
        match std::mem::take(self) {
            Outputs::None => *self = Outputs::One(t),
            Outputs::One(a) => *self = Outputs::Many(vec![a, t]),
            Outputs::Many(mut v) => {
                v.push(t);
                *self = Outputs::Many(v);
            }
        }
    }

    /// Iterate by reference.
    pub fn iter(&self) -> OutputsIter<'_> {
        match self {
            Outputs::None => OutputsIter::One(None),
            Outputs::One(t) => OutputsIter::One(Some(t)),
            Outputs::Many(v) => OutputsIter::Many(v.iter()),
        }
    }
}

impl PartialEq for Outputs {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

/// Borrowing iterator over [`Outputs`].
pub enum OutputsIter<'a> {
    /// Inline zero-or-one case.
    One(Option<&'a Tuple>),
    /// Heap-buffer case.
    Many(std::slice::Iter<'a, Tuple>),
}

impl<'a> Iterator for OutputsIter<'a> {
    type Item = &'a Tuple;
    fn next(&mut self) -> Option<&'a Tuple> {
        match self {
            OutputsIter::One(t) => t.take(),
            OutputsIter::Many(it) => it.next(),
        }
    }
}

impl<'a> IntoIterator for &'a Outputs {
    type Item = &'a Tuple;
    type IntoIter = OutputsIter<'a>;
    fn into_iter(self) -> OutputsIter<'a> {
        self.iter()
    }
}

/// Owning iterator over [`Outputs`].
pub enum OutputsIntoIter {
    /// Inline zero-or-one case.
    One(Option<Tuple>),
    /// Heap-buffer case.
    Many(std::vec::IntoIter<Tuple>),
}

impl Iterator for OutputsIntoIter {
    type Item = Tuple;
    fn next(&mut self) -> Option<Tuple> {
        match self {
            OutputsIntoIter::One(t) => t.take(),
            OutputsIntoIter::Many(it) => it.next(),
        }
    }
}

impl IntoIterator for Outputs {
    type Item = Tuple;
    type IntoIter = OutputsIntoIter;
    fn into_iter(self) -> OutputsIntoIter {
        match self {
            Outputs::None => OutputsIntoIter::One(None),
            Outputs::One(t) => OutputsIntoIter::One(Some(t)),
            Outputs::Many(v) => OutputsIntoIter::Many(v.into_iter()),
        }
    }
}

/// What a module did with one routed tuple.
#[derive(Debug, Default)]
pub struct Routed {
    /// Whether the original tuple survives this module and should continue
    /// routing (filters: predicate held; SteM build: yes; SteM probe: no —
    /// the concatenations carry it forward).
    pub keep: bool,
    /// Newly generated tuples (join concatenations, index lookups) returned
    /// "back to the Eddy for further routing".
    pub outputs: Outputs,
}

impl Routed {
    /// The tuple passed through unchanged.
    pub fn pass() -> Routed {
        Routed {
            keep: true,
            outputs: Outputs::None,
        }
    }

    /// The tuple was filtered out or absorbed.
    pub fn drop() -> Routed {
        Routed {
            keep: false,
            outputs: Outputs::None,
        }
    }

    /// The tuple was consumed and replaced by `outputs`.
    pub fn consume_into(outputs: Vec<Tuple>) -> Routed {
        Routed {
            keep: false,
            outputs: Outputs::Many(outputs),
        }
    }
}

/// What a module did with one routed [`ColumnBatch`]
/// ([`EddyModule::process_columnar`]).
#[derive(Debug)]
pub enum ColumnarVerdict {
    /// No columnar implementation for this batch (or its column
    /// representations); the eddy must materialize rows and take the row
    /// path for this visit.
    Fallback,
    /// Every row passes unchanged (grouped filters, SteM builds).
    KeepAll,
    /// `keep` was filled with one verdict per row; the eddy compacts the
    /// batch (and any retained row mirror) by the mask.
    Filtered,
    /// The batch was consumed and replaced by a new one (SteM probes
    /// yield join concatenations).
    Consumed(ColumnBatch),
}

/// A commutative query module an eddy can route through.
///
/// The eddy visits a module with a whole group of tuples that share one
/// routing decision: [`EddyModule::process_columnar`] first, and
/// [`EddyModule::process_batch`] over rows when that answers
/// [`ColumnarVerdict::Fallback`]. [`EddyModule::process`] is the
/// one-tuple contract both must agree with. Implementations must be cheap
/// to call: routing policies time each visit to estimate module costs.
pub trait EddyModule: Send {
    /// Short diagnostic name, e.g. `"sel(closingPrice>50)"`.
    fn name(&self) -> &str;

    /// Handle one routed tuple.
    fn process(&mut self, tuple: &Tuple) -> Result<Routed>;

    /// Handle a batch of tuples that share one routing decision, pushing
    /// exactly one [`Routed`] per tuple onto `out`, in order. Results must
    /// match what per-tuple [`EddyModule::process`] calls in the same
    /// order would produce — batching is an amortization, never a
    /// semantic change. The default loops over `process`; bind-heavy or
    /// stateful modules override it to pay schema binds, plan lookups,
    /// and virtual dispatch once per batch instead of once per tuple.
    fn process_batch(&mut self, tuples: &[Tuple], out: &mut Vec<Routed>) -> Result<()> {
        out.reserve(tuples.len());
        for t in tuples {
            let r = self.process(t)?;
            out.push(r);
        }
        Ok(())
    }

    /// Handle a batch of tuples in columnar form. Must be semantically
    /// identical to [`EddyModule::process_batch`] over the same rows:
    /// the surviving set, any generated tuples, and their order may not
    /// differ — vectorization is an amortization, never a semantic
    /// change. `rows` is the retained row mirror of `batch` when the
    /// eddy still holds one (ingress batches); modules that must store
    /// row tuples (SteM builds) require it and fall back otherwise.
    /// Return [`ColumnarVerdict::Fallback`] — the default — whenever
    /// row-identical behavior cannot be guaranteed for this batch, and
    /// the eddy reverts to the row path for the visit.
    fn process_columnar(
        &mut self,
        _batch: &ColumnBatch,
        _rows: Option<&[Tuple]>,
        _keep: &mut Vec<bool>,
    ) -> Result<ColumnarVerdict> {
        Ok(ColumnarVerdict::Fallback)
    }

    /// The column whose key hashes this module would consume for batches
    /// of `schema`, if any — the eddy's hint for which column to prehash
    /// into a [`ColumnBatch`]'s hash column at the ingress edge. Default:
    /// none (the module never consults batch key hashes).
    fn key_column_hint(&mut self, _schema: &SchemaRef) -> Option<usize> {
        None
    }

    /// Window maintenance: stream time on the module's stored source has
    /// reached `seq`, as carried in from outside the module's own builds
    /// (a partition worker builds only its partition's rows). Default:
    /// stateless, nothing to do.
    fn advance_to(&mut self, _seq: i64) {}

    /// Replace the build filter: a SteM that several queries share stores
    /// the rows any of them can use. `None` stores every build. Default:
    /// modules that store nothing have no filter to replace.
    fn set_build_predicate(&mut self, _pred: Option<&Expr>) -> Result<()> {
        Err(tcq_common::TcqError::Executor(format!(
            "module {} stores no rows to filter",
            self.name()
        )))
    }

    /// Start (`true`) or stop recording, for each probe output, the
    /// logical time of the stored row it joined. Default: nothing stored,
    /// nothing to record.
    fn record_match_seqs(&mut self, _on: bool) {}

    /// Move the recorded times onto `out`, in output order.
    fn drain_match_seqs(&mut self, _out: &mut Vec<i64>) {}

    /// Approximate retained state in tuples (for memory accounting and the
    /// out-of-core experiments). Default 0 for stateless modules.
    fn state_size(&self) -> usize {
        0
    }

    /// Approximate heap bytes of that state. Default 0.
    fn state_bytes(&self) -> usize {
        0
    }

    /// Checkpoint export: append one `(group_hash, encoded_bytes)` pair
    /// per state group dirtied since the last
    /// [`EddyModule::clear_dirty`], each carrying the group's *full
    /// current content* (zero tuples = the group was emptied). Must NOT
    /// clear the dirty set — the caller does that only after the delta is
    /// durably committed. Encoding is module-private; the matching
    /// [`EddyModule::import_group`] decodes it. Default: stateless,
    /// nothing to export.
    fn export_dirty_groups(&mut self, _out: &mut Vec<(u64, Vec<u8>)>) -> Result<()> {
        Ok(())
    }

    /// Checkpoint restore: replace the state group keyed by `hash` with
    /// the content encoded in `bytes` (produced by this module type's
    /// [`EddyModule::export_dirty_groups`]). Default errors: a stateless
    /// module receiving a fragment means the restore was misrouted.
    fn import_group(&mut self, _hash: u64, _bytes: &[u8]) -> Result<()> {
        Err(tcq_common::TcqError::Executor(format!(
            "module {} has no checkpointable state to import",
            self.name()
        )))
    }

    /// Number of groups currently dirty (pending export). Default 0.
    fn dirty_len(&self) -> usize {
        0
    }

    /// Mark all state clean — call only after a successful durable commit
    /// of the exported delta. Default: nothing to clear.
    fn clear_dirty(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_constructors() {
        assert!(Routed::pass().keep);
        assert!(Routed::pass().outputs.is_empty());
        assert!(!Routed::drop().keep);
        let r = Routed::consume_into(vec![]);
        assert!(!r.keep && r.outputs.is_empty());
    }

    #[test]
    fn outputs_equality_is_by_sequence_not_representation() {
        use tcq_common::{DataType, Field, Schema, TupleBuilder};
        let s = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        let t = TupleBuilder::new(s).push(1i64).build().unwrap();
        let one = Outputs::One(t.clone());
        let many = Outputs::Many(vec![t.clone()]);
        assert_eq!(one, many);
        assert_ne!(one, Outputs::None);
        assert_eq!(Outputs::None, Outputs::Many(vec![]));
        let mut grown = Outputs::None;
        grown.push(t.clone());
        assert_eq!(grown, one);
        grown.push(t.clone());
        assert_eq!(grown.len(), 2);
        assert_eq!(grown.iter().count(), 2);
        assert_eq!(grown.into_iter().count(), 2);
    }
}
