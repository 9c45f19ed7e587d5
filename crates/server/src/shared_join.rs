//! Server-level shared join processing (CACQ §3.1 at full scope).
//!
//! Join queries with the same *join signature* — same two streams, same
//! equi-join columns, same window width — share **one** [`SharedEddy`]:
//! one pair of SteMs is built and probed once per tuple no matter how many
//! queries stand, per-query selections ride the shared grouped filters,
//! and join outputs are delivered to exactly the queries whose lineage
//! survived ("the tuples accessed by one plan are reused by the other, so
//! there is minimal wasted effort", §2.2).
//!
//! The planner shares a join only where the shared path loses nothing a
//! dedicated `JoinCqDu` would keep: on an unpartitioned server without a
//! checkpoint store (a `SharedEddy` exports no state to checkpoint), and
//! for a for-loop that never ends (a shared DU has no per-query floor or
//! deadline to retire a finite one) — see `planner::shareable_join`.
//!
//! [`SharedJoinDu`] has the engine's one DU skeleton: each side is read
//! through an [`Inbox`] in `io_batch` refills, and a drained batch takes
//! one shared-state lock and one egress session.

use std::collections::HashMap;
use std::sync::Arc;

use tcq_common::sync::Mutex;

use tcq_common::{Expr, Result, SchemaRef};
use tcq_eddy::SharedEddy;
use tcq_egress::EgressRouter;
use tcq_executor::{DispatchUnit, ModuleStatus};
use tcq_fjords::{FjordMessage, Inbox};
use tcq_operators::ProjectOp;

use crate::plans::QueryId;

/// Identifies a shareable join: physical streams, key columns, window.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SharedJoinKey {
    /// Left stream name (lowercase).
    pub left: String,
    /// Left join column index.
    pub left_col: usize,
    /// Right stream name (lowercase).
    pub right: String,
    /// Right join column index.
    pub right_col: usize,
    /// Sliding-window width bounding SteM state (None = unbounded).
    pub window_width: Option<i64>,
}

struct SharedJoinInner {
    eddy: SharedEddy,
    /// Per-query projection over the joined (left, right) schema.
    projections: HashMap<QueryId, ProjectOp>,
}

/// Handle shared between the server (adding/removing queries) and the
/// running [`SharedJoinDu`].
#[derive(Clone)]
pub struct SharedJoinShared {
    inner: Arc<Mutex<SharedJoinInner>>,
    /// The joined output schema (left ++ right, stream-name qualified).
    joined_schema: SchemaRef,
}

impl SharedJoinShared {
    /// Create the shared state for one join signature.
    pub fn new(
        left_schema: SchemaRef,
        left_key: &str,
        right_schema: SchemaRef,
        right_key: &str,
        window_width: Option<i64>,
    ) -> Result<Self> {
        let joined_schema = left_schema.concat(&right_schema).into_ref();
        let eddy =
            SharedEddy::joined(left_schema, left_key, right_schema, right_key, window_width)?;
        Ok(SharedJoinShared {
            inner: Arc::new(Mutex::new(SharedJoinInner {
                eddy,
                projections: HashMap::new(),
            })),
            joined_schema,
        })
    }

    /// Register a query: per-side predicates (stream-name qualified or
    /// bare) and a projection over the joined schema.
    pub fn add_query(
        &self,
        id: QueryId,
        left_pred: Option<&Expr>,
        right_pred: Option<&Expr>,
        projection: &[(Expr, Option<String>)],
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        let project = ProjectOp::new(projection, &self.joined_schema)?;
        inner.eddy.add_join_query(id, left_pred, right_pred)?;
        inner.projections.insert(id, project);
        Ok(())
    }

    /// Remove a query; returns how many remain.
    pub fn remove_query(&self, id: QueryId) -> Result<usize> {
        let mut inner = self.inner.lock();
        inner.eddy.remove_query(id)?;
        inner.projections.remove(&id);
        Ok(inner.eddy.query_count())
    }

    /// Standing queries sharing this join.
    pub fn query_count(&self) -> usize {
        self.inner.lock().eddy.query_count()
    }

    /// Shared SteM state size (tuples).
    pub fn state_size(&self) -> usize {
        self.inner.lock().eddy.state_size()
    }

    /// Shared-eddy counters.
    pub fn stats(&self) -> tcq_eddy::SharedEddyStats {
        self.inner.lock().eddy.stats()
    }

    /// Approximate heap footprint of the shared eddy (query SteMs, probe
    /// scratch, stored join state) in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.inner.lock().eddy.approx_bytes()
    }
}

/// The DU hosting one shared join: two subscription queues in, per-query
/// deliveries out.
pub struct SharedJoinDu {
    name: String,
    /// The left and right subscription queues.
    sides: [Inbox; 2],
    shared: SharedJoinShared,
    egress: EgressRouter,
}

impl SharedJoinDu {
    /// Build the DU.
    pub fn new(
        name: impl Into<String>,
        left: Inbox,
        right: Inbox,
        shared: SharedJoinShared,
        egress: EgressRouter,
    ) -> Self {
        SharedJoinDu {
            name: name.into(),
            sides: [left, right],
            shared,
            egress,
        }
    }
}

impl DispatchUnit for SharedJoinDu {
    fn name(&self) -> &str {
        &self.name
    }

    fn buffered(&self) -> usize {
        self.sides.iter().map(Inbox::buffered).sum()
    }

    fn run(&mut self, quantum: usize) -> Result<ModuleStatus> {
        let mut did_work = false;
        let per_side = quantum.div_ceil(2);
        for (side, inbox) in self.sides.iter_mut().enumerate() {
            let mut budget = per_side;
            while inbox.fill(&mut budget) > 0 {
                did_work = true;
                let mut inner = self.shared.inner.lock();
                let SharedJoinInner { eddy, projections } = &mut *inner;
                let mut session = self.egress.session();
                for msg in inbox.drain() {
                    let FjordMessage::Tuple(t) = msg else {
                        continue;
                    };
                    let outs = if side == 0 {
                        eddy.push_left(t)?
                    } else {
                        eddy.push_right(t)?
                    };
                    for (tuple, qset) in outs {
                        for qid in qset.iter() {
                            if let Some(project) = projections.get(&qid) {
                                let out = project.apply(&tuple)?;
                                session.deliver_rows([qid], std::slice::from_ref(&out));
                            }
                        }
                    }
                }
            }
        }
        Ok(if self.sides.iter().all(Inbox::is_done) {
            ModuleStatus::Done
        } else if did_work {
            ModuleStatus::Ready
        } else {
            ModuleStatus::Idle
        })
    }
}
