//! The simulated shared-nothing cluster running a Flux-partitioned
//! grouped aggregate.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use tcq_common::{
    CkptWriter, FaultAction, FaultPoint, Result, SharedInjector, TcqError, Tuple, Value,
};

/// Configuration for a [`FluxCluster`].
#[derive(Debug, Clone)]
pub struct FluxConfig {
    /// Number of (simulated) machines.
    pub nodes: usize,
    /// Number of hash partitions (≫ nodes, so repartitioning has units to
    /// move; Flux's "fine-grained partitions").
    pub partitions: u32,
    /// Per-node processing speed: tuples per tick. Length must equal
    /// `nodes`; heterogeneity here models slow/overloaded machines.
    pub speeds: Vec<u32>,
    /// Maintain a replica of each partition on a second node (process-pair
    /// fault tolerance). Costs double processing.
    pub replication: bool,
    /// Rebalance check interval in ticks (0 = never — the plain Exchange
    /// baseline).
    pub rebalance_every: u64,
    /// Trigger rebalancing when max/min node backlog exceeds this ratio.
    pub imbalance_threshold: f64,
    /// Ticks of stall a node pays per 64 state entries moved in (the cost
    /// of installing moved state).
    pub move_cost_per_64: u64,
}

impl FluxConfig {
    /// A uniform cluster of `nodes` machines at speed 4, 64 partitions,
    /// no replication, no rebalancing.
    pub fn uniform(nodes: usize) -> Self {
        FluxConfig {
            nodes,
            partitions: 64,
            speeds: vec![4; nodes],
            replication: false,
            rebalance_every: 0,
            imbalance_threshold: 1.5,
            move_cost_per_64: 1,
        }
    }

    /// Enable online repartitioning every `ticks`.
    pub fn with_rebalancing(mut self, ticks: u64) -> Self {
        self.rebalance_every = ticks;
        self
    }

    /// Enable process-pair replication.
    pub fn with_replication(mut self) -> Self {
        self.replication = true;
        self
    }

    /// Override node speeds.
    pub fn with_speeds(mut self, speeds: Vec<u32>) -> Self {
        assert_eq!(speeds.len(), self.nodes);
        self.speeds = speeds;
        self
    }
}

/// Per-key aggregate state: (count, sum).
type GroupState = HashMap<Value, (u64, f64)>;

struct Node {
    alive: bool,
    speed: u32,
    /// Pending (partition, key, value) work items.
    queue: VecDeque<(u32, Value, f64)>,
    /// partition -> group-by state for partitions primary or replica here.
    state: HashMap<u32, GroupState>,
    /// partition -> groups whose state changed on this node since its
    /// snapshot was last updated (feeds incremental checkpoints). An
    /// entry with an empty key set marks "partition membership changed"
    /// (moved away), which the checkpoint resolves against `state`.
    dirty: HashMap<u32, HashSet<Value>>,
    processed: u64,
    /// Remaining stall ticks (state installation cost).
    stall: u64,
}

impl Node {
    fn backlog(&self) -> usize {
        self.queue.len()
    }
}

/// Per-node statistics snapshot.
#[derive(Debug, Clone, Copy)]
pub struct NodeStats {
    /// Is the node alive?
    pub alive: bool,
    /// Tuples processed.
    pub processed: u64,
    /// Current input backlog.
    pub backlog: usize,
    /// Partitions for which this node is primary.
    pub primaries: usize,
}

/// Cluster-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FluxStats {
    /// Simulated ticks elapsed.
    pub ticks: u64,
    /// Tuples ingested.
    pub ingested: u64,
    /// Tuples fully processed (primary copies only).
    pub processed: u64,
    /// Partitions moved by the load balancer.
    pub partitions_moved: u64,
    /// Failovers performed.
    pub failovers: u64,
    /// Tuples lost to failures (non-replicated runs): for each partition
    /// that died without a live replica, its queued inputs plus every
    /// tuple already folded into its state. The cluster's output shortfall
    /// equals this counter exactly.
    pub lost_inflight: u64,
    /// Nodes restarted (rejoined) after a kill.
    pub restarts: u64,
    /// State groups actually shipped to recovering nodes: delta groups on
    /// rejoin plus full-group mirrors when a replica is re-established on
    /// a node with no snapshot of the partition. This replaces the old
    /// stall-tick *modeling* of catch-up — rejoin cost is now the real
    /// moved-group count.
    pub groups_shipped: u64,
    /// Checkpoint-codec bytes of the shipped groups (the wire cost of
    /// recovery).
    pub bytes_shipped: u64,
    /// Tuples dropped at ingest by injected queue overflow.
    pub overflow_dropped: u64,
}

/// What one [`FluxCluster::checkpoint`] pass copied into the per-node
/// durable snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FluxCheckpoint {
    /// The epoch this checkpoint established.
    pub epoch: u64,
    /// Groups copied into snapshots — exactly the groups dirtied since
    /// the previous epoch, so checkpoint cost scales with churn, not
    /// total state size.
    pub groups_copied: u64,
}

/// What one [`FluxCluster::restart_node`] rejoin actually moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejoinReport {
    /// Epoch of the durable snapshot the node restored locally.
    pub snapshot_epoch: u64,
    /// Partitions the node was drafted to serve (as replica) on rejoin.
    pub partitions_rejoined: u64,
    /// Groups shipped from primaries: only those dirtied since
    /// `snapshot_epoch` — rejoin cost is bounded by the delta, not the
    /// node's total state.
    pub groups_shipped: u64,
    /// Checkpoint-codec bytes of those groups.
    pub bytes_shipped: u64,
}

/// Per-node durable snapshot: the node's partition state as of `epoch`.
/// Survives the node's crash (it models state on the node's local disk).
#[derive(Default)]
struct NodeSnapshot {
    epoch: u64,
    state: HashMap<u32, GroupState>,
}

/// Per-partition log of which groups changed in which checkpoint epoch,
/// so a rejoiner restoring a snapshot at epoch E receives exactly the
/// groups dirtied after E.
#[derive(Default)]
struct ShipLog {
    /// `(epoch, groups dirtied in the interval ending at that epoch)`.
    sealed: Vec<(u64, HashSet<Value>)>,
    /// Groups dirtied since the last checkpoint.
    current: HashSet<Value>,
}

impl ShipLog {
    /// Union of groups dirtied after epoch `since`.
    fn keys_since(&self, since: u64) -> HashSet<Value> {
        let mut out: HashSet<Value> = self.current.clone();
        for (epoch, keys) in &self.sealed {
            if *epoch > since {
                out.extend(keys.iter().cloned());
            }
        }
        out
    }
}

/// Checkpoint-codec size of one shipped group (key + count + sum).
fn shipped_group_bytes(key: &Value, entry: Option<(u64, f64)>) -> u64 {
    let mut w = CkptWriter::new();
    w.put_value(key);
    if let Some((c, s)) = entry {
        w.put_u64(c);
        w.put_f64(s);
    }
    w.len() as u64
}

/// The simulated cluster.
pub struct FluxCluster {
    config: FluxConfig,
    nodes: Vec<Node>,
    /// partition -> primary node.
    primary: Vec<usize>,
    /// partition -> replica node (replication mode).
    replica: Vec<Option<usize>>,
    key_col: usize,
    val_col: usize,
    stats: FluxStats,
    /// Monotone checkpoint epoch; 0 = never checkpointed.
    ckpt_epoch: u64,
    /// Per-node durable snapshots (index-aligned with `nodes`).
    snapshots: Vec<NodeSnapshot>,
    /// Per-partition dirty-group log (index-aligned with partitions).
    ship_log: Vec<ShipLog>,
    /// Optional chaos injector polled at tick/ingest/state-move points.
    injector: Option<SharedInjector>,
}

impl FluxCluster {
    /// Build a cluster computing `GROUP BY key_col: COUNT, SUM(val_col)`.
    pub fn new(config: FluxConfig, key_col: usize, val_col: usize) -> Result<Self> {
        if config.nodes == 0 {
            return Err(TcqError::Flux("cluster needs at least one node".into()));
        }
        if config.speeds.len() != config.nodes {
            return Err(TcqError::Flux("speeds.len() must equal nodes".into()));
        }
        if config.partitions == 0 {
            return Err(TcqError::Flux("need at least one partition".into()));
        }
        let nodes: Vec<Node> = config
            .speeds
            .iter()
            .map(|&speed| Node {
                alive: true,
                speed,
                queue: VecDeque::new(),
                state: HashMap::new(),
                dirty: HashMap::new(),
                processed: 0,
                stall: 0,
            })
            .collect();
        let n = config.nodes;
        let primary: Vec<usize> = (0..config.partitions).map(|p| p as usize % n).collect();
        let replica: Vec<Option<usize>> = if config.replication {
            (0..config.partitions)
                .map(|p| {
                    if n > 1 {
                        Some((p as usize + 1) % n)
                    } else {
                        None
                    }
                })
                .collect()
        } else {
            vec![None; config.partitions as usize]
        };
        let n_nodes = config.nodes;
        let n_parts = config.partitions as usize;
        Ok(FluxCluster {
            config,
            nodes,
            primary,
            replica,
            key_col,
            val_col,
            stats: FluxStats::default(),
            ckpt_epoch: 0,
            snapshots: (0..n_nodes).map(|_| NodeSnapshot::default()).collect(),
            ship_log: (0..n_parts).map(|_| ShipLog::default()).collect(),
            injector: None,
        })
    }

    /// Attach a chaos injector. The cluster polls it once per tick
    /// ([`FaultPoint::ClusterTick`]: kills, restarts, stragglers), once per
    /// ingested tuple ([`FaultPoint::Ingest`]: overflow, errors), and once
    /// per state movement with the state in flight
    /// ([`FaultPoint::StateMove`]: kill-during-move).
    pub fn attach_injector(&mut self, injector: SharedInjector) {
        self.injector = Some(injector);
    }

    fn partition_of(&self, key: &Value) -> u32 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.config.partitions as u64) as u32
    }

    /// Route one tuple into the cluster (to the primary's queue, and the
    /// replica's in replication mode).
    ///
    /// Malformed (too-narrow) tuples are rejected with an error rather
    /// than panicking — the exchange must survive garbage from upstream.
    /// Injected overflow drops the tuple and accounts it in
    /// [`FluxStats::overflow_dropped`].
    pub fn ingest(&mut self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() <= self.key_col.max(self.val_col) {
            return Err(TcqError::Flux(format!(
                "malformed tuple: arity {} too small for key column {} / value column {}",
                tuple.arity(),
                self.key_col,
                self.val_col
            )));
        }
        if let Some(inj) = &self.injector {
            match inj.poll(FaultPoint::Ingest) {
                Some(FaultAction::Overflow) => {
                    self.stats.overflow_dropped += 1;
                    return Ok(());
                }
                Some(FaultAction::Error(msg)) => {
                    return Err(TcqError::Flux(format!("injected ingest fault: {msg}")));
                }
                _ => {}
            }
        }
        let key = tuple.value(self.key_col).clone();
        let val = tuple.value(self.val_col).as_float().unwrap_or(0.0);
        let p = self.partition_of(&key);
        self.stats.ingested += 1;
        let primary = self.primary[p as usize];
        if !self.nodes[primary].alive {
            return Err(TcqError::Flux(format!(
                "partition {p} routed to dead node {primary}; failover required"
            )));
        }
        self.nodes[primary].queue.push_back((p, key.clone(), val));
        if let Some(r) = self.replica[p as usize] {
            if self.nodes[r].alive {
                self.nodes[r].queue.push_back((p, key, val));
            }
        }
        Ok(())
    }

    /// Advance simulated time by one tick: every alive node processes up to
    /// its speed; the balancer runs on its schedule.
    pub fn tick(&mut self) {
        self.stats.ticks += 1;
        if let Some(inj) = self.injector.clone() {
            if let Some(action) = inj.poll(FaultPoint::ClusterTick) {
                self.apply_tick_fault(action);
            }
        }
        for i in 0..self.nodes.len() {
            if !self.nodes[i].alive {
                continue;
            }
            if self.nodes[i].stall > 0 {
                self.nodes[i].stall -= 1;
                continue;
            }
            for _ in 0..self.nodes[i].speed {
                let Some((p, key, val)) = self.nodes[i].queue.pop_front() else {
                    break;
                };
                // Both the node's own dirty set (incremental snapshot
                // maintenance) and the partition's ship log (rejoin delta
                // computation) learn about every fold.
                self.ship_log[p as usize].current.insert(key.clone());
                let node = &mut self.nodes[i];
                node.dirty.entry(p).or_default().insert(key.clone());
                let group = node.state.entry(p).or_default();
                let entry = group.entry(key).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += val;
                node.processed += 1;
                if self.primary[p as usize] == i {
                    self.stats.processed += 1;
                }
            }
        }
        if self.config.rebalance_every > 0
            && self.stats.ticks.is_multiple_of(self.config.rebalance_every)
        {
            self.rebalance();
        }
    }

    /// Apply a [`FaultPoint::ClusterTick`] chaos action. Kills and
    /// restarts of already-dead/alive nodes are no-ops, so probabilistic
    /// schedules cannot wedge the simulation.
    fn apply_tick_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::KillNode(n) if n < self.nodes.len() && self.nodes[n].alive => {
                let _ = self.kill_node(n);
            }
            FaultAction::RestartNode(n) if n < self.nodes.len() && !self.nodes[n].alive => {
                let _ = self.restart_node(n);
            }
            FaultAction::Straggler { node, ticks }
                if node < self.nodes.len() && self.nodes[node].alive =>
            {
                self.nodes[node].stall += ticks;
            }
            FaultAction::Stall { ticks } => {
                for node in self.nodes.iter_mut().filter(|n| n.alive) {
                    node.stall += ticks;
                }
            }
            _ => {}
        }
    }

    /// Run ticks until every queue is empty (or `max_ticks` elapse).
    /// Returns ticks consumed.
    pub fn run_until_drained(&mut self, max_ticks: u64) -> u64 {
        let start = self.stats.ticks;
        for _ in 0..max_ticks {
            if self
                .nodes
                .iter()
                .all(|n| !n.alive || (n.queue.is_empty() && n.stall == 0))
            {
                break;
            }
            self.tick();
        }
        self.stats.ticks - start
    }

    /// The state-movement protocol: reassign partition `p` from its current
    /// primary to `dst`. Pending inputs for `p` are drained from the old
    /// queue and replayed to the new one ("buffering and reordering
    /// mechanisms to smoothly repartition operator state", §2.4), state is
    /// extracted and installed, and the destination pays an installation
    /// stall proportional to the state size.
    pub fn move_partition(&mut self, p: u32, dst: usize) -> Result<()> {
        let src = self.primary[p as usize];
        if src == dst {
            return Ok(());
        }
        if !self.nodes[dst].alive {
            return Err(TcqError::Flux(format!(
                "cannot move partition {p} to dead node {dst}"
            )));
        }
        // Pause + drain: pending inputs for p leave the old primary's queue.
        let mut pending = VecDeque::new();
        self.nodes[src].queue.retain(|item| {
            if item.0 == p {
                pending.push_back(item.clone());
                false
            } else {
                true
            }
        });
        let state = self.nodes[src].state.remove(&p).unwrap_or_default();
        // Membership change at src: an empty dirty entry makes the next
        // checkpoint re-resolve the partition against src's state.
        self.nodes[src].dirty.entry(p).or_default();
        if self.replica[p as usize] == Some(dst) {
            // Promoting the replica to primary: dst's state + queued copies
            // already equal src's state + pending (every input was
            // delivered to both), so transferring either would double-count.
            // Re-establish the pair in the opposite direction: src becomes
            // the replica, mirroring dst's current state and its queued
            // inputs for p.
            self.primary[p as usize] = dst;
            self.replica[p as usize] = Some(src);
            let mirror = self.nodes[dst].state.get(&p).cloned().unwrap_or_default();
            let queued: Vec<(u32, Value, f64)> = self.nodes[dst]
                .queue
                .iter()
                .filter(|item| item.0 == p)
                .cloned()
                .collect();
            let src_node = &mut self.nodes[src];
            src_node.stall += (mirror.len() as u64 / 64) * self.config.move_cost_per_64;
            src_node.state.insert(p, mirror);
            for item in queued {
                src_node.queue.push_back(item);
            }
            self.mark_partition_resync(src, p);
        } else {
            // Plain move: state and pending inputs travel to dst. With the
            // state in flight (drained from src, not yet installed), either
            // endpoint may die; the protocol installs at a survivor so the
            // movement itself never loses data.
            let mut kill_after: Option<usize> = None;
            if let Some(inj) = self.injector.clone() {
                match inj.poll(FaultPoint::StateMove) {
                    Some(FaultAction::KillNode(n)) if n < self.nodes.len() => {
                        kill_after = Some(n);
                    }
                    Some(FaultAction::Stall { ticks }) => self.nodes[dst].stall += ticks,
                    _ => {}
                }
            }
            if kill_after == Some(dst) {
                // Destination died mid-move: reinstall at the source and
                // abort; the balancer can retry against a live target.
                let node = &mut self.nodes[src];
                node.state.insert(p, state);
                for item in pending {
                    node.queue.push_back(item);
                }
                if self.nodes[dst].alive {
                    self.kill_node(dst)?;
                }
                return Ok(());
            }
            let entries = state.len() as u64;
            self.nodes[dst].state.insert(p, state);
            self.mark_partition_resync(dst, p);
            self.nodes[dst].stall += (entries / 64) * self.config.move_cost_per_64;
            for item in pending {
                self.nodes[dst].queue.push_back(item);
            }
            self.primary[p as usize] = dst;
            if let Some(k) = kill_after {
                // Source (or a bystander) died after the install landed:
                // the moved partition is already safe at dst; the kill
                // follows the normal failover path for everything else.
                self.stats.partitions_moved += 1;
                if self.nodes[k].alive {
                    self.kill_node(k)?;
                }
                return Ok(());
            }
        }
        self.stats.partitions_moved += 1;
        Ok(())
    }

    /// One load-balancing pass: while the most backlogged node exceeds the
    /// least by the configured ratio, move one of its partitions over.
    pub fn rebalance(&mut self) {
        for _ in 0..4 {
            let alive: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| self.nodes[i].alive)
                .collect();
            if alive.len() < 2 {
                return;
            }
            let (&max_node, &min_node) = match (
                alive.iter().max_by_key(|&&i| self.nodes[i].backlog()),
                alive.iter().min_by_key(|&&i| self.nodes[i].backlog()),
            ) {
                (Some(a), Some(b)) => (a, b),
                _ => return,
            };
            let (hi, lo) = (
                self.nodes[max_node].backlog(),
                self.nodes[min_node].backlog(),
            );
            if hi < 8 || (hi as f64) < (lo.max(1) as f64) * self.config.imbalance_threshold {
                return;
            }
            // Move the max node's most backlogged partition.
            let mut per_partition: HashMap<u32, usize> = HashMap::new();
            for (p, _, _) in &self.nodes[max_node].queue {
                *per_partition.entry(*p).or_default() += 1;
            }
            // Don't move a partition that IS the whole backlog story if it
            // would just swap the hotspot: pick the largest partition whose
            // backlog <= half the gap, else the smallest.
            let gap = hi - lo;
            let mut candidates: Vec<(u32, usize)> = per_partition.into_iter().collect();
            candidates.sort_by_key(|&(p, n)| (std::cmp::Reverse(n), p));
            let pick = candidates
                .iter()
                .find(|&&(_, n)| n <= gap / 2 + 1)
                .or_else(|| candidates.last())
                .copied();
            let Some((p, _)) = pick else { return };
            if self.move_partition(p, min_node).is_err() {
                return;
            }
        }
    }

    /// Kill a node. With replication, every partition it owned fails over
    /// to its replica (and in-flight replica inputs preserve the data);
    /// without, that state and backlog are lost (counted in
    /// [`FluxStats::lost_inflight`]).
    pub fn kill_node(&mut self, node: usize) -> Result<()> {
        if !self.nodes[node].alive {
            return Err(TcqError::Flux(format!("node {node} already dead")));
        }
        self.nodes[node].alive = false;
        // Per-partition accounting of what died with the node: queued
        // inputs plus tuples already folded into its aggregate state.
        // Only partitions with no live replica actually lose them.
        let mut queued: HashMap<u32, u64> = HashMap::new();
        for (p, _, _) in &self.nodes[node].queue {
            *queued.entry(*p).or_default() += 1;
        }
        self.nodes[node].queue.clear();
        // Un-checkpointed changes die with the node; its durable snapshot
        // (and that snapshot's epoch) is what survives.
        self.nodes[node].dirty.clear();
        let dead_state = std::mem::take(&mut self.nodes[node].state);
        let owned: Vec<u32> = (0..self.config.partitions)
            .filter(|&p| self.primary[p as usize] == node)
            .collect();
        for p in owned {
            match self.replica[p as usize] {
                Some(r) if self.nodes[r].alive => {
                    // Promote the replica; its state and queue already hold
                    // everything the primary had seen or would see. Then
                    // re-replicate so the replication factor survives the
                    // failure, not just the data.
                    self.primary[p as usize] = r;
                    self.replica[p as usize] = self.pick_new_replica(r);
                    if let Some(nr) = self.replica[p as usize] {
                        self.mirror_partition(p, r, nr);
                    }
                    self.stats.failovers += 1;
                }
                _ => {
                    // Data loss: no live replica. The partition restarts
                    // empty on a surviving node; its queued inputs and
                    // aggregated tuples are gone and accounted exactly.
                    let absorbed: u64 = dead_state
                        .get(&p)
                        .map(|g| g.values().map(|(c, _)| *c).sum())
                        .unwrap_or(0);
                    self.stats.lost_inflight += queued.get(&p).copied().unwrap_or(0) + absorbed;
                    // The partition's content changed (it was cleared):
                    // every lost group must reach future rejoin deltas.
                    if let Some(g) = dead_state.get(&p) {
                        self.ship_log[p as usize].current.extend(g.keys().cloned());
                    }
                    let fallback = self.pick_new_replica(node);
                    if let Some(f) = fallback {
                        self.primary[p as usize] = f;
                        self.nodes[f].state.entry(p).or_default();
                        self.mark_partition_resync(f, p);
                        if self.config.replication {
                            self.replica[p as usize] = self.pick_new_replica(f);
                            if let Some(nr) = self.replica[p as usize] {
                                self.mirror_partition(p, f, nr);
                            }
                        }
                    }
                }
            }
        }
        // Partitions replicated ON the dead node lose their replica.
        for p in 0..self.config.partitions as usize {
            if self.replica[p] == Some(node) {
                let pr = self.primary[p];
                self.replica[p] = self.pick_new_replica(pr);
                if let Some(nr) = self.replica[p] {
                    self.mirror_partition(p as u32, pr, nr);
                }
            }
        }
        Ok(())
    }

    /// Pick a host for a new replica: the least-loaded live node other
    /// than `not` (backlog plus resident partitions, ties broken by
    /// index so the choice is deterministic). Returns `None` when the
    /// cluster is down to a single live node.
    fn pick_new_replica(&self, not: usize) -> Option<usize> {
        (0..self.nodes.len())
            .filter(|&i| i != not && self.nodes[i].alive)
            .min_by_key(|&i| (self.nodes[i].backlog() + self.nodes[i].state.len(), i))
    }

    /// Take an incremental cluster checkpoint: seal the per-partition
    /// dirty-group logs under a new epoch and fold each alive node's
    /// dirtied groups into its durable snapshot. Cost (groups copied)
    /// scales with churn since the previous checkpoint, not with total
    /// state size.
    pub fn checkpoint(&mut self) -> FluxCheckpoint {
        self.ckpt_epoch += 1;
        for log in &mut self.ship_log {
            let current = std::mem::take(&mut log.current);
            if !current.is_empty() {
                log.sealed.push((self.ckpt_epoch, current));
            }
        }
        let mut groups_copied = 0u64;
        for i in 0..self.nodes.len() {
            if !self.nodes[i].alive {
                continue;
            }
            let dirty = std::mem::take(&mut self.nodes[i].dirty);
            for (p, keys) in dirty {
                match self.nodes[i].state.get(&p) {
                    Some(group) => {
                        let snap = self.snapshots[i].state.entry(p).or_default();
                        for k in keys {
                            match group.get(&k) {
                                Some(&v) => {
                                    snap.insert(k, v);
                                }
                                None => {
                                    snap.remove(&k);
                                }
                            }
                            groups_copied += 1;
                        }
                    }
                    // Partition moved away: it leaves the snapshot too.
                    None => {
                        self.snapshots[i].state.remove(&p);
                    }
                }
            }
            self.snapshots[i].epoch = self.ckpt_epoch;
        }
        // Sealed sets at or before the oldest snapshot epoch can never be
        // requested by a rejoiner; drop them so the log stays bounded.
        let min_epoch = self.snapshots.iter().map(|s| s.epoch).min().unwrap_or(0);
        for log in &mut self.ship_log {
            log.sealed.retain(|(e, _)| *e > min_epoch);
        }
        FluxCheckpoint {
            epoch: self.ckpt_epoch,
            groups_copied,
        }
    }

    /// Restart (rejoin) a previously killed node. The node restores its
    /// durable snapshot locally, then for every degraded partition it is
    /// drafted to serve, the live primary ships only the groups dirtied
    /// since that snapshot's epoch — rejoin traffic is bounded by the
    /// delta, not the node's total state. The shipped volume is returned
    /// and accumulated into [`FluxStats::groups_shipped`] /
    /// [`FluxStats::bytes_shipped`].
    pub fn restart_node(&mut self, node: usize) -> Result<RejoinReport> {
        if node >= self.nodes.len() {
            return Err(TcqError::Flux(format!("no such node {node}")));
        }
        if self.nodes[node].alive {
            return Err(TcqError::Flux(format!("node {node} is already alive")));
        }
        let snapshot_epoch = self.snapshots[node].epoch;
        {
            let n = &mut self.nodes[node];
            n.alive = true;
            n.queue.clear();
            n.stall = 0;
            n.state = self.snapshots[node].state.clone();
            // State now equals the snapshot exactly.
            n.dirty.clear();
        }
        self.stats.restarts += 1;
        let mut report = RejoinReport {
            snapshot_epoch,
            ..RejoinReport::default()
        };
        if self.config.replication {
            for p in 0..self.config.partitions as usize {
                let pr = self.primary[p];
                if !self.nodes[pr].alive || pr == node {
                    continue;
                }
                let degraded = match self.replica[p] {
                    Some(r) => !self.nodes[r].alive,
                    None => true,
                };
                if !degraded {
                    continue;
                }
                self.replica[p] = Some(node);
                // Ship the delta: groups dirtied anywhere in partition p
                // since this node's snapshot epoch, at the primary's
                // current values. Everything else is already correct in
                // the restored snapshot.
                let delta = self.ship_log[p].keys_since(snapshot_epoch);
                let mut bytes = 0u64;
                let primary_group = self.nodes[pr].state.get(&(p as u32)).cloned();
                let group = self.nodes[node].state.entry(p as u32).or_default();
                for k in &delta {
                    let entry = primary_group.as_ref().and_then(|g| g.get(k)).copied();
                    bytes += shipped_group_bytes(k, entry);
                    match entry {
                        Some(v) => {
                            group.insert(k.clone(), v);
                        }
                        None => {
                            group.remove(k);
                        }
                    }
                }
                // Shipped groups are content beyond the snapshot: dirty.
                self.nodes[node]
                    .dirty
                    .entry(p as u32)
                    .or_default()
                    .extend(delta.iter().cloned());
                // Mirror the primary's queued inputs so the pair
                // invariant (replica state + queue ≡ primary state +
                // queue) holds from the first tick.
                let queued: Vec<(u32, Value, f64)> = self.nodes[pr]
                    .queue
                    .iter()
                    .filter(|item| item.0 == p as u32)
                    .cloned()
                    .collect();
                self.nodes[node].queue.extend(queued);
                report.partitions_rejoined += 1;
                report.groups_shipped += delta.len() as u64;
                report.bytes_shipped += bytes;
            }
        }
        // Snapshot partitions the node is not serving again are pruned —
        // the authoritative copies live at the current primaries. The
        // exception is a partition still assigned to this node (it died
        // with no possible fallback): the snapshot resurrects its
        // checkpointed folds, so give those back to the loss accounting
        // that wrote them all off at kill time.
        let mut resurrected = 0u64;
        let mut keep: Vec<u32> = Vec::new();
        for p in 0..self.config.partitions as usize {
            if self.primary[p] == node {
                resurrected += self.nodes[node]
                    .state
                    .get(&(p as u32))
                    .map(|g| g.values().map(|(c, _)| *c).sum())
                    .unwrap_or(0);
                keep.push(p as u32);
            } else if self.replica[p] == Some(node) {
                keep.push(p as u32);
            }
        }
        self.nodes[node]
            .state
            .retain(|p, _| keep.binary_search(p).is_ok());
        self.stats.lost_inflight = self.stats.lost_inflight.saturating_sub(resurrected);
        self.stats.groups_shipped += report.groups_shipped;
        self.stats.bytes_shipped += report.bytes_shipped;
        Ok(report)
    }

    /// True when every partition has a live primary and, in replication
    /// mode with ≥2 live nodes, a live replica distinct from it. The
    /// invariant the recovery paths maintain.
    pub fn fully_replicated(&self) -> bool {
        let live = self.nodes.iter().filter(|n| n.alive).count();
        (0..self.config.partitions as usize).all(|p| {
            let pr = self.primary[p];
            if !self.nodes[pr].alive {
                return false;
            }
            if !self.config.replication || live < 2 {
                return true;
            }
            matches!(self.replica[p], Some(r) if r != pr && self.nodes[r].alive)
        })
    }

    /// Re-establish a replica: copy `from`'s state for `p` AND its queued
    /// inputs to `to`, so the pair invariant (replica state + queue ≡
    /// primary state + queue) holds after the copy. This is a *full*
    /// group ship (the target has no usable snapshot of `p`), counted in
    /// [`FluxStats::groups_shipped`] / [`FluxStats::bytes_shipped`].
    fn mirror_partition(&mut self, p: u32, from: usize, to: usize) {
        let state = self.nodes[from].state.get(&p).cloned().unwrap_or_default();
        let queued: Vec<(u32, Value, f64)> = self.nodes[from]
            .queue
            .iter()
            .filter(|item| item.0 == p)
            .cloned()
            .collect();
        self.stats.groups_shipped += state.len() as u64;
        self.stats.bytes_shipped += state
            .iter()
            .map(|(k, &(c, s))| shipped_group_bytes(k, Some((c, s))))
            .sum::<u64>();
        let dst = &mut self.nodes[to];
        dst.stall += (state.len() as u64 / 64) * self.config.move_cost_per_64;
        dst.state.insert(p, state);
        for item in queued {
            dst.queue.push_back(item);
        }
        self.mark_partition_resync(to, p);
    }

    /// Record that partition `p`'s content at `node` was wholesale
    /// installed or cleared (not incrementally folded): every group the
    /// node's snapshot knew *or* the node now holds must be re-resolved
    /// at the next checkpoint, else the snapshot could keep stale groups.
    fn mark_partition_resync(&mut self, node: usize, p: u32) {
        let mut keys: HashSet<Value> = self.snapshots[node]
            .state
            .get(&p)
            .map(|g| g.keys().cloned().collect())
            .unwrap_or_default();
        if let Some(g) = self.nodes[node].state.get(&p) {
            keys.extend(g.keys().cloned());
        }
        self.nodes[node].dirty.insert(p, keys);
    }

    /// Merged group-by results over primary partitions: key -> (count, sum).
    pub fn results(&self) -> HashMap<Value, (u64, f64)> {
        let mut out: HashMap<Value, (u64, f64)> = HashMap::new();
        for p in 0..self.config.partitions as usize {
            let node = self.primary[p];
            if let Some(groups) = self.nodes[node].state.get(&(p as u32)) {
                for (k, (c, s)) in groups {
                    let e = out.entry(k.clone()).or_insert((0, 0.0));
                    e.0 += c;
                    e.1 += s;
                }
            }
        }
        out
    }

    /// The node currently serving partition `p` as primary.
    pub fn primary_of(&self, p: u32) -> usize {
        self.primary[p as usize]
    }

    /// Number of hash partitions.
    pub fn partitions(&self) -> u32 {
        self.config.partitions
    }

    /// Per-node statistics.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        (0..self.nodes.len())
            .map(|i| NodeStats {
                alive: self.nodes[i].alive,
                processed: self.nodes[i].processed,
                backlog: self.nodes[i].backlog(),
                primaries: self.primary.iter().filter(|&&n| n == i).count(),
            })
            .collect()
    }

    /// Cluster counters.
    pub fn stats(&self) -> FluxStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema, SchemaRef, Timestamp, TupleBuilder};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("key", DataType::Int),
            Field::new("val", DataType::Float),
        ])
        .into_ref()
    }

    fn t(key: i64, val: f64, ts: i64) -> Tuple {
        TupleBuilder::new(schema())
            .push(key)
            .push(val)
            .at(Timestamp::logical(ts))
            .build()
            .unwrap()
    }

    /// Reference group-by for correctness checks.
    fn reference(tuples: &[Tuple]) -> HashMap<Value, (u64, f64)> {
        let mut out: HashMap<Value, (u64, f64)> = HashMap::new();
        for tp in tuples {
            let e = out.entry(tp.value(0).clone()).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += tp.value(1).as_float().unwrap();
        }
        out
    }

    fn workload(n: i64, keys: i64) -> Vec<Tuple> {
        (0..n).map(|i| t(i % keys, 1.0, i)).collect()
    }

    #[test]
    fn partitioned_group_by_matches_reference() {
        let mut cluster = FluxCluster::new(FluxConfig::uniform(4), 0, 1).unwrap();
        let tuples = workload(2000, 37);
        for tp in &tuples {
            cluster.ingest(tp).unwrap();
        }
        cluster.run_until_drained(10_000);
        assert_eq!(cluster.results(), reference(&tuples));
        let st = cluster.stats();
        assert_eq!(st.processed, 2000);
    }

    #[test]
    fn rebalancing_helps_with_heterogeneous_nodes() {
        // One node is 8x slower; without rebalancing it gates the drain.
        let run = |rebalance: u64| {
            let cfg = FluxConfig::uniform(4)
                .with_speeds(vec![1, 8, 8, 8])
                .with_rebalancing(rebalance);
            let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
            let tuples = workload(8000, 101);
            for tp in &tuples {
                cluster.ingest(tp).unwrap();
            }
            let ticks = cluster.run_until_drained(100_000);
            assert_eq!(
                cluster.results(),
                reference(&tuples),
                "answers must survive moves"
            );
            (ticks, cluster.stats().partitions_moved)
        };
        let (ticks_static, moved_static) = run(0);
        let (ticks_flux, moved_flux) = run(8);
        assert_eq!(moved_static, 0);
        assert!(moved_flux > 0, "balancer should move partitions");
        assert!(
            (ticks_flux as f64) < ticks_static as f64 * 0.7,
            "rebalancing should cut drain time: static={ticks_static}, flux={ticks_flux}"
        );
    }

    #[test]
    fn failover_with_replication_loses_nothing() {
        let cfg = FluxConfig::uniform(4).with_replication();
        let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
        let tuples = workload(4000, 53);
        for (i, tp) in tuples.iter().enumerate() {
            cluster.ingest(tp).unwrap();
            if i % 16 == 0 {
                cluster.tick();
            }
            if i == 2000 {
                cluster.kill_node(2).unwrap();
            }
        }
        cluster.run_until_drained(100_000);
        assert_eq!(cluster.results(), reference(&tuples));
        let st = cluster.stats();
        assert!(st.failovers > 0);
        assert_eq!(st.lost_inflight, 0);
        assert!(!cluster.node_stats()[2].alive);
    }

    #[test]
    fn failure_without_replication_loses_data() {
        let mut cluster = FluxCluster::new(FluxConfig::uniform(4), 0, 1).unwrap();
        let tuples = workload(4000, 53);
        for (i, tp) in tuples.iter().enumerate() {
            cluster.ingest(tp).unwrap();
            if i % 16 == 0 {
                cluster.tick();
            }
            if i == 2000 {
                cluster.kill_node(2).unwrap();
            }
        }
        cluster.run_until_drained(100_000);
        let got = cluster.results();
        let want = reference(&tuples);
        let got_total: u64 = got.values().map(|(c, _)| c).sum();
        let want_total: u64 = want.values().map(|(c, _)| c).sum();
        assert!(
            got_total < want_total,
            "without replicas a failure must lose tuples ({got_total} vs {want_total})"
        );
    }

    #[test]
    fn ingest_after_failover_keeps_working() {
        let cfg = FluxConfig::uniform(3).with_replication();
        let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
        for i in 0..100 {
            cluster.ingest(&t(i % 7, 1.0, i)).unwrap();
        }
        cluster.kill_node(0).unwrap();
        // All partitions now primary on 1 or 2; ingestion continues.
        for i in 100..200 {
            cluster.ingest(&t(i % 7, 1.0, i)).unwrap();
        }
        cluster.run_until_drained(10_000);
        let total: u64 = cluster.results().values().map(|(c, _)| c).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn explicit_partition_move_preserves_pending_work() {
        let mut cluster = FluxCluster::new(FluxConfig::uniform(2), 0, 1).unwrap();
        let tuples = workload(100, 5);
        for tp in &tuples {
            cluster.ingest(tp).unwrap();
        }
        // Move every partition to node 1 before processing anything.
        for p in 0..64 {
            cluster.move_partition(p, 1).unwrap();
        }
        cluster.run_until_drained(10_000);
        assert_eq!(cluster.results(), reference(&tuples));
        assert_eq!(cluster.node_stats()[0].processed, 0);
        assert_eq!(cluster.node_stats()[1].processed, 100);
    }

    #[test]
    fn config_validation() {
        assert!(FluxCluster::new(
            FluxConfig {
                nodes: 0,
                ..FluxConfig::uniform(1)
            },
            0,
            1
        )
        .is_err());
        let mut bad = FluxConfig::uniform(2);
        bad.partitions = 0;
        assert!(FluxCluster::new(bad, 0, 1).is_err());
        let mut mismatched = FluxConfig::uniform(2);
        mismatched.speeds = vec![1];
        assert!(FluxCluster::new(mismatched, 0, 1).is_err());
    }

    #[test]
    fn kill_dead_node_rejected() {
        let mut cluster =
            FluxCluster::new(FluxConfig::uniform(2).with_replication(), 0, 1).unwrap();
        cluster.kill_node(0).unwrap();
        assert!(cluster.kill_node(0).is_err());
    }

    #[test]
    fn replication_factor_restored_after_any_single_kill() {
        for victim in 0..4 {
            let cfg = FluxConfig::uniform(4).with_replication();
            let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
            for tp in workload(500, 23) {
                cluster.ingest(&tp).unwrap();
            }
            assert!(cluster.fully_replicated());
            cluster.kill_node(victim).unwrap();
            assert!(
                cluster.fully_replicated(),
                "after killing node {victim} every partition must regain a live replica"
            );
        }
    }

    #[test]
    fn double_fault_primary_then_promoted_replica_loses_nothing() {
        // Kill a primary, then kill the node its replicas were promoted
        // onto. Because failover immediately re-replicates, the second
        // fault still finds a live copy of everything.
        let cfg = FluxConfig::uniform(4).with_replication();
        let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
        let tuples = workload(3000, 41);
        for (i, tp) in tuples.iter().enumerate() {
            cluster.ingest(tp).unwrap();
            if i % 16 == 0 {
                cluster.tick();
            }
            if i == 1000 {
                cluster.kill_node(1).unwrap();
            }
            if i == 2000 {
                // Node 1's partitions were promoted to node 2 (its paired
                // replica in the initial (p+1)%n layout); kill that too.
                cluster.kill_node(2).unwrap();
            }
        }
        cluster.run_until_drained(100_000);
        assert_eq!(cluster.results(), reference(&tuples));
        let st = cluster.stats();
        assert_eq!(st.lost_inflight, 0, "double fault must not lose data");
        assert!(cluster.fully_replicated());
    }

    #[test]
    fn kill_down_to_one_node_keeps_answers() {
        // Sequential kills down to a single survivor: each failover finds
        // a live replica, so the lone node ends up holding everything.
        let cfg = FluxConfig::uniform(3).with_replication();
        let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
        let tuples = workload(1500, 29);
        for (i, tp) in tuples.iter().enumerate() {
            cluster.ingest(tp).unwrap();
            if i % 8 == 0 {
                cluster.tick();
            }
            if i == 500 {
                cluster.kill_node(0).unwrap();
            }
            if i == 1000 {
                cluster.kill_node(1).unwrap();
            }
        }
        cluster.run_until_drained(100_000);
        assert_eq!(cluster.results(), reference(&tuples));
        assert_eq!(cluster.stats().lost_inflight, 0);
        // pick_new_replica has nowhere to go: replicas are gone, primaries
        // all on the survivor.
        let stats = cluster.node_stats();
        assert!(!stats[0].alive && !stats[1].alive && stats[2].alive);
        assert_eq!(stats[2].primaries, 64);
    }

    #[test]
    fn loss_without_replication_equals_lost_inflight_exactly() {
        let mut cluster = FluxCluster::new(FluxConfig::uniform(4), 0, 1).unwrap();
        let tuples = workload(4000, 53);
        for (i, tp) in tuples.iter().enumerate() {
            cluster.ingest(tp).unwrap();
            if i % 16 == 0 {
                cluster.tick();
            }
            if i == 2000 {
                cluster.kill_node(2).unwrap();
            }
        }
        cluster.run_until_drained(100_000);
        let got_total: u64 = cluster.results().values().map(|(c, _)| c).sum();
        let st = cluster.stats();
        assert!(st.lost_inflight > 0);
        assert_eq!(
            got_total + st.lost_inflight,
            4000,
            "output shortfall must equal the accounted loss"
        );
    }

    #[test]
    fn restart_node_rejoins_as_replica_and_serves_after_next_failover() {
        let cfg = FluxConfig::uniform(3).with_replication();
        let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
        let tuples = workload(3000, 31);
        for (i, tp) in tuples.iter().enumerate() {
            cluster.ingest(tp).unwrap();
            if i % 8 == 0 {
                cluster.tick();
            }
            if i == 500 {
                cluster.kill_node(0).unwrap();
            }
            if i == 1500 {
                cluster.restart_node(0).unwrap();
            }
            if i == 2500 {
                // The restarted node is a replica again; killing another
                // node must promote onto it without loss.
                cluster.kill_node(1).unwrap();
            }
        }
        cluster.run_until_drained(100_000);
        assert_eq!(cluster.results(), reference(&tuples));
        let st = cluster.stats();
        assert_eq!(st.restarts, 1);
        assert_eq!(st.lost_inflight, 0);
        assert!(cluster.fully_replicated());
        assert!(cluster.node_stats()[0].alive);
        // Restarting an alive node is rejected.
        assert!(cluster.restart_node(0).is_err());
    }

    #[test]
    fn rejoin_ships_delta_not_total_state() {
        // Two nodes: while one is down there is no spare to re-replicate
        // onto, so every partition stays degraded until the node rejoins.
        // With a pre-kill checkpoint the rejoin ships only the groups
        // dirtied since the snapshot epoch; without one it ships the full
        // state. Either way the answers survive.
        let run = |with_checkpoint: bool| {
            let mut cfg = FluxConfig::uniform(2).with_replication();
            cfg.partitions = 8;
            let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
            let bulk = workload(4000, 2000);
            for (i, tp) in bulk.iter().enumerate() {
                cluster.ingest(tp).unwrap();
                if i % 8 == 0 {
                    cluster.tick();
                }
            }
            cluster.run_until_drained(100_000);
            if with_checkpoint {
                let ck = cluster.checkpoint();
                assert_eq!(ck.epoch, 1);
                assert!(ck.groups_copied > 0);
            }
            cluster.kill_node(0).unwrap();
            // Churn after the checkpoint touches only keys 0..100.
            let churn: Vec<Tuple> = (0..300).map(|i| t(i % 100, 1.0, 5000 + i)).collect();
            for (i, tp) in churn.iter().enumerate() {
                cluster.ingest(tp).unwrap();
                if i % 8 == 0 {
                    cluster.tick();
                }
            }
            cluster.run_until_drained(100_000);
            let report = cluster.restart_node(0).unwrap();
            cluster.run_until_drained(100_000);
            let mut all = bulk.clone();
            all.extend(churn);
            assert_eq!(cluster.results(), reference(&all));
            assert!(cluster.fully_replicated());
            assert_eq!(cluster.stats().lost_inflight, 0);
            report
        };
        let full = run(false);
        let delta = run(true);
        assert_eq!(full.snapshot_epoch, 0);
        assert_eq!(delta.snapshot_epoch, 1);
        assert_eq!(full.partitions_rejoined, 8);
        assert_eq!(
            full.groups_shipped, 2000,
            "no snapshot: every group travels"
        );
        assert_eq!(
            delta.groups_shipped, 100,
            "snapshot: only churned groups travel"
        );
        assert!(delta.bytes_shipped > 0 && delta.bytes_shipped < full.bytes_shipped);
    }

    #[test]
    fn double_restart_stats_accounting_is_exact() {
        // Repeated kill/restart cycles of the same node: shipping stats
        // must equal the sum of the per-rejoin reports (a two-node
        // cluster has no spare to mirror onto, so rejoins are the only
        // shipping), each restart counts once, a rejected restart counts
        // zero, and no data is lost.
        fn feed(cluster: &mut FluxCluster, tuples: &[Tuple]) {
            for (i, tp) in tuples.iter().enumerate() {
                cluster.ingest(tp).unwrap();
                if i % 8 == 0 {
                    cluster.tick();
                }
            }
            cluster.run_until_drained(100_000);
        }
        let mut cfg = FluxConfig::uniform(2).with_replication();
        cfg.partitions = 8;
        let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
        let mut all: Vec<Tuple> = Vec::new();

        let bulk = workload(1000, 500);
        feed(&mut cluster, &bulk);
        all.extend(bulk);
        cluster.checkpoint();
        cluster.kill_node(0).unwrap();
        let churn_a: Vec<Tuple> = (0..150).map(|i| t(i % 50, 1.0, 2000 + i)).collect();
        feed(&mut cluster, &churn_a);
        all.extend(churn_a);
        let r1 = cluster.restart_node(0).unwrap();
        assert_eq!(r1.snapshot_epoch, 1);
        assert_eq!(r1.groups_shipped, 50);

        cluster.checkpoint();
        cluster.kill_node(0).unwrap();
        let churn_b: Vec<Tuple> = (0..90).map(|i| t(500 + i % 30, 1.0, 3000 + i)).collect();
        feed(&mut cluster, &churn_b);
        all.extend(churn_b);
        let r2 = cluster.restart_node(0).unwrap();
        assert_eq!(r2.snapshot_epoch, 2);
        assert_eq!(
            r2.groups_shipped, 30,
            "second rejoin ships its own delta only"
        );

        cluster.run_until_drained(100_000);
        let st = cluster.stats();
        assert_eq!(st.restarts, 2);
        assert_eq!(st.groups_shipped, r1.groups_shipped + r2.groups_shipped);
        assert_eq!(st.bytes_shipped, r1.bytes_shipped + r2.bytes_shipped);
        assert_eq!(st.lost_inflight, 0);
        assert_eq!(cluster.results(), reference(&all));
        assert!(cluster.fully_replicated());
        assert!(cluster.restart_node(0).is_err());
        assert_eq!(
            cluster.stats().restarts,
            2,
            "a rejected restart must not drift the counter"
        );
    }

    #[test]
    fn kill_during_move_with_state_in_flight_is_lossless() {
        use tcq_common::{FaultAction, FaultPlan, FaultPoint};
        // Destination dies with the state in flight: the move aborts and
        // reinstalls at the source.
        let mut cluster =
            FluxCluster::new(FluxConfig::uniform(3).with_replication(), 0, 1).unwrap();
        let tuples = workload(600, 19);
        for tp in &tuples {
            cluster.ingest(tp).unwrap();
        }
        cluster.attach_injector(
            FaultPlan::new(11)
                .at(FaultPoint::StateMove, 1, FaultAction::KillNode(2))
                .build_shared(),
        );
        // Find a partition owned by node 0 and push it toward node 2.
        let p = (0..64u32).find(|&p| cluster.primary_of(p) == 0).unwrap();
        cluster.move_partition(p, 2).unwrap();
        assert!(!cluster.node_stats()[2].alive, "injected kill must land");
        cluster.run_until_drained(100_000);
        assert_eq!(cluster.results(), reference(&tuples));
        assert_eq!(cluster.stats().lost_inflight, 0);

        // Source dies mid-move: the state already travelled, dst serves it.
        let mut cluster =
            FluxCluster::new(FluxConfig::uniform(3).with_replication(), 0, 1).unwrap();
        for tp in &tuples {
            cluster.ingest(tp).unwrap();
        }
        cluster.attach_injector(
            FaultPlan::new(12)
                .at(FaultPoint::StateMove, 1, FaultAction::KillNode(0))
                .build_shared(),
        );
        let p = (0..64u32).find(|&p| cluster.primary_of(p) == 0).unwrap();
        cluster.move_partition(p, 2).unwrap();
        assert!(!cluster.node_stats()[0].alive);
        assert_eq!(
            cluster.primary_of(p),
            2,
            "install must land before the kill"
        );
        cluster.run_until_drained(100_000);
        assert_eq!(cluster.results(), reference(&tuples));
        assert_eq!(cluster.stats().lost_inflight, 0);
    }

    #[test]
    fn rebalance_survives_state_move_fault_in_same_tick() {
        use tcq_common::{FaultAction, FaultPlan, FaultPoint};
        // The balancer itself triggers the faulted move: a slow node builds
        // backlog, tick() fires rebalance(), rebalance() calls
        // move_partition(), and the injected StateMove kill lands inside
        // that same tick with the state in flight. The pass must neither
        // lose data nor wedge: remaining moves in the pass see the updated
        // alive set, failover promotes replicas, and the drained answers
        // still match the reference.
        let cfg = FluxConfig::uniform(3)
            .with_speeds(vec![1, 8, 8])
            .with_rebalancing(8)
            .with_replication();
        let mut cluster = FluxCluster::new(cfg, 0, 1).unwrap();
        let injector = FaultPlan::new(17)
            .at(FaultPoint::StateMove, 1, FaultAction::KillNode(2))
            .build_shared();
        cluster.attach_injector(injector.clone());
        let tuples = workload(6000, 101);
        for tp in &tuples {
            cluster.ingest(tp).unwrap();
        }
        cluster.run_until_drained(100_000);
        assert_eq!(
            injector.log().len(),
            1,
            "the StateMove fault must fire during a balancer-driven move"
        );
        assert!(!cluster.node_stats()[2].alive, "injected kill must land");
        let st = cluster.stats();
        assert!(st.partitions_moved > 0, "balancer did move partitions");
        assert!(st.failovers > 0, "the kill forced failovers");
        assert_eq!(st.lost_inflight, 0, "replicated move+kill is lossless");
        assert_eq!(cluster.results(), reference(&tuples));
        assert!(
            cluster.fully_replicated(),
            "replication factor restored on the two survivors"
        );
    }

    #[test]
    fn injected_overflow_and_malformed_tuples_are_accounted() {
        use tcq_common::{FaultAction, FaultPlan, FaultPoint};
        let mut cluster = FluxCluster::new(FluxConfig::uniform(2), 0, 1).unwrap();
        cluster.attach_injector(
            FaultPlan::new(5)
                .at(FaultPoint::Ingest, 3, FaultAction::Overflow)
                .at(
                    FaultPoint::Ingest,
                    7,
                    FaultAction::Error("queue wedged".into()),
                )
                .build_shared(),
        );
        let mut accepted = 0u64;
        let mut errors = 0u64;
        for i in 0..10 {
            match cluster.ingest(&t(i % 3, 1.0, i)) {
                Ok(()) => accepted += 1,
                Err(_) => errors += 1,
            }
        }
        // Poll 3 dropped (counted, Ok), poll 7 errored.
        assert_eq!(errors, 1);
        assert_eq!(accepted, 9);
        assert_eq!(cluster.stats().overflow_dropped, 1);
        cluster.run_until_drained(10_000);
        let total: u64 = cluster.results().values().map(|(c, _)| c).sum();
        assert_eq!(total + cluster.stats().overflow_dropped + errors, 10);

        // Malformed (narrow) tuple rejected without panicking.
        let narrow = Schema::new(vec![Field::new("only", DataType::Int)]).into_ref();
        let bad = TupleBuilder::new(narrow)
            .push(1i64)
            .at(Timestamp::logical(1))
            .build()
            .unwrap();
        assert!(cluster.ingest(&bad).is_err());
    }
}
