//! Durability: the checkpoint cut, and the restore that rebuilds a server
//! from it.
//!
//! A checkpoint commits one epoch-delta block to the server's
//! [`tcq_storage::CheckpointStore`]: the state dirtied since the previous
//! cut (SteM groups under `<label>/stem/<module>`, aggregate cores under
//! `q<qid>/agg`), the always-written watermarks (`egress`, `cursor`,
//! `seq`) and the catalog. The catalog is the topology at the cut:
//!
//! * `catalog/stream`, keyed by catalog id (big-endian, so the image
//!   iterates in registration order): the stream's name, kind and schema;
//! * `catalog/query`, keyed by query id (big-endian): the query's SQL and
//!   the checkpoint label of the join it runs in (empty for none). A
//!   stopped query's fragment is empty: a tombstone. Historical queries
//!   complete at submit and are not recorded;
//! * `catalog/next`: the next query id at the cut.
//!
//! Catalog fragments are staged as streams register and queries start or
//! stop, and only when a store is open; staging takes the store lock and
//! no other server lock. [`TelegraphCQ::restore`] reads them back in
//! [`TelegraphCQ::rebuild_from_image`]. Everything else is read where its
//! state starts (a stream's clock, a source's cursor, an aggregate's core,
//! a join's admission cuts), and a join's SteM groups, into core
//! `hash % P`, once every query is back: a fresh server's store starts
//! empty, so every fragment it holds came from the run being restored.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcq_common::{CkptReader, CkptWriter, Result, Schema, SourceKind, StreamDef, TcqError};
use tcq_egress::EgressStats;
use tcq_query::{analyze, parse};
use tcq_storage::{CheckpointRecovery, CheckpointStats};

use crate::control::ANSWER_BOUND;
use crate::exchange::ExchangeGauge;
use crate::join::JoinControl;
use crate::planner::plan_kind;
use crate::plans::{PlanControl, QueryId};
use crate::server::{JoinEntry, QueryRecord, StreamState, TelegraphCQ};

/// Catalog fragments: one per stream or table, keyed by catalog id.
const CATALOG_STREAMS: &str = "catalog/stream";
/// Catalog fragments: one per standing query, keyed by query id.
const CATALOG_QUERIES: &str = "catalog/query";
/// The next query id at the cut.
const CATALOG_NEXT: &str = "catalog/next";

/// One [`TelegraphCQ::checkpoint`] commit, summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The epoch this delta committed as.
    pub epoch: u64,
    /// Fragments in the delta (dirtied state groups, catalog changes and
    /// the always-written cursor/ledger/clock watermarks).
    pub fragments: u64,
    /// Bytes appended to the store (header + payload).
    pub bytes: u64,
}

/// Source kinds by their catalog tag: `SourceKind`'s declaration order,
/// so a kind's tag is `kind as u8`.
const SOURCE_KINDS: [SourceKind; 3] = [
    SourceKind::PushStream,
    SourceKind::PullStream,
    SourceKind::Table,
];

/// A stream fragment: name, kind and schema.
fn decode_stream(bytes: &[u8]) -> Result<(String, SourceKind, Schema)> {
    let mut r = CkptReader::new(bytes);
    let name = r.get_str("stream name")?;
    let tag = r.get_u8("source kind")?;
    let kind = (SOURCE_KINDS.get(tag as usize).copied())
        .ok_or_else(|| TcqError::Storage(format!("unknown source kind {tag}")))?;
    Ok((name, kind, r.get_schema()?))
}

/// A query fragment: id, SQL and join group label; `None` for a tombstone.
fn decode_query(key: &[u8], bytes: &[u8]) -> Result<Option<(QueryId, String, Option<String>)>> {
    let key = key
        .try_into()
        .map_err(|_| TcqError::Storage("query key is not 8 bytes".into()))?;
    if bytes.is_empty() {
        return Ok(None);
    }
    let mut r = CkptReader::new(bytes);
    let sql = r.get_str("query text")?;
    let group = r.get_str("join group label")?;
    let qid = u64::from_be_bytes(key) as QueryId;
    Ok(Some((qid, sql, (!group.is_empty()).then_some(group))))
}

/// Wrap a decode error as a malformed fragment of `component`.
fn malformed(component: &str) -> impl Fn(TcqError) -> TcqError + '_ {
    move |e| TcqError::Storage(format!("malformed checkpoint component '{component}': {e}"))
}

impl TelegraphCQ {
    /// What checkpoint recovery found at boot (`None` when checkpointing
    /// is disabled).
    pub fn checkpoint_recovery(&self) -> Option<CheckpointRecovery> {
        self.ckpt.as_ref().map(|s| s.lock().recovery())
    }

    /// Checkpoint write-path counters (`None` when disabled).
    pub fn checkpoint_stats(&self) -> Option<CheckpointStats> {
        self.ckpt.as_ref().map(|s| s.lock().stats())
    }

    /// A committed checkpoint fragment, cloned out of the store's
    /// latest-wins image (tests, experiments).
    pub fn checkpoint_fragment(&self, component: &str, key: &[u8]) -> Option<Vec<u8>> {
        self.ckpt
            .as_ref()
            .and_then(|s| s.lock().get(component, key).map(<[u8]>::to_vec))
    }

    /// Stage `def`'s catalog fragment (when a store is open).
    pub(crate) fn stage_stream(&self, def: &StreamDef) {
        let Some(store) = &self.ckpt else {
            return;
        };
        let mut w = CkptWriter::new();
        w.put_str(&def.name);
        w.put_u8(def.kind as u8);
        w.put_schema(&def.schema);
        store
            .lock()
            .put(CATALOG_STREAMS, &def.id.to_be_bytes(), w.as_slice());
    }

    /// Stage query `qid`'s catalog fragment (when a store is open): its SQL
    /// and join group label while it runs, a tombstone (`None`) once it
    /// stopped.
    pub(crate) fn stage_query(&self, qid: QueryId, running: Option<(&str, Option<&str>)>) {
        let Some(store) = &self.ckpt else {
            return;
        };
        let mut w = CkptWriter::new();
        if let Some((sql, group)) = running {
            w.put_str(sql);
            w.put_str(group.unwrap_or(""));
        }
        store
            .lock()
            .put(CATALOG_QUERIES, &(qid as u64).to_be_bytes(), w.as_slice());
    }

    /// Rebuild what the image holds: seed the egress ledger, register its
    /// streams in catalog-id order, and start every query running at the
    /// cut under its stored id, in id order, a join under the label the
    /// catalog names. Each start imports its own state from the image; a
    /// join's SteM groups come last, so a group's SteMs filter them by every
    /// restored member's side predicates. Query ids issued afterwards
    /// continue from the stored next id.
    /// A malformed catalog fragment fails with [`TcqError::Storage`] naming
    /// its component.
    pub(crate) fn rebuild_from_image(&self) -> Result<()> {
        let Some(store) = &self.ckpt else {
            return Ok(());
        };
        // Decoded first: registering and starting read the store too.
        let (ledger, streams, queries, next_query) = {
            let store = store.lock();
            let ledger = store.get("egress", b"").map(EgressStats::decode);
            let streams = (store.fragments(CATALOG_STREAMS))
                .map(|(_, bytes)| decode_stream(bytes))
                .collect::<Result<Vec<_>>>()
                .map_err(malformed(CATALOG_STREAMS))?;
            let queries = (store.fragments(CATALOG_QUERIES))
                .map(|(key, bytes)| decode_query(key, bytes))
                .collect::<Result<Vec<_>>>()
                .map_err(malformed(CATALOG_QUERIES))?;
            let next_query = (store
                .get(CATALOG_NEXT, b"")
                .map(|bytes| CkptReader::new(bytes).get_u64("next query id")))
            .transpose()
            .map_err(malformed(CATALOG_NEXT))?;
            (ledger.transpose()?, streams, queries, next_query)
        };
        if let Some(ledger) = ledger {
            // The egress ledger spans the outage: offered/delivered/shed
            // keep counting from the pre-crash totals, so the accounting
            // invariant holds across incarnations.
            self.egress.seed_stats(ledger);
        }
        for (name, kind, schema) in streams {
            self.register_source(&name, schema.into_ref(), kind)?;
        }
        let mut joins: Vec<Arc<JoinEntry>> = Vec::new();
        for (qid, sql, group) in queries.into_iter().flatten() {
            let aq = analyze(&parse(&sql)?, &self.catalog)?;
            let kind = plan_kind(&aq)?;
            let record = self.start_plan(qid, aq, kind, group.as_deref())?;
            if let QueryRecord::Join(entry) = &record {
                if !joins.iter().any(|j| Arc::ptr_eq(j, entry)) {
                    joins.push(Arc::clone(entry));
                }
            }
            // Its entry opens with no subscriber: clients subscribe again
            // by the ids they hold.
            self.egress.set_plan(qid, record);
        }
        for entry in &joins {
            self.import_join_state(entry)?;
        }
        if let Some(next_query) = next_query {
            self.next_query
                .store(next_query as usize, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Import a restored join's SteM groups into its freshly built cores
    /// (components `<label>/stem/<module>`, keyed by group hash), each into
    /// core `hash % P`, on the core's DU ([`JoinControl::Import`]). Empty
    /// fragments are tombstones — the group was exported after emptying —
    /// and are skipped. A core that imported rows stops running its first
    /// query alone, and its DU has routed up to the clocks of its input
    /// streams ([`crate::join::JoinCore::imported`]).
    fn import_join_state(&self, entry: &JoinEntry) -> Result<()> {
        let Some(store) = &self.ckpt else {
            return Ok(());
        };
        let clocks = (entry.subscriptions.iter())
            .map(|(name, _)| Ok(self.stream(name)?.latest_seq.load(Ordering::Acquire)))
            .collect::<Result<Vec<i64>>>()?;
        let mut groups = vec![Vec::new(); entry.cores.len()];
        let store = store.lock();
        let prefix = format!("{}/stem/", entry.label);
        let comps = store.components().filter(|c| c.starts_with(&prefix));
        for comp in comps {
            let module: usize = comp[prefix.len()..].parse().map_err(|_| {
                TcqError::Storage(format!("malformed checkpoint component '{comp}'"))
            })?;
            for (key, value) in store.fragments(comp) {
                if value.is_empty() {
                    continue;
                }
                let hash =
                    u64::from_le_bytes(key.try_into().map_err(|_| {
                        TcqError::Storage(format!("malformed group key in '{comp}'"))
                    })?);
                let p = (hash % groups.len() as u64) as usize;
                groups[p].push((module, hash, value.to_vec()));
            }
        }
        drop(store);
        for (core, groups) in entry.cores.iter().zip(groups) {
            if groups.is_empty() {
                continue;
            }
            let clocks = clocks.clone();
            let import = |reply| JoinControl::Import {
                groups,
                clocks,
                reply,
            };
            // A DU gone already has nothing to restore into.
            core.ask(import)?.transpose()?;
        }
        Ok(())
    }

    /// Take a durable, incremental checkpoint: commit one epoch-delta
    /// block holding the state dirtied since the previous call.
    ///
    /// The cut is exact: the exported state holds every row below each
    /// resume cursor and none above it, so a restore that replays each
    /// source from its cursor folds every row once. It is taken in three
    /// steps. (1) Every source thread's delivery is held
    /// ([`tcq_ingress::Supervisor::hold`]) from here until the commit
    /// lands, and each hold reads its cursor: the tuples that source has
    /// put into its ingress fjord. (2) In-flight tuples are drained, on
    /// exact counts (`drain_ingress`), so operator state covers everything
    /// below the cursors, and no source can add to it. A drain that does
    /// not finish within its bound fails the checkpoint with a storage
    /// error naming the drain: the holds are released and nothing is
    /// staged or committed — a cut that is not exact is never written.
    /// (3) Every DU that owns checkpointable state exports what changed
    /// since its last export, on its own thread, through its control queue
    /// (`PlanControl::Export`, `JoinControl::Export`). All are asked at
    /// once and their answers awaited against one bound, then staged in a
    /// fixed order: streams in catalog-id order, then joins in start
    /// order. A DU clears its dirty bits as it exports, so whatever it
    /// answered is staged even when another DU fails the checkpoint, and a
    /// failed or torn commit (injected or real) keeps the staged delta for
    /// the next one. A DU that has not taken its export on within the
    /// bound fails the checkpoint and never runs that export
    /// ([`crate::control::Reply::answer`]): what it holds stays dirty for
    /// the next checkpoint. A DU that has retired or failed exports
    /// nothing; the image keeps what it last committed for it. The egress
    /// ledger, stream clocks and next query id are staged, and the delta
    /// commits.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let store = self.ckpt.as_ref().ok_or_else(|| {
            TcqError::Storage("checkpointing disabled (set ServerConfig::checkpoint_path)".into())
        })?;
        let supervisors = self.supervisors.lock();
        let held: Vec<_> = supervisors
            .iter()
            .map(|(s, resumable)| (s.name().to_ascii_lowercase(), *resumable, s.hold()))
            .collect();
        let drain = Duration::from_secs(2);
        if !self.drain_ingress(drain) {
            return Err(TcqError::Storage(format!(
                "checkpoint abandoned: the ingress drain did not finish within {drain:?}"
            )));
        }
        // Listed before the store is locked: a join's admission takes the
        // store lock under the joins lock.
        let mut streams: Vec<(String, Arc<StreamState>)> = (self.streams.lock().iter())
            .map(|(name, st)| (name.as_str().to_string(), Arc::clone(st)))
            .collect();
        let joins: Vec<Arc<JoinEntry>> = self.joins.lock().clone();
        let mut store = store.lock();
        store.put("egress", b"", &self.egress.egress_stats().encode());
        for (name, _, delivered) in held.iter().filter(|(_, resumable, _)| *resumable) {
            let mut w = CkptWriter::new();
            w.put_u64(**delivered);
            store.put("cursor", name.as_bytes(), w.as_slice());
        }
        streams.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, st) in &streams {
            let mut w = CkptWriter::new();
            w.put_i64(st.latest_seq.load(Ordering::Acquire));
            store.put("seq", name.as_bytes(), w.as_slice());
        }
        streams.sort_by_key(|(_, st)| st.def.id);
        let aggregates: Vec<_> = (streams.iter())
            .map(|(_, st)| st.plans.request(PlanControl::Export))
            .collect();
        let stems: Vec<_> = (joins.iter())
            .flat_map(|e| {
                e.cores
                    .iter()
                    .map(move |c| (e, c.request(JoinControl::Export)))
            })
            .collect();
        let deadline = Instant::now() + ANSWER_BOUND;
        let mut failed = Ok(());
        for pending in aggregates {
            match pending.wait(deadline) {
                Ok(exported) => (exported.into_iter().flatten())
                    .for_each(|(qid, bytes)| store.put(&format!("q{qid}/agg"), b"", &bytes)),
                Err(e) => failed = Err(e),
            }
        }
        for (entry, pending) in stems {
            match pending.wait(deadline).and_then(Option::transpose) {
                Ok(exported) => {
                    for (module, hash, bytes) in exported.into_iter().flatten() {
                        let component = format!("{}/stem/{module}", entry.label);
                        store.put(&component, &hash.to_le_bytes(), &bytes);
                    }
                }
                Err(e) => failed = Err(e),
            }
        }
        failed?;
        // Read after the export: every query whose state or catalog entry
        // this epoch holds took its id before now.
        let mut w = CkptWriter::new();
        w.put_u64(self.next_query.load(Ordering::Relaxed) as u64);
        store.put(CATALOG_NEXT, b"", w.as_slice());
        let before = store.stats();
        let epoch = store.commit()?;
        let after = store.stats();
        Ok(CheckpointReport {
            epoch,
            fragments: after.fragments_written - before.fragments_written,
            bytes: after.bytes_written - before.bytes_written,
        })
    }

    /// Wait (bounded) until every stream has taken in what it had
    /// admitted when the drain began, and report whether it has. Counts,
    /// and no wait for a quiet moment, so rows pushed while the
    /// drain runs do not hold it: (1) the dispatcher has settled as many
    /// messages as its ingress fjord had admitted (`QueueStats::enqueued`),
    /// each stamped, archived, run through its plans and forwarded — or it
    /// has retired or failed, after which nothing more moves through its
    /// ingress; (2) then every subscriber queue still read has had taken
    /// what was forwarded into it by then, because a join or exchange may
    /// hold a stream's rows after its dispatcher has settled them, or sent
    /// Eof and retired. A join DU builds what it takes before it applies a
    /// control, but a partitioner hands rows on: (3) each partitioner has
    /// ended a run with nothing staged since, so what it took by (2) is in
    /// its partition fjords, and (4) each worker has taken what those held
    /// by then ([`ExchangeGauge`]).
    pub(crate) fn drain_ingress(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let until = |done: &dyn Fn() -> bool| loop {
            if done() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        };
        let admitted: Vec<(Arc<StreamState>, u64)> = (self.streams.lock().values())
            .map(|st| (Arc::clone(st), st.ingress.stats().enqueued))
            .collect();
        let settled = until(&|| {
            (admitted.iter()).all(|(st, n)| st.settled.get().is_none_or(|settled| settled >= *n))
        });
        if !settled {
            return false;
        }
        let forwarded: Vec<_> = (admitted.iter())
            .map(|(st, _)| st.subscribers.forwarded())
            .collect();
        if !until(&|| {
            (admitted.iter().zip(&forwarded)).all(|((st, _), f)| st.subscribers.has_read(f))
        }) {
            return false;
        }
        let exchanges: Vec<Arc<ExchangeGauge>> = (self.joins.lock().iter())
            .filter_map(|entry| entry.exchange.clone())
            .collect();
        let runs: Vec<u64> = exchanges.iter().map(|gauge| gauge.runs()).collect();
        if !until(&|| (exchanges.iter().zip(&runs)).all(|(gauge, &n)| gauge.ran_since(n))) {
            return false;
        }
        let placed: Vec<_> = exchanges.iter().map(|gauge| gauge.placed()).collect();
        until(&|| (exchanges.iter().zip(&placed)).all(|(gauge, placed)| gauge.built(placed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use tcq_storage::CheckpointStore;

    /// A catalog fragment the restore cannot read fails it with a storage
    /// error naming the fragment's component, never a panic: a truncated
    /// fragment, an unknown field type tag, a field count over 4096, and a
    /// truncated query.
    #[test]
    fn a_malformed_catalog_fragment_fails_the_restore() {
        let dir = std::env::temp_dir().join(format!("tcq-catalog-{}", std::process::id()));
        let path = dir.join("server.tcqk");
        std::fs::create_dir_all(&dir).unwrap();
        let stream = |fields: u32, tag: u8| {
            let mut w = CkptWriter::new();
            w.put_str("s");
            w.put_u8(0);
            w.put_u32(fields);
            w.put_str("");
            w.put_str("k");
            w.put_u8(tag);
            w.into_bytes()
        };
        let good = stream(1, 1);
        let mut query = CkptWriter::new();
        query.put_str("SELECT k FROM s");
        let (stream_key, query_key) = (0u32.to_be_bytes(), 1u64.to_be_bytes());
        let cases = [
            (
                CATALOG_STREAMS,
                &stream_key[..],
                good[..good.len() - 1].to_vec(),
                "truncated",
            ),
            (
                CATALOG_STREAMS,
                &stream_key,
                stream(1, 9),
                "unknown field type tag 9",
            ),
            (
                CATALOG_STREAMS,
                &stream_key,
                stream(4097, 1),
                "schema with 4097 fields",
            ),
            (CATALOG_QUERIES, &query_key, query.into_bytes(), "truncated"),
        ];
        for (component, key, bytes, want) in cases {
            // The last put of a key wins: a bad stream replaces the good one.
            let mut store = CheckpointStore::create_with_injector(path.clone(), None).unwrap();
            store.put(CATALOG_STREAMS, &stream_key, &good);
            store.put(component, key, &bytes);
            store.commit().unwrap();
            drop(store);
            let restored = TelegraphCQ::restore(ServerConfig {
                checkpoint_path: Some(path.clone()),
                ..ServerConfig::default()
            });
            match restored {
                Err(TcqError::Storage(m)) => {
                    assert!(m.contains(component) && m.contains(want), "{m}")
                }
                Err(e) => panic!("{component}: {e}"),
                Ok(_) => panic!("{component}: restored from a malformed fragment"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
