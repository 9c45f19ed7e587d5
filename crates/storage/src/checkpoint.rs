//! The durable checkpoint store: epoch-delta blocks of engine state.
//!
//! Crash recovery needs a place to put snapshots of SteM indexes, window
//! partials, egress ledgers, and ingress cursors. A [`CheckpointStore`] is
//! one append-only file of *epoch blocks*, each carrying the fragments
//! dirtied since the previous epoch — checkpoints are incremental, so
//! their cost scales with churn, not total state size.
//!
//! Every block is one [`tcq_common::frame`], the 20-byte header
//! `magic | tag | len | fnv1a-64(tag ‖ len ‖ payload)` shared with archive
//! pages and wire frames, the tag holding the block's fragment count;
//! unlike a page, a block is exactly as long as its payload (an epoch
//! writes exactly what changed). On open the store scans the
//! longest valid *prefix* of blocks — unlike the archive, a mid-file
//! corrupt block stops the scan, because later epochs' deltas are only
//! meaningful on top of earlier ones — and replays fragments latest-wins
//! into an in-memory image. A torn tail block (crash mid-commit) fails
//! its checksum and is discarded: recovery loses at most the epoch being
//! written, never a committed one.
//!
//! Fragments are keyed `(component, key)`, both chosen by the caller
//! (e.g. `"q3/stem/0"` + a group hash). Writing an empty value is a
//! tombstone only by caller convention; the store itself is a plain
//! latest-wins map. Iteration orders are sorted, so two same-seed runs
//! produce byte-identical checkpoint files — determinism artifacts can be
//! diffed directly.
//!
//! Chaos: [`FaultPoint::CheckpointWrite`] is polled once per commit
//! (`Error` fails it softly, keeping the pending delta for retry;
//! `Overflow` makes it a torn write), and [`FaultPoint::CheckpointRead`]
//! once per block on open (`Error` truncates recovery to the prefix).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tcq_common::frame::{self, HEADER_LEN};
use tcq_common::{
    CkptReader, CkptWriter, FaultAction, FaultPoint, Result, SharedInjector, TcqError,
};

/// Sentinel marking a valid checkpoint block ("TCQK").
const BLOCK_MAGIC: u32 = 0x5443_514B;

/// Write-path counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Epochs committed cleanly.
    pub epochs_committed: u64,
    /// Fragments persisted across all committed epochs.
    pub fragments_written: u64,
    /// Payload + header bytes persisted across all committed epochs.
    pub bytes_written: u64,
    /// Commits failed softly by an injected `Error` (delta kept).
    pub commit_faults: u64,
    /// Commits that became torn writes (injected `Overflow`); their
    /// fragments are lost and the delta is kept for retry.
    pub torn_commits: u64,
}

/// What [`CheckpointStore::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointRecovery {
    /// Valid epoch blocks replayed.
    pub epochs_recovered: u64,
    /// Fragments replayed (before latest-wins dedup).
    pub fragments_recovered: u64,
    /// Trailing bytes discarded (torn block or garbage past the prefix).
    pub truncated_bytes: u64,
}

/// A durable, incrementally written store of checkpoint fragments.
pub struct CheckpointStore {
    path: PathBuf,
    file: File,
    /// Last committed epoch (0 = nothing committed yet).
    epoch: u64,
    /// File length of the valid prefix; appends always start here, so a
    /// torn block from an earlier failed commit is overwritten on retry.
    good_len: u64,
    /// Latest-wins image: component → key → value. `BTreeMap` at both
    /// levels so restore iteration (and therefore everything rebuilt from
    /// it) is deterministically ordered.
    latest: BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>>,
    /// Fragments staged for the next commit, in put order.
    pending: Vec<(String, Vec<u8>, Vec<u8>)>,
    stats: CheckpointStats,
    recovery: CheckpointRecovery,
    injector: Option<SharedInjector>,
}

impl CheckpointStore {
    /// Open (or create) the store at `path`, replaying the longest valid
    /// prefix of epoch blocks into the in-memory image.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_injector(path, None)
    }

    /// [`CheckpointStore::open`] with chaos: each block read polls
    /// [`FaultPoint::CheckpointRead`].
    pub fn open_with_injector(
        path: impl AsRef<Path>,
        injector: Option<SharedInjector>,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::options()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        let mut bytes = Vec::with_capacity(file_len as usize);
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let mut latest: BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>> = BTreeMap::new();
        let mut epoch = 0u64;
        let mut recovery = CheckpointRecovery::default();
        let mut offset = 0usize;
        while offset + HEADER_LEN <= bytes.len() {
            if let Some(inj) = &injector {
                if let Some(FaultAction::Error(_)) = inj.poll(FaultPoint::CheckpointRead) {
                    break;
                }
            }
            // A torn tail block and a corrupt one both end the prefix.
            let Ok(Some(block)) = frame::decode(&bytes[offset..], BLOCK_MAGIC, usize::MAX) else {
                break;
            };
            let Ok((block_epoch, fragments)) = decode_block(block.payload, block.tag) else {
                break;
            };
            // Epochs must ascend; a regression means the file was mixed
            // from two incarnations — keep the prefix only.
            if block_epoch <= epoch {
                break;
            }
            epoch = block_epoch;
            recovery.epochs_recovered += 1;
            recovery.fragments_recovered += fragments.len() as u64;
            for (component, key, value) in fragments {
                latest.entry(component).or_default().insert(key, value);
            }
            offset += block.len();
        }
        let good_len = offset as u64;
        recovery.truncated_bytes = file_len - good_len;
        if recovery.truncated_bytes > 0 {
            file.set_len(good_len)?;
        }
        Ok(CheckpointStore {
            path,
            file,
            epoch,
            good_len,
            latest,
            pending: Vec::new(),
            stats: CheckpointStats::default(),
            recovery,
            injector,
        })
    }

    /// Create the store at `path` empty, discarding whatever an earlier
    /// run left there: a store a fresh run writes holds only that run's
    /// epochs, so a later [`CheckpointStore::open`] never replays two runs
    /// as one image.
    pub fn create_with_injector(
        path: impl AsRef<Path>,
        injector: Option<SharedInjector>,
    ) -> Result<Self> {
        File::create(path.as_ref())?;
        Self::open_with_injector(path, injector)
    }

    /// Attach a chaos injector polled at [`FaultPoint::CheckpointWrite`]
    /// on every commit.
    pub fn attach_injector(&mut self, injector: SharedInjector) {
        self.injector = Some(injector);
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Last committed epoch (0 when nothing has been committed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> CheckpointRecovery {
        self.recovery
    }

    /// Write-path counters.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// Bytes of committed state on disk.
    pub fn file_len(&self) -> u64 {
        self.good_len
    }

    /// Fragments currently staged for the next commit.
    pub fn pending_fragments(&self) -> usize {
        self.pending.len()
    }

    /// Stage one fragment for the next commit. Within an epoch the last
    /// put for a `(component, key)` wins.
    pub fn put(&mut self, component: &str, key: &[u8], value: &[u8]) {
        self.pending
            .push((component.to_string(), key.to_vec(), value.to_vec()));
    }

    /// Durably commit the staged delta as the next epoch. Returns the new
    /// epoch number. On failure (injected or real I/O) the staged delta is
    /// kept and carried by the next commit, so upstream state may be marked
    /// clean as soon as it is staged: a later epoch's puts win over it.
    pub fn commit(&mut self) -> Result<u64> {
        let mut torn = false;
        if let Some(inj) = self.injector.clone() {
            match inj.poll(FaultPoint::CheckpointWrite) {
                Some(FaultAction::Error(msg)) => {
                    self.stats.commit_faults += 1;
                    return Err(TcqError::Storage(format!(
                        "injected checkpoint fault: {msg}"
                    )));
                }
                Some(FaultAction::Overflow) => torn = true,
                _ => {}
            }
        }
        let next_epoch = self.epoch + 1;
        let mut payload = CkptWriter::new();
        payload.put_u64(next_epoch);
        for (component, key, value) in &self.pending {
            payload.put_str(component);
            payload.put_bytes(key);
            payload.put_bytes(value);
        }
        let payload = payload.into_bytes();
        let mut block = Vec::new();
        frame::encode(&mut block, BLOCK_MAGIC, self.pending.len() as u32, &payload);

        // Retry-after-torn: always start the block at the valid prefix.
        self.file.set_len(self.good_len)?;
        self.file.seek(SeekFrom::Start(self.good_len))?;
        if torn {
            // Injected torn write: only part of the block reaches disk —
            // the crash model for "power lost mid-commit". Recovery on
            // reopen rejects the block (bad checksum) and keeps the
            // committed prefix.
            let cut = HEADER_LEN + payload.len() / 2;
            self.file.write_all(&block[..cut])?;
            self.file.sync_data()?;
            self.stats.torn_commits += 1;
            return Err(TcqError::Storage("injected torn checkpoint commit".into()));
        }
        self.file.write_all(&block)?;
        self.file.sync_data()?;
        self.good_len += block.len() as u64;
        self.epoch = next_epoch;
        self.stats.epochs_committed += 1;
        self.stats.fragments_written += self.pending.len() as u64;
        self.stats.bytes_written += block.len() as u64;
        for (component, key, value) in self.pending.drain(..) {
            self.latest.entry(component).or_default().insert(key, value);
        }
        Ok(next_epoch)
    }

    /// The latest committed value for `(component, key)`, if any.
    pub fn get(&self, component: &str, key: &[u8]) -> Option<&[u8]> {
        self.latest
            .get(component)
            .and_then(|m| m.get(key))
            .map(|v| v.as_slice())
    }

    /// All committed fragments of one component, sorted by key.
    pub fn fragments(&self, component: &str) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.latest
            .get(component)
            .into_iter()
            .flat_map(|m| m.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
    }

    /// All component names with committed fragments, sorted.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.latest.keys().map(|s| s.as_str())
    }

    /// Total committed fragments in the latest-wins image.
    pub fn len(&self) -> usize {
        self.latest.values().map(|m| m.len()).sum()
    }

    /// True when no fragment has ever been committed (or recovered).
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }
}

/// One decoded fragment: `(component, key, value)`.
type Fragment = (String, Vec<u8>, Vec<u8>);

/// Decode one block payload: `[u64 epoch]` then `n_records` fragments of
/// `[str component][bytes key][bytes value]`.
fn decode_block(payload: &[u8], n_records: u32) -> Result<(u64, Vec<Fragment>)> {
    let mut r = CkptReader::new(payload);
    let epoch = r.get_u64("block epoch")?;
    let mut fragments = Vec::with_capacity(n_records as usize);
    for _ in 0..n_records {
        let component = r.get_str("fragment component")?;
        let key = r.get_bytes("fragment key")?;
        let value = r.get_bytes("fragment value")?;
        fragments.push((component, key, value));
    }
    if !r.is_empty() {
        return Err(TcqError::Storage(
            "checkpoint block has trailing bytes".into(),
        ));
    }
    Ok((epoch, fragments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tcq_common::FaultPlan;

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tcq-ckpt-{tag}-{}-{n}.ckpt", std::process::id()))
    }

    #[test]
    fn commit_reopen_latest_wins() {
        let path = temp_path("roundtrip");
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.put("a/stem", b"k1", b"v1");
            s.put("a/stem", b"k2", b"v2");
            assert_eq!(s.commit().unwrap(), 1);
            s.put("a/stem", b"k1", b"v1b"); // overwritten in epoch 2
            s.put("cursor/s", b"", b"42");
            assert_eq!(s.commit().unwrap(), 2);
        }
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.recovery().epochs_recovered, 2);
        assert_eq!(s.get("a/stem", b"k1"), Some(b"v1b".as_slice()));
        assert_eq!(s.get("a/stem", b"k2"), Some(b"v2".as_slice()));
        assert_eq!(s.get("cursor/s", b""), Some(b"42".as_slice()));
        assert_eq!(s.len(), 3);
        let keys: Vec<&[u8]> = s.fragments("a/stem").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"k1".as_slice(), b"k2".as_slice()]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn create_discards_an_earlier_runs_epochs() {
        let path = temp_path("create");
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.put("c", b"k", b"earlier run");
            s.commit().unwrap();
        }
        let mut s = CheckpointStore::create_with_injector(&path, None).unwrap();
        assert!(s.is_empty());
        assert_eq!((s.epoch(), s.file_len()), (0, 0));
        s.put("d", b"k", b"this run");
        assert_eq!(s.commit().unwrap(), 1);
        drop(s);
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.get("c", b"k"), None);
        assert_eq!(s.get("d", b"k"), Some(b"this run".as_slice()));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_epochs_and_empty_store() {
        let path = temp_path("empty");
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            assert!(s.is_empty());
            assert_eq!(s.commit().unwrap(), 1, "empty epoch commits fine");
        }
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.epoch(), 1);
        assert!(s.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_tail_block_is_discarded_on_open() {
        let path = temp_path("torn");
        let good_len;
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.put("c", b"k", b"committed");
            s.commit().unwrap();
            good_len = s.file_len();
            s.put("c", b"k", b"torn-away");
            s.commit().unwrap();
        }
        // Tear the second block: chop the file mid-block.
        let full = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full - 3)
            .unwrap();
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.epoch(), 1, "torn epoch lost, committed prefix kept");
        assert_eq!(s.get("c", b"k"), Some(b"committed".as_slice()));
        assert!(s.recovery().truncated_bytes > 0);
        assert_eq!(s.file_len(), good_len, "file truncated back to prefix");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_commit_error_keeps_delta_for_retry() {
        let path = temp_path("inj-err");
        let injector = FaultPlan::new(3)
            .at(
                FaultPoint::CheckpointWrite,
                1,
                FaultAction::Error("disk gone".into()),
            )
            .build_shared();
        let mut s = CheckpointStore::open(&path).unwrap();
        s.attach_injector(injector.clone());
        s.put("c", b"k", b"v");
        assert!(s.commit().is_err());
        assert_eq!(s.stats().commit_faults, 1);
        assert_eq!(s.pending_fragments(), 1, "delta kept");
        assert_eq!(s.commit().unwrap(), 1, "retry succeeds");
        assert_eq!(s.get("c", b"k"), Some(b"v".as_slice()));
        assert_eq!(injector.log().len(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_torn_commit_recovers_prefix_and_retries() {
        let path = temp_path("inj-torn");
        let injector = FaultPlan::new(3)
            .at(FaultPoint::CheckpointWrite, 2, FaultAction::Overflow)
            .build_shared();
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.attach_injector(injector);
            s.put("c", b"k", b"epoch1");
            s.commit().unwrap();
            s.put("c", b"k", b"epoch2");
            assert!(s.commit().is_err(), "torn commit reports failure");
            assert_eq!(s.stats().torn_commits, 1);
            // The same live store retries over the torn bytes.
            assert_eq!(s.commit().unwrap(), 2);
            assert_eq!(s.get("c", b"k"), Some(b"epoch2".as_slice()));
        }
        // And the file on disk holds both epochs, cleanly.
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.recovery().truncated_bytes, 0);
        assert_eq!(s.get("c", b"k"), Some(b"epoch2".as_slice()));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_after_torn_commit_keeps_committed_prefix() {
        let path = temp_path("crash-torn");
        let injector = FaultPlan::new(3)
            .at(FaultPoint::CheckpointWrite, 2, FaultAction::Overflow)
            .build_shared();
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.attach_injector(injector);
            s.put("c", b"k", b"epoch1");
            s.commit().unwrap();
            s.put("c", b"k", b"epoch2");
            assert!(s.commit().is_err());
            // Crash here: the store is dropped with a torn tail on disk.
        }
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.get("c", b"k"), Some(b"epoch1".as_slice()));
        assert!(s.recovery().truncated_bytes > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_read_fault_truncates_recovery_to_prefix() {
        let path = temp_path("inj-read");
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            for i in 0..3 {
                s.put("c", b"k", format!("epoch{}", i + 1).as_bytes());
                s.commit().unwrap();
            }
        }
        let injector = FaultPlan::new(3)
            .at(
                FaultPoint::CheckpointRead,
                3,
                FaultAction::Error("bad sector".into()),
            )
            .build_shared();
        let s = CheckpointStore::open_with_injector(&path, Some(injector)).unwrap();
        assert_eq!(s.epoch(), 2, "scan stopped at the unreadable block");
        assert_eq!(s.get("c", b"k"), Some(b"epoch2".as_slice()));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn same_puts_produce_byte_identical_files() {
        let write = |path: &Path| {
            let mut s = CheckpointStore::open(path).unwrap();
            s.put("b/agg", b"", b"partial");
            s.put("a/stem", b"g1", b"t1t2");
            s.commit().unwrap();
            s.put("a/stem", b"g2", b"t3");
            s.commit().unwrap();
        };
        let p1 = temp_path("det1");
        let p2 = temp_path("det2");
        write(&p1);
        write(&p2);
        assert_eq!(
            std::fs::read(&p1).unwrap(),
            std::fs::read(&p2).unwrap(),
            "checkpoint files are deterministic artifacts"
        );
        std::fs::remove_file(p1).ok();
        std::fs::remove_file(p2).ok();
    }

    #[test]
    fn mixed_incarnation_epoch_regression_rejected() {
        // A block whose epoch does not ascend ends the valid prefix.
        let path = temp_path("regress");
        {
            let mut s = CheckpointStore::open(&path).unwrap();
            s.put("c", b"k", b"v1");
            s.commit().unwrap();
        }
        // Append a duplicate of the first block (epoch 1 again).
        let bytes = std::fs::read(&path).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&bytes).unwrap();
        drop(f);
        let s = CheckpointStore::open(&path).unwrap();
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.recovery().epochs_recovered, 1);
        assert!(s.recovery().truncated_bytes > 0);
        std::fs::remove_file(path).ok();
    }
}
