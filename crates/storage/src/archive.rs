//! The stream archive: append-only page-structured history of one stream.
//!
//! A page is one [`tcq_common::frame`] — the 20-byte header
//! `magic | tag | len | fnv1a-64(tag ‖ len ‖ payload)` shared with wire
//! frames and checkpoint blocks, the tag holding the page's record count —
//! zero-padded to the page size. Its payload is the records back to back,
//! each one [`CkptWriter::put_tuple`] (timestamp, `u32` arity, tagged
//! values). The archive's recovery policy: a full page that fails
//! validation is skipped, a trailing partial page is truncated.
//!
//! The write path allocates nothing: [`StreamArchive::append`] encodes
//! each record in place at the end of the open (tail) page's one buffer,
//! and a record that overflows the page moves to the front of that buffer
//! once the records before it seal. A seal frames them into the archive's
//! one page buffer and writes it around the [`BufferPool`], which holds
//! only what [`StreamArchive::scan_window`] reads; recovery and compaction
//! read through the page buffer too. No pool frame goes stale, because an
//! archive id writes each page number at most once: a torn seal still
//! advances `next_page`, `open` resumes past the last full page under a
//! fresh id, and `compact` takes a fresh id. A stream's dispatcher takes
//! the archive's lock once per drained batch and appends under it.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tcq_common::frame::{self, HEADER_LEN};
use tcq_common::{
    CkptReader, CkptWriter, FaultAction, FaultPoint, Result, SchemaRef, SharedInjector, TcqError,
    Tuple,
};

use crate::pool::BufferPool;

/// Sentinel marking a valid archive page ("TCQA").
const PAGE_MAGIC: u32 = 0x5443_5141;

static NEXT_ARCHIVE_ID: AtomicU64 = AtomicU64::new(1);

/// Metadata for one sealed page.
#[derive(Debug, Clone, Copy)]
struct PageMeta {
    /// On-disk page number (sparse when torn pages were skipped).
    page_no: u64,
    min_seq: i64,
    max_seq: i64,
    records: u32,
}

/// Counters for one archive's write path: every appended tuple is either
/// readable (`len()`), lost to an injected torn write (`lost_records`), or
/// was rejected with an error before being accepted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Tuples accepted by `append` (including those later lost to a torn
    /// page seal).
    pub appended: u64,
    /// Pages sealed cleanly.
    pub sealed_pages: u64,
    /// Page seals that became torn writes (injected chaos).
    pub torn_pages: u64,
    /// Records lost inside torn pages: `appended - lost_records` equals
    /// the readable record count.
    pub lost_records: u64,
}

/// What [`StreamArchive::open`] found on disk: the longest valid prefix of
/// pages is kept, corrupt full pages are skipped, and a trailing partial
/// (torn) page is truncated so appends can resume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid pages recovered.
    pub pages_kept: usize,
    /// Full-size pages that failed validation (bad magic, checksum, or
    /// undecodable records) and were skipped.
    pub pages_skipped: usize,
    /// Records readable after recovery.
    pub records_recovered: u64,
    /// Bytes of trailing partial page truncated away.
    pub truncated_bytes: u64,
}

/// What [`StreamArchive::compact`] did: how many on-disk page slots the
/// segment occupied before and after densification, and the file bytes
/// given back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// On-disk page slots before compaction (including holes left by
    /// skipped corrupt pages and torn writes).
    pub pages_before: u64,
    /// On-disk page slots after compaction — equals the live page count.
    pub pages_after: u64,
    /// File bytes reclaimed by the final truncation.
    pub bytes_reclaimed: u64,
}

/// Append-only on-disk history of one stream, windowed-readable.
///
/// Writes go to an in-memory tail page, sealed (written around the shared
/// [`BufferPool`]) when full, so disk writes are strictly sequential.
/// Reads serve window scans: each sealed page records its logical-timestamp
/// range, and [`StreamArchive::scan_window`] touches only overlapping pages.
///
/// Crash safety: every page is one checksummed frame (module docs).
/// [`StreamArchive::open`] rebuilds the page index from disk, skipping any
/// page that fails validation and truncating a torn trailing write, so a
/// crashed server resumes appending where the last *valid* page ended.
pub struct StreamArchive {
    id: u64,
    schema: SchemaRef,
    pool: BufferPool,
    path: PathBuf,
    file: File,
    pages: Vec<PageMeta>,
    /// Next on-disk page number (≥ `pages.len()` when pages were skipped
    /// during recovery or torn by chaos).
    next_page: u64,
    tail: Vec<u8>,
    /// The page buffer seals, recovery and compaction go through.
    page: Vec<u8>,
    tail_records: u32,
    tail_min: i64,
    tail_max: i64,
    total_records: u64,
    stats: ArchiveStats,
    recovery: Option<RecoveryReport>,
    injector: Option<SharedInjector>,
    /// Set by an injected `ArchiveAppend`/`Overflow` fault: the next page
    /// seal writes only a partial page (a torn write).
    torn_pending: bool,
}

impl StreamArchive {
    /// Create (truncating) an archive at `path` for a stream of `schema`.
    pub fn create(path: impl AsRef<Path>, schema: SchemaRef, pool: BufferPool) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::options()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(StreamArchive {
            id: NEXT_ARCHIVE_ID.fetch_add(1, Ordering::Relaxed),
            schema,
            page: vec![0; pool.page_size()],
            pool,
            path,
            file,
            pages: Vec::new(),
            next_page: 0,
            tail: Vec::new(),
            tail_records: 0,
            tail_min: i64::MAX,
            tail_max: i64::MIN,
            total_records: 0,
            stats: ArchiveStats::default(),
            recovery: None,
            injector: None,
            torn_pending: false,
        })
    }

    /// Open an existing archive at `path`, recovering whatever valid pages
    /// it holds (creates an empty one if the file does not exist).
    ///
    /// Recovery invariant: the readable contents after `open` are exactly
    /// the pages whose frame header and checksum validate and whose
    /// records decode against `schema`. Corrupt full-size pages are skipped and counted; a
    /// trailing partial page (a torn write interrupted mid-page) is
    /// truncated so subsequent appends land on a fresh page boundary.
    pub fn open(path: impl AsRef<Path>, schema: SchemaRef, pool: BufferPool) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        // A stale `.tmp` means a compaction crashed before its atomic
        // rename: the segment at `path` is still the complete old one, so
        // the half-built rewrite is garbage to discard.
        std::fs::remove_file(compact_tmp_path(&path)).ok();
        let mut file = File::options()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let page_size = pool.page_size() as u64;
        let file_len = file.metadata()?.len();
        let full_pages = file_len / page_size;
        let id = NEXT_ARCHIVE_ID.fetch_add(1, Ordering::Relaxed);

        let mut page = vec![0; pool.page_size()];
        let mut pages = Vec::new();
        let mut total_records = 0u64;
        let mut skipped = 0usize;
        for page_no in 0..full_pages {
            file.read_exact(&mut page)?;
            match validate_page(&page, &schema) {
                Some((records, min_seq, max_seq)) => {
                    pages.push(PageMeta {
                        page_no,
                        min_seq,
                        max_seq,
                        records,
                    });
                    total_records += records as u64;
                }
                None => skipped += 1,
            }
        }
        let truncated_bytes = file_len - full_pages * page_size;
        if truncated_bytes > 0 {
            file.set_len(full_pages * page_size)?;
        }
        let recovery = RecoveryReport {
            pages_kept: pages.len(),
            pages_skipped: skipped,
            records_recovered: total_records,
            truncated_bytes,
        };
        let sealed = pages.len() as u64;
        Ok(StreamArchive {
            id,
            schema,
            pool,
            path,
            file,
            pages,
            next_page: full_pages,
            tail: Vec::new(),
            page,
            tail_records: 0,
            tail_min: i64::MAX,
            tail_max: i64::MIN,
            total_records,
            stats: ArchiveStats {
                appended: total_records,
                sealed_pages: sealed,
                ..Default::default()
            },
            recovery: Some(recovery),
            injector: None,
            torn_pending: false,
        })
    }

    /// Attach a chaos injector polled at [`FaultPoint::ArchiveAppend`]:
    /// `Error` fails the append softly, `Overflow` turns the next page
    /// seal into a torn write, `Stall { ticks }` sleeps `ticks` ms and
    /// then appends.
    pub fn attach_injector(&mut self, injector: SharedInjector) {
        self.injector = Some(injector);
    }

    /// What recovery found, if this archive was [`StreamArchive::open`]ed.
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Write-path counters.
    pub fn stats(&self) -> ArchiveStats {
        self.stats
    }

    /// The stream schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// File system path of the segment file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one tuple (must carry a logical timestamp; archives are
    /// ordered by it).
    pub fn append(&mut self, tuple: &Tuple) -> Result<()> {
        if let Some(injector) = &self.injector {
            match injector.poll(FaultPoint::ArchiveAppend) {
                Some(FaultAction::Error(msg)) => {
                    return Err(TcqError::Storage(format!("injected archive fault: {msg}")));
                }
                Some(FaultAction::Overflow) => self.torn_pending = true,
                Some(FaultAction::Stall { ticks }) => {
                    std::thread::sleep(std::time::Duration::from_millis(ticks));
                }
                _ => {}
            }
        }
        let seq = tuple
            .timestamp()
            .logical_part()
            .ok_or_else(|| TcqError::Storage("archived tuples need logical timestamps".into()))?;
        // Encode in place at the end of the tail: one buffer for the
        // archive's life, so an append allocates nothing.
        let mark = self.tail.len();
        let mut w = CkptWriter::resume(std::mem::take(&mut self.tail));
        w.put_tuple(tuple);
        self.tail = w.into_bytes();
        let record_len = self.tail.len() - mark;
        let payload_capacity = self.pool.page_size() - HEADER_LEN;
        if record_len > payload_capacity {
            self.tail.truncate(mark);
            return Err(TcqError::Storage(format!(
                "tuple of {record_len} bytes exceeds page payload of {payload_capacity} bytes"
            )));
        }
        if self.tail.len() > payload_capacity {
            // The record overflows the open page: the records before it
            // seal, and it opens the next page.
            if let Err(e) = self.seal(mark) {
                self.tail.truncate(mark);
                return Err(e);
            }
        }
        self.tail_records += 1;
        self.tail_min = self.tail_min.min(seq);
        self.tail_max = self.tail_max.max(seq);
        self.total_records += 1;
        self.stats.appended += 1;
        Ok(())
    }

    fn seal_tail(&mut self) -> Result<()> {
        self.seal(self.tail.len())
    }

    /// Seal the tail's first `len` bytes (its `tail_records` whole
    /// records) as one page; whatever follows them stays as the new tail.
    fn seal(&mut self, len: usize) -> Result<()> {
        if self.tail_records == 0 {
            return Ok(());
        }
        let size = self.pool.page_size();
        self.page.clear();
        let (page, payload) = (&mut self.page, &self.tail[..len]);
        frame::encode(page, PAGE_MAGIC, self.tail_records, payload);
        page.resize(size, 0);
        // Injected torn write: only a prefix reaches disk — the crash
        // model for "power lost mid-write".
        let torn = std::mem::take(&mut self.torn_pending);
        let written = if torn { HEADER_LEN + len / 2 } else { size };
        let page_no = self.next_page;
        self.next_page += 1;
        let offset = page_no * size as u64;
        // Never written before (module docs), so no pool frame holds it.
        debug_assert!(self.file.metadata().map_or(true, |m| m.len() <= offset));
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(&self.page[..written])?;
        if torn {
            // The page gets no index entry (live scans skip it) and its
            // records move from readable to lost; recovery on reopen
            // detects the bad checksum and skips or truncates it.
            self.stats.torn_pages += 1;
            self.stats.lost_records += self.tail_records as u64;
            self.total_records -= self.tail_records as u64;
        } else {
            self.pages.push(PageMeta {
                page_no,
                min_seq: self.tail_min,
                max_seq: self.tail_max,
                records: self.tail_records,
            });
            self.stats.sealed_pages += 1;
        }
        self.tail.drain(..len);
        self.tail_records = 0;
        self.tail_min = i64::MAX;
        self.tail_max = i64::MIN;
        Ok(())
    }

    /// Force the tail page to disk (e.g. before handing the archive to a
    /// historical query).
    pub fn flush(&mut self) -> Result<()> {
        self.seal_tail()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Rewrite the segment densely around dead page slots.
    ///
    /// Recovery ([`StreamArchive::open`]) and injected torn writes leave
    /// holes: page slots on disk that hold corrupt or partial data and are
    /// absent from the index, so the file is larger than its live contents
    /// and page numbering is sparse. `compact` seals the tail, slides every
    /// live page down to the lowest slot (preserving storage order),
    /// truncates the file to exactly `live_pages * page_size`, and
    /// renumbers the index densely.
    ///
    /// Pages are copied around the [`BufferPool`], and the segment is read
    /// back under a **fresh archive id**, so a pool entry keyed by the old
    /// `(id, page_no)` can never alias a slot whose contents moved. Readable
    /// contents are unchanged — only dead bytes are dropped — and a subsequent
    /// [`StreamArchive::open`] sees a hole-free segment
    /// (`pages_skipped == 0`, `truncated_bytes == 0`).
    ///
    /// Crash safety: the dense segment is built in a sibling `.tmp` file,
    /// synced, then swapped in with an atomic rename. A crash at any point
    /// leaves either the complete old segment (rename not reached; `open`
    /// discards the stale `.tmp`) or the complete new one — never a mix.
    /// [`FaultPoint::ArchiveAppend`] is polled once between the rewrite
    /// and the swap, the worst possible crash instant, to let chaos plans
    /// pin exactly that.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        self.seal_tail()?;
        let page_size = self.pool.page_size() as u64;
        let pages_before = self.next_page;
        let tmp = compact_tmp_path(&self.path);
        let mut tmp_file = File::options()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        let new_id = NEXT_ARCHIVE_ID.fetch_add(1, Ordering::Relaxed);
        for meta in &self.pages {
            self.file.seek(SeekFrom::Start(meta.page_no * page_size))?;
            self.file.read_exact(&mut self.page)?;
            tmp_file.write_all(&self.page)?;
        }
        tmp_file.sync_data()?;
        if let Some(injector) = &self.injector {
            if let Some(FaultAction::Error(msg)) = injector.poll(FaultPoint::ArchiveAppend) {
                // Simulated crash between rewrite and swap: the finished
                // `.tmp` stays behind (as after a real crash) and the
                // archive keeps serving the old segment untouched.
                return Err(TcqError::Storage(format!(
                    "injected compaction fault: {msg}"
                )));
            }
        }
        std::fs::rename(&tmp, &self.path)?;
        // The old handle still maps the replaced inode; reopen the path.
        self.file = File::options().read(true).write(true).open(&self.path)?;
        self.file.sync_data()?;
        let live = self.pages.len() as u64;
        self.id = new_id;
        for (slot, meta) in self.pages.iter_mut().enumerate() {
            meta.page_no = slot as u64;
        }
        self.next_page = live;
        Ok(CompactionReport {
            pages_before,
            pages_after: live,
            bytes_reclaimed: pages_before.saturating_sub(live) * page_size,
        })
    }

    /// Total readable tuples (appended minus torn-write losses).
    pub fn len(&self) -> u64 {
        self.total_records
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.total_records == 0
    }

    /// Sealed (valid) pages so far.
    pub fn sealed_pages(&self) -> usize {
        self.pages.len()
    }

    /// Scan the window `[left, right]` (inclusive, logical time), appending
    /// matching tuples to `out` in storage order. Touches only pages whose
    /// range overlaps the window, plus the in-memory tail. Every page read
    /// is re-validated against its frame checksum.
    pub fn scan_window(&mut self, left: i64, right: i64, out: &mut Vec<Tuple>) -> Result<usize> {
        let before = out.len();
        for idx in 0..self.pages.len() {
            let meta = self.pages[idx];
            if meta.max_seq < left || meta.min_seq > right {
                continue;
            }
            let data = self
                .pool
                .read_page(&mut self.file, (self.id, meta.page_no))?;
            let Ok(Some(page)) = frame::decode(&data, PAGE_MAGIC, usize::MAX) else {
                return Err(TcqError::Storage(format!(
                    "page {} corrupt: bad header",
                    meta.page_no
                )));
            };
            if page.tag != meta.records {
                return Err(TcqError::Storage(format!(
                    "page {} corrupt: header says {} records, index says {}",
                    meta.page_no, page.tag, meta.records
                )));
            }
            let mut r = CkptReader::new(page.payload);
            for _ in 0..page.tag {
                let t = r.get_tuple(&self.schema)?;
                let seq = t.timestamp().seq();
                if left <= seq && seq <= right {
                    out.push(t);
                }
            }
        }
        // Tail (unsealed) records.
        if self.tail_records > 0 && self.tail_min <= right && self.tail_max >= left {
            let mut r = CkptReader::new(&self.tail);
            for _ in 0..self.tail_records {
                let t = r.get_tuple(&self.schema)?;
                let seq = t.timestamp().seq();
                if left <= seq && seq <= right {
                    out.push(t);
                }
            }
        }
        Ok(out.len() - before)
    }
}

/// Sibling path where [`StreamArchive::compact`] builds the dense rewrite
/// before atomically renaming it over the segment.
fn compact_tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Full validation for recovery: frame + checksum + every record decodes
/// with a logical timestamp. Returns `(records, min_seq, max_seq)`.
fn validate_page(data: &[u8], schema: &SchemaRef) -> Option<(u32, i64, i64)> {
    let page = frame::decode(data, PAGE_MAGIC, usize::MAX).ok().flatten()?;
    let records = page.tag;
    if records == 0 {
        return None;
    }
    let mut r = CkptReader::new(page.payload);
    let mut min_seq = i64::MAX;
    let mut max_seq = i64::MIN;
    for _ in 0..records {
        let t = r.get_tuple(schema).ok()?;
        let seq = t.timestamp().logical_part()?;
        min_seq = min_seq.min(seq);
        max_seq = max_seq.max(seq);
    }
    Some((records, min_seq, max_seq))
}

impl Drop for StreamArchive {
    fn drop(&mut self) {
        let _ = self.seal_tail();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, FaultPlan, Field, Schema, Timestamp, TupleBuilder, Value};

    fn schema() -> SchemaRef {
        Schema::qualified(
            "s",
            vec![
                Field::new("seq", DataType::Int),
                Field::new("payload", DataType::Str),
            ],
        )
        .into_ref()
    }

    fn tuple(seq: i64) -> Tuple {
        TupleBuilder::new(schema())
            .push(seq)
            .push(format!("payload-{seq}"))
            .at(Timestamp::logical(seq))
            .build()
            .unwrap()
    }

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tcq-archive-{tag}-{}-{n}.seg", std::process::id()))
    }

    #[test]
    fn spool_and_scan_roundtrip() {
        let pool = BufferPool::new(8, 512);
        let path = temp_path("roundtrip");
        let mut a = StreamArchive::create(&path, schema(), pool).unwrap();
        for seq in 1..=500 {
            a.append(&tuple(seq)).unwrap();
        }
        assert_eq!(a.len(), 500);
        assert!(a.sealed_pages() > 1, "should spill to multiple pages");

        let mut out = Vec::new();
        let n = a.scan_window(100, 150, &mut out).unwrap();
        assert_eq!(n, 51);
        let seqs: Vec<i64> = out.iter().map(|t| t.timestamp().seq()).collect();
        assert_eq!(seqs, (100..=150).collect::<Vec<_>>());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_includes_unsealed_tail() {
        let pool = BufferPool::new(8, 4096);
        let path = temp_path("tail");
        let mut a = StreamArchive::create(&path, schema(), pool).unwrap();
        for seq in 1..=10 {
            a.append(&tuple(seq)).unwrap();
        }
        assert_eq!(a.sealed_pages(), 0, "everything still in the tail");
        let mut out = Vec::new();
        assert_eq!(a.scan_window(5, 20, &mut out).unwrap(), 6);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn windowed_scan_skips_unrelated_pages() {
        // Small pool so cold reads are visible; page range pruning means a
        // narrow window reads only 1-2 pages.
        let pool = BufferPool::new(2, 512);
        let path = temp_path("prune");
        let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
        for seq in 1..=2000 {
            a.append(&tuple(seq)).unwrap();
        }
        a.flush().unwrap();
        pool.clear();
        let before = pool.stats().misses;
        let mut out = Vec::new();
        a.scan_window(1000, 1005, &mut out).unwrap();
        assert_eq!(out.len(), 6);
        let touched = pool.stats().misses - before;
        assert!(
            touched <= 2,
            "narrow window should touch at most 2 pages, touched {touched}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn backward_windows_replay_history() {
        // The browsing pattern of §4.1: windows moving backward from now.
        let pool = BufferPool::new(4, 512);
        let path = temp_path("backward");
        let mut a = StreamArchive::create(&path, schema(), pool).unwrap();
        for seq in 1..=100 {
            a.append(&tuple(seq)).unwrap();
        }
        for (l, r) in [(91, 100), (81, 90), (71, 80)] {
            let mut out = Vec::new();
            assert_eq!(a.scan_window(l, r, &mut out).unwrap(), 10);
            assert!(out.iter().all(|t| {
                let s = t.timestamp().seq();
                l <= s && s <= r
            }));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tuple_without_logical_timestamp_rejected() {
        let pool = BufferPool::new(2, 512);
        let path = temp_path("nots");
        let mut a = StreamArchive::create(&path, schema(), pool).unwrap();
        let t = TupleBuilder::new(schema())
            .push(1i64)
            .push("x")
            .at(Timestamp::physical(5))
            .build()
            .unwrap();
        assert!(a.append(&t).is_err());
        std::fs::remove_file(path).ok();
    }

    fn encoded(tuples: &[Tuple]) -> Vec<u8> {
        let mut w = CkptWriter::new();
        tuples.iter().for_each(|t| w.put_tuple(t));
        w.into_bytes()
    }

    #[test]
    fn oversized_tuple_rejected() {
        let pool = BufferPool::new(2, 128);
        let path = temp_path("big");
        let mut a = StreamArchive::create(&path, schema(), pool).unwrap();
        a.append(&tuple(1)).unwrap();
        let big = TupleBuilder::new(schema())
            .push(2i64)
            .push("y".repeat(1000))
            .at(Timestamp::logical(2))
            .build()
            .unwrap();
        assert!(a.append(&big).is_err());
        assert_eq!(a.tail, encoded(&[tuple(1)]), "no byte of it stays");
        a.append(&tuple(3)).unwrap();
        assert_eq!(a.tail, encoded(&[tuple(1), tuple(3)]));
        assert_eq!((a.len(), a.stats().appended), (2, 2));
        std::fs::remove_file(path).ok();
    }

    /// Records encoded in place make the same pages a record-at-a-time
    /// encoder would: each sealed page is the frame of its records'
    /// independent `put_tuple` encodings, packed until the next one would
    /// not fit, and zero-padded.
    #[test]
    fn in_place_appends_write_the_pages_of_independent_encodings() {
        let mixed = Schema::qualified(
            "m",
            vec![
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("s", DataType::Str),
                Field::new("n", DataType::Int),
            ],
        )
        .into_ref();
        let rows: Vec<Tuple> = (1..=60i64)
            .map(|seq| {
                let values = vec![
                    Value::Int(-seq),
                    Value::Float(seq as f64 / 3.0),
                    Value::Str("x".repeat((seq * 7 % 40) as usize).into()),
                    if seq % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int(seq)
                    },
                ];
                Tuple::new(mixed.clone(), values, Timestamp::logical(seq)).unwrap()
            })
            .collect();
        let page_size = 512;
        let pool = BufferPool::new(8, page_size);
        let path = temp_path("bytes");
        let mut a = StreamArchive::create(&path, mixed, pool.clone()).unwrap();
        for t in &rows {
            a.append(t).unwrap();
        }
        assert!(a.sealed_pages() >= 2, "one run of appends sealed pages");
        let capacity = page_size - HEADER_LEN;
        let mut next = 0;
        for meta in a.pages.clone() {
            let n = meta.records as usize;
            let payload = encoded(&rows[next..next + n]);
            assert!(payload.len() + encoded(&rows[next + n..next + n + 1]).len() > capacity);
            let mut want = Vec::new();
            frame::encode(&mut want, PAGE_MAGIC, meta.records, &payload);
            want.resize(page_size, 0);
            let got = pool.read_page(&mut a.file, (a.id, meta.page_no)).unwrap();
            assert_eq!(*got, want, "page {}", meta.page_no);
            next += n;
        }
        assert_eq!(a.tail, encoded(&rows[next..]), "the rest is the tail");
        let mut out = Vec::new();
        a.scan_window(i64::MIN, i64::MAX, &mut out).unwrap();
        assert_eq!(out, rows);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn appends_write_around_the_pool_and_reads_fill_it() {
        let pool = BufferPool::new(8, 512);
        let path = temp_path("write-around");
        let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
        for seq in 1..=500 {
            a.append(&tuple(seq)).unwrap();
        }
        assert!(
            a.sealed_pages() > 8,
            "more pages sealed than the pool holds"
        );
        assert_eq!(
            pool.cached_pages(),
            0,
            "an append-only archive caches nothing"
        );
        let st = pool.stats();
        assert_eq!((st.hits, st.misses, st.evictions), (0, 0, 0));
        // The first read of a sealed page misses and caches it; the second
        // hits.
        let mut out = Vec::new();
        assert_eq!(a.scan_window(1, 5, &mut out).unwrap(), 5);
        assert_eq!((pool.stats().hits, pool.stats().misses), (0, 1));
        assert_eq!(a.scan_window(1, 5, &mut out).unwrap(), 5);
        assert_eq!((pool.stats().hits, pool.stats().misses), (1, 1));
        assert_eq!(pool.cached_pages(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_scan_right_after_a_seal_reads_the_sealed_rows_from_the_file() {
        let pool = BufferPool::new(8, 512);
        let path = temp_path("read-after-seal");
        let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
        let mut seq = 0;
        while a.sealed_pages() == 0 {
            seq += 1;
            a.append(&tuple(seq)).unwrap();
        }
        // Rows 1..seq-1 sealed; row `seq` opened the new tail.
        let sealed = a.pages[0].records as i64;
        assert_eq!(sealed, seq - 1);
        let mut out = Vec::new();
        assert_eq!(a.scan_window(1, sealed, &mut out).unwrap() as i64, sealed);
        assert_eq!(out, (1..=sealed).map(tuple).collect::<Vec<_>>());
        assert_eq!(pool.stats().misses, 1, "read back from the file");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_and_compact_leave_the_pool_empty() {
        let pool = BufferPool::new(4, 512);
        let path = temp_path("cold-restore");
        {
            let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
            for seq in 1..=300 {
                a.append(&tuple(seq)).unwrap();
            }
            a.flush().unwrap();
            assert!(a.sealed_pages() > 4, "more pages than the pool holds");
        }
        {
            // A corrupt page is skipped and not cached either.
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(512 + HEADER_LEN as u64)).unwrap();
            f.write_all(&[0xFF; 32]).unwrap();
        }
        let mut b = StreamArchive::open(&path, schema(), pool.clone()).unwrap();
        assert_eq!(b.recovery().unwrap().pages_skipped, 1);
        assert_eq!(pool.cached_pages(), 0, "recovery reads around the pool");
        let report = b.compact().unwrap();
        assert_eq!(report.pages_before, report.pages_after + 1);
        assert_eq!(pool.cached_pages(), 0, "compaction copies around the pool");
        assert_eq!(pool.stats().misses, 0);
        let mut out = Vec::new();
        let n = b.scan_window(1, 300, &mut out).unwrap() as u64;
        assert_eq!(n, b.recovery().unwrap().records_recovered);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bounded_memory_via_shared_pool() {
        // Many archives share one small pool; total cached pages stays at
        // the pool capacity regardless of data volume.
        let pool = BufferPool::new(4, 512);
        let mut archives = Vec::new();
        let mut paths = Vec::new();
        for i in 0..4 {
            let p = temp_path(&format!("multi{i}"));
            archives.push(StreamArchive::create(&p, schema(), pool.clone()).unwrap());
            paths.push(p);
        }
        for a in &mut archives {
            for seq in 1..=300 {
                a.append(&tuple(seq)).unwrap();
            }
        }
        assert!(pool.cached_pages() <= 4);
        // All archives still readable.
        for a in &mut archives {
            let mut out = Vec::new();
            assert_eq!(a.scan_window(250, 260, &mut out).unwrap(), 11);
        }
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn reopen_roundtrip_scan_agrees() {
        // Satellite: write, drop, open, scan_window agrees.
        let pool = BufferPool::new(8, 512);
        let path = temp_path("reopen");
        {
            let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
            for seq in 1..=500 {
                a.append(&tuple(seq)).unwrap();
            }
            // Drop seals the tail.
        }
        let mut b = StreamArchive::open(&path, schema(), pool).unwrap();
        let rec = b.recovery().unwrap();
        assert_eq!(rec.records_recovered, 500);
        assert_eq!(rec.pages_skipped, 0);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(b.len(), 500);
        let mut out = Vec::new();
        assert_eq!(b.scan_window(100, 150, &mut out).unwrap(), 51);
        let seqs: Vec<i64> = out.iter().map(|t| t.timestamp().seq()).collect();
        assert_eq!(seqs, (100..=150).collect::<Vec<_>>());
        // And appends resume cleanly after reopen.
        for seq in 501..=600 {
            b.append(&tuple(seq)).unwrap();
        }
        out.clear();
        assert_eq!(b.scan_window(495, 505, &mut out).unwrap(), 11);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_tail_page_truncated_on_open() {
        // Simulate a crash mid-write: a partial trailing page on disk.
        let pool = BufferPool::new(8, 512);
        let path = temp_path("torn-tail");
        let full_len;
        {
            let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
            for seq in 1..=300 {
                a.append(&tuple(seq)).unwrap();
            }
            a.flush().unwrap();
            full_len = std::fs::metadata(&path).unwrap().len();
        }
        // Tear the last page: chop the file mid-page.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full_len - 100)
            .unwrap();
        let mut b = StreamArchive::open(&path, schema(), pool).unwrap();
        let rec = b.recovery().unwrap();
        assert!(rec.truncated_bytes > 0, "partial tail page truncated");
        assert!(rec.records_recovered < 300, "tail page records lost");
        assert!(rec.records_recovered > 0, "valid prefix recovered");
        // The recovered prefix is contiguous from seq 1.
        let mut out = Vec::new();
        let n = b.scan_window(1, 300, &mut out).unwrap();
        assert_eq!(n as u64, rec.records_recovered);
        let seqs: Vec<i64> = out.iter().map(|t| t.timestamp().seq()).collect();
        assert_eq!(seqs, (1..=rec.records_recovered as i64).collect::<Vec<_>>());
        // Appends resume on a fresh page boundary.
        b.append(&tuple(1000)).unwrap();
        b.flush().unwrap();
        out.clear();
        assert_eq!(b.scan_window(1000, 1000, &mut out).unwrap(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_page_skipped_on_open() {
        // Flip payload bytes inside an interior page: the checksum catches
        // it, recovery skips that page, and the rest stays readable.
        let pool = BufferPool::new(8, 512);
        let path = temp_path("corrupt");
        {
            let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
            for seq in 1..=300 {
                a.append(&tuple(seq)).unwrap();
            }
            a.flush().unwrap();
        }
        {
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(512 + HEADER_LEN as u64)).unwrap();
            f.write_all(&[0xFF; 32]).unwrap();
        }
        let mut b = StreamArchive::open(&path, schema(), pool).unwrap();
        let rec = b.recovery().unwrap();
        assert_eq!(rec.pages_skipped, 1, "exactly the corrupted page skipped");
        assert!(rec.records_recovered < 300);
        let mut out = Vec::new();
        let n = b.scan_window(1, 300, &mut out).unwrap();
        assert_eq!(n as u64, rec.records_recovered);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_torn_write_is_counted_and_recoverable() {
        // FaultPoint::ArchiveAppend + Overflow: the next seal is torn. The
        // live archive accounts the loss; reopen skips the torn page.
        let pool = BufferPool::new(8, 512);
        let path = temp_path("inj-torn");
        let injector = FaultPlan::new(9)
            .at(FaultPoint::ArchiveAppend, 30, FaultAction::Overflow)
            .build_shared();
        let appended = 300u64;
        let (live_len, live_stats) = {
            let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
            a.attach_injector(injector.clone());
            for seq in 1..=appended as i64 {
                a.append(&tuple(seq)).unwrap();
            }
            a.flush().unwrap();
            (a.len(), a.stats())
        };
        assert_eq!(live_stats.appended, appended);
        assert_eq!(live_stats.torn_pages, 1);
        assert!(live_stats.lost_records > 0);
        assert_eq!(live_len, appended - live_stats.lost_records);
        assert_eq!(injector.log().len(), 1);

        let mut b = StreamArchive::open(&path, schema(), pool).unwrap();
        let rec = b.recovery().unwrap();
        assert_eq!(
            rec.records_recovered, live_len,
            "recovery agrees with the live archive's readable count"
        );
        let mut out = Vec::new();
        assert_eq!(
            b.scan_window(1, appended as i64, &mut out).unwrap() as u64,
            live_len
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_append_error_is_soft() {
        let pool = BufferPool::new(8, 512);
        let path = temp_path("inj-err");
        let injector = FaultPlan::new(9)
            .at(
                FaultPoint::ArchiveAppend,
                5,
                FaultAction::Error("disk hiccup".into()),
            )
            .build_shared();
        let mut a = StreamArchive::create(&path, schema(), pool).unwrap();
        a.attach_injector(injector);
        let mut errors = 0;
        for seq in 1..=20 {
            if a.append(&tuple(seq)).is_err() {
                errors += 1;
            }
        }
        assert_eq!(errors, 1, "exactly the injected append fails");
        assert_eq!(a.len(), 19, "the failed tuple is not archived");
        let mut out = Vec::new();
        assert_eq!(a.scan_window(1, 20, &mut out).unwrap(), 19);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compact_rewrites_recovered_segment_densely() {
        // Corrupt an interior page, recover around it, compact, and reopen:
        // the compacted segment is dense (no skipped pages, no slack bytes)
        // and scans agree before and after at every step.
        let pool = BufferPool::new(8, 512);
        let path = temp_path("compact");
        {
            let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
            for seq in 1..=300 {
                a.append(&tuple(seq)).unwrap();
            }
            a.flush().unwrap();
        }
        {
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(512 + HEADER_LEN as u64)).unwrap();
            f.write_all(&[0xFF; 32]).unwrap();
        }
        let mut b = StreamArchive::open(&path, schema(), pool.clone()).unwrap();
        let rec = b.recovery().unwrap();
        assert_eq!(rec.pages_skipped, 1);
        let mut before = Vec::new();
        b.scan_window(1, 300, &mut before).unwrap();
        assert_eq!(before.len() as u64, rec.records_recovered);

        let report = b.compact().unwrap();
        assert_eq!(report.pages_before, report.pages_after + 1);
        assert_eq!(report.bytes_reclaimed, 512);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            report.pages_after * 512,
            "file truncated to exactly the live pages"
        );
        let mut after = Vec::new();
        b.scan_window(1, 300, &mut after).unwrap();
        assert_eq!(before, after, "compaction preserves readable contents");
        // Appends keep working on the compacted segment.
        b.append(&tuple(1000)).unwrap();
        b.flush().unwrap();
        drop(b);

        let mut c = StreamArchive::open(&path, schema(), pool).unwrap();
        let rec2 = c.recovery().unwrap();
        assert_eq!(rec2.pages_skipped, 0, "reopened segment is hole-free");
        assert_eq!(rec2.truncated_bytes, 0);
        assert_eq!(rec2.records_recovered, rec.records_recovered + 1);
        let mut reopened = Vec::new();
        c.scan_window(1, 300, &mut reopened).unwrap();
        assert_eq!(before, reopened, "reopen-after-compact scan agrees");
        let mut late = Vec::new();
        assert_eq!(c.scan_window(1000, 1000, &mut late).unwrap(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compact_after_a_torn_seal_copies_whole_pages() {
        // The last seal is torn and wrote a prefix of the page buffer;
        // compaction copies through the same buffer, whole pages.
        let pool = BufferPool::new(8, 512);
        let path = temp_path("compact-torn");
        let injector = FaultPlan::new(9)
            .at(FaultPoint::ArchiveAppend, 300, FaultAction::Overflow)
            .build_shared();
        let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
        a.attach_injector(injector);
        for seq in 1..=300 {
            a.append(&tuple(seq)).unwrap();
        }
        a.flush().unwrap();
        assert_eq!(a.stats().torn_pages, 1);
        assert_eq!(a.pages.last().unwrap().page_no + 2, a.next_page);
        let mut before = Vec::new();
        a.scan_window(1, 300, &mut before).unwrap();
        let report = a.compact().unwrap();
        assert_eq!(report.pages_before, report.pages_after + 1);
        let mut after = Vec::new();
        a.scan_window(1, 300, &mut after).unwrap();
        assert_eq!(before, after);
        drop(a);
        let mut b = StreamArchive::open(&path, schema(), pool).unwrap();
        assert_eq!(b.recovery().unwrap().pages_skipped, 0);
        let mut reopened = Vec::new();
        b.scan_window(1, 300, &mut reopened).unwrap();
        assert_eq!(before, reopened);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compact_on_dense_segment_is_a_noop() {
        let pool = BufferPool::new(8, 512);
        let path = temp_path("compact-noop");
        let mut a = StreamArchive::create(&path, schema(), pool).unwrap();
        for seq in 1..=200 {
            a.append(&tuple(seq)).unwrap();
        }
        let report = a.compact().unwrap();
        assert_eq!(report.pages_before, report.pages_after);
        assert_eq!(report.bytes_reclaimed, 0);
        let mut out = Vec::new();
        assert_eq!(a.scan_window(1, 200, &mut out).unwrap(), 200);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_mid_compaction_yields_old_segment_intact() {
        // Satellite: an injected fault between the dense rewrite and the
        // atomic swap must leave the OLD segment fully readable — never a
        // mix — and reopen must discard the half-built `.tmp`.
        let pool = BufferPool::new(8, 512);
        let path = temp_path("compact-crash");
        {
            let mut a = StreamArchive::create(&path, schema(), pool.clone()).unwrap();
            for seq in 1..=300 {
                a.append(&tuple(seq)).unwrap();
            }
            a.flush().unwrap();
        }
        // Corrupt an interior page so compaction has real work to do.
        {
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(512 + HEADER_LEN as u64)).unwrap();
            f.write_all(&[0xFF; 32]).unwrap();
        }
        let mut b = StreamArchive::open(&path, schema(), pool.clone()).unwrap();
        let recovered = b.recovery().unwrap().records_recovered;
        let sparse_len = std::fs::metadata(&path).unwrap().len();
        let mut before = Vec::new();
        b.scan_window(1, 300, &mut before).unwrap();

        let injector = FaultPlan::new(9)
            .at(
                FaultPoint::ArchiveAppend,
                1,
                FaultAction::Error("power cut".into()),
            )
            .build_shared();
        b.attach_injector(injector);
        assert!(b.compact().is_err(), "compaction dies before the swap");
        let tmp = compact_tmp_path(&path);
        assert!(tmp.exists(), "crash leaves the half-built rewrite behind");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            sparse_len,
            "old segment untouched"
        );
        // The live archive keeps serving the old segment.
        let mut still = Vec::new();
        b.scan_window(1, 300, &mut still).unwrap();
        assert_eq!(before, still);
        drop(b);

        // Reopen: the old segment, in full — and the stale tmp is gone.
        let mut c = StreamArchive::open(&path, schema(), pool.clone()).unwrap();
        assert!(!tmp.exists(), "stale .tmp discarded on open");
        assert_eq!(c.recovery().unwrap().records_recovered, recovered);
        let mut reopened = Vec::new();
        c.scan_window(1, 300, &mut reopened).unwrap();
        assert_eq!(before, reopened, "either old or new, never a mix");

        // A retry (no fault) completes and densifies.
        let report = c.compact().unwrap();
        assert_eq!(report.bytes_reclaimed, 512);
        assert!(!tmp.exists(), "successful compaction consumes the tmp");
        drop(c);
        let mut d = StreamArchive::open(&path, schema(), pool).unwrap();
        assert_eq!(d.recovery().unwrap().pages_skipped, 0);
        let mut dense = Vec::new();
        d.scan_window(1, 300, &mut dense).unwrap();
        assert_eq!(before, dense);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_on_missing_file_starts_empty() {
        let pool = BufferPool::new(4, 512);
        let path = temp_path("fresh-open");
        let mut a = StreamArchive::open(&path, schema(), pool).unwrap();
        assert!(a.is_empty());
        assert_eq!(a.recovery().unwrap(), RecoveryReport::default());
        a.append(&tuple(1)).unwrap();
        assert_eq!(a.len(), 1);
        std::fs::remove_file(path).ok();
    }
}
