//! A shared buffer pool with CLOCK eviction.
//!
//! The paper (§4.3): "The buffer pool manager must be tuned to both accept
//! new bursty streaming data, as well as service queries that access
//! historical data." New data is written around the pool; the pool holds
//! what reads bring in, so a burst of appends evicts nothing that
//! historical queries read. The first read of a just-sealed page is thus a
//! miss served from the file (the OS page cache). The pool bounds the
//! cache across all streams and evicts with a second-chance (CLOCK) policy;
//! an evicted page no reader holds leaves its buffer to the next miss, so a
//! full pool reads without allocating.

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

use tcq_common::sync::Mutex;

use tcq_common::Result;

/// Identifies a page: (archive id, page number).
pub type PageKey = (u64, u64);

/// Pool statistics for the storage experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Page reads served from memory.
    pub hits: u64,
    /// Page reads that went to disk.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
}

struct Frame {
    key: PageKey,
    data: Arc<Vec<u8>>,
    referenced: bool,
}

struct PoolInner {
    capacity: usize,
    frames: Vec<Frame>,
    by_key: HashMap<PageKey, usize>,
    clock_hand: usize,
    /// The buffer of the last page evicted while no reader held it, for
    /// the next miss to read into.
    spare: Option<Arc<Vec<u8>>>,
    stats: PoolStats,
}

/// A shared page cache. Cloning shares the pool (it is the process-wide
/// buffer pool of Figure 5's shared-memory infrastructure).
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
    page_size: usize,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages of `page_size` bytes.
    pub fn new(capacity: usize, page_size: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        BufferPool {
            inner: Arc::new(Mutex::new(PoolInner {
                capacity,
                frames: Vec::with_capacity(capacity),
                by_key: HashMap::new(),
                clock_hand: 0,
                spare: None,
                stats: PoolStats::default(),
            })),
            page_size,
        }
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Read a page, through the cache.
    pub fn read_page(&self, file: &mut File, key: PageKey) -> Result<Arc<Vec<u8>>> {
        let spare = {
            let mut inner = self.inner.lock();
            if let Some(&idx) = inner.by_key.get(&key) {
                inner.stats.hits += 1;
                inner.frames[idx].referenced = true;
                return Ok(Arc::clone(&inner.frames[idx].data));
            }
            inner.stats.misses += 1;
            inner.spare.take()
        };
        // Miss: read outside the lock, into the spare buffer if an eviction
        // left one, then install.
        let mut data = spare.unwrap_or_else(|| Arc::new(vec![0u8; self.page_size]));
        let buf = Arc::get_mut(&mut data).expect("a spare buffer is unshared");
        let offset = key.1 * self.page_size as u64;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)?;
        let mut inner = self.inner.lock();
        Self::install(&mut inner, key, Arc::clone(&data));
        Ok(data)
    }

    fn install(inner: &mut PoolInner, key: PageKey, data: Arc<Vec<u8>>) {
        if let Some(&idx) = inner.by_key.get(&key) {
            inner.frames[idx].data = data;
            inner.frames[idx].referenced = true;
            return;
        }
        if inner.frames.len() < inner.capacity {
            inner.frames.push(Frame {
                key,
                data,
                referenced: true,
            });
            inner.by_key.insert(key, inner.frames.len() - 1);
            return;
        }
        // CLOCK: find a frame with referenced == false, clearing bits as we
        // sweep. Terminates within two sweeps.
        loop {
            let idx = inner.clock_hand;
            inner.clock_hand = (inner.clock_hand + 1) % inner.frames.len();
            if inner.frames[idx].referenced {
                inner.frames[idx].referenced = false;
            } else {
                let frame = Frame {
                    key,
                    data,
                    referenced: true,
                };
                let mut old = std::mem::replace(&mut inner.frames[idx], frame);
                inner.by_key.remove(&old.key);
                inner.stats.evictions += 1;
                inner.by_key.insert(key, idx);
                if Arc::get_mut(&mut old.data).is_some() {
                    inner.spare = Some(old.data);
                }
                return;
            }
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Drop every cached page (tests; simulates cold cache).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.frames.clear();
        inner.by_key.clear();
        inner.clock_hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file() -> (std::path::PathBuf, File) {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("tcq-pool-test-{}-{n}.dat", std::process::id()));
        let file = File::options()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        (path, file)
    }

    /// Write page `page_no` of `f` (64 bytes of `fill`) straight to the
    /// file, as an archive's seal does.
    fn put(f: &mut File, page_no: u64, fill: u8) {
        use std::io::Write;
        f.seek(SeekFrom::Start(page_no * 64)).unwrap();
        f.write_all(&[fill; 64]).unwrap();
    }

    #[test]
    fn eviction_and_reread_from_disk() {
        let pool = BufferPool::new(2, 64);
        let (path, mut f) = temp_file();
        for p in 0..4u64 {
            put(&mut f, p, p as u8);
            pool.read_page(&mut f, (1, p)).unwrap();
        }
        assert_eq!(pool.cached_pages(), 2);
        assert!(pool.stats().evictions >= 2);
        // Page 0 was evicted; re-read goes to disk and returns the data.
        let data = pool.read_page(&mut f, (1, 0)).unwrap();
        assert_eq!(data[0], 0);
        assert!(pool.stats().misses >= 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_failed_read_caches_nothing() {
        let pool = BufferPool::new(2, 64);
        let (path, mut f) = temp_file();
        put(&mut f, 0, 1);
        // Page 1 is past the end of the file.
        assert!(pool.read_page(&mut f, (1, 1)).is_err());
        assert_eq!(pool.cached_pages(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn clock_gives_second_chance() {
        let pool = BufferPool::new(2, 64);
        let (path, mut f) = temp_file();
        for p in 0..4u64 {
            put(&mut f, p, p as u8);
        }
        pool.read_page(&mut f, (1, 0)).unwrap();
        pool.read_page(&mut f, (1, 1)).unwrap();
        // Installing page 2 sweeps: clears both reference bits, evicts the
        // frame the hand lands on second time (page 0). State afterwards:
        // [page2 referenced, page1 unreferenced].
        pool.read_page(&mut f, (1, 2)).unwrap();
        // Installing page 3 must choose the UNreferenced page 1 and give
        // the referenced page 2 its second chance.
        pool.read_page(&mut f, (1, 3)).unwrap();
        let before = pool.stats().hits;
        pool.read_page(&mut f, (1, 2)).unwrap();
        assert_eq!(
            pool.stats().hits,
            before + 1,
            "referenced page must survive"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shared_clones_see_same_cache() {
        let pool = BufferPool::new(4, 64);
        let pool2 = pool.clone();
        let (path, mut f) = temp_file();
        put(&mut f, 0, 9);
        pool.read_page(&mut f, (9, 0)).unwrap();
        let d = pool2.read_page(&mut f, (9, 0)).unwrap();
        assert_eq!(d[0], 9);
        assert_eq!(pool2.stats().hits, 1);
        std::fs::remove_file(path).ok();
    }
}
