//! What a buffer-pool miss costs the allocator, counted. Once the pool is
//! full, each miss evicts a page no reader holds and reads the next page
//! into that page's buffer, so repeated misses allocate no page buffers.
//! The allocator is global, so this file is its own test binary.

use std::io::Write;

use tcq_common::CountingAlloc;
use tcq_storage::BufferPool;

#[global_allocator]
static ALLOCS: CountingAlloc = CountingAlloc::new();

const PAGE: usize = 8192;
const FRAMES: usize = 4;
const PAGES: u64 = 12;

#[test]
fn misses_on_a_full_pool_reuse_the_evicted_buffer() {
    let path = std::env::temp_dir().join(format!("tcq-pool-allocs-{}.dat", std::process::id()));
    let mut file = std::fs::File::options()
        .create(true)
        .read(true)
        .write(true)
        .truncate(true)
        .open(&path)
        .unwrap();
    for p in 0..PAGES {
        file.write_all(&[p as u8; PAGE]).unwrap();
    }
    let pool = BufferPool::new(FRAMES, PAGE);
    // Fill the pool, then evict once so a spare buffer exists.
    for p in 0..=FRAMES as u64 {
        pool.read_page(&mut file, (1, p)).unwrap();
    }
    let before = pool.stats();
    // Cycling through more pages than frames makes every read a miss.
    let (allocs, ()) = ALLOCS.count(|| {
        for p in (FRAMES as u64 + 1..PAGES).cycle().take(64) {
            let page = pool.read_page(&mut file, (1, p)).unwrap();
            assert_eq!(page[0], p as u8);
        }
    });
    let after = pool.stats();
    assert_eq!(after.misses - before.misses, 64);
    assert_eq!(after.evictions - before.evictions, 64);
    assert_eq!(
        allocs, 0,
        "64 misses on a full pool allocated {allocs} times"
    );
    // A page a reader still holds is not reused under it.
    let held = pool.read_page(&mut file, (1, 0)).unwrap();
    for p in 1..PAGES {
        pool.read_page(&mut file, (1, p)).unwrap();
    }
    assert!(held.iter().all(|&b| b == 0));
    std::fs::remove_file(path).ok();
}
