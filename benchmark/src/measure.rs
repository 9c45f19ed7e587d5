//! Clocks, the latency histogram and the few statistics the harness reports.

use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the 64-bit
    // Linux ABI this benchmark builds for (it also reads /proc), and both
    // clock ids are constants the kernel defines; the call writes `ts` only.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (every thread, user + system), in ns.
/// Same quantity as utime+stime in `/proc/self/stat`, at ns resolution
/// instead of 10 ms ticks.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in ns (`/proc/thread-self/stat`).
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Nanoseconds from `epoch` to `at` (0 if `at` is earlier).
pub fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 64 - SUB_BITS as usize;

/// Fixed-size log-bucket histogram of nanosecond values: 128 buckets per
/// power of two (0.8 % wide), so recording never allocates and a quantile
/// interpolated inside its bucket is good to a fraction of that.
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; SUB * (OCTAVES + 1)],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (shift as usize + 1) * SUB + ((v >> shift) as usize & (SUB - 1))
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        if i < SUB {
            return (i as u64, 1);
        }
        let shift = (i / SUB - 1) as u32;
        (((SUB + i % SUB) as u64) << shift, 1u64 << shift)
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile in ns, interpolated linearly inside its bucket
    /// (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut before = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank < (before + n) as f64 {
                let (lo, width) = Self::bounds(i);
                let frac = (rank - before as f64 + 0.5) / n as f64;
                return (lo as f64 + width as f64 * frac).min(self.max as f64);
            }
            before += n;
        }
        self.max as f64
    }

    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a percentage of the
/// median — quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them, which is what the driver's noise check uses.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let n = values.len();
    let med = median(values);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos % 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    // With two or three values Python's interpolation can cross over;
    // the distance is what is wanted.
    (quartile(3) - quartile(1)).abs() / med * 100.0
}
