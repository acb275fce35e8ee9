//! Host-side measurement helpers: clocks, resource usage, order
//! statistics and output digests.

use std::time::Instant;

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times one call, returning its result and its wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, since(start))
}

/// Nominal seconds of one [`Calibrator::pass`]: its time on an otherwise
/// idle core of the 2-vCPU Xeon (Sapphire Rapids, KVM) the bounds were
/// set on.
pub const CALIB_REF_S: f64 = 0.006;

/// A fixed, program-independent kernel (fill and sort 2 MiB of
/// pseudo-random words) that stalls as the workloads do when other
/// tenants share the host's cores and caches. Dividing a run's time by
/// the passes around it cancels most of that drift. The buffer is
/// allocated once, so it adds a constant to this process's resident
/// set.
pub struct Calibrator {
    buffer: Vec<u64>,
}

impl Calibrator {
    /// A calibrator with its buffer allocated.
    pub fn new() -> Self {
        Self {
            buffer: vec![0; 1 << 18],
        }
    }

    /// One pass, in seconds.
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for w in self.buffer.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.buffer.sort_unstable();
        std::hint::black_box(&self.buffer);
        since(start)
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s (user, system) of
/// two `long`s each, then fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage(who: i32) -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` (18 longs on 64-bit Linux), and `who` is one of
    // the two selectors the call accepts.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_seconds(u: &RUsage) -> f64 {
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(u.utime) + tv(u.stime)
}

/// User + system CPU seconds consumed so far by this process and by
/// every descendant it has reaped (children fold in their own reaped
/// children, so a coordinator's shard processes are included).
pub fn cpu_s() -> f64 {
    cpu_seconds(&rusage(RUSAGE_SELF)) + cpu_seconds(&rusage(RUSAGE_CHILDREN))
}

/// The name and peak resident set (VmHWM) in MiB of `pid`, or of
/// this process.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<(String, f64)> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .map(str::trim)
    };
    let name = field("Name:")?.to_string();
    let kib: f64 = field("VmHWM:")?.split_whitespace().next()?.parse().ok()?;
    Some((name, kib / 1024.0))
}

/// The median of `values` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`, or `None` below twenty samples.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    let p: usize = [99, 95, 90]
        .into_iter()
        .find(|&p| n * (100 - p) / 100 >= 10)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (n * p).div_ceil(100).max(1) - 1;
    Some((p as u32, v[rank]))
}

/// A 64-bit FNV-1a-style digest folded word by word (one multiply per
/// `u64`, so hashing 10^5 records stays far below a run's cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds a byte string in, eight bytes at a time, length last.
    pub fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
        self.word(b.len() as u64);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The digest of a byte string.
pub fn digest_bytes(b: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(b);
    d.value()
}
