//! Small measurement helpers: timing, order statistics, digests, RSS.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was derived from.
    pub samples: usize,
    /// How the value was derived, printed beside it.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`. Below eleven samples no percentile has ten
/// beyond it, and the median is returned with percentile 50.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    if xs.len() <= BEYOND {
        return (median(xs), 50.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len() - BEYOND;
    (v[rank - 1], 100.0 * rank as f64 / v.len() as f64)
}

/// Median over `reps` timed calls, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Deterministic xorshift64* stream for synthetic probe inputs.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A value in `[-limit, limit]`, roughly bell-shaped (sum of four
    /// uniforms).
    pub fn small_int(&mut self, limit: i32) -> i32 {
        let span = 2 * i64::from(limit) + 1;
        let sum: i64 = (0..4).map(|_| (self.next_u64() % span as u64) as i64).sum();
        (sum / 4 - i64::from(limit)) as i32
    }
}

/// Host seconds [`reference_seconds`] takes on a host at nominal speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.001;

/// Host seconds of a fixed reference kernel: the median of three runs of
/// hash-map lookups, a sort, and scattered reads over 4 MiB. The kernel
/// belongs to the benchmark, not the program, so no change to the program
/// can move it; it tracks how fast the shared host runs right now.
pub fn reference_seconds() -> f64 {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..1u64 << 19).collect());
    let once = || {
        let t = Instant::now();
        let mut rng = XorShift::new(0x5eed);
        let keys: Vec<u64> = (0..2048).map(|_| rng.next_u64()).collect();
        let map: HashMap<u64, u64> = keys.iter().map(|&k| (k, k >> 7)).collect();
        let mut acc = 0u64;
        for k in keys.iter().cycle().take(24_576) {
            acc = acc.wrapping_add(map[k]);
        }
        let mut sorted: Vec<u64> = (0..12_288).map(|_| rng.next_u64()).collect();
        sorted.sort_unstable();
        for _ in 0..49_152 {
            acc = acc.wrapping_add(table[(rng.next_u64() as usize) & (table.len() - 1)]);
        }
        black_box((acc, sorted));
        t.elapsed().as_secs_f64()
    };
    median(&[once(), once(), once()])
}
