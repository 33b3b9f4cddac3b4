//! Small shared helpers: seeded PRNG, order statistics, the state digest,
//! process memory and host description.

use std::time::Instant;

/// splitmix64 — the only randomness in the benchmark; `--seed` feeds it and
/// the program under test sees only the inputs generated from it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Linearly interpolated quantile (`p` in 0..=1) of `xs`. `NaN` when empty.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = (v.len() - 1) as f64 * p;
    let (lo, part) = (at.floor() as usize, at.fract());
    match v.get(lo + 1) {
        Some(hi) => v[lo] * (1.0 - part) + hi * part,
        None => v[lo],
    }
}

/// Median of `xs` (mean of the middle pair for even counts). `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// What a run reports for one end-to-end timing: the first quartile of its
/// samples. The reference host is a shared guest whose neighbours slow it for
/// seconds at a time and never speed it up, so the slow half of a run's
/// samples says more about the minute the run was made in than about the
/// program. The first quartile still rests on a quarter of the samples (the
/// minimum rests on one); over ten runs it repeated as well as the median in
/// a quiet quarter hour and better in a noisy one (last table of
/// `baseline/SPREAD.md`).
pub fn typical(xs: &[f64]) -> f64 {
    quantile(xs, 0.25)
}

/// Seconds each call of `f` took: at least `min` calls, then more until
/// `budget_s` is used, at most `max`.
pub fn times_within(budget_s: f64, min: usize, max: usize, mut f: impl FnMut()) -> Vec<f64> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (samples.len() < max && t0.elapsed().as_secs_f64() < budget_s) {
        samples.push(timed(&mut f).0);
    }
    samples
}

/// Median seconds per call of `f`, called once and then until `budget_s` is
/// used (at most nine times).
pub fn median_time(budget_s: f64, f: impl FnMut()) -> f64 {
    median(&times_within(budget_s, 1, 9, f))
}

/// FNV-1a over the bit patterns of a state vector: equal digests ⇔ the two
/// final states are bit-for-bit identical (up to hash collision).
pub fn fnv1a(state: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in state {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Largest relative difference between two states (`|a-b| / max(|a|,1)`).
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / x.abs().max(1.0))
        .fold(0.0, f64::max)
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MB. Each workload runs in its
/// own process, so this is per workload.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads every arm uses: `min(nproc, 4)`.
pub fn bench_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Size of the largest cache level sysfs reports for cpu0, bytes (fallback
/// 32 MiB when sysfs is not there).
pub fn llc_bytes() -> usize {
    let mut best = 0usize;
    for idx in 0..8 {
        let Some(size) = read_trim(&format!(
            "/sys/devices/system/cpu/cpu0/cache/index{idx}/size"
        )) else {
            continue;
        };
        let (num, mult) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            _ => (size.as_str(), 1),
        };
        if let Ok(n) = num.parse::<usize>() {
            best = best.max(n * mult);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

fn mem_total_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("MemTotal:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<usize>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// The `env` block recorded with every result: what the numbers were taken on.
pub fn env_block() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        if let (Some(level), Some(kind), Some(size)) = (
            read_trim(&format!("{base}/level")),
            read_trim(&format!("{base}/type")),
            read_trim(&format!("{base}/size")),
        ) {
            caches.push(format!("L{level}{}={size}", &kind[..1].to_lowercase()));
        }
    }
    vec![
        ("cpu".into(), cpu),
        ("nproc".into(), nproc().to_string()),
        ("threads".into(), bench_threads().to_string()),
        ("caches".into(), caches.join(" ")),
        ("mem_total_mb".into(), (mem_total_bytes() >> 20).to_string()),
        (
            "features".into(),
            format!(
                "trace={} det={}",
                cfg!(feature = "trace"),
                cfg!(feature = "det")
            ),
        ),
    ]
}
