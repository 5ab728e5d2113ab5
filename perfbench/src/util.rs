//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, digests, the log-log fit and the process's peak memory.

use std::time::Instant;

/// Splitmix64: the whole input corpus replays from the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_51C0_0000_0000)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Index of the median element of `values` (the lower one for an even
/// count), so a report can use one whole pass rather than a blend.
pub fn median_index(values: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    idx[(values.len().max(1) - 1) / 2]
}

/// Samples strictly beyond the nearest-rank `pct` percentile.
pub fn samples_beyond(len: u64, pct: f64) -> u64 {
    let rank = ((pct / 100.0) * len as f64).ceil() as u64;
    len.saturating_sub(rank.max(1))
}

/// Latency histogram of fixed size, so the benchmark's own memory does
/// not grow with the request count: 0.25 µs buckets up to 8 ms, exact
/// samples beyond.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    over: Vec<f64>,
    n: u64,
    sum_ms: f64,
}

impl Histogram {
    const STEP_MS: f64 = 0.000_25;
    const BUCKETS: usize = 32_000;

    pub fn add(&mut self, ms: f64) {
        self.n += 1;
        self.sum_ms += ms;
        match self.counts.get_mut((ms / Self::STEP_MS) as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ms),
        }
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.n += other.n;
        self.sum_ms += other.sum_ms;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.sum_ms / self.n.max(1) as f64
    }

    /// Nearest-rank percentile, read at the bucket's midpoint.
    pub fn percentile(&self, pct: f64) -> f64 {
        let rank = ((pct / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return (i as f64 + 0.5) * Self::STEP_MS;
            }
        }
        let mut over = self.over.clone();
        over.sort_by(f64::total_cmp);
        over.get((rank - seen).saturating_sub(1) as usize)
            .copied()
            .unwrap_or(0.0)
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; Self::BUCKETS],
            over: Vec::new(),
            n: 0,
            sum_ms: 0.0,
        }
    }
}

/// CPU time in seconds on one of the kernel's CPU-time clocks. These
/// count only the time a thread actually ran: time the hypervisor gave
/// the shared host's other tenants (steal) is left out, as is time spent
/// waiting to run.
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec (64-bit Linux layout);
    // the CPU-time clocks always exist for the calling process and thread.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// CPU time of the whole process, every thread, live or ended (s).
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread (s).
fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// About what one host probe takes on the reference host, an idle
/// 2-core Intel Xeon (Sapphire Rapids) virtual machine, in CPU ms. Any
/// fixed value would do: it only sets the scale of the scaled figures.
pub const PROBE_REF_MS: f64 = 5.0;

/// A fixed reference computation that gauges how fast the host runs
/// memory-bound code right now: seeded hash-map updates and a sort over
/// about 2 MB, the kind of memory traffic a compile pass makes. It is
/// the benchmark's own code, independent of SILC, so a change to the
/// program cannot move it; only the host can (other tenants contending
/// for the caches and memory). Returns its CPU time in ms.
pub fn host_probe_ms() -> f64 {
    let start = thread_cpu_s();
    let mut rng = Rng::new(7);
    let mut counts = std::collections::HashMap::new();
    for _ in 0..60_000 {
        *counts.entry(rng.below(100_000)).or_insert(0u32) += 1;
    }
    let mut keys: Vec<u64> = (0..60_000).map(|_| rng.next()).collect();
    keys.sort_unstable();
    std::hint::black_box((counts.len(), keys[keys.len() / 2]));
    (thread_cpu_s() - start) * 1e3
}

/// The clock of one batch pass: the jobs' wall and CPU time, and a host
/// probe after every job, outside those times, so each pass carries a
/// measure of how fast the shared host ran while it did.
#[derive(Default)]
pub struct PassClock {
    pub wall_ms: f64,
    cpu_ms: f64,
    probe_ms: f64,
    probes: u32,
}

impl PassClock {
    /// Runs and times one job, then probes the host.
    pub fn job<T>(&mut self, job: impl FnOnce() -> T) -> T {
        let (wall, cpu) = (Instant::now(), process_cpu_s());
        let out = job();
        self.cpu_ms += (process_cpu_s() - cpu) * 1e3;
        self.wall_ms += ms_since(wall);
        self.probe_ms += host_probe_ms();
        self.probes += 1;
        out
    }

    /// Mean probe time over the pass (ms).
    pub fn probe_ms(&self) -> f64 {
        self.probe_ms / f64::from(self.probes.max(1))
    }

    /// The pass's CPU time at reference host speed: scaled by how much
    /// slower than on the reference host the probes ran beside it.
    pub fn scaled_ms(&self) -> f64 {
        self.cpu_ms * PROBE_REF_MS / self.probe_ms()
    }
}

/// Median pass times of a batch run: wall, CPU, and CPU at reference
/// host speed.
pub struct PassTimes {
    pub wall_ms: f64,
    pub cpu_ms: f64,
    pub scaled_ms: f64,
    pub probe_ms: f64,
}

impl PassTimes {
    pub fn of(workload: &str, clocks: &[PassClock]) -> PassTimes {
        let pick = |f: fn(&PassClock) -> f64| median(&clocks.iter().map(f).collect::<Vec<_>>());
        let t = PassTimes {
            wall_ms: pick(|c| c.wall_ms),
            cpu_ms: pick(|c| c.cpu_ms),
            scaled_ms: pick(PassClock::scaled_ms),
            probe_ms: pick(PassClock::probe_ms),
        };
        eprintln!(
            "{workload}: {} untraced passes; median pass {:.1} ms wall, {:.1} ms CPU, {:.1} ms CPU at reference speed (host probe {:.3} ms, {PROBE_REF_MS} ms on the reference host)",
            clocks.len(),
            t.wall_ms,
            t.cpu_ms,
            t.scaled_ms,
            t.probe_ms
        );
        t
    }

    /// The batch end-to-end metrics of a pass of `jobs` jobs, gated at
    /// reference host speed; the wall and raw CPU figures ride along on
    /// stderr.
    pub fn insert(&self, m: &mut crate::report::Metrics, jobs: usize) {
        m.insert("jobs_per_s".into(), jobs as f64 / (self.scaled_ms / 1e3));
        m.insert("latency_p50_ms".into(), self.scaled_ms);
        m.insert("wall.jobs_per_s".into(), jobs as f64 / (self.wall_ms / 1e3));
        m.insert("wall.latency_p50_ms".into(), self.wall_ms);
        m.insert("cpu.latency_p50_ms".into(), self.cpu_ms);
        m.insert("host_probe_ms".into(), self.probe_ms);
    }
}

/// Times set-ups: each one's wall time, its CPU time, and that CPU time
/// at reference host speed, by a host probe run right after it.
#[derive(Default)]
pub struct SetupClock {
    samples: Vec<[f64; 3]>,
}

impl SetupClock {
    /// Runs and times one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let (wall, cpu) = (Instant::now(), process_cpu_s());
        let out = setup();
        let cpu_s = process_cpu_s() - cpu;
        let wall_s = wall.elapsed().as_secs_f64();
        let scaled = cpu_s * PROBE_REF_MS / host_probe_ms();
        self.samples.push([wall_s, cpu_s, scaled]);
        out
    }

    /// `setup_s`, the median set-up CPU time at reference host speed,
    /// and the median wall and CPU times beside it (not gated).
    pub fn insert(&self, m: &mut crate::report::Metrics) {
        let pick = |k: usize| median(&self.samples.iter().map(|s| s[k]).collect::<Vec<_>>());
        m.insert("setup_s".into(), pick(2));
        m.insert("wall.setup_s".into(), pick(0));
        m.insert("cpu.setup_s".into(), pick(1));
    }
}

/// FNV-1a over bytes: the cross-pass output digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Least-squares slope of `ln y` against `ln x` over the points with
/// positive coordinates (0 when fewer than two distinct sizes remain).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Outcome tally of one run: every operation attempted, and those that
/// failed or returned a wrong output.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failure message goes to stderr (the first
    /// few only, so a systematic fault does not flood the log).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_index(&[5.0, 1.0, 9.0, 3.0]), 3);
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.add(f64::from(i) * 0.001);
        }
        h.add(20.0);
        assert!((h.percentile(50.0) - 0.501).abs() < 0.000_25);
        assert_eq!(h.percentile(100.0), 20.0);
        assert_eq!(samples_beyond(1000, 99.0), 10);
    }

    #[test]
    fn cpu_clocks_count_work() {
        let (process, thread) = (process_cpu_s(), thread_cpu_s());
        let probe = host_probe_ms();
        assert!(probe > 0.0);
        assert!(process_cpu_s() > process && thread_cpu_s() > thread);
        let mut clock = PassClock::default();
        assert_eq!(clock.job(|| 7), 7);
        assert!(clock.wall_ms > 0.0 && clock.probe_ms() > 0.0);
        let expected = clock.cpu_ms * PROBE_REF_MS / clock.probe_ms();
        assert!((clock.scaled_ms() - expected).abs() < 1e-12);
    }

    #[test]
    fn slope_of_a_power_law() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&x: &f64| (x, 3.0 * x.powf(1.5)))
            .collect();
        assert!((loglog_slope(&pts) - 1.5).abs() < 1e-9);
    }
}
