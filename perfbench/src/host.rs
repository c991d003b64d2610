//! Host context recorded beside every run, as diagnostics rather than
//! metrics: it tells interference from other tenants of the machine apart
//! from a regression in the program.

use std::time::Instant;

/// Cumulative steal ticks of all CPUs (`/proc/stat`, USER_HZ units).
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// The three load averages of `/proc/loadavg`.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Nanoseconds per iteration of a fixed integer loop that shares no code
/// with the repository: its drift between the start and the end of the
/// timed phase shows how much the host itself slowed down.
pub fn sentinel_ns_per_iter() -> f64 {
    const ITERS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The record printed as one `# host {...}` line before the result.
pub struct HostContext {
    nproc: usize,
    steal_before: Option<u64>,
    load_before: String,
    sentinel_before_ns: f64,
}

impl HostContext {
    /// Samples the host right before the timed phase.
    pub fn before() -> HostContext {
        HostContext {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            steal_before: steal_ticks(),
            load_before: loadavg(),
            sentinel_before_ns: sentinel_ns_per_iter(),
        }
    }

    /// Samples the host right after the timed phase and renders the record.
    pub fn after(self) -> String {
        let sentinel_after_ns = sentinel_ns_per_iter();
        let steal = match (self.steal_before, steal_ticks()) {
            (Some(a), Some(b)) => (b - a).to_string(),
            _ => "null".to_string(),
        };
        format!(
            "{{\"nproc\": {}, \"debug_build\": {}, \"steal_ticks_delta\": {steal}, \
             \"loadavg_before\": \"{}\", \"loadavg_after\": \"{}\", \
             \"sentinel_ns_per_iter_before\": {:.4}, \"sentinel_ns_per_iter_after\": {:.4}}}",
            self.nproc,
            cfg!(debug_assertions),
            self.load_before,
            loadavg(),
            self.sentinel_before_ns,
            sentinel_after_ns,
        )
    }
}
