//! Host facts and process counters read from `/proc`.

use std::time::{Duration, Instant};

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mib("VmHWM:").unwrap_or(0.0)
}

/// User plus system CPU time of the whole process, in seconds.
///
/// `/proc/self/stat` reports it in `USER_HZ` ticks, which Linux fixes at
/// 100 per second for this interface.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count fields after ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. 12 and 13 after ')'.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// `(steal, total)` CPU ticks from the first line of `/proc/stat`: time the
/// hypervisor ran something else on the guest's CPUs, and all time.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // Fields: user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user time.
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

/// Share of CPU time the hypervisor stole between two [`cpu_ticks`] reads.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// Keeps every CPU busy for `duration`. A CPU woken from idle runs its
/// first ~100 ms of load measurably slower, so the benchmark spins all of
/// them before it times anything, set-up included.
pub fn warm_cpus(duration: Duration) {
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(move || {
                let start = Instant::now();
                let mut x = 0u64;
                while start.elapsed() < duration {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            });
        }
    });
}

/// Wall and CPU time from one instant, for CPU-utilisation ratios.
pub struct CpuClock {
    wall: Instant,
    cpu: f64,
}

impl CpuClock {
    /// Starts both clocks.
    pub fn start() -> Self {
        CpuClock {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Process CPU seconds per wall second since [`CpuClock::start`].
    pub fn utilisation(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        (cpu_seconds() - self.cpu) / wall.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_read_sensible_values() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let clock = CpuClock::start();
        let mut x = 0u64;
        while clock.wall.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let util = clock.utilisation();
        assert!(util > 0.3 && util < 4.0, "busy loop utilisation {util}");
        let (steal, total) = cpu_ticks();
        assert!(total > 0 && steal <= total);
        assert_eq!(steal_share((1, 100), (3, 200)), 0.02);
    }
}
