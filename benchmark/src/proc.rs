//! What `/proc` says about a child while it runs: peak resident set and CPU
//! time, sampled from outside so the measured program needs no support.

use std::process::{Child, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// `VmHWM` only ever rises, so the sampling period bounds nothing but how
/// much of the last allocation before exit can be missed.
const POLL: Duration = Duration::from_millis(10);

/// `VmHWM` (peak resident set, KiB) out of a `/proc/<pid>/status` document.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// `utime + stime` (clock ticks) out of a `/proc/<pid>/stat` line. The
/// command name may hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // After the name: state is field 3 of the line, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// What one child cost, seen from outside.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildCost {
    /// Spawn-side start of the wait to observed exit.
    pub wall_s: f64,
    /// Highest `VmHWM` sampled, MiB.
    pub peak_rss_mib: f64,
    /// User + system CPU seconds at the last sample before exit.
    pub cpu_s: f64,
}

/// Samples one pid until told to stop; keeps the highest values seen.
#[derive(Debug, Default)]
pub struct Sampler {
    hwm_kib: u64,
    ticks: u64,
}

impl Sampler {
    pub fn sample(&mut self, pid: u32) {
        if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
            if let Some(kib) = parse_vm_hwm_kib(&status) {
                self.hwm_kib = self.hwm_kib.max(kib);
            }
        }
        if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
            if let Some(t) = parse_stat_cpu_ticks(&stat) {
                self.ticks = self.ticks.max(t);
            }
        }
    }

    pub fn peak_rss_mib(&self) -> f64 {
        self.hwm_kib as f64 / 1024.0
    }

    pub fn cpu_s(&self) -> f64 {
        self.ticks as f64 / TICKS_PER_SECOND
    }
}

/// Polls `pid` on a helper thread while `body` runs on this one, so `body`
/// can block (on `wait`, on sockets) and still time its own events exactly.
pub fn sampled<T>(pid: u32, body: impl FnOnce() -> T) -> (T, Sampler) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut sampler = Sampler::default();
            while !done.load(Ordering::SeqCst) {
                sampler.sample(pid);
                std::thread::sleep(POLL);
            }
            sampler
        });
        let out = body();
        done.store(true, Ordering::SeqCst);
        (out, poller.join().expect("/proc poller panicked"))
    })
}

/// Waits for `child`, timing from `started` (taken just before the spawn)
/// to the return of `wait`, while sampling its `/proc` entries.
pub fn wait_sampled(
    mut child: Child,
    started: Instant,
) -> std::io::Result<(ExitStatus, ChildCost)> {
    let pid = child.id();
    let (waited, sampler) = sampled(pid, || {
        let status = child.wait();
        (status, started.elapsed())
    });
    let (status, wall) = waited;
    Ok((
        status?,
        ChildCost {
            wall_s: wall.as_secs_f64(),
            peak_rss_mib: sampler.peak_rss_mib(),
            cpu_s: sampler.cpu_s(),
        },
    ))
}

/// The three load averages and the runnable/total task counts, verbatim.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unavailable".into())
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tcat\nVmPeak:\t  5000 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 900 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1234));
        assert_eq!(parse_vm_hwm_kib("Name:\tkthread\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_past_a_hostile_name() {
        let stat = "42 (a) b (c) R 1 42 42 0 -1 4194304 100 0 0 0 17 5 0 0 20 0 1 0 100 1000 10";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(22));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn poller_sees_a_live_child() {
        let started = Instant::now();
        // The child spins briefly so it accrues resident pages and lives
        // across several polls.
        let child = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .spawn()
            .expect("spawn sh");
        let (status, cost) = wait_sampled(child, started).expect("wait");
        assert!(status.success());
        assert!(cost.peak_rss_mib > 0.0, "no VmHWM sample: {cost:?}");
        assert!(cost.wall_s > 0.0);
    }

    #[test]
    fn own_process_is_parseable() {
        let mut s = Sampler::default();
        s.sample(std::process::id());
        assert!(s.peak_rss_mib() > 0.0);
    }
}
