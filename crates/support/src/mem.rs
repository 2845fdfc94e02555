//! Process-level memory readings, for the streaming-ingestion benchmarks.
//!
//! The streaming pipeline's whole point is a bounded memory envelope, so
//! the bench harness needs the same number an operator would watch: the
//! process's resident-set size and its high-water mark. On Linux both come
//! from `/proc/self/status`; elsewhere the readings are unavailable and
//! callers degrade to reporting only throughput.

/// Peak resident-set size of this process so far (`VmHWM`), in bytes.
///
/// `None` when the platform exposes no reading (non-Linux, or a restricted
/// `/proc`). The kernel tracks the high-water mark per process, so a value
/// returned after a phase completes covers everything up to that point —
/// order phases from smallest to largest expected footprint when comparing.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

/// Reads a `kB` field out of `/proc/self/status`.
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line
        .strip_prefix(field)?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_readings_are_sane_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return; // nothing to assert off-Linux
        }
        // Current first: other tests allocate concurrently, and only a
        // peak read *after* the current reading is bound to cover it.
        let now = proc_status_bytes("VmRSS:").expect("VmRSS present in /proc/self/status");
        let peak = peak_rss_bytes().expect("VmHWM present in /proc/self/status");
        // A running test binary holds at least a few pages, and the peak
        // can never undercut the current reading.
        assert!(now > 64 * 1024, "current RSS {now} implausibly small");
        assert!(peak >= now, "peak {peak} < current {now}");
    }

    #[test]
    fn peak_tracks_a_large_allocation() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let before = peak_rss_bytes().unwrap();
        // Touch every page so the kernel actually maps the memory.
        let block = vec![7u8; 32 << 20];
        let touched: u64 = block.iter().step_by(4096).map(|&b| b as u64).sum();
        assert!(touched > 0);
        let after = peak_rss_bytes().unwrap();
        drop(block);
        assert!(
            after >= before + (24 << 20),
            "peak moved only {before} -> {after} across a 32 MiB allocation"
        );
    }
}
