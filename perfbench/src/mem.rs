//! Process memory probes through `/proc/self`: the resident-set high
//! water mark (`VmHWM`) and its reset (writing `5` to `clear_refs`).
//! Both fail loudly: a missing probe is an error, never a 0.

use std::io;

/// `VmHWM` in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status")
        })?;
    Ok(kib / 1024.0)
}

/// Resets `VmHWM` to the current resident set size.
pub fn reset_peak() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}
