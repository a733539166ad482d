//! What the host tells us: CPU time, peak memory, core count, CPU model
//! and the commit being measured. Linux `/proc` only.

use std::fs;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `clock_gettime(2)`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    /// `clock_gettime(2)` from the C library std already links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User+system CPU seconds this process (all threads) has used so far,
/// at the scheduler's nanosecond resolution (`/proc/self/stat` counts in
/// 10 ms ticks, a tenth of the windows the closed loop is judged in).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, aligned `timespec` the call only writes to.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable on Linux");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The CPU every run is pinned to.
pub const PINNED_CPU: usize = 0;

extern "C" {
    /// `sched_setaffinity(2)` from the C library std already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it spawns from now on, to
/// [`PINNED_CPU`]. Returns false when the kernel refuses (the CPU is not
/// in the allowed set); the run then goes on unpinned and says so.
pub fn pin_to_one_cpu() -> bool {
    let mut mask = [0u64; 16];
    mask[PINNED_CPU / 64] |= 1 << (PINNED_CPU % 64);
    // SAFETY: `mask` is a live, aligned buffer of exactly the
    // `size_of_val(&mask)` bytes passed as its size, the call only reads
    // it, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn status_kb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim_start_matches(':')
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_kb(&s, "VmHWM"))
        .expect("/proc/self/status has VmHWM on Linux")
        / 1024.0
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository reports `unknown`.
pub fn git_sha() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = cpu_seconds();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= t0 + 0.03);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn status_field_parser() {
        let s = "Name:\tx\nVmHWM:\t    2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(status_kb(s, "VmHWM"), Some(2048.0));
        assert_eq!(status_kb(s, "VmPeak"), None);
    }
}
