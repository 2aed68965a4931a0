//! Order statistics and process accounting.

use std::os::raw::{c_int, c_long};

/// A percentile needs at least this many samples beyond it to be
/// reported; with fewer it is withheld.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(p/100 * n)`, with the number of samples beyond it. `None` on an
/// empty input.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some((sorted[rank - 1], n - rank))
}

/// The percentile, withheld (`None`) when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn supported(sorted: &[f64], p: f64) -> Option<f64> {
    nearest_rank(sorted, p).and_then(|(v, beyond)| (beyond >= MIN_BEYOND).then_some(v))
}

/// Median (nearest rank) of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0).map_or(f64::NAN, |(m, _)| m)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// User + system CPU time of this whole process (every thread, running
/// or exited), in seconds, from `CLOCK_PROCESS_CPUTIME_ID`. The kernel
/// keeps it to the nanosecond; `/proc/self/stat` rounds the same total
/// to 10 ms ticks, which on a phase of a few hundred ms of CPU is noise
/// of several percent.
pub fn process_cpu_s() -> Result<f64, String> {
    /// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time, in seconds, of this process's live threads named `name`
/// (as `/proc/self/task/*/comm` shows it), read from each thread's own
/// CPU clock.
pub fn threads_cpu_s(name: &str) -> Result<f64, String> {
    let tasks = std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc: {e}"))?;
    let mut total = 0.0;
    for task in tasks {
        let path = task.map_err(|e| format!("/proc: {e}"))?.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end() != name {
            continue;
        }
        let tid = path
            .file_name()
            .and_then(|t| t.to_str())
            .and_then(|t| t.parse::<c_int>().ok())
            .ok_or("malformed /proc/self/task entry")?;
        // Linux's per-thread CPU clock id (`MAKE_THREAD_CPUCLOCK(tid,
        // CPUCLOCK_SCHED)`), the one `pthread_getcpuclockid` returns.
        total += cpu_clock_s((!tid << 3) | 6)?;
    }
    Ok(total)
}

fn cpu_clock_s(clock: c_int) -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two `long`s
    // on Linux) through a pointer to a live, properly laid out value.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Err(format!("clock_gettime({clock}): {}", std::io::Error::last_os_error()));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
