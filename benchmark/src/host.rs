//! Host counters: process CPU time from the C library's clock, and the
//! thread's scheduler statistics and peak resident memory from Linux
//! `/proc`. No new dependency; a host without them fails the benchmark
//! instead of reporting zeros.

use std::fs;
use std::os::raw::{c_int, c_long};

/// `struct timespec` as the C library lays it out on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

/// User plus system CPU nanoseconds of the whole process, threads that
/// have already exited included.
pub fn process_cpu_ns() -> Result<u64, String> {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec`, and the clock
    // id is one Linux defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".to_string());
    }
    Ok(time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64)
}

/// Nanoseconds the calling thread has run on a CPU (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> Result<u64, String> {
    let schedstat = read("/proc/thread-self/schedstat")?;
    schedstat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| "malformed /proc/thread-self/schedstat".to_string())
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}
