//! What the benchmark reads from the host: process accounting for one run,
//! the identity of the machine and toolchain, and two canaries that tell a
//! slower hour of a shared host from a slower program.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines, and `who` is one of its two valid selectors;
    // the call writes that struct and nothing else.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

/// User + system CPU seconds of this process and of the children it has
/// waited for (the `rustc` a cold native cache runs is the user's cost
/// too). `/proc/self/stat` holds the same numbers rounded to 10 ms ticks;
/// `getrusage` gives them in microseconds.
pub fn cpu_seconds() -> f64 {
    [RUSAGE_SELF, RUSAGE_CHILDREN]
        .into_iter()
        .map(|who| {
            let u = rusage(who);
            (u.utime.sec + u.stime.sec) as f64 + (u.utime.usec + u.stime.usec) as f64 * 1e-6
        })
        .sum()
}

/// Largest resident set of any waited-for child, MiB (0 without children).
pub fn children_peak_rss_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss_kb as f64 / 1024.0
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line a command prints, or `"unknown"`.
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the last-level cache the kernel reports for cpu0, bytes.
pub fn llc_bytes() -> Option<u64> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |file: &str| std::fs::read_to_string(entry.path().join(file)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(kb) => kb.parse::<u64>().ok().map(|v| v << 10),
            None => size
                .strip_suffix('M')
                .and_then(|mb| mb.parse::<u64>().ok().map(|v| v << 20)),
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Result of the host canaries.
#[derive(Debug, Clone, Copy)]
pub struct Canaries {
    /// STREAM triad bandwidth, GB/s (best of the passes).
    pub triad_gbs: f64,
    /// Bytes of each of the three triad arrays.
    pub triad_array_bytes: u64,
    /// Last-level cache the arrays are sized against, bytes.
    pub llc_bytes: u64,
    /// Seconds of a fixed scalar FMA chain (best of the passes).
    pub canary_s: f64,
}

/// Arrays are four times the reported last-level cache, but no larger
/// than this: the cache a cloud guest reports is the whole socket's, and
/// three arrays of four times 260 MiB would cost seconds of page faults in
/// every traced run. Both sizes are recorded beside the bandwidth.
const TRIAD_ARRAY_CAP: u64 = 256 << 20;
/// Assumed when sysfs does not report cache sizes.
const LLC_FALLBACK: u64 = 32 << 20;

pub fn canaries() -> Canaries {
    let llc = llc_bytes().unwrap_or(LLC_FALLBACK);
    let array_bytes = (4 * llc).min(TRIAD_ARRAY_CAP);
    let n = (array_bytes / 8) as usize;
    let (b, c) = (vec![1.0f64; n], vec![2.0f64; n]);
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    let triad_gbs = 3.0 * array_bytes as f64 / best / 1e9;

    let mut canary_s = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut x = black_box(0.5f64);
        for _ in 0..20_000_000u32 {
            x = x.mul_add(0.999_999_9, 1e-9);
        }
        black_box(x);
        canary_s = canary_s.min(t.elapsed().as_secs_f64());
    }
    Canaries {
        triad_gbs,
        triad_array_bytes: array_bytes,
        llc_bytes: llc,
        canary_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_reads_something() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = black_box(x.wrapping_add(i));
        }
        black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.5);
    }
}
