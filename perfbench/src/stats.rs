//! Exact sample statistics and the process/host readings each run
//! records: process and thread CPU time, peak RSS from
//! `/proc/self/status`, host CPU steal from `/proc/stat`, and the git
//! revision of the checkout.

use std::fs;
use std::io;
use std::os::raw::{c_int, c_long};

/// Nearest-rank quantile of `samples` (sorted here): the smallest value
/// with at least `q` of the samples at or below it. Exact, never
/// interpolated. `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// `struct timespec` as the C library lays it out on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

/// Linux's clock of CPU time consumed by every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
/// Linux's clock of CPU time consumed by the calling thread.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock_seconds(clock: c_int) -> Result<f64, String> {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, exclusively borrowed `Timespec`
    // with the C layout (`#[repr(C)]`, two `long`s on Linux).
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return Err(format!(
            "cannot read CPU time: {}",
            io::Error::last_os_error()
        ));
    }
    Ok(time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9)
}

/// Process CPU time (user + system, every thread alive or exited) in
/// seconds, with nanosecond resolution. The `/proc/self/stat` fields
/// count 10-ms ticks, too coarse for a 2-ms fleet start. Time the
/// hypervisor steals from the vCPUs is not in it, so it stays put when
/// co-tenants load the host and wall time does not.
pub fn process_cpu_seconds() -> Result<f64, String> {
    cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread in seconds, nanosecond resolution.
pub fn thread_cpu_seconds() -> Result<f64, String> {
    cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let text = fs::read_to_string("/proc/self/status")?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// Host-wide `(steal, total)` CPU ticks from the aggregate `cpu` line of
/// `/proc/stat`.
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice, so it is not added again.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// Share of host CPU time stolen by the hypervisor between `start()` and
/// `share()`.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(host_cpu_ticks())
    }

    /// `None` where `/proc/stat` is unreadable or no tick has passed.
    pub fn share(&self) -> Option<f64> {
        let (steal0, total0) = self.0?;
        let (steal1, total1) = host_cpu_ticks()?;
        let total = total1.checked_sub(total0).filter(|&t| t > 0)?;
        Some(steal1.saturating_sub(steal0) as f64 / total as f64)
    }
}

/// The commit the working directory is checked out at, read from
/// `.git` without leaving it; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |path: &str| fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|rev| rev.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.99), Some(99.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // Nearest rank of an even count is the lower middle sample.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        // p99 of 1000 samples leaves exactly ten above it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&big, 0.99), Some(990.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn process_cpu_time_is_readable_and_grows_with_work() {
        let before = process_cpu_seconds().unwrap();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = process_cpu_seconds().unwrap();
        assert!(after >= before + 0.02, "{before} -> {after}");
        let thread = thread_cpu_seconds().unwrap();
        assert!(thread > 0.0 && thread <= after + 1e-6, "{thread} > {after}");
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
