//! The host-speed probe. On a shared host the CPU time a fixed piece of
//! work takes is not fixed: co-tenants change the core's clock, share its
//! execution units and evict its caches, and across runs on a loaded
//! host the CPU time per trunk image spread by more than half its
//! median. The probe times a fixed, benchmark-owned integer kernel on
//! the same vCPUs while the workload runs, and the reported CPU figures
//! are rescaled by it to a host on which one probe unit takes
//! [`REF_UNIT_S`]: what a change to the program does to its CPU time
//! shows, what the host does to it largely cancels.
//!
//! A unit is two halves of about equal CPU time, so that it slows as the
//! engine does: a row sweep that runs from L1 (clock and execution
//! units), and a direct 3x3 convolution whose weights sit in L2 (cache
//! pressure too). Under co-tenant load the sweep alone tracked the
//! serving workload best and the convolution alone the trunk; the two
//! together tracked both.
//!
//! The kernel is the benchmark's own and never calls the program, so no
//! change to the program can move the scale.

use crate::stats;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Nominal CPU seconds of one probe unit: rescaled figures read as CPU
/// time on a host that runs a unit in exactly this long. A 2-vCPU Intel
/// Xeon (Sapphire Rapids) KVM guest took 1.0-1.2 ms under co-tenant load.
pub const REF_UNIT_S: f64 = 1.0e-3;

/// Accumulator lanes of the row sweep: with the input row, 24 KiB, so
/// it runs from L1 whichever thread the probe preempted.
const LANES: usize = 4096;
/// Filter taps swept over the row per pass, as a 3x3 convolution does.
const TAPS: usize = 9;
/// Row-sweep passes per unit.
const PASSES: usize = 45;
/// Input and output channels of the convolution: 72 KiB of weights.
const CONV_CH: usize = 64;
/// Side of the convolution's output plane.
const CONV_HW: usize = 4;
/// Side of its zero-padded input plane.
const CONV_PAD: usize = CONV_HW + 2;
/// Units in a burst timed just before each set-up repetition.
pub const BURST_UNITS: usize = 10;
/// Wall-clock gap between units of the background probe: under a tenth
/// of one vCPU.
const PERIOD: Duration = Duration::from_millis(15);

/// The kernel's fixed operands.
struct Kernel {
    row: Vec<i16>,
    taps: [i16; TAPS],
    acc: Vec<i32>,
    /// `[CONV_CH, CONV_PAD, CONV_PAD]`.
    image: Vec<i16>,
    /// `[CONV_CH (out), CONV_CH (in), 3, 3]`.
    weights: Vec<i16>,
    /// `[CONV_CH, CONV_HW, CONV_HW]`.
    out: Vec<i32>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 52) as i16 - 2048
        };
        Kernel {
            row: (0..LANES + TAPS).map(|_| next()).collect(),
            taps: [3, -7, 11, -13, 17, -19, 23, -29, 31],
            acc: vec![0; LANES],
            image: (0..CONV_CH * CONV_PAD * CONV_PAD).map(|_| next()).collect(),
            weights: (0..CONV_CH * CONV_CH * 9).map(|_| next() >> 4).collect(),
            out: vec![0; CONV_CH * CONV_HW * CONV_HW],
        }
    }

    /// One unit: `PASSES` sweeps of the taps over the row, widening
    /// i16 x i16 products into i32 accumulators as the engine's row
    /// kernels do, then one direct 3x3 convolution. Returns a checksum
    /// so the work cannot be elided.
    fn unit(&mut self) -> i32 {
        self.acc.fill(0);
        for pass in 0..PASSES {
            for (k, &tap) in self.taps.iter().enumerate() {
                let w = i32::from(black_box(tap)) + pass as i32;
                for (a, &x) in self.acc.iter_mut().zip(&self.row[k..k + LANES]) {
                    *a = a.wrapping_add(w * i32::from(x));
                }
            }
        }
        self.out.fill(0);
        let plane = CONV_PAD * CONV_PAD;
        for (m, out) in self.out.chunks_exact_mut(CONV_HW * CONV_HW).enumerate() {
            for (c, image) in self.image.chunks_exact(plane).enumerate() {
                let filter = &self.weights[(m * CONV_CH + c) * 9..][..9];
                for (tap, &w) in filter.iter().enumerate() {
                    let w = i32::from(black_box(w));
                    let (ky, kx) = (tap / 3, tap % 3);
                    for (y, orow) in out.chunks_exact_mut(CONV_HW).enumerate() {
                        let irow = &image[(y + ky) * CONV_PAD + kx..][..CONV_HW];
                        for (o, &x) in orow.iter_mut().zip(irow) {
                            *o = o.wrapping_add(w * i32::from(x));
                        }
                    }
                }
            }
        }
        self.acc
            .iter()
            .chain(&self.out)
            .fold(0i32, |s, &a| s.wrapping_add(a))
    }

    /// One unit on the calling thread: when it ended and its CPU
    /// seconds.
    fn timed_unit(&mut self) -> Result<(Instant, f64), String> {
        let start = stats::thread_cpu_seconds()?;
        black_box(self.unit());
        let cpu_s = stats::thread_cpu_seconds()? - start;
        Ok((Instant::now(), cpu_s))
    }
}

/// What the probe measured.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    /// When each probe unit ended, and its CPU seconds.
    pub units: Vec<(Instant, f64)>,
    /// CPU seconds the probe thread used in all, units and loop alike;
    /// subtract it from the process CPU of the interval it ran in.
    pub thread_cpu_s: f64,
}

impl Reading {
    /// The factor that rescales CPU time measured alongside this reading
    /// to the reference host. The mean, not the median, of the units:
    /// a workload's CPU time adds up its slow stretches and its fast
    /// ones, and units sampled evenly in time weigh them alike.
    pub fn scale(&self) -> Result<f64, String> {
        scale_of(self.units.iter().map(|&(_, s)| s))
            .ok_or_else(|| "the probe timed no unit".to_owned())
    }

    /// The scale over the units that ended within `from..=to`, with the
    /// CPU seconds those units used; `None` if no unit ended there.
    pub fn between(&self, from: Instant, to: Instant) -> Option<(f64, f64)> {
        let inside = || {
            self.units
                .iter()
                .filter(move |&&(end, _)| from <= end && end <= to)
                .map(|&(_, s)| s)
        };
        Some((scale_of(inside())?, inside().sum()))
    }
}

fn scale_of(unit_s: impl Iterator<Item = f64>) -> Option<f64> {
    let unit_s: Vec<f64> = unit_s.collect();
    stats::mean(&unit_s).map(|mean| REF_UNIT_S / mean)
}

/// Times `units` probe units back to back on the calling thread, for a
/// phase too short or too lopsided to run the background probe beside.
pub fn burst(units: usize) -> Result<Reading, String> {
    let mut kernel = Kernel::new();
    black_box(kernel.unit());
    let start = stats::thread_cpu_seconds()?;
    let units = (0..units.max(1))
        .map(|_| kernel.timed_unit())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Reading {
        units,
        thread_cpu_s: stats::thread_cpu_seconds()? - start,
    })
}

/// Runs `work` on the calling thread while a probe thread times one unit
/// every [`PERIOD`] on whichever vCPU the scheduler gives it. The probe
/// thread is started before and joined after `work`, so its whole CPU
/// time falls inside any interval that encloses this call.
pub fn alongside<R>(work: impl FnOnce() -> R) -> Result<(R, Reading), String> {
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let probe = s.spawn(|| -> Result<Reading, String> {
            let start = stats::thread_cpu_seconds()?;
            let mut kernel = Kernel::new();
            let mut units = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                units.push(kernel.timed_unit()?);
                thread::sleep(PERIOD);
            }
            Ok(Reading {
                units,
                thread_cpu_s: stats::thread_cpu_seconds()? - start,
            })
        });
        let result = work();
        stop.store(true, Ordering::Relaxed);
        let reading = probe.join().map_err(|_| "probe thread panicked")??;
        Ok((result, reading))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        let sum = a.unit();
        assert_eq!(sum, a.unit());
        assert_eq!(sum, b.unit());
    }

    #[test]
    fn readings_time_units_and_rescale_by_their_mean() {
        let cpu = |r: &Reading| r.units.iter().map(|&(_, s)| s).sum::<f64>();
        let burst = burst(5).unwrap();
        assert_eq!(burst.units.len(), 5);
        assert!(burst.units.iter().all(|&(_, s)| s > 0.0));
        assert!(burst.thread_cpu_s >= cpu(&burst));
        let ((), beside) = alongside(|| thread::sleep(PERIOD * 5)).unwrap();
        assert!(!beside.units.is_empty());
        assert!(beside.thread_cpu_s >= cpu(&beside));
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let unit = |n: f64| n * REF_UNIT_S;
        let fixed = Reading {
            units: vec![
                (at(10), unit(1.0)),
                (at(20), unit(3.0)),
                (at(30), unit(2.0)),
            ],
            thread_cpu_s: unit(6.0),
        };
        assert!((fixed.scale().unwrap() - 0.5).abs() < 1e-12);
        let (scale, cpu_s) = fixed.between(at(15), at(30)).unwrap();
        assert!((scale - 0.4).abs() < 1e-12 && (cpu_s - unit(5.0)).abs() < 1e-12);
        assert!(fixed.between(at(31), at(40)).is_none());
        assert!(Reading::default().scale().is_err());
    }
}
