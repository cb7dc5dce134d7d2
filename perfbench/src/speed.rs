//! The host's speed and CPU clocks, so that timings of CPU-bound work
//! can be taken at one reference speed.
//!
//! On the shared VM the benchmark was built on, three things move a
//! wall-clock timing that have nothing to do with pchls:
//!
//! - *Steal*: when both vCPUs are busy, the hypervisor often runs only
//!   one of them. A sweep's two threads lost 45% of their time to steal
//!   in one run and 2% in the next (`/proc/stat`, field `steal`). The
//!   guest's CPU clocks leave stolen time out, so CPU time is immune.
//! - *Other threads*: beside three busy loops, serve-mix's set-up took
//!   twice its wall time and its saturation phase completed 47% fewer
//!   requests per second, while their CPU time did not move.
//! - *Drift*: the speed a running thread gets moves by tens of percent
//!   over seconds and from run to run, and its CPU time moves with its
//!   wall time (other tenants' load on the cores and caches under the VM).
//!
//! The benchmark therefore times CPU-bound work by CPU time, and runs a
//! fixed calibration probe, independent of pchls, between units of that
//! work. A unit's CPU time is scaled by the probe's reference time over
//! the probe's time around that unit: the time the work would take on the
//! reference host at its usual speed. Work that pchls does faster still
//! reads faster; the host's steal, other threads and drift cancel. Drift
//! also comes from other tenants' memory traffic: in one stretch of
//! minutes, explore's CPU time per design rose by a fifth while a probe
//! of cache-resident arithmetic alone moved 3%. So the probe also
//! allocates and walks a map of about a MiB.
//!
//! What this leaves out is time the program spends waiting rather than
//! computing (wake-ups, lock waits, threads left idle). The units timed
//! this way — a design, a sweep, a set-up, one edit with nothing else in
//! flight, a block of the saturation phase — spend almost none, and
//! their wall-clock figures stay in the per-layer metrics.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::util::median;

/// Table-loop steps and map keys per probe.
const STEPS: usize = 50_000;
const MAP_KEYS: usize = 16_384;

/// Words of the loop's table: 32 KiB, so it stays in the core's own
/// caches and the loop measures the core; the map part of the probe
/// measures memory.
const TABLE_WORDS: usize = 4096;

/// CPU time of one calibration probe on the reference host (a shared
/// 2-core VM, Intel Xeon), in milliseconds: about the median probe of
/// its explore runs. Any fixed value would do; this one keeps scaled
/// times near the host's own.
pub const REFERENCE_MS: f64 = 2.2;

/// Probes on each side of a moment whose median sets the speed there.
const NEIGHBOURS: usize = 4;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the whole call, laid
    // out as the 64-bit Linux `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

/// CPU time the calling thread has consumed.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has consumed.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// The median of the samples nearest to `at` in a time-ordered series:
/// [`NEIGHBOURS`] on each side.
fn near(samples: &[(Instant, f64)], at: Instant) -> f64 {
    assert!(!samples.is_empty(), "no probe ran");
    let i = samples.partition_point(|(t, _)| *t < at);
    let hi = (i + NEIGHBOURS).min(samples.len());
    let lo = i.saturating_sub(NEIGHBOURS).min(hi - 1);
    let near: Vec<f64> = samples[lo..hi].iter().map(|(_, v)| *v).collect();
    median(&near)
}

/// Random read-modify-writes into a small table plus a dependent
/// floating-point chain: integer, memory and FP work in one loop.
fn calibration_loop(table: &mut [u64], steps: usize) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut f = 1.0_f64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        table[i] = table[i].wrapping_add(x);
        f = f * 0.999_999 + (table[i] & 0xff) as f64 * 1e-9;
    }
    x ^ f.to_bits()
}

/// Builds an ordered map of `keys` pseudo-random keys, walks it and
/// sorts its keys: allocation and pointer chasing over about a MiB, the
/// memory traffic pchls makes and the table loop does not.
fn collections_loop(keys: usize) -> u64 {
    let mut map = std::collections::BTreeMap::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..keys as u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, i);
    }
    let walk = map.iter().fold(0u64, |acc, (k, v)| acc.wrapping_add(k ^ v));
    let mut sorted: Vec<u64> = map.into_keys().map(|k| k.rotate_left(17)).collect();
    sorted.sort_unstable();
    walk ^ sorted[keys / 2]
}

/// Calibration probes of the host's speed over one run, made on one
/// thread.
pub struct Speed {
    table: Vec<u64>,
    /// When each probe ran and its CPU time in milliseconds.
    cpu: Vec<(Instant, f64)>,
}

impl Speed {
    pub fn new() -> Speed {
        Speed {
            table: vec![1; TABLE_WORDS],
            cpu: Vec::new(),
        }
    }

    /// Runs the calibration loop once, after a short pass that brings its
    /// table back into cache, and records its CPU time.
    pub fn probe(&mut self) {
        black_box(calibration_loop(&mut self.table, TABLE_WORDS));
        let (at, cpu0) = (Instant::now(), thread_cpu());
        black_box(calibration_loop(&mut self.table, STEPS));
        black_box(collections_loop(MAP_KEYS));
        self.cpu
            .push((at, (thread_cpu() - cpu0).as_secs_f64() * 1e3));
    }

    /// The CPU-time scale at `at`: the reference time over the median of
    /// the probes nearest to `at`. Above 1 when the host ran faster than
    /// the reference, below 1 when slower.
    pub fn scale_at(&self, at: Instant) -> f64 {
        REFERENCE_MS / near(&self.cpu, at)
    }

    /// `cpu` of work that started at `at`, at the reference speed, in
    /// milliseconds.
    pub fn scaled_ms(&self, at: Instant, cpu: Duration) -> f64 {
        cpu.as_secs_f64() * 1e3 * self.scale_at(at)
    }

    /// The median CPU time of the run's probes, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.cpu.iter().map(|(_, ms)| *ms).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_nearest_probes() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut speed = Speed::new();
        // Reference speed for ten probes, then half speed for ten.
        for i in 0..10 {
            speed.cpu.push((at(i), REFERENCE_MS));
        }
        for i in 10..20 {
            speed.cpu.push((at(i), 2.0 * REFERENCE_MS));
        }
        assert_eq!(speed.scale_at(at(2)), 1.0);
        assert_eq!(speed.scale_at(at(17)), 0.5);
        assert_eq!(speed.scale_at(at(1000)), 0.5);
        assert_eq!(speed.scaled_ms(at(17), Duration::from_millis(8)), 4.0);
    }

    #[test]
    fn probes_measure() {
        let (t0, p0) = (thread_cpu(), process_cpu());
        let mut speed = Speed::new();
        speed.probe();
        assert!(thread_cpu() > t0 && process_cpu() > p0);
        assert!(speed.median_ms() > 0.0);
    }
}
