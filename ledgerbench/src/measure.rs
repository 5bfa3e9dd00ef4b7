//! Measurement primitives: order statistics, the fine-grained span clock,
//! the repetition loop, peak memory, and the injected slowdown used by
//! the sensitivity proof.

use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`
/// (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `rep` at least `min` times, then again while another
/// repetition of average length would end less than half a repetition
/// past `budget`. Stops at the first error.
pub fn repeat_for<E>(
    budget: Duration,
    min: usize,
    mut rep: impl FnMut() -> Result<(), E>,
) -> Result<(), E> {
    let start = Instant::now();
    let mut n = 0;
    loop {
        if n >= min.max(1) {
            let spent = start.elapsed();
            if spent + spent / (2 * n as u32) >= budget {
                return Ok(());
            }
        }
        rep()?;
        n += 1;
    }
}

/// Runs `f` `reps` times and returns the last result with the median
/// wall time in seconds — the set-up measurement of every workload.
/// Each result is dropped, untimed, before the next set-up starts, so
/// peak memory holds one set-up's worth however many repetitions run.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up repetition"),
        median(&times),
    )
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Busy-waits for `frac` × `elapsed`: the injected slowdown of the
/// sensitivity proof. A zero `frac` returns at once.
pub fn inject(frac: f64, elapsed: Duration) {
    if frac <= 0.0 {
        return;
    }
    let until = Instant::now() + elapsed.mul_f64(frac);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// A cheap monotonic tick counter for spans around single operations,
/// where `Instant::now` would cost more than the work it times. On
/// x86-64 it reads the time-stamp counter; elsewhere it falls back to
/// nanoseconds since the clock's creation.
#[derive(Debug, Clone, Copy)]
pub struct Ticks {
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    epoch: Instant,
    ns_per_tick: f64,
    /// Ticks one `now()` call adds to a span that encloses it.
    pub overhead: u64,
}

impl Ticks {
    /// Calibrates the tick rate against `Instant` over ~20 ms and the
    /// per-read overhead over a million back-to-back reads.
    pub fn calibrate() -> Ticks {
        let mut clock = Ticks {
            epoch: Instant::now(),
            ns_per_tick: 1.0,
            overhead: 0,
        };
        let (t0, c0) = (Instant::now(), clock.now());
        while t0.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let (ns, ticks) = (t0.elapsed().as_nanos() as f64, clock.now() - c0);
        clock.ns_per_tick = ns / ticks.max(1) as f64;
        const READS: u64 = 1_000_000;
        let start = clock.now();
        for _ in 0..READS {
            std::hint::black_box(clock.now());
        }
        clock.overhead = (clock.now() - start) / READS;
        clock
    }

    /// The current tick.
    #[inline]
    pub fn now(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: RDTSC has no preconditions; it reads a counter that
            // every x86-64 processor provides.
            unsafe { core::arch::x86_64::_rdtsc() }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.epoch.elapsed().as_nanos() as u64
        }
    }

    /// Converts a tick count to nanoseconds.
    pub fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ticks_advance_and_convert() {
        let clock = Ticks::calibrate();
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        let ns = clock.ns(clock.now() - a);
        assert!(ns > 1.0e6, "2 ms read as {ns} ns");
    }
}
