//! A tiny wall-clock micro-benchmark harness.
//!
//! The workspace builds with no external dependencies, so the
//! `benches/` binaries use this `std::time::Instant`-based harness
//! instead of criterion. It keeps the same shape — named groups, per-case
//! throughput, warm-up then timed samples — and prints one line per case:
//!
//! ```text
//! rdma/post_chain_256x64B            12.3 µs/iter   20.8 Melem/s
//! ```
//!
//! Results are informational (simulator host cost); nothing gates on
//! them, so the harness favors short runs over statistical rigor.

use kona_types::Nanos;
use std::time::{Duration, Instant};

/// Amdahl-style serial-fraction contention model for multi-threaded
/// experiment projections.
///
/// Threads share hardware: Kona's VFMem fills serialize in the FPGA's
/// (soft-logic) directory — the §4.3 overhead the paper expects to shrink
/// once "this logic can be hardened" — while a VM baseline's fault handlers
/// serialize on kernel locks but overlap their long network round-trips.
/// A run's wall clock scales by `1 + serial_frac × (threads − 1)`.
///
/// # Examples
///
/// ```
/// use kona_bench::ContentionModel;
/// use kona_types::Nanos;
///
/// let m = ContentionModel::KONA;
/// assert_eq!(m.contended(Nanos::from_ns(1000), 1), Nanos::from_ns(1000));
/// assert!(m.contended(Nanos::from_ns(1000), 4) > Nanos::from_ns(1000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// Fraction of a thread's work serialized against its peers.
    pub serial_frac: f64,
}

impl ContentionModel {
    /// Kona's VFMem-directory serialization (calibrated so the paper's
    /// 6.6X single-thread advantage eases to 4-5X at four threads).
    pub const KONA: ContentionModel = ContentionModel { serial_frac: 0.35 };

    /// The VM baselines' kernel-lock serialization (fault handlers overlap
    /// their long network round-trips, so the serial share is smaller).
    pub const VM: ContentionModel = ContentionModel { serial_frac: 0.20 };

    /// A custom serial fraction in `[0, 1]`.
    pub fn new(serial_frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&serial_frac), "fraction out of range");
        ContentionModel { serial_frac }
    }

    /// Projects a single-thread wall time onto `threads` contending
    /// threads.
    pub fn contended(self, wall: Nanos, threads: u64) -> Nanos {
        let factor = 1.0 + self.serial_frac * (threads as f64 - 1.0);
        Nanos::from_ns_f64(wall.as_ns() as f64 * factor)
    }
}

/// Target measurement time per case.
const MEASURE: Duration = Duration::from_millis(300);
/// Target warm-up time per case.
const WARM_UP: Duration = Duration::from_millis(100);

/// A named collection of benchmark cases (mirrors criterion's
/// `BenchmarkGroup`).
pub struct BenchGroup {
    name: String,
    /// Elements processed per iteration, for throughput reporting.
    throughput: Option<u64>,
}

impl BenchGroup {
    /// Starts a group; `finish` ends it (a no-op, for call-site symmetry).
    pub fn new(name: &str) -> Self {
        BenchGroup {
            name: name.to_string(),
            throughput: None,
        }
    }

    /// Sets the per-iteration element count used for throughput lines.
    pub fn throughput_elements(&mut self, elements: u64) {
        self.throughput = Some(elements);
    }

    /// Runs one case: warm up, then time whole iterations until the
    /// measurement budget is spent, and print the mean.
    pub fn bench_function<O>(&mut self, case: &str, mut body: impl FnMut() -> O) {
        let mut iters = 0u32;
        let warm = Instant::now();
        while warm.elapsed() < WARM_UP || iters == 0 {
            std::hint::black_box(body());
            iters += 1;
        }

        let mut samples = 0u32;
        let start = Instant::now();
        while start.elapsed() < MEASURE || samples == 0 {
            std::hint::black_box(body());
            samples += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / f64::from(samples);

        let label = format!("{}/{}", self.name, case);
        let rate = self.throughput.map(|n| n as f64 / per_iter);
        match rate {
            Some(r) => println!(
                "{label:<48} {:>12}/iter {:>14}/s",
                fmt_time(per_iter),
                fmt_count(r)
            ),
            None => println!("{label:<48} {:>12}/iter", fmt_time(per_iter)),
        }
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn fmt_time(secs: f64) -> String {
    let ns = secs * 1e9;
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{secs:.2} s")
    }
}

fn fmt_count(rate: f64) -> String {
    if rate < 1_000.0 {
        format!("{rate:.0} elem")
    } else if rate < 1_000_000.0 {
        format!("{:.1} Kelem", rate / 1_000.0)
    } else {
        format!("{:.1} Melem", rate / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_model() {
        let m = ContentionModel::new(0.5);
        assert_eq!(m.contended(Nanos::from_ns(100), 1), Nanos::from_ns(100));
        assert_eq!(m.contended(Nanos::from_ns(100), 3), Nanos::from_ns(200));
        const { assert!(ContentionModel::KONA.serial_frac > ContentionModel::VM.serial_frac) };
    }

    #[test]
    #[should_panic]
    fn contention_fraction_out_of_range() {
        ContentionModel::new(1.5);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(5e-9), "5.0 ns");
        assert_eq!(fmt_time(2.5e-6), "2.5 µs");
        assert_eq!(fmt_time(3e-3), "3.00 ms");
        assert_eq!(fmt_time(1.5), "1.50 s");
        assert_eq!(fmt_count(500.0), "500 elem");
        assert_eq!(fmt_count(2_500.0), "2.5 Kelem");
        assert_eq!(fmt_count(7_000_000.0), "7.0 Melem");
    }
}
