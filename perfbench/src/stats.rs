//! Order statistics, digests and process measurements shared by every
//! workload.

/// The tail percentile reported as `op_p999_us`, when enough samples
/// allow it.
pub const TAIL_Q: f64 = 0.999;
/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of sorted samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The tail quantile the sample count supports: [`TAIL_Q`] when at least
/// [`MIN_BEYOND`] samples lie beyond it, else the highest quantile that
/// leaves that many beyond, and never below the median (a count too small
/// for any tail reports the median).
pub fn tail_q(n: usize) -> f64 {
    if n <= 2 * MIN_BEYOND {
        return 0.5;
    }
    let supported = (n - MIN_BEYOND) as f64 / n as f64;
    supported.clamp(0.5, TAIL_Q)
}

/// Samples strictly beyond quantile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((n as f64 * q).ceil() as usize).min(n)
}

/// Median and tail of one round's per-call host times, in ns.
#[derive(Debug, Clone, Copy)]
pub struct CallPercentiles {
    /// Median call time.
    pub p50_ns: f64,
    /// Call time at [`tail_q`] of the sample count.
    pub tail_ns: f64,
    /// The quantile `tail_ns` sits at.
    pub tail_q: f64,
    /// Calls timed.
    pub n: usize,
}

/// Quantile `q` of sorted whole-nanosecond samples, read as grouped data:
/// each integer `v` stands for the interval `[v - 0.5, v + 0.5)`, and the
/// quantile interpolates linearly inside the interval it falls in. Timer
/// readings are whole ns, so ties are common; this keeps the estimate
/// continuous instead of snapping to a tied value.
pub fn quantile_grouped(sorted: &[u64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let pos = (n as f64 * q.clamp(0.0, 1.0)).min(n as f64);
    let v = sorted[(pos as usize).min(n - 1)];
    let below = sorted.partition_point(|&x| x < v);
    let upto = sorted.partition_point(|&x| x <= v);
    let within = ((pos - below as f64) / (upto - below) as f64).clamp(0.0, 1.0);
    v as f64 - 0.5 + within
}

/// Percentiles of one round's per-call host times (ns).
pub fn call_percentiles(samples: &[u64]) -> CallPercentiles {
    assert!(!samples.is_empty(), "a round times at least one call");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let q = tail_q(v.len());
    CallPercentiles {
        p50_ns: quantile_grouped(&v, 0.5),
        tail_ns: quantile_grouped(&v, q),
        tail_q: q,
        n: v.len(),
    }
}

/// Failed share of attempted operations. Throttled serve calls are load
/// shedding the workload asks for; callers never count them as failures.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "a run attempts at least one operation");
    failed as f64 / attempted as f64
}

/// FNV-1a: the digest of a round's simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }

    /// Folds an `f64` by its bits (simulated values are deterministic, so
    /// exact bits compare).
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Folds a byte string.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// The digest value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // Large rounds report p99.9 itself, with at least ten beyond.
        assert_eq!(tail_q(1_000_000), TAIL_Q);
        assert!(beyond(1_000_000, TAIL_Q) >= MIN_BEYOND);
        assert_eq!(tail_q(10_000), TAIL_Q);
        assert_eq!(beyond(10_000, TAIL_Q), 10);
        // Smaller rounds fall back to the highest quantile that still
        // leaves ten beyond.
        for n in [21, 59, 100, 5_000, 9_999] {
            let q = tail_q(n);
            assert!((0.5..TAIL_Q).contains(&q), "n={n} q={q}");
            assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
        // Too few for any tail: the median.
        assert_eq!(tail_q(1), 0.5);
        assert_eq!(tail_q(20), 0.5);
    }

    #[test]
    fn call_percentiles_report_count_and_quantile() {
        let samples: Vec<u64> = (1..=100_000).collect();
        let p = call_percentiles(&samples);
        assert_eq!(p.n, 100_000);
        assert_eq!(p.tail_q, TAIL_Q);
        assert!((p.p50_ns - 50_000.5).abs() < 1e-6);
        assert!(p.tail_ns > 99_890.0 && p.tail_ns < 99_910.0);
        let one = call_percentiles(&[7]);
        assert_eq!((one.p50_ns, one.tail_ns, one.n), (7.0, 7.0, 1));
    }

    #[test]
    fn grouped_quantile_spreads_ties_over_their_interval() {
        // 100 samples tied at 10 cover [9.5, 10.5): the median sits at
        // the tie's midpoint, and moving the tie's share moves it.
        assert_eq!(quantile_grouped(&[10; 100], 0.5), 10.0);
        let mut v = vec![9; 25];
        v.extend([10; 75]);
        assert!((quantile_grouped(&v, 0.5) - (9.5 + 25.0 / 75.0)).abs() < 1e-12);
        assert_eq!(quantile_grouped(&[1, 2, 3], 1.0), 3.5);
    }

    #[test]
    fn failed_frac_counts_only_failures() {
        assert_eq!(failed_frac(0, 10), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = Digest::default().word(1).word(2).get();
        let b = Digest::default().word(2).word(1).get();
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().word(1).word(2).get());
    }
}
