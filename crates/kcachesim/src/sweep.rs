//! Parameter sweeps behind the Fig 8 panels.
//!
//! Each sweep is one [`drive_grid`] call: one L1–LLC pass over the trace,
//! then one DRAM-cache replay of its LLC misses per point, priced under
//! one system. Callers that price several systems, or fan the points out
//! over worker threads, call [`drive_grid`] directly.

use crate::grid::{drive_grid, DramGeometry};
use crate::model::{AmatResult, SystemModel};
use kona_trace::Trace;
use kona_types::Jobs;

/// One point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter's value (cache %, block bytes, or ways).
    pub x: f64,
    /// Result at this point.
    pub result: AmatResult,
}

/// Drives `points` as one grid and prices each under `system`.
fn sweep(
    trace: &Trace,
    system: &SystemModel,
    points: impl Iterator<Item = (f64, DramGeometry)>,
) -> Vec<SweepPoint> {
    let (xs, geometries): (Vec<f64>, Vec<DramGeometry>) = points.unzip();
    let counts = drive_grid(trace, &geometries, Jobs::serial());
    xs.into_iter()
        .zip(&counts)
        .map(|(x, c)| SweepPoint {
            x,
            result: system.price(c),
        })
        .collect()
}

/// Sweeps the DRAM-cache size as a percentage of the trace footprint
/// (Fig 8a–c x-axis). `percents` are in `[0, 100]`.
///
/// # Panics
///
/// Panics if the trace is empty.
pub fn sweep_cache_size(
    trace: &Trace,
    system: &SystemModel,
    percents: &[u32],
    block_size: u64,
    ways: usize,
) -> Vec<SweepPoint> {
    let points = percents.iter().map(|&pct| {
        let x = f64::from(pct);
        (x, DramGeometry::new(x / 100.0, block_size, ways))
    });
    sweep(trace, system, points)
}

/// Sweeps the DRAM-cache block size (Fig 8d x-axis) at a fixed cache
/// fraction. Block sizes must be powers of two.
///
/// # Panics
///
/// Panics if the trace is empty.
pub fn sweep_block_size(
    trace: &Trace,
    system: &SystemModel,
    block_sizes: &[u64],
    cache_frac: f64,
    ways: usize,
) -> Vec<SweepPoint> {
    let points = block_sizes
        .iter()
        .map(|&bs| (bs as f64, DramGeometry::new(cache_frac, bs, ways)));
    sweep(trace, system, points)
}

/// Sweeps the DRAM-cache associativity ("we found that the associativity
/// does not significantly impact overall latency", §6.2).
///
/// # Panics
///
/// Panics if the trace is empty.
pub fn sweep_associativity(
    trace: &Trace,
    system: &SystemModel,
    ways_list: &[usize],
    cache_frac: f64,
    block_size: u64,
) -> Vec<SweepPoint> {
    let points = ways_list
        .iter()
        .map(|&ways| (ways as f64, DramGeometry::new(cache_frac, block_size, ways)));
    sweep(trace, system, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kona_trace::TraceEvent;
    use kona_types::{MemAccess, Nanos, VirtAddr};

    fn zipf_like_trace() -> Trace {
        // Skewed random accesses over 4 MiB.
        let mut t = Trace::new();
        let mut x = 99u64;
        for i in 0..30_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Square the uniform draw to skew towards low addresses.
            let u = ((x >> 33) as f64) / (u32::MAX as f64 / 2.0).max(1.0);
            let addr = ((u * u) * (4 << 20) as f64) as u64 % (4 << 20);
            t.push(TraceEvent::new(
                Nanos::from_ns(i),
                MemAccess::read(VirtAddr::new(addr), 8),
            ));
        }
        t
    }

    #[test]
    fn amat_decreases_with_cache_size() {
        let t = zipf_like_trace();
        let pts = sweep_cache_size(&t, &SystemModel::legoos(), &[0, 25, 50, 100], 4096, 4);
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(
                w[1].result.amat_ns <= w[0].result.amat_ns + 1e-9,
                "AMAT should not increase with cache size: {} -> {}",
                w[0].result.amat_ns,
                w[1].result.amat_ns
            );
        }
    }

    #[test]
    fn kona_degrades_slower_than_legoos() {
        let t = zipf_like_trace();
        let kona = sweep_cache_size(&t, &SystemModel::kona(), &[25, 100], 4096, 4);
        let lego = sweep_cache_size(&t, &SystemModel::legoos(), &[25, 100], 4096, 4);
        let kona_slope = kona[0].result.amat_ns / kona[1].result.amat_ns;
        let lego_slope = lego[0].result.amat_ns / lego[1].result.amat_ns;
        assert!(
            lego_slope > kona_slope,
            "LegoOS should degrade faster: kona {kona_slope:.2} lego {lego_slope:.2}"
        );
    }

    #[test]
    fn block_size_sweep_has_interior_optimum_shape() {
        let t = zipf_like_trace();
        let pts = sweep_block_size(
            &t,
            &SystemModel::kona(),
            &[64, 256, 1024, 4096, 16384],
            0.27,
            4,
        );
        assert_eq!(pts.len(), 5);
        // Tiny blocks miss spatial locality; huge blocks conflict: the
        // minimum should not be at either extreme for a skewed workload.
        let best = pts
            .iter()
            .min_by(|a, b| a.result.amat_ns.total_cmp(&b.result.amat_ns))
            .unwrap();
        assert!(best.x > 64.0, "64 B blocks should not win, best={}", best.x);
    }

    #[test]
    fn associativity_barely_matters() {
        let t = zipf_like_trace();
        let pts = sweep_associativity(&t, &SystemModel::kona(), &[1, 2, 4, 8], 0.5, 4096);
        let min = pts
            .iter()
            .map(|p| p.result.amat_ns)
            .fold(f64::INFINITY, f64::min);
        let max = pts
            .iter()
            .map(|p| p.result.amat_ns)
            .fold(0.0f64, f64::max);
        assert!(
            max / min < 1.8,
            "associativity impact should be modest: {min:.1}..{max:.1}"
        );
    }
}
