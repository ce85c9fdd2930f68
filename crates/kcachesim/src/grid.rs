//! Drive once, price many.
//!
//! [`CacheHierarchy`] never back-invalidates, so the L1–LLC outcome of
//! every line is the same whatever DRAM-cache level sits below it. A grid
//! of DRAM-cache geometries therefore needs one L1–LLC pass per trace,
//! which records the on-chip hit counts and the stream of LLC-miss lines.
//! Each geometry then replays only that stream through one
//! [`SetAssocCache`], and [`SystemModel::price`](crate::SystemModel::price)
//! turns the resulting [`LevelCounts`] into an AMAT for any system.

use kona_cache_sim::{CacheConfig, CacheHierarchy, HierarchyConfig, SetAssocCache};
use kona_trace::Trace;
use kona_types::{par_map, Jobs, VirtAddr};

/// One DRAM-cache (4th level) geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramGeometry {
    /// Capacity as a fraction of the trace footprint, in `[0, 1]`; rounded
    /// down to whole sets.
    pub cache_frac: f64,
    /// Block size in bytes (a power of two).
    pub block_size: u64,
    /// Associativity.
    pub ways: usize,
}

impl DramGeometry {
    /// A geometry of `ways`-way sets of `block_size`-byte blocks holding
    /// `cache_frac` of the footprint.
    pub fn new(cache_frac: f64, block_size: u64, ways: usize) -> Self {
        DramGeometry {
            cache_frac,
            block_size,
            ways,
        }
    }
}

/// Line accesses served at each level of one geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCounts {
    /// Hits at L1, L2, LLC and the DRAM cache.
    pub hits: [u64; 4],
    /// Accesses that missed every level and went remote.
    pub memory: u64,
    /// Total line accesses.
    pub total: u64,
}

/// Drives `trace` through the Skylake L1–LLC once, then replays its
/// LLC misses through each geometry, fanned out over `jobs` worker
/// threads. Counts come back in `geometries` order, identical for every
/// job count.
///
/// # Panics
///
/// Panics if the trace is empty or a block size is not a power of two.
pub fn drive_grid(trace: &Trace, geometries: &[DramGeometry], jobs: Jobs) -> Vec<LevelCounts> {
    assert!(!trace.is_empty(), "cannot simulate an empty trace");
    let mut on_chip = CacheHierarchy::new(HierarchyConfig::skylake());
    let mut llc_misses: Vec<VirtAddr> = Vec::new();
    for event in trace.iter() {
        on_chip.access_range_with(event.access, |line| llc_misses.push(line));
    }
    let footprint = trace.address_span();
    let total = on_chip.total_accesses();
    let [l1, l2, llc] = [0, 1, 2].map(|level| on_chip.level_stats(level).hits);
    par_map(jobs, geometries.to_vec(), |_, g| {
        let capacity = dram_capacity(footprint, g.cache_frac, g.block_size, g.ways);
        let mut dram = SetAssocCache::new(
            CacheConfig::new("DRAM-cache", capacity, g.ways, g.block_size)
                .expect("capacity rounded to set multiple"),
        );
        for &line in &llc_misses {
            dram.access(line);
        }
        let stats = dram.stats();
        LevelCounts {
            hits: [l1, l2, llc, stats.hits],
            memory: stats.misses,
            total,
        }
    })
}

/// Rounds a fractional DRAM-cache capacity to a whole number of sets.
pub(crate) fn dram_capacity(footprint: u64, cache_frac: f64, block_size: u64, ways: usize) -> u64 {
    assert!((0.0..=1.0).contains(&cache_frac), "cache_frac in [0,1]");
    let way_bytes = block_size * ways as u64;
    let raw = (footprint as f64 * cache_frac) as u64;
    raw / way_bytes * way_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use kona_trace::TraceEvent;
    use kona_types::rng::{Rng, StdRng};
    use kona_types::{MemAccess, Nanos};

    /// Seeded mix of short and page-crossing reads and writes over 48 MiB,
    /// larger than the 22 MiB LLC so the DRAM-cache level sees traffic.
    fn seeded_trace() -> Trace {
        let mut rng = StdRng::seed_from_u64(0x6D1D);
        let mut t = Trace::new();
        for i in 0..60_000u64 {
            let addr = rng.gen_range(0u64..(48 << 20));
            let len = if rng.gen_bool(0.1) { 6000 } else { 8 };
            let access = if rng.gen_bool(0.3) {
                MemAccess::write(VirtAddr::new(addr), len)
            } else {
                MemAccess::read(VirtAddr::new(addr), len)
            };
            t.push(TraceEvent::new(Nanos::from_ns(i), access));
        }
        t
    }

    /// The reference: a full four-level replay of every trace line.
    fn full_replay(trace: &Trace, g: DramGeometry) -> LevelCounts {
        let capacity = dram_capacity(trace.address_span(), g.cache_frac, g.block_size, g.ways);
        let config = HierarchyConfig::skylake_with_fmem(capacity, g.ways, g.block_size).unwrap();
        let mut hierarchy = CacheHierarchy::new(config);
        for event in trace.iter() {
            hierarchy.access_range(event.access);
        }
        LevelCounts {
            hits: [0, 1, 2, 3].map(|level| hierarchy.level_stats(level).hits),
            memory: hierarchy.memory_accesses(),
            total: hierarchy.total_accesses(),
        }
    }

    #[test]
    fn drive_once_matches_full_four_level_replay() {
        let trace = seeded_trace();
        let geometries = [
            // 0% capacity: every LLC miss goes remote.
            DramGeometry::new(0.0, 4096, 4),
            // 25% of the span in 4 KiB × 3-way sets: a set count that is
            // not a power of two.
            DramGeometry::new(0.25, 4096, 3),
            DramGeometry::new(0.5, 64, 4),
            DramGeometry::new(0.5, 32 * 1024, 4),
            DramGeometry::new(0.3, 4096, 1),
            DramGeometry::new(0.3, 4096, 8),
            DramGeometry::new(1.0, 4096, 4),
        ];
        let span = trace.address_span();
        let sets = dram_capacity(span, 0.25, 4096, 3) / (4096 * 3);
        assert!(!sets.is_power_of_two(), "{sets} sets");

        let grid = drive_grid(&trace, &geometries, Jobs::new(2));
        for (g, counts) in geometries.iter().zip(&grid) {
            let reference = full_replay(&trace, *g);
            assert_eq!(*counts, reference, "{g:?}");
            assert!(
                reference.hits[3] > 0 || g.cache_frac == 0.0,
                "{g:?} never hit"
            );
        }
        assert_eq!(grid[0].hits[3], 0);
    }
}
