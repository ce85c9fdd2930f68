//! A multi-level cache hierarchy.

use crate::cache::{CacheStats, SetAssocCache};
use crate::config::HierarchyConfig;
use kona_types::{AccessKind, MemAccess, VirtAddr, CACHE_LINE_SIZE};

/// Statistics for one hierarchy level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Hits at this level (accesses satisfied here).
    pub hits: u64,
    /// Misses at this level (passed on to the next level / memory).
    pub misses: u64,
}

impl LevelStats {
    /// Local miss ratio of this level.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A non-inclusive multi-level hierarchy: each access probes level by level
/// until it hits; missed levels install the block on the way back.
///
/// Accesses wider than a cache line are split into one probe per line, as a
/// real CPU would issue them.
///
/// # Examples
///
/// ```
/// # use kona_cache_sim::{CacheHierarchy, HierarchyConfig};
/// # use kona_types::{AccessKind, VirtAddr};
/// let mut h = CacheHierarchy::new(HierarchyConfig::skylake());
/// h.access(VirtAddr::new(0), AccessKind::Read);
/// assert_eq!(h.memory_accesses(), 1);
/// h.access(VirtAddr::new(0), AccessKind::Write);
/// assert_eq!(h.level_stats(0).hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    levels: Vec<SetAssocCache>,
    level_stats: Vec<LevelStats>,
    memory_accesses: u64,
    total_line_accesses: u64,
}

impl CacheHierarchy {
    /// Builds a hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        let levels: Vec<_> = config.levels.into_iter().map(SetAssocCache::new).collect();
        let n = levels.len();
        CacheHierarchy {
            levels,
            level_stats: vec![LevelStats::default(); n],
            memory_accesses: 0,
            total_line_accesses: 0,
        }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Presents an access of one cache line at `addr`. Returns the level
    /// index that satisfied it, or `None` for memory.
    pub fn access(&mut self, addr: VirtAddr, _kind: AccessKind) -> Option<usize> {
        self.total_line_accesses += 1;
        let mut hit_level = None;
        for (i, cache) in self.levels.iter_mut().enumerate() {
            if cache.access(addr).is_hit() {
                self.level_stats[i].hits += 1;
                hit_level = Some(i);
                break;
            }
            self.level_stats[i].misses += 1;
        }
        if hit_level.is_none() {
            self.memory_accesses += 1;
        }
        hit_level
    }

    /// Presents a multi-byte access, splitting it into per-line probes.
    /// Returns the number of lines that had to go all the way to memory.
    pub fn access_range(&mut self, access: MemAccess) -> u64 {
        let mut mem = 0;
        self.access_range_with(access, |_| mem += 1);
        mem
    }

    /// [`access_range`](Self::access_range) that hands each line that
    /// missed every level to `on_miss`, in access order.
    pub fn access_range_with(&mut self, access: MemAccess, mut on_miss: impl FnMut(VirtAddr)) {
        let end = access.end().raw();
        let mut addr = access.addr.line_start().raw();
        loop {
            let line = VirtAddr::new(addr);
            if self.access(line, access.kind).is_none() {
                on_miss(line);
            }
            addr += CACHE_LINE_SIZE;
            if addr >= end {
                break;
            }
        }
    }

    /// Statistics for level `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= depth()`.
    pub fn level_stats(&self, i: usize) -> LevelStats {
        self.level_stats[i]
    }

    /// Raw per-cache statistics for level `i` (includes evictions).
    ///
    /// # Panics
    ///
    /// Panics if `i >= depth()`.
    pub fn cache_stats(&self, i: usize) -> CacheStats {
        self.levels[i].stats()
    }

    /// Name of level `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= depth()`.
    pub fn level_name(&self, i: usize) -> &str {
        self.levels[i].config().name()
    }

    /// Accesses that missed every level and went to memory (for Kona this
    /// means *remote* memory; for baselines, local DRAM or remote).
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Total line-granularity accesses presented.
    pub fn total_accesses(&self) -> u64 {
        self.total_line_accesses
    }

    /// Fraction of accesses satisfied at each level, plus memory, in order
    /// `[level0, level1, ..., memory]`. Sums to 1 (when any access was made).
    pub fn hit_fractions(&self) -> Vec<f64> {
        let total = self.total_line_accesses as f64;
        if total == 0.0 {
            return vec![0.0; self.depth() + 1];
        }
        let mut f: Vec<f64> = self
            .level_stats
            .iter()
            .map(|s| s.hits as f64 / total)
            .collect();
        f.push(self.memory_accesses as f64 / total);
        f
    }

    /// Clears all contents and statistics.
    pub fn reset(&mut self) {
        for c in &mut self.levels {
            c.reset();
        }
        self.level_stats.iter_mut().for_each(|s| *s = LevelStats::default());
        self.memory_accesses = 0;
        self.total_line_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use kona_types::rng::{Rng, StdRng};

    fn tiny() -> CacheHierarchy {
        // L1: 2 blocks, L2: 4 blocks.
        CacheHierarchy::new(HierarchyConfig {
            levels: vec![
                CacheConfig::new("L1", 128, 2, 64).unwrap(),
                CacheConfig::new("L2", 256, 4, 64).unwrap(),
            ],
        })
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut h = tiny();
        assert_eq!(h.access(VirtAddr::new(0), AccessKind::Read), None);
        assert_eq!(h.memory_accesses(), 1);
        assert_eq!(h.level_stats(0).misses, 1);
        assert_eq!(h.level_stats(1).misses, 1);
    }

    #[test]
    fn warm_hit_at_l1() {
        let mut h = tiny();
        h.access(VirtAddr::new(0), AccessKind::Read);
        assert_eq!(h.access(VirtAddr::new(0), AccessKind::Read), Some(0));
        assert_eq!(h.level_stats(0).hits, 1);
        // L2 not consulted on L1 hit.
        assert_eq!(h.level_stats(1).misses, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = tiny();
        // Fill L1's single set (both ways map everywhere since 1 set? —
        // L1 here has 1 set of 2 ways).
        h.access(VirtAddr::new(0), AccessKind::Read);
        h.access(VirtAddr::new(64), AccessKind::Read);
        h.access(VirtAddr::new(128), AccessKind::Read); // evicts 0 from L1
        assert_eq!(h.access(VirtAddr::new(0), AccessKind::Read), Some(1));
    }

    #[test]
    fn access_range_splits_lines() {
        let mut h = tiny();
        let missed = h.access_range(MemAccess::read(VirtAddr::new(0), 256));
        assert_eq!(missed, 4);
        assert_eq!(h.total_accesses(), 4);
        // Second pass: lines 2 and 3 still in L1 (2 ways), 0 and 1 in L2.
        let missed = h.access_range(MemAccess::read(VirtAddr::new(0), 256));
        assert_eq!(missed, 0);
    }

    #[test]
    fn access_range_single_byte() {
        let mut h = tiny();
        assert_eq!(h.access_range(MemAccess::write(VirtAddr::new(100), 1)), 1);
        assert_eq!(h.total_accesses(), 1);
    }

    #[test]
    fn hit_fractions_sum_to_one() {
        let mut h = tiny();
        for i in 0..32 {
            h.access(VirtAddr::new(i * 64), AccessKind::Read);
        }
        for i in 0..32 {
            h.access(VirtAddr::new(i * 64), AccessKind::Read);
        }
        let f = h.hit_fractions();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut h = tiny();
        h.access(VirtAddr::new(0), AccessKind::Read);
        h.reset();
        assert_eq!(h.memory_accesses(), 0);
        assert_eq!(h.total_accesses(), 0);
        assert_eq!(h.access(VirtAddr::new(0), AccessKind::Read), None);
    }

    #[test]
    fn level_names() {
        let h = tiny();
        assert_eq!(h.level_name(0), "L1");
        assert_eq!(h.level_name(1), "L2");
        assert_eq!(h.depth(), 2);
    }

    #[test]
    fn empty_hierarchy_fractions() {
        let h = tiny();
        assert_eq!(h.hit_fractions(), vec![0.0, 0.0, 0.0]);
    }

    /// Flow conservation: accesses entering level i+1 equal level i's
    /// misses, and level hits plus memory accesses equal the total.
    #[test]
    fn prop_flow_conservation() {
        let mut rng = StdRng::seed_from_u64(0xF10);
        for _ in 0..64 {
            let addrs: Vec<u64> = (0..rng.gen_range(1usize..400))
                .map(|_| rng.gen_range(0u64..(1 << 16)))
                .collect();
            let mut h = tiny();
            for &a in &addrs {
                h.access(VirtAddr::new(a), AccessKind::Read);
            }
            let total = h.total_accesses();
            assert_eq!(total, addrs.len() as u64);
            // L1 sees everything.
            let l1 = h.level_stats(0);
            assert_eq!(l1.hits + l1.misses, total);
            // L2 sees exactly L1's misses.
            let l2 = h.level_stats(1);
            assert_eq!(l2.hits + l2.misses, l1.misses);
            // Memory sees exactly the last level's misses.
            assert_eq!(h.memory_accesses(), l2.misses);
            // All hits plus memory equal the total.
            assert_eq!(l1.hits + l2.hits + h.memory_accesses(), total);
        }
    }

    #[test]
    fn fmem_level_page_block_exploits_spatial_locality() {
        // Hierarchy of just an FMem-like page cache: a miss on one line
        // makes the whole page resident.
        let mut h = CacheHierarchy::new(HierarchyConfig {
            levels: vec![CacheConfig::new("FMem", 16 * 4096, 4, 4096).unwrap()],
        });
        assert_eq!(h.access(VirtAddr::new(0), AccessKind::Read), None);
        assert_eq!(h.access(VirtAddr::new(2048), AccessKind::Read), Some(0));
    }
}
