//! The tracker driver: windowed runs in snapshot or write-protect mode.

use crate::memory::AppMemory;
use crate::snapshot::SnapshotStore;
use kona_trace::{Trace, Windows};
use kona_types::{FxHashSet, Nanos, PageNumber, CACHE_LINE_SIZE, PAGE_SIZE_4K};
use kona_vm_sim::PmlLog;

/// Cost of one write-protection (minor) page fault.
const WP_FAULT: Nanos = Nanos::micros(3);
/// Cost of re-protecting one page at a window boundary (PTE update + TLB
/// invalidation).
const REPROTECT: Nanos = Nanos::from_ns(700);

/// Which tracking mechanism to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackingMode {
    /// Kona's coherence-based cache-line tracking, emulated by snapshot
    /// diffing. No application-visible overhead is charged: the hardware
    /// tracks writebacks for free.
    Coherence,
    /// Virtual-memory write protection: a minor fault on the first write
    /// to each page per window, plus per-page re-protection work at each
    /// window boundary.
    WriteProtect,
    /// Intel Page Modification Logging (related work, §8): hardware logs
    /// dirty pages in 512-entry batches — no write faults, but still page
    /// granularity, plus a per-page D-bit reset at each window boundary.
    Pml,
}

/// Cost of clearing one page's EPT dirty bit at a window boundary (PML
/// tracking reset).
const PML_DBIT_RESET: Nanos = Nanos::from_ns(100);

/// Per-window measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowReport {
    /// Window index.
    pub window: usize,
    /// Pages dirtied in the window.
    pub dirty_pages: usize,
    /// Dirty cache lines found by diffing.
    pub dirty_lines: usize,
    /// 4 KiB-page tracked bytes over cache-line tracked bytes — the Fig 9
    /// y-axis.
    pub amplification_ratio: f64,
    /// Tracking overhead charged to the application in this window
    /// (nonzero only in write-protect mode).
    pub tracking_overhead: Nanos,
}

/// Whole-run results.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerReport {
    /// Mode the run used.
    pub mode: TrackingMode,
    /// Per-window series (windows with no writes are omitted, as in the
    /// paper's plots).
    pub windows: Vec<WindowReport>,
    /// Total application time: the trace's wall-clock duration plus all
    /// tracking overhead.
    pub total_time: Nanos,
    /// Emulation overhead: bytes copied + compared by the snapshot
    /// machinery (§6.3's simulation-overhead accounting).
    pub emulation_bytes: u64,
}

impl TrackerReport {
    /// Total tracking overhead across windows.
    pub fn total_overhead(&self) -> Nanos {
        self.windows.iter().map(|w| w.tracking_overhead).sum()
    }

    /// Dirty-byte-weighted mean of the per-window amplification ratios.
    pub fn mean_amplification_ratio(&self) -> f64 {
        let total: usize = self.windows.iter().map(|w| w.dirty_lines).sum();
        if total == 0 {
            return 0.0;
        }
        self.windows
            .iter()
            .map(|w| w.amplification_ratio * w.dirty_lines as f64 / total as f64)
            .sum()
    }
}

/// Computes the Fig 10 metric: the speedup of coherence-based tracking
/// relative to write-protection, in percent.
pub fn speedup_percent(coherence: &TrackerReport, write_protect: &TrackerReport) -> f64 {
    let wp = write_protect.total_time.as_ns() as f64;
    let coh = coherence.total_time.as_ns() as f64;
    if wp == 0.0 {
        return 0.0;
    }
    (wp - coh) / wp * 100.0
}

/// The KTracker driver.
///
/// # Examples
///
/// ```
/// # use kona_ktracker::{KTracker, TrackingMode};
/// # use kona_trace::{Trace, TraceEvent};
/// # use kona_types::{MemAccess, Nanos, VirtAddr};
/// let mut t = Trace::new();
/// t.push(TraceEvent::new(Nanos::ZERO, MemAccess::write(VirtAddr::new(0), 8)));
/// let report = KTracker::new(Nanos::secs(1)).run(&t, TrackingMode::Coherence);
/// assert_eq!(report.windows.len(), 1);
/// assert_eq!(report.windows[0].dirty_lines, 1);
/// ```
#[derive(Debug, Clone)]
pub struct KTracker {
    window_width: Nanos,
}

impl KTracker {
    /// Creates a tracker with the given window width (the paper uses 1 s).
    pub fn new(window_width: Nanos) -> Self {
        KTracker { window_width }
    }

    /// Runs a trace in the given mode: one [`walk`](Self::walk) priced
    /// under `mode`.
    pub fn run(&self, trace: &Trace, mode: TrackingMode) -> TrackerReport {
        self.walk(trace).price(mode)
    }

    /// Walks a trace once through memory and snapshots, recording what
    /// every tracking mode prices: each window's dirty pages, dirty lines
    /// and written-page set.
    pub fn walk(&self, trace: &Trace) -> TrackerWalk {
        let mut memory = AppMemory::new();
        let mut snapshots = SnapshotStore::new();
        let mut windows = Vec::new();

        for (window, events) in Windows::new(trace, self.window_width).iter().enumerate() {
            let mut written_pages = FxHashSet::default();
            for e in events {
                if e.access.kind.is_write() {
                    let first = e.access.addr.raw() / PAGE_SIZE_4K;
                    let last = (e.access.end().raw() - 1) / PAGE_SIZE_4K;
                    written_pages.extend(first..=last);
                }
                memory.apply(e.access);
            }
            let dirty = snapshots.diff(&memory);
            if !dirty.is_empty() {
                let dirty_pages = dirty.len();
                let dirty_lines: usize = dirty.values().map(|bm| bm.count_set()).sum();
                let page_bytes = dirty_pages as u64 * PAGE_SIZE_4K;
                let line_bytes = dirty_lines as u64 * CACHE_LINE_SIZE;
                let report = WindowReport {
                    window,
                    dirty_pages,
                    dirty_lines,
                    amplification_ratio: page_bytes as f64 / line_bytes as f64,
                    tracking_overhead: Nanos::ZERO,
                };
                windows.push((report, written_pages));
            }
            // "KTracker updates its memory snapshot every second."
            snapshots.refresh(&memory);
        }

        let (copied, compared) = snapshots.overhead_bytes();
        TrackerWalk {
            windows,
            duration: trace.duration(),
            emulation_bytes: copied + compared,
        }
    }
}

/// The mode-independent result of [`KTracker::walk`]: every
/// [`TrackingMode`] differs only in the overhead [`price`](Self::price)
/// charges on top of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerWalk {
    /// Per window with writes: its report before any tracking overhead,
    /// and the pages written at least once in it.
    windows: Vec<(WindowReport, FxHashSet<u64>)>,
    /// The trace's wall-clock duration.
    duration: Nanos,
    emulation_bytes: u64,
}

impl TrackerWalk {
    /// Prices the walk under one tracking mode.
    pub fn price(&self, mode: TrackingMode) -> TrackerReport {
        let windows: Vec<WindowReport> = self
            .windows
            .iter()
            .map(|(w, written_pages)| WindowReport {
                tracking_overhead: tracking_overhead(mode, w.dirty_pages, written_pages),
                ..*w
            })
            .collect();
        let overhead: Nanos = windows.iter().map(|w| w.tracking_overhead).sum();
        TrackerReport {
            mode,
            total_time: self.duration + overhead,
            windows,
            emulation_bytes: self.emulation_bytes,
        }
    }
}

/// Overhead `mode` charges the application for one window.
fn tracking_overhead(
    mode: TrackingMode,
    dirty_pages: usize,
    written_pages: &FxHashSet<u64>,
) -> Nanos {
    match mode {
        TrackingMode::Coherence => Nanos::ZERO,
        TrackingMode::WriteProtect => {
            // One minor fault per first-written page, plus re-protection
            // of every dirty page at the window boundary.
            WP_FAULT * written_pages.len() as u64 + REPROTECT * dirty_pages as u64
        }
        TrackingMode::Pml => {
            // Hardware appends + batched VM-exits + D-bit resets.
            let mut pml = PmlLog::new();
            for &page in written_pages {
                pml.record_write(PageNumber(page));
            }
            pml.time_charged() + PML_DBIT_RESET * dirty_pages as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kona_trace::TraceEvent;
    use kona_types::{MemAccess, VirtAddr};

    fn ev(sec: u64, addr: u64, len: u32, write: bool) -> TraceEvent {
        let a = if write {
            MemAccess::write(VirtAddr::new(addr), len)
        } else {
            MemAccess::read(VirtAddr::new(addr), len)
        };
        TraceEvent::new(Nanos::secs(sec), a)
    }

    fn tracker() -> KTracker {
        KTracker::new(Nanos::secs(1))
    }

    #[test]
    fn sparse_writes_have_high_ratio() {
        // One 8-byte write per page in 4 pages: ratio 4096/64 = 64.
        let t: Trace = (0..4).map(|p| ev(0, p * 4096, 8, true)).collect();
        let r = tracker().run(&t, TrackingMode::Coherence);
        assert_eq!(r.windows.len(), 1);
        let w = &r.windows[0];
        assert_eq!(w.dirty_pages, 4);
        assert_eq!(w.dirty_lines, 4);
        assert_eq!(w.amplification_ratio, 64.0);
    }

    #[test]
    fn dense_writes_have_unit_ratio() {
        let t: Trace = vec![ev(0, 0, 4096, true)].into_iter().collect();
        let r = tracker().run(&t, TrackingMode::Coherence);
        assert_eq!(r.windows[0].amplification_ratio, 1.0);
    }

    #[test]
    fn read_only_windows_omitted() {
        let t: Trace = vec![ev(0, 0, 64, false), ev(2, 0, 64, true)].into_iter().collect();
        let r = tracker().run(&t, TrackingMode::Coherence);
        assert_eq!(r.windows.len(), 1);
        assert_eq!(r.windows[0].window, 2);
    }

    #[test]
    fn rewrite_across_windows_counts_again() {
        // Same line written in two windows: dirty in both (it was
        // re-snapshotted in between).
        let t: Trace = vec![ev(0, 0, 8, true), ev(1, 0, 8, true)].into_iter().collect();
        let r = tracker().run(&t, TrackingMode::Coherence);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[1].dirty_lines, 1);
    }

    #[test]
    fn write_protect_charges_faults() {
        let t: Trace = (0..10).map(|p| ev(0, p * 4096, 8, true)).collect();
        let coh = tracker().run(&t, TrackingMode::Coherence);
        let wp = tracker().run(&t, TrackingMode::WriteProtect);
        assert_eq!(coh.total_overhead(), Nanos::ZERO);
        // 10 faults + 10 re-protections.
        assert_eq!(wp.total_overhead(), WP_FAULT * 10 + REPROTECT * 10);
        assert!(speedup_percent(&coh, &wp) > 0.0);
    }

    #[test]
    fn one_fault_per_page_per_window() {
        // 64 writes to the same page in one window: one WP fault.
        let t: Trace = (0..64).map(|l| ev(0, l * 64, 8, true)).collect();
        let wp = tracker().run(&t, TrackingMode::WriteProtect);
        assert_eq!(wp.total_overhead(), WP_FAULT + REPROTECT);
    }

    #[test]
    fn random_speedup_exceeds_sequential() {
        // Sequential: 64 full-page writes to 64 pages, all lines dirty →
        // fault cost amortized over lots of dirty data. Random: 64 sparse
        // writes to 64 pages → same fault cost, tiny dirty data. Relative
        // to the same wall-clock, speedup is identical here, so compare
        // overhead per dirty byte instead (the paper's mechanism).
        let seq: Trace = (0..64).map(|p| ev(0, p * 4096, 4096, true)).collect();
        let rand: Trace = (0..64).map(|p| ev(0, p * 4096, 8, true)).collect();
        let seq_wp = tracker().run(&seq, TrackingMode::WriteProtect);
        let rand_wp = tracker().run(&rand, TrackingMode::WriteProtect);
        let seq_bytes: usize = seq_wp.windows.iter().map(|w| w.dirty_lines).sum();
        let rand_bytes: usize = rand_wp.windows.iter().map(|w| w.dirty_lines).sum();
        let seq_cost = seq_wp.total_overhead().as_ns() as f64 / seq_bytes as f64;
        let rand_cost = rand_wp.total_overhead().as_ns() as f64 / rand_bytes as f64;
        assert!(rand_cost > seq_cost * 10.0);
    }

    #[test]
    fn pml_cheaper_than_wp_but_not_free() {
        let t: Trace = (0..600).map(|p| ev(0, p * 4096, 8, true)).collect();
        let coh = tracker().run(&t, TrackingMode::Coherence);
        let wp = tracker().run(&t, TrackingMode::WriteProtect);
        let pml = tracker().run(&t, TrackingMode::Pml);
        assert!(pml.total_overhead() > Nanos::ZERO);
        assert!(pml.total_overhead() < wp.total_overhead() / 5);
        assert_eq!(coh.total_overhead(), Nanos::ZERO);
        // PML still tracks at page granularity: amplification unchanged.
        assert_eq!(
            pml.windows[0].amplification_ratio,
            wp.windows[0].amplification_ratio
        );
    }

    #[test]
    fn mean_ratio_weighted() {
        let t: Trace = vec![
            ev(0, 0, 8, true),      // ratio 64, 1 line
            ev(1, 4096, 4096, true), // ratio 1, 64 lines
        ]
        .into_iter()
        .collect();
        let r = tracker().run(&t, TrackingMode::Coherence);
        let mean = r.mean_amplification_ratio();
        assert!((mean - (64.0 / 65.0 + 64.0 / 65.0 * 0.0 + 1.0 * 64.0 / 65.0)).abs() < 2.0);
        assert!(mean < 3.0, "dense window dominates: {mean}");
    }

    #[test]
    fn emulation_overhead_reported() {
        let t: Trace = vec![ev(0, 0, 8, true)].into_iter().collect();
        let r = tracker().run(&t, TrackingMode::Coherence);
        assert!(r.emulation_bytes > 0);
    }
}
