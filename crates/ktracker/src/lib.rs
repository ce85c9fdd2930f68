//! KTracker: the dirty-data-tracking emulator (§5, §6.3).
//!
//! "We developed KTracker to emulate Kona dirty data tracking at
//! cache-line granularity by comparing snapshots of the application's
//! memory in software ... KTracker updates its memory snapshot every
//! second ... KTracker can also run in write-protection mode, where it
//! write-protects pages to track what pages have changed. This emulates a
//! current remote memory system based on virtual memory, allowing us to
//! compare the cache-line tracking in the same environment ... for a real
//! apples-to-apples comparison."
//!
//! The tracker drives a workload trace against a byte-accurate
//! [`AppMemory`], snapshots pages each window, and diffs to find dirty
//! cache lines — exactly the paper's emulation strategy. That walk does
//! not depend on the tracking mode ([`KTracker::walk`]); each
//! [`TrackingMode`] then only prices its overhead
//! ([`TrackerWalk::price`]). Write-protect mode charges a minor fault per
//! first-write-per-page-per-window plus the re-protection TLB work,
//! yielding the Fig 10 speedup; the walk's dirty counts give the Fig 9
//! amplification series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod memory;
mod snapshot;
mod tracker;

pub use memory::AppMemory;
pub use snapshot::SnapshotStore;
pub use tracker::{
    speedup_percent, KTracker, TrackerReport, TrackerWalk, TrackingMode, WindowReport,
};
