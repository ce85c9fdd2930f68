//! Golden values: a seeded Redis-Rand trace priced under every tracking
//! mode. The pinned numbers were taken from the tracker that re-walked
//! memory and snapshots once per mode, so they check that one shared walk
//! priced per mode reports exactly what the per-mode walks did.

use kona_ktracker::{KTracker, TrackingMode};
use kona_types::Nanos;
use kona_workloads::{RedisWorkload, Workload, WorkloadProfile};

/// `(mode, total_time ns, per-window (window, dirty_pages, dirty_lines,
/// tracking_overhead ns))`.
type Golden = (TrackingMode, u64, [(usize, usize, usize, u64); 3]);

const EMULATION_BYTES: u64 = 22_462_464;

const GOLDEN: [Golden; 3] = [
    (
        TrackingMode::Coherence,
        2_999_750_000,
        [(0, 581, 2573, 0), (1, 577, 2576, 0), (2, 594, 2684, 0)],
    ),
    (
        TrackingMode::WriteProtect,
        3_006_232_400,
        [
            (0, 581, 2573, 2_149_700),
            (1, 577, 2576, 2_134_900),
            (2, 594, 2684, 2_197_800),
        ],
    ),
    (
        TrackingMode::Pml,
        2_999_954_720,
        [
            (0, 581, 2573, 67_910),
            (1, 577, 2576, 67_470),
            (2, 594, 2684, 69_340),
        ],
    ),
];

#[test]
fn redis_rand_reports_match_pinned_values() {
    let profile = WorkloadProfile::default()
        .with_windows(3)
        .with_window_width(Nanos::secs(1))
        .with_ops_per_window(4_000)
        .with_scale_divisor(1024);
    let trace = RedisWorkload::rand().with_profile(profile).generate(42);
    let tracker = KTracker::new(Nanos::secs(1));
    let walk = tracker.walk(&trace);
    for (mode, total_time, windows) in GOLDEN {
        let report = tracker.run(&trace, mode);
        assert_eq!(
            report,
            walk.price(mode),
            "{mode:?}: run differs from walk + price"
        );
        assert_eq!(report.mode, mode);
        assert_eq!(report.total_time, Nanos::from_ns(total_time), "{mode:?}");
        assert_eq!(report.emulation_bytes, EMULATION_BYTES, "{mode:?}");
        let got: Vec<(usize, usize, usize, u64)> = report
            .windows
            .iter()
            .map(|w| {
                (
                    w.window,
                    w.dirty_pages,
                    w.dirty_lines,
                    w.tracking_overhead.as_ns(),
                )
            })
            .collect();
        assert_eq!(got, windows, "{mode:?}");
    }
}
