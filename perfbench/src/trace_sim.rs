//! `trace-sim`: the offline trace tools behind Fig 8 and Fig 10.
//!
//! One Redis-Rand trace (~32 MiB footprint, above the modelled 22 MiB
//! LLC) runs through the Fig 8a grid (4 system models × 7 cache sizes at
//! 4 KiB / 4-way) and the Fig 8d grid (4 cache fractions × 7 block sizes),
//! both through the serial sweeps, then through `KTracker::run` in all
//! three tracking modes. Only `cache-sim`, `kcachesim` and `ktracker` do
//! work here: no runtime, `net` or `telemetry` code runs.
//!
//! Each sweep call covers one grid point, so that the per-call
//! percentiles have 59 samples a round; the results equal the whole-row
//! sweeps point for point.

use crate::metrics::Values;
use crate::spans::{timed, Recorder};
use crate::stats::Digest;
use crate::{RoundOut, Workload};
use kona_cache_sim::{CacheConfig, CacheHierarchy, HierarchyConfig};
use kona_kcachesim::{sweep_block_size, sweep_cache_size, AmatResult, SystemModel};
use kona_ktracker::{KTracker, TrackingMode};
use kona_telemetry::HostScopeStats;
use kona_trace::Trace;
use kona_types::Nanos;
use kona_workloads::{RedisWorkload, Workload as _, WorkloadProfile};
use std::time::Instant;

/// Redis ops in the trace (two trace events each).
const OPS: usize = 100_000;
/// Footprint divisor: 4 GiB / 128 = 32 MiB.
const SCALE_DIVISOR: u64 = 128;
const PERCENTS: [u32; 7] = [0, 10, 25, 50, 75, 90, 100];
const BLOCKS: [u64; 7] = [64, 256, 1024, 4096, 8192, 16384, 32768];
const FRACTIONS: [f64; 4] = [0.0, 0.27, 0.54, 1.0];
const WAYS: usize = 4;
const TRACKER_MODES: [(TrackingMode, &str); 3] = [
    (TrackingMode::Coherence, "ktracker.coherence"),
    (TrackingMode::WriteProtect, "ktracker.write_protect"),
    (TrackingMode::Pml, "ktracker.pml"),
];

pub struct TraceSim {
    trace: Trace,
    generate_s: f64,
}

/// Checks one sweep point and folds it into the digest: the fractions
/// must sum to 1, and every point of one grid must count the same
/// accesses.
fn check_point(
    r: &AmatResult,
    grid: &str,
    accesses: &mut Option<u64>,
    d: &mut Digest,
    out: &mut RoundOut,
) {
    let sum: f64 = r.fractions.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        out.fail(format!("{grid}: fractions sum to {sum}"));
    }
    match *accesses {
        None => *accesses = Some(r.accesses),
        Some(a) if a != r.accesses => {
            out.fail(format!(
                "{grid}: {} accesses where the grid counted {a}",
                r.accesses
            ));
        }
        Some(_) => {}
    }
    d.float(r.amat_ns).word(r.accesses);
    for &f in &r.fractions {
        d.float(f);
    }
}

impl Workload for TraceSim {
    fn setup(seed: u64) -> Self {
        let start = Instant::now();
        let profile = WorkloadProfile::default()
            .with_windows(4)
            .with_window_width(Nanos::secs(1))
            .with_ops_per_window(OPS / 4)
            .with_scale_divisor(SCALE_DIVISOR);
        let trace = RedisWorkload::rand().with_profile(profile).generate(seed);
        TraceSim {
            trace,
            generate_s: start.elapsed().as_secs_f64(),
        }
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let trace = &self.trace;
        let mut out = RoundOut::default();
        let mut d = Digest::default();
        let start = Instant::now();

        let systems = [
            SystemModel::legoos(),
            SystemModel::kona(),
            SystemModel::kona_main(),
            SystemModel::infiniswap(),
        ];
        let mut size_accesses = None;
        let mut kona_amat = 0.0;
        for sys in &systems {
            for pct in PERCENTS {
                let (points, t0, ns) = timed(|| sweep_cache_size(trace, sys, &[pct], 4096, WAYS));
                rec.sample(ns);
                rec.call("kcachesim.size_sweep", t0, ns, true);
                check_point(
                    &points[0].result,
                    "fig8a",
                    &mut size_accesses,
                    &mut d,
                    &mut out,
                );
                if sys.name() == SystemModel::kona().name() {
                    kona_amat += points[0].result.amat_ns;
                }
            }
        }
        let mut block_accesses = None;
        let kona = SystemModel::kona();
        for frac in FRACTIONS {
            for bs in BLOCKS {
                let (points, t0, ns) = timed(|| sweep_block_size(trace, &kona, &[bs], frac, WAYS));
                rec.sample(ns);
                rec.call("kcachesim.block_sweep", t0, ns, true);
                check_point(
                    &points[0].result,
                    "fig8d",
                    &mut block_accesses,
                    &mut d,
                    &mut out,
                );
            }
        }
        let tracker = KTracker::new(Nanos::secs(1));
        for (mode, class) in TRACKER_MODES {
            let (report, t0, ns) = timed(|| tracker.run(trace, mode));
            rec.sample(ns);
            rec.call(class, t0, ns, true);
            d.word(report.total_time.as_ns())
                .word(report.emulation_bytes);
            for w in &report.windows {
                d.word(w.dirty_pages as u64)
                    .word(w.dirty_lines as u64)
                    .word(w.tracking_overhead.as_ns());
            }
        }

        out.timed_s = start.elapsed().as_secs_f64();
        let points = (systems.len() * PERCENTS.len() + FRACTIONS.len() * BLOCKS.len()) as u64;
        out.ops = trace.len() as u64 * (points + TRACKER_MODES.len() as u64);
        out.sim_ns_per_op = kona_amat / PERCENTS.len() as f64;
        out.digest = d.get();
        out
    }

    fn layers(&mut self, rec: &Recorder, _scopes: &[HostScopeStats], v: &mut Values) {
        // One "sweep" is a 7-point row: a system (8a) or a fraction (8d).
        let rows = 4.0;
        v.set(
            "kcachesim.size_sweep_s",
            rec.class("kcachesim.size_sweep").total_ns as f64 / 1e9 / rows,
        );
        v.set(
            "kcachesim.block_sweep_s",
            rec.class("kcachesim.block_sweep").total_ns as f64 / 1e9 / rows,
        );
        v.set(
            "ktracker.coherence_s",
            rec.class("ktracker.coherence").total_ns as f64 / 1e9,
        );
        v.set(
            "ktracker.write_protect_s",
            rec.class("ktracker.write_protect").total_ns as f64 / 1e9,
        );
        v.set(
            "ktracker.pml_s",
            rec.class("ktracker.pml").total_ns as f64 / 1e9,
        );

        // Standalone hierarchy (Skylake + a 50% DRAM cache, 4 KiB / 4-way)
        // driven by `access_range` over the same trace.
        let block = 4096u64;
        let way_bytes = block * WAYS as u64;
        let capacity = self.trace.address_span() / 2 / way_bytes * way_bytes;
        let mut levels = HierarchyConfig::skylake().levels;
        levels.push(CacheConfig::new("DRAM-cache", capacity, WAYS, block).expect("whole sets"));
        let mut hierarchy = CacheHierarchy::new(HierarchyConfig { levels });
        let start = Instant::now();
        for e in self.trace.iter() {
            hierarchy.access_range(e.access);
        }
        let ns = start.elapsed().as_nanos() as f64;
        let lines = hierarchy.total_accesses() as f64;
        let dram = hierarchy.level_stats(3);
        v.set("cache-sim.ns_per_line", ns / lines);
        v.set(
            "cache-sim.llc_miss_frac",
            (dram.hits + dram.misses) as f64 / lines,
        );
    }
}
