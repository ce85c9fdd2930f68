//! The parallel engine's contract: any `--jobs` count produces output
//! byte-identical to the sequential run.
//!
//! Three layers are checked at jobs ∈ {1, 2, 8}: the KCacheSim grid
//! (DRAM-cache replays merged in input order), runtime replays whose
//! [`RuntimeStats`] are merged with [`RuntimeStats::merge`], and
//! telemetry registries merged via dump/absorb.

use kona::{ClusterConfig, KonaRuntime, RemoteMemoryRuntime, RuntimeStats};
use kona_kcachesim::{drive_grid, sweep_cache_size, DramGeometry, SweepPoint, SystemModel};
use kona_telemetry::Telemetry;
use kona_types::rng::{Rng, StdRng};
use kona_types::{par_map, AccessKind, Jobs, MemAccess, Nanos, VirtAddr, PAGE_SIZE_4K};
use kona_workloads::{RedisWorkload, Workload, WorkloadProfile};

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

fn small_trace() -> kona_trace::Trace {
    let profile = WorkloadProfile::default()
        .with_windows(1)
        .with_ops_per_window(2_000)
        .with_scale_divisor(2048);
    RedisWorkload::rand().with_profile(profile).generate(7)
}

#[test]
fn sweeps_are_identical_at_every_job_count() {
    let trace = small_trace();
    let percents = [10u32, 25, 50, 75];
    let serial = sweep_cache_size(&trace, &SystemModel::kona(), &percents, 4096, 4);
    let grid = percents.map(|pct| DramGeometry::new(f64::from(pct) / 100.0, 4096, 4));
    for jobs in JOB_COUNTS {
        let par: Vec<SweepPoint> = drive_grid(&trace, &grid, Jobs::new(jobs))
            .iter()
            .zip(percents)
            .map(|(counts, pct)| SweepPoint {
                x: f64::from(pct),
                result: SystemModel::kona().price(counts),
            })
            .collect();
        assert_eq!(par, serial, "jobs={jobs} diverged from sequential sweep");
        // Byte-identical, not merely approximately equal: the rendered
        // form is what the experiment binaries print.
        assert_eq!(format!("{par:?}"), format!("{serial:?}"));
    }
}

/// Replays a deterministic access chunk on a fresh runtime and returns
/// its per-chunk results — what one `par_map` worker contributes.
fn run_chunk(chunk: usize) -> (Nanos, RuntimeStats) {
    let mut rt = KonaRuntime::new(ClusterConfig::small()).expect("runtime");
    let base = rt.allocate(64 * PAGE_SIZE_4K).expect("allocate");
    let mut rng = StdRng::seed_from_u64(chunk as u64 + 1);
    let mut total = Nanos::ZERO;
    for _ in 0..500 {
        let offset = rng.next_u64() % (64 * PAGE_SIZE_4K - 8);
        let kind = if rng.next_u64().is_multiple_of(3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let access = MemAccess::new(VirtAddr::new(base.raw() + offset), 8, kind);
        total += rt.access(access).expect("access");
    }
    (total, rt.stats())
}

#[test]
fn merged_runtime_stats_match_sequential() {
    let chunks: Vec<usize> = (0..4).collect();
    let serial: Vec<(Nanos, RuntimeStats)> =
        chunks.iter().map(|&c| run_chunk(c)).collect();
    let mut serial_merged = RuntimeStats::default();
    for (_, s) in &serial {
        serial_merged.merge(s);
    }
    for jobs in JOB_COUNTS {
        let par = par_map(
            Jobs::from_args(&["--jobs".into(), jobs.to_string()]),
            chunks.clone(),
            |_, c| run_chunk(c),
        );
        let mut merged = RuntimeStats::default();
        for (_, s) in &par {
            merged.merge(s);
        }
        let times: Vec<Nanos> = par.iter().map(|(t, _)| *t).collect();
        let serial_times: Vec<Nanos> = serial.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, serial_times, "jobs={jobs} reordered chunk results");
        assert_eq!(
            format!("{merged:?}"),
            format!("{serial_merged:?}"),
            "jobs={jobs} merged RuntimeStats diverged"
        );
    }
}

/// One worker's telemetry contribution: counters, a gauge and histogram
/// samples derived deterministically from the item index.
fn record_chunk(tel: &Telemetry, item: usize) {
    tel.counter("det.ops").add(10 + item as u64);
    tel.gauge("det.last_item").set(item as f64);
    for i in 0..20u64 {
        tel.histogram("det.latency_ns").record((item as u64 + 1) * 100 + i);
    }
}

#[test]
fn absorbed_telemetry_matches_sequential() {
    let items: Vec<usize> = (0..6).collect();

    let sequential = Telemetry::disabled();
    for &i in &items {
        record_chunk(&sequential, i);
    }
    let expected = sequential.metrics_json();

    for jobs in JOB_COUNTS {
        let merged = Telemetry::disabled();
        let dumps = par_map(
            Jobs::from_args(&["--jobs".into(), jobs.to_string()]),
            items.clone(),
            |_, i| {
                let local = Telemetry::disabled();
                record_chunk(&local, i);
                local.dump()
            },
        );
        for dump in &dumps {
            merged.absorb(dump);
        }
        assert_eq!(
            merged.metrics_json(),
            expected,
            "jobs={jobs} merged telemetry diverged"
        );
    }
}
