//! Fig 10: dirty-tracking speedup relative to write-protection.
//!
//! For each workload, KTracker walks the trace once and prices the walk in
//! coherence mode (no tracking overhead on the app) and in write-protect
//! mode (a minor fault per first write to each page per window plus
//! re-protection work); the speedup is the relative reduction in total
//! time.
//!
//! Workloads fan out over `--jobs` worker threads; rows come back in
//! workload order, so output is identical for every job count.

use kona_bench::{banner, f1, ExpOptions, TextTable};
use kona_ktracker::{speedup_percent, KTracker, TrackingMode};
use kona_types::{par_map, Nanos};
use kona_workloads::{
    GraphAlgorithm, GraphWorkload, HistogramWorkload, LinearRegressionWorkload, RedisWorkload,
    Workload, WorkloadProfile,
};

fn main() {
    let opts = ExpOptions::from_env();
    banner(
        "Fig 10: tracking speedup relative to write-protection (KTracker)",
        "Figure 10",
    );
    // 1-second windows; a high op rate models the full-speed applications
    // the paper traces (write-protect overhead scales with dirty pages per
    // second — real Redis under memtier sustains hundreds of kops/s).
    let ops = if opts.quick { 30_000 } else { 250_000 };
    let windows = if opts.quick { 2 } else { 3 };
    let scale = if opts.quick { 64 } else { 16 };
    let profile = WorkloadProfile::default()
        .with_windows(windows)
        .with_window_width(Nanos::secs(1))
        .with_ops_per_window(ops)
        .with_scale_divisor(scale);

    // (name, constructor, paper speedup %). Constructors, not trait
    // objects: each parallel worker builds its own workload.
    type Make = fn(WorkloadProfile) -> Box<dyn Workload>;
    let workloads: Vec<(&str, Make, f64)> = vec![
        (
            "Redis-Rand",
            (|p| Box::new(RedisWorkload::rand().with_profile(p))) as Make,
            35.0,
        ),
        (
            "Redis-Seq",
            |p| Box::new(RedisWorkload::seq().with_profile(p)),
            1.0,
        ),
        (
            "Histogram",
            |p| Box::new(HistogramWorkload::with_profile(p)),
            1.0,
        ),
        (
            "Lin-regr",
            |p| Box::new(LinearRegressionWorkload::with_profile(p)),
            8.0,
        ),
        (
            "Concomp",
            |p| {
                Box::new(GraphWorkload::with_profile(
                    GraphAlgorithm::ConnectedComponents,
                    p,
                ))
            },
            13.0,
        ),
        (
            "Graphcol",
            |p| Box::new(GraphWorkload::with_profile(GraphAlgorithm::GraphColoring, p)),
            12.0,
        ),
        (
            "Labelprop",
            |p| {
                Box::new(GraphWorkload::with_profile(
                    GraphAlgorithm::LabelPropagation,
                    p,
                ))
            },
            15.0,
        ),
        (
            "Pagerank",
            |p| Box::new(GraphWorkload::with_profile(GraphAlgorithm::PageRank, p)),
            10.0,
        ),
    ];

    let rows = par_map(opts.jobs, workloads, |_, (name, make, paper)| {
        let tracker = KTracker::new(Nanos::secs(1));
        let walk = tracker.walk(&make(profile).generate(42));
        let coh = walk.price(TrackingMode::Coherence);
        let wp = walk.price(TrackingMode::WriteProtect);
        // Extension: Intel PML (related work §8) removes the write faults
        // but keeps page granularity; coherence tracking still wins.
        let pml = walk.price(TrackingMode::Pml);
        vec![
            name.to_string(),
            f1(speedup_percent(&coh, &wp)),
            f1(paper),
            f1(speedup_percent(&coh, &pml)),
        ]
    });
    let tel = opts.telemetry();
    let mut table = TextTable::new(&[
        "Workload",
        "Speedup %",
        "Paper % (approx)",
        "vs PML %",
    ]);
    for row in rows {
        let slug = row[0].to_lowercase().replace('-', "_");
        if let Ok(pct) = row[1].parse::<f64>() {
            tel.gauge(&format!("fig10.{slug}.speedup_pct")).set(pct);
        }
        table.row(row);
    }
    table.print();
    println!(
        "\nExpected shape: speedup scales with dirty pages per second —\n\
         Redis-Rand highest (paper: 35%), sequential/hot-bin workloads\n\
         lowest (paper: ~1%)."
    );
    opts.write_outputs(&tel);
}
