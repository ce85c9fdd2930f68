//! AMAT for all nine workloads at fixed cache points.
//!
//! §6.2: "We experimented with multiple classes of applications
//! (map-reduce, graph analytics, key-value stores), to explore these
//! tradeoffs." Fig 8 plots three; this companion experiment prints the
//! 25% and 50% cache points for every Table 2 workload under all four
//! system models — the cross-workload view of the same tradeoff.
//!
//! The workloads are independent, so they fan out over `--jobs` worker
//! threads (each worker constructs its own workload by index and drives
//! its own trace once for both cache points). Rows are collected in
//! workload order, so the printed tables are identical for every job
//! count.

use kona_bench::{banner, f1, ExpOptions, TextTable};
use kona_kcachesim::{drive_grid, DramGeometry, SystemModel};
use kona_types::{par_map, Jobs};
use kona_workloads::{
    GraphAlgorithm, GraphWorkload, HistogramWorkload, LinearRegressionWorkload, RedisWorkload,
    VoltDbWorkload, Workload, WorkloadProfile,
};

/// Number of Table 2 workloads covered below.
const WORKLOADS: usize = 9;

/// Builds workload `i` (trait objects are not `Send`, so each parallel
/// worker constructs its own from the index).
fn make_workload(i: usize, profile: WorkloadProfile) -> Box<dyn Workload> {
    match i {
        0 => Box::new(RedisWorkload::rand().with_profile(profile)),
        1 => Box::new(RedisWorkload::seq().with_profile(profile)),
        2 => Box::new(LinearRegressionWorkload::with_profile(profile)),
        3 => Box::new(HistogramWorkload::with_profile(profile)),
        4 => Box::new(GraphWorkload::with_profile(GraphAlgorithm::PageRank, profile)),
        5 => Box::new(GraphWorkload::with_profile(GraphAlgorithm::GraphColoring, profile)),
        6 => Box::new(GraphWorkload::with_profile(
            GraphAlgorithm::ConnectedComponents,
            profile,
        )),
        7 => Box::new(GraphWorkload::with_profile(
            GraphAlgorithm::LabelPropagation,
            profile,
        )),
        _ => Box::new(VoltDbWorkload::with_profile(profile)),
    }
}

/// One workload's name plus its `[kona, kona_main, legoos, infiniswap]`
/// AMAT at each requested cache percentage.
struct WorkloadAmat {
    name: String,
    per_pct: Vec<[f64; 4]>,
}

fn main() {
    let opts = ExpOptions::from_env();
    banner("AMAT across all workloads (KCacheSim)", "§6.2 (companion)");
    let profile = if opts.quick {
        WorkloadProfile::default()
            .with_windows(2)
            .with_ops_per_window(8_000)
            .with_scale_divisor(2048)
    } else {
        WorkloadProfile::default()
            .with_windows(3)
            .with_ops_per_window(40_000)
            .with_scale_divisor(512)
    };

    let percents = [25u32, 50];
    let systems = [
        SystemModel::kona(),
        SystemModel::kona_main(),
        SystemModel::legoos(),
        SystemModel::infiniswap(),
    ];
    let results: Vec<WorkloadAmat> = par_map(opts.jobs, (0..WORKLOADS).collect(), |_, i| {
        let wl = make_workload(i, profile);
        let grid = percents.map(|pct| DramGeometry::new(f64::from(pct) / 100.0, 4096, 4));
        let per_pct = drive_grid(&wl.generate(42), &grid, Jobs::serial())
            .iter()
            .map(|c| systems.each_ref().map(|sys| sys.price(c).amat_ns))
            .collect();
        WorkloadAmat {
            name: wl.name().to_string(),
            per_pct,
        }
    });

    let tel = opts.telemetry();
    for (pi, pct) in percents.iter().enumerate() {
        println!("\n--- AMAT (ns) at {pct}% local cache ---");
        let mut table = TextTable::new(&[
            "Workload",
            "Kona",
            "Kona-main",
            "LegoOS",
            "Infiniswap",
            "LegoOS/Kona",
        ]);
        for r in &results {
            let [kona, kona_main, lego, infiniswap] = r.per_pct[pi];
            let slug = r.name.to_lowercase().replace([' ', '-'], "_");
            tel.gauge(&format!("amat.{slug}.c{pct}.kona_ns")).set(kona);
            tel.gauge(&format!("amat.{slug}.c{pct}.legoos_ns")).set(lego);
            table.row(vec![
                r.name.clone(),
                f1(kona),
                f1(kona_main),
                f1(lego),
                f1(infiniswap),
                format!("{:.2}x", lego / kona),
            ]);
        }
        table.print();
    }
    println!(
        "\nNote: heap-only traces (no synthetic compute mix), so absolute AMAT\n\
         is higher than Fig 8's; the cross-system ratios are the point."
    );
    opts.write_outputs(&tel);
}
