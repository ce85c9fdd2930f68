//! Cross-crate integration tests for windowed time-series collection and
//! the SLO health monitor: conservation (per-window deltas sum exactly to
//! end-of-run registry totals), cross-`--jobs` byte-identity of series
//! and health reports, merge determinism, and fire/resolve behaviour
//! under a bundled fault plan.

use kona::{
    line_stream, ClusterConfig, KonaRuntime, OpOutcome, ReferenceMemory, RemoteMemoryRuntime,
};
use kona_net::FaultPlan;
use kona_telemetry::{HealthMonitor, Rule, SeriesData, Telemetry};
use kona_types::rng::{Rng, StdRng};
use kona_types::{par_map, Jobs};

const PAGES: u64 = 16;
const WINDOW_NS: u64 = 100_000;

/// Runs the seeded read/write workload under `plan` with time-series
/// collection on, failing on any stale read, and returns the telemetry
/// handle for inspection.
fn run_with_series(plan: FaultPlan, seed: u64, ops: u64) -> Telemetry {
    let mut cfg = ClusterConfig::small().with_local_cache_pages(4).with_replicas(2);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = 3;
    cfg.fault_plan = Some(plan);
    let tel = Telemetry::disabled();
    tel.enable_timeseries(WINDOW_NS);
    let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("valid config");
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    let mut reference = ReferenceMemory::new(base, PAGES);
    for op in line_stream(PAGES, seed).take(ops as usize) {
        let outcome = reference.apply(&mut rt, op);
        assert!(!matches!(outcome, OpOutcome::Stale(_)), "stale read on {op:?}");
    }
    let _ = rt.sync();
    tel
}

/// Property: for every counter in the registry, the sum of its per-window
/// deltas equals the end-of-run total exactly — nothing is lost or double
/// counted by windowing. Histogram count/sum conserve the same way.
#[test]
fn window_deltas_sum_to_registry_totals() {
    for (plan_idx, plan) in FaultPlan::bundled(7, 0).into_iter().enumerate() {
        let tel = run_with_series(plan, 7 + plan_idx as u64, 400);
        let series = tel.series().expect("series enabled");
        let dump = tel.dump();
        assert!(!dump.counters.is_empty(), "run must register counters");
        for (name, total) in &dump.counters {
            assert_eq!(
                series.counter_total(name),
                *total,
                "counter {name} deltas must sum to the registry total"
            );
        }
        for (name, data) in &dump.histograms {
            let (mut count, mut sum) = (0u64, 0u64);
            for w in &series.windows {
                if let Some(d) = w.histograms.get(name) {
                    count += d.count();
                    sum += d.sum();
                }
            }
            assert_eq!(count, data.count(), "histogram {name} count must conserve");
            assert_eq!(sum, data.sum(), "histogram {name} sum must conserve");
        }
    }
}

/// Shards one plan-sweep over worker threads and merges in input order;
/// the merged series and health reports must be byte-identical to the
/// sequential run at any job count — the determinism contract behind
/// `fig_health --jobs N`.
#[test]
fn series_and_health_are_byte_identical_across_jobs() {
    let rules = || {
        vec![
            Rule::above("slo.fail", "nonexistent.counter", 0.5).critical(),
            Rule::above("obs.retries", "kona.retries", 5.0),
        ]
    };
    let run_all = |jobs: Jobs| {
        let plans = FaultPlan::bundled(42, 0);
        let shards = par_map(jobs, plans, |_, plan| {
            let name = plan.name;
            let tel = run_with_series(plan, 42, 300);
            let series = tel.series().expect("series enabled");
            let health = HealthMonitor::evaluate(rules(), &series);
            (series.prefixed(name), health.to_json())
        });
        let mut merged = SeriesData::new(WINDOW_NS);
        let mut health_json = String::new();
        for (series, health) in &shards {
            merged.merge(series);
            health_json.push_str(health);
            health_json.push('\n');
        }
        (merged.to_json(), merged.to_csv(), health_json)
    };
    let (json1, csv1, health1) = run_all(Jobs::serial());
    let (json4, csv4, health4) = run_all(Jobs::new(4));
    assert_eq!(json1, json4, "series JSON must not depend on --jobs");
    assert_eq!(csv1, csv4, "series CSV must not depend on --jobs");
    assert_eq!(health1, health4, "health reports must not depend on --jobs");
    assert!(json1.contains("\"windows\""));
}

/// Merging shards is associative and insensitive to grouping: (a⊕b)⊕c
/// equals a⊕(b⊕c) byte for byte.
#[test]
fn shard_merge_is_associative() {
    let plans = FaultPlan::bundled(11, 0);
    let shards: Vec<SeriesData> = plans
        .into_iter()
        .take(3)
        .map(|p| {
            let name = p.name;
            run_with_series(p, 11, 200)
                .series()
                .expect("series enabled")
                .prefixed(name)
        })
        .collect();
    let mut left = shards[0].clone();
    left.merge(&shards[1]);
    left.merge(&shards[2]);
    let mut right_tail = shards[1].clone();
    right_tail.merge(&shards[2]);
    let mut right = shards[0].clone();
    right.merge(&right_tail);
    assert_eq!(left.to_json(), right.to_json());
}

/// The congested plan's injected latency spike must fire the fetch-p99
/// rule and the alert must resolve once the spike passes — the bundled
/// demonstration that alerts are not one-way latches.
#[test]
fn congested_plan_fires_and_resolves_latency_alert() {
    let plan = FaultPlan::bundled(42, 0)
        .into_iter()
        .find(|p| p.name == "congested")
        .expect("bundled plans include congested");
    let tel = run_with_series(plan, 42, 600);
    let series = tel.series().expect("series enabled");
    let report = HealthMonitor::evaluate(
        vec![
            Rule::above("obs.fetch_p99", "kona.fetch_ns:p99", 20_000.0),
            Rule::above("slo.fail", "fig.ops_failed", 0.5).critical(),
        ],
        &series,
    );
    assert!(report.alerts_fired() >= 1, "spike must fire the p99 rule");
    assert!(
        report.alerts_resolved() >= 1,
        "alert must resolve after the spike"
    );
    assert!(!report.slo_breached(), "no critical rule may fire");
    let alert = &report.alerts[0];
    assert_eq!(alert.rule, "obs.fetch_p99");
    assert!(alert.worst_value > 20_000.0);
}

/// An installed monitor emits firing/resolved instants on the span
/// timeline as the runtime crosses window boundaries (not only at
/// end-of-run evaluation).
#[test]
fn installed_monitor_emits_alert_spans_during_run() {
    let plan = FaultPlan::bundled(42, 0)
        .into_iter()
        .find(|p| p.name == "congested")
        .expect("bundled plans include congested");
    let mut cfg = ClusterConfig::small().with_local_cache_pages(4).with_replicas(2);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = 3;
    cfg.fault_plan = Some(plan);
    let tel = Telemetry::with_tracing(1 << 14);
    tel.enable_timeseries(WINDOW_NS);
    tel.install_monitor(vec![Rule::above(
        "obs.fetch_p99",
        "kona.fetch_ns:p99",
        20_000.0,
    )]);
    let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("valid config");
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..600 {
        let page = rng.gen_range(0..PAGES);
        let off = page * 4096 + rng.gen_range(0..64) * 64;
        let mut buf = [0u8; 64];
        let _ = rt.read_bytes(base + off, &mut buf);
    }
    let _ = rt.sync();
    let report = tel.health_report().expect("monitor installed");
    assert!(report.alerts_fired() >= 1);
    let fired = tel
        .events()
        .iter()
        .filter(|e| e.kind.name() == "alert_firing")
        .count();
    let resolved = tel
        .events()
        .iter()
        .filter(|e| e.kind.name() == "alert_resolved")
        .count();
    assert_eq!(fired, report.alerts_fired());
    assert_eq!(resolved, report.alerts_resolved());
    let snap = tel.snapshot();
    assert_eq!(snap.counter("mon.alerts_fired"), Some(fired as u64));
    assert_eq!(snap.counter("mon.alerts_resolved"), Some(resolved as u64));
}
