//! SLO health monitoring over the bundled fault plans.
//!
//! Runs the seeded read/write workload of `fig_failure` through a 2-way
//! replicated Kona cluster under every bundled [`FaultPlan`], with
//! windowed time-series collection and the declarative health monitor
//! active. Prints the alert timeline (which rules fired and resolved in
//! which simulated-time window) and a per-plan health table, writes the
//! merged series / health reports on request, and exits non-zero when a
//! *critical* rule (an SLO) fired on any plan.
//!
//! The soft observability rules are calibrated so the congested plan's
//! latency spikes demonstrably fire *and* resolve, while the critical
//! availability/durability SLOs never fire — that split is the CI
//! scenario-smoke gate. Everything is seeded and evaluated in simulated
//! time, so output is byte-identical at any `--jobs` count.
//!
//! ```bash
//! cargo run --release --bin fig_health -- --quick
//! cargo run --release --bin fig_health -- --window-ns 100000 \
//!     --series-out health-series.json --health-out health.json
//! ```

use kona::{
    line_stream, seeded_script, ClusterConfig, KonaRuntime, OpOutcome, OpTally, ReferenceMemory,
    RemoteMemoryRuntime, ShardOp, ShardedRun,
};
use kona_bench::{banner, f2, ExpOptions, TextTable};
use kona_net::FaultPlan;
use kona_telemetry::{HealthReport, Rule, SeriesData, Telemetry, DEFAULT_WINDOW_NS};
use kona_types::{par_map, Nanos, ShardPlan};
use std::process::ExitCode;

/// Pages in the remote working set (the local cache holds 8).
const PAGES: u64 = 64;
/// Memory node the bundled plans flap/crash.
const VICTIM: u32 = 0;

/// The monitored rule set: two critical SLOs that must never fire on the
/// bundled plans (the runtime is expected to mask every injected fault),
/// and soft observability rules that surface fault-plan weather.
fn rules() -> Vec<Rule> {
    vec![
        // SLOs — failed application ops or verify mismatches break them.
        Rule::above("slo.availability", "fig.ops_failed", 0.5).critical(),
        Rule::above("slo.durability", "fig.verify_errors", 0.5).critical(),
        // Latency: remote-fetch p99 above 20 µs means the fabric is
        // injecting delay (baseline p99 sits near 3 µs; the congested
        // plan's +20 µs spike trips this and it resolves when the spike
        // passes).
        Rule::above("obs.fetch_p99", "kona.fetch_ns:p99", 20_000.0),
        // Retry pressure: more than 24 verb retries in one window.
        Rule::above("obs.retry_rate", "kona.retries", 24.0),
        // Error budget: >5% of each window spent backing off, sustained
        // over a 2-window short and 6-window long burn.
        Rule::burn_rate("obs.backoff_burn", "kona.backoff_ns", 0.0, 2, 6),
        // Wire-traffic surge: a window-over-window move above 512 KiB —
        // comfortably past both the steady-state rate and the end-of-run
        // tail drop, so it flags genuine bursts only.
        Rule::rate_of_change("obs.wire_surge", "net.wire_bytes", 524_288.0),
    ]
}

/// Patches the burn-rate budget in [`rules`] to 5% of `window_ns` (the
/// budget is per-window, so it scales with the window width).
fn rules_for_window(window_ns: u64) -> Vec<Rule> {
    let mut rules = rules();
    for r in &mut rules {
        if let kona_telemetry::RuleKind::BurnRate {
            budget_per_window, ..
        } = &mut r.kind
        {
            *budget_per_window = window_ns as f64 * 0.05;
        }
    }
    rules
}

struct Outcome {
    plan: &'static str,
    tally: OpTally,
    health: HealthReport,
    series: SeriesData,
}

/// Drives `ops` accesses against a cluster running `plan` with the
/// monitor installed, checking reads against a reference copy of the
/// memory. Stale reads and failed read-backs both count as
/// `fig.verify_errors`, which the critical `slo.durability` rule watches.
fn run_plan(plan: FaultPlan, seed: u64, ops: u64, window_ns: u64) -> Outcome {
    let name = plan.name;
    let mut cfg = ClusterConfig::small().with_local_cache_pages(8).with_replicas(2);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = 3;
    cfg.fault_plan = Some(plan);
    let tel = Telemetry::disabled();
    tel.enable_timeseries(window_ns);
    tel.install_monitor(rules_for_window(window_ns));
    let ops_ok = tel.counter("fig.ops_ok");
    let ops_failed = tel.counter("fig.ops_failed");
    let verify_errors_ctr = tel.counter("fig.verify_errors");
    let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("valid config");
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    let mut reference = ReferenceMemory::new(base, PAGES);
    let mut tally = OpTally::default();
    for op in line_stream(PAGES, seed).take(ops as usize) {
        match tally.count(reference.apply(&mut rt, op)) {
            OpOutcome::Ok(_) => ops_ok.inc(),
            OpOutcome::Stale(_) => {
                ops_ok.inc();
                verify_errors_ctr.inc();
            }
            OpOutcome::Failed => ops_failed.inc(),
        }
    }
    let _ = rt.sync();
    verify_errors_ctr.add(reference.verify_all(&mut rt));
    let health = tel.health_report().expect("monitor installed");
    let series = tel.series().expect("series enabled");
    Outcome {
        plan: name,
        tally,
        health,
        series,
    }
}

/// Replays a sharded run's windowed `shard.<i>.ops` deltas through a
/// monitor evaluating the example imbalance rule: the cumulative
/// busiest-to-laziest ops ratio above 2x flags shard skew.
fn skew_monitor(series: &SeriesData, logical: u32, window_ns: u64) -> (f64, HealthReport) {
    let tel = Telemetry::disabled();
    tel.enable_timeseries(window_ns);
    tel.install_monitor(vec![Rule::above("mon.shard_skew", "shard.skew", 2.0)]);
    let skew_gauge = tel.gauge("shard.skew");
    let mut cumulative = vec![0u64; logical as usize];
    let mut skew = 1.0;
    // Build the per-shard counter names once — not per window.
    let names: Vec<String> = (0..logical).map(|i| format!("shard.{i}.ops")).collect();
    for w in &series.windows {
        for (i, total) in cumulative.iter_mut().enumerate() {
            if let Some(delta) = w.counters.get(&names[i]) {
                *total += delta;
            }
        }
        let max = cumulative.iter().copied().max().unwrap_or(0);
        let min = cumulative.iter().copied().min().unwrap_or(0);
        if max > 0 {
            skew = max as f64 / min.max(1) as f64;
        }
        skew_gauge.set(skew);
        tel.observe_time(Nanos::from_ns((w.index + 1).saturating_mul(window_ns)));
    }
    (skew, tel.health_report().expect("monitor installed"))
}

fn main() -> ExitCode {
    let opts = ExpOptions::from_env();
    banner(
        "SLO health monitor: alert timeline under injected faults",
        "windowed time-series + declarative rule engine companion",
    );
    let seed: u64 = opts.seed();
    let ops: u64 = if opts.quick { 600 } else { 6_000 };
    let window_ns = opts.window_ns().unwrap_or(DEFAULT_WINDOW_NS);
    println!(
        "seed: {seed}, ops per plan: {ops}, replicas: 2, victim node: {VICTIM}, \
         window: {window_ns} ns\n"
    );

    let plans = FaultPlan::bundled(seed, VICTIM);
    let results = par_map(opts.jobs, plans, |_, plan| {
        run_plan(plan, seed, ops, window_ns)
    });

    // Alert timeline: every firing/resolution across all plans, in plan
    // order then window order.
    println!("alert timeline (simulated-time windows of {window_ns} ns):");
    let mut any_alerts = false;
    for r in &results {
        for a in &r.health.alerts {
            any_alerts = true;
            let resolved = match a.resolved_window {
                Some(w) => format!("resolved @w{w}"),
                None => "unresolved at end of run".to_string(),
            };
            println!(
                "  [{:>9}] {} fired @w{} {} (worst {:.1} @w{})",
                r.plan, a.rule, a.fired_window, resolved, a.worst_value, a.worst_window
            );
        }
    }
    if !any_alerts {
        println!("  (no alerts)");
    }

    let mut table = TextTable::new(&[
        "Plan", "Avail %", "Windows", "Fired", "Resolved", "Worst rule", "Worst val",
    ]);
    let mut breaches = 0u64;
    let (mut fired_total, mut resolved_total) = (0usize, 0usize);
    for r in &results {
        // The loudest rule of the plan: most windows in breach.
        let worst = r
            .health
            .rules
            .iter()
            .filter(|o| o.fired > 0)
            .max_by_key(|o| o.windows_firing);
        table.row(vec![
            r.plan.to_string(),
            f2(r.tally.availability() * 100.0),
            r.health.windows.to_string(),
            r.health.alerts_fired().to_string(),
            r.health.alerts_resolved().to_string(),
            worst.map_or("-".to_string(), |o| o.rule.clone()),
            worst.map_or("-".to_string(), |o| format!("{:.1}", o.worst_value)),
        ]);
        fired_total += r.health.alerts_fired();
        resolved_total += r.health.alerts_resolved();
        if r.health.slo_breached() {
            breaches += 1;
            eprintln!("SLO BREACH under plan {}", r.plan);
        }
    }
    table.print();
    println!("\nalerts fired {fired_total}, resolved {resolved_total} across all plans");

    println!(
        "\nExpected shape: the critical slo.* rules stay quiet on every plan\n\
         (retries and failover mask the injected faults), while the soft\n\
         obs.* rules narrate the weather — the congested plan's latency\n\
         spikes fire obs.fetch_p99 and it resolves when the spike passes."
    );

    // Shard-parallel engine weather: the merged `shard.<i>.ops` counters
    // from a sharded run feed the example imbalance rule. Round-robin
    // striping keeps the balanced script under the 2x limit; a hotspot
    // script that lands every access on one stripe trips it.
    let plan = ShardPlan::default();
    let logical = plan.logical();
    let shard_pages: u64 = 64;
    let shard_cfg = {
        let mut cfg = ClusterConfig::small().with_replicas(2);
        cfg.memory_nodes = 3;
        cfg.local_cache_pages = 64;
        cfg.cpu_cache_lines = 512;
        cfg
    };
    let mut shard_run = ShardedRun::new(shard_cfg, shard_pages)
        .with_plan(plan)
        .with_windows(window_ns);
    if opts.profiling() {
        shard_run = shard_run.with_tracing(opts.trace_capacity());
    }
    let balanced_script = seeded_script(shard_pages, ops as usize, seed);
    let hotspot_script: Vec<ShardOp> = (0..ops)
        .map(|i| ShardOp::Write {
            page: (i * u64::from(logical)) % shard_pages,
            line: (i % 64) as u32,
            len: 64,
            fill: (i % 251) as u8,
        })
        .chain(std::iter::once(ShardOp::Sync))
        .collect();
    let balanced = shard_run
        .execute(&balanced_script, opts.shards())
        .expect("balanced shard run");
    let hotspot = shard_run
        .execute(&hotspot_script, opts.shards())
        .expect("hotspot shard run");
    let balanced_series = balanced.series.as_ref().expect("windows enabled");
    let hotspot_series = hotspot.series.as_ref().expect("windows enabled");
    let (balanced_skew, balanced_health) = skew_monitor(balanced_series, logical, window_ns);
    let (hotspot_skew, hotspot_health) = skew_monitor(hotspot_series, logical, window_ns);
    let fired = |h: &HealthReport| h.alerts_fired();
    println!(
        "\nshard skew (mon.shard_skew: cumulative busiest/laziest ops above 2x):"
    );
    println!(
        "  balanced striping ({logical} shards): final skew {} — rule fired {} time(s)",
        f2(balanced_skew),
        fired(&balanced_health)
    );
    println!(
        "  hotspot stripe (all ops on shard 0): final skew {} — rule fired {} time(s)",
        f2(hotspot_skew),
        fired(&hotspot_health)
    );
    if fired(&balanced_health) > 0 || fired(&hotspot_health) == 0 {
        eprintln!(
            "shard-skew gate FAILED: balanced fired {} (want 0), hotspot fired {} (want >0)",
            fired(&balanced_health),
            fired(&hotspot_health)
        );
        breaches += 1;
    }

    let tel = opts.telemetry();
    // The sharded runs' merged counters (shard.<i>.ops included) ride
    // along in --metrics-out.
    tel.absorb(&balanced.dump);
    let merged = {
        let mut all = SeriesData::new(window_ns);
        for r in &results {
            all.merge(&r.series.prefixed(r.plan));
        }
        all
    };
    if let Some(path) = opts.health_out() {
        let mut json = String::from("{\n\"plans\": {\n");
        for (i, r) in results.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            json.push_str(&format!("{sep}\"{}\": {}", r.plan, r.health.to_json()));
        }
        json.push_str("\n}\n}\n");
        std::fs::write(path, json).expect("write health report");
        println!("\nhealth report written to {path}");
    }
    opts.write_outputs_with_series(&tel, Some(&merged));
    if opts.profiling() {
        // Both sharded runs fold profiles (tracing enabled above); the
        // balanced/hotspot prefixes keep their paths distinct.
        let mut profile = balanced
            .profile
            .as_ref()
            .expect("tracing enabled when profiling")
            .prefixed("balanced");
        profile.merge(
            &hotspot
                .profile
                .as_ref()
                .expect("tracing enabled when profiling")
                .prefixed("hotspot"),
        );
        opts.write_profile(&profile);
    }

    if breaches > 0 {
        eprintln!("\nhealth gate FAILED: SLO breached under {breaches} plan(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
