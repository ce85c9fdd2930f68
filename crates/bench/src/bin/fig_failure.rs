//! Failure recovery under deterministic fault injection (§4.5).
//!
//! Runs the same seeded read/write workload over a 2-way replicated Kona
//! cluster under every bundled [`FaultPlan`] — calm, lossy, timeouts,
//! congested, flappy, crash and chaos — and reports availability (the
//! fraction of application accesses that completed), retry/failover
//! activity and degraded-mode transitions. The fault decisions, retry
//! jitter and workload are all seeded, so a given `--seed` reproduces the
//! run bit for bit at any `--jobs` count.
//!
//! Every op is checked against one [`ReferenceMemory`], and the run ends
//! with a whole-page read-back. The run exits non-zero if any read
//! returned stale bytes or any page failed that read-back.
//!
//! ```bash
//! cargo run --release --bin fig_failure -- --quick
//! cargo run --release --bin fig_failure -- --seed 7 --metrics-out failure.json
//! ```

use kona::{
    line_stream, ClusterConfig, KonaRuntime, OpTally, ReferenceMemory, RemoteMemoryRuntime,
};
use kona_bench::{banner, f2, ExpOptions, TextTable};
use kona_net::FaultPlan;
use kona_types::par_map;
use std::process::ExitCode;

/// Pages in the remote working set (the local cache holds 8).
const PAGES: u64 = 64;
/// Memory node the bundled plans flap/crash.
const VICTIM: u32 = 0;

struct Outcome {
    plan: &'static str,
    tally: OpTally,
    stats: kona::RuntimeStats,
    eviction: kona::EvictionStats,
    verb_faults: u64,
    verify_errors: u64,
    series: Option<kona_telemetry::SeriesData>,
}

/// Drives `ops` single-line accesses against a cluster running `plan`,
/// checking every read against a reference copy of the memory.
fn run_plan(plan: FaultPlan, seed: u64, ops: u64, series_window: Option<u64>) -> Outcome {
    let name = plan.name;
    let mut cfg = ClusterConfig::small().with_local_cache_pages(8).with_replicas(2);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = 3;
    cfg.fault_plan = Some(plan);
    let tel = kona_telemetry::Telemetry::disabled();
    if let Some(window) = series_window {
        tel.enable_timeseries(window);
    }
    let mut rt = KonaRuntime::with_telemetry(cfg, tel.clone()).expect("valid config");
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    let mut reference = ReferenceMemory::new(base, PAGES);
    let mut tally = OpTally::default();
    for op in line_stream(PAGES, seed).take(ops as usize) {
        tally.count(reference.apply(&mut rt, op));
    }
    // Final sweep: every page must still be readable (possibly from a
    // replica) and byte-exact.
    let _ = rt.sync();
    let verify_errors = reference.verify_all(&mut rt);
    Outcome {
        plan: name,
        tally,
        stats: rt.stats(),
        eviction: rt.eviction_stats(),
        verb_faults: rt.fabric_mut().fault_stats().total_verb_faults(),
        verify_errors,
        series: tel.series().map(|s| s.prefixed(name)),
    }
}

fn main() -> ExitCode {
    let opts = ExpOptions::from_env();
    banner(
        "Failure recovery: availability under injected faults (§4.5)",
        "fault-injection fabric + retry/failover/degraded-mode runtime",
    );
    let seed: u64 = opts.seed();
    let ops: u64 = if opts.quick { 600 } else { 6_000 };
    println!("seed: {seed}, ops per plan: {ops}, replicas: 2, victim node: {VICTIM}\n");

    let plans = FaultPlan::bundled(seed, VICTIM);
    let series_window = opts.series_window_ns();
    let results = par_map(opts.jobs, plans, |_, plan| {
        run_plan(plan, seed, ops, series_window)
    });

    let tel = opts.telemetry();
    let mut table = TextTable::new(&[
        "Plan",
        "Avail %",
        "Faults",
        "Retries",
        "Failovers",
        "MCE",
        "Degraded",
        "Abandoned",
        "Verify errs",
    ]);
    for r in &results {
        table.row(vec![
            r.plan.to_string(),
            f2(r.tally.availability() * 100.0),
            r.verb_faults.to_string(),
            r.stats.retries.to_string(),
            r.stats.failovers.to_string(),
            r.stats.mce_events.to_string(),
            r.stats.degraded_entries.to_string(),
            r.eviction.abandoned_flushes.to_string(),
            r.verify_errors.to_string(),
        ]);
        let g = |k: &str| format!("fig_failure.{}.{k}", r.plan);
        tel.gauge(&g("availability")).set(r.tally.availability());
        tel.gauge(&g("retries")).set(r.stats.retries as f64);
        tel.gauge(&g("failovers")).set(r.stats.failovers as f64);
        tel.gauge(&g("mce_events")).set(r.stats.mce_events as f64);
        tel.gauge(&g("fallback_waits")).set(r.stats.fallback_waits as f64);
        tel.gauge(&g("degraded_entries")).set(r.stats.degraded_entries as f64);
        tel.gauge(&g("abandoned_flushes")).set(r.eviction.abandoned_flushes as f64);
        tel.gauge(&g("flush_retries")).set(r.eviction.flush_retries as f64);
        tel.gauge(&g("verb_faults")).set(r.verb_faults as f64);
        tel.gauge(&g("verify_errors")).set(r.verify_errors as f64);
    }
    table.print();

    println!(
        "\nExpected shape: availability stays at (or near) 100% on every plan —\n\
         retries absorb transient verb faults, replica failover masks the\n\
         crash, and degraded mode sheds prefetches while the victim flaps.\n\
         Data is verified byte-exact against a host-side model throughout."
    );

    let merged = series_window.map(|window| {
        let mut all = kona_telemetry::SeriesData::new(window);
        for r in &results {
            if let Some(s) = &r.series {
                all.merge(s);
            }
        }
        all
    });
    opts.write_outputs_with_series(&tel, merged.as_ref());
    let mut code = ExitCode::SUCCESS;
    for r in results.iter().filter(|r| r.tally.stale > 0 || r.verify_errors > 0) {
        eprintln!(
            "data gate FAILED under {}: {} stale reads, {} verify errors",
            r.plan, r.tally.stale, r.verify_errors
        );
        code = ExitCode::FAILURE;
    }
    code
}
