//! Shard-parallel engine: determinism witness and per-plan traffic.
//!
//! Runs the same seeded script through [`ShardedRun`] under every bundled
//! [`FaultPlan`], printing per-plan traffic counters and the merged-run
//! fingerprint digest. The logical decomposition is fixed (`--logical`,
//! default 8), so the printed output is **byte-identical at every
//! `--shards N` and `--jobs N`** — the CI `scenario-smoke` job runs this
//! binary at two shard counts and byte-compares the transcripts.
//!
//! The run exits non-zero if any plan's in-process replay check fails
//! (the serial merge must equal the `--shards`-wide merge).
//!
//! ```bash
//! cargo run --release --bin fig_shard -- --quick
//! cargo run --release --bin fig_shard -- --shards 8 --logical 8
//! ```

use kona::{seeded_script, ClusterConfig, FailurePolicy, ShardReport, ShardedRun};
use kona_bench::{banner, f2, ExpOptions, TextTable};
use kona_net::FaultPlan;
use kona_telemetry::DEFAULT_WINDOW_NS;
use kona_types::{par_map, ShardPlan, Shards};

/// Global pages in the sharded page space (each logical shard owns an
/// equal stripe).
const PAGES: u64 = 256;
/// Memory node the bundled plans flap/crash.
const VICTIM: u32 = 0;

/// Per-shard cache slices must be smaller than the per-shard page stripe
/// or nothing ever evicts; this shrinks the stock config accordingly.
fn shard_config(plan: FaultPlan) -> ClusterConfig {
    let mut cfg = ClusterConfig::small().with_replicas(2);
    cfg.memory_nodes = 3;
    cfg.local_cache_pages = 64;
    cfg.cpu_cache_lines = 512;
    cfg.fault_plan = Some(plan);
    cfg
}

/// FNV-1a of the full fingerprint string — short enough to print, strong
/// enough that any divergence in the merged history flips it.
fn digest(report: &ShardReport) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in report.fingerprint().as_bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn main() {
    let opts = ExpOptions::from_env();
    banner(
        "Shard-parallel engine: fixed logical decomposition, any worker count",
        "per-shard eviction/coherence/FMem/fault streams, shard-order merge",
    );
    let seed = opts.seed();
    let shards = opts.shards();
    let logical: u32 = opts
        .value_of("logical")
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let ops = if opts.quick { 2_000 } else { 12_000 };
    println!(
        "seed: {seed}, pages: {PAGES}, ops: {ops}, logical shards: {logical}, \
         victim node: {VICTIM}\n"
    );

    let script = seeded_script(PAGES, ops, seed);
    let plans = FaultPlan::bundled(seed, VICTIM);
    // Span tracing (profile folding) stays off unless an artifact asked
    // for it — the rings cost memory and the digests don't need them.
    let trace_capacity = if opts.profiling() { opts.trace_capacity() } else { 0 };
    let results: Vec<(FaultPlan, ShardReport)> = par_map(opts.jobs, plans, |_, plan| {
        let run = ShardedRun::new(shard_config(plan.clone()), PAGES)
            .with_plan(ShardPlan::new(logical))
            .with_windows(DEFAULT_WINDOW_NS)
            .with_tracing(trace_capacity)
            .with_failure_policy(FailurePolicy::PageFaultFallback);
        let report = run.execute(&script, shards).expect("sharded run completes");
        (plan, report)
    });

    let tel = opts.telemetry();
    let mut table = TextTable::new(&[
        "Plan", "Ops", "Failed", "Skew", "Fetches", "Evicted", "WB KiB", "Retries",
        "Failovers", "Ships", "Digest",
    ]);
    for (plan, report) in &results {
        table.row(vec![
            plan.name.to_string(),
            report.total_ops().to_string(),
            report.shard_failed.iter().sum::<u64>().to_string(),
            f2(report.ops_skew()),
            report.stats.remote_fetches.to_string(),
            report.stats.pages_evicted.to_string(),
            (report.stats.writeback_bytes / 1024).to_string(),
            report.stats.retries.to_string(),
            report.stats.failovers.to_string(),
            report.shipments.len().to_string(),
            format!("{:016x}", digest(report)),
        ]);
        let g = |k: &str| format!("fig_shard.{}.{k}", plan.name);
        tel.gauge(&g("ops")).set(report.total_ops() as f64);
        tel.gauge(&g("skew")).set(report.ops_skew());
        tel.gauge(&g("fetches")).set(report.stats.remote_fetches as f64);
        tel.gauge(&g("writeback_bytes")).set(report.stats.writeback_bytes as f64);
        tel.gauge(&g("shipments")).set(report.shipments.len() as f64);
        // Shard-order absorb: the merged dump carries shard.<i>.ops.
        tel.absorb(&report.dump);
    }
    table.print();

    println!(
        "\nExpected shape: identical Digest columns for any --shards and\n\
         --jobs value — the logical decomposition (not the worker count)\n\
         defines the history. Crash plans abandon the victim's flushes and\n\
         fail over reads; skew stays near 1 because pages stripe round-robin."
    );

    // In-process witness: the serial merge must equal the wide merge.
    let mut replay_failures = 0u64;
    let calm = FaultPlan::calm(seed);
    let run = ShardedRun::new(shard_config(calm), PAGES)
        .with_plan(ShardPlan::new(logical))
        .with_windows(DEFAULT_WINDOW_NS)
        .with_failure_policy(FailurePolicy::PageFaultFallback);
    let serial = run.execute(&script, Shards::serial()).expect("serial run");
    let wide = run.execute(&script, shards).expect("wide run");
    if serial.fingerprint() != wide.fingerprint() {
        eprintln!(
            "fig_shard: serial and --shards {} merges diverged",
            shards.get()
        );
        replay_failures += 1;
    } else {
        // No worker count in this line: stdout stays byte-identical
        // across --shards values for the CI transcript compare.
        println!("\nreplay check: serial merge == wide merge (fingerprints match)");
    }

    opts.write_outputs(&tel);
    if opts.profiling() {
        // Merge the per-plan profiles (folded per shard inside the
        // engine) under plan-name frames, in plan order.
        let mut profile: Option<kona_telemetry::Profile> = None;
        for (plan, report) in &results {
            let p = report
                .profile
                .as_ref()
                .expect("tracing enabled when profiling")
                .prefixed(plan.name);
            match &mut profile {
                Some(all) => all.merge(&p),
                None => profile = Some(p),
            }
        }
        if let Some(p) = &profile {
            opts.write_profile(p);
        }
    }
    if replay_failures > 0 {
        std::process::exit(1);
    }
}
