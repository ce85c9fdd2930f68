//! Partition tolerance: lease fencing and integrity scrubbing under
//! scheduled network partitions.
//!
//! Runs a seeded read/write workload through the full cluster control
//! plane ([`ClusterRuntime`]) under the bundled partition fault plans —
//! `partitioned` (an ack-lost link cut, then a symmetric partition that
//! heals) and `partition_then_crash` (a healed partition followed by a
//! permanent crash) — once with lease fencing enforced and once with
//! the naive heal (`--no-fencing` restricts to the naive rows).
//!
//! With fencing, a node cut off past its lease is fenced: its epoch is
//! bumped, its slabs re-replicate on the reachable side, stale-epoch
//! log batches are rejected (`cluster.fenced_writes`), and the healed
//! node rejoins through a wipe-and-resync — so the integrity scrub
//! finds **zero** divergent slabs and the critical `mon.split_brain`
//! rule stays quiet. Without fencing, the healed node keeps its stale
//! memory and applies stale-epoch batches (`cluster.stale_applied`);
//! the scrub then *detects and repairs* the divergence and
//! `mon.split_brain` fires — that contrast is the figure.
//!
//! Everything is seeded and driven in simulated time, so output is
//! byte-identical at any `--jobs` count. Exits non-zero when a gate
//! fails (availability below 100%, stale writes landing under fencing,
//! or unrepaired divergence).
//!
//! ```bash
//! cargo run --release --bin fig_partition -- --quick
//! cargo run --release --bin fig_partition -- --lease-ns 400000 --scrub-interval 2
//! cargo run --release --bin fig_partition -- --quick --no-fencing
//! ```

use kona::{
    line_stream, ClusterConfig, FailurePolicy, OpTally, ReferenceMemory, RemoteMemoryRuntime,
};
use kona_bench::{banner, f2, ExpOptions, TextTable};
use kona_cluster::{ClusterRuntime, ControlPlaneConfig};
use kona_net::FaultPlan;
use kona_telemetry::{Profile, Rule, Telemetry, DEFAULT_WINDOW_NS};
use kona_types::{par_map, Nanos};
use std::process::ExitCode;

/// Pages in the remote working set (the local cache holds 8).
const PAGES: u64 = 64;
/// Memory node the bundled plans partition and crash.
const VICTIM: u32 = 0;
/// Simulated horizon the epilogue drives past: later than every
/// scheduled heal (2.5 ms) and the late crash (5 ms), so fencing,
/// rejoin and scrubbing all complete before the audit.
const HORIZON: Nanos = Nanos::from_ns(6_000_000);

struct Outcome {
    plan: &'static str,
    fencing: bool,
    /// Op outcomes; a stale read is a healed-but-stale replica serving
    /// pre-partition bytes.
    tally: OpTally,
    verify_errors: u64,
    stats: kona_cluster::ClusterStats,
    /// Divergence found by the convergence pass (a second full scrub
    /// after the catch-up pass) — must be zero in every mode.
    end_divergence: u64,
    split_brain_fired: u64,
    fence_errors: usize,
    /// Folded simulated-time profile (present when `--profile-out` /
    /// `--flame-out` requested span tracing).
    profile: Option<Profile>,
}

/// Scalar knobs shared by every (plan, fencing) point.
#[derive(Clone, Copy)]
struct Knobs {
    seed: u64,
    ops: u64,
    lease_ns: u64,
    scrub_interval: u64,
    window_ns: u64,
    trace_capacity: usize,
}

/// Drives the seeded workload under `plan` with fencing on or off,
/// then audits the end state with two full scrub passes.
fn run_mode(plan: FaultPlan, fencing: bool, knobs: Knobs) -> Outcome {
    let Knobs { seed, ops, lease_ns, scrub_interval, window_ns, trace_capacity } = knobs;
    let name = plan.name;
    let mut cfg = ClusterConfig::small().with_local_cache_pages(8).with_replicas(2);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = 3;
    cfg.fault_plan = Some(plan);
    let plane = ControlPlaneConfig {
        tick_ops: 16,
        lease_ns,
        scrub_interval_ticks: scrub_interval,
        fencing,
        ..ControlPlaneConfig::default()
    };
    let tel = if trace_capacity > 0 {
        Telemetry::with_tracing(trace_capacity)
    } else {
        Telemetry::disabled()
    };
    tel.enable_timeseries(window_ns);
    tel.install_monitor(vec![
        // The split-brain SLO: any scrub-detected divergence in a
        // window is a critical breach. Quiet with fencing; the
        // --no-fencing rows exist to show it fire.
        Rule::above("mon.split_brain", "scrub.divergent", 0.5).critical(),
    ]);
    let mut rt =
        ClusterRuntime::with_telemetry(cfg, plane, tel.clone()).expect("valid config");
    rt.inner_mut().set_failure_policy(FailurePolicy::PageFaultFallback);
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    let mut reference = ReferenceMemory::new(base, PAGES);
    let mut tally = OpTally::default();
    let mut stream = line_stream(PAGES, seed);
    for (i, op) in stream.by_ref().take(ops as usize).enumerate() {
        tally.count(reference.apply(&mut rt, op));
        // Periodic durability sync, as a checkpointing workload would
        // issue: flushing mid-partition is what exposes the cut to the
        // eviction handler (and the lease machinery) op by op.
        if i % 8 == 7 {
            let _ = rt.sync();
        }
    }
    // Epilogue: keep the cluster ticking past every scheduled heal and
    // the late crash, so leases lapse, fences rise, rejoins land and
    // the scrub cursor sweeps — all in simulated time.
    for (round, op) in stream.take(50_000).enumerate() {
        if rt.inner_mut().fabric_mut().now() >= HORIZON {
            break;
        }
        tally.count(reference.apply(&mut rt, op));
        if round % 64 == 0 {
            let _ = rt.sync();
        }
    }
    let _ = rt.sync();

    // End-of-run audit: a catch-up scrub pass repairs anything still
    // divergent, then a convergence pass must come back clean.
    rt.scrub_all();
    let mid = rt.scrub_stats();
    rt.scrub_all();
    let fin = rt.scrub_stats();
    let end_divergence = fin.divergence_found - mid.divergence_found;

    // Final sweep: every page must read back; mismatches against the
    // reference are stale state the runtime failed to mask.
    let verify_errors = reference.verify_all(&mut rt);

    let health = tel.health_report().expect("monitor installed");
    let split_brain_fired = health
        .rules
        .iter()
        .find(|o| o.rule == "mon.split_brain")
        .map_or(0, |o| o.fired);
    let fence_errors = rt.drain_fence_errors().len();
    // Fold this mode's profile from its own span stream (span ids are
    // per-telemetry, so folding happens before any cross-mode merge).
    let profile = (trace_capacity > 0).then(|| Profile::from_spans(&tel.events()));
    Outcome {
        plan: name,
        fencing,
        tally,
        verify_errors,
        stats: rt.cluster_stats(),
        end_divergence,
        split_brain_fired,
        fence_errors,
        profile,
    }
}

fn main() -> ExitCode {
    let opts = ExpOptions::from_env();
    banner(
        "Partition tolerance: lease fencing + integrity scrub",
        "network partitions, epoch fencing and replica scrubbing atop the cluster control plane",
    );
    let seed: u64 = opts.seed();
    let ops: u64 = if opts.quick { 1_500 } else { 6_000 };
    let lease_ns: u64 = opts
        .value_of("lease-ns")
        .map(|s| s.parse().expect("--lease-ns takes an integer"))
        .unwrap_or(200_000);
    let scrub_interval: u64 = opts
        .value_of("scrub-interval")
        .map(|s| s.parse().expect("--scrub-interval takes an integer"))
        .unwrap_or(4);
    let no_fencing = opts.args.iter().any(|a| a == "--no-fencing");
    let window_ns = opts.window_ns().unwrap_or(DEFAULT_WINDOW_NS);
    println!(
        "seed: {seed}, ops per row: {ops}, replicas: 2, victim node: {VICTIM}, \
         lease: {lease_ns} ns, scrub every {scrub_interval} ticks\n"
    );

    let plans: Vec<FaultPlan> = FaultPlan::bundled(seed, VICTIM)
        .into_iter()
        .filter(|p| p.name == "partitioned" || p.name == "partition_then_crash")
        .collect();
    let modes: &[bool] = if no_fencing { &[false] } else { &[true, false] };
    let points: Vec<(FaultPlan, bool)> = plans
        .iter()
        .flat_map(|p| modes.iter().map(|&m| (p.clone(), m)))
        .collect();
    let knobs = Knobs {
        seed,
        ops,
        lease_ns,
        scrub_interval,
        window_ns,
        trace_capacity: if opts.profiling() { opts.trace_capacity() } else { 0 },
    };
    let results =
        par_map(opts.jobs, points, move |_, (plan, fencing)| run_mode(plan, fencing, knobs));

    let tel = opts.telemetry();
    let mut table = TextTable::new(&[
        "Plan",
        "Fencing",
        "Avail %",
        "Fenced wr",
        "Expire",
        "Rejoin",
        "Stale appl",
        "Stale rd",
        "Div found",
        "Repaired",
        "Under-rep",
    ]);
    let mut gate_failures = 0u64;
    for r in &results {
        let mode = if r.fencing { "on" } else { "off" };
        table.row(vec![
            r.plan.to_string(),
            mode.to_string(),
            f2(r.tally.availability() * 100.0),
            r.stats.fenced_writes.to_string(),
            r.stats.lease_expirations.to_string(),
            r.stats.lease_rejoins.to_string(),
            r.stats.stale_applied.to_string(),
            r.tally.stale.to_string(),
            r.stats.scrub_divergence_found.to_string(),
            r.stats.scrub_divergence_repaired.to_string(),
            r.stats.under_replicated.to_string(),
        ]);
        let g = |k: &str| format!("fig_partition.{}.{mode}.{k}", r.plan);
        tel.gauge(&g("availability")).set(r.tally.availability());
        tel.gauge(&g("fenced_writes")).set(r.stats.fenced_writes as f64);
        tel.gauge(&g("lease_expirations")).set(r.stats.lease_expirations as f64);
        tel.gauge(&g("lease_rejoins")).set(r.stats.lease_rejoins as f64);
        tel.gauge(&g("stale_applied")).set(r.stats.stale_applied as f64);
        tel.gauge(&g("stale_reads")).set(r.tally.stale as f64);
        tel.gauge(&g("divergence_found")).set(r.stats.scrub_divergence_found as f64);
        tel.gauge(&g("divergence_repaired")).set(r.stats.scrub_divergence_repaired as f64);
        tel.gauge(&g("under_replicated")).set(r.stats.under_replicated as f64);
        tel.gauge(&g("repair_errors")).set(r.stats.repair_errors as f64);

        let mut fail = |why: &str| {
            gate_failures += 1;
            eprintln!("GATE FAILED [{} fencing={mode}]: {why}", r.plan);
        };
        if r.tally.failed > 0 {
            fail(&format!("availability below 100% ({} ops failed)", r.tally.failed));
        }
        if r.end_divergence > 0 {
            fail(&format!(
                "{} divergent copies survived the final scrub",
                r.end_divergence
            ));
        }
        if r.stats.under_replicated > 0 {
            fail(&format!(
                "{} slabs under-replicated at end of run",
                r.stats.under_replicated
            ));
        }
        if r.verify_errors > 0 {
            fail(&format!("{} pages failed the final verify", r.verify_errors));
        }
        if r.fencing {
            // Fencing on: no stale write ever lands, no reader ever
            // sees pre-partition bytes, and the scrub never finds a
            // divergent copy — the split-brain SLO stays quiet.
            if r.stats.stale_applied > 0 {
                fail(&format!("{} stale-epoch entries applied", r.stats.stale_applied));
            }
            if r.tally.stale > 0 {
                fail(&format!("{} stale reads served", r.tally.stale));
            }
            if r.stats.scrub_divergence_found > 0 {
                fail(&format!(
                    "scrub found {} divergent copies under fencing",
                    r.stats.scrub_divergence_found
                ));
            }
            if r.split_brain_fired > 0 {
                fail("mon.split_brain fired under fencing");
            }
        } else {
            // Fencing off: the naive heal must demonstrably go stale —
            // and the scrub must detect and repair every divergence.
            if r.stats.scrub_divergence_found == 0 {
                fail("naive heal produced no divergence to detect");
            }
            if r.stats.scrub_divergence_repaired != r.stats.scrub_divergence_found {
                fail(&format!(
                    "repaired {} of {} divergent copies",
                    r.stats.scrub_divergence_repaired, r.stats.scrub_divergence_found
                ));
            }
            if r.split_brain_fired == 0 {
                fail("mon.split_brain never fired in the no-fencing demo");
            }
        }
    }
    table.print();

    let fenced_total: u64 = results
        .iter()
        .filter(|r| r.fencing)
        .map(|r| r.stats.fenced_writes)
        .sum();
    let fence_error_total: usize = results.iter().map(|r| r.fence_errors).sum();
    println!(
        "\nfenced writes (rejected stale-epoch entries) across fencing rows: {fenced_total} \
         ({fence_error_total} typed FencedEpoch rejections)"
    );
    println!(
        "\nExpected shape: every row holds 100% availability. With fencing on,\n\
         the cut-off node is fenced when its lease lapses (epoch bump), its\n\
         slabs re-replicate on the reachable side, stale-epoch batches are\n\
         rejected, and the scrub finds zero divergence — mon.split_brain is\n\
         silent. With fencing off the healed node serves and applies stale\n\
         state; the scrub detects it, repairs it by re-copy, and the\n\
         critical mon.split_brain rule fires."
    );

    opts.write_outputs(&tel);
    if opts.profiling() {
        // Merge per-mode profiles under `<plan>.<fencing>` frames, in
        // result order — deterministic at any --jobs.
        let mut profile: Option<Profile> = None;
        for r in &results {
            let mode = if r.fencing { "on" } else { "off" };
            let p = r
                .profile
                .as_ref()
                .expect("tracing enabled when profiling")
                .prefixed(&format!("{}.{mode}", r.plan));
            match &mut profile {
                Some(all) => all.merge(&p),
                None => profile = Some(p),
            }
        }
        if let Some(p) = &profile {
            opts.write_profile(p);
        }
    }
    if gate_failures > 0 {
        eprintln!("\n{gate_failures} partition gate(s) FAILED");
        return ExitCode::FAILURE;
    }
    println!("\nall partition gates passed");
    ExitCode::SUCCESS
}
