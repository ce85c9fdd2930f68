//! Chaos integration: every bundled fault plan must leave a replicated
//! workload complete and byte-correct, deterministically.
//!
//! The fault injector, retry jitter and workload generator are all seeded,
//! so one seed defines a run bit for bit — including across `par_map`
//! worker counts (PR 2's `--jobs` determinism contract). The seed comes
//! from `CHAOS_SEED` (default 42) so CI can sweep seeds cheaply.

use kona::{
    line_stream, ClusterConfig, FailurePolicy, KonaRuntime, OpTally, ReferenceMemory,
    RemoteMemoryRuntime,
};
use kona_net::FaultPlan;
use kona_types::{par_map, Jobs};

const PAGES: u64 = 48;
const OPS: u64 = 900;
const VICTIM: u32 = 0;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn cluster(plan: FaultPlan) -> ClusterConfig {
    let mut cfg = ClusterConfig::small().with_local_cache_pages(8).with_replicas(2);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = 3;
    cfg.fault_plan = Some(plan);
    cfg
}

/// Runs the seeded workload under `plan` and returns a fingerprint line:
/// counters that cover every nondeterminism-sensitive path (fault draws,
/// retry jitter, failover order, degraded transitions). Asserts that the
/// workload completes and that all surviving data is byte-exact.
fn run_chaos(plan: FaultPlan, seed: u64) -> String {
    let name = plan.name;
    let mut rt = KonaRuntime::new(cluster(plan)).expect("valid chaos config");
    rt.set_failure_policy(FailurePolicy::PageFaultFallback);
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    let mut reference = ReferenceMemory::new(base, PAGES);
    let mut tally = OpTally::default();
    for op in line_stream(PAGES, seed).take(OPS as usize) {
        tally.count(reference.apply(&mut rt, op));
    }
    assert_eq!(tally.stale, 0, "{name}: stale reads");
    let completed = tally.completed;
    assert!(
        completed >= OPS * 9 / 10,
        "{name}: only {completed}/{OPS} accesses completed"
    );
    rt.sync().expect("final sync must succeed (losses within budget)");
    // Every page must read back exactly as the reference predicts —
    // possibly from a replica, never from a node with an abandoned
    // writeback.
    assert_eq!(reference.verify_all(&mut rt), 0, "{name}: pages unreadable or diverged");
    let s = rt.stats();
    let ev = rt.eviction_stats();
    let faults = rt.fabric_mut().fault_stats();
    format!(
        "{name}: completed={completed} fetches={} retries={} backoff={} failovers={} \
         fallback_waits={} degraded={} flush_retries={} abandoned={} \
         dropped={} corrupted={} timed_out={} node_down={}",
        s.remote_fetches,
        s.retries,
        s.backoff_time,
        s.failovers,
        s.fallback_waits,
        s.degraded_entries,
        ev.flush_retries,
        ev.abandoned_flushes,
        faults.dropped,
        faults.corrupted,
        faults.timed_out,
        faults.node_down_rejections,
    )
}

#[test]
fn every_bundled_plan_completes_with_correct_data() {
    let seed = chaos_seed();
    let plans = FaultPlan::bundled(seed, VICTIM);
    let expected = plans.len();
    let lines = par_map(Jobs::available(), plans, |_, plan| run_chaos(plan, seed));
    assert_eq!(lines.len(), expected, "all bundled plans ran");
    assert!(expected >= 9, "bundle includes the partition plans");
}

#[test]
fn identical_seeds_are_byte_identical_across_job_counts() {
    let seed = chaos_seed();
    let run = |jobs: usize| {
        par_map(Jobs::new(jobs), FaultPlan::bundled(seed, VICTIM), |_, plan| {
            run_chaos(plan, seed)
        })
        .join("\n")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "fingerprints must not depend on --jobs");
    // And a fresh serial run replays the exact same history.
    assert_eq!(serial, run(1), "same seed must replay bit for bit");
}

#[test]
fn different_seeds_change_fault_histories() {
    // Sanity check that the fingerprint actually captures fault activity:
    // the lossy plan with two different seeds draws different faults.
    let a = run_chaos(FaultPlan::bundled(1, VICTIM).swap_remove(1), 1);
    let b = run_chaos(FaultPlan::bundled(2, VICTIM).swap_remove(1), 2);
    assert_ne!(a, b, "seeds must steer the injected fault history");
}
