//! Partition tolerance integration: lease/epoch fencing and integrity
//! scrubbing under the bundled partition fault plans.
//!
//! Invariants pinned here (the PR's acceptance gates):
//! - With fencing on, a partitioned-then-healed cluster keeps 100%
//!   availability, applies zero stale-epoch log entries, and ends with
//!   zero divergent replica copies.
//! - With fencing off, the naive heal provably goes stale — and the
//!   integrity scrub detects *and repairs* every divergent copy.
//! - Whole runs are deterministic: identical stats across replays and
//!   `par_map` job counts, and byte-identical sharded fingerprints at
//!   any worker width.

use kona::{
    line_stream, seeded_script, ClusterConfig, FailurePolicy, OpTally, ReferenceMemory,
    RemoteMemoryRuntime, ShardedRun,
};
use kona_cluster::{ClusterRuntime, ControlPlaneConfig};
use kona_net::FaultPlan;
use kona_telemetry::{Telemetry, DEFAULT_WINDOW_NS};
use kona_types::{par_map, Jobs, Nanos, ShardPlan, Shards};

const PAGES: u64 = 64;
const OPS: u64 = 1_500;
const SEED: u64 = 42;
const VICTIM: u32 = 0;
/// Past every scheduled heal (2.5 ms) and the late crash (5 ms).
const HORIZON: Nanos = Nanos::from_ns(6_000_000);

fn partition_plans(seed: u64) -> Vec<FaultPlan> {
    let plans: Vec<FaultPlan> = FaultPlan::bundled(seed, VICTIM)
        .into_iter()
        .filter(|p| p.name == "partitioned" || p.name == "partition_then_crash")
        .collect();
    assert_eq!(plans.len(), 2, "both partition plans are bundled");
    plans
}

struct PartitionRun {
    tally: OpTally,
    verify_errors: u64,
    stats: kona_cluster::ClusterStats,
    /// Divergence found by a second full scrub after the catch-up pass.
    end_divergence: u64,
}

impl PartitionRun {
    /// Everything determinism-sensitive, as one comparable line.
    fn fingerprint(&self, plan: &str, fencing: bool) -> String {
        format!(
            "{plan} fencing={fencing} ok={} failed={} stale_reads={} stats={:?}",
            self.tally.completed, self.tally.failed, self.tally.stale, self.stats
        )
    }
}

/// The fig_partition workload: seeded reads/writes with a periodic
/// durability sync (flushing mid-partition is what exposes the cut),
/// then an epilogue past every heal, then a two-pass scrub audit.
fn run_partition(plan: FaultPlan, fencing: bool) -> PartitionRun {
    let mut cfg = ClusterConfig::small().with_local_cache_pages(8).with_replicas(2);
    cfg.cpu_cache_lines = 64;
    cfg.memory_nodes = 3;
    cfg.fault_plan = Some(plan);
    let plane = ControlPlaneConfig {
        tick_ops: 16,
        fencing,
        ..ControlPlaneConfig::default()
    };
    let mut rt = ClusterRuntime::with_telemetry(cfg, plane, Telemetry::disabled())
        .expect("valid config");
    rt.inner_mut().set_failure_policy(FailurePolicy::PageFaultFallback);
    let base = rt.allocate(PAGES * 4096).expect("allocate");
    let mut reference = ReferenceMemory::new(base, PAGES);
    let mut tally = OpTally::default();
    let mut stream = line_stream(PAGES, SEED);
    for (i, op) in stream.by_ref().take(OPS as usize).enumerate() {
        tally.count(reference.apply(&mut rt, op));
        if i % 8 == 7 {
            let _ = rt.sync();
        }
    }
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

    rt.scrub_all();
    let mid = rt.scrub_stats();
    rt.scrub_all();
    let fin = rt.scrub_stats();
    let end_divergence = fin.divergence_found - mid.divergence_found;

    let verify_errors = reference.verify_all(&mut rt);
    PartitionRun {
        tally,
        verify_errors,
        stats: rt.cluster_stats(),
        end_divergence,
    }
}

/// Fencing on: full availability, zero stale-epoch applies, zero stale
/// reads, a clean scrub, and a restored replication budget — for both
/// partition plans.
#[test]
fn fencing_holds_availability_and_rejects_every_stale_write() {
    for plan in partition_plans(SEED) {
        let name = plan.name;
        let r = run_partition(plan, true);
        assert_eq!(r.tally.failed, 0, "{name}: availability below 100%");
        assert!(r.tally.completed > 0, "{name}: workload ran");
        assert_eq!(r.stats.stale_applied, 0, "{name}: stale epoch entries applied");
        assert_eq!(r.tally.stale, 0, "{name}: stale reads served");
        assert_eq!(r.verify_errors, 0, "{name}: final verify failed");
        assert_eq!(
            r.stats.scrub_divergence_found, 0,
            "{name}: scrub found divergence under fencing"
        );
        assert_eq!(r.end_divergence, 0, "{name}: divergent copies at end of run");
        assert_eq!(r.stats.under_replicated, 0, "{name}: under-replicated at end");
        assert!(
            r.stats.lease_expirations >= 1,
            "{name}: the cut-off node was never fenced: {:?}",
            r.stats
        );
        assert!(
            r.stats.lease_rejoins >= 1,
            "{name}: the healed node never rejoined: {:?}",
            r.stats
        );
    }
}

/// Fencing off: the naive heal serves and applies stale state; the
/// integrity scrub detects and repairs every divergent copy.
#[test]
fn naive_heal_goes_stale_and_scrub_repairs_it() {
    let mut total_divergence = 0;
    let mut total_stale_applied = 0;
    for plan in partition_plans(SEED) {
        let name = plan.name;
        let r = run_partition(plan, false);
        assert_eq!(r.tally.failed, 0, "{name}: availability below 100%");
        assert!(
            r.stats.scrub_divergence_found >= 1,
            "{name}: naive heal produced no divergence: {:?}",
            r.stats
        );
        assert_eq!(
            r.stats.scrub_divergence_repaired, r.stats.scrub_divergence_found,
            "{name}: scrub failed to repair what it found"
        );
        assert_eq!(r.end_divergence, 0, "{name}: repair did not converge");
        assert_eq!(r.verify_errors, 0, "{name}: final verify failed");
        total_divergence += r.stats.scrub_divergence_found;
        total_stale_applied += r.stats.stale_applied;
    }
    assert!(total_divergence >= 2, "both plans diverge without fencing");
    assert!(
        total_stale_applied >= 1,
        "stale-epoch batches were applied somewhere in the naive demo"
    );
}

/// Every (plan, fencing) combination replays bit-for-bit and is
/// invariant under `par_map` job counts.
#[test]
fn partition_runs_are_deterministic_across_jobs_and_replay() {
    let combos: Vec<(FaultPlan, bool)> = partition_plans(SEED)
        .into_iter()
        .flat_map(|p| [(p.clone(), true), (p, false)])
        .collect();
    let fingerprint = |(plan, fencing): &(FaultPlan, bool)| {
        let name = plan.name;
        run_partition(plan.clone(), *fencing).fingerprint(name, *fencing)
    };
    let serial: Vec<String> = combos.iter().map(fingerprint).collect();
    let parallel = par_map(Jobs::new(4), combos.clone(), |_, c| fingerprint(&c));
    assert_eq!(serial, parallel, "job count changed partition histories");
    let replay: Vec<String> = combos.iter().map(fingerprint).collect();
    assert_eq!(serial, replay, "replay diverged");
}

/// The shard engine stays byte-deterministic under the partition plans:
/// serial, 2-wide and 8-wide execution (and a replay) produce identical
/// merged fingerprints.
#[test]
fn sharded_fingerprints_survive_partitions_at_any_width() {
    let script = seeded_script(PAGES, 800, SEED);
    for plan in partition_plans(SEED) {
        let name = plan.name;
        let mut cfg = ClusterConfig::small().with_replicas(2);
        cfg.memory_nodes = 3;
        cfg.local_cache_pages = 64;
        cfg.cpu_cache_lines = 512;
        cfg.fault_plan = Some(plan);
        let sharded = ShardedRun::new(cfg, PAGES)
            .with_plan(ShardPlan::new(8))
            .with_windows(DEFAULT_WINDOW_NS)
            .with_failure_policy(FailurePolicy::PageFaultFallback);
        let base = sharded
            .execute(&script, Shards::serial())
            .unwrap_or_else(|e| panic!("serial run under {name}: {e:?}"))
            .fingerprint();
        for workers in [2usize, 8] {
            let wide = sharded
                .execute(&script, Shards::new(workers))
                .unwrap_or_else(|e| panic!("{workers}-wide run under {name}: {e:?}"))
                .fingerprint();
            assert_eq!(base, wide, "worker count changed history under {name}");
        }
        let replay = sharded
            .execute(&script, Shards::serial())
            .expect("replay")
            .fingerprint();
        assert_eq!(base, replay, "replay diverged under {name}");
    }
}
