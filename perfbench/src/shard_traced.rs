//! `shard-traced`: the canonical profiling scenario, scaled up.
//!
//! `ShardedRun` runs `seeded_script` (60% line writes, uniform pages) over
//! 4096 pages against 64-page caches, on 3 memory nodes with 2 replicas,
//! as 8 logical shards on 2 worker threads with span tracing and
//! time-series windows on. It is the only multi-threaded path and the only
//! workload with spans on; nearly every op fetches and evicts, so `core`
//! eviction and `net` do most of the work here.

use crate::metrics::{RuntimeCounters, Values};
use crate::spans::{timed, Recorder};
use crate::stats::Digest;
use crate::{RoundOut, Workload};
use kona::{seeded_script, ClusterConfig, FailurePolicy, ShardOp, ShardReport, ShardedRun};
use kona_net::FaultPlan;
use kona_telemetry::{HostScopeStats, DEFAULT_WINDOW_NS};
use kona_types::{ShardPlan, Shards};
use std::time::Instant;

/// Script operations (a `Sync` follows every 1024).
const OPS: usize = 300_000;
/// Global pages the script touches.
const PAGES: u64 = 4096;
/// Logical shards, and the worker threads that run them.
const LOGICAL: u32 = 8;
const WORKERS: usize = 2;
/// Span-ring capacity per shard.
const TRACE_CAPACITY: usize = 1 << 18;

pub struct ShardTraced {
    script: Vec<ShardOp>,
    seed: u64,
    report: Option<ShardReport>,
    generate_s: f64,
}

/// The scenario's run; `tracing` switches span recording.
fn sharded_run(seed: u64, tracing: bool) -> ShardedRun {
    let mut cfg = ClusterConfig::small().with_replicas(2);
    cfg.memory_nodes = 3;
    cfg.local_cache_pages = 64;
    cfg.cpu_cache_lines = 512;
    cfg.fault_plan = Some(FaultPlan::calm(seed));
    let run = ShardedRun::new(cfg, PAGES)
        .with_plan(ShardPlan::new(LOGICAL))
        .with_windows(DEFAULT_WINDOW_NS)
        .with_failure_policy(FailurePolicy::PageFaultFallback);
    if tracing {
        run.with_tracing(TRACE_CAPACITY)
    } else {
        run
    }
}

impl Workload for ShardTraced {
    fn setup(seed: u64) -> Self {
        let start = Instant::now();
        let script = seeded_script(PAGES, OPS, seed);
        ShardTraced {
            script,
            seed,
            report: None,
            generate_s: start.elapsed().as_secs_f64(),
        }
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut::default();
        let run = sharded_run(self.seed, true);
        let start = Instant::now();
        let (res, t0, ns) = timed(|| run.execute(&self.script, Shards::new(WORKERS)));
        out.timed_s = start.elapsed().as_secs_f64();
        rec.sample(ns);
        rec.call("core.shard_execute", t0, ns, true);
        out.ops = self.script.len() as u64;
        match res {
            Ok(report) => {
                for (shard, &n) in report.shard_failed.iter().enumerate() {
                    for _ in 0..n {
                        out.fail(format!("shard {shard}: op failed"));
                    }
                }
                out.digest = Digest::default()
                    .bytes(report.fingerprint().as_bytes())
                    .get();
                out.sim_ns_per_op = report.app_time_max.as_ns() as f64 / out.ops as f64;
                self.report = Some(report);
            }
            Err(e) => {
                out.fail(format!("sharded run: {e}"));
                out.failed = out.ops;
            }
        }
        out
    }

    fn layers(&mut self, rec: &Recorder, scopes: &[HostScopeStats], v: &mut Values) {
        let Some(report) = &self.report else {
            return;
        };
        let ops = self.script.len() as f64;
        v.set_runtime(RuntimeCounters {
            stats: &report.stats,
            eviction: &report.eviction,
            fpga: &report.fpga,
            coherence: &report.coherence,
            net: &report.net,
            ops,
        });
        v.set("core.shard_ops_skew", report.ops_skew());
        v.set_scope("core.eviction_pack_ns", scopes, "eviction_pack", 1.0);
        v.set_scope("core.shard_merge_ms", scopes, "shard_merge", 1e6);
        v.set("telemetry.spans_dropped", report.stats.spans_dropped as f64);

        // Span tracing's share of the traced wall: the same script with
        // tracing off, against the traced round.
        let untraced = sharded_run(self.seed, false);
        let start = Instant::now();
        untraced
            .execute(&self.script, Shards::new(WORKERS))
            .expect("untraced run completes");
        let untraced_ns = start.elapsed().as_nanos() as f64;
        let traced_ns = rec.class("core.shard_execute").total_ns as f64;
        v.set("telemetry.span_share", 1.0 - untraced_ns / traced_ns);
    }
}
