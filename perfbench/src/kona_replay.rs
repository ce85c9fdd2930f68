//! `kona-replay`: the paper's §6.1 methodology.
//!
//! One Redis-Rand trace (50% SETs, random keys, ~1.9M events) is replayed
//! through `KonaRuntime` and then through `VmRuntime` with
//! `VmProfile::kona_vm()`, both in timing mode with the local cache at
//! 50% of the footprint and telemetry disabled. The hit path (`coherence`
//! and `fpga`) dominates; this is the only workload where `vm-sim` runs,
//! and no `cluster` or `serve` code runs.

use crate::metrics::{RuntimeCounters, Values};
use crate::spans::{timed, Recorder};
use crate::stats::Digest;
use crate::{RoundOut, Workload};
use kona::{ClusterConfig, KonaRuntime, RemoteMemoryRuntime, RuntimeStats, VmProfile, VmRuntime};
use kona_fpga::{FpgaConfig, KonaFpga};
use kona_telemetry::{HostScopeStats, Telemetry};
use kona_trace::Trace;
use kona_types::{align_up, ByteSize, VfMemAddr, CACHE_LINE_SIZE, PAGE_SIZE_4K};
use kona_workloads::{RedisWorkload, Workload as _, WorkloadProfile};
use std::time::Instant;

/// Redis ops in the trace (two trace events each).
const OPS: usize = 960_000;
/// Footprint divisor: 4 GiB / 128 = 32 MiB.
const SCALE_DIVISOR: u64 = 128;
/// Span-ring capacity of the traced telemetry variants.
const TRACE_CAPACITY: usize = 1 << 18;
/// Flight-recorder traces kept by the causal variant.
const FLIGHT_CAPACITY: usize = 8;

pub struct KonaReplay {
    trace: Trace,
    span: u64,
    config: ClusterConfig,
    kona: KonaRuntime,
    vm: VmRuntime,
    generate_s: f64,
}

/// Timing-mode cluster caching half of `span` bytes locally.
fn config_for(span: u64) -> ClusterConfig {
    let pages = span / PAGE_SIZE_4K;
    let mut cfg = ClusterConfig::small().timing_only();
    cfg.node_capacity = ByteSize((span * 2).max(1 << 22));
    let cache_pages = (pages / 2).max(4) as usize;
    cfg.local_cache_pages = cache_pages - cache_pages % 4;
    cfg
}

/// A fresh Kona runtime with `span` bytes allocated.
fn kona_runtime(config: &ClusterConfig, span: u64, telemetry: Telemetry) -> KonaRuntime {
    let mut rt = KonaRuntime::with_telemetry(config.clone(), telemetry).expect("valid config");
    rt.allocate(span).expect("allocation fits");
    rt
}

/// Which `RuntimeStats` counters a Kona call moved.
fn kona_class(before: &RuntimeStats, after: &RuntimeStats) -> &'static str {
    if after.pages_evicted > before.pages_evicted {
        "core.evict"
    } else if after.remote_fetches > before.remote_fetches {
        "core.fetch"
    } else {
        "core.hit"
    }
}

fn digest_stats(d: &mut Digest, s: &RuntimeStats) {
    d.bytes(format!("{s:?}").as_bytes());
}

/// Host seconds of one whole Kona replay under `telemetry`.
fn replay_wall(trace: &Trace, config: &ClusterConfig, span: u64, telemetry: Telemetry) -> f64 {
    let mut rt = kona_runtime(config, span, telemetry);
    let start = Instant::now();
    rt.run_trace(trace.as_slice()).expect("trace replays");
    rt.sync().expect("sync");
    start.elapsed().as_secs_f64()
}

impl Workload for KonaReplay {
    fn setup(seed: u64) -> Self {
        let start = Instant::now();
        let profile = WorkloadProfile::default()
            .with_windows(8)
            .with_ops_per_window(OPS / 8)
            .with_scale_divisor(SCALE_DIVISOR);
        let trace = RedisWorkload::rand().with_profile(profile).generate(seed);
        let generate_s = start.elapsed().as_secs_f64();
        let span = align_up(trace.address_span() + PAGE_SIZE_4K, PAGE_SIZE_4K);
        let config = config_for(span);
        let kona = kona_runtime(&config, span, Telemetry::disabled());
        let mut vm = VmRuntime::new(config.clone(), VmProfile::kona_vm()).expect("valid config");
        vm.allocate(span).expect("allocation fits");
        KonaReplay {
            trace,
            span,
            config,
            kona,
            vm,
            generate_s,
        }
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut::default();
        let traced = rec.traced();
        rec.reserve(self.trace.len());
        let start = Instant::now();
        for e in self.trace.iter() {
            let before = traced.then(|| self.kona.stats());
            let (res, t0, ns) = timed(|| self.kona.access(e.access));
            rec.sample(ns);
            if let Some(before) = before {
                rec.call(kona_class(&before, &self.kona.stats()), t0, ns, false);
            }
            if let Err(err) = res {
                out.fail(format!("Kona access {:?}: {err}", e.access));
            }
        }
        let (res, t0, ns) = timed(|| self.kona.sync());
        rec.call("core.sync", t0, ns, true);
        if let Err(err) = res {
            out.fail(format!("Kona sync: {err}"));
        }
        for e in self.trace.iter() {
            let (res, t0, ns) = timed(|| self.vm.access(e.access));
            rec.call("vm-sim.access", t0, ns, false);
            if let Err(err) = res {
                out.fail(format!("VM access {:?}: {err}", e.access));
            }
        }
        let (res, t0, ns) = timed(|| self.vm.sync());
        rec.call("vm-sim.sync", t0, ns, true);
        if let Err(err) = res {
            out.fail(format!("VM sync: {err}"));
        }
        out.timed_s = start.elapsed().as_secs_f64();

        let events = self.trace.len() as u64;
        let (kona, vm) = (self.kona.stats(), self.vm.stats());
        let mut d = Digest::default();
        digest_stats(&mut d, &kona);
        digest_stats(&mut d, &vm);
        out.digest = d.get();
        out.ops = 2 * events;
        out.sim_ns_per_op = kona.app_time.as_ns() as f64 / events as f64;
        out
    }

    fn layers(&mut self, rec: &Recorder, scopes: &[HostScopeStats], v: &mut Values) {
        let events = self.trace.len() as f64;
        let kona = self.kona.stats();
        let vm = self.vm.stats();
        v.set("core.hit_ns", rec.class("core.hit").mean_ns());
        v.set("core.fetch_ns", rec.class("core.fetch").mean_ns());
        v.set("core.evict_ns", rec.class("core.evict").mean_ns());
        v.set("core.sync_us", rec.class("core.sync").mean_ns() / 1e3);
        let eviction = self.kona.eviction_stats();
        let (fpga, coherence) = (self.kona.fpga().stats(), self.kona.fpga().coherence_stats());
        let net = self.kona.fabric_mut().stats();
        v.set_runtime(RuntimeCounters {
            stats: &kona,
            eviction: &eviction,
            fpga: &fpga,
            coherence: &coherence,
            net: &net,
            ops: events,
        });
        v.set_scope("core.eviction_pack_ns", scopes, "eviction_pack", 1.0);

        v.set("vm-sim.access_ns", rec.class("vm-sim.access").mean_ns());
        v.set("vm-sim.major_faults", vm.major_faults as f64);
        v.set("vm-sim.minor_faults", vm.minor_faults as f64);
        v.set("vm-sim.tlb_invalidations", vm.tlb_invalidations as f64);
        v.set(
            "vm-sim.vm_over_kona",
            vm.app_time.as_ns() as f64 / kona.app_time.as_ns() as f64,
        );

        // Standalone FPGA (coherence + FMem, no fabric) fed the replay's
        // line stream.
        let mut fpga = KonaFpga::new(FpgaConfig {
            cpu_agents: 1,
            cpu_cache_lines: self.config.cpu_cache_lines,
            fmem_pages: self.config.local_cache_pages,
            fmem_ways: self.config.fmem_ways,
            prefetcher: self.config.prefetcher.clone(),
        });
        let mut lines = 0u64;
        let start = Instant::now();
        for e in self.trace.iter() {
            let mut line = e.access.addr.line_start().raw();
            let end = e.access.end().raw();
            loop {
                std::hint::black_box(fpga.cpu_access(VfMemAddr::new(line), e.access.kind));
                lines += 1;
                line += CACHE_LINE_SIZE;
                if line >= end {
                    break;
                }
            }
        }
        v.set(
            "fpga.line_ns",
            start.elapsed().as_nanos() as f64 / lines as f64,
        );

        // Telemetry's own cost: the Kona replay under tracing and causal
        // attribution, over the same replay with telemetry disabled.
        let off = replay_wall(&self.trace, &self.config, self.span, Telemetry::disabled());
        let tracing = Telemetry::with_tracing(TRACE_CAPACITY);
        let on = replay_wall(&self.trace, &self.config, self.span, tracing);
        let causal = Telemetry::with_causal(TRACE_CAPACITY, FLIGHT_CAPACITY);
        let causal_s = replay_wall(&self.trace, &self.config, self.span, causal);
        v.set("telemetry.tracing_overhead", on / off);
        v.set("telemetry.causal_overhead", causal_s / off);
    }
}
