//! `serve-mt`: eight tenants on `ServeRuntime` over `ClusterRuntime`, in
//! tracked data mode, on the `fig_tenants` cluster (FMem 256 pages, 512
//! CPU-cache lines, default control plane).
//!
//! Seven demand tenants issue seeded streams of 64 B ops (30% writes, 90%
//! of ops on a 32-page hot set of 256 pages); the eighth is a rate-limited,
//! write-heavy aggressor, so admission, the QoS review, eviction priority
//! and shedding all do work. Every admitted read is checked byte for byte
//! against the tenant's reference, and every range a demand tenant wrote
//! is read back at the end. This is the only workload that moves real
//! bytes through log shipping, node apply, the truth store and scrub.

use crate::metrics::{RuntimeCounters, Values};
use crate::spans::{timed, Recorder};
use crate::stats::Digest;
use crate::{RoundOut, Workload};
use kona::{ClusterConfig, RemoteMemoryRuntime};
use kona_cluster::ControlPlaneConfig;
use kona_serve::{Admission, ServeConfig, ServeRuntime, TenantConfig};
use kona_telemetry::{HostScopeStats, Telemetry};
use kona_types::rng::{Rng, StdRng};
use kona_types::{derive_shard_seed, KonaError, Nanos, VirtAddr};
use std::collections::BTreeSet;
use std::time::Instant;

/// Operations in the stream, all tenants together.
const OPS: usize = 160_000;
/// Tenants; the last one is the aggressor.
const TENANTS: u32 = 8;
const AGGRESSOR: u32 = TENANTS;
/// Demand tenants' working set and its hot subset, in pages.
const WS_PAGES: u64 = 256;
const HOT_PAGES: u64 = 32;
/// The aggressor streams over this many pages.
const AGGR_PAGES: u64 = 4 * 256;
/// Op size in bytes.
const OP_BYTES: usize = 64;
/// Demand tenants' p99 SLO: remote fetches burn it, so the QoS review
/// protects them while the aggressor pollutes FMem.
const DEMAND_SLO: Nanos = Nanos::micros(2);
/// Aggressor admission: ops per simulated ms, and burst.
const AGGR_RATE_PER_MS: u64 = 20;
const AGGR_BURST: u64 = 8;

#[derive(Debug, Clone, Copy)]
struct Op {
    tenant: u32,
    write: bool,
    offset: u64,
    fill: u8,
}

/// How one serve call ended, for the failure accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Admitted and, for a read, bytes equal the reference.
    Ran,
    /// Shed at the front door: load shedding, not a failure.
    Throttled,
    /// A read returned bytes that differ from the reference.
    Mismatch,
    /// The call returned an error.
    Error,
}

impl Outcome {
    /// Whether the outcome counts as a failed operation.
    pub fn failed(self) -> bool {
        matches!(self, Outcome::Mismatch | Outcome::Error)
    }
}

pub struct ServeMt {
    ops: Vec<Op>,
    serve: ServeRuntime,
    bases: Vec<VirtAddr>,
    models: Vec<Vec<u8>>,
    generate_s: f64,
}

/// The seeded op stream: tenants take turns; each draws from its own
/// stream derived from `seed`.
fn generate(seed: u64) -> Vec<Op> {
    let mut rngs: Vec<StdRng> = (1..=TENANTS)
        .map(|id| StdRng::seed_from_u64(derive_shard_seed(seed, id)))
        .collect();
    let mut aggr_cursor = 0u64;
    (0..OPS)
        .map(|i| {
            let tenant = (i as u32 % TENANTS) + 1;
            let rng = &mut rngs[tenant as usize - 1];
            let line = rng.gen_range(0..64u64) * OP_BYTES as u64;
            let (page, write) = if tenant == AGGRESSOR {
                aggr_cursor += 1;
                (aggr_cursor % AGGR_PAGES, rng.gen_bool(0.8))
            } else {
                let page = if rng.gen_bool(0.9) {
                    rng.gen_range(0..HOT_PAGES)
                } else {
                    rng.gen_range(0..WS_PAGES)
                };
                (page, rng.gen_bool(0.3))
            };
            Op {
                tenant,
                write,
                offset: page * 4096 + line,
                fill: rng.gen(),
            }
        })
        .collect()
}

/// Runs one op against the runtime and its reference model.
fn apply(serve: &mut ServeRuntime, base: VirtAddr, model: &mut [u8], op: &Op) -> (Outcome, Nanos) {
    let at = op.offset as usize;
    let addr = base + op.offset;
    let res = if op.write {
        serve.write(op.tenant, addr, &[op.fill; OP_BYTES])
    } else {
        let mut buf = [0u8; OP_BYTES];
        let res = serve.read(op.tenant, addr, &mut buf);
        if let Ok(Admission::Ran(ns)) = res {
            if buf[..] != model[at..at + OP_BYTES] {
                return (Outcome::Mismatch, ns);
            }
        }
        res
    };
    match res {
        Ok(Admission::Ran(ns)) => {
            if op.write {
                model[at..at + OP_BYTES].fill(op.fill);
            }
            (Outcome::Ran, ns)
        }
        Ok(Admission::Throttled) => (Outcome::Throttled, Nanos::ZERO),
        Err(_) => (Outcome::Error, Nanos::ZERO),
    }
}

impl Workload for ServeMt {
    fn setup(seed: u64) -> Self {
        let start = Instant::now();
        let ops = generate(seed);
        let generate_s = start.elapsed().as_secs_f64();
        let mut cfg = ClusterConfig::small().with_local_cache_pages(256);
        cfg.cpu_cache_lines = 512;
        let mut serve = ServeRuntime::with_telemetry(
            cfg,
            ControlPlaneConfig::default(),
            ServeConfig::default(),
            Telemetry::disabled(),
        )
        .expect("valid config");
        let slab = serve.slab_bytes();
        let mut bases = Vec::new();
        let mut models = Vec::new();
        for id in 1..=TENANTS {
            let tenant = if id == AGGRESSOR {
                TenantConfig::new(id)
                    .with_quota_bytes(4 * slab)
                    .with_slo(Nanos::millis(10))
                    .with_rate(AGGR_RATE_PER_MS, AGGR_BURST)
                    .with_qos_class(0)
            } else {
                TenantConfig::new(id)
                    .with_quota_bytes(slab)
                    .with_slo(DEMAND_SLO)
                    .with_qos_class(2)
            };
            let bytes = tenant.quota_bytes;
            serve.register_tenant(tenant).expect("register tenant");
            bases.push(serve.grow_tenant(id, bytes).expect("initial grow"));
            models.push(vec![0u8; bytes as usize]);
        }
        ServeMt {
            ops,
            serve,
            bases,
            models,
            generate_s,
        }
    }

    fn generate_s(&self) -> f64 {
        self.generate_s
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut::default();
        let traced = rec.traced();
        let mut sim_ns = 0u64;
        let mut admitted = 0u64;
        let mut written: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); TENANTS as usize];
        rec.reserve(self.ops.len());
        let start = Instant::now();
        for op in &self.ops {
            let idx = op.tenant as usize - 1;
            let before = traced.then(|| {
                let c = self.serve.cluster();
                (c.ticks(), c.scrub_stats().copies_checked)
            });
            let ((outcome, ns), t0, host_ns) =
                timed(|| apply(&mut self.serve, self.bases[idx], &mut self.models[idx], op));
            rec.sample(host_ns);
            if let Some((ticks, scrubbed)) = before {
                let c = self.serve.cluster();
                let class = if outcome == Outcome::Throttled {
                    "serve.throttled"
                } else if c.scrub_stats().copies_checked > scrubbed {
                    "cluster.scrub"
                } else if c.ticks() > ticks {
                    "cluster.tick"
                } else {
                    "serve.plain"
                };
                rec.call(class, t0, host_ns, false);
            }
            if outcome.failed() {
                out.fail(format!("tenant {} {op:?}: {outcome:?}", op.tenant));
            } else if outcome == Outcome::Ran {
                admitted += 1;
                sim_ns += ns.as_ns();
                if op.write {
                    written[idx].insert(op.offset);
                }
            }
        }
        let (res, t0, ns) = timed(|| self.serve.sync());
        rec.call("serve.sync", t0, ns, true);
        if let Err(e) = res {
            out.fail(format!("sync: {e}"));
        }
        out.timed_s = start.elapsed().as_secs_f64();

        // Final read-back of every range a demand tenant wrote (the
        // aggressor's admitted reads were checked in the stream; its
        // read-backs would mostly be throttled).
        for id in 1..AGGRESSOR {
            let idx = id as usize - 1;
            for &offset in &written[idx] {
                let mut buf = [0u8; OP_BYTES];
                let at = offset as usize;
                match self.serve.read(id, self.bases[idx] + offset, &mut buf) {
                    Ok(Admission::Ran(_)) if buf[..] == self.models[idx][at..at + OP_BYTES] => {}
                    other => out.fail(format!(
                        "read-back tenant {id} +{offset}: {}",
                        describe(other)
                    )),
                }
            }
        }

        let report = self.serve.report();
        let mut d = Digest::default();
        d.word(self.serve.fingerprint())
            .word(report.fingerprint())
            .word(sim_ns)
            .word(admitted);
        out.digest = d.get();
        out.ops = self.ops.len() as u64;
        out.sim_ns_per_op = sim_ns as f64 / admitted.max(1) as f64;
        out
    }

    fn layers(&mut self, rec: &Recorder, scopes: &[HostScopeStats], v: &mut Values) {
        let ops = self.ops.len() as f64;
        let timed_ns: u64 = rec.classes().values().map(|c| c.total_ns).sum();
        v.set("serve.plain_us", rec.class("serve.plain").mean_ns() / 1e3);
        v.set("serve.throttled_ns", rec.class("serve.throttled").mean_ns());
        v.set("cluster.tick_us", rec.class("cluster.tick").mean_ns() / 1e3);
        v.set(
            "cluster.scrub_us",
            rec.class("cluster.scrub").mean_ns() / 1e3,
        );
        v.set(
            "cluster.scrub_share",
            rec.class("cluster.scrub").total_ns as f64 / timed_ns.max(1) as f64,
        );
        v.set_scope("cluster.shipment_apply_ns", scopes, "shipment_apply", 1.0);
        v.set_scope("cluster.compaction_ns", scopes, "compaction", 1.0);
        v.set_scope("core.eviction_pack_ns", scopes, "eviction_pack", 1.0);
        let cluster = self.serve.cluster().cluster_stats();
        v.set("cluster.entries_applied", cluster.entries_applied as f64);
        v.set("cluster.compaction_ratio", cluster.compaction_ratio());

        let report = self.serve.report();
        v.set("serve.admitted", report.admitted as f64);
        v.set("serve.throttled", report.throttled as f64);
        v.set(
            "serve.protected_windows",
            report
                .tenants
                .iter()
                .map(|t| t.protected_windows)
                .sum::<u64>() as f64,
        );
        v.set(
            "serve.shed_windows",
            report.tenants.iter().map(|t| t.shed_windows).sum::<u64>() as f64,
        );
        let worst_p99 = (1..AGGRESSOR)
            .filter_map(|id| self.serve.tenant_latency(id))
            .map(|h| h.p99())
            .max()
            .unwrap_or(0);
        v.set("serve.sim_p99_ns", worst_p99 as f64);

        let inner = self.serve.cluster().inner();
        let (stats, eviction) = (inner.stats(), inner.eviction_stats());
        let (fpga, coherence) = (inner.fpga().stats(), inner.fpga().coherence_stats());
        let net = self.serve.cluster_mut().inner_mut().fabric_mut().stats();
        v.set_runtime(RuntimeCounters {
            stats: &stats,
            eviction: &eviction,
            fpga: &fpga,
            coherence: &coherence,
            net: &net,
            ops,
        });
    }
}

fn describe(res: Result<Admission, KonaError>) -> String {
    match res {
        Ok(Admission::Ran(_)) => "bytes differ from the reference".into(),
        Ok(Admission::Throttled) => "throttled".into(),
        Err(e) => e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::failed_frac;

    #[test]
    fn throttled_calls_are_attempted_but_not_failed() {
        let outcomes = [
            Outcome::Ran,
            Outcome::Throttled,
            Outcome::Throttled,
            Outcome::Mismatch,
            Outcome::Error,
        ];
        let failed = outcomes.iter().filter(|o| o.failed()).count() as u64;
        assert_eq!(failed, 2);
        assert_eq!(failed_frac(failed, outcomes.len() as u64), 0.4);
        assert!(!Outcome::Throttled.failed() && !Outcome::Ran.failed());
    }

    #[test]
    fn stream_is_a_function_of_the_seed() {
        let a = generate(7);
        let b = generate(7);
        let c = generate(8);
        let key = |ops: &[Op]| -> Vec<(u32, bool, u64, u8)> {
            ops.iter()
                .map(|o| (o.tenant, o.write, o.offset, o.fill))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert!(a
            .iter()
            .all(|o| o.offset as usize + OP_BYTES <= 4 * 256 * 4096));
    }
}
