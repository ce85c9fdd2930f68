//! The shard-parallel simulation engine.
//!
//! One Kona simulation is a long serial chain: every access walks the
//! CPU caches, the coherence directory, the FPGA's FMem and translation
//! state and (on a miss) the fabric — all single-threaded. PR 2's
//! [`par_map`](kona_types::par_map) only parallelizes *across* runs, so a
//! single big experiment point still takes a single core.
//!
//! This module splits one run. A [`ShardPlan`] stripes the page space
//! into a fixed number of **logical shards** (page `p` → shard
//! `p % logical`); each logical shard owns a complete vertical slice of
//! the runtime — its own eviction handler and shipment journal, its own
//! coherence directory and FMem partition, its own fabric, fault-injector
//! and RNG streams (seeded by
//! [`derive_shard_seed`](kona_types::derive_shard_seed)), its own
//! telemetry registry and trace-span ring. Shards share nothing, so
//! [`ShardedRun::execute`] can run them on `--shards N` worker threads
//! and merge results **in shard order**, making the combined output
//! byte-identical at every worker count:
//!
//! * counters and stats merge by field ([`RuntimeStats::merge`] and
//!   friends);
//! * metric registries absorb in shard order into one [`MetricsDump`];
//! * time-series windows merge index-wise ([`SeriesData::merge`]);
//! * trace spans merge by `(start, shard)`
//!   ([`merge_span_streams`](kona_telemetry::merge_span_streams));
//! * shipment journals sequence by `(time, shard)`
//!   ([`sequence_streams`](kona_types::sequence_streams)).
//!
//! The logical shard count is part of the *model* (it decides which pages
//! share a directory partition), so it stays fixed while `--shards`
//! varies; [`ShardReport::fingerprint`] captures the merged history and
//! is the byte-equality witness used by the determinism tests and CI.
//!
//! # Examples
//!
//! ```
//! use kona::{ClusterConfig, ShardedRun};
//! use kona_types::{ShardPlan, Shards};
//!
//! let run = ShardedRun::new(ClusterConfig::small(), 256).with_plan(ShardPlan::new(4));
//! let script = kona::seeded_script(256, 2_000, 42);
//! let serial = run.execute(&script, Shards::serial()).unwrap();
//! let wide = run.execute(&script, Shards::new(4)).unwrap();
//! assert_eq!(serial.fingerprint(), wide.fingerprint());
//! ```

use crate::config::{ClusterConfig, DataMode};
use crate::eviction::EvictionStats;
use crate::failure::FailurePolicy;
use crate::log::ShipmentBatch;
use crate::runtime::{KonaRuntime, RemoteMemoryRuntime};
use crate::stats::RuntimeStats;
use kona_coherence::CoherenceStats;
use kona_fpga::FpgaStats;
use kona_net::{FaultStats, NetStats};
use kona_telemetry::{
    host_scope, merge_span_streams, MetricsDump, Profile, Registry, SeriesData, SpanEvent,
    Telemetry,
};
use kona_types::rng::{Rng, StdRng};
use kona_types::{
    par_map, sequence_streams, Jobs, Nanos, Result, ShardPlan, Shards, VirtAddr, CACHE_LINE_SIZE,
    LINES_PER_PAGE_4K, PAGE_SIZE_4K,
};

/// One scripted operation against the sharded page space.
///
/// Pages are *global* logical page ids in `0..pages`; the engine routes
/// each op to the owning shard ([`ShardPlan::shard_of_page`]) while
/// preserving per-shard order, so a script is a deterministic workload
/// regardless of worker count. Accesses stay within one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOp {
    /// Store `len` bytes of `fill` at line `line` of page `page`.
    Write {
        /// Global logical page id.
        page: u64,
        /// Cache line within the page (`0..64`).
        line: u32,
        /// Bytes stored from the line start (`1..=64`).
        len: u32,
        /// Payload byte.
        fill: u8,
    },
    /// Load `len` bytes from line `line` of page `page` (checked against
    /// a [`ReferenceMemory`] when data tracking is on).
    Read {
        /// Global logical page id.
        page: u64,
        /// Cache line within the page (`0..64`).
        line: u32,
        /// Bytes loaded from the line start (`1..=64`).
        len: u32,
    },
    /// Flush all dirty state (broadcast to every shard at this point of
    /// the script).
    Sync,
}

impl ShardOp {
    /// The same op moved to `page` ([`ShardOp::Sync`] is unchanged).
    fn on_page(self, page: u64) -> ShardOp {
        match self {
            ShardOp::Write { line, len, fill, .. } => ShardOp::Write { page, line, len, fill },
            ShardOp::Read { line, len, .. } => ShardOp::Read { page, line, len },
            ShardOp::Sync => ShardOp::Sync,
        }
    }
}

/// A compact, order-preserving digest of one flushed log batch, used in
/// the sequenced shipment stream so the merged journal history can be
/// fingerprinted without retaining payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipmentDigest {
    /// Destination memory node (within the shard's fabric).
    pub node: u32,
    /// Encoded batch length in bytes.
    pub bytes: u64,
    /// FNV-1a hash of the encoded batch.
    pub checksum: u64,
}

/// Generates a deterministic mixed read/write script over `pages` global
/// pages: ~60 % line-granularity stores with varying lengths and fills,
/// ~40 % loads, a global [`ShardOp::Sync`] every 1024 ops and one at the
/// end. The same `(pages, ops, seed)` always yields the same script.
pub fn seeded_script(pages: u64, ops: usize, seed: u64) -> Vec<ShardOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(ops + ops / 1024 + 1);
    for i in 0..ops {
        let page = rng.gen_range(0..pages.max(1));
        let line = rng.gen_range(0..LINES_PER_PAGE_4K as u32);
        if rng.gen_bool(0.6) {
            script.push(ShardOp::Write {
                page,
                line,
                len: rng.gen_range(8..=CACHE_LINE_SIZE as u32),
                fill: rng.gen(),
            });
        } else {
            script.push(ShardOp::Read {
                page,
                line,
                len: CACHE_LINE_SIZE as u32,
            });
        }
        if i % 1024 == 1023 {
            script.push(ShardOp::Sync);
        }
    }
    script.push(ShardOp::Sync);
    script
}

/// An endless seeded stream of full-line ops over `pages` pages — the
/// fault-plan figures' workload. Each op draws, in order, a page, a line,
/// a fair coin (heads: write) and, for a write, the fill byte. The same
/// `(pages, seed)` always yields the same stream.
pub fn line_stream(pages: u64, seed: u64) -> impl Iterator<Item = ShardOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pages = pages.max(1);
    let len = CACHE_LINE_SIZE as u32;
    std::iter::repeat_with(move || {
        let page = rng.gen_range(0..pages);
        let line = rng.gen_range(0..LINES_PER_PAGE_4K as u32);
        if rng.gen_bool(0.5) {
            ShardOp::Write { page, line, len, fill: rng.gen() }
        } else {
            ShardOp::Read { page, line, len }
        }
    })
}

/// What one op did, judged against a [`ReferenceMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The op completed in the given simulated application time.
    Ok(Nanos),
    /// A read completed in the given time but returned bytes that differ
    /// from the reference: the runtime failed to behave like memory.
    Stale(Nanos),
    /// The runtime returned an error.
    Failed,
}

/// Running counts of [`OpOutcome`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTally {
    /// Ops that completed, stale reads included.
    pub completed: u64,
    /// Reads that completed with stale bytes.
    pub stale: u64,
    /// Ops the runtime failed.
    pub failed: u64,
}

impl OpTally {
    /// Counts `outcome` and hands it back, so callers can chain their own
    /// per-op hooks.
    pub fn count(&mut self, outcome: OpOutcome) -> OpOutcome {
        match outcome {
            OpOutcome::Ok(_) => self.completed += 1,
            OpOutcome::Stale(_) => {
                self.completed += 1;
                self.stale += 1;
            }
            OpOutcome::Failed => self.failed += 1,
        }
        outcome
    }

    /// Fraction of counted ops that completed (0 when none were counted).
    pub fn availability(&self) -> f64 {
        let total = self.completed + self.failed;
        if total == 0 {
            return 0.0;
        }
        self.completed as f64 / total as f64
    }
}

/// A flat host-side copy of `pages` pages of remote memory starting at
/// `base`: what every byte must read as if the runtime behaves like plain
/// memory. Memory starts zeroed; only writes the runtime acknowledged
/// change the copy.
#[derive(Debug, Clone)]
pub struct ReferenceMemory {
    base: VirtAddr,
    bytes: Vec<u8>,
}

impl ReferenceMemory {
    /// A zeroed reference for the `pages` pages at `base`.
    pub fn new(base: VirtAddr, pages: u64) -> Self {
        ReferenceMemory {
            base,
            bytes: vec![0; (pages * PAGE_SIZE_4K) as usize],
        }
    }

    /// Runs `op` on `rt` (its page is an index from `base`) and checks a
    /// read against the reference.
    ///
    /// # Panics
    ///
    /// Panics if `op` addresses a page outside the reference.
    pub fn apply<R: RemoteMemoryRuntime + ?Sized>(&mut self, rt: &mut R, op: ShardOp) -> OpOutcome {
        let at = |page: u64, line: u32| page * PAGE_SIZE_4K + u64::from(line) * CACHE_LINE_SIZE;
        match op {
            ShardOp::Write { page, line, len, fill } => {
                let off = at(page, line);
                let (start, len) = (off as usize, len as usize);
                let data = [fill; CACHE_LINE_SIZE as usize];
                match rt.write_bytes(self.base + off, &data[..len]) {
                    Ok(t) => {
                        self.bytes[start..start + len].fill(fill);
                        OpOutcome::Ok(t)
                    }
                    Err(_) => OpOutcome::Failed,
                }
            }
            ShardOp::Read { page, line, len } => {
                let off = at(page, line);
                let (start, len) = (off as usize, len as usize);
                let mut buf = [0u8; CACHE_LINE_SIZE as usize];
                match rt.read_bytes(self.base + off, &mut buf[..len]) {
                    Ok(t) if buf[..len] == self.bytes[start..start + len] => OpOutcome::Ok(t),
                    Ok(t) => OpOutcome::Stale(t),
                    Err(_) => OpOutcome::Failed,
                }
            }
            ShardOp::Sync => rt.sync().map_or(OpOutcome::Failed, OpOutcome::Ok),
        }
    }

    /// Reads every page back whole, in page order, and counts the pages
    /// that fail to read or differ from the reference.
    pub fn verify_all<R: RemoteMemoryRuntime + ?Sized>(&self, rt: &mut R) -> u64 {
        let mut buf = vec![0u8; PAGE_SIZE_4K as usize];
        let mut errors = 0;
        for (page, expect) in (0u64..).zip(self.bytes.chunks_exact(PAGE_SIZE_4K as usize)) {
            match rt.read_bytes(self.base + page * PAGE_SIZE_4K, &mut buf) {
                Ok(_) if buf == expect => {}
                _ => errors += 1,
            }
        }
        errors
    }
}

/// What one logical shard produced; merged in shard order by
/// [`ShardedRun::execute`]. Everything here is `Send` (plain data), so
/// outcomes can cross worker-thread boundaries.
#[derive(Debug)]
struct ShardOutcome {
    stats: RuntimeStats,
    eviction: EvictionStats,
    fpga: FpgaStats,
    coherence: CoherenceStats,
    net: NetStats,
    faults: FaultStats,
    dump: MetricsDump,
    series: Option<SeriesData>,
    events: Vec<SpanEvent>,
    profile: Option<Profile>,
    shipments: Vec<(Nanos, ShipmentDigest)>,
    ops: u64,
    failed: u64,
    app_time: Nanos,
}

/// The merged result of a sharded run.
///
/// Every field is a deterministic, shard-order merge of the per-shard
/// histories — independent of the worker count that produced them.
/// [`ShardReport::fingerprint`] folds the lot into one string for
/// byte-equality assertions.
#[derive(Debug)]
pub struct ShardReport {
    /// The logical decomposition that ran.
    pub plan: ShardPlan,
    /// Global pages in the run's page space.
    pub pages: u64,
    /// Field-wise sum of every shard's runtime counters.
    pub stats: RuntimeStats,
    /// Field-wise sum of every shard's eviction counters.
    pub eviction: EvictionStats,
    /// Field-wise sum of every shard's FPGA counters.
    pub fpga: FpgaStats,
    /// Field-wise sum of every shard's coherence-directory counters.
    pub coherence: CoherenceStats,
    /// Field-wise sum of every shard's fabric counters.
    pub net: NetStats,
    /// Field-wise sum of every shard's injected-fault counters.
    pub faults: FaultStats,
    /// All shard metric registries absorbed in shard order (includes the
    /// per-shard `shard.<i>.ops` counters).
    pub dump: MetricsDump,
    /// Index-wise merge of the shard time-series (when windows were on).
    pub series: Option<SeriesData>,
    /// Trace spans merged by `(start, shard)` (when tracing was on).
    pub events: Vec<SpanEvent>,
    /// Path-keyed merge of the per-shard simulated-time profiles (when
    /// tracing was on). Each shard folds its own span stream — span ids
    /// are per-telemetry, so folding before the merge is what keeps
    /// paths unambiguous — and path-keyed addition is order-independent,
    /// so the merged profile is byte-identical at any worker count.
    pub profile: Option<Profile>,
    /// Shipment-journal batches sequenced by `(flush time, shard)`.
    pub shipments: Vec<(Nanos, u32, ShipmentDigest)>,
    /// Ops executed by each logical shard (skew diagnosis).
    pub shard_ops: Vec<u64>,
    /// Ops per shard that failed on an injected fault (tolerated, like
    /// the chaos workloads; the final sync still has to succeed).
    pub shard_failed: Vec<u64>,
    /// Slowest shard's simulated application time — the run's simulated
    /// completion time under perfect shard parallelism.
    pub app_time_max: Nanos,
}

impl ShardReport {
    /// Total ops executed across all shards.
    pub fn total_ops(&self) -> u64 {
        self.shard_ops.iter().sum()
    }

    /// Ratio of the busiest shard's op count to the lightest's (1.0 is
    /// perfectly balanced; the health-monitor example alerts above 2.0).
    pub fn ops_skew(&self) -> f64 {
        let max = self.shard_ops.iter().copied().max().unwrap_or(0);
        let min = self.shard_ops.iter().copied().min().unwrap_or(0);
        if min == 0 {
            return if max == 0 { 1.0 } else { f64::INFINITY };
        }
        max as f64 / min as f64
    }

    /// A deterministic digest of the merged run history: per-shard op and
    /// time streams, every merged counter block, the sequenced shipment
    /// journal and the metric dump. Two runs of the same script with the
    /// same plan produce byte-identical fingerprints at **any** worker
    /// count — this is the equality the determinism suite and the CI
    /// scenario-smoke job assert.
    pub fn fingerprint(&self) -> String {
        let mut ship_hash = FNV_OFFSET;
        for &(at, shard, digest) in &self.shipments {
            for limb in [
                at.as_ns(),
                u64::from(shard),
                u64::from(digest.node),
                digest.bytes,
                digest.checksum,
            ] {
                ship_hash = fnv_fold(ship_hash, limb);
            }
        }
        let mut dump_hash = FNV_OFFSET;
        for (name, value) in &self.dump.counters {
            dump_hash = fnv_bytes(dump_hash, name.as_bytes());
            dump_hash = fnv_fold(dump_hash, *value);
        }
        let mut span_hash = FNV_OFFSET;
        for event in &self.events {
            span_hash = fnv_fold(span_hash, event.start.as_ns());
            span_hash = fnv_fold(span_hash, event.duration.as_ns());
        }
        let s = &self.stats;
        format!(
            "shard-run logical={} pages={} ops={:?} failed={:?} app_ns={} wall_ns={} \
             hits={} fetches={} evicted={} wb={} dirty={} retries={} failovers={} \
             fallback={} degraded={} mce={} | ev lines={} bytes={} flushes={} \
             fretry={} abandoned={} skipped={} | net req={} wire={} faulted={} \
             | faults drop={} corrupt={} timeout={} down={} spike={} \
             | fpga fmem={} fetch={} wbobs={} snoops={} | coh dir={} inv={} wb={} \
             | ships={} h={:016x} spans={} h={:016x} dump h={:016x}",
            self.plan.logical(),
            self.pages,
            self.shard_ops,
            self.shard_failed,
            s.app_time.as_ns(),
            self.app_time_max.as_ns(),
            s.local_hits,
            s.remote_fetches,
            s.pages_evicted,
            s.writeback_bytes,
            s.app_dirty_bytes,
            s.retries,
            s.failovers,
            s.fallback_waits,
            s.degraded_entries,
            s.mce_events,
            self.eviction.lines_written,
            self.eviction.dirty_bytes_written,
            self.eviction.flushes,
            self.eviction.flush_retries,
            self.eviction.abandoned_flushes,
            self.eviction.skipped_targets,
            self.net.requests,
            self.net.wire_bytes,
            self.net.faulted_posts,
            self.faults.dropped,
            self.faults.corrupted,
            self.faults.timed_out,
            self.faults.node_down_rejections,
            self.faults.spiked_chains,
            self.fpga.fmem_hits,
            self.fpga.remote_fetches,
            self.fpga.writebacks_observed,
            self.fpga.page_snoops,
            self.coherence.directory_transactions,
            self.coherence.invalidations,
            self.coherence.writebacks,
            self.shipments.len(),
            ship_hash,
            self.events.len(),
            span_hash,
            dump_hash,
        )
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv_fold(hash: u64, value: u64) -> u64 {
    fnv_bytes(hash, &value.to_le_bytes())
}

/// A single simulation partitioned over logical shards.
///
/// Configure once, [`execute`](ShardedRun::execute) many times: the same
/// script produces the same [`ShardReport::fingerprint`] at every
/// [`Shards`] width. See the [module documentation](self) for the
/// decomposition rules.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    config: ClusterConfig,
    plan: ShardPlan,
    pages: u64,
    window_ns: u64,
    trace_capacity: usize,
    policy: Option<FailurePolicy>,
}

impl ShardedRun {
    /// A sharded run over `pages` global pages with the default logical
    /// decomposition, no time-series windows and no tracing. Each shard
    /// slices `config` with [`ClusterConfig::shard_slice`].
    pub fn new(config: ClusterConfig, pages: u64) -> Self {
        ShardedRun {
            config,
            plan: ShardPlan::default(),
            pages: pages.max(1),
            window_ns: 0,
            trace_capacity: 0,
            policy: None,
        }
    }

    /// Replaces the logical decomposition (model change: per-shard
    /// histories differ across plans, not across worker counts).
    #[must_use]
    pub fn with_plan(mut self, plan: ShardPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Enables per-shard time-series collection with `window_ns` windows;
    /// the merged report carries the index-wise merge.
    #[must_use]
    pub fn with_windows(mut self, window_ns: u64) -> Self {
        self.window_ns = window_ns;
        self
    }

    /// Enables per-shard span tracing with a ring of `capacity` events;
    /// the merged report carries the `(start, shard)`-ordered timeline.
    #[must_use]
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Installs a failure policy on every shard runtime (required for
    /// fault plans that take nodes down — the chaos workloads use
    /// [`FailurePolicy::PageFaultFallback`]).
    #[must_use]
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The logical decomposition in use.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Routes `script` to the owning shards and runs every logical shard
    /// to completion on up to `shards` worker threads, then merges the
    /// per-shard histories in shard order.
    ///
    /// # Errors
    ///
    /// Propagates the first runtime error from any shard (allocation
    /// exhaustion, unrecoverable network failure).
    ///
    /// # Panics
    ///
    /// Panics if data verification fails — a read observing bytes that
    /// differ from the model is a simulator bug, not an input error.
    pub fn execute(&self, script: &[ShardOp], shards: Shards) -> Result<ShardReport> {
        let logical = self.plan.logical() as usize;
        let mut streams: Vec<Vec<ShardOp>> = vec![Vec::new(); logical];
        for &op in script {
            match op {
                ShardOp::Write { page, .. } | ShardOp::Read { page, .. } => {
                    let local = op.on_page(self.plan.local_index(page));
                    streams[self.plan.shard_of_page(page) as usize].push(local);
                }
                ShardOp::Sync => {
                    for stream in &mut streams {
                        stream.push(op);
                    }
                }
            }
        }

        let outcomes: Vec<Result<ShardOutcome>> =
            par_map(Jobs::new(shards.get()), streams, |shard, stream| {
                self.run_shard(shard as u32, &stream)
            });
        let mut merged: Vec<ShardOutcome> = Vec::with_capacity(logical);
        for outcome in outcomes {
            merged.push(outcome?);
        }

        let mut stats = RuntimeStats::default();
        let mut eviction = EvictionStats::default();
        let mut fpga = FpgaStats::default();
        let mut coherence = CoherenceStats::default();
        let mut net = NetStats::default();
        let mut faults = FaultStats::default();
        let mut registry = Registry::new();
        let mut series: Option<SeriesData> = None;
        let mut profile: Option<Profile> = None;
        let mut app_time_max = Nanos::ZERO;
        let _wall = host_scope("shard_merge");
        for outcome in &merged {
            stats.merge(&outcome.stats);
            eviction.merge(&outcome.eviction);
            fpga.merge(&outcome.fpga);
            coherence.merge(&outcome.coherence);
            net.merge(&outcome.net);
            faults.merge(&outcome.faults);
            registry.absorb(&outcome.dump);
            if let Some(shard_series) = &outcome.series {
                match &mut series {
                    Some(all) => all.merge(shard_series),
                    None => series = Some(shard_series.clone()),
                }
            }
            if let Some(shard_profile) = &outcome.profile {
                match &mut profile {
                    Some(all) => all.merge(shard_profile),
                    None => profile = Some(shard_profile.clone()),
                }
            }
            app_time_max = app_time_max.max(outcome.app_time);
        }
        let shard_ops: Vec<u64> = merged.iter().map(|o| o.ops).collect();
        let shard_failed: Vec<u64> = merged.iter().map(|o| o.failed).collect();
        let mut event_streams = Vec::with_capacity(logical);
        let mut shipment_streams = Vec::with_capacity(logical);
        for outcome in merged {
            event_streams.push(outcome.events);
            shipment_streams.push(outcome.shipments);
        }
        Ok(ShardReport {
            plan: self.plan,
            pages: self.pages,
            stats,
            eviction,
            fpga,
            coherence,
            net,
            faults,
            dump: registry.dump(),
            series,
            profile,
            events: merge_span_streams(event_streams),
            shipments: sequence_streams(shipment_streams),
            shard_ops,
            shard_failed,
            app_time_max,
        })
    }

    /// Runs one logical shard's op stream (pages already mapped to local
    /// indexes) to completion on its own vertical slice of the runtime.
    fn run_shard(&self, shard: u32, stream: &[ShardOp]) -> Result<ShardOutcome> {
        let slice = self.config.shard_slice(shard, self.plan.logical());
        let verify = matches!(slice.data_mode, DataMode::Tracked);
        let telemetry = if self.trace_capacity > 0 {
            Telemetry::with_tracing(self.trace_capacity)
        } else {
            Telemetry::disabled()
        };
        if self.window_ns > 0 {
            telemetry.enable_timeseries(self.window_ns);
        }
        telemetry.set_trace_id_base((u64::from(shard) + 1) << 32);
        let ops_counter = telemetry.counter_interned("shard.", shard, "ops");

        let mut rt = KonaRuntime::with_telemetry(slice, telemetry.clone())?;
        if let Some(policy) = self.policy {
            rt.set_failure_policy(policy);
        }
        rt.enable_shipment_journal();
        let owned = self.plan.pages_owned(shard, self.pages).max(1);
        let base = rt.allocate(owned * PAGE_SIZE_4K)?;

        let mut reference = ReferenceMemory::new(base, owned);
        let mut clock = Nanos::ZERO;
        let mut ops = 0u64;
        let mut failed = 0u64;
        for &op in stream {
            // Injected faults fail individual ops (counted, like the
            // chaos workloads); the final sync below must still succeed.
            match reference.apply(&mut rt, op) {
                OpOutcome::Ok(t) => clock += t,
                OpOutcome::Stale(t) => {
                    assert!(!verify, "shard {shard}: stale read on local {op:?}");
                    clock += t;
                }
                OpOutcome::Failed => failed += 1,
            }
            ops += 1;
            ops_counter.inc();
            if self.window_ns > 0 {
                telemetry.observe_time(clock);
            }
        }
        clock += rt.sync()?;

        let mut batch = ShipmentBatch::default();
        rt.drain_log_shipments_into(&mut batch);
        let shipments: Vec<(Nanos, ShipmentDigest)> = batch
            .iter()
            .map(|(node, at, encoded)| {
                (
                    at,
                    ShipmentDigest {
                        node,
                        bytes: encoded.len() as u64,
                        checksum: fnv_bytes(FNV_OFFSET, encoded),
                    },
                )
            })
            .collect();

        // Fold this shard's profile from its own span stream *before* the
        // merge: span ids are allocated per telemetry instance, so parent
        // links only resolve against the stream that produced them.
        let events = telemetry.events();
        let profile = (self.trace_capacity > 0).then(|| Profile::from_spans(&events));

        Ok(ShardOutcome {
            stats: rt.stats(),
            eviction: rt.eviction_stats(),
            fpga: rt.fpga().stats(),
            coherence: rt.fpga().coherence_stats(),
            net: rt.fabric_mut().stats(),
            faults: rt.fabric_mut().fault_stats(),
            dump: telemetry.dump(),
            series: telemetry.series(),
            events,
            profile,
            shipments,
            ops,
            failed,
            app_time: clock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kona_types::{KonaError, MemAccess};

    /// Plain memory that can lie: writes to line `stale_line` are
    /// acknowledged but dropped, so reads there serve old bytes; with
    /// `fail` set, every call returns an error.
    struct LyingMemory {
        mem: Vec<u8>,
        stale_line: Option<u64>,
        fail: bool,
    }

    impl LyingMemory {
        fn cost(&self) -> Result<Nanos> {
            if self.fail {
                Err(KonaError::MemoryNodeFailed(0))
            } else {
                Ok(Nanos::from_ns(1))
            }
        }
    }

    impl RemoteMemoryRuntime for LyingMemory {
        fn name(&self) -> &str {
            "lying"
        }
        fn allocate(&mut self, bytes: u64) -> Result<VirtAddr> {
            self.mem = vec![0; bytes as usize];
            Ok(VirtAddr::new(0))
        }
        fn free(&mut self, _addr: VirtAddr, _bytes: u64) {}
        fn access(&mut self, _access: MemAccess) -> Result<Nanos> {
            self.cost()
        }
        fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<Nanos> {
            let t = self.cost()?;
            if Some(addr.raw() / CACHE_LINE_SIZE) != self.stale_line {
                self.mem[addr.raw() as usize..][..data.len()].copy_from_slice(data);
            }
            Ok(t)
        }
        fn read_bytes(&mut self, addr: VirtAddr, buf: &mut [u8]) -> Result<Nanos> {
            let t = self.cost()?;
            buf.copy_from_slice(&self.mem[addr.raw() as usize..][..buf.len()]);
            Ok(t)
        }
        fn sync(&mut self) -> Result<Nanos> {
            self.cost()
        }
        fn stats(&self) -> RuntimeStats {
            RuntimeStats::default()
        }
    }

    /// Drives a fixed script against `rt` over two pages and returns the
    /// tally and the final sweep's error count.
    fn check(mut rt: LyingMemory) -> (OpTally, u64) {
        let base = rt.allocate(2 * PAGE_SIZE_4K).unwrap();
        let mut reference = ReferenceMemory::new(base, 2);
        let write = |page, line| ShardOp::Write { page, line, len: 64, fill: 0xAB };
        let read = |page, line| ShardOp::Read { page, line, len: 64 };
        let mut tally = OpTally::default();
        for op in [write(0, 5), read(0, 5), write(1, 5), read(1, 5), read(0, 6), ShardOp::Sync] {
            tally.count(reference.apply(&mut rt, op));
        }
        (tally, reference.verify_all(&mut rt))
    }

    #[test]
    fn reference_catches_a_runtime_serving_stale_bytes() {
        let honest = check(LyingMemory { mem: Vec::new(), stale_line: None, fail: false });
        assert_eq!(honest, (OpTally { completed: 6, stale: 0, failed: 0 }, 0));
        let lying = check(LyingMemory { mem: Vec::new(), stale_line: Some(5), fail: false });
        assert_eq!(lying, (OpTally { completed: 6, stale: 1, failed: 0 }, 1));
    }

    #[test]
    fn a_failing_runtime_fails_ops_instead_of_reading_stale() {
        let failing = check(LyingMemory { mem: Vec::new(), stale_line: None, fail: true });
        assert_eq!(failing, (OpTally { completed: 0, stale: 0, failed: 6 }, 2));
        assert_eq!(failing.0.availability(), 0.0);
    }

    fn digest(ops: impl IntoIterator<Item = ShardOp>) -> u64 {
        let mut hash = FNV_OFFSET;
        for op in ops {
            let limbs = match op {
                ShardOp::Write { page, line, len, fill } => {
                    [1, page, line.into(), len.into(), fill.into()]
                }
                ShardOp::Read { page, line, len } => [2, page, line.into(), len.into(), 0],
                ShardOp::Sync => [3, 0, 0, 0, 0],
            };
            hash = limbs.into_iter().fold(hash, fnv_fold);
        }
        hash
    }

    /// Pins both generators: one moved RNG draw would silently shift every
    /// figure transcript and perfbench's simulated digests.
    #[test]
    fn generators_match_their_golden_digests() {
        assert_eq!(digest(seeded_script(4096, 300_000, 1)), 0xc9e3_54e3_31e6_a9cf);
        assert_eq!(digest(line_stream(64, 42).take(600)), 0x8dc3_a755_6b39_a642);
    }

    fn small_run(pages: u64) -> ShardedRun {
        ShardedRun::new(ClusterConfig::small(), pages).with_plan(ShardPlan::new(4))
    }

    #[test]
    fn worker_count_does_not_change_the_fingerprint() {
        let run = small_run(64);
        let script = seeded_script(64, 1500, 7);
        let serial = run.execute(&script, Shards::serial()).unwrap();
        let two = run.execute(&script, Shards::new(2)).unwrap();
        let wide = run.execute(&script, Shards::new(8)).unwrap();
        assert_eq!(serial.fingerprint(), two.fingerprint());
        assert_eq!(serial.fingerprint(), wide.fingerprint());
        // Syncs broadcast to every shard; point ops run exactly once.
        let syncs = script.iter().filter(|o| matches!(o, ShardOp::Sync)).count();
        assert_eq!(serial.total_ops() as usize, script.len() - syncs + syncs * 4);
    }

    #[test]
    fn shard_ops_counters_reach_the_dump() {
        let run = small_run(32);
        let script = seeded_script(32, 400, 11);
        let report = run.execute(&script, Shards::serial()).unwrap();
        for shard in 0..4u32 {
            let name = format!("shard.{shard}.ops");
            assert!(
                report.dump.counters.get(&name).copied().unwrap_or(0) > 0,
                "{name} missing from merged dump"
            );
        }
        assert!(report.ops_skew() >= 1.0);
        assert!(report.stats.app_dirty_bytes > 0);
    }

    #[test]
    fn plans_change_history_but_stay_deterministic() {
        let script = seeded_script(64, 800, 3);
        let four = small_run(64).execute(&script, Shards::serial()).unwrap();
        let eight = ShardedRun::new(ClusterConfig::small(), 64)
            .with_plan(ShardPlan::new(8))
            .execute(&script, Shards::new(3))
            .unwrap();
        assert_ne!(four.fingerprint(), eight.fingerprint());
        let again = ShardedRun::new(ClusterConfig::small(), 64)
            .with_plan(ShardPlan::new(8))
            .execute(&script, Shards::serial())
            .unwrap();
        assert_eq!(eight.fingerprint(), again.fingerprint());
    }

    #[test]
    fn windows_and_tracing_merge_deterministically() {
        let run = small_run(48)
            .with_windows(kona_telemetry::DEFAULT_WINDOW_NS)
            .with_tracing(1 << 14);
        let script = seeded_script(48, 600, 19);
        let serial = run.execute(&script, Shards::serial()).unwrap();
        let wide = run.execute(&script, Shards::new(4)).unwrap();
        assert_eq!(serial.fingerprint(), wide.fingerprint());
        assert!(serial.series.is_some());
        assert!(!serial.events.is_empty());
        let serial_json = serial.series.unwrap().to_json();
        let wide_json = wide.series.unwrap().to_json();
        assert_eq!(serial_json, wide_json);
    }
}
