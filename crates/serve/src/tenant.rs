//! Per-tenant configuration, admission state and bookkeeping.

use kona_telemetry::{Counter, Gauge, Histogram, HistogramData, Telemetry};
use kona_types::Nanos;
use std::collections::BTreeMap;

/// One token per operation, scaled by 1e6 so refill stays in integer
/// nanosecond arithmetic.
const TOKEN: u64 = 1_000_000;

/// A deterministic token bucket keyed to simulated time.
///
/// Refill is `rate_per_ms` tokens per simulated millisecond, capped at
/// `burst` tokens; admission consumes one token. All integer math, so
/// two runs over the same simulated timeline admit identical op sets.
///
/// # Examples
///
/// ```
/// use kona_serve::TokenBucket;
/// use kona_types::Nanos;
///
/// let mut b = TokenBucket::new(1, 2); // 1 op/ms, burst of 2
/// assert!(b.admit(Nanos::ZERO));
/// assert!(b.admit(Nanos::ZERO)); // burst
/// assert!(!b.admit(Nanos::ZERO)); // dry
/// assert!(b.admit(Nanos::millis(1))); // refilled
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_ms: u64,
    burst_tokens: u64,
    tokens: u64,
    last: Nanos,
}

impl TokenBucket {
    /// A bucket refilling `rate_per_ms` ops per simulated millisecond
    /// with depth `burst` ops, starting full. A zero rate means
    /// *unlimited*: every admit succeeds.
    pub fn new(rate_per_ms: u64, burst: u64) -> Self {
        let burst_tokens = burst.saturating_mul(TOKEN);
        TokenBucket {
            rate_per_ms,
            burst_tokens,
            tokens: burst_tokens,
            last: Nanos::ZERO,
        }
    }

    /// Refills for the time elapsed since the last call and tries to
    /// take one token. `now` must be the simulated clock (monotone per
    /// bucket; regressions are treated as zero elapsed time).
    pub fn admit(&mut self, now: Nanos) -> bool {
        if self.rate_per_ms == 0 {
            return true;
        }
        let elapsed = now.as_ns().saturating_sub(self.last.as_ns());
        self.last = Nanos::from_ns(self.last.as_ns().max(now.as_ns()));
        // rate/ms × elapsed ns × (1e6 token scale / 1e6 ns per ms) — the
        // scales cancel, so refill is simply elapsed × rate.
        self.tokens = self
            .tokens
            .saturating_add(elapsed.saturating_mul(self.rate_per_ms))
            .min(self.burst_tokens);
        if self.tokens >= TOKEN {
            self.tokens -= TOKEN;
            true
        } else {
            false
        }
    }
}

/// Static configuration of one tenant.
///
/// Built fluently: `TenantConfig::new(3).with_quota_bytes(8 << 20)`.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tenant identifier (metric names use it: `tenant.<id>.*`).
    pub id: u32,
    /// Remote-memory quota in bytes. Grow requests pushing the tenant
    /// past this fail typed with
    /// [`KonaError::QuotaExceeded`](kona_types::KonaError::QuotaExceeded).
    pub quota_bytes: u64,
    /// Latency SLO: the tenant's windowed p99 target. A compliant tenant
    /// whose p99 exceeds this earns eviction protection at the next QoS
    /// review.
    pub slo_p99: Nanos,
    /// Token-bucket refill rate in ops per simulated millisecond
    /// (0 = unlimited).
    pub rate_per_ms: u64,
    /// Token-bucket depth in ops.
    pub burst: u64,
    /// QoS class: under pressure, prefetches of the lowest class are
    /// shed first. Higher is more important.
    pub qos_class: u8,
}

impl TenantConfig {
    /// A tenant with a 4 MiB quota, a 100 µs p99 SLO, unlimited
    /// admission and QoS class 1.
    pub fn new(id: u32) -> Self {
        TenantConfig {
            id,
            quota_bytes: 4 << 20,
            slo_p99: Nanos::micros(100),
            rate_per_ms: 0,
            burst: 1,
            qos_class: 1,
        }
    }

    /// Sets the remote-memory quota in bytes.
    pub fn with_quota_bytes(mut self, bytes: u64) -> Self {
        self.quota_bytes = bytes;
        self
    }

    /// Sets the p99 latency SLO.
    pub fn with_slo(mut self, slo: Nanos) -> Self {
        self.slo_p99 = slo;
        self
    }

    /// Sets the admission rate (ops per simulated ms; 0 = unlimited)
    /// and burst depth.
    pub fn with_rate(mut self, rate_per_ms: u64, burst: u64) -> Self {
        self.rate_per_ms = rate_per_ms;
        self.burst = burst.max(1);
        self
    }

    /// Sets the QoS class (higher keeps prefetches longer under
    /// pressure).
    pub fn with_qos_class(mut self, class: u8) -> Self {
        self.qos_class = class;
        self
    }
}

/// One contiguous slab-granular piece of a tenant's address space,
/// keyed in [`Tenant::regions`] by its tenant-local base.
#[derive(Debug, Clone)]
pub(crate) struct Region {
    /// Base of the backing allocation in the shared cluster runtime.
    pub cluster_base: u64,
    /// Length in bytes (a whole number of slabs).
    pub len: u64,
    /// Demand accesses that landed in this region — the balloon's
    /// coldness signal (shrink evacuates the least-touched region
    /// first).
    pub touches: u64,
}

/// Pre-resolved `tenant.<id>.*` metric handles. Resolved once at
/// registration through the registry's interned-name cache, so the
/// serving hot loop never formats a metric name.
#[derive(Debug, Clone)]
pub(crate) struct TenantMetrics {
    pub ops: Counter,
    pub throttled: Counter,
    pub faults: Counter,
    pub quota_rejections: Counter,
    pub shed_windows: Counter,
    pub protected_windows: Counter,
    pub bytes: Gauge,
    pub lat: Histogram,
}

impl TenantMetrics {
    pub fn new(tel: &Telemetry, id: u32) -> Self {
        TenantMetrics {
            ops: tel.counter_interned("tenant.", id, "ops"),
            throttled: tel.counter_interned("tenant.", id, "throttled"),
            faults: tel.counter_interned("tenant.", id, "faults"),
            quota_rejections: tel.counter_interned("tenant.", id, "quota_rejections"),
            shed_windows: tel.counter_interned("tenant.", id, "shed_windows"),
            protected_windows: tel.counter_interned("tenant.", id, "protected_windows"),
            bytes: tel.gauge_interned("tenant.", id, "bytes"),
            lat: tel.histogram_interned("tenant.", id, "lat_ns"),
        }
    }
}

/// The full mutable state of one registered tenant.
#[derive(Debug, Clone)]
pub(crate) struct Tenant {
    pub cfg: TenantConfig,
    /// Tenant-local base → region, the tenant's private translation
    /// namespace. Range queries resolve accesses; anything not covered
    /// faults.
    pub regions: BTreeMap<u64, Region>,
    /// Next tenant-local base to hand out (never reused, so stale
    /// pointers into shrunk regions keep faulting).
    pub cursor: u64,
    /// Bytes currently allocated (≤ quota, exactly enforced).
    pub used: u64,
    pub bucket: TokenBucket,
    /// Latency of every admitted demand op, in simulated ns.
    pub hist: HistogramData,
    /// Snapshot of `hist` at the last QoS review (windowed p99 via
    /// `delta_since`).
    pub window_mark: HistogramData,
    /// Admission rejections since the last review.
    pub throttled_in_window: u64,
    /// Quota rejections since the last review.
    pub quota_rejects_in_window: u64,
    /// Eviction protection currently applied (SLO-burning, compliant).
    pub protected: bool,
    /// Eviction penalty currently applied (rate or quota breacher).
    pub penalized: bool,
    /// Prefetch shedding currently applied (lowest class under
    /// pressure).
    pub shed: bool,
    // Lifetime totals (plain mirrors of the telemetry counters, used by
    // reports and fingerprints without reading the shared registry).
    pub ops: u64,
    pub throttled: u64,
    pub faults: u64,
    pub quota_rejections: u64,
    pub shed_windows: u64,
    pub protected_windows: u64,
    pub metrics: TenantMetrics,
}

impl Tenant {
    pub fn new(cfg: TenantConfig, tel: &Telemetry) -> Self {
        let bucket = TokenBucket::new(cfg.rate_per_ms, cfg.burst);
        let metrics = TenantMetrics::new(tel, cfg.id);
        Tenant {
            cfg,
            regions: BTreeMap::new(),
            cursor: 0,
            used: 0,
            bucket,
            hist: HistogramData::new(),
            window_mark: HistogramData::new(),
            throttled_in_window: 0,
            quota_rejects_in_window: 0,
            protected: false,
            penalized: false,
            shed: false,
            ops: 0,
            throttled: 0,
            faults: 0,
            quota_rejections: 0,
            shed_windows: 0,
            protected_windows: 0,
            metrics,
        }
    }

    /// The eviction priority the tenant's regions should carry right
    /// now: protection and penalty compose (a protected breacher nets
    /// out to neutral).
    pub fn priority(&self) -> i8 {
        let mut p = 0i8;
        if self.protected {
            p += 1;
        }
        if self.penalized {
            p -= 1;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_is_deterministic_and_rate_limited() {
        let mut a = TokenBucket::new(2, 4);
        let mut b = TokenBucket::new(2, 4);
        let mut admitted = 0;
        for i in 0..40u64 {
            let now = Nanos::from_ns(i * 100_000); // 0.1 ms steps
            let ra = a.admit(now);
            assert_eq!(ra, b.admit(now), "same timeline, same decisions");
            admitted += ra as u64;
        }
        // 3.9 ms elapsed at 2 ops/ms plus a burst of 4: ≈ 12 admits.
        assert!((10..=13).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    fn zero_rate_is_unlimited() {
        let mut b = TokenBucket::new(0, 1);
        for _ in 0..1000 {
            assert!(b.admit(Nanos::ZERO));
        }
    }

    #[test]
    fn clock_regression_is_no_refill() {
        let mut b = TokenBucket::new(1, 1);
        assert!(b.admit(Nanos::millis(5)));
        // Stale timestamp: no tokens conjured out of a backwards clock.
        assert!(!b.admit(Nanos::millis(1)));
    }
}
