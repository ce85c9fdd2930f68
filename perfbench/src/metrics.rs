//! The metric tables `BENCHMARK.json` mirrors, and the result line.

use kona::{EvictionStats, RuntimeStats};
use kona_coherence::CoherenceStats;
use kona_fpga::FpgaStats;
use kona_net::NetStats;
use kona_telemetry::HostScopeStats;
use std::collections::BTreeMap;

/// One metric: name, unit, and whether higher or lower is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("ok_frac", "ratio", "higher"),
    m("sim_ns_per_op", "sim_ns", "lower"),
];

/// Per-layer metrics (layer = crate name), printed by every traced run.
/// A layer the workload bypasses reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.generate_s", "s", "lower"),
    m("cache-sim.ns_per_line", "ns", "lower"),
    m("cache-sim.llc_miss_frac", "ratio", "lower"),
    m("kcachesim.size_sweep_s", "s", "lower"),
    m("kcachesim.block_sweep_s", "s", "lower"),
    m("ktracker.coherence_s", "s", "lower"),
    m("ktracker.write_protect_s", "s", "lower"),
    m("ktracker.pml_s", "s", "lower"),
    m("core.hit_ns", "ns", "lower"),
    m("core.fetch_ns", "ns", "lower"),
    m("core.evict_ns", "ns", "lower"),
    m("core.sync_us", "us", "lower"),
    m("core.hit_ratio", "ratio", "higher"),
    m("core.remote_fetches", "count", "lower"),
    m("core.pages_evicted", "count", "lower"),
    m("core.writeback_bytes", "B", "lower"),
    m("core.retries", "count", "lower"),
    m("core.eviction_pack_ns", "ns", "lower"),
    m("core.shard_merge_ms", "ms", "lower"),
    m("core.flushes", "count", "lower"),
    m("core.lines_written", "count", "lower"),
    m("core.shard_ops_skew", "ratio", "lower"),
    m("vm-sim.access_ns", "ns", "lower"),
    m("vm-sim.major_faults", "count", "lower"),
    m("vm-sim.minor_faults", "count", "lower"),
    m("vm-sim.tlb_invalidations", "count", "lower"),
    m("vm-sim.vm_over_kona", "ratio", "higher"),
    m("fpga.line_ns", "ns", "lower"),
    m("fpga.fmem_hit_ratio", "ratio", "higher"),
    m("fpga.cpu_hits", "count", "higher"),
    m("fpga.fmem_hits", "count", "higher"),
    m("fpga.writebacks_observed", "count", "lower"),
    m("coherence.directory_transactions", "count", "lower"),
    m("coherence.invalidations", "count", "lower"),
    m("coherence.snoops", "count", "lower"),
    m("net.posts", "1/op", "lower"),
    m("net.wire_bytes", "B/op", "lower"),
    m("net.faulted_posts", "1/op", "lower"),
    m("cluster.tick_us", "us", "lower"),
    m("cluster.scrub_us", "us", "lower"),
    m("cluster.scrub_share", "ratio", "lower"),
    m("cluster.shipment_apply_ns", "ns", "lower"),
    m("cluster.compaction_ns", "ns", "lower"),
    m("cluster.entries_applied", "count", "lower"),
    m("cluster.compaction_ratio", "ratio", "higher"),
    m("serve.plain_us", "us", "lower"),
    m("serve.throttled_ns", "ns", "lower"),
    m("serve.admitted", "count", "higher"),
    m("serve.throttled", "count", "lower"),
    m("serve.protected_windows", "count", "lower"),
    m("serve.shed_windows", "count", "lower"),
    m("serve.sim_p99_ns", "sim_ns", "lower"),
    m("telemetry.tracing_overhead", "ratio", "lower"),
    m("telemetry.causal_overhead", "ratio", "lower"),
    m("telemetry.span_share", "ratio", "lower"),
    m("telemetry.spans_dropped", "count", "lower"),
    m("bench.trace_overhead", "ratio", "lower"),
    m("bench.class_coverage", "ratio", "higher"),
    m("bench.ops_per_s", "ops/s", "higher"),
    m("bench.call_p50_us", "us", "lower"),
    m("bench.call_p999_us", "us", "lower"),
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name`, which must be a benchmark metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not a benchmark metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Public counters of one runtime stack, as the per-layer metrics of the
/// `core`, `fpga`, `coherence` and `net` layers. Net counts are per op.
pub struct RuntimeCounters<'a> {
    /// `RuntimeStats` of the stack.
    pub stats: &'a RuntimeStats,
    /// Its eviction handler's totals.
    pub eviction: &'a EvictionStats,
    /// Its FPGA's totals.
    pub fpga: &'a FpgaStats,
    /// Its coherence directory's totals.
    pub coherence: &'a CoherenceStats,
    /// Its fabric's totals.
    pub net: &'a NetStats,
    /// Operations the net counts are divided by.
    pub ops: f64,
}

impl Values {
    /// Sets the metrics that every runtime stack reports the same way.
    pub fn set_runtime(&mut self, c: RuntimeCounters<'_>) {
        let s = c.stats;
        self.set("core.hit_ratio", s.local_hit_ratio());
        self.set("core.remote_fetches", s.remote_fetches as f64);
        self.set("core.pages_evicted", s.pages_evicted as f64);
        self.set("core.writeback_bytes", s.writeback_bytes as f64);
        self.set("core.retries", s.retries as f64);
        self.set("core.flushes", c.eviction.flushes as f64);
        self.set("core.lines_written", c.eviction.lines_written as f64);
        let f = c.fpga;
        self.set("fpga.cpu_hits", f.cpu_hits as f64);
        self.set("fpga.fmem_hits", f.fmem_hits as f64);
        self.set("fpga.writebacks_observed", f.writebacks_observed as f64);
        let reached_fmem = (f.fmem_hits + f.remote_fetches).max(1);
        self.set(
            "fpga.fmem_hit_ratio",
            f.fmem_hits as f64 / reached_fmem as f64,
        );
        let coh = c.coherence;
        self.set(
            "coherence.directory_transactions",
            coh.directory_transactions as f64,
        );
        self.set("coherence.invalidations", coh.invalidations as f64);
        self.set("coherence.snoops", coh.snoops as f64);
        self.set("net.posts", c.net.posts as f64 / c.ops);
        self.set("net.wire_bytes", c.net.wire_bytes as f64 / c.ops);
        self.set("net.faulted_posts", c.net.faulted_posts as f64 / c.ops);
    }

    /// Sets `name` to the mean host ns per call of host scope `scope`
    /// divided by `per_ns` (1 for ns, 1e6 for ms), if the scope ran.
    pub fn set_scope(
        &mut self,
        name: &'static str,
        scopes: &[HostScopeStats],
        scope: &str,
        per_ns: f64,
    ) {
        if let Some(s) = scopes.iter().find(|s| s.name == scope) {
            self.set(name, s.total_ns as f64 / s.calls.max(1) as f64 / per_ns);
        }
    }
}

/// Renders the result line: every metric of `table`, 0 for one the
/// workload does not exercise.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Metric],
    values: &Values,
) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|m| {
            let v = values.get(m.name).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit `f64` holds.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: starts with a letter or digit,
    /// at most 64 of letters, digits, `_`, `.` and `-`.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: at most 16 of letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let compact: String = BENCHMARK_JSON.split_whitespace().collect();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                m.name, m.unit, m.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn rejects_malformed_names() {
        assert!(valid_name("core.hit_ns") && valid_name("cache-sim.ns_per_line"));
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
        assert!(valid_unit("ops/s") && valid_unit("1/op") && !valid_unit("µs"));
    }

    #[test]
    fn result_line_prints_every_metric_with_all_digits() {
        let mut v = Values::default();
        v.set("setup_s", 0.123_456_789_012_345);
        v.set("ok_frac", 1.0);
        let line = result_json(true, 10, 0, END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}"));
        assert!(line.contains("\"ok_frac\": {\"value\": 1, \"unit\": \"ratio\"}"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\":", m.name)));
        }
    }
}
