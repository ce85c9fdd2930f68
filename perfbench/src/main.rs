//! The repository benchmark: one command that runs a workload through the
//! simulator stacks' public APIs and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kona-replay --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: rounds of (set up, run)
//! repeat until the timed phases add up to `--seconds` (at least
//! [`MIN_ROUNDS`]), and set-up time is the median over the rounds after
//! the warm-up. `--trace 1`
//! runs one untraced and one traced round and prints the per-layer
//! metrics; spans are written next to the executable. The last stdout
//! line is the JSON result. See `perfbench/README.md` for the workloads
//! and the reasoning behind each metric.

mod kona_replay;
mod metrics;
mod serve_mt;
mod shard_traced;
mod spans;
mod stats;
mod trace_sim;

use kona_telemetry::{host_profile_start, host_profile_stop, HostScopeStats};
use metrics::{result_json, Values, END_TO_END, PER_LAYER};
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Rounds an untraced run makes at least: a warm-up round, then enough
/// for set-up time to have a median.
const MIN_ROUNDS: usize = 4;
/// Leading rounds left out of the host-time medians: the first round pays
/// for fresh heap pages and cold caches.
const WARMUP_ROUNDS: usize = 1;

/// Share of the traced timed phase the call classes may leave
/// unaccounted beyond the measured tracing overhead.
const COVERAGE_ALLOWANCE: f64 = 0.25;

/// The workload seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 42;

/// What one round of a workload produced.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Operations attempted, counted from the generated inputs.
    pub ops: u64,
    /// Failed operations and failed output checks.
    pub failed: u64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Digest of every simulated statistic the round produced.
    pub digest: u64,
    /// Simulated cost of the modelled design per operation.
    pub sim_ns_per_op: f64,
    /// A line per failed check.
    pub problems: Vec<String>,
}

impl RoundOut {
    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Generates the inputs from `seed` and builds the runtimes.
    fn setup(seed: u64) -> Self;
    /// Host seconds `setup` spent generating inputs.
    fn generate_s(&self) -> f64;
    /// Runs the timed phase once.
    fn round(&mut self, rec: &mut Recorder) -> RoundOut;
    /// Per-layer metrics after a traced round: public stats of `self`,
    /// the traced call classes, host scopes, and probes on this
    /// workload's inputs.
    fn layers(&mut self, rec: &Recorder, scopes: &[HostScopeStats], out: &mut Values);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == key)?;
        args.get(i + 1).map(String::as_str)
    };
    let workload = value("--workload").ok_or("--workload <name> is required")?;
    let parse = |key: &str, default: &str| -> Result<u64, String> {
        value(key)
            .unwrap_or(default)
            .parse()
            .map_err(|_| format!("{key} takes a whole number"))
    };
    let seed = parse("--seed", &DEFAULT_SEED.to_string())?;
    let seconds = parse("--seconds", "10")?;
    let trace = match parse("--trace", "0")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds: seconds as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "trace-sim" => run::<trace_sim::TraceSim>(&args),
        "kona-replay" => run::<kona_replay::KonaReplay>(&args),
        "serve-mt" => run::<serve_mt::ServeMt>(&args),
        "shard-traced" => run::<shard_traced::ShardTraced>(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} \
                 (trace-sim, kona-replay, serve-mt, shard-traced)"
            );
            return ExitCode::from(2);
        }
    };
    println!("{result}");
    ExitCode::SUCCESS
}

fn run<W: Workload>(args: &Args) -> String {
    if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    }
}

/// Checks that every round of this code on this seed printed one digest,
/// within this run and against earlier runs of the same executable.
fn digests_agree(args: &Args, rounds: &[RoundOut]) -> bool {
    let digest = rounds[0].digest;
    println!("simulated-statistics digest: {digest:016x}");
    if let Some(r) = rounds.iter().find(|r| r.digest != digest) {
        println!("FAIL: rounds disagree on the digest ({:016x})", r.digest);
        return false;
    }
    match registry_check(args, digest) {
        Ok(()) => true,
        Err(e) => {
            println!("FAIL: {e}");
            false
        }
    }
}

/// The digest registry: one `exe_hash workload seed digest` row per
/// (build, workload, seed), kept beside the executable so that every run
/// of one build is compared with the first.
fn registry_check(args: &Args, digest: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let build = format!("{:016x}", stats::Digest::default().bytes(&bytes[..]).get());
    let path: PathBuf = exe.with_file_name("perfbench-digests.tsv");
    let key = format!("{build}\t{}\t{}\t", args.workload, args.seed);
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(row) = known.lines().find(|l| l.starts_with(&key)) {
        let prior = &row[key.len()..];
        if prior != format!("{digest:016x}") {
            return Err(format!(
                "digest {digest:016x} differs from {prior} printed by an earlier run of this build"
            ));
        }
        return Ok(());
    }
    let row = format!("{key}{digest:016x}\n");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, row.as_bytes()))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn report_problems(rounds: &[RoundOut]) {
    for (i, r) in rounds.iter().enumerate() {
        for p in &r.problems {
            println!("FAIL (round {}): {p}", i + 1);
        }
    }
}

fn untraced<W: Workload>(args: &Args) -> String {
    let mut rec = Recorder::new(false);
    let mut rounds: Vec<RoundOut> = Vec::new();
    let (mut setups, mut rates, mut p50s, mut tails) = (vec![], vec![], vec![], vec![]);
    let mut timed_total = 0.0;
    let mut tail_info = None;
    let mut peak_rss = 0.0;
    while rounds.len() < MIN_ROUNDS || timed_total < args.seconds {
        let start = Instant::now();
        let mut state = W::setup(args.seed);
        setups.push(start.elapsed().as_secs_f64());
        let out = state.round(&mut rec);
        drop(state);
        if rounds.is_empty() {
            // Later rounds can only raise the high-water mark through
            // allocator reuse, which varies with the round count.
            peak_rss = stats::peak_rss_mib().unwrap_or(0.0);
        }
        let samples = rec.take_samples();
        let p = stats::call_percentiles(&samples);
        tail_info = Some(p);
        p50s.push(p.p50_ns / 1e3);
        tails.push(p.tail_ns / 1e3);
        rates.push(out.ops as f64 / out.timed_s);
        timed_total += out.timed_s;
        rounds.push(out);
    }
    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    report_problems(&rounds);
    let correct = digests_agree(args, &rounds) && failed == 0;

    let mut v = Values::default();
    v.set("setup_s", stats::median(&setups[WARMUP_ROUNDS..]));
    v.set("peak_rss_mib", peak_rss);
    v.set("ok_frac", 1.0 - stats::failed_frac(failed, attempted));
    v.set("sim_ns_per_op", rounds[0].sim_ns_per_op);

    for (i, r) in rounds.iter().enumerate() {
        println!(
            "  round {}: setup {:.4} s, timed {:.4} s, {:.1} ops/s, p50 {:.4} us, tail {:.4} us{}",
            i + 1,
            setups[i],
            r.timed_s,
            rates[i],
            p50s[i],
            tails[i],
            if i < WARMUP_ROUNDS { " (warm-up)" } else { "" }
        );
    }
    let p = tail_info.expect("at least one round");
    println!(
        "workload {} seed {}: {} rounds, {:.2} s timed, {attempted} ops, {failed} failed \
         (failed_frac {})",
        args.workload,
        args.seed,
        rounds.len(),
        timed_total,
        stats::failed_frac(failed, attempted)
    );
    println!(
        "host throughput {:.1} ops/s: median over the rounds after the warm-up \
         (the per-layer bench.ops_per_s)",
        stats::median(&rates[WARMUP_ROUNDS..])
    );
    println!(
        "per-call percentiles per round over n={} calls; the tail is p{} with {} calls beyond",
        p.n,
        p.tail_q * 100.0,
        stats::beyond(p.n, p.tail_q)
    );
    print_table(END_TO_END, &v);
    result_json(correct, attempted, failed, END_TO_END, &v)
}

fn traced<W: Workload>(args: &Args) -> String {
    // Untraced reference round: the traced one's overhead is measured
    // against it, and both must print the same simulated digest.
    // Its host times give the throughput and the call percentiles.
    let mut plain = W::setup(args.seed);
    let mut plain_rec = Recorder::new(false);
    let base = plain.round(&mut plain_rec);
    drop(plain);
    let calls = stats::call_percentiles(&plain_rec.take_samples());

    let mut rec = Recorder::new(true);
    host_profile_start();
    rec.open("setup");
    let mut state = W::setup(args.seed);
    rec.close();
    rec.open("round");
    let out = state.round(&mut rec);
    rec.close();
    let scopes = host_profile_stop();

    let mut v = Values::default();
    v.set("workloads.generate_s", state.generate_s());
    state.layers(&rec, &scopes, &mut v);
    drop(state);

    let overhead = out.timed_s / base.timed_s;
    let classified_s = rec.classes().values().map(|c| c.total_ns).sum::<u64>() as f64 / 1e9;
    let coverage = classified_s / out.timed_s;
    v.set("bench.trace_overhead", overhead);
    v.set("bench.class_coverage", coverage);
    v.set("bench.ops_per_s", base.ops as f64 / base.timed_s);
    v.set("bench.call_p50_us", calls.p50_ns / 1e3);
    v.set("bench.call_p999_us", calls.tail_ns / 1e3);

    let rounds = [base, out];
    report_problems(&rounds);
    let mut correct = digests_agree(args, &rounds);
    // The call classes must account for the traced timed phase, up to
    // what tracing itself added. Host speed drifts by up to a quarter
    // between two rounds, hence the allowance.
    let untraced_share = (1.0 / overhead).min(1.0);
    if coverage < untraced_share - COVERAGE_ALLOWANCE {
        println!(
            "FAIL: call classes cover {coverage:.3} of traced time, below the untraced share \
             {untraced_share:.3} less {COVERAGE_ALLOWANCE}"
        );
        correct = false;
    }
    let attempted = rounds.iter().map(|r| r.ops).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    correct &= failed == 0;

    println!(
        "workload {} seed {}: traced round {:.3} s vs untraced {:.3} s (overhead {overhead:.3}), \
         call classes cover {coverage:.3}",
        args.workload, args.seed, rounds[1].timed_s, rounds[0].timed_s
    );
    println!(
        "per-call percentiles of the untraced round over n={} calls; bench.call_p999_us is \
         p{} with {} calls beyond",
        calls.n,
        calls.tail_q * 100.0,
        stats::beyond(calls.n, calls.tail_q)
    );
    println!("call classes (traced round):");
    for (name, c) in rec.classes() {
        println!(
            "  {name:<28} {:>10} calls {:>14.1} ns mean {:>10.4} s total",
            c.calls,
            c.mean_ns(),
            c.total_ns as f64 / 1e9
        );
    }
    for s in &scopes {
        println!(
            "  host scope {:<18} {:>10} calls {:>14.1} ns mean",
            s.name,
            s.calls,
            s.total_ns as f64 / s.calls.max(1) as f64
        );
    }
    let span_path = std::env::current_exe().ok().map(|e| {
        e.with_file_name("perfbench-spans")
            .join(format!("{}-{}.tsv", args.workload, args.seed))
    });
    if let Some(path) = span_path {
        let trace_id = format!("{}-{}", args.workload, args.seed);
        match rec.write_spans(&path, &trace_id) {
            Ok(()) => println!("{} spans written to {}", rec.span_count(), path.display()),
            Err(e) => println!("spans not written ({}): {e}", path.display()),
        }
    }
    print_table(PER_LAYER, &v);
    result_json(correct, attempted, failed, PER_LAYER, &v)
}

fn print_table(table: &[metrics::Metric], v: &Values) {
    for m in table {
        match v.get(m.name) {
            Some(x) => println!(
                "  {:<34} {:>18.6} {} ({} is better)",
                m.name, x, m.unit, m.better
            ),
            None => println!("  {:<34} {:>18} {} (not exercised)", m.name, 0, m.unit),
        }
    }
}
