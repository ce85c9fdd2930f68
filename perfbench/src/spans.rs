//! Host-time recording from outside the program: per-call samples for
//! the end-to-end percentiles and, in a traced run, spans around each
//! call into a layer's public functions plus per-class totals.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Per-access calls keep one span in this many (every slow call is kept
/// too); all of them are counted in the class totals.
const SPAN_SAMPLE_EVERY: u64 = 64;
/// Calls at least this slow always keep their span, in ns.
const SLOW_CALL_NS: u64 = 20_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u32,
    /// The enclosing span.
    pub parent: u32,
    /// Call or class name, `layer.call`.
    pub name: &'static str,
    /// Host ns since the run began.
    pub start_ns: u64,
    /// Host ns since the run began.
    pub end_ns: u64,
}

/// Host time and count of one call class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTotal {
    /// Calls in the class.
    pub calls: u64,
    /// Their summed host ns.
    pub total_ns: u64,
}

impl ClassTotal {
    /// Mean host ns per call (0 for an empty class).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Records per-call host times; in traced mode also spans and classes.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    traced: bool,
    samples: Vec<u64>,
    spans: Vec<Span>,
    open: Vec<u32>,
    classes: BTreeMap<&'static str, ClassTotal>,
    hot_calls: u64,
}

impl Recorder {
    /// A recorder; `traced` turns spans and classes on.
    pub fn new(traced: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            traced,
            samples: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
            classes: BTreeMap::new(),
            hot_calls: 0,
        }
    }

    /// Whether spans and classes are recorded.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Reserves room for `calls` samples so that recording never grows
    /// the buffer inside the timed phase.
    pub fn reserve(&mut self, calls: usize) {
        self.samples.reserve(calls);
    }

    /// Takes the round's per-call samples.
    pub fn take_samples(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.samples)
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Adds a per-call sample (ns) to the round's percentiles.
    #[inline]
    pub fn sample(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Opens a coarse span (a round, a replay, a probe).
    pub fn open(&mut self, name: &'static str) {
        if !self.traced {
            return;
        }
        let now = self.ns_since_epoch(Instant::now());
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.traced {
            return;
        }
        let now = self.ns_since_epoch(Instant::now());
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Records one classified call that started at `start` and took `ns`:
    /// its class total always, its span when sampled, slow, or `coarse`.
    pub fn call(&mut self, class: &'static str, start: Instant, ns: u64, coarse: bool) {
        if !self.traced {
            return;
        }
        let t = self.classes.entry(class).or_default();
        t.calls += 1;
        t.total_ns += ns;
        self.hot_calls += 1;
        if coarse || ns >= SLOW_CALL_NS || self.hot_calls.is_multiple_of(SPAN_SAMPLE_EVERY) {
            let start_ns = self.ns_since_epoch(start);
            self.spans.push(Span {
                id: self.spans.len() as u32 + 1,
                parent: self.open.last().copied().unwrap_or(0),
                name: class,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
    }

    /// The class totals recorded so far.
    pub fn class(&self, name: &str) -> ClassTotal {
        self.classes.get(name).copied().unwrap_or_default()
    }

    /// Every class total, by name.
    pub fn classes(&self) -> &BTreeMap<&'static str, ClassTotal> {
        &self.classes
    }

    /// Writes the spans as tab-separated `trace_id id parent name start_ns
    /// end_ns` rows.
    pub fn write_spans(&self, path: &std::path::Path, trace_id: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "trace_id\tid\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{trace_id}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// Times `f`, returning its result, its start and its host ns.
#[inline]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, u64) {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    (out, start, ns)
}
