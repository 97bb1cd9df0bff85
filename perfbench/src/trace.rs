//! Spans recorded around calls into each layer's public functions, and
//! the exact counters recorded at the same boundaries.
//!
//! A span has a name, a start, an end, a parent and a job id. Top-level
//! spans (`job` for the workload's own path, `probe` for a layer the
//! workload does not use end to end) are roots; every other span is a
//! child of the span open when it began. Spans are kept in memory and
//! written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`lex`, `parse`, …) or root name (`job`, `probe`).
    pub name: &'static str,
    /// Start, in ns since the run's epoch.
    pub start: u64,
    /// End, in ns since the run's epoch.
    pub end: u64,
    /// Index of the parent span in the same tracer (`None` for a root).
    pub parent: Option<usize>,
    /// Index of the root span this span belongs to.
    pub root: usize,
    /// The job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder. A disabled tracer records nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    /// Recorded spans, parents before children.
    pub spans: Vec<Span>,
    /// Per-root annotations (token, byte and memory-op counts) that turn
    /// span times into rates.
    pub notes: Vec<(usize, &'static str, u64)>,
    stack: Vec<usize>,
    job: u64,
    job_mark: (usize, usize),
}

/// Handle of an open span (`usize::MAX` when the tracer is disabled).
pub type SpanId = usize;

impl Tracer {
    /// A tracer measuring from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            notes: Vec::new(),
            stack: Vec::new(),
            job: 0,
            job_mark: (0, 0),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start attributing spans to `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
        self.stack.clear();
        self.job_mark = (self.spans.len(), self.notes.len());
    }

    /// Drop whatever the current job recorded (after it panicked).
    pub fn abandon_job(&mut self) {
        self.spans.truncate(self.job_mark.0);
        self.notes.truncate(self.job_mark.1);
        self.stack.clear();
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let root = parent.map_or(id, |p| self.spans[p].root);
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            root,
            job: self.job,
        });
        self.stack.push(id);
        id
    }

    /// Close the span `id` (must be the innermost open one).
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        self.spans[id].end = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Rename a recorded span (e.g. once a lookup turned out a miss).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(s) = self.spans.get_mut(id) {
            s.name = name;
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Annotate the current root with a count.
    pub fn note(&mut self, key: &'static str, value: u64) {
        if let (true, Some(&top)) = (self.enabled, self.stack.last()) {
            let root = self.spans[top].root;
            self.notes.push((root, key, value));
        }
    }

    /// Fold another tracer's spans into this one (for writing out).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.root += base;
            s
        }));
        self.notes
            .extend(other.notes.into_iter().map(|(r, k, v)| (r + base, k, v)));
    }
}

/// What one root span's subtree adds up to.
#[derive(Debug, Default)]
pub struct RootSummary {
    /// `job` or `probe`.
    pub name: &'static str,
    /// Wall time of the root.
    pub dur: u64,
    /// Time covered by the root's direct children.
    pub covered: u64,
    /// Self time per layer (summed over the root's spans of that name).
    pub layers: BTreeMap<&'static str, u64>,
    /// Annotations, summed per key.
    pub notes: BTreeMap<&'static str, u64>,
}

/// Self time of every span (duration minus its children's durations;
/// children of one span run one after another, so that is the time they
/// cover), grouped by root.
#[must_use]
pub fn summarize(tracer: &Tracer) -> Vec<RootSummary> {
    let spans = &tracer.spans;
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur();
        }
    }
    let mut roots: BTreeMap<usize, RootSummary> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            let r = roots.entry(i).or_default();
            r.name = s.name;
            r.dur = s.dur();
            r.covered = child_sum[i];
        } else {
            let self_ns = s.dur().saturating_sub(child_sum[i]);
            *roots
                .entry(s.root)
                .or_default()
                .layers
                .entry(s.name)
                .or_default() += self_ns;
        }
    }
    for &(root, key, v) in &tracer.notes {
        *roots.entry(root).or_default().notes.entry(key).or_default() += v;
    }
    roots.into_values().collect()
}

/// Render spans as tab-separated lines: job, name, start, end, parent.
#[must_use]
pub fn render_spans(tracer: &Tracer, limit: usize) -> String {
    let mut out = String::from("job\tname\tstart_ns\tend_ns\tparent\n");
    for s in tracer.spans.iter().take(limit) {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{parent}",
            s.job, s.name, s.start, s.end
        );
    }
    out
}

/// Exact counters, by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    /// Add `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_default() += v;
    }

    /// Current value (0 if never added to).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}
