//! Layer timing from outside the program: every call into a layer is
//! wrapped in [`Recorder::time`], which in a traced run records a span
//! (name, op, start, end, parent op span) and a per-layer sample. In an
//! untraced run the wrapper is a plain call, so end-to-end numbers carry
//! no tracing cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Spans of one op share `op`; a layer span recorded
/// inside an op has the op's span as `parent`, op spans and the serve
/// workload's replays between ops have none.
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Per-layer samples and spans of one run.
pub struct Recorder {
    traced: bool,
    origin: Instant,
    spans: Vec<Span>,
    op_span: Option<usize>,
    op_count: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            traced,
            origin: Instant::now(),
            spans: Vec::new(),
            op_span: None,
            op_count: 0,
            samples: BTreeMap::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Opens the span of one op; layer spans recorded until
    /// [`Recorder::end_op`] nest under it.
    pub fn begin_op(&mut self, name: &'static str) {
        self.op_count += 1;
        if self.traced {
            let now = self.origin.elapsed();
            self.spans.push(Span {
                name,
                op: self.op_count,
                parent: None,
                start: now,
                end: now,
            });
            self.op_span = Some(self.spans.len() - 1);
        }
    }

    pub fn end_op(&mut self) {
        if let Some(index) = self.op_span.take() {
            self.spans[index].end = self.origin.elapsed();
        }
    }

    /// Runs `f`; in a traced run records its wall time as a span and as
    /// a sample of the layer metric `name` (milliseconds).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let start = self.origin.elapsed();
        let value = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op: self.op_count,
            parent: self.op_span,
            start,
            end,
        });
        self.sample(name, (end - start).as_secs_f64() * 1e3);
        value
    }

    /// Records one sample of the layer metric `name` (traced runs only).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.traced {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// The median of every sampled layer metric.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.samples
            .iter()
            .map(|(name, values)| (*name, median(values)))
            .collect()
    }

    /// The recorded spans as JSON lines, in recording order.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                span.op,
                span.name,
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
            );
        }
        out
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
