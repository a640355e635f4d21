//! In-memory spans for the traced run.
//!
//! The benchmark wraps each public call it makes into a layer in a span:
//! name, job id, parent span, start and end. Spans stay in memory and are
//! summarised when the run ends. A span's self time is its duration minus
//! the durations of its children; children never overlap because each
//! recorder belongs to one thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    job: std::cell::Cell<u64>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            job: std::cell::Cell::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to job `job`.
    pub fn set_job(&self, job: u64) {
        self.job.set(job);
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                job: self.job.get(),
                parent: self.stack.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Record a span whose bounds were measured elsewhere (for example
    /// the server-side time a reply reports), under the open span.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.stack.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            job: self.job.get(),
            parent,
            start_ns,
            end_ns,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, i128> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += i128::from(s.dur_ns());
        if let Some(p) = s.parent {
            *out.entry(spans[p].name).or_default() -= i128::from(s.dur_ns());
        }
    }
    out.into_iter().map(|(k, v)| (k, v.max(0) as u64)).collect()
}

/// Total (inclusive) time per span name, in nanoseconds.
pub fn total_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += s.dur_ns();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::new(Instant::now());
        rec.span("job", || {
            rec.span("a", || std::hint::black_box(1));
            rec.record("b", 0, 0);
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = self_times(&spans);
        let totals = total_times(&spans);
        assert_eq!(selfs["job"], totals["job"] - totals["a"]);
    }
}
