//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that was open when it started (its parent) and a
//! request id shared by every span of one set-up, query or batch. Spans stay
//! in memory while the benchmark runs and are written out once at exit.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span; `None` when the tracer is off.
#[must_use]
pub struct Open(Option<usize>);

/// Per-name totals derived from the recorded spans.
#[derive(Default, Clone, Copy)]
pub struct Summary {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part its children
    /// cover.
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    requests: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            requests: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// A fresh request id for the spans of one set-up, query or batch.
    pub fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`]; spans close innermost
    /// first.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Count, total and self time per span name. Children of one span never
    /// overlap (the caller is one thread), so a span's self time is its
    /// duration minus the sum of its children's.
    pub fn summary(&self) -> BTreeMap<&'static str, Summary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Summary> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Every span as CSV: `id,name,request,parent,start_ns,end_ns` (the root
    /// spans' parent is empty).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,name,request,parent,start_ns,end_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{id},{},{},{parent},{},{}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let r = t.request();
        let root = t.enter("root", r);
        let child = t.enter("child", r);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        let s = t.summary();
        let (root, child) = (s["root"], s["child"]);
        assert_eq!(root.total_ns - child.total_ns, root.self_ns);
        assert_eq!(child.self_ns, child.total_ns);
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(t.to_csv().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let r = t.request();
        let s = t.enter("root", r);
        t.exit(s);
        assert_eq!(t.len(), 0);
    }
}
