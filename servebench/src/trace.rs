//! In-memory spans recorded by the benchmark around its calls into each
//! crate, written out when the run ends.
//!
//! A [`Tracer`] belongs to one thread; threads share an epoch so their
//! spans line up, and [`Tracer::absorb`] merges them after the join. A
//! disabled tracer runs the same closures and records nothing, so the
//! traced and untraced runs execute identical benchmark code.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.parse`.
    pub name: &'static str,
    /// Request the span served; spans of one request share it.
    pub request: u64,
    /// The enclosing span's index in the same tracer.
    pub parent: Option<usize>,
    /// Nanoseconds since the shared epoch.
    pub start_ns: u64,
    /// Nanoseconds since the shared epoch.
    pub end_ns: u64,
}

/// Per-thread span recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder timing against `epoch`; when `enabled` is false every
    /// span is a plain call.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off for the following spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `request`; spans opened by
    /// `f` through the tracer it receives become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Move every span of `other` into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time (µs) of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e3
            })
            .collect()
    }

    /// Self times (µs) of the spans named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_us())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// One JSON object per span and line: name, request, id, parent,
    /// start and end in nanoseconds since the epoch.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"request\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, id, parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100]; children [10,40] and [30,60] overlap on [30,40];
        // grandchild [15,25] is covered by its own parent, not the root.
        let t = tracer(vec![
            span("root", None, 0, 100_000),
            span("a", Some(0), 10_000, 40_000),
            span("b", Some(0), 30_000, 60_000),
            span("c", Some(1), 15_000, 25_000),
        ]);
        assert_eq!(t.self_times_us(), vec![50.0, 20.0, 30.0, 10.0]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let t = tracer(vec![
            span("root", None, 10_000, 20_000),
            span("late", Some(0), 15_000, 30_000),
        ]);
        assert_eq!(t.self_us("root"), vec![5.0]);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        let outer = t.self_us("outer")[0];
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e3;
        let inner: f64 = t.spans[1..].iter().map(dur).sum();
        let total = dur(&t.spans[0]);
        assert!((outer + inner - total).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", 1, |_| 42), 42);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.span("a", 1, |_| ());
        let mut b = Tracer::new(epoch, true);
        b.span("p", 2, |t| t.span("c", 2, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
