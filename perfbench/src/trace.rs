//! Spans recorded by the benchmark around its calls into each layer.
//! Spans stay in memory until the run ends; then they are written out
//! and reduced to per-layer self times.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one transaction or query share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. Ids are unique across threads because each
/// thread owns the id range tagged with its `lane`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u64, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            next: (lane + 1) << 40,
            spans: Vec::new(),
        }
    }

    /// A fresh id, for a span or for an operation.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// call's wall time in nanoseconds. With tracing off, only the time
    /// is taken.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce(&mut Tracer, u64) -> T,
    ) -> (T, u64) {
        let id = if self.enabled { self.id() } else { 0 };
        let start = self.now_ns();
        let out = f(self, id);
        let end = self.now_ns();
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns: start,
                end_ns: end,
            });
        }
        (out, end - start)
    }
}

/// Totals for all spans of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Reduces spans to per-name totals and self times. A child interval
/// is clipped to its parent, and overlapping children count once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map(|c| covered_ns(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered;
    }
    out
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Writes spans as JSON lines, one object per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "txn", 0, 100),
            span(2, 1, "stmt", 10, 30),
            span(3, 1, "stmt", 25, 50),
            span(4, 1, "stmt", 90, 120),
            span(5, 2, "inner", 12, 14),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["txn"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 40 - 10
            }
        );
        assert_eq!(t["stmt"].count, 3);
        assert_eq!(t["stmt"].total_ns, 20 + 25 + 30);
        assert_eq!(t["stmt"].self_ns, 18 + 25 + 30);
        assert_eq!(t["inner"].self_ns, 2);
    }

    #[test]
    fn tracer_records_nested_spans_only_when_enabled() {
        let epoch = Instant::now();
        let mut on = Tracer::new(epoch, 0, true);
        let op = on.id();
        let ((), _) = on.span("outer", 0, op, |t, id| {
            let ((), _) = t.span("inner", id, op, |_, _| ());
        });
        assert_eq!(on.spans.len(), 2);
        let inner = &on.spans[0];
        let outer = &on.spans[1];
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.op, outer.op);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let mut off = Tracer::new(epoch, 1, false);
        let (v, _) = off.span("outer", 0, 0, |_, _| 7);
        assert_eq!(v, 7);
        assert!(off.spans.is_empty());
        assert_ne!(
            Tracer::new(epoch, 1, true).id(),
            Tracer::new(epoch, 2, true).id()
        );
    }
}
