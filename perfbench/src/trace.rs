//! Benchmark-side spans: recorded in memory around calls into each layer's
//! public functions, written out when the run ends, and folded into
//! per-layer self times (a span's duration minus the part of it its child
//! spans cover).
//!
//! A disabled [`Tracer`] records nothing and never reads the clock, so the
//! untimed-overhead runs pay one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` is 0 for a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; it records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// The id children pass as their parent (0 when tracing is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        self.tracer.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        });
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent` (0 for a root) for request
    /// `request`.
    pub fn span(&self, name: &'static str, parent: u32, request: u64) -> SpanGuard<'_> {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            request,
            name,
            start_ns,
        }
    }

    /// Records a root span whose ends were taken elsewhere: a request sent
    /// on one thread and answered on another.
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(SpanRecord {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    fn push(&self, record: SpanRecord) {
        // A poisoned lock only means another span recorder panicked; the
        // vector itself is always valid, so keep recording.
        match self.spans.lock() {
            Ok(mut spans) => spans.push(record),
            Err(poisoned) => poisoned.into_inner().push(record),
        }
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        match self.spans.lock() {
            Ok(spans) => spans.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }
}

/// Count, total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, in microseconds.
    pub fn self_us_per_span(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Folds spans into per-name times. A span's self time is its duration minus
/// the union of its children's intervals clipped to it, so overlapping
/// (parallel) children are not subtracted twice.
pub fn layer_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let covered = children
            .get(&span.id)
            .map(|kids| covered_ns(span.start_ns, span.end_ns, kids))
            .unwrap_or(0);
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// The spans as tab-separated lines: `id parent request name start_ns end_ns`.
pub fn render_tsv(spans: &[SpanRecord]) -> String {
    let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            // Two overlapping children cover [10, 40); a third covers [60, 70).
            span(2, 1, "child", 10, 30),
            span(3, 1, "child", 20, 40),
            span(4, 1, "other", 60, 70),
            // A grandchild only counts against its own parent.
            span(5, 2, "leaf", 12, 18),
            // A child running past its parent is clipped to the parent.
            span(6, 4, "leaf", 65, 90),
        ];
        let times = layer_times(&spans);
        assert_eq!(
            times["root"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 30 - 10
            }
        );
        assert_eq!(times["child"].total_ns, 40);
        assert_eq!(times["child"].self_ns, (20 - 6) + 20);
        assert_eq!(times["other"].self_ns, 10 - 5);
        assert_eq!(times["leaf"].self_ns, 6 + 25);
        assert!((times["child"].self_us_per_span() - 0.017).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let outer = tracer.span("a", 0, 1);
            let _inner = tracer.span("b", outer.id(), 1);
        }
        assert!(tracer.records().is_empty());

        let tracer = Tracer::new(true);
        {
            let outer = tracer.span("a", 0, 7);
            let _inner = tracer.span("b", outer.id(), 7);
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        let (inner, outer) = (&records[0], &records[1]);
        assert_eq!((inner.name, inner.parent, inner.request), ("b", outer.id, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(render_tsv(&records).lines().count() == 3);
    }
}
