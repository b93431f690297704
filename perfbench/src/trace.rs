//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and the slot it belongs to;
//! every span of one slot shares the slot id. Spans stay in memory while
//! the run measures and are written out once it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// Layer call, e.g. `streaming.prepare`.
    pub name: &'static str,
    /// Run-unique id of the slot the call served.
    pub slot: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, slot: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, slot, parent, start_ns, end_ns: 0 });
        self.spans.len() - 1
    }

    /// Closes the span `id` and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        slot: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, slot, parent);
        let out = f();
        (out, self.end(id))
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Total and self time per span name, in nanoseconds, with call counts.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tslot\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                s.name, s.slot, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Per-name aggregate of [`Tracer::by_name`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Self time of each span in `spans` (see [`Tracer::self_times_ns`]).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, slot: 7, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("slot", None, 0, 100),
            span("prepare", Some(0), 10, 40),
            span("inner", Some(1), 15, 35),
            span("schedule", Some(0), 50, 90),
        ];
        // slot: 100 − (30 + 40); prepare: 30 − 20; the grandchild does not
        // count against the slot a second time.
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
            // Sticks out past the parent's end: only the inside part counts.
            span("c", Some(0), 90, 130),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::default();
        let root = t.begin("slot", 1, None);
        let (x, _) = t.time("prepare", 1, Some(root), || 41 + 1);
        t.end(root);
        assert_eq!(x, 42);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.slot == 1 && s.end_ns >= s.start_ns));
        let by = t.by_name();
        assert_eq!(by["slot"].calls, 1);
        let slot = by["slot"];
        assert_eq!(slot.self_ns, slot.total_ns - by["prepare"].total_ns);
    }
}
