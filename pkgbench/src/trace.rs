//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! origin), an optional parent and the id of the op it belongs to.  A
//! span's *self time* is its duration minus the part of its interval that
//! its children cover.  Spans stay in memory while the clock runs and are
//! written out as JSON lines afterwards.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Largest relative gap allowed between an op's wall time, taken by the
/// caller with a clock of its own, and the sum of its children's durations
/// plus its own unaccounted time.
pub const ADDITIVITY_TOLERANCE: f64 = 0.01;

/// Share of ops that must add up within [`ADDITIVITY_TOLERANCE`].  The
/// rest may not: an interrupt that lands between the caller's clock read
/// and the root span's opening widens one op's gap by microseconds.
pub const ADDITIVITY_SHARE: f64 = 0.99;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.present`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Spans in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (tracers on several threads
    /// share one origin so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes the span at `index`, returning its duration in ns.
    pub fn close(&mut self, index: usize) -> u64 {
        let end = self.now();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.duration()
    }

    /// Appends another tracer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// What a span set says about where the time went.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Totals by span name.
    pub by_name: BTreeMap<&'static str, Totals>,
    /// Summed duration of root spans (ops), ns.
    pub root_ns: u64,
    /// Summed self time of root spans: op time no child covers, ns.
    pub unaccounted_ns: u64,
    /// Per root span: its op id and the sum of its children's durations
    /// plus its self time, ns.
    pub parts: Vec<(u64, u64)>,
}

impl Breakdown {
    /// Share of op wall time no child span covers.
    pub fn unaccounted_share(&self) -> f64 {
        crate::stats::ratio(self.unaccounted_ns as f64, self.root_ns as f64)
    }

    /// Relative gap between each op's parts and the wall time its caller
    /// measured (`walls`: op id → ns), sorted ascending.  An op without a
    /// wall time has gap 1.
    pub fn wall_gaps(&self, walls: &HashMap<u64, u64>) -> Vec<f64> {
        let mut gaps: Vec<f64> = self
            .parts
            .iter()
            .map(|&(op, parts)| {
                walls.get(&op).map_or(1.0, |&wall| {
                    (parts as f64 - wall as f64).abs() / wall.max(1) as f64
                })
            })
            .collect();
        gaps.sort_by(f64::total_cmp);
        gaps
    }

    /// Whether at least [`ADDITIVITY_SHARE`] of the ops' parts add up to
    /// their wall times within [`ADDITIVITY_TOLERANCE`].
    pub fn adds_up(&self, walls: &HashMap<u64, u64>) -> bool {
        let gaps = self.wall_gaps(walls);
        let within = gaps.iter().filter(|&&g| g <= ADDITIVITY_TOLERANCE).count();
        !gaps.is_empty() && within as f64 >= ADDITIVITY_SHARE * gaps.len() as f64
    }

    /// Mean duration of the spans called `name`, in µs (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| {
            crate::stats::ratio(t.total_ns as f64, t.count as f64) / 1e3
        })
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(index);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let kid = &spans[k];
                    (
                        kid.start_ns.clamp(span.start_ns, span.end_ns),
                        kid.end_ns.clamp(span.start_ns, span.end_ns),
                    )
                })
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Folds a span set into per-name totals and sums each root span's parts:
/// its children's durations plus its self time.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let mut child_sum = vec![0u64; spans.len()];
    let mut out = Breakdown::default();
    for (index, span) in spans.iter().enumerate() {
        let totals = out.by_name.entry(span.name).or_default();
        totals.count += 1;
        totals.total_ns += span.duration();
        totals.self_ns += selfs[index];
        if let Some(parent) = span.parent {
            child_sum[parent] += span.duration();
        }
    }
    for (index, span) in spans.iter().enumerate() {
        if span.parent.is_some() {
            continue;
        }
        out.root_ns += span.duration();
        out.unaccounted_ns += selfs[index];
        out.parts.push((span.op, child_sum[index] + selfs[index]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("op", 0, 100, None),
            span("store.restore", 10, 40, Some(0)),
            span("store.present", 40, 90, Some(0)),
            span("engine.discovery", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
        let b = breakdown(&spans);
        assert_eq!(b.root_ns, 100);
        assert_eq!(b.unaccounted_ns, 20);
        assert!((b.unaccounted_share() - 0.2).abs() < 1e-12);
        assert_eq!(b.parts, vec![(0, 100)]);
        assert!(b.adds_up(&HashMap::from([(0, 100)])));
        // A caller clock that saw 2% more than the spans did.
        assert!(!b.adds_up(&HashMap::from([(0, 102)])));
        // An op the caller never timed.
        assert!(!b.adds_up(&HashMap::new()));
        assert_eq!(b.by_name["store.present"].self_ns, 30);
        assert_eq!(b.mean_us("store.restore"), 0.03);
    }

    #[test]
    fn overlapping_children_count_once_and_break_additivity() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 50, 80, Some(0)),
            // Reaches past the parent: clipped for self time.
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [0, 80) + [90, 100) = 90.
        assert_eq!(self_times(&spans)[0], 10);
        let b = breakdown(&spans);
        // Children sum to 120, plus 10 unaccounted, against 100 of wall.
        let walls = HashMap::from([(0, 100)]);
        assert_eq!(b.wall_gaps(&walls), vec![0.3]);
        assert!(!b.adds_up(&walls));
    }

    #[test]
    fn one_op_in_a_hundred_may_miss_the_tolerance() {
        let b = Breakdown {
            parts: (0..100).map(|op| (op, 1_000)).collect(),
            ..Breakdown::default()
        };
        let mut walls: HashMap<u64, u64> = (0..100).map(|op| (op, 1_005)).collect();
        assert!(b.adds_up(&walls));
        walls.insert(7, 2_000);
        assert!(b.adds_up(&walls));
        walls.insert(8, 2_000);
        assert!(!b.adds_up(&walls));
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.open("op", None, 1);
        a.close(root);
        let mut b = Tracer::new(origin);
        let root = b.open("op", None, 2);
        let kid = b.open("wire.present", Some(root), 2);
        b.close(kid);
        b.close(root);
        a.absorb(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        let ops: Vec<u64> = breakdown(&a.spans).parts.iter().map(|p| p.0).collect();
        assert_eq!(ops, vec![1, 2]);
    }
}
