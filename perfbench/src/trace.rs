//! In-memory spans recorded around the benchmark's calls into each layer,
//! and the self-time arithmetic that turns them into per-layer numbers.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. Spans of one op share `op`; `parent` is the `id` of the
/// span that caused this one (`None` for the op's root).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one shared clock origin. Each client thread
/// keeps its own recorder; they are merged when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds of `t` since the epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` as span `id` of `op`.
    pub fn record(
        &mut self,
        op: u64,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            op,
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its direct children cover. Overlapping
/// children count once; a child sticking out of its parent counts only
/// inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<(u64, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry((s.op, parent))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&(s.op, s.id))
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += t;
    }
    by_name
}

/// Share of the root spans' total time that their children cover (0 with
/// no root time).
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_none() {
            total += s.duration_ns();
            uncovered += t;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / total as f64
    }
}

/// Writes spans as tab-separated lines: op, id, parent (0 = root), name,
/// start ns, end ns.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.op,
            s.id,
            s.parent.unwrap_or(0),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_from_their_direct_parent_only() {
        // root [0,100] ⊃ a [10,40] ⊃ b [15,25]; root ⊃ c [50,60].
        let spans = [
            span(1, 1, None, 0, 100),
            span(1, 2, Some(1), 10, 40),
            span(1, 3, Some(2), 15, 25),
            span(1, 4, Some(1), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children on two threads overlap: [10,50] and [30,70] cover 60.
        let spans = [
            span(7, 1, None, 0, 100),
            span(7, 2, Some(1), 10, 50),
            span(7, 3, Some(1), 30, 70),
            span(7, 4, Some(1), 40, 45),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span(1, 1, None, 100, 200), span(1, 2, Some(1), 150, 260)];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn ops_do_not_share_children() {
        // Same span ids in two ops: op 2's child must not hit op 1's root.
        let spans = [
            span(1, 1, None, 0, 10),
            span(2, 1, None, 0, 10),
            span(2, 2, Some(1), 0, 10),
        ];
        assert_eq!(self_times(&spans), vec![10, 0, 10]);
    }

    #[test]
    fn coverage_is_the_childrens_share_of_root_time() {
        let spans = [
            span(1, 1, None, 0, 100),
            span(1, 2, Some(1), 0, 75),
            span(2, 1, None, 0, 100),
            span(2, 2, Some(1), 50, 75),
        ];
        assert_eq!(coverage(&spans), 0.5);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn self_time_sums_per_name() {
        let mut spans = vec![
            span(1, 1, None, 0, 10),
            span(1, 2, Some(1), 2, 5),
            span(2, 1, None, 0, 4),
        ];
        spans[1].name = "child";
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["x"], 7 + 4);
        assert_eq!(by_name["child"], 3);
    }
}
