//! Spans recorded by the benchmark around calls into each layer, and the
//! accounting that turns them into per-layer self times.
//!
//! A span records its layer, the lane (thread) it ran on, its parent span and
//! its start and end in nanoseconds since the run started.  Spans of one
//! operation are folded when the operation ends: a span's self time is its
//! duration minus the part of that interval its children cover.  Only the
//! first few operations' spans stay in memory, to be written out when the run
//! ends; every operation is folded into fixed-size totals.
//!
//! Accounting per operation of wall time `T` at width `W`: spans outside any
//! fan-out span (a sweep map, a driver run) run on the main lane while the
//! other `W − 1` lanes have nothing to do.  A fan-out hands its children to
//! `W` worker lanes, leaving `W × covered − Σ child durations` of them idle,
//! where `covered` is the time its children cover.  Self times plus recorded
//! idle must add back up to `W × T`; the fold measures by how much they miss.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// Spans kept for the written trace, across all operations of a run.
const KEPT_SPANS: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole operation (the root span).
    Op,
    SweepMap,
    SweepItem,
    PopLinks,
    PopSample,
    Placement,
    NetBuild,
    NetRun,
    NetSketch,
    FleetIngest,
    DriverRun,
    DriverExecute,
    DriverPublish,
    CkptEncode,
    CkptDecode,
    SearchIndex,
    ClientSubmit,
    ClientWait,
    CodecDecode,
    ServiceAnswer,
    CodecEncode,
}

pub const LAYERS: usize = 21;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Self::Op => "op",
            Self::SweepMap => "sweep.map",
            Self::SweepItem => "sweep.item",
            Self::PopLinks => "population.links",
            Self::PopSample => "population.sample",
            Self::Placement => "placement.simulate",
            Self::NetBuild => "netsim.build",
            Self::NetRun => "netsim.run",
            Self::NetSketch => "netsim.sketch",
            Self::FleetIngest => "fleet.ingest",
            Self::DriverRun => "driver.run",
            Self::DriverExecute => "driver.execute",
            Self::DriverPublish => "driver.publish",
            Self::CkptEncode => "checkpoint.encode",
            Self::CkptDecode => "checkpoint.decode",
            Self::SearchIndex => "search.index",
            Self::ClientSubmit => "serve.client.submit",
            Self::ClientWait => "serve.client.wait",
            Self::CodecDecode => "serve.codec.decode",
            Self::ServiceAnswer => "serve.service.answer",
            Self::CodecEncode => "serve.codec.encode",
        }
    }

    /// Spans whose children run on the worker lanes while the main lane
    /// waits for them.
    pub fn fans_out(self) -> bool {
        matches!(self, Self::SweepMap | Self::DriverRun)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub lane: u32,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the run's first span clock read.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// This thread's lane: a number no other thread of the process shares.
pub fn lane() -> u32 {
    LANE.with(|lane| *lane)
}

/// The spans of one lane of one operation, parents indexing into the list.
pub struct SpanList {
    pub spans: Vec<Span>,
    lane: u32,
}

impl SpanList {
    /// An empty list for spans recorded on the calling thread.
    pub fn here(capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
            lane: lane(),
        }
    }

    pub fn open(&mut self, layer: Layer, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            lane: self.lane,
            parent,
            start: now_ns(),
            end: 0,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end = now_ns();
    }

    /// Appends another list's spans, re-basing their parents; its root spans
    /// become children of `parent`.
    pub fn graft(&mut self, other: &[Span], parent: u32) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.iter().map(|span| Span {
            parent: if span.parent == NO_PARENT {
                parent
            } else {
                span.parent + base
            },
            ..*span
        }));
    }

    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

/// Per-layer totals over every folded operation, plus the accounting checks.
pub struct Totals {
    pub ops: u64,
    pub wall_ns: u64,
    pub self_ns: [u64; LAYERS],
    pub dur_ns: [u64; LAYERS],
    /// Σ over fan-out spans of (max − min) child duration.
    pub skew_ns: [u64; LAYERS],
    /// Σ over fan-out spans of their wall time, times the width.
    pub fan_capacity_ns: [u64; LAYERS],
    /// Σ over operations of recorded idle lane time.
    pub idle_ns: u64,
    /// Largest |W × T − (Σ self + recorded idle)| / (W × T) over the ops.
    pub max_gap: f64,
    /// Spans that end before they start or leave their parent's interval,
    /// fan-outs that overlap more than `W` children or nest, and operations
    /// without a single root.
    pub violations: u64,
    kept: Vec<(u64, Vec<Span>)>,
    kept_spans: usize,
}

impl Default for Totals {
    fn default() -> Self {
        Self {
            ops: 0,
            wall_ns: 0,
            self_ns: [0; LAYERS],
            dur_ns: [0; LAYERS],
            skew_ns: [0; LAYERS],
            fan_capacity_ns: [0; LAYERS],
            idle_ns: 0,
            max_gap: 0.0,
            violations: 0,
            kept: Vec::new(),
            kept_spans: 0,
        }
    }
}

/// Length of the union of `intervals` (sorted in place by start).
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match &mut current {
            Some((_, cur_end)) if start <= *cur_end => *cur_end = (*cur_end).max(end),
            _ => {
                if let Some((s, e)) = current {
                    total += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Most intervals open at one instant.
fn max_overlap(intervals: &[(u64, u64)]) -> usize {
    let mut edges: Vec<(u64, i32)> = intervals
        .iter()
        .flat_map(|&(s, e)| [(s, 1), (e, -1)])
        .collect();
    // Ends sort before starts at the same instant: back-to-back is no overlap.
    edges.sort_unstable();
    let mut open = 0i32;
    let mut most = 0i32;
    for (_, delta) in edges {
        open += delta;
        most = most.max(open);
    }
    most as usize
}

impl Totals {
    /// Folds one operation's spans, run at `width` lanes.  Parents must come
    /// before their children in `spans`, as [`SpanList`] records them.
    pub fn fold_op(&mut self, op: u64, spans: &[Span], width: usize) {
        let roots = spans.iter().filter(|s| s.parent == NO_PARENT).count();
        if roots != 1 || spans[0].parent != NO_PARENT {
            self.violations += 1;
            return;
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        // Whether a span runs inside a fan-out, on a worker lane.
        let mut on_worker = vec![false; spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if span.end < span.start {
                self.violations += 1;
            }
            if span.parent == NO_PARENT {
                continue;
            }
            let p = span.parent as usize;
            if p >= i {
                self.violations += 1;
                continue;
            }
            let parent = &spans[p];
            if span.start < parent.start || span.end > parent.end {
                self.violations += 1;
            }
            on_worker[i] = on_worker[p] || parent.layer.fans_out();
            children[p].push(i);
        }
        let width = width.max(1) as u64;
        let wall = spans[0].duration();
        let mut self_total = 0u64;
        let mut main_self = 0u64;
        let mut idle = 0u64;
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            intervals.clear();
            intervals.extend(children[i].iter().map(|&c| {
                let child = &spans[c];
                (
                    child.start.clamp(span.start, span.end),
                    child.end.clamp(span.start, span.end),
                )
            }));
            let child_total: u64 = intervals.iter().map(|&(s, e)| e - s).sum();
            let covered = union_length(&mut intervals);
            let own = span.duration() - covered.min(span.duration());
            let layer = span.layer as usize;
            self.self_ns[layer] += own;
            self.dur_ns[layer] += span.duration();
            self_total += own;
            if !on_worker[i] {
                main_self += own;
            }
            if span.layer.fans_out() {
                if on_worker[i] || max_overlap(&intervals) as u64 > width {
                    self.violations += 1;
                }
                idle += (width * covered).saturating_sub(child_total);
                self.fan_capacity_ns[layer] += width * span.duration();
                let durations = children[i].iter().map(|&c| spans[c].duration());
                if let (Some(max), Some(min)) = (durations.clone().max(), durations.min()) {
                    self.skew_ns[layer] += max - min;
                }
            }
        }
        idle += (width - 1) * main_self;
        let capacity = width * wall;
        if capacity > 0 {
            let gap = (capacity as f64 - (self_total + idle) as f64).abs() / capacity as f64;
            self.max_gap = self.max_gap.max(gap);
        }
        self.ops += 1;
        self.wall_ns += wall;
        self.idle_ns += idle;
        if self.kept_spans < KEPT_SPANS {
            self.kept_spans += spans.len();
            self.kept.push((op, spans.to_vec()));
        }
    }

    /// A span timed outside any operation: a replica of work the program
    /// does out of the benchmark's reach.
    pub fn add_detached(&mut self, layer: Layer, start: u64, end: u64) {
        let layer = layer as usize;
        self.self_ns[layer] += end - start;
        self.dur_ns[layer] += end - start;
    }

    pub fn merge(&mut self, other: Totals) {
        self.ops += other.ops;
        self.wall_ns += other.wall_ns;
        for layer in 0..LAYERS {
            self.self_ns[layer] += other.self_ns[layer];
            self.dur_ns[layer] += other.dur_ns[layer];
            self.skew_ns[layer] += other.skew_ns[layer];
            self.fan_capacity_ns[layer] += other.fan_capacity_ns[layer];
        }
        self.idle_ns += other.idle_ns;
        self.max_gap = self.max_gap.max(other.max_gap);
        self.violations += other.violations;
        for kept in other.kept {
            if self.kept_spans < KEPT_SPANS {
                self.kept_spans += kept.1.len();
                self.kept.push(kept);
            }
        }
    }

    /// `ns` as microseconds per operation.
    pub fn per_op_us(&self, ns: u64) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        ns as f64 / 1e3 / self.ops as f64
    }

    /// Mean self time of `layer` per operation, in microseconds.
    pub fn self_us(&self, layer: Layer) -> f64 {
        self.per_op_us(self.self_ns[layer as usize])
    }

    /// Mean summed duration of `layer` per operation, in microseconds.
    pub fn dur_us(&self, layer: Layer) -> f64 {
        self.per_op_us(self.dur_ns[layer as usize])
    }

    /// Mean operation wall time, in microseconds.
    pub fn wall_us(&self) -> f64 {
        self.per_op_us(self.wall_ns)
    }

    /// Writes the kept spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (op, spans) in &self.kept {
            for (id, span) in spans.iter().enumerate() {
                let parent = if span.parent == NO_PARENT {
                    "null".to_string()
                } else {
                    span.parent.to_string()
                };
                writeln!(
                    out,
                    "{{\"op\":{op},\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"lane\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    span.layer.name(),
                    span.lane,
                    span.start,
                    span.end
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, lane: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            lane,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_times_and_idle_add_back_up_at_width_two() {
        // Main lane: op [0, 100] with links [0, 10], a map [10, 70] whose two
        // workers run items [12, 60] and [12, 40] + [41, 68], then ingest
        // [70, 90].
        let spans = [
            span(Layer::Op, 0, NO_PARENT, 0, 100),
            span(Layer::PopLinks, 0, 0, 0, 10),
            span(Layer::SweepMap, 0, 0, 10, 70),
            span(Layer::SweepItem, 1, 2, 12, 60),
            span(Layer::NetRun, 1, 3, 15, 55),
            span(Layer::SweepItem, 2, 2, 12, 40),
            span(Layer::SweepItem, 2, 2, 41, 68),
            span(Layer::FleetIngest, 0, 0, 70, 90),
        ];
        let mut totals = Totals::default();
        totals.fold_op(0, &spans, 2);
        assert_eq!(totals.violations, 0);
        assert_eq!(totals.max_gap, 0.0);
        assert_eq!(totals.self_ns[Layer::SweepMap as usize], 4);
        assert_eq!(totals.self_ns[Layer::SweepItem as usize], 8 + 28 + 27);
        assert_eq!(totals.self_ns[Layer::NetRun as usize], 40);
        assert_eq!(totals.self_ns[Layer::Op as usize], 10);
        // Idle: the fan-out's 2 × 56 covered minus 103 busy, plus one lane
        // for each of the 44 main-lane self nanoseconds.
        assert_eq!(totals.idle_ns, (2 * 56 - (48 + 28 + 27)) + 44);
        assert_eq!(totals.skew_ns[Layer::SweepMap as usize], 48 - 27);
    }

    #[test]
    fn serial_items_on_the_main_lane_still_add_up() {
        // A width-1 map runs its items on the calling thread.
        let spans = [
            span(Layer::Op, 0, NO_PARENT, 0, 50),
            span(Layer::SweepMap, 0, 0, 0, 40),
            span(Layer::SweepItem, 0, 1, 0, 20),
            span(Layer::SweepItem, 0, 1, 20, 40),
        ];
        let mut totals = Totals::default();
        totals.fold_op(0, &spans, 2);
        assert_eq!(totals.violations, 0);
        assert_eq!(totals.max_gap, 0.0);
        assert_eq!(totals.idle_ns, (2 * 40 - 40) + 10);
    }

    #[test]
    fn escaping_children_crowded_and_nested_fan_outs_are_violations() {
        let escaping = [
            span(Layer::Op, 0, NO_PARENT, 0, 10),
            span(Layer::NetRun, 0, 0, 5, 12),
        ];
        let mut totals = Totals::default();
        totals.fold_op(0, &escaping, 1);
        assert_eq!(totals.violations, 1);

        let crowded = [
            span(Layer::Op, 0, NO_PARENT, 0, 10),
            span(Layer::SweepMap, 0, 0, 0, 10),
            span(Layer::SweepItem, 1, 1, 1, 9),
            span(Layer::SweepItem, 2, 1, 1, 9),
            span(Layer::SweepItem, 3, 1, 1, 9),
        ];
        let mut totals = Totals::default();
        totals.fold_op(0, &crowded, 2);
        assert_eq!(totals.violations, 1);

        let nested = [
            span(Layer::Op, 0, NO_PARENT, 0, 10),
            span(Layer::DriverRun, 0, 0, 0, 10),
            span(Layer::SweepMap, 1, 1, 1, 9),
        ];
        let mut totals = Totals::default();
        totals.fold_op(0, &nested, 2);
        assert_eq!(totals.violations, 1);
    }

    #[test]
    fn grafted_parents_are_rebased() {
        let mut list = SpanList::here(4);
        let root = list.open(Layer::Op, NO_PARENT);
        let worker = [
            span(Layer::SweepItem, 1, NO_PARENT, 1, 2),
            span(Layer::NetRun, 1, 0, 1, 2),
        ];
        list.graft(&worker, root);
        assert_eq!(list.spans[1].parent, root);
        assert_eq!(list.spans[2].parent, 1);
    }
}
