//! Spans recorded from outside the program, around calls into its public
//! layer functions, plus [`TimedLayer`], an [`EvaluationLayer`] that times
//! every cell and full-aggregate call of the layer it wraps.
//!
//! Spans stay in memory and are written out once, when the run ends.
//! High-frequency spans (one per evaluation-layer call) are folded into one
//! rolled-up record per parent and name after their operation's self times
//! have been computed, so the file stays small while the arithmetic uses
//! every interval.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

use acq_engine::{AggState, CellRange, EngineResult, ExecStats};
use acquire_core::{CellCost, EvaluationLayer, ParallelCells};

use crate::stats;

/// Span names rolled up per parent once their operation is finished.
const ROLLUP: [&str; 2] = [CELL, FULL];
/// One `EvaluationLayer::cell_aggregate` call.
pub const CELL: &str = "core.cell";
/// One `EvaluationLayer::full_aggregate` call.
pub const FULL: &str = "core.full";

/// A finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation (one ACQ) the span belongs to.
    pub op: u64,
    /// Span id, unique within the run.
    pub id: u64,
    /// The span that caused this one; `None` for roots and for twin
    /// measurements taken beside an operation.
    pub parent: Option<u64>,
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Spans folded into this record (1 unless rolled up).
    pub count: u64,
    /// Summed duration of the folded spans.
    pub busy_ns: u64,
}

/// Per-name sums over every finished operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Summed span durations.
    pub dur_ns: u64,
    /// Summed self times (duration minus child coverage).
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    open: Vec<Span>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: 0,
            open: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// The instant all span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        nanos_since(self.epoch)
    }

    /// Records a finished span of the current operation; returns its id.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns,
            count: 1,
            busy_ns: end_ns.saturating_sub(start_ns),
        });
        id
    }

    /// Records every layer call a [`TimedLayer`] captured as children of
    /// `parent`.
    pub fn record_calls(&mut self, op: u64, parent: u64, calls: &[Call]) {
        for c in calls {
            self.record(op, c.name, Some(parent), c.start_ns, c.end_ns);
        }
    }

    /// Closes the current operation: computes each span's self time from
    /// its children, adds it to the per-name totals, and keeps the spans
    /// (high-frequency ones rolled up) for the trace file.
    pub fn finish_op(&mut self) {
        let spans = std::mem::take(&mut self.open);
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        for s in &spans {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let t = self.totals.entry(s.name).or_default();
            t.dur_ns += s.end_ns.saturating_sub(s.start_ns);
            t.self_ns += stats::self_ns((s.start_ns, s.end_ns), kids);
            t.count += 1;
        }
        let mut rolled: BTreeMap<(u64, &'static str), Span> = BTreeMap::new();
        for s in spans {
            match s.parent {
                Some(p) if ROLLUP.contains(&s.name) => {
                    rolled
                        .entry((p, s.name))
                        .and_modify(|r| {
                            r.start_ns = r.start_ns.min(s.start_ns);
                            r.end_ns = r.end_ns.max(s.end_ns);
                            r.count += 1;
                            r.busy_ns += s.busy_ns;
                        })
                        .or_insert(s);
                }
                _ => self.kept.push(s),
            }
        }
        self.kept.extend(rolled.into_values());
    }

    /// Sums for spans named `name`.
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Renders the kept spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.kept.len() * 120);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{},\"busy_ns\":{}}}",
                s.op, s.id, s.name, s.start_ns, s.end_ns, s.count, s.busy_ns
            );
        }
        out
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed evaluation-layer call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// [`CELL`] or [`FULL`].
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Times every `cell_aggregate` and `full_aggregate` call of the layer it
/// wraps; every other method is passed through untouched.
pub struct TimedLayer<'a, E> {
    inner: &'a mut E,
    epoch: Instant,
    calls: &'a mut Vec<Call>,
}

impl<'a, E: EvaluationLayer> TimedLayer<'a, E> {
    /// Wraps `inner`, appending each timed call to `calls`.
    pub fn new(inner: &'a mut E, epoch: Instant, calls: &'a mut Vec<Call>) -> Self {
        Self {
            inner,
            epoch,
            calls,
        }
    }
}

impl<E: EvaluationLayer> EvaluationLayer for TimedLayer<'_, E> {
    fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
        let start_ns = nanos_since(self.epoch);
        let out = self.inner.cell_aggregate(cell);
        let end_ns = nanos_since(self.epoch);
        self.calls.push(Call {
            name: CELL,
            start_ns,
            end_ns,
        });
        out
    }

    fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
        let start_ns = nanos_since(self.epoch);
        let out = self.inner.full_aggregate(bounds);
        let end_ns = nanos_since(self.epoch);
        self.calls.push(Call {
            name: FULL,
            start_ns,
            end_ns,
        });
        out
    }

    fn empty_state(&self) -> EngineResult<AggState> {
        self.inner.empty_state()
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn parallel_cells(&self) -> Option<&dyn ParallelCells> {
        self.inner.parallel_cells()
    }

    fn commit_cell_cost(&mut self, cost: &CellCost) {
        self.inner.commit_cell_cost(cost);
    }

    fn kind_name(&self) -> &'static str {
        self.inner.kind_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_op_computes_self_times_from_children() {
        let mut tr = Tracer::new();
        let root = tr.record(0, "op", None, 0, 1000);
        let search = tr.record(0, "core.search", Some(root), 100, 900);
        tr.record_calls(
            0,
            search,
            &[
                Call {
                    name: CELL,
                    start_ns: 200,
                    end_ns: 300,
                },
                Call {
                    name: CELL,
                    start_ns: 400,
                    end_ns: 450,
                },
                Call {
                    name: FULL,
                    start_ns: 500,
                    end_ns: 600,
                },
            ],
        );
        tr.finish_op();
        assert_eq!(tr.totals("op").self_ns, 200);
        assert_eq!(tr.totals("core.search").dur_ns, 800);
        assert_eq!(tr.totals("core.search").self_ns, 550);
        assert_eq!(tr.totals(CELL).dur_ns, 150);
        assert_eq!(tr.totals(CELL).count, 2);
        assert_eq!(tr.totals(FULL).self_ns, 100);
        // Self times of a tree add up to the root's duration.
        let sum: u64 = ["op", "core.search", CELL, FULL]
            .iter()
            .map(|n| tr.totals(n).self_ns)
            .sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn cell_calls_roll_up_to_one_record_per_parent() {
        let mut tr = Tracer::new();
        let root = tr.record(7, "op", None, 0, 100);
        let calls: Vec<Call> = (0..5)
            .map(|i| Call {
                name: CELL,
                start_ns: 10 + i * 10,
                end_ns: 15 + i * 10,
            })
            .collect();
        tr.record_calls(7, root, &calls);
        tr.finish_op();
        let text = tr.to_jsonl();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains(
            "\"name\":\"core.cell\",\"start_ns\":10,\"end_ns\":55,\"count\":5,\"busy_ns\":25"
        ));
        assert!(text.lines().all(|l| l.contains("\"op\":7")));
    }
}
