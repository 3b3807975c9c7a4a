//! The per-layer metrics of a traced run, computed from the spans and
//! counters. Every workload prints every name; a layer a workload does not
//! reach reads 0.

use crate::ops::{Counters, OP};
use crate::report::Report;
use crate::trace::{Tracer, CELL, FULL};

/// Library-layer span names whose self times add up to a traced library
/// call (the root's own self time is the unattributed rest).
const LIBRARY_LAYERS: [&str; 6] = [
    "engine.relation",
    "engine.domains",
    "core.eval_build",
    "core.search",
    CELL,
    FULL,
];

/// Numbers only the served workload has.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    /// Mean `acq_sql::compile` time per request, ms.
    pub compile_ms: f64,
    /// Mean response `duration_ms` per request.
    pub exec_ms: f64,
    /// Mean client latency minus `duration_ms`, ms.
    pub overhead_ms: f64,
    /// `acq_serve_queued_total` after the run.
    pub queued: f64,
    /// `acq_serve_shed_total` after the run.
    pub shed: f64,
    /// `acq_serve_degraded_total` after the run.
    pub degraded: f64,
    /// Journal bytes on disk per request served.
    pub journal_bytes_per_op: f64,
    /// `acq_journal_dropped_total` after the run.
    pub journal_dropped: f64,
    /// Mean traced client latency, ms.
    pub latency_ms: f64,
}

/// The named library layers' self times, summed over every traced call, as
/// a share of those calls' wall time on the separate clock
/// ([`Counters::wall_ns`]), in percent. What the spans miss (the relation
/// twin's own preparation, span bookkeeping, any untraced step) shows as a
/// shortfall.
pub fn library_attributed_pct(tr: &Tracer, c: &Counters) -> f64 {
    let covered: u64 = LIBRARY_LAYERS.iter().map(|n| tr.totals(n).self_ns).sum();
    100.0 * covered as f64 / c.wall_ns.max(1) as f64
}

/// Appends every per-layer metric to `report`.
pub fn report(
    report: &mut Report,
    tr: &Tracer,
    c: &Counters,
    served: Option<&Served>,
    trace_overhead_pct: f64,
) {
    let n = c.ops.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let per_op = |x: u64| x as f64 / n;
    let relation = tr.totals("engine.relation");
    let build = tr.totals("core.eval_build");
    let search = tr.totals("core.search");
    let cells = tr.totals(CELL);
    let fulls = tr.totals(FULL);
    let s = served.copied().unwrap_or_default();

    report.metric("sql.compile_ms", s.compile_ms, "ms");
    report.metric(
        "engine.domains_ms",
        ms(tr.totals("engine.domains").dur_ns),
        "ms",
    );
    report.metric("engine.relation_ms", ms(relation.dur_ns), "ms");
    report.metric("engine.relation_rows", per_op(c.relation_rows), "count");
    report.metric("core.eval_build_ms", ms(build.dur_ns), "ms");
    report.metric(
        "core.eval_layout_ms",
        (build.self_ns as f64 - relation.dur_ns as f64) / 1e6 / n,
        "ms",
    );
    report.metric("core.universe_rows", per_op(c.universe_rows), "count");
    report.metric("core.occupied_cells", per_op(c.occupied_cells), "count");
    report.metric("core.search_ms", ms(search.dur_ns), "ms");
    report.metric("core.explored", per_op(c.explored), "count");
    report.metric("core.layers", per_op(c.layers), "count");
    report.metric("core.peak_store", per_op(c.peak_store), "count");
    report.metric("core.cells_ms", ms(cells.dur_ns), "ms");
    report.metric("core.cell_queries", per_op(cells.count), "count");
    report.metric(
        "core.cells_useful_ratio",
        if c.cell_queries == 0 {
            0.0
        } else {
            (c.cell_queries - c.cells_skipped) as f64 / c.cell_queries as f64
        },
        "ratio",
    );
    report.metric("core.tuples_scanned", per_op(c.tuples_scanned), "count");
    report.metric("core.full_ms", ms(fulls.dur_ns), "ms");
    report.metric("core.full_queries", per_op(fulls.count), "count");
    report.metric("core.explore_self_ms", ms(search.self_ns), "ms");
    report.metric("serve.exec_ms", s.exec_ms, "ms");
    report.metric("serve.overhead_ms", s.overhead_ms, "ms");
    report.metric("serve.queued", s.queued, "count");
    report.metric("serve.shed", s.shed, "count");
    report.metric("serve.degraded", s.degraded, "count");
    report.metric("obs.journal_bytes_per_op", s.journal_bytes_per_op, "bytes");
    report.metric("obs.journal_dropped", s.journal_dropped, "count");
    let latency_ms = match served {
        Some(s) => s.latency_ms,
        None => ms(tr.totals(OP).dur_ns),
    };
    report.metric("trace.latency_ms", latency_ms, "ms");
    report.metric("trace.attributed_pct", library_attributed_pct(tr, c), "%");
    report.metric("trace_overhead_pct", trace_overhead_pct, "%");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_is_measured_against_the_separate_clock() {
        let mut tr = Tracer::new();
        // Twin relation step, then the operation; the root's last 10 ns
        // (teardown) are under no layer.
        tr.record(0, "engine.relation", None, 0, 20);
        let root = tr.record(0, OP, None, 30, 140);
        tr.record(0, "engine.domains", Some(root), 30, 40);
        tr.record(0, "core.eval_build", Some(root), 40, 90);
        let search = tr.record(0, "core.search", Some(root), 90, 130);
        tr.record(0, CELL, Some(search), 100, 110);
        tr.finish_op();
        let c = Counters {
            wall_ns: 160,
            ..Counters::default()
        };
        // 20 + 10 + 50 + (40 - 10) + 10 = 120 of 160 ns.
        assert!((library_attributed_pct(&tr, &c) - 75.0).abs() < 1e-9);
    }
}
