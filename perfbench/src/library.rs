//! The library workloads: serial `run_acquire` calls over one `lineitem`
//! table, `fig10_1m` (set-up-bound) and `skew_100k` (search-bound).

use std::time::{Duration, Instant};

use acq_engine::{Catalog, Executor};
use acq_query::{AcqQuery, CmpOp};
use acquire_core::AcquireConfig;

use crate::layers;
use crate::lineitem::{self, Columns, ALPHAS};
use crate::ops::{self, Counters, OP};
use crate::report::{self, Args, Report};
use crate::trace::{Tracer, CELL};

/// One library workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// `lineitem` rows.
    pub rows: usize,
    /// Zipf skew of the data (0 = uniform).
    pub zipf_z: f64,
    /// Range of the aggregate ratio `A_actual / A_exp` across queries.
    pub ratio: (f64, f64),
    /// Range of each predicate's initial selectivity across queries.
    pub frac: (f64, f64),
    /// Set-ups per end-to-end run: one before the first operation, the
    /// rest spread evenly over the measured time. `setup_s` is their median.
    /// Spread out, they meet the same host conditions as the operations;
    /// back to back, they all fell into one slow or fast stretch of a
    /// shared host, and the median jumped with it.
    pub setups: usize,
}

/// Set-up-bound: building the evaluator over 1M rows dominates each query.
pub const FIG10_1M: Spec = Spec {
    name: "fig10_1m",
    rows: 1_000_000,
    zipf_z: 0.0,
    ratio: (0.2, 0.9),
    frac: (0.3, 0.7),
    setups: 21,
};

/// Search-bound: Zipf data and ratios near 0.3 make Explore walk some 10⁵
/// mostly empty cells per query.
pub const SKEW_100K: Spec = Spec {
    name: "skew_100k",
    rows: 100_000,
    zipf_z: 1.0,
    ratio: (0.29, 0.31),
    frac: (0.44, 0.46),
    setups: 21,
};

/// The workload's tables and the benchmark's view of them.
struct Data {
    catalog: Catalog,
    cols: Columns,
}

impl Data {
    /// One set-up: generates the tables with the program's generator.
    /// Returns them and the generator's wall time in seconds.
    fn set_up(spec: &Spec) -> (Self, f64) {
        let t = Instant::now();
        let catalog = lineitem::generate(spec.rows, spec.zipf_z);
        let secs = t.elapsed().as_secs_f64();
        let cols = Columns::new(catalog.table("lineitem").expect("lineitem"));
        (Self { catalog, cols }, secs)
    }
}

/// Query `i` of the workload's stream for one seed.
struct Queries<'a> {
    spec: &'a Spec,
    shift: [f64; 4],
}

impl<'a> Queries<'a> {
    fn new(spec: &'a Spec, seed: u64) -> Self {
        let shift = std::array::from_fn(|k| lineitem::unit(lineitem::mix(seed ^ (k as u64 + 1))));
        Self { spec, shift }
    }

    fn query(&self, cols: &Columns, i: u64) -> AcqQuery {
        let at = |k: usize, (lo, hi): (f64, f64)| {
            lo + (hi - lo) * lineitem::weyl(self.shift[k], ALPHAS[k], i)
        };
        let bounds: [f64; 3] = std::array::from_fn(|k| cols.bound(k, at(k, self.spec.frac)));
        let ratio = at(3, self.spec.ratio);
        let actual = cols.count(&bounds).max(1) as f64;
        let reachable = cols.rows() as f64 * 0.95;
        let target = (actual / ratio).min(reachable).round();
        lineitem::count_query(cols, &bounds, CmpOp::Eq, target)
    }
}

/// Runs a library workload.
pub fn run(spec: &Spec, args: &Args) -> Report {
    let mut report = Report::new();
    let (mut data, first_setup_s) = Data::set_up(spec);
    let queries = Queries::new(spec, args.seed);
    let cfg = AcquireConfig::default();
    report.notes.push(format!(
        "{}: {} rows of lineitem (zipf z={}), COUNT with 3 flexible predicates, ratio {:?}, \
         initial selectivity {:?}, GridIndex, threads={}",
        spec.name, spec.rows, spec.zipf_z, spec.ratio, spec.frac, cfg.threads
    ));

    if args.trace {
        traced(&data, &queries, &cfg, args, &mut report);
        return report;
    }

    let mut setups_s = vec![first_setup_s];
    let mut latencies = Vec::new();
    let mut done: Vec<(AcqQuery, acquire_core::AcqOutcome)> = Vec::new();
    let mut peak_mb = 0.0f64;
    // Measured time: the loop's wall time without the repeated set-ups.
    let mut busy = Duration::ZERO;
    let mut i = 0u64;
    while i == 0 || busy < args.seconds {
        let due = args
            .seconds
            .mul_f64(setups_s.len() as f64 / spec.setups as f64);
        if setups_s.len() < spec.setups && busy >= due {
            // The generator is deterministic, so the new tables equal the
            // old ones; the old ones go first so only one copy is resident.
            drop(data);
            let (fresh, secs) = Data::set_up(spec);
            data = fresh;
            setups_s.push(secs);
        }
        let started = Instant::now();
        let q = queries.query(&data.cols, i);
        i += 1;
        report.attempted += 1;
        let mut exec = Executor::new(data.catalog.clone());
        report::reset_peak_rss();
        let t = Instant::now();
        let out = ops::run(&mut exec, &q, &cfg);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        peak_mb = peak_mb.max(report::peak_rss_mb());
        match out {
            Ok(o) => done.push((q, o)),
            Err(e) => report.fail(format!("query {}: {e}", i - 1), false),
        }
        busy += started.elapsed();
    }
    let checks = ops::par_map(&done, |(q, o)| {
        ops::check_outcome(&data.catalog, q, o, cfg.delta)
    });
    for (k, check) in checks.into_iter().enumerate() {
        if let Err(e) = check {
            report.fail(format!("check of operation {k}: {e}"), true);
        }
    }
    report.end_to_end(&latencies, busy, &setups_s, peak_mb);
    report
}

/// The traced run: every operation runs untraced and traced (alternating
/// which goes first), the two must agree bit for bit, and the traced one
/// feeds the spans.
fn traced(data: &Data, queries: &Queries, cfg: &AcquireConfig, args: &Args, report: &mut Report) {
    let catalog = &data.catalog;
    let mut tr = Tracer::new();
    let mut counters = Counters::default();
    let (mut plain_ns, mut traced_ns) = (0u128, 0u128);
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed() < args.seconds {
        let q = queries.query(&data.cols, i);
        report.attempted += 1;
        let plain = || {
            let mut exec = Executor::new(catalog.clone());
            let t = Instant::now();
            let out = ops::run(&mut exec, &q, cfg);
            (out, t.elapsed().as_nanos())
        };
        let traced_run = |tr: &mut Tracer, counters: &mut Counters| {
            let before = tr.totals(OP).dur_ns;
            let out = ops::run_traced(tr, i, catalog, &q, cfg, counters);
            tr.finish_op();
            (out, u128::from(tr.totals(OP).dur_ns - before))
        };
        let ((a, a_ns), (b, b_ns)) = if i.is_multiple_of(2) {
            let a = plain();
            (a, traced_run(&mut tr, &mut counters))
        } else {
            let b = traced_run(&mut tr, &mut counters);
            (plain(), b)
        };
        plain_ns += a_ns;
        traced_ns += b_ns;
        match (a, b) {
            (Ok(a), Ok(b)) => {
                if ops::answer_key(&a) != ops::answer_key(&b) || a.stats != b.stats {
                    report.fail(
                        format!("operation {i}: traced run differs from run_acquire"),
                        true,
                    );
                } else if let Err(e) = ops::check_outcome(catalog, &q, &a, cfg.delta) {
                    report.fail(format!("check of operation {i}: {e}"), true);
                }
            }
            (Err(e), _) | (_, Err(e)) => report.fail(format!("query {i}: {e}"), false),
        }
        i += 1;
    }
    if tr.totals(CELL).count != counters.cell_queries {
        report.fail(
            format!(
                "timing wrapper saw {} cell calls, ExecStats counted {}",
                tr.totals(CELL).count,
                counters.cell_queries
            ),
            true,
        );
    }
    let overhead = 100.0 * (traced_ns as f64 - plain_ns as f64) / plain_ns.max(1) as f64;
    layers::report(report, &tr, &counters, None, overhead);
    check_attribution(report, layers::library_attributed_pct(&tr, &counters));
    shares(report, &tr);
    report.trace_jsonl = Some(tr.to_jsonl());
}

/// Fails the run when the named layers' self times stray by more than a few
/// percent from the traced calls' wall time on the separate clock.
pub fn check_attribution(report: &mut Report, pct: f64) {
    if !(95.0..=105.0).contains(&pct) {
        report.fail(
            format!("per-layer self times cover {pct:.2}% of the traced calls' wall time"),
            true,
        );
    }
}

/// Notes each library layer's share of traced latency.
pub fn shares(report: &mut Report, tr: &Tracer) {
    let op = tr.totals(OP).dur_ns.max(1) as f64;
    let pct = |ns: u64| 100.0 * ns as f64 / op;
    report.notes.push(format!(
        "share of traced latency: eval_build {:.1}% (relation twin {:.1}%), search {:.1}% \
         = explore_self {:.1}% + cells {:.1}% + full {:.1}%",
        pct(tr.totals("core.eval_build").dur_ns),
        pct(tr.totals("engine.relation").dur_ns),
        pct(tr.totals("core.search").dur_ns),
        pct(tr.totals("core.search").self_ns),
        pct(tr.totals(CELL).dur_ns),
        pct(tr.totals(crate::trace::FULL).dur_ns),
    ));
}
