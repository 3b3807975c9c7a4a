//! One operation (one ACQ) run two ways: untraced, through the same public
//! entry points the server uses, and traced, split into its layer calls so
//! each can be timed from outside.

use acq_engine::{Catalog, Executor};
use acq_query::{AcqQuery, CmpOp};
use acquire_core::{
    acquire, contract_with, contraction_query, run_acquire, run_contraction_with, AcqOutcome,
    AcquireConfig, CancellationToken, EvalLayerKind, GridIndexEvaluator, RefinedSpace,
};

use crate::trace::{Call, TimedLayer, Tracer};

/// The layer every workload runs: the `acq-serve` and `reproduce` default.
pub const LAYER: EvalLayerKind = EvalLayerKind::GridIndex;

/// Root span of one library operation.
pub const OP: &str = "op";

/// Runs `query` the way `POST /query` does: `<`/`<=` constraints contract
/// (§7.2); anything else expands, and an `=` whose original already
/// overshoots falls through to contraction.
pub fn run(
    exec: &mut Executor,
    query: &AcqQuery,
    cfg: &AcquireConfig,
) -> Result<AcqOutcome, String> {
    let cancel = CancellationToken::new();
    match query.constraint.op {
        CmpOp::Le | CmpOp::Lt => run_contraction_with(exec, query, cfg, LAYER, &cancel),
        _ => run_acquire(exec, query, cfg, LAYER).map(|expanded| {
            if falls_through(query, &expanded) {
                run_contraction_with(exec, query, cfg, LAYER, &cancel).unwrap_or(expanded)
            } else {
                expanded
            }
        }),
    }
    .map_err(|e| e.to_string())
}

fn falls_through(query: &AcqQuery, expanded: &AcqOutcome) -> bool {
    !expanded.satisfied
        && query.constraint.op == CmpOp::Eq
        && expanded.original_aggregate > query.constraint.target
}

/// Counts read off the layers during traced operations, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Traced operations.
    pub ops: u64,
    /// Rows of the base relations materialised.
    pub relation_rows: u64,
    /// `universe_size()` of the evaluators built.
    pub universe_rows: u64,
    /// `occupied_cells()` of the evaluators built.
    pub occupied_cells: u64,
    /// `AcqOutcome::explored`.
    pub explored: u64,
    /// `AcqOutcome::layers`.
    pub layers: u64,
    /// `AcqOutcome::peak_store`.
    pub peak_store: u64,
    /// `ExecStats::cell_queries`.
    pub cell_queries: u64,
    /// `ExecStats::cells_skipped`.
    pub cells_skipped: u64,
    /// `ExecStats::tuples_scanned`.
    pub tuples_scanned: u64,
    /// Wall time of the [`run_traced`] calls, read on a clock of its own
    /// around each whole call, not from the spans.
    pub wall_ns: u64,
}

/// [`run`] split into its layer calls, each recorded as a span of
/// operation `op`:
///
/// * `op` (root): from the first call to the returned outcome, the
///   evaluator's teardown included, as inside `run_acquire`;
///   * `engine.domains`: `populate_domains` and the refined space;
///   * `core.eval_build`: `GridIndexEvaluator::with_threads`;
///   * `core.search`: `acquire` (or `contract_with`) over a
///     [`TimedLayer`], whose calls become `core.cell`/`core.full` children.
/// * `engine.relation`: `Executor::resolve` + `base_relation` on the same
///   query and caps, on a separate executor just before the operation. The
///   build makes the same two calls internally, where they cannot be timed
///   from outside; this twin measures them, and the build's layout time is
///   its self time minus the twin.
///
/// The whole call is also timed on a separate clock into
/// [`Counters::wall_ns`], so the spans can be checked against it. The
/// per-call spans are handed to the tracer after that clock stops: storing
/// them is the tracer's cost, not the operation's.
pub fn run_traced(
    tr: &mut Tracer,
    op: u64,
    catalog: &Catalog,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    counters: &mut Counters,
) -> Result<AcqOutcome, String> {
    let wall = std::time::Instant::now();
    let mut calls = Vec::new();
    let out = run_split(tr, op, catalog, query, cfg, counters, &mut calls);
    counters.wall_ns += u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
    for (search, calls) in calls {
        tr.record_calls(op, search, &calls);
    }
    out
}

/// Layer calls captured under one `core.search` span, by that span's id.
type SearchCalls = Vec<(u64, Vec<Call>)>;

fn run_split(
    tr: &mut Tracer,
    op: u64,
    catalog: &Catalog,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    counters: &mut Counters,
    calls: &mut SearchCalls,
) -> Result<AcqOutcome, String> {
    let contract = matches!(query.constraint.op, CmpOp::Le | CmpOp::Lt);
    let (expanded, first) = traced_search(tr, op, catalog, query, cfg, contract, counters)?;
    calls.push(first);
    if !contract && falls_through(query, &expanded) {
        return Ok(
            match traced_search(tr, op, catalog, query, cfg, true, counters) {
                Ok((contracted, second)) => {
                    calls.push(second);
                    contracted
                }
                Err(_) => expanded,
            },
        );
    }
    Ok(expanded)
}

fn traced_search(
    tr: &mut Tracer,
    op: u64,
    catalog: &Catalog,
    query: &AcqQuery,
    cfg: &AcquireConfig,
    contract: bool,
    counters: &mut Counters,
) -> Result<(AcqOutcome, (u64, Vec<Call>)), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // Twin of the relation step inside the build.
    {
        let mut exec = Executor::new(catalog.clone());
        let (space_query, _) = prepare(&mut exec, query, contract)?;
        let space = RefinedSpace::new(&space_query, cfg).map_err(|e| err(&e))?;
        let caps = space.caps();
        let start = tr.now();
        let rq = exec.resolve(&space_query).map_err(|e| err(&e))?;
        let rel = exec.base_relation(&rq, &caps).map_err(|e| err(&e))?;
        let end = tr.now();
        counters.relation_rows += rel.len() as u64;
        tr.record(op, "engine.relation", None, start, end);
    }

    let mut exec = Executor::new(catalog.clone());
    let t0 = tr.now();
    let (space_query, query) = prepare(&mut exec, query, contract)?;
    let space = RefinedSpace::new(&space_query, cfg).map_err(|e| err(&e))?;
    let caps = space.caps();
    if !contract {
        exec.set_zone_pruning(cfg.zone_pruning);
    }
    let t1 = tr.now();
    let mut eval =
        GridIndexEvaluator::with_threads(&mut exec, &space_query, &caps, space.step(), cfg.threads)
            .map_err(|e| err(&e))?;
    let t2 = tr.now();
    let mut calls: Vec<Call> = Vec::new();
    let outcome = {
        let mut layer = TimedLayer::new(&mut eval, tr.epoch(), &mut calls);
        if contract {
            contract_with(&mut layer, &query, cfg, &CancellationToken::new())
        } else {
            acquire(&mut layer, &query, cfg)
        }
    };
    let t3 = tr.now();
    let universe_rows = acquire_core::EvaluationLayer::universe_size(&eval) as u64;
    let occupied_cells = eval.occupied_cells() as u64;
    drop(eval);
    let t4 = tr.now();
    let outcome = outcome.map_err(|e| err(&e))?;

    let root = tr.record(op, OP, None, t0, t4);
    tr.record(op, "engine.domains", Some(root), t0, t1);
    tr.record(op, "core.eval_build", Some(root), t1, t2);
    let search = tr.record(op, "core.search", Some(root), t2, t3);

    counters.universe_rows += universe_rows;
    counters.occupied_cells += occupied_cells;

    counters.ops += 1;
    counters.explored += outcome.explored;
    counters.layers += outcome.layers;
    counters.peak_store += outcome.peak_store as u64;
    counters.cell_queries += outcome.stats.cell_queries;
    counters.cells_skipped += outcome.stats.cells_skipped;
    counters.tuples_scanned += outcome.stats.tuples_scanned;
    Ok((outcome, (search, calls)))
}

/// Populates domains as `run_acquire` / `run_contraction_with` do. Returns
/// the query the refined space is built over (the contraction query when
/// contracting) and the populated original.
fn prepare(
    exec: &mut Executor,
    query: &AcqQuery,
    contract: bool,
) -> Result<(AcqQuery, AcqQuery), String> {
    let mut query = query.clone();
    exec.populate_domains(&mut query)
        .map_err(|e| e.to_string())?;
    let space_query = if contract {
        contraction_query(&query).map_err(|e| e.to_string())?
    } else {
        query.clone()
    };
    Ok((space_query, query))
}

/// Threads that run the after-the-loop checks.
const CHECK_THREADS: usize = 2;

/// `items.iter().map(f)` on [`CHECK_THREADS`] threads, in order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunk = items.len().div_ceil(CHECK_THREADS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    })
}

/// The answer-bearing fields two runs of one query must agree on, with
/// floats as bit patterns.
pub fn answer_key(o: &AcqOutcome) -> (u64, bool, u64, String, Vec<u64>) {
    let mut bits = Vec::new();
    if let Some(b) = o.best() {
        bits.extend(b.pscores.iter().map(|p| p.to_bits()));
        bits.push(b.aggregate.to_bits());
        bits.push(b.error.to_bits());
    }
    (
        o.explored,
        o.satisfied,
        o.layers,
        o.termination.slug().to_string(),
        bits,
    )
}

/// The library correctness check for an expansion outcome: a satisfied outcome's error is within
/// `delta`, the search ran to completion, and the best answer's aggregate
/// equals, bit for bit, `Executor::full_aggregate` at its pscores.
pub fn check_outcome(
    catalog: &Catalog,
    query: &AcqQuery,
    outcome: &AcqOutcome,
    delta: f64,
) -> Result<(), String> {
    if outcome.is_interrupted() {
        return Err(format!(
            "search interrupted: {}",
            outcome.termination.slug()
        ));
    }
    let Some(best) = outcome.best() else {
        return if outcome.satisfied {
            Err("satisfied outcome without an answer".to_string())
        } else {
            Ok(())
        };
    };
    if outcome.satisfied && (best.error.is_nan() || best.error > delta) {
        return Err(format!(
            "satisfied with error {} > delta {delta}",
            best.error
        ));
    }
    let mut exec = Executor::new(catalog.clone());
    let mut q = query.clone();
    exec.populate_domains(&mut q).map_err(|e| e.to_string())?;
    let rq = exec.resolve(&q).map_err(|e| e.to_string())?;
    let rel = exec
        .base_relation(&rq, &best.pscores)
        .map_err(|e| e.to_string())?;
    let recomputed = exec
        .full_aggregate(&rq, &rel, &best.pscores)
        .map_err(|e| e.to_string())?
        .value();
    match recomputed {
        Some(v) if v.to_bits() == best.aggregate.to_bits() => Ok(()),
        other => Err(format!(
            "best aggregate {} but full_aggregate at pscores {:?} gives {other:?}",
            best.aggregate, best.pscores
        )),
    }
}
