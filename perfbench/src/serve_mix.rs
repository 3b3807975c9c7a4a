//! `serve_mix`: a live in-process `acq-serve` (default configuration plus
//! `--journal`) over a 20k-row TPC-H catalog, driven closed-loop by
//! [`CLIENTS`] HTTP/1.1 keep-alive connections with a mix of COUNT
//! expansions, `<=` contractions (§7.2) and Q2′ `SUM` joins.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use acq_datagen::{tpch, GenConfig};
use acq_engine::{Catalog, Executor, Table};
use acq_query::Norm;
use acq_serve::{ServeConfig, Server};
use acquire_core::{AcquireConfig, ExecutionBudget};

use crate::layers::{self, Served};
use crate::library::check_attribution;
use crate::lineitem::{self, Columns, ALPHAS};
use crate::ops::{self, Counters};
use crate::report::{self, Args, Report};
use crate::trace::Tracer;

/// Closed-loop client connections, one per core of the 2-core reference
/// machine.
pub const CLIENTS: usize = 2;
/// Base row count of the TPC-H catalog (`lineitem` and `partsupp` rows).
const ROWS: usize = 20_000;
/// Server set-ups per end-to-end run, the first [`SETUPS_BEFORE`] before the
/// loop and the rest right after it; `setup_s` is their median. Set-up time
/// moves with the shared host's slow and fast stretches, which last
/// seconds: back to back, all set-ups fell into one stretch. Split, they
/// sample both ends of the measured time.
const SETUPS: usize = 21;
/// Set-ups before the loop; the last one serves it.
const SETUPS_BEFORE: usize = 11;
/// Longest think time a client waits before each request. Responses end on
/// kernel timer ticks (the delayed ACK behind the header/body stall); with
/// no think time the closed loop locks onto those ticks and every latency
/// falls on a tick step. A seeded wait of up to one tick de-phases them.
const THINK_MAX_US: f64 = 4000.0;

/// Root span of one HTTP request, as the client sees it.
const REQUEST: &str = "serve.request";
/// The server's own `duration_ms`, anchored to end at the first response
/// byte.
const EXEC: &str = "serve.exec";

/// The request stream: request `i` is a COUNT expansion when `i % 5` is 0,
/// 1 or 2, a `<=` contraction at 3 and a Q2′ SUM join at 4.
struct Mix {
    lineitem: Columns,
    /// Per `partsupp` row: `p_retailprice`, `s_acctbal`, `ps_availqty`.
    joined: Vec<[f64; 3]>,
    join_sorted: [Vec<f64>; 2],
    shift: [f64; 4],
    seed: u64,
}

impl Mix {
    fn new(catalog: &Catalog, seed: u64) -> Self {
        let table = |n: &str| catalog.table(n).expect("tpch table");
        let col = |t: &Table, c: &str| -> Vec<f64> {
            let data = t.column_by_name(c).expect("column");
            (0..t.num_rows())
                .map(|r| data.get_f64(r).expect("numeric"))
                .collect()
        };
        let (part, supplier, partsupp) = (table("part"), table("supplier"), table("partsupp"));
        let price = col(&part, "p_retailprice");
        let acctbal = col(&supplier, "s_acctbal");
        let pk = col(&partsupp, "ps_partkey");
        let sk = col(&partsupp, "ps_suppkey");
        let qty = col(&partsupp, "ps_availqty");
        // Keys are dense row indexes in the generator.
        let joined: Vec<[f64; 3]> = (0..pk.len())
            .map(|r| [price[pk[r] as usize], acctbal[sk[r] as usize], qty[r]])
            .collect();
        let join_sorted = std::array::from_fn(|k| {
            let mut v: Vec<f64> = joined.iter().map(|row| row[k]).collect();
            v.sort_by(f64::total_cmp);
            v
        });
        Self {
            lineitem: Columns::new(table("lineitem")),
            joined,
            join_sorted,
            shift: std::array::from_fn(|k| lineitem::unit(lineitem::mix(seed ^ (k as u64 + 11)))),
            seed,
        }
    }

    /// Think time before request `i`.
    fn think(&self, i: u64) -> Duration {
        let u = lineitem::unit(lineitem::mix(self.seed.rotate_left(17) ^ i));
        Duration::from_micros((u * THINK_MAX_US) as u64)
    }

    fn at(&self, k: usize, j: u64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * lineitem::weyl(self.shift[k], ALPHAS[k], j)
    }

    /// SQL text of request `i`.
    fn sql(&self, i: u64) -> String {
        let slot = i % 5;
        let j = i / 5 * 3 + slot.min(2);
        match slot {
            0..=2 => {
                let cols = &self.lineitem;
                let bounds: [f64; 3] =
                    std::array::from_fn(|k| round3(cols.bound(k, self.at(k, j, 0.3, 0.7))));
                let actual = cols.count(&bounds).max(1) as f64;
                let target = (actual / self.at(3, j, 0.3, 0.9)).min(cols.rows() as f64 * 0.95);
                format!(
                    "SELECT * FROM lineitem CONSTRAINT COUNT(*) = {} \
                     WHERE l_quantity <= {} AND l_extendedprice <= {} AND l_discount <= {}",
                    target.round(),
                    bounds[0],
                    bounds[1],
                    bounds[2]
                )
            }
            3 => {
                // Two predicates keep the contraction space (§7.2) small.
                let cols = &self.lineitem;
                let (b0, b2) = (
                    round3(cols.bound(0, self.at(0, j, 0.4, 0.8))),
                    round3(cols.bound(2, self.at(2, j, 0.4, 0.8))),
                );
                let actual = cols.count(&[b0, f64::INFINITY, b2]) as f64;
                format!(
                    "SELECT * FROM lineitem CONSTRAINT COUNT(*) <= {} \
                     WHERE l_quantity <= {b0} AND l_discount <= {b2}",
                    (actual * self.at(3, j, 0.3, 0.8)).round()
                )
            }
            _ => {
                let pick = |k: usize, frac: f64| {
                    let s = &self.join_sorted[k];
                    round3(s[((s.len() - 1) as f64 * frac).round() as usize])
                };
                let (b0, b1) = (
                    pick(0, self.at(0, j, 0.3, 0.6)),
                    pick(1, self.at(1, j, 0.3, 0.6)),
                );
                let sum = |b0: f64, b1: f64| -> f64 {
                    self.joined
                        .iter()
                        .filter(|r| r[0] <= b0 && r[1] <= b1)
                        .map(|r| r[2])
                        .sum()
                };
                let actual = sum(b0, b1).max(1.0);
                let reachable = sum(f64::INFINITY, f64::INFINITY) * 0.95;
                let target = (actual / self.at(3, j, 0.4, 0.9)).min(reachable);
                format!(
                    "SELECT * FROM supplier, part, partsupp CONSTRAINT SUM(ps_availqty) >= {} \
                     WHERE (s_suppkey = ps_suppkey) NOREFINE AND (p_partkey = ps_partkey) NOREFINE \
                     AND (p_retailprice <= {b0}) AND (s_acctbal <= {b1})",
                    target.round()
                )
            }
        }
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
struct Reply {
    idx: u64,
    /// Request start, first response byte and last response byte, ns since
    /// the run's epoch.
    start_ns: u64,
    first_ns: u64,
    end_ns: u64,
    /// `acq_sql::compile` twin, ns (traced pass only).
    compile_ns: Option<(u64, u64)>,
    result: Result<Answer, String>,
}

/// The answer-bearing fields of a 200 response.
#[derive(Debug, Clone)]
struct Answer {
    explored: u64,
    satisfied: bool,
    best_bits: Option<u64>,
    duration_ms: f64,
}

impl Answer {
    fn same_answer(&self, o: &Self) -> bool {
        (self.explored, self.satisfied, self.best_bits) == (o.explored, o.satisfied, o.best_bits)
    }
}

/// One keep-alive HTTP/1.1 connection.
struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Self { addr, reader: None }
    }

    /// Sends one request; returns status, body, and the first-byte time.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        epoch: Instant,
    ) -> Result<(u16, String, u64), String> {
        if self.reader.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            self.reader = Some(BufReader::new(s));
        }
        let out = self.exchange(method, path, body, epoch);
        if !matches!(out, Ok((_, _, _, true))) {
            // Closed by the server, or broken: reconnect next time.
            self.reader = None;
        }
        out.map(|(status, body, first, _)| (status, body, first))
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        epoch: Instant,
    ) -> Result<(u16, String, u64, bool), String> {
        let reader = self.reader.as_mut().expect("connected");
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        reader
            .get_mut()
            .write_all(msg.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        reader.fill_buf().map_err(|e| format!("receive: {e}"))?;
        let first = nanos(epoch);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let (mut len, mut keep) = (0usize, true);
        loop {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("receive: {e}"))?;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            let (name, value) = h.split_once(':').unwrap_or((h, ""));
            match name.to_ascii_lowercase().as_str() {
                "content-length" => len = value.trim().parse().map_err(|_| "bad length")?,
                "connection" => keep = !value.trim().eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut buf = vec![0u8; len];
        reader
            .read_exact(&mut buf)
            .map_err(|e| format!("receive body: {e}"))?;
        let body = String::from_utf8(buf).map_err(|_| "body is not UTF-8")?;
        Ok((status, body, first, keep))
    }
}

fn nanos(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn parse_answer(status: u16, body: &str) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let v = acq_obs::json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("response lacks {k}"));
    Ok(Answer {
        explored: field("explored")?.as_u64().ok_or("explored")?,
        satisfied: field("satisfied")?.as_bool().ok_or("satisfied")?,
        best_bits: v
            .pointer("/queries/0/aggregate")
            .and_then(acq_obs::json::JsonValue::as_f64)
            .map(f64::to_bits),
        duration_ms: field("duration_ms")?.as_f64().ok_or("duration_ms")?,
    })
}

/// Which requests a pass sends, and when it stops.
#[derive(Clone, Copy)]
enum Until {
    /// New requests until the time is up.
    Elapsed(Duration),
    /// Requests `0..n`, to replay an earlier pass.
    Count(u64),
}

/// One closed-loop pass over [`CLIENTS`] connections. With a catalog, each
/// request's SQL is also compiled by the client just before it is sent.
fn pass(
    addr: SocketAddr,
    mix: &Mix,
    until: Until,
    epoch: Instant,
    compile_on: Option<&Catalog>,
) -> (Vec<Reply>, Duration) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    loop {
                        let more = match until {
                            Until::Elapsed(d) => start.elapsed() < d,
                            Until::Count(_) => true,
                        };
                        if !more {
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if matches!(until, Until::Count(n) if idx >= n) {
                            break;
                        }
                        let sql = mix.sql(idx);
                        std::thread::sleep(mix.think(idx));
                        let compile_ns = compile_on.map(|catalog| {
                            let a = nanos(epoch);
                            let compiled = acq_sql::compile(&sql, catalog);
                            let b = nanos(epoch);
                            std::hint::black_box(compiled.is_ok());
                            (a, b)
                        });
                        let body = format!("{{\"sql\":\"{}\"}}", json_escape(&sql));
                        let start_ns = nanos(epoch);
                        let got = conn.request("POST", "/query", &body, epoch);
                        let end_ns = nanos(epoch);
                        let (first_ns, result) = match got {
                            Ok((status, body, first)) => (first, parse_answer(status, &body)),
                            Err(e) => (end_ns, Err(e)),
                        };
                        out.push(Reply {
                            idx,
                            start_ns,
                            first_ns,
                            end_ns,
                            compile_ns,
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    replies.sort_by_key(|r| r.idx);
    (replies, wall)
}

/// The configuration `POST /query` builds for a request with no knobs.
fn served_cfg(sc: &ServeConfig) -> AcquireConfig {
    AcquireConfig {
        gamma: sc.gamma,
        delta: sc.delta,
        norm: Norm::L1,
        budget: ExecutionBudget::unlimited().with_deadline(sc.max_deadline),
        ..Default::default()
    }
    .with_threads(1)
}

/// Starts the server the way `acq-serve --journal <dir>/q.journal` does,
/// on an ephemeral port, and returns once it reports ready: the flag
/// `GET /readyz` answers from.
fn start_server(catalog: &Catalog, journal_dir: &Path) -> Result<Server, String> {
    std::fs::create_dir_all(journal_dir).map_err(|e| e.to_string())?;
    let journal = journal_dir.join("q.journal");
    let opts = acq_serve::cli::parse_args(
        [
            "--addr",
            "127.0.0.1:0",
            "--journal",
            journal.to_str().ok_or("journal path is not UTF-8")?,
        ]
        .into_iter()
        .map(String::from),
    )?;
    let server = Server::start(opts.config, catalog.clone()).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.state().is_ready() {
        if Instant::now() > deadline {
            return Err("server never became ready".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(server)
}

/// Checks that `GET /readyz` answers 200. Kept out of the set-up time: the
/// acceptor polls every 10 ms, so the first answer lands 0 or 10 ms late
/// depending on which side of a poll the connection arrives, and that coin
/// flip made `setup_s` bimodal.
fn probe_ready(addr: SocketAddr) -> Result<(), String> {
    match Conn::new(addr).request("GET", "/readyz", "", Instant::now())? {
        (200, _, _) => Ok(()),
        (status, body, _) => Err(format!("GET /readyz answered {status}: {body}")),
    }
}

fn scrape(addr: SocketAddr, name: &str, text: &str) -> Result<f64, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .ok_or_else(|| format!("{name} missing from GET /metrics at {addr}"))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs `serve_mix`.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let journal_root = args.out_dir.join(format!("journal-{}", std::process::id()));
    let out = run_inner(args, &mut report, &journal_root);
    let _ = std::fs::remove_dir_all(&journal_root);
    if let Err(e) = out {
        report.fail(format!("serve_mix: {e}"), true);
    }
    report
}

/// One set-up: generates the catalog and starts a server on it, journaling
/// into `journal_dir`. Returns both and the wall time until the server
/// reported ready, in seconds; `GET /readyz` is probed after the timer.
fn set_up(journal_dir: &Path) -> Result<(Server, Catalog, f64), String> {
    let t = Instant::now();
    let catalog = tpch::generate(&GenConfig {
        rows: ROWS,
        seed: lineitem::DATA_SEED,
        zipf_z: 0.0,
    })
    .map_err(|e| e.to_string())?;
    let server = start_server(&catalog, journal_dir)?;
    let secs = t.elapsed().as_secs_f64();
    probe_ready(server.addr())?;
    Ok((server, catalog, secs))
}

fn run_inner(args: &Args, report: &mut Report, journal_root: &Path) -> Result<(), String> {
    let mut setups_s = Vec::new();
    let mut live: Option<(Server, Catalog)> = None;
    for k in 0..SETUPS_BEFORE {
        if let Some((mut server, _)) = live.take() {
            server.shutdown();
        }
        let (server, catalog, secs) = set_up(&journal_root.join(k.to_string()))?;
        setups_s.push(secs);
        live = Some((server, catalog));
    }
    let (mut server, catalog) = live.expect("at least one set-up");
    let journal_dir = journal_root.join((SETUPS_BEFORE - 1).to_string());
    let addr = server.addr();
    let mix = Mix::new(&catalog, args.seed);
    let cfg = served_cfg(&ServeConfig::default());
    report.notes.push(format!(
        "serve_mix: in-process acq-serve (default config + --journal), TPC-H catalog of \
         {ROWS} base rows, {CLIENTS} closed-loop keep-alive clients, 60% COUNT expansions / \
         20% <= contractions / 20% Q2' SUM joins, GridIndex, threads=1"
    ));

    if !args.trace {
        report::reset_peak_rss();
        let (replies, wall) = pass(
            addr,
            &mix,
            Until::Elapsed(args.seconds),
            Instant::now(),
            None,
        );
        let peak = report::peak_rss_mb();
        server.shutdown();
        for k in SETUPS_BEFORE..SETUPS {
            let (mut extra, _, secs) = set_up(&journal_root.join(k.to_string()))?;
            setups_s.push(secs);
            extra.shutdown();
        }
        let latencies: Vec<f64> = replies
            .iter()
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e6)
            .collect();
        check_replies(report, &replies, &mix, &catalog, &cfg, None);
        report.end_to_end(&latencies, wall, &setups_s, peak);
        return Ok(());
    }

    let (tr, counters, mut served, overhead_pct) =
        traced(args, report, addr, &mix, &catalog, &cfg)?;
    // Dropping the server joins the journal writer, which flushes the file.
    server.shutdown();
    drop(server);
    served.journal_bytes_per_op = dir_bytes(&journal_dir) as f64 / report.attempted.max(1) as f64;
    check_attribution(report, layers::library_attributed_pct(&tr, &counters));
    layers::report(report, &tr, &counters, Some(&served), overhead_pct);
    report.notes.push(format!(
        "share of traced client latency: serve.exec {:.1}%, serve.overhead {:.1}%",
        100.0 * served.exec_ms / served.latency_ms,
        100.0 * served.overhead_ms / served.latency_ms
    ));
    report.trace_jsonl = Some(tr.to_jsonl());
    Ok(())
}

/// Checks each reply against a library run of the same compiled SQL
/// (made here, outside the timed loop), counting failures into `report`.
/// With a tracer, each distinct query is also run traced, which must agree
/// with the untraced library run.
fn check_replies(
    report: &mut Report,
    replies: &[Reply],
    mix: &Mix,
    catalog: &Catalog,
    cfg: &AcquireConfig,
    traced: Option<(&mut Tracer, &mut Counters)>,
) {
    let expected: Vec<Result<Answer, String>> = match traced {
        Some(mut t) => replies
            .iter()
            .map(|r| reference(mix, catalog, cfg, r.idx, Some(&mut t)))
            .collect(),
        None => ops::par_map(replies, |r| reference(mix, catalog, cfg, r.idx, None)),
    };
    for (r, expect) in replies.iter().zip(expected) {
        report.attempted += 1;
        let got = match &r.result {
            Ok(a) => a,
            Err(e) => {
                report.fail(format!("request {}: {e}", r.idx), false);
                continue;
            }
        };
        match expect {
            Ok(expect) if expect.same_answer(got) => {}
            Ok(expect) => report.fail(
                format!("request {}: served {got:?}, library {expect:?}", r.idx),
                true,
            ),
            Err(e) => report.fail(format!("request {}: library run: {e}", r.idx), true),
        }
    }
}

fn reference(
    mix: &Mix,
    catalog: &Catalog,
    cfg: &AcquireConfig,
    idx: u64,
    traced: Option<&mut (&mut Tracer, &mut Counters)>,
) -> Result<Answer, String> {
    let query = acq_sql::compile(&mix.sql(idx), catalog).map_err(|e| e.to_string())?;
    let mut exec = Executor::new(catalog.clone());
    let out = ops::run(&mut exec, &query, cfg)?;
    if let Some((tr, counters)) = traced {
        let split = ops::run_traced(tr, idx, catalog, &query, cfg, counters)?;
        tr.finish_op();
        if ops::answer_key(&split) != ops::answer_key(&out) || split.stats != out.stats {
            return Err("traced library run differs from the untraced one".to_string());
        }
    }
    Ok(Answer {
        explored: out.explored,
        satisfied: out.satisfied,
        best_bits: out.best().map(|b| b.aggregate.to_bits()),
        duration_ms: 0.0,
    })
}

/// The traced run: an untraced pass for half the time, a traced replay of
/// the same requests, then every request's query run through the library
/// both untraced and split into traced layer calls. Returns the spans, the
/// layer counters, the served numbers (journal size still to fill in) and
/// the tracing overhead in percent.
fn traced(
    args: &Args,
    report: &mut Report,
    addr: SocketAddr,
    mix: &Mix,
    catalog: &Catalog,
    cfg: &AcquireConfig,
) -> Result<(Tracer, Counters, Served, f64), String> {
    let mut tr = Tracer::new();
    let epoch = tr.epoch();
    let (plain, _) = pass(addr, mix, Until::Elapsed(args.seconds / 2), epoch, None);
    let n = plain.len() as u64;
    let (replay, _) = pass(addr, mix, Until::Count(n), epoch, Some(catalog));
    report.notes.push(format!("{n} requests per pass"));

    // Client-side spans of the traced replay.
    let (mut exec_ms, mut ok) = (0.0, 0u64);
    for r in &replay {
        if let Some((a, b)) = r.compile_ns {
            tr.record(r.idx, "sql.compile", None, a, b);
        }
        let root = tr.record(r.idx, REQUEST, None, r.start_ns, r.end_ns);
        if let Ok(a) = &r.result {
            let dur = (a.duration_ms * 1e6) as u64;
            tr.record(
                r.idx,
                EXEC,
                Some(root),
                r.first_ns.saturating_sub(dur),
                r.first_ns,
            );
            exec_ms += a.duration_ms;
            ok += 1;
        }
        tr.finish_op();
    }
    for (a, b) in plain.iter().zip(&replay) {
        if let (Ok(x), Ok(y)) = (&a.result, &b.result) {
            if !x.same_answer(y) {
                report.fail(
                    format!("request {}: replay answered differently", a.idx),
                    true,
                );
            }
        }
    }

    let mut counters = Counters::default();
    check_replies(report, &plain, mix, catalog, cfg, None);
    check_replies(
        report,
        &replay,
        mix,
        catalog,
        cfg,
        Some((&mut tr, &mut counters)),
    );

    let text = Conn::new(addr)
        .request("GET", "/metrics", "", epoch)
        .map(|(_, body, _)| body)?;
    let request = tr.totals(REQUEST);
    let reqs = request.count.max(1) as f64;
    let mean = |xs: &[Reply]| {
        xs.iter()
            .map(|r| (r.end_ns - r.start_ns) as f64)
            .sum::<f64>()
            / xs.len().max(1) as f64
    };
    let overhead_pct = 100.0 * (mean(&replay) - mean(&plain)) / mean(&plain);
    let served = Served {
        compile_ms: tr.totals("sql.compile").dur_ns as f64 / 1e6 / reqs,
        exec_ms: exec_ms / ok.max(1) as f64,
        overhead_ms: request.self_ns as f64 / 1e6 / reqs,
        queued: scrape(addr, "acq_serve_queued_total ", &text)?,
        shed: scrape(addr, "acq_serve_shed_total ", &text)?,
        degraded: scrape(addr, "acq_serve_degraded_total ", &text)?,
        journal_bytes_per_op: 0.0,
        journal_dropped: scrape(addr, "acq_journal_dropped_total ", &text)?,
        latency_ms: request.dur_ns as f64 / 1e6 / reqs,
    };
    Ok((tr, counters, served, overhead_pct))
}
