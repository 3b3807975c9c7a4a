//! The result of one benchmark run and how it is printed.

use std::fmt::Write as _;
use std::time::Duration;

use crate::stats::{self, Tail};

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory for the span trace file and the server journal.
    pub out_dir: std::path::PathBuf,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed a check.
    pub failed: u64,
    /// False when any output failed a correctness check.
    pub correct: bool,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
    /// Span trace (JSON lines) of a traced run.
    pub trace_jsonl: Option<String>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one failed operation; `incorrect` also marks the run as
    /// having produced a wrong answer.
    pub fn fail(&mut self, what: String, incorrect: bool) {
        self.failed += 1;
        if incorrect {
            self.correct = false;
        }
        if self
            .notes
            .iter()
            .filter(|n| n.starts_with("FAILED"))
            .count()
            < 20
        {
            self.notes.push(format!("FAILED {what}"));
        }
    }

    /// The end-to-end metrics every workload reports, from per-operation
    /// latencies, the loop's wall time, the set-up times and the memory
    /// high-water mark.
    pub fn end_to_end(
        &mut self,
        latencies_ms: &[f64],
        wall: Duration,
        setups_s: &[f64],
        peak_rss_mb: f64,
    ) {
        let tail: Tail = stats::tail(latencies_ms);
        let failed_frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.metric("setup_s", stats::median(setups_s), "s");
        self.metric("latency_p50_ms", stats::median(latencies_ms), "ms");
        self.metric("latency_tail_ms", tail.value, "ms");
        self.metric(
            "throughput_qps",
            (self.attempted - self.failed) as f64 / wall.as_secs_f64(),
            "1/s",
        );
        self.metric("success_frac", 1.0 - failed_frac, "ratio");
        self.metric("peak_rss_mb", peak_rss_mb, "MB");
        self.notes.push(format!(
            "setup_s is the median of {} set-ups: {:?}",
            setups_s.len(),
            setups_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
        ));
        self.notes.push(format!(
            "latency_tail_ms is p{:.2} of {} operations ({} beyond it)",
            tail.percentile, tail.samples, tail.beyond
        ));
        self.notes.push(format!(
            "failed_frac {failed_frac} ratio ({} of {} operations failed; \
             success_frac is its complement)",
            self.failed, self.attempted
        ));
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let value = if x.value.is_finite() {
                format!("{}", x.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Prints the notes, one aligned line per metric, then the JSON line.
    pub fn print(&self, args: &Args) {
        println!(
            "workload {} seed {} ({} run, {:.0} s)",
            args.workload,
            args.seed,
            if args.trace { "traced" } else { "end-to-end" },
            args.seconds.as_secs_f64()
        );
        for n in &self.notes {
            println!("  {n}");
        }
        for x in &self.metrics {
            println!("  {:<28} {:>16.6} {}", x.name, x.value, x.unit);
        }
        println!("{}", self.json());
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the high-water mark to the current resident set, so the peak
/// read afterwards covers only what runs after the reset, not set-up.
/// Linux only; elsewhere the peak includes set-up.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::new();
        r.attempted = 4;
        r.metric("latency_p50_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        let v = acq_obs::json::parse(&r.json()).unwrap();
        let obj = v.as_obj().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            v.pointer("/metrics/latency_p50_ms/value").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(
            v.pointer("/metrics/setup_s/unit").unwrap().as_str(),
            Some("s")
        );
    }

    #[test]
    fn failures_count_and_only_wrong_answers_mark_incorrect() {
        let mut r = Report::new();
        r.fail("refused".into(), false);
        assert!(r.correct);
        r.fail("mismatch".into(), true);
        assert!(!r.correct);
        assert_eq!(r.failed, 2);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
