//! Summary statistics and span arithmetic, kept free of I/O so the rules
//! the metrics rest on are unit-tested.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// How many samples must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples ranked above `value` (ties are split by rank).
    pub beyond: usize,
}

/// Picks the sample of rank `n - 1 - TAIL_BEYOND` (0-based, ascending), so
/// exactly [`TAIL_BEYOND`] samples rank above it. With fewer than
/// `TAIL_BEYOND + 1` samples no percentile qualifies; the maximum is
/// returned with `beyond == 0` so the caller can see the rule was not met.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let (rank, beyond) = if n > TAIL_BEYOND {
        (n - 1 - TAIL_BEYOND, TAIL_BEYOND)
    } else {
        (n - 1, 0)
    };
    Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
        beyond,
    }
}

/// Nanoseconds of `parent` that its `children` cover. Children are clipped
/// to the parent interval and overlaps are counted once. Intervals are
/// half-open `[start, end)`.
pub fn covered_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| s < e)
        .collect();
    // Serial callers record children in start order; sorting is then a
    // single pass.
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    parent.1.saturating_sub(parent.0) - covered_ns(parent, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert_eq!(t.percentile, 90.0);
        let above = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(above, TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
        // Eleven samples: the minimum is the only rank with ten beyond.
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (0.0, 10));
    }

    #[test]
    fn tail_is_order_independent_and_counts_ties_by_rank() {
        let mut xs = vec![5.0; 30];
        xs[0] = 1.0;
        let t = tail(&xs);
        assert_eq!(t.value, 5.0);
        assert_eq!(t.beyond, 10);
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev), t);
    }

    #[test]
    fn tail_with_too_few_samples_reports_the_maximum_and_no_beyond() {
        let t = tail(&[3.0, 9.0, 1.0]);
        assert_eq!((t.value, t.beyond, t.samples), (9.0, 0, 3));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_ns((0, 100), &[(10, 20), (30, 50)]), 70);
        assert_eq!(self_ns((0, 100), &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(covered_ns((0, 100), &[(10, 40), (30, 60), (35, 50)]), 50);
        assert_eq!(self_ns((0, 100), &[(30, 60), (10, 40)]), 50);
        // Touching intervals merge without double counting.
        assert_eq!(covered_ns((0, 100), &[(10, 20), (20, 30)]), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(covered_ns((10, 20), &[(0, 15), (18, 40)]), 7);
        assert_eq!(self_ns((10, 20), &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_ns((10, 20), &[(0, 40)]), 0);
    }
}
