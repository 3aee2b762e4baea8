//! Verdicts for comparing a parent commit's runs with a change's runs.
//!
//! The rule, per workload and end-to-end metric:
//!
//! * **improved** — the change wins at least nine in ten of the pairs
//!   (parent run *i* against change run *i*; ties count for neither) and
//!   the medians differ, in the better direction, by more than the
//!   parent's own interquartile range;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound (a share of the parent's median);
//! * **unresolved** — the parent's runs spread wider than the bound, so a
//!   difference within that spread cannot be told from noise, unless
//!   every change run is better (or every one worse) than every parent
//!   run;
//! * **unchanged** — anything else.

use crate::stats::{median, quartiles};

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// True when `a` is strictly better than `b`.
    #[must_use]
    pub fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }

    /// How much worse `change` is than `parent`, as a share of `parent`
    /// (negative when it is better).
    #[must_use]
    pub fn worsening(self, parent: f64, change: f64) -> f64 {
        let delta = match self {
            Better::Lower => change - parent,
            Better::Higher => parent - change,
        };
        delta / parent.abs()
    }
}

/// The comparison's outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond noise, by the nine-in-ten pairs rule.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Too noisy to tell at this bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name as printed.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Everything printed for one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Parent's first quartile, median, third quartile.
    pub parent: [f64; 3],
    /// Change's first quartile, median, third quartile.
    pub change: [f64; 3],
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared (the shorter of the two run lists).
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

fn summary(xs: &[f64]) -> Option<[f64; 3]> {
    let m = median(xs)?;
    Some(quartiles(xs).map_or([m, m, m], |[q1, _, q3]| [q1, m, q3]))
}

/// Compares the runs of a parent and a change for one metric with the
/// given bound. `None` when either side has no runs.
#[must_use]
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Comparison> {
    let p = summary(parent)?;
    let c = summary(change)?;
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(&a, &b)| better.is_better(b, a)).count();
    let parent_iqr = p[2] - p[0];
    let spread = parent_iqr / p[1].abs();
    let all_better = change.iter().all(|&b| parent.iter().all(|&a| better.is_better(b, a)));
    let all_worse = change.iter().all(|&b| parent.iter().all(|&a| better.is_better(a, b)));
    let gain = -better.worsening(p[1], c[1]) * p[1].abs();
    let improved = wins * 10 >= pairs * 9 && gain > parent_iqr;
    let worse = better.worsening(p[1], c[1]) > bound;
    let verdict = if spread > bound {
        if improved && all_better {
            Verdict::Improved
        } else if worse && all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if improved {
        Verdict::Improved
    } else if worse {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Some(Comparison { parent: p, change: c, wins, pairs, verdict })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| base * (1.0 + j)).collect()
    }

    const QUIET: [f64; 10] = [0.0, 0.004, -0.003, 0.002, -0.001, 0.003, -0.004, 0.001, 0.0, -0.002];

    #[test]
    fn a_clear_speedup_is_improved() {
        let parent = runs(10.0, &QUIET);
        let change = runs(9.0, &QUIET);
        let c = compare(&parent, &change, Better::Lower, 0.1).unwrap();
        assert_eq!((c.wins, c.pairs, c.verdict), (10, 10, Verdict::Improved));
        // The same numbers for a higher-is-better metric are a regression
        // of 10% — more than a 5% bound.
        let c = compare(&parent, &change, Better::Higher, 0.05).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
    }

    #[test]
    fn a_small_shift_within_the_bound_is_unchanged_not_improved() {
        let parent = runs(10.0, &QUIET);
        // 0.1% faster: wins most pairs but the gain is inside the parent's
        // own spread.
        let change = runs(9.99, &QUIET);
        let c = compare(&parent, &change, Better::Lower, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn eight_wins_in_ten_is_not_enough() {
        let parent = runs(10.0, &QUIET);
        let mut change = runs(9.0, &QUIET);
        change[0] = 11.0;
        change[1] = 11.0;
        let c = compare(&parent, &change, Better::Lower, 0.1).unwrap();
        assert_eq!(c.wins, 8);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_worse() {
        let parent = runs(10.0, &QUIET);
        let change = runs(10.6, &QUIET);
        let c = compare(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
        let c = compare(&parent, &change, Better::Lower, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let noisy = [0.0, 0.2, -0.2, 0.15, -0.15, 0.1, -0.1, 0.05, -0.05, 0.0];
        let parent = runs(10.0, &noisy);
        let change = runs(10.6, &noisy);
        let c = compare(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let change = runs(5.0, &QUIET);
        let c = compare(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!(c.verdict, Verdict::Improved);
    }

    #[test]
    fn empty_sides_give_no_comparison() {
        assert!(compare(&[], &[1.0], Better::Lower, 0.1).is_none());
    }
}
