//! Exact rank oracle. Every workload keeps its inserted multiset as sorted
//! `Vec<u64>` pieces outside the timed region and checks each answer
//! against the exact ranks of the returned value after timing ends.

/// `(lt, le)`: items of sorted `xs` strictly below `v`, and at or below it.
pub fn counts(xs: &[u64], v: u64) -> (u64, u64) {
    let lt = xs.partition_point(|&x| x < v);
    let le = lt + xs[lt..].partition_point(|&x| x <= v);
    (lt as u64, le as u64)
}

/// `(lt, le)` summed over several sorted pieces of one multiset.
pub fn counts_in<'a>(pieces: impl IntoIterator<Item = &'a [u64]>, v: u64) -> (u64, u64) {
    pieces.into_iter().fold((0, 0), |(a, b), xs| {
        let (lt, le) = counts(xs, v);
        (a + lt, b + le)
    })
}

/// `(lt, le)` of `v` in an unsorted slice (small live tails).
pub fn counts_unsorted(xs: &[u64], v: u64) -> (u64, u64) {
    xs.iter().fold((0, 0), |(lt, le), &x| {
        (lt + u64::from(x < v), le + u64::from(x <= v))
    })
}

/// One answer to check: the value returned for 1-based target rank
/// `target`, the rank interval the program claimed for it (`None` for
/// value-only answers), and the stream size `m` the error bound scales
/// with.
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    pub value: u64,
    pub target: u64,
    pub interval: Option<(u64, u64)>,
    pub m: u64,
}

/// Worst observed error and the count of violations.
#[derive(Default, Clone, Copy, Debug)]
pub struct Verdict {
    pub checked: u64,
    pub violations: u64,
    /// Largest |true rank − target| / (ε·m) seen.
    pub worst_err_eps_m: f64,
}

impl Verdict {
    /// Check `a` given the exact `(lt, le)` counts of its value. The true
    /// ranks of a value present in the multiset are `lt + 1 ..= le`; a
    /// value between items has the single rank `le` (items at or below
    /// it). Every answer must lie within `ε·m + 1` ranks of the target
    /// (Theorem 2, plus rounding of `⌈φN⌉`), and a claimed interval must
    /// also intersect the true ranks.
    pub fn check(&mut self, a: &Answer, (lt, le): (u64, u64), epsilon: f64) {
        let (true_lo, true_hi) = ((lt + 1).min(le), le);
        let err = if a.target < true_lo {
            true_lo - a.target
        } else {
            a.target.saturating_sub(true_hi)
        };
        let eps_m = epsilon * a.m as f64;
        let honest = a
            .interval
            .is_none_or(|(lo, hi)| lo <= true_hi && hi >= true_lo);
        let ok = honest && err as f64 <= eps_m + 1.0;
        self.checked += 1;
        if !ok {
            self.violations += 1;
        }
        if eps_m > 0.0 {
            self.worst_err_eps_m = self.worst_err_eps_m.max(err as f64 / eps_m);
        }
    }
}

/// Sorted copy of `xs`.
pub fn sorted(xs: &[u64]) -> Vec<u64> {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_cover_duplicates() {
        let xs = [1, 2, 2, 2, 5];
        assert_eq!(counts(&xs, 2), (1, 4));
        assert_eq!(counts(&xs, 3), (4, 4));
        assert_eq!(counts_unsorted(&[5, 2, 1, 2, 2], 2), (1, 4));
    }

    #[test]
    fn verdict_flags_misses() {
        let mut v = Verdict::default();
        let a = Answer {
            value: 2,
            target: 3,
            interval: Some((3, 3)),
            m: 100,
        };
        v.check(&a, (1, 4), 0.01);
        assert_eq!(v.violations, 0);
        let far = Answer {
            value: 2,
            target: 9,
            interval: Some((8, 10)),
            m: 100,
        };
        v.check(&far, (1, 4), 0.01);
        assert_eq!(v.violations, 1);
        assert!((v.worst_err_eps_m - 5.0).abs() < 1e-9);
    }

    #[test]
    fn verdict_bounds_interval_answers_by_eps_m() {
        let mut v = Verdict::default();
        // The claimed interval holds the true ranks 2..=4, but the target
        // is 3 ranks away with ε·m = 1: the answer is still wrong.
        let wide = Answer {
            value: 2,
            target: 7,
            interval: Some((1, 10)),
            m: 100,
        };
        v.check(&wide, (1, 4), 0.01);
        assert_eq!(v.violations, 1);
        // Within ε·m + 1 of the target, with an honest interval: fine.
        let near = Answer { target: 6, ..wide };
        v.check(&near, (1, 4), 0.01);
        assert_eq!(v.violations, 1);
    }
}
