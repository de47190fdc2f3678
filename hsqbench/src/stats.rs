//! Sample sets and the summary statistics the report is built from.
//!
//! A run is a sequence of epochs. A *trial* is the smallest run of
//! consecutive epochs holding enough samples for at least ten of them to
//! lie beyond the percentile reported. A reported median is the median
//! over trials of the median within each trial (rates: the median over
//! epochs), so a spell of machine noise that slows a few epochs moves one
//! trial's figure, not the reported one.
//!
//! A reported tail percentile (p95, p99) is the low decile over trials of
//! the percentile within each trial. On a shared host, spells of CPU
//! steal and I/O contention lasting seconds multiply tail latencies while
//! barely moving medians, and they can fill most of a run: the median
//! trial's tail then measures the host. The low decile is the tail of the
//! run's quiet stretches. A change to the program that moves tails moves
//! it in every trial and so moves this figure; a stall that hits fewer
//! than nine trials in ten does not show in it.

use std::time::Duration;

/// Timing samples of one operation kind, in seconds, with the epoch
/// boundaries they were taken in.
#[derive(Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    /// End offsets into `values` of the finished epochs.
    epochs: Vec<usize>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.values.push(d.as_secs_f64());
    }

    pub fn push_secs(&mut self, s: f64) {
        self.values.push(s);
    }

    /// Close the current epoch.
    pub fn mark(&mut self) {
        self.epochs.push(self.values.len());
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Samples since the last [`Samples::mark`].
    pub fn since_mark(&self) -> usize {
        self.values.len() - self.epochs.last().copied().unwrap_or(0)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100) over all samples; 0 for an
    /// empty set.
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.values, p)
    }

    /// The per-trial percentile `p` over the run's trials: their median
    /// for a median, their low decile for a tail (see the module docs);
    /// the plain percentile when the samples make one trial.
    pub fn trial_pct(&self, p: f64) -> f64 {
        let figures: Vec<f64> = self.trials(p).iter().map(|t| percentile(t, p)).collect();
        percentile(&figures, if p > 50.0 { TAIL_OVER_TRIALS } else { 50.0 })
    }

    /// Number of trials behind [`Samples::trial_pct`].
    pub fn trial_count(&self, p: f64) -> usize {
        self.trials(p).len()
    }

    fn trials(&self, p: f64) -> Vec<&[f64]> {
        let need = min_samples(p);
        let n = self.values.len();
        let mut ends = Vec::new();
        let mut start = 0;
        for &end in self.epochs.iter().chain([&n]) {
            if end - start >= need {
                ends.push(end);
                start = end;
            }
        }
        // Trailing epochs too few for a trial of their own join the last.
        match ends.last_mut() {
            Some(last) => *last = n,
            None => ends.push(n),
        }
        let mut from = 0;
        ends.iter()
            .map(|&end| {
                let t = &self.values[from..end];
                from = end;
                t
            })
            .collect()
    }

    /// How many samples lie beyond the `p`-th percentile by rank in the
    /// smallest trial: the count the "at least ten samples beyond it" rule
    /// looks at.
    pub fn rank_beyond(&self, p: f64) -> usize {
        self.trials(p)
            .iter()
            .map(|t| t.len() - nearest_rank(t.len(), p).min(t.len()))
            .min()
            .unwrap_or(0)
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }
}

/// Percentile over trials of a reported tail: the low decile.
const TAIL_OVER_TRIALS: f64 = 10.0;

/// Samples a trial needs for ten of them to lie beyond percentile `p`.
fn min_samples(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).ceil() as usize
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().max(1.0) as usize
}

/// Nearest-rank percentile of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v[nearest_rank(v.len(), p).min(v.len()) - 1]
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_need_ten_beyond() {
        let mut s = Samples::default();
        for epoch in 0..5 {
            for i in 0..100 {
                s.push_secs(f64::from(i) + if epoch == 2 { 1000.0 } else { 0.0 });
            }
            s.mark();
        }
        // p95 needs 200 samples: trials of epochs {0,1} and {2,3,4}.
        assert_eq!(s.trial_count(95.0), 2);
        assert_eq!(s.rank_beyond(95.0), 10);
        // p50 needs 20: one trial per epoch; the slow epoch is outvoted.
        assert_eq!(s.trial_count(50.0), 5);
        assert_eq!(s.trial_pct(50.0), 49.0);
        // A tail takes the quietest trial's figure here (low decile of 2).
        assert_eq!(s.trial_pct(95.0), 94.0);
    }
}
