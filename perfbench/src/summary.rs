//! Summary statistics and the URB verdict checker shared by every phase.
//!
//! Three rules live here so they are stated once and tested:
//!
//! * **Percentiles.** Nearest rank on the sorted sample. A tail percentile
//!   is only reported when at least [`MIN_BEYOND`] samples lie beyond it;
//!   otherwise the highest percentile of [`LADDER`] that the sample does
//!   support is reported instead.
//! * **Ratio bases.** A *broadcast* is one `URB_broadcast` delivered at
//!   every correct process; a *delivery* is one `URB_deliver` event at one
//!   process, so a broadcast delivered everywhere in a cluster of `n`
//!   counts `n` deliveries. Every `*_per_broadcast` metric and
//!   `deliveries_per_s` divide by broadcasts; every `*_per_delivery`
//!   metric divides by deliveries. Drop and re-encode ratios divide by
//!   the attempts they were chosen from (kept + dropped).
//! * **Verdict.** Each broadcast must be delivered exactly once at every
//!   process, on the topic it was sent on, and nothing else may be
//!   delivered. Per-topic delivery sets are then identical everywhere.

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when the wanted tail is unsupported.
pub const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending sample (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9990 despite rounding.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The percentile to report for a wanted tail `want`: `want` itself when
/// the sample supports it, else the highest supported percentile of
/// [`LADDER`] below it, else `None` (fewer than `MIN_BEYOND + 1` samples).
pub fn supported_tail(n: usize, want: f64) -> Option<f64> {
    std::iter::once(want)
        .chain(LADDER.into_iter().filter(|&p| p < want))
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Median and supported tail of a latency sample, with the percentile
/// actually used for the tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail value was taken at.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

/// Summarises `samples` (any order) with a wanted tail percentile. With
/// too few samples for any tail, the maximum is reported as the tail at
/// percentile 100.
pub fn summarize(samples: &mut [f64], want: f64) -> Tail {
    samples.sort_by(f64::total_cmp);
    let (tail_pct, tail) = match supported_tail(samples.len(), want) {
        Some(p) => (p, percentile(samples, p)),
        None => (100.0, samples[samples.len() - 1]),
    };
    Tail {
        count: samples.len(),
        p50: percentile(samples, 50.0),
        tail_pct,
        tail,
    }
}

/// Median of a non-empty sample (nearest rank, so always a measured value).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The two ratio bases of the module docs.
#[derive(Clone, Copy, Debug)]
pub struct Bases {
    /// Broadcasts delivered at every correct process.
    pub broadcasts: u64,
    /// Correct processes each of those broadcasts was delivered at.
    pub processes: u64,
}

impl Bases {
    /// `URB_deliver` events summed over processes.
    pub fn deliveries(&self) -> u64 {
        self.broadcasts * self.processes
    }

    /// `count` per broadcast delivered everywhere.
    pub fn per_broadcast(&self, count: f64) -> f64 {
        count / self.broadcasts.max(1) as f64
    }

    /// `count` per `URB_deliver` event.
    pub fn per_delivery(&self, count: f64) -> f64 {
        count / self.deliveries().max(1) as f64
    }
}

/// Share of `part` among `part + rest` (drop ratio: dropped among
/// dropped + kept). Zero when both are zero.
pub fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// Outcome of [`check_deliveries`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Broadcasts checked.
    pub broadcasts: usize,
    /// Broadcasts not delivered exactly once at every process on their
    /// topic (missing, duplicated or on the wrong topic).
    pub failed: usize,
    /// Deliveries of something that was never broadcast.
    pub foreign: usize,
}

impl Verdict {
    /// Failed checks: bad broadcasts plus foreign deliveries.
    pub fn failures(&self) -> usize {
        self.failed + self.foreign
    }
}

/// Checks URB on one run: every `(topic, id)` in `sent` must appear in
/// `seen` exactly once per process `0..n` with the same topic, and `seen`
/// must hold nothing else. `id` is whatever identifies a broadcast on the
/// stack under test (a tag in process, a payload string over sockets).
pub fn check_deliveries<K: Ord + Clone>(
    n: usize,
    sent: &[(u32, K)],
    seen: &[(usize, u32, K)],
) -> Verdict {
    let mut counts: BTreeMap<&K, (u32, Vec<u32>)> = BTreeMap::new();
    for (topic, id) in sent {
        counts.insert(id, (*topic, vec![0; n]));
    }
    let mut foreign = 0;
    let mut misplaced: BTreeMap<&K, ()> = BTreeMap::new();
    for (pid, topic, id) in seen {
        match counts.get_mut(id) {
            Some((t, per_pid)) if *pid < n => {
                per_pid[*pid] += 1;
                if t != topic {
                    misplaced.insert(id, ());
                }
            }
            _ => foreign += 1,
        }
    }
    let failed = counts
        .iter()
        .filter(|(id, (_, per_pid))| misplaced.contains_key(*id) || per_pid.iter().any(|&c| c != 1))
        .count();
    Verdict {
        broadcasts: sent.len(),
        failed,
        foreign,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(1000, 99.0), Some(99.0));
        // 999 samples leave only 9 beyond p99, so p95 is reported.
        assert_eq!(supported_tail(999, 99.0), Some(95.0));
        assert_eq!(supported_tail(100, 99.0), Some(90.0));
        assert_eq!(supported_tail(20, 99.0), Some(50.0));
        assert_eq!(supported_tail(20, 99.9), Some(50.0));
        assert_eq!(supported_tail(10_000, 99.9), Some(99.9));
        assert_eq!(supported_tail(10, 99.0), None);
        assert_eq!(supported_tail(0, 99.0), None);
    }

    #[test]
    fn summarize_reports_the_percentile_it_used() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = summarize(&mut v, 99.0);
        assert_eq!(t.count, 200);
        assert_eq!(t.p50, 100.0);
        assert_eq!(t.tail_pct, 95.0);
        assert_eq!(t.tail, 190.0);
        let mut few = vec![3.0, 1.0, 2.0];
        let t = summarize(&mut few, 99.0);
        assert_eq!((t.p50, t.tail_pct, t.tail), (2.0, 100.0, 3.0));
    }

    #[test]
    fn ratio_bases() {
        let b = Bases {
            broadcasts: 1000,
            processes: 3,
        };
        assert_eq!(b.deliveries(), 3000);
        // 17 messages per broadcast is 17/3 per delivery.
        assert_eq!(b.per_broadcast(17_000.0), 17.0);
        assert!((b.per_delivery(17_000.0) - 17.0 / 3.0).abs() < 1e-12);
        // A drop ratio is dropped among all attempts, not among the kept.
        assert_eq!(share(10, 90), 0.1);
        assert_eq!(share(0, 0), 0.0);
    }

    #[test]
    fn verdict_accepts_a_clean_run() {
        let sent = vec![(0, 1u64), (1, 2)];
        let seen: Vec<(usize, u32, u64)> = (0..3).flat_map(|p| [(p, 0, 1), (p, 1, 2)]).collect();
        let v = check_deliveries(3, &sent, &seen);
        assert_eq!(v.failures(), 0);
        assert_eq!(v.broadcasts, 2);
    }

    #[test]
    fn verdict_catches_a_planted_missing_delivery() {
        let sent = vec![(0, 1u64), (1, 2)];
        let mut seen: Vec<(usize, u32, u64)> =
            (0..3).flat_map(|p| [(p, 0, 1), (p, 1, 2)]).collect();
        seen.retain(|&(p, _, id)| !(p == 2 && id == 2));
        let v = check_deliveries(3, &sent, &seen);
        assert_eq!(v.failed, 1);
        assert_eq!(v.foreign, 0);
    }

    #[test]
    fn verdict_catches_duplicates_wrong_topics_and_foreign_ids() {
        let sent = vec![(0, 1u64), (1, 2), (2, 3)];
        let mut seen: Vec<(usize, u32, u64)> = (0..2)
            .flat_map(|p| [(p, 0, 1), (p, 1, 2), (p, 2, 3)])
            .collect();
        seen.push((0, 0, 1)); // delivered twice at process 0
        seen[1].1 = 3; // tag 2 seen on topic 3 at process 0
        seen.push((1, 0, 9)); // never broadcast
        let v = check_deliveries(2, &sent, &seen);
        assert_eq!((v.failed, v.foreign), (2, 1));
    }
}
