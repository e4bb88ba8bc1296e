//! Order statistics for the reported timings.
//!
//! A tail percentile is only reported where the sample can support it:
//! [`tail`] picks the highest percentile (at most p99) that still has at
//! least [`TAIL_BEYOND`] samples above it, and says which one it picked
//! and out of how many samples.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (any order). An empty slice gives `NaN`.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 when the sample allows it).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// The highest whole percentile up to p99 with at least
/// [`TAIL_BEYOND`] samples strictly beyond its rank. With too few
/// samples for any percentile the maximum is reported (`pct = 100`).
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in (1..=99).rev() {
        let rank = (p * n).div_ceil(100);
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return Tail {
                pct: p as f64,
                value: v[rank - 1],
                n,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: v.last().copied().unwrap_or(f64::NAN),
        n,
    }
}

/// Open-loop latency: from the moment a job was *due* (not when the
/// generator got round to sending it) to the moment its terminal status
/// was observed. A late generator therefore shows up in the latency it
/// imposes, as users would see it.
pub fn latency_from_due(due: Instant, observed: Instant) -> Duration {
    observed.saturating_duration_since(due)
}

/// How late the generator sent a job: zero when on time.
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// The due time of job `i` in an open loop at `rate` jobs/s starting at
/// `start`.
pub fn due_time(start: Instant, rate: f64, i: u64) -> Instant {
    start + Duration::from_nanos((i as f64 * 1e9 / rate).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_with_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        // 100 samples: p90 has exactly 10 beyond it, p91 only 9.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.n), (90.0, 90.0, 100));
        // 25 samples: p60 → rank 15, 10 beyond.
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.n), (60.0, 15.0, 25));
    }

    #[test]
    fn tail_with_too_few_samples_reports_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.pct, t.value, t.n), (100.0, 3.0, 3));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn failed_jobs_sort_into_the_tail() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in xs.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        assert!(tail(&xs).value.is_infinite());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let due = due_time(start, 50.0, 3);
        assert_eq!(due - start, Duration::from_millis(60));
        // Sent 5 ms late, finished 20 ms after sending: the job's
        // latency is 25 ms, not 20.
        let sent = due + Duration::from_millis(5);
        let done = sent + Duration::from_millis(20);
        assert_eq!(lateness(due, sent), Duration::from_millis(5));
        assert_eq!(latency_from_due(due, done), Duration::from_millis(25));
        // Early sends are not negative lateness.
        assert_eq!(lateness(due, start), Duration::ZERO);
    }
}
