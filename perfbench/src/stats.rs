//! Exact order statistics over per-request samples.
//!
//! End-to-end percentiles come from here, never from the program's
//! log₂ histograms: those report bucket upper bounds, up to 2x off.

use std::time::{Duration, Instant};

/// The `p`-th percentile (0 < p ≤ 100) by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// As [`percentile`] over an already ascending, non-empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of several repetitions (mean of the middle two for an
/// even count), for set-up times measured a few times per run.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean; 0 for an empty sample (a layer that did no work).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Exact mean of a registry histogram delta (`sum / count`, in ns),
/// converted to µs; 0 when the layer recorded nothing.
pub fn mean_us(sum_ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_ns as f64 / count as f64 / 1e3
    }
}

/// Events per second in each `slice` of `[start, start + n·slice)`.
pub fn slice_rates(events: &[Instant], start: Instant, slice: Duration, n: u32) -> Vec<f64> {
    let mut counts = vec![0u32; n as usize];
    for t in events {
        let k = (t.saturating_duration_since(start).as_nanos() / slice.as_nanos().max(1)) as usize;
        if let Some(c) = counts.get_mut(k) {
            *c += 1;
        }
    }
    counts
        .iter()
        .map(|c| f64::from(*c) / slice.as_secs_f64())
        .collect()
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        // Order of arrival does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 50.0), Some(50.0));
        // Ten samples: p50 is the 5th, p90 the 9th, p99 the 10th.
        let ten = [7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 10.0, 4.0, 8.0, 6.0];
        assert_eq!(percentile(&ten, 50.0), Some(5.0));
        assert_eq!(percentile(&ten, 90.0), Some(9.0));
        assert_eq!(percentile(&ten, 99.0), Some(10.0));
        assert_eq!(percentile(&[42.0], 50.0), Some(42.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentiles_are_exact_not_bucketed() {
        // 33 µs and 60 µs share no log₂ bucket bound; exact ranks keep
        // them apart.
        let samples = [33.0, 33.0, 33.0, 60.0, 60.0];
        assert_eq!(percentile(&samples, 50.0), Some(33.0));
        assert_eq!(percentile(&samples, 80.0), Some(60.0));
    }

    #[test]
    fn slice_rates_count_events_per_slice() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        // 10 events in each of slices 0, 1 and 3; slice 2 stalled (1 event).
        let mut events: Vec<Instant> = Vec::new();
        for slice in [0u64, 1, 3] {
            events.extend((0..10).map(|i| t0 + ms(100 * slice + 5 * i)));
        }
        events.push(t0 + ms(250));
        // An event past the last slice is not counted.
        events.push(t0 + ms(450));
        let rates = slice_rates(&events, t0, ms(100), 4);
        assert_eq!(rates, vec![100.0, 100.0, 10.0, 100.0]);
    }

    #[test]
    fn median_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean_us(3_000, 2), 1.5);
        assert_eq!(mean_us(5, 0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
