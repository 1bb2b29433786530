//! Statistics the benchmark reports: percentiles with an honest tail,
//! generator-lag trend, and the stream ladder's SLO rung selection.

use std::time::Duration;

/// Per-batch latency limit of the stream SLO, in milliseconds. It is
/// the paper's on-device budget (about 4 ms inference plus 3 ms sensor
/// fusion, rounded up): the server should add no more delay than the
/// jacket's MCU itself spends.
pub const SLO_P99_MS: f64 = 10.0;

/// Generator lag growth, first quarter to last quarter of a rung, that
/// marks the rung as backlogged.
pub const LAG_GROWTH_MS: f64 = 2.0;

/// Percentiles the tail is chosen from, in basis points (highest first).
const TAIL_LADDER_BP: [u32; 4] = [9_990, 9_900, 9_000, 5_000];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`bp` in basis points,
/// 5000 = median). Empty input gives NaN.
pub fn percentile(sorted: &[f64], bp: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), bp).saturating_sub(1)]
}

/// 1-based nearest rank of percentile `bp` among `n` samples.
fn rank(n: usize, bp: u32) -> usize {
    (n * bp as usize).div_ceil(10_000).max(1)
}

/// The highest percentile (basis points) from the ladder that has at
/// least [`MIN_BEYOND`] samples beyond it, or `None` when there are too
/// few samples for any (the caller then reports the maximum).
pub fn tail_bp(n: usize) -> Option<u32> {
    TAIL_LADDER_BP
        .iter()
        .copied()
        .find(|&bp| n - rank(n, bp).min(n) >= MIN_BEYOND)
}

/// Median and tail of one set of timings, with the sample count and the
/// percentile the tail stands for (100 = the maximum).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

impl Summary {
    /// Summarises `values` (any order). Empty input gives NaNs.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (tail, tail_pct) = match tail_bp(v.len()) {
            Some(bp) => (percentile(&v, bp), bp as f64 / 100.0),
            None => (v.last().copied().unwrap_or(f64::NAN), 100.0),
        };
        Summary {
            n: v.len(),
            p50: percentile(&v, 5_000),
            tail,
            tail_pct,
        }
    }

    /// The summary at a fixed percentile (basis points) instead of the
    /// chosen tail, e.g. `p99` for the SLO check.
    pub fn at(values: &[f64], bp: u32) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        percentile(&v, bp)
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::at(values, 5_000)
}

/// Whether generator lag grew across a rung: the p90 lag of the last
/// quarter of sends (in send order) exceeds the first quarter's by more
/// than [`LAG_GROWTH_MS`]. `lags_ms` must be in send order.
pub fn lag_growing(lags_ms: &[f64]) -> bool {
    let q = lags_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let first = Summary::at(&lags_ms[..q], 9_000);
    let last = Summary::at(&lags_ms[lags_ms.len() - q..], 9_000);
    last - first > LAG_GROWTH_MS
}

/// What one rung of the stream ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub wearers: usize,
    /// Steady-batch p99 latency from due time to parsed reply.
    pub p99_ms: f64,
    pub failures: u64,
    pub lag_growing: bool,
    /// False when the rung was cut short because the generator fell
    /// too far behind its schedule.
    pub completed: bool,
}

impl Rung {
    /// The three SLO conditions: p99 within [`SLO_P99_MS`], no failed
    /// operation, and no growing backlog (a cut-short rung has one).
    pub fn meets_slo(&self) -> bool {
        self.completed && self.failures == 0 && !self.lag_growing && self.p99_ms <= SLO_P99_MS
    }
}

/// The highest rung (wearer count) that meets the SLO, or 0 if none.
pub fn max_wearers_at_slo(rungs: &[Rung]) -> usize {
    rungs
        .iter()
        .filter(|r| r.meets_slo())
        .map(|r| r.wearers)
        .max()
        .unwrap_or(0)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a 64 over bytes: the digest recorded for grid reports.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p99 needs ≥1000 samples (10 beyond rank 990), p99.9 ≥10000.
        assert_eq!(tail_bp(10_000), Some(9_990));
        assert_eq!(tail_bp(9_999), Some(9_900));
        assert_eq!(tail_bp(1_000), Some(9_900));
        assert_eq!(tail_bp(999), Some(9_000));
        assert_eq!(tail_bp(100), Some(9_000));
        assert_eq!(tail_bp(99), Some(5_000));
        assert_eq!(tail_bp(20), Some(5_000));
        assert_eq!(tail_bp(19), None);
        assert_eq!(tail_bp(0), None);
    }

    #[test]
    fn summary_reports_count_and_which_percentile_the_tail_is() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        // Exactly ten samples lie beyond the reported tail.
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), MIN_BEYOND);

        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (few.n, few.p50, few.tail, few.tail_pct),
            (3, 2.0, 3.0, 100.0)
        );
        assert!(Summary::of(&[]).p50.is_nan());
    }

    #[test]
    fn lag_trend_flags_only_a_growing_backlog() {
        let flat: Vec<f64> = (0..400).map(|i| 0.1 + 0.05 * (i % 7) as f64).collect();
        assert!(!lag_growing(&flat));
        // One late spike in the middle is not a trend.
        let mut spike = flat.clone();
        spike[200] = 50.0;
        assert!(!lag_growing(&spike));
        let growing: Vec<f64> = (0..400).map(|i| i as f64 * 0.05).collect();
        assert!(lag_growing(&growing));
        assert!(!lag_growing(&[]));
    }

    fn rung(wearers: usize, p99_ms: f64, failures: u64, lag_growing: bool) -> Rung {
        Rung {
            wearers,
            p99_ms,
            failures,
            lag_growing,
            completed: true,
        }
    }

    #[test]
    fn rung_selection_takes_the_highest_rung_meeting_all_three_conditions() {
        let ladder = vec![
            rung(64, 0.4, 0, false),
            rung(128, 0.6, 0, false),
            rung(256, 2.5, 0, false),
            rung(512, 14.0, 0, false), // p99 over the limit
            rung(1024, 900.0, 0, true),
        ];
        assert_eq!(max_wearers_at_slo(&ladder), 256);

        // A failure disqualifies a rung even when its latency is fine.
        let mut failed = ladder.clone();
        failed[2].failures = 1;
        assert_eq!(max_wearers_at_slo(&failed), 128);

        // So does a growing backlog, and a rung cut short.
        let mut lagging = ladder.clone();
        lagging[2].lag_growing = true;
        assert_eq!(max_wearers_at_slo(&lagging), 128);
        let mut cut = ladder.clone();
        cut[2].completed = false;
        assert_eq!(max_wearers_at_slo(&cut), 128);

        // The limit itself passes; nothing passing gives 0.
        assert_eq!(max_wearers_at_slo(&[rung(64, SLO_P99_MS, 0, false)]), 64);
        assert_eq!(max_wearers_at_slo(&[rung(64, 11.0, 0, false)]), 0);
    }

    #[test]
    fn rung_selection_from_synthetic_latency_and_lag_series() {
        // Latency grows with load; past the knee the generator falls
        // behind and its lag climbs through the rung.
        let make = |wearers: usize, base_ms: f64, lag_slope: f64| {
            let lat: Vec<f64> = (0..2000)
                .map(|i| base_ms + (i % 100) as f64 * base_ms / 50.0)
                .collect();
            let lag: Vec<f64> = (0..2000).map(|i| 0.05 + lag_slope * i as f64).collect();
            Rung {
                wearers,
                p99_ms: Summary::at(&lat, 9_900),
                failures: 0,
                lag_growing: lag_growing(&lag),
                completed: true,
            }
        };
        let ladder = vec![
            make(100, 0.2, 0.0),
            make(200, 1.0, 0.0),
            make(400, 3.0, 0.01),
        ];
        assert!(ladder[1].meets_slo());
        assert!(ladder[2].p99_ms <= SLO_P99_MS && ladder[2].lag_growing);
        assert_eq!(max_wearers_at_slo(&ladder), 200);
    }
}
