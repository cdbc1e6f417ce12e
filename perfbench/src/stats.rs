//! Order statistics, wall-clock helpers and process memory readings.

use std::time::Instant;

/// Nearest-rank percentile `pct` (0–100) of an ascending slice.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a slice of floats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles tried for the tail metric, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of an ascending latency sample: the highest percentile of
/// [`TAIL_LADDER`] with at least 10 samples beyond it, as
/// `(percentile, samples beyond, value)`. Below 20 samples no rung
/// qualifies and the maximum is reported (percentile 100, none beyond).
pub fn tail(sorted: &[u64]) -> (f64, u64, u64) {
    let n = sorted.len() as f64;
    for pct in TAIL_LADDER {
        let beyond = (n * (1.0 - pct / 100.0)).floor();
        if beyond >= 10.0 {
            return (pct, beyond as u64, percentile(sorted, pct));
        }
    }
    (100.0, 0, sorted.last().copied().unwrap_or(0))
}

/// Nanoseconds elapsed since `t0`.
pub fn nanos_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB.
pub fn proc_mem_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A running mean of integer samples (span nanoseconds, event counts).
#[derive(Debug, Default, Clone, Copy)]
pub struct Mean {
    /// Samples added.
    pub n: u64,
    /// Their sum.
    pub sum: u64,
}

impl Mean {
    /// Adds one sample.
    pub fn add(&mut self, v: u64) {
        self.n += 1;
        self.sum += v;
    }

    /// The mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail(&v), (99.0, 20, 1980));
        let v: Vec<u64> = (1..=150).collect();
        assert_eq!(tail(&v).0, 90.0);
        let v: Vec<u64> = (1..=5).collect();
        assert_eq!(tail(&v), (100.0, 0, 5));
    }
}
