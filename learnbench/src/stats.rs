//! Order statistics over timing samples, and readers for the histograms in
//! the program's Prometheus-style metric exposition.

use std::time::Duration;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the "inclusive" method). Empty input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One histogram series read back from an exposition: cumulative bucket
/// counts by upper bound (nanoseconds), plus the exact sum and count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// `(upper bound, cumulative count)`, ascending; `+Inf` excluded.
    pub buckets: Vec<(f64, u64)>,
    /// Sum of every recorded value (nanoseconds).
    pub sum: f64,
    /// Number of recorded values.
    pub count: u64,
}

impl Series {
    /// The histogram series `name` whose label set contains `label`
    /// (`key="value"`, or empty for any), summed over every matching label
    /// set. Missing series read as empty.
    pub fn read(exposition: &str, name: &str, label: &str) -> Series {
        let mut out = Series::default();
        let bucket = format!("{name}_bucket{{");
        for line in exposition.lines() {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            if !label.is_empty() && !key.contains(label) {
                continue;
            }
            let value: f64 = value.parse().unwrap_or(0.0);
            if key.starts_with(&bucket) {
                let Some(le) = key.split("le=\"").nth(1).and_then(|s| s.split('"').next()) else {
                    continue;
                };
                if let Some(bound) = le.parse::<f64>().ok().filter(|b| b.is_finite()) {
                    match out.buckets.iter_mut().find(|(b, _)| *b == bound) {
                        Some(entry) => entry.1 += value as u64,
                        None => out.buckets.push((bound, value as u64)),
                    }
                }
            } else if key == format!("{name}_sum") || key.starts_with(&format!("{name}_sum{{")) {
                out.sum += value;
            } else if key == format!("{name}_count") || key.starts_with(&format!("{name}_count{{"))
            {
                out.count += value as u64;
            }
        }
        out.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Mean recorded value in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64 / 1e6
        }
    }

    /// Sum of recorded values in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum / 1e6
    }

    /// The `q`-quantile in milliseconds, interpolated linearly inside the
    /// log2 bucket that holds it.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut lower = (0.0, 0u64);
        for &(bound, cumulative) in &self.buckets {
            if cumulative as f64 >= rank && cumulative > lower.1 {
                let share = (rank - lower.1 as f64) / (cumulative - lower.1) as f64;
                return (lower.0 + (bound - lower.0) * share) / 1e6;
            }
            lower = (bound, cumulative);
        }
        lower.0 / 1e6
    }

    /// Two series' activity together (same bucket bounds).
    pub fn plus(&self, other: &Series) -> Series {
        let mut out = self.clone();
        for &(bound, count) in &other.buckets {
            match out.buckets.iter_mut().find(|(b, _)| *b == bound) {
                Some(entry) => entry.1 += count,
                None => out.buckets.push((bound, count)),
            }
        }
        out.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        out.sum += other.sum;
        out.count += other.count;
        out
    }

    /// The activity recorded between `earlier` and `self` (two reads of the
    /// same cumulative series).
    pub fn since(&self, earlier: &Series) -> Series {
        let before = |bound: f64| {
            earlier
                .buckets
                .iter()
                .find(|(b, _)| *b == bound)
                .map_or(0, |(_, c)| *c)
        };
        Series {
            buckets: self
                .buckets
                .iter()
                .map(|&(b, c)| (b, c.saturating_sub(before(b))))
                .collect(),
            sum: self.sum - earlier.sum,
            count: self.count.saturating_sub(earlier.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn series_reads_sum_count_and_bucket_quantiles() {
        let text = "# TYPE h histogram\n\
                    h_bucket{db=\"a\",le=\"1000\"} 2\n\
                    h_bucket{db=\"a\",le=\"2000\"} 4\n\
                    h_bucket{db=\"a\",le=\"+Inf\"} 4\n\
                    h_sum{db=\"a\"} 5000\n\
                    h_count{db=\"a\"} 4\n\
                    h_bucket{db=\"b\",le=\"1000\"} 9\n";
        let s = Series::read(text, "h", "db=\"a\"");
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 5000.0);
        assert_eq!(s.buckets, vec![(1000.0, 2), (2000.0, 4)]);
        assert!((s.quantile_ms(0.5) - 0.001).abs() < 1e-12);
        assert!((s.quantile_ms(0.75) - 0.0015).abs() < 1e-12);
        assert_eq!(s.since(&s).count, 0);
    }
}
