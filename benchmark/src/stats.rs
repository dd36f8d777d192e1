//! Median, minimum and maximum of a handful of samples.

use crate::json::{num, obj};
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// `None` for no samples. The median of an even count is the mean of
    /// the middle two.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        Some(Summary {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        })
    }

    /// `value` is the one the benchmark reports for the metric.
    pub fn to_json(self, value: f64, unit: &str, better: &str) -> Value {
        obj([
            ("value", num(value)),
            ("better", crate::json::text(better)),
            ("median", num(self.median)),
            ("min", num(self.min)),
            ("max", num(self.max)),
            ("n", Value::UInt(self.n as u64)),
            ("unit", crate::json::text(unit)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(Summary::of(&[]), None);
        let odd = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((odd.median, odd.min, odd.max, odd.n), (2.0, 1.0, 3.0, 3));
        let even = Summary::of(&[4.0, 1.0, 2.0, 10.0]).unwrap();
        assert_eq!(
            (even.median, even.min, even.max, even.n),
            (3.0, 1.0, 10.0, 4)
        );
        let one = Summary::of(&[7.5]).unwrap();
        assert_eq!((one.median, one.min, one.max), (7.5, 7.5, 7.5));
    }
}
