//! Sample statistics: medians, and the 99th percentile under the "at
//! least ten samples beyond" rule.

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `samples`; NaNs never occur (all values are durations
/// or counts).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples`; `None`
/// when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// A 99th percentile and how many samples lie strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P99 {
    pub value: f64,
    pub beyond: usize,
}

impl P99 {
    /// Whether the sample supports the percentile: fewer than
    /// [`MIN_BEYOND`] samples beyond it and the value is a few outliers'
    /// say-so. The percentile is never lowered to make room; the caller
    /// flags the run instead.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The 99th percentile of `samples`; `None` when empty.
pub fn p99(samples: &[f64]) -> Option<P99> {
    let value = quantile(samples, 0.99)?;
    let beyond = samples.iter().filter(|s| **s > value).count();
    Some(P99 { value, beyond })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_counts_the_samples_beyond_and_never_backs_off() {
        // 2000 samples: 20 lie beyond the 99th percentile.
        let big: Vec<f64> = (0..2000).map(f64::from).collect();
        let p = p99(&big).unwrap();
        assert!((p.value - 1979.01).abs() < 1e-6, "{p:?}");
        assert_eq!(p.beyond, 20);
        assert!(p.supported());

        // 1001 samples leave exactly ten beyond: the least that will do.
        let edge: Vec<f64> = (0..1001).map(f64::from).collect();
        let p = p99(&edge).unwrap();
        assert_eq!((p.value, p.beyond), (990.0, MIN_BEYOND));
        assert!(p.supported());

        // 500 samples leave five. It is still the 99th percentile that
        // is reported, and the shortfall shows.
        let small: Vec<f64> = (0..500).map(f64::from).collect();
        let p = p99(&small).unwrap();
        assert!((p.value - 494.01).abs() < 1e-6, "{p:?}");
        assert_eq!(p.beyond, 5);
        assert!(!p.supported());
        assert_eq!(p99(&[]), None);
    }

    #[test]
    fn the_median_shrugs_off_outlying_repetitions() {
        // Five drills, two of them disturbed.
        assert_eq!(median(&[0.46, 0.44, 2.01, 1.36, 0.46]), Some(0.46));
        // Three set-ups, one disturbed.
        assert_eq!(median(&[3.1, 9.0, 2.9]), Some(3.1));
    }
}
