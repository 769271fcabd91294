//! Order statistics that always carry their sample count.

/// A percentile of a sample, with the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile actually reported (may be below the one asked for
    /// when the sample is too small to support it).
    pub pct: f64,
    pub value: f64,
    pub count: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile `p` of `samples` (unsorted). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(Pct {
        pct: p,
        value: v[rank.clamp(1, v.len()) - 1],
        count: v.len(),
    })
}

/// The highest percentile up to `p` that leaves at least [`TAIL_SUPPORT`]
/// samples beyond it. When not even the median does (fewer than
/// `2 * TAIL_SUPPORT` samples), the maximum (`p = 100`, flagged by its
/// small count).
pub fn tail(samples: &[f64], p: f64) -> Option<Pct> {
    let n = samples.len();
    let supported = 100.0 * n.saturating_sub(TAIL_SUPPORT) as f64 / n.max(1) as f64;
    let q = if supported >= 50.0 {
        p.min(supported)
    } else {
        100.0
    };
    percentile(samples, q)
}

/// The median (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_carry_their_count() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentile(&s, 95.0).unwrap();
        assert_eq!((p.value, p.count, p.pct), (190.0, 200, 95.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_falls_back_to_what_the_sample_supports() {
        // 200 samples support p95 (10 beyond it).
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&s, 95.0).unwrap().pct, 95.0);
        // 50 samples only support p80.
        let s: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&s, 95.0).unwrap();
        assert_eq!((t.pct, t.value, t.count), (80.0, 40.0, 50));
        // Samples too small for a tail beyond the median report the
        // maximum with their count.
        let t = tail(&[3.0, 1.0, 2.0], 95.0).unwrap();
        assert_eq!((t.pct, t.value, t.count), (100.0, 3.0, 3));
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s, 95.0).unwrap().value, 19.0);
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s, 95.0).unwrap().pct, 50.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
