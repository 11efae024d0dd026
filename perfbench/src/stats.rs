//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// If `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so figures printed here match the tooling that gates them.
///
/// # Panics
/// If `xs` has fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let ld = s.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *q = (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0;
    }
    out
}

/// The highest percentile that still has at least [`TAIL_BEYOND`] samples
/// above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile it is, in percent.
    pub pct: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the sample with exactly [`TAIL_BEYOND`] samples above
/// it, or the maximum (with fewer beyond) when there are too few samples.
///
/// # Panics
/// If `xs` is empty.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    let ix = if n > TAIL_BEYOND {
        n - 1 - TAIL_BEYOND
    } else {
        n - 1
    };
    let beyond = n - 1 - ix;
    Tail {
        value: s[ix],
        pct: 100.0 * (ix + 1) as f64 / n as f64,
        beyond,
        n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), [2.0, 5.0, 8.0]);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(
            t,
            Tail {
                value: 90.0,
                pct: 90.0,
                beyond: 10,
                n: 100
            }
        );
        let xs: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond, t.n), (240.0, 10, 250));
        assert!((t.pct - 96.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[2.0, 9.0, 4.0]);
        assert_eq!(
            t,
            Tail {
                value: 9.0,
                pct: 100.0,
                beyond: 0,
                n: 3
            }
        );
    }
}
