//! Order statistics, the output fingerprint, and the memory reading.

/// Median of `xs`: the middle value, or the mean of the two middle
/// values for an even count. `None` when empty or when any value is NaN.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs)?;
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `q`-quantile of `xs` by nearest rank: the smallest value with at
/// least a share `q` of the values at or below it. `None` when empty,
/// when any value is NaN, or when `q` is outside (0, 1].
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let v = sorted(xs)?;
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads printed here are the ones an acceptance script computes.
/// A single value, which Python rejects, is its own quartiles; `None`
/// when empty or NaN.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs)?;
    let ld = v.len();
    if ld == 1 {
        return Some((v[0], v[0]));
    }
    let n = 4;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a regression bound is compared against. `None` when undefined
/// (empty input or a zero median).
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(xs: &[f64]) -> Option<Vec<f64>> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v)
}

/// 64-bit FNV-1a over `bytes`: the fingerprint of a serialized result.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_single_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(9.0));
        assert_eq!(percentile(&xs, 0.91), Some(10.0));
        assert_eq!(percentile(&xs, 1.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.01), Some(1.0));
        assert_eq!(percentile(&[4.0], 0.9), Some(4.0));
        assert_eq!(percentile(&[], 0.9), None);
        assert_eq!(percentile(&xs, 0.0), None);
        assert_eq!(percentile(&xs, f64::NAN), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[9.0]), Some((9.0, 9.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median_and_undefined_at_zero() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
        assert_eq!(spread(&[]), None);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        // Reference FNV-1a values: the empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"{\"x\":1}"), fnv1a(b"{\"x\":1}"));
        assert_ne!(fnv1a(b"{\"x\":1}"), fnv1a(b"{\"x\":2}"));
    }
}
