//! Order statistics over per-operation samples.

/// Linear-interpolation percentile (`q` in 0..=1) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Harrell–Davis estimate of the `q` quantile (`0 < q < 1`): the mean
/// of all order statistics weighted by a Beta((n+1)q, (n+1)(1−q))
/// distribution. It moves smoothly when a few samples are added or
/// removed, where a single order statistic jumps between classes of
/// equal values (every read of one top-k class has the same modeled
/// time). 0 for an empty set.
pub fn hd_quantile(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    if n < 2 {
        return samples.first().copied().unwrap_or(0.0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf(a, b, (i + 1) as f64 / n as f64);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let s: f64 = C[0]
        + C[1..]
            .iter()
            .enumerate()
            .map(|(i, c)| c / (x + (i + 1) as f64))
            .sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// The regularized incomplete beta function I_x(a, b): the Beta(a, b)
/// distribution's CDF at `x` (continued fraction, modified Lentz).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..1000 {
        let m = m as f64;
        let aa = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + aa * d);
        c = clamp(1.0 + aa / c);
        h *= d * c;
        let aa = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + aa * d);
        c = clamp(1.0 + aa / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.25), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn harrell_davis_is_a_smooth_weighted_quantile() {
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((beta_cdf(2.0, 2.0, 0.5) - 0.5).abs() < 1e-12);
        assert!((beta_cdf(1.0, 3.0, 0.2) - (1.0 - 0.8f64.powi(3))).abs() < 1e-12);
        let s: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!(
            (hd_quantile(&s, 0.5) - 5.0).abs() < 1e-9,
            "symmetric sample"
        );
        assert!((hd_quantile(&[3.0; 50], 0.95) - 3.0).abs() < 1e-12);
        assert_eq!(hd_quantile(&[7.0], 0.5), 7.0);
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
        // two classes of equal values: adding one sample moves the
        // estimate a little, where the plain median would jump
        let mut v = vec![1.0; 50];
        v.extend(vec![2.0; 50]);
        let before = hd_quantile(&v, 0.5);
        v.push(2.0);
        let after = hd_quantile(&v, 0.5);
        assert!((before - 1.5).abs() < 1e-9);
        assert!(
            after > before && after - before < 0.1,
            "{before} -> {after}"
        );
        assert!(hd_quantile(&v, 0.95) > hd_quantile(&v, 0.5));
    }
}
