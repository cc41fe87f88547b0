//! Order statistics over samples.

/// The `q` quantile (`0..=1`) by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A tail quantile, reported only when at least ten samples lie beyond
/// it; 0 otherwise.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    if (samples.len() as f64) * (1.0 - q) < 10.0 {
        eprintln!(
            "note: {} samples are too few for a p{} figure",
            samples.len(),
            q * 100.0
        );
        return 0.0;
    }
    quantile(samples, q)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
