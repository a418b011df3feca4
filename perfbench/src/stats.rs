//! Percentiles and small sample summaries.
//!
//! Every metric that reports a percentile goes through [`percentile`], so
//! all of them share one interpolation rule: linear interpolation between
//! the two closest ranks at position `q · (n − 1)` of the sorted sample
//! (NumPy's default, R's type 7).

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks. Returns 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (see [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_linearly_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn every_reported_percentile_uses_the_same_helper() {
        // The end-to-end latencies (per window, through
        // `report::quantiles`) and the per-layer span metrics
        // (`Replay::us_p50`) must equal `percentile` on the same sample.
        let sample: Vec<f64> = (0..101).map(|i| f64::from(i * i % 37)).collect();
        let (p50, p90) = crate::report::quantiles(&sample);
        assert_eq!(p50, percentile(&sample, 0.5));
        assert_eq!(p90, percentile(&sample, 0.9));
        let gen = crate::gen::Generator::new(crate::gen::Workload::SimHot, 1);
        let mut coll = crate::check::Collector::new(&gen, false);
        coll.latency_ms = sample.clone();
        coll.done_s = (1..=sample.len()).map(|t| t as f64).collect();
        let one_window = coll.windowed(1);
        assert_eq!(one_window.p50_ms, p50);
        assert_eq!(one_window.p90_ms, p90);
        let spans = sample
            .iter()
            .enumerate()
            .map(|(i, &v)| crate::replay::Span {
                req: i as u64,
                layer: "json.parse",
                parent: "request",
                start_ns: 0,
                dur_ns: (v * 1000.0) as u64,
            })
            .collect();
        let replay = crate::replay::Replay {
            spans,
            ..Default::default()
        };
        assert_eq!(replay.us_p50("json.parse"), percentile(&sample, 0.5));
    }
}
