//! The rendered `ServeReport`.
//!
//! The report is a read of the engine's metrics registry: the same
//! counters and histograms `/metrics` exposes, so the two can never
//! disagree. Latency-style samples live in bounded log-bucketed
//! histograms ([`he_metrics::hist`]): a server that runs for weeks
//! holds the same few KiB per summary, at the cost of ≤ 12.5% quantile
//! error (count, min, max and mean stay exact).

use cnn_he::LatencyStats;
use he_metrics::hist::HistogramSnapshot;

/// Reconstruct [`LatencyStats`] (seconds) from a microsecond-tick
/// histogram: min/max/avg are exact, p50/p95 carry the bucket's
/// ≤ 12.5% relative error, std-dev comes from the exact sum of
/// squares. `None` when nothing was recorded.
pub(crate) fn latency_stats(s: &HistogramSnapshot) -> Option<LatencyStats> {
    const TO_S: f64 = 1e-6;
    Some(LatencyStats {
        min: s.min as f64 * TO_S,
        max: s.max as f64 * TO_S,
        avg: s.mean()? * TO_S,
        p50: s.quantile_ticks(0.50)? as f64 * TO_S,
        p95: s.quantile_ticks(0.95)? as f64 * TO_S,
        std_dev: s.std_dev()? * TO_S,
    })
}

/// Point-in-time serving metrics, renderable as the shared text table.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub submitted: u64,
    /// Admitted into the request queue.
    pub enqueued: u64,
    pub completed: u64,
    /// Refused at admission (wrong shape or a non-finite pixel).
    pub rejected: u64,
    /// Refused with queue-full backpressure.
    pub overloaded: u64,
    /// Answered with a deadline-exceeded error.
    pub timed_out: u64,
    /// Batches dispatched to the worker pool.
    pub batches: u64,
    /// Images those batches carried.
    pub batched_images: u64,
    /// Times the coalescing ceiling was halved after an overrun.
    pub degradations: u64,
    /// Requests waiting in the queue right now.
    pub queue_depth: usize,
    /// Current coalescing ceiling (== configured max batch unless the
    /// degradation ladder stepped down).
    pub effective_max_batch: usize,
    /// Submit → response latency of completed requests.
    pub request_latency: Option<LatencyStats>,
    /// Per-batch `wall / batch_size` — amortized per-image latency.
    pub amortized_per_image: Option<LatencyStats>,
    /// Queue residency (submit → batch dispatch) of batched requests.
    pub queue_wait: Option<LatencyStats>,
    /// Slack left at completion for deadline-carrying requests.
    pub deadline_slack: Option<LatencyStats>,
    /// Modular-arithmetic kernel backend the engine ran on
    /// (`scalar`/`avx2`/`avx512`/`neon`).
    pub backend: String,
}

impl ServeReport {
    /// Mean images per dispatched batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_images as f64 / self.batches as f64
    }

    /// Column-aligned table via the shared he-trace formatter.
    pub fn render(&self) -> String {
        use he_trace::{Align, Table};
        let mut t = Table::new(&[("metric", Align::Left), ("value", Align::Right)]);
        t.row(vec!["kernel backend".into(), self.backend.clone()]);
        t.row(vec![
            "requests submitted".into(),
            self.submitted.to_string(),
        ]);
        t.row(vec![
            "requests completed".into(),
            self.completed.to_string(),
        ]);
        t.row(vec![
            "rejected (admission)".into(),
            self.rejected.to_string(),
        ]);
        t.row(vec![
            "overloaded (queue full)".into(),
            self.overloaded.to_string(),
        ]);
        t.row(vec![
            "timed out (deadline)".into(),
            self.timed_out.to_string(),
        ]);
        t.row(vec!["batches executed".into(), self.batches.to_string()]);
        t.row(vec![
            "mean batch size".into(),
            format!("{:.2}", self.mean_batch()),
        ]);
        t.row(vec!["degradations".into(), self.degradations.to_string()]);
        t.row(vec!["queue depth".into(), self.queue_depth.to_string()]);
        t.row(vec![
            "effective max batch".into(),
            self.effective_max_batch.to_string(),
        ]);
        if let Some(l) = &self.request_latency {
            t.row(vec![
                "request latency p50/p95 (s)".into(),
                format!("{:.3} / {:.3}", l.p50, l.p95),
            ]);
        }
        if let Some(a) = &self.amortized_per_image {
            t.row(vec![
                "amortized per image p50/p95 (s)".into(),
                format!("{:.4} / {:.4}", a.p50, a.p95),
            ]);
        }
        if let Some(w) = &self.queue_wait {
            t.row(vec![
                "queue wait p50/p95 (s)".into(),
                format!("{:.4} / {:.4}", w.p50, w.p95),
            ]);
        }
        if let Some(s) = &self.deadline_slack {
            t.row(vec![
                "deadline slack p50/p95 (s)".into(),
                format!("{:.4} / {:.4}", s.p50, s.p95),
            ]);
        }
        t.render()
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ServeConfig;
    use crate::metrics::EngineMetrics;
    use he_trace::OpSnapshot;
    use std::time::Duration;

    fn metrics() -> EngineMetrics {
        EngineMetrics::new(&ServeConfig::default(), 8)
    }

    /// A completed request with this latency and no deadline.
    fn complete(m: &EngineMetrics, latency: Duration) {
        m.on_complete(m.next_request_id(), 1, None, latency);
    }

    #[test]
    fn snapshot_aggregates_counters_and_samples() {
        let m = metrics();
        for _ in 0..5 {
            m.on_submit();
        }
        for size in [1, 3] {
            let waits = vec![Duration::from_millis(1); size];
            m.on_batch(size, Duration::ZERO, &waits, 0);
        }
        complete(&m, Duration::from_millis(100));
        complete(&m, Duration::from_millis(300));
        complete(&m, Duration::from_millis(200));
        complete(&m, Duration::from_millis(200));
        let wall = Duration::from_millis(150);
        m.on_exec(1, 3, wall, wall / 3, &OpSnapshot::default());
        let r = m.report(3, 8);
        assert_eq!(r.submitted, 5);
        assert_eq!(r.completed, 4);
        assert_eq!(r.batches, 2);
        assert_eq!(r.batched_images, 4);
        assert_eq!(r.queue_depth, 3);
        assert_eq!(r.effective_max_batch, 8);
        assert!((r.mean_batch() - 2.0).abs() < 1e-12);
        let lat = r.request_latency.unwrap();
        // count/min/max/avg are exact on the histogram summary
        assert!((lat.avg - 0.2).abs() < 1e-9);
        assert!((lat.min - 0.1).abs() < 1e-9);
        assert!((lat.max - 0.3).abs() < 1e-9);
        let amortized = r.amortized_per_image.unwrap();
        assert!((amortized.avg - 0.05).abs() < 1e-9);
    }

    #[test]
    fn bounded_summary_count_parity_is_exact() {
        // The bounded histogram must never miscount: record N samples,
        // read back exactly N — and keep memory constant however many
        // samples arrive.
        let m = metrics();
        let n = 10_000u64;
        for i in 0..n {
            complete(&m, Duration::from_micros(17 * i % 3_000_000));
        }
        let r = m.report(0, 8);
        assert_eq!(r.completed, n);
        let expo = he_metrics::expo::parse(&m.render()).unwrap();
        assert_eq!(
            expo.value("he_serve_request_latency_seconds_count", &[]),
            Some(n as f64)
        );
        let stats = r.request_latency.unwrap();
        assert!(stats.min >= 0.0 && stats.max < 3.0);
    }

    #[test]
    fn bounded_summary_quantiles_track_exact_values() {
        let m = metrics();
        let mut exact: Vec<f64> = Vec::new();
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let us = 100 + (x % 500_000); // 100µs .. 0.5s
            exact.push(us as f64 * 1e-6);
            complete(&m, Duration::from_micros(us));
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got = m.report(0, 8).request_latency.unwrap();
        for (q, g) in [(0.50, got.p50), (0.95, got.p95)] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let rel = (g - truth).abs() / truth;
            assert!(rel <= 0.13, "q{q}: histogram {g} vs exact {truth}");
        }
        // mean and min/max reconstruct within float tolerance
        let mean = exact.iter().sum::<f64>() / exact.len() as f64;
        assert!((got.avg - mean).abs() / mean < 1e-9);
        assert!((got.min - exact[0]).abs() < 1e-9);
        assert!((got.max - exact[exact.len() - 1]).abs() < 1e-9);
    }

    #[test]
    fn report_renders_every_headline_metric() {
        let m = metrics();
        m.on_batch(1, Duration::ZERO, &[Duration::from_millis(2)], 0);
        let wall = Duration::from_millis(10);
        m.on_exec(1, 1, wall, wall, &OpSnapshot::default());
        m.on_complete(
            m.next_request_id(),
            1,
            Some(Duration::from_millis(90)),
            Duration::from_millis(10),
        );
        let s = m.report(0, 4).render();
        for needle in [
            "kernel backend",
            "requests submitted",
            "requests completed",
            "rejected (admission)",
            "timed out",
            "overloaded",
            "batches executed",
            "mean batch size",
            "degradations",
            "queue depth",
            "effective max batch",
            "request latency p50/p95",
            "amortized per image p50/p95",
            "queue wait p50/p95",
            "deadline slack p50/p95",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn empty_report_has_no_latency_rows() {
        let r = metrics().report(0, 1);
        assert_eq!(r.mean_batch(), 0.0);
        assert!(r.request_latency.is_none());
        assert!(r.amortized_per_image.is_none());
        assert!(r.queue_wait.is_none());
        assert!(r.deadline_slack.is_none());
        assert!(!r.render().contains("request latency"));
        assert!(!r.render().contains("amortized per image"));
        assert!(!r.render().contains("queue wait"));
        assert!(!r.render().contains("deadline slack"));
    }
}
