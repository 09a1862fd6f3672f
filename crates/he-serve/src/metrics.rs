//! Live engine metrics: instruments, the he-trace op-counter bridge,
//! the per-request event log, and the `/metrics` endpoint glue.
//!
//! [`EngineMetrics`] is the engine's single instrumentation seam and
//! its only record of serve events: each event site in the engine
//! makes one hook call (`on_submit`, `on_enqueue`, `on_batch`,
//! `on_exec`, …), and both [`ServeReport`] and the `/metrics`
//! exposition read the same registry instruments. The instruments are
//! lock-free atomics, so there is nothing to compile out.
//!
//! Metric vocabulary (all per-engine except the bridge and globals):
//! - `he_serve_submitted_total`, `he_serve_enqueued_total`: admission.
//! - `he_serve_queue_depth` (gauge), `he_serve_queue_wait_seconds`
//!   (histogram): queue pressure.
//! - `he_serve_batch_size` / `he_serve_batch_linger_seconds`
//!   (histograms), `he_serve_batches_total`: coalescing behaviour (the
//!   batch-size sum is the number of batched images).
//! - `he_serve_requests_total{outcome=…}`: completed / rejected /
//!   overloaded / timed_out.
//! - `he_serve_request_latency_seconds`,
//!   `he_serve_amortized_per_image_seconds` (histograms): submit →
//!   response latency and per-batch `wall / batch size`.
//! - `he_serve_deadline_slack_seconds` (histogram): how close
//!   completed deadline-carrying requests ran to their budget.
//! - `he_serve_effective_max_batch` (gauge),
//!   `he_serve_degradations_total`: degradation-ladder state.
//! - `he_ops_total{op=…}`: process-global he-trace HE op counters,
//!   bridged by snapshot delta on every scrape.
//! - `he_kernel_backend_info{backend=…}`, `he_serve_workers`,
//!   `he_serve_exec_mode_info{mode=…}`: run configuration.
//!
//! [`ServeReport`]: crate::ServeReport

use crate::config::ServeConfig;
use crate::stats::{latency_stats, ServeReport};
use he_metrics::events::{Event, EventKind, EventLog};
use he_metrics::{Counter, Gauge, Histogram, MetricsServer, Registry};
use he_trace::{cats, OpSnapshot};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One engine's instruments and event log: the only record of its
/// serve events.
pub(crate) struct EngineMetrics {
    registry: Arc<Registry>,
    t0: Instant,
    request_ids: AtomicU64,
    batch_ids: AtomicU64,
    queue_depth: Gauge,
    ladder: Gauge,
    queue_wait: Histogram,
    linger: Histogram,
    batch_size: Histogram,
    deadline_slack: Histogram,
    request_latency: Histogram,
    amortized: Histogram,
    submitted: Counter,
    enqueued: Counter,
    completed: Counter,
    rejected: Counter,
    overloaded: Counter,
    timed_out: Counter,
    batches: Counter,
    degradations: Counter,
    events: Option<Arc<EventLog>>,
}

impl EngineMetrics {
    pub fn new(cfg: &ServeConfig, max_batch_cap: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let outcome = |o: &str| {
            registry.counter_with(
                "he_serve_requests_total",
                "Requests by final outcome.",
                &[("outcome", o)],
            )
        };
        let m = Self {
            t0: Instant::now(),
            request_ids: AtomicU64::new(0),
            batch_ids: AtomicU64::new(0),
            queue_depth: registry.gauge(
                "he_serve_queue_depth",
                "Requests waiting in the bounded queue.",
            ),
            ladder: registry.gauge(
                "he_serve_effective_max_batch",
                "Current coalescing ceiling (degradation-ladder state).",
            ),
            queue_wait: registry.duration_histogram_with(
                "he_serve_queue_wait_seconds",
                "Queue residency of batched requests (submit to batch dispatch).",
                &[],
            ),
            linger: registry.duration_histogram_with(
                "he_serve_batch_linger_seconds",
                "How long the batcher lingered collecting each batch.",
                &[],
            ),
            batch_size: registry.histogram_with(
                "he_serve_batch_size",
                "Images per dispatched batch.",
                &[],
            ),
            deadline_slack: registry.duration_histogram_with(
                "he_serve_deadline_slack_seconds",
                "Budget left at completion for deadline-carrying requests.",
                &[],
            ),
            request_latency: registry.duration_histogram_with(
                "he_serve_request_latency_seconds",
                "Submit-to-response latency of completed requests.",
                &[],
            ),
            amortized: registry.duration_histogram_with(
                "he_serve_amortized_per_image_seconds",
                "Per-batch wall divided by the batch size.",
                &[],
            ),
            submitted: registry.counter(
                "he_serve_submitted_total",
                "Requests submitted, before admission.",
            ),
            enqueued: registry.counter(
                "he_serve_enqueued_total",
                "Requests admitted into the bounded queue.",
            ),
            completed: outcome("completed"),
            rejected: outcome("rejected"),
            overloaded: outcome("overloaded"),
            timed_out: outcome("timed_out"),
            batches: registry.counter(
                "he_serve_batches_total",
                "Batches dispatched to the worker pool.",
            ),
            degradations: registry.counter(
                "he_serve_degradations_total",
                "Times the coalescing ceiling was halved after a deadline overrun.",
            ),
            events: (cfg.event_log_capacity > 0)
                .then(|| Arc::new(EventLog::new(cfg.event_log_capacity))),
            registry,
        };
        m.ladder.set(max_batch_cap as f64);
        // run-configuration info gauges (value pinned to 1, the
        // interesting part is the label)
        m.registry
            .gauge_with(
                "he_kernel_backend_info",
                "Active modular-arithmetic kernel backend (value is always 1).",
                &[("backend", cnn_he::kernel::active_backend().name())],
            )
            .set(1.0);
        m.registry
            .gauge("he_serve_workers", "Worker threads executing batches.")
            .set(cfg.workers as f64);
        m.registry
            .gauge_with(
                "he_serve_exec_mode_info",
                "Layer unit-loop execution mode (value is always 1).",
                &[("mode", &format!("{:?}", cfg.exec_mode))],
            )
            .set(1.0);
        m.registry
            .gauge("he_serve_queue_capacity", "Bound of the request queue.")
            .set(cfg.queue_capacity as f64);
        // he-trace op-counter bridge: per-scrape snapshot deltas
        // into monotonic counters, so `he_ops_total` tracks the
        // process-global OpSnapshot exactly at every scrape.
        let ops: Vec<Counter> = OpSnapshot::default()
            .named()
            .iter()
            .map(|(op, _)| {
                m.registry.counter_with(
                    "he_ops_total",
                    "Process-global HE primitive ops (bridged from he-trace).",
                    &[("op", op)],
                )
            })
            .collect();
        let last = Mutex::new(OpSnapshot::default());
        m.registry.register_collector(move || {
            let _span = he_trace::span("op_bridge", cats::METRICS);
            let now = OpSnapshot::now();
            let mut prev = last.lock().unwrap_or_else(PoisonError::into_inner);
            let delta = now.delta(&prev);
            *prev = now;
            for (counter, (_, v)) in ops.iter().zip(delta.named()) {
                counter.inc(v);
            }
        });
        m
    }

    fn ts_us(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn push_event(
        &self,
        kind: EventKind,
        request: Option<u64>,
        batch: Option<u64>,
        fields: Vec<(&'static str, f64)>,
    ) {
        if let Some(log) = &self.events {
            log.push(Event {
                ts_us: self.ts_us(),
                kind,
                request,
                batch,
                fields,
            });
        }
    }

    pub fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn next_batch_id(&self) -> u64 {
        self.batch_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn on_submit(&self) {
        self.submitted.inc(1);
    }

    pub fn on_enqueue(&self, request: u64, budget: Option<Duration>, depth: usize) {
        self.enqueued.inc(1);
        self.queue_depth.set(depth as f64);
        let mut fields = Vec::with_capacity(1);
        if let Some(b) = budget {
            fields.push(("budget_us", b.as_micros() as f64));
        }
        self.push_event(EventKind::Enqueue, Some(request), None, fields);
    }

    pub fn on_rejected(&self) {
        self.rejected.inc(1);
    }

    pub fn on_overloaded(&self) {
        self.overloaded.inc(1);
    }

    /// Record a dispatched batch; returns its id for the event log.
    pub fn on_batch(&self, size: usize, linger: Duration, waits: &[Duration], depth: usize) -> u64 {
        let id = self.next_batch_id();
        self.batches.inc(1);
        self.batch_size.observe_ticks(size as u64);
        self.linger.observe_duration(linger);
        for w in waits {
            self.queue_wait.observe_duration(*w);
        }
        self.queue_depth.set(depth as f64);
        self.push_event(
            EventKind::Batch,
            None,
            Some(id),
            vec![
                ("size", size as f64),
                ("linger_us", linger.as_micros() as f64),
            ],
        );
        id
    }

    pub fn on_exec(
        &self,
        batch: u64,
        size: usize,
        wall: Duration,
        amortized: Duration,
        ops: &OpSnapshot,
    ) {
        self.amortized.observe_duration(amortized);
        self.push_event(
            EventKind::Exec,
            None,
            Some(batch),
            vec![
                ("size", size as f64),
                ("wall_us", wall.as_micros() as f64),
                ("ntt", ops.ntt_total() as f64),
                ("ct_mults", ops.ct_mults as f64),
                ("rotations", ops.rotations as f64),
                ("rescales", ops.rescales as f64),
                ("scalar_macs", ops.scalar_macs as f64),
            ],
        );
    }

    pub fn on_complete(
        &self,
        request: u64,
        batch: u64,
        slack: Option<Duration>,
        latency: Duration,
    ) {
        self.completed.inc(1);
        self.request_latency.observe_duration(latency);
        let mut fields = vec![("latency_us", latency.as_micros() as f64)];
        if let Some(s) = slack {
            self.deadline_slack.observe_duration(s);
            fields.push(("slack_us", s.as_micros() as f64));
        }
        self.push_event(EventKind::Complete, Some(request), Some(batch), fields);
    }

    pub fn on_shed(
        &self,
        request: u64,
        batch: Option<u64>,
        waited: Duration,
        late_by: Option<Duration>,
    ) {
        self.timed_out.inc(1);
        let mut fields = vec![("waited_us", waited.as_micros() as f64)];
        if let Some(l) = late_by {
            fields.push(("late_us", l.as_micros() as f64));
        }
        self.push_event(EventKind::Shed, Some(request), batch, fields);
    }

    pub fn on_ladder(&self, ceiling: usize, degraded: bool) {
        self.ladder.set(ceiling as f64);
        if degraded {
            self.degradations.inc(1);
        }
    }

    /// The engine's [`ServeReport`], read from the registry
    /// instruments; `queue_depth` and `effective_max_batch` are the
    /// engine's live values.
    pub fn report(&self, queue_depth: usize, effective_max_batch: usize) -> ServeReport {
        let sizes = self.batch_size.snapshot();
        ServeReport {
            submitted: self.submitted.value(),
            enqueued: self.enqueued.value(),
            completed: self.completed.value(),
            rejected: self.rejected.value(),
            overloaded: self.overloaded.value(),
            timed_out: self.timed_out.value(),
            batches: self.batches.value(),
            batched_images: sizes.sum,
            degradations: self.degradations.value(),
            queue_depth,
            effective_max_batch,
            request_latency: latency_stats(&self.request_latency.snapshot()),
            amortized_per_image: latency_stats(&self.amortized.snapshot()),
            queue_wait: latency_stats(&self.queue_wait.snapshot()),
            deadline_slack: latency_stats(&self.deadline_slack.snapshot()),
            backend: cnn_he::kernel::active_backend().name().to_string(),
        }
    }

    pub fn events_jsonl(&self) -> String {
        self.events
            .as_ref()
            .map_or_else(String::new, |l| l.to_jsonl())
    }

    pub fn events_dropped(&self) -> u64 {
        self.events.as_ref().map_or(0, |l| l.dropped())
    }

    /// Start the `/metrics` endpoint serving this engine's
    /// registry followed by the process-global one (layer gauges).
    pub fn start_server(&self, addr: SocketAddr) -> std::io::Result<MetricsServer> {
        MetricsServer::start(addr, vec![Arc::clone(&self.registry), he_metrics::global()])
    }

    /// Render this engine's registry (tests; scrapes go through
    /// [`start_server`](Self::start_server)).
    #[cfg(test)]
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::EngineMetrics;
    use crate::config::ServeConfig;
    use he_trace::OpSnapshot;
    use std::time::Duration;

    #[test]
    fn engine_registry_renders_and_parses_with_zero_traffic() {
        let m = EngineMetrics::new(&ServeConfig::default(), 8);
        let text = m.render();
        let expo = he_metrics::expo::parse(&text).expect("fresh registry must parse");
        // all instrument families are present before any traffic
        for family in [
            "he_serve_queue_depth",
            "he_serve_queue_wait_seconds",
            "he_serve_batch_linger_seconds",
            "he_serve_batch_size",
            "he_serve_deadline_slack_seconds",
            "he_serve_request_latency_seconds",
            "he_serve_amortized_per_image_seconds",
            "he_serve_submitted_total",
            "he_serve_enqueued_total",
            "he_serve_requests_total",
            "he_serve_batches_total",
            "he_serve_effective_max_batch",
            "he_serve_degradations_total",
            "he_ops_total",
            "he_kernel_backend_info",
            "he_serve_workers",
            "he_serve_exec_mode_info",
        ] {
            assert!(expo.has_series(family), "missing {family}:\n{text}");
        }
        assert_eq!(expo.value("he_serve_effective_max_batch", &[]), Some(8.0));
    }

    #[test]
    fn lifecycle_hooks_feed_counters_and_event_log() {
        let cfg = ServeConfig {
            event_log_capacity: 16,
            ..Default::default()
        };
        let m = EngineMetrics::new(&cfg, 4);
        let r1 = m.next_request_id();
        m.on_enqueue(r1, Some(Duration::from_millis(250)), 1);
        let waits = [Duration::from_millis(2)];
        let b = m.on_batch(1, Duration::from_millis(3), &waits, 0);
        m.on_exec(
            b,
            1,
            Duration::from_millis(40),
            Duration::from_millis(40),
            &OpSnapshot::default(),
        );
        m.on_complete(
            r1,
            b,
            Some(Duration::from_millis(200)),
            Duration::from_millis(45),
        );
        let jsonl = m.events_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let parsed = he_metrics::events::parse_line(line).expect("event line parses");
            assert_eq!(parsed.to_json(), line);
        }
        let expo = he_metrics::expo::parse(&m.render()).unwrap();
        assert_eq!(
            expo.value("he_serve_requests_total", &[("outcome", "completed")]),
            Some(1.0)
        );
        assert_eq!(expo.value("he_serve_batches_total", &[]), Some(1.0));
        assert_eq!(
            expo.value("he_serve_queue_wait_seconds_count", &[]),
            Some(1.0)
        );
        assert_eq!(
            expo.value("he_serve_deadline_slack_seconds_count", &[]),
            Some(1.0)
        );
        // the report reads the same instruments the exposition renders
        let r = m.report(0, 4);
        assert_eq!((r.enqueued, r.completed, r.batches), (1, 1, 1));
        assert_eq!(r.batched_images, 1);
        assert_eq!(
            expo.value("he_serve_request_latency_seconds_count", &[]),
            Some(1.0)
        );
        let latency = r.request_latency.expect("latency recorded");
        assert!((latency.max - 0.045).abs() < 1e-9);
        let amortized = r.amortized_per_image.expect("amortized recorded");
        assert!((amortized.max - 0.040).abs() < 1e-9);
    }
}
