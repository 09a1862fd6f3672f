//! Thread-aware RAII spans and the recording session.
//!
//! Span model: a [`SpanGuard`] measures wall-clock from construction to
//! drop and, if recording is on, pushes one [`SpanEvent`] with the id
//! of the OS thread it ran on. Thread ids are small sequential integers
//! assigned on first use (stable for the life of the thread), so the
//! vendored-rayon worker threads appear as distinct tracks in
//! chrome://tracing and as distinct stacks in the folded export.
//!
//! Recording is **off by default**: outside a recording window a span
//! construction is one relaxed atomic load (and with the `enabled`
//! feature off, nothing at all). Recording state and the event buffer
//! are process-global; [`TraceSession`] wraps them in a global mutex so
//! concurrent traced runs (e.g. parallel tests) serialize instead of
//! interleaving events and polluting each other's counter deltas.

/// One completed span: `[start_us, start_us + dur_us)` relative to the
/// process trace epoch, on thread `tid`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (layer, unit, or primitive label).
    pub name: String,
    /// Category tag (chrome trace `cat` field), e.g. `"layer"`, `"unit"`.
    pub cat: &'static str,
    /// Start, microseconds since the trace epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Small sequential thread id (0 = first thread to record).
    pub tid: u64,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::SpanEvent;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    pub static RECORDING: AtomicBool = AtomicBool::new(false);
    pub static EVENTS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
    pub static SESSION: Mutex<()> = Mutex::new(());
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }

    pub fn epoch() -> Instant {
        *EPOCH.get_or_init(Instant::now)
    }

    pub fn tid() -> u64 {
        TID.with(|t| *t)
    }

    pub fn push(ev: SpanEvent) {
        lock_events().push(ev);
    }

    pub fn lock_events<'a>() -> MutexGuard<'a, Vec<SpanEvent>> {
        EVENTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// True while a recording window is open (always false when the
/// `enabled` feature is off).
#[inline]
#[must_use]
pub fn is_recording() -> bool {
    #[cfg(feature = "enabled")]
    {
        imp::RECORDING.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// RAII span: measures from construction to drop, emitting a
/// [`SpanEvent`] iff recording was on at construction.
#[must_use = "a span measures until dropped; binding to _ drops immediately"]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    live: Option<LiveSpan>,
}

#[cfg(feature = "enabled")]
struct LiveSpan {
    name: String,
    cat: &'static str,
    start: std::time::Instant,
}

/// Open a span with a static name. Free when recording is off.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    span_fn(cat, || name.to_string())
}

/// Open a span with an owned (pre-formatted) name.
#[inline]
pub fn span_owned(name: String, cat: &'static str) -> SpanGuard {
    span_fn(cat, move || name)
}

/// Open a span whose name is built lazily — the closure runs only if
/// recording is on, so `format!` costs nothing on untraced runs.
#[inline]
pub fn span_fn<F: FnOnce() -> String>(cat: &'static str, name: F) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        if is_recording() {
            // Touch the epoch before taking the start time so the first
            // span of a session can't start "before" the epoch.
            let _ = imp::epoch();
            return SpanGuard {
                live: Some(LiveSpan {
                    name: name(),
                    cat,
                    start: std::time::Instant::now(),
                }),
            };
        }
        SpanGuard { live: None }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (cat, name);
        SpanGuard {}
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some(live) = self.live.take() {
            let epoch = imp::epoch();
            let end = std::time::Instant::now();
            let start_us = live.start.duration_since(epoch).as_secs_f64() * 1e6;
            let dur_us = end.duration_since(live.start).as_secs_f64() * 1e6;
            imp::push(SpanEvent {
                name: live.name,
                cat: live.cat,
                start_us,
                dur_us,
                tid: imp::tid(),
            });
        }
    }
}

/// An exclusive tracing window. Holding a `TraceSession` owns the
/// process-global recorder: construction acquires a global lock (so
/// sessions on other threads queue up), clears the event buffer, and
/// switches recording on; [`TraceSession::finish`] (or drop) switches
/// recording off and drains the captured events.
///
/// With the `enabled` feature off this is an empty token and
/// `finish()` returns no events.
pub struct TraceSession {
    #[cfg(feature = "enabled")]
    _lock: std::sync::MutexGuard<'static, ()>,
    #[cfg(feature = "enabled")]
    armed: bool,
}

impl TraceSession {
    /// Begin an exclusive recording window (blocks while another
    /// session is open).
    #[must_use]
    pub fn begin() -> Self {
        #[cfg(feature = "enabled")]
        {
            let lock = imp::SESSION
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            imp::lock_events().clear();
            imp::RECORDING.store(true, std::sync::atomic::Ordering::SeqCst);
            TraceSession {
                _lock: lock,
                armed: true,
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            TraceSession {}
        }
    }

    /// Stop recording and return the captured events (empty when the
    /// `enabled` feature is off).
    #[must_use]
    pub fn finish(mut self) -> Vec<SpanEvent> {
        #[cfg(feature = "enabled")]
        {
            self.disarm();
            std::mem::take(&mut *imp::lock_events())
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = &mut self;
            Vec::new()
        }
    }

    #[cfg(feature = "enabled")]
    fn disarm(&mut self) {
        if self.armed {
            imp::RECORDING.store(false, std::sync::atomic::Ordering::SeqCst);
            self.armed = false;
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        self.disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes this module's tests: a span opened by one test while
    /// another test's session records would land in that session.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn session_captures_spans_with_thread_ids() {
        let _serial = serial();
        let session = TraceSession::begin();
        {
            let _outer = span("outer", "test");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span_owned("inner#0".to_string(), "test");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let t = std::thread::spawn(|| {
            let _s = span("worker", "test");
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        t.join().unwrap();
        let events = session.finish();

        #[cfg(feature = "enabled")]
        {
            assert_eq!(events.len(), 3);
            let outer = events.iter().find(|e| e.name == "outer").unwrap();
            let inner = events.iter().find(|e| e.name == "inner#0").unwrap();
            let worker = events.iter().find(|e| e.name == "worker").unwrap();
            assert!(inner.start_us >= outer.start_us);
            assert!(inner.dur_us <= outer.dur_us);
            assert_eq!(outer.tid, inner.tid);
            assert_ne!(worker.tid, outer.tid, "worker thread gets its own tid");
        }
        #[cfg(not(feature = "enabled"))]
        assert!(events.is_empty());
    }

    #[test]
    fn no_recording_outside_session() {
        let _serial = serial();
        {
            let _s = span("orphan", "test");
        }
        let session = TraceSession::begin();
        let events = session.finish();
        assert!(
            events.iter().all(|e| e.name != "orphan"),
            "span outside a session must not be recorded"
        );
        assert!(!is_recording());
    }
}
