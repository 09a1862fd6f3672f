//! # he-trace
//!
//! Zero-external-dependency structured tracing and metrics for the
//! encrypted-inference stack:
//!
//! * **Counters** ([`counters`]) — process-global atomic counters for HE
//!   primitives (NTTs, limb modmuls, rotations, relinearizations,
//!   rescales, key switches, CRT codec calls). Instrumented crates call
//!   `record_*` once per primitive; consumers diff [`OpSnapshot`]s
//!   around a region to attribute work.
//! * **Spans** ([`mod@span`]) — RAII wall-clock spans with thread identity,
//!   recorded only while a [`TraceSession`] has recording switched on.
//!   Works under the vendored rayon pool: each OS thread gets a stable
//!   small integer id, so parallel unit execution shows up as parallel
//!   tracks in the exported trace.
//! * **Export** ([`chrome`], [`folded`]) — hand-rolled serializers (no
//!   serde) for chrome://tracing JSON and flamegraph folded stacks,
//!   plus a minimal JSON parser ([`json`]) used to validate emitted
//!   traces round-trip.
//! * **Reporting** ([`report`], [`table`]) — a `TraceReport` per-layer
//!   breakdown table and the shared column-aligned text-table
//!   formatter.
//!
//! ## Zero-cost when disabled
//!
//! All instrumentation entry points (`record_*`, [`span::span`],
//! recording control) are `#[inline]` empty bodies unless the crate is
//! built with the `enabled` feature; instrumented hot paths compile to
//! the uninstrumented machine code. Consumer crates forward their own
//! default-on `trace` feature to `he-trace/enabled`, so
//! `--no-default-features` builds prove the no-op path compiles.

#![forbid(unsafe_code)]

pub mod cats;
pub mod chrome;
pub mod counters;
pub mod folded;
pub mod json;
pub mod report;
pub mod span;
pub mod table;

pub use chrome::{to_chrome_json, validate_chrome_json};
pub use counters::{
    record_crt_decompose, record_crt_recompose, record_ct_mult, record_fault_detected,
    record_fault_injected, record_keyswitch, record_modmul_limbs, record_ntt_fwd, record_ntt_inv,
    record_relin, record_rescale, record_rotation, record_scalar_mac, FaultSnapshot, OpSnapshot,
};
pub use folded::to_folded_stacks;
pub use report::{TraceReport, TraceRow, UnitStats};
pub use span::{is_recording, span, span_fn, span_owned, SpanEvent, SpanGuard, TraceSession};
pub use table::{Align, Table};
