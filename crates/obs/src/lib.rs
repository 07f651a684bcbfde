//! # xsb-obs — dependency-free observability for the SLG-WAM
//!
//! The paper's evaluation (§3, §6) is quantitative: subgoals evaluated,
//! answers recorded, suspensions/resumptions, and time per strategy. Real
//! XSB ships `statistics/0-2` and table-inspection predicates because a
//! tabled engine is undebuggable without them. This crate is the substrate:
//!
//! * [`metrics`] — monotonic counters, gauges with high-water marks,
//!   monotonic-clock timers, and log2-bucketed latency histograms
//!   ([`metrics::Metrics`]), including per-predicate call/subgoal counts.
//! * [`hist`] — the [`hist::Histogram`] itself: 64 power-of-two buckets,
//!   p50/p95/p99 with in-bucket interpolation, and associative merge.
//! * [`trace`] — a bounded ring buffer of typed SLG events
//!   ([`trace::SlgEvent`]) with an `enabled` fast path, so the disabled
//!   cost on the emulator's hot paths is a single branch.
//! * [`span`] — span-based query tracing ([`span::SpanArena`]): a bounded
//!   arena of timed spans forming a per-query tree, exportable as Chrome
//!   trace-event JSON for Perfetto and rendered as text for the
//!   slow-query log.
//! * [`profile`] — the emulator opcode profiler
//!   ([`profile::OpcodeProfile`]): per-opcode and adjacent-pair dispatch
//!   counts behind a toggle whose disabled cost is one branch.
//! * [`json`] — a tiny in-tree JSON value type ([`json::Json`]) with a
//!   writer and a minimal parser, used for machine-readable bench export.
//!
//! Everything is plain `std`; the crate has no dependencies so it can sit
//! below `xsb-core` without entangling the engine.

pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use hist::Histogram;
pub use json::Json;
pub use metrics::{Counter, Gauge, Metrics, Stopwatch, Timer};
pub use profile::OpcodeProfile;
pub use span::{Span, SpanArena, NO_ID, NO_SPAN};
pub use trace::{EventRing, SlgEvent};

/// The observability bundle a machine carries: the metrics registry
/// (counters, gauges, timers, histograms, opcode profile), the SLG event
/// ring, the span arena, and the slow-query threshold.
#[derive(Default, Debug, Clone)]
pub struct Obs {
    pub metrics: Metrics,
    pub trace: EventRing,
    pub spans: SpanArena,
    /// Queries whose wall time reaches this threshold get their span tree
    /// dumped to the slow-query log (`None` = disabled).
    pub slow_query_threshold_ns: Option<u64>,
}

impl Obs {
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Sets SLG event tracing and the slow-query threshold, and with them
    /// span collection: spans are collected iff tracing is on or a
    /// threshold is set (the slow-query log renders the span tree).
    pub fn configure(&mut self, tracing: bool, slow_query_threshold_ns: Option<u64>) {
        self.trace.enabled = tracing;
        self.slow_query_threshold_ns = slow_query_threshold_ns;
        self.spans.enabled = tracing || slow_query_threshold_ns.is_some();
    }

    /// Clears counters, gauges, timers, histograms, profile samples,
    /// buffered events, and recorded spans; configuration (trace/span
    /// enabled flags and capacities, the profiling toggle, the slow-query
    /// threshold) is preserved.
    pub fn reset(&mut self) {
        self.metrics.reset();
        self.trace.clear();
        self.spans.clear();
    }
}
