//! # cbb-telemetry — observability for the clipped-bbox stack
//!
//! The paper's evaluation methodology is counter-driven (node accesses,
//! clip prunes, false hits), and the rest of the workspace pins
//! correctness to those counters. This crate gives them a uniform home
//! and a time dimension:
//!
//! * [`Registry`] — named, labelled **counters**, **gauges**, and
//!   log₂-bucket **histograms** behind pre-resolved atomic handles.
//!   Registration takes a lock once; recording is a single relaxed
//!   `fetch_add` with no allocation.
//! * [`Span`] / [`PhaseTimer`] — per-request **phase tracing**
//!   (queue-wait → coalesce → lock-acquire → execute → respond, plus
//!   engine sub-phases), a fixed array of nanosecond accumulators
//!   carried alongside each request.
//! * [`SlowQueryRing`] — bounded **top-K slowest requests**, each with
//!   its phase breakdown and work counters.
//! * Exposition — [`Registry::snapshot`] yields a
//!   [`TelemetrySnapshot`] renderable as Prometheus-style text
//!   ([`TelemetrySnapshot::render_text`]) or JSON
//!   ([`TelemetrySnapshot::to_json`]).
//!
//! Everything is **no-op capable**: a [`TelemetryConfig::disabled`]
//! registry hands out handles that record nothing, so instrumented code
//! runs unchanged with zero samples retained (the benchmark's
//! `telemetry.overhead_frac` prices the enabled registry).
//!
//! This crate is a leaf: it depends on nothing in the workspace, and
//! `serve`/`engine`/`bench` depend on it.

#![forbid(unsafe_code)]

mod hist;
mod registry;
mod slow;
mod span;

pub use hist::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{
    Counter, FamilySnapshot, FloatGauge, Gauge, MetricKind, Registry, SeriesSnapshot, SeriesValue,
    TelemetrySnapshot,
};
pub use slow::{SlowQuery, SlowQueryRing};
pub use span::{Phase, PhaseTimer, Span};

/// How much telemetry a service should collect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether the registry records at all. When `false` every handle
    /// is a no-op and scrapes are empty.
    pub enabled: bool,
    /// Slow-query ring capacity (top-K by service time). `0` disables
    /// the ring independently of `enabled`.
    pub slow_query_capacity: usize,
}

impl Default for TelemetryConfig {
    /// Enabled, retaining the 16 slowest requests.
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            slow_query_capacity: 16,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry fully off: no samples recorded, empty scrapes, inert
    /// slow ring.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            slow_query_capacity: 0,
        }
    }

    /// Build the registry this configuration calls for.
    pub fn build_registry(&self) -> Registry {
        if self.enabled {
            Registry::new()
        } else {
            Registry::disabled()
        }
    }

    /// Build the slow-query ring this configuration calls for (inert
    /// when disabled).
    pub fn build_slow_ring(&self) -> SlowQueryRing {
        if self.enabled {
            SlowQueryRing::new(self.slow_query_capacity)
        } else {
            SlowQueryRing::new(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builds_matching_registry() {
        assert!(TelemetryConfig::default().build_registry().is_enabled());
        assert!(!TelemetryConfig::disabled().build_registry().is_enabled());
        assert_eq!(TelemetryConfig::disabled().build_slow_ring().capacity(), 0);
        assert_eq!(TelemetryConfig::default().build_slow_ring().capacity(), 16);
    }
}
