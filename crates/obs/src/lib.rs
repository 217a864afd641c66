//! Unified telemetry for the PCMap simulator.
//!
//! Every figure and table in the paper is an observability claim — IRLP,
//! read-latency percentiles, rollback rates, chip-occupancy timelines —
//! so this crate makes those first-class instead of scattering ad-hoc
//! recorders through the stack:
//!
//! - [`metric`] — a registry with typed counter/gauge/histogram handles,
//!   near-zero-cost when disabled, and [`MetricsSnapshot`]s that merge
//!   across the four channels' controllers.
//! - [`trace`] — the Figure 5 chip-timeline Gantt view, drawn from the
//!   lifecycle tracer's per-request chip records.
//! - [`hist`] — the log-bucketed [`LatencyHistogram`] (p50/p95/p99),
//!   shared by controllers and reports.
//! - [`series`] — windowed throughput / IRLP time-series.
//! - [`stall`] — stall-attribution breakdown reconciling the controller
//!   counters.
//! - [`tenant`] — dense per-tenant outcome/SLO rows for the serve tier,
//!   merging commutatively across shards with bounded top-K export
//!   (DESIGN.md §16).
//! - [`lifecycle`] — the one per-request stream: causal timelines with
//!   every simulated cycle of a traced request attributed to a
//!   [`lifecycle::WaitCause`] or service phase, each chip command as a
//!   role-tagged [`ChipRecord`], a conservation invariant and a
//!   critical-path reducer (DESIGN.md §13).
//! - [`json`] / [`csv`] / [`export`] — machine-readable exporters used by
//!   the bench binaries to write `results/*.json` and `results/*.csv`.
//!
//! The crate is dependency-light by design: `std` plus `pcmap-types` only.

#![warn(missing_docs)]

pub mod csv;
pub mod export;
pub mod hist;
pub mod json;
pub mod lifecycle;
pub mod metric;
pub mod series;
pub mod stall;
pub mod tenant;
pub mod trace;

pub use hist::LatencyHistogram;
pub use json::Value;
pub use lifecycle::{
    CausalSummary, ChipRecord, ChipRole, LifecycleReport, LifecycleTracer, Phase, RecoveryKind,
    ReqTimeline, Resource, Segment, WaitCause,
};
pub use metric::{CounterId, GaugeId, GaugeRule, HistogramId, MetricRegistry, MetricsSnapshot};
pub use series::{Window, WindowedSeries};
pub use stall::StallBreakdown;
pub use tenant::{TenantStats, TenantTable};
pub use trace::ChipTrace;
