//! # tilelink-probe
//!
//! Zero-dependency observability for the TileLink reproduction. The crate has
//! no opinion about *what* is being measured — the sibling crates thread it
//! through the compile pipeline, the simulator and the tuner — and provides
//! four small building blocks:
//!
//! * [`span`] / [`SpanGuard`] — a hierarchical wall-clock **span profiler**.
//!   Scopes are RAII guards, nest across call frames, are tracked per thread,
//!   and cost ~a nanosecond when profiling is disabled (one relaxed atomic
//!   load, no allocation, no lock). Finished spans record total and
//!   self-minus-children time so reports can attribute where a phase's time
//!   actually goes.
//! * [`metrics`] — a fixed **metrics registry** of counters, gauges and
//!   histograms (tune-cache hits/misses/revision-invalidations, candidates
//!   simulated/cached/pruned, sims run, scratch reuses, …) exportable as
//!   JSON. Counters are lock-free relaxed atomics so they are safe to bump
//!   from hot-ish paths (per-simulation granularity, never per-event).
//! * [`chrome`] — a Chrome `trace_event` JSON builder used both for
//!   host-side span timelines and for the simulated cluster [`Trace`]
//!   (ranks as processes, resource lanes as threads), openable in Perfetto
//!   or `chrome://tracing`.
//! * [`json`] — a strict recursive-descent JSON parser used by the tests (and
//!   CI) to hold the exporters to validator-grade output rather than
//!   "looks like JSON".
//!
//! [`Trace`]: https://docs.rs/tilelink-sim

#![deny(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use chrome::ChromeTrace;
pub use json::{parse_json, JsonError, JsonValue};
pub use metrics::{metrics_json, Counter, Gauge, Histogram};
pub use report::{PhaseStats, ProfileReport};
pub use span::{enabled, set_enabled, span, take_spans, SpanGuard, SpanRecord};
