//! `obf_obs` — the workspace observability layer: a metrics registry
//! (counters, gauges, log2-bucketed histograms, all atomics), `Span`
//! wall-clock timers, per-request trace ids, and the `OBFUREQLOG v1`
//! structured request-log format.
//!
//! Design constraints, in order:
//!
//! 1. **Digest neutrality.** Nothing in this crate may influence an
//!    answer byte. Metrics are observed *about* request handling, never
//!    consulted *by* it; trace ids ride alongside requests and appear
//!    only in logs and metric labels, never in replies.
//! 2. **No locks on the hot path.** Every increment/record is a single
//!    relaxed atomic RMW. The registry's interior lock is taken only
//!    when a handle is first created (or when rendering); steady-state
//!    code holds `Arc<Counter>` / `Arc<Histogram>` handles and never
//!    touches the map.
//! 3. **Dependency-free.** `std` only, so every crate in the workspace
//!    (including `obf_core` under the engine) can depend on it.
//!
//! Wall-clock reads (`Instant::now`, `SystemTime::now`) are deliberately
//! concentrated here so the D2 `wall-clock` audit rule can allowlist
//! this one crate and keep time reads quarantined everywhere else.

pub mod clock;
pub mod metrics;
pub mod reqlog;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use span::Span;
pub use trace::next_trace_id;
