//! `tfe-telemetry` — per-layer reuse/latency telemetry for the TFE
//! engine.
//!
//! The paper's whole evaluation is a set of *per-layer breakdowns*
//! (per-layer speedup in Fig. 15/19, per-layer MAC/memory reductions
//! from PPSR/ERRR/SAFM); this crate makes those breakdowns a live,
//! queryable property of the running engine instead of an offline
//! analytic report:
//!
//! * [`Sink`] — the write side. A cloneable handle the engine's hot
//!   path records one [`LayerSample`] into per executed stage.
//!   [`Sink::disabled`] is a no-op (an `Option` branch — near-zero
//!   cost); an enabled sink feeds a **lock-free fixed-capacity ring**
//!   (seqlock slots, overwrite-oldest overflow) plus exact per-layer
//!   cumulative atomics.
//! * [`TelemetryRegistry`] — the read side. Folds a sink into
//!   per-layer aggregates: exact run/wall/counter totals and a
//!   [`LatencyHistogram`] over the ring's surviving window;
//!   [`TelemetryRegistry::merge`] combines registries across sinks.
//! * [`TelemetrySnapshot`] — the JSON-serializable export (the payload
//!   of `tfe-serve`'s stats request and `tfe-loadgen --stats` tables).
//!
//! The crate is a leaf (it depends only on the vendored serde facade)
//! and therefore also owns the two types the rest of the workspace
//! shares with it: the datapath [`Counters`] (re-exported by `tfe-sim`)
//! and the [`LatencyHistogram`] (re-exported by `tfe-serve`).
//!
//! Two invariants the workspace tests pin:
//!
//! * **Bit-identity** — recording must not perturb execution: with an
//!   enabled sink, `Engine::run` returns bit-identical activations and
//!   total counters to the disabled-sink path.
//! * **Exact decomposition** — per-layer cumulative counters sum
//!   exactly to the network-total counters returned by `Engine::run`,
//!   regardless of ring overflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod histogram;
pub mod registry;
mod ring;
pub mod sample;
pub mod sink;

pub use counters::Counters;
pub use histogram::LatencyHistogram;
pub use registry::{LayerStats, LayerTelemetry, TelemetryRegistry, TelemetrySnapshot};
pub use sample::LayerSample;
pub use sink::Sink;
