//! `tfe-fleet` — a sharded multi-model serving tier over `tfe-serve`.
//!
//! The ROADMAP's north star is serving at fleet scale; the TFE paper
//! compresses one network onto one engine. This crate applies the
//! scaling idea one level up (EIE partitions compressed-weight work
//! across PEs; the Multi-Mode Inference Engine serves many layer
//! configurations on one substrate — see PAPERS.md): many compiled
//! engine shards behind one router.
//!
//! * **Model registry** — a [`FleetSpec`] names each model and its
//!   [`FunctionalNetwork`](tfe_sim::network::FunctionalNetwork);
//!   [`Fleet::start`] compiles one engine shard per (network ×
//!   [`ReuseConfig`](tfe_transfer::analysis::ReuseConfig)) and starts a
//!   replica pool per shard — every replica has its own bounded
//!   admission queue, micro-batcher, and scratch pool, but shares the
//!   shard's one `Arc<Engine>` and telemetry sink.
//! * **Routed dispatch** — [`FleetClient`] routes by model id (`None` =
//!   the default model, i.e. protocol-v1 behavior) with round-robin
//!   replica selection, per-shard shed accounting, and a typed
//!   [`UnknownModel`](tfe_serve::Rejected::UnknownModel) rejection for
//!   unserved ids.
//! * **Merged fleet telemetry** — each shard owns a
//!   [`TelemetryRegistry`](tfe_telemetry::TelemetryRegistry); a
//!   [`FleetSnapshot`] folds them with `merge()` into one per-model,
//!   per-layer view, exported through the TCP stats response (protocol
//!   v2 `models` field) and `tfe-loadgen --stats`.
//! * **Zero-downtime hot-swap** — [`Fleet::hot_swap`] compiles a
//!   replacement engine off-path, atomically swaps it live, then drains
//!   the old generation: every in-flight request completes (bit-
//!   identically) against the engine that admitted it, and the old
//!   generation's metrics and telemetry fold into the shard's history.
//! * **One wire protocol** — [`FleetClient`] implements
//!   [`tfe_serve::Frontend`], so `tfe_serve::TcpServer::bind` serves a
//!   whole fleet exactly as it serves one model.
//!
//! # Example
//!
//! ```
//! use tfe_fleet::demo::{self, demo_images};
//! use tfe_fleet::Fleet;
//!
//! let spec = demo::demo_fleet(&["demo", "alexnet"], 7).unwrap();
//! let fleet = Fleet::start(spec).unwrap();
//! let client = fleet.client();
//! let image = demo_images(1, 42).remove(0);
//! let reply = client.infer(Some("alexnet"), image).unwrap();
//! assert!(reply.counters.multiplies > 0);
//! let snapshot = fleet.shutdown();
//! assert_eq!(snapshot.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demo;
pub mod router;
pub mod shard;
pub mod snapshot;
pub mod spec;

pub use router::{Fleet, FleetClient};
pub use shard::Shard;
pub use snapshot::FleetSnapshot;
pub use spec::{FleetSpec, ModelSpec};
