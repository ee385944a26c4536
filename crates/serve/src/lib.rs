//! `tfe-serve` — a dynamic-batching inference service on the TFE
//! simulator.
//!
//! The ROADMAP's north star is a system that serves heavy traffic; this
//! crate supplies the serving story on top of the compiled engine's
//! packed sweep ([`Engine::run_packed`](tfe_sim::engine::Engine::run_packed)),
//! one micro-batch per executor thread:
//!
//! * **Admission control & backpressure** — a bounded request queue
//!   rejects arrivals beyond capacity with a typed
//!   [`Rejected::QueueFull`]; per-request deadlines drop expired work
//!   before it wastes a batch slot; shutdown drains everything already
//!   admitted.
//! * **Dynamic micro-batching** — pending requests coalesce into
//!   batches, flushing at `max_batch_size` or after `max_batch_delay`,
//!   whichever comes first (the serving analogue of the paper's
//!   ping-pong input memory keeping the PE array fed).
//! * **Bit-identical results** — every batched request returns exactly
//!   the activations and counters that a direct
//!   [`FunctionalNetwork::run`](tfe_sim::network::FunctionalNetwork::run)
//!   call would produce; batching is invisible to the caller.
//! * **Two front-ends** — an in-process [`Client`] handle and a
//!   std-only [`TcpServer`] speaking a length-prefixed JSON protocol
//!   ([`protocol`]) over the vendored serde facades. The TCP server is
//!   generic over a [`Frontend`], so the `tfe-fleet` router serves the
//!   same wire protocol (v2: optional `model` routing field, per-model
//!   stats) through the same transport.
//! * **Metrics** — fixed-bucket latency histograms (p50/p95/p99),
//!   throughput/rejection counters, a queue-depth gauge, and merged
//!   simulator [`Counters`](tfe_sim::counters::Counters), exposed via a
//!   stats request on the same protocol.
//! * **Per-layer telemetry** — the compiled engine records one
//!   [`tfe_telemetry`] sample per stage per request into a lock-free
//!   ring; the stats request additionally returns a
//!   [`TelemetrySnapshot`] with live per-layer latency quantiles and
//!   reuse counters (one entry per compiled stage).
//!
//! # Example
//!
//! ```
//! use tfe_serve::{Service, ServeConfig};
//! use tfe_sim::network::FunctionalNetwork;
//! use tfe_tensor::{fixed::Fx16, shape::LayerShape, tensor::Tensor4};
//! use tfe_transfer::TransferScheme;
//!
//! // A one-stage SCNN network: conv 3→8, ReLU, 2×2 pooling.
//! let shape = LayerShape::conv("conv", 3, 8, 12, 12, 3, 1, 1).unwrap();
//! let mut seed = 7u32;
//! let mut next = || {
//!     seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
//!     (seed >> 16) as f32 / 65536.0 - 0.5
//! };
//! let net = FunctionalNetwork::random(&[(shape, true)], TransferScheme::Scnn, &mut next).unwrap();
//! let service = Service::start(net, ServeConfig::default()).unwrap();
//! let client = service.client();
//! let image = Tensor4::from_fn([1, 3, 12, 12], |_| Fx16::from_f32(next()));
//! let reply = client.infer(image).unwrap();
//! assert!(reply.counters.multiplies > 0);
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;

pub mod config;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod service;
pub mod tcp;

pub use config::ServeConfig;
pub use metrics::{LatencyHistogram, Metrics, MetricsSnapshot};
pub use protocol::{ModelStats, PROTOCOL_VERSION};
pub use service::{Client, InferenceReply, Rejected, ServeResult, Service, Ticket};
pub use tcp::{Frontend, TcpServer};
pub use tfe_telemetry::{LayerTelemetry, TelemetrySnapshot};
