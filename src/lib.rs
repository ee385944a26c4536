//! # tfe — reproduction of TFE (MICRO 2020)
//!
//! This facade crate re-exports the whole workspace: an open-source
//! reproduction of *TFE: Energy-efficient Transferred Filter-based Engine
//! to Compress and Accelerate Convolutional Neural Networks* (Mo et al.,
//! MICRO 2020).
//!
//! The workspace is organized bottom-up:
//!
//! * [`tensor`] — tensors, Q8.8 fixed point, reference convolution.
//! * [`transfer`] — DCNN / SCNN transferred-filter algorithms and the
//!   analytic compression formulas (paper Eq. 1–5).
//! * [`nets`] — layer tables for the paper's seven benchmark networks and
//!   their conversion to transferred networks.
//! * [`sim`] — the TFE simulator: functional datapath (PE array, SR group,
//!   PPSR, ERRR, SAFM) plus the per-layer performance model.
//! * [`telemetry`] — per-layer reuse/latency telemetry: the lock-free
//!   sample sink the engine records into, and the registry/snapshot
//!   types that export per-layer breakdowns live.
//! * [`serve`] — a dynamic-batching inference service over the simulator:
//!   bounded admission queue, micro-batcher, executor pool, metrics, and
//!   a length-prefixed JSON TCP protocol.
//! * [`fleet`] — the multi-model serving tier over [`serve`]: one engine
//!   shard per model with replica pools, routed dispatch by model id,
//!   merged fleet telemetry, and zero-downtime engine hot-swap.
//! * [`eyeriss`] — the row-stationary baseline simulator.
//! * [`energy`] — 65 nm area / energy model (Table III, Fig. 14, Fig. 18).
//! * [`baselines`] — analytical models of the comparison architectures
//!   (UCNN, SnaPEA, Winograd, …).
//! * [`train`] — a minimal CNN training substrate with transferred-filter
//!   weight tying (Table II accuracy experiment).
//! * [`core`] — the [`core::Evaluator`] joining the analytic models.
//!
//! # Quickstart
//!
//! ```
//! use tfe::core::{Evaluator, TransferScheme};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let evaluator = Evaluator::new();
//! let report = evaluator.run_network("VGGNet", TransferScheme::Scnn)?;
//! assert!(report.conv_speedup_vs_eyeriss() > 1.0);
//! # Ok(())
//! # }
//! ```

pub use tfe_baselines as baselines;
pub use tfe_core as core;
pub use tfe_energy as energy;
pub use tfe_eyeriss as eyeriss;
pub use tfe_fleet as fleet;
pub use tfe_nets as nets;
pub use tfe_serve as serve;
pub use tfe_sim as sim;
pub use tfe_telemetry as telemetry;
pub use tfe_tensor as tensor;
pub use tfe_train as train;
pub use tfe_transfer as transfer;
