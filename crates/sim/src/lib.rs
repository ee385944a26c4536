//! The TFE simulator (Sections III–IV of the paper).
//!
//! Two coupled models share one set of counters:
//!
//! * The **functional datapath** is one compiled executor: [`engine`]
//!   compiles a network's weights once (quantized row tables, SCNN
//!   orientation schedules, pre-folded biases) and runs every request
//!   through the PPSR stacked-register dataflow ([`ppsr`], with a
//!   cycle-stepped register-transfer view in [`sr_pipeline`]) and the
//!   ERRR cyclic partial-sum memory system ([`errr`]) on real
//!   fixed-point data, producing actual ofmap values. [`functional`],
//!   [`network`], [`batch`], and `tfe-serve` are thin entry points over
//!   the same engine. Tests check it bit-exactly against the reference
//!   convolution of the *expanded* transferred filters — proving the reuse
//!   machinery eliminates computation without changing results.
//! * The **performance model** ([`perf`], [`safm`], [`memory`]) counts
//!   cycles, multiplies and memory accesses per layer analytically, so
//!   whole networks (15 GMAC of VGG-16) evaluate in microseconds. Property
//!   tests pin the performance model's MAC counts to the functional
//!   datapath's counted multiplies on randomized small layers.
//!
//! # Example
//!
//! ```
//! use tfe_nets::zoo;
//! use tfe_sim::perf::{NetworkPerf, PerfConfig};
//! use tfe_transfer::TransferScheme;
//!
//! let vgg = zoo::vgg16();
//! let perf = NetworkPerf::evaluate(&vgg.plan(TransferScheme::Scnn), &PerfConfig::default());
//! // The TFE executes ~4x fewer multiplies than the dense convolution on
//! // VGG's (fully transferable) conv layers.
//! assert!(perf.conv_mac_reduction() > 3.5);
//! ```

#![deny(unsafe_code)]
#![deny(
    unsafe_op_in_unsafe_fn,
    clippy::undocumented_unsafe_blocks,
    clippy::multiple_unsafe_ops_per_block
)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod counters;
pub mod engine;
pub mod errr;
pub mod functional;
pub mod input_memory;
pub mod memory;
pub mod network;
pub mod output;
pub mod perf;
pub mod ppsr;
pub mod safm;
pub mod sr_pipeline;

mod error;

pub use error::SimError;
