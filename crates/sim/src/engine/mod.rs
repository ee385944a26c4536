//! The compiled execution engine: one layer-IR behind every run path.
//!
//! Every way of executing a network in this crate flows through one
//! [`Engine`] compiled once from the network's weights:
//!
//! * [`crate::network::FunctionalNetwork::run`] — the compatibility
//!   wrapper: compiles (and caches) an engine per [`ReuseConfig`], then
//!   runs it.
//! * [`crate::functional::run_layer`] — the single-layer reference API:
//!   compiles a one-stage engine and runs only its convolution.
//! * [`crate::batch::run_engine_batch`] — the batch runner: one image
//!   chunk per worker thread, each checking an arena out of a
//!   [`ScratchPool`] and running as one [`Engine::run_packed`].
//! * `tfe-serve` — the service compiles one engine at startup and every
//!   executor runs each micro-batch through [`Engine::run_packed`].
//!
//! The paper's premise (shared with EIE's compile-then-execute split and
//! UCNN/CoDR, see PAPERS.md) is that reuse structure is a property of
//! the **weights**, computable once; the engine is that property made
//! explicit, so every future optimization lands in one executor instead
//! of two.
//!
//! Module map:
//!
//! * `mod.rs` (this file) — the [`Engine`] type: [`Engine::compile`]
//!   and accessors ([`Engine::reuse`], [`Engine::stats`],
//!   [`Engine::layer_plans`], …).
//! * `ir.rs` — the compiled stage tables: flat quantized weight tables
//!   (filter rows, tap-major filter groups for the filter-vector sweep,
//!   or each transferred unit's weight sets), per-unit offsets,
//!   compressed-sparse taps or transferred read schedules,
//!   [`PrepareStats`]; and the one choice of each dense stage's executor
//!   ([`ExecMode`] under a [`ModePolicy`]), recorded in the kind of its
//!   units.
//! * `kernels.rs` — the two inner kernels. The channel-stacked row
//!   kernel: a `kernels::RowKernel` per stage, selected once at compile
//!   time from the filter extent `K` (specialized K ∈ {1, 3, 5, 7} plus
//!   a generic fallback), summing a whole channel band per call in
//!   register-blocked `i16 → i32` passes while preserving the scalar
//!   reference's exact saturating addition order, with one (forward)
//!   weight order. And the filter-vector pass: a group of filters at
//!   listed positions, one broadcast input against every filter's tap.
//! * `exec.rs` — the row-pass run phase ([`Engine::run`],
//!   [`Engine::run_batched`], and [`Engine::run_packed`], the one
//!   pack → run → split): one row-interleaved batch layout, PPSR row
//!   passes through `crate::ppsr`'s one row sweep, the one ERRR ring
//!   fill, the one window combine, each part's finishing of its planes
//!   through the output memory system ([`crate::output`]), and the one
//!   scoped-thread fan-out both the stage partitioner and the batch
//!   runner use.
//! * `sparse.rs` — the compressed-sparse row pass the dense sweep runs
//!   on pruned dense stages, and the builder of its tap lists.
//! * `scratch.rs` — the run-phase arenas ([`Scratch`]) and the bounded
//!   [`ScratchPool`] long-lived services check warm arenas out of.
//!
//! **Compile** does all weight-side work exactly once: each transferred
//! unit's read schedule is resolved against the [`ReuseConfig`], every
//! filter row the run reads — dense rows, DCNN meta rows, the SCNN
//! orientations each orbit group's reads use — is quantized into one
//! flat contiguous [`tfe_tensor::fixed::Fx16`] table per stage, and
//! per-filter biases are pre-folded to accumulator precision.
//!
//! **Run** executes requests against a caller-owned [`Scratch`] arena:
//! flat padded planes, flat accumulator planes, recycled ERRR ring
//! stream buffers — after a warm-up request the steady state performs
//! **no heap allocation** in the datapath and **no weight quantization**
//! (asserted via [`Scratch::run_quantized_rows`]).
//!
//! Correctness anchor: the engine's outputs are pinned bit-exactly
//! against [`tfe_tensor::conv::conv2d_fx`] on the *expanded* transferred
//! filters (the reuse machinery must be a pure optimization), and its
//! counters against the analytic model — see `tests/parallel_parity.rs`
//! and the oracle tests in [`crate::functional`].

mod exec;
mod ir;
pub(crate) mod kernels;
mod scratch;
mod sparse;

pub use exec::BatchedRun;
pub use ir::PrepareStats;
pub use scratch::{Scratch, ScratchPool};

pub(crate) use exec::{chunk_lengths, fan_out};

use crate::network::FunctionalNetwork;
use crate::SimError;
use tfe_nets::{LayerPlan, NetworkLayer, TransferMode};
use tfe_telemetry::{Sink, TelemetryRegistry};
use tfe_tensor::shape::LayerShape;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::mode::{ExecMode, ModePolicy};

/// A network compiled for repeated execution: all weight-side work of
/// every request hoisted into one compile pass.
///
/// The reuse configuration is fixed at compile time because the
/// transferred units' read schedules, tables and charges depend on it.
#[derive(Debug, Clone)]
pub struct Engine {
    pub(crate) stages: Vec<ir::StageIr>,
    pub(crate) reuse: ReuseConfig,
    pub(crate) stats: PrepareStats,
    /// Telemetry sink the run phase records per-stage samples into;
    /// disabled (a no-op) unless [`Engine::enable_telemetry`] /
    /// [`Engine::set_sink`] attached one. Clones of the engine share
    /// the same sink storage.
    pub(crate) sink: Sink,
}

impl Engine {
    /// Compiles `net` for repeated execution under `reuse`: quantizes
    /// every filter row the run reads, resolves each transferred unit's
    /// read schedule, and pre-folds biases.
    ///
    /// # Errors
    ///
    /// Rejects the same layers [`crate::functional::run_layer`] rejects
    /// (transferred weights on grouped/depth-wise shapes, filter-count
    /// mismatches, inconsistent transferred representations) — at
    /// compile time instead of on the first request.
    pub fn compile(net: &FunctionalNetwork, reuse: ReuseConfig) -> Result<Self, SimError> {
        Engine::compile_with_policy(net, reuse, &ModePolicy::default())
    }

    /// [`Engine::compile`] with an explicit [`ModePolicy`] choosing each
    /// dense stage's executor. Every policy yields bit-identical
    /// activations and counters — the policy only chooses *how* dense
    /// stages execute ([`ExecMode`]), so forcing a mode (e.g.
    /// [`ModePolicy::ForceSparse`]) is safe for any network and is how
    /// the parity tests and benches pin the alternate executors.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::compile`].
    pub fn compile_with_policy(
        net: &FunctionalNetwork,
        reuse: ReuseConfig,
        policy: &ModePolicy,
    ) -> Result<Self, SimError> {
        let mut stats = PrepareStats::default();
        let stages = net
            .stages()
            .iter()
            .map(|stage| {
                ir::compile_stage(
                    &stage.shape,
                    &stage.weights,
                    &stage.bias,
                    stage.output,
                    reuse,
                    &mut stats,
                    policy,
                )
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        Ok(Engine::from_stages(stages, reuse, stats))
    }

    /// Compiles a one-stage engine from borrowed layer parts — the
    /// single-layer path behind [`crate::functional::run_layer`].
    pub(crate) fn compile_single(
        shape: &LayerShape,
        weights: &TransferredLayer,
        reuse: ReuseConfig,
    ) -> Result<Self, SimError> {
        let mut stats = PrepareStats::default();
        let stage = ir::compile_stage(
            shape,
            weights,
            &[],
            crate::output::OutputConfig::RELU_ONLY,
            reuse,
            &mut stats,
            &ModePolicy::default(),
        )?;
        Ok(Engine::from_stages(vec![stage], reuse, stats))
    }

    fn from_stages(stages: Vec<ir::StageIr>, reuse: ReuseConfig, stats: PrepareStats) -> Self {
        Engine {
            stages,
            reuse,
            stats,
            sink: Sink::disabled(),
        }
    }

    /// Attaches a freshly enabled telemetry sink labeled with this
    /// engine's stage names (one accumulator per compiled stage) and a
    /// sample ring of `ring_capacity` records, returning a handle to
    /// it. Subsequent [`Engine::run`] calls emit one
    /// [`tfe_telemetry::LayerSample`] per stage; recording never
    /// perturbs activations or counters (pinned in
    /// `tests/telemetry.rs`).
    pub fn enable_telemetry(&mut self, ring_capacity: usize) -> Sink {
        let labels = self
            .stages
            .iter()
            .map(|s| s.shape.name().to_owned())
            .collect();
        // Each layer also carries its compiled execution mode, so stats
        // surfaces (serve Stats responses, tfe-loadgen tables) show how
        // every stage actually executes.
        let modes = self
            .stages
            .iter()
            .map(|s| s.exec_mode().as_str().to_owned())
            .collect();
        self.sink = Sink::enabled_with_modes(labels, modes, ring_capacity);
        self.sink.clone()
    }

    /// Replaces the engine's telemetry sink (e.g. with
    /// [`Sink::disabled`] to stop recording, or a shared sink so
    /// several engines feed one registry).
    pub fn set_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }

    /// The engine's current telemetry sink (disabled by default).
    #[must_use]
    pub fn sink(&self) -> &Sink {
        &self.sink
    }

    /// Folds the sink's current state into per-layer aggregates —
    /// empty when telemetry was never enabled.
    #[must_use]
    pub fn telemetry(&self) -> TelemetryRegistry {
        TelemetryRegistry::collect(&self.sink)
    }

    /// The reuse configuration this engine was compiled for.
    #[must_use]
    pub fn reuse(&self) -> ReuseConfig {
        self.reuse
    }

    /// What the compile phase materialized.
    #[must_use]
    pub fn stats(&self) -> PrepareStats {
        self.stats.clone()
    }

    /// Number of compiled stages.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The geometry of stage `index`, when it exists. Stage 0's shape is
    /// the admission contract for inputs (what `tfe-serve` validates
    /// requests against).
    #[must_use]
    pub fn stage_shape(&self, index: usize) -> Option<&LayerShape> {
        self.stages.get(index).map(|s| &s.shape)
    }

    /// The per-layer execution plans this engine compiled to — the same
    /// mapping facts a [`tfe_nets::NetworkPlan`] records, derived from
    /// the compiled IR so the analytic perf model
    /// ([`crate::perf::NetworkPerf::of_engine`]) and the functional
    /// counters share one source of truth.
    #[must_use]
    pub fn layer_plans(&self) -> Vec<LayerPlan> {
        self.stages
            .iter()
            .map(|s| LayerPlan::new(NetworkLayer::new(s.shape.clone()), s.mode))
            .collect()
    }

    /// The execution mode each stage compiled to, in stage order.
    #[must_use]
    pub fn stage_modes(&self) -> Vec<TransferMode> {
        self.stages.iter().map(|s| s.mode).collect()
    }

    /// The [`ExecMode`] compile chose for each stage, in stage order —
    /// how dense stages actually execute (dense sweep or
    /// compressed-sparse; transferred stages report
    /// [`ExecMode::Transferred`]).
    #[must_use]
    pub fn exec_modes(&self) -> Vec<ExecMode> {
        self.stages.iter().map(ir::StageIr::exec_mode).collect()
    }

    /// The weight statistic compile counted for stage `index`: the zero
    /// fraction over a dense stage's quantized logical taps (0 for a
    /// transferred stage).
    #[must_use]
    pub fn stage_sparsity(&self, index: usize) -> Option<f64> {
        self.stages.get(index).map(ir::StageIr::sparsity)
    }
}
