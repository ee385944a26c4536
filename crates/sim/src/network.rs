//! End-to-end functional execution of a whole (small) network on the TFE
//! datapath: each conv layer runs through PPSR/ERRR and the output memory
//! system, activations feed forward, and one counter set accumulates
//! across the network — Fig. 10's complete processing flow.
//!
//! [`FunctionalNetwork`] is the *description* of a network (stages,
//! weights, biases, output configs); execution belongs to the compiled
//! [`Engine`]. [`FunctionalNetwork::run`] is a thin prepare-once + run
//! wrapper: the first call under a given [`ReuseConfig`] compiles an
//! engine and caches it inside the network, so repeated calls pay only
//! the run phase. Use [`FunctionalNetwork::engine`] to drive the
//! compiled engine by hand (own [`Scratch`](crate::engine::Scratch)
//! management, packed batches, services).
//!
//! The zoo's ImageNet-scale networks are far too large for value-level
//! simulation; the tests and examples use purpose-built small networks.

use crate::counters::Counters;
use crate::engine::{Engine, ScratchPool};
use crate::output::OutputConfig;
use crate::SimError;
use std::sync::OnceLock;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::TransferScheme;

/// One stage of a functional network: a (possibly transferred) conv layer
/// plus its output-stage configuration.
#[derive(Debug, Clone)]
pub struct FunctionalStage {
    /// Layer geometry.
    pub shape: LayerShape,
    /// Weights in transferred or dense form.
    pub weights: TransferredLayer,
    /// Per-filter bias, folded in by the adder trees before activation
    /// (empty = no bias).
    pub bias: Vec<f32>,
    /// ReLU/pooling applied after the layer.
    pub output: OutputConfig,
}

/// Per-[`ReuseConfig`] compiled engines plus a warm scratch pool, so
/// [`FunctionalNetwork::run`] is prepare-once + run.
///
/// Caching is sound because a network's stages are immutable after
/// construction; a [`Clone`] of the network starts with an empty cache.
#[derive(Debug, Default)]
struct EngineCache {
    /// One slot per reuse configuration, indexed
    /// `ppsr as usize | (errr as usize) << 1`.
    slots: [OnceLock<Result<Engine, SimError>>; 4],
    /// Warm arenas shared by wrapper runs (bounded; see [`ScratchPool`]).
    scratches: ScratchPool,
}

impl EngineCache {
    fn slot(&self, reuse: ReuseConfig) -> &OnceLock<Result<Engine, SimError>> {
        &self.slots[usize::from(reuse.ppsr) | (usize::from(reuse.errr) << 1)]
    }
}

/// A small network executable on the functional datapath.
#[derive(Debug)]
pub struct FunctionalNetwork {
    stages: Vec<FunctionalStage>,
    cache: EngineCache,
}

impl Clone for FunctionalNetwork {
    fn clone(&self) -> Self {
        FunctionalNetwork {
            stages: self.stages.clone(),
            cache: EngineCache::default(),
        }
    }
}

/// Result of a functional network execution.
#[derive(Debug, Clone)]
pub struct NetworkOutput {
    /// Final activations, `[batch, C, H, W]`.
    pub activations: Tensor4<Fx16>,
    /// Merged counters across every stage.
    pub counters: Counters,
}

impl FunctionalNetwork {
    /// Builds a network from its stages.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OperandMismatch`] if consecutive stages'
    /// channel counts or spatial extents do not chain (accounting for
    /// each stage's pooling).
    pub fn new(stages: Vec<FunctionalStage>) -> Result<Self, SimError> {
        for pair in stages.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            let pool = prev.output.pool.unwrap_or(1);
            let out_c = prev.shape.m();
            let out_h = prev.shape.e() / pool;
            if out_c != next.shape.n() {
                return Err(SimError::OperandMismatch {
                    what: "stage channel chaining",
                    expected: out_c,
                    actual: next.shape.n(),
                });
            }
            if out_h != next.shape.h() {
                return Err(SimError::OperandMismatch {
                    what: "stage spatial chaining",
                    expected: out_h,
                    actual: next.shape.h(),
                });
            }
        }
        Ok(FunctionalNetwork {
            stages,
            cache: EngineCache::default(),
        })
    }

    /// Builds a randomly initialized network from layer geometries under a
    /// transfer scheme, with ReLU + optional 2×2 pooling per stage.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the weight generator and stage
    /// chaining checks.
    pub fn random(
        shapes_and_pools: &[(LayerShape, bool)],
        scheme: TransferScheme,
        mut next: impl FnMut() -> f32,
    ) -> Result<Self, SimError> {
        let stages = shapes_and_pools
            .iter()
            .map(|(shape, pool)| {
                let weights = TransferredLayer::random(shape, scheme, &mut next)?;
                Ok(FunctionalStage {
                    shape: shape.clone(),
                    weights,
                    bias: Vec::new(),
                    output: if *pool {
                        OutputConfig::RELU_POOL2
                    } else {
                        OutputConfig::RELU_ONLY
                    },
                })
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        FunctionalNetwork::new(stages)
    }

    /// The network's stages.
    #[must_use]
    pub fn stages(&self) -> &[FunctionalStage] {
        &self.stages
    }

    /// Total stored parameters across stages.
    #[must_use]
    pub fn stored_params(&self) -> u64 {
        self.stages.iter().map(|s| s.weights.stored_params()).sum()
    }

    /// The compiled [`Engine`] for `reuse`, compiling (and caching) it
    /// on first use. Every later call for the same configuration returns
    /// the same engine.
    ///
    /// # Errors
    ///
    /// Returns the compile-time [`SimError`] for networks the engine
    /// rejects (transferred weights on grouped shapes, filter-count
    /// mismatches); the error is cached too, so repeated calls fail
    /// identically.
    pub fn engine(&self, reuse: ReuseConfig) -> Result<&Engine, SimError> {
        self.cache
            .slot(reuse)
            .get_or_init(|| Engine::compile(self, reuse))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Executes the network on a `[batch, N, H, W]` input.
    ///
    /// This is a thin wrapper over the compiled engine: the first call
    /// under `reuse` compiles it ([`FunctionalNetwork::engine`]); every
    /// later call checks a warm [`Scratch`](crate::engine::Scratch)
    /// arena out of an internal pool and pays only the run phase.
    ///
    /// # Errors
    ///
    /// Propagates compile-time errors (unsupported layers) and run-time
    /// geometry mismatches. With multiple offending stages, compile-time
    /// errors of later stages surface before run-time input mismatches
    /// of earlier ones (compilation covers the whole network up front);
    /// any single error is reported identically to the pre-engine
    /// interpreter.
    pub fn run(
        &self,
        input: &Tensor4<Fx16>,
        reuse: ReuseConfig,
    ) -> Result<NetworkOutput, SimError> {
        let engine = self.engine(reuse)?;
        let mut scratch = self.cache.scratches.checkout();
        let result = engine.run(input, &mut scratch);
        self.cache.scratches.restore(scratch);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::activation::relu;
    use tfe_tensor::conv::conv2d_f32;
    use tfe_tensor::pool::{pool2d, PoolKind, PoolSpec};

    fn det(seed: &mut u32) -> f32 {
        *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        (((*seed >> 20) & 0xf) as f32 - 7.5) / 8.0
    }

    fn two_stage_shapes() -> Vec<(LayerShape, bool)> {
        vec![
            (LayerShape::conv("s1", 1, 8, 12, 12, 3, 1, 1).unwrap(), true),
            (LayerShape::conv("s2", 8, 8, 6, 6, 3, 1, 1).unwrap(), true),
        ]
    }

    #[test]
    fn network_runs_and_produces_expected_geometry() {
        let mut seed = 7;
        let net =
            FunctionalNetwork::random(&two_stage_shapes(), TransferScheme::Scnn, || det(&mut seed))
                .unwrap();
        let input = Tensor4::from_fn([1, 1, 12, 12], |_| Fx16::from_f32(det(&mut seed)));
        let out = net.run(&input, ReuseConfig::FULL).unwrap();
        assert_eq!(out.activations.dims(), [1, 8, 3, 3]);
        assert!(out.counters.multiplies > 0);
        // Ideal 4x, shaved by padded-row edges on these tiny maps.
        assert!(
            out.counters.mac_reduction() > 2.2,
            "{}",
            out.counters.mac_reduction()
        );
    }

    #[test]
    fn network_matches_reference_chain_within_quantization() {
        // Reference: f32 conv -> relu -> pool per stage, on the expanded
        // dense weights. The datapath quantizes activations between
        // stages (Q8.8), so the comparison uses a quantization-aware
        // reference: quantize after each stage, like the DAM does.
        let mut seed = 21;
        let net = FunctionalNetwork::random(&two_stage_shapes(), TransferScheme::DCNN4, || {
            det(&mut seed)
        })
        .unwrap();
        let input = Tensor4::from_fn([1, 1, 12, 12], |_| Fx16::from_f32(det(&mut seed)));

        let out = net.run(&input, ReuseConfig::FULL).unwrap();

        let mut reference = input.map(Fx16::to_f32);
        let spec = PoolSpec::non_overlapping(PoolKind::Max, 2).unwrap();
        for stage in net.stages() {
            let dense = stage.weights.expand_to_dense().unwrap();
            // Match the datapath's weight quantization.
            let dense_q = dense.map(|w| Fx16::from_f32(w).to_f32());
            let conv = conv2d_f32(&reference, &dense_q, None, &stage.shape).unwrap();
            let activated = relu(&conv);
            let pooled = pool2d(&activated, spec).unwrap();
            // DAM re-quantization between stages.
            reference = pooled.map(|v| Fx16::from_f32(v).to_f32());
        }
        let got = out.activations.map(Fx16::to_f32);
        let diff = got.max_abs_diff(&reference);
        // Accumulator quantization differs from pure f32 by at most a few
        // Q8.8 steps over two layers.
        assert!(diff <= 4.0 / 256.0, "max diff {diff}");
    }

    #[test]
    fn chaining_mismatch_rejected() {
        let mut seed = 3;
        let shapes = vec![
            (LayerShape::conv("a", 1, 8, 12, 12, 3, 1, 1).unwrap(), true),
            // Wrong input channels for stage 2.
            (LayerShape::conv("b", 4, 8, 6, 6, 3, 1, 1).unwrap(), false),
        ];
        let err = FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(&mut seed));
        assert!(matches!(err, Err(SimError::OperandMismatch { .. })));
    }

    #[test]
    fn engine_is_compiled_once_and_cached_per_reuse_config() {
        let mut seed = 7;
        let net =
            FunctionalNetwork::random(&two_stage_shapes(), TransferScheme::Scnn, || det(&mut seed))
                .unwrap();
        let a = net.engine(ReuseConfig::FULL).unwrap() as *const Engine;
        let b = net.engine(ReuseConfig::FULL).unwrap() as *const Engine;
        assert_eq!(a, b, "same reuse config must return the cached engine");
        let c = net.engine(ReuseConfig::NONE).unwrap() as *const Engine;
        assert_ne!(a, c, "distinct reuse configs compile distinct engines");
        assert_eq!(
            net.engine(ReuseConfig::NONE).unwrap().reuse(),
            ReuseConfig::NONE
        );
        // A clone starts cold but compiles to an equivalent engine.
        let cloned = net.clone();
        let d = cloned.engine(ReuseConfig::FULL).unwrap();
        assert_eq!(d.stats(), net.engine(ReuseConfig::FULL).unwrap().stats());
    }

    #[test]
    fn compression_reported_across_network() {
        let mut seed = 11;
        let scnn =
            FunctionalNetwork::random(&two_stage_shapes(), TransferScheme::Scnn, || det(&mut seed))
                .unwrap();
        let mut seed = 11;
        let dense_stages: Vec<(LayerShape, bool)> = two_stage_shapes();
        let dense = FunctionalNetwork::random(
            &dense_stages
                .iter()
                .map(|(s, p)| {
                    (
                        LayerShape::conv(s.name(), s.n(), s.m(), s.h(), s.w(), 1, 1, 0).unwrap(),
                        *p,
                    )
                })
                .collect::<Vec<_>>()[..1],
            TransferScheme::Scnn,
            || det(&mut seed),
        );
        let _ = dense; // pointwise layers come back dense; just the API check
                       // SCNN stores 4x fewer conv weights than the dense equivalent.
        let dense_params: u64 = two_stage_shapes().iter().map(|(s, _)| s.params()).sum();
        assert_eq!(dense_params, scnn.stored_params() * 4);
    }
}
