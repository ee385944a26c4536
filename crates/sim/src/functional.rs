//! Layer-level functional simulation of the TFE datapath.
//!
//! [`run_layer`] executes one layer the way the hardware does — PPSR row
//! passes feeding an ERRR row ring, window results combined by the adder
//! trees — on real Q8.8 data, producing both the ofmap values and the
//! event counts. It is a thin entry point over the compiled
//! [`Engine`]: the layer is compiled to a
//! one-stage engine and run once. The integration tests check the values
//! bit-exactly against [`tfe_tensor::conv::conv2d_fx`] applied to the
//! *expanded* transferred filters: the reuse machinery must be a pure
//! optimization.
//!
//! [`run_layer`] stops at the raw accumulators. The output memory system
//! (Fig. 13: bias, ReLU, row-wise pooling — [`crate::output`]) runs only
//! inside full engine stages, so a layer's complete path is a one-stage
//! [`crate::network::FunctionalNetwork`].
//!
//! Scope: arbitrary stride, dilation, channel grouping (including
//! depth-wise), arbitrary square filters, zero padding, multi-channel,
//! batched inputs.

use crate::counters::Counters;
use crate::engine::{Engine, Scratch};
use crate::SimError;
use tfe_tensor::fixed::{Accum, Fx16};
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;

/// Result of a functional layer execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalOutput {
    /// Full-precision ofmap accumulators, `[batch, M, E, F]`.
    pub output: Tensor4<Accum>,
    /// Counted datapath events.
    pub counters: Counters,
}

/// Executes one layer on the functional TFE datapath.
///
/// Strided layers compute full-resolution row results (the broadcast
/// walks every input element regardless) and subsample at the window
/// stage, which is how the row-wise datapath realizes stride.
///
/// # Errors
///
/// Returns [`SimError::UnsupportedGeometry`] when transferred (DCNN/
/// SCNN) weights are paired with a grouped or depth-wise shape (those
/// geometries execute from dense weight banks) and
/// [`SimError::OperandMismatch`] when `input` or `layer` disagree with
/// `shape`.
pub fn run_layer(
    input: &Tensor4<Fx16>,
    layer: &TransferredLayer,
    shape: &LayerShape,
    reuse: ReuseConfig,
) -> Result<FunctionalOutput, SimError> {
    let [_, ic, ih, iw] = input.dims();
    for (what, expected, actual) in [
        ("input channels", shape.n(), ic),
        ("input height", shape.h(), ih),
        ("input width", shape.w(), iw),
        ("layer filter count", shape.m(), layer.filters()),
    ] {
        if expected != actual {
            return Err(SimError::OperandMismatch {
                what,
                expected,
                actual,
            });
        }
    }
    let engine = Engine::compile_single(shape, layer, reuse)?;
    engine.run_conv_only(input, &mut Scratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::conv::conv2d_fx;
    use tfe_transfer::TransferScheme;

    fn det(seed: &mut u32) -> f32 {
        *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        // Quarter-unit steps are exactly representable in Q8.8, so the
        // functional datapath and the oracle see identical weights.
        (((*seed >> 20) & 0xf) as f32 - 7.5) / 4.0
    }

    fn random_input(shape: &LayerShape, seed: &mut u32) -> Tensor4<Fx16> {
        Tensor4::from_fn([1, shape.n(), shape.h(), shape.w()], |_| {
            Fx16::from_f32(det(seed))
        })
    }

    fn oracle(
        input: &Tensor4<Fx16>,
        layer: &TransferredLayer,
        shape: &LayerShape,
    ) -> Tensor4<Accum> {
        let dense = layer.expand_to_dense().unwrap().map(Fx16::from_f32);
        conv2d_fx(input, &dense, shape).unwrap()
    }

    fn check_all_reuse_configs(shape: &LayerShape, layer: &TransferredLayer, seed: &mut u32) {
        let input = random_input(shape, seed);
        let expected = oracle(&input, layer, shape);
        for reuse in [
            ReuseConfig::FULL,
            ReuseConfig::PPSR_ONLY,
            ReuseConfig::ERRR_ONLY,
            ReuseConfig::NONE,
        ] {
            let got = run_layer(&input, layer, shape, reuse).unwrap();
            assert_eq!(got.output, expected, "mismatch under {reuse:?} for {shape}");
        }
    }

    #[test]
    fn dcnn4_matches_oracle_bit_exactly() {
        let shape = LayerShape::conv("d4", 2, 8, 7, 7, 3, 1, 1).unwrap();
        let mut seed = 1;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::DCNN4, || det(s2)).unwrap();
        check_all_reuse_configs(&shape, &layer, &mut 99);
    }

    #[test]
    fn dcnn6_matches_oracle_bit_exactly() {
        let shape = LayerShape::conv("d6", 1, 16, 8, 8, 3, 1, 0).unwrap();
        let mut seed = 2;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::DCNN6, || det(s2)).unwrap();
        check_all_reuse_configs(&shape, &layer, &mut 7);
    }

    #[test]
    fn scnn_matches_oracle_bit_exactly() {
        let shape = LayerShape::conv("s", 2, 8, 6, 6, 3, 1, 1).unwrap();
        let mut seed = 3;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        check_all_reuse_configs(&shape, &layer, &mut 13);
    }

    #[test]
    fn scnn_5x5_matches_oracle() {
        let shape = LayerShape::conv("s5", 1, 8, 9, 9, 5, 1, 2).unwrap();
        let mut seed = 4;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        check_all_reuse_configs(&shape, &layer, &mut 21);
    }

    #[test]
    fn conventional_dense_matches_oracle() {
        let shape = LayerShape::conv("c", 3, 4, 6, 6, 3, 1, 1).unwrap();
        let mut seed = 5;
        let weights = Tensor4::from_fn([4, 3, 3, 3], |_| det(&mut seed));
        let layer = TransferredLayer::Dense { weights };
        check_all_reuse_configs(&shape, &layer, &mut 31);
    }

    #[test]
    fn pointwise_matches_oracle() {
        let shape = LayerShape::conv("pw", 4, 4, 5, 5, 1, 1, 0).unwrap();
        let mut seed = 6;
        let weights = Tensor4::from_fn([4, 4, 1, 1], |_| det(&mut seed));
        let layer = TransferredLayer::Dense { weights };
        check_all_reuse_configs(&shape, &layer, &mut 41);
    }

    #[test]
    fn partial_scnn_orbit_matches_oracle() {
        // M = 5 exercises the discard path for unused orbit members.
        let shape = LayerShape::conv("p", 1, 5, 6, 6, 3, 1, 1).unwrap();
        let mut seed = 8;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        check_all_reuse_configs(&shape, &layer, &mut 55);
    }

    #[test]
    fn reuse_reduces_multiplies_without_changing_output_dcnn() {
        let shape = LayerShape::conv("r", 1, 16, 10, 10, 3, 1, 1).unwrap();
        let mut seed = 9;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::DCNN6, || det(s2)).unwrap();
        let input = random_input(&shape, &mut 77);
        let full = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
        let none = run_layer(&input, &layer, &shape, ReuseConfig::NONE).unwrap();
        assert_eq!(full.output, none.output);
        // Ideal reduction is 4x; padded edges shave a little off.
        let ratio = none.counters.multiplies as f64 / full.counters.multiplies as f64;
        assert!(ratio > 3.0 && ratio <= 4.2, "ratio {ratio}");
    }

    #[test]
    fn reuse_reduces_multiplies_without_changing_output_scnn() {
        let shape = LayerShape::conv("r", 1, 8, 10, 10, 3, 1, 1).unwrap();
        let mut seed = 10;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        let input = random_input(&shape, &mut 78);
        let full = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
        let ppsr = run_layer(&input, &layer, &shape, ReuseConfig::PPSR_ONLY).unwrap();
        let none = run_layer(&input, &layer, &shape, ReuseConfig::NONE).unwrap();
        assert_eq!(full.output, none.output);
        assert_eq!(full.output, ppsr.output);
        // Full reuse computes 2 of 8 orientations: exactly 4x fewer row
        // passes than the naive path.
        let full_ratio = none.counters.multiplies as f64 / full.counters.multiplies as f64;
        assert!((full_ratio - 4.0).abs() < 1e-9, "full {full_ratio}");
        // PPSR alone computes 6 of 8.
        let ppsr_ratio = none.counters.multiplies as f64 / ppsr.counters.multiplies as f64;
        assert!((ppsr_ratio - 8.0 / 6.0).abs() < 1e-9, "ppsr {ppsr_ratio}");
    }

    #[test]
    fn stride_two_scnn_matches_oracle() {
        let shape = LayerShape::conv("s2", 1, 8, 9, 9, 3, 2, 1).unwrap();
        let mut seed = 11;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        check_all_reuse_configs(&shape, &layer, &mut 5);
    }

    #[test]
    fn stride_two_dcnn_matches_oracle() {
        let shape = LayerShape::conv("s2d", 2, 8, 10, 10, 3, 2, 1).unwrap();
        let mut seed = 15;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::DCNN4, || det(s2)).unwrap();
        check_all_reuse_configs(&shape, &layer, &mut 8);
    }

    #[test]
    fn stride_four_conventional_matches_oracle() {
        // AlexNet conv1 style: large filter, stride 4, no padding.
        let shape = LayerShape::conv("s4", 1, 2, 15, 15, 5, 4, 0).unwrap();
        let mut seed = 19;
        let weights = Tensor4::from_fn([2, 1, 5, 5], |_| det(&mut seed));
        let layer = TransferredLayer::Dense { weights };
        check_all_reuse_configs(&shape, &layer, &mut 9);
    }

    #[test]
    fn dilated_scnn_matches_oracle_bit_exactly() {
        let shape = LayerShape::conv("dil", 1, 8, 9, 9, 3, 1, 0)
            .unwrap()
            .with_dilation(2)
            .unwrap();
        let mut seed = 21;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        check_all_reuse_configs(&shape, &layer, &mut 5);
    }

    #[test]
    fn dilated_dcnn_matches_oracle_bit_exactly() {
        let shape = LayerShape::conv("dild", 2, 8, 10, 10, 3, 1, 1)
            .unwrap()
            .with_dilation(2)
            .unwrap();
        let mut seed = 23;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::DCNN4, || det(s2)).unwrap();
        check_all_reuse_configs(&shape, &layer, &mut 61);
    }

    #[test]
    fn dilated_strided_dense_matches_oracle() {
        let shape = LayerShape::conv("ds", 2, 3, 11, 11, 3, 2, 1)
            .unwrap()
            .with_dilation(2)
            .unwrap();
        let mut seed = 25;
        let weights = Tensor4::from_fn([3, 2, 3, 3], |_| det(&mut seed));
        let layer = TransferredLayer::Dense { weights };
        check_all_reuse_configs(&shape, &layer, &mut 67);
    }

    #[test]
    fn depthwise_matches_oracle_bit_exactly() {
        let shape = LayerShape::depthwise("dw", 4, 8, 8, 3, 1, 1).unwrap();
        let mut seed = 27;
        let weights = Tensor4::from_fn([4, 1, 3, 3], |_| det(&mut seed));
        let layer = TransferredLayer::Dense { weights };
        check_all_reuse_configs(&shape, &layer, &mut 71);
    }

    #[test]
    fn grouped_dense_matches_oracle() {
        let shape = LayerShape::conv("g2", 4, 6, 7, 7, 3, 1, 1)
            .unwrap()
            .with_groups(2)
            .unwrap();
        let mut seed = 29;
        let s2 = &mut seed;
        // random() resolves grouped shapes to the dense per-group bank.
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        assert!(matches!(layer, TransferredLayer::Dense { .. }));
        check_all_reuse_configs(&shape, &layer, &mut 73);
    }

    #[test]
    fn grouped_shape_rejects_transferred_weights() {
        // Build SCNN weights for the ungrouped twin, then pair them with
        // the grouped shape: the compile must fail with the typed
        // geometry error, not expand to a wrong dense bank.
        let plain = LayerShape::conv("tw", 4, 8, 6, 6, 3, 1, 1).unwrap();
        let grouped = plain.clone().with_groups(4).unwrap();
        let mut seed = 33;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&plain, TransferScheme::Scnn, || det(s2)).unwrap();
        let input = random_input(&grouped, &mut 3);
        assert!(matches!(
            run_layer(&input, &layer, &grouped, ReuseConfig::FULL),
            Err(SimError::UnsupportedGeometry { groups: 4, .. })
        ));
    }

    #[test]
    fn mismatched_input_rejected() {
        let shape = LayerShape::conv("m", 2, 8, 8, 8, 3, 1, 1).unwrap();
        let mut seed = 12;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        let input = Tensor4::filled([1, 3, 8, 8], Fx16::ZERO);
        assert!(matches!(
            run_layer(&input, &layer, &shape, ReuseConfig::FULL),
            Err(SimError::OperandMismatch {
                what: "input channels",
                ..
            })
        ));
    }

    #[test]
    fn batch_dimension_processed_independently() {
        let shape = LayerShape::conv("b", 1, 8, 5, 5, 3, 1, 1).unwrap();
        let mut seed = 13;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        let input = Tensor4::from_fn([2, 1, 5, 5], |[n, _, y, x]| {
            Fx16::from_f32((n as f32 + 1.0) * 0.25 * (y as f32 - x as f32))
        });
        let both = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
        let expected = oracle(&input, &layer, &shape);
        assert_eq!(both.output, expected);
    }

    #[test]
    fn layer_with_output_matches_conv_relu_pool_reference() {
        use crate::network::{FunctionalNetwork, FunctionalStage};
        use crate::output::OutputConfig;
        use tfe_tensor::pool::{pool2d, PoolKind, PoolSpec};

        let shape = LayerShape::conv("op", 2, 8, 8, 8, 3, 1, 1).unwrap();
        let mut seed = 91;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        let input = random_input(&shape, &mut 17);

        // The full Fig. 10 path of one layer: a one-stage network whose
        // stage ends in the output memory system.
        let net = FunctionalNetwork::new(vec![FunctionalStage {
            shape: shape.clone(),
            weights: layer.clone(),
            bias: Vec::new(),
            output: OutputConfig::RELU_POOL2,
        }])
        .unwrap();
        let activations = net.run(&input, ReuseConfig::FULL).unwrap().activations;

        // Reference: oracle conv -> quantized relu -> 2x2 tile pool.
        let expected_acc = oracle(&input, &layer, &shape);
        let quantized = expected_acc.map(|a| a.relu().to_sample().to_f32());
        let spec = PoolSpec::non_overlapping(PoolKind::Max, 2).unwrap();
        let pooled = pool2d(&quantized, spec).unwrap();
        assert_eq!(activations.dims(), pooled.dims());
        for (idx, v) in pooled.indexed_iter() {
            assert_eq!(activations.get(idx).to_f32(), v, "at {idx:?}");
        }
    }

    #[test]
    fn errr_ring_counts_psum_traffic() {
        let shape = LayerShape::conv("t", 1, 8, 6, 6, 3, 1, 1).unwrap();
        let mut seed = 14;
        let s2 = &mut seed;
        let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(s2)).unwrap();
        let input = random_input(&shape, &mut 6);
        let full = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
        assert!(full.counters.psum_mem_writes > 0);
        assert!(full.counters.psum_mem_reads >= full.counters.psum_mem_writes);
    }
}
