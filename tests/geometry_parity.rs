//! Generalized-geometry parity: every point of the convolution geometry
//! grid — `stride ∈ {1, 2, 3}` × `dilation ∈ {1, 2}` × `groups ∈ {1,
//! C/2, C}` × scheme — must execute **bit-identically** to the reference
//! convolution [`tfe::tensor::conv::conv2d_fx`] applied to the expanded
//! weights, under every reuse ablation, with per-layer counters exactly
//! matching the analytic plan (`dense_macs` == [`LayerPlan::dense_macs`]
//! == the [`NetworkPerf`] model's figure).
//!
//! Every cell runs at batch 1 and at batch 3: at batch 3 the engine
//! sweeps each row pass across all three images of the row-interleaved
//! layout (DESIGN §5.13), so the stride × dilation grid is also where
//! the inter-image gap meets the ERRR ring-capacity rule, and the
//! batch's counters must be exactly three single-image runs'.
//!
//! Transfer policy coherence is pinned alongside: grouped shapes resolve
//! to an explicit dense weight bank ([`Policy::Dense`]) rather than a
//! transferred representation, and pairing transferred weights with a
//! grouped shape is a typed [`SimError::UnsupportedGeometry`].

use proptest::prelude::*;
use tfe::sim::engine::{Engine, Scratch};
use tfe::sim::functional::run_layer;
use tfe::sim::network::{FunctionalNetwork, FunctionalStage};
use tfe::sim::output::OutputConfig;
use tfe::sim::perf::{NetworkPerf, PerfConfig};
use tfe::sim::SimError;
use tfe::tensor::conv::conv2d_fx;
use tfe::tensor::fixed::{Accum, Fx16};
use tfe::tensor::shape::LayerShape;
use tfe::tensor::tensor::Tensor4;
use tfe::transfer::analysis::ReuseConfig;
use tfe::transfer::layer::TransferredLayer;
use tfe::transfer::{Policy, TransferScheme};

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    // Quarter-unit steps are exactly representable in Q8.8, so the
    // engine and the oracle quantize to identical weights.
    (((*seed >> 20) & 0xf) as f32 - 7.5) / 4.0
}

const STRIDES: [usize; 3] = [1, 2, 3];
const DILATIONS: [usize; 2] = [1, 2];
/// Group counts over the C = 4 input channels: ordinary, half, depthwise
/// granularity (`groups == C`; with M > C this is the grouped — not
/// depthwise-kind — corner, which the dedicated depthwise tests cover).
const GROUPS: [usize; 3] = [1, 2, 4];

const ALL_SCHEMES: [TransferScheme; 3] = [
    TransferScheme::DCNN4,
    TransferScheme::DCNN6,
    TransferScheme::Scnn,
];

const ALL_REUSE: [ReuseConfig; 4] = [
    ReuseConfig::NONE,
    ReuseConfig::PPSR_ONLY,
    ReuseConfig::ERRR_ONLY,
    ReuseConfig::FULL,
];

/// One grid cell: a 4-channel 12×12 layer at the given geometry. M is
/// scheme-dependent (the DCNN6 meta derives 16 filters) and every M is
/// divisible by every group count in [`GROUPS`].
fn cell_shape(scheme: TransferScheme, stride: usize, dilation: usize, groups: usize) -> LayerShape {
    let m = match scheme {
        TransferScheme::Dcnn { z: 6 } => 16,
        _ => 8,
    };
    LayerShape::conv("geo", 4, m, 12, 12, 3, stride, 1)
        .unwrap()
        .with_dilation(dilation)
        .unwrap()
        .with_groups(groups)
        .unwrap()
}

fn random_input(shape: &LayerShape, batch: usize, seed: &mut u32) -> Tensor4<Fx16> {
    Tensor4::from_fn([batch, shape.n(), shape.h(), shape.w()], |_| {
        Fx16::from_f32(det(seed))
    })
}

fn oracle(input: &Tensor4<Fx16>, layer: &TransferredLayer, shape: &LayerShape) -> Tensor4<Accum> {
    let dense = layer.expand_to_dense().unwrap().map(Fx16::from_f32);
    conv2d_fx(input, &dense, shape).unwrap()
}

/// Checks one geometry cell end to end: policy coherence, bit-identity
/// against the oracle under each requested reuse config, `dense_macs`
/// counter exactness, and agreement between the compiled engine's layer
/// plans, the analytic [`NetworkPerf`] model, and the counted run.
fn check_cell(
    shape: &LayerShape,
    scheme: TransferScheme,
    reuse_configs: &[ReuseConfig],
    seed: u32,
) {
    let mut wseed = seed;
    let layer = TransferredLayer::random(shape, scheme, || det(&mut wseed)).unwrap();

    // Policy coherence: the stored representation matches the resolved
    // policy — grouped geometry always falls back to a dense bank.
    let policy = scheme.policy_for(shape);
    assert_eq!(
        policy.transfers(),
        !matches!(layer, TransferredLayer::Dense { .. }),
        "{shape}: policy {policy:?} disagrees with stored representation"
    );
    if shape.groups() > 1 {
        assert!(matches!(policy, Policy::Dense { .. }), "{shape}");
    }

    let mut iseed = seed ^ 0x9e37_79b9;
    let input = random_input(shape, 1, &mut iseed);
    let expected = oracle(&input, &layer, shape);
    let batch3 = random_input(shape, 3, &mut iseed);
    let expected3 = oracle(&batch3, &layer, shape);
    for &reuse in reuse_configs {
        let got = run_layer(&input, &layer, shape, reuse).unwrap();
        assert_eq!(
            got.output, expected,
            "{shape} {scheme:?} {reuse:?}: engine diverges from conv2d_fx"
        );
        // The counted baseline is the layer's logical dense work — the
        // groups-aware analytic figure, independent of reuse config.
        assert_eq!(
            got.counters.dense_macs,
            shape.macs(),
            "{shape} {scheme:?} {reuse:?}: dense_macs"
        );

        // The multi-image sweep: bit-identical per image, and charged
        // exactly as three single-image runs.
        let got3 = run_layer(&batch3, &layer, shape, reuse).unwrap();
        assert_eq!(
            got3.output, expected3,
            "{shape} {scheme:?} {reuse:?}: batch-3 engine diverges from conv2d_fx"
        );
        let mut three = got.counters;
        three.merge(&got.counters);
        three.merge(&got.counters);
        assert_eq!(
            got3.counters, three,
            "{shape} {scheme:?} {reuse:?}: batch-3 counters must be 3x one image's"
        );
    }

    // Compiled-engine agreement: plan, analytic perf model, and the
    // counted run all report the same dense-MAC figure for the layer.
    let net = FunctionalNetwork::new(vec![FunctionalStage {
        shape: shape.clone(),
        weights: layer,
        bias: vec![0.0; shape.m()],
        output: OutputConfig::RELU_ONLY,
    }])
    .unwrap();
    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    let plans = engine.layer_plans();
    assert_eq!(plans.len(), 1);
    assert_eq!(plans[0].dense_macs(), shape.macs(), "{shape}: plan");
    let perf = NetworkPerf::of_engine(&engine, &PerfConfig::default());
    assert_eq!(
        perf.layers()[0].counters().dense_macs,
        shape.macs(),
        "{shape}: NetworkPerf"
    );
    let run = engine.run(&input, &mut Scratch::new()).unwrap();
    assert_eq!(run.counters.dense_macs, shape.macs(), "{shape}: run");
}

/// Every cell of the geometry grid, deterministically, at full reuse:
/// 3 strides × 2 dilations × 3 group counts × 3 schemes.
#[test]
fn exhaustive_geometry_grid_matches_oracle() {
    for scheme in ALL_SCHEMES {
        for &stride in &STRIDES {
            for &dilation in &DILATIONS {
                for &groups in &GROUPS {
                    let shape = cell_shape(scheme, stride, dilation, groups);
                    let seed = (stride * 100 + dilation * 10 + groups) as u32;
                    check_cell(&shape, scheme, &[ReuseConfig::FULL], seed);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized sweep over the same grid with fresh weights and inputs
    /// per case, under **all four** reuse ablations.
    #[test]
    fn geometry_sweep_is_bit_identical_and_counter_exact(
        stride_idx in 0usize..3,
        dil_idx in 0usize..2,
        group_idx in 0usize..3,
        scheme_idx in 0usize..3,
        seed in 0u32..100_000,
    ) {
        let scheme = ALL_SCHEMES[scheme_idx];
        let shape = cell_shape(
            scheme,
            STRIDES[stride_idx],
            DILATIONS[dil_idx],
            GROUPS[group_idx],
        );
        check_cell(&shape, scheme, &ALL_REUSE, seed);
    }
}

/// The depthwise-kind corner (`groups == N == M`, one channel per
/// filter) at stride and dilation extremes, including the analytic
/// model agreement.
#[test]
fn depthwise_cells_match_oracle_and_perf_model() {
    for (stride, dilation) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
        let shape = LayerShape::depthwise("dwg", 6, 13, 13, 3, stride, 1)
            .unwrap()
            .with_dilation(dilation)
            .unwrap();
        check_cell(
            &shape,
            TransferScheme::Scnn,
            &ALL_REUSE,
            0xd1 + stride as u32,
        );
    }
}

/// Transferred weights on a grouped shape are a typed compile-time
/// error naming the scheme and group count — never a silent fallback.
#[test]
fn transferred_weights_on_grouped_shape_are_typed_errors() {
    let plain = LayerShape::conv("tg", 4, 8, 12, 12, 3, 1, 1).unwrap();
    let grouped = plain.clone().with_groups(2).unwrap();
    let mut wseed = 3;
    let layer = TransferredLayer::random(&plain, TransferScheme::Scnn, || det(&mut wseed)).unwrap();
    assert!(!matches!(layer, TransferredLayer::Dense { .. }));
    let input = random_input(&grouped, 1, &mut 55);
    match run_layer(&input, &layer, &grouped, ReuseConfig::FULL) {
        Err(SimError::UnsupportedGeometry { scheme, groups }) => {
            assert_eq!(scheme, "SCNN");
            assert_eq!(groups, 2);
        }
        other => panic!("expected UnsupportedGeometry, got {other:?}"),
    }
}
