//! Execution-mode parity: the alternate dense executor — the
//! compressed-sparse path (`engine/sparse.rs`) — must be
//! **bit-identical** to the dense sweeps (row and filter-vector) in
//! activations, per-image counter streams, and per-layer telemetry
//! sums, across scheme × stride × dilation × channel groups × filter
//! count × batch, through both [`Engine::run`] and
//! [`Engine::run_batched`].
//!
//! The forcing [`ModePolicy`] choices make this pinnable: compiling the
//! same network under [`ModePolicy::DenseOnly`] and
//! [`ModePolicy::ForceSparse`] yields two engines that must agree
//! bit-exactly on everything except *how* dense stages execute. Also
//! pinned: the measured policy's natural threshold (pruned weights
//! select `Sparse`).

use proptest::prelude::*;
use tfe::sim::counters::Counters;
use tfe::sim::engine::{BatchedRun, Engine, Scratch};
use tfe::sim::network::{FunctionalNetwork, FunctionalStage};
use tfe::sim::output::OutputConfig;
use tfe::tensor::fixed::Fx16;
use tfe::tensor::shape::LayerShape;
use tfe::tensor::tensor::Tensor4;
use tfe::transfer::analysis::ReuseConfig;
use tfe::transfer::layer::TransferredLayer;
use tfe::transfer::mode::{ExecMode, ModePolicy, SPARSE_THRESHOLD};
use tfe::transfer::TransferScheme;

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    // Quarter-unit steps are exactly representable in Q8.8, so every
    // engine quantizes to identical weight bits.
    (((*seed >> 20) & 0xf) as f32 - 7.5) / 4.0
}

const ALL_SCHEMES: [TransferScheme; 3] = [
    TransferScheme::DCNN4,
    TransferScheme::DCNN6,
    TransferScheme::Scnn,
];

const STRIDES: [usize; 2] = [1, 2];
const DILATIONS: [usize; 2] = [1, 2];
const BATCHES: [usize; 3] = [1, 3, 5];
/// Body-stage channel groups: 8 is depth-wise on the 8-channel stems.
const GROUPS: [usize; 3] = [1, 2, 8];
/// Body-stage filters: 8 run the row sweep; ungrouped, 32 (one full
/// group) and 40 (a partial second group) run the filter-vector sweep
/// unless the sparse pass is forced.
const BODY_FILTERS: [usize; 3] = [8, 32, 40];

/// The policies under comparison; `DenseOnly` is the oracle.
const POLICIES: [(&str, ModePolicy, ExecMode); 2] = [
    ("dense", ModePolicy::DenseOnly, ExecMode::Dense),
    ("sparse", ModePolicy::ForceSparse, ExecMode::Sparse),
];

/// A transferred stem (per scheme) feeding a dense stage of `body_m`
/// filters at the given stride/dilation/channel groups, with a
/// deterministic fraction of the dense weights zeroed — so forced
/// policies exercise sparse tables with real holes (and, grouped,
/// filters reading a channel band at an offset) while the stem pins
/// that transferred stages ignore the policy.
fn mixed_net(
    scheme: TransferScheme,
    stride: usize,
    dilation: usize,
    groups: usize,
    body_m: usize,
    sparsity_steps: u32,
    seed: u32,
) -> FunctionalNetwork {
    let m = match scheme {
        TransferScheme::Dcnn { z: 6 } => 16,
        _ => 8,
    };
    let stem = LayerShape::conv("stem", 3, m, 13, 13, 3, 1, 1).unwrap();
    let mut s = seed;
    let stem_weights = TransferredLayer::random(&stem, scheme, || det(&mut s)).unwrap();
    let body = LayerShape::conv("body", m, body_m, 13, 13, 3, stride, 1)
        .unwrap()
        .with_dilation(dilation)
        .unwrap()
        .with_groups(groups)
        .unwrap();
    let body_weights = TransferredLayer::Dense {
        weights: Tensor4::from_fn([body_m, m / groups, 3, 3], |_| {
            let v = det(&mut s);
            // `sparsity_steps`/8 of the taps become exact zeros.
            if (s >> 8) & 0x7 < sparsity_steps {
                0.0
            } else {
                v
            }
        }),
    };
    FunctionalNetwork::new(vec![
        FunctionalStage {
            shape: stem,
            weights: stem_weights,
            bias: vec![0.0; m],
            output: OutputConfig::RELU_ONLY,
        },
        FunctionalStage {
            shape: body,
            weights: body_weights,
            bias: vec![0.1; body_m],
            output: OutputConfig::RELU_ONLY,
        },
    ])
    .unwrap()
}

fn stacked(batch: usize, c: usize, side: usize, amp: f32, seed: u32) -> Tensor4<Fx16> {
    let mut s = seed;
    Tensor4::from_fn([batch, c, side, side], |_| {
        Fx16::from_f32(amp * det(&mut s))
    })
}

/// Flattens a tensor in `[b, c, y, x]` order for whole-volume equality
/// assertions.
fn flat<T: Copy>(t: &Tensor4<T>) -> Vec<T> {
    let [b, c, h, w] = t.dims();
    let mut out = Vec::with_capacity(b * c * h * w);
    for bi in 0..b {
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    out.push(t.get([bi, ci, y, x]));
                }
            }
        }
    }
    out
}

/// Compiles `net` under each policy, runs single-image and batched
/// execution on the same inputs, and asserts everything observable —
/// activations, per-image counter streams, merged totals, per-layer
/// telemetry sums — is bit-identical to the `DenseOnly` engine.
fn assert_mode_parity(
    net: &FunctionalNetwork,
    reuse: ReuseConfig,
    input: &Tensor4<Fx16>,
    workers: usize,
    label: &str,
) {
    let mut scratch = Scratch::new();
    let mut oracle: Option<(BatchedRun, Vec<Counters>)> = None;
    for (name, policy, forced) in POLICIES {
        let mut engine = Engine::compile_with_policy(net, reuse, &policy).unwrap();
        engine.enable_telemetry(64);
        // Transferred stages ignore the policy; dense stages take the
        // forced mode.
        let modes = engine.exec_modes();
        for (i, mode) in modes.iter().enumerate() {
            let expect = if matches!(net.stages()[i].weights, TransferredLayer::Dense { .. }) {
                forced
            } else {
                ExecMode::Transferred
            };
            assert_eq!(*mode, expect, "{label}/{name}: stage {i} mode");
        }

        let batched = engine.run_batched(input, &mut scratch, workers).unwrap();
        let batched_flat = flat(&batched.activations);
        let [batch, c, h, w] = input.dims();
        let per_image: Vec<Counters> = (0..batch)
            .map(|b| {
                let single =
                    Tensor4::from_fn([1, c, h, w], |[_, ci, y, x]| input.get([b, ci, y, x]));
                let run = engine.run(&single, &mut scratch).unwrap();
                let single_flat = flat(&run.activations);
                assert_eq!(
                    single_flat,
                    batched_flat[b * single_flat.len()..][..single_flat.len()],
                    "{label}/{name}: single vs batched image {b}"
                );
                run.counters
            })
            .collect();

        match &oracle {
            None => oracle = Some((batched, per_image)),
            Some((dense_run, dense_per_image)) => {
                assert_eq!(
                    batched_flat,
                    flat(&dense_run.activations),
                    "{label}/{name}: activations diverge from dense"
                );
                assert_eq!(
                    batched.per_image, dense_run.per_image,
                    "{label}/{name}: batched per-image counters diverge from dense"
                );
                assert_eq!(
                    batched.counters, dense_run.counters,
                    "{label}/{name}: merged counters diverge from dense"
                );
                assert_eq!(
                    &per_image, dense_per_image,
                    "{label}/{name}: sequential counter stream diverges from dense"
                );
            }
        }

        // Telemetry per-layer sums are execution-mode invariant, and
        // each layer reports the mode it compiled to.
        let reg = engine.telemetry();
        for (i, layer) in reg.layers().iter().enumerate() {
            assert_eq!(
                layer.mode,
                modes[i].as_str(),
                "{label}/{name}: telemetry mode for stage {i}"
            );
        }
        let dense_reg = Engine::compile_with_policy(net, reuse, &ModePolicy::DenseOnly)
            .map(|mut e| {
                e.enable_telemetry(64);
                e.run_batched(input, &mut scratch, workers).unwrap();
                for single_b in 0..batch {
                    let single = Tensor4::from_fn([1, c, h, w], |[_, ci, y, x]| {
                        input.get([single_b, ci, y, x])
                    });
                    e.run(&single, &mut scratch).unwrap();
                }
                e.telemetry()
            })
            .unwrap();
        assert_eq!(reg.layers().len(), dense_reg.layers().len());
        for (got, want) in reg.layers().iter().zip(dense_reg.layers()) {
            assert_eq!(
                got.counters, want.counters,
                "{label}/{name} layer {}: per-layer telemetry sums diverge",
                got.layer
            );
            assert_eq!(got.runs, want.runs);
            assert_eq!(got.images, want.images);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The full grid: scheme × stride × dilation × channel groups ×
    /// body filters × batch × worker count × weight sparsity, each cell
    /// comparing the policy engines bit-for-bit through `run` and
    /// `run_batched`.
    #[test]
    fn forced_modes_are_bit_identical_across_the_grid(
        scheme_idx in 0usize..3,
        stride_idx in 0usize..2,
        dil_idx in 0usize..2,
        groups_idx in 0usize..3,
        body_idx in 0usize..3,
        batch_idx in 0usize..3,
        workers in 1usize..5,
        sparsity_steps in 0u32..8,
        seed in 0u32..100_000,
    ) {
        let scheme = ALL_SCHEMES[scheme_idx];
        let net = mixed_net(
            scheme,
            STRIDES[stride_idx],
            DILATIONS[dil_idx],
            GROUPS[groups_idx],
            BODY_FILTERS[body_idx],
            sparsity_steps,
            seed,
        );
        let input = stacked(BATCHES[batch_idx], 3, 13, 1.0, seed ^ 0xbead);
        let label = format!(
            "{scheme:?} stride={} dil={} groups={} filters={} batch={} workers={workers} zeros={sparsity_steps}/8",
            STRIDES[stride_idx], DILATIONS[dil_idx], GROUPS[groups_idx], BODY_FILTERS[body_idx],
            BATCHES[batch_idx]
        );
        assert_mode_parity(&net, ReuseConfig::FULL, &input, workers, &label);
    }
}

/// A dense-only deep chain (no transferred stem) under every reuse
/// ablation: the policy grid must stay bit-identical when ERRR/PPSR
/// reuse is on, off, and mixed — the sparse executor charges the same
/// counters the dense sweep does regardless of the reuse config.
#[test]
fn reuse_ablations_stay_bit_identical_under_forced_modes() {
    let mut s = 0x5eedu32;
    // 13×13 → (stride 2) 7×7 → (dilation 2, effective k=5) 5×5.
    let stages = [
        ("r1", 13usize, 1usize, 1usize),
        ("r2", 13, 2, 1),
        ("r3", 7, 1, 2),
    ]
    .into_iter()
    .map(|(name, side, stride, dilation)| {
        let shape = LayerShape::conv(name, 8, 8, side, side, 3, stride, 1)
            .unwrap()
            .with_dilation(dilation)
            .unwrap();
        FunctionalStage {
            shape,
            weights: TransferredLayer::Dense {
                weights: Tensor4::from_fn([8, 8, 3, 3], |_| {
                    let v = det(&mut s);
                    if (s >> 8) & 0x7 < 4 {
                        0.0
                    } else {
                        v
                    }
                }),
            },
            bias: vec![0.05; 8],
            output: OutputConfig::RELU_ONLY,
        }
    })
    .collect();
    let net = FunctionalNetwork::new(stages).unwrap();
    for reuse in [
        ReuseConfig::NONE,
        ReuseConfig::PPSR_ONLY,
        ReuseConfig::ERRR_ONLY,
        ReuseConfig::FULL,
    ] {
        let input = stacked(3, 8, 13, 1.0, 0xace);
        assert_mode_parity(&net, reuse, &input, 2, &format!("reuse={reuse:?}"));
    }
}

/// The default policy's natural threshold: a 90 %-pruned dense stage
/// crosses the sparsity threshold and compiles to `Sparse`, while the
/// same geometry with unpruned weights stays on the dense sweep — and
/// both run bit-identical to a `DenseOnly` compile of the same network.
#[test]
fn default_policy_thresholds_choose_modes_naturally() {
    let shape = || LayerShape::conv("nat", 6, 8, 12, 12, 3, 1, 1).unwrap();
    let mut s = 0x1234u32;
    let pruned = FunctionalNetwork::new(vec![FunctionalStage {
        shape: shape(),
        weights: TransferredLayer::Dense {
            weights: Tensor4::from_fn([8, 6, 3, 3], |_| {
                let v = det(&mut s);
                // ~90 % of taps zeroed: well past the default threshold.
                if (s >> 7) % 10 < 9 {
                    0.0
                } else {
                    v
                }
            }),
        },
        bias: vec![0.0; 8],
        output: OutputConfig::RELU_ONLY,
    }])
    .unwrap();
    let unpruned = FunctionalNetwork::new(vec![FunctionalStage {
        shape: shape(),
        weights: TransferredLayer::Dense {
            // Quarter-unit steps in ±1.875 never quantize to zero.
            weights: Tensor4::from_fn([8, 6, 3, 3], |_| det(&mut s)),
        },
        bias: vec![0.0; 8],
        output: OutputConfig::RELU_ONLY,
    }])
    .unwrap();

    for (net, expect) in [(&pruned, ExecMode::Sparse), (&unpruned, ExecMode::Dense)] {
        let engine = Engine::compile(net, ReuseConfig::FULL).unwrap();
        assert_eq!(engine.exec_modes(), vec![expect], "{expect:?}");
        let sparsity = engine.stage_sparsity(0).unwrap();
        match expect {
            ExecMode::Sparse => assert!(sparsity >= SPARSE_THRESHOLD, "sparsity {sparsity}"),
            ExecMode::Dense => assert!(sparsity < SPARSE_THRESHOLD, "sparsity {sparsity}"),
            _ => unreachable!(),
        }
        let input = stacked(2, 6, 12, 1.0, 0x77);
        assert_mode_parity(
            net,
            ReuseConfig::FULL,
            &input,
            2,
            &format!("natural/{expect:?}"),
        );
    }
}

/// A fully-pruned (all-zero) dense stage: the sparse table is empty,
/// yet it must still emit the exact dense result (bias + activation of
/// zero sums) with exact counters.
#[test]
fn all_zero_weights_stay_bit_identical_in_every_mode() {
    let net = FunctionalNetwork::new(vec![FunctionalStage {
        shape: LayerShape::conv("z", 4, 4, 8, 8, 3, 1, 1).unwrap(),
        weights: TransferredLayer::Dense {
            weights: Tensor4::from_fn([4, 4, 3, 3], |_| 0.0),
        },
        bias: vec![0.25; 4],
        output: OutputConfig::RELU_ONLY,
    }])
    .unwrap();
    let input = stacked(2, 4, 8, 1.0, 0x11);
    assert_mode_parity(&net, ReuseConfig::FULL, &input, 2, "all-zero");
    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    // Naturally chosen too: sparsity 1.0 ≫ threshold.
    assert_eq!(engine.exec_modes(), vec![ExecMode::Sparse]);
    assert_eq!(engine.stage_sparsity(0).unwrap(), 1.0);
}
