//! Parallel/batched/engine execution parity: the wrapper entry point in
//! `tfe::sim` (network `run`) and a hand-driven [`Engine`] — one image at
//! a time, [`Engine::run_batched`] over a packed batch, and
//! [`Engine::run_packed`] — must all be bit-identical — activations AND
//! counters — at every worker count, every scheme, every reuse ablation,
//! and under stride, with the merged [`Counters`] equal to the sequential
//! totals exactly.
//!
//! The guarantee rests on two properties: images are pure functions of
//! their inputs (one engine pass each), and per-image results — output
//! tensors and counters — merge in a fixed input order independent of
//! which worker produced them.

use proptest::prelude::*;
use tfe::sim::counters::Counters;
use tfe::sim::engine::{BatchedRun, Engine, Scratch, ScratchPool};
use tfe::sim::functional::run_layer;
use tfe::sim::network::{FunctionalNetwork, FunctionalStage, NetworkOutput};
use tfe::sim::output::OutputConfig;
use tfe::tensor::fixed::Fx16;
use tfe::tensor::shape::LayerShape;
use tfe::tensor::tensor::Tensor4;
use tfe::transfer::analysis::ReuseConfig;
use tfe::transfer::layer::TransferredLayer;
use tfe::transfer::TransferScheme;

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    ((*seed >> 16) as f32 / 65536.0) - 0.5
}

/// The scheme grid: every scheme at its smallest filter count (one DCNN
/// meta group or SCNN orbit group per stage), plus SCNN at 32 filters,
/// 16 lanes under `FULL` and more under the other ablations: the
/// transferred lane layout.
const SCHEME_GRID: [(TransferScheme, usize); 4] = [
    (TransferScheme::DCNN4, 8),
    (TransferScheme::DCNN6, 16),
    (TransferScheme::Scnn, 8),
    (TransferScheme::Scnn, 32),
];

const ALL_REUSE: [ReuseConfig; 4] = [
    ReuseConfig::NONE,
    ReuseConfig::PPSR_ONLY,
    ReuseConfig::ERRR_ONLY,
    ReuseConfig::FULL,
];

/// A small randomized two-stage network (conv → conv+pool) of `m`
/// filters per stage, a count compatible with `scheme` (a multiple of
/// the DCNN4 window count 4, of the DCNN6 window count 16, of SCNN's
/// orbit of 8; [`SCHEME_GRID`]).
fn small_net(scheme: TransferScheme, m: usize, seed: u32) -> FunctionalNetwork {
    let shapes = vec![
        (
            LayerShape::conv("p1", 3, m, 12, 12, 3, 1, 1).unwrap(),
            false,
        ),
        (LayerShape::conv("p2", m, m, 12, 12, 3, 1, 1).unwrap(), true),
    ];
    let mut s = seed;
    FunctionalNetwork::random(&shapes, scheme, || det(&mut s)).unwrap()
}

/// Like [`small_net`] but with a stride-2 first stage, so the parity
/// sweep also covers the subsampled window path.
fn strided_net(scheme: TransferScheme, m: usize, seed: u32) -> FunctionalNetwork {
    let shapes = vec![
        (
            LayerShape::conv("t1", 3, m, 13, 13, 3, 2, 1).unwrap(),
            false,
        ),
        (LayerShape::conv("t2", m, m, 7, 7, 3, 1, 1).unwrap(), false),
    ];
    let mut s = seed;
    FunctionalNetwork::random(&shapes, scheme, || det(&mut s)).unwrap()
}

/// A four-stage chained network covering every generalized-geometry arm
/// (transferred stem → depthwise → dilated → grouped+pool), mirroring
/// `tests/batched_parity.rs`.
fn geometry_net(seed: u32) -> FunctionalNetwork {
    let shapes = vec![
        (
            LayerShape::conv("g1", 3, 8, 12, 12, 3, 1, 1).unwrap(),
            false,
        ),
        (
            LayerShape::depthwise("g2", 8, 12, 12, 3, 1, 1).unwrap(),
            false,
        ),
        (
            LayerShape::conv("g3", 8, 8, 12, 12, 3, 1, 1)
                .unwrap()
                .with_dilation(2)
                .unwrap(),
            false,
        ),
        (
            LayerShape::conv("g4", 8, 8, 10, 10, 3, 1, 1)
                .unwrap()
                .with_groups(2)
                .unwrap(),
            true,
        ),
    ];
    let mut s = seed;
    FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(&mut s)).unwrap()
}

fn images(count: usize, seed: u32) -> Vec<Tensor4<Fx16>> {
    let mut s = seed;
    (0..count)
        .map(|_| Tensor4::from_fn([1, 3, 12, 12], |_| Fx16::from_f32(det(&mut s))))
        .collect()
}

/// Sequential reference: one image at a time through `net.run`, counters
/// accumulated in input order.
fn sequential(
    net: &FunctionalNetwork,
    inputs: &[Tensor4<Fx16>],
    reuse: ReuseConfig,
) -> (Vec<NetworkOutput>, Counters) {
    let mut total = Counters::new();
    let outputs: Vec<NetworkOutput> = inputs
        .iter()
        .map(|img| net.run(img, reuse).unwrap())
        .collect();
    for out in &outputs {
        total.merge(&out.counters);
    }
    (outputs, total)
}

/// The single-image inputs packed into one `[B, C, H, W]` batch, in
/// input order.
fn pack(inputs: &[Tensor4<Fx16>]) -> Tensor4<Fx16> {
    let [_, c, h, w] = inputs[0].dims();
    let data = inputs.iter().flat_map(|t| t.as_slice().iter().copied());
    Tensor4::from_vec([inputs.len(), c, h, w], data.collect()).unwrap()
}

/// Image `b`'s `[C, H, W]` activations within a packed run's output.
fn image_of(run: &BatchedRun, b: usize) -> &[Fx16] {
    let [_, c, h, w] = run.activations.dims();
    &run.activations.as_slice()[b * c * h * w..(b + 1) * c * h * w]
}

/// A packed run against the sequential reference: each image's
/// activations and counters, then the merged totals.
fn assert_run_matches(run: &BatchedRun, want: &[NetworkOutput], total: &Counters, cell: &str) {
    assert_eq!(run.per_image.len(), want.len(), "{cell}");
    for (b, want) in want.iter().enumerate() {
        assert_eq!(
            image_of(run, b),
            want.activations.as_slice(),
            "{cell}: activations diverge on image {b}"
        );
        assert_eq!(
            run.per_image[b], want.counters,
            "{cell}: per-image counters diverge on image {b}"
        );
    }
    assert_eq!(run.counters, *total, "{cell}: merged counters diverge");
}

#[test]
fn batched_parallel_is_bit_identical_to_sequential() {
    let mut scratch = Scratch::new();
    for (scheme, m) in SCHEME_GRID {
        let net = small_net(scheme, m, 41);
        let inputs = images(6, 977);
        let (seq_outputs, seq_total) = sequential(&net, &inputs, ReuseConfig::FULL);
        let engine = net.engine(ReuseConfig::FULL).unwrap();
        let batch = pack(&inputs);
        for workers in [1usize, 2, 3, 4, 8] {
            let run = engine.run_batched(&batch, &mut scratch, workers).unwrap();
            let cell = format!("{scheme:?}/{m} at {workers} workers");
            assert_run_matches(&run, &seq_outputs, &seq_total, &cell);
        }
    }
}

#[test]
fn reuse_ablations_stay_parity_under_parallelism() {
    // The counter deltas between reuse configurations are the paper's
    // headline metric, so parity must hold for every ablation cell, not
    // just the full configuration.
    let net = small_net(TransferScheme::Scnn, 8, 7);
    let inputs = images(4, 1234);
    let batch = pack(&inputs);
    let mut scratch = Scratch::new();
    for reuse in ALL_REUSE {
        let (seq_outputs, seq_total) = sequential(&net, &inputs, reuse);
        let engine = net.engine(reuse).unwrap();
        let run = engine.run_batched(&batch, &mut scratch, 4).unwrap();
        assert_run_matches(&run, &seq_outputs, &seq_total, &format!("{reuse:?}"));
    }
}

#[test]
fn run_layer_is_thread_count_invariant() {
    // The single-layer entry point (one sequential engine pass) against
    // the same layer compiled as a one-stage network with an identity
    // output stage (no ReLU, no pool, no bias), run at every intra-run
    // worker count: the activations are run_layer's accumulators
    // re-quantized, and the counters are equal.
    let shape = LayerShape::conv("inv", 4, 16, 10, 10, 3, 1, 1).unwrap();
    let mut wseed = 5;
    let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(&mut wseed)).unwrap();
    let input = Tensor4::from_fn([2, 4, 10, 10], |_| Fx16::from_f32(det(&mut wseed)));

    let reference = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
    let want = reference.output.map(|acc| acc.to_sample());
    let net = FunctionalNetwork::new(vec![FunctionalStage {
        shape,
        weights: layer,
        bias: Vec::new(),
        output: OutputConfig {
            relu: false,
            pool: None,
        },
    }])
    .unwrap();
    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    let mut scratch = Scratch::new();
    for workers in [1usize, 2, 3, 4] {
        let got = engine.run_batched(&input, &mut scratch, workers).unwrap();
        assert_eq!(got.activations, want, "{workers} workers");
        assert_eq!(got.counters, reference.counters, "{workers} workers");
    }
}

#[test]
fn wrapper_run_is_bit_identical_to_hand_driven_engine() {
    // FunctionalNetwork::run is a thin wrapper over the compiled engine;
    // driving Engine::compile + Engine::run by hand must agree with the
    // wrapper — activations AND counters — on every scheme and every
    // reuse ablation, while reusing one Scratch arena across all runs.
    let mut scratch = Scratch::new();
    for (scheme, m) in SCHEME_GRID {
        let net = small_net(scheme, m, 41);
        let inputs = images(3, 977);
        for reuse in ALL_REUSE {
            let engine = Engine::compile(&net, reuse).unwrap();
            for (i, img) in inputs.iter().enumerate() {
                let want = net.run(img, reuse).unwrap();
                let got = engine.run(img, &mut scratch).unwrap();
                assert_eq!(
                    got.activations, want.activations,
                    "{scheme:?}/{m} {reuse:?} activations diverge on image {i}"
                );
                assert_eq!(
                    got.counters, want.counters,
                    "{scheme:?}/{m} {reuse:?} counters diverge on image {i}"
                );
            }
        }
    }
    assert_eq!(scratch.run_quantized_rows(), 0);
}

#[test]
fn wrapper_matches_engine_under_stride() {
    // Same wrapper-vs-engine sweep on a stride-2 first stage: the
    // subsampled window path must stay bit-identical too.
    let mut scratch = Scratch::new();
    for (scheme, m) in SCHEME_GRID {
        let net = strided_net(scheme, m, 23);
        let mut s = 607;
        let inputs: Vec<Tensor4<Fx16>> = (0..3)
            .map(|_| Tensor4::from_fn([1, 3, 13, 13], |_| Fx16::from_f32(det(&mut s))))
            .collect();
        for reuse in ALL_REUSE {
            let engine = Engine::compile(&net, reuse).unwrap();
            for (i, img) in inputs.iter().enumerate() {
                let want = net.run(img, reuse).unwrap();
                let got = engine.run(img, &mut scratch).unwrap();
                assert_eq!(
                    got.activations, want.activations,
                    "{scheme:?}/{m} {reuse:?} strided activations diverge on image {i}"
                );
                assert_eq!(
                    got.counters, want.counters,
                    "{scheme:?}/{m} {reuse:?} strided counters diverge on image {i}"
                );
            }
        }
    }
    assert_eq!(scratch.run_quantized_rows(), 0);
}

#[test]
fn engine_handles_bias_stride_and_dense_layers() {
    // Dense (non-transferred) units, per-filter bias (including a bias
    // vector shorter than M), a ReLU-less stage, stride 2, and batch > 1
    // all go through the same compile/run split.
    let mut s = 2718;
    let s1 = LayerShape::conv("d1", 2, 3, 8, 8, 3, 1, 1).unwrap();
    let s2 = LayerShape::conv("d2", 3, 4, 8, 8, 3, 2, 1).unwrap();
    let w1 = tfe::tensor::tensor::Tensor4::from_fn([3, 2, 3, 3], |_| det(&mut s));
    let w2 = tfe::tensor::tensor::Tensor4::from_fn([4, 3, 3, 3], |_| det(&mut s));
    let net = FunctionalNetwork::new(vec![
        FunctionalStage {
            shape: s1,
            weights: TransferredLayer::Dense { weights: w1 },
            bias: vec![0.25, -0.125, 0.5],
            output: OutputConfig {
                relu: false,
                pool: None,
            },
        },
        FunctionalStage {
            shape: s2,
            weights: TransferredLayer::Dense { weights: w2 },
            bias: vec![0.375],
            output: OutputConfig {
                relu: true,
                pool: Some(2),
            },
        },
    ])
    .unwrap();
    let input = Tensor4::from_fn([2, 2, 8, 8], |_| Fx16::from_f32(det(&mut s)));

    let want = net.run(&input, ReuseConfig::FULL).unwrap();
    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    let mut scratch = Scratch::new();
    // Run twice: the second pass exercises warm (recycled) buffers.
    for _ in 0..2 {
        let got = engine.run(&input, &mut scratch).unwrap();
        assert_eq!(got.activations, want.activations);
        assert_eq!(got.counters, want.counters);
    }
    assert_eq!(scratch.run_quantized_rows(), 0);
}

#[test]
fn engine_reports_the_same_shape_errors() {
    let net = small_net(TransferScheme::Scnn, 8, 11);
    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    let mut scratch = Scratch::new();
    // Wrong channel count: wrapper and engine must reject identically.
    let bad = Tensor4::from_fn([1, 2, 12, 12], |_| Fx16::ZERO);
    let want = net.run(&bad, ReuseConfig::FULL).unwrap_err();
    let got = engine.run(&bad, &mut scratch).unwrap_err();
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    // The scratch survives an errored run and still produces exact
    // results afterwards.
    let ok = images(1, 5)[0].clone();
    let want = net.run(&ok, ReuseConfig::FULL).unwrap();
    let got = engine.run(&ok, &mut scratch).unwrap();
    assert_eq!(got.activations, want.activations);
    assert_eq!(got.counters, want.counters);
}

#[test]
fn engine_batch_is_thread_count_invariant() {
    // A hand-compiled engine's packed run must match the sequential
    // reference at every worker count, including more workers than
    // images, with one scratch arena reused across the runs.
    for (scheme, m) in SCHEME_GRID {
        let net = small_net(scheme, m, 19);
        let inputs = images(5, 333);
        let (seq_outputs, seq_total) = sequential(&net, &inputs, ReuseConfig::FULL);
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let batch = pack(&inputs);
        let mut scratch = Scratch::new();
        for workers in [1usize, 2, 4, 9] {
            let run = engine.run_batched(&batch, &mut scratch, workers).unwrap();
            let cell = format!("{scheme:?}/{m} at {workers} workers");
            assert_run_matches(&run, &seq_outputs, &seq_total, &cell);
        }
    }
}

#[test]
fn geometry_net_is_thread_count_invariant() {
    // Depthwise, dilated, and grouped stages: per-image results and
    // merged counters of the packed run must be bit-identical to the
    // sequential reference at every worker count and reuse ablation.
    let net = geometry_net(0x9e0);
    let inputs = images(5, 271);
    let batch = pack(&inputs);
    let mut scratch = Scratch::new();
    for reuse in [ReuseConfig::FULL, ReuseConfig::NONE] {
        let (seq_outputs, seq_total) = sequential(&net, &inputs, reuse);
        let engine = Engine::compile(&net, reuse).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let run = engine.run_batched(&batch, &mut scratch, workers).unwrap();
            let cell = format!("{reuse:?} geometry at {workers} workers");
            assert_run_matches(&run, &seq_outputs, &seq_total, &cell);
        }
    }
}

#[test]
fn compile_quantizes_every_row_exactly_once() {
    let net = small_net(TransferScheme::Scnn, 8, 3);
    // Two SCNN stages: 3→8 and 8→8 filters, one orbit group each. Each
    // group stores the orientation blocks its reads use (sets ×
    // variants), N rows of K=3 per block.
    for (reuse, blocks) in [
        (ReuseConfig::FULL, 4),
        (ReuseConfig::ERRR_ONLY, 6),
        (ReuseConfig::PPSR_ONLY, 12),
        (ReuseConfig::NONE, 8),
    ] {
        let stats = Engine::compile(&net, reuse).unwrap().stats();
        assert_eq!(stats.scnn_orientations, 2 * blocks, "{reuse:?}");
        assert_eq!(
            stats.weight_rows,
            blocks * 3 * 3 + blocks * 8 * 3,
            "{reuse:?}"
        );
        assert_eq!(stats.weight_values, stats.weight_rows * 3, "{reuse:?}");
    }
}

#[test]
fn scratch_pool_is_bounded_and_reuses_arenas() {
    // Satellite regression: restore() used to push unconditionally, so a
    // burst of workers grew the pool without bound. The pool must cap at
    // its capacity and drop overflow arenas.
    let pool = ScratchPool::with_capacity(2);
    assert_eq!(pool.capacity(), 2);
    assert_eq!(pool.warm(), 0);
    let a = pool.checkout();
    let b = pool.checkout();
    let c = pool.checkout();
    pool.restore(a);
    pool.restore(b);
    pool.restore(c); // over capacity: dropped, not retained
    assert_eq!(pool.warm(), 2);
    let _held = pool.checkout();
    assert_eq!(pool.warm(), 1);
    // Default capacity is at least 1 so services always reuse something.
    assert!(ScratchPool::new().capacity() >= 1);
    assert_eq!(
        ScratchPool::default().capacity(),
        ScratchPool::new().capacity()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any interleaving of checkouts and restores, the pool never
    /// retains more than its capacity and never loses arenas it could
    /// have kept.
    #[test]
    fn scratch_pool_never_exceeds_cap(
        cap in 0usize..8,
        len in 1usize..64,
        ops in prop::collection::vec(any::<bool>(), 64),
    ) {
        let pool = ScratchPool::with_capacity(cap);
        let mut out: Vec<Scratch> = Vec::new();
        for &checkout in &ops[..len] {
            if checkout {
                out.push(pool.checkout());
            } else if let Some(scratch) = out.pop() {
                let before = pool.warm();
                pool.restore(scratch);
                let expected = if before < cap { before + 1 } else { before };
                prop_assert_eq!(pool.warm(), expected);
            }
            prop_assert!(pool.warm() <= cap);
        }
        for scratch in out {
            pool.restore(scratch);
            prop_assert!(pool.warm() <= cap);
        }
    }
}

#[test]
fn packed_singles_match_the_multi_image_tensor() {
    // Feeding a [B, C, H, W] tensor through the network directly and
    // splitting it into B singleton images that `run_packed` packs back
    // must agree on both values and counter totals.
    let net = small_net(TransferScheme::DCNN4, 8, 99);
    let mut s = 3141;
    let stacked = Tensor4::from_fn([3, 3, 12, 12], |_| Fx16::from_f32(det(&mut s)));
    let [batch, ic, ih, iw] = stacked.dims();
    let singles: Vec<Tensor4<Fx16>> = (0..batch)
        .map(|b| Tensor4::from_fn([1, ic, ih, iw], |[_, c, y, x]| stacked.get([b, c, y, x])))
        .collect();
    assert_eq!(pack(&singles), stacked);

    let whole = net.run(&stacked, ReuseConfig::FULL).unwrap();
    let engine = net.engine(ReuseConfig::FULL).unwrap();
    let refs: Vec<&Tensor4<Fx16>> = singles.iter().collect();
    let outputs = engine.run_packed(&refs, &mut Scratch::new()).unwrap();
    assert_eq!(outputs.len(), batch);

    let [_, c, h, w] = whole.activations.dims();
    let mut merged = Counters::new();
    for (b, out) in outputs.iter().enumerate() {
        assert_eq!(out.activations.dims(), [1, c, h, w]);
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    assert_eq!(
                        out.activations.get([0, ci, y, x]),
                        whole.activations.get([b, ci, y, x]),
                        "image {b} plane {ci} at ({y},{x})"
                    );
                }
            }
        }
        merged.merge(&out.counters);
    }
    assert_eq!(merged, whole.counters);
}
