//! Filter-stationary batched execution parity: `Engine::run_batched`
//! must be **bit-identical**, image by image, to sequential
//! [`Engine::run`] calls — activations, per-image counters, and
//! per-layer telemetry sums — at every scheme, reuse ablation, stride,
//! batch size, and intra-run worker count (including more workers than
//! images).
//!
//! The batched sweep reorders work only **across** images (each
//! quantized filter row sweeps the whole batch before the next row
//! loads), never within one image, so every image sees the exact
//! saturating-addition order of a single-image run. Both kernel paths
//! are pinned for dense, DCNN, and SCNN stages alike: the wrapping fast
//! path (the conservative `N·K·max|w|·max|input|` bound proves no
//! intermediate can clamp) and the saturating fallback on data that
//! genuinely clamps.
//!
//! Also pinned here: the [`Scratch`] high-water shrink window — a
//! one-off large batch keeps its arenas warm for `PEAK_WINDOW` further
//! runs, then the excess capacity is released.

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
use tfe::transfer::TransferScheme;

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    ((*seed >> 16) as f32 / 65536.0) - 0.5
}

const ALL_SCHEMES: [TransferScheme; 3] = [
    TransferScheme::DCNN4,
    TransferScheme::DCNN6,
    TransferScheme::Scnn,
];

/// The scheme grid's networks: every scheme at its smallest filter count
/// (one DCNN meta group or SCNN orbit group per stage), plus SCNN at 32
/// filters, 16 lanes under `FULL` and more under the other ablations:
/// the transferred lane layout.
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

/// The batch sizes the parity sweep covers: singleton, even, odd (so
/// batch-chunk partitions are unequal), and the bench's headline size.
const BATCHES: [usize; 4] = [1, 2, 5, 8];

/// A small two-stage network (conv → conv+pool) of `m` filters per
/// stage under `scheme` ([`SCHEME_GRID`]); `strided` swaps in a stride-2
/// first stage so the sweep also covers the subsampled window path.
fn scheme_net(scheme: TransferScheme, m: usize, strided: bool, seed: u32) -> FunctionalNetwork {
    let shapes = if strided {
        vec![
            (
                LayerShape::conv("t1", 3, m, 13, 13, 3, 2, 1).unwrap(),
                false,
            ),
            (LayerShape::conv("t2", m, m, 7, 7, 3, 1, 1).unwrap(), false),
        ]
    } else {
        vec![
            (
                LayerShape::conv("p1", 3, m, 12, 12, 3, 1, 1).unwrap(),
                false,
            ),
            (LayerShape::conv("p2", m, m, 12, 12, 3, 1, 1).unwrap(), true),
        ]
    };
    let mut s = seed;
    FunctionalNetwork::random(&shapes, scheme, || det(&mut s)).unwrap()
}

/// A single dense (non-transferred) stage — the batch-interleaved sweep
/// path — with weights scaled by `amp` so tests can choose the wrapping
/// fast path (small `amp`) or force genuine saturation (large `amp`).
fn dense_net(n: usize, m: usize, hw: usize, k: usize, amp: f32, seed: u32) -> FunctionalNetwork {
    let mut s = seed;
    let shape = LayerShape::conv("d", n, m, hw, hw, k, 1, 1).unwrap();
    let weights = TransferredLayer::Dense {
        weights: Tensor4::from_fn([m, n, k, k], |_| amp * det(&mut s)),
    };
    FunctionalNetwork::new(vec![FunctionalStage {
        shape,
        weights,
        bias: vec![0.1; m],
        output: OutputConfig::RELU_ONLY,
    }])
    .unwrap()
}

/// [`dense_net`] with all but one weight in ten zeroed: past the 80 %
/// sparsity threshold, so an 8-filter stage compiles to the
/// compressed-sparse pass.
fn pruned_net(n: usize, m: usize, hw: usize, seed: u32) -> FunctionalNetwork {
    let mut s = seed;
    let shape = LayerShape::conv("p", n, m, hw, hw, 3, 1, 1).unwrap();
    let mut tap = 0;
    let weights = TransferredLayer::Dense {
        weights: Tensor4::from_fn([m, n, 3, 3], |_| {
            tap += 1;
            if tap % 10 == 0 {
                det(&mut s)
            } else {
                0.0
            }
        }),
    };
    FunctionalNetwork::new(vec![FunctionalStage {
        shape,
        weights,
        bias: vec![0.1; m],
        output: OutputConfig::RELU_ONLY,
    }])
    .unwrap()
}

/// A single transferred stage (48 → `m` channels at 12×12; at 16, DCNN4,
/// DCNN6, and SCNN all tile it) with weights scaled by `amp` — the
/// transferred counterpart of [`dense_net`]: small `amp` keeps every
/// DCNN lane and SCNN stream inside the wrapping bound, large `amp`
/// forces the saturating kernels on data that genuinely clamps.
fn transferred_net(scheme: TransferScheme, m: usize, amp: f32, seed: u32) -> FunctionalNetwork {
    let mut s = seed;
    let shape = LayerShape::conv("t", 48, m, 12, 12, 3, 1, 1).unwrap();
    let weights = TransferredLayer::random(&shape, scheme, || amp * det(&mut s)).unwrap();
    FunctionalNetwork::new(vec![FunctionalStage {
        shape,
        weights,
        bias: vec![0.1; m],
        output: OutputConfig::RELU_ONLY,
    }])
    .unwrap()
}

/// A four-stage chained network covering every generalized-geometry arm
/// at once: a transferred SCNN stem, a depthwise stage, a dilated stage,
/// and a grouped stage with pooling.
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

fn stacked(batch: usize, c: usize, side: usize, amp: f32, seed: u32) -> Tensor4<Fx16> {
    let mut s = seed;
    Tensor4::from_fn([batch, c, side, side], |_| {
        Fx16::from_f32(amp * det(&mut s))
    })
}

fn singles(input: &Tensor4<Fx16>) -> Vec<Tensor4<Fx16>> {
    let [batch, c, h, w] = input.dims();
    (0..batch)
        .map(|b| Tensor4::from_fn([1, c, h, w], |[_, ci, y, x]| input.get([b, ci, y, x])))
        .collect()
}

/// The parity oracle: `batched` must decompose into exactly the
/// sequential per-image runs — activations element-wise, counters per
/// image, and the merged total in batch order.
fn assert_batched_matches_sequential(
    engine: &Engine,
    input: &Tensor4<Fx16>,
    batched: &BatchedRun,
    label: &str,
) {
    let images = singles(input);
    assert_eq!(batched.per_image.len(), images.len(), "{label}");
    let mut scratch = Scratch::new();
    let mut total = Counters::new();
    for (b, single) in images.iter().enumerate() {
        let want = engine.run(single, &mut scratch).unwrap();
        assert_eq!(
            want.counters, batched.per_image[b],
            "{label}: per-image counters diverge at image {b}"
        );
        total.merge(&want.counters);
        let [_, c, h, w] = want.activations.dims();
        assert_eq!(batched.activations.dims(), [images.len(), c, h, w]);
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    assert_eq!(
                        want.activations.get([0, ci, y, x]),
                        batched.activations.get([b, ci, y, x]),
                        "{label}: activations diverge at image {b} plane {ci} ({y},{x})"
                    );
                }
            }
        }
    }
    assert_eq!(total, batched.counters, "{label}: merged counters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The full sweep: scheme grid × reuse ablation × stride × batch size
    /// × worker count (1..=9, so every batch size also runs with more
    /// workers than images — the per-image unit-group partition path).
    #[test]
    fn batched_run_is_bit_identical_to_sequential(
        scheme_idx in 0usize..4,
        reuse_idx in 0usize..4,
        strided in any::<bool>(),
        batch_idx in 0usize..4,
        workers in 1usize..10,
        seed in 0u32..10_000,
    ) {
        let (scheme, m) = SCHEME_GRID[scheme_idx];
        let net = scheme_net(scheme, m, strided, seed);
        let side = if strided { 13 } else { 12 };
        let batch = BATCHES[batch_idx];
        let input = stacked(batch, 3, side, 1.0, seed ^ 0xbead);

        let engine = Engine::compile(&net, ALL_REUSE[reuse_idx]).unwrap();
        let mut scratch = Scratch::new();
        let batched = engine.run_batched(&input, &mut scratch, workers).unwrap();
        let label = format!(
            "{scheme:?} m={m} reuse={reuse_idx} strided={strided} batch={batch} workers={workers}"
        );
        assert_batched_matches_sequential(&engine, &input, &batched, &label);
        prop_assert_eq!(scratch.run_quantized_rows(), 0);
    }
}

/// Both dense kernel paths, deterministically: small weights keep every
/// intermediate provably inside `i32` (the wrapping fast path), large
/// weights and inputs push sums past the clamp (the saturating
/// fallback) — parity must hold bit-exactly on both, at every batch
/// size and worker count.
#[test]
fn dense_wrapping_and_saturating_paths_match_sequential() {
    for (label, amp) in [("wrapping", 1.0f32), ("saturating", 100.0)] {
        let net = dense_net(48, 16, 12, 3, amp, 0x5eed);
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let mut scratch = Scratch::new();
        for &batch in &BATCHES {
            let input = stacked(batch, 48, 12, amp, 0xace ^ batch as u32);
            for workers in [1usize, 3, 9] {
                let batched = engine.run_batched(&input, &mut scratch, workers).unwrap();
                assert_batched_matches_sequential(
                    &engine,
                    &input,
                    &batched,
                    &format!("dense/{label} batch={batch} workers={workers}"),
                );
            }
        }
    }
}

/// The same two regimes for the transferred sweeps — DCNN (Z = 4 and
/// Z = 6) offset lanes and SCNN forward/mirrored streams, batch-wide in
/// the row-interleaved layout — under every reuse ablation (ERRR rings
/// vs per-`dy` recomputation, with and without the PPSR mirrored
/// stream), at every batch size and worker count.
#[test]
fn transferred_wrapping_and_saturating_paths_match_sequential() {
    for scheme in ALL_SCHEMES {
        for (label, amp) in [("wrapping", 1.0f32), ("saturating", 100.0)] {
            let net = transferred_net(scheme, 16, amp, 0x7a11);
            for reuse in ALL_REUSE {
                let engine = Engine::compile(&net, reuse).unwrap();
                let mut scratch = Scratch::new();
                for &batch in &BATCHES {
                    let input = stacked(batch, 48, 12, amp, 0xace ^ batch as u32);
                    for workers in [1usize, 3, 9] {
                        let batched = engine.run_batched(&input, &mut scratch, workers).unwrap();
                        assert_batched_matches_sequential(
                            &engine,
                            &input,
                            &batched,
                            &format!(
                                "{scheme:?}/{label} reuse={reuse:?} batch={batch} workers={workers}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// A k=5 dense stage exercises the widest monomorphized row kernel and
/// the largest inter-image junk gap of the interleaved layout.
#[test]
fn dense_k5_batched_matches_sequential() {
    let net = dense_net(32, 8, 10, 5, 1.0, 0xfade);
    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    let mut scratch = Scratch::new();
    let input = stacked(5, 32, 10, 1.0, 0xd00d);
    let batched = engine.run_batched(&input, &mut scratch, 2).unwrap();
    assert_batched_matches_sequential(&engine, &input, &batched, "dense k5");
}

/// Depthwise, dilated, and grouped stages through the filter-stationary
/// batched sweep: parity with sequential runs must hold bit-exactly on
/// the generalized geometry, at several batch sizes and worker counts,
/// with and without reuse.
#[test]
fn geometry_net_batched_matches_sequential() {
    let net = geometry_net(0x6e0);
    for reuse in [ReuseConfig::FULL, ReuseConfig::NONE] {
        let engine = Engine::compile(&net, reuse).unwrap();
        let mut scratch = Scratch::new();
        for batch in [1usize, 5] {
            let input = stacked(batch, 3, 12, 1.0, 0x617 ^ batch as u32);
            for workers in [1usize, 3, 9] {
                let batched = engine.run_batched(&input, &mut scratch, workers).unwrap();
                assert_batched_matches_sequential(
                    &engine,
                    &input,
                    &batched,
                    &format!("geometry reuse={reuse:?} batch={batch} workers={workers}"),
                );
            }
        }
    }
}

/// The depthwise-separable zoo trunk (`mobilenet-mini`'s conv stem plus
/// dw/pw blocks) compiles into one engine — the stem transfers, the
/// depthwise and pointwise stages run conventionally — and batched
/// multi-worker execution stays bit-identical to sequential runs.
#[test]
fn mobilenet_mini_trunk_batched_matches_sequential() {
    use tfe::nets::TransferMode;
    let zoo = tfe::nets::zoo::mobilenet_mini();
    let shapes: Vec<(LayerShape, bool)> = zoo
        .conv_layers()
        .map(|l| (l.shape().clone(), false))
        .collect();
    assert!(shapes.iter().any(|(s, _)| s.groups() > 1));
    let mut s = 0x30b1u32;
    let net = FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(&mut s)).unwrap();

    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    let modes = engine.stage_modes();
    assert_eq!(modes[0], TransferMode::Scnn, "stem transfers");
    for (mode, (shape, _)) in modes.iter().zip(&shapes).skip(1) {
        assert_eq!(
            *mode,
            TransferMode::Conventional,
            "{}: dw/pw stages run conventionally",
            shape.name()
        );
    }

    let input = stacked(3, 3, 32, 1.0, 0x32);
    let mut scratch = Scratch::new();
    for workers in [1usize, 4] {
        let batched = engine.run_batched(&input, &mut scratch, workers).unwrap();
        assert_batched_matches_sequential(
            &engine,
            &input,
            &batched,
            &format!("mobilenet-mini workers={workers}"),
        );
    }
    assert_eq!(scratch.run_quantized_rows(), 0);
}

/// Telemetry under batching: one batched run records **one** sample per
/// stage carrying the whole batch's exact counter deltas and image
/// count, and the per-layer sums equal a sequential engine's — so
/// per-layer accounting is execution-strategy invariant.
#[test]
fn per_layer_telemetry_sums_match_sequential_engine() {
    for (scheme, m) in SCHEME_GRID {
        let net = scheme_net(scheme, m, false, 77);
        let batch = 5usize;
        let input = stacked(batch, 3, 12, 1.0, 0x7007);

        let mut loud_batched = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        loud_batched.enable_telemetry(64);
        let mut scratch = Scratch::new();
        loud_batched.run_batched(&input, &mut scratch, 2).unwrap();

        let mut loud_seq = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        loud_seq.enable_telemetry(64);
        for single in &singles(&input) {
            loud_seq.run(single, &mut scratch).unwrap();
        }

        let reg_b = loud_batched.telemetry();
        let reg_s = loud_seq.telemetry();
        assert_eq!(reg_b.layers().len(), reg_s.layers().len());
        for (lb, ls) in reg_b.layers().iter().zip(reg_s.layers()) {
            assert_eq!(lb.runs, 1, "{scheme:?}: one sample per stage per run");
            assert_eq!(ls.runs, batch as u64);
            assert_eq!(lb.images, batch as u64, "{scheme:?}: batch size recorded");
            assert_eq!(ls.images, batch as u64);
            assert_eq!(
                lb.counters, ls.counters,
                "{scheme:?} layer {}: per-layer counter sums diverge",
                lb.layer
            );
        }
        assert_eq!(reg_b.total(), reg_s.total(), "{scheme:?} network totals");
    }
}

/// The bounded high-water shrink, for two dense engines (row sweep and
/// filter-vector sweep), a pruned dense engine on the compressed-sparse
/// pass, a DCNN4, and two SCNN engines (row and lane
/// layouts): a one-off batch-8 run grows the batch-scaled arenas —
/// padded planes, accumulators, and stage buffers, plus the sparse row
/// parts, the row layout's batch-wide window and ERRR ring parts, or the
/// lane layout's window, position list and ring parts — and a lone
/// image of a dense lane-layout stage at two workers its output-row
/// block; they
/// stay warm while the peaks are inside the shrink window, and are
/// released once `PEAK_WINDOW` (8) smaller runs age them out.
#[test]
fn scratch_arenas_shrink_after_peak_ages_out() {
    // Indices into `Scratch::arena_capacities`: padded, out, stage_in,
    // stage_next, dense parts, window, filter-vector positions,
    // output-row blocks, ERRR ring part words.
    const SHARED: [usize; 4] = [0, 1, 2, 3];
    const PARTS: usize = 4;
    const WINDOW: usize = 5;
    const POSITIONS: usize = 6;
    const ROWS_OUT: usize = 7;
    const RING: usize = 8;
    // The two stage-activation buffers swap roles every run, so they
    // are compared as an unordered pair.
    let caps = |scratch: &Scratch| {
        let mut caps = scratch.arena_capacities();
        if caps[2] > caps[3] {
            caps.swap(2, 3);
        }
        caps
    };
    let cells = [
        // Dense filters run lane groups on the ring: 8 filters in the row
        // layout's batch-wide window and ring parts.
        (
            "dense",
            dense_net(8, 8, 12, 3, 1.0, 0x91),
            8,
            vec![WINDOW, RING],
        ),
        ("sparse pass", pruned_net(8, 8, 12, 0x96), 8, vec![PARTS]),
        // 32 filters run the lane layout, whose lone image at two
        // workers splits its output rows into blocks.
        (
            "dense filter groups",
            dense_net(8, 32, 12, 3, 1.0, 0x94),
            8,
            vec![WINDOW, POSITIONS, ROWS_OUT, RING],
        ),
        (
            "dcnn4",
            transferred_net(TransferScheme::DCNN4, 16, 1.0, 0x92),
            48,
            vec![WINDOW, RING],
        ),
        (
            "scnn",
            transferred_net(TransferScheme::Scnn, 16, 1.0, 0x93),
            48,
            vec![WINDOW, RING],
        ),
        // 64 filters are 32 lanes: one lane group.
        (
            "scnn lanes",
            transferred_net(TransferScheme::Scnn, 64, 1.0, 0x95),
            48,
            vec![WINDOW, POSITIONS, RING],
        ),
    ];
    for (label, net, channels, own) in cells {
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let mut scratch = Scratch::new();
        let big = stacked(8, channels, 12, 1.0, 0xb16);
        let small = stacked(1, channels, 12, 1.0, 0x5a11);
        engine.run_batched(&big, &mut scratch, 1).unwrap();
        engine.run_batched(&small, &mut scratch, 2).unwrap();
        let peak_caps = caps(&scratch);

        // Inside the window the batch-8 and two-worker peaks still bound
        // every arena: the next small run must not release the warm
        // capacity.
        engine.run_batched(&small, &mut scratch, 1).unwrap();
        assert_eq!(
            caps(&scratch),
            peak_caps,
            "{label}: peak still inside the shrink window must keep arenas warm"
        );

        // Seven more small runs overwrite the last window slots holding
        // the peaks; retiring the eighth shrinks to the small one-worker
        // geometry. Arenas this scheme scales with the batch must
        // shrink; the rest must not grow.
        for _ in 0..7 {
            engine.run_batched(&small, &mut scratch, 1).unwrap();
        }
        let shrunk = caps(&scratch);
        for (i, (&after, &before)) in shrunk.iter().zip(&peak_caps).enumerate() {
            if SHARED.contains(&i) || own.contains(&i) {
                assert!(
                    after < before,
                    "{label} arena {i}: capacity {after} must shrink below the batch-8 peak {before}"
                );
            } else {
                assert!(
                    after <= before,
                    "{label} arena {i}: capacity {after} must not grow past {before}"
                );
            }
        }

        // And the shrunk arenas still produce exact results.
        let batched = engine.run_batched(&big, &mut scratch, 1).unwrap();
        assert_batched_matches_sequential(&engine, &big, &batched, &format!("{label} post-shrink"));
    }
}
