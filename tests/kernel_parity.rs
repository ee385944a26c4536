//! Kernel-level parity: the channel-stacked row kernel
//! (`engine/kernels.rs`, selected per `K` at engine-compile time) must
//! be bit-identical — activations AND counters — to the frozen scalar
//! reference (`ppsr::*_acc_scalar`, the pre-monomorphization
//! `correlate_at` loops) on every scheme, every `K` (specialized and
//! generic), and every geometry, including the edges: `K = 1`, inputs
//! narrower than `K`, and non-zero starting accumulators.
//!
//! Saturating `Accum` addition is not associative (three Q8.8 extreme
//! products overflow `i32` mid-correlation), so identity here proves the
//! kernels reproduce the reference's exact addition order, not merely
//! the same mathematical sum. The engine-level sweep at the bottom
//! drives the kernels through `run_layer` across scheme × stride × pad
//! (including stride 2 with odd widths) against the dense-expansion
//! oracle.

use proptest::prelude::*;
use tfe::sim::counters::Counters;
use tfe::sim::engine::{Engine, Scratch};
use tfe::sim::functional::run_layer;
use tfe::sim::network::{FunctionalNetwork, FunctionalStage};
use tfe::sim::output::OutputConfig;
use tfe::sim::ppsr::{
    conventional_row_pass_acc, conventional_row_pass_acc_scalar, dcnn_row_pass_acc,
    dcnn_row_pass_acc_scalar, scnn_row_pass_acc, scnn_row_pass_acc_scalar,
};
use tfe::tensor::conv::conv2d_fx;
use tfe::tensor::fixed::{Accum, Fx16};
use tfe::tensor::shape::LayerShape;
use tfe::tensor::tensor::Tensor4;
use tfe::transfer::analysis::ReuseConfig;
use tfe::transfer::layer::TransferredLayer;
use tfe::transfer::TransferScheme;

fn fx(bits: &[i16]) -> Vec<Fx16> {
    bits.iter().map(|&b| Fx16::from_bits(b)).collect()
}

fn acc(bits: &[i32]) -> Vec<Accum> {
    bits.iter().map(|&b| Accum::from_bits(b)).collect()
}

/// Samples drawn only from the extremes whose products overflow `i32`
/// after three terms — the saturation regime where addition order is
/// observable bit-wise.
fn extreme_bits(seed: u64, len: usize) -> Vec<i16> {
    const POOL: [i16; 5] = [i16::MIN, i16::MAX, 0, 1, -1];
    bits16(seed, len)
        .into_iter()
        .map(|b| POOL[(b as u16 as usize) % POOL.len()])
        .collect()
}

const ALL_REUSE: [ReuseConfig; 4] = [
    ReuseConfig::NONE,
    ReuseConfig::PPSR_ONLY,
    ReuseConfig::ERRR_ONLY,
    ReuseConfig::FULL,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conventional (dense) row pass: fast == scalar, values and
    /// counters, for specialized and generic `K` and inputs from empty
    /// to narrower-than-K to long.
    #[test]
    fn conventional_kernel_matches_scalar(
        k in 1usize..10,
        in_len in 0usize..64,
        seed_w in 0u64..u64::MAX,
        seed_i in 0u64..u64::MAX,
        seed_a in 0u64..u64::MAX,
    ) {
        let weights = fx(&bits16(seed_w, k));
        let input = fx(&bits16(seed_i, in_len));
        let out_len = (in_len + 1).saturating_sub(k);
        // One slot beyond out_len proves the tail stays untouched.
        let base = acc(&bits32(seed_a, out_len + 1));

        let mut fast = base.clone();
        let mut slow = base;
        let mut cf = Counters::new();
        let mut cs = Counters::new();
        conventional_row_pass_acc(&weights, &input, &mut fast, &mut cf);
        conventional_row_pass_acc_scalar(&weights, &input, &mut slow, &mut cs);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(cf, cs);
    }

    /// DCNN meta-row pass: every offset lane bit-identical under both
    /// counter conventions (PPSR on and off).
    #[test]
    fn dcnn_kernel_matches_scalar(
        k in 1usize..8,
        extra in 0usize..5,
        in_len in 0usize..48,
        ppsr in any::<bool>(),
        seed_w in 0u64..u64::MAX,
        seed_i in 0u64..u64::MAX,
        seed_a in 0u64..u64::MAX,
    ) {
        let z = k + extra;
        let meta_row = fx(&bits16(seed_w, z));
        let input = fx(&bits16(seed_i, in_len));
        let offsets = z - k + 1;
        let out_len = (in_len + 1).saturating_sub(k);
        let base: Vec<Vec<Accum>> = (0..offsets)
            .map(|dx| acc(&bits32(seed_a.wrapping_add(dx as u64), out_len + 1)))
            .collect();

        let mut fast = base.clone();
        let mut slow = base;
        let mut cf = Counters::new();
        let mut cs = Counters::new();
        dcnn_row_pass_acc(&meta_row, &input, k, ppsr, &mut fast, &mut cf);
        dcnn_row_pass_acc_scalar(&meta_row, &input, k, ppsr, &mut slow, &mut cs);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(cf, cs);
    }

    /// SCNN base-row pass: forward and (with PPSR) mirrored streams
    /// bit-identical, counters included.
    #[test]
    fn scnn_kernel_matches_scalar(
        k in 1usize..10,
        in_len in 0usize..64,
        ppsr in any::<bool>(),
        seed_w in 0u64..u64::MAX,
        seed_i in 0u64..u64::MAX,
        seed_a in 0u64..u64::MAX,
    ) {
        let base_row = fx(&bits16(seed_w, k));
        let input = fx(&bits16(seed_i, in_len));
        let out_len = (in_len + 1).saturating_sub(k);
        let fwd0 = acc(&bits32(seed_a, out_len + 1));
        let rev0 = acc(&bits32(seed_a ^ 0xabcd, out_len + 1));

        let (mut ff, mut fr) = (fwd0.clone(), rev0.clone());
        let (mut sf, mut sr) = (fwd0, rev0);
        let mut cf = Counters::new();
        let mut cs = Counters::new();
        scnn_row_pass_acc(
            &base_row, &input, ppsr, &mut ff,
            ppsr.then_some(fr.as_mut_slice()), &mut cf,
        );
        scnn_row_pass_acc_scalar(
            &base_row, &input, ppsr, &mut sf,
            ppsr.then_some(sr.as_mut_slice()), &mut cs,
        );
        prop_assert_eq!(ff, sf);
        prop_assert_eq!(fr, sr);
        prop_assert_eq!(cf, cs);
    }

    /// Saturation ordering: rows drawn entirely from the extremes force
    /// mid-correlation clamping, where any reordering of the saturating
    /// sums diverges bit-wise.
    #[test]
    fn saturating_regime_stays_bit_identical(
        k in 1usize..10,
        in_len in 0usize..40,
        seed_w in 0u64..u64::MAX,
        seed_i in 0u64..u64::MAX,
    ) {
        let weights = fx(&extreme_bits(seed_w, k));
        let input = fx(&extreme_bits(seed_i, in_len));
        let out_len = (in_len + 1).saturating_sub(k);
        let base = vec![Accum::ZERO; out_len];

        let mut fast = base.clone();
        let mut slow = base;
        let mut cf = Counters::new();
        let mut cs = Counters::new();
        conventional_row_pass_acc(&weights, &input, &mut fast, &mut cf);
        conventional_row_pass_acc_scalar(&weights, &input, &mut slow, &mut cs);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(cf, cs);
    }
}

/// SplitMix64-style deterministic bit streams for the seeded cases.
fn bits16(mut seed: u64, len: usize) -> Vec<i16> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as i16
        })
        .collect()
}

fn bits32(seed: u64, len: usize) -> Vec<i32> {
    bits16(seed, 2 * len)
        .chunks(2)
        .map(|p| (i32::from(p[0]) << 16) | (i32::from(p[1]) as u16 as i32))
        .collect()
}

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    // Quarter-unit steps are exactly representable in Q8.8, so the
    // datapath and the oracle see identical weights.
    (((*seed >> 20) & 0xf) as f32 - 7.5) / 4.0
}

/// Engine-level sweep: the kernels as `run_layer` actually drives them,
/// across scheme × stride × pad (stride 2 with odd widths included),
/// pinned bit-exactly to the dense-expansion oracle under every reuse
/// ablation.
#[test]
fn engine_kernels_match_oracle_across_stride_and_pad() {
    let mut seed = 0x5eed_u32;
    for (scheme, m) in [
        (TransferScheme::DCNN4, 4usize),
        (TransferScheme::Dcnn { z: 6 }, 16),
        (TransferScheme::Scnn, 8),
    ] {
        for stride in [1usize, 2] {
            for pad in [0usize, 1] {
                // Odd input width so stride 2 emits a ragged last column.
                let shape = LayerShape::conv("kp", 2, m, 11, 11, 3, stride, pad).unwrap();
                let layer = TransferredLayer::random(&shape, scheme, || det(&mut seed)).unwrap();
                let input = Tensor4::from_fn([1, 2, 11, 11], |_| Fx16::from_f32(det(&mut seed)));
                let dense = layer.expand_to_dense().unwrap().map(Fx16::from_f32);
                let expected = conv2d_fx(&input, &dense, &shape).unwrap();
                for reuse in ALL_REUSE {
                    let got = run_layer(&input, &layer, &shape, reuse).unwrap();
                    assert_eq!(
                        got.output, expected,
                        "{scheme:?} stride {stride} pad {pad} {reuse:?}"
                    );
                }
            }
        }
    }
}

/// The `K = 1` specialization through a real engine pass (dense layer,
/// pointwise convolution).
#[test]
fn k1_dense_layer_matches_oracle() {
    let mut seed = 77u32;
    let shape = LayerShape::conv("k1", 3, 2, 7, 9, 1, 1, 0).unwrap();
    let weights = Tensor4::from_fn([2, 3, 1, 1], |_| det(&mut seed));
    let layer = TransferredLayer::Dense {
        weights: weights.clone(),
    };
    let input = Tensor4::from_fn([1, 3, 7, 9], |_| Fx16::from_f32(det(&mut seed)));
    let expected = conv2d_fx(&input, &weights.map(Fx16::from_f32), &shape).unwrap();
    let got = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
    assert_eq!(got.output, expected);
}

/// The K = 5 and K = 7 specializations through dense engine passes.
#[test]
fn wide_dense_kernels_match_oracle() {
    for k in [5usize, 7] {
        let mut seed = 1000 + k as u32;
        let shape = LayerShape::conv("wide", 1, 2, 13, 13, k, 2, 2).unwrap();
        let weights = Tensor4::from_fn([2, 1, k, k], |_| det(&mut seed));
        let layer = TransferredLayer::Dense {
            weights: weights.clone(),
        };
        let input = Tensor4::from_fn([1, 1, 13, 13], |_| Fx16::from_f32(det(&mut seed)));
        let expected = conv2d_fx(&input, &weights.map(Fx16::from_f32), &shape).unwrap();
        let got = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
        assert_eq!(got.output, expected, "K = {k}");
    }
}

/// The runtime-`K` kernel (`RowKernel::Generic`) through real engine
/// passes: `K = 3` at dilation 4 stores 9-wide rows, which no
/// monomorphized variant covers. Dense, DCNN4, and SCNN stages with a
/// 3-channel band at batch 1 and 3, pinned bit-exactly to the
/// dense-expansion oracle under every reuse ablation — on quiet data
/// (the stage bound admits the wrapping form) and on data with one loud
/// sample per image that fails the bound without any sum reaching the
/// `i32` rails (the saturating form, where the oracle's different
/// addition order still agrees).
#[test]
fn generic_kernel_matches_oracle_through_engine() {
    let mut seed = 0x9e9e_u32;
    for (scheme, m) in [
        (None, 5usize),
        (Some(TransferScheme::DCNN4), 4),
        (Some(TransferScheme::Scnn), 8),
    ] {
        let shape = LayerShape::conv("generic", 3, m, 13, 13, 3, 1, 4)
            .unwrap()
            .with_dilation(4)
            .unwrap();
        for (regime, amp) in [("wrapping", 1.0f32), ("saturating", 16.0)] {
            let mut weight = || amp * det(&mut seed);
            let layer = match scheme {
                None => TransferredLayer::Dense {
                    weights: Tensor4::from_fn([m, 3, 3, 3], |_| weight()),
                },
                Some(scheme) => TransferredLayer::random(&shape, scheme, weight).unwrap(),
            };
            let dense = layer.expand_to_dense().unwrap().map(Fx16::from_f32);
            for batch in [1usize, 3] {
                let input = Tensor4::from_fn([batch, 3, 13, 13], |[_, c, y, x]| {
                    let loud = amp > 1.0 && (c, y, x) == (1, 6, 6);
                    Fx16::from_f32(if loud { 127.0 } else { det(&mut seed) })
                });
                let expected = conv2d_fx(&input, &dense, &shape).unwrap();
                for reuse in ALL_REUSE {
                    let got = run_layer(&input, &layer, &shape, reuse).unwrap();
                    assert_eq!(
                        got.output, expected,
                        "{scheme:?} {regime} batch {batch} {reuse:?}"
                    );
                }
            }
        }
    }
}

/// SCNN and DCNN stages whose batch-wide rows reach the tap-pair
/// kernel's 16- and 32-position blocks: a batch of 4 images at 13×13
/// with pad 1 sweeps rows of `(4−1)·15 + 13 = 58` positions (32 + 16 +
/// 8 + an overlapped tail), a batch of 3 at 20×20 rows of
/// `2·22 + 20 = 64` (32 + 32). Quiet data keeps every stage inside the
/// wrapping gate; pinned to the dense-expansion oracle under every reuse
/// ablation.
#[test]
fn transferred_rows_reach_every_tap_pair_width() {
    let mut seed = 0x07a9_u32;
    for (scheme, m) in [
        (TransferScheme::Scnn, 8usize),
        (TransferScheme::DCNN4, 4),
        (TransferScheme::Dcnn { z: 6 }, 16),
    ] {
        for (batch, hw) in [(4usize, 13usize), (3, 20)] {
            let shape = LayerShape::conv("wide", 3, m, hw, hw, 3, 1, 1).unwrap();
            let layer = TransferredLayer::random(&shape, scheme, || det(&mut seed)).unwrap();
            let input = Tensor4::from_fn([batch, 3, hw, hw], |_| Fx16::from_f32(det(&mut seed)));
            let dense = layer.expand_to_dense().unwrap().map(Fx16::from_f32);
            let expected = conv2d_fx(&input, &dense, &shape).unwrap();
            for reuse in ALL_REUSE {
                let got = run_layer(&input, &layer, &shape, reuse).unwrap();
                assert_eq!(
                    got.output, expected,
                    "{scheme:?} batch {batch} at {hw}x{hw} {reuse:?}"
                );
            }
        }
    }
}

/// The filter-vector sweep of ungrouped dense stages of at least 16
/// filters, through real engine runs: a full 32-filter group plus a
/// partial last group of 8 (`M = 40`), two full groups (`M = 64`) and a
/// lone 16-filter group, stride
/// 1 and 2, `K` = 3, 5 and 7, pad 0, 1 and 2, dilation 1 and 2, batch 1
/// and 3. Quiet data
/// passes the stage gate (the tap-pair filter blocks); data with one
/// loud sample per image fails it without any sum reaching the `i32`
/// rails (the saturating portable loop, where the oracle's different
/// addition order still agrees). Each cell's raw accumulators
/// (`run_layer`) must equal `conv2d_fx`, and so must the activations of
/// `Engine::run_batched` at 1–3 workers, which split the batch or, at
/// batch 1, the stage's groups or output rows, and of a lone image at 4
/// and 5 workers, which split its output rows.
#[test]
fn filter_vector_dense_stages_match_oracle() {
    let mut seed = 0xf17e_u32;
    let hw = 13;
    for (m, k, stride, pad, dilation) in [
        (40usize, 3usize, 1usize, 1usize, 1usize),
        (40, 5, 2, 0, 1),
        (16, 7, 2, 2, 1),
        (40, 7, 1, 0, 1),
        (16, 5, 1, 2, 1),
        (40, 3, 2, 2, 1),
        (64, 3, 1, 1, 1),
        (40, 3, 1, 2, 2),
        (16, 5, 2, 1, 2),
        (64, 3, 2, 0, 2),
    ] {
        let shape = LayerShape::conv("fv", 3, m, hw, hw, k, stride, pad)
            .unwrap()
            .with_dilation(dilation)
            .unwrap();
        for (regime, amp) in [("wrapping", 1.0f32), ("saturating", 16.0)] {
            let weights = Tensor4::from_fn([m, 3, k, k], |_| amp * det(&mut seed));
            let layer = TransferredLayer::Dense {
                weights: weights.clone(),
            };
            let dense = weights.map(Fx16::from_f32);
            let net = FunctionalNetwork::new(vec![FunctionalStage {
                shape: shape.clone(),
                weights: layer.clone(),
                bias: Vec::new(),
                output: OutputConfig {
                    relu: false,
                    pool: None,
                },
            }])
            .unwrap();
            let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
            for batch in [1usize, 3] {
                let input = Tensor4::from_fn([batch, 3, hw, hw], |[_, c, y, x]| {
                    let loud = amp > 1.0 && (c, y, x) == (1, 6, 6);
                    Fx16::from_f32(if loud { 127.0 } else { det(&mut seed) })
                });
                let expected = conv2d_fx(&input, &dense, &shape).unwrap();
                let cell = format!(
                    "M {m} K {k} stride {stride} pad {pad} d {dilation} {regime} batch {batch}"
                );
                let got = run_layer(&input, &layer, &shape, ReuseConfig::FULL).unwrap();
                assert_eq!(got.output, expected, "{cell}");
                let activations = expected.map(|a| a.to_sample());
                let workers = if batch == 1 { 1..=5 } else { 1..=3 };
                for workers in workers {
                    let run = engine
                        .run_batched(&input, &mut Scratch::new(), workers)
                        .unwrap();
                    assert_eq!(run.activations, activations, "{cell} workers {workers}");
                }
            }
        }
    }
}

/// The transferred lane layout (SCNN orbit groups' stored blocks, DCNN
/// meta groups, and DCNN `(meta group, dx)` offset slices as lanes of
/// the filter-vector pass, on stages of at least 16 lanes), through real
/// engine runs: SCNN at 64 filters (one full 32-lane group under `FULL`)
/// and 72 (32 + 4 lanes); DCNN4 at 128 (32 meta lanes); on offset lanes
/// DCNN4 at 32 (8 meta groups, 16 lanes), 64 (16, 32 lanes), 144 (36,
/// 32 + 32 + 8) and 192 (48, three full groups), and DCNN6 at 64 (4, 16
/// lanes) and 256 (16, 32 + 32); under every reuse ablation (SCNN
/// stores 4, 6, 12 or 8 lanes per orbit group; DCNN takes lanes with or
/// without ERRR), stride 1 and 2, dilation 1 and
/// 2, pad 0 and 1, batch 1 and 3, on quiet data (the tap-pair filter
/// blocks) and on data with one loud sample per image that fails the
/// stage gate without any sum reaching the `i32` rails (the saturating
/// portable loop). Each cell's raw accumulators (`run_layer`) must
/// equal `conv2d_fx` on the expanded weights, and so must the
/// activations of `Engine::run_batched` at 1–3 workers, which split the
/// batch or, at batch 1, the stage's lane groups or output rows.
#[test]
fn transferred_lane_stages_match_oracle() {
    let mut seed = 0x1a7e_u32;
    let hw = 11;
    for (scheme, m) in [
        (TransferScheme::Scnn, 64usize),
        (TransferScheme::Scnn, 72),
        (TransferScheme::DCNN4, 32),
        (TransferScheme::DCNN4, 64),
        (TransferScheme::DCNN4, 128),
        (TransferScheme::DCNN4, 144),
        (TransferScheme::DCNN4, 192),
        (TransferScheme::DCNN6, 64),
        (TransferScheme::DCNN6, 256),
    ] {
        for (stride, dilation, pad) in [
            (1usize, 1usize, 1usize),
            (2, 1, 0),
            (1, 2, 0),
            (2, 2, 1),
            (1, 1, 0),
            (2, 1, 1),
            (1, 2, 1),
            (2, 2, 0),
        ] {
            let shape = LayerShape::conv("lanes", 3, m, hw, hw, 3, stride, pad)
                .unwrap()
                .with_dilation(dilation)
                .unwrap();
            for (regime, amp) in [("wrapping", 1.0f32), ("saturating", 16.0)] {
                let layer =
                    TransferredLayer::random(&shape, scheme, || amp * det(&mut seed)).unwrap();
                let dense = layer.expand_to_dense().unwrap().map(Fx16::from_f32);
                let net = FunctionalNetwork::new(vec![FunctionalStage {
                    shape: shape.clone(),
                    weights: layer.clone(),
                    bias: Vec::new(),
                    output: OutputConfig {
                        relu: false,
                        pool: None,
                    },
                }])
                .unwrap();
                for batch in [1usize, 3] {
                    let input = Tensor4::from_fn([batch, 3, hw, hw], |[_, c, y, x]| {
                        let loud = amp > 1.0 && (c, y, x) == (1, 5, 5);
                        Fx16::from_f32(if loud { 127.0 } else { det(&mut seed) })
                    });
                    let expected = conv2d_fx(&input, &dense, &shape).unwrap();
                    let activations = expected.map(|a| a.to_sample());
                    for reuse in ALL_REUSE {
                        let cell = format!(
                            "{scheme:?} M {m} stride {stride} dilation {dilation} pad {pad} \
                             {regime} batch {batch} {reuse:?}"
                        );
                        let got = run_layer(&input, &layer, &shape, reuse).unwrap();
                        assert_eq!(got.output, expected, "{cell}");
                        let engine = Engine::compile(&net, reuse).unwrap();
                        for workers in 1..=3 {
                            let run = engine
                                .run_batched(&input, &mut Scratch::new(), workers)
                                .unwrap();
                            assert_eq!(run.activations, activations, "{cell} workers {workers}");
                        }
                    }
                }
            }
        }
    }
}
