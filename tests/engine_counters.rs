//! Counter-accounting regressions for the compiled engine.
//!
//! Two accounting bugs are pinned here:
//!
//! 1. **Pooling-tail asymmetry.** The row-wise pooler stages horizontal
//!    reductions in `O_Memory` and charges `psum_mem_writes` for them;
//!    when the pool extent did not divide the ofmap, the staged tail was
//!    silently discarded without the matching `psum_mem_reads`.
//!    `Engine::compile` now rejects such geometry with a typed
//!    [`SimError::NonDivisiblePool`], and divisible geometry keeps the
//!    write/read counters symmetric.
//! 2. **Combine adds under stride.** The adder trees combine `K` window
//!    parts only at the `F` positions `exec::emit_rows` consumes, matching the
//!    analytic model's `out_elems · (K − 1)` term — the units used to
//!    charge over the full padded row width, overcounting whenever
//!    stride > 1.

use tfe::sim::engine::{Engine, Scratch};
use tfe::sim::network::{FunctionalNetwork, FunctionalStage};
use tfe::sim::output::OutputConfig;
use tfe::sim::SimError;
use tfe::tensor::fixed::Fx16;
use tfe::tensor::shape::LayerShape;
use tfe::tensor::tensor::Tensor4;
use tfe::transfer::analysis::ReuseConfig;
use tfe::transfer::layer::TransferredLayer;

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    ((*seed >> 16) as f32 / 65536.0) - 0.5
}

/// A one-stage dense (conventional) network over an `h × w` input with
/// the given stride and output configuration.
#[allow(clippy::too_many_arguments)]
fn dense_net(
    n: usize,
    m: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    output: OutputConfig,
    seed: u32,
) -> FunctionalNetwork {
    let mut s = seed;
    let shape = LayerShape::conv("dense", n, m, h, w, k, stride, 1).unwrap();
    let weights = Tensor4::from_fn([m, n, k, k], |_| det(&mut s));
    FunctionalNetwork::new(vec![FunctionalStage {
        shape,
        weights: TransferredLayer::Dense { weights },
        bias: vec![],
        output,
    }])
    .unwrap()
}

#[test]
fn compile_rejects_non_divisible_pool_rows() {
    // 7×7 input, K=3, pad 1 → 7×7 ofmap; a 2×2 pool leaves a tail row.
    let net = dense_net(2, 3, 7, 7, 3, 1, OutputConfig::RELU_POOL2, 11);
    let err = Engine::compile(&net, ReuseConfig::FULL).unwrap_err();
    assert_eq!(
        err,
        SimError::NonDivisiblePool {
            what: "ofmap rows",
            extent: 7,
            pool: 2,
        }
    );
}

#[test]
fn compile_rejects_non_divisible_pool_columns() {
    // 8×7 input, K=3, pad 1 → 8×7 ofmap: rows divide, columns do not.
    let net = dense_net(2, 3, 8, 7, 3, 1, OutputConfig::RELU_POOL2, 13);
    let err = Engine::compile(&net, ReuseConfig::FULL).unwrap_err();
    assert_eq!(
        err,
        SimError::NonDivisiblePool {
            what: "ofmap columns",
            extent: 7,
            pool: 2,
        }
    );
}

#[test]
fn compile_rejects_zero_pool_extent() {
    let net = dense_net(
        2,
        3,
        8,
        8,
        3,
        1,
        OutputConfig {
            relu: true,
            pool: Some(0),
        },
        17,
    );
    assert!(matches!(
        Engine::compile(&net, ReuseConfig::FULL),
        Err(SimError::InvalidConfig { .. })
    ));
}

#[test]
fn divisible_pool_keeps_psum_counters_symmetric() {
    // Dense units never touch the ERRR rings, so on this network the
    // only PSum-memory traffic is the pooler's O_Memory staging: every
    // staged word must be read back exactly once.
    let net = dense_net(2, 3, 8, 8, 3, 1, OutputConfig::RELU_POOL2, 19);
    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    let mut seed = 101;
    let input = Tensor4::from_fn([1, 2, 8, 8], |_| Fx16::from_f32(det(&mut seed)));
    let mut scratch = Scratch::new();
    let out = engine.run(&input, &mut scratch).unwrap();
    assert!(out.counters.psum_mem_writes > 0);
    assert_eq!(out.counters.psum_mem_writes, out.counters.psum_mem_reads);
}

#[test]
fn combine_adds_are_charged_per_emitted_position_under_stride() {
    // Stride 2: the row passes still sweep the full padded width, but
    // the adder trees combine window parts only at the F emitted
    // positions — the same `out_elems · (K − 1)` term the analytic
    // model (`NetworkPerf`) charges. The old accounting used the padded
    // row width for the combine term, overcounting exactly when F <
    // full_w.
    let (n, m, h, w, k, s) = (2usize, 3usize, 9usize, 9usize, 3usize, 2usize);
    let net = dense_net(n, m, h, w, k, s, OutputConfig::RELU_ONLY, 23);
    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    let shape = engine.stage_shape(0).unwrap();
    let (e, f) = (shape.e(), shape.f());
    let pw = w + 2 * shape.pad();
    let full_w = pw - k + 1;
    assert!(f < full_w, "stride must make the emitted row narrower");

    let mut seed = 211;
    let input = Tensor4::from_fn([1, n, h, w], |_| Fx16::from_f32(det(&mut seed)));
    let mut scratch = Scratch::new();
    let out = engine.run(&input, &mut scratch).unwrap();

    // Per filter and output row: n·K row passes each charging
    // (K−1)·full_w correlation adds, then one (K−1)·F combine.
    let row_pass_adds = n * k * (k - 1) * full_w;
    let combine_adds = (k - 1) * f;
    let expected = (m * e * (row_pass_adds + combine_adds)) as u64;
    assert_eq!(out.counters.adds, expected);
}

/// Charges are per transferred unit and per plane, so the lane form
/// (`M` filters as lanes of the filter-vector pass) must charge exactly
/// `M / g` times what a one-unit stage of the same geometry charges on
/// its row streams — `g` filters per unit: 8 for an SCNN orbit group,
/// `per_axis²` for a DCNN meta group (4 for DCNN4, 16 for DCNN6 at
/// `K = 3`). The one-unit stages hold 4–12 lanes, below the lane form's
/// 16; the `M`-filter ones hold at least 16 under every ablation but
/// DCNN without ERRR, which keeps its row streams. Pinned under every
/// reuse ablation, stride 1–2, dilation 1–2 and batch 1 and 3, on full
/// lane groups (SCNN 64, DCNN6 256) and partial last ones (SCNN 72:
/// 32 + 4 lanes under `FULL`; DCNN4 144: 32 + 4).
#[test]
fn lane_stages_charge_the_row_streams_per_unit() {
    use tfe::sim::counters::Counters;
    use tfe::transfer::TransferScheme;
    let reuses = [
        ReuseConfig::NONE,
        ReuseConfig::PPSR_ONLY,
        ReuseConfig::ERRR_ONLY,
        ReuseConfig::FULL,
    ];
    let counters = |scheme: TransferScheme, m: usize, geometry: (usize, usize), reuse, batch| {
        let (stride, dilation) = geometry;
        let shape = LayerShape::conv("lanes", 3, m, 9, 9, 3, stride, 1)
            .unwrap()
            .with_dilation(dilation)
            .unwrap();
        let mut seed = 0x1a2e_u32 ^ m as u32;
        let net = FunctionalNetwork::random(&[(shape, false)], scheme, || det(&mut seed)).unwrap();
        let engine = Engine::compile(&net, reuse).unwrap();
        let input = Tensor4::from_fn([batch, 3, 9, 9], |_| Fx16::from_f32(det(&mut seed)));
        engine
            .run_batched(&input, &mut Scratch::new(), 1)
            .unwrap()
            .counters
    };
    for (scheme, g, m) in [
        (TransferScheme::Scnn, 8usize, 64usize),
        (TransferScheme::Scnn, 8, 72),
        (TransferScheme::DCNN4, 4, 144),
        (TransferScheme::DCNN6, 16, 256),
    ] {
        for reuse in reuses {
            for geometry in [(1, 1), (2, 1), (1, 2), (2, 2)] {
                for batch in [1, 3] {
                    let unit = counters(scheme, g, geometry, reuse, batch);
                    let scaled: Counters = (0..m / g).map(|_| unit).sum();
                    assert_eq!(
                        counters(scheme, m, geometry, reuse, batch),
                        scaled,
                        "{scheme:?} M {m} {reuse:?} (stride, dilation) {geometry:?} batch {batch}"
                    );
                }
            }
        }
    }
}
