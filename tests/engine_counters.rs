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
