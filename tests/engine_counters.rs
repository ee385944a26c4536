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

/// The output stage charges the row-wise pooler's traffic per image,
/// whichever part finishes a plane: a pooled `M`-filter stage stages
/// each of its `M·E·F` activations through `Pool_Reg` once (one write,
/// one read) and each horizontally reduced row through `O_Memory` once
/// (`M·E·F/p` words written and read back). Dense units touch neither
/// memory, so these are the stage's whole SR and PSum-memory counts.
/// Pinned on the row sweep (8 filters: unit groups on a lone image) and
/// the filter-vector sweep (32 filters: output-row parts), at batch 1–3
/// and 1–3 workers.
#[test]
fn pooled_stages_charge_the_pooler_per_image() {
    let (n, hw, p) = (4usize, 12usize, 2usize);
    for m in [8usize, 32] {
        let net = dense_net(n, m, hw, hw, 3, 1, OutputConfig::RELU_POOL2, 29);
        let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
        let words = (m * hw * hw) as u64;
        let mut seed = 307;
        for batch in 1..=3 {
            let input = Tensor4::from_fn([batch, n, hw, hw], |_| Fx16::from_f32(det(&mut seed)));
            for workers in 1..=3 {
                let run = engine
                    .run_batched(&input, &mut Scratch::new(), workers)
                    .unwrap();
                for (b, c) in run.per_image.iter().enumerate() {
                    assert_eq!(
                        (c.sr_writes, c.sr_reads, c.psum_mem_writes, c.psum_mem_reads),
                        (words, words, words / p as u64, words / p as u64),
                        "M {m} batch {batch} workers {workers} image {b}"
                    );
                }
            }
        }
    }
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

/// Charges are per orbit or meta group and per plane, so the lane
/// layout (`M` filters as lanes of the filter-vector pass) must charge
/// exactly `M / g` times what a one-group stage of the same geometry
/// charges on the row layout — `g` filters per group: 8 for an SCNN
/// orbit group, `per_axis²` for a DCNN meta group (4 for DCNN4, 16 for
/// DCNN6 at `K = 3`). The one-group stages hold 4–12 lanes, below the
/// lane layout's 16; the `M`-filter ones hold at least 16 under every
/// ablation. Pinned under every reuse ablation, stride 1–2, dilation
/// 1–2 and batch 1 and 3, on full lane groups (SCNN 64, DCNN6 256) and
/// partial last ones (SCNN 72: 32 + 4 lanes under `FULL`; DCNN4 144:
/// 32 + 4). Both layouts charge the closed forms compile sums, so this
/// pins the layouts against each other;
/// `transferred_stages_charge_the_recorded_counters` pins the sums.
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

/// One image's counters on transferred stages of both layouts, pinned
/// against values recorded before the two layouts shared one compiled
/// schedule (when the row layout still charged its ERRR ring at run
/// time), so compile's closed-form fold has a reference outside itself.
/// A one-stage 3-channel 9×9 network at `K = 3`, pad 1, per scheme on a
/// row-layout stage (SCNN 8 filters: 4–8 lanes; DCNN4 16: 4 meta
/// groups; DCNN6 16: one) and lane-layout ones (SCNN 64, DCNN4 64,
/// DCNN6 256: 16 or more lanes), under every reuse ablation, stride and
/// dilation 1–2, and batch 1 and 3 (every image charged the same).
/// DCNN4 32 (8 meta groups) and DCNN6 64 (4) ran the row layout when
/// their rows were recorded; they and DCNN4 64 and DCNN6 256 now run
/// offset lanes, one lane per `(meta group, dx)`, charged the same.
/// Each row: dense MACs, multiplies, adds, SR reads and writes, PSum
/// memory reads and writes; the other counters are zero.
#[test]
fn transferred_stages_charge_the_recorded_counters() {
    use tfe::sim::counters::Counters;
    use tfe::transfer::TransferScheme;
    #[rustfmt::skip]
    let pinned: [[u64; 7]; 128] = [
        [17496, 26136, 15552, 0, 0, 1944, 2376], // SCNN 8 NONE s1 d1
        [5400, 26136, 14656, 0, 0, 1080, 2376], // SCNN 8 NONE s2 d1
        [10584, 26136, 11872, 0, 0, 1176, 1848], // SCNN 8 NONE s1 d2
        [3456, 14256, 6304, 0, 0, 672, 1008], // SCNN 8 NONE s2 d2
        [17496, 19602, 22680, 0, 13068, 1944, 3564], // SCNN 8 PPSR s1 d1
        [5400, 19602, 21784, 0, 13068, 1080, 3564], // SCNN 8 PPSR s2 d1
        [10584, 19602, 17416, 0, 13068, 1176, 2772], // SCNN 8 PPSR s1 d2
        [3456, 10692, 9328, 0, 7128, 672, 1512], // SCNN 8 PPSR s2 d2
        [17496, 19602, 11988, 0, 0, 1944, 1782], // SCNN 8 ERRR s1 d1
        [5400, 19602, 11092, 0, 0, 1080, 1782], // SCNN 8 ERRR s2 d1
        [10584, 19602, 9100, 0, 0, 1176, 1386], // SCNN 8 ERRR s1 d2
        [3456, 10692, 4792, 0, 0, 672, 756], // SCNN 8 ERRR s2 d2
        [17496, 6534, 8424, 0, 4356, 1944, 1188], // SCNN 8 FULL s1 d1
        [5400, 6534, 7528, 0, 4356, 1080, 1188], // SCNN 8 FULL s2 d1
        [10584, 6534, 6328, 0, 4356, 1176, 924], // SCNN 8 FULL s1 d2
        [3456, 3564, 3280, 0, 2376, 672, 504], // SCNN 8 FULL s2 d2
        [139968, 209088, 124416, 0, 0, 15552, 19008], // SCNN 64 NONE s1 d1
        [43200, 209088, 117248, 0, 0, 8640, 19008], // SCNN 64 NONE s2 d1
        [84672, 209088, 94976, 0, 0, 9408, 14784], // SCNN 64 NONE s1 d2
        [27648, 114048, 50432, 0, 0, 5376, 8064], // SCNN 64 NONE s2 d2
        [139968, 156816, 181440, 0, 104544, 15552, 28512], // SCNN 64 PPSR s1 d1
        [43200, 156816, 174272, 0, 104544, 8640, 28512], // SCNN 64 PPSR s2 d1
        [84672, 156816, 139328, 0, 104544, 9408, 22176], // SCNN 64 PPSR s1 d2
        [27648, 85536, 74624, 0, 57024, 5376, 12096], // SCNN 64 PPSR s2 d2
        [139968, 156816, 95904, 0, 0, 15552, 14256], // SCNN 64 ERRR s1 d1
        [43200, 156816, 88736, 0, 0, 8640, 14256], // SCNN 64 ERRR s2 d1
        [84672, 156816, 72800, 0, 0, 9408, 11088], // SCNN 64 ERRR s1 d2
        [27648, 85536, 38336, 0, 0, 5376, 6048], // SCNN 64 ERRR s2 d2
        [139968, 52272, 67392, 0, 34848, 15552, 9504], // SCNN 64 FULL s1 d1
        [43200, 52272, 60224, 0, 34848, 8640, 9504], // SCNN 64 FULL s2 d1
        [84672, 52272, 50624, 0, 34848, 9408, 7392], // SCNN 64 FULL s1 d2
        [27648, 28512, 26240, 0, 19008, 5376, 4032], // SCNN 64 FULL s2 d2
        [34992, 42768, 25920, 0, 0, 0, 0], // DCNN4 16 NONE s1 d1
        [10800, 23760, 13760, 0, 0, 0, 0], // DCNN4 16 NONE s2 d1
        [21168, 33264, 15680, 0, 0, 0, 0], // DCNN4 16 NONE s1 d2
        [6912, 19008, 8576, 0, 0, 0, 0], // DCNN4 16 NONE s2 d2
        [34992, 28512, 23976, 0, 14256, 0, 0], // DCNN4 16 PPSR s1 d1
        [10800, 15840, 12680, 0, 7920, 0, 0], // DCNN4 16 PPSR s2 d1
        [21168, 22176, 18200, 0, 11088, 0, 0], // DCNN4 16 PPSR s1 d2
        [6912, 12672, 10016, 0, 6336, 0, 0], // DCNN4 16 PPSR s2 d2
        [34992, 34848, 21600, 0, 0, 3888, 3168], // DCNN4 16 ERRR s1 d1
        [10800, 34848, 19808, 0, 0, 2160, 3168], // DCNN4 16 ERRR s2 d1
        [21168, 34848, 16352, 0, 0, 2352, 2464], // DCNN4 16 ERRR s1 d2
        [6912, 19008, 8576, 0, 0, 1344, 1344], // DCNN4 16 ERRR s2 d2
        [34992, 23232, 20016, 0, 11616, 3888, 3168], // DCNN4 16 FULL s1 d1
        [10800, 23232, 18224, 0, 11616, 2160, 3168], // DCNN4 16 FULL s2 d1
        [21168, 23232, 18992, 0, 11616, 2352, 2464], // DCNN4 16 FULL s1 d2
        [6912, 12672, 10016, 0, 6336, 1344, 1344], // DCNN4 16 FULL s2 d2
        [69984, 85536, 51840, 0, 0, 0, 0], // DCNN4 32 NONE s1 d1
        [21600, 47520, 27520, 0, 0, 0, 0], // DCNN4 32 NONE s2 d1
        [42336, 66528, 31360, 0, 0, 0, 0], // DCNN4 32 NONE s1 d2
        [13824, 38016, 17152, 0, 0, 0, 0], // DCNN4 32 NONE s2 d2
        [69984, 57024, 47952, 0, 28512, 0, 0], // DCNN4 32 PPSR s1 d1
        [21600, 31680, 25360, 0, 15840, 0, 0], // DCNN4 32 PPSR s2 d1
        [42336, 44352, 36400, 0, 22176, 0, 0], // DCNN4 32 PPSR s1 d2
        [13824, 25344, 20032, 0, 12672, 0, 0], // DCNN4 32 PPSR s2 d2
        [69984, 69696, 43200, 0, 0, 7776, 6336], // DCNN4 32 ERRR s1 d1
        [21600, 69696, 39616, 0, 0, 4320, 6336], // DCNN4 32 ERRR s2 d1
        [42336, 69696, 32704, 0, 0, 4704, 4928], // DCNN4 32 ERRR s1 d2
        [13824, 38016, 17152, 0, 0, 2688, 2688], // DCNN4 32 ERRR s2 d2
        [69984, 46464, 40032, 0, 23232, 7776, 6336], // DCNN4 32 FULL s1 d1
        [21600, 46464, 36448, 0, 23232, 4320, 6336], // DCNN4 32 FULL s2 d1
        [42336, 46464, 37984, 0, 23232, 4704, 4928], // DCNN4 32 FULL s1 d2
        [13824, 25344, 20032, 0, 12672, 2688, 2688], // DCNN4 32 FULL s2 d2
        [139968, 171072, 103680, 0, 0, 0, 0], // DCNN4 64 NONE s1 d1
        [43200, 95040, 55040, 0, 0, 0, 0], // DCNN4 64 NONE s2 d1
        [84672, 133056, 62720, 0, 0, 0, 0], // DCNN4 64 NONE s1 d2
        [27648, 76032, 34304, 0, 0, 0, 0], // DCNN4 64 NONE s2 d2
        [139968, 114048, 95904, 0, 57024, 0, 0], // DCNN4 64 PPSR s1 d1
        [43200, 63360, 50720, 0, 31680, 0, 0], // DCNN4 64 PPSR s2 d1
        [84672, 88704, 72800, 0, 44352, 0, 0], // DCNN4 64 PPSR s1 d2
        [27648, 50688, 40064, 0, 25344, 0, 0], // DCNN4 64 PPSR s2 d2
        [139968, 139392, 86400, 0, 0, 15552, 12672], // DCNN4 64 ERRR s1 d1
        [43200, 139392, 79232, 0, 0, 8640, 12672], // DCNN4 64 ERRR s2 d1
        [84672, 139392, 65408, 0, 0, 9408, 9856], // DCNN4 64 ERRR s1 d2
        [27648, 76032, 34304, 0, 0, 5376, 5376], // DCNN4 64 ERRR s2 d2
        [139968, 92928, 80064, 0, 46464, 15552, 12672], // DCNN4 64 FULL s1 d1
        [43200, 92928, 72896, 0, 46464, 8640, 12672], // DCNN4 64 FULL s2 d1
        [84672, 92928, 75968, 0, 46464, 9408, 9856], // DCNN4 64 FULL s1 d2
        [27648, 50688, 40064, 0, 25344, 5376, 5376], // DCNN4 64 FULL s2 d2
        [34992, 42768, 25920, 0, 0, 0, 0], // DCNN6 16 NONE s1 d1
        [10800, 23760, 13760, 0, 0, 0, 0], // DCNN6 16 NONE s2 d1
        [21168, 33264, 15680, 0, 0, 0, 0], // DCNN6 16 NONE s1 d2
        [6912, 19008, 8576, 0, 0, 0, 0], // DCNN6 16 NONE s2 d2
        [34992, 21384, 20412, 0, 14256, 0, 0], // DCNN6 16 PPSR s1 d1
        [10800, 11880, 10700, 0, 7920, 0, 0], // DCNN6 16 PPSR s2 d1
        [21168, 16632, 15428, 0, 11088, 0, 0], // DCNN6 16 PPSR s1 d2
        [6912, 9504, 8432, 0, 6336, 0, 0], // DCNN6 16 PPSR s2 d2
        [34992, 26136, 16848, 0, 0, 3888, 2376], // DCNN6 16 ERRR s1 d1
        [10800, 26136, 15056, 0, 0, 2160, 2376], // DCNN6 16 ERRR s2 d1
        [21168, 26136, 12656, 0, 0, 2352, 1848], // DCNN6 16 ERRR s1 d2
        [6912, 14256, 6560, 0, 0, 1344, 1008], // DCNN6 16 ERRR s2 d2
        [34992, 13068, 13482, 0, 8712, 3888, 2376], // DCNN6 16 FULL s1 d1
        [10800, 13068, 11690, 0, 8712, 2160, 2376], // DCNN6 16 FULL s2 d1
        [21168, 13068, 12458, 0, 8712, 2352, 1848], // DCNN6 16 FULL s1 d2
        [6912, 7128, 6452, 0, 4752, 1344, 1008], // DCNN6 16 FULL s2 d2
        [139968, 171072, 103680, 0, 0, 0, 0], // DCNN6 64 NONE s1 d1
        [43200, 95040, 55040, 0, 0, 0, 0], // DCNN6 64 NONE s2 d1
        [84672, 133056, 62720, 0, 0, 0, 0], // DCNN6 64 NONE s1 d2
        [27648, 76032, 34304, 0, 0, 0, 0], // DCNN6 64 NONE s2 d2
        [139968, 85536, 81648, 0, 57024, 0, 0], // DCNN6 64 PPSR s1 d1
        [43200, 47520, 42800, 0, 31680, 0, 0], // DCNN6 64 PPSR s2 d1
        [84672, 66528, 61712, 0, 44352, 0, 0], // DCNN6 64 PPSR s1 d2
        [27648, 38016, 33728, 0, 25344, 0, 0], // DCNN6 64 PPSR s2 d2
        [139968, 104544, 67392, 0, 0, 15552, 9504], // DCNN6 64 ERRR s1 d1
        [43200, 104544, 60224, 0, 0, 8640, 9504], // DCNN6 64 ERRR s2 d1
        [84672, 104544, 50624, 0, 0, 9408, 7392], // DCNN6 64 ERRR s1 d2
        [27648, 57024, 26240, 0, 0, 5376, 4032], // DCNN6 64 ERRR s2 d2
        [139968, 52272, 53928, 0, 34848, 15552, 9504], // DCNN6 64 FULL s1 d1
        [43200, 52272, 46760, 0, 34848, 8640, 9504], // DCNN6 64 FULL s2 d1
        [84672, 52272, 49832, 0, 34848, 9408, 7392], // DCNN6 64 FULL s1 d2
        [27648, 28512, 25808, 0, 19008, 5376, 4032], // DCNN6 64 FULL s2 d2
        [559872, 684288, 414720, 0, 0, 0, 0], // DCNN6 256 NONE s1 d1
        [172800, 380160, 220160, 0, 0, 0, 0], // DCNN6 256 NONE s2 d1
        [338688, 532224, 250880, 0, 0, 0, 0], // DCNN6 256 NONE s1 d2
        [110592, 304128, 137216, 0, 0, 0, 0], // DCNN6 256 NONE s2 d2
        [559872, 342144, 326592, 0, 228096, 0, 0], // DCNN6 256 PPSR s1 d1
        [172800, 190080, 171200, 0, 126720, 0, 0], // DCNN6 256 PPSR s2 d1
        [338688, 266112, 246848, 0, 177408, 0, 0], // DCNN6 256 PPSR s1 d2
        [110592, 152064, 134912, 0, 101376, 0, 0], // DCNN6 256 PPSR s2 d2
        [559872, 418176, 269568, 0, 0, 62208, 38016], // DCNN6 256 ERRR s1 d1
        [172800, 418176, 240896, 0, 0, 34560, 38016], // DCNN6 256 ERRR s2 d1
        [338688, 418176, 202496, 0, 0, 37632, 29568], // DCNN6 256 ERRR s1 d2
        [110592, 228096, 104960, 0, 0, 21504, 16128], // DCNN6 256 ERRR s2 d2
        [559872, 209088, 215712, 0, 139392, 62208, 38016], // DCNN6 256 FULL s1 d1
        [172800, 209088, 187040, 0, 139392, 34560, 38016], // DCNN6 256 FULL s2 d1
        [338688, 209088, 199328, 0, 139392, 37632, 29568], // DCNN6 256 FULL s1 d2
        [110592, 114048, 103232, 0, 76032, 21504, 16128], // DCNN6 256 FULL s2 d2
    ];
    let reuses = [
        ReuseConfig::NONE,
        ReuseConfig::PPSR_ONLY,
        ReuseConfig::ERRR_ONLY,
        ReuseConfig::FULL,
    ];
    let mut rows = pinned.iter();
    for (scheme, filters) in [
        (TransferScheme::Scnn, &[8usize, 64][..]),
        (TransferScheme::DCNN4, &[16, 32, 64]),
        (TransferScheme::DCNN6, &[16, 64, 256]),
    ] {
        for &m in filters {
            for reuse in reuses {
                for (stride, dilation) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
                    let shape = LayerShape::conv("pin", 3, m, 9, 9, 3, stride, 1)
                        .unwrap()
                        .with_dilation(dilation)
                        .unwrap();
                    let mut seed = 0x9e37_u32 ^ m as u32;
                    let net =
                        FunctionalNetwork::random(&[(shape, false)], scheme, || det(&mut seed))
                            .unwrap();
                    let engine = Engine::compile(&net, reuse).unwrap();
                    let [dense_macs, multiplies, adds, sr_reads, sr_writes, psum_mem_reads, psum_mem_writes] =
                        *rows.next().unwrap();
                    let expected = Counters {
                        dense_macs,
                        multiplies,
                        adds,
                        sr_reads,
                        sr_writes,
                        psum_mem_reads,
                        psum_mem_writes,
                        ..Counters::new()
                    };
                    for batch in [1, 3] {
                        let input =
                            Tensor4::from_fn([batch, 3, 9, 9], |_| Fx16::from_f32(det(&mut seed)));
                        let run = engine.run_batched(&input, &mut Scratch::new(), 1).unwrap();
                        for (b, image) in run.per_image.iter().enumerate() {
                            assert_eq!(
                                *image, expected,
                                "{scheme:?} M {m} {reuse:?} stride {stride} dilation {dilation} batch {batch} image {b}"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(rows.next().is_none());
}

/// Stored groups past a stage's last filter run nothing and charge
/// nothing. A 64-filter DCNN4 layer (`K = 3`, stride 1, `FULL`, 3×12×12)
/// storing 24 meta groups instead of 16 is charged what the 16-group
/// layer is, 150,528 multiplies per image: it was charged 225,792 while
/// compile still swept its 8 surplus meta groups. A 64-filter SCNN layer
/// storing 12 orbit groups instead of 8 is charged what the 8-group one
/// is. `NetworkPerf` derives its counts from the stage's `M`, so it reads
/// the same figure for either cell (for DCNN4 its edge-free 110,592,
/// where the engine pays padded-row edges).
#[test]
fn surplus_transferred_groups_are_not_charged() {
    use tfe::sim::perf::{NetworkPerf, PerfConfig};
    use tfe::transfer::TransferScheme;
    let shape = LayerShape::conv("surplus", 3, 64, 12, 12, 3, 1, 1).unwrap();
    let wide = LayerShape::conv("surplus", 3, 96, 12, 12, 3, 1, 1).unwrap();
    for (scheme, needed, stored, multiplies) in [
        (TransferScheme::DCNN4, 16, 24, Some((150_528, 110_592))),
        (TransferScheme::Scnn, 8, 12, None),
    ] {
        let mut seed = 0x5eed_u32;
        let drawn = TransferredLayer::random(&wide, scheme, || det(&mut seed)).unwrap();
        let layer = |groups: usize| match drawn.clone() {
            TransferredLayer::Dcnn { k, mut metas, .. } => {
                metas.truncate(groups);
                TransferredLayer::Dcnn { k, m: 64, metas }
            }
            TransferredLayer::Scnn {
                groups: mut orbits, ..
            } => {
                orbits.truncate(groups);
                TransferredLayer::Scnn {
                    m: 64,
                    groups: orbits,
                }
            }
            TransferredLayer::Dense { .. } => unreachable!("3x3 layers transfer"),
        };
        let input = Tensor4::from_fn([1, 3, 12, 12], |_| Fx16::from_f32(det(&mut seed)));
        let run = |groups: usize| {
            let net = FunctionalNetwork::new(vec![FunctionalStage {
                shape: shape.clone(),
                weights: layer(groups),
                bias: Vec::new(),
                output: OutputConfig::RELU_ONLY,
            }])
            .unwrap();
            let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
            let perf = NetworkPerf::of_engine(&engine, &PerfConfig::default());
            let out = engine.run(&input, &mut Scratch::new()).unwrap();
            (out, *perf.layers()[0].counters())
        };
        let ((exact, exact_perf), (surplus, surplus_perf)) = (run(needed), run(stored));
        assert_eq!(surplus.activations, exact.activations, "{scheme:?}");
        assert_eq!(surplus.counters, exact.counters, "{scheme:?}");
        assert_eq!(surplus_perf, exact_perf, "{scheme:?}");
        if let Some((engine, model)) = multiplies {
            assert_eq!(surplus.counters.multiplies, engine, "{scheme:?}");
            assert_eq!(surplus_perf.multiplies, model, "{scheme:?}");
        }
    }
}
