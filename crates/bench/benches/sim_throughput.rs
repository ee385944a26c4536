//! Simulator throughput: the functional datapath on a small layer, the
//! per-layer performance model over a whole network, and batched-image
//! throughput scaling against the intra-run worker count.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tfe_nets::zoo;
use tfe_sim::engine::{Engine, Scratch};
use tfe_sim::functional::run_layer;
use tfe_sim::network::FunctionalNetwork;
use tfe_sim::perf::{NetworkPerf, PerfConfig};
use tfe_tensor::fixed::Fx16;
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::TransferScheme;

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    ((*seed >> 16) as f32 / 65536.0) - 0.5
}

fn bench_sim(c: &mut Criterion) {
    let shape = LayerShape::conv("bench", 4, 16, 16, 16, 3, 1, 1).unwrap();
    let mut seed = 3;
    let layer = TransferredLayer::random(&shape, TransferScheme::Scnn, || det(&mut seed)).unwrap();
    let input = Tensor4::from_fn([1, 4, 16, 16], |_| Fx16::from_f32(det(&mut seed)));
    c.bench_function("functional scnn layer 4x16x16 m16", |b| {
        b.iter(|| run_layer(black_box(&input), &layer, &shape, ReuseConfig::FULL).unwrap())
    });

    let vgg = zoo::vgg16();
    let plan = vgg.plan(TransferScheme::Scnn);
    let cfg = PerfConfig::default();
    c.bench_function("perf model full VGG-16 (SCNN)", |b| {
        b.iter(|| NetworkPerf::evaluate(black_box(&plan), &cfg))
    });
}

/// Batched-image throughput scaling against the worker count (median
/// and quartile wall time per [`Engine::run_batched`] round over the
/// packed 16-image batch, and images/sec at the median), on a
/// VGG-16-style stack of functional stages. Whole ImageNet
/// VGG-16 is too large for value-level simulation, so this uses a
/// narrowed VGG prefix (same 3×3 conv + pool topology, reduced channel
/// counts and resolution) — every image still walks multiple chained
/// PPSR/ERRR layers.
fn bench_batch_scaling(_: &mut Criterion) {
    let mut seed = 17;
    // VGG prefix topology: two 3x3 conv stages then pool, twice.
    let shapes = vec![
        (
            LayerShape::conv("v1", 3, 8, 24, 24, 3, 1, 1).unwrap(),
            false,
        ),
        (LayerShape::conv("v2", 8, 8, 24, 24, 3, 1, 1).unwrap(), true),
        (
            LayerShape::conv("v3", 8, 16, 12, 12, 3, 1, 1).unwrap(),
            false,
        ),
        (
            LayerShape::conv("v4", 16, 16, 12, 12, 3, 1, 1).unwrap(),
            true,
        ),
    ];
    let net = FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(&mut seed)).unwrap();
    const IMAGES: usize = 16;
    let batch = Tensor4::from_fn([IMAGES, 3, 24, 24], |_| Fx16::from_f32(det(&mut seed)));
    let engine = Engine::compile(&net, ReuseConfig::FULL).unwrap();
    let mut scratch = Scratch::new();

    // Per-round wall times, reported as median and quartiles per worker
    // count: one total over a few rounds swings too far on a shared host
    // to compare two builds. The warm-up round sizes the arenas.
    const ROUNDS: usize = 60;
    let mut run = |workers: usize| {
        let out = engine
            .run_batched(black_box(&batch), &mut scratch, workers)
            .unwrap();
        black_box(out);
    };
    run(1);
    for threads in [1usize, 2, 4, 8] {
        let mut ms: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let start = Instant::now();
                run(threads);
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        let quantile = |q: f64| ms[((ms.len() - 1) as f64 * q).round() as usize];
        let (q1, median, q3) = (quantile(0.25), quantile(0.5), quantile(0.75));
        let ips = IMAGES as f64 / (median / 1e3);
        println!(
            "sim_throughput/batch_vgg_prefix threads={threads:<2} median {median:>7.3} ms \
             [q1 {q1:.3}, q3 {q3:.3}] per {IMAGES} images, {ips:>8.1} images/sec at the median \
             ({ROUNDS} rounds)"
        );
    }
}

criterion_group!(benches, bench_sim, bench_batch_scaling);
criterion_main!(benches);
