//! Per-stage wall time of the VGG-16 trunk: the 13 conv layers at a
//! 3×32×32 input (ReLU after each, a 2×2 max-pool closing each block),
//! batch 8, under dense, SCNN and DCNN4 weights — the benchmark's trunk
//! workloads, with this file's own seeded weights and pixels.
//!
//! Each scheme's trunk runs as a chain of one-stage engines: stage `i`
//! is compiled on its own and fed stage `i − 1`'s output batch, so each
//! stage is timed alone, convolution and output stage together. Every
//! stage runs one warm-up batch, then `RUNS` timed
//! [`Engine::run_batched`] calls on the default worker budget
//! (`TFE_THREADS`, else every core); the median wall time of each stage
//! and of the whole chain is printed and written to the perf trajectory
//! (`BENCH_<pr>.json`, [`BenchCell::absolute`]). Unpinned: it records,
//! it does not gate.
//!
//! ```text
//! cargo bench --offline -p tfe-bench --bench stage_probe
//! ```

use std::hint::black_box;
use std::time::Instant;
use tfe_bench::report::{BenchCell, BenchReport};
use tfe_nets::zoo;
use tfe_sim::batch::BatchOptions;
use tfe_sim::engine::{Engine, Scratch};
use tfe_sim::network::{FunctionalNetwork, FunctionalStage};
use tfe_sim::output::OutputConfig;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::TransferScheme;

/// Timed runs per stage; each cell is their median.
const RUNS: usize = 41;
/// Images per batch.
const BATCH: usize = 8;
/// Side of the square input: the smallest all five 2×2 pools accept.
const HW: usize = 32;

/// A 64-bit LCG step, returning the high 32 bits as a value uniform in
/// `[0, 1)`.
fn unit(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*state >> 40) as f32 / (1u64 << 24) as f32
}

/// The trunk's one-stage networks under `scheme` (`None`: dense), with
/// weights uniform in `±sqrt(6 / fan_in)`, so activations stay inside
/// the Q8.8 range through all 13 layers.
fn trunk(scheme: Option<TransferScheme>, seed: u64) -> Vec<(String, FunctionalNetwork)> {
    let mut state = seed;
    let mut hw = HW;
    let mut stages = Vec::new();
    for layer in zoo::vgg16().conv_layers() {
        let s = layer.shape();
        let shape = LayerShape::conv(s.name(), s.n(), s.m(), hw, hw, s.k(), s.stride(), s.pad())
            .expect("VGG-16 conv geometry is valid at 32x32");
        let bound = (6.0 / (s.n() * s.k() * s.k()) as f32).sqrt();
        let mut next = || (unit(&mut state) * 2.0 - 1.0) * bound;
        let weights = match scheme {
            None => TransferredLayer::Dense {
                weights: Tensor4::from_fn([s.m(), s.n(), s.k(), s.k()], |_| next()),
            },
            Some(transfer) => TransferredLayer::random(&shape, transfer, &mut next)
                .expect("VGG-16 3x3 layers transfer under SCNN and DCNN4"),
        };
        let output = if layer.pool().is_some() {
            hw /= 2;
            OutputConfig::RELU_POOL2
        } else {
            OutputConfig::RELU_ONLY
        };
        let stage = FunctionalStage {
            shape,
            weights,
            bias: Vec::new(),
            output,
        };
        let net = FunctionalNetwork::new(vec![stage]).expect("one stage chains");
        stages.push((s.name().to_owned(), net));
    }
    stages
}

/// The median of `values` (sorted in place).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Times one scheme's chain: `(stage, median ms)` per stage, then the
/// chain's sum, each also upserted into `report` as `<name>/<stage>`.
fn probe(
    name: &str,
    scheme: Option<TransferScheme>,
    input: &Tensor4<Fx16>,
    workers: usize,
    report: &mut BenchReport,
) -> Vec<(String, f64)> {
    let mut scratch = Scratch::new();
    let mut x = input.clone();
    let mut rows = Vec::new();
    for (stage, net) in trunk(scheme, 61) {
        let engine = Engine::compile(&net, ReuseConfig::FULL).expect("trunk stage compiles");
        let out = engine
            .run_batched(&x, &mut scratch, workers)
            .expect("trunk stage runs");
        let mut ms: Vec<f64> = (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                black_box(engine.run_batched(black_box(&x), &mut scratch, workers)).ok();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        rows.push((stage, median(&mut ms)));
        x = out.activations;
    }
    let chain = rows.iter().map(|(_, ms)| ms).sum();
    rows.push(("chain".to_owned(), chain));
    for (stage, ms) in &rows {
        let cell = format!("{name}/{stage}");
        report.upsert(BenchCell::absolute("stage_probe", &cell, *ms, RUNS));
    }
    rows
}

fn main() {
    let workers = BatchOptions::default().workers();
    let mut state = 61;
    let input = Tensor4::from_fn([BATCH, 3, HW, HW], |_| Fx16::from_f32(unit(&mut state)));
    let mut report = BenchReport::load_or_new();
    let dense = probe("dense", None, &input, workers, &mut report);
    let scnn = probe(
        "scnn",
        Some(TransferScheme::Scnn),
        &input,
        workers,
        &mut report,
    );
    let dcnn4 = probe(
        "dcnn4",
        Some(TransferScheme::DCNN4),
        &input,
        workers,
        &mut report,
    );
    println!(
        "stage_probe: VGG-16 trunk, {BATCH} x 3x{HW}x{HW}, {workers} workers, \
         median wall ms of {RUNS} run_batched calls per one-stage engine"
    );
    println!("{:<8} {:>8} {:>8} {:>8}", "stage", "dense", "scnn", "dcnn4");
    for (((stage, d), (_, s)), (_, t)) in dense.iter().zip(&scnn).zip(&dcnn4) {
        println!("{stage:<8} {d:>8.2} {s:>8.2} {t:>8.2}");
    }
    if let Err(e) = report.save() {
        eprintln!(
            "stage_probe: could not write {}: {e}",
            BenchReport::path().display()
        );
    }
}
