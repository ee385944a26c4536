//! Per-stage wall time of the VGG-16 trunk: the 13 conv layers at a
//! 3×32×32 input (ReLU after each, a 2×2 max-pool closing each block),
//! batch 8, under dense, SCNN and DCNN4 weights — the benchmark's trunk
//! workloads, with this file's own seeded weights and pixels. And of
//! the serving demo network's two 12×12 stages (3→8, then 8→8 with a
//! 2×2 pool, as `tfe_fleet::demo::demo_network`) under SCNN and DCNN4
//! at batch 1 and 8: fewer than 16 lanes, so the transferred executor's
//! row layout, which the `fleet-open` workload runs.
//!
//! Each chain runs as one-stage engines: stage `i` is compiled on its
//! own and fed stage `i − 1`'s output batch, so each stage is timed
//! alone, convolution and output stage together, on every core the
//! host offers (`std::thread::available_parallelism`, perfbench's
//! rule). Every engine and its input
//! is built first. Then `ROUNDS` rounds each cycle through every trunk
//! `(scheme, stage)` cell, a warm-up call and then `RUNS` timed
//! [`Engine::run_batched`] calls per cell, and each cell is the median
//! of its rounds' medians: a stretch of host load then moves one round
//! of every cell, not every round of a few. The demo cells take their
//! own rounds the same way, of `DEMO_RUNS` calls. Every cell, and each
//! trunk chain's sum, is printed and written to the perf trajectory
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
use tfe_sim::engine::{Engine, Scratch};
use tfe_sim::network::{FunctionalNetwork, FunctionalStage};
use tfe_sim::output::OutputConfig;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::TransferScheme;

/// Timed runs per trunk cell and round.
const RUNS: usize = 41;
/// Rounds over the trunk cells, and over the demo cells; each cell is
/// the median of its rounds.
const ROUNDS: usize = 5;
/// Timed runs per demo cell and round.
const DEMO_RUNS: usize = 201;
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

/// One-stage networks of `layers` (`(name, shape, pool)`) under
/// `scheme` (`None`: dense), with weights uniform in `±sqrt(6 /
/// fan_in)`, so activations stay inside the Q8.8 range through the
/// trunk's 13 layers.
fn one_stage_nets(
    layers: Vec<(String, LayerShape, bool)>,
    scheme: Option<TransferScheme>,
    seed: u64,
) -> Vec<(String, FunctionalNetwork)> {
    let mut state = seed;
    let mut stages = Vec::new();
    for (name, shape, pool) in layers {
        let (n, m, k) = (shape.n(), shape.m(), shape.k());
        let bound = (6.0 / (n * k * k) as f32).sqrt();
        let mut next = || (unit(&mut state) * 2.0 - 1.0) * bound;
        let weights = match scheme {
            None => TransferredLayer::Dense {
                weights: Tensor4::from_fn([m, n, k, k], |_| next()),
            },
            Some(transfer) => TransferredLayer::random(&shape, transfer, &mut next)
                .expect("3x3 layers transfer under SCNN and DCNN4"),
        };
        let output = if pool {
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
        stages.push((name, net));
    }
    stages
}

/// The trunk's one-stage networks under `scheme` (`None`: dense).
fn trunk(scheme: Option<TransferScheme>, seed: u64) -> Vec<(String, FunctionalNetwork)> {
    let mut hw = HW;
    let mut layers = Vec::new();
    for layer in zoo::vgg16().conv_layers() {
        let s = layer.shape();
        let shape = LayerShape::conv(s.name(), s.n(), s.m(), hw, hw, s.k(), s.stride(), s.pad())
            .expect("VGG-16 conv geometry is valid at 32x32");
        let pool = layer.pool().is_some();
        if pool {
            hw /= 2;
        }
        layers.push((s.name().to_owned(), shape, pool));
    }
    one_stage_nets(layers, scheme, seed)
}

/// The demo network's one-stage networks under `scheme`.
fn demo(scheme: TransferScheme, seed: u64) -> Vec<(String, FunctionalNetwork)> {
    let layers = [("serve1", 3, false), ("serve2", 8, true)].map(|(name, n, pool)| {
        let shape = LayerShape::conv(name, n, 8, 12, 12, 3, 1, 1).expect("demo geometry is valid");
        (name.to_owned(), shape, pool)
    });
    one_stage_nets(layers.into(), Some(scheme), seed)
}

/// The median of `values` (sorted in place).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// One-stage engines chained from `input`: each of `nets` compiled,
/// named `<prefix>/<stage>`, with the input batch it reads, which is
/// the previous engine's output.
fn chain(
    prefix: &str,
    nets: Vec<(String, FunctionalNetwork)>,
    input: Tensor4<Fx16>,
    workers: usize,
) -> Vec<(String, Engine, Tensor4<Fx16>)> {
    let mut x = input;
    let mut cells = Vec::new();
    for (stage, net) in nets {
        let engine = Engine::compile(&net, ReuseConfig::FULL).expect("one-stage engine compiles");
        let out = engine
            .run_batched(&x, &mut Scratch::new(), workers)
            .expect("one-stage engine runs");
        cells.push((format!("{prefix}/{stage}"), engine, x));
        x = out.activations;
    }
    cells
}

/// Times `cells` over `ROUNDS` rounds, each cycling through every cell:
/// a warm-up call, then `runs` timed calls. Returns each cell's median
/// of its rounds' median ms, in cell order.
fn rounds(cells: &[(String, Engine, Tensor4<Fx16>)], runs: usize, workers: usize) -> Vec<f64> {
    let mut scratch = Scratch::new();
    let mut rounds = vec![Vec::new(); cells.len()];
    for _ in 0..ROUNDS {
        for ((_, engine, x), ms) in cells.iter().zip(&mut rounds) {
            black_box(engine.run_batched(x, &mut scratch, workers)).ok();
            let mut calls: Vec<f64> = (0..runs)
                .map(|_| {
                    let start = Instant::now();
                    black_box(engine.run_batched(black_box(x), &mut scratch, workers)).ok();
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            ms.push(median(&mut calls));
        }
    }
    rounds.into_iter().map(|mut ms| median(&mut ms)).collect()
}

/// Times every scheme's trunk chain in interleaved rounds: per scheme,
/// `(stage, ms)` per stage, then the chain's sum, each also upserted
/// into `report` as `<scheme>/<stage>`. A round takes the cells stage
/// by stage, each stage's schemes back to back, so the schemes compared
/// on one geometry are timed under the same host load.
fn probe(
    schemes: &[(&str, Option<TransferScheme>)],
    input: &Tensor4<Fx16>,
    workers: usize,
    report: &mut BenchReport,
) -> Vec<Vec<(String, f64)>> {
    let mut chains: Vec<_> = schemes
        .iter()
        .map(|&(name, scheme)| chain(name, trunk(scheme, 61), input.clone(), workers).into_iter())
        .collect();
    let mut cells = Vec::new();
    while let Some(stage) = chains
        .iter_mut()
        .map(Iterator::next)
        .collect::<Option<Vec<_>>>()
    {
        cells.extend(stage);
    }
    let ms = rounds(&cells, RUNS, workers);
    schemes
        .iter()
        .map(|&(name, _)| {
            let prefix = format!("{name}/");
            let mut rows: Vec<(String, f64)> = cells
                .iter()
                .zip(&ms)
                .filter_map(|((cell, ..), &ms)| Some((cell.strip_prefix(&prefix)?.to_owned(), ms)))
                .collect();
            let sum = rows.iter().map(|(_, ms)| ms).sum();
            rows.push(("chain".to_owned(), sum));
            for (stage, ms) in &rows {
                let cell = format!("{name}/{stage}");
                report.upsert(BenchCell::absolute("stage_probe", &cell, *ms, RUNS));
            }
            rows
        })
        .collect()
}

/// Times the demo network's stages under SCNN and DCNN4 at batch 1 and
/// 8 over `ROUNDS` rounds: `(cell, median of the rounds' median ms)`
/// per cell, each also upserted into `report` as
/// `demo-<scheme>/<stage>/b<batch>`.
fn probe_demo(workers: usize, report: &mut BenchReport) -> Vec<(String, f64)> {
    let mut cells = Vec::new();
    for (name, scheme) in [
        ("scnn", TransferScheme::Scnn),
        ("dcnn4", TransferScheme::DCNN4),
    ] {
        for batch in [1, 8] {
            let mut state = 67;
            let x = Tensor4::from_fn([batch, 3, 12, 12], |_| Fx16::from_f32(unit(&mut state)));
            let stages = demo(scheme, 67)
                .into_iter()
                .map(|(stage, net)| (format!("{stage}/b{batch}"), net))
                .collect();
            cells.extend(chain(&format!("demo-{name}"), stages, x, workers));
        }
    }
    let ms = rounds(&cells, DEMO_RUNS, workers);
    cells
        .into_iter()
        .zip(ms)
        .map(|((cell, ..), ms)| {
            report.upsert(BenchCell::absolute("stage_probe", &cell, ms, DEMO_RUNS));
            (cell, ms)
        })
        .collect()
}

fn main() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut state = 61;
    let input = Tensor4::from_fn([BATCH, 3, HW, HW], |_| Fx16::from_f32(unit(&mut state)));
    let mut report = BenchReport::load_or_new();
    let schemes = [
        ("dense", None),
        ("scnn", Some(TransferScheme::Scnn)),
        ("dcnn4", Some(TransferScheme::DCNN4)),
    ];
    let chains = probe(&schemes, &input, workers, &mut report);
    println!(
        "stage_probe: VGG-16 trunk, {BATCH} x 3x{HW}x{HW}, {workers} workers, median of \
         {ROUNDS} rounds of {RUNS} run_batched calls per one-stage engine, wall ms"
    );
    println!("{:<8} {:>8} {:>8} {:>8}", "stage", "dense", "scnn", "dcnn4");
    let [dense, scnn, dcnn4] = &chains[..] else {
        unreachable!("three schemes")
    };
    for (((stage, d), (_, s)), (_, t)) in dense.iter().zip(scnn).zip(dcnn4) {
        println!("{stage:<8} {d:>8.2} {s:>8.2} {t:>8.2}");
    }
    let demo = probe_demo(workers, &mut report);
    println!(
        "demo stages (row layout), median of {ROUNDS} rounds of {DEMO_RUNS} run_batched calls, wall ms"
    );
    for (cell, ms) in &demo {
        println!("{cell:<24} {ms:>8.4}");
    }
    if let Err(e) = report.save() {
        eprintln!(
            "stage_probe: could not write {}: {e}",
            BenchReport::path().display()
        );
    }
}
