//! Compile/run split payoff after the single-engine refactor.
//!
//! Three paths per cell, all bit-identical (asserted before timing):
//!
//! * **cold** — the compatibility wrapper [`FunctionalNetwork::run`] on
//!   a freshly cloned network, so every request pays the full bring-up:
//!   engine compilation plus cold scratch arenas. This is the "naive"
//!   per-request cost with no compile-once amortization.
//! * **wrapper** — the same wrapper steady-state: the engine is cached
//!   inside the network after the first call and scratch arenas come
//!   from the internal pool.
//! * **engine** — a hand-driven [`Engine::run`] against a caller-owned
//!   [`Scratch`], the floor the wrapper is measured against.
//!
//! The sweep mirrors the paper's Fig. 15 network axis — one small
//! multi-stage network per transfer scheme (DCNN 4×4, DCNN 6×6, SCNN)
//! plus a VGG-prefix stack — under the full PPSR+ERRR configuration,
//! plus one deliberately compile-bound cell (tiny ifmap, many SCNN
//! filters) where weight-side work dominates the request.
//!
//! Two pinned acceptance numbers (asserted, not just printed), both from
//! best-of-reps timings so scheduler noise cannot flake them. They are
//! checked only after every cell has run and the trajectory is saved, so
//! a failing pin still records every cell:
//!
//! * `steady/cold ≥ 2` on the compile-bound cell — the refactor keeps
//!   the compile-once payoff. (On the conv-heavy Fig. 15 cells the gap
//!   is structurally smaller now: the pre-refactor interpreter re-did
//!   weight quantization per *output row*, and that code path was
//!   deleted outright, so per-request bring-up there costs one compile,
//!   not E of them.)
//! * `wrapper/engine ≥ 0.95` on every cell — the compatibility wrapper
//!   (engine-cache lookup + scratch-pool checkout) costs < 5 % vs
//!   driving [`Engine::run`] directly.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfe_bench::report::{BenchCell, BenchReport};
use tfe_bench::timing::{best_ips, best_pair_ips};
use tfe_sim::engine::{Engine, Scratch};
use tfe_sim::network::FunctionalNetwork;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::TransferScheme;

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    ((*seed >> 16) as f32 / 65536.0) - 0.5
}

/// One fig15-style cell: a small multi-stage network under `scheme`
/// (conv → conv+pool, filter counts compatible with the scheme's group
/// size) and a matching input image.
fn sweep_cell(scheme: TransferScheme, seed: u32) -> (FunctionalNetwork, Tensor4<Fx16>) {
    let m = match scheme {
        TransferScheme::Dcnn { z: 6 } => 16,
        _ => 8,
    };
    let shapes = vec![
        (
            LayerShape::conv("p1", 3, m, 12, 12, 3, 1, 1).unwrap(),
            false,
        ),
        (LayerShape::conv("p2", m, m, 12, 12, 3, 1, 1).unwrap(), true),
    ];
    let mut s = seed;
    let net = FunctionalNetwork::random(&shapes, scheme, || det(&mut s)).unwrap();
    let input = Tensor4::from_fn([1, 3, 12, 12], |_| Fx16::from_f32(det(&mut s)));
    (net, input)
}

/// A deeper VGG-prefix stack (same topology as `sim_throughput`'s batch
/// bench) — the "serve a real network" shape of the sweep.
fn vgg_prefix_cell(seed: u32) -> (FunctionalNetwork, Tensor4<Fx16>) {
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
    let mut s = seed;
    let net = FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(&mut s)).unwrap();
    let input = Tensor4::from_fn([1, 3, 24, 24], |_| Fx16::from_f32(det(&mut s)));
    (net, input)
}

/// A depthwise-separable cell (stem conv → depthwise → pointwise+pool,
/// the `mobilenet-mini` miniature topology): the depthwise stage runs as
/// a grouped dense stage (one channel per filter) and the pointwise
/// stage as a conventional 1×1, so the wrapper-overhead pin also covers
/// the generalized-geometry execution paths.
fn separable_cell(seed: u32) -> (FunctionalNetwork, Tensor4<Fx16>) {
    let shapes = vec![
        (
            LayerShape::conv("stem", 3, 8, 12, 12, 3, 1, 1).unwrap(),
            false,
        ),
        (
            LayerShape::depthwise("dw", 8, 12, 12, 3, 1, 1).unwrap(),
            false,
        ),
        (LayerShape::conv("pw", 8, 8, 12, 12, 1, 1, 0).unwrap(), true),
    ];
    let mut s = seed;
    let net = FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(&mut s)).unwrap();
    let input = Tensor4::from_fn([1, 3, 12, 12], |_| Fx16::from_f32(det(&mut s)));
    (net, input)
}

/// The compile-bound cell: a 4×4 ifmap under 64 SCNN filters, so the
/// request is dominated by weight-side work (per orbit group, compile
/// writes the four orientations the reads use, the two bases and their
/// FlipH partners, from the stored bases; the run sweeps rows of the two
/// bases only) — where the compile-once split pays off hardest.
fn compile_bound_cell(seed: u32) -> (FunctionalNetwork, Tensor4<Fx16>) {
    let shapes = vec![(LayerShape::conv("t", 8, 64, 4, 4, 3, 1, 0).unwrap(), false)];
    let mut s = seed;
    let net = FunctionalNetwork::random(&shapes, TransferScheme::Scnn, || det(&mut s)).unwrap();
    let input = Tensor4::from_fn([1, 8, 4, 4], |_| Fx16::from_f32(det(&mut s)));
    (net, input)
}

fn bench_engine_speedup(c: &mut Criterion) {
    let cells: Vec<(&str, bool, FunctionalNetwork, Tensor4<Fx16>)> = vec![
        {
            let (net, input) = sweep_cell(TransferScheme::DCNN4, 41);
            ("dcnn4", false, net, input)
        },
        {
            let (net, input) = sweep_cell(TransferScheme::DCNN6, 42);
            ("dcnn6", false, net, input)
        },
        {
            let (net, input) = sweep_cell(TransferScheme::Scnn, 43);
            ("scnn", false, net, input)
        },
        {
            let (net, input) = vgg_prefix_cell(44);
            ("vgg_prefix_scnn", false, net, input)
        },
        {
            let (net, input) = separable_cell(46);
            ("depthwise_separable", false, net, input)
        },
        {
            let (net, input) = compile_bound_cell(45);
            ("compile_bound_scnn", true, net, input)
        },
    ];
    let reuse = ReuseConfig::FULL;
    let mut report = BenchReport::load_or_new();
    let mut failed = Vec::new();
    for (label, compile_bound, net, input) in &cells {
        let engine = Engine::compile(net, reuse).unwrap();
        let mut scratch = Scratch::new();
        // Warm up both paths and pin bit-identity before timing.
        let want = net.run(input, reuse).unwrap();
        let got = engine.run(input, &mut scratch).unwrap();
        assert_eq!(got.activations, want.activations, "{label}");
        assert_eq!(got.counters, want.counters, "{label}");

        c.bench_function(&format!("cold/{label}"), |b| {
            b.iter(|| {
                let cold = net.clone();
                cold.run(black_box(input), reuse).unwrap()
            })
        });
        c.bench_function(&format!("wrapper/{label}"), |b| {
            b.iter(|| net.run(black_box(input), reuse).unwrap())
        });
        c.bench_function(&format!("engine/{label}"), |b| {
            b.iter(|| engine.run(black_box(input), &mut scratch).unwrap())
        });

        // Steady-state throughput ratios — the acceptance numbers.
        let (reps, rounds) = (8, 100);
        let cold_ips = best_ips(reps, rounds, || {
            let cold = net.clone();
            black_box(cold.run(input, reuse).unwrap());
        });
        let (wrapper_ips, engine_ips) = best_pair_ips(
            reps,
            rounds,
            || {
                black_box(net.run(input, reuse).unwrap());
            },
            || {
                black_box(engine.run(input, &mut scratch).unwrap());
            },
        );
        let speedup = wrapper_ips / cold_ips;
        let wrapper_ratio = wrapper_ips / engine_ips;
        println!(
            "engine_speedup/{label:<18} cold {cold_ips:>8.1}/s  wrapper {wrapper_ips:>8.1}/s  \
             engine {engine_ips:>8.1}/s  steady/cold x{speedup:.2}  wrapper/engine {wrapper_ratio:.3}"
        );
        if *compile_bound && speedup < 2.0 {
            failed.push(format!(
                "{label}: compile-once steady state must be >= 2x the cold path, got x{speedup:.2}"
            ));
        }
        if wrapper_ratio < 0.95 {
            failed.push(format!(
                "{label}: wrapper overhead vs direct Engine::run must be < 5%, got ratio {wrapper_ratio:.3}"
            ));
        }

        report.upsert(BenchCell {
            bench: "engine_speedup".to_owned(),
            cell: (*label).to_owned(),
            baseline: "cold".to_owned(),
            baseline_ips: cold_ips,
            current_ips: wrapper_ips,
            speedup,
            reps: u64::from(reps),
            rounds: u64::from(rounds),
        });
        report.upsert(BenchCell {
            bench: "engine_speedup".to_owned(),
            cell: format!("{label}/wrapper_vs_engine"),
            baseline: "engine".to_owned(),
            baseline_ips: engine_ips,
            current_ips: wrapper_ips,
            speedup: wrapper_ratio,
            reps: u64::from(reps),
            rounds: u64::from(rounds),
        });
    }
    report.save().expect("write perf trajectory");
    println!(
        "engine_speedup: trajectory updated at {}",
        BenchReport::path().display()
    );
    assert!(failed.is_empty(), "pins failed:\n{}", failed.join("\n"));
}

criterion_group!(benches, bench_engine_speedup);
criterion_main!(benches);
