//! `engine_modes`: the compressed-sparse dense-stage executor vs the
//! dense sweep — the acceptance bench of the weight-plan subsystem
//! (DESIGN §5.15).
//!
//! Each cell compiles **one network twice** — once under
//! [`ModePolicy::DenseOnly`] (the baseline) and once under the forced
//! sparse mode — and times single-image [`Engine::run`] on both,
//! interleaved min-of-reps, **bit-identity asserted before timing**
//! (activations, counters, and a batched run on each side). Every cell
//! is a 48-channel 12×12 stage magnitude-pruned to the exact sparsity
//! through `tfe-baselines`' [`SparseFilterBank::prune`] and executed by
//! the compressed-sparse path (`engine/sparse.rs`) against the dense
//! sweep over the same (mostly-zero) weights:
//!
//! * **sparse_p50 … p99** — a 48→32 stage, whose dense side is the
//!   filter-vector sweep (DESIGN §5.10).
//!
//! Pinned acceptance numbers (asserted, not just printed):
//!
//! * `sparse/dense ≥ 1.2` at 90 % sparsity — skipping nine of ten taps
//!   must actually pay after the compressed table's bookkeeping. Against
//!   the filter-vector sweep the sparse pass reads about 0.5× there
//!   (and below 1.0× at every cell up to 99 %), so this pin fails on
//!   x86-64 hosts: the sparse executor has no cell where it pays against
//!   that sweep (ROADMAP item 3). Pins are checked after every cell has
//!   run and the trajectory is written, so a failing pin still records
//!   the whole sweep;
//! * every cell's two sides are bit-identical — asserted on
//!   activations and the full counter stream before any timing runs.
//!
//! The other cells are recorded unpinned: they chart where the
//! sparse/dense crossover lives in the trajectory (`BENCH_*.json` via
//! [`tfe_bench::report`]) — the measurement behind
//! [`ModePolicy::Measured`], which keeps a stage the filter-vector sweep
//! serves on that sweep at any sparsity.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfe_baselines::sparse_kernel::SparseFilterBank;
use tfe_bench::report::{BenchCell, BenchReport};
use tfe_bench::timing::best_pair_ips;
use tfe_sim::engine::{Engine, Scratch};
use tfe_sim::network::{FunctionalNetwork, FunctionalStage};
use tfe_sim::output::OutputConfig;
use tfe_tensor::fixed::Fx16;
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::mode::{ExecMode, ModePolicy};

fn det(seed: &mut u32) -> f32 {
    *seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
    ((*seed >> 16) as f32 / 65536.0) - 0.5
}

const N: usize = 48;
const M: usize = 32;
const HW: usize = 12;
const K: usize = 3;

fn stage_net(weights: Tensor4<f32>) -> FunctionalNetwork {
    let shape = LayerShape::conv("mode", N, M, HW, HW, K, 1, 1).unwrap();
    FunctionalNetwork::new(vec![FunctionalStage {
        shape,
        weights: TransferredLayer::Dense { weights },
        bias: vec![0.1; M],
        output: OutputConfig::RELU_ONLY,
    }])
    .unwrap()
}

/// A dense stage magnitude-pruned to exactly `sparsity` via the
/// baselines pruning kernel — the same feed the pruned zoo variants
/// use, so the bench measures the path production models take.
fn pruned_net(sparsity: f64, seed: u32) -> FunctionalNetwork {
    let mut s = seed;
    let dense = Tensor4::from_fn([M, N, K, K], |_| det(&mut s));
    stage_net(
        SparseFilterBank::prune(&dense, sparsity)
            .expect("bench sparsity is a valid fraction")
            .to_dense(),
    )
}

struct Cell {
    label: &'static str,
    net: FunctionalNetwork,
    forced: (ModePolicy, ExecMode),
    /// The pinned minimum alternate/dense throughput ratio, if any.
    pin: Option<f64>,
    seed: u32,
}

fn bench_engine_modes(c: &mut Criterion) {
    let cells = vec![
        Cell {
            label: "sparse_p50",
            net: pruned_net(0.5, 21),
            forced: (ModePolicy::ForceSparse, ExecMode::Sparse),
            pin: None,
            seed: 201,
        },
        Cell {
            label: "sparse_p70",
            net: pruned_net(0.7, 22),
            forced: (ModePolicy::ForceSparse, ExecMode::Sparse),
            pin: None,
            seed: 202,
        },
        Cell {
            label: "sparse_p75",
            net: pruned_net(0.75, 27),
            forced: (ModePolicy::ForceSparse, ExecMode::Sparse),
            pin: None,
            seed: 207,
        },
        Cell {
            label: "sparse_p80",
            net: pruned_net(0.8, 28),
            forced: (ModePolicy::ForceSparse, ExecMode::Sparse),
            pin: None,
            seed: 208,
        },
        Cell {
            label: "sparse_p90",
            net: pruned_net(0.9, 23),
            forced: (ModePolicy::ForceSparse, ExecMode::Sparse),
            pin: Some(1.2),
            seed: 203,
        },
        Cell {
            label: "sparse_p93",
            net: pruned_net(0.93, 29),
            forced: (ModePolicy::ForceSparse, ExecMode::Sparse),
            pin: None,
            seed: 209,
        },
        Cell {
            label: "sparse_p95",
            net: pruned_net(0.95, 30),
            forced: (ModePolicy::ForceSparse, ExecMode::Sparse),
            pin: None,
            seed: 210,
        },
        Cell {
            label: "sparse_p97",
            net: pruned_net(0.97, 31),
            forced: (ModePolicy::ForceSparse, ExecMode::Sparse),
            pin: None,
            seed: 211,
        },
        Cell {
            label: "sparse_p99",
            net: pruned_net(0.99, 32),
            forced: (ModePolicy::ForceSparse, ExecMode::Sparse),
            pin: None,
            seed: 212,
        },
    ];

    let mut report = BenchReport::load_or_new();
    let mut failed = Vec::new();
    for cell in &cells {
        let dense =
            Engine::compile_with_policy(&cell.net, ReuseConfig::FULL, &ModePolicy::DenseOnly)
                .unwrap();
        let alt =
            Engine::compile_with_policy(&cell.net, ReuseConfig::FULL, &cell.forced.0).unwrap();
        assert_eq!(dense.exec_modes(), vec![ExecMode::Dense], "{}", cell.label);
        assert_eq!(alt.exec_modes(), vec![cell.forced.1], "{}", cell.label);

        let mut s = cell.seed;
        let input = Tensor4::from_fn([1, N, HW, HW], |_| Fx16::from_f32(det(&mut s)));
        let mut scratch_dense = Scratch::new();
        let mut scratch_alt = Scratch::new();

        // Bit-identity before timing: activations and the full counter
        // stream, on both the single-image and the batched entry point.
        let want = dense.run(&input, &mut scratch_dense).unwrap();
        let got = alt.run(&input, &mut scratch_alt).unwrap();
        assert_eq!(got.counters, want.counters, "{}: counters", cell.label);
        let [_, oc, oh, ow] = want.activations.dims();
        for ci in 0..oc {
            for y in 0..oh {
                for x in 0..ow {
                    assert_eq!(
                        got.activations.get([0, ci, y, x]),
                        want.activations.get([0, ci, y, x]),
                        "{}: activations diverge at plane {ci} ({y},{x})",
                        cell.label
                    );
                }
            }
        }
        let batch = Tensor4::from_fn([4, N, HW, HW], |_| Fx16::from_f32(det(&mut s)));
        let wb = dense.run_batched(&batch, &mut scratch_dense, 1).unwrap();
        let gb = alt.run_batched(&batch, &mut scratch_alt, 1).unwrap();
        assert_eq!(
            gb.per_image, wb.per_image,
            "{}: batched counters",
            cell.label
        );
        for bi in 0..4 {
            for ci in 0..oc {
                for y in 0..oh {
                    for x in 0..ow {
                        assert_eq!(
                            gb.activations.get([bi, ci, y, x]),
                            wb.activations.get([bi, ci, y, x]),
                            "{}: batched activations diverge at image {bi}",
                            cell.label
                        );
                    }
                }
            }
        }

        c.bench_function(&format!("dense/{}", cell.label), |b| {
            b.iter(|| black_box(dense.run(black_box(&input), &mut scratch_dense).unwrap()))
        });
        c.bench_function(&format!("alt/{}", cell.label), |b| {
            b.iter(|| black_box(alt.run(black_box(&input), &mut scratch_alt).unwrap()))
        });

        let (reps, rounds) = (10, 60);
        let (dense_ips, alt_ips) = best_pair_ips(
            reps,
            rounds,
            || {
                black_box(dense.run(&input, &mut scratch_dense).unwrap());
            },
            || {
                black_box(alt.run(&input, &mut scratch_alt).unwrap());
            },
        );
        let ratio = alt_ips / dense_ips;
        println!(
            "engine_modes/{:<20} dense {dense_ips:>9.1} img/s  alt {alt_ips:>9.1} img/s  \
             alt/dense {ratio:.3}",
            cell.label
        );
        if let Some(pin) = cell.pin.filter(|&pin| ratio < pin) {
            failed.push(format!(
                "{}: the {} executor must be >= {pin}x the dense sweep, got ratio {ratio:.3}",
                cell.label,
                cell.forced.1.as_str()
            ));
        }

        report.upsert(BenchCell {
            bench: "engine_modes".to_owned(),
            cell: cell.label.to_owned(),
            baseline: "dense".to_owned(),
            baseline_ips: dense_ips,
            current_ips: alt_ips,
            speedup: ratio,
            reps: u64::from(reps),
            rounds: u64::from(rounds),
        });
    }
    report.save().expect("write perf trajectory");
    println!(
        "engine_modes: trajectory updated at {}",
        BenchReport::path().display()
    );
    assert!(failed.is_empty(), "pins failed:\n{}", failed.join("\n"));
}

criterion_group!(benches, bench_engine_modes);
criterion_main!(benches);
