//! Microbenchmark of the PPSR row engines (Figs. 6-7): the cost of one
//! row pass with and without product reuse, plus the acceptance cells
//! pinning the row kernel's one-row case (DESIGN §5.10) against the
//! frozen scalar reference.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfe_bench::report::{BenchCell, BenchReport};
use tfe_bench::timing::best_pair_ips;
use tfe_sim::counters::Counters;
use tfe_sim::ppsr::{
    conventional_row_pass_acc, conventional_row_pass_acc_scalar, dcnn_row_pass_acc,
    dcnn_row_pass_acc_scalar, scnn_row_pass_acc, scnn_row_pass_acc_scalar,
};
use tfe_tensor::fixed::{Accum, Fx16};

fn bench_ppsr(c: &mut Criterion) {
    let meta_row: Vec<Fx16> = (0..6)
        .map(|i| Fx16::from_f32(i as f32 * 0.25 - 0.5))
        .collect();
    let input: Vec<Fx16> = (0..226)
        .map(|i| Fx16::from_f32(((i % 13) as f32 - 6.0) / 8.0))
        .collect();
    let out_len = input.len() + 1 - 3;
    let mut lanes = vec![vec![Accum::ZERO; out_len]; meta_row.len() - 3 + 1];
    for (ppsr, label) in [(true, "on"), (false, "off")] {
        c.bench_function(
            &format!("dcnn_row_pass_acc z6 k3 w226 (PPSR {label})"),
            |b| {
                b.iter(|| {
                    let mut counters = Counters::new();
                    dcnn_row_pass_acc(
                        black_box(&meta_row),
                        black_box(&input),
                        3,
                        ppsr,
                        &mut lanes,
                        &mut counters,
                    );
                })
            },
        );
    }
    let base_row: Vec<Fx16> = (0..3).map(|i| Fx16::from_f32(i as f32 - 1.0)).collect();
    let mut fwd = vec![Accum::ZERO; out_len];
    let mut rev = vec![Accum::ZERO; out_len];
    c.bench_function("scnn_row_pass_acc k3 w226", |b| {
        b.iter(|| {
            let mut counters = Counters::new();
            scnn_row_pass_acc(
                black_box(&base_row),
                black_box(&input),
                true,
                &mut fwd,
                Some(rev.as_mut_slice()),
                &mut counters,
            );
        })
    });
}

/// Records one monomorphized-vs-scalar cell in the perf trajectory and,
/// when `min_speedup` is set, asserts the fast path clears it.
#[allow(clippy::too_many_arguments)]
fn record_kernel_cell(
    report: &mut BenchReport,
    cell: &str,
    fast_ips: f64,
    scalar_ips: f64,
    reps: u32,
    rounds: u32,
    min_speedup: Option<f64>,
) {
    let speedup = fast_ips / scalar_ips;
    println!(
        "ppsr_row/{cell:<24} scalar {scalar_ips:>10.1}/s  monomorphized {fast_ips:>10.1}/s  x{speedup:.2}"
    );
    if let Some(min) = min_speedup {
        assert!(
            speedup >= min,
            "{cell}: monomorphized kernel must be >= {min}x the scalar reference, got x{speedup:.2}"
        );
    }
    report.upsert(BenchCell {
        bench: "ppsr_row".to_owned(),
        cell: cell.to_owned(),
        baseline: "scalar".to_owned(),
        baseline_ips: scalar_ips,
        current_ips: fast_ips,
        speedup,
        reps: u64::from(reps),
        rounds: u64::from(rounds),
    });
}

/// The tentpole acceptance cells: monomorphized row kernels vs the
/// frozen scalar reference, one K = 3 dense (conventional) row, one
/// DCNN z6/k3 meta row, and one SCNN mirrored row, all over the same
/// 226-wide input the Criterion cells above use.
///
/// Bit-identity — activations AND counters — is asserted before any
/// timing (saturating `Accum` addition is order-sensitive, so identity
/// proves addition order, not just the sum), then interleaved
/// min-of-reps timing pins the dense and DCNN cells at >= 1.25x and
/// records all three in the `BENCH_*.json` trajectory.
fn bench_monomorphized_kernels(c: &mut Criterion) {
    let weights: Vec<Fx16> = (0..3)
        .map(|i| Fx16::from_f32(i as f32 * 0.25 - 0.25))
        .collect();
    let meta_row: Vec<Fx16> = (0..6)
        .map(|i| Fx16::from_f32(i as f32 * 0.25 - 0.5))
        .collect();
    let input: Vec<Fx16> = (0..226)
        .map(|i| Fx16::from_f32(((i % 13) as f32 - 6.0) / 8.0))
        .collect();
    let out_len = input.len() + 1 - 3;
    let lanes = meta_row.len() - 3 + 1;

    let mut report = BenchReport::load_or_new();
    let (reps, rounds) = (9u32, 4096u32);

    // --- conventional (dense) K = 3 ---
    {
        let mut fast = vec![Accum::ZERO; out_len];
        let mut slow = vec![Accum::ZERO; out_len];
        let (mut cf, mut cs) = (Counters::new(), Counters::new());
        conventional_row_pass_acc(&weights, &input, &mut fast, &mut cf);
        conventional_row_pass_acc_scalar(&weights, &input, &mut slow, &mut cs);
        assert_eq!(fast, slow, "conventional k3: values diverge");
        assert_eq!(cf, cs, "conventional k3: counters diverge");

        c.bench_function("conventional_row_pass_acc k3 w226 (monomorphized)", |b| {
            b.iter(|| {
                let mut counters = Counters::new();
                conventional_row_pass_acc(
                    black_box(&weights),
                    black_box(&input),
                    &mut fast,
                    &mut counters,
                );
            })
        });
        c.bench_function("conventional_row_pass_acc k3 w226 (scalar)", |b| {
            b.iter(|| {
                let mut counters = Counters::new();
                conventional_row_pass_acc_scalar(
                    black_box(&weights),
                    black_box(&input),
                    &mut slow,
                    &mut counters,
                );
            })
        });

        let (fast_ips, scalar_ips) = best_pair_ips(
            reps,
            rounds,
            || {
                conventional_row_pass_acc(
                    black_box(&weights),
                    black_box(&input),
                    &mut fast,
                    &mut cf,
                );
            },
            || {
                conventional_row_pass_acc_scalar(
                    black_box(&weights),
                    black_box(&input),
                    &mut slow,
                    &mut cs,
                );
            },
        );
        record_kernel_cell(
            &mut report,
            "conventional_k3_w226",
            fast_ips,
            scalar_ips,
            reps,
            rounds,
            Some(1.25),
        );
    }

    // --- DCNN z = 6, K = 3, PPSR on ---
    {
        let mut fast = vec![vec![Accum::ZERO; out_len]; lanes];
        let mut slow = vec![vec![Accum::ZERO; out_len]; lanes];
        let (mut cf, mut cs) = (Counters::new(), Counters::new());
        dcnn_row_pass_acc(&meta_row, &input, 3, true, &mut fast, &mut cf);
        dcnn_row_pass_acc_scalar(&meta_row, &input, 3, true, &mut slow, &mut cs);
        assert_eq!(fast, slow, "dcnn z6 k3: values diverge");
        assert_eq!(cf, cs, "dcnn z6 k3: counters diverge");

        let (fast_ips, scalar_ips) = best_pair_ips(
            reps,
            rounds,
            || {
                dcnn_row_pass_acc(
                    black_box(&meta_row),
                    black_box(&input),
                    3,
                    true,
                    &mut fast,
                    &mut cf,
                );
            },
            || {
                dcnn_row_pass_acc_scalar(
                    black_box(&meta_row),
                    black_box(&input),
                    3,
                    true,
                    &mut slow,
                    &mut cs,
                );
            },
        );
        record_kernel_cell(
            &mut report,
            "dcnn_z6_k3_w226",
            fast_ips,
            scalar_ips,
            reps,
            rounds,
            Some(1.25),
        );
    }

    // --- SCNN K = 3, mirrored stream on (recorded, not pinned: the
    // reversed stream shares most of its cost between both sides) ---
    {
        let mut fast_f = vec![Accum::ZERO; out_len];
        let mut fast_r = vec![Accum::ZERO; out_len];
        let mut slow_f = vec![Accum::ZERO; out_len];
        let mut slow_r = vec![Accum::ZERO; out_len];
        let (mut cf, mut cs) = (Counters::new(), Counters::new());
        scnn_row_pass_acc(
            &weights,
            &input,
            true,
            &mut fast_f,
            Some(fast_r.as_mut_slice()),
            &mut cf,
        );
        scnn_row_pass_acc_scalar(
            &weights,
            &input,
            true,
            &mut slow_f,
            Some(slow_r.as_mut_slice()),
            &mut cs,
        );
        assert_eq!(fast_f, slow_f, "scnn k3: forward values diverge");
        assert_eq!(fast_r, slow_r, "scnn k3: mirrored values diverge");
        assert_eq!(cf, cs, "scnn k3: counters diverge");

        let (fast_ips, scalar_ips) = best_pair_ips(
            reps,
            rounds,
            || {
                scnn_row_pass_acc(
                    black_box(&weights),
                    black_box(&input),
                    true,
                    &mut fast_f,
                    Some(fast_r.as_mut_slice()),
                    &mut cf,
                );
            },
            || {
                scnn_row_pass_acc_scalar(
                    black_box(&weights),
                    black_box(&input),
                    true,
                    &mut slow_f,
                    Some(slow_r.as_mut_slice()),
                    &mut cs,
                );
            },
        );
        record_kernel_cell(
            &mut report,
            "scnn_k3_w226",
            fast_ips,
            scalar_ips,
            reps,
            rounds,
            None,
        );
    }

    report.save().expect("write perf trajectory");
    println!(
        "ppsr_row: trajectory updated at {}",
        BenchReport::path().display()
    );
}

criterion_group!(benches, bench_ppsr, bench_monomorphized_kernels);
criterion_main!(benches);
