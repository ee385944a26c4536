//! End-to-end timings of every paper experiment kernel (Table II runs at
//! quick scale; everything else at full scale).

use criterion::{criterion_group, criterion_main, Criterion};
use tfe_bench::experiments as ex;
use tfe_core::Evaluator;

fn bench_experiments(c: &mut Criterion) {
    let engine = Evaluator::new();
    c.bench_function("table3_specs", |b| b.iter(ex::table3::run));
    c.bench_function("fig14_breakdown", |b| b.iter(|| ex::fig14::run(&engine)));
    c.bench_function("fig15_speedup", |b| b.iter(|| ex::fig15::run(&engine)));
    c.bench_function("fig16_weight_compression", |b| {
        b.iter(|| ex::fig16::run(&engine))
    });
    c.bench_function("fig17_computation_reduction", |b| {
        b.iter(|| ex::fig17::run(&engine))
    });
    c.bench_function("table4_other_methods", |b| {
        b.iter(|| ex::table4::run(&engine))
    });
    c.bench_function("table5_recent_networks", |b| {
        b.iter(|| ex::table5::run(&engine))
    });
    c.bench_function("fig18_energy_efficiency", |b| {
        b.iter(|| ex::fig18::run(&engine))
    });
    c.bench_function("fig19_mac_ablation", |b| b.iter(ex::fig19::run));
    c.bench_function("fig20_offchip_access", |b| {
        b.iter(|| ex::fig20::run(&engine))
    });
    c.bench_function("eq_analysis", |b| b.iter(ex::eq_analysis::run));
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.bench_function("table2_accuracy_quick", |b| {
        b.iter(|| ex::table2::run(ex::table2::Scale::Quick))
    });
    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
