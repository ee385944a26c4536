//! Microbenchmark of the ERRR cyclic PSum memory (Figs. 8-9): insert /
//! read throughput of the row ring.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfe_sim::counters::Counters;
use tfe_sim::errr::RowRing;
use tfe_tensor::fixed::{Accum, Fx16};

fn row(v: f32, len: usize) -> Vec<Accum> {
    (0..len)
        .map(|_| Fx16::from_f32(v).widening_mul(Fx16::ONE))
        .collect()
}

fn bench_errr(c: &mut Criterion) {
    c.bench_function("row_ring insert+read cycle (k3, 224 wide)", |b| {
        b.iter(|| {
            let mut counters = Counters::new();
            let mut ring = RowRing::new(3);
            for i in 0..32usize {
                let streams = vec![vec![row(i as f32, 224)]; 3];
                ring.insert(i, streams, &mut counters);
                if i >= 2 {
                    for ky in 0..3 {
                        black_box(ring.read(i - 2 + ky, ky, 0, &mut counters));
                    }
                }
            }
            counters
        })
    });
}

criterion_group!(benches, bench_errr);
criterion_main!(benches);
