//! `fleet_router`: dispatch overhead of the multi-model fleet tier.
//!
//! Two interleaved sides per cell, both blocking round-trips through
//! the same serving machinery (bounded queue → micro-batcher → executor
//! → ticket wait) on the same demo network and knobs (batch size 1,
//! zero flush delay, one executor):
//!
//! * **serve** — a bare single-model [`Service`], the pre-fleet path.
//! * **fleet** — a one-model [`Fleet`], so every request additionally
//!   pays the router: model-id lookup, live-generation `RwLock` read +
//!   `Arc` clone, round-robin replica pick, and the dispatch counters.
//!
//! The pinned acceptance number (asserted, not just printed):
//! `fleet/serve ≥ 0.97` on every cell — routed dispatch costs < 3 %
//! over single-model serving (re-tightened from 0.95 after the
//! per-request input clone was removed from `Shard::submit`; admission
//! now moves the tensor and recovers it from the rejection path only on
//! the rare swap-boundary retry). Cells cover the default route (no
//! model id, protocol-v1 shape) and an explicit id (the map-lookup
//! path), and both sides are pinned bit-identical before timing.
//! Min-of-reps cells land in the `BENCH_*.json` trajectory via
//! [`tfe_bench::report`].

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tfe_bench::report::{BenchCell, BenchReport};
use tfe_bench::timing::best_pair_ips;
use tfe_fleet::demo::{demo_images, demo_network};
use tfe_fleet::{Fleet, FleetSpec, ModelSpec};
use tfe_serve::{ServeConfig, Service};

/// Lowest-latency round-trip knobs: no batching window, one executor,
/// so the timed path is pure dispatch + execution.
fn knobs() -> ServeConfig {
    ServeConfig {
        max_batch_size: 1,
        max_batch_delay: Duration::ZERO,
        executors: 1,
        ..ServeConfig::default()
    }
}

fn bench_fleet_router(c: &mut Criterion) {
    let images = demo_images(4, 0xf1ee);
    let service = Service::start(demo_network(17), knobs()).expect("serve side starts");
    let serve_client = service.client();
    let fleet = Fleet::start(FleetSpec::new(vec![ModelSpec::new(
        "demo",
        demo_network(17),
    )
    .with_serve(knobs())]))
    .expect("fleet side starts");
    let fleet_client = fleet.client();

    // Warm both paths and pin bit-identity before timing anything.
    for image in &images {
        let want = serve_client.infer(image.clone()).expect("serve warmup");
        for model in [None, Some("demo")] {
            let got = fleet_client
                .infer(model, image.clone())
                .expect("fleet warmup");
            assert_eq!(got.activations, want.activations);
            assert_eq!(got.counters, want.counters);
        }
    }

    let mut report = BenchReport::load_or_new();
    for (cell, model) in [("default_route", None), ("routed_by_id", Some("demo"))] {
        c.bench_function(&format!("serve/{cell}"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let image = images[i % images.len()].clone();
                black_box(serve_client.infer(image).unwrap())
            })
        });
        c.bench_function(&format!("fleet/{cell}"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let image = images[i % images.len()].clone();
                black_box(fleet_client.infer(model, image).unwrap())
            })
        });

        let (reps, rounds) = (10, 120);
        let mut i = 0usize;
        let mut j = 0usize;
        let (serve_ips, fleet_ips) = best_pair_ips(
            reps,
            rounds,
            || {
                i += 1;
                let image = images[i % images.len()].clone();
                black_box(serve_client.infer(image).unwrap());
            },
            || {
                j += 1;
                let image = images[j % images.len()].clone();
                black_box(fleet_client.infer(model, image).unwrap());
            },
        );
        let ratio = fleet_ips / serve_ips;
        println!(
            "fleet_router/{cell:<14} serve {serve_ips:>8.1}/s  fleet {fleet_ips:>8.1}/s  \
             fleet/serve {ratio:.3}"
        );
        assert!(
            ratio >= 0.97,
            "{cell}: router dispatch overhead vs single-model serving must be < 3%, \
             got ratio {ratio:.3}"
        );
        report.upsert(BenchCell {
            bench: "fleet_router".to_owned(),
            cell: cell.to_owned(),
            baseline: "serve".to_owned(),
            baseline_ips: serve_ips,
            current_ips: fleet_ips,
            speedup: ratio,
            reps: u64::from(reps),
            rounds: u64::from(rounds),
        });
    }
    report.save().expect("write perf trajectory");
    println!(
        "fleet_router: trajectory updated at {}",
        BenchReport::path().display()
    );

    let snapshot = fleet.shutdown();
    assert_eq!(snapshot.shed + snapshot.failed, 0, "clean bench run");
    let _ = service.shutdown();
}

criterion_group!(benches, bench_fleet_router);
criterion_main!(benches);
