//! Fleet-tier smoke tests: the multi-model router in `tfe::fleet` must
//! be invisible to callers — every routed response is bit-identical to a
//! direct `Engine::run` on the model's own compiled engine — while
//! unknown models are rejected with a typed error, engine hot-swaps
//! drop nothing in flight, and the merged fleet telemetry sums exactly
//! to its per-shard parts.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tfe::fleet::demo::{self, demo_images, demo_network};
use tfe::fleet::{Fleet, FleetSpec, ModelSpec};
use tfe::serve::protocol::{roundtrip, WireRequest, WireResponse};
use tfe::serve::{Rejected, ServeConfig, TcpServer};
use tfe::sim::counters::Counters;
use tfe::sim::engine::{Engine, Scratch};
use tfe::sim::network::{FunctionalNetwork, NetworkOutput};
use tfe::tensor::fixed::Fx16;
use tfe::tensor::tensor::Tensor4;
use tfe::transfer::analysis::ReuseConfig;

/// Mixed-model traffic includes the depthwise-separable
/// `mobilenet-mini` miniature, so the fleet path exercises grouped
/// dense stages alongside transferred ones.
const MODELS: [&str; 4] = ["demo", "alexnet", "mobilenet-mini", "resnet56"];

/// Direct `Engine::run` reference outputs for a set of images.
fn reference_outputs(net: &FunctionalNetwork, images: &[Tensor4<Fx16>]) -> Vec<NetworkOutput> {
    let engine = Engine::compile(net, ReuseConfig::FULL).expect("reference compile");
    let mut scratch = Scratch::new();
    images
        .iter()
        .map(|image| engine.run(image, &mut scratch).expect("reference run"))
        .collect()
}

/// N models served concurrently through one router: every response is
/// bit-identical to a direct `Engine::run` on that model's network, and
/// the merged fleet snapshot accounts for every request.
#[test]
fn concurrent_multi_model_dispatch_is_bit_identical() {
    let spec = demo::demo_fleet(&MODELS, 11).unwrap();
    let images = demo_images(6, 0xbeef);
    let expected: Vec<Vec<NetworkOutput>> = spec
        .models
        .iter()
        .map(|m| reference_outputs(&m.network, &images))
        .collect();
    let images = Arc::new(images);

    let fleet = Fleet::start(spec).unwrap();
    let client = fleet.client();

    let mut workers = Vec::new();
    for (model, id) in MODELS.iter().enumerate() {
        for worker in 0..2 {
            let client = client.clone();
            let images = Arc::clone(&images);
            let expected: Vec<NetworkOutput> = expected[model].clone();
            workers.push(std::thread::spawn(move || {
                for round in 0..4 {
                    let idx = (worker * 4 + round) % images.len();
                    let reply = client
                        .infer(Some(id), images[idx].clone())
                        .expect("routed inference");
                    assert_eq!(reply.activations, expected[idx].activations, "{id}");
                    assert_eq!(reply.counters, expected[idx].counters, "{id}");
                }
            }));
        }
    }
    for worker in workers {
        worker.join().expect("fleet worker");
    }

    // A request with no model id runs the default (first) model.
    let reply = client
        .infer(None, images[0].clone())
        .expect("default model");
    assert_eq!(reply.activations, expected[0][0].activations);

    let snapshot = fleet.shutdown();
    assert_eq!(snapshot.completed, 33);
    assert_eq!(snapshot.shed + snapshot.failed + snapshot.expired, 0);
    assert_eq!(snapshot.models.len(), 4);
    for (model, id) in MODELS.iter().enumerate() {
        let row = &snapshot.models[model];
        assert_eq!(row.model, *id);
        assert_eq!(row.completed, if model == 0 { 9 } else { 8 });
        assert_eq!(row.shed, 0);
    }
}

/// Unknown model ids are a typed rejection, both in-process and over
/// TCP, and the router counts them.
#[test]
fn unknown_model_is_a_typed_rejection() {
    let fleet = Fleet::start(demo::demo_fleet(&["demo"], 3).unwrap()).unwrap();
    let client = fleet.client();
    let image = demo_images(1, 5).remove(0);

    match client.infer(Some("efficientnet"), image.clone()) {
        Err(Rejected::UnknownModel { model }) => assert_eq!(model, "efficientnet"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }

    let server = TcpServer::bind("127.0.0.1:0", client.clone()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let request = WireRequest::Infer {
        input: image.clone(),
        deadline_ms: None,
        model_id: Some("efficientnet".to_owned()),
    };
    match roundtrip(&mut stream, &request).expect("roundtrip") {
        WireResponse::Rejected { reason } => assert_eq!(reason, "unknown_model"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    drop(stream);
    server.shutdown();

    // Served requests still work, and the snapshot counted the misses.
    client.infer(Some("demo"), image).expect("served model");
    let snapshot = fleet.shutdown();
    assert_eq!(snapshot.unknown_models, 2);
    assert_eq!(snapshot.completed, 1);
    assert_eq!(snapshot.to_metrics().rejected, 2);
}

/// Hot-swap under live load: zero admitted requests are dropped, every
/// response is bit-identical to one of the two generations' engines
/// (each request runs entirely on the engine that admitted it), and
/// after the drain the new engine serves new weights.
#[test]
fn hot_swap_drops_nothing_and_stays_bit_identical() {
    let old_net = demo_network(21);
    let new_net = demo_network(22);
    let images = demo_images(4, 0xfade);
    let old_expected = reference_outputs(&old_net, &images);
    let new_expected = reference_outputs(&new_net, &images);
    // The swap must be observable: different seeds, different outputs.
    assert_ne!(old_expected[0].activations, new_expected[0].activations);

    let spec = FleetSpec::new(vec![ModelSpec::new("demo", old_net).with_serve(
        ServeConfig {
            max_batch_size: 2,
            max_batch_delay: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    )]);
    let fleet = Fleet::start(spec).unwrap();
    let client = fleet.client();

    // Background submitters keep load on the shard across the swap.
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for worker in 0..3 {
        let client = client.clone();
        let stop = Arc::clone(&stop);
        let images = images.clone();
        let old_expected = old_expected.clone();
        let new_expected = new_expected.clone();
        workers.push(std::thread::spawn(move || {
            let mut submitted = 0u64;
            let mut completed = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let idx = (worker + completed as usize) % images.len();
                match client.submit(Some("demo"), images[idx].clone(), None) {
                    Ok(ticket) => {
                        submitted += 1;
                        let reply = ticket
                            .wait()
                            .expect("an admitted request must complete across the swap boundary");
                        // Bit-identical to exactly one generation.
                        let old_ok = reply.activations == old_expected[idx].activations;
                        let new_ok = reply.activations == new_expected[idx].activations;
                        assert!(old_ok || new_ok, "output from neither generation");
                        completed += 1;
                    }
                    Err(Rejected::QueueFull { .. }) => {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Err(other) => panic!("unexpected rejection under swap: {other}"),
                }
            }
            (submitted, completed)
        }));
    }

    // Let traffic build, swap mid-load, then keep serving on the new
    // generation before stopping the submitters.
    std::thread::sleep(Duration::from_millis(30));
    fleet.hot_swap("demo", &new_net).unwrap();
    std::thread::sleep(Duration::from_millis(30));

    stop.store(true, Ordering::SeqCst);
    let mut submitted = 0u64;
    let mut completed = 0u64;
    for worker in workers {
        let (s, c) = worker.join().expect("swap worker");
        submitted += s;
        completed += c;
    }
    // Zero dropped in-flight: everything admitted resolved Ok.
    assert_eq!(submitted, completed);
    assert!(
        completed > 0,
        "the load phase must have exercised the shard"
    );

    // After the drain, the new generation serves the new weights.
    let reply = client
        .infer(Some("demo"), images[0].clone())
        .expect("post-swap");
    assert_eq!(reply.activations, new_expected[0].activations);
    assert_eq!(reply.counters, new_expected[0].counters);

    let snapshot = fleet.shutdown();
    assert_eq!(snapshot.swaps, 1);
    assert_eq!(snapshot.completed, completed + 1);
    assert_eq!(snapshot.models[0].swaps, 1);
    // The retired generation's history survives the swap in the row.
    assert_eq!(snapshot.models[0].completed, completed + 1);
}

/// The TCP front-end routes by the protocol-v2 `model` field, and the
/// stats response carries per-model rows whose per-layer counters sum
/// exactly to the fleet totals.
#[test]
fn tcp_mixed_model_traffic_and_fleet_stats() {
    let spec = demo::demo_fleet(&MODELS, 7).unwrap();
    let images = demo_images(3, 0x7cb);
    let expected: Vec<Vec<NetworkOutput>> = spec
        .models
        .iter()
        .map(|m| reference_outputs(&m.network, &images))
        .collect();

    let fleet = Fleet::start(spec).unwrap();
    let server = TcpServer::bind("127.0.0.1:0", fleet.client()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    for round in 0..6 {
        let model = round % MODELS.len();
        let idx = round % images.len();
        let request = WireRequest::Infer {
            input: images[idx].clone(),
            deadline_ms: None,
            model_id: Some(MODELS[model].to_owned()),
        };
        match roundtrip(&mut stream, &request).expect("roundtrip") {
            WireResponse::Ok {
                activations,
                counters,
                ..
            } => {
                assert_eq!(activations, expected[model][idx].activations);
                assert_eq!(counters, expected[model][idx].counters);
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    // A v1-style frame (no model field) runs the default model.
    let request = WireRequest::Infer {
        input: images[0].clone(),
        deadline_ms: None,
        model_id: None,
    };
    match roundtrip(&mut stream, &request).expect("v1 roundtrip") {
        WireResponse::Ok { activations, .. } => {
            assert_eq!(activations, expected[0][0].activations);
        }
        other => panic!("expected Ok, got {other:?}"),
    }

    match roundtrip(&mut stream, &WireRequest::Stats).expect("stats roundtrip") {
        WireResponse::Stats {
            metrics,
            telemetry,
            models,
        } => {
            let rows = models.expect("fleet endpoints report per-model rows");
            assert_eq!(rows.len(), 4);
            assert_eq!(metrics.completed, 7);

            // Per-model per-layer counters sum exactly to the model's
            // total, and the models' totals sum exactly to the fleet's.
            let mut fleet_sum = Counters::default();
            for row in &rows {
                // The separable miniature has three stages; the rest two.
                let stages = if row.model == "mobilenet-mini" { 3 } else { 2 };
                assert_eq!(row.telemetry.layers.len(), stages, "{}", row.model);
                let mut layer_sum = Counters::default();
                for layer in &row.telemetry.layers {
                    assert!(layer.counters.multiplies > 0);
                    layer_sum.merge(&layer.counters);
                }
                assert_eq!(layer_sum, row.telemetry.total, "{}", row.model);
                fleet_sum.merge(&row.telemetry.total);
            }
            assert_eq!(fleet_sum, telemetry.total);
            assert_eq!(fleet_sum, metrics.counters);
            assert!(
                telemetry.layers.is_empty(),
                "fleet-wide view is totals-only"
            );
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(stream);

    server.shutdown();
    let snapshot = fleet.shutdown();
    assert_eq!(snapshot.completed, 7);
}

/// The merged fleet telemetry equals per-shard telemetry collected
/// independently: per-layer runs track per-model completions exactly.
#[test]
fn merged_fleet_telemetry_sums_exactly() {
    let fleet = Fleet::start(demo::demo_fleet(&MODELS, 5).unwrap()).unwrap();
    let client = fleet.client();
    let images = demo_images(2, 0xace);

    // Uneven traffic: model i gets (i + 1) * 2 requests.
    for (model, id) in MODELS.iter().enumerate() {
        for round in 0..(model + 1) * 2 {
            client
                .infer(Some(id), images[round % images.len()].clone())
                .expect("inference");
        }
    }

    let snapshot = fleet.shutdown();
    for (model, row) in snapshot.models.iter().enumerate() {
        let runs = ((model + 1) * 2) as u64;
        assert_eq!(row.completed, runs, "{}", row.model);
        for layer in &row.telemetry.layers {
            assert_eq!(layer.runs, runs, "{}/{}", row.model, layer.label);
        }
        // recorded = one sample per stage per request, nothing dropped.
        assert_eq!(
            row.telemetry.recorded,
            runs * row.telemetry.layers.len() as u64,
            "{}",
            row.model
        );
        assert_eq!(row.telemetry.dropped, 0);
    }
    let fleet_telemetry = snapshot.to_telemetry();
    // demo/alexnet/resnet56 have two stages, mobilenet-mini three:
    // 2*2 + 4*2 + 6*3 + 8*2 samples.
    assert_eq!(fleet_telemetry.recorded, 2 * 2 + 4 * 2 + 6 * 3 + 8 * 2);
    assert_eq!(snapshot.completed, 2 + 4 + 6 + 8);
}
