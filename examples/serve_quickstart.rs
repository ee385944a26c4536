//! Serving quickstart: start the dynamic-batching service around the
//! demo network, hit it over both front-ends (in-process client and the
//! length-prefixed JSON TCP protocol), and print the metrics snapshot.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use std::net::TcpStream;
use tfe::fleet::demo::{demo_images, demo_network};
use tfe::serve::protocol::{roundtrip, WireRequest, WireResponse};
use tfe::serve::{ServeConfig, Service, TcpServer};
use tfe::transfer::analysis::ReuseConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = demo_network(7);
    let images = demo_images(8, 42);
    // Reference answer for image 0, straight through the simulator.
    let direct = net.run(&images[0], ReuseConfig::FULL)?;

    let service = Service::start(net, ServeConfig::default())?;
    let client = service.client();

    // Front-end 1: the in-process client.
    let reply = client.infer(images[0].clone())?;
    assert_eq!(reply.activations, direct.activations);
    assert_eq!(reply.counters, direct.counters);
    println!(
        "in-process: {} MACs ({:.2}x below dense), {} µs",
        reply.counters.multiplies,
        reply.counters.mac_reduction(),
        reply.latency.as_micros()
    );

    // Front-end 2: the TCP protocol on an ephemeral port.
    let server = TcpServer::bind("127.0.0.1:0", service.client())?;
    let mut stream = TcpStream::connect(server.local_addr())?;
    for image in &images[1..] {
        let request = WireRequest::Infer {
            input: image.clone(),
            deadline_ms: None,
            model_id: None,
        };
        match roundtrip(&mut stream, &request)? {
            WireResponse::Ok { latency_us, .. } => {
                println!("tcp: ok in {latency_us} µs");
            }
            other => println!("tcp: {other:?}"),
        }
    }
    match roundtrip(&mut stream, &WireRequest::Stats)? {
        WireResponse::Stats {
            metrics,
            telemetry,
            models: _,
        } => {
            println!(
                "served {} requests in {} batches (mean size {:.2}), p99 {} µs",
                metrics.completed,
                metrics.batches,
                metrics.mean_batch_size(),
                metrics.p99_us
            );
            for layer in &telemetry.layers {
                println!(
                    "  layer {} ({}): {} runs, p95 {} µs, {:.2}x MAC reduction",
                    layer.layer, layer.label, layer.runs, layer.p95_us, layer.mac_reduction
                );
            }
        }
        other => println!("tcp: {other:?}"),
    }
    drop(stream);
    server.shutdown();

    let snapshot = service.shutdown();
    println!(
        "lifetime sim counters: {} MACs, {} SRAM accesses",
        snapshot.counters.multiplies,
        snapshot.counters.sram_accesses()
    );
    Ok(())
}
