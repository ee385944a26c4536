//! `serve_latency`: latency/throughput sweep of the dynamic-batching
//! serving stack (`tfe-serve`) over arrival rate × micro-batch size.
//!
//! Each cell starts a fresh in-process service around the deterministic
//! demo network, offers open-loop Poisson arrivals for a short window,
//! then reports achieved throughput, tail latency, rejection counts,
//! and the window's merged simulator counters.
//!
//! ```sh
//! cargo bench -p tfe-bench --bench serve_latency
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tfe_bench::format::Table;
use tfe_fleet::demo;
use tfe_serve::{Rejected, ServeConfig, Service};

struct Cell {
    offered: u64,
    completed: u64,
    rejected: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    mean_batch: f64,
    throughput: f64,
    mac_reduction: f64,
}

fn run_cell(rate: f64, batch: usize, window: Duration, seed: u64) -> Cell {
    let service = Service::start(
        demo::demo_network(7),
        ServeConfig {
            max_batch_size: batch,
            max_batch_delay: Duration::from_micros(2000),
            queue_capacity: 128,
            executors: 2,
            ..ServeConfig::default()
        },
    )
    .expect("demo config is valid");
    let client = service.client();
    let images = demo::demo_images(32, 0x1a6e);
    let mut rng = StdRng::seed_from_u64(seed);

    let start = Instant::now();
    let end = start + window;
    let mut next_arrival = start;
    let mut offered = 0u64;
    let mut rejected = 0u64;
    let mut tickets = Vec::new();
    loop {
        let u: f64 = rng.gen();
        next_arrival += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
        if next_arrival >= end {
            break;
        }
        let now = Instant::now();
        if next_arrival > now {
            std::thread::sleep(next_arrival - now);
        }
        let image = images[offered as usize % images.len()].clone();
        offered += 1;
        match client.submit(image) {
            Ok(ticket) => tickets.push(ticket),
            Err(Rejected::QueueFull { .. }) => rejected += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    for ticket in tickets {
        let _ = ticket.wait();
    }
    let elapsed = start.elapsed();
    let snapshot = service.shutdown();
    Cell {
        offered,
        completed: snapshot.completed,
        rejected,
        p50_us: snapshot.p50_us,
        p95_us: snapshot.p95_us,
        p99_us: snapshot.p99_us,
        mean_batch: snapshot.mean_batch_size(),
        throughput: snapshot.completed as f64 / elapsed.as_secs_f64(),
        mac_reduction: snapshot.counters.mac_reduction(),
    }
}

fn main() {
    let window = Duration::from_millis(600);
    let mut table = Table::new(
        "serve_latency: arrival rate × micro-batch size (0.6s windows, demo net)",
        &[
            "batch", "rate/s", "offered", "done", "rej", "p50µs", "p95µs", "p99µs", "mean_b",
            "req/s", "MACx",
        ],
    );
    for batch in [1usize, 4, 16] {
        for rate in [100.0f64, 400.0, 1600.0] {
            let cell = run_cell(rate, batch, window, 1);
            table.row(&[
                batch.to_string(),
                format!("{rate:.0}"),
                cell.offered.to_string(),
                cell.completed.to_string(),
                cell.rejected.to_string(),
                cell.p50_us.to_string(),
                cell.p95_us.to_string(),
                cell.p99_us.to_string(),
                format!("{:.2}", cell.mean_batch),
                format!("{:.1}", cell.throughput),
                format!("{:.2}", cell.mac_reduction),
            ]);
        }
    }
    print!("{}", table.render());
}
