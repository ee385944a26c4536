//! `tfe-loadgen` — open-loop load generator for the serving stack.
//!
//! Drives a [`tfe_fleet::Fleet`] (in-process, fully offline) with
//! Poisson-ish arrivals: exponential inter-arrival gaps drawn from the
//! vendored `rand` facade under a fixed seed, submitted open-loop — the
//! generator never waits for a response before the next arrival, so
//! overload shows up as queue-full sheds instead of silently throttled
//! offered load.
//!
//! Without `--model` it drives the single classic `"demo"` model —
//! exactly the v1 single-model behavior. Repeatable `--model id[:weight]`
//! flags build a multi-model fleet (ids from the `tfe_nets` zoo, plus
//! `"demo"`) and spread arrivals across the models in proportion to
//! their weights:
//!
//! ```sh
//! cargo run --release -p tfe-fleet --bin tfe-loadgen -- \
//!     --rate 200 --duration 5 --seed 1 \
//!     --model demo:2 --model alexnet:1 --model resnet56:1
//! ```
//!
//! `--batch-hint H` coalesces arrivals client-side into flights of `H`
//! same-model requests submitted back-to-back (the overall request rate
//! stays at `--rate`), feeding the micro-batcher batchable bursts — the
//! filter-stationary batched engine path pays per packed run, so the
//! hint is the client knob that moves the achieved batch size.
//!
//! The report prints fleet-wide p50/p95/p99/max latency, achieved
//! throughput, per-model throughput/shed breakdowns, and a final
//! machine-readable JSON line combining the [`FleetSnapshot`] with
//! per-model offered/achieved rates, the batch hint, and the achieved
//! mean batch size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tfe_fleet::demo::{self, demo_images};
use tfe_fleet::{Fleet, FleetSnapshot};
use tfe_serve::{Rejected, ServeConfig, TelemetrySnapshot};

struct Args {
    rate: f64,
    duration: f64,
    seed: u64,
    batch_size: usize,
    batch_hint: usize,
    delay_us: u64,
    queue: usize,
    executors: usize,
    replicas: usize,
    deadline_ms: Option<u64>,
    models: Vec<(String, f64)>,
    stats: bool,
    stats_interval_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            rate: 200.0,
            duration: 5.0,
            seed: 1,
            batch_size: 8,
            batch_hint: 1,
            delay_us: 2000,
            queue: 256,
            executors: 2,
            replicas: 1,
            deadline_ms: None,
            models: Vec::new(),
            stats: false,
            stats_interval_ms: 1000,
        }
    }
}

const USAGE: &str = "\
tfe-loadgen: open-loop Poisson load generator for the TFE serving fleet

USAGE:
    tfe-loadgen [--rate R] [--duration S] [--seed N] [--batch-size B]
                [--batch-hint H] [--delay-us U] [--queue Q] [--executors E]
                [--replicas P] [--deadline-ms D]
                [--model ID[:W]]... [--stats] [--stats-interval-ms I]

OPTIONS:
    --rate R         offered arrival rate, requests/second   [default: 200]
    --duration S     run length in seconds                   [default: 5]
    --seed N         RNG seed for arrivals and inputs        [default: 1]
    --batch-size B   micro-batch flush size                  [default: 8]
    --batch-hint H   client-side fan-in: coalesce arrivals into flights
                     of H same-model requests submitted back-to-back
                     (the overall request rate stays at --rate); the JSON
                     tally reports the achieved mean batch
                     size                                    [default: 1]
    --delay-us U     micro-batch flush delay, microseconds   [default: 2000]
    --queue Q        request-queue capacity per replica      [default: 256]
    --executors E    executor workers per replica, each running
                     one micro-batch on its own thread       [default: 2]
    --replicas P     replica services per model shard        [default: 1]
    --deadline-ms D  per-request deadline, milliseconds      [default: none]
    --model ID[:W]   serve model ID with arrival weight W (repeatable;
                     ids: 'demo' or any tfe_nets zoo name; the first
                     becomes the default model)              [default: demo:1]
    --stats          poll and print per-model per-layer telemetry tables
                     (latency p50/p95/p99 + reuse ratios) while running
    --stats-interval-ms I
                     telemetry poll period with --stats      [default: 1000]
";

fn parse_to<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value '{value}' for {flag}"))
}

fn parse_model(value: &str) -> Result<(String, f64), String> {
    let (id, weight) = match value.split_once(':') {
        Some((id, w)) => (id, parse_to::<f64>(w, "--model weight")?),
        None => (value, 1.0),
    };
    if id.is_empty() {
        return Err("--model id must be non-empty".to_owned());
    }
    if !weight.is_finite() || weight <= 0.0 {
        return Err(format!("--model {id}: weight must be positive"));
    }
    Ok((id.to_owned(), weight))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        if flag == "--stats" {
            args.stats = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--rate" => args.rate = parse_to(&value, &flag)?,
            "--duration" => args.duration = parse_to(&value, &flag)?,
            "--seed" => args.seed = parse_to(&value, &flag)?,
            "--batch-size" => args.batch_size = parse_to(&value, &flag)?,
            "--batch-hint" => args.batch_hint = parse_to(&value, &flag)?,
            "--delay-us" => args.delay_us = parse_to(&value, &flag)?,
            "--queue" => args.queue = parse_to(&value, &flag)?,
            "--executors" => args.executors = parse_to(&value, &flag)?,
            "--replicas" => args.replicas = parse_to(&value, &flag)?,
            "--deadline-ms" => args.deadline_ms = Some(parse_to(&value, &flag)?),
            "--model" => args.models.push(parse_model(&value)?),
            "--stats-interval-ms" => args.stats_interval_ms = parse_to(&value, &flag)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    // `is_finite` + `<= 0.0` also rejects NaN, which `> 0.0` alone lets
    // through via negation.
    if !args.rate.is_finite() || args.rate <= 0.0 {
        return Err("--rate must be positive".to_owned());
    }
    if !args.duration.is_finite() || args.duration <= 0.0 {
        return Err("--duration must be positive".to_owned());
    }
    if args.stats_interval_ms == 0 {
        return Err("--stats-interval-ms must be positive".to_owned());
    }
    if args.batch_hint == 0 {
        return Err("--batch-hint must be at least 1".to_owned());
    }
    if args.models.is_empty() {
        args.models.push(("demo".to_owned(), 1.0));
    }
    let mut ids: Vec<&str> = args.models.iter().map(|(id, _)| id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != args.models.len() {
        return Err("--model ids must be unique".to_owned());
    }
    Ok(args)
}

/// Prints the two per-layer tables of one model's telemetry poll: stage
/// latency quantiles over the ring window, then reuse effectiveness from
/// the exact cumulative counters.
fn print_telemetry(model: &str, elapsed: Duration, snap: &TelemetrySnapshot) {
    println!();
    println!(
        "[{model}] per-layer telemetry @ {:.1}s ({} samples recorded, {} dropped from the window)",
        elapsed.as_secs_f64(),
        snap.recorded,
        snap.dropped
    );
    println!("  layer  label         runs  p50_us  p95_us  p99_us  max_us");
    for l in &snap.layers {
        println!(
            "  {:<5}  {:<10}  {:>6}  {:>6}  {:>6}  {:>6}  {:>6}",
            l.layer, l.label, l.runs, l.p50_us, l.p95_us, l.p99_us, l.max_us
        );
    }
    println!(
        "  layer  label       mode         mac_red  multiplies  dense_macs  sram/mul  reg/mul"
    );
    for l in &snap.layers {
        let per_mul = |n: u64| n as f64 / l.counters.multiplies.max(1) as f64;
        println!(
            "  {:<5}  {:<10}  {:<11}  {:>7.2}  {:>10}  {:>10}  {:>8.2}  {:>7.2}",
            l.layer,
            l.label,
            if l.mode.is_empty() { "-" } else { &l.mode },
            l.mac_reduction,
            l.counters.multiplies,
            l.counters.dense_macs,
            per_mul(l.counters.sram_accesses()),
            per_mul(l.counters.register_accesses()),
        );
    }
}

fn print_fleet_telemetry(elapsed: Duration, snap: &FleetSnapshot) {
    for model in &snap.models {
        print_telemetry(&model.model, elapsed, &model.telemetry);
    }
}

/// Per-model client-side tally of one run.
#[derive(Default)]
struct Tally {
    offered: u64,
    shed: u64,
    completed: u64,
    expired: u64,
    failed: u64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| format!("{e}\n\n{USAGE}"))?;

    let serve = ServeConfig {
        max_batch_size: args.batch_size,
        max_batch_delay: Duration::from_micros(args.delay_us),
        queue_capacity: args.queue,
        executors: args.executors,
        default_deadline: args.deadline_ms.map(Duration::from_millis),
        ..ServeConfig::default()
    };
    let ids: Vec<&str> = args.models.iter().map(|(id, _)| id.as_str()).collect();
    let mut spec = demo::demo_fleet(&ids, args.seed as u32 ^ 0x5eed)
        .ok_or("--model ids must be 'demo' or tfe_nets zoo names (try --help)")?;
    for model in &mut spec.models {
        model.serve = serve.clone();
        model.replicas = args.replicas;
    }
    let fleet = Fleet::start(spec)?;
    let client = fleet.client();

    let images = demo_images(64, args.seed as u32 ^ 0x1a6e);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let total_weight: f64 = args.models.iter().map(|(_, w)| w).sum();

    println!(
        "offering ~{:.0} req/s for {:.1}s across {} model(s) (seed {}, batch ≤{}, hint {}, delay {}µs, queue {}, {} executor(s), {} replica(s))",
        args.rate,
        args.duration,
        args.models.len(),
        args.seed,
        args.batch_size,
        args.batch_hint,
        args.delay_us,
        args.queue,
        args.executors,
        args.replicas,
    );

    // Client-side fan-in: each Poisson arrival is a *flight* of
    // `batch_hint` same-model requests submitted back-to-back, so the
    // micro-batcher sees them together; the flight rate is scaled down
    // to keep the overall request rate at `--rate`.
    let flight_rate = args.rate / args.batch_hint as f64;

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.duration);
    let stats_interval = Duration::from_millis(args.stats_interval_ms);
    let mut next_stats = start + stats_interval;
    let mut next_arrival = start;
    let mut tallies: Vec<Tally> = args.models.iter().map(|_| Tally::default()).collect();
    let mut tickets = Vec::new();

    loop {
        // Exponential inter-arrival gap: -ln(1 - U) / rate.
        let u: f64 = rng.gen();
        let gap = -(1.0 - u).ln() / flight_rate;
        next_arrival += Duration::from_secs_f64(gap);
        if next_arrival >= end {
            break;
        }
        // Wait out the gap stats-aware: sleep only to the nearer of the
        // next arrival and the next poll, so low --rate runs keep a
        // steady poll cadence instead of lagging up to a full gap and
        // then bursting one poll per arrival to catch up.
        loop {
            let now = Instant::now();
            if args.stats && now >= next_stats {
                print_fleet_telemetry(start.elapsed(), &client.snapshot());
                // Advance monotonically past now; a stall longer than
                // the interval skips the missed polls instead of
                // replaying them back-to-back.
                while next_stats <= Instant::now() {
                    next_stats += stats_interval;
                }
                continue;
            }
            if now >= next_arrival {
                break;
            }
            let wake = if args.stats && next_stats < next_arrival {
                next_stats
            } else {
                next_arrival
            };
            std::thread::sleep(wake - now);
        }
        // Weighted model pick, then an image from the shared pool.
        let mut pick = rng.gen::<f64>() * total_weight;
        let mut model = 0usize;
        for (i, (_, w)) in args.models.iter().enumerate() {
            pick -= w;
            if pick <= 0.0 {
                model = i;
                break;
            }
        }
        // The whole flight targets one model — the fan-in only helps
        // batching when the requests can actually share a micro-batch.
        for _ in 0..args.batch_hint {
            let total_offered: u64 = tallies.iter().map(|t| t.offered).sum();
            let image = images[total_offered as usize % images.len()].clone();
            tallies[model].offered += 1;
            match client.submit(Some(&args.models[model].0), image, None) {
                Ok(ticket) => tickets.push((model, ticket)),
                Err(Rejected::QueueFull { .. }) => tallies[model].shed += 1,
                Err(other) => return Err(other.into()),
            }
        }
    }
    let offered_window = start.elapsed();

    // Open loop is over; now settle every outstanding request.
    for (model, ticket) in tickets {
        match ticket.wait() {
            Ok(_) => tallies[model].completed += 1,
            Err(Rejected::DeadlineExceeded) => tallies[model].expired += 1,
            Err(_) => tallies[model].failed += 1,
        }
    }
    let snapshot = fleet.shutdown();

    let offered: u64 = tallies.iter().map(|t| t.offered).sum();
    let completed: u64 = tallies.iter().map(|t| t.completed).sum();
    let shed: u64 = tallies.iter().map(|t| t.shed).sum();
    let expired: u64 = tallies.iter().map(|t| t.expired).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let window_s = offered_window.as_secs_f64();
    println!();
    println!(
        "offered:     {offered} requests ({:.1} req/s)",
        offered as f64 / window_s
    );
    println!(
        "completed:   {completed} ({:.1} req/s)",
        completed as f64 / window_s
    );
    println!("shed:        {shed} (queue full)");
    println!("expired:     {expired} (deadline)");
    if failed > 0 {
        println!("failed:      {failed}");
    }
    println!(
        "batches:     {} (mean size {:.2})",
        snapshot.batches,
        if snapshot.batches == 0 {
            0.0
        } else {
            snapshot.batched_requests as f64 / snapshot.batches as f64
        }
    );
    println!("latency p50: {} µs", snapshot.p50_us);
    println!("latency p95: {} µs", snapshot.p95_us);
    println!("latency p99: {} µs", snapshot.p99_us);
    println!("latency max: {} µs", snapshot.max_us);
    println!(
        "sim MACs:    {} of {} dense ({:.2}x reduction)",
        snapshot.counters.multiplies,
        snapshot.counters.dense_macs,
        snapshot.counters.mac_reduction()
    );
    println!(
        "sim memory:  {} SRAM word accesses, {} register accesses",
        snapshot.counters.sram_accesses(),
        snapshot.counters.register_accesses()
    );
    println!();
    println!("per-model:   id            offered  completed  ach_rps     shed  expired");
    for ((id, _), tally) in args.models.iter().zip(&tallies) {
        println!(
            "             {:<12}  {:>7}  {:>9}  {:>7.1}  {:>7}  {:>7}",
            id,
            tally.offered,
            tally.completed,
            tally.completed as f64 / window_s,
            tally.shed,
            tally.expired,
        );
    }
    if args.stats {
        print_fleet_telemetry(start.elapsed(), &snapshot);
    }

    // Final machine-readable line: the fleet snapshot plus the client's
    // per-model offered/achieved view.
    use serde::{Serialize, Value};
    let per_model = Value::Array(
        args.models
            .iter()
            .zip(&tallies)
            .map(|((id, weight), tally)| {
                Value::Object(vec![
                    ("model".to_owned(), Value::Str(id.clone())),
                    ("weight".to_owned(), Value::F64(*weight)),
                    ("offered".to_owned(), Value::U64(tally.offered)),
                    ("completed".to_owned(), Value::U64(tally.completed)),
                    (
                        "achieved_rps".to_owned(),
                        Value::F64(tally.completed as f64 / window_s),
                    ),
                    ("shed".to_owned(), Value::U64(tally.shed)),
                    ("expired".to_owned(), Value::U64(tally.expired)),
                    ("failed".to_owned(), Value::U64(tally.failed)),
                ])
            })
            .collect(),
    );
    // The achieved mean batch size is the executors' ground truth
    // (requests per batched run), the number `--batch-hint` exists to
    // move.
    let mean_batch = if snapshot.batches == 0 {
        0.0
    } else {
        snapshot.batched_requests as f64 / snapshot.batches as f64
    };
    let report = Value::Object(vec![
        ("fleet".to_owned(), snapshot.to_value()),
        ("per_model".to_owned(), per_model),
        ("batch_hint".to_owned(), Value::U64(args.batch_hint as u64)),
        ("achieved_mean_batch".to_owned(), Value::F64(mean_batch)),
    ]);
    println!("{}", serde_json::to_string(&report)?);
    Ok(())
}
