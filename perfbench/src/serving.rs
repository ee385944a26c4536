//! The serving workloads, both against one in-process `Fleet` of three
//! `tfe_fleet::demo` models under the default `ServeConfig`:
//!
//! * `fleet-open` — open loop: Poisson arrivals at a fixed rate from one
//!   generator thread, replies collected by one waiter thread, and a
//!   hot-swap of `demo` between two seeded networks every 5 s, off the
//!   arrival schedule. The request path (router, admission queue,
//!   batcher, executors, pack/split) does most of the work.
//! * `tcp-closed` — closed loop: two client threads, each holding one
//!   loopback connection to a `TcpServer` in front of the fleet and
//!   sending its next `infer` frame as soon as the reply arrives. Two
//!   waiting callers never build a queue, so micro-batches hold one or
//!   two requests; `protocol` and `tcp` run only here.

use crate::check::{self, Tally};
use crate::inputs::{self, Arrival, Rng, POOL_IMAGES};
use crate::probe;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::EndToEnd;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use tfe_fleet::{demo, Fleet, FleetClient, FleetSnapshot};
use tfe_serve::protocol::{self, WireRequest, WireResponse};
use tfe_serve::TcpServer;
use tfe_sim::counters::Counters;
use tfe_sim::engine::{Engine, Scratch};
use tfe_sim::network::{FunctionalNetwork, NetworkOutput};
use tfe_tensor::fixed::Fx16;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;

/// The served models, in registry order: SCNN, EIE-style sparse, and
/// depthwise + pointwise dense.
pub const MODELS: [&str; 3] = ["demo", "alexnet-p90", "mobilenet-mini"];
/// Open-loop traffic share of each model.
const MODEL_WEIGHTS: [usize; 3] = [2, 1, 1];
/// Open-loop arrival rate, requests per second: about a fifth of what
/// this mix sustains on two cores, so the run measures queueing and
/// batching rather than overload.
const RATE: f64 = 1000.0;
/// Hot-swap period of `demo` in `fleet-open` (halved for shorter windows
/// so every window swaps at least once).
const SWAP_PERIOD: Duration = Duration::from_secs(5);
/// Client threads (one connection each) in `tcp-closed`.
const CLIENTS: usize = 2;
/// Set-up repetitions behind the reported (median) set-up time.
pub const SETUP_REPS: usize = 25;
/// Requests per model served, checked but untimed, before a window.
const WARM_UP: usize = 8;

/// The served networks, the seeded image pool, and every image's
/// expected output under every network.
pub struct Served {
    fleet_seed: u32,
    /// `MODELS` in order, then the second `demo` generation swapped in.
    nets: Vec<FunctionalNetwork>,
    pub images: Vec<Tensor4<Fx16>>,
    /// `expected[net][image]`, `net` indexing `nets`.
    pub expected: Vec<Vec<NetworkOutput>>,
}

/// Index in [`Served::nets`] of the second `demo` generation.
const DEMO_SWAP: usize = MODELS.len();

impl Served {
    pub fn new(seed: u64, workers: usize) -> Result<Served, String> {
        let mut rng = Rng::new(seed, "serve-models");
        let (fleet_seed, swap_seed) = (rng.seed32(), rng.seed32());
        let model =
            |id: &str, s: u32| demo::demo_model(id, s).ok_or(format!("unknown demo model {id}"));
        let mut nets = MODELS
            .iter()
            .map(|id| model(id, fleet_seed))
            .collect::<Result<Vec<_>, _>>()?;
        nets.push(model("demo", swap_seed)?);
        let images = inputs::serve_images(seed);
        let expected = nets
            .iter()
            .map(|net| {
                let engine = Engine::compile(net, ReuseConfig::FULL).map_err(|e| e.to_string())?;
                check::expected_outputs(&engine, &images, workers)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Served {
            fleet_seed,
            nets,
            images,
            expected,
        })
    }

    /// Whether a reply for `(model, image)` is bit-identical to the
    /// expected output; a `demo` reply may match either generation.
    fn matches(
        &self,
        model: usize,
        image: usize,
        activations: &[Fx16],
        counters: &Counters,
    ) -> bool {
        check::same(activations, counters, &self.expected[model][image])
            || (model == 0 && check::same(activations, counters, &self.expected[DEMO_SWAP][image]))
    }

    /// Starts the fleet (and, with `tcp`, a loopback `TcpServer` in
    /// front of it) `reps` times, returning each start's process CPU
    /// seconds rescaled by a probe burst run just before it; only the
    /// last one is kept running.
    fn start(
        &self,
        reps: usize,
        tcp: bool,
    ) -> Result<(Fleet, Option<TcpServer>, Vec<f64>), String> {
        let mut setup = Vec::with_capacity(reps);
        let mut live: Option<(Fleet, Option<TcpServer>)> = None;
        for _ in 0..reps.max(1) {
            if let Some((fleet, server)) = live.take() {
                drop(server);
                drop(fleet.shutdown());
            }
            let spec = demo::demo_fleet(&MODELS, self.fleet_seed).ok_or("unknown demo model")?;
            let scale = probe::burst(probe::BURST_UNITS)?.scale()?;
            let cpu = stats::process_cpu_seconds()?;
            let fleet = Fleet::start(spec).map_err(|e| format!("fleet start failed: {e}"))?;
            let server = if tcp {
                Some(
                    TcpServer::bind("127.0.0.1:0", fleet.client())
                        .map_err(|e| format!("bind failed: {e}"))?,
                )
            } else {
                None
            };
            setup.push((stats::process_cpu_seconds()? - cpu) * scale);
            live = Some((fleet, server));
        }
        let (fleet, server) = live.expect("at least one start ran");
        Ok((fleet, server, setup))
    }

    /// Serves [`WARM_UP`] checked requests per model in process, so
    /// lazily grown buffers and cold caches are not in the window.
    fn warm_up(&self, client: &FleetClient) -> Tally {
        let mut tally = Tally::default();
        for (model, id) in MODELS.iter().enumerate() {
            for image in 0..WARM_UP {
                tally.attempted += 1;
                let reply = client
                    .submit(Some(id), self.images[image].clone(), None)
                    .and_then(|ticket| ticket.wait());
                match reply {
                    Ok(r) => {
                        tally.correct &=
                            self.matches(model, image, r.activations.as_slice(), &r.counters)
                    }
                    Err(_) => tally.failed += 1,
                }
            }
        }
        tally
    }
}

/// What a serving run measured beyond its end-to-end metrics.
pub struct ServeRun {
    pub e2e: EndToEnd,
    pub tally: Tally,
    /// Server-side latency of each completed request, ms.
    pub server_ms: Vec<f64>,
    /// Generator lag (send − due) of each open-loop request, ms.
    pub lag_ms: Vec<f64>,
    /// Client round trip − server latency of each TCP request, ms.
    pub tcp_overhead_ms: Vec<f64>,
    /// The fleet's accounting at shutdown.
    pub snapshot: FleetSnapshot,
}

/// Per-request results gathered on the client side.
#[derive(Default)]
struct Collected {
    tally: Tally,
    completed: u64,
    latency_ms: Vec<f64>,
    server_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    tcp_overhead_ms: Vec<f64>,
    /// Offset from the window start of the last reply.
    last_reply: Duration,
}

impl Collected {
    fn merge(&mut self, other: Collected) {
        self.tally.add(other.tally);
        self.completed += other.completed;
        self.latency_ms.extend(other.latency_ms);
        self.server_ms.extend(other.server_ms);
        self.lag_ms.extend(other.lag_ms);
        self.tcp_overhead_ms.extend(other.tcp_overhead_ms);
        self.last_reply = self.last_reply.max(other.last_reply);
    }

    /// A refused, expired or failed request: it counts against every
    /// latency limit, so it is recorded at the window length.
    fn miss(&mut self, window: Duration) {
        self.tally.failed += 1;
        self.latency_ms.push(ms(window));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Folds client-side results into a run report. CPU covers the whole
/// process (server and benchmark client) over the window, the probe's
/// own excepted.
fn finish(
    mut c: Collected,
    warm_up: Tally,
    cpu_s: f64,
    reading: &probe::Reading,
    setup_s: Vec<f64>,
    snapshot: FleetSnapshot,
) -> Result<ServeRun, String> {
    if c.completed == 0 {
        return Err("no request completed".to_owned());
    }
    c.tally.add(warm_up);
    let cpu_ms_per_item = (cpu_s - reading.thread_cpu_s) * 1e3 / c.completed as f64;
    Ok(ServeRun {
        e2e: EndToEnd {
            throughput: c.completed as f64 / c.last_reply.as_secs_f64(),
            cpu_ms_per_item,
            ref_cpu_ms_per_item: cpu_ms_per_item * reading.scale()?,
            latency_ms: c.latency_ms,
            setup_s,
        },
        tally: c.tally,
        server_ms: c.server_ms,
        lag_ms: c.lag_ms,
        tcp_overhead_ms: c.tcp_overhead_ms,
        snapshot,
    })
}

/// The open-loop workload over `window`. Latency runs from each
/// request's due time: generator lag plus the reply's
/// admission-to-completion latency.
pub fn fleet_open(
    served: &Served,
    seed: u64,
    window: Duration,
    setup_reps: usize,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<ServeRun, String> {
    let (fleet, _, setup_s) = served.start(setup_reps, false)?;
    let warm_up = served.warm_up(&fleet.client());
    let schedule = inputs::arrivals(seed, RATE, window, &MODEL_WEIGHTS);
    let period = SWAP_PERIOD.min(window / 2);
    let client = fleet.client();
    let cpu0 = stats::process_cpu_seconds()?;
    let (window_run, reading) = probe::alongside(|| {
        let origin = Instant::now();
        thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<(Arrival, Duration, _)>();
            let mut gen_tracer = tracer.fork();
            let generator = s.spawn(move || {
                for &a in &schedule {
                    let due = origin + a.due;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        thread::sleep(wait);
                    }
                    let lag = Instant::now().saturating_duration_since(due);
                    let image = served.images[a.image].clone();
                    let ticket = gen_tracer.span("fleet/submit", SpanId::NONE, || {
                        client.submit(Some(MODELS[a.model]), image, None)
                    });
                    if tx.send((a, lag, ticket)).is_err() {
                        break;
                    }
                }
                gen_tracer
            });
            let waiter = s.spawn(move || {
                let mut c = Collected::default();
                for (a, lag, ticket) in rx {
                    c.tally.attempted += 1;
                    match ticket.and_then(|t| t.wait()) {
                        Ok(reply) => {
                            c.last_reply = origin.elapsed();
                            c.completed += 1;
                            c.tally.correct &= served.matches(
                                a.model,
                                a.image,
                                reply.activations.as_slice(),
                                &reply.counters,
                            );
                            c.latency_ms.push(ms(lag + reply.latency));
                            c.server_ms.push(ms(reply.latency));
                            c.lag_ms.push(ms(lag));
                        }
                        Err(_) => c.miss(window),
                    }
                }
                c
            });
            let mut swap_result = Ok(());
            for k in 1u32.. {
                let at = period * k;
                if at >= window || swap_result.is_err() {
                    break;
                }
                if let Some(wait) = (origin + at).checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let net = &served.nets[if k % 2 == 1 { DEMO_SWAP } else { 0 }];
                swap_result = tracer.span("fleet/swap", parent, || fleet.hot_swap("demo", net));
            }
            let generator = generator.join().expect("generator thread panicked");
            let collected = waiter.join().expect("waiter thread panicked");
            swap_result
                .map(|()| (collected, generator))
                .map_err(|e| format!("hot swap failed: {e}"))
        })
    })?;
    let (collected, generator) = window_run?;
    let cpu_s = stats::process_cpu_seconds()? - cpu0;
    tracer.absorb(generator, parent);
    finish(
        collected,
        warm_up,
        cpu_s,
        &reading,
        setup_s,
        fleet.shutdown(),
    )
}

/// The closed-loop TCP workload over `window`: each client sends its
/// next request as soon as the previous reply arrives; latency is the
/// client's own round-trip clock.
pub fn tcp_closed(
    served: &Served,
    seed: u64,
    window: Duration,
    setup_reps: usize,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<ServeRun, String> {
    let (fleet, server, setup_s) = served.start(setup_reps, true)?;
    let server = server.expect("tcp start binds a server");
    let warm_up = served.warm_up(&fleet.client());
    let streams = (0..CLIENTS)
        .map(|_| {
            let stream = TcpStream::connect(server.local_addr())?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect failed: {e}"))?;
    let cpu0 = stats::process_cpu_seconds()?;
    let (results, reading) = probe::alongside(|| {
        let origin = Instant::now();
        thread::scope(|s| {
            let handles: Vec<_> = streams
                .into_iter()
                .enumerate()
                .map(|(client, mut stream)| {
                    let mut t = tracer.fork();
                    s.spawn(move || {
                        let mut rng = Rng::new(seed, &format!("tcp-client-{client}"));
                        let mut c = Collected::default();
                        for i in client.. {
                            if origin.elapsed() >= window {
                                break;
                            }
                            let model = i % MODELS.len();
                            let image = rng.below(POOL_IMAGES);
                            let request = WireRequest::Infer {
                                input: served.images[image].clone(),
                                deadline_ms: None,
                                model_id: Some(MODELS[model].to_owned()),
                            };
                            c.tally.attempted += 1;
                            let sent = Instant::now();
                            let response = t.span("tcp/roundtrip", SpanId::NONE, || {
                                protocol::roundtrip(&mut stream, &request)
                            });
                            let rtt = sent.elapsed();
                            match response {
                                Ok(WireResponse::Ok {
                                    activations,
                                    counters,
                                    latency_us,
                                }) => {
                                    c.last_reply = origin.elapsed();
                                    c.completed += 1;
                                    c.tally.correct &= served.matches(
                                        model,
                                        image,
                                        activations.as_slice(),
                                        &counters,
                                    );
                                    let server = Duration::from_micros(latency_us);
                                    c.latency_ms.push(ms(rtt));
                                    c.server_ms.push(ms(server));
                                    c.tcp_overhead_ms.push(ms(rtt.saturating_sub(server)));
                                }
                                _ => c.miss(window),
                            }
                        }
                        (c, t)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tcp client thread panicked"))
                .collect::<Vec<(Collected, Tracer)>>()
        })
    })?;
    let cpu_s = stats::process_cpu_seconds()? - cpu0;
    let mut collected = Collected::default();
    for (c, t) in results {
        collected.merge(c);
        tracer.absorb(t, parent);
    }
    server.shutdown();
    finish(
        collected,
        warm_up,
        cpu_s,
        &reading,
        setup_s,
        fleet.shutdown(),
    )
}

/// Repetitions of each timed probe call.
const PROBE_REPS: usize = 200;

/// A lone `Engine::run_batched` at batch 1 on each served network (the
/// lowest rung of the serving ladder), with a span per call.
pub fn lone_runs(
    served: &Served,
    workers: usize,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    for (m, id) in MODELS.iter().enumerate() {
        let engine =
            Engine::compile(&served.nets[m], ReuseConfig::FULL).map_err(|e| e.to_string())?;
        let mut scratch = Scratch::new();
        for rep in 0..PROBE_REPS {
            let image = rep % POOL_IMAGES;
            let run = tracer.span(format!("engine/run/{id}"), parent, || {
                engine.run_batched(&served.images[image], &mut scratch, workers)
            });
            tally.attempted += 1;
            match run {
                Ok(r) => {
                    tally.correct &= check::same_batch(
                        &r.activations,
                        &r.per_image,
                        &served.expected[m][image..=image],
                    )
                }
                Err(_) => tally.failed += 1,
            }
        }
    }
    Ok(tally)
}

/// Wire sizes of one request and one response frame (4-byte length
/// prefix plus JSON payload).
pub struct FrameBytes {
    pub request: usize,
    pub response: usize,
}

/// Times `to_json` / `from_json` on a `WireRequest` and a `WireResponse`
/// built from the workload's own tensors, with a span per call, and
/// checks both round trips are lossless.
pub fn protocol_probe(
    served: &Served,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(FrameBytes, Tally), String> {
    let expected = &served.expected[0][0];
    let request = WireRequest::Infer {
        input: served.images[0].clone(),
        deadline_ms: None,
        model_id: Some(MODELS[0].to_owned()),
    };
    let response = WireResponse::Ok {
        activations: expected.activations.clone(),
        counters: expected.counters,
        latency_us: 1_000,
    };
    let mut tally = Tally::default();
    let (mut request_json, mut response_json) = (String::new(), String::new());
    for _ in 0..PROBE_REPS {
        request_json = tracer.span("protocol/encode/request", parent, || {
            black_box(&request).to_json()
        });
        response_json = tracer.span("protocol/encode/response", parent, || {
            black_box(&response).to_json()
        });
        let req = tracer.span("protocol/decode/request", parent, || {
            WireRequest::from_json(black_box(&request_json))
        });
        let resp = tracer.span("protocol/decode/response", parent, || {
            WireResponse::from_json(black_box(&response_json))
        });
        tally.attempted += 1;
        tally.correct &= matches!(req, Ok(ref r) if *r == request);
        tally.correct &= matches!(
            resp,
            Ok(WireResponse::Ok { ref activations, counters, latency_us: 1_000 })
                if check::same(activations.as_slice(), &counters, expected)
        );
    }
    Ok((
        FrameBytes {
            request: 4 + request_json.len(),
            response: 4 + response_json.len(),
        },
        tally,
    ))
}
