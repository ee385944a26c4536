//! The VGG-16 trunk workloads: one client thread runs batches of 8
//! seeded images through `Engine::run_batched`, closed loop, on one
//! engine per weight representation. This is where the engine's
//! executors, row kernels and weight plan do nearly all the work.

use crate::check::{self, Tally};
use crate::inputs::{self, Scheme, TRUNK_BATCH};
use crate::probe;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::EndToEnd;
use std::time::{Duration, Instant};
use tfe_sim::counters::Counters;
use tfe_sim::engine::{Engine, Scratch};
use tfe_sim::network::{FunctionalNetwork, NetworkOutput};
use tfe_sim::perf::{NetworkPerf, PerfConfig};
use tfe_tensor::fixed::Fx16;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::mode::ExecMode;

/// A compiled trunk with its seeded batch and the batch's expected
/// per-image outputs.
struct Prepared {
    net: FunctionalNetwork,
    engine: Engine,
    batch: Tensor4<Fx16>,
    expected: Vec<NetworkOutput>,
}

fn compile(net: &FunctionalNetwork) -> Result<Engine, String> {
    Engine::compile(net, ReuseConfig::FULL).map_err(|e| format!("trunk compile failed: {e}"))
}

/// Builds the trunk, compiles it `reps` times (returning each compile's
/// process CPU seconds, rescaled by a probe burst run just before it;
/// only the last engine is kept), then computes the expected outputs
/// outside the measured set-up.
fn prepare(
    scheme: Scheme,
    seed: u64,
    workers: usize,
    reps: usize,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(Prepared, Vec<f64>), String> {
    let net = inputs::vgg_trunk(scheme, seed);
    let mut setup = Vec::with_capacity(reps);
    let mut engine = None;
    for _ in 0..reps.max(1) {
        drop(engine.take());
        let scale = probe::burst(probe::BURST_UNITS)?.scale()?;
        let cpu = stats::process_cpu_seconds()?;
        engine = Some(
            tracer.span(format!("trunk/{}/compile", scheme.name()), parent, || {
                compile(&net)
            })?,
        );
        setup.push((stats::process_cpu_seconds()? - cpu) * scale);
    }
    let engine = engine.expect("at least one compile ran");
    let batch = inputs::trunk_batch(seed);
    let images: Vec<_> = (0..TRUNK_BATCH).map(|b| check::image(&batch, b)).collect();
    let expected = check::expected_outputs(&engine, &images, workers)?;
    Ok((
        Prepared {
            net,
            engine,
            batch,
            expected,
        },
        setup,
    ))
}

/// When a timed batch ran and what it cost.
struct Timed {
    start: Instant,
    end: Instant,
    /// Process CPU seconds over the batch.
    cpu_s: f64,
}

impl Timed {
    fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One timed batch, its outputs checked into `tally`.
fn timed_batch(
    p: &Prepared,
    scratch: &mut Scratch,
    workers: usize,
    tally: &mut Tally,
) -> Result<Timed, String> {
    let cpu = stats::process_cpu_seconds()?;
    let start = Instant::now();
    let result = p.engine.run_batched(&p.batch, scratch, workers);
    let end = Instant::now();
    let cpu_s = stats::process_cpu_seconds()? - cpu;
    tally.attempted += TRUNK_BATCH as u64;
    match result {
        Ok(run) => {
            tally.correct &= check::same_batch(&run.activations, &run.per_image, &p.expected)
        }
        Err(_) => tally.failed += TRUNK_BATCH as u64,
    }
    Ok(Timed { start, end, cpu_s })
}

/// Set-up repetitions behind the reported (median) set-up time.
const SETUP_REPS: usize = 5;

/// The untraced workload: one checked warm-up batch, then batches back
/// to back until `window` has passed (at least one), with the probe
/// running beside them. Latency is each batch's wall time, which every
/// image of the batch waits; throughput uses the median batch, so one
/// stalled batch does not move it. CPU per image is the process CPU of
/// the whole window less the probe's own; on the reference host it is
/// the median over batches of each batch's CPU, less the probe units
/// that ran during it, rescaled by those units, so a stretch of heavy
/// co-tenant load moves a batch or two, not the result.
pub fn run(
    scheme: Scheme,
    seed: u64,
    window: Duration,
    workers: usize,
) -> Result<(EndToEnd, Tally), String> {
    let mut untraced = Tracer::new(false, Instant::now());
    let (p, setup_s) = prepare(
        scheme,
        seed,
        workers,
        SETUP_REPS,
        &mut untraced,
        SpanId::NONE,
    )?;
    let mut scratch = Scratch::new();
    let mut tally = Tally::default();
    timed_batch(&p, &mut scratch, workers, &mut tally)?;
    let cpu = stats::process_cpu_seconds()?;
    let (batches, reading) = probe::alongside(|| {
        let mut batches = Vec::new();
        let start = Instant::now();
        while batches.is_empty() || start.elapsed() < window {
            batches.push(timed_batch(&p, &mut scratch, workers, &mut tally)?);
        }
        Ok::<_, String>(batches)
    })?;
    let batches = batches?;
    let cpu_s = stats::process_cpu_seconds()? - cpu - reading.thread_cpu_s;
    let ref_cpu_s: Vec<f64> = batches
        .iter()
        .filter_map(|b| {
            let (scale, probe_s) = reading.between(b.start, b.end)?;
            Some((b.cpu_s - probe_s) * scale)
        })
        .collect();
    let walls: Vec<f64> = batches.iter().map(Timed::wall_s).collect();
    let per_image = |s: f64| s * 1e3 / TRUNK_BATCH as f64;
    Ok((
        EndToEnd {
            throughput: TRUNK_BATCH as f64 / stats::median(&walls).expect("a batch ran"),
            cpu_ms_per_item: per_image(cpu_s / batches.len() as f64),
            ref_cpu_ms_per_item: per_image(
                stats::median(&ref_cpu_s).ok_or("no probe unit ended during a batch")?,
            ),
            latency_ms: walls.iter().map(|w| w * 1e3).collect(),
            setup_s,
        },
        tally,
    ))
}

/// What the traced pass over one trunk measured.
pub struct TrunkTrace {
    pub scheme: Scheme,
    pub compile_s: f64,
    /// Full-network batch seconds (traced batch).
    pub batch_s: f64,
    /// `(stage name, seconds)` of each one-stage engine in the chain.
    pub stage_s: Vec<(String, f64)>,
    /// Merged batch counters of each stage, from the chain.
    pub stage_counters: Vec<Counters>,
    pub exec_modes: Vec<ExecMode>,
    /// Modelled cycles per image, per layer (`perf.rs`).
    pub layer_cycles: Vec<u64>,
    pub multiplies_per_img: u64,
    /// CPU seconds of the untraced and traced batches.
    pub cpu_untraced: f64,
    pub cpu_traced: f64,
    pub tally: Tally,
}

/// The traced pass: a span around the compile, one untraced and one
/// traced full-network batch (their difference is the tracing
/// overhead), then the trunk re-run as a chain of 13 one-stage engines
/// over the same stages with a span around each `run_batched` call. The
/// chain's output and summed counters must equal the full network's.
pub fn traced(
    scheme: Scheme,
    seed: u64,
    workers: usize,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<TrunkTrace, String> {
    let name = scheme.name();
    let root = tracer.open(format!("trunk/{name}"), parent);
    let (p, _) = prepare(scheme, seed, workers, 1, tracer, root)?;
    let compile_s = tracer.seconds(&format!("trunk/{name}/compile"))[0];
    let mut tally = Tally::default();
    let mut scratch = Scratch::new();
    let cpu_untraced = timed_batch(&p, &mut scratch, workers, &mut tally)?.cpu_s;
    let batch_id = tracer.open(format!("trunk/{name}/batch"), root);
    let traced_batch = timed_batch(&p, &mut scratch, workers, &mut tally)?;
    tracer.close(batch_id);

    let stages = p
        .net
        .stages()
        .iter()
        .map(|stage| {
            let one = FunctionalNetwork::new(vec![stage.clone()]).map_err(|e| e.to_string())?;
            Ok((stage.shape.name().to_owned(), compile(&one)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut x = p.batch.clone();
    let mut per_image = vec![Counters::new(); TRUNK_BATCH];
    let (mut stage_s, mut stage_counters) = (Vec::new(), Vec::new());
    for (stage, engine) in &stages {
        let span = format!("trunk/{name}/stage/{stage}");
        let run = tracer
            .span(span.as_str(), root, || {
                engine.run_batched(&x, &mut scratch, workers)
            })
            .map_err(|e| format!("chain stage {stage} failed: {e}"))?;
        stage_s.push((
            stage.clone(),
            tracer.seconds(&span).last().copied().unwrap_or(0.0),
        ));
        for (total, c) in per_image.iter_mut().zip(&run.per_image) {
            total.merge(c);
        }
        stage_counters.push(run.counters);
        x = run.activations;
    }
    tally.attempted += TRUNK_BATCH as u64;
    tally.correct &= check::same_batch(&x, &per_image, &p.expected);
    tracer.close(root);

    let perf = NetworkPerf::of_engine(&p.engine, &PerfConfig::default());
    Ok(TrunkTrace {
        scheme,
        compile_s,
        batch_s: traced_batch.wall_s(),
        stage_s,
        stage_counters,
        exec_modes: p.engine.exec_modes(),
        layer_cycles: perf.layers().iter().map(|l| l.cycles()).collect(),
        multiplies_per_img: p.expected[0].counters.multiplies,
        cpu_untraced,
        cpu_traced: traced_batch.cpu_s,
        tally,
    })
}
