//! The traced run: one pass over every workload with spans around the
//! benchmark's calls into each layer, yielding the per-layer metrics,
//! the per-stage table (the software analogue of the paper's Figs. 14
//! and 15), and each workload's tracing overhead, measured as the change
//! in process CPU per item between an untraced and a traced pass over
//! the same inputs.

use crate::check::Tally;
use crate::inputs::{Scheme, TRUNK_BATCH};
use crate::serving::{self, ServeRun, Served, MODELS};
use crate::stats::quantile;
use crate::trace::{SpanId, Tracer};
use crate::trunk::{self, TrunkTrace};
use crate::{Metric, Report, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-cent change from `base` to `traced`.
fn overhead_pct(base: f64, traced: f64) -> f64 {
    (traced / base - 1.0) * 100.0
}

fn q(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    quantile(samples, p).ok_or(format!("no {what} sample"))
}

pub fn run(seed: u64, seconds: u64, workers: usize) -> Result<Report, String> {
    let mut tracer = Tracer::new(true, Instant::now());
    let root = tracer.open("sweep", SpanId::NONE);
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut overhead = Vec::new();

    let mut trunks = Vec::new();
    for scheme in Scheme::ALL {
        let t = trunk::traced(scheme, seed, workers, &mut tracer, root)?;
        tally.add(t.tally);
        overhead.push((
            Workload::Trunk(scheme),
            overhead_pct(t.cpu_untraced, t.cpu_traced),
        ));
        trunks.push(t);
    }
    for t in &trunks {
        let name = t.scheme.name();
        for (stage, s) in &t.stage_s {
            metrics.push(Metric::new(
                format!("engine.stage_ms.{name}.{stage}"),
                s * 1e3,
                "ms",
            ));
        }
    }
    for t in &trunks {
        let name = t.scheme.name();
        let chain: f64 = t.stage_s.iter().map(|(_, s)| s).sum();
        metrics.push(Metric::new(
            format!("engine.chain_gap_ms.{name}"),
            (t.batch_s - chain) * 1e3,
            "ms",
        ));
        metrics.push(Metric::new(
            format!("engine.ips.{name}"),
            TRUNK_BATCH as f64 / t.batch_s,
            "1/s",
        ));
        metrics.push(Metric::new(
            format!("engine.compile_s.{name}"),
            t.compile_s,
            "s",
        ));
        metrics.push(Metric::new(
            format!("counters.multiplies_per_img.{name}"),
            t.multiplies_per_img as f64,
            "count",
        ));
        metrics.push(Metric::new(
            format!("perf.cycles_per_img.{name}"),
            t.layer_cycles.iter().sum::<u64>() as f64,
            "cycles",
        ));
    }

    let served = Served::new(seed, workers)?;
    tally.add(serving::lone_runs(&served, workers, &mut tracer, root)?);
    for id in MODELS {
        let runs = tracer.seconds(&format!("engine/run/{id}"));
        metrics.push(Metric::new(
            format!("engine.run_us.{id}"),
            q(&runs, 0.5, "lone run")? * 1e6,
            "us",
        ));
    }

    // Each serving workload runs untraced, then traced, over the same
    // seeded inputs.
    let segment = Duration::from_secs_f64((seconds as f64 / 4.0).max(1.0));
    let mut off = Tracer::new(false, Instant::now());
    let mut pair = |workload: Workload, tracer: &mut Tracer| -> Result<ServeRun, String> {
        let go = if workload == Workload::FleetOpen {
            serving::fleet_open
        } else {
            serving::tcp_closed
        };
        let base = go(&served, seed, segment, 1, &mut off, SpanId::NONE)?;
        let id = tracer.open(workload.name(), root);
        let run = go(&served, seed, segment, 1, tracer, id)?;
        tracer.close(id);
        tally.add(base.tally);
        tally.add(run.tally);
        overhead.push((
            workload,
            overhead_pct(base.e2e.cpu_ms_per_item, run.e2e.cpu_ms_per_item),
        ));
        Ok(run)
    };
    let fleet = pair(Workload::FleetOpen, &mut tracer)?;
    let tcp = pair(Workload::TcpClosed, &mut tracer)?;

    let submits = tracer.seconds("fleet/submit");
    metrics.push(Metric::new(
        "fleet.submit_us.p50",
        q(&submits, 0.5, "submit")? * 1e6,
        "us",
    ));
    metrics.push(Metric::new(
        "fleet.submit_us.p99",
        q(&submits, 0.99, "submit")? * 1e6,
        "us",
    ));
    for (workload, run) in [(Workload::FleetOpen, &fleet), (Workload::TcpClosed, &tcp)] {
        let w = workload.name();
        let snap = &run.snapshot;
        metrics.push(Metric::new(
            format!("latency.p50_ms.{w}"),
            q(&run.e2e.latency_ms, 0.5, "latency")?,
            "ms",
        ));
        metrics.push(Metric::new(
            format!("latency.p99_ms.{w}"),
            q(&run.e2e.latency_ms, 0.99, "latency")?,
            "ms",
        ));
        metrics.push(Metric::new(
            format!("serve.server_ms.p50.{w}"),
            q(&run.server_ms, 0.5, "server")?,
            "ms",
        ));
        metrics.push(Metric::new(
            format!("serve.server_ms.p99.{w}"),
            q(&run.server_ms, 0.99, "server")?,
            "ms",
        ));
        metrics.push(Metric::new(
            format!("serve.mean_batch.{w}"),
            snap.batched_requests as f64 / snap.batches.max(1) as f64,
            "req/batch",
        ));
        metrics.push(Metric::new(
            format!("serve.shed.{w}"),
            snap.shed as f64,
            "count",
        ));
        metrics.push(Metric::new(
            format!("serve.expired.{w}"),
            snap.expired as f64,
            "count",
        ));
    }
    let swaps = tracer.seconds("fleet/swap");
    metrics.push(Metric::new(
        "fleet.swap_ms",
        q(&swaps, 0.5, "swap")? * 1e3,
        "ms",
    ));
    metrics.push(Metric::new(
        "loadgen.lag_ms.p99",
        q(&fleet.lag_ms, 0.99, "lag")?,
        "ms",
    ));
    metrics.push(Metric::new("tcp.rps", tcp.e2e.throughput, "1/s"));
    metrics.push(Metric::new(
        "tcp.cpu_us_per_req",
        tcp.e2e.cpu_ms_per_item * 1e3,
        "us",
    ));
    metrics.push(Metric::new(
        "tcp.overhead_ms.p50",
        q(&tcp.tcp_overhead_ms, 0.5, "tcp")?,
        "ms",
    ));
    metrics.push(Metric::new(
        "tcp.overhead_ms.p99",
        q(&tcp.tcp_overhead_ms, 0.99, "tcp")?,
        "ms",
    ));

    let (bytes, probe) = serving::protocol_probe(&served, &mut tracer, root)?;
    tally.add(probe);
    for op in ["encode", "decode"] {
        for msg in ["request", "response"] {
            let calls = tracer.seconds(&format!("protocol/{op}/{msg}"));
            metrics.push(Metric::new(
                format!("protocol.{op}_us.{msg}"),
                q(&calls, 0.5, op)? * 1e6,
                "us",
            ));
        }
    }
    metrics.push(Metric::new(
        "protocol.bytes.request",
        bytes.request as f64,
        "bytes",
    ));
    metrics.push(Metric::new(
        "protocol.bytes.response",
        bytes.response as f64,
        "bytes",
    ));
    for (workload, pct) in overhead {
        metrics.push(Metric::new(
            format!("trace.overhead_pct.{}", workload.name()),
            pct,
            "%",
        ));
    }
    tracer.close(root);

    print_stage_table(&trunks);
    let path = Path::new(".perfbench").join(format!("spans-seed{seed}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(Report { tally, metrics })
}

/// Per VGG stage: batch wall time per scheme and the realized speedup
/// over dense, beside the counters' MAC reduction (dense MACs ÷ counted
/// multiplies), `perf.rs`'s modelled share of the network's cycles, and
/// the compiled `ExecMode` of each scheme.
fn print_stage_table(trunks: &[TrunkTrace]) {
    let [dense, scnn, dcnn4] = trunks else {
        return;
    };
    println!("# per-stage table, batch of 8; speedup = dense ms / scheme ms");
    println!(
        "# {:<8} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6}  modes",
        "stage",
        "dense_ms",
        "scnn_ms",
        "dcnn4_ms",
        "x_scnn",
        "x_dcnn4",
        "mac_d",
        "mac_s",
        "mac_d4",
        "cyc%d",
        "cyc%s",
        "cyc%d4"
    );
    let share = |t: &TrunkTrace, i: usize| {
        100.0 * t.layer_cycles[i] as f64 / t.layer_cycles.iter().sum::<u64>().max(1) as f64
    };
    let mac = |t: &TrunkTrace, i: usize| {
        let c = &t.stage_counters[i];
        c.dense_macs as f64 / c.multiplies.max(1) as f64
    };
    for (i, (stage, d)) in dense.stage_s.iter().enumerate() {
        let (s, d4) = (scnn.stage_s[i].1, dcnn4.stage_s[i].1);
        println!(
            "# {:<8} {:>9.2} {:>9.2} {:>9.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>6.1} {:>6.1} {:>6.1}  {}/{}/{}",
            stage,
            d * 1e3,
            s * 1e3,
            d4 * 1e3,
            d / s,
            d / d4,
            mac(dense, i),
            mac(scnn, i),
            mac(dcnn4, i),
            share(dense, i),
            share(scnn, i),
            share(dcnn4, i),
            dense.exec_modes[i],
            scnn.exec_modes[i],
            dcnn4.exec_modes[i],
        );
    }
    let total = |t: &TrunkTrace| t.stage_s.iter().map(|(_, s)| s).sum::<f64>();
    println!(
        "# {:<8} {:>9.2} {:>9.2} {:>9.2} {:>7.2} {:>7.2}",
        "chain",
        total(dense) * 1e3,
        total(scnn) * 1e3,
        total(dcnn4) * 1e3,
        total(dense) / total(scnn),
        total(dense) / total(dcnn4)
    );
}
