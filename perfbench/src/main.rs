//! `tfe-perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) measures one workload for `--seconds`
//! and reports its end-to-end metrics. A traced run (`--trace 1`) sweeps
//! every workload, whichever `--workload` names, with spans around the
//! benchmark's calls into each layer, and reports the per-layer metrics,
//! the per-stage table and each workload's tracing overhead. Either way
//! every output is checked bit for bit, and the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! The end-to-end metrics are `ref_cpu_ms_per_item`, the process CPU
//! time per image (the median over batches) or per request (over the
//! window); `setup_s`, the process CPU time of one set-up, the median of
//! several; and `peak_rss_mb`. Both CPU times are rescaled by the
//! host-speed probe (`probe.rs`) to a reference host, so co-tenants that
//! slow the vCPUs move them far less than they move raw CPU time.
//!
//! Only public entry points are called: `Engine::{compile, run,
//! run_batched, exec_modes}`, `NetworkPerf::of_engine`,
//! `FunctionalNetwork::new`, `tfe_fleet::{Fleet, FleetClient, demo}`,
//! `TcpServer::bind` and `protocol::{roundtrip, WireRequest,
//! WireResponse}`.

mod check;
mod inputs;
mod probe;
mod serving;
mod stats;
mod trace;
mod traced;
mod trunk;

use check::Tally;
use inputs::Scheme;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{SpanId, Tracer};

/// The workloads. `BENCHMARK.json` lists all but `tcp-closed`: on a
/// small shared host its closed loop of thread hand-offs follows the
/// hypervisor's vCPU wake-up delay more than the program, so it runs in
/// the traced sweep (per-layer metrics) and by hand, not as a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Trunk(Scheme),
    FleetOpen,
    TcpClosed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Trunk(Scheme::Dense),
        Workload::Trunk(Scheme::Scnn),
        Workload::Trunk(Scheme::Dcnn4),
        Workload::FleetOpen,
        Workload::TcpClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Trunk(Scheme::Dense) => "trunk-b8-dense",
            Workload::Trunk(Scheme::Scnn) => "trunk-b8-scnn",
            Workload::Trunk(Scheme::Dcnn4) => "trunk-b8-dcnn4",
            Workload::FleetOpen => "fleet-open",
            Workload::TcpClosed => "tcp-closed",
        }
    }
}

/// The end-to-end view of one workload run. For a trunk workload an
/// item is an image and its latency is its batch's wall time; for a
/// serving workload an item is a request.
pub struct EndToEnd {
    /// Items completed per second.
    pub throughput: f64,
    /// Process CPU time (user + system, all threads, the probe's
    /// excepted) per item over the window, ms.
    pub cpu_ms_per_item: f64,
    /// The same rescaled by the host-speed probe to the reference host.
    pub ref_cpu_ms_per_item: f64,
    /// One latency sample per attempted item (misses included), ms.
    pub latency_ms: Vec<f64>,
    /// Process CPU seconds of each set-up repetition, rescaled to the
    /// reference host by a probe burst run just before it.
    pub setup_s: Vec<f64>,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run prints: its checks and its metrics.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: tfe-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or(format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Runs one workload untraced and reports its end-to-end metrics.
fn untraced(args: &Args, workers: usize) -> Result<Report, String> {
    let window = Duration::from_secs(args.seconds);
    let (e2e, tally) = match args.workload {
        Workload::Trunk(scheme) => trunk::run(scheme, args.seed, window, workers)?,
        serve => {
            let served = serving::Served::new(args.seed, workers)?;
            let mut off = Tracer::new(false, Instant::now());
            let run = if serve == Workload::FleetOpen {
                serving::fleet_open(
                    &served,
                    args.seed,
                    window,
                    serving::SETUP_REPS,
                    &mut off,
                    SpanId::NONE,
                )?
            } else {
                serving::tcp_closed(
                    &served,
                    args.seed,
                    window,
                    serving::SETUP_REPS,
                    &mut off,
                    SpanId::NONE,
                )?
            };
            let snap = &run.snapshot;
            println!(
                "# batcher: {:.4} requests per batch",
                snap.batched_requests as f64 / snap.batches.max(1) as f64
            );
            (run.e2e, run.tally)
        }
    };
    // Wall-clock figures are printed, not reported: on a small shared
    // host they follow the hypervisor's steal and vCPU wake-up delay more
    // than the program, so the bounded metrics are CPU time and memory,
    // and wall-clock latency and throughput are per-layer metrics of the
    // traced run. CPU time is reported rescaled by the host-speed probe
    // (`probe.rs`), since co-tenants move it too.
    let q = |p| stats::quantile(&e2e.latency_ms, p).unwrap_or(f64::NAN);
    println!(
        "# wall clock: {:.4} items/s; latency over {} items p50 {:.3} ms, p99 {:.3} ms",
        e2e.throughput,
        e2e.latency_ms.len(),
        q(0.5),
        q(0.99),
    );
    println!(
        "# cpu: {:.6} ms per item on this host, {:.6} ms on the reference host",
        e2e.cpu_ms_per_item, e2e.ref_cpu_ms_per_item
    );
    println!("# set-up repeated {} times", e2e.setup_s.len());
    Ok(Report {
        tally,
        metrics: vec![
            Metric::new("ref_cpu_ms_per_item", e2e.ref_cpu_ms_per_item, "ms"),
            Metric::new(
                "setup_s",
                stats::median(&e2e.setup_s).ok_or("no set-up sample")?,
                "s",
            ),
            Metric::new(
                "peak_rss_mb",
                stats::peak_rss_mib().map_err(|e| format!("cannot read peak RSS: {e}"))?,
                "MiB",
            ),
        ],
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.tally.correct, report.tally.attempted, report.tally.failed
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tfe-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal = stats::StealMeter::start();
    let report = if args.trace {
        traced::run(args.seed, args.seconds, workers)
    } else {
        untraced(&args, workers)
    };
    let line = report.and_then(|r| result_json(&r).map(|line| (r, line)));
    let (report, line) = match line {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("tfe-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# run: rev {} nproc {workers} workload {} seed {} seconds {} trace {} steal {}",
        stats::git_rev(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        steal
            .share()
            .map_or_else(|| "unknown".to_owned(), |s| format!("{:.1}%", s * 100.0)),
    );
    println!(
        "# checks: correct {} attempted {} failed {}",
        report.tally.correct, report.tally.attempted, report.tally.failed
    );
    for m in &report.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
    if report.tally.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("tfe-perfbench: an output differed from its expected value");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn args_parse_every_workload_and_reject_junk() {
        for w in Workload::ALL {
            let args = parse(&format!(
                "--workload {} --seed 3 --seconds 10 --trace 1",
                w.name()
            ))
            .unwrap();
            assert_eq!(args.workload, w);
            assert!(args.trace && args.seed == 3 && args.seconds == 10);
        }
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload fleet-open --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload fleet-open --seed 1 --trace 0").is_err());
        assert!(parse("--workload fleet-open --seed -1 --seconds 1 --trace 0").is_err());
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let report = Report {
            tally: Tally {
                attempted: 5,
                failed: 1,
                correct: true,
            },
            metrics: vec![
                Metric::new("p50_ms", 1.25, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
        };
        assert_eq!(
            result_json(&report).unwrap(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let bad = Report {
            tally: Tally::default(),
            metrics: vec![Metric::new("x", f64::NAN, "ms")],
        };
        assert!(result_json(&bad).is_err());
    }
}
