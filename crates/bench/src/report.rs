//! The persistent perf trajectory: machine-readable bench results in
//! `BENCH_<pr>.json` at the repository root.
//!
//! Every acceptance bench (`engine_speedup`, `ppsr_row`,
//! `fleet_router`) records its
//! min-of-reps throughput cells here, so performance PRs leave a
//! comparable artifact behind instead of anecdotal log lines. The file
//! is an upsert target: each bench merges its cells by `(bench, cell)`
//! key, so running the benches in any order or re-running one of them
//! converges to the same content (modulo the timings themselves).
//!
//! Schema (`tfe-bench-trajectory/v1`):
//!
//! ```json
//! {
//!   "schema": "tfe-bench-trajectory/v1",
//!   "pr": 7,
//!   "cells": [
//!     {
//!       "bench": "ppsr_row",
//!       "cell": "conventional_k3_w226",
//!       "baseline": "scalar",
//!       "baseline_ips": 1234.5,
//!       "current_ips": 2469.0,
//!       "speedup": 2.0,
//!       "reps": 9,
//!       "rounds": 64
//!     }
//!   ]
//! }
//! ```
//!
//! `*_ips` values are iterations/second from interleaved best-of-reps
//! timing (see [`crate::timing`]): higher is better, and `speedup =
//! current_ips / baseline_ips` is the pinned acceptance ratio.
//!
//! An unpinned bench that records an absolute time rather than a ratio
//! (`stage_probe`'s per-stage medians) writes [`BenchCell::absolute`]
//! cells: baseline `"absolute"`, both rates `1000 / ms` runs per second
//! and `speedup` 1, so the median's milliseconds are `1000 /
//! current_ips`.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The PR index this trajectory file belongs to (names the file).
pub const TRAJECTORY_PR: u64 = 13;

/// The schema tag written into (and expected from) the report file.
pub const SCHEMA: &str = "tfe-bench-trajectory/v1";

/// One timed comparison: a current implementation against its pinned
/// baseline, both as min-of-reps throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCell {
    /// The bench binary that produced the cell (`engine_speedup`,
    /// `ppsr_row`).
    pub bench: String,
    /// The workload within the bench (e.g. `conventional_k3_w226`).
    pub cell: String,
    /// What the baseline side is (`scalar`, `cold`, `engine`).
    pub baseline: String,
    /// Baseline throughput, iterations/second (best of `reps`).
    pub baseline_ips: f64,
    /// Current-implementation throughput, iterations/second.
    pub current_ips: f64,
    /// `current_ips / baseline_ips` — the pinned acceptance ratio.
    pub speedup: f64,
    /// Repetitions the minimum was taken over.
    pub reps: u64,
    /// Timed iterations per repetition.
    pub rounds: u64,
}

impl BenchCell {
    /// An absolute cell: the median of `runs` single runs, `ms`
    /// milliseconds each, recorded as `1000 / ms` runs per second on both
    /// sides with `speedup` 1 (no baseline, no pin).
    #[must_use]
    pub fn absolute(bench: &str, cell: &str, ms: f64, runs: usize) -> Self {
        let ips = 1e3 / ms;
        BenchCell {
            bench: bench.to_owned(),
            cell: cell.to_owned(),
            baseline: "absolute".to_owned(),
            baseline_ips: ips,
            current_ips: ips,
            speedup: 1.0,
            reps: runs as u64,
            rounds: 1,
        }
    }
}

/// The whole trajectory file: schema tag, PR index, and the cell list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Always [`TRAJECTORY_PR`].
    pub pr: u64,
    /// The recorded cells, in first-recorded order.
    pub cells: Vec<BenchCell>,
}

impl Default for BenchReport {
    fn default() -> Self {
        BenchReport {
            schema: SCHEMA.to_owned(),
            pr: TRAJECTORY_PR,
            cells: Vec::new(),
        }
    }
}

impl BenchReport {
    /// The trajectory file location: `BENCH_<pr>.json` at the repo root,
    /// resolved relative to this crate so the benches can run from any
    /// working directory. The crate's directory is read when the bench
    /// runs (`CARGO_MANIFEST_DIR`, which `cargo bench` sets), falling
    /// back to where the crate was compiled: a copy of the repository
    /// whose bench binaries were built in another checkout's target
    /// directory still writes its own file.
    #[must_use]
    pub fn path() -> PathBuf {
        let dir = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
        Self::path_in(&dir)
    }

    /// The trajectory file of the repository whose bench crate is at
    /// `manifest_dir`.
    fn path_in(manifest_dir: &Path) -> PathBuf {
        manifest_dir.join(format!("../../BENCH_{TRAJECTORY_PR}.json"))
    }

    /// Loads the existing report, or starts a fresh one when the file is
    /// missing or unreadable (a stale/foreign file is replaced rather
    /// than appended to).
    #[must_use]
    pub fn load_or_new() -> Self {
        let Ok(text) = fs::read_to_string(Self::path()) else {
            return BenchReport::default();
        };
        match serde_json::from_str::<BenchReport>(&text) {
            Ok(report) if report.schema == SCHEMA => report,
            _ => BenchReport::default(),
        }
    }

    /// Inserts or replaces the cell with the same `(bench, cell)` key.
    pub fn upsert(&mut self, cell: BenchCell) {
        match self
            .cells
            .iter_mut()
            .find(|c| c.bench == cell.bench && c.cell == cell.cell)
        {
            Some(slot) => *slot = cell,
            None => self.cells.push(cell),
        }
    }

    /// Writes the report back to [`BenchReport::path`], pretty-printed
    /// with a trailing newline.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; serialization itself cannot fail
    /// for this shape.
    pub fn save(&self) -> io::Result<()> {
        let text = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(Self::path(), text + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(bench: &str, name: &str, speedup: f64) -> BenchCell {
        BenchCell {
            bench: bench.to_owned(),
            cell: name.to_owned(),
            baseline: "scalar".to_owned(),
            baseline_ips: 100.0,
            current_ips: 100.0 * speedup,
            speedup,
            reps: 9,
            rounds: 64,
        }
    }

    #[test]
    fn upsert_replaces_by_key_and_appends_new() {
        let mut report = BenchReport::default();
        report.upsert(cell("ppsr_row", "a", 1.0));
        report.upsert(cell("ppsr_row", "b", 2.0));
        report.upsert(cell("ppsr_row", "a", 3.0));
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].speedup, 3.0);
        assert_eq!(report.cells[1].cell, "b");
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::default();
        report.upsert(cell("engine_speedup", "dcnn4", 2.5));
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn path_names_the_pr_trajectory_file() {
        let path = BenchReport::path();
        assert!(path.ends_with(format!("BENCH_{TRAJECTORY_PR}.json")));
    }

    /// The file sits two levels above whichever bench crate directory
    /// the resolver is given, not the one the crate compiled in.
    #[test]
    fn path_resolves_from_the_given_crate_directory() {
        let copy = Path::new("/work/copy/crates/bench");
        assert_eq!(
            BenchReport::path_in(copy),
            Path::new(&format!(
                "/work/copy/crates/bench/../../BENCH_{TRAJECTORY_PR}.json"
            ))
        );
        assert_ne!(
            BenchReport::path_in(copy),
            BenchReport::path_in(Path::new(env!("CARGO_MANIFEST_DIR")))
        );
    }
}
