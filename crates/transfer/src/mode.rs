//! Execution-mode policy: how a compiled engine chooses between its
//! dense, transferred, and compressed-sparse (EIE-style) run paths.
//!
//! The TFE premise — reuse is a property of the *weights*, computable
//! once at compile time — also covers EIE's compressed-sparse execution
//! of pruned models, one of the comparator families the paper measures
//! against (PAPERS.md). [`ExecMode`] names the executable paths and
//! [`ModePolicy`] the closed choice the engine's compile pass
//! (`tfe_sim::engine`'s `ir::compile_stage`) applies to each dense stage
//! once, from its geometry and one weight statistic, **sparsity**: the
//! fraction of logical filter taps that quantized to exactly zero
//! (magnitude pruning feeds this path via
//! `tfe_baselines::SparseFilterBank::prune`). Compile records the choice
//! in the stage's units, nowhere else.
//!
//! UCNN-style weight-repetition factorization is not an execution mode:
//! once the dense sweep sums a whole channel band per kernel call it
//! beat the factorized executor on every measured cell, so that
//! executor was removed (DESIGN §5.15). UCNN stays covered by the
//! analytic baseline in `tfe-baselines`.
//!
//! The sparse mode is **bit-identical** to the dense path by
//! construction (see the engine's `sparse` module for the exactness
//! argument), so the policy is purely a performance choice — every
//! policy is correct, which is what lets tests force every mode
//! everywhere.

use std::fmt;

/// The execution path one compiled stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Conventional dense row sweeps.
    Dense,
    /// Transferred-filter machinery (DCNN meta rows / SCNN orbits) —
    /// the paper's own reuse structure, chosen by the transfer scheme
    /// rather than by this policy.
    Transferred,
    /// EIE/CSR-style compressed-sparse row streams: only nonzero
    /// weights are stored (index + value) and swept.
    Sparse,
}

impl ExecMode {
    /// Stable lowercase label, used by telemetry rows and stats tables.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Dense => "dense",
            ExecMode::Transferred => "transferred",
            ExecMode::Sparse => "sparse",
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The zero-tap fraction from which [`ModePolicy::Measured`] runs a
/// dense stage that the filter-vector sweep does not serve on the
/// compressed-sparse pass: the crossover of that pass against the row
/// sweep. On the `engine_modes` bench's 48→32-channel 12×12 stage
/// (single images, whose 12-position rows the row sweep ran through
/// x86-64's 8-position tap-pair kernel) the sparse/dense medians of
/// three sets of eight to ten runs on 2 vCPUs were 0.71–0.78× at 65 %,
/// 0.84–0.89× at 70 %, 0.96–1.01× at 75 % (two sets), 1.06–1.20× at
/// 80 % (two sets) and 1.9–2.0× at 90 % sparsity. That stage now runs
/// the filter-vector sweep, which the measured policy keeps whatever
/// its sparsity.
///
/// 0.8 was measured on x86-64 only. Other targets run the dense sweep
/// on the portable loop, where the crossover measured about 65 % (0.90×
/// at 60 %, 1.02× at 65 %), so stages between 65 % and 80 % run the
/// slower executor there; a per-target value belongs to measured
/// per-stage selection (ROADMAP item 3).
pub const SPARSE_THRESHOLD: f64 = 0.8;

/// How compile chooses each dense stage's executor. Transferred stages
/// never reach this choice (their mode is fixed by the transfer
/// scheme).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ModePolicy {
    /// The measured choice: the filter-vector sweep wherever it serves
    /// (an ungrouped stage of at least 16 filters with `K ≥ 2`, which
    /// beat the sparse pass on every measured cell up to 99 % zero taps,
    /// DESIGN §5.15); elsewhere the sparse pass from
    /// [`SPARSE_THRESHOLD`] zero taps and the row sweep below it.
    #[default]
    Measured,
    /// Never the sparse pass — the baseline side of every mode-parity
    /// comparison and `engine_modes` bench cell.
    DenseOnly,
    /// The sparse pass on every dense stage, filter-vector stages
    /// included.
    ForceSparse,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(ExecMode::Dense.as_str(), "dense");
        assert_eq!(ExecMode::Transferred.to_string(), "transferred");
        assert_eq!(ExecMode::Sparse.as_str(), "sparse");
    }
}
