//! Execution-mode policy: how a compiled engine chooses between its
//! dense, transferred, and compressed-sparse (EIE-style) run paths.
//!
//! The TFE premise — reuse is a property of the *weights*, computable
//! once at compile time — also covers EIE's compressed-sparse execution
//! of pruned models, one of the comparator families the paper measures
//! against (PAPERS.md). [`ExecMode`] names the executable paths and
//! [`ModePolicy`] is the pure decision function the engine's compile
//! pass (`tfe_sim::engine`'s `plan` module) evaluates per stage from one
//! weight statistic, **sparsity**: the fraction of logical filter taps
//! that quantized to exactly zero (magnitude pruning feeds this path via
//! `tfe_baselines::SparseFilterBank::prune`).
//!
//! UCNN-style weight-repetition factorization is not an execution mode:
//! once the dense sweep sums a whole channel band per kernel call it
//! beat the factorized executor on every measured cell, so that
//! executor was removed (DESIGN §5.15). UCNN stays covered by the
//! analytic baseline in `tfe-baselines`.
//!
//! The sparse mode is **bit-identical** to the dense path by
//! construction (see the engine's `plan` module for the exactness
//! argument), so the policy is purely a performance choice — any
//! threshold setting is correct, which is what lets tests force every
//! mode everywhere.

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

/// The per-stage mode decision function: a threshold over the
/// compile-time sparsity statistic.
///
/// Sparsity lives in `[0, 1]`, so a threshold above `1.0` disables the
/// sparse mode entirely ([`ModePolicy::DENSE_ONLY`]) and a threshold of
/// `0.0` forces it wherever structurally possible
/// ([`ModePolicy::FORCE_SPARSE`] — safe because every mode is
/// bit-identical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModePolicy {
    /// Minimum zero-tap fraction for a dense stage to compile to
    /// [`ExecMode::Sparse`].
    pub sparse_threshold: f64,
}

impl ModePolicy {
    /// Never leaves the dense/transferred paths — the baseline side of
    /// every mode-parity comparison and `engine_modes` bench cell.
    pub const DENSE_ONLY: ModePolicy = ModePolicy {
        sparse_threshold: 2.0,
    };

    /// Compiles every dense stage to the compressed-sparse path.
    pub const FORCE_SPARSE: ModePolicy = ModePolicy {
        sparse_threshold: 0.0,
    };

    /// Chooses the mode for a dense-weight stage from its compile-time
    /// zero-tap fraction. Transferred stages never reach this decision
    /// (their mode is fixed by the transfer scheme).
    #[must_use]
    pub fn decide(&self, sparsity: f64) -> ExecMode {
        if sparsity >= self.sparse_threshold {
            ExecMode::Sparse
        } else {
            ExecMode::Dense
        }
    }
}

impl Default for ModePolicy {
    /// Sparse from 65 % zero taps: the crossover the per-image sparse
    /// executor measured against the channel-stacked dense sweep. On
    /// the `engine_modes` bench's 48→32-channel 12×12 stage it ran at
    /// 0.65–0.97× dense at 50 % sparsity and 0.81–1.03× at 60 %, but
    /// 0.99–1.12× at 65 %, 1.04–1.33× at 70 %, and 2.1–2.7× at 90 %
    /// (2 vCPUs, interleaved min-of-reps, seven or eight runs). The tap
    /// pass that replaced it inside the dense sweep read medians of
    /// 0.90× at 60 %, 0.99× at 65 % and 1.12× at 70 % over eight later
    /// runs, so the threshold stays at 65 %.
    fn default() -> Self {
        ModePolicy {
            sparse_threshold: 0.65,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_picks_each_mode() {
        let p = ModePolicy::default();
        assert_eq!(p.decide(0.0), ExecMode::Dense);
        assert_eq!(p.decide(0.6), ExecMode::Dense);
        assert_eq!(p.decide(0.65), ExecMode::Sparse);
        assert_eq!(p.decide(0.9), ExecMode::Sparse);
        assert_eq!(p.decide(1.0), ExecMode::Sparse);
    }

    #[test]
    fn forcing_policies_cover_the_whole_statistic_range() {
        for sparsity in [0.0, 0.3, 1.0] {
            assert_eq!(ModePolicy::DENSE_ONLY.decide(sparsity), ExecMode::Dense);
            assert_eq!(ModePolicy::FORCE_SPARSE.decide(sparsity), ExecMode::Sparse);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ExecMode::Dense.as_str(), "dense");
        assert_eq!(ExecMode::Transferred.to_string(), "transferred");
        assert_eq!(ExecMode::Sparse.as_str(), "sparse");
    }
}
