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
    /// Minimum zero-tap fraction for a dense stage that runs the row
    /// sweep (one filter at a time) to compile to [`ExecMode::Sparse`].
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

    /// Chooses the mode for a dense-weight stage on the row sweep from
    /// its compile-time zero-tap fraction. Transferred stages never
    /// reach this decision (their mode is fixed by the transfer scheme).
    #[must_use]
    pub fn decide(&self, sparsity: f64) -> ExecMode {
        if sparsity >= self.sparse_threshold {
            ExecMode::Sparse
        } else {
            ExecMode::Dense
        }
    }

    /// [`ModePolicy::decide`] for a dense stage on the filter-vector
    /// sweep (an ungrouped stage of at least 16 filters with `K ≥ 2`).
    /// The sparse pass lost to that sweep on every measured cell up to
    /// 99 % zero taps (DESIGN §5.15), so only an all-zero stage, or a
    /// policy forcing the sparse pass everywhere, leaves it.
    #[must_use]
    pub fn decide_vector(&self, sparsity: f64) -> ExecMode {
        if sparsity >= 1.0 || self.sparse_threshold <= 0.0 {
            self.decide(sparsity)
        } else {
            ExecMode::Dense
        }
    }
}

impl Default for ModePolicy {
    /// Sparse from 80 % zero taps on the row sweep: the crossover of the
    /// compressed-sparse tap pass against that sweep. On the
    /// `engine_modes` bench's 48→32-channel 12×12 stage (single images,
    /// whose 12-position rows the row sweep ran through x86-64's
    /// 8-position tap-pair kernel) the sparse/dense medians of three
    /// sets of eight to ten runs on 2 vCPUs were 0.71–0.78× at 65 %,
    /// 0.84–0.89× at 70 %, 0.96–1.01× at 75 % (two sets), 1.06–1.20× at
    /// 80 % (two sets) and 1.9–2.0× at 90 % sparsity. That stage now
    /// runs the filter-vector sweep, which [`ModePolicy::decide_vector`]
    /// keeps dense.
    ///
    /// 0.8 was measured on x86-64 only. Other targets run the dense
    /// sweep on the portable loop, where the crossover measured about
    /// 65 % (0.90× at 60 %, 1.02× at 65 %), so stages between 65 % and
    /// 80 % run the slower executor there; a per-target value belongs
    /// to measured per-stage selection (ROADMAP item 3).
    fn default() -> Self {
        ModePolicy {
            sparse_threshold: 0.8,
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
        assert_eq!(p.decide(0.75), ExecMode::Dense);
        assert_eq!(p.decide(0.8), ExecMode::Sparse);
        assert_eq!(p.decide(0.9), ExecMode::Sparse);
        assert_eq!(p.decide(1.0), ExecMode::Sparse);
        assert_eq!(p.decide_vector(0.0), ExecMode::Dense);
        assert_eq!(p.decide_vector(0.9), ExecMode::Dense);
        assert_eq!(p.decide_vector(0.99), ExecMode::Dense);
        assert_eq!(p.decide_vector(1.0), ExecMode::Sparse);
    }

    #[test]
    fn forcing_policies_cover_the_whole_statistic_range() {
        for sparsity in [0.0, 0.3, 1.0] {
            for decide in [ModePolicy::decide, ModePolicy::decide_vector] {
                assert_eq!(decide(&ModePolicy::DENSE_ONLY, sparsity), ExecMode::Dense);
                assert_eq!(
                    decide(&ModePolicy::FORCE_SPARSE, sparsity),
                    ExecMode::Sparse
                );
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ExecMode::Dense.as_str(), "dense");
        assert_eq!(ExecMode::Transferred.to_string(), "transferred");
        assert_eq!(ExecMode::Sparse.as_str(), "sparse");
    }
}
