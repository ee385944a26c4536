//! The compile-time weight plan: per-stage analysis of the quantized
//! weight tables and the compressed-sparse tables it emits.
//!
//! TFE's core bet — reuse is a property of the **weights**, computable
//! once at compile time — extends beyond the paper's own transfer
//! structure to EIE's compressed-sparse execution of pruned models
//! (Fig. 16's comparators, PAPERS.md). [`plan_stage`] runs once per
//! stage in `Engine::compile`, counts the zero taps of the
//! already-quantized [`Fx16`] rows, and asks the [`ModePolicy`] for an
//! [`ExecMode`]:
//!
//! * [`ExecMode::Transferred`] — DCNN/SCNN stages; the transfer scheme
//!   already fixed the execution structure, nothing to decide.
//! * [`ExecMode::Sparse`] — dense stages past the sparsity threshold of
//!   their dense sweep's form ([`ModePolicy::decide`] for the row sweep,
//!   [`ModePolicy::decide_vector`] for the filter-vector sweep)
//!   compile a CSR-style `(offset, value)` stream per filter row
//!   ([`SparseUnitIr`]); the dense sweep runs [`super::sparse`]'s tap
//!   pass over it, one filter at a time, in place of the
//!   channel-stacked kernel call or the filter-vector pass.
//!   Bit-identity is **unconditional**: a zero weight's product is
//!   exactly zero and `Accum::saturating_add(0)` is an exact identity
//!   even at the clamp rails, so skipping zero taps while preserving the
//!   dense `(ky, ci, j)` chain order cannot change any value.
//! * [`ExecMode::Dense`] — every other dense stage runs the dense
//!   sweep of its [`SweepForm`].
//!
//! Both read the stage's one weight table, in either layout, through
//! [`SweepForm::tap`].
//!
//! Counters are **not** re-modeled per mode: charges are
//! data-independent (geometry + reuse only), so the sweep charges the
//! same closed form whichever pass it runs. That keeps PPSR/ERRR
//! accounting, telemetry per-layer sums, and the `NetworkPerf`
//! cross-checks closed; the mode's real savings show up as wall-clock
//! in the `engine_modes` bench, not as counter deltas.

use super::ir::{Geo, StageIr, SweepForm, UnitIr};
use tfe_tensor::fixed::Fx16;
use tfe_transfer::mode::{ExecMode, ModePolicy};

/// The compiled weight plan of one stage: the chosen mode, the weight
/// statistic that chose it, and the per-unit sparse tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct StagePlan {
    pub(crate) mode: Option<ExecMode>,
    /// Zero fraction over the stage's logical taps (stuffed dilation
    /// zeros are structural, not weights, and are excluded).
    pub(crate) sparsity: f64,
    /// One sparse table per filter, indexed by filter — empty unless
    /// the mode is Sparse.
    pub(crate) units: Vec<SparseUnitIr>,
}

impl StagePlan {
    /// The chosen execution mode ([`ExecMode::Dense`] until planned).
    pub(crate) fn mode(&self) -> ExecMode {
        self.mode.unwrap_or(ExecMode::Dense)
    }
}

/// One dense filter in compressed-sparse form: per `(ky, ci)` row, the
/// surviving `(stored-offset, value)` taps in ascending offset order —
/// exactly the dense row with its zero positions elided, so the sparse
/// pass can replay the dense chain structure over survivors only.
#[derive(Debug, Clone)]
pub(crate) struct SparseUnitIr {
    /// `rows[ky · N/groups + ci]` = ascending `(j, w)` survivors of the
    /// stored `KW`-span row (dilation's stuffed zeros never appear; the
    /// pass skips empty rows) — `ky`-major, so one `ky`'s channel band
    /// is one contiguous slice.
    pub(crate) rows: Vec<Vec<(u16, Fx16)>>,
}

/// Plans one compiled stage: scans its quantized rows, asks the policy,
/// and builds the sparse tables when the policy chooses that mode.
pub(crate) fn plan_stage(stage: &StageIr, policy: &ModePolicy) -> StagePlan {
    if !matches!(
        stage.units.first(),
        Some(UnitIr::Dense { .. } | UnitIr::Filters { .. })
    ) {
        return StagePlan {
            mode: Some(ExecMode::Transferred),
            ..StagePlan::default()
        };
    }
    let geo = Geo::of(&stage.shape);
    let (k, d, cpg) = (geo.k, geo.d, geo.cpg);
    // Zero fraction over the logical taps of every filter, unit by unit
    // with its filters innermost (table order in either layout).
    let total = geo.m * cpg * k * k;
    let mut zeros = 0;
    for unit in &stage.units {
        let filters = unit.plane_range(geo.m);
        for row in 0..cpg * k {
            for t in 0..k {
                zeros += filters
                    .clone()
                    .filter(|&m| weight(stage, &geo, m, row, t * d).is_zero())
                    .count();
            }
        }
    }
    let sparsity = if total == 0 {
        0.0
    } else {
        zeros as f64 / total as f64
    };
    // The sparse pass competes with the stage's own dense sweep.
    let mode = match stage.form {
        SweepForm::Rows => policy.decide(sparsity),
        SweepForm::Filters => policy.decide_vector(sparsity),
    };
    let units = if mode == ExecMode::Sparse {
        (0..geo.m).map(|m| sparse_unit(stage, &geo, m)).collect()
    } else {
        Vec::new()
    };
    StagePlan {
        mode: Some(mode),
        sparsity,
        units,
    }
}

/// Stored tap `j` of row `row = c·K + ky` of dense filter `m`.
fn weight(stage: &StageIr, geo: &Geo, m: usize, row: usize, j: usize) -> Fx16 {
    stage.rows[stage.form.tap(geo.cpg * geo.k, geo.kw, m, row, j)]
}

/// Builds the CSR stream of dense filter `m` from its stored taps.
fn sparse_unit(stage: &StageIr, geo: &Geo, m: usize) -> SparseUnitIr {
    let (k, kw, cpg) = (geo.k, geo.kw, geo.cpg);
    let rows = (0..k)
        .flat_map(|ky| (0..cpg).map(move |ci| ci * k + ky))
        .map(|row| {
            (0..kw)
                .map(|j| (j, weight(stage, geo, m, row, j)))
                .filter(|(_, w)| !w.is_zero())
                .map(|(j, w)| (j as u16, w))
                .collect()
        })
        .collect();
    SparseUnitIr { rows }
}
