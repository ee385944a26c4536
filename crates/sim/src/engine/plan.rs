//! The compile-time weight plan: per-stage analysis of the quantized
//! row tables and the compressed-sparse tables it emits.
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
//! * [`ExecMode::Sparse`] — dense stages past the sparsity threshold
//!   compile a CSR-style `(offset, value)` stream per filter row
//!   ([`SparseUnitIr`]); the dense sweep runs [`super::sparse`]'s tap
//!   pass over it in place of the channel-stacked kernel call.
//!   Bit-identity is **unconditional**: a zero weight's product is
//!   exactly zero and `Accum::saturating_add(0)` is an exact identity
//!   even at the clamp rails, so skipping zero taps while preserving the
//!   dense `(ky, ci, j)` chain order cannot change any value.
//! * [`ExecMode::Dense`] — every other dense stage runs the
//!   channel-stacked dense sweep.
//!
//! Counters are **not** re-modeled per mode: charges are
//! data-independent (geometry + reuse only), so the sweep charges the
//! same closed form whichever pass it runs. That keeps PPSR/ERRR
//! accounting, telemetry per-layer sums, and the `NetworkPerf`
//! cross-checks closed; the mode's real savings show up as wall-clock
//! in the `engine_modes` bench, not as counter deltas.

use super::ir::{Geo, StageIr, UnitIr};
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
    /// One sparse table per [`UnitIr`], parallel to `stage.units` —
    /// empty unless the mode is Sparse.
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
    if !matches!(stage.units.first(), Some(UnitIr::Dense { .. })) {
        return StagePlan {
            mode: Some(ExecMode::Transferred),
            ..StagePlan::default()
        };
    }
    let geo = Geo::of(&stage.shape);
    let (k, d, kw, cpg) = (geo.k, geo.d, geo.kw, geo.cpg);
    // Zero fraction over the logical taps of every dense unit.
    let mut zeros = 0usize;
    let mut total = 0usize;
    for unit in &stage.units {
        let UnitIr::Dense { base, .. } = unit else {
            continue;
        };
        for ci in 0..cpg {
            for ky in 0..k {
                let row = &stage.rows[base + (ci * k + ky) * kw..][..kw];
                total += k;
                zeros += (0..k).filter(|&t| row[t * d].is_zero()).count();
            }
        }
    }
    let sparsity = if total == 0 {
        0.0
    } else {
        zeros as f64 / total as f64
    };
    let mode = policy.decide(sparsity);
    let units = if mode == ExecMode::Sparse {
        stage
            .units
            .iter()
            .map(|u| sparse_unit(stage, &geo, u))
            .collect()
    } else {
        Vec::new()
    };
    StagePlan {
        mode: Some(mode),
        sparsity,
        units,
    }
}

/// Builds the CSR stream of one dense unit from its stored rows.
fn sparse_unit(stage: &StageIr, geo: &Geo, unit: &UnitIr) -> SparseUnitIr {
    let UnitIr::Dense { base, .. } = unit else {
        unreachable!("sparse tables are built for dense units only");
    };
    let (k, kw, cpg) = (geo.k, geo.kw, geo.cpg);
    let rows = (0..k)
        .flat_map(|ky| (0..cpg).map(move |ci| &stage.rows[base + (ci * k + ky) * kw..][..kw]))
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|(_, w)| !w.is_zero())
                .map(|(j, &w)| (j as u16, w))
                .collect()
        })
        .collect();
    SparseUnitIr { rows }
}
