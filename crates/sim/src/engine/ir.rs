//! The compiled layer-IR: per-stage quantized row tables, unit lists,
//! and the SCNN source-orientation schedule.
//!
//! Compilation ([`compile_stage`]) performs all weight-side work of a
//! stage exactly once: every filter row — dense rows, DCNN meta rows,
//! all eight SCNN orientations — is quantized into one flat contiguous
//! [`Fx16`] table, per-unit row-table offsets are recorded, and biases
//! are pre-folded to accumulator precision. The run phase
//! (`engine::exec`) only ever reads these tables, and only forward:
//! the SCNN mirrored stream reads the stored FlipH partner's rows,
//! never a row reversed at run time.

use crate::engine::kernels::RowKernel;
use crate::engine::plan::{plan_stage, StagePlan};
use crate::output::OutputConfig;
use crate::SimError;
use tfe_nets::TransferMode;
use tfe_tensor::fixed::{Accum, Fx16};
use tfe_tensor::shape::LayerShape;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::mode::{ExecMode, ModePolicy};
use tfe_transfer::scnn::{Orientation, ORBIT, ORIENTATIONS};

/// What the compile phase materialized, so callers (and tests) can see
/// that quantization/orientation work happened exactly once per network
/// rather than once per request. The run phase takes `&self` and owns a
/// matching run-side counter
/// ([`Scratch::run_quantized_rows`](crate::engine::Scratch::run_quantized_rows))
/// that must stay zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// Filter rows quantized to Q8.8 (dense rows, DCNN meta rows, and
    /// every row of every SCNN orientation).
    pub weight_rows: u64,
    /// Individual weight values quantized across those rows.
    pub weight_values: u64,
    /// SCNN orbit members materialized by orientation expansion.
    pub scnn_orientations: u64,
    /// The execution mode the weight plan chose for each stage, in
    /// stage order (`engine/plan.rs`).
    pub modes: Vec<ExecMode>,
}

/// One work unit of a compiled stage, with its offset into the stage's
/// flat quantized row table.
#[derive(Debug, Clone)]
pub(crate) enum UnitIr {
    /// One dense filter: rows at `base + (c·K + ky)·KW`, each
    /// `KW = d·(K−1)+1` long (zero-stuffed at dilation `d`), with
    /// `c ∈ 0..N/groups` — a grouped filter stores only its own channel
    /// band and the run phase offsets reads by the group's first padded
    /// channel.
    Dense { m: usize, base: usize },
    /// One DCNN meta group: meta rows at `base + (c·Z + kr)·ZW`, each
    /// `ZW = d·(Z−1)+1` long (zero-stuffed at dilation `d`). `k` is the
    /// transferred extent the layer stores (its own field, mirrored from
    /// the layer rather than re-derived from the shape).
    Dcnn {
        g: usize,
        per_axis: usize,
        z: usize,
        k: usize,
        base: usize,
    },
    /// One SCNN orbit group: rows of orientation `oi` at
    /// `base + ((oi·N + c)·K + kr)·KW`, each `KW` long. All eight
    /// orientations are stored, so orientation `oi ^ 1` (its FlipH
    /// partner) holds `oi`'s rows reversed: the run phase's mirrored
    /// stream is a forward pass over them. `emitted` is how
    /// many orbit members this (possibly partial) group emits and
    /// `computed` the sorted, deduplicated source orientations that must
    /// run their own row passes under the compiled [`ReuseConfig`].
    Scnn {
        g: usize,
        base: usize,
        emitted: usize,
        computed: Vec<usize>,
    },
}

impl UnitIr {
    /// The contiguous ofmap plane range this unit emits, clamped to the
    /// stage's filter count. Units are compiled in ascending plane
    /// order and their ranges tile `0..M` exactly — the invariant the
    /// intra-run partitioner (`engine/exec.rs`) relies on to hand
    /// disjoint, contiguous output slices to worker threads.
    pub(crate) fn plane_range(&self, m_count: usize) -> std::ops::Range<usize> {
        match self {
            UnitIr::Dense { m, .. } => *m..*m + 1,
            UnitIr::Dcnn { g, per_axis, .. } => {
                let pa2 = per_axis * per_axis;
                (g * pa2).min(m_count)..((g + 1) * pa2).min(m_count)
            }
            UnitIr::Scnn { g, emitted, .. } => g * ORBIT..g * ORBIT + emitted,
        }
    }
}

/// One compiled stage: geometry, output configuration, pre-quantized
/// bias, the flat quantized row table, and the unit list.
#[derive(Debug, Clone)]
pub(crate) struct StageIr {
    pub(crate) shape: LayerShape,
    pub(crate) output: OutputConfig,
    /// The execution mode this stage compiles to — the same fact a
    /// [`tfe_nets::LayerPlan`] records, derived here from the actual
    /// weights so the perf model can be driven off the compiled IR.
    pub(crate) mode: TransferMode,
    /// Per-filter bias already folded to accumulator precision
    /// (`Accum::from_sample(Fx16::from_f32(b))`, [`Accum::ZERO`] where
    /// the stage supplies none).
    pub(crate) bias: Vec<Accum>,
    /// All quantized filter rows of the stage, contiguous.
    pub(crate) rows: Vec<Fx16>,
    pub(crate) units: Vec<UnitIr>,
    /// The inner correlation kernel every unit of this stage dispatches
    /// to, selected once here from the stored row span
    /// `KW = d·(K−1)+1` (dilated rows are zero-stuffed at compile time,
    /// so a 3×3 filter at dilation 2 rides the monomorphized `K5`
    /// kernel). DCNN meta rows are `ZW` wide but every offset lane still
    /// correlates a `KW`-length weight slice, so one stage-level
    /// selection covers all schemes.
    pub(crate) kernel: RowKernel,
    /// Largest `|raw i16 bits|` over the stage's whole quantized row
    /// table — one factor of the conservative saturation-free bound the
    /// run phase checks per stage (`exec::saturation_free`) before
    /// taking the wrapping kernel fast path.
    pub(crate) w_abs_max: i64,
    /// The stage's compiled weight plan: chosen [`ExecMode`], weight
    /// statistics, and the per-unit alternate-execution tables
    /// (`engine/plan.rs`).
    pub(crate) plan: StagePlan,
}

/// Layer geometry snapshot threaded through the run-phase kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geo {
    pub(crate) n: usize,
    pub(crate) m: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) e: usize,
    pub(crate) f: usize,
    pub(crate) k: usize,
    pub(crate) s: usize,
    pub(crate) pad: usize,
    pub(crate) ph: usize,
    pub(crate) pw: usize,
    /// Dilation factor; vertical taps sit at `oy·s + ky·d` and the
    /// stored rows are zero-stuffed to span `kw`.
    pub(crate) d: usize,
    /// Input channels each filter reads (`N / groups`).
    pub(crate) cpg: usize,
    /// Filters per channel group (`M / groups`); filter `m` reads the
    /// padded channel band starting at `(m / mpg) · cpg`.
    pub(crate) mpg: usize,
    /// Stored row span `d·(K−1)+1` — what every row table and horizontal
    /// window width is laid out with.
    pub(crate) kw: usize,
}

impl Geo {
    pub(crate) fn of(shape: &LayerShape) -> Geo {
        Geo {
            n: shape.n(),
            m: shape.m(),
            h: shape.h(),
            w: shape.w(),
            e: shape.e(),
            f: shape.f(),
            k: shape.k(),
            s: shape.stride(),
            pad: shape.pad(),
            ph: shape.h() + 2 * shape.pad(),
            pw: shape.w() + 2 * shape.pad(),
            d: shape.dilation(),
            cpg: shape.channels_per_group(),
            mpg: shape.filters_per_group(),
            kw: shape.dilation() * (shape.k() - 1) + 1,
        }
    }
}

/// Index of an orientation `(base, flip_h, flip_v)` in [`ORIENTATIONS`]
/// order — the shared rule for resolving SCNN source orientations.
pub(crate) fn orientation_index(base: usize, flip_h: bool, flip_v: bool) -> usize {
    base * 4 + usize::from(flip_h) + 2 * usize::from(flip_v)
}

/// Source resolution for one SCNN orbit member under a reuse
/// configuration: `(source orientation, variant, row flip)`. PPSR/ERRR
/// derive flips only from the *stored* base filters (Section V.E: an
/// orientation whose required flips are not all covered by enabled
/// machinery runs conventionally with its own materialized weights — it
/// cannot chain off another derived orientation).
pub(crate) fn source_of(oi: usize, reuse: ReuseConfig) -> (usize, usize, bool) {
    let o = Orientation::of(ORIENTATIONS[oi]);
    let h_covered = !o.flip_h || reuse.ppsr;
    let v_covered = !o.flip_v || reuse.errr;
    if h_covered && v_covered {
        (
            orientation_index(o.base, false, false),
            usize::from(o.flip_h),
            o.flip_v,
        )
    } else {
        (oi, 0, false)
    }
}

/// Compiles one stage from borrowed parts (so single-layer callers like
/// [`crate::functional::run_layer`] need not clone their weights into a
/// network first).
pub(crate) fn compile_stage(
    shape: &LayerShape,
    weights: &TransferredLayer,
    stage_bias: &[f32],
    output: OutputConfig,
    reuse: ReuseConfig,
    stats: &mut PrepareStats,
    policy: &ModePolicy,
) -> Result<StageIr, SimError> {
    let shape = shape.clone();
    // Grouped (and therefore depth-wise) geometry runs first-class, but
    // only from dense weight banks: channel grouping removes the
    // cross-filter redundancy the transferred representations encode,
    // so pairing DCNN/SCNN weights with a grouped shape is a typed
    // compile error rather than a silently wrong expansion.
    if shape.groups() > 1 && !matches!(weights, TransferredLayer::Dense { .. }) {
        let scheme = match weights {
            TransferredLayer::Dcnn { .. } => "DCNN",
            _ => "SCNN",
        };
        return Err(SimError::UnsupportedGeometry {
            scheme,
            groups: shape.groups(),
        });
    }
    if shape.m() != weights.filters() {
        return Err(SimError::OperandMismatch {
            what: "layer filter count",
            expected: shape.m(),
            actual: weights.filters(),
        });
    }
    if let Some(p) = output.pool {
        // The row-wise pooler stages partial windows in O_Memory and
        // then discards them, leaving the write/read counters
        // asymmetric; reject the geometry here instead.
        if p == 0 {
            return Err(SimError::InvalidConfig {
                what: "pooling extent must be non-zero",
            });
        }
        if !shape.e().is_multiple_of(p) {
            return Err(SimError::NonDivisiblePool {
                what: "ofmap rows",
                extent: shape.e(),
                pool: p,
            });
        }
        if !shape.f().is_multiple_of(p) {
            return Err(SimError::NonDivisiblePool {
                what: "ofmap columns",
                extent: shape.f(),
                pool: p,
            });
        }
    }
    let (n, k) = (shape.n(), shape.k());
    let (d, cpg) = (shape.dilation(), shape.channels_per_group());
    // Every stored row is zero-stuffed to the dilated span: weight j of
    // a K-tap row lands at position j·d of a kw-long row, with
    // `Fx16::ZERO` between taps. A zero product is a saturating-add
    // identity, so the stuffed correlation is bit-identical to the
    // golden model's d-strided tap accumulation — and the row rides the
    // monomorphized kernel for its span (K=3, d=2 → the K5 core).
    let kw = d * (k - 1) + 1;
    let mut rows: Vec<Fx16> = Vec::new();
    let mut units: Vec<UnitIr> = Vec::new();
    let mode = match weights {
        TransferredLayer::Dense { .. } => TransferMode::Conventional,
        TransferredLayer::Dcnn { metas, .. } => metas
            .first()
            .map_or(TransferMode::Conventional, |meta| TransferMode::Dcnn {
                z: meta.z(),
            }),
        TransferredLayer::Scnn { .. } => TransferMode::Scnn,
    };
    match weights {
        TransferredLayer::Dense { weights } => {
            // Grouped filters store only their own channel band.
            if weights.dims()[1] != cpg {
                return Err(SimError::OperandMismatch {
                    what: "dense weight channels",
                    expected: cpg,
                    actual: weights.dims()[1],
                });
            }
            for m in 0..shape.m() {
                let base = rows.len();
                for c in 0..cpg {
                    for ky in 0..k {
                        stats.weight_rows += 1;
                        stats.weight_values += k as u64;
                        let start = rows.len();
                        rows.resize(start + kw, Fx16::ZERO);
                        for kx in 0..k {
                            rows[start + kx * d] = Fx16::from_f32(weights.get([m, c, ky, kx]));
                        }
                    }
                }
                units.push(UnitIr::Dense { m, base });
            }
        }
        TransferredLayer::Dcnn {
            k: layer_k, metas, ..
        } => {
            for (g, meta) in metas.iter().enumerate() {
                let per_axis = meta.offsets_per_axis(*layer_k)?;
                let z = meta.z();
                let zw = d * (z - 1) + 1;
                let base = rows.len();
                for c in 0..n {
                    for kr in 0..z {
                        stats.weight_rows += 1;
                        stats.weight_values += z as u64;
                        let start = rows.len();
                        rows.resize(start + zw, Fx16::ZERO);
                        for x in 0..z {
                            rows[start + x * d] = Fx16::from_f32(meta.get(c, kr, x));
                        }
                    }
                }
                units.push(UnitIr::Dcnn {
                    g,
                    per_axis,
                    z,
                    k: *layer_k,
                    base,
                });
            }
        }
        TransferredLayer::Scnn { m: m_count, groups } => {
            for (g, group) in groups.iter().enumerate() {
                let base = rows.len();
                for oi in 0..ORBIT {
                    let oriented = group.orient(oi);
                    stats.scnn_orientations += 1;
                    for c in 0..n {
                        for kr in 0..k {
                            stats.weight_rows += 1;
                            stats.weight_values += k as u64;
                            let src = c * k * k + kr * k;
                            let start = rows.len();
                            rows.resize(start + kw, Fx16::ZERO);
                            for kx in 0..k {
                                rows[start + kx * d] = Fx16::from_f32(oriented[src + kx]);
                            }
                        }
                    }
                }
                let emitted = (0..ORBIT).filter(|&oi| g * ORBIT + oi < *m_count).count();
                let mut computed: Vec<usize> = (0..ORBIT)
                    .filter(|&oi| g * ORBIT + oi < *m_count)
                    .map(|oi| source_of(oi, reuse).0)
                    .collect();
                computed.sort_unstable();
                computed.dedup();
                units.push(UnitIr::Scnn {
                    g,
                    base,
                    emitted,
                    computed,
                });
            }
        }
    }
    let bias = (0..shape.m())
        .map(|c| {
            stage_bias
                .get(c)
                .map_or(Accum::ZERO, |&v| Accum::from_sample(Fx16::from_f32(v)))
        })
        .collect();
    let kernel = RowKernel::select(kw);
    let w_abs_max = rows
        .iter()
        .map(|w| i64::from(w.to_bits()).abs())
        .max()
        .unwrap_or(0);
    let mut stage = StageIr {
        shape,
        output,
        mode,
        bias,
        rows,
        units,
        kernel,
        w_abs_max,
        plan: StagePlan::default(),
    };
    stage.plan = plan_stage(&stage, policy);
    stats.modes.push(stage.plan.mode());
    Ok(stage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_transfer::TransferScheme;

    /// The SCNN executor's mirrored stream is the forward pass over the
    /// FlipH partner's stored rows (`exec::RowPass`), so compile must
    /// store orientation `oi ^ 1`'s rows as exactly `oi`'s rows
    /// reversed — zero-stuffing included — in every group, the partial
    /// last one too.
    #[test]
    fn flip_h_partner_rows_are_the_rows_reversed() {
        let mut seed = 7u32;
        let mut next = || {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            ((seed >> 16) as f32 / 65536.0) - 0.5
        };
        for dilation in [1, 2] {
            // 12 filters: one full orbit group and a partial one of 4.
            let shape = LayerShape::conv("flip", 3, 12, 9, 9, 3, 1, 2)
                .unwrap()
                .with_dilation(dilation)
                .unwrap();
            let weights =
                TransferredLayer::random(&shape, TransferScheme::Scnn, &mut next).unwrap();
            let stage = compile_stage(
                &shape,
                &weights,
                &[],
                OutputConfig::RELU_ONLY,
                ReuseConfig::FULL,
                &mut PrepareStats::default(),
                &ModePolicy::default(),
            )
            .unwrap();
            let (n, k, kw) = (3, 3, dilation * 2 + 1);
            let mut groups = 0;
            for unit in &stage.units {
                let UnitIr::Scnn { base, .. } = unit else {
                    panic!("an SCNN stage compiles to orbit groups");
                };
                groups += 1;
                let row = |oi: usize, c: usize, kr: usize| {
                    &stage.rows[base + ((oi * n + c) * k + kr) * kw..][..kw]
                };
                for oi in 0..ORBIT {
                    for c in 0..n {
                        for kr in 0..k {
                            let mut reversed = row(oi, c, kr).to_vec();
                            reversed.reverse();
                            assert_eq!(
                                row(oi ^ 1, c, kr),
                                reversed,
                                "d={dilation} oi={oi} c={c} kr={kr}"
                            );
                        }
                    }
                }
            }
            assert_eq!(groups, 2, "d={dilation}");
        }
    }
}
