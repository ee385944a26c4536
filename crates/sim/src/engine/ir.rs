//! The compiled layer-IR: per-stage quantized weight tables, unit lists,
//! and the SCNN source-orientation schedule.
//!
//! Compilation ([`compile_stage`]) performs all weight-side work of a
//! stage exactly once: every filter row — dense rows, DCNN meta rows,
//! all eight SCNN orientations — is quantized into one flat contiguous
//! [`Fx16`] table, per-unit table offsets are recorded, and biases
//! are pre-folded to accumulator precision. The run phase
//! (`engine::exec`) only ever reads these tables, and only forward:
//! the SCNN mirrored stream reads the stored FlipH partner's rows,
//! never a row reversed at run time.
//!
//! A dense stage's table has one of two layouts, its [`SweepForm`]:
//! filter rows (`[m][c][ky][j]`, one unit per filter) or tap-major
//! filter groups (`[g][c][ky][j][f]`, one unit per group) for the
//! filter-vector sweep. [`SweepForm::tap`] is the one index into
//! either.

use crate::engine::kernels::{RowKernel, FILTER_GROUP, FILTER_LANES};
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
    /// One group of the filter-vector sweep: filters `m0 .. m0 + live`
    /// of an ungrouped stage, stored tap-major from `base` — tap `j` of
    /// row `(c, ky)` is the `G` weights at `base + ((c·K + ky)·KW + j)·G`,
    /// one per filter of the group (`G` = [`FILTER_GROUP`],
    /// [`SweepForm::Filters`]). Only a partial last group has
    /// `live < G`; its other slots hold zeros.
    Filters { m0: usize, live: usize, base: usize },
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
            UnitIr::Filters { m0, live, .. } => *m0..*m0 + live,
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
    /// All quantized weights of the stage, contiguous: filter rows, or
    /// a dense stage's filter groups ([`StageIr::form`]).
    pub(crate) rows: Vec<Fx16>,
    pub(crate) units: Vec<UnitIr>,
    /// How the stage's dense units are stored and swept.
    pub(crate) form: SweepForm,
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

/// The fewest filters a stage needs for the filter-vector sweep. The
/// cells are measured, not derived (DESIGN §5.10: one-stage engines on
/// 2 vCPUs with AVX-512BW): 32 filters ran 1.5–13× faster than the row
/// sweep on every row length; 16 filters (one padded group, run in
/// 16-filter blocks) ran faster on 6×6 maps and on a single 30×30
/// image, but slower on batches of eight 30×30 images; 8 filters, whose
/// blocks put 8 MACs in each `pmaddwd` against a long row's 32, ran up
/// to 2.2× slower on 30-position rows.
const MIN_VECTOR_FILTERS: usize = 2 * FILTER_LANES;

/// The layout a stage's weight table was compiled to, and with it the
/// sweep its dense units run — the per-stage record tests assert the
/// selection rule ([`SweepForm::select`]) against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepForm {
    /// Filter rows `[m][c][ky][j]` swept one weight row at a time over
    /// position-vectorized rows ([`UnitIr::Dense`]); every transferred
    /// stage stores rows too.
    Rows,
    /// Tap-major filter groups `[g][c][ky][j][f]` of [`FILTER_GROUP`]
    /// filters swept at emitted positions only, one broadcast input
    /// pair against a tap pair of every filter per multiply
    /// ([`UnitIr::Filters`]).
    Filters,
}

impl SweepForm {
    /// The form a dense stage compiles to: [`SweepForm::Filters`] for an
    /// ungrouped stage with at least two stored taps per row and at
    /// least [`MIN_VECTOR_FILTERS`] filters; [`SweepForm::Rows`] for
    /// every other (grouped and depth-wise, `K = 1`, fewer filters).
    pub(crate) fn select(shape: &LayerShape) -> SweepForm {
        let kw = shape.dilation() * (shape.k() - 1) + 1;
        if shape.groups() != 1 || kw < 2 || shape.m() < MIN_VECTOR_FILTERS {
            SweepForm::Rows
        } else {
            SweepForm::Filters
        }
    }

    /// The table index of tap `j` of row `row = c·K + ky` of dense filter
    /// `m`, where every filter stores `rows` rows of `kw` taps — the one
    /// index the compile pass writes and the weight plan reads through.
    /// The filters of one unit sit side by side at every tap.
    pub(crate) fn tap(self, rows: usize, kw: usize, m: usize, row: usize, j: usize) -> usize {
        match self {
            SweepForm::Rows => (m * rows + row) * kw + j,
            SweepForm::Filters => {
                let (g, f) = (m / FILTER_GROUP, m % FILTER_GROUP);
                ((g * rows + row) * kw + j) * FILTER_GROUP + f
            }
        }
    }
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
    let form = match weights {
        TransferredLayer::Dense { .. } => SweepForm::select(&shape),
        _ => SweepForm::Rows,
    };
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
            let m_count = shape.m();
            let unit_filters = match form {
                SweepForm::Rows => 1,
                SweepForm::Filters => FILTER_GROUP,
            };
            // One table, in the stage's form: filter groups pad only a
            // partial last group, with zeros.
            let per_filter = cpg * k;
            rows.resize(
                m_count.next_multiple_of(unit_filters) * per_filter * kw,
                Fx16::ZERO,
            );
            for m0 in (0..m_count).step_by(unit_filters) {
                let base = form.tap(per_filter, kw, m0, 0, 0);
                units.push(match form {
                    SweepForm::Rows => UnitIr::Dense { m: m0, base },
                    SweepForm::Filters => UnitIr::Filters {
                        m0,
                        live: FILTER_GROUP.min(m_count - m0),
                        base,
                    },
                });
                // Unit by unit, its filters innermost: the writes run in
                // table order in either layout.
                let filters = units[units.len() - 1].plane_range(m_count);
                for c in 0..cpg {
                    for ky in 0..k {
                        stats.weight_rows += filters.len() as u64;
                        stats.weight_values += (filters.len() * k) as u64;
                        for kx in 0..k {
                            for m in filters.clone() {
                                let at = form.tap(per_filter, kw, m, c * k + ky, kx * d);
                                rows[at] = Fx16::from_f32(weights.get([m, c, ky, kx]));
                            }
                        }
                    }
                }
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
        form,
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
    use tfe_tensor::tensor::Tensor4;
    use tfe_transfer::TransferScheme;

    fn compile_dense(shape: &LayerShape, weights: Tensor4<f32>) -> StageIr {
        compile_stage(
            shape,
            &TransferredLayer::Dense { weights },
            &[],
            OutputConfig::RELU_ONLY,
            ReuseConfig::FULL,
            &mut PrepareStats::default(),
            &ModePolicy::default(),
        )
        .unwrap()
    }

    /// The selection rule as compile records it per stage: ungrouped
    /// dense stages with a stored span of at least two taps and at least
    /// 16 filters take the filter-vector form, in 32-filter groups with
    /// only a partial last group short; every other stage
    /// keeps filter rows, one unit per filter. A stage that silently
    /// fell back to rows would pass every parity suite, so the form is
    /// pinned here.
    #[test]
    fn stages_compile_to_the_selected_sweep_form() {
        let conv = |n, m, k| LayerShape::conv("sel", n, m, 6, 6, k, 1, k / 2).unwrap();
        // Each cell: the form and every unit's (first filter, filters).
        type Expected = (SweepForm, Vec<(usize, usize)>);
        let filters =
            |units: &[(usize, usize)]| -> Expected { (SweepForm::Filters, units.to_vec()) };
        let rows = |m: usize| -> Expected { (SweepForm::Rows, (0..m).map(|m| (m, 1)).collect()) };
        let cells: Vec<(&str, LayerShape, Expected)> = vec![
            ("64 filters", conv(4, 64, 3), filters(&[(0, 32), (32, 32)])),
            (
                "a partial last group",
                conv(4, 40, 3),
                filters(&[(0, 32), (32, 8)]),
            ),
            ("17 filters", conv(4, 17, 3), filters(&[(0, 17)])),
            ("16 filters, K = 5", conv(4, 16, 5), filters(&[(0, 16)])),
            ("K = 2", conv(4, 32, 2), filters(&[(0, 32)])),
            (
                "dilated",
                conv(4, 32, 3).with_dilation(2).unwrap(),
                filters(&[(0, 32)]),
            ),
            ("8 filters", conv(4, 8, 3), rows(8)),
            ("15 filters", conv(4, 15, 3), rows(15)),
            ("pointwise", conv(4, 32, 1), rows(32)),
            ("grouped", conv(4, 32, 3).with_groups(2).unwrap(), rows(32)),
            (
                "depth-wise",
                LayerShape::depthwise("dw", 16, 6, 6, 3, 1, 1).unwrap(),
                rows(16),
            ),
        ];
        for (label, shape, (form, units)) in cells {
            let cpg = shape.channels_per_group();
            let (m, k) = (shape.m(), shape.k());
            let stage = compile_dense(&shape, Tensor4::from_fn([m, cpg, k, k], |_| 0.5));
            assert_eq!(stage.form, form, "{label}");
            let got: Vec<(usize, usize)> = stage
                .units
                .iter()
                .map(|u| {
                    let planes = u.plane_range(m);
                    (planes.start, planes.len())
                })
                .collect();
            assert_eq!(got, units, "{label}");
            assert!(
                stage.units.iter().all(|u| matches!(
                    (u, form),
                    (UnitIr::Dense { .. }, SweepForm::Rows)
                        | (UnitIr::Filters { .. }, SweepForm::Filters)
                )),
                "{label}: units must match the form"
            );
        }
        // Transferred stages store rows whatever their filter count.
        let shape = conv(4, 32, 3);
        let mut seed = 3u32;
        let weights = TransferredLayer::random(&shape, TransferScheme::Scnn, || {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            (seed >> 16) as f32 / 65536.0 - 0.5
        })
        .unwrap();
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
        assert_eq!(stage.form, SweepForm::Rows);
    }

    /// The one table of a filter-vector stage: every quantized weight
    /// sits where [`SweepForm::tap`] says, tap-major with the group's
    /// filters innermost, dilation zeros and the partial last group's
    /// padding are zero, and the table is no longer than the row table
    /// padded to whole groups.
    #[test]
    fn filter_groups_store_every_weight_once_tap_major() {
        for (m, dilation) in [(40, 1), (16, 2)] {
            let (cpg, k) = (3, 3);
            let shape = LayerShape::conv("tab", cpg, m, 7, 7, k, 1, 1)
                .unwrap()
                .with_dilation(dilation)
                .unwrap();
            let value = |f: usize, c: usize, ky: usize, kx: usize| {
                ((f * 31 + c * 7 + ky * 3 + kx) % 97) as f32 / 16.0 - 3.0
            };
            let stage = compile_dense(
                &shape,
                Tensor4::from_fn([m, cpg, k, k], |[f, c, ky, kx]| value(f, c, ky, kx)),
            );
            assert_eq!(stage.form, SweepForm::Filters, "m = {m}");
            let group = FILTER_GROUP;
            let kw = dilation * (k - 1) + 1;
            assert_eq!(stage.rows.len(), m.next_multiple_of(group) * cpg * k * kw);
            let mut expected = vec![Fx16::ZERO; stage.rows.len()];
            for (g, unit) in stage.units.iter().enumerate() {
                let UnitIr::Filters { m0, live, base } = *unit else {
                    panic!("filter-vector stages hold filter groups");
                };
                assert_eq!((m0, base), (g * group, g * group * cpg * k * kw));
                for f in 0..live {
                    for c in 0..cpg {
                        for ky in 0..k {
                            for kx in 0..k {
                                let at = base + ((c * k + ky) * kw + kx * dilation) * group + f;
                                assert_eq!(
                                    at,
                                    stage
                                        .form
                                        .tap(cpg * k, kw, m0 + f, c * k + ky, kx * dilation)
                                );
                                expected[at] = Fx16::from_f32(value(m0 + f, c, ky, kx));
                            }
                        }
                    }
                }
            }
            assert_eq!(stage.rows, expected, "m = {m}, d = {dilation}");
        }
    }

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
