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
//! A dense stage's table stores its filters in units of `G`, tap-major
//! within a unit ([`tap`], the one index into it): `G = 1` is filter
//! rows (`[m][c][ky][j]`, one [`UnitIr::Dense`] or [`UnitIr::Sparse`]
//! per filter), `G` = [`FILTER_GROUP`] the filter-vector sweep's groups
//! (`[g][c][ky][j][f]`, one [`UnitIr::Filters`] per group).
//! [`compile_dense`] chooses the layout and the executor once, and the
//! units' kind is the only record of that choice.

use crate::engine::kernels::{RowKernel, FILTER_GROUP};
use crate::engine::sparse::compress;
use crate::output::OutputConfig;
use crate::SimError;
use tfe_nets::TransferMode;
use tfe_tensor::fixed::{Accum, Fx16};
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::mode::{ExecMode, ModePolicy, SPARSE_THRESHOLD};
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
    /// One dense filter on the compressed-sparse pass
    /// (`engine/sparse.rs`): `taps[ky · N/groups + ci]` holds the
    /// ascending `(j, w)` survivors of stored row `(ci, ky)` —
    /// `ky`-major, so one `ky`'s channel band is one contiguous slice.
    /// Dilation's stuffed zeros never appear; a row without survivors
    /// is empty.
    Sparse {
        m: usize,
        taps: Vec<Vec<(u16, Fx16)>>,
    },
    /// One group of the filter-vector sweep: filters `m0 .. m0 + live`
    /// of an ungrouped stage, stored tap-major from `base` — tap `j` of
    /// row `(c, ky)` is the `G` weights at `base + ((c·K + ky)·KW + j)·G`,
    /// one per filter of the group (`G` = [`FILTER_GROUP`]). Only a
    /// partial last group has `live < G`; its other slots hold zeros.
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
            UnitIr::Dense { m, .. } | UnitIr::Sparse { m, .. } => *m..*m + 1,
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
    /// a dense stage's filter groups ([`tap`]).
    pub(crate) rows: Vec<Fx16>,
    /// The stage's units; their kind is the executor compile chose.
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
    /// A dense stage's zero logical taps (dilation's stuffed zeros
    /// excluded), counted as compile writes the table; 0 for a
    /// transferred stage.
    pub(crate) zero_taps: usize,
}

impl StageIr {
    /// The executor this stage compiled to, read off its units' kind.
    pub(crate) fn exec_mode(&self) -> ExecMode {
        match self.units.first() {
            Some(UnitIr::Dense { .. } | UnitIr::Filters { .. }) => ExecMode::Dense,
            Some(UnitIr::Sparse { .. }) => ExecMode::Sparse,
            _ => ExecMode::Transferred,
        }
    }

    /// The zero fraction over the stage's logical taps.
    pub(crate) fn sparsity(&self) -> f64 {
        sparsity(self.zero_taps, &self.shape)
    }
}

/// The fraction `zeros` makes of a stage's logical taps.
fn sparsity(zeros: usize, shape: &LayerShape) -> f64 {
    let taps = shape.m() * shape.channels_per_group() * shape.k() * shape.k();
    if taps == 0 {
        0.0
    } else {
        zeros as f64 / taps as f64
    }
}

/// The fewest filters a stage needs for the filter-vector sweep. The
/// cells are measured, not derived (DESIGN §5.10: one-stage engines on
/// 2 vCPUs with AVX-512BW): 32 filters ran 1.5–13× faster than the row
/// sweep on every row length; 16 filters (one padded group, run in
/// 16-filter blocks) ran faster on 6×6 maps and on a single 30×30
/// image, but slower on batches of eight 30×30 images; 8 filters, whose
/// blocks put 8 MACs in each `pmaddwd` against a long row's 32, ran up
/// to 2.2× slower on 30-position rows.
const MIN_VECTOR_FILTERS: usize = 16;

/// The table index of tap `j` of row `row = c·K + ky` of dense filter
/// `m`, where every filter stores `rows` rows of `kw` taps in units of
/// `group` filters, tap-major within a unit:
/// `[m / group][row][j][m % group]`, so a unit's filters sit side by
/// side at every tap. A group of one is the filter-row layout
/// `[m][row][j]`, and [`FILTER_GROUP`] the filter-vector sweep's. The
/// one index compile writes through and that sweep reads by.
pub(crate) fn tap(group: usize, rows: usize, kw: usize, m: usize, row: usize, j: usize) -> usize {
    let (g, f) = (m / group, m % group);
    ((g * rows + row) * kw + j) * group + f
}

/// Compiles a dense stage's table into `rows` and its units into
/// `units`, choosing the stage's executor — the one place compile makes
/// that choice, and the units' kind its one record:
///
/// * a stage the filter-vector sweep serves (ungrouped, stored span
///   `KW ≥ 2`, at least [`MIN_VECTOR_FILTERS`] filters) stores tap-major
///   groups of [`FILTER_GROUP`] filters and runs [`UnitIr::Filters`],
///   unless the policy is [`ModePolicy::ForceSparse`];
/// * every other stage stores filter rows and runs [`UnitIr::Sparse`]
///   under `ForceSparse`, or under [`ModePolicy::Measured`] from
///   [`SPARSE_THRESHOLD`] zero taps, and [`UnitIr::Dense`] otherwise.
///
/// So the CSR builder reads filter rows only, and an all-zero
/// filter-vector stage stays on that sweep. Returns the stage's zero
/// logical taps, counted as the table is written.
fn compile_dense(
    shape: &LayerShape,
    weights: &Tensor4<f32>,
    policy: ModePolicy,
    rows: &mut Vec<Fx16>,
    units: &mut Vec<UnitIr>,
    stats: &mut PrepareStats,
) -> usize {
    let (m_count, k, d) = (shape.m(), shape.k(), shape.dilation());
    let (cpg, kw) = (shape.channels_per_group(), d * (k - 1) + 1);
    let vector = shape.groups() == 1 && kw >= 2 && m_count >= MIN_VECTOR_FILTERS;
    let group = if vector && policy != ModePolicy::ForceSparse {
        FILTER_GROUP
    } else {
        1
    };
    // One table: filter groups pad only a partial last group, with zeros.
    let per_filter = cpg * k;
    let len = m_count.next_multiple_of(group) * per_filter * kw;
    rows.resize(len, Fx16::ZERO);
    let mut zeros = 0;
    // Unit by unit, its filters innermost: the writes run in table
    // order in either layout.
    for m0 in (0..m_count).step_by(group) {
        let filters = m0..m_count.min(m0 + group);
        for c in 0..cpg {
            for ky in 0..k {
                stats.weight_rows += filters.len() as u64;
                stats.weight_values += (filters.len() * k) as u64;
                for kx in 0..k {
                    let at = tap(group, per_filter, kw, m0, c * k + ky, kx * d);
                    for (slot, m) in rows[at..].iter_mut().zip(filters.clone()) {
                        *slot = Fx16::from_f32(weights.get([m, c, ky, kx]));
                        zeros += usize::from(slot.is_zero());
                    }
                }
            }
        }
    }
    let sparse = match policy {
        ModePolicy::Measured => sparsity(zeros, shape) >= SPARSE_THRESHOLD,
        ModePolicy::DenseOnly => false,
        ModePolicy::ForceSparse => true,
    };
    units.extend((0..m_count).step_by(group).map(|m0| {
        let base = tap(group, per_filter, kw, m0, 0, 0);
        if group > 1 {
            UnitIr::Filters {
                m0,
                live: group.min(m_count - m0),
                base,
            }
        } else if sparse {
            UnitIr::Sparse {
                m: m0,
                taps: compress(&rows[base..][..per_filter * kw], k, kw),
            }
        } else {
            UnitIr::Dense { m: m0, base }
        }
    }));
    zeros
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
    let mut zero_taps = 0;
    let mode = match weights {
        TransferredLayer::Dense { .. } => TransferMode::Conventional,
        TransferredLayer::Dcnn { metas, .. } => metas
            .first()
            .map_or(TransferMode::Conventional, |meta| TransferMode::Dcnn {
                z: meta.z(),
            }),
        TransferredLayer::Scnn { .. } => TransferMode::Scnn,
    };
    // Each table is sized once. Grown row by row, a table leaves a
    // freed chunk at every doubling, and how those fragment the heap
    // follows allocation order: the SCNN trunk's peak RSS moved by 17 %
    // with it.
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
            zero_taps = compile_dense(&shape, weights, *policy, &mut rows, &mut units, stats);
        }
        TransferredLayer::Dcnn {
            k: layer_k, metas, ..
        } => {
            let span = |z: usize| d * (z - 1) + 1;
            rows.reserve_exact(metas.iter().map(|meta| n * meta.z() * span(meta.z())).sum());
            for (g, meta) in metas.iter().enumerate() {
                let per_axis = meta.offsets_per_axis(*layer_k)?;
                let z = meta.z();
                let zw = span(z);
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
            rows.reserve_exact(groups.len() * ORBIT * n * k * kw);
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
    Ok(StageIr {
        shape,
        output,
        mode,
        bias,
        rows,
        units,
        kernel,
        w_abs_max,
        zero_taps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_transfer::TransferScheme;

    fn dense_stage(shape: &LayerShape, weights: Tensor4<f32>, policy: ModePolicy) -> StageIr {
        compile_stage(
            shape,
            &TransferredLayer::Dense { weights },
            &[],
            OutputConfig::RELU_ONLY,
            ReuseConfig::FULL,
            &mut PrepareStats::default(),
            &policy,
        )
        .unwrap()
    }

    /// Each unit's (kind, first filter, filters).
    type Units = Vec<(&'static str, usize, usize)>;

    fn groups(units: &[(usize, usize)]) -> Units {
        units.iter().map(|&(m0, n)| ("filters", m0, n)).collect()
    }

    fn per_filter(kind: &'static str, m: usize) -> Units {
        (0..m).map(|m| (kind, m, 1)).collect()
    }

    /// The executor rule as compile records it in each stage's units,
    /// under every policy: ungrouped dense stages with a stored span of
    /// at least two taps and at least 16 filters run 32-filter groups
    /// (only a partial last group short) unless the policy forces the
    /// sparse pass, even when every tap is zero; every other stage runs
    /// one unit per filter, sparse under `ForceSparse` or, under
    /// `Measured`, from the threshold. A stage that silently fell back
    /// to another executor would pass every parity suite, so the kinds
    /// are pinned here.
    #[test]
    fn stages_compile_to_the_selected_sweep_form() {
        let conv = |n, m, k| LayerShape::conv("sel", n, m, 6, 6, k, 1, k / 2).unwrap();
        // Each cell: how many of its weights (the first, in
        // `[m][c][ky][kx]` order) are zero, and its units under
        // `Measured`, `DenseOnly` and `ForceSparse`.
        let vector = |shape: LayerShape, units: &[(usize, usize)]| {
            let m = shape.m();
            (
                shape,
                0,
                [groups(units), groups(units), per_filter("sparse", m)],
            )
        };
        let rows = |shape: LayerShape, zeros: usize, measured: &'static str| {
            let m = shape.m();
            let dense = per_filter("dense", m);
            let units = [per_filter(measured, m), dense, per_filter("sparse", m)];
            (shape, zeros, units)
        };
        let all = usize::MAX;
        let cells = [
            ("64 filters", vector(conv(4, 64, 3), &[(0, 32), (32, 32)])),
            (
                "a partial last group",
                vector(conv(4, 40, 3), &[(0, 32), (32, 8)]),
            ),
            ("17 filters", vector(conv(4, 17, 3), &[(0, 17)])),
            ("16 filters, K = 5", vector(conv(4, 16, 5), &[(0, 16)])),
            ("K = 2", vector(conv(4, 32, 2), &[(0, 32)])),
            (
                "dilated",
                vector(conv(4, 32, 3).with_dilation(2).unwrap(), &[(0, 32)]),
            ),
            ("8 filters", rows(conv(4, 8, 3), 0, "dense")),
            ("15 filters", rows(conv(4, 15, 3), 0, "dense")),
            ("pointwise", rows(conv(4, 32, 1), 0, "dense")),
            (
                "grouped",
                rows(conv(4, 32, 3).with_groups(2).unwrap(), 0, "dense"),
            ),
            (
                "depth-wise",
                rows(
                    LayerShape::depthwise("dw", 16, 6, 6, 3, 1, 1).unwrap(),
                    0,
                    "dense",
                ),
            ),
            // 8 × 5 × 9 = 360 taps: the threshold's two sides.
            ("75 % zeros", rows(conv(5, 8, 3), 270, "dense")),
            ("80 % zeros", rows(conv(5, 8, 3), 288, "sparse")),
            ("all-zero 8 filters", rows(conv(4, 8, 3), all, "sparse")),
            (
                "all-zero 32 filters",
                (
                    conv(4, 32, 3),
                    all,
                    [
                        groups(&[(0, 32)]),
                        groups(&[(0, 32)]),
                        per_filter("sparse", 32),
                    ],
                ),
            ),
        ];
        let policies = [
            ModePolicy::Measured,
            ModePolicy::DenseOnly,
            ModePolicy::ForceSparse,
        ];
        for (label, (shape, zeros, expected)) in cells {
            let cpg = shape.channels_per_group();
            let (m, k) = (shape.m(), shape.k());
            for (policy, units) in policies.into_iter().zip(expected) {
                let weights = Tensor4::from_fn([m, cpg, k, k], |[f, c, ky, kx]| {
                    if ((f * cpg + c) * k + ky) * k + kx < zeros {
                        0.0
                    } else {
                        0.5
                    }
                });
                let stage = dense_stage(&shape, weights, policy);
                let got: Units = stage
                    .units
                    .iter()
                    .map(|u| {
                        let kind = match u {
                            UnitIr::Dense { .. } => "dense",
                            UnitIr::Sparse { .. } => "sparse",
                            UnitIr::Filters { .. } => "filters",
                            _ => "transferred",
                        };
                        let planes = u.plane_range(m);
                        (kind, planes.start, planes.len())
                    })
                    .collect();
                assert_eq!(got, units, "{label} under {policy:?}");
            }
        }
        // Transferred stages store rows whatever their filter count and
        // the policy.
        let shape = conv(4, 32, 3);
        let mut seed = 3u32;
        let weights = TransferredLayer::random(&shape, TransferScheme::Scnn, || {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            (seed >> 16) as f32 / 65536.0 - 0.5
        })
        .unwrap();
        for policy in policies {
            let stage = compile_stage(
                &shape,
                &weights,
                &[],
                OutputConfig::RELU_ONLY,
                ReuseConfig::FULL,
                &mut PrepareStats::default(),
                &policy,
            )
            .unwrap();
            assert!(
                stage.units.iter().all(|u| matches!(u, UnitIr::Scnn { .. })),
                "{policy:?}"
            );
        }
    }

    /// The one table of a filter-vector stage: every quantized weight
    /// sits where [`tap`] says, tap-major with the group's
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
            let stage = dense_stage(
                &shape,
                Tensor4::from_fn([m, cpg, k, k], |[f, c, ky, kx]| value(f, c, ky, kx)),
                ModePolicy::Measured,
            );
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
                                    tap(group, cpg * k, kw, m0 + f, c * k + ky, kx * dilation)
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
