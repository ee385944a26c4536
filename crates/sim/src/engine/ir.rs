//! The compiled layer-IR: per-stage quantized weight tables, unit lists,
//! and each transferred group's read schedule.
//!
//! Compilation ([`compile_stage`]) performs all weight-side work of a
//! stage exactly once: every filter row the run reads — dense rows, DCNN
//! meta rows, the SCNN orientations each orbit group's reads use — is
//! quantized into one flat contiguous [`Fx16`] table, per-unit table
//! offsets and read schedules are recorded, and biases are pre-folded
//! to accumulator precision. The run phase (`engine::exec`) only ever
//! reads these tables, and only forward: the SCNN mirrored stream reads
//! the stored FlipH partner's rows, never a row reversed at run time.
//!
//! A dense stage's table stores its filters in units of `G`, tap-major
//! within a unit ([`tap`], the one index into it): `G = 1` is filter
//! rows (`[m][c][ky][j]`, one [`UnitIr::Dense`] or [`UnitIr::Sparse`]
//! per filter), `G` = [`FILTER_GROUP`] the filter-vector sweep's groups
//! (`[g][c][ky][j][f]`, one [`UnitIr::Filters`] per group).
//! [`compile_dense`] chooses the layout and the executor once, and the
//! units' kind is the only record of that choice.
//!
//! A transferred stage stores *lanes*: each SCNN `(set, variant)` block
//! — a source orientation [`source_of`] resolves for an orbit member,
//! or under PPSR its FlipH partner — and each DCNN meta group, or on a
//! stage whose meta groups would leave vector lanes idle each `(meta
//! group, dx)` pair ([`offset_lanes`]). Compile
//! derives one read schedule from the weights and folds it into
//! [`LaneGroup`]s, whose [`Layout`] is the only record of the executor
//! choice: a stage of at least [`MIN_VECTOR_FILTERS`] lanes and a
//! stored span of two taps stores `G` lanes tap-major per group
//! (`[g][c][row][col][lane]`, through [`tap`]); every other one stores
//! each orbit or meta group's blocks back to back (the group of one), one
//! group per orbit or meta group. Under [`ReuseConfig::FULL`] an orbit
//! group stores orientations 0, 1, 4 and 5: the two bases and their
//! FlipH partners.

use crate::counters::Counters;
use crate::engine::kernels::{RowKernel, FILTER_GROUP};
use crate::engine::sparse::compress;
use crate::output::OutputConfig;
use crate::ppsr::{charge_dcnn, charge_scnn};
use crate::SimError;
use tfe_nets::TransferMode;
use tfe_tensor::fixed::{Accum, Fx16};
use tfe_tensor::shape::LayerShape;
use tfe_tensor::tensor::Tensor4;
use tfe_transfer::analysis::ReuseConfig;
use tfe_transfer::layer::TransferredLayer;
use tfe_transfer::mode::{ExecMode, ModePolicy, SPARSE_THRESHOLD};
use tfe_transfer::scnn::{Orientation, ScnnGroup, ORBIT, ORIENTATIONS};

/// What the compile phase materialized, so callers (and tests) can see
/// that quantization/orientation work happened exactly once per network
/// rather than once per request. The run phase takes `&self` and owns a
/// matching run-side counter
/// ([`Scratch::run_quantized_rows`](crate::engine::Scratch::run_quantized_rows))
/// that must stay zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// Filter rows quantized to Q8.8 (dense rows, DCNN meta rows, and
    /// every row of every stored SCNN orientation).
    pub weight_rows: u64,
    /// Individual weight values quantized across those rows.
    pub weight_values: u64,
    /// SCNN orientations stored: per orbit group, one per weight set and
    /// variant its reads use (4 per full group under
    /// [`ReuseConfig::FULL`], 6 under ERRR alone, 12 under PPSR alone
    /// and 8 with neither).
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
    /// One group of a transferred stage, run by the one transferred
    /// executor (boxed: a group is many times the other kinds' size).
    Lanes(Box<LaneGroup>),
}

/// How a [`LaneGroup`] stores its lanes, and so how the transferred
/// executor fills a ring row and emits a window; everything else about
/// a group (its read schedule, ring and charges) is the same in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// One orbit or meta group whose blocks sit back to back (the
    /// [`tap`] group of one): a ring row holds one batch-wide stream
    /// per lane, weight row and offset call, each filled by one
    /// `ppsr::row_sweep`, and each window's emits combine their own
    /// lane's streams.
    Rows,
    /// Up to [`FILTER_GROUP`] lanes tap-major: a ring row holds one
    /// `[positions × G]` part per weight row and offset call, each
    /// filled by one filter-vector pass across every lane, and each
    /// window combines once for all its emits.
    Lanes,
}

impl Layout {
    /// The layout of a transferred stage of `lanes` lanes and stored
    /// span `kw` ([`MIN_VECTOR_FILTERS`]).
    fn of(lanes: usize, kw: usize) -> Layout {
        if kw >= 2 && lanes >= MIN_VECTOR_FILTERS {
            Layout::Lanes
        } else {
            Layout::Rows
        }
    }

    /// The [`tap`] group the layout stores its lanes in.
    pub(crate) fn width(self) -> usize {
        match self {
            Layout::Rows => 1,
            Layout::Lanes => FILTER_GROUP,
        }
    }
}

/// One group of a transferred stage: the blocks of consecutive orbit or
/// meta groups (never part of one) as lanes, stored from `base` in
/// `layout`'s [`tap`] group — tap `col` of row `(c, r)` of lane `l` is
/// at `base + tap(width, N·rows, cols, l, c·rows + r, col)`. An SCNN
/// lane is one stored `(set, variant)` block of an orbit group
/// (`rows = K`, `cols = KW`), a DCNN lane one meta group (`rows = Z`,
/// `cols = ZW`) or, on offset lanes, one `(meta group, dx)` pair: the
/// meta rows' columns `dx·d .. dx·d + KW` (`rows = Z`, `cols = KW`).
/// Only the last [`Layout::Lanes`] group may have `live < G`; its other
/// lanes hold zeros.
///
/// Per input row a window reads, the ring row holds every lane's `rows
/// × offsets` parts, offset call `dx` reading weights from column `dx·d`
/// (a DCNN meta lane's calls; SCNN and DCNN offset lanes have one);
/// each [`LaneWindow`] combines `K` of those parts per output row and
/// emits its lanes' planes. The charges are the member groups' closed
/// forms, summed at compile time.
#[derive(Debug, Clone)]
pub(crate) struct LaneGroup {
    pub(crate) layout: Layout,
    pub(crate) m0: usize,
    /// Planes emitted, from `m0` on: the member groups' reads.
    pub(crate) planes: usize,
    pub(crate) base: usize,
    pub(crate) live: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) offsets: usize,
    /// What the member groups charge per ring row: their row passes'
    /// closed forms (`charge_dcnn`/`charge_scnn`) and ring writes of one
    /// `PW−KW+1`-word image lane per part. Zero for DCNN without ERRR.
    pub(crate) row_charge: Counters,
    /// What the member groups charge per output row: `(K−1)·F` combine
    /// adds per read and, with ERRR, `K` ring reads of one lane each;
    /// DCNN without ERRR also recomputes every `K`-row window of its
    /// meta rows, read or not.
    pub(crate) window_charge: Counters,
    pub(crate) windows: Vec<LaneWindow>,
}

/// One combine of a lane group per output row: the parts of rows
/// `read.first ..` at offset call `read.variant`, in `ky` order or, when
/// `read.reversed`, rows flipped, and the `(lane, plane)` pairs it
/// emits.
#[derive(Debug, Clone)]
pub(crate) struct LaneWindow {
    pub(crate) read: Read,
    pub(crate) emits: Vec<(usize, usize)>,
}

/// One emitted plane's window: the parts of rows `first .. first + K`
/// at offset call `variant`, combined in `ky` order, or in reverse row
/// order when `reversed` (ERRR's vertical flip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Read {
    pub(crate) first: usize,
    pub(crate) reversed: bool,
    pub(crate) variant: usize,
}

impl Read {
    /// The weight row window part `ky` reads.
    pub(crate) fn row(self, k: usize, ky: usize) -> usize {
        self.first + if self.reversed { k - 1 - ky } else { ky }
    }
}

impl UnitIr {
    /// The contiguous ofmap plane range this unit emits. Units are
    /// compiled in ascending plane order and their ranges tile `0..M`
    /// exactly — the invariant the intra-run partitioner
    /// (`engine/exec.rs`) relies on to hand disjoint, contiguous output
    /// slices to worker threads.
    pub(crate) fn plane_range(&self) -> std::ops::Range<usize> {
        match self {
            UnitIr::Dense { m, .. } | UnitIr::Sparse { m, .. } => *m..*m + 1,
            UnitIr::Filters { m0, live, .. } => *m0..*m0 + live,
            UnitIr::Lanes(group) => group.m0..group.m0 + group.planes,
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
    /// All quantized weights of the stage, contiguous: filter rows, a
    /// dense stage's filter groups or a transferred stage's lane groups
    /// ([`tap`]).
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
/// to 2.2× slower on 30-position rows. A transferred stage needs as many
/// lanes for [`Layout::Lanes`]: from 16 lanes it won every cell of
/// DESIGN §5.10's lane grid, while at 4–12 lanes it lost up to 2.8× on
/// batches of long rows.
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

/// An SCNN orbit group's read schedule under `reuse`: the sorted
/// source orientations its first `emitted` members read ([`source_of`]),
/// one weight set each, and each member's window key and lane: its
/// rows in order or flipped, from its source set's block `set ·
/// variants + variant`.
fn scnn_schedule(emitted: usize, reuse: ReuseConfig) -> (Vec<usize>, Vec<(Read, usize)>) {
    let variants = 1 + usize::from(reuse.ppsr);
    let sources: Vec<_> = (0..emitted).map(|oi| source_of(oi, reuse)).collect();
    let mut sets: Vec<usize> = sources.iter().map(|&(source, ..)| source).collect();
    sets.sort_unstable();
    sets.dedup();
    let reads = sources
        .iter()
        .map(|&(source, variant, reversed)| {
            let set = sets.binary_search(&source).expect("every source has a set");
            let key = Read {
                first: 0,
                reversed,
                variant: 0,
            };
            (key, set * variants + variant)
        })
        .collect();
    (sets, reads)
}

/// Writes orbit member `oi`'s quantized weights from its stored base
/// through its flips: `put(c·K + ky, kx, w)` for every tap of its `[c][ky]`
/// rows.
fn write_orientation(
    group: &ScnnGroup,
    oi: usize,
    (n, k): (usize, usize),
    stats: &mut PrepareStats,
    mut put: impl FnMut(usize, usize, Fx16),
) {
    let o = Orientation::of(ORIENTATIONS[oi]);
    let base = group.base(o.base);
    // The member is its base, then its flips (`D4::decompose`).
    let flips = ORIENTATIONS[orientation_index(o.base, false, false)]
        .inverse()
        .then(ORIENTATIONS[oi]);
    for c in 0..n {
        for y in 0..k {
            for x in 0..k {
                let (ty, tx) = flips.apply_index(k, y, x);
                put(c * k + ty, tx, Fx16::from_f32(base[(c * k + y) * k + x]));
            }
        }
    }
    stats.scnn_orientations += 1;
    stats.weight_rows += (n * k) as u64;
    stats.weight_values += (n * k * k) as u64;
}

/// Where each orbit or meta group's blocks sit in the table, as lane
/// indices of the one [`tap`] index: group `u`'s `blocks[u]` lanes are
/// `first[u]..`. A group of one puts them back to back; `G` lanes pack
/// whole orbit or meta groups, one that would straddle two lane groups
/// starting the next. Returns the firsts and the slots the table holds.
fn place_blocks(blocks: &[usize], group: usize) -> (Vec<usize>, usize) {
    let mut next = 0;
    let firsts = blocks
        .iter()
        .map(|&b| {
            if next % group + b > group {
                next = next.next_multiple_of(group);
            }
            next += b;
            next - b
        })
        .collect();
    (firsts, next.next_multiple_of(group))
}

/// One orbit or meta group's share of its stage's read schedule: its
/// first plane, its lanes, the row passes one input row costs it (`sets
/// × rows`), and each emitted plane's window key and lane within the
/// group, in plane order.
struct Member {
    m0: usize,
    lanes: usize,
    passes: usize,
    reads: Vec<(Read, usize)>,
}

/// What every lane of a transferred stage shares: the layout, each
/// lane's block shape and offset calls, one row pass's closed-form
/// charge (`charge_dcnn`/`charge_scnn`), and whether each output row is
/// charged recomputing every `K`-row window of its weight rows (DCNN
/// without ERRR) rather than each ring row once. Either way the run
/// computes each ring row once: the values are the same.
struct Blocks {
    layout: Layout,
    rows: usize,
    cols: usize,
    offsets: usize,
    charge: Counters,
    recompute: bool,
}

/// Folds a transferred stage's members into [`LaneGroup`]s, member `u`'s
/// lanes starting at `firsts[u]` ([`place_blocks`] in the layout's
/// group): a [`Layout::Lanes`] group holds the members placed in one
/// `G`-lane group, a [`Layout::Rows`] group one member. A member without
/// lanes (an orbit group past the last filter) runs nothing. Each group
/// sums its members' closed-form charges; the transferred executor only
/// adds them up, per ring row and per output row.
fn fold_groups(
    members: &[Member],
    firsts: &[usize],
    shape: &LayerShape,
    blocks: &Blocks,
) -> Vec<UnitIr> {
    let geo = Geo::of(shape);
    let (k, width) = (geo.k, blocks.layout.width());
    let lane_width = (geo.pw - geo.kw + 1) as u64;
    let mut groups: Vec<LaneGroup> = Vec::new();
    for (member, &first) in members.iter().zip(firsts) {
        if member.lanes == 0 {
            continue;
        }
        let (g, lane0) = match blocks.layout {
            Layout::Rows => (groups.len(), 0),
            Layout::Lanes => (first / width, first % width),
        };
        if groups.len() == g {
            groups.push(LaneGroup {
                layout: blocks.layout,
                m0: member.m0.min(geo.m),
                planes: 0,
                base: tap(width, geo.n * blocks.rows, blocks.cols, first, 0, 0),
                live: 0,
                rows: blocks.rows,
                cols: blocks.cols,
                offsets: blocks.offsets,
                row_charge: Counters::new(),
                window_charge: Counters::new(),
                windows: Vec::new(),
            });
        }
        let group = groups.last_mut().expect("a member's group was just pushed");
        group.live = lane0 + member.lanes;
        let passes = |count: usize| std::iter::repeat_n(blocks.charge, count).sum::<Counters>();
        if blocks.recompute {
            let windows = member.passes / blocks.rows * (blocks.rows + 1 - k);
            group.window_charge += passes(windows * k);
        } else {
            group.row_charge += passes(member.passes);
            let parts = member.lanes * blocks.rows * blocks.offsets;
            group.row_charge.psum_mem_writes += parts as u64 * lane_width;
        }
        for (i, &(key, lane)) in member.reads.iter().enumerate() {
            if !blocks.recompute {
                group.window_charge.psum_mem_reads += k as u64 * lane_width;
            }
            group.window_charge.adds += (k.saturating_sub(1) * geo.f) as u64;
            let emit = (lane0 + lane, member.m0 + i);
            match group.windows.iter_mut().find(|w| w.read == key) {
                Some(window) => window.emits.push(emit),
                None => group.windows.push(LaneWindow {
                    read: key,
                    emits: vec![emit],
                }),
            }
            group.planes += 1;
        }
    }
    groups
        .into_iter()
        .map(|group| UnitIr::Lanes(Box::new(group)))
        .collect()
}

/// Whether a DCNN stage of `metas` meta groups, `per_axis` offset calls
/// and stored span `kw` takes offset lanes: one lane per `(meta group,
/// dx)` pair instead of one per meta group. It does when those lanes
/// reach [`Layout::Lanes`] and, packed as [`place_blocks`] packs them,
/// take fewer lane groups than the meta lanes take filter-vector calls
/// per weight row (`groups · per_axis`); a tie keeps the meta lanes,
/// whose table is smaller. So a stage whose meta groups leave lanes idle
/// fills them (DCNN4's 16 meta groups at 64 filters take 32 lanes), and
/// one whose meta groups fill whole lane groups keeps its meta lanes.
fn offset_lanes(metas: usize, per_axis: usize, kw: usize) -> bool {
    let groups = |lanes: usize| place_blocks(&vec![lanes; metas], FILTER_GROUP).1 / FILTER_GROUP;
    per_axis <= FILTER_GROUP
        && Layout::of(metas * per_axis, kw) == Layout::Lanes
        && groups(per_axis) < groups(1) * per_axis
}

/// Rejects transferred weights that yield fewer than the stage's `m`
/// filters (`effective`), as `expand_to_dense` does.
fn check_filters(what: &'static str, m: usize, effective: usize) -> Result<(), SimError> {
    if effective < m {
        return Err(SimError::OperandMismatch {
            what,
            expected: m,
            actual: effective,
        });
    }
    Ok(())
}

/// Rejects an operand `actual` that disagrees with the stage's
/// `expected`: the one check behind every operand mismatch compile and
/// the run phase report.
pub(crate) fn check_operand(
    what: &'static str,
    expected: usize,
    actual: usize,
) -> Result<(), SimError> {
    if expected == actual {
        Ok(())
    } else {
        Err(SimError::OperandMismatch {
            what,
            expected,
            actual,
        })
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
    check_operand("layer filter count", shape.m(), weights.filters())?;
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
    let pw = Geo::of(&shape).pw;
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
            check_operand("dense weight channels", cpg, weights.dims()[1])?;
            zero_taps = compile_dense(&shape, weights, *policy, &mut rows, &mut units, stats);
        }
        TransferredLayer::Dcnn {
            k: layer_k, metas, ..
        } => {
            check_operand("DCNN filter extent", k, *layer_k)?;
            // Every lane is one block shape: each meta group's `Z` must
            // be the first's and its channels the stage's.
            let z = metas.first().map_or(k, |meta| meta.z());
            for meta in metas {
                check_operand("DCNN meta size", z, meta.z())?;
                check_operand("DCNN meta channels", n, meta.channels())?;
            }
            let per_axis = match metas.first() {
                Some(meta) => meta.offsets_per_axis(k)?,
                None => 1,
            };
            let grid = per_axis * per_axis;
            check_filters("DCNN effective filters", shape.m(), metas.len() * grid)?;
            // Metas past the last filter emit nothing: no lanes, no table
            // block, no charge.
            let metas = &metas[..shape.m().div_ceil(grid)];
            let zw = d * (z - 1) + 1;
            // A lane is one meta group, or on offset lanes one (meta
            // group, dx) pair: offset dx's KW-column slice of the meta
            // rows, columns dx·d .. dx·d + KW, read in one call.
            let offset = offset_lanes(metas.len(), per_axis, kw);
            let (layout, lanes, cols, offsets) = if offset {
                (Layout::Lanes, per_axis, kw, 1)
            } else {
                (Layout::of(metas.len(), kw), 1, zw, per_axis)
            };
            let width = layout.width();
            let (firsts, slots) = place_blocks(&vec![lanes; metas.len()], width);
            rows.resize(slots * n * z * cols, Fx16::ZERO);
            if offset {
                // Each meta value is quantized once, then scattered into
                // the slices whose columns hold it.
                for (&first, meta) in firsts.iter().zip(metas) {
                    for c in 0..n {
                        for kr in 0..z {
                            stats.weight_rows += 1;
                            stats.weight_values += z as u64;
                            let row = c * z + kr;
                            for x in 0..z {
                                let w = Fx16::from_f32(meta.get(c, kr, x));
                                for dx in x.saturating_sub(k - 1)..=x.min(per_axis - 1) {
                                    rows[tap(width, n * z, kw, first + dx, row, (x - dx) * d)] = w;
                                }
                            }
                        }
                    }
                }
            } else {
                for (g, meta) in metas.iter().enumerate() {
                    for c in 0..n {
                        for kr in 0..z {
                            stats.weight_rows += 1;
                            stats.weight_values += z as u64;
                            for x in 0..z {
                                let at = tap(width, n * z, zw, g, c * z + kr, x * d);
                                rows[at] = Fx16::from_f32(meta.get(c, kr, x));
                            }
                        }
                    }
                }
            }
            // Filter (dy, dx) of a group reads its meta rows dy.. at
            // offset call dx, or from lane dx on offset lanes; the grid
            // stops at the last filter.
            let members: Vec<Member> = (0..metas.len())
                .map(|g| {
                    let m0 = g * grid;
                    let reads = (0..grid)
                        .take(shape.m() - m0)
                        .map(|t| {
                            let (dy, dx) = (t / per_axis, t % per_axis);
                            let (variant, lane) = if offset { (0, dx) } else { (dx, 0) };
                            let key = Read {
                                first: dy,
                                reversed: false,
                                variant,
                            };
                            (key, lane)
                        })
                        .collect();
                    Member {
                        m0,
                        lanes,
                        passes: z,
                        reads,
                    }
                })
                .collect();
            let mut charge = Counters::new();
            let _ = charge_dcnn(z, k, d, pw, n, reuse.ppsr, &mut charge);
            let blocks = Blocks {
                layout,
                rows: z,
                cols,
                offsets,
                charge,
                recompute: !reuse.errr,
            };
            units = fold_groups(&members, &firsts, &shape, &blocks);
        }
        TransferredLayer::Scnn { m: m_count, groups } => {
            for group in groups {
                check_operand("SCNN group channels", n, group.channels())?;
                check_operand("SCNN group extent", k, group.k())?;
            }
            check_filters("SCNN effective filters", *m_count, groups.len() * ORBIT)?;
            let variants = 1 + usize::from(reuse.ppsr);
            let schedules: Vec<_> = (0..groups.len())
                .map(|g| scnn_schedule(m_count.saturating_sub(g * ORBIT).min(ORBIT), reuse))
                .collect();
            let lanes: Vec<usize> = schedules
                .iter()
                .map(|(sets, _)| sets.len() * variants)
                .collect();
            let layout = Layout::of(lanes.iter().sum(), kw);
            let width = layout.width();
            let (firsts, slots) = place_blocks(&lanes, width);
            rows.resize(slots * n * k * kw, Fx16::ZERO);
            let mut members = Vec::with_capacity(groups.len());
            for ((g, group), ((sets, reads), &first)) in groups
                .iter()
                .enumerate()
                .zip(schedules.into_iter().zip(&firsts))
            {
                for (set, &source) in sets.iter().enumerate() {
                    for v in 0..variants {
                        let lane = first + set * variants + v;
                        write_orientation(group, source ^ v, (n, k), stats, |row, kx, w| {
                            rows[tap(width, n * k, kw, lane, row, kx * d)] = w;
                        });
                    }
                }
                members.push(Member {
                    m0: g * ORBIT,
                    lanes: sets.len() * variants,
                    passes: sets.len() * k,
                    reads,
                });
            }
            let mut charge = Counters::new();
            let _ = charge_scnn(k, kw, pw, n, reuse.ppsr, &mut charge);
            let blocks = Blocks {
                layout,
                rows: k,
                cols: kw,
                offsets: 1,
                charge,
                recompute: false,
            };
            units = fold_groups(&members, &firsts, &shape, &blocks);
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
                        let planes = u.plane_range();
                        (kind, planes.start, planes.len())
                    })
                    .collect();
                assert_eq!(got, units, "{label} under {policy:?}");
            }
        }
        // Transferred stages take their layout from their lanes whatever
        // the policy: 32 SCNN filters are 16 lanes, 8 filters 4
        // (`transferred_stages_compile_to_lane_groups` pins the rule).
        for (m, lanes) in [(32, true), (8, false)] {
            let shape = conv(4, m, 3);
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
                let layout = if lanes { Layout::Lanes } else { Layout::Rows };
                assert!(
                    lane_groups(&stage).iter().all(|g| g.layout == layout),
                    "{m} filters under {policy:?}"
                );
            }
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

    /// A random transferred stage of 3 channels, `K = 3` and dilation
    /// `d`, compiled under `reuse`, with its weights and compile stats.
    fn transferred_stage(
        m: usize,
        scheme: TransferScheme,
        d: usize,
        reuse: ReuseConfig,
    ) -> (TransferredLayer, StageIr, PrepareStats) {
        let mut seed = 7u32;
        let shape = LayerShape::conv("flip", 3, m, 9, 9, 3, 1, 2)
            .unwrap()
            .with_dilation(d)
            .unwrap();
        let weights = TransferredLayer::random(&shape, scheme, || {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            ((seed >> 16) as f32 / 65536.0) - 0.5
        })
        .unwrap();
        let mut stats = PrepareStats::default();
        let policy = ModePolicy::default();
        let output = OutputConfig::RELU_ONLY;
        let stage = compile_stage(&shape, &weights, &[], output, reuse, &mut stats, &policy);
        (weights, stage.unwrap(), stats)
    }

    /// A transferred stage's groups.
    fn lane_groups(stage: &StageIr) -> Vec<&LaneGroup> {
        let units = stage.units.iter().map(|u| match u {
            UnitIr::Lanes(group) => &**group,
            _ => panic!("a transferred stage compiles to lane groups"),
        });
        units.collect()
    }

    /// Which layout each transferred stage compiles to, and what its
    /// groups hold. A stage on the other layout would pass every parity
    /// suite, so the rule is pinned here: at least 16 lanes (a stored
    /// SCNN block, a DCNN meta group with or without ERRR, or a DCNN
    /// `(meta group, dx)` pair) and a stored span of two taps take
    /// [`Layout::Lanes`]; every other stage takes [`Layout::Rows`], one
    /// group per orbit or meta group. A DCNN stage takes offset lanes
    /// where they reach 16 and pack into fewer lane groups than the meta
    /// lanes make calls ([`offset_lanes`]; ties keep meta lanes). Every
    /// stage of the VGG-16 trunk takes lanes under SCNN and DCNN4, DCNN4's
    /// conv1_x (16 meta groups) offset lanes; the fleet's 8-filter SCNN
    /// stages (4 lanes) take rows.
    ///
    /// In both layouts: orbit and meta groups pack into lane groups of
    /// the layout's width without straddling, the plane ranges tile
    /// `0..M`, every lane's block sits where [`tap`] says, and each
    /// window's `(lane, plane)` pairs are the reads the schedule makes:
    /// an SCNN member's lane is its source's stored `(set, variant)`
    /// block, its window the rows in order or flipped; a DCNN filter
    /// `(dy, dx)` reads its meta group's lane at rows `dy..` and offset
    /// call `dx`, or on offset lanes lane `dx` of its meta group, whose
    /// block is columns `dx·d ..` of the meta rows, in one call.
    #[test]
    fn transferred_stages_compile_to_lane_groups() {
        let (scnn, dcnn4, dcnn6) = (
            TransferScheme::Scnn,
            TransferScheme::DCNN4,
            TransferScheme::DCNN6,
        );
        let (full, errr, ppsr, none) = (
            ReuseConfig::FULL,
            ReuseConfig::ERRR_ONLY,
            ReuseConfig::PPSR_ONLY,
            ReuseConfig::NONE,
        );
        // (scheme, filters, reuse, DCNN offset lanes, each lane group's
        // (first plane, planes, lanes)); no groups: the row layout, one
        // group per stored orbit or meta group.
        type Groups = &'static [(usize, usize, usize)];
        let dcnn4_144: Groups = &[(0, 64, 32), (64, 64, 32), (128, 16, 8)];
        let cells: [(TransferScheme, usize, ReuseConfig, bool, Groups); 18] = [
            (scnn, 24, full, false, &[]),
            (scnn, 32, full, false, &[(0, 32, 16)]),
            (scnn, 72, full, false, &[(0, 64, 32), (64, 8, 4)]),
            (scnn, 16, errr, false, &[]),
            (scnn, 24, errr, false, &[(0, 24, 18)]),
            (scnn, 64, errr, false, &[(0, 40, 30), (40, 24, 18)]),
            (scnn, 12, ppsr, false, &[(0, 12, 18)]),
            (scnn, 16, none, false, &[(0, 16, 16)]),
            (dcnn4, 28, full, false, &[]),
            (dcnn4, 60, full, true, &[(0, 60, 30)]),
            (dcnn4, 32, full, true, &[(0, 32, 16)]),
            (dcnn4, 128, full, false, &[(0, 128, 32)]),
            (dcnn4, 144, full, true, dcnn4_144),
            (dcnn4, 144, none, true, dcnn4_144),
            (dcnn4, 144, ppsr, true, dcnn4_144),
            (dcnn6, 64, full, true, &[(0, 64, 16)]),
            (dcnn6, 256, errr, true, &[(0, 128, 32), (128, 128, 32)]),
            (dcnn6, 512, errr, false, &[(0, 512, 32)]),
        ];
        let (n, k) = (3, 3);
        for (scheme, m, reuse, offset, expected) in cells {
            let variants = 1 + usize::from(reuse.ppsr);
            for d in [1, 2] {
                let at = format!("{scheme:?} M {m} {reuse:?} d={d}");
                let (weights, stage, _) = transferred_stage(m, scheme, d, reuse);
                // Each stored orbit or meta group's (first plane, planes,
                // lanes).
                let mut per_axis = 1;
                let members: Vec<(usize, usize, usize)> = match &weights {
                    TransferredLayer::Scnn { groups, .. } => (0..groups.len())
                        .map(|g| {
                            let emitted = m.saturating_sub(g * ORBIT).min(ORBIT);
                            let (sets, _) = scnn_schedule(emitted, reuse);
                            (g * ORBIT, emitted, sets.len() * variants)
                        })
                        .collect(),
                    TransferredLayer::Dcnn { metas, .. } => {
                        per_axis = metas[0].z() + 1 - k;
                        let grid = per_axis * per_axis;
                        let planes = |g: usize| grid.min(m - g * grid);
                        let lanes = if offset { per_axis } else { 1 };
                        let members = (0..metas.len()).map(|g| (g * grid, planes(g), lanes));
                        members.collect()
                    }
                    TransferredLayer::Dense { .. } => unreachable!("a transferred layer"),
                };
                let (layout, expected) = if expected.is_empty() {
                    (Layout::Rows, members.clone())
                } else {
                    (Layout::Lanes, expected.to_vec())
                };
                let groups = lane_groups(&stage);
                let got: Vec<_> = groups.iter().map(|g| (g.m0, g.planes, g.live)).collect();
                assert_eq!(got, expected, "{at}");
                assert!(groups.iter().all(|g| g.layout == layout), "{at}");
                // An offset lane's block is one call of KW columns; a meta
                // lane's is ZW columns read at every offset call.
                let kw = d * (k - 1) + 1;
                let shape = if offset {
                    (kw, 1)
                } else {
                    (d * (k + per_axis - 2) + 1, per_axis)
                };
                assert!(groups.iter().all(|g| (g.cols, g.offsets) == shape), "{at}");
                // The table: every lane's block where `tap` puts it, whole
                // orbit and meta groups per lane group, the last lane
                // group's missing lanes zero.
                let width = layout.width();
                let (rows, cols) = (groups[0].rows, groups[0].cols);
                let block = n * rows * cols;
                let mut next = 0;
                let firsts: Vec<usize> = members
                    .iter()
                    .map(|&(.., lanes)| {
                        if next % width + lanes > width {
                            next = next.next_multiple_of(width);
                        }
                        next += lanes;
                        next - lanes
                    })
                    .collect();
                assert_eq!(
                    stage.rows.len(),
                    next.next_multiple_of(width) * block,
                    "{at}"
                );
                let mut expected_rows = vec![Fx16::ZERO; stage.rows.len()];
                let mut lane_of = std::collections::HashMap::new();
                match &weights {
                    TransferredLayer::Scnn { groups: orbits, .. } => {
                        for (g, orbit) in orbits.iter().enumerate() {
                            let emitted = m.saturating_sub(g * ORBIT).min(ORBIT);
                            let (sets, _) = scnn_schedule(emitted, reuse);
                            for (set, &source) in sets.iter().enumerate() {
                                for v in 0..variants {
                                    let lane = firsts[g] + set * variants + v;
                                    lane_of.insert((g, source, v), lane);
                                    let oriented = orbit.orient(source ^ v);
                                    for (i, &w) in oriented.iter().enumerate() {
                                        let (row, kx) = (i / k, i % k);
                                        let slot = tap(width, n * k, cols, lane, row, kx * d);
                                        expected_rows[slot] = Fx16::from_f32(w);
                                    }
                                }
                            }
                        }
                    }
                    TransferredLayer::Dcnn { metas, .. } => {
                        // Lane `dx` of an offset-lane meta group holds
                        // meta columns `dx .. dx + K`; a meta lane all.
                        let slices: Vec<(usize, std::ops::Range<usize>)> = if offset {
                            (0..per_axis).map(|dx| (dx, dx..dx + k)).collect()
                        } else {
                            vec![(0, 0..rows)]
                        };
                        for (g, meta) in metas.iter().enumerate() {
                            for c in 0..n {
                                for kr in 0..rows {
                                    for (dx, columns) in &slices {
                                        for x in columns.clone() {
                                            let row = c * rows + kr;
                                            let (lane, col) =
                                                (firsts[g] + dx, (x - columns.start) * d);
                                            let slot = tap(width, n * rows, cols, lane, row, col);
                                            expected_rows[slot] =
                                                Fx16::from_f32(meta.get(c, kr, x));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    TransferredLayer::Dense { .. } => unreachable!("a transferred layer"),
                }
                assert_eq!(stage.rows, expected_rows, "{at}");
                // The windows: every plane emitted once, from the lane
                // and rows the schedule's read uses.
                let mut planes = vec![0; m];
                for group in &groups {
                    assert_eq!(group.base % (width * block), 0, "{at}");
                    for window in &group.windows {
                        for &(lane, plane) in &window.emits {
                            planes[plane] += 1;
                            let lane = group.base / block + lane;
                            let read = window.read;
                            if scheme == scnn {
                                let (source, variant, reversed) = source_of(plane % ORBIT, reuse);
                                let stored = lane_of[&(plane / ORBIT, source, variant)];
                                assert_eq!(lane, stored, "{at} plane {plane}");
                                assert_eq!(
                                    (read.first, read.reversed, read.variant),
                                    (0, reversed, 0),
                                    "{at}"
                                );
                            } else {
                                let t = plane % (per_axis * per_axis);
                                let (dy, dx) = (t / per_axis, t % per_axis);
                                let (lane_dx, variant) = if offset { (dx, 0) } else { (0, dx) };
                                assert_eq!(
                                    lane,
                                    firsts[plane / (per_axis * per_axis)] + lane_dx,
                                    "{at} plane {plane}"
                                );
                                assert_eq!(
                                    (read.first, read.reversed, read.variant),
                                    (dy, false, variant),
                                    "{at}"
                                );
                            }
                        }
                    }
                }
                assert!(planes.iter().all(|&p| p == 1), "{at}: {planes:?}");
            }
        }
        // The trunk's stages at their channel and filter counts, and the
        // fleet's miniature SCNN stages (3 → 8 at K = 3 and 5, 8 → 8).
        let compile = |shape: &LayerShape, scheme: TransferScheme| {
            let mut seed = 11u32;
            let weights = TransferredLayer::random(shape, scheme, || {
                seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
                (seed >> 16) as f32 / 65536.0 - 0.5
            })
            .unwrap();
            let policy = ModePolicy::default();
            let output = OutputConfig::RELU_ONLY;
            compile_stage(
                shape,
                &weights,
                &[],
                output,
                full,
                &mut PrepareStats::default(),
                &policy,
            )
            .unwrap()
        };
        for layer in tfe_nets::zoo::vgg16().conv_layers() {
            let s = layer.shape();
            let shape = LayerShape::conv(s.name(), s.n(), s.m(), 2, 2, s.k(), 1, 1).unwrap();
            for scheme in [scnn, dcnn4] {
                let stage = compile(&shape, scheme);
                let groups = lane_groups(&stage);
                assert!(
                    groups.iter().all(|g| g.layout == Layout::Lanes),
                    "{} under {scheme:?}",
                    s.name()
                );
                // conv1_x's 16 meta groups fill 32 lanes as offset lanes.
                let offsets = if scheme == dcnn4 && s.m() > 64 { 2 } else { 1 };
                assert!(
                    groups.iter().all(|g| g.offsets == offsets),
                    "{} under {scheme:?}",
                    s.name()
                );
            }
        }
        for (n, k) in [(3, 3), (3, 5), (8, 3)] {
            let shape = LayerShape::conv("mini", n, 8, 12, 12, k, 1, k / 2).unwrap();
            let stage = compile(&shape, scnn);
            let layouts: Vec<_> = lane_groups(&stage).iter().map(|g| g.layout).collect();
            assert_eq!(layouts, [Layout::Rows], "{n} -> 8 at K = {k}");
        }
    }

    /// Row-layout lane `lane` of `group`: its `[c][r]` rows of `cols`.
    fn lane_block<'a>(stage: &'a StageIr, group: &LaneGroup, lane: usize) -> &'a [Fx16] {
        let block = stage.shape.n() * group.rows * group.cols;
        &stage.rows[group.base + lane * block..][..block]
    }

    /// The mirrored stream is the forward pass over a set's variant-1
    /// block, so compile must store every variant-1 block as its set's
    /// rows reversed — zero-stuffing included — in every group, the
    /// partial last one too.
    #[test]
    fn flip_h_partner_rows_are_the_rows_reversed() {
        for dilation in [1, 2] {
            // 12 filters: one full orbit group and a partial one of 4.
            let (_, stage, _) =
                transferred_stage(12, TransferScheme::Scnn, dilation, ReuseConfig::FULL);
            let kw = dilation * 2 + 1;
            let groups = lane_groups(&stage);
            assert_eq!(groups.len(), 2, "d={dilation}");
            for group in groups {
                assert_eq!(group.layout, Layout::Rows, "d={dilation}");
                for set in 0..group.live / 2 {
                    let rows = lane_block(&stage, group, 2 * set).chunks_exact(kw);
                    let partner = lane_block(&stage, group, 2 * set + 1).chunks_exact(kw);
                    for (i, (row, mirrored)) in rows.zip(partner).enumerate() {
                        let mut reversed = row.to_vec();
                        reversed.reverse();
                        assert_eq!(mirrored, reversed, "d={dilation} set={set} row={i}");
                    }
                }
            }
        }
    }

    /// Each plane's `(lane, first, reversed, variant)` read, from the
    /// window that emits it, in plane order from the group's `m0`.
    fn plane_reads(group: &LaneGroup) -> Vec<(usize, usize, bool, usize)> {
        let mut reads = vec![None; group.planes];
        for w in &group.windows {
            for &(lane, plane) in &w.emits {
                let read = (lane, w.read.first, w.read.reversed, w.read.variant);
                reads[plane - group.m0] = Some(read);
            }
        }
        reads
            .into_iter()
            .map(|r| r.expect("every plane read"))
            .collect()
    }

    /// Compile derives each orbit or meta group's read schedule and
    /// stores only the blocks its reads use.
    ///
    /// SCNN, one full and one partial orbit group (10 filters: at most
    /// 14 lanes, so rows), under every reuse configuration: the sets are
    /// the sorted sources [`source_of`] resolves for the emitted
    /// members, each member reads its source's `(set, variant)` block
    /// with its row flip, every stored block is that orientation's rows
    /// (`oi ^ v` for variant `v`) quantized and zero-stuffed, and the
    /// groups' tables are back to back, `sets × variants` blocks of `N ×
    /// K × KW` each: a full group's 4, 6, 12 or 8 blocks. DCNN: the reads
    /// are the `(dy, dx)` grid, clamped at `M`, and only DCNN without
    /// ERRR is charged no ring traffic.
    #[test]
    fn units_store_only_the_sets_their_reads_use() {
        let configs = [
            (ReuseConfig::FULL, 4),
            (ReuseConfig::ERRR_ONLY, 6),
            (ReuseConfig::PPSR_ONLY, 12),
            (ReuseConfig::NONE, 8),
        ];
        let (n, k) = (3, 3);
        for (reuse, full_blocks) in configs {
            let variants = 1 + usize::from(reuse.ppsr);
            for d in [1, 2] {
                let kw = d * (k - 1) + 1;
                let (weights, stage, stats) = transferred_stage(10, TransferScheme::Scnn, d, reuse);
                let TransferredLayer::Scnn { groups, .. } = &weights else {
                    unreachable!("an SCNN layer")
                };
                let mut blocks = 0;
                for ((group, orbit), emitted) in
                    lane_groups(&stage).into_iter().zip(groups).zip([8, 2])
                {
                    let at = format!("{reuse:?} d={d} group of {emitted}");
                    let sources: Vec<_> = (0..emitted).map(|oi| source_of(oi, reuse)).collect();
                    let mut sets: Vec<usize> = sources.iter().map(|&(source, ..)| source).collect();
                    sets.sort_unstable();
                    sets.dedup();
                    assert_eq!(group.live, sets.len() * variants, "{at}");
                    assert_eq!(
                        (group.layout, group.rows, group.cols, group.offsets),
                        (Layout::Rows, k, kw, 1),
                        "{at}"
                    );
                    let reads: Vec<_> = plane_reads(group)
                        .into_iter()
                        .map(|(lane, first, flip, dx)| {
                            (sets[lane / variants], lane % variants, flip, first, dx)
                        })
                        .collect();
                    let expected: Vec<_> = sources
                        .iter()
                        .map(|&(s, v, flip)| (s, v, flip, 0, 0))
                        .collect();
                    assert_eq!(reads, expected, "{at}");
                    assert_eq!(group.base, blocks * n * k * kw, "{at}");
                    for (set, &source) in sets.iter().enumerate() {
                        for v in 0..variants {
                            let mut rows = vec![Fx16::ZERO; n * k * kw];
                            for (i, &w) in orbit.orient(source ^ v).iter().enumerate() {
                                rows[i / k * kw + i % k * d] = Fx16::from_f32(w);
                            }
                            let lane = set * variants + v;
                            assert_eq!(
                                lane_block(&stage, group, lane),
                                rows,
                                "{at} set={set} v={v}"
                            );
                        }
                    }
                    if emitted == 8 {
                        assert_eq!(group.live, full_blocks, "{at}");
                    }
                    blocks += group.live;
                }
                assert_eq!(stage.rows.len(), blocks * n * k * kw, "{reuse:?} d={d}");
                assert_eq!(stats.scnn_orientations, blocks as u64, "{reuse:?} d={d}");
            }
            // DCNN6 at K = 3: groups of 16 filters, a 4 × 4 offset grid;
            // of 20 filters the second group emits only offset row 0.
            let (_, stage, _) = transferred_stage(20, TransferScheme::DCNN6, 1, reuse);
            for (group, (m0, emitted)) in lane_groups(&stage).into_iter().zip([(0, 16), (16, 4)]) {
                let grid = (0..4).flat_map(|dy| (0..4).map(move |dx| (0, dy, false, dx)));
                let grid: Vec<_> = grid.take(emitted).collect();
                assert_eq!(plane_reads(group), grid, "{reuse:?}");
                assert_eq!(
                    (
                        group.layout,
                        group.m0,
                        group.live,
                        group.rows,
                        group.offsets
                    ),
                    (Layout::Rows, m0, 1, 6, 4),
                    "{reuse:?}"
                );
                let ring = group.row_charge.psum_mem_writes + group.window_charge.psum_mem_reads;
                assert_eq!(ring > 0, reuse.errr, "{reuse:?}");
            }
        }
    }
}
