//! PPSR — product and partial-sum reuse (Section III.B, Figs. 5–7).
//!
//! The row engines here are the functional model of one meta-filter (or
//! base-filter) row travelling through the stacked-register pipeline:
//! every broadcast input is multiplied with each resident weight exactly
//! once, and the shared products/partial sums are combined into the row
//! results of *all* transferred filters simultaneously.
//!
//! Counting convention: a "multiply" is one multiplier activation, i.e.
//! one `(input element, weight)` product. With PPSR a DCNN row pass costs
//! `Z` multiplies per input element (instead of `(Z−K+1)·K`), and an SCNN
//! row pass costs `K` while producing both the forward and the
//! horizontally-mirrored row results (instead of `2K`).
//!
//! Two implementations of every `_acc` row pass coexist (DESIGN §5.10):
//!
//! * the default entry points route the inner correlation loops through
//!   the channel-stacked [`RowKernel`](crate::engine) — blocked
//!   `i16 → i32` passes specialized per `K` at engine-compile time;
//! * the `*_scalar` variants keep the original `correlate_at`-driven
//!   loops, frozen as the bit-identity reference the kernel parity suite
//!   (`tests/kernel_parity.rs`) and the `ppsr_row` bench compare against.
//!
//! Both families charge counters through the same closed-form
//! `charge_*` models and produce bit-identical activations *and*
//! counters; the saturating-addition order contract they share is
//! documented in `engine/kernels.rs`.
//!
//! The kernel-driven family has exactly one implementation, the
//! crate-internal **row sweep** (`row_sweep`): a channel band of weight
//! rows correlated over the same padded row of several images laid back
//! to back — the compiled engine's row-interleaved batch layout (DESIGN
//! §5.13) — as one stacked kernel call per `(weight rows, stream)` pair.
//! Every scheme's row pass is such a pair list over one input row: a
//! dense row one pair, a DCNN meta row its `Z−K+1` offset lanes, an SCNN
//! base row its forward stream plus, with PPSR, the mirrored stream —
//! the forward pass over the reversed rows. The public `_acc` entry
//! points are its one-image, one-channel case.

use crate::counters::Counters;
use crate::engine::kernels::{Band, RowKernel};
use tfe_tensor::fixed::{Accum, Fx16};

/// One correlation output: `Σ_j input[x + j] · weights[j]`, summed in
/// ascending `j` order from [`Accum::ZERO`].
///
/// [`row_correlate`] and the `*_acc_scalar` oracles route through this
/// helper, so they share the exact saturating-addition order (and
/// therefore bit-identical values).
#[inline]
fn correlate_at(weights: &[Fx16], input: &[Fx16], x: usize) -> Accum {
    weights
        .iter()
        .enumerate()
        .map(|(j, &w)| input[x + j].widening_mul(w))
        .sum()
}

/// Forward row correlation: `out[x] = Σ_j input[x + j] · weights[j]`.
///
/// This is the conventional single-filter-row result; exposed as the
/// building block the naive (reuse-disabled) paths use.
#[must_use]
pub fn row_correlate(weights: &[Fx16], input: &[Fx16]) -> Vec<Accum> {
    let k = weights.len();
    if input.len() < k {
        return Vec::new();
    }
    let out_len = input.len() - k + 1;
    (0..out_len)
        .map(|x| correlate_at(weights, input, x))
        .collect()
}

/// Reversed row correlation: the result for the horizontally mirrored
/// weight row, `out[x] = Σ_j input[x + j] · weights[k−1−j]`.
#[must_use]
pub fn row_correlate_rev(weights: &[Fx16], input: &[Fx16]) -> Vec<Accum> {
    let k = weights.len();
    if input.len() < k {
        return Vec::new();
    }
    let out_len = input.len() - k + 1;
    (0..out_len)
        .map(|x| {
            (0..k)
                .map(|j| input[x + j].widening_mul(weights[k - 1 - j]))
                .sum()
        })
        .collect()
}

/// One DCNN PPSR row pass, accumulated into caller-owned offset buffers:
/// a meta row of `Z` weights against one input row adds the row results
/// of all `Z−K+1` transferred offsets, `acc[dx][x] += result[dx][x]`.
///
/// With `ppsr` enabled the pass costs `Z × input.len()` multiplies
/// (every product computed once and reused through the SRs); disabled,
/// each offset runs independently at `K × input.len()` (Fig. 5(a)'s
/// recomputation). The values are the same either way.
///
/// This is the one-image, one-channel case of the row sweep the
/// compiled engine ([`crate::engine`]) drives per channel band. Each
/// accumulated term is the complete (already `j`-summed) correlation
/// value, so per-channel sums build up in the reference order.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the meta row length, or if `acc` has
/// fewer than `Z−K+1` buffers of at least `out_len` elements each.
pub fn dcnn_row_pass_acc(
    meta_row: &[Fx16],
    input: &[Fx16],
    k: usize,
    ppsr: bool,
    acc: &mut [Vec<Accum>],
    counters: &mut Counters,
) {
    let (offsets, _) = charge_dcnn(meta_row.len(), k, 1, input.len(), 1, ppsr, counters);
    row_sweep(
        RowKernel::select(k),
        Band::row(k),
        1,
        input,
        input.len(),
        acc[..offsets]
            .iter_mut()
            .enumerate()
            .map(|(dx, lane)| (&meta_row[dx..], lane.as_mut_slice())),
        false,
    );
}

/// The frozen scalar reference for [`dcnn_row_pass_acc`]: identical
/// counters and bit-identical accumulation via the original
/// `correlate_at`-driven loop. Kept for the kernel parity suite and
/// the `ppsr_row` speedup bench — not a hot path.
pub fn dcnn_row_pass_acc_scalar(
    meta_row: &[Fx16],
    input: &[Fx16],
    k: usize,
    ppsr: bool,
    acc: &mut [Vec<Accum>],
    counters: &mut Counters,
) {
    let (offsets, out_len) = charge_dcnn(meta_row.len(), k, 1, input.len(), 1, ppsr, counters);
    for dx in 0..offsets {
        let weights = &meta_row[dx..dx + k];
        let lane = &mut acc[dx][..out_len];
        for (x, slot) in lane.iter_mut().enumerate() {
            *slot += correlate_at(weights, input, x);
        }
    }
}

/// The shared DCNN row-pass counter model for `rows` meta-row passes of
/// one `input_len`-sample row each; returns `(offsets, out_len)`. `Z`/`K`
/// are the *logical* tap counts (what the multipliers execute), while
/// the output length follows the stuffed span `KW = d·(K−1)+1` the
/// lanes slide over: at dilation `d` the meta row is stored zero-stuffed
/// and the stuffed zeros model clock-gated multiplier slots, not live
/// work.
pub(crate) fn charge_dcnn(
    z: usize,
    k: usize,
    dilation: usize,
    input_len: usize,
    rows: usize,
    ppsr: bool,
    counters: &mut Counters,
) -> (usize, usize) {
    assert!(
        k >= 1 && k <= z,
        "transferred extent must satisfy 1 <= K <= Z"
    );
    let offsets = z - k + 1;
    let kw = dilation * (k - 1) + 1;
    let out_len = (input_len + 1).saturating_sub(kw);
    if ppsr {
        // Every broadcast element activates all Z multipliers once and
        // ripples through the Z−1 stacked adders; the shared products are
        // staged in the SR group, one write per offset lane.
        counters.multiplies += (rows * z * input_len) as u64;
        counters.adds += (rows * z.saturating_sub(1) * input_len) as u64;
        counters.sr_writes += (rows * offsets * input_len) as u64;
    } else {
        // Reuse disabled (Fig. 5(a) ablation): each offset recomputes its
        // row independently in a plain PE. Products live in per-PE
        // pipeline registers, so no SR-group traffic is charged, and each
        // of the `out_len` outputs per offset costs K−1 adder
        // activations.
        counters.multiplies += (rows * offsets * k * input_len) as u64;
        counters.adds += (rows * offsets * k.saturating_sub(1) * out_len) as u64;
    }
    (offsets, out_len)
}

/// One SCNN PPSR row pass, accumulated into caller-owned stream buffers:
/// a base row of `K` weights against one input row adds the forward
/// result, `fwd[x] += forward[x]`, and — when `ppsr` is enabled, at no
/// extra multiplies — the horizontally mirrored result,
/// `rev[x] += mirrored[x]` (Fig. 7). With `ppsr` disabled there is no
/// mirrored stream (the caller must pay for its own pass).
///
/// The mirrored stream is the row sweep's forward pass over a reversed
/// copy of `base_row`, built per call: this entry is the one-image,
/// one-channel reference for the engine's SCNN pass, which reads the
/// flipped orientation's stored rows instead.
///
/// # Panics
///
/// Panics if a provided buffer is shorter than the stream's `out_len`
/// outputs, or (in debug builds) if `rev.is_some() != ppsr`.
pub fn scnn_row_pass_acc(
    base_row: &[Fx16],
    input: &[Fx16],
    ppsr: bool,
    fwd: &mut [Accum],
    rev: Option<&mut [Accum]>,
    counters: &mut Counters,
) {
    debug_assert_eq!(
        ppsr,
        rev.is_some(),
        "the mirrored stream exists exactly when PPSR is enabled"
    );
    let k = base_row.len();
    charge_scnn(k, k, input.len(), 1, ppsr, counters);
    let mirrored: Vec<Fx16> = base_row.iter().rev().copied().collect();
    let rev = rev.filter(|_| ppsr).map(|rev| (mirrored.as_slice(), rev));
    row_sweep(
        RowKernel::select(k),
        Band::row(k),
        1,
        input,
        input.len(),
        std::iter::once((base_row, fwd)).chain(rev),
        false,
    );
}

/// The frozen scalar reference for [`scnn_row_pass_acc`]: identical
/// counters and bit-identical accumulation via the original
/// `correlate_at`-driven loops. Kept for the kernel parity suite and
/// the `ppsr_row` speedup bench — not a hot path.
pub fn scnn_row_pass_acc_scalar(
    base_row: &[Fx16],
    input: &[Fx16],
    ppsr: bool,
    fwd: &mut [Accum],
    rev: Option<&mut [Accum]>,
    counters: &mut Counters,
) {
    debug_assert_eq!(
        ppsr,
        rev.is_some(),
        "the mirrored stream exists exactly when PPSR is enabled"
    );
    let k = base_row.len();
    let out_len = charge_scnn(k, k, input.len(), 1, ppsr, counters);
    for (x, slot) in fwd[..out_len].iter_mut().enumerate() {
        *slot += correlate_at(base_row, input, x);
    }
    if let Some(rev) = rev.filter(|_| ppsr) {
        for (x, slot) in rev[..out_len].iter_mut().enumerate() {
            *slot += (0..k)
                .map(|j| input[x + j].widening_mul(base_row[k - 1 - j]))
                .sum::<Accum>();
        }
    }
}

/// The shared SCNN row-pass counter model for `rows` base-row passes of
/// one `input_len`-sample row each — the forward stream and, with
/// `ppsr`, the mirrored one; returns `out_len`. `taps` is the logical
/// tap count (multiplier activations per element); `span` the stored
/// row width the streams slide over (`taps` unless the row is
/// zero-stuffed for dilation).
pub(crate) fn charge_scnn(
    taps: usize,
    span: usize,
    input_len: usize,
    rows: usize,
    ppsr: bool,
    counters: &mut Counters,
) -> usize {
    let out_len = (input_len + 1).saturating_sub(span);
    let streams = 1 + usize::from(ppsr);
    counters.multiplies += (rows * taps * input_len) as u64;
    // Each result stream has `out_len` outputs, and combining K products
    // into one output costs K−1 adder activations; the K−1 edge
    // positions produce no output and cost no adds.
    counters.adds += (streams * rows * taps.saturating_sub(1) * out_len) as u64;
    if ppsr {
        // The products are staged in the SR pair so the mirrored stream
        // can consume them in reverse order: one SR write per product
        // stage per direction.
        counters.sr_writes += (2 * rows * input_len) as u64;
    }
    out_len
}

/// One conventional row pass for a dense filter row, accumulated into a
/// caller-owned buffer: `acc[x] += result[x]` (`K` multiplies per input
/// element, one result stream).
///
/// This is the one-image, one-channel case of the row sweep the
/// compiled engine ([`crate::engine`]) drives per channel band.
///
/// # Panics
///
/// Panics if `acc` is shorter than the `out_len` row results.
pub fn conventional_row_pass_acc(
    filter_row: &[Fx16],
    input: &[Fx16],
    acc: &mut [Accum],
    counters: &mut Counters,
) {
    let k = filter_row.len();
    charge_conventional(k, k, input.len(), 1, counters);
    row_sweep(
        RowKernel::select(k),
        Band::row(k),
        1,
        input,
        input.len(),
        [(filter_row, acc)],
        false,
    );
}

/// The frozen scalar reference for [`conventional_row_pass_acc`]:
/// identical counters and bit-identical accumulation via the original
/// `correlate_at`-driven loop. Kept for the kernel parity suite and
/// the `ppsr_row` speedup bench — not a hot path.
pub fn conventional_row_pass_acc_scalar(
    filter_row: &[Fx16],
    input: &[Fx16],
    acc: &mut [Accum],
    counters: &mut Counters,
) {
    let out_len = charge_conventional(filter_row.len(), filter_row.len(), input.len(), 1, counters);
    for (x, slot) in acc[..out_len].iter_mut().enumerate() {
        *slot += correlate_at(filter_row, input, x);
    }
}

/// The shared conventional row-pass counter model for `rows` passes of
/// one `input_len`-sample row each; returns `out_len`. `taps` is the
/// logical tap count (live multiplier activations per element), `span`
/// the stored row width (`taps` unless the row is zero-stuffed for
/// dilation — stuffed zeros are clock-gated, not charged).
pub(crate) fn charge_conventional(
    taps: usize,
    span: usize,
    input_len: usize,
    rows: usize,
    counters: &mut Counters,
) -> usize {
    let out_len = (input_len + 1).saturating_sub(span);
    counters.multiplies += (rows * taps * input_len) as u64;
    counters.adds += (rows * taps.saturating_sub(1) * out_len) as u64;
    out_len
}

/// The one row sweep: for every `(weights, acc)` pair, one stacked
/// kernel call correlates the channel band's weight rows (`weights`,
/// `band.width` taps each, `band.w_stride` apart) against one padded row
/// of each channel and adds the result into `acc`.
///
/// **Layout.** The input is swept filter-stationary across a whole
/// micro-batch laid out **batch-interleaved**: for every channel of
/// `band`, `input` holds the same padded row of `images` consecutive
/// images back to back (image `b`'s row at `b·seg_stride`, `seg_stride`
/// samples long; channel `c`'s rows `c·band.in_stride` further on), and
/// each stream's output lanes sit at the same stride. Every pair's pass
/// spans `(images−1)·seg_stride + out_len` positions, where
/// `out_len = seg_stride − width + 1`: long enough to engage the blocked
/// fast path even when one image's row alone is shorter than a block,
/// which is where the batched sweep's throughput comes from. Positions
/// between one image's valid lane and the next image's segment mix two
/// images' samples; they are computed (the price of the contiguous
/// pass) but land in the inter-lane gap, which no window combine ever
/// reads.
///
/// **Schemes.** A dense row pass is one pair. A DCNN meta-row pass is
/// its `Z−K+1` offset lanes: lane `dx` correlates the `KW`-wide slice
/// at `dx·d` of every meta row — itself a correctly stuffed `K`-tap row
/// at dilation `d`, so each lane is bit-identical to the `d`-strided tap
/// accumulation (stuffed zeros are saturating-add identities). An SCNN
/// base-row pass is the forward stream plus, with PPSR, the mirrored
/// stream over the reversed rows; a reversed zero-stuffed row is the
/// stuffed reversed row (`KW−1−t ≡ 0 (mod d)` iff `t ≡ 0 (mod d)`).
///
/// **Bit-identity.** Per image the accumulation equals `band.channels`
/// sequential one-row passes on that image's window: each valid position
/// reads exactly that image's samples, products accumulate in ascending
/// `j` order, and per-channel sums land in ascending channel order. The
/// sweep only concatenates images and blocks positions; it never
/// reorders any position's saturating additions. `saturation_free`
/// selects the wrapping kernel, exact under the caller's stage bound:
/// every stream accumulates `N/groups` `K`-tap sums.
///
/// **Counters.** The sweep charges nothing. Callers charge one image's
/// row — `band.channels` rows of `seg_stride` samples — through the
/// scheme's closed-form `charge_*` model: the model is data-independent,
/// so every image of a batched run accrues the identical delta and the
/// engine replicates one representative image's charges per partition
/// (`tests/batched_parity.rs` pins the exactness).
pub(crate) fn row_sweep<'w, 'a>(
    kernel: RowKernel,
    band: Band,
    images: usize,
    input: &[Fx16],
    seg_stride: usize,
    streams: impl IntoIterator<Item = (&'w [Fx16], &'a mut [Accum])>,
    saturation_free: bool,
) {
    let out_len = (seg_stride + 1).saturating_sub(band.width);
    if images == 0 || out_len == 0 {
        return;
    }
    let span = (images - 1) * seg_stride + out_len;
    for (weights, acc) in streams {
        kernel.correlate_band(weights, input, band, &mut acc[..span], saturation_free);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(values: &[f32]) -> Vec<Fx16> {
        values.iter().map(|&v| Fx16::from_f32(v)).collect()
    }

    fn as_f32(acc: &[Accum]) -> Vec<f32> {
        acc.iter().map(|a| a.to_f32()).collect()
    }

    /// [`dcnn_row_pass_acc`] into fresh zeroed offset lanes.
    fn dcnn(meta: &[Fx16], input: &[Fx16], ppsr: bool, c: &mut Counters) -> Vec<Vec<Accum>> {
        let mut lanes = vec![vec![Accum::ZERO; input.len() - 2]; meta.len() - 2];
        dcnn_row_pass_acc(meta, input, 3, ppsr, &mut lanes, c);
        lanes
    }

    /// [`scnn_row_pass_acc`] into fresh zeroed streams; the mirrored one
    /// exists exactly with PPSR.
    fn scnn(
        base: &[Fx16],
        input: &[Fx16],
        ppsr: bool,
        c: &mut Counters,
    ) -> (Vec<Accum>, Option<Vec<Accum>>) {
        let out_len = input.len() + 1 - base.len();
        let mut fwd = vec![Accum::ZERO; out_len];
        let mut rev = ppsr.then(|| vec![Accum::ZERO; out_len]);
        scnn_row_pass_acc(base, input, ppsr, &mut fwd, rev.as_deref_mut(), c);
        (fwd, rev)
    }

    #[test]
    fn row_correlate_basic() {
        let w = fx(&[1.0, 2.0, 3.0]);
        let a = fx(&[1.0, 0.0, -1.0, 2.0]);
        // x=0: 1*1 + 2*0 + 3*(-1) = -2; x=1: 0 - 2 + 6 = 4.
        assert_eq!(as_f32(&row_correlate(&w, &a)), vec![-2.0, 4.0]);
    }

    #[test]
    fn reversed_correlation_is_mirrored_filter() {
        let w = fx(&[1.0, 2.0, 3.0]);
        let a = fx(&[0.5, -1.0, 2.0, 1.0, 0.0]);
        let mirrored: Vec<Fx16> = w.iter().rev().copied().collect();
        assert_eq!(
            as_f32(&row_correlate_rev(&w, &a)),
            as_f32(&row_correlate(&mirrored, &a))
        );
    }

    #[test]
    fn dcnn_row_pass_matches_independent_correlations() {
        let meta = fx(&[0.5, -1.0, 2.0, 1.5]);
        let input = fx(&[1.0, 2.0, -0.5, 0.25, 3.0, -2.0]);
        let mut c = Counters::new();
        let results = dcnn(&meta, &input, true, &mut c);
        assert_eq!(results.len(), 2);
        assert_eq!(
            as_f32(&results[0]),
            as_f32(&row_correlate(&meta[0..3], &input))
        );
        assert_eq!(
            as_f32(&results[1]),
            as_f32(&row_correlate(&meta[1..4], &input))
        );
    }

    #[test]
    fn dcnn_ppsr_saves_one_third_of_multiplies_at_z4() {
        // (Z−K+1)·K = 6 vs Z = 4 per element: the paper's 33.3% example
        // (Section III.A).
        let meta = fx(&[0.5, -1.0, 2.0, 1.5]);
        let input = fx(&[1.0; 12]);
        let mut with = Counters::new();
        let mut without = Counters::new();
        let a = dcnn(&meta, &input, true, &mut with);
        let b = dcnn(&meta, &input, false, &mut without);
        assert_eq!(a, b, "reuse must not change values");
        assert_eq!(with.multiplies * 6, without.multiplies * 4);
    }

    #[test]
    fn scnn_ppsr_halves_row_cost() {
        // K = 3: 3 multiplies produce 2 results vs 6 naive — the paper's
        // 50% example (Section III.A).
        let base = fx(&[1.0, -2.0, 0.5]);
        let input = fx(&[0.5, 1.0, 1.5, -1.0, 2.0]);
        let mut with = Counters::new();
        let (fwd, rev) = scnn(&base, &input, true, &mut with);
        let mut without = Counters::new();
        let (fwd2, none) = scnn(&base, &input, false, &mut without);
        assert!(none.is_none());
        assert_eq!(fwd, fwd2);
        let rev = rev.unwrap();
        assert_eq!(as_f32(&rev), as_f32(&row_correlate_rev(&base, &input)));
        // Same multiplies, twice the outputs.
        assert_eq!(with.multiplies, without.multiplies);
    }

    #[test]
    fn dcnn_reuse_off_charges_no_sr_writes() {
        // The reuse-off ablation models plain PEs with private pipeline
        // registers: SR-group traffic must stay zero or the ablation's
        // energy story double-counts register writes as SRAM-class SRs.
        let meta = fx(&[0.5, -1.0, 2.0, 1.5]);
        let input = fx(&[1.0; 12]);
        let mut with = Counters::new();
        let mut without = Counters::new();
        let _ = dcnn(&meta, &input, true, &mut with);
        let _ = dcnn(&meta, &input, false, &mut without);
        assert_eq!(without.sr_writes, 0);
        // With PPSR: one SR write per offset lane per broadcast element.
        assert_eq!(with.sr_writes, 2 * 12);
    }

    #[test]
    fn scnn_adds_match_output_count() {
        // K = 3, 5 input elements → 3 outputs per stream; each output
        // costs K−1 = 2 adds.
        let base = fx(&[1.0, -2.0, 0.5]);
        let input = fx(&[0.5, 1.0, 1.5, -1.0, 2.0]);
        let mut with = Counters::new();
        let (_, rev) = scnn(&base, &input, true, &mut with);
        assert!(rev.is_some());
        // Two streams with PPSR.
        assert_eq!(with.adds, 2 * 2 * 3);
        let mut without = Counters::new();
        let _ = scnn(&base, &input, false, &mut without);
        assert_eq!(without.adds, 2 * 3);
        assert_eq!(without.sr_writes, 0);
    }

    #[test]
    fn conventional_pass_counts_k_per_element() {
        let w = fx(&[1.0, 1.0, 1.0]);
        let input = fx(&[1.0; 10]);
        let mut c = Counters::new();
        let mut out = vec![Accum::ZERO; 8];
        conventional_row_pass_acc(&w, &input, &mut out, &mut c);
        assert_eq!(as_f32(&out), vec![3.0; 8]);
        assert_eq!(c.multiplies, 30);
    }

    #[test]
    fn short_input_yields_empty_result() {
        let w = fx(&[1.0, 1.0, 1.0]);
        let input = fx(&[1.0, 2.0]);
        assert!(row_correlate(&w, &input).is_empty());
    }

    /// A deterministic stream of raw `i16` samples: uniform in
    /// `±bound` (the gated-wrapping regime), or drawn only from the
    /// extremes whose products clamp after a few terms (`bound == 0`,
    /// the saturating regime).
    fn samples(seed: &mut u64, len: usize, bound: i32) -> Vec<Fx16> {
        const EXTREMES: [i16; 5] = [i16::MIN, i16::MAX, 0, 1, -1];
        (0..len)
            .map(|_| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (*seed >> 33) as i32;
                Fx16::from_bits(if bound == 0 {
                    EXTREMES[r as usize % EXTREMES.len()]
                } else {
                    (r % (2 * bound + 1) - bound) as i16
                })
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The batch row sweep the engine runs: `images` images' copies
        /// of a padded row laid `seg` samples apart, for each of
        /// `channels` channel rows `in_stride` apart, swept as one
        /// channel band into batch-wide streams, must equal `images`
        /// independent one-image scalar passes per channel on each
        /// image's lane — and the callers' closed-form charge must be
        /// exactly one image's counters. Each scheme's pair list is the
        /// engine's: DCNN offset lanes at `dx`, SCNN forward rows plus
        /// (with PPSR) the reversed rows, checked against the scalar
        /// oracle's reverse-indexed loop. Two regimes: data inside the
        /// stage bound through the wrapping kernel, and extreme data that
        /// clamps through the saturating one (the only anchor for
        /// clamping data: the dense-expansion oracle regroups additions
        /// and matches only when nothing saturates).
        #[test]
        fn batch_sweeps_match_per_image_scalar_passes(
            k in 1usize..8,
            extra in 0usize..4,
            images in 1usize..5,
            slack in 0usize..20,
            channels in 1usize..4,
            gap in 0usize..3,
            ppsr in proptest::prelude::any::<bool>(),
            clamping in proptest::prelude::any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            // |w|, |x| <= 1024 keeps channels·K·max|w|·max|x| far below
            // 2³¹ — the bound that admits the wrapping kernel.
            let bound = if clamping { 0 } else { 1024 };
            let mut seed = seed;
            let z = k + extra;
            let seg = k - 1 + slack;
            let out_len = (seg + 1).saturating_sub(k);
            let span = (images - 1) * seg + out_len;
            let kernel = RowKernel::select(k);
            let in_stride = images * seg + gap;
            let rows = samples(&mut seed, channels * (z + gap), bound);
            let input = samples(&mut seed, channels * in_stride, bound);
            let row = |c: usize, len: usize| &rows[c * (z + gap)..][..len];
            let image_row = |c: usize, b: usize| &input[c * in_stride + b * seg..][..seg];
            let band = Band { channels, width: k, w_stride: z + gap, in_stride };

            // DCNN: every offset lane.
            let offsets = z - k + 1;
            let mut lanes = vec![vec![Accum::ZERO; span]; offsets];
            let mut swept = Counters::new();
            let _ = charge_dcnn(z, k, 1, seg, channels, ppsr, &mut swept);
            let pairs = lanes.iter_mut().enumerate().map(|(dx, lane)| (&rows[dx..], lane.as_mut_slice()));
            row_sweep(kernel, band, images, &input, seg, pairs, !clamping);
            for b in 0..images {
                let mut want = vec![vec![Accum::ZERO; out_len]; offsets];
                let mut one = Counters::new();
                for c in 0..channels {
                    dcnn_row_pass_acc_scalar(row(c, z), image_row(c, b), k, ppsr, &mut want, &mut one);
                }
                for (dx, lane) in lanes.iter().enumerate() {
                    proptest::prop_assert_eq!(&lane[b * seg..][..out_len], &want[dx][..], "dcnn image {} lane {}", b, dx);
                }
                proptest::prop_assert_eq!(swept, one, "dcnn counters are one image's");
            }

            // SCNN: forward and (with PPSR) mirrored streams, the mirrored
            // one over each channel's row reversed in place.
            let mut reversed = rows.clone();
            for c in 0..channels {
                reversed[c * (z + gap)..][..k].reverse();
            }
            let mut fwd = vec![Accum::ZERO; span];
            let mut rev = vec![Accum::ZERO; span];
            let mut swept = Counters::new();
            let _ = charge_scnn(k, k, seg, channels, ppsr, &mut swept);
            let mirrored = ppsr.then_some((reversed.as_slice(), rev.as_mut_slice()));
            let pairs = std::iter::once((rows.as_slice(), fwd.as_mut_slice())).chain(mirrored);
            row_sweep(kernel, band, images, &input, seg, pairs, !clamping);
            for b in 0..images {
                let mut want_fwd = vec![Accum::ZERO; out_len];
                let mut want_rev = vec![Accum::ZERO; out_len];
                let mut one = Counters::new();
                for c in 0..channels {
                    scnn_row_pass_acc_scalar(
                        row(c, k), image_row(c, b), ppsr, &mut want_fwd,
                        ppsr.then_some(want_rev.as_mut_slice()), &mut one,
                    );
                }
                proptest::prop_assert_eq!(&fwd[b * seg..][..out_len], &want_fwd[..], "scnn image {} forward", b);
                proptest::prop_assert_eq!(&rev[b * seg..][..out_len], &want_rev[..], "scnn image {} mirrored", b);
                proptest::prop_assert_eq!(swept, one, "scnn counters are one image's");
            }

            // Dense: one stream.
            let mut acc = vec![Accum::ZERO; span];
            let mut swept = Counters::new();
            let _ = charge_conventional(k, k, seg, channels, &mut swept);
            row_sweep(kernel, band, images, &input, seg, [(rows.as_slice(), acc.as_mut_slice())], !clamping);
            for b in 0..images {
                let mut want = vec![Accum::ZERO; out_len];
                let mut one = Counters::new();
                for c in 0..channels {
                    conventional_row_pass_acc_scalar(row(c, k), image_row(c, b), &mut want, &mut one);
                }
                proptest::prop_assert_eq!(&acc[b * seg..][..out_len], &want[..], "dense image {}", b);
                proptest::prop_assert_eq!(swept, one, "dense counters are one image's");
            }
        }
    }

    #[test]
    fn symmetric_row_makes_directions_equal() {
        let w = fx(&[1.0, 5.0, 1.0]);
        let input = fx(&[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(
            as_f32(&row_correlate(&w, &input)),
            as_f32(&row_correlate_rev(&w, &input))
        );
    }
}
