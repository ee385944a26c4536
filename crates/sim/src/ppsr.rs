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
//! Both families charge counters through the same helpers and produce
//! bit-identical activations *and* counters; the saturating-addition
//! order contract they share is documented in `engine/kernels.rs`.
//!
//! Each scheme has exactly one kernel-driven implementation, a
//! crate-internal **row sweep** (`*_row_sweep_acc_with`): a channel band
//! of weight rows correlated over the same padded row of several images
//! laid back to back — the compiled engine's row-interleaved batch
//! layout (DESIGN §5.13) — with one stacked kernel call per result
//! stream. The public `_acc` entry points are its one-image, one-channel
//! case.

use crate::counters::Counters;
use crate::engine::kernels::{Band, RowKernel};
use tfe_tensor::fixed::{Accum, Fx16};

/// One correlation output: `Σ_j input[x + j] · weights[j]`, summed in
/// ascending `j` order from [`Accum::ZERO`].
///
/// Both the allocating row passes and the `_acc` accumulate-into
/// variants route through this helper, so the two families produce the
/// exact same saturating-addition order (and therefore bit-identical
/// values).
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
    // Index the weight row in reverse instead of materialising a
    // reversed copy: this runs once per (row, input row) pair in the hot
    // SCNN path, so the per-call allocation is measurable (see
    // benches/ppsr_row.rs, `row_correlate_rev/*`).
    let out_len = input.len() - k + 1;
    (0..out_len)
        .map(|x| {
            (0..k)
                .map(|j| input[x + j].widening_mul(weights[k - 1 - j]))
                .sum()
        })
        .collect()
}

/// One DCNN PPSR row pass: a meta row of `Z` weights against one input
/// row, producing the row results of all `Z−K+1` transferred offsets.
///
/// Returns `results[dx][x]` for `dx ∈ 0..Z−K+1`. With `ppsr` enabled the
/// pass costs `Z × input.len()` multiplies (every product computed once
/// and reused through the SRs); disabled, each offset runs independently
/// at `K × input.len()` (Fig. 5(a)'s recomputation).
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the meta row length.
#[must_use]
pub fn dcnn_row_pass(
    meta_row: &[Fx16],
    input: &[Fx16],
    k: usize,
    ppsr: bool,
    counters: &mut Counters,
) -> Vec<Vec<Accum>> {
    let z = meta_row.len();
    let offsets = z.saturating_sub(k) + 1;
    let out_len = (input.len() + 1).saturating_sub(k);
    let mut out: Vec<Vec<Accum>> = (0..offsets).map(|_| vec![Accum::ZERO; out_len]).collect();
    dcnn_row_pass_acc(meta_row, input, k, ppsr, &mut out, counters);
    out
}

/// [`dcnn_row_pass`] accumulating into caller-owned offset buffers
/// instead of allocating fresh ones: `acc[dx][x] += result[dx][x]`.
///
/// This is the one-image, one-channel case of the batch row sweep the
/// compiled engine ([`crate::engine`]) drives per channel band, so the
/// per-offset channel sums build up directly in reusable scratch
/// buffers. Counter accounting is identical to the allocating form, and
/// each accumulated term is the complete (already `j`-summed)
/// correlation value, so the saturating-addition order matches the
/// allocating path's `row_sum[x] += res[x]` loop exactly.
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
    dcnn_row_sweep_acc_with(
        RowKernel::select(k),
        meta_row,
        k,
        1,
        ppsr,
        Band::row(meta_row.len()),
        1,
        input,
        input.len(),
        acc,
        false,
        counters,
    );
}

/// One DCNN meta-row pass over a channel band, swept filter-stationary
/// across `images` consecutive images of the row-interleaved batch
/// layout — the DCNN counterpart of [`conventional_row_sweep_acc_with`],
/// whose band, layout, junk-gap, and bit-identity argument it shares:
/// `meta_rows` holds the band's meta rows (`band.width = ZW` wide,
/// `band.w_stride` apart), `input` the same padded row of each image at
/// `b·seg_stride` for every channel, and every offset lane `acc[dx]`
/// receives one stacked correlation of span
/// `(images−1)·seg_stride + out_len` whose image-`b` lane sits at
/// `b·seg_stride` — one kernel call per lane for the whole band.
///
/// At `dilation > 1` the meta row arrives zero-stuffed to
/// `ZW = d·(Z−1)+1` and each of the `Z−K+1` offset lanes correlates the
/// `KW = d·(K−1)+1` slice starting at `dx·d` — itself a correctly
/// stuffed K-tap row, so every lane is bit-identical to the d-strided
/// tap accumulation (stuffed zeros are saturating-add identities).
/// Charges stay in *logical* taps (`Z`/`K` multiplier activations): the
/// stuffed zeros model clock-gated multiplier slots, not live work.
///
/// Counters are charged **once**, for one image's `seg_stride`-sample
/// row per channel, in closed form (`band.channels` × one row's
/// charge); `saturation_free` selects the wrapping kernel (each lane
/// accumulates the same `N` `K`-tap sums a dense row does, so the dense
/// stage bound applies unchanged).
#[allow(clippy::too_many_arguments)]
pub(crate) fn dcnn_row_sweep_acc_with(
    kernel: RowKernel,
    meta_rows: &[Fx16],
    k: usize,
    dilation: usize,
    ppsr: bool,
    band: Band,
    images: usize,
    input: &[Fx16],
    seg_stride: usize,
    acc: &mut [Vec<Accum>],
    saturation_free: bool,
    charges: &mut Counters,
) {
    let kw = dilation * (k - 1) + 1;
    let z = (band.width - 1) / dilation + 1;
    let (offsets, out_len) = charge_dcnn(z, k, dilation, seg_stride, band.channels, ppsr, charges);
    let span = sweep_span(images, seg_stride, out_len);
    if span == 0 {
        return;
    }
    // Each lane correlates the KW-wide slice at `dx·d` of every meta
    // row: the same band, narrowed and shifted.
    let lane_band = Band { width: kw, ..band };
    for (dx, lane) in acc[..offsets].iter_mut().enumerate() {
        kernel.correlate_band(
            &meta_rows[dx * dilation..],
            input,
            lane_band,
            &mut lane[..span],
            false,
            saturation_free,
        );
    }
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
/// lanes slide over.
fn charge_dcnn(
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

/// One SCNN PPSR row pass: a base row of `K` weights against one input
/// row, producing the forward result and — when `ppsr` is enabled at no
/// extra multiplies — the horizontally mirrored result (Fig. 7).
///
/// Returns `(forward, mirrored)`; `mirrored` is `None` when `ppsr` is
/// disabled (the caller must pay for its own pass).
#[must_use]
pub fn scnn_row_pass(
    base_row: &[Fx16],
    input: &[Fx16],
    ppsr: bool,
    counters: &mut Counters,
) -> (Vec<Accum>, Option<Vec<Accum>>) {
    let k = base_row.len();
    let out_len = (input.len() + 1).saturating_sub(k);
    let mut fwd = vec![Accum::ZERO; out_len];
    let mut rev = ppsr.then(|| vec![Accum::ZERO; out_len]);
    scnn_row_pass_acc(
        base_row,
        input,
        ppsr,
        &mut fwd,
        rev.as_deref_mut(),
        counters,
    );
    (fwd, rev)
}

/// [`scnn_row_pass`] accumulating into caller-owned stream buffers:
/// `fwd[x] += forward[x]` and, when `ppsr` is enabled,
/// `rev[x] += mirrored[x]`.
///
/// This is the one-image, one-channel case of the batch row sweep the
/// compiled engine ([`crate::engine`]) drives per channel band, so the
/// per-direction channel sums build up directly in reusable scratch
/// buffers. Counter accounting is identical to the allocating form;
/// `rev` must be `Some` exactly when `ppsr` is enabled.
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
    scnn_row_sweep_acc_with(
        RowKernel::select(base_row.len()),
        base_row,
        base_row.len(),
        ppsr,
        Band::row(base_row.len()),
        1,
        input,
        input.len(),
        fwd,
        rev,
        false,
        counters,
    );
}

/// One SCNN base-row pass over a channel band, swept filter-stationary
/// across `images` consecutive images of the row-interleaved batch
/// layout (see [`conventional_row_sweep_acc_with`]): the forward stream
/// and, with PPSR, the mirrored stream each receive one stacked
/// correlation over the whole band whose image-`b` lane sits at
/// `b·seg_stride`.
///
/// `taps` is the logical tap count: a dilated base row arrives
/// zero-stuffed to `KW = d·(K−1)+1` but only `taps = K` multipliers fire
/// per broadcast element — the stuffed zeros model clock-gated slots.
/// The mirrored stream stays exact under stuffing because the reversed
/// row's zero pattern is the mirror of the forward one
/// (`kw−1−t ≡ 0 (mod d)` iff `t ≡ 0 (mod d)`).
///
/// Counters are charged **once**, for one image's `seg_stride`-sample
/// row per channel, in closed form (`band.channels` × one row's
/// charge); `saturation_free` selects the wrapping kernel for both
/// streams (each accumulates `N` `K`-tap sums, inside the dense stage
/// bound).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scnn_row_sweep_acc_with(
    kernel: RowKernel,
    base_rows: &[Fx16],
    taps: usize,
    ppsr: bool,
    band: Band,
    images: usize,
    input: &[Fx16],
    seg_stride: usize,
    fwd: &mut [Accum],
    rev: Option<&mut [Accum]>,
    saturation_free: bool,
    charges: &mut Counters,
) {
    let rows = band.channels;
    let out_len = charge_scnn_forward(
        taps,
        band.width,
        seg_stride,
        rows,
        ppsr,
        rev.is_some(),
        charges,
    );
    if ppsr {
        charge_scnn_mirrored(taps, seg_stride, out_len, rows, charges);
    }
    let span = sweep_span(images, seg_stride, out_len);
    if span == 0 {
        return;
    }
    kernel.correlate_band(
        base_rows,
        input,
        band,
        &mut fwd[..span],
        false,
        saturation_free,
    );
    if let Some(rev) = rev.filter(|_| ppsr) {
        kernel.correlate_band(
            base_rows,
            input,
            band,
            &mut rev[..span],
            true,
            saturation_free,
        );
    }
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
    let k = base_row.len();
    let out_len = charge_scnn_forward(k, k, input.len(), 1, ppsr, rev.is_some(), counters);
    for (x, slot) in fwd[..out_len].iter_mut().enumerate() {
        *slot += correlate_at(base_row, input, x);
    }
    if ppsr {
        charge_scnn_mirrored(k, input.len(), out_len, 1, counters);
        if let Some(rev) = rev {
            for (x, slot) in rev[..out_len].iter_mut().enumerate() {
                *slot += (0..k)
                    .map(|j| input[x + j].widening_mul(base_row[k - 1 - j]))
                    .sum::<Accum>();
            }
        }
    }
}

/// The shared SCNN forward-stream counter model for `rows` base-row
/// passes of one `input_len`-sample row each; returns `out_len`. `taps`
/// is the logical tap count (multiplier activations per element); `span`
/// the stored row width the stream slides over (`taps` unless the row is
/// zero-stuffed for dilation).
fn charge_scnn_forward(
    taps: usize,
    span: usize,
    input_len: usize,
    rows: usize,
    ppsr: bool,
    has_rev: bool,
    counters: &mut Counters,
) -> usize {
    debug_assert_eq!(
        ppsr, has_rev,
        "the mirrored stream exists exactly when PPSR is enabled"
    );
    let out_len = (input_len + 1).saturating_sub(span);
    counters.multiplies += (rows * taps * input_len) as u64;
    // Each result stream has `out_len` outputs, and combining K products
    // into one output costs K−1 adder activations. (The earlier model
    // charged (K−1)·input.len(), overcounting the K−1 edge positions
    // that produce no output.)
    counters.adds += (rows * taps.saturating_sub(1) * out_len) as u64;
    out_len
}

/// The shared SCNN mirrored-stream counter model (PPSR enabled only),
/// for `rows` base-row passes.
fn charge_scnn_mirrored(
    k: usize,
    input_len: usize,
    out_len: usize,
    rows: usize,
    counters: &mut Counters,
) {
    // The products are staged in the SR pair so the mirrored stream
    // can consume them in reverse order: one SR write per product
    // stage per direction, plus the mirrored stream's own adds.
    counters.sr_writes += (2 * rows * input_len) as u64;
    counters.adds += (rows * k.saturating_sub(1) * out_len) as u64;
}

/// One conventional row pass for a dense filter row (`K` multiplies per
/// input element, one result stream).
#[must_use]
pub fn conventional_row_pass(
    filter_row: &[Fx16],
    input: &[Fx16],
    counters: &mut Counters,
) -> Vec<Accum> {
    let out_len = (input.len() + 1).saturating_sub(filter_row.len());
    let mut out = vec![Accum::ZERO; out_len];
    conventional_row_pass_acc(filter_row, input, &mut out, counters);
    out
}

/// [`conventional_row_pass`] accumulating into a caller-owned buffer:
/// `acc[x] += result[x]`.
///
/// This is the one-image, one-channel case of the batch row sweep the
/// compiled engine ([`crate::engine`]) drives per channel band, so the
/// dense per-row channel sum builds up directly in a reusable scratch
/// buffer.
/// Counter accounting is identical to the allocating form.
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
    conventional_row_sweep_acc_with(
        RowKernel::select(filter_row.len()),
        filter_row,
        filter_row.len(),
        Band::row(filter_row.len()),
        1,
        input,
        input.len(),
        acc,
        false,
        counters,
    );
}

/// One conventional row pass over a channel band, swept
/// filter-stationary across a whole micro-batch laid out
/// **batch-interleaved**: for every channel of `band`, `input` holds the
/// same padded row of `images` consecutive images back to back (image
/// `b`'s row at `b·seg_stride`, `seg_stride` samples long; channel `c`'s
/// rows `c·band.in_stride` further on), `rows` the band's weight rows
/// (`band.width` taps, `band.w_stride` apart), and `acc` the matching
/// output lanes at the same stride. One stacked kernel call sums the
/// whole band: each block of output positions keeps its accumulators in
/// registers across every channel and writes `acc` once — long enough
/// to engage the blocked fast path even when one image's row alone is
/// shorter than a block, which is where the batched sweep's throughput
/// comes from.
///
/// Positions between one image's valid output lane (`seg_stride − K +
/// 1` wide) and the next image's segment mix two images' samples; they
/// are computed (the price of the contiguous pass) but land in the
/// inter-lane gap of `acc`, which no window combine ever reads.
///
/// Per image the accumulation is **bit-identical** to `band.channels`
/// sequential [`conventional_row_pass_acc`] calls on that image's
/// window: each valid position reads exactly that image's samples,
/// products accumulate in the same ascending-`j` order, and the
/// per-channel sums land in ascending channel order. The sweep only
/// concatenates images and blocks positions, it never reorders any
/// position's saturating additions.
///
/// Counters are charged exactly **once** (one image's worth, closed
/// form: `band.channels` × one row's charge) into `charges`: the charge
/// model is data-independent, so every image of a batched run accrues
/// the identical delta and the engine replicates one representative
/// image's charges per partition (`tests/batched_parity.rs` pins the
/// exactness).
#[allow(clippy::too_many_arguments)]
pub(crate) fn conventional_row_sweep_acc_with(
    kernel: RowKernel,
    rows: &[Fx16],
    taps: usize,
    band: Band,
    images: usize,
    input: &[Fx16],
    seg_stride: usize,
    acc: &mut [Accum],
    saturation_free: bool,
    charges: &mut Counters,
) {
    let out_len = charge_conventional(taps, band.width, seg_stride, band.channels, charges);
    let span = sweep_span(images, seg_stride, out_len);
    if span == 0 {
        return;
    }
    // With the stage bound proving no intermediate can leave i32 range,
    // the wrapping form is exact — bit-identical and far cheaper to
    // vectorize than the saturating chain.
    kernel.correlate_band(rows, input, band, &mut acc[..span], false, saturation_free);
}

/// The contiguous output span of one row sweep over `images` interleaved
/// segments `seg_stride` apart: every image's `out_len` valid positions
/// plus the junk positions between consecutive lanes — zero when no
/// position is valid.
fn sweep_span(images: usize, seg_stride: usize, out_len: usize) -> usize {
    if images == 0 || out_len == 0 {
        0
    } else {
        (images - 1) * seg_stride + out_len
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(values: &[f32]) -> Vec<Fx16> {
        values.iter().map(|&v| Fx16::from_f32(v)).collect()
    }

    fn as_f32(acc: &[Accum]) -> Vec<f32> {
        acc.iter().map(|a| a.to_f32()).collect()
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
        let results = dcnn_row_pass(&meta, &input, 3, true, &mut c);
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
        let a = dcnn_row_pass(&meta, &input, 3, true, &mut with);
        let b = dcnn_row_pass(&meta, &input, 3, false, &mut without);
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
        let (fwd, rev) = scnn_row_pass(&base, &input, true, &mut with);
        let mut without = Counters::new();
        let (fwd2, none) = scnn_row_pass(&base, &input, false, &mut without);
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
        let _ = dcnn_row_pass(&meta, &input, 3, true, &mut with);
        let _ = dcnn_row_pass(&meta, &input, 3, false, &mut without);
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
        let (_, rev) = scnn_row_pass(&base, &input, true, &mut with);
        assert!(rev.is_some());
        // Two streams with PPSR.
        assert_eq!(with.adds, 2 * 2 * 3);
        let mut without = Counters::new();
        let _ = scnn_row_pass(&base, &input, false, &mut without);
        assert_eq!(without.adds, 2 * 3);
        assert_eq!(without.sr_writes, 0);
    }

    #[test]
    fn conventional_pass_counts_k_per_element() {
        let w = fx(&[1.0, 1.0, 1.0]);
        let input = fx(&[1.0; 10]);
        let mut c = Counters::new();
        let out = conventional_row_pass(&w, &input, &mut c);
        assert_eq!(out.len(), 8);
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

        /// The batch row sweeps the engine runs: `images` images'
        /// copies of a padded row laid `seg` samples apart, for each of
        /// `channels` channel rows `in_stride` apart, swept as one
        /// channel band into batch-wide streams, must equal `images`
        /// independent one-image scalar passes per channel on each
        /// image's lane — and charge exactly one image's counters. Two
        /// regimes: data inside the stage bound through the wrapping
        /// kernel, and extreme data that clamps through the saturating
        /// one (the only anchor for clamping data: the dense-expansion
        /// oracle regroups additions and matches only when nothing
        /// saturates).
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

            // DCNN: every offset lane.
            let offsets = z - k + 1;
            let mut lanes = vec![vec![Accum::ZERO; span]; offsets];
            let mut swept = Counters::new();
            let band = Band { channels, width: z, w_stride: z + gap, in_stride };
            dcnn_row_sweep_acc_with(
                kernel, &rows, k, 1, ppsr, band, images, &input, seg, &mut lanes, !clamping, &mut swept,
            );
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

            // SCNN: forward and (with PPSR) mirrored streams.
            let mut fwd = vec![Accum::ZERO; span];
            let mut rev = vec![Accum::ZERO; span];
            let mut swept = Counters::new();
            let band = Band { channels, width: k, w_stride: z + gap, in_stride };
            scnn_row_sweep_acc_with(
                kernel, &rows, k, ppsr, band, images, &input, seg, &mut fwd,
                ppsr.then_some(rev.as_mut_slice()), !clamping, &mut swept,
            );
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
            conventional_row_sweep_acc_with(
                kernel, &rows, k, band, images, &input, seg, &mut acc, !clamping, &mut swept,
            );
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
