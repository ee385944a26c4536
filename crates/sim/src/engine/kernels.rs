//! The engine's two inner kernels: the channel-stacked row-correlation
//! kernel — the innermost loop of every PPSR row pass, specialized per
//! filter extent `K` at compile time — and the filter-vector pass of
//! ungrouped dense stages ([`correlate_filters`], below).
//!
//! One call correlates a whole **channel band**: `channels` weight rows
//! against the matching input rows, summed into one accumulator row,
//!
//! ```text
//! acc[x] += Σ_c Σ_j input[c·in_stride + x + j] · w[c·w_stride + j]
//! ```
//!
//! There is one weight order: every pass is a forward correlation of
//! stored rows. SCNN's PPSR-derived stream (the horizontally flipped
//! filter's row results) is the forward pass over the flipped
//! orientation's rows, which compile stores as the exact reverse of the
//! base rows (`engine/ir.rs`).
//! This is the software analogue of the paper's SAFM: the hardware adds
//! up the partial sums of every PE that feeds one output map inside its
//! sub-array before anything reaches the SR group, and the kernel keeps
//! a block of output positions' accumulators in registers across the
//! whole band, reading and writing the accumulator row once per pass
//! instead of once per channel.
//!
//! [`Engine::compile`](super::Engine::compile) selects one [`RowKernel`]
//! per stage (`compile_stage` records it in the stage IR), so the run
//! phase never re-dispatches on `K` inside the hot loop: the selected
//! variant routes to a `const K` core whose inner `j` loop the compiler
//! fully unrolls. The portable core's block-wide position loop
//! autovectorizes — flat `i16 → i32` passes over the raw Q8.8/Q16.16 bit
//! patterns, no allocation. On x86-64 the wrapping form of every row of
//! at least eight positions and two taps runs the **tap-pair kernel**
//! (`pairs`) instead: explicit `pmaddwd` intrinsics, two taps per
//! multiply-accumulate instruction (`vpdpwssd` at 32, which fuses the
//! add), in blocks of 8, 16 or 32 positions as wide as the host supports
//! (detected at run time). It is the crate's one `unsafe` module, shared
//! by both kernels; the portable loops keep the saturating form, one-tap
//! and shorter rows, and every other target.
//!
//! **Bit-identity constraint (DESIGN §5.10).** [`Accum`] addition
//! saturates, so it is not associative: the saturating form must
//! reproduce the scalar reference's exact addition order, not just its
//! math. The contract, shared with [`crate::ppsr`]'s `*_scalar`
//! references, is that for every output position:
//!
//! * each channel's correlation `Σ_j input[x + j] · w[j]` accumulates
//!   the `K` widened products **in ascending `j` order** starting from
//!   zero (`0 saturating+ p₀ saturating+ p₁ …`);
//! * the completed per-channel correlations are added into `acc[x]`
//!   **in ascending channel order**, one saturating addition each.
//!
//! That is exactly the chain `channels` sequential one-row passes
//! produce, so stacking changes only the order *across* positions —
//! never any position's own chain. The wrapping form is for bands a
//! stage-level bound has proven saturation-free: exact integer sums are
//! associative, so there it folds each product straight into the
//! accumulator block.
//!
//! **Tail rule.** Positions run in full blocks of `L` positions, with
//! `L` picked per call from the row length and extent (16, 8, or 4; see
//! [`WIDE`], [`NARROW`], [`TINY`]). A ragged tail runs as one more full
//! block: when the row holds at least one block it is the overlapped
//! last block (`span − L .. span`), which recomputes already-finished
//! positions but stores only its new ones; a row shorter than one block
//! (under four positions) reads each tap's samples into a zero-extended
//! register block. Either way no read leaves the pass's input span and
//! no per-position loop runs over the channel band.
//!
//! Every product is exact (`i16 × i16` fits `i32`), so the only
//! saturation points of the saturating form are the running `j` sum and
//! the per-channel accumulate — exactly the two the scalar reference
//! has. The proptests below pin both forms against `channels`
//! sequential reference passes; `tests/kernel_parity.rs` pins the
//! one-row entry points against the `*_acc_scalar` oracle and
//! `benches/ppsr_row.rs` pins the speedup (≥ 1.25× over the scalar
//! reference on K = 3).
//!
//! **The filter-vector pass (DESIGN §5.10).** The row kernel runs one
//! weight set over a row of positions, so a short row leaves lanes
//! idle or spent on positions no output needs. [`correlate_filters`]
//! vectorizes the other axis, as the paper's SAFM broadcasts one input
//! to every PE of a sub-array: the table stores a group of
//! [`FILTER_GROUP`] filters tap-major (`[c][ky][j][f]`,
//! `engine/ir.rs`), and each visited
//! position's input sample meets the same tap of every filter of the
//! group at once. The caller lists the positions, so only emitted ones
//! are computed. The saturating form keeps each `(position, filter)`
//! chain in the reference order above; on x86-64 the wrapping form runs
//! the tap-pair kernel's filter blocks, one broadcast input pair
//! `(x[j], x[j+1])` against tap pair `(j, j+1)` of 4, 8 or 16 filters
//! per `pmaddwd` (or `vpdpwssd`), each pair one unchecked read behind the
//! call's one extent check. Its proptest pins it against a scalar
//! per-(position, filter) reference under every width.

use std::borrow::Borrow;
use tfe_tensor::fixed::{Accum, Fx16};

/// The block width (output positions whose accumulators stay in
/// registers across the channel band) for rows of at least this many
/// positions: eight `i32` lanes, two 128-bit vectors on baseline x86-64.
const NARROW: usize = 8;

/// The block width of the `K ∈ {1, 5, 7}` variants on rows of at least
/// this many positions. The widths are measured, not derived: at eight
/// lanes the unrolled 5- and 7-tap bodies ran the band at about a third
/// of their 16-lane speed, while `K = 3` runs fastest at eight.
const WIDE: usize = 16;

/// The block width for rows shorter than [`NARROW`] (deep layers at
/// batch 1: a 2×2 map is a 2-position row), where an 8-lane block would
/// compute mostly junk lanes.
const TINY: usize = 4;

/// A row-correlation kernel selected at compile time for one stage's
/// filter extent (the stored row span `KW`, which is the correlation
/// window of every scheme — dense rows, DCNN meta-row offsets, and SCNN
/// base rows all correlate `KW`-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKernel {
    /// Pointwise layers (`K = 1`).
    K1,
    /// The dominant CNN extent (`K = 3`).
    K3,
    /// GoogLeNet-style `K = 5` (and `K = 3` at dilation 2).
    K5,
    /// First-layer `K = 7` (and `K = 3` at dilation 3).
    K7,
    /// Any other extent: the same blocked pass with a runtime `K` loop.
    Generic,
}

/// One channel band of correlations: `channels` channels of `width`
/// taps whose weights start `w_stride` apart in the table, each
/// correlated against its own input row `in_stride` samples after the
/// previous channel's. The row kernel reads a channel's taps as one
/// weight row; [`correlate_filters`] as `width` tap rows of
/// [`FILTER_GROUP`] weights, one per filter of the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Band {
    /// Channels summed into one accumulator (`N/groups` for a pass).
    pub(crate) channels: usize,
    /// Taps per channel (the stored span, including dilation zeros).
    pub(crate) width: usize,
    /// Distance between consecutive channels' first weights: their
    /// weight rows, or in a filter group's tap-major table their first
    /// tap rows.
    pub(crate) w_stride: usize,
    /// Distance between consecutive channels' input rows.
    pub(crate) in_stride: usize,
}

impl Band {
    /// The one-row band: a single `width`-tap weight row.
    pub(crate) fn row(width: usize) -> Band {
        Band {
            channels: 1,
            width,
            w_stride: width,
            in_stride: 0,
        }
    }
}

impl RowKernel {
    /// Selects the kernel variant for filter extent `k`.
    pub(crate) fn select(k: usize) -> RowKernel {
        match k {
            1 => RowKernel::K1,
            3 => RowKernel::K3,
            5 => RowKernel::K5,
            7 => RowKernel::K7,
            _ => RowKernel::Generic,
        }
    }

    /// `acc[x] += Σ_c Σ_j input[c·in_stride + x + j] · w_c[j]` for
    /// `x ∈ 0..acc.len()`, where `w_c` is the band's channel-`c` weight
    /// row (`weights[c·w_stride ..][.. width]`).
    ///
    /// With `wrapping` false the additions follow the reference order
    /// (module docs). `wrapping` is for bands a caller-side bound has
    /// proven **saturation-free** — every `j`-prefix sum and every
    /// running accumulator value strictly inside `i32` — where wrapping
    /// additions are exact, hence bit-identical to the saturating chain,
    /// and vectorize to plain `paddd` instead of the compare/blend
    /// saturation emulation. Callers gate on the conservative stage
    /// bound `(N/groups) · K · max|w| · max|input| < 2³¹` (see
    /// `exec::saturation_free`).
    ///
    /// # Panics
    ///
    /// Panics if `band.width` disagrees with the selected variant (or is
    /// zero), or if `weights` or `input` is shorter than the band's
    /// extent: `(channels − 1)·w_stride + width` weights and
    /// `(channels − 1)·in_stride + acc.len() + width − 1` samples.
    pub(crate) fn correlate_band(
        self,
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        acc: &mut [Accum],
        wrapping: bool,
    ) {
        #[cfg(target_arch = "x86_64")]
        if wrapping && pairs::serves(acc.len(), band.width) {
            return self.correlate_pairs(pairs::Lanes::X32, weights, input, band, acc);
        }
        self.portable(weights, input, band, acc, wrapping);
    }

    /// The portable blocked loop: every target's saturating form, and
    /// the wrapping form wherever the tap-pair kernel does not serve.
    fn portable(
        self,
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        acc: &mut [Accum],
        wrapping: bool,
    ) {
        if wrapping {
            self.dispatch::<true>(weights, input, band, acc);
        } else {
            self.dispatch::<false>(weights, input, band, acc);
        }
    }

    /// The wrapping form on x86-64's tap-pair kernel, with blocks no
    /// wider than `cap` (and the host's widest).
    #[cfg(target_arch = "x86_64")]
    fn correlate_pairs(
        self,
        cap: pairs::Lanes,
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        acc: &mut [Accum],
    ) {
        match self {
            // A one-tap variant never pairs: a wider row fails the
            // portable loop's extent check.
            RowKernel::K1 => self.dispatch::<true>(weights, input, band, acc),
            RowKernel::K3 => pairs::band::<3>(cap, weights, input, band, acc),
            RowKernel::K5 => pairs::band::<5>(cap, weights, input, band, acc),
            RowKernel::K7 => pairs::band::<7>(cap, weights, input, band, acc),
            RowKernel::Generic => pairs::band::<0>(cap, weights, input, band, acc),
        }
    }

    fn dispatch<const WRAP: bool>(
        self,
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        acc: &mut [Accum],
    ) {
        // The block width follows the row: a row shorter than a block
        // runs narrower blocks rather than one mostly-junk block. Below
        // a wide block the runtime-`K` loop measured faster than the
        // unrolled 5- and 7-tap bodies.
        let span = acc.len();
        let (w, i, b) = (weights, input, band);
        if span < NARROW {
            return match self {
                RowKernel::K1 => band_core::<1, TINY, WRAP>(w, i, b, acc),
                RowKernel::K3 => band_core::<3, TINY, WRAP>(w, i, b, acc),
                RowKernel::K5 => band_core::<5, TINY, WRAP>(w, i, b, acc),
                RowKernel::K7 => band_core::<7, TINY, WRAP>(w, i, b, acc),
                RowKernel::Generic => band_core::<0, TINY, WRAP>(w, i, b, acc),
            };
        }
        match (self, span >= WIDE) {
            (RowKernel::K1, true) => band_core::<1, WIDE, WRAP>(w, i, b, acc),
            (RowKernel::K1, false) => band_core::<1, NARROW, WRAP>(w, i, b, acc),
            (RowKernel::K3, _) => band_core::<3, NARROW, WRAP>(w, i, b, acc),
            (RowKernel::K5, true) => band_core::<5, WIDE, WRAP>(w, i, b, acc),
            (RowKernel::K7, true) => band_core::<7, WIDE, WRAP>(w, i, b, acc),
            _ => band_core::<0, NARROW, WRAP>(w, i, b, acc),
        }
    }
}

/// The blocked band pass over `L`-position blocks. `K = 0` takes the
/// extent from `band.width` at run time (the generic variant); any other
/// `K` is the monomorphized extent, unrolled.
///
/// Kept out of line: inlined, every monomorph lands in one dispatch
/// function, and the 5-tap band measured a third of its out-of-line
/// speed there.
#[inline(never)]
fn band_core<const K: usize, const L: usize, const WRAP: bool>(
    weights: &[Fx16],
    input: &[Fx16],
    band: Band,
    acc: &mut [Accum],
) {
    let k = extent::<K>(band.width);
    let span = acc.len();
    let Band {
        channels,
        w_stride,
        in_stride,
        ..
    } = band;
    if span == 0 || channels == 0 {
        return;
    }
    // Pin the exact extents the band reads. Besides catching undersized
    // operands eagerly, the tight slices keep every read inside the
    // pass's input span and let the optimizer drop per-tap checks.
    let weights = &weights[..(channels - 1) * w_stride + k];
    let input = &input[..(channels - 1) * in_stride + span + k - 1];
    let mut x0 = 0;
    while x0 + L <= span {
        fold_block::<L, WRAP>(weights, input, band, k, x0, &mut acc[x0..x0 + L], 0);
        x0 += L;
    }
    let rem = span - x0;
    if rem == 0 {
        return;
    }
    if span >= L {
        // The overlapped last block: its first L − rem positions are
        // already final, so it recomputes them but stores only the rem
        // new ones.
        let x0 = span - L;
        fold_block::<L, WRAP>(weights, input, band, k, x0, &mut acc[x0..], L - rem);
    } else {
        // A row shorter than one block: each tap's samples are read into
        // a zero-extended block, so the lanes past `span` compute junk
        // that is never stored and nothing is read past the row.
        let mut r = load::<L>(acc);
        let len = span + k - 1;
        for c in 0..channels {
            let w = &weights[c * w_stride..][..k];
            let row = &input[c * in_stride..][..len];
            fold_channel::<L, WRAP, _>(&mut r, w, |j| {
                let mut lanes = [Fx16::ZERO; L];
                for (x, lane) in lanes.iter_mut().enumerate() {
                    if j + x < len {
                        *lane = row[j + x];
                    }
                }
                lanes
            });
        }
        store(acc, &r[..span]);
    }
}

/// The tap count of a `K` monomorph (`K = 0`: the band's own width).
///
/// # Panics
///
/// Panics if `width` disagrees with a fixed `K`, or is zero.
fn extent<const K: usize>(width: usize) -> usize {
    let k = if K == 0 { width } else { K };
    assert_eq!(width, k, "weight row length must match the kernel");
    assert!(k >= 1, "a correlation kernel needs at least one weight");
    k
}

/// One full block: loads the `L` accumulators at `x0` into registers,
/// folds every channel of the band into them, and stores lanes `fresh..`
/// back (all of them except on the overlapped last block).
#[inline(always)]
fn fold_block<const L: usize, const WRAP: bool>(
    weights: &[Fx16],
    input: &[Fx16],
    band: Band,
    k: usize,
    x0: usize,
    block: &mut [Accum],
    fresh: usize,
) {
    let block = &mut block[..L];
    let mut r = load::<L>(block);
    for c in 0..band.channels {
        let w = &weights[c * band.w_stride..][..k];
        let win = &input[c * band.in_stride + x0..][..L + k - 1];
        fold_channel::<L, WRAP, _>(&mut r, w, |j| {
            <&[Fx16; L]>::try_from(&win[j..j + L]).expect("a block window holds L samples per tap")
        });
    }
    store(&mut block[fresh..], &r[fresh..]);
}

/// Reads one block of accumulators (or a shorter row's, zero-padded)
/// into registers.
#[inline(always)]
fn load<const L: usize>(block: &[Accum]) -> [i32; L] {
    let mut r = [0i32; L];
    for (ri, a) in r.iter_mut().zip(block) {
        *ri = a.to_bits();
    }
    r
}

/// Writes registers back over the accumulators (`r.len()` of them).
#[inline(always)]
fn store(block: &mut [Accum], r: &[i32]) {
    for (a, &ri) in block.iter_mut().zip(r) {
        *a = Accum::from_bits(ri);
    }
}

/// Folds one channel's correlation at `L` consecutive positions into
/// the register block `r`; `lanes(j)` yields the block's input
/// samples under tap `j`. Saturating: each position's `j`-sum forms from
/// zero in ascending `j`, then lands in `r` with one saturating add.
/// Wrapping: every product folds straight into `r` (exact under the
/// caller's bound, so the grouping is free).
#[inline(always)]
fn fold_channel<const L: usize, const WRAP: bool, X: Borrow<[Fx16; L]>>(
    r: &mut [i32; L],
    w: &[Fx16],
    lanes: impl Fn(usize) -> X,
) {
    if WRAP {
        for (j, wj) in w.iter().enumerate() {
            let (wj, x) = (i32::from(wj.to_bits()), lanes(j));
            let x = x.borrow();
            for i in 0..L {
                r[i] = r[i].wrapping_add(i32::from(x[i].to_bits()) * wj);
            }
        }
    } else {
        let mut s = [0i32; L];
        for (j, wj) in w.iter().enumerate() {
            let (wj, x) = (i32::from(wj.to_bits()), lanes(j));
            let x = x.borrow();
            for i in 0..L {
                s[i] = s[i].saturating_add(i32::from(x[i].to_bits()) * wj);
            }
        }
        for i in 0..L {
            r[i] = r[i].saturating_add(s[i]);
        }
    }
}

/// The filter lanes of the portable filter-vector loop, and the
/// narrowest filter block of the tap-pair kernel.
const FILTER_LANES: usize = 8;

/// The lanes of one lane-layout group (dense filters or transferred
/// lanes), and so the weights per tap row of its table: one 32-filter
/// block, two `vpdpwssd`s of 16 filters each on AVX-512BW with AVX-512
/// VNNI. Narrower hosts, and a group with fewer live lanes, run 8- or
/// 16-filter blocks over it.
pub(crate) const FILTER_GROUP: usize = 32;

/// The filter-vector band pass: for every position `p` and filter
/// `f < live`, with `G` = [`FILTER_GROUP`],
///
/// ```text
/// acc[p·G + f] = Σ_c Σ_j input[c·in_stride + positions[p] + j]
///                        · weights[c·w_stride + j·G + f]
/// ```
///
/// The weights are a group's tap-major table: channel `c`'s tap `j` is
/// the row of `G` weights at `c·w_stride + j·G`, so `band.w_stride` is
/// the distance between consecutive channels' first tap rows. It
/// overwrites `acc` (each sum starts from zero). Slots of filters
/// `live..G` may be written with unspecified values.
///
/// Saturating (`wrapping` false), each slot follows the reference
/// order: per channel a `j`-ascending saturating sum from zero, then one
/// saturating accumulate. `wrapping` is for bands the stage gate has
/// proven saturation-free, as for [`RowKernel::correlate_band`]; on
/// x86-64 that form runs the tap-pair kernel's filter blocks (`pairs`),
/// one broadcast input pair against a tap pair of every filter of a
/// block.
///
/// # Panics
///
/// Panics before any read if the band has no channel or no tap, if
/// `live` exceeds `G`, or if an operand is shorter than the band's
/// extent:
/// `(channels − 1)·w_stride + width·G` weights,
/// `(channels − 1)·in_stride + max(positions) + width` samples and
/// `positions.len()·G` accumulators.
pub(crate) fn correlate_filters(
    weights: &[Fx16],
    input: &[Fx16],
    band: Band,
    positions: &[usize],
    live: usize,
    acc: &mut [Accum],
    wrapping: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if wrapping && band.width >= 2 {
        return pairs::filters(
            pairs::Lanes::X32,
            weights,
            input,
            band,
            positions,
            live,
            acc,
        );
    }
    filters_portable(weights, input, band, positions, live, acc, wrapping);
}

/// Checks a filter band's operands against its extent (see
/// [`correlate_filters`]) and cuts them to it: the one check of a call.
/// The tap-pair filter blocks read each position's input pair unchecked
/// inside the input cut, so the reach and both cut lengths are computed
/// with checked arithmetic; a wrapped length could let a read escape.
fn filter_extent<'a>(
    weights: &'a [Fx16],
    input: &'a [Fx16],
    band: Band,
    positions: &[usize],
    live: usize,
    acc_len: usize,
) -> (&'a [Fx16], &'a [Fx16]) {
    let Band {
        channels,
        width,
        w_stride,
        in_stride,
    } = band;
    assert!(
        channels >= 1 && width >= 1,
        "a filter band needs a channel and a tap"
    );
    assert!(
        live <= FILTER_GROUP,
        "a filter group holds at most {FILTER_GROUP} live filters"
    );
    assert!(
        acc_len / FILTER_GROUP >= positions.len(),
        "one accumulator per position and filter"
    );
    // `(channels − 1)·stride + last`, or `None` where it overflows.
    let cut =
        |stride: usize, last: Option<usize>| (channels - 1).checked_mul(stride)?.checked_add(last?);
    let reach = positions
        .iter()
        .max()
        .map_or(Some(0), |&o| o.checked_add(width));
    // Tap-major: the last channel's `width` tap rows of `G` weights
    // start at (channels − 1)·w_stride.
    let w_len = cut(w_stride, width.checked_mul(FILTER_GROUP));
    let (Some(w_len), Some(in_len)) = (w_len, cut(in_stride, reach)) else {
        panic!("a filter band's extent overflows usize");
    };
    (&weights[..w_len], &input[..in_len])
}

/// The portable filter-vector loop: every target's saturating form, and
/// the wrapping form where the tap-pair kernel does not serve.
fn filters_portable(
    weights: &[Fx16],
    input: &[Fx16],
    band: Band,
    positions: &[usize],
    live: usize,
    acc: &mut [Accum],
    wrapping: bool,
) {
    if wrapping {
        filters_loop::<true>(weights, input, band, positions, live, acc);
    } else {
        filters_loop::<false>(weights, input, band, positions, live, acc);
    }
}

/// [`filters_portable`]'s body: filters run in blocks of
/// [`FILTER_LANES`] register lanes per position.
fn filters_loop<const WRAP: bool>(
    weights: &[Fx16],
    input: &[Fx16],
    band: Band,
    positions: &[usize],
    live: usize,
    acc: &mut [Accum],
) {
    let (weights, input) = filter_extent(weights, input, band, positions, live, acc.len());
    let Band {
        channels,
        width,
        w_stride,
        in_stride,
    } = band;
    for (&o, out) in positions.iter().zip(acc.chunks_exact_mut(FILTER_GROUP)) {
        for f0 in (0..live).step_by(FILTER_LANES) {
            let mut r = [0i32; FILTER_LANES];
            for c in 0..channels {
                let x = &input[c * in_stride + o..][..width];
                let w = &weights[c * w_stride + f0..];
                let mut s = [0i32; FILTER_LANES];
                for (j, xj) in x.iter().enumerate() {
                    let xj = i32::from(xj.to_bits());
                    let wj = &w[j * FILTER_GROUP..][..FILTER_LANES];
                    for (si, wf) in s.iter_mut().zip(wj) {
                        let product = xj * i32::from(wf.to_bits());
                        *si = if WRAP {
                            si.wrapping_add(product)
                        } else {
                            si.saturating_add(product)
                        };
                    }
                }
                for (ri, si) in r.iter_mut().zip(s) {
                    *ri = if WRAP {
                        ri.wrapping_add(si)
                    } else {
                        ri.saturating_add(si)
                    };
                }
            }
            store(&mut out[f0..f0 + FILTER_LANES], &r);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod pairs {
    //! The x86-64 tap-pair kernel: the wrapping form with two taps per
    //! multiply-accumulate instruction, the software form of SAFM's pre-add.
    //!
    //! `punpck{l,h}wd` interleaves the samples under taps `j` and `j + 1`,
    //! and `pmaddwd` multiplies them by the broadcast weight pair
    //! `(w[j], w[j+1])` — one 32-bit read, since every stored row holds the
    //! pair side by side — adding each two adjacent products into one `i32`
    //! lane. An odd extent pairs its last tap as `(0, x[K−1])` against
    //! `(w[K−2], w[K−1])`: the weight read stays inside the row and the zero
    //! product is exact.
    //!
    //! One block body (`pair_blocks!`) runs at three widths: 8 positions
    //! in 128-bit registers (SSE2, the x86-64 baseline), 16 in 256-bit
    //! (AVX2) and 32 in 512-bit (AVX-512BW with AVX-512 VNNI). The 512-bit
    //! width multiply-accumulates with VNNI's `vpdpwssd`, `pmaddwd` and
    //! `paddd` fused into one instruction; an AVX-512BW host without VNNI
    //! runs the 256-bit blocks. [`band`] runs the host's widest full
    //! blocks first, then narrower ones, then a ragged tail as one
    //! overlapped 8-position block (the portable loop's tail rule).
    //!
    //! **Filter blocks.** [`filters`] turns the same instruction around
    //! for the filter-vector sweep: `punpck{l,h}wd` interleaves tap rows
    //! `j` and `j + 1` of the tap-major group table (one weight per
    //! filter), and `pmaddwd` multiplies them by one position's broadcast
    //! input pair `(x[j], x[j+1])`, so each `i32` lane is one filter.
    //! The widths hold 8, 16 or 32 filters (4, 8 or 16 per `pmaddwd`),
    //! in the same lane order the position blocks use, so one `store`
    //! un-permutes both. An odd extent pairs its last tap as
    //! `(0, w[K−1])` against `(x[K−2], x[K−1])`, an in-bounds read. Each
    //! position's broadcast pair is one unaligned 32-bit read with no
    //! bounds check of its own: `filter_extent`'s one check per call,
    //! in checked arithmetic, already covers every position's reach.
    //!
    //! **Exactness.** `pmaddwd`, `paddd` and the fused `vpdpwssd` are
    //! exact modulo 2³² (so every width gives the same bits on any data,
    //! pinned by the unbounded-data proptests), and the stage gate
    //! (`exec::saturation_free`) that selects the wrapping form keeps
    //! every exact sum inside `i32`, so the outputs equal the saturating
    //! chain bit for bit. (`pmaddwd` wraps only when all four operands are
    //! −2¹⁵, a pair sum of 2³¹ that the gate rejects.)
    //!
    //! **Unsafe.** This is the crate's one `unsafe` module, shared by
    //! both kernels. Its `unsafe` blocks are unaligned loads and stores
    //! of exactly one vector from a slice already cut to that length (so
    //! a short operand panics before any read); the filter blocks' pair
    //! reads, each inside the input cut `filter_extent` made before any
    //! read (and `debug_assert!`ed against it); and entries into
    //! `#[target_feature]` functions: SSE2 always, AVX2 and AVX-512BW with
    //! AVX-512 VNNI only after run-time detection.

    use super::{extent, filter_extent, Band, FILTER_GROUP, NARROW};
    use tfe_tensor::fixed::{Accum, Fx16};

    /// The widest block a call may run; ordered narrowest first.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(super) enum Lanes {
        /// 8 positions per block, SSE2.
        X8,
        /// 16 positions per block, AVX2.
        X16,
        /// 32 positions per block, AVX-512BW with AVX-512 VNNI.
        X32,
    }

    impl Lanes {
        /// The narrowest filter block holding `live` filters.
        fn holding(live: usize) -> Lanes {
            match live {
                0..=8 => Lanes::X8,
                9..=16 => Lanes::X16,
                _ => Lanes::X32,
            }
        }

        /// Filters (or positions) per block.
        fn count(self) -> usize {
            match self {
                Lanes::X8 => 8,
                Lanes::X16 => 16,
                Lanes::X32 => 32,
            }
        }

        /// The widest block this host runs (`is_x86_feature_detected!`
        /// caches its probe, so each call is one load and test). The
        /// 512-bit blocks multiply-accumulate with VNNI's `vpdpwssd`, so
        /// they need AVX-512 VNNI beside AVX-512BW; an AVX-512BW host
        /// without it runs the 256-bit blocks.
        pub(super) fn host() -> Lanes {
            if !std::is_x86_feature_detected!("avx2") {
                Lanes::X8
            } else if std::is_x86_feature_detected!("avx512bw")
                && std::is_x86_feature_detected!("avx512vnni")
            {
                Lanes::X32
            } else {
                Lanes::X16
            }
        }
    }

    /// Whether the tap-pair kernel serves a wrapping band: a row of at
    /// least one 8-position block, and at least two taps to pair.
    pub(super) fn serves(span: usize, width: usize) -> bool {
        span >= NARROW && width >= 2
    }

    /// `acc[x] += Σ_c Σ_j input[c·in_stride + x + j] · w_c[j]`, wrapping,
    /// in blocks no wider than `cap` or the host's widest.
    ///
    /// # Panics
    ///
    /// Panics unless [`serves`] holds for the band, if its width
    /// disagrees with `K`, or if an operand is shorter than the band's
    /// extent (see [`super::RowKernel::correlate_band`]).
    pub(super) fn band<const K: usize>(
        cap: Lanes,
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        acc: &mut [Accum],
    ) {
        let k = extent::<K>(band.width);
        let span = acc.len();
        assert!(
            serves(span, k),
            "a tap-pair band needs {NARROW} positions and two taps"
        );
        if band.channels == 0 {
            return;
        }
        let weights = &weights[..(band.channels - 1) * band.w_stride + k];
        let input = &input[..(band.channels - 1) * band.in_stride + span + k - 1];
        let widest = Lanes::host().min(cap);
        let mut x0 = 0;
        if widest == Lanes::X32 {
            // SAFETY: `Lanes::host` answers X32 only after detecting
            // AVX-512BW and AVX-512 VNNI.
            x0 = unsafe { x32::blocks::<K>(weights, input, band, acc, x0) };
        }
        if widest >= Lanes::X16 {
            // SAFETY: `Lanes::host` answers X16 or wider only after
            // detecting AVX2.
            x0 = unsafe { x16::blocks::<K>(weights, input, band, acc, x0) };
        }
        // SAFETY: SSE2 is part of the x86-64 baseline.
        x0 = unsafe { x8::blocks::<K>(weights, input, band, acc, x0) };
        if x0 < span {
            // The overlapped last block: its first lanes are already
            // final, so it runs on a copy whose stale lanes are zero
            // and only its fresh lanes are written back.
            let (x0, fresh) = (span - x8::LANES, x8::LANES - (span - x0));
            let mut tail = [Accum::ZERO; x8::LANES];
            tail[fresh..].copy_from_slice(&acc[x0 + fresh..]);
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { x8::blocks::<K>(weights, &input[x0..], band, &mut tail, 0) };
            acc[x0 + fresh..].copy_from_slice(&tail[fresh..]);
        }
    }

    /// The filter-vector band pass, wrapping (see
    /// [`super::correlate_filters`]): blocks of the host's widest filter
    /// width, no wider than `cap` or than the narrowest width holding
    /// `live`, each over every position.
    ///
    /// # Panics
    ///
    /// Panics before any read if the band has fewer than two taps, or
    /// on any operand [`super::correlate_filters`] rejects.
    pub(super) fn filters(
        cap: Lanes,
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        positions: &[usize],
        live: usize,
        acc: &mut [Accum],
    ) {
        let (weights, input) = filter_extent(weights, input, band, positions, live, acc.len());
        assert!(band.width >= 2, "a tap-pair filter band needs two taps");
        let lanes = Lanes::host().min(cap).min(Lanes::holding(live));
        for f0 in (0..live).step_by(lanes.count()) {
            let w = &weights[f0..];
            // Every arm: `filter_extent` cut `input` to the band's reach
            // over every position, the pair reads' contract.
            match lanes {
                // SAFETY: `Lanes::host` answers X32 only after detecting
                // AVX-512BW and AVX-512 VNNI; the reach is as above.
                Lanes::X32 => unsafe { x32::filter_blocks(w, input, band, positions, f0, acc) },
                // SAFETY: `Lanes::host` answers X16 or wider only after
                // detecting AVX2; the reach is as above.
                Lanes::X16 => unsafe { x16::filter_blocks(w, input, band, positions, f0, acc) },
                // SAFETY: SSE2 is part of the x86-64 baseline; the reach
                // is as above.
                Lanes::X8 => unsafe { x8::filter_blocks(w, input, band, positions, f0, acc) },
            }
        }
    }

    /// The 32-bit broadcast operand `(lo, hi)` of one weight or sample
    /// pair.
    #[inline(always)]
    fn pair(lo: Fx16, hi: Fx16) -> i32 {
        (u32::from(hi.to_bits() as u16) << 16 | u32::from(lo.to_bits() as u16)) as i32
    }

    /// The block bodies shared by every width. The enclosing module
    /// defines `LANES` and, under the named target features, the block's
    /// vector operations: `load` and `store` (its accumulators as two
    /// `i32` vectors), `samples` (`LANES` samples or weights as one `i16`
    /// vector), `zero`, `interleave` (two such vectors as pairs) and
    /// `madd` (interleaved pairs times one broadcast pair, folded into
    /// the accumulators). The listed position counts are the filter
    /// blocks' cascade, widest first.
    macro_rules! pair_blocks {
        ($feature:literal, $($positions:literal),+) => {
            /// Folds the band into every full `LANES`-position block from
            /// `x0` on and returns where the first unfinished block
            /// starts.
            #[target_feature(enable = $feature)]
            pub(super) fn blocks<const K: usize>(
                weights: &[Fx16],
                input: &[Fx16],
                band: Band,
                acc: &mut [Accum],
                mut x0: usize,
            ) -> usize {
                let k = if K == 0 { band.width } else { K };
                while x0 + LANES <= acc.len() {
                    let block = &mut acc[x0..x0 + LANES];
                    let mut r = load(block);
                    for c in 0..band.channels {
                        let w = &weights[c * band.w_stride..][..k];
                        let x = &input[c * band.in_stride + x0..][..LANES + k - 1];
                        let mut j = 0;
                        while j + 1 < k {
                            let x = interleave(samples(&x[j..]), samples(&x[j + 1..]));
                            r = madd(r, x, pair(w[j], w[j + 1]));
                            j += 2;
                        }
                        if k % 2 == 1 {
                            let x = interleave(zero(), samples(&x[k - 1..]));
                            r = madd(r, x, pair(w[k - 2], w[k - 1]));
                        }
                    }
                    store(block, r);
                    x0 += LANES;
                }
                x0
            }

            /// Runs filters `f0 .. f0 + LANES` of the band at every
            /// position into `acc`, in blocks of the listed position
            /// counts. `weights` starts at filter `f0`.
            ///
            /// # Safety
            ///
            /// The host has the module's target features, the band has
            /// at least two taps, and `input` holds every pair the band
            /// reads: `(channels − 1)·in_stride + max(positions) + width`
            /// samples, the cut [`filter_extent`](super::super::filter_extent)
            /// makes.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn filter_blocks(
                weights: &[Fx16],
                input: &[Fx16],
                band: Band,
                positions: &[usize],
                f0: usize,
                acc: &mut [Accum],
            ) {
                let mut p0 = 0;
                $(
                    // SAFETY: this function's contract is `filter_run`'s.
                    p0 = unsafe {
                        filter_run::<$positions>(weights, input, band, positions, f0, acc, p0)
                    };
                )+
                debug_assert_eq!(p0, positions.len(), "the cascade ends at one position");
            }

            /// Runs every full block of `P` positions from `p0` on and
            /// returns where the first unfinished block starts. Each
            /// block holds `P` positions' accumulators in registers
            /// across the whole band; each tap pair's weights are
            /// interleaved once per block, and each position's input
            /// pair is one unchecked 32-bit read.
            ///
            /// # Safety
            ///
            /// As for [`filter_blocks`].
            #[target_feature(enable = $feature)]
            unsafe fn filter_run<const P: usize>(
                weights: &[Fx16],
                input: &[Fx16],
                band: Band,
                positions: &[usize],
                f0: usize,
                acc: &mut [Accum],
                mut p0: usize,
            ) -> usize {
                let Band {
                    channels,
                    width,
                    w_stride,
                    in_stride,
                } = band;
                while p0 + P <= positions.len() {
                    let offsets = &positions[p0..p0 + P];
                    let mut r = [(zero(), zero()); P];
                    for c in 0..channels {
                        let w = &weights[c * w_stride..];
                        let x = &input[c * in_stride..];
                        let mut j = 0;
                        while j < width {
                            // An odd last tap pairs (0, w[K−1]) against
                            // (x[K−2], x[K−1]).
                            let (taps, j0) = if j + 1 < width {
                                let next = samples(&w[(j + 1) * FILTER_GROUP..]);
                                (interleave(samples(&w[j * FILTER_GROUP..]), next), j)
                            } else {
                                (interleave(zero(), samples(&w[j * FILTER_GROUP..])), j - 1)
                            };
                            for (ri, &o) in r.iter_mut().zip(offsets) {
                                let at = o + j0;
                                debug_assert!(at + 2 <= x.len(), "a pair read past the extent");
                                let p = x.as_ptr().wrapping_add(at).cast::<i32>();
                                // SAFETY: by the contract `x` (channel c's
                                // rows on) holds `max(positions) + width`
                                // samples, and `at + 2 ≤ o + width`: the
                                // pair `(x[at], x[at+1])` is one unaligned
                                // little-endian `i32`.
                                let pair = unsafe { p.read_unaligned() };
                                *ri = madd(*ri, taps, pair);
                            }
                            j += 2;
                        }
                    }
                    for (ri, p) in r.into_iter().zip(p0..) {
                        store(&mut acc[p * FILTER_GROUP + f0..], ri);
                    }
                    p0 += P;
                }
                p0
            }
        };
    }

    /// 8 positions in 128-bit registers; the two accumulator vectors
    /// hold positions 0–3 and 4–7, the order `punpck{l,h}wd` yields.
    mod x8 {
        use super::{pair, Band, FILTER_GROUP};
        use std::arch::x86_64::*;
        use tfe_tensor::fixed::{Accum, Fx16};

        pub(super) const LANES: usize = 8;
        type Acc = (__m128i, __m128i);

        #[target_feature(enable = "sse2")]
        #[inline]
        fn samples(s: &[Fx16]) -> __m128i {
            let s = &s[..LANES];
            // SAFETY: `s` holds 8 `i16` (`Fx16` is transparent), one
            // 16-byte vector; `loadu` needs no alignment.
            unsafe { _mm_loadu_si128(s.as_ptr().cast()) }
        }

        #[target_feature(enable = "sse2")]
        #[inline]
        fn load(block: &[Accum]) -> Acc {
            let (lo, hi) = block[..LANES].split_at(LANES / 2);
            // SAFETY: `lo` holds 4 `i32` (`Accum` is transparent), one
            // 16-byte vector; `loadu` needs no alignment.
            let lo = unsafe { _mm_loadu_si128(lo.as_ptr().cast()) };
            // SAFETY: as above, for the block's upper 4 accumulators.
            let hi = unsafe { _mm_loadu_si128(hi.as_ptr().cast()) };
            (lo, hi)
        }

        #[target_feature(enable = "sse2")]
        #[inline]
        fn store(block: &mut [Accum], (lo, hi): Acc) {
            let (l, h) = block[..LANES].split_at_mut(LANES / 2);
            // SAFETY: `l` holds 4 `i32` (`Accum` is transparent), one
            // 16-byte vector; `storeu` needs no alignment.
            unsafe { _mm_storeu_si128(l.as_mut_ptr().cast(), lo) };
            // SAFETY: as above, for the block's upper 4 accumulators.
            unsafe { _mm_storeu_si128(h.as_mut_ptr().cast(), hi) };
        }

        #[target_feature(enable = "sse2")]
        #[inline]
        fn zero() -> __m128i {
            _mm_setzero_si128()
        }

        #[target_feature(enable = "sse2")]
        #[inline]
        fn interleave(a: __m128i, b: __m128i) -> Acc {
            (_mm_unpacklo_epi16(a, b), _mm_unpackhi_epi16(a, b))
        }

        #[target_feature(enable = "sse2")]
        #[inline]
        fn madd((lo, hi): Acc, (a, b): Acc, w: i32) -> Acc {
            let w = _mm_set1_epi32(w);
            (
                _mm_add_epi32(lo, _mm_madd_epi16(a, w)),
                _mm_add_epi32(hi, _mm_madd_epi16(b, w)),
            )
        }

        pair_blocks!("sse2", 4, 2, 1);
    }

    /// 16 positions in 256-bit registers. `punpck{l,h}wd` works within
    /// each 128-bit half, so the low vector holds positions 0–3 and
    /// 8–11 and the high one 4–7 and 12–15; `load` and `store` permute
    /// between that order and the row's.
    mod x16 {
        use super::{pair, Band, FILTER_GROUP};
        use std::arch::x86_64::*;
        use tfe_tensor::fixed::{Accum, Fx16};

        const LANES: usize = 16;
        type Acc = (__m256i, __m256i);

        #[target_feature(enable = "avx2")]
        #[inline]
        fn samples(s: &[Fx16]) -> __m256i {
            let s = &s[..LANES];
            // SAFETY: `s` holds 16 `i16` (`Fx16` is transparent), one
            // 32-byte vector; `loadu` needs no alignment.
            unsafe { _mm256_loadu_si256(s.as_ptr().cast()) }
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn load(block: &[Accum]) -> Acc {
            let (a, b) = block[..LANES].split_at(LANES / 2);
            // SAFETY: `a` holds 8 `i32` (`Accum` is transparent), one
            // 32-byte vector; `loadu` needs no alignment.
            let a = unsafe { _mm256_loadu_si256(a.as_ptr().cast()) };
            // SAFETY: as above, for the block's upper 8 accumulators.
            let b = unsafe { _mm256_loadu_si256(b.as_ptr().cast()) };
            (
                _mm256_permute2x128_si256::<0x20>(a, b),
                _mm256_permute2x128_si256::<0x31>(a, b),
            )
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn store(block: &mut [Accum], (lo, hi): Acc) {
            let (a, b) = block[..LANES].split_at_mut(LANES / 2);
            // The halves' exchange is its own inverse.
            let va = _mm256_permute2x128_si256::<0x20>(lo, hi);
            let vb = _mm256_permute2x128_si256::<0x31>(lo, hi);
            // SAFETY: `a` holds 8 `i32` (`Accum` is transparent), one
            // 32-byte vector; `storeu` needs no alignment.
            unsafe { _mm256_storeu_si256(a.as_mut_ptr().cast(), va) };
            // SAFETY: as above, for the block's upper 8 accumulators.
            unsafe { _mm256_storeu_si256(b.as_mut_ptr().cast(), vb) };
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn zero() -> __m256i {
            _mm256_setzero_si256()
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn interleave(a: __m256i, b: __m256i) -> Acc {
            (_mm256_unpacklo_epi16(a, b), _mm256_unpackhi_epi16(a, b))
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn madd((lo, hi): Acc, (a, b): Acc, w: i32) -> Acc {
            let w = _mm256_set1_epi32(w);
            (
                _mm256_add_epi32(lo, _mm256_madd_epi16(a, w)),
                _mm256_add_epi32(hi, _mm256_madd_epi16(b, w)),
            )
        }

        pair_blocks!("avx2", 4, 2, 1);
    }

    /// 32 positions in 512-bit registers, multiply-accumulated by
    /// `vpdpwssd` (AVX-512 VNNI). As at 16, the unpacks work per 128-bit
    /// quarter: the low vector holds positions 0–3, 8–11, 16–19 and
    /// 24–27, the high one the other four quarters.
    mod x32 {
        use super::{pair, Band, FILTER_GROUP};
        use std::arch::x86_64::*;
        use tfe_tensor::fixed::{Accum, Fx16};

        const LANES: usize = 32;
        type Acc = (__m512i, __m512i);

        #[target_feature(enable = "avx512bw")]
        #[inline]
        fn samples(s: &[Fx16]) -> __m512i {
            let s = &s[..LANES];
            // SAFETY: `s` holds 32 `i16` (`Fx16` is transparent), one
            // 64-byte vector; `loadu` needs no alignment.
            unsafe { _mm512_loadu_si512(s.as_ptr().cast()) }
        }

        #[target_feature(enable = "avx512bw")]
        #[inline]
        fn load(block: &[Accum]) -> Acc {
            let (a, b) = block[..LANES].split_at(LANES / 2);
            // SAFETY: `a` holds 16 `i32` (`Accum` is transparent), one
            // 64-byte vector; `loadu` needs no alignment.
            let a = unsafe { _mm512_loadu_si512(a.as_ptr().cast()) };
            // SAFETY: as above, for the block's upper 16 accumulators.
            let b = unsafe { _mm512_loadu_si512(b.as_ptr().cast()) };
            // Quarters (a0 a2 b0 b2) and (a1 a3 b1 b3).
            (
                _mm512_shuffle_i32x4::<0b10_00_10_00>(a, b),
                _mm512_shuffle_i32x4::<0b11_01_11_01>(a, b),
            )
        }

        #[target_feature(enable = "avx512bw")]
        #[inline]
        fn store(block: &mut [Accum], (lo, hi): Acc) {
            let (a, b) = block[..LANES].split_at_mut(LANES / 2);
            // (lo0 lo1 hi0 hi1) → (lo0 hi0 lo1 hi1), and likewise for
            // the upper quarters.
            let va = _mm512_shuffle_i32x4::<0b01_00_01_00>(lo, hi);
            let va = _mm512_shuffle_i32x4::<0b11_01_10_00>(va, va);
            let vb = _mm512_shuffle_i32x4::<0b11_10_11_10>(lo, hi);
            let vb = _mm512_shuffle_i32x4::<0b11_01_10_00>(vb, vb);
            // SAFETY: `a` holds 16 `i32` (`Accum` is transparent), one
            // 64-byte vector; `storeu` needs no alignment.
            unsafe { _mm512_storeu_si512(a.as_mut_ptr().cast(), va) };
            // SAFETY: as above, for the block's upper 16 accumulators.
            unsafe { _mm512_storeu_si512(b.as_mut_ptr().cast(), vb) };
        }

        #[target_feature(enable = "avx512bw")]
        #[inline]
        fn zero() -> __m512i {
            _mm512_setzero_si512()
        }

        #[target_feature(enable = "avx512bw")]
        #[inline]
        fn interleave(a: __m512i, b: __m512i) -> Acc {
            (_mm512_unpacklo_epi16(a, b), _mm512_unpackhi_epi16(a, b))
        }

        /// `vpdpwssd`: `pmaddwd` and `paddd` in one instruction, the
        /// same sum modulo 2³².
        #[target_feature(enable = "avx512bw,avx512vnni")]
        #[inline]
        fn madd((lo, hi): Acc, (a, b): Acc, w: i32) -> Acc {
            let w = _mm512_set1_epi32(w);
            (_mm512_dpwssd_epi32(lo, a, w), _mm512_dpwssd_epi32(hi, b, w))
        }

        pair_blocks!("avx512bw,avx512vnni", 8, 4, 2, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The block-width caps every test runs: 0 is the portable loop (on
    /// every target), 8, 16 and 32 the tap-pair kernel's widths.
    const CAPS: [usize; 4] = [0, 8, 16, 32];

    /// [`RowKernel::correlate_band`] with the tap-pair kernel's blocks
    /// capped at `cap` positions (0: the portable loop). Returns false,
    /// running nothing and reporting the skip, when the host lacks that
    /// width.
    fn correlate_capped(
        kernel: RowKernel,
        cap: usize,
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        acc: &mut [Accum],
        wrapping: bool,
    ) -> bool {
        if cap == 0 {
            kernel.portable(weights, input, band, acc, wrapping);
            return true;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let lanes = lanes_of(cap);
            if lanes <= pairs::Lanes::host() {
                if wrapping && pairs::serves(acc.len(), band.width) {
                    kernel.correlate_pairs(lanes, weights, input, band, acc);
                } else {
                    kernel.portable(weights, input, band, acc, wrapping);
                }
                return true;
            }
        }
        eprintln!("skipped: this host has no {cap}-position tap-pair blocks");
        false
    }

    /// The tap-pair kernel's width for a test cap of 8, 16 or 32.
    #[cfg(target_arch = "x86_64")]
    fn lanes_of(cap: usize) -> pairs::Lanes {
        match cap {
            8 => pairs::Lanes::X8,
            16 => pairs::Lanes::X16,
            32 => pairs::Lanes::X32,
            _ => panic!("no {cap}-lane tap-pair block"),
        }
    }

    /// [`correlate_filters`] with the tap-pair kernel's filter blocks
    /// capped at `cap` filters (0: the portable loop). Returns false,
    /// running nothing and reporting the skip, when the host lacks that
    /// width.
    #[allow(clippy::too_many_arguments)]
    fn filters_capped(
        cap: usize,
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        positions: &[usize],
        live: usize,
        acc: &mut [Accum],
        wrapping: bool,
    ) -> bool {
        if cap == 0 {
            filters_portable(weights, input, band, positions, live, acc, wrapping);
            return true;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let lanes = lanes_of(cap);
            if lanes <= pairs::Lanes::host() {
                if wrapping && band.width >= 2 {
                    pairs::filters(lanes, weights, input, band, positions, live, acc);
                } else {
                    filters_portable(weights, input, band, positions, live, acc, wrapping);
                }
                return true;
            }
        }
        eprintln!("skipped: this host has no {cap}-filter tap-pair blocks");
        false
    }

    /// The scalar reference of the filter-vector pass, one position and
    /// filter at a time: per channel a `j`-ascending saturating sum from
    /// zero, then one saturating accumulate. Returns `[positions × live]`.
    fn filter_reference(
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        positions: &[usize],
        live: usize,
    ) -> Vec<Accum> {
        let mut out = Vec::new();
        for &o in positions {
            for f in 0..live {
                let mut acc = Accum::ZERO;
                for c in 0..band.channels {
                    let corr: Accum = (0..band.width)
                        .map(|j| {
                            let w = weights[c * band.w_stride + j * FILTER_GROUP + f];
                            input[c * band.in_stride + o + j].widening_mul(w)
                        })
                        .sum();
                    acc += corr;
                }
                out.push(acc);
            }
        }
        out
    }

    /// Runs the filter-vector pass under every cap and both forms (the
    /// wrapping one only where `gated`), comparing every live slot with
    /// the scalar reference.
    fn check_filters(
        weights: &[Fx16],
        input: &[Fx16],
        band: Band,
        positions: &[usize],
        live: usize,
        gated: bool,
    ) -> Result<(), String> {
        let want = filter_reference(weights, input, band, positions, live);
        for cap in CAPS {
            for wrap in [false, true].into_iter().filter(|&w| gated || !w) {
                let mut acc = vec![Accum::from_bits(0x5a5a); positions.len() * FILTER_GROUP];
                if filters_capped(cap, weights, input, band, positions, live, &mut acc, wrap) {
                    let got: Vec<Accum> = acc
                        .chunks_exact(FILTER_GROUP)
                        .flat_map(|slots| &slots[..live])
                        .copied()
                        .collect();
                    if got != want {
                        return Err(format!(
                            "cap {cap} wrapping {wrap} live {live} band {band:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn fx(bits: &[i16]) -> Vec<Fx16> {
        bits.iter().map(|&b| Fx16::from_bits(b)).collect()
    }

    /// The scalar reference order: `channels` sequential one-row passes,
    /// each forming every position's `Σ_j` saturating from zero, then
    /// one saturating accumulate (what `crate::ppsr::correlate_at` +
    /// `+=` perform in the `*_acc_scalar` oracles).
    fn reference(weights: &[Fx16], input: &[Fx16], band: Band, acc: &mut [Accum]) {
        let k = band.width;
        for c in 0..band.channels {
            let w = &weights[c * band.w_stride..][..k];
            let row = &input[c * band.in_stride..];
            for (x, slot) in acc.iter_mut().enumerate() {
                let corr: Accum = (0..k).map(|j| row[x + j].widening_mul(w[j])).sum();
                *slot += corr;
            }
        }
    }

    /// The stage gate's bound (`exec::saturation_free`) on this band's
    /// operands, widened by the largest base accumulator: where it holds,
    /// the wrapping form must equal the reference.
    fn gated(weights: &[Fx16], input: &[Fx16], band: Band, base: &[Accum]) -> bool {
        let abs_max = |v: &[Fx16]| {
            v.iter()
                .map(|x| i64::from(x.to_bits()).abs())
                .max()
                .unwrap_or(0)
        };
        let acc_max = base
            .iter()
            .map(|a| i64::from(a.to_bits()).abs())
            .max()
            .unwrap_or(0);
        (band.channels * band.width) as i64 * abs_max(weights) * abs_max(input) + acc_max
            < i64::from(i32::MAX)
    }

    /// Advances the test streams' generator and returns its state.
    fn step(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed
    }

    /// A deterministic stream of raw `i16` values: uniform in `±bound`,
    /// or (`bound == 0`) drawn only from values whose products clamp
    /// after a few terms.
    fn draw(seed: &mut u64, len: usize, bound: i32) -> Vec<i16> {
        const EXTREMES: [i16; 5] = [i16::MIN, i16::MAX, 0, 1, -1];
        (0..len)
            .map(|_| {
                let r = (step(seed) >> 33) as i32;
                if bound == 0 {
                    EXTREMES[r as usize % EXTREMES.len()]
                } else {
                    (r % (2 * bound + 1) - bound) as i16
                }
            })
            .collect()
    }

    /// Raw `i16` values with no bound: uniform over the whole range, or
    /// (`extremes`) [`draw`]'s clamping values, whose `pmaddwd` pair sums
    /// reach 2³¹.
    fn draw_unbounded(seed: &mut u64, len: usize, extremes: bool) -> Vec<i16> {
        if extremes {
            return draw(seed, len, 0);
        }
        (0..len).map(|_| (step(seed) >> 48) as i16).collect()
    }

    /// Checks the saturating form under every cap, and the wrapping form
    /// too where the operands pass the gate.
    fn check(kernel: RowKernel, weights: &[Fx16], input: &[Fx16], band: Band, base: &[Accum]) {
        let mut want = base.to_vec();
        reference(weights, input, band, &mut want);
        let wrap_ok = gated(weights, input, band, base);
        for cap in CAPS {
            for wrap in [false, true].into_iter().filter(|&w| wrap_ok || !w) {
                let mut got = base.to_vec();
                if correlate_capped(kernel, cap, weights, input, band, &mut got, wrap) {
                    assert_eq!(
                        got, want,
                        "kernel {kernel:?} cap {cap} wrapping {wrap} band={band:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn specialized_variants_match_reference() {
        let input = fx(&(0..140)
            .map(|i| (i * 991 - 7000) as i16)
            .collect::<Vec<_>>());
        for (k, kernel) in [
            (1, RowKernel::K1),
            (2, RowKernel::Generic),
            (3, RowKernel::K3),
            (5, RowKernel::K5),
            (7, RowKernel::K7),
            (4, RowKernel::Generic),
            (9, RowKernel::Generic),
        ] {
            assert_eq!(RowKernel::select(k), kernel);
            let weights = fx(&(0..k).map(|j| (j as i16 * 513) - 700).collect::<Vec<_>>());
            // Block boundaries of every width, sub-block, ragged, and
            // empty output extents, and rows long enough to cascade
            // 32 + 32 + 16 + 8 + an overlapped tail.
            for span in [
                0,
                1,
                2,
                3,
                4,
                5,
                7,
                8,
                11,
                15,
                16,
                19,
                32,
                40,
                48,
                56,
                63,
                64,
                100,
                input.len() - k + 1,
            ] {
                let base: Vec<Accum> = (0..span)
                    .map(|i| Accum::from_bits(i as i32 * 77 - 1000))
                    .collect();
                let band = Band::row(k);
                let input = &input[..span + k - 1];
                assert!(gated(&weights, input, band, &base));
                check(kernel, &weights, input, band, &base);
            }
        }
    }

    #[test]
    fn saturating_order_is_preserved_under_extreme_products() {
        // i16::MIN² = 2³⁰; three such products overflow i32, so the
        // running j-sum must saturate mid-correlation exactly like the
        // reference (j-ascending), not reassociate — and across two
        // channels the accumulator must clamp channel by channel.
        let weights = fx(&[i16::MIN, i16::MIN, i16::MAX, i16::MAX, i16::MIN, i16::MIN]);
        let input = fx(&[i16::MIN, i16::MIN, i16::MIN, i16::MAX, i16::MIN, i16::MIN]);
        let band = Band {
            channels: 2,
            width: 3,
            w_stride: 3,
            in_stride: 1,
        };
        let base = [Accum::from_bits(-5), Accum::from_bits(i32::MAX - 9)];
        check(RowKernel::K3, &weights, &input, band, &base);
        check(RowKernel::Generic, &weights, &input, band, &base);
    }

    #[test]
    fn wrapping_form_is_exact_at_the_gate_edge() {
        // Operands whose bound sits just inside 2³¹: every pair sum
        // reaches ±(2³¹ − 2¹⁶) or near it, so an exact pmaddwd pair and
        // an exact fold are required — yet no sum leaves i32. (All four
        // pmaddwd operands at −2¹⁵ would wrap; the gate rejects that.)
        const MIN: i16 = i16::MIN;
        const MAX: i16 = i16::MAX;
        for (channels, k, w, x) in [
            (1, 2, MIN, MAX),
            (1, 2, MAX, MIN),
            (1, 2, MIN, -MAX),
            (1, 3, -21845, MIN),
            (1, 3, 21845, MIN),
            (2, 4, -8191, MAX),
            (4, 2, MIN / 4 + 1, MIN),
        ] {
            for span in [8, 15, 16, 31, 32, 40, 63, 100] {
                let band = Band {
                    channels,
                    width: k,
                    w_stride: k,
                    in_stride: span + k - 1,
                };
                let weights = fx(&vec![w; channels * k]);
                let input = fx(&vec![x; channels * band.in_stride]);
                let base = vec![Accum::ZERO; span];
                assert!(
                    gated(&weights, &input, band, &base),
                    "cell ({channels}, {k}, {w}, {x}) fails the gate"
                );
                let mut want = base.clone();
                reference(&weights, &input, band, &mut want);
                for cap in CAPS {
                    let mut got = base.clone();
                    if correlate_capped(
                        RowKernel::select(k),
                        cap,
                        &weights,
                        &input,
                        band,
                        &mut got,
                        true,
                    ) {
                        assert_eq!(
                            got, want,
                            "cap {cap} span {span} cell ({channels}, {k}, {w}, {x})"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The stacked forms must equal `channels` sequential one-row
        /// passes in the `*_acc_scalar` order, for every variant (the
        /// runtime-`K` fallback included) under every block-width cap,
        /// both addition forms: the saturating form on clamping extreme
        /// data (and on gated data), the wrapping form on data satisfying
        /// the saturation-free gate. Spans reach past 100, so the widths
        /// cascade; inputs are sliced to exactly the band's extent, so
        /// any read past the pass's span panics.
        #[test]
        fn stacked_band_matches_sequential_channel_passes(
            k in 1usize..10,
            channels in 1usize..10,
            span in 0usize..131,
            w_gap in 0usize..3,
            in_gap in 0usize..5,
            clamping in proptest::prelude::any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let mut seed = seed;
            let band = Band {
                channels,
                width: k,
                w_stride: k + w_gap,
                in_stride: span + k - 1 + in_gap,
            };
            // |w|, |input| ≤ 1024 and |acc| ≤ 8192 keep
            // channels·k·max|w|·max|input| ≤ 81·2²⁰ ≪ 2³¹.
            let bound = if clamping { 0 } else { 1024 };
            let weights = fx(&draw(&mut seed, (channels - 1) * band.w_stride + k, bound));
            let input = fx(&draw(&mut seed, (channels - 1) * band.in_stride + span + k - 1, bound));
            let base: Vec<Accum> = if clamping {
                draw(&mut seed, span, 0)
                    .iter()
                    .map(|&b| Accum::from_bits(i32::from(b) << 16))
                    .collect()
            } else {
                draw(&mut seed, span, 8192)
                    .iter()
                    .map(|&b| Accum::from_bits(i32::from(b)))
                    .collect()
            };
            let mut want = base.clone();
            reference(&weights, &input, band, &mut want);
            for kernel in [RowKernel::select(k), RowKernel::Generic] {
                for cap in CAPS {
                    let mut got = base.clone();
                    if correlate_capped(kernel, cap, &weights, &input, band, &mut got, false) {
                        proptest::prop_assert_eq!(&got, &want, "{:?} cap {} saturating", kernel, cap);
                    }
                    if !clamping {
                        let mut got = base.clone();
                        if correlate_capped(kernel, cap, &weights, &input, band, &mut got, true) {
                            proptest::prop_assert_eq!(&got, &want, "{:?} cap {} wrapping", kernel, cap);
                        }
                    }
                }
            }
        }

        /// `pmaddwd` + `paddd` (8- and 16-position blocks) and the fused
        /// `vpdpwssd` (32) both give the exact sum modulo 2³², as does the
        /// portable wrapping loop, in any order. So on unbounded data, with
        /// no saturation-free gate, every width's wrapping position blocks
        /// must equal the portable wrapping loop bit for bit, whatever
        /// `exec::saturation_free` admits.
        #[test]
        fn wrapping_position_blocks_agree_modulo_2_32(
            k in 2usize..10,
            channels in 1usize..6,
            span in 8usize..131,
            in_gap in 0usize..5,
            extremes in proptest::prelude::any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let mut seed = seed;
            let band = Band {
                channels,
                width: k,
                w_stride: k,
                in_stride: span + k - 1 + in_gap,
            };
            let weights = fx(&draw_unbounded(&mut seed, (channels - 1) * k + k, extremes));
            let samples = (channels - 1) * band.in_stride + span + k - 1;
            let input = fx(&draw_unbounded(&mut seed, samples, extremes));
            let base: Vec<Accum> =
                (0..span).map(|_| Accum::from_bits(step(&mut seed) as i32)).collect();
            for kernel in [RowKernel::select(k), RowKernel::Generic] {
                let mut want = base.clone();
                kernel.portable(&weights, &input, band, &mut want, true);
                for cap in [8, 16, 32] {
                    let mut got = base.clone();
                    if correlate_capped(kernel, cap, &weights, &input, band, &mut got, true) {
                        proptest::prop_assert_eq!(&got, &want, "{:?} cap {}", kernel, cap);
                    }
                }
            }
        }
    }

    /// The 512-bit blocks run `vpdpwssd`, so the host answers them
    /// exactly when it has both AVX-512BW and AVX-512 VNNI.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_512_bit_blocks_need_avx512bw_and_vnni() {
        let bw = std::is_x86_feature_detected!("avx512bw");
        let vnni = std::is_x86_feature_detected!("avx512vnni");
        assert_eq!(
            pairs::Lanes::host() == pairs::Lanes::X32,
            bw && vnni,
            "avx512bw {bw} avx512vnni {vnni}"
        );
    }

    /// Runs `f`, which must panic with a message containing `expected`
    /// (`""`: any panic) unless it reports its cap skipped.
    fn rejects(what: &str, expected: &str, f: impl FnOnce() -> bool) {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(true) => panic!("{what} was accepted"),
            Ok(false) => {}
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(
                    msg.contains(expected),
                    "{what} panicked with {msg:?}, not {expected:?}"
                );
            }
        }
    }

    #[test]
    fn wrong_extent_is_rejected() {
        let weights = fx(&[1, 2]);
        let input = fx(&[0; 17]);
        for cap in CAPS {
            for wrapping in [false, true] {
                for kernel in [RowKernel::K1, RowKernel::K3] {
                    for span in [4, 16] {
                        rejects(
                            &format!("{kernel:?} on a 2-tap row, cap {cap}, span {span}"),
                            "weight row length",
                            || {
                                let mut acc = vec![Accum::ZERO; span];
                                correlate_capped(
                                    kernel,
                                    cap,
                                    &weights,
                                    &input,
                                    Band::row(2),
                                    &mut acc,
                                    wrapping,
                                )
                            },
                        );
                    }
                }
            }
        }
    }

    /// A batch-interleaved filter band as the group sweep lays it out:
    /// `images` image rows `pw` apart per channel, `cols` emitted columns
    /// at stride `s` each, and an input cut so the last position of the
    /// last image reads its last tap at the band's very end.
    struct FilterCase {
        band: Band,
        positions: Vec<usize>,
        weights: usize,
        input: usize,
    }

    fn filter_case(
        (channels, width): (usize, usize),
        (images, cols, s, slack): (usize, usize, usize, usize),
        (w_gap, in_gap): (usize, usize),
    ) -> FilterCase {
        let pw = (cols - 1) * s + width + slack;
        let positions: Vec<usize> = (0..images)
            .flat_map(|bi| (0..cols).map(move |ox| bi * pw + ox * s))
            .collect();
        let band = Band {
            channels,
            width,
            w_stride: width * FILTER_GROUP + w_gap,
            in_stride: images * pw + in_gap,
        };
        let last = positions.last().map_or(0, |&o| o + width);
        FilterCase {
            band,
            weights: (channels - 1) * band.w_stride + width * FILTER_GROUP,
            input: (channels - 1) * band.in_stride + last,
            positions,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// The filter-vector pass must equal the scalar per-(position,
        /// filter) reference under every filter-block cap, both forms:
        /// the saturating form on clamping extreme data (and on gated
        /// data), the wrapping form on gated data. Channels 1–9, `K`
        /// 2–9, group fills 1..G (so every block width runs, full and
        /// partly live), strides 1 and 2, up to four images; operands
        /// are cut to exactly the band's extent, so a read past the last
        /// position of the last image panics.
        #[test]
        fn filter_vector_matches_the_scalar_reference(
            channels in 1usize..10,
            width in 2usize..10,
            fill in 0usize..FILTER_GROUP,
            images in 1usize..5,
            cols in 1usize..13,
            s in 1usize..3,
            slack in 0usize..3,
            w_gap in 0usize..9,
            in_gap in 0usize..5,
            clamping in proptest::prelude::any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let live = fill + 1;
            let case = filter_case((channels, width), (images, cols, s, slack), (w_gap, in_gap));
            let mut seed = seed;
            // |w|, |input| ≤ 1024 keep channels·K·max|w|·max|input|
            // ≤ 81·2²⁰ ≪ 2³¹.
            let bound = if clamping { 0 } else { 1024 };
            let weights = fx(&draw(&mut seed, case.weights, bound));
            let input = fx(&draw(&mut seed, case.input, bound));
            let checked = check_filters(&weights, &input, case.band, &case.positions, live, !clamping);
            proptest::prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }

        /// The filter blocks' counterpart: tap pairs of 8, 16 or 32
        /// filters against broadcast input pairs, `vpdpwssd` at 32, on
        /// unbounded data must equal the portable wrapping loop bit for
        /// bit in every live slot.
        #[test]
        fn wrapping_filter_blocks_agree_modulo_2_32(
            channels in 1usize..6,
            width in 2usize..10,
            fill in 0usize..FILTER_GROUP,
            images in 1usize..4,
            cols in 1usize..13,
            s in 1usize..3,
            extremes in proptest::prelude::any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let live = fill + 1;
            let case = filter_case((channels, width), (images, cols, s, 1), (3, 2));
            let mut seed = seed;
            let weights = fx(&draw_unbounded(&mut seed, case.weights, extremes));
            let input = fx(&draw_unbounded(&mut seed, case.input, extremes));
            let run = |cap: usize, acc: &mut [Accum]| {
                filters_capped(cap, &weights, &input, case.band, &case.positions, live, acc, true)
            };
            let live_slots = |acc: &[Accum]| -> Vec<Accum> {
                acc.chunks_exact(FILTER_GROUP).flat_map(|slots| &slots[..live]).copied().collect()
            };
            let slots = case.positions.len() * FILTER_GROUP;
            let mut want = vec![Accum::ZERO; slots];
            run(0, &mut want);
            for cap in [8, 16, 32] {
                let mut got = vec![Accum::from_bits(0x5a5a); slots];
                if run(cap, &mut got) {
                    proptest::prop_assert_eq!(live_slots(&got), live_slots(&want), "cap {}", cap);
                }
            }
        }
    }

    #[test]
    fn filter_vector_is_exact_at_the_gate_edge() {
        // The row kernel's gate-edge cells, turned around: every pair sum
        // of a tap pair of every filter against one broadcast input pair
        // reaches ±(2³¹ − 2¹⁶) or near it, yet no sum leaves i32.
        const MIN: i16 = i16::MIN;
        const MAX: i16 = i16::MAX;
        for (channels, k, w, x) in [
            (1, 2, MIN, MAX),
            (1, 2, MAX, MIN),
            (1, 2, MIN, -MAX),
            (1, 3, -21845, MIN),
            (1, 3, 21845, MIN),
            (2, 4, -8191, MAX),
            (4, 2, MIN / 4 + 1, MIN),
        ] {
            for cols in [1, 3, 8, 13] {
                let case = filter_case((channels, k), (2, cols, 1, 0), (0, 0));
                let weights = fx(&vec![w; case.weights]);
                let input = fx(&vec![x; case.input]);
                let bound = (channels * k) as i64 * i64::from(w).abs() * i64::from(x).abs();
                assert!(
                    bound < i64::from(i32::MAX),
                    "cell ({channels}, {k}, {w}, {x}) fails the gate"
                );
                for live in [1, 9, 17, FILTER_GROUP] {
                    check_filters(&weights, &input, case.band, &case.positions, live, true)
                        .unwrap();
                }
            }
        }
    }

    #[test]
    fn short_filter_operands_are_rejected() {
        // One weight, sample or accumulator fewer than the band's extent
        // must panic before any read, at every cap, in both forms.
        for cap in CAPS {
            for wrapping in [false, true] {
                for live in [8, FILTER_GROUP] {
                    let case = filter_case((2, 3), (2, 5, 1, 1), (1, 2));
                    let slots = case.positions.len() * FILTER_GROUP;
                    for (w_len, in_len, acc_len) in [
                        (case.weights - 1, case.input, slots),
                        (case.weights, case.input - 1, slots),
                        (case.weights, case.input, slots - 1),
                    ] {
                        let (weights, input) = (fx(&vec![1; w_len]), fx(&vec![1; in_len]));
                        rejects(
                            &format!("cap {cap} {w_len} weights {in_len} samples {acc_len} slots"),
                            "",
                            || {
                                let mut acc = vec![Accum::ZERO; acc_len];
                                filters_capped(
                                    cap,
                                    &weights,
                                    &input,
                                    case.band,
                                    &case.positions,
                                    live,
                                    &mut acc,
                                    wrapping,
                                )
                            },
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn more_live_filters_than_the_group_are_rejected() {
        let case = filter_case((2, 3), (2, 5, 1, 1), (1, 2));
        let (weights, input) = (fx(&vec![1; case.weights]), fx(&vec![1; case.input]));
        for cap in CAPS {
            for wrapping in [false, true] {
                rejects(
                    &format!("cap {cap} wrapping {wrapping}"),
                    "a filter group holds at most",
                    || {
                        let mut acc = vec![Accum::ZERO; case.positions.len() * FILTER_GROUP];
                        filters_capped(
                            cap,
                            &weights,
                            &input,
                            case.band,
                            &case.positions,
                            FILTER_GROUP + 1,
                            &mut acc,
                            wrapping,
                        )
                    },
                );
            }
        }
    }

    #[test]
    fn overflowing_filter_extents_are_rejected() {
        // A reach or a cut length that wraps `usize` would cut the
        // operands short of what the unchecked pair reads assume: each
        // must panic before any read, at every cap, in both forms, in
        // release builds too.
        let case = filter_case((2, 3), (2, 5, 1, 1), (1, 2));
        let band = |channels, w_stride, in_stride| Band {
            channels,
            w_stride,
            in_stride,
            ..case.band
        };
        let (w_stride, in_stride, huge) =
            (case.band.w_stride, case.band.in_stride, usize::MAX / 2 + 1);
        let cells = [
            ("max(positions) + width", case.band, vec![0, usize::MAX - 1]),
            (
                "(channels − 1)·in_stride + reach",
                band(2, w_stride, usize::MAX),
                case.positions.clone(),
            ),
            (
                "(channels − 1)·in_stride",
                band(3, w_stride, huge),
                case.positions.clone(),
            ),
            (
                "(channels − 1)·w_stride",
                band(3, huge, in_stride),
                case.positions.clone(),
            ),
        ];
        let (weights, input) = (fx(&vec![1; case.weights]), fx(&vec![1; case.input]));
        for cap in CAPS {
            for wrapping in [false, true] {
                for (what, band, positions) in &cells {
                    rejects(
                        &format!("cap {cap} wrapping {wrapping}: {what} overflows"),
                        "extent overflows usize",
                        || {
                            let mut acc = vec![Accum::ZERO; positions.len() * FILTER_GROUP];
                            filters_capped(
                                cap,
                                &weights,
                                &input,
                                *band,
                                positions,
                                FILTER_GROUP,
                                &mut acc,
                                wrapping,
                            )
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn reads_past_the_band_are_rejected() {
        // Two channels `span + 2` apart need (2−1)·(span + 2) + span + 3 − 1
        // samples and 3 + 3 weights; one fewer of either must panic
        // before any read, at every block width.
        for cap in CAPS {
            for wrapping in [false, true] {
                for span in [4, 8, 16, 32, 40] {
                    let band = Band {
                        channels: 2,
                        width: 3,
                        w_stride: 3,
                        in_stride: span + 2,
                    };
                    let need = band.in_stride + span + 2;
                    for (w_len, in_len) in [(6, need - 1), (5, need)] {
                        let (weights, input) = (fx(&vec![1; w_len]), fx(&vec![0; in_len]));
                        rejects(
                            &format!("cap {cap} span {span} {w_len} weights {in_len} samples"),
                            "",
                            || {
                                let mut acc = vec![Accum::ZERO; span];
                                correlate_capped(
                                    RowKernel::K3,
                                    cap,
                                    &weights,
                                    &input,
                                    band,
                                    &mut acc,
                                    wrapping,
                                )
                            },
                        );
                    }
                }
            }
        }
    }
}
