//! The channel-stacked row-correlation kernel — the innermost loop of
//! every PPSR row pass, specialized per filter extent `K` at compile
//! time.
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
//! fully unrolls and whose block-wide position loop it autovectorizes —
//! flat `i16 → i32` passes over the raw Q8.8/Q16.16 bit patterns, no
//! allocation, no unsafe.
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

/// One channel band of row correlations: `channels` weight rows of
/// `width` taps laid `w_stride` apart in the row table, each correlated
/// against its own input row `in_stride` samples after the previous
/// channel's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Band {
    /// Rows summed into one accumulator row (`N/groups` for a pass).
    pub(crate) channels: usize,
    /// Taps per weight row (the stored span, including dilation zeros).
    pub(crate) width: usize,
    /// Distance between consecutive channels' weight rows.
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
        if wrapping {
            self.dispatch::<true>(weights, input, band, acc);
        } else {
            self.dispatch::<false>(weights, input, band, acc);
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
    let k = if K == 0 { band.width } else { K };
    assert_eq!(band.width, k, "weight row length must match the kernel");
    assert!(k >= 1, "a correlation kernel needs at least one weight");
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A deterministic stream of raw `i16` values: uniform in `±bound`,
    /// or (`bound == 0`) drawn only from values whose products clamp
    /// after a few terms.
    fn draw(seed: &mut u64, len: usize, bound: i32) -> Vec<i16> {
        const EXTREMES: [i16; 5] = [i16::MIN, i16::MAX, 0, 1, -1];
        (0..len)
            .map(|_| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (*seed >> 33) as i32;
                if bound == 0 {
                    EXTREMES[r as usize % EXTREMES.len()]
                } else {
                    (r % (2 * bound + 1) - bound) as i16
                }
            })
            .collect()
    }

    fn check(kernel: RowKernel, weights: &[Fx16], input: &[Fx16], band: Band, base: &[Accum]) {
        let mut want = base.to_vec();
        reference(weights, input, band, &mut want);
        let mut got = base.to_vec();
        kernel.correlate_band(weights, input, band, &mut got, false);
        assert_eq!(got, want, "kernel {kernel:?} band={band:?}");
    }

    #[test]
    fn specialized_variants_match_reference() {
        let input = fx(&(0..70).map(|i| (i * 991 - 7000) as i16).collect::<Vec<_>>());
        for (k, kernel) in [
            (1, RowKernel::K1),
            (3, RowKernel::K3),
            (5, RowKernel::K5),
            (7, RowKernel::K7),
            (4, RowKernel::Generic),
            (9, RowKernel::Generic),
        ] {
            assert_eq!(RowKernel::select(k), kernel);
            let weights = fx(&(0..k).map(|j| (j as i16 * 513) - 700).collect::<Vec<_>>());
            // Block boundaries of all three widths, sub-block, ragged,
            // and empty output extents.
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
                input.len() - k + 1,
            ] {
                let base: Vec<Accum> = (0..span)
                    .map(|i| Accum::from_bits(i as i32 * 77 - 1000))
                    .collect();
                check(
                    kernel,
                    &weights,
                    &input[..span + k - 1],
                    Band::row(k),
                    &base,
                );
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The stacked forms must equal `channels` sequential one-row
        /// passes in the `*_acc_scalar` order, for every variant (the
        /// runtime-`K` fallback included), both addition forms: the saturating form on clamping extreme data
        /// (and on gated data), the wrapping form on data satisfying
        /// the saturation-free gate. Inputs are sliced to exactly the
        /// band's extent, so any read past the pass's span panics.
        #[test]
        fn stacked_band_matches_sequential_channel_passes(
            k in 1usize..10,
            channels in 1usize..10,
            span in 0usize..71,
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
            for kernel in [RowKernel::select(k), RowKernel::Generic] {
                let mut want = base.clone();
                reference(&weights, &input, band, &mut want);
                let mut got = base.clone();
                kernel.correlate_band(&weights, &input, band, &mut got, false);
                proptest::prop_assert_eq!(&got, &want, "{:?} saturating", kernel);
                if !clamping {
                    let mut got = base.clone();
                    kernel.correlate_band(&weights, &input, band, &mut got, true);
                    proptest::prop_assert_eq!(&got, &want, "{:?} wrapping", kernel);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight row length")]
    fn wrong_extent_is_rejected() {
        let weights = fx(&[1, 2]);
        let input = fx(&[0; 8]);
        let mut acc = vec![Accum::ZERO; 4];
        RowKernel::K3.correlate_band(&weights, &input, Band::row(2), &mut acc, false);
    }

    #[test]
    #[should_panic]
    fn reads_past_the_band_are_rejected() {
        // Two channels 6 apart need (2−1)·6 + 4 + 3 − 1 = 12 samples.
        let weights = fx(&[1; 6]);
        let input = fx(&[0; 11]);
        let band = Band {
            channels: 2,
            width: 3,
            w_stride: 3,
            in_stride: 6,
        };
        let mut acc = vec![Accum::ZERO; 4];
        RowKernel::K3.correlate_band(&weights, &input, band, &mut acc, true);
    }
}
