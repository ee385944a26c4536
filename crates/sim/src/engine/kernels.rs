//! Monomorphized row-correlation kernels — the innermost loops of every
//! PPSR row pass, specialized per filter extent `K` at compile time.
//!
//! [`Engine::compile`](super::Engine::compile) selects one [`RowKernel`]
//! per stage (`compile_stage` records it in the stage IR), so the run
//! phase never re-dispatches on `K` inside the hot loop: the selected
//! variant routes to a `const K` core whose inner `j` loop the compiler
//! fully unrolls and whose output-position loop it can autovectorize —
//! flat chunked `i16 → i32` passes over the raw Q8.8/Q16.16 bit
//! patterns, no allocation, no unsafe.
//!
//! **Bit-identity constraint (DESIGN §5.10).** [`Accum`] addition
//! saturates, so it is not associative: every core must reproduce the
//! scalar reference's exact addition order, not just its math. The
//! contract, shared with [`crate::ppsr`]'s `*_scalar` references:
//!
//! * one output `acc[x] += Σ_j input[x + j] · w[j]` accumulates the
//!   `K` widened products **in ascending `j` order** starting from zero
//!   (`0 saturating+ p₀ saturating+ p₁ …`), then adds the completed
//!   correlation into `acc[x]` with one more saturating addition;
//! * output positions advance in ascending `x` order (chunking only
//!   groups consecutive positions — it never reorders them);
//! * the reversed (SCNN-mirrored) kernel multiplies `input[x + j]` by
//!   `w[K − 1 − j]`, still in ascending `j` order.
//!
//! Both directions also come in a wrapping (`_unsaturated`) form for
//! passes a stage-level bound has proven saturation-free — exact integer
//! sums are associative, so there the addition order stops mattering.
//!
//! Every product is exact (`i16 × i16` fits `i32`), so the only
//! saturation points are the running `j` sum and the final accumulate —
//! exactly the two the scalar reference has. `tests/kernel_parity.rs`
//! pins the equivalence property-test-wide; `benches/ppsr_row.rs` pins
//! the speedup (≥ 1.25× over the scalar reference on K = 3).

use tfe_tensor::fixed::{Accum, Fx16};

/// Output positions processed per flat chunk. One chunk reads
/// `CHUNK + K − 1` consecutive input samples and writes `CHUNK`
/// consecutive accumulator slots — a shape the autovectorizer turns
/// into shifted vector loads plus saturating vector adds.
const CHUNK: usize = 32;

/// A row-correlation kernel selected at compile time for one stage's
/// filter extent (the transferred extent `K`, which is the correlation
/// window of every scheme — dense rows, DCNN meta-row offsets, and SCNN
/// base rows all correlate `K`-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKernel {
    /// Pointwise layers (`K = 1`).
    K1,
    /// The dominant CNN extent (`K = 3`).
    K3,
    /// GoogLeNet-style `K = 5`.
    K5,
    /// First-layer `K = 7`.
    K7,
    /// Any other extent: same chunked pass with a runtime `K` loop.
    Generic,
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

    /// `acc[x] += Σ_j input[x + j] · weights[j]` for
    /// `x ∈ 0..acc.len()`, in the reference addition order.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` disagrees with the selected variant or
    /// if `input` is shorter than `acc.len() + weights.len() − 1`.
    pub(crate) fn correlate_add(self, weights: &[Fx16], input: &[Fx16], acc: &mut [Accum]) {
        match self {
            RowKernel::K1 => correlate_add_core::<1>(&widen(weights), input, acc),
            RowKernel::K3 => correlate_add_core::<3>(&widen(weights), input, acc),
            RowKernel::K5 => correlate_add_core::<5>(&widen(weights), input, acc),
            RowKernel::K7 => correlate_add_core::<7>(&widen(weights), input, acc),
            RowKernel::Generic => correlate_add_generic::<false, false>(weights, input, acc),
        }
    }

    /// [`RowKernel::correlate_add`] for passes a caller-side bound has
    /// proven **saturation-free**: every intermediate `j`-prefix sum and
    /// every accumulator value stays strictly inside `i32`, so wrapping
    /// additions are exact and bit-identical to the saturating chain
    /// (exact integer sums are associative — saturation was the only
    /// order-sensitivity). The wrapping form is what unlocks cheap
    /// autovectorization on baseline x86-64: plain `paddd` instead of
    /// the compare/blend saturation emulation.
    ///
    /// Callers gate on the conservative stage bound
    /// `N · K · max|w| · max|input|  <  2³¹` (see `exec::saturation_free`);
    /// when the bound fails they must use [`RowKernel::correlate_add`].
    /// The proptest below pins the equivalence on gated data for every
    /// kernel variant; `tests/batched_parity.rs` pins both paths at the
    /// engine level.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RowKernel::correlate_add`].
    pub(crate) fn correlate_add_unsaturated(
        self,
        weights: &[Fx16],
        input: &[Fx16],
        acc: &mut [Accum],
    ) {
        match self {
            RowKernel::K1 => correlate_add_wrapping_core::<1>(&narrow(weights), input, acc),
            RowKernel::K3 => correlate_add_wrapping_core::<3>(&narrow(weights), input, acc),
            RowKernel::K5 => correlate_add_wrapping_core::<5>(&narrow(weights), input, acc),
            RowKernel::K7 => correlate_add_wrapping_core::<7>(&narrow(weights), input, acc),
            RowKernel::Generic => correlate_add_generic::<false, true>(weights, input, acc),
        }
    }

    /// The horizontally mirrored correlation:
    /// `acc[x] += Σ_j input[x + j] · weights[K − 1 − j]` — the SCNN
    /// PPSR-derived stream. Product order stays ascending `j`, matching
    /// [`crate::ppsr::scnn_row_pass_acc_scalar`]'s reversed indexing.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RowKernel::correlate_add`].
    pub(crate) fn correlate_add_rev(self, weights: &[Fx16], input: &[Fx16], acc: &mut [Accum]) {
        match self {
            RowKernel::K1 => correlate_add_core::<1>(&widen_rev(weights), input, acc),
            RowKernel::K3 => correlate_add_core::<3>(&widen_rev(weights), input, acc),
            RowKernel::K5 => correlate_add_core::<5>(&widen_rev(weights), input, acc),
            RowKernel::K7 => correlate_add_core::<7>(&widen_rev(weights), input, acc),
            RowKernel::Generic => correlate_add_generic::<true, false>(weights, input, acc),
        }
    }

    /// [`RowKernel::correlate_add_rev`] under the same saturation-free
    /// contract as [`RowKernel::correlate_add_unsaturated`]: the
    /// mirrored SCNN stream with wrapping additions. Each mirrored
    /// stream accumulates the same `N` `K`-term sums as the forward one
    /// (the weights are a permutation of the same row), so the stage
    /// bound that admits the forward wrapping pass admits this one too.
    ///
    /// # Panics
    ///
    /// Same conditions as [`RowKernel::correlate_add`].
    pub(crate) fn correlate_add_rev_unsaturated(
        self,
        weights: &[Fx16],
        input: &[Fx16],
        acc: &mut [Accum],
    ) {
        match self {
            RowKernel::K1 => correlate_add_wrapping_core::<1>(&narrow_rev(weights), input, acc),
            RowKernel::K3 => correlate_add_wrapping_core::<3>(&narrow_rev(weights), input, acc),
            RowKernel::K5 => correlate_add_wrapping_core::<5>(&narrow_rev(weights), input, acc),
            RowKernel::K7 => correlate_add_wrapping_core::<7>(&narrow_rev(weights), input, acc),
            RowKernel::Generic => correlate_add_generic::<true, true>(weights, input, acc),
        }
    }
}

/// Hoists a weight row into a fixed-extent widened (`i32`) array so the
/// cores multiply without per-product conversions.
fn widen<const K: usize>(weights: &[Fx16]) -> [i32; K] {
    assert_eq!(weights.len(), K, "weight row length must match the kernel");
    let mut w = [0i32; K];
    for (slot, &v) in w.iter_mut().zip(weights) {
        *slot = i32::from(v.to_bits());
    }
    w
}

/// Extracts a weight row's raw `i16` bits into a fixed-extent array —
/// the unsaturated cores keep both operands visibly 16-bit so the
/// vectorizer can use packed 16 × 16 → 32 multiplies.
fn narrow<const K: usize>(weights: &[Fx16]) -> [i16; K] {
    assert_eq!(weights.len(), K, "weight row length must match the kernel");
    let mut w = [0i16; K];
    for (slot, &v) in w.iter_mut().zip(weights) {
        *slot = v.to_bits();
    }
    w
}

/// [`narrow`] with the weight row reversed (the mirrored SCNN stream).
fn narrow_rev<const K: usize>(weights: &[Fx16]) -> [i16; K] {
    let mut w = narrow::<K>(weights);
    w.reverse();
    w
}

/// [`widen`] with the weight row reversed (the mirrored SCNN stream).
fn widen_rev<const K: usize>(weights: &[Fx16]) -> [i32; K] {
    assert_eq!(weights.len(), K, "weight row length must match the kernel");
    let mut w = [0i32; K];
    for (j, slot) in w.iter_mut().enumerate() {
        *slot = i32::from(weights[K - 1 - j].to_bits());
    }
    w
}

/// One fully-unrolled correlation at position `x` of `win` (a slice
/// whose first element is `input[x]`), in the reference addition order.
#[inline(always)]
fn correlate_one<const K: usize>(w: &[i32; K], win: &[Fx16]) -> i32 {
    let mut s = 0i32;
    for j in 0..K {
        s = s.saturating_add(i32::from(win[j].to_bits()) * w[j]);
    }
    s
}

/// The monomorphized core: output-position-major over flat chunks of
/// [`CHUNK`] positions, inner `j` loop unrolled at `const K`.
fn correlate_add_core<const K: usize>(w: &[i32; K], input: &[Fx16], acc: &mut [Accum]) {
    let out_len = acc.len();
    if out_len == 0 {
        return;
    }
    // Pin the exact input extent the pass reads. Besides catching
    // undersized inputs eagerly, the tight slice lets the optimizer
    // prove every window access in range and drop the bounds checks.
    let input = &input[..out_len + K - 1];
    let mut x0 = 0usize;
    let mut chunks = acc.chunks_exact_mut(CHUNK);
    for chunk in &mut chunks {
        let win = &input[x0..x0 + CHUNK + K - 1];
        for (i, slot) in chunk.iter_mut().enumerate() {
            let s = correlate_one::<K>(w, &win[i..i + K]);
            *slot = Accum::from_bits(slot.to_bits().saturating_add(s));
        }
        x0 += CHUNK;
    }
    for (i, slot) in chunks.into_remainder().iter_mut().enumerate() {
        let s = correlate_one::<K>(w, &input[x0 + i..x0 + i + K]);
        *slot = Accum::from_bits(slot.to_bits().saturating_add(s));
    }
}

/// The saturation-free monomorphized core: identical reads and writes to
/// [`correlate_add_core`], but with wrapping additions — exact (hence
/// order-insensitive and bit-identical to the saturating chain) under
/// the caller's bound, and cheap for the vectorizer.
fn correlate_add_wrapping_core<const K: usize>(w: &[i16; K], input: &[Fx16], acc: &mut [Accum]) {
    let out_len = acc.len();
    if out_len == 0 {
        return;
    }
    let input = &input[..out_len + K - 1];
    for (x, slot) in acc.iter_mut().enumerate() {
        let mut s = 0i32;
        for j in 0..K {
            s = s.wrapping_add(i32::from(input[x + j].to_bits()) * i32::from(w[j]));
        }
        *slot = Accum::from_bits(slot.to_bits().wrapping_add(s));
    }
}

/// The runtime-`K` fallback behind all four kernel forms: the same
/// output-position-major pass with the `j` loop bounded at run time.
/// `REV` indexes the weight row in reverse (no reversed copy, so the
/// fallback stays allocation-free); `WRAP` swaps the saturating chain
/// for wrapping additions, exact only under the saturation-free bound.
fn correlate_add_generic<const REV: bool, const WRAP: bool>(
    weights: &[Fx16],
    input: &[Fx16],
    acc: &mut [Accum],
) {
    let k = weights.len();
    let out_len = acc.len();
    if out_len == 0 {
        return;
    }
    assert!(k >= 1, "a correlation kernel needs at least one weight");
    let input = &input[..out_len + k - 1];
    let add = |a: i32, b: i32| {
        if WRAP {
            a.wrapping_add(b)
        } else {
            a.saturating_add(b)
        }
    };
    for (x, slot) in acc.iter_mut().enumerate() {
        let win = &input[x..x + k];
        let mut s = 0i32;
        for (j, &iv) in win.iter().enumerate() {
            let w = if REV { weights[k - 1 - j] } else { weights[j] };
            s = add(s, i32::from(iv.to_bits()) * i32::from(w.to_bits()));
        }
        *slot = Accum::from_bits(add(slot.to_bits(), s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(bits: &[i16]) -> Vec<Fx16> {
        bits.iter().map(|&b| Fx16::from_bits(b)).collect()
    }

    /// The scalar reference order: `Σ_j` saturating from zero, then one
    /// saturating accumulate (what `crate::ppsr::correlate_at` + `+=`
    /// perform).
    fn reference(weights: &[Fx16], input: &[Fx16], acc: &mut [Accum], rev: bool) {
        let k = weights.len();
        for (x, slot) in acc.iter_mut().enumerate() {
            let corr: Accum = (0..k)
                .map(|j| {
                    let w = if rev { weights[k - 1 - j] } else { weights[j] };
                    input[x + j].widening_mul(w)
                })
                .sum();
            *slot += corr;
        }
    }

    fn check(kernel: RowKernel, weights: &[Fx16], input: &[Fx16], out_len: usize) {
        let base: Vec<Accum> = (0..out_len)
            .map(|i| Accum::from_bits(i as i32 * 77 - 1000))
            .collect();
        for rev in [false, true] {
            let mut want = base.clone();
            reference(weights, input, &mut want, rev);
            let mut got = base.clone();
            if rev {
                kernel.correlate_add_rev(weights, input, &mut got);
            } else {
                kernel.correlate_add(weights, input, &mut got);
            }
            assert_eq!(got, want, "kernel {kernel:?} rev={rev}");
        }
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
            // Chunk boundary, sub-chunk, and empty output extents.
            for out_len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 3, input.len() - k + 1] {
                check(kernel, &weights, &input, out_len);
            }
        }
    }

    #[test]
    fn saturating_order_is_preserved_under_extreme_products() {
        // i16::MIN² = 2³⁰; three such products overflow i32, so the
        // running j-sum must saturate mid-correlation exactly like the
        // reference (j-ascending), not reassociate.
        let weights = fx(&[i16::MIN, i16::MIN, i16::MAX]);
        let input = fx(&[i16::MIN, i16::MIN, i16::MIN, i16::MAX, i16::MIN]);
        check(RowKernel::K3, &weights, &input, 3);
        check(RowKernel::Generic, &weights, &input, 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// On data satisfying the saturation-free gate (`k · max|w| ·
        /// max|input|` far inside `i32`, small starting accumulators),
        /// the wrapping fast path must be bit-identical to the
        /// saturating kernel — no intermediate can clamp, so wrapping
        /// and saturating chains compute the same exact sums.
        #[test]
        fn unsaturated_matches_saturating_on_gated_data(
            k in 1usize..10,
            out_len in 0usize..70,
            seed in 0u64..u64::MAX,
        ) {
            let mut s = seed;
            let mut next = move |bound: i32| -> i16 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (((s >> 33) as i32 % (2 * bound + 1)) - bound) as i16
            };
            // |w|, |input| ≤ 1024 keeps k·max|w|·max|input| ≤ 9·2²⁰ ≪ 2³¹.
            let weights = fx(&(0..k).map(|_| next(1024)).collect::<Vec<_>>());
            let input = fx(&(0..out_len + k - 1).map(|_| next(1024)).collect::<Vec<_>>());
            let base: Vec<Accum> = (0..out_len)
                .map(|_| Accum::from_bits(i32::from(next(8192))))
                .collect();

            // Every variant, the runtime-K fallback included, in both
            // directions: the forward stream and the SCNN mirrored one.
            for kernel in [RowKernel::select(k), RowKernel::Generic] {
                let mut want = base.clone();
                kernel.correlate_add(&weights, &input, &mut want);
                let mut got = base.clone();
                kernel.correlate_add_unsaturated(&weights, &input, &mut got);
                proptest::prop_assert_eq!(&got, &want, "{:?} forward", kernel);

                let mut want = base.clone();
                kernel.correlate_add_rev(&weights, &input, &mut want);
                let mut got = base.clone();
                kernel.correlate_add_rev_unsaturated(&weights, &input, &mut got);
                proptest::prop_assert_eq!(&got, &want, "{:?} mirrored", kernel);
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight row length")]
    fn wrong_extent_is_rejected() {
        let weights = fx(&[1, 2]);
        let input = fx(&[0; 8]);
        let mut acc = vec![Accum::ZERO; 4];
        RowKernel::K3.correlate_add(&weights, &input, &mut acc);
    }
}
