//! Dense NCHW tensors.
//!
//! [`Tensor4`] is the single container used throughout the workspace for
//! ifmaps (`[batch, channel, height, width]`), filter banks
//! (`[filter, channel, kh, kw]`) and ofmaps. It is deliberately simple:
//! contiguous storage, checked and unchecked-free indexing, and a handful
//! of constructors. All heavy lifting (convolution, pooling) lives in
//! sibling modules so the layout stays a private detail.

use crate::TensorError;

/// A dense 4-dimensional tensor in NCHW order.
///
/// ```
/// use tfe_tensor::tensor::Tensor4;
/// let mut t = Tensor4::zeros([1, 2, 3, 3]);
/// t.set([0, 1, 2, 2], 7.0);
/// assert_eq!(t.get([0, 1, 2, 2]), 7.0);
/// assert_eq!(t.len(), 18);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4<T> {
    dims: [usize; 4],
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor4<T> {
    /// Creates a tensor of the given dimensions filled with `T::default()`.
    #[must_use]
    pub fn zeros(dims: [usize; 4]) -> Self {
        Self::filled(dims, T::default())
    }
}

impl<T: Copy> Tensor4<T> {
    /// Creates a tensor of the given dimensions filled with `value`.
    #[must_use]
    pub fn filled(dims: [usize; 4], value: T) -> Self {
        let len = dims.iter().product();
        Tensor4 {
            dims,
            data: vec![value; len],
        }
    }

    /// Creates a tensor from a flat NCHW-ordered vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the product of `dims`
    /// overflows `usize`, and [`TensorError::ShapeMismatch`] if
    /// `data.len()` does not equal it.
    pub fn from_vec(dims: [usize; 4], data: Vec<T>) -> Result<Self, TensorError> {
        let expected = dims.iter().try_fold(1usize, |len, &d| {
            len.checked_mul(d).ok_or(TensorError::InvalidDimension {
                what: "dimension (element count overflows usize)",
                value: d,
            })
        })?;
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                what: "flat data length",
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor4 { dims, data })
    }

    /// Creates a tensor by evaluating `f` at every `[n, c, y, x]` index.
    #[must_use]
    pub fn from_fn(dims: [usize; 4], mut f: impl FnMut([usize; 4]) -> T) -> Self {
        let mut data = Vec::with_capacity(dims.iter().product());
        for n in 0..dims[0] {
            for c in 0..dims[1] {
                for y in 0..dims[2] {
                    for x in 0..dims[3] {
                        data.push(f([n, c, y, x]));
                    }
                }
            }
        }
        Tensor4 { dims, data }
    }

    /// The tensor dimensions `[n, c, h, w]`.
    #[must_use]
    pub fn dims(&self) -> [usize; 4] {
        self.dims
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn offset(&self, idx: [usize; 4]) -> usize {
        debug_assert!(
            idx[0] < self.dims[0]
                && idx[1] < self.dims[1]
                && idx[2] < self.dims[2]
                && idx[3] < self.dims[3],
            "index {idx:?} out of bounds for dims {:?}",
            self.dims
        );
        ((idx[0] * self.dims[1] + idx[1]) * self.dims[2] + idx[2]) * self.dims[3] + idx[3]
    }

    /// Reads the element at `[n, c, y, x]`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: [usize; 4]) -> T {
        self.data[self.offset(idx)]
    }

    /// Writes the element at `[n, c, y, x]`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, idx: [usize; 4], value: T) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Flat view of the data in NCHW order.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view of the data in NCHW order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat data vector.
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterates over `([n, c, y, x], value)` pairs in NCHW order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = ([usize; 4], T)> + '_ {
        let dims = self.dims;
        self.data.iter().copied().enumerate().map(move |(i, v)| {
            let x = i % dims[3];
            let y = (i / dims[3]) % dims[2];
            let c = (i / (dims[3] * dims[2])) % dims[1];
            let n = i / (dims[3] * dims[2] * dims[1]);
            ([n, c, y, x], v)
        })
    }

    /// Applies `f` elementwise, producing a new tensor of the same shape.
    #[must_use]
    pub fn map<U: Copy>(&self, f: impl Fn(T) -> U) -> Tensor4<U> {
        Tensor4 {
            dims: self.dims,
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// One contiguous spatial plane (`h × w`) for batch `n`, channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `c` is out of bounds.
    #[must_use]
    pub fn plane(&self, n: usize, c: usize) -> &[T] {
        let hw = self.dims[2] * self.dims[3];
        let start = (n * self.dims[1] + c) * hw;
        &self.data[start..start + hw]
    }
}

impl Tensor4<f32> {
    /// Maximum absolute elementwise difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Tensor4<f32>) -> f32 {
        assert_eq!(self.dims, other.dims, "tensor dims differ");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Fx16;

    #[test]
    fn from_vec_rejects_dims_whose_product_overflows() {
        let huge = 1usize << (usize::BITS / 2);
        assert_eq!(
            Tensor4::<f32>::from_vec([1, huge, huge, 1], Vec::new()),
            Err(TensorError::InvalidDimension {
                what: "dimension (element count overflows usize)",
                value: huge,
            })
        );
    }

    #[test]
    fn zeros_and_len() {
        let t: Tensor4<f32> = Tensor4::zeros([2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        assert_eq!(t.dims(), [2, 3, 4, 5]);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn set_get_round_trip_all_corners() {
        let mut t: Tensor4<i32> = Tensor4::zeros([2, 2, 2, 2]);
        let mut v = 1;
        for n in 0..2 {
            for c in 0..2 {
                for y in 0..2 {
                    for x in 0..2 {
                        t.set([n, c, y, x], v);
                        v += 1;
                    }
                }
            }
        }
        assert_eq!(t.get([0, 0, 0, 0]), 1);
        assert_eq!(t.get([1, 1, 1, 1]), 16);
        // NCHW layout means the last axis is fastest.
        assert_eq!(t.as_slice()[1], t.get([0, 0, 0, 1]));
    }

    #[test]
    fn from_vec_validates_length() {
        let err = Tensor4::from_vec([1, 1, 2, 2], vec![0.0f32; 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
        let ok = Tensor4::from_vec([1, 1, 2, 2], vec![0.0f32; 4]);
        assert!(ok.is_ok());
    }

    #[test]
    fn from_fn_matches_indexed_iter() {
        let t = Tensor4::from_fn([2, 1, 3, 2], |[n, _, y, x]| (n * 100 + y * 10 + x) as i64);
        for (idx, v) in t.indexed_iter() {
            assert_eq!(v, (idx[0] * 100 + idx[2] * 10 + idx[3]) as i64);
        }
    }

    #[test]
    fn map_converts_between_domains() {
        let t = Tensor4::from_fn([1, 1, 2, 2], |[_, _, y, x]| (y + x) as f32);
        let q = t.map(Fx16::from_f32);
        assert_eq!(q.get([0, 0, 1, 1]).to_f32(), 2.0);
    }

    #[test]
    fn plane_is_contiguous_hw() {
        let t = Tensor4::from_fn([1, 2, 2, 2], |[_, c, y, x]| (c * 100 + y * 10 + x) as i32);
        assert_eq!(t.plane(0, 1), &[100, 101, 110, 111]);
    }

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let t = Tensor4::from_fn([1, 1, 4, 4], |[_, _, y, x]| (y * 4 + x) as f32);
        assert_eq!(t.max_abs_diff(&t.clone()), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn debug_bounds_check_panics() {
        let t: Tensor4<f32> = Tensor4::zeros([1, 1, 2, 2]);
        let _ = t.get([0, 0, 2, 0]);
    }
}
