//! A minimal row-major dense tensor.

/// A dense, row-major `f32` tensor.
///
/// The tensor is intentionally simple: the reproduction only needs 2-D and 3-D
/// shapes, contiguous storage and cheap row slicing. All distributed layouts
/// (sharding across ranks, tiles) are expressed *on top of* this type by the
/// `tilelink` crate's mappings.
///
/// # Example
///
/// ```
/// use tilelink_compute::Tensor;
///
/// let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f32);
/// assert_eq!(t.at(&[1, 2]), 5.0);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(
            !shape.is_empty(),
            "tensor shape must have at least one dimension"
        );
        Self {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor by evaluating `f` at every index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let mut t = Self::zeros(shape);
        let mut idx = vec![0usize; shape.len()];
        for flat in 0..t.numel() {
            let mut rem = flat;
            for (d, &extent) in shape.iter().enumerate().rev() {
                idx[d] = rem % extent;
                rem /= extent;
            }
            t.data[flat] = f(&idx);
        }
        t
    }

    /// Creates a deterministic pseudo-random tensor in `[-0.5, 0.5)`.
    ///
    /// A simple SplitMix64 generator keyed by `seed` keeps the crate free of
    /// external dependencies while giving well-spread values for tests and
    /// benchmarks.
    pub fn random(shape: &[usize], seed: u64) -> Self {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        let numel: usize = shape.iter().product();
        let data: Vec<f32> = (0..numel).map(|_| (next() - 0.5) as f32).collect();
        Self::from_vec(data, shape)
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying storage (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (d, (&i, &extent)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                i < extent,
                "index {i} out of bounds for dim {d} of extent {extent}"
            );
            flat = flat * extent + i;
        }
        flat
    }

    /// Value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Sets the value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = self.flat_index(idx);
        self.data[flat] = value;
    }

    /// Returns rows `rows.start..rows.end` of a 2-D tensor as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the range is out of bounds.
    pub fn slice_rows(&self, rows: std::ops::Range<usize>) -> Tensor {
        assert_eq!(self.ndim(), 2, "slice_rows requires a 2-D tensor");
        let cols = self.shape[1];
        assert!(rows.end <= self.shape[0], "row range out of bounds");
        let data = self.data[rows.start * cols..rows.end * cols].to_vec();
        Tensor::from_vec(data, &[rows.len(), cols])
    }

    /// Concatenates 2-D tensors along dimension 0 (rows).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the column counts differ.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "cannot concatenate an empty list");
        let cols = parts[0].shape()[1];
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.ndim(), 2, "concat_rows requires 2-D tensors");
            assert_eq!(p.shape()[1], cols, "column count mismatch");
            rows += p.shape()[0];
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec(data, &[rows, cols])
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires a 2-D tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Element-wise sum of two tensors of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_vec(data, &self.shape)
    }

    /// Maximum absolute difference between two tensors of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Returns `true` if every element differs by at most `tol`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_numel() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.ndim(), 3);
    }

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        assert_eq!(t.at(&[1, 0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 2], |idx| (10 * idx[0] + idx[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn at_and_set_roundtrip() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[2, 1], 7.0);
        assert_eq!(t.at(&[2, 1]), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_out_of_bounds_panics() {
        Tensor::zeros(&[2, 2]).at(&[2, 0]);
    }

    #[test]
    fn slice_and_concat_rows_are_inverses() {
        let t = Tensor::random(&[6, 4], 1);
        let parts: Vec<Tensor> = (0..3).map(|i| t.slice_rows(i * 2..(i + 1) * 2)).collect();
        let back = Tensor::concat_rows(&parts);
        assert!(t.allclose(&back, 0.0));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let t = Tensor::random(&[3, 5], 2);
        assert!(t.transpose().transpose().allclose(&t, 0.0));
    }

    #[test]
    fn add_is_elementwise() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2, 1]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(&[8, 8], 42);
        let b = Tensor::random(&[8, 8], 42);
        let c = Tensor::random(&[8, 8], 43);
        assert!(a.allclose(&b, 0.0));
        assert!(!a.allclose(&c, 1e-6));
        assert!(a.data().iter().all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    fn max_abs_diff_and_allclose() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = Tensor::from_vec(vec![1.0, 2.5], &[2, 1]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(a.allclose(&b, 0.5));
        assert!(!a.allclose(&b, 0.4));
    }
}
