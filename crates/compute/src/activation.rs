//! Gated activations used between the two halves of LLaMA-style MLPs.

use crate::Tensor;

/// SiLU (sigmoid-weighted linear unit): `x * sigmoid(x)`.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// SwiGLU gate: `silu(gate) * up`, applied element-wise.
///
/// This is the activation between the AG+GEMM and GEMM+RS halves of the
/// tensor-parallel MLP in Figure 8 ("there is one activation layer (e.g.
/// SiLUMul or GeLUMul) between these two parts").
///
/// # Panics
///
/// Panics if the two tensors have different shapes.
pub fn silu_mul(gate: &Tensor, up: &Tensor) -> Tensor {
    assert_eq!(gate.shape(), up.shape(), "gate/up shape mismatch");
    let data = gate
        .data()
        .iter()
        .zip(up.data())
        .map(|(&g, &u)| silu(g) * u)
        .collect();
    Tensor::from_vec(data, gate.shape())
}

/// Row-wise softmax of a 2-D tensor.
///
/// # Panics
///
/// Panics if the tensor is not 2-D.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "softmax_rows expects a 2-D tensor");
    let (rows, cols) = (x.shape()[0], x.shape()[1]);
    let mut out = Tensor::zeros(&[rows, cols]);
    for r in 0..rows {
        let row = &x.data()[r * cols..(r + 1) * cols];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        for (c, &e) in exps.iter().enumerate() {
            out.set(&[r, c], e / sum);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        assert!(silu(-20.0).abs() < 1e-6);
    }

    #[test]
    fn silu_mul_matches_scalar_math() {
        let gate = Tensor::from_vec(vec![0.0, 1.0, -1.0], &[1, 3]);
        let up = Tensor::from_vec(vec![2.0, 2.0, 2.0], &[1, 3]);
        let out = silu_mul(&gate, &up);
        for (o, g) in out.data().iter().zip(gate.data()) {
            assert!((o - silu(*g) * 2.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_panic() {
        silu_mul(&Tensor::zeros(&[1, 2]), &Tensor::zeros(&[2, 1]));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let row: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((row - 1.0).abs() < 1e-6);
            assert!(s.at(&[r, 2]) > s.at(&[r, 0]));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = Tensor::from_vec(vec![101.0, 102.0, 103.0], &[1, 3]);
        assert!(softmax_rows(&x).allclose(&softmax_rows(&y), 1e-6));
    }
}
