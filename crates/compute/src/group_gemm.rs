//! Grouped GEMM over per-expert weight matrices (the MoE workhorse).

use crate::gemm::matmul;
use crate::Tensor;

/// Multiplies each expert's slice of `rows` with that expert's weight matrix.
///
/// * `rows`: `[total_rows, K]`, sorted by expert as produced by
///   [`crate::topk::Dispatch::gather`];
/// * `expert_offsets`: `num_experts + 1` offsets delimiting each expert's rows;
/// * `weights`: `[num_experts, K, N]`.
///
/// Returns `[total_rows, N]`. Experts with no assigned rows are skipped, which
/// is exactly the "Group GEMM" of the paper's MoE pipeline (Figure 9).
///
/// # Panics
///
/// Panics if shapes or offsets are inconsistent.
pub fn group_gemm(rows: &Tensor, expert_offsets: &[usize], weights: &Tensor) -> Tensor {
    assert_eq!(rows.ndim(), 2, "rows must be 2-D");
    assert_eq!(weights.ndim(), 3, "weights must be [experts, K, N]");
    let num_experts = weights.shape()[0];
    assert_eq!(
        expert_offsets.len(),
        num_experts + 1,
        "expert_offsets must have num_experts + 1 entries"
    );
    let (total_rows, k) = (rows.shape()[0], rows.shape()[1]);
    assert_eq!(weights.shape()[1], k, "weight K dimension mismatch");
    assert_eq!(
        *expert_offsets.last().expect("offsets nonempty"),
        total_rows,
        "offsets must cover every row"
    );
    let n = weights.shape()[2];
    let mut out = Tensor::zeros(&[total_rows, n]);
    for e in 0..num_experts {
        let (start, end) = (expert_offsets[e], expert_offsets[e + 1]);
        assert!(start <= end, "offsets must be non-decreasing");
        if start == end {
            continue;
        }
        let expert_rows = rows.slice_rows(start..end);
        let w = expert_weight(weights, e);
        let product = matmul(&expert_rows, &w);
        for i in 0..(end - start) {
            for j in 0..n {
                out.set(&[start + i, j], product.at(&[i, j]));
            }
        }
    }
    out
}

/// Extracts expert `e`'s `[K, N]` weight matrix from a `[E, K, N]` tensor.
///
/// # Panics
///
/// Panics if `weights` is not 3-D or `e` is out of range.
pub fn expert_weight(weights: &Tensor, e: usize) -> Tensor {
    assert_eq!(weights.ndim(), 3, "weights must be [experts, K, N]");
    let (experts, k, n) = (weights.shape()[0], weights.shape()[1], weights.shape()[2]);
    assert!(e < experts, "expert index out of range");
    let data = weights.data()[e * k * n..(e + 1) * k * n].to_vec();
    Tensor::from_vec(data, &[k, n])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_gemm_matches_per_expert_matmul() {
        let rows = Tensor::random(&[10, 4], 1);
        let weights = Tensor::random(&[3, 4, 6], 2);
        let offsets = vec![0, 4, 7, 10];
        let out = group_gemm(&rows, &offsets, &weights);
        for e in 0..3 {
            let expected = matmul(
                &rows.slice_rows(offsets[e]..offsets[e + 1]),
                &expert_weight(&weights, e),
            );
            for (i, row) in (offsets[e]..offsets[e + 1]).enumerate() {
                for j in 0..6 {
                    assert!((out.at(&[row, j]) - expected.at(&[i, j])).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn empty_expert_is_skipped() {
        let rows = Tensor::random(&[4, 3], 3);
        let weights = Tensor::random(&[3, 3, 2], 4);
        let offsets = vec![0, 4, 4, 4]; // experts 1 and 2 receive nothing
        let out = group_gemm(&rows, &offsets, &weights);
        assert_eq!(out.shape(), &[4, 2]);
    }

    #[test]
    #[should_panic(expected = "offsets must cover every row")]
    fn offsets_must_cover_rows() {
        let rows = Tensor::zeros(&[4, 3]);
        let weights = Tensor::zeros(&[1, 3, 2]);
        group_gemm(&rows, &[0, 3], &weights);
    }

    #[test]
    fn expert_weight_extracts_correct_slice() {
        let weights = Tensor::from_fn(&[2, 2, 2], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        let w1 = expert_weight(&weights, 1);
        assert_eq!(w1.data(), &[100.0, 101.0, 110.0, 111.0]);
    }
}
