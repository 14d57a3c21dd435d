//! Reference and tiled matrix multiplication.

use crate::Tensor;

/// Computes `a @ b` for `a: [M, K]`, `b: [K, N]` with a straightforward
/// i-k-j loop (the reference against which every overlapped implementation in
/// the repository is checked).
///
/// # Panics
///
/// Panics if the shapes are not 2-D or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul expects 2-D lhs");
    assert_eq!(b.ndim(), 2, "matmul expects 2-D rhs");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions disagree: {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..m {
        for p in 0..k {
            let aik = ad[i * k + p];
            if aik == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    out
}

/// Computes one `tile_m × tile_n` output tile of `a @ b`.
///
/// `row0` and `col0` are the top-left coordinates of the tile in the output;
/// tiles that stick out past the matrix edge are clipped. This is the exact
/// unit of work a TileLink compute block performs between its
/// `consumer_tile_wait` and `producer_tile_notify` calls.
///
/// # Panics
///
/// Panics if the inner dimensions disagree or `row0`/`col0` are out of range.
pub fn matmul_tile(
    a: &Tensor,
    b: &Tensor,
    row0: usize,
    col0: usize,
    tile_m: usize,
    tile_n: usize,
) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions disagree");
    assert!(row0 < m && col0 < n, "tile origin out of range");
    let rows = tile_m.min(m - row0);
    let cols = tile_n.min(n - col0);
    let mut out = Tensor::zeros(&[rows, cols]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..rows {
        for p in 0..k {
            let aik = ad[(row0 + i) * k + p];
            if aik == 0.0 {
                continue;
            }
            for j in 0..cols {
                od[i * cols + j] += aik * bd[p * n + col0 + j];
            }
        }
    }
    out
}

/// Tiled matmul: identical result to [`matmul`], but iterating tile by tile.
///
/// Exists mostly to validate that the tiling used by the compiler partitions
/// the iteration space exactly once.
///
/// # Panics
///
/// Panics if shapes are inconsistent or any tile extent is zero.
pub fn matmul_tiled(a: &Tensor, b: &Tensor, tile_m: usize, tile_n: usize) -> Tensor {
    assert!(tile_m > 0 && tile_n > 0, "tile extents must be positive");
    let (m, n) = (a.shape()[0], b.shape()[1]);
    let mut out = Tensor::zeros(&[m, n]);
    for row0 in (0..m).step_by(tile_m) {
        for col0 in (0..n).step_by(tile_n) {
            let tile = matmul_tile(a, b, row0, col0, tile_m, tile_n);
            let (rows, cols) = (tile.shape()[0], tile.shape()[1]);
            for i in 0..rows {
                for j in 0..cols {
                    out.set(&[row0 + i, col0 + j], tile.at(&[i, j]));
                }
            }
        }
    }
    out
}

/// Writes `tile` into `out` at offset `(row0, col0)`.
///
/// # Panics
///
/// Panics if the tile does not fit.
pub fn write_tile(out: &mut Tensor, tile: &Tensor, row0: usize, col0: usize) {
    assert_eq!(out.ndim(), 2, "write_tile expects a 2-D destination");
    let (rows, cols) = (tile.shape()[0], tile.shape()[1]);
    assert!(row0 + rows <= out.shape()[0], "tile rows out of bounds");
    assert!(col0 + cols <= out.shape()[1], "tile cols out of bounds");
    for i in 0..rows {
        for j in 0..cols {
            out.set(&[row0 + i, col0 + j], tile.at(&[i, j]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::random(&[7, 5], 3);
        let eye = Tensor::from_fn(&[5, 5], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert!(matmul(&a, &eye).allclose(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn mismatched_inner_dims_panic() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn tiled_matches_reference_even_with_ragged_tiles() {
        let a = Tensor::random(&[13, 9], 1);
        let b = Tensor::random(&[9, 11], 2);
        let reference = matmul(&a, &b);
        for (tm, tn) in [(4, 4), (5, 3), (13, 11), (16, 16)] {
            let tiled = matmul_tiled(&a, &b, tm, tn);
            assert!(tiled.allclose(&reference, 1e-5), "tile {tm}x{tn} diverged");
        }
    }

    #[test]
    fn single_tile_matches_region_of_reference() {
        let a = Tensor::random(&[16, 8], 5);
        let b = Tensor::random(&[8, 12], 6);
        let reference = matmul(&a, &b);
        let tile = matmul_tile(&a, &b, 4, 8, 4, 4);
        for i in 0..4 {
            for j in 0..4 {
                assert!((tile.at(&[i, j]) - reference.at(&[4 + i, 8 + j])).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn write_tile_places_block() {
        let mut out = Tensor::zeros(&[4, 4]);
        let tile = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        write_tile(&mut out, &tile, 2, 1);
        assert_eq!(out.at(&[2, 1]), 1.0);
        assert_eq!(out.at(&[3, 2]), 4.0);
        assert_eq!(out.at(&[0, 0]), 0.0);
    }
}
