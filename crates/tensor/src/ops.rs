//! Dense matrix kernels: multiplication, bias addition, scaling.

use crate::Matrix;

/// Multiplies `a (r×k)` by `b (k×c)` into a new `r×c` matrix.
///
/// Uses the cache-friendly `i-k-j` loop order; good enough for the scaled
/// model sizes used throughout the reproduction.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut out);
    out
}

/// Multiplies `a` by `b`, writing into a pre-allocated `out`.
///
/// This is the allocation-free kernel every projection of the forward pass
/// runs on. It is register-tiled: `out` is computed in tiles of 4 rows by 8
/// (then 4) columns whose accumulators stay in locals across the whole `k`
/// loop, so each `b` value loaded is used four times, each `a` value eight,
/// and nothing is stored until the tile is done. Fewer than 4 leftover rows
/// run as one-row tiles; fewer than 4 leftover columns re-run the last 4
/// columns (or run one by one in a matrix narrower than 4).
///
/// Every result in the repository is pinned to this kernel's rounding, so
/// the arithmetic is part of its contract, and tiling does not touch it:
/// `out[i][j]` accumulates `a[i][k] * b[k][j]` from `0.0` in ascending `k`,
/// one rounded multiply and one rounded add per term (no FMA, no
/// reassociation), and a term whose `a[i][k]` is exactly zero is skipped,
/// not added. Each row tile of `a` is scanned for zeros once: without any,
/// the tile loops run branch-free.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    assert_eq!(out.shape(), (a.rows(), b.cols()), "matmul output shape mismatch");
    let (k_dim, c_dim) = (a.cols(), b.cols());
    if k_dim == 0 || c_dim == 0 {
        out.as_mut_slice().fill(0.0);
        return;
    }
    let b = b.as_slice();
    let mut a_tiles = a.as_slice().chunks_exact(4 * k_dim);
    let mut out_tiles = out.as_mut_slice().chunks_exact_mut(4 * c_dim);
    for (a_tile, out_tile) in a_tiles.by_ref().zip(out_tiles.by_ref()) {
        row_tile::<4>(a_tile, b, out_tile, k_dim, c_dim);
    }
    let a_rows = a_tiles.remainder().chunks_exact(k_dim);
    for (a_row, out_row) in a_rows.zip(out_tiles.into_remainder().chunks_exact_mut(c_dim)) {
        row_tile::<1>(a_row, b, out_row, k_dim, c_dim);
    }
}

/// `R` whole rows of `out`: picks the zero-skipping or the branch-free tile
/// loops for these rows of `a`, then walks the column tiles.
fn row_tile<const R: usize>(
    a_tile: &[f32],
    b: &[f32],
    out_tile: &mut [f32],
    k_dim: usize,
    c_dim: usize,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a_tile[r * k_dim..(r + 1) * k_dim]);
    if a_tile.contains(&0.0) {
        column_tiles::<R, true>(&a_rows, b, out_tile, c_dim);
    } else {
        column_tiles::<R, false>(&a_rows, b, out_tile, c_dim);
    }
}

fn column_tiles<const R: usize, const SKIP: bool>(
    a_rows: &[&[f32]; R],
    b: &[f32],
    out_tile: &mut [f32],
    c_dim: usize,
) {
    let mut j0 = 0;
    while j0 < c_dim {
        let left = c_dim - j0;
        j0 += if left >= 8 {
            tile::<R, 8, SKIP>(a_rows, b, out_tile, c_dim, j0);
            8
        } else if left >= 4 {
            tile::<R, 4, SKIP>(a_rows, b, out_tile, c_dim, j0);
            4
        } else if c_dim >= 4 {
            // Recomputing a column yields the same bits, so the tail is one
            // more full tile over the last four columns.
            tile::<R, 4, SKIP>(a_rows, b, out_tile, c_dim, c_dim - 4);
            left
        } else {
            tile::<R, 1, SKIP>(a_rows, b, out_tile, c_dim, j0);
            1
        };
    }
}

/// Columns `[j0, j0 + W)` of `R` rows of `out`, accumulated in locals over
/// the whole `k` loop and stored once.
#[inline(always)]
fn tile<const R: usize, const W: usize, const SKIP: bool>(
    a_rows: &[&[f32]; R],
    b: &[f32],
    out_tile: &mut [f32],
    c_dim: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (k, b_row) in b.chunks_exact(c_dim).enumerate() {
        let b_tile: &[f32; W] = b_row[j0..j0 + W].try_into().expect("slice of the tile width");
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
            let aik = a_row[k];
            if SKIP && aik == 0.0 {
                continue;
            }
            for (o, &bkj) in acc_row.iter_mut().zip(b_tile) {
                *o += aik * bkj;
            }
        }
    }
    for (acc_row, out_row) in acc.iter().zip(out_tile.chunks_exact_mut(c_dim)) {
        out_row[j0..j0 + W].copy_from_slice(acc_row);
    }
}

/// Multiplies `a (r×k)` by `bᵀ` where `b` is `c×k`, producing `r×c`.
///
/// Attention scores need `Q · Kᵀ`; storing `K` row-major and walking its rows
/// keeps both operands sequential.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transb shape mismatch: {:?} x {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (j, b_row) in b.rows_iter().enumerate() {
            out_row[j] = dot(a_row, b_row);
        }
    }
    out
}

/// Dot product of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = 0.0;
    // Process in chunks of 4 to give the autovectorizer an easy job.
    let chunks = a.len() / 4 * 4;
    let mut sums = [0.0f32; 4];
    for i in (0..chunks).step_by(4) {
        sums[0] += a[i] * b[i];
        sums[1] += a[i + 1] * b[i + 1];
        sums[2] += a[i + 2] * b[i + 2];
        sums[3] += a[i + 3] * b[i + 3];
    }
    for i in chunks..a.len() {
        acc += a[i] * b[i];
    }
    acc + sums[0] + sums[1] + sums[2] + sums[3]
}

/// Adds `bias` (length = `m.cols()`) to every row of `m` in place.
///
/// # Panics
///
/// Panics if `bias.len() != m.cols()`.
pub fn add_bias(m: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), m.cols(), "bias length must equal column count");
    let cols = m.cols();
    for row in m.as_mut_slice().chunks_exact_mut(cols) {
        for (x, b) in row.iter_mut().zip(bias) {
            *x += *b;
        }
    }
}

/// Adds `other` to `m` element-wise in place.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn add_inplace(m: &mut Matrix, other: &Matrix) {
    assert_eq!(m.shape(), other.shape(), "add_inplace shape mismatch");
    for (x, y) in m.as_mut_slice().iter_mut().zip(other.as_slice()) {
        *x += *y;
    }
}

/// Scales every element of `m` by `factor` in place.
pub fn scale_inplace(m: &mut Matrix, factor: f32) {
    for x in m.as_mut_slice() {
        *x *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape() && a.max_abs_diff(b) < 1e-5
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 9.0]]);
        assert!(approx_eq(&matmul(&a, &Matrix::identity(3)), &a));
    }

    #[test]
    fn matmul_transb_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]);
        let expected = matmul(&a, &b.transposed());
        assert!(approx_eq(&matmul_transb(&a, &b), &expected));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn dot_handles_non_multiple_of_four_lengths() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert!((dot(&a, &b) - 35.0).abs() < 1e-6);
    }

    #[test]
    fn add_bias_adds_to_every_row() {
        let mut m = Matrix::zeros(2, 3);
        add_bias(&mut m, &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn add_and_scale_inplace() {
        let mut m = Matrix::filled(2, 2, 1.0);
        let n = Matrix::filled(2, 2, 2.0);
        add_inplace(&mut m, &n);
        scale_inplace(&mut m, 0.5);
        assert_eq!(m, Matrix::filled(2, 2, 1.5));
    }

    /// The kernel's contract spelled out with indexes: ascending `k`, one
    /// multiply and one add per term, exact-zero `a` terms skipped.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    if a[(i, k)] != 0.0 {
                        acc += a[(i, k)] * b[(k, j)];
                    }
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// The kernel this one replaced (PR 16): whole rows of `out` streamed
    /// through memory once per `k`. Everything in the repository was pinned
    /// to its bits, so it stays as a second oracle.
    fn matmul_into_row_streaming(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        out.as_mut_slice().fill(0.0);
        let (k_dim, c_dim) = (a.cols(), b.cols());
        let rows = a.as_slice().chunks_exact(k_dim).zip(out.as_mut_slice().chunks_exact_mut(c_dim));
        for (a_row, out_row) in rows {
            for (&aik, b_row) in a_row.iter().zip(b.as_slice().chunks_exact(c_dim)) {
                if aik == 0.0 {
                    continue;
                }
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
    }

    #[test]
    fn matmul_into_equals_the_ascending_k_reference_bit_for_bit() {
        // The per-shard projections of `scaled_bert()` (packed Q/K/V, one
        // head's score-weighted values, FFN up, FFN down, attention output),
        // the unsharded FFN up-projection, row tails of 1, 2, 3 and 5 rows,
        // column tails on both sides of the 4- and 8-wide tiles, and matrices
        // narrower than any tile.
        let shapes = [
            (12, 60, 15),
            (12, 12, 5),
            (12, 60, 20),
            (12, 20, 60),
            (12, 5, 60),
            (12, 60, 240),
            (1, 60, 15),
            (2, 60, 9),
            (3, 20, 13),
            (5, 33, 7),
            (7, 9, 3),
            (3, 9, 1),
            (1, 1, 1),
        ];
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = crate::Rng::new(0x6d61_746d);
        for (r, k_dim, c) in shapes {
            for round in 0..9 {
                let mut a = Matrix::zeros(r, k_dim);
                let mut b = Matrix::zeros(k_dim, c);
                rng.fill_gaussian(a.as_mut_slice(), 0.0, 1.0);
                rng.fill_gaussian(b.as_mut_slice(), 0.0, 1.0);
                // Exact zeros in `a` (both signs) against a non-finite row of
                // `b`: adding `0 * inf` would poison the whole output row, so
                // a finite result proves the term was skipped. A third of the
                // rounds zero one whole column of `a`; a third also scatter
                // zeros through half its rows, each at its own `k`; the last
                // third scatter zeros through rows 4..8 only and poison
                // nothing, so one product runs the branch-free loops on its
                // first row tile and the skipping loops on its second.
                let mode = round / 3;
                if mode < 2 {
                    let zero_k = rng.next_below(k_dim);
                    for i in 0..r {
                        a[(i, zero_k)] = if i % 2 == 0 { 0.0 } else { -0.0 };
                    }
                    let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][round % 3];
                    b.row_mut(zero_k).fill(poison);
                }
                if mode > 0 {
                    for i in (0..r).filter(|i| if mode == 1 { i % 2 == 0 } else { i % 8 >= 4 }) {
                        a[(i, rng.next_below(k_dim))] = if i % 4 == 0 { -0.0 } else { 0.0 };
                    }
                }
                let mut out = Matrix::filled(r, c, f32::NAN);
                matmul_into(&a, &b, &mut out);
                let shape = format!("{r}x{k_dim} · {k_dim}x{c}, round {round}");
                assert_eq!(bits(&out), bits(&matmul_reference(&a, &b)), "{shape}");
                let mut old = Matrix::filled(r, c, f32::NAN);
                matmul_into_row_streaming(&a, &b, &mut old);
                assert_eq!(bits(&out), bits(&old), "old kernel, {shape}");
                assert!(out.as_slice().iter().all(|x| x.is_finite()), "zero terms were added");
            }
        }
    }

    #[test]
    fn matmul_into_accepts_empty_dimensions() {
        let mut out = Matrix::filled(2, 3, 9.0);
        matmul_into(&Matrix::zeros(2, 0), &Matrix::zeros(0, 3), &mut out);
        assert_eq!(out, Matrix::zeros(2, 3));
        matmul_into(&Matrix::zeros(2, 4), &Matrix::zeros(4, 0), &mut Matrix::zeros(2, 0));
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let mut out = Matrix::filled(2, 2, 99.0);
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, Matrix::filled(2, 2, 2.0));
    }
}
