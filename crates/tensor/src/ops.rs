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
/// runs on. Rows are walked as slices zipped against each other, so the
/// inner loop carries no bounds checks and vectorises across `j`.
///
/// Every result in the repository is pinned to this kernel's rounding, so
/// the arithmetic is part of its contract: `out[i][j]` accumulates
/// `a[i][k] * b[k][j]` from `0.0` in ascending `k`, one rounded multiply and
/// one rounded add per term (no FMA, no reassociation), and a term whose
/// `a[i][k]` is exactly zero is skipped, not added.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    assert_eq!(out.shape(), (a.rows(), b.cols()), "matmul output shape mismatch");
    out.as_mut_slice().fill(0.0);
    let (k_dim, c_dim) = (a.cols(), b.cols());
    if k_dim == 0 || c_dim == 0 {
        return;
    }
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

    #[test]
    fn matmul_into_equals_the_ascending_k_reference_bit_for_bit() {
        // The four per-shard projections of `scaled_bert()` (Q/K/V, FFN up,
        // FFN down, attention output), the unsharded FFN up-projection, and
        // widths on both sides of every vector length.
        let shapes = [
            (12, 60, 5),
            (12, 60, 20),
            (12, 20, 60),
            (12, 5, 60),
            (12, 60, 240),
            (12, 12, 5),
            (3, 9, 1),
            (5, 33, 7),
            (1, 1, 1),
        ];
        let mut rng = crate::Rng::new(0x6d61_746d);
        for (r, k_dim, c) in shapes {
            for round in 0..8 {
                let mut a = Matrix::zeros(r, k_dim);
                let mut b = Matrix::zeros(k_dim, c);
                rng.fill_gaussian(a.as_mut_slice(), 0.0, 1.0);
                rng.fill_gaussian(b.as_mut_slice(), 0.0, 1.0);
                // Exact zeros in `a` (both signs) against a non-finite row of
                // `b`: adding `0 * inf` would poison the whole output row, so
                // a finite result proves the term was skipped.
                let zero_k = rng.next_below(k_dim);
                for i in 0..r {
                    a[(i, zero_k)] = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][round % 3];
                b.row_mut(zero_k).fill(poison);
                let mut out = Matrix::filled(r, c, f32::NAN);
                matmul_into(&a, &b, &mut out);
                let expected = matmul_reference(&a, &b);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&expected), "{r}x{k_dim} · {k_dim}x{c}");
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
