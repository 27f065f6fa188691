//! Numerically stable row-wise softmax.

use crate::{math, Matrix};

/// Applies a numerically stable softmax to a single slice in place.
///
/// Subtracts the row maximum before exponentiating so that large attention
/// logits cannot overflow.
pub fn softmax_slice(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // Exponentiate first and sum after: the sum must stay in ascending
    // order, and a loop that carries it would not vectorise.
    for x in row.iter_mut() {
        *x = math::exp(*x - max);
    }
    let sum = row.iter().fold(0.0, |sum, x| sum + x);
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Applies [`softmax_slice`] to every row of `m` in place.
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    for row in m.as_mut_slice().chunks_exact_mut(cols) {
        softmax_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        softmax_rows(&mut m);
        for r in 0..2 {
            let sum: f32 = m.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn preserves_ordering() {
        let mut row = [0.1f32, 3.0, -2.0];
        softmax_slice(&mut row);
        assert!(row[1] > row[0] && row[0] > row[2]);
    }

    #[test]
    fn stable_under_large_logits() {
        let mut row = [1000.0f32, 1000.0, 1000.0];
        softmax_slice(&mut row);
        for x in row {
            assert!((x - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_row_is_noop() {
        let mut row: [f32; 0] = [];
        softmax_slice(&mut row);
    }

    #[test]
    fn uniform_input_gives_uniform_output() {
        let mut row = [0.5f32; 8];
        softmax_slice(&mut row);
        for x in row {
            assert!((x - 0.125).abs() < 1e-6);
        }
    }
}
