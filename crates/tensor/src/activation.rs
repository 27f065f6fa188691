//! Element-wise activation functions.

use crate::{math, Matrix};

/// GELU (Gaussian Error Linear Unit) using the `tanh` approximation from the
/// original BERT implementation.
///
/// `gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + math::tanh(SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)))
}

/// Applies [`gelu`] to every element of `m` in place. The in-tree `tanh` is
/// straight-line code, so this loop vectorises.
pub fn gelu_inplace(m: &mut Matrix) {
    for x in m.as_mut_slice() {
        *x = gelu(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_fixed_points() {
        assert_eq!(gelu(0.0), 0.0);
        // gelu(x) -> x for large positive x, -> 0 for large negative x.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_reference_values() {
        // Reference values from the BERT tanh approximation.
        assert!((gelu(1.0) - 0.841_192).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.158_808).abs() < 1e-3);
    }

    #[test]
    fn gelu_is_monotone_on_positive_axis() {
        let mut prev = gelu(0.0);
        for i in 1..100 {
            let y = gelu(i as f32 * 0.1);
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn inplace_variants_match_scalar() {
        let mut m = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let expected: Vec<f32> = m.as_slice().iter().map(|&x| gelu(x)).collect();
        gelu_inplace(&mut m);
        assert_eq!(m.as_slice(), expected.as_slice());
    }
}
