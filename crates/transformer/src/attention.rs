//! Multi-headed attention over an arbitrary subset of heads (slices).

use sti_tensor::{ops, softmax, Matrix};

use crate::config::ModelConfig;
use crate::operand::ShardOperand;

/// Computes multi-head attention with the given slices' Q/K/V/O weights and
/// sums their output projections into an `l × d` matrix.
///
/// Executing `m < M` slices follows DynaBERT-style width adaptation: each
/// selected head attends independently and the output is rescaled by `M/m`
/// so the residual stream keeps its expected magnitude.
///
/// # Panics
///
/// Panics if `shards` is empty or shapes are inconsistent with `cfg`.
pub fn attention(x: &Matrix, shards: impl ShardOperand, cfg: &ModelConfig) -> Matrix {
    attend(x, shards, cfg, &mut Matrix::zeros(x.rows(), cfg.hidden))
}

/// Attention proper for the leading `queries` positions, where `queries`
/// is `projected.rows()`: the result is the first `queries` rows of the full
/// `l × d` output, bit for bit, because every kernel below computes a row of
/// its output from that row of its input alone. Keys and values are
/// projected for all `l` positions either way. Scratch is allocated once and
/// overwritten by every slice; `projected` (`queries × d`) is the caller's,
/// so the FFN that follows can reuse it. Each slice's attention half is
/// asked for once, when its turn comes.
pub(crate) fn attend(
    x: &Matrix,
    mut shards: impl ShardOperand,
    cfg: &ModelConfig,
    projected: &mut Matrix,
) -> Matrix {
    let width = shards.width();
    assert!(width > 0, "attention needs at least one slice");
    let (l, d, hd) = (x.rows(), cfg.hidden, cfg.head_dim());
    let queries = projected.rows();
    assert_eq!(x.cols(), d, "input width must equal hidden size");
    assert!(queries <= l, "more query rows than positions");
    let scale = 1.0 / (hd as f32).sqrt();

    let mut out = Matrix::zeros(queries, d);
    let mut qkv = Matrix::zeros(l, 3 * hd);
    let mut v = Matrix::zeros(l, hd);
    let mut scores = Matrix::zeros(queries, l);
    let mut head = Matrix::zeros(queries, hd);
    for slice in 0..width {
        let (w_qkv, w_o) = shards.attention(slice);
        ops::matmul_into(x, w_qkv, &mut qkv);
        for (qkv_i, v_i) in qkv.rows_iter().zip(v.as_mut_slice().chunks_exact_mut(hd)) {
            v_i.copy_from_slice(&qkv_i[2 * hd..]);
        }
        for (i, qkv_i) in qkv.rows_iter().take(queries).enumerate() {
            for (score, qkv_j) in scores.row_mut(i).iter_mut().zip(qkv.rows_iter()) {
                *score = ops::dot(&qkv_i[..hd], &qkv_j[hd..2 * hd]); // q_i · k_j
            }
        }
        ops::scale_inplace(&mut scores, scale);
        softmax::softmax_rows(&mut scores);

        ops::matmul_into(&scores, &v, &mut head); // queries × hd
        ops::matmul_into(&head, w_o, projected); // queries × d
        ops::add_inplace(&mut out, projected);
    }
    // Width rescaling: keep the residual-stream magnitude independent of the
    // number of executed slices.
    ops::scale_inplace(&mut out, cfg.heads as f32 / width as f32);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_shard;
    use crate::weights::ShardWeights;

    fn test_input(cfg: &ModelConfig) -> Matrix {
        let mut rng = sti_tensor::Rng::new(77);
        let mut x = Matrix::zeros(cfg.seq_len, cfg.hidden);
        rng.fill_gaussian(x.as_mut_slice(), 0.0, 1.0);
        x
    }

    #[test]
    fn output_shape_is_l_by_d() {
        let cfg = ModelConfig::tiny();
        let shard = synthetic_shard(&cfg, 1, 1.0);
        let x = test_input(&cfg);
        let out = attention(&x, &[&shard], &cfg);
        assert_eq!(out.shape(), (cfg.seq_len, cfg.hidden));
    }

    #[test]
    fn more_slices_changes_output() {
        let cfg = ModelConfig::tiny();
        let s1 = synthetic_shard(&cfg, 1, 1.0);
        let s2 = synthetic_shard(&cfg, 2, 1.0);
        let x = test_input(&cfg);
        let one = attention(&x, &[&s1], &cfg);
        let two = attention(&x, &[&s1, &s2], &cfg);
        assert!(one.max_abs_diff(&two) > 1e-4);
    }

    #[test]
    fn slice_order_does_not_matter() {
        // Head contributions sum, so attention is permutation-invariant in
        // the slice list — required for the planner to pick arbitrary subsets.
        let cfg = ModelConfig::tiny();
        let s1 = synthetic_shard(&cfg, 1, 1.0);
        let s2 = synthetic_shard(&cfg, 2, 1.0);
        let x = test_input(&cfg);
        let ab = attention(&x, &[&s1, &s2], &cfg);
        let ba = attention(&x, &[&s2, &s1], &cfg);
        assert!(ab.max_abs_diff(&ba) < 1e-4);
    }

    #[test]
    fn rescaling_keeps_magnitude_stable() {
        let cfg = ModelConfig::tiny();
        let shards: Vec<_> = (0..4).map(|i| synthetic_shard(&cfg, i, 1.0)).collect();
        let refs: Vec<&ShardWeights> = shards.iter().collect();
        let x = test_input(&cfg);
        let full = attention(&x, &refs, &cfg);
        let half = attention(&x, &refs[..2], &cfg);
        let norm = |m: &Matrix| m.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        let ratio = norm(&half) / norm(&full);
        assert!((0.3..3.0).contains(&ratio), "magnitude ratio {ratio} out of range");
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn rejects_empty_slice_set() {
        let cfg = ModelConfig::tiny();
        let x = test_input(&cfg);
        let _ = attention(&x, &[], &cfg);
    }
}
