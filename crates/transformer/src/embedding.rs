//! Token + position embeddings.
//!
//! The paper treats word embedding as an app component orthogonal to STI
//! (§3.1) and does not stream it; likewise we keep the embedding tables
//! resident and outside the shard store.

use sti_tensor::norm::{layernorm_inplace, LayerNormParams};
use sti_tensor::{Matrix, Rng};

use crate::config::ModelConfig;

/// Resident token/position embedding tables with a final layer norm, as in
/// BERT.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    token: Matrix,
    position: Matrix,
    norm: LayerNormParams,
}

impl Embedding {
    /// Generates synthetic embedding tables for `cfg` from `seed`.
    pub fn synthetic(cfg: &ModelConfig, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut token = Matrix::zeros(cfg.vocab, cfg.hidden);
        rng.fill_gaussian(token.as_mut_slice(), 0.0, 0.5);
        let mut position = Matrix::zeros(cfg.seq_len, cfg.hidden);
        rng.fill_gaussian(position.as_mut_slice(), 0.0, 0.1);
        Self { token, position, norm: LayerNormParams::identity(cfg.hidden) }
    }

    /// Embeds a token sequence into an `seq_len × d` activation matrix.
    ///
    /// Sequences shorter than `seq_len` are padded with token 0; longer ones
    /// are truncated (the paper pads all inputs to a constant length, §5.3).
    pub fn embed(&self, tokens: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.embed_into(tokens, &mut out);
        out
    }

    /// [`Embedding::embed`] into `out`, reshaped to `seq_len × d` in place.
    pub fn embed_into(&self, tokens: &[u32], out: &mut Matrix) {
        let seq_len = self.position.rows();
        let d = self.token.cols();
        out.reshape(seq_len, d);
        for pos in 0..seq_len {
            let tok = tokens.get(pos).copied().unwrap_or(0) as usize % self.token.rows();
            let t_row = self.token.row(tok);
            let p_row = self.position.row(pos);
            let o_row = out.row_mut(pos);
            for i in 0..d {
                o_row[i] = t_row[i] + p_row[i];
            }
        }
        layernorm_inplace(out, &self.norm, 1e-6);
    }

    /// Embeds a token sequence at its exact length (no padding) — the
    /// decoder path needs one row per real token so the causal mask and the
    /// last-position LM head line up.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or longer than the maximum sequence
    /// length.
    pub fn embed_exact(&self, tokens: &[u32]) -> Matrix {
        assert!(!tokens.is_empty(), "embed_exact needs at least one token");
        assert!(
            tokens.len() <= self.position.rows(),
            "sequence of {} exceeds maximum length {}",
            tokens.len(),
            self.position.rows()
        );
        let d = self.token.cols();
        let mut out = Matrix::zeros(tokens.len(), d);
        for (pos, &tok) in tokens.iter().enumerate() {
            let t_row = self.token.row(tok as usize % self.token.rows());
            let p_row = self.position.row(pos);
            let o_row = out.row_mut(pos);
            for i in 0..d {
                o_row[i] = t_row[i] + p_row[i];
            }
        }
        layernorm_inplace(&mut out, &self.norm, 1e-6);
        out
    }

    /// Weight-tied language-model head: projects a hidden state onto the
    /// vocabulary (`logits = h · Eᵀ`), reusing the resident token table so
    /// generation streams no extra parameters.
    ///
    /// # Panics
    ///
    /// Panics if `hidden.len()` differs from the embedding width.
    pub fn project_to_vocab(&self, hidden: &[f32]) -> Vec<f32> {
        assert_eq!(hidden.len(), self.token.cols(), "hidden width mismatch");
        self.token.rows_iter().map(|row| sti_tensor::ops::dot(row, hidden)).collect()
    }

    /// Resident bytes of the embedding tables.
    pub fn byte_size(&self) -> usize {
        (self.token.len() + self.position.len()) * 4 + self.norm.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embed_shapes_and_padding() {
        let cfg = ModelConfig::tiny();
        let emb = Embedding::synthetic(&cfg, 1);
        let out = emb.embed(&[1, 2, 3]);
        assert_eq!(out.shape(), (cfg.seq_len, cfg.hidden));
        // Padding positions embed token 0, so two short inputs agree there.
        let out2 = emb.embed(&[9, 8, 7]);
        assert_eq!(out.row(5), out2.row(5));
    }

    #[test]
    fn truncates_long_sequences() {
        let cfg = ModelConfig::tiny();
        let emb = Embedding::synthetic(&cfg, 1);
        let long: Vec<u32> = (0..100).collect();
        let out = emb.embed(&long);
        assert_eq!(out.rows(), cfg.seq_len);
    }

    #[test]
    fn out_of_vocab_tokens_wrap() {
        let cfg = ModelConfig::tiny();
        let emb = Embedding::synthetic(&cfg, 1);
        let a = emb.embed(&[cfg.vocab as u32 + 3]);
        let b = emb.embed(&[3]);
        assert_eq!(a.row(0), b.row(0));
    }

    #[test]
    fn embed_exact_matches_prefix_of_padded() {
        let cfg = ModelConfig::tiny();
        let emb = Embedding::synthetic(&cfg, 2);
        let exact = emb.embed_exact(&[4, 5, 6]);
        assert_eq!(exact.rows(), 3);
        let padded = emb.embed(&[4, 5, 6]);
        for pos in 0..3 {
            assert_eq!(exact.row(pos), padded.row(pos));
        }
    }

    #[test]
    fn project_to_vocab_has_vocab_entries() {
        let cfg = ModelConfig::tiny();
        let emb = Embedding::synthetic(&cfg, 3);
        let hidden = vec![0.1; cfg.hidden];
        let logits = emb.project_to_vocab(&hidden);
        assert_eq!(logits.len(), cfg.vocab);
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "exceeds maximum length")]
    fn embed_exact_rejects_overlong_sequences() {
        let cfg = ModelConfig::tiny();
        let emb = Embedding::synthetic(&cfg, 4);
        let long: Vec<u32> = (0..cfg.seq_len as u32 + 1).collect();
        let _ = emb.embed_exact(&long);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ModelConfig::tiny();
        assert_eq!(Embedding::synthetic(&cfg, 5), Embedding::synthetic(&cfg, 5));
        assert_ne!(Embedding::synthetic(&cfg, 5), Embedding::synthetic(&cfg, 6));
    }
}
