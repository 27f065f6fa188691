//! Classification head (resident, not streamed).

use sti_tensor::{Matrix, Rng};

use crate::config::ModelConfig;

/// A linear classification head over the first-token (CLS) representation.
#[derive(Debug, Clone, PartialEq)]
pub struct Classifier {
    weight: Matrix, // d × classes
    bias: Vec<f32>,
}

impl Classifier {
    /// Generates a synthetic head for `cfg` from `seed`.
    pub fn synthetic(cfg: &ModelConfig, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut weight = Matrix::zeros(cfg.hidden, cfg.classes);
        rng.fill_gaussian(weight.as_mut_slice(), 0.0, 0.3);
        let bias = (0..cfg.classes).map(|_| rng.next_gaussian_with(0.0, 0.01)).collect();
        Self { weight, bias }
    }

    /// Produces class logits from the final hidden states (`l × d`).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty or its width disagrees with the head.
    pub fn logits(&self, hidden: &Matrix) -> Vec<f32> {
        let mut out = vec![0.0; self.classes()];
        self.logits_into(hidden, &mut out);
        out
    }

    /// [`Classifier::logits`] into `out`, one logit per class.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty, its width disagrees with the head, or
    /// `out` is not one entry per class.
    pub fn logits_into(&self, hidden: &Matrix, out: &mut [f32]) {
        assert!(hidden.rows() > 0, "classifier needs at least one token");
        assert_eq!(hidden.cols(), self.weight.rows(), "hidden width mismatch");
        let cls = hidden.row(0);
        out.copy_from_slice(&self.bias);
        for (j, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (i, &h) in cls.iter().enumerate() {
                acc += h * self.weight[(i, j)];
            }
            *o += acc;
        }
    }

    /// Softmax probabilities over classes.
    pub fn probabilities(&self, hidden: &Matrix) -> Vec<f32> {
        let mut logits = self.logits(hidden);
        sti_tensor::softmax::softmax_slice(&mut logits);
        logits
    }

    /// Resident bytes of the head.
    pub fn byte_size(&self) -> usize {
        (self.weight.len() + self.bias.len()) * 4
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logits_have_class_count() {
        let cfg = ModelConfig::tiny();
        let head = Classifier::synthetic(&cfg, 1);
        let hidden = Matrix::filled(cfg.seq_len, cfg.hidden, 0.1);
        assert_eq!(head.logits(&hidden).len(), cfg.classes);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let cfg = ModelConfig::tiny();
        let head = Classifier::synthetic(&cfg, 2);
        let hidden = Matrix::filled(cfg.seq_len, cfg.hidden, 0.3);
        let p = head.probabilities(&hidden);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn only_first_token_matters() {
        let cfg = ModelConfig::tiny();
        let head = Classifier::synthetic(&cfg, 3);
        let mut a = Matrix::filled(cfg.seq_len, cfg.hidden, 0.1);
        let b = a.clone();
        a.row_mut(3).fill(9.0); // non-CLS token change
        assert_eq!(head.logits(&a), head.logits(&b));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ModelConfig::tiny();
        assert_eq!(Classifier::synthetic(&cfg, 9), Classifier::synthetic(&cfg, 9));
    }
}
