//! The gold-accuracy reference.
//!
//! The paper uses DistilBERT's accuracy as "gold" — a fixed-architecture
//! model whose end-to-end execution exceeds every target latency (3.7 s on
//! Odroid) but sets the quality bar. In this reproduction the quality bar is
//! the task's own full-fidelity, full-width teacher evaluated against the
//! (noise-injected) test labels: no constrained system can beat it, and its
//! score sits at the task's irreducible-noise ceiling just like DistilBERT's
//! gold numbers sit near each GLUE task's practical ceiling.

use sti_nlp::Task;

/// Evaluates the unconstrained full model on the task's test split, in one
/// layer-major teacher pass ([`Model::predict_full_all`]) that reads each
/// of the teacher's shards once from its source, a context's shard store
/// included.
///
/// Returns `(accuracy, f1)`.
///
/// [`Model::predict_full_all`]: sti_transformer::Model::predict_full_all
pub fn gold_accuracy(task: &Task) -> (f64, f64) {
    let tokens: Vec<&[u32]> = task.test().iter().map(|e| e.tokens.as_slice()).collect();
    let preds = task.model().predict_full_all(&tokens);
    (task.test_accuracy(&preds), task.test_f1(&preds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_nlp::TaskKind;
    use sti_transformer::ModelConfig;

    #[test]
    fn gold_sits_near_the_noise_ceiling() {
        let task = Task::build(TaskKind::Sst2, ModelConfig::tiny(), 4, 32);
        let (acc, _) = gold_accuracy(&task);
        let ceiling = 1.0 - TaskKind::Sst2.label_noise();
        assert!(acc <= 1.0);
        assert!(acc >= ceiling - 0.15, "gold {acc} far below ceiling {ceiling}");
    }

    #[test]
    fn gold_f1_is_reported() {
        let task = Task::build(TaskKind::Qqp, ModelConfig::tiny(), 4, 32);
        let (_, f1) = gold_accuracy(&task);
        assert!((0.0..=1.0).contains(&f1));
    }
}
