//! Evaluation metrics (paper Table 3: accuracy for all tasks, plus F1 for
//! QQP).

/// Fraction of predictions equal to labels.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "prediction/label length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let hits = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
    hits as f64 / predictions.len() as f64
}

/// Binary F1 score treating `positive` as the positive class.
///
/// Returns 0 when precision + recall is 0 (no positive predictions and no
/// positive labels hit).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn f1_binary(predictions: &[usize], labels: &[usize], positive: usize) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "prediction/label length mismatch");
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for (&p, &l) in predictions.iter().zip(labels) {
        match (p == positive, l == positive) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    if tp == 0 {
        return 0.0;
    }
    let precision = tp as f64 / (tp + fp) as f64;
    let recall = tp as f64 / (tp + fn_) as f64;
    2.0 * precision * recall / (precision + recall)
}

/// Mean probability assigned to the gold label — the continuous "soft
/// accuracy" used for shard-importance profiling, where hard accuracy over a
/// small dev set would produce too many ties to rank 144 shards.
///
/// # Panics
///
/// Panics if lengths mismatch or a label indexes outside its probability row.
pub fn soft_accuracy(probabilities: &[Vec<f32>], labels: &[usize]) -> f64 {
    assert_eq!(probabilities.len(), labels.len(), "probability/label length mismatch");
    soft_accuracy_of(probabilities.iter().zip(labels).map(|(p, &l)| {
        assert!(l < p.len(), "label {l} outside probability row of {}", p.len());
        p[l]
    }))
}

/// [`soft_accuracy`] of the gold labels' probabilities, one per example,
/// summed in order as they arrive, so no probability row need be kept.
pub fn soft_accuracy_of(gold: impl Iterator<Item = f32>) -> f64 {
    let mut examples = 0usize;
    let sum: f64 = gold.inspect(|_| examples += 1).map(f64::from).sum();
    if examples == 0 {
        return 0.0;
    }
    sum / examples as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_hits() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn perfect_predictions_give_f1_one() {
        let labels = [1, 0, 1, 1, 0];
        assert!((f1_binary(&labels, &labels, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f1_known_value() {
        // tp=1 (idx0), fp=1 (idx1), fn=1 (idx3)
        let preds = [1, 1, 0, 0];
        let labels = [1, 0, 0, 1];
        // precision = 0.5, recall = 0.5 -> F1 = 0.5
        assert!((f1_binary(&preds, &labels, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f1_zero_when_no_true_positives() {
        assert_eq!(f1_binary(&[0, 0], &[1, 1], 1), 0.0);
    }

    #[test]
    fn soft_accuracy_averages_gold_probability() {
        let probs = vec![vec![0.9, 0.1], vec![0.3, 0.7]];
        let labels = [0, 1];
        assert!((soft_accuracy(&probs, &labels) - 0.8).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatched_lengths() {
        let _ = accuracy(&[0], &[0, 1]);
    }
}
