//! Synthetic GLUE-like tasks (paper Table 3).

use sti_tensor::parallel::parallel_map_scratch;
use sti_tensor::{Matrix, Rng};
use sti_transformer::synthetic::GainPattern;
use sti_transformer::{ForwardScratch, Model, ModelConfig};

use crate::dataset::{Dataset, Example};
use crate::metrics;

/// The four GLUE benchmarks of the paper's evaluation (Table 3), reproduced
/// as seeded synthetic tasks.
///
/// Each task fixes: the seed of its fine-tuned teacher model, the gain
/// pattern shaping its shard-importance map (Fig. 5 shows SST-2's importance
/// spread across layers while RTE's concentrates in bottom layers), the token
/// distribution skew of its inputs, and an irreducible label-noise rate
/// calibrated so the full-fidelity teacher scores near the paper's gold
/// (DistilBERT) accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Single-sentence sentiment classification (movie reviews).
    Sst2,
    /// Natural-language inference (news, Wikipedia).
    Rte,
    /// Question-answering NLI (Wikipedia).
    Qnli,
    /// Paraphrase detection (social QA); reports accuracy and F1.
    Qqp,
}

impl TaskKind {
    /// All tasks in the paper's order.
    pub const ALL: [TaskKind; 4] = [TaskKind::Sst2, TaskKind::Rte, TaskKind::Qnli, TaskKind::Qqp];

    /// Benchmark name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Sst2 => "SST-2",
            TaskKind::Rte => "RTE",
            TaskKind::Qnli => "QNLI",
            TaskKind::Qqp => "QQP",
        }
    }

    /// GLUE category (Table 3).
    pub fn category(self) -> &'static str {
        match self {
            TaskKind::Sst2 => "Single-sentence",
            TaskKind::Rte => "Inference",
            TaskKind::Qnli => "Inference",
            TaskKind::Qqp => "Similarity/paraphrase",
        }
    }

    /// Text domain (Table 3).
    pub fn domain(self) -> &'static str {
        match self {
            TaskKind::Sst2 => "Movie rev.",
            TaskKind::Rte => "News, Wiki.",
            TaskKind::Qnli => "Wiki.",
            TaskKind::Qqp => "Social QA",
        }
    }

    /// Metrics reported (Table 3).
    pub fn metric_names(self) -> &'static str {
        match self {
            TaskKind::Qqp => "Acc./F1",
            _ => "Acc.",
        }
    }

    /// Seed of the task's fine-tuned teacher model.
    pub fn model_seed(self) -> u64 {
        match self {
            TaskKind::Sst2 => 0x5573_0002,
            TaskKind::Rte => 0x0000_07E0,
            TaskKind::Qnli => 0x004E_1100,
            TaskKind::Qqp => 0x0000_9097,
        }
    }

    /// Shard-gain pattern of the teacher (drives the importance map shape).
    pub fn gain_pattern(self) -> GainPattern {
        match self {
            TaskKind::Sst2 => GainPattern::Uniform,
            TaskKind::Rte => GainPattern::BottomHeavy,
            TaskKind::Qnli => GainPattern::TopHeavy,
            TaskKind::Qqp => GainPattern::Uniform,
        }
    }

    /// Irreducible label-flip rate, calibrated so the teacher's ceiling
    /// accuracy lands near the paper's gold numbers (DistilBERT: SST-2 91%,
    /// RTE 60%, QNLI 89%, QQP 89%).
    pub fn label_noise(self) -> f64 {
        match self {
            TaskKind::Sst2 => 0.09,
            TaskKind::Rte => 0.40,
            TaskKind::Qnli => 0.11,
            TaskKind::Qqp => 0.11,
        }
    }

    /// Token-distribution skew exponent; larger values concentrate mass on
    /// few tokens (conversational domains are more repetitive).
    fn token_skew(self) -> f32 {
        match self {
            TaskKind::Sst2 => 1.6,
            TaskKind::Rte => 1.2,
            TaskKind::Qnli => 1.3,
            TaskKind::Qqp => 2.0,
        }
    }
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully materialized task: teacher model plus labeled dev/test splits.
///
/// The dev split drives shard-importance profiling (paper §5.2 uses the GLUE
/// dev sets); the test split measures the accuracies reported in the
/// experiment tables.
#[derive(Debug, Clone)]
pub struct Task {
    kind: TaskKind,
    model: Model,
    dev: Dataset,
    test: Dataset,
}

impl Task {
    /// Default dev-split size used by the experiment harness.
    pub const DEFAULT_DEV: usize = 32;
    /// Default test-split size used by the experiment harness.
    pub const DEFAULT_TEST: usize = 128;

    /// Builds the task: synthesizes the teacher, generates inputs, labels
    /// them with the full-fidelity teacher, and applies label noise.
    pub fn build(kind: TaskKind, cfg: ModelConfig, dev_size: usize, test_size: usize) -> Self {
        let model = Model::synthetic_with_pattern(kind.model_seed(), cfg, kind.gain_pattern());
        let mut rng = Rng::new(kind.model_seed() ^ 0x0DA7_A5E7);
        let dev = generate_split(&model, kind, &mut rng, dev_size);
        let test = generate_split(&model, kind, &mut rng, test_size);
        Self { kind, model, dev, test }
    }

    /// Builds the task with default split sizes.
    pub fn build_default(kind: TaskKind, cfg: ModelConfig) -> Self {
        Self::build(kind, cfg, Self::DEFAULT_DEV, Self::DEFAULT_TEST)
    }

    /// The task kind.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// The teacher model (also the source of weights for the shard store).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The dev split (importance profiling).
    pub fn dev(&self) -> &Dataset {
        &self.dev
    }

    /// The test split (reported accuracies).
    pub fn test(&self) -> &Dataset {
        &self.test
    }

    /// Accuracy of predictions against the test split.
    pub fn test_accuracy(&self, predictions: &[usize]) -> f64 {
        let labels: Vec<usize> = self.test.iter().map(|e| e.label).collect();
        metrics::accuracy(predictions, &labels)
    }

    /// Binary F1 of predictions against the test split (class 1 positive).
    pub fn test_f1(&self, predictions: &[usize]) -> f64 {
        let labels: Vec<usize> = self.test.iter().map(|e| e.label).collect();
        metrics::f1_binary(predictions, &labels, 1)
    }
}

fn generate_split(model: &Model, kind: TaskKind, rng: &mut Rng, size: usize) -> Dataset {
    let cfg = model.config();
    let skew = kind.token_skew();
    // No draw depends on the teacher's answer, so every example's tokens and
    // its label flip (the class offset to add, if the noise draw says flip)
    // come off the one RNG stream first, in example order; that leaves the
    // teacher's forward passes independent of each other.
    let drawn: Vec<(Vec<u32>, Option<usize>)> = (0..size)
        .map(|_| {
            let len = cfg.seq_len / 2 + rng.next_below(cfg.seq_len / 2 + 1);
            let tokens = (0..len)
                .map(|_| {
                    // Skewed distribution over [1, vocab): u^skew concentrates
                    // mass near token 1.
                    let u = rng.next_f32().powf(skew);
                    1 + (u * (cfg.vocab - 1) as f32) as u32
                })
                .collect();
            // Flip to a different class (binary: the other one).
            let flip = ((rng.next_f32() as f64) < kind.label_noise())
                .then(|| 1 + rng.next_below(cfg.classes - 1));
            (tokens, flip)
        })
        .collect();
    // Each worker labels in a hidden state and a forward scratch this
    // thread built, so it allocates nothing (see `sti_tensor::parallel`).
    let teacher = parallel_map_scratch(
        size,
        || (Matrix::zeros(cfg.seq_len, cfg.hidden), ForwardScratch::new(cfg)),
        |(x, scratch), i| model.predict_full_with(&drawn[i].0, x, scratch),
    );
    drawn
        .into_iter()
        .zip(teacher)
        .map(|((tokens, flip), teacher)| Example {
            tokens,
            label: flip.map_or(teacher, |offset| (teacher + offset) % cfg.classes),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_task(kind: TaskKind) -> Task {
        Task::build(kind, ModelConfig::tiny(), 12, 16)
    }

    #[test]
    fn build_produces_requested_split_sizes() {
        let t = tiny_task(TaskKind::Sst2);
        assert_eq!(t.dev().len(), 12);
        assert_eq!(t.test().len(), 16);
    }

    #[test]
    fn task_generation_is_deterministic() {
        let a = tiny_task(TaskKind::Rte);
        let b = tiny_task(TaskKind::Rte);
        assert_eq!(a.dev(), b.dev());
        assert_eq!(a.test(), b.test());
    }

    /// The labelling loop as it was before the teacher left the RNG's
    /// critical path: draw, label, flip, one example at a time.
    fn interleaved_split(model: &Model, kind: TaskKind, rng: &mut Rng, size: usize) -> Dataset {
        let cfg = model.config();
        (0..size)
            .map(|_| {
                let len = cfg.seq_len / 2 + rng.next_below(cfg.seq_len / 2 + 1);
                let tokens: Vec<u32> = (0..len)
                    .map(|_| {
                        let u = rng.next_f32().powf(kind.token_skew());
                        1 + (u * (cfg.vocab - 1) as f32) as u32
                    })
                    .collect();
                let teacher = model.predict_full(&tokens);
                let label = if (rng.next_f32() as f64) < kind.label_noise() {
                    (teacher + 1 + rng.next_below(cfg.classes - 1)) % cfg.classes
                } else {
                    teacher
                };
                Example { tokens, label }
            })
            .collect()
    }

    #[test]
    fn parallel_labelling_equals_the_interleaved_loop_on_every_task() {
        for kind in TaskKind::ALL {
            let t = Task::build(kind, ModelConfig::tiny(), 24, 40);
            let mut rng = Rng::new(kind.model_seed() ^ 0x0DA7_A5E7);
            assert_eq!(t.dev(), &interleaved_split(t.model(), kind, &mut rng, 24), "{kind} dev");
            assert_eq!(t.test(), &interleaved_split(t.model(), kind, &mut rng, 40), "{kind} test");
            // Some labels really were flipped, so the flip path is compared.
            let flipped =
                t.test().iter().filter(|e| e.label != t.model().predict_full(&e.tokens)).count();
            assert!(flipped > 0, "{kind}: no flipped label in 40 examples");
        }
    }

    #[test]
    fn tasks_differ_from_each_other() {
        let a = tiny_task(TaskKind::Sst2);
        let b = tiny_task(TaskKind::Qqp);
        assert_ne!(a.test(), b.test());
    }

    #[test]
    fn teacher_accuracy_is_near_noise_ceiling() {
        let t = tiny_task(TaskKind::Sst2);
        let preds: Vec<usize> =
            t.test().iter().map(|e| t.model().predict_full(&e.tokens)).collect();
        let acc = t.test_accuracy(&preds);
        let ceiling = 1.0 - TaskKind::Sst2.label_noise();
        // Teacher agrees with the un-flipped labels by construction.
        assert!(acc >= ceiling - 0.2, "teacher accuracy {acc} far below ceiling {ceiling}");
    }

    #[test]
    fn labels_are_within_class_range() {
        let t = tiny_task(TaskKind::Qnli);
        let classes = t.model().config().classes;
        for e in t.test().iter() {
            assert!(e.label < classes);
        }
    }

    #[test]
    fn f1_of_teacher_predictions_is_positive() {
        let t = tiny_task(TaskKind::Qqp);
        let preds: Vec<usize> =
            t.test().iter().map(|e| t.model().predict_full(&e.tokens)).collect();
        assert!(t.test_f1(&preds) > 0.0);
    }

    #[test]
    fn table3_metadata_is_complete() {
        for kind in TaskKind::ALL {
            assert!(!kind.name().is_empty());
            assert!(!kind.category().is_empty());
            assert!(!kind.domain().is_empty());
            assert!(!kind.metric_names().is_empty());
            assert!(kind.label_noise() < 0.5);
        }
    }

    #[test]
    fn tokens_respect_vocab_bounds() {
        let t = tiny_task(TaskKind::Rte);
        let vocab = t.model().config().vocab as u32;
        for e in t.test().iter() {
            assert!(e.tokens.iter().all(|&tok| tok >= 1 && tok < vocab));
        }
    }
}
