//! # sti-nlp
//!
//! The task substrate of the reproduction: synthetic stand-ins for the GLUE
//! benchmarks the paper evaluates on (SST-2, RTE, QNLI, QQP — Table 3).
//!
//! Real GLUE data and fine-tuned checkpoints are unavailable offline, so each
//! task is defined by (a) a seeded token-sequence generator with
//! task-specific statistics, (b) a seeded *teacher* model whose full-fidelity
//! 12×12 predictions define ground-truth labels, and (c) an irreducible
//! label-noise rate calibrated to the paper's gold (DistilBERT) accuracy.
//! Accuracy of any submodel is then *measured* — real forward passes, real
//! agreement counting — and genuinely degrades with fewer layers/shards/bits,
//! which is the property every experiment in the paper exercises.
//!
//! ```
//! use sti_nlp::{Task, TaskKind};
//! use sti_transformer::ModelConfig;
//!
//! let task = Task::build(TaskKind::Sst2, ModelConfig::tiny(), 8, 8);
//! assert_eq!(task.dev().len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod dataset;
pub mod metrics;
pub mod task;
pub mod tokenizer;

pub use dataset::{Dataset, Example};
pub use task::{Task, TaskKind};
pub use tokenizer::HashingTokenizer;
