//! The experiment runner: evaluate any baseline on any task, device, target
//! latency, and preload budget — the machinery behind every table and
//! figure binary in `sti-bench`.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use sti_device::{DeviceProfile, HwProfile, SimTime};
use sti_nlp::{Task, TaskKind};
use sti_pipeline::executor::assemble_plan_submodel;
use sti_pipeline::PreloadBuffer;
use sti_planner::{profile_importance, ExecutionPlan, ImportanceProfile, PlannedLayer};
use sti_quant::{Bitwidth, QuantConfig};
use sti_storage::{ShardSource, ShardStore};
use sti_transformer::{AssembledSubmodel, ModelConfig};

use crate::baselines::Baseline;

/// A materialized task plus the per-model state every experiment shares:
/// the shard-importance profile (`N·M` dev-set probes, each resumed from the
/// one kept baseline pass) and the on-disk quantized shard store that
/// engines, servers, executors and plan evaluations stream from — and that
/// the task's teacher reads its full-fidelity weights back from, so the
/// context's model holds only residents.
pub struct TaskContext {
    task: Task,
    quant: QuantConfig,
    importance: OnceLock<ImportanceProfile>,
    store: Arc<ShardStore>,
}

impl TaskContext {
    /// Builds the context for a task at the default experiment scale.
    pub fn new(kind: TaskKind) -> Self {
        Self::with_config(kind, ModelConfig::scaled_bert())
    }

    /// Builds the context with a custom model configuration (tests use
    /// [`ModelConfig::tiny`]), in the order that keeps at most one layer of
    /// FP32 shards in memory: draws the task's teacher (its residents and
    /// the seeds its shards regenerate from, [`TaskKind::teacher`]), writes
    /// the task's shard store from it (the one pass that regenerates the
    /// shards), points the teacher at the store's full-fidelity records,
    /// and only then draws the splits and labels them
    /// ([`Task::with_model`]), reading each shard from the store once. No
    /// FP32 shard grid is ever built.
    ///
    /// # Panics
    ///
    /// Panics if the store cannot be written; see
    /// [`shard_source`](Self::shard_source).
    pub fn with_config(kind: TaskKind, cfg: ModelConfig) -> Self {
        let teacher = kind.teacher(cfg);
        let quant = QuantConfig::default();
        let store = ShardStore::create_temp(&teacher, &Bitwidth::ALL, &quant).unwrap_or_else(|e| {
            let dir = std::env::temp_dir();
            panic!("cannot write the context's shard store under {}: {e}", dir.display())
        });
        let store = Arc::new(store);
        let teacher = teacher.with_shard_source(store.clone());
        let task = Task::with_model(kind, teacher, Task::DEFAULT_DEV, Task::DEFAULT_TEST);
        Self { task, quant, importance: OnceLock::new(), store }
    }

    /// The underlying task.
    pub fn task(&self) -> &Task {
        &self.task
    }

    /// The quantization configuration in effect.
    pub fn quant(&self) -> &QuantConfig {
        &self.quant
    }

    /// The shard-importance profile, computed on first use (§5.2's offline
    /// profiling pass).
    pub fn importance(&self) -> &ImportanceProfile {
        self.importance
            .get_or_init(|| profile_importance(self.task.model(), self.task.dev(), &self.quant))
    }

    /// Injects an importance profile computed elsewhere: one the bench
    /// harness read back from its fingerprinted disk cache, or one profiled
    /// on a dev split other than the task's own (the benchmark's set-up
    /// profiles on a prefix). The caller vouches that it belongs to this
    /// task's model and quantization.
    ///
    /// Returns `false` if a profile was already resident.
    pub fn set_importance(&self, profile: ImportanceProfile) -> bool {
        self.importance.set(profile).is_ok()
    }

    /// The task's quantized shard store (all bitwidths): a [`ShardStore`]
    /// written to a fresh directory under [`std::env::temp_dir`] when the
    /// context is built, and shared — engines, serving runtimes, executors
    /// and the task's teacher created from one context stream from the same
    /// files and share the same payloads: a load of a shard some holder on
    /// this store still has (any server's cache, preload buffer or in-flight
    /// layer) returns that holder's copy. The process holds no copy of the
    /// quantised model beyond what those holders keep. The directory is
    /// removed when the context and every handle returned here (and every
    /// clone of the context's model) have been dropped.
    ///
    /// The store is [`ShardStore::create_temp`]'s. The context's build
    /// panics if it cannot be written (temp dir missing, read-only or
    /// full); the message names the temp dir and the error. There is no
    /// in-memory fallback.
    pub fn shard_source(&self) -> Arc<dyn ShardSource> {
        self.store.clone()
    }

    /// Where [`shard_source`](Self::shard_source) keeps its files.
    pub fn shard_store_dir(&self) -> &Path {
        self.store.dir()
    }

    /// Materializes a plan's submodel (its `layers`) at their planned
    /// fidelities, every shard streamed from
    /// [`shard_source`](Self::shard_source).
    pub fn assemble_plan(&self, layers: &[PlannedLayer]) -> AssembledSubmodel {
        let source = self.shard_source();
        assemble_plan_submodel(self.task.model(), layers, &PreloadBuffer::default(), &*source)
            .expect("the context's store holds every shard of the model's shape at every bitwidth")
            .0
    }

    /// Measures the accuracy (and binary F1) of a plan's submodel (its
    /// `layers`) on the task's test split — real forward passes over the
    /// dequantized submodel.
    pub fn evaluate_plan(&self, layers: &[PlannedLayer]) -> (f64, f64) {
        let sub = self.assemble_plan(layers);
        let preds: Vec<usize> = self
            .task
            .test()
            .iter()
            .map(|e| self.task.model().predict_assembled(&e.tokens, &sub).0)
            .collect();
        (self.task.test_accuracy(&preds), self.task.test_f1(&preds))
    }
}

/// One experiment point: a baseline on a device under a latency target and
/// preload budget.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The system under test.
    pub baseline: Baseline,
    /// The device model.
    pub device: DeviceProfile,
    /// Target latency `T`.
    pub target: SimTime,
    /// Preload-buffer budget `|S|` (ignored by non-STI baselines).
    pub preload_bytes: u64,
}

/// The measured outcome of one experiment point.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The system under test.
    pub baseline: Baseline,
    /// The plan it produced.
    pub plan: ExecutionPlan,
    /// Test-split accuracy.
    pub accuracy: f64,
    /// Test-split binary F1 (class 1 positive).
    pub f1: f64,
    /// Predicted end-to-end latency.
    pub makespan: SimTime,
    /// Whether the makespan fits the target.
    pub within_target: bool,
    /// Parameter memory held *persistently* (preload buffer / whole model).
    pub persistent_param_bytes: u64,
    /// Peak parameter memory during execution (persistent + in-flight
    /// compressed layers + decompressed working set).
    pub peak_param_bytes: u64,
}

impl RunResult {
    /// Submodel shape shorthand.
    pub fn shape(&self) -> sti_planner::SubmodelShape {
        self.plan.shape
    }
}

/// Runs one experiment point.
pub fn run_experiment(ctx: &TaskContext, exp: &Experiment) -> RunResult {
    let cfg = ctx.task().model().config().clone();
    let hw = HwProfile::measure(&exp.device, &cfg, ctx.quant());
    let importance = ctx.importance();
    let plan = exp.baseline.plan(&hw, importance, exp.target, exp.preload_bytes);
    let (accuracy, f1) = ctx.evaluate_plan(&plan.layers);
    let makespan = plan.predicted.makespan;

    let working_bytes = plan.shape.width as u64 * cfg.shard_fp32_bytes() as u64;
    let layer_bytes = |pl: &sti_planner::PlannedLayer| -> u64 {
        pl.bitwidths.iter().map(|&bw| hw.shard_bytes(bw)).sum()
    };
    let max_layer_bytes = plan.layers.iter().map(&layer_bytes).max().unwrap_or(0);
    let preload_bytes: u64 = plan.preload.iter().map(|&(_, bw)| hw.shard_bytes(bw)).sum();

    let (persistent, peak) = match exp.baseline {
        Baseline::PreloadModel(bw) => {
            // Holds the *whole* N×M model resident, not just the submodel
            // (§7.2: "the PreloadModel baselines hold the whole 12x12 model
            // in memory").
            let whole = cfg.total_shards() as u64 * hw.shard_bytes(bw);
            (whole, whole + working_bytes)
        }
        Baseline::LoadAndExec => {
            let submodel: u64 = plan.layers.iter().map(&layer_bytes).sum();
            (0, submodel + working_bytes)
        }
        Baseline::StdPipeline(_) => (0, 2 * max_layer_bytes + working_bytes),
        Baseline::StiNoPreload => (0, 2 * max_layer_bytes + working_bytes),
        Baseline::Sti => (preload_bytes, preload_bytes + 2 * max_layer_bytes + working_bytes),
    };

    RunResult {
        baseline: exp.baseline,
        within_target: makespan <= exp.target,
        plan,
        accuracy,
        f1,
        makespan,
        persistent_param_bytes: persistent,
        peak_param_bytes: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_nlp::Dataset;
    use sti_transformer::ShardWeights;

    fn ctx() -> TaskContext {
        TaskContext::with_config(TaskKind::Sst2, ModelConfig::tiny())
    }

    /// A context's teacher reads every shard a bare `Task::build`'s teacher
    /// regenerates from its seeds back from the store, bit for bit, so its
    /// splits and its importance profile on the first `dev` dev examples
    /// equal the bare task's.
    fn assert_the_contexts_teacher_is_the_bare_one(kind: TaskKind, cfg: ModelConfig, dev: usize) {
        let ctx = TaskContext::with_config(kind, cfg.clone());
        let bare = Task::build_default(kind, cfg.clone());
        let bits = |shard: &ShardWeights| -> Vec<u32> {
            shard.flatten().into_iter().map(f32::to_bits).collect()
        };
        let (mut want, mut got) = (ShardWeights::zeros(&cfg), ShardWeights::zeros(&cfg));
        for id in cfg.shard_ids() {
            bare.model().read_shard(id, &mut want, &mut bare.model().read_scratch());
            ctx.task().model().read_shard(id, &mut got, &mut ctx.task().model().read_scratch());
            assert_eq!(bits(&got), bits(&want), "{kind} {id:?}");
        }
        assert_eq!((ctx.task().dev(), ctx.task().test()), (bare.dev(), bare.test()), "{kind}");
        let dev = Dataset::new(bare.dev().examples()[..dev].to_vec());
        assert_eq!(
            profile_importance(ctx.task().model(), &dev, ctx.quant()),
            profile_importance(bare.model(), &dev, ctx.quant()),
            "{kind}"
        );
    }

    #[test]
    fn a_contexts_teacher_reads_the_synthesised_weights_bit_for_bit_on_every_task() {
        for kind in TaskKind::ALL {
            assert_the_contexts_teacher_is_the_bare_one(
                kind,
                ModelConfig::tiny(),
                Task::DEFAULT_DEV,
            );
        }
    }

    /// The shipped scale on the benchmark's 8 dev examples. Seconds in
    /// release, so CI runs it there (`-- --ignored`).
    #[test]
    #[ignore = "scaled_bert() scale: run with --release -- --ignored"]
    fn a_contexts_teacher_reads_the_synthesised_weights_bit_for_bit_at_scaled_bert() {
        for kind in TaskKind::ALL {
            assert_the_contexts_teacher_is_the_bare_one(kind, ModelConfig::scaled_bert(), 8);
        }
    }

    fn exp(baseline: Baseline, t_ms: u64) -> Experiment {
        Experiment {
            baseline,
            device: DeviceProfile::odroid_n2(),
            target: SimTime::from_ms(t_ms),
            preload_bytes: 4 << 10,
        }
    }

    #[test]
    fn importance_is_computed_once_and_cached() {
        let c = ctx();
        let a = c.importance() as *const _;
        let b = c.importance() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn set_importance_preempts_profiling() {
        let c = ctx();
        let cfg = c.task().model().config();
        let fake = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            vec![0.5; cfg.total_shards()],
            0.4,
        );
        assert!(c.set_importance(fake.clone()));
        assert_eq!(c.importance(), &fake);
        assert!(!c.set_importance(fake));
    }

    #[test]
    fn run_produces_sane_numbers() {
        let c = ctx();
        let r = run_experiment(&c, &exp(Baseline::Sti, 400));
        assert!((0.0..=1.0).contains(&r.accuracy));
        assert!((0.0..=1.0).contains(&r.f1));
        assert!(r.makespan > SimTime::ZERO);
        assert!(r.peak_param_bytes >= r.persistent_param_bytes);
    }

    #[test]
    fn preload_model_dominates_memory() {
        let c = ctx();
        let pm = run_experiment(&c, &exp(Baseline::PreloadModel(Bitwidth::Full), 400));
        let sti = run_experiment(&c, &exp(Baseline::Sti, 400));
        assert!(
            pm.persistent_param_bytes > 10 * sti.persistent_param_bytes.max(1),
            "whole-model preload must dwarf STI's buffer: {} vs {}",
            pm.persistent_param_bytes,
            sti.persistent_param_bytes
        );
    }

    #[test]
    fn evaluate_plan_is_deterministic() {
        let c = ctx();
        let r1 = run_experiment(&c, &exp(Baseline::StdPipeline(Bitwidth::B6), 400));
        let r2 = run_experiment(&c, &exp(Baseline::StdPipeline(Bitwidth::B6), 400));
        assert_eq!(r1.accuracy, r2.accuracy);
        assert_eq!(r1.plan, r2.plan);
    }
}
