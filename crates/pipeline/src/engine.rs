//! The app-facing STI engine (paper §3.2–§3.3).
//!
//! An app links the engine, names the model it expects to execute, its
//! target latency `T`, and a preload-buffer size `|S|`. The engine plans a
//! pipeline **once** and executes it repeatedly; replanning happens only
//! when the app (or OS) changes `T` or `|S|`.

use std::sync::Arc;

use sti_device::{HwProfile, SimTime};
use sti_planner::compute_plan::dynabert_widths_for;
use sti_planner::{plan_two_stage, ExecutionPlan, ImportanceProfile};
use sti_quant::Bitwidth;
use sti_storage::{ShardKey, ShardSource};
use sti_transformer::Model;

use crate::buffers::PreloadBuffer;
use crate::error::PipelineError;
use crate::executor::{ExecutionOutcome, PipelineExecutor};

/// The result of one generative (decoder) engagement.
#[derive(Debug, Clone)]
pub struct GenerationOutcome {
    /// Prompt plus generated continuation.
    pub tokens: Vec<u32>,
    /// Number of tokens generated (excludes the prompt).
    pub generated: usize,
    /// Simulated latency of the first step (streams the submodel through
    /// the pipeline, same as a classification).
    pub first_step: SimTime,
    /// Simulated compute-only latency of each subsequent step (weights are
    /// already resident in the working set).
    pub per_step: SimTime,
    /// Bytes streamed from storage (paid once, amortized over all steps).
    pub loaded_bytes: u64,
}

/// The result of one engine inference.
#[derive(Debug, Clone)]
pub struct Inference {
    /// Predicted class.
    pub class: usize,
    /// Softmax class probabilities.
    pub probabilities: Vec<f32>,
    /// The executed submodel shape.
    pub submodel: sti_planner::SubmodelShape,
    /// Full execution details (timeline, bytes, buffers).
    pub outcome: ExecutionOutcome,
}

/// Builder for [`StiEngine`].
pub struct StiEngineBuilder {
    model: Model,
    source: Arc<dyn ShardSource>,
    hw: HwProfile,
    importance: ImportanceProfile,
    target: SimTime,
    preload_budget: u64,
    bitwidths: Vec<Bitwidth>,
    widths: Vec<usize>,
}

impl StiEngineBuilder {
    /// Target latency `T` (default 200 ms).
    pub fn target(mut self, target: SimTime) -> Self {
        self.target = target;
        self
    }

    /// Preload-buffer budget `|S|` in bytes (default 1 MiB).
    pub fn preload_budget(mut self, bytes: u64) -> Self {
        self.preload_budget = bytes;
        self
    }

    /// Fidelity versions available in the store (default: all).
    pub fn bitwidths(mut self, bitwidths: &[Bitwidth]) -> Self {
        self.bitwidths = bitwidths.to_vec();
        self
    }

    /// Allowed submodel widths (default: DynaBERT's {3, 6, 9, 12}).
    pub fn widths(mut self, widths: &[usize]) -> Self {
        self.widths = widths.to_vec();
        self
    }

    /// Plans the initial pipeline, fills the preload buffer, and returns the
    /// ready engine.
    ///
    /// # Errors
    ///
    /// Fails if preload shards cannot be loaded from the store.
    pub fn build(self) -> Result<StiEngine, PipelineError> {
        let mut engine = StiEngine {
            model: self.model,
            source: self.source,
            hw: self.hw,
            importance: self.importance,
            target: self.target,
            preload_budget: self.preload_budget,
            bitwidths: self.bitwidths,
            widths: self.widths,
            plan: None,
            preload: PreloadBuffer::new(self.preload_budget),
        };
        engine.replan()?;
        Ok(engine)
    }
}

/// The STI engine: plan once, execute repeatedly (paper §3.2).
pub struct StiEngine {
    model: Model,
    source: Arc<dyn ShardSource>,
    hw: HwProfile,
    importance: ImportanceProfile,
    target: SimTime,
    preload_budget: u64,
    bitwidths: Vec<Bitwidth>,
    widths: Vec<usize>,
    plan: Option<ExecutionPlan>,
    preload: PreloadBuffer,
}

impl StiEngine {
    /// Starts building an engine for a model whose shards live in `source`,
    /// on the device `hw` profiles (its flash model included), with shard
    /// importance already profiled (a one-time, per-model effort, §3.2).
    pub fn builder(
        model: Model,
        source: Arc<dyn ShardSource>,
        hw: HwProfile,
        importance: ImportanceProfile,
    ) -> StiEngineBuilder {
        let widths = dynabert_widths_for(model.config().heads);
        StiEngineBuilder {
            model,
            source,
            hw,
            importance,
            target: SimTime::from_ms(200),
            preload_budget: 1 << 20,
            bitwidths: Bitwidth::ALL.to_vec(),
            widths,
        }
    }

    /// The current execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        self.plan.as_ref().expect("engine always holds a plan after build")
    }

    /// The current target latency.
    pub fn target(&self) -> SimTime {
        self.target
    }

    /// Bytes currently held in the preload buffer.
    pub fn preload_used(&self) -> u64 {
        self.preload.used_bytes()
    }

    /// The model's resident parameters (embedding, norms, classifier) in
    /// bytes — memory the engine keeps regardless of the preload buffer.
    pub fn resident_bytes(&self) -> usize {
        self.model.resident_byte_size()
    }

    /// Updates the target latency and replans (paper: replanning happens
    /// only when `T` or `|S|` changes).
    ///
    /// # Errors
    ///
    /// Fails if new preload shards cannot be loaded.
    pub fn set_target(&mut self, target: SimTime) -> Result<(), PipelineError> {
        self.target = target;
        self.replan()
    }

    /// Updates the preload budget and replans. Growing the budget lets the
    /// planner redistribute freed IO bandwidth to higher-fidelity versions
    /// (the back-to-back execution scenario of §3.3); shrinking evicts.
    ///
    /// # Errors
    ///
    /// Fails if new preload shards cannot be loaded.
    pub fn set_preload_budget(&mut self, bytes: u64) -> Result<(), PipelineError> {
        self.preload_budget = bytes;
        self.replan()
    }

    /// Executes one inference over the planned pipeline.
    ///
    /// # Errors
    ///
    /// Fails on storage errors or plan/model mismatch.
    pub fn infer(&self, tokens: &[u32]) -> Result<Inference, PipelineError> {
        let plan = self.plan();
        let executor = PipelineExecutor::new(&self.model, self.source.clone(), &self.hw);
        let outcome = executor.execute(plan, &self.preload, tokens)?;
        Ok(Inference {
            class: outcome.class,
            probabilities: outcome.probabilities.clone(),
            submodel: plan.shape,
            outcome,
        })
    }

    /// Generative extension (paper §3.4 future work): greedily decodes
    /// `steps` tokens after `prompt` over the planned submodel.
    ///
    /// The submodel's shards are streamed **once** (the same pipelined IO a
    /// classification pays) and then reused for every step, so per-step cost
    /// is compute-only — the amortization that makes STI's economics carry
    /// over to generation.
    ///
    /// # Errors
    ///
    /// Fails if any planned shard cannot be loaded.
    pub fn generate(
        &self,
        prompt: &[u32],
        steps: usize,
    ) -> Result<GenerationOutcome, PipelineError> {
        let plan = self.plan();
        let (submodel, loaded_bytes) = crate::executor::assemble_plan_submodel(
            &self.model,
            plan,
            &self.preload,
            &*self.source,
        )?;
        let generation = sti_transformer::decoder::generate(&self.model, &submodel, prompt, steps);
        let per_step = self.hw.t_comp(plan.shape.width) * plan.shape.depth as u64;
        Ok(GenerationOutcome {
            tokens: generation.tokens,
            generated: generation.generated,
            first_step: plan.predicted.makespan,
            per_step,
            loaded_bytes,
        })
    }

    fn replan(&mut self) -> Result<(), PipelineError> {
        let plan = plan_two_stage(
            &self.hw,
            &self.importance,
            self.target,
            self.preload_budget,
            &self.widths,
            &self.bitwidths,
        );
        self.preload.resize(self.preload_budget);
        // Refill: drop shards no longer wanted, admit newly planned ones at
        // their planned fidelity.
        for id in self.preload.resident_ids() {
            let still_wanted = plan.preload.iter().any(|&(pid, bw)| {
                pid == id && self.preload.get(id).map(|b| b.bitwidth()) == Some(bw)
            });
            if !still_wanted {
                self.preload.remove(id);
            }
        }
        for &(id, bw) in &plan.preload {
            if self.preload.get(id).map(|b| b.bitwidth()) == Some(bw) {
                continue;
            }
            let blob = self.source.load(ShardKey::new(id, bw))?;
            self.preload.insert(id, blob)?;
        }
        self.plan = Some(plan);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_device::DeviceProfile;
    use sti_nlp::{Task, TaskKind};
    use sti_quant::QuantConfig;
    use sti_storage::MemStore;
    use sti_transformer::ModelConfig;

    fn engine() -> StiEngine {
        let cfg = ModelConfig::tiny();
        let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
        let dev = DeviceProfile::odroid_n2();
        let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
        let source =
            Arc::new(MemStore::build(task.model(), &Bitwidth::ALL, &QuantConfig::default()));
        let importance = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
            0.45,
        );
        StiEngine::builder(task.model().clone(), source, hw, importance)
            .target(SimTime::from_ms(300))
            .preload_budget(64 << 10)
            .widths(&[2, 4])
            .build()
            .unwrap()
    }

    #[test]
    fn build_fills_preload_to_plan() {
        let e = engine();
        assert_eq!(e.plan().preload.len(), e.preload.len());
        assert!(e.preload_used() <= 64 << 10);
    }

    #[test]
    fn infer_returns_probabilities() {
        let e = engine();
        let inf = e.infer(&[1, 2, 3]).unwrap();
        assert_eq!(inf.probabilities.len(), 2);
        assert!(inf.class < 2);
        assert_eq!(inf.submodel, e.plan().shape);
    }

    #[test]
    fn plan_once_execute_repeatedly() {
        let e = engine();
        let p1 = e.plan().clone();
        let _ = e.infer(&[1]).unwrap();
        let _ = e.infer(&[2]).unwrap();
        assert_eq!(&p1, e.plan(), "inference must not replan");
    }

    #[test]
    fn set_target_replans() {
        let mut e = engine();
        let before = e.plan().shape;
        e.set_target(SimTime::from_ms(1_000)).unwrap();
        let after = e.plan().shape;
        assert!(after.shard_count() >= before.shard_count());
    }

    #[test]
    fn growing_preload_budget_caches_more() {
        let mut e = engine();
        let before = e.preload_used();
        e.set_preload_budget(1 << 20).unwrap();
        assert!(e.preload_used() >= before);
        // Shrinking evicts back below the cap.
        e.set_preload_budget(8 << 10).unwrap();
        assert!(e.preload_used() <= 8 << 10);
    }

    #[test]
    fn generation_amortizes_streaming() {
        let e = engine();
        let g = e.generate(&[1, 2], 5).unwrap();
        assert_eq!(g.generated, 5);
        assert_eq!(g.tokens.len(), 7);
        assert!(g.per_step <= g.first_step, "later steps must be IO-free");
        // Deterministic.
        assert_eq!(e.generate(&[1, 2], 5).unwrap().tokens, g.tokens);
    }

    #[test]
    fn inference_agrees_with_plan_fidelity() {
        let e = engine();
        let inf = e.infer(&[4, 4]).unwrap();
        // Streamed bytes + preloaded bytes cover every planned shard.
        assert!(inf.outcome.loaded_bytes > 0 || !e.plan().preload.is_empty());
    }
}
