//! The app-facing STI engine (paper §3.2–§3.3).
//!
//! An app links the engine, names the model it expects to execute, its
//! target latency `T`, and a preload-buffer size `|S|`. The engine plans a
//! pipeline **once** and executes it repeatedly; replanning happens only
//! when the app (or OS) changes `T` or `|S|`. A replan builds the new plan
//! and fills its preload buffer before it replaces anything, so a replan
//! that fails leaves the engine as it was.

use std::sync::Arc;

use sti_device::{HwProfile, SimTime};
use sti_planner::compute_plan::dynabert_widths_for;
use sti_planner::{plan_two_stage, ExecutionPlan, ImportanceProfile};
use sti_quant::Bitwidth;
use sti_storage::ShardSource;
use sti_transformer::Model;

use crate::buffers::PreloadBuffer;
use crate::error::PipelineError;
use crate::executor::{GenerationOutcome, Inference, PipelineExecutor};

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
        let (plan, preload) = plan_and_fill(
            &self.hw,
            &self.importance,
            &self.widths,
            &self.bitwidths,
            &*self.source,
            self.target,
            self.preload_budget,
        )?;
        Ok(StiEngine {
            model: self.model,
            source: self.source,
            hw: self.hw,
            importance: self.importance,
            bitwidths: self.bitwidths,
            widths: self.widths,
            plan,
            preload,
        })
    }
}

/// The STI engine: plan once, execute repeatedly (paper §3.2).
pub struct StiEngine {
    model: Model,
    source: Arc<dyn ShardSource>,
    hw: HwProfile,
    importance: ImportanceProfile,
    bitwidths: Vec<Bitwidth>,
    widths: Vec<usize>,
    plan: ExecutionPlan,
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
        &self.plan
    }

    /// The current target latency.
    pub fn target(&self) -> SimTime {
        self.plan.target
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
    /// Fails if new preload shards cannot be loaded; the engine then keeps
    /// its target, plan and buffer.
    pub fn set_target(&mut self, target: SimTime) -> Result<(), PipelineError> {
        self.replan(target, self.plan.preload_budget_bytes)
    }

    /// Updates the preload budget and replans. Growing the budget lets the
    /// planner redistribute freed IO bandwidth to higher-fidelity versions
    /// (the back-to-back execution scenario of §3.3). The new plan's buffer
    /// is built afresh, holding exactly the shards that plan preloads.
    ///
    /// # Errors
    ///
    /// Fails if new preload shards cannot be loaded; the engine then keeps
    /// its budget, plan and buffer.
    pub fn set_preload_budget(&mut self, bytes: u64) -> Result<(), PipelineError> {
        self.replan(self.plan.target, bytes)
    }

    /// Executes one inference over the planned pipeline.
    ///
    /// # Errors
    ///
    /// Fails on storage errors or plan/model mismatch.
    pub fn infer(&self, tokens: &[u32]) -> Result<Inference, PipelineError> {
        let outcome = self.executor().execute(&self.plan, &self.preload, tokens)?;
        Ok(Inference::new(&self.plan, outcome))
    }

    /// Generative extension (paper §3.4 future work): greedily decodes
    /// `steps` tokens after `prompt` over the planned submodel, streamed
    /// once and reused every step.
    ///
    /// # Errors
    ///
    /// Fails if any planned shard cannot be loaded.
    pub fn generate(
        &self,
        prompt: &[u32],
        steps: usize,
    ) -> Result<GenerationOutcome, PipelineError> {
        self.executor().generate(&self.plan, &self.preload, prompt, steps)
    }

    fn executor(&self) -> PipelineExecutor<'_> {
        PipelineExecutor::new(&self.model, self.source.clone(), &self.hw)
    }

    /// Plans for `(target, bytes)` and fills the new plan's buffer while the
    /// current one still holds its shards (over a [`sti_storage::ShardStore`]
    /// a kept shard is handed back, not decoded again), then swaps both in.
    fn replan(&mut self, target: SimTime, bytes: u64) -> Result<(), PipelineError> {
        let (plan, preload) = plan_and_fill(
            &self.hw,
            &self.importance,
            &self.widths,
            &self.bitwidths,
            &*self.source,
            target,
            bytes,
        )?;
        self.plan = plan;
        self.preload = preload;
        Ok(())
    }
}

/// Plans the pipeline for `(target, preload_budget)` and fills its preload
/// buffer from `source`.
fn plan_and_fill(
    hw: &HwProfile,
    importance: &ImportanceProfile,
    widths: &[usize],
    bitwidths: &[Bitwidth],
    source: &dyn ShardSource,
    target: SimTime,
    preload_budget: u64,
) -> Result<(ExecutionPlan, PreloadBuffer), PipelineError> {
    let plan = plan_two_stage(hw, importance, target, preload_budget, widths, bitwidths);
    let preload = PreloadBuffer::fill(plan.preload_budget_bytes, &plan.preload, source)?;
    Ok((plan, preload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;
    use sti_device::DeviceProfile;
    use sti_nlp::{Task, TaskKind};
    use sti_quant::{QuantConfig, QuantizedBlob};
    use sti_storage::{ShardKey, ShardStore, StorageError};
    use sti_transformer::{ModelConfig, ShardId};

    fn engine_on(source: Arc<dyn ShardSource>, model: &Model, budget: u64) -> StiEngine {
        let cfg = model.config();
        let hw = HwProfile::measure(&DeviceProfile::odroid_n2(), cfg, &QuantConfig::default());
        let importance = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            (0..cfg.total_shards()).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect(),
            0.45,
        );
        StiEngine::builder(model.clone(), source, hw, importance)
            .target(SimTime::from_ms(300))
            .preload_budget(budget)
            .widths(&[2, 4])
            .build()
            .unwrap()
    }

    fn engine() -> StiEngine {
        let task = Task::build(TaskKind::Sst2, ModelConfig::tiny(), 4, 4);
        let source = Arc::new(
            ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
        );
        engine_on(source, task.model(), 64 << 10)
    }

    /// A store whose loads fail while `broken` is set, and that hands out
    /// `swapped`'s blob for its key once that is set.
    struct Faulty {
        store: ShardStore,
        broken: AtomicBool,
        swapped: OnceLock<(ShardKey, QuantizedBlob)>,
    }

    impl Faulty {
        fn over(model: &Model) -> Arc<Self> {
            let store = ShardStore::create_temp(model, &Bitwidth::ALL, &QuantConfig::default());
            let (broken, swapped) = (AtomicBool::new(false), OnceLock::new());
            Arc::new(Self { store: store.unwrap(), broken, swapped })
        }
    }

    impl ShardSource for Faulty {
        fn load(&self, key: ShardKey) -> Result<QuantizedBlob, StorageError> {
            if self.broken.load(Ordering::SeqCst) {
                return Err(StorageError::MissingShard { id: key.id, bits: key.bitwidth.bits() });
            }
            match self.swapped.get() {
                Some((swapped, blob)) if *swapped == key => Ok(blob.clone()),
                _ => self.store.load(key),
            }
        }

        fn size_bytes(&self, key: ShardKey) -> Result<u64, StorageError> {
            self.store.size_bytes(key)
        }
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
        // Shrinking rebuilds below the cap.
        e.set_preload_budget(8 << 10).unwrap();
        assert!(e.preload_used() <= 8 << 10);
        assert_eq!(e.preload.len(), e.plan().preload.len());
    }

    #[test]
    fn a_failed_replan_leaves_the_engine_as_it_was() {
        let task = Task::build(TaskKind::Sst2, ModelConfig::tiny(), 4, 4);
        let source = Faulty::over(task.model());
        let mut e = engine_on(source.clone(), task.model(), 8 << 10);
        let (target, plan, used) = (e.target(), e.plan().clone(), e.preload_used());
        assert!(!plan.preload.is_empty(), "the replans below must load shards to fail");
        let before = e.infer(&[1, 2, 3]).unwrap();

        source.broken.store(true, Ordering::SeqCst);
        assert!(e.set_preload_budget(1 << 20).is_err());
        assert!(e.set_target(SimTime::from_ms(1_000)).is_err());
        source.broken.store(false, Ordering::SeqCst);

        assert_eq!((e.target(), e.plan(), e.preload_used()), (target, &plan, used));
        let after = e.infer(&[1, 2, 3]).unwrap();
        assert_eq!(after.outcome.loaded_bytes, before.outcome.loaded_bytes);
        assert_eq!(after.outcome.timeline, before.outcome.timeline);
    }

    #[test]
    fn a_rebuilt_buffer_shares_the_payloads_both_plans_keep() {
        let model = Model::synthetic(5, ModelConfig::tiny());
        let store = ShardStore::create_temp(&model, &Bitwidth::ALL, &QuantConfig::default());
        let mut e = engine_on(Arc::new(store.unwrap()), &model, 8 << 10);
        // Weak handles: they keep nothing alive, so an old payload still
        // reachable after the replan is one the new buffer holds.
        let old: Vec<_> = e
            .plan()
            .preload
            .iter()
            .map(|&(id, bw)| (id, bw, e.preload.get(id).unwrap().downgrade()))
            .collect();
        e.set_preload_budget(16 << 10).unwrap();
        let mut kept = 0;
        for &(id, bw) in &e.plan().preload {
            if let Some((.., was)) = old.iter().find(|o| (o.0, o.1) == (id, bw)) {
                let was = was.upgrade().unwrap_or_else(|| panic!("{id} at {bw:?} was dropped"));
                let now = e.preload.get(id).unwrap();
                assert_eq!(now.packed().as_ptr(), was.packed().as_ptr(), "{id} decoded again");
                kept += 1;
            }
        }
        assert!(kept > 0, "the grown plan keeps some of the old preload");
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

    /// A blob shorter than the model's shard at a key the plan streams:
    /// generation assembles the submodel through the working buffer, which
    /// checks every blob's length before it decodes, so the engine fails
    /// with the typed error the serving path returns, not a panic.
    #[test]
    fn generating_over_a_wrong_size_blob_is_a_plan_mismatch_not_a_panic() {
        let task = Task::build(TaskKind::Sst2, ModelConfig::tiny(), 4, 4);
        let source = Faulty::over(task.model());
        let e = engine_on(source.clone(), task.model(), 0);
        let plan = e.plan();
        let key = plan
            .layers
            .iter()
            .flat_map(|pl| {
                pl.items().map(|(slice, bw)| ShardKey::new(ShardId::new(pl.layer, slice), bw))
            })
            .find(|key| !plan.is_preloaded(key.id))
            .expect("the plan streams a shard");
        let weights: Vec<f32> = (0..256).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect();
        let blob = QuantizedBlob::quantize(&weights, key.bitwidth, &QuantConfig::default());
        assert!(source.swapped.set((key, blob)).is_ok());
        let err = e.generate(&[1, 2], 1).unwrap_err();
        assert!(matches!(err, PipelineError::PlanMismatch(_)), "{err:?}");
    }

    #[test]
    fn inference_agrees_with_plan_fidelity() {
        let e = engine();
        let inf = e.infer(&[4, 4]).unwrap();
        // Streamed bytes + preloaded bytes cover every planned shard.
        assert!(inf.outcome.loaded_bytes > 0 || !e.plan().preload.is_empty());
    }
}
