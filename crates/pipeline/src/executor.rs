//! The pipeline executor: overlapped IO and computation over a plan.
//!
//! Execution follows §5.5 of the paper: layers run in order; each layer's
//! selected shard versions arrive as one in-order IO job (issued as early as
//! possible, never reordered — AIB planning already guarantees arrival order
//! matches execution order), are decompressed into the working buffer, and
//! computed while later layers' IO streams in. Preloaded shards skip IO
//! entirely.
//!
//! What a layer streams is the plan's decision
//! ([`PlannedLayer::streamed`]): the issue half
//! ([`PipelineExecutor::issue_on`]) requests exactly those items and needs
//! no preload buffer, and the compute half receives a completion for every
//! layer the plan says streams. The buffer is read only for the payloads of
//! the shards the plan holds, which it was filled from.
//!
//! A streamed layer is dispatched ahead and materialised when compute
//! reaches it: the records of the shards the IO scheduler deferred (on an
//! unbatched dispatch, misses the shard cache cannot keep) are read as
//! their layer comes up ([`WorkingBuffer::materialise`]), decoded in place
//! with no payload built, and overwritten by the next layer's, so an
//! engagement holds one layer of them at a time, not every layer it has
//! dispatched. A read error then surfaces from the compute half
//! ([`PipelineExecutor::complete_on`]) as the same typed storage error.
//!
//! The working buffer holds one shard, not one layer: the forward pass asks
//! for each slice's attention half, then its FFN half, as it reaches them,
//! and [`WorkingBuffer::forward_layer`] decodes just that half of the
//! payload or record into the one slot ([`sti_transformer::ShardOperand`] says why every
//! weight is still decoded once, to the same bits). A layer's decoded shards
//! are never all live at once, and the layer's activations live in the same
//! buffer's forward scratch, reused from layer to layer.
//!
//! Computation is *real* (actual forward passes over dequantized weights);
//! the per-layer timeline is accounted in simulated device time so that
//! latency results are deterministic and host-independent. The overlap of
//! IO and compute lives on that simulated timeline: on the host, the loads
//! run on the calling thread as it receives each layer.

use std::sync::Arc;

use sti_device::{DeviceTopology, HwProfile, IoSharing, SimTime};
use sti_planner::schedule::{simulate_pipeline, LayerTiming, SchedulePrediction};
use sti_planner::{ExecutionPlan, PlannedLayer};
use sti_quant::{Bitwidth, QuantizedBlob};
use sti_storage::{
    IoChannel, IoScheduler, LayerRequest, LoadedShard, ShardCache, ShardKey, ShardSource,
};
use sti_tensor::softmax::softmax_slice;
use sti_tensor::stats::argmax;
use sti_transformer::{AssembledSubmodel, Model, ShardId};

use crate::buffers::{PreloadBuffer, WorkingBuffer};
use crate::error::PipelineError;

/// The result of one pipeline execution.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// Raw class logits.
    pub logits: Vec<f32>,
    /// Predicted class (argmax).
    pub class: usize,
    /// Softmax probabilities.
    pub probabilities: Vec<f32>,
    /// Simulated per-layer timeline (IO, stalls, makespan).
    pub timeline: SchedulePrediction,
    /// Bytes streamed from storage (excludes preloaded shards).
    pub loaded_bytes: u64,
    /// The working buffer's modelled size (§3.1): the widest executed
    /// layer's shards at FP32. The executor itself holds one decoded shard.
    pub peak_working_bytes: usize,
}

/// The result of one engagement: an [`ExecutionOutcome`] and the submodel
/// it ran.
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

impl Inference {
    pub(crate) fn new(plan: &ExecutionPlan, outcome: ExecutionOutcome) -> Self {
        Self {
            class: outcome.class,
            probabilities: outcome.probabilities.clone(),
            submodel: plan.shape,
            outcome,
        }
    }
}

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

/// Executes plans against a model's resident parameters and a shard source.
pub struct PipelineExecutor<'a> {
    model: &'a Model,
    source: Arc<dyn ShardSource>,
    hw: &'a HwProfile,
}

impl<'a> PipelineExecutor<'a> {
    /// Creates an executor.
    ///
    /// `model` provides the resident parameters (embedding, layer norms,
    /// biases, classifier); shard weights come exclusively from `source` and
    /// the preload buffer. `hw` prices compute and, through its flash
    /// model, the private scheduler [`PipelineExecutor::execute`] loads on.
    pub fn new(model: &'a Model, source: Arc<dyn ShardSource>, hw: &'a HwProfile) -> Self {
        Self { model, source, hw }
    }

    /// Runs one inference over `plan` through a private, single-engagement
    /// IO scheduler, whose loads run on the calling thread — no thread is
    /// started.
    ///
    /// # Errors
    ///
    /// Fails if the plan does not match the model shape, a shard is missing
    /// from both the preload buffer and the store, or storage reads fail.
    pub fn execute(
        &self,
        plan: &ExecutionPlan,
        preload: &PreloadBuffer,
        tokens: &[u32],
    ) -> Result<ExecutionOutcome, PipelineError> {
        let scheduler = IoScheduler::spawn(
            self.source.clone(),
            self.hw.flash,
            Arc::new(ShardCache::new(0)),
            IoSharing::Exclusive,
            DeviceTopology::single(),
        );
        let channel = scheduler.channel_striped_at(SimTime::ZERO, 0);
        self.issue_on(&channel, plan)?;
        self.complete_on(&channel, plan, preload, tokens)
    }

    /// The issue half of an execution on `channel` — an IO lane borrowed
    /// from a shared [`IoScheduler`], so N concurrent engagements
    /// multiplex one flash model and one shard cache: queues every
    /// streamed layer's IO on `channel` up front (the channel services them
    /// back-to-back in FIFO order, exactly like the single IO channel of
    /// the schedule model). Each layer requests the items the plan streams
    /// ([`PlannedLayer::streamed`]); a layer the preload set covers requests
    /// nothing. Event-driven hosts call the halves separately so a whole
    /// wave of engagements can enqueue before the flash component services
    /// any of it.
    ///
    /// The simulated timeline and byte accounting depend only on the plan
    /// and the device model, never on what the scheduler's other channels
    /// are doing: outcomes are identical whether the engagement runs alone
    /// or concurrently (see `sti_storage::scheduler` docs).
    ///
    /// # Errors
    ///
    /// Fails if the plan does not match the model shape or the scheduler
    /// shut down.
    pub fn issue_on(&self, channel: &IoChannel, plan: &ExecutionPlan) -> Result<(), PipelineError> {
        let cfg = self.model.config();
        if plan.shape.depth > cfg.layers {
            return Err(PipelineError::PlanMismatch(format!(
                "plan depth {} exceeds model depth {}",
                plan.shape.depth, cfg.layers
            )));
        }
        for pl in &plan.layers {
            let items: Vec<(u16, Bitwidth)> = pl.streamed(&plan.preload).collect();
            if !items.is_empty() {
                channel.request(LayerRequest { layer: pl.layer, items })?;
            }
        }
        Ok(())
    }

    /// The compute half of an execution on `channel`: receives the
    /// completion of each layer the plan streams off `channel` (in issue
    /// order, as [`PipelineExecutor::issue_on`] requested them) and runs
    /// the forward pass over it, taking the plan's preloaded shards from
    /// `preload` — a buffer filled from `plan.preload`.
    ///
    /// The IO was dispatched before this runs; the shards the dispatch
    /// deferred are read here, from this executor's source, one layer at a
    /// time.
    ///
    /// # Errors
    ///
    /// Fails if a shard is missing from both the preload buffer and the
    /// store, or storage reads fail — a deferred shard's read included.
    pub fn complete_on(
        &self,
        channel: &IoChannel,
        plan: &ExecutionPlan,
        preload: &PreloadBuffer,
        tokens: &[u32],
    ) -> Result<ExecutionOutcome, PipelineError> {
        let mut working = WorkingBuffer::new(self.model.config().clone());
        let mut x = self.model.embedding().embed(tokens);
        let mut timings = Vec::with_capacity(plan.layers.len());
        let mut loaded_bytes = 0u64;

        for (l, pl) in plan.layers.iter().enumerate() {
            let (streamed, io_delay) = if pl.streams(&plan.preload) {
                let mut loaded = channel.recv()?;
                debug_assert_eq!(loaded.layer, pl.layer, "IO completions must arrive in order");
                // The shards the dispatch deferred are read now, as the
                // layer comes up, and dropped with it.
                working.materialise(&mut loaded, &*self.source)?;
                loaded_bytes += loaded.bytes;
                (loaded.shards, loaded.io_delay)
            } else {
                (Vec::new(), SimTime::ZERO)
            };

            // The streamed shards arrive in request order: the plan's slices
            // its preload set does not hold. Under shared-IO batching they
            // alias the payload other engagements received; a deferred one
            // is its record in the working buffer.
            let mut streamed = streamed.into_iter();
            let shards = pl.slices.iter().map(|&slice| {
                let id = ShardId::new(pl.layer, slice);
                let shard = match preload.get(id) {
                    Some(blob) => Some(LoadedShard::Blob(blob.clone())),
                    None => streamed.next().filter(|(s, _)| *s == slice).map(|(_, shard)| shard),
                };
                let shard = shard.ok_or_else(|| {
                    PipelineError::PlanMismatch(format!("shard {id} neither preloaded nor loaded"))
                })?;
                Ok((usize::from(slice), shard))
            });
            // Each shard is decoded half by half into the working buffer's
            // one slot as the layer reaches it, never a whole layer at once.
            // Only the classifier reads the last layer: its CLS row is enough.
            let resident = &self.model.layers()[l].resident;
            working.forward_layer(&mut x, shards, resident, l + 1 == plan.layers.len())?;

            timings.push(LayerTiming { io: io_delay, comp: self.hw.t_comp(pl.slices.len()) });
        }

        let logits = self.model.classifier().logits(&x);
        let mut probabilities = logits.clone();
        softmax_slice(&mut probabilities);
        let class = argmax(&logits).expect("at least one class");
        let timeline = simulate_pipeline(&timings, SimTime::ZERO);

        Ok(ExecutionOutcome {
            logits,
            class,
            probabilities,
            timeline,
            loaded_bytes,
            peak_working_bytes: working.peak_bytes(),
        })
    }

    /// Generative extension (paper §3.4 future work): greedily decodes
    /// `steps` tokens after `prompt` over `plan`'s submodel.
    ///
    /// The submodel's shards are streamed **once** (the same bytes a
    /// classification pays) and then reused for every step, so per-step cost
    /// is compute-only — the amortization that makes STI's economics carry
    /// over to generation.
    ///
    /// # Errors
    ///
    /// Fails if any planned shard cannot be loaded.
    pub(crate) fn generate(
        &self,
        plan: &ExecutionPlan,
        preload: &PreloadBuffer,
        prompt: &[u32],
        steps: usize,
    ) -> Result<GenerationOutcome, PipelineError> {
        let (submodel, loaded_bytes) =
            assemble_plan_submodel(self.model, &plan.layers, preload, &*self.source)?;
        let generation = sti_transformer::decoder::generate(self.model, &submodel, prompt, steps);
        Ok(GenerationOutcome {
            tokens: generation.tokens,
            generated: generation.generated,
            first_step: plan.predicted.makespan,
            per_step: self.hw.t_comp(plan.shape.width) * plan.shape.depth as u64,
            loaded_bytes,
        })
    }
}

/// Materializes a plan's submodel (its `layers`) as dequantized weights,
/// taking each shard from the preload buffer when resident and from
/// `source` otherwise.
///
/// Returns the submodel plus the serialized bytes streamed from `source`
/// (preloaded shards cost nothing — they were paid for at plan time). Both
/// the single-app engine and server sessions use this for the generative
/// path, where the submodel is streamed once and reused every step. Each
/// layer decodes through [`WorkingBuffer::assemble`], which checks every
/// blob's length first.
///
/// # Errors
///
/// Fails if any planned shard is missing from both the buffer and `source`,
/// or with [`PipelineError::PlanMismatch`] if a blob's length disagrees with
/// the model's shard size.
pub fn assemble_plan_submodel(
    model: &Model,
    layers: &[PlannedLayer],
    preload: &PreloadBuffer,
    source: &dyn ShardSource,
) -> Result<(AssembledSubmodel, u64), PipelineError> {
    let mut working = WorkingBuffer::new(model.config().clone());
    let mut loaded_bytes = 0u64;
    let mut submodel = AssembledSubmodel::new();
    for pl in layers {
        let mut blobs = Vec::with_capacity(pl.slices.len());
        for (slice, bw) in pl.items() {
            let id = ShardId::new(pl.layer, slice);
            let blob = match preload.get(id) {
                Some(blob) => blob.clone(),
                None => {
                    let key = ShardKey::new(id, bw);
                    loaded_bytes += source.size_bytes(key)?;
                    source.load(key)?
                }
            };
            blobs.push(blob);
        }
        let refs: Vec<&QuantizedBlob> = blobs.iter().collect();
        let shards = working.assemble(&refs)?;
        submodel.push_layer(pl.slices.iter().map(|&s| s as usize).collect(), shards);
    }
    Ok((submodel, loaded_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_device::DeviceProfile;
    use sti_nlp::{Task, TaskKind};
    use sti_planner::{plan_compute, plan_io, ImportanceProfile, IoPlanInputs};
    use sti_quant::QuantConfig;
    use sti_storage::ShardStore;
    use sti_transformer::ModelConfig;

    struct Fixture {
        task: Task,
        hw: HwProfile,
        source: Arc<ShardStore>,
        importance: ImportanceProfile,
    }

    fn fixture() -> Fixture {
        let cfg = ModelConfig::tiny();
        let task = Task::build(TaskKind::Sst2, cfg.clone(), 4, 4);
        let dev = DeviceProfile::odroid_n2();
        let hw = HwProfile::measure(&dev, &cfg, &QuantConfig::default());
        let source = Arc::new(
            ShardStore::create_temp(task.model(), &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
        );
        // Synthetic flat importance (profiling is exercised elsewhere).
        let importance = ImportanceProfile::from_scores(
            cfg.layers,
            cfg.heads,
            (0..cfg.total_shards()).map(|i| 0.5 + i as f64 * 1e-3).collect(),
            0.4,
        );
        Fixture { task, hw, source, importance }
    }

    fn make_plan(f: &Fixture, target_ms: u64, preload_bytes: u64) -> sti_planner::ExecutionPlan {
        let choice =
            plan_compute(&f.hw, f.importance.layers(), SimTime::from_ms(target_ms), &[2, 4]);
        plan_io(&IoPlanInputs {
            hw: &f.hw,
            importance: &f.importance,
            choice,
            target: SimTime::from_ms(target_ms),
            preload_bytes,
            bitwidths: &Bitwidth::ALL,
        })
    }

    fn fill_preload(f: &Fixture, plan: &sti_planner::ExecutionPlan) -> PreloadBuffer {
        PreloadBuffer::fill(plan.preload_budget_bytes, &plan.preload, &*f.source).unwrap()
    }

    #[test]
    fn executes_a_cold_start_plan() {
        let f = fixture();
        let plan = make_plan(&f, 400, 0);
        let exec = PipelineExecutor::new(f.task.model(), f.source.clone(), &f.hw);
        let out = exec.execute(&plan, &PreloadBuffer::default(), &[1, 2, 3]).unwrap();
        assert_eq!(out.logits.len(), 2);
        assert!(out.loaded_bytes > 0);
        assert!((out.probabilities.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(out.timeline.layers.len(), plan.shape.depth);
    }

    #[test]
    fn preload_reduces_streamed_bytes_and_warmup() {
        let f = fixture();
        let cold_plan = make_plan(&f, 400, 0);
        let warm_plan = make_plan(&f, 400, 1 << 20);
        assert!(!warm_plan.preload.is_empty());
        let exec = PipelineExecutor::new(f.task.model(), f.source.clone(), &f.hw);

        let cold = exec.execute(&cold_plan, &PreloadBuffer::default(), &[5, 6]).unwrap();
        let warm = exec.execute(&warm_plan, &fill_preload(&f, &warm_plan), &[5, 6]).unwrap();
        assert!(warm.loaded_bytes < cold.loaded_bytes);
        assert!(warm.timeline.layers[0].stall <= cold.timeline.layers[0].stall);
    }

    #[test]
    fn a_shard_neither_preloaded_nor_streamed_is_a_plan_mismatch() {
        let f = fixture();
        let plan = make_plan(&f, 400, 1 << 20);
        assert!(!plan.preload.is_empty());
        let exec = PipelineExecutor::new(f.task.model(), f.source.clone(), &f.hw);
        let cache = Arc::new(ShardCache::new(0));
        let (sharing, topology) = (IoSharing::Exclusive, DeviceTopology::single());
        let scheduler = IoScheduler::spawn(f.source.clone(), f.hw.flash, cache, sharing, topology);
        let channel = scheduler.channel_striped_at(SimTime::ZERO, 0);
        exec.issue_on(&channel, &plan).unwrap();
        // Completed without the buffer its plan's preload set fills, a
        // preloaded slice meets a blob streamed for another slice, or none
        // at all.
        let empty = PreloadBuffer::default();
        let err = exec.complete_on(&channel, &plan, &empty, &[1]).unwrap_err();
        assert!(matches!(err, PipelineError::PlanMismatch(_)), "{err:?}");
    }

    /// A store whose shards are shaped for another model: every blob is
    /// shorter than the executor's shard, so decoding a half of one would
    /// read past its end. The executor checks each layer's blobs before it
    /// decodes any and fails with a typed error instead.
    #[test]
    fn a_wrong_size_blob_is_a_plan_mismatch_not_a_panic() {
        let f = fixture();
        let plan = make_plan(&f, 400, 0);
        let other = ModelConfig { hidden: 16, ffn: 32, ..f.task.model().config().clone() };
        let model = Model::synthetic(3, other);
        let source = Arc::new(
            ShardStore::create_temp(&model, &Bitwidth::ALL, &QuantConfig::default()).unwrap(),
        );
        let exec = PipelineExecutor::new(f.task.model(), source, &f.hw);
        let err = exec.execute(&plan, &PreloadBuffer::default(), &[1, 2]).unwrap_err();
        assert!(matches!(err, PipelineError::PlanMismatch(_)), "{err:?}");
    }

    #[test]
    fn executor_prediction_matches_plan_for_full_loads() {
        let f = fixture();
        let plan = make_plan(&f, 400, 0);
        let exec = PipelineExecutor::new(f.task.model(), f.source.clone(), &f.hw);
        let out = exec.execute(&plan, &PreloadBuffer::default(), &[7]).unwrap();
        // Measured makespan should be close to the planner's conservative
        // prediction (real blobs are never larger than the profiled max).
        assert!(out.timeline.makespan <= plan.predicted.makespan);
    }

    #[test]
    fn missing_shard_version_fails_cleanly() {
        let f = fixture();
        let plan = make_plan(&f, 400, 0);
        // A store written without one shard version the plan needs.
        let missing = plan.layers[0].bitwidths[0];
        let kept: Vec<Bitwidth> = Bitwidth::ALL.into_iter().filter(|&bw| bw != missing).collect();
        let source = ShardStore::create_temp(f.task.model(), &kept, &QuantConfig::default());
        let exec = PipelineExecutor::new(f.task.model(), Arc::new(source.unwrap()), &f.hw);
        let err = exec.execute(&plan, &PreloadBuffer::default(), &[1]).unwrap_err();
        assert!(matches!(err, PipelineError::Storage(_)));
    }

    #[test]
    fn deterministic_outcomes() {
        let f = fixture();
        let plan = make_plan(&f, 300, 0);
        let exec = PipelineExecutor::new(f.task.model(), f.source.clone(), &f.hw);
        let a = exec.execute(&plan, &PreloadBuffer::default(), &[9, 9]).unwrap();
        let b = exec.execute(&plan, &PreloadBuffer::default(), &[9, 9]).unwrap();
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn full_fidelity_plan_matches_direct_forward() {
        let f = fixture();
        let cfg = f.task.model().config().clone();
        // A full-grid, full-fidelity plan.
        let layers: Vec<PlannedLayer> = (0..cfg.layers as u16)
            .map(|layer| PlannedLayer {
                layer,
                slices: (0..cfg.heads as u16).collect(),
                bitwidths: vec![Bitwidth::Full; cfg.heads],
            })
            .collect();
        let plan = ExecutionPlan::new(&f.hw, layers, vec![], SimTime::from_ms(10_000), 0, true);
        let exec = PipelineExecutor::new(f.task.model(), f.source.clone(), &f.hw);
        let out = exec.execute(&plan, &PreloadBuffer::default(), &[3, 4, 5]).unwrap();
        let direct = f.task.model().forward_full(&[3, 4, 5]);
        for (a, b) in out.logits.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-4, "pipeline and direct forward disagree: {a} vs {b}");
        }
    }
}
