//! Shard-importance profiling (paper §5.2).
//!
//! A shard is more important if giving *it* high fidelity (while everything
//! else stays at the 2-bit floor) raises dev-set accuracy more. The paper
//! enumerates all `N × M` shards, raising each to 32-bit in turn, and ranks
//! shards by the resulting dev accuracy. We measure *soft* accuracy (mean
//! probability assigned to the gold label) so that small dev sets still
//! produce a total order instead of massive ties.

use sti_nlp::metrics::soft_accuracy_of;
use sti_nlp::Dataset;
use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob};
use sti_tensor::parallel::parallel_map_scratch;
use sti_tensor::softmax::softmax_slice;
use sti_tensor::Matrix;
use sti_transformer::{ForwardScratch, Model, ModelConfig, ShardId, ShardOperand, ShardWeights};

use crate::plan::PlannedLayer;

/// The profiled importance of every shard in the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceProfile {
    layers: usize,
    heads: usize,
    /// Soft dev accuracy with shard `layer·M + slice` at full fidelity and
    /// the rest at 2-bit.
    scores: Vec<f64>,
    /// Soft dev accuracy of the all-2-bit grid.
    baseline: f64,
}

impl ImportanceProfile {
    /// Builds a profile from precomputed scores (tests and serialization).
    ///
    /// # Panics
    ///
    /// Panics if `scores.len() != layers * heads`, or if a score or the
    /// baseline is not finite (rankings compare scores, so a NaN admitted
    /// here would only surface later, far from its source).
    pub fn from_scores(layers: usize, heads: usize, scores: Vec<f64>, baseline: f64) -> Self {
        assert_eq!(scores.len(), layers * heads, "score grid shape mismatch");
        assert!(
            baseline.is_finite() && scores.iter().all(|s| s.is_finite()),
            "importance scores must be finite"
        );
        Self { layers, heads, scores, baseline }
    }

    /// Grid depth `N`.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Grid width `M`.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The all-2-bit baseline soft accuracy.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// The probe score of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the grid.
    pub fn score(&self, id: ShardId) -> f64 {
        assert!((id.layer as usize) < self.layers && (id.slice as usize) < self.heads);
        self.scores[id.layer as usize * self.heads + id.slice as usize]
    }

    /// Importance gain of a shard over the 2-bit baseline.
    pub fn gain(&self, id: ShardId) -> f64 {
        self.score(id) - self.baseline
    }

    /// All shards ranked by descending importance (ties broken by id for
    /// determinism).
    pub fn ranking(&self) -> Vec<ShardId> {
        let mut ids: Vec<ShardId> = (0..self.layers as u16)
            .flat_map(|l| (0..self.heads as u16).map(move |s| ShardId::new(l, s)))
            .collect();
        ids.sort_by(|a, b| {
            self.score(*b).partial_cmp(&self.score(*a)).expect("scores are finite").then(a.cmp(b))
        });
        ids
    }

    /// For each of the first `depth` layers, the `m` most important slices
    /// of that layer in ascending slice order — how the planner picks which
    /// slices constitute an `n × m` submodel.
    ///
    /// # Panics
    ///
    /// Panics if `m > heads` or `depth > layers`.
    pub fn top_slices_per_layer(&self, depth: usize, m: usize) -> Vec<Vec<u16>> {
        assert!(m >= 1 && m <= self.heads, "width {m} out of range");
        assert!(depth <= self.layers, "depth {depth} out of range");
        (0..depth as u16)
            .map(|l| {
                let mut slices: Vec<u16> = (0..self.heads as u16).collect();
                slices.sort_by(|a, b| {
                    self.score(ShardId::new(l, *b))
                        .partial_cmp(&self.score(ShardId::new(l, *a)))
                        .expect("scores are finite")
                        .then(a.cmp(b))
                });
                let mut top = into_top(m, slices);
                top.sort_unstable();
                top
            })
            .collect()
    }

    /// The `depth × m` submodel of each of the first `depth` layers' `m`
    /// most important slices ([`ImportanceProfile::top_slices_per_layer`]),
    /// every shard at `bitwidth`.
    ///
    /// # Panics
    ///
    /// Panics if `m > heads` or `depth > layers`.
    pub fn top_submodel(&self, depth: usize, m: usize, bitwidth: Bitwidth) -> Vec<PlannedLayer> {
        let layers = self.top_slices_per_layer(depth, m).into_iter().zip(0u16..);
        layers
            .map(|(slices, layer)| PlannedLayer { layer, slices, bitwidths: vec![bitwidth; m] })
            .collect()
    }

    /// Renders the grid as the heatmap of paper Figure 5: one row per layer
    /// (layer 0 at the top), digits 0–9 scaled between the minimum and
    /// maximum gain (9 = most important).
    pub fn heatmap_string(&self) -> String {
        let min = self.scores.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(1e-12);
        let mut out = String::new();
        for l in 0..self.layers {
            for s in 0..self.heads {
                let v = self.scores[l * self.heads + s];
                let digit = ((v - min) / span * 9.0).round() as u32;
                out.push_str(&format!("{digit} "));
            }
            out.push('\n');
        }
        out
    }

    /// Mean gain per layer — summarizes where importance concentrates
    /// (bottom-heavy for RTE-like tasks, spread out for SST-2-like ones).
    pub fn layer_mean_gains(&self) -> Vec<f64> {
        (0..self.layers)
            .map(|l| {
                let row = &self.scores[l * self.heads..(l + 1) * self.heads];
                row.iter().map(|s| s - self.baseline).sum::<f64>() / self.heads as f64
            })
            .collect()
    }
}

fn into_top(m: usize, slices: Vec<u16>) -> Vec<u16> {
    slices.into_iter().take(m).collect()
}

/// Runs the §5.2 profiling procedure: quantize the whole grid at 2-bit,
/// then for each shard swap in its full-fidelity weights and measure soft
/// dev accuracy.
///
/// The probe of shard `(l, s)` differs from the all-2-bit baseline only from
/// layer `l` up, so the baseline runs once per dev example keeping the hidden
/// state entering every layer, and each probe resumes at layer `l` from that
/// state: `N·M·(N + 1)/2 + N` layer evaluations per example instead of
/// `(N·M + 1)·N`, every score bit-identical to a probe run from the
/// embedding. The floor stays quantized (about 1 KiB a shard at
/// `scaled_bert()`, against 14 KiB decoded), and a pass decodes it one layer
/// at a time into one reused decoded layer, advancing every dev example
/// through each layer it decodes.
///
/// The probes spread over the available cores and hand back one `f64`
/// each. A worker allocates nothing (see `sti_tensor::parallel`): each
/// borrows a probe scratch the calling thread built — its decoded layer,
/// one hidden state per dev example, overwritten from the baseline's rather
/// than cloned, and the [`ForwardScratch`] every layer runs in. The floor
/// and the baselines are built on the calling thread too.
pub fn profile_importance(model: &Model, dev: &Dataset, quant: &QuantConfig) -> ImportanceProfile {
    let cfg = model.config();
    assert!(!dev.is_empty(), "importance profiling needs a non-empty dev set");
    let (n, m) = (cfg.layers, cfg.heads);
    let floor = floor_blobs(model, quant);
    let floor_layer = |l: usize| &floor[l * m..(l + 1) * m];
    let slices = model.all_slices();

    // entering[e][l]: example e's hidden state entering layer l of the
    // all-2-bit grid; entering[e][n] is the baseline's final state. Built on
    // the calling thread (about 1% of the profile's layer evaluations).
    let mut entering: Vec<Vec<Matrix>> = dev
        .iter()
        .map(|e| {
            let mut states = Vec::with_capacity(n + 1);
            states.push(model.embedding().embed(&e.tokens));
            states
        })
        .collect();
    let mut scratch = ProbeScratch::new(cfg, 0);
    for l in 0..n {
        scratch.layer.decode(floor_layer(l));
        let resident = &model.layers()[l].resident;
        for states in &mut entering {
            let mut next = states[l].clone();
            scratch.forward.layer(&mut next, scratch.layer.with(None), slices, resident, cfg);
            states.push(next);
        }
    }
    drop(scratch);

    // Probe (first, s): the floor resumed at layer `first` with slice `s` of
    // that layer at full fidelity.
    let labels: Vec<usize> = dev.iter().map(|e| e.label).collect();
    let scores = parallel_map_scratch(
        n * m,
        || ProbeScratch::new(cfg, dev.len()),
        |ProbeScratch { layer, states, forward }, i| {
            let (first, s) = (i / m, i % m);
            let upgrade = |l: usize| (l == first).then(|| (s, &model.layers()[l].shards[s]));
            for (x, entering) in states.iter_mut().zip(&entering) {
                x.clone_from(&entering[first]);
            }
            for l in first..n - 1 {
                layer.decode(floor_layer(l));
                let resident = &model.layers()[l].resident;
                for x in states.iter_mut() {
                    forward.layer(x, layer.with(upgrade(l)), slices, resident, cfg);
                }
            }
            layer.decode(floor_layer(n - 1));
            let resident = &model.layers()[n - 1].resident;
            let gold = states.iter_mut().zip(&labels).map(|(x, &label)| {
                forward.layer_cls(x, layer.with(upgrade(n - 1)), slices, resident, cfg);
                gold_probability(forward.logits(model.classifier(), x), label)
            });
            soft_accuracy_of(gold)
        },
    );
    let baseline = soft_accuracy_of(
        entering
            .iter()
            .zip(&labels)
            .map(|(st, &label)| gold_probability(&mut model.classifier().logits(&st[n]), label)),
    );
    ImportanceProfile::from_scores(n, m, scores, baseline)
}

/// The softmax probability `logits` (overwritten with the softmax) give the
/// gold `label`.
fn gold_probability(logits: &mut [f32], label: usize) -> f32 {
    softmax_slice(logits);
    logits[label]
}

/// Every shard of the grid quantized at 2-bit, in `layer·M + slice` order:
/// the floor the probes run on.
fn floor_blobs(model: &Model, quant: &QuantConfig) -> Vec<QuantizedBlob> {
    model
        .layers()
        .iter()
        .flat_map(|layer| &layer.shards)
        .map(|shard| QuantizedBlob::quantize(&shard.flatten(), Bitwidth::B2, quant))
        .collect()
}

/// What one probe writes, built on the calling thread and lent to one
/// worker for the whole profile: one decoded floor layer, one hidden state
/// per dev example and the forward pass's scratch.
struct ProbeScratch {
    layer: FloorLayer,
    states: Vec<Matrix>,
    forward: ForwardScratch,
}

impl ProbeScratch {
    fn new(cfg: &ModelConfig, examples: usize) -> Self {
        Self {
            layer: FloorLayer::new(cfg),
            states: (0..examples).map(|_| Matrix::zeros(cfg.seq_len, cfg.hidden)).collect(),
            forward: ForwardScratch::new(cfg),
        }
    }
}

/// One layer of the floor decoded to FP32, overwritten in place for each
/// layer a pass walks: `M` shards and the flat buffer a blob decodes into.
struct FloorLayer {
    shards: Vec<ShardWeights>,
    flat: Vec<f32>,
}

impl FloorLayer {
    fn new(cfg: &ModelConfig) -> Self {
        Self {
            shards: (0..cfg.heads).map(|_| ShardWeights::zeros(cfg)).collect(),
            flat: vec![0.0; cfg.shard_param_count()],
        }
    }

    /// Decodes one floor layer's `M` blobs into this layer.
    fn decode(&mut self, blobs: &[QuantizedBlob]) {
        for (shard, blob) in self.shards.iter_mut().zip(blobs) {
            blob.dequantize_into(&mut self.flat);
            shard.copy_from_flat(&self.flat);
        }
    }

    /// The decoded layer as the forward pass's operand, every slice in
    /// order, with slice `s` read from `weights` if an upgrade is given.
    fn with<'a>(&'a self, upgrade: Option<(usize, &'a ShardWeights)>) -> FloorOperand<'a> {
        FloorOperand { layer: self, upgrade }
    }
}

/// A decoded floor layer with at most one slice upgraded: the
/// [`ShardOperand`] a probe's layer runs on.
struct FloorOperand<'a> {
    layer: &'a FloorLayer,
    upgrade: Option<(usize, &'a ShardWeights)>,
}

impl FloorOperand<'_> {
    fn shard(&self, i: usize) -> &ShardWeights {
        match self.upgrade {
            Some((s, weights)) if s == i => weights,
            _ => &self.layer.shards[i],
        }
    }
}

impl ShardOperand for FloorOperand<'_> {
    fn width(&self) -> usize {
        self.layer.shards.len()
    }

    fn attention(&mut self, i: usize) -> (&Matrix, &Matrix) {
        let shard = self.shard(i);
        (&shard.qkv, &shard.o)
    }

    fn ffn(&mut self, i: usize) -> (&Matrix, &Matrix) {
        let shard = self.shard(i);
        (&shard.ffn1, &shard.ffn2)
    }
}

/// Every shard of the grid round-tripped through 2-bit quantization, in
/// `layer·M + slice` order: the floor [`profile_importance`] decodes layer
/// by layer, held whole as the oracle's.
#[cfg(test)]
fn floor_grid(model: &Model, quant: &QuantConfig) -> Vec<ShardWeights> {
    let cfg = model.config();
    floor_blobs(model, quant)
        .iter()
        .map(|blob| ShardWeights::from_flat(&blob.dequantize(), cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_nlp::metrics::soft_accuracy;
    use sti_nlp::{Task, TaskKind};
    use sti_tensor::parallel::parallel_map;
    use sti_transformer::AssembledSubmodel;

    /// §5.2 as the paper states it, kept as the oracle: every probe clones
    /// the whole grid into a fresh submodel and runs it from the embedding.
    fn profile_importance_oracle(
        model: &Model,
        dev: &Dataset,
        quant: &QuantConfig,
    ) -> ImportanceProfile {
        let cfg = model.config();
        let floor = floor_grid(model, quant);
        let labels: Vec<usize> = dev.iter().map(|e| e.label).collect();
        let evaluate = |upgraded: Option<usize>| -> f64 {
            let mut sub = AssembledSubmodel::new();
            for l in 0..cfg.layers {
                let shards = (0..cfg.heads)
                    .map(|s| {
                        if upgraded == Some(l * cfg.heads + s) {
                            model.shard(ShardId::new(l as u16, s as u16)).clone()
                        } else {
                            floor[l * cfg.heads + s].clone()
                        }
                    })
                    .collect();
                sub.push_layer((0..cfg.heads).collect(), shards);
            }
            let probs: Vec<Vec<f32>> =
                dev.iter().map(|e| model.predict_assembled(&e.tokens, &sub).1).collect();
            soft_accuracy(&probs, &labels)
        };
        let scores = parallel_map(cfg.total_shards(), |i| evaluate(Some(i)));
        ImportanceProfile::from_scores(cfg.layers, cfg.heads, scores, evaluate(None))
    }

    fn synthetic_profile() -> ImportanceProfile {
        // 2 layers x 3 heads with a known ordering.
        ImportanceProfile::from_scores(2, 3, vec![0.50, 0.80, 0.60, 0.70, 0.55, 0.65], 0.45)
    }

    #[test]
    fn ranking_is_descending() {
        let p = synthetic_profile();
        let r = p.ranking();
        assert_eq!(r[0], ShardId::new(0, 1)); // 0.80
        assert_eq!(r[1], ShardId::new(1, 0)); // 0.70
        assert_eq!(r.last().copied(), Some(ShardId::new(0, 0))); // 0.50
        for pair in r.windows(2) {
            assert!(p.score(pair[0]) >= p.score(pair[1]));
        }
    }

    #[test]
    fn top_slices_pick_per_layer_maxima() {
        let p = synthetic_profile();
        let top = p.top_slices_per_layer(2, 2);
        assert_eq!(top[0], vec![1, 2]); // scores 0.80, 0.60
        assert_eq!(top[1], vec![0, 2]); // scores 0.70, 0.65
        let layers = p.top_submodel(2, 2, Bitwidth::B6);
        for (l, (pl, slices)) in layers.iter().zip(&top).enumerate() {
            assert_eq!((pl.layer as usize, &pl.slices), (l, slices));
            assert_eq!(pl.bitwidths, [Bitwidth::B6; 2]);
        }
    }

    #[test]
    fn gains_subtract_baseline() {
        let p = synthetic_profile();
        assert!((p.gain(ShardId::new(0, 1)) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn heatmap_has_grid_shape_and_extremes() {
        let p = synthetic_profile();
        let map = p.heatmap_string();
        assert_eq!(map.lines().count(), 2);
        assert!(map.contains('9'));
        assert!(map.contains('0'));
    }

    #[test]
    fn layer_mean_gains_reflect_structure() {
        let p = ImportanceProfile::from_scores(2, 2, vec![0.9, 0.9, 0.5, 0.5], 0.4);
        let gains = p.layer_mean_gains();
        assert!(gains[0] > gains[1]);
    }

    #[test]
    fn profiling_runs_on_a_tiny_task() {
        let task = Task::build(TaskKind::Sst2, ModelConfig::tiny(), 6, 4);
        let profile = profile_importance(task.model(), task.dev(), &QuantConfig::default());
        assert_eq!(profile.layers(), 2);
        assert_eq!(profile.heads(), 4);
        assert!(profile.baseline() > 0.0 && profile.baseline() < 1.0);
        // Upgrading a shard should never catastrophically change the probe
        // score scale.
        for id in task.model().config().shard_ids() {
            let s = profile.score(id);
            assert!(s.is_finite() && (0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn incremental_profile_equals_the_clone_the_grid_oracle_on_every_task() {
        for kind in TaskKind::ALL {
            let task = Task::build(kind, ModelConfig::tiny(), 6, 4);
            let quant = QuantConfig::default();
            let profile = profile_importance(task.model(), task.dev(), &quant);
            // `PartialEq` on the profile: every score and the baseline, bit
            // for bit (no NaN can hide a difference; scores are finite).
            assert_eq!(
                profile,
                profile_importance_oracle(task.model(), task.dev(), &quant),
                "{kind}"
            );
        }
    }

    /// The floor the probes run on is the 2-bit version `ShardStore::create`
    /// writes (one `quantize_all` over every bitwidth per shard), so the
    /// profile measures importance on the weights the engine streams. The
    /// oracle above shares `floor_grid`; this pin does not.
    #[test]
    fn floor_grid_is_the_stored_two_bit_weights_on_every_task() {
        for kind in TaskKind::ALL {
            let task = Task::build(kind, ModelConfig::tiny(), 6, 4);
            let (model, quant) = (task.model(), QuantConfig::default());
            let floor = floor_grid(model, &quant);
            assert_eq!(floor.len(), model.config().total_shards(), "{kind}");
            for (weights, id) in floor.iter().zip(model.config().shard_ids()) {
                let stored =
                    QuantizedBlob::quantize_all(&model.shard(id).flatten(), &Bitwidth::ALL, &quant)
                        .into_iter()
                        .find(|blob| blob.bitwidth() == Bitwidth::B2)
                        .expect("the store keeps a 2-bit version");
                let bits = |w: Vec<f32>| w.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                assert_eq!(bits(weights.flatten()), bits(stored.dequantize()), "{kind} {id:?}");
            }
        }
    }

    /// The benchmark's set-up: the shipped model scale on 8 dev examples.
    /// Minutes unoptimised, so CI runs it in release mode (`-- --ignored`).
    #[test]
    #[ignore = "scaled_bert() scale: run with --release -- --ignored"]
    fn incremental_profile_equals_the_oracle_at_scaled_bert() {
        let task = Task::build(TaskKind::Sst2, ModelConfig::scaled_bert(), 8, 1);
        let quant = QuantConfig::default();
        let profile = profile_importance(task.model(), task.dev(), &quant);
        assert_eq!(profile, profile_importance_oracle(task.model(), task.dev(), &quant));
    }

    #[test]
    fn profiling_is_deterministic() {
        let task = Task::build(TaskKind::Rte, ModelConfig::tiny(), 4, 4);
        let a = profile_importance(task.model(), task.dev(), &QuantConfig::default());
        let b = profile_importance(task.model(), task.dev(), &QuantConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_scores_validates_shape() {
        let _ = ImportanceProfile::from_scores(2, 3, vec![0.0; 5], 0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn from_scores_rejects_a_non_finite_score() {
        let _ = ImportanceProfile::from_scores(1, 2, vec![0.5, f64::NAN], 0.4);
    }
}
