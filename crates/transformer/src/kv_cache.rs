//! Incremental decoding with per-layer key/value caches: the step
//! [`crate::decoder::generate`] runs.
//!
//! A step computes only the newest position — exactly one row of Q/K/V per
//! slice, attention against the cached keys, and the row-wise rest of the
//! layer on that row — where recomputing the whole sequence costs O(l²) per
//! token. Its tokens equal the recompute path's (`oracle::generate`), and its
//! hidden states the unpacked step's bit for bit (tests below).

use sti_tensor::{ops, softmax, stats, Matrix};

use crate::assemble::AssembledSubmodel;
use crate::layer::{finish_layer, ForwardScratch};
use crate::model::Model;
use crate::weights::ShardWeights;

/// Cached keys/values of one layer: one growing `len × head_dim` matrix pair
/// per executed slice.
#[derive(Debug, Clone)]
struct LayerKv {
    keys: Vec<Matrix>,
    values: Vec<Matrix>,
}

/// An incremental decoding session over an assembled submodel: the tokens fed
/// or generated so far and every layer's KV cache. The model and submodel are
/// borrowed per call.
#[derive(Debug, Clone)]
pub(crate) struct DecoderSession {
    tokens: Vec<u32>,
    layers: Vec<LayerKv>,
    /// Hidden state of the newest position after each full feed/step.
    last_hidden: Vec<f32>,
}

impl DecoderSession {
    /// Starts a session by feeding `prompt` through the submodel, filling
    /// the KV caches.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or longer than the model's maximum
    /// sequence length, or the submodel is empty/deeper than the model.
    pub(crate) fn new(model: &Model, submodel: &AssembledSubmodel, prompt: &[u32]) -> Self {
        assert!(!prompt.is_empty(), "generation needs a non-empty prompt");
        assert!(submodel.depth() > 0, "assembled submodel is empty");
        let cfg = model.config();
        assert!(submodel.depth() <= cfg.layers, "submodel deeper than model");
        assert!(prompt.len() <= cfg.seq_len, "prompt exceeds maximum sequence length");

        let mut session = Self {
            tokens: Vec::new(),
            layers: (0..submodel.depth())
                .map(|l| LayerKv {
                    keys: vec![Matrix::zeros(0, cfg.head_dim()); submodel.layers()[l].shards.len()],
                    values: vec![
                        Matrix::zeros(0, cfg.head_dim());
                        submodel.layers()[l].shards.len()
                    ],
                })
                .collect(),
            last_hidden: Vec::new(),
        };
        // Feed the prompt position by position; identical math to the batch
        // path because causal attention at position i only sees 0..=i.
        for &tok in prompt {
            session.advance(model, submodel, tok);
        }
        session
    }

    /// Number of cached positions.
    pub(crate) fn len(&self) -> usize {
        self.tokens.len()
    }

    /// The tokens fed or generated.
    pub(crate) fn into_tokens(self) -> Vec<u32> {
        self.tokens
    }

    /// Greedily decodes the next token, appending it to the session.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is already at the model's maximum length.
    pub(crate) fn step(&mut self, model: &Model, submodel: &AssembledSubmodel) {
        assert!(self.tokens.len() < model.config().seq_len, "sequence already at maximum length");
        let logits = model.embedding().project_to_vocab(&self.last_hidden);
        let next = stats::argmax(&logits).expect("non-empty vocabulary") as u32;
        self.advance(model, submodel, next);
    }

    /// Processes one new token: computes its hidden state through every
    /// layer using (and extending) the KV caches.
    fn advance(&mut self, model: &Model, submodel: &AssembledSubmodel, token: u32) {
        let cfg = model.config();
        let pos = self.tokens.len();
        self.tokens.push(token);

        // Embed just the new position (embedding layer-norm is row-wise).
        let full = model.embedding().embed_exact(&self.tokens);
        let mut x = Matrix::from_vec(1, cfg.hidden, full.row(pos).to_vec());
        let mut scratch = ForwardScratch::new(cfg);

        for (l, asm) in submodel.layers().iter().enumerate() {
            let resident = &model.layers()[l].resident;
            let kv = &mut self.layers[l];

            // Causal attention for the newest position only.
            let hd = cfg.head_dim();
            let mut attn_out = Matrix::zeros(1, cfg.hidden);
            let mut qkv = Matrix::zeros(1, 3 * hd);
            for (s, shard) in asm.shards.iter().enumerate() {
                ops::matmul_into(&x, &shard.qkv, &mut qkv); // 1 × 3·hd: [q | k | v]
                let (q, kv_new) = qkv.row(0).split_at(hd);
                append_row(&mut kv.keys[s], &kv_new[..hd]);
                append_row(&mut kv.values[s], &kv_new[hd..]);
                let q = Matrix::from_vec(1, hd, q.to_vec());

                let mut scores = ops::matmul_transb(&q, &kv.keys[s]); // 1 × len
                ops::scale_inplace(&mut scores, 1.0 / (hd as f32).sqrt());
                softmax::softmax_rows(&mut scores);
                let head = ops::matmul(&scores, &kv.values[s]); // 1 × hd
                let projected = ops::matmul(&head, &shard.o); // 1 × d
                ops::add_inplace(&mut attn_out, &projected);
            }
            ops::scale_inplace(&mut attn_out, cfg.heads as f32 / asm.shards.len() as f32);

            // The rest of the layer is row-wise: it runs on the single row.
            let shard_refs: Vec<&ShardWeights> = asm.shards.iter().collect();
            scratch.attn = attn_out;
            finish_layer(&x, &shard_refs, &asm.slice_idxs, resident, cfg, &mut scratch);
            std::mem::swap(&mut x, &mut scratch.out);
        }
        self.last_hidden = x.row(0).to_vec();
    }
}

fn append_row(m: &mut Matrix, row: &[f32]) {
    let cols = if m.is_empty() { row.len() } else { m.cols() };
    debug_assert_eq!(cols, row.len(), "cache row width mismatch");
    let mut data = std::mem::replace(m, Matrix::zeros(0, 0)).into_vec();
    data.extend_from_slice(row);
    *m = Matrix::from_vec(data.len() / cols, cols, data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::generate;
    use crate::oracle;
    use crate::ModelConfig;

    fn setup() -> (Model, AssembledSubmodel) {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(31, cfg.clone());
        let slices: Vec<Vec<usize>> = (0..cfg.layers).map(|_| (0..cfg.heads).collect()).collect();
        let sub = AssembledSubmodel::from_model_slices(model.layers(), &slices, &cfg);
        (model, sub)
    }

    #[test]
    fn incremental_matches_recompute_path() {
        let (model, sub) = setup();
        for prompt in [vec![1u32], vec![5, 6], vec![9, 2, 7]] {
            let fast = generate(&model, &sub, &prompt, 4);
            let slow = oracle::generate(&model, &sub, &prompt, 4);
            assert_eq!(fast, slow, "KV-cache path diverged for prompt {prompt:?}");
        }
    }

    #[test]
    fn incremental_matches_on_narrow_submodels() {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(32, cfg.clone());
        let slices: Vec<Vec<usize>> = (0..cfg.layers).map(|_| vec![1, 3]).collect();
        let sub = AssembledSubmodel::from_model_slices(model.layers(), &slices, &cfg);
        let fast = generate(&model, &sub, &[4, 4], 3);
        let slow = oracle::generate(&model, &sub, &[4, 4], 3);
        assert_eq!(fast, slow);
    }

    #[test]
    fn cache_grows_linearly_with_positions() {
        // Cached KV bytes across all layers: the memory the paper's
        // classification pipeline never pays.
        let cache_bytes = |session: &DecoderSession| -> usize {
            let matrices = session.layers.iter().flat_map(|l| l.keys.iter().chain(&l.values));
            matrices.map(|m| m.len() * 4).sum()
        };
        let (model, sub) = setup();
        let mut session = DecoderSession::new(&model, &sub, &[1]);
        let per_pos = cache_bytes(&session);
        assert!(per_pos > 0);
        session.step(&model, &sub);
        assert_eq!(cache_bytes(&session), 2 * per_pos);
        session.step(&model, &sub);
        assert_eq!(cache_bytes(&session), 3 * per_pos);
    }

    #[test]
    fn session_stops_at_max_length() {
        let (model, sub) = setup();
        let seq_len = model.config().seq_len;
        let prompt: Vec<u32> = (0..seq_len as u32).collect();
        let g = generate(&model, &sub, &prompt, 5);
        assert_eq!(g.generated, 0);
        assert_eq!(g.tokens.len(), seq_len);
    }

    #[test]
    #[should_panic(expected = "maximum length")]
    fn stepping_past_max_length_panics() {
        let (model, sub) = setup();
        let seq_len = model.config().seq_len;
        let prompt: Vec<u32> = (0..seq_len as u32).collect();
        let mut session = DecoderSession::new(&model, &sub, &prompt);
        session.step(&model, &sub);
    }

    /// Every cached step against the composition it replaced (three unpacked
    /// projections per slice): the newest position's hidden state, bit for
    /// bit, at full and at partial width.
    #[test]
    fn cached_step_equals_the_unpacked_composition_bit_for_bit() {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(33, cfg.clone());
        let tokens = [3u32, 9, 2, 7, 1];
        for slices in [vec![0, 1, 2, 3], vec![2, 0]] {
            let per_layer: Vec<Vec<usize>> = (0..cfg.layers).map(|_| slices.clone()).collect();
            let sub = AssembledSubmodel::from_model_slices(model.layers(), &per_layer, &cfg);
            let expected = crate::oracle::kv_cache_hidden_states(&model, &sub, &tokens);
            let mut session = DecoderSession::new(&model, &sub, &tokens[..1]);
            for (fed, old) in expected.iter().enumerate() {
                if fed > 0 {
                    session.advance(&model, &sub, tokens[fed]);
                }
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&session.last_hidden), bits(old), "{slices:?}, token {fed}");
            }
        }
    }
}
