//! The forward pass as it was composed before Q/K/V were packed and the
//! scratch was hoisted: per slice, three separate `d × d/M` projections and a
//! fresh matrix for every intermediate, all through `ops::matmul`. Every
//! logit, label and golden in the repository was produced by this
//! composition, so the production path is pinned to it bit for bit. The
//! decoder as it was before the KV cache — every step recomputes the whole
//! sequence under a causal mask — is here too, pinned token for token.

use sti_tensor::norm::layernorm_inplace;
use sti_tensor::{activation, ops, softmax, stats, Matrix};

use crate::assemble::AssembledSubmodel;
use crate::config::ModelConfig;
use crate::decoder::Generation;
use crate::model::Model;
use crate::weights::{LayerResident, ShardWeights};

/// A slice's Q, K and V projections as three `d × d/M` matrices.
pub(crate) fn split_qkv(shard: &ShardWeights) -> [Matrix; 3] {
    let hd = shard.qkv.cols() / 3;
    [0, 1, 2].map(|block| shard.qkv.column_block(block * hd, hd))
}

pub(crate) fn attention(
    x: &Matrix,
    shards: &[&ShardWeights],
    cfg: &ModelConfig,
    causal: bool,
) -> Matrix {
    let l = x.rows();
    let scale = 1.0 / (cfg.head_dim() as f32).sqrt();
    let mut out = Matrix::zeros(l, cfg.hidden);
    for shard in shards {
        let [wq, wk, wv] = split_qkv(shard);
        let q = ops::matmul(x, &wq);
        let k = ops::matmul(x, &wk);
        let v = ops::matmul(x, &wv);

        let mut scores = ops::matmul_transb(&q, &k);
        ops::scale_inplace(&mut scores, scale);
        if causal {
            for i in 0..l {
                for cell in scores.row_mut(i).iter_mut().skip(i + 1) {
                    *cell = f32::NEG_INFINITY;
                }
            }
        }
        softmax::softmax_rows(&mut scores);

        let head = ops::matmul(&scores, &v);
        let projected = ops::matmul(&head, &shard.o);
        ops::add_inplace(&mut out, &projected);
    }
    ops::scale_inplace(&mut out, cfg.heads as f32 / shards.len() as f32);
    out
}

pub(crate) fn ffn(
    x: &Matrix,
    shards: &[&ShardWeights],
    slice_idxs: &[usize],
    bias_ffn1: &[f32],
    cfg: &ModelConfig,
) -> Matrix {
    let f = cfg.ffn_per_shard();
    let mut out = Matrix::zeros(x.rows(), cfg.hidden);
    for (shard, &slice) in shards.iter().zip(slice_idxs) {
        let mut hidden = ops::matmul(x, &shard.ffn1);
        ops::add_bias(&mut hidden, &bias_ffn1[slice * f..(slice + 1) * f]);
        activation::gelu_inplace(&mut hidden);
        let projected = ops::matmul(&hidden, &shard.ffn2);
        ops::add_inplace(&mut out, &projected);
    }
    ops::scale_inplace(&mut out, cfg.heads as f32 / shards.len() as f32);
    out
}

/// Residual, bias and layer norm around an attention output — shared by the
/// encoder layer, the decoder layer and the KV-cache step.
fn finish_layer(
    x: &Matrix,
    mut attn_out: Matrix,
    shards: &[&ShardWeights],
    slice_idxs: &[usize],
    resident: &LayerResident,
    cfg: &ModelConfig,
) -> Matrix {
    ops::add_bias(&mut attn_out, &resident.bias_attn);
    ops::add_inplace(&mut attn_out, x);
    layernorm_inplace(&mut attn_out, &resident.ln_attn, 1e-6);

    let mut ffn_out = ffn(&attn_out, shards, slice_idxs, &resident.bias_ffn1, cfg);
    ops::add_bias(&mut ffn_out, &resident.bias_ffn2);
    ops::add_inplace(&mut ffn_out, &attn_out);
    layernorm_inplace(&mut ffn_out, &resident.ln_ffn, 1e-6);
    ffn_out
}

/// The old `layer_forward` (`causal = false`) and `decoder_layer_forward`
/// (`causal = true`).
pub(crate) fn layer_forward(
    x: &Matrix,
    shards: &[&ShardWeights],
    slice_idxs: &[usize],
    resident: &LayerResident,
    cfg: &ModelConfig,
    causal: bool,
) -> Matrix {
    finish_layer(x, attention(x, shards, cfg, causal), shards, slice_idxs, resident, cfg)
}

/// The old KV-cache step, token by token: the newest position's hidden state
/// after every layer, once per token fed.
pub(crate) fn kv_cache_hidden_states(
    model: &Model,
    submodel: &AssembledSubmodel,
    tokens: &[u32],
) -> Vec<Vec<f32>> {
    let cfg = model.config();
    let scale = 1.0 / (cfg.head_dim() as f32).sqrt();
    let mut cache: Vec<Vec<(Vec<f32>, Vec<f32>)>> =
        submodel.layers().iter().map(|asm| vec![Default::default(); asm.shards.len()]).collect();
    let cached =
        |flat: &[f32]| Matrix::from_vec(flat.len() / cfg.head_dim(), cfg.head_dim(), flat.to_vec());
    (1..=tokens.len())
        .map(|fed| {
            let full = model.embedding().embed_exact(&tokens[..fed]);
            let mut x = Matrix::from_vec(1, cfg.hidden, full.row(fed - 1).to_vec());
            for (l, asm) in submodel.layers().iter().enumerate() {
                let refs: Vec<&ShardWeights> = asm.shards.iter().collect();
                let mut attn_out = Matrix::zeros(1, cfg.hidden);
                for (shard, (keys, values)) in refs.iter().zip(&mut cache[l]) {
                    let [wq, wk, wv] = split_qkv(shard);
                    let q = ops::matmul(&x, &wq);
                    keys.extend_from_slice(ops::matmul(&x, &wk).row(0));
                    values.extend_from_slice(ops::matmul(&x, &wv).row(0));

                    let mut scores = ops::matmul_transb(&q, &cached(keys));
                    ops::scale_inplace(&mut scores, scale);
                    softmax::softmax_rows(&mut scores);
                    let head = ops::matmul(&scores, &cached(values));
                    ops::add_inplace(&mut attn_out, &ops::matmul(&head, &shard.o));
                }
                ops::scale_inplace(&mut attn_out, cfg.heads as f32 / refs.len() as f32);
                let resident = &model.layers()[l].resident;
                x = finish_layer(&x, attn_out, &refs, &asm.slice_idxs, resident, cfg);
            }
            x.into_vec()
        })
        .collect()
}

/// The old `decoder::generate`: greedy decoding that recomputes the whole
/// sequence for every token.
pub(crate) fn generate(
    model: &Model,
    submodel: &AssembledSubmodel,
    prompt: &[u32],
    steps: usize,
) -> Generation {
    let cfg = model.config();
    let mut tokens: Vec<u32> = prompt.to_vec();
    tokens.truncate(cfg.seq_len);
    let mut generated = 0usize;
    while generated < steps && tokens.len() < cfg.seq_len {
        let next = next_token(model, submodel, &tokens);
        tokens.push(next);
        generated += 1;
    }
    Generation { tokens, generated }
}

/// The old `decoder::next_token`: the greedy argmax over the weight-tied
/// vocabulary head after a causal pass over all of `tokens`.
pub(crate) fn next_token(model: &Model, submodel: &AssembledSubmodel, tokens: &[u32]) -> u32 {
    let cfg = model.config();
    let mut x = model.embedding().embed_exact(tokens);
    for (l, asm) in submodel.layers().iter().enumerate() {
        let refs: Vec<&ShardWeights> = asm.shards.iter().collect();
        let resident = &model.layers()[l].resident;
        x = layer_forward(&x, &refs, &asm.slice_idxs, resident, cfg, true);
    }
    let logits = model.embedding().project_to_vocab(x.row(x.rows() - 1));
    stats::argmax(&logits).expect("non-empty vocabulary") as u32
}
