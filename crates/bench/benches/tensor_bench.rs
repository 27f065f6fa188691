//! Criterion micro-benchmarks for the tensor kernels: dense matmul at the
//! shapes the transformer actually uses, the two transcendental loops at one
//! shard's shapes, a whole-layer forward pass (full and CLS-only), and its
//! attention and FFN halves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sti_tensor::{activation, ops, softmax, Matrix, Rng};
use sti_transformer::attention::attention;
use sti_transformer::ffn::ffn;
use sti_transformer::layer::{layer_forward, layer_forward_cls};
use sti_transformer::synthetic::{synthetic_layer, GainPattern};
use sti_transformer::{ModelConfig, ShardWeights};

fn random_matrix(rng: &mut Rng, r: usize, c: usize) -> Matrix {
    let mut m = Matrix::zeros(r, c);
    rng.fill_gaussian(m.as_mut_slice(), 0.0, 1.0);
    m
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let cfg = ModelConfig::scaled_bert();
    let (l, d, hd, f) = (cfg.seq_len, cfg.hidden, cfg.head_dim(), cfg.ffn_per_shard());
    let mut group = c.benchmark_group("matmul");
    // The forward pass multiplies one shard at a time, so these are the
    // shapes it runs: the packed Q/K/V projection (15 columns: an 8-wide and
    // two 4-wide tiles), FFN up, FFN down and the attention output
    // projection. One 5-column projection stays as the shape the packing
    // replaced, the unsharded FFN up-projection as the largest-matmul
    // reference.
    let shapes = [
        ("qkv_packed", l, d, 3 * hd),
        ("qkv_single", l, d, hd),
        ("ffn_up", l, d, f),
        ("ffn_down", l, f, d),
        ("attn_out", l, hd, d),
        ("ffn_up_unsharded", l, d, cfg.ffn),
    ];
    for (name, r, k, cols) in shapes {
        let a = random_matrix(&mut rng, r, k);
        let b = random_matrix(&mut rng, k, cols);
        group.throughput(Throughput::Elements((2 * r * k * cols) as u64));
        group.bench_function(BenchmarkId::new(name, format!("{r}x{k}x{cols}")), |bch| {
            bch.iter(|| ops::matmul(&a, &b))
        });
    }
    group.finish();
}

/// What one shard pays for its transcendentals: `tanh` over its `l × d_ff/M`
/// FFN activations and `exp` over its head's `l × l` attention scores. Each
/// iteration restores the input first (a 1 KiB copy), so the values stay
/// the forward pass's.
fn bench_transcendentals(c: &mut Criterion) {
    let cfg = ModelConfig::scaled_bert();
    let mut rng = Rng::new(3);
    let (l, f) = (cfg.seq_len, cfg.ffn_per_shard());
    let gelu: fn(&mut Matrix) = activation::gelu_inplace;
    for (name, cols, kernel) in
        [("gelu_inplace", f, gelu), ("softmax_rows", l, softmax::softmax_rows)]
    {
        let input = random_matrix(&mut rng, l, cols);
        let mut m = input.clone();
        c.bench_function(format!("{name}/{l}x{cols}"), |bch| {
            bch.iter(|| {
                m.as_mut_slice().copy_from_slice(input.as_slice());
                kernel(&mut m);
            })
        });
    }
}

fn bench_layer_forward(c: &mut Criterion) {
    let cfg = ModelConfig::scaled_bert();
    let mut rng = Rng::new(2);
    let layer = synthetic_layer(&cfg, &mut rng, 0, GainPattern::Uniform);
    let x = random_matrix(&mut rng, cfg.seq_len, cfg.hidden);
    let mut group = c.benchmark_group("layer_forward");
    for m in [3usize, 12] {
        let refs: Vec<&ShardWeights> = layer.shards[..m].iter().collect();
        let idxs: Vec<usize> = (0..m).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |bch, _| {
            bch.iter(|| layer_forward(&x, &refs, &idxs, &layer.resident, &cfg))
        });
        // The last executed layer: the CLS row only.
        group.bench_with_input(BenchmarkId::new("cls", m), &m, |bch, _| {
            bch.iter(|| layer_forward_cls(&x, &refs, &idxs, &layer.resident, &cfg))
        });
    }
    group.finish();
    // The two halves of a full-width layer, without residuals and norms.
    let refs: Vec<&ShardWeights> = layer.shards.iter().collect();
    let idxs: Vec<usize> = (0..cfg.heads).collect();
    c.bench_function("attention/12", |bch| bch.iter(|| attention(&x, &refs, &cfg)));
    c.bench_function("ffn/12", |bch| {
        bch.iter(|| ffn(&x, &refs, &idxs, &layer.resident.bias_ffn1, &cfg))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_transcendentals, bench_layer_forward
}
criterion_main!(benches);
