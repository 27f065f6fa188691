//! Shared experiment plumbing: task contexts, importance-profile disk cache,
//! and the standard latency/budget grids.

use std::fs;
use std::path::PathBuf;

use bytes::{Buf, BufMut, BytesMut};
use sti::prelude::*;
use sti::TaskContext;

/// Target latencies of the paper's evaluation (§7.1).
pub const TARGETS_MS: [u64; 3] = [150, 200, 400];

/// Preload-buffer budgets per platform (Table 5 uses 1 MB on Odroid and
/// 5 MB on Jetson at paper scale; scaled to this reproduction's model size —
/// the paper's buffers hold roughly layer 0's worth of shards, ours do too).
pub fn preload_budget_for(device: &DeviceProfile) -> u64 {
    if device.name.contains("Jetson") {
        48 << 10
    } else {
        16 << 10
    }
}

/// Where experiment outputs and caches land.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .join("bench_results");
    fs::create_dir_all(&dir).expect("create bench_results dir");
    dir
}

const CACHE_MAGIC: u32 = u32::from_le_bytes(*b"STIC");
/// Bumped whenever the layout below changes; an older file is recomputed.
const CACHE_VERSION: u32 = 2;

fn importance_cache_path(kind: TaskKind, cfg: &ModelConfig) -> PathBuf {
    let dir = results_dir().join("cache");
    fs::create_dir_all(&dir).expect("create cache dir");
    dir.join(format!(
        "importance_{}_{}x{}_d{}.bin",
        kind.name().to_lowercase().replace('-', ""),
        cfg.layers,
        cfg.heads,
        cfg.hidden
    ))
}

/// The cache file's header: magic, format version, and everything a profile
/// is a function of — the full model configuration, the dev-split size, the
/// quantization parameters and the teacher's seed — written out verbatim. A
/// file is only trusted if it starts with exactly these bytes; the file name
/// is a convenience, not the key. Both structs are destructured
/// exhaustively so a new field cannot be left out of the fingerprint.
fn cache_header(cfg: &ModelConfig, dev_len: usize, quant: &QuantConfig, seed: u64) -> Vec<u8> {
    let &ModelConfig { layers, heads, hidden, ffn, vocab, seq_len, classes } = cfg;
    let &QuantConfig { outlier_log_likelihood } = quant;
    let mut buf = BytesMut::new();
    buf.put_u32_le(CACHE_MAGIC);
    buf.put_u32_le(CACHE_VERSION);
    for dim in [layers, heads, hidden, ffn, vocab, seq_len, classes, dev_len] {
        buf.put_u64_le(dim as u64);
    }
    buf.put_f32_le(outlier_log_likelihood);
    buf.put_u64_le(seed);
    buf.to_vec()
}

fn encode_importance(header: &[u8], p: &ImportanceProfile) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(header);
    buf.put_f64_le(p.baseline());
    for l in 0..p.layers() as u16 {
        for s in 0..p.heads() as u16 {
            buf.put_f64_le(p.score(ShardId::new(l, s)));
        }
    }
    buf.to_vec()
}

/// Reads back a `layers × heads` profile written under `header`. Anything
/// else — another header, a short or over-long body, a non-finite value — is
/// `None`, and the caller recomputes.
fn decode_importance(
    header: &[u8],
    layers: usize,
    heads: usize,
    bytes: &[u8],
) -> Option<ImportanceProfile> {
    let mut body = bytes.strip_prefix(header)?;
    if body.len() != (1 + layers * heads) * 8 {
        return None;
    }
    let baseline = body.get_f64_le();
    let scores: Vec<f64> = (0..layers * heads).map(|_| body.get_f64_le()).collect();
    (baseline.is_finite() && scores.iter().all(|s| s.is_finite()))
        .then(|| ImportanceProfile::from_scores(layers, heads, scores, baseline))
}

/// Builds a task context at experiment scale, loading (or computing and
/// saving) its importance profile through the on-disk cache.
pub fn context(kind: TaskKind) -> TaskContext {
    let cfg = ModelConfig::scaled_bert();
    let ctx = TaskContext::with_config(kind, cfg.clone());
    let path = importance_cache_path(kind, &cfg);
    let header = cache_header(&cfg, ctx.task().dev().len(), ctx.quant(), kind.model_seed());
    let cached = fs::read(&path)
        .ok()
        .and_then(|bytes| decode_importance(&header, cfg.layers, cfg.heads, &bytes));
    if let Some(profile) = cached {
        ctx.set_importance(profile);
        return ctx;
    }
    eprintln!(
        "[harness] profiling shard importance for {} (cached for later runs)...",
        kind.name()
    );
    let profile = ctx.importance().clone();
    fs::write(&path, encode_importance(&header, &profile)).expect("write importance cache");
    ctx
}

/// All four benchmark task contexts.
pub fn all_contexts() -> Vec<(TaskKind, TaskContext)> {
    TaskKind::ALL.into_iter().map(|k| (k, context(k))).collect()
}

/// Writes a report to `bench_results/<name>.txt` and echoes it to stdout.
pub fn emit(name: &str, body: &str) {
    println!("{body}");
    let path = results_dir().join(format!("{name}.txt"));
    fs::write(&path, body).expect("write report file");
    eprintln!("[harness] wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn importance_cache_round_trips() {
        let (cfg, quant, seed) =
            (ModelConfig::tiny(), QuantConfig::default(), TaskKind::Sst2.model_seed());
        let header = cache_header(&cfg, 32, &quant, seed);
        let p = ImportanceProfile::from_scores(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 0.05);
        let bytes = encode_importance(&header, &p);
        assert_eq!(decode_importance(&header, 2, 3, &bytes), Some(p));

        // A profile of anything else is not loaded: another model shape
        // (`ffn` and `seq_len` are not in the file name), another dev-split
        // size, other quantization parameters, another teacher.
        let others = [
            cache_header(&ModelConfig { ffn: 128, ..cfg.clone() }, 32, &quant, seed),
            cache_header(&ModelConfig { seq_len: 16, ..cfg.clone() }, 32, &quant, seed),
            cache_header(&cfg, 8, &quant, seed),
            cache_header(&cfg, 32, &QuantConfig { outlier_log_likelihood: -3.5 }, seed),
            cache_header(&cfg, 32, &quant, TaskKind::Rte.model_seed()),
        ];
        for other in &others {
            assert_eq!(decode_importance(other, 2, 3, &bytes), None);
        }

        // Trailing bytes and a truncated body are rejected, not ignored.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_importance(&header, 2, 3, &trailing), None);
        assert_eq!(decode_importance(&header, 2, 3, &bytes[..bytes.len() - 1]), None);

        // A non-finite score or baseline would panic later in `ranking()`.
        for (at, poison) in [(0, f64::NAN), (3, f64::INFINITY), (6, f64::NEG_INFINITY)] {
            let mut corrupt = bytes.clone();
            let offset = header.len() + at * 8;
            corrupt[offset..offset + 8].copy_from_slice(&poison.to_le_bytes());
            assert_eq!(decode_importance(&header, 2, 3, &corrupt), None, "value {at}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let header = cache_header(&ModelConfig::tiny(), 32, &QuantConfig::default(), 0);
        assert!(decode_importance(&header, 2, 4, b"nonsense").is_none());
        assert!(decode_importance(&header, 2, 4, &[]).is_none());
        assert!(decode_importance(&header, 2, 4, &header).is_none());
    }

    #[test]
    fn budgets_differ_per_platform() {
        let od = preload_budget_for(&DeviceProfile::odroid_n2());
        let jet = preload_budget_for(&DeviceProfile::jetson_nano());
        assert!(jet > od, "paper uses 1 MB (Odroid) vs 5 MB (Jetson)");
    }
}
