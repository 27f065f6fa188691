//! Property-based invariants of the quantization substrate over arbitrary
//! weight distributions (not just the synthetic generator's).

use proptest::prelude::*;
use sti_nlp::{Task, TaskKind};
use sti_pipeline::WorkingBuffer;
use sti_quant::centroid::CentroidDictionary;
use sti_quant::{bitpack, Bitwidth, GaussianFit, QuantConfig, QuantError, QuantizedBlob};
use sti_storage::format;
use sti_tensor::stats;
use sti_transformer::synthetic::synthetic_shard;
use sti_transformer::{ModelConfig, ShardWeights};

fn weights_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, 16..600)
}

fn bits_of(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Decompression spelled out in its three steps — unpack every index into a
/// buffer, look each up in the dictionary, patch the outliers — which is what
/// `dequantize_into` did before it fused the first two.
fn unpack_lookup_patch(blob: &QuantizedBlob) -> Vec<f32> {
    if blob.bitwidth().is_full() {
        let raw = blob.packed().chunks_exact(4);
        return raw.map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    }
    let indexes = bitpack::unpack(blob.packed(), blob.bitwidth().bits(), blob.len());
    let mut out: Vec<f32> = indexes.iter().map(|&i| blob.centroids()[i as usize]).collect();
    for &(offset, value) in blob.outliers() {
        out[offset as usize] = value;
    }
    out
}

/// The quantiser as it stood before `quantize_all`, spelled out from its
/// public parts: every bitwidth runs its own Gaussian fit, builds its own
/// outlier set and inlier list, and sorts that list inside
/// `CentroidDictionary::build`.
fn quantize_one_at_a_time(weights: &[f32], bw: Bitwidth, cfg: &QuantConfig) -> QuantizedBlob {
    let len = weights.len() as u32;
    if bw.is_full() {
        let raw = weights.iter().flat_map(|w| w.to_le_bytes()).collect();
        return QuantizedBlob::from_parts(bw, len, raw, Vec::new(), Vec::new()).unwrap();
    }
    let fit = GaussianFit::fit(weights);
    let outlier_idx = fit.outlier_indexes(weights, cfg.outlier_log_likelihood);
    let outlier_set: std::collections::HashSet<u32> = outlier_idx.iter().copied().collect();
    let inliers: Vec<f32> = weights
        .iter()
        .enumerate()
        .filter(|(i, _)| !outlier_set.contains(&(*i as u32)))
        .map(|(_, &w)| w)
        .collect();
    let population: &[f32] = if inliers.is_empty() { weights } else { &inliers };
    let dict = CentroidDictionary::build(population, bw.centroid_count());
    let indexes: Vec<u16> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| if outlier_set.contains(&(i as u32)) { 0 } else { dict.assign(w) })
        .collect();
    let outliers = outlier_idx.iter().map(|&i| (i, weights[i as usize])).collect();
    let packed = bitpack::pack(&indexes, bw.bits());
    QuantizedBlob::from_parts(bw, len, packed, dict.centroids().to_vec(), outliers).unwrap()
}

/// `quantize_all` equals the one-at-a-time quantiser part for part — packed
/// bytes, centroid bits, outlier table — at every bitwidth, in request order,
/// and `quantize` is its one-bitwidth case.
fn assert_one_sort_equals_one_at_a_time(weights: &[f32], cfg: &QuantConfig, what: &str) {
    let all = QuantizedBlob::quantize_all(weights, &Bitwidth::ALL, cfg);
    assert_eq!(all.len(), Bitwidth::ALL.len());
    for (blob, bw) in all.iter().zip(Bitwidth::ALL) {
        let oracle = quantize_one_at_a_time(weights, bw, cfg);
        assert_eq!(blob.bitwidth(), bw, "{what}");
        assert_eq!(blob.len(), weights.len(), "{what} {bw}");
        assert_eq!(blob.packed(), oracle.packed(), "{what} {bw}: packed");
        assert_eq!(bits_of(blob.centroids()), bits_of(oracle.centroids()), "{what} {bw}");
        let table = |b: &QuantizedBlob| -> Vec<(u32, u32)> {
            b.outliers().iter().map(|&(at, v)| (at, v.to_bits())).collect()
        };
        assert_eq!(table(blob), table(&oracle), "{what} {bw}: outliers");
        assert_eq!(&QuantizedBlob::quantize(weights, bw, cfg), blob, "{what} {bw}: quantize");
    }
    // A subset in another order cuts the same dictionaries.
    let some = QuantizedBlob::quantize_all(weights, &[Bitwidth::Full, Bitwidth::B2], cfg);
    assert_eq!(some, [all[5].clone(), all[0].clone()], "{what}: subset");
}

#[test]
fn quantize_all_equals_the_per_bitwidth_quantiser_on_every_tasks_shards() {
    assert_eq!((Bitwidth::ALL[0], Bitwidth::ALL[5]), (Bitwidth::B2, Bitwidth::Full));
    let quant = QuantConfig::default();
    for kind in TaskKind::ALL {
        for cfg in [ModelConfig::tiny(), ModelConfig::scaled_bert()] {
            let task = Task::build(kind, cfg.clone(), 1, 1);
            let mut shard = ShardWeights::zeros(&cfg);
            for id in cfg.shard_ids() {
                task.model().read_shard(id, &mut shard, &mut task.model().read_scratch());
                let flat = shard.flatten();
                assert_one_sort_equals_one_at_a_time(&flat, &quant, &format!("{kind} {id}"));
            }
        }
    }
}

#[test]
fn quantize_all_keeps_the_all_outlier_fallback_and_signed_zero_ties() {
    let quant = QuantConfig::default();
    // Every weight is an outlier under a threshold nothing can meet: the
    // dictionary population falls back to the whole group.
    let everything = QuantConfig { outlier_log_likelihood: f32::INFINITY };
    let spread: Vec<f32> = (0..200).map(|i| (i as f32 / 9.0).sin()).collect();
    let blob = QuantizedBlob::quantize(&spread, Bitwidth::B3, &everything);
    assert_eq!(blob.outliers().len(), spread.len(), "the fallback must be exercised");
    assert_one_sort_equals_one_at_a_time(&spread, &everything, "all-outlier");

    // `-0.0` and `+0.0` compare equal, so only a stable sort over the same
    // input order keeps them where the per-bitwidth sort left them; cluster
    // means and boundaries then carry the same sign bits.
    let mut zeros: Vec<f32> = (0..257)
        .map(|i| match i % 4 {
            0 => 0.0,
            1 => -0.0,
            2 => (i as f32) * 1e-3,
            _ => -(i as f32) * 1e-3,
        })
        .collect();
    zeros[100] = 9.0;
    assert_one_sort_equals_one_at_a_time(&zeros, &quant, "signed zeros");
    assert_one_sort_equals_one_at_a_time(&[0.0, -0.0, -0.0, 0.0, 0.0, -0.0], &quant, "only zeros");
    assert_one_sort_equals_one_at_a_time(&[0.25], &quant, "one weight");
}

/// The working buffer decodes a blob segment by segment into the shard's
/// matrices; the result is the shard rebuilt from the blob decoded whole.
#[test]
fn working_buffer_assembles_what_from_flat_builds_from_the_whole_decode() {
    for cfg in [ModelConfig::tiny(), ModelConfig::scaled_bert()] {
        let flat = synthetic_shard(&cfg, 17, 1.0).flatten();
        for bw in Bitwidth::ALL {
            let blob = QuantizedBlob::quantize(&flat, bw, &QuantConfig::default());
            let assembled = WorkingBuffer::new(cfg.clone()).assemble(&[&blob]).unwrap();
            let whole = ShardWeights::from_flat(&blob.dequantize(), &cfg);
            assert_eq!(assembled.len(), 1);
            assert_eq!(assembled[0], whole, "{bw}");
            assert_eq!(bits_of(&assembled[0].flatten()), bits_of(&whole.flatten()), "{bw}");
        }
    }
}

/// A packed buffer shorter than the group needs is still refused with the
/// typed error when a blob is reassembled, and a decode of a short stream
/// still panics, fused or not.
#[test]
fn short_packed_buffers_are_refused_as_before() {
    let weights: Vec<f32> = (0..100).map(|i| (i as f32 / 7.0).sin()).collect();
    for bw in Bitwidth::COMPRESSED {
        let blob = QuantizedBlob::quantize(&weights, bw, &QuantConfig::default());
        let needed = bw.payload_bytes(weights.len());
        let short = blob.packed()[..needed - 1].to_vec();
        let rebuilt = QuantizedBlob::from_parts(
            bw,
            weights.len() as u32,
            short.clone(),
            blob.centroids().to_vec(),
            blob.outliers().to_vec(),
        );
        assert_eq!(
            rebuilt.unwrap_err(),
            QuantError::IndexOutOfRange { index: needed - 1, dictionary: needed }
        );
        let message = |decode: &(dyn Fn() + std::panic::RefUnwindSafe)| {
            let payload = std::panic::catch_unwind(decode).expect_err("a short stream must panic");
            payload.downcast_ref::<String>().expect("a formatted panic message").clone()
        };
        let unfused = message(&|| drop(bitpack::unpack(&short, bw.bits(), weights.len())));
        let fused = message(&|| {
            let mut out = vec![0.0f32; weights.len()];
            bitpack::unpack_lookup_into(&short, bw.bits(), 0, blob.centroids(), &mut out);
        });
        assert_eq!(fused, unfused);
        assert!(fused.contains("packed buffer too short"), "{fused}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused decode equals unpack + lookup + patch bit for bit at every
    /// bitwidth, over the whole group and over any sub-range of it, with
    /// outliers sitting on the first and the last weight.
    #[test]
    fn fused_dequantize_equals_unpack_lookup_patch(
        weights in weights_strategy(),
        bits in 0usize..6,
        from in any::<prop::sample::Index>(),
        span in any::<prop::sample::Index>(),
    ) {
        let bw = Bitwidth::ALL[bits];
        let mut weights = weights;
        let last = weights.len() - 1;
        weights[0] = 40.0;
        weights[last] = -40.0;
        let blob = QuantizedBlob::quantize(&weights, bw, &QuantConfig::default());
        if !bw.is_full() {
            let offsets: Vec<u32> = blob.outliers().iter().map(|&(offset, _)| offset).collect();
            prop_assert!(offsets.contains(&0) && offsets.contains(&(last as u32)), "{offsets:?}");
        }
        let expected = unpack_lookup_patch(&blob);
        prop_assert_eq!(expected[0], 40.0);
        prop_assert_eq!(expected[last], -40.0);

        let mut whole = vec![f32::NAN; weights.len()];
        blob.dequantize_into(&mut whole);
        prop_assert_eq!(bits_of(&whole), bits_of(&expected));
        prop_assert_eq!(bits_of(&blob.dequantize()), bits_of(&expected));

        let start = from.index(weights.len());
        let len = span.index(weights.len() - start + 1);
        let mut part = vec![f32::NAN; len];
        blob.dequantize_range_into(start, &mut part);
        prop_assert_eq!(bits_of(&part), bits_of(&expected[start..start + len]));
    }

    /// Quantize → dequantize preserves length and yields finite values.
    #[test]
    fn dequantized_weights_are_finite(weights in weights_strategy(), bits in 0usize..5) {
        let bw = Bitwidth::COMPRESSED[bits];
        let blob = QuantizedBlob::quantize(&weights, bw, &QuantConfig::default());
        let restored = blob.dequantize();
        prop_assert_eq!(restored.len(), weights.len());
        prop_assert!(restored.iter().all(|x| x.is_finite()));
    }

    /// Reconstruction error is bounded by the weight range (equal-population
    /// clustering cannot produce centroids outside the data span).
    #[test]
    fn reconstruction_stays_in_data_range(weights in weights_strategy()) {
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B2, &QuantConfig::default());
        let restored = blob.dequantize();
        let lo = weights.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = weights.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for x in restored {
            prop_assert!(x >= lo - 1e-4 && x <= hi + 1e-4, "{x} outside [{lo}, {hi}]");
        }
    }

    /// Higher bitwidths never reconstruct worse (MSE is non-increasing in k).
    #[test]
    fn error_is_monotone_in_bitwidth(weights in weights_strategy()) {
        let cfg = QuantConfig::default();
        let mut prev = f32::INFINITY;
        for bw in Bitwidth::ALL {
            let blob = QuantizedBlob::quantize(&weights, bw, &cfg);
            let err = stats::mse(&weights, &blob.dequantize());
            // Tiny tolerance: equal-population boundaries can tie.
            prop_assert!(err <= prev + 1e-6, "mse rose from {prev} to {err} at {bw}");
            prev = err;
        }
        prop_assert_eq!(prev, 0.0);
    }

    /// Serialized records round-trip bit-exactly through the storage format.
    #[test]
    fn storage_record_round_trips(weights in weights_strategy(), bits in 0usize..5) {
        let bw = Bitwidth::COMPRESSED[bits];
        let blob = QuantizedBlob::quantize(&weights, bw, &QuantConfig::default());
        let encoded = format::encode_blob(&blob);
        let (decoded, consumed) = format::decode_blob(&encoded).expect("valid record");
        prop_assert_eq!(consumed, encoded.len());
        prop_assert_eq!(decoded, blob);
    }

    /// Any single corrupted byte in a record is detected.
    #[test]
    fn corruption_is_always_detected(
        weights in proptest::collection::vec(-1.0f32..1.0, 32..128),
        corrupt_at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let blob = QuantizedBlob::quantize(&weights, Bitwidth::B4, &QuantConfig::default());
        let mut encoded = format::encode_blob(&blob);
        let idx = corrupt_at.index(encoded.len());
        encoded[idx] ^= flip;
        match format::decode_blob(&encoded) {
            Err(_) => {}
            Ok((decoded, _)) => {
                // A flip that decodes must not silently change the payload.
                prop_assert_eq!(decoded, blob, "corruption at byte {} went unnoticed", idx);
            }
        }
    }
}
