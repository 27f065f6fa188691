//! The store index: which file and offset holds each shard version.

use std::collections::HashMap;

use sti_quant::Bitwidth;
use sti_transformer::{ModelConfig, ShardId};

use crate::error::StorageError;

const MAGIC: u32 = u32::from_le_bytes(*b"STIM");
const VERSION: u8 = 1;

/// Location of one shard record inside its layer file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLoc {
    /// Byte offset of the record within the layer file.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u32,
}

/// The manifest of a shard store: model shape, stored bitwidths, and record
/// locations. Records of one `(layer, bitwidth)` pair live consecutively in
/// one file, in slice order — the co-location that lets a layer load as one
/// sequential IO job.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The model configuration the store was built for.
    pub config: ModelConfig,
    /// The fidelity versions stored (ascending).
    pub bitwidths: Vec<Bitwidth>,
    entries: HashMap<(u16, u8), Vec<RecordLoc>>,
}

impl Manifest {
    /// Creates an empty manifest.
    pub fn new(config: ModelConfig, mut bitwidths: Vec<Bitwidth>) -> Self {
        bitwidths.sort();
        bitwidths.dedup();
        Self { config, bitwidths, entries: HashMap::new() }
    }

    /// The file holding all of `layer`'s shards at `bw`.
    pub fn layer_file_name(layer: u16, bw: Bitwidth) -> String {
        format!("layer_{layer:02}_{:02}bit.stis", bw.bits())
    }

    /// Registers the record locations of one layer file (slice order).
    ///
    /// # Panics
    ///
    /// Panics if the number of locations differs from the configured `M`.
    pub fn insert_layer(&mut self, layer: u16, bw: Bitwidth, locs: Vec<RecordLoc>) {
        assert_eq!(locs.len(), self.config.heads, "layer must register all M slice records");
        self.entries.insert((layer, bw.bits()), locs);
    }

    /// Looks up one shard version.
    pub fn locate(&self, id: ShardId, bw: Bitwidth) -> Option<RecordLoc> {
        self.entries
            .get(&(id.layer, bw.bits()))
            .and_then(|locs| locs.get(id.slice as usize))
            .copied()
    }

    /// Whether the manifest holds every `(layer, slice, bitwidth)` record it
    /// promises.
    pub fn is_complete(&self) -> bool {
        (0..self.config.layers as u16)
            .all(|l| self.bitwidths.iter().all(|&bw| self.entries.contains_key(&(l, bw.bits()))))
    }

    /// Sum of record bytes at one bitwidth.
    pub fn bytes_at(&self, bw: Bitwidth) -> u64 {
        self.entries
            .iter()
            .filter(|((_, bits), _)| *bits == bw.bits())
            .flat_map(|(_, locs)| locs.iter())
            .map(|loc| loc.len as u64)
            .sum()
    }

    /// Sum of all record bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bitwidths.iter().map(|&bw| self.bytes_at(bw)).sum()
    }

    /// Serializes the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        let c = &self.config;
        buf.extend_from_slice(&(c.layers as u16).to_le_bytes());
        buf.extend_from_slice(&(c.heads as u16).to_le_bytes());
        buf.extend_from_slice(&(c.hidden as u32).to_le_bytes());
        buf.extend_from_slice(&(c.ffn as u32).to_le_bytes());
        buf.extend_from_slice(&(c.vocab as u32).to_le_bytes());
        buf.extend_from_slice(&(c.seq_len as u32).to_le_bytes());
        buf.extend_from_slice(&(c.classes as u16).to_le_bytes());
        buf.push(self.bitwidths.len() as u8);
        buf.extend(self.bitwidths.iter().map(|bw| bw.bits()));
        let mut keys: Vec<(u16, u8)> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        buf.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for (layer, bits) in keys {
            buf.extend_from_slice(&layer.to_le_bytes());
            buf.push(bits);
            for loc in &self.entries[&(layer, bits)] {
                buf.extend_from_slice(&loc.offset.to_le_bytes());
                buf.extend_from_slice(&loc.len.to_le_bytes());
            }
        }
        buf
    }

    /// Deserializes a manifest.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Corrupt`] on any structural inconsistency,
    /// bytes after the last entry and a repeated `(layer, bitwidth)` entry
    /// included.
    pub fn decode(bytes: &[u8]) -> Result<Self, StorageError> {
        let mut cur = bytes;
        let need = |cur: &[u8], n: usize, what: &str| {
            if cur.len() < n {
                Err(StorageError::corrupt("manifest", format!("truncated at {what}")))
            } else {
                Ok(())
            }
        };
        need(cur, 5, "header")?;
        if u32::from_le_bytes(next(&mut cur)) != MAGIC {
            return Err(StorageError::corrupt("manifest", "bad magic"));
        }
        if next::<1>(&mut cur)[0] != VERSION {
            return Err(StorageError::corrupt("manifest", "unsupported version"));
        }
        need(cur, 22, "config")?;
        let config = ModelConfig {
            layers: u16::from_le_bytes(next(&mut cur)) as usize,
            heads: u16::from_le_bytes(next(&mut cur)) as usize,
            hidden: u32::from_le_bytes(next(&mut cur)) as usize,
            ffn: u32::from_le_bytes(next(&mut cur)) as usize,
            vocab: u32::from_le_bytes(next(&mut cur)) as usize,
            seq_len: u32::from_le_bytes(next(&mut cur)) as usize,
            classes: u16::from_le_bytes(next(&mut cur)) as usize,
        };
        if config.layers == 0
            || config.heads == 0
            || config.hidden == 0
            || !config.hidden.is_multiple_of(config.heads)
            || !config.ffn.is_multiple_of(config.heads)
        {
            return Err(StorageError::corrupt("manifest", "invalid model config"));
        }
        need(cur, 1, "bitwidth count")?;
        let nbw = next::<1>(&mut cur)[0] as usize;
        need(cur, nbw, "bitwidths")?;
        let mut bitwidths = Vec::with_capacity(nbw);
        for _ in 0..nbw {
            let bits = next::<1>(&mut cur)[0];
            bitwidths.push(
                Bitwidth::try_from(bits)
                    .map_err(|e| StorageError::corrupt("manifest", e.to_string()))?,
            );
        }
        need(cur, 4, "entry count")?;
        let nentries = u32::from_le_bytes(next(&mut cur)) as usize;
        let per_entry = 3 + config.heads * 12;
        need(cur, nentries * per_entry, "entries")?;
        let mut entries = HashMap::with_capacity(nentries);
        for _ in 0..nentries {
            let layer = u16::from_le_bytes(next(&mut cur));
            let bits = next::<1>(&mut cur)[0];
            let locs: Vec<RecordLoc> = (0..config.heads)
                .map(|_| RecordLoc {
                    offset: u64::from_le_bytes(next(&mut cur)),
                    len: u32::from_le_bytes(next(&mut cur)),
                })
                .collect();
            if layer as usize >= config.layers {
                return Err(StorageError::corrupt("manifest", "entry layer out of range"));
            }
            if entries.insert((layer, bits), locs).is_some() {
                return Err(StorageError::corrupt("manifest", "repeated (layer, bitwidth) entry"));
            }
        }
        if !cur.is_empty() {
            return Err(StorageError::corrupt("manifest", "trailing bytes after the last entry"));
        }
        Ok(Self { config, bitwidths, entries })
    }
}

/// Splits the next `N` bytes off `cur`; the caller has checked they are
/// there.
fn next<const N: usize>(cur: &mut &[u8]) -> [u8; N] {
    let (head, rest) = cur.split_first_chunk().expect("length checked before reading");
    *cur = rest;
    *head
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let cfg = ModelConfig::tiny();
        let mut m = Manifest::new(cfg.clone(), vec![Bitwidth::B6, Bitwidth::B2, Bitwidth::B2]);
        for l in 0..cfg.layers as u16 {
            for bw in [Bitwidth::B2, Bitwidth::B6] {
                let locs = (0..cfg.heads)
                    .map(|s| RecordLoc { offset: s as u64 * 100, len: 100 })
                    .collect();
                m.insert_layer(l, bw, locs);
            }
        }
        m
    }

    #[test]
    fn bitwidths_are_sorted_and_deduped() {
        let m = sample();
        assert_eq!(m.bitwidths, vec![Bitwidth::B2, Bitwidth::B6]);
    }

    #[test]
    fn locate_finds_registered_records() {
        let m = sample();
        let loc = m.locate(ShardId::new(1, 2), Bitwidth::B6).unwrap();
        assert_eq!(loc, RecordLoc { offset: 200, len: 100 });
        assert!(m.locate(ShardId::new(0, 0), Bitwidth::B4).is_none());
        assert!(m.locate(ShardId::new(9, 0), Bitwidth::B2).is_none());
    }

    #[test]
    fn completeness_detects_gaps() {
        let m = sample();
        assert!(m.is_complete());
        let cfg = ModelConfig::tiny();
        let partial = Manifest::new(cfg, vec![Bitwidth::B2]);
        assert!(!partial.is_complete());
    }

    #[test]
    fn encode_decode_round_trips() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn decode_rejects_corruption() {
        let m = sample();
        let mut bytes = m.encode();
        bytes[0] = 0;
        assert!(Manifest::decode(&bytes).is_err());

        let bytes = m.encode();
        for cut in 0..bytes.len() {
            let err = Manifest::decode(&bytes[..cut]).expect_err("a prefix must not decode");
            assert!(matches!(err, StorageError::Corrupt { .. }), "cut at {cut}: {err}");
        }
    }

    /// Lower-case hex to bytes.
    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("a hex byte"))
            .collect()
    }

    /// One entry of `sample()`: the key, then slice `s` at offset `100·s`,
    /// length 100.
    macro_rules! sample_entry {
        ($key:literal) => {
            concat!(
                $key,
                "000000000000000064000000",
                "640000000000000064000000",
                "c80000000000000064000000",
                "2c0100000000000064000000",
            )
        };
    }

    #[test]
    fn sample_encodes_to_pinned_bytes() {
        // Pinned bytes: a change here is a format change (bump VERSION).
        let pinned = unhex(concat!(
            "5354494d", // magic "STIM"
            "01",       // version
            "0200",     // layers
            "0400",     // heads
            "20000000", // hidden
            "40000000", // ffn
            "40000000", // vocab
            "08000000", // seq_len
            "0200",     // classes
            "020206",   // bitwidths: count, then 2 and 6
            "04000000", // entry count
            sample_entry!("000002"),
            sample_entry!("000006"),
            sample_entry!("010002"),
            sample_entry!("010006"),
        ));
        assert_eq!(sample().encode(), pinned);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = sample().encode();
        bytes.push(0);
        let err = Manifest::decode(&bytes).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn decode_rejects_a_repeated_entry() {
        // Re-key the second entry, (0, 6bit), as the first, (0, 2bit).
        let mut bytes = sample().encode();
        let second_entry = 34 + (3 + ModelConfig::tiny().heads * 12);
        assert_eq!(bytes[second_entry..second_entry + 3], [0, 0, 6]);
        bytes[second_entry + 2] = 2;
        let err = Manifest::decode(&bytes).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
        assert!(err.to_string().contains("repeated"), "{err}");
    }

    #[test]
    fn byte_accounting_sums_records() {
        let m = sample();
        let cfg = ModelConfig::tiny();
        let per_bw = (cfg.layers * cfg.heads * 100) as u64;
        assert_eq!(m.bytes_at(Bitwidth::B2), per_bw);
        assert_eq!(m.total_bytes(), per_bw * 2);
    }

    #[test]
    fn file_names_are_deterministic() {
        assert_eq!(Manifest::layer_file_name(3, Bitwidth::B2), "layer_03_02bit.stis");
        assert_eq!(Manifest::layer_file_name(11, Bitwidth::Full), "layer_11_32bit.stis");
    }
}
