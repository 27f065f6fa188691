//! Binary record encoding for quantized shards.
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! magic   u32   "STIS"
//! version u8
//! bits    u8    bitwidth (2..6 or 32)
//! len     u32   weight count
//! plen    u32   packed payload bytes
//! ccount  u16   centroid count
//! ocount  u32   outlier count
//! packed  [u8; plen]
//! centroids [f32; ccount]
//! outliers  [(u32, f32); ocount]
//! check   u64   word-folded FNV-1a of everything above
//! ```
//!
//! One version is decoded. Version 1 (byte-serial FNV-1a) is refused as
//! "unsupported version": a store is rebuilt from its model, never migrated.

use sti_quant::{Bitwidth, CodedView, QuantizedBlob};

use crate::error::StorageError;

const MAGIC: u32 = u32::from_le_bytes(*b"STIS");
const VERSION: u8 = 2;
const HEADER: usize = 4 + 1 + 1 + 4 + 4 + 2 + 4;

/// Bytes a record adds around its blob's payload (header plus checksum):
/// `record length = QuantizedBlob::byte_size() + RECORD_OVERHEAD`.
pub const RECORD_OVERHEAD: usize = HEADER + 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The record checksum: FNV-1a folded eight little-endian bytes per step
/// (the tail byte by byte), seeded with the length so a word step and a
/// byte step of equal value cannot stand in for each other.
///
/// Each step is `h ← (h ⊕ w) · prime` with an odd prime: a bijection of `h`
/// for a fixed `w` and of `w` for a fixed `h`. A change confined to one
/// word therefore changes the hash after that word's step, and no later
/// step can undo it — every single-bit flip is detected. Reading a shard
/// verifies every byte it returns, and one multiply per byte was ~90 % of
/// the host cost of a disk load; this chain is an eighth as long.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = (FNV_OFFSET ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Encodes a blob into a self-contained checksummed record.
pub fn encode_blob(blob: &QuantizedBlob) -> Vec<u8> {
    let mut buf = Vec::with_capacity(blob.byte_size() + RECORD_OVERHEAD);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    buf.push(blob.bitwidth().bits());
    buf.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(blob.packed().len() as u32).to_le_bytes());
    buf.extend_from_slice(&(blob.centroids().len() as u16).to_le_bytes());
    buf.extend_from_slice(&(blob.outliers().len() as u32).to_le_bytes());
    buf.extend_from_slice(blob.packed());
    for &c in blob.centroids() {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    for &(off, val) in blob.outliers() {
        buf.extend_from_slice(&off.to_le_bytes());
        buf.extend_from_slice(&val.to_le_bytes());
    }
    let check = checksum(&buf);
    buf.extend_from_slice(&check.to_le_bytes());
    buf
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a 4-byte slice"))
}

/// Decodes one record from the front of `bytes`, returning the blob and the
/// number of bytes consumed: [`decode_view`]'s view, copied into a payload
/// of its own.
///
/// # Errors
///
/// As [`decode_view`].
pub fn decode_blob(bytes: &[u8]) -> Result<(QuantizedBlob, usize), StorageError> {
    let (view, total) = decode_view(bytes)?;
    Ok((view.to_blob(), total))
}

/// Verifies one record at the front of `bytes` and returns a view of its
/// coded weights over those bytes, with the number of bytes the record
/// takes. Nothing is copied: a deferred shard is decoded from its record
/// buffer through the view ([`CodedView::dequantize_range_into`]).
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] on bad magic, version, truncation, or
/// checksum mismatch, and [`StorageError::Quant`] if the payload is
/// internally inconsistent.
pub fn decode_view(bytes: &[u8]) -> Result<(CodedView<'_>, usize), StorageError> {
    let layout = Layout::of(bytes)?;
    let expected = checksum(&bytes[..layout.checked]);
    let stored = u64::from_le_bytes(
        bytes[layout.checked..layout.total].try_into().expect("checksum slice is 8 bytes"),
    );
    if expected != stored {
        return Err(StorageError::corrupt(
            "shard record",
            format!("checksum mismatch: stored {stored:#x}, computed {expected:#x}"),
        ));
    }
    Ok((layout.view(bytes)?, layout.total))
}

/// [`decode_view`] of a record it has already accepted, without verifying
/// the bytes again: how a record read into a consumer's buffer is decoded
/// each time the consumer reaches one of its halves.
///
/// # Panics
///
/// Panics if `bytes` does not start with a record [`decode_view`] accepts.
pub fn verified_view(bytes: &[u8]) -> CodedView<'_> {
    Layout::of(bytes).and_then(|layout| layout.view(bytes)).expect("a record decode_view accepted")
}

/// Where a record's parts sit, read from its header.
struct Layout {
    bitwidth: Bitwidth,
    len: u32,
    plen: usize,
    ccount: usize,
    /// Bytes the checksum covers: the header and the three parts.
    checked: usize,
    /// The record's whole length, checksum included.
    total: usize,
}

impl Layout {
    /// The layout `bytes`' header declares, checked against what was read.
    fn of(bytes: &[u8]) -> Result<Self, StorageError> {
        if bytes.len() < HEADER {
            return Err(StorageError::corrupt("shard record", "truncated header"));
        }
        let magic = u32_at(bytes, 0);
        if magic != MAGIC {
            return Err(StorageError::corrupt("shard record", format!("bad magic {magic:#x}")));
        }
        let version = bytes[4];
        if version != VERSION {
            return Err(StorageError::corrupt(
                "shard record",
                format!("unsupported version {version}"),
            ));
        }
        let bitwidth = Bitwidth::try_from(bytes[5])
            .map_err(|e| StorageError::corrupt("shard record", e.to_string()))?;
        let len = u32_at(bytes, 6);
        let plen = u32_at(bytes, 10) as u64;
        let ccount = u16::from_le_bytes([bytes[14], bytes[15]]) as u64;
        let ocount = u32_at(bytes, 16) as u64;

        // Lengths come from the record: sum them where they cannot wrap and
        // bound them by what was read before slicing.
        let checked = HEADER as u64 + plen + ccount * 4 + ocount * 8;
        if (bytes.len() as u64) < checked + 8 {
            return Err(StorageError::corrupt(
                "shard record",
                format!("truncated body: have {}, need {}", bytes.len(), checked + 8),
            ));
        }
        let (plen, ccount, checked) = (plen as usize, ccount as usize, checked as usize);
        Ok(Self { bitwidth, len, plen, ccount, checked, total: checked + 8 })
    }

    /// The coded weights over `bytes`, the record this layout was read from.
    fn view<'a>(&self, bytes: &'a [u8]) -> Result<CodedView<'a>, StorageError> {
        let (packed, tables) = bytes[HEADER..self.checked].split_at(self.plen);
        let (centroids, outliers) = tables.split_at(self.ccount * 4);
        Ok(CodedView::new(self.bitwidth, self.len, packed, centroids, outliers)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_quant::QuantConfig;
    use sti_tensor::Rng;

    fn sample_blob(bw: Bitwidth) -> QuantizedBlob {
        let mut rng = Rng::new(9);
        let mut w = vec![0.0f32; 600];
        rng.fill_gaussian(&mut w, 0.0, 0.1);
        w[5] = 2.0;
        QuantizedBlob::quantize(&w, bw, &QuantConfig::default())
    }

    #[test]
    fn round_trip_all_bitwidths() {
        for bw in Bitwidth::ALL {
            let blob = sample_blob(bw);
            let encoded = encode_blob(&blob);
            let (decoded, consumed) = decode_blob(&encoded).unwrap();
            assert_eq!(decoded, blob, "round trip failed at {bw}");
            assert_eq!(consumed, encoded.len());
        }
    }

    #[test]
    fn concatenated_records_decode_sequentially() {
        let a = sample_blob(Bitwidth::B2);
        let b = sample_blob(Bitwidth::B6);
        let mut stream = encode_blob(&a);
        stream.extend_from_slice(&encode_blob(&b));
        let (da, used) = decode_blob(&stream).unwrap();
        let (db, _) = decode_blob(&stream[used..]).unwrap();
        assert_eq!(da, a);
        assert_eq!(db, b);
    }

    #[test]
    fn detects_bit_flips() {
        let blob = sample_blob(Bitwidth::B4);
        let mut encoded = encode_blob(&blob);
        let mid = encoded.len() / 2;
        encoded[mid] ^= 0x40;
        let err = decode_blob(&encoded).unwrap_err();
        assert!(err.to_string().contains("checksum") || err.to_string().contains("corrupt"));
    }

    #[test]
    fn detects_truncation() {
        let encoded = encode_blob(&sample_blob(Bitwidth::B3));
        for cut in 0..encoded.len() {
            let err = decode_blob(&encoded[..cut]).expect_err("a prefix must not decode");
            assert!(matches!(err, StorageError::Corrupt { .. }), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn detects_bad_magic_and_version() {
        let blob = sample_blob(Bitwidth::B2);
        let mut encoded = encode_blob(&blob);
        encoded[0] = b'X';
        assert!(decode_blob(&encoded).is_err());

        let mut encoded = encode_blob(&blob);
        encoded[4] = 99; // version
        assert!(decode_blob(&encoded).is_err());
    }

    #[test]
    fn checksum_is_stable_and_length_seeded() {
        // Pinned values: a change to the fold is a format change (bump VERSION).
        assert_eq!(checksum(b""), FNV_OFFSET.wrapping_mul(FNV_PRIME));
        assert_eq!(checksum(b"a"), 0x082f_4307_b4e8_c4d7);
        assert_eq!(checksum(b"12345678"), 0x5850_fdc9_cc9a_2bf2);
        assert_eq!(checksum(b"123456789"), 0x96d6_e7e6_9a9f_4182);
        // One word step and one byte step of equal value differ by length.
        assert_ne!(checksum(&[7]), checksum(&[7, 0, 0, 0, 0, 0, 0, 0]));
    }

    /// A small record whose length is not a multiple of eight, so the flips
    /// below cross header, word steps, tail bytes and the stored checksum.
    fn small_record() -> Vec<u8> {
        let mut rng = Rng::new(4);
        let mut w = vec![0.0f32; 50];
        rng.fill_gaussian(&mut w, 0.0, 0.1);
        w[7] = 3.0;
        let record =
            encode_blob(&QuantizedBlob::quantize(&w, Bitwidth::B3, &QuantConfig::default()));
        assert_ne!((record.len() - 8) % 8, 0, "the checked span must end in tail bytes");
        record
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let record = small_record();
        assert!(decode_blob(&record).is_ok());
        for bit in 0..record.len() * 8 {
            let mut flipped = record.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = decode_blob(&flipped).expect_err("a flipped bit must not decode");
            assert!(
                matches!(err, StorageError::Corrupt { .. }),
                "bit {bit} of {}: {err}",
                record.len() * 8
            );
        }
    }

    #[test]
    fn a_version_one_record_is_unsupported_not_decoded() {
        // What the version-1 writer produced: same layout, byte-serial FNV-1a.
        let mut record = small_record();
        let checked = record.len() - 8;
        record[4] = 1;
        let mut hash = FNV_OFFSET;
        for &b in &record[..checked] {
            hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        record[checked..].copy_from_slice(&hash.to_le_bytes());
        let err = decode_blob(&record).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
        assert!(err.to_string().contains("unsupported version 1"), "{err}");
    }

    /// Lower-case hex to bytes.
    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("a hex byte"))
            .collect()
    }

    #[test]
    fn a_fixed_blob_encodes_to_pinned_bytes() {
        // Pinned bytes: a change here is a format change (bump VERSION).
        let blob = QuantizedBlob::from_parts(
            Bitwidth::B2,
            8,
            vec![0b1110_0100, 0b0001_1011],
            vec![-0.5, -0.125, 0.125, 0.5],
            vec![(3, 1.5)],
        )
        .unwrap();
        let pinned = unhex(concat!(
            "53544953",         // magic "STIS"
            "02",               // version
            "02",               // bits
            "08000000",         // len
            "02000000",         // plen
            "0400",             // ccount
            "01000000",         // ocount
            "e41b",             // packed
            "000000bf000000be", // centroids -0.5, -0.125
            "0000003e0000003f", // centroids 0.125, 0.5
            "030000000000c03f", // outlier (3, 1.5)
            "04d0b36c5b3e6e15", // check
        ));
        assert_eq!(encode_blob(&blob), pinned);
        assert_eq!(decode_blob(&pinned).unwrap(), (blob, pinned.len()));
    }

    #[test]
    fn a_truncated_checksum_is_a_typed_error() {
        let record = small_record();
        for missing in 1..=8 {
            let err = decode_blob(&record[..record.len() - missing]).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt { .. }));
            assert!(err.to_string().contains("truncated body"), "{err}");
        }
    }
}
