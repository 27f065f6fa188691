//! Binary record encoding for quantized shards.
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! magic   u32   "STIS"
//! version u8
//! body          a QuantizedBlob's bytes: header, packed, centroids, outliers
//! check   u64   word-folded FNV-1a of everything above
//! ```
//!
//! The body is laid out where [`QuantizedBlob`] documents it, and
//! [`CodedView`] is its one parser. This module does the framing only:
//! magic, version, checksum.
//!
//! One version is decoded. Version 1 (byte-serial FNV-1a) is refused as
//! "unsupported version": a store is rebuilt from its model, never migrated.

use sti_quant::{CodedView, QuantizedBlob, BODY_HEADER};

use crate::error::StorageError;

const MAGIC: u32 = u32::from_le_bytes(*b"STIS");
const VERSION: u8 = 2;
/// Bytes before a record's body: magic and version.
const LEAD: usize = 4 + 1;

/// Bytes a record adds around its blob's payload (lead, body header and
/// checksum): `record length = QuantizedBlob::byte_size() + RECORD_OVERHEAD`.
pub const RECORD_OVERHEAD: usize = LEAD + BODY_HEADER + 8;

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

/// Encodes a blob into a self-contained checksummed record: its body,
/// framed.
pub fn encode_blob(blob: &QuantizedBlob) -> Vec<u8> {
    let body = blob.view().body();
    let mut buf = Vec::with_capacity(LEAD + body.len() + 8);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    buf.extend_from_slice(body);
    let check = checksum(&buf);
    buf.extend_from_slice(&check.to_le_bytes());
    buf
}

/// Decodes one record from the front of `bytes`, returning the blob and the
/// number of bytes consumed: [`decode_view`]'s view, its body copied once
/// into a blob of its own.
///
/// # Errors
///
/// As [`decode_view`].
pub fn decode_blob(bytes: &[u8]) -> Result<(QuantizedBlob, usize), StorageError> {
    let (view, total) = decode_view(bytes)?;
    Ok((QuantizedBlob::from(view), total))
}

/// Verifies one record at the front of `bytes` and returns a view of its
/// body over those bytes, with the number of bytes the record takes.
/// Nothing is copied: a deferred shard is decoded from its record buffer
/// through the view ([`CodedView::dequantize_range_into`]).
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] on bad magic, version, truncation, or
/// checksum mismatch, and [`StorageError::Quant`] if the body is
/// internally inconsistent.
pub fn decode_view(bytes: &[u8]) -> Result<(CodedView<'_>, usize), StorageError> {
    let (body, total) = frame(bytes)?;
    let checked = total - 8;
    let expected = checksum(&bytes[..checked]);
    let stored =
        u64::from_le_bytes(bytes[checked..total].try_into().expect("checksum slice is 8 bytes"));
    if expected != stored {
        return Err(StorageError::corrupt(
            "shard record",
            format!("checksum mismatch: stored {stored:#x}, computed {expected:#x}"),
        ));
    }
    Ok((CodedView::parse(body)?, total))
}

/// [`decode_view`] of a record it has already accepted, without verifying
/// the bytes or checking the body again: how a record read into a
/// consumer's buffer is decoded each time the consumer reaches one of its
/// halves.
///
/// # Panics
///
/// Panics if `bytes` does not start with a record [`decode_view`] accepts.
pub fn verified_view(bytes: &[u8]) -> CodedView<'_> {
    let (body, _) = frame(bytes).expect("a record decode_view accepted");
    CodedView::verified(body)
}

/// The body of the record at the front of `bytes` and the record's whole
/// length, checksum included, as its lead and body header declare them,
/// checked against what was read.
fn frame(bytes: &[u8]) -> Result<(&[u8], usize), StorageError> {
    if bytes.len() < LEAD + BODY_HEADER {
        return Err(StorageError::corrupt("shard record", "truncated header"));
    }
    let magic = u32::from_le_bytes(bytes[..4].try_into().expect("a 4-byte slice"));
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
    // Lengths come from the record: sum them where they cannot wrap and
    // bound them by what was read before slicing.
    let body = CodedView::declared_len(&bytes[LEAD..]).expect("a whole body header was read");
    let checked = LEAD as u64 + body;
    if (bytes.len() as u64) < checked + 8 {
        return Err(StorageError::corrupt(
            "shard record",
            format!("truncated body: have {}, need {}", bytes.len(), checked + 8),
        ));
    }
    let checked = checked as usize;
    Ok((&bytes[LEAD..checked], checked + 8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_quant::{Bitwidth, QuantConfig};
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

    /// A record written field by field, as the layout above lists it.
    fn record_of(blob: &QuantizedBlob) -> Vec<u8> {
        let view = blob.view();
        let mut record = MAGIC.to_le_bytes().to_vec();
        record.push(VERSION);
        record.push(view.bitwidth().bits());
        record.extend_from_slice(&(view.len() as u32).to_le_bytes());
        record.extend_from_slice(&(view.packed().len() as u32).to_le_bytes());
        record.extend_from_slice(&(view.centroids().len() as u16).to_le_bytes());
        record.extend_from_slice(&(view.outliers().len() as u32).to_le_bytes());
        record.extend_from_slice(view.packed());
        record.extend(view.centroids().flat_map(f32::to_le_bytes));
        for (at, value) in view.outliers() {
            record.extend_from_slice(&at.to_le_bytes());
            record.extend_from_slice(&value.to_le_bytes());
        }
        let check = checksum(&record);
        record.extend_from_slice(&check.to_le_bytes());
        record
    }

    /// A blob's bytes are its record's body, at every bitwidth and for a
    /// blob with no outliers: the record is the field-by-field one, and
    /// its bytes between the version and the checksum are the blob's.
    #[test]
    fn a_blobs_bytes_are_its_records_body() {
        let mut rng = Rng::new(12);
        let mut weights = vec![0.0f32; 601];
        rng.fill_gaussian(&mut weights, 0.0, 0.1);
        weights[9] = 2.5;
        let spread: Vec<f32> = (0..601).map(|i| (i % 41) as f32 / 200.0 - 0.1).collect();
        let quant = QuantConfig::default();
        let mut blobs = QuantizedBlob::quantize_all(&weights, &Bitwidth::ALL, &quant);
        blobs.extend(QuantizedBlob::quantize_all(&spread, &Bitwidth::ALL, &quant));
        for blob in &blobs {
            let bw = blob.bitwidth();
            let outliers = blob.view().outliers().len();
            let record = encode_blob(blob);
            assert_eq!(record, record_of(blob), "{bw}, {outliers} outliers");
            assert_eq!(&record[LEAD..record.len() - 8], blob.view().body(), "{bw}");
            assert_eq!(record.len(), blob.byte_size() + RECORD_OVERHEAD, "{bw}");
            assert_eq!(verified_view(&record).body(), blob.view().body(), "{bw}");
        }
        let counts = blobs.iter().map(|b| (b.bitwidth(), b.view().outliers().len() > 0));
        let counts: Vec<(Bitwidth, bool)> = counts.collect();
        for bw in Bitwidth::COMPRESSED {
            assert!(counts.contains(&(bw, true)) && counts.contains(&(bw, false)), "{bw}");
        }
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
