//! Packing of k-bit indexes into a byte stream.
//!
//! Indexes are written little-endian within a growing bit cursor: index `i`
//! occupies bits `[i·k, (i+1)·k)` of the stream, low bits first. This keeps
//! pack/unpack branch-free per element and independent of platform endianness.

/// Packs `values` as consecutive `bits`-wide little-endian fields.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 16, or if any value does not fit in
/// `bits` bits.
pub fn pack(values: &[u16], bits: u8) -> Vec<u8> {
    let mut out = vec![0u8; (values.len() * bits as usize).div_ceil(8)];
    pack_into(values, bits, &mut out);
    out
}

/// [`pack`] into `out`, which must be zeroed and hold at least the packed
/// bytes: how a coded shard's body is written in place.
///
/// # Panics
///
/// As [`pack`], or if `out` is too short.
pub fn pack_into(values: &[u16], bits: u8, out: &mut [u8]) {
    assert!((1..=16).contains(&bits), "pack supports 1..=16 bits, got {bits}");
    let mask = (1u32 << bits) - 1;
    let mut bit_pos = 0usize;
    for &v in values {
        assert!((v as u32) <= mask, "value {v} does not fit in {bits} bits");
        let byte = bit_pos / 8;
        let shift = bit_pos % 8;
        let chunk = (v as u32) << shift;
        out[byte] |= (chunk & 0xFF) as u8;
        if shift + bits as usize > 8 {
            out[byte + 1] |= ((chunk >> 8) & 0xFF) as u8;
        }
        if shift + bits as usize > 16 {
            out[byte + 2] |= ((chunk >> 16) & 0xFF) as u8;
        }
        bit_pos += bits as usize;
    }
}

/// Unpacks `count` consecutive `bits`-wide fields from `bytes`.
///
/// # Panics
///
/// Panics if `bits` is out of range or `bytes` is too short for `count`
/// fields.
pub fn unpack(bytes: &[u8], bits: u8, count: usize) -> Vec<u16> {
    let mut out = vec![0u16; count];
    unpack_into(bytes, bits, &mut out);
    out
}

/// Unpacks into a caller-provided slice (length = field count).
///
/// This is the hot path of shard decompression; it avoids re-allocating the
/// index buffer for every layer.
///
/// # Panics
///
/// Panics if `bits` is out of range or `bytes` is too short.
pub fn unpack_into(bytes: &[u8], bits: u8, out: &mut [u16]) {
    assert!((1..=16).contains(&bits), "unpack supports 1..=16 bits, got {bits}");
    let needed = (out.len() * bits as usize).div_ceil(8);
    assert!(bytes.len() >= needed, "packed buffer too short: {} bytes, need {needed}", bytes.len());
    let mask = (1u32 << bits) - 1;
    let mut bit_pos = 0usize;
    for slot in out.iter_mut() {
        let byte = bit_pos / 8;
        let shift = bit_pos % 8;
        let mut chunk = bytes[byte] as u32 >> shift;
        if shift + bits as usize > 8 {
            chunk |= (bytes[byte + 1] as u32) << (8 - shift);
        }
        if shift + bits as usize > 16 {
            chunk |= (bytes[byte + 2] as u32) << (16 - shift);
        }
        *slot = (chunk & mask) as u16;
        bit_pos += bits as usize;
    }
}

/// Decodes fields `[first, first + out.len())` of a packed stream straight
/// to table entries: `out[i] = table[field(first + i)]`.
///
/// This is [`unpack_into`] fused with the dictionary lookup that follows it
/// in shard decompression, so no index buffer exists in between: each load
/// takes a 64-bit little-endian window of the stream — a window starts at
/// most 7 bits into its first byte, so it holds at least `57 / bits` whole
/// fields — and the fields are shifted out of it one after the other.
///
/// # Panics
///
/// Panics if `bits` is out of range, `table` does not hold exactly
/// `2^bits` entries, or `bytes` is too short for the fields asked for.
pub fn unpack_lookup_into(bytes: &[u8], bits: u8, first: usize, table: &[f32], out: &mut [f32]) {
    assert!((1..=16).contains(&bits), "unpack supports 1..=16 bits, got {bits}");
    let bits = bits as usize;
    assert_eq!(table.len(), 1 << bits, "lookup table must hold one entry per field value");
    let needed = ((first + out.len()) * bits).div_ceil(8);
    assert!(bytes.len() >= needed, "packed buffer too short: {} bytes, need {needed}", bytes.len());
    let mask = (1u64 << bits) - 1;
    let mut bit_pos = first * bits;
    for fields in out.chunks_mut(57 / bits) {
        let rest = &bytes[bit_pos / 8..];
        let mut window = match rest.first_chunk::<8>() {
            Some(whole) => u64::from_le_bytes(*whole),
            None => {
                let mut padded = [0u8; 8];
                padded[..rest.len()].copy_from_slice(rest);
                u64::from_le_bytes(padded)
            }
        } >> (bit_pos % 8);
        for slot in fields.iter_mut() {
            *slot = table[(window & mask) as usize];
            window >>= bits;
        }
        bit_pos += fields.len() * bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_simple() {
        let values = vec![0u16, 1, 2, 3, 3, 2, 1, 0];
        let packed = pack(&values, 2);
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack(&packed, 2, values.len()), values);
    }

    #[test]
    fn round_trip_odd_bitwidths() {
        for bits in [3u8, 5, 6, 7] {
            let max = (1u16 << bits) - 1;
            let values: Vec<u16> = (0..97).map(|i| (i * 31) as u16 % (max + 1)).collect();
            let packed = pack(&values, bits);
            assert_eq!(unpack(&packed, bits, values.len()), values, "bits={bits}");
        }
    }

    #[test]
    fn packed_size_matches_formula() {
        let values = vec![1u16; 100];
        assert_eq!(pack(&values, 3).len(), (100 * 3usize).div_ceil(8));
        assert_eq!(pack(&values, 5).len(), (100 * 5usize).div_ceil(8));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_values() {
        let _ = pack(&[4], 2);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unpack_rejects_short_buffers() {
        let _ = unpack(&[0u8; 1], 6, 10);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unpack_lookup_rejects_short_buffers() {
        unpack_lookup_into(&[0u8; 7], 6, 0, &[0.0; 64], &mut [0.0; 10]);
    }

    #[test]
    #[should_panic(expected = "one entry per field value")]
    fn unpack_lookup_rejects_a_table_of_the_wrong_size() {
        unpack_lookup_into(&[0u8; 8], 3, 0, &[0.0; 7], &mut [0.0; 4]);
    }

    #[test]
    fn empty_input_round_trips() {
        let packed = pack(&[], 4);
        assert!(packed.is_empty());
        assert!(unpack(&packed, 4, 0).is_empty());
    }

    proptest! {
        #[test]
        fn prop_round_trip(values in proptest::collection::vec(0u16..64, 0..512), bits in 6u8..=6) {
            let packed = pack(&values, bits);
            prop_assert_eq!(unpack(&packed, bits, values.len()), values);
        }

        /// The fused decode of any range equals `unpack` followed by the
        /// table lookup, for streams that end inside, at the end of and long
        /// after the last 64-bit window.
        #[test]
        fn prop_unpack_lookup_equals_unpack_then_lookup(
            bits in 1u8..=12,
            len in 0usize..300,
            first in 0usize..40,
            spare_bytes in 0usize..9,
            seed in any::<u64>(),
        ) {
            let values: Vec<u16> = (0..len as u64)
                .map(|i| (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as u16 >> (12 - bits))
                .collect();
            let mut packed = pack(&values, bits);
            packed.resize(packed.len() + spare_bytes, 0xA5);
            let table: Vec<f32> = (0..1u32 << bits).map(|i| i as f32 * 0.5 - 3.0).collect();
            let first = first.min(len);
            let mut fused = vec![f32::NAN; len - first];
            unpack_lookup_into(&packed, bits, first, &table, &mut fused);
            let expected: Vec<f32> =
                unpack(&packed, bits, len)[first..].iter().map(|&i| table[i as usize]).collect();
            prop_assert_eq!(fused, expected);
        }

        #[test]
        fn prop_round_trip_any_bitwidth(bits in 1u8..=12, len in 0usize..300, seed in any::<u64>()) {
            let max = (1u32 << bits) as u64;
            let values: Vec<u16> = (0..len)
                .map(|i| ((seed.wrapping_mul(6364136223846793005).wrapping_add((i as u64).wrapping_mul(1442695040888963407))) % max) as u16)
                .collect();
            let packed = pack(&values, bits);
            prop_assert_eq!(unpack(&packed, bits, values.len()), values);
        }
    }
}
