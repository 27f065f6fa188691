//! The fidelity axis: supported shard bitwidths.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::QuantError;

/// A supported shard bitwidth.
///
/// The paper stores each shard in `K` compressed fidelity versions of 2–6
/// bits plus the uncompressed 32-bit original (§4.2: *"N×M×K shards (e.g.
/// N=M=12, K=2…6, 32)"*). Bitwidths outside this set are rejected at
/// construction, so a `Bitwidth` value is always valid.
///
/// ```
/// use sti_quant::Bitwidth;
///
/// assert_eq!(Bitwidth::B4.bits(), 4);
/// assert!(Bitwidth::Full.is_full());
/// assert_eq!(Bitwidth::try_from(6).unwrap(), Bitwidth::B6);
/// assert!(Bitwidth::try_from(7).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Bitwidth {
    /// 2-bit dictionary indexes (16× smaller than FP32).
    B2,
    /// 3-bit dictionary indexes.
    B3,
    /// 4-bit dictionary indexes.
    B4,
    /// 5-bit dictionary indexes.
    B5,
    /// 6-bit dictionary indexes (the paper's highest *quantized* fidelity).
    B6,
    /// Uncompressed 32-bit floats (full fidelity).
    Full,
}

impl Bitwidth {
    /// All supported bitwidths in ascending fidelity order.
    pub const ALL: [Bitwidth; 6] =
        [Bitwidth::B2, Bitwidth::B3, Bitwidth::B4, Bitwidth::B5, Bitwidth::B6, Bitwidth::Full];

    /// The compressed bitwidths only (excludes [`Bitwidth::Full`]).
    pub const COMPRESSED: [Bitwidth; 5] =
        [Bitwidth::B2, Bitwidth::B3, Bitwidth::B4, Bitwidth::B5, Bitwidth::B6];

    /// The smallest supported bitwidth (2-bit).
    pub const MIN: Bitwidth = Bitwidth::B2;

    /// Number of bits per stored weight index.
    pub fn bits(self) -> u8 {
        match self {
            Bitwidth::B2 => 2,
            Bitwidth::B3 => 3,
            Bitwidth::B4 => 4,
            Bitwidth::B5 => 5,
            Bitwidth::B6 => 6,
            Bitwidth::Full => 32,
        }
    }

    /// Whether this is the uncompressed full-fidelity representation.
    pub fn is_full(self) -> bool {
        matches!(self, Bitwidth::Full)
    }

    /// Number of dictionary centroids (`2^k`).
    ///
    /// # Panics
    ///
    /// Panics when called on [`Bitwidth::Full`], which has no dictionary.
    pub fn centroid_count(self) -> usize {
        assert!(!self.is_full(), "full-fidelity shards have no centroid dictionary");
        1usize << self.bits()
    }

    /// Bytes needed to store `len` weights at this bitwidth, *excluding*
    /// dictionary and outlier overhead (those are accounted by the blob).
    pub fn payload_bytes(self, len: usize) -> usize {
        if self.is_full() {
            len * 4
        } else {
            (len * self.bits() as usize).div_ceil(8)
        }
    }
}

impl TryFrom<u8> for Bitwidth {
    type Error = QuantError;

    fn try_from(bits: u8) -> Result<Self, QuantError> {
        match bits {
            2 => Ok(Bitwidth::B2),
            3 => Ok(Bitwidth::B3),
            4 => Ok(Bitwidth::B4),
            5 => Ok(Bitwidth::B5),
            6 => Ok(Bitwidth::B6),
            32 => Ok(Bitwidth::Full),
            other => Err(QuantError::UnsupportedBitwidth(other)),
        }
    }
}

impl fmt::Display for Bitwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_full() {
            write!(f, "full")
        } else {
            write!(f, "{}bit", self.bits())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_sorted_ascending() {
        for pair in Bitwidth::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!(pair[0].bits() < pair[1].bits());
        }
    }

    #[test]
    fn round_trip_through_u8() {
        for bw in Bitwidth::ALL {
            assert_eq!(Bitwidth::try_from(bw.bits()).unwrap(), bw);
        }
    }

    #[test]
    fn rejects_unsupported_bitwidths() {
        for bits in [0u8, 1, 7, 8, 16, 31, 64] {
            assert!(Bitwidth::try_from(bits).is_err(), "{bits} should be rejected");
        }
    }

    #[test]
    fn payload_bytes_rounds_up() {
        assert_eq!(Bitwidth::B2.payload_bytes(3), 1); // 6 bits -> 1 byte
        assert_eq!(Bitwidth::B2.payload_bytes(4), 1); // 8 bits -> 1 byte
        assert_eq!(Bitwidth::B2.payload_bytes(5), 2); // 10 bits -> 2 bytes
        assert_eq!(Bitwidth::B3.payload_bytes(8), 3); // 24 bits -> 3 bytes
        assert_eq!(Bitwidth::Full.payload_bytes(10), 40);
    }

    #[test]
    fn centroid_count_is_power_of_two() {
        assert_eq!(Bitwidth::B2.centroid_count(), 4);
        assert_eq!(Bitwidth::B6.centroid_count(), 64);
    }

    #[test]
    #[should_panic(expected = "no centroid dictionary")]
    fn centroid_count_panics_on_full() {
        let _ = Bitwidth::Full.centroid_count();
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Bitwidth::B2.to_string(), "2bit");
        assert_eq!(Bitwidth::Full.to_string(), "full");
    }
}
