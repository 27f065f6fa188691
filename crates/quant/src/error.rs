//! Error type for quantization operations.

use std::fmt;

/// Errors produced while quantizing or dequantizing shards.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuantError {
    /// A bitwidth outside the supported set {2..6, 32} was requested.
    UnsupportedBitwidth(u8),
    /// The weight group was empty.
    EmptyInput,
    /// A packed index referenced a centroid outside the dictionary.
    IndexOutOfRange {
        /// The offending index value.
        index: usize,
        /// The dictionary size it exceeded.
        dictionary: usize,
    },
    /// An outlier's recorded offset exceeded the weight count.
    OutlierOffsetOutOfRange {
        /// The offending offset.
        offset: usize,
        /// Number of weights in the group.
        len: usize,
    },
    /// A coded body whose header does not describe it: a declared length
    /// that is not the body's, or a part too long for its header field.
    MalformedBody,
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::UnsupportedBitwidth(bits) => {
                write!(f, "unsupported bitwidth {bits} (supported: 2-6, 32)")
            }
            QuantError::EmptyInput => write!(f, "cannot quantize an empty weight group"),
            QuantError::IndexOutOfRange { index, dictionary } => {
                write!(f, "packed index {index} exceeds dictionary of {dictionary} centroids")
            }
            QuantError::OutlierOffsetOutOfRange { offset, len } => {
                write!(f, "outlier offset {offset} exceeds weight count {len}")
            }
            QuantError::MalformedBody => write!(f, "coded body does not match its header"),
        }
    }
}

impl std::error::Error for QuantError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            QuantError::UnsupportedBitwidth(7).to_string(),
            QuantError::EmptyInput.to_string(),
            QuantError::IndexOutOfRange { index: 9, dictionary: 4 }.to_string(),
            QuantError::OutlierOffsetOutOfRange { offset: 10, len: 5 }.to_string(),
            QuantError::MalformedBody.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantError>();
    }
}
