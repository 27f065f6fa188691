//! # sti-bench
//!
//! The experiment harness of the reproduction. Every table and figure of the
//! paper's evaluation has a module under [`experiments`] that regenerates
//! it, and one binary runs them by name:
//!
//! ```text
//! cargo run --release -p sti-bench --bin exp -- tab5   # Table 5
//! cargo run --release -p sti-bench --bin exp -- fig7   # Figure 7
//! cargo run --release -p sti-bench --bin exp -- all    # everything
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod experiments;
pub mod harness;
pub mod report;
