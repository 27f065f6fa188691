//! The repo benchmark: four scaled-BERT serving workloads, host-time and
//! simulated-time end-to-end metrics, per-layer probes and a traced run.
//! See `benchmark/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod compare;
pub mod gen;
pub mod json;
pub mod probes;
pub mod replay;
pub mod rng;
pub mod run;
pub mod selftest;
pub mod spec;
pub mod stats;
pub mod tracer;
pub mod workloads;
