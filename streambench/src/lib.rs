//! End-to-end and per-layer benchmark of the dpta streaming API; see
//! README.md for the metrics, the workloads and how to run it.

pub mod bench;
pub mod checks;
pub mod drain;
pub mod engine;
pub mod host;
pub mod trace;
pub mod workload;
