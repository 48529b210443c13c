//! # pipebench — the repository's benchmark
//!
//! Drives the FaaSKeeper pipeline (client → write queue → follower →
//! leader lanes → distributor → user store → replica) in virtual time
//! through its public entry points, checks the run's integrity, and
//! reports end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`). See `README.md` in this directory for every metric.

pub mod alloc;
pub mod cpu;
pub mod driver;
pub mod report;
pub mod stats;
pub mod workload;
