//! `pckpt-workloads` — HPC application characteristics.
//!
//! Table I of the paper lists the six real-world applications the
//! evaluation simulates, with checkpoint sizes already rescaled from their
//! original OLCF-Titan characterization to Summit via Eq. (3)
//! (DRAM-proportional scaling: Titan's 32 GB per node to Summit's
//! 512 GB). This crate carries that table with the sizes stored as
//! scaled; a unit test checks that reversing Eq. (3) puts every
//! application's per-node size within Titan's DRAM.

#![warn(missing_docs)]

pub mod app;

pub use app::{Application, TABLE_I};

/// One gigabyte in bytes (decimal, consistently with `pckpt-ioperf`).
pub const GB: f64 = 1e9;
