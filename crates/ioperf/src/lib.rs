//! `pckpt-ioperf` — the multi-level I/O performance model.
//!
//! Section IV of the paper characterizes the *actual* I/O performance an
//! application sees on Summit's GPFS parallel file system with two
//! experiments: (1) aggregate single-node write bandwidth as a function of
//! MPI task count and transfer size (Fig. 2b; 8 tasks is optimal, peaking
//! at ≈13–13.5 GB/s), and (2) a weak-scaling matrix of aggregate bandwidth
//! over (node count × per-node transfer size) (Fig. 2c; the fabric-wide
//! ceiling is ≈2.5 TB/s). The simulation looks up checkpoint-commit times
//! in that matrix.
//!
//! The authors' raw measurements are not published, so this crate provides
//! a **parametric model fitted to every number the paper states** (see
//! DESIGN.md §3) and exposes it two ways:
//!
//! * [`node::NodeIoModel`] — the analytic single-node curve (regenerates
//!   Fig. 2b),
//! * [`pfs::PerfMatrix`] — a sampled (nodes × size) grid with bilinear
//!   log-log interpolation, built from the analytic model exactly like the
//!   paper builds its matrix from measurements (regenerates Fig. 2c and is
//!   what the C/R models query at simulation time).
//!
//! The other storage levels are modeled in [`bb`] (node-local burst
//! buffers: 1.6 TB, 2.1 GB/s write / 5.5 GB/s read) and [`net`] (NIC
//! injection bandwidth 12.5 GB/s, log-depth barrier latency — 8 µs at
//! 2048 nodes).

#![warn(missing_docs)]

pub mod bb;
pub mod net;
pub mod node;
pub mod pfs;

pub use bb::BurstBuffer;
pub use net::Network;
pub use node::NodeIoModel;
pub use pfs::{CapacityCurve, PerfMatrix, PfsModel};

/// One gigabyte in bytes (decimal, as used throughout the paper).
pub const GB: f64 = 1e9;
/// One terabyte in bytes.
pub const TB: f64 = 1e12;
/// One megabyte in bytes.
pub const MB: f64 = 1e6;

/// The full Summit-like I/O hierarchy bundled together.
///
/// This is the object the C/R models take: burst buffer, PFS matrix and
/// network for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct IoHierarchy {
    /// Node-local burst buffer.
    pub bb: BurstBuffer,
    /// Parallel file system performance matrix.
    pub pfs: PfsModel,
    /// Interconnect.
    pub net: Network,
}

impl IoHierarchy {
    /// The Summit configuration used throughout the paper's evaluation.
    pub fn summit() -> Self {
        Self {
            bb: BurstBuffer::summit(),
            pfs: PfsModel::summit(),
            net: Network::summit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_hierarchy_is_consistent() {
        let io = IoHierarchy::summit();
        // BB write is slower than read (paper: 2.1 vs 5.5 GB/s).
        assert!(io.bb.write_bw() < io.bb.read_bw());
        // Single-node PFS write beats the BB write bandwidth on Summit
        // (13+ GB/s vs 2.1 GB/s) — this asymmetry is why proactive
        // checkpoints can bypass the BB entirely.
        assert!(io.pfs.single_node_write_bw(64.0 * GB) > io.bb.write_bw());
        // NIC: 12.5 GB/s.
        assert!((io.net.injection_bw() - 12.5 * GB).abs() < 1e-3);
    }
}
