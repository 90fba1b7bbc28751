//! Interconnect model.
//!
//! Live migration moves a process image between two nodes over the fat-tree
//! fabric; the paper sizes this with Summit's per-node injection bandwidth
//! of 12.5 GB/s (Sec. VII, Observation 8, where it is compared against the
//! 13–13.5 GB/s single-node PFS write path). Collective coordination costs
//! (the p-ckpt notification broadcast and commit barrier) are log-depth and
//! tiny — "a global barrier with 2048 nodes takes only ≈8 µs" — but we
//! model them anyway so the protocol's synchronization cost is explicit
//! rather than assumed away.

use crate::GB;

/// Interconnect performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Network {
    injection_bw: f64,
    /// Per-hop latency of a software tree collective (seconds per log2
    /// level). Calibrated so barrier(2048) ≈ 8 µs.
    collective_hop_latency: f64,
}

impl Network {
    /// Creates a network model with an injection bandwidth (bytes/sec) and
    /// per-tree-level collective latency (seconds).
    pub fn new(injection_bw: f64, collective_hop_latency: f64) -> Self {
        assert!(
            injection_bw > 0.0 && collective_hop_latency >= 0.0,
            "invalid network parameters"
        );
        Self {
            injection_bw,
            collective_hop_latency,
        }
    }

    /// Summit: 12.5 GB/s injection; barrier(2048 nodes) ≈ 8 µs
    /// ⇒ ≈0.727 µs per tree level (log2(2048) = 11 levels).
    pub fn summit() -> Self {
        Self::new(12.5 * GB, 8.0e-6 / 11.0)
    }

    /// Per-node injection bandwidth, bytes/sec.
    pub fn injection_bw(&self) -> f64 {
        self.injection_bw
    }

    /// Seconds to stream `bytes` point-to-point (live-migration transfer).
    pub fn transfer_secs(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "negative transfer size");
        bytes / self.injection_bw
    }

    /// Seconds for a barrier/broadcast across `nodes` participants
    /// (log-depth tree).
    pub fn collective_secs(&self, nodes: usize) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let levels = (nodes as f64).log2().ceil();
        levels * self.collective_hop_latency
    }

    /// Every parameter, as [`new`](Self::new) takes them:
    /// `(injection_bw, collective_hop_latency)`. Destructures `Self`
    /// exhaustively, so a new field fails to compile here until it is
    /// returned (the cell fingerprint encodes these parts).
    pub fn parts(&self) -> (f64, f64) {
        let Self {
            injection_bw,
            collective_hop_latency,
        } = *self;
        (injection_bw, collective_hop_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_barrier_matches_paper() {
        let net = Network::summit();
        let t = net.collective_secs(2048);
        assert!((t - 8.0e-6).abs() < 1e-9, "barrier(2048) = {t}");
    }

    #[test]
    fn collective_degenerate_cases() {
        let net = Network::summit();
        assert_eq!(net.collective_secs(1), 0.0);
        assert_eq!(net.collective_secs(0), 0.0);
        assert!(net.collective_secs(4096) > net.collective_secs(2048));
    }

    #[test]
    fn transfer_time_is_linear() {
        let net = Network::summit();
        // An 852 GB live-migration image (3× CHIMERA's per-node ckpt)
        // takes ≈68 s at 12.5 GB/s.
        let t = net.transfer_secs(852.0 * GB);
        assert!((t - 68.16).abs() < 0.01, "t = {t}");
        assert_eq!(net.transfer_secs(0.0), 0.0);
    }
}
