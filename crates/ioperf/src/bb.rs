//! Node-local burst buffer model.
//!
//! On Summit every compute node carries a 1.6 TB NVMe device with ≈2.1 GB/s
//! write and ≈5.5 GB/s read bandwidth (Sec. II of the paper). Periodic
//! checkpoints are staged here synchronously and drained to the PFS
//! asynchronously; recovery from an unmitigated failure reads from here on
//! every surviving node.

use crate::{GB, TB};

/// A node-local burst buffer device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstBuffer {
    capacity: f64,
    write_bw: f64,
    read_bw: f64,
}

impl BurstBuffer {
    /// Creates a burst buffer with explicit capacity (bytes) and
    /// bandwidths (bytes/sec).
    pub fn new(capacity: f64, write_bw: f64, read_bw: f64) -> Self {
        assert!(
            capacity > 0.0 && write_bw > 0.0 && read_bw > 0.0,
            "burst buffer parameters must be positive"
        );
        Self {
            capacity,
            write_bw,
            read_bw,
        }
    }

    /// Summit's per-node NVMe: 1.6 TB, 2.1 GB/s write, 5.5 GB/s read.
    pub fn summit() -> Self {
        Self::new(1.6 * TB, 2.1 * GB, 5.5 * GB)
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Sequential write bandwidth in bytes/sec.
    pub fn write_bw(&self) -> f64 {
        self.write_bw
    }

    /// Sequential read bandwidth in bytes/sec.
    pub fn read_bw(&self) -> f64 {
        self.read_bw
    }

    /// True if a checkpoint of `bytes` fits on the device.
    ///
    /// The paper assumes "the checkpoint size per node never exceeds the
    /// DRAM or BB size"; the workload layer validates this via `fits`.
    pub fn fits(&self, bytes: f64) -> bool {
        bytes <= self.capacity
    }

    /// Seconds to write `bytes` to the device.
    pub fn write_secs(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "negative write size");
        bytes / self.write_bw
    }

    /// Seconds to read `bytes` back from the device.
    pub fn read_secs(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "negative read size");
        bytes / self.read_bw
    }

    /// Every parameter, as [`new`](Self::new) takes them: `(capacity,
    /// write_bw, read_bw)`. Destructures `Self` exhaustively, so a new
    /// field fails to compile here until it is returned (the cell
    /// fingerprint encodes these parts).
    pub fn parts(&self) -> (f64, f64, f64) {
        let Self {
            capacity,
            write_bw,
            read_bw,
        } = *self;
        (capacity, write_bw, read_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_parameters() {
        let bb = BurstBuffer::summit();
        assert_eq!(bb.capacity(), 1.6e12);
        assert_eq!(bb.write_bw(), 2.1e9);
        assert_eq!(bb.read_bw(), 5.5e9);
    }

    #[test]
    fn write_and_read_times() {
        let bb = BurstBuffer::summit();
        // CHIMERA stores ~284 GB/node: write ≈ 135 s, read ≈ 51.7 s.
        let bytes = 284.0 * GB;
        assert!((bb.write_secs(bytes) - 135.238).abs() < 0.01);
        assert!((bb.read_secs(bytes) - 51.636).abs() < 0.01);
        assert_eq!(bb.write_secs(0.0), 0.0);
    }

    #[test]
    fn capacity_check() {
        let bb = BurstBuffer::summit();
        assert!(bb.fits(512.0 * GB)); // DRAM-sized checkpoint fits
        assert!(!bb.fits(2.0 * TB));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_bandwidth() {
        let _ = BurstBuffer::new(1.0, 0.0, 1.0);
    }
}
