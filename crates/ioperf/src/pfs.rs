//! Parallel-file-system weak-scaling model (Fig. 2c).
//!
//! The paper's second I/O experiment builds a performance *matrix*:
//! aggregate GPFS bandwidth measured over a grid of (node count ×
//! per-node transfer size), with 8 writer tasks per node. The simulator
//! then computes every PFS checkpoint-commit time by looking up this
//! matrix. We reproduce the pipeline:
//!
//! 1. an analytic weak-scaling law combines the single-node curve
//!    ([`crate::node::NodeIoModel`]) with the fabric-wide ceiling of
//!    ≈2.5 TB/s reported for Summit — aggregate bandwidth follows a
//!    contention power law `min(C, b₁(s)·n^{1−β})` with β ≈ 0.4: one node
//!    gets the full client bandwidth, but per-node share decays as clients
//!    contend for the I/O servers long before the fabric ceiling is hit.
//!    The exponent is calibrated against the paper's observable
//!    consequences — e.g. XGC's 1515-node safeguard commit must take
//!    ≈2 minutes for M1's FT ratio of 0.04 (Table II) to emerge, and
//!    S3D's ≈35 s commit reproduces its 77 %→50 % recomputation-reduction
//!    slide (Sec. V);
//! 2. [`PerfMatrix`] samples that law on a log₂ grid exactly as the paper
//!    samples its measurements, and answers queries by bilinear
//!    interpolation in (log₂ nodes, log₂ size) space;
//! 3. [`PfsModel`] wraps the matrix with time/bandwidth convenience
//!    queries used by the C/R models. Reads use the same matrix as writes
//!    (the paper's stated simplification, justified because recovery reads
//!    are single-node and nowhere near aggregate limits).

use crate::node::NodeIoModel;
use crate::TB;

/// A sampled (nodes × per-node-size) aggregate-bandwidth grid with
/// bilinear log-log interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMatrix {
    /// log2 of node counts, ascending.
    log_nodes: Vec<f64>,
    /// log2 of per-node transfer sizes (bytes), ascending.
    log_sizes: Vec<f64>,
    /// Aggregate bandwidth (bytes/sec), row-major `[node][size]`.
    bw: Vec<f64>,
}

impl PerfMatrix {
    /// Builds a matrix by sampling `f(nodes, per_node_bytes) → bytes/sec`
    /// on the given grid axes. Panics on empty or non-ascending axes.
    pub fn from_fn(
        node_counts: &[u64],
        per_node_sizes: &[f64],
        f: impl Fn(u64, f64) -> f64,
    ) -> Self {
        assert!(
            !node_counts.is_empty() && !per_node_sizes.is_empty(),
            "matrix axes must be non-empty"
        );
        assert!(
            node_counts.windows(2).all(|w| w[0] < w[1]),
            "node axis must be strictly ascending"
        );
        assert!(
            per_node_sizes.windows(2).all(|w| w[0] < w[1]),
            "size axis must be strictly ascending"
        );
        assert!(node_counts[0] >= 1 && per_node_sizes[0] > 0.0);
        let mut bw = Vec::with_capacity(node_counts.len() * per_node_sizes.len());
        for &n in node_counts {
            for &s in per_node_sizes {
                let v = f(n, s);
                assert!(v > 0.0 && v.is_finite(), "bandwidth sample must be positive");
                bw.push(v);
            }
        }
        Self {
            log_nodes: node_counts.iter().map(|&n| (n as f64).log2()).collect(),
            log_sizes: per_node_sizes.iter().map(|&s| s.log2()).collect(),
            bw,
        }
    }

    fn cols(&self) -> usize {
        self.log_sizes.len()
    }

    /// Locates `x` on `axis`, returning (lower index, interpolation
    /// fraction). Queries outside the grid clamp to the border.
    fn locate(axis: &[f64], x: f64) -> (usize, f64) {
        if x <= axis[0] {
            return (0, 0.0);
        }
        let last = axis.len() - 1;
        if x >= axis[last] {
            return (last.saturating_sub(1), if last == 0 { 0.0 } else { 1.0 });
        }
        let hi = axis.partition_point(|&a| a <= x);
        let lo = hi - 1;
        let frac = (x - axis[lo]) / (axis[hi] - axis[lo]);
        (lo, frac)
    }

    /// Aggregate bandwidth (bytes/sec) for `nodes` nodes each moving
    /// `per_node_bytes`, by bilinear interpolation in log₂ space.
    pub fn aggregate_bw(&self, nodes: u64, per_node_bytes: f64) -> f64 {
        assert!(nodes >= 1, "at least one node required");
        assert!(
            per_node_bytes > 0.0 && per_node_bytes.is_finite(),
            "per-node size must be positive"
        );
        let (i, fi) = Self::locate(&self.log_nodes, (nodes as f64).log2());
        let (j, fj) = Self::locate(&self.log_sizes, per_node_bytes.log2());
        let c = self.cols();
        let rows = self.log_nodes.len();
        let i1 = (i + 1).min(rows - 1);
        let j1 = (j + 1).min(c - 1);
        let v00 = self.bw[i * c + j];
        let v01 = self.bw[i * c + j1];
        let v10 = self.bw[i1 * c + j];
        let v11 = self.bw[i1 * c + j1];
        let v0 = v00 * (1.0 - fj) + v01 * fj;
        let v1 = v10 * (1.0 - fj) + v11 * fj;
        v0 * (1.0 - fi) + v1 * fi
    }

    /// The sampled node-count axis (denormalized).
    pub fn node_axis(&self) -> Vec<u64> {
        self.log_nodes.iter().map(|&l| 2f64.powf(l).round() as u64).collect()
    }

    /// The sampled per-node-size axis in bytes.
    pub fn size_axis(&self) -> Vec<f64> {
        self.log_sizes.iter().map(|&l| 2f64.powf(l)).collect()
    }

    /// Raw sample at grid position `(node_idx, size_idx)`.
    pub fn sample(&self, node_idx: usize, size_idx: usize) -> f64 {
        self.bw[node_idx * self.cols() + size_idx]
    }
}

/// The PFS model the C/R simulations query.
#[derive(Debug, Clone, PartialEq)]
pub struct PfsModel {
    matrix: PerfMatrix,
    node_model: NodeIoModel,
    ceiling: f64,
    contention_exponent: f64,
}

/// Default weak-scaling contention exponent β: aggregate bandwidth grows
/// as `n^{1−β}`. See the module docs for the calibration anchors.
pub const DEFAULT_CONTENTION_EXPONENT: f64 = 0.4;

impl PfsModel {
    /// Builds the Summit model: single-node curve from
    /// [`NodeIoModel::summit`], 2.5 TB/s aggregate ceiling, β = 0.4,
    /// sampled on a 1–8192-node × 16 MB–1 TB grid.
    pub fn summit() -> Self {
        Self::from_parts(NodeIoModel::summit(), 2.5 * TB, DEFAULT_CONTENTION_EXPONENT)
    }

    /// Builds a model from a single-node curve, an aggregate ceiling and a
    /// contention exponent β ∈ [0, 1).
    pub fn from_parts(node_model: NodeIoModel, ceiling: f64, contention_exponent: f64) -> Self {
        assert!(ceiling > 0.0, "aggregate ceiling must be positive");
        assert!(
            (0.0..1.0).contains(&contention_exponent),
            "contention exponent must be in [0, 1)"
        );
        let node_counts: Vec<u64> = (0..=13).map(|e| 1u64 << e).collect(); // 1..8192
        let per_node_sizes: Vec<f64> = (24..=40).map(|e| (1u64 << e) as f64).collect(); // 16 MB..1 TB
        let matrix = PerfMatrix::from_fn(&node_counts, &per_node_sizes, |n, s| {
            Self::weak_scaling_law(&node_model, ceiling, contention_exponent, n, s)
        });
        Self {
            matrix,
            node_model,
            ceiling,
            contention_exponent,
        }
    }

    /// The analytic weak-scaling law: `min(C, b₁(s)·n^{1−β})`.
    fn weak_scaling_law(
        node_model: &NodeIoModel,
        ceiling: f64,
        beta: f64,
        nodes: u64,
        per_node: f64,
    ) -> f64 {
        let b1 = node_model.optimal_bandwidth(per_node);
        (b1 * (nodes as f64).powf(1.0 - beta)).min(ceiling)
    }

    /// Aggregate write bandwidth (bytes/sec) seen by a job of `nodes`
    /// nodes each committing `per_node_bytes` — the Fig. 2c lookup.
    pub fn aggregate_write_bw(&self, nodes: u64, per_node_bytes: f64) -> f64 {
        self.matrix.aggregate_bw(nodes, per_node_bytes)
    }

    /// Aggregate read bandwidth. The paper assumes the same matrix as for
    /// writes.
    pub fn aggregate_read_bw(&self, nodes: u64, per_node_bytes: f64) -> f64 {
        self.matrix.aggregate_bw(nodes, per_node_bytes)
    }

    /// Bandwidth available to a *single* node writing `bytes` (the p-ckpt
    /// phase-1 path: one vulnerable node with contention-free PFS access).
    pub fn single_node_write_bw(&self, bytes: f64) -> f64 {
        self.matrix.aggregate_bw(1, bytes)
    }

    /// Seconds for `nodes` nodes to each commit `per_node_bytes` to the
    /// PFS (synchronous, collective).
    pub fn write_secs(&self, nodes: u64, per_node_bytes: f64) -> f64 {
        if per_node_bytes == 0.0 {
            return 0.0;
        }
        nodes as f64 * per_node_bytes / self.aggregate_write_bw(nodes, per_node_bytes)
    }

    /// Seconds for one node to commit `bytes` alone.
    pub fn single_node_write_secs(&self, bytes: f64) -> f64 {
        if bytes == 0.0 {
            return 0.0;
        }
        bytes / self.single_node_write_bw(bytes)
    }

    /// Seconds for one node to read `bytes` alone (replacement-node
    /// recovery path).
    pub fn single_node_read_secs(&self, bytes: f64) -> f64 {
        self.single_node_write_secs(bytes)
    }

    /// Seconds for `nodes` nodes to each read `per_node_bytes`
    /// (post-proactive-checkpoint recovery, all nodes restore from PFS).
    pub fn read_secs(&self, nodes: u64, per_node_bytes: f64) -> f64 {
        if per_node_bytes == 0.0 {
            return 0.0;
        }
        nodes as f64 * per_node_bytes / self.aggregate_read_bw(nodes, per_node_bytes)
    }

    /// The fabric-wide bandwidth ceiling (bytes/sec).
    pub fn ceiling(&self) -> f64 {
        self.ceiling
    }

    /// The weak-scaling contention exponent β.
    pub fn contention_exponent(&self) -> f64 {
        self.contention_exponent
    }

    /// The sampled matrix (for rendering Fig. 2c).
    pub fn matrix(&self) -> &PerfMatrix {
        &self.matrix
    }

    /// The underlying single-node model (for rendering Fig. 2b).
    pub fn node_model(&self) -> &NodeIoModel {
        &self.node_model
    }

    /// The inputs of [`from_parts`](Self::from_parts), the only
    /// constructor: `(node_model, ceiling, contention_exponent)`. The
    /// sampled matrix is a pure function of them, so these parts alone
    /// identify the model (the cell fingerprint encodes them).
    /// Destructures `Self` exhaustively, so a new field fails to compile
    /// here until it is accounted for.
    pub fn parts(&self) -> (NodeIoModel, f64, f64) {
        let Self {
            matrix: _,
            node_model,
            ceiling,
            contention_exponent,
        } = self;
        (*node_model, *ceiling, *contention_exponent)
    }

    /// Precomputes the writer-count → aggregate-bandwidth curve at a
    /// fixed per-node size. See [`CapacityTable`].
    pub fn capacity_table(&self, per_node_bytes: f64, max_writers: usize) -> CapacityTable {
        CapacityTable::new(self, per_node_bytes, max_writers)
    }
}

/// A memoized `writers → aggregate bandwidth` lookup at a fixed per-node
/// transfer size.
///
/// The fluid-flow link consults its capacity function on *every* advance
/// and completion query — the hottest call site in a campaign. The full
/// [`PfsModel::aggregate_write_bw`] path does two binary searches plus a
/// bilinear interpolation per call; for a fixed job the per-node size
/// never changes and the writer count is a small integer, so the curve is
/// precomputed once here and the hot path is a bounds-checked array index.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityTable {
    /// `bw[w-1]` = aggregate bandwidth for `w` writers; queries above the
    /// table clamp to the last entry (the curve is ceiling-saturated
    /// there anyway).
    bw: Vec<f64>,
}

impl CapacityTable {
    /// Samples `pfs.aggregate_write_bw(w, per_node_bytes)` for
    /// `w = 1..=max_writers`.
    pub fn new(pfs: &PfsModel, per_node_bytes: f64, max_writers: usize) -> Self {
        assert!(max_writers >= 1, "table needs at least one writer count");
        assert!(
            per_node_bytes > 0.0 && per_node_bytes.is_finite(),
            "per-node size must be positive"
        );
        let bw = (1..=max_writers as u64)
            .map(|w| pfs.aggregate_write_bw(w, per_node_bytes))
            .collect();
        Self { bw }
    }

    /// Aggregate bandwidth (bytes/sec) for `writers` concurrent writers.
    /// `writers = 0` is answered as 1 (the link never queries capacity
    /// with no active weight, but callers clamp defensively).
    #[inline]
    pub fn capacity(&self, writers: usize) -> f64 {
        let idx = writers.clamp(1, self.bw.len()) - 1;
        self.bw[idx]
    }

    /// Number of precomputed writer counts.
    pub fn len(&self) -> usize {
        self.bw.len()
    }

    /// Always false: the constructor rejects empty tables.
    pub fn is_empty(&self) -> bool {
        self.bw.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GB;

    #[test]
    fn single_node_matches_node_model_closely() {
        let pfs = PfsModel::summit();
        let bytes = 64.0 * GB;
        let direct = NodeIoModel::summit().optimal_bandwidth(bytes);
        let via_matrix = pfs.single_node_write_bw(bytes);
        // The saturating-exponential law deviates from linear by b1/2C ≈
        // 0.3 % at one node; interpolation adds a little more.
        assert!(
            (via_matrix - direct).abs() / direct < 0.02,
            "matrix {via_matrix} vs direct {direct}"
        );
    }

    #[test]
    fn aggregate_bandwidth_saturates_at_ceiling() {
        let pfs = PfsModel::summit();
        let big = pfs.aggregate_write_bw(8192, 256.0 * GB);
        assert!(big <= 2.5 * TB * 1.001);
        assert!(big > 2.4 * TB, "8192 nodes must near the ceiling, got {big}");
    }

    #[test]
    fn aggregate_bandwidth_monotone_in_nodes() {
        let pfs = PfsModel::summit();
        let mut prev = 0.0;
        for e in 0..13 {
            let bw = pfs.aggregate_write_bw(1 << e, 32.0 * GB);
            assert!(bw > prev, "aggregate bw must grow with node count");
            prev = bw;
        }
    }

    #[test]
    fn per_node_share_shrinks_with_scale() {
        let pfs = PfsModel::summit();
        let s = 32.0 * GB;
        let share_small = pfs.aggregate_write_bw(4, s) / 4.0;
        let share_large = pfs.aggregate_write_bw(2048, s) / 2048.0;
        assert!(
            share_large < share_small,
            "weak scaling must dilute per-node bandwidth"
        );
    }

    #[test]
    fn write_secs_examples_match_paper_scale() {
        let pfs = PfsModel::summit();
        // CHIMERA safeguard commit: 2272 nodes × ~284 GB ≈ 646 TB at
        // ~1.4 TB/s → several hundred seconds. This is why safeguard
        // checkpointing (M1) cannot beat second-scale lead times for large
        // apps (Table II: FT ratio ≈ 0.006).
        let t = pfs.write_secs(2272, 284.5 * GB);
        assert!(t > 350.0 && t < 600.0, "CHIMERA full commit = {t}s");
        // XGC: ~150 TB over 1515 nodes ≈ 2 minutes → Table II's M1 FT
        // ratio of 0.04.
        let tx = pfs.write_secs(1515, 98.8 * GB);
        assert!(tx > 110.0 && tx < 170.0, "XGC full commit = {tx}s");
        // S3D: ≈35 s, the anchor behind its 77 %→50 % recomputation slide.
        let ts = pfs.write_secs(505, 40.0 * GB);
        assert!(ts > 28.0 && ts < 48.0, "S3D full commit = {ts}s");
        // p-ckpt phase 1: the vulnerable node alone ≈ 21-22 s.
        let t1 = pfs.single_node_write_secs(284.5 * GB);
        assert!(t1 > 19.0 && t1 < 24.0, "CHIMERA phase-1 = {t1}s");
        // POP: 126 nodes × ~0.81 GB commits in around a second.
        let tp = pfs.write_secs(126, 0.81 * GB);
        assert!(tp < 2.0, "POP full commit = {tp}s");
    }

    #[test]
    fn interpolation_clamps_outside_grid() {
        let pfs = PfsModel::summit();
        // Below the smallest sampled size and node count: finite, positive.
        let bw = pfs.aggregate_write_bw(1, 1.0 * crate::MB);
        assert!(bw > 0.0 && bw.is_finite());
        // Above the largest node count: clamped to the top row.
        let top = pfs.aggregate_write_bw(8192, 256.0 * GB);
        let beyond = pfs.aggregate_write_bw(20_000, 256.0 * GB);
        assert!((top - beyond).abs() / top < 1e-9);
    }

    #[test]
    fn matrix_interpolates_between_samples() {
        let m = PerfMatrix::from_fn(&[1, 4], &[8.0, 32.0], |n, s| n as f64 * s);
        // Query at n=2 (midpoint in log2 between 1 and 4), s=16 (midpoint
        // in log2 between 8 and 32): bilinear in log space averages the
        // four corners: (8+32+32+128)/4 = 50.
        let v = m.aggregate_bw(2, 16.0);
        assert!((v - 50.0).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn matrix_axes_roundtrip() {
        let pfs = PfsModel::summit();
        let nodes = pfs.matrix().node_axis();
        assert_eq!(nodes.first(), Some(&1));
        assert_eq!(nodes.last(), Some(&8192));
        let sizes = pfs.matrix().size_axis();
        assert!((sizes[0] - (1u64 << 24) as f64).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn matrix_rejects_unsorted_axes() {
        let _ = PerfMatrix::from_fn(&[4, 1], &[8.0], |_, _| 1.0);
    }

    #[test]
    fn capacity_table_matches_direct_lookup() {
        let pfs = PfsModel::summit();
        let per_node = 32.0 * GB;
        let table = pfs.capacity_table(per_node, 4096);
        for w in [1usize, 2, 7, 64, 513, 4096] {
            assert_eq!(
                table.capacity(w),
                pfs.aggregate_write_bw(w as u64, per_node),
                "writer count {w}"
            );
        }
        // Above the table: clamped to the last sampled count.
        assert_eq!(table.capacity(10_000), table.capacity(4096));
        // Zero writers: defensively answered as one.
        assert_eq!(table.capacity(0), table.capacity(1));
        assert_eq!(table.len(), 4096);
        assert!(!table.is_empty());
    }

    #[test]
    fn read_equals_write_by_assumption() {
        let pfs = PfsModel::summit();
        assert_eq!(
            pfs.aggregate_read_bw(64, 8.0 * GB),
            pfs.aggregate_write_bw(64, 8.0 * GB)
        );
        assert_eq!(pfs.read_secs(64, 0.0), 0.0);
    }
}
